//! `seesaw_cli` rejects bad arguments with exit status 2 and a
//! message instead of panicking (exit 101).

use std::process::Command;

/// Run `seesaw_cli` with `args`, returning its exit code and stderr.
fn cli(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_seesaw_cli"))
        .args(args.split_whitespace())
        .output()
        .expect("seesaw_cli runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_counts_exit_2_with_a_message() {
    for args in [
        "plan 13b a10 0",
        "compare 13b a10 0 512 64 2",
        "compare 13b a10 4 0 0 2",
        "compare 13b a10 4 512 64 0",
        "compare 13b a10 4 512 64 many",
        "tune 13b a10 4 0 64",
        "plan 13b a10 -1",
    ] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(2), "`seesaw_cli {args}` exit status; stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "`seesaw_cli {args}` panicked:\n{stderr}");
        assert!(stderr.contains("must be a positive integer"), "`{args}`: {stderr}");
    }
}

#[test]
fn a_valid_plan_still_runs() {
    let (code, stderr) = cli("plan 13b a10 4");
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}
