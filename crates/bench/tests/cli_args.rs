//! The bench binaries reject bad arguments with exit status 2 and a
//! message instead of panicking (exit 101), aborting (exit 134), or
//! silently running on a default. Every case here fails during
//! argument checking, before any simulation starts.

use std::process::Command;

/// Run binary `exe` with `args`, returning its exit code and stderr.
fn run(exe: &str, args: &str) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .args(args.split_whitespace())
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Assert that `name args` exits 2 with a message containing `needle`.
fn rejects(exe: &str, name: &str, args: &str, needle: &str) {
    let (code, stderr) = run(exe, args);
    assert_eq!(code, Some(2), "`{name} {args}` exit status; stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "`{name} {args}` panicked:\n{stderr}");
    assert!(stderr.contains(needle), "`{name} {args}`: {stderr}");
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
        rejects(env!("CARGO_BIN_EXE_seesaw_cli"), "seesaw_cli", args, "must be a positive integer");
    }
}

#[test]
fn a_valid_plan_still_runs() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_seesaw_cli"), "plan 13b a10 4");
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}

#[test]
fn figure_bins_reject_bad_counts() {
    let positive = "must be a positive integer";
    for (exe, name, args) in [
        (env!("CARGO_BIN_EXE_fig10"), "fig10", "a10 0"),
        (env!("CARGO_BIN_EXE_fig11"), "fig11", "0"),
        (env!("CARGO_BIN_EXE_fig12"), "fig12", "abc"),
        (env!("CARGO_BIN_EXE_fig13"), "fig13", "0"),
        (env!("CARGO_BIN_EXE_fig14"), "fig14", "0"),
        (env!("CARGO_BIN_EXE_ablations"), "ablations", "0"),
        (env!("CARGO_BIN_EXE_all_figures"), "all_figures", "0"),
        (env!("CARGO_BIN_EXE_perf_report"), "perf_report", "0"),
    ] {
        rejects(exe, name, args, positive);
    }
    rejects(env!("CARGO_BIN_EXE_fig10"), "fig10", "h100", "unknown gpu 'h100'");
    rejects(env!("CARGO_BIN_EXE_fig12"), "fig12", "10 20", "usage: fig12");
}

#[test]
fn chaos_rejects_extreme_fault_rates() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    rejects(chaos, "chaos", "--day 100 --window 10 --kills 1e308", "kills_per_hour must be finite");
    rejects(chaos, "chaos", "--day 100 --window 10 --kills 1e9", "expected faults");
    rejects(chaos, "chaos", "--day 1e-300 --window 10 --kills 5", "expected faults");
}
