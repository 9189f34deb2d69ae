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

/// A request no configuration can hold: the KV check names its size
/// and the largest capacity before any simulation (it used to panic
/// inside the vLLM sweep).
#[test]
fn oversized_requests_exit_2_with_the_capacity() {
    let cli = env!("CARGO_BIN_EXE_seesaw_cli");
    let needle = "a 400064-token request does not fit: the largest per-replica KV capacity \
                  of LLaMA2-13B on 4x A10 is 83984 tokens";
    rejects(cli, "seesaw_cli", "compare 13b a10 4 400000 64 2", needle);
    rejects(cli, "seesaw_cli", "tune 13b a10 4 400000 64", needle);
}

/// A request only chunked-prefill vLLM can hold (its prompt exceeds
/// one prefill pass): the sweep skips the configs that cannot, and
/// the Seesaw row is skipped with the reason.
#[test]
fn compare_skips_what_cannot_hold_the_request() {
    let out = Command::new(env!("CARGO_BIN_EXE_seesaw_cli"))
        .args("compare 13b a10 4 20000 64 2".split_whitespace())
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("baseline [D2T2]"), "{stdout}");
    assert!(stdout.contains("seesaw   [-]: skipped"), "{stdout}");
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

/// One probe per shared value class and experiment bin: each rejects
/// its argument during parsing with the bin's own message.
#[test]
fn experiment_bins_reject_bad_flag_values() {
    let fleet = env!("CARGO_BIN_EXE_fleet");
    let serving = env!("CARGO_BIN_EXE_serving");
    let autoscale = env!("CARGO_BIN_EXE_autoscale");
    let chaos = env!("CARGO_BIN_EXE_chaos");
    rejects(fleet, "fleet", "--jobs 0", "--jobs needs a positive integer");
    let list = "needs a comma-separated list of positive";
    rejects(fleet, "fleet", "--replicas 2,0", &format!("--replicas {list} counts"));
    rejects(fleet, "fleet", "--engine tpu", "unknown engine 'tpu'");
    rejects(fleet, "fleet", "--policy nope", "unknown policy 'nope'");
    rejects(serving, "serving", "--loads 1,-2", &format!("--loads {list} multipliers"));
    rejects(serving, "serving", "--slo-tpot 0", "--slo-tpot needs a positive number");
    rejects(autoscale, "autoscale", "--seed x", "--seed needs a non-negative integer");
    rejects(autoscale, "autoscale", "--warmup -1", "--warmup needs a non-negative number");
    rejects(autoscale, "autoscale", "--min 5 --max 2", "--min must be <= --max");
    rejects(autoscale, "autoscale", "--day 600 --window 1e-9", "control windows");
    rejects(chaos, "chaos", "--slo-ttft nan", "--slo-ttft needs a positive number");
    rejects(chaos, "chaos", "--peak 1 --trough 2", "--peak must be >= --trough");
    rejects(chaos, "chaos", "--groups 0", "--groups needs a positive integer");
    rejects(chaos, "chaos", "--trace-out", "usage: chaos");
    let bins = [(fleet, "fleet"), (serving, "serving"), (autoscale, "autoscale"), (chaos, "chaos")];
    for (exe, name) in bins {
        rejects(exe, name, "--bogus", &format!("usage: {name}"));
    }
}

/// Counts that used to wrap or abort on a terabyte-sized allocation:
/// a retry budget past `u32`, and replica or request counts past the
/// shared ceilings.
#[test]
fn experiment_bins_reject_oversized_counts() {
    rejects(
        env!("CARGO_BIN_EXE_chaos"),
        "chaos",
        "--day 600 --window 60 --retries 4294967296",
        "--retries must be at most 4294967295",
    );
    let fleet = env!("CARGO_BIN_EXE_fleet");
    rejects(fleet, "fleet", "10 --replicas 100000000000", "--replicas must be at most");
    let compare = "10 --compare-replicas 100000000000";
    rejects(fleet, "fleet", compare, "--compare-replicas must be at most");
    rejects(fleet, "fleet", "100000000000", "n_requests must be at most");
    rejects(
        env!("CARGO_BIN_EXE_autoscale"),
        "autoscale",
        "--day 600 --window 60 --min 100000000000 --max 100000000000",
        "--min must be at most",
    );
    let too_many = "n_requests must be at most";
    rejects(env!("CARGO_BIN_EXE_serving"), "serving", "100000000000", too_many);
    let cli = "compare 13b a10 4 512 64 100000000000";
    rejects(env!("CARGO_BIN_EXE_seesaw_cli"), "seesaw_cli", cli, too_many);
}
