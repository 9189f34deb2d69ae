//! `perf_report` — measures the figure-generation sweep serial vs
//! parallel plus the single-simulation hot path (sims/sec), and
//! writes a `BENCH_sweep.json` trajectory artifact so the sweep
//! engine's performance is tracked across PRs.
//!
//! Usage: `perf_report [subsample] [--jobs N] [--out PATH] [--baseline PATH]`
//!
//! Defaults: `subsample = 8` (the acceptance benchmark is
//! `all_figures 8`), `N` from the environment (clamped to the host's
//! cores), `PATH = BENCH_sweep.json`. The full catalog runs twice —
//! once on a single-threaded runner, once on the parallel runner —
//! and the two outputs are compared byte-for-byte before the timings
//! are reported. The serial output's FNV-1a 64 digest (the bytes
//! `all_figures` prints at that subsample) is written as
//! `output_digest`.
//!
//! The sims/sec microbench times repeated *single-candidate*
//! evaluations (engine construction + full run on a fixed workload)
//! for one Seesaw and one vLLM candidate, exactly the unit of work a
//! sweep performs per grid cell — plus one online-serving load point
//! (a one-replica round-robin fleet on fixed-seed Poisson arrivals:
//! arrival-gated admission, latency percentiles), the unit of work the
//! `serving` bin performs per load point. Candidates share `Arc`'d specs across iterations — the
//! steady state of a sweep worker.
//!
//! With `--baseline PATH`, the report exits non-zero when any
//! sims/sec figure (`seesaw`, `vllm`, `vllm_chunked`, `serving`,
//! `fleet`, `fleet_live`, `fleet_live_traced`, `autoscale`, `metrics`,
//! `chaos`) regresses more than 20% against the committed artifact
//! (or when parallel output ever diverges from serial), and when the
//! committed artifact holds an `output_digest` for the same subsample
//! that differs from this run's: the figures' bytes are pinned across
//! builds, so a deliberate re-baseline updates that one line. `metrics` is
//! the controller's metrics phase in isolation (`windowed_metrics`
//! plus burn-rate evaluation over a precomputed day, exactly what
//! `AutoscaleController` runs when it builds a report) and must
//! additionally clear 1.5x the full `autoscale` cell rate — the
//! pipeline may never become comparable in cost to the replay it
//! summarizes. Likewise `fleet_live` must
//! clear 0.7x the `fleet` rate: both cells run on the same fleet
//! event loop, so the ratio is the cost of reading measured replica
//! state from the engine actors, which may never again grow to a
//! multiple of the cell it rides on. Both ratios, like the
//! telemetry-disabled overhead below, are measured on alternating
//! batch pairs of the two cells, not as a quotient of two
//! independently timed rates.
//!
//! Two telemetry figures ride along: `fleet_live_traced` times the
//! live-fleet cell with the span recorder and metrics registry on
//! (the enabled-telemetry cost), and the telemetry-disabled overhead
//! check re-times the same cell through the instrumented entry point
//! with the instrument *off*, holding it to within 5% of
//! `fleet_live` — "zero-cost when disabled", measured. The report
//! also runs the autoscale controller with self-profiling timers on
//! and prints its wall-time phase attribution (routing / live-state
//! replay / engine runs / metrics), which must explain >= 90% of the
//! controller's total wall time.

use seesaw_bench::jsonfmt::esc;
use seesaw_bench::simsbench::{SimsBench, WORKLOAD_LABEL};
use seesaw_bench::{cli, figs};
use seesaw_engine::sweep::host_cores;
use seesaw_engine::SweepRunner;
use seesaw_telemetry::ControllerProfile;
use std::hint::black_box;
use std::time::Instant;

/// Iterations per sims/sec measurement batch.
const SIMS_BATCH: usize = 100;
/// Measurement batches (the best one is reported, suppressing
/// scheduler noise on small CI hosts).
const SIMS_BATCHES: usize = 5;
/// Warm-up iterations before timing.
const SIMS_WARMUP: usize = 10;
/// Maximum tolerated sims/sec regression vs `--baseline`.
const SIMS_REGRESSION_TOLERANCE: f64 = 0.20;
/// Maximum tolerated throughput cost of the telemetry-disabled
/// instrumented entry point vs the plain `fleet_live` path.
const TELEMETRY_DISABLED_TOLERANCE: f64 = 0.05;
/// Minimum ratio of the metrics pipeline rate (`metrics`) to the
/// full autoscale cell rate.
const METRICS_SPEEDUP_FLOOR: f64 = 1.5;
/// Minimum ratio of the live-routed fleet cell rate (`fleet_live`) to
/// the estimated-routing cell rate (`fleet`) on the same event loop —
/// the cost budget of live-state reads.
const FLEET_LIVE_FLOOR: f64 = 0.7;
/// Profiled controller runs folded into one attribution block.
const PROFILE_RUNS: usize = 3;
/// Minimum fraction of controller wall time the profile must explain.
const PROFILE_COVERAGE_FLOOR: f64 = 0.90;

struct FigTiming {
    name: &'static str,
    serial_s: f64,
    parallel_s: f64,
}

fn run_catalog(subsample: usize, runner: SweepRunner) -> (f64, Vec<(&'static str, f64, String)>) {
    let jobs = figs::catalog(subsample, runner);
    let names: Vec<&'static str> = jobs.iter().map(|&(name, _)| name).collect();
    let t0 = Instant::now();
    let results = runner.run_tasks(jobs.into_iter().map(|(_, job)| job).collect());
    let total = t0.elapsed().as_secs_f64();
    let per_fig = names
        .into_iter()
        .zip(results)
        .map(|(name, r)| (name, r.elapsed_s, r.value))
        .collect();
    (total, per_fig)
}

/// Best-batch evaluations-per-second of `f` (one call = one
/// single-candidate evaluation).
fn sims_per_sec<T>(mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..SIMS_WARMUP {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..SIMS_BATCHES {
        let t0 = Instant::now();
        for _ in 0..SIMS_BATCH {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64() / SIMS_BATCH as f64);
    }
    1.0 / best
}

/// All sims/sec figures of one measurement pass: `(gate key, value)`
/// pairs, in report order.
type Sims = [(&'static str, f64); 10];

/// Per-figure max of two passes (the regression-gate retry).
fn best_of(a: &Sims, b: &Sims) -> Sims {
    std::array::from_fn(|i| (a[i].0, a[i].1.max(b[i].1)))
}

fn summary(sims: &Sims) -> String {
    let figures: Vec<String> = sims.iter().map(|(name, v)| format!("{name} {v:.0}")).collect();
    figures.join(", ")
}

/// The tier-1 sims/sec microbench — see [`seesaw_bench::simsbench`]
/// for the canonical scenario definition. `vllm_chunked` is the vLLM
/// candidate under 512-token chunked prefill. `serving` is the
/// latency-metric throughput: `serving` load points (a one-replica
/// round-robin fleet run + percentile computation) per second. `fleet`
/// is the fleet-sweep grid-cell rate: a serial 4-replica JSQ fleet
/// run (routing + 4 replica simulations + merged report) per second;
/// `fleet_live` is the same cell under `jsq-live` — the same event
/// loop plus per-arrival measured-state reads. `autoscale` is the
/// frontier-sweep grid-cell rate: one reactive controller replay of
/// the compressed diurnal trace (windowed routing, scaling decisions,
/// elastic replica runs, merged windowed report) per second.
/// `metrics` is the controller's metrics phase alone:
/// `windowed_metrics` plus burn-rate evaluation over the autoscale
/// cell's precomputed day. `chaos` is the same replay
/// under a fixed seeded kill schedule with replacement spawns and
/// retry/requeue — one chaos-frontier grid cell per evaluation.
fn measure_sims_per_sec(bench: &SimsBench) -> Sims {
    [
        ("seesaw", sims_per_sec(|| bench.run_seesaw_once())),
        ("vllm", sims_per_sec(|| bench.run_vllm_once())),
        ("vllm_chunked", sims_per_sec(|| bench.run_vllm_chunked_once())),
        ("serving", sims_per_sec(|| bench.run_serving_once())),
        ("fleet", sims_per_sec(|| bench.run_fleet_once())),
        ("fleet_live", sims_per_sec(|| bench.run_fleet_live_once())),
        ("fleet_live_traced", sims_per_sec(|| bench.run_fleet_live_traced_once())),
        ("autoscale", sims_per_sec(|| bench.run_autoscale_once())),
        ("metrics", sims_per_sec(|| bench.run_metrics_once())),
        ("chaos", sims_per_sec(|| bench.run_chaos_once())),
    ]
}

/// Alternating-batch comparison of two cells: batches of `a` and `b`
/// alternate, and the `(a, b)` sims/sec of the batch pair with the
/// highest `b / a` is returned. Scheduler noise on a small host slows
/// whole stretches of time, so it hits the two batches of a pair
/// alike and cancels in their ratio, while a real cost difference
/// shows in every pair; two rates each timed once and divided would
/// carry both samples' noise into the ratio.
fn paired_rates<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    for _ in 0..SIMS_WARMUP {
        black_box(a());
        black_box(b());
    }
    fn rate<T>(f: &mut impl FnMut() -> T) -> f64 {
        let t0 = Instant::now();
        for _ in 0..SIMS_BATCH {
            black_box(f());
        }
        SIMS_BATCH as f64 / t0.elapsed().as_secs_f64()
    }
    let mut best = (1.0, 0.0);
    for _ in 0..SIMS_BATCHES {
        let pair = (rate(&mut a), rate(&mut b));
        if pair.1 / pair.0 > best.1 / best.0 {
            best = pair;
        }
    }
    best
}

/// Extract `"key": <number>` from a (flat) JSON artifact without a
/// JSON parser — the artifact is machine-written by this binary, so
/// a textual scan is exact enough for the regression gate.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `"key": "<string>"` from the artifact the same way.
fn json_string<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    text[at..].trim_start().strip_prefix('"')?.split('"').next()
}

/// FNV-1a 64 of the catalog's output as `all_figures` prints it: each
/// figure's text and a newline, in catalog order.
fn output_digest(figs: &[(&'static str, f64, String)]) -> String {
    let hash = figs
        .iter()
        .flat_map(|(_, _, text)| text.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{hash:016x}")
}

/// The `figures` array's rows, one per catalog entry, labels escaped
/// per RFC 8259.
fn figure_rows(timings: &[FigTiming]) -> String {
    let mut rows = String::new();
    for (i, t) in timings.iter().enumerate() {
        rows.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_s\": {:.4}, \"parallel_s\": {:.4}}}{}\n",
            esc(t.name),
            t.serial_s,
            t.parallel_s,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    rows
}

fn main() {
    let args = cli::parse_sweep_args(
        "perf_report [subsample] [--jobs N] [--out PATH] [--baseline PATH]",
        8,
        true,
    );
    let subsample = args.subsample;
    let out_path = args.out.unwrap_or_else(|| String::from("BENCH_sweep.json"));
    // Snapshot the baseline up front: `--out` may point at the same
    // file (regenerating the committed artifact in place), and the
    // gate must compare against the *pre-run* numbers, never a
    // just-written copy of itself.
    let baseline = args.baseline.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        (path, text)
    });
    let parallel_runner = SweepRunner::with_jobs(args.jobs);
    let host_cores = host_cores();

    eprintln!(
        "perf_report: all_figures {subsample}, serial baseline then {} jobs (requested {}, host has {host_cores} cores)",
        parallel_runner.jobs(),
        parallel_runner.requested_jobs()
    );
    eprintln!("running serial baseline...");
    let (serial_total, serial_figs) = run_catalog(subsample, SweepRunner::serial());
    eprintln!("serial: {serial_total:.2}s; running parallel sweep...");
    let (parallel_total, parallel_figs) = run_catalog(subsample, parallel_runner);
    eprintln!("parallel: {parallel_total:.2}s; measuring sims/sec...");
    let bench = SimsBench::new();
    let mut sims = measure_sims_per_sec(&bench);
    eprintln!("sims/sec: {}", summary(&sims));

    // The ratio gates come from alternating batch pairs
    // (`paired_rates`), not from the best-of-batches figures above, so
    // scheduler noise cancels instead of minting a phantom gap. The
    // zero-cost-when-disabled check: the instrumented entry point with
    // the instrument off must keep (within tolerance) the plain
    // fleet_live throughput.
    eprintln!("measuring telemetry-disabled overhead...");
    let (live, disabled) = paired_rates(
        || bench.run_fleet_live_once(),
        || bench.run_fleet_live_disabled_once(),
    );
    let disabled_overhead = (1.0 - disabled / live).max(0.0);
    eprintln!(
        "telemetry disabled: {disabled:.0} vs plain {live:.0} sims/sec \
         ({:.1}% overhead)",
        100.0 * disabled_overhead
    );

    eprintln!("measuring the metrics and live-routing ratios...");
    let (autoscale, metrics) =
        paired_rates(|| bench.run_autoscale_once(), || bench.run_metrics_once());
    let metrics_ratio = metrics / autoscale;
    let (fleet, fleet_live) =
        paired_rates(|| bench.run_fleet_once(), || bench.run_fleet_live_once());
    let live_ratio = fleet_live / fleet;

    // Controller self-profiling: where the autoscale cells/s go.
    eprintln!("profiling the autoscale controller...");
    let mut profile = ControllerProfile::default();
    for _ in 0..PROFILE_RUNS {
        let (report, p) = bench.run_autoscale_profiled_once();
        black_box(report);
        profile.absorb(&p);
    }

    // Resolve the gate's retry *before* composing the artifact, so a
    // run that passes on the re-measurement also records those
    // (better) numbers — promoting the written artifact as the next
    // committed baseline must never ratchet the floor down by a noise
    // swing. Scheduler noise on small CI hosts depresses whole
    // measurement windows; a real regression fails both measurements.
    let floor_of = |before: f64| before * (1.0 - SIMS_REGRESSION_TOLERANCE);
    if let Some((_, text)) = &baseline {
        let below = sims.iter().any(|&(name, c)| {
            json_number(text, name).is_some_and(|b| b > 0.0 && c < floor_of(b))
        });
        if below {
            eprintln!("apparent sims/sec regression; re-measuring once...");
            sims = best_of(&sims, &measure_sims_per_sec(&bench));
        }
    }

    let outputs_identical = serial_figs
        .iter()
        .zip(&parallel_figs)
        .all(|((_, _, a), (_, _, b))| a == b);
    let digest = output_digest(&serial_figs);
    let speedup = serial_total / parallel_total.max(1e-9);
    let timings: Vec<FigTiming> = serial_figs
        .iter()
        .zip(&parallel_figs)
        .map(|(&(name, serial_s, _), &(_, parallel_s, _))| FigTiming {
            name,
            serial_s,
            parallel_s,
        })
        .collect();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"all_figures\",\n");
    json.push_str(&format!("  \"subsample\": {subsample},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!(
        "  \"jobs_requested\": {},\n",
        parallel_runner.requested_jobs()
    ));
    json.push_str(&format!("  \"jobs\": {},\n", parallel_runner.jobs()));
    json.push_str(&format!("  \"serial_wall_s\": {serial_total:.4},\n"));
    json.push_str(&format!("  \"parallel_wall_s\": {parallel_total:.4},\n"));
    json.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    json.push_str(&format!("  \"outputs_identical\": {outputs_identical},\n"));
    json.push_str(&format!("  \"output_digest\": \"{digest}\",\n"));
    json.push_str("  \"sims_per_sec\": {\n");
    for (name, value) in sims {
        json.push_str(&format!("    \"{name}\": {value:.1},\n"));
    }
    json.push_str(&format!("    \"iters_per_batch\": {SIMS_BATCH},\n"));
    json.push_str(&format!("    \"batches\": {SIMS_BATCHES},\n"));
    json.push_str(&format!("    \"workload\": \"{}\"\n", esc(WORKLOAD_LABEL)));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"telemetry_disabled\": {{\"fleet_live\": {live:.1}, \"disabled\": {disabled:.1}, \
         \"overhead\": {disabled_overhead:.4}}},\n"
    ));
    json.push_str(&format!(
        "  \"controller_profile\": {{\"runs\": {PROFILE_RUNS}, \"routing_s\": {:.4}, \
         \"replay_s\": {:.4}, \"engine_s\": {:.4}, \"metrics_s\": {:.4}, \"total_s\": {:.4}, \
         \"coverage\": {:.4}, \"replay_amplification\": {:.3}, \"dispatches\": {}, \
         \"events\": {}, \"parks\": {}, \"lost_at_dispatch\": {}}},\n",
        profile.routing_s,
        profile.replay_s,
        profile.engine_s,
        profile.metrics_s,
        profile.total_s,
        profile.coverage(),
        profile.replay_amplification(),
        profile.dispatches,
        profile.events,
        profile.parks,
        profile.lost_at_dispatch,
    ));
    json.push_str("  \"figures\": [\n");
    json.push_str(&figure_rows(&timings));
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    println!(
        "all_figures {subsample}: serial {serial_total:.2}s, {} jobs {parallel_total:.2}s -> {speedup:.2}x (outputs identical: {outputs_identical})",
        parallel_runner.jobs()
    );
    println!("sims/sec: {}", summary(&sims));
    println!(
        "telemetry disabled: {disabled:.0} vs {live:.0} sims/sec ({:.1}% overhead)",
        100.0 * disabled_overhead
    );
    print!("{}", profile.render());
    println!("wrote {out_path}");
    if !outputs_identical {
        eprintln!("ERROR: parallel output diverged from serial output");
        std::process::exit(1);
    }
    if profile.coverage() < PROFILE_COVERAGE_FLOOR {
        eprintln!(
            "ERROR: controller profile explains only {:.1}% of wall time (floor {:.0}%)",
            100.0 * profile.coverage(),
            100.0 * PROFILE_COVERAGE_FLOOR
        );
        std::process::exit(1);
    }
    println!("metrics vs autoscale: {metrics_ratio:.1}x (floor {METRICS_SPEEDUP_FLOOR:.1}x)");
    if metrics_ratio < METRICS_SPEEDUP_FLOOR {
        eprintln!(
            "ERROR: metrics pipeline only {metrics_ratio:.2}x the full autoscale cell \
             (floor {METRICS_SPEEDUP_FLOOR:.1}x)"
        );
        std::process::exit(1);
    }

    println!("fleet_live vs fleet: {live_ratio:.2}x (floor {FLEET_LIVE_FLOOR:.1}x)");
    if live_ratio < FLEET_LIVE_FLOOR {
        eprintln!(
            "ERROR: live-routed fleet cell only {live_ratio:.2}x the estimated-routing cell \
             — live-state reads cost too much (floor {FLEET_LIVE_FLOOR:.1}x)"
        );
        std::process::exit(1);
    }

    if let Some((baseline_path, baseline)) = baseline {
        // The digest gate: only a baseline of the same subsample pins
        // the bytes.
        let pinned = json_number(&baseline, "subsample") == Some(subsample as f64);
        let digest_changed = match json_string(&baseline, "output_digest") {
            Some(before) if pinned => {
                let changed = before != digest;
                let verdict = if changed { "CHANGED" } else { "ok" };
                println!("baseline output_digest: {before} -> {digest} ({verdict})");
                changed
            }
            _ => {
                println!(
                    "baseline output_digest: none for subsample {subsample} in {baseline_path}, \
                     skipping"
                );
                false
            }
        };
        let mut failed = false;
        for (name, current) in sims {
            match json_number(&baseline, name) {
                Some(before) if before > 0.0 => {
                    let regressed = current < floor_of(before);
                    let verdict = if regressed { "REGRESSION" } else { "ok" };
                    println!(
                        "baseline {name}: {before:.0} -> {current:.0} sims/sec ({verdict})"
                    );
                    failed |= regressed;
                }
                _ => println!(
                    "baseline {name}: no sims_per_sec in {baseline_path} (pre-metric artifact), skipping"
                ),
            }
        }
        // The disabled-overhead check gates with the baseline run:
        // that's the CI posture where a throughput verdict is wanted.
        let overhead_ok = disabled_overhead <= TELEMETRY_DISABLED_TOLERANCE;
        println!(
            "baseline telemetry-disabled overhead: {:.1}% ({})",
            100.0 * disabled_overhead,
            if overhead_ok { "ok" } else { "REGRESSION" }
        );
        if failed || !overhead_ok || digest_changed {
            if digest_changed {
                eprintln!(
                    "ERROR: figure output digest {digest} differs from {baseline_path}'s; \
                     a deliberate re-baseline updates its output_digest"
                );
            }
            if !overhead_ok {
                eprintln!(
                    "ERROR: telemetry-disabled path costs more than {:.0}% vs fleet_live",
                    TELEMETRY_DISABLED_TOLERANCE * 100.0
                );
            }
            if failed {
                eprintln!(
                    "ERROR: sims/sec regressed more than {:.0}% vs {baseline_path}",
                    SIMS_REGRESSION_TOLERANCE * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A control character in a label is escaped, so the artifact stays
    /// valid JSON: a raw newline inside a string literal would end it.
    #[test]
    fn figure_rows_escape_a_newline_in_a_label() {
        let timings = [
            FigTiming { name: "fig\n\"1\"", serial_s: 1.0, parallel_s: 0.5 },
            FigTiming { name: "fig2", serial_s: 2.0, parallel_s: 1.0 },
        ];
        let rows = figure_rows(&timings);
        assert_eq!(
            rows,
            "    {\"name\": \"fig\\n\\\"1\\\"\", \"serial_s\": 1.0000, \"parallel_s\": 0.5000},\n    \
             {\"name\": \"fig2\", \"serial_s\": 2.0000, \"parallel_s\": 1.0000}\n"
        );
        assert_eq!(rows.lines().count(), timings.len(), "one line per row");
    }
}
