//! `chaos` — replay the day-long diurnal trace through an elastic
//! fleet while a seeded fault plan kills replicas, and print the
//! fault × recovery cost-vs-SLO-vs-availability frontier (see
//! `seesaw_bench::chaos` and the `crates/autoscale` subsystem).
//!
//! Usage:
//!   chaos [--jobs N] [--engine seesaw|vllm|disagg] [--day S]
//!         [--window S] [--warmup S] [--min N] [--max N]
//!         [--trough M] [--peak M] [--slo-ttft S] [--slo-tpot S]
//!         [--seed S] [--fault-seed S] [--kills K] [--outages K]
//!         [--groups N] [--detect S] [--retries N] [--backoff S]
//!         [--backoff-cap S] [--deadline S]
//!         [--timeline FAULT:RECOVERY] [--json] [--trace-out FILE]
//!         [--metrics-out FILE]
//!
//! Defaults: the autoscale bin's diurnal day (86 400 s, 0.25×–5× of
//! measured per-replica capacity) under three failure models — none,
//! 8 independent kills/day, and kills plus 1 correlated rack
//! outage/day across 2 groups — crossed with three recovery postures:
//! the bare provision-for-peak static fleet (never heals), the same
//! fleet with replacement spawns, and the reactive controller with
//! replacement. `--kills`/`--outages` are expected events per *day*
//! (scaled to compressed `--day` runs); lost requests requeue after
//! `--detect` seconds under exponential backoff. An empty fault model
//! (`--kills 0 --outages 0`) reproduces the fault-free autoscale
//! replay byte-for-byte, and output is byte-identical for every
//! `--jobs` value.
//!
//! Each cell also evaluates the default multi-window SLO burn-rate
//! rule over its measured window axis; the fault-detection frontier
//! table scores those alert streams against the injected correlated
//! outages (median detection latency, missed outages, and — on the
//! fault-free row — false fires).
//!
//! Observability: `--trace-out FILE` re-runs one dedicated cell
//! (independent kills against reactive+replace) with the telemetry
//! recorder on and writes its Perfetto/Chrome trace-event JSON —
//! kill/retry/park markers on the controller track alongside windows
//! and scale events; open it at ui.perfetto.dev or `chrome://tracing`.
//! With `--json` the document additionally gains a `telemetry`
//! metrics block, and `--metrics-out FILE` writes the same metric
//! snapshot (counters / gauges / histograms, including the
//! recorder's dropped-event health counters) as a standalone JSON
//! file.

use seesaw_bench::autoscale::{self, Scenario, CAPACITY_PROBE_REQUESTS};
use seesaw_bench::chaos::{self, ChaosSpec};
use seesaw_bench::cli::{fail, ScenarioArgs};
use seesaw_engine::SweepRunner;

fn main() {
    let mut chaos = ChaosSpec::default();
    let args = ScenarioArgs::parse(
        "chaos [--jobs N] [--engine seesaw|vllm|disagg] [--day S] [--window S] \
         [--warmup S] [--min N] [--max N] [--trough M] [--peak M] [--slo-ttft S] \
         [--slo-tpot S] [--seed S] [--fault-seed S] [--kills K] [--outages K] [--groups N] \
         [--detect S] [--retries N] [--backoff S] [--backoff-cap S] [--deadline S] \
         [--timeline FAULT:RECOVERY] [--json] [--trace-out FILE] [--metrics-out FILE]",
        |flag, flags| {
            match flag {
                "--fault-seed" => chaos.fault_seed = flags.seed(flag),
                "--kills" => chaos.kills_per_day = flags.non_negative(flag),
                "--outages" => chaos.outages_per_day = flags.non_negative(flag),
                "--groups" => chaos.groups = flags.count(flag),
                "--detect" => chaos.detect_s = flags.non_negative(flag),
                "--retries" => chaos.retry.max_attempts = flags.count_u32(flag),
                "--backoff" => chaos.retry.backoff_base_s = flags.non_negative(flag),
                "--backoff-cap" => chaos.retry.backoff_cap_s = flags.non_negative(flag),
                "--deadline" => chaos.retry.deadline_s = flags.positive(flag),
                _ => return false,
            }
            true
        },
    );
    if let Err(e) = chaos.check(args.spec.day_s, args.config.window_s) {
        fail(format_args!("--kills/--outages: {e}"));
    }
    let runner = SweepRunner::with_jobs(args.jobs);
    let scenario = Scenario::with_probe(&args.spec, args.config, CAPACITY_PROBE_REQUESTS, None);
    let frontier = chaos::default_chaos_frontier_with(&runner, &scenario, &chaos);
    // The traced cell: independent kills against reactive+replace.
    let observed = args.out.wanted().then(|| {
        let kills = &chaos.fault_roster(args.spec.day_s)[1];
        let reactive = chaos.recovery_roster(args.spec.peak_mult)[2];
        autoscale::observed_cell_with(&runner, &scenario, kills, reactive, "chaos")
    });
    if let Some(cell) = &observed {
        args.out.write(&cell.telemetry, &format!("{} under {}", cell.recovery, cell.fault));
    }
    if args.json {
        let telemetry = observed.as_ref().map(|c| &c.telemetry.metrics);
        print!("{}", chaos::to_json(&frontier, &args.spec, &chaos, telemetry));
    } else {
        print!("{}", chaos::render_chaos(&frontier));
        print!("{}", chaos::render_detection_frontier(&frontier));
        if let Some(cell) = &args.timeline {
            let (fault, recovery) = cell.split_once(':').unwrap_or_else(|| {
                fail("--timeline wants FAULT:RECOVERY (e.g. kills-8/day:reactive+replace)")
            });
            match frontier.point(fault, recovery) {
                Some(point) => print!("{}", chaos::render_chaos_timeline(point)),
                None => eprintln!(
                    "no cell ({fault}, {recovery}) in this frontier (have: {} x {})",
                    frontier.faults.join(", "),
                    frontier.recoveries.join(", ")
                ),
            }
        }
    }
}
