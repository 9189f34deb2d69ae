//! `autoscale` — replay a day-long trace through an elastic fleet
//! under every scaling policy and print the policy × trace
//! cost-vs-SLO frontier (see `seesaw_bench::autoscale` and the
//! `crates/autoscale` subsystem).
//!
//! Usage:
//!   autoscale [--jobs N] [--engine seesaw|vllm|disagg] [--day S]
//!             [--window S] [--warmup S] [--min N] [--max N]
//!             [--trough M] [--peak M] [--slo-ttft S] [--slo-tpot S]
//!             [--seed S] [--trace FILE] [--timeline POLICY] [--json]
//!             [--trace-out FILE] [--metrics-out FILE]
//!
//! Defaults: one 86 400 s day shaped by a sinusoidal diurnal envelope
//! and a bimodal rush-hours envelope, both swinging between 0.25× and
//! 5× the measured per-replica offline capacity; 5-minute control
//! windows, 60 s replica warm-up, 1–16 replicas, JSQ routing; the
//! policy roster compares static provision-for-peak and
//! provision-for-mean against the reactive and target-utilization
//! controllers. `--trace FILE` replays absolute arrival times (one
//! per line, `#` comments) instead of the generated envelopes;
//! `--timeline POLICY` additionally prints that policy's per-window
//! trajectory on the first trace. Output is byte-identical for every
//! `--jobs` value.
//!
//! Observability: `--trace-out FILE` re-runs one dedicated cell (the
//! reactive controller on the first trace) with the telemetry
//! recorder on and writes its Perfetto/Chrome trace-event JSON —
//! controller windows, scale events, warm-ups, and per-request spans
//! on per-replica tracks; open it at ui.perfetto.dev or
//! `chrome://tracing`. With `--json` the document additionally gains
//! a `telemetry` metrics block, and `--metrics-out FILE` writes the
//! same metric snapshot (counters / gauges / histograms, including
//! the recorder's dropped-event health counters) as a standalone
//! JSON file.

use seesaw_autoscale::{FaultPlan, RecoverySpec, ScalingPolicy};
use seesaw_bench::autoscale::{self, Scenario};
use seesaw_bench::cli::{fail, ScenarioArgs};
use seesaw_engine::SweepRunner;

fn main() {
    let mut trace_file = None;
    let args = ScenarioArgs::parse(
        "autoscale [--jobs N] [--engine seesaw|vllm|disagg] [--day S] [--window S] \
         [--warmup S] [--min N] [--max N] [--trough M] [--peak M] [--slo-ttft S] \
         [--slo-tpot S] [--seed S] [--trace FILE] [--timeline POLICY] [--json] \
         [--trace-out FILE] [--metrics-out FILE]",
        |flag, flags| {
            if flag != "--trace" {
                return false;
            }
            trace_file = Some(flags.value());
            true
        },
    );
    let runner = SweepRunner::with_jobs(args.jobs);
    let scenario =
        Scenario::new(&args.spec, args.config, trace_file.as_deref()).unwrap_or_else(|e| fail(e));
    let frontiers = autoscale::default_frontier_with(&runner, &scenario);
    let observed = args.out.wanted().then(|| {
        let none = ("none".to_string(), FaultPlan::none());
        let reactive = RecoverySpec::bare(ScalingPolicy::ReactiveThreshold);
        autoscale::observed_cell_with(&runner, &scenario, &none, reactive, "autoscale")
    });
    if let Some(cell) = &observed {
        args.out.write(&cell.telemetry, &format!("{} on {}", cell.recovery, cell.trace));
    }
    if args.json {
        let telemetry = observed.as_ref().map(|c| &c.telemetry.metrics);
        print!("{}", autoscale::to_json(&frontiers, &args.spec, telemetry));
    } else {
        print!("{}", autoscale::render_frontier(&frontiers));
        if let Some(policy) = &args.timeline {
            let first = &frontiers[0];
            match first.point("none", policy) {
                Some(point) => print!("{}", autoscale::render_timeline(&first.trace, point)),
                None => eprintln!(
                    "no policy '{policy}' in this sweep (have: {})",
                    first.recoveries.join(", ")
                ),
            }
        }
    }
}
