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

use seesaw_autoscale::AutoscaleConfig;
use seesaw_bench::autoscale::{self, check_window_count, ScenarioSpec};
use seesaw_engine::SweepRunner;

fn usage() -> ! {
    eprintln!(
        "usage: autoscale [--jobs N] [--engine seesaw|vllm|disagg] [--day S] [--window S] \
         [--warmup S] [--min N] [--max N] [--trough M] [--peak M] [--slo-ttft S] \
         [--slo-tpot S] [--seed S] [--trace FILE] [--timeline POLICY] [--json] \
         [--trace-out FILE] [--metrics-out FILE]"
    );
    std::process::exit(2);
}

struct Args {
    jobs: Option<usize>,
    spec: ScenarioSpec,
    config: AutoscaleConfig,
    trace_file: Option<String>,
    timeline: Option<String>,
    json: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: None,
        spec: ScenarioSpec::default(),
        config: AutoscaleConfig::default(),
        trace_file: None,
        timeline: None,
        json: false,
        trace_out: None,
        metrics_out: None,
    };
    let mut args = std::env::args().skip(1);
    let next_f64 = |args: &mut dyn Iterator<Item = String>, what: &str| -> f64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .filter(|&x: &f64| x.is_finite() && x > 0.0)
            .unwrap_or_else(|| {
                eprintln!("{what} needs a positive number");
                std::process::exit(2);
            })
    };
    let next_usize = |args: &mut dyn Iterator<Item = String>, what: &str| -> usize {
        args.next()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or_else(|| {
                eprintln!("{what} needs a positive integer");
                std::process::exit(2);
            })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => parsed.jobs = Some(next_usize(&mut args, "--jobs")),
            "--engine" | "-e" => {
                let spec = args.next().unwrap_or_else(|| usage());
                parsed.spec.kind = spec.parse().unwrap_or_else(|e: String| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--day" => parsed.spec.day_s = next_f64(&mut args, "--day"),
            "--window" => parsed.config.window_s = next_f64(&mut args, "--window"),
            "--warmup" => {
                // Warm-up may be zero (instant weight load).
                parsed.config.warmup_s = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&x: &f64| x.is_finite() && x >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--warmup needs a non-negative number");
                        std::process::exit(2);
                    });
            }
            "--min" => parsed.config.min_replicas = next_usize(&mut args, "--min"),
            "--max" => parsed.config.max_replicas = next_usize(&mut args, "--max"),
            "--trough" => {
                // Zero is a valid trough (a fully idle overnight
                // valley — the regime where elasticity pays most).
                parsed.spec.trough_mult = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&x: &f64| x.is_finite() && x >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--trough needs a non-negative number");
                        std::process::exit(2);
                    });
            }
            "--peak" => parsed.spec.peak_mult = next_f64(&mut args, "--peak"),
            "--slo-ttft" => parsed.config.slo.ttft_s = next_f64(&mut args, "--slo-ttft"),
            "--slo-tpot" => parsed.config.slo.tpot_s = next_f64(&mut args, "--slo-tpot"),
            "--seed" => {
                parsed.spec.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--trace" => parsed.trace_file = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => parsed.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => parsed.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--timeline" => parsed.timeline = Some(args.next().unwrap_or_else(|| usage())),
            "--json" => parsed.json = true,
            _ => usage(),
        }
    }
    if parsed.spec.peak_mult < parsed.spec.trough_mult {
        eprintln!("--peak must be >= --trough");
        std::process::exit(2);
    }
    if parsed.config.min_replicas > parsed.config.max_replicas {
        eprintln!("--min must be <= --max");
        std::process::exit(2);
    }
    if let Err(e) = check_window_count(parsed.spec.day_s, parsed.config.window_s) {
        eprintln!("--day/--window: {e}");
        std::process::exit(2);
    }
    parsed
}

fn main() {
    let args = parse_args();
    let runner = SweepRunner::with_jobs(args.jobs);
    let sweep = autoscale::default_frontier_with(
        &runner,
        &args.spec,
        args.config,
        args.trace_file.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // The dedicated observability cell: traced only when asked, so a
    // plain run's output stays byte-identical to the untraced bin.
    let observed = (args.trace_out.is_some() || args.metrics_out.is_some()).then(|| {
        autoscale::observed_frontier_cell_with(
            &runner,
            &args.spec,
            args.config,
            args.trace_file.as_deref(),
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    });
    if let (Some(path), Some(cell)) = (args.trace_out.as_deref(), observed.as_ref()) {
        std::fs::write(path, &cell.trace_json).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "wrote Perfetto trace ({} on {}, {} events) to {path}",
            cell.policy,
            cell.trace,
            cell.trace_json.matches("\"ph\":").count(),
        );
    }
    if let (Some(path), Some(cell)) = (args.metrics_out.as_deref(), observed.as_ref()) {
        std::fs::write(path, format!("{}\n", cell.metrics.render_json())).unwrap_or_else(|e| {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote metrics snapshot ({} on {}) to {path}", cell.policy, cell.trace);
    }
    if args.json {
        print!(
            "{}",
            autoscale::to_json_with_telemetry(
                &sweep,
                &args.spec,
                observed.as_ref().map(|c| &c.metrics),
            )
        );
    } else {
        print!("{}", autoscale::render_frontier(&sweep));
        if let Some(policy) = &args.timeline {
            match sweep
                .points
                .iter()
                .find(|p| p.trace == sweep.traces[0] && &p.policy.to_string() == policy)
            {
                Some(point) => print!("{}", autoscale::render_timeline(point)),
                None => eprintln!(
                    "no policy '{policy}' in this sweep (have: {})",
                    sweep.policies.join(", ")
                ),
            }
        }
    }
}
