//! `chaos` — replay the day-long diurnal trace through an elastic
//! fleet while a seeded fault plan kills replicas, and print the
//! fault × recovery cost-vs-SLO-vs-availability frontier (see
//! `seesaw_bench::chaos` and the `crates/chaos` subsystem).
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

use seesaw_autoscale::AutoscaleConfig;
use seesaw_bench::autoscale::{check_window_count, ScenarioSpec};
use seesaw_bench::chaos::{self, ChaosSpec};
use seesaw_engine::SweepRunner;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--jobs N] [--engine seesaw|vllm|disagg] [--day S] [--window S] \
         [--warmup S] [--min N] [--max N] [--trough M] [--peak M] [--slo-ttft S] \
         [--slo-tpot S] [--seed S] [--fault-seed S] [--kills K] [--outages K] [--groups N] \
         [--detect S] [--retries N] [--backoff S] [--backoff-cap S] [--deadline S] \
         [--timeline FAULT:RECOVERY] [--json] [--trace-out FILE] [--metrics-out FILE]"
    );
    std::process::exit(2);
}

struct Args {
    jobs: Option<usize>,
    spec: ScenarioSpec,
    chaos: ChaosSpec,
    config: AutoscaleConfig,
    timeline: Option<String>,
    json: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: None,
        spec: ScenarioSpec::default(),
        chaos: ChaosSpec::default(),
        config: AutoscaleConfig::default(),
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
    let next_f64_zero = |args: &mut dyn Iterator<Item = String>, what: &str| -> f64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .filter(|&x: &f64| x.is_finite() && x >= 0.0)
            .unwrap_or_else(|| {
                eprintln!("{what} needs a non-negative number");
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
            "--warmup" => parsed.config.warmup_s = next_f64_zero(&mut args, "--warmup"),
            "--min" => parsed.config.min_replicas = next_usize(&mut args, "--min"),
            "--max" => parsed.config.max_replicas = next_usize(&mut args, "--max"),
            "--trough" => parsed.spec.trough_mult = next_f64_zero(&mut args, "--trough"),
            "--peak" => parsed.spec.peak_mult = next_f64(&mut args, "--peak"),
            "--slo-ttft" => parsed.config.slo.ttft_s = next_f64(&mut args, "--slo-ttft"),
            "--slo-tpot" => parsed.config.slo.tpot_s = next_f64(&mut args, "--slo-tpot"),
            "--seed" => {
                parsed.spec.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--fault-seed" => {
                parsed.chaos.fault_seed =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--fault-seed needs a non-negative integer");
                        std::process::exit(2);
                    });
            }
            "--kills" => parsed.chaos.kills_per_day = next_f64_zero(&mut args, "--kills"),
            "--outages" => {
                parsed.chaos.outages_per_day = next_f64_zero(&mut args, "--outages");
            }
            "--groups" => parsed.chaos.groups = next_usize(&mut args, "--groups"),
            "--detect" => parsed.chaos.detect_s = next_f64_zero(&mut args, "--detect"),
            "--retries" => {
                parsed.chaos.retry.max_attempts = next_usize(&mut args, "--retries") as u32;
            }
            "--backoff" => {
                parsed.chaos.retry.backoff_base_s = next_f64_zero(&mut args, "--backoff");
            }
            "--backoff-cap" => {
                parsed.chaos.retry.backoff_cap_s = next_f64_zero(&mut args, "--backoff-cap");
            }
            "--deadline" => parsed.chaos.retry.deadline_s = next_f64(&mut args, "--deadline"),
            "--timeline" => parsed.timeline = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => parsed.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => parsed.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
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
    if let Err(e) = parsed.chaos.check(parsed.spec.day_s, parsed.config.window_s) {
        eprintln!("--kills/--outages: {e}");
        std::process::exit(2);
    }
    parsed
}

fn main() {
    let args = parse_args();
    let runner = SweepRunner::with_jobs(args.jobs);
    let frontier =
        chaos::default_chaos_frontier_with(&runner, &args.spec, &args.chaos, args.config);
    // The dedicated observability cell: traced only when asked, so a
    // plain run's output stays byte-identical to the untraced bin.
    let observed = (args.trace_out.is_some() || args.metrics_out.is_some()).then(|| {
        chaos::observed_chaos_cell_with(&runner, &args.spec, &args.chaos, args.config)
    });
    if let (Some(path), Some(cell)) = (args.trace_out.as_deref(), observed.as_ref()) {
        std::fs::write(path, &cell.trace_json).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "wrote Perfetto trace ({} under {}, {} events) to {path}",
            cell.recovery,
            cell.fault,
            cell.trace_json.matches("\"ph\":").count(),
        );
    }
    if let (Some(path), Some(cell)) = (args.metrics_out.as_deref(), observed.as_ref()) {
        std::fs::write(path, format!("{}\n", cell.metrics.render_json())).unwrap_or_else(|e| {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote metrics snapshot ({} under {}) to {path}", cell.recovery, cell.fault);
    }
    if args.json {
        print!(
            "{}",
            chaos::to_json_with_telemetry(
                &frontier,
                &args.spec,
                &args.chaos,
                observed.as_ref().map(|c| &c.metrics),
            )
        );
    } else {
        print!("{}", chaos::render_chaos(&frontier));
        print!("{}", chaos::render_detection_frontier(&frontier));
        if let Some(cell) = &args.timeline {
            let (fault, recovery) = cell.split_once(':').unwrap_or_else(|| {
                eprintln!("--timeline wants FAULT:RECOVERY (e.g. kills-8/day:reactive+replace)");
                std::process::exit(2);
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
