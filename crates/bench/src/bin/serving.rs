//! `serving` — online-serving sweep: offered load vs SLO attainment
//! and goodput of one engine, run as the fleet scaling sweep at one
//! replica under round-robin (see `seesaw_bench::serving` and
//! `seesaw_bench::fleet::FleetScenario::scaling_with`).
//!
//! Usage:
//!   serving [n_requests] [--jobs N] [--engine seesaw|vllm|disagg]
//!           [--loads m1,m2,...] [--slo-ttft S] [--slo-tpot S]
//!           [--seed S] [--json]
//!
//! Defaults: 200 ShareGPT-shaped requests on the vLLM baseline, load
//! multipliers 0.25..4.0× of measured offline capacity, SLO
//! TTFT ≤ 15 s / TPOT ≤ 50 ms, seed 42. Load points evaluate in
//! parallel on the sweep runner; output is byte-identical for every
//! `--jobs` value. `--json` emits the machine-readable sweep instead
//! of the table.

use seesaw_bench::cli::Flags;
use seesaw_bench::fleet::FleetScenario;
use seesaw_bench::serving::{self, EngineKind};
use seesaw_engine::SweepRunner;
use seesaw_fleet::RouterPolicy;
use seesaw_workload::SloSpec;

struct Args {
    n_requests: usize,
    jobs: Option<usize>,
    engine: EngineKind,
    multipliers: Vec<f64>,
    slo: SloSpec,
    seed: u64,
    json: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        n_requests: 200,
        jobs: None,
        engine: EngineKind::Vllm,
        multipliers: serving::DEFAULT_LOAD_MULTIPLIERS.to_vec(),
        slo: serving::DEFAULT_SLO,
        seed: seesaw_bench::SEED,
        json: false,
    };
    let mut flags = Flags::new(
        "serving [n_requests] [--jobs N] [--engine seesaw|vllm|disagg] \
         [--loads m1,m2,...] [--slo-ttft S] [--slo-tpot S] [--seed S] [--json]",
    );
    while let Some(arg) = flags.next_arg() {
        let flag = arg.as_str();
        match flag {
            "--jobs" | "-j" => parsed.jobs = Some(flags.count("--jobs")),
            "--loads" => parsed.multipliers = flags.multipliers(flag),
            "--engine" | "-e" => parsed.engine = flags.engine(),
            "--json" => parsed.json = true,
            "--slo-ttft" => parsed.slo.ttft_s = flags.positive(flag),
            "--slo-tpot" => parsed.slo.tpot_s = flags.positive(flag),
            "--seed" => parsed.seed = flags.seed(flag),
            other => parsed.n_requests = flags.requests(other),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let runner = SweepRunner::with_jobs(args.jobs);
    let sweep = FleetScenario::new(args.engine, args.n_requests, args.seed).scaling_with(
        &runner,
        None,
        &[1],
        &args.multipliers,
        RouterPolicy::RoundRobin,
        args.slo,
    );
    if args.json {
        print!("{}", serving::to_json(&sweep));
    } else {
        print!("{}", serving::render(&sweep));
    }
}
