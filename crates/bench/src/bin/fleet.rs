//! `fleet` — multi-replica serving sweeps: capacity scaling (replica
//! count × offered load) and router-policy head-to-head (see
//! `seesaw_bench::fleet` and the `crates/fleet` subsystem).
//!
//! Usage:
//!   fleet [n_requests] [--jobs N] [--engine seesaw|vllm|disagg]
//!         [--replicas n1,n2,...] [--loads m1,m2,...]
//!         [--policy rr|jsq|po2|lew|jsq-live|lew-live]
//!         [--compare-replicas N] [--compare-load M]
//!         [--hetero-load M] [--no-hetero]
//!         [--slo-ttft S] [--slo-tpot S]
//!         [--seed S] [--trace <file|diurnal>] [--json]
//!         [--trace-out FILE] [--metrics-out FILE] [--breakdown]
//!
//! Defaults: 200 ShareGPT-shaped requests per cell on vLLM-baseline
//! replicas (LLaMA2-13B on 4×A10 each), replica counts 1/2/4/8, load
//! multipliers 0.5..1.5× of `N ×` per-replica offline capacity, JSQ
//! routing for the scaling table, a 4-replica 0.9× head-to-head of
//! all six policies (estimated + live), and a mixed strong/weak
//! heterogeneous head-to-head at 1.2× aggregate capacity (skipped by
//! `--no-hetero`). `--trace diurnal` replaces the Poisson arrival
//! pattern with the sharpened diurnal envelope's shape (and `--trace
//! FILE` replays a trace file, absolute seconds one per line), making
//! the head-to-head a router × trace grid. Output is byte-identical
//! for every `--jobs` value; `--json` emits the experiments as one
//! machine-readable document.
//!
//! Observability: `--trace-out FILE` re-runs one dedicated cell (the
//! head-to-head configuration under `--policy`) with the telemetry
//! recorder on and writes its Perfetto/Chrome trace-event JSON —
//! open it at ui.perfetto.dev or `chrome://tracing`. With `--json`
//! the document additionally gains a `telemetry` metrics block, and
//! `--metrics-out FILE` writes the same metric snapshot (counters /
//! gauges / histograms, including the recorder's dropped-event
//! health counters) as a standalone JSON file.
//! `--breakdown` runs the same cell and prints the fleet-wide
//! engine-time breakdown (compute / communication / weight transfer /
//! ...) merged from the replica reports' per-kind busy totals.

use seesaw_bench::cli::{fail, Flags, TelemetryOut};
use seesaw_bench::fleet::{self, FleetScenario};
use seesaw_bench::serving::EngineKind;
use seesaw_engine::SweepRunner;
use seesaw_fleet::RouterPolicy;
use seesaw_workload::SloSpec;

const USAGE: &str = "fleet [n_requests] [--jobs N] [--engine seesaw|vllm|disagg] \
     [--replicas n1,n2,...] [--loads m1,m2,...] \
     [--policy rr|jsq|po2|lew|jsq-live|lew-live] \
     [--compare-replicas N] [--compare-load M] [--hetero-load M] [--no-hetero] \
     [--slo-ttft S] [--slo-tpot S] [--seed S] [--trace <file|diurnal>] [--json] \
     [--trace-out FILE] [--metrics-out FILE] [--breakdown]";

struct Args {
    n_requests: usize,
    jobs: Option<usize>,
    engine: EngineKind,
    replica_counts: Vec<usize>,
    multipliers: Vec<f64>,
    policy: RouterPolicy,
    compare_replicas: usize,
    compare_load: f64,
    hetero_load: f64,
    hetero: bool,
    slo: SloSpec,
    seed: u64,
    trace: Option<String>,
    json: bool,
    out: TelemetryOut,
    breakdown: bool,
}

fn parse_policy(s: &str) -> RouterPolicy {
    match s {
        "rr" | "round-robin" => RouterPolicy::RoundRobin,
        "jsq" => RouterPolicy::JoinShortestQueue,
        "po2" | "p2c" => RouterPolicy::PowerOfTwoChoices,
        "lew" | "least-work" => RouterPolicy::LeastEstimatedWork,
        "jsq-live" => RouterPolicy::JoinShortestQueueLive,
        "lew-live" | "least-work-live" => RouterPolicy::LeastWorkLive,
        other => fail(format_args!(
            "unknown policy '{other}' (expected rr|jsq|po2|lew|jsq-live|lew-live)"
        )),
    }
}

fn parse_args() -> Args {
    let mut parsed = Args {
        n_requests: 200,
        jobs: None,
        engine: EngineKind::Vllm,
        replica_counts: fleet::DEFAULT_REPLICA_COUNTS.to_vec(),
        multipliers: fleet::DEFAULT_LOAD_MULTIPLIERS.to_vec(),
        policy: RouterPolicy::JoinShortestQueue,
        compare_replicas: fleet::DEFAULT_COMPARE_REPLICAS,
        compare_load: fleet::DEFAULT_COMPARE_LOAD,
        hetero_load: fleet::DEFAULT_HETERO_LOAD,
        hetero: true,
        slo: seesaw_bench::serving::DEFAULT_SLO,
        seed: seesaw_bench::SEED,
        trace: None,
        json: false,
        out: TelemetryOut::default(),
        breakdown: false,
    };
    let mut flags = Flags::new(USAGE);
    while let Some(arg) = flags.next_arg() {
        let flag = arg.as_str();
        match flag {
            "--jobs" | "-j" => parsed.jobs = Some(flags.count("--jobs")),
            "--engine" | "-e" => parsed.engine = flags.engine(),
            "--replicas" => parsed.replica_counts = flags.replica_list(flag),
            "--loads" => parsed.multipliers = flags.multipliers(flag),
            "--policy" => parsed.policy = parse_policy(&flags.value()),
            "--compare-replicas" => parsed.compare_replicas = flags.replicas(flag),
            "--compare-load" => parsed.compare_load = flags.positive(flag),
            "--hetero-load" => parsed.hetero_load = flags.positive(flag),
            "--no-hetero" => parsed.hetero = false,
            "--slo-ttft" => parsed.slo.ttft_s = flags.positive(flag),
            "--slo-tpot" => parsed.slo.tpot_s = flags.positive(flag),
            "--seed" => parsed.seed = flags.seed(flag),
            "--trace" => parsed.trace = Some(flags.value()),
            "--breakdown" => parsed.breakdown = true,
            "--json" => parsed.json = true,
            _ if parsed.out.read(flag, &mut flags) => {}
            other => parsed.n_requests = flags.requests(other),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let runner = SweepRunner::with_jobs(args.jobs);
    let pattern = args.trace.as_deref().map(|spec| {
        fleet::trace_pattern(spec, args.n_requests, args.seed).unwrap_or_else(|e| fail(e))
    });
    let scenario = FleetScenario::new(args.engine, args.n_requests, args.seed);
    let (scaling, comparison) = fleet::default_experiments_patterned_with(
        &runner,
        &scenario,
        pattern.as_deref(),
        &args.replica_counts,
        &args.multipliers,
        args.policy,
        args.compare_replicas,
        args.compare_load,
        args.slo,
    );
    let hetero = args.hetero.then(|| {
        fleet::default_hetero_comparison_with(
            &runner,
            args.n_requests,
            args.hetero_load,
            args.slo,
            args.seed,
        )
    });
    let observed = args.out.wanted().then(|| {
        fleet::observed_cell_with(
            &runner,
            &scenario,
            args.compare_replicas,
            args.compare_load,
            args.policy,
        )
    });
    if let Some(cell) = &observed {
        let name = format!("{} replicas, {} policy", cell.n_replicas, cell.policy);
        args.out.write(&cell.telemetry, &name);
    }
    if args.json {
        let telemetry = observed.as_ref().map(|c| &c.telemetry.metrics);
        print!(
            "{}",
            fleet::to_json(&scaling, &comparison, hetero.as_ref(), args.seed, telemetry)
        );
    } else {
        print!("{}", fleet::render_scaling(&scaling));
        print!("{}", fleet::render_comparison(&comparison));
        if let Some(h) = &hetero {
            print!("{}", fleet::render_hetero_comparison(h));
        }
    }
    if args.breakdown {
        let (cell, reqs, _) = scenario.cell(args.compare_replicas, args.compare_load);
        let table = fleet::render_breakdown(&cell.run_with(&runner, args.policy, &reqs));
        if args.json {
            // Keep stdout a valid JSON document.
            eprint!("{table}");
        } else {
            print!("{table}");
        }
    }
}
