//! `perfbench` — end-to-end and per-layer host-time benchmark of the
//! Seesaw reproduction.
//!
//! ```text
//! perfbench --workload <paper_figures|fleet_routing|chaos_day>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one thread, one workload. The workload's fixed
//! simulated work is repeated until `--seconds` have passed, at least
//! [`MIN_REPS`] times, with a timed batch of set-ups after each
//! repetition, so that `setup_s` samples the same stretch of host speed
//! as `wall_s`. Each end-to-end metric is the median over the
//! repetitions or batches. With `--trace 1`
//! untraced and traced repetitions alternate; traced ones wrap every
//! replica at the engine boundary and profile the controller, and the
//! per-layer metrics are medians over them.
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` beside this crate for the workloads and metrics.

mod chaos;
mod figures;
mod fleet;
mod mem;
mod probe;

use probe::{Cell, EngineProbe, EngineTally, Kind};
use seesaw_telemetry::ControllerProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

/// Fewest repetitions of the workload per run (per mode under
/// `--trace 1`).
const MIN_REPS: usize = 3;

/// Fewest set-up batches per run; `setup_s` is the median of their
/// per-set-up means.
const SETUP_REPS: usize = 7;

/// Each set-up batch repeats the set-up back to back for at least this
/// long, so that timer resolution and scheduler jitter do not dominate
/// short set-ups.
const SETUP_MIN_BATCH_S: f64 = 0.1;

/// Sub-timings of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Request, length and arrival generation.
    pub gen_s: f64,
    /// The offline capacity probe(s).
    pub probe_s: f64,
}

/// One repetition of a workload's fixed work.
pub struct Rep {
    /// Every simulation cell, in run order.
    pub cells: Vec<Cell>,
    /// Digest of the rendered output (what the matching bin prints).
    pub digest: u64,
}

/// A benchmark workload: generated inputs plus the fixed work run on
/// them.
pub trait Workload: Sized {
    /// Generate the inputs of `seed` and measure what the work is sized
    /// from; replicas built here report into `probe` when given.
    fn setup(seed: u64, probe: Option<&Arc<EngineProbe>>) -> (Self, Setup);
    /// Run the fixed work once; when `probe` is given, replicas report
    /// into it and controllers profile their phases.
    fn run(&self, probe: Option<&Arc<EngineProbe>>) -> Rep;
    /// Run one designated cell on bare and on wrapped replicas and
    /// compare the reports (`None` when the workload wraps nothing).
    fn wrapped_matches_bare(&self, probe: &Arc<EngineProbe>) -> Option<bool>;
}

/// FNV-1a, 64-bit: a stable digest of rendered output.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper_figures|fleet_routing|chaos_day> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: seesaw_bench::SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One measured repetition.
struct Measured {
    rep: Rep,
    wall_s: f64,
    peak_heap_bytes: f64,
    allocs: u64,
}

fn measure<W: Workload>(w: &W, probe: Option<&Arc<EngineProbe>>) -> Measured {
    mem::reset_peak();
    let allocs0 = mem::allocs();
    let start = Instant::now();
    let rep = w.run(probe);
    let wall_s = start.elapsed().as_secs_f64();
    Measured {
        rep,
        wall_s,
        peak_heap_bytes: mem::peak_bytes() as f64,
        allocs: mem::allocs() - allocs0,
    }
}

/// Per-set-up means of the set-up batches run so far. Batches
/// interleave with the repetitions, so that `setup_s` samples the same
/// stretch of host speed as `wall_s`.
#[derive(Default)]
struct SetupTimes {
    totals: Vec<f64>,
    gens: Vec<f64>,
    probes: Vec<f64>,
}

impl SetupTimes {
    /// Set the workload up back to back for at least
    /// [`SETUP_MIN_BATCH_S`]; returns the last instance.
    fn batch<W: Workload>(&mut self, seed: u64, probe: Option<&Arc<EngineProbe>>) -> W {
        let start = Instant::now();
        let mut count = 0u32;
        let mut sum = Setup::default();
        let mut last = None;
        while count == 0 || start.elapsed().as_secs_f64() < SETUP_MIN_BATCH_S {
            let (w, s) = W::setup(seed, probe);
            sum.gen_s += s.gen_s;
            sum.probe_s += s.probe_s;
            count += 1;
            last = Some(w);
        }
        let n = f64::from(count);
        self.totals.push(start.elapsed().as_secs_f64() / n);
        self.gens.push(sum.gen_s / n);
        self.probes.push(sum.probe_s / n);
        last.expect("the batch ran at least one set-up")
    }

    /// Median set-up time and sub-timings.
    fn medians(&self) -> (f64, Setup) {
        let sub = Setup {
            gen_s: median(&self.gens),
            probe_s: median(&self.probes),
        };
        (median(&self.totals), sub)
    }
}

/// Per-layer metrics of one traced repetition.
fn layers(m: &Measured, figure_names: &[&str]) -> BTreeMap<String, f64> {
    let cells = &m.rep.cells;
    let sum = |pick: &dyn Fn(&Cell) -> f64, kinds: &[Kind]| -> f64 {
        cells
            .iter()
            .filter(|c| kinds.contains(&c.kind))
            .map(pick)
            .fold(0.0, |a, b| a + b)
    };
    let all = [
        Kind::Figure,
        Kind::FleetEstimated,
        Kind::FleetLive,
        Kind::Elastic,
    ];
    let fleet = [Kind::FleetEstimated, Kind::FleetLive];
    let engine = cells
        .iter()
        .fold(EngineTally::default(), |t, c| t.plus(c.engine));
    let mut profile = ControllerProfile::default();
    for c in cells {
        profile.absorb(&c.profile);
    }
    let offered = sum(&|c| c.outcome.offered as f64, &all);
    let elastic_offered = sum(&|c| c.outcome.offered as f64, &[Kind::Elastic]);
    let fleet_self = sum(&Cell::self_s, &fleet);

    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("engine.calls", engine.calls as f64);
    put("engine.requests", engine.requests as f64);
    put("engine.busy_s", engine.busy_s);
    put(
        "engine.req_per_s",
        ratio(engine.requests as f64, engine.busy_s),
    );
    put(
        "engine.replay_amplification",
        ratio(
            engine.requests as f64,
            sum(&|c| c.outcome.assigned as f64, &all),
        ),
    );
    put(
        "fleet.est.self_s",
        sum(&Cell::self_s, &[Kind::FleetEstimated]),
    );
    put("fleet.live.self_s", sum(&Cell::self_s, &[Kind::FleetLive]));
    put(
        "fleet.live.engine_s",
        sum(&|c| c.engine.busy_s, &[Kind::FleetLive]),
    );
    put(
        "fleet.live.replay_amplification",
        ratio(
            sum(&|c| c.engine.requests as f64, &[Kind::FleetLive]),
            sum(&|c| c.outcome.assigned as f64, &[Kind::FleetLive]),
        ),
    );
    put(
        "fleet.routes_per_s",
        ratio(sum(&|c| c.outcome.offered as f64, &fleet), fleet_self),
    );
    put("autoscale.self_s", sum(&Cell::self_s, &[Kind::Elastic]));
    put("autoscale.routing_s", profile.routing_s);
    put("autoscale.metrics_s", profile.metrics_s);
    put("autoscale.windows", profile.windows as f64);
    put("autoscale.dispatches", profile.dispatches as f64);
    put(
        "chaos.retry_amplification",
        ratio(
            sum(&|c| c.outcome.dispatches as f64, &[Kind::Elastic]),
            elastic_offered,
        ),
    );
    for name in figure_names {
        let t = cells.iter().filter(|c| c.name == *name).map(|c| c.wall_s);
        put(&format!("figs.{name}_s"), t.fold(0.0, |a, b| a + b));
    }
    put("mem.allocs", m.allocs as f64);
    put("mem.allocs_per_req", ratio(m.allocs as f64, offered));
    put(
        "mem.retained_mb",
        mem::mib(sum(&|c| c.retained_bytes, &all)),
    );
    put(
        "mem.transient_peak_mb",
        mem::mib(cells.iter().map(|c| c.transient_bytes).fold(0.0, f64::max)),
    );
    put("sim.offered", offered);
    put("sim.completed", sum(&|c| c.outcome.completed as f64, &all));
    put("sim.failed", sum(&|c| c.outcome.failed as f64, &all));
    put(
        "cells.coverage_pct",
        100.0 * ratio(sum(&|c| c.wall_s, &all), m.wall_s),
    );
    out
}

/// Print how each traced cell's wall time splits into engine busy time
/// and the caller's own time, and how much of the repetition the cells
/// cover.
fn print_attribution(m: &Measured) {
    println!("attribution (last traced repetition): cell wall = engine busy + self");
    println!(
        "  {:<40} {:>10} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "cell", "kind", "wall s", "engine s", "self s", "engine req", "amp"
    );
    for c in &m.rep.cells {
        println!(
            "  {:<40} {:>10} {:>9.4} {:>9.4} {:>9.4} {:>10} {:>8.2}",
            c.name,
            c.kind.name(),
            c.wall_s,
            c.engine.busy_s,
            c.self_s(),
            c.engine.requests,
            ratio(c.engine.requests as f64, c.outcome.assigned as f64),
        );
        if c.profile.total_s > 0.0 {
            println!(
                "  {:<40} controller phases cover {:.1}% of {:.4}s \
                 (routing {:.4}, replay {:.4}, engine {:.4}, metrics {:.4})",
                "",
                100.0 * c.profile.coverage(),
                c.profile.total_s,
                c.profile.routing_s,
                c.profile.replay_s,
                c.profile.engine_s,
                c.profile.metrics_s,
            );
        }
    }
    let cells_s: f64 = m.rep.cells.iter().map(|c| c.wall_s).sum();
    println!(
        "  repetition wall {:.4}s = cells {:.4}s ({:.1}%) + fleet set-up, rendering, digest {:.4}s",
        m.wall_s,
        cells_s,
        100.0 * ratio(cells_s, m.wall_s),
        m.wall_s - cells_s,
    );
}

/// What one run prints in its result line.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run<W: Workload>(args: &Args) -> RunResult {
    let figure_names = figures::job_names();
    let budget_start = Instant::now();
    let probe = args.trace.then(|| Arc::new(EngineProbe::default()));
    let mut setups = SetupTimes::default();
    let w: W = setups.batch(args.seed, probe.as_ref());
    let setup_engine = probe.as_ref().map(|p| p.tally()).unwrap_or_default();

    let mut plain: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    loop {
        let enough = plain.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && budget_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        plain.push(measure(&w, None));
        if args.trace {
            traced.push(measure(&w, probe.as_ref()));
        }
        let _: W = setups.batch(args.seed, None);
    }
    while setups.totals.len() < SETUP_REPS {
        let _: W = setups.batch(args.seed, None);
    }
    let (setup_s, sub) = setups.medians();
    let wrapped_ok = probe.as_ref().and_then(|p| w.wrapped_matches_bare(p));

    let all: Vec<&Measured> = plain.iter().chain(&traced).collect();
    let digest = all[0].rep.digest;
    let digests_agree = all.iter().all(|m| m.rep.digest == digest);
    let attempted: usize = all.iter().map(|m| m.rep.cells.len()).sum();
    let failed: usize = all
        .iter()
        .map(|m| m.rep.cells.iter().filter(|c| !c.ok).count())
        .sum();
    let correct = failed == 0 && digests_agree && wrapped_ok != Some(false);

    let walls: Vec<f64> = plain.iter().map(|m| m.wall_s).collect();
    let wall_s = median(&walls);
    let offered = plain[0]
        .rep
        .cells
        .iter()
        .map(|c| c.outcome.offered)
        .sum::<u64>() as f64;
    let sim_req_per_s = ratio(offered, wall_s);

    println!(
        "workload {} seed {} trace {}: {} repetitions ({} traced), {:.2}s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        all.len(),
        traced.len(),
        budget_start.elapsed().as_secs_f64()
    );
    println!("digest {digest:016x} (identical across repetitions: {digests_agree})");
    println!("ops {attempted} ops_failed {failed}");
    println!(
        "setup_s {setup_s:.6} over {} batches (medians: generation {:.6}, capacity probe {:.6})",
        setups.totals.len(),
        sub.gen_s,
        sub.probe_s,
    );
    println!("wall_s median {wall_s:.4} over {walls:?}");
    println!("sim_req_per_s {sim_req_per_s:.1} ({offered} offered simulated requests)");
    if let Some(ok) = wrapped_ok {
        println!("wrapped report equals bare report: {ok}");
    }

    let metrics = if args.trace {
        print_attribution(traced.last().expect("at least one traced repetition"));
        println!(
            "first set-up batch at the engine boundary (capacity probes): \
             {} calls, {} requests, {:.4}s busy",
            setup_engine.calls, setup_engine.requests, setup_engine.busy_s
        );
        let per_rep: Vec<BTreeMap<String, f64>> =
            traced.iter().map(|m| layers(m, &figure_names)).collect();
        let mut values: BTreeMap<String, f64> = per_rep[0]
            .keys()
            .map(|k| {
                (
                    k.clone(),
                    median(&per_rep.iter().map(|r| r[k]).collect::<Vec<_>>()),
                )
            })
            .collect();
        let traced_wall = median(&traced.iter().map(|m| m.wall_s).collect::<Vec<_>>());
        values.insert(
            "trace_overhead_pct".into(),
            100.0 * (traced_wall / wall_s - 1.0),
        );
        values.insert("workload.gen_s".into(), sub.gen_s);
        values.insert("fleet.capacity_probe_s".into(), sub.probe_s);
        values.insert("sim_req_per_s".into(), sim_req_per_s);
        values
            .into_iter()
            .map(|(k, v)| {
                let unit = layer_unit(&k);
                (k, v, unit)
            })
            .collect()
    } else {
        let heaps: Vec<f64> = plain.iter().map(|m| m.peak_heap_bytes).collect();
        let rss = mem::vm_hwm_bytes().map_or(0.0, |b| b as f64);
        vec![
            ("wall_s".into(), wall_s, "s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_heap_mb".into(), mem::mib(median(&heaps)), "MiB"),
            ("peak_rss_mb".into(), mem::mib(rss), "MiB"),
        ]
    };
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MiB"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("amplification") || name.ends_with("per_req") {
        "ratio"
    } else {
        "count"
    }
}

fn main() {
    let args = parse_args();
    let outcome = match args.workload.as_str() {
        "paper_figures" => run::<figures::PaperFigures>(&args),
        "fleet_routing" => run::<fleet::FleetRouting>(&args),
        "chaos_day" => run::<chaos::ChaosDay>(&args),
        _ => usage(),
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
