//! Online-serving sweep: offered load (requests/second) vs SLO
//! attainment and goodput.
//!
//! The paper evaluates the offline setting only (everything available
//! at t = 0, end-to-end throughput as the metric); this harness opens
//! the orthogonal axis a production deployment lives on. A fixed
//! request set (lengths and count) is replayed at a ladder of offered
//! loads: one unit-rate Poisson arrival pattern is sampled once and
//! *scaled* per load point (time-scaling a Poisson process changes
//! only its rate), so every point queues the same requests in the
//! same order and the sweep isolates load from arrival noise — which
//! also makes SLO attainment monotone-nonincreasing in offered load.
//!
//! Offered loads are expressed as multiples of the engine's measured
//! *offline* throughput on the same request set (its capacity), so
//! the goodput knee always sits near multiplier 1.0 regardless of
//! model/cluster choice.
//!
//! Load points are independent simulations evaluated on a
//! [`SweepRunner`]; output is byte-identical for every `--jobs`
//! value.

use crate::jsonfmt;
use crate::table::{f2, f3, Table};
use seesaw_engine::disagg::DisaggEngine;
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{EngineReport, OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{ArrivalDist, Request, SloSpec, WorkloadGen};
use std::sync::Arc;

/// Default SLO: first token within 15 s of arrival, then 50 ms per
/// token. The prefill-prioritized scheduler keeps TTFT low until deep
/// overload, so on the default scenario the TPOT bound is what carves
/// the goodput knee (override with `--slo-ttft` / `--slo-tpot`).
pub const DEFAULT_SLO: SloSpec = SloSpec { ttft_s: 15.0, tpot_s: 0.05 };

/// Default offered-load multipliers of measured offline capacity.
pub const DEFAULT_LOAD_MULTIPLIERS: &[f64] = &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0];

/// One evaluated load point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Offered load as a multiple of offline capacity.
    pub load_multiplier: f64,
    /// The online engine run at this load.
    pub report: EngineReport,
    /// Fraction of requests meeting the SLO.
    pub attainment: f64,
    /// SLO-meeting requests per second.
    pub goodput_rps: f64,
}

/// A completed offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSweep {
    /// Engine configuration label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// The SLO every point is judged against.
    pub slo: SloSpec,
    /// Offline throughput of the same engine on the same request set
    /// (the capacity the load multipliers refer to).
    pub capacity_rps: f64,
    /// Points in ascending offered load.
    pub points: Vec<ServingPoint>,
}

/// Sweep `engine` (any online backend, behind the [`OnlineEngine`]
/// trait) over `multipliers` × its offline capacity on `base` (an
/// offline request set; its arrival times are ignored). The arrival
/// pattern is Poisson, sampled once at unit rate from `seed` and
/// rescaled per point.
pub fn sweep_with(
    runner: &SweepRunner,
    engine: &dyn OnlineEngine,
    workload: &str,
    base: &[Request],
    multipliers: &[f64],
    slo: SloSpec,
    seed: u64,
) -> ServingSweep {
    assert!(!base.is_empty(), "serving sweep needs requests");
    assert!(
        multipliers.iter().all(|&m| m.is_finite() && m > 0.0),
        "load multipliers must be positive and finite"
    );
    let offline: Vec<Request> = base.iter().map(|r| r.with_arrival(0.0)).collect();
    let capacity_rps = engine.run(&offline).throughput_rps();
    // Salt the arrival seed exactly like `WorkloadGen::with_arrivals`
    // does: `base` is typically generated from this same seed, and
    // unsalted sampling would feed lengths and inter-arrival gaps
    // from identical RNG draws, correlating request size with load.
    let unit = ArrivalDist::Poisson { rate: 1.0 }
        .sample_times(base.len(), seed ^ seesaw_workload::ARRIVAL_SEED_SALT)
        .expect("unit-rate Poisson is valid");
    let points = runner.map(multipliers, |&m| {
        let rate = m * capacity_rps;
        let reqs: Vec<Request> = offline
            .iter()
            .zip(&unit)
            .map(|(r, &t)| r.with_arrival(t / rate))
            .collect();
        let report = engine.run(&reqs);
        ServingPoint {
            offered_rps: rate,
            load_multiplier: m,
            attainment: report.slo_attainment(slo),
            goodput_rps: report.goodput_rps(slo),
            report,
        }
    });
    ServingSweep {
        label: engine.label(),
        workload: workload.into(),
        slo,
        capacity_rps,
        points,
    }
}

/// Which engine backend a serving/fleet sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's re-sharding engine (`P4->T4` on the default
    /// cluster).
    Seesaw,
    /// The static-parallelism baseline (`D1T2P2`,
    /// prefill-prioritized).
    Vllm,
    /// The disaggregated prefill/decode analyzer (best feasible
    /// split, tandem-queue replay).
    Disagg,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Seesaw => write!(f, "seesaw"),
            EngineKind::Vllm => write!(f, "vllm"),
            EngineKind::Disagg => write!(f, "disagg"),
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "seesaw" => Ok(EngineKind::Seesaw),
            "vllm" => Ok(EngineKind::Vllm),
            "disagg" => Ok(EngineKind::Disagg),
            other => Err(format!("unknown engine '{other}' (expected seesaw|vllm|disagg)")),
        }
    }
}

/// The default serving scenario: LLaMA2-13B on 4×A10, `D1T2P2`
/// prefill-prioritized, ShareGPT-shaped lengths — the same
/// cluster/model pair the sims/sec benchmark pins down.
pub fn default_engine() -> VllmEngine {
    VllmEngine::new(
        Arc::new(ClusterSpec::a10x4()),
        Arc::new(presets::llama2_13b()),
        ParallelConfig::new(1, 2, 2),
        SchedulingPolicy::PrefillPrioritized,
    )
    .expect("default serving config fits")
}

/// Default-scenario engine of the requested backend on shared spec
/// handles, as a trait object (replica builders call this once per
/// replica). Seesaw uses the `P4->T4` pair the sims/sec benchmark
/// pins down; disagg auto-picks its best feasible split per run.
pub fn default_engine_of(
    kind: EngineKind,
    cluster: &Arc<ClusterSpec>,
    model: &Arc<seesaw_model::ModelConfig>,
) -> Box<dyn OnlineEngine> {
    match kind {
        EngineKind::Vllm => Box::new(
            VllmEngine::new(
                Arc::clone(cluster),
                Arc::clone(model),
                ParallelConfig::new(1, 2, 2),
                SchedulingPolicy::PrefillPrioritized,
            )
            .expect("default serving config fits"),
        ),
        EngineKind::Seesaw => Box::new(
            SeesawEngine::new(
                Arc::clone(cluster),
                Arc::clone(model),
                SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
            )
            .expect("default Seesaw pair fits"),
        ),
        EngineKind::Disagg => {
            Box::new(DisaggEngine::new(Arc::clone(cluster), Arc::clone(model)))
        }
    }
}

/// The default cluster/model pair behind every default scenario.
pub fn default_specs() -> (Arc<ClusterSpec>, Arc<seesaw_model::ModelConfig>) {
    (Arc::new(ClusterSpec::a10x4()), Arc::new(presets::llama2_13b()))
}

/// Default request set for [`default_engine`].
pub fn default_requests(n: usize, seed: u64) -> (String, Vec<Request>) {
    let mut gen = WorkloadGen::sharegpt(seed);
    ("sharegpt".into(), gen.generate(n))
}

/// Run the default scenario on `model`-free knobs only (request
/// count, multipliers, SLO, seed) for the requested backend.
pub fn default_sweep_of_with(
    runner: &SweepRunner,
    kind: EngineKind,
    n_requests: usize,
    multipliers: &[f64],
    slo: SloSpec,
    seed: u64,
) -> ServingSweep {
    let (cluster, model) = default_specs();
    let engine = default_engine_of(kind, &cluster, &model);
    let (name, base) = default_requests(n_requests, seed);
    sweep_with(runner, engine.as_ref(), &name, &base, multipliers, slo, seed)
}

/// [`default_sweep_of_with`] for the vLLM baseline (the historical
/// default scenario).
pub fn default_sweep_with(
    runner: &SweepRunner,
    n_requests: usize,
    multipliers: &[f64],
    slo: SloSpec,
    seed: u64,
) -> ServingSweep {
    default_sweep_of_with(runner, EngineKind::Vllm, n_requests, multipliers, slo, seed)
}

/// Render a sweep as the `serving` bin's table.
pub fn render(sweep: &ServingSweep) -> String {
    let mut out = format!(
        "\n=== serving: offered load vs SLO attainment ({} on {}, {} requests) ===\n\
         capacity (offline) = {} rps; SLO: TTFT <= {}s, TPOT <= {}s\n",
        sweep.label,
        sweep.workload,
        sweep.points.first().map_or(0, |p| p.report.stats.requests),
        f3(sweep.capacity_rps),
        sweep.slo.ttft_s,
        sweep.slo.tpot_s,
    );
    let mut t = Table::new(&[
        "load",
        "offered rps",
        "throughput",
        "ttft p50",
        "ttft p99",
        "tpot p99",
        "e2e p99",
        "SLO att",
        "goodput",
    ]);
    for p in &sweep.points {
        let lat = p.report.latency.expect("non-empty run");
        t.row(&[
            format!("{:.2}x", p.load_multiplier),
            f3(p.offered_rps),
            f3(p.report.throughput_rps()),
            f3(lat.ttft.p50),
            f3(lat.ttft.p99),
            format!("{:.4}", lat.tpot.p99),
            f2(lat.e2e.p99),
            format!("{:.1}%", 100.0 * p.attainment),
            f3(p.goodput_rps),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render a sweep as machine-readable JSON (the `serving` bin's
/// `--json` output): every point with its throughput, latency
/// percentiles, attainment, and goodput — diffable and plottable
/// without table parsing.
pub fn to_json(sweep: &ServingSweep) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", jsonfmt::esc(&sweep.label)));
    out.push_str(&format!("  \"workload\": \"{}\",\n", jsonfmt::esc(&sweep.workload)));
    out.push_str(&format!("  \"slo\": {},\n", jsonfmt::slo(sweep.slo)));
    out.push_str(&format!("  \"capacity_rps\": {},\n", jsonfmt::num(sweep.capacity_rps)));
    out.push_str("  \"points\": [\n");
    for (i, p) in sweep.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"load_multiplier\": {}, \"offered_rps\": {}, \"throughput_rps\": {}, \
             \"attainment\": {}, \"goodput_rps\": {}, \"latency\": {}}}{}\n",
            jsonfmt::num(p.load_multiplier),
            jsonfmt::num(p.offered_rps),
            jsonfmt::num(p.report.throughput_rps()),
            jsonfmt::num(p.attainment),
            jsonfmt::num(p.goodput_rps),
            jsonfmt::latency_stats(p.report.latency.as_ref()),
            if i + 1 < sweep.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep(runner: &SweepRunner) -> ServingSweep {
        let engine = default_engine();
        let base = WorkloadGen::constant(768, 48).generate(24);
        sweep_with(
            runner,
            &engine as &dyn OnlineEngine,
            "const",
            &base,
            &[0.25, 1.0, 4.0],
            DEFAULT_SLO,
            42,
        )
    }

    #[test]
    fn attainment_is_monotone_nonincreasing_in_offered_load() {
        let sweep = small_sweep(&SweepRunner::serial());
        assert_eq!(sweep.points.len(), 3);
        for w in sweep.points.windows(2) {
            assert!(
                w[1].attainment <= w[0].attainment + 1e-12,
                "attainment must not rise with load: {} -> {}",
                w[0].attainment,
                w[1].attainment
            );
        }
        let light = &sweep.points[0];
        assert!(
            (light.attainment - 1.0).abs() < 1e-12,
            "quarter-capacity load must meet the default SLO, got {}",
            light.attainment
        );
    }

    #[test]
    fn sweep_is_byte_identical_across_job_counts() {
        let serial = small_sweep(&SweepRunner::serial());
        let parallel = small_sweep(&SweepRunner::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(render(&serial), render(&parallel));
    }

    #[test]
    fn overload_degrades_ttft_not_throughput_floor() {
        let sweep = small_sweep(&SweepRunner::serial());
        let (light, heavy) = (&sweep.points[0], &sweep.points[2]);
        let (l, h) = (
            light.report.latency.unwrap(),
            heavy.report.latency.unwrap(),
        );
        assert!(
            h.ttft.p99 > l.ttft.p99,
            "overload must queue: p99 TTFT {} vs {}",
            h.ttft.p99,
            l.ttft.p99
        );
        // Every point completes the full request set.
        for p in &sweep.points {
            assert_eq!(p.report.stats.requests, 24);
        }
    }
}
