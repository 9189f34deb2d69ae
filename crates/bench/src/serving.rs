//! The default serving scenario and the `serving` bin's renderings:
//! offered load (requests/second) vs SLO attainment and goodput.
//!
//! The paper evaluates the offline setting only (everything available
//! at t = 0, end-to-end throughput as the metric); the `serving` bin
//! opens the orthogonal axis a production deployment lives on. Its
//! sweep is the fleet tier's scaling sweep at one replica under
//! round-robin ([`crate::fleet::FleetScenario::scaling_with`] with
//! `&[1]`): a fixed request set (lengths and count) is replayed at a
//! ladder of offered loads, one unit-rate Poisson arrival pattern
//! sampled once and *scaled* per load point (time-scaling a Poisson
//! process changes only its rate), so every point queues the same
//! requests in the same order and the sweep isolates load from
//! arrival noise. Offered loads are multiples of the engine's measured
//! *offline* throughput on the same request set (its capacity), so
//! the goodput knee sits near multiplier 1.0 regardless of
//! model/cluster choice.
//!
//! This module holds what every experiment bin and the benchmark
//! share: the default engines ([`default_engine_of`]), specs and
//! requests, the default SLO and load ladder, and the two renderings
//! of a one-replica [`FleetScalingSweep`] ([`render`], [`to_json`]).

use crate::jsonfmt;
use crate::table::{f2, f3, Table};
use seesaw_engine::disagg::DisaggEngine;
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy};
use seesaw_fleet::FleetScalingSweep;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{Request, SloSpec, WorkloadGen};
use std::sync::Arc;

/// Default SLO: first token within 15 s of arrival, then 50 ms per
/// token. The prefill-prioritized scheduler keeps TTFT low until deep
/// overload, so on the default scenario the TPOT bound is what carves
/// the goodput knee (override with `--slo-ttft` / `--slo-tpot`).
pub const DEFAULT_SLO: SloSpec = SloSpec { ttft_s: 15.0, tpot_s: 0.05 };

/// Default offered-load multipliers of measured offline capacity.
pub const DEFAULT_LOAD_MULTIPLIERS: &[f64] = &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0];

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

/// Default-scenario engine of the requested backend on shared spec
/// handles, as a trait object (replica builders call this once per
/// replica). vLLM is the `D1T2P2` prefill-prioritized baseline and
/// Seesaw the `P4->T4` pair, both as the sims/sec benchmark pins them
/// down; disagg auto-picks its best feasible split per run.
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

/// The default request set: `n` ShareGPT-shaped requests from
/// `seed`.
pub fn default_requests(n: usize, seed: u64) -> (String, Vec<Request>) {
    let mut gen = WorkloadGen::sharegpt(seed);
    ("sharegpt".into(), gen.generate(n))
}

/// Render a one-replica scaling sweep as the `serving` bin's table.
pub fn render(sweep: &FleetScalingSweep) -> String {
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

/// Render a one-replica scaling sweep as machine-readable JSON (the
/// `serving` bin's `--json` output): every point with its throughput,
/// latency percentiles, attainment, and goodput — diffable and
/// plottable without table parsing.
pub fn to_json(sweep: &FleetScalingSweep) -> String {
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
    use crate::fleet::FleetScenario;
    use seesaw_engine::SweepRunner;
    use seesaw_fleet::RouterPolicy;

    /// The `serving` bin's sweep at a small scale: 24 default requests
    /// on one vLLM replica at quarter, full and 4× capacity.
    fn small_sweep(runner: &SweepRunner) -> FleetScalingSweep {
        FleetScenario::new(EngineKind::Vllm, 24, 42).scaling_with(
            runner,
            None,
            &[1],
            &[0.25, 1.0, 4.0],
            RouterPolicy::RoundRobin,
            DEFAULT_SLO,
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
        assert_eq!(to_json(&serial), to_json(&parallel));
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
        // Every point completes the full request set on its one
        // replica.
        for p in &sweep.points {
            assert_eq!(p.report.stats.requests, 24);
            assert_eq!(p.n_replicas, 1);
        }
    }
}
