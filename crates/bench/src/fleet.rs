//! Fleet-serving harness: the default multi-replica scenario, its
//! capacity-scaling and router-comparison sweeps, and their
//! table/JSON renderings (the `fleet` bin).
//!
//! Two experiments, mirroring how capacity planning actually works:
//!
//! * **Scaling curve** — replica count × offered load (as a multiple
//!   of `N ×` single-replica offline capacity), goodput and SLO
//!   attainment per cell. A perfectly balanced fleet keeps its
//!   goodput knee at the same multiplier for every N; the table makes
//!   routing losses visible as the knee sliding left with N.
//! * **Router head-to-head** — every policy (the four estimated-queue
//!   ones plus the live `jsq-live`/`least-work-live` pair) on the
//!   same fleet size and request stream at one fixed (default:
//!   knee-adjacent) load, with per-replica imbalance statistics.
//! * **Heterogeneous head-to-head** — the same roster on a *mixed*
//!   fleet (strong A10 + weak L4 replicas) at an overload point,
//!   where live routing's measured state separates from the
//!   estimated policies' analytic queue model.
//!
//! Everything rides the default serving scenario (LLaMA2-13B on
//! 4×A10 per replica, ShareGPT-shaped lengths) and is byte-identical
//! for every `--jobs` value.

use crate::cli::Telemetry;
use crate::jsonfmt;
use crate::serving::{default_engine_of, default_requests, default_specs, EngineKind};
use crate::table::{f2, f3, Table};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::sweep::paced;
use seesaw_fleet::{
    hetero_offline_capacity, offline_capacity, policy_comparison_patterned_with,
    scaling_sweep_patterned_at_capacity_with, FleetPoint, FleetScalingSweep, RouterPolicy,
};
use seesaw_fleet::{Fleet, FleetReport};
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::ParallelConfig;
use seesaw_sim::TraceSummary;
use seesaw_telemetry::{Instrument, MetricsRegistry};
use seesaw_workload::{unit_rate_pattern, ArrivalDist, Request, SloSpec, ARRIVAL_SEED_SALT};
use std::sync::Arc;

/// Default replica counts for the scaling sweep.
pub const DEFAULT_REPLICA_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Default load multipliers (of `N ×` single-replica capacity) for
/// the scaling sweep.
pub const DEFAULT_LOAD_MULTIPLIERS: &[f64] = &[0.5, 0.75, 1.0, 1.5];

/// Default fleet size for the router comparison.
pub const DEFAULT_COMPARE_REPLICAS: usize = 4;

/// Default offered load for the router comparison: just past the
/// knee, where routing quality separates the policies.
pub const DEFAULT_COMPARE_LOAD: f64 = 0.9;

/// Replicas in the heterogeneous head-to-head: half strong (the
/// default A10 replica), half weak (L4, pipeline-only).
pub const HETERO_REPLICAS: usize = 4;

/// Default offered load for the heterogeneous head-to-head, as a
/// multiple of the mixed fleet's *aggregate* offline capacity: an
/// overload point, where the estimated policies' one-size analytic
/// queue model mis-prices the weak replicas and live routing's
/// measured state pays off.
pub const DEFAULT_HETERO_LOAD: f64 = 1.2;

/// The seeded unit-rate Poisson arrival pattern behind every default
/// fleet experiment: `n` times, salted like every serving sweep.
fn poisson_unit(n: usize, seed: u64) -> Vec<f64> {
    ArrivalDist::Poisson { rate: 1.0 }
        .sample_times(n, seed ^ ARRIVAL_SEED_SALT)
        .expect("unit-rate Poisson is valid")
}

/// The heterogeneous router head-to-head: its fleet label (from
/// [`hetero_offline_capacity`]'s run-length encoding), measured
/// aggregate offline capacity, and one [`FleetPoint`] per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroComparison {
    /// Replica-mix label, e.g. `"2x vllm T2P2 + 2x vllm P4"`.
    pub label: String,
    /// Aggregate offline capacity of the mixed fleet, rps.
    pub capacity_rps: f64,
    /// One point per policy, in [`RouterPolicy::all_with_live`] order.
    pub points: Vec<FleetPoint>,
}

/// Run all policies (estimated and live) head-to-head on a *mixed*
/// fleet — [`HETERO_REPLICAS`] replicas, half the default A10 vLLM
/// replica and half a weak L4 pipeline-only one — at `multiplier ×`
/// the fleet's aggregate offline capacity. This is the experiment the
/// global event loop exists for: on a homogeneous fleet the estimated
/// queue model is well calibrated, but here it prices every replica
/// with per-replica analytic rates that still miss the weak replicas'
/// queue dynamics under overload, while `jsq-live`/`least-work-live`
/// observe the measured state.
pub fn default_hetero_comparison_with(
    runner: &SweepRunner,
    n_requests: usize,
    multiplier: f64,
    slo: SloSpec,
    seed: u64,
) -> HeteroComparison {
    let (cluster, model) = default_specs();
    let weak_cluster = Arc::new(ClusterSpec::l4x4());
    let (_, base) = default_requests(n_requests, seed);
    let build = move |i: usize| -> Box<dyn OnlineEngine> {
        if i < HETERO_REPLICAS / 2 {
            default_engine_of(EngineKind::Vllm, &cluster, &model)
        } else {
            Box::new(
                VllmEngine::new(
                    Arc::clone(&weak_cluster),
                    Arc::clone(&model),
                    ParallelConfig::new(1, 1, 4),
                    SchedulingPolicy::PrefillPrioritized,
                )
                .expect("weak replica config fits"),
            )
        }
    };
    let (capacity_rps, label) = hetero_offline_capacity(&build, HETERO_REPLICAS, &base);
    let points = policy_comparison_patterned_with(
        runner,
        &|| Fleet::new((0..HETERO_REPLICAS).map(&build).collect()),
        &base,
        &poisson_unit(base.len(), seed),
        (multiplier, multiplier * capacity_rps),
        &RouterPolicy::all_with_live(),
        slo,
    );
    HeteroComparison { label, capacity_rps, points }
}

/// The homogeneous fleet behind the default experiments and the
/// dedicated cells, set up once per invocation: one backend's default
/// replica, the request set, and the single-replica offline capacity
/// measured on it.
pub struct FleetScenario {
    kind: EngineKind,
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    /// Workload name.
    workload: String,
    /// The request set (each cell paces its own arrivals).
    base: Vec<Request>,
    /// Workload seed; it also seeds the Poisson arrival pattern.
    seed: u64,
    /// Single-replica offline capacity on `base`, requests/second.
    capacity_rps: f64,
    /// Replica configuration label.
    label: String,
}

impl FleetScenario {
    /// Generate `n_requests` ShareGPT-shaped requests from `seed` and
    /// measure one `kind` replica's offline capacity on them.
    pub fn new(kind: EngineKind, n_requests: usize, seed: u64) -> Self {
        let (cluster, model) = default_specs();
        let (workload, base) = default_requests(n_requests, seed);
        let build = |_: usize| default_engine_of(kind, &cluster, &model);
        let (capacity_rps, label) = offline_capacity(&build, &base);
        FleetScenario { kind, cluster, model, workload, base, seed, capacity_rps, label }
    }

    /// One default replica (every fleet's replica builder).
    fn replica(&self, _: usize) -> Box<dyn OnlineEngine> {
        default_engine_of(self.kind, &self.cluster, &self.model)
    }

    /// A dedicated cell: `n_replicas` replicas and the Poisson-paced
    /// requests at `multiplier ×` their aggregate capacity, with that
    /// rate.
    pub fn cell(&self, n_replicas: usize, multiplier: f64) -> (Fleet, Vec<Request>, f64) {
        let rate = multiplier * n_replicas as f64 * self.capacity_rps;
        let reqs = paced(&self.base, &poisson_unit(self.base.len(), self.seed), rate);
        (Fleet::homogeneous(n_replicas, |i| self.replica(i)), reqs, rate)
    }
}

/// One fleet cell run with the telemetry recorder on: the dedicated
/// observability cell behind the `fleet` bin's `--trace-out` flag.
#[derive(Debug)]
pub struct ObservedCell {
    /// Routing policy of the traced run.
    pub policy: RouterPolicy,
    /// Fleet size.
    pub n_replicas: usize,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// The (telemetry-identical) fleet report.
    pub report: FleetReport,
    /// The run's trace and metric snapshot.
    pub telemetry: Telemetry,
}

/// Run one dedicated fleet cell — the head-to-head's configuration
/// under `policy` — with the telemetry recorder on, and render its
/// Perfetto trace. Recorded bytes are sim-time only, so the trace is
/// byte-identical for every `--jobs` value (enforced by tests).
pub fn observed_cell_with(
    runner: &SweepRunner,
    scenario: &FleetScenario,
    n_replicas: usize,
    multiplier: f64,
    policy: RouterPolicy,
) -> ObservedCell {
    let (fleet, reqs, offered_rps) = scenario.cell(n_replicas, multiplier);
    let mut instr = Instrument::tracing();
    let report = fleet.run_instrumented_with(runner, policy, &reqs, &mut instr);
    let telemetry = Telemetry::finish(instr, "fleet");
    ObservedCell { policy, n_replicas, offered_rps, report, telemetry }
}

/// Render the merged engine-time breakdown as the `--breakdown`
/// table: one row per replica (its report's per-kind busy totals) plus
/// a fleet-total row, bucketed the way the simulators charge work
/// (compute / communication / weight transfer / reshard / kv swap /
/// other).
pub fn render_breakdown(report: &FleetReport) -> String {
    let mut out = format!(
        "\n=== fleet: engine time breakdown ({} replicas, {} policy, {} requests) ===\n\
         per-replica sim spans merged fleet-wide; seconds of simulated device time\n",
        report.replicas.len(),
        report.policy,
        report.stats.requests,
    );
    let mut t = Table::new(&[
        "replica",
        "compute",
        "comm",
        "weights",
        "reshard",
        "kv swap",
        "other",
        "total",
    ]);
    let mut fleet_total = TraceSummary::default();
    for (i, s) in report.replicas.iter().map(|r| &r.busy_by_kind).enumerate() {
        t.row(&[
            format!("r{i}"),
            f3(s.compute),
            f3(s.communication),
            f3(s.weight_transfer),
            f3(s.reshard),
            f3(s.kv_swap),
            f3(s.other),
            f3(s.total()),
        ]);
        fleet_total.compute += s.compute;
        fleet_total.communication += s.communication;
        fleet_total.weight_transfer += s.weight_transfer;
        fleet_total.reshard += s.reshard;
        fleet_total.kv_swap += s.kv_swap;
        fleet_total.other += s.other;
    }
    t.row(&[
        "fleet".into(),
        f3(fleet_total.compute),
        f3(fleet_total.communication),
        f3(fleet_total.weight_transfer),
        f3(fleet_total.reshard),
        f3(fleet_total.kv_swap),
        f3(fleet_total.other),
        f3(fleet_total.total()),
    ]);
    out.push_str(&t.render());
    out
}

/// Build the unit-rate arrival pattern behind a `--trace` argument:
/// `"diurnal"` samples the default sharpened diurnal envelope
/// (`n_requests` arrivals of its shape), anything else loads a trace
/// file (absolute times, one per line); both normalize to unit mean
/// rate so the sweeps time-scale them per cell exactly like the
/// Poisson pattern. Errs on unreadable/malformed/degenerate traces.
pub fn trace_pattern(spec: &str, n_requests: usize, seed: u64) -> Result<Vec<f64>, String> {
    let times = if spec == "diurnal" {
        // Only the shape matters (`unit_rate_pattern` rescales time),
        // but the `n_requests` samples must cover one full cycle or
        // the "diurnal" pattern degenerates to a flat Poisson at
        // whatever rate the covered sliver has. Size the period so
        // the expected arrival count over one cycle is exactly
        // `n_requests`: period = n / mean_rate (the mean is
        // period-independent, so probe it on a unit period).
        let envelope = |period_s: f64| {
            crate::autoscale::default_diurnal_envelope(
                crate::autoscale::DEFAULT_TROUGH_MULT,
                crate::autoscale::DEFAULT_PEAK_MULT,
                period_s,
            )
        };
        let period_s = n_requests as f64 / envelope(1.0).mean_rps();
        envelope(period_s).sample_n(n_requests, seed ^ ARRIVAL_SEED_SALT)?
    } else {
        seesaw_workload::load_trace_file(spec)?
    };
    unit_rate_pattern(&times, n_requests)
}

/// Run both default fleet experiments — scaling sweep and router
/// head-to-head — on `scenario`, whose capacity was measured once
/// (the `fleet` bin's body). `pattern`, when given, replaces the
/// unit-rate Poisson arrivals with a trace-shaped unit pattern (see
/// [`trace_pattern`]), turning the head-to-head into the router ×
/// trace grid.
#[allow(clippy::too_many_arguments)]
pub fn default_experiments_patterned_with(
    runner: &SweepRunner,
    scenario: &FleetScenario,
    pattern: Option<&[f64]>,
    replica_counts: &[usize],
    multipliers: &[f64],
    policy: RouterPolicy,
    compare_replicas: usize,
    compare_load: f64,
    slo: SloSpec,
) -> (FleetScalingSweep, Vec<FleetPoint>) {
    let base = &scenario.base;
    let poisson;
    let unit: &[f64] = match pattern {
        Some(u) => u,
        None => {
            poisson = poisson_unit(base.len(), scenario.seed);
            &poisson
        }
    };
    let scaling = scaling_sweep_patterned_at_capacity_with(
        runner,
        &|i| scenario.replica(i),
        &scenario.workload,
        base,
        (scenario.capacity_rps, &scenario.label),
        unit,
        replica_counts,
        multipliers,
        policy,
        slo,
    );
    let comparison = policy_comparison_patterned_with(
        runner,
        &|| Fleet::homogeneous(compare_replicas, |i| scenario.replica(i)),
        base,
        unit,
        (compare_load, compare_load * compare_replicas as f64 * scenario.capacity_rps),
        &RouterPolicy::all_with_live(),
        slo,
    );
    (scaling, comparison)
}

/// Render the scaling sweep as the `fleet` bin's first table.
pub fn render_scaling(sweep: &FleetScalingSweep) -> String {
    let mut out = format!(
        "\n=== fleet: replica count x offered load ({} replicas of {} on {}, {} requests, {} routing) ===\n\
         per-replica capacity (offline) = {} rps; SLO: TTFT <= {}s, TPOT <= {}s\n\
         load = multiple of N x per-replica capacity\n",
        sweep
            .replica_counts
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        sweep.label,
        sweep.workload,
        sweep.points.first().map_or(0, |p| p.report.stats.requests),
        sweep.policy,
        f3(sweep.capacity_rps),
        sweep.slo.ttft_s,
        sweep.slo.tpot_s,
    );
    let mut t = Table::new(&[
        "N",
        "load",
        "offered rps",
        "throughput",
        "ttft p99",
        "tpot p99",
        "SLO att",
        "goodput",
        "goodput/N",
    ]);
    for p in &sweep.points {
        let lat = p.report.latency.expect("non-empty run");
        t.row(&[
            p.n_replicas.to_string(),
            format!("{:.2}x", p.load_multiplier),
            f3(p.offered_rps),
            f3(p.report.throughput_rps()),
            f2(lat.ttft.p99),
            format!("{:.4}", lat.tpot.p99),
            format!("{:.1}%", 100.0 * p.attainment),
            f3(p.goodput_rps),
            f3(p.goodput_rps / p.n_replicas as f64),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render the router comparison as the `fleet` bin's second table.
pub fn render_comparison(points: &[FleetPoint]) -> String {
    let Some(first) = points.first() else {
        return String::from("\n=== fleet: router comparison (no points) ===\n");
    };
    let mut out = format!(
        "\n=== fleet: router policy head-to-head ({} replicas, {:.2}x load, {} requests) ===\n\
         imbalance: request-count spread (min/max per replica), cv = coeff. of variation\n",
        first.n_replicas,
        first.load_multiplier,
        first.report.stats.requests,
    );
    out.push_str(&comparison_table(points));
    out
}

/// Render the heterogeneous head-to-head as the `fleet` bin's third
/// table.
pub fn render_hetero_comparison(hetero: &HeteroComparison) -> String {
    let Some(first) = hetero.points.first() else {
        return String::from("\n=== fleet: heterogeneous router head-to-head (no points) ===\n");
    };
    let mut out = format!(
        "\n=== fleet: heterogeneous router head-to-head ({}, {:.2}x aggregate load, {} requests) ===\n\
         aggregate capacity (offline) = {} rps; live policies route on measured replica state\n",
        hetero.label,
        first.load_multiplier,
        first.report.stats.requests,
        f3(hetero.capacity_rps),
    );
    out.push_str(&comparison_table(&hetero.points));
    out
}

/// The shared head-to-head table body (one row per policy).
fn comparison_table(points: &[FleetPoint]) -> String {
    let mut t = Table::new(&[
        "policy",
        "ttft p50",
        "ttft p99",
        "e2e p99",
        "SLO att",
        "goodput",
        "req min/max",
        "cv req",
        "cv tok",
        "skew",
    ]);
    for p in points {
        let lat = p.report.latency.expect("non-empty run");
        let imb = p.report.imbalance();
        t.row(&[
            p.report.policy.to_string(),
            f3(lat.ttft.p50),
            f2(lat.ttft.p99),
            f2(lat.e2e.p99),
            format!("{:.1}%", 100.0 * p.attainment),
            f3(p.goodput_rps),
            format!("{}/{}", imb.min_requests, imb.max_requests),
            format!("{:.3}", imb.cv_requests),
            format!("{:.3}", imb.cv_tokens),
            format!("{:.3}", imb.makespan_skew),
        ]);
    }
    t.render()
}

/// One fleet point as a JSON object (shared by all three experiments'
/// `--json`). Every point carries the router policy that produced it
/// and the workload seed, so any single point is reproducible without
/// consulting the document header.
fn point_json(p: &FleetPoint, seed: u64) -> String {
    let imb = p.report.imbalance();
    let policy = format!(
        "\"policy\": \"{}\", \"seed\": {seed}, ",
        jsonfmt::esc(&p.report.policy.to_string())
    );
    format!(
        "{{{policy}\"n_replicas\": {}, \"load_multiplier\": {}, \"offered_rps\": {}, \
         \"throughput_rps\": {}, \"attainment\": {}, \"goodput_rps\": {}, \
         \"imbalance\": {{\"min_requests\": {}, \"max_requests\": {}, \"cv_requests\": {}, \
         \"cv_tokens\": {}, \"makespan_skew\": {}}}, \"latency\": {}}}",
        p.n_replicas,
        jsonfmt::num(p.load_multiplier),
        jsonfmt::num(p.offered_rps),
        jsonfmt::num(p.report.throughput_rps()),
        jsonfmt::num(p.attainment),
        jsonfmt::num(p.goodput_rps),
        imb.min_requests,
        imb.max_requests,
        jsonfmt::num(imb.cv_requests),
        jsonfmt::num(imb.cv_tokens),
        jsonfmt::num(imb.makespan_skew),
        jsonfmt::latency_stats(p.report.latency.as_ref()),
    )
}

/// All three fleet experiments as one machine-readable JSON document
/// (the `fleet` bin's `--json` output). The header echoes the
/// workload seed, and every point additionally carries its own
/// `policy` and `seed` fields. `hetero` is optional so callers
/// skipping the mixed-fleet experiment still emit a valid document;
/// the `telemetry` metrics block is present only when a traced run
/// produced one, so the plain document stays byte-identical to
/// pre-telemetry output.
pub fn to_json(
    scaling: &FleetScalingSweep,
    comparison: &[FleetPoint],
    hetero: Option<&HeteroComparison>,
    seed: u64,
    telemetry: Option<&MetricsRegistry>,
) -> String {
    let points_json = |out: &mut String, points: &[FleetPoint], indent: &str| {
        for (i, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "{indent}{}{}\n",
                point_json(p, seed),
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", jsonfmt::esc(&scaling.label)));
    out.push_str(&format!("  \"workload\": \"{}\",\n", jsonfmt::esc(&scaling.workload)));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"policy\": \"{}\",\n", jsonfmt::esc(&scaling.policy.to_string())));
    out.push_str(&format!("  \"slo\": {},\n", jsonfmt::slo(scaling.slo)));
    out.push_str(&format!(
        "  \"capacity_rps\": {},\n",
        jsonfmt::num(scaling.capacity_rps)
    ));
    out.push_str("  \"scaling\": [\n");
    points_json(&mut out, &scaling.points, "    ");
    out.push_str("  ],\n");
    out.push_str("  \"router_comparison\": [\n");
    points_json(&mut out, comparison, "    ");
    if let Some(h) = hetero {
        out.push_str("  ],\n");
        out.push_str("  \"hetero\": {\n");
        out.push_str(&format!("    \"label\": \"{}\",\n", jsonfmt::esc(&h.label)));
        out.push_str(&format!(
            "    \"capacity_rps\": {},\n",
            jsonfmt::num(h.capacity_rps)
        ));
        out.push_str("    \"router_comparison\": [\n");
        points_json(&mut out, &h.points, "      ");
        out.push_str("    ]\n  }");
    } else {
        out.push_str("  ]");
    }
    if let Some(m) = telemetry {
        out.push_str(&format!(",\n  \"telemetry\": {}", m.render_json()));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default experiments on Poisson arrivals: a `replicas` ×
    /// `multipliers` jsq scaling grid plus the six-policy head-to-head
    /// on 2 replicas at 0.9× load.
    fn experiments(
        n_requests: usize,
        replicas: &[usize],
        multipliers: &[f64],
    ) -> (FleetScalingSweep, Vec<FleetPoint>) {
        default_experiments_patterned_with(
            &SweepRunner::serial(),
            &FleetScenario::new(EngineKind::Vllm, n_requests, 42),
            None,
            replicas,
            multipliers,
            RouterPolicy::JoinShortestQueue,
            2,
            0.9,
            crate::serving::DEFAULT_SLO,
        )
    }

    /// The diurnal `--trace` pattern must actually carry the daily
    /// shape: the period is sized so the sampled arrivals span one
    /// full cycle, concentrating them around the mid-pattern peak
    /// (regression: a fixed 86 400 s period made 200 samples cover
    /// <1% of the day — a flat trough-rate Poisson).
    #[test]
    fn diurnal_trace_pattern_spans_one_cycle_and_peaks_mid_pattern() {
        let n = 400;
        let unit = trace_pattern("diurnal", n, 42).expect("valid pattern");
        assert_eq!(unit.len(), n);
        let span = *unit.last().unwrap();
        let mid: usize = unit
            .iter()
            .filter(|&&t| t > 0.25 * span && t < 0.75 * span)
            .count();
        assert!(
            mid as f64 > 0.6 * n as f64,
            "the mid-cycle peak must dominate: {mid}/{n} arrivals in the middle half"
        );
        // Unknown files error instead of exiting.
        assert!(trace_pattern("/no/such/trace.txt", 10, 0).is_err());
    }

    /// The `--trace-out` cell's recorded bytes — Perfetto trace and
    /// metric snapshot — must be byte-identical across `--jobs`, and
    /// the traced run must report exactly what the untraced cell
    /// reports.
    #[test]
    fn observed_cell_is_jobs_invariant_and_report_faithful() {
        let scenario = FleetScenario::new(EngineKind::Vllm, 12, 42);
        let cell = |runner: &SweepRunner| {
            observed_cell_with(runner, &scenario, 2, 0.9, RouterPolicy::JoinShortestQueue)
        };
        let serial = cell(&SweepRunner::serial());
        let parallel = cell(&SweepRunner::new(4));
        assert_eq!(serial.report, parallel.report);
        let (trace, metrics) = (&serial.telemetry.trace_json, &serial.telemetry.metrics);
        assert_eq!(trace, &parallel.telemetry.trace_json, "trace bytes must be --jobs-invariant");
        assert_eq!(metrics.render_json(), parallel.telemetry.metrics.render_json());
        // The trace is a well-formed event array with per-replica
        // tracks and per-request spans.
        assert!(trace.starts_with("{\"traceEvents\":"));
        assert_eq!(
            trace.matches("\"thread_name\"").count(),
            2 + serial.n_replicas,
            "controller + router + one track per replica"
        );
        assert!(trace.contains("req "));
        // Telemetry must not perturb the cell: rerun it untraced.
        let (cluster, model) = default_specs();
        let build = |_: usize| default_engine_of(EngineKind::Vllm, &cluster, &model);
        let (_, base) = default_requests(12, 42);
        let (capacity_rps, _) = offline_capacity(&build, &base);
        let reqs = paced(&base, &poisson_unit(base.len(), 42), 0.9 * 2.0 * capacity_rps);
        let plain = Fleet::homogeneous(2, build).run_with(
            &SweepRunner::serial(),
            RouterPolicy::JoinShortestQueue,
            &reqs,
        );
        assert_eq!(plain, serial.report, "telemetry must not perturb the report");
    }

    /// The `--breakdown` cell's merged buckets reconcile: the fleet
    /// row is the exact sum of the per-replica rows, and the table
    /// carries every bucket column.
    #[test]
    fn breakdown_cell_reconciles_and_renders() {
        let (fleet, reqs, _) = FleetScenario::new(EngineKind::Vllm, 12, 42).cell(2, 0.9);
        let report = fleet.run_with(&SweepRunner::serial(), RouterPolicy::JoinShortestQueue, &reqs);
        let summaries: Vec<TraceSummary> = report.replicas.iter().map(|r| r.busy_by_kind).collect();
        assert_eq!(summaries.len(), 2, "one summary per replica");
        assert!(summaries.iter().any(|s| s.total() > 0.0));
        let table = render_breakdown(&report);
        for col in ["compute", "comm", "weights", "reshard", "kv swap", "fleet"] {
            assert!(table.contains(col), "missing column {col}");
        }
        // The fleet row sums the per-replica compute bucket.
        let total: f64 = summaries.iter().map(|s| s.compute).sum();
        assert!(table.contains(&format!("{total:.3}")));
    }

    /// The `telemetry` block lands in the `--json` document only when
    /// a metric snapshot is supplied.
    #[test]
    fn json_telemetry_block_is_optional_and_well_formed() {
        let (scaling, _) = experiments(12, &[1], &[0.5]);
        let plain = to_json(&scaling, &[], None, 42, None);
        let cell = observed_cell_with(
            &SweepRunner::serial(),
            &FleetScenario::new(EngineKind::Vllm, 12, 42),
            2,
            0.9,
            RouterPolicy::JoinShortestQueue,
        );
        let with = to_json(&scaling, &[], None, 42, Some(&cell.telemetry.metrics));
        assert!(with.contains("\"telemetry\": {"));
        assert!(with.contains("\"counters\""));
        // The recorder's overflow health counters are always present
        // (zero on an uncapped run) so capped traces can't silently
        // look complete.
        assert!(with.contains("\"telemetry.dropped_spans\": 0"));
        assert!(with.contains("\"telemetry.dropped_instants\": 0"));
        assert_eq!(with.matches('{').count(), with.matches('}').count());
        assert_eq!(with.matches('[').count(), with.matches(']').count());
        assert!(!plain.contains("\"telemetry\""));
    }

    #[test]
    fn default_scaling_sweep_renders_and_is_jobs_invariant() {
        let run = |runner: &SweepRunner| {
            default_experiments_patterned_with(
                runner,
                &FleetScenario::new(EngineKind::Vllm, 16, 42),
                None,
                &[1, 2],
                &[0.5, 1.5],
                RouterPolicy::JoinShortestQueue,
                2,
                0.9,
                crate::serving::DEFAULT_SLO,
            )
            .0
        };
        let serial = run(&SweepRunner::serial());
        let parallel = run(&SweepRunner::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(render_scaling(&serial), render_scaling(&parallel));
        assert_eq!(serial.points.len(), 4);
        let rendered = render_scaling(&serial);
        assert!(rendered.contains("goodput/N"));
    }

    #[test]
    fn comparison_covers_all_policies_and_json_is_wellformed() {
        let (scaling, points) = experiments(16, &[1], &[0.5]);
        assert_eq!(points.len(), 6);
        let rendered = render_comparison(&points);
        for p in ["round-robin", "jsq", "po2", "least-work", "jsq-live", "least-work-live"] {
            assert!(rendered.contains(p), "missing {p} in\n{rendered}");
        }
        let json = to_json(&scaling, &points, None, 42, None);
        // Cheap structural checks: balanced braces/brackets, every
        // policy present, no NaN leakage.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"router_comparison\""));
        assert!(json.contains("\"seed\": 42"), "the seed echo makes points reproducible");
        assert!(json.contains("\"jsq-live\""));
        assert!(json.contains("\"least-work\""));
        // Satellite: every point carries its own policy and seed.
        let points_emitted = json.matches("\"policy\": \"").count();
        let seeds_emitted = json.matches("\"seed\": 42").count();
        assert_eq!(points_emitted, 1 + 6 + 1, "header + 6 comparison points + 1 scaling point");
        assert_eq!(seeds_emitted, 1 + 6 + 1);
        assert!(!json.contains("NaN"));
    }

    /// The refactor's acceptance point: on the mixed-fleet overload
    /// head-to-head, live JSQ (measured queue depths) must beat the
    /// estimated JSQ (analytic virtual queues) on SLO attainment.
    #[test]
    fn live_jsq_beats_estimated_jsq_on_the_hetero_overload_point() {
        let run = |runner: &SweepRunner| {
            default_hetero_comparison_with(
                runner,
                48,
                DEFAULT_HETERO_LOAD,
                crate::serving::DEFAULT_SLO,
                42,
            )
        };
        let hetero = run(&SweepRunner::serial());
        assert_eq!(hetero, run(&SweepRunner::new(4)), "hetero comparison must be jobs-invariant");
        assert_eq!(hetero.points.len(), 6);
        let att = |policy: RouterPolicy| {
            hetero
                .points
                .iter()
                .find(|p| p.report.policy == policy)
                .expect("policy present")
                .attainment
        };
        let jsq = att(RouterPolicy::JoinShortestQueue);
        let live = att(RouterPolicy::JoinShortestQueueLive);
        assert!(
            live > jsq,
            "jsq-live ({live}) must beat estimated jsq ({jsq}) on the hetero overload point"
        );
        let rendered = render_hetero_comparison(&hetero);
        assert!(rendered.contains("heterogeneous"), "table header names the experiment");
        assert!(rendered.contains("jsq-live"));
        let json = to_json(&experiments(16, &[1], &[0.5]).0, &[], Some(&hetero), 42, None);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"hetero\""));
        assert!(!json.contains("NaN"));
    }
}
