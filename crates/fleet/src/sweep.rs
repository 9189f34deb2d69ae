//! Fleet-level sweeps: capacity scaling (replica count × offered
//! load) and router-policy head-to-head comparison.
//!
//! Both sweeps follow the serving harness's methodology: one
//! unit-rate Poisson arrival pattern is sampled per seed and *scaled*
//! per point, so every grid cell replays the same requests in the
//! same order and differs only in pacing. Offered load is expressed
//! as a multiple of `N ×` the single replica's measured *offline*
//! capacity, so the goodput knee of a well-balanced fleet sits near
//! multiplier 1.0 for every N — deviations from that are exactly the
//! routing/imbalance losses this tier exists to measure.
//!
//! Grid cells are independent fleet runs evaluated on a
//! [`SweepRunner`]; within each cell the replicas parallelize on the
//! same runner's nested budget. Output is byte-identical for every
//! `--jobs` value.

use crate::fleet::Fleet;
use crate::report::FleetReport;
use crate::router::RouterPolicy;
use seesaw_engine::{OnlineEngine, SweepRunner};
use seesaw_workload::{Request, SloSpec};

/// Builder for one replica (called once per replica per fleet).
pub type ReplicaBuilder<'a> = &'a (dyn Fn(usize) -> Box<dyn OnlineEngine> + Sync);

/// One evaluated fleet grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// Replicas in the fleet.
    pub n_replicas: usize,
    /// Offered load as a multiple of `n_replicas ×` single-replica
    /// offline capacity.
    pub load_multiplier: f64,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Fraction of requests meeting the SLO.
    pub attainment: f64,
    /// SLO-meeting requests per second over the fleet makespan.
    pub goodput_rps: f64,
    /// The full fleet run behind the numbers.
    pub report: FleetReport,
}

/// A completed replica-count × offered-load scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalingSweep {
    /// Replica configuration label (replica 0's).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Routing policy used at every cell.
    pub policy: RouterPolicy,
    /// The SLO every point is judged against.
    pub slo: SloSpec,
    /// Measured single-replica *offline* throughput on the base
    /// request set (the unit the load multipliers scale from).
    pub capacity_rps: f64,
    /// Replica counts swept (row order).
    pub replica_counts: Vec<usize>,
    /// Load multipliers swept (column order).
    pub multipliers: Vec<f64>,
    /// Points in row-major `replica_counts × multipliers` order.
    pub points: Vec<FleetPoint>,
}

impl FleetScalingSweep {
    /// The point at (`n_replicas`, `multiplier`) if it was swept.
    pub fn point(&self, n_replicas: usize, multiplier: f64) -> Option<&FleetPoint> {
        self.points
            .iter()
            .find(|p| p.n_replicas == n_replicas && p.load_multiplier == multiplier)
    }
}

/// Measure the single-replica offline capacity of `build`'s engine on
/// `base` (arrival times ignored), returning `(capacity_rps, label)`
/// so callers running several sweeps over the same scenario measure
/// once and thread the result through each of them.
pub fn offline_capacity(build: ReplicaBuilder, base: &[Request]) -> (f64, String) {
    let offline: Vec<Request> = base.iter().map(|r| r.with_arrival(0.0)).collect();
    let engine = build(0);
    (engine.run(&offline).throughput_rps(), engine.label())
}

/// Scale one unit-rate arrival pattern to `rate` and attach it to
/// `base` (whatever arrival times `base` carried are replaced).
pub fn paced(base: &[Request], unit: &[f64], rate: f64) -> Vec<Request> {
    base.iter()
        .zip(unit)
        .map(|(r, &t)| r.with_arrival(t / rate))
        .collect()
}

/// Sweep fleets of `replica_counts` homogeneous replicas built by
/// `build` over `multipliers ×` their aggregate capacity, under one
/// routing `policy`. `(capacity_rps, label)` is the single replica's
/// measured offline capacity (from [`offline_capacity`]) and `unit`
/// a unit-mean-rate arrival pattern (one time per request): a sampled
/// unit-rate Poisson pattern, or a trace shape (diurnal envelopes or
/// replayed trace files, normalized via
/// [`seesaw_workload::unit_rate_pattern`]). Every cell replays the
/// *same* pattern, time-scaled to its offered rate.
#[allow(clippy::too_many_arguments)]
pub fn scaling_sweep_patterned_at_capacity_with(
    runner: &SweepRunner,
    build: ReplicaBuilder,
    workload: &str,
    base: &[Request],
    (capacity_rps, label): (f64, &str),
    unit: &[f64],
    replica_counts: &[usize],
    multipliers: &[f64],
    policy: RouterPolicy,
    slo: SloSpec,
) -> FleetScalingSweep {
    assert!(!base.is_empty(), "fleet sweep needs requests");
    assert_eq!(
        unit.len(),
        base.len(),
        "arrival pattern must cover every request"
    );
    assert!(
        replica_counts.iter().all(|&n| n > 0),
        "replica counts must be positive"
    );
    assert!(
        multipliers.iter().all(|&m| m.is_finite() && m > 0.0),
        "load multipliers must be positive and finite"
    );
    assert!(
        capacity_rps.is_finite() && capacity_rps > 0.0,
        "capacity must be positive and finite, got {capacity_rps}"
    );
    let cells: Vec<(usize, f64)> = replica_counts
        .iter()
        .flat_map(|&n| multipliers.iter().map(move |&m| (n, m)))
        .collect();
    let points = runner.map(&cells, |&(n, m)| {
        let rate = m * n as f64 * capacity_rps;
        let reqs = paced(base, unit, rate);
        let fleet = Fleet::homogeneous(n, |i| build(i));
        let report = fleet.run_with(runner, policy, &reqs);
        FleetPoint {
            n_replicas: n,
            load_multiplier: m,
            offered_rps: rate,
            attainment: report.slo_attainment(slo),
            goodput_rps: report.goodput_rps(slo),
            report,
        }
    });
    FleetScalingSweep {
        label: label.into(),
        workload: workload.into(),
        policy,
        slo,
        capacity_rps,
        replica_counts: replica_counts.to_vec(),
        multipliers: multipliers.to_vec(),
        points,
    }
}

/// Run every `policy` head-to-head on the same fleet, request stream
/// and offered load. `fleet` builds a fresh fleet per policy (a
/// [`Fleet::homogeneous`] one shares one service-rate estimate across
/// its replicas; a mixed [`Fleet::new`] one prices each replica from
/// its own engine). `base` is paced by the unit-mean-rate `unit`
/// pattern at `offered_rps`, which the caller derives as `multiplier ×`
/// the fleet's capacity — `N ×` one replica's [`offline_capacity`], or
/// a mixed fleet's [`hetero_offline_capacity`]. Returns one
/// [`FleetPoint`] per policy, in `policies` order (the point's
/// `report.policy` names it).
///
/// On a mixed fleet this is the live-vs-estimated proving ground: the
/// estimated policies price every replica through the same analytic
/// queue model, while the live policies observe each replica's
/// measured state.
pub fn policy_comparison_patterned_with(
    runner: &SweepRunner,
    fleet: &(dyn Fn() -> Fleet + Sync),
    base: &[Request],
    unit: &[f64],
    (multiplier, offered_rps): (f64, f64),
    policies: &[RouterPolicy],
    slo: SloSpec,
) -> Vec<FleetPoint> {
    assert!(!base.is_empty(), "policy comparison needs requests");
    assert_eq!(
        unit.len(),
        base.len(),
        "arrival pattern must cover every request"
    );
    assert!(
        offered_rps.is_finite() && offered_rps > 0.0,
        "offered load must be positive and finite, got {offered_rps}"
    );
    let reqs = paced(base, unit, offered_rps);
    runner.map(policies, |&policy| {
        let fleet = fleet();
        let report = fleet.run_with(runner, policy, &reqs);
        FleetPoint {
            n_replicas: fleet.len(),
            load_multiplier: multiplier,
            offered_rps,
            attainment: report.slo_attainment(slo),
            goodput_rps: report.goodput_rps(slo),
            report,
        }
    })
}

/// Aggregate offline capacity of a (possibly heterogeneous) fleet of
/// `n_replicas` built by `build`: the sum of each replica's measured
/// offline throughput on `base`, the unit a mixed fleet's load
/// multipliers scale from. Also returns a run-length-encoded label
/// (`"2x vllm-t2p2 + 2x vllm-t1p2"`-style) naming the mix.
pub fn hetero_offline_capacity(
    build: ReplicaBuilder,
    n_replicas: usize,
    base: &[Request],
) -> (f64, String) {
    assert!(n_replicas > 0, "a fleet needs at least one replica");
    let offline: Vec<Request> = base.iter().map(|r| r.with_arrival(0.0)).collect();
    let mut total = 0.0;
    let mut runs: Vec<(String, usize)> = Vec::new();
    for i in 0..n_replicas {
        let engine = build(i);
        total += engine.run(&offline).throughput_rps();
        let label = engine.label();
        match runs.last_mut() {
            Some((l, count)) if *l == label => *count += 1,
            _ => runs.push((label, 1)),
        }
    }
    let label = runs
        .iter()
        .map(|(l, c)| format!("{c}x {l}"))
        .collect::<Vec<_>>()
        .join(" + ");
    (total, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::SchedulingPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use seesaw_workload::{ArrivalDist, WorkloadGen, ARRIVAL_SEED_SALT};
    use std::sync::Arc;

    fn builder() -> impl Fn(usize) -> Box<dyn OnlineEngine> + Sync {
        let cluster = Arc::new(ClusterSpec::a10x4());
        let model = Arc::new(presets::llama2_13b());
        move |_| {
            Box::new(
                VllmEngine::new(
                    Arc::clone(&cluster),
                    Arc::clone(&model),
                    ParallelConfig::new(1, 2, 2),
                    SchedulingPolicy::PrefillPrioritized,
                )
                .expect("valid config"),
            )
        }
    }

    const SLO: SloSpec = SloSpec { ttft_s: 15.0, tpot_s: 0.05 };

    /// A unit-rate Poisson arrival pattern of `n` requests.
    fn poisson_unit(n: usize) -> Vec<f64> {
        ArrivalDist::Poisson { rate: 1.0 }
            .sample_times(n, 42 ^ ARRIVAL_SEED_SALT)
            .expect("unit-rate Poisson is valid")
    }

    #[test]
    fn scaling_sweep_covers_the_grid_and_scales_offered_load() {
        let build = builder();
        let base = WorkloadGen::constant(768, 48).generate(16);
        let (capacity_rps, label) = offline_capacity(&build, &base);
        let sweep = scaling_sweep_patterned_at_capacity_with(
            &SweepRunner::serial(),
            &build,
            "const",
            &base,
            (capacity_rps, &label),
            &poisson_unit(base.len()),
            &[1, 2],
            &[0.5, 2.0],
            RouterPolicy::JoinShortestQueue,
            SLO,
        );
        assert_eq!(sweep.points.len(), 4);
        // Offered load scales with both axes.
        let p11 = sweep.point(1, 0.5).unwrap();
        let p22 = sweep.point(2, 2.0).unwrap();
        assert!((p22.offered_rps / p11.offered_rps - 8.0).abs() < 1e-9);
        // Every cell serves the full request set.
        for p in &sweep.points {
            assert_eq!(p.report.stats.requests, 16);
            assert_eq!(p.report.n_replicas(), p.n_replicas);
        }
        // At the same multiplier, more replicas must not hurt
        // attainment (each replica sees ~the same per-replica load).
        let a1 = sweep.point(1, 0.5).unwrap().attainment;
        let a2 = sweep.point(2, 0.5).unwrap().attainment;
        assert!(a2 >= a1 - 0.25, "scaling out collapsed attainment: {a1} -> {a2}");
    }

    #[test]
    fn hetero_comparison_scales_from_aggregate_capacity() {
        let strong = Arc::new(ClusterSpec::a10x4());
        let weak = Arc::new(ClusterSpec::l4x4());
        let model = Arc::new(presets::llama2_13b());
        // Two strong (A10, T2P2) + one weak (L4, P4) replica.
        let build = move |i: usize| -> Box<dyn OnlineEngine> {
            let (cluster, parallel) = if i < 2 {
                (&strong, ParallelConfig::new(1, 2, 2))
            } else {
                (&weak, ParallelConfig::new(1, 1, 4))
            };
            Box::new(
                VllmEngine::new(
                    Arc::clone(cluster),
                    Arc::clone(&model),
                    parallel,
                    SchedulingPolicy::PrefillPrioritized,
                )
                .expect("valid config"),
            )
        };
        let base = WorkloadGen::constant(768, 48).generate(18);
        let (cap, label) = hetero_offline_capacity(&build, 3, &base);
        assert!(cap.is_finite() && cap > 0.0);
        assert!(label.starts_with("2x "), "run-length label, got {label}");
        assert!(label.contains(" + 1x "), "mix must name both configs: {label}");
        let unit = poisson_unit(base.len());
        let policies = [RouterPolicy::JoinShortestQueue, RouterPolicy::JoinShortestQueueLive];
        let mixed = || Fleet::new((0..3).map(&build).collect());
        let run = |runner: &SweepRunner| {
            policy_comparison_patterned_with(
                runner,
                &mixed,
                &base,
                &unit,
                (1.1, 1.1 * cap),
                &policies,
                SLO,
            )
        };
        let serial = run(&SweepRunner::serial());
        assert_eq!(serial, run(&SweepRunner::new(4)));
        for (p, policy) in serial.iter().zip(policies) {
            assert_eq!(p.report.policy, policy);
            assert_eq!(p.n_replicas, 3);
            assert_eq!(p.report.stats.requests, 18);
            assert!((p.offered_rps - 1.1 * cap).abs() < 1e-12);
        }
    }

    #[test]
    fn policy_comparison_is_deterministic_and_complete() {
        let build = builder();
        let base = WorkloadGen::constant(768, 48).generate(16);
        let (capacity_rps, _) = offline_capacity(&build, &base);
        let unit = poisson_unit(base.len());
        let pair = || Fleet::homogeneous(2, &build);
        let run = |runner: &SweepRunner| {
            policy_comparison_patterned_with(
                runner,
                &pair,
                &base,
                &unit,
                (1.0, 2.0 * capacity_rps),
                &RouterPolicy::all_default(),
                SLO,
            )
        };
        let serial = run(&SweepRunner::serial());
        let parallel = run(&SweepRunner::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 4);
        for (p, policy) in serial.iter().zip(RouterPolicy::all_default()) {
            assert_eq!(p.report.policy, policy);
            assert_eq!(p.report.stats.requests, 16);
        }
    }
}
