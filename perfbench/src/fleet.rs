//! `fleet_routing`: the `fleet` bin's three default experiments on
//! ShareGPT-shaped Poisson arrivals, built cell by cell —
//!
//! * the replica × load scaling grid under estimated `jsq`;
//! * the six-policy head-to-head on 4 replicas at 0.9× load, live
//!   policies included;
//! * the strong/weak heterogeneous head-to-head at 1.2× aggregate load.
//!
//! The rendered tables are byte-identical to
//! `fleet <REQUESTS> --seed <seed> --jobs 1`.

use crate::probe::{causal, each_once, timed, wrap, Cell, EngineProbe, Kind, Outcome};
use crate::{Digest, Rep, Setup, Workload};
use seesaw_bench::fleet::{
    render_comparison, render_hetero_comparison, render_scaling, HeteroComparison,
    DEFAULT_COMPARE_LOAD, DEFAULT_COMPARE_REPLICAS, DEFAULT_HETERO_LOAD, DEFAULT_LOAD_MULTIPLIERS,
    DEFAULT_REPLICA_COUNTS, HETERO_REPLICAS,
};
use seesaw_bench::serving::{
    default_engine_of, default_requests, default_specs, EngineKind, DEFAULT_SLO,
};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::{
    hetero_offline_capacity, offline_capacity, Fleet, FleetPoint, FleetScalingSweep, RouterPolicy,
};
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{ArrivalDist, Request, ARRIVAL_SEED_SALT};
use std::sync::Arc;
use std::time::Instant;

/// Requests per cell. Live-cell cost grows with the square of requests
/// per replica, so at this size the live cells carry most of the work.
pub const REQUESTS: usize = 600;

/// The generated inputs and measured capacities of one seed.
pub struct FleetRouting {
    cluster: Arc<ClusterSpec>,
    weak_cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    workload: String,
    base: Vec<Request>,
    unit: Vec<f64>,
    capacity_rps: f64,
    label: String,
    hetero_capacity_rps: f64,
    hetero_label: String,
}

impl FleetRouting {
    /// One default A10 vLLM replica.
    fn replica(&self, probe: Option<&Arc<EngineProbe>>) -> Box<dyn OnlineEngine> {
        wrap(
            default_engine_of(EngineKind::Vllm, &self.cluster, &self.model),
            probe,
        )
    }

    /// Replica `i` of the mixed fleet: strong A10 first, weak L4
    /// pipeline-only second, as the `fleet` bin builds it.
    fn hetero_replica(&self, i: usize, probe: Option<&Arc<EngineProbe>>) -> Box<dyn OnlineEngine> {
        if i < HETERO_REPLICAS / 2 {
            return self.replica(probe);
        }
        let weak = VllmEngine::new(
            Arc::clone(&self.weak_cluster),
            Arc::clone(&self.model),
            ParallelConfig::new(1, 1, 4),
            SchedulingPolicy::PrefillPrioritized,
        )
        .expect("weak replica config fits");
        wrap(Box::new(weak), probe)
    }

    /// `base` paced by the unit pattern at `rate` requests/second.
    fn paced(&self, rate: f64) -> Vec<Request> {
        self.base
            .iter()
            .zip(&self.unit)
            .map(|(r, &t)| r.with_arrival(t / rate))
            .collect()
    }

    /// Run one fleet cell and check its report.
    fn cell(
        &self,
        fleet: &Fleet,
        policy: RouterPolicy,
        (n_replicas, multiplier, rate): (usize, f64, f64),
        probe: Option<&Arc<EngineProbe>>,
    ) -> (Option<FleetPoint>, Cell) {
        let reqs = self.paced(rate);
        let kind = if policy.needs_live_state() {
            Kind::FleetLive
        } else {
            Kind::FleetEstimated
        };
        let name = format!("{policy} n={n_replicas} x{multiplier:.2}");
        let (report, mut cell) = timed(name, kind, probe, || {
            fleet.run_with(&SweepRunner::serial(), policy, &reqs)
        });
        let point = report.map(|report| {
            cell.ok &= each_once(&report.timeline, &reqs) && causal(&report.timeline);
            cell.outcome = Outcome {
                offered: reqs.len() as u64,
                assigned: report.assignment.len() as u64,
                completed: report.timeline.len() as u64,
                failed: 0,
                dispatches: 0,
            };
            FleetPoint {
                n_replicas,
                load_multiplier: multiplier,
                offered_rps: rate,
                attainment: report.slo_attainment(DEFAULT_SLO),
                goodput_rps: report.goodput_rps(DEFAULT_SLO),
                report,
            }
        });
        (point, cell)
    }

    fn hetero_fleet(&self, probe: Option<&Arc<EngineProbe>>) -> Fleet {
        Fleet::new(
            (0..HETERO_REPLICAS)
                .map(|i| self.hetero_replica(i, probe))
                .collect(),
        )
    }
}

impl Workload for FleetRouting {
    fn setup(seed: u64, probe: Option<&Arc<EngineProbe>>) -> (Self, Setup) {
        let gen_start = Instant::now();
        let (cluster, model) = default_specs();
        let weak_cluster = Arc::new(ClusterSpec::l4x4());
        let (workload, base) = default_requests(REQUESTS, seed);
        let unit = ArrivalDist::Poisson { rate: 1.0 }
            .sample_times(base.len(), seed ^ ARRIVAL_SEED_SALT)
            .expect("unit-rate Poisson is valid");
        let gen_s = gen_start.elapsed().as_secs_f64();
        let mut w = FleetRouting {
            cluster,
            weak_cluster,
            model,
            workload,
            base,
            unit,
            capacity_rps: 0.0,
            label: String::new(),
            hetero_capacity_rps: 0.0,
            hetero_label: String::new(),
        };
        let probe_start = Instant::now();
        (w.capacity_rps, w.label) = offline_capacity(&|_| w.replica(probe), &w.base);
        (w.hetero_capacity_rps, w.hetero_label) =
            hetero_offline_capacity(&|i| w.hetero_replica(i, probe), HETERO_REPLICAS, &w.base);
        let probe_s = probe_start.elapsed().as_secs_f64();
        (w, Setup { gen_s, probe_s })
    }

    fn run(&self, probe: Option<&Arc<EngineProbe>>) -> Rep {
        let mut cells = Vec::new();
        let mut keep = |(point, cell): (Option<FleetPoint>, Cell), into: &mut Vec<FleetPoint>| {
            into.extend(point);
            cells.push(cell);
        };

        let mut scaling_points = Vec::new();
        for &n in DEFAULT_REPLICA_COUNTS {
            for &m in DEFAULT_LOAD_MULTIPLIERS {
                let fleet = Fleet::homogeneous(n, |_| self.replica(probe));
                let rate = m * n as f64 * self.capacity_rps;
                let policy = RouterPolicy::JoinShortestQueue;
                keep(
                    self.cell(&fleet, policy, (n, m, rate), probe),
                    &mut scaling_points,
                );
            }
        }

        let n = DEFAULT_COMPARE_REPLICAS;
        let rate = DEFAULT_COMPARE_LOAD * n as f64 * self.capacity_rps;
        let mut comparison = Vec::new();
        for policy in RouterPolicy::all_with_live() {
            let fleet = Fleet::homogeneous(n, |_| self.replica(probe));
            keep(
                self.cell(&fleet, policy, (n, DEFAULT_COMPARE_LOAD, rate), probe),
                &mut comparison,
            );
        }

        let rate = DEFAULT_HETERO_LOAD * self.hetero_capacity_rps;
        let mut hetero_points = Vec::new();
        for policy in RouterPolicy::all_with_live() {
            let fleet = self.hetero_fleet(probe);
            let grid = (HETERO_REPLICAS, DEFAULT_HETERO_LOAD, rate);
            keep(self.cell(&fleet, policy, grid, probe), &mut hetero_points);
        }

        let mut digest = Digest::default();
        if cells.iter().all(|c| c.ok) {
            let scaling = FleetScalingSweep {
                label: self.label.clone(),
                workload: self.workload.clone(),
                policy: RouterPolicy::JoinShortestQueue,
                slo: DEFAULT_SLO,
                capacity_rps: self.capacity_rps,
                replica_counts: DEFAULT_REPLICA_COUNTS.to_vec(),
                multipliers: DEFAULT_LOAD_MULTIPLIERS.to_vec(),
                points: scaling_points,
            };
            let hetero = HeteroComparison {
                label: self.hetero_label.clone(),
                capacity_rps: self.hetero_capacity_rps,
                points: hetero_points,
            };
            digest.write(render_scaling(&scaling).as_bytes());
            digest.write(render_comparison(&comparison).as_bytes());
            digest.write(render_hetero_comparison(&hetero).as_bytes());
        }
        Rep {
            cells,
            digest: digest.finish(),
        }
    }

    /// The live hetero cell — the one that exercises replay most per
    /// request — run on bare and on wrapped replicas.
    fn wrapped_matches_bare(&self, probe: &Arc<EngineProbe>) -> Option<bool> {
        let reqs = self.paced(DEFAULT_HETERO_LOAD * self.hetero_capacity_rps);
        let policy = RouterPolicy::JoinShortestQueueLive;
        let runner = SweepRunner::serial();
        let bare = self.hetero_fleet(None).run_with(&runner, policy, &reqs);
        let wrapped = self
            .hetero_fleet(Some(probe))
            .run_with(&runner, policy, &reqs);
        Some(bare == wrapped)
    }
}
