//! The elastic frontier sweep: trace × fault × recovery grids,
//! tabulating cost (billed replica-seconds) against SLO attainment,
//! goodput and availability — the surface the `autoscale` and `chaos`
//! bins render. A fault-free policy frontier is this sweep with the
//! fault roster `{none}` and each policy as a [`RecoverySpec::bare`]
//! posture.
//!
//! Cells are independent controller replays, each under the schedule
//! its plan resolves to over its trace ([`FaultPlan::schedule_for`]),
//! evaluated in one [`SweepRunner::map`] (each cell's replica
//! simulations parallelize on the same runner's nested budget) and
//! collected in grid order: traces outer, then faults, then
//! recoveries. Each cell's causal trajectory is serial and
//! deterministic, so the grid is byte-identical for every `--jobs`
//! value.

use crate::alert::{score_detection, AlertRule, DetectionScore};
use crate::controller::{AutoscaleConfig, AutoscaleController, ElasticFleetReport};
use crate::faults::{FaultPlan, RecoverySpec};
use seesaw_engine::SweepRunner;
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_telemetry::Instrument;
use seesaw_workload::Request;

/// One frontier cell: a recovery posture replayed over a trace under
/// a failure model.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticPoint {
    /// Failure-model name (e.g. `"none"`, `"kills-8/day"`).
    pub fault: String,
    /// The seeded plan behind it — with `plan.seed` and the rates,
    /// this cell is reproducible from its JSON line alone.
    pub plan: FaultPlan,
    /// Recovery-posture name (e.g. `"reactive+replace"`; a bare
    /// posture is named by its policy).
    pub recovery: String,
    /// Requests in the trace.
    pub n_requests: usize,
    /// SLO attainment over *offered* requests (failed ones count
    /// against it).
    pub attainment: f64,
    /// SLO-meeting requests per second over the fleet makespan.
    pub goodput_rps: f64,
    /// Billed replica-seconds — the cost axis.
    pub replica_seconds: f64,
    /// Time-averaged replica count over the horizon.
    pub mean_replicas: f64,
    /// Most replicas ever live at once.
    pub peak_replicas: usize,
    /// Requests that completed (possibly after retries).
    pub completed: usize,
    /// Requests that exhausted retries or deadline.
    pub failed: usize,
    /// Dispatch attempts lost to failures.
    pub lost_attempts: usize,
    /// Retry attempts dispatched.
    pub retries: usize,
    /// Replica kills that struck a live replica.
    pub replicas_killed: usize,
    /// Offered-load amplification from retries (`attempts/offered`).
    pub retry_amplification: f64,
    /// Seconds with zero accepting replicas — the availability axis.
    pub unavailability_s: f64,
    /// The report's burn-rate alert stream scored against this cell's
    /// injected correlated outages — the detection-frontier cell (on
    /// the `"none"` fault row, `false_fires` is the rule's
    /// false-positive count on a fault-free day).
    pub detection: DetectionScore,
    /// The full run behind the numbers.
    pub report: ElasticFleetReport,
}

/// A completed fault × recovery frontier over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticFrontier {
    /// Replica configuration label (replica 0's).
    pub label: String,
    /// Single-replica offline capacity the scenario was sized
    /// against, requests/second.
    pub capacity_rps: f64,
    /// Controller configuration shared by every cell.
    pub config: AutoscaleConfig,
    /// Trace name.
    pub trace: String,
    /// Failure-model names, in row order.
    pub faults: Vec<String>,
    /// Recovery-posture names, in column order.
    pub recoveries: Vec<String>,
    /// Display name of the burn-rate rule every cell's detection was
    /// scored under.
    pub alert_rule: String,
    /// Cells in row-major faults × recoveries order.
    pub points: Vec<ElasticPoint>,
}

impl ElasticFrontier {
    /// The cell for (`fault`, `recovery` display name), if swept.
    pub fn point(&self, fault: &str, recovery: &str) -> Option<&ElasticPoint> {
        self.points
            .iter()
            .find(|p| p.fault == fault && p.recovery == recovery)
    }
}

/// Run the trace × fault × recovery grid and return one frontier per
/// trace, in trace order. `capacity` is the pre-measured
/// single-replica offline capacity (see
/// [`seesaw_fleet::offline_capacity`]) recorded in each header;
/// traces carry their own absolute arrival times (no rescaling
/// happens here — a frontier compares postures on *one* fixed day,
/// not across loads).
pub fn elastic_sweep_with(
    runner: &SweepRunner,
    build: ReplicaBuilder,
    config: AutoscaleConfig,
    traces: &[(String, Vec<Request>)],
    faults: &[(String, FaultPlan)],
    recoveries: &[RecoverySpec],
    (capacity_rps, label): (f64, &str),
) -> Vec<ElasticFrontier> {
    assert!(!traces.is_empty(), "elastic sweep needs traces");
    assert!(!faults.is_empty(), "elastic sweep needs failure models");
    assert!(!recoveries.is_empty(), "elastic sweep needs recovery postures");
    let cells: Vec<(usize, usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..faults.len()).map(move |f| (t, f)))
        .flat_map(|(t, f)| (0..recoveries.len()).map(move |r| (t, f, r)))
        .collect();
    let mut points = runner
        .map(&cells, |&(t, f, r)| {
            let requests = &traces[t].1;
            let (fault, plan) = &faults[f];
            let recovery = &recoveries[r];
            let schedule = plan.schedule_for(requests, config.window_s, recovery);
            let report = AutoscaleController::new(config, recovery.policy).run_with(
                runner,
                build,
                requests,
                &schedule,
                &mut Instrument::off(),
            );
            let a = &report.availability;
            ElasticPoint {
                fault: fault.clone(),
                plan: *plan,
                recovery: recovery.to_string(),
                n_requests: requests.len(),
                attainment: report.attainment(),
                goodput_rps: report.goodput_rps(),
                replica_seconds: report.replica_seconds,
                mean_replicas: report.mean_replicas(),
                peak_replicas: report.peak_replicas,
                completed: a.completed,
                failed: a.failed,
                lost_attempts: a.lost_attempts,
                retries: a.retries,
                replicas_killed: a.replicas_killed,
                retry_amplification: a.retry_amplification(),
                unavailability_s: a.unavailability_s,
                detection: score_detection(&report.alerts, &schedule),
                report,
            }
        })
        .into_iter();
    traces
        .iter()
        .map(|(trace, _)| ElasticFrontier {
            label: label.into(),
            capacity_rps,
            config,
            trace: trace.clone(),
            faults: faults.iter().map(|(n, _)| n.clone()).collect(),
            recoveries: recoveries.iter().map(RecoverySpec::to_string).collect(),
            alert_rule: AlertRule::default().to_string(),
            points: points.by_ref().take(faults.len() * recoveries.len()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ScalingPolicy;
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::{OnlineEngine, SchedulingPolicy};
    use seesaw_fleet::RouterPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use seesaw_workload::{ArrivalDist, SloSpec, WorkloadGen};
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

    fn small_cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            window_s: 5.0,
            warmup_s: 5.0,
            min_replicas: 1,
            max_replicas: 4,
            router: RouterPolicy::JoinShortestQueue,
            slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
            capacity_rps: 2.5,
        }
    }

    fn trace(n: usize, rate: f64, seed: u64) -> Vec<Request> {
        let base = WorkloadGen::constant(512, 32).generate(n);
        ArrivalDist::Poisson { rate }.attach(&base, seed).expect("valid")
    }

    #[test]
    fn frontier_covers_the_grid_and_is_runner_invariant() {
        let build = builder();
        let traces = vec![
            ("light".to_string(), trace(20, 0.4, 1)),
            ("heavy".to_string(), trace(40, 3.0, 2)),
        ];
        let faults = [("none".to_string(), FaultPlan::none())];
        let recoveries = [
            RecoverySpec::bare(ScalingPolicy::Static { n: 2 }),
            RecoverySpec::bare(ScalingPolicy::reactive_default()),
        ];
        let run = |runner: &SweepRunner| {
            elastic_sweep_with(
                runner,
                &build,
                small_cfg(),
                &traces,
                &faults,
                &recoveries,
                (0.6, "T2P2"),
            )
        };
        let serial = run(&SweepRunner::serial());
        let parallel = run(&SweepRunner::new(4));
        assert_eq!(serial, parallel);
        // One frontier per trace, in trace order, each covering its
        // fault × recovery grid.
        assert_eq!(serial.len(), 2);
        assert_eq!(serial[0].trace, "light");
        assert_eq!(serial[1].trace, "heavy");
        for frontier in &serial {
            assert_eq!(frontier.points.len(), 2);
            assert_eq!(frontier.faults, vec!["none"]);
            assert_eq!(frontier.recoveries, vec!["static-2", "reactive"]);
        }
        let p = serial[1].point("none", "reactive").expect("cell exists");
        assert_eq!(p.n_requests, 40);
        assert!(p.replica_seconds > 0.0);
        // Static-2 on the light trace bills exactly 2 x horizon
        // (nothing to drain past it).
        let s = serial[0].point("none", "static-2").unwrap();
        assert!(s.replica_seconds >= 2.0 * s.report.horizon_s - 1e-9);
        assert!(s.report.events.is_empty());
    }
}
