//! The policy × trace frontier sweep: run every scaling policy over
//! every trace and tabulate cost (billed replica-seconds) against
//! SLO attainment and goodput — the capacity-planning frontier the
//! autoscaling tier exists to produce.
//!
//! Cells are independent controller replays evaluated on a
//! [`SweepRunner`] (each cell's replica simulations parallelize on
//! the same runner's nested budget), collected in grid order:
//! traces outer, policies inner. Output is byte-identical for every
//! `--jobs` value because each controller trajectory is serial and
//! deterministic.

use crate::controller::{AutoscaleConfig, AutoscaleController, ElasticFleetReport};
use crate::faults::FaultSchedule;
use crate::policy::ScalingPolicy;
use seesaw_engine::SweepRunner;
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_telemetry::Instrument;
use seesaw_workload::Request;

/// One frontier cell: a policy replayed over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The scaling policy (its `Display` name labels the row).
    pub policy: ScalingPolicy,
    /// Trace name (e.g. `"diurnal"`, `"rush-hours"`).
    pub trace: String,
    /// Requests in the trace.
    pub n_requests: usize,
    /// Measured SLO attainment over the whole trace.
    pub attainment: f64,
    /// SLO-meeting requests per second over the fleet makespan.
    pub goodput_rps: f64,
    /// Billed replica-seconds — the cost axis.
    pub replica_seconds: f64,
    /// Time-averaged replica count over the horizon.
    pub mean_replicas: f64,
    /// Most replicas ever live at once.
    pub peak_replicas: usize,
    /// Scale events in the decision log.
    pub scale_events: usize,
    /// The full elastic run behind the numbers.
    pub report: ElasticFleetReport,
}

/// A completed policy × trace frontier sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSweep {
    /// Replica configuration label (replica 0's).
    pub label: String,
    /// Single-replica offline capacity the scenario was sized
    /// against, requests/second.
    pub capacity_rps: f64,
    /// Controller configuration shared by every cell.
    pub config: AutoscaleConfig,
    /// Trace names, in row order.
    pub traces: Vec<String>,
    /// Policy names, in column order.
    pub policies: Vec<String>,
    /// Cells in row-major traces × policies order.
    pub points: Vec<FrontierPoint>,
}

impl FrontierSweep {
    /// The cell for (`trace`, `policy` display name), if swept.
    pub fn point(&self, trace: &str, policy: &str) -> Option<&FrontierPoint> {
        self.points
            .iter()
            .find(|p| p.trace == trace && p.policy.to_string() == policy)
    }
}

/// Run the policy × trace grid. `capacity` is the pre-measured
/// single-replica offline capacity (see
/// [`seesaw_fleet::offline_capacity`]) recorded in the sweep header;
/// traces carry their own absolute arrival times (no rescaling
/// happens here — the frontier compares policies on *one* fixed
/// day, not across loads).
pub fn frontier_sweep_with(
    runner: &SweepRunner,
    build: ReplicaBuilder,
    config: AutoscaleConfig,
    policies: &[ScalingPolicy],
    traces: &[(String, Vec<Request>)],
    (capacity_rps, label): (f64, &str),
) -> FrontierSweep {
    assert!(!policies.is_empty(), "frontier sweep needs policies");
    assert!(!traces.is_empty(), "frontier sweep needs traces");
    let cells: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..policies.len()).map(move |p| (t, p)))
        .collect();
    let points = runner.map(&cells, |&(t, p)| {
        let (trace_name, requests) = &traces[t];
        let controller = AutoscaleController::new(config, policies[p]);
        let report = controller.run_with(
            runner,
            build,
            requests,
            &FaultSchedule::none(),
            &mut Instrument::off(),
        );
        FrontierPoint {
            policy: policies[p],
            trace: trace_name.clone(),
            n_requests: requests.len(),
            attainment: report.attainment(),
            goodput_rps: report.goodput_rps(),
            replica_seconds: report.replica_seconds,
            mean_replicas: report.mean_replicas(),
            peak_replicas: report.peak_replicas,
            scale_events: report.events.len(),
            report,
        }
    });
    FrontierSweep {
        label: label.into(),
        capacity_rps,
        config,
        traces: traces.iter().map(|(n, _)| n.clone()).collect(),
        policies: policies.iter().map(ScalingPolicy::to_string).collect(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let policies = [
            ScalingPolicy::Static { n: 2 },
            ScalingPolicy::reactive_default(),
        ];
        let run = |runner: &SweepRunner| {
            frontier_sweep_with(runner, &build, small_cfg(), &policies, &traces, (0.6, "T2P2"))
        };
        let serial = run(&SweepRunner::serial());
        let parallel = run(&SweepRunner::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.points.len(), 4);
        assert_eq!(serial.traces, vec!["light", "heavy"]);
        assert_eq!(serial.policies, vec!["static-2", "reactive"]);
        // Row-major: first two cells are the light trace.
        assert_eq!(serial.points[0].trace, "light");
        assert_eq!(serial.points[1].trace, "light");
        assert_eq!(serial.points[2].trace, "heavy");
        let p = serial.point("heavy", "reactive").expect("cell exists");
        assert_eq!(p.n_requests, 40);
        assert!(p.replica_seconds > 0.0);
        // Static-2 on the light trace bills exactly 2 x horizon
        // (nothing to drain past it).
        let s = serial.point("light", "static-2").unwrap();
        assert!(s.replica_seconds >= 2.0 * s.report.horizon_s - 1e-9);
        assert_eq!(s.scale_events, 0);
    }
}
