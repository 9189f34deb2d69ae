//! The failure-model × recovery-posture frontier sweep: the
//! cost-vs-SLO-vs-availability surface the chaos tier exists to
//! produce (the `chaos` bin).
//!
//! Cells are independent [`ChaosController`] replays over one fixed
//! trace, collected in row-major fault × recovery order on a
//! [`SweepRunner`]. Each cell's causal trajectory (fault resolution,
//! routing, requeue decisions) is serial and deterministic; only the
//! final per-replica engine simulations parallelize — so the grid is
//! byte-identical for every `--jobs` value.

use crate::controller::{ChaosController, RecoverySpec};
use crate::plan::FaultPlan;
use seesaw_autoscale::{score_detection, AutoscaleConfig, DetectionScore, ElasticFleetReport};
use seesaw_engine::SweepRunner;
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_telemetry::Instrument;
use seesaw_workload::Request;

/// One frontier cell: a recovery posture replayed under a failure
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPoint {
    /// Failure-model name (e.g. `"none"`, `"kills-8/day"`).
    pub fault: String,
    /// The seeded plan behind it — with `plan.seed` and the rates,
    /// this cell is reproducible from its JSON line alone.
    pub plan: FaultPlan,
    /// Recovery-posture name (e.g. `"reactive+replace"`).
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
    /// The controller's burn-rate alert stream scored against this
    /// cell's injected correlated outages — the detection-frontier
    /// cell (on the `"none"` fault row, `false_fires` is the rule's
    /// false-positive count on a fault-free day).
    pub detection: DetectionScore,
    /// The full fault-injected run behind the numbers.
    pub report: ElasticFleetReport,
}

/// A completed fault × recovery frontier over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosFrontier {
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
    pub points: Vec<ChaosPoint>,
}

impl ChaosFrontier {
    /// The cell for (`fault`, `recovery` display name), if swept.
    pub fn point(&self, fault: &str, recovery: &str) -> Option<&ChaosPoint> {
        self.points
            .iter()
            .find(|p| p.fault == fault && p.recovery == recovery)
    }
}

/// Run the fault × recovery grid over one trace. Each cell builds its
/// own schedule from its plan (seeded, deterministic) and replays the
/// full controller; cells parallelize on the runner and collect in
/// grid order.
pub fn chaos_sweep_with(
    runner: &SweepRunner,
    build: ReplicaBuilder,
    config: AutoscaleConfig,
    faults: &[(String, FaultPlan)],
    recoveries: &[RecoverySpec],
    (trace_name, requests): (&str, &[Request]),
    (capacity_rps, label): (f64, &str),
) -> ChaosFrontier {
    assert!(!faults.is_empty(), "chaos sweep needs failure models");
    assert!(!recoveries.is_empty(), "chaos sweep needs recovery postures");
    let cells: Vec<(usize, usize)> = (0..faults.len())
        .flat_map(|f| (0..recoveries.len()).map(move |r| (f, r)))
        .collect();
    let points = runner.map(&cells, |&(f, r)| {
        let (fault_name, plan) = &faults[f];
        let controller = ChaosController::new(config, *plan, recoveries[r]);
        let report =
            controller.run_instrumented_with(runner, build, requests, &mut Instrument::off());
        let detection = score_detection(&report.alerts, &controller.schedule_for(requests));
        let a = &report.availability;
        ChaosPoint {
            fault: fault_name.clone(),
            plan: *plan,
            recovery: recoveries[r].to_string(),
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
            detection,
            report,
        }
    });
    ChaosFrontier {
        label: label.into(),
        capacity_rps,
        config,
        trace: trace_name.into(),
        faults: faults.iter().map(|(n, _)| n.clone()).collect(),
        recoveries: recoveries.iter().map(RecoverySpec::to_string).collect(),
        alert_rule: seesaw_autoscale::AlertRule::default().to_string(),
        points,
    }
}
