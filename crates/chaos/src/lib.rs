//! The chaos tier's old import path, kept only so the benchmark in
//! `perfbench/` builds unchanged: the elastic tier lives in
//! [`seesaw_autoscale`], and nothing else in the workspace depends on
//! this crate. It goes with the next benchmark-only change (ROADMAP
//! items 7 and 8).

use seesaw_autoscale::{AutoscaleConfig, AutoscaleController, ElasticFleetReport, FaultSchedule};
use seesaw_engine::SweepRunner;
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_telemetry::Instrument;
use seesaw_workload::Request;

pub use seesaw_autoscale::{
    ElasticFrontier as ChaosFrontier, ElasticPoint as ChaosPoint, FaultPlan, RecoverySpec,
};

/// A controller config, fault plan and recovery posture: one cell of
/// the chaos frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosController {
    config: AutoscaleConfig,
    plan: FaultPlan,
    recovery: RecoverySpec,
}

impl ChaosController {
    /// The cell `plan` × `recovery` under `config`.
    pub fn new(config: AutoscaleConfig, plan: FaultPlan, recovery: RecoverySpec) -> Self {
        ChaosController { config, plan, recovery }
    }

    /// [`AutoscaleController::run_with`] under
    /// [`ChaosController::schedule_for`].
    pub fn run_instrumented_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
        instr: &mut Instrument,
    ) -> ElasticFleetReport {
        AutoscaleController::new(self.config, self.recovery.policy).run_with(
            runner,
            build,
            requests,
            &self.schedule_for(requests),
            instr,
        )
    }

    /// [`FaultPlan::schedule_for`] over `requests` in the config's
    /// control windows.
    pub fn schedule_for(&self, requests: &[Request]) -> FaultSchedule {
        self.plan.schedule_for(requests, self.config.window_s, &self.recovery)
    }
}
