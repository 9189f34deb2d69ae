//! The chaos controller: an autoscale replay under a seeded
//! [`FaultPlan`], paired with an explicit [`RecoverySpec`].
//!
//! This is a thin, deterministic composition: the plan resolves to a
//! [`seesaw_autoscale::FaultSchedule`] over the trace's base horizon,
//! and [`seesaw_autoscale::AutoscaleController::run_with`] does the
//! rest. With an empty plan the schedule is empty and the replay is
//! the plain autoscale run — one code path, no RNG on it.
//!
//! Kills are events on the replay's event queue, interleaved with
//! dispatches in time order (a kill runs first at an equal instant).
//! Under every routing policy a kill finishes the victim's engine
//! actor at the kill instant — nothing can reach a dead replica, so
//! that run is final — and loses exactly the attempts it had not
//! completed by then; the victim's report keeps only the completions
//! up to the kill. A dispatch that finds every replica dark does not
//! panic: the arrival parks until the first warming replica is ready
//! (or requeues under the retry policy when nothing is warming).

use crate::plan::FaultPlan;
use seesaw_autoscale::{
    AlertRule, AutoscaleConfig, AutoscaleController, ElasticFleetReport, RetryPolicy,
    ScalingPolicy,
};
use seesaw_engine::SweepRunner;
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_telemetry::Instrument;
use seesaw_workload::Request;

/// How the deployment responds to failures: the scaling policy that
/// drives the trajectory, whether killed capacity is replaced, and
/// how lost requests retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverySpec {
    /// Scaling policy driving the window-by-window trajectory.
    pub policy: ScalingPolicy,
    /// Spawn replacements (paying warm-up) for killed replicas.
    pub replace_failures: bool,
    /// Retry behaviour for requests lost to failures.
    pub retry: RetryPolicy,
}

impl RecoverySpec {
    /// A static fleet that never heals — the fragile baseline.
    pub fn bare_static(n: usize) -> Self {
        RecoverySpec {
            policy: ScalingPolicy::Static { n },
            replace_failures: false,
            retry: RetryPolicy::default(),
        }
    }

    /// A policy that replaces killed capacity — the healing fleet.
    pub fn healing(policy: ScalingPolicy) -> Self {
        RecoverySpec { policy, replace_failures: true, retry: RetryPolicy::default() }
    }
}

impl std::fmt::Display for RecoverySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.replace_failures {
            write!(f, "{}+replace", self.policy)
        } else {
            write!(f, "{}", self.policy)
        }
    }
}

/// An autoscale controller wrapped in a failure model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosController {
    /// Controller configuration (window, warm-up, bounds, router,
    /// SLO, capacity calibration).
    pub config: AutoscaleConfig,
    /// The seeded failure model.
    pub plan: FaultPlan,
    /// The recovery posture.
    pub recovery: RecoverySpec,
    /// Burn-rate rule forwarded to the inner autoscale controller —
    /// the fault-*detection* side of the chaos tier: its fire/clear
    /// stream is scored against the plan's injected outages.
    pub alert: AlertRule,
}

impl ChaosController {
    /// Build a controller; panics on an invalid plan or config (the
    /// inner [`AutoscaleController`] validates the latter). Alerting
    /// defaults to [`AlertRule::default`]; override with
    /// [`ChaosController::with_alert`].
    pub fn new(config: AutoscaleConfig, plan: FaultPlan, recovery: RecoverySpec) -> Self {
        plan.validate().unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        ChaosController { config, plan, recovery, alert: AlertRule::default() }
    }

    /// The same controller evaluating `alert`; panics on an invalid
    /// rule.
    pub fn with_alert(mut self, alert: AlertRule) -> Self {
        alert.validate().unwrap_or_else(|e| panic!("invalid alert rule: {e}"));
        self.alert = alert;
        self
    }

    /// Replay `requests` under the fault plan with a telemetry
    /// [`Instrument`]: a straight passthrough to
    /// [`AutoscaleController::run_with`] under
    /// [`ChaosController::schedule_for`], so kills, retries, parks,
    /// scale events, route decisions, and request lifecycles land on
    /// the same tracks as a fault-free run. The fault schedule spans
    /// the trace's base window horizon (the same horizon the
    /// fault-free replay would have), so the failure process is a
    /// property of the *day*, not of how long the retry tail happens to
    /// drag on. Pass [`Instrument::off`] for a plain run.
    pub fn run_instrumented_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
        instr: &mut Instrument,
    ) -> ElasticFleetReport {
        let schedule = self.schedule_for(requests);
        AutoscaleController::new(self.config, self.recovery.policy)
            .with_alert(self.alert)
            .run_with(runner, build, requests, &schedule, instr)
    }

    /// The resolved fault schedule a replay of `requests` runs under —
    /// the detection-scoring ground truth. Spans the trace's base
    /// window horizon.
    pub fn schedule_for(&self, requests: &[Request]) -> seesaw_autoscale::FaultSchedule {
        let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
        let horizon_s = ((last_arrival / self.config.window_s) as usize + 1) as f64
            * self.config.window_s;
        self.plan
            .schedule(horizon_s, self.recovery.retry, self.recovery.replace_failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_names_expose_the_replacement_posture() {
        assert_eq!(RecoverySpec::bare_static(4).to_string(), "static-4");
        assert_eq!(
            RecoverySpec::healing(ScalingPolicy::reactive_default()).to_string(),
            "reactive+replace"
        );
        assert_eq!(
            RecoverySpec::healing(ScalingPolicy::Static { n: 3 }).to_string(),
            "static-3+replace"
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn bad_plan_rejected() {
        ChaosController::new(
            AutoscaleConfig::default(),
            FaultPlan { groups: 0, ..FaultPlan::none() },
            RecoverySpec::bare_static(2),
        );
    }
}
