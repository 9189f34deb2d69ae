//! Faults and recovery: the seeded [`FaultPlan`] a replay is judged
//! under, the [`RecoverySpec`] posture that answers it, the resolved
//! [`FaultSchedule`] the controller consumes, and availability
//! accounting.
//!
//! A [`FaultSchedule`] is a fully resolved, serializable list of
//! timed events — independent replica kills and correlated group
//! outages — plus the recovery knobs (detection delay,
//! [`RetryPolicy`], whether failed capacity is replaced). All
//! randomness is spent when a plan is resolved into a schedule
//! ([`FaultPlan::schedule_for`]); the controller only consumes it, so
//! an empty schedule leaves the fault-free replay bit-identical (one
//! code path, no RNG on it).

use crate::controller::ReplicaLifecycle;
use crate::policy::ScalingPolicy;
pub use crate::plan::FaultPlan;

/// How lost requests are retried after a replica failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Most dispatch attempts a request may consume (first try
    /// included, ≥ 1). A request whose attempt budget is exhausted is
    /// counted as failed — never silently dropped.
    pub max_attempts: u32,
    /// Backoff before the second retry, seconds (the first requeue
    /// after a failure waits only the detection delay; subsequent
    /// ones add exponential backoff: base, 2×base, 4×base, …).
    pub backoff_base_s: f64,
    /// Ceiling on the exponential backoff, seconds.
    pub backoff_cap_s: f64,
    /// Per-request retry deadline, seconds after its *first* arrival:
    /// a retry that would dispatch later than this fails instead.
    pub deadline_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base_s: 1.0,
            backoff_cap_s: 8.0,
            deadline_s: 600.0,
        }
    }
}

impl RetryPolicy {
    /// Validate the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1 (the first try)".into());
        }
        for (name, v) in [
            ("backoff_base_s", self.backoff_base_s),
            ("backoff_cap_s", self.backoff_cap_s),
            ("deadline_s", self.deadline_s),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }

    /// Backoff paid before dispatch attempt `attempt` (1-based; the
    /// original dispatch and the first retry pay none — detection
    /// already delayed the latter).
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if attempt <= 2 {
            return 0.0;
        }
        // 2^(attempt - 3) × base, exponent clamped so the shift never
        // overflows; the cap dominates far earlier anyway.
        let exp = u32::min(attempt - 3, 52);
        (self.backoff_base_s * (1u64 << exp) as f64).min(self.backoff_cap_s)
    }
}

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
    /// `policy` on a fleet that never heals: no replacements, default
    /// retries. Its name is the policy's.
    pub fn bare(policy: ScalingPolicy) -> Self {
        RecoverySpec { policy, replace_failures: false, retry: RetryPolicy::default() }
    }

    /// `policy` replacing killed capacity — the healing fleet.
    pub fn healing(policy: ScalingPolicy) -> Self {
        RecoverySpec { replace_failures: true, ..RecoverySpec::bare(policy) }
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

/// What fails at one scheduled fault instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Kill one live replica, chosen as `candidates[pick % len]` over
    /// the replicas live at the fault instant (in spawn order). The
    /// draw is resolved at schedule time so consumption is RNG-free;
    /// taking it modulo the live count keeps the victim well-defined
    /// whatever the fleet size has become. No-op if nothing is live.
    KillReplica {
        /// Pre-drawn uniform `u64` selecting the victim.
        pick: u64,
    },
    /// Kill every live replica whose spawn index is congruent to
    /// `group` modulo the schedule's group count — a rack/zone
    /// striping of the fleet, so correlated failures take out a fixed
    /// slice of capacity however large the fleet has grown.
    GroupOutage {
        /// The failing group, in `[0, groups)`.
        group: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, seconds.
    pub t_s: f64,
    /// What fails.
    pub kind: FaultKind,
}

/// A fully resolved fault schedule plus recovery knobs — everything
/// the controller needs to replay failures deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Timed faults, sorted by time.
    pub events: Vec<FaultEvent>,
    /// Rack/zone groups replica indices stripe across (≥ 1).
    pub groups: usize,
    /// Failure-detection delay, seconds: work lost at a kill at `t`
    /// re-enters the router's queue no earlier than `t + detect_s`.
    pub detect_s: f64,
    /// Retry behaviour for lost requests.
    pub retry: RetryPolicy,
    /// Whether the controller spawns replacement replicas (paying the
    /// usual warm-up) to restore the policy's desired count after
    /// failures. Off models a static deployment that never heals.
    pub replace_failures: bool,
}

impl FaultSchedule {
    /// The empty schedule: no faults, no replacement. Replaying under
    /// it is exactly the fault-free autoscale replay.
    pub fn none() -> Self {
        FaultSchedule {
            events: Vec::new(),
            groups: 1,
            detect_s: 0.0,
            retry: RetryPolicy::default(),
            replace_failures: false,
        }
    }

    /// Whether the schedule contains no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validate the schedule (sorted finite nonnegative times, sane
    /// knobs).
    pub fn validate(&self) -> Result<(), String> {
        if self.groups == 0 {
            return Err("fault groups must be at least 1".into());
        }
        if !(self.detect_s.is_finite() && self.detect_s >= 0.0) {
            return Err(format!(
                "detection delay must be finite and >= 0, got {}",
                self.detect_s
            ));
        }
        self.retry.validate()?;
        for e in &self.events {
            if !(e.t_s.is_finite() && e.t_s >= 0.0) {
                return Err(format!("fault time must be finite and >= 0, got {}", e.t_s));
            }
            if let FaultKind::GroupOutage { group } = e.kind {
                if group >= self.groups {
                    return Err(format!(
                        "outage group {group} out of range for {} groups",
                        self.groups
                    ));
                }
            }
        }
        if self.events.windows(2).any(|w| w[0].t_s > w[1].t_s) {
            return Err("fault events must be sorted by time".into());
        }
        Ok(())
    }
}

/// One replica kill as it actually happened during the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// When the replica died, seconds.
    pub t_s: f64,
    /// The killed replica (spawn-order index).
    pub replica: usize,
    /// The outage group, for correlated failures (`None` for
    /// independent kills).
    pub group: Option<usize>,
    /// Dispatch attempts lost on this replica: those its simulation
    /// had not completed by the kill (in flight or queued).
    pub lost_attempts: usize,
}

/// Request-conservation and capacity accounting for a fault-injected
/// replay. The invariant a faulted replay is judged by:
/// `completed + failed == offered` and
/// `attempts == completed + lost_attempts` — nothing is ever
/// silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityStats {
    /// Requests in the original trace.
    pub offered: usize,
    /// Dispatch attempts, retries included (`offered` exactly when no
    /// fault ever struck).
    pub attempts: usize,
    /// Requests that eventually completed.
    pub completed: usize,
    /// Attempts lost to failures (killed mid-service/queue, or
    /// undispatchable because nothing was accepting).
    pub lost_attempts: usize,
    /// Retry attempts dispatched.
    pub retries: usize,
    /// Requests that exhausted their retry budget or deadline.
    pub failed: usize,
    /// Replica kills that actually struck a live replica.
    pub replicas_killed: usize,
    /// Seconds within the horizon during which *no* replica was
    /// accepting traffic.
    pub unavailability_s: f64,
    /// Accepting replica-seconds per control window — the per-window
    /// serving capacity the fleet actually had.
    pub window_capacity_s: Vec<f64>,
}

impl AvailabilityStats {
    /// Offered-load amplification from retries:
    /// `attempts / offered` (1.0 for an empty trace).
    pub fn retry_amplification(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.attempts as f64 / self.offered as f64
        }
    }
}

/// The interval `[start, end)` during which a replica accepted
/// traffic, clamped to the horizon: from ready until killed, retired,
/// or the horizon. Empty (`None`) if it never became ready in time.
fn accepting_interval(lc: &ReplicaLifecycle, horizon_s: f64) -> Option<(f64, f64)> {
    let end = lc
        .killed_s
        .or(lc.retire_s)
        .unwrap_or(horizon_s)
        .min(horizon_s);
    (end > lc.ready_s).then_some((lc.ready_s, end))
}

/// Accepting replica-seconds per `window_s`-second control window
/// (`n_windows` of them), from the lifecycle log.
pub fn accepting_capacity_per_window(
    lifecycles: &[ReplicaLifecycle],
    window_s: f64,
    n_windows: usize,
) -> Vec<f64> {
    let mut cap = vec![0.0f64; n_windows];
    let horizon = n_windows as f64 * window_s;
    for lc in lifecycles {
        let Some((start, end)) = accepting_interval(lc, horizon) else {
            continue;
        };
        let first = (start / window_s) as usize;
        let last = ((end / window_s).ceil() as usize).min(n_windows);
        for (w, c) in cap.iter_mut().enumerate().take(last).skip(first) {
            let w0 = w as f64 * window_s;
            let w1 = w0 + window_s;
            *c += (end.min(w1) - start.max(w0)).max(0.0);
        }
    }
    cap
}

/// Seconds within `[0, horizon_s)` covered by *no* accepting replica
/// — total fleet blackout time. 0.0 for any fault-free replay that
/// keeps its `min_replicas ≥ 1` guarantee.
pub fn unavailability_s(lifecycles: &[ReplicaLifecycle], horizon_s: f64) -> f64 {
    let mut intervals: Vec<(f64, f64)> = lifecycles
        .iter()
        .filter_map(|lc| accepting_interval(lc, horizon_s))
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut uncovered = 0.0;
    let mut cursor = 0.0f64;
    for (start, end) in intervals {
        if start > cursor {
            uncovered += start - cursor;
        }
        cursor = cursor.max(end);
        if cursor >= horizon_s {
            return uncovered;
        }
    }
    uncovered + (horizon_s - cursor).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc(ready: f64, killed: Option<f64>, retire: Option<f64>) -> ReplicaLifecycle {
        ReplicaLifecycle {
            spawn_s: ready,
            ready_s: ready,
            retire_s: retire,
            killed_s: killed,
            end_s: killed.or(retire).unwrap_or(100.0),
            requests: 0,
        }
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy { backoff_base_s: 1.0, backoff_cap_s: 8.0, ..Default::default() };
        assert_eq!(p.backoff_s(1), 0.0, "first dispatch pays nothing");
        assert_eq!(p.backoff_s(2), 0.0, "first retry waits only for detection");
        assert_eq!(p.backoff_s(3), 1.0);
        assert_eq!(p.backoff_s(4), 2.0);
        assert_eq!(p.backoff_s(5), 4.0);
        assert_eq!(p.backoff_s(6), 8.0);
        assert_eq!(p.backoff_s(7), 8.0, "capped");
        assert_eq!(p.backoff_s(200), 8.0, "huge attempts don't overflow");
    }

    #[test]
    fn schedule_validation() {
        assert!(FaultSchedule::none().validate().is_ok());
        assert!(FaultSchedule::none().is_empty());
        let mut s = FaultSchedule::none();
        s.events = vec![
            FaultEvent { t_s: 5.0, kind: FaultKind::KillReplica { pick: 1 } },
            FaultEvent { t_s: 2.0, kind: FaultKind::KillReplica { pick: 0 } },
        ];
        assert!(s.validate().unwrap_err().contains("sorted"));
        s.events.swap(0, 1);
        assert!(s.validate().is_ok());
        s.events.push(FaultEvent { t_s: 9.0, kind: FaultKind::GroupOutage { group: 3 } });
        assert!(s.validate().unwrap_err().contains("out of range"));
        s.groups = 4;
        assert!(s.validate().is_ok());
        s.detect_s = f64::NAN;
        assert!(s.validate().is_err());
        let bad_retry = RetryPolicy { max_attempts: 0, ..Default::default() };
        assert!(bad_retry.validate().is_err());
    }

    #[test]
    fn capacity_and_unavailability_from_lifecycles() {
        // Replica 0 accepts [0, 10) then dies; replica 1 accepts
        // [15, 40). Blackout: [10, 15).
        let lcs = vec![lc(0.0, Some(10.0), None), lc(15.0, None, None)];
        let cap = accepting_capacity_per_window(&lcs, 10.0, 4);
        assert_eq!(cap.len(), 4);
        assert!((cap[0] - 10.0).abs() < 1e-9);
        assert!((cap[1] - 5.0).abs() < 1e-9);
        assert!((cap[2] - 10.0).abs() < 1e-9);
        assert!((cap[3] - 10.0).abs() < 1e-9);
        assert!((unavailability_s(&lcs, 40.0) - 5.0).abs() < 1e-9);
        // Overlapping replicas leave no gap.
        let healthy = vec![lc(0.0, None, None), lc(5.0, None, Some(20.0))];
        assert_eq!(unavailability_s(&healthy, 40.0), 0.0);
        // No replica ever: the whole horizon is dark.
        assert_eq!(unavailability_s(&[], 40.0), 40.0);
    }

    #[test]
    fn availability_ratios_are_nan_free_on_empty_runs() {
        let empty = AvailabilityStats {
            offered: 0,
            attempts: 0,
            completed: 0,
            lost_attempts: 0,
            retries: 0,
            failed: 0,
            replicas_killed: 0,
            unavailability_s: 0.0,
            window_capacity_s: Vec::new(),
        };
        assert_eq!(empty.retry_amplification(), 1.0);
    }
}
