//! Seeded fault-plan generation: rates in, a resolved
//! [`FaultSchedule`] out.
//!
//! All of the elastic tier's randomness lives here, at *schedule
//! build* time. Independent kills and correlated group outages are
//! each a homogeneous Poisson process (exponential gaps hand-rolled
//! from a seeded [`StdRng`]); every per-event decision the replay
//! will need — which replica dies, which group goes dark — is drawn
//! now and embedded in the event, so consuming the schedule is
//! RNG-free and the controller's causal trajectory stays serial and
//! `--jobs`-invariant. The two processes use independent salted
//! streams, so changing the kill rate never reshuffles the outage
//! times.

use crate::faults::{FaultEvent, FaultKind, FaultSchedule, RecoverySpec, RetryPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seesaw_workload::Request;

/// Salt separating the kill stream from other draws on the same seed.
const KILL_SALT: u64 = 0x6b69_6c6c_0000_0001;
/// Salt separating the outage stream.
const OUTAGE_SALT: u64 = 0x6f75_7461_0000_0002;

/// A seeded, serializable failure model: everything needed to
/// regenerate the exact [`FaultSchedule`] for any horizon. This is
/// the reproducibility unit the `chaos` bin echoes into its JSON —
/// a frontier point is replayable from these five numbers alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for both event streams (each salted independently).
    pub seed: u64,
    /// Independent replica kills per hour (Poisson rate).
    pub kills_per_hour: f64,
    /// Correlated group outages per hour (Poisson rate).
    pub outages_per_hour: f64,
    /// Rack/zone groups replica indices stripe across (≥ 1).
    pub groups: usize,
    /// Failure-detection delay before lost work requeues, seconds.
    pub detect_s: f64,
}

impl FaultPlan {
    /// The empty plan: no failures ever. Scheduling it yields
    /// [`FaultSchedule::none`]-shaped output, so a replay under it is
    /// the fault-free replay.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            kills_per_hour: 0.0,
            outages_per_hour: 0.0,
            groups: 1,
            detect_s: 0.0,
        }
    }

    /// Whether the plan can never produce an event.
    pub fn is_empty(&self) -> bool {
        self.kills_per_hour <= 0.0 && self.outages_per_hour <= 0.0
    }

    /// Validate the plan's knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("kills_per_hour", self.kills_per_hour),
            ("outages_per_hour", self.outages_per_hour),
            ("detect_s", self.detect_s),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        if self.groups == 0 {
            return Err("fault groups must be at least 1".into());
        }
        Ok(())
    }

    /// Resolve the plan into a concrete schedule over `[0,
    /// horizon_s)`, attaching the recovery knobs the replay needs.
    /// Deterministic in (plan, horizon): same inputs, same bytes.
    fn schedule(
        &self,
        horizon_s: f64,
        retry: RetryPolicy,
        replace_failures: bool,
    ) -> FaultSchedule {
        self.validate().unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        assert!(
            horizon_s.is_finite() && horizon_s >= 0.0,
            "fault horizon must be finite and >= 0, got {horizon_s}"
        );
        let mut events: Vec<FaultEvent> = Vec::new();
        if self.kills_per_hour > 0.0 {
            let mut rng = StdRng::seed_from_u64(self.seed ^ KILL_SALT);
            poisson_events(&mut rng, self.kills_per_hour, horizon_s, &mut events, |rng| {
                FaultKind::KillReplica { pick: rng.gen_range(0u64..u64::MAX) }
            });
        }
        if self.outages_per_hour > 0.0 {
            let mut rng = StdRng::seed_from_u64(self.seed ^ OUTAGE_SALT);
            poisson_events(&mut rng, self.outages_per_hour, horizon_s, &mut events, |rng| {
                FaultKind::GroupOutage { group: rng.gen_range(0..self.groups) }
            });
        }
        // Stable by construction order: a kill and an outage at the
        // same instant keep kills first, deterministically.
        events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        let schedule = FaultSchedule {
            events,
            groups: self.groups,
            detect_s: self.detect_s,
            retry,
            replace_failures,
        };
        schedule
            .validate()
            .unwrap_or_else(|e| panic!("generated schedule must validate: {e}"));
        schedule
    }

    /// The schedule a replay of `requests` (sorted by arrival) in
    /// `window_s`-second control windows runs under, with
    /// `recovery`'s knobs: faults span the trace's base window
    /// horizon — the horizon the fault-free replay would have — so the
    /// failure process is a property of the *day*, not of how long the
    /// retry tail drags on. Also the detection-scoring ground truth.
    pub fn schedule_for(
        &self,
        requests: &[Request],
        window_s: f64,
        recovery: &RecoverySpec,
    ) -> FaultSchedule {
        let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
        let horizon_s = ((last_arrival / window_s) as usize + 1) as f64 * window_s;
        self.schedule(horizon_s, recovery.retry, recovery.replace_failures)
    }
}

/// Append events of a Poisson process at `rate_per_hour` over `[0,
/// horizon_s)`: exponential gaps via inverse-CDF on uniform draws,
/// with each event's decoration (`kind`) drawn immediately after its
/// gap. The strict gap/kind interleave makes the stream prefix-stable
/// under horizon extension — a longer day appends faults, never
/// reshuffles the ones already scheduled.
fn poisson_events(
    rng: &mut StdRng,
    rate_per_hour: f64,
    horizon_s: f64,
    events: &mut Vec<FaultEvent>,
    mut kind: impl FnMut(&mut StdRng) -> FaultKind,
) {
    let rate = rate_per_hour / 3600.0;
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= horizon_s {
            return;
        }
        let kind = kind(rng);
        events.push(FaultEvent { t_s: t, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let s = FaultPlan::none().schedule(86_400.0, RetryPolicy::default(), true);
        assert!(s.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert!(s.replace_failures, "recovery knobs pass through");
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan { seed: 7, kills_per_hour: 120.0, ..FaultPlan::none() };
        let a = plan.schedule(3600.0, RetryPolicy::default(), false);
        let b = plan.schedule(3600.0, RetryPolicy::default(), false);
        assert_eq!(a, b, "same plan, same bytes");
        assert!(!a.is_empty(), "120/hour over an hour is never empty");
        assert!(a.validate().is_ok());
        let c = FaultPlan { seed: 8, ..plan }.schedule(3600.0, RetryPolicy::default(), false);
        assert_ne!(a.events, c.events, "seed moves the schedule");
    }

    #[test]
    fn horizon_extension_is_prefix_stable() {
        let plan = FaultPlan { seed: 3, kills_per_hour: 60.0, ..FaultPlan::none() };
        let short = plan.schedule(1800.0, RetryPolicy::default(), false);
        let long = plan.schedule(3600.0, RetryPolicy::default(), false);
        assert!(long.events.len() >= short.events.len());
        assert_eq!(&long.events[..short.events.len()], &short.events[..]);
    }

    #[test]
    fn outages_carry_valid_groups_and_mix_with_kills() {
        let plan = FaultPlan {
            seed: 11,
            kills_per_hour: 60.0,
            outages_per_hour: 30.0,
            groups: 3,
            detect_s: 5.0,
        };
        let s = plan.schedule(7200.0, RetryPolicy::default(), true);
        assert!(s.validate().is_ok());
        assert_eq!(s.groups, 3);
        assert_eq!(s.detect_s, 5.0);
        let (mut kills, mut outages) = (0usize, 0usize);
        for e in &s.events {
            match e.kind {
                FaultKind::KillReplica { .. } => kills += 1,
                FaultKind::GroupOutage { group } => {
                    assert!(group < 3);
                    outages += 1;
                }
            }
        }
        assert!(kills > 0 && outages > 0, "both streams fire: {kills} kills, {outages} outages");
        assert!(s.events.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(FaultPlan { groups: 0, ..FaultPlan::none() }.validate().is_err());
        assert!(
            FaultPlan { kills_per_hour: f64::NAN, ..FaultPlan::none() }.validate().is_err()
        );
        assert!(FaultPlan { detect_s: -1.0, ..FaultPlan::none() }.validate().is_err());
    }
}
