//! Scaling policies: how an elastic fleet decides, at each control
//! window boundary, whether to grow, shrink, or hold its replica
//! count.
//!
//! Policies act on the cheap, *a-priori* signals a production
//! autoscaler actually has — queue depth, offered load, estimated
//! utilization, and an estimated-TTFT attainment proxy from the
//! router's virtual queues (see
//! [`crate::controller::WindowSignals`]) — never on measured tail
//! latencies, which only exist after the fact. The controller
//! enforces the cooldown between scale events and the
//! `[min_replicas, max_replicas]` bounds; policies just propose.

use crate::controller::WindowSignals;

/// What a policy wants done at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current replica count.
    Hold,
    /// Spawn this many replicas (they pay warm-up before accepting).
    Up(usize),
    /// Retire this many replicas (they drain in-flight work first).
    Down(usize),
}

/// Reactive policy: scale up when estimated outstanding requests per
/// accepting replica exceed this.
pub const REACTIVE_UP_QUEUE_PER_REPLICA: f64 = 2.0;
/// Reactive policy: scale down only when estimated outstanding
/// requests per accepting replica are below this (hysteresis: well
/// below the up bound).
pub const REACTIVE_DOWN_QUEUE_PER_REPLICA: f64 = 0.25;
/// Reactive policy: scale up when estimated per-replica utilization
/// (offered work per accepting replica-second, capacity-calibrated)
/// exceeds this. The utilization band (0.30–0.55) brackets the
/// SLO-healthy load range on the default scenario: the TPOT knee sits
/// near 0.6× per-replica capacity, so the up-trigger fires with
/// headroom while the down-trigger waits for genuine slack.
pub const REACTIVE_UP_UTILIZATION: f64 = 0.55;
/// Reactive policy: scale down only when estimated per-replica
/// utilization is below this.
pub const REACTIVE_DOWN_UTILIZATION: f64 = 0.30;
/// Reactive policy: scale up when the window's estimated TTFT
/// attainment (fraction of arrivals whose estimated queue wait meets
/// the TTFT SLO) falls below this; scale down requires being at or
/// above it.
pub const REACTIVE_ATTAINMENT_FLOOR: f64 = 0.95;
/// Target-utilization policy: the desired per-replica utilization
/// (45%, the middle of the SLO-healthy load band on the default
/// scenario).
pub const TARGET_UTILIZATION: f64 = 0.45;
/// Windows that must pass after a scale event before an elastic
/// policy may act again.
pub const COOLDOWN_WINDOWS: usize = 2;

/// A replica-count policy evaluated once per control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingPolicy {
    /// A fixed fleet of `n` replicas — the baseline every elastic
    /// policy is judged against (provision-for-peak vs
    /// provision-for-mean are just different `n`).
    Static {
        /// Replica count, held for the whole trace.
        n: usize,
    },
    /// Scale by one replica on queue-depth, utilization, and
    /// estimated-attainment bounds (the `REACTIVE_*` constants), with
    /// hysteresis (each down bound well below its up bound) so the
    /// fleet does not flap around a single threshold, and a cooldown
    /// between events so one burst triggers one action, not one per
    /// window.
    ///
    /// The queue bound catches genuine overload (backlog growth,
    /// ρ > 1); the utilization bound catches the *latency* failure
    /// mode that precedes it — continuous-batching engines blow the
    /// TPOT SLO well before their queues grow, so a queue-only
    /// autoscaler converges on a fleet that keeps up with load while
    /// missing the SLO all day.
    ReactiveThreshold,
    /// Track [`TARGET_UTILIZATION`] per replica (offered work seconds
    /// per accepting replica-second), the classic
    /// CPU-utilization-style autoscaler: desired count =
    /// `ceil(ready × utilization / target)`. Scale-ups jump straight
    /// to the desired count; scale-downs step by one replica per
    /// event (conservative drain).
    TargetUtilization,
}

impl ScalingPolicy {
    /// Validate the policy: a static fleet needs a replica.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ScalingPolicy::Static { n: 0 } => {
                Err("static policy needs at least one replica".into())
            }
            _ => Ok(()),
        }
    }

    /// Replicas provisioned (warm) at t = 0, before any signal exists.
    pub fn initial_replicas(&self, min_replicas: usize, max_replicas: usize) -> usize {
        match *self {
            ScalingPolicy::Static { n } => n.clamp(min_replicas, max_replicas),
            _ => min_replicas,
        }
    }

    /// Windows that must pass after a scale event before this policy
    /// may act again (0 for Static, which never acts).
    pub fn cooldown_windows(&self) -> usize {
        match *self {
            ScalingPolicy::Static { .. } => 0,
            _ => COOLDOWN_WINDOWS,
        }
    }

    /// Propose an action from the window's signals. `provisioned`
    /// counts live replicas (accepting + warming), `ready` only the
    /// accepting ones; bounds are enforced here so a decision is
    /// always directly applicable. Warming replicas block scale-downs
    /// (capacity is already on the way — retiring while it lands is
    /// the classic flap).
    pub fn decide(
        &self,
        s: &WindowSignals,
        min_replicas: usize,
        max_replicas: usize,
    ) -> ScaleDecision {
        let provisioned = s.provisioned;
        let ready = s.ready.max(1);
        match *self {
            ScalingPolicy::Static { .. } => ScaleDecision::Hold,
            ScalingPolicy::ReactiveThreshold => {
                let per_replica = s.queue_depth / ready as f64;
                let overloaded = per_replica > REACTIVE_UP_QUEUE_PER_REPLICA
                    || s.utilization_est > REACTIVE_UP_UTILIZATION
                    || s.est_attainment < REACTIVE_ATTAINMENT_FLOOR;
                let idle = per_replica < REACTIVE_DOWN_QUEUE_PER_REPLICA
                    && s.utilization_est < REACTIVE_DOWN_UTILIZATION
                    && s.est_attainment >= REACTIVE_ATTAINMENT_FLOOR;
                if overloaded && provisioned < max_replicas {
                    ScaleDecision::Up(1)
                } else if idle && s.provisioned == s.ready && provisioned > min_replicas {
                    ScaleDecision::Down(1)
                } else {
                    ScaleDecision::Hold
                }
            }
            ScalingPolicy::TargetUtilization => {
                let desired = ((ready as f64 * s.utilization_est / TARGET_UTILIZATION).ceil()
                    as usize)
                    .clamp(min_replicas, max_replicas);
                if desired > provisioned {
                    ScaleDecision::Up(desired - provisioned)
                } else if desired < provisioned && s.provisioned == s.ready {
                    ScaleDecision::Down(1)
                } else {
                    ScaleDecision::Hold
                }
            }
        }
    }
}

impl std::fmt::Display for ScalingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ScalingPolicy::Static { n } => write!(f, "static-{n}"),
            ScalingPolicy::ReactiveThreshold => write!(f, "reactive"),
            ScalingPolicy::TargetUtilization => {
                write!(f, "target-util-{:.0}%", TARGET_UTILIZATION * 100.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(queue_depth: f64, ready: usize, util: f64, attain: f64) -> WindowSignals {
        WindowSignals {
            t0: 0.0,
            t1: 60.0,
            arrivals: 10,
            offered_rps: 10.0 / 60.0,
            queue_depth,
            est_attainment: attain,
            utilization_est: util,
            ready,
            provisioned: ready,
            failures: 0,
        }
    }

    #[test]
    fn reactive_scales_up_on_queue_or_attainment_and_respects_bounds() {
        let p = ScalingPolicy::ReactiveThreshold;
        // Deep queue: up.
        assert_eq!(p.decide(&signals(8.0, 2, 0.2, 1.0), 1, 8), ScaleDecision::Up(1));
        // High utilization with a drained queue: still up (the TPOT
        // failure mode precedes backlog growth).
        assert_eq!(p.decide(&signals(0.0, 2, 0.7, 1.0), 1, 8), ScaleDecision::Up(1));
        // Attainment collapse with shallow queue: still up.
        assert_eq!(p.decide(&signals(1.0, 2, 0.5, 0.5), 1, 8), ScaleDecision::Up(1));
        // At the max: hold even when overloaded.
        assert_eq!(p.decide(&signals(20.0, 8, 0.99, 0.2), 1, 8), ScaleDecision::Hold);
        // Idle: down, but never below min.
        assert_eq!(p.decide(&signals(0.0, 4, 0.1, 1.0), 1, 8), ScaleDecision::Down(1));
        assert_eq!(p.decide(&signals(0.0, 1, 0.1, 1.0), 1, 8), ScaleDecision::Hold);
    }

    #[test]
    fn reactive_hysteresis_band_holds() {
        let p = ScalingPolicy::ReactiveThreshold;
        // Queue depth and utilization between their down and up
        // bounds: hold.
        assert_eq!(p.decide(&signals(2.0, 2, 0.45, 1.0), 1, 8), ScaleDecision::Hold);
        // Queue drained but utilization not yet idle: hold, not down.
        assert_eq!(p.decide(&signals(0.0, 2, 0.45, 1.0), 1, 8), ScaleDecision::Hold);
    }

    #[test]
    fn warming_replicas_block_scale_down() {
        let p = ScalingPolicy::ReactiveThreshold;
        let mut s = signals(0.0, 4, 0.1, 1.0);
        s.provisioned = 5; // one replica still warming
        assert_eq!(p.decide(&s, 1, 8), ScaleDecision::Hold);
    }

    #[test]
    fn target_utilization_tracks_the_ratio() {
        let p = ScalingPolicy::TargetUtilization;
        // 4 ready at 80% -> desired ceil(4*0.8/0.45) = 8.
        assert_eq!(p.decide(&signals(0.0, 4, 0.8, 1.0), 1, 16), ScaleDecision::Up(4));
        // 4 ready at 10% -> desired 1, but down steps by one.
        assert_eq!(p.decide(&signals(0.0, 4, 0.1, 1.0), 1, 16), ScaleDecision::Down(1));
        // Just under target: desired ceil(4*0.4/0.45) = 4, hold.
        assert_eq!(p.decide(&signals(0.0, 4, 0.4, 1.0), 1, 16), ScaleDecision::Hold);
        // Desired clamps to max.
        assert_eq!(p.decide(&signals(0.0, 8, 0.9, 1.0), 1, 10), ScaleDecision::Up(2));
    }

    #[test]
    fn static_never_moves() {
        let p = ScalingPolicy::Static { n: 5 };
        assert_eq!(p.decide(&signals(50.0, 5, 0.99, 0.0), 1, 16), ScaleDecision::Hold);
        assert_eq!(p.initial_replicas(1, 16), 5);
        assert_eq!(p.initial_replicas(1, 3), 3, "static size clamps to bounds");
    }

    #[test]
    fn validation_rejects_an_empty_static_fleet() {
        assert!(ScalingPolicy::Static { n: 0 }.validate().is_err());
        assert!(ScalingPolicy::Static { n: 1 }.validate().is_ok());
        assert!(ScalingPolicy::ReactiveThreshold.validate().is_ok());
        assert!(ScalingPolicy::TargetUtilization.validate().is_ok());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ScalingPolicy::Static { n: 4 }.to_string(), "static-4");
        assert_eq!(ScalingPolicy::ReactiveThreshold.to_string(), "reactive");
        assert_eq!(ScalingPolicy::TargetUtilization.to_string(), "target-util-45%");
    }
}
