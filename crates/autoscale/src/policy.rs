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
    /// Scale on queue-depth, utilization, and estimated-attainment
    /// bounds, with hysteresis (each down bound well below its up
    /// bound) so the fleet does not flap around a single threshold,
    /// and a cooldown between events so one burst triggers one
    /// action, not one per window.
    ///
    /// The queue bound catches genuine overload (backlog growth,
    /// ρ > 1); the utilization bound catches the *latency* failure
    /// mode that precedes it — continuous-batching engines blow the
    /// TPOT SLO well before their queues grow, so a queue-only
    /// autoscaler converges on a fleet that keeps up with load while
    /// missing the SLO all day.
    ReactiveThreshold {
        /// Scale up when estimated outstanding requests per accepting
        /// replica exceed this.
        up_queue_per_replica: f64,
        /// Scale down only when estimated outstanding requests per
        /// accepting replica are below this (must be < the up bound).
        down_queue_per_replica: f64,
        /// Scale up when estimated per-replica utilization (offered
        /// work per accepting replica-second, capacity-calibrated)
        /// exceeds this.
        up_utilization: f64,
        /// Scale down only when estimated per-replica utilization is
        /// below this (must be < the up bound).
        down_utilization: f64,
        /// Scale up when the window's estimated TTFT attainment
        /// (fraction of arrivals whose estimated queue wait meets the
        /// TTFT SLO) falls below this; scale down requires being at
        /// or above it.
        attainment_floor: f64,
        /// Replicas added or removed per event.
        step: usize,
        /// Windows that must pass after a scale event before the next.
        cooldown_windows: usize,
    },
    /// Track a target per-replica utilization (offered work seconds
    /// per accepting replica-second), the classic
    /// CPU-utilization-style autoscaler: desired count =
    /// `ceil(ready × utilization / target)`. Scale-ups jump straight
    /// to the desired count; scale-downs step by one replica per
    /// event (conservative drain).
    TargetUtilization {
        /// Desired per-replica utilization in (0, 1).
        target: f64,
        /// Windows that must pass after a scale event before the next.
        cooldown_windows: usize,
    },
}

impl ScalingPolicy {
    /// The default reactive policy. The utilization band (0.30–0.55)
    /// brackets the SLO-healthy load range on the default scenario:
    /// the TPOT knee sits near 0.6× per-replica capacity, so the
    /// up-trigger fires with headroom while the down-trigger waits
    /// for genuine slack.
    pub fn reactive_default() -> Self {
        ScalingPolicy::ReactiveThreshold {
            up_queue_per_replica: 2.0,
            down_queue_per_replica: 0.25,
            up_utilization: 0.55,
            down_utilization: 0.30,
            attainment_floor: 0.95,
            step: 1,
            cooldown_windows: 2,
        }
    }

    /// The default utilization-tracking policy (target 45%, the
    /// middle of the SLO-healthy load band on the default scenario).
    pub fn target_utilization_default() -> Self {
        ScalingPolicy::TargetUtilization { target: 0.45, cooldown_windows: 2 }
    }

    /// Validate the policy's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ScalingPolicy::Static { n } => {
                if n == 0 {
                    return Err("static policy needs at least one replica".into());
                }
                Ok(())
            }
            ScalingPolicy::ReactiveThreshold {
                up_queue_per_replica,
                down_queue_per_replica,
                up_utilization,
                down_utilization,
                attainment_floor,
                step,
                ..
            } => {
                for (name, v) in [
                    ("up_queue_per_replica", up_queue_per_replica),
                    ("down_queue_per_replica", down_queue_per_replica),
                    ("up_utilization", up_utilization),
                    ("down_utilization", down_utilization),
                ] {
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(format!("{name} must be finite and >= 0, got {v}"));
                    }
                }
                for (pair, down, up) in [
                    ("queue", down_queue_per_replica, up_queue_per_replica),
                    ("utilization", down_utilization, up_utilization),
                ] {
                    if down >= up {
                        return Err(format!(
                            "hysteresis requires the down {pair} bound {down} < the up \
                             {pair} bound {up}"
                        ));
                    }
                }
                if !(attainment_floor.is_finite() && (0.0..=1.0).contains(&attainment_floor)) {
                    return Err(format!(
                        "attainment_floor must be in [0, 1], got {attainment_floor}"
                    ));
                }
                if step == 0 {
                    return Err("reactive step must be at least 1".into());
                }
                Ok(())
            }
            ScalingPolicy::TargetUtilization { target, .. } => {
                if !(target.is_finite() && target > 0.0 && target < 1.0) {
                    return Err(format!(
                        "utilization target must be in (0, 1), got {target}"
                    ));
                }
                Ok(())
            }
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
            ScalingPolicy::ReactiveThreshold { cooldown_windows, .. } => cooldown_windows,
            ScalingPolicy::TargetUtilization { cooldown_windows, .. } => cooldown_windows,
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
            ScalingPolicy::ReactiveThreshold {
                up_queue_per_replica,
                down_queue_per_replica,
                up_utilization,
                down_utilization,
                attainment_floor,
                step,
                ..
            } => {
                let per_replica = s.queue_depth / ready as f64;
                let overloaded = per_replica > up_queue_per_replica
                    || s.utilization_est > up_utilization
                    || s.est_attainment < attainment_floor;
                let idle = per_replica < down_queue_per_replica
                    && s.utilization_est < down_utilization
                    && s.est_attainment >= attainment_floor;
                if overloaded && provisioned < max_replicas {
                    ScaleDecision::Up(step.min(max_replicas - provisioned))
                } else if idle && s.provisioned == s.ready && provisioned > min_replicas {
                    ScaleDecision::Down(step.min(provisioned - min_replicas))
                } else {
                    ScaleDecision::Hold
                }
            }
            ScalingPolicy::TargetUtilization { target, .. } => {
                let desired = ((ready as f64 * s.utilization_est / target).ceil() as usize)
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
            ScalingPolicy::ReactiveThreshold { .. } => write!(f, "reactive"),
            ScalingPolicy::TargetUtilization { target, .. } => {
                write!(f, "target-util-{:.0}%", target * 100.0)
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
        let p = ScalingPolicy::reactive_default();
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
        let p = ScalingPolicy::reactive_default();
        // Queue depth and utilization between their down and up
        // bounds: hold.
        assert_eq!(p.decide(&signals(2.0, 2, 0.45, 1.0), 1, 8), ScaleDecision::Hold);
        // Queue drained but utilization not yet idle: hold, not down.
        assert_eq!(p.decide(&signals(0.0, 2, 0.45, 1.0), 1, 8), ScaleDecision::Hold);
    }

    #[test]
    fn warming_replicas_block_scale_down() {
        let p = ScalingPolicy::reactive_default();
        let mut s = signals(0.0, 4, 0.1, 1.0);
        s.provisioned = 5; // one replica still warming
        assert_eq!(p.decide(&s, 1, 8), ScaleDecision::Hold);
    }

    #[test]
    fn target_utilization_tracks_the_ratio() {
        let p = ScalingPolicy::TargetUtilization { target: 0.5, cooldown_windows: 0 };
        // 4 ready at 80% -> desired ceil(4*0.8/0.5) = 7.
        assert_eq!(p.decide(&signals(0.0, 4, 0.8, 1.0), 1, 16), ScaleDecision::Up(3));
        // 4 ready at 10% -> desired 1, but down steps by one.
        assert_eq!(p.decide(&signals(0.0, 4, 0.1, 1.0), 1, 16), ScaleDecision::Down(1));
        // On target: hold.
        assert_eq!(p.decide(&signals(0.0, 4, 0.5, 1.0), 1, 16), ScaleDecision::Hold);
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
    fn validation_rejects_inverted_hysteresis_and_bad_targets() {
        let bad = ScalingPolicy::ReactiveThreshold {
            up_queue_per_replica: 1.0,
            down_queue_per_replica: 2.0,
            up_utilization: 0.6,
            down_utilization: 0.3,
            attainment_floor: 0.9,
            step: 1,
            cooldown_windows: 1,
        };
        assert!(bad.validate().is_err());
        let bad_util = ScalingPolicy::ReactiveThreshold {
            up_queue_per_replica: 2.0,
            down_queue_per_replica: 1.0,
            up_utilization: 0.3,
            down_utilization: 0.6,
            attainment_floor: 0.9,
            step: 1,
            cooldown_windows: 1,
        };
        assert!(bad_util.validate().is_err());
        assert!(ScalingPolicy::TargetUtilization { target: 1.5, cooldown_windows: 0 }
            .validate()
            .is_err());
        assert!(ScalingPolicy::Static { n: 0 }.validate().is_err());
        assert!(ScalingPolicy::reactive_default().validate().is_ok());
        assert!(ScalingPolicy::target_utilization_default().validate().is_ok());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ScalingPolicy::Static { n: 4 }.to_string(), "static-4");
        assert_eq!(ScalingPolicy::reactive_default().to_string(), "reactive");
        assert_eq!(
            ScalingPolicy::target_utilization_default().to_string(),
            "target-util-45%"
        );
    }
}
