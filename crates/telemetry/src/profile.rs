//! Controller self-profiling: wall-time attribution across the
//! autoscale controller's phases, answering the ROADMAP's "where do
//! the ~800 cells/s go" with data instead of guesses.
//!
//! This is *host* time (`std::time::Instant`), deliberately outside
//! the deterministic recorder: profiles ride beside reports, never
//! inside them, so report byte-identity is untouched.

/// Wall-time spent per controller phase, plus work counters that give
/// the times denominators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerProfile {
    /// Route-decision time: the dispatch loop minus live-state reads.
    pub routing_s: f64,
    /// Live-state reads: advancing the replicas' engine actors to the
    /// query instant, plus any projections behind the reads
    /// (dispatch-time queries, window-boundary depths), and finishing
    /// each killed replica's actor at its kill.
    pub replay_s: f64,
    /// Final engine simulations of the replicas still running once
    /// the trajectory is fixed (finishing their actors).
    pub engine_s: f64,
    /// Report assembly: retry fold-back, lifecycles, fleet merge,
    /// windowed metrics, availability accounting.
    pub metrics_s: f64,
    /// End-to-end controller wall time.
    pub total_s: f64,
    /// Windows processed.
    pub windows: usize,
    /// Requests dispatched (including retries).
    pub dispatches: u64,
    /// Events the controller loop handled: kills, base arrivals,
    /// retries and resumes.
    pub events: u64,
    /// Dispatches parked because every replica was dark while one was
    /// warming (each comes back as a resume event).
    pub parks: u64,
    /// Dispatches lost because every replica was dark and none was
    /// warming (each is retried or failed like killed work).
    pub lost_at_dispatch: u64,
    /// Projections behind live reads: an actor cloned and run to
    /// completion to read a forward-looking signal (remaining work, a
    /// kill's lost set). Depth reads never project; the default
    /// prefix-replay actor projects on every read after a push.
    pub replays: u64,
    /// Requests those projections re-simulated — the replay
    /// amplification numerator (`replayed_requests / dispatches` is
    /// how many times the average request is re-run besides its one
    /// simulation).
    pub replayed_requests: u64,
}

impl ControllerProfile {
    /// Sum of the four attributed phases.
    pub fn accounted_s(&self) -> f64 {
        self.routing_s + self.replay_s + self.engine_s + self.metrics_s
    }

    /// Fraction of total wall time the phases explain (1.0 when no
    /// time was measured — an unprofiled run has nothing unexplained).
    pub fn coverage(&self) -> f64 {
        if self.total_s <= 0.0 {
            1.0
        } else {
            self.accounted_s() / self.total_s
        }
    }

    /// Replay amplification: requests re-simulated by projections per
    /// dispatched request (0.0 when nothing dispatched).
    pub fn replay_amplification(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.replayed_requests as f64 / self.dispatches as f64
        }
    }

    /// Fold another profile in (for averaging across repeated runs).
    pub fn absorb(&mut self, other: &ControllerProfile) {
        self.routing_s += other.routing_s;
        self.replay_s += other.replay_s;
        self.engine_s += other.engine_s;
        self.metrics_s += other.metrics_s;
        self.total_s += other.total_s;
        self.windows += other.windows;
        self.dispatches += other.dispatches;
        self.events += other.events;
        self.parks += other.parks;
        self.lost_at_dispatch += other.lost_at_dispatch;
        self.replays += other.replays;
        self.replayed_requests += other.replayed_requests;
    }

    /// Human-readable attribution block (the `perf_report` rendering).
    pub fn render(&self) -> String {
        let pct = |s: f64| if self.total_s > 0.0 { 100.0 * s / self.total_s } else { 0.0 };
        let mut out = String::new();
        out.push_str(&format!(
            "controller phase attribution ({} windows, {} dispatches, {} events, {} parks, \
             {} lost at dispatch):\n",
            self.windows, self.dispatches, self.events, self.parks, self.lost_at_dispatch
        ));
        out.push_str(&format!(
            "  routing            {:>9.4}s  {:>5.1}%\n",
            self.routing_s,
            pct(self.routing_s)
        ));
        out.push_str(&format!(
            "  actor advancement  {:>9.4}s  {:>5.1}%  ({} projections, {:.1}x amplification)\n",
            self.replay_s,
            pct(self.replay_s),
            self.replays,
            self.replay_amplification()
        ));
        out.push_str(&format!(
            "  engine runs        {:>9.4}s  {:>5.1}%\n",
            self.engine_s,
            pct(self.engine_s)
        ));
        out.push_str(&format!(
            "  metrics            {:>9.4}s  {:>5.1}%\n",
            self.metrics_s,
            pct(self.metrics_s)
        ));
        out.push_str(&format!(
            "  accounted          {:>9.4}s  {:>5.1}% of {:.4}s total\n",
            self.accounted_s(),
            100.0 * self.coverage(),
            self.total_s
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_amplification() {
        let p = ControllerProfile {
            routing_s: 1.0,
            replay_s: 6.0,
            engine_s: 2.0,
            metrics_s: 0.5,
            total_s: 10.0,
            windows: 12,
            dispatches: 100,
            events: 130,
            parks: 20,
            lost_at_dispatch: 10,
            replays: 40,
            replayed_requests: 450,
        };
        assert!((p.accounted_s() - 9.5).abs() < 1e-12);
        assert!((p.coverage() - 0.95).abs() < 1e-12);
        assert!((p.replay_amplification() - 4.5).abs() < 1e-12);
        let text = p.render();
        assert!(text.contains("actor advancement"));
        assert!(text.contains("100 dispatches, 130 events, 20 parks, 10 lost at dispatch"));
        assert!(text.contains("95.0% of 10.0000s total"));
    }

    #[test]
    fn empty_profile_is_fully_covered() {
        let p = ControllerProfile::default();
        assert_eq!(p.coverage(), 1.0);
        assert_eq!(p.replay_amplification(), 0.0);
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = ControllerProfile { routing_s: 1.0, dispatches: 5, ..Default::default() };
        let b = ControllerProfile {
            routing_s: 2.0,
            dispatches: 7,
            windows: 3,
            events: 9,
            parks: 2,
            lost_at_dispatch: 1,
            ..Default::default()
        };
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.routing_s, 5.0);
        assert_eq!(a.dispatches, 19);
        assert_eq!((a.events, a.parks, a.lost_at_dispatch), (18, 4, 2));
        assert_eq!(a.windows, 6);
    }
}
