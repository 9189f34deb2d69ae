//! Live-state reads of a replica, and the prefix-replay actor.
//!
//! The fleet tier's global event loop needs, at each arrival instant,
//! the *actual* state of every replica — live queue depth and
//! remaining in-flight work — not the router's virtual-queue
//! estimate. Engines in this crate are **causal**: admission gates on
//! `Request::arrival_s`, so an engine's trajectory up to time `t`
//! depends only on the requests that arrived at or before `t`.
//! Replaying the engine over the prefix of its assigned stream
//! therefore reproduces its live state at any `t` up to the next
//! assignment *exactly* — same rounds, same batches, same clock.
//!
//! [`EngineStepper`] is that replay packaged as an
//! [`EngineActor`]: the replay report is memoized and only
//! invalidated when the replica receives another request. Every
//! state query after a push re-simulates the whole assigned prefix,
//! so a stream of `n` arrivals over `N` replicas costs `O((n/N)^2)`
//! replica-rounds per replica. It is the default
//! [`OnlineEngine::actor`] — kept for engines whose `run` is not
//! causal (disaggregation picks its split from the whole stream) and
//! as the test oracle for the resumable actors of the vLLM and Seesaw
//! engines ([`crate::actor`]), which simulate each replica once.

use crate::actor::{Depth, EngineActor};
use crate::online::OnlineEngine;
use crate::report::EngineReport;
use seesaw_workload::Request;

/// A replica's observable state at one instant, read from a run
/// report of its assigned stream (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveState {
    /// Requests that have arrived but not yet produced a first token.
    pub waiting: usize,
    /// Requests past their first token but not yet complete.
    pub running: usize,
    /// Total unfinished requests (`waiting + running`) — the live
    /// analogue of the router's virtual queue depth.
    pub queue_depth: usize,
    /// Summed remaining wall-clock seconds of all unfinished
    /// requests — the live analogue of the router's estimated work.
    /// Forward-looking: measured against the replayed completion
    /// times, i.e. the work remaining *if no further requests join
    /// this replica* (future assignments add batch contention and can
    /// stretch in-flight completions). The backward-looking counts
    /// (`waiting`/`running`/`queue_depth`) are exact regardless.
    pub work_s: f64,
}

impl LiveState {
    /// The backward-looking counts alone.
    pub fn depth(&self) -> Depth {
        Depth {
            waiting: self.waiting,
            running: self.running,
            queue_depth: self.queue_depth,
        }
    }
}

/// Observable state of a finished (or replayed) engine run at time
/// `t`: which timeline entries are waiting, running, or done, and how
/// much wall-clock work remains. Entries arriving after `t` are
/// ignored, so passing a full-run report queries any instant of it.
pub fn live_state(report: &EngineReport, t: f64) -> LiveState {
    let mut waiting = 0usize;
    let mut running = 0usize;
    let mut work_s = 0.0f64;
    for entry in &report.timeline {
        if entry.arrival_s > t || entry.completion_s <= t {
            continue;
        }
        if entry.first_token_s <= t {
            running += 1;
        } else {
            waiting += 1;
        }
        work_s += entry.completion_s - t;
    }
    LiveState {
        waiting,
        running,
        queue_depth: waiting + running,
        work_s,
    }
}

/// Step-wise wrapper over one replica: accepts routed requests one at
/// a time and answers exact live-state queries between pushes by
/// replaying the assigned prefix.
///
/// The stepper owns the replica's assigned sub-stream. Queries are
/// exact for any `t` at or after the last pushed arrival (causality:
/// no request pushed later can have arrived by then — pushes are
/// arrival-ordered); an earlier `t` panics.
pub struct EngineStepper<'a, E: ?Sized = dyn OnlineEngine> {
    engine: &'a E,
    ready_s: f64,
    assigned: Vec<Request>,
    cache: Option<EngineReport>,
    replays: u64,
    replayed_requests: u64,
}

impl<'a, E: OnlineEngine + ?Sized> EngineStepper<'a, E> {
    /// A stepper for a replica that becomes ready (weights loaded) at
    /// `ready_s` — `0.0` for an always-warm replica.
    pub fn new(engine: &'a E, ready_s: f64) -> Self {
        assert!(
            ready_s.is_finite() && ready_s >= 0.0,
            "replica ready time must be finite and non-negative, got {ready_s}"
        );
        EngineStepper {
            engine,
            ready_s,
            assigned: Vec::new(),
            cache: None,
            replays: 0,
            replayed_requests: 0,
        }
    }

    /// Assign `req` to this replica. Arrivals must be nondecreasing
    /// across pushes (the global event loop pops in time order).
    pub fn push(&mut self, req: Request) {
        if let Some(last) = self.assigned.last() {
            assert!(
                req.arrival_s >= last.arrival_s,
                "stepper pushes must be arrival-ordered: {} after {}",
                req.arrival_s,
                last.arrival_s
            );
        }
        self.assigned.push(req);
        self.cache = None;
    }

    fn report(&mut self) -> &EngineReport {
        if self.cache.is_none() {
            self.replays += 1;
            self.replayed_requests += self.assigned.len() as u64;
            self.cache = Some(self.engine.run_ready(&self.assigned, self.ready_s));
        }
        self.cache.as_ref().expect("cache was just filled")
    }

    /// Exact live state at `t`, which must be at or after the last
    /// pushed arrival. Memoized: repeated queries between pushes
    /// re-simulate nothing.
    pub fn state_at(&mut self, t: f64) -> LiveState {
        if let Some(last) = self.assigned.last() {
            assert!(
                t >= last.arrival_s,
                "state query at {t} precedes the last assignment at {}",
                last.arrival_s
            );
        }
        live_state(self.report(), t)
    }

    /// Run the assigned stream to completion and return the final
    /// report (the memoized replay if one is current).
    pub fn finish(mut self) -> EngineReport {
        self.report();
        self.cache.take().expect("report() fills the cache")
    }
}

impl<E: OnlineEngine + ?Sized> EngineActor for EngineStepper<'_, E> {
    fn push(&mut self, req: Request) {
        EngineStepper::push(self, req);
    }

    fn depth_at(&mut self, t: f64) -> Depth {
        self.state_at(t).depth()
    }

    fn projected(&mut self) -> &EngineReport {
        self.report()
    }

    /// Each cache refill is one projection: a `run_ready` over the
    /// whole assigned prefix.
    fn projection_counts(&self) -> (u64, u64) {
        (self.replays, self.replayed_requests)
    }

    fn finish(self: Box<Self>) -> EngineReport {
        EngineStepper::finish(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vllm::VllmEngine;
    use crate::SchedulingPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use std::sync::Arc;

    fn engine() -> VllmEngine {
        VllmEngine::new(
            Arc::new(ClusterSpec::a10x4()),
            Arc::new(presets::llama2_13b()),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .expect("valid config")
    }

    fn reqs(n: usize, gap_s: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(i as u64, 256, 16).with_arrival(i as f64 * gap_s))
            .collect()
    }

    #[test]
    fn live_state_counts_match_timeline() {
        let eng = engine();
        let stream = reqs(6, 0.05);
        let report = eng.run(&stream);
        // Before anything arrives: empty.
        let s = live_state(&report, -1.0);
        assert_eq!((s.waiting, s.running, s.queue_depth), (0, 0, 0));
        assert_eq!(s.work_s, 0.0);
        // After everything completes: empty.
        let end = report
            .timeline
            .iter()
            .map(|t| t.completion_s)
            .fold(0.0f64, f64::max);
        let s = live_state(&report, end + 1.0);
        assert_eq!(s.queue_depth, 0);
        // Mid-run at the last arrival: depth counts exactly the
        // unfinished arrived requests, and work is their remaining
        // completion mass.
        let t = 5.0 * 0.05;
        let s = live_state(&report, t);
        let expect: Vec<_> = report
            .timeline
            .iter()
            .filter(|e| e.arrival_s <= t && e.completion_s > t)
            .collect();
        assert_eq!(s.queue_depth, expect.len());
        let work: f64 = expect.iter().map(|e| e.completion_s - t).sum();
        assert!((s.work_s - work).abs() < 1e-9);
    }

    #[test]
    fn stepper_replay_is_exact_prefix_of_full_run() {
        let eng = engine();
        let stream = reqs(5, 0.2);
        // A full run of the whole stream...
        let full = eng.run(&stream);
        // ...agrees with the stepper's replay at every arrival
        // instant (causality: engine decisions at or before `t` see
        // only arrivals at or before `t`, so the backward-looking
        // counts — arrived, first-token'd, completed — coincide).
        let mut stepper = EngineStepper::new(&eng, 0.0);
        for req in &stream {
            stepper.push(*req);
            let now = stepper.state_at(req.arrival_s);
            let reference = live_state(&full, req.arrival_s);
            assert_eq!(now.queue_depth, reference.queue_depth);
            assert_eq!(now.waiting, reference.waiting);
            assert_eq!(now.running, reference.running);
            assert!(now.work_s > 0.0, "the just-arrived request is unfinished");
        }
        let finished = stepper.finish();
        assert_eq!(finished, full, "stepper over the full stream is the full run");
    }

    #[test]
    fn idle_queries_between_pushes_hit_the_cache() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(0.0));
        let a = stepper.state_at(0.5);
        let b = stepper.state_at(0.5);
        assert_eq!(a, b);
        assert!(stepper.cache.is_some(), "state queries memoize the replay");
        assert_eq!(stepper.projection_counts(), (1, 1), "one refill, one request replayed");
        stepper.push(Request::new(1, 128, 8).with_arrival(1.0));
        stepper.state_at(1.0);
        assert_eq!(stepper.projection_counts(), (2, 3), "second refill replays both requests");
    }

    #[test]
    fn warming_replica_queues_until_ready() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 10.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(1.0));
        let s = stepper.state_at(1.0);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.running, 0, "nothing runs before ready_s");
        let done = stepper.finish();
        assert!(done.timeline[0].first_token_s >= 10.0);
        assert_eq!(done.timeline[0].arrival_s, 1.0, "true arrival preserved");
    }

    #[test]
    #[should_panic(expected = "precedes the last assignment")]
    fn query_before_last_push_rejected() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(2.0));
        stepper.state_at(1.0);
    }

    #[test]
    #[should_panic(expected = "arrival-ordered")]
    fn out_of_order_push_rejected() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(2.0));
        stepper.push(Request::new(1, 128, 8).with_arrival(1.0));
    }
}
