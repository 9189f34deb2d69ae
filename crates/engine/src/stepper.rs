//! The prefix-replay actor.
//!
//! A live router needs, at each arrival instant, the *actual* state of
//! every replica — live queue depth and remaining in-flight work — not
//! its own virtual-queue estimate. Engines in this crate are
//! **causal**: admission gates on `Request::arrival_s`, so an engine's
//! trajectory up to time `t` depends only on the requests that arrived
//! at or before `t`. Replaying the engine over the prefix of its
//! assigned stream therefore reproduces its live state at any `t` up to
//! the next assignment *exactly* — same rounds, same batches, same
//! clock.
//!
//! [`EngineStepper`] is that replay packaged as an [`EngineActor`]:
//! `depth_at` and `work_at` read the entries of the replay's timeline
//! unfinished at `t`, and the replay is memoized until the replica
//! receives another request. Every read after a push re-simulates the
//! whole assigned prefix, so a stream of `n` arrivals over `N` replicas
//! costs `O((n/N)^2)` replica-rounds per replica. It is the default
//! [`OnlineEngine::actor`] — kept for engines whose `run` is not causal
//! (disaggregation picks its split from the whole stream) and as the
//! test oracle for the resumable actors of the vLLM and Seesaw engines
//! ([`crate::actor`]), which simulate each replica once.

use crate::actor::{Depth, EngineActor};
use crate::online::OnlineEngine;
use crate::report::EngineReport;
use seesaw_workload::{Request, RequestTiming};

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

    /// The replay's entries that have arrived by `t` and are not
    /// complete then; `t` must be at or after the last pushed arrival.
    fn unfinished_at(&mut self, t: f64) -> impl Iterator<Item = &RequestTiming> {
        if let Some(last) = self.assigned.last() {
            assert!(
                t >= last.arrival_s,
                "state query at {t} precedes the last assignment at {}",
                last.arrival_s
            );
        }
        let timeline = &self.report().timeline;
        timeline.iter().filter(move |e| e.arrival_s <= t && e.completion_s > t)
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
        let (mut waiting, mut running) = (0, 0);
        for e in self.unfinished_at(t) {
            if e.first_token_s <= t {
                running += 1;
            } else {
                waiting += 1;
            }
        }
        Depth { waiting, running, queue_depth: waiting + running }
    }

    fn work_at(&mut self, t: f64) -> f64 {
        self.unfinished_at(t).fold(0.0, |work, e| work + (e.completion_s - t))
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

    /// The counts of `report`'s entries unfinished at `t`, read
    /// straight from its timeline.
    fn timeline_depth(report: &EngineReport, t: f64) -> Depth {
        let unfinished = report.timeline.iter().filter(|e| e.arrival_s <= t && e.completion_s > t);
        let (mut waiting, mut running) = (0, 0);
        for e in unfinished {
            if e.first_token_s <= t {
                running += 1;
            } else {
                waiting += 1;
            }
        }
        Depth { waiting, running, queue_depth: waiting + running }
    }

    #[test]
    fn live_state_counts_match_timeline() {
        let eng = engine();
        let stream = reqs(6, 0.05);
        let report = eng.run(&stream);
        let end = report
            .timeline
            .iter()
            .map(|t| t.completion_s)
            .fold(0.0f64, f64::max);
        // Mid-run at the last arrival, depth counts exactly the
        // unfinished arrived requests and work is their remaining
        // completion mass; once everything completes, both are empty.
        for t in [5.0 * 0.05, end, end + 1.0] {
            let mut stepper = EngineStepper::new(&eng, 0.0);
            for r in &stream {
                stepper.push(*r);
            }
            let unfinished: Vec<_> =
                report.timeline.iter().filter(|e| e.completion_s > t).collect();
            let running = unfinished.iter().filter(|e| e.first_token_s <= t).count();
            let depth = Depth {
                waiting: unfinished.len() - running,
                running,
                queue_depth: unfinished.len(),
            };
            assert_eq!(stepper.depth_at(t), depth, "at {t}");
            assert_eq!(depth.queue_depth == 0, t >= end, "at {t}");
            let work: f64 = unfinished.iter().map(|e| e.completion_s - t).sum();
            assert!((stepper.work_at(t) - work).abs() < 1e-9, "at {t}");
        }
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
            let t = req.arrival_s;
            assert_eq!(stepper.depth_at(t), timeline_depth(&full, t));
            assert!(stepper.work_at(t) > 0.0, "the just-arrived request is unfinished");
        }
        let finished = stepper.finish();
        assert_eq!(finished, full, "stepper over the full stream is the full run");
    }

    #[test]
    fn idle_queries_between_pushes_hit_the_cache() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 0.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(0.0));
        let a = (stepper.depth_at(0.5), stepper.work_at(0.5));
        let b = (stepper.depth_at(0.5), stepper.work_at(0.5));
        assert_eq!(a, b);
        assert!(stepper.cache.is_some(), "state queries memoize the replay");
        assert_eq!(stepper.projection_counts(), (1, 1), "one refill, one request replayed");
        stepper.push(Request::new(1, 128, 8).with_arrival(1.0));
        stepper.work_at(1.0);
        assert_eq!(stepper.projection_counts(), (2, 3), "second refill replays both requests");
    }

    #[test]
    fn warming_replica_queues_until_ready() {
        let eng = engine();
        let mut stepper = EngineStepper::new(&eng, 10.0);
        stepper.push(Request::new(0, 128, 8).with_arrival(1.0));
        let s = stepper.depth_at(1.0);
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
        stepper.depth_at(1.0);
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
