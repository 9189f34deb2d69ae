//! The one dispatch step under every fleet loop: at an arrival, read
//! the replicas' live state, route, record the route instant, note the
//! assignment and push the request to the chosen replica's engine
//! actor; at the end, finish the actors. The fixed [`crate::Fleet`] and
//! the autoscale controller's elastic replay both take it through
//! [`Dispatch`], each recording its own metrics around it.
//!
//! The actors run on the loop's clock, so live policies (`jsq-live`,
//! `least-work-live`) read each replica's exact measured state without
//! re-running it from t=0; estimated policies decide from the router's
//! virtual queues and never query the actors. Decisions are serial in
//! arrival order, so runs are deterministic; finishing the actors
//! parallelizes on the [`SweepRunner`].

use crate::router::{Routed, Router, RouterPolicy};
use crate::telemetry::route_args;
use seesaw_engine::{finish_all, EngineActor, EngineReport, SweepRunner};
use seesaw_telemetry::{Recorder, ROUTER_TRACK};
use seesaw_workload::Request;

/// Replicas as engine actors behind one [`Router`], and the replica
/// each request was routed to. A slot empties when its replica is
/// killed ([`Dispatch::take`]) or finished ([`Dispatch::finish`]).
pub struct Dispatch<'e> {
    policy: RouterPolicy,
    router: Router,
    actors: Vec<Option<Box<dyn EngineActor + 'e>>>,
    assignment: Vec<u32>,
}

impl<'e> Dispatch<'e> {
    /// Route a stream of `n_requests` requests under `policy` over
    /// `actors` (at least one), replica `i` being `actors[i]`.
    pub fn new(
        policy: RouterPolicy,
        actors: Vec<Box<dyn EngineActor + 'e>>,
        n_requests: usize,
    ) -> Self {
        Dispatch {
            policy,
            router: Router::new(policy, actors.len()),
            actors: actors.into_iter().map(Some).collect(),
            assignment: vec![0; n_requests],
        }
    }

    /// Spawn a replica mid-stream, returning its index.
    pub fn add(&mut self, actor: Box<dyn EngineActor + 'e>) -> usize {
        let idx = self.router.add_replica();
        debug_assert_eq!(idx, self.actors.len());
        self.actors.push(Some(actor));
        idx
    }

    /// Measured state of each `eligible` replica at `now`, in order,
    /// under a live policy ([`RouterPolicy::read_live`]); empty under
    /// an estimated one.
    pub fn read_live(&mut self, eligible: &[usize], now: f64) -> Vec<(usize, f64)> {
        if !self.policy.needs_live_state() {
            return Vec::new();
        }
        let policy = self.policy;
        eligible.iter().map(|&i| policy.read_live(self.actor(i), now)).collect()
    }

    /// Route `req`, the stream's request `idx`, among the non-empty
    /// `eligible` set ([`Router::route`]), note the assignment, record
    /// the route instant with the state the decision saw (measured, or
    /// the router's virtual queue), and push `req` to the chosen actor.
    pub fn route(
        &mut self,
        idx: usize,
        req: &Request,
        eligible: &[usize],
        live: &[(usize, f64)],
        est: impl Fn(usize, &Request) -> f64,
        rec: &mut Recorder,
    ) -> Routed {
        let routed = self.router.route(req, eligible, live, est).expect("an eligible replica");
        let i = routed.replica;
        self.assignment[idx] = i as u32;
        if rec.is_enabled() {
            let measured = self.policy.needs_live_state();
            let (depth, work_s) = if measured {
                live[eligible.binary_search(&i).expect("routed among the eligible replicas")]
            } else {
                self.router.queue_state(req.arrival_s)[i]
            };
            rec.instant(
                ROUTER_TRACK,
                &format!("route {} -> r{i}", req.id),
                req.arrival_s,
                &route_args(depth, work_s, routed.est_wait_s, measured),
            );
        }
        self.actor(i).push(*req);
        routed
    }

    /// Replica `i`'s running actor.
    pub fn actor(&mut self, i: usize) -> &mut (dyn EngineActor + 'e) {
        self.actors[i].as_deref_mut().expect("only running replicas are read")
    }

    /// Kill replica `i`: reset its virtual queue and hand its actor
    /// back, to be finished at the kill instant.
    pub fn take(&mut self, i: usize) -> Box<dyn EngineActor + 'e> {
        self.router.reset_replica(i);
        self.actors[i].take().expect("a replica is killed once")
    }

    /// [`Router::queue_state`] at `now`.
    pub fn queue_state(&mut self, now: f64) -> Vec<(usize, f64)> {
        self.router.queue_state(now)
    }

    /// `(projections, requests they re-simulated)` behind the live
    /// reads of the running actors: zero under `jsq-live`.
    pub fn projection_counts(&self) -> (u64, u64) {
        self.actors
            .iter()
            .flatten()
            .map(|a| a.projection_counts())
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    }

    /// Finish every running actor on `runner`: one report per replica
    /// (`None` for a killed one), and the assignment.
    pub fn finish(&mut self, runner: &SweepRunner) -> (Vec<Option<EngineReport>>, Vec<u32>) {
        let running: Vec<bool> = self.actors.iter().map(Option::is_some).collect();
        let actors = self.actors.iter_mut().filter_map(Option::take).collect();
        let mut finished = finish_all(runner, actors).into_iter();
        let reports = running
            .into_iter()
            .map(|r| r.then(|| finished.next().expect("one report per running actor")))
            .collect();
        (reports, std::mem::take(&mut self.assignment))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Fleet, RouterPolicy};
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use seesaw_workload::{ArrivalDist, Request, WorkloadGen};
    use std::sync::Arc;

    fn vllm_fleet(n: usize) -> Fleet {
        let cluster = Arc::new(ClusterSpec::a10x4());
        let model = Arc::new(presets::llama2_13b());
        Fleet::homogeneous(n, |_| {
            Box::new(
                VllmEngine::new(
                    Arc::clone(&cluster),
                    Arc::clone(&model),
                    ParallelConfig::new(1, 2, 2),
                    SchedulingPolicy::PrefillPrioritized,
                )
                .expect("valid config"),
            ) as Box<dyn OnlineEngine>
        })
    }

    fn online_reqs(n: usize, rate: f64) -> Vec<Request> {
        let base = WorkloadGen::constant(512, 24).generate(n);
        ArrivalDist::Poisson { rate }
            .attach(&base, 11)
            .expect("valid arrivals")
    }

    #[test]
    fn live_policies_serve_every_request_exactly_once() {
        let fleet = vllm_fleet(3);
        let reqs = online_reqs(24, 6.0);
        for policy in RouterPolicy::all_live() {
            let report = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            assert_eq!(report.stats.requests, 24, "{policy}");
            assert_eq!(report.timeline.len(), 24, "{policy}");
            let mut ids: Vec<u64> = report.timeline.iter().map(|t| t.id).collect();
            ids.dedup();
            assert_eq!(ids.len(), 24, "{policy}: every id exactly once");
            // Live routing actually spreads load.
            assert!(
                report.assignment.iter().any(|&r| r != report.assignment[0]),
                "{policy}: more than one replica used"
            );
        }
    }

    #[test]
    fn live_policies_are_runner_invariant() {
        let fleet = vllm_fleet(4);
        let reqs = online_reqs(20, 8.0);
        for policy in RouterPolicy::all_live() {
            let serial = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            let parallel = fleet.run_with(&SweepRunner::new(4), policy, &reqs);
            assert_eq!(serial, parallel, "{policy}");
        }
    }

    /// The loop reads arrival times as they are, so the fleet's
    /// arrival check must reject one that is not a finite,
    /// non-negative time, naming the request.
    #[test]
    fn invalid_arrival_times_are_rejected() {
        let fleet = vllm_fleet(2);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut reqs = online_reqs(6, 4.0);
            reqs[3].arrival_s = bad;
            let id = reqs[3].id;
            let policy = RouterPolicy::JoinShortestQueue;
            let run = || fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("an invalid arrival must panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(
                msg.contains(&format!("request {id} has arrival time {bad}s")),
                "{bad}: {msg}"
            );
        }
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let fleet = vllm_fleet(2);
        let report =
            fleet.run_with(&SweepRunner::serial(), RouterPolicy::JoinShortestQueueLive, &[]);
        assert_eq!(report.stats.requests, 0);
        assert!(report.latency.is_none());
    }
}
