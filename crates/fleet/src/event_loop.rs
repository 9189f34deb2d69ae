//! The fleet's global time-ordered event loop — the one way a
//! [`Fleet`] runs.
//!
//! This module hosts the N replicas as engine actors
//! ([`seesaw_engine::EngineActor`]) on one global clock. The arrivals
//! are the only events and come sorted, so the loop walks them in
//! index order: each advances the clock to its instant, routes the
//! request through [`Router::route`] and pushes it to the chosen
//! actor. Live policies (`jsq-live`, `least-work-live`) first read
//! each replica's exact measured state there — the actors keep running
//! on the global clock, so each replica is simulated once rather than
//! re-run from t=0 — while estimated policies decide from the router's
//! virtual queues and never query the actors. Decisions are serial in
//! arrival order, so runs are deterministic and runner-invariant;
//! finishing the actors — the final per-replica simulations —
//! parallelizes on the [`SweepRunner`].
//!
//! For estimated policies the result equals the merged-timeline
//! construction (route the whole stream, split it per replica, run
//! each replica's engine on its stream, merge), which
//! `tests/event_core.rs` keeps as the oracle.

use crate::fleet::Fleet;
use crate::report::FleetReport;
use crate::router::Router;
use crate::router::RouterPolicy;
use crate::telemetry::{record_request_spans, register_tracks, route_args};
use seesaw_engine::driver::assert_arrivals_sorted;
use seesaw_engine::{finish_all, EngineActor, SweepRunner};
use seesaw_telemetry::{Instrument, ROUTER_TRACK};
use seesaw_workload::Request;

impl Fleet {
    /// [`Fleet::run_with`] with a telemetry [`Instrument`]: route
    /// decisions (and the measured or estimated state each one saw)
    /// are recorded as instants on the router track while the loop
    /// runs; request lifecycle spans and registry metrics are filled
    /// in from the finished report. With `Instrument::off()` this
    /// *is* `run_with` — every recording site is a branch on a false
    /// bool, so disabled output is byte-identical (enforced by tests).
    pub fn run_instrumented_with(
        &self,
        runner: &SweepRunner,
        policy: RouterPolicy,
        requests: &[Request],
        instr: &mut Instrument,
    ) -> FleetReport {
        assert_arrivals_sorted(requests);
        let telemetry = instr.telemetry_on();
        let n = self.replicas.len();
        let rates = self.routing_rates(policy, requests);
        let est = |replica: usize, req: &Request| {
            rates.get(replica).map_or(1.0, |r| r.est_service_s(req))
        };
        let live_routing = policy.needs_live_state();
        let mut router = Router::new(policy, n);
        // One actor per replica, fed its requests as they are routed.
        // Only live policies read their state; finishing them yields
        // the replica reports under every policy.
        let mut actors: Vec<Box<dyn EngineActor + '_>> =
            self.replicas.iter().map(|r| r.actor(0.0)).collect();
        let all: Vec<usize> = (0..n).collect();
        if telemetry {
            register_tracks(&mut instr.recorder, &format!("router ({policy})"), &self.labels());
        }
        let mut assignment = vec![0u32; requests.len()];
        for (idx, req) in requests.iter().enumerate() {
            let now = req.arrival_s;
            // Measured state of every replica at this instant —
            // queried serially in replica order for determinism.
            let live: Vec<(usize, f64)> = if live_routing {
                actors.iter_mut().map(|a| policy.read_live(a.as_mut(), now)).collect()
            } else {
                Vec::new()
            };
            let routed = router
                .route(req, &all, &live, est)
                .expect("every replica of a fixed fleet is eligible");
            assignment[idx] = routed.replica as u32;
            if telemetry {
                // The state this decision saw: measured for live
                // policies, the router's virtual queue otherwise.
                let (depth, work_s) = if live_routing {
                    live[routed.replica]
                } else {
                    router.queue_state(now)[routed.replica]
                };
                instr.recorder.instant(
                    ROUTER_TRACK,
                    &format!("route {} -> r{}", req.id, routed.replica),
                    now,
                    &route_args(depth, work_s, routed.est_wait_s, live_routing),
                );
                instr
                    .metrics
                    .counter_add(&format!("fleet.route.{policy}.replica{}", routed.replica), 1);
                instr.metrics.observe("fleet.route.est_wait_s", routed.est_wait_s);
            }
            actors[routed.replica].push(*req);
        }
        if telemetry {
            // Every arrival is one routing event.
            let routed = requests.len() as u64;
            instr.metrics.counter_add("fleet.events.pushed", routed);
            instr.metrics.counter_add("fleet.events.popped", routed);
            // Projections (and the requests they re-simulated) behind
            // the live reads: zero under `jsq-live`.
            let (projections, reprojected) = actors
                .iter()
                .map(|a| a.projection_counts())
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
            instr.metrics.counter_add("fleet.replay.count", projections);
            instr.metrics.counter_add("fleet.replay.requests", reprojected);
        }
        let reports = finish_all(runner, actors);
        let report = FleetReport::from_replica_reports(policy, reports, assignment);
        if telemetry {
            record_request_spans(&mut instr.recorder, &report);
            for (i, rep) in report.replicas.iter().enumerate() {
                instr
                    .metrics
                    .counter_add(&format!("fleet.requests.replica{i}"), rep.stats.requests as u64);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::{OnlineEngine, SchedulingPolicy};
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use seesaw_workload::{ArrivalDist, WorkloadGen};
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
