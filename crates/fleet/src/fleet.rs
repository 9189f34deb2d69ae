//! The fixed fleet: N engine replicas served by one router, and its
//! run loop over the shared [`Dispatch`] step.

use crate::dispatch::Dispatch;
use crate::report::FleetReport;
use crate::router::RouterPolicy;
use crate::telemetry::{record_request_spans, register_tracks};
use seesaw_engine::driver::assert_arrivals_sorted;
use seesaw_engine::online::mean_lengths;
use seesaw_engine::{OnlineEngine, ServiceRates, SweepRunner};
use seesaw_telemetry::Instrument;
use seesaw_workload::Request;

/// N replicas of (possibly heterogeneous) engines behind a router.
///
/// A `Fleet` owns its replicas as [`OnlineEngine`] trait objects, so
/// Seesaw, vLLM, and disaggregated backends mix freely. Every run
/// walks the arrivals, sorted by time, in order and takes the
/// [`Dispatch`] step at each: route (see [`crate::router`]) and push
/// the request to its replica's actor; the actors then finish
/// concurrently on the given [`SweepRunner`], and
/// their per-replica timelines move into one merged timeline of a
/// [`FleetReport`] (which records the replica behind each entry) with
/// fleet-level percentiles and imbalance statistics.
pub struct Fleet {
    pub(crate) replicas: Vec<Box<dyn OnlineEngine>>,
    /// Whether every replica is known-identical (constructed via
    /// [`Fleet::homogeneous`]), letting fleet runs compute one
    /// service-rate estimate instead of N. A label comparison cannot
    /// substitute: labels name the parallel configuration, not the
    /// hardware, so two `"T2P2"` replicas may sit on different GPUs.
    pub(crate) homogeneous: bool,
}

impl Fleet {
    /// A fleet over explicit replicas (at least one), possibly
    /// heterogeneous — each replica's routing cost estimates are
    /// computed from its own engine. Panics on an empty vec; use
    /// [`Fleet::try_new`] to validate instead.
    pub fn new(replicas: Vec<Box<dyn OnlineEngine>>) -> Self {
        Self::try_new(replicas).expect("a fleet needs at least one replica")
    }

    /// [`Fleet::new`], rejecting an empty replica vec with an error
    /// instead of panicking — for callers assembling fleets from
    /// external configuration.
    pub fn try_new(replicas: Vec<Box<dyn OnlineEngine>>) -> Result<Self, String> {
        if replicas.is_empty() {
            return Err(String::from("a fleet needs at least one replica"));
        }
        Ok(Fleet { replicas, homogeneous: false })
    }

    /// A homogeneous fleet: `n` identical replicas built by `make`
    /// (`make` must return equivalently-configured engines — the
    /// fleet computes routing cost estimates once and shares them).
    /// Panics when `n == 0`; use [`Fleet::try_homogeneous`] to
    /// validate instead.
    pub fn homogeneous(n: usize, make: impl Fn(usize) -> Box<dyn OnlineEngine>) -> Self {
        Self::try_homogeneous(n, make).expect("a fleet needs at least one replica")
    }

    /// [`Fleet::homogeneous`], rejecting `n == 0` with an error
    /// instead of panicking.
    pub fn try_homogeneous(
        n: usize,
        make: impl Fn(usize) -> Box<dyn OnlineEngine>,
    ) -> Result<Self, String> {
        if n == 0 {
            return Err(String::from("a fleet needs at least one replica"));
        }
        Ok(Fleet {
            replicas: (0..n).map(make).collect(),
            homogeneous: true,
        })
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet has no replicas (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Replica configuration labels, in replica order.
    pub fn labels(&self) -> Vec<String> {
        self.replicas.iter().map(|r| r.label()).collect()
    }

    /// Serve `requests` (sorted by arrival) under `policy`, finishing
    /// the replica simulations on `runner`. Deterministic and
    /// runner-invariant: routing is serial in event order, replica
    /// runs are independent, and reports are collected in replica
    /// order. This is [`Fleet::run_instrumented_with`] with telemetry
    /// off.
    pub fn run_with(
        &self,
        runner: &SweepRunner,
        policy: RouterPolicy,
        requests: &[Request],
    ) -> FleetReport {
        self.run_instrumented_with(runner, policy, requests, &mut Instrument::off())
    }

    /// [`Fleet::run_with`] with a telemetry [`Instrument`]: route
    /// instants are recorded as the loop runs, request spans and
    /// registry metrics from the finished report. With
    /// `Instrument::off()` this *is* `run_with`, byte for byte. The
    /// arrivals come sorted, so the loop takes the [`Dispatch`] step
    /// at each in index order; under estimated policies the result is
    /// the merged-timeline oracle's (`tests/event_core.rs`).
    pub fn run_instrumented_with(
        &self,
        runner: &SweepRunner,
        policy: RouterPolicy,
        requests: &[Request],
        instr: &mut Instrument,
    ) -> FleetReport {
        assert_arrivals_sorted(requests);
        let telemetry = instr.telemetry_on();
        let rates = self.routing_rates(policy, requests);
        let est = |replica: usize, req: &Request| {
            rates.get(replica).map_or(1.0, |r| r.est_service_s(req))
        };
        let actors = self.replicas.iter().map(|r| r.actor(0.0)).collect();
        let mut dispatch = Dispatch::new(policy, actors, requests.len());
        let all: Vec<usize> = (0..self.replicas.len()).collect();
        if telemetry {
            register_tracks(&mut instr.recorder, &format!("router ({policy})"), &self.labels());
        }
        for (idx, req) in requests.iter().enumerate() {
            let live = dispatch.read_live(&all, req.arrival_s);
            let routed = dispatch.route(idx, req, &all, &live, est, &mut instr.recorder);
            if telemetry {
                instr
                    .metrics
                    .counter_add(&format!("fleet.route.{policy}.replica{}", routed.replica), 1);
                instr.metrics.observe("fleet.route.est_wait_s", routed.est_wait_s);
            }
        }
        if telemetry {
            // Every arrival is one routing event.
            let routed = requests.len() as u64;
            instr.metrics.counter_add("fleet.events.pushed", routed);
            instr.metrics.counter_add("fleet.events.popped", routed);
            let (projections, reprojected) = dispatch.projection_counts();
            instr.metrics.counter_add("fleet.replay.count", projections);
            instr.metrics.counter_add("fleet.replay.requests", reprojected);
        }
        let (reports, assignment) = dispatch.finish(runner);
        let reports = reports.into_iter().map(|r| r.expect("a fixed fleet loses no replica"));
        let report = FleetReport::from_replica_reports(policy, reports.collect(), assignment);
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

    /// Per-replica analytic service rates for routing under `policy`.
    /// Round-robin is load-oblivious — no service estimates needed,
    /// so the vec is empty. A known-homogeneous fleet computes one
    /// analytic rate and shares it (rates can be expensive: disagg
    /// re-runs its split search per call); heterogeneous fleets
    /// estimate per replica.
    pub(crate) fn routing_rates(
        &self,
        policy: RouterPolicy,
        requests: &[Request],
    ) -> Vec<ServiceRates> {
        let n = self.replicas.len();
        let (avg_in, avg_out) = mean_lengths(requests);
        if policy == RouterPolicy::RoundRobin {
            Vec::new()
        } else if self.homogeneous {
            vec![self.replicas[0].service_rates(avg_in, avg_out); n]
        } else {
            self.replicas
                .iter()
                .map(|r| r.service_rates(avg_in, avg_out))
                .collect()
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet").field("replicas", &self.labels()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::SchedulingPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::{presets, ModelConfig};
    use seesaw_parallel::ParallelConfig;
    use seesaw_workload::{split_stream, ArrivalDist, WorkloadGen};
    use std::sync::Arc;

    fn vllm_replica(
        cluster: &Arc<ClusterSpec>,
        model: &Arc<ModelConfig>,
    ) -> Box<dyn OnlineEngine> {
        Box::new(
            VllmEngine::new(
                Arc::clone(cluster),
                Arc::clone(model),
                ParallelConfig::new(1, 2, 2),
                SchedulingPolicy::PrefillPrioritized,
            )
            .expect("valid config"),
        )
    }

    fn small_fleet(n: usize) -> Fleet {
        let cluster = Arc::new(ClusterSpec::a10x4());
        let model = Arc::new(presets::llama2_13b());
        Fleet::homogeneous(n, |_| vllm_replica(&cluster, &model))
    }

    fn online_reqs(n: usize, rate: f64) -> Vec<Request> {
        let base = WorkloadGen::constant(512, 24).generate(n);
        ArrivalDist::Poisson { rate }
            .attach(&base, 7)
            .expect("valid arrivals")
    }

    #[test]
    fn every_request_served_exactly_once() {
        let fleet = small_fleet(3);
        let reqs = online_reqs(30, 5.0);
        let report = fleet.run_with(&SweepRunner::serial(), RouterPolicy::JoinShortestQueue, &reqs);
        assert_eq!(report.stats.requests, 30);
        assert_eq!(report.timeline.len(), 30);
        let mut ids: Vec<u64> = report.timeline.iter().map(|t| t.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 30, "every id exactly once");
        assert_eq!(report.assignment.len(), 30);
    }

    #[test]
    fn fleet_run_is_runner_invariant() {
        let fleet = small_fleet(4);
        let reqs = online_reqs(24, 8.0);
        for policy in RouterPolicy::all_default() {
            let serial = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            let parallel = fleet.run_with(&SweepRunner::new(4), policy, &reqs);
            assert_eq!(serial, parallel, "{policy}");
        }
    }

    #[test]
    fn off_instrument_reproduces_run_with_exactly() {
        let fleet = small_fleet(3);
        let reqs = online_reqs(18, 6.0);
        for policy in RouterPolicy::all_with_live() {
            let plain = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            let mut off = seesaw_telemetry::Instrument::off();
            let instrumented =
                fleet.run_instrumented_with(&SweepRunner::serial(), policy, &reqs, &mut off);
            assert_eq!(plain, instrumented, "{policy}: disabled telemetry is invisible");
            assert!(off.recorder.spans().is_empty());
            assert!(off.metrics.is_empty());
        }
    }

    #[test]
    fn instrumented_run_records_and_stays_jobs_invariant() {
        let fleet = small_fleet(3);
        let reqs = online_reqs(18, 6.0);
        for policy in [RouterPolicy::JoinShortestQueue, RouterPolicy::JoinShortestQueueLive] {
            let run = |runner: &SweepRunner| {
                let mut instr = seesaw_telemetry::Instrument::tracing();
                let report = fleet.run_instrumented_with(runner, policy, &reqs, &mut instr);
                (report, seesaw_telemetry::perfetto::render(&instr.recorder, "fleet"),
                 instr.metrics.render_json())
            };
            let (r1, t1, m1) = run(&SweepRunner::serial());
            let (r4, t4, m4) = run(&SweepRunner::new(4));
            assert_eq!(r1, r4, "{policy}");
            assert_eq!(t1, t4, "{policy}: trace bytes are jobs-invariant");
            assert_eq!(m1, m4, "{policy}: metric bytes are jobs-invariant");
            assert!(t1.contains("\"ph\":\"X\""), "{policy}: request spans present");
            assert!(t1.contains("route "), "{policy}: route instants present");
            // Recording only observes: the report matches the
            // uninstrumented run.
            assert_eq!(r1, fleet.run_with(&SweepRunner::serial(), policy, &reqs), "{policy}");
        }
    }

    /// Each replica's report, busy totals included, is what a plain run
    /// of the stream routed to it reports, however it was routed; its
    /// timeline is the fleet's entries served by that replica.
    #[test]
    fn breakdown_matches_untraced_report_and_fills_buckets() {
        let fleet = small_fleet(2);
        let reqs = online_reqs(12, 5.0);
        for policy in RouterPolicy::all_with_live() {
            let report = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            let streams = split_stream(&reqs, &report.assignment, 2);
            for (i, replica) in report.replicas.iter().enumerate() {
                let (mut rerun, totals) = fleet.replicas[i].run_traced(&streams[i]);
                let own: Vec<_> = report.replica_timeline(i).copied().collect();
                assert_eq!(own, std::mem::take(&mut rerun.timeline), "{policy}: replica {i}");
                assert_eq!(replica, &rerun, "{policy}: replica {i}");
                assert_eq!(replica.busy_by_kind, totals, "{policy}: replica {i}");
                assert!(totals.compute > 0.0, "{policy}: replica {i} ran compute");
            }
        }
    }

    /// A fleet keeps each request's timing once: the replicas' own
    /// timelines are empty, and `served_by` splits the merged timeline
    /// into the requests each replica was assigned.
    #[test]
    fn replica_timelines_are_empty_and_served_by_partitions_the_merged_one() {
        let fleet = small_fleet(3);
        let reqs = online_reqs(30, 6.0);
        for policy in RouterPolicy::all_with_live() {
            let report = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
            assert_eq!(report.served_by.len(), report.timeline.len(), "{policy}");
            let streams = split_stream(&reqs, &report.assignment, 3);
            for (i, replica) in report.replicas.iter().enumerate() {
                assert!(replica.timeline.is_empty(), "{policy}: replica {i}");
                let ids: Vec<u64> = report.replica_timeline(i).map(|t| t.id).collect();
                let routed: Vec<u64> = streams[i].iter().map(|r| r.id).collect();
                assert_eq!(ids, routed, "{policy}: replica {i}");
                assert_eq!(ids.len(), replica.stats.requests, "{policy}: replica {i}");
            }
            let per_replica: usize = (0..3).map(|i| report.replica_timeline(i).count()).sum();
            assert_eq!(per_replica, report.timeline.len(), "{policy}: every entry once");
        }
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let fleet = small_fleet(2);
        let report = fleet.run_with(&SweepRunner::serial(), RouterPolicy::RoundRobin, &[]);
        assert_eq!(report.stats.requests, 0);
        assert!(report.latency.is_none());
    }

    #[test]
    fn empty_fleet_rejected_up_front() {
        assert!(Fleet::try_new(Vec::new()).is_err());
        assert!(Fleet::try_homogeneous(0, |_| unreachable!("never built")).is_err());
        let cluster = Arc::new(ClusterSpec::a10x4());
        let model = Arc::new(presets::llama2_13b());
        assert_eq!(
            Fleet::try_new(vec![vllm_replica(&cluster, &model)])
                .expect("one replica is a fleet")
                .len(),
            1
        );
        assert_eq!(
            Fleet::try_homogeneous(2, |_| vllm_replica(&cluster, &model))
                .expect("two replicas are a fleet")
                .len(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_panics_with_message() {
        Fleet::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_homogeneous_panics_with_message() {
        Fleet::homogeneous(0, |_| unreachable!("never built"));
    }
}
