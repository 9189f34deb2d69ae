//! Fleet event-core checks: on every feedback-free policy the global
//! event loop must reproduce a merged-timeline oracle byte-for-byte
//! (route the whole stream up front, split it, run each replica
//! alone, merge), and the live policies must be deterministic and
//! jobs-invariant over arbitrary traces.

use proptest::prelude::*;
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::online::mean_lengths;
use seesaw_engine::{EngineReport, OnlineEngine, SchedulingPolicy, ServiceRates, SweepRunner};
use seesaw_fleet::{Fleet, FleetReport, Router, RouterPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::ParallelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{split_stream, ArrivalDist, Request, WorkloadGen};
use std::sync::Arc;

fn specs() -> (Arc<ClusterSpec>, Arc<ModelConfig>) {
    (Arc::new(ClusterSpec::a10x4()), Arc::new(presets::llama2_13b()))
}

fn vllm_engine() -> VllmEngine {
    let (cluster, model) = specs();
    VllmEngine::new(cluster, model, ParallelConfig::new(1, 2, 2), SchedulingPolicy::PrefillPrioritized)
        .expect("valid config")
}

fn vllm_fleet(n: usize) -> Fleet {
    Fleet::homogeneous(n, |_| Box::new(vllm_engine()) as Box<dyn OnlineEngine>)
}

/// The merged-timeline oracle for an `n`-replica vLLM fleet under an
/// estimated policy: estimated decisions never read engine state, so
/// the whole stream can be routed up front by a fresh [`Router`] over
/// all replicas, split per replica, run through each replica's engine
/// independently, and merged.
fn merged_timeline(
    runner: &SweepRunner,
    n: usize,
    policy: RouterPolicy,
    reqs: &[Request],
) -> FleetReport {
    let engine = vllm_engine();
    let (avg_in, avg_out) = mean_lengths(reqs);
    let rates = OnlineEngine::service_rates(&engine, avg_in, avg_out);
    let mut router = Router::new(policy, n);
    let all: Vec<usize> = (0..n).collect();
    let assignment: Vec<u32> = reqs
        .iter()
        .map(|r| {
            router
                .route(r, &all, &[], |_, r| rates.est_service_s(r))
                .expect("every replica eligible")
                .replica as u32
        })
        .collect();
    let streams = split_stream(reqs, &assignment, n);
    let reports = runner.map(&streams, |s| engine.run(s));
    FleetReport::from_replica_reports(policy, reports, assignment)
}

/// A vLLM replica behind the default actor, which replays the
/// assigned prefix on every read.
struct Replayed(VllmEngine);

impl OnlineEngine for Replayed {
    fn label(&self) -> String {
        self.0.label()
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        self.0.run(requests)
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        OnlineEngine::service_rates(&self.0, avg_in, avg_out)
    }
}

fn replayed_fleet(n: usize) -> Fleet {
    let (cluster, model) = specs();
    Fleet::homogeneous(n, |_| {
        Box::new(Replayed(
            VllmEngine::new(
                Arc::clone(&cluster),
                Arc::clone(&model),
                ParallelConfig::new(1, 2, 2),
                SchedulingPolicy::PrefillPrioritized,
            )
            .expect("valid config"),
        )) as Box<dyn OnlineEngine>
    })
}

fn online_reqs(n: usize, rate: f64, seed: u64) -> Vec<Request> {
    let base = WorkloadGen::sharegpt(seed).generate(n);
    ArrivalDist::Poisson { rate }
        .attach(&base, seed ^ seesaw_workload::ARRIVAL_SEED_SALT)
        .expect("valid arrivals")
}

/// For all four estimated-queue policies, on serial and 4-way
/// runners, the event loop must produce a `FleetReport`
/// byte-identical to the merged-timeline oracle — same assignments,
/// same per-replica reports, same merged aggregates.
fn assert_matches_merged_timeline(n: usize, reqs: &[Request]) {
    let fleet = vllm_fleet(n);
    for runner in [SweepRunner::serial(), SweepRunner::new(4)] {
        for policy in RouterPolicy::all_default() {
            assert!(!policy.needs_live_state(), "{policy} is estimated");
            let looped = fleet.run_with(&runner, policy, reqs);
            let oracle = merged_timeline(&runner, n, policy, reqs);
            assert_eq!(looped, oracle, "{policy}: event loop diverged from the oracle");
        }
    }
}

#[test]
fn event_loop_matches_merged_timeline_for_every_estimated_policy() {
    assert_matches_merged_timeline(3, &online_reqs(36, 5.0, 17));
}

/// Burstier arrivals (Gamma, cv 2.5) on a wider fleet.
#[test]
fn event_loop_matches_merged_timeline_under_bursty_load() {
    let base = WorkloadGen::constant(768, 32).generate(28);
    let reqs = ArrivalDist::Gamma { rate: 9.0, cv: 2.5 }
        .attach(&base, 23)
        .expect("valid arrivals");
    assert_matches_merged_timeline(4, &reqs);
}

/// Live reads cost only what the policy reads. On a 4-replica live
/// fleet, `jsq-live` routes on depths without a single projection,
/// and `least-work-live` re-simulates fewer requests than replaying
/// every replica's prefix did — while both route exactly as the
/// prefix-replay actors do.
#[test]
fn live_reads_project_only_where_work_is_read() {
    let reqs = online_reqs(48, 8.0, 5);
    let run = |fleet: &Fleet, policy| {
        let mut instr = Instrument::tracing();
        let report =
            fleet.run_instrumented_with(&SweepRunner::serial(), policy, &reqs, &mut instr);
        let counts = (
            instr.metrics.counter("fleet.replay.count"),
            instr.metrics.counter("fleet.replay.requests"),
        );
        (report, counts)
    };
    let (actors, replay) = (vllm_fleet(4), replayed_fleet(4));

    let (report, counts) = run(&actors, RouterPolicy::JoinShortestQueueLive);
    assert_eq!(counts, (0, 0), "jsq-live reads depths without projecting");
    let (replayed, replay_counts) = run(&replay, RouterPolicy::JoinShortestQueueLive);
    assert_eq!(report, replayed, "jsq-live: actors route exactly as prefix replay");
    assert!(replay_counts.1 > 0, "the prefix-replay actor replays on every read");

    let (report, (projections, reprojected)) = run(&actors, RouterPolicy::LeastWorkLive);
    let (replayed, (_, replayed_requests)) = run(&replay, RouterPolicy::LeastWorkLive);
    assert_eq!(report, replayed, "least-work-live: actors route exactly as prefix replay");
    assert!(projections > 0, "least-work-live reads projected work");
    assert!(
        reprojected < replayed_requests,
        "projections re-simulate {reprojected} requests, prefix replay {replayed_requests}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live policies on the global event loop are deterministic and
    /// jobs-invariant over random traces: serial and 4-job runs give
    /// the same report, twice over.
    #[test]
    fn live_policies_are_jobs_invariant_on_random_traces(
        n in 4usize..28,
        n_replicas in 2usize..5,
        seed in 0u64..200,
        rate in 1.0f64..16.0,
        live_idx in 0usize..2,
    ) {
        let base: Vec<Request> =
            (0..n).map(|i| Request::new(i as u64, 256, 12)).collect();
        let reqs = ArrivalDist::Poisson { rate }.attach(&base, seed).expect("valid");
        let policy = RouterPolicy::all_live()[live_idx];
        let fleet = vllm_fleet(n_replicas);
        let serial = fleet.run_with(&SweepRunner::serial(), policy, &reqs);
        let parallel = fleet.run_with(&SweepRunner::new(4), policy, &reqs);
        prop_assert_eq!(&serial, &parallel, "{} diverged across job counts", policy);
        let again = fleet.run_with(&SweepRunner::new(4), policy, &reqs);
        prop_assert_eq!(&parallel, &again, "{} is not deterministic", policy);
        prop_assert_eq!(serial.stats.requests, n);
    }
}
