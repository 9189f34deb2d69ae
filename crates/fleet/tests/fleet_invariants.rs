//! Fleet-tier invariants: single-replica transparency (a fleet of
//! one is byte-identical to the bare engine), determinism across job
//! counts and backends, router-split sortedness under random traces,
//! and scale-out actually relieving overload.

use proptest::prelude::*;
use seesaw_engine::disagg::DisaggEngine;
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::{Fleet, Router, RouterPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{split_stream, ArrivalDist, Request, WorkloadGen};
use std::sync::Arc;

fn specs() -> (Arc<ClusterSpec>, Arc<ModelConfig>) {
    (Arc::new(ClusterSpec::a10x4()), Arc::new(presets::llama2_13b()))
}

fn vllm_engine(cluster: &Arc<ClusterSpec>, model: &Arc<ModelConfig>) -> VllmEngine {
    VllmEngine::new(
        Arc::clone(cluster),
        Arc::clone(model),
        ParallelConfig::new(1, 2, 2),
        SchedulingPolicy::PrefillPrioritized,
    )
    .expect("valid config")
}

fn online_reqs(n: usize, rate: f64, seed: u64) -> Vec<Request> {
    let base = WorkloadGen::sharegpt(seed).generate(n);
    ArrivalDist::Poisson { rate }
        .attach(&base, seed ^ seesaw_workload::ARRIVAL_SEED_SALT)
        .expect("valid arrivals")
}

fn seesaw_engine(cluster: &Arc<ClusterSpec>, model: &Arc<ModelConfig>) -> SeesawEngine {
    SeesawEngine::new(
        Arc::clone(cluster),
        Arc::clone(model),
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
    )
    .expect("valid spec")
}

/// A fleet of one behind round-robin is a transparent wrapper for
/// every backend (vLLM, Seesaw `P4->T4`, disagg): its only replica's
/// report is byte-identical to the bare engine run on the same stream
/// (its timeline moved into the fleet's), and the fleet-level
/// aggregates coincide with the engine's own. The replica runs as an
/// actor (disagg's replays prefixes), so each actor must finish
/// exactly like `run`; the `serving` bin's sweep relies on it.
#[test]
fn single_replica_round_robin_is_byte_identical_to_bare_engine() {
    let (cluster, model) = specs();
    let reqs = online_reqs(32, 3.0, 42);
    type Backend = fn(&Arc<ClusterSpec>, &Arc<ModelConfig>) -> Box<dyn OnlineEngine>;
    let backends: [Backend; 3] = [
        |c, m| Box::new(vllm_engine(c, m)),
        |c, m| Box::new(seesaw_engine(c, m)),
        |c, m| Box::new(DisaggEngine::new(Arc::clone(c), Arc::clone(m))),
    ];
    for build in backends {
        let mut bare = build(&cluster, &model).run(&reqs);
        let fleet = Fleet::new(vec![build(&cluster, &model)]);
        let report = fleet.run_with(&SweepRunner::serial(), RouterPolicy::RoundRobin, &reqs);
        let label = &bare.label;
        assert_eq!(report.replicas.len(), 1);
        assert_eq!(report.timeline, std::mem::take(&mut bare.timeline), "{label}");
        assert_eq!(report.replicas[0], bare, "fleet-of-one must not perturb {label}");
        assert_eq!(report.latency, bare.latency, "{label}");
        assert_eq!(report.stats, bare.stats, "{label}");
        assert!(report.assignment.iter().all(|&r| r == 0));
    }
}

/// Every routing policy produces an identical report on 1 vs 4 jobs,
/// for a heterogeneous (vLLM + Seesaw + disagg) fleet.
#[test]
fn heterogeneous_fleet_is_runner_invariant_under_every_policy() {
    let (cluster, model) = specs();
    let build = || -> Vec<Box<dyn OnlineEngine>> {
        vec![
            Box::new(vllm_engine(&cluster, &model)),
            Box::new(seesaw_engine(&cluster, &model)),
            Box::new(DisaggEngine::new(Arc::clone(&cluster), Arc::clone(&model))),
        ]
    };
    let reqs = online_reqs(24, 4.0, 7);
    for policy in RouterPolicy::all_default() {
        let serial = Fleet::new(build()).run_with(&SweepRunner::serial(), policy, &reqs);
        let parallel = Fleet::new(build()).run_with(&SweepRunner::new(4), policy, &reqs);
        assert_eq!(serial, parallel, "{policy} diverged across job counts");
        assert_eq!(serial.stats.requests, 24, "{policy} lost requests");
        // Three distinct backends, one merged timeline.
        assert_eq!(serial.replicas.len(), 3);
        assert_eq!(serial.timeline.len(), 24);
    }
}

/// Under heavy overload, spreading the same offered load over four
/// replicas must not degrade SLO attainment versus one replica — and
/// the overloaded single replica must be strictly worse than its
/// quarter-load per-replica counterpart.
#[test]
fn scale_out_relieves_overload() {
    let (cluster, model) = specs();
    // ~4 rps offered against a single replica whose capacity is ~1.5
    // rps on this workload: deep overload for N=1, comfortable for
    // N=4.
    let reqs = online_reqs(48, 4.0, 11);
    let slo = seesaw_workload::SloSpec { ttft_s: 15.0, tpot_s: 0.05 };
    let run = |n: usize| {
        let fleet = Fleet::homogeneous(n, |_| Box::new(vllm_engine(&cluster, &model)) as _);
        let r = fleet.run_with(&SweepRunner::serial(), RouterPolicy::JoinShortestQueue, &reqs);
        (r.slo_attainment(slo), r)
    };
    let (att1, _) = run(1);
    let (att4, rep4) = run(4);
    assert!(
        att4 > att1 + 0.2,
        "4 replicas must relieve overload: attainment {att1:.2} -> {att4:.2}"
    );
    // JSQ under load uses every replica.
    let imb = rep4.imbalance();
    assert!(imb.min_requests > 0, "an idle replica under overload means routing is broken");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any arrival trace and any policy, the router's assignment
    /// splits into per-replica streams that stay arrival-sorted —
    /// the engines' `assert_arrivals_sorted` can never fire on a
    /// router-produced stream.
    #[test]
    fn router_split_streams_are_always_arrival_sorted(
        n in 1usize..120,
        n_replicas in 1usize..8,
        seed in 0u64..500,
        rate in 0.2f64..30.0,
        cv in 0.2f64..3.0,
        policy_idx in 0usize..4,
        po2_seed in 0u64..100,
    ) {
        let base: Vec<Request> = (0..n).map(|i| Request::new(i as u64, 64, 8)).collect();
        let reqs = ArrivalDist::Gamma { rate, cv }.attach(&base, seed).expect("valid");
        let policy = match policy_idx {
            0 => RouterPolicy::RoundRobin,
            1 => RouterPolicy::JoinShortestQueue,
            2 => RouterPolicy::PowerOfTwoChoices { seed: po2_seed },
            _ => RouterPolicy::LeastEstimatedWork,
        };
        let mut router = Router::new(policy, n_replicas);
        let all: Vec<usize> = (0..n_replicas).collect();
        let assignment: Vec<u32> = reqs
            .iter()
            .map(|req| {
                router
                    .route(req, &all, &[], |_, r| 0.01 + r.input_len as f64 / 1000.0)
                    .expect("every replica eligible")
                    .replica as u32
            })
            .collect();
        prop_assert_eq!(assignment.len(), n);
        let streams = split_stream(&reqs, &assignment, n_replicas);
        for s in &streams {
            prop_assert!(s.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
            // The engine guard itself must accept the stream.
            seesaw_engine::driver::assert_arrivals_sorted(s);
        }
    }
}
