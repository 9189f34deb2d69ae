//! Autoscaling-tier invariants: the elastic controller nests the
//! static fleet tier exactly (a Static trajectory is byte-identical
//! to the fixed `Fleet` of the same size), decisions are
//! deterministic and runner-invariant for arbitrary traces, warm-up
//! only ever delays capacity, and cooldown bounds the decision rate
//! on step loads.

use proptest::prelude::*;
use seesaw_autoscale::policy::COOLDOWN_WINDOWS;
use seesaw_autoscale::{
    AutoscaleConfig, AutoscaleController, ElasticFleetReport, FaultSchedule, ScaleEvent,
    ScalingPolicy,
};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_fleet::{Fleet, RouterPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::ParallelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{ArrivalDist, Request, SloSpec, WorkloadGen};
use std::sync::Arc;

/// A fault-free run of `controller` with telemetry off.
fn plain(
    controller: &AutoscaleController,
    runner: &SweepRunner,
    build: ReplicaBuilder,
    reqs: &[Request],
) -> ElasticFleetReport {
    controller.run_with(runner, build, reqs, &FaultSchedule::none(), &mut Instrument::off())
}

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

fn config(window_s: f64, warmup_s: f64, max: usize, router: RouterPolicy) -> AutoscaleConfig {
    AutoscaleConfig {
        window_s,
        warmup_s,
        min_replicas: 1,
        max_replicas: max,
        router,
        slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
        capacity_rps: 2.5,
    }
}

fn sharegpt_trace(n: usize, rate: f64, seed: u64) -> Vec<Request> {
    let base = WorkloadGen::sharegpt(seed).generate(n);
    ArrivalDist::Poisson { rate }
        .attach(&base, seed ^ seesaw_workload::ARRIVAL_SEED_SALT)
        .expect("valid arrivals")
}

/// A Static trajectory never scales, so the elastic run must collapse
/// onto the fixed fleet *byte-for-byte* — same assignment, same
/// per-replica reports, same merged timeline and latency — for every
/// routing policy, including the RNG-carrying po2 and the two live
/// policies, whose measured reads then follow one trajectory in both
/// loops.
#[test]
fn static_policy_reproduces_the_fixed_fleet_byte_for_byte() {
    let (cluster, model) = specs();
    let reqs = sharegpt_trace(48, 3.0, 17);
    for router in RouterPolicy::all_with_live() {
        for n in [1usize, 3] {
            let fixed = Fleet::homogeneous(n, |_| {
                Box::new(vllm_engine(&cluster, &model)) as Box<dyn OnlineEngine>
            })
            .run_with(&SweepRunner::serial(), router, &reqs);
            let controller = AutoscaleController::new(
                config(10.0, 60.0, 8, router),
                ScalingPolicy::Static { n },
            );
            let elastic = plain(
                &controller,
                &SweepRunner::serial(),
                &|_| Box::new(vllm_engine(&cluster, &model)) as Box<dyn OnlineEngine>,
                &reqs,
            );
            assert!(elastic.events.is_empty(), "{router}: static must never scale");
            assert_eq!(
                elastic.fleet, fixed,
                "{router} x {n} replicas: elastic static diverged from the fixed fleet"
            );
        }
    }
}

/// Warm-up delays capacity, never adds it: on an overloaded trace, a
/// controller whose replicas warm up instantly must reach each scale-
/// up's *ready* state no later than one that pays a long warm-up, and
/// the long-warm-up run's overall SLO attainment must not beat the
/// instant one's by more than simulation noise.
#[test]
fn longer_warmup_never_improves_attainment() {
    let (cluster, model) = specs();
    let build = |_: usize| -> Box<dyn OnlineEngine> {
        Box::new(vllm_engine(&cluster, &model))
    };
    let reqs = sharegpt_trace(150, 5.0, 23);
    let run = |warmup_s: f64| {
        let controller = AutoscaleController::new(
            config(5.0, warmup_s, 8, RouterPolicy::JoinShortestQueue),
            ScalingPolicy::ReactiveThreshold,
        );
        plain(&controller, &SweepRunner::serial(), &build, &reqs)
    };
    let instant = run(0.0);
    let slow = run(12.0);
    assert!(
        instant.events.iter().any(|e| e.to > e.from),
        "overloaded trace must trigger scale-ups"
    );
    // Same decision cadence, later readiness: every spawned replica's
    // ready time is strictly later under the longer warm-up.
    for (a, b) in instant.lifecycles.iter().zip(&slow.lifecycles).skip(1) {
        if a.spawn_s == b.spawn_s {
            assert!(b.ready_s > a.ready_s, "warm-up must delay readiness");
        }
    }
    assert!(
        slow.attainment() <= instant.attainment() + 0.02,
        "longer warm-up cannot improve attainment: {} (warm-up 12s) vs {} (instant)",
        slow.attainment(),
        instant.attainment()
    );
}

/// On a step trace (quiet, then a sustained surge), the cooldown
/// spaces scale events at least `cooldown + 1` windows apart and the
/// fleet ramps monotonically through the surge instead of flapping.
#[test]
fn cooldown_prevents_oscillation_on_a_step_trace() {
    let (cluster, model) = specs();
    let build = |_: usize| -> Box<dyn OnlineEngine> {
        Box::new(vllm_engine(&cluster, &model))
    };
    // 20 s of trickle, then a hard 6 rps surge for 60 s.
    let mut reqs: Vec<Request> = Vec::new();
    let mut gen = WorkloadGen::constant(512, 32);
    for (i, r) in gen.generate(4).into_iter().enumerate() {
        reqs.push(r.with_arrival(5.0 * i as f64));
    }
    let surge = gen.generate(360);
    for (i, r) in surge.into_iter().enumerate() {
        reqs.push(r.with_arrival(20.0 + i as f64 / 6.0));
    }
    let cooldown = COOLDOWN_WINDOWS;
    let window_s = 5.0;
    let controller = AutoscaleController::new(
        config(window_s, 2.0, 8, RouterPolicy::JoinShortestQueue),
        ScalingPolicy::ReactiveThreshold,
    );
    let report = plain(&controller, &SweepRunner::serial(), &build, &reqs);
    let events: &Vec<ScaleEvent> = &report.events;
    assert!(events.len() >= 2, "the surge must drive several scale-ups: {events:?}");
    // Cooldown: consecutive events at least (cooldown + 1) windows
    // apart — one event window plus `cooldown` suppressed windows.
    for w in events.windows(2) {
        let gap = w[1].t_s - w[0].t_s;
        assert!(
            gap >= (cooldown + 1) as f64 * window_s - 1e-9,
            "events {w:?} closer than the cooldown allows"
        );
    }
    // No flapping: during the surge the replica count never shrinks.
    let surge_end = reqs.last().unwrap().arrival_s;
    for w in events.windows(2) {
        if w[1].t_s <= surge_end {
            assert!(
                w[1].to >= w[0].to,
                "fleet shrank mid-surge: {events:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary traces, rates, policies, and routing, the
    /// controller's full report — decision log, lifecycles, window
    /// signals, merged fleet report — is identical on 1 vs 4 jobs.
    #[test]
    fn controller_is_runner_invariant_for_arbitrary_traces(
        n in 1usize..80,
        seed in 0u64..200,
        rate in 0.2f64..12.0,
        cv in 0.3f64..2.5,
        warmup in 0.0f64..20.0,
        window in 2.0f64..30.0,
        policy_idx in 0usize..3,
    ) {
        let base: Vec<Request> = WorkloadGen::sharegpt(seed).generate(n);
        let reqs = ArrivalDist::Gamma { rate, cv }
            .attach(&base, seed ^ 0x5eed)
            .expect("valid");
        let policy = match policy_idx {
            0 => ScalingPolicy::Static { n: 2 },
            1 => ScalingPolicy::ReactiveThreshold,
            _ => ScalingPolicy::TargetUtilization,
        };
        let (cluster, model) = specs();
        let build = |_: usize| -> Box<dyn OnlineEngine> {
            Box::new(vllm_engine(&cluster, &model))
        };
        let controller = AutoscaleController::new(
            config(window, warmup, 6, RouterPolicy::JoinShortestQueue),
            policy,
        );
        let serial = plain(&controller, &SweepRunner::serial(), &build, &reqs);
        let parallel = plain(&controller, &SweepRunner::new(4), &build, &reqs);
        prop_assert_eq!(&serial, &parallel);
        // Every request served exactly once, whatever the trajectory.
        prop_assert_eq!(serial.fleet.timeline.len(), n);
        // Billed time covers at least the initial fleet's horizon.
        prop_assert!(serial.replica_seconds >= serial.horizon_s - 1e-9);
    }
}
