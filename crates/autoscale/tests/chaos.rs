//! Fault-injection invariants of the elastic tier: the empty plan
//! nests the fault-free replay byte-for-byte, grids are
//! `--jobs`-invariant, every request reconciles (nothing silently
//! dropped), and recovery postures order the way operations intuition
//! says they must.

use proptest::prelude::*;
use seesaw_autoscale::{
    elastic_sweep_with, AutoscaleConfig, AutoscaleController, ElasticFleetReport, FaultPlan,
    FaultSchedule, RecoverySpec, ScalingPolicy,
};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::RouterPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{ArrivalDist, Request, SloSpec, WorkloadGen};
use std::sync::Arc;

/// A serial replay of `reqs` under `plan`'s schedule with `recovery`,
/// recording into `instr`.
fn run_instrumented(
    (config, plan, recovery): (AutoscaleConfig, FaultPlan, RecoverySpec),
    build: &(dyn Fn(usize) -> Box<dyn OnlineEngine> + Sync),
    reqs: &[Request],
    instr: &mut Instrument,
) -> ElasticFleetReport {
    let schedule = plan.schedule_for(reqs, config.window_s, &recovery);
    AutoscaleController::new(config, recovery.policy).run_with(
        &SweepRunner::serial(),
        build,
        reqs,
        &schedule,
        instr,
    )
}

/// [`run_instrumented`] with telemetry off.
fn run(
    cell: (AutoscaleConfig, FaultPlan, RecoverySpec),
    build: &(dyn Fn(usize) -> Box<dyn OnlineEngine> + Sync),
    reqs: &[Request],
) -> ElasticFleetReport {
    run_instrumented(cell, build, reqs, &mut Instrument::off())
}

fn builder() -> impl Fn(usize) -> Box<dyn OnlineEngine> + Sync {
    let cluster = Arc::new(ClusterSpec::a10x4());
    let model = Arc::new(presets::llama2_13b());
    move |_| {
        Box::new(
            VllmEngine::new(
                Arc::clone(&cluster),
                Arc::clone(&model),
                ParallelConfig::new(1, 2, 2),
                SchedulingPolicy::PrefillPrioritized,
            )
            .expect("valid config"),
        )
    }
}

fn cfg(router: RouterPolicy) -> AutoscaleConfig {
    AutoscaleConfig {
        window_s: 5.0,
        warmup_s: 4.0,
        min_replicas: 1,
        max_replicas: 6,
        router,
        slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
        capacity_rps: 2.5,
    }
}

fn traced(n: usize, rate: f64, seed: u64) -> Vec<Request> {
    let base = WorkloadGen::constant(512, 32).generate(n);
    ArrivalDist::Poisson { rate }
        .attach(&base, seed)
        .expect("valid arrivals")
}

/// A plan dense enough to reliably strike a short test trace.
fn dense_kills(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        kills_per_hour: 240.0,
        outages_per_hour: 0.0,
        groups: 1,
        detect_s: 2.0,
    }
}

#[test]
fn empty_plan_reproduces_the_autoscale_run_byte_for_byte() {
    let build = builder();
    let reqs = traced(50, 2.5, 21);
    for policy in [ScalingPolicy::Static { n: 2 }, ScalingPolicy::ReactiveThreshold] {
        let config = cfg(RouterPolicy::JoinShortestQueue);
        let faulted = run((config, FaultPlan::none(), RecoverySpec::bare(policy)), &build, &reqs);
        let plain = AutoscaleController::new(config, policy).run_with(
            &SweepRunner::serial(),
            &build,
            &reqs,
            &FaultSchedule::none(),
            &mut Instrument::off(),
        );
        assert_eq!(faulted, plain, "{policy}: empty plan must nest the autoscale tier");
    }
}

#[test]
fn chaos_grid_is_jobs_invariant() {
    let build = builder();
    let reqs = traced(50, 2.5, 23);
    let faults = vec![
        ("none".to_string(), FaultPlan::none()),
        ("kills".to_string(), dense_kills(5)),
    ];
    let recoveries = [
        RecoverySpec::bare(ScalingPolicy::Static { n: 2 }),
        RecoverySpec::healing(ScalingPolicy::ReactiveThreshold),
    ];
    let traces = [("test".to_string(), reqs)];
    let run = |runner: &SweepRunner| {
        let mut frontiers = elastic_sweep_with(
            runner,
            &build,
            cfg(RouterPolicy::JoinShortestQueue),
            &traces,
            &faults,
            &recoveries,
            (2.5, "T2P2"),
        );
        assert_eq!(frontiers.len(), 1, "one frontier per trace");
        frontiers.remove(0)
    };
    let serial = run(&SweepRunner::serial());
    let parallel = run(&SweepRunner::new(4));
    assert_eq!(serial, parallel, "chaos grid must be byte-identical across --jobs");
    assert_eq!(serial.points.len(), 4);
    assert_eq!(serial.faults, vec!["none", "kills"]);
    assert_eq!(serial.recoveries, vec!["static-2", "reactive+replace"]);
    // Row-major: the first two cells are fault-free.
    assert_eq!(serial.points[0].fault, "none");
    assert_eq!(serial.points[1].fault, "none");
    // Every cell reconciles: nothing silently dropped.
    for p in &serial.points {
        assert_eq!(
            p.completed + p.failed,
            p.n_requests,
            "{}/{}: completed + failed must equal offered",
            p.fault,
            p.recovery
        );
        assert!(p.retry_amplification >= 1.0);
    }
    // Fault-free cells show clean availability accounting.
    let clean = serial.point("none", "static-2").expect("cell exists");
    assert_eq!(clean.failed, 0);
    assert_eq!(clean.retries, 0);
    assert_eq!(clean.replicas_killed, 0);
    assert_eq!(clean.unavailability_s, 0.0);
}

#[test]
fn replacement_recovers_attainment_a_bare_fleet_loses() {
    let build = builder();
    let reqs = traced(70, 2.0, 29);
    let config = cfg(RouterPolicy::JoinShortestQueue);
    // A full-fleet outage early in the day.
    let outage = FaultPlan {
        seed: 2,
        kills_per_hour: 0.0,
        outages_per_hour: 150.0,
        groups: 1,
        detect_s: 2.0,
    };
    let static_2 = ScalingPolicy::Static { n: 2 };
    let baseline = run((config, FaultPlan::none(), RecoverySpec::bare(static_2)), &build, &reqs);
    let healed = run((config, outage, RecoverySpec::healing(static_2)), &build, &reqs);
    let bare = run((config, outage, RecoverySpec::bare(static_2)), &build, &reqs);
    assert!(baseline.availability.failed == 0);
    assert_eq!(healed.availability.completed + healed.availability.failed, reqs.len());
    assert_eq!(bare.availability.completed + bare.availability.failed, reqs.len());
    assert!(
        bare.availability.failed > 0,
        "an unhealed full outage must fail requests"
    );
    assert!(
        healed.attainment() > bare.attainment(),
        "replacement must beat the bare fleet: {} vs {}",
        healed.attainment(),
        bare.attainment()
    );
    assert!(
        bare.availability.unavailability_s > healed.availability.unavailability_s,
        "the bare fleet stays dark longer"
    );
}

/// A kill is final under every router: no replica completes a request
/// after its kill instant, and every offered request still either
/// completes or is counted failed.
#[test]
fn no_router_completes_requests_on_a_dead_replica() {
    let build = builder();
    let reqs = traced(60, 3.0, 37);
    for router in RouterPolicy::all_with_live() {
        let recovery = RecoverySpec::healing(ScalingPolicy::Static { n: 3 });
        let report = run((cfg(router), dense_kills(11), recovery), &build, &reqs);
        let a = &report.availability;
        assert!(a.replicas_killed > 0, "{router}: the plan must strike the trace");
        assert_eq!(a.completed + a.failed, a.offered, "{router}");
        let mut served_before_kill = 0;
        for (i, lc) in report.lifecycles.iter().enumerate() {
            let Some(killed) = lc.killed_s else { continue };
            for t in report.fleet.replica_timeline(i) {
                assert!(
                    t.completion_s <= killed,
                    "{router}: request {} completed at {} on a replica killed at {killed}",
                    t.id,
                    t.completion_s
                );
                served_before_kill += 1;
            }
        }
        assert!(served_before_kill > 0, "{router}: a killed replica must have served first");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under arbitrary seeded kill schedules and every router policy,
    /// a chaos replay completes without tripping any ordering or
    /// conservation guard: requeued streams stay arrival-sorted (the
    /// engines' `assert_arrivals_sorted` would panic otherwise), and
    /// `completed + failed == offered` reconciles exactly.
    #[test]
    fn random_kill_schedules_conserve_requests_on_every_router(
        fault_seed in 0u64..1000,
        trace_seed in 0u64..100,
        kills_per_hour in 30.0f64..400.0,
        groups in 1usize..4,
        outages in 0usize..2,
        router_idx in 0usize..4,
    ) {
        let build = builder();
        let routers = RouterPolicy::all_default();
        let router = routers[router_idx % routers.len()];
        let reqs = traced(30, 2.0, trace_seed);
        let plan = FaultPlan {
            seed: fault_seed,
            kills_per_hour,
            outages_per_hour: if outages == 1 { kills_per_hour / 4.0 } else { 0.0 },
            groups,
            detect_s: 1.5,
        };
        let recovery = RecoverySpec::healing(ScalingPolicy::ReactiveThreshold);
        let report = run((cfg(router), plan, recovery), &build, &reqs);
        let a = &report.availability;
        prop_assert_eq!(a.offered, 30);
        prop_assert_eq!(a.completed + a.failed, a.offered);
        prop_assert_eq!(a.attempts, a.completed + a.lost_attempts);
        prop_assert_eq!(a.completed, report.fleet.timeline.len());
        prop_assert_eq!(a.replicas_killed, report.failures.len());
        // Each surviving request appears exactly once, id-sorted.
        let ids: Vec<u64> = report.fleet.timeline.iter().map(|t| t.id).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Capacity accounting covers every window.
        prop_assert_eq!(a.window_capacity_s.len(), report.windows.len());
        prop_assert!(a.unavailability_s >= 0.0);
        prop_assert!(report.attainment().is_finite());
    }
}

/// A faulted replay with the instrument off records nothing, and with
/// tracing on it records the injected kills without perturbing the
/// report.
#[test]
fn instrumented_chaos_run_records_kills_without_perturbing() {
    let build = builder();
    let reqs = traced(50, 2.5, 31);
    let cell = (
        cfg(RouterPolicy::JoinShortestQueue),
        dense_kills(5),
        RecoverySpec::healing(ScalingPolicy::ReactiveThreshold),
    );
    let mut off = Instrument::off();
    let plain = run_instrumented(cell, &build, &reqs, &mut off);
    assert!(off.recorder.spans().is_empty() && off.metrics.is_empty());

    let mut instr = Instrument::tracing();
    let traced = run_instrumented(cell, &build, &reqs, &mut instr);
    assert_eq!(plain, traced, "telemetry must not perturb the chaos run");
    assert!(plain.availability.replicas_killed > 0, "plan must strike the trace");
    let trace = seesaw_telemetry::perfetto::render(&instr.recorder, "chaos");
    assert!(trace.contains("\"kill r"), "kill markers recorded");
    assert!(trace.contains("window 0"), "window spans recorded");
    assert_eq!(
        instr.metrics.counter("autoscale.kills"),
        plain.availability.replicas_killed as u64
    );
}
