//! The shim's one behaviour: a chaos cell is the controller's replay
//! under the plan's schedule over the trace.

use seesaw_autoscale::{AutoscaleConfig, AutoscaleController, ScalingPolicy};
use seesaw_chaos::{ChaosController, FaultPlan, RecoverySpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::RouterPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{ArrivalDist, SloSpec, WorkloadGen};
use std::sync::Arc;

#[test]
fn chaos_cell_is_the_controller_run_under_its_schedule() {
    let cluster = Arc::new(ClusterSpec::a10x4());
    let model = Arc::new(presets::llama2_13b());
    let build = move |_: usize| -> Box<dyn OnlineEngine> {
        Box::new(
            VllmEngine::new(
                Arc::clone(&cluster),
                Arc::clone(&model),
                ParallelConfig::new(1, 2, 2),
                SchedulingPolicy::PrefillPrioritized,
            )
            .expect("valid config"),
        )
    };
    let base = WorkloadGen::constant(512, 32).generate(50);
    let reqs = ArrivalDist::Poisson { rate: 2.5 }.attach(&base, 5).expect("valid arrivals");
    let config = AutoscaleConfig {
        window_s: 5.0,
        warmup_s: 4.0,
        min_replicas: 1,
        max_replicas: 6,
        router: RouterPolicy::JoinShortestQueue,
        slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
        capacity_rps: 2.5,
    };
    let plan = FaultPlan {
        seed: 5,
        kills_per_hour: 240.0,
        outages_per_hour: 0.0,
        groups: 1,
        detect_s: 2.0,
    };
    let recovery = RecoverySpec::healing(ScalingPolicy::reactive_default());
    let chaos = ChaosController::new(config, plan, recovery);
    let schedule = chaos.schedule_for(&reqs);
    assert_eq!(schedule, plan.schedule_for(&reqs, config.window_s, &recovery));
    let runner = SweepRunner::serial();
    let shim = chaos.run_instrumented_with(&runner, &build, &reqs, &mut Instrument::off());
    let direct = AutoscaleController::new(config, recovery.policy).run_with(
        &runner,
        &build,
        &reqs,
        &schedule,
        &mut Instrument::off(),
    );
    assert!(shim.availability.replicas_killed > 0, "the plan must strike the trace");
    assert_eq!(shim, direct);
}
