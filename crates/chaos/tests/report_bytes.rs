//! Bytes per offered request that an elastic replay's report keeps. A
//! fleet report holds each request's timing once (in the merged
//! timeline, beside the replica that served it), so a chaos replay
//! with kills retains about 60 B per offered request: a 48 B timing, a
//! 4 B replica index and an 8 B assignment entry. The counting
//! allocator counts only the thread that switched it on, and the
//! replay runs on `SweepRunner::serial()`, so every byte the replay
//! allocates and keeps is counted.

use seesaw_autoscale::{AutoscaleConfig, ScalingPolicy};
use seesaw_chaos::{ChaosController, FaultPlan, RecoverySpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::RouterPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{ArrivalDist, Request, SloSpec, WorkloadGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Net heap bytes allocated on this thread while counting is on
    /// (`None` when off). Const-initialized, so reading it never
    /// allocates.
    static NET: Cell<Option<isize>> = const { Cell::new(None) };
}

fn count(bytes: isize) {
    NET.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + bytes));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the heap bytes it allocated on this thread and
/// had not freed when it returned.
fn retained<T>(f: impl FnOnce() -> T) -> (T, isize) {
    NET.with(|c| c.set(Some(0)));
    let out = f();
    (out, NET.with(|c| c.take()).expect("counting was on"))
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

/// `n` requests arriving over about 600 s, so the control-window count
/// (and every per-window structure) stays the same at every `n`.
fn traced(n: usize) -> Vec<Request> {
    let base = WorkloadGen::constant(256, 16).generate(n);
    ArrivalDist::Poisson { rate: n as f64 / 600.0 }
        .attach(&base, 5)
        .expect("valid arrivals")
}

/// Net bytes a replay of `n` offered requests keeps in its report,
/// with replicas killed under reactive scaling and replacement.
fn report_bytes(n: usize) -> isize {
    let build = builder();
    let reqs = traced(n);
    let config = AutoscaleConfig {
        window_s: 30.0,
        warmup_s: 20.0,
        min_replicas: 2,
        max_replicas: 8,
        router: RouterPolicy::JoinShortestQueue,
        slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
        capacity_rps: 2.5,
    };
    let plan = FaultPlan {
        seed: 11,
        kills_per_hour: 30.0,
        outages_per_hour: 0.0,
        groups: 1,
        detect_s: 2.0,
    };
    let chaos = ChaosController::new(
        config,
        plan,
        RecoverySpec::healing(ScalingPolicy::reactive_default()),
    );
    let (report, bytes) = retained(|| {
        chaos.run_instrumented_with(&SweepRunner::serial(), &build, &reqs, &mut Instrument::off())
    });
    let a = &report.availability;
    assert!(a.replicas_killed > 0, "the plan must strike the trace");
    assert!(a.retries > 0, "kills must requeue work");
    assert_eq!(a.completed + a.failed, n);
    bytes
}

/// Per offered request: 48 B timing + 4 B replica index + 8 B
/// assignment entry, with a little room. While each replica's report
/// kept a second copy of its timings, this replay kept about 120 B.
const BYTES_PER_REQUEST: isize = 64;
/// Per-window metrics, replica reports and lifecycles: the same at
/// every request count on a fixed day.
const FIXED_BYTES: isize = 16 << 10;

#[test]
fn a_chaos_report_keeps_each_timing_once() {
    let n = 4000;
    let bytes = report_bytes(n);
    assert!(
        bytes <= BYTES_PER_REQUEST * n as isize + FIXED_BYTES,
        "{bytes} B retained for {n} offered requests ({:.1} B each)",
        bytes as f64 / n as f64
    );
}
