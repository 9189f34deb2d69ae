//! Bytes per offered request that an elastic replay keeps and peaks
//! at. A fleet report holds each request's timing once (in the merged
//! timeline, beside the replica that served it), so a chaos replay
//! with kills retains about 56 B per offered request: a 48 B timing, a
//! 4 B replica index and a 4 B assignment entry. While it runs, a
//! replay keeps nothing per retry id it mints: a retry's origin rides
//! on its pending event and, once dispatched, on the replica's stream.
//! The counting allocator counts only the thread that switched it on,
//! and the replay runs on `SweepRunner::serial()`, so every byte the
//! replay allocates is counted.

use seesaw_autoscale::{AutoscaleConfig, RetryPolicy, ScalingPolicy};
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
    /// (`None` when off), and the most they reached. Const-initialized,
    /// so reading them never allocates.
    static NET: Cell<Option<isize>> = const { Cell::new(None) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    NET.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + bytes));
            PEAK.with(|p| p.set(p.get().max(n + bytes)));
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

/// Heap bytes `f` allocated on this thread: `(net, peak)`, what it had
/// not freed when it returned and the most it held at once.
fn counted<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    NET.with(|c| c.set(Some(0)));
    PEAK.with(|p| p.set(0));
    let out = f();
    let net = NET.with(|c| c.take()).expect("counting was on");
    (out, net, PEAK.with(Cell::get))
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
    let (report, bytes, _) = counted(|| {
        chaos.run_instrumented_with(&SweepRunner::serial(), &build, &reqs, &mut Instrument::off())
    });
    let a = &report.availability;
    assert!(a.replicas_killed > 0, "the plan must strike the trace");
    assert!(a.retries > 0, "kills must requeue work");
    assert_eq!(a.completed + a.failed, n);
    bytes
}

/// Per offered request: 48 B timing + 4 B replica index + 4 B
/// assignment entry, with a little room. This replay keeps about 58 B;
/// it kept about 62 B while the assignment held 8 B entries, and about
/// 120 B while each replica's report kept a second copy of its timings.
const BYTES_PER_REQUEST: isize = 60;
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

/// Peak heap bytes per offered request of a replay whose fleet goes
/// dark for good: two static replicas, killed early with no
/// replacement, so every later arrival is lost at dispatch and retried
/// until its 12-attempt budget runs out (11 fresh attempt ids each).
fn dark_peak_bytes(n: usize) -> f64 {
    let build = builder();
    let reqs = traced(n);
    let config = AutoscaleConfig {
        window_s: 30.0,
        warmup_s: 20.0,
        min_replicas: 2,
        max_replicas: 2,
        router: RouterPolicy::JoinShortestQueue,
        slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
        capacity_rps: 2.5,
    };
    let plan = FaultPlan {
        seed: 3,
        kills_per_hour: 120.0,
        outages_per_hour: 0.0,
        groups: 1,
        detect_s: 10.0,
    };
    let recovery = RecoverySpec {
        retry: RetryPolicy {
            max_attempts: 12,
            backoff_base_s: 2.0,
            backoff_cap_s: 60.0,
            deadline_s: 600.0,
        },
        ..RecoverySpec::bare_static(2)
    };
    let chaos = ChaosController::new(config, plan, recovery);
    let (report, _, peak) = counted(|| {
        chaos.run_instrumented_with(&SweepRunner::serial(), &build, &reqs, &mut Instrument::off())
    });
    let a = &report.availability;
    assert_eq!(a.replicas_killed, 2, "both replicas die");
    assert!(a.failed > n / 2, "most requests exhaust their budget: {} failed", a.failed);
    assert!(a.lost_attempts > 8 * n, "{} attempts lost at dispatch", a.lost_attempts);
    assert_eq!(a.completed + a.failed, n);
    peak as f64 / n as f64
}

/// Peak bytes per offered request of the dark replay. Pending retries
/// hold their origins in the event queue, so the peak stays near what
/// the queue and the report need (about 76 B); a table of 8 B per
/// minted attempt id, plus a request-id index built at the first kill,
/// took it to about 246 B.
const DARK_PEAK_BYTES_PER_REQUEST: f64 = 100.0;

#[test]
fn a_dark_replay_keeps_nothing_per_minted_attempt() {
    let per_request = dark_peak_bytes(4000);
    assert!(
        per_request <= DARK_PEAK_BYTES_PER_REQUEST,
        "peak {per_request:.1} B per offered request"
    );
}
