//! Spans recorded from outside the program: an [`OnlineEngine`]
//! wrapper timing the engine boundary, and the per-cell record every
//! workload produces.
//!
//! `fleet`, `autoscale` and `chaos` hand every request to `engine`
//! through [`OnlineEngine`], and every replica they simulate comes out
//! of a builder closure or a `Fleet` constructor the benchmark
//! supplies. Wrapping those replicas therefore sees every simulated
//! request and every host second spent below the boundary.

use crate::mem;
use seesaw_engine::{EngineReport, OnlineEngine, ServiceRates};
use seesaw_sim::TraceSummary;
use seesaw_telemetry::ControllerProfile;
use seesaw_workload::{Request, RequestTiming};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters shared by every wrapped replica of one run. Statistics
/// only, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct EngineProbe {
    calls: AtomicU64,
    requests: AtomicU64,
    busy_ns: AtomicU64,
}

/// A snapshot of [`EngineProbe`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTally {
    /// Simulation calls (`run`, `run_ready`, `run_traced`).
    pub calls: u64,
    /// Requests handed to those calls.
    pub requests: u64,
    /// Host seconds inside the engine, `service_rates` included.
    pub busy_s: f64,
}

impl EngineTally {
    /// The counts accrued since `earlier`.
    pub fn since(self, earlier: EngineTally) -> EngineTally {
        EngineTally {
            calls: self.calls - earlier.calls,
            requests: self.requests - earlier.requests,
            busy_s: self.busy_s - earlier.busy_s,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: EngineTally) -> EngineTally {
        EngineTally {
            calls: self.calls + other.calls,
            requests: self.requests + other.requests,
            busy_s: self.busy_s + other.busy_s,
        }
    }
}

impl EngineProbe {
    /// The counters so far.
    pub fn tally(&self) -> EngineTally {
        EngineTally {
            calls: self.calls.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    fn busy_since(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn simulated(&self, requests: usize, start: Instant) {
        self.busy_since(start);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
    }
}

/// An engine that forwards every call to `inner` and records it.
struct Probed {
    inner: Box<dyn OnlineEngine>,
    probe: Arc<EngineProbe>,
}

impl OnlineEngine for Probed {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        let start = Instant::now();
        let report = self.inner.run(requests);
        self.probe.simulated(requests.len(), start);
        report
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        let start = Instant::now();
        let rates = self.inner.service_rates(avg_in, avg_out);
        self.probe.busy_since(start);
        rates
    }

    fn run_traced(&self, requests: &[Request]) -> (EngineReport, TraceSummary) {
        let start = Instant::now();
        let out = self.inner.run_traced(requests);
        self.probe.simulated(requests.len(), start);
        out
    }

    fn run_ready(&self, requests: &[Request], ready_s: f64) -> EngineReport {
        let start = Instant::now();
        let report = self.inner.run_ready(requests, ready_s);
        self.probe.simulated(requests.len(), start);
        report
    }
}

/// `engine` wrapped to report into `probe`, or `engine` itself when no
/// probe is given (the untraced run measures bare engines).
pub fn wrap(
    engine: Box<dyn OnlineEngine>,
    probe: Option<&Arc<EngineProbe>>,
) -> Box<dyn OnlineEngine> {
    match probe {
        Some(p) => Box::new(Probed {
            inner: engine,
            probe: Arc::clone(p),
        }),
        None => engine,
    }
}

/// Which layer a cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One paper table or figure.
    Figure,
    /// A fleet cell under an estimated-queue policy (merged-timeline
    /// fast path).
    FleetEstimated,
    /// A fleet cell under a live-state policy (global event loop with
    /// prefix replay).
    FleetLive,
    /// One elastic replay through the autoscale/chaos controller.
    Elastic,
}

impl Kind {
    /// Short name for the attribution table.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Figure => "figure",
            Kind::FleetEstimated => "fleet-est",
            Kind::FleetLive => "fleet-live",
            Kind::Elastic => "elastic",
        }
    }
}

/// The simulated outcome of one cell, read from its report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// Requests offered.
    pub offered: u64,
    /// Requests (attempts, under retries) assigned to replicas.
    pub assigned: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests that failed outright.
    pub failed: u64,
    /// Controller dispatches, retries included (elastic cells).
    pub dispatches: u64,
}

/// One simulation cell as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell name (figure job, policy × grid point, fault × recovery).
    pub name: String,
    /// Which layer it exercises.
    pub kind: Kind,
    /// Host seconds of the timed call.
    pub wall_s: f64,
    /// Engine-boundary counts inside the call (zero when unwrapped).
    pub engine: EngineTally,
    /// Simulated outcome.
    pub outcome: Outcome,
    /// The controller's own phase profile (elastic cells, traced run).
    pub profile: ControllerProfile,
    /// Heap still held after the call: the returned report.
    pub retained_bytes: f64,
    /// Peak heap above the starting size during the call: working
    /// memory.
    pub transient_bytes: f64,
    /// Whether the call returned and its output passed every check.
    pub ok: bool,
}

impl Cell {
    /// Host seconds outside the engine boundary.
    pub fn self_s(&self) -> f64 {
        (self.wall_s - self.engine.busy_s).max(0.0)
    }
}

/// Time `f` as one cell: host seconds, engine-boundary counts, heap
/// retained and transient. A panic inside `f` is caught and yields
/// `None`, with the cell marked failed.
pub fn timed<T>(
    name: String,
    kind: Kind,
    probe: Option<&Arc<EngineProbe>>,
    f: impl FnOnce() -> T,
) -> (Option<T>, Cell) {
    let outer_peak = mem::peak_bytes();
    let heap0 = mem::reset_peak();
    let engine0 = probe.map(|p| p.tally()).unwrap_or_default();
    let start = Instant::now();
    let value = catch_unwind(AssertUnwindSafe(f)).ok();
    let wall_s = start.elapsed().as_secs_f64();
    let engine = probe.map(|p| p.tally()).unwrap_or_default().since(engine0);
    let peak = mem::peak_bytes();
    mem::raise_peak(outer_peak);
    let cell = Cell {
        name,
        kind,
        wall_s,
        engine,
        outcome: Outcome::default(),
        profile: ControllerProfile::default(),
        retained_bytes: mem::live_bytes() as f64 - heap0 as f64,
        transient_bytes: (peak - heap0) as f64,
        ok: value.is_some(),
    };
    (value, cell)
}

/// Every timeline entry is causally ordered: arrival ≤ first token ≤
/// completion.
pub fn causal(timeline: &[RequestTiming]) -> bool {
    timeline
        .iter()
        .all(|t| t.arrival_s <= t.first_token_s && t.first_token_s <= t.completion_s)
}

/// The timeline returns each id of `offered` exactly once, and nothing
/// else.
pub fn each_once(timeline: &[RequestTiming], offered: &[Request]) -> bool {
    let mut got: Vec<u64> = timeline.iter().map(|t| t.id).collect();
    let mut want: Vec<u64> = offered.iter().map(|r| r.id).collect();
    got.sort_unstable();
    want.sort_unstable();
    got == want
}
