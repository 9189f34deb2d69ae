//! The autoscaling controller: replay a long arrival trace through a
//! time-sliced elastic fleet, growing and shrinking the replica count
//! online.
//!
//! Time advances in fixed control windows. Within a window the
//! controller routes each arrival over the replicas *currently
//! accepting traffic* (warm, not retiring) using the fleet tier's
//! resumable [`Router`]; at the window boundary it reads the cheap
//! observable signals — queue depth, offered load, estimated
//! utilization, estimated TTFT attainment — and lets the
//! [`ScalingPolicy`] propose an action, subject to its cooldown:
//!
//! * **Scale up** spawns replicas that pay a warm-up delay
//!   (weight-load time) before accepting traffic; routing flows
//!   around them until they are ready, so warm-up manifests as
//!   *delayed capacity* — the still-warming replica leaves the rest
//!   of the fleet congested, which the measured TTFT/attainment pick
//!   up. Each replica is an engine actor
//!   ([`seesaw_engine::OnlineEngine::actor`]) created with its ready
//!   time, whose ready-time clamp is the engine-level guard of the
//!   same contract (a no-op here because the router never hands a
//!   warming replica traffic, but load-bearing for streams assembled
//!   without the router).
//! * **Scale down** marks replicas as retiring: they stop receiving
//!   new requests and *drain* their in-flight work before
//!   disappearing — the replica's billed lifetime extends to its last
//!   completion.
//!
//! Routing decisions use only a-priori state (virtual queues and
//! roofline service estimates), so the whole decision trajectory is
//! deterministic and independent of the [`SweepRunner`]; the real
//! engine simulations run once per replica after the trajectory is
//! fixed, in parallel, and merge into an ordinary [`FleetReport`]
//! judged by measured (not estimated) latency. A [`ScalingPolicy::Static`]
//! trajectory never scales, which makes the elastic run collapse
//! exactly — byte-for-byte — onto the fixed [`seesaw_fleet::Fleet`]
//! of the same size.

use crate::alert::{AlertEngine, AlertEvent, AlertKind, AlertRule};
use crate::faults::{
    accepting_capacity_per_window, unavailability_s, AvailabilityStats, FailureEvent,
    FaultKind, FaultSchedule,
};
use crate::policy::{ScaleDecision, ScalingPolicy};
use seesaw_engine::driver::assert_arrivals_sorted;
use seesaw_engine::online::mean_lengths;
use seesaw_engine::{finish_all, EngineActor, OnlineEngine, ServiceRates, SweepRunner};
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_fleet::telemetry::{
    record_request_spans, register_replica_track, register_tracks, route_args,
};
use seesaw_fleet::{FleetReport, Router, RouterPolicy};
use seesaw_telemetry::{
    fmt_secs, ControllerProfile, Instrument, ALERT_TRACK, CONTROLLER_TRACK, ROUTER_TRACK,
};
use seesaw_workload::{
    windowed_metrics, DispatchQueue, LatencyStats, Request, SloSpec, SummaryMode,
    WindowAccumulator, WindowMetrics,
};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// Elapsed seconds of an optional phase-timer start (0 when the timer
/// never started — profiling off).
fn lap(start: Option<Instant>) -> f64 {
    start.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Controller configuration shared by every policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Control-window length, seconds: signals are observed and
    /// decisions taken at these boundaries.
    pub window_s: f64,
    /// Warm-up (weight-load) delay a freshly spawned replica pays
    /// before it accepts traffic, seconds. Replicas provisioned at
    /// t = 0 start warm.
    pub warmup_s: f64,
    /// Fewest replicas the fleet may shrink to (≥ 1).
    pub min_replicas: usize,
    /// Most replicas the fleet may grow to.
    pub max_replicas: usize,
    /// Request-routing policy inside the fleet.
    pub router: RouterPolicy,
    /// The SLO decisions are proxied against and measurements judged
    /// by.
    pub slo: SloSpec,
    /// Measured single-replica offline capacity, requests/second —
    /// the calibration every signal is computed against (see
    /// [`seesaw_fleet::offline_capacity`]). The roofline service
    /// estimates the router ranks replicas with are steady-state
    /// token rates and run several-fold optimistic against the
    /// simulated engines; routing only needs their *relative* order,
    /// but utilization/backlog signals need absolute scale, exactly
    /// like a production autoscaler is calibrated against measured
    /// backend throughput.
    pub capacity_rps: f64,
}

impl AutoscaleConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.window_s.is_finite() && self.window_s > 0.0) {
            return Err(format!(
                "control window must be finite and > 0, got {}",
                self.window_s
            ));
        }
        if !(self.warmup_s.is_finite() && self.warmup_s >= 0.0) {
            return Err(format!(
                "warm-up delay must be finite and >= 0, got {}",
                self.warmup_s
            ));
        }
        if self.min_replicas == 0 {
            return Err("min_replicas must be at least 1".into());
        }
        if self.max_replicas < self.min_replicas {
            return Err(format!(
                "max_replicas {} must be >= min_replicas {}",
                self.max_replicas, self.min_replicas
            ));
        }
        if !(self.capacity_rps.is_finite() && self.capacity_rps > 0.0) {
            return Err(format!(
                "calibration capacity must be finite and > 0, got {}",
                self.capacity_rps
            ));
        }
        Ok(())
    }
}

impl Default for AutoscaleConfig {
    /// The `autoscale` bin's defaults: 5-minute control windows,
    /// 60-second weight-load warm-up, 1–16 replicas,
    /// join-shortest-queue routing, and the serving harness's SLO.
    fn default() -> Self {
        AutoscaleConfig {
            window_s: 300.0,
            warmup_s: 60.0,
            min_replicas: 1,
            max_replicas: 16,
            router: RouterPolicy::JoinShortestQueue,
            slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
            capacity_rps: 1.0,
        }
    }
}

/// The signals a policy sees at one window boundary — all a-priori
/// (router virtual-queue) state, the kind a production autoscaler
/// actually has before any request finishes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSignals {
    /// Window start, seconds (inclusive).
    pub t0: f64,
    /// Window end, seconds (exclusive) — the decision instant.
    pub t1: f64,
    /// Requests that arrived in the window.
    pub arrivals: usize,
    /// Offered load over the window, requests/second.
    pub offered_rps: f64,
    /// Outstanding requests at the window end. Under an estimated
    /// routing policy this is the capacity-calibrated fluid backlog
    /// (work not yet served, expressed in mean-request units; near 0
    /// whenever the fleet keeps up, growing when offered load exceeds
    /// capacity). Under a live policy
    /// ([`RouterPolicy::needs_live_state`]) it is the *measured*
    /// count of unfinished requests across accepting replicas, read
    /// exactly from their engine actors on the global clock.
    pub queue_depth: f64,
    /// Fraction of the window's arrivals whose *estimated* queue wait
    /// (fluid backlog over accepting replicas at the arrival instant)
    /// met the TTFT SLO (1.0 when nothing arrived).
    pub est_attainment: f64,
    /// Estimated utilization: capacity-calibrated offered
    /// service-seconds in the window per accepting replica-second.
    pub utilization_est: f64,
    /// Replicas accepting traffic at the window end.
    pub ready: usize,
    /// Live replicas at the window end (accepting + warming, not
    /// retiring or killed).
    pub provisioned: usize,
    /// Replicas killed by fault injection during the window (0 on
    /// every fault-free replay) — the failure signal a policy or the
    /// replacement logic reacts to.
    pub failures: usize,
}

/// One scale event in the decision log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// When the decision was taken (a window boundary), seconds.
    pub t_s: f64,
    /// Live replicas before the event.
    pub from: usize,
    /// Live replicas after the event.
    pub to: usize,
}

/// One replica's lifetime, as billed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaLifecycle {
    /// When the replica was provisioned, seconds.
    pub spawn_s: f64,
    /// When it began accepting traffic (spawn + warm-up; 0 for the
    /// initial fleet), seconds.
    pub ready_s: f64,
    /// When it was told to retire (`None` = lived to the horizon),
    /// seconds.
    pub retire_s: Option<f64>,
    /// When fault injection killed it (`None` = never). Unlike a
    /// retire, a kill is immediate: nothing drains, in-flight work is
    /// lost, and billing stops at the kill instant.
    pub killed_s: Option<f64>,
    /// When it actually disappeared: after draining in-flight work
    /// (measured last completion), the kill instant for killed
    /// replicas, or the horizon for survivors.
    pub end_s: f64,
    /// Dispatch attempts routed to it (lost attempts included).
    pub requests: usize,
}

impl ReplicaLifecycle {
    /// Billed lifetime, seconds.
    pub fn billed_s(&self) -> f64 {
        self.end_s - self.spawn_s
    }
}

/// Outcome of one elastic-fleet trace replay: the merged fleet view
/// plus the control trajectory and the cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticFleetReport {
    /// The scaling policy that drove the trajectory.
    pub policy: ScalingPolicy,
    /// Controller configuration.
    pub config: AutoscaleConfig,
    /// Merged fleet run (every replica that ever existed, in spawn
    /// order; the assignment maps requests to those indices).
    pub fleet: FleetReport,
    /// Per-window signals, in window order.
    pub windows: Vec<WindowSignals>,
    /// Scale events, in time order.
    pub events: Vec<ScaleEvent>,
    /// Per-replica lifetimes, in spawn order.
    pub lifecycles: Vec<ReplicaLifecycle>,
    /// Replica kills as they struck, in time order (empty on a
    /// fault-free replay).
    pub failures: Vec<FailureEvent>,
    /// Request-conservation and capacity accounting
    /// (`completed + failed == offered` always holds; on a fault-free
    /// replay every loss counter is zero and
    /// `attempts == offered == completed`).
    pub availability: AvailabilityStats,
    /// Measured per-window serving metrics over the merged timeline.
    /// At least one entry per control window; completions landing
    /// past the horizon (the drain tail) extend the axis, so this may
    /// be longer than [`ElasticFleetReport::windows`].
    pub windowed: Vec<WindowMetrics>,
    /// Burn-rate alert transitions the controller's rule emitted over
    /// the measured window axis, in window order.
    pub alerts: Vec<AlertEvent>,
    /// The control horizon (last window end), seconds.
    pub horizon_s: f64,
    /// Total billed replica-seconds — the frontier's cost axis.
    pub replica_seconds: f64,
    /// Most replicas ever live at once.
    pub peak_replicas: usize,
}

impl ElasticFleetReport {
    /// Fraction of all *offered* requests meeting the configured SLO
    /// (measured, not estimated). Requests that failed outright —
    /// exhausted retries after replica kills — count against the
    /// denominator (a dropped request certainly missed its SLO), so
    /// on a fault-free replay this equals the fleet timeline's plain
    /// attainment. 0.0 when nothing was offered.
    pub fn attainment(&self) -> f64 {
        let denom = self.fleet.timeline.len() + self.availability.failed;
        if denom == 0 {
            return 0.0;
        }
        let met = self
            .fleet
            .timeline
            .iter()
            .filter(|t| self.config.slo.met_by(t))
            .count();
        met as f64 / denom as f64
    }

    /// SLO-meeting requests per second over the fleet makespan.
    pub fn goodput_rps(&self) -> f64 {
        self.fleet.goodput_rps(self.config.slo)
    }

    /// Time-averaged replica count over the horizon.
    pub fn mean_replicas(&self) -> f64 {
        if self.horizon_s > 0.0 {
            self.replica_seconds / self.horizon_s
        } else {
            0.0
        }
    }
}

/// One live replica's controller-side state during the replay.
struct ReplicaState<'e> {
    engine: &'e dyn OnlineEngine,
    /// The replica on the global clock: every dispatch is pushed as
    /// it is routed, live routing reads its measured state, and
    /// finishing it yields the replica's report. Taken once the
    /// trajectory is fixed.
    actor: Option<Box<dyn EngineActor + 'e>>,
    rates: ServiceRates,
    spawn_s: f64,
    ready_s: f64,
    retire_s: Option<f64>,
    killed_s: Option<f64>,
    stream: Vec<Request>,
    /// `(original request index, attempt number, calibrated work)`
    /// per stream entry, kept only when live routing meets fault
    /// injection: it resolves which *measured*-in-flight attempts a
    /// kill loses.
    stream_meta: Vec<(usize, u32, f64)>,
}

impl<'e> ReplicaState<'e> {
    fn live(&self) -> bool {
        self.retire_s.is_none() && self.killed_s.is_none()
    }

    fn actor(&mut self) -> &mut (dyn EngineActor + 'e) {
        self.actor.as_deref_mut().expect("actors finish after the trajectory")
    }
}

/// Engines of every replica spawned so far. Replicas spawn mid-replay
/// while earlier replicas' actors borrow their engines, so storage is
/// append-only through a shared reference: each engine sits in its own
/// once-set cell and never moves.
#[derive(Default)]
struct EngineArena {
    engine: OnceCell<Box<dyn OnlineEngine>>,
    next: OnceCell<Box<EngineArena>>,
}

impl EngineArena {
    fn push(&self, engine: Box<dyn OnlineEngine>) -> &dyn OnlineEngine {
        let mut cell = self;
        while cell.engine.get().is_some() {
            cell = cell.next.get_or_init(Box::default);
        }
        cell.engine.get_or_init(|| engine).as_ref()
    }
}

/// Capacity-calibrated mirror of one replica's FIFO queue, kept only
/// while faults are being injected: it resolves *which* dispatched
/// attempts are still estimated in flight (and therefore lost) when
/// the replica is killed. Entries are
/// `(est done, est service, attempt id, original request index,
/// attempt number)`.
#[derive(Debug, Default)]
struct CalQueue {
    busy_until: f64,
    inflight: VecDeque<(f64, f64, u64, usize, u32)>,
}

/// The autoscaling controller: a [`ScalingPolicy`] bound to an
/// [`AutoscaleConfig`], ready to replay traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleController {
    /// Shared controller knobs.
    pub config: AutoscaleConfig,
    /// The replica-count policy.
    pub policy: ScalingPolicy,
    /// How window TTFT summaries are computed: [`SummaryMode::Exact`]
    /// (the default — byte-identical to pre-sketch behaviour) sorts
    /// each window's samples post-hoc; [`SummaryMode::Sketch`] folds
    /// completions into a streaming [`WindowAccumulator`] of
    /// mergeable quantile sketches as replica reports land.
    pub summary: SummaryMode,
    /// The burn-rate alert rule evaluated over the measured window
    /// axis ([`ElasticFleetReport::alerts`]).
    pub alert: AlertRule,
}

impl AutoscaleController {
    /// A controller; panics on invalid configuration or policy (use
    /// [`AutoscaleConfig::validate`] / [`ScalingPolicy::validate`]
    /// for recoverable checks). Summaries default to
    /// [`SummaryMode::Exact`] and alerting to [`AlertRule::default`];
    /// override with [`AutoscaleController::with_summary`] /
    /// [`AutoscaleController::with_alert`].
    pub fn new(config: AutoscaleConfig, policy: ScalingPolicy) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid autoscale config: {e}"));
        policy.validate().unwrap_or_else(|e| panic!("invalid scaling policy: {e}"));
        AutoscaleController {
            config,
            policy,
            summary: SummaryMode::Exact,
            alert: AlertRule::default(),
        }
    }

    /// The same controller with `summary` as its window-summary mode.
    pub fn with_summary(mut self, summary: SummaryMode) -> Self {
        self.summary = summary;
        self
    }

    /// The same controller evaluating `alert`; panics on an invalid
    /// rule.
    pub fn with_alert(mut self, alert: AlertRule) -> Self {
        alert.validate().unwrap_or_else(|e| panic!("invalid alert rule: {e}"));
        self.alert = alert;
        self
    }

    /// Replay `requests` (sorted by arrival) on replicas built by
    /// `build`, parallelizing the final engine simulations on the
    /// environment's runner.
    pub fn run(&self, build: ReplicaBuilder, requests: &[Request]) -> ElasticFleetReport {
        self.run_with(&SweepRunner::from_env(), build, requests)
    }

    /// [`AutoscaleController::run`] on an explicit runner. The
    /// decision trajectory is computed serially (it is causal:
    /// window N+1's routing depends on window N's scaling), so the
    /// runner only parallelizes the per-replica engine simulations —
    /// output is byte-identical for every `--jobs` value.
    pub fn run_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
    ) -> ElasticFleetReport {
        self.run_faulted_with(runner, build, requests, &FaultSchedule::none())
    }

    /// [`AutoscaleController::run_with`] under a [`FaultSchedule`]:
    /// scheduled kills strike mid-replay, their in-flight and queued
    /// attempts are lost and requeued through the router after the
    /// detection delay (under the schedule's retry policy), and —
    /// when the schedule asks for it — the controller spawns
    /// replacement replicas that pay the usual warm-up.
    ///
    /// This is the *only* replay loop: the fault-free path is the
    /// same code with an empty schedule, so
    /// `run_faulted_with(.., &FaultSchedule::none())` is structurally
    /// identical to [`AutoscaleController::run_with`] — byte-for-byte,
    /// not merely equivalent. Faults and requeue decisions are
    /// resolved serially on the causal trajectory (like every routing
    /// and scaling decision), so output remains byte-identical for
    /// every `--jobs` value.
    pub fn run_faulted_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
        faults: &FaultSchedule,
    ) -> ElasticFleetReport {
        self.run_faulted_instrumented_with(runner, build, requests, faults, &mut Instrument::off())
    }

    /// [`AutoscaleController::run_with`] collecting the wall-time
    /// phase profile beside the report — the `perf_report` entry
    /// point for answering "where does controller time go".
    pub fn run_profiled_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
    ) -> (ElasticFleetReport, ControllerProfile) {
        let mut instr = Instrument::profiling();
        let report = self.run_faulted_instrumented_with(
            runner,
            build,
            requests,
            &FaultSchedule::none(),
            &mut instr,
        );
        (report, instr.profile)
    }

    /// [`AutoscaleController::run_faulted_with`] with a telemetry
    /// [`Instrument`]. When the recorder is enabled, the controller
    /// records its decision trajectory as it happens — scale events,
    /// kills, retries and parks on the controller track; route
    /// decisions (with the measured or estimated state each one saw)
    /// on the router track; one span per control window — and fills
    /// request lifecycle spans and registry metrics from the finished
    /// report. When `instr.profiling` is set, wall time is attributed
    /// across the controller phases (routing / live-state replay /
    /// engine runs / metrics) into `instr.profile`.
    ///
    /// With `Instrument::off()` this *is* `run_faulted_with`: every
    /// recording site is a branch on a false bool, so the disabled
    /// run's report is byte-identical (enforced by tests).
    pub fn run_faulted_instrumented_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
        faults: &FaultSchedule,
        instr: &mut Instrument,
    ) -> ElasticFleetReport {
        let cfg = self.config;
        let telemetry = instr.telemetry_on();
        let prof = instr.profiling;
        let run_start = prof.then(Instant::now);
        // Host time spent reading live replica state (actor advances
        // and projections); gated on `prof` like every phase timer.
        let mut replay_s = 0.0f64;
        faults
            .validate()
            .unwrap_or_else(|e| panic!("invalid fault schedule: {e}"));
        assert_arrivals_sorted(requests);
        let (avg_in, avg_out) = mean_lengths(requests);
        let engines = EngineArena::default();
        let spawn = |idx: usize, spawn_s: f64, ready_s: f64| {
            let engine = engines.push(build(idx));
            ReplicaState {
                engine,
                actor: Some(engine.actor(ready_s)),
                rates: engine.service_rates(avg_in, avg_out),
                spawn_s,
                ready_s,
                retire_s: None,
                killed_s: None,
                stream: Vec::new(),
                stream_meta: Vec::new(),
            }
        };

        let n0 = self.policy.initial_replicas(cfg.min_replicas, cfg.max_replicas);
        let mut replicas: Vec<ReplicaState> =
            (0..n0).map(|i| spawn(i, 0.0, 0.0)).collect();
        let mut router = Router::new(cfg.router, n0);
        let mut assignment = vec![0usize; requests.len()];
        if telemetry {
            let labels: Vec<String> = replicas.iter().map(|r| r.engine.label()).collect();
            register_tracks(&mut instr.recorder, &format!("router ({})", cfg.router), &labels);
        }

        // Signal calibration: the roofline estimates are steady-state
        // optimistic, so scale them such that the mean request costs
        // exactly `1 / capacity_rps` seconds of replica time — the
        // *measured* cost. The router keeps the raw estimates (their
        // relative order is what routing needs, and it keeps Static
        // trajectories byte-identical to the fixed fleet tier).
        let mean_req = Request::new(u64::MAX, avg_in, avg_out);
        let calib = 1.0 / (cfg.capacity_rps * replicas[0].rates.est_service_s(&mean_req));

        let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
        let base_windows = (last_arrival / cfg.window_s) as usize + 1;

        // Fault/retry bookkeeping. `injecting` gates every extra
        // per-dispatch cost, so the fault-free replay pays nothing
        // beyond an integer compare. Hash containers are lookup-only
        // (never iterated), so their order cannot leak into output.
        let injecting = !faults.events.is_empty();
        // Live routing: decisions read measured replica state (the
        // replicas' engine actors) instead of the router's virtual
        // queues, and
        // a kill's lost set is the *measured* in-flight attempts at
        // the kill instant rather than the `CalQueue` mirror.
        let live_routing = cfg.router.needs_live_state();
        let mut dispatch = DispatchQueue::new(requests);
        let mut next_fault = 0usize;
        let mut base_next = 0usize; // original index of the next base dispatch
        let mut retry_meta: HashMap<u64, (usize, u32)> = HashMap::new();
        // Attempt ids parked until a warming replica becomes ready
        // (dispatched while every replica was dark): re-dispatch is a
        // continuation of the same attempt, not a retry.
        let mut buffered: HashSet<u64> = HashSet::new();
        let mut doomed: HashSet<u64> = HashSet::new();
        let mut next_attempt_id = requests
            .iter()
            .map(|r| r.id)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let mut cal: Vec<CalQueue> = (0..n0).map(|_| CalQueue::default()).collect();
        let mut failures: Vec<FailureEvent> = Vec::new();
        let mut attempts = 0usize;
        let mut retries = 0usize;
        let mut lost_attempts = 0usize;
        let mut failed = 0usize;
        let mut replicas_killed = 0usize;
        // The replica count the policy last asked for — what
        // replacement spawns restore toward after kills.
        let mut desired = n0;
        // Requeue a lost attempt, or count the request failed when
        // its budget (attempts or deadline) is exhausted.
        let requeue_or_fail =
            |dispatch: &mut DispatchQueue,
             retry_meta: &mut HashMap<u64, (usize, u32)>,
             next_attempt_id: &mut u64,
             failed: &mut usize,
             lost_at_s: f64,
             orig_idx: usize,
             attempt: u32| {
                let next_attempt = attempt + 1;
                if next_attempt > faults.retry.max_attempts {
                    *failed += 1;
                    return;
                }
                let retry_at =
                    lost_at_s + faults.detect_s + faults.retry.backoff_s(next_attempt);
                let orig = &requests[orig_idx];
                if retry_at - orig.arrival_s > faults.retry.deadline_s {
                    *failed += 1;
                    return;
                }
                let id = *next_attempt_id;
                *next_attempt_id = next_attempt_id
                    .checked_add(1)
                    .expect("attempt ids exhausted");
                retry_meta.insert(id, (orig_idx, next_attempt));
                dispatch
                    .push(Request::new(id, orig.input_len, orig.output_len).with_arrival(retry_at));
            };

        let mut windows = Vec::with_capacity(base_windows);
        let mut events = Vec::new();
        let mut peak_replicas = n0;
        let mut windows_since_event = self.policy.cooldown_windows();
        let mut eligible: Vec<usize> = Vec::new();
        // Calibrated fluid backlog: outstanding replica-seconds of
        // work, drained at one second per accepting replica-second.
        let mut backlog_s = 0.0f64;
        let mut backlog_t = 0.0f64;

        // Windows extend past the base count while retries or faults
        // are still pending — the drain tail of a failure near the
        // trace end must still be replayed, not dropped.
        let mut w = 0usize;
        let loop_start = prof.then(Instant::now);
        while w < base_windows || !dispatch.is_empty() || next_fault < faults.events.len() {
            let t0 = w as f64 * cfg.window_s;
            let t1 = t0 + cfg.window_s;
            let mut arrivals = 0usize;
            let mut est_work_s = 0.0;
            let mut waits_ok = 0usize;
            let mut window_failures = 0usize;
            loop {
                let t_disp = dispatch.peek_s();
                let t_fault = faults.events.get(next_fault).map(|e| e.t_s);
                // A fault inside the window at or before the next
                // dispatch is processed first: the kill causally
                // precedes a dispatch at the same instant (a request
                // arriving exactly then already finds the replica
                // gone). With no faults this branch never runs and
                // the loop is exactly the fault-free walk.
                let fault_first = match (t_fault, t_disp) {
                    (Some(tf), Some(td)) => tf < t1 && tf <= td,
                    (Some(tf), None) => tf < t1,
                    _ => false,
                };
                if fault_first {
                    let event = faults.events[next_fault];
                    next_fault += 1;
                    let tk = event.t_s;
                    let candidates: Vec<usize> = replicas
                        .iter()
                        .enumerate()
                        .filter_map(|(i, r)| r.live().then_some(i))
                        .collect();
                    let (victims, group): (Vec<usize>, Option<usize>) = match event.kind {
                        FaultKind::KillReplica { pick } => {
                            if candidates.is_empty() {
                                (Vec::new(), None)
                            } else {
                                let v = candidates[(pick % candidates.len() as u64) as usize];
                                (vec![v], None)
                            }
                        }
                        FaultKind::GroupOutage { group } => (
                            candidates
                                .iter()
                                .copied()
                                .filter(|i| i % faults.groups == group)
                                .collect(),
                            Some(group),
                        ),
                    };
                    for v in victims {
                        replicas[v].killed_s = Some(tk);
                        replicas_killed += 1;
                        window_failures += 1;
                        router.reset_replica(v);
                        // Attempts done by the kill instant survived;
                        // everything else on the replica is lost and
                        // requeued (or failed). Estimated mode reads
                        // the `CalQueue` mirror; live mode reads the
                        // *measured* in-flight set — the kill fires as
                        // an event on the global clock, and what it
                        // loses is exactly what the replica's
                        // projection says is unfinished at that
                        // instant.
                        let lost: Vec<(f64, f64, u64, usize, u32)> = if live_routing {
                            let replay_start = prof.then(Instant::now);
                            let rep = &mut replicas[v];
                            let completion: HashMap<u64, f64> = rep
                                .actor()
                                .projected()
                                .timeline
                                .iter()
                                .map(|t| (t.id, t.completion_s))
                                .collect();
                            let lost = rep
                                .stream
                                .iter()
                                .zip(&rep.stream_meta)
                                .filter_map(|(r, &(orig_idx, attempt, work))| {
                                    let done =
                                        completion.get(&r.id).copied().unwrap_or(f64::INFINITY);
                                    (done > tk).then_some((done, work, r.id, orig_idx, attempt))
                                })
                                .collect();
                            replay_s += lap(replay_start);
                            lost
                        } else {
                            let q = &mut cal[v];
                            while let Some(&(done, ..)) = q.inflight.front() {
                                if done > tk {
                                    break;
                                }
                                q.inflight.pop_front();
                            }
                            q.busy_until = tk;
                            q.inflight.drain(..).collect()
                        };
                        lost_attempts += lost.len();
                        failures.push(FailureEvent {
                            t_s: tk,
                            replica: v,
                            group,
                            lost_attempts: lost.len(),
                        });
                        if telemetry {
                            instr.recorder.instant(
                                CONTROLLER_TRACK,
                                &format!("kill r{v}"),
                                tk,
                                &[
                                    ("lost_attempts", lost.len().to_string()),
                                    ("group", group.map_or_else(|| "-".into(), |g| g.to_string())),
                                ],
                            );
                            instr.metrics.counter_add("autoscale.kills", 1);
                        }
                        for (done, service, attempt_id, orig_idx, attempt) in lost {
                            doomed.insert(attempt_id);
                            // The unserved remainder of the lost work
                            // leaves the fluid backlog; the retry
                            // re-adds its full cost when dispatched.
                            backlog_s = (backlog_s - service.min(done - tk)).max(0.0);
                            requeue_or_fail(
                                &mut dispatch,
                                &mut retry_meta,
                                &mut next_attempt_id,
                                &mut failed,
                                tk,
                                orig_idx,
                                attempt,
                            );
                        }
                    }
                    continue;
                }
                let Some(td) = t_disp else { break };
                if td >= t1 {
                    break;
                }
                let (req, is_retry) = dispatch.pop().expect("peeked a dispatch");
                // A buffered re-dispatch continues the same attempt —
                // it waited out an outage, it did not fail.
                let resumed = is_retry && buffered.remove(&req.id);
                let (orig_idx, attempt) = if is_retry {
                    if !resumed {
                        retries += 1;
                    }
                    *retry_meta.get(&req.id).expect("retry has metadata")
                } else {
                    base_next += 1;
                    (base_next - 1, 1)
                };
                if telemetry && is_retry && !resumed {
                    instr.recorder.instant(
                        CONTROLLER_TRACK,
                        &format!("retry req {}", requests[orig_idx].id),
                        req.arrival_s,
                        &[("attempt", attempt.to_string())],
                    );
                    instr.metrics.counter_add("autoscale.retry_dispatches", 1);
                }
                eligible.clear();
                eligible.extend(replicas.iter().enumerate().filter_map(|(i, rep)| {
                    (rep.live() && rep.ready_s <= req.arrival_s).then_some(i)
                }));
                if eligible.is_empty() {
                    // Only kills can empty the fleet (`min_replicas`
                    // guards the fault-free path).
                    assert!(
                        injecting,
                        "no accepting replica at t={} (min_replicas guards this)",
                        req.arrival_s
                    );
                    backlog_t = req.arrival_s;
                    // Park the arrival until the first warming replica
                    // becomes ready: the request waits out the outage
                    // instead of burning a retry attempt. With nothing
                    // warming (replacements only spawn at window
                    // boundaries) the attempt is lost at dispatch and
                    // requeued like killed work.
                    let resume = replicas
                        .iter()
                        .filter(|r| r.live())
                        .map(|r| r.ready_s)
                        .fold(f64::INFINITY, f64::min);
                    if resume.is_finite() {
                        debug_assert!(
                            resume > req.arrival_s,
                            "a ready live replica would have been eligible"
                        );
                        let id = next_attempt_id;
                        next_attempt_id =
                            next_attempt_id.checked_add(1).expect("attempt ids exhausted");
                        // Same attempt number: parking is not a retry.
                        retry_meta.insert(id, (orig_idx, attempt));
                        buffered.insert(id);
                        dispatch.push(
                            Request::new(id, req.input_len, req.output_len)
                                .with_arrival(resume),
                        );
                        if telemetry {
                            instr.recorder.instant(
                                CONTROLLER_TRACK,
                                &format!("park req {}", requests[orig_idx].id),
                                req.arrival_s,
                                &[("resume_s", fmt_secs(resume))],
                            );
                            instr.metrics.counter_add("autoscale.parked", 1);
                        }
                    } else {
                        arrivals += 1;
                        attempts += 1;
                        lost_attempts += 1;
                        if telemetry {
                            instr.recorder.instant(
                                CONTROLLER_TRACK,
                                &format!("lost-at-dispatch req {}", requests[orig_idx].id),
                                req.arrival_s,
                                &[],
                            );
                        }
                        requeue_or_fail(
                            &mut dispatch,
                            &mut retry_meta,
                            &mut next_attempt_id,
                            &mut failed,
                            req.arrival_s,
                            orig_idx,
                            attempt,
                        );
                    }
                    continue;
                }
                attempts += 1;
                backlog_s = (backlog_s
                    - (req.arrival_s - backlog_t) * eligible.len() as f64)
                    .max(0.0);
                backlog_t = req.arrival_s;
                // Measured state of each eligible replica at the
                // arrival instant (live policies only; estimated
                // policies ignore the vec and read their virtual
                // queues). Queried serially in eligible order, so the
                // trajectory stays deterministic and jobs-invariant.
                let live: Vec<(usize, f64)> = if live_routing {
                    let replay_start = prof.then(Instant::now);
                    let states = eligible
                        .iter()
                        .map(|&i| cfg.router.read_live(replicas[i].actor(), req.arrival_s))
                        .collect();
                    replay_s += lap(replay_start);
                    states
                } else {
                    Vec::new()
                };
                let routed = router
                    .route(&req, &eligible, &live, |i, r| {
                        replicas[i].rates.est_service_s(r)
                    })
                    .expect("eligible is non-empty");
                assignment[orig_idx] = routed.replica;
                if telemetry {
                    // The state this decision saw: measured for live
                    // policies, the router's virtual queue otherwise.
                    let (depth, work_s) = if live_routing {
                        let pos = eligible
                            .iter()
                            .position(|&i| i == routed.replica)
                            .expect("routed among eligible");
                        live[pos]
                    } else {
                        router.queue_state(req.arrival_s)[routed.replica]
                    };
                    instr.recorder.instant(
                        ROUTER_TRACK,
                        &format!("route {} -> r{}", req.id, routed.replica),
                        req.arrival_s,
                        &route_args(depth, work_s, routed.est_wait_s, live_routing),
                    );
                    instr
                        .metrics
                        .counter_add(&format!("autoscale.route.replica{}", routed.replica), 1);
                    instr.metrics.observe("autoscale.route.est_wait_s", routed.est_wait_s);
                }
                let work = calib * replicas[routed.replica].rates.est_service_s(&req);
                waits_ok +=
                    usize::from(backlog_s / eligible.len() as f64 <= cfg.slo.ttft_s);
                backlog_s += work;
                est_work_s += work;
                replicas[routed.replica].stream.push(req);
                replicas[routed.replica].actor().push(req);
                if live_routing {
                    if injecting {
                        replicas[routed.replica].stream_meta.push((orig_idx, attempt, work));
                    }
                } else if injecting {
                    let q = &mut cal[routed.replica];
                    let now = req.arrival_s;
                    while let Some(&(done, ..)) = q.inflight.front() {
                        if done > now {
                            break;
                        }
                        q.inflight.pop_front();
                    }
                    let start = now.max(q.busy_until);
                    q.busy_until = start + work;
                    q.inflight.push_back((start + work, work, req.id, orig_idx, attempt));
                }
                arrivals += 1;
            }

            // Observe the boundary state.
            let queue_state = router.queue_state(t1);
            let ready = replicas
                .iter()
                .filter(|r| r.live() && r.ready_s <= t1)
                .count();
            let provisioned = replicas.iter().filter(|r| r.live()).count();
            backlog_s = (backlog_s - (t1 - backlog_t) * ready.max(1) as f64).max(0.0);
            backlog_t = t1;
            // Under live routing the controller observes the
            // *measured* queue: unfinished requests across accepting
            // replicas at the boundary, counted exactly by their
            // actors (no projection) — not the calibrated fluid
            // estimate.
            let queue_depth = if live_routing {
                let replay_start = prof.then(Instant::now);
                let mut depth = 0usize;
                for rep in replicas.iter_mut().filter(|r| r.live() && r.ready_s <= t1) {
                    depth += rep.actor().depth_at(t1).queue_depth;
                }
                replay_s += lap(replay_start);
                depth as f64
            } else {
                backlog_s * cfg.capacity_rps
            };
            let signals = WindowSignals {
                t0,
                t1,
                arrivals,
                offered_rps: arrivals as f64 / cfg.window_s,
                queue_depth,
                est_attainment: if arrivals > 0 {
                    waits_ok as f64 / arrivals as f64
                } else {
                    1.0
                },
                utilization_est: est_work_s / (ready.max(1) as f64 * cfg.window_s),
                ready,
                provisioned,
                failures: window_failures,
            };

            // Decide (cooldown-gated), then act.
            let decision = if windows_since_event >= self.policy.cooldown_windows() {
                self.policy.decide(&signals, cfg.min_replicas, cfg.max_replicas)
            } else {
                ScaleDecision::Hold
            };
            match decision {
                ScaleDecision::Hold => windows_since_event += 1,
                ScaleDecision::Up(k) => {
                    for _ in 0..k {
                        let idx = router.add_replica();
                        debug_assert_eq!(idx, replicas.len());
                        replicas.push(spawn(idx, t1, t1 + cfg.warmup_s));
                        cal.push(CalQueue::default());
                        if telemetry {
                            let label = replicas[idx].engine.label();
                            register_replica_track(&mut instr.recorder, idx, &label);
                        }
                    }
                    desired = provisioned + k;
                    events.push(ScaleEvent { t_s: t1, from: provisioned, to: provisioned + k });
                    peak_replicas = peak_replicas.max(provisioned + k);
                    windows_since_event = 0;
                    if telemetry {
                        instr.recorder.instant(
                            CONTROLLER_TRACK,
                            &format!("scale-up {provisioned} -> {}", provisioned + k),
                            t1,
                            &[
                                ("from", provisioned.to_string()),
                                ("to", (provisioned + k).to_string()),
                            ],
                        );
                        instr.metrics.counter_add("autoscale.scale_up", 1);
                    }
                }
                ScaleDecision::Down(k) => {
                    // Retire the emptiest accepting replicas (fastest
                    // drain); ties prefer the newest (LIFO), all
                    // deterministic.
                    let mut victims: Vec<usize> = replicas
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.live() && r.ready_s <= t1)
                        .map(|(i, _)| i)
                        .collect();
                    victims.sort_by(|&a, &b| {
                        let (qa, qb) = (queue_state[a], queue_state[b]);
                        qa.0.cmp(&qb.0)
                            .then(qa.1.total_cmp(&qb.1))
                            .then(b.cmp(&a))
                    });
                    for &v in victims.iter().take(k) {
                        replicas[v].retire_s = Some(t1);
                    }
                    desired = provisioned - k;
                    events.push(ScaleEvent { t_s: t1, from: provisioned, to: provisioned - k });
                    windows_since_event = 0;
                    if telemetry {
                        instr.recorder.instant(
                            CONTROLLER_TRACK,
                            &format!("scale-down {provisioned} -> {}", provisioned - k),
                            t1,
                            &[
                                ("from", provisioned.to_string()),
                                ("to", (provisioned - k).to_string()),
                            ],
                        );
                        instr.metrics.counter_add("autoscale.scale_down", 1);
                    }
                }
            }
            // Replacement spawns: restore the policy's desired count
            // after kills shrank the live fleet. Recorded as a scale
            // event but does NOT reset the cooldown — replacing lost
            // capacity is repair, not a policy decision.
            if faults.replace_failures {
                let live_now = replicas.iter().filter(|r| r.live()).count();
                let want = desired.clamp(cfg.min_replicas, cfg.max_replicas);
                if live_now < want {
                    for _ in 0..(want - live_now) {
                        let idx = router.add_replica();
                        debug_assert_eq!(idx, replicas.len());
                        replicas.push(spawn(idx, t1, t1 + cfg.warmup_s));
                        cal.push(CalQueue::default());
                        if telemetry {
                            let label = replicas[idx].engine.label();
                            register_replica_track(&mut instr.recorder, idx, &label);
                        }
                    }
                    events.push(ScaleEvent { t_s: t1, from: live_now, to: want });
                    peak_replicas = peak_replicas.max(want);
                    if telemetry {
                        instr.recorder.instant(
                            CONTROLLER_TRACK,
                            &format!("replace {live_now} -> {want}"),
                            t1,
                            &[("from", live_now.to_string()), ("to", want.to_string())],
                        );
                        instr.metrics.counter_add("autoscale.replacements", 1);
                    }
                }
            }
            if telemetry {
                instr.recorder.span(
                    CONTROLLER_TRACK,
                    &format!("window {w}"),
                    t0,
                    cfg.window_s,
                    &[
                        ("arrivals", signals.arrivals.to_string()),
                        ("offered_rps", fmt_secs(signals.offered_rps)),
                        ("queue_depth", fmt_secs(signals.queue_depth)),
                        ("est_attainment", fmt_secs(signals.est_attainment)),
                        ("utilization_est", fmt_secs(signals.utilization_est)),
                        ("ready", signals.ready.to_string()),
                        ("provisioned", signals.provisioned.to_string()),
                        ("failures", signals.failures.to_string()),
                    ],
                );
                let peak = instr
                    .metrics
                    .gauge("autoscale.window.queue_depth.max")
                    .unwrap_or(0.0)
                    .max(signals.queue_depth);
                instr.metrics.gauge_set("autoscale.window.queue_depth.max", peak);
                instr.metrics.observe("autoscale.window.offered_rps", signals.offered_rps);
            }
            windows.push(signals);
            w += 1;
        }
        let loop_s = lap(loop_start);
        // With no faults the loop runs exactly `base_windows` times,
        // so this equals the fault-free horizon.
        let horizon_s = windows.len() as f64 * cfg.window_s;

        // Projections behind the live reads, and the requests they
        // re-simulated (deterministic: they follow the trajectory).
        let (replays, replayed_requests) = replicas
            .iter_mut()
            .map(|r| r.actor().projection_counts())
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
        // The trajectory is fixed; finish the replicas' simulations.
        let engine_start = prof.then(Instant::now);
        let actors = replicas
            .iter_mut()
            .map(|r| r.actor.take().expect("each replica has one actor"))
            .collect();
        let mut reports = finish_all(runner, actors);
        let engine_s = lap(engine_start);
        let metrics_start = prof.then(Instant::now);
        if injecting {
            // Drop attempts the fault schedule declared lost, and fold
            // surviving retries back onto their original request: the
            // timeline's identity and arrival are the *first* attempt's
            // (so e2e spans detection + backoff + requeue), while the
            // simulated completion is the surviving attempt's.
            for report in &mut reports {
                report.timeline.retain(|t| !doomed.contains(&t.id));
                for t in &mut report.timeline {
                    if let Some(&(orig_idx, attempt)) = retry_meta.get(&t.id) {
                        t.id = requests[orig_idx].id;
                        t.arrival_s = requests[orig_idx].arrival_s;
                        t.attempts = attempt;
                    }
                }
                report.timeline.sort_by_key(|t| t.id);
                report.latency = LatencyStats::from_timeline(&report.timeline);
            }
        }
        let lifecycles: Vec<ReplicaLifecycle> = replicas
            .iter()
            .zip(&reports)
            .map(|(rep, report)| {
                let last_completion = report
                    .timeline
                    .iter()
                    .map(|t| t.completion_s)
                    .fold(rep.ready_s, f64::max);
                let end_s = match (rep.killed_s, rep.retire_s) {
                    // A kill is instantaneous: nothing drains past
                    // it, and billing stops at the kill.
                    (Some(killed), _) => killed,
                    (None, Some(retire)) => retire.max(last_completion),
                    (None, None) => horizon_s.max(last_completion),
                };
                ReplicaLifecycle {
                    spawn_s: rep.spawn_s,
                    ready_s: rep.ready_s,
                    retire_s: rep.retire_s,
                    killed_s: rep.killed_s,
                    end_s,
                    requests: rep.stream.len(),
                }
            })
            .collect();
        let replica_seconds: f64 = lifecycles.iter().map(ReplicaLifecycle::billed_s).sum();
        // In sketch mode the window axis is built *streamingly*: each
        // replica report's completions fold into the accumulator as
        // they land — no post-hoc sort of the merged timeline. The
        // accumulator is push-order-invariant (property-tested
        // against the oracle), so the result stays byte-identical for
        // every `--jobs` value. Exact mode keeps the original
        // post-hoc path untouched.
        let mut acc = (self.summary == SummaryMode::Sketch)
            .then(|| WindowAccumulator::new(cfg.slo, cfg.window_s, SummaryMode::Sketch));
        if let Some(acc) = acc.as_mut() {
            for report in &reports {
                acc.observe(&report.timeline);
            }
        }
        let fleet = FleetReport::from_replica_reports(cfg.router, reports, assignment);
        let windowed = match acc {
            Some(acc) => acc.finish(horizon_s),
            None => windowed_metrics(&fleet.timeline, cfg.slo, cfg.window_s, horizon_s),
        };
        let alerts = AlertEngine::evaluate(&[self.alert], &windowed);
        // Conservation: every offered request either completed or was
        // counted failed — nothing is silently dropped.
        let completed = fleet.timeline.len();
        assert_eq!(
            completed + failed,
            requests.len(),
            "request conservation: every offered request must complete or be counted failed"
        );
        debug_assert_eq!(attempts, completed + lost_attempts);
        let availability = AvailabilityStats {
            offered: requests.len(),
            attempts,
            completed,
            lost_attempts,
            retries,
            failed,
            replicas_killed,
            unavailability_s: unavailability_s(&lifecycles, horizon_s),
            window_capacity_s: accepting_capacity_per_window(
                &lifecycles,
                cfg.window_s,
                windows.len(),
            ),
        };
        let metrics_s = lap(metrics_start);
        if telemetry {
            record_request_spans(&mut instr.recorder, &fleet);
            for a in &alerts {
                let name = match a.kind {
                    AlertKind::Fire => "alert.fire",
                    AlertKind::Clear => "alert.clear",
                };
                instr.recorder.instant(
                    ALERT_TRACK,
                    name,
                    a.t_s,
                    &[
                        ("rule", a.rule.clone()),
                        ("window", a.window.to_string()),
                        ("short_burn", format!("{:.2}", a.short_burn)),
                        ("long_burn", format!("{:.2}", a.long_burn)),
                    ],
                );
            }
            instr.metrics.counter_add(
                "autoscale.alerts.fired",
                alerts.iter().filter(|a| a.kind == AlertKind::Fire).count() as u64,
            );
            for (i, rep) in fleet.replicas.iter().enumerate() {
                instr.metrics.counter_add(
                    &format!("autoscale.requests.replica{i}"),
                    rep.stats.requests as u64,
                );
            }
            instr.metrics.counter_add("autoscale.windows", windows.len() as u64);
            instr.metrics.counter_add("autoscale.attempts", attempts as u64);
            instr.metrics.counter_add("autoscale.retries", retries as u64);
            instr.metrics.counter_add("autoscale.lost_attempts", lost_attempts as u64);
            instr.metrics.counter_add("autoscale.failed", failed as u64);
            instr.metrics.counter_add("autoscale.replicas_killed", replicas_killed as u64);
            instr.metrics.counter_add("autoscale.scale_events", events.len() as u64);
            instr.metrics.counter_add("autoscale.replay.count", replays);
            instr.metrics.counter_add("autoscale.replay.requests", replayed_requests);
            instr.metrics.gauge_set("autoscale.peak_replicas", peak_replicas as f64);
            instr
                .metrics
                .gauge_set("autoscale.unavailability_s", availability.unavailability_s);
        }
        if prof {
            instr.profile.absorb(&ControllerProfile {
                routing_s: (loop_s - replay_s).max(0.0),
                replay_s,
                engine_s,
                metrics_s,
                total_s: lap(run_start),
                windows: windows.len(),
                dispatches: attempts as u64,
                replays,
                replayed_requests,
            });
        }
        ElasticFleetReport {
            policy: self.policy,
            config: cfg,
            fleet,
            windows,
            events,
            lifecycles,
            failures,
            availability,
            windowed,
            alerts,
            horizon_s,
            replica_seconds,
            peak_replicas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, RetryPolicy};
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::SchedulingPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::{presets, ModelConfig};
    use seesaw_parallel::ParallelConfig;
    use seesaw_workload::{ArrivalDist, WorkloadGen};
    use std::sync::Arc;

    fn builder() -> impl Fn(usize) -> Box<dyn OnlineEngine> + Sync {
        let cluster = Arc::new(ClusterSpec::a10x4());
        let model: Arc<ModelConfig> = Arc::new(presets::llama2_13b());
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

    fn cfg(window_s: f64, warmup_s: f64, max: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            window_s,
            warmup_s,
            min_replicas: 1,
            max_replicas: max,
            router: RouterPolicy::JoinShortestQueue,
            slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
            // Roughly the measured offline capacity of the test
            // scenario (vLLM T2P2, constant 512/32 requests).
            capacity_rps: 2.5,
        }
    }

    fn traced(n: usize, rate: f64, seed: u64) -> Vec<Request> {
        let base = WorkloadGen::constant(512, 32).generate(n);
        ArrivalDist::Poisson { rate }
            .attach(&base, seed)
            .expect("valid arrivals")
    }

    #[test]
    fn static_policy_never_scales_and_serves_everything() {
        let build = builder();
        let reqs = traced(40, 2.0, 7);
        let ctl = AutoscaleController::new(cfg(10.0, 30.0, 8), ScalingPolicy::Static { n: 3 });
        let report = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
        assert!(report.events.is_empty());
        assert_eq!(report.lifecycles.len(), 3);
        assert_eq!(report.peak_replicas, 3);
        assert_eq!(report.fleet.stats.requests, 40);
        assert_eq!(report.fleet.timeline.len(), 40);
        assert!(report.lifecycles.iter().all(|l| l.ready_s == 0.0));
        // Cost covers at least 3 replicas x horizon.
        assert!(report.replica_seconds >= 3.0 * report.horizon_s - 1e-9);
        assert!(report.windowed.len() >= report.windows.len());
    }

    #[test]
    fn overload_triggers_scale_up_and_new_replicas_pay_warmup() {
        let build = builder();
        // Sustained overload for one replica (capacity ~0.6 rps on
        // this workload): the reactive policy must grow the fleet.
        let reqs = traced(120, 4.0, 3);
        let ctl =
            AutoscaleController::new(cfg(5.0, 8.0, 6), ScalingPolicy::reactive_default());
        let report = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
        assert!(
            report.events.iter().any(|e| e.to > e.from),
            "overload must scale up: {:?}",
            report.events
        );
        assert!(report.peak_replicas > 1);
        // Every non-initial replica pays the warm-up delay and never
        // serves a request before it is ready.
        for (lc, rep) in report.lifecycles.iter().zip(&report.fleet.replicas).skip(1) {
            assert!((lc.ready_s - lc.spawn_s - 8.0).abs() < 1e-9);
            for t in &rep.timeline {
                assert!(
                    t.first_token_s >= lc.ready_s,
                    "replica served at {} before ready at {}",
                    t.first_token_s,
                    lc.ready_s
                );
            }
        }
        // All requests still served exactly once.
        assert_eq!(report.fleet.timeline.len(), 120);
    }

    #[test]
    fn quiet_tail_scales_down_and_retired_replicas_drain() {
        let build = builder();
        // A burst then silence: the controller must shed replicas.
        let mut reqs = traced(60, 6.0, 5);
        let burst_end = reqs.last().unwrap().arrival_s;
        // Sparse trickle long after the burst keeps windows coming.
        for i in 0..6 {
            let id = 1000 + i as u64;
            reqs.push(
                Request::new(id, 512, 32).with_arrival(burst_end + 30.0 + 20.0 * i as f64),
            );
        }
        let ctl =
            AutoscaleController::new(cfg(5.0, 5.0, 6), ScalingPolicy::reactive_default());
        let report = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
        let downs: Vec<&ScaleEvent> =
            report.events.iter().filter(|e| e.to < e.from).collect();
        assert!(!downs.is_empty(), "quiet tail must scale down: {:?}", report.events);
        // Retired replicas billed through their drain, and their
        // streams stay within their accepting interval.
        for lc in report.lifecycles.iter().filter(|l| l.retire_s.is_some()) {
            assert!(lc.end_s >= lc.retire_s.unwrap());
            assert!(lc.billed_s() >= 0.0);
        }
        // Retired replicas received nothing after their retire time.
        for (lc, rep) in report.lifecycles.iter().zip(&report.fleet.replicas) {
            if let Some(retire) = lc.retire_s {
                for t in &rep.timeline {
                    assert!(t.arrival_s < retire, "routed to a retiring replica");
                }
            }
        }
        assert_eq!(report.fleet.timeline.len(), reqs.len());
    }

    #[test]
    fn report_is_runner_invariant() {
        let build = builder();
        let reqs = traced(80, 3.0, 11);
        for policy in [
            ScalingPolicy::Static { n: 2 },
            ScalingPolicy::reactive_default(),
            ScalingPolicy::target_utilization_default(),
        ] {
            let ctl = AutoscaleController::new(cfg(5.0, 6.0, 6), policy);
            let serial = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
            let parallel = ctl.run_with(&SweepRunner::new(4), &build, &reqs);
            assert_eq!(serial, parallel, "{policy}");
        }
    }

    #[test]
    fn sketch_mode_keeps_exact_counters_and_stays_jobs_invariant() {
        let build = builder();
        let reqs = traced(120, 4.0, 3);
        let ctl =
            AutoscaleController::new(cfg(5.0, 8.0, 6), ScalingPolicy::reactive_default());
        let exact = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
        // Exact is the default: `with_summary(Exact)` is a no-op, and
        // the whole report — not just the window axis — is
        // byte-identical to the plain run.
        assert_eq!(
            exact,
            ctl.with_summary(SummaryMode::Exact)
                .run_with(&SweepRunner::serial(), &build, &reqs)
        );
        let sketch = ctl
            .with_summary(SummaryMode::Sketch)
            .run_with(&SweepRunner::serial(), &build, &reqs);
        // Everything outside the window axis is untouched by the
        // summary mode...
        assert_eq!(sketch.fleet, exact.fleet);
        assert_eq!(sketch.windows, exact.windows);
        assert_eq!(sketch.events, exact.events);
        assert_eq!(sketch.availability, exact.availability);
        // ...and alerting (driven by the exact counters) transitions
        // identically in both modes.
        assert_eq!(sketch.alerts, exact.alerts);
        // The window axis keeps exact counters; only the TTFT summary
        // is sketched, within its 1% bound.
        assert_eq!(sketch.windowed.len(), exact.windowed.len());
        for (s, e) in sketch.windowed.iter().zip(&exact.windowed) {
            assert_eq!(s.arrivals, e.arrivals);
            assert_eq!(s.completions, e.completions);
            assert_eq!(s.attainment, e.attainment);
            assert_eq!(s.goodput_rps, e.goodput_rps);
            assert_eq!(s.ttft.is_some(), e.ttft.is_some());
            if let (Some(sk), Some(ex)) = (s.ttft, e.ttft) {
                for (a, b) in [(sk.p50, ex.p50), (sk.p90, ex.p90), (sk.max, ex.max)] {
                    assert!((a - b).abs() <= (b.abs() * 0.01).max(1e-9));
                }
            }
        }
        // The streaming fold consumes per-replica reports, but its
        // output is push-order-invariant: byte-identical across
        // `--jobs`.
        assert_eq!(
            sketch,
            ctl.with_summary(SummaryMode::Sketch)
                .run_with(&SweepRunner::new(4), &build, &reqs)
        );
    }

    #[test]
    fn empty_trace_yields_one_quiet_window() {
        let build = builder();
        let ctl = AutoscaleController::new(cfg(10.0, 5.0, 4), ScalingPolicy::reactive_default());
        let report = ctl.run_with(&SweepRunner::serial(), &build, &[]);
        assert_eq!(report.windows.len(), 1);
        assert_eq!(report.fleet.stats.requests, 0);
        assert_eq!(report.peak_replicas, 1);
        assert!(report.fleet.latency.is_none());
        assert_eq!(report.windows[0].est_attainment, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid autoscale config")]
    fn bad_config_rejected() {
        AutoscaleController::new(
            AutoscaleConfig { window_s: 0.0, ..AutoscaleConfig::default() },
            ScalingPolicy::reactive_default(),
        );
    }

    /// One kill event at `t_s` (victim chosen by `pick` over the live
    /// set), with replacement spawns on or off.
    fn kill_at(t_s: f64, pick: u64, replace: bool) -> FaultSchedule {
        FaultSchedule {
            events: vec![FaultEvent { t_s, kind: FaultKind::KillReplica { pick } }],
            groups: 1,
            detect_s: 2.0,
            retry: RetryPolicy::default(),
            replace_failures: replace,
        }
    }

    #[test]
    fn empty_fault_schedule_reproduces_the_plain_run() {
        let build = builder();
        let reqs = traced(60, 3.0, 9);
        for policy in [ScalingPolicy::Static { n: 2 }, ScalingPolicy::reactive_default()] {
            let ctl = AutoscaleController::new(cfg(5.0, 6.0, 6), policy);
            let plain = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
            let faulted = ctl.run_faulted_with(
                &SweepRunner::serial(),
                &build,
                &reqs,
                &FaultSchedule::none(),
            );
            assert_eq!(plain, faulted, "{policy}");
            assert_eq!(plain.availability.offered, 60);
            assert_eq!(plain.availability.attempts, 60);
            assert_eq!(plain.availability.failed, 0);
            assert_eq!(plain.availability.retries, 0);
            assert!((plain.availability.retry_amplification() - 1.0).abs() < 1e-12);
            assert!(plain.fleet.timeline.iter().all(|t| t.attempts == 1));
        }
    }

    #[test]
    fn kill_requeues_lost_work_and_conserves_requests() {
        let build = builder();
        let reqs = traced(80, 3.0, 13);
        let ctl = AutoscaleController::new(cfg(5.0, 4.0, 6), ScalingPolicy::Static { n: 2 });
        let report =
            ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &kill_at(8.0, 1, true));
        let a = &report.availability;
        assert_eq!(a.replicas_killed, 1);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].group.is_none());
        assert!((report.failures[0].t_s - 8.0).abs() < 1e-12);
        // Conservation: nothing silently dropped.
        assert_eq!(a.completed + a.failed, a.offered);
        assert_eq!(a.attempts, a.completed + a.lost_attempts);
        assert!(a.lost_attempts > 0, "an 8s-in kill must catch in-flight work");
        assert!(a.retries > 0);
        assert!(a.retry_amplification() > 1.0);
        // The killed replica's lifecycle stops at the kill.
        let killed: Vec<&ReplicaLifecycle> =
            report.lifecycles.iter().filter(|l| l.killed_s.is_some()).collect();
        assert_eq!(killed.len(), 1);
        assert!((killed[0].end_s - 8.0).abs() < 1e-12);
        // Surviving retries fold back onto the original request: the
        // timeline keeps first arrivals and counts the attempts.
        assert!(report.fleet.timeline.iter().any(|t| t.attempts > 1));
        let ids: Vec<u64> = report.fleet.timeline.iter().map(|t| t.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids unique and sorted");
        // Replacement restored the static fleet: more lifecycles than
        // the initial provision, and the window signals saw the kill.
        assert!(report.lifecycles.len() > 2);
        assert!(report.windows.iter().map(|w| w.failures).sum::<usize>() == 1);
    }

    #[test]
    fn replacement_recovers_a_full_outage_and_a_bare_fleet_does_not() {
        let build = builder();
        let reqs = traced(60, 2.0, 17);
        let outage = |replace: bool| FaultSchedule {
            events: vec![FaultEvent { t_s: 10.0, kind: FaultKind::GroupOutage { group: 0 } }],
            groups: 1, // one group == everyone: the whole fleet dies
            detect_s: 2.0,
            retry: RetryPolicy::default(),
            replace_failures: replace,
        };
        let ctl = AutoscaleController::new(cfg(5.0, 4.0, 6), ScalingPolicy::Static { n: 2 });
        let repaired =
            ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &outage(true));
        let bare = ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &outage(false));
        // Without replacement the fleet stays dark: every request
        // after the outage exhausts its retries and fails, and the
        // fleet accrues unavailability. With replacement, spawns
        // restore service after warm-up and most requests complete.
        assert_eq!(bare.availability.completed + bare.availability.failed, 60);
        assert!(bare.availability.failed > 0, "a dead fleet must fail requests");
        assert!(bare.availability.unavailability_s > 0.0);
        assert_eq!(repaired.availability.completed + repaired.availability.failed, 60);
        assert!(
            repaired.availability.completed > bare.availability.completed,
            "replacement must recover requests: {} vs {}",
            repaired.availability.completed,
            bare.availability.completed
        );
        assert!(repaired.attainment() > bare.attainment());
        assert_eq!(repaired.availability.replicas_killed, 2);
        assert_eq!(repaired.failures.len(), 2);
        assert!(repaired.failures.iter().all(|f| f.group == Some(0)));
        // Per-window accepting capacity dips to zero during the
        // outage, then recovers only in the repaired run.
        let cap = &repaired.availability.window_capacity_s;
        assert_eq!(cap.len(), repaired.windows.len());
        assert!(cap.iter().any(|&c| c == 0.0), "outage must zero a window: {cap:?}");
        assert!(cap.iter().rev().any(|&c| c > 0.0));
    }

    #[test]
    fn faulted_report_is_runner_invariant() {
        let build = builder();
        let reqs = traced(70, 3.0, 19);
        for policy in [ScalingPolicy::Static { n: 2 }, ScalingPolicy::reactive_default()] {
            let ctl = AutoscaleController::new(cfg(5.0, 5.0, 6), policy);
            let faults = kill_at(6.0, 0, true);
            let serial = ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &faults);
            let parallel = ctl.run_faulted_with(&SweepRunner::new(4), &build, &reqs, &faults);
            assert_eq!(serial, parallel, "{policy}");
        }
    }

    /// Live routing drives the controller from measured state: the
    /// run completes every request, stays runner-invariant, and the
    /// boundary queue-depth signal is the measured unfinished count
    /// (integral, unlike the fluid estimate).
    #[test]
    fn live_routing_serves_and_observes_measured_depth() {
        let build = builder();
        let reqs = traced(40, 3.0, 21);
        for router in [RouterPolicy::JoinShortestQueueLive, RouterPolicy::LeastWorkLive] {
            let config = AutoscaleConfig { router, ..cfg(5.0, 4.0, 6) };
            let ctl = AutoscaleController::new(config, ScalingPolicy::Static { n: 2 });
            let serial = ctl.run_with(&SweepRunner::serial(), &build, &reqs);
            let parallel = ctl.run_with(&SweepRunner::new(4), &build, &reqs);
            assert_eq!(serial, parallel, "{router} diverged across job counts");
            assert_eq!(serial.fleet.timeline.len(), 40, "{router}");
            assert_eq!(serial.availability.failed, 0, "{router}");
            // Measured depth is a count of requests: integral, and
            // positive somewhere under 3 rps against ~2.5 rps of
            // fleet capacity.
            assert!(
                serial.windows.iter().all(|w| w.queue_depth.fract() == 0.0),
                "{router}: measured depth must be integral"
            );
            assert!(
                serial.windows.iter().any(|w| w.queue_depth > 0.0),
                "{router}: backlog must be visible somewhere"
            );
        }
    }

    /// A kill under live routing loses exactly the measured in-flight
    /// set; conservation and fold-back hold as in estimated mode, and
    /// the run stays runner-invariant.
    #[test]
    fn live_routing_kill_conserves_requests() {
        let build = builder();
        let reqs = traced(60, 3.0, 23);
        let config =
            AutoscaleConfig { router: RouterPolicy::JoinShortestQueueLive, ..cfg(5.0, 4.0, 6) };
        let ctl = AutoscaleController::new(config, ScalingPolicy::Static { n: 2 });
        let faults = kill_at(8.0, 1, true);
        let report = ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &faults);
        let a = &report.availability;
        assert_eq!(a.replicas_killed, 1);
        assert_eq!(a.completed + a.failed, a.offered);
        assert_eq!(a.attempts, a.completed + a.lost_attempts);
        assert!(a.lost_attempts > 0, "an 8s-in kill must catch measured in-flight work");
        let parallel = ctl.run_faulted_with(&SweepRunner::new(4), &build, &reqs, &faults);
        assert_eq!(report, parallel);
    }

    /// During a full outage with replacement, arrivals park until the
    /// replacement warms instead of burning retry attempts: the
    /// parked requests complete with `attempts == 1`.
    #[test]
    fn dark_fleet_arrivals_buffer_until_a_replica_warms() {
        let build = builder();
        let reqs = traced(40, 2.0, 25);
        let outage = FaultSchedule {
            events: vec![FaultEvent { t_s: 6.0, kind: FaultKind::GroupOutage { group: 0 } }],
            groups: 1,
            detect_s: 2.0,
            retry: RetryPolicy::default(),
            replace_failures: true,
        };
        let ctl = AutoscaleController::new(cfg(5.0, 4.0, 6), ScalingPolicy::Static { n: 2 });
        let report = ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &outage);
        let a = &report.availability;
        assert_eq!(a.completed + a.failed, a.offered);
        // The replacement spawns at the t=10 boundary and warms by
        // t=14; arrivals in the dark stretch after the spawn park and
        // then complete as first attempts (served late, not retried).
        let parked_and_served = report
            .fleet
            .timeline
            .iter()
            .filter(|t| t.attempts == 1 && t.arrival_s > 10.0 && t.first_token_s >= 14.0)
            .count();
        assert!(
            parked_and_served > 0,
            "arrivals during the warm-up stretch must park, then complete untried"
        );
    }

    #[test]
    fn ratio_paths_stay_finite_on_empty_and_degenerate_runs() {
        let build = builder();
        let ctl = AutoscaleController::new(cfg(10.0, 5.0, 4), ScalingPolicy::reactive_default());
        let report = ctl.run_with(&SweepRunner::serial(), &build, &[]);
        assert_eq!(report.attainment(), 0.0);
        assert_eq!(report.goodput_rps(), 0.0);
        assert!(report.mean_replicas().is_finite());
        assert!((report.availability.retry_amplification() - 1.0).abs() < 1e-12);
        assert!(report.availability.unavailability_s == 0.0);
        // A synthetic zero-horizon report cannot divide by zero.
        let mut degenerate = report.clone();
        degenerate.horizon_s = 0.0;
        degenerate.replica_seconds = 0.0;
        assert_eq!(degenerate.mean_replicas(), 0.0);
        assert!(degenerate.attainment().is_finite());
    }

    /// Telemetry never perturbs the trajectory: an instrumented run's
    /// report equals the plain run's, its recorded bytes are
    /// `--jobs`-invariant, and `Instrument::off()` records nothing.
    #[test]
    fn instrumented_run_records_and_stays_jobs_invariant() {
        let build = builder();
        let reqs = traced(60, 3.0, 27);
        let faults = kill_at(8.0, 1, true);
        for router in [RouterPolicy::JoinShortestQueue, RouterPolicy::JoinShortestQueueLive] {
            let config = AutoscaleConfig { router, ..cfg(5.0, 4.0, 6) };
            let ctl = AutoscaleController::new(config, ScalingPolicy::reactive_default());
            let plain = ctl.run_faulted_with(&SweepRunner::serial(), &build, &reqs, &faults);

            let mut off = seesaw_telemetry::Instrument::off();
            let quiet = ctl.run_faulted_instrumented_with(
                &SweepRunner::serial(),
                &build,
                &reqs,
                &faults,
                &mut off,
            );
            assert_eq!(plain, quiet, "{router}: off instrument must not perturb the run");
            assert!(off.recorder.spans().is_empty() && off.recorder.instants().is_empty());
            assert!(off.metrics.is_empty());

            let run = |jobs: Option<usize>| {
                let runner = jobs.map_or_else(SweepRunner::serial, SweepRunner::new);
                let mut instr = seesaw_telemetry::Instrument::tracing();
                let report =
                    ctl.run_faulted_instrumented_with(&runner, &build, &reqs, &faults, &mut instr);
                let trace = seesaw_telemetry::perfetto::render(&instr.recorder, "autoscale");
                (report, trace, instr.metrics.render_json())
            };
            let (r1, t1, m1) = run(None);
            let (r4, t4, m4) = run(Some(4));
            assert_eq!(r1, plain, "{router}: telemetry must not perturb the run");
            assert_eq!(r1, r4, "{router}");
            assert_eq!(t1, t4, "{router}: trace bytes must be jobs-invariant");
            assert_eq!(m1, m4, "{router}: metric bytes must be jobs-invariant");
            assert!(t1.contains("\"kill r"), "{router}: kill marker recorded");
            assert!(t1.contains("window 0"), "{router}: window spans recorded");
            assert!(t1.contains("route "), "{router}: route instants recorded");
            assert!(t1.contains("req "), "{router}: request spans recorded");
        }
    }

    /// The wall-time profile attributes most of the controller's run
    /// and counts projections only where a forward-looking signal is
    /// read: `least-work-live` projects, `jsq-live` (depth reads only)
    /// and estimated routing never do.
    #[test]
    fn profile_attributes_controller_time() {
        let build = builder();
        let reqs = traced(60, 3.0, 29);
        let live = |router| {
            let config = AutoscaleConfig { router, ..cfg(5.0, 4.0, 6) };
            let ctl = AutoscaleController::new(config, ScalingPolicy::Static { n: 2 });
            let (report, profile) = ctl.run_profiled_with(&SweepRunner::serial(), &build, &reqs);
            assert_eq!(report, ctl.run_with(&SweepRunner::serial(), &build, &reqs));
            (report, profile)
        };
        let (_, work) = live(RouterPolicy::LeastWorkLive);
        assert!(work.replays > 0, "least-work-live reads projected work");
        assert!(work.replayed_requests >= work.replays);
        let (report, profile) = live(RouterPolicy::JoinShortestQueueLive);
        assert_eq!(profile.windows, report.windows.len());
        assert_eq!(profile.dispatches, 60);
        assert_eq!(profile.replays, 0, "jsq-live reads depths without projecting");
        assert_eq!(profile.replayed_requests, 0);
        assert!(profile.total_s > 0.0);
        assert!(profile.replay_s > 0.0, "depth reads are timed");
        assert!(profile.engine_s > 0.0);
        assert!(
            profile.coverage() > 0.8,
            "phases must explain the run: {:.1}% of {:.4}s",
            100.0 * profile.coverage(),
            profile.total_s
        );

        // Estimated routing never replays; the counters stay zero.
        let est = AutoscaleController::new(cfg(5.0, 4.0, 6), ScalingPolicy::Static { n: 2 });
        let (_, p2) = est.run_profiled_with(&SweepRunner::serial(), &build, &reqs);
        assert_eq!(p2.replays, 0);
        assert_eq!(p2.replayed_requests, 0);
        assert_eq!(p2.replay_s, 0.0);
    }
}
