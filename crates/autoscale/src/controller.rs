//! The autoscaling controller: replay a long arrival trace through a
//! time-sliced elastic fleet, growing and shrinking the replica count
//! online.
//!
//! The replay is one loop on one global clock that merges three
//! time-sorted sources: the fault schedule's kills and the trace's
//! base arrivals, each read by a cursor, and a
//! [`seesaw_sim::EventQueue`] that holds only the retry and resume
//! dispatches still pending. At one instant a kill runs before an
//! arrival and an arrival before a redispatch. Each event goes to a
//! small named handler, so the controller's state is O(pending
//! events), not O(trace). Time advances in fixed control windows: the
//! loop pops every event before the window end, then closes the
//! window. A dispatch takes the fleet tier's [`Dispatch`] step over the
//! replicas *currently accepting traffic* (warm, not retiring): it
//! routes, records the route and pushes the request to the chosen
//! replica's engine actor, so the actors run on the replay's clock. At
//! the window boundary the controller reads its signals — queue depth,
//! offered load, estimated utilization, estimated TTFT attainment —
//! and lets the [`ScalingPolicy`] propose an action, subject to its
//! cooldown:
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
//! A kill, under every policy, takes the victim out of the dispatch and
//! finishes its actor at the kill instant (nothing can reach a dead
//! replica, so that run is final), losing exactly the attempts it had
//! not completed by then. Decisions are serial in event order, so the
//! trajectory is deterministic and independent of the [`SweepRunner`];
//! the surviving actors finish in parallel and merge into an ordinary
//! [`FleetReport`] judged by measured (not estimated) latency. A
//! [`ScalingPolicy::Static`] trajectory never scales, so the elastic
//! run collapses byte-for-byte onto the fixed [`seesaw_fleet::Fleet`]
//! of the same size, which takes the same step.

use crate::alert::{AlertEngine, AlertEvent, AlertKind, AlertRule};
use crate::faults::{
    accepting_capacity_per_window, unavailability_s, AvailabilityStats, FailureEvent,
    FaultKind, FaultSchedule,
};
use crate::policy::{ScaleDecision, ScalingPolicy};
use seesaw_engine::driver::assert_arrivals_sorted;
use seesaw_engine::online::mean_lengths;
use seesaw_engine::{EngineReport, OnlineEngine, ServiceRates, SweepRunner};
use seesaw_fleet::sweep::ReplicaBuilder;
use seesaw_fleet::telemetry::{record_request_spans, register_replica_track, register_tracks};
use seesaw_fleet::{Dispatch, FleetReport, Routed, RouterPolicy};
use seesaw_sim::{EventQueue, SimTime};
use seesaw_telemetry::{fmt_secs, ControllerProfile, Instrument, ALERT_TRACK, CONTROLLER_TRACK};
use seesaw_workload::{windowed_metrics, LatencyStats, Request, SloSpec, WindowMetrics};
use std::cell::OnceCell;
use std::time::Instant;

/// Elapsed seconds of an optional phase-timer start (0 when the timer
/// never started — profiling off).
fn lap(start: Option<Instant>) -> f64 {
    start.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Control windows a replay covers before any drain tail: those up to
/// and including the one holding the last arrival, at
/// `last_arrival_s`. An arrival at exactly `k · window_s` opens window
/// `k`. A ratio past `usize` saturates.
pub fn base_windows(last_arrival_s: f64, window_s: f64) -> usize {
    ((last_arrival_s / window_s) as usize).saturating_add(1)
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

/// The signals a policy sees at one window boundary — the kind a
/// production autoscaler has before any request finishes: estimated
/// work and wait, plus the measured queue under a live routing policy.
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
    /// Burn-rate alert transitions of [`AlertRule::default`] over the
    /// measured window axis, in window order.
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

/// One replica's controller-side state during the replay.
struct ReplicaState<'e> {
    engine: &'e dyn OnlineEngine,
    /// A killed replica's report, finished at the kill and keeping
    /// only the completions up to it.
    report: Option<EngineReport>,
    rates: ServiceRates,
    spawn_s: f64,
    ready_s: f64,
    retire_s: Option<f64>,
    killed_s: Option<f64>,
    /// Dispatch attempts routed here (lost ones included).
    dispatched: usize,
    /// Those attempts in dispatch order, kept only while faults can
    /// strike: a kill requeues the ones it catches in this order, so
    /// equal-time retries pop in the order they were dispatched, and
    /// every retry or resume that completes is folded back onto its
    /// request from here.
    stream: Vec<Attempt>,
}

/// A dispatch attempt and its origin: attempt `attempt` of
/// `requests[idx]`, under id `id` (the request's own id for a first
/// attempt, a fresh one for a retry or resume). Request indices fit in
/// `u32`, checked at construction.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: u64,
    idx: u32,
    attempt: u32,
}

impl<'e> ReplicaState<'e> {
    /// Replica `engine`, provisioned at `spawn_s`, ready at `ready_s`,
    /// priced at the trace's mean `(input, output)` lengths.
    fn new(engine: &'e dyn OnlineEngine, avg: (usize, usize), spawn_s: f64, ready_s: f64) -> Self {
        ReplicaState {
            engine,
            report: None,
            rates: engine.service_rates(avg.0, avg.1),
            spawn_s,
            ready_s,
            retire_s: None,
            killed_s: None,
            dispatched: 0,
            stream: Vec::new(),
        }
    }

    fn live(&self) -> bool {
        self.retire_s.is_none() && self.killed_s.is_none()
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

/// One event of the replay. Kills and arrivals are read in order from
/// the fault schedule and the trace; only redispatches wait in the
/// event queue. Ties at one instant run a kill first, then an arrival,
/// then a redispatch, the order in which an up-front queue of every
/// kill, then every arrival, then each redispatch as it is scheduled
/// would pop them. So a request arriving exactly at a kill already
/// finds the replica gone, a base arrival runs before a retry, and
/// equal-time redispatches run in the order they were scheduled (the
/// queue is FIFO there). Window close runs before anything at the
/// window end, because the loop only takes events strictly inside the
/// window.
enum Event {
    /// `faults.events[i]` strikes.
    Kill(usize),
    /// First dispatch of `requests[i]`.
    Arrival(usize),
    /// A later dispatch of `requests[idx]` under the fresh attempt id
    /// `id`: a retry of lost work, or — with `resume` — a parked
    /// attempt continuing once a warming replica is ready (the same
    /// attempt: it waited out an outage, it did not fail).
    Redispatch { id: u64, idx: usize, attempt: u32, resume: bool },
}

/// Per-window accumulators, reset when the window closes.
#[derive(Default)]
struct WindowTally {
    arrivals: usize,
    est_work_s: f64,
    waits_ok: usize,
    failures: usize,
}

/// The state of one elastic replay: the shared [`Dispatch`] step (router,
/// replica actors, assignment), each replica's elastic state and the
/// event queue, plus the counters the report is built from.
struct Replay<'a> {
    ctl: &'a AutoscaleController,
    build: ReplicaBuilder<'a>,
    engines: &'a EngineArena,
    requests: &'a [Request],
    faults: &'a FaultSchedule,
    instr: &'a mut Instrument,
    /// Deterministic telemetry on (every recording site branches on it).
    telemetry: bool,
    /// Decisions read measured replica state (the engine actors).
    live_routing: bool,
    /// Faults are scheduled: only then can the fleet go dark or a
    /// retry need folding back onto its request.
    injecting: bool,
    /// Mean `(input, output)` lengths of the trace: what replica
    /// service rates are estimated at.
    avg_lengths: (usize, usize),
    /// Signal calibration: the roofline estimates are steady-state
    /// optimistic, so they are scaled such that the mean request costs
    /// exactly `1 / capacity_rps` seconds of replica time — the
    /// *measured* cost. The router keeps the raw estimates (their
    /// relative order is what routing needs, and it keeps Static
    /// trajectories byte-identical to the fixed fleet tier).
    calib: f64,
    /// Next kill in `faults.events`.
    next_kill: usize,
    /// Next base arrival in `requests`.
    next_arrival: usize,
    /// Pending retries and resumes.
    queue: EventQueue<Event>,
    replicas: Vec<ReplicaState<'a>>,
    dispatch: Dispatch<'a>,
    /// The next retry or resume id. The first is one past the largest
    /// request id; each park or requeue takes the next in sequence.
    next_attempt_id: u64,
    /// `(projections, requests they re-simulated)` of the actors
    /// finished at their kill.
    killed_projections: (u64, u64),
    failures: Vec<FailureEvent>,
    attempts: usize,
    retries: usize,
    lost_attempts: usize,
    failed: usize,
    replicas_killed: usize,
    /// The replica count the policy last asked for — what replacement
    /// spawns restore toward after kills.
    desired: usize,
    windows: Vec<WindowSignals>,
    events: Vec<ScaleEvent>,
    peak_replicas: usize,
    windows_since_event: usize,
    /// Replicas accepting traffic (live and ready), sorted by index.
    accepting: Vec<usize>,
    /// Live replicas not yet moved into `accepting`: warming ones, and
    /// ones whose ready time passed since the set was last brought up
    /// to date.
    warming: Vec<usize>,
    /// Events handled, parks, and attempts lost at dispatch
    /// (profiling counters).
    events_handled: u64,
    parks: u64,
    lost_at_dispatch: u64,
    /// Calibrated fluid backlog: outstanding replica-seconds of work,
    /// drained at one second per accepting replica-second.
    backlog_s: f64,
    backlog_t: f64,
    tally: WindowTally,
    /// Host time spent reading live replica state (actor advances and
    /// projections); gated on `instr.profiling` like every phase timer.
    replay_s: f64,
}

impl<'a> Replay<'a> {
    fn new(
        ctl: &'a AutoscaleController,
        build: ReplicaBuilder<'a>,
        engines: &'a EngineArena,
        requests: &'a [Request],
        faults: &'a FaultSchedule,
        instr: &'a mut Instrument,
    ) -> Self {
        let cfg = ctl.config;
        let n0 = ctl.policy.initial_replicas(cfg.min_replicas, cfg.max_replicas);
        assert!(u32::try_from(requests.len()).is_ok(), "more than u32::MAX requests");
        let avg_lengths = mean_lengths(requests);
        // The initial fleet starts warm.
        let replicas: Vec<ReplicaState<'a>> = (0..n0)
            .map(|i| ReplicaState::new(engines.push(build(i)), avg_lengths, 0.0, 0.0))
            .collect();
        let actors = replicas.iter().map(|r| r.engine.actor(0.0)).collect();
        let mut replay = Replay {
            ctl,
            build,
            engines,
            requests,
            faults,
            telemetry: instr.telemetry_on(),
            instr,
            live_routing: cfg.router.needs_live_state(),
            injecting: !faults.events.is_empty(),
            avg_lengths,
            // Set below, from the first initial replica's rates.
            calib: 0.0,
            next_kill: 0,
            next_arrival: 0,
            queue: EventQueue::new(),
            replicas,
            dispatch: Dispatch::new(cfg.router, actors, requests.len()),
            next_attempt_id: requests.iter().map(|r| r.id).max().unwrap_or(0).saturating_add(1),
            killed_projections: (0, 0),
            failures: Vec::new(),
            attempts: 0,
            retries: 0,
            lost_attempts: 0,
            failed: 0,
            replicas_killed: 0,
            desired: n0,
            windows: Vec::new(),
            events: Vec::new(),
            peak_replicas: n0,
            windows_since_event: ctl.policy.cooldown_windows(),
            accepting: (0..n0).collect(),
            warming: Vec::new(),
            events_handled: 0,
            parks: 0,
            lost_at_dispatch: 0,
            backlog_s: 0.0,
            backlog_t: 0.0,
            tally: WindowTally::default(),
            replay_s: 0.0,
        };
        if replay.telemetry {
            let labels: Vec<String> = replay.replicas.iter().map(|r| r.engine.label()).collect();
            let name = format!("router ({})", cfg.router);
            register_tracks(&mut replay.instr.recorder, &name, &labels);
        }
        let (avg_in, avg_out) = replay.avg_lengths;
        let mean_req = Request::new(u64::MAX, avg_in, avg_out);
        replay.calib =
            1.0 / (cfg.capacity_rps * replay.replicas[0].rates.est_service_s(&mean_req));
        replay
    }

    fn cfg(&self) -> &AutoscaleConfig {
        &self.ctl.config
    }

    /// A fresh id for a retry or resume.
    fn attempt_id(&mut self) -> u64 {
        let id = self.next_attempt_id;
        assert!(id < u64::MAX, "attempt ids exhausted");
        self.next_attempt_id += 1;
        id
    }

    /// Replay every window, popping each window's events into their
    /// handlers before closing it. Windows extend past the trace while
    /// retries or faults are still pending — the drain tail of a
    /// failure near the trace end must still be replayed, not dropped.
    fn run(&mut self) {
        let window_s = self.cfg().window_s;
        let last_arrival = self.requests.last().map_or(0.0, |r| r.arrival_s);
        let base_windows = base_windows(last_arrival, window_s);
        self.windows.reserve(base_windows);
        let mut w = 0usize;
        while w < base_windows || self.pending() {
            let t0 = w as f64 * window_s;
            let t1 = t0 + window_s;
            while let Some((at, event)) = self.next_event(t1) {
                self.events_handled += 1;
                match event {
                    Event::Kill(i) => self.kill(i),
                    Event::Arrival(idx) => self.dispatch(self.requests[idx], idx, 1),
                    Event::Redispatch { id, idx, attempt, resume } => {
                        self.redispatch(at, id, idx, attempt, resume)
                    }
                }
            }
            self.close_window(w, t0, t1);
            w += 1;
        }
    }

    /// Whether any kill, arrival or redispatch is still to come.
    fn pending(&self) -> bool {
        self.next_kill < self.faults.events.len()
            || self.next_arrival < self.requests.len()
            || !self.queue.is_empty()
    }

    /// Take the earliest pending event due before `t1`, with its time:
    /// the three sources merged, ties going to the kill, then the
    /// arrival, then the redispatch.
    fn next_event(&mut self, t1: f64) -> Option<(f64, Event)> {
        let kill = self.faults.events.get(self.next_kill).map(|e| e.t_s);
        let arrival = self.requests.get(self.next_arrival).map(|r| r.arrival_s);
        let redispatch = self.queue.peek_time().map(SimTime::as_secs);
        // `min_by` keeps the first of equal minima: source order.
        let (source, at) = [kill, arrival, redispatch]
            .into_iter()
            .enumerate()
            .filter_map(|(source, t)| Some((source, t?)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        if at >= t1 {
            return None;
        }
        let event = match source {
            0 => {
                self.next_kill += 1;
                Event::Kill(self.next_kill - 1)
            }
            1 => {
                self.next_arrival += 1;
                Event::Arrival(self.next_arrival - 1)
            }
            _ => self.queue.pop().expect("peeked a redispatch").1,
        };
        Some((at, event))
    }

    /// Fault `faults.events[fault]` strikes: kill its victims.
    fn kill(&mut self, fault: usize) {
        let event = self.faults.events[fault];
        let candidates: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| self.replicas[i].live())
            .collect();
        let (victims, group) = match event.kind {
            FaultKind::KillReplica { pick } => {
                let victim = (!candidates.is_empty())
                    .then(|| candidates[(pick % candidates.len() as u64) as usize]);
                (Vec::from_iter(victim), None)
            }
            FaultKind::GroupOutage { group } => (
                candidates.into_iter().filter(|i| i % self.faults.groups == group).collect(),
                Some(group),
            ),
        };
        for v in victims {
            self.kill_replica(v, event.t_s, group);
        }
    }

    /// Kill replica `v` at `tk`. Attempts done by the kill instant
    /// survived; everything else on the replica is lost and requeued
    /// (or failed).
    fn kill_replica(&mut self, v: usize, tk: f64, group: Option<usize>) {
        self.replicas[v].killed_s = Some(tk);
        self.stop_accepting(v);
        self.replicas_killed += 1;
        self.tally.failures += 1;
        let lost = self.finish_victim(v, tk);
        self.lost_attempts += lost.len();
        self.failures.push(FailureEvent { t_s: tk, replica: v, group, lost_attempts: lost.len() });
        if self.telemetry {
            self.instr.recorder.instant(
                CONTROLLER_TRACK,
                &format!("kill r{v}"),
                tk,
                &[
                    ("lost_attempts", lost.len().to_string()),
                    ("group", group.map_or_else(|| "-".into(), |g| g.to_string())),
                ],
            );
            self.instr.metrics.counter_add("autoscale.kills", 1);
        }
        for (a, done) in lost {
            let idx = a.idx as usize;
            let work = self.calib * self.replicas[v].rates.est_service_s(&self.requests[idx]);
            // The unserved remainder of the lost work leaves the fluid
            // backlog; the retry re-adds its full cost when dispatched.
            self.backlog_s = (self.backlog_s - work.min(done - tk)).max(0.0);
            self.requeue_or_fail(tk, idx, a.attempt);
        }
    }

    /// Take victim `v` out of the dispatch and finish its actor at its
    /// kill instant `tk`: nothing more reaches it, so its run is final.
    /// Keep the completions up to `tk`, folded onto their requests, as
    /// its report and return the attempts it had not completed, with
    /// their measured completion, in dispatch order.
    fn finish_victim(&mut self, v: usize, tk: f64) -> Vec<(Attempt, f64)> {
        let start = self.instr.profiling.then(Instant::now);
        let actor = self.dispatch.take(v);
        let rep = &mut self.replicas[v];
        let (projections, reprojected) = actor.projection_counts();
        self.killed_projections.0 += projections;
        self.killed_projections.1 += reprojected;
        let mut report = actor.finish();
        let lost = fold_attempts(&mut report, std::mem::take(&mut rep.stream), tk, self.requests);
        rep.report = Some(report);
        self.replay_s += lap(start);
        lost
    }

    /// Requeue attempt `attempt` of `requests[idx]`, lost at
    /// `lost_at_s`, after the detection delay and backoff — or count
    /// the request failed when its budget (attempts or deadline) is
    /// exhausted.
    fn requeue_or_fail(&mut self, lost_at_s: f64, idx: usize, attempt: u32) {
        let retry = self.faults.retry;
        let attempt = attempt + 1;
        let retry_at = lost_at_s + self.faults.detect_s + retry.backoff_s(attempt);
        if attempt > retry.max_attempts
            || retry_at - self.requests[idx].arrival_s > retry.deadline_s
        {
            self.failed += 1;
            return;
        }
        let id = self.attempt_id();
        let event = Event::Redispatch { id, idx, attempt, resume: false };
        self.queue.push(SimTime::from_secs(retry_at), event);
    }

    /// A retry or resume comes due at `at`.
    fn redispatch(&mut self, at: f64, id: u64, idx: usize, attempt: u32, resume: bool) {
        let orig = &self.requests[idx];
        let req = Request::new(id, orig.input_len, orig.output_len).with_arrival(at);
        if !resume {
            self.retries += 1;
            if self.telemetry {
                self.instr.recorder.instant(
                    CONTROLLER_TRACK,
                    &format!("retry req {}", orig.id),
                    at,
                    &[("attempt", attempt.to_string())],
                );
                self.instr.metrics.counter_add("autoscale.retry_dispatches", 1);
            }
        }
        self.dispatch(req, idx, attempt);
    }

    /// Route dispatch attempt `attempt` of `requests[idx]` (carried by
    /// `req`) among the accepting replicas through the [`Dispatch`]
    /// step, which pushes it to the chosen replica's actor; park it when
    /// every replica is dark.
    fn dispatch(&mut self, req: Request, idx: usize, attempt: u32) {
        let now = req.arrival_s;
        self.admit_ready(now);
        if self.accepting.is_empty() {
            return self.park(req, idx, attempt);
        }
        self.attempts += 1;
        let accepting = self.accepting.len() as f64;
        self.backlog_s = (self.backlog_s - (now - self.backlog_t) * accepting).max(0.0);
        self.backlog_t = now;
        let live = self.read_live(now);
        let replicas = &self.replicas;
        let est = |i: usize, r: &Request| replicas[i].rates.est_service_s(r);
        let rec = &mut self.instr.recorder;
        let routed = self.dispatch.route(idx, &req, &self.accepting, &live, est, rec);
        if self.telemetry {
            self.record_route(&routed);
        }
        let rep = &mut self.replicas[routed.replica];
        let work = self.calib * rep.rates.est_service_s(&req);
        rep.dispatched += 1;
        if self.injecting {
            rep.stream.push(Attempt { id: req.id, idx: idx as u32, attempt });
        }
        self.tally.waits_ok +=
            usize::from(self.backlog_s / accepting <= self.cfg().slo.ttft_s);
        self.backlog_s += work;
        self.tally.est_work_s += work;
        self.tally.arrivals += 1;
    }

    /// Measured state of each accepting replica at `now`
    /// ([`Dispatch::read_live`]), timed as live-state replay; empty
    /// under estimated policies.
    fn read_live(&mut self, now: f64) -> Vec<(usize, f64)> {
        if !self.live_routing {
            return Vec::new();
        }
        let start = self.instr.profiling.then(Instant::now);
        let states = self.dispatch.read_live(&self.accepting, now);
        self.replay_s += lap(start);
        states
    }

    /// Count a route decision (its instant is recorded by the
    /// [`Dispatch`] step).
    fn record_route(&mut self, routed: &Routed) {
        let counter = format!("autoscale.route.replica{}", routed.replica);
        self.instr.metrics.counter_add(&counter, 1);
        self.instr.metrics.observe("autoscale.route.est_wait_s", routed.est_wait_s);
    }

    /// Every replica is dark at `req`'s dispatch — only kills can empty
    /// the fleet (`min_replicas` guards the fault-free path). Park the
    /// attempt until the first warming replica becomes ready, so it
    /// waits out the outage instead of burning a retry; with nothing
    /// warming (replacements only spawn at window boundaries) the
    /// attempt is lost at dispatch and requeued like killed work.
    fn park(&mut self, req: Request, idx: usize, attempt: u32) {
        let now = req.arrival_s;
        assert!(self.injecting, "no accepting replica at t={now} (min_replicas guards this)");
        self.backlog_t = now;
        // Nothing accepts, so every live replica is still warming.
        let replicas = &self.replicas;
        let resume =
            self.warming.iter().map(|&i| replicas[i].ready_s).fold(f64::INFINITY, f64::min);
        let orig_id = self.requests[idx].id;
        if resume.is_finite() {
            debug_assert!(resume > now, "a ready live replica would have been accepting");
            self.parks += 1;
            // Same attempt number: parking is not a retry.
            let id = self.attempt_id();
            let event = Event::Redispatch { id, idx, attempt, resume: true };
            self.queue.push(SimTime::from_secs(resume), event);
            if self.telemetry {
                self.instr.recorder.instant(
                    CONTROLLER_TRACK,
                    &format!("park req {orig_id}"),
                    now,
                    &[("resume_s", fmt_secs(resume))],
                );
                self.instr.metrics.counter_add("autoscale.parked", 1);
            }
        } else {
            self.tally.arrivals += 1;
            self.attempts += 1;
            self.lost_attempts += 1;
            self.lost_at_dispatch += 1;
            if self.telemetry {
                let name = format!("lost-at-dispatch req {orig_id}");
                self.instr.recorder.instant(CONTROLLER_TRACK, &name, now, &[]);
            }
            self.requeue_or_fail(now, idx, attempt);
        }
    }

    /// Close window `w` = `[t0, t1)`: observe the boundary signals,
    /// let the policy decide (cooldown-gated), act, and replace killed
    /// capacity.
    fn close_window(&mut self, w: usize, t0: f64, t1: f64) {
        let cfg = *self.cfg();
        let tally = std::mem::take(&mut self.tally);
        let queue_state = self.dispatch.queue_state(t1);
        self.admit_ready(t1);
        let ready = self.accepting.len();
        let provisioned = ready + self.warming.len();
        self.backlog_s = (self.backlog_s - (t1 - self.backlog_t) * ready.max(1) as f64).max(0.0);
        self.backlog_t = t1;
        let signals = WindowSignals {
            t0,
            t1,
            arrivals: tally.arrivals,
            offered_rps: tally.arrivals as f64 / cfg.window_s,
            queue_depth: self.queue_depth(t1),
            est_attainment: if tally.arrivals > 0 {
                tally.waits_ok as f64 / tally.arrivals as f64
            } else {
                1.0
            },
            utilization_est: tally.est_work_s / (ready.max(1) as f64 * cfg.window_s),
            ready,
            provisioned,
            failures: tally.failures,
        };
        let decision = if self.windows_since_event >= self.ctl.policy.cooldown_windows() {
            self.ctl.policy.decide(&signals, cfg.min_replicas, cfg.max_replicas)
        } else {
            ScaleDecision::Hold
        };
        match decision {
            ScaleDecision::Hold => self.windows_since_event += 1,
            ScaleDecision::Up(k) => {
                self.spawn(k, t1);
                self.desired = provisioned + k;
                self.windows_since_event = 0;
                let to = provisioned + k;
                self.scale_event("scale-up", "autoscale.scale_up", t1, provisioned, to);
            }
            ScaleDecision::Down(k) => {
                self.retire(k, t1, &queue_state);
                self.desired = provisioned - k;
                self.windows_since_event = 0;
                let to = provisioned - k;
                self.scale_event("scale-down", "autoscale.scale_down", t1, provisioned, to);
            }
        }
        // Replacement spawns: restore the policy's desired count after
        // kills shrank the live fleet. Recorded as a scale event but
        // does NOT reset the cooldown — replacing lost capacity is
        // repair, not a policy decision.
        if self.faults.replace_failures {
            let live_now = self.accepting.len() + self.warming.len();
            let want = self.desired.clamp(cfg.min_replicas, cfg.max_replicas);
            if live_now < want {
                self.spawn(want - live_now, t1);
                self.scale_event("replace", "autoscale.replacements", t1, live_now, want);
            }
        }
        if self.telemetry {
            self.record_window(w, &signals);
        }
        self.windows.push(signals);
    }

    /// The boundary queue-depth signal at `t1`. Under live routing the
    /// controller observes the *measured* queue: unfinished requests
    /// across accepting replicas, counted exactly by their actors (no
    /// projection); otherwise the calibrated fluid backlog.
    fn queue_depth(&mut self, t1: f64) -> f64 {
        if !self.live_routing {
            return self.backlog_s * self.cfg().capacity_rps;
        }
        let start = self.instr.profiling.then(Instant::now);
        let mut depth = 0usize;
        for &i in &self.accepting {
            depth += self.dispatch.actor(i).depth_at(t1).queue_depth;
        }
        self.replay_s += lap(start);
        depth as f64
    }

    /// Spawn `k` replicas at `at`; they accept traffic after warm-up.
    fn spawn(&mut self, k: usize, at: f64) {
        let engines: &'a EngineArena = self.engines;
        for _ in 0..k {
            let idx = self.replicas.len();
            let engine = engines.push((self.build)(idx));
            let replica = ReplicaState::new(engine, self.avg_lengths, at, at + self.cfg().warmup_s);
            let added = self.dispatch.add(engine.actor(replica.ready_s));
            debug_assert_eq!(added, idx);
            if self.telemetry {
                let label = replica.engine.label();
                register_replica_track(&mut self.instr.recorder, idx, &label);
            }
            self.replicas.push(replica);
            self.warming.push(idx);
        }
    }

    /// Retire the `k` emptiest accepting replicas at `t1` (fastest
    /// drain); ties prefer the newest (LIFO), all deterministic.
    /// The accepting set must be up to date at `t1`.
    fn retire(&mut self, k: usize, t1: f64, queue_state: &[(usize, f64)]) {
        let mut victims = self.accepting.clone();
        victims.sort_by(|&a, &b| {
            let (qa, qb) = (queue_state[a], queue_state[b]);
            qa.0.cmp(&qb.0).then(qa.1.total_cmp(&qb.1)).then(b.cmp(&a))
        });
        for &v in victims.iter().take(k) {
            self.replicas[v].retire_s = Some(t1);
            self.stop_accepting(v);
        }
    }

    /// Bring the accepting set up to date at `now`: move in every
    /// warming replica that is ready by then.
    fn admit_ready(&mut self, now: f64) {
        let (replicas, accepting) = (&self.replicas, &mut self.accepting);
        self.warming.retain(|&i| {
            let ready = replicas[i].ready_s <= now;
            if ready {
                let pos = accepting.binary_search(&i).expect_err("warming is not accepting");
                accepting.insert(pos, i);
            }
            !ready
        });
        debug_assert!(
            self.accepting.iter().copied().eq((0..self.replicas.len())
                .filter(|&i| self.replicas[i].live() && self.replicas[i].ready_s <= now)),
            "the accepting set drifted from the replicas' state"
        );
    }

    /// Replica `v` retired or died: drop it from the accepting or the
    /// warming set.
    fn stop_accepting(&mut self, v: usize) {
        if let Ok(pos) = self.accepting.binary_search(&v) {
            self.accepting.remove(pos);
        } else if let Some(pos) = self.warming.iter().position(|&i| i == v) {
            self.warming.remove(pos);
        }
    }

    /// Log a `from -> to` scale event at `t_s`, named `kind` on the
    /// controller track and counted under `counter`.
    fn scale_event(&mut self, kind: &str, counter: &str, t_s: f64, from: usize, to: usize) {
        self.events.push(ScaleEvent { t_s, from, to });
        self.peak_replicas = self.peak_replicas.max(to);
        if self.telemetry {
            self.instr.recorder.instant(
                CONTROLLER_TRACK,
                &format!("{kind} {from} -> {to}"),
                t_s,
                &[("from", from.to_string()), ("to", to.to_string())],
            );
            self.instr.metrics.counter_add(counter, 1);
        }
    }

    /// Record window `w`'s span and gauges.
    fn record_window(&mut self, w: usize, signals: &WindowSignals) {
        self.instr.recorder.span(
            CONTROLLER_TRACK,
            &format!("window {w}"),
            signals.t0,
            self.ctl.config.window_s,
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
        let metrics = &mut self.instr.metrics;
        let peak = metrics
            .gauge("autoscale.window.queue_depth.max")
            .unwrap_or(0.0)
            .max(signals.queue_depth);
        metrics.gauge_set("autoscale.window.queue_depth.max", peak);
        metrics.observe("autoscale.window.offered_rps", signals.offered_rps);
    }

    /// The trajectory is fixed: finish the replicas' simulations, fold
    /// retries back onto their requests, and build the report.
    /// `loop_s` is the host time of [`Replay::run`], `run_start` the
    /// start of the whole run (both profiling only).
    fn finish(
        mut self,
        runner: &SweepRunner,
        loop_s: f64,
        run_start: Option<Instant>,
    ) -> ElasticFleetReport {
        let cfg = *self.cfg();
        let prof = self.instr.profiling;
        // With no faults the loop runs exactly the base window count,
        // so this equals the fault-free horizon.
        let horizon_s = self.windows.len() as f64 * cfg.window_s;
        // Projections behind the live reads, and the requests they
        // re-simulated (deterministic: they follow the trajectory).
        let (live, killed) = (self.dispatch.projection_counts(), self.killed_projections);
        let (replays, replayed_requests) = (live.0 + killed.0, live.1 + killed.1);
        // Killed replicas finished at their kill; run out the rest.
        let engine_start = prof.then(Instant::now);
        let (finished, assignment) = self.dispatch.finish(runner);
        let mut reports: Vec<EngineReport> = finished
            .into_iter()
            .zip(&mut self.replicas)
            .map(|(f, r)| f.unwrap_or_else(|| r.report.take().expect("a killed replica's report")))
            .collect();
        let engine_s = lap(engine_start);
        debug_assert!(
            self.replicas.iter().zip(&reports).all(|(rep, report)| {
                rep.killed_s.is_none_or(|k| report.timeline.iter().all(|t| t.completion_s <= k))
            }),
            "a killed replica completed a request after its kill"
        );
        let metrics_start = prof.then(Instant::now);
        // Victims folded their rows at the kill; survivors fold theirs
        // now.
        for (rep, report) in self.replicas.iter_mut().zip(&mut reports) {
            if self.injecting && rep.killed_s.is_none() {
                let stream = std::mem::take(&mut rep.stream);
                fold_attempts(report, stream, f64::INFINITY, self.requests);
            }
        }
        let lifecycles: Vec<ReplicaLifecycle> = self
            .replicas
            .iter()
            .zip(&reports)
            .map(|(rep, report)| lifecycle(rep, report, horizon_s))
            .collect();
        let replica_seconds: f64 = lifecycles.iter().map(ReplicaLifecycle::billed_s).sum();
        // Every read of a replica's own timeline is above: the merge
        // moves them all into the fleet's.
        let fleet = FleetReport::from_replica_reports(cfg.router, reports, assignment);
        let windowed = windowed_metrics(&fleet.timeline, cfg.slo, cfg.window_s, horizon_s);
        let alerts = AlertEngine::evaluate(AlertRule::default(), &windowed);
        // Conservation: every offered request either completed or was
        // counted failed — nothing is silently dropped.
        let completed = fleet.timeline.len();
        assert_eq!(
            completed + self.failed,
            self.requests.len(),
            "request conservation: every offered request must complete or be counted failed"
        );
        debug_assert_eq!(self.attempts, completed + self.lost_attempts);
        let availability = AvailabilityStats {
            offered: self.requests.len(),
            attempts: self.attempts,
            completed,
            lost_attempts: self.lost_attempts,
            retries: self.retries,
            failed: self.failed,
            replicas_killed: self.replicas_killed,
            unavailability_s: unavailability_s(&lifecycles, horizon_s),
            window_capacity_s: accepting_capacity_per_window(
                &lifecycles,
                cfg.window_s,
                self.windows.len(),
            ),
        };
        let metrics_s = lap(metrics_start);
        if self.telemetry {
            self.record_run(&fleet, &alerts, &availability, (replays, replayed_requests));
        }
        if prof {
            self.instr.profile.absorb(&ControllerProfile {
                routing_s: (loop_s - self.replay_s).max(0.0),
                replay_s: self.replay_s,
                engine_s,
                metrics_s,
                total_s: lap(run_start),
                windows: self.windows.len(),
                dispatches: self.attempts as u64,
                events: self.events_handled,
                parks: self.parks,
                lost_at_dispatch: self.lost_at_dispatch,
                replays,
                replayed_requests,
            });
        }
        ElasticFleetReport {
            policy: self.ctl.policy,
            config: cfg,
            fleet,
            windows: self.windows,
            events: self.events,
            lifecycles,
            failures: self.failures,
            availability,
            windowed,
            alerts,
            horizon_s,
            replica_seconds,
            peak_replicas: self.peak_replicas,
        }
    }

    /// Record the finished run: request spans, alert transitions, and
    /// the run's registry counters.
    fn record_run(
        &mut self,
        fleet: &FleetReport,
        alerts: &[AlertEvent],
        availability: &AvailabilityStats,
        (replays, replayed_requests): (u64, u64),
    ) {
        record_request_spans(&mut self.instr.recorder, fleet);
        for a in alerts {
            let name = match a.kind {
                AlertKind::Fire => "alert.fire",
                AlertKind::Clear => "alert.clear",
            };
            self.instr.recorder.instant(
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
        let m = &mut self.instr.metrics;
        let fired = alerts.iter().filter(|a| a.kind == AlertKind::Fire).count();
        m.counter_add("autoscale.alerts.fired", fired as u64);
        for (i, rep) in fleet.replicas.iter().enumerate() {
            m.counter_add(&format!("autoscale.requests.replica{i}"), rep.stats.requests as u64);
        }
        m.counter_add("autoscale.windows", self.windows.len() as u64);
        m.counter_add("autoscale.attempts", self.attempts as u64);
        m.counter_add("autoscale.retries", self.retries as u64);
        m.counter_add("autoscale.lost_attempts", self.lost_attempts as u64);
        m.counter_add("autoscale.failed", self.failed as u64);
        m.counter_add("autoscale.replicas_killed", self.replicas_killed as u64);
        m.counter_add("autoscale.scale_events", self.events.len() as u64);
        m.counter_add("autoscale.replay.count", replays);
        m.counter_add("autoscale.replay.requests", replayed_requests);
        m.gauge_set("autoscale.peak_replicas", self.peak_replicas as f64);
        m.gauge_set("autoscale.unavailability_s", availability.unavailability_s);
    }
}

/// Settle a replica's finished `report` against its dispatch `stream`
/// at `until`, its kill instant (infinite for a replica never killed):
/// drop the rows completed after it, and return the attempts not
/// completed by then, with their measured completion, in dispatch
/// order. A kept retry or resume is folded back onto its request: the
/// row takes the request's id and arrival (so e2e spans detection,
/// backoff and requeue) and its attempt number, while the completion
/// stays the surviving attempt's.
fn fold_attempts(
    report: &mut EngineReport,
    stream: Vec<Attempt>,
    until: f64,
    requests: &[Request],
) -> Vec<(Attempt, f64)> {
    let timeline = &mut report.timeline;
    debug_assert!(timeline.windows(2).all(|w| w[0].id < w[1].id), "timeline is id-sorted");
    let mut lost = Vec::new();
    let mut folds = Vec::new();
    for a in stream {
        let first = a.id == requests[a.idx as usize].id;
        if first && until == f64::INFINITY {
            // A survivor completed it under its request's own id.
            continue;
        }
        let row = timeline.binary_search_by_key(&a.id, |t| t.id).ok();
        let done = row.map_or(f64::INFINITY, |i| timeline[i].completion_s);
        if done > until {
            lost.push((a, done));
        } else if !first {
            folds.push((row.expect("a completed attempt has a row"), a));
        }
    }
    // Rows are found by id above, so ids change only once all are found.
    for (i, a) in folds {
        let req = &requests[a.idx as usize];
        let t = &mut timeline[i];
        t.id = req.id;
        t.arrival_s = req.arrival_s;
        t.attempts = a.attempt;
    }
    timeline.retain(|t| t.completion_s <= until);
    timeline.sort_by_key(|t| t.id);
    report.latency = LatencyStats::from_timeline(timeline);
    lost
}

/// Replica `rep`'s billed lifetime, from its finished `report`.
fn lifecycle(
    rep: &ReplicaState,
    report: &EngineReport,
    horizon_s: f64,
) -> ReplicaLifecycle {
    let last_completion = report
        .timeline
        .iter()
        .map(|t| t.completion_s)
        .fold(rep.ready_s, f64::max);
    let end_s = match (rep.killed_s, rep.retire_s) {
        // A kill is instantaneous: nothing drains past it, and billing
        // stops at the kill.
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
        requests: rep.dispatched,
    }
}

/// The autoscaling controller: a [`ScalingPolicy`] bound to an
/// [`AutoscaleConfig`], ready to replay traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleController {
    /// Shared controller knobs.
    pub config: AutoscaleConfig,
    /// The replica-count policy.
    pub policy: ScalingPolicy,
}

impl AutoscaleController {
    /// A controller; panics on invalid configuration or policy (use
    /// [`AutoscaleConfig::validate`] / [`ScalingPolicy::validate`]
    /// for recoverable checks). Its reports carry the alerts of
    /// [`AlertRule::default`] over the measured window axis.
    pub fn new(config: AutoscaleConfig, policy: ScalingPolicy) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid autoscale config: {e}"));
        policy.validate().unwrap_or_else(|e| panic!("invalid scaling policy: {e}"));
        AutoscaleController { config, policy }
    }

    /// Replay `requests` (sorted by arrival) on replicas built by
    /// `build`, under the fault schedule `faults`
    /// ([`FaultSchedule::none`] for a fault-free day): scheduled kills
    /// strike mid-replay, their in-flight and queued attempts are lost
    /// and requeued through the router after the detection delay
    /// (under the schedule's retry policy), and — when the schedule
    /// asks for it — the controller spawns replacement replicas that
    /// pay the usual warm-up.
    ///
    /// The decision trajectory is computed serially (it is causal:
    /// window N+1's routing depends on window N's scaling), so the
    /// runner only parallelizes finishing the per-replica engine
    /// simulations — output is byte-identical for every `--jobs`
    /// value.
    ///
    /// `instr` collects telemetry: when its recorder is enabled, the
    /// controller records its decision trajectory as it happens —
    /// scale events, kills, retries and parks on the controller track;
    /// route decisions (with the measured or estimated state each one
    /// saw) on the router track; one span per control window — and
    /// fills request lifecycle spans and registry metrics from the
    /// finished report. When `instr.profiling` is set, wall time is
    /// attributed across the controller phases (routing / live-state
    /// reads / engine runs / metrics) into `instr.profile`. With
    /// [`Instrument::off`] every recording site is a branch on a false
    /// bool, so the report is byte-identical (enforced by tests).
    pub fn run_with(
        &self,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        requests: &[Request],
        faults: &FaultSchedule,
        instr: &mut Instrument,
    ) -> ElasticFleetReport {
        let run_start = instr.profiling.then(Instant::now);
        faults
            .validate()
            .unwrap_or_else(|e| panic!("invalid fault schedule: {e}"));
        assert_arrivals_sorted(requests);
        let engines = EngineArena::default();
        let mut replay = Replay::new(self, build, &engines, requests, faults, instr);
        let loop_start = replay.instr.profiling.then(Instant::now);
        replay.run();
        let loop_s = lap(loop_start);
        replay.finish(runner, loop_s, run_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultPlan, RecoverySpec, RetryPolicy};
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::SchedulingPolicy;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::{presets, ModelConfig};
    use seesaw_parallel::ParallelConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seesaw_workload::{ArrivalDist, WorkloadGen};
    use std::sync::Arc;

    #[test]
    fn an_arrival_on_a_window_edge_opens_that_window() {
        assert_eq!(base_windows(0.0, 60.0), 1);
        assert_eq!(base_windows(179.5, 60.0), 3);
        assert_eq!(base_windows(180.0, 60.0), 4, "an arrival at 3 · 60 s opens window 3");
        assert_eq!(base_windows(1e300, 1e-300), usize::MAX, "saturates");
    }

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

    /// A plain run of `ctl` (telemetry off) under `faults`.
    fn run(
        ctl: &AutoscaleController,
        runner: &SweepRunner,
        build: ReplicaBuilder,
        reqs: &[Request],
        faults: &FaultSchedule,
    ) -> ElasticFleetReport {
        ctl.run_with(runner, build, reqs, faults, &mut Instrument::off())
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
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
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
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
        assert!(
            report.events.iter().any(|e| e.to > e.from),
            "overload must scale up: {:?}",
            report.events
        );
        assert!(report.peak_replicas > 1);
        // Every non-initial replica pays the warm-up delay and never
        // serves a request before it is ready; some of them serve.
        let mut served_late = 0;
        for (i, lc) in report.lifecycles.iter().enumerate().skip(1) {
            assert!((lc.ready_s - lc.spawn_s - 8.0).abs() < 1e-9);
            for t in report.fleet.replica_timeline(i) {
                assert!(
                    t.first_token_s >= lc.ready_s,
                    "replica served at {} before ready at {}",
                    t.first_token_s,
                    lc.ready_s
                );
                served_late += 1;
            }
        }
        assert!(served_late > 0, "the spawned replicas must serve requests");
        // All requests still served exactly once.
        assert_eq!(report.fleet.timeline.len(), 120);
    }

    #[test]
    fn quiet_tail_scales_down_and_retired_replicas_drain() {
        let build = builder();
        // A burst then silence: the controller must shed replicas. The
        // burst outlasts the first spawned replica's warm-up, so that
        // replica serves before it retires.
        let mut reqs = traced(120, 6.0, 5);
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
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
        let downs: Vec<&ScaleEvent> =
            report.events.iter().filter(|e| e.to < e.from).collect();
        assert!(!downs.is_empty(), "quiet tail must scale down: {:?}", report.events);
        // Retired replicas billed through their drain, and their
        // streams stay within their accepting interval.
        for lc in report.lifecycles.iter().filter(|l| l.retire_s.is_some()) {
            assert!(lc.end_s >= lc.retire_s.unwrap());
            assert!(lc.billed_s() >= 0.0);
        }
        // Retired replicas received nothing after their retire time,
        // and served something before it.
        let mut served_before_retire = 0;
        for (i, lc) in report.lifecycles.iter().enumerate() {
            if let Some(retire) = lc.retire_s {
                for t in report.fleet.replica_timeline(i) {
                    assert!(t.arrival_s < retire, "routed to a retiring replica");
                    served_before_retire += 1;
                }
            }
        }
        assert!(served_before_retire > 0, "the retired replicas must have served requests");
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
            let serial = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
            let parallel = run(&ctl, &SweepRunner::new(4), &build, &reqs, &FaultSchedule::none());
            assert_eq!(serial, parallel, "{policy}");
        }
    }

    #[test]
    fn empty_trace_yields_one_quiet_window() {
        let build = builder();
        let ctl = AutoscaleController::new(cfg(10.0, 5.0, 4), ScalingPolicy::reactive_default());
        let report = run(&ctl, &SweepRunner::serial(), &build, &[], &FaultSchedule::none());
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

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn bad_plan_rejected() {
        FaultPlan { groups: 0, ..FaultPlan::none() }.schedule_for(
            &[],
            AutoscaleConfig::default().window_s,
            &RecoverySpec::bare(ScalingPolicy::Static { n: 2 }),
        );
    }

    #[test]
    fn recovery_names_expose_the_replacement_posture() {
        assert_eq!(RecoverySpec::bare(ScalingPolicy::Static { n: 4 }).to_string(), "static-4");
        assert_eq!(
            RecoverySpec::healing(ScalingPolicy::reactive_default()).to_string(),
            "reactive+replace"
        );
        assert_eq!(
            RecoverySpec::healing(ScalingPolicy::Static { n: 3 }).to_string(),
            "static-3+replace"
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
            let plain = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
            // Recovery knobs without a fault never act: no kill means
            // nothing to replace, requeue or detect.
            let knobs =
                FaultSchedule { detect_s: 5.0, replace_failures: true, ..FaultSchedule::none() };
            let faulted = run(&ctl, &SweepRunner::serial(), &build, &reqs, &knobs);
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
            run(&ctl, &SweepRunner::serial(), &build, &reqs, &kill_at(8.0, 1, true));
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

    /// A kill at exactly a request's arrival instant runs first: the
    /// request is routed among the survivors on its first attempt
    /// instead of landing on the dying replica and being retried.
    #[test]
    fn kill_at_an_arrival_instant_routes_that_arrival_among_survivors() {
        let build = builder();
        let reqs = traced(40, 3.0, 31);
        let ctl = AutoscaleController::new(cfg(5.0, 4.0, 6), ScalingPolicy::Static { n: 2 });
        let k = 10;
        let clean = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
        // The replica request `k` goes to on a clean day; with both
        // replicas live, `pick` = its index selects it as the victim.
        let victim = clean.fleet.assignment[k];
        let faults = kill_at(reqs[k].arrival_s, victim as u64, true);
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &faults);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].replica, victim as usize);
        assert_ne!(report.fleet.assignment[k], victim, "routed to the replica killed on arrival");
        let timing = report.fleet.timeline.iter().find(|t| t.id == reqs[k].id).expect("served");
        assert_eq!(timing.attempts, 1, "the arrival must not be lost to the kill");
    }

    /// With `warmup_s == window_s`, a replacement spawned at a window
    /// boundary is ready exactly one boundary later, so a request
    /// parked in the dark fleet resumes on that boundary: window close
    /// runs first, the resume counts in the later window's arrivals,
    /// and parking is not a retry.
    #[test]
    fn parked_request_resumes_on_a_window_boundary_in_the_later_window() {
        let build = builder();
        let reqs = vec![Request::new(0, 512, 32).with_arrival(6.0)];
        let ctl = AutoscaleController::new(cfg(5.0, 5.0, 4), ScalingPolicy::Static { n: 1 });
        let outage = FaultSchedule {
            events: vec![FaultEvent { t_s: 3.0, kind: FaultKind::GroupOutage { group: 0 } }],
            groups: 1,
            detect_s: 2.0,
            retry: RetryPolicy::default(),
            replace_failures: true,
        };
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &outage);
        // The replacement spawns at t=5 and is ready at t=10.
        assert_eq!(report.lifecycles.len(), 2);
        assert_eq!(report.lifecycles[1].ready_s, 10.0);
        let arrivals: Vec<usize> = report.windows.iter().map(|w| w.arrivals).collect();
        assert_eq!(arrivals, vec![0, 0, 1], "the resume belongs to window [10, 15)");
        let a = &report.availability;
        assert_eq!((a.retries, a.attempts, a.completed, a.failed), (0, 1, 1, 0));
        let timing = report.fleet.timeline[0];
        assert_eq!(timing.attempts, 1);
        assert_eq!(timing.arrival_s, 6.0, "the timeline keeps the first arrival");
        assert!(timing.first_token_s >= 10.0);
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
            run(&ctl, &SweepRunner::serial(), &build, &reqs, &outage(true));
        let bare = run(&ctl, &SweepRunner::serial(), &build, &reqs, &outage(false));
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
        assert!(cap.contains(&0.0), "outage must zero a window: {cap:?}");
        assert!(cap.iter().rev().any(|&c| c > 0.0));
    }

    #[test]
    fn faulted_report_is_runner_invariant() {
        let build = builder();
        let reqs = traced(70, 3.0, 19);
        for policy in [ScalingPolicy::Static { n: 2 }, ScalingPolicy::reactive_default()] {
            let ctl = AutoscaleController::new(cfg(5.0, 5.0, 6), policy);
            let faults = kill_at(6.0, 0, true);
            let serial = run(&ctl, &SweepRunner::serial(), &build, &reqs, &faults);
            let parallel = run(&ctl, &SweepRunner::new(4), &build, &reqs, &faults);
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
            let serial = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
            let parallel = run(&ctl, &SweepRunner::new(4), &build, &reqs, &FaultSchedule::none());
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
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &faults);
        let a = &report.availability;
        assert_eq!(a.replicas_killed, 1);
        assert_eq!(a.completed + a.failed, a.offered);
        assert_eq!(a.attempts, a.completed + a.lost_attempts);
        assert!(a.lost_attempts > 0, "an 8s-in kill must catch measured in-flight work");
        let parallel = run(&ctl, &SweepRunner::new(4), &build, &reqs, &faults);
        assert_eq!(report, parallel);
    }

    /// A victim finished at its kill makes no projection there, but the
    /// projections it made while live stay in the replay counters: the
    /// metrics counters and the profile both add them to the
    /// survivors'.
    #[test]
    fn kill_keeps_the_victims_projection_counts() {
        let build = builder();
        let reqs = traced(60, 3.0, 23);
        let config = AutoscaleConfig { router: RouterPolicy::LeastWorkLive, ..cfg(5.0, 4.0, 6) };
        let ctl = AutoscaleController::new(config, ScalingPolicy::Static { n: 2 });
        let faults = kill_at(8.0, 1, true);
        let mut instr = Instrument { profiling: true, ..Instrument::tracing() };
        let engines = EngineArena::default();
        let mut replay = Replay::new(&ctl, &build, &engines, &reqs, &faults, &mut instr);
        replay.run();
        let victim = replay.killed_projections;
        assert!(victim.0 > 0, "least-work-live projects the victim before its kill");
        let survivors = replay.dispatch.projection_counts();
        assert!(survivors.0 > 0);
        let report = replay.finish(&SweepRunner::serial(), 0.0, None);
        assert_eq!(report.availability.replicas_killed, 1);
        let total = (victim.0 + survivors.0, victim.1 + survivors.1);
        assert_eq!(instr.metrics.counter("autoscale.replay.count"), total.0);
        assert_eq!(instr.metrics.counter("autoscale.replay.requests"), total.1);
        assert_eq!((instr.profile.replays, instr.profile.replayed_requests), total);
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
        let report = run(&ctl, &SweepRunner::serial(), &build, &reqs, &outage);
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
        let report = run(&ctl, &SweepRunner::serial(), &build, &[], &FaultSchedule::none());
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
            let plain = run(&ctl, &SweepRunner::serial(), &build, &reqs, &faults);

            let mut off = Instrument::off();
            let quiet = ctl.run_with(&SweepRunner::serial(), &build, &reqs, &faults, &mut off);
            assert_eq!(plain, quiet, "{router}: off instrument must not perturb the run");
            assert!(off.recorder.spans().is_empty() && off.recorder.instants().is_empty());
            assert!(off.metrics.is_empty());

            let run = |jobs: Option<usize>| {
                let runner = jobs.map_or_else(SweepRunner::serial, SweepRunner::new);
                let mut instr = Instrument::tracing();
                let report = ctl.run_with(&runner, &build, &reqs, &faults, &mut instr);
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
        let profiled = |ctl: &AutoscaleController| {
            let mut instr = Instrument::profiling();
            let none = FaultSchedule::none();
            let report = ctl.run_with(&SweepRunner::serial(), &build, &reqs, &none, &mut instr);
            (report, instr.profile)
        };
        let live = |router| {
            let config = AutoscaleConfig { router, ..cfg(5.0, 4.0, 6) };
            let ctl = AutoscaleController::new(config, ScalingPolicy::Static { n: 2 });
            let (report, profile) = profiled(&ctl);
            let plain = run(&ctl, &SweepRunner::serial(), &build, &reqs, &FaultSchedule::none());
            assert_eq!(report, plain);
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
        let (_, p2) = profiled(&est);
        assert_eq!(p2.replays, 0);
        assert_eq!(p2.replayed_requests, 0);
        assert_eq!(p2.replay_s, 0.0);
    }

    /// The exact loop counters of a profile: events handled, parks,
    /// attempts lost at dispatch.
    fn loop_counts(profile: &ControllerProfile) -> [u64; 3] {
        [profile.events, profile.parks, profile.lost_at_dispatch]
    }

    /// The oracle: the replay as it ran before kills and arrivals were
    /// read by cursor. Every kill, then every arrival, is pushed into
    /// the event queue up front, so the cursors start exhausted and
    /// the same loop pops everything from the queue into the same
    /// handlers.
    fn up_front_replay(
        ctl: &AutoscaleController,
        build: ReplicaBuilder,
        reqs: &[Request],
        faults: &FaultSchedule,
    ) -> (ElasticFleetReport, [u64; 3]) {
        let mut instr = Instrument::profiling();
        let engines = EngineArena::default();
        let mut replay = Replay::new(ctl, build, &engines, reqs, faults, &mut instr);
        for (i, e) in faults.events.iter().enumerate() {
            replay.queue.push(SimTime::from_secs(e.t_s), Event::Kill(i));
        }
        for (i, r) in reqs.iter().enumerate() {
            replay.queue.push(SimTime::from_secs(r.arrival_s), Event::Arrival(i));
        }
        (replay.next_kill, replay.next_arrival) = (faults.events.len(), reqs.len());
        replay.run();
        let report = replay.finish(&SweepRunner::serial(), 0.0, None);
        (report, loop_counts(&instr.profile))
    }

    /// Run `ctl` both ways under every router policy and require
    /// bit-identical reports (compared through their `Debug` text, in
    /// which distinct floats print differently) and equal loop
    /// counts. Returns the summed counts of the cursor runs.
    fn assert_matches_oracle(
        config: AutoscaleConfig,
        policy: ScalingPolicy,
        reqs: &[Request],
        faults: &FaultSchedule,
        case: &str,
    ) -> [u64; 3] {
        let build = builder();
        let mut total = [0; 3];
        for router in RouterPolicy::all_with_live() {
            let ctl = AutoscaleController::new(AutoscaleConfig { router, ..config }, policy);
            let mut instr = Instrument::profiling();
            let report = ctl.run_with(&SweepRunner::serial(), &build, reqs, faults, &mut instr);
            let counts = loop_counts(&instr.profile);
            let (oracle, oracle_counts) = up_front_replay(&ctl, &build, reqs, faults);
            assert!(
                format!("{report:?}") == format!("{oracle:?}"),
                "{case}, {router}, {policy}: the report differs from the up-front replay's"
            );
            assert_eq!(counts, oracle_counts, "{case}, {router}, {policy}");
            let a = &report.availability;
            // Every kill, arrival, retry and resume is handled once.
            let redispatches = a.retries + counts[1] as usize;
            assert_eq!(counts[0] as usize, faults.events.len() + a.offered + redispatches);
            for (t, c) in total.iter_mut().zip(counts) {
                *t += c;
            }
        }
        total
    }

    /// `n` requests on a quarter-second grid, several sharing an
    /// instant.
    fn grid_requests(rng: &mut StdRng, n: usize) -> Vec<Request> {
        let mut t = 0.0;
        (0..n)
            .map(|i| {
                t += 0.25 * rng.gen_range(0..4usize) as f64;
                Request::new(i as u64, 512, 32).with_arrival(t)
            })
            .collect()
    }

    /// A random fault schedule on the same grid: half the faults strike
    /// exactly at an arrival, two may share an instant, and with
    /// grid-valued detection delays and backoffs every retry lands on
    /// the grid too, so kills, arrivals and redispatches tie often.
    fn grid_faults(rng: &mut StdRng, reqs: &[Request]) -> FaultSchedule {
        let groups = rng.gen_range(1..=2usize);
        let end = reqs.last().map_or(0.0, |r| r.arrival_s);
        let mut times: Vec<f64> = (0..rng.gen_range(0..=6usize))
            .map(|_| {
                if rng.gen_range(0..2u32) == 0 {
                    reqs[rng.gen_range(0..reqs.len())].arrival_s
                } else {
                    0.25 * rng.gen_range(0..=(4.0 * end) as u64) as f64
                }
            })
            .collect();
        if times.len() > 1 && rng.gen_range(0..2u32) == 0 {
            times[1] = times[0];
        }
        times.sort_by(f64::total_cmp);
        let events = times
            .into_iter()
            .map(|t_s| {
                let kind = if rng.gen_range(0..10u32) < 7 {
                    FaultKind::KillReplica { pick: rng.gen_range(0..u64::MAX) }
                } else {
                    FaultKind::GroupOutage { group: rng.gen_range(0..groups) }
                };
                FaultEvent { t_s, kind }
            })
            .collect();
        FaultSchedule {
            events,
            groups,
            detect_s: 0.25 * rng.gen_range(0..=8u32) as f64,
            retry: RetryPolicy {
                max_attempts: rng.gen_range(1..=5u32),
                backoff_base_s: 0.5,
                ..RetryPolicy::default()
            },
            replace_failures: rng.gen_range(0..10u32) < 7,
        }
    }

    /// Reading kills and arrivals by cursor changes nothing: on random
    /// schedules whose kills, arrivals, retries, resumes and window
    /// ends share instants, under all six router policies, the report
    /// is bit-identical to the up-front queue's.
    #[test]
    fn cursor_replay_matches_the_up_front_queue_on_random_schedules() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut totals = [0; 3];
        for case in 0..12 {
            let n = 30 + rng.gen_range(0..20usize);
            let reqs = grid_requests(&mut rng, n);
            let faults = grid_faults(&mut rng, &reqs);
            faults.validate().expect("a valid schedule");
            let warmup_s = 0.25 * rng.gen_range(0..=24u32) as f64;
            let policy = if case % 2 == 0 {
                ScalingPolicy::Static { n: 1 + case % 3 }
            } else {
                ScalingPolicy::reactive_default()
            };
            let config = cfg(5.0, warmup_s, 4);
            let case = format!("case {case}");
            let counts = assert_matches_oracle(config, policy, &reqs, &faults, &case);
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        assert!(totals[1] > 0 && totals[2] > 0, "the cases park and lose work: {totals:?}");
    }

    /// The heavy-fault probe, compressed: 1500 kills and 40 two-group
    /// outages over a 180 s day keep the fleet dark most of the time,
    /// so most dispatches park or are lost and retried.
    #[test]
    fn cursor_replay_matches_the_up_front_queue_under_heavy_faults() {
        let mut rng = StdRng::seed_from_u64(1540);
        let day_s = 180.0;
        let reqs = traced(150, 150.0 / day_s, 41);
        let (kills, outages) = (1500.0, 40.0);
        let rate = (kills + outages) / day_s;
        let mut t = 0.0;
        let mut events = Vec::new();
        loop {
            t -= (1.0 - rng.gen_range(0.0..1.0)).ln() / rate;
            if t >= day_s {
                break;
            }
            let kind = if rng.gen_range(0.0..1.0) < outages / (kills + outages) {
                FaultKind::GroupOutage { group: rng.gen_range(0..2usize) }
            } else {
                FaultKind::KillReplica { pick: rng.gen_range(0..u64::MAX) }
            };
            events.push(FaultEvent { t_s: t, kind });
        }
        let faults = FaultSchedule {
            events,
            groups: 2,
            detect_s: 2.0,
            retry: RetryPolicy::default(),
            replace_failures: true,
        };
        faults.validate().expect("a valid schedule");
        for policy in [ScalingPolicy::Static { n: 2 }, ScalingPolicy::reactive_default()] {
            let [events, parks, lost] =
                assert_matches_oracle(cfg(6.0, 6.0, 4), policy, &reqs, &faults, "heavy faults");
            assert!(parks > 0 && lost > 0, "{policy}: the probe parks and loses work");
            assert!(events > 6 * 1500, "{policy}: {events} events");
        }
    }
}
