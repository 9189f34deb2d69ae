//! Resumable engine actors: live replica state without prefix replay.
//!
//! A fleet router that reads *measured* replica state needs, at every
//! arrival instant, each replica's live queue — and later its final
//! report. An [`EngineActor`] is one replica kept running on the
//! fleet's global clock: requests are pushed as they are routed,
//! state is read between pushes, and [`EngineActor::finish`] returns
//! the report of the whole assigned stream.
//!
//! # Exactness contract
//!
//! For a replica that becomes ready at `ready_s`, after pushing the
//! arrival-ordered requests `assigned`:
//!
//! * [`EngineActor::projected`] equals
//!   `run_ready(assigned, ready_s)` byte-for-byte;
//! * [`EngineActor::depth_at`]`(t)` equals the counts of
//!   [`crate::live_state`]`(projected(), t)`;
//! * [`EngineActor::finish`] equals `run_ready` of the full stream.
//!
//! Time never runs backwards: a push must not arrive before an
//! earlier push or query, and a query must not precede an earlier
//! push or query.
//!
//! # How the vLLM and Seesaw actors stay exact
//!
//! Their scheduling loops (`Resumable`) are written as resumable
//! state machines over one `RunCore`: the simulated cluster, the
//! replicas, the intake the actor pushes into and the timing recorder
//! its depth reads come from. Engines are causal —
//! admission gates on arrival times — so a decision only depends on
//! requests not pushed yet in two ways, and the loop pauses at both:
//!
//! * **Admission** reads the waiting queue at the current clock. Every
//!   request not yet pushed arrives at or after the actor's horizon
//!   (its newest push or query time), so an admission whose clock is
//!   strictly before the horizon sees exactly what the full run sees.
//!   At a later clock the loop pauses: a request pushed at the same
//!   instant must still be co-admitted.
//! * **"No more arrivals"** — vLLM's all-done check, Seesaw's
//!   re-shard-back check — is undecidable while the pushed requests
//!   are all served. The loop *parks* there without advancing its
//!   clock, and resolves the check on the next push (as the full run
//!   would) or at finish (as the prefix run would).
//!
//! A depth query advances the loop through every decision before `t`
//! and counts from the pushed total and the run's timing records: a
//! request is waiting until its first-token record is due, running
//! until its completion record is. Every record holds its final time
//! the moment it is made — the simulator knows each piece of work's
//! end when it is submitted, closed-form decode bursts and mixed rounds
//! included — so a record at or before `t` is exactly what the full
//! run would report, and a depth read never projects. The recorder's
//! lists are append-only, so each is read by a cursor that keeps only
//! the times of records made but not yet due.
//!
//! A projection clones the run, closes its intake and runs it to
//! completion; only forward-looking signals — remaining work, a
//! killed replica's lost set and completion times — need one. The
//! actor keeps no roofline of its own: each advance, projection or
//! finish builds one from the run's shared specs
//! (`RunCore::roofline`, what a plain `run` uses), which is two
//! reference-count bumps.

use crate::driver::{assert_arrivals_sorted, RunCore};
use crate::report::EngineReport;
use crate::sweep::SweepRunner;
use seesaw_roofline::Roofline;
use seesaw_sim::SimTime;
use seesaw_workload::{Request, RequestMap, RunStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Mutex;

/// Backward-looking counts of a replica at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Depth {
    /// Requests that have arrived but not yet produced a first token.
    pub waiting: usize,
    /// Requests past their first token but not yet complete.
    pub running: usize,
    /// Total unfinished requests (`waiting + running`).
    pub queue_depth: usize,
}

/// One replica fed request by request on a global clock (see the
/// module docs for the exactness contract every implementation
/// keeps). `Send`, so finished actors can run out on a
/// [`crate::SweepRunner`].
pub trait EngineActor: Send {
    /// Assign `req`; arrivals are nondecreasing across pushes and
    /// never precede an earlier query.
    fn push(&mut self, req: Request);

    /// Exact waiting/running/queue-depth counts at `t`, which must not
    /// precede an earlier push or query. The vLLM and Seesaw actors
    /// answer from the timing records made since the previous query
    /// (and those still not due), with no projection.
    fn depth_at(&mut self, t: f64) -> Depth;

    /// The report of the assigned stream run to completion as if
    /// nothing more arrived. Memoized until the next push.
    fn projected(&mut self) -> &EngineReport;

    /// `(projections, requests they re-simulated)` so far — the
    /// replay-amplification counters telemetry reports.
    fn projection_counts(&self) -> (u64, u64);

    /// Run the full assigned stream to completion.
    fn finish(self: Box<Self>) -> EngineReport;
}

/// Finish every actor on `runner`, reports in actor order — the
/// fleet tiers' final per-replica simulations.
pub fn finish_all<'a>(
    runner: &SweepRunner,
    actors: Vec<Box<dyn EngineActor + 'a>>,
) -> Vec<EngineReport> {
    let cells: Vec<Mutex<Option<Box<dyn EngineActor + 'a>>>> =
        actors.into_iter().map(|a| Mutex::new(Some(a))).collect();
    runner.map(&cells, |cell| {
        let actor = cell.lock().expect("actor cell").take();
        actor.expect("each actor finishes once").finish()
    })
}

/// The request side of a resumable run: the queue the scheduler
/// admits from, and what is known about requests not pushed yet.
#[derive(Debug, Clone)]
pub(crate) struct Intake {
    /// Pushed, not yet admitted, with arrivals clamped to `ready_s`
    /// (a warming replica dispatches nothing before it is ready).
    pub waiting: VecDeque<Request>,
    /// Every pushed request, with its true arrival.
    pub meta: RequestMap,
    ready_s: f64,
    /// No request pushed from now on arrives before this instant.
    horizon: f64,
    /// Nothing more will be pushed.
    closed: bool,
    requests: usize,
    input_tokens: u64,
    output_tokens: u64,
}

impl Intake {
    /// Every request up front and nothing more to come (`run`).
    pub fn closed(requests: &[Request]) -> Self {
        assert_arrivals_sorted(requests);
        Intake {
            waiting: requests.iter().copied().collect(),
            meta: RequestMap::new(requests),
            ready_s: 0.0,
            horizon: f64::INFINITY,
            closed: true,
            requests: requests.len(),
            input_tokens: requests.iter().map(|r| r.input_len as u64).sum(),
            output_tokens: requests.iter().map(|r| r.output_len as u64).sum(),
        }
    }

    /// An empty intake for a replica ready at `ready_s`, fed by pushes.
    pub fn open(ready_s: f64) -> Self {
        assert!(
            ready_s.is_finite() && ready_s >= 0.0,
            "replica ready time must be finite and non-negative, got {ready_s}"
        );
        Intake {
            waiting: VecDeque::new(),
            meta: RequestMap::new(&[]),
            ready_s,
            horizon: 0.0,
            closed: false,
            requests: 0,
            input_tokens: 0,
            output_tokens: 0,
        }
    }

    pub fn push(&mut self, req: Request) {
        assert!(!self.closed, "push after the run was closed");
        assert!(
            req.arrival_s >= self.horizon,
            "actor pushes must be arrival-ordered: {} after a push or query at {}",
            req.arrival_s,
            self.horizon
        );
        self.horizon = req.arrival_s;
        self.meta.insert(req);
        self.waiting
            .push_back(req.with_arrival(req.arrival_s.max(self.ready_s)));
        self.requests += 1;
        self.input_tokens += req.input_len as u64;
        self.output_tokens += req.output_len as u64;
    }

    /// Record a state query at `t`: nothing pushed later arrives
    /// before it.
    pub fn observe(&mut self, t: f64) {
        assert!(
            t >= self.horizon,
            "state query at {t} precedes an earlier push or query at {}",
            self.horizon
        );
        self.horizon = t;
    }

    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether an admission decision at `now` sees every request that
    /// has arrived by then.
    pub fn sees_arrivals(&self, now: SimTime) -> bool {
        self.closed || now.as_secs() < self.horizon
    }

    /// Whether no request remains to admit, ever — `None` while the
    /// pushed ones are all admitted but more may still be pushed.
    pub fn drained(&self) -> Option<bool> {
        if !self.waiting.is_empty() {
            Some(false)
        } else if self.closed {
            Some(true)
        } else {
            None
        }
    }

    /// Requests pushed so far.
    pub fn len(&self) -> usize {
        self.requests
    }

    pub fn stats(&self, duration_s: f64) -> RunStats {
        assert!(
            self.requests == 0 || duration_s > 0.0,
            "a non-empty run ({} requests) needs strictly positive duration",
            self.requests
        );
        RunStats {
            requests: self.requests,
            input_tokens: self.input_tokens,
            output_tokens: self.output_tokens,
            duration_s,
        }
    }
}

/// One engine's scheduling loop written as a resumable state machine
/// over a [`RunCore`].
pub(crate) trait Resumable: Clone + Send {
    fn core(&self) -> &RunCore;
    fn core_mut(&mut self) -> &mut RunCore;
    /// Run scheduling decisions until one needs requests not pushed
    /// yet (`false`) or the run is complete (`true`).
    fn advance(&mut self, rl: &Roofline) -> bool;
    /// The report of a completed run.
    fn finish(self) -> EngineReport;
}

/// Run `st` (whose intake is closed) to completion.
pub(crate) fn run_to_end<R: Resumable>(mut st: R) -> EngineReport {
    let rl = st.core().roofline();
    let done = st.advance(&rl);
    assert!(done, "a closed run always completes");
    st.finish()
}

/// Builds a run from the requests pushed before its first read.
type Start<'a, R> = Box<dyn FnOnce(Intake) -> R + Send + 'a>;

/// The actor over a [`Resumable`] run. The run — and with it the
/// simulator — starts at the first read or at `finish`, so an actor
/// nobody reads (every replica under estimated routing) holds only its
/// pushed requests until it runs exactly like a plain `run`.
pub(crate) struct SimActor<'a, R> {
    unstarted: Option<(Intake, Start<'a, R>)>,
    run: Option<R>,
    firsts: DueCount,
    dones: DueCount,
    projection: Option<EngineReport>,
    projections: u64,
    reprojected: u64,
}

impl<'a, R: Resumable> SimActor<'a, R> {
    pub fn new(intake: Intake, start: impl FnOnce(Intake) -> R + Send + 'a) -> Self {
        SimActor {
            unstarted: Some((intake, Box::new(start))),
            run: None,
            firsts: DueCount::default(),
            dones: DueCount::default(),
            projection: None,
            projections: 0,
            reprojected: 0,
        }
    }

    fn intake_mut(&mut self) -> &mut Intake {
        match (&mut self.unstarted, &mut self.run) {
            (Some((intake, _)), _) => intake,
            (None, Some(run)) => &mut run.core_mut().intake,
            (None, None) => unreachable!("an actor is either unstarted or running"),
        }
    }

    /// The run, started if need be, advanced as far as its intake
    /// allows.
    fn advanced(&mut self) -> &mut R {
        if let Some((intake, start)) = self.unstarted.take() {
            self.run = Some(start(intake));
        }
        let run = self.run.as_mut().expect("started above");
        let rl = run.core().roofline();
        run.advance(&rl);
        run
    }
}

impl<R: Resumable> EngineActor for SimActor<'_, R> {
    fn push(&mut self, req: Request) {
        self.intake_mut().push(req);
        self.projection = None;
    }

    fn depth_at(&mut self, t: f64) -> Depth {
        self.intake_mut().observe(t);
        self.advanced();
        let core = self.run.as_ref().expect("advanced starts the run").core();
        let pushed = core.intake.len();
        let first = self.firsts.at(t, core.rec.first_tokens());
        let done = self.dones.at(t, core.rec.completions());
        Depth {
            waiting: pushed - first,
            running: first - done,
            queue_depth: pushed - done,
        }
    }

    fn projected(&mut self) -> &EngineReport {
        if self.projection.is_none() {
            // Move the shared trajectory as far as it is known first,
            // so the fork only simulates what lies beyond it.
            let mut fork = self.advanced().clone();
            let core = fork.core_mut();
            core.intake.close();
            self.projections += 1;
            self.reprojected += (core.intake.len() - core.completed) as u64;
            self.projection = Some(run_to_end(fork));
        }
        self.projection.as_ref().expect("projection was just filled")
    }

    fn projection_counts(&self) -> (u64, u64) {
        (self.projections, self.reprojected)
    }

    fn finish(mut self: Box<Self>) -> EngineReport {
        self.intake_mut().close();
        self.advanced();
        let run = self.run.take().expect("advanced starts the run");
        run.finish()
    }
}

/// A cursor over one of the recorder's append-only lists: how many of
/// its records are due by the latest query. A record may end after the
/// query that absorbs it; its time then waits in a min-heap.
#[derive(Debug, Default)]
struct DueCount {
    /// Records absorbed so far.
    seen: usize,
    /// Absorbed records at or before the latest query.
    due: usize,
    /// Times of absorbed records after the latest query.
    later: BinaryHeap<Reverse<SimTime>>,
}

impl DueCount {
    /// Records of `records` at or before `t`, which must not precede
    /// an earlier query; `records` only grows between calls.
    fn at(&mut self, t: f64, records: &[(u64, SimTime)]) -> usize {
        let due = |at: SimTime| at.as_secs() <= t;
        while self.later.peek().is_some_and(|&Reverse(at)| due(at)) {
            self.later.pop();
            self.due += 1;
        }
        for &(_, at) in &records[self.seen..] {
            if due(at) {
                self.due += 1;
            } else {
                self.later.push(Reverse(at));
            }
        }
        self.seen = records.len();
        self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cursor count equals a brute-force count over every record
    /// so far, on random records appended between nondecreasing
    /// queries: before, at and after the query instant, on a half-second
    /// grid so that ties are common.
    #[test]
    fn due_count_matches_a_brute_force_count() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut ties, mut later) = (0, 0);
        for _ in 0..64 {
            let mut records: Vec<(u64, SimTime)> = Vec::new();
            let mut count = DueCount::default();
            let mut t = 0.0;
            for _ in 0..32 {
                t += draw(3) as f64 * 0.5;
                for _ in 0..draw(5) {
                    let at = (t + (draw(9) as f64 - 3.0) * 0.5).max(0.0);
                    ties += usize::from(at == t);
                    later += usize::from(at > t);
                    records.push((records.len() as u64, SimTime::from_secs(at)));
                }
                let brute = records.iter().filter(|&&(_, at)| at.as_secs() <= t).count();
                assert_eq!(count.at(t, &records), brute, "at {t}");
            }
        }
        assert!(
            ties > 100 && later > 100,
            "{ties} ties, {later} records after their query"
        );
    }
}
