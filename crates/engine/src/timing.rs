//! Per-request timestamp recording for engine runs.
//!
//! Engines know *which* task produces a request's first token (the
//! prefill pass / mixed round that finishes its prompt) and which one
//! produces its last (the decode burst it retires in) at submission
//! time, but the corresponding simulated timestamps only exist once
//! those tasks execute. [`TimingRecorder`] therefore stores one
//! [`Stamp`] per record: the task handle while the task is pending,
//! its completion time once it has been read ("settled").
//! [`TimingRecorder::settle_and_retire`] settles finished records and
//! then lets the simulator drop its finished tasks while the run is
//! still going; `resolve` reads the remaining handles from the
//! drained simulator, yielding the [`RequestTiming`] timeline the
//! latency metrics are computed from.
//!
//! Timestamps are round-granular: a request's completion time is the
//! end of the decode burst (or mixed round) that retired it, matching
//! the engines' round-boundary scheduling model.

use seesaw_sim::{SimTime, Simulator, TaskHandle};
use seesaw_workload::{RequestMap, RequestTiming};

/// When a recorded event happens: at a task's completion, or at a
/// time already read from the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stamp {
    /// At the completion of this (not yet settled) task.
    Pending(TaskHandle),
    /// At this simulated time.
    At(SimTime),
}

impl Stamp {
    /// The event's time, if it has happened in `sim`.
    pub fn time(self, sim: &Simulator) -> Option<SimTime> {
        match self {
            Stamp::Pending(h) => sim.completion_time(h),
            Stamp::At(t) => Some(t),
        }
    }
}

/// One list of `(request id, stamp)` records, with a cursor before
/// which every stamp is settled.
#[derive(Debug, Default, Clone)]
struct Records {
    list: Vec<(u64, Stamp)>,
    settled: usize,
}

impl Records {
    fn with_capacity(n: usize) -> Self {
        Records {
            list: Vec::with_capacity(n),
            settled: 0,
        }
    }

    /// Settle records up to the first one whose task is unfinished.
    fn settle(&mut self, sim: &Simulator) {
        while let Some(rec) = self.list.get_mut(self.settled) {
            if let Stamp::Pending(h) = rec.1 {
                match sim.completion_time(h) {
                    Some(t) => rec.1 = Stamp::At(t),
                    None => return,
                }
            }
            self.settled += 1;
        }
    }
}

/// Accumulates first-token / completion stamps during a run.
///
/// Each list must be recorded in nondecreasing task order (engines
/// record a task when they submit it or right after it runs, so they
/// do). Settling stops at the first record whose task is unfinished,
/// and every later record's task is no older, so the simulator, which
/// retires only before its oldest unfinished task, keeps every task a
/// pending record points at. A record out of order could have its
/// task retired unread, and `resolve` would panic.
#[derive(Debug, Default, Clone)]
pub struct TimingRecorder {
    first: Records,
    done: Records,
}

impl TimingRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder pre-sized for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        TimingRecorder {
            first: Records::with_capacity(n),
            done: Records::with_capacity(n),
        }
    }

    /// Record that `task` produces request `id`'s first token.
    pub fn first_token(&mut self, id: u64, task: TaskHandle) {
        self.first.list.push((id, Stamp::Pending(task)));
    }

    /// Record that `task` produces request `id`'s last token.
    pub fn completed(&mut self, id: u64, task: TaskHandle) {
        self.done.list.push((id, Stamp::Pending(task)));
    }

    /// First-token records so far, in recording order (append-only,
    /// so a reader can resume from the length it last saw).
    pub fn first_tokens(&self) -> &[(u64, Stamp)] {
        &self.first.list
    }

    /// Completion records so far, in recording order (append-only).
    pub fn completions(&self) -> &[(u64, Stamp)] {
        &self.done.list
    }

    /// Read the time of every record whose task has finished, up to
    /// the first unfinished one per list, then let `sim` retire its
    /// finished tasks. Engines call this once per scheduling round,
    /// after recording its completions, so the task arena holds only
    /// the work in flight. Each record is settled once, so the cost
    /// is amortized O(1).
    pub fn settle_and_retire(&mut self, sim: &mut Simulator) {
        self.first.settle(sim);
        self.done.settle(sim);
        sim.retire();
    }

    /// Resolve every record against the (fully drained) simulator
    /// into a timeline sorted by request id.
    pub fn resolve(self, sim: &Simulator, meta: &RequestMap) -> Vec<RequestTiming> {
        let (mut first, mut done) = (self.first.list, self.done.list);
        assert_eq!(
            first.len(),
            done.len(),
            "every request needs both a first-token and a completion record"
        );
        first.sort_unstable_by_key(|&(id, _)| id);
        done.sort_unstable_by_key(|&(id, _)| id);
        first
            .iter()
            .zip(&done)
            .map(|(&(id, first), &(done_id, done))| {
                assert_eq!(id, done_id, "timing streams out of sync at request {id}");
                let req = meta.req(id);
                let at = |s: Stamp| {
                    s.time(sim)
                        .unwrap_or_else(|| panic!("timing task for request {id} never ran"))
                        .as_secs()
                };
                RequestTiming {
                    id,
                    arrival_s: req.arrival_s,
                    first_token_s: at(first),
                    completion_s: at(done),
                    output_len: req.output_len,
                    attempts: 1,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_sim::{TaskKind, TaskSpec};
    use seesaw_workload::Request;

    #[test]
    fn resolves_sorted_timeline_from_out_of_order_records() {
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t1 = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        let t2 = sim.submit(TaskSpec::new(g, 2.0, TaskKind::Compute));
        sim.run_until_idle();

        let reqs = vec![
            Request::new(7, 100, 5).with_arrival(0.5),
            Request::new(3, 200, 1),
        ];
        let meta = RequestMap::new(&reqs);
        let mut rec = TimingRecorder::new();
        rec.first_token(7, t1);
        rec.completed(7, t2);
        rec.first_token(3, t2);
        rec.completed(3, t2);
        let timeline = rec.resolve(&sim, &meta);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].id, 3, "timeline is id-sorted");
        assert_eq!(timeline[0].first_token_s, 3.0);
        assert_eq!(timeline[1].id, 7);
        assert_eq!(timeline[1].arrival_s, 0.5);
        assert_eq!(timeline[1].first_token_s, 1.0);
        assert_eq!(timeline[1].completion_s, 3.0);
        assert_eq!(timeline[1].output_len, 5);
    }

    /// Settled records keep their times after the simulator retires
    /// their tasks; a pending record keeps its task in the arena.
    #[test]
    fn settled_records_survive_retirement() {
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t1 = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        let t2 = sim.submit(TaskSpec::new(g, 2.0, TaskKind::Compute));
        let mut rec = TimingRecorder::new();
        rec.first_token(0, t1);
        rec.completed(0, t2);
        sim.run_until(t1);
        rec.settle_and_retire(&mut sim);
        assert_eq!(rec.first_tokens()[0].1, Stamp::At(SimTime::from_secs(1.0)));
        assert_eq!(rec.completions()[0].1, Stamp::Pending(t2));
        assert_eq!(sim.retained_tasks(), 1, "`t1` retired, pending `t2` kept");
        sim.run_until_idle();
        rec.settle_and_retire(&mut sim);
        assert_eq!(sim.retained_tasks(), 0);
        let meta = RequestMap::new(&[Request::new(0, 100, 5)]);
        let timeline = rec.resolve(&sim, &meta);
        assert_eq!((timeline[0].first_token_s, timeline[0].completion_s), (1.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "both a first-token and a completion")]
    fn unbalanced_records_are_rejected() {
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        sim.run_until_idle();
        let meta = RequestMap::new(&[]);
        let mut rec = TimingRecorder::new();
        rec.first_token(0, t);
        rec.resolve(&sim, &meta);
    }
}
