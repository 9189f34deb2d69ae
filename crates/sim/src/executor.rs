//! The eager list scheduler.

use crate::resource::{ResourceId, ResourcePool};
use crate::time::SimTime;
use crate::trace::{TaskKind, TraceSummary};
use std::ops::Range;

/// The simulated cluster's clock and resources.
///
/// Every resource serves its work in submission order, so a task's
/// service interval is fixed the moment it is submitted: it starts at
/// the latest of the current time, its dependency's end and the end of
/// the last work submitted to its resource, and ends `duration` later.
/// [`Simulator::submit_on`] therefore returns the task's completion
/// time, which is also its handle: a later task depends on it, a
/// caller waits for it with [`Simulator::run_until`], and a join of
/// several tasks is the latest of their times. Nothing is kept per
/// task, so memory does not grow with the run.
///
/// The contract:
///
/// * Each resource serves in submission order. Work whose schedule the
///   caller computed itself is charged straight into a [`Block`] of
///   resources, and occupies them until its end the same way.
/// * Busy time, per resource and per [`TaskKind`], is charged at
///   submission, so it includes submitted work that ends after
///   [`Simulator::now`]. Read it after [`Simulator::run_until_idle`].
/// * A task counts as [completed](Simulator::completed) once the clock
///   has reached its end, at that very instant included.
///
/// A clone is an independent simulator at the same instant.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    pool: ResourcePool,
    /// Per resource: the end of the last work submitted to it.
    free: Vec<SimTime>,
    /// Per resource: service seconds submitted so far.
    busy: Vec<f64>,
    /// Service seconds per kind over every resource, in charge order.
    kinds: TraceSummary,
    now: SimTime,
    submitted: usize,
}

impl Simulator {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource.
    pub fn add_resource(&mut self) -> ResourceId {
        let id = self.pool.add();
        self.free.push(SimTime::ZERO);
        self.busy.push(0.0);
        id
    }

    /// Total service seconds submitted to a resource so far.
    pub fn busy_time(&self, r: ResourceId) -> f64 {
        self.busy[r.index()]
    }

    /// Service seconds submitted so far per kind, summed over every
    /// resource in the order the work was charged.
    pub fn busy_by_kind(&self) -> TraceSummary {
        self.kinds
    }

    /// Busy fraction of a resource over the elapsed simulated time
    /// (`0.0` before any time has passed).
    pub fn utilization(&self, r: ResourceId) -> f64 {
        let t = self.now.as_secs();
        if t <= 0.0 {
            0.0
        } else {
            self.busy[r.index()] / t
        }
    }

    /// The resource registry.
    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether work ending at `end` has completed.
    pub fn completed(&self, end: SimTime) -> bool {
        end <= self.now
    }

    /// Whether `r` has finished all the work submitted to it.
    pub fn is_idle(&self, r: ResourceId) -> bool {
        self.free[r.index()] <= self.now
    }

    /// Exact number of tasks submitted since the simulator was built.
    pub fn submitted_tasks(&self) -> usize {
        self.submitted
    }

    /// Submit a task of `duration` seconds on `resource`, after `dep`
    /// (a completion time) if given, and return its completion time.
    /// Its service interval is charged to the resource and to `kind`,
    /// and the resource is busy until its end.
    pub fn submit_on(
        &mut self,
        resource: ResourceId,
        duration: f64,
        kind: TaskKind,
        dep: Option<SimTime>,
    ) -> SimTime {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid task duration: {duration}"
        );
        let r = resource.index();
        let start = dep.map_or(self.now, |d| self.now.max(d)).max(self.free[r]);
        let end = start + duration;
        let service = end - start;
        self.submitted += 1;
        self.busy[r] += service;
        self.kinds.add(kind, service);
        self.free[r] = self.free[r].max(end);
        end
    }

    /// Borrow the busy counters and busy-until times of the resources
    /// whose indices are `range`, and the per-kind totals, to charge
    /// work the caller schedules itself without a call per interval (a
    /// fused pipeline's stages).
    pub fn block(&mut self, range: Range<usize>) -> Block<'_> {
        Block {
            busy: &mut self.busy[range.clone()],
            free: &mut self.free[range],
            kinds: &mut self.kinds,
        }
    }

    /// Advance the clock to `end` (a task's completion time) if it is
    /// later, and return `end`.
    pub fn run_until(&mut self, end: SimTime) -> SimTime {
        self.now = self.now.max(end);
        end
    }

    /// Advance the clock until every resource has finished its work.
    /// Returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.now = self.free.iter().fold(self.now, |t, &f| t.max(f));
        self.now
    }

    /// Advance the clock to `t` while the simulator is idle (no work
    /// ends after now) — modeling a cluster waiting for the next
    /// request arrival in an online-serving run. A `t` at or before
    /// the current time is a no-op, so callers may pass the next
    /// arrival time unconditionally after a drain.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            self.free.iter().all(|&f| f <= self.now),
            "advance_to requires an idle simulator (work ends after {})",
            self.now
        );
        self.now = self.now.max(t);
    }
}

/// A contiguous run of a simulator's resources, borrowed by
/// [`Simulator::block`]: resource `range.start + i` is entry `i`. The caller
/// charges its work the way submitting it as tasks would: each
/// interval's `end - start` added to its resource's `busy` and to its
/// kind in `kinds`, in the order the tasks would have been submitted,
/// and `free` raised to the end of the resource's last interval. It
/// keeps each resource's order: an interval may not start before the
/// resource's earlier work ends.
#[derive(Debug)]
pub struct Block<'a> {
    /// Per resource: service seconds submitted so far.
    pub busy: &'a mut [f64],
    /// Per resource: the end of the last work submitted to it.
    pub free: &'a mut [SimTime],
    /// The simulator's service seconds per kind.
    pub kinds: &'a mut TraceSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(sim: &mut Simulator, r: ResourceId, dur: f64) -> SimTime {
        sim.submit_on(r, dur, TaskKind::Compute, None)
    }

    #[test]
    fn fifo_contention_serializes() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource();
        let a = compute(&mut sim, gpu, 1.0);
        let b = compute(&mut sim, gpu, 2.0);
        assert_eq!(sim.run_until_idle().as_secs(), 3.0);
        assert_eq!((a.as_secs(), b.as_secs()), (1.0, 3.0));
    }

    #[test]
    fn independent_resources_overlap() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        compute(&mut sim, g0, 2.0);
        compute(&mut sim, g1, 2.0);
        assert_eq!(sim.run_until_idle().as_secs(), 2.0);
    }

    #[test]
    fn dependencies_sequence_across_resources() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let link = sim.add_resource();
        let fwd = compute(&mut sim, g0, 1.0);
        let xfer = sim.submit_on(link, 0.5, TaskKind::SwapOut, Some(fwd));
        assert_eq!(sim.run_until(xfer).as_secs(), 1.5);
    }

    #[test]
    fn sync_node_joins_fan_in() {
        // A join is the latest of its tasks' ends, not a task.
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g1, 3.0);
        assert_eq!(sim.run_until(a.max(b)).as_secs(), 3.0);
    }

    #[test]
    fn joins_leave_no_span() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g1, 1.0);
        sim.run_until(a.max(b));
        assert_eq!(sim.submitted_tasks(), 2);
        assert_eq!(sim.busy_by_kind().total(), 2.0, "a join charges nothing");
    }

    #[test]
    fn determinism_under_ties() {
        // Two equal-time completions gate a shared dependent; repeated
        // runs agree exactly.
        let run = || {
            let mut sim = Simulator::new();
            let g0 = sim.add_resource();
            let g1 = sim.add_resource();
            let a = compute(&mut sim, g0, 1.0);
            let b = compute(&mut sim, g1, 1.0);
            let c = sim.submit_on(g0, 0.5, TaskKind::Compute, Some(a.max(b)));
            sim.run_until(c).as_secs()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), 1.5);
    }

    #[test]
    fn run_until_leaves_others_in_flight() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        let quick = compute(&mut sim, g0, 1.0);
        let slow = compute(&mut sim, g1, 10.0);
        sim.run_until(quick);
        assert_eq!(sim.now().as_secs(), 1.0);
        assert!(sim.completed(quick) && !sim.completed(slow));
        assert!(sim.is_idle(g0) && !sim.is_idle(g1));
        sim.run_until_idle();
        assert!(sim.completed(slow) && sim.is_idle(g1));
    }

    #[test]
    fn waiting_for_a_finished_task_keeps_the_clock() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g0, 2.0);
        sim.run_until(b);
        assert_eq!(sim.run_until(a), a, "returns the task's own end");
        assert_eq!(sim.now().as_secs(), 3.0, "and never rewinds");
    }

    #[test]
    fn clone_continues_independently() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g0, 2.0);
        sim.run_until(a);
        let mut fork = sim.clone();
        assert_eq!(fork.run_until(b).as_secs(), 3.0);
        assert!(
            !sim.completed(b),
            "the original does not advance with its clone"
        );
        compute(&mut fork, g0, 1.0);
        assert_eq!(sim.run_until_idle().as_secs(), 3.0);
        assert_eq!(fork.run_until_idle().as_secs(), 4.0);
    }

    #[test]
    fn advance_to_moves_idle_clock_forward_only() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        sim.run_until(a);
        sim.advance_to(SimTime::from_secs(5.0));
        assert_eq!(sim.now().as_secs(), 5.0);
        // Earlier targets are a no-op, never a rewind.
        sim.advance_to(SimTime::from_secs(2.0));
        assert_eq!(sim.now().as_secs(), 5.0);
        // Work submitted after the idle gap starts at the new time.
        let b = compute(&mut sim, g0, 1.0);
        assert_eq!(sim.run_until(b).as_secs(), 6.0);
        // Idle time counts against utilization.
        assert!((sim.utilization(g0) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires an idle simulator")]
    fn advance_to_rejects_pending_events() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        compute(&mut sim, g0, 1.0);
        sim.advance_to(SimTime::from_secs(5.0));
    }

    #[test]
    fn submit_after_run_resumes_from_now() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let a = compute(&mut sim, g0, 2.0);
        sim.run_until(a);
        let b = compute(&mut sim, g0, 1.0);
        assert_eq!(sim.run_until(b).as_secs(), 3.0);
    }

    #[test]
    fn dependency_on_completed_task_is_immediate() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        sim.run_until(a);
        sim.advance_to(SimTime::from_secs(4.0));
        let b = sim.submit_on(g1, 1.0, TaskKind::Compute, Some(a));
        assert_eq!(b.as_secs(), 5.0, "starts now, not at the dependency's end");
    }

    #[test]
    fn pipeline_fills_and_drains() {
        // 2-stage pipeline, 4 micro-batches of 1s per stage:
        // total = fill(1) + 4 = 5s on the last stage.
        let mut sim = Simulator::new();
        let s0 = sim.add_resource();
        let s1 = sim.add_resource();
        let mut last = SimTime::ZERO;
        let mut prev_s0 = None;
        for _ in 0..4 {
            let t0 = sim.submit_on(s0, 1.0, TaskKind::Compute, prev_s0);
            prev_s0 = Some(t0);
            last = sim.submit_on(s1, 1.0, TaskKind::Compute, Some(t0));
        }
        assert_eq!(sim.run_until(last).as_secs(), 5.0);
    }

    #[test]
    fn busy_time_accumulates_per_resource() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        compute(&mut sim, g0, 1.0);
        compute(&mut sim, g0, 2.0);
        compute(&mut sim, g1, 0.5);
        assert_eq!(sim.busy_time(g0), 3.0, "charged at submission");
        sim.run_until_idle();
        assert!((sim.busy_time(g1) - 0.5).abs() < 1e-12);
        assert!((sim.utilization(g0) - 1.0).abs() < 1e-12);
        assert!((sim.utilization(g1) - 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn busy_by_kind_sums_service_intervals() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let link = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        compute(&mut sim, g0, 2.0);
        sim.submit_on(link, 0.5, TaskKind::SwapOut, Some(a));
        sim.submit_on(g0, 0.25, TaskKind::Overhead, None);
        sim.run_until_idle();
        let kinds = sim.busy_by_kind();
        // Queueing is not service: the second task waits 1 s.
        assert_eq!(
            (kinds.compute, kinds.kv_swap, kinds.other),
            (3.0, 0.5, 0.25)
        );
        assert_eq!(kinds.total(), sim.busy_time(g0) + sim.busy_time(link));
    }

    #[test]
    #[should_panic(expected = "invalid task duration")]
    fn negative_duration_rejected() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        sim.submit_on(g0, -1.0, TaskKind::Compute, None);
    }

    #[test]
    fn completion_counts_at_its_own_instant() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource();
        let g1 = sim.add_resource();
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g1, 1.0);
        sim.run_until(a);
        assert!(sim.completed(b), "a tie with the clock has completed");
        assert!(sim.is_idle(g1));
    }

    /// Two three-resource simulators: `run` executes a 0.75 s compute
    /// task on resource 1, `charged` charges the same work straight into
    /// a block over resources 1..3.
    fn run_and_charged() -> (Simulator, Simulator, SimTime) {
        let mut run = Simulator::new();
        let mut charged = Simulator::new();
        for sim in [&mut run, &mut charged] {
            for _ in 0..3 {
                sim.add_resource();
            }
        }
        let a = run.submit_on(run.pool().id(1), 0.75, TaskKind::Compute, None);
        let block = charged.block(1..3);
        let (start, end) = (SimTime::ZERO, SimTime::from_secs(0.75));
        block.busy[0] += end - start;
        block.kinds.add(TaskKind::Compute, end - start);
        block.free[0] = block.free[0].max(end);
        (run, charged, a)
    }

    #[test]
    fn work_charged_into_a_block_matches_a_submitted_task() {
        let (run, charged, _) = run_and_charged();
        let (r1, r2) = (run.pool().id(1), run.pool().id(2));
        assert_eq!(charged.busy_time(r1), run.busy_time(r1));
        assert_eq!(charged.busy_time(r2), 0.0);
        assert_eq!(charged.busy_by_kind(), run.busy_by_kind());
        assert!(!charged.is_idle(r1) && charged.is_idle(r2));
    }

    #[test]
    fn charged_work_holds_the_resource_like_a_submitted_task() {
        let (mut run, mut charged, a) = run_and_charged();
        let r1 = run.pool().id(1);
        assert_eq!(charged.submitted_tasks(), 0, "charged work is not a task");
        let b = charged.submit_on(r1, 1.0, TaskKind::Compute, None);
        assert_eq!(b, run.submit_on(r1, 1.0, TaskKind::Compute, None));
        assert_eq!(charged.run_until_idle(), a + 1.0);
        assert_eq!(charged.run_until_idle(), run.run_until_idle());
    }
}
