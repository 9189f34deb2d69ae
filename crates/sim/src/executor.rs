//! The event-driven task executor.

use crate::resource::{ResourceId, ResourcePool};
use crate::time::SimTime;
use crate::trace::{Span, TaskKind, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Handle to a submitted task: its id, which counts submissions since
/// the simulator was built. Ids are monotone, so a handle stays valid
/// after [`Simulator::retire`] drops the tasks before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle(usize);

impl TaskHandle {
    /// Raw task id.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Small inline list that avoids heap allocation for the 0-, 1- and
/// 2-element cases which dominate engine task graphs (a compute pass
/// depends on at most its predecessor; a transfer on the pass it
/// drains). `Many` falls back to a `Vec` for join nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SmallList<T> {
    /// No elements.
    #[default]
    Empty,
    /// Exactly one element.
    One(T),
    /// Exactly two elements.
    Two([T; 2]),
    /// Three or more elements.
    Many(Vec<T>),
}

impl<T: Copy> SmallList<T> {
    /// Append an element, spilling to the heap only past two.
    pub fn push(&mut self, v: T) {
        *self = match std::mem::take(self) {
            SmallList::Empty => SmallList::One(v),
            SmallList::One(a) => SmallList::Two([a, v]),
            SmallList::Two([a, b]) => SmallList::Many(vec![a, b, v]),
            SmallList::Many(mut vec) => {
                vec.push(v);
                SmallList::Many(vec)
            }
        }
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            SmallList::Empty => &[],
            SmallList::One(a) => std::slice::from_ref(a),
            SmallList::Two(ab) => ab,
            SmallList::Many(vec) => vec,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, SmallList::Empty)
    }
}

impl<T: Copy> From<Vec<T>> for SmallList<T> {
    fn from(v: Vec<T>) -> Self {
        match v.len() {
            0 => SmallList::Empty,
            1 => SmallList::One(v[0]),
            2 => SmallList::Two([v[0], v[1]]),
            _ => SmallList::Many(v),
        }
    }
}

impl<T: Copy> FromIterator<T> for SmallList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallList::Empty;
        for v in iter {
            out.push(v);
        }
        out
    }
}

/// Description of a task to submit.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Resource to occupy, or `None` for a pure synchronization node
    /// that completes the instant its dependencies do.
    pub resource: Option<ResourceId>,
    /// Service duration in seconds (must be finite and ≥ 0).
    pub duration: f64,
    /// Work category, for tracing.
    pub kind: TaskKind,
    /// Tasks that must complete before this one starts.
    pub deps: SmallList<TaskHandle>,
    /// Free-form tag recorded in the trace (e.g. GPU index).
    pub tag: u64,
}

impl TaskSpec {
    /// A task of `duration` seconds on `resource`.
    pub fn new(resource: ResourceId, duration: f64, kind: TaskKind) -> Self {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid task duration: {duration}"
        );
        TaskSpec {
            resource: Some(resource),
            duration,
            kind,
            deps: SmallList::Empty,
            tag: 0,
        }
    }

    /// A zero-duration synchronization node joining `deps`.
    pub fn sync(deps: Vec<TaskHandle>) -> Self {
        TaskSpec {
            resource: None,
            duration: 0.0,
            kind: TaskKind::Sync,
            deps: deps.into(),
            tag: 0,
        }
    }

    /// Add a dependency.
    pub fn after(mut self, dep: TaskHandle) -> Self {
        self.deps.push(dep);
        self
    }

    /// Set the trace tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// Waiting on `remaining` dependencies.
    Waiting,
    /// In its resource's FIFO queue.
    Queued,
    /// Being served.
    Running,
    /// Finished.
    Done,
}

/// Sentinel for "no resource" in [`Task::resource`] (pure sync node).
const NO_RESOURCE: u32 = u32::MAX;

/// One arena entry of the task graph. Indices (resource, dependents)
/// are stored as `u32` and the completion time piggybacks on the
/// state machine (`state == Done`), keeping the record compact enough
/// that a simulation's whole working set stays cache-resident.
#[derive(Debug, Clone)]
struct Task {
    duration: f64,
    service_start: SimTime,
    /// Meaningful only once `state == Done`.
    completion: SimTime,
    tag: u64,
    dependents: SmallList<u32>,
    /// Resource index, or [`NO_RESOURCE`].
    resource: u32,
    remaining_deps: u32,
    kind: TaskKind,
    state: TaskState,
}

impl Task {
    #[inline]
    fn done(&self) -> bool {
        self.state == TaskState::Done
    }
}

#[derive(Debug, Default, Clone)]
struct ResState {
    busy: bool,
    queue: VecDeque<usize>,
}

/// Completion events are packed into one `u128` min-heap key:
/// `time_bits(63..0 of the f64) << 64 | seq << 32 | task id`. Times
/// are non-negative finite by [`SimTime`]'s construction, so their
/// IEEE-754 bit patterns order identically to the values, and the
/// unique sequence number breaks ties exactly as the previous
/// `(SimTime, u64, usize)` tuple did — but each entry is 16 bytes
/// with a single integer comparison instead of a 32-byte tuple walk.
#[inline]
fn pack_event(at: SimTime, seq: u32, id: usize) -> u128 {
    debug_assert!(id <= u32::MAX as usize, "task id overflows event key");
    ((at.as_secs().to_bits() as u128) << 64) | ((seq as u128) << 32) | id as u128
}

#[inline]
fn unpack_event(key: u128) -> (SimTime, usize) {
    let t = f64::from_bits((key >> 64) as u64);
    (SimTime::from_secs(t), (key & u32::MAX as u128) as usize)
}

/// The discrete-event simulator.
///
/// Holds the resource pool, the task graph, the pending-event heap,
/// and the execution trace. See the crate docs for the model.
///
/// Tasks live in a base-offset window: `tasks[i]` is the task with id
/// `base + i`. [`Simulator::retire`] drops the finished prefix of the
/// window, so a caller that retires once per scheduling round holds
/// only the tasks between the oldest unfinished one and the newest,
/// however long the run (at most twice that: retired tasks leave the
/// window in bulk, once they are half of it). A retired task counts as
/// finished everywhere except [`Simulator::completion_time`], which
/// panics: its time was not kept. A clone is an independent simulator
/// at the same instant, with the same pending events.
///
/// Work whose schedule is analytic can bypass the event heap: the
/// caller computes each service interval itself, charges it with
/// [`Simulator::record_service`], and submits one
/// [`Simulator::submit_at`] marker per chain it needs to wait on or
/// depend on. The engines' decode bursts and chunked-prefill mixed
/// rounds run this way; prefill batches, Seesaw's re-shard and
/// transfer graph, overheads and joins are tasks.
#[derive(Debug, Clone)]
pub struct Simulator {
    pool: ResourcePool,
    res_state: Vec<ResState>,
    tasks: Vec<Task>,
    /// Id of `tasks[0]`.
    base: usize,
    /// Every task before this id is retired; those still in `tasks`
    /// are dropped once they make up half of it.
    retired: usize,
    /// Most tasks `tasks` has held at once.
    peak_retained: usize,
    /// Min-heap of packed (completion time, sequence, task id) keys.
    events: BinaryHeap<Reverse<u128>>,
    seq: u32,
    now: SimTime,
    trace: Trace,
    outstanding: usize,
    /// Accumulated service seconds per resource (kept even when span
    /// tracing is disabled, for utilization reporting).
    busy: Vec<f64>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// A simulator with tracing enabled.
    pub fn new() -> Self {
        Simulator {
            pool: ResourcePool::new(),
            res_state: Vec::new(),
            tasks: Vec::new(),
            base: 0,
            retired: 0,
            peak_retained: 0,
            events: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            trace: Trace::enabled(),
            outstanding: 0,
            busy: Vec::new(),
        }
    }

    /// A simulator that skips span recording (faster for long runs).
    pub fn without_trace() -> Self {
        let mut s = Self::new();
        s.trace = Trace::disabled();
        s
    }

    /// Enable or disable span recording for subsequent tasks.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Register a resource.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        let id = self.pool.add(name);
        self.res_state.push(ResState::default());
        self.busy.push(0.0);
        id
    }

    /// Total service seconds a resource has been busy so far.
    pub fn busy_time(&self, r: ResourceId) -> f64 {
        self.busy[r.index()]
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

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The retained task `id`, or `None` if it was retired.
    #[inline]
    fn task(&self, id: usize) -> Option<&Task> {
        (id >= self.retired).then(|| &self.tasks[id - self.base])
    }

    #[inline]
    fn task_mut(&mut self, id: usize) -> &mut Task {
        &mut self.tasks[id - self.base]
    }

    /// Whether a task has completed (a retired task has).
    pub fn completed(&self, h: TaskHandle) -> bool {
        self.task(h.0).is_none_or(Task::done)
    }

    /// Completion time of a task, if it has finished.
    ///
    /// Panics if the task was retired: its time was not kept, so a
    /// caller that still needs it must read it before the
    /// [`Simulator::retire`] call that drops it.
    pub fn completion_time(&self, h: TaskHandle) -> Option<SimTime> {
        let t = self.task(h.0).unwrap_or_else(|| {
            panic!(
                "completion time of task {} was dropped: it was retired \
                 (read it before retiring past it)",
                h.0
            )
        });
        t.done().then_some(t.completion)
    }

    /// Whether `r` is serving nothing and has nothing queued.
    pub fn is_idle(&self, r: ResourceId) -> bool {
        let rs = &self.res_state[r.index()];
        !rs.busy && rs.queue.is_empty()
    }

    /// Number of submitted-but-unfinished tasks.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Exact number of tasks submitted since the simulator was built,
    /// retired ones included (the next task's id).
    pub fn submitted_tasks(&self) -> usize {
        self.base + self.tasks.len()
    }

    /// Exact number of tasks held in memory now: those not yet
    /// retired, plus retired ones not yet dropped in bulk.
    pub fn retained_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Exact high-water mark of [`Simulator::retained_tasks`] since
    /// the simulator was built.
    pub fn peak_retained_tasks(&self) -> usize {
        self.peak_retained
    }

    /// Retire the finished tasks before the first unfinished one,
    /// which a caller does once it has read every completion time it
    /// needs from them. Handles to retired tasks stay usable: they
    /// count as finished for dependencies, [`Simulator::completed`]
    /// and [`Simulator::run_until`]. Each task is retired once, and
    /// the bulk drop moves no more tasks than it drops, so the cost is
    /// amortized O(1) per task.
    pub fn retire(&mut self) {
        let end = self.submitted_tasks();
        while self.retired < end && self.tasks[self.retired - self.base].done() {
            self.retired += 1;
        }
        let dead = self.retired - self.base;
        if dead > 0 && 2 * dead >= self.tasks.len() {
            self.tasks.drain(..dead);
            self.base = self.retired;
        }
    }

    /// Time of the earliest pending completion event, if any. Every
    /// unfinished task completes at or after it: a task only becomes
    /// ready when a dependency or its resource's current occupant
    /// completes.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek().map(|&Reverse(key)| unpack_event(key).0)
    }

    /// Submit a task; it becomes ready once its dependencies complete
    /// (immediately, at the current time, if they already have).
    pub fn submit(&mut self, spec: TaskSpec) -> TaskHandle {
        self.submit_parts(spec.resource, spec.duration, spec.kind, spec.tag, spec.deps.as_slice())
    }

    /// Submit a zero-duration synchronization node joining `deps`,
    /// without materializing a [`TaskSpec`] (hot-loop join path: no
    /// dependency list is allocated).
    pub fn submit_sync(&mut self, deps: &[TaskHandle]) -> TaskHandle {
        self.submit_parts(None, 0.0, TaskKind::Sync, 0, deps)
    }

    /// Submit a single task on `resource` with at most one dependency,
    /// without materializing a [`TaskSpec`] (the engines' hot loop:
    /// chained passes and transfers are all 0/1-dependency tasks).
    pub fn submit_on(
        &mut self,
        resource: ResourceId,
        duration: f64,
        kind: TaskKind,
        tag: u64,
        dep: Option<TaskHandle>,
    ) -> TaskHandle {
        let deps: &[TaskHandle] = match &dep {
            Some(d) => std::slice::from_ref(d),
            None => &[],
        };
        self.submit_parts(Some(resource), duration, kind, tag, deps)
    }

    /// Submit a resource-less task that completes at `at` (no earlier
    /// than now). It stands for the tail of work whose schedule the
    /// caller computed in closed form and charged with
    /// [`Simulator::record_service`], so later tasks can depend on it
    /// and [`Simulator::run_until`] can wait for it.
    pub fn submit_at(&mut self, at: SimTime) -> TaskHandle {
        assert!(at >= self.now, "submit_at({at}) is before now ({})", self.now);
        let now = self.now;
        let id = self.push_task(Task {
            duration: at - now,
            service_start: now,
            completion: SimTime::ZERO,
            tag: 0,
            dependents: SmallList::Empty,
            resource: NO_RESOURCE,
            remaining_deps: 0,
            kind: TaskKind::Sync,
            state: TaskState::Running,
        });
        self.schedule_completion(id, at);
        TaskHandle(id)
    }

    /// Charge each of `resources` (a resource and its span tag) one
    /// service interval `[start, end]` of work the caller scheduled
    /// itself: `end - start` busy seconds and, when tracing, a span —
    /// exactly what completing a task on each resource would add. A
    /// TP group serving one pipeline stage in lockstep is charged in
    /// one call. The caller keeps each resource's FIFO order: nothing
    /// the executor serves there may overlap the interval.
    pub fn record_service(
        &mut self,
        resources: impl IntoIterator<Item = (ResourceId, u64)>,
        start: SimTime,
        end: SimTime,
        kind: TaskKind,
    ) {
        let service = end - start;
        for (resource, tag) in resources {
            self.busy[resource.index()] += service;
            self.trace.record(Span {
                resource: Some(resource),
                kind,
                start,
                end,
                tag,
            });
        }
    }

    /// Append `task` to the window and return its id.
    fn push_task(&mut self, task: Task) -> usize {
        let id = self.submitted_tasks();
        assert!(id < u32::MAX as usize, "task ids exceed u32");
        self.tasks.push(task);
        self.peak_retained = self.peak_retained.max(self.tasks.len());
        self.outstanding += 1;
        id
    }

    fn submit_parts(
        &mut self,
        resource: Option<ResourceId>,
        duration: f64,
        kind: TaskKind,
        tag: u64,
        deps: &[TaskHandle],
    ) -> TaskHandle {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid task duration: {duration}"
        );
        if let Some(r) = resource {
            assert!(r.index() < self.res_state.len(), "unknown resource {r}");
        }
        let id = self.submitted_tasks();
        let mut remaining = 0;
        for d in deps {
            assert!(d.0 < id, "dependency on not-yet-submitted task");
            // A retired dependency has finished: no edge.
            if d.0 >= self.retired {
                let dep = &mut self.tasks[d.0 - self.base];
                if !dep.done() {
                    dep.dependents.push(id as u32);
                    remaining += 1;
                }
            }
        }
        self.push_task(Task {
            duration,
            service_start: SimTime::ZERO,
            completion: SimTime::ZERO,
            tag,
            dependents: SmallList::Empty,
            resource: resource.map_or(NO_RESOURCE, |r| r.index() as u32),
            remaining_deps: remaining,
            kind,
            state: TaskState::Waiting,
        });
        if remaining == 0 {
            self.make_ready(id);
        }
        TaskHandle(id)
    }

    /// Run until `h` completes, leaving any other in-flight tasks
    /// pending in the event queue. Returns the completion time, or
    /// for a retired task (finished before the last retire; its time
    /// was not kept) the current time, without stepping.
    ///
    /// Panics if the event queue drains before `h` completes (a
    /// dependency was never satisfiable).
    pub fn run_until(&mut self, h: TaskHandle) -> SimTime {
        while !self.completed(h) {
            assert!(
                self.step(),
                "simulation deadlock: task {} unreachable",
                h.0
            );
        }
        self.task(h.0).map_or(self.now, |t| t.completion)
    }

    /// Run until no events remain. Returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        assert_eq!(self.outstanding, 0, "tasks stuck waiting after drain");
        self.now
    }

    /// Advance the clock to `t` while the simulator is idle (no
    /// pending events) — modeling a cluster waiting for the next
    /// request arrival in an online-serving run. A `t` at or before
    /// the current time is a no-op, so callers may pass the next
    /// arrival time unconditionally after a drain.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            self.events.is_empty(),
            "advance_to requires an idle simulator ({} events pending)",
            self.events.len()
        );
        if t > self.now {
            self.now = t;
        }
    }

    /// Process one completion event. Returns `false` when the event
    /// queue is empty.
    fn step(&mut self) -> bool {
        let Some(Reverse(key)) = self.events.pop() else {
            return false;
        };
        let (t, id) = unpack_event(key);
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.complete(id);
        true
    }

    fn make_ready(&mut self, id: usize) {
        let now = self.now;
        let task = self.task_mut(id);
        let r = task.resource;
        if r == NO_RESOURCE {
            // Pure sync: completes at the current instant.
            task.state = TaskState::Running;
            task.service_start = now;
            self.schedule_completion(id, now);
        } else {
            let rs = &mut self.res_state[r as usize];
            if rs.busy {
                rs.queue.push_back(id);
                self.task_mut(id).state = TaskState::Queued;
            } else {
                self.start_service(id, r as usize);
            }
        }
    }

    fn start_service(&mut self, id: usize, r: usize) {
        self.res_state[r].busy = true;
        let now = self.now;
        let task = self.task_mut(id);
        task.state = TaskState::Running;
        task.service_start = now;
        let end = now + task.duration;
        self.schedule_completion(id, end);
    }

    fn schedule_completion(&mut self, id: usize, at: SimTime) {
        self.seq += 1;
        self.events.push(Reverse(pack_event(at, self.seq, id)));
    }

    fn complete(&mut self, id: usize) {
        let now = self.now;
        let task = self.task_mut(id);
        debug_assert_eq!(task.state, TaskState::Running);
        task.state = TaskState::Done;
        task.completion = now;
        let (resource, service_start) = (task.resource, task.service_start);
        let (kind, tag) = (task.kind, task.tag);
        let dependents = std::mem::take(&mut task.dependents);
        self.outstanding -= 1;

        // Charge the resource, free it and start the next queued task.
        // Resource-less tasks are joins and markers, not work: they
        // leave no span.
        if resource != NO_RESOURCE {
            let r = resource as usize;
            self.record_service([(ResourceId(r), tag)], service_start, now, kind);
            self.res_state[r].busy = false;
            if let Some(next) = self.res_state[r].queue.pop_front() {
                self.start_service(next, r);
            }
        }

        // Wake dependents; the single-successor case (linear chains,
        // the dominant graph shape) goes straight to `wake` with no
        // slice round-trip.
        match dependents {
            SmallList::Empty => {}
            SmallList::One(d) => self.wake(d as usize),
            SmallList::Two([a, b]) => {
                self.wake(a as usize);
                self.wake(b as usize);
            }
            SmallList::Many(v) => {
                for &d in &v {
                    self.wake(d as usize);
                }
            }
        }
    }

    #[inline]
    fn wake(&mut self, d: usize) {
        let task = self.task_mut(d);
        task.remaining_deps -= 1;
        if task.remaining_deps == 0 {
            self.make_ready(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(sim: &mut Simulator, r: ResourceId, dur: f64) -> TaskHandle {
        sim.submit(TaskSpec::new(r, dur, TaskKind::Compute))
    }

    #[test]
    fn fifo_contention_serializes() {
        let mut sim = Simulator::new();
        let gpu = sim.add_resource("gpu0.compute");
        let a = compute(&mut sim, gpu, 1.0);
        let b = compute(&mut sim, gpu, 2.0);
        let end = sim.run_until_idle();
        assert_eq!(end.as_secs(), 3.0);
        assert_eq!(sim.completion_time(a).unwrap().as_secs(), 1.0);
        assert_eq!(sim.completion_time(b).unwrap().as_secs(), 3.0);
    }

    #[test]
    fn independent_resources_overlap() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("gpu0.compute");
        let g1 = sim.add_resource("gpu1.compute");
        compute(&mut sim, g0, 2.0);
        compute(&mut sim, g1, 2.0);
        assert_eq!(sim.run_until_idle().as_secs(), 2.0);
    }

    #[test]
    fn dependencies_sequence_across_resources() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("gpu0.compute");
        let link = sim.add_resource("gpu0.d2h");
        let fwd = compute(&mut sim, g0, 1.0);
        let xfer = sim.submit(TaskSpec::new(link, 0.5, TaskKind::SwapOut).after(fwd));
        assert_eq!(sim.run_until(xfer).as_secs(), 1.5);
    }

    #[test]
    fn sync_node_joins_fan_in() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let g1 = sim.add_resource("g1");
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g1, 3.0);
        let join = sim.submit(TaskSpec::sync(vec![a, b]));
        assert_eq!(sim.run_until(join).as_secs(), 3.0);
    }

    #[test]
    fn run_until_leaves_others_in_flight() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let g1 = sim.add_resource("g1");
        let quick = compute(&mut sim, g0, 1.0);
        let slow = compute(&mut sim, g1, 10.0);
        sim.run_until(quick);
        assert_eq!(sim.now().as_secs(), 1.0);
        assert!(!sim.completed(slow));
        assert_eq!(sim.outstanding(), 1);
        sim.run_until_idle();
        assert!(sim.completed(slow));
    }

    #[test]
    fn next_event_time_peeks_without_advancing() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        assert_eq!(sim.next_event_time(), None);
        let a = compute(&mut sim, g0, 1.0);
        compute(&mut sim, g0, 2.0);
        assert_eq!(sim.next_event_time().map(SimTime::as_secs), Some(1.0));
        assert_eq!(sim.now().as_secs(), 0.0);
        sim.run_until(a);
        assert_eq!(sim.next_event_time().map(SimTime::as_secs), Some(3.0));
    }

    #[test]
    fn clone_continues_independently() {
        let mut sim = Simulator::without_trace();
        let g0 = sim.add_resource("g0");
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g0, 2.0);
        sim.run_until(a);
        let mut fork = sim.clone();
        assert_eq!(fork.run_until(b).as_secs(), 3.0);
        assert!(!sim.completed(b), "the original does not advance with its clone");
        assert_eq!(sim.run_until_idle(), fork.now());
    }

    #[test]
    fn advance_to_moves_idle_clock_forward_only() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
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
        let g0 = sim.add_resource("g0");
        compute(&mut sim, g0, 1.0);
        sim.advance_to(SimTime::from_secs(5.0));
    }

    #[test]
    fn submit_after_run_resumes_from_now() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let a = compute(&mut sim, g0, 2.0);
        sim.run_until(a);
        let b = compute(&mut sim, g0, 1.0);
        assert_eq!(sim.run_until(b).as_secs(), 3.0);
    }

    #[test]
    fn dependency_on_completed_task_is_immediate() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let a = compute(&mut sim, g0, 1.0);
        sim.run_until(a);
        let b = sim.submit(TaskSpec::new(g0, 1.0, TaskKind::Compute).after(a));
        assert_eq!(sim.run_until(b).as_secs(), 2.0);
    }

    #[test]
    fn pipeline_fills_and_drains() {
        // 2-stage pipeline, 4 micro-batches of 1s per stage:
        // total = fill(1) + 4 = 5s on the last stage.
        let mut sim = Simulator::new();
        let s0 = sim.add_resource("stage0");
        let s1 = sim.add_resource("stage1");
        let mut last = None;
        let mut prev_s0: Option<TaskHandle> = None;
        for _ in 0..4 {
            let mut spec0 = TaskSpec::new(s0, 1.0, TaskKind::Compute);
            if let Some(p) = prev_s0 {
                spec0 = spec0.after(p);
            }
            let t0 = sim.submit(spec0);
            prev_s0 = Some(t0);
            let t1 = sim.submit(TaskSpec::new(s1, 1.0, TaskKind::Compute).after(t0));
            last = Some(t1);
        }
        assert_eq!(sim.run_until(last.unwrap()).as_secs(), 5.0);
    }

    #[test]
    fn busy_time_accumulates_per_resource() {
        let mut sim = Simulator::without_trace();
        let g0 = sim.add_resource("g0");
        let g1 = sim.add_resource("g1");
        compute(&mut sim, g0, 1.0);
        compute(&mut sim, g0, 2.0);
        compute(&mut sim, g1, 0.5);
        sim.run_until_idle();
        assert!((sim.busy_time(g0) - 3.0).abs() < 1e-12);
        assert!((sim.busy_time(g1) - 0.5).abs() < 1e-12);
        assert!((sim.utilization(g0) - 1.0).abs() < 1e-12);
        assert!((sim.utilization(g1) - 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_records_service_spans() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        compute(&mut sim, g0, 1.0);
        compute(&mut sim, g0, 2.0);
        sim.run_until_idle();
        let spans = sim.trace().spans();
        assert_eq!(spans.len(), 2);
        // Second span starts when the first ends (queueing excluded
        // from service time).
        assert_eq!(spans[1].start.as_secs(), 1.0);
        assert!((sim.trace().summary().compute - 3.0).abs() < 1e-12);
    }

    #[test]
    fn determinism_under_ties() {
        // Two equal-time completions wake a shared dependent; order is
        // fixed by sequence numbers, so repeated runs agree exactly.
        let run = || {
            let mut sim = Simulator::new();
            let g0 = sim.add_resource("g0");
            let g1 = sim.add_resource("g1");
            let a = compute(&mut sim, g0, 1.0);
            let b = compute(&mut sim, g1, 1.0);
            let j = sim.submit(TaskSpec::sync(vec![a, b]));
            let c = sim.submit(TaskSpec::new(g0, 0.5, TaskKind::Compute).after(j));
            sim.run_until(c).as_secs()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), 1.5);
    }

    // Note: a genuine deadlock is unconstructible through the public
    // API (dependencies must reference earlier tasks, so the graph is
    // a DAG and every task eventually runs); the `run_until` deadlock
    // assert is purely defensive.

    #[test]
    #[should_panic(expected = "invalid task duration")]
    fn negative_duration_rejected() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        sim.submit(TaskSpec {
            resource: Some(g0),
            duration: -1.0,
            kind: TaskKind::Compute,
            deps: SmallList::Empty,
            tag: 0,
        });
    }

    #[test]
    #[should_panic(expected = "not-yet-submitted")]
    fn forward_dependency_rejected() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let fake = TaskHandle(99);
        sim.submit(TaskSpec::new(g0, 1.0, TaskKind::Compute).after(fake));
    }

    #[test]
    fn packed_event_keys_order_like_tuples() {
        let cases = [
            (0.0, 1, 2),
            (0.0, 2, 1),
            (1.5, 1, 0),
            (1.5, 1, 3),
            (2.0, 7, 9),
            (1e-12, 3, 4),
            (1e9, 4, 5),
        ];
        for &(ta, sa, ia) in &cases {
            for &(tb, sb, ib) in &cases {
                let tuple_ord = (SimTime::from_secs(ta), sa, ia)
                    .cmp(&(SimTime::from_secs(tb), sb, ib));
                let packed_ord = pack_event(SimTime::from_secs(ta), sa, ia)
                    .cmp(&pack_event(SimTime::from_secs(tb), sb, ib));
                assert_eq!(tuple_ord, packed_ord, "({ta},{sa},{ia}) vs ({tb},{sb},{ib})");
            }
        }
        let (t, id) = unpack_event(pack_event(SimTime::from_secs(3.25), 17, 42));
        assert_eq!(t.as_secs(), 3.25);
        assert_eq!(id, 42);
    }

    #[test]
    fn submit_sync_matches_taskspec_sync() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let g1 = sim.add_resource("g1");
        let a = compute(&mut sim, g0, 1.0);
        let b = compute(&mut sim, g1, 3.0);
        let join = sim.submit_sync(&[a, b]);
        assert_eq!(sim.run_until(join).as_secs(), 3.0);
    }

    /// A long run of chained two-stage passes that retires every
    /// round holds only the passes in flight, and ends where a run
    /// that never retires ends.
    #[test]
    fn retiring_every_round_bounds_the_arena() {
        const PASSES: usize = 100_000;
        let run = |retire: bool| {
            let mut sim = Simulator::without_trace();
            let s0 = sim.add_resource("stage0");
            let s1 = sim.add_resource("stage1");
            let mut tail: Option<TaskHandle> = None;
            for _ in 0..PASSES {
                let a = sim.submit_on(s0, 1e-3, TaskKind::Compute, 0, tail);
                let b = sim.submit_on(s1, 2e-3, TaskKind::Compute, 0, Some(a));
                // Keep the previous pass in flight while this one is
                // submitted, as the engines' slot tails do.
                if let Some(prev) = tail {
                    sim.run_until(prev);
                }
                tail = Some(b);
                if retire {
                    sim.retire();
                }
            }
            sim.run_until_idle();
            sim
        };
        let (retiring, keeping) = (run(true), run(false));
        assert_eq!(retiring.submitted_tasks(), 2 * PASSES);
        assert!(
            retiring.peak_retained_tasks() <= 16,
            "arena grew to {} tasks",
            retiring.peak_retained_tasks()
        );
        assert_eq!(keeping.peak_retained_tasks(), 2 * PASSES);
        assert_eq!(retiring.now(), keeping.now());
    }

    #[test]
    fn retired_dependency_adds_no_edge() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let g1 = sim.add_resource("g1");
        let a = compute(&mut sim, g0, 1.0);
        sim.run_until(a);
        sim.retire();
        assert_eq!(sim.retained_tasks(), 0);
        assert!(sim.completed(a), "a retired task counts as finished");
        // `b` is ready at once: its only dependency is retired.
        let b = sim.submit(TaskSpec::new(g1, 1.0, TaskKind::Compute).after(a));
        let join = sim.submit_sync(&[a, b]);
        assert_eq!(sim.next_event_time().map(SimTime::as_secs), Some(2.0));
        assert_eq!(sim.run_until(join).as_secs(), 2.0);
        assert_eq!(sim.run_until(a), sim.now(), "a retired task does not step");
    }

    #[test]
    #[should_panic(expected = "it was retired")]
    fn completion_time_of_retired_task_panics() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let a = compute(&mut sim, g0, 1.0);
        sim.run_until_idle();
        sim.retire();
        sim.completion_time(a);
    }

    #[test]
    fn retire_stops_at_the_first_unfinished_task() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let g1 = sim.add_resource("g1");
        let a = compute(&mut sim, g0, 1.0);
        let slow = compute(&mut sim, g1, 5.0);
        let c = compute(&mut sim, g0, 1.0);
        sim.run_until(c);
        sim.retire();
        // Only `a` precedes the unfinished `slow`; it is one task of
        // three, so it stays in memory until more retired tasks join it.
        assert_eq!(sim.retained_tasks(), 3);
        assert!(sim.completed(a) && !sim.completed(slow));
        assert_eq!(sim.completion_time(c).map(SimTime::as_secs), Some(2.0));
        sim.run_until_idle();
        sim.retire();
        assert_eq!(sim.retained_tasks(), 0);
        assert_eq!(sim.submitted_tasks(), 3);
        assert_eq!(sim.peak_retained_tasks(), 3);
    }

    #[test]
    fn submit_at_completes_at_its_time_and_gates_dependents() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let at = sim.submit_at(SimTime::from_secs(2.5));
        let b = sim.submit_on(g0, 1.0, TaskKind::Compute, 0, Some(at));
        assert_eq!(sim.next_event_time().map(SimTime::as_secs), Some(2.5));
        assert_eq!(sim.run_until(at).as_secs(), 2.5);
        assert_eq!(sim.run_until(b).as_secs(), 3.5);
        // The marker is bookkeeping, not work: only `b` leaves a span.
        assert_eq!(sim.trace().spans().len(), 1);
        assert_eq!(sim.submitted_tasks(), 2);
    }

    #[test]
    #[should_panic(expected = "is before now")]
    fn submit_at_rejects_the_past() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let a = compute(&mut sim, g0, 2.0);
        sim.run_until(a);
        sim.submit_at(SimTime::from_secs(1.0));
    }

    #[test]
    fn record_service_matches_an_executed_task() {
        let mut run = Simulator::new();
        let g0 = run.add_resource("g0");
        let a = run.submit_on(g0, 0.75, TaskKind::Compute, 7, None);
        run.run_until(a);
        let mut recorded = Simulator::new();
        let r0 = recorded.add_resource("g0");
        recorded.record_service([(r0, 7)], SimTime::ZERO, SimTime::from_secs(0.75), TaskKind::Compute);
        assert_eq!(recorded.busy_time(r0), run.busy_time(g0));
        assert_eq!(recorded.trace().spans(), run.trace().spans());
        assert_eq!(recorded.submitted_tasks(), 0, "no task enters the event heap");
        assert!(recorded.is_idle(r0), "the executor does not see recorded work");
    }

    #[test]
    fn joins_leave_no_span() {
        let mut sim = Simulator::new();
        let g0 = sim.add_resource("g0");
        let a = compute(&mut sim, g0, 1.0);
        let join = sim.submit_sync(&[a]);
        sim.run_until(join);
        assert_eq!(sim.trace().spans().len(), 1);
    }

    #[test]
    fn tracing_toggle_applies_to_subsequent_tasks() {
        let mut sim = Simulator::without_trace();
        let g = sim.add_resource("g");
        compute(&mut sim, g, 1.0);
        sim.run_until_idle();
        assert!(sim.trace().spans().is_empty());
        sim.set_tracing(true);
        compute(&mut sim, g, 1.0);
        sim.run_until_idle();
        assert_eq!(sim.trace().spans().len(), 1);
    }
}
