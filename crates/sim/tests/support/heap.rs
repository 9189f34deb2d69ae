//! The event-driven executor that the eager [`Simulator`] replaced,
//! kept as a test oracle that shares no scheduling code with it. A
//! task waits for its dependencies, then queues at its resource in the
//! order it became ready, and completes when its event is popped from
//! a `(time, sequence, id)` min-heap; equal times pop in push order.
//!
//! Where every resource is served in submission order the two agree bit
//! for bit; [`HeapSim::overtakes`] counts the services that were not.
//! It records a [`Span`] per service, from which it derives busy totals
//! per resource and per kind.
//!
//! [`Simulator`]: seesaw_sim::Simulator
#![allow(dead_code)]

use seesaw_sim::{ResourceId, ResourcePool, SimTime, TaskKind, TraceSummary};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle(usize);

/// One service: a task's interval on its resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The task, numbered in submission order.
    pub task: usize,
    pub resource: ResourceId,
    pub kind: TaskKind,
    pub start: SimTime,
    pub end: SimTime,
}

#[derive(Debug, Clone)]
struct Task {
    /// The resource and the kind of work, or `None` for a join, which
    /// occupies nothing.
    work: Option<(ResourceId, TaskKind)>,
    duration: f64,
    dependents: Vec<usize>,
    waiting_on: usize,
    start: SimTime,
    end: Option<SimTime>,
}

/// The event-driven simulator.
#[derive(Debug, Clone, Default)]
pub struct HeapSim {
    pool: ResourcePool,
    /// Per resource: whether a task is in service, and the queue of
    /// ready tasks behind it.
    serving: Vec<bool>,
    queues: Vec<VecDeque<usize>>,
    /// Per resource: the id of the last task it started.
    last_started: Vec<Option<usize>>,
    overtakes: usize,
    tasks: Vec<Task>,
    events: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    now: SimTime,
    busy: Vec<f64>,
    spans: Vec<Span>,
}

impl HeapSim {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_resource(&mut self) -> ResourceId {
        self.serving.push(false);
        self.queues.push(VecDeque::new());
        self.last_started.push(None);
        self.busy.push(0.0);
        self.pool.add()
    }

    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn busy_time(&self, r: ResourceId) -> f64 {
        self.busy[r.index()]
    }

    /// Service spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Service seconds per kind, summed in submission order (the order
    /// the eager simulator charges them).
    pub fn busy_by_kind(&self) -> TraceSummary {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| s.task);
        let mut kinds = TraceSummary::default();
        for s in &spans {
            kinds.add(s.kind, s.end - s.start);
        }
        kinds
    }

    /// Services that started a task submitted before the previous one
    /// its resource started.
    pub fn overtakes(&self) -> usize {
        self.overtakes
    }

    pub fn completion_time(&self, h: Handle) -> Option<SimTime> {
        self.tasks[h.0].end
    }

    pub fn completed(&self, h: Handle) -> bool {
        self.tasks[h.0].end.is_some()
    }

    /// Whether `r` serves nothing and has nothing queued.
    pub fn is_idle(&self, r: ResourceId) -> bool {
        !self.serving[r.index()] && self.queues[r.index()].is_empty()
    }

    /// A task of `duration` seconds of `work` after `deps`.
    fn submit(
        &mut self,
        work: Option<(ResourceId, TaskKind)>,
        duration: f64,
        deps: &[Handle],
    ) -> Handle {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid task duration"
        );
        let id = self.tasks.len();
        let mut waiting_on = 0;
        for d in deps {
            assert!(d.0 < id, "dependency on a task not yet submitted");
            if self.tasks[d.0].end.is_none() {
                self.tasks[d.0].dependents.push(id);
                waiting_on += 1;
            }
        }
        self.tasks.push(Task {
            work,
            duration,
            dependents: Vec::new(),
            waiting_on,
            start: SimTime::ZERO,
            end: None,
        });
        if waiting_on == 0 {
            self.ready(id);
        }
        Handle(id)
    }

    pub fn submit_on(
        &mut self,
        resource: ResourceId,
        duration: f64,
        kind: TaskKind,
        dep: Option<Handle>,
    ) -> Handle {
        self.submit(Some((resource, kind)), duration, dep.as_slice())
    }

    /// A join: completes the instant its last dependency does.
    pub fn join(&mut self, deps: &[Handle]) -> Handle {
        self.submit(None, 0.0, deps)
    }

    /// Serve `[start, end]` on each of the idle `resources`, as if a
    /// task had started there at `start`. Returns the last of those
    /// tasks; they all complete at `end`.
    pub fn occupy(
        &mut self,
        resources: &[ResourceId],
        start: SimTime,
        end: SimTime,
        kind: TaskKind,
    ) -> Handle {
        assert!(start >= self.now && end >= start, "interval in the past");
        assert!(!resources.is_empty(), "occupying nothing");
        for &r in resources {
            assert!(self.is_idle(r), "occupying busy {r}");
            let id = self.tasks.len();
            self.tasks.push(Task {
                work: Some((r, kind)),
                duration: end - start,
                dependents: Vec::new(),
                waiting_on: 0,
                start,
                end: None,
            });
            self.serving[r.index()] = true;
            self.last_started[r.index()] = Some(id);
            self.schedule(id, end);
        }
        Handle(self.tasks.len() - 1)
    }

    /// Run until `h` completes; returns its completion time.
    pub fn run_until(&mut self, h: Handle) -> SimTime {
        while self.tasks[h.0].end.is_none() {
            assert!(self.step(), "task {} is unreachable", h.0);
        }
        self.tasks[h.0].end.expect("loop ran until it completed")
    }

    /// Run until no events remain; returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    fn step(&mut self) -> bool {
        let Some(Reverse((t, _, id))) = self.events.pop() else {
            return false;
        };
        self.now = t;
        self.complete(id);
        true
    }

    fn schedule(&mut self, id: usize, at: SimTime) {
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, id)));
    }

    fn ready(&mut self, id: usize) {
        match self.tasks[id].work.map(|(r, _)| r) {
            None => {
                self.tasks[id].start = self.now;
                self.schedule(id, self.now);
            }
            Some(r) if self.serving[r.index()] => self.queues[r.index()].push_back(id),
            Some(r) => self.start(id, r.index()),
        }
    }

    fn start(&mut self, id: usize, r: usize) {
        if self.last_started[r].is_some_and(|last| last > id) {
            self.overtakes += 1;
        }
        self.last_started[r] = Some(id);
        self.serving[r] = true;
        self.tasks[id].start = self.now;
        let end = self.now + self.tasks[id].duration;
        self.schedule(id, end);
    }

    fn complete(&mut self, id: usize) {
        let now = self.now;
        let task = &mut self.tasks[id];
        task.end = Some(now);
        let dependents = std::mem::take(&mut task.dependents);
        if let Some((r, kind)) = task.work {
            let span = Span {
                task: id,
                resource: r,
                kind,
                start: task.start,
                end: now,
            };
            self.busy[r.index()] += span.end - span.start;
            self.spans.push(span);
            self.serving[r.index()] = false;
            if let Some(next) = self.queues[r.index()].pop_front() {
                self.start(next, r.index());
            }
        }
        for d in dependents {
            self.tasks[d].waiting_on -= 1;
            if self.tasks[d].waiting_on == 0 {
                self.ready(d);
            }
        }
    }
}
