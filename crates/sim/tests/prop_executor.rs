//! Property tests for the eager executor: for arbitrary task DAGs,
//! service must respect resources (no overlap on one resource),
//! dependencies, and work conservation; and on engine-shaped graphs it
//! must agree bit for bit with the event-driven executor it replaced.

#[path = "support/heap.rs"]
mod heap;

use heap::{Handle, HeapSim};
use proptest::prelude::*;
use seesaw_sim::{ResourceId, SimTime, Simulator, TaskKind};

/// A randomly generated task: resource index, duration, and a set of
/// earlier tasks to depend on (encoded as offsets).
#[derive(Debug, Clone)]
struct GenTask {
    resource: usize,
    duration: f64,
    dep_offsets: Vec<usize>,
}

fn tasks_strategy(n_res: usize) -> impl Strategy<Value = Vec<GenTask>> {
    prop::collection::vec(
        (
            0..n_res,
            0.001f64..2.0,
            prop::collection::vec(1usize..8, 0..3),
        ),
        1..40,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(resource, duration, dep_offsets)| GenTask {
                resource,
                duration,
                dep_offsets,
            })
            .collect()
    })
}

/// Submit `tasks` (a task on several dependencies waits for the latest
/// of them) and run to the end. Returns the simulator and each task's
/// completion time.
fn build_and_run(tasks: &[GenTask], n_res: usize) -> (Simulator, Vec<SimTime>) {
    let mut sim = Simulator::new();
    (0..n_res).for_each(|_| {
        sim.add_resource();
    });
    let mut ends: Vec<SimTime> = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let dep = t
            .dep_offsets
            .iter()
            .filter(|&&off| off <= i && i > 0)
            .map(|&off| ends[i - off])
            .max();
        let r = sim.pool().id(t.resource);
        ends.push(sim.submit_on(r, t.duration, TaskKind::Compute, dep));
    }
    sim.run_until_idle();
    (sim, ends)
}

/// One step of an engine-shaped run, decoded from raw draws.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A pipelined pass through every stage, each stage on its TP
    /// group; stage `s` lasts `base · (1 + s/2)` seconds.
    Pass { base: f64 },
    /// KV swap-out of the latest pass: per GPU, D2H after the pass,
    /// then a staging copy; the D2Hs and the copies are each joined.
    SwapOut { xfer: f64, copy: f64 },
    /// KV swap-in: per GPU, a staging copy then H2D, joined. Swap-outs
    /// are drained first, as a decode phase follows its prefill phase.
    SwapIn { copy: f64, xfer: f64 },
    /// Join `fan` of the latest waitable handles.
    Join { fan: usize },
    /// Drain stage `stage`'s GPUs, then charge them one interval
    /// `[now + offset, now + offset + dur]` scheduled by the caller.
    Record { stage: usize, offset: f64, dur: f64 },
    /// Wait for the `back`-th latest waitable handle.
    RunUntil { back: usize },
}

/// A random engine-shaped run: `pp` stages of `tp` GPUs, each GPU with
/// a compute engine, both DMA directions and a staging thread.
#[derive(Debug, Clone)]
struct Shape {
    pp: usize,
    tp: usize,
    /// Passes chain on their slot's previous pass (decode rounds), or
    /// start as soon as submitted (prefill batches).
    chained: bool,
    /// Swap-ins wait for the latest pass (no compute/copy overlap).
    serial_swap_in: bool,
    ops: Vec<Op>,
}

fn shapes() -> impl Strategy<Value = Shape> {
    let op = (0u32..12, 0.001f64..1.0, 0.0f64..0.5, 0usize..8);
    let flags = (1usize..4, 1usize..3, 0u32..2, 0u32..2);
    (flags, prop::collection::vec(op, 1..48)).prop_map(|((pp, tp, chained, serial), raw)| {
        let ops = raw
            .into_iter()
            .map(|(code, a, b, n)| match code {
                0..=3 => Op::Pass { base: a },
                4 | 5 => Op::SwapOut {
                    xfer: a,
                    copy: b + 0.001,
                },
                6 => Op::SwapIn {
                    copy: b + 0.001,
                    xfer: a,
                },
                7 => Op::Join { fan: n + 1 },
                8 => Op::Record {
                    stage: n % pp,
                    offset: if n < 4 { 0.0 } else { b },
                    dur: a,
                },
                _ => Op::RunUntil { back: n },
            })
            .collect();
        Shape {
            pp,
            tp,
            chained: chained == 1,
            serial_swap_in: serial == 1,
            ops,
        }
    })
}

/// Both executors side by side: every submission goes to both, and a
/// handle is the pair of the eager completion time and the heap task.
struct Pair {
    eager: Simulator,
    heap: HeapSim,
    /// Per engine (compute, H2D, D2H, staging), per GPU: the resource,
    /// registered in `ClusterSim`'s order with the same id in both.
    res: Vec<Vec<ResourceId>>,
    /// Per GPU: the latest work on its compute engine.
    last_compute: Vec<Option<(SimTime, Handle)>>,
    /// Every `now` either executor reached after a wait.
    clocks: Vec<(u64, u64)>,
}

const COMPUTE: usize = 0;
const H2D: usize = 1;
const D2H: usize = 2;
const STAGING: usize = 3;

impl Pair {
    fn new(gpus: usize) -> Self {
        let (mut eager, mut heap) = (Simulator::new(), HeapSim::new());
        // Compute, h2d, d2h, staging: one block of resources each.
        let res = (0..4)
            .map(|_| {
                (0..gpus)
                    .map(|_| {
                        let id = eager.add_resource();
                        assert_eq!(heap.add_resource(), id);
                        id
                    })
                    .collect()
            })
            .collect();
        Pair {
            eager,
            heap,
            res,
            last_compute: vec![None; gpus],
            clocks: Vec::new(),
        }
    }

    fn submit(
        &mut self,
        gpu: usize,
        engine: usize,
        dur: f64,
        kind: TaskKind,
        dep: Option<(SimTime, Handle)>,
    ) -> (SimTime, Handle) {
        let r = self.res[engine][gpu];
        let t = self.eager.submit_on(r, dur, kind, dep.map(|d| d.0));
        let h = self.heap.submit_on(r, dur, kind, dep.map(|d| d.1));
        if engine == COMPUTE {
            self.last_compute[gpu] = Some((t, h));
        }
        (t, h)
    }

    /// The latest of `parts`, and no earlier than now; a single part
    /// is its own join.
    fn join(&mut self, parts: &[(SimTime, Handle)]) -> (SimTime, Handle) {
        if let [one] = parts {
            return *one;
        }
        let t = parts.iter().fold(self.eager.now(), |a, p| a.max(p.0));
        let hs: Vec<Handle> = parts.iter().map(|p| p.1).collect();
        (t, self.heap.join(&hs))
    }

    fn run_until(&mut self, (t, h): (SimTime, Handle)) {
        self.eager.run_until(t);
        self.heap.run_until(h);
        let clock = (
            self.eager.now().as_secs().to_bits(),
            self.heap.now().as_secs().to_bits(),
        );
        self.clocks.push(clock);
    }
}

/// Drive `shape` through both executors; returns the pair and every
/// handle it made, after both ran to the end.
fn drive(shape: &Shape) -> (Pair, Vec<(SimTime, Handle)>) {
    let (pp, tp) = (shape.pp, shape.tp);
    let gpu = |s: usize, t: usize| s * tp + t;
    let mut p = Pair::new(pp * tp);
    let mut handles: Vec<(SimTime, Handle)> = Vec::new();
    let mut tails: Vec<Option<(SimTime, Handle)>> = vec![None; pp];
    let mut last_pass = None;
    let mut swap_outs = Vec::new();
    let mut passes = 0;
    for &op in &shape.ops {
        match op {
            Op::Pass { base } => {
                let slot = passes % pp;
                passes += 1;
                let mut prev = if shape.chained { tails[slot] } else { None };
                for s in 0..pp {
                    let dur = base * (1.0 + s as f64 / 2.0);
                    let parts: Vec<_> = (0..tp)
                        .map(|t| p.submit(gpu(s, t), COMPUTE, dur, TaskKind::Compute, prev))
                        .collect();
                    prev = Some(p.join(&parts));
                }
                tails[slot] = prev;
                last_pass = prev;
                handles.push(prev.expect("pp >= 1"));
            }
            Op::SwapOut { xfer, copy } => {
                let Some(pass) = last_pass else { continue };
                let (mut d2h, mut staged) = (Vec::new(), Vec::new());
                for g in 0..pp * tp {
                    let out = p.submit(g, D2H, xfer, TaskKind::SwapOut, Some(pass));
                    d2h.push(out);
                    staged.push(p.submit(g, STAGING, copy, TaskKind::StagingCopy, Some(out)));
                }
                let (vacate, buffered) = (p.join(&d2h), p.join(&staged));
                handles.extend([vacate, buffered]);
                swap_outs.push(buffered);
            }
            Op::SwapIn { copy, xfer } => {
                for h in std::mem::take(&mut swap_outs) {
                    p.run_until(h);
                }
                let dep = if shape.serial_swap_in {
                    last_pass
                } else {
                    None
                };
                let parts: Vec<_> = (0..pp * tp)
                    .map(|g| {
                        let st = p.submit(g, STAGING, copy, TaskKind::StagingCopy, dep);
                        p.submit(g, H2D, xfer, TaskKind::SwapIn, Some(st))
                    })
                    .collect();
                handles.push(p.join(&parts));
            }
            Op::Join { fan } => {
                let fan = fan.min(handles.len());
                let parts = handles[handles.len() - fan..].to_vec();
                if !parts.is_empty() {
                    handles.push(p.join(&parts));
                }
            }
            Op::Record { stage, offset, dur } => {
                for t in 0..tp {
                    if let Some(last) = p.last_compute[gpu(stage, t)] {
                        p.run_until(last);
                    }
                }
                let start = SimTime::from_secs(p.eager.now().as_secs() + offset);
                let end = start + dur;
                let group: Vec<ResourceId> =
                    (0..tp).map(|t| p.res[COMPUTE][gpu(stage, t)]).collect();
                // Compute engines are resources `0..gpus`, a stage's TP
                // group contiguous among them.
                let block = p.eager.block(gpu(stage, 0)..gpu(stage, 0) + tp);
                for i in 0..tp {
                    block.busy[i] += end - start;
                    block.kinds.add(TaskKind::Compute, end - start);
                    block.free[i] = block.free[i].max(end);
                }
                let h = p.heap.occupy(&group, start, end, TaskKind::Compute);
                for t in 0..tp {
                    p.last_compute[gpu(stage, t)] = Some((end, h));
                }
            }
            Op::RunUntil { back } => {
                if let Some(&h) = handles.iter().rev().nth(back.min(handles.len().max(1) - 1)) {
                    p.run_until(h);
                }
            }
        }
    }
    p.eager.run_until_idle();
    p.heap.run_until_idle();
    (p, handles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Makespan bounds: at least the busiest resource's total work,
    /// at most the sum of all durations (plus epsilon).
    #[test]
    fn makespan_within_bounds(tasks in tasks_strategy(3)) {
        let (sim, _) = build_and_run(&tasks, 3);
        let total: f64 = tasks.iter().map(|t| t.duration).sum();
        let mut per_res = [0.0f64; 3];
        for t in &tasks {
            per_res[t.resource] += t.duration;
        }
        let busiest = per_res.iter().cloned().fold(0.0, f64::max);
        let end = sim.now().as_secs();
        prop_assert!(end >= busiest - 1e-9, "end {end} < busiest {busiest}");
        prop_assert!(end <= total + 1e-9, "end {end} > total {total}");
    }

    /// No two services on the same resource overlap.
    #[test]
    fn resources_serve_one_task_at_a_time(tasks in tasks_strategy(2)) {
        let (_, ends) = build_and_run(&tasks, 2);
        for r in 0..2 {
            let mut spans: Vec<(f64, f64)> = tasks
                .iter()
                .zip(&ends)
                .filter(|(t, _)| t.resource == r)
                .map(|(t, end)| (end.as_secs() - t.duration, end.as_secs()))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// Work conservation: the total busy time equals the sum of
    /// durations.
    #[test]
    fn work_is_conserved(tasks in tasks_strategy(3)) {
        let (sim, _) = build_and_run(&tasks, 3);
        let total: f64 = tasks.iter().map(|t| t.duration).sum();
        let busy = sim.busy_by_kind().total();
        prop_assert!((busy - total).abs() < 1e-6, "busy {busy} vs total {total}");
    }

    /// Replays are bit-identical (determinism).
    #[test]
    fn deterministic_replay(tasks in tasks_strategy(3)) {
        let (a, a_ends) = build_and_run(&tasks, 3);
        let (b, b_ends) = build_and_run(&tasks, 3);
        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(a_ends, b_ends);
        prop_assert_eq!(a.busy_by_kind(), b.busy_by_kind());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On engine-shaped graphs — pipelined passes, swap chains, fan-in
    /// joins, caller-scheduled intervals, waits between submissions —
    /// every resource is served in submission order, and the eager
    /// executor agrees bit for bit with the event-driven one on every
    /// completion time, every clock after a wait, every busy total per
    /// resource, and the busy totals per kind, summed in submission
    /// order.
    #[test]
    fn eager_matches_the_event_heap(shape in shapes()) {
        let (p, handles) = drive(&shape);
        prop_assert_eq!(p.heap.overtakes(), 0, "{:?}", shape);
        for &(t, h) in &handles {
            let heap_t = p.heap.completion_time(h).expect("ran to the end");
            prop_assert_eq!(t.as_secs().to_bits(), heap_t.as_secs().to_bits(), "{:?}", shape);
        }
        for &(eager, heap) in &p.clocks {
            prop_assert_eq!(eager, heap, "{:?}", shape);
        }
        prop_assert_eq!(p.eager.now(), p.heap.now(), "{:?}", shape);
        for engine in &p.res {
            for &r in engine {
                prop_assert_eq!(
                    p.eager.busy_time(r).to_bits(),
                    p.heap.busy_time(r).to_bits(),
                    "{:?}",
                    shape
                );
            }
        }
        prop_assert_eq!(p.eager.busy_by_kind(), p.heap.busy_by_kind(), "{:?}", shape);
    }
}
