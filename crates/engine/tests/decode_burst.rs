//! A fused decode burst (`driver::submit_decode_burst`) and a prefill
//! batch (`driver::submit_prefill_batch`) compute their pipeline
//! schedule in closed form. The reference here is the task-graph
//! version they replaced, run on the event-driven executor that the
//! eager `Simulator` replaced (`tests/support`): one pass per
//! micro-batch slot (per round, chained on the slot's previous tail,
//! for a burst), each stage a task on every GPU of its TP group, served
//! by FIFO stage queues. Its running sequences are a plain
//! `Vec<RunSeq>` kept by the scan the replica's incremental bookkeeping
//! replaced (`tests/support/scan.rs`). The two share no scheduling or
//! bookkeeping code. On random layouts, driven the way the vLLM loop
//! drives them — prefill batches with two in flight, whose sequences
//! then join the running set, and bursts at each replica's longest
//! survivable length, so sequences retire and slots reshuffle between
//! steps — they must agree bit for bit on every time, busy total,
//! busy-until time and per-kind total (the reference's summed per
//! interval in submission order), and retire the same sequences in the
//! same order.

mod support;

use proptest::prelude::*;
use seesaw_engine::cluster_sim::ClusterSim;
use seesaw_engine::driver::{submit_decode_burst, submit_prefill_batch, Replica, RunSeq};
use seesaw_hw::{efficiency, ClusterSpec};
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline, Stage};
use seesaw_sim::{SimTime, TraceSummary};
use std::collections::VecDeque;
use support::heap::Handle;
use support::{scan, setup, stage_durations, HeapCluster, SETUPS};

/// One step of an engine loop, on every replica.
#[derive(Debug, Clone)]
enum Step {
    /// Drain the prefill batches in flight, then burst every running
    /// replica for its longest survivable length under this cap, wait
    /// for the join and advance.
    Burst(usize),
    /// Per replica, a prefill batch of sequences `(prompt, remaining
    /// decode steps)`. With two batches in flight the older is waited
    /// for, and its sequences start decoding.
    Prefill(Vec<Vec<(usize, usize)>>),
}

/// What one engine loop observes.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per wait: the time waited for, then (after a burst) every
    /// replica's slot-tail times or (after a prefill batch) every
    /// member's `(id, pass end)`.
    times: Vec<Vec<Option<u64>>>,
    /// Per burst: every replica's round count and the ids it retired,
    /// in retirement order.
    retired: Vec<Vec<(usize, Vec<u64>)>>,
    /// Per burst, and at the end: until when every GPU's compute engine
    /// is busy.
    until: Vec<Vec<u64>>,
    /// Busy seconds of every GPU's compute engine.
    busy: Vec<u64>,
    /// Busy seconds per kind.
    kinds: TraceSummary,
}

/// A prefill batch in flight: its join, and per member its replica,
/// its pass end and the sequence it starts.
type Inflight<H> = (H, Vec<(usize, H, RunSeq)>);

fn bits(t: SimTime) -> u64 {
    t.as_secs().to_bits()
}

/// A simulated cluster the loop drives: the library's or the reference.
trait Engine {
    type H: Copy;
    fn max_burst(&self, d: usize, cap: usize) -> usize;
    /// A burst of `rounds` on replica `d`.
    fn burst(&mut self, d: usize, rounds: usize) -> Self::H;
    /// Replica `d`'s slot tails, as bits (after its burst completed).
    fn tails(&self, d: usize) -> Vec<Option<u64>>;
    /// Apply `rounds` on replica `d`; the ids it retires, in order.
    fn advance(&mut self, d: usize, rounds: usize) -> Vec<u64>;
    /// A prefill batch of `(id, prompt)` on replica `d`: each member's
    /// pass end.
    fn prefill(&mut self, d: usize, batch: &[(u64, usize)]) -> Vec<(u64, Self::H)>;
    fn join(&mut self, parts: &[Self::H]) -> Self::H;
    /// Wait for `h`; its time.
    fn wait(&mut self, h: Self::H) -> SimTime;
    /// The time of completed `h`.
    fn time(&self, h: Self::H) -> SimTime;
    /// Replica `d` starts decoding `seq`.
    fn admit(&mut self, d: usize, seq: RunSeq);
    /// Until when every GPU is busy, once everything submitted is done.
    fn until(&mut self) -> Vec<u64>;
    fn busy(&mut self) -> Vec<u64>;
    fn kinds(&self) -> TraceSummary;
}

/// Run `steps` the way the vLLM loop does. Every replica starts with
/// `seqs` (per replica, `(ctx, remaining)`); ids are unique across
/// replicas.
fn drive<E: Engine>(e: &mut E, seqs: &[Vec<(usize, usize)>], steps: &[Step]) -> Observed {
    let dp = seqs.len();
    let mut next_id = 0;
    let mut new_seq = |ctx, remaining| {
        next_id += 1;
        RunSeq {
            id: next_id,
            ctx,
            remaining,
        }
    };
    for (d, batch) in seqs.iter().enumerate() {
        for &(ctx, remaining) in batch {
            e.admit(d, new_seq(ctx, remaining));
        }
    }
    let (mut times, mut retired, mut until) = (Vec::new(), Vec::new(), Vec::new());
    let mut inflight: VecDeque<Inflight<E::H>> = VecDeque::new();
    let integrate = |e: &mut E, (join, members): Inflight<E::H>| {
        let mut row = vec![Some(bits(e.wait(join)))];
        for (d, end, seq) in members {
            row.extend([Some(seq.id), Some(bits(e.time(end)))]);
            e.admit(d, seq);
        }
        row
    };
    for step in steps {
        match step {
            Step::Prefill(batches) => {
                let mut ends = Vec::new();
                let mut members = Vec::new();
                for (d, batch) in batches.iter().enumerate().take(dp) {
                    let seqs: Vec<RunSeq> = batch
                        .iter()
                        .map(|&(prompt, remaining)| new_seq(prompt + 1, remaining))
                        .collect();
                    let admitted: Vec<(u64, usize)> =
                        seqs.iter().map(|s| (s.id, s.ctx - 1)).collect();
                    for (id, end) in e.prefill(d, &admitted) {
                        let seq = *seqs.iter().find(|s| s.id == id).expect("a member");
                        ends.push(end);
                        members.push((d, end, seq));
                    }
                }
                if ends.is_empty() {
                    continue;
                }
                let join = e.join(&ends);
                inflight.push_back((join, members));
                if inflight.len() >= 2 {
                    let oldest = inflight.pop_front().expect("two in flight");
                    times.push(integrate(e, oldest));
                }
            }
            &Step::Burst(cap) => {
                while let Some(batch) = inflight.pop_front() {
                    times.push(integrate(e, batch));
                }
                let mut ends = Vec::new();
                let mut rounds = Vec::new();
                for d in 0..dp {
                    let n = e.max_burst(d, cap);
                    rounds.push(n);
                    if n > 0 {
                        ends.push(e.burst(d, n));
                    }
                }
                if ends.is_empty() {
                    continue;
                }
                let join = e.join(&ends);
                let mut row = vec![Some(bits(e.wait(join)))];
                until.push(e.until());
                let mut out = Vec::new();
                for (d, n) in rounds.into_iter().enumerate() {
                    row.extend(e.tails(d));
                    let ids = if n > 0 { e.advance(d, n) } else { Vec::new() };
                    out.push((n, ids));
                }
                times.push(row);
                retired.push(out);
            }
        }
    }
    while let Some(batch) = inflight.pop_front() {
        times.push(integrate(e, batch));
    }
    until.push(e.until());
    Observed {
        times,
        retired,
        until,
        busy: e.busy(),
        kinds: e.kinds(),
    }
}

/// The library: `ClusterSim` and one `Replica` per DP rank.
struct Fused<'a> {
    cs: ClusterSim,
    rl: &'a Roofline,
    cfg: ParallelConfig,
    replicas: Vec<Replica>,
}

impl<'a> Fused<'a> {
    fn new(cluster: &ClusterSpec, rl: &'a Roofline, cfg: ParallelConfig) -> Self {
        Fused {
            cs: ClusterSim::new(cluster.clone()),
            rl,
            cfg,
            replicas: (0..cfg.dp)
                .map(|d| Replica::new(d, 1 << 24, cfg.pp))
                .collect(),
        }
    }
}

impl Engine for Fused<'_> {
    type H = SimTime;

    fn max_burst(&self, d: usize, cap: usize) -> usize {
        self.replicas[d].max_burst(cap)
    }

    fn burst(&mut self, d: usize, rounds: usize) -> SimTime {
        submit_decode_burst(
            &mut self.cs,
            self.rl,
            self.cfg,
            &mut self.replicas[d],
            rounds,
        )
        .expect("replica is running")
    }

    fn tails(&self, d: usize) -> Vec<Option<u64>> {
        self.replicas[d].tails.iter().map(|t| t.map(bits)).collect()
    }

    fn advance(&mut self, d: usize, rounds: usize) -> Vec<u64> {
        self.replicas[d]
            .advance_decode(rounds)
            .iter()
            .map(|s| s.id)
            .collect()
    }

    fn prefill(&mut self, d: usize, batch: &[(u64, usize)]) -> Vec<(u64, SimTime)> {
        let mut out = Vec::new();
        let rep = &mut self.replicas[d];
        submit_prefill_batch(&mut self.cs, self.rl, self.cfg, rep, batch, &mut out);
        out.into_iter().map(|(end, id)| (id, end)).collect()
    }

    fn join(&mut self, parts: &[SimTime]) -> SimTime {
        self.cs.join(parts)
    }

    fn wait(&mut self, h: SimTime) -> SimTime {
        self.cs.sim.run_until(h)
    }

    fn time(&self, h: SimTime) -> SimTime {
        assert!(self.cs.sim.completed(h));
        h
    }

    fn admit(&mut self, d: usize, seq: RunSeq) {
        let rep = &mut self.replicas[d];
        rep.kv
            .allocate(seq.id, seq.ctx + seq.remaining)
            .expect("KV fits");
        rep.push_running(seq);
    }

    fn until(&mut self) -> Vec<u64> {
        let n = self.cs.cluster.num_gpus;
        self.cs
            .compute_block(0..n)
            .free
            .iter()
            .map(|&t| bits(t))
            .collect()
    }

    fn busy(&mut self) -> Vec<u64> {
        let n = self.cs.cluster.num_gpus;
        self.cs
            .compute_block(0..n)
            .busy
            .iter()
            .map(|b| b.to_bits())
            .collect()
    }

    fn kinds(&self) -> TraceSummary {
        assert_eq!(
            self.cs.sim.submitted_tasks(),
            0,
            "fused passes submit no task"
        );
        self.cs.sim.busy_by_kind()
    }
}

/// The reference: task-graph passes on the heap executor, sequences
/// kept by the scan.
struct Reference<'a> {
    heap: HeapCluster,
    rl: &'a Roofline,
    cfg: ParallelConfig,
    running: Vec<Vec<RunSeq>>,
    tails: Vec<Vec<Option<Handle>>>,
}

impl<'a> Reference<'a> {
    fn new(cluster: &ClusterSpec, rl: &'a Roofline, cfg: ParallelConfig) -> Self {
        Reference {
            heap: HeapCluster::new(cluster),
            rl,
            cfg,
            running: vec![Vec::new(); cfg.dp],
            tails: vec![vec![None; cfg.pp]; cfg.dp],
        }
    }

    /// A pass of `shape` on replica `d` after `dep`, its stage
    /// durations evaluated from the full layer cost.
    fn pass(&mut self, d: usize, stage: Stage, shape: &BatchShape, dep: Option<Handle>) -> Handle {
        let mut durs = Vec::new();
        stage_durations(self.rl, self.cfg, stage, shape, &mut durs);
        durs[0] += efficiency::STEP_SCHED_OVERHEAD_S / self.cfg.pp as f64;
        self.heap.pass(self.cfg, d, &durs, dep)
    }
}

impl Engine for Reference<'_> {
    type H = Handle;

    fn max_burst(&self, d: usize, cap: usize) -> usize {
        scan::max_burst(&self.running[d], cap)
    }

    /// Per round, per non-empty slot, one pass behind the slot's tail.
    fn burst(&mut self, d: usize, rounds: usize) -> Handle {
        let pp = self.cfg.pp;
        let mut slots = vec![Vec::new(); pp];
        for (i, seq) in self.running[d].iter().enumerate() {
            slots[i % pp].push(seq.ctx);
        }
        let mut last = Vec::new();
        for r in 0..rounds {
            last.clear();
            for (slot, ctxs) in slots.iter().enumerate() {
                if ctxs.is_empty() {
                    continue;
                }
                let shape = BatchShape::decode_iter(ctxs.iter().map(|&ctx| ctx + r + 1));
                let tail = self.pass(d, Stage::Decode, &shape, self.tails[d][slot]);
                self.tails[d][slot] = Some(tail);
                last.push(tail);
            }
        }
        self.heap.join(&last)
    }

    fn tails(&self, d: usize) -> Vec<Option<u64>> {
        self.tails[d]
            .iter()
            .map(|t| t.map(|h| bits(self.heap.sim.completion_time(h).expect("tail done"))))
            .collect()
    }

    fn advance(&mut self, d: usize, rounds: usize) -> Vec<u64> {
        scan::advance(&mut self.running[d], rounds)
            .iter()
            .map(|s| s.id)
            .collect()
    }

    /// Longest prompt first (ids break ties), each onto the least
    /// loaded of up to PP slots; then one pass per non-empty slot, in
    /// slot order, on nothing but the stage queues.
    fn prefill(&mut self, d: usize, batch: &[(u64, usize)]) -> Vec<(u64, Handle)> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut order = batch.to_vec();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let nslots = self.cfg.pp.min(batch.len());
        let mut slots = vec![Vec::new(); nslots];
        let mut load = vec![0; nslots];
        for (id, len) in order {
            let lightest = (0..nslots).min_by_key(|&s| load[s]).expect("a slot");
            slots[lightest].push((id, len));
            load[lightest] += len;
        }
        let mut out = Vec::new();
        for members in slots.iter().filter(|m| !m.is_empty()) {
            let shape = BatchShape::prefill_iter(members.iter().map(|&(_, l)| l));
            let end = self.pass(d, Stage::Prefill, &shape, None);
            out.extend(members.iter().map(|&(id, _)| (id, end)));
        }
        out
    }

    fn join(&mut self, parts: &[Handle]) -> Handle {
        self.heap.join(parts)
    }

    fn wait(&mut self, h: Handle) -> SimTime {
        self.heap.sim.run_until(h)
    }

    fn time(&self, h: Handle) -> SimTime {
        self.heap.sim.completion_time(h).expect("completed")
    }

    fn admit(&mut self, d: usize, seq: RunSeq) {
        self.running[d].push(seq);
    }

    fn until(&mut self) -> Vec<u64> {
        self.heap.compute_until()
    }

    fn busy(&mut self) -> Vec<u64> {
        self.heap.compute_busy()
    }

    fn kinds(&self) -> TraceSummary {
        self.heap.sim.busy_by_kind()
    }
}

/// A random engine run: cluster, layout, per-replica sequences
/// `(ctx, remaining)` and 2–9 steps, bursts and prefill batches.
#[derive(Debug, Clone)]
struct Case {
    /// Index into [`setup`].
    setup: usize,
    cfg: ParallelConfig,
    seqs: Vec<Vec<(usize, usize)>>,
    steps: Vec<Step>,
}

fn cases() -> impl Strategy<Value = Case> {
    let layout = (
        0usize..SETUPS,
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        1usize..9,
    );
    let seq = (1usize..4000, 1usize..100);
    let batches = prop::collection::vec(prop::collection::vec(seq, 1..41), 8..9);
    let short = prop::sample::select(vec![false, true]);
    // Per step: the kind (a prefill batch one time in three), the
    // burst cap, and per replica 0–5 prompts `(length, remaining)`.
    let prompts = prop::collection::vec(
        prop::collection::vec((1usize..4000, 1usize..100), 0..6),
        8..9,
    );
    let steps = prop::collection::vec((0u32..3, 1usize..65, prompts), 2..10);
    (layout, batches, short, steps).prop_map(|((which, tp, pp, dp), batches, short, steps)| {
        let gpus = setup(which).0.num_gpus;
        // Shrink the layout until it fits the cluster: tp first, then
        // pp, then dp.
        let tp = tp.min(gpus);
        let pp = if tp * pp > gpus { gpus / tp } else { pp };
        let dp = dp.min(gpus / (tp * pp));
        let mut seqs = batches;
        seqs.truncate(dp);
        // Half the cases give the last replica 1–3 sequences, fewer
        // than the slots of a 4-stage pipeline.
        if short {
            let last = seqs.last_mut().expect("dp >= 1");
            last.truncate(1 + last[0].0 % 3);
        }
        let steps = steps
            .into_iter()
            .map(|(kind, cap, mut prompts)| {
                if kind == 0 {
                    prompts.truncate(dp);
                    Step::Prefill(prompts)
                } else {
                    Step::Burst(cap)
                }
            })
            .collect();
        Case {
            setup: which,
            cfg: ParallelConfig::new(dp, tp, pp),
            seqs,
            steps,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_burst_matches_the_per_round_reference(case in cases()) {
        let (cluster, model) = setup(case.setup);
        let rl = Roofline::new(cluster.clone(), model);
        let (seqs, steps) = (&case.seqs, &case.steps);
        let reference = drive(&mut Reference::new(&cluster, &rl, case.cfg), seqs, steps);
        let fused = drive(&mut Fused::new(&cluster, &rl, case.cfg), seqs, steps);
        prop_assert_eq!(&fused, &reference, "{:?}", case);
    }
}

/// Every layout with a specialized burst kernel (PP, TP ∈ {1, 2, 4, 8},
/// PP·TP ≤ 8) and layouts without one (P3, P6, T2P3, T3, T6), each on a
/// fixed run of bursts and prefill batches: on eight and on six PCIe
/// GPUs, whose decode attention is memory-bound, and on the eight GPUs
/// whose attention is compute-bound, where the decode price takes its
/// two-division form.
#[test]
fn every_layout_matches_the_per_round_reference() {
    // (pp, tp): the ten kernels, then five layouts without one.
    let layouts = [
        (1, 1), (1, 2), (1, 4), (1, 8), (2, 1), (2, 2), (2, 4), (4, 1), (4, 2), (8, 1),
        (3, 1), (6, 1), (3, 2), (1, 3), (1, 6),
    ];
    let prompts = |d: usize| vec![(500 + 40 * d, 9), (1200, 30), (64, 2)];
    let steps = [
        Step::Burst(64),
        Step::Prefill((0..8).map(prompts).collect()),
        Step::Burst(5),
        Step::Prefill((0..8).map(|d| prompts(d + 1)).collect()),
        Step::Prefill((0..8).map(|d| prompts(d + 2)[..2].to_vec()).collect()),
        Step::Burst(64),
        Step::Burst(1),
        Step::Burst(64),
    ];
    for (which, memory_bound) in [(1, true), (3, true), (4, false)] {
        let (cluster, model) = setup(which);
        let rl = Roofline::new(cluster.clone(), model);
        for (pp, tp) in layouts {
            if pp * tp > cluster.num_gpus {
                continue;
            }
            let cfg = ParallelConfig::new(cluster.num_gpus / (pp * tp), tp, pp);
            assert_eq!(rl.decode_cost(1, tp).attn_memory_bound(), memory_bound);
            // Replica d holds 2 + 3d sequences: the first has fewer
            // than the deeper pipelines' slots.
            let seqs: Vec<Vec<(usize, usize)>> = (0..cfg.dp)
                .map(|d| {
                    (0..2 + 3 * d)
                        .map(|i| (300 + 37 * i + 11 * d, 1 + (7 * i + d) % 23))
                        .collect()
                })
                .collect();
            let reference = drive(&mut Reference::new(&cluster, &rl, cfg), &seqs, &steps);
            let fused = drive(&mut Fused::new(&cluster, &rl, cfg), &seqs, &steps);
            assert_eq!(fused, reference, "{} {cfg:?}", cluster.gpu.name);
        }
    }
}

fn one_replica(cfg: ParallelConfig, seqs: usize) -> (ClusterSim, Roofline, Replica) {
    let cluster = ClusterSpec::a10x4();
    let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
    let mut rep = Replica::new(0, 1 << 20, cfg.pp);
    for id in 0..seqs as u64 {
        rep.push_running(RunSeq {
            id,
            ctx: 600,
            remaining: 64,
        });
    }
    (ClusterSim::new(cluster), rl, rep)
}

#[test]
fn an_empty_slot_has_no_tail() {
    let cfg = ParallelConfig::pp(4);
    let (mut cs, rl, mut rep) = one_replica(cfg, 3);
    let end = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 8).expect("running");
    assert_eq!(
        cs.sim.submitted_tasks(),
        0,
        "a burst is scheduled in closed form"
    );
    assert_eq!(rep.tails.iter().filter(|t| t.is_some()).count(), 3);
    assert_eq!(rep.tails.iter().flatten().max(), Some(&end));
}

#[test]
#[should_panic(expected = "while its compute GPUs are busy")]
fn a_burst_on_busy_gpus_panics() {
    let cfg = ParallelConfig::pp(2);
    let (mut cs, rl, mut rep) = one_replica(cfg, 4);
    cs.submit_compute_overhead(1, 1.0, None);
    submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 4);
}

#[test]
#[should_panic(expected = "before its previous pipeline tails completed")]
fn a_burst_before_the_previous_one_drains_panics() {
    let cfg = ParallelConfig::pp(2);
    let (mut cs, rl, mut rep) = one_replica(cfg, 4);
    submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 4);
    submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 4);
}

/// A compute task submitted while a fused burst still occupies its GPU
/// queues behind the burst and starts when the burst's work there ends.
#[test]
fn a_compute_task_inside_a_fused_burst_queues_behind_it() {
    let cfg = ParallelConfig::pp(2);
    let (mut cs, rl, mut rep) = one_replica(cfg, 4);
    let end = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 4).expect("running");
    assert_eq!(
        cs.compute_block(1..2).free,
        [end],
        "busy until the burst ends"
    );
    let h = cs.submit_compute_overhead(1, 0.5, None);
    assert_eq!(
        h,
        end + 0.5,
        "the last stage's GPU is busy until the burst ends"
    );
    assert_eq!(cs.sim.run_until_idle(), h);
}

#[test]
fn compute_work_after_the_burst_ends_is_accepted() {
    let cfg = ParallelConfig::pp(2);
    let (mut cs, rl, mut rep) = one_replica(cfg, 4);
    let join = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 4).expect("running");
    let end = cs.sim.run_until(join);
    let h = cs.submit_compute_overhead(1, 0.5, None);
    assert_eq!(cs.sim.run_until(h), end + 0.5);
}
