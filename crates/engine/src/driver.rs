//! Shared engine machinery: the run core both resumable engines embed,
//! per-replica run state, micro-batch slot assignment, and pipelined
//! pass submission for prefill batches, decode bursts and mixed
//! (chunked) rounds.
//!
//! `RunCore` holds what a vLLM and a Seesaw run keep alike — the
//! simulated cluster, the replicas, the intake, the timing recorder and
//! the admission and burst buffers — and writes their shared steps
//! once: idling until the next arrival, a replica's prefill batch with
//! its first-token records, one decode burst across the replicas
//! (`RunCore::decode_burst`, capped at `BURST_CAP` rounds), moving
//! prefilled requests to decode and retiring finished ones, and the
//! report of a finished run. `MAX_PREFILL_TOKENS` bounds both engines'
//! prefill passes.
//!
//! No pass is submitted as a task: prefill batches, decode bursts and
//! mixed rounds compute their pipeline schedule in closed form (a
//! max-plus recurrence over passes and stages), instead of submitting
//! `passes × PP × TP` tasks. The caller gets the work's end time to
//! wait on:
//!
//! * [`submit_prefill_batch`] serves a batch's slot passes in slot
//!   order behind whatever the replica's GPUs are still running.
//! * [`submit_decode_burst`] schedules a burst's rounds in (round,
//!   slot) order. Everything about a slot's pass but its total context
//!   depends only on its member count, so each slot's [`DecodeCost`]
//!   and activation hop are priced once per member count and a round
//!   costs a few adds.
//! * [`submit_mixed_round`] schedules one round of a chunked-prefill
//!   run, whose passes stage 0 serves in readiness order. Every slot
//!   but the chunk's is a pure-decode pass priced the same way.
//!
//! All three serve a pass through a stage with one step (`charge`) and
//! borrow the replica's compute engines from the simulator once per
//! call ([`ClusterSim::compute_block`]): each stage interval is added
//! to the busy counters of the stage's TP group and to the simulator's
//! per-kind totals, and each GPU is marked busy once, at the end.
//! Prefill batches and mixed rounds serve pass by pass
//! (`Stages::serve`, which checks each pass's end for finiteness). A
//! burst on a layout with PP, TP ∈ {1, 2, 4, 8} and PP·TP ≤ 8 (every
//! layout of the repo's clusters) runs that layout's burst kernel
//! (`burst_rounds::<PP, TP>`), which keeps the stage ends, busy
//! counters, compute total and slot tails in registers for the whole
//! burst and checks each slot's tail once, at its end; any other
//! layout (a 6-GPU pool's P3, P6 or T2P3) serves its burst pass by
//! pass. The task-graph versions they replaced live on as the test
//! oracles in `tests/decode_burst.rs` and `tests/mixed_round.rs`.
//!
//! A replica keeps its decoding sequences so that a decode step costs
//! O(PP + sequences it retires), not O(running) (see [`Replica`]):
//! bursts and mixed rounds read per-slot sums, and an advance bumps a
//! step clock and visits only the retirees.
//!
//! Prefill batches, bursts and mixed rounds keep their working buffers
//! on the [`Replica`], so once warmed up they allocate nothing.

use crate::actor::Intake;
use crate::cluster_sim::ClusterSim;
use crate::report::EngineReport;
use crate::timing::TimingRecorder;
use seesaw_hw::{efficiency, AllReduce, ClusterSpec};
use seesaw_kv::PagedKvCache;
use seesaw_model::ModelConfig;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, DecodeCost, Roofline, Stage};
use seesaw_sim::{Block, SimTime};
use seesaw_workload::{LatencyStats, Request};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Most decode rounds a burst runs between scheduling decisions.
pub(crate) const BURST_CAP: usize = 64;

/// Most prompt tokens one replica's prefill pass admits (vLLM's
/// `max_num_batched_tokens`-style bound).
pub(crate) const MAX_PREFILL_TOKENS: usize = 16384;

/// The state a resumable engine run keeps whatever its policy, and the
/// steps written on it alone.
#[derive(Clone)]
pub(crate) struct RunCore {
    pub cs: ClusterSim,
    model: Arc<ModelConfig>,
    pub replicas: Vec<Replica>,
    pub intake: Intake,
    pub rec: TimingRecorder,
    /// Requests retired so far.
    pub completed: usize,
    /// Admission buffers: per replica, the requests the last admission
    /// admitted and the prompt-token budget it left.
    pub admitted: Vec<Vec<(u64, usize)>>,
    pub budget: Vec<usize>,
    /// One replica's prefill pass ends `(end, id)`.
    pub prefill_parts: Vec<(SimTime, u64)>,
    /// A decode burst's `(replica, rounds, end)` per replica.
    bursts: Vec<(usize, usize, SimTime)>,
}

impl RunCore {
    /// A fresh run of `intake` on `cluster`: `dp` replicas of
    /// `kv_tokens` KV and `pp` pipeline slots each.
    pub fn new(
        cluster: &Arc<ClusterSpec>,
        model: &Arc<ModelConfig>,
        intake: Intake,
        dp: usize,
        kv_tokens: u64,
        pp: usize,
    ) -> Self {
        RunCore {
            cs: ClusterSim::new(Arc::clone(cluster)),
            model: Arc::clone(model),
            replicas: (0..dp).map(|d| Replica::new(d, kv_tokens, pp)).collect(),
            rec: TimingRecorder::with_capacity(intake.len()),
            intake,
            completed: 0,
            admitted: vec![Vec::new(); dp],
            budget: Vec::new(),
            prefill_parts: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// A roofline over the run's shared specs (two reference-count
    /// bumps).
    pub fn roofline(&self) -> Roofline {
        Roofline::new(Arc::clone(&self.cs.cluster), Arc::clone(&self.model))
    }

    /// Idle the cluster until the head request arrives. Only called
    /// when no admission, prefill or decode progress is possible, which
    /// for a request available now would have panicked in admission
    /// instead, so the head arrival lies in the future.
    pub fn wait_for_next_arrival(&mut self) {
        let t = self
            .intake
            .waiting
            .front()
            .expect("an idle, unfinished engine must have pending arrivals")
            .arrival_s;
        // Drain any stragglers (e.g. in-flight mixed rounds) first; if
        // they carried the clock past the arrival, no idle gap exists
        // and admission can proceed immediately.
        self.cs.sim.run_until_idle();
        self.cs.sim.advance_to(SimTime::from_secs(t));
    }

    /// One decode burst across the replicas under `cfg`, each of the
    /// longest length its running sequences all survive, at most
    /// `cap` rounds: submit every replica's burst, wait for the last to
    /// end, and retire the sequences that finish. Returns whether any
    /// replica decoded.
    pub fn decode_burst(&mut self, rl: &Roofline, cfg: ParallelConfig, cap: usize) -> bool {
        self.bursts.clear();
        for (d, replica) in self.replicas.iter_mut().enumerate() {
            let rounds = replica.max_burst(cap);
            if let Some(h) = submit_decode_burst(&mut self.cs, rl, cfg, replica, rounds) {
                self.bursts.push((d, rounds, h));
            }
        }
        if self.bursts.is_empty() {
            return false;
        }
        let join = self.bursts.iter().fold(self.cs.now(), |t, &(_, _, h)| t.max(h));
        self.cs.sim.run_until(join);
        for i in 0..self.bursts.len() {
            // The burst is capped at the least remaining count, so
            // retirees emit their last token in its final round.
            let (d, rounds, h) = self.bursts[i];
            self.advance_decode(d, rounds, h);
        }
        true
    }

    /// Submit replica `d`'s prefill batch, `admitted[d]`, under `cfg`,
    /// and record each member's first token at its pass's exit (where a
    /// request that wants one token completes). Leaves the passes'
    /// `(end, id)` in `prefill_parts`; returns the last end, or now for
    /// an empty batch.
    pub fn submit_prefill(&mut self, rl: &Roofline, cfg: ParallelConfig, d: usize) -> SimTime {
        let (parts, replica) = (&mut self.prefill_parts, &mut self.replicas[d]);
        submit_prefill_batch(&mut self.cs, rl, cfg, replica, &self.admitted[d], parts);
        let mut join = self.cs.now();
        for &(end, id) in parts.iter() {
            self.rec.first_token(id, end);
            if self.intake.meta.req(id).output_len <= 1 {
                self.rec.completed(id, end);
            }
            join = join.max(end);
        }
        join
    }

    /// Apply `rounds` decode rounds on replica `d` and retire the
    /// sequences they finish, recording their completion at `at`.
    pub fn advance_decode(&mut self, d: usize, rounds: usize, at: SimTime) {
        let finished = self.replicas[d].advance_decode(rounds);
        self.completed += finished.len();
        for seq in finished {
            self.rec.completed(seq.id, at);
        }
    }

    /// Start decoding request `id`, whose `prompt` tokens of KV are on
    /// replica `d` and whose first token is out; a request whose first
    /// token was its last retires instead, freeing its KV. Returns
    /// whether it retired.
    pub fn graduate(&mut self, d: usize, id: u64, prompt: usize) -> bool {
        let req = self.intake.meta.req(id);
        if req.output_len <= 1 {
            self.replicas[d].kv.free(id).expect("was allocated");
            self.completed += 1;
            return true;
        }
        self.replicas[d].push_running(RunSeq {
            id,
            ctx: prompt + 1,
            remaining: req.output_len - 1,
        });
        false
    }

    /// The report of a finished run labelled `label`, with every wall,
    /// transition and swap field zero: each engine fills its own.
    pub fn finish(mut self, label: String) -> EngineReport {
        let end = self.cs.sim.run_until_idle();
        assert_eq!(self.completed, self.intake.len(), "all requests must finish");
        for r in &self.replicas {
            debug_assert!(
                r.kv.num_seqs() == 0 && r.kv.used_tokens() == 0,
                "replica {} still holds {} KV tokens of {} sequences after the run",
                r.dp_rank,
                r.kv.used_tokens(),
                r.kv.num_seqs()
            );
        }
        let gpu_utilization = self.cs.mean_compute_utilization();
        let timeline = self.rec.resolve(&self.intake.meta);
        let latency = LatencyStats::from_timeline(&timeline);
        EngineReport {
            label,
            stats: self.intake.stats(end.as_secs()),
            prefill_wall_s: 0.0,
            decode_wall_s: 0.0,
            mixed_wall_s: 0.0,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: 0,
            swap_in_bytes: 0,
            phases: Vec::new(),
            gpu_utilization,
            busy_by_kind: self.cs.sim.busy_by_kind(),
            timeline,
            latency,
        }
    }
}

/// Engines admit from the queue head and idle to the *head's* arrival
/// time, so a request slice must be nondecreasing in `arrival_s`
/// (every in-repo generator emits arrivals that way; offline all-zero
/// streams trivially qualify). An out-of-order slice would silently
/// charge later-queued-but-earlier-arriving requests the head's wait
/// as TTFT — reject it up front instead, along with an arrival that is
/// not a finite, non-negative time.
pub fn assert_arrivals_sorted(requests: &[Request]) {
    if let Some(r) = requests
        .iter()
        .find(|r| !(r.arrival_s.is_finite() && r.arrival_s >= 0.0))
    {
        panic!(
            "request {} has arrival time {}s; arrivals must be finite and non-negative",
            r.id, r.arrival_s
        );
    }
    if let Some(w) = requests
        .windows(2)
        .find(|w| w[0].arrival_s > w[1].arrival_s)
    {
        panic!(
            "requests must be sorted by arrival time: request {} arrives at {}s after \
             request {} at {}s",
            w[1].id, w[1].arrival_s, w[0].id, w[0].arrival_s
        );
    }
}

/// A sequence currently resident in GPU KV cache and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSeq {
    /// Request id.
    pub id: u64,
    /// Current context length (prompt + generated so far).
    pub ctx: usize,
    /// Decode steps still to run.
    pub remaining: usize,
}

/// Per-DP-replica engine state.
///
/// The decoding sequences are kept in position order, and sequence `i`
/// rides in micro-batch slot `i % PP`. A retiring sequence leaves by
/// `swap_remove`, retirees in ascending position, and a retiree moved
/// into a freed position is removed again there: the order a scan of
/// every sequence that swap-removes each retiree leaves, so slot
/// membership is the same as such a scan's. Three incremental
/// structures make a decode step independent of the batch size:
///
/// * a step clock, the decode rounds applied so far: a sequence holds
///   its context and its end as offsets from it, so an advance bumps
///   one integer;
/// * per slot, its member count and Σ context offset, updated on every
///   push and removal (the sequence moved by a `swap_remove` leaves
///   slot `(len - 1) % PP` for the freed position's slot), which a
///   burst or a mixed round reads in O(PP);
/// * a min-heap of end steps, so the shortest remaining count is its
///   top and an advance pops exactly the sequences it retires.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Data-parallel rank.
    pub dp_rank: usize,
    /// GPU KV cache for this replica.
    pub kv: PagedKvCache,
    /// Per-micro-batch-slot pipeline tails (length = PP): the end of
    /// each slot's latest decode-burst or mixed-round pass, chaining
    /// rounds so the pipeline never drains between scheduler decisions.
    pub tails: Vec<Option<SimTime>>,
    running: Running,
    scratch: Scratch,
}

/// The sequences decoding on a replica (see [`Replica`]).
#[derive(Debug, Clone, Default)]
struct Running {
    /// Decode rounds applied so far.
    step: usize,
    /// The sequences, in position order.
    seqs: Vec<Live>,
    /// Per micro-batch slot: (members, Σ `ctx_base`), wrapping.
    slots: Vec<(usize, usize)>,
    /// `(end, handle)` of every sequence, least end on top.
    ends: BinaryHeap<Reverse<(usize, usize)>>,
    /// Per handle: its sequence's position in `seqs`.
    pos: Vec<usize>,
    /// Handles no sequence holds.
    free: Vec<usize>,
    /// The positions the current advance retires.
    retiring: Vec<usize>,
}

/// A decoding sequence, relative to the step clock.
#[derive(Debug, Clone, Copy)]
struct Live {
    id: u64,
    /// Context minus the step clock (wrapping): the context is
    /// `ctx_base + step`.
    ctx_base: usize,
    /// The step at which its last token is decoded.
    end: usize,
    /// Its entry in `Running::pos`.
    handle: usize,
}

impl Running {
    fn with_slots(pp: usize) -> Self {
        Running {
            slots: vec![(0, 0); pp],
            ..Running::default()
        }
    }

    fn seq(&self, live: &Live) -> RunSeq {
        RunSeq {
            id: live.id,
            ctx: live.ctx_base.wrapping_add(self.step),
            remaining: live.end - self.step,
        }
    }

    fn join_slot(&mut self, i: usize, ctx_base: usize) {
        let pp = self.slots.len();
        let (seqs, ctx) = &mut self.slots[i % pp];
        *seqs += 1;
        *ctx = ctx.wrapping_add(ctx_base);
    }

    fn leave_slot(&mut self, i: usize, ctx_base: usize) {
        let pp = self.slots.len();
        let (seqs, ctx) = &mut self.slots[i % pp];
        *seqs -= 1;
        *ctx = ctx.wrapping_sub(ctx_base);
    }

    fn push(&mut self, seq: RunSeq) {
        let handle = self.free.pop().unwrap_or_else(|| {
            self.pos.push(0);
            self.pos.len() - 1
        });
        let i = self.seqs.len();
        self.pos[handle] = i;
        let live = Live {
            id: seq.id,
            ctx_base: seq.ctx.wrapping_sub(self.step),
            end: self.step + seq.remaining,
            handle,
        };
        self.seqs.push(live);
        self.join_slot(i, live.ctx_base);
        self.ends.push(Reverse((live.end, handle)));
    }

    /// `swap_remove` position `i`, moving the last sequence (if
    /// another) from its slot to position `i`'s.
    fn remove(&mut self, i: usize) -> Live {
        let last = self.seqs.len() - 1;
        let gone = self.seqs.swap_remove(i);
        self.leave_slot(i, gone.ctx_base);
        if i < last {
            let moved = self.seqs[i];
            self.leave_slot(last, moved.ctx_base);
            self.join_slot(i, moved.ctx_base);
            self.pos[moved.handle] = i;
        }
        self.free.push(gone.handle);
        gone
    }

    /// Apply `rounds` decode rounds and append the sequences that
    /// finish to `finished`, in the order an ascending scan with
    /// `swap_remove` removes them.
    fn advance(&mut self, rounds: usize, finished: &mut Vec<RunSeq>) {
        self.step += rounds;
        self.retiring.clear();
        while let Some(&Reverse((end, handle))) = self.ends.peek() {
            if end > self.step {
                break;
            }
            debug_assert_eq!(end, self.step, "advanced past a sequence's end");
            self.ends.pop();
            self.retiring.push(self.pos[handle]);
        }
        self.retiring.sort_unstable();
        for k in 0..self.retiring.len() {
            // The scan reaches a retiree's position with it still
            // there (only positions behind the scan receive moved
            // sequences) unless it was the last and already moved;
            // a retiree moved into the freed position goes too.
            let i = self.retiring[k];
            while i < self.seqs.len() && self.seqs[i].end <= self.step {
                let gone = self.remove(i);
                finished.push(self.seq(&gone));
            }
        }
    }

    /// Per slot: (members, Σ context).
    fn slot_sums(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let step = self.step;
        self.slots
            .iter()
            .map(move |&(seqs, base)| (seqs, base.wrapping_add(seqs.wrapping_mul(step))))
    }

    /// Re-derive the slot sums for `pp` slots.
    fn set_slots(&mut self, pp: usize) {
        self.slots.clear();
        self.slots.resize(pp, (0, 0));
        for i in 0..self.seqs.len() {
            self.join_slot(i, self.seqs[i].ctx_base);
        }
    }
}

/// Working buffers of prefill batches, bursts, mixed rounds and decode
/// advances, kept on the replica so that a warmed-up one allocates
/// nothing, and the stage state and slot prices they carry from call
/// to call. Each is O(PP), or O(sequences in one prefill batch or
/// retired by one advance).
#[derive(Debug, Default)]
struct Scratch {
    /// A burst's passes, one per non-empty slot in slot order.
    passes: Vec<SlotPass>,
    /// A mixed round's passes, one per non-empty slot.
    mixed: Vec<MixedPass>,
    /// The replica's stages, for fused passes.
    stages: Stages,
    /// Per slot: its latest decode price under the loaded layout.
    prices: Vec<Option<SlotPrice>>,
    /// The latest stage-0 readiness of any mixed pass scheduled so far.
    ready_by: SimTime,
    /// Sequences the last [`Replica::advance_decode`] retired.
    finished: Vec<RunSeq>,
    prefill: PrefillSlots,
}

impl Clone for Scratch {
    /// A fork (an actor's projection) keeps the state later calls read;
    /// the working buffers, which every call refills first, start
    /// empty.
    fn clone(&self) -> Self {
        Scratch {
            stages: self.stages.clone(),
            prices: self.prices.clone(),
            ready_by: self.ready_by,
            ..Scratch::default()
        }
    }
}

/// A prefill batch's assignment to micro-batch slots.
#[derive(Debug, Clone, Default)]
struct PrefillSlots {
    /// The batch, longest prompt first.
    order: Vec<(u64, usize)>,
    /// Per slot: its members `(id, prompt)`. Only the first
    /// [`PrefillSlots::assign`]'s count are the current batch's.
    members: Vec<Vec<(u64, usize)>>,
    /// Per slot: its prompt tokens.
    load: Vec<usize>,
}

impl PrefillSlots {
    /// Balanced assignment of a prefill batch to up to `pp` micro-batch
    /// slots (longest-processing-time greedy on token counts). Returns
    /// the number of slots used, whose members are the first in
    /// `self.members`.
    fn assign(&mut self, seqs: &[(u64, usize)], pp: usize) -> usize {
        self.order.clear();
        self.order.extend_from_slice(seqs);
        // Request ids are distinct, so the order is total.
        self.order
            .sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let nslots = pp.min(seqs.len()).max(1);
        if self.members.len() < nslots {
            self.members.resize_with(nslots, Vec::new);
        }
        self.members[..nslots].iter_mut().for_each(Vec::clear);
        self.load.clear();
        self.load.resize(nslots, 0);
        for &(id, len) in &self.order {
            let lightest = (0..nslots)
                .min_by_key(|&s| self.load[s])
                .expect("nslots >= 1");
            self.members[lightest].push((id, len));
            self.load[lightest] += len;
        }
        nslots
    }
}

impl Scratch {
    /// Load `cfg`'s stages unless they are loaded. A new layout forgets
    /// every slot price.
    fn prepare(&mut self, rl: &Roofline, cfg: ParallelConfig) {
        if self.stages.cfg != Some(cfg) {
            self.stages.load(rl, cfg);
            self.prices.clear();
            self.prices.resize(cfg.pp, None);
        }
    }

    /// The decode price of `slot` holding `seqs > 0` sequences: the
    /// memo's if it was evaluated for as many, else a fresh one. A
    /// replica serves one model on one cluster, so the memo is keyed by
    /// the member count and the layout alone.
    fn price(&mut self, rl: &Roofline, cfg: ParallelConfig, slot: usize, seqs: usize) -> SlotPrice {
        match self.prices[slot] {
            Some(price) if price.seqs == seqs => price,
            _ => {
                let price = SlotPrice {
                    seqs,
                    cost: rl.decode_cost(seqs, cfg.tp),
                    // The hop carries one token per member, whatever
                    // their contexts.
                    p2p: p2p_hop(rl, cfg, &BatchShape::decode_total(seqs, 0)),
                };
                self.prices[slot] = Some(price);
                price
            }
        }
    }
}

/// A decode slot's price: everything about its pass but the members'
/// total context, which depends only on the member count and the
/// layout.
#[derive(Debug, Clone, Copy)]
struct SlotPrice {
    seqs: usize,
    cost: DecodeCost,
    /// Activation hop to the next stage.
    p2p: f64,
}

/// A replica's pipeline stages as fused passes see them.
#[derive(Debug, Clone, Default)]
struct Stages {
    /// The layout loaded, if any.
    cfg: Option<ParallelConfig>,
    /// Per stage: its layer count.
    layers: Vec<f64>,
    /// Per stage: the end of the last pass it served, in seconds.
    free: Vec<f64>,
    /// The per-pass step overhead, charged on stage 0.
    overhead: f64,
    /// The TP group's all-reduce, for mixed passes.
    allreduce: Option<AllReduce>,
}

impl Stages {
    /// Take the layer counts, step overhead and all-reduce of `cfg`'s
    /// stages. Stages keep the end of their last pass; a stage new to
    /// the layout is free from zero.
    fn load(&mut self, rl: &Roofline, cfg: ParallelConfig) {
        self.cfg = Some(cfg);
        self.overhead = efficiency::STEP_SCHED_OVERHEAD_S / cfg.pp as f64;
        self.allreduce = Some(rl.cluster().interconnect.allreduce(cfg.tp));
        let num_layers = rl.model().num_layers;
        self.layers.clear();
        self.layers.extend((0..cfg.pp).map(|s| {
            let (a, b) = cfg.stage_layers(num_layers, s);
            (b - a) as f64
        }));
        self.free.resize(cfg.pp, 0.0);
    }

    /// Take each stage's end from its TP group's busy-until times in
    /// `gpus`, so passes queue behind whatever the GPUs were charged
    /// since (re-shard overheads, another kind of pass). Every pass
    /// occupies a whole group, so its GPUs agree unless all are free
    /// by `now`; then any of their times delays a pass ready at `now`
    /// alike, by nothing.
    fn resume(&mut self, gpus: &Block, tp: usize, now: SimTime) {
        for (free, group) in self.free.iter_mut().zip(gpus.free.chunks_exact(tp)) {
            let until = group.iter().fold(SimTime::ZERO, |t, &u| t.max(u));
            debug_assert!(
                until <= now || group.iter().all(|&u| u == until),
                "a TP group busy until different times: {group:?}"
            );
            *free = until.as_secs();
        }
    }

    /// Serve a pass that is ready for stage 0 at `ready` through every
    /// stage, first come, first served, and return its end. Stage `s`
    /// starts at the later of the pass's readiness (its previous
    /// stage's end) and the stage's previous end, and takes `layer`
    /// seconds per layer, plus the activation hop `p2p` on all but the
    /// last stage and the step overhead on stage 0: the simulator's
    /// floating-point operations.
    ///
    /// `gpus` is the replica's compute block, stage `s`'s TP group its
    /// entries `s·tp..(s+1)·tp`. Each interval is added to the busy
    /// counter of every GPU of the stage's group and, once per GPU, to
    /// the compute total, in the order per-GPU tasks would charge it;
    /// the GPUs are marked busy by [`Stages::occupy`]. Times are plain
    /// seconds: a non-finite stage end carries through the later
    /// stages (`free > NaN` is false, ∞ wins every `max`) to the pass's
    /// end, whose conversion back to [`SimTime`] is the pass's one
    /// finiteness check.
    ///
    /// Prefill batches and mixed rounds serve every pass here; a decode
    /// burst does only on a layout with no burst kernel
    /// ([`burst_rounds`]), one call per (round, slot).
    #[inline]
    fn serve(
        &mut self,
        gpus: &mut Block,
        tp: usize,
        ready: SimTime,
        layer: f64,
        p2p: f64,
    ) -> SimTime {
        let pp = self.free.len();
        let mut ready = ready.as_secs();
        // The running compute total, kept in a register for the pass.
        let mut compute = gpus.kinds.compute;
        for (s, (free, &layers)) in self.free.iter_mut().zip(&self.layers).enumerate() {
            let dur = stage_duration(s, pp, layers, layer, p2p, self.overhead);
            let group = &mut gpus.busy[s * tp..(s + 1) * tp];
            ready = charge(free, ready, dur, group, &mut compute);
        }
        gpus.kinds.compute = compute;
        SimTime::from_secs(ready)
    }

    /// Mark every GPU of `gpus` busy until its stage's last pass ends
    /// (a stage's ends never decrease, so that is its latest interval).
    fn occupy(&self, gpus: &mut Block, tp: usize) {
        for (group, &free) in gpus.free.chunks_exact_mut(tp).zip(&self.free) {
            let free = SimTime::from_secs(free);
            for until in group {
                *until = (*until).max(free);
            }
        }
    }
}

/// The compute engines of replica `d`, whose GPUs are contiguous in
/// [`ParallelConfig::gpu_index`] order, stage by stage.
fn replica_block(cs: &mut ClusterSim, cfg: ParallelConfig, d: usize) -> Block<'_> {
    let first = cfg.gpu_index(d, 0, 0);
    cs.compute_block(first..first + cfg.pp * cfg.tp)
}

/// One non-empty slot's pass in a decode burst: everything but its
/// context, which grows by `seqs` every round.
#[derive(Debug, Clone, Copy)]
struct SlotPass {
    slot: usize,
    seqs: usize,
    /// Σ context of the slot's members before the burst.
    base_ctx: usize,
    cost: DecodeCost,
    /// Activation hop to the next stage.
    p2p: f64,
    /// End of the slot's latest pass.
    tail: SimTime,
}

impl SlotPass {
    /// Seconds per layer of the pass in round `r` of the burst.
    #[inline(always)]
    fn layer_time(&self, r: usize) -> f64 {
        self.cost.layer_time(self.base_ctx + self.seqs * (r + 1))
    }
}

/// Runs `rounds` rounds of a burst's passes, in (round, slot) order,
/// on stages whose ends are loaded and on the replica's compute block,
/// at TP degree `tp`; leaves each pass's final end in its `tail` and
/// each stage's last end in the stages, for [`Stages::occupy`].
type BurstKernel = fn(&mut Stages, &mut Block, usize, &mut [SlotPass], usize);

/// The burst kernel of a layout with no specialized one: one
/// [`Stages::serve`] per pass.
fn serve_rounds(stages: &mut Stages, gpus: &mut Block, tp: usize, passes: &mut [SlotPass], rounds: usize) {
    for r in 0..rounds {
        for pass in passes.iter_mut() {
            pass.tail = stages.serve(gpus, tp, pass.tail, pass.layer_time(r), pass.p2p);
        }
    }
}

/// The burst kernel of the `PP`-stage, `TP`-way layout: the schedule
/// [`serve_rounds`] computes, with the same floating-point operations
/// in the same order, kept in registers for the whole burst. Stage
/// ends, every GPU's busy counter, the running compute total and each
/// pass's tail live in stack arrays of compile-time size, so the stage
/// and TP loops unroll; nothing is read from or written to the replica
/// or the simulator between the first round and the last.
///
/// Times are plain seconds throughout: a non-finite stage end carries
/// to its pass's end and from there to every later end of the same
/// slot (`free > NaN` is false, ∞ wins every comparison), so
/// converting each tail back to [`SimTime`] at the end is the burst's
/// one finiteness check.
fn burst_rounds<const PP: usize, const TP: usize>(
    stages: &mut Stages,
    gpus: &mut Block,
    tp: usize,
    passes: &mut [SlotPass],
    rounds: usize,
) {
    debug_assert!(tp == TP && stages.free.len() == PP && passes.len() <= PP);
    let overhead = stages.overhead;
    let layers: [f64; PP] = stages.layers[..].try_into().expect("one layer count per stage");
    let mut free: [f64; PP] = stages.free[..].try_into().expect("one end per stage");
    let mut busy = [[0.0; TP]; PP];
    for (group, counters) in busy.iter_mut().zip(gpus.busy.chunks_exact(TP)) {
        group.copy_from_slice(counters);
    }
    let mut compute = gpus.kinds.compute;
    let mut tails = [0.0; PP];
    for (tail, pass) in tails.iter_mut().zip(passes.iter()) {
        *tail = pass.tail.as_secs();
    }
    for r in 0..rounds {
        for (tail, pass) in tails.iter_mut().zip(passes.iter()) {
            let layer = pass.layer_time(r);
            let mut ready = *tail;
            for s in 0..PP {
                let dur = stage_duration(s, PP, layers[s], layer, pass.p2p, overhead);
                ready = charge(&mut free[s], ready, dur, &mut busy[s], &mut compute);
            }
            *tail = ready;
        }
    }
    for (counters, group) in gpus.busy.chunks_exact_mut(TP).zip(&busy) {
        counters.copy_from_slice(group);
    }
    gpus.kinds.compute = compute;
    stages.free.copy_from_slice(&free);
    for (pass, &tail) in passes.iter_mut().zip(&tails) {
        pass.tail = SimTime::from_secs(tail);
    }
}

/// Stage `s`'s share of a pass through `pp` stages that takes `layer`
/// seconds per layer over the stage's `layers`: plus the activation
/// hop `p2p` on all but the last stage and the step `overhead` on
/// stage 0.
#[inline(always)]
fn stage_duration(s: usize, pp: usize, layers: f64, layer: f64, p2p: f64, overhead: f64) -> f64 {
    let hop = if s + 1 < pp { p2p } else { 0.0 };
    let mut dur = layers * layer + hop;
    if s == 0 {
        dur += overhead;
    }
    dur
}

/// Serve a pass ready at `ready` for `dur` seconds on a stage that
/// ends its previous pass at `free`, first come, first served: it
/// starts at the later of the two. Adds the interval to each of the
/// stage's GPU `busy` counters and, once per GPU, to the `compute`
/// total, in the order per-GPU tasks would charge them; moves `free`
/// to the pass's end and returns it.
#[inline(always)]
fn charge(free: &mut f64, ready: f64, dur: f64, busy: &mut [f64], compute: &mut f64) -> f64 {
    let start = if *free > ready { *free } else { ready };
    let end = start + dur;
    let service = end - start;
    for counter in busy {
        *counter += service;
        *compute += service;
    }
    *free = end;
    end
}

/// One non-empty slot's pass in a mixed round.
#[derive(Debug, Clone, Copy)]
struct MixedPass {
    slot: usize,
    /// Seconds per layer of the chunk and decode work it carries.
    layer: f64,
    /// Activation hop to the next stage.
    p2p: f64,
    /// When stage 0 can take it: the later of the round's submission
    /// and the end of the slot's previous pass.
    ready: SimTime,
}

impl Replica {
    /// Fresh replica with `capacity_tokens` of KV and `pp` pipeline
    /// slots.
    pub fn new(dp_rank: usize, capacity_tokens: u64, pp: usize) -> Self {
        Replica {
            dp_rank,
            kv: PagedKvCache::new(capacity_tokens, PagedKvCache::DEFAULT_BLOCK_TOKENS),
            tails: vec![None; pp],
            running: Running::with_slots(pp),
            scratch: Scratch::default(),
        }
    }

    /// Start decoding `seq` (its KV is already allocated): it takes the
    /// next position.
    pub fn push_running(&mut self, seq: RunSeq) {
        self.running.push(seq);
    }

    /// Sequences decoding on this replica.
    pub fn num_running(&self) -> usize {
        self.running.seqs.len()
    }

    /// The decoding sequences in position order (sequence `i` rides in
    /// slot `i % PP`).
    pub fn running(&self) -> impl Iterator<Item = RunSeq> + '_ {
        self.running.seqs.iter().map(|live| self.running.seq(live))
    }

    /// Per micro-batch slot, the sequence count and context sum of the
    /// sequences it holds.
    pub fn slot_sums(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.running.slot_sums()
    }

    /// Largest burst every running sequence survives (min remaining),
    /// capped at `cap`. Returns 0 when nothing is running.
    pub fn max_burst(&self, cap: usize) -> usize {
        self.running
            .ends
            .peek()
            .map_or(0, |&Reverse((end, _))| end - self.running.step)
            .min(cap)
    }

    /// Apply `rounds` decode rounds: advance contexts, retire finished
    /// sequences (freeing their KV), and return them.
    pub fn advance_decode(&mut self, rounds: usize) -> &[RunSeq] {
        let finished = &mut self.scratch.finished;
        finished.clear();
        self.running.advance(rounds, finished);
        for seq in finished.iter() {
            self.kv.free(seq.id).expect("running seq must be resident");
        }
        finished
    }

    /// Reset pipeline tails (after a drain, e.g. at re-sharding) for
    /// `pp` slots.
    pub fn reset_tails(&mut self, pp: usize) {
        self.tails.clear();
        self.tails.resize(pp, None);
        self.running.set_slots(pp);
    }
}

/// Tokens a fresh replica with `capacity_tokens` of KV can reserve for
/// one request (whole blocks only): the longest request it can hold.
pub fn kv_capacity(capacity_tokens: u64) -> usize {
    PagedKvCache::new(capacity_tokens, PagedKvCache::DEFAULT_BLOCK_TOKENS).capacity_tokens()
}

/// Activation hop between adjacent stages for a pass of `shape` (none
/// without pipelining).
fn p2p_hop(rl: &Roofline, cfg: ParallelConfig, shape: &BatchShape) -> f64 {
    if cfg.pp > 1 {
        rl.cluster().interconnect.p2p_time(rl.p2p_bytes(shape))
    } else {
        0.0
    }
}

/// Run `rounds` chained decode rounds for one replica (each round
/// advances every running sequence one token through all pipeline
/// stages). Returns the end of the final round, or `None` if nothing
/// is running.
///
/// The burst's schedule is computed in closed form rather than
/// submitted pass by pass. Each slot's pass in round `r` follows its
/// own pass in round `r - 1`, and each stage serves passes first come,
/// first served. With the replica's GPUs idle at the start, every
/// stage therefore serves in (round, slot) order. So a pass's stage
/// `s` starts at the later of its stage `s - 1` end and the stage's
/// previous end — the max-plus recurrence of submitting every pass as
/// a task, with the same floating-point operations in the same order.
/// Each stage interval is added to the busy time of the stage's TP
/// group as it is scheduled, every GPU is marked busy until its
/// stage's last interval ends, and each non-empty slot's tail becomes
/// its final pass's end.
///
/// Only a slot's total context changes between rounds (by one token
/// per member), so its [`DecodeCost`] and activation hop are priced
/// once per member count (and kept across bursts while the count
/// holds), and a pass's layer time is [`DecodeCost::layer_time`] of
/// `base + seqs · (r + 1)` tokens.
///
/// The rounds run in the layout's burst kernel: for PP, TP ∈ {1, 2, 4,
/// 8} with PP·TP ≤ 8, [`burst_rounds`] keeps every stage end, every
/// GPU's busy counter, the compute total and each slot's tail in stack
/// arrays from the first round to the last, and converts each tail to
/// [`SimTime`], the burst's one finiteness check, at the end. Any other
/// layout (P3, P6 or T2P3 on a 6-GPU pool) serves one
/// [`Stages::serve`] per pass, checking each pass's end. Both add the
/// same intervals in the same order, so the schedule and every busy
/// total are bit for bit the same.
///
/// Panics unless the replica's compute GPUs are idle and its previous
/// tails have completed: callers drain earlier compute work (prefill
/// batches, mixed rounds, the previous burst, re-shard overheads)
/// before a burst. The caller must `run_until` the returned end and
/// then call [`Replica::advance_decode`] with the same `rounds`.
pub fn submit_decode_burst(
    cs: &mut ClusterSim,
    rl: &Roofline,
    cfg: ParallelConfig,
    replica: &mut Replica,
    rounds: usize,
) -> Option<SimTime> {
    if replica.num_running() == 0 || rounds == 0 {
        return None;
    }
    let d = replica.dp_rank;
    let now = cs.now();
    assert!(
        replica.tails.iter().flatten().all(|&t| t <= now),
        "decode burst on replica {d} before its previous pipeline tails completed"
    );
    let mut gpus = replica_block(cs, cfg, d);
    assert!(
        gpus.free.iter().all(|&t| t <= now),
        "decode burst on replica {d} while its compute GPUs are busy"
    );
    debug_assert_eq!(replica.running.slots.len(), cfg.pp, "one slot per stage");
    let sc = &mut replica.scratch;
    sc.prepare(rl, cfg);
    sc.passes.clear();
    for (slot, (seqs, base_ctx)) in replica.running.slot_sums().enumerate() {
        if seqs > 0 {
            let price = sc.price(rl, cfg, slot, seqs);
            sc.passes.push(SlotPass {
                slot,
                seqs,
                base_ctx,
                cost: price.cost,
                p2p: price.p2p,
                tail: now,
            });
        }
    }
    sc.stages.free.fill(now.as_secs());
    let kernel: BurstKernel = match (cfg.pp, cfg.tp) {
        (1, 1) => burst_rounds::<1, 1>,
        (1, 2) => burst_rounds::<1, 2>,
        (1, 4) => burst_rounds::<1, 4>,
        (1, 8) => burst_rounds::<1, 8>,
        (2, 1) => burst_rounds::<2, 1>,
        (2, 2) => burst_rounds::<2, 2>,
        (2, 4) => burst_rounds::<2, 4>,
        (4, 1) => burst_rounds::<4, 1>,
        (4, 2) => burst_rounds::<4, 2>,
        (8, 1) => burst_rounds::<8, 1>,
        _ => serve_rounds,
    };
    kernel(&mut sc.stages, &mut gpus, cfg.tp, &mut sc.passes, rounds);
    sc.stages.occupy(&mut gpus, cfg.tp);
    let mut end = now;
    for pass in &sc.passes {
        replica.tails[pass.slot] = Some(pass.tail);
        end = end.max(pass.tail);
    }
    Some(end)
}

/// Run a pipelined prefill pass for a batch of whole prompts on one
/// replica, balancing its prompts over up to PP micro-batch slots
/// (longest-processing-time greedy on token counts). Writes over `out`
/// one `(end, id)` pair per member, slot by slot: `end` is the time
/// its slot's pass exits the last pipeline stage (swap-outs should
/// depend on it).
///
/// Unlike decode rounds, consecutive prefill micro-batches carry no
/// data dependency: every slot's pass is ready for stage 0 now, and
/// the stage kernel serves them in slot order behind the work the
/// replica's GPUs were charged before (an earlier batch still in
/// flight), so the pipeline stays full across batches. Re-shard
/// overheads, the compute engines' only tasks, are drained before a
/// batch.
pub fn submit_prefill_batch(
    cs: &mut ClusterSim,
    rl: &Roofline,
    cfg: ParallelConfig,
    replica: &mut Replica,
    seqs: &[(u64, usize)],
    out: &mut Vec<(SimTime, u64)>,
) {
    out.clear();
    if seqs.is_empty() {
        return;
    }
    let now = cs.now();
    let sc = &mut replica.scratch;
    sc.prepare(rl, cfg);
    let nslots = sc.prefill.assign(seqs, cfg.pp);
    let mut gpus = replica_block(cs, cfg, replica.dp_rank);
    sc.stages.resume(&gpus, cfg.tp, now);
    for members in &sc.prefill.members[..nslots] {
        if members.is_empty() {
            continue;
        }
        let shape = BatchShape::prefill_iter(members.iter().map(|&(_, l)| l));
        let layer = rl.layer_cost(Stage::Prefill, &shape, cfg.tp).layer_time();
        let end = sc.stages.serve(&mut gpus, cfg.tp, now, layer, p2p_hop(rl, cfg, &shape));
        out.extend(members.iter().map(|&(id, _)| (end, id)));
    }
    sc.stages.occupy(&mut gpus, cfg.tp);
}

/// Run one mixed round on one replica: every running sequence decodes
/// a token while `chunk`, the prefill sub-batch, rides in slot
/// `chunk_slot % PP`. Rotating that slot across rounds lets
/// consecutive chunks wavefront through the pipeline the way real
/// chunked-prefill schedulers interleave virtual engines, instead of
/// each chunk waiting for the previous one to exit the last stage.
/// Returns the end of the round's last pass on this replica, or `None`
/// if it has no pass (nothing running, no chunk).
///
/// Like [`submit_decode_burst`], the round's schedule is computed in
/// closed form and charged by the same stage kernel; no task is
/// submitted, and the caller waits on the returned end (or the latest
/// end over its replicas). A pure-decode slot's pass is priced from its
/// slot's decode price: without prefill work,
/// [`Roofline::layer_cost_mixed`] is the decode cost bit for bit. The
/// schedule is the one FIFO stage queues produce for per-slot chained
/// passes submitted as tasks:
///
/// * A slot's pass is ready for stage 0 at the later of now and the
///   end of the slot's previous pass, and stage 0 serves in readiness
///   order (ties in slot order). That can differ from slot order: a
///   slot still finishing a long chunk lets the slots behind it go
///   first.
/// * Every later stage serves in stage-0 order: a pass is ready there
///   when its previous stage ends, and those ends strictly increase in
///   that stage's order because every duration is positive.
/// * Each stage starts at the later of its readiness and the end of
///   the stage's previous pass, with the simulator's floating-point
///   operations.
///
/// Two rounds may be in flight, as long as every pass of the previous
/// round is ready for stage 0 by now: then no pass of this round can
/// be served before it, and the previous rounds' schedule stands. The
/// engines keep that by submitting a round only after the one two
/// back has ended; a round submitted earlier panics. Re-shard
/// overheads are drained first.
pub fn submit_mixed_round(
    cs: &mut ClusterSim,
    rl: &Roofline,
    cfg: ParallelConfig,
    replica: &mut Replica,
    chunk: &BatchShape,
    chunk_slot: usize,
) -> Option<SimTime> {
    if replica.num_running() == 0 && chunk.is_empty() {
        return None;
    }
    let d = replica.dp_rank;
    let now = cs.now();
    debug_assert_eq!(replica.running.slots.len(), cfg.pp, "one slot per stage");
    let sc = &mut replica.scratch;
    assert!(
        sc.ready_by <= now,
        "mixed round on replica {d} at {now} before a pass of the previous round is ready at {}",
        sc.ready_by
    );
    sc.prepare(rl, cfg);
    sc.mixed.clear();
    let chunk_slot = chunk_slot % cfg.pp;
    let allreduce = sc.stages.allreduce.expect("stages loaded");
    for (slot, (seqs, ctx)) in replica.running.slot_sums().enumerate() {
        // Each member attends over its context plus the new token.
        let (layer, p2p) = if slot == chunk_slot && !chunk.is_empty() {
            let dshape = BatchShape::decode_total(seqs, ctx + seqs);
            let layer = rl.layer_cost_mixed(chunk, &dshape, &allreduce).layer_time();
            (layer, p2p_hop(rl, cfg, &chunk.merge(&dshape)))
        } else if seqs > 0 {
            // A pure-decode pass: `layer_cost_mixed` without prefill
            // work is the slot's decode price, bit for bit.
            let price = sc.price(rl, cfg, slot, seqs);
            (price.cost.layer_time(ctx + seqs), price.p2p)
        } else {
            continue;
        };
        sc.mixed.push(MixedPass {
            slot,
            layer,
            p2p,
            ready: replica.tails[slot].map_or(now, |tail| now.max(tail)),
        });
    }
    sc.mixed.sort_unstable_by_key(|p| (p.ready, p.slot));
    let mut gpus = replica_block(cs, cfg, d);
    let mut round_end = now;
    for pass in &sc.mixed {
        let end = sc.stages.serve(&mut gpus, cfg.tp, pass.ready, pass.layer, pass.p2p);
        replica.tails[pass.slot] = Some(end);
        sc.ready_by = sc.ready_by.max(pass.ready);
        round_end = round_end.max(end);
    }
    sc.stages.occupy(&mut gpus, cfg.tp);
    Some(round_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;

    fn setup() -> (ClusterSim, Roofline) {
        let cluster = ClusterSpec::a10x4();
        let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
        (ClusterSim::new(cluster), rl)
    }

    #[test]
    fn decode_burst_advances_and_retires() {
        let (mut cs, rl) = setup();
        let cfg = ParallelConfig::new(1, 2, 2);
        let mut rep = Replica::new(0, 100_000, cfg.pp);
        rep.kv.allocate(1, 600).unwrap();
        rep.kv.allocate(2, 700).unwrap();
        rep.push_running(RunSeq { id: 1, ctx: 500, remaining: 3 });
        rep.push_running(RunSeq { id: 2, ctx: 600, remaining: 5 });
        let burst = rep.max_burst(64);
        assert_eq!(burst, 3);
        let h = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, burst).unwrap();
        cs.sim.run_until(h);
        let done = rep.advance_decode(burst).to_vec();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        let left: Vec<RunSeq> = rep.running().collect();
        assert_eq!(left, [RunSeq { id: 2, ctx: 603, remaining: 2 }]);
        assert_eq!(rep.kv.num_seqs(), 1);
        assert!(cs.now().as_secs() > 0.0);
    }

    #[test]
    fn pipelined_decode_faster_than_serialized() {
        // With PP=2, two slots should overlap: a burst of rounds takes
        // well under 2x the single-slot time.
        let (mut cs, rl) = setup();
        let cfg = ParallelConfig::pp(2);
        let mut rep = Replica::new(0, 1_000_000, cfg.pp);
        for id in 0..8u64 {
            rep.kv.allocate(id, 1000).unwrap();
            rep.push_running(RunSeq { id, ctx: 1000, remaining: 20 });
        }
        let h = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 20).unwrap();
        let t_pipelined = cs.sim.run_until(h).as_secs();

        // Serialized estimate: sum of all stage durations.
        let shape = BatchShape::decode(&[1000; 4]);
        let per_round: f64 = (0..cfg.pp)
            .map(|s| rl.stage_time(cfg, s, Stage::Decode, &shape) + p2p_hop(&rl, cfg, &shape))
            .sum();
        let serial = per_round * 2.0 * 20.0;
        assert!(
            t_pipelined < 0.7 * serial,
            "pipelined {t_pipelined:.4}s vs serial {serial:.4}s"
        );
    }

    #[test]
    fn prefill_slot_assignment_balances_tokens() {
        let seqs: Vec<(u64, usize)> = vec![(0, 4000), (1, 1000), (2, 1000), (3, 1000), (4, 1000)];
        let mut slots = PrefillSlots::default();
        let nslots = slots.assign(&seqs, 2);
        let loads: Vec<usize> = slots.members[..nslots]
            .iter()
            .map(|s| s.iter().map(|&(_, l)| l).sum())
            .collect();
        assert_eq!(loads.iter().sum::<usize>(), 8000);
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 2000);
    }

    #[test]
    fn prefill_batch_returns_all_ids() {
        let (mut cs, rl) = setup();
        let cfg = ParallelConfig::new(1, 2, 2);
        let mut rep = Replica::new(0, 1_000_000, cfg.pp);
        let seqs: Vec<(u64, usize)> = (0..6).map(|i| (i, 512)).collect();
        let mut parts = Vec::new();
        submit_prefill_batch(&mut cs, &rl, cfg, &mut rep, &seqs, &mut parts);
        let mut ids: Vec<u64> = parts.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        let join = cs.join(&parts.iter().map(|&(h, _)| h).collect::<Vec<_>>());
        assert!(cs.sim.run_until(join).as_secs() > 0.0);
    }

    #[test]
    fn mixed_round_runs_with_empty_decode() {
        let (mut cs, rl) = setup();
        let cfg = ParallelConfig::tp(4);
        let mut rep = Replica::new(0, 1_000_000, cfg.pp);
        let chunk = BatchShape::prefill_chunk(512, 0);
        let end = submit_mixed_round(&mut cs, &rl, cfg, &mut rep, &chunk, 0).unwrap();
        assert!(end.as_secs() > 0.0);
        assert_eq!(cs.sim.submitted_tasks(), 0, "a mixed round submits no task");
        // Nothing at all -> None.
        assert!(
            submit_mixed_round(&mut cs, &rl, cfg, &mut rep, &BatchShape::empty(), 0).is_none()
        );
    }

    #[test]
    fn empty_burst_is_none() {
        let (mut cs, rl) = setup();
        let cfg = ParallelConfig::tp(4);
        let mut rep = Replica::new(0, 1_000, cfg.pp);
        assert!(submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 5).is_none());
        assert_eq!(rep.max_burst(64), 0);
    }
}
