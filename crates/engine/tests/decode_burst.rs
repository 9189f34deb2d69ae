//! A fused decode burst (`driver::submit_decode_burst`) computes its
//! pipeline schedule in closed form. The reference here is the
//! per-round version it replaced, run on the event-driven executor
//! that the eager `Simulator` replaced (`tests/support`): one
//! task-graph pass per micro-batch slot per round, chained on the
//! slot's previous tail and served by FIFO stage queues. Its running
//! sequences are a plain `Vec<RunSeq>` kept by the scan the replica's
//! incremental bookkeeping replaced (`tests/support/scan.rs`). The two
//! share no scheduling or bookkeeping code. On random layouts and
//! batches, driven burst after burst at each replica's longest
//! survivable length, so sequences retire and slots reshuffle between
//! bursts, they must agree bit for bit on every time, busy total and
//! busy-until time, and retire the same sequences in the same order,
//! untraced (every production run) and traced; traced, they must also
//! record the same spans.

mod support;

use proptest::prelude::*;
use seesaw_engine::cluster_sim::ClusterSim;
use seesaw_engine::driver::{stage_durations, submit_decode_burst, Replica, RunSeq};
use seesaw_hw::{efficiency, ClusterSpec};
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline, Stage};
use seesaw_sim::{SimTime, Span, TaskKind, TraceSummary};
use support::heap::Handle;
use support::{scan, HeapCluster};

/// The per-round burst on the heap for replica `d` running `running`:
/// `rounds` × non-empty slots passes, each behind its slot's tail, with
/// its stage durations evaluated from the full layer cost. Returns the
/// join of the last round.
fn reference_burst(
    heap: &mut HeapCluster,
    rl: &Roofline,
    cfg: ParallelConfig,
    d: usize,
    running: &[RunSeq],
    tails: &mut [Option<Handle>],
    rounds: usize,
) -> Handle {
    let mut slots = vec![Vec::new(); cfg.pp];
    for (i, seq) in running.iter().enumerate() {
        slots[i % cfg.pp].push(seq.ctx);
    }
    let mut durs = Vec::new();
    let overhead = efficiency::STEP_SCHED_OVERHEAD_S / cfg.pp as f64;
    let mut last = Vec::new();
    for r in 0..rounds {
        last.clear();
        for (slot, ctxs) in slots.iter().enumerate() {
            if ctxs.is_empty() {
                continue;
            }
            let shape = BatchShape::decode_iter(ctxs.iter().map(|&ctx| ctx + r + 1));
            stage_durations(rl, cfg, Stage::Decode, &shape, &mut durs);
            durs[0] += overhead;
            let tail = heap.pass(cfg, d, &durs, tails[slot]);
            tails[slot] = Some(tail);
            last.push(tail);
        }
    }
    heap.join(&last)
}

/// What one engine loop observes after each burst.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per burst: the join time, then every replica's slot-tail times.
    times: Vec<Vec<Option<u64>>>,
    /// Per burst: every replica's round count and the ids it retired,
    /// in retirement order.
    retired: Vec<Vec<(usize, Vec<u64>)>>,
    /// Per burst: until when every GPU's compute engine is busy.
    until: Vec<Vec<u64>>,
    /// Busy seconds of every GPU's compute engine.
    busy: Vec<u64>,
}

fn bits(t: SimTime) -> u64 {
    t.as_secs().to_bits()
}

/// Per replica, its sequences `(ctx, remaining)` as `RunSeq`s with ids
/// unique across replicas.
fn batches(seqs: &[Vec<(usize, usize)>]) -> Vec<Vec<RunSeq>> {
    let mut id = 0;
    seqs.iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(ctx, remaining)| {
                    id += 1;
                    RunSeq { id, ctx, remaining }
                })
                .collect()
        })
        .collect()
}

/// Run bursts back to back on every replica the way the engine loops
/// do, until nothing runs or `caps` (per burst, the round cap) runs
/// out: every running replica bursts for its longest survivable length
/// under the cap, then join, wait for the join, advance. Spans are
/// recorded when `traced`.
fn drive_fused(
    cluster: &ClusterSpec,
    rl: &Roofline,
    cfg: ParallelConfig,
    seqs: &[Vec<(usize, usize)>],
    caps: &[usize],
    traced: bool,
) -> (Observed, ClusterSim) {
    let mut cs = if traced {
        ClusterSim::with_trace(cluster.clone())
    } else {
        ClusterSim::new(cluster.clone())
    };
    let mut replicas: Vec<Replica> = batches(seqs)
        .into_iter()
        .enumerate()
        .map(|(d, batch)| {
            let mut rep = Replica::new(d, 1 << 20, cfg.pp);
            for seq in batch {
                rep.kv.allocate(seq.id, seq.ctx + seq.remaining).expect("KV fits");
                rep.push_running(seq);
            }
            rep
        })
        .collect();
    let (mut times, mut retired, mut until) = (Vec::new(), Vec::new(), Vec::new());
    for &cap in caps {
        let mut ends = Vec::new();
        let mut rounds = Vec::new();
        for rep in &mut replicas {
            let n = rep.max_burst(cap);
            rounds.push(n);
            ends.extend(submit_decode_burst(&mut cs, rl, cfg, rep, n));
        }
        if ends.is_empty() {
            break;
        }
        let join = cs.join(&ends);
        let mut row = vec![Some(bits(cs.sim.run_until(join)))];
        let gpus = cs.compute_block(0..cluster.num_gpus);
        until.push(gpus.free.iter().map(|&t| bits(t)).collect());
        let mut out = Vec::new();
        for (rep, n) in replicas.iter_mut().zip(rounds) {
            row.extend(rep.tails.iter().map(|t| t.map(bits)));
            let ids = if n > 0 {
                rep.advance_decode(n).iter().map(|s| s.id).collect()
            } else {
                Vec::new()
            };
            out.push((n, ids));
        }
        times.push(row);
        retired.push(out);
    }
    let busy = (0..cluster.num_gpus)
        .map(|g| {
            let r = cs
                .sim
                .pool()
                .find(&format!("gpu{g}.compute"))
                .expect("compute engine");
            cs.sim.busy_time(r).to_bits()
        })
        .collect();
    (
        Observed {
            times,
            retired,
            until,
            busy,
        },
        cs,
    )
}

/// [`drive_fused`] with per-round bursts on the heap; also returns its
/// spans.
fn drive_reference(
    cluster: &ClusterSpec,
    rl: &Roofline,
    cfg: ParallelConfig,
    seqs: &[Vec<(usize, usize)>],
    caps: &[usize],
) -> (Observed, Vec<Span>) {
    let mut heap = HeapCluster::new(cluster);
    let mut replicas = batches(seqs);
    let mut tails = vec![vec![None; cfg.pp]; replicas.len()];
    let (mut times, mut retired, mut until) = (Vec::new(), Vec::new(), Vec::new());
    for &cap in caps {
        let mut ends = Vec::new();
        let mut rounds = Vec::new();
        for (d, (running, tails)) in replicas.iter().zip(&mut tails).enumerate() {
            let n = scan::max_burst(running, cap);
            rounds.push(n);
            if n > 0 {
                ends.push(reference_burst(&mut heap, rl, cfg, d, running, tails, n));
            }
        }
        if ends.is_empty() {
            break;
        }
        let end = heap.join(&ends);
        let mut row = vec![Some(bits(heap.sim.run_until(end)))];
        // The join waits for every pass of the step.
        until.push(heap.compute_until());
        let mut out = Vec::new();
        for ((running, tails), n) in replicas.iter_mut().zip(&tails).zip(rounds) {
            row.extend(
                tails
                    .iter()
                    .map(|t| t.map(|h| bits(heap.sim.completion_time(h).expect("tail done")))),
            );
            let ids = scan::advance(running, n).iter().map(|s| s.id).collect();
            out.push((n, ids));
        }
        times.push(row);
        retired.push(out);
    }
    (
        Observed {
            times,
            retired,
            until,
            busy: heap.compute_busy(),
        },
        heap.spans(),
    )
}

/// Spans as a sorted multiset of exactly comparable keys.
fn span_multiset(spans: &[Span]) -> Vec<(Option<usize>, String, u64, u64, u64)> {
    let mut keys: Vec<_> = spans
        .iter()
        .map(|s| {
            let resource = s.resource.map(|r| r.index());
            (
                resource,
                format!("{:?}", s.kind),
                bits(s.start),
                bits(s.end),
                s.tag,
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Busy seconds per category of `spans`.
fn summary(spans: &[Span]) -> TraceSummary {
    let mut trace = seesaw_sim::Trace::enabled();
    spans.iter().for_each(|&s| trace.record(s));
    trace.summary()
}

/// Spans are recorded in a different order, so bucket sums may differ
/// in the last bits.
fn assert_summaries_close(a: TraceSummary, b: TraceSummary) {
    let pairs = [
        (a.compute, b.compute),
        (a.communication, b.communication),
        (a.weight_transfer, b.weight_transfer),
        (a.reshard, b.reshard),
        (a.kv_swap, b.kv_swap),
        (a.other, b.other),
    ];
    for (x, y) in pairs {
        assert!(
            (x - y).abs() <= 1e-12 * x.abs().max(y.abs()),
            "{a:?} vs {b:?}"
        );
    }
}

/// The cluster/model pairs drawn: PCIe with an MHA model, PCIe with a
/// GQA model, and NVLink with GQA `llama2_70b` (whose eight KV heads
/// shard down to one per rank at TP 8).
fn setup(which: usize) -> (ClusterSpec, seesaw_model::ModelConfig) {
    match which {
        0 => (ClusterSpec::a10x4(), presets::llama2_13b()),
        1 => (ClusterSpec::l4x8(), presets::llama3_15b()),
        _ => (ClusterSpec::a100x8_nvlink(), presets::llama2_70b()),
    }
}

/// A random decode setup: cluster, layout, per-replica sequences
/// `(ctx, remaining)` and the round caps of 2–7 back-to-back bursts.
#[derive(Debug, Clone)]
struct Case {
    /// Index into [`setup`].
    setup: usize,
    cfg: ParallelConfig,
    seqs: Vec<Vec<(usize, usize)>>,
    caps: Vec<usize>,
}

fn cases() -> impl Strategy<Value = Case> {
    let layout = (
        0usize..3,
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4]),
        1usize..9,
    );
    let seq = (1usize..4000, 1usize..100);
    let batches = prop::collection::vec(prop::collection::vec(seq, 1..41), 8..9);
    let short = prop::sample::select(vec![false, true]);
    let caps = prop::collection::vec(1usize..65, 2..8);
    (layout, batches, short, caps).prop_map(|((which, tp, pp, dp), batches, short, caps)| {
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
        Case {
            setup: which,
            cfg: ParallelConfig::new(dp, tp, pp),
            seqs,
            caps,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_burst_matches_the_per_round_reference(case in cases()) {
        let (cluster, model) = setup(case.setup);
        let rl = Roofline::new(cluster.clone(), model);
        let (reference, spans) = drive_reference(&cluster, &rl, case.cfg, &case.seqs, &case.caps);
        let (plain, plain_cs) =
            drive_fused(&cluster, &rl, case.cfg, &case.seqs, &case.caps, false);
        prop_assert_eq!(&plain, &reference, "untraced {:?}", case);
        prop_assert!(plain_cs.sim.trace().spans().is_empty());
        let (fused, fused_cs) = drive_fused(&cluster, &rl, case.cfg, &case.seqs, &case.caps, true);
        prop_assert_eq!(&fused, &reference, "traced {:?}", case);
        let fused_spans = fused_cs.sim.trace().spans();
        prop_assert_eq!(span_multiset(fused_spans), span_multiset(&spans), "{:?}", case);
        assert_summaries_close(fused_cs.sim.trace().summary(), summary(&spans));
        prop_assert_eq!(fused_cs.sim.submitted_tasks(), 0, "a fused burst submits no task");
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
    cs.submit_pass(cfg, 0, &[1.0, 1.0], None, TaskKind::Compute);
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
    assert_eq!(cs.compute_block(1..2).free, [end], "busy until the burst ends");
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
