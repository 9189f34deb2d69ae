//! A mixed round (`driver::submit_mixed_round`) computes its pipeline
//! schedule in closed form. The reference here is the task-graph
//! version it replaced, run on the event-driven executor that the
//! eager `Simulator` replaced (`tests/support`): one pass per non-empty
//! micro-batch slot, behind the slot's previous pass and served by
//! FIFO stage queues, its running sequences kept by the scan the
//! replica's incremental bookkeeping replaced (`tests/support/scan.rs`).
//! The two share no scheduling or bookkeeping code. Driven the way
//! the chunked-prefill engine drives rounds — two in flight, the chunk
//! slot rotating, sequences joining and retiring — they must agree bit
//! for bit on every round end, busy total and final busy-until time,
//! and on the per-kind totals up to the order of their sums (stage 0
//! serves in readiness order, the reference submits in slot order).

mod support;

use proptest::prelude::*;
use seesaw_engine::cluster_sim::ClusterSim;
use seesaw_engine::driver::{submit_mixed_round, Replica, RunSeq};
use seesaw_hw::{efficiency, ClusterSpec};
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline};
use seesaw_sim::{SimTime, TraceSummary};
use std::cell::RefCell;
use std::collections::VecDeque;
use support::heap::Handle;
use support::{scan, setup, HeapCluster, SETUPS};

/// The task-graph mixed round on the heap for replica `d` running
/// `running`: per non-empty slot, one pass chained on the slot's
/// previous tail. Returns the join of this round's slot tails.
#[allow(clippy::too_many_arguments)] // the round's full context, as the library takes it
fn reference_round(
    heap: &mut HeapCluster,
    rl: &Roofline,
    cfg: ParallelConfig,
    d: usize,
    running: &[RunSeq],
    tails: &mut [Option<Handle>],
    chunk: &BatchShape,
    chunk_slot: usize,
) -> Option<Handle> {
    if running.is_empty() && chunk.is_empty() {
        return None;
    }
    let overhead = efficiency::STEP_SCHED_OVERHEAD_S / cfg.pp as f64;
    let sums = scan::slot_sums(running, cfg.pp);
    let mut last = Vec::new();
    for (slot, &(seqs, ctx)) in sums.iter().enumerate() {
        let dshape = BatchShape::decode_total(seqs, ctx + seqs);
        let pshape = if slot == chunk_slot % cfg.pp {
            *chunk
        } else {
            BatchShape::empty()
        };
        if dshape.seqs == 0 && pshape.is_empty() {
            continue;
        }
        let allreduce = rl.cluster().interconnect.allreduce(cfg.tp);
        let layer = rl
            .layer_cost_mixed(&pshape, &dshape, &allreduce)
            .layer_time();
        let p2p = if cfg.pp > 1 {
            rl.cluster()
                .interconnect
                .p2p_time(rl.p2p_bytes(&pshape.merge(&dshape)))
        } else {
            0.0
        };
        let mut durs: Vec<f64> = (0..cfg.pp)
            .map(|s| {
                let (a, b) = cfg.stage_layers(rl.model().num_layers, s);
                (b - a) as f64 * layer + if s + 1 < cfg.pp { p2p } else { 0.0 }
            })
            .collect();
        durs[0] += overhead;
        let tail = heap.pass(cfg, d, &durs, tails[slot]);
        tails[slot] = Some(tail);
        last.push(tail);
    }
    Some(heap.join(&last))
}

/// One replica's part of one round.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Prefill chunk `(tokens, prefix)`, if any.
    chunk: Option<(usize, usize)>,
    /// A sequence `(context, remaining)` that joins `running` after
    /// the round (its prompt's last chunk graduating).
    joins: Option<(usize, usize)>,
}

/// What the engine loop observes at each wait.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per waited round: its end, and the clock after the wait.
    times: Vec<(u64, u64)>,
    /// Busy seconds of every GPU's compute engine.
    busy: Vec<u64>,
    /// Until when every GPU's compute engine is busy, after the run.
    until: Vec<u64>,
}

fn bits(t: SimTime) -> u64 {
    t.as_secs().to_bits()
}

/// The chunked engine's loop over `rounds` (per round, one step per
/// replica): submit every replica's part, decode a token, let
/// graduated sequences join, and with two rounds in flight wait for
/// the older one. Round `r` rides its chunk in slot `r % PP`. Each
/// replica's sequences are kept twice, by the library's `Replica` and
/// by the scan. `round` submits a replica's part and returns its end,
/// if it has a pass; `join_ends` joins a round's ends when it is
/// submitted; `wait` waits for a join and returns its time and the
/// clock after the wait.
fn drive<H: Copy>(
    cfg: ParallelConfig,
    running: &[Vec<(usize, usize)>],
    rounds: &[Vec<Step>],
    mut round: impl FnMut(&mut Replica, &[RunSeq], &BatchShape, usize) -> Option<H>,
    mut join_ends: impl FnMut(&[H]) -> H,
    mut wait: impl FnMut(H) -> (u64, u64),
) -> Vec<(u64, u64)> {
    let mut next_id = 0u64;
    let mut join = |(rep, scanned): &mut (Replica, Vec<RunSeq>), (ctx, remaining)| {
        rep.kv.allocate(next_id, ctx + remaining).expect("KV fits");
        let seq = RunSeq {
            id: next_id,
            ctx,
            remaining,
        };
        rep.push_running(seq);
        scanned.push(seq);
        next_id += 1;
    };
    let mut replicas: Vec<(Replica, Vec<RunSeq>)> = running
        .iter()
        .enumerate()
        .map(|(d, seqs)| {
            let mut rep = (Replica::new(d, 1 << 24, cfg.pp), Vec::new());
            for &seq in seqs {
                join(&mut rep, seq);
            }
            rep
        })
        .collect();
    let mut times = Vec::new();
    let mut inflight = VecDeque::new();
    for (r, steps) in rounds.iter().enumerate() {
        let mut ends = Vec::new();
        for (both, step) in replicas.iter_mut().zip(steps) {
            let chunk = step.chunk.map_or(BatchShape::empty(), |(tokens, prefix)| {
                BatchShape::prefill_chunk(tokens, prefix)
            });
            let (rep, scanned) = both;
            let had_running = !scanned.is_empty();
            if let Some(end) = round(rep, scanned, &chunk, r + 1) {
                ends.push(end);
                if had_running {
                    rep.advance_decode(1);
                    scan::advance(scanned, 1);
                }
            }
            if let Some(seq) = step.joins {
                join(both, seq);
            }
        }
        if ends.is_empty() {
            continue;
        }
        inflight.push_back(join_ends(&ends));
        if inflight.len() >= 2 {
            times.push(wait(inflight.pop_front().expect("two in flight")));
        }
    }
    while let Some(end) = inflight.pop_front() {
        times.push(wait(end));
    }
    times
}

/// [`drive`] with closed-form rounds on `ClusterSim`; also returns its
/// per-kind totals.
fn drive_fused(
    cluster: &ClusterSpec,
    rl: &Roofline,
    cfg: ParallelConfig,
    running: &[Vec<(usize, usize)>],
    rounds: &[Vec<Step>],
) -> (Observed, TraceSummary) {
    let cs = RefCell::new(ClusterSim::new(cluster.clone()));
    let times = drive(
        cfg,
        running,
        rounds,
        |rep, _, chunk, slot| submit_mixed_round(&mut cs.borrow_mut(), rl, cfg, rep, chunk, slot),
        |ends| cs.borrow().join(ends),
        |end| {
            let mut cs = cs.borrow_mut();
            let end = cs.sim.run_until(end);
            (bits(end), bits(cs.now()))
        },
    );
    let mut cs = cs.into_inner();
    assert_eq!(cs.sim.submitted_tasks(), 0, "a mixed round submits no task");
    let gpus = cs.compute_block(0..cluster.num_gpus);
    let until = gpus.free.iter().map(|&t| bits(t)).collect();
    let busy = gpus.busy.iter().map(|b| b.to_bits()).collect();
    (Observed { times, busy, until }, cs.sim.busy_by_kind())
}

/// [`drive`] with task-graph rounds on the heap; also returns its
/// per-kind totals.
fn drive_reference(
    cluster: &ClusterSpec,
    rl: &Roofline,
    cfg: ParallelConfig,
    running: &[Vec<(usize, usize)>],
    rounds: &[Vec<Step>],
) -> (Observed, TraceSummary) {
    let heap = RefCell::new(HeapCluster::new(cluster));
    let mut tails = vec![vec![None; cfg.pp]; running.len()];
    let times = drive(
        cfg,
        running,
        rounds,
        |rep, running, chunk, slot| {
            let d = rep.dp_rank;
            let heap = &mut heap.borrow_mut();
            reference_round(heap, rl, cfg, d, running, &mut tails[d], chunk, slot)
        },
        |ends| heap.borrow_mut().join(ends),
        |end| {
            let sim = &mut heap.borrow_mut().sim;
            let end = sim.run_until(end);
            (bits(end), bits(sim.now()))
        },
    );
    let heap = heap.into_inner();
    (
        Observed {
            times,
            busy: heap.compute_busy(),
            until: heap.compute_until(),
        },
        heap.sim.busy_by_kind(),
    )
}

/// The fused round charges its passes in readiness order, the reference
/// in slot order, so per-kind sums may differ in the last bits.
fn assert_summaries_close(a: TraceSummary, b: TraceSummary) {
    for (x, y) in [(a.compute, b.compute), (a.total(), b.total())] {
        assert!(
            (x - y).abs() <= 1e-12 * x.abs().max(y.abs()),
            "{a:?} vs {b:?}"
        );
    }
}

/// Both schedules over one run; they must agree exactly.
fn assert_fused_matches_reference(
    which: usize,
    cfg: ParallelConfig,
    running: &[Vec<(usize, usize)>],
    rounds: &[Vec<Step>],
) {
    let (cluster, model) = setup(which);
    let rl = Roofline::new(cluster.clone(), model);
    let (reference, reference_kinds) = drive_reference(&cluster, &rl, cfg, running, rounds);
    let (fused, fused_kinds) = drive_fused(&cluster, &rl, cfg, running, rounds);
    assert_eq!(fused, reference, "{cfg:?} {running:?} {rounds:?}");
    assert_summaries_close(fused_kinds, reference_kinds);
}

/// A random chunked run: cluster, layout, per-replica running sets
/// (possibly empty, often fewer sequences than slots) and 2–24 rounds
/// whose chunks come and go.
#[derive(Debug, Clone)]
struct Case {
    /// Index into [`setup`].
    setup: usize,
    cfg: ParallelConfig,
    running: Vec<Vec<(usize, usize)>>,
    rounds: Vec<Vec<Step>>,
}

fn cases() -> impl Strategy<Value = Case> {
    let layout = (
        0usize..SETUPS,
        prop::sample::select(vec![1usize, 2, 4]),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        1usize..9,
    );
    let seq = (1usize..4000, 1usize..30);
    let running = prop::collection::vec(prop::collection::vec(seq, 0..7), 8..9);
    // Per (round, replica): chunk code and size, prefix, join code,
    // and the joining sequence's context and remaining tokens.
    let step = (
        0u32..3,
        1usize..4097,
        0usize..8000,
        0u32..4,
        1usize..4000,
        1usize..30,
    );
    let steps = prop::collection::vec(step, 8 * 24..8 * 24 + 1);
    let rounds = 2usize..25;
    (layout, running, steps, rounds).prop_map(|((which, tp, pp, dp), running, steps, n)| {
        let gpus = setup(which).0.num_gpus;
        let pp = if tp * pp > gpus { gpus / tp } else { pp };
        let dp = dp.min(gpus / (tp * pp));
        let mut running = running;
        running.truncate(dp);
        let rounds = steps
            .chunks(8)
            .take(n)
            .map(|row| {
                row[..dp]
                    .iter()
                    .map(|&(chunk, tokens, prefix, joins, ctx, remaining)| Step {
                        chunk: (chunk > 0).then_some((tokens, prefix)),
                        joins: (joins == 0).then_some((ctx, remaining)),
                    })
                    .collect()
            })
            .collect();
        Case {
            setup: which,
            cfg: ParallelConfig::new(dp, tp, pp),
            running,
            rounds,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_mixed_rounds_match_the_task_graph(case in cases()) {
        assert_fused_matches_reference(case.setup, case.cfg, &case.running, &case.rounds);
    }
}

/// A long chunk on slot 0 makes a later round's slot-1 pass ready for
/// stage 0 before that round's slot-0 pass, which still waits for the
/// long one: the executor serves slot 1 first. A schedule that served
/// each round's passes in slot order fails here.
#[test]
fn a_ready_pass_overtakes_a_slot_still_finishing_a_long_chunk() {
    let short = Step {
        chunk: Some((64, 0)),
        joins: None,
    };
    let long = Step {
        chunk: Some((8192, 0)),
        joins: None,
    };
    let rounds = vec![
        vec![short],
        vec![long],
        vec![short],
        vec![short],
        vec![short],
    ];
    // One running sequence, in slot 0; rounds 1, 3, 5 chunk on slot 1.
    assert_fused_matches_reference(0, ParallelConfig::pp(2), &[vec![(600, 64)]], &rounds);
}

#[test]
#[should_panic(expected = "before a pass of the previous round is ready")]
fn a_third_round_in_flight_panics() {
    let cfg = ParallelConfig::pp(2);
    let (cluster, model) = setup(0);
    let rl = Roofline::new(cluster.clone(), model);
    let mut cs = ClusterSim::new(cluster);
    let mut rep = Replica::new(0, 1 << 20, cfg.pp);
    rep.kv.allocate(0, 700).expect("KV fits");
    rep.push_running(RunSeq {
        id: 0,
        ctx: 600,
        remaining: 64,
    });
    let chunk = BatchShape::prefill_chunk(2048, 0);
    for round in 0..3 {
        submit_mixed_round(&mut cs, &rl, cfg, &mut rep, &chunk, round);
    }
}
