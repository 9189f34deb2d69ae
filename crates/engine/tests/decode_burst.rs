//! A fused decode burst (`driver::submit_decode_burst`) computes its
//! pipeline schedule in closed form. The reference here is the
//! per-round version it replaced: one task-graph pass per micro-batch
//! slot per round, chained on the slot's previous tail and served by
//! the executor's FIFO stage queues. On random layouts, batches and
//! burst lengths the two must agree bit for bit on every time and busy
//! total, and record the same spans.

use proptest::prelude::*;
use seesaw_engine::cluster_sim::ClusterSim;
use seesaw_engine::driver::{stage_durations, submit_decode_burst, Replica, RunSeq};
use seesaw_hw::{efficiency, ClusterSpec};
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline, Stage};
use seesaw_sim::{TaskHandle, TaskKind, TraceSummary};

/// Indices of `replica.running` assigned to each micro-batch slot
/// (round-robin, as the engines assign them).
fn slot_members(replica: &Replica, pp: usize) -> Vec<Vec<usize>> {
    let mut slots = vec![Vec::new(); pp];
    for i in 0..replica.running.len() {
        slots[i % pp].push(i);
    }
    slots
}

/// The per-round burst: `rounds` × non-empty slots passes, each
/// submitted through `ClusterSim::submit_pass` behind its slot's tail,
/// with its stage durations evaluated from the full layer cost.
fn reference_burst(
    cs: &mut ClusterSim,
    rl: &Roofline,
    cfg: ParallelConfig,
    replica: &mut Replica,
    rounds: usize,
) -> Option<TaskHandle> {
    if replica.running.is_empty() || rounds == 0 {
        return None;
    }
    let slots = slot_members(replica, cfg.pp);
    let overhead = efficiency::STEP_SCHED_OVERHEAD_S / cfg.pp as f64;
    let mut last: Vec<TaskHandle> = Vec::new();
    for r in 0..rounds {
        last.clear();
        for (slot, members) in slots.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let shape =
                BatchShape::decode_iter(members.iter().map(|&i| replica.running[i].ctx + r + 1));
            let mut durs = stage_durations(rl, cfg, Stage::Decode, &shape);
            durs[0] += overhead;
            let tail = cs.submit_pass(
                cfg,
                replica.dp_rank,
                &durs,
                replica.tails[slot],
                TaskKind::Compute,
            );
            replica.tails[slot] = Some(tail);
            last.push(tail);
        }
    }
    Some(cs.join(&last))
}

type Burst =
    fn(&mut ClusterSim, &Roofline, ParallelConfig, &mut Replica, usize) -> Option<TaskHandle>;

/// What one engine loop observes after each burst.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per burst: the join time, then every replica's slot-tail times.
    times: Vec<Vec<Option<u64>>>,
    /// Busy seconds of every GPU's compute engine.
    busy: Vec<u64>,
}

/// Run `bursts` (per burst, the round count) back to back on `dp`
/// replicas, the way the engine loops do: submit every replica's
/// burst, join, `run_until` the join, advance the contexts.
fn drive(
    burst: Burst,
    cluster: &ClusterSpec,
    rl: &Roofline,
    cfg: ParallelConfig,
    contexts: &[Vec<usize>],
    bursts: &[usize],
) -> (Observed, ClusterSim) {
    let mut cs = ClusterSim::with_trace(cluster.clone());
    let total: usize = bursts.iter().sum();
    let mut replicas: Vec<Replica> = contexts
        .iter()
        .enumerate()
        .map(|(d, ctxs)| {
            let mut rep = Replica::new(d, 1 << 20, cfg.pp);
            rep.running = ctxs
                .iter()
                .enumerate()
                .map(|(i, &ctx)| RunSeq {
                    id: i as u64,
                    ctx,
                    remaining: total + 1,
                })
                .collect();
            rep
        })
        .collect();
    let mut times = Vec::new();
    for &rounds in bursts {
        let joins: Vec<TaskHandle> = replicas
            .iter_mut()
            .map(|rep| burst(&mut cs, rl, cfg, rep, rounds).expect("replica is running"))
            .collect();
        let join = cs.join(&joins);
        let mut row = vec![Some(cs.sim.run_until(join).as_secs().to_bits())];
        for rep in &mut replicas {
            row.extend(rep.tails.iter().map(|t| {
                t.map(|h| {
                    cs.sim
                        .completion_time(h)
                        .expect("tail done")
                        .as_secs()
                        .to_bits()
                })
            }));
            assert!(rep.advance_decode(rounds).is_empty());
        }
        times.push(row);
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
    (Observed { times, busy }, cs)
}

/// Spans as a sorted multiset of exactly comparable keys.
fn span_multiset(cs: &ClusterSim) -> Vec<(Option<usize>, String, u64, u64, u64)> {
    let mut spans: Vec<_> = cs
        .sim
        .trace()
        .spans()
        .iter()
        .map(|s| {
            let resource = s.resource.map(|r| r.index());
            let (start, end) = (s.start.as_secs().to_bits(), s.end.as_secs().to_bits());
            (resource, format!("{:?}", s.kind), start, end, s.tag)
        })
        .collect();
    spans.sort();
    spans
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

/// A random decode setup: cluster, layout, per-replica contexts and
/// the round counts of 2–3 back-to-back bursts.
#[derive(Debug, Clone)]
struct Case {
    /// Index into [`setup`].
    setup: usize,
    cfg: ParallelConfig,
    contexts: Vec<Vec<usize>>,
    bursts: Vec<usize>,
}

fn cases() -> impl Strategy<Value = Case> {
    let layout = (
        0usize..3,
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4]),
        1usize..9,
    );
    let batches = prop::collection::vec(prop::collection::vec(1usize..4000, 1..41), 8..9);
    let short = prop::sample::select(vec![false, true]);
    let bursts = prop::collection::vec(1usize..65, 2..4);
    (layout, batches, short, bursts).prop_map(|((which, tp, pp, dp), batches, short, bursts)| {
        let gpus = setup(which).0.num_gpus;
        // Shrink the layout until it fits the cluster: tp first, then
        // pp, then dp.
        let tp = tp.min(gpus);
        let pp = if tp * pp > gpus { gpus / tp } else { pp };
        let dp = dp.min(gpus / (tp * pp));
        let mut contexts = batches;
        contexts.truncate(dp);
        // Half the cases give the last replica 1–3 sequences, fewer
        // than the slots of a 4-stage pipeline.
        if short {
            let last = contexts.last_mut().expect("dp >= 1");
            last.truncate(1 + last[0] % 3);
        }
        Case {
            setup: which,
            cfg: ParallelConfig::new(dp, tp, pp),
            contexts,
            bursts,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_burst_matches_the_per_round_reference(case in cases()) {
        let (cluster, model) = setup(case.setup);
        let rl = Roofline::new(cluster.clone(), model);
        let run = |burst: Burst| drive(burst, &cluster, &rl, case.cfg, &case.contexts, &case.bursts);
        let (fused, fused_cs) = run(submit_decode_burst);
        let (reference, reference_cs) = run(reference_burst);
        prop_assert_eq!(&fused, &reference, "{:?}", case);
        prop_assert_eq!(span_multiset(&fused_cs), span_multiset(&reference_cs), "{:?}", case);
        assert_summaries_close(fused_cs.sim.trace().summary(), reference_cs.sim.trace().summary());
        prop_assert!(fused_cs.sim.submitted_tasks() <= reference_cs.sim.submitted_tasks());
    }
}

fn one_replica(cfg: ParallelConfig, seqs: usize) -> (ClusterSim, Roofline, Replica) {
    let cluster = ClusterSpec::a10x4();
    let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
    let mut rep = Replica::new(0, 1 << 20, cfg.pp);
    rep.running = (0..seqs as u64)
        .map(|id| RunSeq {
            id,
            ctx: 600,
            remaining: 64,
        })
        .collect();
    (ClusterSim::new(cluster), rl, rep)
}

#[test]
fn an_empty_slot_has_no_tail() {
    let cfg = ParallelConfig::pp(4);
    let (mut cs, rl, mut rep) = one_replica(cfg, 3);
    let join = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 8).expect("running");
    assert_eq!(
        cs.sim.submitted_tasks(),
        4,
        "three slot tails and their join"
    );
    cs.sim.run_until(join);
    assert_eq!(rep.tails.iter().filter(|t| t.is_some()).count(), 3);
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

/// The executor cannot see a fused burst's work, so a compute task
/// submitted before the burst ends would be served on top of it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lands inside a fused decode burst")]
fn a_compute_task_inside_a_fused_burst_panics() {
    let cfg = ParallelConfig::pp(2);
    let (mut cs, rl, mut rep) = one_replica(cfg, 4);
    submit_decode_burst(&mut cs, &rl, cfg, &mut rep, 4);
    cs.submit_compute_overhead(1, 0.1, None);
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
