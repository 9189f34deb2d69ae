//! Prefill batches, fused decode bursts and mixed rounds keep their
//! working buffers on the replica, so once warmed up they allocate
//! nothing: a 1-round and a 64-round burst make the same number of heap
//! allocations, and a whole engine-loop step (burst, wait, advance;
//! mixed round, advance, wait; or admission, prefill batch, wait,
//! on-boarding) makes none. Neither does a Seesaw engine's prefill
//! round once its phase is warmed up. The counting allocator counts
//! only the thread that switched it on, so the test harness's own
//! threads do not disturb the count.

use seesaw_engine::cluster_sim::ClusterSim;
use seesaw_engine::driver::{
    submit_decode_burst, submit_mixed_round, submit_prefill_batch, Replica, RunSeq,
};
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline};
use seesaw_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct Counting;

thread_local! {
    /// Allocations made on this thread while counting is on (`None`
    /// when off). Const-initialized, so reading it never allocates.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    ALLOCS.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.take()).expect("counting was on")
}

/// One engine-loop step: burst, wait, advance.
fn step(cs: &mut ClusterSim, rl: &Roofline, cfg: ParallelConfig, rep: &mut Replica, rounds: usize) {
    let join = submit_decode_burst(cs, rl, cfg, rep, rounds).expect("replica is running");
    cs.sim.run_until(join);
    assert!(
        rep.advance_decode(rounds).is_empty(),
        "nothing finishes mid-test"
    );
}

/// A replica decoding six sequences that never finish.
fn setup(cfg: ParallelConfig) -> (ClusterSim, Roofline, Replica) {
    let cluster = ClusterSpec::a10x4();
    let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
    let mut rep = Replica::new(0, 1 << 20, cfg.pp);
    for id in 0..6u64 {
        rep.push_running(RunSeq {
            id,
            ctx: 500 + 100 * id as usize,
            remaining: 1 << 20,
        });
    }
    (ClusterSim::new(cluster), rl, rep)
}

/// One chunked-prefill engine-loop step: a mixed round, the decode
/// advance, and a wait for the older of the two rounds in flight.
fn mixed_step(
    cs: &mut ClusterSim,
    rl: &Roofline,
    cfg: ParallelConfig,
    rep: &mut Replica,
    inflight: &mut VecDeque<SimTime>,
    round: usize,
) {
    let chunk = BatchShape::prefill_chunk(512, 512 * (round % 8));
    let end = submit_mixed_round(cs, rl, cfg, rep, &chunk, round).expect("replica is running");
    inflight.push_back(end);
    assert!(
        rep.advance_decode(1).is_empty(),
        "nothing finishes mid-test"
    );
    if inflight.len() >= 2 {
        cs.sim
            .run_until(inflight.pop_front().expect("two in flight"));
    }
}

#[test]
fn burst_allocations_do_not_grow_with_rounds() {
    let cfg = ParallelConfig::new(1, 2, 2);
    let (mut cs, rl, mut rep) = setup(cfg);
    for _ in 0..8 {
        step(&mut cs, &rl, cfg, &mut rep, 16);
    }
    let short = allocations(|| step(&mut cs, &rl, cfg, &mut rep, 1));
    let long = allocations(|| step(&mut cs, &rl, cfg, &mut rep, 64));
    assert_eq!(
        short, long,
        "a 64-round burst allocates more than a 1-round one"
    );
    assert_eq!(short, 0, "a warmed-up burst step allocates");
}

#[test]
fn a_warmed_up_mixed_round_step_allocates_nothing() {
    let cfg = ParallelConfig::pp(4);
    let (mut cs, rl, mut rep) = setup(cfg);
    let mut inflight = VecDeque::with_capacity(2);
    for round in 0..16 {
        mixed_step(&mut cs, &rl, cfg, &mut rep, &mut inflight, round);
    }
    let allocs = allocations(|| {
        for round in 16..80 {
            mixed_step(&mut cs, &rl, cfg, &mut rep, &mut inflight, round);
        }
    });
    assert_eq!(allocs, 0, "64 warmed-up mixed round steps allocate");
}

/// Buffers a prefill step reuses, as the engine loops keep them.
#[derive(Default)]
struct PrefillBuffers {
    batch: Vec<(u64, usize)>,
    parts: Vec<(SimTime, u64)>,
    next_id: u64,
}

/// One prefill engine-loop step: admit six fresh requests into KV,
/// submit their prefill batch, wait for its last pass and on-board
/// them; then decode them to completion in one burst, which retires
/// them and frees their KV.
fn prefill_step(
    cs: &mut ClusterSim,
    rl: &Roofline,
    cfg: ParallelConfig,
    rep: &mut Replica,
    buf: &mut PrefillBuffers,
) {
    buf.batch.clear();
    for k in 0..6 {
        let prompt = 256 + 128 * k;
        rep.kv.allocate(buf.next_id, prompt + 8).expect("KV fits");
        buf.batch.push((buf.next_id, prompt));
        buf.next_id += 1;
    }
    submit_prefill_batch(cs, rl, cfg, rep, &buf.batch, &mut buf.parts);
    let join = buf.parts.iter().fold(cs.now(), |t, &(end, _)| t.max(end));
    cs.sim.run_until(join);
    for &(id, prompt) in &buf.batch {
        rep.push_running(RunSeq {
            id,
            ctx: prompt + 1,
            remaining: 7,
        });
    }
    let rounds = rep.max_burst(64);
    let end = submit_decode_burst(cs, rl, cfg, rep, rounds).expect("replica is running");
    cs.sim.run_until(end);
    assert_eq!(rep.advance_decode(rounds).len(), 6, "the batch retires");
}

#[test]
fn a_warmed_up_prefill_step_allocates_nothing() {
    let cfg = ParallelConfig::new(1, 2, 2);
    let cluster = ClusterSpec::a10x4();
    let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
    let mut cs = ClusterSim::new(cluster);
    let mut rep = Replica::new(0, 1 << 20, cfg.pp);
    let mut buf = PrefillBuffers::default();
    for _ in 0..16 {
        prefill_step(&mut cs, &rl, cfg, &mut rep, &mut buf);
    }
    let allocs = allocations(|| {
        for _ in 0..64 {
            prefill_step(&mut cs, &rl, cfg, &mut rep, &mut buf);
        }
    });
    assert_eq!(allocs, 0, "64 warmed-up prefill steps allocate");
}

/// A Seesaw replica fed through its actor: the first batch of prompts
/// prefills, buffers and decodes, and the second batch arrives at a
/// later instant, starting a second prefill phase. A state read runs
/// the phase's prefill rounds (reclaim, admission, prefill batch,
/// swap-out chains, batch join) up to the read's instant; once the
/// second phase has warmed its buffers, reads that run rounds allocate
/// nothing.
#[test]
fn a_warmed_up_seesaw_prefill_round_allocates_nothing() {
    use seesaw_engine::online::OnlineEngine;
    use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
    use seesaw_workload::Request;
    const N: u64 = 512;
    let eng = SeesawEngine::new(
        ClusterSpec::a10x4(),
        presets::llama2_13b(),
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
    )
    .expect("P4 -> T4 fits");
    let mut actor = eng.actor(0.0);
    let second = 10_000.0;
    for id in 0..2 * N {
        let arrival = if id < N { 0.0 } else { second };
        actor.push(Request::new(id, 512, 8).with_arrival(arrival));
    }
    // The first batch's whole cycle, then the second phase's first
    // rounds.
    let mut t = second;
    while actor.depth_at(t).running < 64 {
        t += 0.25;
    }
    let waiting = actor.depth_at(t).waiting;
    let allocs = allocations(|| {
        for _ in 0..32 {
            t += 0.25;
            actor.depth_at(t);
        }
    });
    let depth = actor.depth_at(t);
    assert!(
        depth.waiting + 64 <= waiting && depth.waiting > 0,
        "the reads ran prefill rounds, inside the phase: {waiting} -> {depth:?}"
    );
    assert_eq!(allocs, 0, "32 reads over warmed-up Seesaw prefill rounds allocate");
}
