//! The resumable engine actors against their oracle, the prefix
//! replay: over random arrival-sorted streams, random readiness and
//! random interleavings of pushes and queries — same-instant pushes
//! and long idle gaps included — every depth read equals the counts of
//! a fresh `run_ready` of the assigned prefix, every work read (a
//! projection, or a later read of the same one) equals that run's
//! remaining work bit for bit, and `finish` equals the full run.

mod support;

use proptest::prelude::*;
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{Depth, OnlineEngine, SchedulingPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::Request;
use support::live::live_state;

/// The four scheduling loops with native actors: vLLM under each
/// policy (chunked prefill also on a 4-stage pipeline, where a mixed
/// round's passes reach stage 0 out of slot order), and Seesaw with a
/// CPU buffer small enough to force several prefill/decode cycles per
/// stream.
fn engines() -> Vec<Box<dyn OnlineEngine>> {
    let vllm_on = |cfg, policy| -> Box<dyn OnlineEngine> {
        Box::new(
            VllmEngine::new(ClusterSpec::a10x4(), presets::llama2_13b(), cfg, policy)
                .expect("valid config"),
        )
    };
    let vllm = |policy| vllm_on(ParallelConfig::new(1, 2, 2), policy);
    let mut spec = SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4));
    spec.buffer_tokens_override = Some(6_000);
    vec![
        vllm(SchedulingPolicy::PrefillPrioritized),
        vllm(SchedulingPolicy::DecodePrioritized),
        vllm(SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 }),
        vllm_on(ParallelConfig::pp(4), SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 }),
        Box::new(
            SeesawEngine::new(ClusterSpec::a10x4(), presets::llama2_13b(), spec)
                .expect("valid spec"),
        ),
    ]
}

/// Gap before a push: a third of pushes share the previous instant, a
/// few land after an idle gap long past any drain.
fn gap_s(code: u32) -> f64 {
    match code {
        0 | 1 => 0.0,
        2..=5 => 0.05 * code as f64,
        6 => 3.0,
        _ => 40.0,
    }
}

/// Where a query lands between a push at `at` and the next one at
/// `next`: none, at the push instant, partway, or exactly at the next
/// push (which then arrives at the queried instant).
fn query_at(code: u32, at: f64, next: f64) -> Option<f64> {
    match code {
        0 | 1 => None,
        2 => Some(at),
        3 => Some((at + 0.25 * (next - at)).min(next)),
        4 => Some((at + 0.5 * (next - at)).min(next)),
        _ => Some(next),
    }
}

fn check(engine: &dyn OnlineEngine, feed: &[(usize, usize, u32, u32)], ready_s: f64) {
    let mut t = 0.0;
    let stream: Vec<Request> = feed
        .iter()
        .enumerate()
        .map(|(i, &(input, output, gap, _))| {
            t += gap_s(gap);
            Request::new(i as u64, input, output).with_arrival(t)
        })
        .collect();
    let label = engine.label();
    let mut actor = engine.actor(ready_s);
    // Depth reads never project, and a work read projects once per
    // push at most: every projection is one of these.
    let mut projected = 0;
    for (i, req) in stream.iter().enumerate() {
        actor.push(*req);
        let next = stream.get(i + 1).map_or(req.arrival_s + 25.0, |n| n.arrival_s);
        let Some(t) = query_at(feed[i].3, req.arrival_s, next) else {
            continue;
        };
        let oracle = engine.run_ready(&stream[..=i], ready_s);
        let (depth, work) = live_state(&oracle, t);
        assert_eq!(actor.depth_at(t), depth, "{label}: depth at {t} after {} pushes", i + 1);
        if feed[i].3 % 2 == 1 {
            projected += 1;
            // The projection, then a later read of the same one.
            for (at, expect) in [(t, work), (next, live_state(&oracle, next).1)] {
                assert_eq!(
                    actor.work_at(at).to_bits(),
                    expect.to_bits(),
                    "{label}: work at {at} after {} pushes",
                    i + 1
                );
            }
        }
        assert!(
            actor.projection_counts().0 <= projected,
            "{label}: a depth read or a second work read projected ({:?} for {projected} \
             projections)",
            actor.projection_counts()
        );
    }
    assert_eq!(actor.finish(), engine.run_ready(&stream, ready_s), "{label}: finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn actors_match_prefix_replay(
        feed in prop::collection::vec((64usize..1500, 1usize..40, 0u32..8, 0u32..6), 3..14),
        ready_s in prop::sample::select(vec![0.0, 0.1, 0.7, 5.0]),
    ) {
        for engine in engines() {
            check(engine.as_ref(), &feed, ready_s);
        }
    }
}

/// The Seesaw trap: the decode phase drains the buffer long before a
/// far-future arrival. The actor parks at the re-shard-back check —
/// the prefix run ends in the decode sharding — then re-shards back
/// the moment the next request is pushed, exactly as the full run
/// does, and never re-shards on `finish`.
#[test]
fn seesaw_actor_reshards_back_on_push_not_on_finish() {
    let eng = SeesawEngine::new(
        ClusterSpec::a10x4(),
        presets::llama2_13b(),
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
    )
    .expect("valid spec");
    let early: Vec<Request> = (0..4).map(|i| Request::new(i, 512, 16)).collect();
    let late = Request::new(4, 512, 16).with_arrival(1000.0);
    let mut full_stream = early.clone();
    full_stream.push(late);

    let mut parked = eng.actor(0.0);
    for r in &early {
        parked.push(*r);
    }
    assert_eq!(parked.depth_at(500.0), Depth::default(), "everything drained by t=500");
    assert_eq!(parked.projection_counts(), (0, 0), "a depth read needs no projection");
    assert_eq!(parked.work_at(500.0), 0.0, "no work is left at t=500");
    let prefix = eng.run(&early);
    assert_eq!(prefix.transitions, 1, "the prefix run ends in the decode sharding");
    assert_eq!(parked.finish(), prefix, "finish does not re-shard back");

    let mut resumed = eng.actor(0.0);
    for r in &early {
        resumed.push(*r);
    }
    resumed.depth_at(500.0);
    resumed.push(late);
    let full = resumed.finish();
    assert_eq!(full, eng.run(&full_stream));
    assert_eq!(full.transitions, 3, "re-shard back on the push, then one more cycle");
    let back = full.phases.iter().filter(|p| p.phase == seesaw_engine::Phase::Reshard).nth(1);
    assert!(
        back.is_some_and(|p| p.end_s < 500.0),
        "the re-shard back happens right after the drain, not at the late arrival"
    );
}

/// A replica that is not yet ready holds pushed work until `ready_s`.
#[test]
fn warming_actor_matches_run_ready() {
    for engine in engines() {
        let stream: Vec<Request> =
            (0..5).map(|i| Request::new(i, 300, 8).with_arrival(0.2 * i as f64)).collect();
        let mut actor = engine.actor(2.0);
        for r in &stream {
            actor.push(*r);
        }
        assert_eq!(actor.depth_at(1.5).running, 0, "{}: nothing runs before ready", engine.label());
        assert_eq!(actor.finish(), engine.run_ready(&stream, 2.0), "{}", engine.label());
    }
}

#[test]
#[should_panic(expected = "precedes an earlier push or query")]
fn actor_rejects_query_before_last_push() {
    let engine = &engines()[0];
    let mut actor = engine.actor(0.0);
    actor.push(Request::new(0, 128, 8).with_arrival(2.0));
    actor.depth_at(1.0);
}

#[test]
#[should_panic(expected = "arrival-ordered")]
fn actor_rejects_push_before_last_query() {
    let engine = &engines()[0];
    let mut actor = engine.actor(0.0);
    actor.depth_at(3.0);
    actor.push(Request::new(0, 128, 8).with_arrival(2.0));
}
