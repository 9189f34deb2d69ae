//! Request ids are labels: relabelling a stream by any strictly
//! increasing map changes nothing in an engine's report but the ids.
//! Engines key their request metadata by id (`RequestMap`, dense or
//! sorted) and break prefill-slot ties by id, so an order-preserving
//! relabelling must leave every timestamp, count and busy total equal.
//! Two maps: a dense shift, and a sparse `1000·id + 7` whose span makes
//! `RequestMap` take its sorted form. Each engine is driven through
//! `run` and through its actor (push every request, then `finish`).

use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{EngineReport, OnlineEngine, SchedulingPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{ArrivalDist, Request, WorkloadGen};

/// vLLM prefill-prioritized and chunked, and Seesaw with a CPU buffer
/// small enough to force several prefill/decode cycles.
fn engines() -> Vec<Box<dyn OnlineEngine>> {
    let vllm = |policy| -> Box<dyn OnlineEngine> {
        Box::new(
            VllmEngine::new(
                ClusterSpec::a10x4(),
                presets::llama2_13b(),
                ParallelConfig::new(1, 2, 2),
                policy,
            )
            .expect("valid config"),
        )
    };
    let mut spec = SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4));
    spec.buffer_tokens_override = Some(6_000);
    vec![
        vllm(SchedulingPolicy::PrefillPrioritized),
        vllm(SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 }),
        Box::new(
            SeesawEngine::new(ClusterSpec::a10x4(), presets::llama2_13b(), spec)
                .expect("valid spec"),
        ),
    ]
}

/// A bursty ShareGPT-shaped stream with ids `0..n`. Arrivals are
/// rounded to a 0.25 s grid, so many requests share an instant and the
/// engines' id tie-breaks decide their order.
fn stream(n: usize, seed: u64) -> Vec<Request> {
    let base = WorkloadGen::sharegpt(seed).generate(n);
    ArrivalDist::Gamma { rate: 6.0, cv: 2.0 }
        .attach(&base, seed)
        .expect("valid arrivals")
        .into_iter()
        .map(|r| {
            let at = (r.arrival_s * 4.0).floor() / 4.0;
            r.with_arrival(at)
        })
        .collect()
}

fn via_actor(engine: &dyn OnlineEngine, reqs: &[Request]) -> EngineReport {
    let mut actor = engine.actor(0.0);
    for r in reqs {
        actor.push(*r);
    }
    actor.finish()
}

/// `report` with every timeline id mapped back through `inverse`.
fn unlabel(mut report: EngineReport, inverse: impl Fn(u64) -> u64) -> EngineReport {
    for t in &mut report.timeline {
        t.id = inverse(t.id);
    }
    report
}

#[test]
fn strictly_increasing_relabelling_changes_only_the_ids() {
    type Map = (&'static str, fn(u64) -> u64, fn(u64) -> u64);
    let maps: [Map; 2] = [
        ("dense shift", |id| id + 1_000_000, |id| id - 1_000_000),
        ("sparse 1000id+7", |id| 1000 * id + 7, |id| (id - 7) / 1000),
    ];
    for seed in [3, 11] {
        let reqs = stream(48, seed);
        for engine in engines() {
            let label = engine.label();
            let run = engine.run(&reqs);
            let actor = via_actor(engine.as_ref(), &reqs);
            assert_eq!(run.timeline.len(), reqs.len(), "{label}: every request served");
            for (name, map, inverse) in maps {
                let relabelled: Vec<Request> =
                    reqs.iter().map(|r| Request { id: map(r.id), ..*r }).collect();
                let run_r = engine.run(&relabelled);
                assert!(
                    run_r.timeline.iter().zip(&run.timeline).all(|(a, b)| a.id == map(b.id)),
                    "{label}, {name}: run timeline carries the relabelled ids"
                );
                assert_eq!(unlabel(run_r, inverse), run, "{label}, {name}, seed {seed}: run");
                let actor_r = via_actor(engine.as_ref(), &relabelled);
                assert_eq!(
                    unlabel(actor_r, inverse),
                    actor,
                    "{label}, {name}, seed {seed}: actor"
                );
            }
        }
    }
}
