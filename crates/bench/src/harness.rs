//! Sweep harness: the tuned-vLLM baseline and the auto-probed Seesaw
//! run used by the end-to-end figures.
//!
//! Every sweep takes an explicit [`SweepRunner`]; binaries build one
//! with `SweepRunner::from_env`.
//!
//! # The baseline search
//!
//! [`best_vllm_with`] returns exactly what taking `Iterator::max_by`
//! on throughput over every candidate's report would return: the
//! highest-throughput report, and on equal throughput the one later in
//! enumeration order (configurations × policies, as `vllm_candidates`
//! lists them). It keeps only one report at a time, the incumbent:
//!
//! * **Order.** Candidates run in reverse enumeration order, in waves
//!   of [`SweepRunner::effective_jobs`]. Any order gives the same
//!   result; this one was the cheaper of the two fixed orders measured
//!   on the Fig. 10–11 cells (the figure jobs took 0.75× their time
//!   with the exhaustive sweep, 0.91× in enumeration order, on a
//!   2-core x86-64 host).
//! * **Bound.** Each candidate of a wave runs as an engine actor: every
//!   request is pushed, then the run advances to `bound`, the least
//!   time `t` with `n / t` strictly below the incumbent's throughput.
//!   A candidate with requests still in flight there ends later, so its
//!   throughput is strictly lower (a run's duration is at least its
//!   last completion): it is dropped without building a report.
//! * **Ties.** A candidate that finishes by `bound` builds its report,
//!   which replaces the incumbent when its throughput is higher, or
//!   equal and the candidate comes later in enumeration order.
//!
//! Which candidates are dropped depends on the wave size, but the
//! report returned does not: every runner returns the same one.

use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{EngineReport, OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::{feasible, FitError};
use seesaw_workload::Request;
use std::sync::Arc;

/// Policies included in the baseline sweep. The paper enables chunked
/// prefill for vLLM and tunes the chunk size (§6.1), so the sweep
/// covers plain prefill-prioritizing plus two chunk sizes.
pub fn baseline_policies() -> Vec<SchedulingPolicy> {
    vec![
        SchedulingPolicy::PrefillPrioritized,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 2048 },
    ]
}

/// The baseline sweep's candidates, in enumeration order: every
/// feasible static configuration × baseline policy whose replica can
/// hold every request of `reqs`. They share one copy of the specs,
/// and are held behind the `OnlineEngine` trait, the interface fleet
/// replicas use too.
fn vllm_candidates(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    reqs: &[Request],
) -> Vec<Box<dyn OnlineEngine>> {
    let cluster = Arc::new(cluster.clone());
    let model = Arc::new(model.clone());
    let mut engines: Vec<Box<dyn OnlineEngine>> = Vec::new();
    for cfg in feasible::feasible_configs(&model, &cluster) {
        for policy in baseline_policies() {
            if let Ok(engine) =
                VllmEngine::new(Arc::clone(&cluster), Arc::clone(&model), cfg, policy)
            {
                // A replica that cannot hold every request would
                // never admit the ones it cannot.
                if reqs.iter().all(|r| engine.holds(r)) {
                    engines.push(Box::new(engine));
                }
            }
        }
    }
    engines
}

/// Fails, naming the request size and the largest KV capacity,
/// unless some configuration of the baseline sweep can hold `req`.
pub fn check_request_fits(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    req: &Request,
) -> Result<(), String> {
    let mut largest = 0;
    for cfg in feasible::feasible_configs(model, cluster) {
        for policy in baseline_policies() {
            if let Ok(engine) = VllmEngine::new(cluster.clone(), model.clone(), cfg, policy) {
                if engine.holds(req) {
                    return Ok(());
                }
                largest = largest.max(engine.kv_capacity_tokens());
            }
        }
    }
    Err(format!(
        "a {}-token request does not fit: the largest per-replica KV capacity of {} on \
         {}x {} is {largest} tokens",
        req.total_len(),
        model.name,
        cluster.num_gpus,
        cluster.gpu.name
    ))
}

/// The tuned baseline: best throughput across the sweep (what the
/// paper reports as the vLLM bar after sweeping parallelisms and
/// tuning the chunk size). See the module docs for how the search
/// stays exact while keeping one report.
pub fn best_vllm_with(
    runner: &SweepRunner,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    reqs: &[Request],
) -> EngineReport {
    best_report_with(runner, &vllm_candidates(cluster, model, reqs), reqs)
        .expect("at least one feasible configuration")
}

/// The report `Iterator::max_by` on throughput would pick among every
/// candidate's run of `reqs` (`None` without candidates), found by the
/// bounded search of the module docs.
fn best_report_with(
    runner: &SweepRunner,
    candidates: &[Box<dyn OnlineEngine>],
    reqs: &[Request],
) -> Option<EngineReport> {
    let n = reqs.len() as f64;
    let order: Vec<usize> = (0..candidates.len()).rev().collect();
    let mut best: Option<(usize, EngineReport)> = None;
    for wave in order.chunks(runner.effective_jobs()) {
        let bound = best
            .as_ref()
            .map_or(f64::INFINITY, |(_, report)| abort_bound(n, report.throughput_rps()));
        let reports = runner.map(wave, |&i| run_unless_slower(&*candidates[i], reqs, bound));
        for (&i, report) in wave.iter().zip(reports) {
            let Some(report) = report else { continue };
            let wins = best.as_ref().is_none_or(|(j, incumbent)| {
                let (ours, theirs) = (report.throughput_rps(), incumbent.throughput_rps());
                ours > theirs || (ours == theirs && i > *j)
            });
            if wins {
                best = Some((i, report));
            }
        }
    }
    best.map(|(_, report)| report)
}

/// The least time `t` with `n / t < best` (infinite when no time
/// qualifies). Quotients only fall as `t` grows, so a run of `n`
/// requests that lasts longer than it has a throughput strictly below
/// `best`.
fn abort_bound(n: f64, best: f64) -> f64 {
    if !(n > 0.0 && best > 0.0) {
        return f64::INFINITY;
    }
    let mut t = n / best;
    while n / t >= best {
        t = t.next_up();
    }
    while n / t.next_down() < best {
        t = t.next_down();
    }
    t
}

/// `engine`'s report on `reqs`, or `None` when requests are still in
/// flight at `bound`: the run then ends after it.
fn run_unless_slower(
    engine: &dyn OnlineEngine,
    reqs: &[Request],
    bound: f64,
) -> Option<EngineReport> {
    let mut actor = engine.actor(0.0);
    for &req in reqs {
        actor.push(req);
    }
    if bound.is_finite() && actor.depth_at(bound).queue_depth > 0 {
        return None;
    }
    let report = actor.finish();
    debug_assert!(
        report.timeline.iter().all(|t| t.completion_s <= report.stats.duration_s),
        "a run's duration covers its last completion"
    );
    Some(report)
}

/// Seesaw with its configuration pair auto-probed on a sample of the
/// workload, or why the probe found no pair that can hold it.
/// Runs on `runner` (the probe pairs evaluate concurrently).
pub fn seesaw_auto_with(
    runner: &SweepRunner,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    reqs: &[Request],
) -> Result<EngineReport, FitError> {
    let probe = &reqs[..reqs.len().min(32)];
    let spec = SeesawSpec::auto_probed_with(runner, cluster, model, probe)?;
    Ok(seesaw_with(cluster, model, spec, reqs))
}

/// A Seesaw run with an explicit spec.
pub fn seesaw_with(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    spec: SeesawSpec,
    reqs: &[Request],
) -> EngineReport {
    SeesawEngine::new(cluster.clone(), model.clone(), spec)
        .expect("valid spec")
        .run(reqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_engine::{Depth, EngineActor, ServiceRates};
    use seesaw_model::presets;
    use seesaw_workload::{ArrivalDist, WorkloadGen};

    /// The search returns the exhaustive sweep's best report, and the
    /// sweep covers several candidates.
    #[test]
    fn best_vllm_is_max_of_sweep() {
        let cluster = ClusterSpec::a10x4();
        let m = presets::llama2_13b();
        let reqs = WorkloadGen::constant(512, 32).generate(16);
        let candidates = vllm_candidates(&cluster, &m, &reqs);
        assert!(candidates.len() >= 3, "sweep should cover several configs");
        let sweep: Vec<EngineReport> = candidates.iter().map(|e| e.run(&reqs)).collect();
        let best = best_vllm_with(&SweepRunner::from_env(), &cluster, &m, &reqs);
        assert!(sweep.iter().all(|r| r.throughput_rps() <= best.throughput_rps()));
        assert!(sweep.contains(&best));
    }

    /// The bound is the least time whose quotient falls strictly below
    /// the incumbent's throughput.
    #[test]
    fn abort_bound_is_the_least_time_below_the_incumbent() {
        for (n, best) in [(16.0, 3.7), (500.0, 1.0 / 3.0), (2000.0, 12.345), (1.0, 1e-9)] {
            let t: f64 = abort_bound(n, best);
            assert!(n / t < best && n / t.next_down() >= best, "n {n}, best {best}");
        }
        assert_eq!(abort_bound(0.0, 1.0), f64::INFINITY);
        assert_eq!(abort_bound(4.0, 0.0), f64::INFINITY);
    }

    /// The exhaustive sweep the search replaces, kept as its oracle:
    /// every candidate's report, then `Iterator::max_by` on throughput
    /// (which keeps the later of equal maxima).
    fn exhaustive_best(
        runner: &SweepRunner,
        candidates: &[Box<dyn OnlineEngine>],
        reqs: &[Request],
    ) -> Option<EngineReport> {
        runner
            .map(candidates, |engine| engine.run(reqs))
            .into_iter()
            .max_by(|a, b| {
                a.throughput_rps()
                    .partial_cmp(&b.throughput_rps())
                    .expect("finite throughput")
            })
    }

    /// A candidate that renames its reports, so that identical
    /// candidates can be told apart.
    struct Tagged {
        engine: Arc<dyn OnlineEngine>,
        tag: String,
    }

    struct TaggedActor<'a> {
        actor: Box<dyn EngineActor + 'a>,
        tag: String,
    }

    impl OnlineEngine for Tagged {
        fn label(&self) -> String {
            self.tag.clone()
        }

        fn run(&self, requests: &[Request]) -> EngineReport {
            EngineReport { label: self.tag.clone(), ..self.engine.run(requests) }
        }

        fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
            self.engine.service_rates(avg_in, avg_out)
        }

        fn actor(&self, ready_s: f64) -> Box<dyn EngineActor + '_> {
            Box::new(TaggedActor { actor: self.engine.actor(ready_s), tag: self.tag.clone() })
        }
    }

    impl EngineActor for TaggedActor<'_> {
        fn push(&mut self, req: Request) {
            self.actor.push(req);
        }

        fn depth_at(&mut self, t: f64) -> Depth {
            self.actor.depth_at(t)
        }

        fn projected(&mut self) -> &EngineReport {
            self.actor.projected()
        }

        fn projection_counts(&self) -> (u64, u64) {
            self.actor.projection_counts()
        }

        fn finish(self: Box<Self>) -> EngineReport {
            EngineReport { label: self.tag, ..self.actor.finish() }
        }
    }

    /// Small request sets drawn from both datasets, offline or with
    /// Poisson arrivals, on clusters and models of the figures.
    fn oracle_cases() -> Vec<(ClusterSpec, ModelConfig, Vec<Request>)> {
        let mut cases = Vec::new();
        let setups = [
            (ClusterSpec::a10x4(), presets::llama2_13b()),
            (ClusterSpec::l4x4(), presets::llama3_15b()),
        ];
        for (k, (cluster, model)) in setups.into_iter().enumerate() {
            for seed in 0..4u64 {
                let seed = 10 * k as u64 + seed;
                let n = 6 + (seed as usize * 7) % 19;
                let mut reqs = if seed.is_multiple_of(2) {
                    WorkloadGen::sharegpt(seed).generate(n)
                } else {
                    WorkloadGen::arxiv_summarization(seed).generate(n)
                };
                if seed % 4 >= 2 {
                    reqs = ArrivalDist::Poisson { rate: 2.0 }.attach(&reqs, seed).unwrap();
                }
                cases.push((cluster.clone(), model.clone(), reqs));
            }
        }
        cases
    }

    /// The search returns the exhaustive sweep's best report, whole, on
    /// serial and 4-wide runners; and every incumbent's bound is the
    /// least time whose quotient falls strictly below its throughput.
    #[test]
    fn search_matches_the_exhaustive_sweep() {
        for (cluster, model, reqs) in oracle_cases() {
            let candidates = vllm_candidates(&cluster, &model, &reqs);
            assert!(candidates.len() >= 3, "{} candidates", candidates.len());
            let oracle = exhaustive_best(&SweepRunner::serial(), &candidates, &reqs);
            for runner in [SweepRunner::serial(), SweepRunner::new(4)] {
                let best = best_report_with(&runner, &candidates, &reqs);
                assert_eq!(best, oracle, "{} requests on {}", reqs.len(), cluster.gpu.name);
            }
            let n = reqs.len() as f64;
            for engine in &candidates {
                let best = engine.run(&reqs).throughput_rps();
                let t = abort_bound(n, best);
                assert!(n / t < best && n / t.next_down() >= best, "n {n}, best {best}");
            }
        }
    }

    /// Of two identical candidates, the later one in enumeration order
    /// wins, as under `max_by`: each candidate appears twice in a row,
    /// tagged `a` then `b`, and the winner is the `b` copy.
    #[test]
    fn a_tie_goes_to_the_later_candidate() {
        for (cluster, model, reqs) in oracle_cases().into_iter().step_by(3) {
            let twins: Vec<Box<dyn OnlineEngine>> = vllm_candidates(&cluster, &model, &reqs)
                .into_iter()
                .enumerate()
                .flat_map(|(i, engine)| {
                    let engine: Arc<dyn OnlineEngine> = Arc::from(engine);
                    ["a", "b"].map(|copy| -> Box<dyn OnlineEngine> {
                        Box::new(Tagged { engine: Arc::clone(&engine), tag: format!("{i}{copy}") })
                    })
                })
                .collect();
            let oracle = exhaustive_best(&SweepRunner::serial(), &twins, &reqs).unwrap();
            assert!(oracle.label.ends_with('b'), "max_by keeps the later twin");
            for runner in [SweepRunner::serial(), SweepRunner::new(4)] {
                let best = best_report_with(&runner, &twins, &reqs).unwrap();
                assert_eq!(best, oracle);
            }
        }
    }

    #[test]
    fn seesaw_auto_completes() {
        let cluster = ClusterSpec::a10x4();
        let m = presets::llama2_13b();
        let reqs = WorkloadGen::constant(1024, 64).generate(24);
        let rep = seesaw_auto_with(&SweepRunner::from_env(), &cluster, &m, &reqs).unwrap();
        assert_eq!(rep.stats.requests, 24);
    }
}
