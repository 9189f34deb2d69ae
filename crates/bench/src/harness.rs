//! Sweep harness: the tuned-vLLM baseline and the auto-probed Seesaw
//! run used by the end-to-end figures.
//!
//! Every sweep takes an explicit [`SweepRunner`]; binaries build one
//! with `SweepRunner::from_env`.
//! Parallel and serial runners produce identical reports in identical
//! order — candidates are independent simulations and results are
//! collected by candidate index.

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

/// Run every feasible static configuration × baseline policy and
/// return all reports (used by figures that show the whole sweep).
/// Runs on `runner`. Candidate engine runs are
/// independent simulations, so they execute concurrently; report
/// order matches the serial enumeration order exactly.
pub fn vllm_sweep_with(
    runner: &SweepRunner,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    reqs: &[Request],
) -> Vec<EngineReport> {
    // One Arc'd copy of the specs shared by every candidate engine
    // (and every run's roofline + simulator), instead of a deep clone
    // per candidate. Candidates are held behind the `OnlineEngine`
    // trait — the same interface fleet replicas use — so the sweep
    // body is backend-agnostic.
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
    runner.map(&engines, |engine| engine.run(reqs))
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
/// tuning the chunk size).
pub fn best_vllm_with(
    runner: &SweepRunner,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    reqs: &[Request],
) -> EngineReport {
    vllm_sweep_with(runner, cluster, model, reqs)
        .into_iter()
        .max_by(|a, b| {
            a.throughput_rps()
                .partial_cmp(&b.throughput_rps())
                .expect("finite throughput")
        })
        .expect("at least one feasible configuration")
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
    use seesaw_model::presets;
    use seesaw_workload::WorkloadGen;

    #[test]
    fn best_vllm_is_max_of_sweep() {
        let cluster = ClusterSpec::a10x4();
        let m = presets::llama2_13b();
        let reqs = WorkloadGen::constant(512, 32).generate(16);
        let sweep = vllm_sweep_with(&SweepRunner::from_env(), &cluster, &m, &reqs);
        let best = best_vllm_with(&SweepRunner::from_env(), &cluster, &m, &reqs);
        assert!(sweep
            .iter()
            .all(|r| r.throughput_rps() <= best.throughput_rps() + 1e-12));
        assert!(sweep.len() >= 3, "sweep should cover several configs");
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
