//! Figure 12: speedup breakdown — CodeLLaMA-34B on the
//! arxiv-summarization workload, four A10 GPUs. Per-phase wall time of
//! TP4, PP4, Seesaw (P4→T4), and the best static config with chunked
//! prefill (TP2PP2).

use crate::harness::seesaw_with;
use crate::table::{f2, Table};
use crate::SEED;
use seesaw_engine::seesaw::SeesawSpec;
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{EngineReport, SchedulingPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{Request, WorkloadGen};

fn run_vllm(
    cluster: &ClusterSpec,
    cfg: ParallelConfig,
    policy: SchedulingPolicy,
    reqs: &[Request],
) -> EngineReport {
    VllmEngine::new(cluster.clone(), presets::codellama_34b(), cfg, policy)
        .expect("feasible")
        .run(reqs)
}

/// Regenerate Figure 12. `n_requests` scales the workload (the paper
/// uses the full 500-request arxiv sample).
/// Runs on `runner`: the four system rows evaluate
/// concurrently. Each row pairs its label with its own job closure,
/// so a label can never silently run another system's configuration.
pub fn run_with(runner: &seesaw_engine::SweepRunner, n_requests: usize) -> String {
    let cluster = ClusterSpec::a10x4();
    let reqs = WorkloadGen::arxiv_summarization(SEED).generate(n_requests);
    type Job<'a> = (&'static str, Box<dyn Fn() -> EngineReport + Send + Sync + 'a>);
    let systems: Vec<Job> = vec![
        (
            "tp4",
            Box::new(|| {
                run_vllm(
                    &cluster,
                    ParallelConfig::tp(4),
                    SchedulingPolicy::PrefillPrioritized,
                    &reqs,
                )
            }),
        ),
        (
            "pp4",
            Box::new(|| {
                run_vllm(
                    &cluster,
                    ParallelConfig::pp(4),
                    SchedulingPolicy::PrefillPrioritized,
                    &reqs,
                )
            }),
        ),
        (
            "p4->t4 (seesaw)",
            Box::new(|| {
                seesaw_with(
                    &cluster,
                    &presets::codellama_34b(),
                    SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
                    &reqs,
                )
            }),
        ),
        (
            "tp2pp2+chunked",
            Box::new(|| {
                run_vllm(
                    &cluster,
                    ParallelConfig::new(1, 2, 2),
                    SchedulingPolicy::ChunkedPrefill { chunk_tokens: 2048 },
                    &reqs,
                )
            }),
        ),
    ];
    let reports = runner.map(&systems, |(_, job)| job());
    let rows: Vec<(String, EngineReport)> = systems
        .iter()
        .map(|(name, _)| name.to_string())
        .zip(reports)
        .collect();
    let mut out = super::banner(
        "Figure 12",
        "speedup breakdown, 34B arxiv on 4xA10 (end-to-end seconds)",
    );
    let mut t = Table::new(&["system", "prefill", "mix", "decode", "other", "total"]);
    for (name, r) in &rows {
        t.row(&[
            name.clone(),
            f2(r.prefill_wall_s),
            f2(r.mixed_wall_s),
            f2(r.decode_wall_s),
            f2(r.reshard_wall_s + r.other_wall_s()),
            f2(r.stats.duration_s),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's claims: TP4 decodes fast but prefills slowly; PP4
    /// the reverse; Seesaw approaches the best of both.
    #[test]
    fn seesaw_merges_the_best_phases() {
        let cluster = ClusterSpec::a10x4();
        let reqs = WorkloadGen::arxiv_summarization(SEED).generate(80);
        let tp4 = run_vllm(
            &cluster,
            ParallelConfig::tp(4),
            SchedulingPolicy::PrefillPrioritized,
            &reqs,
        );
        let pp4 = run_vllm(
            &cluster,
            ParallelConfig::pp(4),
            SchedulingPolicy::PrefillPrioritized,
            &reqs,
        );
        let ss = seesaw_with(
            &cluster,
            &presets::codellama_34b(),
            SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
            &reqs,
        );
        // Stage preferences.
        assert!(pp4.prefill_wall_s < tp4.prefill_wall_s, "PP4 prefills faster");
        assert!(tp4.decode_wall_s < pp4.decode_wall_s, "TP4 decodes faster");
        // Seesaw ends faster than both static choices.
        assert!(ss.stats.duration_s < tp4.stats.duration_s);
        assert!(ss.stats.duration_s < pp4.stats.duration_s);
    }

    #[test]
    fn renders_four_rows() {
        let s = run_with(&seesaw_engine::SweepRunner::from_env(), 40);
        for name in ["tp4", "pp4", "p4->t4 (seesaw)", "tp2pp2+chunked"] {
            assert!(s.contains(name), "missing {name}");
        }
    }
}
