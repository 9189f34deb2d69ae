//! Figure 14: throughput sensitivity to interconnect bandwidth —
//! CodeLLaMA-34B, arxiv workload, eight A10s, collective bandwidth
//! scaled from 0.1× to 50× of PCIe.

use crate::harness::seesaw_with;
use crate::table::{f3, Table};
use crate::SEED;
use seesaw_engine::seesaw::SeesawSpec;
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{Request, WorkloadGen};

/// Bandwidth scales swept (× PCIe all-reduce bandwidth).
pub fn scales() -> Vec<f64> {
    vec![0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
}

/// The static configurations in the paper's legend.
pub fn static_configs() -> Vec<ParallelConfig> {
    vec![
        ParallelConfig::new(2, 1, 4),
        ParallelConfig::new(2, 2, 2),
        ParallelConfig::new(2, 4, 1),
        ParallelConfig::new(1, 1, 8),
        ParallelConfig::new(1, 2, 4),
        ParallelConfig::new(1, 4, 2),
        ParallelConfig::new(1, 8, 1),
    ]
}

/// Throughputs at one bandwidth scale: statics in legend order, then
/// Seesaw (`D2P4 -> D2T4`, the paper's configuration).
/// Runs on `runner` (governs the adaptive-seesaw probe's parallelism).
pub fn point_with(runner: &seesaw_engine::SweepRunner, scale: f64, reqs: &[Request]) -> Vec<f64> {
    let cluster = ClusterSpec::a10x8().with_allreduce_scale(scale);
    let model = presets::codellama_34b();
    let mut out = Vec::new();
    for cfg in static_configs() {
        let rps = VllmEngine::new(
            cluster.clone(),
            model.clone(),
            cfg,
            SchedulingPolicy::PrefillPrioritized,
        )
        .map(|e| e.run(reqs).throughput_rps())
        .unwrap_or(0.0);
        out.push(rps);
    }
    let ss = seesaw_with(
        &cluster,
        &model,
        SeesawSpec::new(ParallelConfig::new(2, 1, 4), ParallelConfig::new(2, 4, 1)),
        reqs,
    )
    .throughput_rps();
    out.push(ss);
    // Seesaw's real deployment re-tunes (c_p, c_d) for the fabric at
    // hand; the adaptive column shows that.
    let adaptive =
        crate::harness::seesaw_auto_with(runner, &cluster, &model, reqs)
            .expect("feasible Seesaw pair")
            .throughput_rps();
    out.push(adaptive);
    out
}

/// Regenerate Figure 14 with `n_requests` arxiv requests per point.
/// Runs on `runner`: the swept bandwidth scales evaluate concurrently.
pub fn run_with(runner: &seesaw_engine::SweepRunner, n_requests: usize) -> String {
    let reqs = WorkloadGen::arxiv_summarization(SEED).generate(n_requests);
    let mut out = super::banner(
        "Figure 14",
        "throughput vs interconnect bandwidth, 34B arxiv on 8xA10 (normalized)",
    );
    let mut headers: Vec<String> = vec!["bw scale".into()];
    headers.extend(static_configs().iter().map(|c| format!("d{}t{}p{}", c.dp, c.tp, c.pp)));
    headers.push("d2p4->d2t4 (seesaw)".into());
    headers.push("seesaw (adaptive)".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);

    let scales = scales();
    let rows = runner.map(&scales, |&s| point_with(runner, s, &reqs));
    let mut all_rows = Vec::new();
    let mut peak = 0.0_f64;
    for (&s, row) in scales.iter().zip(rows) {
        peak = row.iter().cloned().fold(peak, f64::max);
        all_rows.push((s, row));
    }
    for (s, row) in all_rows {
        let mut cells = vec![format!("{s}")];
        cells.extend(row.iter().map(|&v| f3(v / peak)));
        t.row(&cells);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's claims: at low bandwidth PP-heavy configs win, at
    /// high bandwidth TP-heavy configs win, and Seesaw is competitive
    /// across the whole range.
    #[test]
    fn bandwidth_crossover_and_seesaw_robustness() {
        let reqs = WorkloadGen::arxiv_summarization(SEED).generate(40);
        let slow = point_with(&seesaw_engine::SweepRunner::from_env(), 0.1, &reqs);
        let fast = point_with(&seesaw_engine::SweepRunner::from_env(), 50.0, &reqs);
        // Legend order: [d2t1p4, d2t2p2, d2t4p1, p8, t2p4, t4p2, t8, seesaw]
        let (p8, t8) = (3, 6);
        assert!(slow[p8] > slow[t8], "slow fabric favours PP8 over TP8");
        assert!(fast[t8] > fast[p8], "fast fabric favours TP8 over PP8");
        // Adaptive Seesaw within 25% of the best static at both
        // extremes (the fixed d2p4->d2t4 pair is only expected to win
        // near its tuning point, 0.1-1x).
        let best_slow = slow[..7].iter().cloned().fold(0.0_f64, f64::max);
        let best_fast = fast[..7].iter().cloned().fold(0.0_f64, f64::max);
        assert!(slow[8] > 0.75 * best_slow, "{} vs {}", slow[8], best_slow);
        assert!(fast[8] > 0.75 * best_fast, "{} vs {}", fast[8], best_fast);
    }
}
