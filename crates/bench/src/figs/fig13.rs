//! Figure 13: throughput sensitivity to the output:input (`D:P`)
//! ratio — LLaMA2-70B on eight A10s, fixed 3000-token inputs, swept
//! output lengths; static TP4PP2 / TP2PP4 / PP8 vs Seesaw (P8→T4P2).

use crate::harness::seesaw_with;
use crate::table::{f3, Table};
use seesaw_engine::seesaw::SeesawSpec;
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::WorkloadGen;

/// Fixed input length (§6.5).
pub const INPUT_LEN: usize = 3000;

/// The swept `D:P` ratios.
pub fn ratios() -> Vec<f64> {
    vec![0.00034, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
}

/// Throughput of each system at one ratio, `(tp4pp2, tp2pp4, pp8,
/// seesaw)` in requests/sec.
pub fn point(ratio: f64, n_requests: usize) -> (f64, f64, f64, f64) {
    let cluster = ClusterSpec::a10x8();
    let model = presets::llama2_70b();
    let out_len = ((INPUT_LEN as f64 * ratio).round() as usize).max(1);
    let reqs = WorkloadGen::constant(INPUT_LEN, out_len).generate(n_requests);
    let run = |cfg: ParallelConfig| {
        VllmEngine::new(cluster.clone(), model.clone(), cfg, SchedulingPolicy::PrefillPrioritized)
            .expect("feasible")
            .run(&reqs)
            .throughput_rps()
    };
    let t4p2 = run(ParallelConfig::new(1, 4, 2));
    let t2p4 = run(ParallelConfig::new(1, 2, 4));
    let pp8 = run(ParallelConfig::pp(8));
    let ss = seesaw_with(
        &cluster,
        &model,
        SeesawSpec::new(ParallelConfig::pp(8), ParallelConfig::new(1, 4, 2)),
        &reqs,
    )
    .throughput_rps();
    (t4p2, t2p4, pp8, ss)
}

/// Regenerate Figure 13 with `n_requests` per point.
/// Runs on `runner`: the swept ratio points evaluate concurrently.
pub fn run_with(runner: &seesaw_engine::SweepRunner, n_requests: usize) -> String {
    let mut out = super::banner(
        "Figure 13",
        "throughput vs D:P ratio, 70B on 8xA10 (normalized)",
    );
    let ratios = ratios();
    let points = runner.map(&ratios, |&r| point(r, n_requests));
    let mut rows = Vec::new();
    let mut peak = 0.0_f64;
    for (&r, &p) in ratios.iter().zip(&points) {
        peak = peak.max(p.0).max(p.1).max(p.2).max(p.3);
        rows.push((r, p));
    }
    let mut t = Table::new(&["D:P", "tp4pp2", "tp2pp4", "pp8", "pp8->tp4pp2 (seesaw)"]);
    for (r, (a, b, c, s)) in rows {
        t.row(&[
            format!("{r:.3}"),
            f3(a / peak),
            f3(b / peak),
            f3(c / peak),
            f3(s / peak),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure's crossover claims: PP8 wins at tiny D:P, loses
    /// badly at large D:P; Seesaw is at or near the top throughout.
    #[test]
    fn crossovers_match_paper_shape() {
        let lo = point(0.00034, 24); // prefill-only
        let hi = point(0.3, 24); // decode-heavy
        let (t4p2_lo, _, pp8_lo, ss_lo) = lo;
        let (t4p2_hi, _, pp8_hi, ss_hi) = hi;

        assert!(pp8_lo > t4p2_lo, "prefill-only: PP8 must beat TP4PP2");
        assert!(t4p2_hi > pp8_hi, "decode-heavy: TP4PP2 must beat PP8");
        // Seesaw tracks the winner at both extremes (within 10%).
        assert!(ss_lo > 0.9 * pp8_lo, "seesaw {ss_lo} vs pp8 {pp8_lo}");
        assert!(ss_hi > 0.9 * t4p2_hi, "seesaw {ss_hi} vs t4p2 {t4p2_hi}");
    }
}
