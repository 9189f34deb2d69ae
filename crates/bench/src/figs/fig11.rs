//! Figure 11: throughput on A100 — PCIe vs NVLink interconnects,
//! LLaMA2-70B, both datasets, normalized to vLLM on NVLink.
//!
//! The vLLM rows follow Figure 10's protocol: the best report of the
//! whole configuration × chunk-size sweep, found by the exact search
//! of [`crate::harness`].

use crate::harness::{best_vllm_with, seesaw_auto_with};
use crate::table::{f3, Table};
use crate::{ARXIV_REQUESTS, SEED, SHAREGPT_REQUESTS};
use seesaw_engine::SweepRunner;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_workload::WorkloadGen;

/// Regenerate Figure 11. `subsample` divides request counts.
/// Runs on `runner`: the eight (dataset × system) cells
/// evaluate concurrently; rows render in legend order.
pub fn run_with(runner: &SweepRunner, subsample: usize) -> String {
    let model = presets::llama2_70b();
    let pcie = ClusterSpec::a100x8_pcie();
    let nvl = ClusterSpec::a100x8_nvlink();
    let mut out = super::banner("Figure 11", "throughput comparison on A100 (70B)");
    let mut t = Table::new(&[
        "dataset",
        "system",
        "config",
        "rps",
        "normalized(vllm+nvlink=1)",
    ]);
    // Each system row carries its own cluster + engine choice, so a
    // label can never silently run another system's configuration.
    let systems: [(&str, &ClusterSpec, bool); 4] = [
        ("vllm+pcie", &pcie, false),
        ("seesaw+pcie", &pcie, true),
        ("vllm+nvlink", &nvl, false),
        ("seesaw+nvlink", &nvl, true),
    ];
    let arxiv =
        WorkloadGen::arxiv_summarization(SEED).generate(ARXIV_REQUESTS / subsample.max(1));
    let sharegpt = WorkloadGen::sharegpt(SEED).generate(SHAREGPT_REQUESTS / subsample.max(1));
    let mut cells: Vec<(&str, (&str, &ClusterSpec, bool))> = Vec::new();
    for ds in ["arxiv", "sharegpt"] {
        for sys in systems {
            cells.push((ds, sys));
        }
    }
    let reports = runner.map(&cells, |&(ds, (_, cluster, seesaw))| {
        let reqs = if ds == "arxiv" { &arxiv } else { &sharegpt };
        if seesaw {
            seesaw_auto_with(runner, cluster, &model, reqs).expect("feasible Seesaw pair")
        } else {
            best_vllm_with(runner, cluster, &model, reqs)
        }
    });
    let norm_idx = systems
        .iter()
        .position(|&(name, _, _)| name == "vllm+nvlink")
        .expect("normalizer present");
    for (cell_chunk, report_chunk) in
        cells.chunks(systems.len()).zip(reports.chunks(systems.len()))
    {
        let base = report_chunk[norm_idx].throughput_rps();
        for (&(ds, (sys, _, _)), rep) in cell_chunk.iter().zip(report_chunk) {
            t.row(&[
                ds.to_string(),
                sys.to_string(),
                rep.label.clone(),
                f3(rep.throughput_rps()),
                f3(rep.throughput_rps() / base),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{best_vllm_with, seesaw_auto_with};

    /// The figure's core claims at small scale: NVLink lifts vLLM, and
    /// Seesaw narrows the PCIe/NVLink gap.
    #[test]
    fn seesaw_narrows_the_pcie_gap() {
        let model = presets::llama2_70b();
        let pcie = ClusterSpec::a100x8_pcie();
        let nvl = ClusterSpec::a100x8_nvlink();
        let reqs = WorkloadGen::arxiv_summarization(SEED).generate(80);
        let v_nvl = best_vllm_with(&SweepRunner::from_env(), &nvl, &model, &reqs).throughput_rps();
        let v_pcie = best_vllm_with(&SweepRunner::from_env(), &pcie, &model, &reqs).throughput_rps();
        let s_pcie = seesaw_auto_with(&SweepRunner::from_env(), &pcie, &model, &reqs)
            .unwrap()
            .throughput_rps();
        assert!(v_nvl > v_pcie, "NVLink must beat PCIe for vLLM");
        assert!(
            s_pcie / v_nvl > v_pcie / v_nvl,
            "Seesaw must lift PCIe closer to NVLink: {:.2} vs {:.2}",
            s_pcie / v_nvl,
            v_pcie / v_nvl
        );
    }
}
