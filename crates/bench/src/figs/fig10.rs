//! Figure 10: end-to-end throughput on PCIe systems (A10 and L4
//! nodes), three models × two datasets, tuned-vLLM baseline vs Seesaw.
//!
//! The paper's protocol: sweep every single-parallelism configuration
//! for vLLM (chunk size tuned), report the best; run Seesaw with its
//! chosen `(c_p, c_d)`; plot throughput normalized to the vLLM bar.
//! [`best_vllm_with`] returns exactly the best report of the whole
//! sweep; it only skips building the reports of candidates that
//! provably cannot win (see [`crate::harness`]).

use crate::harness::{best_vllm_with, seesaw_auto_with};
use crate::table::{f2, f3, Table};
use crate::{ARXIV_REQUESTS, SEED, SHAREGPT_REQUESTS};
use seesaw_engine::SweepRunner;
use seesaw_hw::ClusterSpec;
use seesaw_model::{presets, ModelConfig};
use seesaw_workload::{metrics::geo_mean, Request, WorkloadGen};

/// The per-GPU-type experiment grid: (model, #GPUs).
fn grid() -> Vec<(ModelConfig, usize)> {
    vec![
        (presets::llama3_15b(), 4),
        (presets::codellama_34b(), 8),
        (presets::llama2_70b(), 8),
    ]
}

fn dataset(name: &str, n_div: usize) -> (String, Vec<Request>) {
    match name {
        "arxiv" => (
            "arxiv".into(),
            WorkloadGen::arxiv_summarization(SEED).generate(ARXIV_REQUESTS / n_div),
        ),
        _ => (
            "sharegpt".into(),
            WorkloadGen::sharegpt(SEED).generate(SHAREGPT_REQUESTS / n_div),
        ),
    }
}

/// Regenerate one panel of Figure 10 for `gpu` ∈ {"a10", "l4"}
/// (panics on any other name). `subsample` divides the request counts
/// (1 = the paper's counts). Runs on `runner`: the six (model ×
/// dataset) grid cells evaluate concurrently; rows render in grid
/// order.
pub fn run_with(runner: &SweepRunner, gpu: &str, subsample: usize) -> String {
    let mut out = super::banner(
        "Figure 10",
        &format!("end-to-end throughput on {} (PCIe)", gpu.to_uppercase()),
    );
    let mut t = Table::new(&[
        "model",
        "dataset",
        "vllm(best)",
        "vllm rps",
        "seesaw",
        "seesaw rps",
        "speedup",
    ]);
    let mut cells: Vec<(ModelConfig, ClusterSpec, &str)> = Vec::new();
    for (model, n) in grid() {
        let cluster = match (gpu, n) {
            ("a10", 4) => ClusterSpec::a10x4(),
            ("a10", _) => ClusterSpec::a10x8(),
            ("l4", 4) => ClusterSpec::l4x4(),
            ("l4", _) => ClusterSpec::l4x8(),
            _ => panic!("Figure 10 has a10 and l4 panels, not '{gpu}'"),
        };
        for ds in ["arxiv", "sharegpt"] {
            cells.push((model.clone(), cluster.clone(), ds));
        }
    }
    let results = runner.map(&cells, |(model, cluster, ds)| {
        let (ds_name, reqs) = dataset(ds, subsample.max(1));
        let base = best_vllm_with(runner, cluster, model, &reqs);
        let ours = seesaw_auto_with(runner, cluster, model, &reqs).expect("feasible Seesaw pair");
        (ds_name, base, ours)
    });
    let mut speedups = Vec::new();
    for ((model, _, _), (ds_name, base, ours)) in cells.iter().zip(results) {
        let speedup = ours.throughput_rps() / base.throughput_rps();
        speedups.push(speedup);
        t.row(&[
            model.name.clone(),
            ds_name,
            base.label.clone(),
            f3(base.throughput_rps()),
            ours.label.clone(),
            f3(ours.throughput_rps()),
            f2(speedup),
        ]);
    }
    out.push_str(&t.render());
    // A degenerate cell (zero/non-finite speedup) downgrades the
    // geo-mean to "n/a" instead of aborting the whole figure sweep.
    let gm = match geo_mean(&speedups) {
        Ok(g) => format!("{g:.2}x"),
        Err(e) => format!("n/a ({e})"),
    };
    out.push_str(&format!(
        "\ngeo-mean speedup on {}: {gm}   max: {:.2}x\n",
        gpu.to_uppercase(),
        speedups.iter().cloned().fold(0.0_f64, f64::max),
    ));
    out
}

#[cfg(test)]
mod tests {
    /// Subsampled smoke run of the 15B row only (full panels run in
    /// the binary); asserts Seesaw is competitive.
    #[test]
    fn fifteen_b_row_shows_speedup() {
        use super::*;
        use crate::harness::{best_vllm_with, seesaw_auto_with};
        let cluster = ClusterSpec::a10x4();
        let model = presets::llama3_15b();
        let reqs = WorkloadGen::arxiv_summarization(SEED).generate(60);
        let base = best_vllm_with(&SweepRunner::from_env(), &cluster, &model, &reqs);
        let ours = seesaw_auto_with(&SweepRunner::from_env(), &cluster, &model, &reqs).unwrap();
        assert!(
            ours.throughput_rps() > base.throughput_rps(),
            "seesaw {} vs vllm {} ({})",
            ours.throughput_rps(),
            base.throughput_rps(),
            base.label
        );
    }
}
