//! Capacity planner: a deployment-planning tool built on the public
//! API. Given a model, a GPU type, and workload statistics, it
//! enumerates every feasible parallelization, shows its memory plan
//! and analytic throughput, flags the infeasible ones, and recommends
//! a Seesaw `(c_p, c_d)` pair.
//!
//! ```sh
//! cargo run --release --example capacity_planner -- 70b a10 8
//! ```

use seesaw::model::presets;
use seesaw::parallel::{enumerate_configs, MemoryPlan};
use seesaw::prelude::*;
use seesaw::roofline::ThroughputModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model = presets::by_name(args.get(1).map(String::as_str).unwrap_or("70b"))
        .expect("model: one of 13b/15b/34b/70b");
    let gpu = GpuSpec::by_name(args.get(2).map(String::as_str).unwrap_or("a10"))
        .expect("gpu: one of a10/l4/a100/a100-pcie");
    let n: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(8);
    let (avg_in, avg_out) = (3000usize, 250usize);

    let cluster = ClusterSpec::new(gpu, n);
    println!(
        "planning {} on {}x {} ({} weights, {} per-GPU memory)\n",
        model.name,
        cluster.num_gpus,
        cluster.gpu.name,
        seesaw::hw::ByteSize(model.weight_bytes_total()),
        cluster.gpu.mem()
    );

    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    let avg_ctx = ThroughputModel::decode_context(avg_in, avg_out);
    println!(
        "{:<10} {:>14} {:>14} {:>10} {:>12} {:>12}",
        "config", "weights/GPU", "KV tokens", "max batch", "prefill t/s", "decode st/s"
    );
    for cfg in enumerate_configs(&model, cluster.num_gpus) {
        match MemoryPlan::new(&model, &cluster, cfg) {
            Err(e) => println!("{:<10} INFEASIBLE: {e}", cfg.to_string()),
            Ok(plan) => {
                let prefill = tm.prefill_tokens_per_sec(cfg, avg_in);
                let decode = tm
                    .decode_seq_steps_per_sec_max_batch(cfg, avg_ctx)
                    .unwrap_or(0.0);
                println!(
                    "{:<10} {:>14} {:>14} {:>10} {:>12.0} {:>12.0}",
                    cfg.to_string(),
                    seesaw::hw::ByteSize(plan.weight_bytes_per_gpu).to_string(),
                    plan.kv_tokens_total,
                    plan.max_batch(avg_in + avg_out),
                    prefill,
                    decode
                );
            }
        }
    }

    match SeesawSpec::auto_for(&cluster, &model, avg_in, avg_out) {
        Ok(spec) => println!(
            "\nrecommended Seesaw deployment: {} (prefill {} -> decode {})",
            spec.label(),
            spec.prefill,
            spec.decode
        ),
        Err(e) => println!("\nno feasible Seesaw deployment: {e}"),
    }
}
