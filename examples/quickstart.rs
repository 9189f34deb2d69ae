//! Quickstart: run Seesaw on a simulated 8x A10 node and compare it
//! with the best static-parallelism baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seesaw::engine::SweepRunner;
use seesaw::prelude::*;

fn main() {
    // 1. Describe the deployment: hardware, model, workload.
    let cluster = ClusterSpec::a10x8();
    let model = ModelConfig::codellama_34b();
    let mut gen = WorkloadGen::arxiv_summarization(42);
    let requests = gen.generate(200);

    // 2. Tuned static baseline (vLLM-like): sweep configurations and
    //    keep the best.
    let (best_cfg, _) = seesaw::engine::autotune::best_static_config(&cluster, &model, 3000, 200)
        .expect("a feasible static configuration exists");
    let baseline = VllmEngine::new(
        cluster.clone(),
        model.clone(),
        best_cfg,
        SchedulingPolicy::PrefillPrioritized,
    )
    .expect("validated config")
    .run(&requests);

    // 3. Seesaw: pick (c_p, c_d) by probing, then run with dynamic
    //    model re-sharding + tiered KV buffering.
    let runner = SweepRunner::from_env();
    let spec = SeesawSpec::auto_probed_with(&runner, &cluster, &model, &requests[..32])
        .expect("a feasible Seesaw pair exists");
    let seesaw = SeesawEngine::new(cluster, model, spec)
        .expect("validated spec")
        .run(&requests);

    // 4. Compare.
    println!("requests: {}", requests.len());
    println!(
        "vLLM-like baseline [{}]: {:.3} req/s  ({:.1}s total)",
        baseline.label,
        baseline.throughput_rps(),
        baseline.stats.duration_s
    );
    println!(
        "Seesaw            [{}]: {:.3} req/s  ({:.1}s total, {} re-shard transitions, {:.2}s re-sharding)",
        seesaw.label,
        seesaw.throughput_rps(),
        seesaw.stats.duration_s,
        seesaw.transitions,
        seesaw.reshard_wall_s
    );
    println!(
        "speedup: {:.2}x",
        seesaw.throughput_rps() / baseline.throughput_rps()
    );
}
