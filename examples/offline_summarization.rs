//! Offline batch summarization — the throughput-oriented workload the
//! paper's introduction motivates (information extraction, database
//! querying, knowledge-graph processing all share this shape: long
//! inputs, short outputs, no latency constraint).
//!
//! This example plans and executes a nightly summarization job of
//! 1000 documents on an 8x L4 node, reporting per-phase time, data
//! moved through the tiered KV buffer, and the GPU-hours saved versus
//! the tuned static baseline.
//!
//! ```sh
//! cargo run --release --example offline_summarization
//! ```

use seesaw::engine::SweepRunner;
use seesaw::prelude::*;
use seesaw::workload::LengthStats;

fn main() {
    let cluster = ClusterSpec::l4x8();
    let model = ModelConfig::codellama_34b();

    // A nightly corpus: ~3k-token documents, ~200-token summaries.
    let mut gen = WorkloadGen::arxiv_summarization(7);
    let docs = gen.generate(1000);
    let stats = LengthStats::of(&docs);
    println!(
        "corpus: {} documents, mean {:.0} input / {:.0} output tokens",
        stats.count, stats.mean_input, stats.mean_output
    );

    // Baseline: tuned static configuration.
    let (cfg, _) = seesaw::engine::autotune::best_static_config(
        &cluster,
        &model,
        stats.mean_input as usize,
        stats.mean_output as usize,
    )
    .expect("feasible static config");
    let base = VllmEngine::new(
        cluster.clone(),
        model.clone(),
        cfg,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 2048 },
    )
    .expect("validated")
    .run(&docs);

    // Seesaw.
    let spec = SeesawSpec::auto_probed_with(&SweepRunner::from_env(), &cluster, &model, &docs[..32])
        .expect("feasible pair");
    let ours = SeesawEngine::new(cluster.clone(), model.clone(), spec)
        .expect("validated")
        .run(&docs);

    println!("\n--- job report ---");
    for r in [&base, &ours] {
        println!(
            "{:12} total {:7.1}s | prefill {:7.1}s  mixed {:7.1}s  decode {:7.1}s  reshard {:5.1}s",
            r.label, r.stats.duration_s, r.prefill_wall_s, r.mixed_wall_s, r.decode_wall_s,
            r.reshard_wall_s,
        );
    }
    println!(
        "\ntiered buffer traffic: {:.1} GiB out, {:.1} GiB in ({} transitions)",
        ours.swap_out_bytes as f64 / (1u64 << 30) as f64,
        ours.swap_in_bytes as f64 / (1u64 << 30) as f64,
        ours.transitions
    );

    let gpu_hours_base = base.stats.duration_s * cluster.num_gpus as f64 / 3600.0;
    let gpu_hours_ours = ours.stats.duration_s * cluster.num_gpus as f64 / 3600.0;
    println!(
        "GPU-hours: baseline {gpu_hours_base:.2}, seesaw {gpu_hours_ours:.2} ({:.0}% saved)",
        100.0 * (1.0 - gpu_hours_ours / gpu_hours_base)
    );
    println!(
        "speedup: {:.2}x",
        ours.throughput_rps() / base.throughput_rps()
    );
}
