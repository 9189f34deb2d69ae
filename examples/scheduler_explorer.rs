//! Scheduler explorer: compare continuous-batching scheduling
//! policies on one static configuration, then show what Seesaw's
//! transition-minimizing schedule adds on top (paper Figure 2's
//! three-way comparison, executed end-to-end).
//!
//! ```sh
//! cargo run --release --example scheduler_explorer
//! ```

use seesaw::engine::SweepRunner;
use seesaw::prelude::*;

fn main() {
    let cluster = ClusterSpec::a10x8();
    let model = ModelConfig::llama2_70b();
    let mut gen = WorkloadGen::sharegpt(11);
    let requests = gen.generate(400);
    let cfg: ParallelConfig = "T4P2".parse().expect("valid label");

    println!("70B on 8xA10, 400 sharegpt requests, static config {cfg}\n");
    println!(
        "{:<28} {:>9} {:>10} {:>9} {:>9}",
        "policy", "req/s", "prefill s", "mixed s", "decode s"
    );
    let policies = [
        SchedulingPolicy::PrefillPrioritized,
        SchedulingPolicy::DecodePrioritized,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 2048 },
    ];
    for p in policies {
        let r = VllmEngine::new(cluster.clone(), model.clone(), cfg, p)
            .expect("feasible")
            .run(&requests);
        println!(
            "{:<28} {:>9.3} {:>10.1} {:>9.1} {:>9.1}",
            p.to_string(),
            r.throughput_rps(),
            r.prefill_wall_s,
            r.mixed_wall_s,
            r.decode_wall_s
        );
    }

    // Seesaw: transition-minimizing scheduling with re-sharding.
    let runner = SweepRunner::from_env();
    let spec = SeesawSpec::auto_probed_with(&runner, &cluster, &model, &requests[..32])
        .expect("feasible");
    let r = SeesawEngine::new(cluster, model, spec).expect("validated").run(&requests);
    println!(
        "{:<28} {:>9.3} {:>10.1} {:>9.1} {:>9.1}   ({} transitions, {:.2}s re-sharding)",
        format!("seesaw {}", r.label),
        r.throughput_rps(),
        r.prefill_wall_s,
        0.0,
        r.decode_wall_s,
        r.transitions,
        r.reshard_wall_s
    );
}
