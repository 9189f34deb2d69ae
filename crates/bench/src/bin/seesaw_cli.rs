//! `seesaw-cli` — a small deployment tool over the public API.
//!
//! ```text
//! seesaw_cli plan    <model> <gpu> <n>                 # feasibility table
//! seesaw_cli compare <model> <gpu> <n> <in> <out> [k]  # vLLM sweep vs Seesaw on k requests
//! seesaw_cli tune    <model> <gpu> <n> <in> <out>      # recommend (c_p, c_d)
//! ```
//!
//! models: 13b 15b 34b 70b · gpus: a10 l4 a100 a100-pcie

use seesaw_bench::cli::{at_most, fail, positive, MAX_REQUESTS};
use seesaw_bench::harness;
use seesaw_engine::seesaw::SeesawSpec;
use seesaw_engine::SweepRunner;
use seesaw_hw::{ClusterSpec, GpuSpec};
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::{enumerate_configs, MemoryPlan};
use seesaw_workload::{Request, WorkloadGen};

fn usage() -> ! {
    fail(
        "usage: seesaw_cli <plan|compare|tune> <model> <gpu> <n_gpus> \
         [avg_in avg_out [n_requests]]",
    )
}

fn parse_target(args: &[String]) -> (ModelConfig, ClusterSpec) {
    let model = presets::by_name(&args[0]).unwrap_or_else(|| {
        fail(format_args!("unknown model '{}'; expected 13b/15b/34b/70b", args[0]))
    });
    let gpu = GpuSpec::by_name(&args[1]).unwrap_or_else(|| {
        fail(format_args!("unknown gpu '{}'; expected a10/l4/a100/a100-pcie", args[1]))
    });
    let n = positive(&args[2], "n_gpus");
    (model, ClusterSpec::new(gpu, n))
}

fn cmd_plan(model: &ModelConfig, cluster: &ClusterSpec) {
    println!(
        "{} on {}x {} — weights {:.1} GiB total\n",
        model.name,
        cluster.num_gpus,
        cluster.gpu.name,
        model.weight_bytes_total() as f64 / (1u64 << 30) as f64
    );
    println!("{:<10} {:>15} {:>14} {:>12}", "config", "weights/GPU GiB", "KV tokens", "status");
    for cfg in enumerate_configs(model, cluster.num_gpus) {
        match MemoryPlan::new(model, cluster, cfg) {
            Ok(p) => println!(
                "{:<10} {:>15.2} {:>14} {:>12}",
                cfg.to_string(),
                p.weight_bytes_per_gpu as f64 / (1u64 << 30) as f64,
                p.kv_tokens_total,
                "ok"
            ),
            Err(e) => println!("{:<10} {:>15} {:>14} {:>12}   ({e})", cfg.to_string(), "-", "-", "INFEASIBLE"),
        }
    }
}

fn cmd_compare(model: &ModelConfig, cluster: &ClusterSpec, avg_in: usize, avg_out: usize, n: usize) {
    let reqs = WorkloadGen::constant(avg_in, avg_out).generate(n);
    // Every request of the constant-length workload has reqs[0]'s size.
    harness::check_request_fits(cluster, model, &reqs[0]).unwrap_or_else(|e| fail(e));
    let runner = SweepRunner::from_env();
    let base = harness::best_vllm_with(&runner, cluster, model, &reqs);
    println!(
        "baseline [{}]: {:.3} req/s  (GPU util {:.0}%)",
        base.label,
        base.throughput_rps(),
        100.0 * base.gpu_utilization
    );
    match harness::seesaw_auto_with(&runner, cluster, model, &reqs) {
        Ok(ours) => {
            println!(
                "seesaw   [{}]: {:.3} req/s  (GPU util {:.0}%, {} transitions)",
                ours.label,
                ours.throughput_rps(),
                100.0 * ours.gpu_utilization,
                ours.transitions
            );
            println!("speedup: {:.2}x", ours.throughput_rps() / base.throughput_rps());
        }
        Err(e) => println!("seesaw   [-]: skipped, {e}"),
    }
}

fn cmd_tune(model: &ModelConfig, cluster: &ClusterSpec, avg_in: usize, avg_out: usize) {
    let req = Request::new(0, avg_in, avg_out);
    harness::check_request_fits(cluster, model, &req).unwrap_or_else(|e| fail(e));
    match SeesawSpec::auto_for(cluster, model, avg_in, avg_out) {
        Ok(spec) => println!("recommended: {}", spec.label()),
        Err(e) => fail(format_args!("no feasible deployment: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 4 {
        usage();
    }
    let (model, cluster) = parse_target(&args[1..4]);
    match args[0].as_str() {
        "plan" => cmd_plan(&model, &cluster),
        "compare" | "tune" => {
            if args.len() < 6 {
                usage();
            }
            let avg_in = positive(&args[4], "avg_in");
            let avg_out = positive(&args[5], "avg_out");
            if args[0] == "tune" {
                cmd_tune(&model, &cluster, avg_in, avg_out);
            } else {
                let n = args.get(6).map_or(100, |s| {
                    at_most("n_requests", positive(s, "n_requests"), MAX_REQUESTS)
                });
                cmd_compare(&model, &cluster, avg_in, avg_out, n);
            }
        }
        _ => usage(),
    }
}
