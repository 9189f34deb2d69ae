//! Criterion micro-benchmarks of the reproduction's hot paths: the
//! eager task scheduler, the fused decode burst, the paged KV
//! allocator, the re-sharding planner, the roofline evaluation, and
//! end-to-end engine runs at small scale.
//!
//! These guard the *simulator's* performance (a full Figure 10 panel
//! executes hundreds of engine runs), not the modeled GPU times.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_kv::PagedKvCache;
use seesaw_model::presets;
use seesaw_parallel::{ParallelConfig, ReshardPlan};
use seesaw_roofline::{BatchShape, Roofline, Stage};
use seesaw_sim::{Simulator, TaskKind};
use seesaw_workload::WorkloadGen;
use std::hint::black_box;

fn bench_sim_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_executor");
    const TASKS: usize = 10_000;
    g.throughput(Throughput::Elements(TASKS as u64));
    let drive = |sim: &mut Simulator| {
        let mut prev = None;
        for i in 0..TASKS {
            let r = sim.pool().id(i % 8);
            let dep = prev.filter(|_| i % 3 == 0);
            prev = Some(sim.submit_on(r, 0.001, TaskKind::Compute, dep));
        }
        sim.run_until_idle()
    };
    g.bench_function("fifo_chain_10k_tasks", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            (0..8).for_each(|_| {
                sim.add_resource();
            });
            black_box(drive(&mut sim))
        })
    });
    g.finish();
}

/// One decode step of an engine loop (a fused burst, the wait for its
/// end, the advance) on one replica of 160 running sequences, per
/// layout. The throughput is in stage-iterations, one per (round, slot,
/// stage), so `/elem` is the cost of serving one pass through one
/// stage.
fn bench_decode_burst(c: &mut Criterion) {
    use seesaw_engine::cluster_sim::ClusterSim;
    use seesaw_engine::driver::{submit_decode_burst, Replica, RunSeq};
    const SEQS: usize = 160;
    const ROUNDS: usize = 5;
    let cluster = ClusterSpec::a10x8();
    let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
    let mut g = c.benchmark_group("decode_burst");
    for (name, cfg) in [
        ("p8", ParallelConfig::pp(8)),
        ("t2p4", ParallelConfig::new(1, 2, 4)),
        ("t2p2", ParallelConfig::new(1, 2, 2)),
        ("t8", ParallelConfig::tp(8)),
    ] {
        let mut cs = ClusterSim::new(cluster.clone());
        let mut rep = Replica::new(0, 1 << 30, cfg.pp);
        for id in 0..SEQS as u64 {
            rep.push_running(RunSeq {
                id,
                ctx: 256 + 8 * id as usize,
                remaining: usize::MAX / 2,
            });
        }
        let stage_iters = ROUNDS * cfg.pp.min(SEQS) * cfg.pp;
        g.throughput(Throughput::Elements(stage_iters as u64));
        g.bench_function(&format!("{name}_{SEQS}seqs_{ROUNDS}rounds"), |b| {
            b.iter(|| {
                let end = submit_decode_burst(&mut cs, &rl, cfg, &mut rep, ROUNDS)
                    .expect("replica is running");
                cs.sim.run_until(end);
                black_box(rep.advance_decode(ROUNDS).len())
            })
        });
    }
    g.finish();
}

fn bench_paged_kv(c: &mut Criterion) {
    let mut g = c.benchmark_group("paged_kv");
    // Engines reserve a sequence's final context up front (vLLM at
    // admission, Seesaw at swap-in), so the cycle is allocate + free.
    g.bench_function("alloc_free_cycle", |b| {
        b.iter_batched(
            || PagedKvCache::new(1 << 20, 16),
            |mut kv| {
                for id in 0..256u64 {
                    kv.allocate(id, 512 + 32).unwrap();
                }
                for id in 0..256u64 {
                    black_box(kv.free(id).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_reshard_planner(c: &mut Criterion) {
    let m = presets::llama2_70b();
    c.bench_function("reshard_plan_p8_to_t4p2_70b", |b| {
        b.iter(|| {
            black_box(ReshardPlan::plan(
                &m,
                ParallelConfig::pp(8),
                ParallelConfig::new(1, 4, 2),
            ))
        })
    });
}

fn bench_roofline(c: &mut Criterion) {
    let rl = Roofline::new(ClusterSpec::a10x8(), presets::codellama_34b());
    let shape = BatchShape::decode_uniform(128, 2048);
    c.bench_function("roofline_layer_cost_decode", |b| {
        b.iter(|| black_box(rl.layer_cost(Stage::Decode, &shape, 4)))
    });
}

fn bench_autotune_probe(c: &mut Criterion) {
    use seesaw_engine::autotune;
    use seesaw_engine::SweepRunner;
    use seesaw_workload::Request;
    let cluster = ClusterSpec::a10x4();
    let model = presets::llama2_13b();
    let probe: Vec<Request> = (0..8).map(|i| Request::new(i, 512, 32)).collect();
    let mut g = c.benchmark_group("autotune");
    g.sample_size(10);
    g.bench_function("best_seesaw_pair_probed_13b_a10x4", |b| {
        b.iter(|| {
            black_box(
                autotune::best_seesaw_pair_probed_with(
                    &SweepRunner::serial(),
                    &cluster,
                    &model,
                    &probe,
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

fn bench_engines(c: &mut Criterion) {
    let cluster = ClusterSpec::a10x4();
    let model = presets::llama2_13b();
    let reqs = WorkloadGen::constant(1024, 64).generate(32);
    let mut g = c.benchmark_group("engine_e2e_32reqs");
    g.sample_size(20);
    g.bench_function("vllm_t2p2", |b| {
        let eng = VllmEngine::new(
            cluster.clone(),
            model.clone(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        b.iter(|| black_box(eng.run(&reqs)))
    });
    g.bench_function("seesaw_p4_t4", |b| {
        let eng = SeesawEngine::new(
            cluster.clone(),
            model.clone(),
            SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
        )
        .unwrap();
        b.iter(|| black_box(eng.run(&reqs)))
    });
    g.finish();
}

/// The `sims_per_sec` unit of work from `perf_report` — the shared
/// [`seesaw_bench::simsbench::SimsBench`] scenario: construct an
/// engine from shared `Arc` specs and run one candidate evaluation.
fn bench_single_candidate_eval(c: &mut Criterion) {
    use seesaw_bench::simsbench::SimsBench;
    let bench = SimsBench::new();
    let mut g = c.benchmark_group("single_candidate_eval");
    g.sample_size(30);
    g.bench_function("seesaw_p4_t4_construct_and_run", |b| {
        b.iter(|| black_box(bench.run_seesaw_once()))
    });
    g.bench_function("vllm_t2p2_construct_and_run", |b| {
        b.iter(|| black_box(bench.run_vllm_once()))
    });
    g.bench_function("serving_point_online_run", |b| {
        b.iter(|| black_box(bench.run_serving_once()))
    });
    g.bench_function("fleet_cell_4replica_jsq", |b| {
        b.iter(|| black_box(bench.run_fleet_once()))
    });
    g.bench_function("fleet_cell_4replica_jsq_live", |b| {
        b.iter(|| black_box(bench.run_fleet_live_once()))
    });
    g.bench_function("autoscale_cell_diurnal_reactive", |b| {
        b.iter(|| black_box(bench.run_autoscale_once()))
    });
    g.bench_function("chaos_cell_seeded_kills_replace", |b| {
        b.iter(|| black_box(bench.run_chaos_once()))
    });
    g.finish();
}

fn bench_workload_gen(c: &mut Criterion) {
    c.bench_function("workload_gen_sharegpt_2000", |b| {
        b.iter(|| black_box(WorkloadGen::sharegpt(1).generate(2000)))
    });
}

criterion_group!(
    benches,
    bench_sim_executor,
    bench_decode_burst,
    bench_paged_kv,
    bench_reshard_planner,
    bench_roofline,
    bench_autotune_probe,
    bench_engines,
    bench_single_candidate_eval,
    bench_workload_gen
);
criterion_main!(benches);
