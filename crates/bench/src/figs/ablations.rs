//! Ablation studies for the design decisions called out in DESIGN.md
//! (§4): scheduling policy under re-sharding, CPU buffer capacity,
//! async-overlap on/off, KV layout, and re-sharding transfer volume.
//!
//! Standard setting: CodeLLaMA-34B, arxiv-like workload, eight A10s,
//! Seesaw `P8 -> T4P2` unless stated otherwise.

use crate::harness::seesaw_with;
use crate::table::{f2, f3, Table};
use crate::SEED;
use seesaw_engine::seesaw::SeesawSpec;
use seesaw_engine::SweepRunner;
use seesaw_hw::ClusterSpec;
use seesaw_kv::KvLayout;
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::{ParallelConfig, ReshardPlan, ShardMap};
use seesaw_workload::{Request, WorkloadGen};

fn setting() -> (ClusterSpec, ModelConfig, SeesawSpec) {
    (
        ClusterSpec::a10x8(),
        presets::codellama_34b(),
        SeesawSpec::new(ParallelConfig::pp(8), ParallelConfig::new(1, 4, 2)),
    )
}

fn workload(n: usize) -> Vec<Request> {
    WorkloadGen::arxiv_summarization(SEED).generate(n)
}

/// D1 — transition frequency: shrink the CPU buffer to emulate
/// eager (prefill-prioritizing-like) transition schedules and show
/// throughput + transition counts. The full buffer is
/// transition-minimizing scheduling; a GPU-KV-sized buffer behaves
/// like decode-prioritizing.
/// Runs on `runner` (cases evaluate concurrently).
pub fn abl_sched_with(runner: &SweepRunner, n_requests: usize) -> String {
    let (cluster, model, base) = setting();
    let reqs = workload(n_requests);
    let mut out = super::banner("Ablation D1", "transition-minimizing vs eager transitions");
    let mut t = Table::new(&["buffer (tokens)", "policy analogue", "rps", "transitions", "reshard s"]);
    let gpu_kv = seesaw_parallel::MemoryPlan::new(&model, &cluster, base.decode)
        .expect("feasible")
        .kv_tokens_total;
    let cases = [
        (None, "transition-minimizing (full host buffer)"),
        (Some(4 * gpu_kv), "4x GPU KV"),
        (Some(gpu_kv), "decode-prioritizing-like (1x GPU KV)"),
        (Some(gpu_kv / 4), "eager / prefill-prioritizing-like"),
    ];
    let reports = runner.map(&cases, |&(cap, _)| {
        let mut spec = base.clone();
        spec.buffer_tokens_override = cap;
        seesaw_with(&cluster, &model, spec, &reqs)
    });
    for (&(cap, name), r) in cases.iter().zip(reports) {
        t.row(&[
            cap.map_or("full".into(), |c| format!("{c}")),
            name.to_string(),
            f3(r.throughput_rps()),
            format!("{}", r.transitions),
            f2(r.reshard_wall_s),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// D2 — CPU buffer capacity sweep.
/// Runs on `runner` (capacities sweep concurrently).
pub fn abl_buffer_with(runner: &SweepRunner, n_requests: usize) -> String {
    let (cluster, model, base) = setting();
    let reqs = workload(n_requests);
    let gpu_kv = seesaw_parallel::MemoryPlan::new(&model, &cluster, base.decode)
        .expect("feasible")
        .kv_tokens_total;
    let mut out = super::banner("Ablation D2", "tiered CPU buffer capacity sweep");
    let mut t = Table::new(&["buffer / GPU KV", "rps", "transitions"]);
    let mults = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    let reports = runner.map(&mults, |&mult| {
        let mut spec = base.clone();
        spec.buffer_tokens_override = Some((gpu_kv as f64 * mult) as u64);
        seesaw_with(&cluster, &model, spec, &reqs)
    });
    for (&mult, r) in mults.iter().zip(reports) {
        t.row(&[
            format!("{mult}x"),
            f3(r.throughput_rps()),
            format!("{}", r.transitions),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// D3 — asynchronous pipeline on/off. The off arm serializes only
/// the swap-outs with prefill compute; its swap-ins overlap decode as
/// in the on arm (see `SeesawSpec::overlap`), so the table measures
/// half of the pipeline. Runs on `runner` (both arms run concurrently).
pub fn abl_overlap_with(runner: &SweepRunner, n_requests: usize) -> String {
    let (cluster, model, base) = setting();
    let reqs = workload(n_requests);
    let mut out = super::banner("Ablation D3", "async swap pipeline overlap on/off");
    let mut t = Table::new(&["overlap", "rps", "prefill s", "decode s"]);
    let arms = [true, false];
    let reports = runner.map(&arms, |&overlap| {
        let mut spec = base.clone();
        spec.overlap = overlap;
        seesaw_with(&cluster, &model, spec, &reqs)
    });
    for (&overlap, r) in arms.iter().zip(reports) {
        t.row(&[
            format!("{overlap}"),
            f3(r.throughput_rps()),
            f2(r.prefill_wall_s),
            f2(r.decode_wall_s),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// D4 — KV layout (HND vs NHD) under tensor-parallel sharded swaps.
/// Runs on `runner` (both layouts run concurrently).
pub fn abl_layout_with(runner: &SweepRunner, n_requests: usize) -> String {
    let (cluster, model, base) = setting();
    let reqs = workload(n_requests);
    let mut out = super::banner("Ablation D4", "bandwidth-aware KV layout (HND vs NHD)");
    let mut t = Table::new(&["layout", "rps", "swap bytes (out+in)"]);
    let cases = [("HND (seesaw)", KvLayout::Hnd), ("NHD", KvLayout::Nhd)];
    let reports = runner.map(&cases, |&(_, layout)| {
        let mut spec = base.clone();
        spec.layout = layout;
        seesaw_with(&cluster, &model, spec, &reqs)
    });
    for (&(name, _), r) in cases.iter().zip(reports) {
        t.row(&[
            name.to_string(),
            f3(r.throughput_rps()),
            format!("{:.1} GiB", (r.swap_out_bytes + r.swap_in_bytes) as f64 / (1u64 << 30) as f64),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// D6 — chunked-prefill chunk-size sensitivity for the vLLM baseline
/// (the §7.2 discussion: "determining the optimal chunk size is
/// challenging"). Seesaw's transition-minimizing schedule is shown as
/// a chunk-free reference.
/// Runs on `runner` (chunk sizes sweep concurrently).
pub fn abl_chunk_with(runner: &SweepRunner, n_requests: usize) -> String {
    use seesaw_engine::vllm::VllmEngine;
    use seesaw_engine::SchedulingPolicy;
    let (cluster, model, base) = setting();
    let reqs = workload(n_requests);
    let cfg = ParallelConfig::new(1, 2, 4);
    let mut out = super::banner(
        "Ablation D6",
        "chunked-prefill chunk-size sensitivity (vLLM T2P4, 34B arxiv)",
    );
    let mut t = Table::new(&["chunk tokens", "rps"]);
    let chunks = [128usize, 256, 512, 1024, 2048, 4096, 8192];
    let reports = runner.map(&chunks, |&chunk| {
        VllmEngine::new(
            cluster.clone(),
            model.clone(),
            cfg,
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: chunk },
        )
        .expect("feasible")
        .run(&reqs)
    });
    for (&chunk, r) in chunks.iter().zip(reports) {
        t.row(&[format!("{chunk}"), f3(r.throughput_rps())]);
    }
    let ss = seesaw_with(&cluster, &model, base, &reqs);
    t.row(&["seesaw (no chunking)".into(), f3(ss.throughput_rps())]);
    out.push_str(&t.render());
    out
}

/// D5 — re-sharding transfer volume across configuration pairs: how
/// many bytes each transition moves, and what fraction was already
/// resident.
pub fn abl_reshard() -> String {
    let model = presets::llama2_70b();
    let mut out = super::banner("Ablation D5", "re-sharding volume by configuration pair (70B)");
    let mut t = Table::new(&["from", "to", "max load/GPU (GiB)", "total load (GiB)", "resident %"]);
    let pairs = [
        (ParallelConfig::pp(8), ParallelConfig::new(1, 4, 2)),
        (ParallelConfig::pp(8), ParallelConfig::tp(8)),
        (ParallelConfig::new(1, 2, 4), ParallelConfig::new(1, 4, 2)),
        (ParallelConfig::new(1, 4, 2), ParallelConfig::new(1, 4, 2)),
    ];
    for (from, to) in pairs {
        let plan = ReshardPlan::plan(&model, from, to);
        let to_map = ShardMap::new(&model, to);
        let need: u64 = (0..to.num_gpus())
            .map(|g| to_map.shard(g).weight_bytes())
            .sum();
        let resident = need - plan.total_load_bytes();
        t.row(&[
            from.to_string(),
            to.to_string(),
            f2(plan.max_load_bytes() as f64 / (1u64 << 30) as f64),
            f2(plan.total_load_bytes() as f64 / (1u64 << 30) as f64),
            f2(100.0 * resident as f64 / need as f64),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sweep_shows_fewer_transitions_with_bigger_buffers() {
        let s = abl_buffer_with(&SweepRunner::from_env(), 60);
        assert!(s.contains("0.5x") && s.contains("16x"));
    }

    #[test]
    fn layout_ablation_prefers_hnd() {
        let (cluster, model, base) = setting();
        let reqs = workload(60);
        let hnd = seesaw_with(&cluster, &model, base.clone(), &reqs);
        let mut nhd_spec = base;
        nhd_spec.layout = KvLayout::Nhd;
        let nhd = seesaw_with(&cluster, &model, nhd_spec, &reqs);
        assert!(
            hnd.throughput_rps() >= nhd.throughput_rps(),
            "HND {} must not lose to NHD {}",
            hnd.throughput_rps(),
            nhd.throughput_rps()
        );
    }

    #[test]
    fn reshard_identity_pair_is_fully_resident() {
        let s = abl_reshard();
        assert!(s.contains("100.00"), "identity transition loads nothing:\n{s}");
    }

    #[test]
    fn sched_ablation_renders() {
        let s = abl_sched_with(&SweepRunner::from_env(), 40);
        assert!(s.contains("transition-minimizing"));
        assert!(s.contains("decode-prioritizing-like"));
    }
}
