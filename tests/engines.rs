//! Cross-crate integration tests: the three engines, the scheduler
//! policies, and the report invariants, exercised through the facade
//! crate's public API.

use seesaw::engine::SweepRunner;
use seesaw::prelude::*;
use seesaw::workload::LengthStats;

fn workload(n: usize) -> Vec<Request> {
    WorkloadGen::arxiv_summarization(3).generate(n)
}

/// Every engine/policy combination completes the same workload and
/// reports consistent accounting.
#[test]
fn all_engines_complete_and_account_consistently() {
    let cluster = ClusterSpec::a10x4();
    let model = ModelConfig::llama2_13b();
    let reqs = workload(40);
    let stats = LengthStats::of(&reqs);

    let mut reports = Vec::new();
    for policy in [
        SchedulingPolicy::PrefillPrioritized,
        SchedulingPolicy::DecodePrioritized,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 1024 },
    ] {
        let cfg: ParallelConfig = "T2P2".parse().expect("valid");
        reports.push(
            VllmEngine::new(cluster.clone(), model.clone(), cfg, policy)
                .expect("feasible")
                .run(&reqs),
        );
    }
    let spec = SeesawSpec::new("P4".parse().unwrap(), "T4".parse().unwrap());
    reports.push(
        SeesawEngine::new(cluster.clone(), model.clone(), spec)
            .expect("feasible")
            .run(&reqs),
    );

    for r in &reports {
        assert_eq!(r.stats.requests, reqs.len(), "{}", r.label);
        assert_eq!(r.stats.input_tokens, stats.total_input);
        assert_eq!(r.stats.output_tokens, stats.total_output);
        assert!(r.stats.duration_s > 0.0);
        // Phase walls never exceed the total duration.
        let phases = r.prefill_wall_s + r.decode_wall_s + r.mixed_wall_s + r.reshard_wall_s;
        assert!(
            phases <= r.stats.duration_s * 1.0001,
            "{}: phases {phases} vs total {}",
            r.label,
            r.stats.duration_s
        );
        assert!(r.throughput_rps().is_finite() && r.throughput_rps() > 0.0);
    }
}

/// Simulations are deterministic: identical inputs give bit-identical
/// reports.
#[test]
fn runs_are_deterministic() {
    let cluster = ClusterSpec::a10x4();
    let model = ModelConfig::llama2_13b();
    let reqs = workload(24);
    let spec = || SeesawSpec::new("P4".parse().unwrap(), "T2P2".parse().unwrap());
    let a = SeesawEngine::new(cluster.clone(), model.clone(), spec())
        .unwrap()
        .run(&reqs);
    let b = SeesawEngine::new(cluster, model, spec()).unwrap().run(&reqs);
    assert_eq!(a, b);
}

/// The headline claim at integration scope: on a PCIe node with a
/// prefill-heavy workload, Seesaw beats every static configuration
/// under the default policy.
#[test]
fn seesaw_beats_every_static_config_on_arxiv_34b() {
    let cluster = ClusterSpec::a10x8();
    let model = ModelConfig::codellama_34b();
    let reqs = WorkloadGen::arxiv_summarization(17).generate(80);

    let spec = SeesawSpec::auto_probed_with(&SweepRunner::from_env(), &cluster, &model, &reqs[..24])
        .expect("pair");
    let ours = SeesawEngine::new(cluster.clone(), model.clone(), spec)
        .expect("valid")
        .run(&reqs);

    for cfg in seesaw::parallel::feasible::feasible_configs(&model, &cluster) {
        let base = VllmEngine::new(
            cluster.clone(),
            model.clone(),
            cfg,
            SchedulingPolicy::PrefillPrioritized,
        )
        .expect("feasible")
        .run(&reqs);
        assert!(
            ours.throughput_rps() >= base.throughput_rps(),
            "seesaw {:.3} lost to static {} at {:.3}",
            ours.throughput_rps(),
            base.label,
            base.throughput_rps()
        );
    }
}

/// Swap accounting: bytes out equal bytes in (every buffered sequence
/// is later swapped in), and match the workload's prompt KV volume.
#[test]
fn tiered_buffer_conserves_kv_bytes() {
    let cluster = ClusterSpec::a10x4();
    let model = ModelConfig::llama2_13b();
    let reqs: Vec<Request> = (0..20).map(|i| Request::new(i, 1000, 50)).collect();
    let spec = SeesawSpec::new("P4".parse().unwrap(), "T4".parse().unwrap());
    let r = SeesawEngine::new(cluster, model.clone(), spec)
        .expect("valid")
        .run(&reqs);
    assert_eq!(r.swap_out_bytes, r.swap_in_bytes);
    let expected: u64 = reqs
        .iter()
        .map(|q| model.kv_bytes_per_token() * q.input_len as u64)
        .sum();
    assert_eq!(r.swap_out_bytes, expected);
}

/// Engines agree with the roofline on configuration *ordering* for
/// stage-pure workloads (the property the motivation section rests
/// on).
#[test]
fn sim_and_roofline_agree_on_prefill_ordering() {
    let cluster = ClusterSpec::a10x8();
    let model = ModelConfig::codellama_34b();
    let reqs = WorkloadGen::constant(2000, 1).generate(48);
    let tm = seesaw::roofline::ThroughputModel::new(Roofline::new(
        cluster.clone(),
        model.clone(),
    ));

    let mut sim_rates = Vec::new();
    let mut analytic_rates = Vec::new();
    for label in ["P8", "T2P4", "T4P2", "T8"] {
        let cfg: ParallelConfig = label.parse().unwrap();
        let rep = VllmEngine::new(
            cluster.clone(),
            model.clone(),
            cfg,
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap()
        .run(&reqs);
        sim_rates.push(rep.throughput_rps());
        analytic_rates.push(tm.prefill_tokens_per_sec(cfg, 2000));
    }
    for i in 0..sim_rates.len() - 1 {
        assert_eq!(
            sim_rates[i] > sim_rates[i + 1],
            analytic_rates[i] > analytic_rates[i + 1],
            "ordering mismatch at index {i}: sim {sim_rates:?} analytic {analytic_rates:?}"
        );
    }
}

/// GPU utilization is reported, bounded, and non-trivial for a busy
/// run.
#[test]
fn utilization_is_sane() {
    let cluster = ClusterSpec::a10x4();
    let model = ModelConfig::llama2_13b();
    let reqs = WorkloadGen::constant(1024, 64).generate(32);
    let v = VllmEngine::new(
        cluster.clone(),
        model.clone(),
        "T2P2".parse().unwrap(),
        SchedulingPolicy::PrefillPrioritized,
    )
    .unwrap()
    .run(&reqs);
    let s = SeesawEngine::new(
        cluster,
        model,
        SeesawSpec::new("P4".parse().unwrap(), "T4".parse().unwrap()),
    )
    .unwrap()
    .run(&reqs);
    for r in [&v, &s] {
        assert!(
            r.gpu_utilization > 0.2 && r.gpu_utilization <= 1.0,
            "{}: utilization {}",
            r.label,
            r.gpu_utilization
        );
    }
}

/// Seesaw's phase timeline covers the run: spans are ordered,
/// non-overlapping, and include at least one of each phase kind when
/// re-sharding happened.
#[test]
fn phase_timeline_is_well_formed() {
    let cluster = ClusterSpec::a10x4();
    let model = ModelConfig::llama2_13b();
    let reqs = workload(24);
    let spec = SeesawSpec::new("P4".parse().unwrap(), "T4".parse().unwrap());
    let r = SeesawEngine::new(cluster, model, spec).unwrap().run(&reqs);
    assert!(!r.phases.is_empty());
    for w in r.phases.windows(2) {
        assert!(w[1].start_s >= w[0].end_s - 1e-9, "phases overlap: {w:?}");
    }
    let kinds: std::collections::HashSet<_> =
        r.phases.iter().map(|p| format!("{}", p.phase)).collect();
    assert!(kinds.contains("prefill"));
    assert!(kinds.contains("decode"));
    assert!(kinds.contains("reshard"));
    let last = r.phases.last().expect("non-empty");
    assert!(last.end_s <= r.stats.duration_s + 1e-9);
}

/// Output-length extremes: output=1 (prefill-only) and long outputs
/// both complete under every engine.
#[test]
fn output_length_extremes() {
    let cluster = ClusterSpec::a10x4();
    let model = ModelConfig::llama2_13b();
    let prefill_only: Vec<Request> = (0..12).map(|i| Request::new(i, 1500, 1)).collect();
    let decode_heavy: Vec<Request> = (0..12).map(|i| Request::new(i, 64, 800)).collect();

    for reqs in [&prefill_only, &decode_heavy] {
        let spec = SeesawSpec::new("P4".parse().unwrap(), "T4".parse().unwrap());
        let r = SeesawEngine::new(cluster.clone(), model.clone(), spec)
            .expect("valid")
            .run(reqs);
        assert_eq!(r.stats.requests, reqs.len());
        let v = VllmEngine::new(
            cluster.clone(),
            model.clone(),
            "T2P2".parse().unwrap(),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 256 },
        )
        .expect("feasible")
        .run(reqs);
        assert_eq!(v.stats.requests, reqs.len());
    }
}
