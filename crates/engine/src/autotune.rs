//! Configuration auto-tuning.
//!
//! Seesaw must choose `(c_p, c_d)`; the vLLM baseline sweep needs a
//! "best static configuration". Both searches rank candidates with the
//! analytic throughput model (paper Eq. 2), with an amortized
//! re-sharding penalty added for Seesaw pairs; final numbers always
//! come from engine runs in the benches.

use seesaw_hw::{efficiency, ClusterSpec};
use seesaw_model::ModelConfig;
use seesaw_parallel::{feasible, FitError, ParallelConfig, ReshardPlan};
use seesaw_roofline::{Roofline, ThroughputModel};

/// Rank every memory-feasible static configuration by estimated
/// request rate; return them best-first with their estimates.
pub fn rank_static_configs(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
    avg_out: usize,
) -> Vec<(ParallelConfig, f64)> {
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    let mut ranked: Vec<(ParallelConfig, f64)> = feasible::feasible_configs(model, cluster)
        .into_iter()
        .filter_map(|c| {
            tm.estimate_request_rate(c, c, avg_in, avg_out)
                .ok()
                .map(|r| (c, r))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("rates are finite"));
    ranked
}

/// The best static configuration, or an error when nothing fits.
pub fn best_static_config(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
    avg_out: usize,
) -> Result<(ParallelConfig, f64), FitError> {
    rank_static_configs(cluster, model, avg_in, avg_out)
        .into_iter()
        .next()
        .ok_or(FitError::Invalid(format!(
            "no feasible configuration for {} on {}x{}",
            model.name, cluster.num_gpus, cluster.gpu.name
        )))
}

/// The best `(c_p, c_d)` pair for a Seesaw deployment: maximize the
/// combined analytic rate minus the amortized re-sharding cost of one
/// buffer cycle. DP must match across the pair (the paper keeps DP
/// fixed, §4.1).
pub fn best_seesaw_pair(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
    avg_out: usize,
) -> Result<(ParallelConfig, ParallelConfig), FitError> {
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    let candidates = feasible::feasible_configs(model, cluster);
    let buffer_tokens = cluster.total_cpu_mem() / model.kv_bytes_per_token();
    let mut best: Option<(ParallelConfig, ParallelConfig, f64)> = None;
    for &cp in &candidates {
        for &cd in &candidates {
            if cp.dp != cd.dp {
                continue;
            }
            let Ok(rate) = tm.estimate_request_rate(cp, cd, avg_in, avg_out) else {
                continue;
            };
            // Requests per prefill->decode->prefill cycle are bounded
            // by the CPU buffer; two re-shards per cycle.
            let reqs_per_cycle = (buffer_tokens / avg_in.max(1) as u64).max(1) as f64;
            let reshard_s = if cp == cd {
                0.0
            } else {
                let plan = ReshardPlan::plan(model, cp, cd);
                let load = cluster
                    .host_link
                    .pinned_copy_time(plan.max_load_bytes() as f64);
                2.0 * (load + efficiency::RESHARD_FIXED_OVERHEAD_S)
            };
            let per_req = 1.0 / rate + reshard_s / reqs_per_cycle;
            let adj = 1.0 / per_req;
            if best.is_none_or(|(_, _, b)| adj > b) {
                best = Some((cp, cd, adj));
            }
        }
    }
    best.map(|(cp, cd, _)| (cp, cd)).ok_or(FitError::Invalid(format!(
        "no feasible Seesaw pair for {} on {}x{}",
        model.name, cluster.num_gpus, cluster.gpu.name
    )))
}

/// The best `(c_p, c_d)` pair chosen by *simulation probing*: the
/// analytic model shortlists prefill-strong and decode-strong
/// candidates, then each shortlisted pair runs a small probe workload
/// through the real [`SeesawEngine`](crate::seesaw::SeesawEngine) and
/// the highest measured throughput wins. Probes are independent
/// engine runs, so they execute in parallel on a
/// [`SweepRunner`](crate::sweep::SweepRunner); ties and orderings are
/// resolved by shortlist position, keeping the choice identical to
/// the serial search. Slower than [`best_seesaw_pair`] but immune to
/// analytic-model ranking error; this is what
/// [`SeesawSpec::auto_for`](crate::seesaw::SeesawSpec) uses.
/// Binaries thread their `--jobs` choice through `runner`.
///
/// When the shortlists admit no probeable pair at all (e.g. every
/// top-prefill × top-decode combination mixes DP degrees), the search
/// falls back to the analytic [`best_seesaw_pair`] over the *full*
/// candidate set instead of reporting a spurious [`FitError`].
pub fn best_seesaw_pair_probed_with(
    runner: &crate::sweep::SweepRunner,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    probe: &[seesaw_workload::Request],
) -> Result<(ParallelConfig, ParallelConfig), FitError> {
    assert!(!probe.is_empty(), "probe workload must be non-empty");
    let stats = seesaw_workload::LengthStats::of(probe);
    let (avg_in, avg_out) = (stats.mean_input as usize, stats.mean_output.max(1.0) as usize);
    let avg_ctx = ThroughputModel::decode_context(avg_in, avg_out);
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    let candidates = feasible::feasible_configs(model, cluster);

    // Shortlist by per-stage analytic strength.
    let mut by_prefill: Vec<(ParallelConfig, f64)> = candidates
        .iter()
        .map(|&c| (c, tm.prefill_tokens_per_sec(c, avg_in.max(1))))
        .collect();
    by_prefill.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut by_decode: Vec<(ParallelConfig, f64)> = candidates
        .iter()
        .filter_map(|&c| {
            tm.decode_seq_steps_per_sec_max_batch(c, avg_ctx)
                .ok()
                .map(|r| (c, r))
        })
        .collect();
    by_decode.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    let tops = |v: &[(ParallelConfig, f64)]| -> Vec<ParallelConfig> {
        v.iter().take(3).map(|&(c, _)| c).collect()
    };
    // Materialize every probeable engine up front (construction is
    // cheap; running is what costs), then probe concurrently. All
    // engines share one Arc'd copy of the specs.
    let cluster_arc = std::sync::Arc::new(cluster.clone());
    let model_arc = std::sync::Arc::new(model.clone());
    let mut engines: Vec<(ParallelConfig, ParallelConfig, crate::seesaw::SeesawEngine)> =
        Vec::new();
    for &cp in &tops(&by_prefill) {
        for &cd in &tops(&by_decode) {
            if cp.dp != cd.dp {
                continue;
            }
            let spec = crate::seesaw::SeesawSpec::new(cp, cd);
            if let Ok(engine) = crate::seesaw::SeesawEngine::new(
                std::sync::Arc::clone(&cluster_arc),
                std::sync::Arc::clone(&model_arc),
                spec,
            ) {
                // A pair that cannot hold a probe request would stall
                // on it: it is not a candidate for this workload.
                if probe.iter().all(|r| engine.holds(r)) {
                    engines.push((cp, cd, engine));
                }
            }
        }
    }
    if engines.is_empty() {
        // Shortlist dead-end (typically all-mismatched DP, or no pair
        // holding the probe): feasible pairs may still exist outside
        // the shortlists.
        let (cp, cd) = best_seesaw_pair(cluster, model, avg_in.max(1), avg_out.max(1))?;
        let engine = crate::seesaw::SeesawEngine::new(
            cluster_arc,
            model_arc,
            crate::seesaw::SeesawSpec::new(cp, cd),
        )?;
        return match probe.iter().find(|r| !engine.holds(r)) {
            None => Ok((cp, cd)),
            Some(r) => Err(FitError::Invalid(format!(
                "no Seesaw pair for {} on {}x{} holds a {}-token request",
                model.name,
                cluster.num_gpus,
                cluster.gpu.name,
                r.total_len()
            ))),
        };
    }
    let rates = runner.map(&engines, |(_, _, engine)| engine.run(probe).throughput_rps());
    let mut best: Option<(ParallelConfig, ParallelConfig, f64)> = None;
    for (&(cp, cd, _), &rps) in engines.iter().zip(&rates) {
        if best.is_none_or(|(_, _, b)| rps > b) {
            best = Some((cp, cd, rps));
        }
    }
    best.map(|(cp, cd, _)| (cp, cd)).ok_or(FitError::Invalid(format!(
        "no feasible Seesaw pair for {} on {}x{}",
        model.name, cluster.num_gpus, cluster.gpu.name
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;

    #[test]
    fn best_static_is_feasible_and_ranked_first() {
        let cluster = ClusterSpec::a10x8();
        let m = presets::llama2_70b();
        let ranked = rank_static_configs(&cluster, &m, 3000, 250);
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "must be sorted descending");
        }
        let (best, rate) = best_static_config(&cluster, &m, 3000, 250).unwrap();
        assert_eq!(ranked[0].0, best);
        assert!(rate > 0.0);
    }

    #[test]
    fn seesaw_pair_prefers_pp_prefill_tp_decode_on_pcie() {
        // The paper's headline configuration for 70B on 8 PCIe GPUs is
        // P8 -> T4P2 (Figure 10 labels).
        let cluster = ClusterSpec::a10x8();
        let m = presets::llama2_70b();
        let (cp, cd) = best_seesaw_pair(&cluster, &m, 3000, 250).unwrap();
        assert!(
            cp.pp > cp.tp,
            "prefill config should lean pipeline-parallel, got {cp}"
        );
        assert!(
            cd.tp > 1,
            "decode config should use tensor parallelism, got {cd}"
        );
    }

    #[test]
    fn seesaw_pair_estimate_beats_or_matches_static() {
        let cluster = ClusterSpec::a10x8();
        let m = presets::codellama_34b();
        let tm = ThroughputModel::new(Roofline::new(cluster.clone(), m.clone()));
        let (cp, cd) = best_seesaw_pair(&cluster, &m, 3000, 200).unwrap();
        let (cs, _) = best_static_config(&cluster, &m, 3000, 200).unwrap();
        let pair = tm.estimate_request_rate(cp, cd, 3000, 200).unwrap();
        let stat = tm.estimate_request_rate(cs, cs, 3000, 200).unwrap();
        assert!(pair >= stat, "pair {pair} vs static {stat}");
    }

    /// Guard for the shortlist dead-end: whenever the analytic search
    /// finds *any* feasible pair, the probed search must also succeed
    /// (falling back to the analytic winner if every top-3 × top-3
    /// shortlist pair has mismatched DP) instead of surfacing a
    /// spurious `FitError`.
    #[test]
    fn probed_succeeds_whenever_analytic_pair_exists() {
        use seesaw_workload::Request;
        let combos: Vec<(ClusterSpec, ModelConfig)> = vec![
            (ClusterSpec::a10x4(), presets::llama2_13b()),
            (ClusterSpec::l4x4(), presets::llama2_13b()),
            (ClusterSpec::a10x4(), presets::llama3_15b()),
            (ClusterSpec::a10x8(), presets::codellama_34b()),
        ];
        let runner = crate::sweep::SweepRunner::serial();
        for (cluster, model) in combos {
            if best_seesaw_pair(&cluster, &model, 512, 32).is_err() {
                continue;
            }
            let probe: Vec<Request> = (0..8).map(|i| Request::new(i, 512, 32)).collect();
            let pair = best_seesaw_pair_probed_with(&runner, &cluster, &model, &probe);
            assert!(
                pair.is_ok(),
                "probed search must not dead-end on {} / {}x{}: {:?}",
                model.name,
                cluster.num_gpus,
                cluster.gpu.name,
                pair.err()
            );
            let (cp, cd) = pair.unwrap();
            assert_eq!(cp.dp, cd.dp, "returned pair must share DP");
        }
    }

    /// Probing in parallel must choose the same pair as probing
    /// serially (ties broken by shortlist order in both).
    #[test]
    fn parallel_probe_matches_serial_choice() {
        use seesaw_workload::Request;
        let cluster = ClusterSpec::a10x4();
        let model = presets::llama2_13b();
        let probe: Vec<Request> = (0..12).map(|i| Request::new(i, 1024, 64)).collect();
        let serial = best_seesaw_pair_probed_with(
            &crate::sweep::SweepRunner::serial(),
            &cluster,
            &model,
            &probe,
        )
        .unwrap();
        let parallel = best_seesaw_pair_probed_with(
            &crate::sweep::SweepRunner::new(4),
            &cluster,
            &model,
            &probe,
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn error_when_nothing_fits() {
        // 70B on a single L4 cannot fit.
        let cluster = ClusterSpec::new(seesaw_hw::GpuSpec::l4(), 1);
        let m = presets::llama2_70b();
        assert!(best_static_config(&cluster, &m, 1000, 100).is_err());
        assert!(best_seesaw_pair(&cluster, &m, 1000, 100).is_err());
    }
}
