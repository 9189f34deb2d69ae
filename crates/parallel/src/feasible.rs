//! Memory feasibility and maximum-batch-size accounting
//! (paper Appendix A.2), plus configuration enumeration.

use crate::config::ParallelConfig;
use crate::shard::ShardMap;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use std::fmt;

/// Fraction of device memory reserved for activations, CUDA context,
/// and fragmentation slack — unavailable to weights or KV cache.
pub const ACTIVATION_RESERVE_FRAC: f64 = 0.08;

/// Why a configuration cannot run on a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The configuration needs more GPUs than the cluster has.
    NotEnoughGpus {
        /// GPUs the config spans.
        need: usize,
        /// GPUs available.
        have: usize,
    },
    /// The per-GPU weight shard (plus reserve) exceeds device memory.
    WeightsDontFit {
        /// Largest per-GPU bytes required.
        need: u64,
        /// Usable bytes per GPU.
        have: u64,
    },
    /// Weights fit but leave no room for a useful KV cache.
    NoKvSpace {
        /// Tokens of KV capacity left (below the floor).
        tokens: u64,
    },
    /// Structural mismatch (TP doesn't divide heads, PP exceeds
    /// layers).
    Invalid(String),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NotEnoughGpus { need, have } => {
                write!(f, "config needs {need} GPUs, cluster has {have}")
            }
            FitError::WeightsDontFit { need, have } => write!(
                f,
                "weight shard needs {need} bytes/GPU, only {have} usable"
            ),
            FitError::NoKvSpace { tokens } => {
                write!(f, "only {tokens} tokens of KV capacity remain")
            }
            FitError::Invalid(s) => write!(f, "invalid config: {s}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Minimum KV token capacity for a configuration to count as feasible
/// (below this, not even one long request fits).
pub const MIN_KV_TOKENS: u64 = 4096;

/// The memory layout of a model under a configuration on a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// The configuration planned.
    pub config: ParallelConfig,
    /// Largest per-GPU weight footprint, bytes.
    pub weight_bytes_per_gpu: u64,
    /// Bytes reserved per GPU for activations/context.
    pub reserve_bytes_per_gpu: u64,
    /// GPU KV-cache capacity in *tokens*, per DP replica (the
    /// bottleneck-stage bound).
    pub kv_tokens_per_replica: u64,
    /// GPU KV-cache capacity in tokens across the whole cluster
    /// (`× DP`).
    pub kv_tokens_total: u64,
    /// Host (CPU) KV buffer capacity in tokens across the cluster,
    /// for tiered buffering.
    pub cpu_kv_tokens_total: u64,
}

impl MemoryPlan {
    /// Compute the plan, or explain why the config cannot run.
    pub fn new(
        model: &ModelConfig,
        cluster: &ClusterSpec,
        config: ParallelConfig,
    ) -> Result<Self, FitError> {
        validate_structure(model, config)?;
        if config.num_gpus() > cluster.num_gpus {
            return Err(FitError::NotEnoughGpus {
                need: config.num_gpus(),
                have: cluster.num_gpus,
            });
        }
        let map = ShardMap::new(model, config);
        let reserve = (cluster.gpu.mem_bytes as f64 * ACTIVATION_RESERVE_FRAC) as u64;
        let usable = cluster.gpu.mem_bytes - reserve;
        let weight_max = map.max_weight_bytes_per_gpu();
        if weight_max > usable {
            return Err(FitError::WeightsDontFit {
                need: weight_max,
                have: usable,
            });
        }

        // Per-replica KV token capacity: each token of a sequence
        // consumes bytes on every GPU of its replica; the tightest GPU
        // bounds the replica.
        let mut tokens_min = u64::MAX;
        for s in map.shards.iter().filter(|s| s.dp_rank == 0) {
            let per_token = map.kv_bytes_per_token_on_gpu(s.gpu);
            if per_token == 0 {
                continue;
            }
            let free = usable.saturating_sub(map.shard(s.gpu).weight_bytes());
            tokens_min = tokens_min.min(free / per_token);
        }
        if tokens_min == u64::MAX {
            tokens_min = 0;
        }
        if tokens_min < MIN_KV_TOKENS {
            return Err(FitError::NoKvSpace { tokens: tokens_min });
        }
        let cpu_tokens = cluster.total_cpu_mem() / model.kv_bytes_per_token();
        Ok(MemoryPlan {
            config,
            weight_bytes_per_gpu: weight_max,
            reserve_bytes_per_gpu: reserve,
            kv_tokens_per_replica: tokens_min,
            kv_tokens_total: tokens_min * config.dp as u64,
            cpu_kv_tokens_total: cpu_tokens,
        })
    }

    /// Maximum concurrent sequences (global batch size) at an average
    /// sequence length of `avg_len` tokens.
    pub fn max_batch(&self, avg_len: usize) -> usize {
        (self.kv_tokens_total / avg_len.max(1) as u64) as usize
    }
}

fn validate_structure(model: &ModelConfig, config: ParallelConfig) -> Result<(), FitError> {
    if config.tp > model.num_heads || !model.num_heads.is_multiple_of(config.tp) {
        return Err(FitError::Invalid(format!(
            "TP={} does not divide {} query heads",
            config.tp, model.num_heads
        )));
    }
    if config.pp > model.num_layers {
        return Err(FitError::Invalid(format!(
            "PP={} exceeds {} layers",
            config.pp, model.num_layers
        )));
    }
    Ok(())
}

/// Enumerate every structurally valid configuration that uses
/// *exactly* `cluster.num_gpus` GPUs (the paper sweeps these as the
/// vLLM baselines). Feasibility (memory) is NOT checked here; pair
/// with [`MemoryPlan::new`].
pub fn enumerate_configs(model: &ModelConfig, num_gpus: usize) -> Vec<ParallelConfig> {
    let mut out = Vec::new();
    for dp in 1..=num_gpus {
        if !num_gpus.is_multiple_of(dp) {
            continue;
        }
        let rest = num_gpus / dp;
        for tp in 1..=rest {
            if !rest.is_multiple_of(tp) {
                continue;
            }
            let pp = rest / tp;
            let cfg = ParallelConfig::new(dp, tp, pp);
            if validate_structure(model, cfg).is_ok() {
                out.push(cfg);
            }
        }
    }
    out
}

/// Enumerate configurations that are both structurally valid *and*
/// memory-feasible on the cluster.
pub fn feasible_configs(model: &ModelConfig, cluster: &ClusterSpec) -> Vec<ParallelConfig> {
    enumerate_configs(model, cluster.num_gpus)
        .into_iter()
        .filter(|&c| MemoryPlan::new(model, cluster, c).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;

    #[test]
    fn seventy_b_does_not_fit_tp1_on_a10() {
        let m = presets::llama2_70b();
        let cluster = ClusterSpec::a10x8();
        let err = MemoryPlan::new(&m, &cluster, ParallelConfig::new(1, 1, 1)).unwrap_err();
        assert!(matches!(err, FitError::WeightsDontFit { .. } | FitError::NotEnoughGpus { .. }));
    }

    #[test]
    fn seventy_b_fits_pp8_on_a10() {
        let m = presets::llama2_70b();
        let cluster = ClusterSpec::a10x8();
        let plan = MemoryPlan::new(&m, &cluster, ParallelConfig::pp(8)).unwrap();
        assert!(plan.kv_tokens_total >= MIN_KV_TOKENS);
    }

    #[test]
    fn figure4_disaggregation_constraint() {
        // Paper §3.2: 70B on 40-GiB GPUs needs >= 4 GPUs for weights,
        // so an 8-GPU node admits only the 4+4 prefill/decode split.
        let m = presets::llama2_70b();
        let c8 = ClusterSpec::a100x8_pcie();
        for n in 1..=3usize {
            let sub = c8.subset(n);
            let any_fits = enumerate_configs(&m, n)
                .into_iter()
                .any(|c| MemoryPlan::new(&m, &sub, c).is_ok());
            assert!(!any_fits, "70B should not fit on {n} x 40GiB GPUs");
        }
        let sub4 = c8.subset(4);
        let fits4 = enumerate_configs(&m, 4)
            .into_iter()
            .any(|c| MemoryPlan::new(&m, &sub4, c).is_ok());
        assert!(fits4, "70B must fit on 4 x 40GiB GPUs");
    }

    #[test]
    fn dp_shrinks_kv_capacity_per_the_paper() {
        // Appendix A Fig 15: duplicating the model leaves less room
        // for KV. Compare D2T2 against T4 on 4 GPUs with the 15B model.
        let m = presets::llama3_15b();
        let cluster = ClusterSpec::a10x4();
        let dp = MemoryPlan::new(&m, &cluster, ParallelConfig::new(2, 2, 1)).unwrap();
        let tp = MemoryPlan::new(&m, &cluster, ParallelConfig::tp(4)).unwrap();
        assert!(
            dp.kv_tokens_total < tp.kv_tokens_total,
            "DP2TP2 {} tokens vs TP4 {} tokens",
            dp.kv_tokens_total,
            tp.kv_tokens_total
        );
    }

    #[test]
    fn enumerate_configs_covers_divisor_triples() {
        let m = presets::llama2_70b(); // 64 heads, 80 layers
        let cfgs = enumerate_configs(&m, 8);
        assert!(cfgs.contains(&ParallelConfig::pp(8)));
        assert!(cfgs.contains(&ParallelConfig::tp(8)));
        assert!(cfgs.contains(&ParallelConfig::new(2, 2, 2)));
        // Every config spans exactly 8 GPUs.
        assert!(cfgs.iter().all(|c| c.num_gpus() == 8));
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        assert!(cfgs.iter().all(|c| seen.insert(*c)));
    }

    #[test]
    fn structural_validation_rejects_bad_tp() {
        let m = presets::llama2_13b(); // 40 heads
        let cluster = ClusterSpec::a10x8();
        // TP=16 > cluster anyway; TP=3 doesn't divide 40... actually 3
        // isn't a divisor of 8 GPUs either; test directly:
        let err = MemoryPlan::new(&m, &cluster, ParallelConfig::new(1, 16, 1)).unwrap_err();
        assert!(matches!(err, FitError::Invalid(_) | FitError::NotEnoughGpus { .. }));
    }

    #[test]
    fn max_batch_scales_inversely_with_length() {
        let m = presets::codellama_34b();
        let cluster = ClusterSpec::a10x8();
        let plan = MemoryPlan::new(&m, &cluster, ParallelConfig::new(1, 4, 2)).unwrap();
        let short = plan.max_batch(500);
        let long = plan.max_batch(2000);
        assert!(short >= 4 * long - 4);
        assert!(short > long);
    }

    #[test]
    fn cpu_buffer_is_much_larger_than_gpu_kv() {
        // 80 GiB/GPU host memory dwarfs leftover device memory; tiered
        // buffering depends on this.
        let m = presets::codellama_34b();
        let cluster = ClusterSpec::a10x8();
        let plan = MemoryPlan::new(&m, &cluster, ParallelConfig::new(1, 4, 2)).unwrap();
        assert!(plan.cpu_kv_tokens_total > 2 * plan.kv_tokens_total);
    }

    #[test]
    fn feasible_configs_subset_of_enumerated() {
        let m = presets::llama2_70b();
        let cluster = ClusterSpec::a10x8();
        let feas = feasible_configs(&m, &cluster);
        let all = enumerate_configs(&m, 8);
        assert!(!feas.is_empty());
        assert!(feas.len() < all.len()); // e.g. D8 can't fit 70B
        for c in &feas {
            assert!(all.contains(c));
        }
    }
}
