//! Weight and KV shard maps: exactly which bytes live on which GPU
//! under a given [`ParallelConfig`].
//!
//! Tensor-parallel shards of one layer are modeled as *contiguous byte
//! ranges* of that layer's weight blob in a canonical parameter order.
//! This is how the re-sharding planner (`reshard`) computes how many
//! bytes a GPU already holds when the configuration changes: the
//! intersection of its old and new ranges.

use crate::config::ParallelConfig;
use seesaw_model::ModelConfig;

/// The shard of model state owned by one GPU under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuShard {
    /// Flat GPU index (see [`ParallelConfig::gpu_index`]).
    pub gpu: usize,
    /// Data-parallel rank.
    pub dp_rank: usize,
    /// Pipeline-stage rank.
    pub pp_rank: usize,
    /// Tensor-parallel rank.
    pub tp_rank: usize,
    /// First decoder layer owned (inclusive).
    pub layer_start: usize,
    /// Last decoder layer owned (exclusive).
    pub layer_end: usize,
    /// Byte range `[lo, hi)` of *each* owned layer's weight blob held
    /// by this GPU (the tensor-parallel slice).
    pub layer_byte_range: (u64, u64),
    /// Bytes of embedding / LM-head weights held (input embeddings on
    /// stage 0, LM head on the last stage, both TP-sharded).
    pub embedding_bytes: u64,
    /// KV heads held per owned layer (GQA heads divided across TP
    /// ranks, replicated when `tp > num_kv_heads`).
    pub kv_heads: usize,
}

impl GpuShard {
    /// Number of decoder layers owned.
    pub fn num_layers(&self) -> usize {
        self.layer_end - self.layer_start
    }

    /// Bytes of decoder-layer weights held.
    pub fn layer_weight_bytes(&self) -> u64 {
        let (lo, hi) = self.layer_byte_range;
        (hi - lo) * self.num_layers() as u64
    }

    /// Total weight bytes held (layers + embeddings).
    pub fn weight_bytes(&self) -> u64 {
        self.layer_weight_bytes() + self.embedding_bytes
    }
}

/// The complete placement of one model under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMap {
    /// The configuration this map realizes.
    pub config: ParallelConfig,
    /// Per-GPU shards, indexed by flat GPU index.
    pub shards: Vec<GpuShard>,
    /// Bytes of one full layer's weights (unsharded).
    pub layer_bytes: u64,
    /// KV-cache bytes per token per layer held by one TP rank.
    pub kv_bytes_per_token_layer_rank: u64,
}

impl ShardMap {
    /// Build the shard map for `model` under `config`.
    pub fn new(model: &ModelConfig, config: ParallelConfig) -> Self {
        let layer_bytes = model.weight_bytes_per_layer();
        let emb_total = model.embedding_params() * model.dtype.bytes();
        // Input embedding and LM head are each half of emb_total.
        let emb_half = emb_total / 2;
        let kv_heads = kv_heads_per_rank(model.num_kv_heads, config.tp);
        let kv_rank_bytes =
            2 * (kv_heads * model.head_dim) as u64 * model.dtype.bytes();

        let mut shards = Vec::with_capacity(config.num_gpus());
        for gpu in 0..config.num_gpus() {
            let (dp_rank, pp_rank, tp_rank) = config.coords(gpu);
            let (layer_start, layer_end) = config.stage_layers(model.num_layers, pp_rank);
            let lo = layer_bytes * tp_rank as u64 / config.tp as u64;
            let hi = layer_bytes * (tp_rank as u64 + 1) / config.tp as u64;
            let mut embedding_bytes = 0;
            if pp_rank == 0 {
                embedding_bytes += emb_half / config.tp as u64;
            }
            if pp_rank == config.pp - 1 {
                embedding_bytes += emb_half / config.tp as u64;
            }
            shards.push(GpuShard {
                gpu,
                dp_rank,
                pp_rank,
                tp_rank,
                layer_start,
                layer_end,
                layer_byte_range: (lo, hi),
                embedding_bytes,
                kv_heads,
            });
        }
        ShardMap {
            config,
            shards,
            layer_bytes,
            kv_bytes_per_token_layer_rank: kv_rank_bytes,
        }
    }

    /// The shard on a given GPU.
    pub fn shard(&self, gpu: usize) -> &GpuShard {
        &self.shards[gpu]
    }

    /// Largest per-GPU weight footprint (bytes) — the memory planner's
    /// constraint.
    pub fn max_weight_bytes_per_gpu(&self) -> u64 {
        self.shards.iter().map(|s| s.weight_bytes()).max().unwrap_or(0)
    }

    /// KV-cache bytes one token of one sequence consumes on `gpu`
    /// (layers owned there × per-layer rank bytes). Zero for GPUs of a
    /// different DP replica than the sequence.
    pub fn kv_bytes_per_token_on_gpu(&self, gpu: usize) -> u64 {
        self.kv_bytes_per_token_layer_rank * self.shards[gpu].num_layers() as u64
    }
}

/// KV heads per tensor-parallel rank: evenly divided, or replicated
/// (one each) when `tp` exceeds the head count — mirroring how
/// Megatron-style GQA sharding replicates KV heads.
pub fn kv_heads_per_rank(num_kv_heads: usize, tp: usize) -> usize {
    if tp >= num_kv_heads {
        1
    } else {
        num_kv_heads.div_ceil(tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;

    #[test]
    fn tp_shards_partition_each_layer() {
        let m = presets::codellama_34b();
        let map = ShardMap::new(&m, ParallelConfig::tp(4));
        let mut covered = 0;
        for s in &map.shards {
            let (lo, hi) = s.layer_byte_range;
            covered += hi - lo;
            assert_eq!(s.layer_start, 0);
            assert_eq!(s.layer_end, m.num_layers);
        }
        assert_eq!(covered, map.layer_bytes);
    }

    #[test]
    fn pp_shards_partition_layers() {
        let m = presets::llama2_70b();
        let map = ShardMap::new(&m, ParallelConfig::pp(8));
        let total: usize = map.shards.iter().map(|s| s.num_layers()).sum();
        assert_eq!(total, m.num_layers);
        for s in &map.shards {
            assert_eq!(s.layer_byte_range, (0, map.layer_bytes));
        }
    }

    #[test]
    fn whole_model_bytes_conserved_across_configs() {
        let m = presets::llama2_70b();
        let total_layers = m.weight_bytes_per_layer() * m.num_layers as u64;
        for cfg in [
            ParallelConfig::tp(8),
            ParallelConfig::pp(8),
            ParallelConfig::new(1, 4, 2),
            ParallelConfig::new(2, 2, 2),
        ] {
            let map = ShardMap::new(&m, cfg);
            let per_replica: u64 = map
                .shards
                .iter()
                .filter(|s| s.dp_rank == 0)
                .map(|s| s.layer_weight_bytes())
                .sum();
            // Within rounding of integer division by tp.
            let slack = cfg.tp as u64 * m.num_layers as u64;
            assert!(
                per_replica.abs_diff(total_layers) <= slack,
                "cfg {cfg}: {per_replica} vs {total_layers}"
            );
        }
    }

    #[test]
    fn embeddings_live_on_first_and_last_stage() {
        let m = presets::llama2_13b();
        let map = ShardMap::new(&m, ParallelConfig::pp(4));
        assert!(map.shards[0].embedding_bytes > 0);
        assert!(map.shards[3].embedding_bytes > 0);
        assert_eq!(map.shards[1].embedding_bytes, 0);
        assert_eq!(map.shards[2].embedding_bytes, 0);
        // TP1PP1 holds both halves.
        let solo = ShardMap::new(&m, ParallelConfig::new(1, 1, 1));
        assert_eq!(
            solo.shards[0].embedding_bytes,
            (m.embedding_params() * 2) // all embedding bytes
        );
    }

    #[test]
    fn gqa_kv_head_division() {
        assert_eq!(kv_heads_per_rank(8, 1), 8);
        assert_eq!(kv_heads_per_rank(8, 2), 4);
        assert_eq!(kv_heads_per_rank(8, 8), 1);
        assert_eq!(kv_heads_per_rank(8, 16), 1); // replicated
        assert_eq!(kv_heads_per_rank(40, 8), 5);
        assert_eq!(kv_heads_per_rank(40, 16), 3); // uneven: ceil(40/16)
    }

    /// KV bytes per token summed across one DP replica — what a
    /// sequence costs the cluster.
    fn kv_bytes_per_token_replica(map: &ShardMap) -> u64 {
        map.shards
            .iter()
            .filter(|s| s.dp_rank == 0)
            .map(|s| map.kv_bytes_per_token_on_gpu(s.gpu))
            .sum()
    }

    #[test]
    fn kv_per_token_replica_matches_model_total_when_tp_divides() {
        let m = presets::codellama_34b(); // 8 kv heads
        for cfg in [ParallelConfig::tp(4), ParallelConfig::pp(4), ParallelConfig::new(1, 2, 2)]
        {
            let map = ShardMap::new(&m, cfg);
            assert_eq!(
                kv_bytes_per_token_replica(&map),
                m.kv_bytes_per_token(),
                "cfg {cfg}"
            );
        }
    }

    #[test]
    fn kv_replication_inflates_footprint_when_tp_exceeds_heads() {
        let m = presets::codellama_34b(); // 8 kv heads
        let map = ShardMap::new(&m, ParallelConfig::tp(16));
        assert!(kv_bytes_per_token_replica(&map) > m.kv_bytes_per_token());
    }

    #[test]
    fn dp_replicas_are_identical() {
        let m = presets::llama3_15b();
        let map = ShardMap::new(&m, ParallelConfig::new(2, 2, 1));
        let a = map.shard(map.config.gpu_index(0, 0, 1));
        let b = map.shard(map.config.gpu_index(1, 0, 1));
        assert_eq!(a.layer_byte_range, b.layer_byte_range);
        assert_eq!(a.weight_bytes(), b.weight_bytes());
    }
}
