//! The dynamic model re-sharding planner (paper §4.1).
//!
//! When Seesaw transitions between the prefill configuration `c_p` and
//! the decode configuration `c_d`, every GPU must end up holding its
//! `c_d` weight shard. Following the paper, missing weight bytes are
//! *reloaded from CPU memory* over the host PCIe link (model weights
//! are kept resident in host RAM). Bytes a GPU already holds — the
//! intersection of its old and new shard ranges — do not move.
//!
//! The output [`ReshardPlan`] is consumed by the engines, which turn
//! each [`WeightMove`] into a host-to-device transfer task on the
//! simulated PCIe link. KV-cache re-sharding is *not* planned here: it
//! rides along with the tiered-buffer swap traffic (paper Fig. 7) and
//! is handled by `seesaw-kv`.

use crate::config::ParallelConfig;
use crate::shard::{GpuShard, ShardMap};
use seesaw_model::ModelConfig;

/// Weight bytes one GPU must load (and already holds) for a
/// transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightMove {
    /// Flat GPU index.
    pub gpu: usize,
    /// Bytes to fetch from host memory.
    pub load_bytes: u64,
    /// Bytes of the new shard already resident from the old shard.
    pub resident_bytes: u64,
}

/// A complete weight re-sharding plan between two configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct ReshardPlan {
    /// Configuration being left.
    pub from: ParallelConfig,
    /// Configuration being entered.
    pub to: ParallelConfig,
    /// Per-GPU moves, indexed by flat GPU index.
    pub moves: Vec<WeightMove>,
}

impl ReshardPlan {
    /// Plan the transition for `model` from `from` to `to`. Both
    /// configurations must span the same number of GPUs.
    pub fn plan(model: &ModelConfig, from: ParallelConfig, to: ParallelConfig) -> Self {
        assert_eq!(
            from.num_gpus(),
            to.num_gpus(),
            "re-sharding requires both configs to span the same GPUs"
        );
        let from_map = ShardMap::new(model, from);
        let to_map = ShardMap::new(model, to);
        let moves = (0..to.num_gpus())
            .map(|g| plan_gpu(from_map.shard(g), to_map.shard(g)))
            .collect();
        ReshardPlan { from, to, moves }
    }

    /// Total bytes loaded across all GPUs.
    pub fn total_load_bytes(&self) -> u64 {
        self.moves.iter().map(|m| m.load_bytes).sum()
    }

    /// The slowest GPU's load (PCIe loads run in parallel per GPU, so
    /// this bounds the transition's weight-reload critical path).
    pub fn max_load_bytes(&self) -> u64 {
        self.moves.iter().map(|m| m.load_bytes).max().unwrap_or(0)
    }
}

/// Bytes of the new shard already present: per layer owned under both
/// configs, the overlap of the two contiguous byte ranges.
fn plan_gpu(old: &GpuShard, new: &GpuShard) -> WeightMove {
    let mut resident = 0u64;
    let (nlo, nhi) = new.layer_byte_range;
    let (olo, ohi) = old.layer_byte_range;
    let per_layer_overlap = nhi.min(ohi).saturating_sub(nlo.max(olo));
    if per_layer_overlap > 0 {
        let shared_layers = new
            .layer_end
            .min(old.layer_end)
            .saturating_sub(new.layer_start.max(old.layer_start));
        resident += per_layer_overlap * shared_layers as u64;
    }
    // Embeddings: resident if the GPU kept the same embedding role;
    // conservatively count the smaller of old/new holdings.
    resident += new.embedding_bytes.min(old.embedding_bytes);
    let need = new.weight_bytes();
    WeightMove {
        gpu: new.gpu,
        load_bytes: need - resident.min(need),
        resident_bytes: resident.min(need),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;

    #[test]
    fn identity_transition_loads_nothing() {
        let m = presets::codellama_34b();
        let c = ParallelConfig::new(1, 2, 2);
        let plan = ReshardPlan::plan(&m, c, c);
        assert_eq!(plan.total_load_bytes(), 0);
        for mv in &plan.moves {
            assert_eq!(mv.load_bytes, 0);
        }
    }

    #[test]
    fn pp_to_tp_reloads_most_of_the_new_shard() {
        // PP4 -> TP4 on 34B: GPU 0 held layers [0,12) in full; under
        // TP4 it needs 1/4 of every layer. Overlap = 1/4 of the 12
        // layers it had.
        let m = presets::codellama_34b();
        let plan = ReshardPlan::plan(&m, ParallelConfig::pp(4), ParallelConfig::tp(4));
        let lb = m.weight_bytes_per_layer();
        let mv0 = &plan.moves[0];
        // New shard: 48 layers * lb/4 (+ embeddings). Resident: 12 * lb/4.
        let expect_resident = 12 * (lb / 4);
        assert!(
            mv0.resident_bytes.abs_diff(expect_resident) < lb / 2,
            "resident {} vs {}",
            mv0.resident_bytes,
            expect_resident
        );
        assert!(mv0.load_bytes > 30 * (lb / 4));
    }

    #[test]
    fn transition_cost_is_symmetric_in_total_for_tp_pp_swap() {
        let m = presets::llama2_70b();
        let a = ReshardPlan::plan(&m, ParallelConfig::pp(8), ParallelConfig::new(1, 4, 2));
        let b = ReshardPlan::plan(&m, ParallelConfig::new(1, 4, 2), ParallelConfig::pp(8));
        // Same overlap structure in both directions => same resident
        // bytes; loads differ only by shard-size differences.
        let ra: u64 = a.moves.iter().map(|v| v.resident_bytes).sum();
        let rb: u64 = b.moves.iter().map(|v| v.resident_bytes).sum();
        assert_eq!(ra, rb);
    }

    #[test]
    fn loads_never_exceed_new_shard_size() {
        let m = presets::llama3_15b();
        for (f, t) in [
            (ParallelConfig::pp(4), ParallelConfig::tp(4)),
            (ParallelConfig::tp(4), ParallelConfig::new(1, 2, 2)),
            (ParallelConfig::new(2, 2, 1), ParallelConfig::new(2, 1, 2)),
        ] {
            let plan = ReshardPlan::plan(&m, f, t);
            let to_map = ShardMap::new(&m, t);
            for mv in &plan.moves {
                let need = to_map.shard(mv.gpu).weight_bytes();
                assert_eq!(mv.load_bytes + mv.resident_bytes, need);
            }
        }
    }

    #[test]
    #[should_panic(expected = "same GPUs")]
    fn mismatched_gpu_counts_panic() {
        let m = presets::llama2_13b();
        ReshardPlan::plan(&m, ParallelConfig::pp(4), ParallelConfig::tp(8));
    }

    #[test]
    fn max_load_bounds_critical_path() {
        let m = presets::llama2_70b();
        let plan = ReshardPlan::plan(&m, ParallelConfig::pp(8), ParallelConfig::new(1, 4, 2));
        assert!(plan.max_load_bytes() <= plan.total_load_bytes());
        assert!(plan.max_load_bytes() * 8 >= plan.total_load_bytes());
    }
}
