//! KV-cache memory layouts (paper §5.2, "bandwidth-aware KV cache
//! layout").
//!
//! Tensor parallelism shards the KV cache along the head dimension.
//! With the `NHD` layout (`seq_len, num_heads, head_dim`) a head-shard
//! is strided — every sequence position contributes a small
//! non-contiguous slice — so PCIe transfers run far below link
//! bandwidth. `HND` (`num_heads, seq_len, head_dim`) makes each
//! head-shard contiguous; Seesaw stores the CPU KV cache in `HND`.

/// KV tensor layout in host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvLayout {
    /// `(seq_len, num_heads, head_dim)` — contiguous by token.
    Nhd,
    /// `(num_heads, seq_len, head_dim)` — contiguous by head
    /// (Seesaw's choice).
    Hnd,
}

impl KvLayout {
    /// Transfer-bandwidth efficiency multiplier for a copy of this
    /// layout, given whether the copy touches a head-dimension shard
    /// (TP) or the whole tensor.
    ///
    /// * Whole-tensor copies are contiguous either way → 1.0.
    /// * Head-sharded copies: `HND` stays contiguous → 1.0; `NHD`
    ///   degrades to strided access.
    pub fn transfer_efficiency(self, head_sharded: bool) -> f64 {
        match (self, head_sharded) {
            (KvLayout::Hnd, _) => 1.0,
            (KvLayout::Nhd, false) => 1.0,
            (KvLayout::Nhd, true) => seesaw_hw::efficiency::NHD_SHARDED_TRANSFER_EFF,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hnd_never_penalized() {
        assert_eq!(KvLayout::Hnd.transfer_efficiency(false), 1.0);
        assert_eq!(KvLayout::Hnd.transfer_efficiency(true), 1.0);
    }

    #[test]
    fn nhd_penalized_only_when_sharded() {
        assert_eq!(KvLayout::Nhd.transfer_efficiency(false), 1.0);
        let eff = KvLayout::Nhd.transfer_efficiency(true);
        assert!(eff < 0.5, "strided NHD shard copies must be slow, got {eff}");
    }
}
