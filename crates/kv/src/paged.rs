//! Paged (block-based) GPU KV cache accounting.

use seesaw_hw::FxBuildHasher;
use std::collections::HashMap;

/// Fx-hashed sequence-id map — engines allocate/free per request per
/// phase, and SipHash is the dominant cost of that bookkeeping. Order
/// never leaks into engine output: all aggregate queries are
/// order-independent integer sums.
type SeqMap = HashMap<u64, SeqAlloc, FxBuildHasher>;

/// Errors from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free blocks for the allocation.
    OutOfBlocks {
        /// Blocks requested.
        need: usize,
        /// Blocks free.
        free: usize,
    },
    /// Operation on a sequence id that is not resident.
    UnknownSeq(u64),
    /// Allocation for a sequence id that is already resident.
    DuplicateSeq(u64),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfBlocks { need, free } => {
                write!(f, "need {need} KV blocks, only {free} free")
            }
            KvError::UnknownSeq(id) => write!(f, "sequence {id} not resident"),
            KvError::DuplicateSeq(id) => write!(f, "sequence {id} already resident"),
        }
    }
}

impl std::error::Error for KvError {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SeqAlloc {
    blocks: usize,
    tokens: usize,
}

/// A paged KV cache for one engine instance (capacity expressed in
/// tokens, allocated in fixed-size blocks — PagedAttention-style
/// bookkeeping without the tensors).
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    block_tokens: usize,
    total_blocks: usize,
    free_blocks: usize,
    seqs: SeqMap,
}

impl PagedKvCache {
    /// Default block size used by the engines (vLLM uses 16).
    pub const DEFAULT_BLOCK_TOKENS: usize = 16;

    /// A cache holding up to `capacity_tokens`, allocated in blocks of
    /// `block_tokens`.
    pub fn new(capacity_tokens: u64, block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "block size must be positive");
        let total_blocks = (capacity_tokens / block_tokens as u64) as usize;
        PagedKvCache {
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
            seqs: SeqMap::default(),
        }
    }

    fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Admit a sequence with `tokens` of KV already materialized
    /// (post-prefill or post-swap-in).
    pub fn allocate(&mut self, id: u64, tokens: usize) -> Result<(), KvError> {
        if self.seqs.contains_key(&id) {
            return Err(KvError::DuplicateSeq(id));
        }
        let need = self.blocks_for(tokens.max(1));
        if need > self.free_blocks {
            return Err(KvError::OutOfBlocks {
                need,
                free: self.free_blocks,
            });
        }
        self.free_blocks -= need;
        self.seqs.insert(
            id,
            SeqAlloc {
                blocks: need,
                tokens,
            },
        );
        Ok(())
    }

    /// Release a sequence, returning its token count.
    pub fn free(&mut self, id: u64) -> Result<usize, KvError> {
        let alloc = self.seqs.remove(&id).ok_or(KvError::UnknownSeq(id))?;
        self.free_blocks += alloc.blocks;
        Ok(alloc.tokens)
    }

    /// Whether `tokens` more tokens could be admitted right now.
    pub fn can_fit(&self, tokens: usize) -> bool {
        self.blocks_for(tokens.max(1)) <= self.free_blocks
    }

    /// Resident sequence count.
    pub fn num_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Tokens currently stored.
    pub fn used_tokens(&self) -> usize {
        self.seqs.values().map(|a| a.tokens).sum()
    }

    /// Token capacity still available (in whole blocks).
    pub fn free_tokens(&self) -> usize {
        self.free_blocks * self.block_tokens
    }

    /// Total token capacity.
    pub fn capacity_tokens(&self) -> usize {
        self.total_blocks * self.block_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_grow_free_roundtrip() {
        let mut kv = PagedKvCache::new(1000, 16);
        kv.allocate(1, 100).unwrap();
        assert_eq!(kv.num_seqs(), 1);
        assert_eq!(kv.used_tokens(), 100);
        // 100 tokens = 7 blocks of 16 = 112 token slots.
        let cap = kv.capacity_tokens();
        assert_eq!(kv.free_tokens(), cap - 7 * 16);
        // A sequence grows by being re-reserved at its final context.
        assert_eq!(kv.free(1).unwrap(), 100);
        kv.allocate(1, 113).unwrap();
        assert_eq!(kv.free_tokens(), cap - 8 * 16);
        assert_eq!(kv.free(1).unwrap(), 113);
        assert_eq!(kv.used_tokens(), 0);
        assert_eq!(kv.free_tokens(), kv.capacity_tokens());
    }

    #[test]
    fn capacity_enforced() {
        let mut kv = PagedKvCache::new(160, 16); // 10 blocks
        kv.allocate(1, 100).unwrap(); // 7 blocks
        let err = kv.allocate(2, 100).unwrap_err();
        assert!(matches!(err, KvError::OutOfBlocks { need: 7, free: 3 }));
        assert!(kv.can_fit(48));
        assert!(!kv.can_fit(49));
    }

    #[test]
    fn duplicate_and_unknown_ids() {
        let mut kv = PagedKvCache::new(1000, 16);
        kv.allocate(1, 10).unwrap();
        assert_eq!(kv.allocate(1, 10).unwrap_err(), KvError::DuplicateSeq(1));
        assert_eq!(kv.free(9).unwrap_err(), KvError::UnknownSeq(9));
    }

    #[test]
    fn allocate_fails_when_full_then_recovers() {
        let mut kv = PagedKvCache::new(32, 16); // 2 blocks
        kv.allocate(1, 16).unwrap();
        kv.allocate(2, 16).unwrap();
        let err = kv.allocate(3, 1).unwrap_err();
        assert!(matches!(err, KvError::OutOfBlocks { need: 1, free: 0 }));
        kv.free(2).unwrap();
        kv.allocate(3, 1).unwrap();
        assert_eq!(kv.used_tokens(), 17);
    }

    #[test]
    fn zero_token_allocation_takes_one_block() {
        let mut kv = PagedKvCache::new(160, 16);
        kv.allocate(1, 0).unwrap();
        assert_eq!(kv.free_tokens(), 144);
    }
}
