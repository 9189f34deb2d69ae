//! Model-based property test: the paged KV allocator against a naive
//! reference model, under arbitrary operation sequences.

use proptest::prelude::*;
use seesaw_kv::{KvError, PagedKvCache};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Allocate { id: u64, tokens: usize },
    Free { id: u64 },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..8, 1usize..200).prop_map(|(id, tokens)| Op::Allocate { id, tokens }),
            (0u64..8).prop_map(|id| Op::Free { id }),
        ],
        1..120,
    )
}

/// Reference model: per-sequence token counts, block math recomputed
/// from scratch each step.
#[derive(Default)]
struct RefModel {
    seqs: HashMap<u64, usize>,
}

impl RefModel {
    fn blocks(&self, block: usize) -> usize {
        self.seqs.values().map(|&t| t.max(1).div_ceil(block)).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn paged_cache_matches_reference(ops in ops_strategy()) {
        const CAP: u64 = 4096;
        const BLOCK: usize = 16;
        let total_blocks = (CAP / BLOCK as u64) as usize;
        let mut kv = PagedKvCache::new(CAP, BLOCK);
        let mut reference = RefModel::default();

        for op in ops {
            match op {
                Op::Allocate { id, tokens } => {
                    let need = tokens.max(1).div_ceil(BLOCK);
                    let expect_ok = !reference.seqs.contains_key(&id)
                        && reference.blocks(BLOCK) + need <= total_blocks;
                    match kv.allocate(id, tokens) {
                        Ok(()) => {
                            prop_assert!(expect_ok, "allocate should have failed");
                            reference.seqs.insert(id, tokens);
                        }
                        Err(KvError::DuplicateSeq(_)) => {
                            prop_assert!(reference.seqs.contains_key(&id));
                        }
                        Err(KvError::OutOfBlocks { .. }) => {
                            prop_assert!(!expect_ok, "allocate should have succeeded");
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::Free { id } => {
                    match kv.free(id) {
                        Ok(tokens) => {
                            prop_assert_eq!(reference.seqs.remove(&id), Some(tokens));
                        }
                        Err(KvError::UnknownSeq(_)) => {
                            prop_assert!(!reference.seqs.contains_key(&id));
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
            }
            // Global invariants after every op.
            prop_assert_eq!(kv.num_seqs(), reference.seqs.len());
            prop_assert_eq!(
                kv.used_tokens(),
                reference.seqs.values().sum::<usize>()
            );
            let used_blocks = reference.blocks(BLOCK);
            prop_assert_eq!(
                kv.free_tokens(),
                (total_blocks - used_blocks) * BLOCK
            );
        }
    }
}
