//! Property tests for model accounting: scaling laws that must hold
//! for any architecture.

use proptest::prelude::*;
use seesaw_model::{Dtype, ModelConfig};

fn arch_strategy() -> impl Strategy<Value = ModelConfig> {
    (1usize..100, 1usize..64, 0usize..4, 6usize..10, 1usize..6).prop_map(
        |(layers, heads, kv_shift, head_dim_log, inter_mult)| {
            let kv = (heads >> kv_shift).max(1);
            // Force divisibility.
            let heads = kv * (heads / kv).max(1);
            let head_dim = 1 << head_dim_log;
            let hidden = heads * head_dim;
            ModelConfig {
                name: "gen".into(),
                num_layers: layers,
                hidden,
                num_heads: heads,
                num_kv_heads: kv,
                head_dim,
                intermediate: hidden * inter_mult,
                vocab: 32000,
                dtype: Dtype::F16,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated architectures validate.
    #[test]
    fn generated_archs_validate(m in arch_strategy()) {
        prop_assert!(m.validate().is_ok(), "{:?}", m.validate());
    }

    /// Weight bytes = 2 bytes/param at fp16; params decompose into
    /// layers + embeddings exactly.
    #[test]
    fn bytes_track_params(m in arch_strategy()) {
        prop_assert_eq!(m.weight_bytes_total(), 2 * m.total_params());
        prop_assert_eq!(
            m.total_params(),
            m.params_per_layer() * m.num_layers as u64 + m.embedding_params()
        );
        prop_assert_eq!(
            m.params_per_layer(),
            m.attn_params_per_layer() + m.mlp_params_per_layer()
        );
    }

    /// KV bytes scale linearly with layers and with KV heads.
    #[test]
    fn kv_scaling(m in arch_strategy()) {
        prop_assert_eq!(
            m.kv_bytes_per_token(),
            m.kv_bytes_per_token_layer() * m.num_layers as u64
        );
        prop_assert_eq!(
            m.kv_bytes_per_token_layer(),
            2 * (m.num_kv_heads * m.head_dim) as u64 * 2
        );
    }
}
