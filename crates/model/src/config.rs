//! Architecture configuration and derived accounting.

/// Numeric precision of weights and KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 16-bit floating point (the paper's setting).
    F16,
    /// 32-bit floating point.
    F32,
}

impl Dtype {
    /// Bytes per element.
    pub const fn bytes(self) -> u64 {
        match self {
            Dtype::F16 => 2,
            Dtype::F32 => 4,
        }
    }
}

/// Decoder-only transformer architecture description.
///
/// Uses the LLaMA-family block structure: per layer, a grouped-query
/// attention block (`q/k/v/o` projections) and a SwiGLU MLP
/// (`gate/up/down` projections), plus tied-ish input/output embeddings
/// counted once each at the model level.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"CodeLLaMA-34B"`.
    pub name: String,
    /// Number of decoder layers `L`.
    pub num_layers: usize,
    /// Model (hidden) dimension.
    pub hidden: usize,
    /// Number of query heads `h_q`.
    pub num_heads: usize,
    /// Number of KV heads `h_kv` (< `num_heads` under GQA).
    pub num_kv_heads: usize,
    /// Per-head dimension `d`.
    pub head_dim: usize,
    /// MLP intermediate dimension.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Weight / KV precision.
    pub dtype: Dtype,
}

impl ModelConfig {
    /// Validate internal consistency (head counts divide, dims match).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_heads * self.head_dim != self.hidden {
            return Err(format!(
                "{}: num_heads*head_dim ({}) != hidden ({})",
                self.name,
                self.num_heads * self.head_dim,
                self.hidden
            ));
        }
        if !self.num_heads.is_multiple_of(self.num_kv_heads) {
            return Err(format!(
                "{}: num_heads ({}) not divisible by num_kv_heads ({})",
                self.name, self.num_heads, self.num_kv_heads
            ));
        }
        if self.num_layers == 0 || self.hidden == 0 || self.vocab == 0 {
            return Err(format!("{}: zero-sized dimension", self.name));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Parameters and weight bytes
    // ------------------------------------------------------------------

    /// Parameters in one layer's attention block
    /// (`q`: h×h_q·d, `k`,`v`: h×h_kv·d, `o`: h_q·d×h).
    pub fn attn_params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let qd = (self.num_heads * self.head_dim) as u64;
        let kvd = (self.num_kv_heads * self.head_dim) as u64;
        h * qd + 2 * h * kvd + qd * h
    }

    /// Parameters in one layer's MLP block (SwiGLU: 3 matrices of
    /// h×intermediate).
    pub fn mlp_params_per_layer(&self) -> u64 {
        3 * self.hidden as u64 * self.intermediate as u64
    }

    /// Parameters per decoder layer (`W` in the paper's notation).
    pub fn params_per_layer(&self) -> u64 {
        self.attn_params_per_layer() + self.mlp_params_per_layer()
    }

    /// Embedding + LM-head parameters.
    pub fn embedding_params(&self) -> u64 {
        2 * self.vocab as u64 * self.hidden as u64
    }

    /// Total model parameters.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * self.num_layers as u64 + self.embedding_params()
    }

    /// Bytes of one layer's weights at the configured dtype.
    pub fn weight_bytes_per_layer(&self) -> u64 {
        self.params_per_layer() * self.dtype.bytes()
    }

    /// Bytes of the whole model's weights.
    pub fn weight_bytes_total(&self) -> u64 {
        self.total_params() * self.dtype.bytes()
    }

    // ------------------------------------------------------------------
    // KV cache
    // ------------------------------------------------------------------

    /// KV-cache bytes per token for one layer (K and V, all KV heads).
    pub fn kv_bytes_per_token_layer(&self) -> u64 {
        2 * (self.num_kv_heads * self.head_dim) as u64 * self.dtype.bytes()
    }

    /// KV-cache bytes per token across all layers.
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_bytes_per_token_layer() * self.num_layers as u64
    }

    // ------------------------------------------------------------------
    // FLOPs (per layer unless stated otherwise)
    // ------------------------------------------------------------------

    /// Linear-layer FLOPs per token per layer: `2·W` (one multiply-add
    /// per parameter per token).
    pub fn linear_flops_per_token_layer(&self) -> f64 {
        2.0 * self.params_per_layer() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn dtype_bytes() {
        assert_eq!(Dtype::F16.bytes(), 2);
        assert_eq!(Dtype::F32.bytes(), 4);
    }

    #[test]
    fn all_presets_validate() {
        for m in presets::all() {
            m.validate().unwrap();
        }
    }

    #[test]
    fn rejects_mismatched_heads() {
        let mut m = presets::llama2_13b();
        m.head_dim = 64;
        assert!(m.validate().is_err());
        let mut m = presets::llama2_70b();
        m.num_kv_heads = 7;
        assert!(m.validate().is_err());
    }

    #[test]
    fn kv_bytes_scale_with_layers_and_heads() {
        let m = presets::llama2_70b();
        assert_eq!(
            m.kv_bytes_per_token(),
            m.kv_bytes_per_token_layer() * m.num_layers as u64
        );
        // GQA: 70B has 8 KV heads of dim 128 => 2*8*128*2 = 4096 B/layer.
        assert_eq!(m.kv_bytes_per_token_layer(), 4096);
    }

    #[test]
    fn linear_flops_match_two_per_param() {
        let m = presets::codellama_34b();
        assert!(
            (m.linear_flops_per_token_layer() - 2.0 * m.params_per_layer() as f64).abs() < 1.0
        );
    }
}
