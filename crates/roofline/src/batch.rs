//! Micro-batch shape descriptors.

/// The shape of one micro-batch presented to a forward pass, carrying
/// exactly the aggregates the roofline needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchShape {
    /// Number of sequences in the micro-batch.
    pub seqs: usize,
    /// New tokens processed this pass (prompt tokens for prefill; one
    /// per sequence for decode; chunk tokens for chunked prefill).
    pub new_tokens: usize,
    /// Σ `sᵢ²` over sequences — drives quadratic prefill attention.
    /// Zero for pure decode.
    pub sq_sum: f64,
    /// Σ context length over sequences — drives decode KV reads. For
    /// prefill this equals `new_tokens` (the KV written/read is the
    /// prompt itself).
    pub ctx_tokens: usize,
}

impl BatchShape {
    /// A prefill micro-batch over whole prompts.
    pub fn prefill(prompt_lens: &[usize]) -> Self {
        let new_tokens: usize = prompt_lens.iter().sum();
        let sq_sum: f64 = prompt_lens.iter().map(|&s| (s as f64) * (s as f64)).sum();
        BatchShape {
            seqs: prompt_lens.len(),
            new_tokens,
            sq_sum,
            ctx_tokens: new_tokens,
        }
    }

    /// A single-sequence prefill *chunk*: `chunk` new tokens of a
    /// prompt whose already-processed prefix is `prefix` tokens long.
    /// Attention cost covers the new tokens attending to
    /// `prefix + chunk` context.
    pub fn prefill_chunk(chunk: usize, prefix: usize) -> Self {
        let total = (prefix + chunk) as f64;
        // New-token attention work: Σ over the chunk of (prefix..total)
        // ≈ chunk · (prefix + total)/2 positions, ×2 for QKᵀ and A·V
        // matmuls is folded into the 2·h·d·(..) coefficient downstream.
        let sq_sum = chunk as f64 * (prefix as f64 + total);
        BatchShape {
            seqs: 1,
            new_tokens: chunk,
            sq_sum,
            ctx_tokens: prefix + chunk,
        }
    }

    /// A decode micro-batch: one new token per sequence, each with its
    /// current context length.
    pub fn decode(ctx_lens: &[usize]) -> Self {
        Self::decode_iter(ctx_lens.iter().copied())
    }

    /// [`BatchShape::decode`] from an iterator of context lengths, so
    /// hot loops need not materialize a slice.
    pub fn decode_iter(ctx_lens: impl IntoIterator<Item = usize>) -> Self {
        let (seqs, ctx_tokens) = ctx_lens
            .into_iter()
            .fold((0, 0), |(seqs, total), ctx| (seqs + 1, total + ctx));
        Self::decode_total(seqs, ctx_tokens)
    }

    /// A decode micro-batch of `seqs` sequences whose contexts sum to
    /// `ctx_tokens`: what [`BatchShape::decode`] builds from the
    /// individual lengths.
    pub fn decode_total(seqs: usize, ctx_tokens: usize) -> Self {
        BatchShape {
            seqs,
            new_tokens: seqs,
            sq_sum: 0.0,
            ctx_tokens,
        }
    }

    /// [`BatchShape::prefill`] from an iterator of prompt lengths, so
    /// hot loops need not materialize a slice.
    pub fn prefill_iter(prompt_lens: impl IntoIterator<Item = usize>) -> Self {
        let mut shape = Self::empty();
        for s in prompt_lens {
            shape.seqs += 1;
            shape.new_tokens += s;
            shape.sq_sum += (s as f64) * (s as f64);
        }
        shape.ctx_tokens = shape.new_tokens;
        shape
    }

    /// A decode micro-batch summarized by batch size and mean context
    /// (used in sweeps where per-sequence contexts are uniform).
    pub fn decode_uniform(batch: usize, ctx: usize) -> Self {
        BatchShape {
            seqs: batch,
            new_tokens: batch,
            sq_sum: 0.0,
            ctx_tokens: batch * ctx,
        }
    }

    /// Merge two micro-batch shapes (chunked prefill piggybacking
    /// decodes — Sarathi-style mixed batches).
    pub fn merge(&self, other: &BatchShape) -> BatchShape {
        BatchShape {
            seqs: self.seqs + other.seqs,
            new_tokens: self.new_tokens + other.new_tokens,
            sq_sum: self.sq_sum + other.sq_sum,
            ctx_tokens: self.ctx_tokens + other.ctx_tokens,
        }
    }

    /// An empty shape (identity for [`Self::merge`]).
    pub fn empty() -> Self {
        BatchShape {
            seqs: 0,
            new_tokens: 0,
            sq_sum: 0.0,
            ctx_tokens: 0,
        }
    }

    /// Whether the shape contains no work.
    pub fn is_empty(&self) -> bool {
        self.seqs == 0 && self.new_tokens == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_aggregates() {
        let b = BatchShape::prefill(&[100, 200]);
        assert_eq!(b.seqs, 2);
        assert_eq!(b.new_tokens, 300);
        assert_eq!(b.ctx_tokens, 300);
        assert!((b.sq_sum - (100.0 * 100.0 + 200.0 * 200.0)).abs() < 1e-9);
    }

    #[test]
    fn decode_aggregates() {
        let b = BatchShape::decode(&[50, 70, 90]);
        assert_eq!(b.seqs, 3);
        assert_eq!(b.new_tokens, 3);
        assert_eq!(b.ctx_tokens, 210);
        assert_eq!(b.sq_sum, 0.0);
    }

    #[test]
    fn chunks_sum_to_whole_prompt_attention() {
        // Prefilling 1000 tokens in 4 chunks of 250 should do the same
        // total attention work as one 1000-token pass.
        let whole = BatchShape::prefill(&[1000]);
        let mut acc = 0.0;
        for i in 0..4 {
            acc += BatchShape::prefill_chunk(250, i * 250).sq_sum;
        }
        assert!(
            (acc - whole.sq_sum).abs() / whole.sq_sum < 0.01,
            "chunked {acc} vs whole {}",
            whole.sq_sum
        );
    }

    #[test]
    fn merge_is_componentwise_sum() {
        let p = BatchShape::prefill(&[128]);
        let d = BatchShape::decode(&[512, 512]);
        let m = p.merge(&d);
        assert_eq!(m.seqs, 3);
        assert_eq!(m.new_tokens, 130);
        assert_eq!(m.ctx_tokens, 128 + 1024);
        let e = BatchShape::empty();
        assert_eq!(p.merge(&e), p);
        assert!(e.is_empty());
    }
}
