//! Per-layer and per-stage cost computation.

use crate::batch::BatchShape;
use seesaw_hw::{AllReduce, ClusterSpec};
use seesaw_model::ModelConfig;
use seesaw_parallel::shard::kv_heads_per_rank;
use seesaw_parallel::ParallelConfig;
use std::sync::Arc;

/// Which inference stage a pass belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Prompt processing (compute/communication bound).
    Prefill,
    /// Auto-regressive generation (weight-streaming bound).
    Decode,
}

/// The five cost components of one decoder layer's forward pass on one
/// tensor-parallel rank (paper Table 3), in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerCost {
    /// Weight streaming from HBM (`T_linear_dm`).
    pub linear_dm: f64,
    /// Linear-layer FLOPs (`T_linear_comp`).
    pub linear_comp: f64,
    /// KV/QKV traffic (`T_attn_dm`).
    pub attn_dm: f64,
    /// Attention-score FLOPs (`T_attn_comp`).
    pub attn_comp: f64,
    /// Tensor-parallel all-reduce (`T_nw`).
    pub comm: f64,
}

impl LayerCost {
    /// Roofline layer time:
    /// `max(linear_dm, linear_comp) + max(attn_dm, attn_comp) + comm`.
    pub fn layer_time(&self) -> f64 {
        self.linear_dm.max(self.linear_comp) + self.attn_dm.max(self.attn_comp) + self.comm
    }

    /// Whether the linear term is memory-bound (weight streaming
    /// dominates) — true in decode at practical batch sizes.
    pub fn linear_memory_bound(&self) -> bool {
        self.linear_dm >= self.linear_comp
    }

    /// Attribute this layer's time to the breakdown buckets used in
    /// Figures 1 and 12.
    pub fn breakdown(&self) -> StageBreakdown {
        let mut b = StageBreakdown::default();
        let linear = self.linear_dm.max(self.linear_comp);
        if self.linear_memory_bound() {
            b.weight_transfer += linear;
        } else {
            b.compute += linear;
        }
        b.compute += self.attn_dm.max(self.attn_comp);
        b.communication += self.comm;
        b
    }

    /// Component-wise sum (mixed prefill+decode batches).
    pub fn add(&self, other: &LayerCost) -> LayerCost {
        LayerCost {
            linear_dm: self.linear_dm + other.linear_dm,
            linear_comp: self.linear_comp + other.linear_comp,
            attn_dm: self.attn_dm + other.attn_dm,
            attn_comp: self.attn_comp + other.attn_comp,
            comm: self.comm + other.comm,
        }
    }
}

/// Time attributed to the paper's breakdown buckets, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// GEMM + attention kernel time.
    pub compute: f64,
    /// Collective (all-reduce) + P2P time.
    pub communication: f64,
    /// Weight-streaming time in memory-bound passes.
    pub weight_transfer: f64,
}

impl StageBreakdown {
    /// Total across buckets.
    pub fn total(&self) -> f64 {
        self.compute + self.communication + self.weight_transfer
    }

    /// Component-wise sum.
    pub fn add(&self, o: &StageBreakdown) -> StageBreakdown {
        StageBreakdown {
            compute: self.compute + o.compute,
            communication: self.communication + o.communication,
            weight_transfer: self.weight_transfer + o.weight_transfer,
        }
    }

    /// Scale every bucket (e.g. by a layer count).
    pub fn scale(&self, k: f64) -> StageBreakdown {
        StageBreakdown {
            compute: self.compute * k,
            communication: self.communication * k,
            weight_transfer: self.weight_transfer * k,
        }
    }
}

/// A decode micro-batch's per-layer cost with its context-free terms
/// evaluated: what [`Roofline::decode_cost`] returns. Only the
/// attention terms are left, linear in the batch's total context.
///
/// The attention regime is settled once, when the cost is built. Each
/// attention term is a per-token rate times the context, rounded
/// twice, so the two terms' computed ratio stays within a few ulps of
/// the ratio of their rates, whatever the context. When the memory
/// rate (`kv_bytes_per_token / hbm_bw`) exceeds the compute rate
/// (`attn_flops_per_token / attn_flops`) by a relative 1e-9, far
/// above that bound, `attn_dm` is the larger term at every context, so
/// [`DecodeCost::layer_time`] evaluates it alone: one division, bit
/// for bit the two-term maximum. Otherwise it evaluates both. Every
/// model preset decodes memory-bound by more than 10× on every GPU
/// preset at every TP degree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeCost {
    linear_dm: f64,
    linear_comp: f64,
    comm: f64,
    /// K and V bytes read per context token (`2·dt·kv_rank·d`).
    kv_bytes_per_token: f64,
    /// Attention FLOPs per context token (`4·hq_rank·d`).
    attn_flops_per_token: f64,
    /// Effective HBM bandwidth, bytes/s.
    hbm_bw: f64,
    /// Effective attention-kernel throughput, FLOP/s.
    attn_flops: f64,
    /// `max(linear_dm, linear_comp)`.
    linear: f64,
    /// Whether `attn_dm ≥ attn_comp` at every context (see above).
    attn_memory_bound: bool,
}

/// Relative margin by which the attention memory rate must exceed the
/// compute rate for [`DecodeCost`] to settle its regime as
/// memory-bound: orders of magnitude above the ~4-ulp (~1e-15)
/// rounding of the two terms.
const ATTN_REGIME_MARGIN: f64 = 1e-9;

impl DecodeCost {
    /// Derive the context-free maximum and the attention regime from
    /// the other fields.
    fn settled(self) -> Self {
        let memory_rate = self.kv_bytes_per_token / self.hbm_bw;
        let compute_rate = self.attn_flops_per_token / self.attn_flops;
        DecodeCost {
            linear: self.linear_dm.max(self.linear_comp),
            attn_memory_bound: memory_rate.is_finite()
                && memory_rate > compute_rate * (1.0 + ATTN_REGIME_MARGIN),
            ..self
        }
    }

    /// Whether attention is memory-bound at every context, so that
    /// [`Self::layer_time`] divides once.
    pub fn attn_memory_bound(&self) -> bool {
        self.attn_memory_bound
    }

    /// The layer cost when the batch's contexts sum to `ctx_tokens`.
    #[inline]
    pub fn layer_cost(&self, ctx_tokens: usize) -> LayerCost {
        let ctx = ctx_tokens as f64;
        LayerCost {
            linear_dm: self.linear_dm,
            linear_comp: self.linear_comp,
            attn_dm: self.kv_bytes_per_token * ctx / self.hbm_bw,
            attn_comp: self.attn_flops_per_token * ctx / self.attn_flops,
            comm: self.comm,
        }
    }

    /// [`LayerCost::layer_time`] of [`Self::layer_cost`], bit for bit:
    /// the attention compute term is evaluated only when the regime
    /// was not settled memory-bound.
    #[inline]
    pub fn layer_time(&self, ctx_tokens: usize) -> f64 {
        let ctx = ctx_tokens as f64;
        let attn_dm = self.kv_bytes_per_token * ctx / self.hbm_bw;
        let attn = if self.attn_memory_bound {
            attn_dm
        } else {
            attn_dm.max(self.attn_flops_per_token * ctx / self.attn_flops)
        };
        self.linear + attn + self.comm
    }
}

/// The analytical performance model: cluster + model + Table 3
/// formulas.
///
/// The cluster and model are `Arc`-shared: constructing a roofline
/// from existing handles is two reference-count bumps, not a deep
/// copy. Every cost is a pure function of the specs and its
/// arguments, evaluated in closed form on each call.
#[derive(Debug, Clone)]
pub struct Roofline {
    // Private so a roofline always models the specs it was built
    // from: rebuilding via `Roofline::new` is the only way to change
    // what is modeled.
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
}

impl Roofline {
    /// Build the model for a cluster/model pair. Accepts owned specs
    /// or `Arc` handles.
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        model: impl Into<Arc<ModelConfig>>,
    ) -> Self {
        let cluster = cluster.into();
        let model = model.into();
        model.validate().expect("invalid model config");
        Roofline { cluster, model }
    }

    /// Hardware under evaluation.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Model under evaluation.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Cost of one decoder layer for a micro-batch of `shape` at
    /// tensor-parallel degree `tp` (per rank; all TP ranks run this
    /// concurrently and then all-reduce): the Table 3 evaluation.
    pub fn layer_cost(&self, stage: Stage, shape: &BatchShape, tp: usize) -> LayerCost {
        if shape.is_empty() {
            return LayerCost::default();
        }
        match stage {
            Stage::Prefill => self.prefill_layer_cost(shape, tp),
            // One new token per sequence.
            Stage::Decode => self.decode_cost(shape.new_tokens, tp).layer_cost(shape.ctx_tokens),
        }
    }

    fn prefill_layer_cost(&self, shape: &BatchShape, tp: usize) -> LayerCost {
        LayerCost {
            linear_dm: self.weight_streaming(tp),
            comm: self.allreduce_pair(&self.cluster.interconnect.allreduce(tp), shape.new_tokens),
            ..self.prefill_terms(shape, tp)
        }
    }

    /// [`Self::prefill_layer_cost`] without the terms a pass pays once
    /// however many sub-batches it carries: weight streaming
    /// (`linear_dm`) and the all-reduce (`comm`) are zero.
    fn prefill_terms(&self, shape: &BatchShape, tp: usize) -> LayerCost {
        let m = &self.model;
        let g = &self.cluster.gpu;
        let dt = m.dtype.bytes() as f64;
        let hq_rank = (m.num_heads as f64 / tp as f64).max(1.0);
        let kv_rank = kv_heads_per_rank(m.num_kv_heads, tp) as f64;
        let d = m.head_dim as f64;
        // Q for new tokens + K/V over the full context (covers both
        // whole-prompt and chunked prefill).
        let bytes = dt
            * d
            * (shape.new_tokens as f64 * hq_rank + 2.0 * kv_rank * shape.ctx_tokens as f64);
        let flops = 2.0 * hq_rank * d * shape.sq_sum;
        LayerCost {
            linear_dm: 0.0,
            linear_comp: self.linear_compute(shape.new_tokens, tp),
            attn_dm: g.hbm_time(bytes),
            attn_comp: g.attn_time(flops),
            comm: 0.0,
        }
    }

    /// One layer's weight streaming: once per pass, sharded by TP.
    fn weight_streaming(&self, tp: usize) -> f64 {
        let g = &self.cluster.gpu;
        g.hbm_time(self.model.weight_bytes_per_layer() as f64 / tp as f64)
    }

    /// One layer's linear FLOPs over the pass's new tokens, sharded by
    /// TP.
    fn linear_compute(&self, new_tokens: usize, tp: usize) -> f64 {
        let g = &self.cluster.gpu;
        g.gemm_time(self.model.linear_flops_per_token_layer() * new_tokens as f64 / tp as f64)
    }

    /// A layer's communication: two all-reduces `ar` over the
    /// activation tensor of `tokens` new tokens (tokens × hidden,
    /// replicated on every rank).
    fn allreduce_pair(&self, ar: &AllReduce, tokens: usize) -> f64 {
        let m = &self.model;
        2.0 * ar.time(tokens as f64 * m.hidden as f64 * m.dtype.bytes() as f64)
    }

    /// The decode layer cost of a micro-batch of `seqs` sequences at
    /// TP degree `tp`, with every term but the context-dependent
    /// attention evaluated, and the attention regime settled, up front.
    /// Within a decode burst only a slot's total context changes from
    /// round to round, so one `DecodeCost` per slot serves every round:
    /// [`DecodeCost::layer_time`] is a few flops (one division when
    /// attention is memory-bound), bit-identical to
    /// `layer_cost(Stage::Decode, ..).layer_time()` on the same batch.
    ///
    /// Panics on an empty batch (`seqs == 0`); `layer_cost` prices an
    /// empty shape at zero before it gets here.
    pub fn decode_cost(&self, seqs: usize, tp: usize) -> DecodeCost {
        assert!(seqs > 0, "a decode batch holds at least one sequence");
        DecodeCost {
            linear_dm: self.weight_streaming(tp),
            comm: self.allreduce_pair(&self.cluster.interconnect.allreduce(tp), seqs),
            ..self.decode_terms(seqs, tp)
        }
        .settled()
    }

    /// [`Self::decode_cost`] without weight streaming and the
    /// all-reduce (`linear_dm` and `comm` are zero), and unsettled:
    /// only its [`DecodeCost::layer_cost`] is meaningful.
    fn decode_terms(&self, seqs: usize, tp: usize) -> DecodeCost {
        let m = &self.model;
        let g = &self.cluster.gpu;
        let dt = m.dtype.bytes() as f64;
        let hq_rank = (m.num_heads as f64 / tp as f64).max(1.0);
        let kv_rank = kv_heads_per_rank(m.num_kv_heads, tp) as f64;
        let d = m.head_dim as f64;
        DecodeCost {
            linear_dm: 0.0,
            linear_comp: self.linear_compute(seqs, tp),
            comm: 0.0,
            // Read K and V across each sequence's context.
            kv_bytes_per_token: 2.0 * dt * kv_rank * d,
            attn_flops_per_token: 4.0 * hq_rank * d,
            hbm_bw: g.effective_hbm_bw(),
            attn_flops: g.effective_attn_flops(),
            // Derived by `settled`, which `decode_cost` applies once
            // the other terms are in; `layer_cost_mixed` reads only
            // `layer_cost`.
            linear: 0.0,
            attn_memory_bound: false,
        }
    }

    /// Cost of one layer for a *mixed* batch (chunked prefill
    /// piggybacking decodes) on a TP group whose all-reduce is `ar`
    /// ([`Interconnect::allreduce`](seesaw_hw::Interconnect::allreduce)
    /// of the TP degree, which a caller pricing many rounds keeps per
    /// layout): weights stream once; attention and compute terms
    /// accumulate; the all-reduce covers the combined token count. With
    /// no prefill work it is the decode cost: the layer time of
    /// `layer_cost_mixed(∅, decode_total(n, c))` is bit-identical to
    /// `decode_cost(n, tp).layer_time(c)` (the merge adds zeros, and
    /// the all-reduce covers the same `n` tokens).
    pub fn layer_cost_mixed(
        &self,
        prefill: &BatchShape,
        decode: &BatchShape,
        ar: &AllReduce,
    ) -> LayerCost {
        if prefill.is_empty() && decode.is_empty() {
            return LayerCost::default();
        }
        let tp = ar.ranks();
        // Each sub-batch's own terms; the pass streams the weights and
        // all-reduces once.
        let p = if prefill.is_empty() {
            LayerCost::default()
        } else {
            self.prefill_terms(prefill, tp)
        };
        let d = if decode.is_empty() {
            LayerCost::default()
        } else {
            self.decode_terms(decode.new_tokens, tp).layer_cost(decode.ctx_tokens)
        };
        LayerCost {
            linear_dm: self.weight_streaming(tp),
            linear_comp: p.linear_comp + d.linear_comp,
            attn_dm: p.attn_dm + d.attn_dm,
            attn_comp: p.attn_comp + d.attn_comp,
            comm: self.allreduce_pair(ar, prefill.new_tokens + decode.new_tokens),
        }
    }

    /// Time for pipeline stage `pp_rank` of `config` to process one
    /// micro-batch of `shape`: its layer count × the per-layer cost.
    pub fn stage_time(
        &self,
        config: ParallelConfig,
        pp_rank: usize,
        stage: Stage,
        shape: &BatchShape,
    ) -> f64 {
        let (s, e) = config.stage_layers(self.model.num_layers, pp_rank);
        (e - s) as f64 * self.layer_cost(stage, shape, config.tp).layer_time()
    }

    /// Bytes of activations passed between adjacent pipeline stages
    /// for a micro-batch of `shape`.
    pub fn p2p_bytes(&self, shape: &BatchShape) -> f64 {
        shape.new_tokens as f64 * self.model.hidden as f64 * self.model.dtype.bytes() as f64
    }

    /// Full-pipeline breakdown for one micro-batch (all layers),
    /// bucketed for the figures.
    pub fn pass_breakdown(
        &self,
        config: ParallelConfig,
        stage: Stage,
        shape: &BatchShape,
    ) -> StageBreakdown {
        let per_layer = self.layer_cost(stage, shape, config.tp).breakdown();
        let mut b = per_layer.scale(self.model.num_layers as f64);
        if config.pp > 1 {
            b.communication += (config.pp - 1) as f64
                * self.cluster.interconnect.p2p_time(self.p2p_bytes(shape));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;

    fn rl() -> Roofline {
        Roofline::new(ClusterSpec::l4x8(), presets::llama2_13b())
    }

    #[test]
    fn decode_is_weight_streaming_bound_at_small_batch() {
        let r = rl();
        let c = r.layer_cost(Stage::Decode, &BatchShape::decode_uniform(16, 512), 1);
        assert!(c.linear_memory_bound(), "{c:?}");
        assert!(c.breakdown().weight_transfer > c.breakdown().compute);
    }

    #[test]
    fn prefill_is_compute_bound() {
        let r = rl();
        let c = r.layer_cost(Stage::Prefill, &BatchShape::prefill(&[512; 16]), 1);
        assert!(!c.linear_memory_bound(), "{c:?}");
    }

    #[test]
    fn huge_decode_batch_becomes_compute_bound() {
        let r = rl();
        let small = r.layer_cost(Stage::Decode, &BatchShape::decode_uniform(1, 512), 1);
        let huge = r.layer_cost(Stage::Decode, &BatchShape::decode_uniform(4096, 512), 1);
        assert!(small.linear_memory_bound());
        assert!(!huge.linear_memory_bound());
    }

    #[test]
    fn tp_shrinks_weight_streaming_but_adds_comm() {
        // The core Seesaw trade-off (paper Fig 3).
        let r = rl();
        let shape = BatchShape::decode_uniform(64, 512);
        let t1 = r.layer_cost(Stage::Decode, &shape, 1);
        let t4 = r.layer_cost(Stage::Decode, &shape, 4);
        assert!(t4.linear_dm < t1.linear_dm / 3.0);
        assert!(t4.comm > t1.comm);
        assert_eq!(t1.comm, 0.0);
    }

    #[test]
    fn prefill_comm_share_grows_with_tp_on_pcie() {
        // Figure 1(a): all-reduce share escalates with TP degree.
        let r = rl();
        let shape = BatchShape::prefill(&[512; 16]);
        let share = |tp: usize| {
            let c = r.layer_cost(Stage::Prefill, &shape, tp);
            c.comm / c.layer_time()
        };
        assert!(share(2) < share(4));
        assert!(share(4) < share(8));
        assert!(share(8) > 0.3, "TP8 prefill should be comm-dominated");
    }

    #[test]
    fn nvlink_suppresses_comm_share() {
        let pcie = Roofline::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let nvl = Roofline::new(ClusterSpec::a100x8_nvlink(), presets::llama2_70b());
        let shape = BatchShape::prefill(&[1024; 8]);
        let cp = pcie.layer_cost(Stage::Prefill, &shape, 8);
        let cn = nvl.layer_cost(Stage::Prefill, &shape, 8);
        assert!(cn.comm < cp.comm / 10.0);
    }

    #[test]
    fn mixed_batch_streams_weights_once() {
        let r = rl();
        let p = BatchShape::prefill_chunk(256, 0);
        let d = BatchShape::decode_uniform(32, 600);
        let mixed = r.layer_cost_mixed(&p, &d, &r.cluster().interconnect.allreduce(2));
        let p_only = r.layer_cost(Stage::Prefill, &p, 2);
        let d_only = r.layer_cost(Stage::Decode, &d, 2);
        assert!(mixed.linear_dm <= p_only.linear_dm + d_only.linear_dm);
        assert!((mixed.linear_dm - p_only.linear_dm.max(d_only.linear_dm)).abs() < 1e-12);
        // But compute accumulates.
        assert!(mixed.linear_comp > p_only.linear_comp.max(d_only.linear_comp));
    }

    #[test]
    fn stage_time_scales_with_layers() {
        let r = rl();
        let cfg = ParallelConfig::pp(4); // 40 layers -> 10 per stage
        let shape = BatchShape::prefill(&[512; 4]);
        let t0 = r.stage_time(cfg, 0, Stage::Prefill, &shape);
        let full = r.stage_time(ParallelConfig::new(1, 1, 1), 0, Stage::Prefill, &shape);
        assert!((t0 * 4.0 - full).abs() / full < 0.05);
    }

    #[test]
    fn empty_shape_costs_nothing() {
        let r = rl();
        let c = r.layer_cost(Stage::Prefill, &BatchShape::empty(), 4);
        assert_eq!(c.layer_time(), 0.0);
        let ar = r.cluster().interconnect.allreduce(4);
        let m = r.layer_cost_mixed(&BatchShape::empty(), &BatchShape::empty(), &ar);
        assert_eq!(m.layer_time(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sequence")]
    fn decode_cost_rejects_an_empty_batch() {
        rl().decode_cost(0, 4);
    }

    #[test]
    fn breakdown_total_matches_layer_time() {
        let r = rl();
        for (stage, shape) in [
            (Stage::Prefill, BatchShape::prefill(&[700; 8])),
            (Stage::Decode, BatchShape::decode_uniform(48, 900)),
        ] {
            let c = r.layer_cost(stage, &shape, 4);
            assert!((c.breakdown().total() - c.layer_time()).abs() < 1e-12);
        }
    }
}
