//! Property tests on the roofline cost model: monotonicity and
//! scaling laws that must hold for any batch shape.

use proptest::prelude::*;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::shard::kv_heads_per_rank;
use seesaw_roofline::{BatchShape, LayerCost, Roofline, Stage};

fn rl() -> Roofline {
    Roofline::new(ClusterSpec::a10x8(), presets::codellama_34b())
}

/// Every cluster preset.
fn clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::a10x8(),
        ClusterSpec::a10x4(),
        ClusterSpec::l4x8(),
        ClusterSpec::l4x4(),
        ClusterSpec::a100x8_nvlink(),
        ClusterSpec::a100x8_pcie(),
    ]
}

/// The Table 3 decode layer time written out term by term, in the
/// order `Roofline::layer_cost` evaluated it before its decode terms
/// were hoisted into `DecodeCost`.
fn table3_decode_layer_time(rl: &Roofline, shape: &BatchShape, tp: usize) -> f64 {
    let m = rl.model();
    let g = &rl.cluster().gpu;
    let dt = m.dtype.bytes() as f64;
    let tpf = tp as f64;
    let hq_rank = (m.num_heads as f64 / tpf).max(1.0);
    let kv_rank = kv_heads_per_rank(m.num_kv_heads, tp) as f64;
    let d = m.head_dim as f64;
    let linear_dm = g.hbm_time(m.weight_bytes_per_layer() as f64 / tpf);
    let linear_comp =
        g.gemm_time(m.linear_flops_per_token_layer() * shape.new_tokens as f64 / tpf);
    let attn_dm = g.hbm_time(2.0 * dt * kv_rank * d * shape.ctx_tokens as f64);
    let attn_comp = g.attn_time(4.0 * hq_rank * d * shape.ctx_tokens as f64);
    let ar_bytes = shape.new_tokens as f64 * m.hidden as f64 * dt;
    let comm = 2.0 * rl.cluster().interconnect.allreduce_time(ar_bytes, tp);
    linear_dm.max(linear_comp) + attn_dm.max(attn_comp) + comm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layer time is monotone in batch size for decode.
    #[test]
    fn decode_cost_monotone_in_batch(b in 1usize..512, ctx in 16usize..4000) {
        let r = rl();
        let small = r.layer_cost(Stage::Decode, &BatchShape::decode_uniform(b, ctx), 2);
        let large = r.layer_cost(Stage::Decode, &BatchShape::decode_uniform(b + 1, ctx), 2);
        prop_assert!(large.layer_time() >= small.layer_time() - 1e-15);
    }

    /// Raising TP never increases the linear data-movement term and
    /// never decreases communication (for tokens > 0).
    #[test]
    fn tp_tradeoff_direction(tokens in 1usize..4096) {
        let r = rl();
        let shape = BatchShape::prefill(&[tokens]);
        let mut prev_dm = f64::INFINITY;
        let mut prev_comm = 0.0;
        for tp in [1usize, 2, 4, 8] {
            let c = r.layer_cost(Stage::Prefill, &shape, tp);
            prop_assert!(c.linear_dm <= prev_dm + 1e-15);
            prop_assert!(c.comm >= prev_comm - 1e-15);
            prev_dm = c.linear_dm;
            prev_comm = c.comm;
        }
    }

    /// Breakdown buckets always sum to the layer time.
    #[test]
    fn breakdown_is_exhaustive(b in 1usize..256, ctx in 16usize..3000, tp in 1usize..4) {
        let r = rl();
        let tp = 1 << tp; // 2,4,8
        let c = r.layer_cost(Stage::Decode, &BatchShape::decode_uniform(b, ctx), tp);
        prop_assert!((c.breakdown().total() - c.layer_time()).abs() < 1e-12);
    }

    /// Splitting a prompt into chunks conserves total attention work
    /// (within 1%) and total token count exactly.
    #[test]
    fn chunking_conserves_work(len in 64usize..4000, nchunks in 1usize..8) {
        let whole = BatchShape::prefill(&[len]);
        let chunk = len.div_ceil(nchunks);
        let mut done = 0;
        let mut sq = 0.0;
        let mut tokens = 0;
        while done < len {
            let take = chunk.min(len - done);
            let c = BatchShape::prefill_chunk(take, done);
            sq += c.sq_sum;
            tokens += c.new_tokens;
            done += take;
        }
        prop_assert_eq!(tokens, whole.new_tokens);
        let rel = (sq - whole.sq_sum).abs() / whole.sq_sum;
        prop_assert!(rel < 0.01, "rel err {rel}");
    }

    /// Mixed-batch cost is bounded by the sum of the pure costs and at
    /// least the max of them.
    #[test]
    fn mixed_cost_bounds(chunk in 16usize..1024, b in 1usize..128, ctx in 64usize..2000) {
        let r = rl();
        let p = BatchShape::prefill_chunk(chunk, 0);
        let d = BatchShape::decode_uniform(b, ctx);
        let mixed = r.layer_cost_mixed(&p, &d, &r.cluster().interconnect.allreduce(2)).layer_time();
        let pure_p = r.layer_cost(Stage::Prefill, &p, 2).layer_time();
        let pure_d = r.layer_cost(Stage::Decode, &d, 2).layer_time();
        prop_assert!(mixed <= pure_p + pure_d + 1e-12);
        prop_assert!(mixed >= pure_p.max(pure_d) * 0.5, "weights stream once, but work adds");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A burst evaluates each slot's decode cost once and asks it for
    /// the layer time at every round's context; that must be the full
    /// `layer_cost` evaluation bit for bit, on every cluster (PCIe and
    /// NVLink all-reduce), every model (MHA and GQA KV-head sharding)
    /// and every TP degree, and equal the Table 3 closed form.
    #[test]
    fn decode_cost_is_layer_cost_bit_for_bit(
        cluster in 0usize..6,
        model in 0usize..4,
        tp in prop::sample::select(vec![1usize, 2, 4, 8]),
        ctxs in prop::collection::vec(1usize..32768, 1..65),
    ) {
        let rl = Roofline::new(clusters()[cluster].clone(), presets::all()[model].clone());
        let shape = BatchShape::decode(&ctxs);
        let full = rl.layer_cost(Stage::Decode, &shape, tp);
        let cost = rl.decode_cost(ctxs.len(), tp);
        prop_assert_eq!(
            cost.layer_time(shape.ctx_tokens).to_bits(),
            full.layer_time().to_bits()
        );
        prop_assert_eq!(cost.layer_cost(shape.ctx_tokens), full);
        prop_assert_eq!(
            table3_decode_layer_time(&rl, &shape, tp).to_bits(),
            full.layer_time().to_bits()
        );
    }
}

/// `layer_cost_mixed` as it was before it stopped computing the
/// sub-batches' own all-reduces and weight streaming: both pure costs
/// in full (each streaming the weights), the larger weight-streaming
/// term, then one all-reduce over the combined tokens in place of
/// theirs, its rank bandwidth derived afresh.
fn three_all_reduce_mixed(
    rl: &Roofline,
    prefill: &BatchShape,
    decode: &BatchShape,
    tp: usize,
) -> LayerCost {
    let p = rl.layer_cost(Stage::Prefill, prefill, tp);
    let d = rl.layer_cost(Stage::Decode, decode, tp);
    let m = rl.model();
    let tokens = prefill.new_tokens + decode.new_tokens;
    let ar_bytes = tokens as f64 * m.hidden as f64 * m.dtype.bytes() as f64;
    let c = LayerCost {
        linear_dm: p.linear_dm.max(d.linear_dm),
        linear_comp: p.linear_comp + d.linear_comp,
        attn_dm: p.attn_dm + d.attn_dm,
        attn_comp: p.attn_comp + d.attn_comp,
        comm: 2.0 * rl.cluster().interconnect.allreduce_time(ar_bytes, tp),
    };
    if prefill.is_empty() && decode.is_empty() {
        return LayerCost::default();
    }
    c
}

fn cost_bits(c: LayerCost) -> [u64; 5] {
    [c.linear_dm, c.linear_comp, c.attn_dm, c.attn_comp, c.comm].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mixed round prices its pure-decode slots from the slot's
    /// decode price: with no prefill work, the mixed cost must be the
    /// decode cost bit for bit, and the pass's activation hop must
    /// carry the bytes of the slot's decode batch whatever its context.
    #[test]
    fn pure_decode_mixed_cost_is_the_decode_cost(
        cluster in 0usize..6,
        model in 0usize..4,
        tp in prop::sample::select(vec![1usize, 2, 4, 8]),
        seqs in 1usize..512,
        ctx in 0usize..1 << 22,
    ) {
        let rl = Roofline::new(clusters()[cluster].clone(), presets::all()[model].clone());
        let (none, decode) = (BatchShape::empty(), BatchShape::decode_total(seqs, ctx));
        let ar = rl.cluster().interconnect.allreduce(tp);
        let mixed = rl.layer_cost_mixed(&none, &decode, &ar);
        let cost = rl.decode_cost(seqs, tp);
        prop_assert_eq!(mixed.layer_time().to_bits(), cost.layer_time(ctx).to_bits());
        prop_assert_eq!(cost_bits(mixed), cost_bits(cost.layer_cost(ctx)));
        prop_assert_eq!(
            rl.p2p_bytes(&none.merge(&decode)).to_bits(),
            rl.p2p_bytes(&BatchShape::decode_total(seqs, 0)).to_bits()
        );
    }

    /// `layer_cost_mixed` evaluates one all-reduce, not three, streams
    /// the weights once, and takes the all-reduce's rank bandwidth from
    /// the layout's `AllReduce`; its cost must be the three-all-reduce
    /// formula's bit for bit, with a chunk, a decode batch, both or
    /// neither.
    #[test]
    fn mixed_cost_matches_the_three_all_reduce_formula(
        cluster in 0usize..6,
        model in 0usize..4,
        tp in prop::sample::select(vec![1usize, 2, 4, 8]),
        chunk in (0usize..4097, 0usize..16384),
        seqs in 0usize..256,
        ctx in 0usize..1 << 20,
    ) {
        let rl = Roofline::new(clusters()[cluster].clone(), presets::all()[model].clone());
        let prefill = match chunk {
            (0, _) => BatchShape::empty(),
            (tokens, prefix) => BatchShape::prefill_chunk(tokens, prefix),
        };
        let decode = BatchShape::decode_total(seqs, if seqs == 0 { 0 } else { ctx });
        let ar = rl.cluster().interconnect.allreduce(tp);
        prop_assert_eq!(
            cost_bits(rl.layer_cost_mixed(&prefill, &decode, &ar)),
            cost_bits(three_all_reduce_mixed(&rl, &prefill, &decode, tp))
        );
    }
}
