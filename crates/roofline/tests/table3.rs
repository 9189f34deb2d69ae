//! Table 3 (Appendix A) checked from first principles: one layer cost
//! written out by hand as literal numbers, plus the structural
//! properties of the formulas (which terms depend on which inputs).
//! Nothing here reuses the cost module's arithmetic.

use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_roofline::{BatchShape, LayerCost, Roofline, Stage};

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(1e-300)
}

/// LLaMA2-13B on A10, decode, TP 2, 16 sequences × 512 context.
///
/// * W = 4·5120² (attention) + 3·5120·13 824 (SwiGLU MLP)
///   = 317 194 240 parameters per layer, 2 bytes each, halved by TP 2;
///   HBM runs at 600 GB/s × 0.85 = 510 GB/s.
/// * GEMM: 2·W·16 tokens / 2 ranks at 125 TFLOPS × 0.55.
/// * Attention, 20 query and 20 KV heads per rank, d = 128, 8 192
///   context tokens: K+V reads 2·2·20·128·8 192 bytes; scores
///   4·20·128·8 192 FLOPs at 125 TFLOPS × 0.40.
/// * Two ring all-reduces of 16·5120·2 bytes over 2 ranks on PCIe
///   4.0 x8: per-rank volume 163 840 bytes at
///   16 GiB/s × 0.55 / (1 + 0.45·ln 2), plus 2 steps × 20 µs each.
#[test]
fn hand_computed_llama2_13b_a10_decode_tp2() {
    let rl = Roofline::new(ClusterSpec::a10x8(), presets::llama2_13b());
    let c = rl.layer_cost(Stage::Decode, &BatchShape::decode_uniform(16, 512), 2);
    let want = LayerCost {
        linear_dm: 317_194_240.0 / 510e9,
        linear_comp: 5_075_107_840.0 / 68.75e12,
        attn_dm: 83_886_080.0 / 510e9,
        attn_comp: 83_886_080.0 / 50e12,
        comm: 2.0 * (163_840.0 / 7_202_386_727.224_793 + 2.0 * 20e-6),
    };
    assert!(close(want.linear_dm, 6.219_494_901_960_784e-4));
    assert!(close(want.comm, 1.254_960_296_371_451_5e-4));
    for (name, got, want) in [
        ("linear_dm", c.linear_dm, want.linear_dm),
        ("linear_comp", c.linear_comp, want.linear_comp),
        ("attn_dm", c.attn_dm, want.attn_dm),
        ("attn_comp", c.attn_comp, want.attn_comp),
        ("comm", c.comm, want.comm),
    ] {
        assert!(close(got, want), "{name}: got {got:e}, want {want:e}");
    }
    // max(linear) + max(attention) + comm, all memory-bound here.
    assert!(close(c.layer_time(), 9.119_280_296_371_452e-4), "{c:?}");
}

#[test]
fn weight_streaming_ignores_batch_and_context() {
    let rl = Roofline::new(ClusterSpec::l4x8(), presets::llama2_13b());
    for tp in [1usize, 2, 4] {
        let base = rl.layer_cost(Stage::Decode, &BatchShape::decode_uniform(1, 16), tp);
        for (stage, shape) in [
            (Stage::Decode, BatchShape::decode_uniform(64, 16)),
            (Stage::Decode, BatchShape::decode_uniform(1, 4096)),
            (Stage::Decode, BatchShape::decode(&[7, 900, 3000])),
            (Stage::Prefill, BatchShape::prefill(&[512; 8])),
            (Stage::Prefill, BatchShape::prefill_chunk(256, 2048)),
        ] {
            let c = rl.layer_cost(stage, &shape, tp);
            assert_eq!(c.linear_dm, base.linear_dm, "{stage:?} {shape:?} tp{tp}");
        }
    }
}

#[test]
fn decode_attention_is_linear_in_context() {
    let rl = Roofline::new(ClusterSpec::a10x8(), presets::codellama_34b());
    for tp in [1usize, 2, 8] {
        let one = rl.layer_cost(Stage::Decode, &BatchShape::decode_uniform(8, 300), tp);
        for k in [2usize, 3, 10] {
            let c = rl.layer_cost(Stage::Decode, &BatchShape::decode_uniform(8, 300 * k), tp);
            let kf = k as f64;
            assert!(close(c.attn_dm, kf * one.attn_dm), "tp{tp} x{k}: {c:?}");
            assert!(close(c.attn_comp, kf * one.attn_comp), "tp{tp} x{k}: {c:?}");
            // Same sequence count: the token-driven terms stay put.
            assert_eq!(c.linear_comp, one.linear_comp);
            assert_eq!(c.comm, one.comm);
        }
    }
}

#[test]
fn single_rank_has_no_communication() {
    for (cluster, model) in [
        (ClusterSpec::a10x8(), presets::llama2_13b()),
        (ClusterSpec::a100x8_nvlink(), presets::llama2_70b()),
    ] {
        let rl = Roofline::new(cluster, model);
        for (stage, shape) in [
            (Stage::Decode, BatchShape::decode_uniform(32, 1024)),
            (Stage::Prefill, BatchShape::prefill(&[1024; 4])),
        ] {
            assert_eq!(rl.layer_cost(stage, &shape, 1).comm, 0.0);
            assert!(rl.layer_cost(stage, &shape, 2).comm > 0.0);
        }
    }
}

#[test]
fn cost_depends_on_tp_stage_and_shape() {
    let rl = Roofline::new(ClusterSpec::a10x8(), presets::llama2_13b());
    let shape = BatchShape::decode_uniform(16, 512);
    let t1 = rl.layer_cost(Stage::Decode, &shape, 1);
    let t4 = rl.layer_cost(Stage::Decode, &shape, 4);
    assert_ne!(t1, t4, "tp must change the cost");
    let p = rl.layer_cost(Stage::Prefill, &BatchShape::prefill(&[512; 16]), 4);
    assert_ne!(p, t4, "stage must change the cost");
    let bigger = rl.layer_cost(Stage::Decode, &BatchShape::decode_uniform(17, 512), 4);
    assert_ne!(bigger, t4, "shape must change the cost");
}

#[test]
fn empty_shapes_cost_nothing() {
    let rl = Roofline::new(ClusterSpec::a10x8(), presets::llama2_13b());
    let empty = BatchShape::empty();
    for tp in [1usize, 4] {
        for stage in [Stage::Prefill, Stage::Decode] {
            assert_eq!(rl.layer_cost(stage, &empty, tp), LayerCost::default());
        }
        assert_eq!(
            rl.layer_cost_mixed(&empty, &empty, &rl.cluster().interconnect.allreduce(tp)),
            LayerCost::default()
        );
    }
}
