//! The task-graph oracles' per-pass stage durations
//! (`support::stage_durations`) and the throughput model's bottleneck
//! evaluate the layer cost once and scale it by each stage's layer
//! count, as the fused stage kernel does. Both hoisted paths must equal
//! the per-stage `Roofline::stage_time` evaluation bit for bit,
//! including uneven layer splits.

mod support;

use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline, Stage, ThroughputModel};
use support::stage_durations;

fn cases() -> Vec<(Roofline, Stage, BatchShape)> {
    let mut out = Vec::new();
    for (cluster, model) in [
        (ClusterSpec::a10x8(), presets::llama2_13b()), // 40 layers
        (ClusterSpec::l4x8(), presets::llama3_15b()),  // 64 layers
    ] {
        let rl = Roofline::new(cluster, model);
        for (stage, shape) in [
            (Stage::Decode, BatchShape::decode_uniform(16, 512)),
            (Stage::Decode, BatchShape::decode(&[3, 700, 2900])),
            (Stage::Prefill, BatchShape::prefill(&[512; 4])),
            (Stage::Prefill, BatchShape::prefill_chunk(256, 1024)),
        ] {
            out.push((rl.clone(), stage, shape));
        }
    }
    out
}

fn configs() -> impl Iterator<Item = ParallelConfig> {
    [1usize, 4]
        .into_iter()
        .flat_map(|tp| [1usize, 2, 3, 4, 8].map(|pp| ParallelConfig::new(1, tp, pp)))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn stage_durations_match_per_stage_evaluation() {
    for (rl, stage, shape) in cases() {
        for cfg in configs() {
            let p2p = rl.cluster().interconnect.p2p_time(rl.p2p_bytes(&shape));
            let want: Vec<f64> = (0..cfg.pp)
                .map(|s| {
                    let hop = if s + 1 < cfg.pp { p2p } else { 0.0 };
                    rl.stage_time(cfg, s, stage, &shape) + hop
                })
                .collect();
            let mut durs = vec![f64::NAN; 9];
            stage_durations(&rl, cfg, stage, &shape, &mut durs);
            assert_eq!(bits(&durs), bits(&want), "{stage:?} {shape:?} {cfg:?}");
        }
    }
}

#[test]
fn bottleneck_matches_per_stage_fold() {
    for (rl, stage, shape) in cases() {
        let tm = ThroughputModel::new(rl);
        for cfg in configs() {
            let want = (0..cfg.pp)
                .map(|s| tm.roofline.stage_time(cfg, s, stage, &shape))
                .fold(0.0_f64, f64::max);
            let got = tm.stage_bottleneck_time(cfg, stage, &shape);
            assert_eq!(got.to_bits(), want.to_bits(), "{stage:?} {shape:?} {cfg:?}");
        }
    }
}
