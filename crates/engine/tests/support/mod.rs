//! `ClusterSim`'s task graph on the event-driven executor that the
//! eager `Simulator` replaced, and the scan-based decode bookkeeping
//! that `Replica`'s incremental state replaced: the references the
//! fused passes and the running set are checked against, sharing no
//! scheduling or bookkeeping code with them; and the stage pricing of a
//! task-graph pass.

#![allow(dead_code)]

#[path = "../../../sim/tests/support/heap.rs"]
pub mod heap;
pub mod scan;

use heap::{Handle, HeapSim};
use seesaw_hw::ClusterSpec;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{BatchShape, Roofline, Stage};
use seesaw_sim::{ResourceId, TaskKind};

/// Per-stage service durations of a pure-stage pass, including the
/// inter-stage activation hop on all but the last stage, written over
/// `durs`: the layer cost evaluated once per pass and scaled by each
/// stage's layer count.
pub fn stage_durations(
    rl: &Roofline,
    cfg: ParallelConfig,
    stage: Stage,
    shape: &BatchShape,
    durs: &mut Vec<f64>,
) {
    let layer = rl.layer_cost(stage, shape, cfg.tp).layer_time();
    let p2p = if cfg.pp > 1 {
        rl.cluster().interconnect.p2p_time(rl.p2p_bytes(shape))
    } else {
        0.0
    };
    durs.clear();
    durs.extend((0..cfg.pp).map(|s| {
        let (a, b) = cfg.stage_layers(rl.model().num_layers, s);
        (b - a) as f64 * layer + if s + 1 < cfg.pp { p2p } else { 0.0 }
    }));
}

/// An event-driven simulator with `ClusterSim`'s resources, registered
/// in its order (so resource ids match).
pub struct HeapCluster {
    pub sim: HeapSim,
    compute: Vec<ResourceId>,
}

impl HeapCluster {
    pub fn new(cluster: &ClusterSpec) -> Self {
        let mut sim = HeapSim::new();
        let mut compute = Vec::new();
        // Compute, h2d, d2h, staging: one block of resources each.
        for engine in 0..4 {
            for _ in 0..cluster.num_gpus {
                let id = sim.add_resource();
                if engine == 0 {
                    compute.push(id);
                }
            }
        }
        HeapCluster { sim, compute }
    }

    /// A pass as tasks, the way the fused stage kernel's passes used to
    /// be submitted: per stage of replica `d`, a task on each GPU of its
    /// TP group after the previous stage's join.
    pub fn pass(
        &mut self,
        cfg: ParallelConfig,
        d: usize,
        durs: &[f64],
        dep: Option<Handle>,
    ) -> Handle {
        let mut prev = dep;
        for (s, &dur) in durs.iter().enumerate() {
            let parts: Vec<Handle> = (0..cfg.tp)
                .map(|t| {
                    let g = cfg.gpu_index(d, s, t);
                    self.sim
                        .submit_on(self.compute[g], dur, TaskKind::Compute, prev)
                })
                .collect();
            prev = Some(self.join(&parts));
        }
        prev.expect("pp >= 1")
    }

    /// Join `parts`; a single part is its own join.
    pub fn join(&mut self, parts: &[Handle]) -> Handle {
        match parts {
            [one] => *one,
            _ => self.sim.join(parts),
        }
    }

    /// Busy seconds of every GPU's compute engine, as bits.
    pub fn compute_busy(&self) -> Vec<u64> {
        self.compute
            .iter()
            .map(|&r| self.sim.busy_time(r).to_bits())
            .collect()
    }

    /// Per GPU, the end of the last task its compute engine completed
    /// (zero if none), as bits: once every submitted task has
    /// completed, how long each GPU is busy.
    pub fn compute_until(&self) -> Vec<u64> {
        let mut until = vec![0.0f64; self.compute.len()];
        for span in self.sim.spans() {
            if let Some(g) = self.compute.iter().position(|&r| r == span.resource) {
                until[g] = until[g].max(span.end.as_secs());
            }
        }
        until.iter().map(|t| t.to_bits()).collect()
    }
}
