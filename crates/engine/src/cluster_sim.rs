//! Adapter that instantiates a [`ClusterSpec`] as simulator resources
//! and offers typed task submission for the engines.
//!
//! Per GPU, four resources mirror the hardware's independent engines:
//!
//! * `gpu{i}.compute` — the SMs (forward passes; collectives are
//!   folded into pass durations by the roofline, which models the TP
//!   group in lockstep),
//! * `gpu{i}.h2d` / `gpu{i}.d2h` — the two DMA directions of the PCIe
//!   host link (weight reloads, KV swaps),
//! * `gpu{i}.staging` — the worker's host-side staging thread
//!   (pinned ↔ shared-memory copies, §5.2).
//!
//! Because these are distinct resources, computation/communication
//! overlap (the paper's asynchronous pipeline) falls out of the task
//! graph naturally.
//!
//! Every task's completion time is known when it is submitted (see
//! [`Simulator`]), so a task handle is a [`SimTime`] and a join is the
//! latest of its handles. Decode bursts and mixed (chunked-prefill)
//! rounds do not submit a task per pass:
//! [`submit_decode_burst`](crate::driver::submit_decode_burst) and
//! [`submit_mixed_round`](crate::driver::submit_mixed_round) compute
//! their pipeline schedule in closed form. They borrow the replica's
//! compute engines once per burst or round
//! ([`ClusterSim::compute_block`]), add each stage interval to the
//! stage's TP group's busy counters, and mark each GPU busy until its
//! last interval ends. Every other compute task (prefill passes,
//! re-shard overheads) is submitted through [`ClusterSim::submit_pass`]
//! or [`ClusterSim::submit_compute_overhead`] and queues behind that
//! work.

use seesaw_hw::ClusterSpec;
use seesaw_parallel::ParallelConfig;
use seesaw_sim::{Block, ResourceId, SimTime, Simulator, TaskKind};
use std::ops::Range;
use std::sync::Arc;

/// The simulated cluster: resources plus the underlying simulator.
///
/// Each cluster builds a fresh simulator, whose memory does not grow
/// with the run. A clone is an independent fork of the simulated
/// cluster at the same instant (what an engine actor's projection runs
/// on).
#[derive(Debug, Clone)]
pub struct ClusterSim {
    /// The simulator.
    pub sim: Simulator,
    /// Hardware description (shared handle, not a deep copy).
    pub cluster: Arc<ClusterSpec>,
    compute: Vec<ResourceId>,
    h2d: Vec<ResourceId>,
    d2h: Vec<ResourceId>,
    staging: Vec<ResourceId>,
}

impl ClusterSim {
    /// Instantiate resources for every GPU of `cluster`.
    ///
    /// The simulator skips span recording ([`Simulator::without_trace`])
    /// — what engines and autotune probes use by default, since sweep
    /// throughput only needs the clock. Use
    /// [`ClusterSim::with_trace`] when the execution trace itself is
    /// the product (breakdown figures, timeline debugging).
    pub fn new(cluster: impl Into<Arc<ClusterSpec>>) -> Self {
        Self::build(cluster.into(), Simulator::without_trace())
    }

    /// Instantiate with span recording enabled.
    pub fn with_trace(cluster: impl Into<Arc<ClusterSpec>>) -> Self {
        Self::build(cluster.into(), Simulator::new())
    }

    fn build(cluster: Arc<ClusterSpec>, mut sim: Simulator) -> Self {
        let n = cluster.num_gpus;
        let mut block = |engine: &str| -> Vec<ResourceId> {
            (0..n).map(|i| sim.add_resource(format!("gpu{i}.{engine}"))).collect()
        };
        // Compute engines first, so GPU `g`'s is resource `g`
        // (`compute_block` relies on it).
        let (compute, h2d, d2h, staging) =
            (block("compute"), block("h2d"), block("d2h"), block("staging"));
        debug_assert!(compute.iter().enumerate().all(|(g, r)| r.index() == g));
        ClusterSim {
            sim,
            cluster,
            compute,
            h2d,
            d2h,
            staging,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Submit one micro-batch's traversal of all pipeline stages of
    /// replica `dp_rank`: stage `s` occupies every GPU of its TP group
    /// for `stage_durations[s]` seconds, after stage `s-1` finishes
    /// (and after `dep`, the micro-batch slot's previous-round tail).
    /// Returns the time the last stage finishes.
    pub fn submit_pass(
        &mut self,
        cfg: ParallelConfig,
        dp_rank: usize,
        stage_durations: &[f64],
        dep: Option<SimTime>,
        kind: TaskKind,
    ) -> SimTime {
        assert_eq!(stage_durations.len(), cfg.pp, "one duration per stage");
        let mut prev = dep;
        for (s, &dur) in stage_durations.iter().enumerate() {
            let mut stage_end = self.now();
            for t in 0..cfg.tp {
                let g = cfg.gpu_index(dp_rank, s, t);
                let end = self.sim.submit_on(self.compute[g], dur, kind, g as u64, prev);
                stage_end = stage_end.max(end);
            }
            prev = Some(stage_end);
        }
        prev.expect("pp >= 1 guarantees at least one stage")
    }

    /// Submit a device-to-host transfer on GPU `gpu`'s D2H DMA engine.
    pub fn submit_d2h(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
        kind: TaskKind,
    ) -> SimTime {
        self.sim.submit_on(self.d2h[gpu], duration, kind, gpu as u64, dep)
    }

    /// Submit a host-to-device transfer on GPU `gpu`'s H2D DMA engine.
    pub fn submit_h2d(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
        kind: TaskKind,
    ) -> SimTime {
        self.sim.submit_on(self.h2d[gpu], duration, kind, gpu as u64, dep)
    }

    /// Submit a host-side staging copy on GPU `gpu`'s staging thread.
    pub fn submit_staging(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
    ) -> SimTime {
        self.sim
            .submit_on(self.staging[gpu], duration, TaskKind::StagingCopy, gpu as u64, dep)
    }

    /// Submit a fixed-duration overhead task on a GPU's compute engine
    /// (communicator teardown/setup during re-sharding).
    pub fn submit_compute_overhead(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
    ) -> SimTime {
        self.sim
            .submit_on(self.compute[gpu], duration, TaskKind::Overhead, gpu as u64, dep)
    }

    /// Borrow the compute engines of GPUs `gpus` (entry `i` is GPU
    /// `gpus.start + i`), to charge work the caller schedules itself: a
    /// replica's fused decode burst or mixed round, whose GPUs are
    /// contiguous in [`ParallelConfig::gpu_index`] order.
    pub fn compute_block(&mut self, gpus: Range<usize>) -> Block<'_> {
        assert!(gpus.end <= self.compute.len(), "GPUs {gpus:?} outside the cluster");
        self.sim.block(gpus)
    }

    /// Mean busy fraction of the GPUs' compute engines over the run —
    /// the utilization figure engines report once the run has drained
    /// (busy time counts work when it is submitted).
    pub fn mean_compute_utilization(&self) -> f64 {
        if self.compute.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.compute.iter().map(|&r| self.sim.utilization(r)).sum();
        sum / self.compute.len() as f64
    }

    /// Join several tasks: the time the last of them completes, and
    /// no earlier than now (a join of finished tasks completes now).
    pub fn join(&self, handles: &[SimTime]) -> SimTime {
        handles.iter().fold(self.now(), |t, &h| t.max(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_hw::ClusterSpec;

    #[test]
    fn pass_occupies_tp_group_in_lockstep() {
        let mut cs = ClusterSim::new(ClusterSpec::a10x4());
        let cfg = ParallelConfig::new(1, 2, 2);
        let h = cs.submit_pass(cfg, 0, &[1.0, 2.0], None, TaskKind::Compute);
        let end = cs.sim.run_until(h);
        assert_eq!(end.as_secs(), 3.0);
    }

    #[test]
    fn micro_batches_pipeline_across_stages() {
        // Two micro-batches, two stages of 1s each: second ubatch's
        // stage0 overlaps first ubatch's stage1 -> finish at 3s.
        let mut cs = ClusterSim::new(ClusterSpec::a10x4());
        let cfg = ParallelConfig::pp(2);
        let a = cs.submit_pass(cfg, 0, &[1.0, 1.0], None, TaskKind::Compute);
        let b = cs.submit_pass(cfg, 0, &[1.0, 1.0], None, TaskKind::Compute);
        cs.sim.run_until(a);
        let end = cs.sim.run_until(b);
        assert_eq!(end.as_secs(), 3.0);
    }

    #[test]
    fn transfers_overlap_compute() {
        let mut cs = ClusterSim::new(ClusterSpec::a10x4());
        let cfg = ParallelConfig::new(1, 1, 1);
        let pass = cs.submit_pass(cfg, 0, &[2.0], None, TaskKind::Compute);
        // An independent H2D transfer runs concurrently.
        let xfer = cs.submit_h2d(0, 2.0, None, TaskKind::SwapIn);
        cs.sim.run_until(pass);
        let end = cs.sim.run_until(xfer);
        assert_eq!(end.as_secs(), 2.0, "DMA must overlap compute");
    }

    #[test]
    fn chained_rounds_have_no_drain_bubble() {
        // Round 2 of a 2-stage pipeline starts its stage0 immediately
        // after round 1's stage0 vacates the resource, not after the
        // whole round 1 drains.
        let mut cs = ClusterSim::new(ClusterSpec::a10x4());
        let cfg = ParallelConfig::pp(2);
        let r1 = cs.submit_pass(cfg, 0, &[1.0, 1.0], None, TaskKind::Compute);
        let r2 = cs.submit_pass(cfg, 0, &[1.0, 1.0], Some(r1), TaskKind::Compute);
        // With dep on r1's completion, stage0 of r2 starts at 2.0 and
        // r2 completes at 4.0. (The per-slot tail chaining in the
        // driver avoids even this by keying on slots, tested there.)
        assert_eq!(cs.sim.run_until(r2).as_secs(), 4.0);
    }

    #[test]
    fn trace_is_opt_in() {
        let mut plain = ClusterSim::new(ClusterSpec::a10x4());
        let h = plain.submit_pass(ParallelConfig::tp(4), 0, &[1.0], None, TaskKind::Compute);
        plain.sim.run_until(h);
        assert!(plain.sim.trace().spans().is_empty(), "untraced sim records nothing");

        let mut traced = ClusterSim::with_trace(ClusterSpec::a10x4());
        let h = traced.submit_pass(ParallelConfig::tp(4), 0, &[1.0], None, TaskKind::Compute);
        traced.sim.run_until(h);
        assert!(!traced.sim.trace().spans().is_empty(), "trace on request");
    }

    #[test]
    fn stage_gpus_are_tp_group() {
        // The TP-group mapping the pass/swap loops iterate inline.
        let cfg = ParallelConfig::new(2, 2, 2);
        let stage = |d: usize, s: usize| -> Vec<usize> {
            (0..cfg.tp).map(|t| cfg.gpu_index(d, s, t)).collect()
        };
        assert_eq!(stage(0, 0), vec![0, 1]);
        assert_eq!(stage(0, 1), vec![2, 3]);
        assert_eq!(stage(1, 0), vec![4, 5]);
    }
}
