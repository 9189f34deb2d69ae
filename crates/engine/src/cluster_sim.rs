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
//! latest of its handles. Forward passes are not submitted as tasks:
//! [`submit_prefill_batch`](crate::driver::submit_prefill_batch),
//! [`submit_decode_burst`](crate::driver::submit_decode_burst) and
//! [`submit_mixed_round`](crate::driver::submit_mixed_round) compute
//! their pipeline schedule in closed form. They borrow the replica's
//! compute engines once per batch, burst or round
//! ([`ClusterSim::compute_block`]), add each stage interval to the
//! stage's TP group's busy counters, and mark each GPU busy until its
//! last interval ends. The compute engines' only tasks are re-shard
//! overheads ([`ClusterSim::submit_compute_overhead`]); the DMA and
//! staging engines carry every KV swap and weight reload.

use seesaw_hw::ClusterSpec;
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
    pub fn new(cluster: impl Into<Arc<ClusterSpec>>) -> Self {
        let cluster = cluster.into();
        let mut sim = Simulator::new();
        let n = cluster.num_gpus;
        let mut block = || -> Vec<ResourceId> { (0..n).map(|_| sim.add_resource()).collect() };
        // Compute engines first, so GPU `g`'s is resource `g`
        // (`compute_block` relies on it).
        let (compute, h2d, d2h, staging) = (block(), block(), block(), block());
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

    /// Submit a device-to-host transfer on GPU `gpu`'s D2H DMA engine.
    pub fn submit_d2h(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
        kind: TaskKind,
    ) -> SimTime {
        self.sim.submit_on(self.d2h[gpu], duration, kind, dep)
    }

    /// Submit a host-to-device transfer on GPU `gpu`'s H2D DMA engine.
    pub fn submit_h2d(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
        kind: TaskKind,
    ) -> SimTime {
        self.sim.submit_on(self.h2d[gpu], duration, kind, dep)
    }

    /// Submit a host-side staging copy on GPU `gpu`'s staging thread.
    pub fn submit_staging(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
    ) -> SimTime {
        self.sim.submit_on(self.staging[gpu], duration, TaskKind::StagingCopy, dep)
    }

    /// Submit a fixed-duration overhead task on a GPU's compute engine
    /// (communicator teardown/setup during re-sharding).
    pub fn submit_compute_overhead(
        &mut self,
        gpu: usize,
        duration: f64,
        dep: Option<SimTime>,
    ) -> SimTime {
        self.sim.submit_on(self.compute[gpu], duration, TaskKind::Overhead, dep)
    }

    /// Borrow the compute engines of GPUs `gpus` (entry `i` is GPU
    /// `gpus.start + i`), to charge work the caller schedules itself: a
    /// replica's fused passes, whose GPUs are contiguous in
    /// [`ParallelConfig::gpu_index`](seesaw_parallel::ParallelConfig::gpu_index)
    /// order.
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
    use crate::driver::{submit_prefill_batch, Replica};
    use seesaw_hw::{efficiency, ClusterSpec};
    use seesaw_model::presets;
    use seesaw_parallel::ParallelConfig;
    use seesaw_roofline::{BatchShape, Roofline, Stage};

    /// A 13B model on 4× A10, and replica 0 of `cfg`.
    fn setup(cfg: ParallelConfig) -> (ClusterSim, Roofline, Replica) {
        let cluster = ClusterSpec::a10x4();
        let rl = Roofline::new(cluster.clone(), presets::llama2_13b());
        (ClusterSim::new(cluster), rl, Replica::new(0, 1 << 20, cfg.pp))
    }

    /// The stage durations of one prefill pass over `prompts`: each
    /// stage's layers, the activation hop on all but the last, the step
    /// overhead on stage 0.
    fn pass_durs(rl: &Roofline, cfg: ParallelConfig, prompts: &[usize]) -> Vec<f64> {
        let shape = BatchShape::prefill(prompts);
        let p2p = rl.cluster().interconnect.p2p_time(rl.p2p_bytes(&shape));
        let mut durs: Vec<f64> = (0..cfg.pp)
            .map(|s| {
                let hop = if s + 1 < cfg.pp { p2p } else { 0.0 };
                rl.stage_time(cfg, s, Stage::Prefill, &shape) + hop
            })
            .collect();
        durs[0] += efficiency::STEP_SCHED_OVERHEAD_S / cfg.pp as f64;
        durs
    }

    /// Run a prefill batch of `prompts` on replica 0 and return the end
    /// of each slot's pass, in slot order.
    fn prefill(
        cs: &mut ClusterSim,
        rl: &Roofline,
        cfg: ParallelConfig,
        rep: &mut Replica,
        prompts: &[usize],
    ) -> Vec<SimTime> {
        let seqs: Vec<(u64, usize)> =
            prompts.iter().enumerate().map(|(i, &l)| (i as u64, l)).collect();
        let mut out = Vec::new();
        submit_prefill_batch(cs, rl, cfg, rep, &seqs, &mut out);
        let mut ends: Vec<SimTime> = out.iter().map(|&(end, _)| end).collect();
        ends.dedup();
        ends
    }

    #[test]
    fn pass_occupies_tp_group_in_lockstep() {
        let cfg = ParallelConfig::new(1, 2, 2);
        let (mut cs, rl, mut rep) = setup(cfg);
        let durs = pass_durs(&rl, cfg, &[512]);
        let end = prefill(&mut cs, &rl, cfg, &mut rep, &[512]);
        assert_eq!(end, [SimTime::ZERO + durs[0] + durs[1]]);
        // Each GPU is charged its stage's interval, once per GPU.
        let stage0 = SimTime::ZERO + durs[0];
        let (busy0, busy1) = (durs[0], end[0] - stage0);
        let gpus = cs.compute_block(0..4);
        assert_eq!(gpus.free, [stage0, stage0, end[0], end[0]]);
        assert_eq!(gpus.busy, [busy0, busy0, busy1, busy1]);
        assert_eq!(cs.sim.busy_by_kind().compute, busy0 + busy0 + busy1 + busy1);
        assert_eq!(cs.sim.submitted_tasks(), 0, "a pass is not a task");
    }

    #[test]
    fn micro_batches_pipeline_across_stages() {
        // Two equal micro-batches on two stages: the second's stage 0
        // overlaps the first's stage 1.
        let cfg = ParallelConfig::pp(2);
        let (mut cs, rl, mut rep) = setup(cfg);
        let d = pass_durs(&rl, cfg, &[512]);
        let ends = prefill(&mut cs, &rl, cfg, &mut rep, &[512, 512]);
        let first = SimTime::ZERO + d[0] + d[1];
        let second = SimTime::from_secs(d[0] + d[0]).max(first) + d[1];
        assert_eq!(ends, [first, second]);
        assert!(second.as_secs() < 2.0 * first.as_secs());
    }

    #[test]
    fn transfers_overlap_compute() {
        let cfg = ParallelConfig::tp(4);
        let (mut cs, rl, mut rep) = setup(cfg);
        let pass = prefill(&mut cs, &rl, cfg, &mut rep, &[512])[0];
        // An independent H2D transfer runs concurrently.
        let xfer = cs.submit_h2d(0, pass.as_secs(), None, TaskKind::SwapIn);
        assert_eq!(xfer, pass, "DMA must overlap compute");
        assert_eq!(cs.sim.run_until_idle(), pass);
    }

    #[test]
    fn chained_rounds_have_no_drain_bubble() {
        // A second batch submitted while the first is in flight starts
        // its stage 0 as soon as the first vacates it, not after the
        // whole first batch drains.
        let cfg = ParallelConfig::pp(2);
        let (mut cs, rl, mut rep) = setup(cfg);
        let d = pass_durs(&rl, cfg, &[512]);
        let first = prefill(&mut cs, &rl, cfg, &mut rep, &[512])[0];
        let second = prefill(&mut cs, &rl, cfg, &mut rep, &[512])[0];
        assert_eq!(second, SimTime::from_secs(d[0] + d[0]).max(first) + d[1]);
        assert!(second < first + first.as_secs());
        // Work charged meanwhile on a stage's GPU delays that stage.
        let overhead = cs.submit_compute_overhead(0, 1.0, None);
        let third = prefill(&mut cs, &rl, cfg, &mut rep, &[512])[0];
        assert_eq!(third, (overhead + d[0]).max(second) + d[1]);
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
