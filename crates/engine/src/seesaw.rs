//! The Seesaw engine: dynamic model re-sharding between a prefill
//! configuration `c_p` and a decode configuration `c_d`, tiered CPU KV
//! buffering, transition-minimizing scheduling, and the asynchronous
//! swap pipeline (paper §4–§5).
//!
//! # Phase machine
//!
//! ```text
//!   PREFILL (c_p):  admit prompts -> pipelined prefill passes
//!                   -> swap KV out (D2H overlapped with compute,
//!                      then host staging copy into shared memory)
//!                   until the CPU buffer is full or no prompts remain
//!   RESHARD c_p -> c_d: drain, reload weight shards from host RAM
//!   DECODE (c_d):   prefetcher swaps KV in (staging -> H2D, overlapped
//!                   with decode compute); continuous batching at the
//!                   decode config's max batch until buffer + GPUs drain
//!   RESHARD c_d -> c_p, repeat while requests remain
//! ```
//!
//! KV re-sharding needs no extra traffic: shards are pushed under
//! `c_p`'s layout and pulled under `c_d`'s from the same shared host
//! buffer (paper Figure 7).
//!
//! A run (`SeesawRun`) keeps the phase machine, the CPU buffers and
//! the swap and re-shard accounting on top of the shared `RunCore`,
//! whose decode burst it runs at `BURST_CAP` rounds, or at
//! `BURST_CAP_INFLIGHT` while swap-ins are in flight.

use crate::actor::{run_to_end, EngineActor, Intake, Resumable, SimActor};
use crate::autotune;
use crate::driver::{kv_capacity, RunCore, BURST_CAP, MAX_PREFILL_TOKENS};
use crate::online::{roofline_rates, ServiceRates};
use crate::report::{EngineReport, Phase, PhaseSpan};
use crate::sweep::SweepRunner;
use seesaw_hw::{efficiency, ClusterSpec};
use seesaw_kv::{BufferedSeq, CpuKvBuffer, KvLayout, PagedKvCache, SwapSizer};
use seesaw_model::ModelConfig;
use seesaw_parallel::{FitError, MemoryPlan, ParallelConfig, ReshardPlan};
use seesaw_roofline::Roofline;
use seesaw_sim::{SimTime, TaskKind};
use seesaw_workload::Request;
use std::collections::VecDeque;
use std::sync::Arc;

/// Decode rounds per burst while swap-ins are in flight (shorter than
/// [`BURST_CAP`] so arriving sequences join promptly).
const BURST_CAP_INFLIGHT: usize = 4;

/// Full specification of a Seesaw deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct SeesawSpec {
    /// Parallelization used while prefilling (`c_p`).
    pub prefill: ParallelConfig,
    /// Parallelization used while decoding (`c_d`).
    pub decode: ParallelConfig,
    /// Host KV layout (paper §5.2 recommends `HND`).
    pub layout: KvLayout,
    /// Enable the asynchronous swap pipeline (swap-out/in overlapped
    /// with compute). Disable for the ablation in `abl_overlap`: off,
    /// each prefill iteration first waits for the pending swap-outs.
    /// Swap-ins are issued only between decode bursts, once every
    /// pipeline tail has ended, so they overlap the next burst either
    /// way: the ablation serializes half of the pipeline.
    pub overlap: bool,
    /// Override the CPU KV buffer capacity in tokens (total across
    /// the cluster). `None` uses the cluster's full host budget.
    pub buffer_tokens_override: Option<u64>,
}

impl SeesawSpec {
    /// Spec with defaults (HND layout, overlap on, full host buffer).
    pub fn new(prefill: ParallelConfig, decode: ParallelConfig) -> Self {
        SeesawSpec {
            prefill,
            decode,
            layout: KvLayout::Hnd,
            overlap: true,
            buffer_tokens_override: None,
        }
    }

    /// Auto-tuned spec for a workload averaging `avg_in` prompt and
    /// `avg_out` generated tokens. Shortlists candidates analytically,
    /// then picks the pair with the best *simulated* probe throughput,
    /// probing on the environment's runner ([`SweepRunner::from_env`]).
    pub fn auto_for(
        cluster: &ClusterSpec,
        model: &ModelConfig,
        avg_in: usize,
        avg_out: usize,
    ) -> Result<Self, FitError> {
        let probe: Vec<Request> = (0..24)
            .map(|i| Request::new(u64::MAX - i, avg_in.max(1), avg_out.max(1)))
            .collect();
        Self::auto_probed_with(&SweepRunner::from_env(), cluster, model, &probe)
    }

    /// Auto-tuned spec probed on `runner` with a caller-supplied
    /// sample of the real workload (better than
    /// [`SeesawSpec::auto_for`] for skewed length distributions).
    pub fn auto_probed_with(
        runner: &SweepRunner,
        cluster: &ClusterSpec,
        model: &ModelConfig,
        probe: &[Request],
    ) -> Result<Self, FitError> {
        let (cp, cd) = autotune::best_seesaw_pair_probed_with(runner, cluster, model, probe)?;
        Ok(Self::new(cp, cd))
    }

    /// The paper's arrow label, e.g. `"P4->T4"`.
    pub fn label(&self) -> String {
        format!("{}->{}", self.prefill, self.decode)
    }
}

/// The Seesaw inference engine.
///
/// Holds `Arc`-shared spec handles: every run (and its `ClusterSim` /
/// `Roofline`) borrows the same allocations instead of deep-cloning
/// the cluster and model per simulation.
#[derive(Debug)]
pub struct SeesawEngine {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    spec: SeesawSpec,
    plan_p: MemoryPlan,
    plan_d: MemoryPlan,
}

impl SeesawEngine {
    /// Validate both configurations and build the engine. Accepts
    /// owned specs or `Arc` handles (sweeps share one allocation
    /// across all candidates).
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        model: impl Into<Arc<ModelConfig>>,
        spec: SeesawSpec,
    ) -> Result<Self, FitError> {
        let (cluster, model) = (cluster.into(), model.into());
        if spec.prefill.dp != spec.decode.dp {
            return Err(FitError::Invalid(format!(
                "Seesaw keeps DP fixed across stages (got {} vs {})",
                spec.prefill.dp, spec.decode.dp
            )));
        }
        if spec.prefill.num_gpus() != cluster.num_gpus
            || spec.decode.num_gpus() != cluster.num_gpus
        {
            return Err(FitError::NotEnoughGpus {
                need: spec.prefill.num_gpus().max(spec.decode.num_gpus()),
                have: cluster.num_gpus,
            });
        }
        let plan_p = MemoryPlan::new(&model, &cluster, spec.prefill)?;
        let plan_d = MemoryPlan::new(&model, &cluster, spec.decode)?;
        Ok(SeesawEngine {
            cluster,
            model,
            spec,
            plan_p,
            plan_d,
        })
    }

    /// Whether a replica can ever run `req`: its prompt fits one
    /// prefill pass, the prefill config's KV and the CPU buffer, and
    /// its full length fits the decode config's KV.
    pub fn holds(&self, req: &Request) -> bool {
        req.input_len <= MAX_PREFILL_TOKENS
            && req.input_len <= kv_capacity(self.plan_p.kv_tokens_per_replica)
            && req.input_len as u64 <= self.buffer_tokens_per_replica()
            && req.total_len() <= kv_capacity(self.plan_d.kv_tokens_per_replica)
    }

    /// CPU KV buffer capacity of one replica, in tokens.
    fn buffer_tokens_per_replica(&self) -> u64 {
        let total = self
            .spec
            .buffer_tokens_override
            .unwrap_or_else(|| self.cluster.total_cpu_mem() / self.model.kv_bytes_per_token());
        total / self.spec.prefill.dp as u64
    }

    /// Process `requests` to completion.
    pub fn run(&self, requests: &[Request]) -> EngineReport {
        run_to_end(SeesawRun::new(self, Intake::closed(requests)))
    }
}

impl crate::online::OnlineEngine for SeesawEngine {
    fn label(&self) -> String {
        self.spec.label()
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        SeesawEngine::run(self, requests)
    }

    fn actor(&self, ready_s: f64) -> Box<dyn EngineActor + '_> {
        let start = move |intake| SeesawRun::new(self, intake);
        Box::new(SimActor::new(Intake::open(ready_s), start))
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        let (cp, cd) = (self.spec.prefill, self.spec.decode);
        roofline_rates(&self.cluster, &self.model, cp, cd, avg_in, avg_out)
    }
}

/// A sequence whose KV swap-out is in flight.
#[derive(Debug, Clone, Copy)]
struct PendingSwapOut {
    id: u64,
    /// When the GPU-side KV can be freed (D2H done).
    vacate: SimTime,
    /// When the shared-memory copy is done (`None` for sequences that
    /// finished at prefill and are never buffered).
    buffered: Option<SimTime>,
}

/// A sequence whose KV swap-in is in flight.
#[derive(Debug, Clone, Copy)]
struct PendingSwapIn {
    id: u64,
    tokens: usize,
    /// When the H2D copies are done.
    ready: SimTime,
}

/// Where a paused [`SeesawRun`] resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Enter a prefill phase under `c_p`.
    PrefillStart,
    /// Top of a prefill-phase iteration: reclaim vacated GPU KV.
    PrefillIter,
    /// A prefill-phase admission.
    PrefillAdmit,
    /// Leave the prefill phase: drain swap-outs, then decode (if
    /// anything was buffered).
    PrefillEnd,
    /// After a decode phase, at the re-shard-back check.
    AfterDecode,
    /// After a prefill phase that buffered nothing.
    Unbuffered,
    /// The run is complete.
    Done,
}

/// The locals of one prefill phase, kept across pauses.
#[derive(Debug, Clone, Default)]
struct PrefillPhase {
    pending: Vec<Vec<PendingSwapOut>>,
    /// Ends of the prefill batches in flight.
    outstanding: VecDeque<SimTime>,
    /// Phase start, seconds.
    t_phase: f64,
    buffered_any: bool,
}

#[derive(Clone)]
struct SeesawRun<'a> {
    eng: &'a SeesawEngine,
    core: RunCore,
    buffers: Vec<CpuKvBuffer>,
    sizer_p: SwapSizer,
    sizer_d: SwapSizer,
    prefill_wall: f64,
    decode_wall: f64,
    reshard_wall: f64,
    transitions: usize,
    swap_out_bytes: u64,
    swap_in_bytes: u64,
    phases: Vec<PhaseSpan>,
    at: Step,
    phase: PrefillPhase,
    /// Reusable part buffers for the per-sequence swap chains.
    scratch_a: Vec<SimTime>,
    scratch_b: Vec<SimTime>,
}

impl<'a> SeesawRun<'a> {
    fn new(eng: &'a SeesawEngine, intake: Intake) -> Self {
        let (cp, kv_tokens) = (eng.spec.prefill, eng.plan_p.kv_tokens_per_replica);
        let buffers = (0..cp.dp)
            .map(|_| CpuKvBuffer::new(eng.buffer_tokens_per_replica()))
            .collect();
        SeesawRun {
            eng,
            core: RunCore::new(&eng.cluster, &eng.model, intake, cp.dp, kv_tokens, cp.pp),
            buffers,
            sizer_p: SwapSizer::new(&eng.model, eng.spec.prefill, eng.spec.layout),
            sizer_d: SwapSizer::new(&eng.model, eng.spec.decode, eng.spec.layout),
            prefill_wall: 0.0,
            decode_wall: 0.0,
            reshard_wall: 0.0,
            transitions: 0,
            swap_out_bytes: 0,
            swap_in_bytes: 0,
            phases: Vec::new(),
            at: Step::PrefillStart,
            phase: PrefillPhase::default(),
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
        }
    }

    fn record_phase(&mut self, phase: Phase, start_s: f64) {
        let end_s = self.core.cs.now().as_secs();
        if end_s > start_s {
            self.phases.push(PhaseSpan { phase, start_s, end_s });
        }
    }

    /// Load a layout of `pp` pipeline slots, with an empty KV cache of
    /// `kv_tokens` on every replica.
    fn relayout(&mut self, kv_tokens: u64, pp: usize) {
        for rep in &mut self.core.replicas {
            rep.kv = PagedKvCache::new(kv_tokens, PagedKvCache::DEFAULT_BLOCK_TOKENS);
            rep.reset_tails(pp);
        }
    }

    // ------------------------------------------------------------------
    // Prefill phase (config c_p)
    // ------------------------------------------------------------------

    /// Enter a prefill phase: the `Prefill*` steps then run prefill
    /// until the CPU buffer is full or no prompts remain.
    fn begin_prefill(&mut self) {
        let cfg = self.eng.spec.prefill;
        self.relayout(self.eng.plan_p.kv_tokens_per_replica, cfg.pp);
        self.phase = PrefillPhase {
            pending: vec![Vec::new(); cfg.dp],
            outstanding: VecDeque::new(),
            t_phase: self.core.cs.now().as_secs(),
            buffered_any: false,
        };
    }

    /// The top of a prefill-phase iteration: without the async
    /// pipeline, swap-outs serialize with compute (drain them before
    /// scheduling more prefill); then reclaim GPU KV from completed
    /// swap-outs.
    fn reclaim_swap_outs(&mut self) {
        let pending = &mut self.phase.pending;
        if !self.eng.spec.overlap {
            for h in pending
                .iter()
                .flat_map(|v| v.iter().map(|p| p.buffered.unwrap_or(p.vacate)))
            {
                self.core.cs.sim.run_until(h);
            }
        }
        for (d, list) in pending.iter_mut().enumerate() {
            let mut i = 0;
            while i < list.len() {
                if self.core.cs.sim.completed(list[i].vacate) {
                    let p = list.swap_remove(i);
                    self.core.replicas[d].kv.free(p.id).expect("resident");
                } else {
                    i += 1;
                }
            }
        }
    }

    /// One prefill-phase admission and its passes; returns the next
    /// step (another iteration, or the end of the phase).
    #[allow(clippy::needless_range_loop)] // replica index addresses several parallel arrays
    fn prefill_round(&mut self, rl: &Roofline) -> Step {
        let cfg = self.eng.spec.prefill;
        let dp = cfg.dp;
        // Admission: GPU KV must fit the prompt, CPU buffer must
        // have room for its eventual KV.
        let admitted = &mut self.core.admitted;
        admitted.iter_mut().for_each(Vec::clear);
        let budget = &mut self.core.budget;
        budget.clear();
        budget.resize(dp, MAX_PREFILL_TOKENS);
        let mut buffer_full = false;
        let mut arrivals_pending = false;
        while let Some(&req) = self.core.intake.waiting.front() {
            // Online serving: requests become schedulable only
            // once their arrival time has passed. (Offline
            // arrival_s == 0.0 never trips this.)
            if req.arrival_s > self.core.cs.now().as_secs() {
                arrivals_pending = true;
                break;
            }
            let mut best: Option<usize> = None;
            for d in 0..dp {
                if budget[d] >= req.input_len
                    && self.core.replicas[d].kv.can_fit(req.input_len)
                    && self.buffers[d].can_fit(req.input_len)
                {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            self.buffers[d].capacity_tokens() - self.buffers[d].used_tokens()
                                > self.buffers[b].capacity_tokens()
                                    - self.buffers[b].used_tokens()
                        }
                    };
                    if better {
                        best = Some(d);
                    }
                }
            }
            let Some(d) = best else {
                buffer_full = (0..dp)
                    .all(|d| !self.buffers[d].can_fit(req.input_len));
                if buffer_full && self.buffers.iter().all(|b| b.is_empty()) {
                    panic!(
                        "prompt {} ({} tokens) exceeds the CPU KV buffer capacity ({} tokens)",
                        req.id,
                        req.input_len,
                        self.buffers[0].capacity_tokens()
                    );
                }
                break;
            };
            self.core.intake.waiting.pop_front();
            self.core.replicas[d]
                .kv
                .allocate(req.id, req.input_len)
                .expect("can_fit checked");
            if req.output_len > 1 {
                // Reserve buffer capacity now; the swap tasks that
                // physically fill it are submitted after the pass.
                let ok = self.buffers[d].push(BufferedSeq {
                    req_id: req.id,
                    tokens: req.input_len,
                    output_len: req.output_len,
                });
                assert!(ok, "can_fit checked");
            }
            admitted[d].push((req.id, req.input_len));
            budget[d] -= req.input_len;
        }

        let nothing_admitted = admitted.iter().all(|a| a.is_empty());
        if nothing_admitted {
            if buffer_full || self.core.intake.waiting.is_empty() || arrivals_pending {
                // Phase over. With arrivals pending the outer
                // loop decodes whatever was buffered (or idles
                // until the next arrival if nothing was).
                return Step::PrefillEnd;
            }
            // GPU KV is the bottleneck: wait for the oldest
            // swap-out to vacate space.
            let oldest = self
                .phase
                .pending
                .iter()
                .find_map(|v| v.first().map(|p| p.vacate));
            match oldest {
                Some(h) => {
                    self.core.cs.sim.run_until(h);
                    return Step::PrefillIter;
                }
                None => panic!(
                    "prefill stalled: prompt {} does not fit GPU KV ({} tokens)",
                    self.core.intake.waiting.front().expect("non-empty").input_len,
                    self.core.replicas[0].kv.capacity_tokens()
                ),
            }
        }

        // Run the prefill passes and attach swap-outs.
        let mut join = self.core.cs.now();
        for d in 0..dp {
            join = join.max(self.core.submit_prefill(rl, cfg, d));
            let parts = std::mem::take(&mut self.core.prefill_parts);
            for &(pass, id) in &parts {
                let p = self.submit_swap_out(d, id, pass);
                self.phase.buffered_any |= p.buffered.is_some();
                self.phase.pending[d].push(p);
            }
            self.core.prefill_parts = parts;
        }
        // Keep two batch joins in flight so pipeline stages stay
        // busy across batch boundaries.
        self.phase.outstanding.push_back(join);
        if self.phase.outstanding.len() >= 2 {
            let oldest = self.phase.outstanding.pop_front().expect("non-empty");
            self.core.cs.sim.run_until(oldest);
        }
        Step::PrefillIter
    }

    /// Leave the prefill phase: drain in-flight passes and every
    /// swap-out before transitioning. Returns whether any sequences
    /// were buffered for decoding.
    fn end_prefill(&mut self) -> bool {
        let mut phase = std::mem::take(&mut self.phase);
        while let Some(j) = phase.outstanding.pop_front() {
            self.core.cs.sim.run_until(j);
        }
        let handles: Vec<SimTime> = phase
            .pending
            .iter()
            .flat_map(|v| v.iter().map(|p| p.buffered.unwrap_or(p.vacate)))
            .collect();
        if !handles.is_empty() {
            let join = self.core.cs.join(&handles);
            self.core.cs.sim.run_until(join);
        }
        for (d, list) in phase.pending.iter_mut().enumerate() {
            for p in list.drain(..) {
                self.core.replicas[d].kv.free(p.id).expect("resident");
            }
        }
        // Attribute the whole phase's wall clock (incl. drain) to prefill.
        self.prefill_wall += self.core.cs.now().as_secs() - phase.t_phase;
        self.record_phase(Phase::Prefill, phase.t_phase);
        phase.buffered_any
    }

    /// Submit the swap-out chain for one prefilled sequence: per-GPU
    /// D2H into pinned staging (dep: the prefill pass), then the
    /// host-side copy into shared memory. Sequences that finished at
    /// prefill (`output_len == 1`) skip the swap entirely.
    fn submit_swap_out(&mut self, d: usize, id: u64, pass: SimTime) -> PendingSwapOut {
        let req = self.core.intake.meta.req(id);
        if req.output_len <= 1 {
            self.core.completed += 1;
            return PendingSwapOut {
                id,
                vacate: pass,
                buffered: None,
            };
        }
        let cfg = self.eng.spec.prefill;
        let tokens = req.input_len;
        let mut d2h_parts = std::mem::take(&mut self.scratch_a);
        let mut staging_parts = std::mem::take(&mut self.scratch_b);
        d2h_parts.clear();
        staging_parts.clear();
        for pp_rank in 0..cfg.pp {
            for t in 0..cfg.tp {
                let gpu = cfg.gpu_index(d, pp_rank, t);
                let xfer = self.sizer_p.seq_transfer_time(&self.eng.cluster, gpu, tokens);
                if xfer <= 0.0 {
                    continue;
                }
                let d2h = self.core.cs.submit_d2h(gpu, xfer, Some(pass), TaskKind::SwapOut);
                let stage_t = self.sizer_p.seq_staging_time(&self.eng.cluster, gpu, tokens);
                let st = self.core.cs.submit_staging(gpu, stage_t, Some(d2h));
                d2h_parts.push(d2h);
                staging_parts.push(st);
            }
        }
        self.swap_out_bytes += self.sizer_p.seq_bytes_total(tokens);
        let vacate = self.core.cs.join(&d2h_parts);
        let buffered = self.core.cs.join(&staging_parts);
        self.scratch_a = d2h_parts;
        self.scratch_b = staging_parts;
        PendingSwapOut {
            id,
            vacate,
            buffered: Some(buffered),
        }
    }

    // ------------------------------------------------------------------
    // Decode phase (config c_d)
    // ------------------------------------------------------------------

    #[allow(clippy::needless_range_loop)] // replica index addresses several parallel arrays
    fn decode_phase(&mut self, rl: &Roofline) {
        let cfg = self.eng.spec.decode;
        let dp = cfg.dp;
        self.relayout(self.eng.plan_d.kv_tokens_per_replica, cfg.pp);
        let t_phase = self.core.cs.now();
        let mut inflight: Vec<Vec<PendingSwapIn>> = vec![Vec::new(); dp];
        for d in 0..dp {
            self.prefetch(d, &mut inflight[d]);
        }

        loop {
            // On-board arrived swap-ins.
            for d in 0..dp {
                let mut i = 0;
                while i < inflight[d].len() {
                    if self.core.cs.sim.completed(inflight[d][i].ready) {
                        let p = inflight[d].swap_remove(i);
                        self.core.graduate(d, p.id, p.tokens);
                    } else {
                        i += 1;
                    }
                }
            }

            let any_running = self.core.replicas.iter().any(|r| r.num_running() > 0);
            let any_inflight = inflight.iter().any(|v| !v.is_empty());
            if !any_running {
                if any_inflight {
                    let next = inflight
                        .iter()
                        .flat_map(|v| v.iter().map(|p| p.ready))
                        .next()
                        .expect("non-empty");
                    self.core.cs.sim.run_until(next);
                    continue;
                }
                break; // buffers drained, everything decoded
            }

            let cap = if any_inflight { BURST_CAP_INFLIGHT } else { BURST_CAP };
            self.core.decode_burst(rl, cfg, cap);
            for d in 0..dp {
                self.prefetch(d, &mut inflight[d]);
            }
        }
        self.decode_wall += self.core.cs.now() - t_phase;
        self.record_phase(Phase::Decode, t_phase.as_secs());
    }

    /// Issue swap-ins while GPU KV capacity allows (reserving each
    /// sequence's full final context).
    fn prefetch(&mut self, d: usize, inflight: &mut Vec<PendingSwapIn>) {
        let cfg = self.eng.spec.decode;
        while let Some(&front) = self.buffers[d].peek() {
            let reserve = front.tokens + front.output_len;
            if !self.core.replicas[d].kv.can_fit(reserve) {
                break;
            }
            let seq = self.buffers[d].pop().expect("peeked");
            self.core.replicas[d]
                .kv
                .allocate(seq.req_id, reserve)
                .expect("can_fit checked");
            let mut parts = std::mem::take(&mut self.scratch_a);
            parts.clear();
            for pp_rank in 0..cfg.pp {
                for t in 0..cfg.tp {
                    let gpu = cfg.gpu_index(d, pp_rank, t);
                    let stage_t =
                        self.sizer_d.seq_staging_time(&self.eng.cluster, gpu, seq.tokens);
                    let xfer =
                        self.sizer_d.seq_transfer_time(&self.eng.cluster, gpu, seq.tokens);
                    if xfer <= 0.0 {
                        continue;
                    }
                    let st = self.core.cs.submit_staging(gpu, stage_t, None);
                    let h2d = self.core.cs.submit_h2d(gpu, xfer, Some(st), TaskKind::SwapIn);
                    parts.push(h2d);
                }
            }
            self.swap_in_bytes += self.sizer_d.seq_bytes_total(seq.tokens);
            let ready = self.core.cs.join(&parts);
            self.scratch_a = parts;
            inflight.push(PendingSwapIn {
                id: seq.req_id,
                tokens: seq.tokens,
                ready,
            });
        }
    }

    // ------------------------------------------------------------------
    // Re-sharding
    // ------------------------------------------------------------------

    fn reshard(&mut self, from: ParallelConfig, to: ParallelConfig) {
        // Quiesce the cluster (communicators must be rebuilt anyway).
        self.core.cs.sim.run_until_idle();
        let t0 = self.core.cs.now();
        let plan = ReshardPlan::plan(&self.eng.model, from, to);
        let mut handles = Vec::new();
        for mv in &plan.moves {
            let dur = self
                .eng
                .cluster
                .host_link
                .pinned_copy_time(mv.load_bytes as f64);
            if dur > 0.0 {
                handles.push(self.core.cs.submit_h2d(mv.gpu, dur, None, TaskKind::ReshardLoad));
            }
            handles.push(self.core.cs.submit_compute_overhead(
                mv.gpu,
                efficiency::RESHARD_FIXED_OVERHEAD_S,
                None,
            ));
        }
        let join = self.core.cs.join(&handles);
        self.core.cs.sim.run_until(join);
        self.reshard_wall += self.core.cs.now() - t0;
        self.transitions += 1;
        self.record_phase(Phase::Reshard, t0.as_secs());
    }

}

impl Resumable for SeesawRun<'_> {
    fn core(&self) -> &RunCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RunCore {
        &mut self.core
    }

    /// The model is initially loaded in the prefill sharding; each
    /// cycle prefills into the CPU buffer, re-shards, decodes the
    /// buffer dry and re-shards back while requests remain.
    fn advance(&mut self, rl: &Roofline) -> bool {
        loop {
            match self.at {
                Step::PrefillStart => {
                    self.begin_prefill();
                    self.at = Step::PrefillIter;
                }
                Step::PrefillIter => {
                    self.reclaim_swap_outs();
                    self.at = Step::PrefillAdmit;
                }
                Step::PrefillAdmit => {
                    if !self.core.intake.sees_arrivals(self.core.cs.now()) {
                        return false;
                    }
                    self.at = self.prefill_round(rl);
                }
                Step::PrefillEnd => {
                    if self.end_prefill() {
                        self.reshard(self.eng.spec.prefill, self.eng.spec.decode);
                        self.decode_phase(rl);
                        self.at = Step::AfterDecode;
                    } else {
                        self.at = Step::Unbuffered;
                    }
                }
                Step::AfterDecode => match self.core.intake.drained() {
                    None => return false,
                    Some(true) => self.at = Step::Done,
                    Some(false) => {
                        self.reshard(self.eng.spec.decode, self.eng.spec.prefill);
                        self.at = Step::PrefillStart;
                    }
                },
                Step::Unbuffered => match self.core.intake.drained() {
                    None => return false,
                    Some(true) => self.at = Step::Done,
                    Some(false) => {
                        // Nothing buffered and nothing admissible: only
                        // future arrivals remain, so the cluster idles
                        // until the next one. (Offline, an unbuffered
                        // phase with requests waiting cannot occur:
                        // prefill always makes progress or panics.)
                        self.core.wait_for_next_arrival();
                        self.at = Step::PrefillStart;
                    }
                },
                Step::Done => return true,
            }
        }
    }

    fn finish(self) -> EngineReport {
        debug_assert_eq!(self.at, Step::Done, "finish runs after the loop completes");
        EngineReport {
            prefill_wall_s: self.prefill_wall,
            decode_wall_s: self.decode_wall,
            reshard_wall_s: self.reshard_wall,
            transitions: self.transitions,
            swap_out_bytes: self.swap_out_bytes,
            swap_in_bytes: self.swap_in_bytes,
            phases: self.phases,
            ..self.core.finish(self.eng.spec.label())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;
    use seesaw_workload::WorkloadGen;

    fn spec_p4t4() -> SeesawSpec {
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4))
    }

    #[test]
    fn completes_all_requests_with_resharding() {
        let eng = SeesawEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            spec_p4t4(),
        )
        .unwrap();
        let reqs = WorkloadGen::constant(1024, 64).generate(32);
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 32);
        assert!(report.transitions >= 1, "must re-shard at least once");
        assert!(report.reshard_wall_s > 0.0);
        assert!(report.swap_out_bytes > 0);
        assert!(report.swap_in_bytes > 0);
        assert!(report.prefill_wall_s > 0.0);
        assert!(report.decode_wall_s > 0.0);
    }

    /// The simulator keeps nothing per task, so its memory is bounded
    /// however long the stream; what is left to pin is what a run
    /// submits. Swaps and re-shards are tasks; prefill batches and
    /// decode bursts are closed form and a join is a `max` (7 596
    /// tasks while prefill batches were submitted pass by pass, 9 127
    /// when burst markers and joins were tasks too). The count grows
    /// with the stream across its prefill/decode cycles.
    #[test]
    fn submitted_task_counts_are_pinned() {
        use seesaw_workload::ArrivalDist;
        let stream = |n| {
            WorkloadGen::constant(512, 32)
                .with_arrivals(ArrivalDist::Poisson { rate: 4.0 })
                .expect("valid arrivals")
                .generate(n)
        };
        let mut spec = spec_p4t4();
        spec.buffer_tokens_override = Some(6_000);
        let eng = SeesawEngine::new(ClusterSpec::a10x4(), presets::llama2_13b(), spec).unwrap();
        let submitted = |n| {
            let mut run = SeesawRun::new(&eng, Intake::closed(&stream(n)));
            assert!(run.advance(&run.core.roofline()), "a closed run always completes");
            run.core.cs.sim.submitted_tasks()
        };
        let (short, long) = (submitted(100), submitted(400));
        assert!(long > 3 * short, "submitted {short} vs {long}");
        assert_eq!(long, 7_000, "submitted {short} vs {long}");
    }

    /// Two DP replicas given identical work finish it at identical
    /// instants. Their swap-ins end at the same time, and each is
    /// on-boarded the moment the clock reaches it; so the pair behaves
    /// exactly like one replica serving half the stream.
    #[test]
    fn equal_dp_replicas_stay_in_lockstep() {
        let run = |cluster: ClusterSpec, dp: usize, n: usize| {
            let spec = SeesawSpec::new(
                ParallelConfig::new(dp, 1, 4),
                ParallelConfig::new(dp, 4, 1),
            );
            let eng = SeesawEngine::new(cluster, presets::codellama_34b(), spec).unwrap();
            eng.run(&WorkloadGen::constant(512, 32).generate(n))
        };
        let pair = run(ClusterSpec::a10x8(), 2, 8);
        let single = run(ClusterSpec::a10x4(), 1, 4);
        assert_eq!(
            pair.stats.duration_s.to_bits(),
            single.stats.duration_s.to_bits(),
            "D2P4->D2T4 on 8 requests {} s vs D1P4->D1T4 on 4 requests {} s",
            pair.stats.duration_s,
            single.stats.duration_s
        );
        assert_eq!(format!("{:.9}", single.stats.duration_s), "3.345096246");
        for k in pair.timeline.chunks(2) {
            let (a, b) = (&k[0], &k[1]);
            assert_eq!(
                (a.first_token_s.to_bits(), a.completion_s.to_bits()),
                (b.first_token_s.to_bits(), b.completion_s.to_bits()),
                "requests {} and {}",
                a.id,
                b.id
            );
        }
    }

    #[test]
    fn label_uses_arrow_notation() {
        assert_eq!(spec_p4t4().label(), "P4->T4");
    }

    #[test]
    fn rejects_dp_change_across_stages() {
        let spec = SeesawSpec::new(ParallelConfig::new(2, 2, 1), ParallelConfig::tp(4));
        let err =
            SeesawEngine::new(ClusterSpec::a10x4(), presets::llama2_13b(), spec).unwrap_err();
        assert!(matches!(err, FitError::Invalid(_)));
    }

    #[test]
    fn single_token_outputs_never_reach_decode() {
        let eng = SeesawEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            spec_p4t4(),
        )
        .unwrap();
        let reqs: Vec<Request> = (0..8).map(|i| Request::new(i, 700, 1)).collect();
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 8);
        assert_eq!(report.transitions, 0, "nothing buffered, no transition");
        assert_eq!(report.swap_in_bytes, 0);
    }

    #[test]
    fn small_buffer_forces_more_transitions() {
        let m = presets::llama2_13b();
        let cluster = ClusterSpec::a10x4();
        let reqs = WorkloadGen::constant(1000, 50).generate(48);

        let mut small = spec_p4t4();
        // Room for ~8 prompts per cycle.
        small.buffer_tokens_override = Some(8_000);
        let r_small = SeesawEngine::new(cluster.clone(), m.clone(), small)
            .unwrap()
            .run(&reqs);

        let big = spec_p4t4();
        let r_big = SeesawEngine::new(cluster, m, big).unwrap().run(&reqs);

        assert!(
            r_small.transitions > r_big.transitions,
            "small buffer {} transitions vs big {}",
            r_small.transitions,
            r_big.transitions
        );
        assert!(r_small.reshard_wall_s > r_big.reshard_wall_s);
    }

    #[test]
    fn overlap_beats_serialized_swaps() {
        let m = presets::llama2_13b();
        let cluster = ClusterSpec::a10x4();
        let reqs = WorkloadGen::constant(1500, 80).generate(32);

        let on = SeesawEngine::new(cluster.clone(), m.clone(), spec_p4t4())
            .unwrap()
            .run(&reqs);
        let mut off_spec = spec_p4t4();
        off_spec.overlap = false;
        let off = SeesawEngine::new(cluster, m, off_spec).unwrap().run(&reqs);
        assert!(
            on.throughput_rps() >= off.throughput_rps(),
            "async pipeline must not hurt: {} vs {}",
            on.throughput_rps(),
            off.throughput_rps()
        );
    }

    #[test]
    fn identity_configs_degenerate_to_static_with_swaps() {
        // c_p == c_d is legal; re-sharding loads nothing but the
        // engine still pays the fixed transition cost.
        let spec = SeesawSpec::new(ParallelConfig::new(1, 2, 2), ParallelConfig::new(1, 2, 2));
        let eng =
            SeesawEngine::new(ClusterSpec::a10x4(), presets::llama2_13b(), spec).unwrap();
        let reqs = WorkloadGen::constant(512, 16).generate(16);
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 16);
    }
}
