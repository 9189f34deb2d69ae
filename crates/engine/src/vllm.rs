//! The static-parallelism baseline engine (vLLM-like).
//!
//! One `(DP, TP, PP)` configuration for the whole run, continuous
//! batching, paged KV, and one of three scheduling policies
//! ([`SchedulingPolicy`]). Admission is conservative: a request is
//! admitted only when its full `input + output` KV reservation fits,
//! so no preemption is ever needed (this matches the paper's
//! Appendix A batching model, where max batch size is derived from
//! average *total* sequence length).
//!
//! A run (`RunState`) keeps only its policy state on top of the
//! shared `RunCore`: the core idles to arrivals, runs decode bursts
//! of at most `BURST_CAP` rounds and builds the report; this module
//! admits, prefills (at most `MAX_PREFILL_TOKENS` prompt tokens per
//! replica pass) and schedules chunked mixed rounds.

use crate::actor::{run_to_end, EngineActor, Intake, Resumable, SimActor};
use crate::driver::{kv_capacity, submit_mixed_round, RunCore, BURST_CAP, MAX_PREFILL_TOKENS};
use crate::online::{roofline_rates, OnlineEngine, ServiceRates};
use crate::report::EngineReport;
use crate::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::{FitError, MemoryPlan, ParallelConfig};
use seesaw_roofline::{BatchShape, Roofline};
use seesaw_sim::SimTime;
use seesaw_workload::Request;
use std::collections::VecDeque;
use std::sync::Arc;

/// A static-parallelism engine instance.
///
/// Holds `Arc`-shared spec handles: every run (and its `ClusterSim` /
/// `Roofline`) borrows the same allocations instead of deep-cloning
/// the cluster and model per simulation.
#[derive(Debug)]
pub struct VllmEngine {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    cfg: ParallelConfig,
    policy: SchedulingPolicy,
    plan: MemoryPlan,
}

/// A submitted-but-not-yet-integrated prefill batch.
#[derive(Debug, Clone)]
struct InflightPrefill {
    /// When its last pass ends.
    join: SimTime,
    admitted: Vec<Vec<(u64, usize)>>,
}

/// Sequence being chunk-prefilled (chunked policy only).
#[derive(Debug, Clone, Copy)]
struct Prefilling {
    id: u64,
    prompt: usize,
    done: usize,
}

impl VllmEngine {
    /// Validate the configuration against the cluster and build the
    /// engine. Accepts owned specs or `Arc` handles (sweeps share one
    /// allocation across all candidates). A chunked-prefill policy
    /// needs a positive chunk size ([`FitError::Invalid`] otherwise).
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        model: impl Into<Arc<ModelConfig>>,
        cfg: ParallelConfig,
        policy: SchedulingPolicy,
    ) -> Result<Self, FitError> {
        let (cluster, model) = (cluster.into(), model.into());
        if policy == (SchedulingPolicy::ChunkedPrefill { chunk_tokens: 0 }) {
            return Err(FitError::Invalid(
                "chunked prefill needs a positive chunk size".into(),
            ));
        }
        if cfg.num_gpus() != cluster.num_gpus {
            return Err(FitError::NotEnoughGpus {
                need: cfg.num_gpus(),
                have: cluster.num_gpus,
            });
        }
        let plan = MemoryPlan::new(&model, &cluster, cfg)?;
        Ok(VllmEngine {
            cluster,
            model,
            cfg,
            policy,
            plan,
        })
    }

    /// Configuration label.
    pub fn label(&self) -> String {
        self.cfg.to_string()
    }

    /// KV capacity of one replica, in tokens (whole blocks).
    pub fn kv_capacity_tokens(&self) -> usize {
        kv_capacity(self.plan.kv_tokens_per_replica)
    }

    /// Whether a replica can ever admit `req`. Admission reserves the
    /// request's full length in KV, and outside chunked prefill its
    /// whole prompt must fit one prefill pass.
    pub fn holds(&self, req: &Request) -> bool {
        let prompt_fits = matches!(self.policy, SchedulingPolicy::ChunkedPrefill { .. })
            || req.input_len <= MAX_PREFILL_TOKENS;
        prompt_fits && req.total_len() <= self.kv_capacity_tokens()
    }

    /// Process `requests` to completion, returning the run report.
    pub fn run(&self, requests: &[Request]) -> EngineReport {
        run_to_end(RunState::new(self, Intake::closed(requests)))
    }
}

impl OnlineEngine for VllmEngine {
    fn label(&self) -> String {
        VllmEngine::label(self)
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        VllmEngine::run(self, requests)
    }

    fn actor(&self, ready_s: f64) -> Box<dyn EngineActor + '_> {
        let start = move |intake| RunState::new(self, intake);
        Box::new(SimActor::new(Intake::open(ready_s), start))
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        roofline_rates(&self.cluster, &self.model, self.cfg, self.cfg, avg_in, avg_out)
    }
}

/// Where a paused [`RunState`] resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resume {
    /// The top of the scheduling loop (its all-done check).
    Top,
    /// Inside an admission step: pipelined prefill, or a chunked
    /// round's admission.
    Admit,
    /// Prefill-prioritized: after the prefill step, at the second
    /// all-done check.
    AfterPrefill,
    /// Chunked: rounds drained, nothing chunking, at the all-done
    /// check.
    Idle,
    /// The run is complete.
    Done,
}

#[derive(Clone)]
struct RunState<'a> {
    eng: &'a VllmEngine,
    core: RunCore,
    prefilling: Vec<VecDeque<Prefilling>>,
    prefill_wall: f64,
    decode_wall: f64,
    mixed_wall: f64,
    at: Resume,
    /// Prefill batches in flight within the current prefill step.
    batches: VecDeque<InflightPrefill>,
    /// Whether the current prefill step has prefilled anything.
    prefilled: bool,
    /// Ends of the mixed rounds in flight (chunked policy).
    rounds: VecDeque<SimTime>,
    round: usize,
    /// Reusable buffers of a mixed round step: the prompts it finishes
    /// `(replica, id, prompt)`, and the replicas it decodes.
    graduated: Vec<(usize, u64, usize)>,
    decoded: Vec<usize>,
    /// Admission lists of integrated prefill batches, for reuse.
    spare_admitted: Vec<Vec<Vec<(u64, usize)>>>,
}

impl<'a> RunState<'a> {
    fn new(eng: &'a VllmEngine, intake: Intake) -> Self {
        let (cfg, kv_tokens) = (eng.cfg, eng.plan.kv_tokens_per_replica);
        RunState {
            eng,
            core: RunCore::new(&eng.cluster, &eng.model, intake, cfg.dp, kv_tokens, cfg.pp),
            prefilling: vec![VecDeque::new(); cfg.dp],
            prefill_wall: 0.0,
            decode_wall: 0.0,
            mixed_wall: 0.0,
            at: Resume::Top,
            batches: VecDeque::new(),
            prefilled: false,
            rounds: VecDeque::new(),
            round: 0,
            graduated: Vec::new(),
            decoded: Vec::new(),
            spare_admitted: Vec::new(),
        }
    }

    /// The all-done check: `None` when the replicas are idle with
    /// every pushed request served, so the answer depends on pushes
    /// still to come.
    fn all_done(&self) -> Option<bool> {
        if self.core.replicas.iter().any(|r| r.num_running() > 0)
            || self.prefilling.iter().any(|p| !p.is_empty())
        {
            return Some(false);
        }
        self.core.intake.drained()
    }

    /// Admit waiting requests into replica KV caches (full
    /// `input+output` reservation), spreading across replicas, with
    /// up to `token_budget` prompt tokens per replica. Leaves the
    /// per-replica admitted `(id, prompt_len)` lists in
    /// `self.core.admitted`.
    fn admit(&mut self, token_budget: usize) {
        let core = &mut self.core;
        core.admitted.iter_mut().for_each(Vec::clear);
        core.budget.clear();
        core.budget.resize(core.replicas.len(), token_budget);
        'outer: while let Some(&req) = core.intake.waiting.front() {
            // Online serving: a request is only schedulable once its
            // arrival time has passed in simulated time. (Offline
            // workloads carry arrival_s == 0.0 and never break here.)
            if req.arrival_s > core.cs.now().as_secs() {
                break 'outer;
            }
            let reserve = req.total_len();
            // Pick the replica with the most free KV that can take it.
            let mut best: Option<usize> = None;
            for (d, rep) in core.replicas.iter().enumerate() {
                if core.budget[d] >= req.input_len && rep.kv.can_fit(reserve) {
                    let better = match best {
                        None => true,
                        Some(b) => rep.kv.free_tokens() > core.replicas[b].kv.free_tokens(),
                    };
                    if better {
                        best = Some(d);
                    }
                }
            }
            match best {
                Some(d) => {
                    core.intake.waiting.pop_front();
                    core.replicas[d]
                        .kv
                        .allocate(req.id, reserve)
                        .expect("can_fit checked");
                    core.admitted[d].push((req.id, req.input_len));
                    core.budget[d] -= req.input_len;
                }
                None => {
                    // No replica can take the head request right now;
                    // it is too large only if nothing holds KV that
                    // will be freed (in-flight prefill batches do:
                    // `prefill_step` integrates them and admits again).
                    if core.replicas.iter().all(|r| r.num_running() == 0)
                        && self.prefilling.iter().all(|p| p.is_empty())
                        && core.admitted.iter().all(|a| a.is_empty())
                        && self.batches.is_empty()
                    {
                        let cap = core.replicas[0].kv.capacity_tokens();
                        panic!(
                            "request {} needs {} KV tokens but replica capacity is {cap}",
                            req.id, reserve
                        );
                    }
                    break 'outer;
                }
            }
        }
    }

    /// Wait for one in-flight prefill batch and move its sequences to
    /// `running` (their first token is produced by the prefill pass).
    fn integrate_prefill(&mut self, batch: InflightPrefill) {
        let core = &mut self.core;
        let t0 = core.cs.now();
        core.cs.sim.run_until(batch.join);
        self.prefill_wall += core.cs.now() - t0;
        for (d, members) in batch.admitted.iter().enumerate() {
            for &(id, prompt) in members {
                core.graduate(d, id, prompt);
            }
        }
        self.spare_admitted.push(batch.admitted);
    }

    /// Admit + prefill with up to two batches in flight, so pipeline
    /// stages stay busy across batch boundaries (matching vLLM's
    /// virtual-engine behaviour under PP). Resumable: returns `false`
    /// when an admission must wait for more pushes (the in-flight
    /// batches stay in `self.batches`), `true` once the step is over;
    /// `self.prefilled` then says whether any prefill work happened.
    fn prefill_step(&mut self, rl: &Roofline) -> bool {
        loop {
            if !self.core.intake.sees_arrivals(self.core.cs.now()) {
                return false;
            }
            self.admit(MAX_PREFILL_TOKENS);
            if self.core.admitted.iter().all(|a| a.is_empty()) {
                break;
            }
            // Whole-prompt passes for the admitted batches; waiting on
            // them is left to the next batch, so the pipeline stays full.
            let (core, cfg) = (&mut self.core, self.eng.cfg);
            let join =
                (0..cfg.dp).fold(core.cs.now(), |t, d| t.max(core.submit_prefill(rl, cfg, d)));
            // `admit` clears the lists it reuses.
            let spare = self
                .spare_admitted
                .pop()
                .unwrap_or_else(|| vec![Vec::new(); self.eng.cfg.dp]);
            let admitted = std::mem::replace(&mut self.core.admitted, spare);
            self.prefilled = true;
            self.batches.push_back(InflightPrefill { join, admitted });
            if self.batches.len() >= 2 {
                let oldest = self.batches.pop_front().expect("non-empty");
                self.integrate_prefill(oldest);
            }
        }
        while let Some(batch) = self.batches.pop_front() {
            self.integrate_prefill(batch);
        }
        true
    }

    /// One decode burst across replicas, charging its wall time to
    /// decode. Returns whether any work ran.
    fn do_decode_burst(&mut self, rl: &Roofline) -> bool {
        let t0 = self.core.cs.now();
        let ran = self.core.decode_burst(rl, self.eng.cfg, BURST_CAP);
        if ran {
            self.decode_wall += self.core.cs.now() - t0;
        }
        ran
    }

    /// The loop-top all-done check: on to a fresh prefill step or to
    /// `Done`, or `false` to park until the answer is known.
    fn top(&mut self) -> bool {
        match self.all_done() {
            None => return false,
            Some(true) => self.at = Resume::Done,
            Some(false) => {
                self.prefilled = false;
                self.at = Resume::Admit;
            }
        }
        true
    }

    fn advance_prefill_prioritized(&mut self, rl: &Roofline) -> bool {
        loop {
            match self.at {
                Resume::Top => {
                    if !self.top() {
                        return false;
                    }
                }
                Resume::Admit => {
                    if !self.prefill_step(rl) {
                        return false;
                    }
                    self.at = Resume::AfterPrefill;
                }
                Resume::AfterPrefill => {
                    match self.all_done() {
                        None => return false,
                        Some(true) => {
                            self.at = Resume::Done;
                            return true;
                        }
                        Some(false) => {}
                    }
                    let decoded = self.do_decode_burst(rl);
                    if !self.prefilled && !decoded {
                        // Nothing running and nothing admissible: the
                        // only remaining work is a future arrival.
                        self.core.wait_for_next_arrival();
                    }
                    self.at = Resume::Top;
                }
                Resume::Done => return true,
                Resume::Idle => unreachable!("chunked-only state"),
            }
        }
    }

    fn advance_decode_prioritized(&mut self, rl: &Roofline) -> bool {
        loop {
            match self.at {
                Resume::Top => {
                    if !self.top() {
                        return false;
                    }
                }
                Resume::Admit => {
                    // Fill the batch once, then decode it to completion.
                    if !self.prefill_step(rl) {
                        return false;
                    }
                    let mut progressed = self.prefilled;
                    while self.core.replicas.iter().any(|r| r.num_running() > 0) {
                        self.do_decode_burst(rl);
                        progressed = true;
                    }
                    if !progressed {
                        self.core.wait_for_next_arrival();
                    }
                    self.at = Resume::Top;
                }
                Resume::Done => return true,
                Resume::AfterPrefill | Resume::Idle => unreachable!("not a decode-prioritized state"),
            }
        }
    }

    fn advance_chunked(&mut self, rl: &Roofline, chunk_tokens: usize) -> bool {
        // Two mixed rounds stay in flight so pipeline stages remain
        // busy across round boundaries; a round is submitted only
        // after the one two back has ended, which
        // `submit_mixed_round`'s closed-form schedule relies on.
        // Engine state (graduations,
        // decode advances, admissions) evolves deterministically, so
        // bookkeeping is applied at submission; the simulator is only
        // consulted for wall-clock time.
        loop {
            match self.at {
                Resume::Top | Resume::Admit => {
                    if !self.core.intake.sees_arrivals(self.core.cs.now()) {
                        self.at = Resume::Admit;
                        return false;
                    }
                    // Admit into the prefilling queues.
                    self.admit(usize::MAX);
                    for (d, batch) in self.core.admitted.iter().enumerate() {
                        for &(id, prompt) in batch {
                            self.prefilling[d].push_back(Prefilling { id, prompt, done: 0 });
                        }
                    }
                    if self.prefilling.iter().any(|p| !p.is_empty()) {
                        self.round += 1;
                        if let Some(end) = self.submit_mixed_round_step(rl, chunk_tokens, self.round) {
                            self.rounds.push_back(end);
                            if self.rounds.len() >= 2 {
                                let oldest = self.rounds.pop_front().expect("non-empty");
                                self.wait_mixed(oldest);
                            }
                        }
                        self.at = Resume::Admit;
                    } else {
                        // Drain in-flight mixed rounds before pure decode.
                        while let Some(j) = self.rounds.pop_front() {
                            self.wait_mixed(j);
                        }
                        self.at = Resume::Idle;
                    }
                }
                Resume::Idle => {
                    match self.all_done() {
                        None => return false,
                        Some(true) => {
                            self.at = Resume::Done;
                            return true;
                        }
                        Some(false) => {}
                    }
                    let now = self.core.cs.now().as_secs();
                    if !self.do_decode_burst(rl)
                        && self.core.intake.waiting.front().is_some_and(|r| r.arrival_s > now)
                    {
                        // Nothing running and nothing chunking, but
                        // waiting non-empty: either the drain just made
                        // the head request admissible, or its arrival
                        // is still in the future and the cluster idles
                        // until it.
                        self.core.wait_for_next_arrival();
                    }
                    self.at = Resume::Admit;
                }
                Resume::Done => return true,
                Resume::AfterPrefill => unreachable!("not a chunked state"),
            }
        }
    }

    /// Wait for one in-flight mixed round's end, charging mixed-batch
    /// time.
    fn wait_mixed(&mut self, end: SimTime) {
        let cs = &mut self.core.cs;
        let t0 = cs.now();
        cs.sim.run_until(end);
        self.mixed_wall += cs.now() - t0;
    }

    /// Run one mixed round per replica (every running sequence decodes
    /// one token while up to `chunk_tokens` prompt tokens prefill) and
    /// apply its deterministic state updates immediately. Returns the
    /// round's end.
    fn submit_mixed_round_step(
        &mut self,
        rl: &Roofline,
        chunk_tokens: usize,
        round: usize,
    ) -> Option<SimTime> {
        self.graduated.clear();
        self.decoded.clear();
        let core = &mut self.core;
        let mut round_end: Option<SimTime> = None;
        for d in 0..core.replicas.len() {
            // Build this replica's chunk from the head of its queue.
            let mut budget = chunk_tokens;
            let mut chunk = BatchShape::empty();
            while budget > 0 {
                let Some(front) = self.prefilling[d].front_mut() else {
                    break;
                };
                let take = budget.min(front.prompt - front.done);
                chunk = chunk.merge(&BatchShape::prefill_chunk(take, front.done));
                front.done += take;
                budget -= take;
                if front.done == front.prompt {
                    let p = self.prefilling[d].pop_front().expect("front exists");
                    self.graduated.push((d, p.id, p.prompt));
                }
            }
            let replica = &mut core.replicas[d];
            let had_running = replica.num_running() > 0;
            let cfg = self.eng.cfg;
            if let Some(end) = submit_mixed_round(&mut core.cs, rl, cfg, replica, &chunk, round) {
                round_end = Some(round_end.map_or(end, |e| e.max(end)));
                if had_running {
                    self.decoded.push(d);
                }
            }
        }
        let end = round_end?;
        for &d in &self.decoded {
            self.core.advance_decode(d, 1, end);
        }
        for &(d, id, prompt) in &self.graduated {
            // The round that finishes a prompt's last chunk emits its
            // first token.
            self.core.rec.first_token(id, end);
            if self.core.graduate(d, id, prompt) {
                self.core.rec.completed(id, end);
            }
        }
        Some(end)
    }
}

impl Resumable for RunState<'_> {
    fn core(&self) -> &RunCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RunCore {
        &mut self.core
    }

    fn advance(&mut self, rl: &Roofline) -> bool {
        match self.eng.policy {
            SchedulingPolicy::PrefillPrioritized => self.advance_prefill_prioritized(rl),
            SchedulingPolicy::DecodePrioritized => self.advance_decode_prioritized(rl),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens } => self.advance_chunked(rl, chunk_tokens),
        }
    }

    fn finish(self) -> EngineReport {
        debug_assert_eq!(self.at, Resume::Done, "finish runs after the loop completes");
        EngineReport {
            prefill_wall_s: self.prefill_wall,
            decode_wall_s: self.decode_wall,
            mixed_wall_s: self.mixed_wall,
            ..self.core.finish(self.eng.label())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;
    use seesaw_workload::WorkloadGen;

    fn small_requests(n: usize) -> Vec<Request> {
        WorkloadGen::constant(512, 32).generate(n)
    }

    /// No vLLM pass is a task: prefill batches, decode bursts and mixed
    /// rounds are scheduled in closed form, and a join is a `max`. A
    /// 400-request stream submitted 380 tasks under either
    /// prefill/decode-prioritized policy while prefill batches were
    /// submitted pass by pass (759 when burst markers and joins were
    /// tasks), and 981 under the chunked one with round markers.
    #[test]
    fn submitted_task_counts_are_pinned() {
        use seesaw_workload::ArrivalDist;
        let stream = WorkloadGen::constant(512, 32)
            .with_arrivals(ArrivalDist::Poisson { rate: 4.0 })
            .expect("valid arrivals")
            .generate(400);
        for policy in [
            SchedulingPolicy::PrefillPrioritized,
            SchedulingPolicy::DecodePrioritized,
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
        ] {
            let eng = VllmEngine::new(
                ClusterSpec::a10x4(),
                presets::llama2_13b(),
                ParallelConfig::new(1, 2, 2),
                policy,
            )
            .unwrap();
            let mut run = RunState::new(&eng, Intake::closed(&stream));
            assert!(run.advance(&run.core.roofline()), "a closed run always completes");
            assert_eq!(run.core.cs.sim.submitted_tasks(), 0, "{policy:?}");
            assert!(run.core.cs.sim.busy_by_kind().compute > 0.0, "{policy:?}");
        }
    }

    #[test]
    fn completes_all_requests() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let reqs = small_requests(32);
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 32);
        assert!(report.throughput_rps() > 0.0);
        assert!(report.prefill_wall_s > 0.0);
        assert!(report.decode_wall_s > 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_fills_buckets() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let reqs = small_requests(12);
        let (report, summary) = OnlineEngine::run_traced(&eng, &reqs);
        assert_eq!(report, eng.run(&reqs), "the totals are the report's");
        assert_eq!(summary, report.busy_by_kind);
        assert!(summary.compute > 0.0, "forward passes land in compute");
        assert_eq!(summary.total(), summary.compute, "vLLM runs nothing but passes");
    }

    #[test]
    fn decode_prioritized_also_completes() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::tp(4),
            SchedulingPolicy::DecodePrioritized,
        )
        .unwrap();
        let report = eng.run(&small_requests(24));
        assert_eq!(report.stats.requests, 24);
    }

    #[test]
    fn chunked_prefill_completes_and_uses_mixed_batches() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
        )
        .unwrap();
        let report = eng.run(&small_requests(24));
        assert_eq!(report.stats.requests, 24);
        assert!(report.mixed_wall_s > 0.0, "chunked runs mixed batches");
    }

    #[test]
    fn single_token_outputs_finish_at_prefill() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let reqs: Vec<Request> = (0..8).map(|i| Request::new(i, 800, 1)).collect();
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 8);
        assert_eq!(report.decode_wall_s, 0.0);
    }

    #[test]
    fn dp_replicas_share_load() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(2, 2, 1),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let report = eng.run(&small_requests(32));
        assert_eq!(report.stats.requests, 32);
    }

    #[test]
    fn rejects_config_not_matching_cluster() {
        let err = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::tp(8),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap_err();
        assert!(matches!(err, FitError::NotEnoughGpus { .. }));
    }

    #[test]
    fn rejects_a_zero_chunk_size() {
        let err = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, FitError::Invalid(ref m) if m.contains("chunk size")), "{err}");
    }

    #[test]
    #[should_panic(expected = "KV tokens")]
    fn oversized_request_panics_with_context() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        // One request larger than the whole KV space.
        let reqs = vec![Request::new(0, 2_000_000, 10)];
        eng.run(&reqs);
    }

    /// A request that fits once in-flight prefill batches are
    /// integrated must wait for them, not be reported as larger than
    /// the cache: under decode priority at D2P2 and D2T2, admission
    /// once found its only KV holders in `batches` and panicked on a
    /// 455- and a 707-token request against 26 096 tokens of capacity.
    #[test]
    fn admission_waits_for_in_flight_prefill_batches() {
        use seesaw_workload::ArrivalDist;
        let stream = WorkloadGen::sharegpt(7)
            .with_arrivals(ArrivalDist::Poisson { rate: 3.0 })
            .expect("valid arrivals")
            .generate(200);
        for config in [ParallelConfig::new(2, 1, 2), ParallelConfig::new(2, 2, 1)] {
            let eng = VllmEngine::new(
                ClusterSpec::a10x4(),
                presets::llama2_13b(),
                config,
                SchedulingPolicy::DecodePrioritized,
            )
            .unwrap();
            let report = eng.run(&stream);
            assert_eq!(report.stats.requests, 200, "{config:?}");
            assert_eq!(report.timeline.len(), 200, "{config:?}");
        }
    }

    #[test]
    fn throughput_improves_with_more_requests_amortizing_ramp() {
        let eng = VllmEngine::new(
            ClusterSpec::a10x4(),
            presets::llama2_13b(),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .unwrap();
        let small = eng.run(&small_requests(8));
        let large = eng.run(&small_requests(64));
        assert!(large.throughput_rps() >= small.throughput_rps() * 0.9);
    }
}
