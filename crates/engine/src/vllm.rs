//! The static-parallelism baseline engine (vLLM-like).
//!
//! One `(DP, TP, PP)` configuration for the whole run, continuous
//! batching, paged KV, and one of three scheduling policies
//! ([`SchedulingPolicy`]). Admission is conservative: a request is
//! admitted only when its full `input + output` KV reservation fits,
//! so no preemption is ever needed (this matches the paper's
//! Appendix A batching model, where max batch size is derived from
//! average *total* sequence length).

use crate::actor::{run_to_end, EngineActor, Intake, Resumable, SimActor};
use crate::cluster_sim::ClusterSim;
use crate::driver::{
    kv_capacity, submit_decode_burst, submit_mixed_round, submit_prefill_batch, Replica, RunSeq,
};
use crate::online::{OnlineEngine, ServiceRates};
use crate::report::EngineReport;
use crate::timing::TimingRecorder;
use crate::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::{FitError, MemoryPlan, ParallelConfig};
use seesaw_roofline::{BatchShape, Roofline};
use seesaw_sim::SimTime;
use seesaw_workload::{LatencyStats, Request};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum decode rounds submitted between scheduling decisions.
const BURST_CAP: usize = 64;

/// Maximum prompt tokens admitted into one prefill pass (vLLM's
/// `max_num_batched_tokens`-style bound).
const MAX_PREFILL_TOKENS: usize = 16384;

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
        run_to_end(RunState::new(self, Intake::closed(requests)), &self.roofline())
    }

    fn roofline(&self) -> Roofline {
        Roofline::new(Arc::clone(&self.cluster), Arc::clone(&self.model))
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
        let tm = seesaw_roofline::ThroughputModel::new(Roofline::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.model),
        ));
        ServiceRates {
            prefill_tokens_per_sec: tm.prefill_tokens_per_sec(self.cfg, avg_in.max(1), 4),
            decode_tokens_per_sec: tm
                .decode_seq_steps_per_sec_max_batch(self.cfg, avg_in + avg_out / 2)
                .expect("config validated at construction"),
        }
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
    cs: ClusterSim,
    replicas: Vec<Replica>,
    intake: Intake,
    prefilling: Vec<VecDeque<Prefilling>>,
    completed: usize,
    prefill_wall: f64,
    decode_wall: f64,
    mixed_wall: f64,
    rec: TimingRecorder,
    at: Resume,
    /// Prefill batches in flight within the current prefill step.
    batches: VecDeque<InflightPrefill>,
    /// Whether the current prefill step has prefilled anything.
    prefilled: bool,
    /// Ends of the mixed rounds in flight (chunked policy).
    rounds: VecDeque<SimTime>,
    round: usize,
    /// Reusable buffers of a decode burst step: per replica burst
    /// `(replica, rounds, end)`, and the ends to join.
    bursts: Vec<(usize, usize, SimTime)>,
    burst_joins: Vec<SimTime>,
    /// Reusable buffers of a mixed round step: the prompts it finishes
    /// `(replica, id, prompt)`, and the replicas it decodes.
    graduated: Vec<(usize, u64, usize)>,
    decoded: Vec<usize>,
    /// Admission buffers: per replica, the requests the last
    /// admission admitted and the prompt-token budget it left.
    admitted: Vec<Vec<(u64, usize)>>,
    budget: Vec<usize>,
    /// Admission lists of integrated prefill batches, for reuse.
    spare_admitted: Vec<Vec<Vec<(u64, usize)>>>,
    /// One replica's prefill pass ends `(end, id)`.
    prefill_parts: Vec<(SimTime, u64)>,
}

impl<'a> RunState<'a> {
    fn new(eng: &'a VllmEngine, intake: Intake) -> Self {
        let cs = ClusterSim::new(Arc::clone(&eng.cluster));
        let replicas = (0..eng.cfg.dp)
            .map(|d| Replica::new(d, eng.plan.kv_tokens_per_replica, eng.cfg.pp))
            .collect();
        let rec = TimingRecorder::with_capacity(intake.len());
        RunState {
            eng,
            cs,
            replicas,
            intake,
            prefilling: vec![VecDeque::new(); eng.cfg.dp],
            completed: 0,
            prefill_wall: 0.0,
            decode_wall: 0.0,
            mixed_wall: 0.0,
            rec,
            at: Resume::Top,
            batches: VecDeque::new(),
            prefilled: false,
            rounds: VecDeque::new(),
            round: 0,
            bursts: Vec::new(),
            burst_joins: Vec::new(),
            graduated: Vec::new(),
            decoded: Vec::new(),
            admitted: vec![Vec::new(); eng.cfg.dp],
            budget: Vec::new(),
            spare_admitted: Vec::new(),
            prefill_parts: Vec::new(),
        }
    }

    /// The all-done check: `None` when the replicas are idle with
    /// every pushed request served, so the answer depends on pushes
    /// still to come.
    fn all_done(&self) -> Option<bool> {
        if self.replicas.iter().any(|r| r.num_running() > 0)
            || self.prefilling.iter().any(|p| !p.is_empty())
        {
            return Some(false);
        }
        self.intake.drained()
    }

    /// Idle the cluster until the head request arrives. Only called
    /// when no admission, prefill, or decode progress is possible —
    /// which, for requests available *now*, would have panicked in
    /// `admit` instead — so the head arrival must lie in the future.
    fn wait_for_next_arrival(&mut self) {
        let t = self
            .intake
            .waiting
            .front()
            .expect("an idle, unfinished engine must have pending arrivals")
            .arrival_s;
        // Drain any stragglers (e.g. in-flight mixed rounds) first;
        // if they carried the clock past the arrival, no idle gap
        // exists and admission can proceed immediately.
        self.cs.sim.run_until_idle();
        self.cs.sim.advance_to(SimTime::from_secs(t));
    }

    /// Admit waiting requests into replica KV caches (full
    /// `input+output` reservation), spreading across replicas, with
    /// up to `token_budget` prompt tokens per replica. Leaves the
    /// per-replica admitted `(id, prompt_len)` lists in
    /// `self.admitted`.
    fn admit(&mut self, token_budget: usize) {
        self.admitted.iter_mut().for_each(Vec::clear);
        self.budget.clear();
        self.budget.resize(self.eng.cfg.dp, token_budget);
        'outer: while let Some(&req) = self.intake.waiting.front() {
            // Online serving: a request is only schedulable once its
            // arrival time has passed in simulated time. (Offline
            // workloads carry arrival_s == 0.0 and never break here.)
            if req.arrival_s > self.cs.now().as_secs() {
                break 'outer;
            }
            let reserve = req.total_len();
            // Pick the replica with the most free KV that can take it.
            let mut best: Option<usize> = None;
            for (d, rep) in self.replicas.iter().enumerate() {
                if self.budget[d] >= req.input_len && rep.kv.can_fit(reserve) {
                    let better = match best {
                        None => true,
                        Some(b) => rep.kv.free_tokens() > self.replicas[b].kv.free_tokens(),
                    };
                    if better {
                        best = Some(d);
                    }
                }
            }
            match best {
                Some(d) => {
                    self.intake.waiting.pop_front();
                    self.replicas[d]
                        .kv
                        .allocate(req.id, reserve)
                        .expect("can_fit checked");
                    self.admitted[d].push((req.id, req.input_len));
                    self.budget[d] -= req.input_len;
                }
                None => {
                    // No replica can take the head request right now;
                    // it is too large only if nothing holds KV that
                    // will be freed (in-flight prefill batches do:
                    // `prefill_step` integrates them and admits again).
                    if self.replicas.iter().all(|r| r.num_running() == 0)
                        && self.prefilling.iter().all(|p| p.is_empty())
                        && self.admitted.iter().all(|a| a.is_empty())
                        && self.batches.is_empty()
                    {
                        let cap = self.replicas[0].kv.capacity_tokens();
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

    /// Submit a whole-prompt prefill pass for the batches in
    /// `self.admitted`, returning when its last pass ends. The caller
    /// decides when to wait on it, so consecutive batches keep the
    /// pipeline full.
    fn submit_prefill(&mut self, rl: &Roofline) -> SimTime {
        let mut join = self.cs.now();
        for (d, batch) in self.admitted.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let parts = &mut self.prefill_parts;
            submit_prefill_batch(&mut self.cs, rl, self.eng.cfg, &mut self.replicas[d], batch, parts);
            // The slot's pass exit is where its sequences' first
            // tokens appear (and where single-token requests finish
            // outright).
            for &(h, id) in parts.iter() {
                self.rec.first_token(id, h);
                if self.intake.meta.req(id).output_len <= 1 {
                    self.rec.completed(id, h);
                }
                join = join.max(h);
            }
        }
        join
    }

    /// Wait for one in-flight prefill batch and move its sequences to
    /// `running` (their first token is produced by the prefill pass).
    fn integrate_prefill(&mut self, batch: InflightPrefill) {
        let t0 = self.cs.now();
        self.cs.sim.run_until(batch.join);
        self.prefill_wall += self.cs.now() - t0;
        for (d, members) in batch.admitted.iter().enumerate() {
            for &(id, prompt) in members {
                let req = self.intake.meta.req(id);
                if req.output_len <= 1 {
                    self.replicas[d].kv.free(id).expect("was allocated");
                    self.completed += 1;
                } else {
                    self.replicas[d].push_running(RunSeq {
                        id,
                        ctx: prompt + 1,
                        remaining: req.output_len - 1,
                    });
                }
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
            if !self.intake.sees_arrivals(self.cs.now()) {
                return false;
            }
            self.admit(MAX_PREFILL_TOKENS);
            if self.admitted.iter().all(|a| a.is_empty()) {
                break;
            }
            let join = self.submit_prefill(rl);
            // `admit` clears the lists it reuses.
            let spare = self
                .spare_admitted
                .pop()
                .unwrap_or_else(|| vec![Vec::new(); self.eng.cfg.dp]);
            let admitted = std::mem::replace(&mut self.admitted, spare);
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

    /// One decode burst across replicas (each replica uses its own
    /// safe burst length). Returns whether any work ran.
    fn do_decode_burst(&mut self, rl: &Roofline) -> bool {
        self.bursts.clear();
        for d in 0..self.replicas.len() {
            let rounds = self.replicas[d].max_burst(BURST_CAP);
            if rounds == 0 {
                continue;
            }
            if let Some(h) = submit_decode_burst(
                &mut self.cs,
                rl,
                self.eng.cfg,
                &mut self.replicas[d],
                rounds,
            ) {
                self.bursts.push((d, rounds, h));
            }
        }
        if self.bursts.is_empty() {
            return false;
        }
        let t0 = self.cs.now();
        self.burst_joins.clear();
        self.burst_joins.extend(self.bursts.iter().map(|&(_, _, h)| h));
        let join = self.cs.join(&self.burst_joins);
        self.cs.sim.run_until(join);
        self.decode_wall += self.cs.now() - t0;
        for &(d, rounds, h) in &self.bursts {
            let finished = self.replicas[d].advance_decode(rounds);
            self.completed += finished.len();
            // The burst is capped at the minimum remaining count, so
            // retirees emit their last token in its final round.
            for seq in finished {
                self.rec.completed(seq.id, h);
            }
        }
        true
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
                        self.wait_for_next_arrival();
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
                    while self.replicas.iter().any(|r| r.num_running() > 0) {
                        self.do_decode_burst(rl);
                        progressed = true;
                    }
                    if !progressed {
                        self.wait_for_next_arrival();
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
                    if !self.intake.sees_arrivals(self.cs.now()) {
                        self.at = Resume::Admit;
                        return false;
                    }
                    // Admit into the prefilling queues.
                    self.admit(usize::MAX);
                    for (d, batch) in self.admitted.iter().enumerate() {
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
                    if !self.do_decode_burst(rl)
                        && self
                            .intake
                            .waiting
                            .front()
                            .is_some_and(|r| r.arrival_s > self.cs.now().as_secs())
                    {
                        // Nothing running and nothing chunking, but
                        // waiting non-empty: either the drain just made
                        // the head request admissible, or its arrival
                        // is still in the future and the cluster idles
                        // until it.
                        self.wait_for_next_arrival();
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
        let t0 = self.cs.now();
        self.cs.sim.run_until(end);
        self.mixed_wall += self.cs.now() - t0;
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
        let mut round_end: Option<SimTime> = None;
        for d in 0..self.replicas.len() {
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
            let had_running = self.replicas[d].num_running() > 0;
            if let Some(end) = submit_mixed_round(
                &mut self.cs,
                rl,
                self.eng.cfg,
                &mut self.replicas[d],
                &chunk,
                round,
            ) {
                round_end = Some(round_end.map_or(end, |e| e.max(end)));
                if had_running {
                    self.decoded.push(d);
                }
            }
        }
        let end = round_end?;
        for &d in &self.decoded {
            let finished = self.replicas[d].advance_decode(1);
            self.completed += finished.len();
            for seq in finished {
                self.rec.completed(seq.id, end);
            }
        }
        for &(d, id, prompt) in &self.graduated {
            let req = self.intake.meta.req(id);
            // The round that finishes a prompt's last chunk emits its
            // first token.
            self.rec.first_token(id, end);
            if req.output_len <= 1 {
                self.replicas[d].kv.free(id).expect("was allocated");
                self.completed += 1;
                self.rec.completed(id, end);
            } else {
                self.replicas[d].push_running(RunSeq {
                    id,
                    ctx: prompt + 1,
                    remaining: req.output_len - 1,
                });
            }
        }
        Some(end)
    }
}

impl Resumable for RunState<'_> {
    fn intake(&self) -> &Intake {
        &self.intake
    }

    fn intake_mut(&mut self) -> &mut Intake {
        &mut self.intake
    }

    fn recorder(&self) -> &TimingRecorder {
        &self.rec
    }

    fn completed(&self) -> usize {
        self.completed
    }

    fn roofline(&self) -> Roofline {
        self.eng.roofline()
    }

    fn advance(&mut self, rl: &Roofline) -> bool {
        match self.eng.policy {
            SchedulingPolicy::PrefillPrioritized => self.advance_prefill_prioritized(rl),
            SchedulingPolicy::DecodePrioritized => self.advance_decode_prioritized(rl),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens } => self.advance_chunked(rl, chunk_tokens),
        }
    }

    fn finish(mut self) -> EngineReport {
        debug_assert_eq!(self.at, Resume::Done, "finish runs after the loop completes");
        let end = self.cs.sim.run_until_idle();
        assert_eq!(self.completed, self.intake.len(), "all requests must finish");
        let gpu_utilization = self.cs.mean_compute_utilization();
        let timeline = std::mem::take(&mut self.rec).resolve(&self.intake.meta);
        let latency = LatencyStats::from_timeline(&timeline);
        EngineReport {
            label: self.eng.label(),
            stats: self.intake.stats(end.as_secs()),
            prefill_wall_s: self.prefill_wall,
            decode_wall_s: self.decode_wall,
            mixed_wall_s: self.mixed_wall,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: 0,
            swap_in_bytes: 0,
            phases: Vec::new(),
            gpu_utilization,
            busy_by_kind: self.cs.sim.busy_by_kind(),
            timeline,
            latency,
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
            assert!(run.advance(&eng.roofline()), "a closed run always completes");
            assert_eq!(run.cs.sim.submitted_tasks(), 0, "{policy:?}");
            assert!(run.cs.sim.busy_by_kind().compute > 0.0, "{policy:?}");
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
