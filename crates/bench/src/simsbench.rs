//! The canonical `sims_per_sec` unit of work, shared by
//! `perf_report` (the metric), the criterion microbench
//! (`single_candidate_eval`), and the determinism tests — one
//! definition so all three always measure/guard the same thing.
//!
//! Fixed seed: 24 × 1024-in/64-out requests, LLaMA2-13B on 4×A10;
//! one Seesaw candidate (P4→T4) and one vLLM candidate (D1T2P2,
//! prefill-prioritized). Specs are `Arc`-shared so repeated
//! construction exercises the same hot path as a sweep worker. The
//! chunked variant (`sims_per_sec.vllm_chunked`) runs the same vLLM
//! layout under 512-token chunked prefill — the baseline the paper's
//! sweeps tune — so its mixed rounds are timed on their own.
//!
//! The serving variant replays the same request set with fixed-seed
//! Poisson arrivals at twice the scenario's offline capacity (a
//! mildly overloaded point) and is the unit of work behind
//! `sims_per_sec.serving`: what the `serving` bin runs per load
//! point, a one-replica round-robin fleet of the vLLM candidate —
//! arrival-gated admission, idle gaps, the dispatch step and the
//! merged report's latency percentiles included.
//!
//! The fleet variant (`sims_per_sec.fleet`) is one fleet-sweep grid
//! cell: a 4-replica fleet of the vLLM candidate, join-shortest-queue
//! routing over the same arrival pattern at 4× the serving rate
//! (per-replica load unchanged), run serially on the fleet's global
//! event loop — routing, four replica actors, and the merged fleet
//! report included.
//!
//! The live-fleet variant (`sims_per_sec.fleet_live`) is the same
//! fleet cell under `jsq-live` routing: the same event loop, plus a
//! measured-depth read from every replica's engine actor at each
//! arrival — so the ratio of the two figures is the cost of the live
//! reads on an otherwise identical cell.
//!
//! The chaos variant (`sims_per_sec.chaos`) replays the autoscale
//! scenario under a fixed seeded kill schedule (~3 expected kills on
//! the compressed day) with reactive replacement and retry/requeue —
//! one chaos-frontier grid cell including fault scheduling, loss
//! resolution, and availability accounting.
//!
//! The metrics variant (`sims_per_sec.metrics`) isolates the
//! controller's metrics phase: `windowed_metrics` plus the default
//! burn-rate rule over the autoscale cell's precomputed day — the
//! exact pipeline `AutoscaleController` runs when it builds a report.
//! The engine simulation, which dominates a full replay, is excluded,
//! so this figure tracks the pipeline itself rather than re-measuring
//! `autoscale`.

use seesaw_autoscale::{
    AlertEngine, AlertEvent, AlertRule, AutoscaleConfig, AutoscaleController, ElasticFleetReport,
    FaultPlan, FaultSchedule, RecoverySpec, RetryPolicy, ScalingPolicy,
};
use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::{EngineReport, OnlineEngine, SchedulingPolicy, SweepRunner};
use seesaw_fleet::{Fleet, FleetReport, RouterPolicy};
use seesaw_hw::ClusterSpec;
use seesaw_model::{presets, ModelConfig};
use seesaw_parallel::ParallelConfig;
use seesaw_telemetry::Instrument;
use seesaw_workload::{
    windowed_metrics, ArrivalDist, RateEnvelope, Request, RequestTiming, SloSpec, WindowMetrics,
    WorkloadGen,
};
use std::sync::Arc;

/// Human-readable description recorded in `BENCH_sweep.json`.
pub const WORKLOAD_LABEL: &str = "a10x4 llama2_13b constant(1024,64) x24";

/// Offered load of the serving scenario, requests/second (about 2×
/// the vLLM candidate's offline capacity on this workload).
pub const SERVING_OFFERED_RPS: f64 = 4.0;

/// Replicas in the fleet scenario.
pub const FLEET_REPLICAS: usize = 4;

/// Length of the autoscale scenario's compressed diurnal trace,
/// seconds.
pub const AUTOSCALE_DAY_S: f64 = 120.0;

/// The fixed benchmark scenario: `Arc`-shared specs + request set.
#[derive(Debug)]
pub struct SimsBench {
    /// Hardware spec handle shared by every candidate.
    pub cluster: Arc<ClusterSpec>,
    /// Model spec handle shared by every candidate.
    pub model: Arc<ModelConfig>,
    /// The fixed-seed request set.
    pub reqs: Vec<Request>,
    /// The same requests with fixed-seed Poisson arrivals at
    /// [`SERVING_OFFERED_RPS`].
    pub serving_reqs: Vec<Request>,
    /// The same requests at [`FLEET_REPLICAS`] × the serving rate
    /// (per-replica load matches the serving scenario).
    pub fleet_reqs: Vec<Request>,
    /// A compressed diurnal day for the autoscale scenario:
    /// trace-shaped arrivals over [`AUTOSCALE_DAY_S`] seconds,
    /// 512-in/32-out requests (the controller's grid cell is routing,
    /// scaling decisions, replica runs and the merged report, so the
    /// per-request work is kept lighter than the offline scenarios).
    pub autoscale_reqs: Vec<Request>,
    /// The autoscale cell's merged timeline — the fixed input of the
    /// metrics scenario (`sims_per_sec.metrics`), precomputed once so
    /// each evaluation re-runs only the metrics pipeline.
    pub metrics_timeline: Vec<RequestTiming>,
    /// The same cell's control horizon, seconds.
    pub metrics_horizon_s: f64,
}

impl Default for SimsBench {
    fn default() -> Self {
        Self::new()
    }
}

impl SimsBench {
    /// Build the canonical scenario.
    pub fn new() -> Self {
        let reqs = WorkloadGen::constant(1024, 64).generate(24);
        let serving_reqs = ArrivalDist::Poisson { rate: SERVING_OFFERED_RPS }
            .attach(&reqs, crate::SEED ^ seesaw_workload::ARRIVAL_SEED_SALT)
            .expect("fixed serving arrival process is valid");
        let fleet_reqs = ArrivalDist::Poisson { rate: FLEET_REPLICAS as f64 * SERVING_OFFERED_RPS }
            .attach(&reqs, crate::SEED ^ seesaw_workload::ARRIVAL_SEED_SALT)
            .expect("fixed fleet arrival process is valid");
        let day_times = RateEnvelope::diurnal_sharp(0.3, 3.0, AUTOSCALE_DAY_S, 3.0)
            .sample_trace(AUTOSCALE_DAY_S, crate::SEED ^ seesaw_workload::ARRIVAL_SEED_SALT)
            .expect("fixed diurnal envelope is valid");
        let autoscale_base = WorkloadGen::constant(512, 32).generate(day_times.len());
        let autoscale_reqs = ArrivalDist::Trace(day_times)
            .attach(&autoscale_base, 0)
            .expect("fixed diurnal trace is valid");
        let mut bench = SimsBench {
            cluster: Arc::new(ClusterSpec::a10x4()),
            model: Arc::new(presets::llama2_13b()),
            reqs,
            serving_reqs,
            fleet_reqs,
            autoscale_reqs,
            metrics_timeline: Vec::new(),
            metrics_horizon_s: 0.0,
        };
        let day = bench.run_autoscale_once();
        bench.metrics_timeline = day.fleet.timeline;
        bench.metrics_horizon_s = day.horizon_s;
        bench
    }

    /// The Seesaw candidate's spec (P4 → T4).
    pub fn seesaw_spec(&self) -> SeesawSpec {
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4))
    }

    /// One Seesaw single-candidate evaluation: construct from the
    /// shared handles + run.
    pub fn run_seesaw_once(&self) -> EngineReport {
        SeesawEngine::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.model),
            self.seesaw_spec(),
        )
        .expect("valid spec")
        .run(&self.reqs)
    }

    /// The scenario's vLLM replica (D1T2P2, prefill-prioritized),
    /// built from the shared handles.
    fn vllm(&self) -> VllmEngine {
        VllmEngine::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.model),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::PrefillPrioritized,
        )
        .expect("valid config")
    }

    /// One vLLM single-candidate evaluation (D1T2P2,
    /// prefill-prioritized): construct from the shared handles + run.
    pub fn run_vllm_once(&self) -> EngineReport {
        self.vllm().run(&self.reqs)
    }

    /// One chunked-prefill vLLM evaluation (D1T2P2, 512-token
    /// chunks): construct from the shared handles + run.
    pub fn run_vllm_chunked_once(&self) -> EngineReport {
        VllmEngine::new(
            Arc::clone(&self.cluster),
            Arc::clone(&self.model),
            ParallelConfig::new(1, 2, 2),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
        )
        .expect("valid config")
        .run(&self.reqs)
    }

    /// One online-serving evaluation, the `serving` bin's load point:
    /// a one-replica round-robin fleet of the vLLM candidate on the
    /// arrival-laden request set — arrival-gated admission, idle gaps,
    /// and latency-percentile computation included.
    pub fn run_serving_once(&self) -> FleetReport {
        let serving = RouterPolicy::RoundRobin;
        self.fleet(1).run_with(&SweepRunner::serial(), serving, &self.serving_reqs)
    }

    /// One fleet evaluation: construct a [`FLEET_REPLICAS`]-replica
    /// fleet of the vLLM candidate and serve the fleet-rate request
    /// set under join-shortest-queue routing, serially (the metric is
    /// single-thread grid-cell rate, like the other sims/sec
    /// figures). This is a fleet sweep's per-cell unit of work:
    /// service-rate estimation, routing on the fleet loop, four
    /// replica simulations, and the merged fleet report.
    pub fn run_fleet_once(&self) -> FleetReport {
        let jsq = RouterPolicy::JoinShortestQueue;
        self.fleet(FLEET_REPLICAS).run_with(&SweepRunner::serial(), jsq, &self.fleet_reqs)
    }

    /// One live-routed fleet evaluation (`sims_per_sec.fleet_live`):
    /// the same [`FLEET_REPLICAS`]-replica cell as
    /// [`SimsBench::run_fleet_once`], but under `jsq-live` — the
    /// global event loop reads every replica's measured queue depth
    /// from its engine actor at each arrival instead of routing on
    /// analytic virtual queues. Both cells run on the same loop, so
    /// the ratio of the two rates is the cost of those live reads
    /// (`perf_report` holds it to at least 0.7).
    pub fn run_fleet_live_once(&self) -> FleetReport {
        let live = RouterPolicy::JoinShortestQueueLive;
        self.fleet(FLEET_REPLICAS).run_with(&SweepRunner::serial(), live, &self.fleet_reqs)
    }

    /// A fleet of `n` vLLM candidates: every fleet cell's, so the
    /// cells measure identical replicas.
    fn fleet(&self, n: usize) -> Fleet {
        Fleet::homogeneous(n, |_| Box::new(self.vllm()) as _)
    }

    /// One telemetry-traced live-fleet evaluation
    /// (`sims_per_sec.fleet_live_traced`): the
    /// [`SimsBench::run_fleet_live_once`] cell with the span recorder
    /// and metrics registry on — the enabled-telemetry cost of the
    /// same unit of work. Returns the filled instrument so callers
    /// can render or validate the trace.
    pub fn run_fleet_live_traced_once(&self) -> (FleetReport, Instrument) {
        let mut instr = Instrument::tracing();
        let report = self.fleet(FLEET_REPLICAS).run_instrumented_with(
            &SweepRunner::serial(),
            RouterPolicy::JoinShortestQueueLive,
            &self.fleet_reqs,
            &mut instr,
        );
        (report, instr)
    }

    /// The live-fleet cell through the instrumented entry point with
    /// the instrument *off* — the telemetry-disabled code path whose
    /// throughput `perf_report` holds to within 5% of `fleet_live`
    /// (zero-cost-when-disabled, measured rather than assumed).
    pub fn run_fleet_live_disabled_once(&self) -> FleetReport {
        let mut instr = Instrument::off();
        self.fleet(FLEET_REPLICAS).run_instrumented_with(
            &SweepRunner::serial(),
            RouterPolicy::JoinShortestQueueLive,
            &self.fleet_reqs,
            &mut instr,
        )
    }

    /// One autoscale evaluation (`sims_per_sec.autoscale`): the
    /// reactive controller replaying the compressed diurnal day —
    /// per-window routing over the elastic vLLM fleet, scaling
    /// decisions with warm-up and drain, the per-replica engine runs,
    /// and the merged windowed report. This is a frontier sweep's
    /// per-cell unit of work, run serially like the other figures.
    pub fn run_autoscale_once(&self) -> ElasticFleetReport {
        let controller =
            AutoscaleController::new(self.autoscale_config(), ScalingPolicy::reactive_default());
        let build = |_: usize| -> Box<dyn OnlineEngine> { Box::new(self.vllm()) };
        controller.run_with(
            &SweepRunner::serial(),
            &build,
            &self.autoscale_reqs,
            &FaultSchedule::none(),
            &mut Instrument::off(),
        )
    }

    /// One *profiled* autoscale evaluation: the compressed diurnal
    /// day under `jsq-live` routing (so live-state reads show up as
    /// a phase) with the controller's self-profiling timers on.
    /// Returns the report plus the wall-time phase attribution
    /// (routing / actor advancement / engine runs / metrics) that
    /// `perf_report` renders — the "where do the cells/s go" answer.
    pub fn run_autoscale_profiled_once(
        &self,
    ) -> (ElasticFleetReport, seesaw_telemetry::ControllerProfile) {
        let config = AutoscaleConfig {
            router: RouterPolicy::JoinShortestQueueLive,
            ..self.autoscale_config()
        };
        let controller = AutoscaleController::new(config, ScalingPolicy::reactive_default());
        let build = |_: usize| -> Box<dyn OnlineEngine> { Box::new(self.vllm()) };
        let mut instr = Instrument::profiling();
        let report = controller.run_with(
            &SweepRunner::serial(),
            &build,
            &self.autoscale_reqs,
            &FaultSchedule::none(),
            &mut instr,
        );
        (report, instr.profile)
    }

    /// One metrics evaluation (`sims_per_sec.metrics`): the
    /// controller's metrics phase — `windowed_metrics` over the
    /// precomputed merged timeline and horizon, then the default
    /// burn-rate rule — isolated from the engine simulation that
    /// dominates a full replay.
    pub fn run_metrics_once(&self) -> (Vec<WindowMetrics>, Vec<AlertEvent>) {
        let config = self.autoscale_config();
        let windows = windowed_metrics(
            &self.metrics_timeline,
            config.slo,
            config.window_s,
            self.metrics_horizon_s,
        );
        let alerts = AlertEngine::evaluate(AlertRule::default(), &windows);
        (windows, alerts)
    }

    /// The autoscale scenario's shared controller config (fixed; the
    /// benchmark must not measure capacity per iteration).
    fn autoscale_config(&self) -> AutoscaleConfig {
        AutoscaleConfig {
            window_s: 10.0,
            warmup_s: 5.0,
            min_replicas: 1,
            max_replicas: 6,
            router: RouterPolicy::JoinShortestQueue,
            slo: SloSpec { ttft_s: 15.0, tpot_s: 0.05 },
            capacity_rps: 2.5,
        }
    }

    /// One chaos evaluation (`sims_per_sec.chaos`): the autoscale
    /// scenario replayed under the schedule of a fixed seeded fault
    /// plan — ~3 expected replica kills over the
    /// compressed day, reactive scaling with replacement spawns, and
    /// the lost work requeued under a compressed retry policy. This
    /// is a chaos-frontier grid cell: everything the autoscale cell
    /// does plus fault scheduling, finishing each victim's simulation
    /// at its kill to resolve the lost attempts, requeue/backoff
    /// bookkeeping, and availability accounting.
    pub fn run_chaos_once(&self) -> ElasticFleetReport {
        let plan = FaultPlan {
            seed: crate::SEED,
            // 90/hour ~= 3 expected kills on the 120 s day.
            kills_per_hour: 90.0,
            outages_per_hour: 0.0,
            groups: 1,
            detect_s: 2.0,
        };
        // Retry knobs compressed like the day: spans a 10 s window +
        // 5 s warm-up replacement blackout.
        let retry = RetryPolicy {
            max_attempts: 8,
            backoff_base_s: 0.5,
            backoff_cap_s: 4.0,
            deadline_s: 60.0,
        };
        let recovery = RecoverySpec {
            policy: ScalingPolicy::reactive_default(),
            replace_failures: true,
            retry,
        };
        let config = self.autoscale_config();
        let schedule = plan.schedule_for(&self.autoscale_reqs, config.window_s, &recovery);
        let build = |_: usize| -> Box<dyn OnlineEngine> { Box::new(self.vllm()) };
        AutoscaleController::new(config, recovery.policy).run_with(
            &SweepRunner::serial(),
            &build,
            &self.autoscale_reqs,
            &schedule,
            &mut Instrument::off(),
        )
    }
}
