//! Autoscaling harness: the default day-long elastic-fleet scenario,
//! its policy × trace cost-vs-SLO frontier sweep, and the table/JSON
//! renderings (the `autoscale` bin).
//!
//! The scenario follows the capacity-planning workflow end to end:
//! measure one replica's offline capacity, shape a day of traffic
//! around it (a sinusoidal diurnal curve and a bimodal rush-hours
//! curve, both expressed as multiples of that capacity and sampled
//! into concrete arrival traces), then replay the day under every
//! scaling policy — static provision-for-peak and provision-for-mean
//! baselines against the reactive and target-utilization
//! controllers — and tabulate billed replica-seconds against measured
//! SLO attainment. The headline comparison: an elastic policy should
//! dominate the static-peak baseline, matching or beating its
//! attainment at strictly lower cost, because provisioning for peak
//! still runs each replica at ~1.0× capacity *during* the peak —
//! exactly where the TPOT knee lives — while paying for the whole
//! fleet all night.
//!
//! Everything is deterministic and byte-identical across `--jobs`.

use crate::cli::Telemetry;
use crate::jsonfmt;
use crate::serving::{default_engine_of, default_specs, EngineKind};
use crate::table::{f2, f3, Table};
use seesaw_autoscale::{
    frontier_sweep_with, AutoscaleConfig, AutoscaleController, ElasticFleetReport, FaultSchedule,
    FrontierPoint, FrontierSweep, ScalingPolicy,
};
use seesaw_engine::{OnlineEngine, SweepRunner};
use seesaw_fleet::offline_capacity;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_telemetry::{Instrument, MetricsRegistry};
use seesaw_workload::{ArrivalDist, RateEnvelope, Request, WorkloadGen, ARRIVAL_SEED_SALT};
use std::sync::Arc;

/// Default trace length: one day.
pub const DEFAULT_DAY_S: f64 = 86_400.0;

/// Default trough rate as a multiple of per-replica capacity.
pub const DEFAULT_TROUGH_MULT: f64 = 0.25;

/// Default peak rate as a multiple of per-replica capacity. An
/// integer multiple pins the static-peak baseline at exactly 1.0×
/// per-replica load during peak hours.
pub const DEFAULT_PEAK_MULT: f64 = 5.0;

/// Peak-concentration exponent of the default diurnal envelope:
/// traffic bunches into a few peak hours (mean/peak = 5/16), the
/// shape real daily curves have and the regime where elasticity pays
/// — a pure sinusoid spends half the day near peak, leaving a
/// peak-provisioned static fleet nearly efficient.
pub const DEFAULT_DIURNAL_SHARPNESS: f64 = 3.0;

/// Requests in the offline capacity probe (fixed, so the capacity
/// figure — and everything sized from it — is reproducible).
pub const CAPACITY_PROBE_REQUESTS: usize = 256;

/// Most control windows a replayed span may cover. Memory grows per
/// window: every replayed cell retains a window record and windowed
/// metrics for each one. At this cap the default eight-cell frontier
/// peaks about 160 MiB above the same day in 120 s windows (measured:
/// a 600 s day in 6 ms windows), roughly 1.6 KiB per window. A
/// span/window pair past it (`--window 1e-9`, or a trace file
/// spanning 1e308 s) is rejected up front instead of aborting on a
/// terabyte-sized allocation.
pub const MAX_WINDOWS: usize = 100_000;

/// Check that `ceil(span_s / window_s)` windows fit in
/// [`MAX_WINDOWS`], with a message naming the span and window when
/// they do not (non-finite ratios are rejected too).
pub fn check_window_count(span_s: f64, window_s: f64) -> Result<(), String> {
    let windows = (span_s / window_s).ceil();
    if windows <= MAX_WINDOWS as f64 {
        return Ok(());
    }
    Err(format!(
        "a {} s span in {} s windows needs {} control windows; at most {MAX_WINDOWS} are supported",
        show(span_s),
        show(window_s),
        show(windows),
    ))
}

/// `x` in plain notation below 10⁹, in scientific notation above (an
/// out-of-range CLI value would otherwise print hundreds of digits).
pub(crate) fn show(x: f64) -> String {
    if x < 1e9 {
        x.to_string()
    } else {
        format!("{x:e}")
    }
}

/// The default diurnal envelope shape (see
/// [`DEFAULT_DIURNAL_SHARPNESS`]); also the shape behind the `fleet`
/// bin's `--trace diurnal` pattern.
pub fn default_diurnal_envelope(trough_rps: f64, peak_rps: f64, day_s: f64) -> RateEnvelope {
    RateEnvelope::diurnal_sharp(trough_rps, peak_rps, day_s, DEFAULT_DIURNAL_SHARPNESS)
}

/// Knobs of the default scenario that the `autoscale` bin exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Engine backend for every replica.
    pub kind: EngineKind,
    /// Trace length, seconds.
    pub day_s: f64,
    /// Trough rate, multiples of per-replica capacity.
    pub trough_mult: f64,
    /// Peak rate, multiples of per-replica capacity.
    pub peak_mult: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            kind: EngineKind::Vllm,
            day_s: DEFAULT_DAY_S,
            trough_mult: DEFAULT_TROUGH_MULT,
            peak_mult: DEFAULT_PEAK_MULT,
            seed: crate::SEED,
        }
    }
}

/// The default policy roster for a scenario whose peak offered load
/// is `peak_mult ×` and mean load `mean_mult ×` per-replica capacity:
/// provision-for-peak and provision-for-mean statics, the reactive
/// controller, and the target-utilization controller.
pub fn default_policies(peak_mult: f64, mean_mult: f64) -> Vec<ScalingPolicy> {
    let n_peak = (peak_mult.ceil() as usize).max(1);
    let n_mean = (mean_mult.ceil() as usize).max(1);
    let mut policies = vec![ScalingPolicy::Static { n: n_peak }];
    if n_mean != n_peak {
        policies.push(ScalingPolicy::Static { n: n_mean });
    }
    policies.push(ScalingPolicy::reactive_default());
    policies.push(ScalingPolicy::target_utilization_default());
    policies
}

/// Attach ShareGPT-shaped lengths to absolute arrival `times` — the
/// one place the times → requests convention lives, shared by the
/// envelope-sampled and file-replayed paths.
fn requests_for_times(times: Vec<f64>, seed: u64) -> Vec<Request> {
    let base = WorkloadGen::sharegpt(seed).generate(times.len());
    ArrivalDist::Trace(times)
        .attach(&base, 0)
        .expect("trace arrivals are valid")
}

/// Load a trace file (see [`seesaw_workload::load_trace_file`]) as
/// ShareGPT-shaped requests, rejecting one whose span needs more than
/// [`MAX_WINDOWS`] windows of `window_s`.
fn load_trace_requests(path: &str, window_s: f64, seed: u64) -> Result<Vec<Request>, String> {
    let times = seesaw_workload::load_trace_file(path)?;
    check_window_count(times.last().copied().unwrap_or(0.0), window_s)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(requests_for_times(times, seed))
}

/// Sample one named envelope into a ShareGPT-shaped request trace.
fn sample_trace(
    name: &str,
    envelope: &RateEnvelope,
    day_s: f64,
    seed: u64,
) -> (String, Vec<Request>) {
    let times = envelope
        .sample_trace(day_s, seed ^ ARRIVAL_SEED_SALT)
        .expect("valid envelope");
    (name.to_string(), requests_for_times(times, seed))
}

/// Peak and mean offered load of a replayed trace, as multiples of
/// `capacity_rps`: the mean over the trace's span and the peak over
/// `window_s` windows — so a trace file sizes the static baselines
/// from *its* shape, not the default envelope's.
fn trace_load_multipliers(reqs: &[Request], window_s: f64, capacity_rps: f64) -> (f64, f64) {
    let span = reqs.last().map_or(0.0, |r| r.arrival_s).max(window_s);
    let n_windows = (span / window_s).ceil() as usize;
    let mut counts = vec![0usize; n_windows.max(1)];
    for r in reqs {
        let w = ((r.arrival_s / window_s) as usize).min(counts.len() - 1);
        counts[w] += 1;
    }
    let peak_rps = counts.iter().copied().max().unwrap_or(0) as f64 / window_s;
    let mean_rps = reqs.len() as f64 / span;
    (peak_rps / capacity_rps, mean_rps / capacity_rps)
}

/// Build the default traces (diurnal + rush-hours, rates in multiples
/// of `capacity_rps`) for a scenario. Exposed so tests can replay
/// miniature days through the same shapes.
pub fn default_traces(spec: &ScenarioSpec, capacity_rps: f64) -> Vec<(String, Vec<Request>)> {
    let trough = spec.trough_mult * capacity_rps;
    let peak = spec.peak_mult * capacity_rps;
    vec![
        sample_trace(
            "diurnal",
            &default_diurnal_envelope(trough, peak, spec.day_s),
            spec.day_s,
            spec.seed,
        ),
        sample_trace(
            "rush-hours",
            &RateEnvelope::rush_hours(trough, peak, spec.day_s),
            spec.day_s,
            spec.seed.wrapping_add(1),
        ),
    ]
}

/// One elastic scenario, set up once per invocation and shared by
/// the frontier and the observed cell: the replica specs, the
/// measured per-replica capacity, and the replayed traces.
pub struct Scenario {
    /// The day's knobs.
    pub(crate) spec: ScenarioSpec,
    /// The controller config, with `capacity_rps` set to the measured
    /// per-replica offline capacity.
    pub(crate) config: AutoscaleConfig,
    /// Replica configuration label.
    pub(crate) label: String,
    /// Named request traces: the generated diurnal and rush-hours
    /// days, or one replayed trace file.
    pub(crate) traces: Vec<(String, Vec<Request>)>,
    replayed: bool,
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
}

impl Scenario {
    /// The default scenario: measure capacity on a
    /// [`CAPACITY_PROBE_REQUESTS`]-request probe and shape the day
    /// around it. `trace_file`, when given, *replaces* the generated
    /// traces with a replayed one (absolute arrival times, see
    /// [`seesaw_workload::load_trace_file`]). Errs on an
    /// unreadable/malformed trace file or one spanning more than
    /// [`MAX_WINDOWS`] windows.
    pub fn new(
        spec: &ScenarioSpec,
        config: AutoscaleConfig,
        trace_file: Option<&str>,
    ) -> Result<Self, String> {
        let replayed = match trace_file {
            Some(path) => {
                let requests = load_trace_requests(path, config.window_s, spec.seed)?;
                Some(vec![(path.to_string(), requests)])
            }
            None => None,
        };
        Ok(Self::with_probe(spec, config, CAPACITY_PROBE_REQUESTS, replayed))
    }

    /// A scenario whose capacity is measured on `probe_requests`
    /// requests, replaying `traces` or, when `None`, the generated
    /// default day.
    pub fn with_probe(
        spec: &ScenarioSpec,
        mut config: AutoscaleConfig,
        probe_requests: usize,
        traces: Option<Vec<(String, Vec<Request>)>>,
    ) -> Self {
        let (cluster, model) = default_specs();
        let build = |_: usize| default_engine_of(spec.kind, &cluster, &model);
        let probe = WorkloadGen::sharegpt(spec.seed).generate(probe_requests);
        let (capacity_rps, label) = offline_capacity(&build, &probe);
        config.capacity_rps = capacity_rps;
        let replayed = traces.is_some();
        let traces = traces.unwrap_or_else(|| default_traces(spec, capacity_rps));
        Scenario { spec: *spec, config, label, traces, replayed, cluster, model }
    }

    /// One default replica (every elastic run's replica builder).
    pub(crate) fn replica(&self, _: usize) -> Box<dyn OnlineEngine> {
        default_engine_of(self.spec.kind, &self.cluster, &self.model)
    }
}

/// Run the default frontier: sweep `scenario`'s policy × trace grid.
pub fn default_frontier_with(runner: &SweepRunner, scenario: &Scenario) -> FrontierSweep {
    let (spec, config) = (&scenario.spec, scenario.config);
    // Size the static baselines from the load actually replayed: the
    // envelope multipliers for generated days, the measured
    // windowed peak/mean for a trace file (whose load has no
    // relation to the --trough/--peak knobs).
    let (peak_mult, mean_mult) = if scenario.replayed {
        trace_load_multipliers(&scenario.traces[0].1, config.window_s, config.capacity_rps)
    } else {
        (
            spec.peak_mult,
            default_diurnal_envelope(spec.trough_mult, spec.peak_mult, spec.day_s).mean_rps(),
        )
    };
    let policies = default_policies(peak_mult, mean_mult);
    frontier_sweep_with(
        runner,
        &|i| scenario.replica(i),
        config,
        &policies,
        &scenario.traces,
        (config.capacity_rps, &scenario.label),
    )
}

/// One frontier cell run with the telemetry recorder on: the
/// dedicated observability cell behind the `autoscale` bin's
/// `--trace-out` flag.
#[derive(Debug)]
pub struct ObservedFrontierCell {
    /// Trace name (envelope name or replayed file path).
    pub trace: String,
    /// Scaling policy of the traced run.
    pub policy: ScalingPolicy,
    /// The (telemetry-identical) elastic-fleet report.
    pub report: ElasticFleetReport,
    /// The run's trace and metric snapshot.
    pub telemetry: Telemetry,
}

/// Run one dedicated frontier cell — the reactive controller on the
/// first trace (the diurnal day, or the replayed trace file) — with
/// the telemetry recorder on, and render its Perfetto trace. Recorded
/// bytes are sim-time only, so the trace is byte-identical for every
/// `--jobs` value.
pub fn observed_frontier_cell_with(
    runner: &SweepRunner,
    scenario: &Scenario,
) -> ObservedFrontierCell {
    let (trace, requests) = &scenario.traces[0];
    let policy = ScalingPolicy::reactive_default();
    let mut instr = Instrument::tracing();
    let report = AutoscaleController::new(scenario.config, policy).run_with(
        runner,
        &|i| scenario.replica(i),
        requests,
        &FaultSchedule::none(),
        &mut instr,
    );
    let telemetry = Telemetry::finish(instr, "autoscale");
    ObservedFrontierCell { trace: trace.clone(), policy, report, telemetry }
}

/// Render the frontier as the `autoscale` bin's table. Cost is billed
/// replica-seconds; `cost vs peak` normalizes it to the same trace's
/// static provision-for-peak row (< 1.0 means cheaper).
pub fn render_frontier(sweep: &FrontierSweep) -> String {
    let cfg = &sweep.config;
    let mut out = format!(
        "\n=== autoscale: policy x trace cost-vs-SLO frontier ({} replicas, sharegpt lengths) ===\n\
         per-replica capacity (offline, {CAPACITY_PROBE_REQUESTS}-request probe) = {} rps; \
         SLO: TTFT <= {}s, TPOT <= {}s\n\
         window {}s, warm-up {}s, replicas {}..{}, {} routing; cost = billed replica-seconds\n",
        sweep.label,
        f3(sweep.capacity_rps),
        cfg.slo.ttft_s,
        cfg.slo.tpot_s,
        cfg.window_s,
        cfg.warmup_s,
        cfg.min_replicas,
        cfg.max_replicas,
        cfg.router,
    );
    let mut t = Table::new(&[
        "trace",
        "policy",
        "requests",
        "replica-s",
        "cost vs peak",
        "mean N",
        "peak N",
        "events",
        "ttft p99",
        "tpot p99",
        "SLO att",
        "goodput",
    ]);
    for p in &sweep.points {
        // The roster's first policy is the baseline (static
        // provision-for-peak in the default scenario).
        let peak_cost = sweep
            .points
            .iter()
            .find(|q| q.trace == p.trace && q.policy.to_string() == sweep.policies[0])
            .map(|q| q.replica_seconds)
            .filter(|&c| c > 0.0);
        let lat = p.report.fleet.latency;
        t.row(&[
            p.trace.clone(),
            p.policy.to_string(),
            p.n_requests.to_string(),
            format!("{:.0}", p.replica_seconds),
            peak_cost.map_or("n/a".into(), |c| format!("{:.2}x", p.replica_seconds / c)),
            f2(p.mean_replicas),
            p.peak_replicas.to_string(),
            p.scale_events.to_string(),
            lat.map_or("n/a".into(), |l| f2(l.ttft.p99)),
            lat.map_or("n/a".into(), |l| format!("{:.4}", l.tpot.p99)),
            format!("{:.1}%", 100.0 * p.attainment),
            f3(p.goodput_rps),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render one cell's per-window timeline: the controller's signal and
/// replica-count trajectory against the measured windowed attainment
/// — the "did the fleet follow the day?" picture.
pub fn render_timeline(point: &FrontierPoint) -> String {
    let r: &ElasticFleetReport = &point.report;
    let mut out = format!(
        "\n=== autoscale: {} on {} — per-window trajectory ===\n",
        point.policy, point.trace
    );
    let mut t = Table::new(&[
        "window",
        "offered rps",
        "util est",
        "queue",
        "ready",
        "live",
        "arrivals",
        "SLO att (measured)",
        "ttft p90",
    ]);
    for (s, m) in r.windows.iter().zip(&r.windowed) {
        t.row(&[
            format!("{:>6.0}s", s.t0),
            f3(s.offered_rps),
            f2(s.utilization_est),
            format!("{:.1}", s.queue_depth),
            s.ready.to_string(),
            s.provisioned.to_string(),
            s.arrivals.to_string(),
            m.attainment
                .map_or("-".into(), |a| format!("{:.1}%", 100.0 * a)),
            m.ttft.map_or("-".into(), |l| f2(l.p90)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The scenario knobs as one JSON object — the seed-and-shape echo
/// shared by the `autoscale` and `chaos` documents (envelope knobs
/// and workload seed; chaos adds its fault plan per point).
pub fn scenario_json(spec: &ScenarioSpec) -> String {
    format!(
        "{{\"engine\": \"{}\", \"day_s\": {}, \"trough_mult\": {}, \"peak_mult\": {}, \
         \"diurnal_sharpness\": {}, \"seed\": {}}}",
        jsonfmt::esc(&spec.kind.to_string()),
        jsonfmt::num(spec.day_s),
        jsonfmt::num(spec.trough_mult),
        jsonfmt::num(spec.peak_mult),
        jsonfmt::num(DEFAULT_DIURNAL_SHARPNESS),
        spec.seed,
    )
}

/// The frontier as one machine-readable JSON document (the
/// `autoscale` bin's `--json` output): headline numbers per cell plus
/// the per-window series for plotting fleet-size trajectories. The
/// header echoes the full scenario (engine, day shape, workload seed)
/// alongside the controller config, so any cell is reproducible from
/// the document alone. The `telemetry` metrics block is present only
/// when a traced run produced one, so the plain document stays
/// byte-identical to pre-telemetry output.
pub fn to_json(
    sweep: &FrontierSweep,
    spec: &ScenarioSpec,
    telemetry: Option<&MetricsRegistry>,
) -> String {
    let cfg = &sweep.config;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", jsonfmt::esc(&sweep.label)));
    out.push_str(&format!(
        "  \"capacity_rps\": {},\n",
        jsonfmt::num(sweep.capacity_rps)
    ));
    out.push_str(&format!("  \"scenario\": {},\n", scenario_json(spec)));
    out.push_str(&format!(
        "  \"config\": {{\"window_s\": {}, \"warmup_s\": {}, \"min_replicas\": {}, \
         \"max_replicas\": {}, \"router\": \"{}\", \"slo\": {}}},\n",
        jsonfmt::num(cfg.window_s),
        jsonfmt::num(cfg.warmup_s),
        cfg.min_replicas,
        cfg.max_replicas,
        jsonfmt::esc(&cfg.router.to_string()),
        jsonfmt::slo(cfg.slo),
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in sweep.points.iter().enumerate() {
        // Every point repeats the router policy and workload seed so
        // a single extracted point stays reproducible without the
        // document header.
        out.push_str(&format!(
            "    {{\"trace\": \"{}\", \"policy\": \"{}\", \"router\": \"{}\", \"seed\": {}, \
             \"n_requests\": {}, \
             \"replica_seconds\": {}, \"mean_replicas\": {}, \"peak_replicas\": {}, \
             \"scale_events\": {}, \"attainment\": {}, \"goodput_rps\": {}, \
             \"latency\": {},\n",
            jsonfmt::esc(&p.trace),
            jsonfmt::esc(&p.policy.to_string()),
            jsonfmt::esc(&cfg.router.to_string()),
            spec.seed,
            p.n_requests,
            jsonfmt::num(p.replica_seconds),
            jsonfmt::num(p.mean_replicas),
            p.peak_replicas,
            p.scale_events,
            jsonfmt::num(p.attainment),
            jsonfmt::num(p.goodput_rps),
            jsonfmt::latency_stats(p.report.fleet.latency.as_ref()),
        ));
        out.push_str("     \"windows\": [");
        for (j, (s, m)) in p.report.windows.iter().zip(&p.report.windowed).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"t0\": {}, \"offered_rps\": {}, \"utilization_est\": {}, \
                 \"queue_depth\": {}, \"ready\": {}, \"provisioned\": {}, \
                 \"attainment\": {}}}",
                jsonfmt::num(s.t0),
                jsonfmt::num(s.offered_rps),
                jsonfmt::num(s.utilization_est),
                jsonfmt::num(s.queue_depth),
                s.ready,
                s.provisioned,
                m.attainment.map_or("null".into(), jsonfmt::num),
            ));
        }
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < sweep.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if let Some(m) = telemetry {
        out.push_str(&format!(",\n  \"telemetry\": {}", m.render_json()));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::serving::DEFAULT_SLO;

    /// The miniature days' controller config: twelve windows, warm-up
    /// a quarter window, 1–8 replicas.
    pub(crate) fn mini_config(day_s: f64) -> AutoscaleConfig {
        AutoscaleConfig {
            window_s: (day_s / 12.0).max(1.0),
            warmup_s: (day_s / 48.0).max(0.5),
            min_replicas: 1,
            max_replicas: 8,
            slo: DEFAULT_SLO,
            ..AutoscaleConfig::default()
        }
    }

    /// A miniature frontier (small day, small windows): the default
    /// scenario's code path at a fraction of the volume.
    fn mini_frontier_with(
        runner: &SweepRunner,
        day_s: f64,
        policies: &[ScalingPolicy],
        seed: u64,
    ) -> FrontierSweep {
        let spec = ScenarioSpec { day_s, seed, ..ScenarioSpec::default() };
        let s = Scenario::with_probe(&spec, mini_config(day_s), 64, None);
        let capacity = (s.config.capacity_rps, s.label.as_str());
        frontier_sweep_with(runner, &|i| s.replica(i), s.config, policies, &s.traces, capacity)
    }

    #[test]
    fn default_policy_roster_covers_baselines_and_controllers() {
        let policies = default_policies(5.0, 2.625);
        assert_eq!(policies.len(), 4);
        assert_eq!(policies[0], ScalingPolicy::Static { n: 5 });
        assert_eq!(policies[1], ScalingPolicy::Static { n: 3 });
        assert!(matches!(policies[2], ScalingPolicy::ReactiveThreshold { .. }));
        assert!(matches!(policies[3], ScalingPolicy::TargetUtilization { .. }));
        // Degenerate scenario where mean rounds up to peak: no
        // duplicate static row.
        assert_eq!(default_policies(2.0, 1.5).len(), 3);
    }

    /// Window axes past `MAX_WINDOWS` are rejected with a message —
    /// from `--day/--window` and from a trace file's span — instead
    /// of aborting on allocation, while the default day passes.
    #[test]
    fn oversized_window_axes_are_rejected() {
        assert!(check_window_count(DEFAULT_DAY_S, AutoscaleConfig::default().window_s).is_ok());
        let err = check_window_count(600.0, 1e-9).expect_err("6e11 windows");
        assert!(err.contains("6e11 control windows"), "{err}");
        // After re-basing to t=0 this trace spans ~7e307 s.
        let path = std::env::temp_dir()
            .join(format!("seesaw-huge-span-trace-{}.txt", std::process::id()));
        std::fs::write(&path, "1e308\n1.7e308\n").expect("temp dir is writable");
        let path = path.to_str().expect("utf-8 temp path");
        let spec = ScenarioSpec { day_s: 120.0, ..ScenarioSpec::default() };
        let err = Scenario::new(&spec, AutoscaleConfig::default(), Some(path))
            .err()
            .expect("trace span needs too many windows");
        std::fs::remove_file(path).ok();
        assert!(err.contains("control windows"), "{err}");
    }

    #[test]
    fn mini_frontier_renders_and_is_jobs_invariant() {
        let policies = [
            ScalingPolicy::Static { n: 2 },
            ScalingPolicy::reactive_default(),
        ];
        let serial = mini_frontier_with(&SweepRunner::serial(), 120.0, &policies, 42);
        let parallel = mini_frontier_with(&SweepRunner::new(4), 120.0, &policies, 42);
        let spec = ScenarioSpec { day_s: 120.0, seed: 42, ..ScenarioSpec::default() };
        assert_eq!(serial, parallel);
        assert_eq!(render_frontier(&serial), render_frontier(&parallel));
        assert_eq!(to_json(&serial, &spec, None), to_json(&parallel, &spec, None));
        assert_eq!(serial.points.len(), 4, "2 traces x 2 policies");
        let rendered = render_frontier(&serial);
        assert!(rendered.contains("cost vs peak"));
        assert!(rendered.contains("diurnal"));
        assert!(rendered.contains("rush-hours"));
        let json = to_json(&serial, &spec, None);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"windows\""));
        assert!(!json.contains("NaN"));
        // The scenario echo makes any cell reproducible from the
        // document alone.
        assert!(json.contains("\"scenario\""));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"day_s\": 120"));
        // ... and every *point* repeats the router and seed, so a
        // single extracted point is reproducible on its own.
        assert_eq!(json.matches("\"router\": \"").count(), 1 + serial.points.len());
        assert_eq!(json.matches("\"seed\": 42").count(), 1 + serial.points.len());
        // The timeline renders for any cell.
        let tl = render_timeline(&serial.points[1]);
        assert!(tl.contains("per-window trajectory"));
        assert!(tl.contains("SLO att (measured)"));
    }
}
