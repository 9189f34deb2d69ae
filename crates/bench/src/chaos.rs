//! Chaos harness: the default failure-injected day, its fault ×
//! recovery cost-vs-SLO-vs-availability frontier, and the table/JSON
//! renderings (the `chaos` bin).
//!
//! The scenario reuses the autoscale tier's diurnal day end to end —
//! same capacity probe, same envelope, same seeds — and replays it
//! under a roster of failure models (none, independent kills,
//! kills + correlated rack outages) crossed with recovery postures
//! (a bare static fleet that never heals, the same fleet with
//! replacement spawns, and the reactive controller with replacement).
//! The headline comparison: with failures on, a reactive policy with
//! replacement should recover most of the no-failure attainment,
//! while the bare static fleet measurably does not — and in every
//! cell `completed + failed == offered` reconciles exactly (nothing
//! is silently dropped).
//!
//! Everything is deterministic and byte-identical across `--jobs`:
//! fault schedules are resolved from their seeds before the replay,
//! and all requeue decisions happen on the serial causal trajectory.

use crate::autoscale::{config_json, scenario_json, show, Scenario, ScenarioSpec};
use crate::jsonfmt;
use crate::table::{f2, f3, Table};
use seesaw_autoscale::{
    base_windows, elastic_sweep_with, ElasticFrontier, ElasticPoint, FaultPlan, RecoverySpec, RetryPolicy,
    ScalingPolicy,
};
use seesaw_engine::SweepRunner;
use seesaw_telemetry::MetricsRegistry;

/// Most fault events (kills plus outages) a chaos run may expect over
/// its fault horizon — one day, rounded up to whole control windows.
/// The whole schedule is drawn up front and every event is resolved
/// by the replay, so time and memory grow with this count (~0.8 s and
/// ~150 MB at 100 000 on a 4-replica fleet); the bound sits far above
/// any realistic failure rate while keeping a mistyped `--kills 1e9`
/// from exhausting memory.
pub const MAX_FAULT_EVENTS: f64 = 100_000.0;

/// Failure-model knobs of the default chaos scenario, expressed per
/// *day* so a compressed `--day` keeps the same number of expected
/// faults (the plan itself works in per-hour rates over the actual
/// horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Seed of the fault plan's event streams.
    pub fault_seed: u64,
    /// Expected independent replica kills over the day.
    pub kills_per_day: f64,
    /// Expected correlated group outages over the day.
    pub outages_per_day: f64,
    /// Rack/zone groups replica indices stripe across.
    pub groups: usize,
    /// Failure-detection delay before lost work requeues, seconds.
    pub detect_s: f64,
    /// Retry behaviour for lost requests.
    pub retry: RetryPolicy,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            fault_seed: crate::SEED,
            kills_per_day: 8.0,
            outages_per_day: 1.0,
            groups: 2,
            detect_s: 10.0,
            // More patient than `RetryPolicy::default()`: replacement
            // capacity arrives at a window boundary plus warm-up (up
            // to ~360 s dark after a trough kill on the default
            // config), so the retry span must outlive that blackout
            // or every trough arrival burns its attempts against a
            // dead fleet. 12 attempts at detect 10 s with 2→60 s
            // exponential backoff spans ~470 s.
            retry: RetryPolicy {
                max_attempts: 12,
                backoff_base_s: 2.0,
                backoff_cap_s: 60.0,
                deadline_s: 600.0,
            },
        }
    }
}

impl ChaosSpec {
    /// The per-hour fault plan realizing `kills_per_day` (and
    /// optionally `outages_per_day`) over a `day_s`-second trace.
    pub fn plan(&self, day_s: f64, with_outages: bool) -> FaultPlan {
        FaultPlan {
            seed: self.fault_seed,
            kills_per_hour: self.kills_per_day * 3600.0 / day_s,
            outages_per_hour: if with_outages {
                self.outages_per_day * 3600.0 / day_s
            } else {
                0.0
            },
            groups: self.groups,
            detect_s: self.detect_s,
        }
    }

    /// Check every plan of [`ChaosSpec::fault_roster`] for a
    /// `day_s`-second day in `window_s`-second windows: each must be
    /// valid (a rate scaled past `f64` range is not), and at most
    /// [`MAX_FAULT_EVENTS`] may be expected before the last window
    /// ends. `day_s` bounds the last arrival, so the horizon is at
    /// least any day's fault horizon.
    pub fn check(&self, day_s: f64, window_s: f64) -> Result<(), String> {
        let horizon_s = base_windows(day_s, window_s) as f64 * window_s;
        for (_, plan) in self.fault_roster(day_s) {
            plan.validate()?;
            let expected = (plan.kills_per_hour + plan.outages_per_hour) * horizon_s / 3600.0;
            if expected > MAX_FAULT_EVENTS {
                return Err(format!(
                    "{} expected faults over a {} s horizon; at most {MAX_FAULT_EVENTS} are \
                     supported",
                    show(expected),
                    show(horizon_s),
                ));
            }
        }
        Ok(())
    }

    /// The default failure roster: a fault-free control row, then
    /// independent kills, then kills plus correlated outages (the
    /// outage row only when the rate is positive).
    pub fn fault_roster(&self, day_s: f64) -> Vec<(String, FaultPlan)> {
        let mut roster = vec![
            ("none".to_string(), FaultPlan::none()),
            (
                format!("kills-{:.0}/day", self.kills_per_day),
                self.plan(day_s, false),
            ),
        ];
        if self.outages_per_day > 0.0 {
            roster.push((
                format!(
                    "kills+outages-{:.0}/day",
                    self.kills_per_day + self.outages_per_day
                ),
                self.plan(day_s, true),
            ));
        }
        roster
    }

    /// The default recovery roster for a day peaking at `peak_mult` ×
    /// per-replica capacity: the bare provision-for-peak static fleet
    /// (never heals — the fragility baseline), the same fleet with
    /// replacement spawns, and the reactive controller with
    /// replacement.
    pub fn recovery_roster(&self, peak_mult: f64) -> Vec<RecoverySpec> {
        let static_peak = ScalingPolicy::Static { n: (peak_mult.ceil() as usize).max(1) };
        [
            RecoverySpec::bare(static_peak),
            RecoverySpec::healing(static_peak),
            RecoverySpec::healing(ScalingPolicy::reactive_default()),
        ]
        .map(|r| RecoverySpec { retry: self.retry, ..r })
        .to_vec()
    }
}

/// Run the default chaos frontier: sweep the fault × recovery grid
/// over `scenario`'s diurnal day (its first trace).
pub fn default_chaos_frontier_with(
    runner: &SweepRunner,
    scenario: &Scenario,
    chaos: &ChaosSpec,
) -> ElasticFrontier {
    let config = scenario.config;
    let mut frontiers = elastic_sweep_with(
        runner,
        &|i| scenario.replica(i),
        config,
        &scenario.traces[..1],
        &chaos.fault_roster(scenario.spec.day_s),
        &chaos.recovery_roster(scenario.spec.peak_mult),
        (config.capacity_rps, &scenario.label),
    );
    frontiers.remove(0)
}

/// Render the frontier as the `chaos` bin's table: cost and SLO
/// columns like the autoscale frontier, plus the availability
/// accounting (kills, lost/retried/failed requests, retry
/// amplification, blackout seconds).
pub fn render_chaos(frontier: &ElasticFrontier) -> String {
    let cfg = &frontier.config;
    let mut out = format!(
        "\n=== chaos: fault x recovery cost-vs-SLO-vs-availability frontier \
         ({} replicas, {} trace) ===\n\
         per-replica capacity (offline probe) = {} rps; SLO: TTFT <= {}s, TPOT <= {}s\n\
         window {}s, warm-up {}s, replicas {}..{}, {} routing; \
         attainment counts failed requests against the SLO\n",
        frontier.label,
        frontier.trace,
        f3(frontier.capacity_rps),
        cfg.slo.ttft_s,
        cfg.slo.tpot_s,
        cfg.window_s,
        cfg.warmup_s,
        cfg.min_replicas,
        cfg.max_replicas,
        cfg.router,
    );
    let mut t = Table::new(&[
        "fault",
        "recovery",
        "requests",
        "replica-s",
        "mean N",
        "killed",
        "lost",
        "retried",
        "failed",
        "retry amp",
        "dark s",
        "SLO att",
        "goodput",
    ]);
    for p in &frontier.points {
        t.row(&[
            p.fault.clone(),
            p.recovery.clone(),
            p.n_requests.to_string(),
            format!("{:.0}", p.replica_seconds),
            f2(p.mean_replicas),
            p.replicas_killed.to_string(),
            p.lost_attempts.to_string(),
            p.retries.to_string(),
            p.failed.to_string(),
            format!("{:.3}x", p.retry_amplification),
            format!("{:.0}", p.unavailability_s),
            format!("{:.1}%", 100.0 * p.attainment),
            f3(p.goodput_rps),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render the detection frontier: how the burn-rate rule's alert
/// stream lines up against each cell's injected correlated outages.
/// The `"none"` fault row is the false-positive column — a clean day
/// must not page. Rows where the whole fleet dies and nothing heals
/// expose the attainment-burn blind spot: no completions means no
/// windowed arrivals, so the burn reads 0 while the fleet is dark
/// (the `dark s` column of the availability table catches what the
/// pager misses).
pub fn render_detection_frontier(frontier: &ElasticFrontier) -> String {
    let mut out = format!(
        "\n=== chaos: fault-detection frontier (rule {}) ===\n\
         fires matched to correlated outages; detection latency from outage to fire\n",
        frontier.alert_rule,
    );
    let mut t = Table::new(&[
        "fault",
        "recovery",
        "outages",
        "detected",
        "missed",
        "median detect s",
        "false fires",
    ]);
    for p in &frontier.points {
        let d = &p.detection;
        t.row(&[
            p.fault.clone(),
            p.recovery.clone(),
            d.outages.to_string(),
            d.detected.to_string(),
            d.missed.to_string(),
            d.median_latency_s.map_or("-".into(), |l| format!("{:.0}", l)),
            d.false_fires.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render one cell's per-window availability trajectory: live
/// replicas and accepting capacity against arrivals, kills, and the
/// measured windowed attainment.
pub fn render_chaos_timeline(point: &ElasticPoint) -> String {
    let r = &point.report;
    let mut out = format!(
        "\n=== chaos: {} under {} — per-window availability ===\n",
        point.recovery, point.fault
    );
    let mut t = Table::new(&[
        "window",
        "offered rps",
        "ready",
        "live",
        "kills",
        "capacity s",
        "arrivals",
        "SLO att (measured)",
    ]);
    for ((s, m), cap) in r
        .windows
        .iter()
        .zip(&r.windowed)
        .zip(&r.availability.window_capacity_s)
    {
        t.row(&[
            format!("{:>6.0}s", s.t0),
            f3(s.offered_rps),
            s.ready.to_string(),
            s.provisioned.to_string(),
            s.failures.to_string(),
            format!("{:.0}", cap),
            s.arrivals.to_string(),
            m.attainment
                .map_or("-".into(), |a| format!("{:.1}%", 100.0 * a)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The frontier as one machine-readable JSON document (the `chaos`
/// bin's `--json` output). The header echoes the full scenario
/// (engine, day shape, workload seed), the controller config, and the
/// retry policy; every point carries its complete fault plan (seed
/// and rates) — so any frontier point is reproducible from the
/// document alone. The `telemetry` metrics block is present only when
/// a traced run produced one, so the plain document stays
/// byte-identical to pre-telemetry output.
pub fn to_json(
    frontier: &ElasticFrontier,
    spec: &ScenarioSpec,
    chaos: &ChaosSpec,
    telemetry: Option<&MetricsRegistry>,
) -> String {
    let cfg = &frontier.config;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", jsonfmt::esc(&frontier.label)));
    out.push_str(&format!("  \"trace\": \"{}\",\n", jsonfmt::esc(&frontier.trace)));
    out.push_str(&format!(
        "  \"capacity_rps\": {},\n",
        jsonfmt::num(frontier.capacity_rps)
    ));
    out.push_str(&format!("  \"scenario\": {},\n", scenario_json(spec)));
    out.push_str(&format!("  \"config\": {},\n", config_json(cfg)));
    out.push_str(&format!(
        "  \"retry\": {{\"max_attempts\": {}, \"backoff_base_s\": {}, \
         \"backoff_cap_s\": {}, \"deadline_s\": {}, \"detect_s\": {}}},\n",
        chaos.retry.max_attempts,
        jsonfmt::num(chaos.retry.backoff_base_s),
        jsonfmt::num(chaos.retry.backoff_cap_s),
        jsonfmt::num(chaos.retry.deadline_s),
        jsonfmt::num(chaos.detect_s),
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in frontier.points.iter().enumerate() {
        // Every point repeats the router policy and workload seed so
        // a single extracted point stays reproducible without the
        // document header (the plan's own seed covers the faults).
        out.push_str(&format!(
            "    {{\"fault\": \"{}\", \"recovery\": \"{}\", \
             \"router\": \"{}\", \"seed\": {}, \
             \"plan\": {{\"seed\": {}, \"kills_per_hour\": {}, \"outages_per_hour\": {}, \
             \"groups\": {}, \"detect_s\": {}}}, \
             \"n_requests\": {}, \"completed\": {}, \"failed\": {}, \"lost_attempts\": {}, \
             \"retries\": {}, \"replicas_killed\": {}, \"retry_amplification\": {}, \
             \"unavailability_s\": {}, \"replica_seconds\": {}, \"mean_replicas\": {}, \
             \"peak_replicas\": {}, \"attainment\": {}, \"goodput_rps\": {}, \
             \"detection\": {{\"rule\": \"{}\", \"outages\": {}, \"detected\": {}, \
             \"missed\": {}, \"median_latency_s\": {}, \"false_fires\": {}}}, \
             \"latency\": {}}}{}\n",
            jsonfmt::esc(&p.fault),
            jsonfmt::esc(&p.recovery),
            jsonfmt::esc(&cfg.router.to_string()),
            spec.seed,
            p.plan.seed,
            jsonfmt::num(p.plan.kills_per_hour),
            jsonfmt::num(p.plan.outages_per_hour),
            p.plan.groups,
            jsonfmt::num(p.plan.detect_s),
            p.n_requests,
            p.completed,
            p.failed,
            p.lost_attempts,
            p.retries,
            p.replicas_killed,
            jsonfmt::num(p.retry_amplification),
            jsonfmt::num(p.unavailability_s),
            jsonfmt::num(p.replica_seconds),
            jsonfmt::num(p.mean_replicas),
            p.peak_replicas,
            jsonfmt::num(p.attainment),
            jsonfmt::num(p.goodput_rps),
            jsonfmt::esc(&frontier.alert_rule),
            p.detection.outages,
            p.detection.detected,
            p.detection.missed,
            p.detection.median_latency_s.map_or("null".to_string(), jsonfmt::num),
            p.detection.false_fires,
            jsonfmt::latency_stats(p.report.fleet.latency.as_ref()),
            if i + 1 < frontier.points.len() { "," } else { "" },
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
mod tests {
    use super::*;
    use crate::autoscale::tests::mini_config;
    use crate::serving::DEFAULT_SLO;
    use seesaw_autoscale::{
        score_detection, AutoscaleConfig, AutoscaleController, FaultEvent, FaultKind,
        FaultSchedule,
    };
    use seesaw_telemetry::Instrument;

    /// A miniature chaos frontier (small day, small windows): the
    /// default scenario's code path at a fraction of the volume.
    fn mini_chaos_frontier_with(
        runner: &SweepRunner,
        day_s: f64,
        faults: &[(String, FaultPlan)],
        recoveries: &[RecoverySpec],
        seed: u64,
    ) -> ElasticFrontier {
        let spec = ScenarioSpec { day_s, seed, ..ScenarioSpec::default() };
        let s = Scenario::with_probe(&spec, mini_config(day_s), 64, None);
        let mut frontiers = elastic_sweep_with(
            runner,
            &|i| s.replica(i),
            s.config,
            &s.traces[..1],
            faults,
            recoveries,
            (s.config.capacity_rps, &s.label),
        );
        frontiers.remove(0)
    }

    #[test]
    fn fault_rate_check_bounds_expected_events() {
        let chaos = ChaosSpec::default();
        assert!(chaos.check(86_400.0, 300.0).is_ok());
        let heavy = ChaosSpec { kills_per_day: 1500.0, outages_per_day: 40.0, ..chaos };
        assert!(heavy.check(1800.0, 60.0).is_ok());
        for kills_per_day in [1e9, 1e308] {
            assert!(ChaosSpec { kills_per_day, ..chaos }.check(100.0, 10.0).is_err());
        }
        // A day far shorter than one window still schedules a whole
        // window of faults.
        assert!(ChaosSpec { kills_per_day: 5.0, ..chaos }.check(1e-300, 10.0).is_err());
    }

    /// The acceptance bar for the default burn-rate rule: every
    /// injected correlated outage fires within
    /// `detect_s + 2 control windows`, and the same fleet's fault-free
    /// day never pages. Outages are placed in loaded windows — a
    /// burn-rate pager watches *user impact*, so an outage the fleet's
    /// headroom fully absorbs is (correctly) invisible to it.
    #[test]
    fn default_rule_detects_loaded_outages_and_stays_quiet_fault_free() {
        let day_s = 1200.0;
        let spec = ScenarioSpec { day_s, seed: 42, ..ScenarioSpec::default() };
        let config = AutoscaleConfig {
            window_s: 100.0,
            warmup_s: 25.0,
            min_replicas: 1,
            max_replicas: 8,
            slo: DEFAULT_SLO,
            ..AutoscaleConfig::default()
        };
        let s = Scenario::with_probe(&spec, config, 64, None);
        let (config, requests) = (s.config, &s.traces[0].1);
        let controller =
            AutoscaleController::new(config, ScalingPolicy::Static { n: 5 });
        let runner = SweepRunner::new(4);
        let build = |i: usize| s.replica(i);

        let run = |schedule: &FaultSchedule| {
            controller.run_with(&runner, &build, requests, schedule, &mut Instrument::off())
        };
        let clean = run(&FaultSchedule::none());
        assert!(
            clean.alerts.is_empty(),
            "fault-free day must not page: {:?}",
            clean.alerts
        );

        // Two group outages in loaded windows: one on the morning
        // ramp, one on the evening shoulder, separated enough for the
        // first alert to clear before the second outage strikes.
        let schedule = FaultSchedule {
            events: vec![
                FaultEvent { t_s: 405.0, kind: FaultKind::GroupOutage { group: 0 } },
                FaultEvent { t_s: 710.0, kind: FaultKind::GroupOutage { group: 1 } },
            ],
            groups: 2,
            detect_s: 10.0,
            retry: ChaosSpec::default().retry,
            replace_failures: true,
        };
        let faulted = run(&schedule);
        let score = score_detection(&faulted.alerts, &schedule);
        assert_eq!(score.outages, 2);
        assert_eq!(score.missed, 0, "alerts: {:?}", faulted.alerts);
        assert_eq!(score.false_fires, 0, "alerts: {:?}", faulted.alerts);
        let median = score.median_latency_s.expect("detected outages have a latency");
        assert!(
            median <= schedule.detect_s + 2.0 * config.window_s,
            "median detection latency {median}s exceeds detect + 2 windows"
        );
    }

    #[test]
    fn rosters_cover_the_default_grid() {
        let chaos = ChaosSpec::default();
        let faults = chaos.fault_roster(86_400.0);
        assert_eq!(faults.len(), 3);
        assert_eq!(faults[0].0, "none");
        assert_eq!(faults[0].1, FaultPlan::none());
        assert!((faults[1].1.kills_per_hour - 8.0 / 24.0).abs() < 1e-12);
        assert_eq!(faults[1].1.outages_per_hour, 0.0);
        assert!(faults[2].1.outages_per_hour > 0.0);
        // A compressed day keeps the same expected fault count.
        let compressed = chaos.plan(120.0, false);
        assert!((compressed.kills_per_hour * 120.0 / 3600.0 - 8.0).abs() < 1e-9);
        let recoveries = chaos.recovery_roster(5.0);
        assert_eq!(recoveries.len(), 3);
        assert_eq!(recoveries[0].to_string(), "static-5");
        assert_eq!(recoveries[1].to_string(), "static-5+replace");
        assert_eq!(recoveries[2].to_string(), "reactive+replace");
        // No outage row when the rate is zero.
        let no_outages = ChaosSpec { outages_per_day: 0.0, ..chaos };
        assert_eq!(no_outages.fault_roster(86_400.0).len(), 2);
    }

    #[test]
    fn mini_chaos_frontier_renders_and_is_jobs_invariant() {
        let chaos = ChaosSpec {
            kills_per_day: 3.0,
            outages_per_day: 0.0,
            detect_s: 2.0,
            ..ChaosSpec::default()
        };
        let faults = chaos.fault_roster(120.0);
        let recoveries = [
            RecoverySpec::bare(ScalingPolicy::Static { n: 3 }),
            RecoverySpec::healing(ScalingPolicy::reactive_default()),
        ];
        let run = |runner: &SweepRunner| {
            mini_chaos_frontier_with(runner, 120.0, &faults, &recoveries, 42)
        };
        let serial = run(&SweepRunner::serial());
        let parallel = run(&SweepRunner::new(4));
        let spec = ScenarioSpec { day_s: 120.0, seed: 42, ..ScenarioSpec::default() };
        assert_eq!(serial, parallel, "chaos frontier must be byte-identical across --jobs");
        assert_eq!(render_chaos(&serial), render_chaos(&parallel));
        assert_eq!(to_json(&serial, &spec, &chaos, None), to_json(&parallel, &spec, &chaos, None));
        assert_eq!(serial.points.len(), 4, "2 faults x 2 recoveries");
        // The fault-free column equals the plain autoscale numbers:
        // clean availability and no retries.
        for p in serial.points.iter().filter(|p| p.fault == "none") {
            assert_eq!(p.failed, 0);
            assert_eq!(p.retries, 0);
            assert_eq!(p.replicas_killed, 0);
            assert_eq!(p.completed, p.n_requests);
        }
        // Every cell reconciles.
        for p in &serial.points {
            assert_eq!(p.completed + p.failed, p.n_requests, "{}/{}", p.fault, p.recovery);
        }
        let rendered = render_chaos(&serial);
        assert!(rendered.contains("retry amp"));
        assert!(rendered.contains("reactive+replace"));
        // Detection scoring rides along on every cell: a kills-only
        // grid injects no correlated outages, so nothing can be
        // detected or missed.
        let det = render_detection_frontier(&serial);
        assert!(det.contains("fault-detection frontier"));
        assert!(det.contains(&serial.alert_rule));
        for p in &serial.points {
            assert_eq!(p.detection.outages, 0, "{}/{}", p.fault, p.recovery);
            assert_eq!(p.detection.missed, 0);
            assert_eq!(p.detection.median_latency_s, None);
        }
        let json = to_json(&serial, &spec, &chaos, None);
        assert!(json.contains("\"detection\""));
        assert!(json.contains("\"false_fires\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"plan\""));
        assert!(json.contains("\"retry\""));
        assert!(json.contains("\"scenario\""));
        assert!(!json.contains("NaN"));
        // Every point repeats the router and workload seed (one
        // "router" in the config header, one per point; the workload
        // seed appears in the scenario echo, once per point, and in
        // any fault plan that happens to share the seed value).
        assert_eq!(json.matches("\"router\": \"").count(), 1 + serial.points.len());
        assert!(json.matches("\"seed\": 42").count() > serial.points.len());
        // The availability timeline renders for any cell.
        let tl = render_chaos_timeline(&serial.points[3]);
        assert!(tl.contains("per-window availability"));
        assert!(tl.contains("capacity s"));
    }

    /// Replacement only acts on kills, so under the empty plan a
    /// static fleet with and without it replays identically: the
    /// default roster's `none × static-N` and `none × static-N+replace`
    /// cells carry equal reports.
    #[test]
    fn replacement_is_a_no_op_without_faults() {
        let chaos = ChaosSpec::default();
        let faults = &chaos.fault_roster(120.0)[..1];
        let recoveries = chaos.recovery_roster(ScenarioSpec::default().peak_mult);
        assert_eq!(faults[0].0, "none");
        let frontier =
            mini_chaos_frontier_with(&SweepRunner::serial(), 120.0, faults, &recoveries, 42);
        let bare = frontier.point("none", &recoveries[0].to_string()).expect("bare static cell");
        let healing =
            frontier.point("none", &recoveries[1].to_string()).expect("healing static cell");
        assert_eq!(recoveries[0].policy, recoveries[1].policy);
        assert!(!recoveries[0].replace_failures && recoveries[1].replace_failures);
        assert_eq!(bare.report, healing.report);
    }
}
