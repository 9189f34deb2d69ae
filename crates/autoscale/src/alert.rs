//! Multi-window SLO burn-rate alerting over streaming window metrics.
//!
//! Production fleets watch an SLO's **error budget**: with an
//! objective of, say, 95% attainment, the budget is the 5% of traffic
//! allowed to miss. The *burn rate* over a span of windows is the
//! observed error fraction divided by that budget — burn 1.0 spends
//! the budget exactly on schedule, burn 10 exhausts it ten times too
//! fast. The classic multi-window rule (Google SRE workbook §5)
//! pages only when **both** a short window (fast detection) and a
//! long window (de-noising) burn above threshold, and uses hysteresis
//! so a single calm window does not flap the alert closed.
//!
//! [`AlertEngine`] evaluates [`AlertRule`]s *streamingly*: the
//! controller feeds it one [`WindowMetrics`] at a time as the causal
//! replay closes each window, and typed [`AlertEvent`]s come out —
//! onto the report and, when telemetry is on, the recorder's alert
//! track. Everything is deterministic: alerts are a pure fold over
//! the window sequence.
//!
//! The elastic sweep scores each cell's alerts against its injected
//! ground truth with
//! [`score_detection`]: median detection latency against seeded
//! correlated outages, missed outages, and false fires on the
//! fault-free day.

use crate::faults::{FaultKind, FaultSchedule};
use seesaw_workload::WindowMetrics;

/// A multi-window burn-rate alert rule. `Copy`, so controllers and
/// sweep grids pass it by value like every other config knob; the
/// display name (e.g. `burn6x-1s/3l@0.90`) is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertRule {
    /// Attainment objective the error budget is defined against
    /// (e.g. 0.90: up to 10% of arrivals may miss the SLO).
    pub objective: f64,
    /// Trailing windows in the short (fast-detection) span, ≥ 1.
    pub short_windows: usize,
    /// Trailing windows in the long (de-noising) span, ≥
    /// `short_windows`.
    pub long_windows: usize,
    /// Burn-rate threshold: fire when **both** spans burn at ≥ this
    /// multiple of the budget rate.
    pub burn: f64,
    /// Hysteresis: consecutive short-span evaluations below threshold
    /// before an active alert clears, ≥ 1.
    pub clear_windows: usize,
}

impl Default for AlertRule {
    /// The default paging rule: short span 1 window, long span 3,
    /// burn ≥ 3.5× on a 90% objective, 2 calm windows to clear. Tuned
    /// against measured frontiers: a correlated group outage collapses
    /// attainment toward 0 (burn → 10) and fires on the first or
    /// second window it touches even when it lands in the diurnal
    /// trough. One collapsed window beside two healthy ones burns
    /// ~3.7× over the long span, so the threshold sits below that.
    /// The fault-free default day's worst scale-up-lag window burns
    /// 1.8× on the short span and 0.8× over the long one (rush-hours
    /// trace, reactive policy): a 2.0× margin below threshold, so a
    /// clean day never pages.
    fn default() -> Self {
        AlertRule {
            objective: 0.90,
            short_windows: 1,
            long_windows: 3,
            burn: 3.5,
            clear_windows: 2,
        }
    }
}

impl AlertRule {
    /// Validate the rule.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.objective > 0.0 && self.objective < 1.0) {
            return Err(format!(
                "alert objective must be in (0, 1), got {}",
                self.objective
            ));
        }
        if self.short_windows == 0 {
            return Err("short span must cover at least 1 window".into());
        }
        if self.long_windows < self.short_windows {
            return Err(format!(
                "long span ({}) must cover at least the short span ({})",
                self.long_windows, self.short_windows
            ));
        }
        if !(self.burn.is_finite() && self.burn > 0.0) {
            return Err(format!("burn threshold must be finite and > 0, got {}", self.burn));
        }
        if self.clear_windows == 0 {
            return Err("hysteresis must be at least 1 window".into());
        }
        Ok(())
    }
}

impl std::fmt::Display for AlertRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "burn{}x-{}s/{}l@{:.2}",
            self.burn, self.short_windows, self.long_windows, self.objective
        )
    }
}

/// What an [`AlertEvent`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The rule started firing at this window boundary.
    Fire,
    /// The rule cleared after its hysteresis ran down.
    Clear,
}

/// One typed alert transition, emitted at a window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Display name of the rule that transitioned.
    pub rule: String,
    /// Fire or clear.
    pub kind: AlertKind,
    /// The window boundary the transition was observed at, seconds.
    pub t_s: f64,
    /// Index of the window that closed the evaluation.
    pub window: usize,
    /// Short-span burn rate at the transition.
    pub short_burn: f64,
    /// Long-span burn rate at the transition.
    pub long_burn: f64,
}

/// Per-rule streaming evaluation state.
#[derive(Debug, Clone)]
struct RuleState {
    rule: AlertRule,
    name: String,
    active: bool,
    calm_streak: usize,
}

/// Streaming burn-rate evaluator: feed windows in order, collect
/// typed transitions. A pure deterministic fold — no clocks, no
/// randomness — so replays are byte-identical across `--jobs`.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<RuleState>,
    /// Trailing `(arrivals, missed)` ring, sized to the longest span.
    history: Vec<(u64, u64)>,
    window: usize,
}

impl AlertEngine {
    /// An engine evaluating `rules`; panics on an invalid rule.
    pub fn new(rules: &[AlertRule]) -> Self {
        for r in rules {
            r.validate().unwrap_or_else(|e| panic!("invalid alert rule: {e}"));
        }
        AlertEngine {
            rules: rules
                .iter()
                .map(|&rule| RuleState {
                    rule,
                    name: rule.to_string(),
                    active: false,
                    calm_streak: 0,
                })
                .collect(),
            history: Vec::new(),
            window: 0,
        }
    }

    /// Burn rate over the trailing `span` windows for `objective`:
    /// observed error fraction (arrival-weighted; spans with no
    /// arrivals burn 0 — quiet is not an outage) over the error
    /// budget.
    fn burn(&self, span: usize, objective: f64) -> f64 {
        let take = span.min(self.history.len());
        let (mut arrivals, mut missed) = (0u64, 0u64);
        for &(a, m) in &self.history[self.history.len() - take..] {
            arrivals += a;
            missed += m;
        }
        if arrivals == 0 {
            return 0.0;
        }
        (missed as f64 / arrivals as f64) / (1.0 - objective)
    }

    /// Fold one closed window in and return any transitions it
    /// caused. Windows must arrive in axis order.
    pub fn observe(&mut self, w: &WindowMetrics) -> Vec<AlertEvent> {
        let arrivals = w.arrivals as u64;
        // attainment = met/arrivals exactly; recover the integer.
        let met = w
            .attainment
            .map_or(0.0, |a| (a * w.arrivals as f64).round()) as u64;
        self.history.push((arrivals, arrivals - met.min(arrivals)));
        let longest = self.rules.iter().map(|r| r.rule.long_windows).max().unwrap_or(1);
        if self.history.len() > longest {
            self.history.remove(0);
        }
        let window = self.window;
        self.window += 1;
        let mut events = Vec::new();
        for i in 0..self.rules.len() {
            let rule = self.rules[i].rule;
            let short = self.burn(rule.short_windows, rule.objective);
            let long = self.burn(rule.long_windows, rule.objective);
            let s = &mut self.rules[i];
            if !s.active {
                if short >= rule.burn && long >= rule.burn {
                    s.active = true;
                    s.calm_streak = 0;
                    events.push(AlertEvent {
                        rule: s.name.clone(),
                        kind: AlertKind::Fire,
                        t_s: w.t1,
                        window,
                        short_burn: short,
                        long_burn: long,
                    });
                }
            } else if short < rule.burn {
                s.calm_streak += 1;
                if s.calm_streak >= rule.clear_windows {
                    s.active = false;
                    s.calm_streak = 0;
                    events.push(AlertEvent {
                        rule: s.name.clone(),
                        kind: AlertKind::Clear,
                        t_s: w.t1,
                        window,
                        short_burn: short,
                        long_burn: long,
                    });
                }
            } else {
                s.calm_streak = 0;
            }
        }
        events
    }

    /// Evaluate a whole window axis at once (the post-hoc
    /// convenience; identical to streaming the windows through
    /// [`AlertEngine::observe`]).
    pub fn evaluate(rules: &[AlertRule], windows: &[WindowMetrics]) -> Vec<AlertEvent> {
        let mut engine = AlertEngine::new(rules);
        windows.iter().flat_map(|w| engine.observe(w)).collect()
    }
}

/// How one rule's alerts line up against a fault schedule's injected
/// correlated outages — the detection-frontier cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionScore {
    /// Correlated group outages in the schedule.
    pub outages: usize,
    /// Outages covered by a fire at or after the outage instant and
    /// before the next outage (or the end of time).
    pub detected: usize,
    /// Outages never flagged.
    pub missed: usize,
    /// Median seconds from outage to the covering fire; `None` when
    /// nothing was detected.
    pub median_latency_s: Option<f64>,
    /// Fire events attributable to no outage (fires before the first
    /// outage, or extra fires between two outages beyond the first).
    pub false_fires: usize,
}

/// Score `alerts` (one run's fire/clear stream) against the
/// schedule's correlated outages. Each outage is matched to the first
/// fire in `[outage, next outage)`; fires that cover no outage are
/// false positives. Kill events are ignored — single-replica kills
/// are below the paging bar by design.
pub fn score_detection(alerts: &[AlertEvent], faults: &FaultSchedule) -> DetectionScore {
    let outage_times: Vec<f64> = faults
        .events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::GroupOutage { .. }))
        .map(|e| e.t_s)
        .collect();
    let fires: Vec<f64> = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::Fire)
        .map(|a| a.t_s)
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut covered = vec![false; fires.len()];
    for (i, &t0) in outage_times.iter().enumerate() {
        let t1 = outage_times.get(i + 1).copied().unwrap_or(f64::INFINITY);
        if let Some(j) = fires.iter().position(|&f| f >= t0 && f < t1) {
            covered[j] = true;
            latencies.push(fires[j] - t0);
        }
    }
    latencies.sort_by(f64::total_cmp);
    let median_latency_s = if latencies.is_empty() {
        None
    } else {
        Some(latencies[(latencies.len() - 1) / 2])
    };
    DetectionScore {
        outages: outage_times.len(),
        detected: latencies.len(),
        missed: outage_times.len() - latencies.len(),
        median_latency_s,
        false_fires: covered.iter().filter(|&&c| !c).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;

    fn window(w: usize, arrivals: usize, met: usize) -> WindowMetrics {
        WindowMetrics {
            t0: w as f64 * 10.0,
            t1: (w + 1) as f64 * 10.0,
            arrivals,
            completions: arrivals,
            attainment: (arrivals > 0).then(|| met as f64 / arrivals as f64),
            goodput_rps: 0.0,
            ttft: None,
        }
    }

    #[test]
    fn default_rule_validates_and_displays() {
        let r = AlertRule::default();
        assert!(r.validate().is_ok());
        assert_eq!(r.to_string(), "burn3.5x-1s/3l@0.90");
        assert!(AlertRule { objective: 1.0, ..r }.validate().is_err());
        assert!(AlertRule { short_windows: 0, ..r }.validate().is_err());
        assert!(AlertRule { long_windows: 0, ..r }.validate().is_err());
        assert!(AlertRule { burn: 0.0, ..r }.validate().is_err());
        assert!(AlertRule { clear_windows: 0, ..r }.validate().is_err());
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let rules = [AlertRule::default()];
        let windows: Vec<WindowMetrics> =
            (0..50).map(|w| window(w, 100, 97)).collect();
        assert!(AlertEngine::evaluate(&rules, &windows).is_empty());
        // Quiet windows (no arrivals) burn nothing either.
        let quiet: Vec<WindowMetrics> = (0..50).map(|w| window(w, 0, 0)).collect();
        assert!(AlertEngine::evaluate(&rules, &quiet).is_empty());
    }

    #[test]
    fn outage_fires_fast_and_clears_with_hysteresis() {
        let rules = [AlertRule::default()];
        // 5 healthy windows, 2 collapsed ones, then recovery.
        let mut ws: Vec<WindowMetrics> = (0..5).map(|w| window(w, 100, 100)).collect();
        ws.push(window(5, 100, 5));
        ws.push(window(6, 100, 0));
        ws.extend((7..14).map(|w| window(w, 100, 100)));
        let events = AlertEngine::evaluate(&rules, &ws);
        assert_eq!(events.len(), 2, "one fire, one clear: {events:?}");
        assert_eq!(events[0].kind, AlertKind::Fire);
        // Short burn 0.95/0.10 = 9.5 ≥ 4 at window 5; long burn
        // (0.95/3)/0.1 ≈ 3.2 < 4 — fires at window 6 when the long
        // span catches up.
        assert_eq!(events[0].window, 6);
        assert_eq!(events[1].kind, AlertKind::Clear);
        // Two calm windows of hysteresis: clear at window 8.
        assert_eq!(events[1].window, 8);
        assert!(events[0].short_burn >= 4.0 && events[0].long_burn >= 4.0);
    }

    #[test]
    fn single_bad_window_inside_long_span_does_not_page() {
        // Long span de-noises: one collapsed window between healthy
        // neighbours keeps the 3-window burn below threshold.
        let rule = AlertRule { long_windows: 4, ..AlertRule::default() };
        let mut ws: Vec<WindowMetrics> = Vec::new();
        for w in 0..12 {
            ws.push(window(w, 100, if w == 6 { 40 } else { 100 }));
        }
        assert!(AlertEngine::evaluate(&[rule], &ws).is_empty());
    }

    #[test]
    fn detection_scoring_matches_ground_truth() {
        let mut faults = FaultSchedule::none();
        faults.groups = 2;
        faults.events = vec![
            FaultEvent { t_s: 100.0, kind: FaultKind::KillReplica { pick: 3 } },
            FaultEvent { t_s: 200.0, kind: FaultKind::GroupOutage { group: 0 } },
            FaultEvent { t_s: 500.0, kind: FaultKind::GroupOutage { group: 1 } },
            FaultEvent { t_s: 800.0, kind: FaultKind::GroupOutage { group: 0 } },
        ];
        let fire = |t_s: f64| AlertEvent {
            rule: "r".into(),
            kind: AlertKind::Fire,
            t_s,
            window: 0,
            short_burn: 9.0,
            long_burn: 9.0,
        };
        // Outage 1 detected at +30, outage 2 missed, outage 3 at +10;
        // one pre-outage false fire; kills never count.
        let alerts = vec![fire(50.0), fire(230.0), fire(810.0)];
        let score = score_detection(&alerts, &faults);
        assert_eq!(score.outages, 3);
        assert_eq!(score.detected, 2);
        assert_eq!(score.missed, 1);
        assert_eq!(score.false_fires, 1);
        assert_eq!(score.median_latency_s, Some(10.0));
        // No alerts at all: everything missed, nothing false.
        let none = score_detection(&[], &faults);
        assert_eq!((none.detected, none.missed, none.false_fires), (0, 3, 0));
        assert_eq!(none.median_latency_s, None);
    }
}
