//! Deterministic observability for the tiers above the engine.
//!
//! Everything below the fleet tier is already inspectable through
//! [`seesaw_sim`]'s span traces; this crate covers the rest of the
//! stack — router decisions, request lifecycles, scale transitions,
//! fault injections — with three cooperating pieces:
//!
//! * [`Recorder`] — structured spans and instant events stamped with
//!   **simulated** time only, so recorded output is byte-identical
//!   across `--jobs` counts and warm-pool reruns (wall-clock never
//!   enters it).
//! * [`MetricsRegistry`] — counters / gauges / histograms with
//!   deterministic (name-sorted) snapshots that merge associatively,
//!   rendered into the bins' `--json` output.
//! * [`perfetto`] — renders a [`Recorder`] as Chrome trace-event JSON
//!   (`chrome://tracing` / [ui.perfetto.dev](https://ui.perfetto.dev)).
//!
//! [`ControllerProfile`] is the one deliberate exception to the
//! no-wall-clock rule: it attributes *host* time across controller
//! phases (routing / actor advancement / engine runs / metrics) so
//! `perf_report` can say where the autoscale tier's cycles go. It is
//! returned beside reports, never inside them, so report equality and
//! byte-identity are unaffected.
//!
//! The whole subsystem is zero-cost when disabled: an
//! [`Instrument::off()`] records nothing, allocates nothing beyond the
//! empty struct, and instrumented entry points carrying it are the
//! same code path the uninstrumented entry points delegate to.

mod metrics;
pub mod perfetto;
mod profile;
mod recorder;

pub use metrics::{HistogramSnapshot, MetricsRegistry};
pub use profile::ControllerProfile;
pub use recorder::{
    fmt_secs, InstantEvent, Recorder, SpanEvent, ALERT_TRACK, CONTROLLER_TRACK,
    DEFAULT_INSTANT_CAP, DEFAULT_SPAN_CAP, REPLICA_TRACK_BASE, ROUTER_TRACK,
};

/// One bundle of everything an instrumented run can capture: the
/// event recorder, the metrics registry, and (for controllers) the
/// wall-time phase profile. Tiers take `&mut Instrument`; an
/// [`Instrument::off()`] turns every recording site into a branch
/// on a false bool.
#[derive(Debug)]
pub struct Instrument {
    /// Structured sim-time events (deterministic).
    pub recorder: Recorder,
    /// Counters / gauges / histograms (deterministic).
    pub metrics: MetricsRegistry,
    /// Wall-time phase attribution (NOT deterministic — host time).
    pub profile: ControllerProfile,
    /// Whether the wall-time profile is being collected.
    pub profiling: bool,
}

impl Instrument {
    /// Record nothing (the default for plain runs).
    pub fn off() -> Self {
        Instrument {
            recorder: Recorder::disabled(),
            metrics: MetricsRegistry::new(),
            profile: ControllerProfile::default(),
            profiling: false,
        }
    }

    /// Record events and metrics, but skip wall-time profiling.
    pub fn tracing() -> Self {
        Instrument { recorder: Recorder::enabled(), ..Instrument::off() }
    }

    /// [`Instrument::tracing`] with explicit recorder caps instead of
    /// [`DEFAULT_SPAN_CAP`]/[`DEFAULT_INSTANT_CAP`], for callers that
    /// trade trace completeness against memory (or tests that force
    /// overflow).
    pub fn tracing_with_caps(span_cap: usize, instant_cap: usize) -> Self {
        Instrument { recorder: Recorder::with_caps(span_cap, instant_cap), ..Instrument::off() }
    }

    /// Collect only the wall-time phase profile (perf_report's mode).
    pub fn profiling() -> Self {
        Instrument { profiling: true, ..Instrument::off() }
    }

    /// Record everything.
    pub fn full() -> Self {
        Instrument { profiling: true, ..Instrument::tracing() }
    }

    /// Whether deterministic telemetry (events + metrics) is on.
    pub fn telemetry_on(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Fold the recorder's overflow counters into the registry as
    /// `telemetry.dropped_spans` / `telemetry.dropped_instants`, so a
    /// capped trace's `--json` telemetry block says how much it lost
    /// (both appear even at zero — their presence is the health
    /// signal). No-op when telemetry is off.
    pub fn snapshot_drops(&mut self) {
        if !self.telemetry_on() {
            return;
        }
        let (spans, instants) = self.recorder.dropped();
        self.metrics.counter_add("telemetry.dropped_spans", spans);
        self.metrics.counter_add("telemetry.dropped_instants", instants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_instrument_records_nothing() {
        let mut i = Instrument::off();
        assert!(!i.telemetry_on());
        assert!(!i.profiling);
        i.recorder.instant(ROUTER_TRACK, "route", 1.0, &[]);
        assert_eq!(i.recorder.instants().len(), 0);
        assert!(i.metrics.is_empty());
    }

    #[test]
    fn capped_instrument_counts_drops_into_metrics() {
        let mut i = Instrument::tracing_with_caps(1, 2);
        assert!(i.telemetry_on());
        for k in 0..4 {
            i.recorder.span(CONTROLLER_TRACK, "w", k as f64, 1.0, &[]);
            i.recorder.instant(ROUTER_TRACK, "route", k as f64, &[]);
        }
        i.snapshot_drops();
        assert_eq!(i.metrics.counter("telemetry.dropped_spans"), 3);
        assert_eq!(i.metrics.counter("telemetry.dropped_instants"), 2);

        // Uncapped runs still surface the counters, at zero.
        let mut clean = Instrument::tracing();
        clean.recorder.span(CONTROLLER_TRACK, "w", 0.0, 1.0, &[]);
        clean.snapshot_drops();
        assert_eq!(clean.metrics.counter("telemetry.dropped_spans"), 0);
        assert!(clean.metrics.render_json().contains("\"telemetry.dropped_instants\": 0"));

        // And an off instrument stays empty.
        let mut off = Instrument::off();
        off.snapshot_drops();
        assert!(off.metrics.is_empty());
    }

    #[test]
    fn modes_expose_the_right_switches() {
        assert!(Instrument::tracing().telemetry_on());
        assert!(!Instrument::tracing().profiling);
        assert!(Instrument::profiling().profiling);
        assert!(!Instrument::profiling().telemetry_on());
        assert!(Instrument::full().telemetry_on() && Instrument::full().profiling);
    }
}
