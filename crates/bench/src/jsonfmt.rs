//! Minimal hand-rolled JSON rendering for the `--json` outputs of the
//! `serving` and `fleet` bins.
//!
//! The workspace has no serialization dependency, so sweeps render
//! their JSON explicitly — the same approach `perf_report` uses for
//! `BENCH_sweep.json`. Numbers are fixed-precision so output diffs
//! cleanly across runs and platforms.

use seesaw_workload::{LatencyStats, LatencySummary, SloSpec};

/// Escape a string for a JSON string literal, per RFC 8259: quotes,
/// backslashes, and *every* control character below U+0020 (a raw
/// newline or tab in a label would corrupt the whole document).
/// Delegates to the telemetry exporter's escaper so the two JSON
/// writers can never drift.
pub fn esc(s: &str) -> String {
    seesaw_telemetry::perfetto::esc(s)
}

/// A finite number at 6 decimal places; `null` otherwise (JSON has no
/// NaN/inf).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

/// One latency marginal as an object.
pub fn latency_summary(l: &LatencySummary) -> String {
    format!(
        "{{\"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        num(l.mean),
        num(l.p50),
        num(l.p90),
        num(l.p99),
        num(l.max)
    )
}

/// Full latency statistics as an object (`null` when absent).
pub fn latency_stats(l: Option<&LatencyStats>) -> String {
    match l {
        None => "null".into(),
        Some(l) => format!(
            "{{\"count\": {}, \"ttft\": {}, \"tpot\": {}, \"e2e\": {}}}",
            l.count,
            latency_summary(&l.ttft),
            latency_summary(&l.tpot),
            latency_summary(&l.e2e)
        ),
    }
}

/// An SLO as an object.
pub fn slo(s: SloSpec) -> String {
    format!(
        "{{\"ttft_s\": {}, \"tpot_s\": {}}}",
        num(s.ttft_s),
        num(s.tpot_s)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_formats() {
        assert_eq!(esc(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(num(0.5), "0.500000");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    /// A pathological label with every escape class RFC 8259 names:
    /// quote, backslash, the short-form control characters, and a raw
    /// C0 control that needs the `\u00XX` form.
    #[test]
    fn esc_handles_control_characters() {
        assert_eq!(
            esc("a\"b\\c\nd\te\rf\u{0008}g\u{000C}h\u{0001}i"),
            "a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001i"
        );
        // The escaped form parses back as a JSON string: no raw
        // control characters survive.
        assert!(esc("x\u{0000}y\u{001f}z").chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn summary_shape() {
        let l = LatencySummary { mean: 1.0, p50: 1.0, p90: 2.0, p99: 3.0, max: 3.5 };
        let s = latency_summary(&l);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"p99\": 3.000000"));
        assert_eq!(latency_stats(None), "null");
    }
}
