//! Run statistics shared by every engine.

use crate::request::Request;

/// Outcome of processing a request set in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Requests completed.
    pub requests: usize,
    /// Prompt tokens processed.
    pub input_tokens: u64,
    /// Tokens generated.
    pub output_tokens: u64,
    /// Simulated wall-clock duration, seconds.
    pub duration_s: f64,
}

impl RunStats {
    /// Build from the completed request set and elapsed time. A
    /// non-empty request set must have taken strictly positive time —
    /// otherwise every throughput accessor would return `inf`/`NaN`;
    /// an empty set may have `duration_s == 0.0` (its throughputs are
    /// all 0.0).
    pub fn from_requests(reqs: &[Request], duration_s: f64) -> Self {
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "run duration must be finite and non-negative, got {duration_s}"
        );
        assert!(
            reqs.is_empty() || duration_s > 0.0,
            "a non-empty run ({} requests) needs strictly positive duration",
            reqs.len()
        );
        RunStats {
            requests: reqs.len(),
            input_tokens: reqs.iter().map(|r| r.input_len as u64).sum(),
            output_tokens: reqs.iter().map(|r| r.output_len as u64).sum(),
            duration_s,
        }
    }

    /// `count / duration`, defined as 0.0 for the zero-duration
    /// (empty) run so empty sweeps report zeros instead of `NaN`.
    fn per_sec(&self, count: f64) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            count / self.duration_s
        }
    }

    /// End-to-end throughput in requests/second — the paper's primary
    /// metric (§6.1: "we measure the end-to-end throughput").
    pub fn throughput_rps(&self) -> f64 {
        self.per_sec(self.requests as f64)
    }

    /// Generated-token throughput, tokens/second.
    pub fn output_tokens_per_sec(&self) -> f64 {
        self.per_sec(self.output_tokens as f64)
    }

    /// Total-token throughput (input + output), tokens/second.
    pub fn total_tokens_per_sec(&self) -> f64 {
        self.per_sec((self.input_tokens + self.output_tokens) as f64)
    }
}

/// Geometric mean of a slice of positive ratios — the paper reports
/// geo-mean speedups (§6.2). Errs (instead of aborting a whole sweep)
/// on an empty slice or any non-positive/non-finite ratio, which a
/// zero-throughput candidate (e.g. a serving point admitting nothing)
/// would produce.
pub fn geo_mean(xs: &[f64]) -> Result<f64, String> {
    if xs.is_empty() {
        return Err("geo_mean of empty slice".into());
    }
    if let Some(bad) = xs.iter().find(|&&x| !(x.is_finite() && x > 0.0)) {
        return Err(format!("geo_mean needs positive finite ratios, got {bad}"));
    }
    Ok((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let reqs: Vec<Request> = (0..10).map(|i| Request::new(i, 100, 50)).collect();
        let s = RunStats::from_requests(&reqs, 5.0);
        assert!((s.throughput_rps() - 2.0).abs() < 1e-12);
        assert!((s.output_tokens_per_sec() - 100.0).abs() < 1e-12);
        assert!((s.total_tokens_per_sec() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_reports_zero_throughput() {
        // Regression: this used to be NaN (0/0) for every accessor.
        let s = RunStats::from_requests(&[], 0.0);
        assert_eq!(s.throughput_rps(), 0.0);
        assert_eq!(s.output_tokens_per_sec(), 0.0);
        assert_eq!(s.total_tokens_per_sec(), 0.0);
        // An empty run with elapsed time is also all-zero.
        let s = RunStats::from_requests(&[], 2.0);
        assert_eq!(s.throughput_rps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly positive duration")]
    fn nonempty_run_rejects_zero_duration() {
        // Regression: this used to construct fine and then return
        // `inf` from every throughput accessor.
        let reqs = vec![Request::new(0, 100, 50)];
        RunStats::from_requests(&reqs, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_duration_rejected() {
        RunStats::from_requests(&[], f64::NAN);
    }

    #[test]
    fn geo_mean_matches_hand_calc() {
        assert!((geo_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[1.45, 1.29]).unwrap() - (1.45f64 * 1.29).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_errs_on_zero_ratio_instead_of_aborting() {
        // Regression: a single zero-throughput candidate used to
        // panic and abort the whole sweep.
        let err = geo_mean(&[1.0, 0.0]).unwrap_err();
        assert!(err.contains("got 0"), "unexpected error: {err}");
        assert!(geo_mean(&[]).is_err());
        assert!(geo_mean(&[1.0, f64::NAN]).is_err());
        assert!(geo_mean(&[1.0, f64::INFINITY]).is_err());
    }
}
