//! Per-request latency metrics for online serving runs: TTFT, TPOT,
//! end-to-end latency, their percentiles, and SLO/goodput accounting.
//!
//! Engines record one [`RequestTiming`] per completed request
//! (arrival, first-token, and completion timestamps in simulated
//! seconds); [`LatencyStats`] summarizes a timeline with nearest-rank
//! percentiles. SLO attainment and goodput — requests meeting a
//! TTFT/TPOT SLO per second — are the serving sweep's headline
//! metrics.

/// Simulated-time timeline of one request's life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTiming {
    /// Request id.
    pub id: u64,
    /// When the request became available, seconds.
    pub arrival_s: f64,
    /// When its first output token was produced, seconds.
    pub first_token_s: f64,
    /// When its last output token was produced, seconds.
    pub completion_s: f64,
    /// Tokens generated (for TPOT normalization).
    pub output_len: usize,
    /// Dispatch attempts this request took to complete (1 = served on
    /// its first try; >1 = requeued after replica failures). Under
    /// retries, `arrival_s` stays the *first* arrival, so `ttft`/`e2e`
    /// include detection and backoff delays.
    pub attempts: u32,
}

impl RequestTiming {
    /// Time to first token: queueing + prefill, seconds.
    pub fn ttft(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Time per output token after the first (a.k.a. TBT), seconds.
    /// Zero for single-token outputs (no inter-token gap exists).
    pub fn tpot(&self) -> f64 {
        if self.output_len > 1 {
            (self.completion_s - self.first_token_s) / (self.output_len - 1) as f64
        } else {
            0.0
        }
    }

    /// End-to-end latency (arrival to last token), seconds.
    pub fn e2e(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// Nearest-rank percentile of `xs` (`p` in percent, 0 < p ≤ 100):
/// the smallest element with at least `p`% of the sample at or below
/// it. Input order is irrelevant (a sorted copy is taken). Returns
/// `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sort_samples(&mut sorted);
    Some(percentile_of_sorted(&sorted, p))
}

/// Sort latency samples ascending. Unstable, yet the sorted sequence
/// is the one a stable sort gives: finite samples that compare equal
/// have equal bits, zeros of both signs aside, and a latency is a
/// difference of non-negative times, so never `-0.0`. Panics on NaN.
fn sort_samples(xs: &mut [f64]) {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
}

/// Nearest-rank percentile of an already-ascending non-empty sample.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(
        p > 0.0 && p <= 100.0 && p.is_finite(),
        "percentile must be in (0, 100], got {p}"
    );
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Five-number summary of one latency marginal (all seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// Nearest-rank p90.
    pub p90: f64,
    /// Nearest-rank p99.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencySummary {
    /// Summarize a sample set; all-zero for an empty one (callers
    /// that must distinguish "no samples" from "all-zero latencies" —
    /// e.g. per-window slices of a day-long run — use
    /// [`LatencySummary::try_of`]).
    pub fn of(xs: &[f64]) -> Self {
        Self::try_of(xs)
            .unwrap_or(LatencySummary { mean: 0.0, p50: 0.0, p90: 0.0, p99: 0.0, max: 0.0 })
    }

    /// Summarize a sample set; `None` for an empty one — never a NaN
    /// mean or a fabricated zero percentile. Sorts the samples once
    /// and indexes every rank (summaries run on every engine report,
    /// so per-percentile re-sorting would be paid on the sweep hot
    /// path).
    pub fn try_of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sort_samples(&mut sorted);
        Some(LatencySummary {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile_of_sorted(&sorted, 50.0),
            p90: percentile_of_sorted(&sorted, 90.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Latency summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Requests summarized.
    pub count: usize,
    /// Time-to-first-token marginal.
    pub ttft: LatencySummary,
    /// Time-per-output-token marginal (multi-token requests only;
    /// single-token outputs have no inter-token gap).
    pub tpot: LatencySummary,
    /// End-to-end latency marginal.
    pub e2e: LatencySummary,
}

impl LatencyStats {
    /// Summarize a timeline; `None` when it is empty.
    pub fn from_timeline(timeline: &[RequestTiming]) -> Option<Self> {
        if timeline.is_empty() {
            return None;
        }
        let ttft: Vec<f64> = timeline.iter().map(RequestTiming::ttft).collect();
        let tpot: Vec<f64> = timeline
            .iter()
            .filter(|t| t.output_len > 1)
            .map(RequestTiming::tpot)
            .collect();
        let e2e: Vec<f64> = timeline.iter().map(RequestTiming::e2e).collect();
        Some(LatencyStats {
            count: timeline.len(),
            ttft: LatencySummary::of(&ttft),
            tpot: LatencySummary::of(&tpot),
            e2e: LatencySummary::of(&e2e),
        })
    }
}

/// A latency service-level objective on TTFT and TPOT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Maximum acceptable time to first token, seconds.
    pub ttft_s: f64,
    /// Maximum acceptable time per output token, seconds.
    pub tpot_s: f64,
}

impl SloSpec {
    /// Whether one request met both objectives.
    pub fn met_by(&self, t: &RequestTiming) -> bool {
        t.ttft() <= self.ttft_s && t.tpot() <= self.tpot_s
    }

    /// Fraction of the timeline meeting the SLO (0.0 for an empty
    /// timeline).
    pub fn attainment(&self, timeline: &[RequestTiming]) -> f64 {
        if timeline.is_empty() {
            return 0.0;
        }
        let met = timeline.iter().filter(|t| self.met_by(t)).count();
        met as f64 / timeline.len() as f64
    }

    /// Goodput: SLO-meeting requests completed per second over
    /// `duration_s` (0.0 when no time elapsed).
    pub fn goodput_rps(&self, timeline: &[RequestTiming], duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            return 0.0;
        }
        timeline.iter().filter(|t| self.met_by(t)).count() as f64 / duration_s
    }
}

/// Serving metrics over one `[t0, t1)` slice of a timeline — the
/// per-window view a day-long autoscaling run is judged by.
///
/// A request is *attributed to the window its arrival falls in* for
/// attainment and latency (the user experienced that window's
/// congestion), and to the window its last token falls in for
/// goodput (work was delivered then). Windows with no arrivals carry
/// `None` — "no traffic" is not "0% attainment", and an all-`None`
/// quiet night must not drag a daily average down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMetrics {
    /// Window start, seconds (inclusive).
    pub t0: f64,
    /// Window end, seconds (exclusive).
    pub t1: f64,
    /// Requests arriving in the window.
    pub arrivals: usize,
    /// Requests completing in the window.
    pub completions: usize,
    /// Fraction of the window's arrivals meeting the SLO; `None`
    /// when nothing arrived.
    pub attainment: Option<f64>,
    /// SLO-meeting completions per second over the window.
    pub goodput_rps: f64,
    /// TTFT summary of the window's arrivals; `None` when nothing
    /// arrived.
    pub ttft: Option<LatencySummary>,
}

/// Slice `timeline` into consecutive `window_s`-second windows from
/// t = 0 and compute [`WindowMetrics`] per window. Windows extend to
/// `horizon_s` at least (trailing quiet windows included, so a
/// controller's window axis and the metric axis line up), and further
/// if any completion lands past the horizon. An empty timeline with a
/// positive horizon yields all-quiet windows; `window_s` must be
/// finite and positive.
pub fn windowed_metrics(
    timeline: &[RequestTiming],
    slo: SloSpec,
    window_s: f64,
    horizon_s: f64,
) -> Vec<WindowMetrics> {
    assert!(
        window_s.is_finite() && window_s > 0.0,
        "window length must be finite and > 0, got {window_s}"
    );
    assert!(
        horizon_s.is_finite() && horizon_s >= 0.0,
        "horizon must be finite and >= 0, got {horizon_s}"
    );
    let span = timeline
        .iter()
        .map(|t| t.completion_s)
        .fold(horizon_s, f64::max);
    let n_windows = (span / window_s).ceil() as usize;
    // A non-empty timeline always needs a window to land in, even
    // when every timestamp is 0 (span 0 would otherwise allocate
    // zero windows and the attribution below would index out of
    // bounds).
    let n_windows = n_windows.max(usize::from(span > 0.0 || !timeline.is_empty()));
    let idx = |t: f64| -> usize { ((t / window_s) as usize).min(n_windows.saturating_sub(1)) };
    let mut arrivals = vec![0usize; n_windows];
    let mut met_arrivals = vec![0usize; n_windows];
    let mut completions = vec![0usize; n_windows];
    let mut met_completions = vec![0usize; n_windows];
    let mut ttfts: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
    for t in timeline {
        let met = slo.met_by(t);
        let aw = idx(t.arrival_s);
        arrivals[aw] += 1;
        met_arrivals[aw] += usize::from(met);
        ttfts[aw].push(t.ttft());
        let cw = idx(t.completion_s);
        completions[cw] += 1;
        met_completions[cw] += usize::from(met);
    }
    (0..n_windows)
        .map(|w| WindowMetrics {
            t0: w as f64 * window_s,
            t1: (w + 1) as f64 * window_s,
            arrivals: arrivals[w],
            completions: completions[w],
            attainment: (arrivals[w] > 0)
                .then(|| met_arrivals[w] as f64 / arrivals[w] as f64),
            goodput_rps: met_completions[w] as f64 / window_s,
            ttft: LatencySummary::try_of(&ttfts[w]),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(id: u64, arrival: f64, first: f64, done: f64, out: usize) -> RequestTiming {
        RequestTiming {
            id,
            arrival_s: arrival,
            first_token_s: first,
            completion_s: done,
            output_len: out,
            attempts: 1,
        }
    }

    #[test]
    fn per_request_metrics() {
        let t = timing(0, 1.0, 1.5, 3.5, 5);
        assert!((t.ttft() - 0.5).abs() < 1e-12);
        assert!((t.tpot() - 0.5).abs() < 1e-12);
        assert!((t.e2e() - 2.5).abs() < 1e-12);
        // Single-token outputs have no inter-token gap.
        assert_eq!(timing(1, 0.0, 2.0, 2.0, 1).tpot(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank_n1() {
        assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[3.0], 100.0), Some(3.0));
    }

    #[test]
    fn percentile_nearest_rank_n2() {
        // rank = ceil(0.5 * 2) = 1 -> lower element.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        // rank = ceil(0.9 * 2) = 2 -> upper element.
        assert_eq!(percentile(&[1.0, 2.0], 90.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 100.0), Some(2.0));
    }

    #[test]
    fn percentile_handles_ties_and_unsorted_input() {
        let xs = [5.0, 1.0, 5.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 20.0), Some(1.0));
        assert_eq!(percentile(&xs, 99.0), Some(5.0));
        let all_same = [7.0; 9];
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&all_same, p), Some(7.0));
        }
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_p99_picks_tail_of_100() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_rejects_zero_p() {
        percentile(&[1.0], 0.0);
    }

    #[test]
    fn stats_from_timeline() {
        let tl = vec![
            timing(0, 0.0, 1.0, 2.0, 11),
            timing(1, 0.5, 1.0, 3.0, 21),
            timing(2, 1.0, 4.0, 4.0, 1),
        ];
        let s = LatencyStats::from_timeline(&tl).unwrap();
        assert_eq!(s.count, 3);
        // TTFTs: 1.0, 0.5, 3.0 -> p50 = 1.0, max = 3.0.
        assert_eq!(s.ttft.p50, 1.0);
        assert_eq!(s.ttft.max, 3.0);
        // TPOT excludes the single-token request: 0.1, 0.1.
        assert!((s.tpot.p50 - 0.1).abs() < 1e-12);
        assert!((s.tpot.mean - 0.1).abs() < 1e-12);
        assert!(LatencyStats::from_timeline(&[]).is_none());
    }

    #[test]
    fn try_of_distinguishes_empty_from_zero() {
        assert_eq!(LatencySummary::try_of(&[]), None);
        let s = LatencySummary::try_of(&[0.0, 0.0]).unwrap();
        assert_eq!(s.max, 0.0);
        // `of` keeps its legacy all-zero behaviour for empty input.
        assert_eq!(LatencySummary::of(&[]).p99, 0.0);
        assert_eq!(
            LatencySummary::of(&[1.0, 2.0]),
            LatencySummary::try_of(&[1.0, 2.0]).unwrap()
        );
    }

    #[test]
    fn windowed_metrics_attribute_by_arrival_and_completion() {
        let slo = SloSpec { ttft_s: 1.0, tpot_s: 0.2 };
        let tl = vec![
            timing(0, 0.5, 1.0, 1.5, 11),  // arrives w0, completes w0; ttft 0.5, tpot 0.05 -> met
            timing(1, 1.5, 4.0, 4.5, 11),  // arrives w0, completes w2; ttft 2.5 -> missed
            timing(2, 2.5, 3.0, 5.5, 11),  // arrives w1, completes w2; tpot 0.25 -> missed
        ];
        let ws = windowed_metrics(&tl, slo, 2.0, 6.0);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].arrivals, 2);
        assert_eq!(ws[0].attainment, Some(0.5));
        assert_eq!(ws[0].completions, 1);
        assert!((ws[0].goodput_rps - 0.5).abs() < 1e-12, "one met completion / 2 s");
        assert_eq!(ws[1].arrivals, 1);
        assert_eq!(ws[1].attainment, Some(0.0));
        assert_eq!(ws[2].arrivals, 0);
        assert_eq!(ws[2].attainment, None, "no arrivals is not 0% attainment");
        assert_eq!(ws[2].ttft, None);
        assert_eq!(ws[2].completions, 2);
        assert_eq!(ws[2].goodput_rps, 0.0, "both window-2 completions missed the SLO");
        // TTFT summary covers the window's arrivals only.
        let t0 = ws[0].ttft.unwrap();
        assert!((t0.max - 2.5).abs() < 1e-12);
        assert!((t0.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_metrics_edge_cases() {
        let slo = SloSpec { ttft_s: 1.0, tpot_s: 0.2 };
        // Empty timeline, positive horizon: all-quiet windows, no NaN.
        let ws = windowed_metrics(&[], slo, 10.0, 25.0);
        assert_eq!(ws.len(), 3);
        for w in &ws {
            assert_eq!(w.attainment, None);
            assert_eq!(w.ttft, None);
            assert_eq!(w.goodput_rps, 0.0);
        }
        // Empty timeline, zero horizon: no windows at all.
        assert!(windowed_metrics(&[], slo, 10.0, 0.0).is_empty());
        // Non-empty timeline whose every timestamp is 0 with a zero
        // horizon still gets one window (regression: this indexed out
        // of bounds).
        let zeroed = vec![timing(0, 0.0, 0.0, 0.0, 1)];
        let ws = windowed_metrics(&zeroed, slo, 10.0, 0.0);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].arrivals, 1);
        assert_eq!(ws[0].completions, 1);
        // Completions past the horizon extend the window axis.
        let tl = vec![timing(0, 1.0, 2.0, 99.0, 5)];
        let ws = windowed_metrics(&tl, slo, 10.0, 20.0);
        assert_eq!(ws.len(), 10);
        assert_eq!(ws[9].completions, 1);
        // A completion exactly on the last boundary clamps into the
        // final window instead of indexing out of bounds.
        let tl = vec![timing(0, 0.0, 1.0, 20.0, 5)];
        let ws = windowed_metrics(&tl, slo, 10.0, 20.0);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[1].completions, 1);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn windowed_metrics_rejects_bad_window() {
        windowed_metrics(&[], SloSpec { ttft_s: 1.0, tpot_s: 1.0 }, 0.0, 10.0);
    }

    #[test]
    fn slo_attainment_and_goodput() {
        let slo = SloSpec { ttft_s: 1.0, tpot_s: 0.2 };
        let tl = vec![
            timing(0, 0.0, 0.5, 1.5, 11),  // ttft 0.5, tpot 0.1 -> met
            timing(1, 0.0, 2.0, 3.0, 11),  // ttft 2.0 -> missed
            timing(2, 0.0, 1.0, 6.0, 11),  // tpot 0.5 -> missed
            timing(3, 1.0, 1.5, 1.5, 1),   // ttft 0.5, single token -> met
        ];
        assert!((slo.attainment(&tl) - 0.5).abs() < 1e-12);
        assert!((slo.goodput_rps(&tl, 4.0) - 0.5).abs() < 1e-12);
        assert_eq!(slo.attainment(&[]), 0.0);
        assert_eq!(slo.goodput_rps(&tl, 0.0), 0.0);
    }
}
