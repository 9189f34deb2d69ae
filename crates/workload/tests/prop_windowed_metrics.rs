//! Property tests for [`windowed_metrics`], checked against
//! conservation invariants computed straight from the timeline — none
//! of them reuses the function's own window indexing or SLO test.

use proptest::prelude::*;
use seesaw_workload::{windowed_metrics, RequestTiming, SloSpec};

/// Deterministic uniform stream from a seed (SplitMix64).
fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// `n` random request timings over ~40 s. About one in ten arrivals
/// lands exactly on a window boundary, and with `zeros` every
/// timestamp is 0 (a non-empty timeline spanning no time).
fn random_timeline(n: usize, seed: u64, window_s: f64, zeros: bool) -> Vec<RequestTiming> {
    let mut u = unit_stream(seed);
    (0..n)
        .map(|i| {
            let arrival = u() * 40.0;
            let arrival = if u() < 0.1 { (arrival / window_s).round() * window_s } else { arrival };
            let ttft = u() * 3.0;
            let decode = u() * 5.0;
            let out = 1 + (u() * 30.0) as usize;
            let (arrival, ttft, decode) = if zeros { (0.0, 0.0, 0.0) } else { (arrival, ttft, decode) };
            RequestTiming {
                id: i as u64,
                arrival_s: arrival,
                first_token_s: arrival + ttft,
                completion_s: arrival + ttft + decode,
                output_len: out,
                attempts: 1,
            }
        })
        .collect()
}

/// Whether `t` met `slo`, from the raw timestamps.
fn met(t: &RequestTiming, slo: SloSpec) -> bool {
    let ttft = t.first_token_s - t.arrival_s;
    let tpot = if t.output_len > 1 {
        (t.completion_s - t.first_token_s) / (t.output_len - 1) as f64
    } else {
        0.0
    };
    ttft <= slo.ttft_s && tpot <= slo.tpot_s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every request is counted once as an arrival and once as a
    /// completion; goodput and attainment integrate back to the
    /// number of SLO-meeting requests; quiet windows carry `None`
    /// rather than a fabricated 0; and the axis covers the horizon
    /// and every completion.
    #[test]
    fn windows_conserve_requests_and_cover_the_axis(
        n in 0usize..250,
        seed in 0u64..1_000,
        window_s in prop::sample::select(vec![0.5f64, 2.0, 10.0]),
        horizon_mult in prop::sample::select(vec![0.0f64, 0.5, 1.0, 2.5]),
        zeros in prop::sample::select(vec![false, false, false, true]),
        slo_ttft in prop::sample::select(vec![0.0f64, 1.5, 10.0]),
    ) {
        let timeline = random_timeline(n, seed, window_s, zeros);
        let slo = SloSpec { ttft_s: slo_ttft, tpot_s: 0.2 };
        let horizon_s = horizon_mult * 20.0;
        let windows = windowed_metrics(&timeline, slo, window_s, horizon_s);

        let met_count = timeline.iter().filter(|t| met(t, slo)).count();
        let arrivals: usize = windows.iter().map(|w| w.arrivals).sum();
        let completions: usize = windows.iter().map(|w| w.completions).sum();
        prop_assert_eq!(arrivals, timeline.len());
        prop_assert_eq!(completions, timeline.len());

        let delivered: f64 = windows.iter().map(|w| w.goodput_rps * window_s).sum();
        prop_assert!(
            (delivered - met_count as f64).abs() < 1e-6,
            "goodput integrates to {} but {} requests met the SLO", delivered, met_count
        );
        let attained: f64 = windows
            .iter()
            .filter_map(|w| w.attainment.map(|a| a * w.arrivals as f64))
            .sum();
        prop_assert!((attained - met_count as f64).abs() < 1e-6);

        for w in &windows {
            prop_assert_eq!(w.attainment.is_none(), w.arrivals == 0, "window [{}, {})", w.t0, w.t1);
            prop_assert_eq!(w.ttft.is_none(), w.arrivals == 0, "window [{}, {})", w.t0, w.t1);
            if let Some(s) = w.ttft {
                prop_assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
            }
        }

        let last_completion = timeline.iter().map(|t| t.completion_s).fold(0.0, f64::max);
        let span = horizon_s.max(last_completion);
        let expected = ((span / window_s).ceil() as usize).max(usize::from(!timeline.is_empty()));
        prop_assert_eq!(windows.len(), expected);
        for (i, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.t0, i as f64 * window_s);
            prop_assert_eq!(w.t1, (i + 1) as f64 * window_s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Window refinement: doubling the width merges adjacent pairs.
    /// Windows `2k` and `2k+1` at width `w` hold exactly the arrivals
    /// and completions of window `k` at width `2w`, and the count at
    /// `2w` is the count at `w` halved and rounded up. Widths span four
    /// decades, and about one arrival in ten lands on a boundary of
    /// the `w` axis (every other one is a boundary of the `2w` axis).
    #[test]
    fn doubling_the_window_merges_adjacent_pairs(
        n in 0usize..200,
        seed in 0u64..1_000,
        log_w in -1.5f64..2.5,
        horizon_s in 0.0f64..150.0,
        zeros in prop::sample::select(vec![false, false, false, true]),
    ) {
        let w = 10f64.powf(log_w);
        let timeline = random_timeline(n, seed, w, zeros);
        let slo = SloSpec { ttft_s: 1.5, tpot_s: 0.2 };
        let fine = windowed_metrics(&timeline, slo, w, horizon_s);
        let coarse = windowed_metrics(&timeline, slo, 2.0 * w, horizon_s);
        prop_assert_eq!(coarse.len(), fine.len().div_ceil(2), "w = {}", w);
        for (k, c) in coarse.iter().enumerate() {
            let pair = &fine[2 * k..(2 * k + 2).min(fine.len())];
            let arrivals: usize = pair.iter().map(|f| f.arrivals).sum();
            let completions: usize = pair.iter().map(|f| f.completions).sum();
            prop_assert_eq!(c.arrivals, arrivals, "window {} at w = {}", k, w);
            prop_assert_eq!(c.completions, completions, "window {} at w = {}", k, w);
        }
    }
}
