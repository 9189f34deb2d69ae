//! Latency summaries sort their samples with an unstable sort. Equal
//! finite samples have equal bits, so the sorted sequence, every
//! nearest-rank percentile and the in-order mean are those of a stable
//! sort, bit for bit. The samples drawn here are mostly ties: a few
//! distinct values, with zeros, among arbitrary ones.

use proptest::prelude::*;
use seesaw_workload::{percentile, LatencySummary};

/// The summary over a stable sort: the oracle.
fn stable_summary(xs: &[f64]) -> [f64; 5] {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = |p: f64| sorted[((p / 100.0) * sorted.len() as f64).ceil() as usize - 1];
    [
        sorted.iter().sum::<f64>() / sorted.len() as f64,
        rank(50.0),
        rank(90.0),
        rank(99.0),
        *sorted.last().expect("non-empty"),
    ]
}

fn bits(xs: [f64; 5]) -> [u64; 5] {
    xs.map(f64::to_bits)
}

/// Samples: a code below 6 picks one of six shared values (zero
/// included), anything else an arbitrary latency.
fn samples() -> impl Strategy<Value = Vec<f64>> {
    let sample = (0u32..9, 0u64..1 << 40).prop_map(|(code, raw)| match code {
        0..=5 => [0.0, 0.125, 0.1, 1.0 / 3.0, 2.5, 1e-7][code as usize],
        _ => raw as f64 * 1e-9,
    });
    prop::collection::vec(sample, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summaries_match_a_stable_sort_bit_for_bit(xs in samples()) {
        let s = LatencySummary::try_of(&xs).expect("non-empty");
        let oracle = stable_summary(&xs);
        prop_assert_eq!(bits([s.mean, s.p50, s.p90, s.p99, s.max]), bits(oracle));
        for (p, want) in [50.0, 90.0, 99.0, 100.0].into_iter().zip(&oracle[1..]) {
            prop_assert_eq!(percentile(&xs, p).map(f64::to_bits), Some(want.to_bits()));
        }
    }
}
