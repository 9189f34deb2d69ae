//! Property tests for fleet stream splitting: an arrival-sorted
//! global stream split by *any* assignment stays arrival-sorted per
//! replica (order preservation), partitions exactly, and merges back
//! losslessly — so a router can never trip the engines'
//! `assert_arrivals_sorted` guard. The owned k-way timeline merge is
//! checked against concatenate-then-stable-sort, kept here as the
//! oracle.

use proptest::prelude::*;
use seesaw_workload::{merge_timelines, split_stream, ArrivalDist, Request, RequestTiming};

/// Random nondecreasing arrival trace of `n` requests.
fn traced_requests(n: usize, seed: u64, rate: f64, cv: f64) -> Vec<Request> {
    let base: Vec<Request> = (0..n).map(|i| Request::new(i as u64, 64, 8)).collect();
    ArrivalDist::Gamma { rate, cv }
        .attach(&base, seed)
        .expect("valid arrival process")
}

/// The merge as it was before it took ownership: concatenate the
/// parts, stable-sort by id, reject repeated ids; each entry tagged
/// with its part.
fn concat_sort_merge(parts: &[Vec<RequestTiming>]) -> (Vec<RequestTiming>, Vec<u32>) {
    let mut tagged: Vec<(RequestTiming, u32)> = parts
        .iter()
        .enumerate()
        .flat_map(|(i, part)| part.iter().map(move |t| (*t, i as u32)))
        .collect();
    tagged.sort_by_key(|(t, _)| t.id);
    for w in tagged.windows(2) {
        assert!(w[0].0.id != w[1].0.id, "duplicate request id {}", w[0].0.id);
    }
    tagged.into_iter().unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any assignment of an arrival-sorted stream yields per-replica
    /// streams that are themselves arrival-sorted and partition the
    /// input exactly.
    #[test]
    fn split_streams_stay_arrival_sorted(
        n in 1usize..200,
        n_replicas in 1usize..9,
        seed in 0u64..1000,
        rate in 0.1f64..50.0,
        cv in 0.1f64..4.0,
        assign_seed in 0u64..1000,
    ) {
        let reqs = traced_requests(n, seed, rate, cv);
        prop_assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // Arbitrary assignment, independent of the arrivals.
        let mut x = assign_seed.wrapping_mul(2).wrapping_add(1);
        let assignment: Vec<u32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as usize % n_replicas) as u32
            })
            .collect();
        let streams = split_stream(&reqs, &assignment, n_replicas);
        prop_assert_eq!(streams.len(), n_replicas);
        prop_assert_eq!(streams.iter().map(Vec::len).sum::<usize>(), n);
        for (r, s) in streams.iter().enumerate() {
            prop_assert!(
                s.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
                "replica {} stream lost arrival order", r
            );
            for req in s {
                let replica = assignment[req.id as usize] as usize;
                prop_assert_eq!(replica, r, "request on the wrong replica");
            }
        }
    }

    /// Splitting then merging per-replica timelines reproduces every
    /// request exactly once, id-sorted.
    #[test]
    fn split_then_merge_is_lossless(
        n in 1usize..150,
        n_replicas in 1usize..6,
        seed in 0u64..500,
    ) {
        let reqs = traced_requests(n, seed, 2.0, 1.0);
        let assignment: Vec<u32> = (0..n).map(|i| (i % n_replicas) as u32).collect();
        let streams = split_stream(&reqs, &assignment, n_replicas);
        let timelines: Vec<Vec<RequestTiming>> = streams
            .iter()
            .map(|s| {
                s.iter()
                    .map(|r| RequestTiming {
                        id: r.id,
                        arrival_s: r.arrival_s,
                        first_token_s: r.arrival_s + 0.1,
                        completion_s: r.arrival_s + 1.0,
                        output_len: r.output_len,
                        attempts: 1,
                    })
                    .collect()
            })
            .collect();
        let (merged, served_by) = merge_timelines(timelines);
        prop_assert_eq!(merged.len(), n);
        for (i, t) in merged.iter().enumerate() {
            prop_assert_eq!(t.id, i as u64, "merged timeline must be id-sorted and complete");
            prop_assert_eq!(served_by[i], assignment[i], "entry tagged with its replica");
        }
    }

    /// The k-way merge equals concatenate + stable sort, timings and
    /// source parts alike, over sparse unique ids spread unevenly
    /// across parts (some empty), and its timeline has exact capacity.
    #[test]
    fn kway_merge_matches_concat_and_stable_sort(
        n in 0usize..300,
        n_parts in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let mut x = seed.wrapping_mul(2).wrapping_add(1);
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        // Only the first `used` parts receive requests.
        let used = 1 + next() as usize % n_parts;
        let mut parts: Vec<Vec<RequestTiming>> = vec![Vec::new(); n_parts];
        let mut id = 0u64;
        for _ in 0..n {
            id += 1 + next() % 4;
            let arrival_s = next() as f64 * 1e-6;
            parts[next() as usize % used].push(RequestTiming {
                id,
                arrival_s,
                first_token_s: arrival_s + 0.25,
                completion_s: arrival_s + 1.0 + (id % 5) as f64,
                output_len: 1 + id as usize % 17,
                attempts: 1 + (id % 3) as u32,
            });
        }
        let oracle = concat_sort_merge(&parts);
        let (merged, served_by) = merge_timelines(parts);
        prop_assert_eq!(merged.capacity(), n);
        prop_assert_eq!(&merged, &oracle.0);
        prop_assert_eq!(&served_by, &oracle.1);
    }
}
