//! Request-stream splitting and timeline merging for multi-replica
//! (fleet) serving.
//!
//! A fleet router walks one global arrival-sorted stream and assigns
//! each request to a replica; [`split_stream`] materializes the
//! per-replica streams. Splitting is *order-preserving*, so every
//! subsequence of an arrival-sorted stream is itself arrival-sorted —
//! the invariant the engines' `assert_arrivals_sorted` guard enforces
//! at admission (and the property `tests/prop_stream.rs` exercises
//! over random traces).
//!
//! After each replica runs, [`merge_timelines`] moves the per-replica
//! [`RequestTiming`] timelines into one fleet-level timeline (id-sorted,
//! matching the single-engine report convention) for aggregate
//! latency/SLO statistics, plus the replica each entry came from. The
//! per-replica timelines are consumed, so each timing is kept once.

use crate::latency::RequestTiming;
use crate::request::Request;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Split `reqs` into `n_streams` per-replica streams according to
/// `assignment` (parallel to `reqs`; values in `[0, n_streams)`).
/// Relative order within each stream matches the global stream, so
/// arrival-sortedness is preserved per replica.
pub fn split_stream(reqs: &[Request], assignment: &[u32], n_streams: usize) -> Vec<Vec<Request>> {
    assert_eq!(
        reqs.len(),
        assignment.len(),
        "assignment must cover every request"
    );
    let mut streams: Vec<Vec<Request>> = vec![Vec::new(); n_streams];
    for (r, &a) in reqs.iter().zip(assignment) {
        let a = a as usize;
        assert!(
            a < n_streams,
            "assignment {a} out of range for {n_streams} replicas"
        );
        streams[a].push(*r);
    }
    streams
}

/// Merge per-replica timelines, each id-sorted, into one id-sorted
/// fleet timeline of exact capacity, returned with a parallel vector of
/// the index of the part each entry came from. The parts are consumed:
/// a lone part is the timeline (moved, not copied, unless it has spare
/// capacity), and several are k-way merged, which moves every timing
/// once and frees each part as soon as it is used up. Ids must be
/// globally unique (they came from one request stream): a repeated id,
/// or a part out of id order, panics.
pub fn merge_timelines<I>(parts: I) -> (Vec<RequestTiming>, Vec<u32>)
where
    I: IntoIterator<Item = Vec<RequestTiming>>,
{
    let mut runs: Vec<std::vec::IntoIter<RequestTiming>> =
        parts.into_iter().map(Vec::into_iter).collect();
    if let [run] = runs.as_mut_slice() {
        // Collecting an untouched `IntoIter` hands back its buffer.
        let mut lone: Vec<RequestTiming> = std::mem::take(run).collect();
        lone.shrink_to_fit();
        for w in lone.windows(2) {
            assert_id_order(&w[0], &w[1], 0);
        }
        let source = vec![0; lone.len()];
        return (lone, source);
    }
    let total = runs.iter().map(ExactSizeIterator::len).sum();
    let mut merged: Vec<RequestTiming> = Vec::with_capacity(total);
    let mut source = Vec::with_capacity(total);
    // Min-heap of every unfinished part's next id.
    let head = |run: &std::vec::IntoIter<RequestTiming>, part: u32| {
        run.as_slice().first().map(|t| Reverse((t.id, part)))
    };
    let mut heads: BinaryHeap<Reverse<(u64, u32)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(part, run)| head(run, part as u32))
        .collect();
    while let Some(Reverse((_, part))) = heads.pop() {
        let run = &mut runs[part as usize];
        let t = run.next().expect("a queued part has a next timing");
        if let Some(last) = merged.last() {
            assert_id_order(last, &t, part);
        }
        merged.push(t);
        source.push(part);
        match head(run, part) {
            Some(next) => heads.push(next),
            None => *run = Vec::new().into_iter(),
        }
    }
    (merged, source)
}

/// Panics unless `next`, taken from part `part`, follows `last` in
/// strictly increasing id order.
fn assert_id_order(last: &RequestTiming, next: &RequestTiming, part: u32) {
    assert!(
        last.id != next.id,
        "duplicate request id {} across replica timelines",
        next.id
    );
    assert!(last.id < next.id, "replica timeline {part} is not id-sorted");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_order_and_partitions() {
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(i, 100, 10).with_arrival(i as f64 * 0.5))
            .collect();
        let assignment: Vec<u32> = (0..10).map(|i| i % 3).collect();
        let streams = split_stream(&reqs, &assignment, 3);
        assert_eq!(streams.iter().map(Vec::len).sum::<usize>(), 10);
        for s in &streams {
            assert!(
                s.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
                "split streams must stay arrival-sorted"
            );
        }
        assert_eq!(streams[0].iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 3, 6, 9]);
    }

    #[test]
    fn empty_streams_are_fine() {
        let reqs = vec![Request::new(0, 10, 1)];
        let streams = split_stream(&reqs, &[2], 4);
        assert_eq!(streams[2].len(), 1);
        assert!(streams[0].is_empty() && streams[1].is_empty() && streams[3].is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_assignment_rejected() {
        split_stream(&[Request::new(0, 10, 1)], &[1], 1);
    }

    fn t(id: u64) -> RequestTiming {
        RequestTiming {
            id,
            arrival_s: 0.0,
            first_token_s: 1.0,
            completion_s: 2.0,
            output_len: 4,
            attempts: 1,
        }
    }

    #[test]
    fn merge_sorts_by_id() {
        let (merged, source) = merge_timelines([vec![t(3), t(5)], vec![t(0), t(4)]]);
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![0, 3, 4, 5]);
        assert_eq!(source, vec![1, 0, 1, 0]);
        assert_eq!(merged.capacity(), 4, "exact capacity");
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn merge_rejects_duplicate_ids() {
        merge_timelines([vec![t(3)], vec![t(3)]]);
    }

    #[test]
    #[should_panic(expected = "not id-sorted")]
    fn merge_rejects_unsorted_parts() {
        merge_timelines([vec![t(5), t(3)], vec![t(4)]]);
    }

    #[test]
    fn a_lone_part_is_moved_whole() {
        let part = vec![t(0), t(2), t(7)];
        let at = part.as_ptr();
        let (merged, source) = merge_timelines([part]);
        assert_eq!(merged.as_ptr(), at, "the part's buffer, not a copy");
        assert_eq!(merged.iter().map(|x| x.id).collect::<Vec<_>>(), vec![0, 2, 7]);
        assert_eq!(source, vec![0, 0, 0]);
        let (empty, none) = merge_timelines([Vec::new()]);
        assert!(empty.is_empty() && none.is_empty());
    }

    #[test]
    #[should_panic(expected = "replica timeline 0 is not id-sorted")]
    fn a_lone_unsorted_part_is_rejected() {
        merge_timelines([vec![t(5), t(3)]]);
    }

    #[test]
    #[should_panic(expected = "duplicate request id 4")]
    fn a_lone_part_with_a_repeated_id_is_rejected() {
        merge_timelines([vec![t(4), t(4)]]);
    }
}
