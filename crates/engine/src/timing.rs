//! Per-request timestamp recording for engine runs.
//!
//! Engines know *which* work produces a request's first token (the
//! prefill pass / mixed round that finishes its prompt) and which
//! produces its last (the decode burst it retires in) when they submit
//! it, and the simulator knows that work's end time at submission too.
//! [`TimingRecorder`] stores those times; `resolve` turns them into
//! the [`RequestTiming`] timeline the latency metrics are computed
//! from.
//!
//! Timestamps are round-granular: a request's completion time is the
//! end of the decode burst (or mixed round) that retired it, matching
//! the engines' round-boundary scheduling model.

use seesaw_sim::SimTime;
use seesaw_workload::{RequestMap, RequestTiming};

/// Accumulates first-token / completion times during a run, as
/// `(request id, time)` records in recording order.
#[derive(Debug, Default, Clone)]
pub struct TimingRecorder {
    first: Vec<(u64, SimTime)>,
    done: Vec<(u64, SimTime)>,
}

impl TimingRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder pre-sized for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        TimingRecorder {
            first: Vec::with_capacity(n),
            done: Vec::with_capacity(n),
        }
    }

    /// Record that request `id`'s first token appears at `at`.
    pub fn first_token(&mut self, id: u64, at: SimTime) {
        self.first.push((id, at));
    }

    /// Record that request `id`'s last token appears at `at`.
    pub fn completed(&mut self, id: u64, at: SimTime) {
        self.done.push((id, at));
    }

    /// First-token records so far, in recording order (append-only,
    /// so a reader can resume from the length it last saw).
    pub fn first_tokens(&self) -> &[(u64, SimTime)] {
        &self.first
    }

    /// Completion records so far, in recording order (append-only).
    pub fn completions(&self) -> &[(u64, SimTime)] {
        &self.done
    }

    /// Resolve every record into a timeline sorted by request id.
    pub fn resolve(self, meta: &RequestMap) -> Vec<RequestTiming> {
        let (mut first, mut done) = (self.first, self.done);
        assert_eq!(
            first.len(),
            done.len(),
            "every request needs both a first-token and a completion record"
        );
        first.sort_unstable_by_key(|&(id, _)| id);
        done.sort_unstable_by_key(|&(id, _)| id);
        first
            .iter()
            .zip(&done)
            .map(|(&(id, first), &(done_id, done))| {
                assert_eq!(id, done_id, "timing streams out of sync at request {id}");
                let req = meta.req(id);
                debug_assert!(
                    req.arrival_s <= first.as_secs() && first <= done,
                    "request {id} arrives at {}s, first token at {first}, completes at {done}",
                    req.arrival_s
                );
                RequestTiming {
                    id,
                    arrival_s: req.arrival_s,
                    first_token_s: first.as_secs(),
                    completion_s: done.as_secs(),
                    output_len: req.output_len,
                    attempts: 1,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_workload::Request;

    fn at(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn resolves_sorted_timeline_from_out_of_order_records() {
        let reqs = vec![
            Request::new(7, 100, 5).with_arrival(0.5),
            Request::new(3, 200, 1),
        ];
        let meta = RequestMap::new(&reqs);
        let mut rec = TimingRecorder::new();
        rec.first_token(7, at(1.0));
        rec.completed(7, at(3.0));
        rec.first_token(3, at(3.0));
        rec.completed(3, at(3.0));
        let timeline = rec.resolve(&meta);
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].id, 3, "timeline is id-sorted");
        assert_eq!(timeline[0].first_token_s, 3.0);
        assert_eq!(timeline[1].id, 7);
        assert_eq!(timeline[1].arrival_s, 0.5);
        assert_eq!(timeline[1].first_token_s, 1.0);
        assert_eq!(timeline[1].completion_s, 3.0);
        assert_eq!(timeline[1].output_len, 5);
    }

    #[test]
    #[should_panic(expected = "both a first-token and a completion")]
    fn unbalanced_records_are_rejected() {
        let meta = RequestMap::new(&[]);
        let mut rec = TimingRecorder::new();
        rec.first_token(0, at(1.0));
        rec.resolve(&meta);
    }
}
