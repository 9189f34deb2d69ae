//! Per-request timestamp recording for engine runs.
//!
//! Engines know *which* task produces a request's first token (the
//! prefill pass / mixed round that finishes its prompt) and which one
//! produces its last (the decode burst it retires in) at submission
//! time, but the corresponding simulated timestamps only exist once
//! those tasks execute. [`TimingRecorder`] therefore stores
//! `(request id, task handle)` pairs during the run and resolves them
//! against the drained simulator at `finish`, yielding the
//! [`RequestTiming`] timeline the latency metrics are computed from.
//!
//! Timestamps are round-granular: a request's completion time is the
//! end of the decode burst (or mixed round) that retired it, matching
//! the engines' round-boundary scheduling model.

use seesaw_sim::{Simulator, TaskHandle};
use seesaw_workload::{RequestMap, RequestTiming};

/// Accumulates first-token / completion handles during a run.
#[derive(Debug, Default, Clone)]
pub struct TimingRecorder {
    first: Vec<(u64, TaskHandle)>,
    done: Vec<(u64, TaskHandle)>,
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

    /// Record that `task` produces request `id`'s first token.
    pub fn first_token(&mut self, id: u64, task: TaskHandle) {
        self.first.push((id, task));
    }

    /// Record that `task` produces request `id`'s last token.
    pub fn completed(&mut self, id: u64, task: TaskHandle) {
        self.done.push((id, task));
    }

    /// First-token records so far, in recording order (append-only,
    /// so a reader can resume from the length it last saw).
    pub fn first_tokens(&self) -> &[(u64, TaskHandle)] {
        &self.first
    }

    /// Completion records so far, in recording order (append-only).
    pub fn completions(&self) -> &[(u64, TaskHandle)] {
        &self.done
    }

    /// Resolve every recorded handle against the (fully drained)
    /// simulator into a timeline sorted by request id.
    pub fn resolve(mut self, sim: &Simulator, meta: &RequestMap) -> Vec<RequestTiming> {
        assert_eq!(
            self.first.len(),
            self.done.len(),
            "every request needs both a first-token and a completion record"
        );
        self.first.sort_unstable_by_key(|&(id, _)| id);
        self.done.sort_unstable_by_key(|&(id, _)| id);
        self.first
            .iter()
            .zip(&self.done)
            .map(|(&(id, first), &(done_id, done))| {
                assert_eq!(id, done_id, "timing streams out of sync at request {id}");
                let req = meta.req(id);
                let at = |h: TaskHandle| {
                    sim.completion_time(h)
                        .unwrap_or_else(|| panic!("timing task for request {id} never ran"))
                        .as_secs()
                };
                RequestTiming {
                    id,
                    arrival_s: req.arrival_s,
                    first_token_s: at(first),
                    completion_s: at(done),
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
    use seesaw_sim::{TaskKind, TaskSpec};
    use seesaw_workload::Request;

    #[test]
    fn resolves_sorted_timeline_from_out_of_order_records() {
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t1 = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        let t2 = sim.submit(TaskSpec::new(g, 2.0, TaskKind::Compute));
        sim.run_until_idle();

        let reqs = vec![
            Request::new(7, 100, 5).with_arrival(0.5),
            Request::new(3, 200, 1),
        ];
        let meta = RequestMap::new(&reqs);
        let mut rec = TimingRecorder::new();
        rec.first_token(7, t1);
        rec.completed(7, t2);
        rec.first_token(3, t2);
        rec.completed(3, t2);
        let timeline = rec.resolve(&sim, &meta);
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
        let mut sim = Simulator::new();
        let g = sim.add_resource("g");
        let t = sim.submit(TaskSpec::new(g, 1.0, TaskKind::Compute));
        sim.run_until_idle();
        let meta = RequestMap::new(&[]);
        let mut rec = TimingRecorder::new();
        rec.first_token(0, t);
        rec.resolve(&sim, &meta);
    }
}
