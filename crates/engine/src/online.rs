//! The engine-agnostic online-serving interface.
//!
//! Every engine in this crate ([`crate::seesaw::SeesawEngine`],
//! [`crate::vllm::VllmEngine`], [`crate::disagg::DisaggEngine`])
//! consumes an arrival-sorted request stream and produces an
//! [`EngineReport`]; [`OnlineEngine`] captures exactly that contract
//! so harnesses — and the fleet tier's replicas — can hold engines as
//! trait objects and mix backends freely.
//!
//! Cost-aware request routers additionally need a cheap *a-priori*
//! estimate of what a request will cost on a given engine, without
//! reading any simulated state. [`ServiceRates`] provides that: analytic
//! roofline-derived token rates (the same Eq. 1/2 closed forms the
//! auto-tuner ranks candidates with), from which a request's
//! steady-state capacity occupancy is `in/prefill_rate +
//! out/decode_rate` seconds.

use crate::actor::EngineActor;
use crate::report::EngineReport;
use crate::stepper::EngineStepper;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::ParallelConfig;
use seesaw_roofline::{Roofline, ThroughputModel};
use seesaw_workload::{LatencyStats, Request, RequestMap};
use std::sync::Arc;

/// Analytic steady-state service rates of an engine, for cost-aware
/// routing. Derived from the roofline model (Eq. 1/2), not measured:
/// estimated routing policies rank replicas without reading any
/// simulated state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRates {
    /// Sustained prefill rate, prompt tokens/second.
    pub prefill_tokens_per_sec: f64,
    /// Sustained decode rate, generated tokens/second (aggregate
    /// across the batch — a request's decode occupancy is its share
    /// of this budget).
    pub decode_tokens_per_sec: f64,
}

impl ServiceRates {
    /// Estimated capacity occupancy of one request, seconds: the
    /// slice of the engine's steady-state throughput budget the
    /// request consumes (prefill and decode phases add, as in the
    /// paper's Eq. 1/2 request-rate estimate).
    pub fn est_service_s(&self, req: &Request) -> f64 {
        req.input_len as f64 / self.prefill_tokens_per_sec
            + req.output_len as f64 / self.decode_tokens_per_sec
    }
}

/// The roofline service rates of prefilling under `prefill` and
/// decoding under `decode` on one cluster: a static engine passes its
/// one config twice. A Seesaw pair's phases time-share the same GPUs,
/// so its two rates bound the same budget a static engine's do (cf.
/// Eq. 1/2's request-rate estimate for a Seesaw pair). Both configs
/// must fit.
pub(crate) fn roofline_rates(
    cluster: &Arc<ClusterSpec>,
    model: &Arc<ModelConfig>,
    prefill: ParallelConfig,
    decode: ParallelConfig,
    avg_in: usize,
    avg_out: usize,
) -> ServiceRates {
    let tm = ThroughputModel::new(Roofline::new(Arc::clone(cluster), Arc::clone(model)));
    let avg_ctx = ThroughputModel::decode_context(avg_in, avg_out);
    ServiceRates {
        prefill_tokens_per_sec: tm.prefill_tokens_per_sec(prefill, avg_in.max(1)),
        decode_tokens_per_sec: tm
            .decode_seq_steps_per_sec_max_batch(decode, avg_ctx)
            .expect("decode config validated at construction"),
    }
}

/// An engine that serves an arrival-sorted request stream to
/// completion.
///
/// Implementations must be deterministic: the same request slice
/// always produces the same report, and `run` must accept streams
/// whose `arrival_s` are nondecreasing (all-zero arrivals are the
/// offline path). `Send + Sync` because fleet replicas run
/// concurrently on a [`crate::SweepRunner`].
pub trait OnlineEngine: Send + Sync {
    /// Configuration label (the paper's notation where applicable,
    /// e.g. `"T4P2"`, `"P4->T4"`).
    fn label(&self) -> String;

    /// Process `requests` (sorted by arrival time) to completion.
    fn run(&self, requests: &[Request]) -> EngineReport;

    /// Analytic service rates for a workload averaging `avg_in`
    /// prompt and `avg_out` generated tokens — the basis for
    /// cost-aware routing (`in/prefill + out/decode` seconds per
    /// request).
    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates;

    /// [`OnlineEngine::run`], plus the report's per-kind busy totals
    /// ([`EngineReport::busy_by_kind`]).
    fn run_traced(&self, requests: &[Request]) -> (EngineReport, seesaw_sim::TraceSummary) {
        let report = self.run(requests);
        let busy = report.busy_by_kind;
        (report, busy)
    }

    /// [`OnlineEngine::run`] for a replica that only becomes ready
    /// (weights loaded) at `ready_s` seconds: requests arriving
    /// earlier wait — their *dispatch* is clamped to `ready_s`, riding
    /// the engines' existing arrival-gated admission control — but the
    /// returned timeline keeps the **true** arrival times, so TTFT and
    /// end-to-end latency include the warm-up wait. Per-request TTFT
    /// under a later `ready_s` therefore never decreases: delayed
    /// requests start no earlier, and requests behind them inherit the
    /// longer backlog.
    ///
    /// `ready_s <= ` the first arrival returns `run` byte-for-byte (a
    /// warm replica's report is unchanged). The autoscale
    /// controller's router never assigns traffic to a warming
    /// replica, so for router-assigned streams this method *is*
    /// `run` — the clamp is the engine-level guard of the same
    /// contract for streams assembled without the router.
    fn run_ready(&self, requests: &[Request], ready_s: f64) -> EngineReport {
        assert!(
            ready_s.is_finite() && ready_s >= 0.0,
            "replica ready time must be finite and non-negative, got {ready_s}"
        );
        // Arrivals are sorted, so the first one is the earliest.
        if requests.first().is_none_or(|r| r.arrival_s >= ready_s) {
            return self.run(requests);
        }
        let clamped: Vec<Request> = requests
            .iter()
            .map(|r| r.with_arrival(r.arrival_s.max(ready_s)))
            .collect();
        let mut report = self.run(&clamped);
        let true_arrivals = RequestMap::new(requests);
        for t in &mut report.timeline {
            t.arrival_s = true_arrivals.req(t.id).arrival_s;
        }
        report.latency = LatencyStats::from_timeline(&report.timeline);
        report
    }

    /// An [`EngineActor`] for one replica that becomes ready at
    /// `ready_s`: routed requests are pushed one at a time, live state
    /// is read between pushes, and `finish` returns
    /// `run_ready(stream, ready_s)` of everything pushed.
    ///
    /// The default replays the assigned prefix on every state read
    /// ([`EngineStepper`]) — correct for any engine, quadratic in the
    /// stream. The vLLM and Seesaw engines override it with actors
    /// that simulate each replica once ([`crate::actor`]).
    fn actor(&self, ready_s: f64) -> Box<dyn EngineActor + '_> {
        Box::new(EngineStepper::new(self, ready_s))
    }
}

/// Mean input/output lengths of a request set, rounded, each at least
/// 1 (the convention every analytic estimate in this workspace uses).
/// `(1, 1)` for an empty set.
pub fn mean_lengths(requests: &[Request]) -> (usize, usize) {
    if requests.is_empty() {
        return (1, 1);
    }
    let n = requests.len() as f64;
    let avg_in = requests.iter().map(|r| r.input_len as u64).sum::<u64>() as f64 / n;
    let avg_out = requests.iter().map(|r| r.output_len as u64).sum::<u64>() as f64 / n;
    ((avg_in.round() as usize).max(1), (avg_out.round() as usize).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_adds_phases() {
        let rates = ServiceRates {
            prefill_tokens_per_sec: 1000.0,
            decode_tokens_per_sec: 100.0,
        };
        let req = Request::new(0, 500, 50);
        assert!((rates.est_service_s(&req) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_lengths_round_and_clamp() {
        assert_eq!(mean_lengths(&[]), (1, 1));
        let reqs = vec![Request::new(0, 100, 10), Request::new(1, 301, 11)];
        assert_eq!(mean_lengths(&reqs), (201, 11)); // 200.5 rounds up, 10.5 rounds up
    }
}
