//! Inference engines running on the simulated cluster.
//!
//! Three engines share one substrate (`driver`):
//!
//! * [`vllm`] — the baseline: a static-parallelism engine with
//!   continuous batching and a choice of prefill-prioritizing,
//!   decode-prioritizing, or chunked-prefill scheduling (vLLM 0.5.4's
//!   policy family, per the paper's §6.1 baseline setup).
//! * [`seesaw`] — the paper's contribution: distinct prefill/decode
//!   parallelizations with dynamic model re-sharding, tiered CPU KV
//!   buffering, transition-minimizing scheduling, and the asynchronous
//!   swap pipeline of §5.2.
//! * [`disagg`] — a DistServe-style spatial prefill/decode
//!   disaggregation model, used for the §3.2 / Figure 4 analysis.
//!
//! Every engine consumes a [`seesaw_workload::Request`] set and
//! produces an [`EngineReport`] with end-to-end throughput (the
//! paper's metric) plus phase wall-times, transfer accounting, and a
//! per-request latency timeline (TTFT/TPOT/e2e percentiles).
//!
//! Requests may carry arrival times (`Request::arrival_s`, online
//! serving): engines only admit a request once the simulated clock
//! has reached its arrival, idle the cluster when the queue is empty,
//! and the recorded timeline then measures queueing + service latency
//! under load. All-zero arrivals reproduce the offline path exactly.
//!
//! # Simulation granularity
//!
//! Engines make scheduling decisions at *round* boundaries (one decode
//! round = one token for every running sequence). Between decisions
//! they submit task DAGs to the discrete-event simulator; pipeline
//! micro-batches chain across rounds through per-slot tails, so
//! pipeline-parallel configurations reach steady state without drain
//! bubbles between rounds. DP replicas transition in lockstep
//! (matching the paper's whole-cluster re-sharding).

pub mod actor;
pub mod autotune;
pub mod cluster_sim;
pub mod disagg;
pub mod driver;
pub mod online;
pub mod report;
pub mod seesaw;
pub mod stepper;
pub mod sweep;
pub mod timing;
pub mod vllm;

pub use actor::{finish_all, Depth, EngineActor};
pub use online::{OnlineEngine, ServiceRates};
pub use report::{EngineReport, Phase, PhaseSpan};
pub use stepper::EngineStepper;
pub use sweep::{SweepResult, SweepRunner};
pub use timing::TimingRecorder;

/// Scheduling policy for the static-parallelism baseline engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Eagerly prefill whenever KV space allows (vLLM default;
    /// maximizes batch size, pauses decodes during prefill passes).
    PrefillPrioritized,
    /// Finish every decode in the batch before prefilling the next
    /// batch (FasterTransformer-style; minimizes stage interleaving).
    DecodePrioritized,
    /// Sarathi-style chunked prefill: split prompts into fixed-size
    /// chunks and piggyback them on decode batches.
    ChunkedPrefill {
        /// Prefill tokens added to each mixed batch.
        chunk_tokens: usize,
    },
}

impl std::fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulingPolicy::PrefillPrioritized => write!(f, "prefill-prio"),
            SchedulingPolicy::DecodePrioritized => write!(f, "decode-prio"),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens } => {
                write!(f, "chunked({chunk_tokens})")
            }
        }
    }
}

#[cfg(test)]
mod hot_path_hygiene {
    /// Source-level guard for the per-simulation hot path: spec deep
    /// clones must not creep back into the engine run loops. `Arc`
    /// handle bumps are written `Arc::clone(..)`, so any textual
    /// `cluster.clone()` / `model.clone()` / `phases.clone()` in these
    /// files is a deep copy (or an accidental `Arc` clone spelled in a
    /// way this guard cannot distinguish from one — spell it
    /// `Arc::clone` instead).
    #[test]
    fn engine_run_paths_are_deep_clone_free() {
        let sources = [
            ("seesaw.rs", include_str!("seesaw.rs")),
            ("vllm.rs", include_str!("vllm.rs")),
            ("cluster_sim.rs", include_str!("cluster_sim.rs")),
            ("driver.rs", include_str!("driver.rs")),
        ];
        let forbidden = ["cluster.clone()", "model.clone()", "phases.clone()"];
        for (file, text) in sources {
            // Only the shipped hot path counts; unit tests below the
            // `#[cfg(test)]` marker may clone freely.
            let text = text.split("#[cfg(test)]").next().expect("non-empty source");
            for (lineno, line) in text.lines().enumerate() {
                for pat in forbidden {
                    assert!(
                        !line.contains(pat),
                        "{file}:{}: hot path contains `{pat}` — share the \
                         spec via Arc::clone instead of deep-cloning",
                        lineno + 1
                    );
                }
            }
        }
    }
}
