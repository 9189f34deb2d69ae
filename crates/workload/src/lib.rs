//! Workload generation and run metrics.
//!
//! The paper evaluates on two datasets whose *length distributions*
//! (Figure 9) are what actually drive throughput behaviour:
//!
//! * `sharegpt` — chat histories; inputs and outputs of comparable,
//!   few-hundred-token length.
//! * `arxiv-summarization` — long documents (thousands of tokens) with
//!   short summaries.
//!
//! Since token *values* are irrelevant to a performance study, this
//! crate generates synthetic requests whose input/output length
//! marginals match those shapes (clipped lognormals), plus the
//! constant-length workloads of §6.5. All generators are seeded and
//! deterministic.

pub mod arrival;
pub mod envelope;
pub mod gen;
pub mod latency;
pub mod metrics;
pub mod request;
pub mod stream;

pub use arrival::{ArrivalDist, ArrivalSampler};
pub use envelope::{load_trace_file, parse_trace, unit_rate_pattern, RateEnvelope};
pub use gen::{LengthDist, WorkloadGen, ARRIVAL_SEED_SALT};
pub use latency::{
    percentile, windowed_metrics, LatencyStats, LatencySummary, RequestTiming, SloSpec,
    WindowMetrics,
};
pub use metrics::RunStats;
pub use request::{LengthStats, Request, RequestMap};
pub use stream::{merge_timelines, split_stream};
