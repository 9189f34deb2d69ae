//! Discrete-event simulation engine.
//!
//! This crate is the stand-in for the physical GPU cluster: a
//! deterministic simulator of FIFO-serving *resources* (a GPU's
//! compute engine, each direction of its PCIe link, the host staging
//! engine) on which *tasks* of known duration execute. Engines submit
//! tasks with dependencies; the simulator keeps the clock, resolves
//! contention, and sums busy time per resource and per [`TaskKind`]
//! (the `fleet --breakdown` table). The paper's breakdown figures come
//! from elsewhere: Figure 1 from the roofline's per-pass attribution,
//! Figure 12 from end-to-end runs.
//!
//! Design notes:
//!
//! * Time is `f64` seconds wrapped in [`SimTime`] for total ordering.
//! * Every resource serves its work in submission order, so the
//!   [`Simulator`] is an eager list scheduler: a task's completion time
//!   is computed when it is submitted and is its handle. There is no
//!   event heap and nothing kept per task, and runs are exactly
//!   reproducible.
//! * The simulator knows nothing about LLMs; durations are computed by
//!   callers (`seesaw-roofline`, the engines) from the hardware cost
//!   models.
//! * Work whose schedule the caller computes itself is charged straight
//!   into a borrowed [`Block`] of resources: the engines' fused decode
//!   passes (prefill batches, decode bursts, mixed rounds) add each
//!   stage interval to their GPUs' busy counters and the per-kind
//!   totals, and mark each GPU busy once, at the end of its last
//!   interval.
//! * [`EventQueue`] holds the autoscale controller's pending
//!   redispatches (retries and resumes) in time order, ties in push
//!   order.

pub mod events;
pub mod executor;
pub mod resource;
pub mod time;
pub mod trace;

pub use events::EventQueue;
pub use executor::{Block, Simulator};
pub use resource::{ResourceId, ResourcePool};
pub use time::SimTime;
pub use trace::{TaskKind, TraceSummary};
