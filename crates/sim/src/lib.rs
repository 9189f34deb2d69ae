//! Discrete-event simulation engine.
//!
//! This crate is the stand-in for the physical GPU cluster: a
//! deterministic discrete-event simulator with FIFO-serving
//! *resources* (a GPU's compute engine, each direction of its PCIe
//! link, the host staging engine, the collective fabric) on which
//! *tasks* of known duration execute. Engines submit tasks with
//! dependencies; the simulator advances virtual time, resolves
//! contention, and records a trace from which the paper's time
//! breakdowns (Figures 1 and 12) are derived.
//!
//! Design notes:
//!
//! * Time is `f64` seconds wrapped in [`SimTime`] for total ordering.
//! * Determinism: events at equal times are served in submission
//!   order (a monotonically increasing sequence number breaks ties),
//!   so simulations are exactly reproducible.
//! * The simulator knows nothing about LLMs; durations are computed by
//!   callers (`seesaw-roofline`, the engines) from the hardware cost
//!   models.
//! * Memory follows the work in flight: [`Simulator::retire`] drops
//!   finished tasks, so a long run holds only the tasks between the
//!   oldest unfinished (or still needed) one and the newest.
//! * Work whose schedule is analytic need not enter the event heap:
//!   [`Simulator::record_service`] charges a caller-computed service
//!   interval to a group of resources, and [`Simulator::submit_at`]
//!   is a marker task that completes at an absolute time (the
//!   engines' fused decode bursts).

pub mod events;
pub mod executor;
pub mod resource;
pub mod time;
pub mod trace;

pub use events::EventQueue;
pub use executor::{SmallList, Simulator, TaskHandle, TaskSpec};
pub use resource::{ResourceId, ResourcePool};
pub use time::SimTime;
pub use trace::{Span, TaskKind, Trace, TraceSummary};
