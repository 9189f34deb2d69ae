//! Elastic tier: trace-driven elastic fleets, with and without
//! seeded failures.
//!
//! PR 4's `crates/fleet` answered "how does a *fixed* fleet of N
//! replicas behave under load?"; this crate answers the elastic
//! question a capacity planner actually asks: **how many replicas do
//! you need over a day, what does each scaling policy cost in SLO
//! attainment, and how much of it survives replicas dying mid-day?**
//! It is the next level of the first-principles
//! "model the infrastructure, then sweep the policy space"
//! methodology — one tier above the fleet, two above the engine:
//!
//! * [`AutoscaleController`] replays a day-scale arrival trace (see
//!   [`seesaw_workload::RateEnvelope`] for diurnal/bimodal trace
//!   generation) through a time-sliced elastic fleet: per control
//!   window it routes arrivals over the currently-accepting replicas
//!   on the fleet tier's router, observes its signals (queue depth,
//!   offered load, estimated utilization/attainment),
//!   and lets a [`ScalingPolicy`] grow or shrink the fleet — new
//!   replicas pay a warm-up (weight-load) delay before accepting
//!   traffic, retiring replicas drain their in-flight work before
//!   disappearing and are billed through the drain.
//! * [`ScalingPolicy`] is pluggable: a [`ScalingPolicy::Static`]
//!   baseline (provision-for-peak / provision-for-mean),
//!   [`ScalingPolicy::ReactiveThreshold`] (queue-depth/attainment
//!   bounds with hysteresis and cooldown), and
//!   [`ScalingPolicy::TargetUtilization`] (the classic
//!   utilization-tracking autoscaler).
//! * [`faults`] adds failure injection on top: a seeded [`FaultPlan`]
//!   resolves to a [`FaultSchedule`] that kills replicas (or whole
//!   groups) mid-trace, lost attempts are requeued under the
//!   [`RecoverySpec`]'s [`RetryPolicy`], replacement spawns restore
//!   the desired count, and [`AvailabilityStats`] accounts for every
//!   offered request. The controller has one entry point,
//!   [`AutoscaleController::run_with`], and a fault-free day is that
//!   replay under [`FaultSchedule::none`] — one code path.
//! * [`sweep::elastic_sweep_with`] runs trace × fault × recovery grids
//!   and tabulates billed replica-seconds against measured SLO
//!   attainment and availability — one [`ElasticFrontier`] per trace.
//!   The `autoscale` bin's cost-vs-SLO frontier is that sweep with the
//!   fault roster `{none}`; the `chaos` bin's availability frontier
//!   crosses seeded fault plans with recovery postures.
//!
//! Everything is deterministic and runner-invariant: the decision
//! trajectory is causal and serial; only the final per-replica engine
//! simulations parallelize. A Static trajectory reproduces the fixed
//! [`seesaw_fleet::Fleet`] of the same size byte-for-byte, so the
//! elastic tier nests the static one exactly.

pub mod alert;
pub mod controller;
pub mod faults;
mod plan;
pub mod policy;
pub mod sweep;

pub use alert::{score_detection, AlertEngine, AlertEvent, AlertKind, AlertRule, DetectionScore};
pub use controller::{
    base_windows, AutoscaleConfig, AutoscaleController, ElasticFleetReport, ReplicaLifecycle,
    ScaleEvent, WindowSignals,
};
pub use faults::{
    AvailabilityStats, FailureEvent, FaultEvent, FaultKind, FaultPlan, FaultSchedule,
    RecoverySpec, RetryPolicy,
};
pub use policy::{ScaleDecision, ScalingPolicy};
pub use sweep::{elastic_sweep_with, ElasticFrontier, ElasticPoint};
