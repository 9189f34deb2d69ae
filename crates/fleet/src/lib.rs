//! Fleet simulation: many engine replicas behind a request router.
//!
//! The paper — and every other crate in this workspace — models a
//! *single* serving instance. Real deployments serve heavy traffic by
//! running N replicas of an engine behind a load balancer; this crate
//! is that missing tier (the cluster level MLSYSIM argues for, one up
//! from the accelerator level):
//!
//! * [`Fleet`] owns N replicas, each an engine behind a
//!   [`seesaw_engine::OnlineEngine`] trait object — Seesaw, vLLM, or
//!   disaggregated backends, heterogeneous mixes allowed.
//! * [`Router`] assigns each arriving request to a replica through
//!   one decision function, [`Router::route`], under a pluggable
//!   [`RouterPolicy`]: round-robin, join-shortest-queue,
//!   power-of-two-choices (seeded), or least-estimated-work using the
//!   roofline service-rate estimates — plus the live-feedback
//!   `jsq-live` and `least-work-live` policies that rank replicas by
//!   *measured* engine state.
//! * [`Dispatch`] is the one step every fleet loop takes at an
//!   arrival: read live replica state, route, record the route
//!   instant, note the assignment and push the request to the chosen
//!   replica's engine actor. The fixed fleet and the autoscale
//!   controller's elastic replay both run on it.
//! * [`Fleet::run_with`] walks the arrivals in time order through
//!   [`Dispatch`]; the per-replica engine actors finish concurrently on a
//!   [`seesaw_engine::SweepRunner`]; the per-replica timelines move
//!   into one merged timeline of a [`FleetReport`] (each timing kept
//!   once, with the replica that served it) with fleet-level latency
//!   percentiles, SLO attainment, goodput, and per-replica
//!   load-imbalance statistics.
//! * [`sweep`] evaluates capacity-scaling grids (replica count ×
//!   offered load) and router-policy head-to-head comparisons.
//!
//! Everything is deterministic: routing is a single serial pass in
//! arrival order, replica simulations are independent, and
//! results are collected in replica order — so fleet output is
//! byte-identical for every `--jobs` value, and a single-replica round-robin fleet
//! reproduces the bare engine's report exactly (its timeline as the
//! fleet's, the rest as the replica's report).

pub mod dispatch;
pub mod fleet;
pub mod report;
pub mod router;
pub mod sweep;
pub mod telemetry;

pub use dispatch::Dispatch;
pub use fleet::Fleet;
pub use report::{FleetReport, LoadImbalance};
pub use router::{NoAcceptingReplica, Routed, Router, RouterPolicy};
pub use sweep::{
    hetero_offline_capacity, offline_capacity, policy_comparison_patterned_with,
    scaling_sweep_patterned_at_capacity_with, FleetPoint, FleetScalingSweep,
};
