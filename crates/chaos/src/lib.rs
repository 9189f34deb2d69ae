//! Chaos tier: seeded failure injection over the elastic fleet.
//!
//! The autoscale tier answers "what does a scaling policy cost on a
//! clean day?"; this crate asks the question an SRE actually signs
//! off on: **what happens when replicas die mid-day — how much SLO
//! and availability does each recovery posture buy, and at what
//! cost?** It is the robustness level of the same first-principles
//! methodology — model the failure process, then sweep the policy
//! space:
//!
//! * [`FaultPlan`] is the seeded failure model: independent replica
//!   kills and correlated rack/zone group outages as Poisson
//!   processes. All randomness is spent at schedule-build time
//!   (victim picks and outage groups are pre-drawn into the events),
//!   so the replay consumes a fully resolved, serializable
//!   [`seesaw_autoscale::FaultSchedule`] with no RNG on the causal
//!   path — byte-identical across `--jobs`.
//! * [`RecoverySpec`] is the deployment's posture: a scaling policy,
//!   whether killed capacity is replaced (paying the usual warm-up),
//!   and the [`seesaw_autoscale::RetryPolicy`] lost requests follow
//!   (detection delay, exponential backoff, attempt budget,
//!   deadline). Exhausted requests are counted failed — never
//!   silently dropped: `completed + failed == offered` always holds.
//! * [`ChaosController`] composes the two over the autoscale replay;
//!   with an empty plan it reproduces the plain autoscale run
//!   byte-for-byte (one code path — the controller's one entry point,
//!   `AutoscaleController::run_with`, under an empty schedule).
//! * [`chaos_sweep_with`] runs failure-model × recovery grids into
//!   the cost-vs-SLO-vs-availability frontier (the `chaos` bin).

pub mod controller;
pub mod plan;
pub mod sweep;

pub use controller::{ChaosController, RecoverySpec};
pub use plan::FaultPlan;
pub use sweep::{chaos_sweep_with, ChaosFrontier, ChaosPoint};
