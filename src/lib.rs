//! # Seesaw — high-throughput LLM inference via model re-sharding
//!
//! A simulation-backed, full-system reproduction of *"Seesaw:
//! High-throughput LLM Inference via Model Re-sharding"* (MLSys 2025).
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`hw`] — GPU / interconnect / cluster cost models (paper Table 1).
//! * [`model`] — transformer architecture descriptions and accounting.
//! * [`parallel`] — TP/PP/DP configurations, shard maps, and the
//!   dynamic re-sharding planner.
//! * [`sim`] — the discrete-event simulation engine that stands in for
//!   physical GPUs.
//! * [`kv`] — paged GPU KV cache and the tiered CPU buffer.
//! * [`workload`] — dataset-like request generators and metrics.
//! * [`roofline`] — the analytical performance model (paper Appendix A).
//! * [`engine`] — the Seesaw engine plus vLLM-like and disaggregated
//!   baselines.
//! * [`fleet`] — fixed multi-replica deployments: request routers and
//!   the fleet event loop.
//! * [`autoscale`] — the elastic tier: trace-driven scaling policies
//!   over multi-replica deployments, seeded failure injection, and the
//!   trace × fault × recovery frontier sweep.
//!
//! # Quickstart
//!
//! ```
//! use seesaw::prelude::*;
//!
//! // An 8x A10 node running the 34B model on an arxiv-like workload.
//! let cluster = ClusterSpec::a10x8();
//! let model = ModelConfig::codellama_34b();
//! let mut gen = WorkloadGen::arxiv_summarization(42);
//! let requests = gen.generate(64);
//!
//! // Seesaw: pipeline-parallel prefill, tensor-parallel decode.
//! let spec = SeesawSpec::auto(&cluster, &model).expect("feasible config");
//! let report = SeesawEngine::new(cluster, model, spec)
//!     .expect("engine construction")
//!     .run(&requests);
//! assert!(report.throughput_rps() > 0.0);
//! ```

pub use seesaw_autoscale as autoscale;
pub use seesaw_engine as engine;
pub use seesaw_fleet as fleet;
pub use seesaw_hw as hw;
pub use seesaw_kv as kv;
pub use seesaw_model as model;
pub use seesaw_parallel as parallel;
pub use seesaw_roofline as roofline;
pub use seesaw_sim as sim;
pub use seesaw_workload as workload;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use seesaw_engine::{
        disagg::DisaggEngine, seesaw::SeesawEngine, seesaw::SeesawSpec, vllm::VllmEngine,
        EngineReport, Phase, PhaseSpan, SchedulingPolicy,
    };
    pub use seesaw_hw::{ClusterSpec, GpuSpec, Interconnect};
    pub use seesaw_model::ModelConfig;
    pub use seesaw_parallel::ParallelConfig;
    pub use seesaw_roofline::{Roofline, Stage};
    pub use seesaw_workload::{Request, WorkloadGen};
}
