//! Parallelism configurations, shard maps, and the dynamic
//! re-sharding planner — the mechanism behind the paper's core
//! contribution (§4.1).
//!
//! * [`ParallelConfig`] — a `(DP, TP, PP)` triple with the paper's
//!   label syntax (`"D2T2P2"`, `"P8"`, `"T4P2"`).
//! * [`shard`] — which bytes of which layers (and which KV heads) each
//!   GPU holds under a configuration.
//! * [`reshard`] — given a prefill config `c_p` and a decode config
//!   `c_d`, the byte-exact transfer plan to move every GPU from its
//!   `c_p` shard to its `c_d` shard by reloading from CPU memory.
//! * [`feasible`] — memory feasibility and maximum-batch-size
//!   accounting (paper Appendix A.2), and enumeration of all valid
//!   configurations for a cluster.

pub mod config;
pub mod feasible;
pub mod reshard;
pub mod shard;

pub use config::ParallelConfig;
pub use feasible::{enumerate_configs, FitError, MemoryPlan};
pub use reshard::{ReshardPlan, WeightMove};
pub use shard::{GpuShard, ShardMap};
