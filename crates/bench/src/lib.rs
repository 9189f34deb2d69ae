//! Experiment harness for the Seesaw reproduction.
//!
//! Every table and figure in the paper's evaluation has a module under
//! [`figs`] with a `run(...)` function that regenerates its rows, and
//! a thin binary wrapper in `src/bin/`. The `all_figures` binary runs
//! everything in sequence (that output is what EXPERIMENTS.md quotes).
//!
//! Shared infrastructure:
//! * [`table::Table`] — aligned markdown table printer.
//! * [`harness`] — the vLLM configuration/policy sweep ("best static
//!   baseline", as the paper tunes it) and the Seesaw auto-probed run.
//! * [`serving`] — the default scenario every experiment bin shares
//!   (engines for `--engine seesaw|vllm|disagg`, specs, requests, SLO)
//!   and the `serving` bin's offered-load vs SLO-attainment renderings.
//! * [`fleet`] — the multi-replica tier: capacity-scaling and
//!   router-policy sweeps over `seesaw_fleet::Fleet` (the `fleet`
//!   bin). The `serving` bin's sweep is its scaling sweep at one
//!   replica under round-robin
//!   ([`fleet::FleetScenario::scaling_with`]).
//! * [`autoscale`] and [`chaos`] — the elastic tier, both views of
//!   one `seesaw_autoscale::elastic_sweep_with` grid over the shared
//!   day-long [`autoscale::Scenario`]: the fault-free policy × trace
//!   cost-vs-SLO frontier (the `autoscale` bin) and the fault ×
//!   recovery cost-vs-SLO-vs-availability frontier on the diurnal day
//!   (the `chaos` bin), plus the one telemetry-on cell behind both
//!   bins' `--trace-out` ([`autoscale::observed_cell_with`]).
//! * [`simsbench`] — the canonical `sims_per_sec` single-candidate
//!   workload shared by `perf_report`, the criterion microbench, and
//!   the determinism tests.

pub mod autoscale;
pub mod chaos;
pub mod cli;
pub mod figs;
pub mod fleet;
pub mod harness;
pub mod jsonfmt;
pub mod serving;
pub mod simsbench;
pub mod table;

/// Default request counts per dataset, matching §6.1 ("we sample 2000
/// requests from sharegpt and 500 from arxiv-summarization").
/// Heavy sweeps subsample; each figure documents its count.
pub const ARXIV_REQUESTS: usize = 500;
/// See [`ARXIV_REQUESTS`].
pub const SHAREGPT_REQUESTS: usize = 2000;

/// Workload seed used by every figure, so reruns are identical.
pub const SEED: u64 = 42;
