//! Hardware description layer for the Seesaw reproduction.
//!
//! This crate models the *performance-relevant* properties of the GPU
//! clusters used in the paper's evaluation (Table 1): per-GPU memory
//! capacity, HBM bandwidth, peak fp16 FLOPS, and the inter-device
//! fabric (PCIe 4.0 x8 host-bridged trees or NVLink switches).
//!
//! Nothing in this crate executes real kernels. Instead it provides the
//! *cost models* — how long a collective of `s` bytes across `n` ranks
//! takes, how long streaming `s` bytes from HBM takes — that the
//! discrete-event simulator (`seesaw-sim`) and the analytical roofline
//! model (`seesaw-roofline`) consume.
//!
//! # Calibration discipline
//!
//! All efficiency constants (MFU, achievable bandwidth fractions,
//! collective algorithm efficiency) live in [`efficiency`] and are set
//! **once**, globally. Experiments never tune them per-figure; this is
//! what keeps the reproduced figures honest.

pub mod cluster;
pub mod efficiency;
pub mod fxhash;
pub mod gpu;
pub mod interconnect;
pub mod units;

pub use cluster::ClusterSpec;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use gpu::GpuSpec;
pub use interconnect::{AllReduce, HostLink, Interconnect, InterconnectKind};
pub use units::{ByteSize, GIB, MIB};
