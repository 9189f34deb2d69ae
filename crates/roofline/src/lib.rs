//! Analytical roofline performance model — the executable form of the
//! paper's Appendix A.
//!
//! For a micro-batch of known shape on one pipeline stage, the model
//! produces the five cost components of Table 3:
//!
//! | component      | prefill                        | decode                     |
//! |----------------|--------------------------------|----------------------------|
//! | `linear_dm`    | `2W / BW_hbm`                  | same (weights stream once) |
//! | `linear_comp`  | `2·W·tokens / FLOPS`           | `2·W·b / FLOPS`            |
//! | `attn_dm`      | `2·s·(h_q+2h_kv)·d / BW_hbm`   | `4·ctx·h_kv·d / BW_hbm`    |
//! | `attn_comp`    | `2·h_q·d·s² / FLOPS`           | `4·h_q·d·ctx / FLOPS`      |
//! | `comm`         | ring all-reduce of activations, `T_nw(TP)`                  |
//!
//! and combines them per layer as
//! `max(linear_dm, linear_comp) + max(attn_dm, attn_comp) + comm`.
//!
//! The same [`LayerCost`] also yields the *breakdown attribution* used
//! by Figures 1 and 12: when the linear term is memory-bound (decode)
//! its time is charged to "weight transfer"; when compute-bound
//! (prefill) to "compute"; collectives are "communication".

pub mod batch;
pub mod cost;
pub mod eq2;

pub use batch::BatchShape;
pub use cost::{DecodeCost, LayerCost, Roofline, Stage, StageBreakdown};
pub use eq2::ThroughputModel;
