//! Closed-form throughput estimates (paper Eq. 1/2).
//!
//! These are the *analytic* counterparts of the simulator: sustained,
//! fully-pipelined steady-state rates. The paper uses them to argue
//! which parallelism wins where; Seesaw's auto-tuner uses them to rank
//! candidate `(c_p, c_d)` pairs before confirming with simulation, and
//! Figure 15 is generated from them directly.

use crate::batch::BatchShape;
use crate::cost::{Roofline, Stage};
use seesaw_parallel::{FitError, MemoryPlan, ParallelConfig};

/// Analytic throughput model over a [`Roofline`].
#[derive(Debug, Clone)]
pub struct ThroughputModel {
    /// Underlying per-pass cost model.
    pub roofline: Roofline,
}

impl ThroughputModel {
    /// Wrap a roofline.
    pub fn new(roofline: Roofline) -> Self {
        ThroughputModel { roofline }
    }

    /// Maximum global batch size at average sequence length `avg_len`
    /// (Appendix A.2), or why the config cannot run.
    pub fn max_batch(&self, cfg: ParallelConfig, avg_len: usize) -> Result<usize, FitError> {
        let plan = MemoryPlan::new(self.roofline.model(), self.roofline.cluster(), cfg)?;
        Ok(plan.max_batch(avg_len).max(1))
    }

    /// Time of the bottleneck pipeline stage for one micro-batch
    /// (`T_stage` in Eq. 1): the largest stage's layer count × one
    /// layer-cost evaluation.
    pub fn stage_bottleneck_time(
        &self,
        cfg: ParallelConfig,
        stage: Stage,
        shape: &BatchShape,
    ) -> f64 {
        let layer = self.roofline.layer_cost(stage, shape, cfg.tp).layer_time();
        cfg.max_stage_layers(self.roofline.model().num_layers) as f64 * layer
    }

    /// Eq. 1: sustained decode rate in *sequence-steps per second* for
    /// a global batch `b` whose sequences average `avg_ctx` context
    /// tokens. Each DP replica's pipeline retires a micro-batch of
    /// `b/(PP·DP)` steps every bottleneck-stage time.
    pub fn decode_seq_steps_per_sec(
        &self,
        cfg: ParallelConfig,
        avg_ctx: usize,
        global_batch: usize,
    ) -> f64 {
        let micro = (global_batch / (cfg.pp * cfg.dp)).max(1);
        let shape = BatchShape::decode_uniform(micro, avg_ctx);
        let t = self.stage_bottleneck_time(cfg, Stage::Decode, &shape);
        if t <= 0.0 {
            return f64::INFINITY;
        }
        (micro * cfg.dp) as f64 / t
    }

    /// Sustained decode rate at the configuration's *maximum* batch —
    /// the throughput-oriented operating point the paper assumes.
    pub fn decode_seq_steps_per_sec_max_batch(
        &self,
        cfg: ParallelConfig,
        avg_ctx: usize,
    ) -> Result<f64, FitError> {
        let b = self.max_batch(cfg, avg_ctx)?;
        Ok(self.decode_seq_steps_per_sec(cfg, avg_ctx, b))
    }

    /// Sustained prefill rate in tokens per second for prompts of
    /// `prompt_len`, with `ubatch_seqs` sequences per micro-batch.
    pub fn prefill_tokens_per_sec(
        &self,
        cfg: ParallelConfig,
        prompt_len: usize,
        ubatch_seqs: usize,
    ) -> f64 {
        let shape = BatchShape::prefill(&vec![prompt_len; ubatch_seqs.max(1)]);
        let t = self.stage_bottleneck_time(cfg, Stage::Prefill, &shape);
        if t <= 0.0 {
            return f64::INFINITY;
        }
        (shape.new_tokens * cfg.dp) as f64 / t
    }

    /// Coarse end-to-end request rate estimate for a Seesaw-style pair
    /// of configurations (`c_p` for prefill, `c_d` for decode) on a
    /// workload of `avg_in` input and `avg_out` output tokens. The two
    /// phases time-share the same GPUs, so per-request costs add.
    /// Static engines pass `cfg_p == cfg_d`.
    pub fn estimate_request_rate(
        &self,
        cfg_p: ParallelConfig,
        cfg_d: ParallelConfig,
        avg_in: usize,
        avg_out: usize,
    ) -> Result<f64, FitError> {
        let prefill_rate = self.prefill_tokens_per_sec(cfg_p, avg_in.max(1), 4);
        let t_prefill = avg_in as f64 / prefill_rate;
        let avg_ctx = avg_in + avg_out / 2;
        let step_rate = self.decode_seq_steps_per_sec_max_batch(cfg_d, avg_ctx)?;
        // Also verify the prefill config itself fits.
        MemoryPlan::new(self.roofline.model(), self.roofline.cluster(), cfg_p)?;
        let t_decode = avg_out as f64 / step_rate;
        Ok(1.0 / (t_prefill + t_decode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_hw::ClusterSpec;
    use seesaw_model::presets;

    fn tm(cluster: ClusterSpec, model: seesaw_model::ModelConfig) -> ThroughputModel {
        ThroughputModel::new(Roofline::new(cluster, model))
    }

    /// Figure 3 / §3.1: on PCIe, PP beats TP for prefill and TP beats
    /// PP for decode — the paper's central observation pair.
    #[test]
    fn pp_wins_prefill_tp_wins_decode_on_pcie() {
        let t = tm(ClusterSpec::a10x8(), presets::llama2_70b());
        let pp8 = ParallelConfig::pp(8);
        let tp8 = ParallelConfig::tp(8);

        let prefill_pp = t.prefill_tokens_per_sec(pp8, 2000, 4);
        let prefill_tp = t.prefill_tokens_per_sec(tp8, 2000, 4);
        assert!(
            prefill_pp > prefill_tp,
            "prefill: PP8 {prefill_pp:.0} tok/s should beat TP8 {prefill_tp:.0}"
        );

        let dec_pp = t.decode_seq_steps_per_sec_max_batch(pp8, 2200).unwrap();
        let dec_tp = t
            .decode_seq_steps_per_sec_max_batch(ParallelConfig::new(1, 4, 2), 2200)
            .unwrap();
        assert!(
            dec_tp > dec_pp,
            "decode: T4P2 {dec_tp:.1} steps/s should beat PP8 {dec_pp:.1}"
        );
    }

    /// On NVLink, TP's collective penalty largely disappears.
    #[test]
    fn nvlink_narrows_prefill_gap() {
        let pcie = tm(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let nvl = tm(ClusterSpec::a100x8_nvlink(), presets::llama2_70b());
        let gap = |t: &ThroughputModel| {
            t.prefill_tokens_per_sec(ParallelConfig::pp(8), 2000, 4)
                / t.prefill_tokens_per_sec(ParallelConfig::tp(8), 2000, 4)
        };
        assert!(gap(&pcie) > gap(&nvl));
        assert!(gap(&nvl) < 1.5, "NVLink TP8 prefill should be competitive");
    }

    #[test]
    fn decode_rate_improves_with_batch() {
        let t = tm(ClusterSpec::a10x8(), presets::codellama_34b());
        let cfg = ParallelConfig::new(1, 4, 2);
        let r_small = t.decode_seq_steps_per_sec(cfg, 1500, 8);
        let r_big = t.decode_seq_steps_per_sec(cfg, 1500, 128);
        assert!(r_big > 4.0 * r_small, "batching must amortize weights");
    }

    #[test]
    fn infeasible_config_reported() {
        let t = tm(ClusterSpec::a10x8(), presets::llama2_70b());
        assert!(t.max_batch(ParallelConfig::new(8, 1, 1), 1000).is_err());
    }

    #[test]
    fn estimate_request_rate_prefers_mixed_configs_on_pcie() {
        // The Seesaw premise: P8 -> T4P2 should beat both static
        // choices on a PCIe box for a balanced workload.
        let t = tm(ClusterSpec::a10x8(), presets::llama2_70b());
        let pp8 = ParallelConfig::pp(8);
        let t4p2 = ParallelConfig::new(1, 4, 2);
        let seesaw = t.estimate_request_rate(pp8, t4p2, 3000, 300).unwrap();
        let static_pp = t.estimate_request_rate(pp8, pp8, 3000, 300).unwrap();
        let static_tp = t.estimate_request_rate(t4p2, t4p2, 3000, 300).unwrap();
        assert!(seesaw > static_pp, "seesaw {seesaw} vs pp {static_pp}");
        assert!(seesaw > static_tp, "seesaw {seesaw} vs tp {static_tp}");
    }
}
