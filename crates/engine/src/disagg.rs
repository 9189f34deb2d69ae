//! Spatial prefill/decode disaggregation (DistServe/Mooncake-style),
//! used for the paper's §3.2 analysis and Figure 4.
//!
//! The node is split into a prefill instance of `n_p` GPUs and a
//! decode instance of `n_d = N - n_p` GPUs, each with its own static
//! parallelization. Prefilled KV flows from prefill to decode GPUs.
//! In steady state the two instances form a two-stage pipeline, so
//! sustained throughput is the *minimum* of the two instance rates —
//! exactly the mismatch argument of Figure 4. Instance rates are
//! measured with the analytic model at each instance's best feasible
//! configuration; KV transfer between instances rides the host links
//! and is accounted as a decode-side overhead.

use crate::online::{mean_lengths, OnlineEngine, ServiceRates};
use crate::report::EngineReport;
use seesaw_hw::ClusterSpec;
use seesaw_model::ModelConfig;
use seesaw_parallel::{FitError, ParallelConfig};
use seesaw_roofline::{Roofline, ThroughputModel};
use seesaw_sim::TraceSummary;
use seesaw_workload::{LatencyStats, Request, RequestTiming, RunStats};
use std::sync::Arc;

/// One evaluated disaggregation split.
#[derive(Debug, Clone, PartialEq)]
pub struct DisaggReport {
    /// GPUs assigned to prefill.
    pub prefill_gpus: usize,
    /// GPUs assigned to decode.
    pub decode_gpus: usize,
    /// Best prefill-instance configuration.
    pub prefill_config: ParallelConfig,
    /// Best decode-instance configuration.
    pub decode_config: ParallelConfig,
    /// Prefill instance rate, requests/s.
    pub prefill_rps: f64,
    /// Decode instance rate, requests/s (including inter-instance KV
    /// transfer overhead).
    pub decode_rps: f64,
    /// Analytic steady-state TTFT estimate: one prompt's prefill time
    /// plus the prefill→decode KV handoff, seconds. (Excludes
    /// queueing — an unloaded-system floor, the disaggregated
    /// counterpart of the simulated engines' measured TTFT.)
    pub est_ttft_s: f64,
    /// Analytic steady-state time-per-output-token estimate, seconds.
    pub est_tpot_s: f64,
}

impl DisaggReport {
    /// Steady-state pipeline throughput: the slower stage.
    pub fn combined_rps(&self) -> f64 {
        self.prefill_rps.min(self.decode_rps)
    }

    /// Ratio of the faster stage to the slower (the "mismatch" the
    /// paper highlights; 1.0 = perfectly balanced).
    pub fn mismatch(&self) -> f64 {
        let hi = self.prefill_rps.max(self.decode_rps);
        hi / self.combined_rps()
    }
}

/// The disaggregated-deployment analyzer.
#[derive(Debug)]
pub struct DisaggEngine {
    cluster: Arc<ClusterSpec>,
    model: Arc<ModelConfig>,
    /// Last [`DisaggEngine::best_split`] result keyed by its
    /// `(avg_in, avg_out)` — the split search walks every GPU split ×
    /// feasible config through the roofline, and fleet runs ask for
    /// the same workload's split once per replica plus once for
    /// service rates (`Mutex`, not `RefCell`: engines run `&self`
    /// across sweep threads).
    split_cache: std::sync::Mutex<Option<((usize, usize), DisaggReport)>>,
}

impl DisaggEngine {
    /// Build the analyzer for a cluster/model pair (owned specs or
    /// `Arc` handles).
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        model: impl Into<Arc<ModelConfig>>,
    ) -> Self {
        DisaggEngine {
            cluster: cluster.into(),
            model: model.into(),
            split_cache: std::sync::Mutex::new(None),
        }
    }

    /// Evaluate a specific split (`n_p` prefill GPUs, rest decode) for
    /// a workload of `avg_in`/`avg_out` tokens.
    pub fn evaluate_split(
        &self,
        n_p: usize,
        avg_in: usize,
        avg_out: usize,
    ) -> Result<DisaggReport, FitError> {
        let n = self.cluster.num_gpus;
        if n_p == 0 || n_p >= n {
            return Err(FitError::Invalid(format!(
                "split {n_p}/{} leaves an empty instance",
                n - n_p
            )));
        }
        let n_d = n - n_p;
        let pre_cluster = self.cluster.subset(n_p);
        let dec_cluster = self.cluster.subset(n_d);

        // Best config per instance: prefill instance optimizes prompt
        // rate, decode instance optimizes generation rate.
        let (pcfg, _) = best_prefill_config(&pre_cluster, &self.model, avg_in)?;
        let avg_ctx = ThroughputModel::decode_context(avg_in, avg_out);
        let (dcfg, _) = best_decode_config(&dec_cluster, &self.model, avg_ctx)?;

        let tm_p = ThroughputModel::new(Roofline::new(pre_cluster, self.model.clone()));
        let prefill_tok_rate = tm_p.prefill_tokens_per_sec(pcfg, avg_in.max(1));
        let prefill_rps = prefill_tok_rate / avg_in as f64;

        let tm_d = ThroughputModel::new(Roofline::new(dec_cluster.clone(), self.model.clone()));
        let step_rate = tm_d.decode_seq_steps_per_sec_max_batch(dcfg, avg_ctx)?;
        // KV must cross from prefill to decode GPUs: one D2H + one H2D
        // of the prompt KV per request, spread across the decode
        // instance's host links.
        let kv_bytes = self.model.kv_bytes_per_token() as f64 * avg_in as f64;
        let xfer = 2.0 * dec_cluster.host_link.pinned_copy_time(kv_bytes) / n_d as f64;
        let t_dec = avg_out as f64 / step_rate + xfer;
        let decode_rps = 1.0 / t_dec;

        Ok(DisaggReport {
            prefill_gpus: n_p,
            decode_gpus: n_d,
            prefill_config: pcfg,
            decode_config: dcfg,
            prefill_rps,
            decode_rps,
            est_ttft_s: avg_in as f64 / prefill_tok_rate + xfer,
            est_tpot_s: 1.0 / step_rate,
        })
    }

    /// Evaluate every feasible split, best-combined first. Splits
    /// where either instance cannot fit the model are skipped — the
    /// Figure 4 constraint.
    pub fn evaluate_all_splits(&self, avg_in: usize, avg_out: usize) -> Vec<DisaggReport> {
        let mut out: Vec<DisaggReport> = (1..self.cluster.num_gpus)
            .filter_map(|n_p| self.evaluate_split(n_p, avg_in, avg_out).ok())
            .collect();
        out.sort_by(|a, b| {
            b.combined_rps()
                .partial_cmp(&a.combined_rps())
                .expect("finite rates")
        });
        out
    }

    /// The best feasible split for a workload averaging
    /// `avg_in`/`avg_out` tokens, or why no split fits. Memoized on
    /// the workload averages (pure function of them), so a fleet
    /// cell's N replica runs + service-rate estimate search once.
    pub fn best_split(&self, avg_in: usize, avg_out: usize) -> Result<DisaggReport, FitError> {
        if let Some((key, split)) = &*self.split_cache.lock().expect("split cache poisoned") {
            if *key == (avg_in, avg_out) {
                return Ok(split.clone());
            }
        }
        let split = self
            .evaluate_all_splits(avg_in, avg_out)
            .into_iter()
            .next()
            .ok_or_else(|| {
                FitError::Invalid(format!(
                    "no feasible disagg split of {} GPUs for this model",
                    self.cluster.num_gpus
                ))
            })?;
        *self.split_cache.lock().expect("split cache poisoned") =
            Some(((avg_in, avg_out), split.clone()));
        Ok(split)
    }

    /// Serve an arrival-sorted request stream through the best
    /// feasible split, replayed as a two-stage tandem queue (the
    /// online counterpart of the simulated engines' `run`).
    ///
    /// The analytic model is the same one [`DisaggEngine::evaluate_split`]
    /// rates instances with: a request occupies the prefill instance
    /// for `input / prefill_token_rate` seconds (FIFO), its KV then
    /// crosses the host links (`xfer`), and it occupies the decode
    /// instance for `xfer + output / step_rate` seconds — so sustained
    /// throughput converges to `combined_rps` and per-token latency to
    /// `est_tpot_s`, while queueing under load emerges from the two
    /// FIFO stages. Deterministic; panics when no split is feasible
    /// (the disaggregation counterpart of an engine that cannot fit
    /// the model).
    pub fn run(&self, requests: &[Request]) -> EngineReport {
        crate::driver::assert_arrivals_sorted(requests);
        let (avg_in, avg_out) = mean_lengths(requests);
        let split = self
            .best_split(avg_in, avg_out)
            .unwrap_or_else(|e| panic!("disagg run impossible: {e:?}"));
        let label = format!(
            "disagg {}p{}+{}d{}",
            split.prefill_gpus, split.prefill_config, split.decode_gpus, split.decode_config
        );
        if requests.is_empty() {
            return EngineReport {
                label,
                stats: RunStats::from_requests(requests, 0.0),
                prefill_wall_s: 0.0,
                decode_wall_s: 0.0,
                mixed_wall_s: 0.0,
                reshard_wall_s: 0.0,
                transitions: 0,
                swap_out_bytes: 0,
                swap_in_bytes: 0,
                phases: Vec::new(),
                gpu_utilization: 0.0,
                busy_by_kind: TraceSummary::default(),
                timeline: Vec::new(),
                latency: None,
            };
        }

        // Recover the per-token rates behind the split's rps figures.
        let prefill_tok_rate = split.prefill_rps * avg_in as f64;
        let step_rate = 1.0 / split.est_tpot_s;
        let xfer = (split.est_ttft_s - avg_in as f64 / prefill_tok_rate).max(0.0);

        let mut prefill_free = 0.0_f64;
        let mut decode_free = 0.0_f64;
        let mut prefill_busy = 0.0_f64;
        let mut decode_busy = 0.0_f64;
        let mut kv_bytes_total = 0u64;
        let mut timeline: Vec<RequestTiming> = Vec::with_capacity(requests.len());
        for r in requests {
            let t_p = r.input_len as f64 / prefill_tok_rate;
            let p_start = r.arrival_s.max(prefill_free);
            let p_done = p_start + t_p;
            prefill_free = p_done;
            prefill_busy += t_p;

            // The decode slot includes the KV handoff (exactly how
            // `decode_rps` accounts it); the first token lands one
            // decode step after the handoff completes.
            let t_d = xfer + r.output_len as f64 / step_rate;
            let d_start = p_done.max(decode_free);
            decode_free = d_start + t_d;
            decode_busy += t_d;
            kv_bytes_total += self.model.kv_bytes_per_token() * r.input_len as u64;
            timeline.push(RequestTiming {
                id: r.id,
                arrival_s: r.arrival_s,
                first_token_s: d_start + xfer + 1.0 / step_rate,
                completion_s: d_start + t_d,
                output_len: r.output_len,
                attempts: 1,
            });
        }
        timeline.sort_by_key(|t| t.id);
        let duration = timeline
            .iter()
            .map(|t| t.completion_s)
            .fold(0.0_f64, f64::max);
        let n = self.cluster.num_gpus as f64;
        let gpu_utilization = if duration > 0.0 {
            (prefill_busy * split.prefill_gpus as f64 + decode_busy * split.decode_gpus as f64)
                / (duration * n)
        } else {
            0.0
        };
        let latency = LatencyStats::from_timeline(&timeline);
        EngineReport {
            label,
            stats: RunStats::from_requests(requests, duration),
            prefill_wall_s: prefill_busy,
            decode_wall_s: decode_busy,
            mixed_wall_s: 0.0,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: kv_bytes_total,
            swap_in_bytes: kv_bytes_total,
            phases: Vec::new(),
            gpu_utilization: gpu_utilization.min(1.0),
            busy_by_kind: TraceSummary::default(),
            timeline,
            latency,
        }
    }
}

impl OnlineEngine for DisaggEngine {
    fn label(&self) -> String {
        "disagg(auto-split)".into()
    }

    fn run(&self, requests: &[Request]) -> EngineReport {
        DisaggEngine::run(self, requests)
    }

    fn service_rates(&self, avg_in: usize, avg_out: usize) -> ServiceRates {
        let split = self
            .best_split(avg_in, avg_out)
            .unwrap_or_else(|e| panic!("disagg service rates impossible: {e:?}"));
        ServiceRates {
            prefill_tokens_per_sec: split.prefill_rps * avg_in.max(1) as f64,
            decode_tokens_per_sec: split.decode_rps * avg_out.max(1) as f64,
        }
    }
}

/// Best feasible config of a sub-cluster for prefill throughput.
fn best_prefill_config(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
) -> Result<(ParallelConfig, f64), FitError> {
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    seesaw_parallel::feasible::feasible_configs(model, cluster)
        .into_iter()
        .map(|c| (c, tm.prefill_tokens_per_sec(c, avg_in.max(1))))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .ok_or(FitError::Invalid("no feasible prefill config".into()))
}

/// Best feasible config of a sub-cluster for decode throughput.
fn best_decode_config(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_ctx: usize,
) -> Result<(ParallelConfig, f64), FitError> {
    let tm = ThroughputModel::new(Roofline::new(cluster.clone(), model.clone()));
    seesaw_parallel::feasible::feasible_configs(model, cluster)
        .into_iter()
        .filter_map(|c| {
            tm.decode_seq_steps_per_sec_max_batch(c, avg_ctx)
                .ok()
                .map(|r| (c, r))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .ok_or(FitError::Invalid("no feasible decode config".into()))
}

/// Decode rate of the whole (un-split) cluster — Figure 4's
/// "Decode (8 GPUs)" reference bar.
pub fn whole_cluster_decode_rps(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    avg_in: usize,
    avg_out: usize,
) -> Result<f64, FitError> {
    let avg_ctx = ThroughputModel::decode_context(avg_in, avg_out);
    let (_, step_rate) = best_decode_config(cluster, model, avg_ctx)?;
    Ok(step_rate / avg_out as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_model::presets;

    /// Figure 4: 70B on 8x 40GiB admits exactly one split (4+4).
    #[test]
    fn seventy_b_admits_only_the_even_split() {
        let eng = DisaggEngine::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let splits = eng.evaluate_all_splits(3000, 250);
        assert_eq!(splits.len(), 1, "only 4+4 should be feasible");
        assert_eq!(splits[0].prefill_gpus, 4);
        assert_eq!(splits[0].decode_gpus, 4);
    }

    /// Figure 4: the feasible split is mismatched, with decode as the
    /// bottleneck. (The paper measures a ~6x gap on real hardware; our
    /// analytic model reproduces the direction and a >1.2x gap — see
    /// EXPERIMENTS.md for the comparison.)
    #[test]
    fn even_split_is_mismatched_with_decode_bottleneck() {
        let eng = DisaggEngine::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let r = eng.evaluate_split(4, 3000, 250).unwrap();
        assert!(
            r.prefill_rps > 1.2 * r.decode_rps,
            "prefill {:.3} rps vs decode {:.3} rps",
            r.prefill_rps,
            r.decode_rps
        );
        assert!(r.mismatch() > 1.2);
        assert!((r.combined_rps() - r.decode_rps).abs() < 1e-12);
    }

    /// Figure 4: 4-GPU decode is a small fraction of 8-GPU decode
    /// (the paper reports ~15%).
    #[test]
    fn half_cluster_decode_is_small_fraction_of_whole() {
        let cluster = ClusterSpec::a100x8_pcie();
        let m = presets::llama2_70b();
        let eng = DisaggEngine::new(cluster.clone(), m.clone());
        let split = eng.evaluate_split(4, 3000, 250).unwrap();
        let whole = whole_cluster_decode_rps(&cluster, &m, 3000, 250).unwrap();
        let frac = split.decode_rps / whole;
        assert!(
            frac < 0.4,
            "4-GPU decode should be a small fraction of 8-GPU, got {frac:.2}"
        );
    }

    /// With no configuration that holds the model, the whole-cluster
    /// reference errs instead of reporting a rate.
    #[test]
    fn whole_cluster_decode_errs_when_no_config_fits() {
        let whole =
            whole_cluster_decode_rps(&ClusterSpec::a10x4(), &presets::llama2_70b(), 3000, 250);
        assert!(whole.is_err(), "70B cannot fit 4x A10, got {whole:?}");
    }

    #[test]
    fn smaller_models_admit_more_splits() {
        let eng = DisaggEngine::new(ClusterSpec::a10x8(), presets::llama3_15b());
        let splits = eng.evaluate_all_splits(500, 250);
        assert!(splits.len() > 1);
        // Sorted by combined throughput.
        for w in splits.windows(2) {
            assert!(w[0].combined_rps() >= w[1].combined_rps());
        }
    }

    #[test]
    fn latency_floor_is_positive_and_slo_gateable() {
        let eng = DisaggEngine::new(ClusterSpec::a100x8_pcie(), presets::llama2_70b());
        let r = eng.evaluate_split(4, 3000, 250).unwrap();
        assert!(r.est_ttft_s > 0.0 && r.est_ttft_s.is_finite());
        assert!(r.est_tpot_s > 0.0 && r.est_tpot_s.is_finite());
    }

    #[test]
    fn degenerate_splits_rejected() {
        let eng = DisaggEngine::new(ClusterSpec::a10x8(), presets::llama3_15b());
        assert!(eng.evaluate_split(0, 500, 250).is_err());
        assert!(eng.evaluate_split(8, 500, 250).is_err());
    }

    #[test]
    fn tandem_run_completes_with_consistent_timeline() {
        use seesaw_workload::Request;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let reqs: Vec<Request> = (0..12)
            .map(|i| Request::new(i, 700, 48).with_arrival(0.5 * i as f64))
            .collect();
        let report = eng.run(&reqs);
        assert_eq!(report.stats.requests, 12);
        assert_eq!(report.timeline.len(), 12);
        assert!(report.label.starts_with("disagg "), "got {}", report.label);
        for w in report.timeline.windows(2) {
            assert!(w[0].id < w[1].id, "timeline must be id-sorted");
        }
        for t in &report.timeline {
            assert!(t.first_token_s > t.arrival_s);
            assert!(t.completion_s > t.first_token_s);
        }
        assert!(report.stats.duration_s >= 5.5, "must span the arrival horizon");
        assert!(report.latency.unwrap().count == 12);
        assert!(report.gpu_utilization > 0.0 && report.gpu_utilization <= 1.0);
        assert!(report.swap_out_bytes > 0, "KV handoff must be accounted");
    }

    /// An unloaded request's latency matches the split's analytic
    /// floor (TTFT within one decode step, TPOT exactly).
    #[test]
    fn tandem_unloaded_latency_matches_analytic_floor() {
        use seesaw_workload::Request;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let split = eng.best_split(700, 48).unwrap();
        let reqs = vec![Request::new(0, 700, 48)];
        let report = eng.run(&reqs);
        let t = report.timeline[0];
        let step = split.est_tpot_s;
        assert!(
            (t.first_token_s - (split.est_ttft_s + step)).abs() < 1e-9,
            "TTFT {} vs floor {}",
            t.first_token_s,
            split.est_ttft_s + step
        );
        let tpot = (t.completion_s - t.first_token_s) / 47.0;
        assert!((tpot - step).abs() < 1e-9, "TPOT {tpot} vs est {step}");
    }

    /// Saturating the tandem pipeline converges to the split's
    /// combined (bottleneck) rate.
    #[test]
    fn tandem_saturated_throughput_approaches_combined_rps() {
        use seesaw_workload::Request;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let split = eng.best_split(700, 48).unwrap();
        let reqs: Vec<Request> = (0..200).map(|i| Request::new(i, 700, 48)).collect();
        let report = eng.run(&reqs);
        let ratio = report.throughput_rps() / split.combined_rps();
        assert!(
            (0.85..=1.05).contains(&ratio),
            "saturated tandem at {:.3} rps vs combined {:.3} (ratio {ratio:.3})",
            report.throughput_rps(),
            split.combined_rps()
        );
    }

    #[test]
    fn tandem_empty_run_reports_zeros() {
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let report = eng.run(&[]);
        assert_eq!(report.stats.requests, 0);
        assert_eq!(report.throughput_rps(), 0.0);
        assert!(report.latency.is_none());
    }

    #[test]
    fn online_trait_rates_are_positive_for_all_engines() {
        use crate::online::OnlineEngine;
        let eng = DisaggEngine::new(ClusterSpec::a10x4(), presets::llama2_13b());
        let rates = eng.service_rates(700, 48);
        assert!(rates.prefill_tokens_per_sec > 0.0 && rates.prefill_tokens_per_sec.is_finite());
        assert!(rates.decode_tokens_per_sec > 0.0 && rates.decode_tokens_per_sec.is_finite());
        assert_eq!(OnlineEngine::label(&eng), "disagg(auto-split)");
    }
}
