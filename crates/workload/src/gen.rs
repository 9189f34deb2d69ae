//! Seeded request generators matching the paper's workloads.

use crate::arrival::{ArrivalDist, ArrivalSampler};
use crate::request::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A clipped length distribution for one marginal (input or output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDist {
    /// Every sample is exactly this length (§6.5 sweeps).
    Constant(usize),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Minimum length.
        lo: usize,
        /// Maximum length.
        hi: usize,
    },
    /// Lognormal with the given median and log-space sigma, clipped to
    /// `[lo, hi]` — matches the skewed shapes in Figure 9.
    LogNormal {
        /// Median length (`exp(mu)`).
        median: f64,
        /// Log-space standard deviation.
        sigma: f64,
        /// Clip floor.
        lo: usize,
        /// Clip ceiling.
        hi: usize,
    },
}

impl LengthDist {
    /// Validate the distribution's bounds. Sampling a `lo > hi` range
    /// panics deep inside `rng.gen_range` mid-generation; validating
    /// at [`WorkloadGen`] construction surfaces the mistake with a
    /// clear message instead.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LengthDist::Constant(n) => {
                if n == 0 {
                    return Err("constant length must be at least 1 token".into());
                }
            }
            LengthDist::Uniform { lo, hi } => {
                if lo > hi {
                    return Err(format!("uniform length bounds inverted: lo {lo} > hi {hi}"));
                }
            }
            LengthDist::LogNormal { median, sigma, lo, hi } => {
                if lo > hi {
                    return Err(format!(
                        "lognormal clip bounds inverted: lo {lo} > hi {hi}"
                    ));
                }
                if !(median.is_finite() && median > 0.0) {
                    return Err(format!("lognormal median must be finite and > 0, got {median}"));
                }
                if !(sigma.is_finite() && sigma >= 0.0) {
                    return Err(format!("lognormal sigma must be finite and >= 0, got {sigma}"));
                }
            }
        }
        Ok(())
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            LengthDist::Constant(n) => n,
            LengthDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LengthDist::LogNormal {
                median,
                sigma,
                lo,
                hi,
            } => {
                // Box–Muller: two uniforms -> one standard normal.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let x = (median.ln() + sigma * z).exp();
                (x.round() as usize).clamp(lo, hi)
            }
        }
    }
}

/// XOR'd into the workload seed to derive the independent arrival-RNG
/// seed, so length and arrival streams never share draws. Public so
/// callers sampling arrivals *outside* the generator (e.g. the
/// serving sweep scaling one pattern across load points) can decouple
/// their arrival stream from the same workload seed identically.
pub const ARRIVAL_SEED_SALT: u64 = 0xA221_7A15_712E_A300;

/// A seeded workload generator: one distribution per marginal, plus
/// an optional arrival process for online-serving workloads.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    /// Name used in reports (e.g. `"sharegpt"`).
    pub name: String,
    /// Input (prompt) length distribution.
    pub input: LengthDist,
    /// Output (generation) length distribution.
    pub output: LengthDist,
    rng: StdRng,
    /// Arrival sampler (`None` = offline: every request at t = 0).
    /// Draws from its own RNG, so attaching arrivals leaves the
    /// length stream byte-identical to the offline generator.
    arrivals: Option<ArrivalSampler>,
    seed: u64,
    next_id: u64,
}

impl WorkloadGen {
    /// Generator with explicit marginals. Panics on invalid length
    /// bounds — use [`WorkloadGen::try_new`] for a recoverable error.
    pub fn new(name: impl Into<String>, input: LengthDist, output: LengthDist, seed: u64) -> Self {
        Self::try_new(name, input, output, seed)
            .unwrap_or_else(|e| panic!("invalid workload distribution: {e}"))
    }

    /// Generator with explicit marginals, validating both length
    /// distributions up front.
    pub fn try_new(
        name: impl Into<String>,
        input: LengthDist,
        output: LengthDist,
        seed: u64,
    ) -> Result<Self, String> {
        input.validate().map_err(|e| format!("input lengths: {e}"))?;
        output.validate().map_err(|e| format!("output lengths: {e}"))?;
        Ok(WorkloadGen {
            name: name.into(),
            input,
            output,
            rng: StdRng::seed_from_u64(seed),
            arrivals: None,
            seed,
            next_id: 0,
        })
    }

    /// Attach an arrival process (validated up front): subsequently
    /// generated requests carry nondecreasing `arrival_s` times drawn
    /// from `dist`, seeded independently from the length stream.
    pub fn with_arrivals(mut self, dist: ArrivalDist) -> Result<Self, String> {
        dist.validate()?;
        self.arrivals = Some(ArrivalSampler::new(dist, self.seed ^ ARRIVAL_SEED_SALT));
        Ok(self)
    }

    /// ShareGPT-like chat workload: inputs and outputs of comparable,
    /// few-hundred-token length with a long tail (Figure 9b). The
    /// paper samples 2000 requests from this dataset.
    pub fn sharegpt(seed: u64) -> Self {
        Self::new(
            "sharegpt",
            LengthDist::LogNormal {
                median: 250.0,
                sigma: 0.9,
                lo: 4,
                hi: 4096,
            },
            LengthDist::LogNormal {
                median: 250.0,
                sigma: 0.75,
                lo: 4,
                hi: 2048,
            },
            seed,
        )
    }

    /// arxiv-summarization-like workload: multi-thousand-token inputs,
    /// short outputs (Figure 9a). The paper samples 500 requests.
    pub fn arxiv_summarization(seed: u64) -> Self {
        Self::new(
            "arxiv",
            LengthDist::LogNormal {
                median: 3000.0,
                sigma: 0.35,
                lo: 512,
                hi: 6000,
            },
            LengthDist::LogNormal {
                median: 180.0,
                sigma: 0.5,
                lo: 16,
                hi: 1024,
            },
            seed,
        )
    }

    /// Constant-length workload (§6.5: fixed 3000-token inputs with a
    /// swept output length).
    pub fn constant(input_len: usize, output_len: usize) -> Self {
        Self::new(
            format!("const-{input_len}x{output_len}"),
            LengthDist::Constant(input_len),
            LengthDist::Constant(output_len),
            0,
        )
    }

    /// Generate the next `n` requests.
    pub fn generate(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                let req = Request::new(
                    id,
                    self.input.sample(&mut self.rng).max(1),
                    self.output.sample(&mut self.rng).max(1),
                );
                match &mut self.arrivals {
                    Some(s) => req.with_arrival(s.next_time()),
                    None => req,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::LengthStats;

    #[test]
    fn deterministic_for_same_seed() {
        let a = WorkloadGen::sharegpt(7).generate(100);
        let b = WorkloadGen::sharegpt(7).generate(100);
        assert_eq!(a, b);
        let c = WorkloadGen::sharegpt(8).generate(100);
        assert_ne!(a, c);
    }

    #[test]
    fn arxiv_inputs_dwarf_outputs() {
        // Figure 9a: summarization inputs are much longer than outputs.
        let reqs = WorkloadGen::arxiv_summarization(1).generate(500);
        let s = LengthStats::of(&reqs);
        assert!(
            s.mean_input > 8.0 * s.mean_output,
            "mean in {} vs out {}",
            s.mean_input,
            s.mean_output
        );
        assert!(s.mean_input > 2000.0 && s.mean_input < 4500.0);
    }

    #[test]
    fn sharegpt_lengths_comparable() {
        // Figure 9b: chat inputs and outputs have comparable scales.
        let reqs = WorkloadGen::sharegpt(1).generate(2000);
        let s = LengthStats::of(&reqs);
        let ratio = s.mean_input / s.mean_output;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "in/out ratio {ratio} should be near 1"
        );
    }

    #[test]
    fn constant_workload_is_constant() {
        let reqs = WorkloadGen::constant(3000, 300).generate(50);
        assert!(reqs.iter().all(|r| r.input_len == 3000 && r.output_len == 300));
    }

    #[test]
    fn clipping_respected() {
        let mut g = WorkloadGen::new(
            "clip",
            LengthDist::LogNormal {
                median: 100.0,
                sigma: 3.0,
                lo: 50,
                hi: 200,
            },
            LengthDist::Uniform { lo: 1, hi: 10 },
            3,
        );
        for r in g.generate(1000) {
            assert!((50..=200).contains(&r.input_len));
            assert!((1..=10).contains(&r.output_len));
        }
    }

    #[test]
    fn inverted_uniform_bounds_fail_at_construction() {
        let err = WorkloadGen::try_new(
            "bad",
            LengthDist::Uniform { lo: 100, hi: 10 },
            LengthDist::Constant(7),
            0,
        )
        .unwrap_err();
        assert!(err.contains("lo 100 > hi 10"), "unexpected error: {err}");
    }

    #[test]
    fn inverted_lognormal_clip_fails_at_construction() {
        let err = WorkloadGen::try_new(
            "bad",
            LengthDist::Constant(7),
            LengthDist::LogNormal { median: 100.0, sigma: 1.0, lo: 500, hi: 4 },
            0,
        )
        .unwrap_err();
        assert!(err.contains("lo 500 > hi 4"), "unexpected error: {err}");
    }

    #[test]
    #[should_panic(expected = "invalid workload distribution")]
    fn new_panics_with_clear_message_on_bad_bounds() {
        WorkloadGen::new(
            "bad",
            LengthDist::Uniform { lo: 9, hi: 3 },
            LengthDist::Constant(7),
            0,
        );
    }

    #[test]
    fn invalid_arrival_rate_fails_at_construction() {
        use crate::arrival::ArrivalDist;
        let err = WorkloadGen::sharegpt(0)
            .with_arrivals(ArrivalDist::Poisson { rate: -2.0 })
            .expect_err("negative rate must be rejected");
        assert!(err.contains("rate"), "unexpected error: {err}");
    }

    #[test]
    fn arrivals_do_not_perturb_the_length_stream() {
        use crate::arrival::ArrivalDist;
        let offline = WorkloadGen::sharegpt(11).generate(64);
        let online = WorkloadGen::sharegpt(11)
            .with_arrivals(ArrivalDist::Poisson { rate: 4.0 })
            .unwrap()
            .generate(64);
        assert_eq!(offline.len(), online.len());
        for (a, b) in offline.iter().zip(&online) {
            assert_eq!((a.id, a.input_len, a.output_len), (b.id, b.input_len, b.output_len));
            assert_eq!(a.arrival_s, 0.0);
        }
        assert!(online.iter().any(|r| r.arrival_s > 0.0));
        assert!(online.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }

    #[test]
    fn zero_interval_arrivals_match_offline_byte_for_byte() {
        use crate::arrival::ArrivalDist;
        let offline = WorkloadGen::sharegpt(11).generate(64);
        let zeros = WorkloadGen::sharegpt(11)
            .with_arrivals(ArrivalDist::Constant { interval: 0.0 })
            .unwrap()
            .generate(64);
        assert_eq!(offline, zeros, "all-zero arrivals must equal the legacy path");
    }

    #[test]
    fn arrival_stream_is_seed_deterministic() {
        use crate::arrival::ArrivalDist;
        let dist = ArrivalDist::Gamma { rate: 2.0, cv: 2.0 };
        let gen = |seed| {
            WorkloadGen::sharegpt(seed)
                .with_arrivals(dist.clone())
                .unwrap()
                .generate(64)
        };
        assert_eq!(gen(5), gen(5));
        let a: Vec<f64> = gen(5).iter().map(|r| r.arrival_s).collect();
        let b: Vec<f64> = gen(6).iter().map(|r| r.arrival_s).collect();
        assert_ne!(a, b, "different seeds must produce different arrival streams");
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut g = WorkloadGen::sharegpt(0);
        let a = g.generate(10);
        let b = g.generate(10);
        assert_eq!(a.last().unwrap().id, 9);
        assert_eq!(b.first().unwrap().id, 10);
    }
}
