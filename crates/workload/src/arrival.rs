//! Request arrival processes for online serving workloads.
//!
//! Offline workloads (the paper's setting) make every request
//! available at t = 0; online serving sweeps instead draw arrival
//! times from a seeded process and measure latency/SLO attainment
//! under the resulting queueing. All samplers are deterministic for a
//! given seed, so serving sweeps are reproducible and parallel sweep
//! output is byte-identical to serial.

use crate::request::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An inter-arrival process over simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalDist {
    /// Poisson process: exponential inter-arrival gaps with mean
    /// `1 / rate` (rate in requests/second).
    Poisson {
        /// Offered load, requests/second (finite, > 0).
        rate: f64,
    },
    /// Gamma-renewal process with the given mean rate and coefficient
    /// of variation of the inter-arrival gap. `cv < 1` is smoother
    /// than Poisson, `cv > 1` is burstier, `cv == 1` coincides with
    /// Poisson in distribution.
    Gamma {
        /// Offered load, requests/second (finite, > 0).
        rate: f64,
        /// Coefficient of variation of the gap (finite, > 0).
        cv: f64,
    },
    /// Fixed gap between consecutive arrivals (a paced load
    /// generator). `interval == 0.0` degenerates to the offline
    /// everything-at-t=0 workload.
    Constant {
        /// Gap between arrivals, seconds (finite, ≥ 0).
        interval: f64,
    },
    /// Replayed absolute arrival times, seconds, nondecreasing. When
    /// the trace is shorter than the request count, the remaining
    /// requests all arrive at the last traced time.
    Trace(Vec<f64>),
}

impl ArrivalDist {
    /// Validate the process parameters. Called by every consumer
    /// ([`crate::WorkloadGen::with_arrivals`], [`ArrivalDist::sample_times`])
    /// before any sampling, so malformed rates fail with a clear
    /// message instead of panicking mid-generation.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |name: &str, v: f64| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("arrival {name} must be finite and > 0, got {v}"))
            }
        };
        match self {
            ArrivalDist::Poisson { rate } => positive("rate", *rate),
            ArrivalDist::Gamma { rate, cv } => {
                positive("rate", *rate)?;
                positive("cv", *cv)
            }
            ArrivalDist::Constant { interval } => {
                if interval.is_finite() && *interval >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "arrival interval must be finite and >= 0, got {interval}"
                    ))
                }
            }
            ArrivalDist::Trace(times) => {
                let mut prev = 0.0f64;
                for (i, &t) in times.iter().enumerate() {
                    if !(t.is_finite() && t >= 0.0) {
                        return Err(format!(
                            "trace arrival [{i}] must be finite and >= 0, got {t}"
                        ));
                    }
                    if t < prev {
                        return Err(format!(
                            "trace arrivals must be nondecreasing, [{i}] = {t} after {prev}"
                        ));
                    }
                    prev = t;
                }
                Ok(())
            }
        }
    }

    /// Sample `n` absolute arrival times (nondecreasing, seconds)
    /// starting from t = 0, deterministically for a given seed.
    pub fn sample_times(&self, n: usize, seed: u64) -> Result<Vec<f64>, String> {
        self.validate()?;
        let mut sampler = ArrivalSampler::new(self.clone(), seed);
        Ok((0..n).map(|_| sampler.next_time()).collect())
    }

    /// Attach arrival times from this process to an offline request
    /// set (requests are assigned in slice order).
    pub fn attach(&self, reqs: &[Request], seed: u64) -> Result<Vec<Request>, String> {
        let times = self.sample_times(reqs.len(), seed)?;
        Ok(reqs
            .iter()
            .zip(times)
            .map(|(r, t)| r.with_arrival(t))
            .collect())
    }
}

/// Incremental sampler state for an [`ArrivalDist`] — used by
/// [`crate::WorkloadGen`] so arrivals thread through incremental
/// `generate` calls, and by [`ArrivalDist::sample_times`].
///
/// The sampler owns its own RNG, independent of the length RNG, so
/// attaching an arrival process never perturbs the generated lengths
/// (offline and online workloads with the same seed have identical
/// length streams).
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    dist: ArrivalDist,
    rng: StdRng,
    clock_s: f64,
    trace_pos: usize,
}

impl ArrivalSampler {
    /// Sampler over `dist`, seeded. The caller is expected to have
    /// validated `dist`.
    pub fn new(dist: ArrivalDist, seed: u64) -> Self {
        ArrivalSampler {
            dist,
            rng: StdRng::seed_from_u64(seed),
            clock_s: 0.0,
            trace_pos: 0,
        }
    }

    /// The next absolute arrival time, seconds.
    pub fn next_time(&mut self) -> f64 {
        match &self.dist {
            ArrivalDist::Poisson { rate } => {
                self.clock_s += exp_gap(&mut self.rng, *rate);
            }
            ArrivalDist::Gamma { rate, cv } => {
                // Gap ~ Gamma(shape = 1/cv², scale = cv²/rate):
                // mean 1/rate, coefficient of variation cv.
                let shape = 1.0 / (cv * cv);
                let scale = (cv * cv) / rate;
                self.clock_s += gamma_sample(&mut self.rng, shape) * scale;
            }
            ArrivalDist::Constant { interval } => {
                let t = self.clock_s;
                self.clock_s += interval;
                return t;
            }
            ArrivalDist::Trace(times) => {
                let t = match times.get(self.trace_pos) {
                    Some(&t) => t,
                    None => times.last().copied().unwrap_or(0.0),
                };
                self.trace_pos += 1;
                return t;
            }
        }
        self.clock_s
    }
}

/// One exponential inter-arrival gap with mean `1 / rate`.
fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// One standard normal via Box–Muller (the same construction the
/// lognormal length sampler uses).
fn std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One Gamma(shape, 1) sample (Marsaglia–Tsang squeeze; the shape < 1
/// case boosts through Gamma(shape + 1) · U^(1/shape)).
fn gamma_sample(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = std_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_times_are_nondecreasing_and_seeded() {
        let dist = ArrivalDist::Poisson { rate: 2.0 };
        let a = dist.sample_times(200, 7).unwrap();
        let b = dist.sample_times(200, 7).unwrap();
        assert_eq!(a, b, "same seed must replay the same stream");
        let c = dist.sample_times(200, 8).unwrap();
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap ~ 1/rate over 200 samples.
        let mean_gap = a.last().unwrap() / 200.0;
        assert!((0.3..0.8).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn gamma_matches_requested_rate_and_burstiness_orders() {
        let n = 2000;
        let smooth = ArrivalDist::Gamma { rate: 4.0, cv: 0.25 }
            .sample_times(n, 3)
            .unwrap();
        let bursty = ArrivalDist::Gamma { rate: 4.0, cv: 3.0 }
            .sample_times(n, 3)
            .unwrap();
        for times in [&smooth, &bursty] {
            let mean_gap = times.last().unwrap() / n as f64;
            assert!(
                (0.15..0.35).contains(&mean_gap),
                "mean gap {mean_gap} should be near 1/rate = 0.25"
            );
        }
        let cv_of = |times: &[f64]| {
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / m
        };
        assert!(
            cv_of(&smooth) < 0.5 && cv_of(&bursty) > 1.5,
            "gap cv must track the requested burstiness ({} vs {})",
            cv_of(&smooth),
            cv_of(&bursty)
        );
    }

    #[test]
    fn constant_paces_and_zero_interval_is_offline() {
        let times = ArrivalDist::Constant { interval: 0.5 }.sample_times(4, 0).unwrap();
        assert_eq!(times, vec![0.0, 0.5, 1.0, 1.5]);
        let zeros = ArrivalDist::Constant { interval: 0.0 }.sample_times(4, 0).unwrap();
        assert_eq!(zeros, vec![0.0; 4]);
    }

    #[test]
    fn trace_replays_and_clamps_past_the_end() {
        let dist = ArrivalDist::Trace(vec![0.0, 0.1, 0.4]);
        let times = dist.sample_times(5, 0).unwrap();
        assert_eq!(times, vec![0.0, 0.1, 0.4, 0.4, 0.4]);
    }

    #[test]
    fn invalid_parameters_error_instead_of_panicking() {
        assert!(ArrivalDist::Poisson { rate: 0.0 }.validate().is_err());
        assert!(ArrivalDist::Poisson { rate: f64::NAN }.validate().is_err());
        assert!(ArrivalDist::Poisson { rate: f64::INFINITY }.validate().is_err());
        assert!(ArrivalDist::Gamma { rate: 1.0, cv: -1.0 }.validate().is_err());
        assert!(ArrivalDist::Constant { interval: -0.1 }.validate().is_err());
        assert!(ArrivalDist::Trace(vec![1.0, 0.5]).validate().is_err());
        assert!(ArrivalDist::Trace(vec![0.0, f64::NAN]).validate().is_err());
        assert!(ArrivalDist::Poisson { rate: 3.0 }.validate().is_ok());
    }

    #[test]
    fn attach_preserves_lengths_and_order() {
        let reqs: Vec<Request> = (0..10).map(|i| Request::new(i, 100, 10)).collect();
        let online = ArrivalDist::Poisson { rate: 1.0 }.attach(&reqs, 1).unwrap();
        assert_eq!(online.len(), 10);
        for (a, b) in reqs.iter().zip(&online) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.input_len, b.input_len);
        }
        assert!(online.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }
}
