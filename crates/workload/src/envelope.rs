//! Time-varying arrival-rate envelopes and day-scale trace
//! generation for elastic-fleet (autoscaling) experiments.
//!
//! An online-serving sweep holds the offered rate constant per point;
//! a capacity-planning question is the opposite: the rate follows a
//! production-shaped daily curve and the fleet must follow it. A
//! [`RateEnvelope`] describes that curve analytically — sinusoidal
//! (one daily peak), bimodal (morning + evening peaks), or constant —
//! and samples it into concrete arrival times via Poisson thinning
//! (a non-homogeneous Poisson process: candidates arrive at the peak
//! rate, each kept with probability `rate(t) / peak`). Sampling is
//! seeded and deterministic, like every other generator in this
//! crate.
//!
//! Real traces load through [`parse_trace`] / [`load_trace_file`]
//! (one absolute arrival time per line) and feed the same
//! [`crate::ArrivalDist::Trace`] consumers; [`unit_rate_pattern`]
//! normalizes either kind to unit mean rate so load sweeps can
//! time-scale one pattern per grid cell exactly as they do with the
//! unit-rate Poisson pattern.

use crate::arrival::ArrivalDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An arrival-rate curve over the day (periodic: `rate_at` wraps at
/// `period_s`, so traces longer than one period repeat the shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateEnvelope {
    /// Flat rate — the degenerate envelope (a homogeneous Poisson
    /// process; useful as a sweep baseline).
    Constant {
        /// Offered load, requests/second (finite, > 0).
        rps: f64,
    },
    /// One daily cycle: trough at t = 0, peak at half period. The
    /// raised cosine is taken to the `sharpness` power, so `1.0` is
    /// the classic sinusoid (half the day above the midpoint) while
    /// higher values concentrate traffic into a narrower peak — real
    /// daily curves are peakier than a pure sinusoid, and the
    /// mean-to-peak ratio (what an elastic fleet saves against a
    /// peak-provisioned static one) drops from 1/2 at `1.0` to 3/8
    /// at `2.0` and 5/16 at `3.0`.
    Sinusoidal {
        /// Rate at the trough, requests/second (finite, ≥ 0).
        trough_rps: f64,
        /// Rate at the peak, requests/second (finite, ≥ trough).
        peak_rps: f64,
        /// Cycle length, seconds (finite, > 0); 86 400 = one day.
        period_s: f64,
        /// Peak concentration exponent (finite, ≥ 1).
        sharpness: f64,
    },
    /// Two Gaussian peaks over a base rate (morning + evening rush).
    /// The bumps combine by `max`, so `peak_rps` is attained exactly
    /// at each center.
    Bimodal {
        /// Off-peak floor, requests/second (finite, ≥ 0).
        base_rps: f64,
        /// Rate at each peak center, requests/second (finite, ≥ base).
        peak_rps: f64,
        /// Cycle length, seconds (finite, > 0).
        period_s: f64,
        /// First peak center as a fraction of the period, in [0, 1).
        peak1_frac: f64,
        /// Second peak center as a fraction of the period, in [0, 1).
        peak2_frac: f64,
        /// Gaussian σ of each bump as a fraction of the period
        /// (finite, > 0).
        width_frac: f64,
    },
}

impl RateEnvelope {
    /// A pure sinusoidal day swinging between `trough_rps` and
    /// `peak_rps` (sharpness 1).
    pub fn diurnal(trough_rps: f64, peak_rps: f64, day_s: f64) -> Self {
        Self::diurnal_sharp(trough_rps, peak_rps, day_s, 1.0)
    }

    /// A diurnal day with an explicit peak-concentration exponent
    /// (see [`RateEnvelope::Sinusoidal`]).
    pub fn diurnal_sharp(trough_rps: f64, peak_rps: f64, day_s: f64, sharpness: f64) -> Self {
        RateEnvelope::Sinusoidal { trough_rps, peak_rps, period_s: day_s, sharpness }
    }

    /// The default two-rush-hour shape: peaks at 35% and 75% of the
    /// day, each σ = 8% of the day wide.
    pub fn rush_hours(base_rps: f64, peak_rps: f64, day_s: f64) -> Self {
        RateEnvelope::Bimodal {
            base_rps,
            peak_rps,
            period_s: day_s,
            peak1_frac: 0.35,
            peak2_frac: 0.75,
            width_frac: 0.08,
        }
    }

    /// Validate the envelope's parameters (called by every sampler
    /// entry point, so malformed rates fail with a clear message).
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |name: &str, v: f64| -> Result<(), String> {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!("envelope {name} must be finite and >= 0, got {v}"))
            }
        };
        let positive = |name: &str, v: f64| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("envelope {name} must be finite and > 0, got {v}"))
            }
        };
        match *self {
            RateEnvelope::Constant { rps } => positive("rps", rps),
            RateEnvelope::Sinusoidal { trough_rps, peak_rps, period_s, sharpness } => {
                finite_nonneg("trough_rps", trough_rps)?;
                positive("peak_rps", peak_rps)?;
                positive("period_s", period_s)?;
                if peak_rps < trough_rps {
                    return Err(format!(
                        "envelope peak_rps {peak_rps} must be >= trough_rps {trough_rps}"
                    ));
                }
                if !(sharpness.is_finite() && sharpness >= 1.0) {
                    return Err(format!(
                        "envelope sharpness must be finite and >= 1, got {sharpness}"
                    ));
                }
                Ok(())
            }
            RateEnvelope::Bimodal {
                base_rps,
                peak_rps,
                period_s,
                peak1_frac,
                peak2_frac,
                width_frac,
            } => {
                finite_nonneg("base_rps", base_rps)?;
                positive("peak_rps", peak_rps)?;
                positive("period_s", period_s)?;
                positive("width_frac", width_frac)?;
                if peak_rps < base_rps {
                    return Err(format!(
                        "envelope peak_rps {peak_rps} must be >= base_rps {base_rps}"
                    ));
                }
                for (name, f) in [("peak1_frac", peak1_frac), ("peak2_frac", peak2_frac)] {
                    if !(f.is_finite() && (0.0..1.0).contains(&f)) {
                        return Err(format!(
                            "envelope {name} must be in [0, 1), got {f}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Instantaneous rate at time `t` seconds (periodic in the
    /// envelope's period).
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            RateEnvelope::Constant { rps } => rps,
            RateEnvelope::Sinusoidal { trough_rps, peak_rps, period_s, sharpness } => {
                let u = t.rem_euclid(period_s);
                let phase = 2.0 * std::f64::consts::PI * u / period_s;
                let raised = 0.5 * (1.0 - phase.cos());
                trough_rps + (peak_rps - trough_rps) * raised.powf(sharpness)
            }
            RateEnvelope::Bimodal {
                base_rps,
                peak_rps,
                period_s,
                peak1_frac,
                peak2_frac,
                width_frac,
            } => {
                let u = t.rem_euclid(period_s);
                let sigma = width_frac * period_s;
                let bump = |center_frac: f64| -> f64 {
                    let c = center_frac * period_s;
                    // Circular distance, so a peak near the period
                    // boundary wraps instead of being cut off.
                    let d = (u - c).abs().min(period_s - (u - c).abs());
                    (-0.5 * (d / sigma) * (d / sigma)).exp()
                };
                base_rps + (peak_rps - base_rps) * bump(peak1_frac).max(bump(peak2_frac))
            }
        }
    }

    /// The envelope's maximum rate (the thinning bound, and the rate
    /// a peak-provisioned static fleet is sized against).
    pub fn peak_rps(&self) -> f64 {
        match *self {
            RateEnvelope::Constant { rps } => rps,
            RateEnvelope::Sinusoidal { peak_rps, .. } => peak_rps,
            RateEnvelope::Bimodal { peak_rps, .. } => peak_rps,
        }
    }

    /// Mean rate over one period (analytic where closed-form, a
    /// deterministic 4096-step trapezoid otherwise).
    pub fn mean_rps(&self) -> f64 {
        match *self {
            RateEnvelope::Constant { rps } => rps,
            RateEnvelope::Sinusoidal { trough_rps, peak_rps, sharpness: 1.0, .. } => {
                0.5 * (trough_rps + peak_rps)
            }
            RateEnvelope::Sinusoidal { period_s, .. }
            | RateEnvelope::Bimodal { period_s, .. } => {
                const STEPS: usize = 4096;
                let h = period_s / STEPS as f64;
                let mut acc = 0.0;
                for i in 0..STEPS {
                    let a = self.rate_at(i as f64 * h);
                    let b = self.rate_at((i + 1) as f64 * h);
                    acc += 0.5 * (a + b) * h;
                }
                acc / period_s
            }
        }
    }

    /// Sample every arrival in `[0, duration_s)` by Poisson thinning,
    /// deterministically for a given seed. The returned times are
    /// nondecreasing and feed [`crate::ArrivalDist::Trace`] directly.
    pub fn sample_trace(&self, duration_s: f64, seed: u64) -> Result<Vec<f64>, String> {
        self.validate()?;
        if !(duration_s.is_finite() && duration_s > 0.0) {
            return Err(format!(
                "trace duration must be finite and > 0, got {duration_s}"
            ));
        }
        let mut out = Vec::new();
        let mut thin = Thinner::new(*self, seed);
        while let Some(t) = thin.next_before(duration_s) {
            out.push(t);
        }
        Ok(out)
    }

    /// Sample exactly `n` arrivals (the periodic envelope continues
    /// past one period), deterministically for a given seed. Used
    /// where a fixed request count needs trace-shaped pacing, e.g.
    /// the `fleet` bin's `--trace diurnal` pattern.
    pub fn sample_n(&self, n: usize, seed: u64) -> Result<Vec<f64>, String> {
        self.validate()?;
        let mut out = Vec::with_capacity(n);
        let mut thin = Thinner::new(*self, seed);
        while out.len() < n {
            out.push(thin.next());
        }
        Ok(out)
    }
}

/// Incremental non-homogeneous Poisson sampler (thinning at the
/// envelope's peak rate).
struct Thinner {
    env: RateEnvelope,
    peak: f64,
    rng: StdRng,
    clock_s: f64,
}

impl Thinner {
    fn new(env: RateEnvelope, seed: u64) -> Self {
        Thinner {
            env,
            peak: env.peak_rps(),
            rng: StdRng::seed_from_u64(seed),
            clock_s: 0.0,
        }
    }

    /// The next accepted arrival time.
    fn next(&mut self) -> f64 {
        loop {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.clock_s += -u.ln() / self.peak;
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * self.peak <= self.env.rate_at(self.clock_s) {
                return self.clock_s;
            }
        }
    }

    /// The next accepted arrival before `horizon`, or `None` once the
    /// candidate clock passes it.
    fn next_before(&mut self, horizon: f64) -> Option<f64> {
        while self.clock_s < horizon {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.clock_s += -u.ln() / self.peak;
            if self.clock_s >= horizon {
                return None;
            }
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * self.peak <= self.env.rate_at(self.clock_s) {
                return Some(self.clock_s);
            }
        }
        None
    }
}

/// Parse a replayed arrival trace: one absolute arrival time (seconds)
/// per line; blank lines and `#` comments are skipped. The times must
/// be finite, non-negative, and nondecreasing. They are **re-based**
/// so the first arrival defines t = 0: traces exported with epoch or
/// mid-day timestamps would otherwise prepend hours (or decades) of
/// dead air — distorting normalized load in the fleet sweeps and
/// exploding the autoscale controller's window axis.
pub fn parse_trace(text: &str) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let t: f64 = line.parse().map_err(|_| {
            format!("trace line {}: not a number: {line:?}", lineno + 1)
        })?;
        times.push(t);
    }
    if times.is_empty() {
        return Err("trace file has no arrival times".into());
    }
    ArrivalDist::Trace(times.clone()).validate()?;
    let start = times[0];
    if start > 0.0 {
        for t in &mut times {
            *t -= start;
        }
    }
    Ok(times)
}

/// Load an arrival trace from a file (see [`parse_trace`] for the
/// format).
pub fn load_trace_file(path: &str) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {path}: {e}"))?;
    parse_trace(&text)
}

/// Normalize arrival `times` into a unit-mean-rate pattern of exactly
/// `n` points: truncated or clamp-extended to `n` (repeating the last
/// time, the [`crate::ArrivalDist::Trace`] convention), then
/// time-scaled so the mean rate over the pattern is 1 request/second.
/// Load sweeps divide by the offered rate per grid cell, exactly as
/// they do with a unit-rate Poisson pattern.
pub fn unit_rate_pattern(times: &[f64], n: usize) -> Result<Vec<f64>, String> {
    if n == 0 {
        return Err("unit-rate pattern needs at least one request".into());
    }
    if times.is_empty() {
        return Err("unit-rate pattern needs a non-empty trace".into());
    }
    ArrivalDist::Trace(times.to_vec()).validate()?;
    let last_used = times[times.len().min(n) - 1];
    if last_used <= 0.0 {
        return Err(format!(
            "trace must span positive time to carry a rate, last used time is {last_used}"
        ));
    }
    let scale = n as f64 / last_used;
    Ok((0..n)
        .map(|i| times.get(i).copied().unwrap_or(last_used) * scale)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinusoidal_peaks_mid_period_and_wraps() {
        let env = RateEnvelope::diurnal(1.0, 5.0, 100.0);
        assert!((env.rate_at(0.0) - 1.0).abs() < 1e-12);
        assert!((env.rate_at(50.0) - 5.0).abs() < 1e-12);
        assert!((env.rate_at(150.0) - 5.0).abs() < 1e-9, "periodic wrap");
        assert!((env.mean_rps() - 3.0).abs() < 1e-12);
        assert_eq!(env.peak_rps(), 5.0);
    }

    #[test]
    fn sharpness_concentrates_the_peak_without_moving_it() {
        let flat = RateEnvelope::diurnal(0.0, 4.0, 100.0);
        let sharp = RateEnvelope::diurnal_sharp(0.0, 4.0, 100.0, 3.0);
        // Peak value and location unchanged.
        assert!((sharp.rate_at(50.0) - 4.0).abs() < 1e-12);
        assert_eq!(sharp.peak_rps(), 4.0);
        // Off-peak shoulders drop below the pure sinusoid.
        assert!(sharp.rate_at(25.0) < flat.rate_at(25.0));
        // Mean-to-peak ratio: 1/2 for the sinusoid, 5/16 for p = 3.
        assert!((flat.mean_rps() / 4.0 - 0.5).abs() < 1e-9);
        assert!((sharp.mean_rps() / 4.0 - 5.0 / 16.0).abs() < 1e-3);
        assert!(RateEnvelope::diurnal_sharp(0.0, 1.0, 10.0, 0.5).validate().is_err());
    }

    #[test]
    fn bimodal_attains_peak_at_both_centers() {
        let env = RateEnvelope::rush_hours(0.5, 4.0, 1000.0);
        assert!((env.rate_at(350.0) - 4.0).abs() < 1e-9);
        assert!((env.rate_at(750.0) - 4.0).abs() < 1e-9);
        // Midnight sits far from both peaks.
        assert!(env.rate_at(0.0) < 1.0);
        let mean = env.mean_rps();
        assert!(mean > 0.5 && mean < 4.0, "mean {mean} between base and peak");
    }

    #[test]
    fn thinning_is_seeded_nondecreasing_and_tracks_the_mean() {
        let env = RateEnvelope::diurnal(1.0, 3.0, 500.0);
        let a = env.sample_trace(500.0, 9).unwrap();
        let b = env.sample_trace(500.0, 9).unwrap();
        assert_eq!(a, b, "same seed must replay the same trace");
        assert_ne!(a, env.sample_trace(500.0, 10).unwrap());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..500.0).contains(&t)));
        // Expected count = mean_rps * duration = 1000; thinning noise
        // stays well within ±20% at this size.
        let n = a.len() as f64;
        assert!((800.0..1200.0).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn thinning_concentrates_arrivals_at_the_peak() {
        let env = RateEnvelope::diurnal(0.2, 4.0, 1000.0);
        let times = env.sample_trace(1000.0, 3).unwrap();
        let trough_half = times.iter().filter(|&&t| !(250.0..750.0).contains(&t)).count();
        let peak_half = times.len() - trough_half;
        assert!(
            peak_half > 2 * trough_half,
            "peak half must dominate: {peak_half} vs {trough_half}"
        );
    }

    #[test]
    fn sample_n_extends_past_one_period() {
        let env = RateEnvelope::diurnal(1.0, 2.0, 10.0);
        let times = env.sample_n(100, 4).unwrap();
        assert_eq!(times.len(), 100);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(*times.last().unwrap() > 10.0, "must continue into later periods");
    }

    #[test]
    fn invalid_envelopes_error() {
        assert!(RateEnvelope::Constant { rps: 0.0 }.validate().is_err());
        assert!(RateEnvelope::diurnal(2.0, 1.0, 100.0).validate().is_err());
        assert!(RateEnvelope::diurnal(1.0, 2.0, 0.0).validate().is_err());
        assert!(RateEnvelope::diurnal(1.0, f64::NAN, 100.0).validate().is_err());
        let bad_frac = RateEnvelope::Bimodal {
            base_rps: 0.1,
            peak_rps: 1.0,
            period_s: 100.0,
            peak1_frac: 1.5,
            peak2_frac: 0.5,
            width_frac: 0.1,
        };
        assert!(bad_frac.validate().is_err());
        assert!(RateEnvelope::diurnal(1.0, 2.0, 100.0).sample_trace(-5.0, 0).is_err());
        assert!(RateEnvelope::diurnal(1.0, 2.0, 100.0).validate().is_ok());
    }

    #[test]
    fn parse_trace_skips_comments_and_validates() {
        let text = "# a trace\n0.0\n1.5\n\n2.5\n";
        assert_eq!(parse_trace(text).unwrap(), vec![0.0, 1.5, 2.5]);
        assert!(parse_trace("1.0\n0.5\n").is_err(), "decreasing times");
        assert!(parse_trace("abc\n").is_err());
        assert!(parse_trace("# only comments\n").is_err());
    }

    #[test]
    fn parse_trace_rebases_late_starts_to_zero() {
        // A trace exported with mid-day (or epoch) timestamps must
        // not carry its offset as dead air.
        let times = parse_trace("3600.0\n3601.5\n3604.0\n").unwrap();
        assert_eq!(times, vec![0.0, 1.5, 4.0]);
        let epoch = parse_trace("1750000000.0\n1750000002.0\n").unwrap();
        assert_eq!(epoch, vec![0.0, 2.0]);
    }

    #[test]
    fn unit_rate_pattern_normalizes_truncates_and_extends() {
        // 4 points over 2 s = rate 2; normalized to rate 1 over 4 s.
        let unit = unit_rate_pattern(&[0.0, 1.0, 1.5, 2.0], 4).unwrap();
        assert_eq!(unit.len(), 4);
        assert!((unit.last().unwrap() - 4.0).abs() < 1e-12);
        // Truncation: only the first 2 points count.
        let trunc = unit_rate_pattern(&[0.0, 1.0, 1.5, 2.0], 2).unwrap();
        assert!((trunc.last().unwrap() - 2.0).abs() < 1e-12);
        // Extension repeats the last time before scaling.
        let ext = unit_rate_pattern(&[0.0, 1.0], 4).unwrap();
        assert_eq!(ext.len(), 4);
        assert!((ext[1] - ext[3]).abs() < 1e-12 || ext[1] < ext[3]);
        assert!((ext.last().unwrap() - 4.0).abs() < 1e-12);
        // Degenerate traces carry no rate.
        assert!(unit_rate_pattern(&[0.0, 0.0], 2).is_err());
        assert!(unit_rate_pattern(&[], 2).is_err());
        assert!(unit_rate_pattern(&[0.0, 1.0], 0).is_err());
    }
}
