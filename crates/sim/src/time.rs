//! Simulation time: `f64` seconds with a total order.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// Wraps `f64` and provides `Ord` (NaN is forbidden by construction:
/// all constructors assert finiteness), so times can key ordered
/// collections like the fleet event queue. The default is time zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Panics on NaN/∞ or negative values.
    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid SimTime: {s}");
        SimTime(s)
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finiteness is guaranteed by construction.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.5);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert!((b - a - 1.5).abs() < 1e-12);
        assert_eq!(a + 1.5, b);
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn nan_rejected() {
        SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn negative_rejected() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    fn zero_is_origin() {
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::ZERO + 0.0, SimTime::ZERO);
    }
}
