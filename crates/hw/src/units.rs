//! Byte-size and bandwidth unit helpers.
//!
//! All byte quantities in the workspace are `u64` bytes; all times are
//! `f64` seconds; all bandwidths are `f64` bytes/second; all compute
//! rates are `f64` FLOP/second. These helpers exist so call sites read
//! like the paper ("24 GiB", "16 GiB/s") instead of raw exponents.

use std::fmt;

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1024 * MIB;

/// One gigabyte per second, expressed in bytes/second (decimal, as
/// vendor datasheets quote memory bandwidth).
pub const GB_PER_S: f64 = 1e9;

/// One teraFLOP per second.
pub const TFLOPS: f64 = 1e12;

/// A byte count with human-readable `Display`, used in reports and
/// experiment output tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Construct from a number of gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }

    /// Construct from a number of mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// The raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// The size as a floating-point number of gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / GIB as f64
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl From<u64> for ByteSize {
    fn from(b: u64) -> Self {
        ByteSize(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(GIB, 1024 * 1024 * 1024);
        assert_eq!(MIB * 1024, GIB);
        assert_eq!(KIB * 1024, MIB);
    }

    #[test]
    fn bytesize_constructors() {
        assert_eq!(ByteSize::gib(24).bytes(), 24 * GIB);
        assert_eq!(ByteSize::mib(512).bytes(), 512 * MIB);
        assert!((ByteSize::gib(40).as_gib() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn bytesize_display_picks_unit() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize(2 * KIB).to_string(), "2.00 KiB");
        assert_eq!(ByteSize(3 * MIB).to_string(), "3.00 MiB");
        assert_eq!(ByteSize(24 * GIB).to_string(), "24.00 GiB");
    }

    #[test]
    fn bytesize_ordering() {
        assert!(ByteSize::gib(1) < ByteSize::gib(2));
        assert_eq!(ByteSize::from(GIB), ByteSize::gib(1));
    }
}
