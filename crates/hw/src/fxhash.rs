//! FNV/FxHash-style multiplicative hasher shared by the workspace's
//! hot-path integer-keyed maps (the paged KV sequence map) — much
//! cheaper than SipHash for small exact keys.
//!
//! Only use it where map iteration order cannot leak into user-visible
//! output: the hasher is not DoS-resistant and its order is arbitrary.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiplicative hasher. Construct via `FxBuildHasher`.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(1), h(2));
        let mut m: HashMap<u64, u64, FxBuildHasher> = HashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&500), Some(&1000));
    }
}
