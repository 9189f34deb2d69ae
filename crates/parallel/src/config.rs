//! The `(DP, TP, PP)` configuration triple.

use std::fmt;
use std::str::FromStr;

/// A static parallelization strategy: data parallelism × tensor
/// parallelism × pipeline parallelism.
///
/// The paper labels these `D{dp}T{tp}P{pp}`, omitting degree-1
/// dimensions (so `"P8"` is `DP=1, TP=1, PP=8` and `"T4P2"` is
/// `DP=1, TP=4, PP=2`). [`FromStr`]/[`fmt::Display`] implement that
/// syntax, and also accept the long forms `TP4PP2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Data-parallel degree (model replicas).
    pub dp: usize,
    /// Tensor-parallel degree (weight shards per replica).
    pub tp: usize,
    /// Pipeline-parallel degree (layer stages per replica).
    pub pp: usize,
}

impl ParallelConfig {
    /// Construct a config; all degrees must be ≥ 1.
    pub fn new(dp: usize, tp: usize, pp: usize) -> Self {
        assert!(dp >= 1 && tp >= 1 && pp >= 1, "degrees must be >= 1");
        ParallelConfig { dp, tp, pp }
    }

    /// Pure tensor parallelism of degree `tp`.
    pub fn tp(tp: usize) -> Self {
        Self::new(1, tp, 1)
    }

    /// Pure pipeline parallelism of degree `pp`.
    pub fn pp(pp: usize) -> Self {
        Self::new(1, 1, pp)
    }

    /// Total GPUs this configuration occupies.
    pub fn num_gpus(&self) -> usize {
        self.dp * self.tp * self.pp
    }

    /// Flat GPU index for a `(dp_rank, pp_rank, tp_rank)` coordinate.
    /// The rank order `(dp, pp, tp)` is fixed workspace-wide so that
    /// shard maps from different configs refer to the same physical
    /// GPUs.
    pub fn gpu_index(&self, dp_rank: usize, pp_rank: usize, tp_rank: usize) -> usize {
        debug_assert!(dp_rank < self.dp && pp_rank < self.pp && tp_rank < self.tp);
        (dp_rank * self.pp + pp_rank) * self.tp + tp_rank
    }

    /// Inverse of [`Self::gpu_index`]: `(dp_rank, pp_rank, tp_rank)`.
    pub fn coords(&self, gpu: usize) -> (usize, usize, usize) {
        debug_assert!(gpu < self.num_gpus());
        let tp_rank = gpu % self.tp;
        let pp_rank = (gpu / self.tp) % self.pp;
        let dp_rank = gpu / (self.tp * self.pp);
        (dp_rank, pp_rank, tp_rank)
    }

    /// Layer range `[start, end)` owned by pipeline stage `pp_rank`
    /// when the model has `num_layers` layers. Remainder layers go to
    /// the earliest stages.
    pub fn stage_layers(&self, num_layers: usize, pp_rank: usize) -> (usize, usize) {
        debug_assert!(pp_rank < self.pp);
        let base = num_layers / self.pp;
        let extra = num_layers % self.pp;
        let start = pp_rank * base + pp_rank.min(extra);
        let len = base + usize::from(pp_rank < extra);
        (start, start + len)
    }

    /// Number of layers on the largest pipeline stage.
    pub fn max_stage_layers(&self, num_layers: usize) -> usize {
        num_layers / self.pp + usize::from(!num_layers.is_multiple_of(self.pp))
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if self.dp > 1 {
            write!(f, "D{}", self.dp)?;
            wrote = true;
        }
        if self.tp > 1 {
            write!(f, "T{}", self.tp)?;
            wrote = true;
        }
        if self.pp > 1 {
            write!(f, "P{}", self.pp)?;
            wrote = true;
        }
        if !wrote {
            write!(f, "T1")?;
        }
        Ok(())
    }
}

/// Error parsing a [`ParallelConfig`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError(pub String);

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parallel config label: {}", self.0)
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for ParallelConfig {
    type Err = ParseConfigError;

    /// Accepts `D2T2P2`, `T4`, `P8`, `TP4PP2`, `DP2TP2PP2`
    /// (case-insensitive). Missing dimensions default to 1.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let up = s.to_ascii_uppercase();
        let bytes = up.as_bytes();
        let (mut dp, mut tp, mut pp) = (1usize, 1usize, 1usize);
        let mut i = 0;
        let mut any = false;
        while i < bytes.len() {
            // Read dimension tag: D/DP/T/TP/P/PP.
            let dim = match bytes[i] {
                b'D' => {
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'P' {
                        i += 1;
                    }
                    b'D'
                }
                b'T' => {
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'P' {
                        i += 1;
                    }
                    b'T'
                }
                b'P' => {
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'P' {
                        i += 1;
                    }
                    b'P'
                }
                _ => return Err(ParseConfigError(s.to_string())),
            };
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if start == i {
                return Err(ParseConfigError(s.to_string()));
            }
            let val: usize = up[start..i]
                .parse()
                .map_err(|_| ParseConfigError(s.to_string()))?;
            if val == 0 {
                return Err(ParseConfigError(s.to_string()));
            }
            match dim {
                b'D' => dp = val,
                b'T' => tp = val,
                b'P' => pp = val,
                _ => unreachable!(),
            }
            any = true;
        }
        if !any {
            return Err(ParseConfigError(s.to_string()));
        }
        Ok(ParallelConfig { dp, tp, pp })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_labels() {
        assert_eq!("D2T2P2".parse::<ParallelConfig>().unwrap(), ParallelConfig::new(2, 2, 2));
        assert_eq!("P8".parse::<ParallelConfig>().unwrap(), ParallelConfig::pp(8));
        assert_eq!("T4P2".parse::<ParallelConfig>().unwrap(), ParallelConfig::new(1, 4, 2));
        assert_eq!("TP4PP2".parse::<ParallelConfig>().unwrap(), ParallelConfig::new(1, 4, 2));
        assert_eq!("dp2tp2pp2".parse::<ParallelConfig>().unwrap(), ParallelConfig::new(2, 2, 2));
        assert_eq!("t1".parse::<ParallelConfig>().unwrap(), ParallelConfig::new(1, 1, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<ParallelConfig>().is_err());
        assert!("X4".parse::<ParallelConfig>().is_err());
        assert!("T0".parse::<ParallelConfig>().is_err());
        assert!("T".parse::<ParallelConfig>().is_err());
        assert!("T4Q2".parse::<ParallelConfig>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for c in [
            ParallelConfig::new(1, 1, 8),
            ParallelConfig::new(1, 4, 2),
            ParallelConfig::new(2, 2, 2),
            ParallelConfig::new(1, 1, 1),
        ] {
            let label = c.to_string();
            assert_eq!(label.parse::<ParallelConfig>().unwrap(), c, "label {label}");
        }
        assert_eq!(ParallelConfig::new(2, 4, 1).to_string(), "D2T4");
    }

    #[test]
    fn gpu_index_coords_roundtrip() {
        let c = ParallelConfig::new(2, 2, 2);
        for g in 0..c.num_gpus() {
            let (d, p, t) = c.coords(g);
            assert_eq!(c.gpu_index(d, p, t), g);
        }
    }

    #[test]
    fn stage_layers_partition_everything() {
        let c = ParallelConfig::pp(3);
        // 40 layers across 3 stages: 14/13/13.
        let spans: Vec<_> = (0..3).map(|r| c.stage_layers(40, r)).collect();
        assert_eq!(spans[0], (0, 14));
        assert_eq!(spans[1], (14, 27));
        assert_eq!(spans[2], (27, 40));
        assert_eq!(c.max_stage_layers(40), 14);
    }
}
