//! GPU device specifications (paper Table 1).

use crate::efficiency;
use crate::units::{ByteSize, GB_PER_S, GIB, TFLOPS};

/// Performance-relevant specification of a single GPU.
///
/// Mirrors Table 1 of the paper. `peak_flops` is the fp16 dense
/// throughput (tensor cores); `hbm_bw` is datasheet memory bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A10"`.
    pub name: String,
    /// Total device memory in bytes.
    pub mem_bytes: u64,
    /// Datasheet HBM/GDDR bandwidth in bytes/second.
    pub hbm_bw: f64,
    /// Peak fp16 throughput in FLOP/second.
    pub peak_flops: f64,
    /// Whether this part has NVLink connectivity.
    pub has_nvlink: bool,
}

impl GpuSpec {
    /// NVIDIA A10: 24 GiB, 600 GB/s, 125 TFLOPS fp16, PCIe only.
    pub fn a10() -> Self {
        GpuSpec {
            name: "A10".to_string(),
            mem_bytes: 24 * GIB,
            hbm_bw: 600.0 * GB_PER_S,
            peak_flops: 125.0 * TFLOPS,
            has_nvlink: false,
        }
    }

    /// NVIDIA L4: 24 GiB, 300 GB/s, 121 TFLOPS fp16, PCIe only.
    pub fn l4() -> Self {
        GpuSpec {
            name: "L4".to_string(),
            mem_bytes: 24 * GIB,
            hbm_bw: 300.0 * GB_PER_S,
            peak_flops: 121.0 * TFLOPS,
            has_nvlink: false,
        }
    }

    /// NVIDIA A100 40 GiB SXM: 1555 GB/s, 312 TFLOPS fp16, NVLink.
    pub fn a100_40g_sxm() -> Self {
        GpuSpec {
            name: "A100-40G-SXM".to_string(),
            mem_bytes: 40 * GIB,
            hbm_bw: 1555.0 * GB_PER_S,
            peak_flops: 312.0 * TFLOPS,
            has_nvlink: true,
        }
    }

    /// NVIDIA A100 40 GiB PCIe: same silicon as SXM but PCIe-attached
    /// (paper §6.4 "A100 + PCIe").
    pub fn a100_40g_pcie() -> Self {
        GpuSpec {
            name: "A100-40G-PCIE".to_string(),
            mem_bytes: 40 * GIB,
            hbm_bw: 1555.0 * GB_PER_S,
            peak_flops: 312.0 * TFLOPS,
            has_nvlink: false,
        }
    }

    /// Look up a preset by (case-insensitive) name. Returns `None` for
    /// unknown names.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "a10" => Some(Self::a10()),
            "l4" => Some(Self::l4()),
            "a100" | "a100-sxm" | "a100-40g-sxm" => Some(Self::a100_40g_sxm()),
            "a100-pcie" | "a100-40g-pcie" => Some(Self::a100_40g_pcie()),
            _ => None,
        }
    }

    /// Device memory as a [`ByteSize`].
    pub fn mem(&self) -> ByteSize {
        ByteSize(self.mem_bytes)
    }

    /// Achievable fp16 GEMM throughput (FLOP/s) after MFU derating.
    pub fn effective_gemm_flops(&self) -> f64 {
        self.peak_flops * efficiency::MFU_GEMM
    }

    /// Achievable attention-kernel throughput (FLOP/s).
    pub fn effective_attn_flops(&self) -> f64 {
        self.peak_flops * efficiency::MFU_ATTENTION
    }

    /// Achievable HBM streaming bandwidth (bytes/s).
    pub fn effective_hbm_bw(&self) -> f64 {
        self.hbm_bw * efficiency::HBM_EFFICIENCY
    }

    /// Time to stream `bytes` from device memory to the compute units.
    pub fn hbm_time(&self, bytes: f64) -> f64 {
        bytes / self.effective_hbm_bw()
    }

    /// Time to execute `flops` floating-point operations in a dense
    /// GEMM.
    pub fn gemm_time(&self, flops: f64) -> f64 {
        flops / self.effective_gemm_flops()
    }

    /// Time to execute `flops` in an attention kernel.
    pub fn attn_time(&self, flops: f64) -> f64 {
        flops / self.effective_attn_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let a10 = GpuSpec::a10();
        assert_eq!(a10.mem_bytes, 24 * GIB);
        assert!((a10.hbm_bw - 600e9).abs() < 1.0);
        assert!((a10.peak_flops - 125e12).abs() < 1.0);
        assert!(!a10.has_nvlink);

        let l4 = GpuSpec::l4();
        assert_eq!(l4.mem_bytes, 24 * GIB);
        assert!((l4.hbm_bw - 300e9).abs() < 1.0);
        assert!(!l4.has_nvlink);

        let a100 = GpuSpec::a100_40g_sxm();
        assert_eq!(a100.mem_bytes, 40 * GIB);
        assert!((a100.hbm_bw - 1555e9).abs() < 1.0);
        assert!(a100.has_nvlink);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(GpuSpec::by_name("A10").unwrap().name, "A10");
        assert_eq!(GpuSpec::by_name("l4").unwrap().name, "L4");
        assert_eq!(GpuSpec::by_name("a100").unwrap().name, "A100-40G-SXM");
        assert_eq!(
            GpuSpec::by_name("a100-pcie").unwrap().name,
            "A100-40G-PCIE"
        );
        assert!(GpuSpec::by_name("h100").is_none());
    }

    #[test]
    fn derated_rates_are_below_peak() {
        let g = GpuSpec::a10();
        assert!(g.effective_gemm_flops() < g.peak_flops);
        assert!(g.effective_hbm_bw() < g.hbm_bw);
        assert!(g.effective_attn_flops() < g.effective_gemm_flops());
    }

    #[test]
    fn time_helpers_scale_linearly() {
        let g = GpuSpec::l4();
        let t1 = g.hbm_time(1e9);
        let t2 = g.hbm_time(2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(g.gemm_time(1e12) > 0.0);
    }

    #[test]
    fn a10_faster_than_l4_on_decode_streaming() {
        // The paper notes A10 has better single-GPU performance than L4
        // at similar PCIe bandwidth, which drives its larger speedups.
        let a10 = GpuSpec::a10();
        let l4 = GpuSpec::l4();
        assert!(a10.hbm_time(1e9) < l4.hbm_time(1e9));
    }
}
