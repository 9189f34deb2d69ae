//! Node-level cluster specifications.

use crate::gpu::GpuSpec;
use crate::interconnect::{HostLink, Interconnect};
use crate::units::GIB;

/// A homogeneous single-node GPU cluster, as used throughout the
/// paper's evaluation (4 or 8 identical GPUs plus host memory).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Specification of each (identical) GPU.
    pub gpu: GpuSpec,
    /// Number of GPUs in the node.
    pub num_gpus: usize,
    /// Device-to-device fabric.
    pub interconnect: Interconnect,
    /// CPU<->GPU host link (PCIe in every evaluated system).
    pub host_link: HostLink,
    /// Host (CPU) memory available for KV-cache buffering, per GPU,
    /// in bytes. The paper allocates 80 GiB per GPU.
    pub cpu_mem_per_gpu: u64,
}

impl ClusterSpec {
    /// Build a cluster of `n` GPUs of the given spec, choosing the
    /// fabric from the GPU's NVLink capability and using the paper's
    /// 80 GiB/GPU CPU budget.
    pub fn new(gpu: GpuSpec, n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one GPU");
        let interconnect = if gpu.has_nvlink {
            Interconnect::nvlink()
        } else {
            Interconnect::pcie_4_x8()
        };
        ClusterSpec {
            gpu,
            num_gpus: n,
            interconnect,
            host_link: HostLink::pcie_4_x8(),
            cpu_mem_per_gpu: 80 * GIB,
        }
    }

    /// AWS `g5.48xlarge`-like node: 8× A10.
    pub fn a10x8() -> Self {
        Self::new(GpuSpec::a10(), 8)
    }

    /// 4× A10 (used for the 15B model and the Fig 12 breakdown).
    pub fn a10x4() -> Self {
        Self::new(GpuSpec::a10(), 4)
    }

    /// AWS `g6.48xlarge`-like node: 8× L4.
    pub fn l4x8() -> Self {
        Self::new(GpuSpec::l4(), 8)
    }

    /// 4× L4.
    pub fn l4x4() -> Self {
        Self::new(GpuSpec::l4(), 4)
    }

    /// GCP node: 8× A100-40G SXM with NVLink.
    pub fn a100x8_nvlink() -> Self {
        Self::new(GpuSpec::a100_40g_sxm(), 8)
    }

    /// 8× A100-40G PCIe (no NVLink).
    pub fn a100x8_pcie() -> Self {
        Self::new(GpuSpec::a100_40g_pcie(), 8)
    }

    /// Total device memory across the node, bytes.
    pub fn total_gpu_mem(&self) -> u64 {
        self.gpu.mem_bytes * self.num_gpus as u64
    }

    /// Total host KV-buffer budget across the node, bytes.
    pub fn total_cpu_mem(&self) -> u64 {
        self.cpu_mem_per_gpu * self.num_gpus as u64
    }

    /// A copy of this cluster restricted to `n` of its GPUs (used by
    /// the disaggregation analysis, which splits the node).
    pub fn subset(&self, n: usize) -> Self {
        assert!(n >= 1 && n <= self.num_gpus, "subset size out of range");
        ClusterSpec {
            num_gpus: n,
            ..self.clone()
        }
    }

    /// A copy with the collective bandwidth scaled (Figure 14 sweep).
    pub fn with_allreduce_scale(&self, s: f64) -> Self {
        ClusterSpec {
            interconnect: self.interconnect.with_allreduce_scale(s),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::InterconnectKind;

    #[test]
    fn presets_have_expected_shape() {
        let c = ClusterSpec::a10x8();
        assert_eq!(c.num_gpus, 8);
        assert_eq!(c.interconnect.kind, InterconnectKind::PcieHostBridged);
        assert_eq!(c.cpu_mem_per_gpu, 80 * GIB);

        let c = ClusterSpec::a100x8_nvlink();
        assert_eq!(c.interconnect.kind, InterconnectKind::NvLinkSwitch);

        let c = ClusterSpec::a100x8_pcie();
        assert_eq!(c.interconnect.kind, InterconnectKind::PcieHostBridged);
        assert_eq!(c.gpu.mem_bytes, 40 * GIB);
    }

    #[test]
    fn totals() {
        let c = ClusterSpec::l4x4();
        assert_eq!(c.total_gpu_mem(), 4 * 24 * GIB);
        assert_eq!(c.total_cpu_mem(), 4 * 80 * GIB);
    }

    #[test]
    fn subset_keeps_fabric() {
        let c = ClusterSpec::a100x8_pcie();
        let half = c.subset(4);
        assert_eq!(half.num_gpus, 4);
        assert_eq!(half.interconnect, c.interconnect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_subset_panics() {
        ClusterSpec::a10x4().subset(5);
    }
}
