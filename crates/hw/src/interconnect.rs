//! Inter-device fabric cost models.
//!
//! Two fabrics appear in the paper's evaluation:
//!
//! * **Host-bridged PCIe 4.0 x8** (A10/L4/A100-PCIe instances):
//!   16 GiB/s per direction per device, with every device-to-device hop
//!   staged through the root complex. Collective bandwidth *degrades*
//!   as ranks are added (paper §3.1, Observation 1).
//! * **NVLink switch** (A100 SXM): 600 GB/s per device, near-flat
//!   collective scaling.
//!
//! The all-reduce model is a ring: each rank sends and receives
//! `2·(n−1)/n · size` bytes, so the time is that volume divided by the
//! achievable per-rank bandwidth, plus a per-step latency term. On
//! PCIe the achievable bandwidth itself shrinks with rank count
//! (`1/(1+β·ln n)`), capturing the "more complex communication
//! schemes" the paper blames for falling all-reduce bandwidth.

use crate::efficiency as eff;
use crate::units::GIB;

/// The kind of device-to-device fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectKind {
    /// Devices hang off a PCIe root complex; no direct GPU-to-GPU
    /// links. This is the g5/g6 instance topology.
    PcieHostBridged,
    /// All devices attach to an NVLink switch (NVSwitch).
    NvLinkSwitch,
}

/// A fabric connecting the GPUs of one node, with its cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// Fabric topology class.
    pub kind: InterconnectKind,
    /// Per-device, per-direction link bandwidth in bytes/s
    /// (16 GiB/s for PCIe 4.0 x8; 600 GB/s for NVLink).
    pub link_bw: f64,
    /// Multiplier on collective bandwidth, used by the Figure 14
    /// sensitivity sweep (×0.1 … ×50 of PCIe). 1.0 everywhere else.
    pub allreduce_scale: f64,
}

impl Interconnect {
    /// PCIe 4.0 x8 host-bridged fabric (16 GiB/s per direction).
    pub fn pcie_4_x8() -> Self {
        Interconnect {
            kind: InterconnectKind::PcieHostBridged,
            link_bw: 16.0 * GIB as f64,
            allreduce_scale: 1.0,
        }
    }

    /// NVLink switch fabric (600 GB/s per device).
    pub fn nvlink() -> Self {
        Interconnect {
            kind: InterconnectKind::NvLinkSwitch,
            link_bw: 600.0e9,
            allreduce_scale: 1.0,
        }
    }

    /// Return a copy whose collective bandwidth is scaled by `s`
    /// (Figure 14's bandwidth mutation).
    pub fn with_allreduce_scale(&self, s: f64) -> Self {
        assert!(s > 0.0, "bandwidth scale must be positive");
        Interconnect {
            allreduce_scale: s,
            ..self.clone()
        }
    }

    /// Per-collective-step latency for this fabric (seconds).
    pub fn step_latency(&self) -> f64 {
        match self.kind {
            InterconnectKind::PcieHostBridged => eff::COLLECTIVE_LATENCY_PCIE,
            InterconnectKind::NvLinkSwitch => eff::COLLECTIVE_LATENCY_NVLINK,
        }
    }

    /// Achievable per-rank bandwidth inside an `n`-rank collective
    /// (bytes/s), after algorithm efficiency, contention, and the
    /// sensitivity scale.
    pub fn collective_rank_bw(&self, n: usize) -> f64 {
        assert!(n >= 1);
        let base = match self.kind {
            InterconnectKind::PcieHostBridged => {
                let contention = 1.0 + eff::PCIE_CONTENTION_BETA * (n as f64).ln();
                self.link_bw * eff::ALLREDUCE_EFF_PCIE / contention
            }
            InterconnectKind::NvLinkSwitch => self.link_bw * eff::ALLREDUCE_EFF_NVLINK,
        };
        base * self.allreduce_scale
    }

    /// Time for a ring all-reduce of `bytes` across `n` ranks.
    ///
    /// Returns 0 for `n <= 1` (no communication needed).
    pub fn allreduce_time(&self, bytes: f64, n: usize) -> f64 {
        self.allreduce(n).time(bytes)
    }

    /// The ring all-reduce across `n` ranks, its per-rank bandwidth
    /// evaluated once for every tensor size it is then priced at.
    pub fn allreduce(&self, n: usize) -> AllReduce {
        let steps = 2 * n.saturating_sub(1);
        AllReduce {
            ranks: n,
            share: 2.0 * (n as f64 - 1.0) / n as f64,
            rank_bw: self.collective_rank_bw(n.max(1)),
            latency: steps as f64 * self.step_latency(),
        }
    }

    /// The paper's "all-reduce bandwidth" metric: tensor size divided
    /// by all-reduce runtime (bytes/s). Monotonically decreasing in
    /// `n` — asserted by tests, relied on by §3.1's argument.
    pub fn allreduce_bandwidth(&self, bytes: f64, n: usize) -> f64 {
        if n <= 1 {
            return f64::INFINITY;
        }
        bytes / self.allreduce_time(bytes, n)
    }

    /// Time for a point-to-point activation transfer of `bytes`
    /// between adjacent pipeline stages.
    pub fn p2p_time(&self, bytes: f64) -> f64 {
        let bw = match self.kind {
            InterconnectKind::PcieHostBridged => self.link_bw * eff::ALLREDUCE_EFF_PCIE,
            InterconnectKind::NvLinkSwitch => self.link_bw * eff::ALLREDUCE_EFF_NVLINK,
        };
        self.step_latency() + bytes / (bw * self.allreduce_scale)
    }
}

/// A ring all-reduce across a fixed number of ranks of one fabric
/// ([`Interconnect::allreduce`]): each rank moves `share = 2·(n−1)/n`
/// of the tensor at `rank_bw` bytes/s, plus `latency` over the
/// `2·(n−1)` steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllReduce {
    ranks: usize,
    share: f64,
    rank_bw: f64,
    latency: f64,
}

impl AllReduce {
    /// Ranks taking part.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Time to all-reduce `bytes` (0 for a single rank, whatever the
    /// other fields hold).
    pub fn time(&self, bytes: f64) -> f64 {
        if self.ranks <= 1 {
            return 0.0;
        }
        self.share * bytes / self.rank_bw + self.latency
    }
}

/// Host (CPU<->GPU) link: in every configuration the paper evaluates,
/// each GPU reaches host memory over PCIe 4.0 x8 at 16 GiB/s.
#[derive(Debug, Clone, PartialEq)]
pub struct HostLink {
    /// Per-direction bandwidth in bytes/s.
    pub bw: f64,
}

impl HostLink {
    /// PCIe 4.0 x8 host link, 16 GiB/s per direction.
    pub fn pcie_4_x8() -> Self {
        HostLink {
            bw: 16.0 * GIB as f64,
        }
    }

    /// Time to copy `bytes` between GPU and *pinned* host memory.
    pub fn pinned_copy_time(&self, bytes: f64) -> f64 {
        bytes / (self.bw * eff::PCIE_H2D_PINNED_EFF)
    }

    /// Time to copy `bytes` between GPU and *pageable* host memory
    /// (e.g. OS shared memory directly, without staging).
    pub fn pageable_copy_time(&self, bytes: f64) -> f64 {
        bytes / (self.bw * eff::PCIE_PAGEABLE_EFF)
    }

    /// Time for the host-side memcpy between a pinned staging buffer
    /// and OS shared memory (second leg of Seesaw's two-stage path).
    pub fn staging_copy_time(&self, bytes: f64) -> f64 {
        bytes / eff::HOST_STAGING_BW
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_zero_for_single_rank() {
        let ic = Interconnect::pcie_4_x8();
        assert_eq!(ic.allreduce_time(1e9, 1), 0.0);
    }

    #[test]
    fn allreduce_bandwidth_decreases_with_ranks_on_pcie() {
        // Paper §3.1 Observation 1: Bar(TP) falls as TP grows.
        let ic = Interconnect::pcie_4_x8();
        let size = 64.0 * 1024.0 * 1024.0;
        let mut prev = f64::INFINITY;
        for n in [2usize, 4, 8] {
            let bw = ic.allreduce_bandwidth(size, n);
            assert!(bw < prev, "Bar should decrease: n={n} bw={bw} prev={prev}");
            prev = bw;
        }
    }

    #[test]
    fn nvlink_allreduce_much_faster_than_pcie() {
        let pcie = Interconnect::pcie_4_x8();
        let nvl = Interconnect::nvlink();
        let size = 128.0 * 1024.0 * 1024.0;
        let ratio = pcie.allreduce_time(size, 8) / nvl.allreduce_time(size, 8);
        assert!(
            ratio > 20.0,
            "NVLink should dominate PCIe for collectives, got ratio {ratio}"
        );
    }

    #[test]
    fn allreduce_time_monotone_in_size_and_ranks() {
        let ic = Interconnect::pcie_4_x8();
        assert!(ic.allreduce_time(2e8, 4) > ic.allreduce_time(1e8, 4));
        assert!(ic.allreduce_time(1e8, 8) > ic.allreduce_time(1e8, 2));
    }

    #[test]
    fn bandwidth_scale_shortens_allreduce() {
        let ic = Interconnect::pcie_4_x8();
        let fast = ic.with_allreduce_scale(10.0);
        let slow = ic.with_allreduce_scale(0.1);
        let t = ic.allreduce_time(1e8, 4);
        assert!(fast.allreduce_time(1e8, 4) < t);
        assert!(slow.allreduce_time(1e8, 4) > t);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        Interconnect::pcie_4_x8().with_allreduce_scale(0.0);
    }

    #[test]
    fn host_link_pinned_faster_than_pageable() {
        let hl = HostLink::pcie_4_x8();
        assert!(hl.pinned_copy_time(1e9) < hl.pageable_copy_time(1e9));
    }

    #[test]
    fn p2p_small_activation_is_cheap() {
        // PP passes only activations between stages; the paper calls
        // this negligible next to all-reduce. 8 KiB activation:
        let ic = Interconnect::pcie_4_x8();
        assert!(ic.p2p_time(8192.0) < 1e-3);
    }
}
