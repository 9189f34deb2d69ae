//! Work categories and the per-category busy-time totals every
//! simulator keeps (the `fleet --breakdown` table's columns).

/// Category of work a task represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// On-GPU kernel execution (GEMM / attention), including its HBM
    /// weight streaming and, as the roofline folds them into pass
    /// durations, its collectives.
    Compute,
    /// Weight shard reload from host memory during re-sharding.
    ReshardLoad,
    /// KV-cache swap-out (GPU → pinned staging).
    SwapOut,
    /// KV-cache swap-in (pinned staging → GPU).
    SwapIn,
    /// Host-side pinned↔shared-memory staging copy.
    StagingCopy,
    /// Fixed scheduling / engine overhead.
    Overhead,
}

/// Busy time per category (seconds), summed over every resource in
/// the order the work was charged.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// GEMM/attention kernel time.
    pub compute: f64,
    /// Collective time charged as its own work (always zero: the
    /// roofline folds collectives into compute).
    pub communication: f64,
    /// Weight-streaming time charged as its own work (always zero: the
    /// roofline folds it into compute).
    pub weight_transfer: f64,
    /// Re-sharding weight reload time.
    pub reshard: f64,
    /// KV swap traffic time.
    pub kv_swap: f64,
    /// Scheduling and fixed overheads.
    pub other: f64,
}

impl TraceSummary {
    /// Charge `secs` of `kind` work.
    #[inline]
    pub fn add(&mut self, kind: TaskKind, secs: f64) {
        match kind {
            TaskKind::Compute => self.compute += secs,
            TaskKind::ReshardLoad => self.reshard += secs,
            TaskKind::SwapOut | TaskKind::SwapIn | TaskKind::StagingCopy => self.kv_swap += secs,
            TaskKind::Overhead => self.other += secs,
        }
    }

    /// Total categorized busy time.
    pub fn total(&self) -> f64 {
        self.compute
            + self.communication
            + self.weight_transfer
            + self.reshard
            + self.kv_swap
            + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_buckets() {
        let mut s = TraceSummary::default();
        s.add(TaskKind::Compute, 1.0);
        s.add(TaskKind::ReshardLoad, 0.5);
        s.add(TaskKind::SwapOut, 0.25);
        s.add(TaskKind::SwapIn, 0.25);
        s.add(TaskKind::StagingCopy, 0.125);
        s.add(TaskKind::Overhead, 0.0625);
        assert_eq!(
            (s.compute, s.reshard, s.kv_swap, s.other),
            (1.0, 0.5, 0.625, 0.0625)
        );
        assert_eq!((s.communication, s.weight_transfer), (0.0, 0.0));
        assert_eq!(s.total(), 2.1875);
    }
}
