//! Execution traces and the per-category time summaries behind the
//! paper's breakdown figures (Fig 1, Fig 12).

use crate::resource::ResourceId;
use crate::time::SimTime;

/// Category of work a task represents. These map onto the breakdown
/// series in the paper's figures:
///
/// * "compute"          ← [`TaskKind::Compute`]
/// * "communication"    ← [`TaskKind::AllReduce`] + [`TaskKind::P2p`]
/// * "weight transfer"  ← [`TaskKind::WeightLoad`] (HBM streaming
///   share is folded into compute by the roofline, matching how the
///   paper measures; *re-sharding* weight reloads over PCIe are
///   [`TaskKind::ReshardLoad`])
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// On-GPU kernel execution (GEMM / attention), including its HBM
    /// weight streaming component.
    Compute,
    /// Tensor-parallel all-reduce.
    AllReduce,
    /// Pipeline-parallel point-to-point activation send.
    P2p,
    /// The decode-side weight-streaming share of a forward pass,
    /// reported separately so breakdowns can show "weight transfer".
    WeightLoad,
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
    /// Pure synchronization (zero-duration join nodes).
    Sync,
}

impl TaskKind {
    /// The breakdown bucket used in figures.
    pub fn bucket(self) -> &'static str {
        match self {
            TaskKind::Compute => "compute",
            TaskKind::AllReduce | TaskKind::P2p => "communication",
            TaskKind::WeightLoad => "weight_transfer",
            TaskKind::ReshardLoad => "reshard",
            TaskKind::SwapOut | TaskKind::SwapIn | TaskKind::StagingCopy => "kv_swap",
            TaskKind::Overhead => "other",
            TaskKind::Sync => "sync",
        }
    }
}

/// One executed task's footprint in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Resource the work ran on. The simulator records service spans
    /// only, so `None` appears only in spans recorded by hand.
    pub resource: Option<ResourceId>,
    /// Work category.
    pub kind: TaskKind,
    /// Start of service.
    pub start: SimTime,
    /// End of service.
    pub end: SimTime,
    /// Caller-supplied tag (e.g. GPU index or stage id).
    pub tag: u64,
}

impl Span {
    /// Service duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only log of executed spans.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    spans: Vec<Span>,
    enabled: bool,
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Trace {
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A no-op trace (skips recording; engines use this for long
    /// throughput runs where only the clock matters).
    pub fn disabled() -> Self {
        Trace {
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// Record a span (no-op when disabled).
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregate busy seconds per [`TaskKind`].
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for span in &self.spans {
            s.add(span.kind, span.duration());
        }
        s
    }

    /// Aggregate busy seconds per kind, restricted to spans whose tag
    /// satisfies `pred` (e.g. a single GPU).
    pub fn summary_filtered(&self, pred: impl Fn(&Span) -> bool) -> TraceSummary {
        let mut s = TraceSummary::default();
        for span in self.spans.iter().filter(|sp| pred(sp)) {
            s.add(span.kind, span.duration());
        }
        s
    }
}

/// Busy time per category (seconds).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// GEMM/attention kernel time.
    pub compute: f64,
    /// All-reduce + P2P time.
    pub communication: f64,
    /// Decode weight-streaming time.
    pub weight_transfer: f64,
    /// Re-sharding weight reload time.
    pub reshard: f64,
    /// KV swap traffic time.
    pub kv_swap: f64,
    /// Scheduling and fixed overheads.
    pub other: f64,
}

impl TraceSummary {
    fn add(&mut self, kind: TaskKind, secs: f64) {
        match kind {
            TaskKind::Compute => self.compute += secs,
            TaskKind::AllReduce | TaskKind::P2p => self.communication += secs,
            TaskKind::WeightLoad => self.weight_transfer += secs,
            TaskKind::ReshardLoad => self.reshard += secs,
            TaskKind::SwapOut | TaskKind::SwapIn | TaskKind::StagingCopy => {
                self.kv_swap += secs
            }
            TaskKind::Overhead => self.other += secs,
            TaskKind::Sync => {}
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

    fn span(kind: TaskKind, start: f64, end: f64) -> Span {
        Span {
            resource: None,
            kind,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            tag: 0,
        }
    }

    #[test]
    fn summary_buckets() {
        let mut t = Trace::enabled();
        t.record(span(TaskKind::Compute, 0.0, 1.0));
        t.record(span(TaskKind::AllReduce, 1.0, 1.5));
        t.record(span(TaskKind::P2p, 1.5, 1.6));
        t.record(span(TaskKind::WeightLoad, 1.6, 2.0));
        t.record(span(TaskKind::SwapOut, 2.0, 2.2));
        t.record(span(TaskKind::Sync, 2.2, 2.2));
        let s = t.summary();
        assert!((s.compute - 1.0).abs() < 1e-12);
        assert!((s.communication - 0.6).abs() < 1e-9);
        assert!((s.weight_transfer - 0.4).abs() < 1e-9);
        assert!((s.kv_swap - 0.2).abs() < 1e-9);
        assert!((s.total() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(span(TaskKind::Compute, 0.0, 5.0));
        assert!(t.spans().is_empty());
        assert_eq!(t.summary().total(), 0.0);
    }

    #[test]
    fn filtered_summary_uses_tags() {
        let mut t = Trace::enabled();
        let mut s0 = span(TaskKind::Compute, 0.0, 1.0);
        s0.tag = 0;
        let mut s1 = span(TaskKind::Compute, 0.0, 2.0);
        s1.tag = 1;
        t.record(s0);
        t.record(s1);
        let only1 = t.summary_filtered(|sp| sp.tag == 1);
        assert!((only1.compute - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kind_buckets_are_stable_names() {
        assert_eq!(TaskKind::Compute.bucket(), "compute");
        assert_eq!(TaskKind::AllReduce.bucket(), "communication");
        assert_eq!(TaskKind::WeightLoad.bucket(), "weight_transfer");
        assert_eq!(TaskKind::ReshardLoad.bucket(), "reshard");
    }
}
