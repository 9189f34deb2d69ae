//! Run reports common to every engine.

use seesaw_sim::TraceSummary;
use seesaw_workload::{LatencyStats, RequestTiming, RunStats, SloSpec};

/// Engine phase, for the execution timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Prompt processing under `c_p`.
    Prefill,
    /// Generation under `c_d`.
    Decode,
    /// Model re-sharding between configurations.
    Reshard,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Prefill => write!(f, "prefill"),
            Phase::Decode => write!(f, "decode"),
            Phase::Reshard => write!(f, "reshard"),
        }
    }
}

/// One contiguous phase interval in an engine run's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// What the cluster was doing.
    pub phase: Phase,
    /// Interval start, seconds.
    pub start_s: f64,
    /// Interval end, seconds.
    pub end_s: f64,
}

impl PhaseSpan {
    /// Interval length in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Configuration label in the paper's notation (`"T4P2"`,
    /// `"P4->T4"`).
    pub label: String,
    /// Request/token counts and end-to-end duration.
    pub stats: RunStats,
    /// Wall-clock spent in pure-prefill phases/passes, seconds.
    pub prefill_wall_s: f64,
    /// Wall-clock spent in pure-decode phases/passes, seconds.
    pub decode_wall_s: f64,
    /// Wall-clock spent in mixed (chunked) passes, seconds.
    pub mixed_wall_s: f64,
    /// Wall-clock spent re-sharding (weight reload + reconfiguration),
    /// seconds.
    pub reshard_wall_s: f64,
    /// Prefill→decode + decode→prefill transitions performed.
    pub transitions: usize,
    /// KV bytes swapped out to the CPU buffer.
    pub swap_out_bytes: u64,
    /// KV bytes swapped in from the CPU buffer.
    pub swap_in_bytes: u64,
    /// Execution timeline (Seesaw fills this; static engines leave it
    /// empty).
    pub phases: Vec<PhaseSpan>,
    /// Mean busy fraction of the GPUs' compute engines over the run.
    pub gpu_utilization: f64,
    /// Simulated busy seconds per kind of work, summed over every
    /// resource of the cluster (all zero for an engine that simulates
    /// no cluster).
    pub busy_by_kind: TraceSummary,
    /// Per-request arrival/first-token/completion timestamps, sorted
    /// by request id (round-granular: a request completes at the end
    /// of the decode burst that retired it). Empty in a fleet
    /// replica's report: its entries live in the fleet's merged
    /// timeline (`FleetReport::replica_timeline` reads them back).
    pub timeline: Vec<RequestTiming>,
    /// Latency percentiles over [`EngineReport::timeline`] (`None`
    /// when the run processed no requests). Offline runs report them
    /// too — every arrival is 0.0, so TTFT is the absolute
    /// first-token time.
    pub latency: Option<LatencyStats>,
}

impl EngineReport {
    /// End-to-end throughput in requests/second (the paper's primary
    /// metric).
    pub fn throughput_rps(&self) -> f64 {
        self.stats.throughput_rps()
    }

    /// Generated tokens/second.
    pub fn output_tokens_per_sec(&self) -> f64 {
        self.stats.output_tokens_per_sec()
    }

    /// Wall time not attributed to prefill/decode/mixed/reshard
    /// (stage-transition drains, initial fills, etc.).
    pub fn other_wall_s(&self) -> f64 {
        (self.stats.duration_s
            - self.prefill_wall_s
            - self.decode_wall_s
            - self.mixed_wall_s
            - self.reshard_wall_s)
            .max(0.0)
    }

    /// Fraction of the timeline meeting `slo` (0.0 with no requests).
    pub fn slo_attainment(&self, slo: SloSpec) -> f64 {
        slo.attainment(&self.timeline)
    }

    /// SLO-meeting requests per second over the run's duration.
    pub fn goodput_rps(&self, slo: SloSpec) -> f64 {
        slo.goodput_rps(&self.timeline, self.stats.duration_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_wall_is_residual_and_clamped() {
        let mk = |dur: f64, p: f64, d: f64| EngineReport {
            label: "x".into(),
            stats: RunStats {
                requests: 10,
                input_tokens: 100,
                output_tokens: 100,
                duration_s: dur,
            },
            prefill_wall_s: p,
            decode_wall_s: d,
            mixed_wall_s: 0.0,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: 0,
            swap_in_bytes: 0,
            phases: Vec::new(),
            gpu_utilization: 0.5,
            busy_by_kind: Default::default(),
            timeline: Vec::new(),
            latency: None,
        };
        let r = mk(10.0, 4.0, 5.0);
        assert!((r.other_wall_s() - 1.0).abs() < 1e-12);
        assert!((r.throughput_rps() - 1.0).abs() < 1e-12);
        let over = mk(8.0, 4.0, 5.0);
        assert_eq!(over.other_wall_s(), 0.0);
    }

    #[test]
    fn slo_accessors_ride_on_the_timeline() {
        let timeline = vec![
            RequestTiming {
                id: 0,
                arrival_s: 0.0,
                first_token_s: 0.5,
                completion_s: 1.5,
                output_len: 11,
                attempts: 1,
            },
            RequestTiming {
                id: 1,
                arrival_s: 0.0,
                first_token_s: 5.0,
                completion_s: 6.0,
                output_len: 11,
                attempts: 1,
            },
        ];
        let latency = LatencyStats::from_timeline(&timeline);
        let rep = EngineReport {
            label: "x".into(),
            stats: RunStats {
                requests: 2,
                input_tokens: 100,
                output_tokens: 22,
                duration_s: 10.0,
            },
            prefill_wall_s: 0.0,
            decode_wall_s: 0.0,
            mixed_wall_s: 0.0,
            reshard_wall_s: 0.0,
            transitions: 0,
            swap_out_bytes: 0,
            swap_in_bytes: 0,
            phases: Vec::new(),
            gpu_utilization: 0.5,
            busy_by_kind: Default::default(),
            timeline,
            latency,
        };
        let slo = SloSpec { ttft_s: 1.0, tpot_s: 0.2 };
        assert!((rep.slo_attainment(slo) - 0.5).abs() < 1e-12);
        assert!((rep.goodput_rps(slo) - 0.1).abs() < 1e-12);
        assert_eq!(rep.latency.unwrap().count, 2);
    }
}
