//! Fleet-level run reports: merged latency statistics plus
//! per-replica load-imbalance accounting.

use crate::router::RouterPolicy;
use seesaw_engine::EngineReport;
use seesaw_workload::{merge_timelines, LatencyStats, RequestTiming, RunStats, SloSpec};

/// How evenly the router spread the stream over the replicas.
///
/// Request counts measure *decision* balance; total tokens
/// (input + output) measure *work* balance — a router can equalize
/// counts while piling the long prompts onto one replica, which is
/// exactly what `cv_tokens > cv_requests` reveals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadImbalance {
    /// Fewest requests any replica received.
    pub min_requests: usize,
    /// Most requests any replica received.
    pub max_requests: usize,
    /// Mean requests per replica.
    pub mean_requests: f64,
    /// Coefficient of variation of per-replica request counts
    /// (0.0 = perfectly even).
    pub cv_requests: f64,
    /// Coefficient of variation of per-replica total tokens.
    pub cv_tokens: f64,
    /// Slowest replica's makespan over the mean replica makespan
    /// (≥ 1.0; the fleet finishes when its slowest replica does).
    pub makespan_skew: f64,
}

/// Outcome of one fleet run: every replica's own [`EngineReport`]
/// plus the merged fleet-level view. Each request's timing is kept
/// once, in the merged [`FleetReport::timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Routing policy that produced the assignment.
    pub policy: RouterPolicy,
    /// Per-replica reports, in replica order (replica i's label is
    /// `replicas[i].label`). Each report's `timeline` is empty: its
    /// entries moved into the fleet's [`FleetReport::timeline`] (read
    /// them with [`FleetReport::replica_timeline`]); every other
    /// field, `latency` included, is the replica's own.
    pub replicas: Vec<EngineReport>,
    /// Replica index each request was routed to, in stream order.
    pub assignment: Vec<u32>,
    /// Merged per-request timeline, id-sorted (same convention as a
    /// single engine's report): every replica's entries, each once.
    pub timeline: Vec<RequestTiming>,
    /// Replica index that served each [`FleetReport::timeline`] entry
    /// (parallel to it).
    pub served_by: Vec<u32>,
    /// Latency percentiles over the merged timeline (`None` when no
    /// requests ran).
    pub latency: Option<LatencyStats>,
    /// Aggregate counts; `duration_s` is the fleet makespan (slowest
    /// replica).
    pub stats: RunStats,
}

impl FleetReport {
    /// Assemble the fleet view from per-replica reports, moving each
    /// replica's id-sorted timeline into the merged one.
    pub fn from_replica_reports(
        policy: RouterPolicy,
        mut replicas: Vec<EngineReport>,
        assignment: Vec<u32>,
    ) -> Self {
        assert!(!replicas.is_empty(), "a fleet report needs replicas");
        let (timeline, served_by) =
            merge_timelines(replicas.iter_mut().map(|r| std::mem::take(&mut r.timeline)));
        let latency = LatencyStats::from_timeline(&timeline);
        let stats = RunStats {
            requests: replicas.iter().map(|r| r.stats.requests).sum(),
            input_tokens: replicas.iter().map(|r| r.stats.input_tokens).sum(),
            output_tokens: replicas.iter().map(|r| r.stats.output_tokens).sum(),
            duration_s: replicas
                .iter()
                .map(|r| r.stats.duration_s)
                .fold(0.0, f64::max),
        };
        FleetReport {
            policy,
            replicas,
            assignment,
            timeline,
            served_by,
            latency,
            stats,
        }
    }

    /// Replica `i`'s served requests, id-sorted: the entries its own
    /// report's timeline held before the merge.
    pub fn replica_timeline(&self, i: usize) -> impl Iterator<Item = &RequestTiming> + '_ {
        self.timeline
            .iter()
            .zip(&self.served_by)
            .filter(move |&(_, &r)| r as usize == i)
            .map(|(t, _)| t)
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Fleet end-to-end throughput, requests/second over the makespan.
    pub fn throughput_rps(&self) -> f64 {
        self.stats.throughput_rps()
    }

    /// Fraction of the merged timeline meeting `slo`.
    pub fn slo_attainment(&self, slo: SloSpec) -> f64 {
        slo.attainment(&self.timeline)
    }

    /// SLO-meeting requests per second over the fleet makespan.
    pub fn goodput_rps(&self, slo: SloSpec) -> f64 {
        slo.goodput_rps(&self.timeline, self.stats.duration_s)
    }

    /// Per-replica load-imbalance statistics.
    pub fn imbalance(&self) -> LoadImbalance {
        let counts: Vec<f64> = self.replicas.iter().map(|r| r.stats.requests as f64).collect();
        let tokens: Vec<f64> = self
            .replicas
            .iter()
            .map(|r| (r.stats.input_tokens + r.stats.output_tokens) as f64)
            .collect();
        let durations: Vec<f64> = self.replicas.iter().map(|r| r.stats.duration_s).collect();
        let mean_dur = mean(&durations);
        LoadImbalance {
            min_requests: self.replicas.iter().map(|r| r.stats.requests).min().unwrap_or(0),
            max_requests: self.replicas.iter().map(|r| r.stats.requests).max().unwrap_or(0),
            mean_requests: mean(&counts),
            cv_requests: cv(&counts),
            cv_tokens: cv(&tokens),
            makespan_skew: if mean_dur > 0.0 {
                self.stats.duration_s / mean_dur
            } else {
                1.0
            },
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Coefficient of variation (population σ / mean); 0.0 when the mean
/// is zero (an all-empty fleet is "even").
fn cv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m <= 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(requests: usize, tokens: u64, duration_s: f64, ids: &[u64]) -> EngineReport {
        EngineReport {
            label: "x".into(),
            stats: RunStats {
                requests,
                input_tokens: tokens / 2,
                output_tokens: tokens - tokens / 2,
                duration_s,
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
            timeline: ids
                .iter()
                .map(|&id| RequestTiming {
                    id,
                    arrival_s: 0.0,
                    first_token_s: 0.5,
                    completion_s: duration_s.max(1.0),
                    output_len: 8,
                    attempts: 1,
                })
                .collect(),
            latency: None,
        }
    }

    #[test]
    fn aggregate_is_sum_and_makespan() {
        let fr = FleetReport::from_replica_reports(
            RouterPolicy::RoundRobin,
            vec![report(2, 100, 4.0, &[0, 2]), report(1, 50, 6.0, &[1])],
            vec![0, 1, 0],
        );
        assert_eq!(fr.stats.requests, 3);
        assert_eq!(fr.stats.input_tokens + fr.stats.output_tokens, 150);
        assert!((fr.stats.duration_s - 6.0).abs() < 1e-12);
        assert!((fr.throughput_rps() - 0.5).abs() < 1e-12);
        assert_eq!(fr.timeline.iter().map(|t| t.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(fr.served_by, vec![0, 1, 0]);
        assert_eq!(fr.latency.unwrap().count, 3);
    }

    #[test]
    fn imbalance_flags_uneven_work() {
        let even = FleetReport::from_replica_reports(
            RouterPolicy::RoundRobin,
            vec![report(2, 100, 4.0, &[0, 2]), report(2, 100, 4.0, &[1, 3])],
            vec![0, 1, 0, 1],
        );
        let imb = even.imbalance();
        assert_eq!(imb.min_requests, 2);
        assert_eq!(imb.max_requests, 2);
        assert!(imb.cv_requests.abs() < 1e-12);
        assert!(imb.cv_tokens.abs() < 1e-12);
        assert!((imb.makespan_skew - 1.0).abs() < 1e-12);

        let skewed = FleetReport::from_replica_reports(
            RouterPolicy::RoundRobin,
            vec![report(3, 300, 8.0, &[0, 1, 2]), report(1, 20, 2.0, &[3])],
            vec![0, 0, 0, 1],
        );
        let imb = skewed.imbalance();
        assert_eq!((imb.min_requests, imb.max_requests), (1, 3));
        assert!(imb.cv_requests > 0.4);
        assert!(imb.cv_tokens > imb.cv_requests, "token skew exceeds count skew");
        assert!(imb.makespan_skew > 1.5);
    }

    #[test]
    fn empty_fleet_latency_is_none() {
        let fr = FleetReport::from_replica_reports(
            RouterPolicy::JoinShortestQueue,
            vec![report(0, 0, 0.0, &[])],
            vec![],
        );
        assert!(fr.latency.is_none());
        assert_eq!(fr.slo_attainment(SloSpec { ttft_s: 1.0, tpot_s: 1.0 }), 0.0);
        assert_eq!(fr.goodput_rps(SloSpec { ttft_s: 1.0, tpot_s: 1.0 }), 0.0);
    }
}
