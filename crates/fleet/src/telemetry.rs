//! Fleet-tier telemetry glue: the canonical track layout and the
//! post-hoc request-lifecycle rendering shared by the fleet,
//! autoscale, and chaos exporters.
//!
//! Route decisions are recorded *live*, inside the serial decision
//! loops (the state a decision saw exists nowhere in the final
//! report). Request lifecycle spans are the opposite: they are fully
//! determined by the deterministic merged report, so they are
//! rendered here *after* the run — keeping the hot loops untouched
//! and the recorded bytes independent of `--jobs`.

use crate::report::FleetReport;
use seesaw_telemetry::{fmt_secs, Recorder, CONTROLLER_TRACK, REPLICA_TRACK_BASE, ROUTER_TRACK};

/// Register the controller/router/replica tracks with display names.
/// `labels` are replica configuration labels, in replica order.
pub fn register_tracks(rec: &mut Recorder, router_name: &str, labels: &[String]) {
    rec.track(CONTROLLER_TRACK, "controller");
    rec.track(ROUTER_TRACK, router_name);
    for (i, label) in labels.iter().enumerate() {
        register_replica_track(rec, i, label);
    }
}

/// Register replica `i`'s track — also called for replicas spawned
/// mid-run by an elastic fleet.
pub fn register_replica_track(rec: &mut Recorder, i: usize, label: &str) {
    rec.track(replica_track(i), &format!("replica{i} [{label}]"));
}

/// Track id of replica `i`.
pub fn replica_track(i: usize) -> u32 {
    REPLICA_TRACK_BASE + i as u32
}

/// Record every replica's request lifecycles from a merged fleet
/// report, each as a span on its replica's track: arrival →
/// completion, with TTFT and output length as args. Replica order,
/// then id order — deterministic.
pub fn record_request_spans(rec: &mut Recorder, report: &FleetReport) {
    let mut order: Vec<usize> = (0..report.timeline.len()).collect();
    // Stable: the merged timeline is id-sorted within each replica.
    order.sort_by_key(|&j| report.served_by[j]);
    for j in order {
        let t = &report.timeline[j];
        rec.span(
            replica_track(report.served_by[j] as usize),
            &format!("req {}", t.id),
            t.arrival_s,
            t.completion_s - t.arrival_s,
            &[
                ("ttft_s", fmt_secs(t.first_token_s - t.arrival_s)),
                ("e2e_s", fmt_secs(t.completion_s - t.arrival_s)),
                ("output_tokens", t.output_len.to_string()),
                ("attempts", t.attempts.to_string()),
            ],
        );
    }
}

/// A route instant's arguments. The work a decision never read (NaN:
/// `jsq-live` ranks by depth alone) is left out rather than computed.
pub fn route_args(
    depth: usize,
    work_s: f64,
    est_wait_s: f64,
    measured: bool,
) -> Vec<(&'static str, String)> {
    let mut args = vec![("queue_depth", depth.to_string())];
    if !work_s.is_nan() {
        args.push(("work_s", fmt_secs(work_s)));
    }
    args.push(("est_wait_s", fmt_secs(est_wait_s)));
    args.push(("measured", measured.to_string()));
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterPolicy;
    use seesaw_engine::EngineReport;
    use seesaw_workload::{RequestTiming, RunStats};

    fn replica_report(ids: &[u64]) -> EngineReport {
        EngineReport {
            label: "x".into(),
            stats: RunStats {
                requests: ids.len(),
                input_tokens: 0,
                output_tokens: 0,
                duration_s: 2.0,
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
                    arrival_s: 0.1 * id as f64,
                    first_token_s: 0.1 * id as f64 + 0.2,
                    completion_s: 0.1 * id as f64 + 1.0 + 0.01 * (id % 7) as f64,
                    output_len: 4 + id as usize % 5,
                    attempts: 1 + (id % 3 == 0) as u32,
                })
                .collect(),
            latency: None,
        }
    }

    fn tiny_report() -> FleetReport {
        FleetReport::from_replica_reports(
            RouterPolicy::JoinShortestQueue,
            vec![replica_report(&[0, 2]), replica_report(&[1])],
            vec![0, 1, 0],
        )
    }

    /// The rendering from before replica timelines moved into the
    /// fleet's: each replica's own timeline, in replica order.
    fn per_replica_spans(rec: &mut Recorder, replicas: &[EngineReport]) {
        for (i, report) in replicas.iter().enumerate() {
            for t in &report.timeline {
                rec.span(
                    replica_track(i),
                    &format!("req {}", t.id),
                    t.arrival_s,
                    t.completion_s - t.arrival_s,
                    &[
                        ("ttft_s", fmt_secs(t.first_token_s - t.arrival_s)),
                        ("e2e_s", fmt_secs(t.completion_s - t.arrival_s)),
                        ("output_tokens", t.output_len.to_string()),
                        ("attempts", t.attempts.to_string()),
                    ],
                );
            }
        }
    }

    #[test]
    fn merged_spans_match_the_per_replica_rendering_byte_for_byte() {
        // 60 ids spread unevenly over 5 replicas, one of them idle.
        let n = 5;
        let mut ids: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut x = 17u64;
        for id in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ids[[0, 0, 0, 1, 2, 4][(x >> 33) as usize % 6]].push(id);
        }
        assert!(ids[3].is_empty() && ids.iter().filter(|v| !v.is_empty()).count() == 4);
        let replicas: Vec<EngineReport> = ids.iter().map(|v| replica_report(v)).collect();
        let labels: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
        let render = |fill: &dyn Fn(&mut Recorder)| {
            let mut rec = Recorder::enabled();
            register_tracks(&mut rec, "router (jsq)", &labels);
            fill(&mut rec);
            seesaw_telemetry::perfetto::render(&rec, "fleet")
        };
        let oracle = render(&|rec| per_replica_spans(rec, &replicas));
        let report =
            FleetReport::from_replica_reports(RouterPolicy::JoinShortestQueue, replicas, Vec::new());
        assert_eq!(render(&|rec| record_request_spans(rec, &report)), oracle);
        assert_eq!(oracle.matches("\"ph\":\"X\"").count(), 60);
    }

    #[test]
    fn spans_land_on_the_owning_replica_track() {
        let mut rec = Recorder::enabled();
        let report = tiny_report();
        register_tracks(&mut rec, "router (jsq)", &["a".into(), "b".into()]);
        record_request_spans(&mut rec, &report);
        assert_eq!(rec.tracks().len(), 4, "controller + router + 2 replicas");
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.spans()[0].track, replica_track(0));
        assert_eq!(rec.spans()[2].track, replica_track(1));
        assert_eq!(rec.spans()[2].name, "req 1");
        assert!(rec.spans()[0].args.iter().any(|(k, v)| k == "ttft_s" && v == "0.200000"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut rec = Recorder::enabled();
            register_tracks(&mut rec, "r", &["a".into()]);
            record_request_spans(&mut rec, &tiny_report());
            seesaw_telemetry::perfetto::render(&rec, "fleet")
        };
        assert_eq!(build(), build());
    }
}
