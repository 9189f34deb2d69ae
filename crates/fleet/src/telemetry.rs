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
use seesaw_engine::EngineReport;
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

/// Record one replica's served requests as spans on its track:
/// arrival → completion, with TTFT and output length as args.
pub fn record_replica_requests(rec: &mut Recorder, replica: usize, report: &EngineReport) {
    for t in &report.timeline {
        rec.span(
            replica_track(replica),
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

/// Record every replica's request lifecycles from a merged fleet
/// report (replica order, then timeline order — deterministic).
pub fn record_request_spans(rec: &mut Recorder, report: &FleetReport) {
    for (i, rep) in report.replicas.iter().enumerate() {
        record_replica_requests(rec, i, rep);
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
    use seesaw_workload::{RequestTiming, RunStats};

    fn tiny_report() -> FleetReport {
        let rep = |ids: &[u64]| EngineReport {
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
                    completion_s: 0.1 * id as f64 + 1.0,
                    output_len: 4,
                    attempts: 1,
                })
                .collect(),
            latency: None,
        };
        FleetReport::from_replica_reports(
            RouterPolicy::JoinShortestQueue,
            vec![rep(&[0, 2]), rep(&[1])],
            vec![0, 1, 0],
        )
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
