//! Online-serving engine behavior: arrival-gated admission, cluster
//! idling between arrivals, per-request latency timelines, and exact
//! offline equivalence for all-zero arrival streams.

use seesaw_engine::seesaw::{SeesawEngine, SeesawSpec};
use seesaw_engine::vllm::VllmEngine;
use seesaw_engine::SchedulingPolicy;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_parallel::ParallelConfig;
use seesaw_workload::{ArrivalDist, Request, SloSpec, WorkloadGen};

fn vllm(policy: SchedulingPolicy) -> VllmEngine {
    VllmEngine::new(
        ClusterSpec::a10x4(),
        presets::llama2_13b(),
        ParallelConfig::new(1, 2, 2),
        policy,
    )
    .unwrap()
}

fn policies() -> [SchedulingPolicy; 3] {
    [
        SchedulingPolicy::PrefillPrioritized,
        SchedulingPolicy::DecodePrioritized,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 512 },
    ]
}

/// Sparse arrivals: the run must span the arrival horizon (the
/// cluster idles between requests) and every TTFT must be measured
/// from the request's own arrival.
#[test]
fn sparse_arrivals_idle_the_cluster_under_every_policy() {
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request::new(i, 512, 16).with_arrival(10.0 * i as f64))
        .collect();
    for policy in policies() {
        let report = vllm(policy).run(&reqs);
        assert_eq!(report.stats.requests, 6, "{policy}");
        assert!(
            report.stats.duration_s >= 50.0,
            "{policy}: run must wait for the last arrival at t=50, got {}",
            report.stats.duration_s
        );
        let lat = report.latency.expect("timeline recorded");
        assert_eq!(lat.count, 6);
        // Far-apart arrivals mean zero queueing: every TTFT is just
        // the prefill time, far below the 10s gap.
        assert!(
            lat.ttft.max < 10.0,
            "{policy}: unloaded TTFT should not include arrival gaps, max {}",
            lat.ttft.max
        );
        for t in &report.timeline {
            assert!(t.first_token_s >= t.arrival_s);
            assert!(t.completion_s >= t.first_token_s);
        }
    }
}

/// All-zero arrival streams must reproduce the offline run exactly —
/// same report, byte for byte (the legacy path is untouched).
#[test]
fn zero_arrivals_match_offline_reports_exactly() {
    let offline = WorkloadGen::sharegpt(3).generate(24);
    let online: Vec<Request> = offline.iter().map(|r| r.with_arrival(0.0)).collect();
    for policy in policies() {
        let eng = vllm(policy);
        assert_eq!(eng.run(&offline), eng.run(&online), "{policy}");
    }
    let eng = SeesawEngine::new(
        ClusterSpec::a10x4(),
        presets::llama2_13b(),
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
    )
    .unwrap();
    assert_eq!(eng.run(&offline), eng.run(&online));
}

/// Queueing must show up in the latency percentiles: compressing the
/// same arrival pattern raises p99 TTFT and lowers SLO attainment.
#[test]
fn higher_offered_load_degrades_latency() {
    let base = WorkloadGen::constant(1024, 32).generate(24);
    let unit = ArrivalDist::Poisson { rate: 1.0 }.sample_times(24, 7).unwrap();
    let at_rate = |rate: f64| -> Vec<Request> {
        base.iter()
            .zip(&unit)
            .map(|(r, &t)| r.with_arrival(t / rate))
            .collect()
    };
    let eng = vllm(SchedulingPolicy::PrefillPrioritized);
    let slow = eng.run(&at_rate(0.05));
    let fast = eng.run(&at_rate(50.0));
    let (slow_lat, fast_lat) = (slow.latency.unwrap(), fast.latency.unwrap());
    assert!(
        fast_lat.ttft.p99 > slow_lat.ttft.p99,
        "overload p99 TTFT {} must exceed unloaded {}",
        fast_lat.ttft.p99,
        slow_lat.ttft.p99
    );
    let slo = SloSpec { ttft_s: slow_lat.ttft.max * 1.5, tpot_s: slow_lat.tpot.max * 1.5 };
    assert!((slow.slo_attainment(slo) - 1.0).abs() < 1e-12, "unloaded run meets its own SLO");
    assert!(
        fast.slo_attainment(slo) < 1.0,
        "overloaded run must miss an SLO calibrated to the unloaded run"
    );
    assert!(slow.goodput_rps(slo) > 0.0);
}

/// Seesaw under sparse online arrivals: still completes everything
/// and spans the arrival horizon.
#[test]
fn seesaw_completes_under_online_arrivals() {
    let eng = SeesawEngine::new(
        ClusterSpec::a10x4(),
        presets::llama2_13b(),
        SeesawSpec::new(ParallelConfig::pp(4), ParallelConfig::tp(4)),
    )
    .unwrap();
    let reqs: Vec<Request> = (0..8)
        .map(|i| Request::new(i, 700, 24).with_arrival(5.0 * i as f64))
        .collect();
    let report = eng.run(&reqs);
    assert_eq!(report.stats.requests, 8);
    assert!(report.stats.duration_s >= 35.0, "must wait for the last arrival");
    assert_eq!(report.latency.unwrap().count, 8);
    assert!(report.transitions >= 1);
}

/// Engines admit from the queue head, so out-of-order arrival times
/// would silently misattribute the head's idle wait as later
/// requests' TTFT — they are rejected up front instead.
#[test]
#[should_panic(expected = "sorted by arrival time")]
fn out_of_order_arrivals_are_rejected() {
    let reqs = vec![
        Request::new(0, 512, 16).with_arrival(100.0),
        Request::new(1, 512, 16).with_arrival(0.0),
    ];
    vllm(SchedulingPolicy::PrefillPrioritized).run(&reqs);
}

/// An arrival that is not a finite, non-negative time is rejected up
/// front, naming the request, before any of it reaches the simulator.
#[test]
fn invalid_arrival_times_are_rejected() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let mut reqs: Vec<Request> = (0..4)
            .map(|i| Request::new(i, 512, 16).with_arrival(i as f64))
            .collect();
        reqs[2].arrival_s = bad;
        let run = || vllm(SchedulingPolicy::PrefillPrioritized).run(&reqs);
        let err = std::panic::catch_unwind(run).expect_err("an invalid arrival must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            msg.contains(&format!("request 2 has arrival time {bad}s")),
            "{bad}: {msg}"
        );
    }
}

/// An empty request set is a no-op run reporting zero throughput
/// (regression: this used to produce NaN).
#[test]
fn empty_request_set_reports_zeros() {
    let report = vllm(SchedulingPolicy::PrefillPrioritized).run(&[]);
    assert_eq!(report.stats.requests, 0);
    assert_eq!(report.throughput_rps(), 0.0);
    assert!(report.latency.is_none());
    assert!(report.timeline.is_empty());
}

/// Burst arrival at a shared instant mid-run: requests queue and the
/// timeline stays internally consistent (first token after arrival,
/// completion after first token, ids sorted).
#[test]
fn burst_arrivals_queue_and_resolve_consistently() {
    let mut reqs: Vec<Request> = (0..4).map(|i| Request::new(i, 800, 48)).collect();
    reqs.extend((4..12).map(|i| Request::new(i, 800, 48).with_arrival(2.0)));
    for policy in policies() {
        let report = vllm(policy).run(&reqs);
        assert_eq!(report.stats.requests, 12, "{policy}");
        assert_eq!(report.timeline.len(), 12);
        for w in report.timeline.windows(2) {
            assert!(w[0].id < w[1].id, "timeline must be id-sorted");
        }
        for t in &report.timeline {
            assert!(t.first_token_s >= t.arrival_s, "{policy}: id {}", t.id);
            assert!(t.completion_s >= t.first_token_s, "{policy}: id {}", t.id);
        }
    }
}

/// `run_ready` models replica warm-up: dispatch is clamped to the
/// ready time, but the timeline keeps true arrivals, so TTFT includes
/// the warm-up wait. For a request served in isolation (no batching
/// interference) the delay is exact: TTFT grows by precisely
/// `ready - arrival`, never shrinks. (Across a *loaded* stream,
/// individual TTFTs may locally reorder — delayed arrivals bunch into
/// larger prefill batches — but no request is ever served before the
/// replica is ready; see `run_ready_gates_the_first_dispatch`.)
#[test]
fn run_ready_warmup_delay_is_exact_for_isolated_requests() {
    use seesaw_engine::OnlineEngine;
    let engine = vllm(SchedulingPolicy::PrefillPrioritized);
    let lone = vec![Request::new(0, 512, 16).with_arrival(2.0)];
    let warm = engine.run_ready(&lone, 0.0);
    assert_eq!(warm, engine.run(&lone), "ready at t=0 must be the plain run");
    let warm_ttft = warm.timeline[0].ttft();
    for ready in [5.0, 12.0, 60.0] {
        let delayed = engine.run_ready(&lone, ready);
        let d = &delayed.timeline[0];
        assert_eq!(d.arrival_s, 2.0, "true arrival must be preserved");
        let expected = warm_ttft + (ready - 2.0);
        assert!(
            (d.ttft() - expected).abs() < 1e-9,
            "isolated warm-up delay must be exact: ttft {} vs expected {expected}",
            d.ttft()
        );
        assert!(d.ttft() > warm_ttft, "warm-up must strictly increase TTFT");
    }
    // A ready time already passed when the request arrives changes
    // nothing.
    assert_eq!(engine.run_ready(&lone, 1.5), warm);
}

/// On a whole stream, warm-up strictly never decreases the *worst*
/// TTFT and never serves anyone earlier than the warm replica's
/// first service: the first token of the run moves later (or equal),
/// and the max TTFT is monotone in the ready time.
#[test]
fn run_ready_first_service_and_max_ttft_are_monotone() {
    use seesaw_engine::OnlineEngine;
    let base = WorkloadGen::sharegpt(3).generate(16);
    let reqs = ArrivalDist::Poisson { rate: 2.0 }
        .attach(&base, 9)
        .expect("valid arrivals");
    let engine = vllm(SchedulingPolicy::PrefillPrioritized);
    let mut prev_first = f64::NEG_INFINITY;
    let mut prev_max_ttft = f64::NEG_INFINITY;
    for ready in [0.0, 2.0, 6.0, 30.0] {
        let report = engine.run_ready(&reqs, ready);
        let first = report
            .timeline
            .iter()
            .map(|t| t.first_token_s)
            .fold(f64::INFINITY, f64::min);
        assert!(first >= ready, "served at {first} before ready at {ready}");
        assert!(
            first >= prev_first - 1e-9,
            "a later ready time served someone earlier: {first} < {prev_first}"
        );
        let max_ttft = report.latency.unwrap().ttft.max;
        assert!(
            max_ttft >= prev_max_ttft - 1e-9,
            "warm-up decreased the worst TTFT: {max_ttft} < {prev_max_ttft}"
        );
        prev_first = first;
        prev_max_ttft = max_ttft;
    }
}

/// A ready time past every arrival delays the whole stream by the
/// difference: the first request cannot start before ready.
#[test]
fn run_ready_gates_the_first_dispatch() {
    use seesaw_engine::OnlineEngine;
    let reqs: Vec<Request> = (0..4)
        .map(|i| Request::new(i, 256, 8).with_arrival(0.5 * i as f64))
        .collect();
    let engine = vllm(SchedulingPolicy::PrefillPrioritized);
    let report = engine.run_ready(&reqs, 30.0);
    for t in &report.timeline {
        assert!(
            t.first_token_s >= 30.0,
            "request {} produced a token at {} before the replica was ready",
            t.id,
            t.first_token_s
        );
    }
    // TTFT is measured from the *true* arrival, so it includes the
    // warm-up wait.
    let lat = report.latency.unwrap();
    assert!(lat.ttft.p50 >= 30.0 - 1.5 - 1e-9);
}
