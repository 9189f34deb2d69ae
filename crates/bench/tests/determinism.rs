//! The parallel sweep engine's contract: a parallel runner produces
//! *byte-identical* results to the serial path — same reports, same
//! order, same rendered figures — so `--jobs N` only changes
//! wall-clock time, never output.

use seesaw_bench::figs;
use seesaw_bench::harness::{best_vllm_with, seesaw_auto_with};
use seesaw_engine::SweepRunner;
use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_workload::WorkloadGen;

/// The baseline search drops candidates wave by wave, so its waves
/// differ with the job count; the report it returns must not.
#[test]
fn vllm_sweep_parallel_matches_serial_reports_exactly() {
    let cluster = ClusterSpec::a10x4();
    let model = presets::llama2_13b();
    let reqs = WorkloadGen::constant(512, 32).generate(16);
    let serial = best_vllm_with(&SweepRunner::serial(), &cluster, &model, &reqs);
    let parallel = best_vllm_with(&SweepRunner::new(4), &cluster, &model, &reqs);
    // EngineReport is PartialEq over every field (stats, walls,
    // transfer accounting, timeline), so this is a bit-level
    // comparison of the simulated outcome.
    assert_eq!(serial, parallel);
}

#[test]
fn tuned_baseline_and_probed_seesaw_are_runner_invariant() {
    let cluster = ClusterSpec::a10x4();
    let model = presets::llama2_13b();
    let reqs = WorkloadGen::arxiv_summarization(7).generate(24);
    let base_s = best_vllm_with(&SweepRunner::serial(), &cluster, &model, &reqs);
    let base_p = best_vllm_with(&SweepRunner::new(8), &cluster, &model, &reqs);
    assert_eq!(base_s, base_p);
    let ours_s = seesaw_auto_with(&SweepRunner::serial(), &cluster, &model, &reqs);
    let ours_p = seesaw_auto_with(&SweepRunner::new(8), &cluster, &model, &reqs);
    assert_eq!(ours_s, ours_p);
}

/// Re-running a whole figure grid in the same process must
/// reproduce the first output byte-for-byte, serial and parallel
/// alike (fig10/fig11 are the heaviest sweep grids).
#[test]
fn pooled_rerun_is_byte_identical_for_fig10_and_fig11_grids() {
    let cold10 = figs::fig10::run_with(&SweepRunner::serial(), "a10", 64);
    let warm10 = figs::fig10::run_with(&SweepRunner::serial(), "a10", 64);
    assert_eq!(cold10, warm10, "fig10 serial rerun must not drift");
    let parallel10 = figs::fig10::run_with(&SweepRunner::new(4), "a10", 64);
    assert_eq!(cold10, parallel10, "fig10 parallel must match serial");

    let cold11 = figs::fig11::run_with(&SweepRunner::serial(), 64);
    let warm11 = figs::fig11::run_with(&SweepRunner::new(4), 64);
    assert_eq!(cold11, warm11, "fig11 parallel rerun must match serial");
}

/// The sims/sec scenario run repeatedly (shared Arc specs — exactly
/// what `perf_report` measures, via the shared `SimsBench`
/// definition) must reproduce its first report exactly.
#[test]
fn repeated_engine_runs_reproduce_the_first_report() {
    use seesaw_bench::simsbench::SimsBench;
    let bench = SimsBench::new();
    let first_seesaw = bench.run_seesaw_once();
    let first_vllm = bench.run_vllm_once();
    let first_chunked = bench.run_vllm_chunked_once();
    for _ in 0..3 {
        assert_eq!(bench.run_seesaw_once(), first_seesaw, "rerun drifted");
        assert_eq!(bench.run_vllm_once(), first_vllm, "rerun drifted");
        assert_eq!(bench.run_vllm_chunked_once(), first_chunked, "rerun drifted");
    }
}

#[test]
fn figure_output_is_byte_identical_across_job_counts() {
    // A figure with an internal grid (four engine runs) rendered to
    // its final string: the user-visible artifact must not depend on
    // the worker count.
    let serial = figs::fig12::run_with(&SweepRunner::serial(), 16);
    let parallel = figs::fig12::run_with(&SweepRunner::new(4), 16);
    assert_eq!(serial, parallel);
    let serial = figs::ablations::abl_buffer_with(&SweepRunner::serial(), 24);
    let parallel = figs::ablations::abl_buffer_with(&SweepRunner::new(3), 24);
    assert_eq!(serial, parallel);
}

/// The `serving` bin's sweep: the default scenario's fleet scaling
/// sweep at one replica under round-robin.
fn serving_sweep(
    runner: &SweepRunner,
    kind: seesaw_bench::serving::EngineKind,
    n_requests: usize,
    multipliers: &[f64],
) -> seesaw_fleet::FleetScalingSweep {
    seesaw_bench::fleet::FleetScenario::new(kind, n_requests, seesaw_bench::SEED).scaling_with(
        runner,
        None,
        &[1],
        multipliers,
        seesaw_fleet::RouterPolicy::RoundRobin,
        seesaw_bench::serving::DEFAULT_SLO,
    )
}

/// The online-serving sweep inherits the same contract: identical
/// points (reports, timelines, latency percentiles, attainment) and
/// identical rendered output for every job count, warm pools or not.
#[test]
fn serving_sweep_is_byte_identical_across_job_counts() {
    use seesaw_bench::serving::{self, EngineKind};
    let run =
        |runner: &SweepRunner| serving_sweep(runner, EngineKind::Vllm, 48, &[0.5, 1.0, 2.0, 4.0]);
    let serial = run(&SweepRunner::serial());
    let parallel = run(&SweepRunner::new(4));
    assert_eq!(serial, parallel, "serving points must be runner-invariant");
    assert_eq!(serving::render(&serial), serving::render(&parallel));
    // Warm rerun (pools and caches populated) must also reproduce.
    let warm = run(&SweepRunner::new(4));
    assert_eq!(serial, warm, "warm-pool serving rerun drifted");
}

/// The attainment knee of the `serving` bin's *default* sweep
/// (200 ShareGPT requests, the default load ladder and SLO):
/// monotone nonincreasing in offered load, starting from full
/// attainment at light load. (Tiny request sets at extreme loads can
/// wiggle by a request or two as batch boundaries shift — the
/// shipped default is the contract.)
#[test]
fn serving_attainment_knee_is_monotone() {
    use seesaw_bench::serving::{EngineKind, DEFAULT_LOAD_MULTIPLIERS};
    let sweep =
        serving_sweep(&SweepRunner::from_env(), EngineKind::Vllm, 200, DEFAULT_LOAD_MULTIPLIERS);
    for w in sweep.points.windows(2) {
        assert!(
            w[1].attainment <= w[0].attainment + 1e-12,
            "attainment rose with load: {:.3} @ {:.2}x -> {:.3} @ {:.2}x",
            w[0].attainment,
            w[0].load_multiplier,
            w[1].attainment,
            w[1].load_multiplier
        );
    }
    let first = &sweep.points[0];
    let last = sweep.points.last().expect("non-empty");
    assert!((first.attainment - 1.0).abs() < 1e-12, "light load must meet the SLO");
    assert!(
        last.attainment < 0.5 * first.attainment,
        "4x overload must miss the SLO for most requests, got {}",
        last.attainment
    );
    assert!(
        last.goodput_rps < first.report.throughput_rps() + 1e-12,
        "goodput must collapse below light-load throughput under deep overload"
    );
}

/// The serving sims/sec scenario (perf_report's `serving` metric)
/// reproduces exactly across warm-pool repetitions.
#[test]
fn repeated_serving_runs_reproduce_the_first_report() {
    use seesaw_bench::simsbench::SimsBench;
    let bench = SimsBench::new();
    let first = bench.run_serving_once();
    assert_eq!(first.stats.requests, 24);
    assert!(first.latency.is_some());
    for _ in 0..3 {
        assert_eq!(bench.run_serving_once(), first, "warm-pool serving rerun drifted");
    }
}

/// The fleet sweeps inherit the byte-identity contract: identical
/// `FleetScalingSweep`/comparison points, rendered tables, and JSON
/// for every job count — routing is serial, replica runs are
/// independent, and results collect in deterministic order.
#[test]
fn fleet_sweeps_are_byte_identical_across_job_counts() {
    use seesaw_bench::fleet;
    use seesaw_bench::serving::EngineKind;
    use seesaw_fleet::RouterPolicy;
    let experiments = |runner: &SweepRunner| {
        fleet::default_experiments_patterned_with(
            runner,
            &fleet::FleetScenario::new(EngineKind::Vllm, 32, seesaw_bench::SEED),
            None,
            &[1, 2, 4],
            &[0.5, 1.0],
            RouterPolicy::JoinShortestQueue,
            4,
            0.9,
            seesaw_bench::serving::DEFAULT_SLO,
        )
    };
    let (s1, c1) = experiments(&SweepRunner::serial());
    let (s4, c4) = experiments(&SweepRunner::new(4));
    assert_eq!(s1, s4, "fleet scaling points must be runner-invariant");
    assert_eq!(c1, c4, "router comparison must be runner-invariant");
    assert_eq!(fleet::render_scaling(&s1), fleet::render_scaling(&s4));
    assert_eq!(fleet::render_comparison(&c1), fleet::render_comparison(&c4));
    assert_eq!(
        fleet::to_json(&s1, &c1, None, seesaw_bench::SEED, None),
        fleet::to_json(&s4, &c4, None, seesaw_bench::SEED, None)
    );
    // Warm rerun (pools and caches populated) must also reproduce.
    let (warm, _) = experiments(&SweepRunner::new(4));
    assert_eq!(s1, warm, "warm-pool fleet rerun drifted");
}

/// The serving sweep's `--json` rendering is deterministic across job
/// counts and engine backends.
#[test]
fn serving_json_is_runner_invariant() {
    use seesaw_bench::serving::{self, EngineKind};
    for kind in [EngineKind::Vllm, EngineKind::Disagg] {
        let run = |runner: &SweepRunner| serving_sweep(runner, kind, 24, &[0.5, 2.0]);
        let serial = serving::to_json(&run(&SweepRunner::serial()));
        let parallel = serving::to_json(&run(&SweepRunner::new(4)));
        assert_eq!(serial, parallel, "{kind:?} JSON must be runner-invariant");
        assert!(serial.contains("\"points\""));
    }
}

/// The fleet sims/sec scenario (perf_report's `fleet` metric)
/// reproduces exactly across warm-pool repetitions and serves the
/// whole request set over all four replicas.
#[test]
fn repeated_fleet_runs_reproduce_the_first_report() {
    use seesaw_bench::simsbench::{SimsBench, FLEET_REPLICAS};
    let bench = SimsBench::new();
    let first = bench.run_fleet_once();
    assert_eq!(first.stats.requests, 24);
    assert_eq!(first.replicas.len(), FLEET_REPLICAS);
    assert!(first.latency.is_some());
    for _ in 0..3 {
        assert_eq!(bench.run_fleet_once(), first, "warm-pool fleet rerun drifted");
    }
}

/// The live-fleet sims/sec scenario (perf_report's `fleet_live`
/// metric) reproduces exactly across warm-pool repetitions — the
/// global event loop's measured-state queries must be as
/// deterministic as estimated routing.
#[test]
fn repeated_fleet_live_runs_reproduce_the_first_report() {
    use seesaw_bench::simsbench::{SimsBench, FLEET_REPLICAS};
    let bench = SimsBench::new();
    let first = bench.run_fleet_live_once();
    assert_eq!(first.stats.requests, 24);
    assert_eq!(first.replicas.len(), FLEET_REPLICAS);
    assert!(first.latency.is_some());
    for _ in 0..3 {
        assert_eq!(bench.run_fleet_live_once(), first, "warm-pool live-fleet rerun drifted");
    }
}

/// The autoscale sims/sec scenario (perf_report's `autoscale` metric)
/// reproduces exactly across warm-pool repetitions: controller
/// trajectory, scale events, lifecycles, and the merged fleet report.
#[test]
fn repeated_autoscale_runs_reproduce_the_first_report() {
    use seesaw_bench::simsbench::SimsBench;
    let bench = SimsBench::new();
    let first = bench.run_autoscale_once();
    assert!(!bench.autoscale_reqs.is_empty());
    assert_eq!(first.fleet.timeline.len(), bench.autoscale_reqs.len());
    assert!(
        first.events.iter().any(|e| e.to > e.from),
        "the compressed diurnal peak must trigger scale-ups: {:?}",
        first.events
    );
    // Measured windows cover at least the control horizon (the drain
    // tail may extend past it).
    assert!(first.windowed.len() >= first.windows.len());
    for _ in 0..3 {
        assert_eq!(bench.run_autoscale_once(), first, "warm-pool autoscale rerun drifted");
    }
}

/// The metrics sims/sec scenario (perf_report's `metrics` metric)
/// times exactly what the controller computes: over the precomputed
/// day it yields the autoscale report's windows and alerts.
#[test]
fn metrics_scenario_reproduces_the_controller_metrics() {
    use seesaw_bench::simsbench::SimsBench;
    let bench = SimsBench::new();
    let report = bench.run_autoscale_once();
    assert_eq!(bench.metrics_timeline, report.fleet.timeline);
    let (windows, alerts) = bench.run_metrics_once();
    assert_eq!(windows, report.windowed);
    assert_eq!(alerts, report.alerts);
}
