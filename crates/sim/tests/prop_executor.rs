//! Property tests for the discrete-event executor: for arbitrary task
//! DAGs, service must respect resources (no overlap on one resource),
//! dependencies, and work conservation.

use proptest::prelude::*;
use seesaw_sim::{SimTime, Simulator, TaskHandle, TaskKind, TaskSpec};

/// A randomly generated task: resource index, duration, and a set of
/// earlier tasks to depend on (encoded as offsets).
#[derive(Debug, Clone)]
struct GenTask {
    resource: usize,
    duration: f64,
    dep_offsets: Vec<usize>,
}

fn tasks_strategy(n_res: usize) -> impl Strategy<Value = Vec<GenTask>> {
    prop::collection::vec(
        (
            0..n_res,
            0.001f64..2.0,
            prop::collection::vec(1usize..8, 0..3),
        ),
        1..40,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(resource, duration, dep_offsets)| GenTask {
                resource,
                duration,
                dep_offsets,
            })
            .collect()
    })
}

fn build_and_run(tasks: &[GenTask], n_res: usize) -> Simulator {
    let mut sim = Simulator::new();
    (0..n_res).for_each(|i| {
        sim.add_resource(format!("r{i}"));
    });
    run_workload(&mut sim, tasks);
    sim
}

/// Drive `tasks` through an already-resourced simulator.
fn run_workload(sim: &mut Simulator, tasks: &[GenTask]) {
    let mut handles = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let r = sim.pool().id(t.resource);
        let mut spec = TaskSpec::new(r, t.duration, TaskKind::Compute);
        for &off in &t.dep_offsets {
            if off <= i && i > 0 {
                let dep = handles[i - off.min(i)];
                spec = spec.after(dep);
            }
        }
        handles.push(sim.submit(spec));
    }
    sim.run_until_idle();
}

/// Drive `tasks` through two simulators in lockstep, one of which
/// retires between submissions as `ops` says, and check that both
/// report the same completion times, clock, busy times and trace.
/// `ops[i]` = (how far back to `run_until` after task `i`, whether to
/// retire).
fn check_retiring_matches_keeping(tasks: &[GenTask], ops: &[(usize, bool)], n_res: usize) {
    let (mut keeping, mut retiring) = (Simulator::new(), Simulator::new());
    for i in 0..n_res {
        keeping.add_resource(format!("r{i}"));
        retiring.add_resource(format!("r{i}"));
    }
    let mut handles = Vec::new();
    // Completion times read from `retiring` before each retire, as an
    // engine's timing recorder settles them.
    let mut times = Vec::new();
    let settle = |sim: &Simulator, handles: &[TaskHandle], times: &mut Vec<Option<SimTime>>| {
        let dropped = sim.submitted_tasks() - sim.retained_tasks();
        times.resize(handles.len(), None);
        for (h, t) in handles.iter().zip(times.iter_mut()).skip(dropped) {
            if t.is_none() {
                *t = sim.completion_time(*h);
            }
        }
    };
    for (i, (t, &(back, retire))) in tasks.iter().zip(ops).enumerate() {
        let submit = |sim: &mut Simulator| {
            let mut spec = TaskSpec::new(sim.pool().id(t.resource), t.duration, TaskKind::Compute);
            for &off in &t.dep_offsets {
                if off <= i && i > 0 {
                    spec = spec.after(handles[i - off.min(i)]);
                }
            }
            sim.submit(spec)
        };
        let h = submit(&mut keeping);
        assert_eq!(submit(&mut retiring), h, "ids are monotone in both");
        handles.push(h);
        let target = handles[i - back.min(i)];
        keeping.run_until(target);
        retiring.run_until(target);
        if retire {
            settle(&retiring, &handles, &mut times);
            retiring.retire();
        }
        assert_eq!(keeping.now(), retiring.now());
        assert_eq!(keeping.outstanding(), retiring.outstanding());
    }
    keeping.run_until_idle();
    retiring.run_until_idle();
    settle(&retiring, &handles, &mut times);
    for (h, t) in handles.iter().zip(&times) {
        assert_eq!(*t, keeping.completion_time(*h), "completion time of task {}", h.index());
    }
    for i in 0..n_res {
        let r = keeping.pool().id(i);
        assert_eq!(keeping.busy_time(r), retiring.busy_time(r));
    }
    assert_same_outcome(&keeping, &retiring);
}

fn assert_same_outcome(a: &Simulator, b: &Simulator) {
    assert_eq!(a.now(), b.now(), "final SimTime must match");
    assert_eq!(a.trace().spans().len(), b.trace().spans().len());
    for (x, y) in a.trace().spans().iter().zip(b.trace().spans()) {
        assert_eq!(x.resource, y.resource);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.start, y.start);
        assert_eq!(x.end, y.end);
        assert_eq!(x.tag, y.tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Makespan bounds: at least the busiest resource's total work,
    /// at most the sum of all durations (plus epsilon).
    #[test]
    fn makespan_within_bounds(tasks in tasks_strategy(3)) {
        let sim = build_and_run(&tasks, 3);
        let total: f64 = tasks.iter().map(|t| t.duration).sum();
        let mut per_res = [0.0f64; 3];
        for t in &tasks {
            per_res[t.resource] += t.duration;
        }
        let busiest = per_res.iter().cloned().fold(0.0, f64::max);
        let end = sim.now().as_secs();
        prop_assert!(end >= busiest - 1e-9, "end {end} < busiest {busiest}");
        prop_assert!(end <= total + 1e-9, "end {end} > total {total}");
    }

    /// No two spans on the same resource overlap.
    #[test]
    fn resources_serve_one_task_at_a_time(tasks in tasks_strategy(2)) {
        let sim = build_and_run(&tasks, 2);
        for r in 0..2 {
            let mut spans: Vec<(f64, f64)> = sim
                .trace()
                .spans()
                .iter()
                .filter(|s| s.resource.map(|id| id.index()) == Some(r))
                .map(|s| (s.start.as_secs(), s.end.as_secs()))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// Work conservation: the trace's total busy time equals the sum
    /// of durations.
    #[test]
    fn work_is_conserved(tasks in tasks_strategy(3)) {
        let sim = build_and_run(&tasks, 3);
        let total: f64 = tasks.iter().map(|t| t.duration).sum();
        let busy = sim.trace().summary().total();
        prop_assert!((busy - total).abs() < 1e-6, "busy {busy} vs total {total}");
    }

    /// Replays are bit-identical (determinism).
    #[test]
    fn deterministic_replay(tasks in tasks_strategy(3)) {
        let a = build_and_run(&tasks, 3);
        let b = build_and_run(&tasks, 3);
        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(a.trace().spans().len(), b.trace().spans().len());
        for (x, y) in a.trace().spans().iter().zip(b.trace().spans()) {
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
        }
    }

    /// Retiring finished tasks at random points changes no outcome:
    /// completion times, the clock, busy times and trace spans all
    /// match a run that never retires.
    #[test]
    fn retiring_matches_keeping(
        tasks in tasks_strategy(3),
        ops in prop::collection::vec((0usize..4, prop::sample::select(vec![false, true])), 40..41),
    ) {
        check_retiring_matches_keeping(&tasks, &ops, 3);
    }
}
