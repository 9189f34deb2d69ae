//! Parallel candidate-grid evaluation.
//!
//! A full Figure 10 panel executes hundreds of independent engine
//! runs; auto-tuning probes dozens of `(c_p, c_d)` pairs; ablations
//! sweep spec variants. All of these are embarrassingly parallel:
//! each candidate owns its own [`Simulator`](seesaw_sim::Simulator),
//! KV caches, and roofline, so runs share nothing.
//! [`SweepRunner`] evaluates such grids across OS threads while
//! keeping results in candidate order, so parallel output is
//! byte-identical to the serial path.
//!
//! # Job-count resolution
//!
//! `SweepRunner::from_env()` resolves, in order: the
//! `SEESAW_JOBS` environment variable, the conventional
//! `RAYON_NUM_THREADS` variable, then the host's available
//! parallelism. Binaries expose `--jobs N` and construct
//! `SweepRunner::new(n)` explicitly.
//!
//! # Nesting
//!
//! Sweeps compose (a figure sweeps grid cells; each cell sweeps vLLM
//! configurations). To avoid spawning `jobs²` threads, each sweep
//! worker carries a *job budget* — its share of the parent runner's
//! jobs — and nested runners clamp to it. With more items than jobs
//! the budget is 1 and inner grids run serially; with more jobs than
//! items (e.g. `--jobs 32` over 17 figures) the surplus flows to the
//! inner grids instead of idling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

thread_local! {
    /// This thread's share of an enclosing sweep's job count
    /// (`None` outside any sweep = unbounded).
    static JOB_BUDGET: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// RAII scope installing a job budget for nested sweeps on this
/// thread; restores the previous budget on drop (including unwinds).
struct BudgetScope {
    prev: Option<usize>,
}

impl BudgetScope {
    fn enter(budget: usize) -> Self {
        let prev = JOB_BUDGET.with(|c| c.replace(Some(budget.max(1))));
        BudgetScope { prev }
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        JOB_BUDGET.with(|c| c.set(self.prev));
    }
}

/// The host's available parallelism (1 when it cannot be queried) —
/// the single source of truth for job-count clamping and the
/// `host_cores` field of `BENCH_sweep.json`.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One evaluated candidate: the closure's value plus how long this
/// candidate took on its worker (wall-clock seconds, for
/// `perf_report`-style trajectory artifacts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepResult<T> {
    /// The candidate's evaluation result.
    pub value: T,
    /// Worker wall-clock seconds spent on this candidate.
    pub elapsed_s: f64,
}

/// Evaluates candidate grids across a fixed number of worker threads
/// with deterministic, submission-ordered results.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    /// What the caller asked for (recorded in `BENCH_sweep.json`).
    requested: usize,
    /// What actually runs (≤ requested on the clamped constructors).
    jobs: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl SweepRunner {
    /// Runner with an explicit, *unclamped* job count (≥ 1). Used by
    /// tests that deliberately oversubscribe; binaries resolve
    /// `--jobs` through [`SweepRunner::with_jobs`], which clamps to
    /// the host's cores — more worker threads than cores only adds
    /// contention (PR 1's `BENCH_sweep.json` measured `--jobs 4` at
    /// 0.81x on a 1-core host).
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        SweepRunner { requested: jobs, jobs }
    }

    /// Strictly serial runner (reference path for determinism tests).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// `requested` jobs clamped to the host's available parallelism.
    fn clamped(requested: usize) -> Self {
        let requested = requested.max(1);
        SweepRunner {
            requested,
            jobs: requested.min(host_cores()),
        }
    }

    /// Job count from `SEESAW_JOBS`, else `RAYON_NUM_THREADS`, else
    /// the host's available parallelism; always clamped to the host's
    /// available parallelism.
    pub fn from_env() -> Self {
        let from_var = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        let jobs = from_var("SEESAW_JOBS")
            .or_else(|| from_var("RAYON_NUM_THREADS"))
            .unwrap_or_else(host_cores);
        Self::clamped(jobs)
    }

    /// Runner with `jobs` when given, else the environment's choice —
    /// clamped to the host's cores either way. This is the `--jobs`
    /// resolution path for every binary.
    pub fn with_jobs(jobs: Option<usize>) -> Self {
        jobs.map_or_else(Self::from_env, Self::clamped)
    }

    /// Worker-thread count this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Worker threads a sweep started on the calling thread would use:
    /// [`SweepRunner::jobs`], clamped to this thread's share of any
    /// enclosing sweep.
    pub fn effective_jobs(&self) -> usize {
        JOB_BUDGET
            .with(|c| c.get())
            .map_or(self.jobs, |budget| self.jobs.min(budget.max(1)))
    }

    /// Worker-thread count the caller asked for, before clamping.
    pub fn requested_jobs(&self) -> usize {
        self.requested
    }

    /// Evaluate `f` over every item, returning per-candidate results
    /// in item order regardless of completion order. `f` runs on up
    /// to `jobs` threads; candidates are claimed from a shared queue
    /// so long and short candidates balance.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<SweepResult<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run_stream(items, f, |_, _| {})
    }

    /// Like [`SweepRunner::run`], additionally invoking `on_ready`
    /// for each candidate *in item order* as soon as its result and
    /// every predecessor's are available — so binaries can stream
    /// output incrementally while later candidates still execute.
    /// `on_ready` runs on the calling thread and must not re-enter
    /// the runner.
    pub fn run_stream<I, T, F, C>(&self, items: &[I], f: F, mut on_ready: C) -> Vec<SweepResult<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
        C: FnMut(usize, &SweepResult<T>),
    {
        let timed = |item: &I| {
            let t0 = Instant::now();
            let value = f(item);
            SweepResult {
                value,
                elapsed_s: t0.elapsed().as_secs_f64(),
            }
        };

        let effective = self.effective_jobs();
        if effective == 1 || items.len() <= 1 {
            // A (effectively) serial runner must pin nested sweeps
            // to serial too — otherwise an inner `from_env()` runner
            // would parallelize inside the "serial" baseline (and
            // `--jobs 1` would not actually be single-threaded). A
            // single-item grid on a parallel runner leaves the
            // budget as-is so its inner grids still use the cores.
            let _guard = (effective == 1).then(|| BudgetScope::enter(1));
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = timed(item);
                    on_ready(i, &r);
                    r
                })
                .collect();
        }

        // Workers store Err(panic payload) instead of dying silently,
        // so a panicking candidate aborts the whole run (as it would
        // serially) rather than leaving the drain loop waiting on a
        // slot that will never fill.
        type Slot<T> = Option<Result<SweepResult<T>, Box<dyn std::any::Any + Send>>>;
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Slot<T>>> = Mutex::new(items.iter().map(|_| None).collect());
        let ready = Condvar::new();
        let workers = effective.min(items.len());
        // Split the job count exactly across workers (floor + spread
        // remainder), so nested sweeps can use the surplus when items
        // are fewer than jobs while total concurrency never exceeds
        // `effective`.
        let mut out: Vec<SweepResult<T>> = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            let (next, slots, ready, timed) = (&next, &slots, &ready, &timed);
            for w in 0..workers {
                let child_budget =
                    (effective / workers + usize::from(w < effective % workers)).max(1);
                scope.spawn(move || {
                    let _budget = BudgetScope::enter(child_budget);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || timed(&items[i]),
                        ));
                        slots.lock().expect("sweep slots poisoned")[i] = Some(result);
                        ready.notify_all();
                    }
                });
            }
            // The caller's thread drains results in item order as the
            // prefix completes; `on_ready` runs with the lock
            // released so a slow callback (printing a whole figure)
            // never stalls workers storing their results.
            let mut taken = 0;
            while taken < items.len() {
                let mut batch = Vec::new();
                {
                    let mut guard = slots.lock().expect("sweep slots poisoned");
                    while guard[taken].is_none() {
                        guard = ready.wait(guard).expect("sweep slots poisoned");
                    }
                    while taken < items.len() {
                        let Some(result) = guard[taken].take() else {
                            break;
                        };
                        batch.push(result);
                        taken += 1;
                    }
                }
                for result in batch {
                    match result {
                        Ok(result) => {
                            on_ready(out.len(), &result);
                            out.push(result);
                        }
                        Err(payload) => {
                            // Stop handing out work, then re-raise the
                            // candidate's panic once workers drain.
                            next.store(items.len(), Ordering::Relaxed);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        });
        out
    }

    /// Like [`SweepRunner::run`] but returning only the values.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run(items, f).into_iter().map(|r| r.value).collect()
    }

    /// Evaluate a heterogeneous list of independent jobs (e.g. whole
    /// figures), in order.
    pub fn run_tasks<T: Send>(
        &self,
        tasks: Vec<Box<dyn Fn() -> T + Send + Sync + '_>>,
    ) -> Vec<SweepResult<T>> {
        self.run(&tasks, |t| t())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order() {
        let runner = SweepRunner::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = runner.map(&items, |&i| {
            // Vary work so completion order differs from item order.
            let spin = (64 - i) * 1000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let serial = SweepRunner::serial().map(&items, f);
        let parallel = SweepRunner::new(8).map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn serial_runner_pins_nested_sweeps_to_the_calling_thread() {
        let main_id = std::thread::current().id();
        let inner_ids = SweepRunner::serial().map(&[()], |_| {
            SweepRunner::new(4).map(&[0u8, 1, 2, 3], |_| std::thread::current().id())
        });
        assert!(
            inner_ids[0].iter().all(|&id| id == main_id),
            "a serial outer run must keep env/parallel inner runners inline"
        );
        // The pin is scoped: after the serial run, parallel runners
        // spawn workers again.
        let outside = SweepRunner::new(4).map(&[0u8, 1, 2, 3], |_| std::thread::current().id());
        assert!(
            outside.iter().any(|&id| id != main_id),
            "flag must be cleared once the serial run returns"
        );
    }

    #[test]
    fn nested_sweeps_stay_within_budget_and_correct() {
        let outer = SweepRunner::new(4);
        let inner_grid: Vec<usize> = (0..8).collect();
        let out = outer.map(&[10usize, 20, 30], |&base| {
            // Inside a worker the nested runner is clamped to the
            // worker's budget (no jobs² thread explosion) and must
            // produce identical results.
            SweepRunner::new(4).map(&inner_grid, |&i| base + i)
        });
        assert_eq!(out[0], (10..18).collect::<Vec<_>>());
        assert_eq!(out[2], (30..38).collect::<Vec<_>>());
    }

    #[test]
    fn surplus_jobs_flow_to_nested_sweeps() {
        // 8 jobs over 2 items: each worker gets a budget of 4, so
        // inner grids parallelize instead of idling the surplus.
        let used_other_threads = SweepRunner::new(8).map(&[0u8, 1], |_| {
            let me = std::thread::current().id();
            SweepRunner::new(8)
                .map(&[0u8, 1, 2, 3], |_| std::thread::current().id())
                .iter()
                .any(|&id| id != me)
        });
        assert!(
            used_other_threads.iter().all(|&b| b),
            "inner grids must use the surplus budget"
        );
    }

    #[test]
    fn streaming_emits_in_item_order_while_parallel() {
        let runner = SweepRunner::new(4);
        let items: Vec<usize> = (0..32).collect();
        let mut seen = Vec::new();
        let out = runner.run_stream(
            &items,
            |&i| {
                // Early items finish last, forcing out-of-order
                // completion.
                let spin = (32 - i) * 2000;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k as u64);
                }
                std::hint::black_box(acc);
                i
            },
            |idx, r| seen.push((idx, r.value)),
        );
        assert_eq!(seen, (0..32).map(|i| (i, i)).collect::<Vec<_>>());
        assert_eq!(out.len(), 32);
    }

    #[test]
    #[should_panic(expected = "candidate 3 exploded")]
    fn worker_panic_propagates_instead_of_hanging() {
        let runner = SweepRunner::new(4);
        let items: Vec<usize> = (0..16).collect();
        runner.map(&items, |&i| {
            if i == 3 {
                panic!("candidate 3 exploded");
            }
            i
        });
    }

    #[test]
    fn timings_are_captured() {
        let runner = SweepRunner::new(2);
        let res = runner.run(&[1u32, 2, 3], |&x| x);
        assert_eq!(res.len(), 3);
        for r in &res {
            assert!(r.elapsed_s >= 0.0 && r.elapsed_s.is_finite());
        }
    }

    #[test]
    fn jobs_resolution() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
        assert_eq!(SweepRunner::new(8).jobs(), 8, "new() never clamps");
        assert!(SweepRunner::from_env().jobs() >= 1);
    }

    /// `--jobs N` (the `with_jobs` path) remembers the request but
    /// never runs more workers than the host has cores, so sweep
    /// defaults cannot oversubscribe a small machine.
    #[test]
    fn explicit_jobs_clamp_to_available_cores() {
        let cores = host_cores();
        let r = SweepRunner::with_jobs(Some(4 * cores));
        assert_eq!(r.requested_jobs(), 4 * cores);
        assert_eq!(r.jobs(), cores);
        let r = SweepRunner::with_jobs(Some(1));
        assert_eq!(r.jobs(), 1);
        let env = SweepRunner::from_env();
        assert!(env.jobs() <= cores);
        assert!(env.jobs() <= env.requested_jobs());
    }
}
