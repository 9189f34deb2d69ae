//! Figure 12: speedup breakdown. Usage: fig12 [n_requests]
use seesaw_engine::SweepRunner;

fn main() {
    let n = seesaw_bench::cli::count_arg("fig12 [n_requests]", "n_requests", 500);
    println!("{}", seesaw_bench::figs::fig12::run_with(&SweepRunner::from_env(), n));
}
