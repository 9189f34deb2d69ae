//! Figure 13: D:P ratio sensitivity. Usage: fig13 [n_requests_per_point]
use seesaw_engine::SweepRunner;

fn main() {
    let n = seesaw_bench::cli::count_arg("fig13 [n_requests_per_point]", "n_requests_per_point", 64);
    println!("{}", seesaw_bench::figs::fig13::run_with(&SweepRunner::from_env(), n));
}
