//! Figure 14: bandwidth sensitivity. Usage: fig14 [n_requests_per_point]
use seesaw_engine::SweepRunner;

fn main() {
    let n = seesaw_bench::cli::count_arg("fig14 [n_requests_per_point]", "n_requests_per_point", 150);
    println!("{}", seesaw_bench::figs::fig14::run_with(&SweepRunner::from_env(), n));
}
