//! Figure 11: A100 PCIe vs NVLink. Usage: fig11 [subsample]
use seesaw_engine::SweepRunner;

fn main() {
    let n = seesaw_bench::cli::count_arg("fig11 [subsample]", "subsample", 1);
    println!("{}", seesaw_bench::figs::fig11::run_with(&SweepRunner::from_env(), n));
}
