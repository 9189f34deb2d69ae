//! All ablation studies (DESIGN.md D1-D5). Usage: ablations [n_requests]
use seesaw_bench::figs::ablations as a;
use seesaw_engine::SweepRunner;

fn main() {
    let n = seesaw_bench::cli::count_arg("ablations [n_requests]", "n_requests", 200);
    let runner = SweepRunner::from_env();
    println!("{}", a::abl_sched_with(&runner, n));
    println!("{}", a::abl_buffer_with(&runner, n));
    println!("{}", a::abl_overlap_with(&runner, n));
    println!("{}", a::abl_layout_with(&runner, n));
    println!("{}", a::abl_reshard());
    println!("{}", a::abl_chunk_with(&runner, n));
}
