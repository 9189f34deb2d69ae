//! Figure 10: end-to-end throughput panels. Usage:
//! `cargo run --release -p seesaw-bench --bin fig10 [a10|l4] [subsample]`
use seesaw_bench::cli;
use seesaw_engine::SweepRunner;

const USAGE: &str = "fig10 [a10|l4] [subsample]";

fn main() {
    let args = cli::positionals(USAGE, 2);
    let gpu = args.first().map_or("a10", String::as_str);
    if !matches!(gpu, "a10" | "l4") {
        cli::fail(format_args!("unknown gpu '{gpu}'; expected a10 or l4\nusage: {USAGE}"));
    }
    let sub = args.get(1).map_or(1, |s| cli::positive(s, "subsample"));
    println!("{}", seesaw_bench::figs::fig10::run_with(&SweepRunner::from_env(), gpu, sub));
}
