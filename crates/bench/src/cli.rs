//! Shared argument parsing for the sweep binaries
//! (`all_figures [subsample] [--jobs N]`,
//! `perf_report [subsample] [--jobs N] [--out PATH]`) and the
//! per-figure binaries. Malformed arguments print a message and exit
//! 2; they never panic or fall back to a default silently.

/// Parsed sweep-binary arguments.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Divisor of the paper's request counts.
    pub subsample: usize,
    /// Explicit worker count (`None` = environment's choice).
    pub jobs: Option<usize>,
    /// `--out PATH`, when the binary accepts it.
    pub out: Option<String>,
    /// `--baseline PATH`, when the binary accepts `--out` (regression
    /// gate against a committed artifact).
    pub baseline: Option<String>,
}

/// Parse `std::env::args`: an optional positional `subsample`
/// (defaulting to `default_subsample`), `--jobs`/`-j N` (N ≥ 1), and
/// — only when `accept_out` — `--out`/`-o PATH` and
/// `--baseline`/`-b PATH`. Prints `usage` and exits 2 on anything
/// malformed.
pub fn parse_sweep_args(usage: &str, default_subsample: usize, accept_out: bool) -> SweepArgs {
    let mut parsed = SweepArgs {
        subsample: default_subsample,
        jobs: None,
        out: None,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                parsed.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .or_else(|| {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" | "-o" if accept_out => {
                parsed.out = args.next().or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--baseline" | "-b" if accept_out => {
                parsed.baseline = args.next().or_else(|| {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2);
                });
            }
            other if other.parse::<usize>().is_ok() => {
                parsed.subsample = positive(other, "subsample");
            }
            _ => {
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Parse a count argument that must be at least 1, exiting 2 with a
/// message otherwise.
pub fn positive(arg: &str, what: &str) -> usize {
    match arg.parse::<usize>() {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!("{what} must be a positive integer, got '{arg}'");
            std::process::exit(2);
        }
    }
}

/// The positional arguments of a binary taking at most `max` of them;
/// prints `usage` and exits 2 when there are more.
pub fn positionals(usage: &str, max: usize) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > max {
        eprintln!("usage: {usage}");
        std::process::exit(2);
    }
    args
}

/// The single optional count argument of a per-figure binary:
/// `default` when absent; prints a message and exits 2 when it is not
/// a positive integer or is followed by more arguments.
pub fn count_arg(usage: &str, what: &str, default: usize) -> usize {
    positionals(usage, 1).first().map_or(default, |s| positive(s, what))
}
