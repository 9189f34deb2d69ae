//! The bench binaries' shared front end: one flag reader ([`Flags`])
//! with a method per value class, the flags `autoscale` and `chaos`
//! share ([`ScenarioArgs`]), the sweep binaries' arguments
//! ([`parse_sweep_args`]), and the one writer of `--trace-out` /
//! `--metrics-out` files ([`TelemetryOut`]). Malformed arguments
//! print a message and exit 2; they never panic, abort, or fall back
//! to a default silently.

use crate::autoscale::{check_window_count, ScenarioSpec};
use crate::serving::EngineKind;
use seesaw_autoscale::AutoscaleConfig;
use seesaw_telemetry::{Instrument, MetricsRegistry};
use std::fmt::Display;

/// Most replicas one fleet or elastic run may hold (`fleet
/// --replicas`/`--compare-replicas`, `autoscale`/`chaos --min`/`--max`),
/// 256× the default elastic ceiling of 16. Every replica is built up
/// front, so a mistyped count used to abort on a terabyte-sized
/// allocation. Measured at the bound (2-core x86-64 host): `fleet 200
/// --replicas 4096 --loads 0.5 --no-hetero --compare-replicas 4096`
/// takes 0.6 s and peaks at 66 MiB RSS; `autoscale --day 600 --window
/// 60 --min 4096 --max 4096` takes 2.8 s and 40 MiB.
pub const MAX_REPLICAS: usize = 4096;

/// Most requests one `fleet`, `serving` or `seesaw_cli compare` run
/// may generate (their `n_requests`), 50× the paper's largest sample
/// (2000 ShareGPT requests). The request set is allocated up front,
/// so a mistyped count used to abort on a terabyte-sized allocation.
/// Measured at the bound (2-core x86-64 host): `serving 100000
/// --loads 1` takes 1.8 s and peaks at 385 MiB RSS; `fleet 100000
/// --replicas 64 --loads 1 --no-hetero --compare-replicas 64` takes
/// 242 s and 1.6 GiB, most of it in the live policies, whose cost
/// grows with the square of requests per replica.
pub const MAX_REQUESTS: usize = 100_000;

/// Print `msg` and exit 2: how every bin rejects an argument.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A binary's command line, read flag by flag. Each value method
/// consumes the flag's value and prints the flag's message and exits
/// 2 when it is missing or malformed.
pub struct Flags {
    usage: String,
    args: std::iter::Skip<std::env::Args>,
}

impl Flags {
    /// The process arguments after the program name; `usage` is the
    /// line printed (as `usage: {usage}`) on an unknown argument.
    pub fn new(usage: &str) -> Self {
        Flags { usage: usage.to_string(), args: std::env::args().skip(1) }
    }

    /// The next flag or positional argument.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Print the usage line and exit 2.
    fn usage(&self) -> ! {
        fail(format_args!("usage: {}", self.usage))
    }

    /// The next value, or the usage line when there is none (the
    /// message of every string-valued flag: paths, names, specs).
    pub fn value(&mut self) -> String {
        self.args.next().unwrap_or_else(|| self.usage())
    }

    /// The next value parsed by `parse`, or `{flag} needs {what}` when
    /// it is missing or `parse` rejects it.
    fn need<T>(&mut self, flag: &str, what: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
        self.args
            .next()
            .and_then(|v| parse(&v))
            .unwrap_or_else(|| fail(format_args!("{flag} needs {what}")))
    }

    /// A positive finite number.
    pub fn positive(&mut self, flag: &str) -> f64 {
        self.need(flag, "a positive number", positive_number)
    }

    /// A non-negative finite number.
    pub fn non_negative(&mut self, flag: &str) -> f64 {
        self.need(flag, "a non-negative number", |v| {
            v.parse().ok().filter(|&x: &f64| x.is_finite() && x >= 0.0)
        })
    }

    /// A positive integer.
    pub fn count(&mut self, flag: &str) -> usize {
        self.need(flag, "a positive integer", positive_integer)
    }

    /// A replica count: a positive integer up to [`MAX_REPLICAS`].
    pub fn replicas(&mut self, flag: &str) -> usize {
        let n = self.count(flag);
        at_most(flag, n, MAX_REPLICAS)
    }

    /// A positive integer that fits in `u32`.
    pub fn count_u32(&mut self, flag: &str) -> u32 {
        let n = self.count(flag);
        u32::try_from(n)
            .unwrap_or_else(|_| fail(format_args!("{flag} must be at most {}, got {n}", u32::MAX)))
    }

    /// A seed: any non-negative integer.
    pub fn seed(&mut self, flag: &str) -> u64 {
        self.need(flag, "a non-negative integer", |v| v.parse().ok())
    }

    /// A comma-separated list of positive finite numbers.
    pub fn multipliers(&mut self, flag: &str) -> Vec<f64> {
        self.list(flag, "multipliers", positive_number)
    }

    /// A comma-separated list of replica counts, each up to
    /// [`MAX_REPLICAS`].
    pub fn replica_list(&mut self, flag: &str) -> Vec<usize> {
        let counts = self.list(flag, "counts", positive_integer);
        for &n in &counts {
            at_most(flag, n, MAX_REPLICAS);
        }
        counts
    }

    /// A non-empty comma-separated list of positive `items`.
    fn list<T>(&mut self, flag: &str, items: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
        let spec = self.value();
        let list: Option<Vec<T>> = spec.split(',').map(|s| parse(s.trim())).collect();
        match list {
            Some(list) if !list.is_empty() => list,
            _ => fail(format_args!("{flag} needs a comma-separated list of positive {items}")),
        }
    }

    /// An engine backend (`seesaw|vllm|disagg`).
    pub fn engine(&mut self) -> EngineKind {
        self.value().parse().unwrap_or_else(|e: String| fail(e))
    }

    /// The `n_requests` positional of the `fleet` and `serving` bins:
    /// a positive integer up to [`MAX_REQUESTS`]; anything else that
    /// is not a number is an unknown argument.
    pub fn requests(&self, arg: &str) -> usize {
        let n = positive_integer(arg).unwrap_or_else(|| self.usage());
        at_most("n_requests", n, MAX_REQUESTS)
    }
}

fn positive_number(v: &str) -> Option<f64> {
    v.parse().ok().filter(|&x: &f64| x.is_finite() && x > 0.0)
}

fn positive_integer(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// `n` when it is at most `max`; exits 2 naming `what` otherwise.
pub fn at_most(what: &str, n: usize, max: usize) -> usize {
    if n > max {
        fail(format_args!("{what} must be at most {max}, got {n}"));
    }
    n
}

/// The flags `autoscale` and `chaos` share: the elastic scenario
/// (engine, day shape, seed), the controller config, and the output
/// switches.
pub struct ScenarioArgs {
    /// Explicit worker count (`None` = environment's choice).
    pub jobs: Option<usize>,
    /// The day to replay.
    pub spec: ScenarioSpec,
    /// The controller config (capacity is measured later).
    pub config: AutoscaleConfig,
    /// `--timeline`: the cell whose per-window trajectory to print.
    pub timeline: Option<String>,
    /// `--json`: print the machine-readable document.
    pub json: bool,
    /// `--trace-out` / `--metrics-out`.
    pub out: TelemetryOut,
}

impl ScenarioArgs {
    /// Read the command line. `extra(flag, flags)` reads one of the
    /// bin's own flags and returns false for an unknown argument (which
    /// prints `usage`). Exits 2 when `--peak` is below `--trough`,
    /// `--min` above `--max`, or the day needs more control windows
    /// than [`crate::autoscale::MAX_WINDOWS`].
    pub fn parse(usage: &str, mut extra: impl FnMut(&str, &mut Flags) -> bool) -> Self {
        let mut flags = Flags::new(usage);
        let mut parsed = ScenarioArgs {
            jobs: None,
            spec: ScenarioSpec::default(),
            config: AutoscaleConfig::default(),
            timeline: None,
            json: false,
            out: TelemetryOut::default(),
        };
        while let Some(arg) = flags.next_arg() {
            let flag = arg.as_str();
            match flag {
                "--jobs" | "-j" => parsed.jobs = Some(flags.count("--jobs")),
                "--engine" | "-e" => parsed.spec.kind = flags.engine(),
                "--day" => parsed.spec.day_s = flags.positive(flag),
                "--window" => parsed.config.window_s = flags.positive(flag),
                // Warm-up may be zero (instant weight load).
                "--warmup" => parsed.config.warmup_s = flags.non_negative(flag),
                "--min" => parsed.config.min_replicas = flags.replicas(flag),
                "--max" => parsed.config.max_replicas = flags.replicas(flag),
                // Zero is a valid trough (a fully idle overnight
                // valley — the regime where elasticity pays most).
                "--trough" => parsed.spec.trough_mult = flags.non_negative(flag),
                "--peak" => parsed.spec.peak_mult = flags.positive(flag),
                "--slo-ttft" => parsed.config.slo.ttft_s = flags.positive(flag),
                "--slo-tpot" => parsed.config.slo.tpot_s = flags.positive(flag),
                "--seed" => parsed.spec.seed = flags.seed(flag),
                "--timeline" => parsed.timeline = Some(flags.value()),
                "--json" => parsed.json = true,
                _ if parsed.out.read(flag, &mut flags) => {}
                _ if extra(flag, &mut flags) => {}
                _ => flags.usage(),
            }
        }
        if parsed.spec.peak_mult < parsed.spec.trough_mult {
            fail("--peak must be >= --trough");
        }
        if parsed.config.min_replicas > parsed.config.max_replicas {
            fail("--min must be <= --max");
        }
        if let Err(e) = check_window_count(parsed.spec.day_s, parsed.config.window_s) {
            fail(format_args!("--day/--window: {e}"));
        }
        parsed
    }
}

/// A traced run's exports: its Perfetto/Chrome trace-event JSON and
/// its metric snapshot (counters / gauges / histograms, including the
/// recorder's dropped-event health counters).
#[derive(Debug)]
pub struct Telemetry {
    /// The trace-event JSON; open it at ui.perfetto.dev or
    /// `chrome://tracing`.
    pub trace_json: String,
    /// The metric snapshot (also the `--json` telemetry block).
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// Close a traced run: record the drop counters and render the
    /// trace under process name `process`.
    pub(crate) fn finish(mut instr: Instrument, process: &str) -> Self {
        instr.snapshot_drops();
        let trace_json = seesaw_telemetry::perfetto::render(&instr.recorder, process);
        Telemetry { trace_json, metrics: instr.metrics }
    }
}

/// Where `--trace-out FILE` and `--metrics-out FILE` ask a bin to
/// write its observed cell's [`Telemetry`].
#[derive(Debug, Default)]
pub struct TelemetryOut {
    trace: Option<String>,
    metrics: Option<String>,
}

impl TelemetryOut {
    /// Read `flag`'s path when it is `--trace-out` or `--metrics-out`;
    /// false for any other flag.
    pub fn read(&mut self, flag: &str, flags: &mut Flags) -> bool {
        let slot = match flag {
            "--trace-out" => &mut self.trace,
            "--metrics-out" => &mut self.metrics,
            _ => return false,
        };
        *slot = Some(flags.value());
        true
    }

    /// Whether either file was asked for. The observed cell runs only
    /// then, so a plain run's output stays byte-identical to the
    /// untraced bin.
    pub fn wanted(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Write the requested files, confirming each on stderr with
    /// `cell` naming the traced run; exits 2 when one cannot be
    /// written.
    pub fn write(&self, telemetry: &Telemetry, cell: &str) {
        if let Some(path) = &self.trace {
            write_file(path, "trace", &telemetry.trace_json);
            let events = telemetry.trace_json.matches("\"ph\":").count();
            eprintln!("wrote Perfetto trace ({cell}, {events} events) to {path}");
        }
        if let Some(path) = &self.metrics {
            write_file(path, "metrics", &format!("{}\n", telemetry.metrics.render_json()));
            eprintln!("wrote metrics snapshot ({cell}) to {path}");
        }
    }
}

fn write_file(path: &str, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format_args!("cannot write {what} to {path}: {e}"));
    }
}

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
    let mut parsed =
        SweepArgs { subsample: default_subsample, jobs: None, out: None, baseline: None };
    let mut flags = Flags::new(usage);
    let path = |flags: &mut Flags, flag: &str| flags.need(flag, "a path", |v| Some(v.to_string()));
    while let Some(arg) = flags.next_arg() {
        match arg.as_str() {
            "--jobs" | "-j" => parsed.jobs = Some(flags.count("--jobs")),
            "--out" | "-o" if accept_out => parsed.out = Some(path(&mut flags, "--out")),
            "--baseline" | "-b" if accept_out => {
                parsed.baseline = Some(path(&mut flags, "--baseline"));
            }
            other if other.parse::<usize>().is_ok() => {
                parsed.subsample = positive(other, "subsample");
            }
            _ => flags.usage(),
        }
    }
    parsed
}

/// Parse a count argument that must be at least 1, exiting 2 with a
/// message otherwise.
pub fn positive(arg: &str, what: &str) -> usize {
    positive_integer(arg)
        .unwrap_or_else(|| fail(format_args!("{what} must be a positive integer, got '{arg}'")))
}

/// The positional arguments of a binary taking at most `max` of them;
/// prints `usage` and exits 2 when there are more.
pub fn positionals(usage: &str, max: usize) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > max {
        fail(format_args!("usage: {usage}"));
    }
    args
}

/// The single optional count argument of a per-figure binary:
/// `default` when absent; prints a message and exits 2 when it is not
/// a positive integer or is followed by more arguments.
pub fn count_arg(usage: &str, what: &str, default: usize) -> usize {
    positionals(usage, 1).first().map_or(default, |s| positive(s, what))
}
