//! Benchmark harness for the entry points of the SER reproduction: the
//! analytic AVF suite, and the serve daemon under closed-loop traffic,
//! whose campaign jobs run the convergence-pruned fault-injection
//! executor.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --out <dir>` runs one workload in this process on one program worker
//! thread and prints one JSON result line. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it repeats each layer's public
//! calls inside spans and reports every per-layer metric, writing the
//! spans to `<out>/spans-<workload>-<seed>.jsonl`. `perfbench/run.py`
//! builds this binary and is the benchmark's entry point.

mod campaign;
mod check;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// Seed of the `k`-th item of a workload stream (`stream` separates the
/// workloads), derived from the benchmark's seed argument.
pub fn derive_seed(seed: u64, stream: u64, k: u64) -> u64 {
    // Masked to 48 bits so job bodies carry the seed as an exact JSON
    // integer in any client.
    ses_core::splitmix64(ses_core::splitmix64(seed ^ stream).wrapping_add(k)) & ((1 << 48) - 1)
}

/// The measurement window of a run.
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    pub fn new(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    pub fn open(&self) -> bool {
        self.start.elapsed() < self.length
    }
}

/// Runs `setup` `batch` times, appends the batch's median wall time in
/// seconds to `rounds`, hands all but the last value to `discard`
/// (outside the clock) and returns the last.
pub fn setup_batch<T>(
    batch: usize,
    rounds: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let mut times = Vec::with_capacity(batch);
    let mut last = None;
    for _ in 0..batch {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(earlier) = last.replace(value) {
            discard(earlier);
        }
    }
    rounds.extend(stats::median(&times));
    last.ok_or_else(|| "empty set-up batch".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`) in MB.
///
/// Workloads read it when their first cycle of ops ends (the first suite
/// pass or daemon session): later cycles repeat the same work,
/// and the VmHWM they add comes from allocator arena reuse across worker
/// threads, which made whole-run readings of identical runs differ by up
/// to 30%.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The traced run. Every workload reports every per-layer metric: the
/// other workload's layers run first, one round of them, and the
/// workload's own layers fill the rest of the window. The trace overhead
/// ratio is the workload's own.
fn traced(args: &Args) -> Result<Report, String> {
    let mut tracer = trace::Tracer::new();
    let mut report = Report::default();
    let window = Window::new(args.seconds);
    let once = Window::new(0.0);
    let overhead = match args.workload.as_str() {
        "suite-avf" => {
            serve::traced(args.seed, &once, &mut tracer, &mut report)?;
            suite::traced(&window, &mut tracer, &mut report)?
        }
        "serve-mixed" => {
            suite::traced(&once, &mut tracer, &mut report)?;
            serve::traced(args.seed, &window, &mut tracer, &mut report)?
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    report.metric("trace.overhead_ratio", overhead, "ratio");
    write_spans(args, &tracer)?;
    Ok(report)
}

/// Writes the traced run's spans to `<out>/spans-<workload>-<seed>.jsonl`.
fn write_spans(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes the per-round figures the run's end-to-end metrics come from to
/// `<out>/rounds-<workload>-<seed>.json`, for diagnosing spreads.
fn write_rounds(args: &Args, report: &Report) -> Result<(), String> {
    let path = args
        .out
        .join(format!("rounds-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, report.rounds_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Reads a golden artifact of the repository, relative to the checkout
/// root the benchmark runs from.
pub fn golden(name: &str) -> Result<String, String> {
    let path = PathBuf::from("tests/golden").join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match (args.trace, args.workload.as_str()) {
        (true, _) => traced(&args),
        (false, "suite-avf") => suite::run(&args),
        (false, "serve-mixed") => serve::run(&args),
        (false, other) => Err(format!("unknown workload '{other}'")),
    };
    let result = match result {
        Ok(report) if !args.trace => write_rounds(&args, &report).map(|()| report),
        other => other,
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
