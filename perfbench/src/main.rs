//! perfbench — seeded end-to-end and per-layer benchmark of PSgL-rs.
//!
//! ```text
//! perfbench --psgl PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `cold-count`, `deep-expand`, `serve-mix`, `cluster-job` (see
//! `NOTES.md`). Prints one `name = value unit` line per metric measured,
//! then, as the last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 on a wrong answer or error.
//! `bash perfbench/run.sh` builds everything and supplies `--psgl`/`--out`.

mod cluster;
mod inproc;
mod inputs;
mod loadgen;
mod metrics;
mod serve;
mod stats;
mod trace;
mod tracker;

use metrics::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `psgl` executable.
    pub psgl: PathBuf,
    /// Where inputs, traces, spill files and the oracle cache go.
    pub out: PathBuf,
}

impl Args {
    /// Where a traced run writes its spans.
    pub fn trace_file(&self) -> PathBuf {
        self.out.join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }
}

/// What a workload run found.
pub struct Outcome {
    /// Every answer matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 4] = ["cold-count", "deep-expand", "serve-mix", "cluster-job"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("{flag} is required"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        psgl: PathBuf::from(get("--psgl")?),
        out: PathBuf::from(get("--out")?),
    })
}

/// Peak resident set size, in MiB, of the largest child process reaped so
/// far (`getrusage(RUSAGE_CHILDREN)`); NaN if the call fails.
pub fn children_peak_rss_mb() -> f64 {
    /// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then 14
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a valid, writable `RUsage`, which has the size and
    // layout of the C `struct rusage` that getrusage fills.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.maxrss as f64 / 1024.0
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        return match inproc::child(&argv[1..]) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    // Spans are appended; start each run's trace afresh.
    let _ = std::fs::remove_file(args.trace_file());
    let outcome = match args.workload.as_str() {
        "cold-count" => inproc::run(&args, false),
        "deep-expand" => inproc::run(&args, true),
        "serve-mix" => serve::run(&args),
        _ => cluster::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("# {} seed {} ({} s, trace {})", args.workload, args.seed, args.seconds, args.trace);
    for line in outcome.notes.iter().chain(&outcome.metrics.lines()) {
        println!("# {line}");
    }
    match metrics::result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
        args.trace,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
