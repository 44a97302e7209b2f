//! `cluster-job`: one `psgl cluster coordinator` and two workers over
//! loopback, listing the `deep-expand` query from a `file:` graph spec,
//! without checkpoints, as many times as the run allows. Set-up is timed
//! on probe jobs listing single edges: process start, graph load and
//! partitioning, barrier round trips, and a trivial listing.

use crate::inproc::{DEEP_GRAPH, DEEP_PATTERN, WORKERS};
use crate::inputs::{chung_lu_input, oracle_count};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome};
use psgl_service::Json;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest jobs in a run.
const MIN_JOBS: usize = 3;
/// Probe jobs per run; `setup_s` is the median of their launch-to-result
/// time.
const PROBE_JOBS: usize = 5;
/// A single edge: each instance is an edge of the graph.
const PROBE_PATTERN: &str = "path:2";
/// The coordinator abandons a job after this long rather than hang.
const JOB_DEADLINE_MS: &str = "120000";

/// One finished job: launch to result line, and the result line.
struct Job {
    job_s: f64,
    result: Json,
    traced: bool,
}

/// Kills and reaps the processes of a job if it ends early.
struct Processes(Vec<Child>);

impl Drop for Processes {
    fn drop(&mut self) {
        for child in &mut self.0 {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

fn run_job(
    psgl: &Path,
    spec: &str,
    pattern: &str,
    tracer: &mut Tracer,
    root: SpanId,
    id: u64,
) -> Result<Job, String> {
    let start = Instant::now();
    let launch = tracer.open("cluster.launch", Some(root), id);
    let mut coordinator = Command::new(psgl)
        .args(["cluster", "coordinator", "--workers", &WORKERS.to_string(), "--graph", spec])
        .args(["--pattern", pattern, "--listen", "127.0.0.1:0"])
        .args(["--deadline-ms", JOB_DEADLINE_MS])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start coordinator: {e}"))?;
    let stdout = coordinator.stdout.take().expect("piped stdout");
    let mut stderr = BufReader::new(coordinator.stderr.take().expect("piped stderr"));
    let mut procs = Processes(vec![coordinator]);
    // "psgl-cluster coordinator on ADDR: waiting for N workers (...)"
    let mut banner = String::new();
    let _ = stderr.read_line(&mut banner);
    let addr = banner
        .split_whitespace()
        .nth(3)
        .map(|a| a.trim_end_matches(':').to_string())
        .ok_or_else(|| format!("unexpected coordinator banner {banner:?}"))?;
    for _ in 0..WORKERS {
        let worker = Command::new(psgl)
            .args(["cluster", "worker", "--join", &addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start worker: {e}"))?;
        procs.0.push(worker);
    }
    tracer.close(launch);
    let wait = tracer.open("cluster.job", Some(root), id);
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).map_err(|e| format!("coordinator output: {e}"))?;
    let job_s = start.elapsed().as_secs_f64();
    tracer.close(wait);
    let teardown = tracer.open("cluster.teardown", Some(root), id);
    let mut rest = String::new();
    let _ = stderr.read_to_string(&mut rest);
    for child in &mut procs.0 {
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("cluster process exited with {status}: {}{rest}", banner.trim()));
        }
    }
    tracer.close(teardown);
    let result =
        Json::parse(line.trim()).map_err(|e| format!("coordinator result {line:?}: {e}"))?;
    Ok(Job { job_s, result, traced: tracer.enabled() })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let input = chung_lu_input(&args.out, "cluster-job", DEEP_GRAPH, args.seed)?;
    let expected = oracle_count(&args.out, &input.canonical, DEEP_PATTERN)?;
    let edges = input.graph.num_edges() as f64;
    drop(input.canonical);
    drop(input.graph);
    let spec = format!("file:{}", input.path.display());
    let field =
        |job: &Job, key: &str| job.result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut wrong = Vec::new();
    let mut tracer = Tracer::new(false);
    let mut probe_s = Vec::new();
    for _ in 0..PROBE_JOBS {
        let probe = run_job(&args.psgl, &spec, PROBE_PATTERN, &mut tracer, SpanId::NONE, 0)?;
        if field(&probe, "instances") != edges {
            wrong.push(format!("probe job listed {} edges of {edges}", field(&probe, "instances")));
        }
        probe_s.push(probe.job_s);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || Instant::now() < deadline {
        let id = jobs.len() as u64;
        tracer.set_enabled(args.trace && id % 2 == 1);
        let root = tracer.open("bench.job", None, id);
        jobs.push(run_job(&args.psgl, &spec, DEEP_PATTERN, &mut tracer, root, id)?);
        tracer.close(root);
    }

    for (i, job) in jobs.iter().enumerate() {
        let (count, attempts, lost) =
            (field(job, "instances"), field(job, "attempts"), field(job, "workers_lost"));
        if count != expected as f64 || attempts != 1.0 || lost != 0.0 {
            wrong.push(format!(
                "job {i}: {count} instances (oracle {expected}), {attempts} attempts, {lost} workers lost"
            ));
        }
    }
    let each = |f: &dyn Fn(&Job) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let job_s = each(&|j| j.job_s);
    let run_s = each(&|j| field(j, "wall_ms") / 1e3);
    let startup_s = each(&|j| j.job_s - field(j, "wall_ms") / 1e3);
    let mut m = Metrics::default();
    m.set("setup_s", median(&probe_s));
    m.set("count_s", median(&run_s));
    m.set("answer_p50_ms", median(&job_s) * 1e3);
    m.set("peak_rss_mb", crate::children_peak_rss_mb());
    m.set("job_s", median(&job_s));
    m.set("cluster.run_s", median(&run_s));
    m.set("cluster.startup_s", median(&startup_s));
    m.set("cluster.barrier_wait_s", median(&each(&|j| field(j, "barrier_wait_nanos") / 1e9)));
    m.set("cluster.frames_sent", median(&each(&|j| field(j, "frames_sent"))));
    m.set(
        "cluster.wire_bytes_per_message",
        median(&each(&|j| field(j, "wire_bytes_sent") / field(j, "messages"))),
    );
    m.set("cluster.attempts", median(&each(&|j| field(j, "attempts"))));
    m.set("bsp.supersteps", median(&each(&|j| field(j, "supersteps"))));
    m.set("bsp.messages", median(&each(&|j| field(j, "messages"))));
    m.set("error_rate", 0.0);
    if args.trace {
        let pick = |traced: bool| -> Vec<f64> {
            jobs.iter().filter(|j| j.traced == traced).map(|j| j.job_s).collect()
        };
        m.set("trace.overhead", median(&pick(true)) / median(&pick(false)) - 1.0);
        m.set("trace.spans", tracer.len() as f64);
        let traced = jobs.iter().filter(|j| j.traced).count().max(1) as f64;
        for (layer, secs) in tracer.self_seconds() {
            match layer {
                "bench" => m.set("self.bench_s", secs / traced),
                "cluster" => m.set("self.cluster_s", secs / traced),
                _ => {}
            }
        }
        let file = args.trace_file();
        tracer.append_jsonl(&file).map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    let mut notes = vec![format!("{DEEP_PATTERN} oracle: {expected}; {} jobs", jobs.len())];
    notes.extend(wrong.iter().map(|w| format!("WRONG: {w}")));
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted: jobs.len() as u64,
        failed: 0,
        metrics: m,
        notes,
    })
}
