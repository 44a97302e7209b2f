//! The two in-process workloads, `cold-count` and `deep-expand`.
//!
//! The benchmark generates the input file, then runs each unit of work (an
//! iteration of `cold-count`, a query of `deep-expand`) in a fresh child
//! process (this executable's `child` command), as a command-line user
//! would: the child's peak RSS is that unit's alone, with no input
//! generation and no heap left over from earlier units. The child times
//! each call into a layer with a stopwatch, records a span around it when
//! traced, and prints one JSON line; the parent checks the counts against
//! the oracle and takes medians over the units.

use crate::inputs::{chung_lu_input, oracle_count, ChungLu};
use crate::metrics::{Metrics, PER_LAYER};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome};
use psgl_core::{
    list_subgraphs_prepared_with, EdgeIndex, PsglConfig, PsglShared, QueryPlan, RunStats,
    RunnerHooks, SpillConfig,
};
use psgl_graph::{io, DataGraph, DegreeStats, OrderedGraph};
use psgl_service::Json;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `cold-count`: the analyst's CLI path on a 100k-vertex power-law graph.
pub const COLD_GRAPH: ChungLu =
    ChungLu { vertices: 100_000, avg_degree: 14.0, gamma: 2.1, seed: 7 };
const COLD_PATTERN: &str = "triangle";

/// `deep-expand` and `cluster-job`: the 20k-vertex graph of `exp_delta`.
/// Set-up is negligible next to the 5-cycle listing.
pub const DEEP_GRAPH: ChungLu =
    ChungLu { vertices: 20_000, avg_degree: 8.0, gamma: 2.5, seed: 20_140_622 };
pub const DEEP_PATTERN: &str = "cycle:5";
/// Live-chunk cap of `deep-expand`: about a quarter of the 5-cycle run's
/// uncapped peak on this graph (199 chunks), so the spill tier does real
/// work.
const DEEP_MAX_LIVE_CHUNKS: u64 = 50;

/// Worker threads of every listing call.
pub const WORKERS: usize = 2;
/// Fewest timed units (iterations or queries) in a run.
const MIN_UNITS: usize = 3;

/// Parent side: generate, run the units, check and summarise.
pub fn run(args: &Args, deep: bool) -> Result<Outcome, String> {
    let (name, params, pattern) = if deep {
        ("deep-expand", DEEP_GRAPH, DEEP_PATTERN)
    } else {
        ("cold-count", COLD_GRAPH, COLD_PATTERN)
    };
    let input = chung_lu_input(&args.out, name, params, args.seed)?;
    let expected = oracle_count(&args.out, &input.canonical, pattern)?;
    drop(input.canonical);
    drop(input.graph);
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut units: Vec<Json> = Vec::new();
    while units.len() < MIN_UNITS || Instant::now() < deadline {
        // Traced and untraced units alternate, so the overhead is measured
        // on the same input in the same run.
        let traced = args.trace && units.len() % 2 == 1;
        let output = Command::new(&exe)
            .args(["child", name])
            .arg(&input.path)
            .arg(units.len().to_string())
            .arg(if traced { "1" } else { "0" })
            .arg(args.trace_file())
            .arg(args.out.join("spill"))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start a {name} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!("{name} child failed ({}): {stdout}", output.status));
        }
        units.push(
            Json::parse(stdout.lines().last().unwrap_or(""))
                .map_err(|e| format!("{name} child output: {e}"))?,
        );
    }

    let each = |key: &str| -> Vec<f64> {
        units.iter().filter_map(|u| u.get(key).and_then(Json::as_f64)).collect()
    };
    let wrong = each("count").iter().filter(|&&c| c as u64 != expected).count();
    let mut notes = vec![format!("{pattern} oracle: {expected}; {} listing calls", units.len())];
    if wrong > 0 {
        notes.push(format!("WRONG: {wrong} listing calls disagree with the oracle"));
    }
    let failed_checks: Vec<String> = units
        .iter()
        .filter_map(|u| u.get("failed_checks").and_then(Json::as_arr))
        .flatten()
        .filter_map(|c| c.as_str().map(|c| format!("WRONG: {c}")))
        .collect();
    let correct = wrong == 0 && failed_checks.is_empty();
    notes.extend(failed_checks);

    let mut metrics = Metrics::default();
    let (setup, count) = (each("setup_s"), each("count_s"));
    metrics.set("setup_s", median(&setup));
    metrics.set("count_s", median(&count));
    let answer: Vec<f64> = setup.iter().zip(&count).map(|(s, c)| (s + c) * 1e3).collect();
    metrics.set("answer_p50_ms", median(&answer));
    metrics.set("peak_rss_mb", median(&each("peak_rss_mb")));
    // Per-layer metrics: the median over the units that report them (the
    // self times come from traced units only).
    for &(layer, _) in PER_LAYER {
        let values: Vec<f64> = units
            .iter()
            .filter_map(|u| u.get("metrics").and_then(|m| m.get(layer)).and_then(Json::as_f64))
            .collect();
        if !values.is_empty() {
            metrics.set(layer, median(&values));
        }
    }
    metrics.set("error_rate", 0.0);
    if args.trace {
        let unit_s = |traced: bool| -> Vec<f64> {
            units
                .iter()
                .filter(|u| u.get("traced") == Some(&Json::Bool(traced)))
                .filter_map(|u| u.get("unit_s").and_then(Json::as_f64))
                .collect()
        };
        metrics.set("trace.overhead", median(&unit_s(true)) / median(&unit_s(false)) - 1.0);
        metrics.set("trace.spans", each("spans").iter().sum());
        let layer = |name| metrics.get(name).unwrap_or(0.0);
        let (layers, glue) = (layer("self.graph_s") + layer("self.core_s"), layer("self.bench_s"));
        notes.push(format!(
            "per traced unit: graph + core self time {:.2} ms, benchmark glue {:.3} ms; \
             untraced unit {:.2} ms",
            layers * 1e3,
            glue * 1e3,
            median(&unit_s(false)) * 1e3
        ));
    }
    Ok(Outcome { correct, attempted: units.len() as u64, failed: 0, metrics, notes })
}

/// What set-up built: the artifacts `PsglShared::prepare` builds, kept
/// apart so each call is timed on its own.
struct Prepared {
    graph: DataGraph,
    ordered: Arc<OrderedGraph>,
    index: Option<Arc<EdgeIndex>>,
    plan: QueryPlan,
}

/// Seconds spent in each set-up call.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    load: f64,
    degree_stats: f64,
    plan: f64,
    order: f64,
    index: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.load + self.degree_stats + self.plan + self.order + self.index
    }
}

/// Runs `f` as the call `name` under `parent`: stopwatch into `secs`, and a
/// span when the tracer is on.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    request: u64,
    secs: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let span = tracer.open(name, Some(parent), request);
    let start = Instant::now();
    let out = f();
    *secs = start.elapsed().as_secs_f64();
    tracer.close(span);
    out
}

/// The calls `PsglShared::prepare` makes, one at a time, from the file on.
fn prepare(
    path: &Path,
    spec: &str,
    config: &PsglConfig,
    tracer: &mut Tracer,
    parent: SpanId,
    request: u64,
) -> Result<(Prepared, SetupTimes), String> {
    let pattern = psgl_service::parse_pattern_spec(spec)?;
    let mut t = SetupTimes::default();
    let graph =
        timed(tracer, "graph.load", parent, request, &mut t.load, || io::load_edge_list(path))
            .map_err(|e| format!("load {}: {e}", path.display()))?;
    let histogram =
        timed(tracer, "graph.degree_stats", parent, request, &mut t.degree_stats, || {
            DegreeStats::of_graph(&graph).histogram
        });
    let plan = timed(tracer, "core.plan", parent, request, &mut t.plan, || {
        QueryPlan::prepare(&pattern, config, &histogram)
    })
    .map_err(|e| format!("plan {spec}: {e}"))?;
    let ordered = timed(tracer, "graph.order", parent, request, &mut t.order, || {
        Arc::new(OrderedGraph::new(&graph))
    });
    let index = timed(tracer, "core.index", parent, request, &mut t.index, || {
        config
            .use_edge_index
            .then(|| Arc::new(EdgeIndex::build(&graph, config.index_bits_per_edge)))
    });
    Ok((Prepared { graph, ordered, index, plan }, t))
}

/// Child side: `child <workload> <graph> <unit> <traced> <trace file>
/// <spill dir>` runs one unit and returns the JSON line to print. A traced
/// unit appends its spans to the trace file.
pub fn child(argv: &[String]) -> Result<String, String> {
    let [workload, graph, unit, traced, trace_file, spill_dir] = argv else {
        return Err(format!("child needs 6 arguments, got {argv:?}"));
    };
    let unit: u64 = unit.parse().map_err(|e| format!("bad unit: {e}"))?;
    let traced = traced == "1";
    let deep = match workload.as_str() {
        "cold-count" => false,
        "deep-expand" => true,
        other => return Err(format!("no child workload {other:?}")),
    };
    let mut config = PsglConfig::with_workers(WORKERS);
    let mut hooks = RunnerHooks::default();
    let spec = if deep {
        std::fs::create_dir_all(spill_dir).map_err(|e| format!("create {spill_dir}: {e}"))?;
        let spill = SpillConfig { dir: Some(spill_dir.into()), ..SpillConfig::in_temp() };
        config = config.spill(spill);
        hooks.max_live_chunks = Some(DEEP_MAX_LIVE_CHUNKS);
        DEEP_PATTERN
    } else {
        COLD_PATTERN
    };

    let mut tracer = Tracer::new(traced);
    let root = tracer.open(if deep { "bench.query" } else { "bench.iteration" }, None, unit);
    let start = Instant::now();
    let (prep, times) = prepare(Path::new(graph), spec, &config, &mut tracer, root, unit)?;
    let mut parts_s = 0.0;
    let shared = timed(&mut tracer, "core.from_parts", root, unit, &mut parts_s, || {
        PsglShared::from_parts(&prep.graph, prep.ordered.clone(), prep.index.clone(), &prep.plan)
    });
    let mut run_s = 0.0;
    let result = timed(&mut tracer, "core.run", root, unit, &mut run_s, || {
        list_subgraphs_prepared_with(&shared, &config, &hooks)
    })
    .map_err(|e| format!("list {spec}: {e}"))?;
    tracer.close(root);
    let unit_s = start.elapsed().as_secs_f64();

    let s = &result.stats;
    let mut failed_checks = Vec::new();
    if deep && s.spill_chunks == 0 {
        failed_checks.push(format!("unit {unit} did not spill"));
    }
    if s.readmitted_chunks != s.spill_chunks {
        failed_checks.push(format!(
            "unit {unit} re-admitted {} of {} spilled chunks",
            s.readmitted_chunks, s.spill_chunks
        ));
    }
    let mut m = vec![
        ("graph.load_s", times.load),
        ("graph.degree_stats_s", times.degree_stats),
        ("graph.order_s", times.order),
        ("core.index_s", times.index),
        ("core.plan_s", times.plan),
        ("core.run_s", run_s),
    ];
    m.extend(run_stats_metrics(s, run_s));
    if traced {
        tracer
            .append_jsonl(Path::new(trace_file))
            .map_err(|e| format!("write {trace_file}: {e}"))?;
        for (layer, secs) in tracer.self_seconds() {
            match layer {
                "bench" => m.push(("self.bench_s", secs)),
                "graph" => m.push(("self.graph_s", secs)),
                "core" => m.push(("self.core_s", secs)),
                _ => {}
            }
        }
    }
    Ok(Json::obj([
        ("count", Json::from(result.instance_count)),
        ("setup_s", Json::from(times.total() + parts_s)),
        ("count_s", Json::from(run_s)),
        ("unit_s", Json::from(unit_s)),
        ("traced", Json::from(traced)),
        ("spans", Json::from(tracer.len())),
        ("peak_rss_mb", Json::from(peak_rss_mb()?)),
        ("failed_checks", Json::Arr(failed_checks.into_iter().map(Json::from).collect())),
        (
            "metrics",
            Json::Obj(m.into_iter().map(|(k, v)| (k.to_string(), Json::from(v))).collect()),
        ),
    ])
    .to_string())
}

/// This process's peak RSS (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Per-layer metrics of one listing call's [`RunStats`], which took
/// `run_s` seconds.
pub fn run_stats_metrics(s: &RunStats, run_s: f64) -> Vec<(&'static str, f64)> {
    let e = &s.expand;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let secs = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
    let remote = s.messages.saturating_sub(s.messages_local);
    vec![
        ("core.ns_per_gpsi", if e.generated == 0 { 0.0 } else { run_s * 1e9 / e.generated as f64 }),
        ("core.generated", e.generated as f64),
        ("core.results", e.results as f64),
        ("core.useful_ratio", ratio(e.results, e.generated)),
        ("core.pruned_per_result", ratio(e.total_pruned(), e.results)),
        ("core.cmap_hit_rate", ratio(e.cmap_hits, e.cmap_probes)),
        ("core.gallop_share", ratio(e.intersect_gallop, e.intersect_gallop + e.intersect_probe)),
        ("core.index_probes", e.index_probes as f64),
        ("bsp.compute_s", secs(&s.compute_nanos_per_superstep)),
        ("bsp.exchange_s", secs(&s.exchange_nanos_per_superstep)),
        ("bsp.supersteps", s.supersteps as f64),
        ("bsp.cost_imbalance", s.cost_imbalance),
        ("bsp.messages", s.messages as f64),
        ("bsp.remote_ratio", ratio(remote, s.messages)),
        ("bsp.bytes_per_remote_message", ratio(s.bytes_exchanged, remote)),
        ("bsp.chunks_live_peak", s.chunks_live_peak as f64),
        ("bsp.spill_chunks", s.spill_chunks as f64),
        ("bsp.spill_bytes", s.spill_bytes as f64),
        ("bsp.spill_stall_s", s.spill_stall_ms as f64 / 1e3),
    ]
}
