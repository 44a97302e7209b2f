//! `serve-mix`: a `psgl serve` process under an open-loop request mix.
//!
//! Two connections. Connection A sends uncached counts (`no_cache`) and
//! 100-edge `mutate` batches, so each of its counts has an exact epoch: the
//! mutations before it on A. Connection B sends cacheable counts (result
//! cache hits) and `health` checks. Every answer is checked: counts on A
//! against the exact tracker, counts on B against the tracker's counts at
//! every epoch they could have seen, mutations by their edge count, and at
//! the end every cached view against a `no_cache` recount.

use crate::inputs::{chung_lu_input, oracle_count, ChungLu};
use crate::loadgen::{drive, poisson_times, Epochs, Record, Request};
use crate::metrics::Metrics;
use crate::stats::{median, tail, Rng};
use crate::trace::Tracer;
use crate::tracker::{Tracker, PATTERNS};
use crate::{Args, Outcome};
use psgl_graph::VertexId;
use psgl_service::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The graph of `exp_service_throughput`.
const SERVE_GRAPH: ChungLu = ChungLu { vertices: 20_000, avg_degree: 8.0, gamma: 2.2, seed: 7 };
/// Requests per second of each stream.
const MISS_RATE: f64 = 4.0;
const HIT_RATE: f64 = 10.0;
const MUTATE_RATE: f64 = 10.0;
const HEALTH_RATE: f64 = 2.0;
/// Uncached counts per ten, by [`PATTERNS`] index: mostly triangles, some
/// 4-cliques, occasionally a square.
const MISS_MIX: [usize; 3] = [7, 2, 1];
/// Cacheable counts alternate between these [`PATTERNS`] indices.
const HIT_PATTERNS: [usize; 2] = [0, 1];
/// Edges per `mutate`: half deletions of existing edges, half insertions
/// of new ones, so the edge count stays put.
const BATCH_EDGES: usize = 100;
/// Fewest mutations per run: a fifth more than two crossings of the
/// service's overlay compaction threshold (2 × 4096 edges / 100 per batch),
/// as deleting an edge inserted since the last compaction shrinks the
/// overlay instead of growing it.
const MIN_MUTATIONS: usize = 100;
/// Share of the run's seconds spent sending uncached squares one at a time
/// to the idle server (at least [`MIN_QUIET`] of them): `count_s` is the
/// median of their server time and `answer_p50_ms` of their round trip.
/// The open loop takes the rest.
const QUIET_SHARE: f64 = 0.4;
const MIN_QUIET: usize = 5;
const QUIET_PATTERN: usize = 2;
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 20;
const GRAPH_NAME: &str = "g";

/// What a request of the schedule is, for checking its reply.
#[derive(Clone, Copy)]
enum Kind {
    /// Uncached count of a pattern at a known epoch (connection A).
    Miss(usize, usize),
    /// The `k`-th mutation, 1-based (connection A).
    Mutate(usize),
    /// Cacheable count of a pattern (connection B).
    Cached(usize),
    Health,
}

/// A running `psgl serve`, stopped and reaped when dropped.
struct Server {
    child: Child,
    /// Kept open so the server can still print while it stops.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts the server and loads `path`; returns it with the wall time
    /// from process start to the `load` reply, and that reply.
    fn start(psgl: &Path, path: &Path) -> Result<(Server, f64, Json), String> {
        let start = Instant::now();
        let mut child = Command::new(psgl)
            .args(["serve", "--addr", "127.0.0.1:0", "--pool", "1", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", psgl.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let mut server = Server { child, _stdout: stdout, addr: String::new() };
        // "psgl-service listening on ADDR (pool ...)"
        server.addr = banner
            .split_whitespace()
            .nth(3)
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_string();
        let conn = server.connect()?;
        let load = Json::obj([
            ("verb", Json::from("load")),
            ("name", Json::from(GRAPH_NAME)),
            ("path", Json::from(path.to_string_lossy().as_ref())),
            ("format", Json::from("edge-list")),
        ]);
        let reply = call(&conn, &load)?;
        let secs = start.elapsed().as_secs_f64();
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("load failed: {reply}"));
        }
        Ok((server, secs, reply))
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        Ok(s)
    }

    /// Asks the server to stop and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        if let Ok(conn) = self.connect() {
            let _ = call(&conn, &Json::obj([("verb", Json::from("shutdown"))]));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not stop within 10 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request, one reply, on an idle connection.
fn call(conn: &TcpStream, request: &Json) -> Result<Json, String> {
    let mut writer = conn;
    writer
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("send {request}: {e}"))?;
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).map_err(|e| format!("reply to {request}: {e}"))?;
    Json::parse(line.trim()).map_err(|e| format!("reply to {request}: {e}: {line:?}"))
}

fn count_request(pattern: usize, no_cache: bool) -> Json {
    let mut fields = vec![
        ("verb", Json::from("count")),
        ("graph", Json::from(GRAPH_NAME)),
        ("pattern", Json::from(PATTERNS[pattern])),
    ];
    if no_cache {
        fields.push(("no_cache", Json::from(true)));
    }
    Json::obj(fields)
}

fn u64_field(reply: &Json, key: &str) -> Option<u64> {
    reply.get(key).and_then(Json::as_u64)
}

fn f64_field(reply: &Json, key: &str) -> f64 {
    reply.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Draws one batch: `BATCH_EDGES / 2` existing edges to delete and as many
/// new ones, between vertices below `n`, to insert; applies it to
/// `tracker` and returns the `mutate` line.
fn mutation(tracker: &mut Tracker, rng: &mut Rng, n: u64) -> String {
    let mut delete = Vec::new();
    while delete.len() < BATCH_EDGES / 2 {
        let (u, v) = tracker.random_edge(rng);
        tracker.delete(u, v);
        delete.push((u, v));
    }
    let mut insert = Vec::new();
    while insert.len() < BATCH_EDGES / 2 {
        let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        let fresh = u != v && !tracker.has_edge(u, v);
        if fresh && !delete.iter().any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u)) {
            tracker.insert(u, v);
            insert.push((u, v));
        }
    }
    let pairs = |edges: &[(VertexId, VertexId)]| {
        Json::Arr(
            edges.iter().map(|&(u, v)| Json::Arr(vec![Json::from(u), Json::from(v)])).collect(),
        )
    };
    let line = Json::obj([
        ("verb", Json::from("mutate")),
        ("graph", Json::from(GRAPH_NAME)),
        ("insert", pairs(&insert)),
        ("delete", pairs(&delete)),
    ]);
    format!("{line}\n")
}

/// Server counters from a `stats` reply: result-cache hits and misses,
/// plan-cache hits and misses, slices, preemptions, overload rejections.
fn counters(stats: &Json) -> [f64; 7] {
    let at = |a: &str, b: &str| {
        stats.get(a).and_then(|o| o.get(b)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    [
        at("result_cache", "hits"),
        at("result_cache", "misses"),
        at("plan_cache", "hits"),
        at("plan_cache", "misses"),
        at("server", "slices"),
        at("server", "preemptions"),
        at("server", "rejected_overloaded"),
    ]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let input = chung_lu_input(&args.out, "serve-mix", SERVE_GRAPH, args.seed)?;
    let mut epoch0 = [0u64; 3];
    for (count, pattern) in epoch0.iter_mut().zip(PATTERNS) {
        *count = oracle_count(&args.out, &input.canonical, pattern)?;
    }
    let mut tracker = Tracker::new(&input.graph, epoch0);
    // Mutations cannot grow the server's vertex set.
    let vertex_range = input.graph.num_vertices() as u64;
    drop(input.canonical);
    drop(input.graph);

    // The schedule, drawn from the seed: mutation batches with the exact
    // counts after each, then Poisson arrival times per stream.
    let mut rng = Rng::new(args.seed, 2);
    let open_loop_s = args.seconds * (1.0 - QUIET_SHARE);
    let span = Duration::from_secs_f64(open_loop_s);
    let per_run = |rate: f64| (rate * open_loop_s).round().max(1.0) as usize;
    let n_mutations = per_run(MUTATE_RATE).max(MIN_MUTATIONS);
    let mut expected = vec![tracker.counts()];
    let mut edges = vec![tracker.num_edges() as u64];
    let mut mutations = Vec::new();
    for _ in 0..n_mutations {
        mutations.push(mutation(&mut tracker, &mut rng, vertex_range));
        expected.push(tracker.counts());
        edges.push(tracker.num_edges() as u64);
    }
    let n_miss = per_run(MISS_RATE);
    let mut miss_patterns: Vec<usize> = (0..n_miss)
        .map(|i| {
            let mut acc = 0;
            MISS_MIX.iter().position(|&w| {
                acc += w;
                i % 10 < acc
            })
        })
        .map(|p| p.expect("MISS_MIX sums to 10"))
        .collect();
    rng.shuffle(&mut miss_patterns);
    let mut a: Vec<(Duration, Option<usize>)> = Vec::new();
    a.extend(
        poisson_times(&mut rng, n_miss, span).into_iter().zip(miss_patterns.into_iter().map(Some)),
    );
    a.extend(poisson_times(&mut rng, n_mutations, span).into_iter().map(|t| (t, None)));
    a.sort();
    let mut epoch = 0;
    let (requests_a, kinds_a): (Vec<Request>, Vec<Kind>) = a
        .into_iter()
        .map(|(due, miss)| match miss {
            Some(p) => {
                let line = format!("{}\n", count_request(p, true));
                (Request { due, line, mutate: false, span: "service.count" }, Kind::Miss(p, epoch))
            }
            None => {
                let line = mutations[epoch].clone();
                epoch += 1;
                (Request { due, line, mutate: true, span: "delta.mutate" }, Kind::Mutate(epoch))
            }
        })
        .collect();
    let mut b: Vec<(Duration, bool)> = Vec::new();
    b.extend(poisson_times(&mut rng, per_run(HIT_RATE), span).into_iter().map(|t| (t, true)));
    b.extend(poisson_times(&mut rng, per_run(HEALTH_RATE), span).into_iter().map(|t| (t, false)));
    b.sort();
    let (requests_b, kinds_b): (Vec<Request>, Vec<Kind>) = b
        .into_iter()
        .enumerate()
        .map(|(i, (due, count))| {
            if count {
                let p = HIT_PATTERNS[i % HIT_PATTERNS.len()];
                let line = format!("{}\n", count_request(p, false));
                (Request { due, line, mutate: false, span: "service.count" }, Kind::Cached(p))
            } else {
                let line = format!("{}\n", Json::obj([("verb", Json::from("health"))]));
                (Request { due, line, mutate: false, span: "service.health" }, Kind::Health)
            }
        })
        .collect();

    // Set-up: start the server and load the graph, several times.
    let mut setups = Vec::new();
    let mut load_ms = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let (s, secs, reply) = Server::start(&args.psgl, &input.path)?;
        if u64_field(&reply, "edges") != Some(edges[0]) {
            return Err(format!("server loaded {reply}, expected {} edges", edges[0]));
        }
        setups.push(secs);
        load_ms.push(f64_field(&reply, "load_ms"));
        if k + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let (conn_a, conn_b) = (server.connect()?, server.connect()?);

    // Before the open loop, on the idle server: epoch-0 counts of every
    // pattern, uncached, checked against the oracle; then uncached squares
    // one at a time, whose server time is `count_s`; then the cacheable
    // counts that fill the result cache.
    let mut wrong = Vec::new();
    let mut epoch0_count = |p: usize| -> Result<f64, String> {
        let reply = call(&conn_b, &count_request(p, true))?;
        if u64_field(&reply, "count") != Some(epoch0[p]) {
            wrong.push(format!("epoch-0 {}: {reply}, oracle {}", PATTERNS[p], epoch0[p]));
        }
        Ok(f64_field(&reply, "wall_ms"))
    };
    for p in 0..PATTERNS.len() {
        epoch0_count(p)?;
    }
    let (mut quiet_server_ms, mut quiet_round_trip_ms) = (Vec::new(), Vec::new());
    let quiet_end = Instant::now() + Duration::from_secs_f64(args.seconds * QUIET_SHARE);
    while quiet_server_ms.len() < MIN_QUIET || Instant::now() < quiet_end {
        let sent = Instant::now();
        quiet_server_ms.push(epoch0_count(QUIET_PATTERN)?);
        quiet_round_trip_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    for &p in &HIT_PATTERNS {
        call(&conn_b, &count_request(p, false))?;
    }
    let before = counters(&call(&conn_b, &Json::obj([("verb", Json::from("stats"))]))?);

    // The timed run: connection A on a second thread, B on this one.
    let epochs = Epochs::default();
    let mut tracer = Tracer::new(args.trace);
    let (mut tracer_a, mut tracer_b) = (Tracer::new(args.trace), Tracer::new(args.trace));
    let grace = Duration::from_secs(60);
    let start = Instant::now() + Duration::from_millis(20);
    let (records_a, records_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let stream = conn_a.try_clone().map_err(|e| e.to_string())?;
            let first_id = requests_b.len() as u64;
            drive(stream, &requests_a, start, &epochs, &mut tracer_a, first_id, grace)
        });
        let stream = conn_b.try_clone().map_err(|e| e.to_string())?;
        let b = drive(stream, &requests_b, start, &epochs, &mut tracer_b, 0, grace);
        let a = a.join().map_err(|_| "connection A panicked".to_string())?;
        Ok::<_, String>((a?, b?))
    })?;
    let end = Instant::now();
    let root = tracer.record("bench.run", None, 0, start, end);
    tracer.merge(tracer_a, Some(root));
    tracer.merge(tracer_b, Some(root));

    let after = counters(&call(&conn_b, &Json::obj([("verb", Json::from("stats"))]))?);
    // Every cached view, patched through the mutations, against a recount.
    let last = *expected.last().expect("epoch 0 at least");
    for &p in &HIT_PATTERNS {
        let cached = call(&conn_b, &count_request(p, false))?;
        let recount = call(&conn_b, &count_request(p, true))?;
        let (c, r) = (u64_field(&cached, "count"), u64_field(&recount, "count"));
        if c != r || r != Some(last[p]) {
            wrong.push(format!(
                "final {}: cached {c:?}, recount {r:?}, tracker {}",
                PATTERNS[p], last[p]
            ));
        }
    }
    drop((conn_a, conn_b));
    server.stop()?;

    // Check every reply and sort the latencies by what the server did.
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    let mut mutate = Vec::new();
    let mut health = Vec::new();
    let mut engine_ms = Vec::new();
    let mut mutate_ms = Vec::new();
    let mut gaps = Vec::new();
    let mut late = Vec::new();
    let mut traced_hit = (Vec::new(), Vec::new());
    let (mut patched, mut dropped, mut compactions) = (0.0, 0.0, 0.0);
    let mut failed = 0u64;
    let mut notes = Vec::new();
    for (kinds, records) in [(&kinds_a, &records_a), (&kinds_b, &records_b)] {
        let mut prev_recv = start;
        for (kind, rec) in kinds.iter().zip(records.iter()) {
            late.push(rec.late_ms());
            // The server starts on a request once it is sent and the
            // previous reply on the connection is out.
            let server_side_ms = (rec.recv - rec.sent.max(prev_recv)).as_secs_f64() * 1e3;
            prev_recv = rec.recv;
            let reply = match Json::parse(&rec.reply) {
                Ok(r) if r.get("ok") == Some(&Json::Bool(true)) => r,
                _ => {
                    failed += 1;
                    if failed <= 5 {
                        notes.push(format!("FAILED: {}", rec.reply));
                    }
                    continue;
                }
            };
            let wall = f64_field(&reply, "wall_ms");
            match *kind {
                Kind::Miss(p, _) | Kind::Cached(p) => {
                    let got = u64_field(&reply, "count").unwrap_or(u64::MAX);
                    let (lo, hi) = epoch_window(kind, rec);
                    let ok =
                        (lo..=hi).any(|e| expected.get(e as usize).is_some_and(|c| c[p] == got));
                    if !ok {
                        wrong.push(format!("{} = {got} at epochs {lo}..={hi}", PATTERNS[p]));
                    }
                    gaps.push(server_side_ms - wall);
                    if reply.get("cache_hit") == Some(&Json::Bool(true)) {
                        hit.push(rec.latency_ms());
                        let side = if rec.traced { &mut traced_hit.0 } else { &mut traced_hit.1 };
                        side.push(rec.latency_ms());
                    } else {
                        miss.push(rec.latency_ms());
                        engine_ms.push(wall);
                    }
                }
                Kind::Mutate(k) => {
                    if u64_field(&reply, "edges") != Some(edges[k]) {
                        wrong.push(format!("mutation {k}: {reply}, expected {} edges", edges[k]));
                    }
                    gaps.push(server_side_ms - wall);
                    mutate.push(rec.latency_ms());
                    mutate_ms.push(wall);
                    patched += f64_field(&reply, "views_patched");
                    dropped += f64_field(&reply, "views_dropped");
                    if reply.get("compacted") == Some(&Json::Bool(true)) {
                        compactions += 1.0;
                    }
                }
                Kind::Health => health.push(rec.latency_ms()),
            }
        }
    }

    let attempted = (records_a.len() + records_b.len()) as u64;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    // Open-loop latencies do not repeat between runs of the same code (see
    // NOTES.md), so the end-to-end pair comes from the uncached squares on
    // the idle server.
    m.set("count_s", median(&quiet_server_ms) / 1e3);
    m.set("answer_p50_ms", median(&quiet_round_trip_ms));
    m.set("peak_rss_mb", crate::children_peak_rss_mb());
    for (name_p50, name_tail, values) in [
        ("miss_p50_ms", "miss_tail_ms", &miss),
        ("hit_p50_ms", "hit_tail_ms", &hit),
        ("mutate_p50_ms", "mutate_tail_ms", &mutate),
    ] {
        let t = tail(values);
        m.set(name_p50, median(values));
        m.set(name_tail, t.value);
        notes.push(format!("{name_tail} is p{} of {} samples", t.pct, t.samples));
    }
    let t = tail(&late);
    m.set("loadgen.late_tail_ms", t.value);
    notes.push(format!("loadgen.late_tail_ms is p{} of {} samples", t.pct, t.samples));
    m.set("service.health_ms", median(&health));
    m.set("service.reply_gap_ms", median(&gaps));
    m.set("service.engine_ms", median(&engine_ms));
    m.set("service.load_s", median(&load_ms) / 1e3);
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let rate = |h: f64, n: f64| if h + n == 0.0 { 0.0 } else { h / (h + n) };
    m.set("service.cache_hit_rate", rate(d[0], d[1]));
    m.set("service.plan_cache_hit_rate", rate(d[2], d[3]));
    m.set("service.slices", d[4]);
    m.set("service.preemptions", d[5]);
    m.set("service.rejected_overloaded", d[6]);
    m.set("delta.mutate_ms", median(&mutate_ms));
    m.set("delta.views_patched", patched);
    m.set("delta.views_dropped", dropped);
    m.set("delta.compactions", compactions);
    m.set("error_rate", failed as f64 / attempted as f64);
    if args.trace {
        m.set("trace.overhead", median(&traced_hit.0) / median(&traced_hit.1) - 1.0);
        m.set("trace.spans", tracer.len() as f64);
        let traced = (records_a.iter().chain(&records_b).filter(|r| r.traced).count()).max(1);
        for (layer, secs) in tracer.self_seconds() {
            let name = match layer {
                "bench" => "self.bench_s",
                "service" => "self.service_s",
                "delta" => "self.delta_s",
                _ => continue,
            };
            m.set(name, secs / traced as f64);
        }
        let file = args.trace_file();
        tracer.append_jsonl(&file).map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    if compactions < 2.0 {
        wrong.push(format!("the run spanned {compactions} overlay compactions, not 2 or more"));
    }
    notes.push(format!(
        "{} uncached, {} cached, {} mutate, {} health requests; {} failed",
        miss.len(),
        hit.len(),
        mutate.len(),
        health.len(),
        failed
    ));
    notes.extend(wrong.iter().take(20).map(|w| format!("WRONG: {w}")));
    Ok(Outcome { correct: wrong.is_empty(), attempted, failed, metrics: m, notes })
}

fn epoch_window(kind: &Kind, rec: &Record) -> (u64, u64) {
    match *kind {
        Kind::Miss(_, e) => (e as u64, e as u64),
        _ => (rec.epoch_lo, rec.epoch_hi),
    }
}
