//! The TCP server: JSON-lines over `std::net`, one thread per connection,
//! queries admitted through the [`Scheduler`].

use crate::error::ServiceError;
use crate::json::Json;
use crate::protocol::{error_response, ok_response, Request};
use crate::scheduler::{Job, QueryOutcome, Scheduler, StreamSink, DEFAULT_SLICE_SUPERSTEPS};
use crate::state::{QueryDefaults, ServiceState};
use crate::views;
use crate::wire::{self, WireError, MAX_LINE_BYTES};
use psgl_core::{CancelReason, CancelToken};
use psgl_graph::generators::EdgeBatch;
use psgl_graph::VertexId;
use psgl_obs::Value as TraceValue;
use psgl_pattern::Pattern;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop re-checks the stop flag between
/// `WouldBlock` polls of the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How often a connection waiting on a worker reply checks whether its
/// client hung up (and should therefore cancel the in-flight job).
const REPLY_POLL: Duration = Duration::from_millis(25);

/// Reply-poll interval while a streamed query is live: pages should
/// reach the wire promptly, so the forwarding loop spins faster.
const STREAM_POLL: Duration = Duration::from_millis(2);

/// Page events buffered between a worker and its streaming connection
/// before the worker blocks (bounded so a slow client cannot make a
/// million-instance answer buffer server-side).
const PAGE_CHANNEL_CAP: usize = 16;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Listen address; port 0 picks a free port (see [`ServiceHandle::addr`]).
    pub addr: String,
    /// Worker-pool size (concurrent queries).
    pub pool: usize,
    /// Admission-queue capacity; a full queue rejects with `overloaded`.
    pub queue_cap: usize,
    /// Result-cache capacity (queries).
    pub result_cache_cap: usize,
    /// Plan-cache capacity (plans).
    pub plan_cache_cap: usize,
    /// Per-query engine defaults.
    pub defaults: QueryDefaults,
    /// Instances per `list` chunk line when the request does not choose.
    pub list_chunk: usize,
    /// Supersteps a query runs before the scheduler may preempt it
    /// (1 = finest interleaving).
    pub slice_supersteps: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7171".to_string(),
            pool: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_cap: 16,
            result_cache_cap: 128,
            plan_cache_cap: 256,
            defaults: QueryDefaults::default(),
            list_chunk: 256,
            slice_supersteps: DEFAULT_SLICE_SUPERSTEPS,
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServiceHandle::shutdown`] or send the `shutdown` verb.
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    state: Arc<ServiceState>,
}

impl ServiceHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process inspection (tests, benchmarks).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Requests shutdown and waits for the accept loop and workers to
    /// finish. Idempotent; also triggered by the `shutdown` verb. The
    /// accept loop polls a non-blocking listener, so the flag alone stops
    /// it — no connect-to-self nudge, which would hang on an unroutable
    /// listen address.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wait();
    }

    /// Blocks until the server stops (via `shutdown` verb or
    /// [`Self::shutdown`]).
    pub fn wait(&self) {
        let handle = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Binds and starts serving; returns once the listener is accepting.
pub fn serve(config: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let state = Arc::new(ServiceState::new(
        config.result_cache_cap,
        config.plan_cache_cap,
        config.defaults.clone(),
    ));
    serve_with_state(config, state)
}

/// [`serve`] against externally built state (lets tests pre-load graphs).
pub fn serve_with_state(
    config: ServiceConfig,
    state: Arc<ServiceState>,
) -> std::io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Non-blocking accept + stop-flag polling: shutdown needs no traffic
    // to take effect, so it works even when the listen address is not
    // routable from this host (the old connect-to-self nudge was not).
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let scheduler = Arc::new(Scheduler::start_with(
        Arc::clone(&state),
        config.pool,
        config.queue_cap,
        config.slice_supersteps,
    ));
    let accept = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new().name("psgl-accept".to_string()).spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    }
                    Err(_) => continue,
                };
                // Connections use ordinary blocking reads; only the
                // listener itself polls.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // Each reply is one write; sending it at once keeps a
                // reply from waiting on the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                state.stats.connections.inc();
                let conn = Connection {
                    state: Arc::clone(&state),
                    scheduler: Arc::clone(&scheduler),
                    stop: Arc::clone(&stop),
                    list_chunk: config.list_chunk,
                };
                // Connection threads are detached: they die with their
                // socket, and the process outlives none of them long.
                let _ = std::thread::Builder::new()
                    .name("psgl-conn".to_string())
                    .spawn(move || conn.run(stream));
            }
            scheduler.shutdown();
        })?
    };
    Ok(ServiceHandle { addr, stop, accept: Mutex::new(Some(accept)), state })
}

struct Connection {
    state: Arc<ServiceState>,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    list_chunk: usize,
}

impl Connection {
    fn run(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut line = String::new();
        loop {
            // Bound the line length so one client cannot balloon memory.
            match wire::read_line(&mut reader, &mut line, MAX_LINE_BYTES) {
                Ok(false) => return, // client closed
                Ok(true) => {}
                Err(WireError::Oversized { limit }) => {
                    let err =
                        ServiceError::BadRequest(format!("request line exceeds {limit} bytes"));
                    let _ = write_json(&mut writer, &error_response(&err));
                    return;
                }
                Err(_) => return,
            }
            if line.trim().is_empty() {
                continue;
            }
            self.state.stats.requests.inc();
            let keep_going = self.dispatch(line.trim(), &mut writer);
            if !keep_going {
                return;
            }
        }
    }

    /// Handles one request line; returns false when the connection (or the
    /// whole server) should wind down.
    fn dispatch(&self, line: &str, writer: &mut TcpStream) -> bool {
        let request = match Request::parse_line(line) {
            Ok(request) => request,
            Err(e) => return write_json(writer, &error_response(&e)),
        };
        match request {
            Request::Health => write_json(
                writer,
                &ok_response([
                    ("status", Json::from("healthy")),
                    ("graphs", Json::from(self.state.catalog.len())),
                ]),
            ),
            Request::Stats => write_json(writer, &stats_response(&self.state)),
            Request::Metrics { format } => {
                write_json(writer, &metrics_response(&self.state, format.as_deref()))
            }
            Request::Load { name, path, format } => {
                match self.state.catalog.load(&name, &path, format) {
                    Ok(outcome) => {
                        // A same-content reload reports no replaced hash:
                        // cached results stay warm (the no-op contract).
                        if let Some(old_hash) = outcome.replaced_hash {
                            self.state.results.invalidate_graph(old_hash);
                            // No delta relates the old content to the new;
                            // subscribers must re-list from scratch.
                            views::publish_resync(&self.state, &outcome.entry, "reload");
                        }
                        let entry = outcome.entry;
                        write_json(
                            writer,
                            &ok_response([
                                ("graph", Json::from(entry.name.clone())),
                                ("vertices", Json::from(entry.graph.num_vertices())),
                                ("edges", Json::from(entry.graph.num_edges())),
                                ("epoch", Json::from(entry.epoch)),
                                (
                                    "content_hash",
                                    Json::from(format!("{:016x}", entry.content_hash)),
                                ),
                                ("load_ms", Json::from(entry.load_ms)),
                                ("reloaded", Json::from(entry.epoch > 0)),
                                ("same_content", Json::from(outcome.same_content)),
                            ]),
                        )
                    }
                    Err(e) => write_json(writer, &error_response(&ServiceError::from(e))),
                }
            }
            Request::Mutate { graph, insert, delete } => {
                match self.handle_mutate(&graph, insert, delete) {
                    Ok(response) => write_json(writer, &response),
                    Err(e) => write_json(writer, &error_response(&e)),
                }
            }
            Request::Subscribe { graph, pattern_spec, pattern } => {
                self.handle_subscribe(graph, &pattern_spec, pattern, writer)
            }
            Request::Shutdown => {
                let _ = write_json(writer, &ok_response([("stopping", Json::from(true))]));
                self.stop.store(true, Ordering::SeqCst);
                false
            }
            Request::Cancel { query_id } => {
                let found = self.state.jobs.cancel(&query_id);
                write_json(
                    writer,
                    &ok_response([
                        ("query_id", Json::from(query_id)),
                        ("found", Json::from(found)),
                    ]),
                )
            }
            Request::Count(query) => match self.run_job(query, false, None, writer) {
                Ok(outcome) => {
                    self.state.stats.queries_ok.inc();
                    write_json(writer, &count_response(&outcome))
                }
                Err(e) => self.write_query_error(writer, &e),
            },
            Request::List { query, chunk } => {
                let chunk = chunk.unwrap_or(self.list_chunk).max(1);
                let streamed = query.stream;
                match self.run_job(query, true, streamed.then_some(chunk), writer) {
                    Ok(outcome) => {
                        self.state.stats.queries_ok.inc();
                        if streamed {
                            // Pages already went out in order; finish with
                            // the done line so the client knows the count.
                            let mut fields = query_fields(&outcome);
                            fields.insert(0, ("done", Json::from(true)));
                            write_json(writer, &ok_response(fields))
                        } else {
                            self.write_list_chunks(writer, &outcome, chunk)
                        }
                    }
                    Err(e) => self.write_query_error(writer, &e),
                }
            }
        }
    }

    /// Applies one edge batch: advances the catalog entry an epoch,
    /// patches (or drops, on compaction) the graph's cached views, and
    /// fans the signed instance delta out to subscribers.
    fn handle_mutate(
        &self,
        graph: &str,
        insert: Vec<(VertexId, VertexId)>,
        delete: Vec<(VertexId, VertexId)>,
    ) -> Result<Json, ServiceError> {
        let start = std::time::Instant::now();
        let batch = EdgeBatch { insert, delete };
        let outcome = self.state.catalog.mutate(graph, &batch)?;
        self.state.stats.mutations.inc();
        let stats = views::patch_cached_views(&self.state, &outcome);
        let notified = views::notify_subscribers(&self.state, &outcome);
        let entry = &outcome.entry;
        Ok(ok_response([
            ("graph", Json::from(entry.name.clone())),
            ("epoch", Json::from(entry.epoch)),
            ("content_hash", Json::from(format!("{:016x}", entry.content_hash))),
            ("parent_hash", Json::from(format!("{:016x}", outcome.previous.content_hash))),
            ("vertices", Json::from(entry.graph.num_vertices())),
            ("edges", Json::from(entry.graph.num_edges())),
            ("inserted", Json::from(outcome.inserted.len())),
            ("deleted", Json::from(outcome.deleted.len())),
            ("compacted", Json::from(outcome.compacted)),
            ("views_patched", Json::from(stats.patched)),
            ("views_dropped", Json::from(stats.dropped)),
            ("subscribers_notified", Json::from(notified)),
            ("wall_ms", Json::from(start.elapsed().as_secs_f64() * 1e3)),
        ]))
    }

    /// Turns the connection into a dedicated event stream: acks the
    /// subscription, then forwards every delta/resync event for
    /// `(graph, pattern)` until the client hangs up or the server stops.
    fn handle_subscribe(
        &self,
        graph: String,
        pattern_spec: &str,
        pattern: Pattern,
        writer: &mut TcpStream,
    ) -> bool {
        let Some(entry) = self.state.catalog.get(&graph) else {
            return write_json(writer, &error_response(&ServiceError::GraphNotFound(graph)));
        };
        let (id, events) = self.state.subscriptions.subscribe(graph.clone(), pattern);
        let ack = ok_response([
            ("subscribed", Json::from(true)),
            ("subscription_id", Json::from(id)),
            ("graph", Json::from(graph)),
            ("pattern", Json::from(pattern_spec)),
            ("epoch", Json::from(entry.epoch)),
            ("content_hash", Json::from(format!("{:016x}", entry.content_hash))),
        ]);
        if write_json(writer, &ack) {
            loop {
                match events.recv_timeout(REPLY_POLL) {
                    Ok(event) => {
                        if !write_json(writer, &event) {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if self.stop.load(Ordering::SeqCst) || client_gone(writer) {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        self.state.subscriptions.unsubscribe(id);
        false
    }

    /// Submits through admission control and waits for the worker,
    /// watching the client socket the whole time: a client that hangs up
    /// mid-query cancels its job, so the worker slot frees up instead of
    /// finishing work nobody will read. With `stream_chunk` set, page
    /// events from the worker are forwarded to the client in order while
    /// waiting; a failed page write is treated as a disconnect, which
    /// unregisters the stream and frees the tenant's slot.
    fn run_job(
        &self,
        query: crate::protocol::QuerySpec,
        collect: bool,
        stream_chunk: Option<usize>,
        writer: &mut TcpStream,
    ) -> Result<QueryOutcome, ServiceError> {
        let token = match query.timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let query_id = query.query_id.clone();
        let tenant = query.tenant.clone();
        if let Some(id) = &query_id {
            self.state.jobs.register(id.clone(), token.clone());
        }
        let (stream, pages) = match stream_chunk {
            Some(chunk) => {
                let (page_tx, page_rx) = sync_channel(PAGE_CHANNEL_CAP);
                (Some(StreamSink { tx: page_tx, chunk }), Some(page_rx))
            }
            None => (None, None),
        };
        let poll = if pages.is_some() { STREAM_POLL } else { REPLY_POLL };
        let (tx, rx) = channel();
        let submitted =
            self.scheduler.submit(Job { query, collect, token: token.clone(), reply: tx, stream });
        let result = match submitted {
            Ok(()) => loop {
                if let Some(page_rx) = &pages {
                    forward_pages(page_rx, writer, &token);
                }
                match rx.recv_timeout(poll) {
                    Ok(reply) => break reply,
                    Err(RecvTimeoutError::Timeout) => {
                        if !token.is_cancelled() && client_gone(writer) {
                            token.cancel(CancelReason::Disconnected);
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break Err(ServiceError::ShuttingDown),
                }
            },
            Err(e) => Err(e),
        };
        // The worker sent every page before it replied, so one final
        // drain puts the tail on the wire ahead of the done line.
        if let Some(page_rx) = &pages {
            forward_pages(page_rx, writer, &token);
        }
        // One attributed event per disconnected query, whichever path
        // noticed it first (reply-wait probe, failed page write, or the
        // worker's closed page channel) — the `cancelled` counter alone
        // cannot say *whose* client went away.
        if matches!(token.reason(), Some(CancelReason::Disconnected)) {
            self.state.tracer.event(
                "client_disconnected",
                &[
                    ("query_id", TraceValue::Str(query_id.clone().unwrap_or_default())),
                    ("tenant", TraceValue::Str(tenant.unwrap_or_default())),
                ],
            );
        }
        if let Some(id) = &query_id {
            self.state.jobs.unregister(id);
        }
        result
    }

    fn write_query_error(&self, writer: &mut TcpStream, e: &ServiceError) -> bool {
        let counter = match e {
            ServiceError::Overloaded { .. } => &self.state.stats.rejected_overloaded,
            ServiceError::BudgetExceeded { .. } => &self.state.stats.rejected_budget,
            ServiceError::Cancelled { .. } => &self.state.stats.cancelled,
            _ => &self.state.stats.queries_failed,
        };
        counter.inc();
        let mut response = error_response(e);
        // An internal error is exactly the "what led up to this?" case:
        // dump the flight recorder and tell the client where it landed.
        if matches!(e, ServiceError::Internal(_)) {
            if let Some(path) =
                self.state.tracer.recorder().dump_on_failure("psgl-service-internal")
            {
                if let Json::Obj(fields) = &mut response {
                    fields.push((
                        "flight_recorder".to_string(),
                        Json::from(path.display().to_string()),
                    ));
                }
            }
        }
        write_json(writer, &response)
    }

    /// Streams a list result: `chunk` lines then a `done` line.
    fn write_list_chunks(
        &self,
        writer: &mut TcpStream,
        outcome: &QueryOutcome,
        chunk: usize,
    ) -> bool {
        let instances = outcome.instances.as_deref().map_or(&[][..], Vec::as_slice);
        for (i, block) in instances.chunks(chunk).enumerate() {
            let rows: Vec<Json> = block.iter().map(|inst| Json::from(inst.clone())).collect();
            let line = ok_response([("chunk", Json::from(i)), ("instances", Json::Arr(rows))]);
            if !write_json(writer, &line) {
                return false;
            }
        }
        let mut fields = query_fields(outcome);
        fields.insert(0, ("done", Json::from(true)));
        write_json(writer, &ok_response(fields))
    }
}

/// Forwards every page event currently buffered, in order. A failed
/// write means the client hung up mid-stream: cancel the job so the
/// worker stops producing pages into a dead channel.
fn forward_pages(pages: &Receiver<Json>, writer: &mut TcpStream, token: &CancelToken) {
    while let Ok(page) = pages.try_recv() {
        if !write_json(writer, &page) {
            if !token.is_cancelled() {
                token.cancel(CancelReason::Disconnected);
            }
            return;
        }
    }
}

/// Common response fields of count/list results.
fn query_fields(outcome: &QueryOutcome) -> Vec<(&'static str, Json)> {
    vec![
        ("count", Json::from(outcome.count)),
        ("cache_hit", Json::from(outcome.cache_hit)),
        ("plan_cache_hit", Json::from(outcome.plan_cache_hit)),
        ("gpsis_generated", Json::from(outcome.gpsis_generated)),
        ("pruned", Json::from(outcome.pruned)),
        ("supersteps", Json::from(outcome.supersteps)),
        ("init_vertex", Json::from(u64::from(outcome.init_vertex) + 1)), // 1-based, CLI-style
        ("selection_rule", Json::from(outcome.selection_rule.clone())),
        ("wall_ms", Json::from(outcome.wall_ms)),
        ("resumed", Json::from(outcome.resumed)),
        ("slices", Json::from(outcome.slices)),
        ("preemptions", Json::from(outcome.preemptions)),
        ("pages", Json::from(outcome.pages)),
    ]
}

/// Whether the client side of `conn` has hung up: a zero-byte `peek`
/// (EOF) or a hard socket error. Pending pipelined bytes and `WouldBlock`
/// both mean the peer is still there. The socket is flipped to
/// non-blocking only for the probe.
fn client_gone(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match conn.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = conn.set_nonblocking(false);
    gone
}

fn count_response(outcome: &QueryOutcome) -> Json {
    ok_response(query_fields(outcome))
}

/// The `stats` verb body.
fn stats_response(state: &ServiceState) -> Json {
    let graphs: Vec<Json> = state
        .catalog
        .entries()
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::from(e.name.clone())),
                ("vertices", Json::from(e.graph.num_vertices())),
                ("edges", Json::from(e.graph.num_edges())),
                ("epoch", Json::from(e.epoch)),
                ("content_hash", Json::from(format!("{:016x}", e.content_hash))),
                (
                    "parent_hash",
                    match e.parent_hash {
                        Some(hash) => Json::from(format!("{hash:016x}")),
                        None => Json::Null,
                    },
                ),
                ("load_ms", Json::from(e.load_ms)),
                ("path", Json::from(e.path.clone())),
            ])
        })
        .collect();
    ok_response([
        ("server", state.stats.snapshot()),
        ("cluster", state.stats.cluster_snapshot()),
        ("result_cache", state.results.stats_json()),
        ("plan_cache", state.plans.stats_json()),
        ("subscriptions", Json::from(state.subscriptions.len())),
        ("tenants", state.tenants.snapshot()),
        ("graphs", Json::Arr(graphs)),
    ])
}

/// The `metrics` verb body: a strict superset of `stats` — the same
/// top-level objects plus the raw registry series, the slow-query log,
/// and (with `"format": "prometheus"`) a text-exposition rendition.
fn metrics_response(state: &ServiceState, format: Option<&str>) -> Json {
    let mut response = stats_response(state);
    let snapshot = state.stats.registry().snapshot();
    let metrics = Json::parse(&psgl_obs::render_json(&snapshot)).unwrap_or(Json::Arr(Vec::new()));
    let slow: Vec<Json> = state
        .slow_queries
        .entries()
        .iter()
        .map(|e| Json::parse(&e.to_json()).unwrap_or(Json::Null))
        .collect();
    if let Json::Obj(fields) = &mut response {
        fields.push(("metrics".to_string(), metrics));
        fields.push((
            "slow_query_threshold_ms".to_string(),
            Json::from(state.slow_queries.threshold_ms()),
        ));
        fields.push(("slow_queries".to_string(), Json::Arr(slow)));
        if format == Some("prometheus") {
            fields.push(("body".to_string(), Json::from(psgl_obs::render_prometheus(&snapshot))));
        }
    }
    response
}

/// Writes one response line; false when the client is gone.
fn write_json(writer: &mut TcpStream, value: &Json) -> bool {
    wire::write_json(writer, value).is_ok()
}
