//! The TCP query server: accept loop, per-connection workers, deadline
//! enforcement, and graceful shutdown.
//!
//! Threading model: one OS thread per connection (connections are
//! long-lived and few; the *scan* parallelism comes from the morsel pool
//! each query fans out to, not from connection count), all multiplexed
//! over one shared [`ResilientSystem`]. Admission control is the
//! concurrency limiter: at most `max_inflight` queries per class execute
//! at once, so connection count never translates into unbounded executor
//! pressure.
//!
//! Deadline path: a query with `deadline_ms` gets a deadline-carrying
//! [`CancelToken`]. Before execution the deadline's remaining time is
//! converted to a row budget ([`crate::throughput`]) and handed to
//! [`ResilientSystem::answer_bounded`] — so a tight deadline *downgrades
//! the serving tier up front* (tallied as
//! `aqp_tier_fallback_total{reason="deadline"}`) instead of being
//! discovered mid-scan. The token is the backstop: if the estimate was
//! wrong and the deadline trips anyway, every in-flight scan stops
//! claiming morsels within one morsel and the client gets a `timeout`
//! frame. Either way the executor threads are freed; a doomed query
//! cannot strand them.
//!
//! Shutdown: SIGTERM/ctrl-c (or a `shutdown` request) flips one flag.
//! The accept loop stops, in-flight requests finish (their responses are
//! written), idle connections are closed, and new requests on draining
//! connections receive a `draining` frame. The process exits once every
//! connection thread has been joined — no response is ever torn by
//! shutdown.
//!
//! Metrics: [`Server::bind`] makes one [`Registry`] for the server and
//! hands it to the admission controller, the cache, the shadow auditor
//! and the fault hooks, so every `aqp_server_*`, `aqp_cache_*`,
//! `aqp_shadow_*`, `aqp_flight_dump_total` and serving
//! `aqp_fault_injected_total` series is this server's alone. Each request
//! outcome is counted once, as `aqp_server_requests_total{class,outcome}`,
//! and each answer's latency once, in `aqp_server_latency_seconds{class}`.
//! The [`ServerReport`] and the `stats` verb's payload are read off one
//! snapshot of that registry; the series are cumulative, and `aqp top`
//! takes its 10s / 1m / 5m windows as differences of its own polls. The
//! `metrics` verb and `metrics_out` export the registry merged with the
//! process-wide one (`global()` in `aqp-obs`), which keeps what belongs
//! to the process: tier and fallback tallies, scan and prune counters,
//! storage faults, memory gauges, events.

use crate::admission::{AdmissionConfig, AdmissionController, AdmitOutcome};
use crate::cache::{CacheConfig, CacheDecision, SemanticCache};
use crate::fault::{Faults, ServingFault};
use crate::protocol::{
    write_frame, ContractClass, FrameRead, FrameReader, Request, Response, ServedAnswer,
    RETAINED_BUFFER_BYTES,
};
use crate::shadow::{ShadowAuditor, ShadowConfig};
use crate::throughput::Throughput;
use aqp_core::{AnswerContract, AqpError, QueryBound, ResilientSystem, ServingTier};
use aqp_obs::flight::{FlightRecorder, RequestRecord, Timeline, DEFAULT_FLIGHT_CAPACITY};
use aqp_obs::json::Value;
use aqp_obs::{Registry, Snapshot};
use aqp_query::CancelToken;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Signal shim: the only unsafe code in the crate. Registers a handler
/// for SIGTERM and SIGINT that flips one atomic; the server's accept
/// loop polls it. The handler body is async-signal-safe (a single
/// relaxed store).
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler; read by the accept loop.
    pub static SIGNALLED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn handler(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Install the handlers (idempotent; best-effort on non-unix).
    pub fn install() {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            unsafe {
                signal(SIGTERM, handler as *const () as usize);
                signal(SIGINT, handler as *const () as usize);
            }
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Admission limits per contract class.
    pub admission: AdmissionConfig,
    /// Deadline applied to queries that do not carry their own, if any.
    pub default_deadline: Option<Duration>,
    /// Confidence level for queries that do not carry their own.
    pub default_confidence: f64,
    /// Pin the throughput estimator (deterministic deadline→budget
    /// conversion for tests/CI). `None` = learn from observations.
    pub fixed_rows_per_ms: Option<f64>,
    /// How long to wait for in-flight connections at shutdown before
    /// abandoning the join.
    pub drain_timeout: Duration,
    /// Semantic answer cache configuration (capacity 0 disables).
    pub cache: CacheConfig,
    /// Write a Prometheus metrics snapshot to this file at exit.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Whether to install SIGTERM/SIGINT handlers (CLI yes, tests no —
    /// handlers are process-global).
    pub install_signal_handlers: bool,
    /// Flight-recorder ring capacity (last N request records).
    pub flight_recorder_cap: usize,
    /// Dump the flight recorder to this JSONL file on anomaly (shed,
    /// timeout, serving error) and at exit. `None` keeps the ring in
    /// memory only (still served by the `dump` wire verb).
    pub flight_dump: Option<std::path::PathBuf>,
    /// Shadow accuracy auditor (rate 0 disables the worker entirely).
    pub shadow: ShadowConfig,
    /// Injected serving faults, counted by this server's hooks alone
    /// (empty: none).
    pub faults: Vec<ServingFault>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission: AdmissionConfig::default(),
            default_deadline: None,
            default_confidence: 0.95,
            fixed_rows_per_ms: None,
            drain_timeout: Duration::from_secs(10),
            cache: CacheConfig::default(),
            metrics_out: None,
            install_signal_handlers: false,
            flight_recorder_cap: DEFAULT_FLIGHT_CAPACITY,
            flight_dump: None,
            shadow: ShadowConfig::default(),
            faults: Vec::new(),
        }
    }
}

/// What one server run did, for operator logs and tests: read off the
/// server's registry, so it counts what that registry counted (nothing
/// while collection is off, [`aqp_obs::set_enabled`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Total requests that received a terminal response.
    pub requests: u64,
    /// Queries answered (any tier).
    pub answered: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Deadline timeouts (queue or mid-scan).
    pub timeouts: u64,
    /// Requests refused because the server was draining.
    pub drained_rejects: u64,
    /// Errors (parse, planning, …).
    pub errors: u64,
    /// Connections served over the lifetime.
    pub connections: u64,
    /// Queries answered straight from the semantic cache.
    pub cache_hits: u64,
    /// Queries that missed the cache and executed (includes single-flight
    /// leaders and deadline-expired followers).
    pub cache_misses: u64,
    /// Queries that skipped the cache entirely (cache disabled).
    pub cache_bypass: u64,
}

const REQUESTS: &str = "aqp_server_requests_total";
const LATENCY: &str = "aqp_server_latency_seconds";

impl ServerReport {
    /// The report a snapshot of a server's registry holds: each outcome
    /// is its `aqp_server_requests_total{outcome}` series summed over
    /// classes, the cache tallies are the cache's own counters.
    fn read(snap: &Snapshot) -> ServerReport {
        let outcome = |want: &str| {
            snap.counters
                .iter()
                .filter(|c| c.name == REQUESTS && c.labels.iter().any(|(k, v)| k == "outcome" && v == want))
                .map(|c| c.value)
                .sum()
        };
        ServerReport {
            requests: snap.counter_total(REQUESTS),
            answered: outcome("answer"),
            shed: outcome("shed"),
            timeouts: outcome("timeout"),
            drained_rejects: outcome("draining"),
            errors: outcome("error"),
            connections: snap.counter_total("aqp_server_connections_total"),
            cache_hits: snap.counter_total("aqp_cache_hit_total"),
            cache_misses: snap.counter_total("aqp_cache_miss_total"),
            cache_bypass: snap.counter_total("aqp_cache_bypass_total"),
        }
    }
}

/// Handle for asking a running server to shut down gracefully from
/// another thread (tests, embedding).
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl ShutdownHandle {
    /// Request graceful shutdown: drain in-flight work, then return.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle")
            .field("shutdown", &self.inner.shutdown.load(Ordering::SeqCst))
            .finish()
    }
}

struct Inner {
    /// Shared with the shadow auditor, which re-executes on the same data.
    system: Arc<ResilientSystem>,
    config: ServerConfig,
    admission: AdmissionController,
    throughput: Throughput,
    cache: SemanticCache,
    shutdown: AtomicBool,
    draining: AtomicBool,
    /// This server's metrics: every request it served, and nothing else.
    registry: Arc<Registry>,
    /// Per-instance (not global) so concurrent test servers never see
    /// each other's requests.
    flight: FlightRecorder,
    /// Taken (and drained) exactly once at server drain.
    shadow: Mutex<Option<ShadowAuditor>>,
    trace_counter: AtomicU64,
    faults: Faults,
}

/// A bound, ready-to-run query server.
pub struct Server {
    inner: Arc<Inner>,
    listener: TcpListener,
}

impl Server {
    /// Bind the listen socket. The server does not accept until
    /// [`Server::run`].
    pub fn bind(system: ResilientSystem, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let throughput = match config.fixed_rows_per_ms {
            Some(rate) => Throughput::fixed(rate),
            None => Throughput::new(),
        };
        let registry = Arc::new(Registry::new());
        let admission = AdmissionController::with_registry(config.admission, Arc::clone(&registry));
        let cache = SemanticCache::with_registry(config.cache.clone(), Arc::clone(&registry));
        let flight = FlightRecorder::new(config.flight_recorder_cap);
        // The auditor shares the system, not a copy of it (a `Table`
        // clone copies every column): exact re-execution runs beside
        // serving, never through admission.
        let system = Arc::new(system);
        let shadow = Mutex::new(if config.shadow.rate > 0.0 {
            Some(ShadowAuditor::start(config.shadow.clone(), Arc::clone(&system), Arc::clone(&registry)))
        } else {
            None
        });
        let faults = Faults::new(config.faults.clone(), Arc::clone(&registry));
        Ok(Server {
            inner: Arc::new(Inner {
                system,
                config,
                admission,
                throughput,
                cache,
                shutdown: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                registry,
                flight,
                shadow,
                trace_counter: AtomicU64::new(1),
                faults,
            }),
            listener,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { inner: Arc::clone(&self.inner) }
    }

    /// This server's registry: its request, admission, cache, shadow,
    /// flight-dump and injected-fault series, and no other server's.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// Run the accept loop until shutdown is requested (signal, handle,
    /// or `shutdown` request), then drain and return the report.
    pub fn run(self) -> io::Result<ServerReport> {
        if self.inner.config.install_signal_handlers {
            sig::install();
        }
        aqp_obs::event::info(
            "serving::server",
            "server listening",
            &[("addr", &self.local_addr()?.to_string())],
        );
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.inner.count("aqp_server_connections_total", &[]);
                    if self.inner.faults.accept_drop() {
                        // Injected accept-time drop: close without a byte.
                        drop(stream);
                        continue;
                    }
                    let inner = Arc::clone(&self.inner);
                    workers.push(std::thread::spawn(move || handle_connection(inner, stream)));
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }

        // Drain: reject new requests, finish in-flight ones, join workers.
        // The join is bounded: poll `is_finished` against the drain
        // deadline rather than blocking in `join()`, so one stuck
        // connection (e.g. a peer applying TCP backpressure mid-write)
        // cannot stall shutdown past `drain_timeout`.
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.count("aqp_server_drain_total", &[]);
        let drain_deadline = Instant::now() + self.inner.config.drain_timeout;
        let mut workers = workers;
        loop {
            let (done, pending): (Vec<_>, Vec<_>) =
                workers.into_iter().partition(|w| w.is_finished());
            for w in done {
                let _ = w.join();
            }
            workers = pending;
            if workers.is_empty() {
                break;
            }
            if Instant::now() >= drain_deadline {
                aqp_obs::event::warn(
                    "serving::server",
                    "drain timeout; detaching workers",
                    &[("workers", &workers.len().to_string())],
                );
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(self.listener);

        // Drain the shadow auditor BEFORE the final metrics snapshot:
        // every accepted audit job finishes, so `aqp_shadow_*` totals in
        // the exit snapshot are complete.
        if let Some(shadow) = self.inner.shadow.lock().expect("shadow slot poisoned").take() {
            shadow.shutdown();
        }
        if let Some(path) = &self.inner.config.flight_dump {
            if !self.inner.flight.is_empty() {
                if let Ok(records) = self.inner.flight.dump_to(path) {
                    self.inner.count("aqp_flight_dump_total", &[("trigger", "exit")]);
                    aqp_obs::event::info(
                        "serving::server",
                        "flight recorder dumped at exit",
                        &[("path", &path.display().to_string()), ("records", &records.to_string())],
                    );
                }
            }
        }
        if let Some(path) = &self.inner.config.metrics_out {
            std::fs::write(path, metrics_text(&self.inner))?;
        }
        let report = ServerReport::read(&self.inner.registry.snapshot());
        aqp_obs::event::info(
            "serving::server",
            "server drained and stopped",
            &[
                ("requests", &report.requests.to_string()),
                ("answered", &report.answered.to_string()),
                ("shed", &report.shed.to_string()),
                ("timeouts", &report.timeouts.to_string()),
            ],
        );
        Ok(report)
    }

    fn stop_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst) || sig::SIGNALLED.load(Ordering::SeqCst)
    }
}

/// A client that starts a frame but cannot finish it within this window
/// is treated as dead (slow-loris guard). Generous compared to the 100ms
/// poll tick: legitimate slow clients get many ticks to finish.
const MID_FRAME_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Cap on any single blocking write. A peer that stops reading cannot
/// hold a connection thread (and hence drain) hostage through TCP
/// backpressure forever — the write errors out and the thread exits.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn handle_connection(inner: Arc<Inner>, stream: TcpStream) {
    // Short read timeouts keep drain responsive: an idle connection is
    // noticed within one tick, not held open by a silent client. Framing
    // survives the ticks: `FrameReader` keeps partial header/payload
    // bytes across timeouts, so a frame split over several 100ms windows
    // is reassembled rather than desyncing the wire position.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut framer = FrameReader::new();
    // Request and response frames of this connection each reuse one buffer.
    let mut json = String::new();
    // Set when the current frame's first bytes arrived; bounds how long
    // a mid-frame connection may stall before being dropped.
    let mut frame_started: Option<Instant> = None;

    loop {
        match framer.read(&mut reader) {
            Ok(FrameRead::Frame(payload)) => {
                // Anchor the timeline at the first observed byte of the
                // frame (set when a read timed out mid-frame) so the
                // `read` stage covers the whole reassembly; a frame that
                // arrived within one tick reads as ~0.
                let mut timeline = Timeline::start_at(frame_started.take().unwrap_or_else(Instant::now));
                inner.faults.slow_read();
                timeline.mark("read");
                let (reply, record) = match Request::from_json(&payload) {
                    Ok(request) => dispatch(&inner, request, &mut timeline),
                    Err(e) => {
                        tally_request(&inner, ContractClass::Interactive, "error");
                        let message = format!("bad request: {e}");
                        (Response::Error { message, trace_id: String::new() }.into(), None)
                    }
                };
                framer.recycle(payload);
                inner.faults.write_stall();
                json.clear();
                reply.write_json(&mut json);
                timeline.mark("serialize");
                let wrote = write_frame(&mut writer, &json);
                timeline.mark("write");
                if json.capacity() > RETAINED_BUFFER_BYTES {
                    json = String::new();
                }
                if let Some(record) = record {
                    commit_request(&inner, record, timeline);
                }
                if wrote.is_err() {
                    // Peer gone mid-response; nothing more to say to it.
                    return;
                }
                if matches!(reply, Reply::Other(Response::ShuttingDown | Response::Draining)) {
                    return;
                }
            }
            Ok(FrameRead::Eof) => return, // clean close
            Ok(FrameRead::Idle) => {
                // Frame boundary, nothing buffered: safe to close idle
                // connections once draining.
                if inner.draining.load(Ordering::SeqCst)
                    || inner.shutdown.load(Ordering::SeqCst)
                    || sig::SIGNALLED.load(Ordering::SeqCst)
                {
                    return;
                }
            }
            Ok(FrameRead::MidFrame) => {
                // A frame is in flight; keep reading (even while
                // draining — the request deserves its response), but
                // not forever.
                let started = *frame_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= MID_FRAME_STALL_LIMIT {
                    inner.count("aqp_server_stalled_conn_total", &[]);
                    return;
                }
            }
            Err(_) => return, // torn frame or transport error
        }
    }
}

/// What a request is answered with: an answer, framed straight from the
/// answer the server computed or shares with the cache, or any other
/// [`Response`].
enum Reply {
    Answer(ServedAnswer),
    Other(Response),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Other(response)
    }
}

impl Reply {
    fn write_json(&self, out: &mut String) {
        match self {
            Reply::Answer(answer) => answer.write_json(out),
            Reply::Other(response) => response.write_json(out),
        }
    }
}

impl Inner {
    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        self.registry.counter(name, labels).inc();
    }

    fn observe_latency(&self, class: ContractClass, elapsed: Duration) {
        let labels = &[("class", class.as_str())];
        self.registry.histogram(LATENCY, labels).observe_duration(elapsed);
    }
}

/// Count one terminal response: the only count of request outcomes.
fn tally_request(inner: &Inner, class: ContractClass, outcome: &'static str) {
    inner.count(REQUESTS, &[("class", class.as_str()), ("outcome", outcome)]);
}

/// The `metrics` verb's and `metrics_out`'s export: this server's
/// registry merged with the process's, one `# TYPE` line per family.
fn metrics_text(inner: &Inner) -> String {
    let merged = inner.registry.snapshot().merge(aqp_obs::global().snapshot());
    aqp_obs::to_prometheus(&merged)
}

/// Server-generated trace id: a per-process counter (uniqueness within
/// the run) salted with wall-clock nanos (distinguishes runs in merged
/// logs).
fn gen_trace_id(inner: &Inner) -> String {
    let n = inner.trace_counter.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    format!("aqp-{:08x}-{n:x}", nanos ^ (n << 20))
}

/// Finish one query request: close its record with the timeline, push
/// it to the flight ring, and dump the ring on anomaly. Runs after the
/// response frame was written so the `write` stage is on the record.
fn commit_request(inner: &Inner, mut record: RequestRecord, timeline: Timeline) {
    record.total_micros = timeline.total_micros();
    record.stages = timeline.into_stages();
    let anomaly = ["shed", "timeout", "error"].into_iter().find(|o| *o == record.outcome);
    inner.flight.record(record);
    // Anomalies flush the ring to disk — the record that just went in
    // (and the N before it) are on disk before the next request runs.
    if let (Some(trigger), Some(path)) = (anomaly, &inner.config.flight_dump) {
        if inner.flight.dump_to(path).is_ok() {
            inner.count("aqp_flight_dump_total", &[("trigger", trigger)]);
        }
    }
}

/// The `stats` verb's payload (what `aqp top` polls), read off the same
/// registry snapshot as the [`ServerReport`] and counted since the server
/// started: per class, its queries' `answer` / `shed` / `timeout` /
/// `error` counts and the non-empty buckets of its answer latency as
/// `[index, count]` pairs (the layout `aqp_obs::metrics::quantile`
/// reads); server-wide, its connections, cache hits and flight records.
/// Reading registers no series.
fn render_stats(inner: &Inner) -> String {
    let snap = inner.registry.snapshot();
    let classes = [ContractClass::Interactive, ContractClass::Batch]
        .iter()
        .map(|class| {
            let class = class.as_str();
            let mut members = vec![("class".to_string(), class.into())];
            for outcome in ["answer", "shed", "timeout", "error"] {
                let n = snap.counter_value(REQUESTS, &[("class", class), ("outcome", outcome)]);
                members.push((outcome.to_string(), n.unwrap_or(0).into()));
            }
            let latency = snap.histogram(LATENCY, &[("class", class)]).map_or(Vec::new(), |h| {
                h.buckets.iter().map(|&(i, n)| Value::Arr(vec![i.into(), n.into()])).collect()
            });
            members.push(("latency".to_string(), Value::Arr(latency)));
            Value::Obj(members)
        })
        .collect();
    let report = ServerReport::read(&snap);
    Value::object([
        ("classes", Value::Arr(classes)),
        ("connections", report.connections.into()),
        ("cache_hits", report.cache_hits.into()),
        ("flight_records", inner.flight.len().into()),
    ])
    .to_json()
}

fn dispatch(inner: &Inner, request: Request, timeline: &mut Timeline) -> (Reply, Option<RequestRecord>) {
    let response = match request {
        Request::Ping => {
            tally_request(inner, ContractClass::Interactive, "ping");
            Response::Pong
        }
        Request::Metrics => {
            tally_request(inner, ContractClass::Interactive, "metrics");
            Response::Metrics(metrics_text(inner))
        }
        Request::Stats => {
            tally_request(inner, ContractClass::Interactive, "stats");
            Response::Stats(render_stats(inner))
        }
        Request::Dump => {
            tally_request(inner, ContractClass::Interactive, "dump");
            inner.count("aqp_flight_dump_total", &[("trigger", "request")]);
            Response::Dump(inner.flight.to_jsonl())
        }
        Request::Shutdown => {
            tally_request(inner, ContractClass::Interactive, "shutdown");
            inner.shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        Request::Invalidate => {
            tally_request(inner, ContractClass::Interactive, "invalidate");
            Response::Invalidated { epoch: inner.cache.invalidate() }
        }
        Request::Query {
            sql,
            class,
            deadline_ms,
            row_budget,
            confidence,
            max_rel_error,
            trace_id,
        } => {
            let trace_id = trace_id
                .filter(|t| !t.is_empty())
                .unwrap_or_else(|| gen_trace_id(inner));
            let mut record = RequestRecord {
                trace_id,
                class: class.as_str().to_string(),
                query: sql,
                ..RequestRecord::default()
            };
            let reply = serve_query(
                inner, timeline, &mut record, class, deadline_ms, row_budget, confidence,
                max_rel_error,
            );
            return (reply, Some(record));
        }
    };
    (response.into(), None)
}

/// Count one terminal query response and stamp its outcome on the
/// request's record.
fn settle(inner: &Inner, record: &mut RequestRecord, class: ContractClass, outcome: &'static str) {
    tally_request(inner, class, outcome);
    record.outcome = outcome.to_string();
}

/// Serve one query, filling `record` on every exit: the outcome always
/// (an answer's through [`aqp_core::ApproxAnswer::record_into`], with
/// its tier, rows, groups and partial flag); on the execute
/// path the plan, sample tables, operators and spans collected while
/// metrics are on (whatever a timeout or error had collected before it
/// ended).
#[allow(clippy::too_many_arguments)]
fn serve_query(
    inner: &Inner,
    timeline: &mut Timeline,
    record: &mut RequestRecord,
    class: ContractClass,
    deadline_ms: Option<u64>,
    row_budget: Option<usize>,
    confidence: Option<f64>,
    max_rel_error: Option<f64>,
) -> Reply {
    if inner.draining.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
        settle(inner, record, class, "draining");
        return Response::Draining.into();
    }

    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(inner.config.default_deadline)
        .map(|d| Instant::now() + d);

    let t0 = Instant::now();
    // Parse before admission: the cache key is the canonicalized plan,
    // and a cache hit must not consume an executor slot at all. While the
    // cache is on, a text it has seen is neither parsed nor keyed again.
    let statement = match inner.cache.statement(&record.query) {
        Ok(statement) => statement,
        Err(e) => {
            timeline.mark("parse");
            settle(inner, record, class, "error");
            return Response::Error {
                message: format!("parse error: {e}"),
                trace_id: record.trace_id.clone(),
            }
            .into();
        }
    };
    let parsed = &statement.parsed;
    timeline.mark("parse");
    let conf = confidence.unwrap_or(inner.config.default_confidence);
    let contract = AnswerContract { confidence: conf, max_rel_error };

    // Cache consultation AHEAD of admission. A hit is served without a
    // permit, a token, or a single morsel. A miss returns a single-flight
    // guard: concurrent misses on the same key park here (bounded by
    // their own deadline) while one leader executes; when the leader
    // completes they re-check and hit.
    let decision = inner.cache.decide_statement(&statement, &contract, deadline);
    timeline.mark("cache");
    let flight = match decision {
        CacheDecision::Hit(answer, _, cached) => {
            tally_request(inner, class, "answer");
            let elapsed = t0.elapsed();
            inner.observe_latency(class, elapsed);
            // A hit executed nothing: no plan, tables, operators or spans.
            answer.record_into(record);
            record.cache_hit = true;
            let served = ServedAnswer {
                answer,
                trace_id: record.trace_id.clone(),
                deadline_limited: false,
                effective_budget: None,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                cached: Some(cached),
            };
            return Reply::Answer(served);
        }
        CacheDecision::Bypass => None,
        CacheDecision::Execute(guard) => Some(guard),
    };

    // Admission: the queue wait is bounded by the query's own deadline —
    // time spent queueing is time the scan no longer has.
    let admitted = inner.admission.admit(class, deadline);
    timeline.mark("admission");
    let permit = match admitted {
        AdmitOutcome::Admitted(p) => p,
        AdmitOutcome::Shed { retry_after_ms } => {
            settle(inner, record, class, "shed");
            return Response::Shed {
                retry_after_ms,
                class: class.as_str().to_string(),
                trace_id: record.trace_id.clone(),
            }
            .into();
        }
        AdmitOutcome::QueueTimeout => {
            settle(inner, record, class, "timeout");
            return Response::Timeout {
                message: "deadline expired in admission queue".into(),
                trace_id: record.trace_id.clone(),
            }
            .into();
        }
    };

    let token = match deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    // Injected execution stall (CI's deterministic forced timeout).
    inner.faults.exec_stall(&token);

    // A deadline that expired before execution even began (queue wait,
    // an injected stall) is a miss, not a degradation opportunity — a
    // 0-row "answer" would be vacuous. Report the timeout honestly.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        timeline.mark("execute");
        settle(inner, record, class, "timeout");
        drop(permit);
        return Response::Timeout {
            message: "deadline expired before execution".into(),
            trace_id: record.trace_id.clone(),
        }
        .into();
    }

    let deadline_budget = deadline
        .and_then(|d| d.checked_duration_since(Instant::now()))
        .and_then(|left| inner.throughput.budget_for(left));

    let bound = QueryBound {
        row_budget,
        deadline_budget,
        cancel: Some(token.clone()),
    };
    // The trace collector is a reader of the flight ring, which is idle
    // while metrics are off. It is closed on every exit, so none outlives
    // this request on the connection thread.
    let tracing = aqp_obs::enabled() && aqp_obs::trace::begin("");
    let executed = inner.system.answer_bounded(&parsed.query, conf, &bound);
    if let Some(collected) = tracing.then(aqp_obs::trace::finish).flatten() {
        record.operators = collected.operators;
        record.spans = collected.spans;
    }
    timeline.mark("execute");
    let reply = match executed {
        Ok(bounded) => {
            let elapsed = t0.elapsed();
            // Teach the estimator only from exact-tier scans:
            // sample-tier answers scan few rows yet pay the same
            // parse/ladder overhead, so feeding them in would
            // drag the rows/ms EWMA far below true scan speed
            // and make deadline→budget conversion needlessly
            // pessimistic.
            if bounded.answer.tier == ServingTier::Exact {
                inner.throughput.observe(bounded.answer.rows_scanned, elapsed);
            }
            tally_request(inner, class, "answer");
            inner.observe_latency(class, elapsed);
            // Publish to the cache, which shares the served answer:
            // deadline-shaped answers are an artifact of this request's
            // time budget, not a reusable statement about the data —
            // complete_shared() skips them (and any partial answer) while
            // still releasing the flight.
            let answer = Arc::new(bounded.answer);
            if let Some(guard) = flight {
                guard.complete_shared(&answer, conf, !bounded.deadline_limited);
            }
            // Offer the freshly executed sampled-tier answer to the
            // shadow auditor (bounded non-blocking push on its queue —
            // never an admission slot, never a stall here).
            if let Some(shadow) = inner.shadow.lock().expect("shadow slot poisoned").as_ref() {
                shadow.maybe_submit(&parsed.query, &answer, conf, &record.trace_id);
            }
            if tracing {
                inner.system.describe(&parsed.query, &answer, record);
            } else {
                answer.record_into(record);
            }
            let served = ServedAnswer {
                answer,
                trace_id: record.trace_id.clone(),
                deadline_limited: bounded.deadline_limited,
                effective_budget: bounded.effective_budget,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                cached: None,
            };
            Reply::Answer(served)
        }
        Err(AqpError::Cancelled { deadline: true }) => {
            settle(inner, record, class, "timeout");
            Response::Timeout {
                message: "deadline exceeded mid-scan; no tier could finish".into(),
                trace_id: record.trace_id.clone(),
            }
            .into()
        }
        Err(AqpError::Cancelled { deadline: false }) => {
            settle(inner, record, class, "error");
            Response::Error {
                message: "query cancelled".into(),
                trace_id: record.trace_id.clone(),
            }
            .into()
        }
        Err(e) => {
            settle(inner, record, class, "error");
            Response::Error { message: e.to_string(), trace_id: record.trace_id.clone() }.into()
        }
    };
    drop(permit);
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use crate::protocol::{read_frame, Request};
    use aqp_storage::{DataType, SchemaBuilder, Table};

    fn view(rows: usize) -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..rows {
            let g = if i % 20 == 0 { "rare" } else { "common" };
            t.push_row(&[g.into(), (i as f64).into()]).unwrap();
        }
        t
    }

    fn start(config: ServerConfig) -> (std::net::SocketAddr, ShutdownHandle, std::thread::JoinHandle<ServerReport>) {
        let system = ResilientSystem::exact_only(view(2_000));
        let server = Server::bind(system, config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    #[test]
    fn the_shadow_auditor_shares_the_servers_system() {
        let config = ServerConfig { shadow: ShadowConfig { rate: 1.0, ..ShadowConfig::default() }, ..ServerConfig::default() };
        let server = Server::bind(ResilientSystem::exact_only(view(100)), config).unwrap();
        assert_eq!(Arc::strong_count(&server.inner.system), 2, "the server's handle and the auditor's");
        server.inner.shadow.lock().unwrap().take().expect("shadow rate > 0 starts an auditor").shutdown();
        assert_eq!(Arc::strong_count(&server.inner.system), 1, "the auditor's handle was to the same system");
    }

    #[test]
    fn answers_queries_and_drains_cleanly() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::default());

        match client.request(&Request::Ping).unwrap() {
            Response::Pong => {}
            other => panic!("{other:?}"),
        }
        let answer = match client
            .request(&Request::query("SELECT g, COUNT(*) AS c FROM v GROUP BY g"))
            .unwrap()
        {
            Response::Answer(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(answer.tier, "exact");
        assert_eq!(answer.groups.len(), 2);
        let total: f64 = answer.groups.iter().map(|g| g.values[0].estimate).sum();
        assert_eq!(total, 2_000.0);

        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.answered, 1);
        assert_eq!(report.requests, 2);
    }

    #[test]
    fn draining_rejects_new_queries() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        // Ensure server is up.
        client.request(&Request::Ping).unwrap();
        handle.shutdown();
        // The accept loop exits and draining begins; an in-flight
        // connection's next query gets a draining frame (or the
        // connection closes, which surfaces as an error — both are
        // acceptable terminal outcomes).
        std::thread::sleep(Duration::from_millis(50));
        match client.request(&Request::query("SELECT COUNT(*) FROM v")) {
            Ok(Response::Draining) | Err(_) => {}
            Ok(other) => panic!("expected draining, got {other:?}"),
        }
        join.join().unwrap();
    }

    #[test]
    fn shutdown_request_stops_server() {
        let (addr, _handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        match client.request(&Request::Shutdown).unwrap() {
            Response::ShuttingDown => {}
            other => panic!("{other:?}"),
        }
        let report = join.join().unwrap();
        assert!(report.requests >= 1);
    }

    #[test]
    fn deadline_with_zero_budget_degrades_not_dies() {
        // Pin throughput so the deadline converts deterministically:
        // 1 row/ms and an (almost elapsed) deadline → tiny budget →
        // budget-capped exact scan, flagged deadline_limited.
        let config = ServerConfig {
            fixed_rows_per_ms: Some(1.0),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = start(config);
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        let resp = client
            .request(&Request::Query {
                sql: "SELECT COUNT(*) AS c FROM v".into(),
                class: ContractClass::Interactive,
                deadline_ms: Some(125),
                row_budget: None,
                confidence: None,
                max_rel_error: None,
                trace_id: None,
            })
            .unwrap();
        match resp {
            Response::Answer(a) => {
                assert!(a.deadline_limited, "deadline shaped the answer: {a:?}");
                assert!(a.partial, "scan was truncated to fit the deadline");
                assert!(a.rows_scanned < 2_000, "scanned {} rows", a.rows_scanned);
            }
            other => panic!("expected degraded answer, got {other:?}"),
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn slow_client_frame_split_across_read_timeouts_still_answers() {
        // Dribble one request frame in three bursts separated by pauses
        // longer than the server's 100ms read timeout. The frame spans
        // several timeout windows; a server that discarded partial reads
        // on WouldBlock would desync and never answer.
        let (addr, handle, join) = start(ServerConfig::default());
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let payload = Request::Ping.to_json();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        use std::io::Write as _;
        let cuts = [2, wire.len() / 2, wire.len()];
        let mut sent = 0;
        for cut in cuts {
            stream.write_all(&wire[sent..cut]).unwrap();
            stream.flush().unwrap();
            sent = cut;
            if sent < wire.len() {
                std::thread::sleep(Duration::from_millis(250));
            }
        }
        let resp = read_frame(&mut stream).unwrap().expect("server answered");
        match Response::from_json(&resp).unwrap() {
            Response::Pong => {}
            other => panic!("{other:?}"),
        }
        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn stats_reads_the_registry_without_adding_series() {
        let server = Server::bind(ResilientSystem::exact_only(view(100)), ServerConfig::default()).unwrap();
        let registry = server.registry();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        assert!(matches!(client.request(&Request::query("SELECT COUNT(*) AS c FROM v")), Ok(Response::Answer(_))));
        let ids = || {
            let snap = registry.snapshot();
            let mut ids: Vec<_> = snap.counters.iter().map(|c| (c.name.clone(), c.labels.clone())).collect();
            ids.extend(snap.gauges.iter().map(|g| (g.name.clone(), g.labels.clone())));
            ids.extend(snap.histograms.iter().map(|h| (h.name.clone(), h.labels.clone())));
            ids
        };
        let stats = |client: &mut Client| match client.request(&Request::Stats).unwrap() {
            Response::Stats(text) => text,
            other => panic!("{other:?}"),
        };
        // The first pull registers its own `outcome="stats"` tally; after
        // that, reading adds nothing, not even the batch class it reports.
        let first = stats(&mut client);
        let registered = ids();
        let second = stats(&mut client);
        assert_eq!(ids(), registered);
        let batch = ("class".to_string(), "batch".to_string());
        assert!(!registered.iter().any(|(_, labels)| labels.contains(&batch)), "{registered:?}");
        assert_eq!(first, second);
        assert!(first.contains(r#"{"class":"batch","answer":0,"shed":0,"timeout":0,"error":0,"latency":[]}"#), "{first}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn bad_sql_gets_error_response() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut client = Client::new(addr.to_string(), RetryPolicy::no_retry());
        // The cache keeps the statements it parsed, never a failed parse:
        // the same bad text fails every time, around a good one.
        for sql in ["SELEKT garbage", "SELECT COUNT(*) AS c FROM v", "SELEKT garbage"] {
            match client.request(&Request::query(sql)).unwrap() {
                Response::Error { message, .. } => assert!(message.starts_with("parse error"), "{message}"),
                Response::Answer(_) if !sql.starts_with("SELEKT") => {}
                other => panic!("{other:?}"),
            }
        }
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!((report.errors, report.answered), (2, 1));
    }
}
