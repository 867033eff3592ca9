//! The multi-tenant simulation server: acceptor, bounded admission
//! queue, worker pool, and the HTTP endpoint surface.
//!
//! ```text
//! accept loop ──▶ bounded queue ──▶ worker 0..N (keep-alive loops)
//!      │  queue full                      │
//!      └─▶ inline 503 + Retry-After       └─▶ api::handle_* over the
//!                                             shared cache hierarchy
//! ```
//!
//! Admission control is two-layered: the *queue-depth limit* bounds
//! memory and tail latency under connection floods (excess connections
//! get an immediate `503` with `Retry-After` from the acceptor thread
//! itself, never blocking a worker), and the *cycle budget* bounds how
//! much simulated work a single request can demand (over-budget runs
//! fail with `503 over_budget` before perturbing any cache state — see
//! `api::handle_run`).

use crate::api::{self, ApiError, SimRequest};
use crate::http::{read_request, HttpError, Request, Response};
use crate::json::{Json, ToJson};
use psb_compile::{ArtifactCache, DiskStore};
use psb_telemetry::{names, ns_to_rounded_s, Registry, Telemetry};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration (one `repro serve` invocation).
#[derive(Clone, PartialEq, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral test port.
    pub addr: String,
    /// Worker threads handling connections (>= 1).
    pub jobs: usize,
    /// Connections the admission queue holds before the acceptor starts
    /// rejecting with 503.
    pub queue_depth: usize,
    /// Server-wide cap on per-request simulated-cycle budgets.
    pub cycle_budget: Option<u64>,
    /// On-disk artifact store root (`None` = memory-only caching).
    pub store: Option<PathBuf>,
    /// Size cap on the on-disk store in bytes; past it, saves evict
    /// oldest-used artifacts (`--store-max-bytes`; `None` = unbounded).
    pub store_max_bytes: Option<u64>,
    /// Keep-alive read timeout in milliseconds (`--read-timeout-ms`).
    /// A client that connects and then stalls mid-request holds a
    /// worker for at most this long before the connection is dropped.
    pub read_timeout_ms: u64,
    /// Deterministic mode: zero every wall-derived value in `/metrics`
    /// and traces so responses are byte-identical at any `jobs`.
    pub deterministic: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            queue_depth: 64,
            cycle_budget: None,
            store: None,
            store_max_bytes: None,
            read_timeout_ms: 10_000,
            deterministic: false,
        }
    }
}

/// The telemetry carrier for one request: counters and histograms land
/// in the server-wide [`Registry`] (the `/metrics` surface); when the
/// request asked for a trace, spans are additionally captured in a
/// per-request buffer rendered into the response.
struct RequestTelemetry<'a> {
    registry: &'a Registry,
    deterministic: bool,
    epoch: Instant,
    trace: Option<Mutex<Vec<(String, u64, u64)>>>,
}

impl<'a> RequestTelemetry<'a> {
    fn new(registry: &'a Registry, deterministic: bool, trace: bool) -> RequestTelemetry<'a> {
        RequestTelemetry {
            registry,
            deterministic,
            epoch: Instant::now(),
            trace: trace.then(|| Mutex::new(Vec::new())),
        }
    }

    /// The captured trace as Chrome trace events (complete `"X"` events
    /// in microseconds, the format Perfetto loads directly).  Sorted
    /// into a deterministic order when timestamps are zeroed.
    fn trace_json(&self) -> Option<Json> {
        let buf = self.trace.as_ref()?;
        let mut spans = buf.lock().expect("trace poisoned").clone();
        if self.deterministic {
            spans.sort();
        } else {
            spans.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        }
        let events = spans
            .into_iter()
            .map(|(name, start_ns, dur_ns)| {
                Json::obj(vec![
                    ("name", name.to_json()),
                    ("cat", "serve".to_json()),
                    ("ph", "X".to_json()),
                    ("ts", (start_ns / 1000).to_json()),
                    ("dur", (dur_ns / 1000).to_json()),
                    ("pid", 1u64.to_json()),
                    ("tid", 0u64.to_json()),
                ])
            })
            .collect();
        Some(Json::Array(events))
    }
}

impl Telemetry for RequestTelemetry<'_> {
    fn enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn deterministic(&self) -> bool {
        self.deterministic
    }

    fn now_ns(&self) -> u64 {
        if self.deterministic {
            0
        } else {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    fn record_span(&self, _cat: &'static str, name: String, start_ns: u64, dur_ns: u64) {
        if let Some(buf) = &self.trace {
            buf.lock()
                .expect("trace poisoned")
                .push((name, start_ns, dur_ns));
        }
    }

    fn record_span_host(&self, cat: &'static str, name: String, start_ns: u64, dur_ns: u64) {
        if !self.deterministic {
            self.record_span(cat, name, start_ns, dur_ns);
        }
    }

    fn counter(&self, name: &str, delta: u64) {
        self.registry.counter(name, delta);
    }

    fn gauge_host(&self, name: &str, value: i64) {
        if !self.deterministic {
            self.registry.gauge(name, value);
        }
    }

    fn observe(&self, name: &str, value: u64) {
        let v = if self.deterministic { 0 } else { value };
        self.registry.observe(name, v);
    }

    fn observe_host(&self, name: &str, value: u64) {
        if !self.deterministic {
            self.registry.observe(name, value);
        }
    }
}

/// A queued connection, stamped with its enqueue time for the
/// queue-wait histogram.
struct Conn {
    stream: TcpStream,
    enqueued: Instant,
}

struct Queue {
    inner: Mutex<VecDeque<Conn>>,
    ready: Condvar,
}

/// Everything the workers share.
struct ServerState {
    config: ServeConfig,
    cache: ArtifactCache,
    store: Option<DiskStore>,
    registry: Registry,
    queue: Queue,
    shutdown: AtomicBool,
}

impl ServerState {
    fn tel(&self, trace: bool) -> RequestTelemetry<'_> {
        RequestTelemetry::new(&self.registry, self.config.deterministic, trace)
    }

    fn metrics_json(&self) -> Json {
        let counters = self
            .registry
            .counters()
            .into_iter()
            .map(|(name, v)| Json::obj(vec![("name", name.to_json()), ("value", v.to_json())]))
            .collect();
        let gauges = self
            .registry
            .gauges()
            .into_iter()
            .map(|(name, v)| Json::obj(vec![("name", name.to_json()), ("value", v.to_json())]))
            .collect();
        let histograms = self
            .registry
            .histograms()
            .into_iter()
            .map(|(name, h)| {
                Json::obj(vec![
                    ("name", name.to_json()),
                    ("count", h.count.to_json()),
                    ("mean", h.mean.to_json()),
                    ("min", h.min.to_json()),
                    ("max", h.max.to_json()),
                    ("p50", h.p50.to_json()),
                    ("p90", h.p90.to_json()),
                    ("p99", h.p99.to_json()),
                ])
            })
            .collect();
        let store = self.store.as_ref().map(|s| {
            let st = s.stats();
            Json::obj(vec![
                ("hits", st.hits.to_json()),
                ("misses", st.misses.to_json()),
                ("errors", st.errors.to_json()),
                ("writes", st.writes.to_json()),
                ("evictions", st.evictions.to_json()),
            ])
        });
        let cache = self.cache.stats();
        Json::obj(vec![
            ("deterministic", self.config.deterministic.to_json()),
            ("counters", Json::Array(counters)),
            ("gauges", Json::Array(gauges)),
            ("histograms", Json::Array(histograms)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", cache.hits.to_json()),
                    ("misses", cache.misses.to_json()),
                ]),
            ),
            ("store", store.to_json()),
        ])
    }
}

/// A running server: join handles plus the bound address.  Dropping the
/// handle without [`ServeHandle::shutdown`] leaves the threads running
/// (the CLI case — the process owns them until killed).
pub struct ServeHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Wake every parked worker; they re-check the flag.
        self.state.queue.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Binds the listener and spawns the acceptor and worker threads.
///
/// # Errors
///
/// A human-readable message when the address can't be bound or the
/// store root can't be opened.
pub fn serve(config: ServeConfig) -> Result<ServeHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let store = match &config.store {
        None => None,
        Some(root) => Some(
            DiskStore::open_with_limit(root, config.store_max_bytes)
                .map_err(|e| format!("cannot open artifact store: {e}"))?,
        ),
    };
    let jobs = config.jobs.max(1);
    let state = Arc::new(ServerState {
        config,
        cache: ArtifactCache::new(),
        store,
        registry: Registry::new(),
        queue: Queue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        },
        shutdown: AtomicBool::new(false),
    });
    let workers = (0..jobs)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || worker_loop(&state))
        })
        .collect();
    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || accept_loop(&listener, &state))
    };
    Ok(ServeHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, state: &ServerState) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        // Every response goes out as two writes (head, then body).  With
        // Nagle on, the body waits for the head's ACK, which a client
        // that sent nothing more delays by up to 40 ms.
        let _ = stream.set_nodelay(true);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut q = state.queue.inner.lock().expect("queue poisoned");
        if q.len() >= state.config.queue_depth {
            drop(q);
            state.registry.counter(names::SERVE_REJECTED_QUEUE, 1);
            state
                .registry
                .counter(&format!("{}{}", names::SERVE_RESPONSES_PREFIX, 503), 1);
            let body = Json::obj(vec![
                ("error", "admission queue full".to_json()),
                ("kind", "queue_full".to_json()),
            ]);
            let mut stream = stream;
            let _ = Response::json(503, body.pretty())
                .with_header("Retry-After", "1")
                .write_to(&mut stream, true);
            continue;
        }
        if !state.config.deterministic {
            state
                .registry
                .gauge(names::SERVE_QUEUE_DEPTH, (q.len() + 1) as i64);
        }
        q.push_back(Conn {
            stream,
            enqueued: Instant::now(),
        });
        drop(q);
        state.queue.ready.notify_one();
    }
}

fn worker_loop(state: &ServerState) {
    loop {
        let conn = {
            let mut q = state.queue.inner.lock().expect("queue poisoned");
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = state.queue.ready.wait(q).expect("queue poisoned");
            }
        };
        if !state.config.deterministic {
            state.registry.observe(
                names::SERVE_QUEUE_WAIT_NS,
                conn.enqueued.elapsed().as_nanos() as u64,
            );
        }
        handle_connection(state, conn.stream);
    }
}

/// Runs the keep-alive request loop on one connection.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    // A stalled client (connected but silent, or dribbling a partial
    // request) must not pin this worker forever: every read waits at
    // most the configured timeout, after which the connection is
    // dropped without a response (nobody is reading one).
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(
        state.config.read_timeout_ms.max(1),
    )));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    loop {
        let req = match read_request(&mut reader) {
            Ok(r) => r,
            Err(HttpError::Closed) => return,
            Err(HttpError::Timeout) => {
                state.registry.counter(names::SERVE_READ_TIMEOUTS, 1);
                return;
            }
            Err(e) => {
                let status = match e {
                    HttpError::BodyTooLarge(_) | HttpError::HeadTooLarge => 413,
                    _ => 400,
                };
                let body = Json::obj(vec![
                    ("error", e.to_string().to_json()),
                    ("kind", "http".to_json()),
                ]);
                count_response(state, status);
                let _ = Response::json(status, body.pretty()).write_to(&mut stream, true);
                return;
            }
        };
        let close = req.wants_close();
        let started = Instant::now();
        let resp = route(state, &req);
        if !state.config.deterministic {
            state
                .registry
                .observe(names::SERVE_REQUEST_NS, started.elapsed().as_nanos() as u64);
        }
        count_response(state, resp.status);
        if resp.write_to(&mut stream, close).is_err() || close {
            return;
        }
    }
}

fn count_response(state: &ServerState, status: u16) {
    state
        .registry
        .counter(&format!("{}{}", names::SERVE_RESPONSES_PREFIX, status), 1);
}

fn count_request(state: &ServerState, endpoint: &str) {
    state
        .registry
        .counter(&format!("{}{}", names::SERVE_REQUESTS_PREFIX, endpoint), 1);
}

fn route(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => {
            count_request(state, "healthz");
            Response::json(200, Json::obj(vec![("status", "ok".to_json())]).pretty())
        }
        ("GET", "/metrics") => {
            count_request(state, "metrics");
            Response::json(200, state.metrics_json().pretty())
        }
        ("POST", "/run") => {
            count_request(state, "run");
            simulate(state, &req.body, true)
        }
        ("POST", "/compile") => {
            count_request(state, "compile");
            simulate(state, &req.body, false)
        }
        ("GET", "/run" | "/compile") | ("POST", "/healthz" | "/metrics") => Response::json(
            405,
            Json::obj(vec![
                ("error", "method not allowed".to_json()),
                ("kind", "http".to_json()),
            ])
            .pretty(),
        ),
        _ => Response::json(
            404,
            Json::obj(vec![
                (
                    "error",
                    format!("no such endpoint: {}", req.target).to_json(),
                ),
                ("kind", "http".to_json()),
            ])
            .pretty(),
        ),
    }
}

fn simulate(state: &ServerState, body: &[u8], run: bool) -> Response {
    let sim = match SimRequest::from_body(body) {
        Ok(s) => s,
        Err(e) => return error_response(state, e),
    };
    let tel = state.tel(sim.trace);
    let result = if run {
        api::handle_run(
            &sim,
            &state.cache,
            state.store.as_ref(),
            state.config.cycle_budget,
            state.config.jobs,
            &tel,
        )
    } else {
        api::handle_compile(
            &sim,
            &state.cache,
            state.store.as_ref(),
            state.config.jobs,
            &tel,
        )
    };
    match result {
        Ok(mut out) => {
            if let (Some(trace), Json::Object(fields)) = (tel.trace_json(), &mut out) {
                fields.push(("trace".to_string(), trace));
            }
            Response::json(200, out.pretty())
        }
        Err(e) => error_response(state, e),
    }
}

fn error_response(state: &ServerState, e: ApiError) -> Response {
    if matches!(e, ApiError::OverBudget(_)) {
        state.registry.counter(names::SERVE_REJECTED_BUDGET, 1);
    }
    let resp = Response::json(e.status(), e.body().pretty());
    if e.status() == 503 {
        resp.with_header("Retry-After", "1")
    } else {
        resp
    }
}

/// Renders a human-readable `/metrics` summary line for logs: request
/// counts plus the p50/p90/p99 of the end-to-end latency histogram.
pub fn metrics_summary(metrics: &Json) -> String {
    let mut out = String::new();
    if let Some(counters) = metrics.get("counters").and_then(|c| c.as_array()) {
        for c in counters {
            if let (Some(name), Some(v)) = (
                c.get("name").and_then(|n| n.as_str()),
                c.get("value").and_then(|v| v.as_i64()),
            ) {
                out.push_str(&format!("{name} = {v}\n"));
            }
        }
    }
    if let Some(hists) = metrics.get("histograms").and_then(|h| h.as_array()) {
        for h in hists {
            let name = h.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            let get = |k: &str| h.get(k).and_then(|v| v.as_i64()).unwrap_or(0);
            out.push_str(&format!(
                "{name}: count={} p50={}s p90={}s p99={}s\n",
                get("count"),
                ns_to_rounded_s(get("p50") as u64),
                ns_to_rounded_s(get("p90") as u64),
                ns_to_rounded_s(get("p99") as u64),
            ));
        }
    }
    out
}
