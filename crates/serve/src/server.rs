//! The batch simulation server.
//!
//! Hand-rolled HTTP/1.1 over `std::net` plus two [`WorkQueue`] pools —
//! no async runtime, matching the repo's no-heavy-deps style:
//!
//! * a small **connection pool** accepts sockets and runs the per-request
//!   state machine (parse → validate → stream);
//! * the **simulation pool** (sized like the evaluation work queue,
//!   `TTA_EVAL_THREADS`-overridable) drains `(machine × kernel)` jobs
//!   from *all* in-flight batches, so one large batch saturates every
//!   core and two concurrent batches interleave instead of queueing
//!   head-to-tail.
//!
//! Compilation goes through the process-wide sharded compile cache
//! ([`tta_explore::cache`]): a 1000-job batch over 104 distinct pairs
//! compiles each pair once and simulates the rest from cache. Per-job
//! results stream back as NDJSON the moment they complete (completion
//! order, client-indexed), followed by one summary line; the whole
//! response rides `Connection: close` framing.
//!
//! # Telemetry
//!
//! Every request carries a **trace ID** — the client's `x-trace-id`
//! header when present (sanitised), a generated one otherwise — stamped
//! on the request log line, every NDJSON job/summary line, every error
//! body, and every flight-recorder event, so one grep correlates a
//! request across all four. Both worker pools publish queue-depth and
//! in-flight gauges plus a queue-wait histogram; per-job service time and
//! per-batch wall time land in histograms too. `GET /v1/metrics` renders
//! all of it in Prometheus text format, `GET /healthz` summarises the
//! live values, and `GET /v1/debug/flight` serves the flight recorder's
//! recent request/job/shutdown events (also dumped to stderr on panic or
//! batch timeout).

use std::collections::HashMap;
use std::io::{self, BufWriter, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tta_explore::eval::{self, PreparedKernel};
use tta_explore::queue::{QueueMetrics, WorkQueue};
use tta_model::{presets, Machine};
use tta_obs as obs;
use tta_obs::json::Json;
use tta_obs::ndjson;

use crate::schema::{self, ApiError, BatchRequest, ErrorCode, OBS_VERSION};

/// Server tunables. `Default` gives the production shape; tests shrink
/// the limits to exercise the error paths.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Simulation worker threads; `0` sizes like the evaluation pipeline
    /// (every available core, `TTA_EVAL_THREADS` override).
    pub sim_threads: usize,
    /// Connection handler threads (each streams one response at a time).
    pub conn_threads: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Largest accepted per-batch job count.
    pub max_jobs: usize,
    /// Deadline for one batch, milliseconds: the default when the client
    /// sends no `timeout_ms`, and the cap when it does.
    pub max_timeout_ms: u64,
    /// Socket read/write timeout, milliseconds.
    pub io_timeout_ms: u64,
    /// Scrape-time cardinality budget for the per-kernel latency series
    /// on `/v1/metrics`: at most this many kernels get their own
    /// `kernel="..."` label, the rest fold into `kernel="_other"`.
    pub kernel_series_budget: usize,
}

impl ServerConfig {
    fn io_timeout(&self) -> Duration {
        Duration::from_millis(self.io_timeout_ms.max(1))
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            sim_threads: 0,
            conn_threads: 4,
            max_body_bytes: 1 << 20,
            max_jobs: 10_000,
            max_timeout_ms: 60_000,
            io_timeout_ms: 10_000,
            kernel_series_budget: crate::metrics::DEFAULT_KERNEL_SERIES_BUDGET,
        }
    }
}

/// State shared between the accept loop and the connection handlers.
struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    sim: WorkQueue,
    conns: WorkQueue,
}

impl Shared {
    /// Flag shutdown and poke the accept loop awake with a throwaway
    /// connection so it re-checks the flag.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            obs::flight::record("shutdown.request", "", format!("addr {}", self.addr));
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running batch server. Spawn with [`Server::spawn`]; stop gracefully
/// with [`Server::shutdown`] (or `POST /v1/shutdown` + [`Server::wait`]) —
/// both drain in-flight connections and simulation jobs before returning.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start the accept loop plus worker pools.
    pub fn spawn(cfg: ServerConfig) -> io::Result<Server> {
        install_panic_hook();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let sim_threads = match cfg.sim_threads {
            0 => eval::eval_threads(usize::MAX),
            n => n,
        };
        let shared = Arc::new(Shared {
            sim: WorkQueue::new_with_metrics(
                sim_threads,
                "tta-serve-sim",
                obs::SpanHandle::ROOT,
                Some(QueueMetrics {
                    depth_gauge: "serve.sim.queue_depth",
                    in_flight_gauge: "serve.sim.in_flight",
                    wait_hist: "serve.sim.queue_wait_us",
                }),
            ),
            conns: WorkQueue::new_with_metrics(
                cfg.conn_threads,
                "tta-serve-conn",
                obs::SpanHandle::ROOT,
                Some(QueueMetrics {
                    depth_gauge: "serve.conn.queue_depth",
                    in_flight_gauge: "serve.conn.in_flight",
                    wait_hist: "serve.conn.queue_wait_us",
                }),
            ),
            cfg,
            addr,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("tta-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_shared = Arc::clone(&accept_shared);
                    if accept_shared
                        .conns
                        .submit(Box::new(move || handle_conn(conn_shared, stream)))
                        .is_err()
                    {
                        break;
                    }
                }
            })?;
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Simulation worker threads in the pool.
    pub fn sim_threads(&self) -> usize {
        self.shared.sim.threads()
    }

    /// Ask the server to stop accepting new connections (non-blocking;
    /// also reachable over the wire as `POST /v1/shutdown`).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until a shutdown request arrives (API or wire), then drain
    /// connections and simulation jobs and join every thread.
    pub fn wait(mut self) {
        self.join();
    }

    /// Graceful stop: request shutdown, then drain and join everything.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connections first (they feed the sim queue), then the sims.
        self.shared.conns.shutdown();
        self.shared.sim.shutdown();
        obs::flight::record("shutdown.done", "", format!("addr {}", self.shared.addr));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.request_shutdown();
            self.join();
        }
    }
}

/// Kernel preparation (IR build + golden interpreter run) memoised
/// process-wide: the catalogue is small and immutable, so every server
/// instance and every batch shares one prepared form per kernel.
fn prepared_kernel(name: &str) -> Option<Arc<PreparedKernel>> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<PreparedKernel>>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    // The map holds only complete entries (insertion is the last step),
    // so a lock poisoned by a panicking job thread is still safe to read
    // through — clearing the memo on poison would punish every later
    // request with a re-prepare instead.
    if let Some(p) = memo.lock().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Some(Arc::clone(p));
    }
    let kernel = tta_chstone::by_name(name)?;
    // Prepare outside the lock; a racing request prepares the same
    // content and last-write-wins.
    let p = Arc::new(eval::prepare_kernel(&kernel));
    memo.lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.to_string(), Arc::clone(&p));
    Some(p)
}

/// Dump the flight recorder on any unhandled panic, then run the
/// previously-installed hook. Installed once per process, the first time
/// a server spawns.
fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            obs::flight::dump("panic");
            prev(info);
        }));
    });
}

/// Keep a client-supplied `x-trace-id` only if it is non-empty, at most
/// 64 characters, and entirely `[A-Za-z0-9._-]` — anything else is
/// discarded (a fresh ID is generated) so trace IDs are always safe to
/// echo into logs, JSON, and metrics labels.
fn sanitize_trace(raw: &str) -> Option<String> {
    let raw = raw.trim();
    let ok = !raw.is_empty()
        && raw.len() <= 64
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    ok.then(|| raw.to_string())
}

/// A process-unique trace ID for requests that did not bring their own:
/// a per-process random-ish seed (start time) plus a monotonic counter.
fn fresh_trace_id() -> String {
    use std::sync::atomic::AtomicU64;
    static SEED: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("t-{:08x}-{n}", (seed ^ (seed >> 32)) as u32)
}

struct HttpRequest {
    method: String,
    path: String,
    body: String,
    /// Sanitised `x-trace-id` header, if the client sent a usable one.
    trace: Option<String>,
}

/// Read and frame one HTTP request (request line, headers,
/// `Content-Length` body). The body-size limit is enforced on the
/// declared length *before* the body is read, so an oversized upload is
/// rejected without buffering it. Only `Content-Length` framing is
/// spoken: a `Transfer-Encoding` header or a second `Content-Length` is a
/// 400, never a guess at where the body ends.
fn read_request(stream: &mut TcpStream, cfg: &ServerConfig) -> Result<HttpRequest, ApiError> {
    const MAX_HEADER: usize = 16 * 1024;
    let bad = |m: String| ApiError::new(ErrorCode::BadRequest, m);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEADER {
            return Err(ApiError::new(
                ErrorCode::Oversized,
                format!("headers exceed {MAX_HEADER} bytes"),
            ));
        }
        let n = stream
            .read(&mut tmp)
            .map_err(|e| bad(format!("read: {e}")))?;
        if n == 0 {
            return Err(bad("connection closed mid-request".into()));
        }
        buf.extend_from_slice(&tmp[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("headers are not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let path = request_line.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(bad("malformed request line".into()));
    }
    let mut content_length = None;
    let mut trace = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                if content_length.is_some() {
                    return Err(bad("duplicate Content-Length".into()));
                }
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length".into()))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(bad(
                    "Transfer-Encoding is not supported; send a Content-Length body".into(),
                ));
            } else if name.eq_ignore_ascii_case("x-trace-id") {
                trace = sanitize_trace(value);
            }
        }
    }
    let content_length: usize = content_length.unwrap_or(0);
    if content_length > cfg.max_body_bytes {
        return Err(ApiError::new(
            ErrorCode::Oversized,
            format!(
                "{content_length} byte body exceeds the {} byte limit",
                cfg.max_body_bytes
            ),
        ));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut tmp)
            .map_err(|e| bad(format!("read body: {e}")))?;
        if n == 0 {
            return Err(bad("connection closed mid-body".into()));
        }
        body.extend_from_slice(&tmp[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| ApiError::new(ErrorCode::MalformedJson, "body is not UTF-8"))?;
    Ok(HttpRequest {
        method,
        path,
        body,
        trace,
    })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// One-shot JSON response with explicit length framing.
fn write_json(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    let text = body.to_pretty();
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
        reason(status),
        text.len(),
    )?;
    stream.flush()
}

/// One-shot plain-text response (the `/v1/metrics` exposition document).
fn write_text(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    text: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
        reason(status),
        text.len(),
    )?;
    stream.flush()
}

/// Write a whole-request error (traced body), bump the aggregate and
/// per-class error counters, leave a flight event behind, and wind the
/// connection down with [`drain_and_close`].
fn write_error(stream: &mut TcpStream, e: &ApiError, trace: &str, io_timeout: Duration) {
    obs::counter::add("serve.errors", 1);
    obs::counter::add(e.code.counter_name(), 1);
    obs::flight::record(
        "req.reject",
        trace,
        format!("{}: {}", e.code.as_str(), e.message),
    );
    let _ = write_json(stream, e.code.http_status(), &e.to_body_traced(trace));
    drain_and_close(stream, io_timeout);
}

/// Most request bytes [`drain_and_close`] reads and discards.
const DRAIN_LIMIT: usize = 1 << 20;

/// Finish a response that may have left request bytes unread (an error
/// can be sent before the body is read): half-close the write side, then
/// read and discard until the client closes, [`DRAIN_LIMIT`] bytes or
/// `io_timeout`. Closing a socket with unread input makes the kernel
/// send a TCP RST, which can destroy the response before the client has
/// read it.
fn drain_and_close(stream: &mut TcpStream, io_timeout: Duration) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + io_timeout;
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_LIMIT {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// The per-route request counter (`serve.requests.<route>`); static so
/// the counter registry can intern it. Unknown paths share one bucket.
fn route_counter(path: &str) -> &'static str {
    match path {
        "/v1/batch" => "serve.requests.batch",
        "/healthz" => "serve.requests.healthz",
        "/v1/metrics" => "serve.requests.metrics",
        "/v1/debug/flight" => "serve.requests.flight",
        "/v1/shutdown" => "serve.requests.shutdown",
        _ => "serve.requests.other",
    }
}

/// The `/healthz` body: liveness plus live queue/cache/telemetry state.
fn healthz_body(shared: &Shared) -> Json {
    let c = |name: &str| obs::counter::get(name).unwrap_or(0) as f64;
    Json::Obj(vec![
        ("obs_version".into(), Json::Num(OBS_VERSION as f64)),
        ("ok".into(), Json::Bool(true)),
        ("sim_threads".into(), Json::Num(shared.sim.threads() as f64)),
        ("queue_depth".into(), Json::Num(shared.sim.depth() as f64)),
        ("in_flight".into(), Json::Num(shared.sim.in_flight() as f64)),
        (
            "conn_queue_depth".into(),
            Json::Num(shared.conns.depth() as f64),
        ),
        (
            "conn_in_flight".into(),
            Json::Num(shared.conns.in_flight() as f64),
        ),
        (
            "cache_entries".into(),
            Json::Num(tta_explore::cache::global().len() as f64),
        ),
        ("cache_hits".into(), Json::Num(c("eval.compile_cache.hits"))),
        (
            "cache_misses".into(),
            Json::Num(c("eval.compile_cache.misses")),
        ),
        ("dropped".into(), obs::report::dropped_json()),
    ])
}

/// Dispatch one accepted connection.
fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream) {
    let _span = obs::span("serve.request");
    let io_timeout = shared.cfg.io_timeout();
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let _ = stream.set_nodelay(true);
    obs::counter::add("serve.requests", 1);
    let req = match read_request(&mut stream, &shared.cfg) {
        Ok(r) => r,
        Err(e) => {
            // The request never parsed far enough to carry a trace ID;
            // generate one so the error body and log line still correlate.
            let trace = fresh_trace_id();
            obs::counter::add("serve.requests.invalid", 1);
            eprintln!("tta-serve: [{trace}] <unreadable request>: {}", e.message);
            return write_error(&mut stream, &e, &trace, io_timeout);
        }
    };
    let trace = req.trace.clone().unwrap_or_else(fresh_trace_id);
    obs::counter::add(route_counter(&req.path), 1);
    obs::flight::record("req.start", &trace, format!("{} {}", req.method, req.path));
    eprintln!("tta-serve: [{trace}] {} {}", req.method, req.path);
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/batch") => {
            let _ = handle_batch(&shared, stream, &req.body, &trace);
        }
        ("GET", "/healthz") => {
            let _ = write_json(&mut stream, 200, &healthz_body(&shared));
        }
        ("GET", "/v1/metrics") => {
            // Re-publish so an idle queue still scrapes fresh gauges.
            shared.sim.publish_gauges();
            shared.conns.publish_gauges();
            obs::counter::set_gauge(
                "serve.cache.entries",
                tta_explore::cache::global().len() as i64,
            );
            let mut text = obs::prom::render();
            text.push_str(&crate::metrics::kernel_exposition(
                shared.cfg.kernel_series_budget,
            ));
            let _ = write_text(&mut stream, 200, "text/plain; version=0.0.4", &text);
        }
        ("GET", "/v1/debug/flight") => {
            let mut fields = vec![("obs_version".into(), Json::Num(OBS_VERSION as f64))];
            match obs::flight::to_json() {
                Json::Obj(inner) => fields.extend(inner),
                other => fields.push(("flight".into(), other)),
            }
            let _ = write_json(&mut stream, 200, &Json::Obj(fields));
        }
        ("POST", "/v1/shutdown") => {
            let body = Json::Obj(vec![
                ("obs_version".into(), Json::Num(OBS_VERSION as f64)),
                ("trace_id".into(), Json::Str(trace.clone())),
                ("ok".into(), Json::Bool(true)),
                ("shutting_down".into(), Json::Bool(true)),
            ]);
            let _ = write_json(&mut stream, 200, &body);
            shared.request_shutdown();
        }
        (_, "/v1/batch" | "/healthz" | "/v1/metrics" | "/v1/debug/flight" | "/v1/shutdown") => {
            write_error(
                &mut stream,
                &ApiError::new(
                    ErrorCode::BadMethod,
                    format!("{} is not valid for {}", req.method, req.path),
                ),
                &trace,
                io_timeout,
            )
        }
        _ => write_error(
            &mut stream,
            &ApiError::new(ErrorCode::NotFound, format!("no route for {}", req.path)),
            &trace,
            io_timeout,
        ),
    }
    obs::flight::record("req.end", &trace, format!("{} {}", req.method, req.path));
}

/// One per-job success line.
fn job_ok_line(job: usize, trace: &str, machine: &str, run: &tta_explore::KernelRun) -> Json {
    Json::Obj(vec![
        ("obs_version".into(), Json::Num(OBS_VERSION as f64)),
        ("trace_id".into(), Json::Str(trace.into())),
        ("job".into(), Json::Num(job as f64)),
        ("ok".into(), Json::Bool(true)),
        ("report".into(), eval::job_report_json(machine, run)),
    ])
}

/// One per-job failure line (internal panic or deadline expiry).
fn job_error_line(job: usize, trace: &str, e: &ApiError) -> Json {
    Json::Obj(vec![
        ("obs_version".into(), Json::Num(OBS_VERSION as f64)),
        ("trace_id".into(), Json::Str(trace.into())),
        ("job".into(), Json::Num(job as f64)),
        ("ok".into(), Json::Bool(false)),
        ("error".into(), e.to_json()),
    ])
}

/// Run one job on a simulation worker, catching toolchain panics so a
/// bug in one job degrades to a structured error line instead of
/// poisoning the whole batch. Service time (the run itself, not queue
/// wait) lands in the `serve.job.service_us` histogram.
fn run_job(job: usize, trace: &str, machine: &Machine, p: &PreparedKernel) -> (Json, bool) {
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eval::run_prepared(p, machine)
    }));
    let service_us = started.elapsed().as_micros() as u64;
    obs::hist::record("serve.job.service_us", service_us);
    crate::metrics::record_kernel_service(p.name, service_us);
    match outcome {
        Ok(run) => {
            obs::counter::add("serve.jobs.ok", 1);
            obs::flight::record("job.done", trace, format!("job {job} ({})", machine.name));
            (job_ok_line(job, trace, &machine.name, &run), true)
        }
        Err(panic) => {
            obs::counter::add("serve.jobs.internal_error", 1);
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            obs::flight::record("job.panic", trace, format!("job {job}: {msg}"));
            let e = ApiError::new(ErrorCode::Internal, format!("job panicked: {msg}"));
            (job_error_line(job, trace, &e), false)
        }
    }
}

/// Validate a batch, fan its jobs out over the simulation pool, and
/// stream one NDJSON line per completed job plus a final summary line —
/// every line stamped with the request's trace ID.
fn handle_batch(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    body: &str,
    trace: &str,
) -> io::Result<()> {
    let start = Instant::now();
    let io_timeout = shared.cfg.io_timeout();
    let req: BatchRequest = match schema::parse_batch(body, shared.cfg.max_jobs) {
        Ok(r) => r,
        Err(e) => {
            write_error(&mut stream, &e, trace, io_timeout);
            return Ok(());
        }
    };
    // Resolve every job name before the first byte of the stream, so
    // catalogue errors are whole-request 400s, not mid-stream surprises.
    let mut machines: HashMap<&str, Machine> = HashMap::new();
    let mut resolved: Vec<(Machine, Arc<PreparedKernel>)> = Vec::with_capacity(req.jobs.len());
    for (i, spec) in req.jobs.iter().enumerate() {
        if !machines.contains_key(spec.machine.as_str()) {
            match presets::by_name(&spec.machine) {
                Some(m) => {
                    machines.insert(spec.machine.as_str(), m);
                }
                None => {
                    write_error(
                        &mut stream,
                        &ApiError::new(
                            ErrorCode::UnknownMachine,
                            format!("jobs[{i}]: unknown machine \"{}\"", spec.machine),
                        ),
                        trace,
                        io_timeout,
                    );
                    return Ok(());
                }
            }
        }
        let Some(prepared) = prepared_kernel(&spec.kernel) else {
            write_error(
                &mut stream,
                &ApiError::new(
                    ErrorCode::UnknownKernel,
                    format!("jobs[{i}]: unknown kernel \"{}\"", spec.kernel),
                ),
                trace,
                io_timeout,
            );
            return Ok(());
        };
        resolved.push((machines[spec.machine.as_str()].clone(), prepared));
    }
    obs::counter::add("serve.batches", 1);

    let n = resolved.len();
    let timeout = Duration::from_millis(
        req.timeout_ms
            .unwrap_or(shared.cfg.max_timeout_ms)
            .min(shared.cfg.max_timeout_ms),
    );
    obs::flight::record(
        "batch.start",
        trace,
        format!("{n} jobs, timeout {} ms", timeout.as_millis()),
    );
    let deadline = start + timeout;
    let (tx, rx) = mpsc::channel::<(usize, Json, bool)>();
    for (i, (machine, prepared)) in resolved.into_iter().enumerate() {
        let tx = tx.clone();
        let job_trace = trace.to_string();
        obs::flight::record(
            "job.dispatch",
            trace,
            format!("job {i} ({} × {})", machine.name, req.jobs[i].kernel),
        );
        let submit = shared.sim.submit(Box::new(move || {
            let (line, ok) = run_job(i, &job_trace, &machine, &prepared);
            let _ = tx.send((i, line, ok));
        }));
        if submit.is_err() {
            // Shutting down: unsubmitted jobs surface as timeout lines.
            break;
        }
    }
    drop(tx);

    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    let mut writer = ndjson::Writer::new(BufWriter::new(stream));
    let mut done = vec![false; n];
    let (mut ok_count, mut err_count) = (0u64, 0u64);
    let mut received = 0usize;
    while received < n {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok((i, line, ok)) => {
                writer.write(&line)?;
                done[i] = true;
                received += 1;
                if ok {
                    ok_count += 1;
                } else {
                    err_count += 1;
                }
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let timed_out = received < n;
    for (i, d) in done.iter().enumerate() {
        if !d {
            obs::counter::add("serve.jobs.timeout", 1);
            obs::counter::add(ErrorCode::Timeout.counter_name(), 1);
            obs::flight::record("job.timeout", trace, format!("job {i} missed the deadline"));
            let e = ApiError::new(
                ErrorCode::Timeout,
                "batch deadline expired before this job completed",
            );
            writer.write(&job_error_line(i, trace, &e))?;
            err_count += 1;
        }
    }
    if timed_out {
        // The black-box readout: what the server was doing when the
        // deadline expired, on stderr next to the request log.
        obs::flight::dump(&format!("batch timeout, trace {trace}"));
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    obs::hist::record("serve.request.batch_us", start.elapsed().as_micros() as u64);
    writer.write(&Json::Obj(vec![
        ("obs_version".into(), Json::Num(OBS_VERSION as f64)),
        ("trace_id".into(), Json::Str(trace.into())),
        ("summary".into(), Json::Bool(true)),
        ("jobs".into(), Json::Num(n as f64)),
        ("ok".into(), Json::Num(ok_count as f64)),
        ("errors".into(), Json::Num(err_count as f64)),
        ("timed_out".into(), Json::Bool(timed_out)),
        ("wall_ms".into(), Json::Num((wall_ms * 1e3).round() / 1e3)),
    ]))?;
    Ok(())
}
