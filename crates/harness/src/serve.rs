//! `spechpc serve` — the simulation-as-a-service daemon, and the one
//! HTTP server of the crate.
//!
//! A dependency-free HTTP/1.1 server hand-rolled over
//! [`std::net::TcpListener`] (the same way [`faultcfg`](crate::faultcfg)
//! hand-rolls TOML and [`json`](crate::json) hand-rolls JSON), keeping
//! one [`Executor`] + run cache + metrics ledger resident across
//! requests so the parameter-sweep workloads of the paper's methodology
//! amortize their warm-up instead of re-opening the cache per
//! invocation.
//!
//! The connection plane is a **nonblocking event loop** over the
//! raw-syscall readiness binding in [`epoll`](crate::epoll): one loop
//! thread owns every socket, parses requests incrementally from a slab
//! of per-connection state machines, and dispatches the slow routes into
//! a resident worker pool. Keep-alive and pipelining are supported, so
//! thousands of idle clients cost a slab slot each rather than a thread
//! each.
//!
//! **One loop, two roles.** The loop serves either a worker daemon
//! ([`Server::bind`], which owns an [`Executor`]) or the [`fleet`]
//! coordinator, which owns a worker registry and a hash ring. The role
//! decides two things only: which routes go to the pool (the registry's
//! [`ServeClass`] for a daemon, its [`FleetClass`] for a coordinator),
//! and what the handlers do. Framing, limits, deadlines, admission and
//! drain are the same code for both.
//!
//! Routes (all bodies JSON; the authoritative table is
//! [`api::ENDPOINTS`], which this module dispatches through —
//! `GET /v1/capabilities` serves it on the wire):
//!
//! | route                   | meaning                                     |
//! |-------------------------|---------------------------------------------|
//! | `POST /v1/run`          | one [`RunRequest`] → [`RunResponse`](crate::api::RunResponse) |
//! | `POST /v1/suite`        | one [`SuiteRequest`] → suite report         |
//! | `POST /v1/plan`         | one [`PlanRequest`] → capacity-planner verdict |
//! | `GET /v1/profile/{b}`   | MPI profile tables for one cached run       |
//! | `GET /v1/cache/{hash}`  | raw cache entry by [`RunKey`](crate::cache::RunKey) hash (fleet peer fetch) |
//! | `GET /v1/metrics`       | resident executor/cache counters            |
//! | `GET /v1/health`        | liveness, in-flight + open-connection gauges |
//! | `GET /v1/capabilities`  | route table + schema version                |
//! | `POST /v1/shutdown`     | begin graceful drain                        |
//!
//! Production shape:
//!
//! * **admission control** — a bounded dispatch queue plus an in-flight
//!   cap on the simulating routes; both answer `429` with `Retry-After`
//!   when saturated, and a `--max-conns` cap answers `503` at accept
//!   time. Fast routes (health/metrics) are served inline on the loop
//!   thread so clients can watch the backlog even under saturation;
//! * **deadlines** — a connection that dribbles an incomplete request
//!   past the read deadline is answered `408` and reaped (slow-loris
//!   defence); idle keep-alive connections are closed after the idle
//!   timeout; oversized header blocks are refused with `431`;
//! * **per-request supervision** — handler panics are caught at the
//!   dispatch boundary, and simulations inherit the resident
//!   executor's cooperative-cancel timeout;
//! * **byte-identical replays** — responses carry no timestamps and the
//!   run payload reuses the cache encoding, so a repeated identical
//!   `POST /v1/run` answers from memory in microseconds with the same
//!   bytes (`encode_response` is the one place framing is pinned);
//! * **graceful shutdown** — SIGTERM or `POST /v1/shutdown` stops
//!   accepting, drains queued and in-flight work, flushes the metrics
//!   CSV, and [`Server::serve`] returns `Ok` (exit 0).
//!
//! `docs/SERVICE.md` is the operations guide for this module.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    self, dispatch_run, dispatch_suite, parse_class, ApiError, Endpoint, EndpointId, FleetClass,
    RunRequest, ServeClass, SuiteRequest,
};
use crate::exec::Executor;
use crate::fleet::{self, FleetCtx};
use crate::json::Json;
use crate::obs;
use crate::plan::{dispatch_plan, PlanRequest};
use crate::report::Table;

/// How the daemon listens, schedules and drains.
///
/// Marked `#[non_exhaustive]`: construct with [`ServeConfig::default`]
/// plus the `with_*` builders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Listen address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing the simulating routes.
    pub workers: usize,
    /// Bounded depth of the dispatch queue between the event loop and
    /// the worker pool; a simulating request arriving on a full queue
    /// is answered `429` straight from the loop thread.
    pub queue_depth: usize,
    /// Max simulating requests in flight before `POST /v1/run` and
    /// `POST /v1/suite` answer `429`; `0` resolves to `workers - 1`
    /// (min 1) so one worker always stays free for queued short work.
    pub max_inflight: usize,
    /// Structured request log on stderr.
    pub log_requests: bool,
    /// Flush the executor metrics CSV here on graceful shutdown.
    pub metrics_dir: Option<PathBuf>,
    /// Max concurrently open connections; an accept beyond the cap is
    /// answered with a canned `503 connection_limit` and closed.
    pub max_conns: usize,
    /// Max requests served per keep-alive connection before the daemon
    /// answers `Connection: close`; `0` = unlimited.
    pub keepalive_requests: usize,
    /// Idle keep-alive connections (no request in progress) are closed
    /// after this many seconds.
    pub idle_timeout_s: f64,
    /// A connection that has sent part of a request but not completed
    /// it within this many seconds is answered `408` and closed
    /// (slow-loris defence). Also bounds response write stalls.
    pub read_timeout_s: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            queue_depth: 64,
            max_inflight: 0,
            log_requests: true,
            metrics_dir: None,
            max_conns: 10_240,
            keepalive_requests: 0,
            idle_timeout_s: 60.0,
            read_timeout_s: 30.0,
        }
    }
}

impl ServeConfig {
    /// Builder: listen address (`host:port`; port `0` = ephemeral).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Builder: worker thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: dispatch-queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Builder: in-flight simulation cap (`0` = auto).
    pub fn with_max_inflight(mut self, max: usize) -> Self {
        self.max_inflight = max;
        self
    }

    /// Builder: toggle the stderr request log.
    pub fn with_log_requests(mut self, log: bool) -> Self {
        self.log_requests = log;
        self
    }

    /// Builder: flush metrics CSV under `dir` on shutdown.
    pub fn with_metrics_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.metrics_dir = Some(dir.into());
        self
    }

    /// Builder: concurrent-connection cap (min 1).
    pub fn with_max_conns(mut self, max: usize) -> Self {
        self.max_conns = max.max(1);
        self
    }

    /// Builder: requests served per keep-alive connection before the
    /// daemon closes it (`0` = unlimited).
    pub fn with_keepalive_requests(mut self, max: usize) -> Self {
        self.keepalive_requests = max;
        self
    }

    /// Builder: idle keep-alive timeout in seconds.
    pub fn with_idle_timeout_s(mut self, secs: f64) -> Self {
        self.idle_timeout_s = secs.max(0.0);
        self
    }

    /// Builder: incomplete-request read deadline in seconds.
    pub fn with_read_timeout_s(mut self, secs: f64) -> Self {
        self.read_timeout_s = secs.max(0.0);
        self
    }

    fn effective_max_inflight(&self) -> usize {
        if self.max_inflight > 0 {
            self.max_inflight
        } else {
            self.workers.saturating_sub(1).max(1)
        }
    }
}

/// Process-wide SIGTERM/SIGINT latch (signal handlers must be static).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether a SIGTERM/SIGINT has been latched — the fleet coordinator
/// shares the drain signal with the worker daemon.
pub(crate) fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT into the graceful-drain path: the next
/// event-loop tick stops accepting and [`Server::serve`] drains and
/// returns `Ok`. `std` already links the platform libc, so the raw
/// `signal(2)` binding needs no external crate.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// What the loop serves: a worker daemon's executor, or a fleet
/// coordinator's routing state.
pub(crate) enum Role {
    Daemon(Executor),
    Coordinator(Arc<FleetCtx>),
}

impl Role {
    /// Does `ep` run on the worker pool rather than inline on the loop
    /// thread? Decided by the shared route table ([`api::ENDPOINTS`]).
    fn pooled(&self, ep: &Endpoint) -> bool {
        match self {
            Role::Daemon(_) => ep.serve == ServeClass::Sim,
            Role::Coordinator(_) => matches!(ep.fleet, FleetClass::Forward | FleetClass::FanOut),
        }
    }
}

/// Shared state the event loop and every worker see.
struct Ctx {
    role: Role,
    shutdown: AtomicBool,
    sim_inflight: AtomicUsize,
    open_conns: AtomicUsize,
    max_inflight: usize,
    log_requests: bool,
}

impl Ctx {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }

    /// The `Retry-After` hint for `status` at the current load.
    fn retry_after(&self, status: u16) -> Option<u32> {
        retry_after_of(
            status,
            self.sim_inflight.load(Ordering::SeqCst),
            self.max_inflight,
        )
    }
}

/// RAII slot on the pooled routes: acquired on the loop thread at
/// dispatch time (so saturation is decided before queueing), released
/// by the worker when the response is encoded (even on panic — the
/// guard lives across the `catch_unwind`).
struct SimSlot(Arc<Ctx>);

impl SimSlot {
    fn try_acquire(ctx: &Arc<Ctx>) -> Result<Self, ApiError> {
        let prev = ctx.sim_inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= ctx.max_inflight {
            ctx.sim_inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(ApiError::saturated(format!(
                "{prev} simulation(s) in flight (cap {})",
                ctx.max_inflight
            )));
        }
        Ok(SimSlot(Arc::clone(ctx)))
    }
}

impl Drop for SimSlot {
    fn drop(&mut self) {
        self.0.sim_inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The resident daemon. Bind with [`Server::bind`], then block on
/// [`Server::serve`] until a graceful shutdown drains it.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    config: ServeConfig,
}

impl Server {
    /// Bind the listen socket around a resident executor. Nothing is
    /// accepted until [`Server::serve`].
    pub fn bind(exec: Executor, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // Sweep torn cache entries (crash-interrupted writes, corrupt
        // files) into quarantine before any request can read them.
        if let Some(swept) = exec.cache().map(|c| c.scrub()) {
            if swept > 0 {
                eprintln!("spechpc serve: cache scrub quarantined {swept} torn entries");
            }
        }
        Ok(Server::with_role(listener, Role::Daemon(exec), config))
    }

    /// A server for `role` on an already-bound listener.
    pub(crate) fn with_role(listener: TcpListener, role: Role, config: ServeConfig) -> Server {
        let ctx = Arc::new(Ctx {
            role,
            shutdown: AtomicBool::new(false),
            sim_inflight: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            max_inflight: config.effective_max_inflight(),
            log_requests: config.log_requests,
        });
        Server {
            listener,
            ctx,
            config,
        }
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers graceful drain when used — the same
    /// latch `POST /v1/shutdown` and SIGTERM flip.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.ctx))
    }

    /// Run the event loop until shutdown is requested, then drain
    /// queued and in-flight work, flush metrics, and return. A clean
    /// drain is `Ok(())` — the daemon's exit-0 path.
    pub fn serve(self) -> std::io::Result<()> {
        let Server {
            listener,
            ctx,
            config,
        } = self;
        #[cfg(unix)]
        {
            ev::run(listener, ctx, config)
        }
        #[cfg(not(unix))]
        {
            let _ = (listener, ctx, config);
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "spechpc serve requires a Unix readiness backend (epoll/poll)",
            ))
        }
    }
}

/// Opaque drain trigger detached from the [`Server`]'s lifetime: keep
/// one around, call [`ShutdownHandle::request_drain`] from any thread,
/// and the event loop begins its graceful drain on the next tick.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Ctx>);

impl ShutdownHandle {
    /// Flip the drain latch (idempotent).
    pub fn request_drain(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// Has a drain been requested (by this handle, a client, or a
    /// signal)?
    pub fn draining(&self) -> bool {
        self.0.draining()
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing: incremental parser + deterministic encoder
// ---------------------------------------------------------------------------

/// One parsed request. Only what the routes need — this is a service
/// endpoint, not a general web server.
struct HttpRequest {
    method: String,
    /// Path without the query string.
    path: String,
    query: String,
    body: String,
    /// What the request's HTTP version + `Connection` header ask for:
    /// HTTP/1.1 defaults to keep-alive unless `close` is sent; HTTP/1.0
    /// must opt in with `Connection: keep-alive`.
    keep_alive: bool,
}

/// Header-block cap; a block that exceeds it is refused with `431`.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Body cap (`Content-Length` above this is refused with `400`).
const MAX_BODY_BYTES: usize = 1 << 20;
/// Read-buffer high-water mark: past this the loop stops reading from
/// the socket (TCP backpressure) until the parser drains it.
const MAX_BUFFERED_BYTES: usize = MAX_HEADER_BYTES + MAX_BODY_BYTES + 4096;

/// One step of the incremental parser over a connection's read buffer.
enum Parsed {
    /// Not enough bytes yet — keep reading.
    Partial,
    /// One complete request, consuming this many bytes of the buffer
    /// (pipelined successors may follow).
    Complete(HttpRequest, usize),
    /// The bytes can never become a valid request; answer the error and
    /// close (the parse position is unrecoverable).
    Bad(ApiError),
}

/// Incrementally parse one HTTP/1.1 request (start line, headers,
/// `Content-Length` body) from the front of `buf`. Pure function of the
/// buffer — the event loop calls it after every read, at any byte
/// boundary.
fn parse_request(buf: &[u8]) -> Parsed {
    let header_end = match find_header_end(buf) {
        Some(pos) => pos,
        None => {
            if buf.len() > MAX_HEADER_BYTES {
                return Parsed::Bad(ApiError::headers_too_large(MAX_HEADER_BYTES));
            }
            return Parsed::Partial;
        }
    };
    if header_end > MAX_HEADER_BYTES {
        return Parsed::Bad(ApiError::headers_too_large(MAX_HEADER_BYTES));
    }

    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or_default();
    let mut parts = start.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();
    if method.is_empty() || target.is_empty() {
        return Parsed::Bad(ApiError::bad_request("malformed request line"));
    }
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return Parsed::Bad(ApiError::bad_request("bad Content-Length")),
                };
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Parsed::Bad(ApiError::bad_request(
                    "chunked transfer encoding is not supported; send Content-Length",
                ));
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Parsed::Bad(ApiError::bad_request("request body too large"));
    }
    let total = header_end + 4 + content_length;
    if buf.len() < total {
        return Parsed::Partial;
    }

    let keep_alive = {
        let close = connection.split(',').any(|t| t.trim() == "close");
        let keep = connection.split(',').any(|t| t.trim() == "keep-alive");
        if version.eq_ignore_ascii_case("HTTP/1.0") {
            keep
        } else {
            !close
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Parsed::Complete(
        HttpRequest {
            method,
            path,
            query,
            body: String::from_utf8_lossy(&buf[header_end + 4..total]).to_string(),
            keep_alive,
        },
        total,
    )
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason_of(status: u16) -> &'static str {
    match status {
        200 => "OK",
        207 => "Multi-Status",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Encode one response. **This is where the byte-identity invariant is
/// enforced**: a deterministic header set in a fixed order
/// (`Content-Type`, `Content-Length`, `Connection`, optional
/// `Retry-After`), no date, no server version — a cached replay is
/// byte-identical to the response that simulated, and `Connection:
/// close` responses are byte-identical to the pre-event-loop daemon's.
pub(crate) fn encode_response(
    status: u16,
    body: &str,
    retry_after: Option<u32>,
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason_of(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Saturation and drain answers carry `Retry-After` so polite clients
/// back off instead of hammering. The hint scales with the in-flight
/// simulation load at encode time: an idle daemon says 1 s, a daemon at
/// its cap says 5 s, and a deeply saturated fleet keeps stretching up
/// to a 60 s ceiling — so backoff is proportional to how long the
/// backlog will realistically take to clear.
fn retry_after_of(status: u16, inflight: usize, cap: usize) -> Option<u32> {
    matches!(status, 429 | 503).then(|| {
        let cap = cap.max(1) as u64;
        let load = 4 * inflight as u64 / cap;
        (1 + load).min(60) as u32
    })
}

pub(crate) fn error_body(e: &ApiError) -> String {
    let mut body = e.to_json();
    body.push('\n');
    body
}

fn panic_to_error(p: Box<dyn std::any::Any + Send>) -> ApiError {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    ApiError::internal(format!("handler panicked: {msg}"))
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Does this request go to the worker pool rather than being answered
/// inline on the loop thread?
fn is_pooled(ctx: &Ctx, req: &HttpRequest) -> bool {
    api::endpoint_for(&req.method, &req.path).is_some_and(|e| ctx.role.pooled(e))
}

/// Fast routes, answered inline on the loop thread: cheap, allocation-
/// light, and exempt from admission control so clients can watch the
/// backlog even under saturation. Unknown routes land here too (404).
fn route_fast(ctx: &Ctx, req: &HttpRequest) -> Result<(u16, String), ApiError> {
    let ep = api::endpoint_for(&req.method, &req.path)
        .filter(|e| !ctx.role.pooled(e))
        .ok_or_else(|| api::no_route(&req.method, &req.path))?;
    match (ep.id, &ctx.role) {
        (EndpointId::Metrics, Role::Daemon(exec)) => {
            Ok((200, obs::metrics_json(&exec.metrics()).render()))
        }
        (EndpointId::Metrics, Role::Coordinator(fleet)) => Ok((200, fleet::metrics_json(fleet))),
        (EndpointId::Health, Role::Daemon(_)) => Ok((200, health_json(ctx))),
        (EndpointId::Health, Role::Coordinator(fleet)) => {
            Ok((200, fleet::health_json(fleet, ctx.draining())))
        }
        (EndpointId::Capabilities, _) => Ok((200, api::capabilities_json())),
        (EndpointId::CacheEntry, Role::Daemon(exec)) => {
            cache_entry(exec, ep.pattern.trailing(&req.path))
        }
        (EndpointId::Shutdown, _) => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            Ok((200, "{\"status\":\"draining\"}\n".to_string()))
        }
        _ => Err(api::no_route(&req.method, &req.path)),
    }
}

/// Pooled routes, executed on a worker thread under a [`SimSlot`]:
/// `(status, body, Retry-After)`. A coordinator relays its worker's
/// `Retry-After` verbatim; errors raised here take the loop's own
/// load-scaled hint instead.
fn route_pooled(ctx: &Ctx, req: &HttpRequest) -> Result<(u16, String, Option<u32>), ApiError> {
    let ep = api::endpoint_for(&req.method, &req.path)
        .filter(|e| ctx.role.pooled(e))
        .ok_or_else(|| api::no_route(&req.method, &req.path))?;
    match &ctx.role {
        Role::Daemon(exec) => route_sim(exec, ep, req).map(|(status, body)| (status, body, None)),
        Role::Coordinator(fleet) => fleet::route(fleet, ep, &req.body)
            .map(|resp| (resp.status, resp.body, resp.retry_after)),
    }
}

/// `GET /v1/cache/{hash}` — one raw cache entry, addressed by its
/// [`RunKey::hash_hex`](crate::cache::RunKey::hash_hex) value, served
/// with the exact bytes the cache persists so a fleet peer's replay is
/// byte-identical to a local one. Served inline on the loop thread
/// (memory scan or one small file read); `404` for unknown keys and
/// for daemons running `--no-cache`.
fn cache_entry(exec: &Executor, hash: &str) -> Result<(u16, String), ApiError> {
    // The hash is used as a file name: accept only the exact shape
    // `RunKey::hash_hex` emits (16 lowercase hex digits) so a crafted
    // path can never traverse outside the cache directory.
    let well_formed = hash.len() == 16
        && hash
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !well_formed {
        return Err(ApiError::bad_request(
            "cache key must be 16 lowercase hex digits",
        ));
    }
    match exec.cache().and_then(|c| c.entry_by_hash(hash)) {
        Some(text) => Ok((200, text)),
        None => Err(ApiError::not_found(format!("no cache entry {hash}"))),
    }
}

/// A daemon's simulating routes.
fn route_sim(exec: &Executor, ep: &Endpoint, req: &HttpRequest) -> Result<(u16, String), ApiError> {
    match ep.id {
        EndpointId::Run => {
            let run = RunRequest::from_json(&req.body)?;
            let resp = dispatch_run(exec, &run)?;
            Ok((200, resp.to_json()))
        }
        EndpointId::Suite => {
            let suite = SuiteRequest::from_json(&req.body)?;
            let resp = dispatch_suite(exec, &suite)?;
            let status = if resp.report.is_complete() { 200 } else { 207 };
            Ok((status, resp.to_json()))
        }
        EndpointId::Plan => {
            let plan = PlanRequest::from_json(&req.body)?;
            let resp = dispatch_plan(exec, &plan)?;
            Ok((200, resp.to_json()))
        }
        EndpointId::Profile => profile(exec, ep.pattern.trailing(&req.path), &req.query),
        _ => Err(api::no_route(&req.method, &req.path)),
    }
}

/// `GET /v1/profile/{benchmark}?cluster=a&class=tiny&n=8` — the
/// Fig.-2-style MPI breakdown of one (cached) run as JSON tables.
fn profile(exec: &Executor, benchmark: &str, query: &str) -> Result<(u16, String), ApiError> {
    let mut cluster = "a".to_string();
    let mut class = "tiny".to_string();
    let mut nranks = 0usize;
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "cluster" => cluster = v.to_string(),
            "class" => class = v.to_string(),
            "n" | "nranks" => {
                nranks = v
                    .parse()
                    .map_err(|_| ApiError::bad_request(format!("bad rank count '{v}'")))?
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown query parameter '{other}'"
                )))
            }
        }
    }
    let run = RunRequest::new(benchmark, parse_class(&class)?, nranks).with_cluster(cluster);
    let resp = dispatch_run(exec, &run)?;
    let r = &resp.result;
    let label = format!("{}/{}/{}@{}", r.benchmark, r.class, r.nranks, r.cluster);
    let table_err = |e: crate::report::ReportError| ApiError::internal(e.to_string());
    let ranks = obs::profile_rank_table(&label, &r.profile).map_err(table_err)?;
    let hist = obs::profile_histogram_table("message sizes", &r.profile).map_err(table_err)?;
    let matrix = obs::profile_matrix_table("heaviest pairs", &r.profile, 10).map_err(table_err)?;
    let body = Json::Obj(vec![
        ("run".into(), Json::from(label)),
        ("ranks".into(), table_to_json(&ranks)),
        ("histogram".into(), table_to_json(&hist)),
        ("matrix".into(), table_to_json(&matrix)),
    ])
    .render();
    Ok((200, body))
}

fn table_to_json(t: &Table) -> Json {
    Json::Obj(vec![
        ("title".into(), Json::from(t.title.as_str())),
        (
            "header".into(),
            Json::Arr(t.header.iter().map(|h| Json::from(h.as_str())).collect()),
        ),
        (
            "rows".into(),
            Json::Arr(
                t.rows
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|c| Json::from(c.as_str())).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn health_json(ctx: &Ctx) -> String {
    Json::Obj(vec![
        ("status".into(), Json::from("ok")),
        (
            "inflight".into(),
            Json::from(ctx.sim_inflight.load(Ordering::SeqCst)),
        ),
        (
            "connections".into(),
            Json::from(ctx.open_conns.load(Ordering::SeqCst)),
        ),
        ("draining".into(), Json::from(ctx.draining())),
    ])
    .render()
}

fn log_line(ctx: &Ctx, method: &str, path: &str, status: u16, bytes: usize, t0: Instant) {
    eprintln!(
        "[serve] {} {} -> {} {}B {:.1}ms inflight={}",
        method,
        path,
        status,
        bytes,
        t0.elapsed().as_secs_f64() * 1e3,
        ctx.sim_inflight.load(Ordering::SeqCst),
    );
}

// ---------------------------------------------------------------------------
// The event loop (Unix only — readiness comes from crate::epoll)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod ev {
    use super::*;
    use crate::epoll::{Interest, Poller, Readiness, WakePipe, Waker};
    use std::collections::VecDeque;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::panic::AssertUnwindSafe;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Poller token of the listen socket.
    const LISTENER_TOKEN: u64 = u64::MAX;
    /// Poller token of the wake pipe's read end.
    const WAKE_TOKEN: u64 = u64::MAX - 1;
    /// Deadline-sweep granularity: the loop wakes at least this often.
    const TICK_MS: i32 = 50;

    /// One connection's state machine. Lives in the slab; the poller
    /// token is the slab index, and `gen` disambiguates recycled slots
    /// when a worker completion arrives late.
    struct Conn {
        stream: TcpStream,
        gen: u64,
        /// Unparsed request bytes (reads append, the parser drains).
        buf: Vec<u8>,
        /// Encoded response bytes not yet written.
        out: Vec<u8>,
        out_pos: usize,
        /// A request from this connection is in the worker pool; reads
        /// are paused (TCP backpressure) until the completion arrives.
        busy: bool,
        /// Close once `out` is fully flushed.
        close_after_flush: bool,
        /// The peer half-closed (read EOF).
        read_closed: bool,
        /// Requests served on this connection (keep-alive cap).
        served: usize,
        /// When the current incomplete request started arriving — the
        /// slow-loris clock.
        partial_since: Option<Instant>,
        /// Last byte read or written — the idle clock.
        last_activity: Instant,
        interest: Interest,
        /// Whether the fd is currently registered with the poller
        /// (parked connections deregister entirely: `EPOLLHUP` ignores
        /// the interest mask and would busy-spin a level-triggered
        /// loop).
        registered: bool,
    }

    impl Conn {
        fn new(stream: TcpStream, gen: u64) -> Conn {
            Conn {
                stream,
                gen,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                busy: false,
                close_after_flush: false,
                read_closed: false,
                served: 0,
                partial_since: None,
                last_activity: Instant::now(),
                interest: Interest::NONE,
                registered: false,
            }
        }

        fn flushing(&self) -> bool {
            self.out_pos < self.out.len()
        }
    }

    /// One pooled request travelling to the worker pool.
    struct Job {
        conn: usize,
        gen: u64,
        req: HttpRequest,
        keep_alive: bool,
        slot: SimSlot,
        t0: Instant,
    }

    /// A worker's finished response travelling back to the loop.
    struct Completion {
        conn: usize,
        gen: u64,
        bytes: Vec<u8>,
        close: bool,
    }

    /// The bounded dispatch queue between the loop and the pool, shaped
    /// like the completion queue: a push wakes exactly one idle worker.
    struct JobQueue {
        state: Mutex<Jobs>,
        ready: Condvar,
        depth: usize,
    }

    struct Jobs {
        queue: VecDeque<Job>,
        closed: bool,
    }

    /// Why [`JobQueue::push`] handed a job back (boxed: the refusal
    /// path is cold and a job is large).
    enum Refused {
        Full(Box<Job>),
        Closed(Box<Job>),
    }

    impl JobQueue {
        fn new(depth: usize) -> JobQueue {
            JobQueue {
                state: Mutex::new(Jobs {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
                depth,
            }
        }

        // A push or pop is one VecDeque call under the lock, so a guard
        // poisoned by a panicking holder still guards a valid queue.
        fn lock(&self) -> std::sync::MutexGuard<'_, Jobs> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn push(&self, job: Job) -> Result<(), Refused> {
            let mut jobs = self.lock();
            if jobs.closed {
                return Err(Refused::Closed(Box::new(job)));
            }
            if jobs.queue.len() >= self.depth {
                return Err(Refused::Full(Box::new(job)));
            }
            jobs.queue.push_back(job);
            drop(jobs);
            self.ready.notify_one();
            Ok(())
        }

        /// Block until a job is queued; `None` once the queue is closed
        /// and empty.
        fn pop(&self) -> Option<Job> {
            let mut jobs = self.lock();
            loop {
                if let Some(job) = jobs.queue.pop_front() {
                    return Some(job);
                }
                if jobs.closed {
                    return None;
                }
                jobs = self.ready.wait(jobs).unwrap_or_else(|e| e.into_inner());
            }
        }

        fn close(&self) {
            self.lock().closed = true;
            self.ready.notify_all();
        }
    }

    fn append_response(ctx: &Ctx, conn: &mut Conn, status: u16, body: &str, keep: bool) {
        let bytes = encode_response(status, body, ctx.retry_after(status), keep);
        conn.out.extend_from_slice(&bytes);
    }

    struct EventLoop {
        poller: Poller,
        listener: TcpListener,
        listener_registered: bool,
        wake: WakePipe,
        conns: Vec<Option<Conn>>,
        free: Vec<usize>,
        gen_counter: u64,
        jobs: Option<Arc<JobQueue>>,
        completions: Arc<Mutex<VecDeque<Completion>>>,
        ctx: Arc<Ctx>,
        max_conns: usize,
        keepalive_requests: usize,
        idle_timeout: Duration,
        read_timeout: Duration,
    }

    /// Bind-to-drain lifetime of the daemon: spawn the worker pool, run
    /// the readiness loop until the drain latch flips and the last
    /// connection closes, then join workers and flush observability.
    pub(super) fn run(listener: TcpListener, ctx: Arc<Ctx>, config: ServeConfig) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let wake = WakePipe::new()?;
        let jobs = Arc::new(JobQueue::new(config.queue_depth.max(1)));
        let completions: Arc<Mutex<VecDeque<Completion>>> = Arc::new(Mutex::new(VecDeque::new()));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            let jobs = Arc::clone(&jobs);
            let ctx = Arc::clone(&ctx);
            let completions = Arc::clone(&completions);
            let waker = wake.waker();
            workers.push(std::thread::spawn(move || {
                worker_loop(ctx, &jobs, &completions, waker)
            }));
        }

        let mut lp = EventLoop {
            poller,
            listener,
            listener_registered: false,
            wake,
            conns: Vec::new(),
            free: Vec::new(),
            gen_counter: 0,
            jobs: Some(jobs),
            completions,
            ctx,
            max_conns: config.max_conns.max(1),
            keepalive_requests: config.keepalive_requests,
            idle_timeout: Duration::from_secs_f64(config.idle_timeout_s.max(0.0)),
            read_timeout: Duration::from_secs_f64(config.read_timeout_s.max(0.0)),
        };
        lp.poller
            .add(lp.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        lp.listener_registered = true;
        lp.poller
            .add(lp.wake.poll_fd(), WAKE_TOKEN, Interest::READ)?;

        let mut events: Vec<Readiness> = Vec::new();
        loop {
            if lp.ctx.draining() {
                if lp.listener_registered {
                    let _ = lp.poller.remove(lp.listener.as_raw_fd());
                    lp.listener_registered = false;
                }
                if lp.ctx.open_conns.load(Ordering::SeqCst) == 0 {
                    break;
                }
            }
            lp.poller.wait(&mut events, TICK_MS)?;
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    LISTENER_TOKEN => lp.accept_ready(),
                    WAKE_TOKEN => lp.wake.drain(),
                    token => lp.conn_event(token as usize, *ev),
                }
            }
            events = batch;
            lp.apply_completions();
            lp.sweep();
        }

        // Drain epilogue: the dispatch queue is already empty (no
        // connection survived with work queued), so closing it lets
        // every worker's pop() return None and the pool exit.
        if let Some(jobs) = lp.jobs.take() {
            jobs.close();
        }
        for w in workers {
            let _ = w.join();
        }
        if let Role::Daemon(exec) = &lp.ctx.role {
            let m = exec.metrics();
            if let Some(dir) = &config.metrics_dir {
                let _ = obs::write_metrics_csv(dir, "serve", &m);
            }
            if lp.ctx.log_requests {
                eprintln!("[serve] drained, bye: {}", obs::metrics_json(&m).render());
            }
        }
        Ok(())
    }

    fn worker_loop(
        ctx: Arc<Ctx>,
        jobs: &JobQueue,
        completions: &Mutex<VecDeque<Completion>>,
        waker: Waker,
    ) {
        while let Some(job) = jobs.pop() {
            let Job {
                conn,
                gen,
                req,
                keep_alive,
                slot,
                t0,
            } = job;
            // A handler panic must never take a worker down: catch at
            // the dispatch boundary and degrade to a 500.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| route_pooled(&ctx, &req)))
                .unwrap_or_else(|p| Err(panic_to_error(p)));
            let (status, body, retry_after) = match outcome {
                Ok(reply) => reply,
                Err(e) => (e.status, error_body(&e), ctx.retry_after(e.status)),
            };
            if ctx.log_requests {
                log_line(&ctx, &req.method, &req.path, status, body.len(), t0);
            }
            let bytes = encode_response(status, &body, retry_after, keep_alive);
            // Release the slot before publishing the completion so the
            // in-flight gauge never over-reports past the response.
            drop(slot);
            completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(Completion {
                    conn,
                    gen,
                    bytes,
                    close: !keep_alive,
                });
            waker.wake();
        }
    }

    /// Answer a connection refused at the cap with a canned `503` and
    /// drop it. Best-effort and never blocking: any request bytes that
    /// already arrived are discarded first (closing with unread data in
    /// the socket turns into an RST that can destroy the 503 before the
    /// client reads it), then the response goes out in one write.
    fn refuse_over_limit(ctx: &Ctx, mut stream: TcpStream, max: usize) {
        let mut scratch = [0u8; 4096];
        for _ in 0..8 {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let e = ApiError::connection_limit(max);
        let bytes = encode_response(e.status, &error_body(&e), ctx.retry_after(e.status), false);
        let _ = stream.write(&bytes);
    }

    impl EventLoop {
        /// Run `f` on connection `idx` with the slab slot checked out;
        /// `f` returns whether the connection stays open.
        fn with_conn(&mut self, idx: usize, f: impl FnOnce(&mut Self, &mut Conn) -> bool) {
            let mut conn = match self.conns.get_mut(idx).and_then(Option::take) {
                Some(c) => c,
                None => return, // stale token for an already-closed slot
            };
            if f(self, &mut conn) {
                self.update_interest(idx, &mut conn);
                self.conns[idx] = Some(conn);
            } else {
                self.teardown(idx, conn);
            }
        }

        fn accept_ready(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.ctx.draining() {
                            drop(stream);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        if self.ctx.open_conns.load(Ordering::SeqCst) >= self.max_conns {
                            refuse_over_limit(&self.ctx, stream, self.max_conns);
                            continue;
                        }
                        let idx = match self.free.pop() {
                            Some(i) => i,
                            None => {
                                self.conns.push(None);
                                self.conns.len() - 1
                            }
                        };
                        self.gen_counter += 1;
                        let mut conn = Conn::new(stream, self.gen_counter);
                        self.ctx.open_conns.fetch_add(1, Ordering::SeqCst);
                        self.update_interest(idx, &mut conn);
                        self.conns[idx] = Some(conn);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        fn conn_event(&mut self, idx: usize, ev: Readiness) {
            self.with_conn(idx, |lp, conn| {
                if (ev.readable || ev.closed) && !lp.on_readable(idx, conn) {
                    return false;
                }
                if ev.writable && !lp.flush(conn) {
                    return false;
                }
                true
            });
        }

        /// Drain the socket into the connection's read buffer, then let
        /// the parser make progress. Returns whether to keep the
        /// connection.
        fn on_readable(&mut self, idx: usize, conn: &mut Conn) -> bool {
            let mut chunk = [0u8; 16 * 1024];
            loop {
                if conn.busy || conn.close_after_flush || conn.buf.len() >= MAX_BUFFERED_BYTES {
                    break; // backpressure: leave bytes in the kernel
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            self.advance(idx, conn)
        }

        /// Parse and route as many complete requests as the buffer
        /// holds (pipelining), stopping when a request enters the
        /// worker pool or the buffer runs dry. Returns whether to keep
        /// the connection.
        fn advance(&mut self, idx: usize, conn: &mut Conn) -> bool {
            while !conn.busy && !conn.close_after_flush {
                match parse_request(&conn.buf) {
                    Parsed::Partial => {
                        if conn.buf.is_empty() {
                            conn.partial_since = None;
                        } else if conn.partial_since.is_none() {
                            conn.partial_since = Some(Instant::now());
                        }
                        if conn.read_closed {
                            if !conn.buf.is_empty() {
                                let e = ApiError::bad_request("connection closed mid-request");
                                append_response(&self.ctx, conn, e.status, &error_body(&e), false);
                            }
                            conn.close_after_flush = true;
                        }
                        break;
                    }
                    Parsed::Bad(e) => {
                        // The parse position is unrecoverable: answer
                        // and close.
                        append_response(&self.ctx, conn, e.status, &error_body(&e), false);
                        conn.close_after_flush = true;
                        break;
                    }
                    Parsed::Complete(req, consumed) => {
                        conn.buf.drain(..consumed);
                        conn.partial_since = if conn.buf.is_empty() {
                            None
                        } else {
                            Some(Instant::now())
                        };
                        conn.served += 1;
                        if let Role::Coordinator(fleet) = &self.ctx.role {
                            fleet.requests.fetch_add(1, Ordering::Relaxed);
                        }
                        let cap = self.keepalive_requests;
                        let keep = req.keep_alive
                            && !self.ctx.draining()
                            && !conn.read_closed
                            && (cap == 0 || conn.served < cap);
                        if is_pooled(&self.ctx, &req) {
                            match self.try_dispatch(idx, conn, req, keep) {
                                Ok(()) => conn.busy = true,
                                Err(refused) => {
                                    let (req, e) = *refused;
                                    // Well-framed refusal (429/503):
                                    // a keep-alive connection survives
                                    // a 429 so the client can retry
                                    // without reconnecting; drain
                                    // refusals close.
                                    let keep_err = keep && e.status != 503;
                                    let body = error_body(&e);
                                    if self.ctx.log_requests {
                                        log_line(
                                            &self.ctx,
                                            &req.method,
                                            &req.path,
                                            e.status,
                                            body.len(),
                                            Instant::now(),
                                        );
                                    }
                                    append_response(&self.ctx, conn, e.status, &body, keep_err);
                                    if !keep_err {
                                        conn.close_after_flush = true;
                                    }
                                }
                            }
                        } else {
                            let t0 = Instant::now();
                            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                route_fast(&self.ctx, &req)
                            }))
                            .unwrap_or_else(|p| Err(panic_to_error(p)));
                            let (status, body) = match outcome {
                                Ok((status, body)) => (status, body),
                                Err(e) => (e.status, error_body(&e)),
                            };
                            // `POST /v1/shutdown` just flipped the
                            // drain latch — recompute so its own
                            // response is framed `Connection: close`.
                            let keep = keep && !self.ctx.draining();
                            if self.ctx.log_requests {
                                log_line(&self.ctx, &req.method, &req.path, status, body.len(), t0);
                            }
                            append_response(&self.ctx, conn, status, &body, keep);
                            if !keep {
                                conn.close_after_flush = true;
                            }
                        }
                    }
                }
            }
            self.flush(conn)
        }

        /// Admission-checked hand-off of one pooled request to the
        /// worker pool. On refusal the request is handed back (boxed:
        /// the refusal path is cold and the pair is large) so the
        /// caller can log and answer it.
        fn try_dispatch(
            &mut self,
            idx: usize,
            conn: &Conn,
            req: HttpRequest,
            keep: bool,
        ) -> Result<(), Box<(HttpRequest, ApiError)>> {
            if self.ctx.draining() {
                return Err(Box::new((req, ApiError::shutting_down())));
            }
            let slot = match SimSlot::try_acquire(&self.ctx) {
                Ok(s) => s,
                Err(e) => return Err(Box::new((req, e))),
            };
            let job = Job {
                conn: idx,
                gen: conn.gen,
                keep_alive: keep,
                t0: Instant::now(),
                req,
                slot,
            };
            // A missing or closed queue means the worker pool is gone
            // (torn down during drain). Either way the daemon must
            // degrade to a typed refusal and drain — never panic the
            // event loop, which would abort every open connection
            // mid-response.
            let Some(jobs) = self.jobs.as_ref() else {
                return Err(Box::new((job.req, ApiError::shutting_down())));
            };
            match jobs.push(job) {
                Ok(()) => Ok(()),
                Err(Refused::Full(job)) => Err(Box::new((
                    job.req,
                    ApiError::saturated("dispatch queue full"),
                ))),
                Err(Refused::Closed(job)) => {
                    // Nothing will ever complete a queued job again:
                    // flip the drain latch so the loop winds down
                    // gracefully instead of refusing forever.
                    self.ctx.shutdown.store(true, Ordering::SeqCst);
                    Err(Box::new((job.req, ApiError::shutting_down())))
                }
            }
        }

        /// Write as much of the pending response as the socket takes.
        /// Returns whether to keep the connection.
        fn flush(&mut self, conn: &mut Conn) -> bool {
            while conn.flushing() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            if !conn.flushing() {
                conn.out.clear();
                conn.out_pos = 0;
                if conn.close_after_flush {
                    return false;
                }
            }
            true
        }

        /// Apply worker completions: un-pause the connection, queue the
        /// response bytes, and let the parser continue on any pipelined
        /// successor already buffered.
        fn apply_completions(&mut self) {
            loop {
                let c = self
                    .completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                let Some(c) = c else { break };
                self.with_conn(c.conn, |lp, conn| {
                    if conn.gen != c.gen {
                        return true; // recycled slot: completion is stale
                    }
                    conn.busy = false;
                    conn.out.extend_from_slice(&c.bytes);
                    if c.close {
                        conn.close_after_flush = true;
                        return lp.flush(conn);
                    }
                    lp.advance(c.conn, conn)
                });
            }
        }

        /// Keep the poller's interest in sync with the state machine:
        /// read when the parser wants bytes, write when a response is
        /// pending, deregister entirely when parked (busy in the worker
        /// pool, or half-closed with nothing to say — `EPOLLHUP` is
        /// level-triggered regardless of the mask and would spin us).
        fn update_interest(&mut self, idx: usize, conn: &mut Conn) {
            let want = Interest {
                readable: !conn.busy
                    && !conn.read_closed
                    && !conn.close_after_flush
                    && conn.buf.len() < MAX_BUFFERED_BYTES,
                writable: conn.flushing(),
            };
            if !want.readable && !want.writable {
                if conn.registered {
                    let _ = self.poller.remove(conn.stream.as_raw_fd());
                    conn.registered = false;
                }
                conn.interest = Interest::NONE;
                return;
            }
            if !conn.registered {
                if self
                    .poller
                    .add(conn.stream.as_raw_fd(), idx as u64, want)
                    .is_ok()
                {
                    conn.registered = true;
                    conn.interest = want;
                }
                return;
            }
            if want != conn.interest {
                let _ = self
                    .poller
                    .modify(conn.stream.as_raw_fd(), idx as u64, want);
                conn.interest = want;
            }
        }

        /// Deadline sweep, once per tick: reap slow-loris uploads
        /// (408), stalled response writes, and idle keep-alive
        /// connections (silently, also how a drain sheds idle clients).
        fn sweep(&mut self) {
            enum Reap {
                Drop,
                Timeout408,
            }
            let now = Instant::now();
            let draining = self.ctx.draining();
            let mut reap: Vec<(usize, Reap)> = Vec::new();
            for (idx, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                if conn.busy {
                    continue; // the worker owns the deadline (executor budget)
                }
                if conn.flushing() {
                    if now.duration_since(conn.last_activity) > self.read_timeout {
                        reap.push((idx, Reap::Drop)); // write stalled
                    }
                    continue;
                }
                if let Some(t0) = conn.partial_since {
                    if now.duration_since(t0) > self.read_timeout {
                        reap.push((idx, Reap::Timeout408));
                    }
                    continue;
                }
                if draining || now.duration_since(conn.last_activity) > self.idle_timeout {
                    reap.push((idx, Reap::Drop));
                }
            }
            let read_timeout_s = self.read_timeout.as_secs_f64();
            for (idx, action) in reap {
                match action {
                    Reap::Drop => self.with_conn(idx, |_, _| false),
                    Reap::Timeout408 => self.with_conn(idx, |lp, conn| {
                        let e = ApiError::read_timeout(read_timeout_s);
                        append_response(&lp.ctx, conn, e.status, &error_body(&e), false);
                        conn.close_after_flush = true;
                        lp.flush(conn)
                    }),
                }
            }
        }

        /// Close a connection and recycle its slab slot. Unread request
        /// bytes are discarded first (bounded): closing with data still
        /// queued in the socket turns into an RST that can destroy a
        /// just-written error response before the client reads it.
        fn teardown(&mut self, idx: usize, mut conn: Conn) {
            if conn.registered {
                let _ = self.poller.remove(conn.stream.as_raw_fd());
            }
            if !conn.read_closed {
                let mut scratch = [0u8; 4096];
                for _ in 0..8 {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
            }
            drop(conn);
            self.ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
            self.free.push(idx);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::exec::ExecConfig;
        use crate::runner::RunConfig;

        /// An `EventLoop` wired to nothing: just enough state to
        /// exercise `try_dispatch`'s refusal paths without running the
        /// readiness loop.
        fn bench_loop(jobs: Option<Arc<JobQueue>>) -> (EventLoop, Conn) {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            let ctx = Arc::new(Ctx {
                role: Role::Daemon(Executor::new(RunConfig::default(), ExecConfig::default())),
                shutdown: AtomicBool::new(false),
                sim_inflight: AtomicUsize::new(0),
                open_conns: AtomicUsize::new(1),
                max_inflight: 4,
                log_requests: false,
            });
            let lp = EventLoop {
                poller: Poller::new().expect("poller"),
                listener,
                listener_registered: false,
                wake: WakePipe::new().expect("wake pipe"),
                conns: Vec::new(),
                free: Vec::new(),
                gen_counter: 0,
                jobs,
                completions: Arc::new(Mutex::new(VecDeque::new())),
                ctx,
                max_conns: 8,
                keepalive_requests: 0,
                idle_timeout: Duration::from_secs(5),
                read_timeout: Duration::from_secs(5),
            };
            (lp, Conn::new(accepted, 0))
        }

        fn run_req() -> HttpRequest {
            HttpRequest {
                method: "POST".into(),
                path: "/v1/run".into(),
                query: String::new(),
                body: String::new(),
                keep_alive: true,
            }
        }

        #[test]
        fn dispatch_without_worker_pool_degrades_to_shutdown() {
            // Regression: this path used to be
            // `.expect("dispatch channel outlives the loop")`, aborting
            // the daemon if the pool was gone at dispatch time.
            let (mut lp, conn) = bench_loop(None);
            let err = lp.try_dispatch(0, &conn, run_req(), true).unwrap_err();
            let (req, e) = *err;
            assert_eq!(req.path, "/v1/run", "request handed back for logging");
            assert_eq!((e.status, e.code.as_str()), (503, "shutting_down"));
            assert_eq!(
                lp.ctx.sim_inflight.load(Ordering::SeqCst),
                0,
                "refusal must release the SimSlot"
            );
        }

        #[test]
        fn dispatch_on_dead_channel_refuses_and_latches_drain() {
            let jobs = Arc::new(JobQueue::new(1));
            jobs.close(); // the pool is gone
            let (mut lp, conn) = bench_loop(Some(jobs));
            let err = lp.try_dispatch(0, &conn, run_req(), true).unwrap_err();
            let (_, e) = *err;
            assert_eq!((e.status, e.code.as_str()), (503, "shutting_down"));
            assert!(
                lp.ctx.shutdown.load(Ordering::SeqCst),
                "a dead pool must flip the drain latch"
            );
            assert_eq!(lp.ctx.sim_inflight.load(Ordering::SeqCst), 0);
        }

        #[test]
        fn dispatch_on_full_queue_refuses_with_429() {
            let jobs = Arc::new(JobQueue::new(0)); // no room: always full
            let (mut lp, conn) = bench_loop(Some(jobs));
            let err = lp.try_dispatch(0, &conn, run_req(), true).unwrap_err();
            let (_, e) = *err;
            assert_eq!(e.status, 429);
            assert!(
                !lp.ctx.shutdown.load(Ordering::SeqCst),
                "saturation is backpressure, not drain"
            );
            assert_eq!(lp.ctx.sim_inflight.load(Ordering::SeqCst), 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(p: Parsed) -> (HttpRequest, usize) {
        match p {
            Parsed::Complete(req, n) => (req, n),
            Parsed::Partial => panic!("expected Complete, got Partial"),
            Parsed::Bad(e) => panic!("expected Complete, got Bad: {e}"),
        }
    }

    #[test]
    fn header_end_detection_and_reasons() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
        assert_eq!(reason_of(200), "OK");
        assert_eq!(reason_of(408), "Request Timeout");
        assert_eq!(reason_of(429), "Too Many Requests");
        assert_eq!(reason_of(431), "Request Header Fields Too Large");
        assert_eq!(reason_of(207), "Multi-Status");
        assert_eq!(reason_of(999), "Unknown");
    }

    #[test]
    fn serve_config_resolves_inflight_cap() {
        let cfg = ServeConfig::default().with_workers(8);
        assert_eq!(cfg.effective_max_inflight(), 7);
        let cfg = ServeConfig::default().with_workers(1);
        assert_eq!(cfg.effective_max_inflight(), 1);
        let cfg = ServeConfig::default().with_max_inflight(3);
        assert_eq!(cfg.effective_max_inflight(), 3);
    }

    #[test]
    fn parser_accepts_any_byte_boundary_split() {
        let raw = b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut]) {
                Parsed::Partial => {}
                Parsed::Complete(..) => panic!("complete at prefix {cut}"),
                Parsed::Bad(e) => panic!("bad at prefix {cut}: {e}"),
            }
        }
        let (req, consumed) = complete(parse_request(raw));
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.body, "body");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parser_consumes_exactly_one_pipelined_request() {
        let first = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let second = b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        let mut buf = first.clone();
        buf.extend_from_slice(&second);
        let (req, consumed) = complete(parse_request(&buf));
        assert_eq!(req.path, "/v1/health");
        assert_eq!(
            consumed,
            first.len(),
            "must not eat the pipelined successor"
        );
        buf.drain(..consumed);
        let (req, consumed) = complete(parse_request(&buf));
        assert_eq!(req.path, "/v1/metrics");
        assert_eq!(consumed, second.len());
    }

    #[test]
    fn parser_connection_semantics() {
        let (req, _) = complete(parse_request(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
        ));
        assert!(!req.keep_alive, "explicit close wins on HTTP/1.1");
        let (req, _) = complete(parse_request(b"GET / HTTP/1.0\r\nHost: x\r\n\r\n"));
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let (req, _) = complete(parse_request(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ));
        assert!(req.keep_alive, "HTTP/1.0 can opt in");
    }

    #[test]
    fn parser_rejects_oversized_headers_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "y".repeat(MAX_HEADER_BYTES)).as_bytes());
        // Even before the terminator arrives the verdict is final.
        match parse_request(&raw) {
            Parsed::Bad(e) => {
                assert_eq!(e.status, 431);
                assert_eq!(e.code, "headers_too_large");
            }
            _ => panic!("oversized headers must be refused"),
        }
        raw.extend_from_slice(b"\r\n");
        match parse_request(&raw) {
            Parsed::Bad(e) => assert_eq!(e.status, 431),
            _ => panic!("oversized headers must be refused after terminator too"),
        }
    }

    #[test]
    fn parser_rejects_unframeable_requests() {
        match parse_request(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n") {
            Parsed::Bad(e) => assert_eq!(e.status, 400),
            _ => panic!("bad Content-Length must be refused"),
        }
        match parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n") {
            Parsed::Bad(e) => assert_eq!(e.status, 400),
            _ => panic!("chunked framing must be refused"),
        }
        match parse_request(b"\r\n\r\n") {
            Parsed::Bad(e) => assert_eq!(e.status, 400),
            _ => panic!("empty request line must be refused"),
        }
    }

    #[test]
    fn response_framing_is_pinned() {
        // The byte-identity invariant: fixed header set, fixed order,
        // no date. Close framing must match the pre-event-loop daemon.
        let bytes = encode_response(200, "{}\n", None, false);
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}\n"
        );
        let bytes = encode_response(429, "x", retry_after_of(429, 0, 8), true);
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 1\r\nConnection: keep-alive\r\nRetry-After: 1\r\n\r\nx"
        );
    }

    #[test]
    fn retry_after_scales_with_load() {
        // Idle → the old fixed 1 s floor; half load → 3 s; at the cap
        // → 5 s; deep overload clamps at 60 s. Non-retryable statuses
        // never carry the header.
        assert_eq!(retry_after_of(429, 0, 8), Some(1));
        assert_eq!(retry_after_of(503, 4, 8), Some(3));
        assert_eq!(retry_after_of(429, 8, 8), Some(5));
        assert_eq!(retry_after_of(429, 1, 1), Some(5));
        assert_eq!(retry_after_of(429, 1000, 8), Some(60));
        assert_eq!(
            retry_after_of(503, 0, 0),
            Some(1),
            "cap 0 must not divide by zero"
        );
        assert_eq!(retry_after_of(200, 8, 8), None);
        assert_eq!(retry_after_of(404, 8, 8), None);
    }

    /// Seeded property tests of [`parse_request`]. Each case builds a
    /// request from random parts, so the expected parse is known.
    mod prop {
        use super::*;
        use spechpc_kernels::common::rng::Rng;

        fn below(rng: &mut Rng, n: usize) -> usize {
            (rng.next_u64() % n as u64) as usize
        }

        fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
            from[below(rng, from.len())]
        }

        /// `min` to `min + spread - 1` characters drawn from `alphabet`.
        fn text(rng: &mut Rng, alphabet: &[char], min: usize, spread: usize) -> String {
            let len = min + below(rng, spread);
            (0..len)
                .map(|_| alphabet[below(rng, alphabet.len())])
                .collect()
        }

        /// A valid request and the fields it must parse back to.
        struct Sample {
            raw: Vec<u8>,
            method: String,
            path: String,
            query: String,
            body: String,
            keep_alive: bool,
        }

        fn sample(rng: &mut Rng) -> Sample {
            let path_chars: Vec<char> = "abcxyz019-_.~/%{}".chars().collect();
            let query_chars: Vec<char> = "abcxyz019-_.~/%=&?".chars().collect();
            let value: Vec<char> = "aZ09 ;,=-/:\"\t".chars().collect();
            let body_chars: Vec<char> = "a{}[]\":,0 \r\né∑🙂".chars().collect();
            let method = pick(rng, &["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH"]);
            let path = format!("/{}", text(rng, &path_chars, 0, 24));
            let query = match below(rng, 3) {
                0 => String::new(),
                _ => text(rng, &query_chars, 1, 24),
            };
            let mut body = match below(rng, 8) {
                0 => String::new(),
                1 => text(rng, &body_chars, 2048, 4096),
                _ => text(rng, &body_chars, 0, 96),
            };
            if below(rng, 4) == 0 {
                // The body's own blank lines must not end the request.
                body.push_str("\r\n\r\nGET / HTTP/1.1\r\n\r\n");
            }
            let version = pick(rng, &["HTTP/1.0", "HTTP/1.1"]);
            let connection = pick(
                rng,
                &[
                    "",
                    "close",
                    "keep-alive",
                    "Keep-Alive",
                    "Upgrade, close",
                    "keep-alive, TE",
                ],
            );
            let keep_alive = {
                let has = |t: &str| {
                    connection
                        .to_ascii_lowercase()
                        .split(',')
                        .any(|c| c.trim() == t)
                };
                if version == "HTTP/1.0" {
                    has("keep-alive")
                } else {
                    !has("close")
                }
            };
            let target = if query.is_empty() {
                path.clone()
            } else {
                format!("{path}?{query}")
            };
            let mut headers = vec![format!("Host: {}", text(rng, &value, 0, 12))];
            for i in 0..below(rng, 4) {
                headers.push(format!("X-Extra-{i}: {}", text(rng, &value, 0, 40)));
            }
            if !connection.is_empty() {
                headers.push(format!("Connection: {connection}"));
            }
            if !body.is_empty() || below(rng, 2) == 0 {
                let name = pick(rng, &["Content-Length", "content-length", "CONTENT-LENGTH"]);
                let space = pick(rng, &["", " ", "   "]);
                headers.push(format!("{name}:{space}{}{space}", body.len()));
            }
            // Header order is free.
            for i in (1..headers.len()).rev() {
                headers.swap(i, below(rng, i + 1));
            }
            let raw = format!(
                "{method} {target} {version}\r\n{}\r\n\r\n{body}",
                headers.join("\r\n")
            )
            .into_bytes();
            Sample {
                raw,
                method: method.to_string(),
                path,
                query,
                body,
                keep_alive,
            }
        }

        /// What must hold for any bytes: a `Complete` never claims more
        /// bytes than the buffer holds, and a refusal is a 400 or 431.
        fn check_invariants(buf: &[u8]) {
            match parse_request(buf) {
                Parsed::Complete(_, n) => assert!(n <= buf.len(), "consumed {n} of {}", buf.len()),
                Parsed::Partial => {}
                Parsed::Bad(e) => assert!(matches!(e.status, 400 | 431), "{e}"),
            }
        }

        #[test]
        fn prop_random_requests_parse_back_field_for_field() {
            let mut rng = Rng::seed_from_u64(0x5e12_e001);
            for case in 0..400 {
                let s = sample(&mut rng);
                let mut buf = s.raw.clone();
                // A pipelined successor must be left in the buffer.
                if below(&mut rng, 2) == 0 {
                    buf.extend_from_slice(&sample(&mut rng).raw);
                }
                let (req, consumed) = complete(parse_request(&buf));
                assert_eq!(consumed, s.raw.len(), "case {case}");
                assert_eq!(req.method, s.method, "case {case}");
                assert_eq!(req.path, s.path, "case {case}");
                assert_eq!(req.query, s.query, "case {case}");
                assert_eq!(req.body, s.body, "case {case}");
                assert_eq!(req.keep_alive, s.keep_alive, "case {case}");
            }
        }

        #[test]
        fn prop_every_strict_prefix_is_partial() {
            let mut rng = Rng::seed_from_u64(0x5e12_e002);
            for case in 0..120 {
                let s = sample(&mut rng);
                for cut in 0..s.raw.len() {
                    assert!(
                        matches!(parse_request(&s.raw[..cut]), Parsed::Partial),
                        "case {case}: prefix of {cut} bytes is not Partial"
                    );
                }
            }
        }

        #[test]
        fn prop_mutated_requests_never_panic() {
            let mut rng = Rng::seed_from_u64(0x5e12_e003);
            for _ in 0..600 {
                let s = sample(&mut rng);
                let mut buf = s.raw.clone();
                let header_end = find_header_end(&buf).expect("a sample has a header block");
                let request_line_end = buf.windows(2).position(|w| w == b"\r\n").unwrap();
                match below(&mut rng, 4) {
                    0 => {
                        for _ in 0..1 + below(&mut rng, 4) {
                            let i = below(&mut rng, buf.len());
                            buf[i] = rng.next_u64() as u8;
                        }
                    }
                    1 => buf.truncate(below(&mut rng, buf.len())),
                    2 => {
                        let dup = format!("\r\nContent-Length: {}", below(&mut rng, 64));
                        buf.splice(request_line_end..request_line_end, dup.bytes());
                    }
                    _ => {
                        // Last header wins, so this one decides: past
                        // the body cap, or past usize.
                        let huge = pick(
                            &mut rng,
                            &["1048577", "18446744073709551615", "99999999999999999999999"],
                        );
                        let over = format!("\r\ncontent-length: {huge}");
                        buf.splice(header_end..header_end, over.bytes());
                        match parse_request(&buf) {
                            Parsed::Bad(e) => assert_eq!(e.status, 400, "{e}"),
                            _ => panic!("Content-Length {huge} was not refused"),
                        }
                    }
                }
                check_invariants(&buf);
                // The event loop parses after every read, at any split.
                for _ in 0..4 {
                    check_invariants(&buf[..below(&mut rng, buf.len() + 1)]);
                }
            }
        }
    }
}
