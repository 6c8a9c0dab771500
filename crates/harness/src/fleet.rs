//! `spechpc fleet` — the sharded execution fabric over `spechpc serve`.
//!
//! One **coordinator** daemon fronts N **worker** daemons (plain
//! [`serve`](crate::serve) instances). Requests are routed by
//! *consistent hashing* on the content-addressed
//! [`RunKey`]: a [`HashRing`] with virtual nodes
//! maps each key's 64-bit FNV hash to a preference order of workers, so
//! the same grid point always lands on the same worker (maximizing its
//! warm in-memory cache) and adding or losing a worker only remaps the
//! keys that worker owned.
//!
//! | route                  | coordinator behaviour                           |
//! |------------------------|-------------------------------------------------|
//! | `POST /v1/run`         | forward to the key's worker, failover on death  |
//! | `POST /v1/suite`       | shard the grid across workers, steal stragglers |
//! | `POST /v1/plan`        | forward to the plan hash's worker (cached shapes) |
//! | `GET /v1/health`       | coordinator + per-worker liveness               |
//! | `GET /v1/metrics`      | routing counters (per-worker routed, failovers) |
//! | `GET /v1/capabilities` | the shared route table + schema version         |
//! | `POST /v1/shutdown`    | begin graceful drain                            |
//!
//! Which class a route falls into (local / forward / fan-out) comes
//! from the shared registry ([`api::ENDPOINTS`]), the same table the
//! single daemon dispatches through.
//!
//! The coordinator has no HTTP server of its own: it runs
//! [`serve`](crate::serve)'s event loop in the coordinator role. The
//! loop answers local routes inline and hands forwards and fan-outs to
//! its pool, whose threads make the blocking worker exchanges, so the
//! coordinator frames, limits, times out, admits and drains exactly
//! like a worker daemon. Each worker address adds a daemon's default
//! pool width (8 threads) and admission bound (64 requests).
//!
//! Fault handling:
//!
//! * a **worker registry** tracks liveness; a background prober hits
//!   each worker's `GET /v1/health` and marks draining or unreachable
//!   workers dead (and revives them when they answer again);
//! * a forward that fails at the transport level, or is refused with
//!   `429`/`503`, **fails over** to the next worker on the ring; runs
//!   are content-addressed and therefore idempotent, so re-executing a
//!   request whose first worker died mid-flight is safe;
//! * a request is in flight on **one worker at a time**: the next
//!   worker is tried only after the previous one failed or refused, so
//!   a run simulates on its owner alone unless the owner fails it;
//! * suite grids are split into per-worker shards; a worker thread that
//!   drains its own shard **steals** pending points from the slowest
//!   shard, so one dead or slow worker cannot stall the suite;
//! * forwards reuse **pooled keep-alive connections**, one idle stack
//!   per worker; a pooled connection the worker has already closed (the
//!   stale keep-alive race) is dropped and the request resent once on a
//!   new connection, which counts as neither a retry nor a breaker
//!   failure. Health probes and peer fetches stay one-shot.
//!
//! Byte identity is preserved end to end: run responses are relayed
//! verbatim, and the coordinator reassembles suite responses in spec
//! order from the workers' cache-encoded result payloads, so a suite
//! routed through the fleet is byte-identical to the same suite on a
//! single daemon. Workers can also *pull* results from each other: the
//! executor's peer-fetch hook ([`peer_fetcher`]) asks each peer's
//! `GET /v1/cache/{hash}` before simulating, so a result computed
//! anywhere is served everywhere.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::api::{self, resolve_cluster, ApiError, Endpoint, EndpointId, RunRequest, SuiteRequest};
use crate::cache::{self, RunKey};
use crate::exec::{Executor, PeerFetch};
use crate::hash::{fnv1a, mix64};
use crate::json::{is_valid_json, Json};
use crate::plan::PlanRequest;
use crate::serve::{Role, ServeConfig, Server, ShutdownHandle};

/// Exponential backoff between full failover sweeps: 10 ms, 20, 40, …
/// capped at 640 ms.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((10u64 << (attempt.saturating_sub(1)).min(6)).min(640))
}

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring over worker indices. Each worker contributes
/// `vnodes` points (hashes of `"worker{i}#vnode{j}"`); a key is routed
/// to the first point clockwise from its own hash. [`HashRing::preference`]
/// returns the *full* failover order — every worker exactly once, in
/// ring order from the key — so callers walk past dead workers without
/// re-hashing.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, worker)` sorted by point.
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl HashRing {
    pub fn new(workers: usize, vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(workers * vnodes);
        for w in 0..workers {
            for v in 0..vnodes {
                points.push((mix64(fnv1a(format!("worker{w}#vnode{v}").bytes())), w));
            }
        }
        points.sort_unstable();
        HashRing { points, workers }
    }

    /// All workers in failover order for `key`: the key's owner first,
    /// then each remaining worker in the order its first point appears
    /// clockwise.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.workers);
        if self.points.is_empty() {
            return order;
        }
        let key = mix64(key);
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.workers];
        for i in 0..self.points.len() {
            let (_, w) = self.points[(start + i) % self.points.len()];
            if !seen[w] {
                seen[w] = true;
                order.push(w);
                if order.len() == self.workers {
                    break;
                }
            }
        }
        order
    }
}

// ---------------------------------------------------------------------------
// Minimal blocking HTTP client (coordinator → worker, peer fetch)
// ---------------------------------------------------------------------------

/// A decoded upstream response: status, relayed `Retry-After`, body.
#[derive(Debug, Clone)]
pub(crate) struct WireResponse {
    pub status: u16,
    pub retry_after: Option<u32>,
    pub body: String,
}

/// Why an upstream exchange produced no usable response. The split
/// matters to the failover loop: an [`Io`](TransportError::Io) failure
/// (refused, reset before headers, timed out) means the worker never
/// answered, while an [`Integrity`](TransportError::Integrity) failure
/// means it answered with bytes that cannot be trusted — a truncated
/// body, an implausible `Content-Length`, a mangled status line. A
/// request that exhausts its failovers on integrity failures becomes a
/// typed `502 bad_upstream`, never a silent splice of partial JSON.
#[derive(Debug)]
pub(crate) enum TransportError {
    /// The exchange failed below HTTP: connect, read or write error.
    Io(io::Error),
    /// Bytes arrived, but violate the response framing.
    Integrity(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "{e}"),
            TransportError::Integrity(msg) => write!(f, "response integrity: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// The stale keep-alive race: the peer closed or reset the
    /// connection before any response byte arrived (a timeout is not
    /// stale: the worker may be busy). On a pooled connection this
    /// means the worker had already dropped it, not that it failed the
    /// request.
    fn is_stale(&self) -> bool {
        matches!(self, TransportError::Io(e) if matches!(
            e.kind(),
            io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
        ))
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Upper bound on a plausible response body. Nothing the daemon emits
/// approaches this; a larger `Content-Length` is corruption, not data,
/// and must not make the client allocate unbounded memory.
const MAX_RESPONSE_BODY: usize = 64 * 1024 * 1024;

/// Upper bound on a response head (status line plus headers). A
/// daemon's head is about 100 bytes; bytes that never close the head
/// are corruption, not a response.
const MAX_RESPONSE_HEAD: usize = 16 * 1024;

fn resolve_addr(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("cannot resolve {addr}")))
}

/// Open a connection with timeouts on connect, read and write.
fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sockaddr = resolve_addr(addr)?;
    let stream = TcpStream::connect_timeout(&sockaddr, timeout.min(Duration::from_secs(2)))?;
    // Nagle on the client plus delayed ACK on the daemon would stall
    // every small request/response exchange by ~40 ms.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    // One write, so one segment under TCP_NODELAY: a server woken by
    // the head alone would parse a partial request.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(request.as_bytes())
}

/// Read one `Content-Length`-framed response off a stream, enforcing
/// integrity: the status line must parse, `Content-Length` must be a
/// plausible number, and the body must arrive complete and be UTF-8. A
/// violation is a typed [`TransportError::Integrity`] — partial bytes
/// are never returned as if they were a response.
///
/// The second value says whether the stream may carry another
/// exchange: only when the response asked for `Connection: keep-alive`
/// with an explicit `Content-Length` and the reads ended exactly at the
/// body's last byte. The body is never over-read, so any byte past it
/// in hand means the framing is not what the head claims.
///
/// An I/O error (an EOF, reset or timeout) is returned as
/// [`TransportError::Io`] only while no response byte has arrived; a
/// reset or EOF after the first byte is a torn response, so
/// [`TransportError::Integrity`]. A pooled connection that fails with
/// an EOF or a reset is therefore exactly the stale keep-alive race
/// ([`TransportError::is_stale`]).
fn read_response(stream: &mut impl Read) -> Result<(WireResponse, bool), TransportError> {
    // The head must end inside the first buffer; a body past it grows
    // the buffer to exactly its length.
    let mut buf = vec![0u8; MAX_RESPONSE_HEAD];
    let mut filled = 0usize;
    let header_end = loop {
        if let Some(pos) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if filled >= MAX_RESPONSE_HEAD {
            return Err(TransportError::Integrity(format!(
                "no end of response headers in {filled} bytes"
            )));
        }
        let n = read_some(
            stream,
            &mut buf[filled..],
            filled,
            "inside response headers",
        )?;
        if n == 0 {
            // A clean close before any byte is an I/O-level failure
            // (the peer never answered); a close after partial headers
            // means it answered with torn bytes.
            if filled == 0 {
                return Err(TransportError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response headers",
                )));
            }
            return Err(TransportError::Integrity(format!(
                "connection closed inside response headers after {filled} bytes"
            )));
        }
        filled += n;
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    if !status_line.starts_with("HTTP/1.") {
        return Err(TransportError::Integrity(format!(
            "malformed status line {status_line:?}"
        )));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            TransportError::Integrity(format!("malformed status line {status_line:?}"))
        })?;
    let mut content_length: Option<usize> = None;
    let mut retry_after = None;
    let mut keep_alive = false;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let v = v.trim();
        if k.eq_ignore_ascii_case("content-length") {
            let n: usize = v
                .parse()
                .map_err(|_| TransportError::Integrity(format!("bad Content-Length {v:?}")))?;
            if n > MAX_RESPONSE_BODY {
                return Err(TransportError::Integrity(format!(
                    "implausible Content-Length {n}"
                )));
            }
            if content_length.is_some_and(|m| m != n) {
                return Err(TransportError::Integrity(format!(
                    "conflicting Content-Length {n}"
                )));
            }
            content_length = Some(n);
        } else if k.eq_ignore_ascii_case("retry-after") {
            retry_after = v.parse().ok();
        } else if k.eq_ignore_ascii_case("connection") {
            keep_alive = v.eq_ignore_ascii_case("keep-alive");
        }
    }
    let body_start = header_end + 4;
    let total = body_start + content_length.unwrap_or(0);
    let exact = filled <= total;
    if buf.len() < total {
        buf.resize(total, 0);
    }
    while filled < total {
        let n = read_some(stream, &mut buf[filled..total], filled, "inside the body")?;
        if n == 0 {
            return Err(TransportError::Integrity(format!(
                "body truncated at {} of {} bytes",
                filled - body_start,
                total - body_start
            )));
        }
        filled += n;
    }
    // The body keeps its own bytes: drop the head in place, no copy out.
    buf.truncate(total);
    buf.drain(..body_start);
    let body = String::from_utf8(buf).map_err(|e| {
        TransportError::Integrity(format!(
            "body is not UTF-8 at byte {}",
            e.utf8_error().valid_up_to()
        ))
    })?;
    let reusable = keep_alive && content_length.is_some() && exact;
    Ok((
        WireResponse {
            status,
            retry_after,
            body,
        },
        reusable,
    ))
}

/// One read for [`read_response`]. Once `got` response bytes have
/// arrived, a failure other than a timeout tears the response and is
/// typed as an integrity failure.
fn read_some(
    stream: &mut impl Read,
    buf: &mut [u8],
    got: usize,
    at: &str,
) -> Result<usize, TransportError> {
    loop {
        match stream.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if got == 0
                    || matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(TransportError::Io(e))
            }
            Err(e) => {
                return Err(TransportError::Integrity(format!(
                    "{e} {at} after {got} response bytes"
                )))
            }
        }
    }
}

/// One `Connection: close` request/response exchange with timeouts on
/// connect, read and write: health probes and peer cache fetches.
pub(crate) fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<WireResponse, TransportError> {
    let mut stream = connect(addr, timeout)?;
    write_request(&mut stream, method, path, body, false)?;
    read_response(&mut stream).map(|(resp, _)| resp)
}

// ---------------------------------------------------------------------------
// Worker registry
// ---------------------------------------------------------------------------

/// Circuit-breaker state of one worker.
///
/// * **Closed** — healthy: routed to normally.
/// * **Open** — tripped: skipped on the live pass (the failover loop
///   still gives open workers one last-resort shot per sweep, and the
///   prober keeps testing them).
/// * **Half-open** — a probe succeeded while open: eligible for real
///   traffic again, but one forwarding failure re-opens immediately
///   instead of taking `BREAKER_THRESHOLD` fresh failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    /// The state's wire label (`/v1/health`, `/v1/metrics`, obs CSV).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    fn from_u8(v: u8) -> BreakerState {
        match v {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// Consecutive forwarding failures that trip a closed breaker open.
/// One flaky exchange on a noisy fabric must not eject a worker; three
/// in a row is a pattern.
const BREAKER_THRESHOLD: u32 = 3;

/// One worker's circuit breaker: state machine + trip counter.
struct Breaker {
    /// Encoded [`BreakerState`] (0 closed, 1 open, 2 half-open).
    state: AtomicU8,
    /// Consecutive forwarding failures while closed.
    failures: AtomicU32,
    /// Times this breaker has transitioned into open.
    trips: AtomicU64,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: AtomicU8::new(BreakerState::Closed as u8),
            failures: AtomicU32::new(0),
            trips: AtomicU64::new(0),
        }
    }

    fn state(&self) -> BreakerState {
        BreakerState::from_u8(self.state.load(Ordering::SeqCst))
    }

    fn set(&self, s: BreakerState) {
        let prev = self.state.swap(s as u8, Ordering::SeqCst);
        if s == BreakerState::Open && prev != BreakerState::Open as u8 {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        if s != BreakerState::Closed {
            return;
        }
        self.failures.store(0, Ordering::SeqCst);
    }
}

/// The fleet's view of its workers: addresses plus a circuit breaker
/// per worker, driven by health probes and by transport/integrity
/// failures on the forwarding path.
pub struct WorkerRegistry {
    addrs: Vec<String>,
    breakers: Vec<Breaker>,
}

impl WorkerRegistry {
    pub fn new(addrs: Vec<String>) -> Self {
        let breakers = addrs.iter().map(|_| Breaker::new()).collect();
        WorkerRegistry { addrs, breakers }
    }

    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    pub fn addr(&self, w: usize) -> &str {
        &self.addrs[w]
    }

    /// A worker is routable unless its breaker is open.
    pub fn is_alive(&self, w: usize) -> bool {
        self.breakers[w].state() != BreakerState::Open
    }

    /// The worker's breaker state.
    pub fn state(&self, w: usize) -> BreakerState {
        self.breakers[w].state()
    }

    /// Times the worker's breaker has tripped open.
    pub fn trips(&self, w: usize) -> u64 {
        self.breakers[w].trips.load(Ordering::Relaxed)
    }

    /// Record one forwarding failure. A half-open worker was on
    /// probation — it re-opens immediately; a closed worker takes
    /// `BREAKER_THRESHOLD` consecutive failures to trip.
    pub fn mark_dead(&self, w: usize) {
        let b = &self.breakers[w];
        match b.state() {
            BreakerState::Open => {}
            BreakerState::HalfOpen => b.set(BreakerState::Open),
            BreakerState::Closed => {
                if b.failures.fetch_add(1, Ordering::SeqCst) + 1 >= BREAKER_THRESHOLD {
                    b.set(BreakerState::Open);
                }
            }
        }
    }

    /// Record one forwarding success: close the breaker.
    pub fn mark_alive(&self, w: usize) {
        self.breakers[w].set(BreakerState::Closed);
    }

    pub fn live_count(&self) -> usize {
        (0..self.addrs.len()).filter(|&w| self.is_alive(w)).count()
    }

    /// Probe one worker's `GET /v1/health`. The probe is authoritative
    /// in the failure direction — a worker that cannot answer its own
    /// health check is opened immediately, no threshold. In the
    /// recovery direction it is deliberately cautious: a probe success
    /// moves an open breaker to **half-open**, and only a real
    /// forwarded request closes it — a daemon can answer `/v1/health`
    /// while still failing real work behind a degraded fabric.
    pub fn probe(&self, w: usize, timeout: Duration) -> bool {
        let live = match one_shot(
            &self.addrs[w],
            "GET",
            EndpointId::Health.path(),
            "",
            timeout,
        ) {
            Ok(resp) => resp.status == 200 && !resp.body.contains("\"draining\": true"),
            Err(_) => false,
        };
        let b = &self.breakers[w];
        match (live, b.state()) {
            (false, _) => b.set(BreakerState::Open),
            (true, BreakerState::Open) => b.set(BreakerState::HalfOpen),
            (true, _) => {}
        }
        live
    }

    /// Probe every worker once.
    pub fn probe_all(&self, timeout: Duration) {
        for w in 0..self.addrs.len() {
            self.probe(w, timeout);
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// How the coordinator listens and routes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Coordinator listen address (`host:port`; port `0` = ephemeral).
    pub addr: String,
    /// Worker daemon addresses.
    pub workers: Vec<String>,
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// Per-forward timeout (seconds) — covers the slowest simulation.
    pub request_timeout_s: f64,
    /// Health-probe cadence (seconds).
    pub probe_interval_s: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            addr: "127.0.0.1:8700".to_string(),
            workers: Vec::new(),
            vnodes: 64,
            request_timeout_s: 300.0,
            probe_interval_s: 0.5,
        }
    }
}

impl FleetConfig {
    /// Builder: coordinator listen address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Builder: worker addresses.
    pub fn with_workers(mut self, workers: Vec<String>) -> Self {
        self.workers = workers;
        self
    }

    /// Builder: virtual nodes per worker (min 1).
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes.max(1);
        self
    }

    /// Builder: per-forward timeout in seconds.
    pub fn with_request_timeout_s(mut self, secs: f64) -> Self {
        self.request_timeout_s = secs.max(0.1);
        self
    }

    /// Builder: health-probe cadence in seconds.
    pub fn with_probe_interval_s(mut self, secs: f64) -> Self {
        self.probe_interval_s = secs.max(0.05);
        self
    }

    /// Builder: a no-op, kept so callers that switched hedging off
    /// still build. A request is in flight on one worker at a time, so
    /// there is nothing to hedge.
    pub fn with_hedging(self, _: bool) -> Self {
        self
    }
}

/// Shared coordinator state: the routing half of the coordinator role
/// on [`serve`](crate::serve)'s event loop.
pub(crate) struct FleetCtx {
    registry: WorkerRegistry,
    ring: HashRing,
    /// Requests parsed by the coordinator's loop.
    pub(crate) requests: AtomicU64,
    failovers: AtomicU64,
    routed: Vec<AtomicU64>,
    /// Extra forwarding attempts beyond each request's first.
    retries_spent: AtomicU64,
    /// Idle keep-alive connections per worker, most recently used last.
    /// A connection is idle only between forwards, so a stack holds at
    /// most as many as were ever in flight to its worker at once.
    idle: Vec<Mutex<Vec<TcpStream>>>,
    /// splitmix64 counter state for decorrelated retry jitter.
    rng: AtomicU64,
    request_timeout: Duration,
    probe_interval: Duration,
}

impl FleetCtx {
    /// The next jitter draw in `[0, 1)` — lock-free: each caller
    /// advances a shared splitmix64 counter.
    fn jitter_unit(&self) -> f64 {
        let x = self.rng.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed);
        (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn idle(&self, w: usize) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.idle[w].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One vetted exchange with worker `w` on its most recently used
    /// idle connection, or on a new one. A pooled connection that turns
    /// out stale (closed or reset before any response byte) is dropped,
    /// and the request is sent once more on a new connection; that
    /// resend is not an attempt of its own.
    fn exchange(
        &self,
        w: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<WireResponse, TransportError> {
        let pooled = self.idle(w).pop();
        if let Some(stream) = pooled {
            match self.exchange_on(w, stream, method, path, body) {
                Err(e) if e.is_stale() => {}
                done => return done,
            }
        }
        let stream = connect(self.registry.addr(w), self.request_timeout)?;
        self.exchange_on(w, stream, method, path, body)
    }

    /// Send, read and vet one exchange on `stream`, then keep the
    /// connection for the next forward if the response was exactly
    /// framed, asked for keep-alive and passed vetting.
    fn exchange_on(
        &self,
        w: usize,
        mut stream: TcpStream,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<WireResponse, TransportError> {
        write_request(&mut stream, method, path, body, true)?;
        let (resp, reusable) = read_response(&mut stream)?;
        if !matches!(resp.status, 429 | 503) {
            // Framing was intact but the payload is not something the
            // daemon can have produced: same treatment as a torn body.
            vet_response(path, &resp).map_err(TransportError::Integrity)?;
        }
        if reusable {
            self.idle(w).push(stream);
        }
        Ok(resp)
    }
}

/// Drain trigger detached from the [`Coordinator`]'s lifetime: the
/// coordinator runs serve's loop, so it drains through the same handle.
pub type FleetShutdownHandle = ShutdownHandle;

/// Timeout of one health probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// The coordinator daemon. Bind with [`Coordinator::bind`], then block
/// on [`Coordinator::serve`] until drained.
pub struct Coordinator {
    server: Server,
    ctx: Arc<FleetCtx>,
}

impl Coordinator {
    pub fn bind(config: FleetConfig) -> io::Result<Coordinator> {
        if config.workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one worker address",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        // Each worker address adds one daemon's default pool width and
        // admission bound: a forward holds a pool thread for as long
        // as its worker takes, so the coordinator admits what its
        // workers would.
        let per_worker = ServeConfig::default();
        let admitted = per_worker.queue_depth * config.workers.len();
        let serve_config = ServeConfig::default()
            .with_workers(per_worker.workers * config.workers.len())
            .with_queue_depth(admitted)
            .with_max_inflight(admitted)
            .with_log_requests(false);
        let ring = HashRing::new(config.workers.len(), config.vnodes);
        let routed = config.workers.iter().map(|_| AtomicU64::new(0)).collect();
        let idle = config
            .workers
            .iter()
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let ctx = Arc::new(FleetCtx {
            registry: WorkerRegistry::new(config.workers),
            ring,
            requests: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            routed,
            retries_spent: AtomicU64::new(0),
            idle,
            rng: AtomicU64::new(0x005e_edc0_de0f_1ee7),
            request_timeout: Duration::from_secs_f64(config.request_timeout_s),
            probe_interval: Duration::from_secs_f64(config.probe_interval_s),
        });
        let server = Server::with_role(listener, Role::Coordinator(Arc::clone(&ctx)), serve_config);
        Ok(Coordinator { server, ctx })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.server.local_addr()
    }

    pub fn shutdown_handle(&self) -> FleetShutdownHandle {
        self.server.shutdown_handle()
    }

    /// Probe every worker, then run serve's event loop in the
    /// coordinator role until the drain latch flips, with a background
    /// prober keeping the registry current.
    pub fn serve(self) -> io::Result<()> {
        let Coordinator { server, ctx } = self;
        ctx.registry.probe_all(PROBE_TIMEOUT);
        let drain = server.shutdown_handle();
        let prober = {
            let drain = drain.clone();
            std::thread::spawn(move || {
                while !drain.draining() {
                    ctx.registry.probe_all(PROBE_TIMEOUT);
                    // Sleep in short slices so a drain isn't held up by
                    // a long probe interval.
                    let mut slept = Duration::ZERO;
                    while slept < ctx.probe_interval && !drain.draining() {
                        let step = (ctx.probe_interval - slept).min(Duration::from_millis(50));
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
        };
        let served = server.serve();
        // A loop that failed without draining must still stop the prober.
        drain.request_drain();
        let _ = prober.join();
        served
    }
}

/// A pooled coordinator route: forward to one worker, or fan out.
/// The shared route table ([`api::ENDPOINTS`]) already chose the pool
/// for this endpoint, the same table `serve` dispatches a daemon
/// through.
pub(crate) fn route(ctx: &FleetCtx, ep: &Endpoint, body: &str) -> Result<WireResponse, ApiError> {
    match ep.id {
        EndpointId::Run => forward_run(ctx, body),
        EndpointId::Plan => forward_plan(ctx, body),
        EndpointId::Suite => fan_out_suite(ctx, body).map(|(status, body)| WireResponse {
            status,
            retry_after: None,
            body,
        }),
        _ => Err(api::no_route(ep.method, ep.display_path)),
    }
}

/// The coordinator's `GET /v1/health`.
pub(crate) fn health_json(ctx: &FleetCtx, draining: bool) -> String {
    let workers = (0..ctx.registry.len())
        .map(|w| {
            Json::Obj(vec![
                ("addr".into(), Json::from(ctx.registry.addr(w))),
                ("alive".into(), Json::from(ctx.registry.is_alive(w))),
                ("breaker".into(), Json::from(ctx.registry.state(w).label())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("status".into(), Json::from("ok")),
        ("role".into(), Json::from("coordinator")),
        ("workers".into(), Json::Arr(workers)),
        ("draining".into(), Json::from(draining)),
    ])
    .render()
}

/// The coordinator's `GET /v1/metrics`.
pub(crate) fn metrics_json(ctx: &FleetCtx) -> String {
    Json::Obj(vec![
        (
            "requests".into(),
            Json::from(ctx.requests.load(Ordering::Relaxed)),
        ),
        (
            "failovers".into(),
            Json::from(ctx.failovers.load(Ordering::Relaxed)),
        ),
        (
            "workers_alive".into(),
            Json::from(ctx.registry.live_count()),
        ),
        (
            "per_worker_routed".into(),
            Json::Arr(
                ctx.routed
                    .iter()
                    .map(|r| Json::from(r.load(Ordering::Relaxed)))
                    .collect(),
            ),
        ),
        (
            "breaker_states".into(),
            Json::Arr(
                (0..ctx.registry.len())
                    .map(|w| Json::from(ctx.registry.state(w).label()))
                    .collect(),
            ),
        ),
        (
            "breaker_trips".into(),
            Json::from(
                (0..ctx.registry.len())
                    .map(|w| ctx.registry.trips(w))
                    .sum::<u64>(),
            ),
        ),
        (
            "retries_spent".into(),
            Json::from(ctx.retries_spent.load(Ordering::Relaxed)),
        ),
    ])
    .render()
}

/// The ring hash of one run request — the same FNV the cache files are
/// named by, so routing follows data placement exactly.
fn key_hash_of(req: &RunRequest) -> Result<u64, ApiError> {
    let cluster = resolve_cluster(&req.cluster)?;
    let spec = req.spec(&cluster);
    let key = RunKey::new(
        &cluster.name,
        &spec.benchmark,
        &spec.class.to_string(),
        spec.nranks,
        &req.config,
    );
    Ok(fnv1a(key.canonical().bytes()))
}

/// Forward one `POST /v1/run` body to the key's worker through the
/// failover walk. Re-forwarding after a failure is safe: runs are
/// content-addressed, so the worst case is a recomputed (identical)
/// result.
fn forward_run(ctx: &FleetCtx, body: &str) -> Result<WireResponse, ApiError> {
    let req = RunRequest::from_json(body)?;
    let hash = key_hash_of(&req)?;
    forward_with_failover(ctx, hash, "POST", EndpointId::Run.path(), body)
}

/// Forward one `POST /v1/plan` body to the worker owning its canonical
/// request hash. Planner replies are pure functions of the request, so
/// hash routing lands a replay on the worker whose run cache already
/// holds the plan's job shapes — the second identical POST is
/// engine-free and byte-identical. Parsing here also rejects malformed
/// plans at the coordinator without spending a forward.
fn forward_plan(ctx: &FleetCtx, body: &str) -> Result<WireResponse, ApiError> {
    let req = PlanRequest::from_json(body)?;
    let hash = fnv1a(req.to_json().bytes());
    forward_with_failover(ctx, hash, "POST", EndpointId::Plan.path(), body)
}

/// What one worker exchange produced, with breaker bookkeeping done.
enum Attempt {
    /// A trustworthy response to relay (may be 4xx/5xx from the worker
    /// itself — those are typed and valid).
    Success(WireResponse),
    /// The worker refused with `429`/`503` — it is healthy but loaded
    /// or draining; try elsewhere, relay the refusal as a last resort.
    Refusal(WireResponse),
    /// No usable response; `integrity` records whether bytes arrived
    /// but were corrupt (vs. no answer at all).
    Failure { integrity: bool },
}

/// One exchange with worker `w`, including the integrity gate and the
/// breaker/routing bookkeeping.
fn attempt(ctx: &FleetCtx, w: usize, method: &str, path: &str, body: &str) -> Attempt {
    match ctx.exchange(w, method, path, body) {
        Ok(resp) if matches!(resp.status, 429 | 503) => Attempt::Refusal(resp),
        Ok(resp) => {
            ctx.registry.mark_alive(w);
            ctx.routed[w].fetch_add(1, Ordering::Relaxed);
            Attempt::Success(resp)
        }
        Err(e) => {
            ctx.registry.mark_dead(w);
            Attempt::Failure {
                integrity: matches!(e, TransportError::Integrity(_)),
            }
        }
    }
}

/// Payload-level integrity: every daemon response body is JSON (checked
/// by the JSON grammar without building a tree), and a `200` run body
/// must be the exact splice envelope (`{\n  "result": …\n}\n`) the
/// suite reassembly depends on. Garbage that kept its framing dies here
/// instead of reaching a client.
fn vet_response(path: &str, resp: &WireResponse) -> Result<(), String> {
    if !is_valid_json(&resp.body) {
        return Err(format!(
            "status {} body is not valid JSON ({} bytes)",
            resp.status,
            resp.body.len()
        ));
    }
    if path == EndpointId::Run.path()
        && resp.status == 200
        && api::run_result_of(&resp.body).is_none()
    {
        return Err("200 run body is not the result envelope".to_string());
    }
    Ok(())
}

/// Walk the key's full preference order with a bounded retry budget:
/// live workers first, then one last-resort shot at open-breaker
/// workers, sweeping the ring with decorrelated-jitter backoff until
/// the budget runs out. Terminal outcomes are always typed: a relayed
/// refusal, `502 bad_upstream` when every answer was corrupt, or `503
/// no_workers` when nobody answered at all.
fn forward_with_failover(
    ctx: &FleetCtx,
    key_hash: u64,
    method: &str,
    path: &str,
    body: &str,
) -> Result<WireResponse, ApiError> {
    let order = ctx.ring.preference(key_hash);
    if order.is_empty() {
        return Err(ApiError::new(
            503,
            "no_workers",
            "no live worker reachable for this request",
        ));
    }
    // Enough budget for two full ring sweeps plus a tail of retries
    // against a flapping fabric — bounded so a request cannot spin
    // forever, generous enough that one live worker among corrupt
    // peers is always reached.
    let budget = 2 * order.len() + 6;
    let mut attempts = 0usize;
    let mut last_refusal: Option<WireResponse> = None;
    let mut saw_integrity = false;
    let mut sleep_ms = 0f64;
    'sweeps: for sweep in 0u32.. {
        if sweep > 0 {
            // Decorrelated jitter: each sweep sleeps a uniformly random
            // slice of [base, 3 × previous], capped — concurrent
            // requests failing over the same dead worker spread out
            // instead of thundering back in lockstep.
            let base = backoff(1).as_millis() as f64;
            let cap = backoff(u32::MAX).as_millis() as f64;
            let hi = (sleep_ms * 3.0).clamp(base, cap);
            sleep_ms = base + ctx.jitter_unit() * (hi - base);
            std::thread::sleep(Duration::from_micros((sleep_ms * 1e3) as u64));
        }
        // Live workers in ring order first, then one shot at the open
        // ones — a tripped worker may be back before the prober
        // notices.
        let pass: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&w| ctx.registry.is_alive(w))
            .chain(order.iter().copied().filter(|&w| !ctx.registry.is_alive(w)))
            .collect();
        for (i, w) in pass.into_iter().enumerate() {
            if attempts >= budget {
                break 'sweeps;
            }
            attempts += 1;
            if attempts > 1 {
                ctx.retries_spent.fetch_add(1, Ordering::Relaxed);
            }
            match attempt(ctx, w, method, path, body) {
                Attempt::Success(resp) => {
                    if i > 0 || sweep > 0 {
                        ctx.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(resp);
                }
                Attempt::Refusal(resp) => last_refusal = Some(resp),
                Attempt::Failure { integrity } => saw_integrity |= integrity,
            }
        }
    }
    match last_refusal {
        Some(resp) => Ok(resp),
        None if saw_integrity => Err(ApiError::bad_upstream(
            "every reachable worker answered with corrupt or truncated bytes",
        )),
        None => Err(ApiError::new(
            503,
            "no_workers",
            "no live worker reachable for this request",
        )),
    }
}

/// One suite grid point, pre-serialized for forwarding.
struct SuitePoint {
    /// `benchmark/class/nranks@cluster` — the failure label.
    label: String,
    key_hash: u64,
    body: String,
}

/// A routed point's outcome: the worker's run body, or the failure the
/// suite report blames.
type PointOutcome = Result<String, (String, String)>;

/// Shard a `POST /v1/suite` across the fleet and reassemble the exact
/// single-daemon response bytes: results in spec (Table 1) order, each
/// spliced verbatim from the owning worker's cache-encoded run payload.
fn fan_out_suite(ctx: &FleetCtx, body: &str) -> Result<(u16, String), ApiError> {
    let req = SuiteRequest::from_json(body)?;
    let cluster = resolve_cluster(&req.cluster)?;
    let suite = req.suite(&cluster);
    api::fits_cluster("the suite", suite.nranks, &cluster)?;
    let points: Vec<SuitePoint> = suite
        .specs()
        .into_iter()
        .map(|spec| {
            let run = RunRequest::new(spec.benchmark.clone(), spec.class, spec.nranks)
                .with_cluster(req.cluster.clone())
                .with_config(req.config.clone());
            SuitePoint {
                label: Executor::label_of(&cluster, &spec),
                key_hash: key_hash_of(&run).expect("cluster already resolved"),
                body: run.to_json(),
            }
        })
        .collect();

    // Shard by ring ownership; per-worker queues, stolen when drained.
    let shards: Vec<Mutex<VecDeque<usize>>> = (0..ctx.registry.len())
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (i, p) in points.iter().enumerate() {
        let owner = ctx
            .ring
            .preference(p.key_hash)
            .into_iter()
            .find(|&w| ctx.registry.is_alive(w))
            .unwrap_or(0);
        shards[owner]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(i);
    }
    let outcomes: Vec<Mutex<Option<PointOutcome>>> =
        points.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..ctx.registry.len() {
            let shards = &shards;
            let outcomes = &outcomes;
            let points = &points;
            scope.spawn(move || loop {
                // Own shard first, then steal from the longest queue —
                // a dead or slow worker's backlog drains through its
                // peers instead of stalling the suite. The own-queue
                // guard must be dropped before scanning the others: the
                // scan re-locks every shard, including our own.
                let own = shards[w]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                let claimed = match own {
                    Some(i) => Some(i),
                    None => shards
                        .iter()
                        .max_by_key(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
                        .and_then(|s| s.lock().unwrap_or_else(|e| e.into_inner()).pop_back()),
                };
                let Some(i) = claimed else { break };
                let p = &points[i];
                let outcome = match forward_with_failover(
                    ctx,
                    p.key_hash,
                    "POST",
                    EndpointId::Run.path(),
                    &p.body,
                ) {
                    Ok(resp) if resp.status == 200 => Ok(resp.body),
                    Ok(resp) => Err(ApiError::from_json(&resp.body)
                        .map(|e| (e.code, e.message))
                        .unwrap_or_else(|| {
                            (
                                "bad_upstream".to_string(),
                                format!(
                                    "worker sent {} with an undecodable error body",
                                    resp.status
                                ),
                            )
                        })),
                    Err(e) => Err((e.code, e.message)),
                };
                *outcomes[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
            });
        }
    });

    // Reassemble the exact SuiteResponse byte format.
    let mut results: Vec<&str> = Vec::new();
    let mut failures: Vec<(String, String, String)> = Vec::new();
    let collected: Vec<PointOutcome> = outcomes
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| {
                    Err((
                        "internal".to_string(),
                        "shard worker exited without depositing a result".to_string(),
                    ))
                })
        })
        .collect();
    for (i, outcome) in collected.iter().enumerate() {
        match outcome {
            Ok(run_body) => {
                // Splice the cache-encoded result back out verbatim.
                match api::run_result_of(run_body) {
                    Some(encoded) => results.push(encoded),
                    None => failures.push((
                        points[i].label.clone(),
                        "bad_upstream".to_string(),
                        "worker sent an unparseable run payload".to_string(),
                    )),
                }
            }
            Err((code, message)) => {
                failures.push((points[i].label.clone(), code.clone(), message.clone()))
            }
        }
    }
    let status = if failures.is_empty() { 200 } else { 207 };
    Ok((
        status,
        api::suite_body(&cluster.name, req.class, &results, &failures),
    ))
}

// ---------------------------------------------------------------------------
// Peer cache fetch (worker → worker)
// ---------------------------------------------------------------------------

/// How long a peer-cache lookup may take before the worker gives up and
/// simulates locally — a peer fetch must never cost more than a small
/// fraction of the run it would save.
const PEER_FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// Build the executor's peer-fetch hook over a fleet's peer list: on a
/// local cache miss, ask each peer's `GET /v1/cache/{hash}` and verify
/// the returned entry against the full canonical key
/// ([`cache::decode_entry`] checks schema and key, so a hash collision
/// or stale peer can never smuggle in a wrong result). Unreachable
/// peers are skipped silently — a miss just means simulating locally.
pub fn peer_fetcher(peers: Vec<String>) -> PeerFetch {
    Arc::new(move |key: &RunKey| {
        let path = format!("{}{}", EndpointId::CacheEntry.path(), key.hash_hex());
        let canonical = key.canonical();
        for addr in &peers {
            if let Ok(resp) = one_shot(addr, "GET", &path, "", PEER_FETCH_TIMEOUT) {
                if resp.status == 200 {
                    if let Some(result) = cache::decode_entry(&resp.body, &canonical) {
                        return Some(result);
                    }
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_kernels::common::config::WorkloadClass;

    #[test]
    fn ring_routing_is_deterministic_and_covers_every_worker() {
        let ring = HashRing::new(3, 64);
        for key in [
            0u64,
            1,
            u64::MAX,
            0xdeadbeef,
            fnv1a("v3|lbm|ClusterA".bytes()),
        ] {
            let order = ring.preference(key);
            assert_eq!(order.len(), 3, "every worker appears once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(order, ring.preference(key), "routing is deterministic");
        }
    }

    #[test]
    fn ring_spreads_keys_and_mostly_survives_resize() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        let keys: Vec<u64> = (0..1000)
            .map(|i| fnv1a(format!("key{i}").bytes()))
            .collect();
        for &k in &keys {
            counts[ring.preference(k)[0]] += 1;
        }
        for (w, &c) in counts.iter().enumerate() {
            assert!(
                (100..500).contains(&c),
                "worker {w} owns {c} of 1000 keys — ring is badly skewed"
            );
        }
        // Consistent hashing's point: adding a worker remaps only a
        // fraction of the keyspace.
        let bigger = HashRing::new(5, 64);
        let moved = keys
            .iter()
            .filter(|&&k| {
                let old = ring.preference(k)[0];
                let new = bigger.preference(k)[0];
                new != old && new != 4
            })
            .count();
        assert!(
            moved < 100,
            "{moved} of 1000 keys moved between surviving workers"
        );
    }

    #[test]
    fn key_hash_matches_the_cache_file_name() {
        let req = RunRequest::new("lbm", WorkloadClass::Tiny, 4);
        let cluster = resolve_cluster(&req.cluster).unwrap();
        let spec = req.spec(&cluster);
        let key = RunKey::new(
            &cluster.name,
            &spec.benchmark,
            &spec.class.to_string(),
            spec.nranks,
            &req.config,
        );
        let hash = key_hash_of(&req).unwrap();
        assert_eq!(
            format!("{hash:016x}"),
            key.hash_hex(),
            "ring placement must follow cache placement"
        );
    }

    #[test]
    fn backoff_doubles_up_to_its_cap() {
        assert_eq!(backoff(1), Duration::from_millis(10));
        assert_eq!(backoff(4), Duration::from_millis(80));
        assert_eq!(backoff(32), Duration::from_millis(640));
    }

    #[test]
    fn registry_marks_unreachable_workers_dead() {
        // A bound-then-dropped listener yields a connection refusal.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let reg = WorkerRegistry::new(vec![addr]);
        assert!(reg.is_alive(0), "workers start presumed-live");
        assert!(!reg.probe(0, Duration::from_millis(200)));
        assert!(!reg.is_alive(0));
        assert_eq!(reg.live_count(), 0);
        reg.mark_alive(0);
        assert_eq!(reg.live_count(), 1);
    }

    #[test]
    fn breaker_trips_after_threshold_and_reopens_from_half_open() {
        let reg = WorkerRegistry::new(vec!["127.0.0.1:1".to_string()]);
        assert_eq!(reg.state(0), BreakerState::Closed);
        // Closed absorbs BREAKER_THRESHOLD - 1 consecutive failures…
        for _ in 0..BREAKER_THRESHOLD - 1 {
            reg.mark_dead(0);
            assert!(reg.is_alive(0), "under threshold stays routable");
        }
        // …and the threshold-th failure trips it open.
        reg.mark_dead(0);
        assert_eq!(reg.state(0), BreakerState::Open);
        assert!(!reg.is_alive(0));
        assert_eq!(reg.trips(0), 1);
        // Extra failures while open neither re-trip nor reset.
        reg.mark_dead(0);
        assert_eq!(reg.trips(0), 1);
        // A forwarding success closes the breaker and resets the
        // failure streak: the next single failure must not trip.
        reg.mark_alive(0);
        assert_eq!(reg.state(0), BreakerState::Closed);
        reg.mark_dead(0);
        assert!(reg.is_alive(0), "streak was reset on success");
        // Trip again, then simulate probe-driven recovery: the breaker
        // goes half-open (routable, on probation) and a single failure
        // re-opens immediately.
        reg.mark_dead(0);
        reg.mark_dead(0);
        assert_eq!(reg.state(0), BreakerState::Open);
        assert_eq!(reg.trips(0), 2);
        reg.breakers[0].set(BreakerState::HalfOpen);
        assert!(reg.is_alive(0));
        reg.mark_dead(0);
        assert_eq!(reg.state(0), BreakerState::Open);
        assert_eq!(reg.trips(0), 3, "half-open failure re-trips at once");
    }

    #[test]
    fn probe_success_only_half_opens_a_tripped_breaker() {
        // A live dummy HTTP server that always answers 200 /v1/health.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { break };
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                let body = "{\"status\": \"ok\"}\n";
                let _ = s.write_all(
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    )
                    .as_bytes(),
                );
            }
        });
        let reg = WorkerRegistry::new(vec![addr]);
        for _ in 0..BREAKER_THRESHOLD {
            reg.mark_dead(0);
        }
        assert_eq!(reg.state(0), BreakerState::Open);
        assert!(reg.probe(0, Duration::from_secs(2)));
        assert_eq!(
            reg.state(0),
            BreakerState::HalfOpen,
            "a health answer is probation, not a clean bill — only real \
             forwarded work closes the breaker"
        );
        assert!(reg.is_alive(0));
        reg.mark_alive(0);
        assert_eq!(reg.state(0), BreakerState::Closed);
    }

    #[test]
    fn read_response_types_torn_and_corrupt_bytes() {
        // A server scripted to emit `raw` then close.
        let serve_raw = |raw: &'static [u8]| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || {
                if let Some(Ok(mut s)) = listener.incoming().next() {
                    let mut buf = [0u8; 1024];
                    let _ = s.read(&mut buf);
                    let _ = s.write_all(raw);
                }
            });
            one_shot(&addr, "GET", "/", "", Duration::from_secs(2))
        };
        let torn = serve_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly a few");
        assert!(
            matches!(&torn, Err(TransportError::Integrity(m)) if m.contains("truncated")),
            "{torn:?}"
        );
        let garbage = serve_raw(b"\xff\xfe\xfdgarbage bytes, no HTTP here\r\n\r\n");
        assert!(
            matches!(&garbage, Err(TransportError::Integrity(m)) if m.contains("status line")),
            "{garbage:?}"
        );
        let bad_len = serve_raw(b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n");
        assert!(
            matches!(&bad_len, Err(TransportError::Integrity(m)) if m.contains("Content-Length")),
            "{bad_len:?}"
        );
        let half_headers = serve_raw(b"HTTP/1.1 200 OK\r\nContent-Le");
        assert!(
            matches!(&half_headers, Err(TransportError::Integrity(m)) if m.contains("headers")),
            "{half_headers:?}"
        );
        // A run envelope that is valid JSON around bytes that are not
        // UTF-8: relaying it would replace them with U+FFFD, bytes the
        // worker never sent.
        let not_utf8 = serve_raw(
            b"HTTP/1.1 200 OK\r\nContent-Length: 21\r\n\r\n{\n  \"result\": \"\xff\xfe\"\n}\n",
        );
        assert!(
            matches!(&not_utf8, Err(TransportError::Integrity(m)) if m.contains("UTF-8")),
            "{not_utf8:?}"
        );
        let clean = serve_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(clean.unwrap().body, "ok");
    }

    #[test]
    fn vet_response_rejects_json_shaped_garbage() {
        let ok = WireResponse {
            status: 200,
            retry_after: None,
            body: "{\n  \"result\": {\"x\": 1}\n}\n".to_string(),
        };
        assert!(vet_response("/v1/run", &ok).is_ok());
        let not_json = WireResponse {
            status: 200,
            retry_after: None,
            body: "\u{18}\u{7f}!!not json!!".to_string(),
        };
        assert!(vet_response("/v1/run", &not_json).is_err());
        assert!(vet_response("/v1/health", &not_json).is_err());
        let wrong_envelope = WireResponse {
            status: 200,
            retry_after: None,
            body: "{\"result\": 1}".to_string(),
        };
        assert!(
            vet_response("/v1/run", &wrong_envelope).is_err(),
            "valid JSON that is not the splice envelope must not reach the splicer"
        );
        assert!(
            vet_response("/v1/health", &wrong_envelope).is_ok(),
            "the envelope rule only binds run responses"
        );
    }
    /// Seeded mutation suite for `read_response`, in the style of
    /// serve's `parse_request` suite: well-framed responses read back
    /// exactly, and mutated ones never panic, never come back misframed
    /// and never leave a connection marked reusable unless the framing
    /// was exact.
    mod prop {
        use super::*;
        use spechpc_kernels::common::rng::Rng;

        fn below(rng: &mut Rng, n: usize) -> usize {
            (rng.next_u64() % n as u64) as usize
        }

        fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
            from[below(rng, from.len())]
        }

        /// Hands `bytes` out in seeded chunks, then EOF: the way a
        /// socket may split one response across reads.
        struct Trickle<'a> {
            bytes: &'a [u8],
            rng: Rng,
        }

        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let chunk = match below(&mut self.rng, 3) {
                    0 => 1 + below(&mut self.rng, 8),
                    1 => 1 + below(&mut self.rng, 512),
                    _ => 1 + below(&mut self.rng, 8192),
                };
                let n = chunk.min(buf.len()).min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes = &self.bytes[n..];
                Ok(n)
            }
        }

        /// A well-framed response and what it must read back as.
        struct Sample {
            raw: Vec<u8>,
            status: u16,
            body: String,
            keep_alive: bool,
        }

        fn sample(rng: &mut Rng) -> Sample {
            let body_chars: Vec<char> = "a{}[]\":,0 \r\né∑🙂".chars().collect();
            let len = match below(rng, 4) {
                0 => 0,
                1 => 2048 + below(rng, 4096),
                _ => below(rng, 96),
            };
            let body: String = (0..len)
                .map(|_| body_chars[below(rng, body_chars.len())])
                .collect();
            let status = [200u16, 207, 400, 404, 429, 502, 503][below(rng, 7)];
            let connection = pick(rng, &["keep-alive", "Keep-Alive", "close", ""]);
            let mut headers = vec![
                "Content-Type: application/json".to_string(),
                format!(
                    "{}:{}{}",
                    pick(rng, &["Content-Length", "content-length", "CONTENT-LENGTH"]),
                    pick(rng, &["", " ", "  "]),
                    body.len()
                ),
            ];
            if !connection.is_empty() {
                headers.push(format!("Connection: {connection}"));
            }
            if below(rng, 3) == 0 {
                headers.push(format!("Retry-After: {}", below(rng, 60)));
            }
            for i in (1..headers.len()).rev() {
                headers.swap(i, below(rng, i + 1));
            }
            let raw = format!(
                "HTTP/1.1 {status} Reason\r\n{}\r\n\r\n{body}",
                headers.join("\r\n")
            )
            .into_bytes();
            Sample {
                raw,
                status,
                body,
                keep_alive: connection.eq_ignore_ascii_case("keep-alive"),
            }
        }

        fn trickle(bytes: &[u8], rng: &mut Rng) -> Result<(WireResponse, bool), TransportError> {
            let mut reader = Trickle {
                bytes,
                rng: Rng::seed_from_u64(rng.next_u64()),
            };
            read_response(&mut reader)
        }

        /// What must hold for any bytes a read accepted: the body is the
        /// `Content-Length` bytes right after the first blank line, and
        /// a reusable connection was framed exactly, with keep-alive.
        fn check_accepted(bytes: &[u8], resp: &WireResponse, reusable: bool, all_read: bool) {
            let header_end = bytes
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("an accepted response has a head");
            let head = String::from_utf8_lossy(&bytes[..header_end]);
            let declared = head
                .split("\r\n")
                .filter_map(|l| l.split_once(':'))
                .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .map(|(_, v)| v.trim().parse::<usize>().expect("accepted length parses"))
                .last();
            let body_start = header_end + 4;
            assert_eq!(resp.body.len(), declared.unwrap_or(0), "{head:?}");
            assert_eq!(
                resp.body.as_bytes(),
                &bytes[body_start..body_start + resp.body.len()],
                "{head:?}"
            );
            if reusable {
                assert!(declared.is_some(), "reusable without a length: {head:?}");
                assert!(
                    head.split("\r\n").any(|l| l
                        .split_once(':')
                        .is_some_and(|(k, v)| k.eq_ignore_ascii_case("connection")
                            && v.trim().eq_ignore_ascii_case("keep-alive"))),
                    "reusable without keep-alive: {head:?}"
                );
                if all_read {
                    assert_eq!(bytes.len(), body_start + resp.body.len(), "{head:?}");
                }
            }
        }

        #[test]
        fn prop_framed_responses_read_back_exactly() {
            let mut rng = Rng::seed_from_u64(0xf1ee_7001);
            for case in 0..300 {
                let s = sample(&mut rng);
                let (resp, reusable) =
                    trickle(&s.raw, &mut rng).unwrap_or_else(|e| panic!("case {case}: {e}"));
                assert_eq!(resp.status, s.status, "case {case}");
                assert_eq!(resp.body, s.body, "case {case}");
                assert_eq!(reusable, s.keep_alive, "case {case}");
                // One byte past the body, in hand with the rest: the
                // response still reads, the connection is not reused.
                let mut extra = s.raw.clone();
                extra.push(b"H{\n"[below(&mut rng, 3)]);
                let (resp, reusable) =
                    read_response(&mut extra.as_slice()).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(resp.body, s.body, "case {case}");
                assert!(!reusable, "case {case}: a trailing byte must forbid reuse");
            }
        }

        #[test]
        fn prop_mutated_responses_never_panic_or_misframe() {
            let mut rng = Rng::seed_from_u64(0xf1ee_7002);
            let mut rejected = 0;
            for case in 0..800 {
                let s = sample(&mut rng);
                let mut bytes = s.raw.clone();
                let header_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
                let status_end = bytes.windows(2).position(|w| w == b"\r\n").unwrap();
                // Mutations whose bytes can never be a response.
                let mut bad = true;
                match below(&mut rng, 6) {
                    0 => {
                        bad = false;
                        for _ in 0..1 + below(&mut rng, 4) {
                            let i = below(&mut rng, bytes.len());
                            bytes[i] = rng.next_u64() as u8;
                        }
                    }
                    1 => bytes.truncate(below(&mut rng, bytes.len())),
                    2 => {
                        let other = s.body.len() + 1 + below(&mut rng, 64);
                        let dup = format!("\r\nContent-Length: {other}");
                        bytes.splice(status_end..status_end, dup.bytes());
                    }
                    3 if !s.body.is_empty() => {
                        let i = header_end + 4 + below(&mut rng, s.body.len());
                        bytes[i] = 0xff;
                    }
                    4 => {
                        let huge = pick(
                            &mut rng,
                            &["67108865", "18446744073709551616", "-1", "12a", ""],
                        );
                        let over = format!("\r\ncontent-length: {huge}");
                        bytes.splice(header_end..header_end, over.bytes());
                    }
                    _ => {
                        // Junk before the status line.
                        let junk = pick(&mut rng, &["\r\n", " ", "{}", "\u{feff}"]);
                        bytes.splice(0..0, junk.bytes());
                    }
                }
                let trickled = trickle(&bytes, &mut rng);
                let whole = read_response(&mut bytes.as_slice());
                for (got, all_read) in [(&trickled, false), (&whole, true)] {
                    match got {
                        Ok((resp, reusable)) => {
                            assert!(!bad, "case {case}: accepted bad bytes {bytes:?}");
                            check_accepted(&bytes, resp, *reusable, all_read);
                        }
                        Err(TransportError::Io(e)) => {
                            // Only silence is an I/O failure here: the
                            // reader never errors, so no byte arrived.
                            assert!(bytes.is_empty(), "case {case}: {e}");
                            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                        }
                        Err(TransportError::Integrity(_)) => {}
                    }
                }
                assert_eq!(
                    trickled.is_ok(),
                    whole.is_ok(),
                    "case {case}: the read split changed the verdict"
                );
                rejected += usize::from(whole.is_err());
            }
            assert!(rejected > 400, "only {rejected} of 800 mutations rejected");
        }
    }
}
