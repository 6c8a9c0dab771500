//! `spechpc chaos` — a deterministic, seeded fault-injecting TCP proxy.
//!
//! PR 4 gave the *simulation* reproducible faults (os-noise,
//! stragglers, flaky links); this module gives the *service fabric* the
//! same treatment at the transport layer. A [`ChaosProxy`] slots
//! between clients and a daemon (or between the fleet coordinator and
//! its workers) and injects network pathologies according to a
//! [`ChaosPlan`] — a TOML file in the `faultcfg` style:
//!
//! ```toml
//! seed = 42
//!
//! [[fault]]
//! kind = "delay"          # hold the first byte of a direction
//! direction = "downstream"
//! prob = 0.25
//! delay_ms = 150
//!
//! [[fault]]
//! kind = "throttle"       # bandwidth cap on one direction
//! direction = "both"
//! prob = 0.5
//! bytes_per_s = 65536
//!
//! [[fault]]
//! kind = "truncate"       # relay N bytes, then close cleanly
//! direction = "downstream"
//! prob = 0.1
//! after_bytes = 512
//!
//! [[fault]]
//! kind = "garbage"        # relay N bytes, splice garbage, close
//! direction = "downstream"
//! prob = 0.05
//! after_bytes = 64
//! bytes = 32
//!
//! [[fault]]
//! kind = "reset"          # abortive close (RST) mid-body
//! direction = "downstream"
//! prob = 0.05
//! after_bytes = 256
//!
//! [[fault]]
//! kind = "black-hole"     # accept, read, never answer
//! prob = 0.02
//! ```
//!
//! **Determinism is the point.** Whether a fault fires on a given
//! connection is decided by a stateless hash of `(seed, connection
//! ordinal, fault index)` — the same construction the simulation's
//! fault layer uses per `(seed, rank, op)` — so the same `(plan, seed)`
//! replays the exact same fault schedule on every run: connection 17
//! gets its response truncated on Tuesday and on every CI rerun after.
//! Garbage bytes come from the same hash chain, so even the corruption
//! is bit-identical.
//!
//! The proxy is intentionally protocol-blind: it splices bytes in both
//! directions and injures them. Everything the fabric must survive —
//! torn HTTP responses, stalled reads, garbage where JSON should be —
//! emerges from these six primitive injuries. The chaos property suite
//! (`tests/chaos.rs`) and the `chaos-smoke` CI job drive the fleet
//! through this proxy and assert the hardened invariant: every client
//! gets byte-identical correct bytes or a typed 5xx, never corrupt
//! JSON, never a hang past its deadline.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::faultcfg::{self, check_keys, PlanError, TableData};
use crate::hash::mix64;

// ---------------------------------------------------------------------------
// Plan model
// ---------------------------------------------------------------------------

/// Which relay direction a fault injures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → upstream bytes (the request path).
    Upstream,
    /// Upstream → client bytes (the response path).
    Downstream,
    /// Both directions.
    Both,
}

impl Direction {
    fn parse(s: &str, line: usize) -> Result<Direction, PlanError> {
        match s {
            "upstream" => Ok(Direction::Upstream),
            "downstream" => Ok(Direction::Downstream),
            "both" => Ok(Direction::Both),
            other => Err(PlanError::at(
                line,
                format!("unknown direction '{other}' (use upstream|downstream|both)"),
            )),
        }
    }

    fn hits(self, downstream: bool) -> bool {
        match self {
            Direction::Both => true,
            Direction::Downstream => downstream,
            Direction::Upstream => !downstream,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::Upstream => "upstream",
            Direction::Downstream => "downstream",
            Direction::Both => "both",
        })
    }
}

/// What one `[[fault]]` entry injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hold the direction's first byte for `delay_ms`.
    Delay { delay_ms: u64 },
    /// Cap the direction's relay rate.
    Throttle { bytes_per_s: u64 },
    /// Relay `after_bytes`, then close the connection cleanly (FIN) —
    /// the classic torn `Content-Length` body.
    Truncate { after_bytes: u64 },
    /// Relay `after_bytes`, splice `bytes` of deterministic garbage,
    /// then close.
    Garbage { after_bytes: u64, bytes: u64 },
    /// Relay `after_bytes`, then close abortively (RST where the
    /// platform allows forcing one; a hard close everywhere).
    Reset { after_bytes: u64 },
    /// Swallow the whole connection: read and discard, never answer,
    /// never contact the upstream.
    BlackHole,
}

/// One parsed `[[fault]]` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosFault {
    pub kind: FaultKind,
    pub direction: Direction,
    /// Per-connection firing probability in `[0, 1]`.
    pub prob: f64,
}

impl ChaosFault {
    /// Human description, mirroring `spechpc faults`.
    pub fn describe(&self) -> String {
        let what = match self.kind {
            FaultKind::Delay { delay_ms } => format!("delay: hold first byte {delay_ms} ms"),
            FaultKind::Throttle { bytes_per_s } => {
                format!("throttle: cap at {bytes_per_s} B/s")
            }
            FaultKind::Truncate { after_bytes } => {
                format!("truncate: close after {after_bytes} B")
            }
            FaultKind::Garbage { after_bytes, bytes } => {
                format!("garbage: {bytes} B of noise after {after_bytes} B, then close")
            }
            FaultKind::Reset { after_bytes } => {
                format!("reset: abortive close after {after_bytes} B")
            }
            FaultKind::BlackHole => "black-hole: swallow the connection".to_string(),
        };
        if matches!(self.kind, FaultKind::BlackHole) {
            format!("{what} (p={})", self.prob)
        } else {
            format!("{what} [{}] (p={})", self.direction, self.prob)
        }
    }
}

/// A parsed, validated chaos plan: a seed plus the fault roster. The
/// plan is pure data — [`ChaosPlan::schedule`] derives a connection's
/// injuries without any mutable state, which is what makes replays
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    pub seed: u64,
    pub faults: Vec<ChaosFault>,
}

impl ChaosPlan {
    /// A plan that injures nothing — the proxy degenerates to a splice.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// Does fault `idx` fire on connection `conn`? Stateless: the
    /// decision is a pure function of `(seed, conn, idx)`.
    pub fn fires(&self, conn: u64, idx: usize) -> bool {
        let f = &self.faults[idx];
        if f.prob >= 1.0 {
            return true;
        }
        if f.prob <= 0.0 {
            return false;
        }
        chaos_unit(self.seed, conn, idx as u64) < f.prob
    }

    /// The complete injury schedule of connection `conn` — every active
    /// fault folded into per-direction effects. Two calls with the same
    /// `(plan, seed, conn)` return identical schedules; that property is
    /// pinned by `tests/chaos.rs`.
    pub fn schedule(&self, conn: u64) -> ConnSchedule {
        let mut s = ConnSchedule::default();
        for (idx, f) in self.faults.iter().enumerate() {
            if !self.fires(conn, idx) {
                continue;
            }
            if let FaultKind::BlackHole = f.kind {
                s.black_hole = true;
                continue;
            }
            for downstream in [false, true] {
                if !f.direction.hits(downstream) {
                    continue;
                }
                let eff = if downstream {
                    &mut s.downstream
                } else {
                    &mut s.upstream
                };
                match f.kind {
                    FaultKind::Delay { delay_ms } => eff.delay_ms += delay_ms,
                    FaultKind::Throttle { bytes_per_s } => {
                        eff.bytes_per_s = Some(match eff.bytes_per_s {
                            Some(prev) => prev.min(bytes_per_s),
                            None => bytes_per_s,
                        })
                    }
                    FaultKind::Truncate { after_bytes } => {
                        eff.propose_cut(after_bytes, CutKind::Truncate)
                    }
                    FaultKind::Garbage { after_bytes, bytes } => {
                        eff.propose_cut(after_bytes, CutKind::Garbage { bytes })
                    }
                    FaultKind::Reset { after_bytes } => {
                        eff.propose_cut(after_bytes, CutKind::Reset)
                    }
                    FaultKind::BlackHole => unreachable!("handled above"),
                }
            }
        }
        s
    }

    /// The `j`-th garbage byte of connection `conn` — also stateless, so
    /// even injected corruption replays bit-identically.
    pub fn garbage_byte(&self, conn: u64, j: u64) -> u8 {
        (chaos_hash(self.seed, conn, GARBAGE_SALT ^ j) & 0xff) as u8
    }
}

/// Salt separating the garbage-byte stream from the fire/no-fire draws.
const GARBAGE_SALT: u64 = 0x67617262_61676521;

/// How a relay direction ends early, when it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    Truncate,
    Garbage { bytes: u64 },
    Reset,
}

/// The point where a direction's relay is cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    pub after_bytes: u64,
    pub kind: CutKind,
}

/// Folded effects on one relay direction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirectionEffects {
    /// Milliseconds to hold the first byte (active delays sum).
    pub delay_ms: u64,
    /// Bandwidth cap (the tightest active throttle), if any.
    pub bytes_per_s: Option<u64>,
    /// The earliest active cut, if any.
    pub cut: Option<Cut>,
}

impl DirectionEffects {
    /// Keep the earliest cut; ties resolve in fault-roster order (the
    /// first proposer wins), keeping the schedule deterministic.
    fn propose_cut(&mut self, after_bytes: u64, kind: CutKind) {
        let better = match self.cut {
            None => true,
            Some(c) => after_bytes < c.after_bytes,
        };
        if better {
            self.cut = Some(Cut { after_bytes, kind });
        }
    }
}

/// One connection's complete injury schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConnSchedule {
    pub black_hole: bool,
    /// Client → upstream effects.
    pub upstream: DirectionEffects,
    /// Upstream → client effects.
    pub downstream: DirectionEffects,
}

impl ConnSchedule {
    /// Does this connection relay completely uninjured?
    pub fn is_clean(&self) -> bool {
        !self.black_hole
            && self.upstream == DirectionEffects::default()
            && self.downstream == DirectionEffects::default()
    }
}

// ---------------------------------------------------------------------------
// Stateless hashing (the determinism core)
// ---------------------------------------------------------------------------

/// Stateless draw for `(seed, conn, event)` — mirrors the simulation
/// fault layer's per-`(seed, rank, op)` construction, so chaos runs
/// replay bit-identically without any RNG state to carry around.
fn chaos_hash(seed: u64, conn: u64, event: u64) -> u64 {
    mix64(
        seed ^ mix64(conn.wrapping_mul(0x9e3779b97f4a7c15))
            ^ mix64(event.wrapping_mul(0xd1b54a32d192ed03)),
    )
}

/// The draw mapped to a uniform `[0, 1)` unit.
fn chaos_unit(seed: u64, conn: u64, event: u64) -> f64 {
    (chaos_hash(seed, conn, event) >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Plan parsing (faultcfg's TOML subset, `[[fault]]` sections)
// ---------------------------------------------------------------------------

/// Load and validate a chaos plan from a `.toml` file.
pub fn load_chaos_plan(path: &Path) -> Result<ChaosPlan, PlanError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PlanError::new(format!("cannot read {}: {e}", path.display())))?;
    parse_chaos_plan(&text)
}

/// Parse and validate a chaos plan from TOML text.
pub fn parse_chaos_plan(text: &str) -> Result<ChaosPlan, PlanError> {
    let (seed, faults) = faultcfg::parse_sections(text, "fault")?;
    let faults = faults
        .iter()
        .map(|(t, line)| convert_fault(t, *line))
        .collect::<Result<Vec<ChaosFault>, PlanError>>()?;
    Ok(ChaosPlan { seed, faults })
}

fn convert_fault(t: &TableData, line: usize) -> Result<ChaosFault, PlanError> {
    let kind = t
        .str("kind")
        .unwrap_or_else(|| Err(PlanError::at(line, "fault needs a 'kind'")))?;
    let prob = match t.num("prob").transpose()? {
        Some(p) if (0.0..=1.0).contains(&p) => p,
        Some(p) => {
            return Err(PlanError::at(
                line,
                format!("'prob' must be in [0, 1], got {p}"),
            ))
        }
        None => 1.0,
    };
    let direction = match t.str("direction").transpose()? {
        Some(s) => Direction::parse(s, line)?,
        None => Direction::Downstream,
    };
    let fault = |kind: FaultKind| ChaosFault {
        kind,
        direction,
        prob,
    };
    match kind {
        "delay" => {
            check_keys(t, &["kind", "direction", "prob", "delay_ms"], kind, line)?;
            Ok(fault(FaultKind::Delay {
                delay_ms: t.require_count("delay_ms", kind, line)?,
            }))
        }
        "throttle" => {
            check_keys(t, &["kind", "direction", "prob", "bytes_per_s"], kind, line)?;
            let bytes_per_s = t.require_count("bytes_per_s", kind, line)?;
            if bytes_per_s == 0 {
                return Err(PlanError::at(
                    line,
                    "'bytes_per_s' must be positive (use black-hole to stall entirely)",
                ));
            }
            Ok(fault(FaultKind::Throttle { bytes_per_s }))
        }
        "truncate" => {
            check_keys(t, &["kind", "direction", "prob", "after_bytes"], kind, line)?;
            Ok(fault(FaultKind::Truncate {
                after_bytes: t.require_count("after_bytes", kind, line)?,
            }))
        }
        "garbage" => {
            check_keys(
                t,
                &["kind", "direction", "prob", "after_bytes", "bytes"],
                kind,
                line,
            )?;
            let bytes = t.require_count("bytes", kind, line)?;
            if bytes == 0 {
                return Err(PlanError::at(
                    line,
                    "'bytes' must be positive (use truncate for a clean cut)",
                ));
            }
            Ok(fault(FaultKind::Garbage {
                after_bytes: t.count_or("after_bytes", 0, line)?,
                bytes,
            }))
        }
        "reset" => {
            check_keys(t, &["kind", "direction", "prob", "after_bytes"], kind, line)?;
            Ok(fault(FaultKind::Reset {
                after_bytes: t.count_or("after_bytes", 0, line)?,
            }))
        }
        "black-hole" => {
            check_keys(t, &["kind", "prob"], kind, line)?;
            Ok(fault(FaultKind::BlackHole))
        }
        other => Err(PlanError::at(
            line,
            format!(
                "unknown fault kind '{other}' \
                 (expected delay, throttle, truncate, garbage, reset or black-hole)"
            ),
        )),
    }
}

// ---------------------------------------------------------------------------
// The proxy
// ---------------------------------------------------------------------------

/// How long the proxy waits for its upstream to accept.
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Idle cap on any single relay read — a wedged peer must not pin the
/// relay thread forever.
const RELAY_READ_TIMEOUT: Duration = Duration::from_secs(120);
/// Throttle pacing quantum: the relay sleeps after each slice this big.
const THROTTLE_SLICE: usize = 1024;

/// Shared proxy state.
struct ProxyCtx {
    plan: ChaosPlan,
    upstream: String,
    shutdown: AtomicBool,
    /// Connection ordinal — the `conn` of every schedule decision.
    conns: AtomicU64,
    /// Connections that took at least one injury.
    injured: AtomicU64,
}

/// Drain trigger detached from the [`ChaosProxy`]'s lifetime.
#[derive(Clone)]
pub struct ChaosShutdownHandle(Arc<ProxyCtx>);

impl ChaosShutdownHandle {
    /// Flip the drain latch (idempotent).
    pub fn request_drain(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }
}

/// The fault-injecting proxy daemon. Bind with [`ChaosProxy::bind`],
/// then block on [`ChaosProxy::serve`].
pub struct ChaosProxy {
    listener: TcpListener,
    ctx: Arc<ProxyCtx>,
}

impl ChaosProxy {
    /// Bind `listen` and prepare to injure traffic towards `upstream`.
    pub fn bind(
        plan: ChaosPlan,
        listen: impl AsRef<str>,
        upstream: impl Into<String>,
    ) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen.as_ref())?;
        Ok(ChaosProxy {
            listener,
            ctx: Arc::new(ProxyCtx {
                plan,
                upstream: upstream.into(),
                shutdown: AtomicBool::new(false),
                conns: AtomicU64::new(0),
                injured: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn shutdown_handle(&self) -> ChaosShutdownHandle {
        ChaosShutdownHandle(Arc::clone(&self.ctx))
    }

    /// Connections accepted so far (diagnostic).
    pub fn connections(&self) -> u64 {
        self.ctx.conns.load(Ordering::Relaxed)
    }

    /// Connections that took at least one injury (diagnostic).
    pub fn injured(&self) -> u64 {
        self.ctx.injured.load(Ordering::Relaxed)
    }

    /// Accept-and-injure until the drain latch flips (or a SIGTERM
    /// lands, sharing the serve daemon's signal latch).
    pub fn serve(self) -> io::Result<()> {
        let ChaosProxy { listener, ctx } = self;
        listener.set_nonblocking(true)?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !ctx.shutdown.load(Ordering::SeqCst) && !crate::serve::signalled() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = ctx.conns.fetch_add(1, Ordering::Relaxed);
                    let ctx = Arc::clone(&ctx);
                    handlers.push(std::thread::spawn(move || handle_conn(stream, conn, &ctx)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// One proxied connection: derive its schedule, then splice (and
/// injure) both directions until either side closes.
fn handle_conn(client: TcpStream, conn: u64, ctx: &Arc<ProxyCtx>) {
    let schedule = ctx.plan.schedule(conn);
    if !schedule.is_clean() {
        ctx.injured.fetch_add(1, Ordering::Relaxed);
    }
    let _ = client.set_nodelay(true);
    let _ = client.set_read_timeout(Some(RELAY_READ_TIMEOUT));
    let _ = client.set_write_timeout(Some(RELAY_READ_TIMEOUT));

    if schedule.black_hole {
        // Read and discard until the client gives up; never answer,
        // never contact the upstream. The client's own read deadline is
        // what bounds this — exactly the stall the fabric must survive.
        let mut sink = client;
        let mut buf = [0u8; 4096];
        while let Ok(n) = sink.read(&mut buf) {
            if n == 0 {
                break;
            }
        }
        return;
    }

    let upstream = match ctx
        .upstream
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or(())
        .and_then(|a| TcpStream::connect_timeout(&a, UPSTREAM_CONNECT_TIMEOUT).map_err(|_| ()))
    {
        Ok(s) => s,
        // No upstream: drop the client — indistinguishable from a dead
        // worker, which is the point.
        Err(()) => return,
    };
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(RELAY_READ_TIMEOUT));
    let _ = upstream.set_write_timeout(Some(RELAY_READ_TIMEOUT));

    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let plan = ctx.plan.clone();
    let up_effects = schedule.upstream;
    let down_effects = schedule.downstream;
    let up = std::thread::spawn({
        let plan = plan.clone();
        move || relay(client_r, upstream, up_effects, &plan, conn)
    });
    relay(upstream_r, client, down_effects, &plan, conn);
    let _ = up.join();
}

/// Splice `src` → `dst` under `effects`. Returns when the stream ends,
/// errors, or a cut fires.
fn relay(
    mut src: TcpStream,
    mut dst: TcpStream,
    effects: DirectionEffects,
    plan: &ChaosPlan,
    conn: u64,
) {
    let mut relayed: u64 = 0;
    let mut delayed = false;
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if !delayed {
            delayed = true;
            if effects.delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(effects.delay_ms));
            }
        }
        // The cut fires mid-chunk: forward the prefix, injure, stop.
        if let Some(cut) = effects.cut {
            if relayed + n as u64 >= cut.after_bytes {
                let keep = (cut.after_bytes - relayed) as usize;
                if keep > 0 {
                    let _ = write_paced(&mut dst, &buf[..keep], effects.bytes_per_s);
                }
                match cut.kind {
                    CutKind::Truncate => {}
                    CutKind::Garbage { bytes } => {
                        let noise: Vec<u8> =
                            (0..bytes).map(|j| plan.garbage_byte(conn, j)).collect();
                        let _ = dst.write_all(&noise);
                    }
                    CutKind::Reset => abortive_close(&dst),
                }
                break;
            }
        }
        if write_paced(&mut dst, &buf[..n], effects.bytes_per_s).is_err() {
            break;
        }
        relayed += n as u64;
    }
    // Tear down both halves so the paired relay thread unblocks.
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Write `data`, pacing to `bytes_per_s` when throttled.
fn write_paced(dst: &mut TcpStream, data: &[u8], bytes_per_s: Option<u64>) -> io::Result<()> {
    let Some(rate) = bytes_per_s else {
        return dst.write_all(data);
    };
    for slice in data.chunks(THROTTLE_SLICE) {
        dst.write_all(slice)?;
        let secs = slice.len() as f64 / rate as f64;
        std::thread::sleep(Duration::from_secs_f64(secs.min(0.25)));
    }
    Ok(())
}

/// Arrange for the socket's close to be abortive (RST) where the
/// platform lets us say so; the subsequent `shutdown` + drop does the
/// rest. On other platforms this degrades to a hard close, which the
/// fabric must survive anyway.
#[cfg(target_os = "linux")]
fn abortive_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: fd is a live socket owned by `stream`; the struct layout
    // matches the kernel ABI's `struct linger`.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn abortive_close(_stream: &TcpStream) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> ChaosPlan {
        parse_chaos_plan(text).unwrap()
    }

    #[test]
    fn full_plan_round_trips_every_fault_kind() {
        let p = plan(
            r#"
# kitchen sink
seed = 7

[[fault]]
kind = "delay"
direction = "upstream"
prob = 0.25
delay_ms = 150

[[fault]]
kind = "throttle"
direction = "both"
bytes_per_s = 65536

[[fault]]
kind = "truncate"
prob = 0.1
after_bytes = 512

[[fault]]
kind = "garbage"
after_bytes = 64
bytes = 32

[[fault]]
kind = "reset"
direction = "downstream"
after_bytes = 256

[[fault]]
kind = "black-hole"
prob = 0.02
"#,
        );
        assert_eq!(p.seed, 7);
        assert_eq!(p.faults.len(), 6);
        assert_eq!(
            p.faults[0],
            ChaosFault {
                kind: FaultKind::Delay { delay_ms: 150 },
                direction: Direction::Upstream,
                prob: 0.25,
            }
        );
        assert_eq!(p.faults[1].prob, 1.0, "prob defaults to certain");
        assert_eq!(
            p.faults[2].direction,
            Direction::Downstream,
            "direction defaults to downstream"
        );
        assert!(matches!(p.faults[5].kind, FaultKind::BlackHole));
        for f in &p.faults {
            assert!(!f.describe().is_empty());
        }
    }

    #[test]
    fn parser_rejects_typos_probabilities_and_syntax() {
        let typo = parse_chaos_plan("[[fault]]\nkind = \"truncate\"\nafter = 10\n").unwrap_err();
        assert!(typo.to_string().contains("does not take 'after'"), "{typo}");

        let kind =
            parse_chaos_plan("[[fault]]\nkind = \"truncat\"\nafter_bytes = 10\n").unwrap_err();
        assert!(kind.to_string().contains("truncat"), "{kind}");

        let prob = parse_chaos_plan("[[fault]]\nkind = \"black-hole\"\nprob = 1.5\n").unwrap_err();
        assert!(prob.to_string().contains("[0, 1]"), "{prob}");

        let syntax = parse_chaos_plan("seed 42\n").unwrap_err();
        assert_eq!(syntax.line, Some(1));

        let dir = parse_chaos_plan(
            "[[fault]]\nkind = \"delay\"\ndirection = \"sideways\"\ndelay_ms = 1\n",
        )
        .unwrap_err();
        assert!(dir.to_string().contains("sideways"), "{dir}");

        let hole =
            parse_chaos_plan("[[fault]]\nkind = \"black-hole\"\ndirection = \"downstream\"\n")
                .unwrap_err();
        assert!(hole.to_string().contains("does not take"), "{hole}");

        assert!(parse_chaos_plan("").unwrap().faults.is_empty());
    }

    #[test]
    fn schedules_are_stateless_and_seed_sensitive() {
        let text = r#"
seed = 42
[[fault]]
kind = "truncate"
prob = 0.5
after_bytes = 100
[[fault]]
kind = "delay"
prob = 0.5
delay_ms = 10
"#;
        let a = plan(text);
        let b = plan(text);
        for conn in 0..256 {
            assert_eq!(a.schedule(conn), b.schedule(conn), "conn {conn}");
        }
        // Roughly half the connections take each fault.
        let hits = (0..256).filter(|&c| a.fires(c, 0)).count();
        assert!((64..192).contains(&hits), "p=0.5 fired {hits}/256 times");
        // A different seed reshuffles the schedule.
        let other = ChaosPlan {
            seed: 43,
            ..a.clone()
        };
        assert!(
            (0..256).any(|c| a.schedule(c) != other.schedule(c)),
            "seed must matter"
        );
        // Garbage bytes are part of the deterministic schedule too.
        let g1: Vec<u8> = (0..32).map(|j| a.garbage_byte(9, j)).collect();
        let g2: Vec<u8> = (0..32).map(|j| b.garbage_byte(9, j)).collect();
        assert_eq!(g1, g2);
    }

    #[test]
    fn effects_fold_sanely() {
        let p = plan(
            r#"
[[fault]]
kind = "throttle"
direction = "both"
bytes_per_s = 1000
[[fault]]
kind = "throttle"
bytes_per_s = 500
[[fault]]
kind = "truncate"
after_bytes = 100
[[fault]]
kind = "reset"
after_bytes = 50
"#,
        );
        let s = p.schedule(0);
        assert!(!s.is_clean());
        assert_eq!(s.upstream.bytes_per_s, Some(1000));
        assert_eq!(
            s.downstream.bytes_per_s,
            Some(500),
            "tightest throttle wins"
        );
        assert_eq!(
            s.downstream.cut,
            Some(Cut {
                after_bytes: 50,
                kind: CutKind::Reset
            }),
            "earliest cut wins"
        );
        assert!(s.upstream.cut.is_none());
        assert!(ChaosPlan::none().schedule(123).is_clean());
    }

    #[test]
    fn clean_plan_proxies_bytes_verbatim() {
        // An echo upstream: whatever arrives goes back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in upstream.incoming() {
                let Ok(mut s) = stream else { break };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let proxy =
            ChaosProxy::bind(ChaosPlan::none(), "127.0.0.1:0", upstream_addr.to_string()).unwrap();
        let addr = proxy.local_addr().unwrap();
        let handle = proxy.shutdown_handle();
        let join = std::thread::spawn(move || proxy.serve());

        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"hello through the proxy").unwrap();
        let mut got = [0u8; 23];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello through the proxy");
        drop(c);

        handle.request_drain();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn truncate_cuts_the_stream_at_the_exact_byte() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Some(Ok(mut s)) = upstream.incoming().next() {
                let _ = s.write_all(&[0xabu8; 4096]);
            }
        });
        let p = plan("[[fault]]\nkind = \"truncate\"\nafter_bytes = 100\n");
        let proxy = ChaosProxy::bind(p, "127.0.0.1:0", upstream_addr.to_string()).unwrap();
        let addr = proxy.local_addr().unwrap();
        let handle = proxy.shutdown_handle();
        let join = std::thread::spawn(move || proxy.serve());

        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        let _ = c.read_to_end(&mut got);
        assert_eq!(got.len(), 100, "exactly after_bytes arrive");
        assert!(got.iter().all(|&b| b == 0xab));
        assert_eq!(proxy_stats(&handle), (1, 1));

        handle.request_drain();
        join.join().unwrap().unwrap();
    }

    fn proxy_stats(handle: &ChaosShutdownHandle) -> (u64, u64) {
        (
            handle.0.conns.load(Ordering::Relaxed),
            handle.0.injured.load(Ordering::Relaxed),
        )
    }
}
