//! End-to-end tests of the chaos fabric: the seeded fault-injecting
//! proxy (`spechpc chaos`) spliced between a real coordinator and real
//! worker daemons. The invariants under test: injury schedules are a
//! pure function of `(plan, seed, connection)` so runs replay
//! bit-identically; a clean plan is byte-invisible; and no matter what
//! the wire does, a client of the fleet sees either the exact bytes a
//! healthy daemon would have sent or a typed JSON error — never a
//! corrupt body, never an unbounded hang.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spechpc::harness::chaos::{
    load_chaos_plan, parse_chaos_plan, ChaosPlan, ChaosProxy, ChaosShutdownHandle,
};
use spechpc::harness::fleet::{Coordinator, FleetConfig, FleetShutdownHandle};
use spechpc::prelude::*;

/// A small resident executor: in-memory cache, few workers.
fn executor() -> Executor {
    Executor::new(
        RunConfig::default().with_repetitions(1).with_trace(false),
        ExecConfig::default().with_jobs(2),
    )
}

/// Bind + spawn one worker daemon.
fn spawn_worker() -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<io::Result<()>>,
) {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(4)
        .with_log_requests(false);
    let server = Server::bind(executor(), cfg).expect("bind worker");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// Bind + spawn one chaos proxy injuring traffic towards `upstream`.
fn spawn_proxy(
    plan: ChaosPlan,
    upstream: String,
) -> (
    SocketAddr,
    ChaosShutdownHandle,
    std::thread::JoinHandle<io::Result<()>>,
) {
    let proxy = ChaosProxy::bind(plan, "127.0.0.1:0", upstream).expect("bind proxy");
    let addr = proxy.local_addr().expect("bound address");
    let handle = proxy.shutdown_handle();
    let join = std::thread::spawn(move || proxy.serve());
    (addr, handle, join)
}

/// Bind + spawn a coordinator over `workers`.
fn spawn_coordinator(
    workers: Vec<String>,
    probe_interval_s: f64,
) -> (
    SocketAddr,
    FleetShutdownHandle,
    std::thread::JoinHandle<io::Result<()>>,
) {
    let cfg = FleetConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(workers)
        .with_probe_interval_s(probe_interval_s);
    let coordinator = Coordinator::bind(cfg).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("bound address");
    let handle = coordinator.shutdown_handle();
    let join = std::thread::spawn(move || coordinator.serve());
    (addr, handle, join)
}

/// One HTTP exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {text:?}"));
    let body = match text.find("\r\n\r\n") {
        Some(pos) => text[pos + 4..].to_string(),
        None => String::new(),
    };
    (status, body)
}

/// Extract an unsigned counter from a flat JSON body regardless of the
/// renderer's whitespace around the colon.
fn json_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\"");
    let rest = &body[body.find(&needle).unwrap_or_else(|| {
        panic!("no {key} in {body}");
    }) + needle.len()..];
    let digits: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap_or_else(|e| {
        panic!("bad {key} counter in {body}: {e}");
    })
}

fn run_body(benchmark: &str, nranks: usize) -> String {
    RunRequest::new(benchmark, WorkloadClass::Tiny, nranks)
        .with_cluster("a")
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
        .to_json()
}

#[test]
fn shipped_presets_validate_and_replay_bit_identically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for preset in ["plans/chaos-ci.toml", "plans/chaos-degraded-net.toml"] {
        let text = std::fs::read_to_string(root.join(preset)).expect(preset);
        let a = load_chaos_plan(&root.join(preset)).unwrap_or_else(|e| panic!("{preset}: {e}"));
        let b = parse_chaos_plan(&text).unwrap();
        assert!(!a.faults.is_empty(), "{preset} must injure something");
        assert_eq!(a, b, "{preset}: file and text parses must agree");

        // Determinism: two independently parsed plans derive identical
        // injury schedules for every connection ordinal...
        for conn in 0..512u64 {
            assert_eq!(
                a.schedule(conn),
                b.schedule(conn),
                "{preset}: schedule for conn {conn} must be pure"
            );
        }

        // ...while a different seed derives a genuinely different run.
        let reseeded = ChaosPlan {
            seed: a.seed.wrapping_add(1),
            faults: a.faults.clone(),
        };
        let diverged = (0..512u64)
            .filter(|&conn| a.schedule(conn) != reseeded.schedule(conn))
            .count();
        assert!(diverged > 0, "{preset}: reseeding must change the draw");
    }
}

#[test]
fn clean_plan_is_byte_invisible_end_to_end() {
    let (worker, wh, wj) = spawn_worker();
    let (proxy, ph, pj) = spawn_proxy(ChaosPlan::none(), worker.to_string());

    let (status, direct) = http(worker, "POST", "/v1/run", &run_body("lbm", 4));
    assert_eq!(status, 200, "{direct}");
    let (status, via_proxy) = http(proxy, "POST", "/v1/run", &run_body("lbm", 4));
    assert_eq!(status, 200, "{via_proxy}");
    assert_eq!(
        via_proxy, direct,
        "an empty plan must degenerate to a pure splice"
    );

    ph.request_drain();
    pj.join().unwrap().unwrap();
    wh.request_drain();
    wj.join().unwrap().unwrap();
}

#[test]
fn truncating_fabric_yields_clean_bytes_or_typed_errors_and_trips_breakers() {
    // Worker 1 sits behind a proxy that cuts every response at byte 64;
    // worker 2 is reachable directly, so a clean path always exists.
    let plan = parse_chaos_plan(
        "seed = 7\n\
         [[fault]]\n\
         kind = \"truncate\"\n\
         direction = \"downstream\"\n\
         prob = 1.0\n\
         after_bytes = 64\n",
    )
    .unwrap();
    let (w1, h1, j1) = spawn_worker();
    let (w2, h2, j2) = spawn_worker();
    let (proxy, ph, pj) = spawn_proxy(plan, w1.to_string());
    let (fleet, fh, fj) = spawn_coordinator(vec![proxy.to_string(), w2.to_string()], 600.0);

    // Issue distinct runs until the registry has tripped a breaker on
    // the injured path; every answer must be byte-identical to what a
    // healthy daemon returns (a typed 5xx JSON would also be legal, but
    // with a clean worker in the ring failover should always converge).
    let cases: Vec<(String, usize)> = ["lbm", "tealeaf", "pot3d", "cloverleaf", "minisweep"]
        .iter()
        .flat_map(|b| [1usize, 2, 4, 8].map(|n| (b.to_string(), n)))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut tripped = false;
    for (bench, nranks) in &cases {
        let body = run_body(bench, *nranks);
        let (status, got) = http(fleet, "POST", "/v1/run", &body);
        if status != 200 {
            assert!(
                (500..600).contains(&status) && got.contains("\"error\":"),
                "degradation must be a typed 5xx, got {status}: {got}"
            );
            continue;
        }
        let (ref_status, want) = http(w2, "POST", "/v1/run", &body);
        assert_eq!(ref_status, 200, "{want}");
        assert_eq!(got, want, "{bench}/{nranks}: fleet bytes must be clean");

        let (_, metrics) = http(fleet, "GET", "/v1/metrics", "");
        if json_u64(&metrics, "breaker_trips") > 0 {
            tripped = true;
            assert!(metrics.contains("\"breaker_states\""), "{metrics}");
            assert!(metrics.contains("\"retries_spent\""), "{metrics}");
            break;
        }
        assert!(Instant::now() < deadline, "breaker never tripped");
    }
    assert!(tripped, "a fully-injured worker must trip its breaker");

    fh.request_drain();
    fj.join().unwrap().unwrap();
    ph.request_drain();
    pj.join().unwrap().unwrap();
    h1.request_drain();
    j1.join().unwrap().unwrap();
    h2.request_drain();
    j2.join().unwrap().unwrap();
}

/// A worker-shaped impostor: speaks well-formed HTTP/1.1 with an exact
/// Content-Length, but every body is JSON-shaped garbage. This is the
/// adversary `vet_response` exists for — framing alone can't catch it.
fn spawn_garbage_worker() -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind impostor");
    let addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        while !flag.load(Ordering::SeqCst) {
            let mut stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(_) => break,
            };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            // Drain the request: headers, then Content-Length bytes.
            let mut raw = Vec::new();
            let mut buf = [0u8; 4096];
            let header_end = loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break None,
                    Ok(n) => {
                        raw.extend_from_slice(&buf[..n]);
                        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                            break Some(pos + 4);
                        }
                    }
                }
            };
            let Some(header_end) = header_end else {
                continue;
            };
            let head = String::from_utf8_lossy(&raw[..header_end]).to_ascii_lowercase();
            let want: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            while raw.len() < header_end + want {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => raw.extend_from_slice(&buf[..n]),
                }
            }
            let body = "{\"result\": truncated-nonsense";
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(resp.as_bytes());
        }
    });
    (addr, stop)
}

#[test]
fn json_shaped_garbage_becomes_a_typed_502_not_a_spliced_body() {
    let (impostor, stop) = spawn_garbage_worker();
    let (fleet, fh, fj) = spawn_coordinator(vec![impostor.to_string()], 600.0);

    let (status, body) = http(fleet, "POST", "/v1/run", &run_body("lbm", 4));
    assert_eq!(status, 502, "{body}");
    assert!(body.contains("\"bad_upstream\""), "{body}");
    assert!(
        spechpc::harness::json::parse_json(&body).is_some(),
        "even the failure must be well-formed JSON: {body}"
    );

    stop.store(true, Ordering::SeqCst);
    fh.request_drain();
    fj.join().unwrap().unwrap();
}

#[test]
fn black_holes_are_bounded_by_the_client_deadline() {
    let plan = parse_chaos_plan("[[fault]]\nkind = \"black-hole\"\n").unwrap();
    // The upstream is never contacted, so any address will do.
    let (proxy, ph, pj) = spawn_proxy(plan, "127.0.0.1:1".to_string());

    let started = Instant::now();
    let mut stream = TcpStream::connect(proxy).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let body = run_body("lbm", 4);
    let req = format!(
        "POST /v1/run HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut buf = [0u8; 64];
    let got = stream.read(&mut buf);
    let stalled = matches!(
        &got,
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    );
    assert!(stalled, "black hole must answer with silence, got {got:?}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the client's own deadline bounds the stall"
    );
    drop(stream);

    ph.request_drain();
    pj.join().unwrap().unwrap();
}
