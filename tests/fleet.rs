//! End-to-end tests of the sharded execution fabric (`spechpc fleet`):
//! a real coordinator in front of real worker daemons, all on ephemeral
//! loopback ports, driven by the same hand-rolled HTTP/1.1 client the
//! `serve` tests use. The invariant under test throughout: going
//! through the fabric is byte-identical to talking to one daemon.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spechpc::harness::fleet::{peer_fetcher, Coordinator, FleetConfig, FleetShutdownHandle};
use spechpc::harness::json::{parse_json, Json};
use spechpc::prelude::*;
use spechpc::simmpi::faults::{FaultEvent, FaultPlan};

/// A small resident executor: in-memory cache, few workers.
fn executor() -> Executor {
    Executor::new(
        RunConfig::default().with_repetitions(1).with_trace(false),
        ExecConfig::default().with_jobs(2),
    )
}

/// Bind + spawn one worker daemon; `peers` enables cross-worker cache
/// fetch (`GET /v1/cache/{key}`) on local misses.
fn spawn_worker(
    peers: Vec<String>,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    spawn_worker_with(peers, ServeConfig::default())
}

/// [`spawn_worker`] with the keep-alive limits of `cfg`.
fn spawn_worker_with(
    peers: Vec<String>,
    cfg: ServeConfig,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let mut exec = executor();
    if !peers.is_empty() {
        exec = exec.with_peer_fetch(peer_fetcher(peers));
    }
    let cfg = cfg
        .with_addr("127.0.0.1:0")
        .with_workers(4)
        .with_log_requests(false);
    let server = Server::bind(exec, cfg).expect("bind worker");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// Bind + spawn a coordinator over `workers`. The probe interval
/// controls how quickly the registry notices liveness transitions on
/// its own; the forwarding path corrects it on every exchange anyway.
fn spawn_coordinator(
    workers: Vec<String>,
    probe_interval_s: f64,
) -> (
    SocketAddr,
    FleetShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    spawn_coordinator_with(
        FleetConfig::default()
            .with_workers(workers)
            .with_probe_interval_s(probe_interval_s),
    )
}

/// [`spawn_coordinator`] with the routing and timeouts of `cfg`.
fn spawn_coordinator_with(
    cfg: FleetConfig,
) -> (
    SocketAddr,
    FleetShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let cfg = cfg.with_addr("127.0.0.1:0");
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

fn suite_body() -> String {
    SuiteRequest::new(WorkloadClass::Tiny)
        .with_cluster("a")
        .with_nranks(4)
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
        .to_json()
}

#[test]
fn coordinator_is_byte_identical_to_a_single_daemon() {
    // Reference: one daemon answering everything itself.
    let (solo, solo_handle, solo_join) = spawn_worker(Vec::new());
    let (_, want_run) = http(solo, "POST", "/v1/run", &run_body("lbm", 4));
    let (want_suite_status, want_suite) = http(solo, "POST", "/v1/suite", &suite_body());
    assert_eq!(want_suite_status, 200);

    // Fabric: the same requests through a coordinator over 3 workers.
    let mut workers = Vec::new();
    for _ in 0..3 {
        workers.push(spawn_worker(Vec::new()));
    }
    let addrs: Vec<String> = workers.iter().map(|(a, _, _)| a.to_string()).collect();
    let (fleet, fleet_handle, fleet_join) = spawn_coordinator(addrs, 0.05);

    let (status, got_run) = http(fleet, "POST", "/v1/run", &run_body("lbm", 4));
    assert_eq!(status, 200, "{got_run}");
    assert_eq!(got_run, want_run, "routed run must replay byte-identically");

    let (status, got_suite) = http(fleet, "POST", "/v1/suite", &suite_body());
    assert_eq!(status, 200, "{got_suite}");
    assert_eq!(
        got_suite, want_suite,
        "sharded suite must reassemble byte-identically"
    );
    // More ranks than the cluster models: the coordinator answers the
    // daemon's 422, not a report of nine refused points.
    for (path, body) in [
        ("/v1/run", r#"{"benchmark":"lbm","nranks":4e15}"#),
        ("/v1/suite", r#"{"nranks":4e15}"#),
    ] {
        let want = http(solo, "POST", path, body);
        assert_eq!(want.0, 422, "{path}: {}", want.1);
        assert_eq!(http(fleet, "POST", path, body), want, "{path}");
    }

    // The suite really was sharded: more than one worker executed runs.
    let busy = workers
        .iter()
        .filter(|(a, _, _)| {
            let (_, m) = http(*a, "GET", "/v1/metrics", "");
            json_u64(&m, "runs_executed") > 0
        })
        .count();
    assert!(busy >= 2, "suite must spread across workers, got {busy}");

    // Routing is deterministic: the replayed run is a cache hit, not a
    // second simulation.
    let (_, got_again) = http(fleet, "POST", "/v1/run", &run_body("lbm", 4));
    assert_eq!(got_again, want_run);

    fleet_handle.request_drain();
    fleet_join.join().unwrap().unwrap();
    solo_handle.request_drain();
    solo_join.join().unwrap().unwrap();
    for (_, h, j) in workers {
        h.request_drain();
        j.join().unwrap().unwrap();
    }
}

#[test]
fn partial_suite_is_byte_identical_through_the_coordinator() {
    // Rank 3 crashes 1 s into the simulation: the two benchmarks that
    // finish sooner complete, the other seven fail with `rank_failed`.
    let crash = FaultPlan {
        seed: 1,
        events: vec![FaultEvent::Crash { rank: 3, at_s: 1.0 }],
    };
    let body = SuiteRequest::new(WorkloadClass::Tiny)
        .with_cluster("a")
        .with_nranks(4)
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
        .with_faults(crash)
        .to_json();

    let (solo, solo_handle, solo_join) = spawn_worker(Vec::new());
    let (status, want) = http(solo, "POST", "/v1/suite", &body);
    assert_eq!(status, 207, "{want}");
    assert!(want.contains("\"benchmark\": \"tealeaf\""), "{want}");
    assert!(want.contains("\"error\": \"rank_failed\""), "{want}");

    let workers: Vec<_> = (0..2).map(|_| spawn_worker(Vec::new())).collect();
    let addrs: Vec<String> = workers.iter().map(|(a, _, _)| a.to_string()).collect();
    let (fleet, fleet_handle, fleet_join) = spawn_coordinator(addrs, 0.05);
    let (status, got) = http(fleet, "POST", "/v1/suite", &body);
    assert_eq!(status, 207, "{got}");
    assert_eq!(
        got, want,
        "a partial suite must reassemble byte-identically"
    );

    fleet_handle.request_drain();
    fleet_join.join().unwrap().unwrap();
    solo_handle.request_drain();
    solo_join.join().unwrap().unwrap();
    for (_, h, j) in workers {
        h.request_drain();
        j.join().unwrap().unwrap();
    }
}

#[test]
fn dead_and_draining_workers_fail_over_without_losing_work() {
    // One address that accepts nothing: bind, learn the port, drop it.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        l.local_addr().unwrap().to_string()
    };
    let (w1, h1, j1) = spawn_worker(Vec::new());
    let (w2, h2, j2) = spawn_worker(Vec::new());
    // A near-infinite probe interval: after the startup probe (which
    // marks the reserved-then-dropped address dead) the registry only
    // learns about liveness from the forwarding path itself.
    let (fleet, fleet_handle, fleet_join) =
        spawn_coordinator(vec![w1.to_string(), dead, w2.to_string()], 600.0);

    // Every run lands somewhere even though a third of the ring is
    // unreachable from the start.
    for b in ["lbm", "tealeaf", "pot3d", "cloverleaf", "minisweep"] {
        let (status, body) = http(fleet, "POST", "/v1/run", &run_body(b, 4));
        assert_eq!(status, 200, "{b}: {body}");
    }

    // Kill a worker the coordinator still believes is alive: its suite
    // shard is assigned to it, every forward to it fails, and the work
    // is stolen by the surviving worker — the suite completes as if
    // nothing happened.
    h1.request_drain();
    j1.join().unwrap().unwrap();
    let (status, suite) = http(fleet, "POST", "/v1/suite", &suite_body());
    assert_eq!(status, 200, "{suite}");
    assert!(suite.contains("\"complete\": true"), "{suite}");

    // The shed shard shows up as failovers: forwards that succeeded
    // somewhere other than their first-choice worker.
    let (status, metrics) = http(fleet, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(json_u64(&metrics, "failovers") > 0, "{metrics}");

    // With every remaining worker drained the coordinator answers a
    // typed refusal rather than hanging.
    h2.request_drain();
    j2.join().unwrap().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(fleet, "POST", "/v1/run", &run_body("lbm", 8));
        if status == 503 {
            assert!(body.contains("\"error\":"), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "expected 503 once all workers are gone, kept getting {status}: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    fleet_handle.request_drain();
    fleet_join.join().unwrap().unwrap();
}

#[test]
fn peer_cache_fetch_replays_other_workers_results_byte_identically() {
    // Worker A simulates; worker B knows A as a cache peer.
    let (wa, ha, ja) = spawn_worker(Vec::new());
    let (wb, hb, jb) = spawn_worker(vec![wa.to_string()]);

    let (status, from_a) = http(wa, "POST", "/v1/run", &run_body("tealeaf", 8));
    assert_eq!(status, 200, "{from_a}");

    // B answers the same request without simulating: one peer hit, zero
    // executed runs, and the bytes match A's answer exactly.
    let (status, from_b) = http(wb, "POST", "/v1/run", &run_body("tealeaf", 8));
    assert_eq!(status, 200, "{from_b}");
    assert_eq!(from_b, from_a, "peer replay must be byte-identical");

    let (_, metrics) = http(wb, "GET", "/v1/metrics", "");
    assert_eq!(json_u64(&metrics, "peer_hits"), 1, "{metrics}");
    assert_eq!(json_u64(&metrics, "runs_executed"), 0, "{metrics}");

    // A second replay on B is now a local hit, not another peer fetch.
    let (_, again) = http(wb, "POST", "/v1/run", &run_body("tealeaf", 8));
    assert_eq!(again, from_a);
    let (_, metrics) = http(wb, "GET", "/v1/metrics", "");
    assert_eq!(json_u64(&metrics, "peer_hits"), 1, "{metrics}");

    ha.request_drain();
    ja.join().unwrap().unwrap();
    hb.request_drain();
    jb.join().unwrap().unwrap();
}

/// Send `req` verbatim and read until the server closes; returns
/// (status, body). A server that closes without answering fails the
/// test.
fn exchange(addr: SocketAddr, req: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body.to_string())
}

#[test]
fn coordinator_refuses_unframeable_requests_like_a_worker() {
    let (worker, wh, wj) = spawn_worker(Vec::new());
    let (fleet, fh, fj) = spawn_coordinator(vec![worker.to_string()], 0.05);

    let health = |header: &str| {
        format!(
            "GET /v1/health HTTP/1.1\r\nHost: loopback\r\n{header}\r\nConnection: close\r\n\r\n"
        )
    };
    let cases = [
        (
            health(&format!("X-Pad: {}", "y".repeat(17 * 1024))),
            431,
            "headers_too_large",
        ),
        (
            health("Content-Length: 18446744073709551615"),
            400,
            "bad_request",
        ),
        (health("Content-Length: banana"), 400, "bad_request"),
        (health("Transfer-Encoding: chunked"), 400, "bad_request"),
    ];
    for (req, want_status, want_code) in &cases {
        let (status, body) = exchange(fleet, req);
        let head: String = req.chars().take(80).collect();
        assert_eq!(status, *want_status, "{head:?}: {body}");
        assert!(
            body.contains(&format!("\"{want_code}\"")),
            "{head:?}: {body}"
        );
    }
    // The coordinator is still serving after every refusal.
    let (status, _) = http(fleet, "GET", "/v1/health", "");
    assert_eq!(status, 200);

    fh.request_drain();
    fj.join().unwrap().unwrap();
    wh.request_drain();
    wj.join().unwrap().unwrap();
}

#[test]
fn coordinator_metrics_are_exactly_its_routing_counters() {
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        l.local_addr().unwrap().to_string()
    };
    let (fleet, fh, fj) = spawn_coordinator(vec![dead], 600.0);

    let (status, m) = http(fleet, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "{m}");
    let Some(Json::Obj(fields)) = parse_json(&m) else {
        panic!("metrics are not a JSON object: {m}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "requests",
            "failovers",
            "workers_alive",
            "per_worker_routed",
            "breaker_states",
            "breaker_trips",
            "retries_spent",
        ]
    );

    fh.request_drain();
    fj.join().unwrap().unwrap();
}

/// The coordinator decodes a `/v1/run` body to route it, so a deeply
/// nested body must be its typed 400 too, not a stack overflow.
#[test]
fn coordinator_answers_deeply_nested_json_with_a_typed_400() {
    let (worker, wh, wj) = spawn_worker(Vec::new());
    let (fleet, fh, fj) = spawn_coordinator(vec![worker.to_string()], 0.05);

    let (status, body) = http(fleet, "POST", "/v1/run", &"[".repeat(20_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"bad_request\""), "{body}");
    let (status, body) = http(fleet, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = http(fleet, "GET", "/v1/metrics", "");
    assert_eq!(json_u64(&metrics, "workers_alive"), 1, "{metrics}");

    fh.request_drain();
    fj.join().unwrap().unwrap();
    wh.request_drain();
    wj.join().unwrap().unwrap();
}

#[test]
fn drain_does_not_wait_for_an_idle_keepalive_client() {
    let (worker, wh, wj) = spawn_worker(Vec::new());
    let (fleet, fh, fj) = spawn_coordinator(vec![worker.to_string()], 0.05);

    // One keep-alive exchange, then the client goes quiet with the
    // socket still open.
    let mut idle = TcpStream::connect(fleet).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"GET /v1/health HTTP/1.1\r\nHost: loopback\r\n\r\n")
        .expect("send request");
    let mut head = Vec::new();
    let mut buf = [0u8; 4096];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = idle.read(&mut buf).expect("read response");
        assert!(n > 0, "the coordinator closed a keep-alive connection");
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head).to_string();
    assert!(
        head.starts_with("HTTP/1.1 200") && head.contains("Connection: keep-alive"),
        "{head}"
    );

    fh.request_drain();
    let drained = Instant::now();
    while !fj.is_finished() {
        assert!(
            drained.elapsed() < Duration::from_secs(5),
            "serve() still running 5 s after the drain request"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    fj.join().unwrap().unwrap();
    drop(idle);
    wh.request_drain();
    wj.join().unwrap().unwrap();
}

/// A relay in front of `upstream` that counts the connections whose
/// first request is not a health probe: the coordinator's data
/// connections. When the upstream closes a connection, the front keeps
/// the client's side open and answers nothing more on it, so a client
/// that reuses a connection the upstream closed waits out its timeout
/// instead of meeting a prompt EOF.
fn spawn_counting_front(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front");
    let addr = listener.local_addr().unwrap();
    let data_conns = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&data_conns);
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(mut client) = client else { break };
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let mut first = [0u8; 16 * 1024];
                let n = client.read(&mut first).unwrap_or(0);
                if n == 0 {
                    return;
                }
                if !first[..n].starts_with(b"GET /v1/health ") {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                let Ok(mut upstream) = TcpStream::connect(upstream) else {
                    return;
                };
                let _ = client.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                if upstream.write_all(&first[..n]).is_err() {
                    return;
                }
                let (Ok(mut client_r), Ok(mut upstream_r)) =
                    (client.try_clone(), upstream.try_clone())
                else {
                    return;
                };
                let up = std::thread::spawn(move || {
                    if std::io::copy(&mut client_r, &mut upstream).is_err() {
                        let _ = std::io::copy(&mut client_r, &mut std::io::sink());
                    }
                    let _ = upstream.shutdown(Shutdown::Both);
                });
                let _ = std::io::copy(&mut upstream_r, &mut client);
                // The client's side closes when the client closes it.
                let _ = up.join();
            });
        }
    });
    (addr, data_conns)
}

/// The coordinator's `(retries_spent, failovers, breaker_trips)`.
fn fleet_counters(fleet: SocketAddr) -> (u64, u64, u64) {
    let (status, m) = http(fleet, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "{m}");
    (
        json_u64(&m, "retries_spent"),
        json_u64(&m, "failovers"),
        json_u64(&m, "breaker_trips"),
    )
}

#[test]
fn sequential_forwards_reuse_one_pooled_connection() {
    let (worker, wh, wj) = spawn_worker(Vec::new());
    let (front, data_conns) = spawn_counting_front(worker);
    // No probes after the startup ones: every connection past them is
    // a forward's.
    let (fleet, fh, fj) = spawn_coordinator(vec![front.to_string()], 600.0);

    let body = run_body("lbm", 4);
    let (status, want) = http(fleet, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{want}");
    for i in 1..50 {
        let (status, got) = http(fleet, "POST", "/v1/run", &body);
        assert_eq!(status, 200, "forward {i}: {got}");
        assert_eq!(got, want, "forward {i} must replay byte-identically");
    }
    assert_eq!(
        data_conns.load(Ordering::SeqCst),
        1,
        "50 sequential forwards must share one keep-alive connection"
    );
    assert_eq!(fleet_counters(fleet), (0, 0, 0));

    fh.request_drain();
    fj.join().unwrap().unwrap();
    wh.request_drain();
    wj.join().unwrap().unwrap();
}

/// A worker's `/v1/metrics` `runs_executed`, read once nothing is in
/// flight on it, so a simulation still running cannot be missed.
fn settled_runs_executed(worker: SocketAddr) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, health) = http(worker, "GET", "/v1/health", "");
        if json_u64(&health, "inflight") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "work never settled: {health}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, m) = http(worker, "GET", "/v1/metrics", "");
    json_u64(&m, "runs_executed")
}

#[test]
fn each_run_goes_to_one_worker() {
    let workers: Vec<_> = (0..2).map(|_| spawn_worker(Vec::new())).collect();
    let addrs: Vec<String> = workers.iter().map(|(a, _, _)| a.to_string()).collect();
    let (fleet, fh, fj) = spawn_coordinator(addrs, 600.0);

    // Forty forwards of one key, answered from memory after the first,
    // then a run that simulates for far longer than any of them: a
    // coordinator that raced slow forwards against a second worker
    // would do it here.
    let warm = run_body("lbm", 4);
    for i in 0..40 {
        let (status, body) = http(fleet, "POST", "/v1/run", &warm);
        assert_eq!(status, 200, "forward {i}: {body}");
    }
    let before: Vec<u64> = workers
        .iter()
        .map(|(a, _, _)| settled_runs_executed(*a))
        .collect();
    let cold = RunRequest::new("hpgmgfv", WorkloadClass::Small, 208)
        .with_cluster("b")
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
        .to_json();
    let (status, body) = http(fleet, "POST", "/v1/run", &cold);
    assert_eq!(status, 200, "{body}");

    let (_, m) = http(fleet, "GET", "/v1/metrics", "");
    let metrics = parse_json(&m).expect("metrics are JSON");
    assert_eq!(metrics.u64_of("retries_spent"), Some(0), "{m}");
    let routed: f64 = metrics
        .get("per_worker_routed")
        .and_then(Json::arr)
        .expect("per-worker routed counters")
        .iter()
        .filter_map(Json::num)
        .sum();
    assert_eq!(
        routed, 41.0,
        "every forward reached exactly one worker: {m}"
    );
    let mut grew: Vec<u64> = workers
        .iter()
        .zip(&before)
        .map(|((a, _, _), b)| settled_runs_executed(*a) - b)
        .collect();
    grew.sort_unstable();
    assert_eq!(
        grew,
        vec![0, 1],
        "the cold run simulates on its owner only, never on the other worker too"
    );

    fh.request_drain();
    fj.join().unwrap().unwrap();
    for (_, h, j) in workers {
        h.request_drain();
        j.join().unwrap().unwrap();
    }
}

#[test]
fn a_connection_the_worker_reaped_is_resent_without_counting_a_retry() {
    let (worker, wh, wj) =
        spawn_worker_with(Vec::new(), ServeConfig::default().with_idle_timeout_s(0.2));
    let (fleet, fh, fj) = spawn_coordinator(vec![worker.to_string()], 600.0);

    let body = run_body("tealeaf", 4);
    let (status, first) = http(fleet, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{first}");
    let before = fleet_counters(fleet);

    // Past the idle timeout the worker closes the pooled connection:
    // only this health request is open on it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let (_, health) = http(worker, "GET", "/v1/health", "");
        if json_u64(&health, "connections") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the worker never reaped: {health}"
        );
    }

    let (status, second) = http(fleet, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{second}");
    assert_eq!(
        second, first,
        "the resent forward must answer the same bytes"
    );
    assert_eq!(
        fleet_counters(fleet),
        before,
        "a stale pooled connection is not a failed attempt"
    );

    fh.request_drain();
    fj.join().unwrap().unwrap();
    wh.request_drain();
    wj.join().unwrap().unwrap();
}

#[test]
fn a_keepalive_cap_on_the_worker_costs_no_retries() {
    let (worker, wh, wj) = spawn_worker_with(
        Vec::new(),
        ServeConfig::default().with_keepalive_requests(2),
    );
    // The front holds a connection the worker closed open and silent:
    // a coordinator that pooled it despite `Connection: close` would
    // wait out the request timeout and count a failed attempt.
    let (front, data_conns) = spawn_counting_front(worker);
    let (fleet, fh, fj) = spawn_coordinator_with(
        FleetConfig::default()
            .with_workers(vec![front.to_string()])
            .with_probe_interval_s(600.0)
            .with_request_timeout_s(2.0),
    );

    let body = run_body("pot3d", 4);
    let (status, want) = http(fleet, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{want}");
    for i in 1..6 {
        let (status, got) = http(fleet, "POST", "/v1/run", &body);
        assert_eq!(status, 200, "forward {i}: {got}");
        assert_eq!(got, want, "forward {i}");
    }
    assert_eq!(fleet_counters(fleet), (0, 0, 0));
    assert_eq!(
        data_conns.load(Ordering::SeqCst),
        3,
        "each connection carries the worker's cap of 2 forwards"
    );

    fh.request_drain();
    fj.join().unwrap().unwrap();
    wh.request_drain();
    wj.join().unwrap().unwrap();
}
