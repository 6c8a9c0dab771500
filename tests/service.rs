//! End-to-end tests of `spechpc serve`: a real daemon bound to an
//! ephemeral loopback port, driven by hand-rolled HTTP/1.1 clients over
//! `TcpStream` — the same byte path `curl` would take.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spechpc::harness::api;
use spechpc::prelude::*;

/// A small resident executor: in-memory cache, few workers.
fn executor() -> Executor {
    Executor::new(
        RunConfig::default().with_repetitions(1).with_trace(false),
        ExecConfig::default().with_jobs(2),
    )
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(4)
        .with_log_requests(false)
}

/// Bind + spawn a daemon; returns its address, drain handle, and the
/// join handle whose `Ok(())` is the daemon's exit-0 path.
fn spawn_server(
    exec: Executor,
    cfg: ServeConfig,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(exec, cfg).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// One HTTP exchange; returns (status, raw response bytes, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>, String) {
    http_bytes(addr, method, path, body.as_bytes())
}

/// [`http`] with a body of any bytes, UTF-8 or not.
fn http_bytes(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).expect("send request");
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
    (status, raw, body)
}

/// One request WITHOUT `Connection: close` — HTTP/1.1 keep-alive.
fn keepalive_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Read exactly one response off a keep-alive connection, framed by its
/// `Content-Length`; returns (status, raw response bytes). Bytes read
/// past the frame (the next pipelined response) go into `carry` and are
/// consumed first on the next call.
fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, Vec<u8>) {
    let mut raw = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response headers");
        assert!(
            n > 0,
            "EOF before response headers: {:?}",
            String::from_utf8_lossy(&raw)
        );
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line: {head:?}"));
    let content_length: usize = head
        .split("\r\n")
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("response carries Content-Length");
    let total = header_end + 4 + content_length;
    while raw.len() < total {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF mid-body");
        raw.extend_from_slice(&chunk[..n]);
    }
    *carry = raw.split_off(total);
    (status, raw)
}

/// [`read_framed`] for a connection that is not pipelining (no carry).
fn read_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut carry = Vec::new();
    let got = read_framed(stream, &mut carry);
    assert!(carry.is_empty(), "unexpected trailing bytes: {carry:?}");
    got
}

/// A config whose simulation takes real wall time: DES cost scales
/// with the number of simulated steps (× ranks).
fn slow_config(measured_steps: usize) -> RunConfig {
    RunConfig::default()
        .with_measured_steps(measured_steps)
        .with_repetitions(1)
        .with_trace(false)
}

fn run_body(benchmark: &str, nranks: usize, repetitions: usize) -> String {
    RunRequest::new(benchmark, WorkloadClass::Tiny, nranks)
        .with_cluster("a")
        .with_config(
            RunConfig::default()
                .with_repetitions(repetitions)
                .with_trace(false),
        )
        .to_json()
}

/// Poll `/v1/health` until the in-flight gauge reaches `want`.
fn wait_for_inflight(addr: SocketAddr, want: usize) {
    let needle = format!("\"inflight\":{want}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = http(addr, "GET", "/v1/health", "");
        assert_eq!(status, 200, "health must always be served: {body}");
        if body.contains(&needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "in-flight gauge never reached {want}: {body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn run_suite_profile_metrics_and_health_roundtrip() {
    let (addr, _, join) = spawn_server(executor(), serve_config());

    // Liveness first: a fresh daemon is idle and not draining.
    let (status, _, health) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"inflight\":0"), "{health}");
    assert!(health.contains("\"draining\":false"), "{health}");

    // POST /v1/run: a typed request in, a typed result out.
    let (status, first, body) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200, "{body}");
    let resp = RunResponse::from_json(&body).expect("decodable run response");
    assert_eq!(resp.result.benchmark, "lbm");
    assert_eq!(resp.result.nranks, 4);
    assert!(resp.result.runtime_s > 0.0);

    // The identical request again: served from cache, byte-identical
    // down to the HTTP framing (no Date header, no cache markers).
    let (status, second, _) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200);
    assert_eq!(first, second, "cached replay must be byte-identical");

    // The metrics ledger saw one simulation and one memory hit.
    let (status, _, metrics) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"runs_executed\":1"), "{metrics}");
    assert!(metrics.contains("\"hits_mem\":1"), "{metrics}");

    // POST /v1/suite: all nine benchmarks, complete.
    let suite_req = SuiteRequest::new(WorkloadClass::Tiny)
        .with_cluster("a")
        .with_nranks(8)
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
        .to_json();
    let (status, _, suite) = http(addr, "POST", "/v1/suite", &suite_req);
    assert_eq!(status, 200, "{suite}");
    assert!(suite.contains("\"complete\": true"), "{suite}");
    assert!(suite.contains("\"tealeaf\""), "{suite}");

    // GET /v1/profile/{benchmark}: the Fig.-2-style tables as JSON.
    let (status, _, profile) = http(addr, "GET", "/v1/profile/lbm?class=tiny&n=4", "");
    assert_eq!(status, 200, "{profile}");
    for key in [
        "\"run\":\"lbm/tiny/4@ClusterA\"",
        "\"ranks\"",
        "\"histogram\"",
        "\"matrix\"",
    ] {
        assert!(profile.contains(key), "missing {key} in {profile}");
    }

    // Error surface: unknown routes 404, malformed bodies 400, unknown
    // benchmarks 400 — all as typed ApiError JSON.
    let (status, _, body) = http(addr, "GET", "/v2/run", "");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\":\"not_found\""), "{body}");
    let (status, _, body) = http(addr, "POST", "/v1/run", "{\"class\":\"tiny\"}");
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = http(addr, "POST", "/v1/run", &run_body("quantum-foo", 4, 1));
    assert_eq!(status, 400);
    assert!(body.contains("unknown_benchmark"), "{body}");

    // Graceful shutdown over the wire; serve() returns the exit-0 path.
    let (status, _, body) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    join.join()
        .expect("server thread")
        .expect("clean drain exits Ok");
}

#[test]
fn plan_and_capabilities_roundtrip_over_the_wire() {
    use spechpc::harness::plan::{PlanJob, PlanRequest, PlanVariant};
    let (addr, _, join) = spawn_server(executor(), serve_config());

    // GET /v1/capabilities: the whole route table, straight from the
    // registry both dispatchers consume.
    let (status, first_caps, caps) = http(addr, "GET", "/v1/capabilities", "");
    assert_eq!(status, 200, "{caps}");
    for ep in api::ENDPOINTS {
        assert!(
            caps.contains(&format!("\"path\":\"{}\"", ep.display_path)),
            "capabilities must list {}: {caps}",
            ep.display_path
        );
    }
    let (_, second_caps, _) = http(addr, "GET", "/v1/capabilities", "");
    assert_eq!(first_caps, second_caps, "capabilities must be stable");

    // POST /v1/plan: a small queue with a capped variant. The identical
    // request again must replay byte-identically down to the framing —
    // every job shape comes out of the run cache.
    let body = PlanRequest::new()
        .with_cluster("a")
        .with_nodes(4)
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
        .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 72).with_count(6, 10.0))
        .with_job(PlanJob::new("tealeaf", WorkloadClass::Tiny, 144).with_arrival(5.0))
        .with_variant(PlanVariant::new("capped").with_power_cap_w(1300.0))
        .to_json();
    let (status, first, plan) = http(addr, "POST", "/v1/plan", &body);
    assert_eq!(status, 200, "{plan}");
    assert!(plan.contains("\"jobs\":7"), "{plan}");
    assert!(plan.contains("\"name\":\"capped\""), "{plan}");
    assert!(plan.contains("\"comparison\""), "{plan}");
    let (status, second, _) = http(addr, "POST", "/v1/plan", &body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "plan replay must be byte-identical");

    // Semantic impossibility → typed 422, and the daemon keeps serving.
    let wide = PlanRequest::new()
        .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 1_000_000))
        .to_json();
    let (status, _, body) = http(addr, "POST", "/v1/plan", &wide);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("invalid_plan"), "{body}");

    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn a_failing_run_is_a_typed_422_not_a_crash() {
    let (addr, handle, join) = spawn_server(executor(), serve_config());
    let req = RunRequest::new("tealeaf", WorkloadClass::Tiny, 8)
        .with_config(
            RunConfig::default()
                .with_repetitions(1)
                .with_trace(false)
                .with_faults(FaultPlan {
                    seed: 1,
                    events: vec![FaultEvent::Crash { rank: 3, at_s: 0.0 }],
                }),
        )
        .to_json();
    let (status, _, body) = http(addr, "POST", "/v1/run", &req);
    assert_eq!(status, 422, "{body}");
    let err = ApiError::from_json(&body).expect("typed error body");
    assert_eq!(err.code, "rank_failed");
    // The daemon survives the failure and keeps serving.
    let (status, _, _) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200);
    handle.request_drain();
    join.join().unwrap().unwrap();
}

#[test]
fn saturation_answers_429_with_retry_after() {
    // One simulation slot: the second concurrent run must be refused,
    // while health stays served throughout.
    let cfg = serve_config().with_workers(3).with_max_inflight(1);
    let (addr, _, join) = spawn_server(executor(), cfg);

    // Occupy the slot with a deliberately heavy run: simulated work
    // scales with measured_steps × nranks, so a few hundred steps at
    // 1152 ranks holds the slot for seconds even on a fast host.
    let slow = std::thread::spawn(move || {
        let req = RunRequest::new("pot3d", WorkloadClass::Large, 1152)
            .with_config(slow_config(250))
            .to_json();
        http(addr, "POST", "/v1/run", &req)
    });
    wait_for_inflight(addr, 1);

    let (status, raw, body) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("\"error\":\"saturated\""), "{body}");
    let head = String::from_utf8_lossy(&raw);
    // Retry-After is derived from the inflight/capacity load factor:
    // at refusal the single slot is fully occupied (inflight 1, cap 1),
    // so the hint is 1 + 4·1/1 = 5 s rather than the idle-daemon 1 s.
    assert!(head.contains("Retry-After: 5"), "{head}");

    // The fast routes are exempt from admission control.
    let (status, _, _) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);

    let (status, _, body) = slow.join().unwrap();
    assert_eq!(status, 200, "the occupying run still completes: {body}");
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

/// A replay of a key resident in memory is answered on the event loop
/// and takes no simulation slot, so it is served while the only slot is
/// held; a key not yet resident still needs the slot and is refused.
#[test]
fn resident_replays_are_served_while_the_only_slot_is_held() {
    let cfg = serve_config().with_workers(3).with_max_inflight(1);
    let (addr, _, join) = spawn_server(executor(), cfg);
    let (status, warm, body) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200, "{body}");

    // The slow run of `saturation_answers_429_with_retry_after`.
    let slow = std::thread::spawn(move || {
        let req = RunRequest::new("pot3d", WorkloadClass::Large, 1152)
            .with_config(slow_config(250))
            .to_json();
        http(addr, "POST", "/v1/run", &req)
    });
    wait_for_inflight(addr, 1);

    let (status, replay, body) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200, "a resident replay must not shed: {body}");
    assert_eq!(replay, warm, "the replay must be the warm-up's bytes");
    let (status, raw, body) = http(addr, "POST", "/v1/run", &run_body("lbm", 8, 1));
    assert_eq!(status, 429, "a key not yet resident needs the slot: {body}");
    assert!(body.contains("\"error\":\"saturated\""), "{body}");
    let head = String::from_utf8_lossy(&raw);
    assert!(head.contains("Retry-After: 5"), "{head}");

    let (status, _, body) = slow.join().unwrap();
    assert_eq!(status, 200, "the occupying run still completes: {body}");
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn thirty_two_concurrent_clients_are_all_served() {
    let cfg = serve_config().with_workers(8).with_queue_depth(8);
    let (addr, _, join) = spawn_server(executor(), cfg);

    // Prime the cache so the storm replays one entry.
    let (status, reference, _) = http(addr, "POST", "/v1/run", &run_body("tealeaf", 8, 1));
    assert_eq!(status, 200);
    let reference = Arc::new(reference);

    // 32 simultaneous clients, each retrying politely on 429 (the
    // bounded queue and in-flight cap are allowed to push back; they
    // are not allowed to drop or corrupt anyone).
    let clients: Vec<_> = (0..32)
        .map(|i| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                loop {
                    let (status, raw, body) =
                        http(addr, "POST", "/v1/run", &run_body("tealeaf", 8, 1));
                    match status {
                        200 => {
                            assert_eq!(
                                raw, *reference,
                                "client {i}: replay must be byte-identical"
                            );
                            return;
                        }
                        429 => {
                            assert!(Instant::now() < deadline, "client {i} starved: {body}");
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        other => panic!("client {i}: unexpected status {other}: {body}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Exactly one simulation ever ran; everything else hit the cache.
    let (_, _, metrics) = http(addr, "GET", "/v1/metrics", "");
    assert!(metrics.contains("\"runs_executed\":1"), "{metrics}");

    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn requests_over_the_time_budget_answer_a_typed_504() {
    // The daemon runs every simulation under the executor's
    // cooperative cancel token: a run that blows its budget surfaces
    // as a typed 504, and the worker is free for the next request.
    let exec = Executor::new(
        RunConfig::default().with_repetitions(1).with_trace(false),
        ExecConfig::default().with_jobs(2).with_timeout_s(0.05),
    );
    let (addr, _, join) = spawn_server(exec, serve_config());

    let req = RunRequest::new("pot3d", WorkloadClass::Large, 1152)
        .with_config(slow_config(400))
        .to_json();
    let (status, _, body) = http(addr, "POST", "/v1/run", &req);
    assert_eq!(status, 504, "{body}");
    let err = ApiError::from_json(&body).expect("typed error body");
    assert_eq!(err.code, "timeout");

    // A cheap run fits the same budget; the daemon kept serving.
    let (status, _, body) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200, "{body}");

    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_inflight_work_before_exiting() {
    let (addr, handle, join) = spawn_server(executor(), serve_config());

    let slow = std::thread::spawn(move || {
        let req = RunRequest::new("pot3d", WorkloadClass::Large, 1152)
            .with_config(slow_config(150))
            .to_json();
        http(addr, "POST", "/v1/run", &req)
    });
    wait_for_inflight(addr, 1);

    // Drain while the run is mid-flight: the daemon must finish it,
    // answer 200, and only then let serve() return.
    handle.request_drain();
    let (status, _, body) = slow.join().unwrap();
    assert_eq!(status, 200, "in-flight work must complete: {body}");
    join.join().unwrap().unwrap();
    assert!(handle.draining());
}

#[test]
fn api_metrics_flush_to_csv_on_drain() {
    let dir = std::env::temp_dir().join(format!("spechpc-serve-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = serve_config().with_metrics_dir(&dir);
    let (addr, _, join) = spawn_server(executor(), cfg);
    let (status, _, _) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200);
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
    let csv = dir.join("serve.csv");
    let text = std::fs::read_to_string(&csv)
        .unwrap_or_else(|e| panic!("drain must flush {}: {e}", csv.display()));
    assert!(text.contains("runs_executed"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keepalive_connection_replays_byte_identically_and_health_counts_it() {
    let (addr, _, join) = spawn_server(executor(), serve_config());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();

    // First request simulates; the identical second replays from cache
    // over the SAME connection — byte-identical down to the framing.
    let req = keepalive_request("POST", "/v1/run", &run_body("lbm", 4, 1));
    conn.write_all(req.as_bytes()).unwrap();
    let (status, first) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&first).contains("Connection: keep-alive"),
        "keep-alive requests must be answered keep-alive"
    );
    conn.write_all(req.as_bytes()).unwrap();
    let (status, second) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert_eq!(first, second, "keep-alive replay must be byte-identical");

    // The health gauge distinguishes open connections from in-flight
    // simulations: our idle keep-alive connection plus health's own.
    let (status, _, health) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"connections\":2"), "{health}");
    assert!(health.contains("\"inflight\":0"), "{health}");

    drop(conn);
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, _, join) = spawn_server(executor(), serve_config());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();

    // Two fast requests in one write: both answered, in order.
    let pair = format!(
        "{}{}",
        keepalive_request("GET", "/v1/health", ""),
        keepalive_request("GET", "/v1/metrics", "")
    );
    conn.write_all(pair.as_bytes()).unwrap();
    let mut carry = Vec::new();
    let (status, raw) = read_framed(&mut conn, &mut carry);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&raw).contains("\"status\":\"ok\""));
    let (status, raw) = read_framed(&mut conn, &mut carry);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&raw).contains("runs_executed"));

    // A simulating request with a fast one pipelined behind it: the
    // buffered successor must be served after the completion lands.
    let pair = format!(
        "{}{}",
        keepalive_request("POST", "/v1/run", &run_body("lbm", 4, 1)),
        keepalive_request("GET", "/v1/health", "")
    );
    conn.write_all(pair.as_bytes()).unwrap();
    let (status, raw) = read_framed(&mut conn, &mut carry);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&raw).contains("\"benchmark\""));
    let (status, raw) = read_framed(&mut conn, &mut carry);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&raw).contains("\"status\":\"ok\""));

    drop(conn);
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn requests_split_at_arbitrary_byte_boundaries_still_parse() {
    let (addr, _, join) = spawn_server(executor(), serve_config());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let req = keepalive_request("POST", "/v1/run", &run_body("lbm", 4, 1));
    for chunk in req.as_bytes().chunks(3) {
        conn.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, _) = read_response(&mut conn);
    assert_eq!(status, 200, "a dribbled request must still parse");
    drop(conn);
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn oversized_headers_are_refused_with_431() {
    let (addr, _, join) = spawn_server(executor(), serve_config());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut req = b"GET /v1/health HTTP/1.1\r\nHost: loopback\r\n".to_vec();
    req.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "y".repeat(20_000)).as_bytes());
    conn.write_all(&req).unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read refusal");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 431"), "{text}");
    assert!(text.contains("headers_too_large"), "{text}");
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

/// 20 KB of `[` fits the body cap many times over. The parser caps its
/// nesting depth, so the body is a typed 400 and the daemon lives on
/// (unbounded recursion would overflow a pool thread's stack and abort
/// the process).
#[test]
fn deeply_nested_json_bodies_are_a_typed_400() {
    let (addr, _, join) = spawn_server(executor(), serve_config());
    let bomb = "[".repeat(20_000);
    for path in ["/v1/run", "/v1/plan"] {
        let (status, _, body) = http(addr, "POST", path, &bomb);
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("\"bad_request\""), "{path}: {body}");
    }
    let (status, _, _) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

/// The wire reads RFC 8259 JSON and nothing looser. A number with a
/// plus sign or a leading zero is a typed 400, not a run of 4 ranks. A
/// UTF-16 surrogate pair (Python's `json.dumps` spelling of `🚀`) is one
/// character and comes back as raw UTF-8, while a lone surrogate or a
/// raw control byte inside a string is a 400.
#[test]
fn wire_json_is_exactly_rfc_8259() {
    use spechpc::harness::plan::{PlanJob, PlanRequest, PlanVariant};
    let (addr, _, join) = spawn_server(executor(), serve_config());
    for body in [
        r#"{"benchmark":"lbm","nranks": +4}"#,
        r#"{"benchmark":"lbm","nranks": 04}"#,
    ] {
        let (status, _, answer) = http(addr, "POST", "/v1/run", body);
        assert_eq!(status, 400, "{body}: {answer}");
        assert!(answer.contains("\"bad_request\""), "{body}: {answer}");
    }
    let plan = |name: &str| {
        PlanRequest::new()
            .with_cluster("a")
            .with_nodes(4)
            .with_config(RunConfig::default().with_repetitions(1).with_trace(false))
            .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 72))
            .with_variant(PlanVariant::new("NAME").with_power_cap_w(1300.0))
            .to_json()
            .replace("\"NAME\"", &format!("\"{name}\""))
    };
    // A body that is not UTF-8 is a 400; its bytes are never replaced
    // by U+FFFD, in a field the request ignores or in a name it echoes.
    for body in [
        &b"{\"benchmark\":\"lbm\",\"nranks\":4,\"note\":\"\xff\"}"[..],
        b"{\"benchmark\":\"lbm\xff\",\"nranks\":4}",
    ] {
        let (status, _, answer) = http_bytes(addr, "POST", "/v1/run", body);
        assert_eq!(status, 400, "{}: {answer}", String::from_utf8_lossy(body));
        assert!(answer.contains("\"bad_request\""), "{answer}");
        assert!(!answer.contains('\u{fffd}'), "{answer}");
    }
    let (status, _, answer) = http(addr, "POST", "/v1/plan", &plan(r"\ud83d\ude80"));
    assert_eq!(status, 200, "{answer}");
    assert!(answer.contains("\"name\":\"🚀\""), "{answer}");
    for name in [r"\ud83d", "a\tb"] {
        let body = plan(name);
        let (status, _, answer) = http(addr, "POST", "/v1/plan", &body);
        assert_eq!(status, 400, "{body}: {answer}");
        assert!(answer.contains("\"bad_request\""), "{body}: {answer}");
    }
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

/// Integer fields decode strictly on the wire: a value that is not a
/// non-negative integer is a typed 400 instead of another run (`-5`
/// ranks used to run a full node, `2.7` two ranks), and step or
/// repetition counts out of range are a typed 422 before any work
/// starts (`1e30` repetitions used to panic, `1e9` warm-up steps to
/// hold a worker until the timeout).
#[test]
fn out_of_range_integers_are_typed_errors_not_other_runs() {
    let (addr, _, join) = spawn_server(executor(), serve_config());
    for (body, status, code) in [
        (r#"{"benchmark":"lbm","nranks":-5}"#, 400, "bad_request"),
        (r#"{"benchmark":"lbm","nranks":2.7}"#, 400, "bad_request"),
        (
            r#"{"benchmark":"lbm","config":{"repetitions":1e30}}"#,
            400,
            "bad_request",
        ),
        (
            r#"{"benchmark":"lbm","config":{"measured_steps":0}}"#,
            422,
            "invalid_config",
        ),
        (
            r#"{"benchmark":"lbm","config":{"warmup_steps":1e9}}"#,
            422,
            "invalid_config",
        ),
        // An exact integer, but more ranks than the cluster models: the
        // engine would allocate per-rank state for all of them.
        (r#"{"benchmark":"lbm","nranks":4e15}"#, 422, "invalid_ranks"),
        (r#"{"benchmark":"lbm","nranks":2305}"#, 422, "invalid_ranks"),
        // A string or bool field of another type is not its default.
        (r#"{"benchmark":"lbm","cluster":2}"#, 400, "bad_request"),
        (r#"{"benchmark":"lbm","class":7}"#, 400, "bad_request"),
        (
            r#"{"benchmark":"lbm","config":{"trace":"yes"}}"#,
            400,
            "bad_request",
        ),
    ] {
        let (got, _, answer) = http(addr, "POST", "/v1/run", body);
        assert_eq!(got, status, "{body}: {answer}");
        assert!(answer.contains(&format!("\"{code}\"")), "{body}: {answer}");
    }
    for (path, body, status, code) in [
        ("/v1/suite", r#"{"nranks":4e15}"#, 422, "invalid_ranks"),
        ("/v1/suite", r#"{"cluster":true}"#, 400, "bad_request"),
        ("/v1/suite", r#"{"class":["small"]}"#, 400, "bad_request"),
        (
            "/v1/plan",
            r#"{"cluster":2,"jobs":[{"benchmark":"lbm","nranks":4}]}"#,
            400,
            "bad_request",
        ),
        (
            "/v1/plan",
            r#"{"jobs":[{"benchmark":"lbm","class":7,"nranks":4}]}"#,
            400,
            "bad_request",
        ),
        (
            "/v1/plan",
            r#"{"jobs":[{"benchmark":"lbm","nranks":4}],"variants":[{"name":"v","cluster":2}]}"#,
            400,
            "bad_request",
        ),
    ] {
        let (got, _, answer) = http(addr, "POST", path, body);
        assert_eq!(got, status, "{path} {body}: {answer}");
        assert!(
            answer.contains(&format!("\"{code}\"")),
            "{path} {body}: {answer}"
        );
    }
    assert_eq!(
        lookups(addr),
        [0, 0, 0],
        "no refused request reached the cache"
    );
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn slow_loris_is_reaped_by_the_read_deadline() {
    let cfg = serve_config().with_read_timeout_s(0.2);
    let (addr, _, join) = spawn_server(executor(), cfg);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    // Start a request and never finish it.
    conn.write_all(b"GET /v1/health HTTP/1.1\r\nHost: lo")
        .unwrap();
    let t0 = Instant::now();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read reap answer");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("read_timeout"), "{text}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "reaper took {:?}",
        t0.elapsed()
    );
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn connections_beyond_the_cap_get_a_canned_503() {
    let cfg = serve_config().with_max_conns(3);
    let (addr, handle, join) = spawn_server(executor(), cfg);
    let _c1 = TcpStream::connect(addr).expect("connect c1");
    let _c2 = TcpStream::connect(addr).expect("connect c2");

    // Hold the third (and last) slot with a keep-alive connection and
    // wait until the gauge confirms all three are registered.
    let mut c3 = TcpStream::connect(addr).expect("connect c3");
    c3.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        c3.write_all(keepalive_request("GET", "/v1/health", "").as_bytes())
            .unwrap();
        let (status, raw) = read_response(&mut c3);
        assert_eq!(status, 200);
        if String::from_utf8_lossy(&raw).contains("\"connections\":3") {
            break;
        }
        assert!(Instant::now() < deadline, "cap never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The fourth connection is refused at accept time.
    let mut c4 = TcpStream::connect(addr).expect("connect c4");
    c4.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut raw = Vec::new();
    c4.read_to_end(&mut raw).expect("read refusal");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("connection_limit"), "{text}");

    // Drain via the in-process handle: an HTTP shutdown would race the
    // still-full cap and could itself be refused.
    drop((_c1, _c2, c3));
    handle.request_drain();
    join.join().unwrap().unwrap();
}

#[test]
fn keepalive_request_cap_closes_the_connection() {
    let cfg = serve_config().with_keepalive_requests(2);
    let (addr, _, join) = spawn_server(executor(), cfg);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let req = keepalive_request("GET", "/v1/health", "");
    conn.write_all(req.as_bytes()).unwrap();
    let (status, raw) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&raw).contains("Connection: keep-alive"));
    conn.write_all(req.as_bytes()).unwrap();
    let (status, raw) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&raw).contains("Connection: close"),
        "the capped request must be framed close"
    );
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("read close");
    assert!(rest.is_empty(), "no bytes after the final response");
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn a_thousand_keepalive_connections_replay_byte_identically() {
    // The acceptance bar for the event loop: ≥ 1024 concurrent
    // keep-alive connections on one daemon, two full request rounds,
    // zero refusals, every cached replay byte-identical.
    let cfg = serve_config()
        .with_workers(4)
        .with_queue_depth(2048)
        .with_max_inflight(2048)
        .with_max_conns(2048)
        .with_idle_timeout_s(300.0);
    let (addr, _, join) = spawn_server(executor(), cfg);

    // Prime the cache so the fleet replays one entry.
    let (status, _, _) = http(addr, "POST", "/v1/run", &run_body("lbm", 4, 1));
    assert_eq!(status, 200);

    const FLEET: usize = 1024;
    let req = keepalive_request("POST", "/v1/run", &run_body("lbm", 4, 1));
    let mut conns: Vec<TcpStream> = (0..FLEET)
        .map(|i| {
            let s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
            s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            s
        })
        .collect();

    let mut reference: Option<Vec<u8>> = None;
    for round in 0..2 {
        for (i, c) in conns.iter_mut().enumerate() {
            c.write_all(req.as_bytes())
                .unwrap_or_else(|e| panic!("round {round} conn {i} write: {e}"));
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let (status, raw) = read_response(c);
            assert_eq!(status, 200, "round {round} conn {i}");
            if reference.is_none() {
                reference = Some(raw.clone());
            }
            assert_eq!(
                Some(&raw),
                reference.as_ref(),
                "round {round} conn {i}: replay must be byte-identical"
            );
        }
    }

    // All of them survived both rounds: the health gauge sees the whole
    // fleet plus its own connection.
    let (status, _, health) = http(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(
        health.contains(&format!("\"connections\":{}", FLEET + 1)),
        "{health}"
    );

    drop(conns);
    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}

#[test]
fn cli_request_types_and_wire_requests_are_the_same_dispatch_path() {
    // What the CLI builds and what the daemon decodes are literally the
    // same value — the API round-trip is the contract.
    let cli_side = RunRequest::new("lbm", WorkloadClass::Tiny, 4)
        .with_cluster("a")
        .with_config(RunConfig::default().with_repetitions(1).with_trace(false));
    let wire_side = RunRequest::from_json(&cli_side.to_json()).unwrap();
    let exec = executor();
    let a = api::dispatch_run(&exec, &cli_side).unwrap();
    let b = api::dispatch_run(&exec, &wire_side).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

/// `/v1/metrics` of the daemon at `addr`, parsed.
fn metrics(addr: SocketAddr) -> Json {
    let (status, _, body) = http(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "{body}");
    parse_json(&body).expect("metrics are JSON")
}

/// `(hits_mem, hits_disk, misses)` of the daemon at `addr`.
fn lookups(addr: SocketAddr) -> [u64; 3] {
    let m = metrics(addr);
    let cache = m.get("cache").expect("cache block");
    ["hits_mem", "hits_disk", "misses"].map(|k| cache.u64_of(k).expect(k))
}

/// A disk-backed daemon over `dir`, fetching local misses from `peers`.
fn spawn_disk_daemon(
    dir: &std::path::Path,
    peers: Vec<String>,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let mut exec = Executor::new(
        RunConfig::default().with_repetitions(1).with_trace(false),
        ExecConfig::default().with_jobs(2).with_cache_dir(dir),
    );
    if !peers.is_empty() {
        exec = exec.with_peer_fetch(spechpc::harness::fleet::peer_fetcher(peers));
    }
    spawn_server(exec, serve_config())
}

#[test]
fn run_bodies_are_identical_from_every_cache_tier() {
    let root = std::env::temp_dir().join(format!("spechpc-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (owner_dir, peer_dir) = (root.join("owner"), root.join("peer"));
    let flaky = FaultPlan {
        seed: 11,
        events: vec![FaultEvent::FlakyLink {
            from: 0,
            to: 1,
            drop_prob: 0.3,
            retransmit_latency_s: 4e-6,
        }],
    };
    let noisy = spechpc::harness::faultcfg::load_plan(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/plans/noisy-node.toml"
    )))
    .expect("noisy-node plan loads");
    let requests: Vec<RunRequest> = [FaultPlan::none(), noisy, flaky]
        .into_iter()
        .map(|plan| {
            RunRequest::new("tealeaf", WorkloadClass::Tiny, 8)
                .with_cluster("a")
                .with_config(
                    RunConfig::default()
                        .with_repetitions(1)
                        .with_trace(false)
                        .with_faults(plan),
                )
        })
        .collect();
    let key =
        |req: &RunRequest| RunKey::new("ClusterA", "tealeaf", "tiny", 8, &req.config).canonical();
    assert!(
        key(&requests[2]).contains("|flaky2("),
        "{}",
        key(&requests[2])
    );
    // The reference: the in-process dispatcher on a cold in-memory
    // executor (every request is a distinct key, so each simulates).
    let reference = Executor::new(RunConfig::default(), ExecConfig::default().with_jobs(1));
    let want: Vec<String> = requests
        .iter()
        .map(|req| api::dispatch_run(&reference, req).unwrap().to_json())
        .collect();

    // Each spelling runs on daemons of its own. Padded past the loop's
    // parse bound, a request's memory hit is answered by the worker pool
    // instead of the event loop.
    for pad in [0, spechpc::harness::serve::INLINE_BODY_BYTES] {
        let spell = |req: &RunRequest| format!("{}{}", " ".repeat(pad), req.to_json());
        // POST each request to `addr`; each must answer the reference
        // bytes and move exactly the lookup counter `moved` by one.
        let serve_all = |addr: SocketAddr, tier: &str, moved: usize| {
            for (req, want) in requests.iter().zip(&want) {
                let before = lookups(addr);
                let (status, _, body) = http(addr, "POST", "/v1/run", &spell(req));
                assert_eq!(status, 200, "{tier}, pad {pad}: {body}");
                assert_eq!(
                    &body,
                    want,
                    "{tier}, pad {pad}: body differs for {}",
                    key(req)
                );
                let mut delta = lookups(addr);
                for (d, b) in delta.iter_mut().zip(before) {
                    *d -= b;
                }
                let mut expect = [0; 3];
                expect[moved] = 1;
                assert_eq!(
                    delta, expect,
                    "{tier}, pad {pad}: (hits_mem, hits_disk, misses) moved"
                );
            }
        };
        let (owner_dir, peer_dir) = (
            owner_dir.join(pad.to_string()),
            peer_dir.join(pad.to_string()),
        );

        let (owner, _, owner_join) = spawn_disk_daemon(&owner_dir, vec![]);
        serve_all(owner, "fresh run", 2);
        serve_all(owner, "memory hit", 0);
        assert_eq!(metrics(owner).u64_of("runs_executed"), Some(3));

        let (reader, _, reader_join) = spawn_disk_daemon(&owner_dir, vec![]);
        serve_all(reader, "disk hit", 1);
        assert_eq!(metrics(reader).u64_of("runs_executed"), Some(0));

        let (peer, _, peer_join) = spawn_disk_daemon(&peer_dir, vec![owner.to_string()]);
        serve_all(peer, "peer hit", 2);
        let m = metrics(peer);
        assert_eq!(m.u64_of("runs_executed"), Some(0));
        assert_eq!(m.u64_of("peer_hits"), Some(3));

        for (addr, join) in [
            (peer, peer_join),
            (reader, reader_join),
            (owner, owner_join),
        ] {
            let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
            assert_eq!(status, 200);
            join.join().unwrap().unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn memory_hits_past_the_ledger_cap_keep_counting_in_bounded_memory() {
    use spechpc::harness::exec::POINT_LEDGER_CAP;
    let exec = executor();
    // A fork shares the daemon's counters, so the test can read the
    // ledger the daemon keeps.
    let probe = exec.with_run_config(exec.run_config().clone());
    let (addr, _, join) = spawn_server(exec, serve_config());
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let req = keepalive_request("POST", "/v1/run", &run_body("lbm", 4, 1));
    let served = POINT_LEDGER_CAP + 200;
    let mut first = None;
    for _ in 0..served {
        conn.write_all(req.as_bytes()).unwrap();
        let (status, bytes) = read_response(&mut conn);
        assert_eq!(status, 200);
        assert_eq!(first.get_or_insert_with(|| bytes.clone()), &bytes);
    }
    drop(conn);

    let m = metrics(addr);
    assert_eq!(m.u64_of("points_timed"), Some(served as u64));
    assert_eq!(m.u64_of("runs_executed"), Some(1));
    let cache = m.get("cache").unwrap();
    assert_eq!(cache.u64_of("hits_mem"), Some(served as u64 - 1));
    let ledger = probe.metrics();
    assert_eq!(ledger.point_wall_s.len(), POINT_LEDGER_CAP);
    assert_eq!(ledger.points_timed, served as u64);
    assert!(ledger.total_wall_s() >= ledger.point_wall_s.iter().map(|(_, s)| s).sum::<f64>());

    let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap().unwrap();
}
