//! `replay-grid` and `fleet-replay`: a sweep script re-reading the
//! Fig. 1 grid from a resident daemon, directly or through a fleet
//! coordinator. Seeded uniform key draws, closed loop over one
//! keep-alive connection.

use std::net::SocketAddr;
use std::time::Instant;

use spechpc::harness::api::{dispatch_run, resolve_cluster};
use spechpc::harness::fleet::HashRing;
use spechpc::harness::json::{parse_json, Json};
use spechpc::prelude::*;

use crate::daemons::{self, cache_lookups, serve_executor, Daemon, Fleet};
use crate::http::Client;
use crate::inputs::{grid_bodies, KeyDraws};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::{Ctx, Timed};

/// Fresh setups timed per run for `setup_s`.
const SETUPS: usize = 3;

/// Virtual nodes per worker on `spechpc fleet`'s default ring.
const FLEET_VNODES: usize = 64;

/// The system under test: one daemon, or a coordinator over two.
enum Target {
    Direct(Daemon),
    Fleet(Fleet),
}

impl Target {
    fn start(ctx: &Ctx, fleet: bool) -> std::io::Result<Target> {
        Ok(if fleet {
            Target::Fleet(Fleet::start([
                ctx.work.fresh("cache"),
                ctx.work.fresh("cache"),
            ])?)
        } else {
            Target::Direct(Daemon::start(ctx.work.fresh("cache"), None)?)
        })
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Target::Direct(d) => d.addr,
            Target::Fleet(f) => f.addr,
        }
    }

    fn daemons(&self) -> Vec<&Daemon> {
        match self {
            Target::Direct(d) => vec![d],
            Target::Fleet(f) => f.workers.iter().collect(),
        }
    }

    fn stop(self) -> Result<(), String> {
        match self {
            Target::Direct(d) => d.stop(),
            Target::Fleet(f) => f.stop(),
        }
        .map_err(|e| e.to_string())
    }
}

/// Start the target and warm every key through it; the warm-up bodies
/// are the expected replay bodies.
fn setup(ctx: &Ctx, fleet: bool, bodies: &[String]) -> Result<(Target, Vec<String>, f64), String> {
    let t0 = Instant::now();
    let target = Target::start(ctx, fleet).map_err(|e| e.to_string())?;
    let warm = daemons::warm(target.addr(), "/v1/run", bodies)?;
    Ok((target, warm, t0.elapsed().as_secs_f64()))
}

/// The closed loop: draw, send, compare with the warm-up body.
fn replay(
    client: &mut Client,
    bodies: &[String],
    warm: &[String],
    seed: u64,
    seconds: f64,
) -> Result<(Timed, u64), String> {
    let mut draws = KeyDraws::new(seed, bodies.len());
    Timed::run(seconds, |_| {
        let k = draws.next().expect("key draws never end");
        match client.post("/v1/run", &bodies[k]) {
            Ok(r) if r.status == 200 && r.body == warm[k] => Ok(true),
            Ok(r) => {
                if r.status != 200 {
                    println!("replay: key {k} answered {}", r.status);
                }
                Ok(false)
            }
            Err(e) => {
                println!("replay: key {k}: {e}");
                client.reconnect().map_err(|e| e.to_string())?;
                Ok(false)
            }
        }
    })
}

/// Each daemon's `/v1/metrics`, each over a new connection: one opened
/// before the timed phase would sit idle through it, and a daemon
/// closes a keep-alive connection idle for 60 s.
fn daemon_metrics(daemons: &[&Daemon]) -> Result<Vec<Json>, String> {
    daemons
        .iter()
        .map(|d| daemons::metrics(&mut Client::connect(d.addr).map_err(|e| e.to_string())?))
        .collect()
}

/// Sum of every daemon's cache `(hits, lookups)`.
fn lookups(daemons: &[&Daemon]) -> Result<(u64, u64), String> {
    Ok(daemon_metrics(daemons)?
        .iter()
        .map(cache_lookups)
        .fold((0, 0), |t, (h, l)| (t.0 + h, t.1 + l)))
}

/// Coordinator counters: `(failovers, retries_spent, Σ per_worker_routed)`.
fn fleet_counters(m: &Json) -> (u64, u64, u64) {
    let routed = m
        .get("per_worker_routed")
        .and_then(Json::arr)
        .map(|a| a.iter().filter_map(Json::num).sum::<f64>() as u64)
        .unwrap_or(0);
    (
        m.u64_of("failovers").unwrap_or(0),
        m.u64_of("retries_spent").unwrap_or(0),
        routed,
    )
}

pub fn run(ctx: &Ctx, fleet: bool) -> Result<Outcome, String> {
    let bodies = grid_bodies();
    if ctx.trace {
        return traced(ctx, fleet, &bodies);
    }
    let mut out = Outcome::default();
    let (target, warm, first_setup) = setup(ctx, fleet, &bodies)?;
    let mut client = Client::connect(target.addr()).map_err(|e| e.to_string())?;
    let before = lookups(&target.daemons())?;
    let counters_before = match fleet {
        true => fleet_counters(&daemons::metrics(&mut client)?),
        false => (0, 0, 0),
    };

    let (r, replay_failed) = replay(&mut client, &bodies, &warm, ctx.seed, ctx.seconds)?;

    let after = lookups(&target.daemons())?;
    let misses = (after.1 - before.1) - (after.0 - before.0);
    if fleet {
        let (f, rs, _) = fleet_counters(&daemons::metrics(&mut client)?);
        let (failovers, retries) = (f - counters_before.0, rs - counters_before.1);
        println!("fleet-replay: failovers {failovers}, retries spent {retries}");
        out.failed += failovers + retries;
    }
    println!("{}: cache misses during replay {misses}", ctx.workload);
    out.failed += misses;
    drop(client);
    target.stop()?;
    crate::set_peak_rss(&mut out)?;

    // More setups for `setup_s`, after the peak-memory reading so that
    // it covers one setup and the timed phase. Every setup must answer
    // the same bytes.
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (again, bodies_again, secs) = setup(ctx, fleet, &bodies)?;
        setups.push(secs);
        out.failed += warm
            .iter()
            .zip(&bodies_again)
            .filter(|(a, b)| a != b)
            .count() as u64;
        again.stop()?;
    }
    out.attempted = r.ops();
    out.failed += replay_failed;
    out.set("setup_s", median(&setups));
    r.set_metrics(&mut out);
    Ok(out)
}

/// The ring owner of each body's key, as the coordinator routes it.
fn ring_owners(bodies: &[String]) -> Result<Vec<usize>, String> {
    let ring = HashRing::new(2, FLEET_VNODES);
    bodies
        .iter()
        .map(|b| {
            let req = RunRequest::from_json(b).map_err(|e| e.message)?;
            let cluster = resolve_cluster(&req.cluster).map_err(|e| e.message)?;
            let spec = req.spec(&cluster);
            let key = RunKey::new(
                &cluster.name,
                &spec.benchmark,
                &spec.class.to_string(),
                spec.nranks,
                &req.config,
            );
            let hash = u64::from_str_radix(&key.hash_hex(), 16).map_err(|e| e.to_string())?;
            Ok(ring.preference(hash)[0])
        })
        .collect()
}

fn traced(ctx: &Ctx, fleet: bool, bodies: &[String]) -> Result<Outcome, String> {
    let (target, warm, _) = setup(ctx, fleet, bodies)?;
    let mut client = Client::connect(target.addr()).map_err(|e| e.to_string())?;
    let daemons = target.daemons();
    let mut direct: Vec<Client> = daemons
        .iter()
        .map(|d| Client::connect(d.addr))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let before = lookups(&daemons)?;
    let counters_before = match fleet {
        true => fleet_counters(&daemons::metrics(&mut client)?),
        false => (0, 0, 0),
    };
    let mut out = Outcome::default();

    // Untraced half: the reference for tracing overhead.
    let (untraced, untraced_failed) =
        replay(&mut client, bodies, &warm, ctx.seed, ctx.seconds / 2.0)?;
    out.attempted += untraced.ops();
    out.failed += untraced_failed;

    // In-process executors holding the same entries as each daemon.
    let owners = if fleet {
        ring_owners(bodies)?
    } else {
        vec![0; bodies.len()]
    };
    let mirrors: Vec<Executor> = daemons
        .iter()
        .map(|d| serve_executor(&d.cache_dir))
        .collect();
    for (k, body) in bodies.iter().enumerate() {
        let req = RunRequest::from_json(body).map_err(|e| e.message)?;
        let resp = dispatch_run(&mirrors[owners[k]], &req).map_err(|e| e.message)?;
        if resp.to_json() != warm[k] {
            return Err(format!(
                "in-process replay of key {k} differs from the daemon's"
            ));
        }
    }

    // Traced half: the same ops again, each call's children re-issued.
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let start = Instant::now();
    let (mut fleet_ms, mut vet_ms, mut routed_ops) = (Vec::new(), Vec::new(), 0u64);
    for (op, k) in KeyDraws::new(ctx.seed, bodies.len()).enumerate() {
        let body = &bodies[k];
        let (resp, root) = t.span(
            if fleet { "fleet.rtt" } else { "serve.rtt" },
            None,
            op,
            || client.post("/v1/run", body),
        );
        let mut ok = matches!(&resp, Ok(r) if r.status == 200 && r.body == warm[k]);
        let serve_parent = if fleet {
            routed_ops += 1;
            let w = owners[k];
            let (direct_resp, id) = t.span("serve.rtt", Some(root), op, || {
                direct[w].post("/v1/run", body)
            });
            ok &= matches!(&direct_resp, Ok(r) if r.status == 200 && r.body == warm[k]);
            let text = resp.as_ref().map(|r| r.body.as_str()).unwrap_or("");
            let (vetted, _) = t.span("fleet.vet", Some(root), op, || parse_json(text));
            ok &= vetted.is_some();
            id
        } else {
            root
        };
        let mirror = &mirrors[owners[k]];
        let (req, _) = t.span("api.decode", Some(serve_parent), op, || {
            RunRequest::from_json(body)
        });
        let req = req.map_err(|e| e.message)?;
        let (resp, _) = t.span("exec.hit", Some(serve_parent), op, || {
            dispatch_run(mirror, &req)
        });
        let resp = resp.map_err(|e| e.message)?;
        let (text, enc) = t.span("api.encode", Some(serve_parent), op, || resp.to_json());
        t.count(enc, text.len() as u64);
        ok &= text == warm[k];
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds / 2.0 {
            break;
        }
    }
    let spans = t.into_spans();
    let selfs = trace::self_times(&spans);

    let after = lookups(&daemons)?;
    let hits = after.0 - before.0;
    out.set(
        "cache.hit_ratio",
        hits as f64 / (after.1 - before.1).max(1) as f64,
    );
    let points_timed: u64 = daemon_metrics(&daemons)?
        .iter()
        .map(|m| m.u64_of("points_timed").unwrap_or(0))
        .sum();
    out.set("exec.points_timed", points_timed as f64);
    if fleet {
        let (f, rs, routed) = fleet_counters(&daemons::metrics(&mut client)?);
        out.set("fleet.failovers", (f - counters_before.0) as f64);
        out.set("fleet.retries_spent", (rs - counters_before.1) as f64);
        let sent = untraced.ops() + routed_ops;
        out.set(
            "fleet.routed_share",
            (routed - counters_before.2) as f64 / sent as f64,
        );
    }
    drop((client, direct));
    drop(mirrors);
    target.stop()?;

    let durations = |name: &str| trace::durations(&spans, name);
    let selfs_of = |name: &str| trace::selfs_of(&spans, &selfs, name);
    let serve_self = selfs_of("serve.rtt");
    out.set("serve.self_ms.p50", median(&serve_self));
    out.set(
        "serve.self_ms.p90",
        percentile(&serve_self, 90.0).unwrap_or(0.0),
    );
    out.set("api.decode_ms.p50", median(&durations("api.decode")));
    let enc = durations("api.encode");
    out.set("api.encode_ms.p50", median(&enc));
    out.set("api.encode_ms.p90", percentile(&enc, 90.0).unwrap_or(0.0));
    let kb: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "api.encode")
        .map(|s| s.count as f64 / 1024.0)
        .collect();
    out.set("api.response_kb.mean", mean(&kb));
    let hit = durations("exec.hit");
    out.set("exec.hit_ms.p50", median(&hit));
    out.set("exec.hit_ms.p90", percentile(&hit, 90.0).unwrap_or(0.0));
    if fleet {
        fleet_ms = selfs_of("fleet.rtt");
        vet_ms = durations("fleet.vet");
        out.set("fleet.self_ms.p50", median(&fleet_ms));
        out.set(
            "fleet.self_ms.p90",
            percentile(&fleet_ms, 90.0).unwrap_or(0.0),
        );
        out.set("fleet.vet_ms.p50", median(&vet_ms));
    }

    crate::print_layer_sums(&spans, &selfs);
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ms)
        .collect::<Vec<_>>();
    let (tp50, up50) = (median(&roots), median(&untraced.latency_ms));
    println!(
        "tracing overhead: traced round trip p50 {tp50:.4} ms vs untraced p50 {up50:.4} ms ({:+.1} %)",
        (tp50 / up50 - 1.0) * 100.0
    );
    let direct_rtt = if fleet {
        durations("serve.rtt")
    } else {
        roots.clone()
    };
    println!(
        "split of the direct round trip (p50): serve self {:.4} ms, decode {:.4} ms, hit {:.4} ms, encode {:.4} ms of {:.4} ms",
        median(&serve_self),
        median(&durations("api.decode")),
        median(&hit),
        median(&enc),
        median(&direct_rtt)
    );
    if fleet {
        println!(
            "coordinator hop (p50): {:.4} ms self + {:.4} ms vet on a {:.4} ms fleet round trip",
            median(&fleet_ms),
            median(&vet_ms),
            tp50
        );
    }
    Ok(out)
}
