//! `plan-backlog`: a capacity planner re-asking what-if questions,
//! closed loop over one keep-alive connection. Every body is a fresh
//! seeded backlog; the job shapes are simulated once, in setup.

use std::collections::BTreeMap;
use std::time::Instant;

use spechpc::harness::plan::{
    dispatch_plan, easy_schedule, evaluate_plan, flops_fraction, JobShape, PlanRequest,
    PlanResponse, SchedJob,
};
use spechpc::prelude::*;

use crate::daemons::{self, serve_executor, Daemon};
use crate::http::Client;
use crate::inputs::{plan_body, plan_shape_bodies};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::{Ctx, Timed};

/// Fresh setups timed per run for `setup_s`.
const SETUPS: usize = 3;

fn setup(ctx: &Ctx) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(ctx.work.fresh("cache"), None).map_err(|e| e.to_string())?;
    daemons::warm(daemon.addr, "/v1/run", &plan_shape_bodies())?;
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// The in-process answer to plan body `i`, from an executor holding the
/// daemon's entries.
fn parity_body(mirror: &Executor, body: &str) -> Result<String, String> {
    let req = PlanRequest::from_json(body).map_err(|e| e.message)?;
    Ok(dispatch_plan(mirror, &req)
        .map_err(|e| e.message)?
        .to_json())
}

/// Send plan bodies `0, 1, …` until `seconds` pass; the first answer
/// must equal `parity`.
fn plan_loop(
    client: &mut Client,
    seed: u64,
    seconds: f64,
    parity: &str,
) -> Result<(Timed, u64), String> {
    Timed::run(seconds, |i| {
        match client.post("/v1/plan", &plan_body(seed, i)) {
            Ok(r) if r.status == 200 && (i > 0 || r.body == parity) => Ok(true),
            Ok(r) => {
                println!(
                    "plan-backlog: plan {i} answered {} ({} bytes)",
                    r.status,
                    r.body.len()
                );
                Ok(false)
            }
            Err(e) => {
                println!("plan-backlog: plan {i}: {e}");
                client.reconnect().map_err(|e| e.to_string())?;
                Ok(false)
            }
        }
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx);
    }
    let (daemon, first_setup) = setup(ctx)?;
    let parity = parity_body(&serve_executor(&daemon.cache_dir), &plan_body(ctx.seed, 0))?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let (r, failed) = plan_loop(&mut client, ctx.seed, ctx.seconds, &parity)?;
    drop(client);
    daemon.stop().map_err(|e| e.to_string())?;
    let mut out = Outcome {
        attempted: r.ops(),
        failed,
        ..Outcome::default()
    };
    crate::set_peak_rss(&mut out)?;

    // More setups for `setup_s`, after the peak-memory reading so that
    // it covers one setup and the timed phase.
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (again, secs) = setup(ctx)?;
        setups.push(secs);
        again.stop().map_err(|e| e.to_string())?;
    }
    out.set("setup_s", median(&setups));
    r.set_metrics(&mut out);
    Ok(out)
}

type ShapeKey = (String, String, usize);

/// Every job shape the plans need, resolved once through `mirror` the
/// way the planner resolves them.
fn resolve_shapes(mirror: &Executor) -> Result<BTreeMap<ShapeKey, JobShape>, String> {
    let mut shapes = BTreeMap::new();
    for body in plan_shape_bodies() {
        let req = RunRequest::from_json(&body).map_err(|e| e.message)?;
        let cluster =
            spechpc::harness::api::resolve_cluster(&req.cluster).map_err(|e| e.message)?;
        let result = mirror
            .run_one(&cluster, &req.spec(&cluster))
            .map_err(|e| e.to_string())?;
        let shape = JobShape {
            runtime_s: result.runtime_s,
            nodes: result.nodes_used,
            package_w: result.power.package_w,
            dram_w: result.power.dram_w,
            flops_fraction: flops_fraction(&cluster, &req.benchmark, req.class, req.nranks),
        };
        shapes.insert((cluster.name.clone(), req.benchmark, req.nranks), shape);
    }
    Ok(shapes)
}

/// Most jobs waiting at once in a scenario, from its per-job rows.
fn queue_max(resp: &PlanResponse) -> u64 {
    let Some(s) = resp.scenarios.first() else {
        return 0;
    };
    let mut events: Vec<(f64, i64)> = s
        .per_job
        .iter()
        .flat_map(|j| [(j.start_s - j.wait_s, 1), (j.start_s, -1)])
        .collect();
    // At equal times, starts leave the queue before arrivals join it.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut waiting, mut most) = (0i64, 0i64);
    for (_, d) in events {
        waiting += d;
        most = most.max(waiting);
    }
    most as u64
}

fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (daemon, _) = setup(ctx)?;
    let mirror = serve_executor(&daemon.cache_dir);
    let parity = parity_body(&mirror, &plan_body(ctx.seed, 0))?;
    let shapes = resolve_shapes(&mirror)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;

    let (untraced, failed) = plan_loop(&mut client, ctx.seed, ctx.seconds / 2.0, &parity)?;
    let mut out = Outcome {
        attempted: untraced.ops(),
        failed,
        ..Outcome::default()
    };

    let mut t = Tracer::new(Instant::now());
    let start = Instant::now();
    let (mut jobs, mut queue, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0.. {
        let op = i as usize;
        let body = plan_body(ctx.seed, i);
        let (resp, root) = t.span("serve.rtt", None, op, || client.post("/v1/plan", &body));
        let (req, _) = t.span("api.plan_decode", Some(root), op, || {
            PlanRequest::from_json(&body)
        });
        let req = req.map_err(|e| e.message)?;
        let (planned, dispatch) = t.span("plan.shape", Some(root), op, || {
            dispatch_plan(&mirror, &req)
        });
        let planned = planned.map_err(|e| e.message)?;
        let (evaluated, eval) = t.span("plan.self", Some(dispatch), op, || {
            evaluate_plan(&req, &mut |cluster, bench, _, nranks, _| {
                shapes
                    .get(&(cluster.name.clone(), bench.to_string(), nranks))
                    .copied()
                    .ok_or_else(|| ApiError::internal("shape missing from the benchmark's table"))
            })
        });
        let evaluated = evaluated.map_err(|e| e.message)?;
        let sched: Vec<(Vec<SchedJob>, usize)> = evaluated
            .scenarios
            .iter()
            .map(|s| {
                let jobs = s
                    .per_job
                    .iter()
                    .map(|j| SchedJob {
                        arrival_s: j.start_s - j.wait_s,
                        nodes: j.nodes,
                        duration_s: j.end_s - j.start_s,
                    })
                    .collect();
                (jobs, s.nodes)
            })
            .collect();
        t.span("plan.schedule", Some(eval), op, || {
            for (jobs, nodes) in &sched {
                std::hint::black_box(easy_schedule(jobs, *nodes));
            }
        });
        let (text, enc) = t.span("plan.encode", Some(root), op, || planned.to_json());
        t.count(enc, text.len() as u64);
        let ok = matches!(&resp, Ok(r) if r.status == 200 && r.body == text)
            && evaluated.to_json() == text;
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            println!("plan-backlog traced: plan {i} differs between daemon, dispatch and replica");
        }
        jobs.push(planned.jobs as f64);
        queue.push(queue_max(&planned) as f64);
        kb.push(text.len() as f64 / 1024.0);
        if start.elapsed().as_secs_f64() >= ctx.seconds / 2.0 {
            break;
        }
    }
    drop(client);
    daemon.stop().map_err(|e| e.to_string())?;

    let spans = t.into_spans();
    let selfs = trace::self_times(&spans);
    let self_med = |name: &str| median(&trace::selfs_of(&spans, &selfs, name));
    let dur_med = |name: &str| median(&trace::durations(&spans, name));
    let serve_self = trace::selfs_of(&spans, &selfs, "serve.rtt");
    out.set("serve.self_ms.p50", median(&serve_self));
    out.set(
        "serve.self_ms.p90",
        percentile(&serve_self, 90.0).unwrap_or(0.0),
    );
    out.set("api.plan_decode_ms", dur_med("api.plan_decode"));
    out.set("plan.shape_ms", self_med("plan.shape"));
    out.set("plan.self_ms", self_med("plan.self"));
    out.set("plan.schedule_ms", dur_med("plan.schedule"));
    out.set("plan.encode_ms", dur_med("plan.encode"));
    out.set("plan.shapes", shapes.len() as f64);
    out.set("plan.jobs", median(&jobs));
    out.set("plan.queue_max", median(&queue));
    out.set("plan.response_kb", median(&kb));

    crate::print_layer_sums(&spans, &selfs);
    let rtt = dur_med("serve.rtt");
    let up50 = median(&untraced.latency_ms);
    println!(
        "tracing overhead: traced round trip p50 {rtt:.3} ms vs untraced p50 {up50:.3} ms ({:+.1} %)",
        (rtt / up50 - 1.0) * 100.0
    );
    println!(
        "split of a plan round trip (p50): EASY {:.3} ms ({:.1} %), planner self {:.3} ms, shapes {:.3} ms, encode {:.3} ms, decode {:.3} ms, serve self {:.3} ms",
        dur_med("plan.schedule"),
        dur_med("plan.schedule") / rtt * 100.0,
        self_med("plan.self"),
        self_med("plan.shape"),
        dur_med("plan.encode"),
        dur_med("api.plan_decode"),
        median(&serve_self)
    );
    Ok(out)
}
