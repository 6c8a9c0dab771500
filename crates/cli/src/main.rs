//! `spechpc` — command-line driver for the case-study reproduction.
//!
//! ```text
//! spechpc run pot3d --cluster b --class tiny -n 104
//! spechpc suite --cluster a
//! spechpc score
//! spechpc figures fig5
//! spechpc dvfs tealeaf --cluster a
//! spechpc serve --addr 127.0.0.1:8722
//! ```
//!
//! The simulating subcommands are thin shells over the typed service
//! API (`spechpc::harness::api`): `run`/`suite`/`profile` build the
//! same [`RunRequest`]/[`SuiteRequest`] values that `spechpc serve`
//! decodes off the wire and dispatch them through the same executor
//! entry points, so CLI and daemon cannot drift apart. Errors follow
//! the API mapping too: exit 2 for argument parsing, 3 for a partial
//! suite, 1 for everything else.

mod args;
#[macro_use]
mod output;

use args::{ClusterChoice, Command, ExecOpts, FaultOpts, USAGE};
use spechpc::harness::api;
use spechpc::harness::chaos;
use spechpc::harness::experiments::{multi_node, node_level, power_energy, tables};
use spechpc::harness::faultcfg;
use spechpc::harness::fleet;
use spechpc::harness::obs;
use spechpc::harness::serve;
use spechpc::power::dvfs;
use spechpc::prelude::*;

/// The canonical cluster key the API resolves (`a` | `b`).
fn cluster_key(c: ClusterChoice) -> &'static str {
    match c {
        ClusterChoice::A => "a",
        ClusterChoice::B => "b",
    }
}

/// Build the execution layer from the CLI options: all host cores, a
/// memory cache backed by the persistent `results/cache/` store unless
/// `--no-cache`, and a per-run budget of `timeout_s` (`0.0` = none).
fn executor_of(config: RunConfig, opts: ExecOpts, timeout_s: f64) -> Executor {
    let mut exec_cfg = ExecConfig::default()
        .with_jobs(opts.jobs.unwrap_or(0))
        .with_timeout_s(timeout_s);
    if !opts.no_cache {
        exec_cfg = exec_cfg.with_cache_dir(RunCache::default_dir());
    }
    Executor::new(config, exec_cfg)
}

/// Resolve `--faults` / `--fault-seed` into a [`FaultPlan`]: no plan
/// file means the engine's zero-cost fault-free path.
fn fault_plan_of(opts: &FaultOpts) -> Result<FaultPlan, ApiError> {
    let mut plan = match &opts.plan {
        Some(path) => faultcfg::load_plan(std::path::Path::new(path))
            .map_err(|e| ApiError::bad_request(e.to_string()))?,
        None => FaultPlan::none(),
    };
    if let Some(seed) = opts.seed {
        plan.seed = seed;
    }
    Ok(plan)
}

fn internal(e: impl std::fmt::Display) -> ApiError {
    ApiError::internal(e.to_string())
}

fn describe_ranks(rs: &RankSet) -> String {
    match rs {
        RankSet::All => "all ranks".into(),
        RankSet::One(r) => format!("rank {r}"),
        RankSet::List(rs) => format!(
            "ranks {}",
            rs.iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

fn describe_event(e: &FaultEvent) -> String {
    match e {
        FaultEvent::OsNoise { ranks, amplitude } => format!(
            "os-noise     {} — per-op compute inflation in [1, {:.3})",
            describe_ranks(ranks),
            1.0 + amplitude
        ),
        FaultEvent::Straggler { rank, slowdown } => {
            format!("straggler    rank {rank} — ×{slowdown:.3} on every compute phase")
        }
        FaultEvent::FlakyLink {
            from,
            to,
            drop_prob,
            retransmit_latency_s,
        } => format!(
            "flaky-link   {from} → {to} — retransmit p={drop_prob:.3}, +{:.1} µs each",
            retransmit_latency_s * 1e6
        ),
        FaultEvent::Throttle {
            ranks,
            t_start_s,
            t_end_s,
            slowdown,
        } => format!(
            "throttle     {} — ×{slowdown:.3} inside [{t_start_s:.3} s, {t_end_s:.3} s)",
            describe_ranks(ranks)
        ),
        FaultEvent::Crash { rank, at_s } => {
            format!("crash        rank {rank} — hard failure at {at_s:.3} s (MPI abort)")
        }
    }
}

/// With `--metrics`: print the executor/cache counters and write them
/// as `results/metrics/<stem>.csv`.
fn maybe_metrics(executor: &Executor, stem: &str, opts: ExecOpts) -> Result<(), ApiError> {
    if !opts.metrics {
        return Ok(());
    }
    let m = executor.metrics();
    let table = obs::metrics_table("executor/cache metrics", &m).map_err(internal)?;
    outln!("{}", table.render());
    let path = obs::write_metrics_csv(std::path::Path::new("results/metrics"), stem, &m)
        .map_err(|e| ApiError::internal(format!("writing metrics CSV: {e}")))?;
    outln!("metrics: written to {}", path.display());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(cmd) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run(cmd: Command) -> Result<(), ApiError> {
    match cmd {
        Command::Help => {
            outln!("{USAGE}");
            Ok(())
        }
        Command::List => {
            outln!("benchmarks (SPEChpc 2021, Table 1 order):");
            for b in all_benchmarks() {
                let m = b.meta();
                outln!(
                    "  {:<11} {:<8} {:>7} LOC  collective: {:<9}  {}",
                    m.name,
                    m.language,
                    m.loc,
                    m.collective,
                    m.numerics
                );
            }
            outln!("\ncluster presets:");
            for c in [presets::cluster_a(), presets::cluster_b()] {
                outln!(
                    "  {:<8} {} — {} cores/node, {} ccNUMA domains, {:.0} Gflop/s, {:.0} GB/s",
                    c.name,
                    c.node.cpu.model,
                    c.node.cores(),
                    c.node.numa_domains(),
                    c.node.peak_flops(),
                    c.node.saturated_mem_bandwidth()
                );
            }
            Ok(())
        }
        Command::Run {
            benchmark,
            cluster,
            class,
            nranks,
            trace_csv,
            threads,
            exec,
            faults,
        } => {
            let req = RunRequest::new(&benchmark, class, nranks.unwrap_or(0))
                .with_cluster(cluster_key(cluster))
                .with_config(
                    RunConfig::default()
                        .with_trace(false)
                        .with_threads(threads.unwrap_or(1))
                        .with_faults(fault_plan_of(&faults)?),
                );
            let executor = executor_of(req.config.clone(), exec, 0.0);
            let cl = api::resolve_cluster(&req.cluster)?;
            // Only a trace export needs the timeline; everything else
            // goes through (and populates) the run cache via the same
            // dispatcher the daemon uses.
            let r = if trace_csv.is_some() {
                executor.run_traced(&cl, &req.spec(&cl))?
            } else {
                api::dispatch_run(&executor, &req)?.result
            };
            out!("{}", api::render_run_text(&r));
            if let Some(path) = trace_csv {
                let csv = spechpc::simmpi::export::to_csv(&r.timeline);
                std::fs::write(&path, csv)
                    .map_err(|e| ApiError::internal(format!("writing {path}: {e}")))?;
                outln!("  trace          written to {path}");
            }
            maybe_metrics(
                &executor,
                &format!("run_{benchmark}_{class}_{}_{}", cl.name, r.nranks),
                exec,
            )?;
            Ok(())
        }
        Command::Suite {
            cluster,
            class,
            nranks,
            threads,
            exec,
            faults,
        } => {
            let req = SuiteRequest::new(class)
                .with_cluster(cluster_key(cluster))
                .with_nranks(nranks.unwrap_or(0))
                .with_config(
                    RunConfig::default()
                        .with_trace(false)
                        .with_threads(threads.unwrap_or(1)),
                )
                .with_faults(fault_plan_of(&faults)?);
            let executor = executor_of(req.config.clone(), exec, 0.0);
            let resp = api::dispatch_suite(&executor, &req)?;
            outln!("{}", resp.report.render());
            maybe_metrics(
                &executor,
                &format!("suite_{class}_{}", resp.report.cluster),
                exec,
            )?;
            // Partial completion (e.g. an injected crash) is a distinct
            // exit code so scripts can tell it from a hard error.
            if let Some(partial) = resp.partial_error() {
                eprintln!("error: {partial}");
                std::process::exit(partial.exit_code());
            }
            Ok(())
        }
        Command::Profile {
            benchmark,
            cluster,
            class,
            nranks,
            threads,
            exec,
            faults,
        } => {
            // The profile is computed incrementally by the engine, so no
            // tracing is needed: this goes through (and warms) the cache.
            // With `--faults` the per-rank table attributes the injected
            // stall time in its own column.
            let req = RunRequest::new(&benchmark, class, nranks.unwrap_or(0))
                .with_cluster(cluster_key(cluster))
                .with_config(
                    RunConfig::default()
                        .with_threads(threads.unwrap_or(1))
                        .with_faults(fault_plan_of(&faults)?),
                );
            let executor = executor_of(req.config.clone(), exec, 0.0);
            let cl = api::resolve_cluster(&req.cluster)?;
            let r = api::dispatch_run(&executor, &req)?.result;
            let n = r.nranks;
            let title = format!(
                "{benchmark} {class} on {} with {n} ranks — per-rank MPI phase split [s]",
                cl.name
            );
            outln!(
                "{}",
                obs::profile_rank_table(&title, &r.profile)
                    .map_err(internal)?
                    .render()
            );
            outln!(
                "{}",
                obs::profile_histogram_table(
                    "message-size histogram (per protocol regime)",
                    &r.profile
                )
                .map_err(internal)?
                .render()
            );
            outln!(
                "{}",
                obs::profile_matrix_table("heaviest rank→rank traffic", &r.profile, 16)
                    .map_err(internal)?
                    .render()
            );
            let stem = format!("{benchmark}_{class}_{}_{n}", cl.name);
            let written =
                obs::write_profile_csvs(std::path::Path::new("results/profile"), &stem, &r.profile)
                    .map_err(|e| ApiError::internal(format!("writing profile CSVs: {e}")))?;
            for p in &written {
                outln!("profile: written to {}", p.display());
            }
            maybe_metrics(&executor, &format!("profile_{stem}"), exec)?;
            Ok(())
        }
        Command::Score { class, exec } => {
            let a = presets::cluster_a();
            let b = presets::cluster_b();
            let cfg = RunConfig::default().with_repetitions(1).with_trace(false);
            let executor = executor_of(cfg, exec, 0.0);
            let suite_a = Suite {
                class,
                nranks: a.node.cores(),
            };
            let suite_b = Suite {
                class,
                nranks: b.node.cores(),
            };
            let ra = suite_a.run_with(&executor, &a);
            let rb = suite_b.run_with(&executor, &b);
            // A score over partial results would silently compare
            // different benchmark sets — refuse instead.
            for (r, cl) in [(&ra, &a), (&rb, &b)] {
                if let Some(f) = r.failures.first() {
                    return Err(ApiError::internal(format!(
                        "suite on {} incomplete ({} failure(s)); first: {}",
                        cl.name,
                        r.failures.len(),
                        f.error
                    )));
                }
            }
            outln!("SPEC-style {class} score (reference = ClusterA full node):");
            outln!("  ClusterA: {:.3}", ra.spec_score(&ra).unwrap_or(0.0));
            outln!("  ClusterB: {:.3}", rb.spec_score(&ra).unwrap_or(0.0));
            maybe_metrics(&executor, &format!("score_{class}"), exec)?;
            Ok(())
        }
        Command::Figures { which, exec } => figures(&which, exec),
        Command::Faults { plan } => {
            let p = faultcfg::load_plan(std::path::Path::new(&plan))
                .map_err(|e| ApiError::bad_request(e.to_string()))?;
            if p.is_none() {
                outln!("{plan}: valid — empty plan (fault-free fast path)");
                return Ok(());
            }
            outln!(
                "{plan}: valid — seed {}, {} event(s)",
                p.seed,
                p.events.len()
            );
            for e in &p.events {
                outln!("  {}", describe_event(e));
            }
            outln!("cache key digest: {}", p.canonical());
            Ok(())
        }
        Command::Dvfs { benchmark, cluster } => {
            let cl = api::resolve_cluster(cluster_key(cluster))?;
            let bench = benchmark_by_name(&benchmark)
                .ok_or_else(|| ApiError::bad_request(format!("unknown benchmark '{benchmark}'")))?;
            let sig = bench.signature(WorkloadClass::Tiny);
            // Socket-level in-core vs memory split of a representative
            // rank at the full node.
            let (t_flops, t_mem) = NodeModel::new(&cl, cl.node.cores()).split(&sig);
            let sweep = dvfs::frequency_sweep(
                &cl.node.cpu,
                sig.heat,
                t_flops,
                t_mem,
                cl.node.cpu.base_clock_ghz * 0.5,
                16,
            );
            outln!(
                "{benchmark} on {}: DVFS sweep (t_flops {:.2} ms, t_mem {:.2} ms per step)",
                cl.name,
                t_flops * 1e3,
                t_mem * 1e3
            );
            outln!(
                "{:>8} {:>12} {:>10} {:>12}",
                "GHz",
                "t/step [ms]",
                "P [W]",
                "E [J/step]"
            );
            for p in &sweep {
                outln!(
                    "{:>8.2} {:>12.3} {:>10.1} {:>12.3}",
                    p.clock_ghz,
                    p.runtime_s * 1e3,
                    p.power_w,
                    p.energy_j
                );
            }
            let a = dvfs::analyze(&sweep).expect("non-empty sweep");
            outln!(
                "energy-optimal clock {:.2} GHz — saves {:.1} % vs base at ×{:.2} runtime",
                a.optimal_clock_ghz,
                a.saving_vs_base * 100.0,
                a.slowdown_at_optimum
            );
            Ok(())
        }
        Command::Plan { file, json, exec } => {
            use spechpc::harness::plan;
            let body = std::fs::read_to_string(&file)
                .map_err(|e| ApiError::bad_request(format!("reading {file}: {e}")))?;
            let req = plan::PlanRequest::from_json(&body)?;
            let executor = executor_of(req.config.clone(), exec, 0.0);
            let resp = plan::dispatch_plan(&executor, &req)?;
            if json {
                // Exact wire bytes of `POST /v1/plan`.
                out!("{}", resp.to_json());
            } else {
                out!("{}", plan::render_plan_text(&resp));
            }
            maybe_metrics(&executor, "plan", exec)?;
            Ok(())
        }
        Command::Serve {
            addr,
            workers,
            queue_depth,
            max_inflight,
            timeout_s,
            max_conns,
            keepalive_max,
            idle_timeout_s,
            read_timeout_s,
            peers,
            threads,
            exec,
        } => {
            // One resident executor for the daemon's whole life: its
            // run cache and metrics ledger persist across requests.
            // Unlike one-shot commands, the daemon always runs under a
            // per-request budget (the engine's cooperative cancel token)
            // so a pathological request answers 504 instead of pinning
            // a worker forever. `--threads` sets the resident default; a
            // request's own `config.threads` forks the executor and
            // overrides it.
            let resident = RunConfig::default()
                .with_trace(false)
                .with_threads(threads.unwrap_or(1));
            let mut executor = executor_of(resident, exec, timeout_s.unwrap_or(300.0));
            // In a fleet, a local cache miss consults the peers'
            // GET /v1/cache/{key} before simulating: runs land on
            // whichever worker the coordinator hashed them to, but any
            // worker can replay them byte-identically.
            if !peers.is_empty() {
                eprintln!("[serve] peer cache fetch from {}", peers.join(", "));
                executor = executor.with_peer_fetch(fleet::peer_fetcher(peers));
            }
            let mut cfg = ServeConfig::default().with_addr(addr);
            if let Some(w) = workers {
                cfg = cfg.with_workers(w);
            }
            if let Some(q) = queue_depth {
                cfg = cfg.with_queue_depth(q);
            }
            if let Some(m) = max_inflight {
                cfg = cfg.with_max_inflight(m);
            }
            if let Some(m) = max_conns {
                cfg = cfg.with_max_conns(m);
            }
            if let Some(k) = keepalive_max {
                cfg = cfg.with_keepalive_requests(k);
            }
            if let Some(t) = idle_timeout_s {
                cfg = cfg.with_idle_timeout_s(t);
            }
            if let Some(t) = read_timeout_s {
                cfg = cfg.with_read_timeout_s(t);
            }
            if exec.metrics {
                cfg = cfg.with_metrics_dir("results/metrics");
            }
            serve::install_signal_handlers();
            let server = Server::bind(executor, cfg)
                .map_err(|e| ApiError::internal(format!("bind: {e}")))?;
            let bound = server.local_addr().map_err(internal)?;
            eprintln!("[serve] listening on http://{bound} — SIGTERM or POST /v1/shutdown drains");
            server
                .serve()
                .map_err(|e| ApiError::internal(format!("serve: {e}")))?;
            Ok(())
        }
        Command::Fleet {
            addr,
            workers,
            vnodes,
            timeout_s,
        } => {
            let mut cfg = fleet::FleetConfig::default()
                .with_addr(addr)
                .with_workers(workers);
            if let Some(v) = vnodes {
                cfg = cfg.with_vnodes(v);
            }
            if let Some(t) = timeout_s {
                cfg = cfg.with_request_timeout_s(t);
            }
            serve::install_signal_handlers();
            let coordinator = fleet::Coordinator::bind(cfg)
                .map_err(|e| ApiError::internal(format!("bind: {e}")))?;
            let bound = coordinator.local_addr().map_err(internal)?;
            eprintln!(
                "[fleet] coordinating on http://{bound} — SIGTERM or POST /v1/shutdown drains"
            );
            coordinator
                .serve()
                .map_err(|e| ApiError::internal(format!("fleet: {e}")))?;
            Ok(())
        }
        Command::Chaos {
            plan,
            listen,
            upstream,
            seed,
            validate,
        } => {
            let mut p = chaos::load_chaos_plan(std::path::Path::new(&plan))
                .map_err(|e| ApiError::bad_request(e.to_string()))?;
            if let Some(s) = seed {
                p.seed = s;
            }
            if validate {
                if p.faults.is_empty() {
                    outln!("{plan}: valid — empty plan (pure byte splice)");
                    return Ok(());
                }
                outln!(
                    "{plan}: valid — seed {}, {} fault(s)",
                    p.seed,
                    p.faults.len()
                );
                for f in &p.faults {
                    outln!("  {}", f.describe());
                }
                return Ok(());
            }
            let upstream = upstream.expect("args parser requires --upstream unless --validate");
            serve::install_signal_handlers();
            let proxy = chaos::ChaosProxy::bind(p, &listen, upstream.clone())
                .map_err(|e| ApiError::internal(format!("bind: {e}")))?;
            let bound = proxy.local_addr().map_err(internal)?;
            eprintln!("[chaos] injuring http://{bound} → {upstream} per {plan} — SIGTERM drains");
            proxy
                .serve()
                .map_err(|e| ApiError::internal(format!("chaos: {e}")))?;
            Ok(())
        }
    }
}

fn figures(which: &str, exec: ExecOpts) -> Result<(), ApiError> {
    let a = presets::cluster_a();
    let b = presets::cluster_b();
    let cfg = RunConfig::default().with_repetitions(3).with_trace(false);
    // One executor for the whole regeneration: `figures all` shares the
    // fig1 grid between the fig1 and fig3/fig4 sections through the
    // memory tier (with or without `--no-cache`), and a second
    // invocation replays entirely from results/cache/.
    let executor = executor_of(cfg, exec, 0.0);
    let all = which == "all";
    let mut matched = false;

    if all || which == "tables" {
        matched = true;
        outln!("{}", tables::table1().render());
        outln!("{}", tables::table2().render());
        outln!("{}", tables::table3(&[&a, &b]).render());
    }
    if all || which == "fig1" {
        matched = true;
        let f1a = node_level::fig1_with(&executor, &a, 8)?;
        let f1b = node_level::fig1_with(&executor, &b, 8)?;
        outln!("== §4.1.1 parallel efficiency [%] ==");
        for ((n, x), (_, y)) in node_level::efficiency_table(&f1a, &a)
            .iter()
            .zip(&node_level::efficiency_table(&f1b, &b))
        {
            outln!("{n:<12} A {x:>5.0}  B {y:>5.0}");
        }
        outln!("== §4.1.2 acceleration B/A ==");
        for (n, x) in node_level::acceleration_table(&f1a, &f1b) {
            outln!("{n:<12} {x:>5.2}");
        }
        outln!("== §4.1.3 vectorization [%] ==");
        for (n, x) in node_level::vectorization_table(&f1a) {
            outln!("{n:<12} {x:>5.1}");
        }
    }
    if all || which == "fig2" {
        matched = true;
        let f2 = node_level::fig2_with(&executor, &a, 24)?;
        outln!(
            "Fig. 2 insets: minisweep@59 Recv {:.0} %, lbm@{} wait+barrier {:.0} %",
            f2.minisweep_59.recv_fraction * 100.0,
            f2.lbm_odd.nranks,
            (f2.lbm_odd.wait_fraction + f2.lbm_odd.barrier_fraction) * 100.0
        );
    }
    if all || which == "fig3" || which == "fig4" {
        matched = true;
        let f1a = node_level::fig1_with(&executor, &a, 8)?;
        let f3 = power_energy::fig3(&f1a, &a);
        outln!(
            "Fig. 3 ({}): extrapolated baseline {:.0} W/socket",
            a.name,
            f3.extrapolated_baseline_w
        );
        for (name, w, frac) in power_energy::hot_cool_table(&f1a, &a) {
            outln!("  {name:<12} {w:>5.0} W/socket ({:.0} % TDP)", frac * 100.0);
        }
        let f4 = power_energy::fig4(&f1a);
        for z in &f4.zplots {
            outln!(
                "  {:<24} E/EDP minima separation: {} step(s)",
                z.label,
                z.min_separation_steps().unwrap_or(0)
            );
        }
    }
    if all || which == "fig5" || which == "fig6" {
        matched = true;
        for cl in [&a, &b] {
            let f5 = multi_node::fig5_with(&executor, cl, &[1, 2, 4, 8])?;
            if which != "fig6" {
                outln!("{}", f5.render());
                outln!("scaling cases ({}):", cl.name);
                for (n, c) in multi_node::scaling_cases(&f5) {
                    outln!("  {n:<12} {c}");
                }
            }
            if which != "fig5" {
                outln!("{}", multi_node::fig6(&f5).render());
            }
        }
    }
    if !matched {
        return Err(ApiError::bad_request(format!(
            "unknown figure '{which}' (use tables|fig1|fig2|fig3|fig4|fig5|fig6|all)"
        )));
    }
    maybe_metrics(&executor, &format!("figures_{which}"), exec)?;
    Ok(())
}
