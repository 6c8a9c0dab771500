//! `reproduce-cold`: what `spechpc figures all` does from an empty
//! cache — every figure function on one executor with a fresh on-disk
//! cache — with no HTTP in the way. The grid is fixed by the paper, so
//! the seed is unused.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spechpc::harness::cache::{encode_entry, RunCache, RunKey};
use spechpc::harness::exec::ExecMetrics;
use spechpc::harness::experiments::{multi_node, node_level, power_energy};
use spechpc::kernels::common::model::NodeModel;
use spechpc::power::energy::energy_to_solution;
use spechpc::power::rapl::{JobPower, PowerState};
use spechpc::prelude::*;
use spechpc::simmpi::engine::{Engine, Prepass, SimConfig};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};

use crate::cpu::{self, HostSpeed};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::Ctx;

/// Digest of every result and derived figure of one reproduction.
const EXPECTED_DIGEST: &str = include_str!("../expected/reproduce-cold.digest");

/// Fig. 1 sampling step and the Fig. 2 / Fig. 5 settings of
/// `spechpc figures all`.
const FIG1_STEP: usize = 8;
const FIG2_STEP: usize = 24;
const FIG5_NODES: [usize; 4] = [1, 2, 4, 8];

/// Busy share of a core spinning in MPI, as the runner's power model
/// uses it; the replica must agree with the runner to the bit.
const MPI_SPIN_UTILIZATION: f64 = 0.7;

/// Fresh setups timed per run for `setup_s`.
const SETUPS: usize = 25;

/// Host-speed probes before the first reproduction and after each.
const PROBES_PER_GAP: usize = 5;

/// `figures all`'s run rules.
fn figures_config() -> RunConfig {
    RunConfig::default().with_repetitions(3).with_trace(false)
}

/// `figures all`'s executor: one worker per core over a disk cache in
/// `dir`.
fn figures_executor(dir: PathBuf) -> Executor {
    Executor::new(
        figures_config(),
        ExecConfig::default().with_jobs(0).with_cache_dir(dir),
    )
}

fn cold_executor(ctx: &Ctx) -> Executor {
    figures_executor(ctx.work.fresh("cache"))
}

/// 128-bit FNV-1a pair over everything a reproduction outputs.
struct Digest([u64; 2]);

impl Digest {
    fn new() -> Self {
        Digest([0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142])
    }

    fn add(&mut self, text: &str) {
        for h in &mut self.0 {
            for b in text.bytes().chain([0xff]) {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn results<'a>(&mut self, exec: &Executor, results: impl Iterator<Item = &'a RunResult>) {
        for r in results {
            let key = RunKey::new(
                &r.cluster,
                &r.benchmark,
                &r.class,
                r.nranks,
                exec.run_config(),
            );
            self.add(&encode_entry(&key.canonical(), r));
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// One reproduction, figure by figure as `spechpc figures all` calls
/// them; returns the output digest.
fn reproduce(exec: &Executor) -> Result<String, HarnessError> {
    let (a, b) = (presets::cluster_a(), presets::cluster_b());
    let mut d = Digest::new();
    let f1a = node_level::fig1_with(exec, &a, FIG1_STEP)?;
    let f1b = node_level::fig1_with(exec, &b, FIG1_STEP)?;
    for f in [&f1a, &f1b] {
        d.results(exec, f.sweeps.iter().flat_map(|s| &s.results));
    }
    d.add(&format!(
        "{:?}{:?}{:?}{:?}",
        node_level::efficiency_table(&f1a, &a),
        node_level::efficiency_table(&f1b, &b),
        node_level::acceleration_table(&f1a, &f1b),
        node_level::vectorization_table(&f1a)
    ));
    let f2 = node_level::fig2_with(exec, &a, FIG2_STEP)?;
    d.add(&format!(
        "{:?}{:?}{}{}",
        f2.minisweep_59, f2.lbm_odd, f2.minisweep_inset, f2.lbm_inset
    ));
    let f1a = node_level::fig1_with(exec, &a, FIG1_STEP)?;
    let f3 = power_energy::fig3(&f1a, &a);
    let f4 = power_energy::fig4(&f1a);
    d.add(&format!(
        "{:?}{:?}{:?}",
        f3,
        power_energy::hot_cool_table(&f1a, &a),
        f4.zplots
            .iter()
            .map(|z| (&z.label, z.min_separation_steps()))
            .collect::<Vec<_>>()
    ));
    for cl in [&a, &b] {
        let f5 = multi_node::fig5_with(exec, cl, &FIG5_NODES)?;
        d.results(exec, f5.sweeps.iter().flat_map(|s| &s.results));
        d.add(&f5.render());
        d.add(&format!("{:?}", multi_node::scaling_cases(&f5)));
    }
    Ok(d.hex())
}

/// One timed reproduction on a cold executor.
struct Pass {
    sims: u64,
    ok: bool,
    wall_s: f64,
    cpu_s: f64,
    metrics: ExecMetrics,
    exec: Executor,
    workers: usize,
}

fn pass(ctx: &Ctx) -> Result<Pass, String> {
    let exec = cold_executor(ctx);
    let (t0, c0) = (Instant::now(), cpu::process_s());
    let digest = reproduce(&exec);
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu::process_s() - c0);
    let ok = match &digest {
        Ok(d) if d == EXPECTED_DIGEST.trim() => true,
        Ok(d) => {
            println!(
                "reproduce-cold: output digest {d} != expected {}",
                EXPECTED_DIGEST.trim()
            );
            false
        }
        Err(e) => {
            println!("reproduce-cold: a figure failed: {e}");
            false
        }
    };
    let metrics = exec.metrics();
    Ok(Pass {
        sims: metrics.runs_executed,
        ok,
        wall_s,
        cpu_s,
        workers: ExecConfig::default().effective_jobs(),
        metrics,
        exec,
    })
}

/// Wall ms of each point's first appearance in the executor's ledger:
/// the run that simulated it (later appearances are memory hits).
fn simulated_point_ms(m: &ExecMetrics) -> Vec<f64> {
    let mut seen = std::collections::HashSet::new();
    m.point_wall_s
        .iter()
        .filter(|(label, _)| seen.insert(label.clone()))
        .map(|(_, s)| s * 1e3)
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx);
    }
    // Set-up: list the grid points the figures simulate (the output
    // check's expected simulation count) and build the executor over an
    // empty cache directory.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut expected_sims = 0;
    for _ in 0..SETUPS {
        let dir = ctx.work.fresh("cache");
        let t0 = Instant::now();
        let (points, exec) = std::hint::black_box((grid_points(), figures_executor(dir)));
        setups.push(t0.elapsed().as_secs_f64());
        // Every untraced point once, plus Fig. 2's two traced runs.
        expected_sims = points.len() as u64 + 2;
        drop(exec);
    }

    let start = Instant::now();
    let mut out = Outcome::default();
    let (mut sims, mut wall, mut cpu_s) = (0u64, 0.0, 0.0);
    let mut point_ms = Vec::new();
    let mut speed = HostSpeed::default();
    loop {
        for _ in 0..PROBES_PER_GAP {
            speed.probe();
        }
        let p = pass(ctx)?;
        out.attempted += p.sims;
        if p.sims != expected_sims {
            println!(
                "reproduce-cold: {} simulations, expected {expected_sims}",
                p.sims
            );
        }
        if !p.ok || p.sims != expected_sims {
            out.failed += p.sims;
        }
        sims += p.sims;
        wall += p.wall_s;
        cpu_s += p.cpu_s;
        point_ms.extend(simulated_point_ms(&p.metrics));
        drop(p.exec);
        // Whole reproductions only: stop at the pass boundary nearest
        // to the requested run length.
        if start.elapsed().as_secs_f64() + p.wall_s / 2.0 >= ctx.seconds {
            break;
        }
    }
    for _ in 0..PROBES_PER_GAP {
        speed.probe();
    }
    out.set("setup_s", median(&setups));
    crate::set_cpu_per_op(&mut out, cpu_s * 1e3 / sims.max(1) as f64, &speed);
    crate::set_peak_rss(&mut out)?;
    println!(
        "{sims} simulations: {:.2} ops/s, point wall p50 {:.3} ms, p90 {:.3} ms",
        sims as f64 / wall,
        median(&point_ms),
        percentile(&point_ms, 90.0).unwrap_or(0.0)
    );
    Ok(out)
}

/// Per-op facts the replica records beside its spans.
#[derive(Default, Clone)]
struct PointFacts {
    benchmark: String,
    program_bytes: u64,
}

/// Re-issue `SimRunner::run`'s public steps on the same inputs under
/// span `parent`, checking that the power it derives equals the
/// runner's. Engine spans count simulated ops.
#[allow(clippy::too_many_arguments)]
fn replica(
    t: &mut Tracer,
    op: usize,
    parent: usize,
    cfg: &RunConfig,
    cluster: &ClusterSpec,
    spec: &RunSpec,
    traced: bool,
    expected: &RunResult,
) -> Result<u64, String> {
    let bench =
        benchmark_by_name(&spec.benchmark).ok_or_else(|| format!("no {}", spec.benchmark))?;
    let (class, n) = (spec.class, spec.nranks);
    let ((sig, model, ct), _) = t.span("kernels.model", Some(parent), op, || {
        let sig = bench.signature(class);
        let model = NodeModel::new(cluster, n);
        let penalties = bench.penalties(class, n);
        let ct = model.compute_times(&sig, &penalties);
        (sig, model, ct)
    });
    let (step_progs, _) = t.span("kernels.programs", Some(parent), op, || {
        bench.step_programs(class, &ct)
    });
    // Concatenation is the runner's own work: left untimed here, it
    // stays in the runner's self time.
    let warm: Vec<Program> = step_progs
        .iter()
        .map(|p| {
            let mut prog = Program::new();
            for _ in 0..cfg.warmup_steps {
                prog.ops.extend_from_slice(&p.ops);
            }
            prog.push(Op::Barrier);
            prog
        })
        .collect();
    let full: Vec<Program> = warm
        .iter()
        .zip(&step_progs)
        .map(|(w, p)| {
            let mut prog = w.clone();
            for _ in 0..cfg.measured_steps {
                prog.ops.extend_from_slice(&p.ops);
            }
            prog
        })
        .collect();
    let ops = |progs: &[Program]| progs.iter().map(|p| p.ops.len() as u64).sum::<u64>();
    let (warm_ops, full_ops) = (ops(&warm), ops(&full));
    let (pre, _) = t.span("simmpi.prepass", Some(parent), op, || {
        Prepass::analyze(&step_progs).map(|p| {
            (
                p.scaled(cfg.warmup_steps),
                p.scaled(cfg.warmup_steps + cfg.measured_steps),
            )
        })
    });
    let (warm_pre, full_pre) = pre.map_err(|e| e.to_string())?;
    let (warm_res, id) = t.span("simmpi.engine", Some(parent), op, || {
        Engine::new(
            SimConfig::default().with_faults(cfg.faults.clone()),
            NetModel::compact(cluster, n),
            warm,
        )
        .run_prevalidated(&warm_pre)
    });
    t.count(id, warm_ops);
    let full_name = if traced {
        "simmpi.trace"
    } else {
        "simmpi.engine"
    };
    let (full_res, id) = t.span(full_name, Some(parent), op, || {
        Engine::new(
            SimConfig::default()
                .with_trace(traced)
                .with_faults(cfg.faults.clone()),
            NetModel::compact(cluster, n),
            full,
        )
        .run_prevalidated(&full_pre)
    });
    t.count(id, full_ops);
    warm_res.map_err(|e| e.to_string())?;
    full_res.map_err(|e| e.to_string())?;
    let step = expected.step_seconds;
    let (power, _) = t.span("power.model", Some(parent), op, || {
        let util = (0..n)
            .map(|r| {
                let t_comp = ct.per_rank[r].min(step);
                let t_mpi = (step - t_comp).max(0.0);
                ((t_comp * ct.utilization[r] + t_mpi * MPI_SPIN_UTILIZATION) / step.max(1e-30))
                    .clamp(0.0, 1.0)
            })
            .collect();
        let state = PowerState {
            heat: sig.heat,
            utilization: util,
            dram_utilization: model.dram_utilization(&ct, step),
        };
        let power: JobPower = RaplModel::new(cluster).job_power(model.pinning(), &state);
        (power, energy_to_solution(power, expected.runtime_s))
    });
    if power.0 != expected.power || power.1 != expected.energy {
        return Err(format!(
            "replica power differs from the runner's for {}/{n}",
            spec.benchmark
        ));
    }
    Ok((warm_ops + full_ops) * std::mem::size_of::<Op>() as u64)
}

/// One traced grid point: the executor's call, then the runner's and
/// the cache store's public calls re-issued as its children.
#[allow(clippy::too_many_arguments)]
fn traced_point(
    t: &mut Tracer,
    op: usize,
    exec: &Executor,
    side_cache: &RunCache,
    cluster: &ClusterSpec,
    spec: &RunSpec,
    traced: bool,
    parent: Option<usize>,
) -> Result<u64, String> {
    let (result, root) = t.span("exec.run", parent, op, || {
        if traced {
            exec.run_traced(cluster, spec)
        } else {
            exec.run_one(cluster, spec)
        }
    });
    let result = result.map_err(|e| e.to_string())?;
    let cfg = exec.run_config().clone();
    let bench =
        benchmark_by_name(&spec.benchmark).ok_or_else(|| format!("no {}", spec.benchmark))?;
    let runner = SimRunner::new(cfg.clone().with_trace(traced));
    let (again, run_id) = t.span("runner.run", Some(root), op, || {
        runner.run(cluster, &*bench, spec.class, spec.nranks)
    });
    let again = again.map_err(|e| e.to_string())?;
    let key = RunKey::new(
        &cluster.name,
        &spec.benchmark,
        &spec.class.to_string(),
        spec.nranks,
        &cfg,
    );
    if encode_entry(&key.canonical(), &again) != encode_entry(&key.canonical(), &result) {
        return Err(format!("re-issued run of {} differs", spec.benchmark));
    }
    let bytes = replica(t, op, run_id, &cfg, cluster, spec, traced, &result)?;
    if !traced {
        let ((), put) = t.span("cache.put", Some(root), op, || {
            side_cache.put(&key, &result)
        });
        t.span("cache.encode", Some(put), op, || {
            encode_entry(&key.canonical(), &result)
        });
    }
    Ok(bytes)
}

/// Every point the figure functions simulate untraced, deduplicated in
/// dispatch order.
fn grid_points() -> Vec<(ClusterSpec, RunSpec)> {
    let (a, b) = (presets::cluster_a(), presets::cluster_b());
    let mut points: Vec<(ClusterSpec, RunSpec)> = Vec::new();
    let mut push = |cl: &ClusterSpec, specs: Vec<RunSpec>| {
        for s in specs {
            if !points.iter().any(|(c, p)| c.name == cl.name && *p == s) {
                points.push((cl.clone(), s));
            }
        }
    };
    push(&a, fig1_specs(&a, FIG1_STEP));
    push(&b, fig1_specs(&b, FIG1_STEP));
    push(&a, fig1_specs(&a, FIG2_STEP));
    push(&a, fig5_specs(&a));
    push(&b, fig5_specs(&b));
    points
}

fn fig1_specs(cl: &ClusterSpec, step: usize) -> Vec<RunSpec> {
    let counts = node_level::sweep_counts(cl, step);
    BENCHMARK_NAMES
        .iter()
        .flat_map(|b| {
            counts
                .iter()
                .map(|&n| RunSpec::new(*b, WorkloadClass::Tiny, n))
        })
        .collect()
}

fn fig5_specs(cl: &ClusterSpec) -> Vec<RunSpec> {
    BENCHMARK_NAMES
        .iter()
        .flat_map(|b| {
            FIG5_NODES
                .iter()
                .map(|&k| RunSpec::new(*b, WorkloadClass::Small, k * cl.node.cores()))
        })
        .collect()
}

/// The figure functions again, on the warm executor of the untraced
/// pass: each call's self time is its span minus the executor calls it
/// makes, re-issued on the same specs.
fn traced_figures(
    t: &mut Tracer,
    first_op: usize,
    warm: &Executor,
    side_cache: &RunCache,
) -> Result<Vec<PointFacts>, String> {
    let (a, b) = (presets::cluster_a(), presets::cluster_b());
    let err = |e: HarnessError| e.to_string();
    let mut facts = Vec::new();
    let mut op = first_op;
    let grid = |t: &mut Tracer, op, parent, cl: &ClusterSpec, specs: Vec<RunSpec>| {
        let (report, _) = t.span("exec.grid", Some(parent), op, || warm.run_all(cl, &specs));
        report.into_results().map(drop).map_err(|e| e.to_string())
    };

    let (f1a, root) = t.span("experiments.fig", None, op, || {
        node_level::fig1_with(warm, &a, FIG1_STEP)
    });
    let f1a = f1a.map_err(err)?;
    grid(t, op, root, &a, fig1_specs(&a, FIG1_STEP))?;
    facts.push(PointFacts::default());
    op += 1;

    let (tables, root) = t.span("experiments.fig", None, op, || {
        node_level::fig1_with(warm, &b, FIG1_STEP).map(|f1b| {
            (
                node_level::efficiency_table(&f1a, &a),
                node_level::efficiency_table(&f1b, &b),
                node_level::acceleration_table(&f1a, &f1b),
                node_level::vectorization_table(&f1a),
            )
        })
    });
    tables.map_err(err)?;
    grid(t, op, root, &b, fig1_specs(&b, FIG1_STEP))?;
    facts.push(PointFacts::default());
    op += 1;

    let (f2, root) = t.span("experiments.fig", None, op, || {
        node_level::fig2_with(warm, &a, FIG2_STEP)
    });
    f2.map_err(err)?;
    grid(t, op, root, &a, fig1_specs(&a, FIG2_STEP))?;
    let mut bytes = 0;
    for spec in [
        RunSpec::new("minisweep", WorkloadClass::Tiny, 59),
        RunSpec::new("lbm", WorkloadClass::Tiny, a.node.cores() - 1),
    ] {
        bytes = bytes.max(traced_point(
            t,
            op,
            warm,
            side_cache,
            &a,
            &spec,
            true,
            Some(root),
        )?);
    }
    facts.push(PointFacts {
        benchmark: String::new(),
        program_bytes: bytes,
    });
    op += 1;

    let (f34, root) = t.span("experiments.fig", None, op, || {
        node_level::fig1_with(warm, &a, FIG1_STEP).map(|f1a| {
            (
                power_energy::fig3(&f1a, &a),
                power_energy::hot_cool_table(&f1a, &a),
                power_energy::fig4(&f1a),
            )
        })
    });
    f34.map_err(err)?;
    grid(t, op, root, &a, fig1_specs(&a, FIG1_STEP))?;
    facts.push(PointFacts::default());
    op += 1;

    for cl in [&a, &b] {
        let (f5, root) = t.span("experiments.fig", None, op, || {
            multi_node::fig5_with(warm, cl, &FIG5_NODES)
                .map(|f5| (f5.render(), multi_node::scaling_cases(&f5)))
        });
        f5.map_err(err)?;
        grid(t, op, root, cl, fig5_specs(cl))?;
        facts.push(PointFacts::default());
        op += 1;
    }
    Ok(facts)
}

fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    // Untraced pass: end-to-end reference and the executor's own ledger.
    let a = pass(ctx)?;
    let mut out = Outcome {
        attempted: a.sims,
        failed: if a.ok { 0 } else { a.sims },
        ..Outcome::default()
    };
    let m = &a.metrics;
    let all_point_ms: Vec<f64> = m.point_wall_s.iter().map(|(_, s)| s * 1e3).collect();
    out.set(
        "exec.busy_share",
        m.total_wall_s() / (a.workers as f64 * a.wall_s),
    );
    out.set("exec.point_ms.p50", median(&all_point_ms));
    out.set(
        "exec.point_ms.p95",
        percentile(&all_point_ms, 95.0).unwrap_or(0.0),
    );
    out.set("exec.points_timed", m.point_wall_s.len() as f64);
    out.set(
        "cache.hit_ratio",
        (m.cache.hits_mem + m.cache.hits_disk) as f64 / m.cache.lookups().max(1) as f64,
    );
    let untraced_p50 = median(&simulated_point_ms(m));

    // Traced points: the grid again on a cold executor, two workers.
    let origin = Instant::now();
    let points = grid_points();
    let cold = cold_executor(ctx);
    let side_cache = RunCache::on_disk(ctx.work.fresh("side-cache"));
    let cursor = AtomicUsize::new(0);
    let facts = Mutex::new(vec![PointFacts::default(); points.len()]);
    let failures = Mutex::new(Vec::new());
    let parts: Vec<Vec<Span>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..a.workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tracer::new(origin);
                    loop {
                        let op = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((cl, spec)) = points.get(op) else {
                            return t.into_spans();
                        };
                        match traced_point(&mut t, op, &cold, &side_cache, cl, spec, false, None) {
                            Ok(bytes) => {
                                facts.lock().expect("facts lock")[op] = PointFacts {
                                    benchmark: spec.benchmark.clone(),
                                    program_bytes: bytes,
                                }
                            }
                            Err(e) => failures.lock().expect("failure lock").push(e),
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced worker panicked"))
            .collect()
    });
    let mut facts = facts.into_inner().expect("facts lock");
    let mut t = Tracer::new(origin);
    match traced_figures(&mut t, points.len(), &a.exec, &side_cache) {
        Ok(more) => facts.extend(more),
        Err(e) => failures.lock().expect("failure lock").push(e),
    }
    let failures = failures.into_inner().expect("failure lock");
    for f in &failures {
        println!("reproduce-cold traced: {f}");
    }
    out.failed += failures.len() as u64;
    out.attempted += points.len() as u64;
    let mut parts = parts;
    parts.push(t.into_spans());
    let spans = trace::merge(parts);

    let selfs = trace::self_times(&spans);
    let total = |name: &str| -> f64 { trace::selfs_of(&spans, &selfs, name).iter().sum() };
    out.set("kernels.model_ms", total("kernels.model"));
    out.set("kernels.programs_ms", total("kernels.programs"));
    out.set("simmpi.prepass_ms", total("simmpi.prepass"));
    out.set("simmpi.engine_ms", total("simmpi.engine"));
    out.set("simmpi.trace_ms", total("simmpi.trace"));
    out.set("power.model_ms", total("power.model"));
    out.set("runner.self_ms", total("runner.run"));
    out.set("experiments.self_ms", total("experiments.fig"));
    let engine = |bench: Option<&str>| -> (f64, u64) {
        spans
            .iter()
            .filter(|s| s.name == "simmpi.engine")
            .filter(|s| bench.is_none_or(|b| facts[s.op].benchmark == b))
            .fold((0.0, 0), |(ms, ops), s| (ms + s.ms(), ops + s.count))
    };
    let (ms, ops) = engine(None);
    out.set("simmpi.sim_ops", ops as f64);
    out.set("simmpi.sim_ops_per_s", ops as f64 / (ms / 1e3));
    for b in BENCHMARK_NAMES {
        let (ms, ops) = engine(Some(b));
        out.set(format!("simmpi.engine_ms.{b}"), ms);
        out.set(format!("simmpi.sim_ops_per_s.{b}"), ops as f64 / (ms / 1e3));
    }
    let max_bytes = facts.iter().map(|f| f.program_bytes).max().unwrap_or(0);
    out.set(
        "simmpi.program_mb_max",
        max_bytes as f64 / (1u64 << 20) as f64,
    );
    let durations = |name: &str| trace::durations(&spans, name);
    let puts = durations("cache.put");
    out.set("cache.put_ms.p50", median(&puts));
    out.set("cache.put_ms.p95", percentile(&puts, 95.0).unwrap_or(0.0));
    out.set("cache.encode_ms", median(&durations("cache.encode")));

    crate::print_layer_sums(&spans, &selfs);
    let traced_p50 = median(&durations("exec.run"));
    println!(
        "tracing overhead: traced exec.run p50 {traced_p50:.3} ms vs untraced point p50 {untraced_p50:.3} ms ({:+.1} %)",
        (traced_p50 / untraced_p50 - 1.0) * 100.0
    );
    let engine_all = total("simmpi.engine") + total("simmpi.trace");
    let op_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ms)
        .sum();
    println!(
        "shares of traced op time: engine {:.1} %, hpgmgfv engine {:.1} %, runner self {:.1} %",
        engine_all / op_ms * 100.0,
        engine(Some("hpgmgfv")).0 / op_ms * 100.0,
        total("runner.run") / op_ms * 100.0
    );
    Ok(out)
}
