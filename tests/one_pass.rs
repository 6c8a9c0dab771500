//! The runner simulates each grid point in one pass: the engine replays
//! the step template `W` times, a warm-up barrier, then `M` times, and
//! reports its state at the barrier as the warm-up cut. These tests
//! hold that pass to the recipe it replaced — run `W×step + Barrier`,
//! run `W×step + Barrier + M×step` from scratch, subtract — which is
//! kept here as an oracle written against the engine's public API.

use std::path::Path;

use spechpc::harness::cache::encode_entry;
use spechpc::harness::faultcfg::load_plan;
use spechpc::prelude::*;
use spechpc::simmpi::engine::{Engine, Prepass, SimConfig, SimError, WarmupCut};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};

/// The two-run recipe: simulate `W×step + Barrier`, then `W×step +
/// Barrier + M×step` from scratch, and measure the second against the
/// end of the first.
fn two_runs(
    runner: &SimRunner,
    cluster: &ClusterSpec,
    benchmark: &dyn Benchmark,
    class: WorkloadClass,
    nranks: usize,
) -> Result<RunResult, SimError> {
    let cfg = &runner.config;
    let sig = benchmark.signature(class);
    let model = NodeModel::new(cluster, nranks);
    let ct = model.compute_times(&sig, &benchmark.penalties(class, nranks));
    let step = benchmark.step_programs(class, &ct);
    let warm: Vec<Program> = step
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
        .zip(&step)
        .map(|(w, p)| {
            let mut prog = w.clone();
            for _ in 0..cfg.measured_steps {
                prog.ops.extend_from_slice(&p.ops);
            }
            prog
        })
        .collect();
    let pre = Prepass::analyze(&step)?;
    let engine = |programs: Vec<Program>, trace: bool| {
        let sim = SimConfig::default()
            .with_trace(trace)
            .with_faults(cfg.faults.clone())
            .with_threads(cfg.threads);
        Engine::new(sim, NetModel::compact(cluster, nranks), programs)
    };
    let warm = engine(warm, false).run_prevalidated(&pre.scaled(cfg.warmup_steps))?;
    let full = engine(full, cfg.trace)
        .run_prevalidated(&pre.scaled(cfg.warmup_steps + cfg.measured_steps))?;
    let cut = WarmupCut {
        finish: warm.makespan,
        per_rank_breakdown: warm.per_rank_breakdown,
        per_rank_phases: warm.profile.per_rank,
    };
    Ok(runner.result_from(benchmark, class, &model, &ct, &pre, full, &cut))
}

fn plan(name: &str) -> FaultPlan {
    let path = format!("{}/plans/{name}", env!("CARGO_MANIFEST_DIR"));
    load_plan(Path::new(&path)).expect("committed plan loads")
}

/// The probe grid: ClusterA at 59 and 72 ranks, ClusterB at 71 and 208.
fn probe_points() -> [(ClusterSpec, usize); 4] {
    [
        (presets::cluster_a(), 59),
        (presets::cluster_a(), 72),
        (presets::cluster_b(), 71),
        (presets::cluster_b(), 208),
    ]
}

/// `SimRunner::run` writes the cache entry the two runs write, byte for
/// byte, or fails with the same `SimError`.
fn assert_one_pass_matches(config: RunConfig, cluster: &ClusterSpec, name: &str, n: usize) {
    let runner = SimRunner::new(config);
    let b = benchmark_by_name(name).unwrap();
    let class = WorkloadClass::Tiny;
    let key = RunKey::new(&cluster.name, name, "tiny", n, &runner.config).canonical();
    let what = format!(
        "{name} on {} at {n}, threads {}, faults {}",
        cluster.name,
        runner.config.threads,
        runner.config.faults.canonical()
    );
    match (
        runner.run(cluster, &*b, class, n),
        two_runs(&runner, cluster, &*b, class, n),
    ) {
        (Ok(one), Ok(two)) => {
            assert_eq!(encode_entry(&key, &one), encode_entry(&key, &two), "{what}")
        }
        (Err(one), Err(two)) => assert_eq!(one, two, "{what}"),
        (one, two) => panic!(
            "{what}: one pass {:?} vs two runs {:?}",
            one.err(),
            two.err()
        ),
    }
}

/// Nine of the 36 probe cases, one per benchmark, rotating over the
/// grid points, 1 and 2 threads, and the clean and noisy-node plans.
/// `one_pass_matches_two_runs_on_the_probe_grid` is the whole matrix.
#[test]
fn one_pass_matches_two_runs_on_a_probe_subset() {
    let points = probe_points();
    for (i, name) in BENCHMARK_NAMES.iter().enumerate() {
        let (cluster, n) = &points[i % points.len()];
        let faults = if i % 3 == 0 {
            plan("noisy-node.toml")
        } else {
            FaultPlan::none()
        };
        let config = RunConfig::default()
            .with_faults(faults)
            .with_threads(1 + i % 2);
        assert_one_pass_matches(config, cluster, name, *n);
    }
}

/// All 36 probe cases (9 benchmarks × 4 grid points) at 1 and 2
/// threads, clean and under `plans/noisy-node.toml`. CI's pdes-smoke
/// job runs it in release.
#[test]
#[ignore = "the 144-run matrix: run it in release with --include-ignored"]
fn one_pass_matches_two_runs_on_the_probe_grid() {
    for faults in [FaultPlan::none(), plan("noisy-node.toml")] {
        for threads in [1, 2] {
            for (cluster, n) in probe_points() {
                for name in BENCHMARK_NAMES {
                    let config = RunConfig::default()
                        .with_faults(faults.clone())
                        .with_threads(threads);
                    assert_one_pass_matches(config, &cluster, name, n);
                }
            }
        }
    }
}

/// A crash fails the one pass with the error the two runs returned:
/// the CI smoke plan's immediate crash on every benchmark, and crashes
/// inside the warm-up and inside the measured steps.
#[test]
fn crashes_fail_like_the_two_runs() {
    let cluster = presets::cluster_a();
    for name in BENCHMARK_NAMES {
        let config = RunConfig::default().with_faults(plan("ci-smoke.toml"));
        assert_one_pass_matches(config, &cluster, name, 8);
    }
    let b = benchmark_by_name("cloverleaf").unwrap();
    let clean = SimRunner::new(RunConfig::default())
        .run(&cluster, &*b, WorkloadClass::Tiny, 8)
        .unwrap();
    for at_s in [0.5 * clean.step_seconds, 3.5 * clean.step_seconds] {
        let faults = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash { rank: 3, at_s }],
        };
        for threads in [1, 2] {
            let config = RunConfig::default()
                .with_faults(faults.clone())
                .with_threads(threads);
            assert!(SimRunner::new(config.clone())
                .run(&cluster, &*b, WorkloadClass::Tiny, 8)
                .is_err());
            assert_one_pass_matches(config, &cluster, "cloverleaf", 8);
        }
    }
}

/// Under flaky links the warm-up cut is the end of the warm-up
/// `Barrier` in the same run's traced timeline: the warm-up is the
/// prefix of the run, with the run's own retransmission draws.
#[test]
fn flaky_cut_is_the_traced_warm_up_barrier() {
    let cluster = presets::cluster_a();
    let b = benchmark_by_name("minisweep").unwrap();
    let class = WorkloadClass::Tiny;
    let n = 16;
    let model = NodeModel::new(&cluster, n);
    let ct = model.compute_times(&b.signature(class), &b.penalties(class, n));
    let step = b.step_programs(class, &ct);
    assert!(
        step.iter()
            .flat_map(|p| &p.ops)
            .all(|op| *op != Op::Barrier),
        "the warm-up barrier is the only barrier of the run"
    );
    let pre = Prepass::analyze(&step).unwrap();
    let cfg = RunConfig::default();
    for threads in [1, 2] {
        let sim = SimConfig::default()
            .with_trace(true)
            .with_faults(plan("degraded-fabric.toml"))
            .with_threads(threads);
        let (full, cut) = Engine::new(sim, NetModel::compact(&cluster, n), step.clone())
            .run_replayed(&pre, cfg.warmup_steps, cfg.measured_steps)
            .unwrap();
        let mut waited = 0;
        for r in 0..n {
            let barriers: Vec<_> = full
                .timeline
                .rank_events(r)
                .into_iter()
                .filter(|e| e.kind == EventKind::Barrier)
                .collect();
            // The last entrant waits no time and records no interval;
            // every other rank leaves at the cut.
            assert!(barriers.len() <= 1, "rank {r}: {barriers:?}");
            if let Some(e) = barriers.first() {
                assert_eq!(e.end, cut.finish, "rank {r} at {threads} threads");
                waited += 1;
            }
        }
        assert!(waited >= n - 1, "only {waited} ranks waited in the barrier");
    }
}
