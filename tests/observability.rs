//! Integration tests for the observability layer: the Fig.-2-style
//! profile must be populated without event tracing (the whole point of
//! the incremental profiler), survive the disk cache byte-exactly, and
//! the executor metrics must report real cache hits on a warm store.

use std::path::PathBuf;

use spechpc::prelude::*;
use spechpc::simmpi::Profile;

fn quick() -> RunConfig {
    RunConfig::default()
        .with_warmup_steps(1)
        .with_measured_steps(2)
        .with_repetitions(1)
        .with_trace(false)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "spechpc-observability-{tag}-{}",
        std::process::id()
    ))
}

fn assert_profiled(r: &RunResult, ctx: &str) {
    let p: &Profile = &r.profile;
    assert!(p.is_enabled(), "{ctx}: profile must be on by default");
    assert_eq!(p.per_rank.len(), p.nranks, "{ctx}: one phase row per rank");
    let tot = p.totals();
    assert!(tot.total_s() > 0.0, "{ctx}: phases must be attributed");
    assert!(tot.mpi_s() > 0.0, "{ctx}: some MPI wait must show up");
    let traffic: u64 = (0..p.nranks)
        .flat_map(|f| (0..p.nranks).map(move |t| (f, t)))
        .map(|(f, t)| p.bytes_between(f, t))
        .sum();
    assert!(traffic > 0, "{ctx}: comm matrix must record traffic");
    let msgs: u64 = p
        .eager_hist
        .iter()
        .chain(p.rendezvous_hist.iter())
        .map(|b| b.count)
        .sum();
    assert!(msgs > 0, "{ctx}: size histograms must record messages");
    // The profile is incremental — no timeline was recorded to get it.
    assert!(
        r.timeline.events.is_empty(),
        "{ctx}: profiling must not require tracing"
    );
}

/// The paper's Fig. 2 pathologies (minisweep@59, lbm at an odd rank
/// count) profile on both cluster presets with tracing off.
#[test]
fn fig2_cases_profile_without_tracing_on_both_presets() {
    for cluster in [presets::cluster_a(), presets::cluster_b()] {
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let cases = [("minisweep", 59usize), ("lbm", cluster.node.cores() - 1)];
        for (name, n) in cases {
            let spec = RunSpec::new(name, WorkloadClass::Tiny, n);
            let r = exec.run_one(&cluster, &spec).unwrap();
            assert_profiled(&r, &format!("{name}@{n} on {}", cluster.name));
        }
    }
}

/// minisweep@59's profile must tell the Fig.-2 story: the sweep's
/// serialized receives make waiting (recv + rendezvous stalls) the
/// dominant MPI phase.
#[test]
fn minisweep_profile_shows_recv_dominated_waits() {
    let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
    let spec = RunSpec::new("minisweep", WorkloadClass::Tiny, 59);
    let r = exec.run_one(&presets::cluster_a(), &spec).unwrap();
    let tot = r.profile.totals();
    let waits = tot.recv_wait_s + tot.rendezvous_stall_s;
    assert!(
        waits > tot.eager_send_s,
        "receive-side waits ({waits:.4} s) must dominate send overhead ({:.4} s)",
        tot.eager_send_s
    );
}

/// A second invocation against a warm disk store must be served from
/// the cache — non-zero hits, zero simulations — and hand back the
/// identical profile.
#[test]
fn warm_cache_reports_hits_and_preserves_the_profile() {
    let dir = scratch_dir("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = presets::cluster_a();
    let specs: Vec<RunSpec> = [("minisweep", 59usize), ("lbm", 16), ("tealeaf", 8)]
        .iter()
        .map(|&(name, n)| RunSpec::new(name, WorkloadClass::Tiny, n))
        .collect();

    let cfg = |jobs| {
        ExecConfig::default()
            .with_jobs(jobs)
            .with_cache_dir(dir.clone())
    };
    let cold = Executor::new(quick(), cfg(2));
    let first = cold.run_all(&cluster, &specs).into_results().unwrap();
    let m = cold.metrics();
    assert_eq!(m.runs_executed, specs.len() as u64);
    assert_eq!(m.cache.misses, specs.len() as u64);
    assert_eq!(m.cache.stores, specs.len() as u64);

    // Fresh executor, same store: everything replays from disk.
    let warm = Executor::new(quick(), cfg(2));
    let second = warm.run_all(&cluster, &specs).into_results().unwrap();
    let m = warm.metrics();
    assert_eq!(m.runs_executed, 0, "warm store must not re-simulate");
    assert!(m.cache.hits_disk >= specs.len() as u64);
    assert_eq!(m.cache.misses, 0);
    assert_eq!(m.cache.corrupt, 0);

    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            format!("{:#?}", a.profile),
            format!("{:#?}", b.profile),
            "profile must survive the cache round-trip bit-exactly"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
