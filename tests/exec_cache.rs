//! Integration tests for the parallel, cached execution layer: the
//! determinism guarantee (any `--jobs` count produces byte-identical
//! output) and the on-disk cache round-trip/invalidation behaviour.

use std::path::PathBuf;

use spechpc::harness::cache::RunCache;
use spechpc::harness::cache::RunKey;
use spechpc::prelude::*;

fn quick() -> RunConfig {
    RunConfig::default()
        .with_warmup_steps(1)
        .with_measured_steps(2)
        .with_repetitions(1)
        .with_trace(false)
}

/// A mixed grid: several benchmarks at several rank counts on both
/// clusters' core grid, enough work that parallel scheduling actually
/// interleaves.
fn grid() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for name in ["tealeaf", "lbm", "soma", "pot3d", "minisweep", "weather"] {
        for n in [4, 18, 36] {
            specs.push(RunSpec::new(name, WorkloadClass::Tiny, n));
        }
    }
    specs
}

/// Render results through `{:?}`, which formats every `f64` with the
/// shortest decimal that round-trips to the identical bit pattern —
/// byte equality of this string is bit equality of the results.
fn render(results: &[RunResult]) -> String {
    format!("{results:#?}")
}

/// A scratch cache directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spechpc-exec-cache-{tag}-{}", std::process::id()))
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let cluster = presets::cluster_a();
    let specs = grid();

    let serial = Executor::new(quick(), ExecConfig::default().with_jobs(1));
    let parallel = Executor::new(quick(), ExecConfig::default().with_jobs(8));

    let rs = serial.run_all(&cluster, &specs).into_results().unwrap();
    let rp = parallel.run_all(&cluster, &specs).into_results().unwrap();
    assert_eq!(
        render(&rs),
        render(&rp),
        "--jobs 8 must reproduce serial output byte for byte"
    );
}

#[test]
fn disk_cache_round_trips_and_second_run_hits_it() {
    let dir = scratch_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = presets::cluster_b();
    let specs = grid();

    let cold = Executor::new(
        quick(),
        ExecConfig::default()
            .with_jobs(4)
            .with_cache_dir(dir.clone()),
    );
    let first = cold.run_all(&cluster, &specs).into_results().unwrap();

    // Every untraced run must have landed in the store.
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, specs.len(), "one cache file per grid point");

    // A fresh executor (empty memory cache) sees every key on disk …
    let warm = Executor::new(
        quick(),
        ExecConfig::default()
            .with_jobs(4)
            .with_cache_dir(dir.clone()),
    );
    let store = RunCache::on_disk(&dir);
    for spec in &specs {
        let key = RunKey::new(
            &cluster.name,
            &spec.benchmark,
            &spec.class.to_string(),
            spec.nranks,
            &quick(),
        );
        assert!(
            store.get(&key).is_some(),
            "cache miss for {}",
            key.canonical()
        );
    }

    // … and replays the whole grid byte-identically.
    let second = warm.run_all(&cluster, &specs).into_results().unwrap();
    assert_eq!(render(&first), render(&second));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_invalidates_when_run_key_inputs_change() {
    let dir = scratch_dir("invalidate");
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = presets::cluster_a();
    let spec = RunSpec::new("tealeaf", WorkloadClass::Tiny, 8);

    let exec = Executor::new(
        quick(),
        ExecConfig::default()
            .with_jobs(1)
            .with_cache_dir(dir.clone()),
    );
    exec.run_one(&cluster, &spec).unwrap();

    let store = RunCache::on_disk(&dir);
    let hit = RunKey::new(&cluster.name, "tealeaf", "tiny", 8, &quick());
    assert!(store.get(&hit).is_some());

    // Any change to a RunKey input addresses a different entry.
    let more_steps = quick().with_measured_steps(quick().measured_steps + 1);
    let misses = [
        RunKey::new(&cluster.name, "tealeaf", "tiny", 8, &more_steps),
        RunKey::new(&cluster.name, "tealeaf", "tiny", 9, &quick()),
        RunKey::new(&cluster.name, "tealeaf", "test", 8, &quick()),
        RunKey::new(&cluster.name, "lbm", "tiny", 8, &quick()),
        RunKey::new("ClusterB", "tealeaf", "tiny", 8, &quick()),
    ];
    for key in &misses {
        assert!(
            store.get(key).is_none(),
            "{} must not hit the entry written for {}",
            key.canonical(),
            hit.canonical()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
