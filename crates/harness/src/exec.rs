//! Parallel, cached, fault-tolerant execution of experiment grids.
//!
//! The [`Executor`] is the single entry point every experiment driver,
//! the suite and the CLI funnel their runs through. It combines:
//!
//! * the [`RunCache`] — each run is looked up
//!   by its [`RunKey`] before the simulation is
//!   ever constructed, and stored afterwards. Every executor has the
//!   memory tier; the disk tier is optional;
//! * a work-stealing thread pool over the host cores
//!   ([`Executor::run_all`]) with **deterministic result assembly**:
//!   workers claim grid points through an atomic cursor and write into
//!   pre-allocated slots, so the output order (and therefore every
//!   rendered table) is byte-identical to a serial run regardless of
//!   the job count or scheduling interleavings. The simulation itself
//!   is pure — a result never depends on *when* it was computed;
//! * **graceful degradation**: a failed grid point (injected rank
//!   crash, deadlock, worker panic, per-run timeout) never takes the
//!   grid down. Panics are caught at the run boundary, a per-run
//!   wall-clock budget cancels runaway simulations cooperatively
//!   (a timed-out point fails; nothing is retried), and
//!   [`Executor::run_all`] always returns a [`GridReport`] carrying
//!   the completed results plus a per-spec failure report.
//!
//! Traced runs ([`Executor::run_traced`]) bypass the cache: timelines
//! are large and only the Fig. 2 insets and CSV export want them. They
//! are otherwise supervised like every other run.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use spechpc_kernels::common::benchmark::Benchmark;
use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::registry::{benchmark_by_name, BENCHMARK_NAMES};
use spechpc_machine::cluster::ClusterSpec;

use crate::cache::{encode_result, CacheMetrics, Entry, RunCache, RunKey};
use crate::error::HarnessError;
use crate::runner::{RunConfig, RunResult, SimRunner};

/// Resolver for results computed elsewhere in a fleet: given a
/// [`RunKey`], return the verified [`RunResult`] a peer daemon already
/// has cached, or `None` to fall through to local simulation. Consulted
/// only after a local cache miss; a hit is stored locally so subsequent
/// replays answer from memory (see [`Executor::with_peer_fetch`]).
pub type PeerFetch = Arc<dyn Fn(&RunKey) -> Option<RunResult> + Send + Sync>;

/// How the executor schedules, memoizes and supervises runs.
///
/// Marked `#[non_exhaustive]`: construct with [`ExecConfig::default`]
/// plus the `with_*` builders, so new scheduling knobs stop being
/// breaking changes for downstream crates.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Worker threads for grid execution; `0` means one per available
    /// host core.
    pub jobs: usize,
    /// Persist results under this directory (usually
    /// [`RunCache::default_dir`]); `None` keeps the cache in-memory
    /// only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-run wall-clock budget in seconds; `0.0` disables the
    /// timeout. A run over budget is cancelled cooperatively through
    /// the engine's cancellation token and reported as
    /// [`HarnessError::Timeout`].
    pub timeout_s: f64,
}

impl ExecConfig {
    /// Builder: worker threads for grid execution (`0` = one per core).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Builder: persist results under `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Builder: per-run wall-clock budget in seconds (`0.0` = off).
    pub fn with_timeout_s(mut self, timeout_s: f64) -> Self {
        self.timeout_s = timeout_s;
        self
    }

    /// `jobs` resolved against the host.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One point of an experiment grid.
///
/// Marked `#[non_exhaustive]`: construct with [`RunSpec::new`] plus
/// the `with_*` builders.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RunSpec {
    /// Registry name of the benchmark (see
    /// [`spechpc_kernels::registry`]).
    pub benchmark: String,
    pub class: WorkloadClass,
    pub nranks: usize,
}

impl RunSpec {
    pub fn new(benchmark: impl Into<String>, class: WorkloadClass, nranks: usize) -> Self {
        RunSpec {
            benchmark: benchmark.into(),
            class,
            nranks,
        }
    }

    /// Builder: replace the rank count.
    pub fn with_nranks(mut self, nranks: usize) -> Self {
        self.nranks = nranks;
        self
    }
}

/// One failed grid point of a [`GridReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridFailure {
    /// Index into the spec slice passed to [`Executor::run_all`].
    pub index: usize,
    /// `benchmark/class/nranks@cluster`.
    pub label: String,
    pub error: HarnessError,
}

/// Outcome of a grid execution: one result slot per spec (in spec
/// order; `None` where the point failed) plus the per-spec failure
/// report. A grid always runs to the end — failures degrade the
/// report, they never abort the remaining points.
#[derive(Debug, Clone, Default)]
pub struct GridReport {
    pub results: Vec<Option<RunResult>>,
    /// Failed points in grid order.
    pub failures: Vec<GridFailure>,
}

impl GridReport {
    /// Did every point complete?
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The completed results, in grid order.
    pub fn completed(&self) -> impl Iterator<Item = &RunResult> {
        self.results.iter().flatten()
    }

    /// All-or-nothing view: the full result vector when the grid
    /// completed, otherwise the first failure (in grid order) — the
    /// adapter the all-points-required experiment drivers use.
    pub fn into_results(self) -> Result<Vec<RunResult>, HarnessError> {
        match self.failures.into_iter().next() {
            Some(f) => Err(f.error),
            None => Ok(self.results.into_iter().flatten().collect()),
        }
    }

    /// Human-readable failure report, one line per failed point;
    /// empty for a complete grid.
    pub fn render_failures(&self) -> String {
        self.failures
            .iter()
            .map(|f| format!("FAILED [{}] {}: {}\n", f.index, f.label, f.error))
            .collect()
    }
}

/// Labelled entries the per-point ledger ([`ExecMetrics::point_wall_s`])
/// keeps: the first this many points timed. `figures all` times about
/// 550, so a CLI run keeps every one; a resident daemon's ledger stops
/// here while `points_timed` and `total_wall_s` go on counting.
pub const POINT_LEDGER_CAP: usize = 4096;

/// Observability snapshot of an [`Executor`] — what actually happened
/// behind the scenes of an experiment (the execution-layer analog of
/// the LIKWID counters the paper's §4.2 methodology leans on).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Simulations actually constructed and run (cache hits excluded).
    pub runs_executed: u64,
    /// Cache behaviour (memory and, when configured, disk tier).
    pub cache: CacheMetrics,
    /// Grid points completed per worker slot during `run_all`
    /// (index = worker id; sums over the executor's lifetime).
    pub per_worker_runs: Vec<u64>,
    /// Grid points timed, every one over the executor's lifetime.
    pub points_timed: u64,
    /// Wall seconds summed over all `points_timed` points (read it as
    /// [`ExecMetrics::total_wall_s`]).
    pub wall_s_sum: f64,
    /// Wall-clock seconds per timed grid point, in completion order,
    /// labelled `benchmark/class/nranks@cluster`: the first
    /// [`POINT_LEDGER_CAP`] points.
    pub point_wall_s: Vec<(String, f64)>,
    /// Results served from a fleet peer's cache instead of simulating
    /// locally (zero without [`Executor::with_peer_fetch`]).
    pub peer_hits: u64,
}

impl ExecMetrics {
    /// Total wall seconds across all timed grid points.
    pub fn total_wall_s(&self) -> f64 {
        self.wall_s_sum
    }
}

/// Interior-mutable counters behind [`ExecMetrics`].
#[derive(Default)]
struct ExecCounters {
    runs_executed: AtomicU64,
    per_worker: Mutex<Vec<u64>>,
    points: Mutex<PointLedger>,
    peer_hits: AtomicU64,
}

/// Every timed point counted and summed; the first
/// [`POINT_LEDGER_CAP`] labelled.
#[derive(Default)]
struct PointLedger {
    timed: u64,
    wall_s: f64,
    first: Vec<(String, f64)>,
}

/// A served grid point's result.
enum Served {
    /// A cache hit: the resident entry.
    Hit(Entry),
    /// A result computed (or fetched from a peer) for this request,
    /// with the resident entry the cache made of it. Traced runs have
    /// none.
    Fresh(Box<RunResult>, Option<Entry>),
}

impl Served {
    fn into_result(self) -> RunResult {
        match self {
            Served::Hit(entry) => entry.result().clone(),
            Served::Fresh(result, _) => *result,
        }
    }

    /// Read the served result in place: the resident entry's on a hit.
    fn read<T>(&self, read: impl FnOnce(&RunResult) -> T) -> T {
        match self {
            Served::Hit(entry) => read(entry.result()),
            Served::Fresh(result, _) => read(result),
        }
    }

    fn into_encoded(self) -> Arc<str> {
        match self {
            Served::Hit(entry) | Served::Fresh(_, Some(entry)) => entry.encoded(),
            Served::Fresh(result, None) => encode_result(&result).into(),
        }
    }
}

/// Parallel, memoizing, fault-tolerant run executor (see the module
/// docs).
///
/// The cache and the counters sit behind [`Arc`] so a resident service
/// can fork per-request executors with [`Executor::with_run_config`]
/// while every fork keeps hitting the *same* memoization store and
/// accumulating into the *same* metrics.
pub struct Executor {
    runner: SimRunner,
    jobs: usize,
    timeout_s: f64,
    cache: Arc<RunCache>,
    counters: Arc<ExecCounters>,
    peer_fetch: Option<PeerFetch>,
}

impl Executor {
    pub fn new(run_config: RunConfig, exec: ExecConfig) -> Self {
        let cache = match &exec.cache_dir {
            Some(dir) => RunCache::on_disk(dir.clone()),
            None => RunCache::in_memory(),
        };
        Executor {
            jobs: exec.effective_jobs(),
            timeout_s: exec.timeout_s,
            runner: SimRunner::new(run_config),
            cache: Arc::new(cache),
            counters: Arc::new(ExecCounters::default()),
            peer_fetch: None,
        }
    }

    /// Builder: consult a fleet peer's cache after a local miss, before
    /// simulating. A peer hit is stored in the local cache so the next
    /// replay answers from memory with the same bytes.
    pub fn with_peer_fetch(mut self, fetch: PeerFetch) -> Self {
        self.peer_fetch = Some(fetch);
        self
    }

    /// The memoization store — how the daemon's `GET /v1/cache/{key}`
    /// route serves raw entries to fleet peers.
    pub fn cache(&self) -> &RunCache {
        &self.cache
    }

    /// The run rules this executor applies.
    pub fn run_config(&self) -> &RunConfig {
        &self.runner.config
    }

    /// Fork an executor that applies different run rules but shares
    /// this executor's cache and metrics counters — how the `serve`
    /// daemon answers requests with arbitrary per-request
    /// [`RunConfig`]s against one resident cache. (Distinct run rules
    /// hash to distinct [`RunKey`]s, so sharing the store is safe.)
    pub fn with_run_config(&self, run_config: RunConfig) -> Executor {
        Executor {
            runner: SimRunner::new(run_config),
            jobs: self.jobs,
            timeout_s: self.timeout_s,
            cache: Arc::clone(&self.cache),
            counters: Arc::clone(&self.counters),
            peer_fetch: self.peer_fetch.clone(),
        }
    }

    fn key_of(&self, cluster: &ClusterSpec, spec: &RunSpec) -> RunKey {
        RunKey::new(
            &cluster.name,
            &spec.benchmark,
            &spec.class.to_string(),
            spec.nranks,
            &self.runner.config,
        )
    }

    /// `benchmark/class/nranks@cluster` — the label metrics rows and
    /// suite failures carry.
    pub(crate) fn label_of(cluster: &ClusterSpec, spec: &RunSpec) -> String {
        format!(
            "{}/{}/{}@{}",
            spec.benchmark, spec.class, spec.nranks, cluster.name
        )
    }

    /// Execute one grid point, consulting the cache first. Traced
    /// configurations always re-simulate (timelines are not cached).
    pub fn run_one(
        &self,
        cluster: &ClusterSpec,
        spec: &RunSpec,
    ) -> Result<RunResult, HarnessError> {
        let t0 = Instant::now();
        let outcome = self.serve_point(cluster, spec).map(Served::into_result);
        self.time_point(cluster, spec, t0);
        outcome
    }

    /// [`Executor::run_one`] that hands `read` the served result instead
    /// of returning a copy of it, so a caller that needs a few scalars
    /// of a memory hit clones nothing. Cache counters and the point
    /// ledger move exactly as for `run_one`.
    pub(crate) fn run_one_with<T>(
        &self,
        cluster: &ClusterSpec,
        spec: &RunSpec,
        read: impl FnOnce(&RunResult) -> T,
    ) -> Result<T, HarnessError> {
        let t0 = Instant::now();
        let outcome = self.serve_point(cluster, spec).map(|s| s.read(read));
        self.time_point(cluster, spec, t0);
        outcome
    }

    /// [`Executor::run_one`] as the result's cache encoding
    /// ([`Entry::encoded`]), the bytes a `POST /v1/run` body wraps. A
    /// memory hit shares the resident entry's bytes: no clone of the
    /// result, and no encode after the entry's first wire read.
    pub(crate) fn run_one_encoded(
        &self,
        cluster: &ClusterSpec,
        spec: &RunSpec,
    ) -> Result<Arc<str>, HarnessError> {
        let t0 = Instant::now();
        let outcome = self.serve_point(cluster, spec).map(Served::into_encoded);
        self.time_point(cluster, spec, t0);
        outcome
    }

    /// The result encoding of a point whose key is resident in memory,
    /// or `None`: the probe a daemon's event loop answers `POST /v1/run`
    /// with before it hands a request to the worker pool. It reads no
    /// file, asks no peer and runs no simulation. A hit counts under
    /// `hits_mem` and times the point exactly as
    /// [`Executor::run_one_encoded`]'s hit does; a miss counts nothing,
    /// because the pool's lookup will.
    pub(crate) fn resident_encoded(
        &self,
        cluster: &ClusterSpec,
        spec: &RunSpec,
    ) -> Option<Arc<str>> {
        // `serve_point` refuses a name outside the registry before any
        // lookup, and a traced run bypasses the cache: both are the
        // pool's to answer.
        if self.runner.config.trace || !BENCHMARK_NAMES.contains(&spec.benchmark.as_str()) {
            return None;
        }
        let t0 = Instant::now();
        let encoded = self
            .cache
            .lookup_resident(&self.key_of(cluster, spec))?
            .encoded();
        self.time_point(cluster, spec, t0);
        Some(encoded)
    }

    /// Count one timed point into the ledger.
    fn time_point(&self, cluster: &ClusterSpec, spec: &RunSpec, t0: Instant) {
        let wall_s = t0.elapsed().as_secs_f64();
        let mut points = self
            .counters
            .points
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        points.timed += 1;
        points.wall_s += wall_s;
        if points.first.len() < POINT_LEDGER_CAP {
            points.first.push((Self::label_of(cluster, spec), wall_s));
        }
    }

    fn serve_point(&self, cluster: &ClusterSpec, spec: &RunSpec) -> Result<Served, HarnessError> {
        // Surface bad names as a typed failure before any cache or
        // simulation work.
        resolve(&spec.benchmark)?;
        if self.runner.config.trace {
            return self
                .simulate(cluster, spec)
                .map(|r| Served::Fresh(Box::new(r), None));
        }
        let key = self.key_of(cluster, spec);
        if let Some(hit) = self.cache.lookup(&key) {
            return Ok(Served::Hit(hit));
        }
        // Local miss: a fleet peer may already have this result.
        let result = match self.peer_fetch.as_ref().and_then(|fetch| fetch(&key)) {
            Some(result) => {
                self.counters.peer_hits.fetch_add(1, Ordering::Relaxed);
                result
            }
            None => self.simulate(cluster, spec)?,
        };
        let entry = self.cache.insert(&key, &result);
        Ok(Served::Fresh(Box::new(result), Some(entry)))
    }

    /// One supervised simulation: panics are caught at this
    /// boundary, and with a timeout configured the run executes on a
    /// watchdog thread that is cancelled cooperatively when over
    /// budget.
    fn simulate(&self, cluster: &ClusterSpec, spec: &RunSpec) -> Result<RunResult, HarnessError> {
        self.counters.runs_executed.fetch_add(1, Ordering::Relaxed);
        let label = Self::label_of(cluster, spec);
        if self.timeout_s > 0.0 {
            return self.simulate_with_deadline(cluster, spec, label);
        }
        let bench = resolve(&spec.benchmark)?;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.runner
                .run(cluster, &*bench, spec.class, spec.nranks)
                .map_err(HarnessError::from)
        }));
        outcome.unwrap_or_else(|p| {
            Err(HarnessError::Panic {
                label,
                message: panic_message(p.as_ref()),
            })
        })
    }

    /// Run on a helper thread under the per-run wall-clock budget. On
    /// timeout the engine's cancellation token is set — the simulation
    /// observes it at the next op boundary and unwinds — and the
    /// detached thread's late result is dropped with the channel.
    ///
    /// The budget is authoritative: a result that lands after the
    /// deadline is still reported as [`HarnessError::Timeout`], so a
    /// briefly descheduled parent thread cannot un-time-out a run
    /// that was already over budget when it finished.
    fn simulate_with_deadline(
        &self,
        cluster: &ClusterSpec,
        spec: &RunSpec,
        label: String,
    ) -> Result<RunResult, HarnessError> {
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let config = self.runner.config.clone();
        let cluster = cluster.clone();
        let spec = spec.clone();
        let flag = Arc::clone(&cancel);
        let thread_label = label.clone();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let bench = resolve(&spec.benchmark)?;
                SimRunner::new(config)
                    .run_cancellable(&cluster, &*bench, spec.class, spec.nranks, Some(flag))
                    .map_err(HarnessError::from)
            }));
            let _ = tx.send(outcome.unwrap_or_else(|p| {
                Err(HarnessError::Panic {
                    label: thread_label,
                    message: panic_message(p.as_ref()),
                })
            }));
        });
        let budget = Duration::from_secs_f64(self.timeout_s);
        let started = Instant::now();
        match rx.recv_timeout(budget) {
            Ok(r) if started.elapsed() <= budget => r,
            _ => {
                cancel.store(true, Ordering::Relaxed);
                Err(HarnessError::Timeout {
                    label,
                    limit_s: self.timeout_s,
                })
            }
        }
    }

    /// Run with full event tracing, bypassing the cache — for the
    /// Fig. 2 insets and CSV export. This is [`Executor::run_one`] on a
    /// trace-on fork, so the run is supervised (panic boundary,
    /// timeout) and counted like any other.
    pub fn run_traced(
        &self,
        cluster: &ClusterSpec,
        spec: &RunSpec,
    ) -> Result<RunResult, HarnessError> {
        self.with_run_config(self.runner.config.clone().with_trace(true))
            .run_one(cluster, spec)
    }

    /// Snapshot of the execution-layer counters accumulated so far.
    pub fn metrics(&self) -> ExecMetrics {
        let (points_timed, wall_s_sum, point_wall_s) = {
            let points = self
                .counters
                .points
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            (points.timed, points.wall_s, points.first.clone())
        };
        ExecMetrics {
            runs_executed: self.counters.runs_executed.load(Ordering::Relaxed),
            cache: self.cache.metrics(),
            per_worker_runs: self
                .counters
                .per_worker
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            points_timed,
            wall_s_sum,
            point_wall_s,
            peer_hits: self.counters.peer_hits.load(Ordering::Relaxed),
        }
    }

    /// Credit one completed grid point to `worker`.
    fn credit_worker(&self, worker: usize) {
        let mut per = self
            .counters
            .per_worker
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if per.len() <= worker {
            per.resize(worker + 1, 0);
        }
        per[worker] += 1;
    }

    /// Execute a whole grid concurrently across `jobs` workers.
    ///
    /// Results come back in `specs` order, identical to running the
    /// specs one by one — workers claim points through an atomic cursor
    /// and deposit into the point's own slot, and the simulation is
    /// deterministic, so scheduling cannot leak into the output.
    ///
    /// The grid always runs to completion: a failed point (unknown
    /// benchmark, injected crash, deadlock, panic, timeout) leaves a
    /// `None` slot and a [`GridFailure`] entry while every other point
    /// still executes.
    pub fn run_all(&self, cluster: &ClusterSpec, specs: &[RunSpec]) -> GridReport {
        let workers = self.jobs.min(specs.len()).max(1);
        let slots: Vec<Mutex<Option<Result<RunResult, HarnessError>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();

        if workers == 1 {
            for (i, spec) in specs.iter().enumerate() {
                let outcome = self.run_one(cluster, spec);
                self.credit_worker(0);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let (slots, cursor) = (&slots, &cursor);
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { return };
                        let outcome = self.run_one(cluster, spec);
                        self.credit_worker(w);
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                    });
                }
            });
        }

        let mut report = GridReport {
            results: Vec::with_capacity(specs.len()),
            failures: Vec::new(),
        };
        for (i, slot) in slots.into_iter().enumerate() {
            let label = Self::label_of(cluster, &specs[i]);
            match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                Some(Ok(r)) => report.results.push(Some(r)),
                Some(Err(error)) => {
                    report.results.push(None);
                    report.failures.push(GridFailure {
                        index: i,
                        label,
                        error,
                    });
                }
                // Unreachable with healthy workers (every claimed slot
                // is deposited into), but a dead worker must degrade to
                // a reported failure, not a panic.
                None => {
                    report.results.push(None);
                    report.failures.push(GridFailure {
                        index: i,
                        label,
                        error: HarnessError::Panic {
                            label: Self::label_of(cluster, &specs[i]),
                            message: "worker died before depositing a result".into(),
                        },
                    });
                }
            }
        }
        report
    }
}

/// Resolve a registry name to its benchmark, or a typed failure.
fn resolve(name: &str) -> Result<Box<dyn Benchmark>, HarnessError> {
    benchmark_by_name(name).ok_or_else(|| HarnessError::UnknownBenchmark {
        name: name.to_string(),
    })
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_machine::presets;
    use spechpc_simmpi::faults::{FaultEvent, FaultPlan};

    fn quick() -> RunConfig {
        RunConfig::default().with_repetitions(1).with_trace(false)
    }

    fn render(results: &[RunResult]) -> String {
        results
            .iter()
            .map(|r| {
                format!(
                    "{} n={} step={:?} e={:?}\n",
                    r.benchmark,
                    r.nranks,
                    r.step_seconds,
                    r.energy.total_j()
                )
            })
            .collect()
    }

    fn grid() -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for name in ["tealeaf", "lbm", "minisweep", "soma"] {
            for n in [1usize, 7, 18, 36] {
                specs.push(RunSpec::new(name, WorkloadClass::Tiny, n));
            }
        }
        specs
    }

    #[test]
    fn parallel_grid_matches_serial_byte_for_byte() {
        let cluster = presets::cluster_a();
        let specs = grid();
        let serial = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let parallel = Executor::new(quick(), ExecConfig::default().with_jobs(8));
        let a = serial.run_all(&cluster, &specs).into_results().unwrap();
        let b = parallel.run_all(&cluster, &specs).into_results().unwrap();
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn memory_cache_hits_return_identical_results() {
        let cluster = presets::cluster_b();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(2));
        let spec = RunSpec::new("cloverleaf", WorkloadClass::Tiny, 26);
        let fresh = exec.run_one(&cluster, &spec).unwrap();
        let cached = exec.run_one(&cluster, &spec).unwrap();
        assert_eq!(fresh.step_seconds.to_bits(), cached.step_seconds.to_bits());
        assert_eq!(fresh.breakdown, cached.breakdown);
    }

    #[test]
    fn traced_runs_bypass_cache_and_keep_timelines() {
        let cluster = presets::cluster_a();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let spec = RunSpec::new("lbm", WorkloadClass::Tiny, 4);
        let plain = exec.run_one(&cluster, &spec).unwrap();
        assert!(plain.timeline.events.is_empty());
        let traced = exec.run_traced(&cluster, &spec).unwrap();
        assert!(!traced.timeline.events.is_empty());
        // Tracing never changes the physics.
        assert_eq!(plain.step_seconds.to_bits(), traced.step_seconds.to_bits());
    }

    #[test]
    fn grid_results_stay_in_spec_order() {
        let cluster = presets::cluster_a();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(4));
        // All points valid → full result set, order preserved.
        let specs = grid();
        let report = exec.run_all(&cluster, &specs);
        assert!(report.is_complete());
        let out = report.into_results().unwrap();
        assert_eq!(out.len(), specs.len());
        for (r, s) in out.iter().zip(&specs) {
            assert_eq!(r.benchmark, s.benchmark);
            assert_eq!(r.nranks, s.nranks);
        }
    }

    #[test]
    fn unknown_benchmark_is_a_typed_failure_not_a_panic() {
        let cluster = presets::cluster_a();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let specs = [
            RunSpec::new("hpl", WorkloadClass::Tiny, 1),
            RunSpec::new("lbm", WorkloadClass::Tiny, 4),
        ];
        let report = exec.run_all(&cluster, &specs);
        // The bad point degrades; the good one still runs.
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 0);
        assert!(matches!(
            report.failures[0].error,
            HarnessError::UnknownBenchmark { ref name } if name == "hpl"
        ));
        assert!(report.results[0].is_none());
        assert!(report.results[1].is_some());
        assert!(report.render_failures().contains("unknown benchmark 'hpl'"));
        let err = exec
            .run_one(&cluster, &RunSpec::new("hpl", WorkloadClass::Tiny, 1))
            .unwrap_err();
        assert!(matches!(err, HarnessError::UnknownBenchmark { .. }));
    }

    #[test]
    fn injected_crash_yields_partial_results_and_a_report() {
        let cluster = presets::cluster_a();
        let faulted = quick().with_faults(FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash { rank: 2, at_s: 0.0 }],
        });
        let exec = Executor::new(faulted, ExecConfig::default().with_jobs(2));
        // Rank 2 exists only in the larger runs: those crash, the
        // smaller ones complete.
        let specs = [
            RunSpec::new("lbm", WorkloadClass::Tiny, 2),
            RunSpec::new("lbm", WorkloadClass::Tiny, 8),
            RunSpec::new("tealeaf", WorkloadClass::Tiny, 2),
            RunSpec::new("tealeaf", WorkloadClass::Tiny, 8),
        ];
        let report = exec.run_all(&cluster, &specs);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.completed().count(), 2);
        for f in &report.failures {
            assert_eq!(f.error.failed_rank(), Some(2), "{}", f.error);
        }
        assert!(report.results[0].is_some() && report.results[2].is_some());
        assert!(report.results[1].is_none() && report.results[3].is_none());
        let text = report.render_failures();
        assert!(text.contains("injected crash"), "{text}");
    }

    #[test]
    fn worker_panics_are_isolated_per_point() {
        let cluster = presets::cluster_a();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(2));
        // nranks = 0 trips the runner's assertion — a genuine panic,
        // caught at the run boundary.
        let specs = [
            RunSpec::new("lbm", WorkloadClass::Tiny, 0),
            RunSpec::new("lbm", WorkloadClass::Tiny, 4),
        ];
        let report = exec.run_all(&cluster, &specs);
        assert_eq!(report.failures.len(), 1);
        assert!(matches!(
            report.failures[0].error,
            HarnessError::Panic { .. }
        ));
        assert!(report.results[1].is_some());
        // A traced run panics inside the same boundary.
        let before = exec.metrics().runs_executed;
        let err = exec.run_traced(&cluster, &specs[0]).unwrap_err();
        assert!(matches!(err, HarnessError::Panic { .. }), "{err}");
        assert_eq!(exec.metrics().runs_executed, before + 1);
    }

    #[test]
    fn timeouts_cancel_and_are_not_retried() {
        let cluster = presets::cluster_a();
        // No simulation finishes in a nanosecond.
        let exec = Executor::new(
            quick(),
            ExecConfig::default().with_jobs(1).with_timeout_s(1e-9),
        );
        let spec = RunSpec::new("lbm", WorkloadClass::Tiny, 16);
        let err = exec.run_one(&cluster, &spec).unwrap_err();
        assert!(matches!(err, HarnessError::Timeout { .. }), "{err}");
        // One attempt, no retry.
        assert_eq!(exec.metrics().runs_executed, 1);
        // A traced run is under the same budget.
        let err = exec.run_traced(&cluster, &spec).unwrap_err();
        assert!(matches!(err, HarnessError::Timeout { .. }), "{err}");
        assert_eq!(exec.metrics().runs_executed, 2);
    }

    #[test]
    fn metrics_track_runs_hits_and_wall_time() {
        let cluster = presets::cluster_a();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let spec = RunSpec::new("lbm", WorkloadClass::Tiny, 4);
        exec.run_one(&cluster, &spec).unwrap();
        exec.run_one(&cluster, &spec).unwrap(); // memory hit
        let m = exec.metrics();
        assert_eq!(m.runs_executed, 1);
        assert_eq!(m.cache.hits_mem, 1);
        assert_eq!(m.cache.misses, 1);
        assert_eq!(m.point_wall_s.len(), 2);
        assert_eq!(m.points_timed, 2);
        assert_eq!(m.point_wall_s[0].0, "lbm/tiny/4@ClusterA");
        // Under the cap the running total is the ledger's sum, in the
        // same order, so bit for bit.
        let ledger_sum: f64 = m.point_wall_s.iter().map(|(_, s)| s).sum();
        assert_eq!(m.total_wall_s(), ledger_sum);
    }

    #[test]
    fn peer_fetch_answers_misses_and_fills_the_local_cache() {
        let cluster = presets::cluster_a();
        let origin = Arc::new(Executor::new(quick(), ExecConfig::default().with_jobs(1)));
        let spec = RunSpec::new("lbm", WorkloadClass::Tiny, 6);
        let fresh = origin.run_one(&cluster, &spec).unwrap();

        let peer = Arc::clone(&origin);
        let local = Executor::new(quick(), ExecConfig::default().with_jobs(1))
            .with_peer_fetch(Arc::new(move |key: &RunKey| peer.cache().get(key)));
        let replayed = local.run_one(&cluster, &spec).unwrap();
        assert_eq!(
            fresh.step_seconds.to_bits(),
            replayed.step_seconds.to_bits()
        );
        let m = local.metrics();
        assert_eq!(m.peer_hits, 1);
        assert_eq!(m.runs_executed, 0, "a peer hit must not simulate");
        // The hit was stored locally: the next replay answers from
        // memory without consulting the peer again.
        local.run_one(&cluster, &spec).unwrap();
        let m = local.metrics();
        assert_eq!(m.peer_hits, 1);
        assert_eq!(m.cache.hits_mem, 1);
    }

    #[test]
    fn metrics_attribute_grid_points_to_workers() {
        let cluster = presets::cluster_a();
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(3));
        let specs = grid();
        assert!(exec.run_all(&cluster, &specs).is_complete());
        let m = exec.metrics();
        assert_eq!(m.runs_executed, specs.len() as u64);
        assert_eq!(
            m.per_worker_runs.iter().sum::<u64>(),
            specs.len() as u64,
            "every grid point must be credited to exactly one worker"
        );
        // Distinct points: every one is a miss, none a hit.
        assert_eq!(m.cache.misses, specs.len() as u64);
        assert_eq!(m.cache.hits_mem + m.cache.hits_disk, 0);
    }
}
