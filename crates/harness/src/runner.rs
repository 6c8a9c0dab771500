//! The simulation runner: one benchmark × one cluster × one process
//! count → runtime, counters, MPI breakdown, power and energy.

use spechpc_analysis::counters::CounterSample;
use spechpc_kernels::common::benchmark::Benchmark;
use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::common::model::{ComputeTimes, NodeModel};
use spechpc_machine::cluster::ClusterSpec;
use spechpc_power::energy::{energy_to_solution, EnergyBreakdown};
use spechpc_power::rapl::{JobPower, PowerState, RaplModel};
use spechpc_simmpi::engine::{Engine, Prepass, SimConfig, SimError, SimResult, WarmupCut};
use spechpc_simmpi::faults::FaultPlan;
use spechpc_simmpi::netmodel::NetModel;
use spechpc_simmpi::profile::Profile;
use spechpc_simmpi::trace::{Breakdown, Timeline};

use crate::hash::fnv1a;

/// Busy fraction of a core spinning inside an MPI call (Intel MPI
/// busy-waits; §4.2.2 observes that minisweep's MPI waiting still draws
/// power, unlike lbm's memory-stalled slow execution).
const MPI_SPIN_UTILIZATION: f64 = 0.7;

/// Runner configuration, mirroring the paper's §3 methodology.
///
/// Marked `#[non_exhaustive]`: construct with [`RunConfig::default`]
/// plus the `with_*` builders, so new run-rule knobs stop being
/// breaking changes for downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunConfig {
    /// Warm-up steps before the measured region ("at least two warm-up
    /// time steps, including global synchronisation").
    pub warmup_steps: usize,
    /// Simulated measured steps (extrapolated to the full workload).
    pub measured_steps: usize,
    /// Repetitions for min/max/avg statistics.
    pub repetitions: usize,
    /// Record the full event timeline of the measured region. Off by
    /// default (timelines dominate memory on large sweeps); the Fig.-2
    /// inset and CSV-export paths request tracing explicitly.
    pub trace: bool,
    /// Seeded fault-injection plan applied to the simulated run
    /// ([`FaultPlan::none()`] by default — the engine's zero-cost off
    /// path). The warm-up is the prefix of the one simulated run, so
    /// the measured region subtracts the very draws the warm-up made;
    /// a crash inside the warm-up region fails the run like any other
    /// crash.
    pub faults: FaultPlan,
    /// Partition threads for the engine's scheduler
    /// ([`SimConfig::threads`]). `1` (the default) runs every rank on
    /// the calling thread; larger values partition the ranks across
    /// host threads. Results and error payloads are bit-identical at
    /// every value, so this is a pure throughput knob and is excluded
    /// from the result cache key.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_steps: 2,
            measured_steps: 3,
            repetitions: 3,
            trace: false,
            faults: FaultPlan::none(),
            threads: 1,
        }
    }
}

impl RunConfig {
    /// Builder: warm-up steps before the measured region.
    pub fn with_warmup_steps(mut self, steps: usize) -> Self {
        self.warmup_steps = steps;
        self
    }

    /// Builder: simulated measured steps.
    pub fn with_measured_steps(mut self, steps: usize) -> Self {
        self.measured_steps = steps;
        self
    }

    /// Builder: repetitions for min/max/avg statistics.
    pub fn with_repetitions(mut self, reps: usize) -> Self {
        self.repetitions = reps;
        self
    }

    /// Builder: record the full event timeline of the measured region.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: seeded fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: engine partition threads (see [`RunConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The outcome of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub benchmark: String,
    pub cluster: String,
    pub class: String,
    pub nranks: usize,
    pub nodes_used: usize,
    /// Wall-clock seconds per time step (mean over repetitions).
    pub step_seconds: f64,
    /// Min/max step seconds over repetitions.
    pub step_seconds_min: f64,
    pub step_seconds_max: f64,
    /// Extrapolated full-workload runtime (steps × step time).
    pub runtime_s: f64,
    /// Counter sample of the *full* workload.
    pub counters: CounterSample,
    /// MPI/compute breakdown of the measured region.
    pub breakdown: Breakdown,
    /// Power while running.
    pub power: JobPower,
    /// Energy of the full workload.
    pub energy: EnergyBreakdown,
    /// Timeline of the measured region (empty unless tracing enabled).
    pub timeline: Timeline,
    /// Observability profile of the measured region (warm-up prefix
    /// subtracted out) — the Fig.-2 ITAC analog, available without
    /// tracing.
    pub profile: Profile,
}

impl RunResult {
    /// Per-node memory bandwidth in GB/s (Fig. 5 b, e).
    pub fn mem_bandwidth_per_node(&self) -> f64 {
        self.counters.mem_bandwidth() / self.nodes_used as f64
    }

    /// Performance in Gflop/s.
    pub fn gflops(&self) -> f64 {
        self.counters.dp_gflops()
    }
}

/// Deterministic per-(run, repetition) runtime jitter of ±1 %,
/// modelling the system noise behind the paper's min/max bars.
fn jitter(benchmark: &str, nranks: usize, rep: usize) -> f64 {
    let h = fnv1a(
        benchmark
            .bytes()
            .chain(nranks.to_le_bytes())
            .chain(rep.to_le_bytes()),
    );
    1.0 + ((h % 2001) as f64 / 1000.0 - 1.0) * 0.01
}

/// The simulation runner.
pub struct SimRunner {
    pub config: RunConfig,
}

impl SimRunner {
    pub fn new(config: RunConfig) -> Self {
        SimRunner { config }
    }

    /// Run `benchmark` at `class` scale with `nranks` compactly pinned
    /// ranks on `cluster`.
    pub fn run(
        &self,
        cluster: &ClusterSpec,
        benchmark: &dyn Benchmark,
        class: WorkloadClass,
        nranks: usize,
    ) -> Result<RunResult, SimError> {
        self.run_cancellable(cluster, benchmark, class, nranks, None)
    }

    /// [`SimRunner::run`] with an optional cooperative cancellation
    /// token: when another thread sets the flag, the underlying engine
    /// aborts with [`SimError::Cancelled`] at the next op boundary.
    /// The executor's per-run timeout uses this to reclaim workers.
    pub fn run_cancellable(
        &self,
        cluster: &ClusterSpec,
        benchmark: &dyn Benchmark,
        class: WorkloadClass,
        nranks: usize,
        cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) -> Result<RunResult, SimError> {
        assert!(nranks > 0, "need at least one rank");
        let sig = benchmark.signature(class);
        let model = NodeModel::new(cluster, nranks);
        let ct = model.compute_times(&sig, &benchmark.penalties(class, nranks));
        let step_progs = benchmark.step_programs(class, &ct);
        assert_eq!(step_progs.len(), nranks);

        // One pass over `W×step + Barrier + M×step`, replayed from the
        // step template: the engine reports the state at the warm-up
        // barrier, which is what a run of the warm-up alone would end
        // in, so the measured region's time is the difference. Its
        // traffic is the step's, `M` times over.
        let step_prepass = Prepass::analyze(&step_progs)?;
        let sim_cfg = SimConfig::default()
            .with_trace(self.config.trace)
            .with_faults(self.config.faults.clone())
            .with_threads(self.config.threads);
        let mut engine = Engine::new(sim_cfg, NetModel::compact(cluster, nranks), step_progs);
        if let Some(c) = cancel {
            engine = engine.with_cancel(c);
        }
        let (full, cut) = engine.run_replayed(
            &step_prepass,
            self.config.warmup_steps,
            self.config.measured_steps,
        )?;
        Ok(self.result_from(benchmark, class, &model, &ct, &step_prepass, full, &cut))
    }

    /// The [`RunResult`] of `full`, an engine run of `benchmark`'s step
    /// template at `class` (with this runner's warm-up and measured
    /// steps) whose compute times `ct` come from `model` and whose
    /// prepass is `step`, measured from its warm-up state `cut`: the
    /// measured region's time is `full − cut`, and its message
    /// statistics are the step's, `measured_steps` times over.
    /// [`SimRunner::run`] is [`Engine::run_replayed`] followed by this
    /// step.
    #[allow(clippy::too_many_arguments)]
    pub fn result_from(
        &self,
        benchmark: &dyn Benchmark,
        class: WorkloadClass,
        model: &NodeModel,
        ct: &ComputeTimes,
        step: &Prepass,
        full: SimResult,
        cut: &WarmupCut,
    ) -> RunResult {
        let cluster = model.cluster();
        let nranks = model.nranks();
        let sig = benchmark.signature(class);
        let measured = (full.makespan - cut.finish).max(1e-12);
        let base_step = measured / self.config.measured_steps as f64;

        // Repetition statistics via the deterministic jitter model.
        let name = benchmark.meta().name;
        let steps: Vec<f64> = (0..self.config.repetitions.max(1))
            .map(|rep| base_step * jitter(name, nranks, rep))
            .collect();
        let step_mean = steps.iter().sum::<f64>() / steps.len() as f64;
        let step_min = steps.iter().copied().fold(f64::INFINITY, f64::min);
        let step_max = steps.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let runtime = step_mean * sig.steps as f64;

        // Counters: per-step resources × steps; runtime from the sim.
        let counters = CounterSample {
            runtime_s: runtime,
            dp_flops: sig.flops * sig.steps as f64,
            dp_avx_flops: sig.flops * sig.simd_fraction * sig.steps as f64,
            mem_bytes: ct.effective_mem_bytes * sig.steps as f64,
            l3_bytes: ct.effective_l3_bytes * sig.steps as f64,
            l2_bytes: ct.effective_l2_bytes * sig.steps as f64,
        };

        // Breakdown and phase split of the measured region: the warm-up
        // prefix's per-kind and per-phase times subtract out exactly.
        let breakdown = subtract_breakdown(&full.breakdown(), &cut.breakdown());
        let measured_steps = self.config.measured_steps as u64;
        let mut profile = step.traffic(measured_steps, cluster.interconnect.eager_threshold);
        profile.per_rank = full
            .profile
            .per_rank
            .iter()
            .zip(&cut.per_rank_phases)
            .map(|(all, warm)| all.saturating_sub(warm))
            .collect();

        // Power: compute-phase utilization from the node model, MPI
        // phases busy-wait at MPI_SPIN_UTILIZATION.
        let pinning = model.pinning().clone();
        let mut util = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let t_comp = ct.per_rank[r].min(step_mean);
            let t_mpi = (step_mean - t_comp).max(0.0);
            let u =
                (t_comp * ct.utilization[r] + t_mpi * MPI_SPIN_UTILIZATION) / step_mean.max(1e-30);
            util.push(u.clamp(0.0, 1.0));
        }
        let dram = model.dram_utilization(ct, step_mean);
        let rapl = RaplModel::new(cluster);
        let state = PowerState {
            heat: sig.heat,
            utilization: util,
            dram_utilization: dram,
        };
        let power = rapl.job_power(&pinning, &state);
        let energy = energy_to_solution(power, runtime);

        RunResult {
            benchmark: name.to_string(),
            cluster: cluster.name.clone(),
            class: class.to_string(),
            nranks,
            nodes_used: pinning.nodes_used(),
            step_seconds: step_mean,
            step_seconds_min: step_min,
            step_seconds_max: step_max,
            runtime_s: runtime,
            counters,
            breakdown,
            power,
            energy,
            timeline: full.timeline,
            profile,
        }
    }
}

/// Per-kind difference `full − warm` (the warm-up prefix's times are a
/// prefix of the full run's).
fn subtract_breakdown(full: &Breakdown, warm: &Breakdown) -> Breakdown {
    let mut b = Breakdown::default();
    for (kind, secs) in &full.seconds {
        let w = warm.seconds.get(kind).copied().unwrap_or(0.0);
        let d = (secs - w).max(0.0);
        if d > 0.0 {
            b.seconds.insert(*kind, d);
            b.total += d;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_kernels::registry::benchmark_by_name;
    use spechpc_machine::presets;

    fn runner() -> SimRunner {
        SimRunner::new(RunConfig::default())
    }

    #[test]
    fn tealeaf_tiny_runs_and_saturates() {
        let cluster = presets::cluster_a();
        let b = benchmark_by_name("tealeaf").unwrap();
        let r = runner();
        let t1 = r.run(&cluster, &*b, WorkloadClass::Tiny, 1).unwrap();
        let t6 = r.run(&cluster, &*b, WorkloadClass::Tiny, 6).unwrap();
        let t18 = r.run(&cluster, &*b, WorkloadClass::Tiny, 18).unwrap();
        let s6 = t1.step_seconds / t6.step_seconds;
        let s18 = t1.step_seconds / t18.step_seconds;
        assert!(s6 > 3.0, "speedup(6) = {s6}");
        assert!(s18 < 1.6 * s6, "no saturation: {s6} vs {s18}");
        // Memory-bound: the node draws a large share of the domain
        // bandwidth.
        let bw = t18.counters.mem_bandwidth();
        assert!(bw > 50.0, "memory bandwidth {bw} GB/s");
    }

    #[test]
    fn results_are_deterministic() {
        let cluster = presets::cluster_b();
        let b = benchmark_by_name("cloverleaf").unwrap();
        let r = runner();
        let a = r.run(&cluster, &*b, WorkloadClass::Tiny, 26).unwrap();
        let c = r.run(&cluster, &*b, WorkloadClass::Tiny, 26).unwrap();
        assert_eq!(a.step_seconds, c.step_seconds);
        assert_eq!(a.energy.total_j(), c.energy.total_j());
    }

    #[test]
    fn jitter_produces_min_max_spread() {
        let cluster = presets::cluster_a();
        let b = benchmark_by_name("lbm").unwrap();
        let r = runner();
        let res = r.run(&cluster, &*b, WorkloadClass::Tiny, 8).unwrap();
        assert!(res.step_seconds_min <= res.step_seconds);
        assert!(res.step_seconds_max >= res.step_seconds);
        assert!(res.step_seconds_max > res.step_seconds_min);
    }

    #[test]
    fn minisweep_59_collapses_with_recv_domination() {
        // The paper's §4.1.5 headline: 58 → 59 processes drops
        // performance by ~75 %, with MPI_Recv dominating.
        let cluster = presets::cluster_a();
        let b = benchmark_by_name("minisweep").unwrap();
        let r = runner();
        let t58 = r.run(&cluster, &*b, WorkloadClass::Tiny, 58).unwrap();
        let t59 = r.run(&cluster, &*b, WorkloadClass::Tiny, 59).unwrap();
        assert!(
            t59.step_seconds > 1.5 * t58.step_seconds,
            "no serialization collapse: {} vs {}",
            t58.step_seconds,
            t59.step_seconds
        );
        use spechpc_simmpi::trace::EventKind;
        assert_eq!(t59.breakdown.dominant_mpi(), Some(EventKind::Recv));
        assert!(
            t59.breakdown.fraction(EventKind::Recv) > 0.4,
            "Recv fraction {}",
            t59.breakdown.fraction(EventKind::Recv)
        );
    }

    #[test]
    fn power_between_baseline_and_tdp() {
        let cluster = presets::cluster_a();
        let r = runner();
        for name in ["soma", "sph-exa", "pot3d"] {
            let b = benchmark_by_name(name).unwrap();
            let res = r.run(&cluster, &*b, WorkloadClass::Tiny, 72).unwrap();
            let rapl = RaplModel::new(&cluster);
            assert!(res.power.package_w > rapl.baseline_power(1));
            assert!(res.power.package_w <= rapl.tdp(1) + 1e-9);
        }
    }

    #[test]
    fn multi_node_sweep_spans_nodes() {
        let cluster = presets::cluster_a();
        let b = benchmark_by_name("weather").unwrap();
        let r = SimRunner::new(RunConfig::default().with_trace(false));
        let res: Vec<RunResult> = [72, 144, 288]
            .iter()
            .map(|&n| r.run(&cluster, &*b, WorkloadClass::Small, n).unwrap())
            .collect();
        assert_eq!(res[0].nodes_used, 1);
        assert_eq!(res[1].nodes_used, 2);
        assert_eq!(res[2].nodes_used, 4);
        // Scaling reduces the step time.
        assert!(res[2].step_seconds < res[0].step_seconds);
    }
}
