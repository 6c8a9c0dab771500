//! # spechpc — SPEChpc 2021 performance & energy case-study reproduction
//!
//! Facade crate re-exporting the full framework built for reproducing
//! *"SPEChpc 2021 Benchmarks on Ice Lake and Sapphire Rapids Infiniband
//! Clusters: A Performance and Energy Case Study"* (SC'23 workshops):
//!
//! * [`machine`] — calibrated hardware models of the two clusters,
//! * [`simmpi`] — discrete-event MPI simulator + native thread comm,
//! * [`kernels`] — executable analogs of all nine suite benchmarks,
//! * [`power`] — RAPL-style power/energy models, Z-plots, race-to-idle,
//! * [`analysis`] — counters, speedup and scaling classifiers,
//! * [`harness`] — SPEC-like run rules and per-figure experiment drivers.
//!
//! ## Quickstart
//!
//! ```
//! use spechpc::prelude::*;
//!
//! let cluster = presets::cluster_a();
//! let runner = SimRunner::new(RunConfig::default()
//!     .with_repetitions(1)
//!     .with_trace(false));
//! let bench = benchmark_by_name("tealeaf").unwrap();
//! let r = runner.run(&cluster, &*bench, WorkloadClass::Tiny, 72).unwrap();
//! assert!(r.runtime_s > 0.0);
//! println!("tealeaf tiny on a {} node: {:.1} s, {:.0} GB/s, {:.0} W",
//!          r.cluster, r.runtime_s, r.counters.mem_bandwidth(),
//!          r.power.total());
//! ```

pub use spechpc_analysis as analysis;
pub use spechpc_harness as harness;
pub use spechpc_kernels as kernels;
pub use spechpc_machine as machine;
pub use spechpc_power as power;
pub use spechpc_simmpi as simmpi;

/// The common imports for working with the framework.
pub mod prelude {
    pub use spechpc_analysis::counters::CounterSample;
    pub use spechpc_analysis::scaling::{classify_scaling, ScalingCase, ScalingEvidence};
    pub use spechpc_analysis::speedup::{parallel_efficiency, SpeedupCurve};
    pub use spechpc_harness::api::{
        ApiError, RunRequest, RunResponse, SuiteRequest, SuiteResponse,
    };
    pub use spechpc_harness::cache::{RunCache, RunKey};
    pub use spechpc_harness::error::HarnessError;
    pub use spechpc_harness::exec::{ExecConfig, Executor, GridFailure, GridReport, RunSpec};
    pub use spechpc_harness::json::{parse_json, Json};
    pub use spechpc_harness::runner::{RunConfig, RunResult, SimRunner};
    pub use spechpc_harness::serve::{ServeConfig, Server, ShutdownHandle};
    pub use spechpc_harness::suite::{Suite, SuiteReport};
    pub use spechpc_kernels::common::benchmark::{Benchmark, Kernel};
    pub use spechpc_kernels::common::config::WorkloadClass;
    pub use spechpc_kernels::common::model::NodeModel;
    pub use spechpc_kernels::registry::{all_benchmarks, benchmark_by_name, BENCHMARK_NAMES};
    pub use spechpc_machine::cluster::ClusterSpec;
    pub use spechpc_machine::presets;
    pub use spechpc_power::energy::EnergyBreakdown;
    pub use spechpc_power::rapl::RaplModel;
    pub use spechpc_power::zplot::{ZPlot, ZPoint};
    pub use spechpc_simmpi::comm::{Comm, ReduceOp};
    pub use spechpc_simmpi::faults::{FaultEvent, FaultPlan, RankSet};
    pub use spechpc_simmpi::threadcomm::ThreadWorld;
    pub use spechpc_simmpi::trace::EventKind;
}
