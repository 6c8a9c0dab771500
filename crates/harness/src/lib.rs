//! # spechpc-harness — SPEC-like run rules and experiment drivers
//!
//! Glues the substrates together: the [`runner`] executes one benchmark
//! configuration on one simulated cluster (node performance model →
//! per-rank MPI programs → discrete-event replay → counters, trace
//! breakdowns, power and energy), honouring the paper's methodology
//! (§3): warm-up steps with global synchronization before measurement,
//! repeated executions with min/max/avg statistics, compact pinning at
//! fixed base clock.
//!
//! [`experiments`] holds one driver per table/figure of the paper — the
//! per-experiment index lives in `DESIGN.md` and the measured-vs-paper
//! comparison in `EXPERIMENTS.md`.
//!
//! All drivers execute through the [`exec::Executor`]: runs are
//! memoized content-addressed by their [`cache::RunKey`] and experiment
//! grids are spread across host cores with deterministic (byte-stable)
//! result assembly. See `docs/ARCHITECTURE.md` for the full data flow.

pub mod api;
pub mod cache;
pub mod chaos;
pub mod epoll;
pub mod error;
pub mod exec;
pub mod experiments;
pub mod faultcfg;
pub mod fleet;
pub mod hash;
pub mod json;
pub mod obs;
pub mod plan;
pub mod report;
pub mod runner;
pub mod serve;
pub mod suite;

pub use api::{ApiError, RunRequest, RunResponse, SuiteRequest, SuiteResponse};
pub use cache::{CacheMetrics, RunCache, RunKey};
pub use chaos::{load_chaos_plan, parse_chaos_plan, ChaosPlan, ChaosProxy, ChaosShutdownHandle};
pub use error::HarnessError;
pub use exec::{ExecConfig, ExecMetrics, Executor, GridFailure, GridReport, RunSpec};
pub use fleet::{
    peer_fetcher, Coordinator, FleetConfig, FleetShutdownHandle, HashRing, WorkerRegistry,
};
pub use plan::{dispatch_plan, PlanJob, PlanRequest, PlanResponse, PlanVariant};
pub use runner::{RunConfig, RunResult, SimRunner};
pub use serve::{install_signal_handlers, ServeConfig, Server, ShutdownHandle};
pub use suite::{Suite, SuiteReport};
