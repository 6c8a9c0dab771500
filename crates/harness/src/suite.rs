//! Suite-level driver: run all nine benchmarks under SPEC-like rules.

use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::registry::all_benchmarks;
use spechpc_machine::cluster::ClusterSpec;

use crate::exec::{Executor, GridFailure, RunSpec};
use crate::report::{fmt, Table};
use crate::runner::RunResult;

/// One suite execution: a workload class at one process count.
#[derive(Debug, Clone)]
pub struct Suite {
    pub class: WorkloadClass,
    pub nranks: usize,
}

impl Suite {
    /// The paper's node-level configuration: tiny workloads on a full
    /// node of the given cluster.
    pub fn tiny_full_node(cluster: &ClusterSpec) -> Self {
        Suite {
            class: WorkloadClass::Tiny,
            nranks: cluster.node.cores(),
        }
    }

    /// The suite's grid points in Table 1 order: every benchmark that
    /// ships the workload class, at `nranks`.
    pub fn specs(&self) -> Vec<RunSpec> {
        all_benchmarks()
            .iter()
            .filter(|b| match self.class {
                WorkloadClass::Medium | WorkloadClass::Large => b.meta().supports_medium_large,
                _ => true,
            })
            .map(|b| RunSpec::new(b.meta().name, self.class, self.nranks))
            .collect()
    }

    /// Run every benchmark of the suite (skipping those that do not
    /// ship the requested workload class) through `exec`: all nine
    /// benchmarks execute as one concurrent batch, in Table 1 order.
    ///
    /// The suite always finishes: benchmarks that fail (e.g. under an
    /// injected fault plan) land in [`SuiteReport::failures`] while the
    /// survivors fill [`SuiteReport::results`].
    pub fn run_with(&self, exec: &Executor, cluster: &ClusterSpec) -> SuiteReport {
        let grid = exec.run_all(cluster, &self.specs());
        SuiteReport {
            cluster: cluster.name.clone(),
            class: self.class,
            results: grid.results.into_iter().flatten().collect(),
            failures: grid.failures,
        }
    }
}

/// Results of a full-suite run: the benchmarks that completed, in
/// Table 1 order, plus the per-benchmark failure report for those that
/// did not.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    pub cluster: String,
    pub class: WorkloadClass,
    pub results: Vec<RunResult>,
    pub failures: Vec<GridFailure>,
}

impl SuiteReport {
    /// Did every benchmark of the suite complete?
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn result(&self, benchmark: &str) -> Option<&RunResult> {
        self.results.iter().find(|r| r.benchmark == benchmark)
    }

    /// SPEC-style score against a reference run: the geometric mean of
    /// `reference_runtime / runtime` over the benchmarks present in
    /// both reports (SPEC's "base" metric, with the reference machine
    /// scoring 1.0). Returns `None` when the reports share no
    /// benchmarks.
    pub fn spec_score(&self, reference: &SuiteReport) -> Option<f64> {
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for r in &self.results {
            if let Some(refr) = reference.result(&r.benchmark) {
                if r.runtime_s > 0.0 && refr.runtime_s > 0.0 {
                    log_sum += (refr.runtime_s / r.runtime_s).ln();
                    n += 1;
                }
            }
        }
        (n > 0).then(|| (log_sum / n as f64).exp())
    }

    /// Render a per-benchmark summary table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("SPEChpc 2021 {} suite on {}", self.class, self.cluster),
            &[
                "benchmark",
                "ranks",
                "runtime [s]",
                "Gflop/s",
                "mem BW [GB/s]",
                "MPI [%]",
                "power [W]",
                "energy [kJ]",
            ],
        );
        for r in &self.results {
            t.row(vec![
                r.benchmark.clone(),
                r.nranks.to_string(),
                fmt(r.runtime_s),
                fmt(r.gflops()),
                fmt(r.counters.mem_bandwidth()),
                fmt(r.breakdown.mpi_fraction() * 100.0),
                fmt(r.power.total()),
                fmt(r.energy.total_j() / 1e3),
            ])
            .expect("suite row matches header");
        }
        let mut out = t.render();
        if !self.failures.is_empty() {
            out.push_str(&format!(
                "\n{} of {} benchmarks failed:\n",
                self.failures.len(),
                self.failures.len() + self.results.len()
            ));
            for f in &self.failures {
                out.push_str(&format!("  FAILED {}: {}\n", f.label, f.error));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use crate::runner::RunConfig;
    use spechpc_machine::presets;

    fn exec(config: RunConfig) -> Executor {
        Executor::new(config, ExecConfig::default())
    }

    #[test]
    fn tiny_suite_runs_all_nine_on_cluster_a() {
        let cluster = presets::cluster_a();
        let suite = Suite::tiny_full_node(&cluster);
        let report = suite.run_with(
            &exec(RunConfig::default().with_repetitions(1).with_trace(false)),
            &cluster,
        );
        assert!(report.is_complete());
        assert_eq!(report.results.len(), 9);
        for r in &report.results {
            assert!(r.runtime_s > 0.0, "{} has zero runtime", r.benchmark);
            assert!(r.power.total() > 0.0);
        }
        let text = report.render();
        assert!(text.contains("tealeaf"));
        assert!(text.contains("sph-exa"));
        assert!(!text.contains("FAILED"));
    }

    #[test]
    fn suite_degrades_to_partial_results_under_an_injected_crash() {
        use spechpc_simmpi::faults::{FaultEvent, FaultPlan};
        let cluster = presets::cluster_a();
        let suite = Suite::tiny_full_node(&cluster);
        // Crash a mid-grid rank immediately: every benchmark that
        // schedules rank 30 aborts with MPI-abort semantics, yet the
        // suite still renders the survivors and blames the rank.
        let report = suite.run_with(
            &exec(
                RunConfig::default()
                    .with_repetitions(1)
                    .with_trace(false)
                    .with_faults(FaultPlan {
                        seed: 11,
                        events: vec![FaultEvent::Crash {
                            rank: 30,
                            at_s: 0.0,
                        }],
                    }),
            ),
            &cluster,
        );
        assert!(!report.is_complete());
        assert_eq!(report.results.len() + report.failures.len(), 9);
        assert!(
            !report.failures.is_empty(),
            "a full-node suite schedules rank 30 somewhere"
        );
        for f in &report.failures {
            assert_eq!(f.error.failed_rank(), Some(30), "{}", f.error);
        }
        let text = report.render();
        assert!(text.contains("FAILED"), "{text}");
        assert!(text.contains("benchmarks failed"), "{text}");
    }

    #[test]
    fn spec_score_is_one_against_itself_and_favours_cluster_b() {
        let exec = exec(RunConfig::default().with_repetitions(1).with_trace(false));
        let a = presets::cluster_a();
        let b = presets::cluster_b();
        let ra = Suite::tiny_full_node(&a).run_with(&exec, &a);
        let rb = Suite::tiny_full_node(&b).run_with(&exec, &b);
        let self_score = ra.spec_score(&ra).unwrap();
        assert!((self_score - 1.0).abs() < 1e-12);
        let b_score = rb.spec_score(&ra).unwrap();
        // The geometric mean of the §4.1.2 acceleration factors
        // (1.0–2.05) lands around 1.4.
        assert!(
            (1.2..1.8).contains(&b_score),
            "ClusterB suite score {b_score}"
        );
    }

    #[test]
    fn medium_suite_skips_unsupported_codes() {
        let cluster = presets::cluster_b();
        let suite = Suite {
            class: WorkloadClass::Medium,
            nranks: cluster.node.cores(),
        };
        let report = suite.run_with(
            &exec(RunConfig::default().with_repetitions(1).with_trace(false)),
            &cluster,
        );
        // Six of nine ship medium/large workloads.
        assert_eq!(report.results.len(), 6);
        assert!(report.result("minisweep").is_none());
        assert!(report.result("soma").is_none());
        assert!(report.result("sph-exa").is_none());
    }
}
