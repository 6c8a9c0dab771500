//! Multi-node experiments on the *small* workloads: the paper's Fig. 5
//! (strong scaling, per-node bandwidth, aggregate data volume), Fig. 6
//! (power and energy scaling), the §5 communication-routine ranking,
//! the §5.1 scaling-case classification, the §5.1.2 soma anomaly and
//! the §5.1.3 cluster comparison.

use crate::error::HarnessError;
use spechpc_analysis::scaling::{classify_scaling, ScalingCase, ScalingEvidence};
use spechpc_analysis::speedup::SpeedupCurve;
use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::registry::all_benchmarks;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_machine::presets;
use spechpc_simmpi::trace::EventKind;

use crate::exec::{Executor, RunSpec};
use crate::report::{fmt, Table};
use crate::runner::RunResult;

/// One benchmark's multi-node sweep.
#[derive(Debug, Clone)]
pub struct MultiNodeSweep {
    pub benchmark: String,
    pub cluster: String,
    /// Results per node count (full nodes), ascending.
    pub results: Vec<RunResult>,
}

impl MultiNodeSweep {
    /// Speedup curve over node counts.
    pub fn curve(&self) -> SpeedupCurve {
        SpeedupCurve::new(
            self.results
                .iter()
                .map(|r| (r.nodes_used, r.step_seconds))
                .collect(),
        )
    }

    /// Memory data volume per step (bytes) per node count.
    pub fn mem_volume(&self) -> Vec<(usize, f64)> {
        self.results
            .iter()
            .map(|r| {
                let steps = r.runtime_s / r.step_seconds;
                (r.nodes_used, r.counters.mem_bytes / steps)
            })
            .collect()
    }

    /// The §5.1 evidence bundle for the scaling classifier.
    pub fn evidence(&self) -> ScalingEvidence {
        ScalingEvidence {
            curve: self.curve(),
            mem_volume: self.mem_volume(),
            comm_fraction: self
                .results
                .last()
                .map(|r| r.breakdown.mpi_fraction())
                .unwrap_or(0.0),
        }
    }
}

/// Fig. 5 (and the raw material for Fig. 6): the full small-suite
/// multi-node sweep on one cluster.
#[derive(Debug, Clone)]
pub struct Fig5 {
    pub cluster: String,
    pub node_counts: Vec<usize>,
    pub sweeps: Vec<MultiNodeSweep>,
}

/// Run the small-suite sweep over `node_counts` full nodes through
/// `exec`: the full 9-benchmark × node-count grid is dispatched as one
/// concurrent batch.
pub fn fig5_with(
    exec: &Executor,
    cluster: &ClusterSpec,
    node_counts: &[usize],
) -> Result<Fig5, HarnessError> {
    let cores = cluster.node.cores();
    let counts: Vec<usize> = node_counts.iter().map(|n| n * cores).collect();
    let benches = all_benchmarks();
    let specs: Vec<RunSpec> = benches
        .iter()
        .flat_map(|b| {
            counts
                .iter()
                .map(|&n| RunSpec::new(b.meta().name, WorkloadClass::Small, n))
        })
        .collect();
    let results = exec.run_all(cluster, &specs).into_results()?;
    let mut it = results.into_iter();
    let sweeps = benches
        .iter()
        .map(|b| MultiNodeSweep {
            benchmark: b.meta().name.to_string(),
            cluster: cluster.name.clone(),
            results: it.by_ref().take(counts.len()).collect(),
        })
        .collect();
    Ok(Fig5 {
        cluster: cluster.name.clone(),
        node_counts: node_counts.to_vec(),
        sweeps,
    })
}

impl Fig5 {
    pub fn sweep(&self, benchmark: &str) -> Option<&MultiNodeSweep> {
        self.sweeps.iter().find(|s| s.benchmark == benchmark)
    }

    /// Render the three panels of Fig. 5 as one table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Fig. 5 ({}) — small suite multi-node scaling", self.cluster),
            &[
                "benchmark",
                "nodes",
                "speedup",
                "per-node mem BW [GB/s]",
                "aggregate mem volume [GB/step]",
                "MPI [%]",
            ],
        );
        for s in &self.sweeps {
            let t1 = s.results.first().map(|r| r.step_seconds).unwrap_or(1.0);
            for r in &s.results {
                let steps = r.runtime_s / r.step_seconds;
                t.row(vec![
                    s.benchmark.clone(),
                    r.nodes_used.to_string(),
                    fmt(t1 / r.step_seconds),
                    fmt(r.mem_bandwidth_per_node()),
                    fmt(r.counters.mem_bytes / steps / 1e9),
                    fmt(r.breakdown.mpi_fraction() * 100.0),
                ])
                .expect("row matches header");
            }
        }
        t.render()
    }
}

/// The §5.1 scaling-case classification of the whole suite.
pub fn scaling_cases(f5: &Fig5) -> Vec<(String, ScalingCase)> {
    f5.sweeps
        .iter()
        .map(|s| (s.benchmark.clone(), classify_scaling(&s.evidence())))
        .collect()
}

/// §5 communication-routine ranking: total seconds spent per MPI kind,
/// summed over the suite at the largest node count.
pub fn comm_breakdown(f5: &Fig5) -> Vec<(String, EventKind, f64)> {
    let mut out = Vec::new();
    for s in &f5.sweeps {
        if let Some(r) = s.results.last() {
            for kind in EventKind::ALL {
                if kind.is_mpi() {
                    let frac = r.breakdown.fraction(kind);
                    if frac > 0.001 {
                        out.push((s.benchmark.clone(), kind, frac));
                    }
                }
            }
        }
    }
    out
}

/// Per-benchmark series: `(nodes, total power kW, total energy MJ)`.
pub type EnergySeries = Vec<(String, Vec<(usize, f64, f64)>)>;

/// Fig. 6: total power and energy vs. node count.
#[derive(Debug, Clone)]
pub struct Fig6 {
    pub cluster: String,
    pub series: EnergySeries,
}

pub fn fig6(f5: &Fig5) -> Fig6 {
    let series = f5
        .sweeps
        .iter()
        .map(|s| {
            let pts = s
                .results
                .iter()
                .map(|r| {
                    (
                        r.nodes_used,
                        r.power.total() / 1e3,
                        r.energy.total_j() / 1e6,
                    )
                })
                .collect();
            (s.benchmark.clone(), pts)
        })
        .collect();
    Fig6 {
        cluster: f5.cluster.clone(),
        series,
    }
}

impl Fig6 {
    /// Render the two panels of Fig. 6 as one table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Fig. 6 ({}) — small suite multi-node power and energy",
                self.cluster
            ),
            &[
                "benchmark",
                "nodes",
                "total power [kW]",
                "total energy [MJ]",
            ],
        );
        for (name, pts) in &self.series {
            for &(nodes, kw, mj) in pts {
                // Four decimals: most small-suite runs spend tens of kJ.
                t.row(vec![
                    name.clone(),
                    nodes.to_string(),
                    fmt(kw),
                    format!("{mj:.4}"),
                ])
                .expect("row matches header");
            }
        }
        t.render()
    }
}

/// The §5.1.2 soma-anomaly diagnostics.
#[derive(Debug, Clone)]
pub struct SomaAnomaly {
    /// (nodes, per-node memory bandwidth GB/s).
    pub per_node_bw: Vec<(usize, f64)>,
    /// (nodes, aggregate memory volume per step, bytes).
    pub volume: Vec<(usize, f64)>,
    /// Fraction of runtime in MPI_Allreduce at the largest count.
    pub allreduce_fraction: f64,
}

pub fn soma_anomaly(f5: &Fig5) -> Option<SomaAnomaly> {
    let s = f5.sweep("soma")?;
    Some(SomaAnomaly {
        per_node_bw: s
            .results
            .iter()
            .map(|r| (r.nodes_used, r.mem_bandwidth_per_node()))
            .collect(),
        volume: s.mem_volume(),
        allreduce_fraction: s
            .results
            .last()
            .map(|r| r.breakdown.fraction(EventKind::Allreduce))
            .unwrap_or(0.0),
    })
}

/// The node counts of Fig. 5 and Fig. 6 in `spechpc figures`: the
/// paper's 1–16 nodes (§5.1).
pub const FIG5_NODES: [usize; 5] = [1, 2, 4, 8, 16];

/// The `fig5` section, per cluster: Fig. 5, the §5.1 scaling cases,
/// the §5.1.2 soma series and the §5 routine ranking at the largest
/// node count.
pub fn render_fig5(exec: &Executor) -> Result<String, HarnessError> {
    let largest = FIG5_NODES[FIG5_NODES.len() - 1];
    let mut out = Vec::new();
    for cl in [presets::cluster_a(), presets::cluster_b()] {
        let f5 = fig5_with(exec, &cl, &FIG5_NODES)?;
        out.push(f5.render());
        out.push(format!("scaling cases ({}):", cl.name));
        for (n, c) in scaling_cases(&f5) {
            out.push(format!("  {n:<12} {c}"));
        }
        if let Some(soma) = soma_anomaly(&f5) {
            out.push(format!("§5.1.2 soma anomaly ({}):", cl.name));
            for ((n, bw), (_, vol)) in soma.per_node_bw.iter().zip(&soma.volume) {
                out.push(format!(
                    "  {n:>2} node(s): {bw:>5.0} GB/s per node, {:>6.1} GB aggregate per step",
                    vol / 1e9
                ));
            }
            out.push(format!(
                "  MPI_Allreduce share at {largest} nodes: {:.0} %",
                soma.allreduce_fraction * 100.0
            ));
        }
        let mut ranking = comm_breakdown(&f5);
        ranking.sort_by(|x, y| y.2.total_cmp(&x.2));
        out.push(format!(
            "§5 communication-routine ranking ({}, {largest} nodes):",
            cl.name
        ));
        for (bench, kind, frac) in ranking.iter().take(10) {
            out.push(format!(
                "  {bench:<12} {:<14} {:>5.1} %",
                kind.to_string(),
                frac * 100.0
            ));
        }
    }
    Ok(super::lines(out))
}

/// The `fig6` section: Fig. 6 of both clusters.
pub fn render_fig6(exec: &Executor) -> Result<String, HarnessError> {
    let mut out = Vec::new();
    for cl in [presets::cluster_a(), presets::cluster_b()] {
        out.push(fig6(&fig5_with(exec, &cl, &FIG5_NODES)?).render());
    }
    Ok(super::lines(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use crate::runner::RunConfig;
    use spechpc_machine::presets;

    fn exec() -> Executor {
        Executor::new(
            RunConfig::default().with_repetitions(1).with_trace(true),
            ExecConfig::default(),
        )
    }

    fn fig5(cluster: &ClusterSpec, node_counts: &[usize]) -> Fig5 {
        fig5_with(&exec(), cluster, node_counts).unwrap()
    }

    const NODES: [usize; 3] = [1, 2, 4];

    #[test]
    fn scaling_cases_match_the_paper_table() {
        // §5.1 (ClusterB): weather & pot3d case A; tealeaf case B;
        // hpgmgfv case C; cloverleaf case D; soma/lbm/sph-exa/minisweep
        // poor. The full node range sharpens the signals.
        let cluster = presets::cluster_b();
        let f5 = fig5(&cluster, &[1, 2, 4, 8]);
        let cases = scaling_cases(&f5);
        let get = |n: &str| cases.iter().find(|(b, _)| b == n).unwrap().1;
        assert_eq!(
            get("weather"),
            ScalingCase::A,
            "weather must be superlinear"
        );
        assert!(
            matches!(get("pot3d"), ScalingCase::A | ScalingCase::B),
            "pot3d: {:?}",
            get("pot3d")
        );
        assert!(
            matches!(get("cloverleaf"), ScalingCase::C | ScalingCase::D),
            "cloverleaf: {:?}",
            get("cloverleaf")
        );
        for name in ["soma", "minisweep"] {
            assert_eq!(get(name), ScalingCase::Poor, "{name} must scale poorly");
        }
        // sph-exa degrades through C at 8 nodes and collapses further
        // out (its imbalance grows as tiles shrink).
        assert!(
            matches!(get("sph-exa"), ScalingCase::C | ScalingCase::Poor),
            "sph-exa: {:?}",
            get("sph-exa")
        );
        // hpgmgfv: cache gain eaten by communication (case C).
        assert!(
            matches!(get("hpgmgfv"), ScalingCase::B | ScalingCase::C),
            "hpgmgfv: {:?}",
            get("hpgmgfv")
        );
    }

    #[test]
    fn soma_anomaly_reproduced() {
        // §5.1.2: per-node bandwidth *rises* with node count while
        // scaling stalls; aggregate volume grows ~linearly; Allreduce
        // dominates.
        let cluster = presets::cluster_a();
        let f5 = fig5(&cluster, &NODES);
        let a = soma_anomaly(&f5).unwrap();
        let bw1 = a.per_node_bw.first().unwrap().1;
        let bw_last = a.per_node_bw.last().unwrap().1;
        assert!(
            bw_last > 1.2 * bw1,
            "per-node bandwidth must rise: {bw1} → {bw_last}"
        );
        assert!(
            bw_last < 0.8 * cluster.node.saturated_mem_bandwidth(),
            "…but stay below saturation ({bw_last} GB/s)"
        );
        let v1 = a.volume.first().unwrap().1;
        let v_last = a.volume.last().unwrap().1;
        let nodes_ratio = NODES.last().unwrap() / NODES[0];
        let growth = v_last / v1;
        assert!(
            growth > 0.5 * nodes_ratio as f64,
            "aggregate volume must grow with nodes: ×{growth}"
        );
        assert!(
            a.allreduce_fraction > 0.2,
            "Allreduce fraction {}",
            a.allreduce_fraction
        );
    }

    #[test]
    fn tealeaf_energy_flat_poor_scalers_rising() {
        // §5.2: scalable codes (tealeaf) have ~constant energy over
        // node counts; poor scalers burn more.
        let cluster = presets::cluster_a();
        let f5 = fig5(&cluster, &NODES);
        let f6 = fig6(&f5);
        let series = |n: &str| &f6.series.iter().find(|(b, _)| b == n).unwrap().1;
        let tealeaf = series("tealeaf");
        let e_ratio = tealeaf.last().unwrap().2 / tealeaf[0].2;
        assert!(
            (0.7..1.4).contains(&e_ratio),
            "tealeaf energy must stay ~constant: ×{e_ratio}"
        );
        let soma = series("soma");
        let soma_ratio = soma.last().unwrap().2 / soma[0].2;
        assert!(soma_ratio > 1.5, "soma energy must rise: ×{soma_ratio}");
    }

    #[test]
    fn fig6_renders_one_row_per_benchmark_and_node_count() {
        let f6 = Fig6 {
            cluster: "ClusterA".into(),
            series: vec![
                ("lbm".into(), vec![(1, 0.5123, 1.66118), (2, 1.0412, 1.25)]),
                ("soma".into(), vec![(1, 0.4877, 0.018749)]),
            ],
        };
        assert_eq!(
            f6.render(),
            "## Fig. 6 (ClusterA) — small suite multi-node power and energy\n\
             | benchmark | nodes | total power [kW] | total energy [MJ] |\n\
             |-----------|-------|------------------|-------------------|\n\
             | lbm       | 1     | 0.51             | 1.6612            |\n\
             | lbm       | 2     | 1.04             | 1.2500            |\n\
             | soma      | 1     | 0.49             | 0.0187            |\n"
        );
    }

    #[test]
    fn power_fraction_of_tdp_in_paper_band() {
        // §5.2: 74–85 % of CPU TDP on ClusterA at the full node set.
        let cluster = presets::cluster_a();
        let f5 = fig5(&cluster, &[4]);
        for s in &f5.sweeps {
            let r = s.results.last().unwrap();
            let tdp = cluster.node.tdp() * r.nodes_used as f64;
            let frac = r.power.package_w / tdp;
            assert!(
                (0.50..1.0).contains(&frac),
                "{}: package power fraction {frac}",
                s.benchmark
            );
        }
    }

    #[test]
    fn weather_superlinear_stronger_on_cluster_b() {
        // §5.1.3: weather's superlinear multi-node scaling is stronger
        // on ClusterB (larger caches). Weather-only sweep to 8 nodes,
        // where the cache fit fully engages on ClusterB.
        let exec = exec();
        let eff = |cluster: &ClusterSpec| {
            let specs: Vec<RunSpec> = [1, 4, 8]
                .iter()
                .map(|n| RunSpec::new("weather", WorkloadClass::Small, n * cluster.node.cores()))
                .collect();
            let res = exec.run_all(cluster, &specs).into_results().unwrap();
            (res[0].step_seconds / res[2].step_seconds) / 8.0
        };
        let ea = eff(&presets::cluster_a());
        let eb = eff(&presets::cluster_b());
        assert!(eb > ea, "weather: effB {eb} must exceed effA {ea}");
        assert!(eb > 1.08, "weather on B must be superlinear: {eb}");
    }

    #[test]
    fn comm_ranking_includes_the_reduction_codes() {
        let cluster = presets::cluster_a();
        let f5 = fig5(&cluster, &[1, 4]);
        let ranking = comm_breakdown(&f5);
        // soma leads the Allreduce users (§5).
        let soma_allred = ranking
            .iter()
            .find(|(b, k, _)| b == "soma" && *k == EventKind::Allreduce)
            .map(|(_, _, f)| *f)
            .unwrap_or(0.0);
        assert!(soma_allred > 0.1, "soma Allreduce share {soma_allred}");
        // lbm's barrier appears.
        assert!(
            ranking
                .iter()
                .any(|(b, k, _)| b == "lbm" && *k == EventKind::Barrier),
            "lbm barrier missing from the ranking"
        );
    }
}
