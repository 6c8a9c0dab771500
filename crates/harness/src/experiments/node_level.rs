//! Node-level experiments: the paper's Fig. 1, Fig. 2 and the §4.1.1
//! (parallel efficiency), §4.1.2 (acceleration factors) and §4.1.3
//! (vectorization ratios) tables, using the *tiny* workloads.

use crate::error::HarnessError;
use spechpc_analysis::speedup::{parallel_efficiency, SpeedupCurve};
use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::registry::all_benchmarks;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_machine::presets;
use spechpc_simmpi::trace::EventKind;

use crate::exec::{Executor, RunSpec};
use crate::report::{fmt, Table};
use crate::runner::RunResult;

/// One benchmark's node-level sweep on one cluster.
#[derive(Debug, Clone)]
pub struct NodeSweep {
    pub benchmark: String,
    pub cluster: String,
    /// Results per process count, ascending.
    pub results: Vec<RunResult>,
}

impl NodeSweep {
    /// Speedup curve (runtime per step vs. process count).
    pub fn curve(&self) -> SpeedupCurve {
        SpeedupCurve::new(
            self.results
                .iter()
                .map(|r| (r.nranks, r.step_seconds))
                .collect(),
        )
    }

    /// Result at an exact process count.
    pub fn at(&self, nranks: usize) -> Option<&RunResult> {
        self.results.iter().find(|r| r.nranks == nranks)
    }
}

/// Fig. 1: speedup and DP / DP-AVX performance vs. core count for the
/// whole suite on one cluster.
#[derive(Debug, Clone)]
pub struct Fig1 {
    pub cluster: String,
    pub sweeps: Vec<NodeSweep>,
}

/// Process counts to sweep: every `step`-th count from 1 to the full
/// node, plus the domain boundaries.
pub fn sweep_counts(cluster: &ClusterSpec, step: usize) -> Vec<usize> {
    let cores = cluster.node.cores();
    let domain = cluster.node.cores_per_domain();
    let mut v: Vec<usize> = (1..=cores).step_by(step.max(1)).collect();
    for d in 1..=cluster.node.numa_domains() {
        v.push(d * domain);
    }
    v.push(1);
    v.sort_unstable();
    v.dedup();
    v
}

/// Run the Fig. 1 sweep through `exec` (`step` controls the sampling
/// density; the paper uses every core count, i.e. `step = 1`): the
/// whole 9-benchmark × rank-count grid is dispatched as one batch, so
/// every point runs concurrently (and cached points are free).
pub fn fig1_with(
    exec: &Executor,
    cluster: &ClusterSpec,
    step: usize,
) -> Result<Fig1, HarnessError> {
    let counts = sweep_counts(cluster, step);
    let benches = all_benchmarks();
    let specs: Vec<RunSpec> = benches
        .iter()
        .flat_map(|b| {
            counts
                .iter()
                .map(|&n| RunSpec::new(b.meta().name, WorkloadClass::Tiny, n))
        })
        .collect();
    let results = exec.run_all(cluster, &specs).into_results()?;
    let mut it = results.into_iter();
    let sweeps = benches
        .iter()
        .map(|b| NodeSweep {
            benchmark: b.meta().name.to_string(),
            cluster: cluster.name.clone(),
            results: it.by_ref().take(counts.len()).collect(),
        })
        .collect();
    Ok(Fig1 {
        cluster: cluster.name.clone(),
        sweeps,
    })
}

/// The §4.1.1 parallel-efficiency table: speedup percentage from one
/// ccNUMA domain to the full node, per benchmark.
pub fn efficiency_table(fig1: &Fig1, cluster: &ClusterSpec) -> Vec<(String, f64)> {
    let domain = cluster.node.cores_per_domain();
    let cores = cluster.node.cores();
    fig1.sweeps
        .iter()
        .map(|s| {
            let eff = parallel_efficiency(&s.curve(), domain, cores)
                .expect("sweep must contain the domain and node counts");
            (s.benchmark.clone(), eff)
        })
        .collect()
}

/// The §4.1.2 acceleration-factor table: full-node ClusterB over
/// ClusterA runtime ratio per benchmark.
pub fn acceleration_table(fig1_a: &Fig1, fig1_b: &Fig1) -> Vec<(String, f64)> {
    fig1_a
        .sweeps
        .iter()
        .zip(&fig1_b.sweeps)
        .map(|(a, b)| {
            let ta = a.results.last().expect("non-empty").step_seconds;
            let tb = b.results.last().expect("non-empty").step_seconds;
            (a.benchmark.clone(), ta / tb)
        })
        .collect()
}

/// The §4.1.3 vectorization-ratio table (% of flops executed with
/// AVX-512), per benchmark. Identical on both clusters by construction
/// (the paper measures near-identical ratios too).
pub fn vectorization_table(fig1: &Fig1) -> Vec<(String, f64)> {
    fig1.sweeps
        .iter()
        .map(|s| {
            let r = s.results.last().expect("non-empty");
            (
                s.benchmark.clone(),
                100.0 * r.counters.vectorization_ratio(),
            )
        })
        .collect()
}

/// Fig. 2 data: per-benchmark memory/L3/L2 bandwidths and data volumes
/// vs. core count (reuses the Fig. 1 sweeps), plus the two ITAC insets.
#[derive(Debug, Clone)]
pub struct Fig2 {
    pub cluster: String,
    pub sweeps: Vec<NodeSweep>,
    /// ASCII timeline of minisweep at 59 processes (inset of Fig. 2 g).
    pub minisweep_inset: String,
    /// Breakdown fractions of the minisweep@59 run.
    pub minisweep_59: InsetStats,
    /// ASCII timeline of lbm at (cores − 1) processes (inset of
    /// Fig. 2 h).
    pub lbm_inset: String,
    pub lbm_odd: InsetStats,
}

/// Key numbers of an inset run.
#[derive(Debug, Clone, Copy)]
pub struct InsetStats {
    pub nranks: usize,
    pub step_seconds: f64,
    pub recv_fraction: f64,
    pub wait_fraction: f64,
    pub barrier_fraction: f64,
    pub compute_fraction: f64,
    pub dominant: Option<EventKind>,
}

/// Run Fig. 2 through `exec`: bandwidth/volume curves plus the two
/// pathology insets. The insets need full event timelines, so those
/// two runs go through [`Executor::run_traced`] (uncached); the
/// bandwidth curves reuse the Fig. 1 grid.
pub fn fig2_with(
    exec: &Executor,
    cluster: &ClusterSpec,
    step: usize,
) -> Result<Fig2, HarnessError> {
    let f1 = fig1_with(exec, cluster, step)?;

    let ms59 = exec.run_traced(cluster, &RunSpec::new("minisweep", WorkloadClass::Tiny, 59))?;
    let odd = cluster.node.cores() - 1;
    let lbm_odd = exec.run_traced(cluster, &RunSpec::new("lbm", WorkloadClass::Tiny, odd))?;

    let stats = |r: &RunResult| InsetStats {
        nranks: r.nranks,
        step_seconds: r.step_seconds,
        recv_fraction: r.breakdown.fraction(EventKind::Recv),
        wait_fraction: r.breakdown.fraction(EventKind::Wait),
        barrier_fraction: r.breakdown.fraction(EventKind::Barrier),
        compute_fraction: r.breakdown.fraction(EventKind::Compute),
        dominant: r.breakdown.dominant_mpi(),
    };

    Ok(Fig2 {
        cluster: cluster.name.clone(),
        minisweep_inset: ms59.timeline.render_ascii(100),
        minisweep_59: stats(&ms59),
        lbm_inset: lbm_odd.timeline.render_ascii(100),
        lbm_odd: stats(&lbm_odd),
        sweeps: f1.sweeps,
    })
}

impl Fig2 {
    /// Render the bandwidth/volume panels.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Fig. 2 ({}) — bandwidth and data volume vs. cores",
                self.cluster
            ),
            &[
                "benchmark",
                "n",
                "mem BW [GB/s]",
                "L3 BW [GB/s]",
                "L2 BW [GB/s]",
                "mem vol [GB/step]",
                "L2 vol [GB/step]",
            ],
        );
        for s in &self.sweeps {
            for r in &s.results {
                let per_step = |total: f64| total / (r.runtime_s / r.step_seconds);
                t.row(vec![
                    s.benchmark.clone(),
                    r.nranks.to_string(),
                    fmt(r.counters.mem_bandwidth()),
                    fmt(r.counters.l3_bandwidth()),
                    fmt(r.counters.l2_bandwidth()),
                    fmt(per_step(r.counters.mem_bytes) / 1e9),
                    fmt(per_step(r.counters.l2_bytes) / 1e9),
                ])
                .expect("row matches header");
            }
        }
        t.render()
    }
}

/// The core-count stride of the Fig. 1 grid in `spechpc figures`
/// (the paper samples every count).
pub const FIG1_STEP: usize = 8;

/// The core-count stride of Fig. 2's bandwidth panels.
pub const FIG2_STEP: usize = 24;

/// The `fig1` section: the §4.1.1–4.1.3 tables of both clusters.
pub fn render_fig1(exec: &Executor) -> Result<String, HarnessError> {
    let (a, b) = (presets::cluster_a(), presets::cluster_b());
    let f1a = fig1_with(exec, &a, FIG1_STEP)?;
    let f1b = fig1_with(exec, &b, FIG1_STEP)?;
    let mut out = vec!["== §4.1.1 parallel efficiency [%] ==".to_string()];
    for ((n, x), (_, y)) in efficiency_table(&f1a, &a)
        .iter()
        .zip(&efficiency_table(&f1b, &b))
    {
        out.push(format!("{n:<12} A {x:>5.0}  B {y:>5.0}"));
    }
    out.push("== §4.1.2 acceleration B/A ==".into());
    for (n, x) in acceleration_table(&f1a, &f1b) {
        out.push(format!("{n:<12} {x:>5.2}"));
    }
    out.push("== §4.1.3 vectorization [%] ==".into());
    for (n, x) in vectorization_table(&f1a) {
        out.push(format!("{n:<12} {x:>5.1}"));
    }
    Ok(super::lines(out))
}

/// The `fig2` section: ClusterA's bandwidth and volume panels, the
/// memory bandwidth of one full ccNUMA domain on both clusters, then
/// each ClusterA inset against its neighbouring count (minisweep at 58
/// processes, lbm at the full node) with the first rows of its
/// timeline.
pub fn render_fig2(exec: &Executor) -> Result<String, HarnessError> {
    let a = presets::cluster_a();
    let f2 = fig2_with(exec, &a, FIG2_STEP)?;
    let (ms, lb) = (f2.minisweep_59, f2.lbm_odd);
    let against = |name: &str, inset: &InsetStats, n| -> Result<String, HarnessError> {
        let t = exec
            .run_one(&a, &RunSpec::new(name, WorkloadClass::Tiny, n))?
            .step_seconds;
        Ok(format!(
            "{:.3} s/step against {t:.3} at {n} processes (×{:.2}, performance {:+.0} %)",
            inset.step_seconds,
            inset.step_seconds / t,
            100.0 * (t / inset.step_seconds - 1.0)
        ))
    };
    let plateau = |cl: &ClusterSpec| -> Result<String, HarnessError> {
        let n = cl.node.cores_per_domain();
        let mut bw = Vec::new();
        for name in ["pot3d", "tealeaf", "cloverleaf"] {
            let r = exec.run_one(cl, &RunSpec::new(name, WorkloadClass::Tiny, n))?;
            bw.push(format!("{name} {:.1}", r.counters.mem_bandwidth()));
        }
        Ok(format!(
            "memory bandwidth of one full ccNUMA domain ({}, {n} cores): {} GB/s",
            cl.name,
            bw.join(", ")
        ))
    };
    let head = |timeline: &str, rows: usize, of: usize| {
        let mut text = format!(
            "  first {rows} of {of} ranks (# compute, r MPI_Recv, s MPI_Send, \
             w MPI_Wait, B MPI_Barrier):"
        );
        for row in timeline.lines().take(rows) {
            text.push_str("\n  ");
            text.push_str(row);
        }
        text
    };
    let pct = |x: f64| x * 100.0;
    Ok(super::lines(vec![
        format!(
            "Fig. 2 insets: minisweep@59 Recv {:.0} %, lbm@{} wait+barrier {:.0} %",
            pct(ms.recv_fraction),
            lb.nranks,
            pct(lb.wait_fraction + lb.barrier_fraction)
        ),
        f2.render(),
        plateau(&a)?,
        plateau(&presets::cluster_b())?,
        format!(
            "minisweep@59: {}; {:.0} % MPI_Recv, {:.0} % compute (dominant: {})",
            against("minisweep", &ms, 58)?,
            pct(ms.recv_fraction),
            pct(ms.compute_fraction),
            ms.dominant.map_or("none".into(), |k| k.to_string())
        ),
        head(&f2.minisweep_inset, 16, ms.nranks),
        format!(
            "lbm@{}: {}; {:.0} % compute, {:.0} % wait+barrier",
            lb.nranks,
            against("lbm", &lb, a.node.cores())?,
            pct(lb.compute_fraction),
            pct(lb.wait_fraction + lb.barrier_fraction)
        ),
        head(&f2.lbm_inset, 12, lb.nranks),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use crate::runner::RunConfig;
    use spechpc_machine::presets;

    fn exec() -> Executor {
        Executor::new(
            RunConfig::default().with_repetitions(3).with_trace(false),
            ExecConfig::default(),
        )
    }

    #[test]
    fn efficiency_table_matches_paper_shape() {
        // Paper §4.1.1 (ClusterA): tealeaf/pot3d ≈ 100 %, cloverleaf 98,
        // hpgmgfv 95, minisweep 73, soma 93, sph-exa 80.
        let cluster = presets::cluster_a();
        let f1 = fig1_with(&exec(), &cluster, 17).unwrap();
        let eff = efficiency_table(&f1, &cluster);
        let get = |n: &str| eff.iter().find(|(b, _)| b == n).unwrap().1;
        for name in ["tealeaf", "pot3d", "cloverleaf", "hpgmgfv"] {
            let e = get(name);
            assert!((94.0..112.0).contains(&e), "{name}: efficiency {e}");
        }
        assert!(get("minisweep") < 85.0, "minisweep must scale poorly");
        assert!(get("sph-exa") < 95.0, "sph-exa must lose efficiency");
        // The saturating codes are the most efficient across domains.
        assert!(get("tealeaf") > get("minisweep"));
    }

    #[test]
    fn acceleration_factors_match_paper_shape() {
        // §4.1.2: memory-bound codes accelerate 1.57–1.66; lbm ≈ 1.21;
        // weather tops the suite at ≈ 2.03.
        let a = presets::cluster_a();
        let b = presets::cluster_b();
        let exec = exec();
        let f1a = fig1_with(&exec, &a, 71).unwrap();
        let f1b = fig1_with(&exec, &b, 103).unwrap();
        let acc = acceleration_table(&f1a, &f1b);
        let get = |n: &str| acc.iter().find(|(x, _)| x == n).unwrap().1;
        for name in ["tealeaf", "cloverleaf", "pot3d", "hpgmgfv"] {
            let x = get(name);
            assert!((1.4..1.8).contains(&x), "{name}: acceleration {x}");
        }
        let lbm = get("lbm");
        assert!((1.1..1.4).contains(&lbm), "lbm acceleration {lbm}");
        let w = get("weather");
        assert!(w > 1.7, "weather must top the suite: {w}");
        // Ordering: weather > memory-bound > lbm.
        assert!(w > get("tealeaf"));
        assert!(get("tealeaf") > lbm);
    }

    #[test]
    fn vectorization_table_matches_paper_shape() {
        // §4.1.3: cloverleaf/pot3d/lbm highest; tealeaf and soma lowest.
        let cluster = presets::cluster_a();
        let f1 = fig1_with(&exec(), &cluster, 71).unwrap();
        let v = vectorization_table(&f1);
        let get = |n: &str| v.iter().find(|(x, _)| x == n).unwrap().1;
        assert!(get("pot3d") > 90.0);
        assert!(get("cloverleaf") > 90.0);
        assert!(get("lbm") > 90.0);
        assert!(get("tealeaf") < 15.0);
        assert!(get("soma") < 15.0);
    }

    #[test]
    fn fig2_insets_show_the_pathologies() {
        let cluster = presets::cluster_a();
        let f2 = fig2_with(&exec(), &cluster, 71).unwrap();
        // minisweep@59: MPI_Recv dominates (paper: 75 %).
        assert_eq!(f2.minisweep_59.dominant, Some(EventKind::Recv));
        assert!(
            f2.minisweep_59.recv_fraction > 0.4,
            "Recv fraction {}",
            f2.minisweep_59.recv_fraction
        );
        // lbm@71: the slow rank makes the others wait (Wait/Barrier).
        let lbm_wait = f2.lbm_odd.wait_fraction + f2.lbm_odd.barrier_fraction;
        assert!(lbm_wait > 0.02, "lbm waiting fraction {lbm_wait}");
        // Timelines render non-trivially.
        assert!(f2.minisweep_inset.lines().count() == 59);
        assert!(f2.lbm_inset.lines().count() == 71);
    }

    #[test]
    fn sweep_counts_cover_domain_boundaries() {
        let cluster = presets::cluster_a();
        let c = sweep_counts(&cluster, 10);
        assert!(c.contains(&1));
        assert!(c.contains(&18));
        assert!(c.contains(&36));
        assert!(c.contains(&54));
        assert!(c.contains(&72));
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }
}
