//! Power and energy experiments: the paper's Fig. 3 (CPU and DRAM
//! power), Fig. 4 (Z-plots and total energy), the §4.2.1 hot/cool table,
//! the §4.2.3 baseline-power comparison and the §4.3 energy verdicts —
//! all on the *tiny* suite.

use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::registry::all_benchmarks;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_machine::node::NodeSpec;
use spechpc_machine::presets;
use spechpc_power::classify::{classify_heat, HeatClass};
use spechpc_power::race::{analyze, concurrency_sweep, saturating_speedup};
use spechpc_power::zplot::{ZPlot, ZPoint};

use crate::error::HarnessError;
use crate::exec::Executor;
use crate::experiments::node_level::{fig1_with, Fig1, FIG1_STEP};
use crate::report::{fmt, Table};

/// Per-benchmark domain series: `(n, speedup, package W, DRAM W)` for
/// n within the first ccNUMA domain.
pub type DomainPowerSeries = Vec<(String, Vec<(usize, f64, f64, f64)>)>;

/// Per-benchmark node series: `(n, package W, DRAM W)` across the full
/// node.
pub type NodePowerSeries = Vec<(String, Vec<(usize, f64, f64)>)>;

/// Fig. 3 data: power vs. speedup on one ccNUMA domain (a/c) and power
/// vs. process count on the full node (b/d).
#[derive(Debug, Clone)]
pub struct Fig3 {
    pub cluster: String,
    pub domain_series: DomainPowerSeries,
    pub node_series: NodePowerSeries,
    /// Zero-core extrapolated baseline per socket (the dotted line of
    /// Fig. 3 a/c).
    pub extrapolated_baseline_w: f64,
}

/// Derive Fig. 3 from a Fig. 1 sweep.
pub fn fig3(f1: &Fig1, cluster: &ClusterSpec) -> Fig3 {
    let domain = cluster.node.cores_per_domain();
    let mut domain_series = Vec::new();
    let mut node_series = Vec::new();
    for s in &f1.sweeps {
        let t1 = s.results.first().map(|r| r.step_seconds).unwrap_or(1.0);
        let d: Vec<(usize, f64, f64, f64)> = s
            .results
            .iter()
            .filter(|r| r.nranks <= domain)
            .map(|r| {
                (
                    r.nranks,
                    t1 / r.step_seconds,
                    r.power.package_w,
                    r.power.dram_w,
                )
            })
            .collect();
        let n: Vec<(usize, f64, f64)> = s
            .results
            .iter()
            .map(|r| (r.nranks, r.power.package_w, r.power.dram_w))
            .collect();
        domain_series.push((s.benchmark.clone(), d));
        node_series.push((s.benchmark.clone(), n));
    }
    // Zero-core extrapolation: linear fit through the first two domain
    // points, evaluated at n = 0 (per active socket — subtract the idle
    // second socket's baseline).
    let idle_socket = cluster.node.cpu.baseline_power_w;
    let extrapolated = domain_series
        .first()
        .and_then(|(_, d)| {
            if d.len() < 2 {
                return None;
            }
            let (n0, _, p0, _) = d[0];
            let (n1, _, p1, _) = d[1];
            let slope = (p1 - p0) / (n1 as f64 - n0 as f64);
            Some(p0 - slope * n0 as f64 - idle_socket)
        })
        .unwrap_or(idle_socket);
    Fig3 {
        cluster: f1.cluster.clone(),
        domain_series,
        node_series,
        extrapolated_baseline_w: extrapolated,
    }
}

/// Fig. 4 data: Z-plots (energy vs. speedup, cores as parameter) per
/// benchmark, plus total node energy vs. process count.
#[derive(Debug, Clone)]
pub struct Fig4 {
    pub cluster: String,
    pub zplots: Vec<ZPlot>,
}

/// Derive Fig. 4 from a Fig. 1 sweep. Energies are normalized to the
/// full tiny workload.
pub fn fig4(f1: &Fig1) -> Fig4 {
    let mut zplots = Vec::new();
    for s in &f1.sweeps {
        let t1 = s.results.first().map(|r| r.step_seconds).unwrap_or(1.0);
        let mut z = ZPlot::new(format!("{} ({})", s.benchmark, f1.cluster));
        for r in &s.results {
            z.push(ZPoint {
                resources: r.nranks,
                speedup: t1 / r.step_seconds,
                energy_j: r.energy.total_j(),
                runtime_s: r.runtime_s,
            });
        }
        zplots.push(z);
    }
    Fig4 {
        cluster: f1.cluster.clone(),
        zplots,
    }
}

/// The §4.2.1 hot/cool table: fraction of socket TDP per benchmark at
/// the full node.
pub fn hot_cool_table(f1: &Fig1, cluster: &ClusterSpec) -> Vec<(String, f64, f64)> {
    let tdp = cluster.node.tdp();
    f1.sweeps
        .iter()
        .map(|s| {
            let r = s.results.last().expect("non-empty sweep");
            let frac = r.power.package_w / tdp;
            (s.benchmark.clone(), r.power.package_w / 2.0, frac)
        })
        .collect()
}

/// The §4.2.3 baseline-power comparison across CPU generations.
pub fn baseline_table(nodes: &[&NodeSpec]) -> Table {
    let mut t = Table::new(
        "§4.2.3 — extrapolated zero-core baseline power across CPU generations",
        &["node", "TDP [W]", "baseline [W]", "baseline/TDP [%]"],
    );
    for n in nodes {
        t.row(vec![
            n.cpu.model.clone(),
            fmt(n.cpu.tdp_w),
            fmt(n.cpu.baseline_power_w),
            fmt(100.0 * n.cpu.baseline_power_w / n.cpu.tdp_w),
        ])
        .expect("row matches header");
    }
    t
}

/// The `fig3`/`fig4` section: Fig. 3 and the §4.2.1 hot/cool split of
/// both clusters with their E/EDP minima, the heat classes and DRAM
/// power per domain, the §4.2.3 baselines, pot3d's Z-plot on
/// ClusterA, the §4.3.1 race-to-idle verdicts and the §4.3.2
/// energy-parity line.
pub fn render(exec: &Executor) -> Result<String, HarnessError> {
    let (a, b) = (presets::cluster_a(), presets::cluster_b());
    let sb = presets::sandy_bridge_node();
    let f1a = fig1_with(exec, &a, FIG1_STEP)?;
    let f1b = fig1_with(exec, &b, FIG1_STEP)?;
    let mut out = Vec::new();
    for (cl, f1) in [(&a, &f1a), (&b, &f1b)] {
        out.push(format!(
            "Fig. 3 ({}): extrapolated baseline {:.0} W/socket",
            cl.name,
            fig3(f1, cl).extrapolated_baseline_w
        ));
        for (name, w, frac) in hot_cool_table(f1, cl) {
            out.push(format!(
                "  {name:<12} {w:>5.0} W/socket ({:.0} % TDP)",
                frac * 100.0
            ));
        }
        for z in &fig4(f1).zplots {
            out.push(format!(
                "  {:<24} E/EDP minima separation: {} step(s)",
                z.label,
                z.min_separation_steps().unwrap_or(0)
            ));
        }
    }

    let mut heat = Table::new(
        "§4.2.1 — calibrated heat class and DRAM power per ccNUMA domain at the full node",
        &[
            "benchmark",
            "heat class A",
            "heat class B",
            "DRAM A [W/domain]",
            "DRAM B [W/domain]",
        ],
    );
    let class = |cl: &ClusterSpec, h| match classify_heat(&cl.node.cpu, h) {
        HeatClass::Hot => "hot",
        HeatClass::Warm => "warm",
        HeatClass::Cool => "cool",
    };
    let dram = |f1: &Fig1, i: usize, cl: &ClusterSpec| {
        let r = f1.sweeps[i].results.last().expect("non-empty sweep");
        fmt(r.power.dram_w / cl.node.numa_domains() as f64)
    };
    for (i, bench) in all_benchmarks().iter().enumerate() {
        let h = bench.signature(WorkloadClass::Tiny).heat;
        heat.row(vec![
            bench.meta().name.to_string(),
            class(&a, h).into(),
            class(&b, h).into(),
            dram(&f1a, i, &a),
            dram(&f1b, i, &b),
        ])
        .expect("row matches header");
    }
    out.push(heat.render());
    out.push(baseline_table(&[&a.node, &b.node, &sb]).render());

    let f4a = fig4(&f1a);
    if let Some(z) = f4a.zplots.iter().find(|z| z.label.starts_with("pot3d")) {
        out.push(
            "Fig. 4 — Z-plot, energy against speedup with the core count as parameter:".into(),
        );
        out.push(z.render_ascii(60, 14).trim_end_matches('\n').to_string());
        if let (Some(e), Some(edp)) = (z.energy_minimum(), z.edp_minimum()) {
            out.push(format!(
                "  E minimum at {} cores ({:.0} kJ), EDP minimum at {} cores",
                e.resources,
                e.value / 1e3,
                edp.resources
            ));
        }
    }

    out.push("§4.3.1 race-to-idle vs. concurrency throttling (one ccNUMA domain):".into());
    for (cpu, cores, s_max) in [
        (&a.node.cpu, a.node.cores_per_domain(), 6.0),
        (&b.node.cpu, b.node.cores_per_domain(), 6.0),
        (&sb.cpu, sb.cores(), 3.5),
    ] {
        let sweep = concurrency_sweep(
            cpu,
            cores,
            0.4,
            100.0,
            saturating_speedup(s_max, 1.0),
            move |n| (s_max / n as f64).min(1.0),
        );
        if let Some(v) = analyze(&sweep) {
            out.push(format!(
                "  {:<20} E-opt {:>2} cores, EDP-opt {:>2}, throttling saves {:>4.1} % → {}",
                cpu.model,
                v.energy_optimal_cores,
                v.edp_optimal_cores,
                v.throttling_gain * 100.0,
                if v.race_to_idle_is_optimal {
                    "race-to-idle wins"
                } else {
                    "concurrency throttling pays off"
                }
            ));
        }
    }

    let tealeaf = |f1: &Fig1| {
        f1.sweeps
            .iter()
            .find(|s| s.benchmark == "tealeaf")
            .and_then(|s| s.results.last())
            .map_or(f64::NAN, |r| r.energy.total_j())
    };
    let (ea, eb) = (tealeaf(&f1a), tealeaf(&f1b));
    out.push(format!(
        "§4.3.2 tealeaf energy to solution at the full node: {} {:.1} kJ, {} {:.1} kJ (B/A ×{:.2})",
        a.name,
        ea / 1e3,
        b.name,
        eb / 1e3,
        eb / ea
    ));
    Ok(super::lines(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, Executor};
    use crate::experiments::node_level::fig1_with;
    use crate::runner::RunConfig;
    use spechpc_machine::presets;
    use spechpc_power::rapl::RaplModel;

    /// The Fig. 1 sweep these tests derive from.
    fn fig1(cluster: &ClusterSpec, step: usize) -> Fig1 {
        let exec = Executor::new(
            RunConfig::default().with_repetitions(1).with_trace(false),
            ExecConfig::default(),
        );
        fig1_with(&exec, cluster, step).unwrap()
    }

    #[test]
    fn fig3_baseline_extrapolation_matches_spec() {
        // The extrapolated zero-core baseline must recover the CPU's
        // configured baseline power (§4.2.3: 95–101 W on Ice Lake).
        let cluster = presets::cluster_a();
        let f1 = fig1(&cluster, 4);
        let f3 = fig3(&f1, &cluster);
        let base = f3.extrapolated_baseline_w;
        assert!(
            (base - 98.0).abs() < 15.0,
            "extrapolated baseline {base} W vs configured 98 W"
        );
    }

    #[test]
    fn fig3_power_grows_with_sockets() {
        // Fig. 3 b/d: going from one socket to two roughly doubles the
        // dynamic power swing.
        let cluster = presets::cluster_a();
        let f1 = fig1(&cluster, 17);
        let f3 = fig3(&f1, &cluster);
        let (_, series) = f3.node_series.iter().find(|(b, _)| b == "sph-exa").unwrap();
        let p36 = series.iter().find(|(n, _, _)| *n == 36).unwrap().1;
        let p72 = series.iter().find(|(n, _, _)| *n == 72).unwrap().1;
        let rapl = RaplModel::new(&cluster);
        let base = rapl.baseline_power(1);
        let swing_ratio = (p72 - base) / (p36 - base);
        assert!(
            (swing_ratio - 2.0).abs() < 0.3,
            "dynamic power swing ratio {swing_ratio}"
        );
    }

    #[test]
    fn fig4_minima_nearly_coincide_on_modern_cpus() {
        // §4.3.1: E and EDP minima "so close together as to be hardly
        // discernible".
        let cluster = presets::cluster_b();
        let f1 = fig1(&cluster, 12);
        let f4 = fig4(&f1);
        for z in &f4.zplots {
            if z.label.starts_with("lbm") || z.label.starts_with("minisweep") {
                continue; // erratic codes: minima track the dips
            }
            let sep = z.min_separation_steps().unwrap();
            assert!(
                sep <= 1,
                "{}: E/EDP minima separated by {sep} steps",
                z.label
            );
        }
    }

    #[test]
    fn hot_cool_table_matches_421() {
        let cluster = presets::cluster_a();
        let f1 = fig1(&cluster, 71);
        let hc = hot_cool_table(&f1, &cluster);
        let get = |n: &str| hc.iter().find(|(b, _, _)| b == n).unwrap();
        let (_, w_sph, f_sph) = get("sph-exa");
        let (_, w_soma, f_soma) = get("soma");
        // sph-exa ≈ 244 W/socket (98 % TDP), soma ≈ 222 W (89 %).
        assert!((w_sph - 244.0).abs() < 12.0, "sph-exa {w_sph} W");
        assert!((w_soma - 222.0).abs() < 12.0, "soma {w_soma} W");
        assert!(f_sph > f_soma);
        // sph-exa is the hottest of the suite.
        for (b, _, f) in &hc {
            assert!(*f <= f_sph + 1e-9, "{b} hotter than sph-exa");
        }
    }

    #[test]
    fn baseline_table_shows_the_generational_shift() {
        let a = presets::cluster_a();
        let b = presets::cluster_b();
        let sb = presets::sandy_bridge_node();
        let text = baseline_table(&[&a.node, &b.node, &sb]).render();
        assert!(text.contains("8360Y"));
        assert!(text.contains("E5-2680"));
        // Sandy Bridge <20 %, Ice Lake ~39 %, SPR ~51 %.
        assert!(
            text.contains("18.3"),
            "Sandy Bridge fraction missing: {text}"
        );
    }
}
