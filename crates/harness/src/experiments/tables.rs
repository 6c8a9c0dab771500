//! Renderers for the paper's static tables (Tables 1–3).

use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::registry::all_benchmarks;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_machine::presets;

use crate::error::HarnessError;
use crate::exec::Executor;
use crate::report::{fmt, Table};

/// The `tables` section of `spechpc figures`: Tables 1–3, which
/// simulate nothing.
pub fn render(_exec: &Executor) -> Result<String, HarnessError> {
    let (a, b) = (presets::cluster_a(), presets::cluster_b());
    Ok(super::lines(vec![
        table1().render(),
        table2().render(),
        table3(&[&a, &b]).render(),
    ]))
}

/// Table 1 — key attributes of the SPEChpc 2021 parallel benchmarks.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 — key attributes of SPEChpc 2021 parallel benchmarks",
        &[
            "name",
            "B",
            "language",
            "LOC",
            "collective",
            "tiny",
            "small",
        ],
    );
    for b in all_benchmarks() {
        let m = b.meta();
        let cfg = |class: WorkloadClass| {
            b.config(class)
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("; ")
        };
        t.row(vec![
            m.name.to_string(),
            format!("{:02}", m.spec_id),
            m.language.to_string(),
            m.loc.to_string(),
            m.collective.to_string(),
            cfg(WorkloadClass::Tiny),
            cfg(WorkloadClass::Small),
        ])
        .expect("row matches header");
    }
    t
}

/// Table 2 — numeric and domain data of the suite.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2 — numeric and domain data of the SPEChpc 2021 suite",
        &["name", "numerical brief information", "application domain"],
    );
    for b in all_benchmarks() {
        let m = b.meta();
        t.row(vec![
            m.name.to_string(),
            m.numerics.to_string(),
            m.domain.to_string(),
        ])
        .expect("row matches header");
    }
    t
}

/// Table 3 — key hardware attributes of the two clusters.
pub fn table3(clusters: &[&ClusterSpec]) -> Table {
    let mut header = vec!["attribute"];
    let names: Vec<String> = clusters.iter().map(|c| c.name.clone()).collect();
    for n in &names {
        header.push(n);
    }
    let mut t = Table::new(
        "Table 3 — key hardware and software attributes of the systems",
        &header,
    );
    let row = |label: &str, f: &dyn Fn(&ClusterSpec) -> String| {
        let mut cells = vec![label.to_string()];
        for c in clusters {
            cells.push(f(c));
        }
        cells
    };
    let rows: Vec<Vec<String>> = vec![
        row("Processor model", &|c| c.node.cpu.model.clone()),
        row("Microarchitecture", &|c| {
            c.node.cpu.microarchitecture.clone()
        }),
        row("Base clock speed [GHz]", &|c| {
            fmt(c.node.cpu.base_clock_ghz)
        }),
        row("Physical cores per node", &|c| c.node.cores().to_string()),
        row("ccNUMA domains per node", &|c| {
            c.node.numa_domains().to_string()
        }),
        row("Sockets per node", &|c| c.node.sockets.to_string()),
        row("Per-core L2 cache [KiB]", &|c| {
            (c.node.caches.level(2).map(|l| l.capacity).unwrap_or(0) / 1024).to_string()
        }),
        row("Shared L3 per socket [MiB]", &|c| {
            (c.node.caches.level(3).map(|l| l.capacity).unwrap_or(0) / (1024 * 1024)).to_string()
        }),
        row("Memory per node [GiB]", &|c| {
            fmt(c.node.memory_capacity_gib())
        }),
        row("Theor. node memory bandwidth [GB/s]", &|c| {
            fmt(c.node.theoretical_mem_bandwidth())
        }),
        row("Saturated node memory bandwidth [GB/s]", &|c| {
            fmt(c.node.saturated_mem_bandwidth())
        }),
        row("Peak DP performance per node [Gflop/s]", &|c| {
            fmt(c.node.peak_flops())
        }),
        row("Thermal design power per socket [W]", &|c| {
            fmt(c.node.cpu.tdp_w)
        }),
        row("Node interconnect", &|c| c.interconnect.name.clone()),
        row("Raw link bandwidth [Gbit/s]", &|c| {
            fmt(c.interconnect.link_bandwidth * 8.0)
        }),
    ];
    for r in rows {
        t.row(r).expect("row matches header");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_nine_with_configs() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        let text = t.render();
        assert!(text.contains("lbm"));
        assert!(text.contains("{4096,16384}"), "tiny lbm lattice missing");
        assert!(text.contains("14000000"), "soma polymer count missing");
        assert!(text.contains("Allreduce"));
    }

    #[test]
    fn table2_has_domains() {
        let text = table2().render();
        assert!(text.contains("Solar physics"));
        assert!(text.contains("Lattice-Boltzmann"));
        assert!(text.contains("Radiation transport"));
    }

    #[test]
    fn table3_matches_key_numbers() {
        let a = presets::cluster_a();
        let b = presets::cluster_b();
        let text = table3(&[&a, &b]).render();
        assert!(text.contains("8360Y"));
        assert!(text.contains("8470"));
        assert!(text.contains("| 72"), "ClusterA core count");
        assert!(text.contains("| 104"), "ClusterB core count");
        assert!(text.contains("100"), "HDR100 link speed");
    }
}
