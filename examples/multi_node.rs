//! Multi-node scaling study (paper Fig. 5/6, §5): run the small suite
//! over 1–16 nodes on both clusters, classify every benchmark into the
//! §5.1 scaling cases, show the soma anomaly and the power/energy
//! scaling.
//!
//! ```text
//! cargo run --release --example multi_node [max_nodes]
//! ```

use spechpc::harness::experiments::multi_node::{
    comm_breakdown, fig5_with, fig6, scaling_cases, soma_anomaly,
};
use spechpc::prelude::*;

fn main() {
    let max_nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let mut nodes = vec![1usize];
    while *nodes.last().unwrap() * 2 <= max_nodes {
        let n = nodes.last().unwrap() * 2;
        nodes.push(n);
    }
    let exec = Executor::new(
        RunConfig::default().with_repetitions(1),
        ExecConfig::default(),
    );

    for cluster in [presets::cluster_a(), presets::cluster_b()] {
        let cores = cluster.node.cores();
        println!(
            "== {}: small suite over {:?} nodes (up to {} ranks) ==",
            cluster.name,
            nodes,
            nodes.last().unwrap() * cores
        );
        let f5 = fig5_with(&exec, &cluster, &nodes).expect("multi-node sweep failed");

        println!("\n-- Fig. 5: speedup / per-node bandwidth / aggregate volume --");
        println!(
            "{:<12} {:>6} {:>9} {:>12} {:>14} {:>7}",
            "benchmark", "nodes", "speedup", "BW/node", "volume/step", "MPI"
        );
        for s in &f5.sweeps {
            let t1 = s.results[0].step_seconds;
            for r in &s.results {
                let steps = r.runtime_s / r.step_seconds;
                println!(
                    "{:<12} {:>6} {:>9.2} {:>9.0} GB/s {:>11.1} GB {:>6.1}%",
                    s.benchmark,
                    r.nodes_used,
                    t1 / r.step_seconds,
                    r.mem_bandwidth_per_node(),
                    r.counters.mem_bytes / steps / 1e9,
                    r.breakdown.mpi_fraction() * 100.0
                );
            }
        }

        println!("\n-- §5.1 scaling-case classification --");
        for (name, case) in scaling_cases(&f5) {
            println!("{name:<12} {case}");
        }

        println!("\n-- §5.1.2 the soma anomaly --");
        let soma = soma_anomaly(&f5).expect("soma swept");
        for ((n, bw), (_, vol)) in soma.per_node_bw.iter().zip(&soma.volume) {
            println!(
                "  {n:>2} node(s): {bw:>5.0} GB/s per node, {:>6.1} GB aggregate per step",
                vol / 1e9
            );
        }
        println!(
            "  MPI_Allreduce share at scale: {:.0} % (the suite's most reduction-bound code)",
            soma.allreduce_fraction * 100.0
        );

        println!("\n-- §5 communication-routine ranking at the largest node count --");
        let mut ranking = comm_breakdown(&f5);
        ranking.sort_by(|a, b| b.2.total_cmp(&a.2));
        for (bench, kind, frac) in ranking.iter().take(10) {
            println!("  {bench:<12} {kind:<14} {:>5.1} %", frac * 100.0);
        }

        println!("\n-- Fig. 6: total power and energy scaling --");
        let f6 = fig6(&f5);
        for (name, pts) in &f6.series {
            let parts: Vec<String> = pts
                .iter()
                .map(|(n, kw, mj)| format!("{n}n: {kw:.1} kW/{:.0} kJ", mj * 1e3))
                .collect();
            println!("  {name:<12} {}", parts.join("  "));
        }
        println!();
    }
}
