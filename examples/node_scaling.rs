//! Node-level scaling study (paper Fig. 1/2, §4.1): sweep the tiny
//! suite across the cores of one node on both clusters, print the
//! parallel-efficiency, acceleration-factor and vectorization tables,
//! and show the minisweep/lbm pathology insets.
//!
//! ```text
//! cargo run --release --example node_scaling [step]
//! ```
//! `step` is the core-count sampling stride (default 4; the paper uses
//! 1, which takes a few minutes here).

use spechpc::harness::experiments::node_level::{
    acceleration_table, efficiency_table, fig1_with, fig2_with, vectorization_table,
};
use spechpc::prelude::*;

fn main() {
    let step: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    // One executor for every section: Fig. 2 replays ClusterA's Fig. 1
    // points from its memory cache instead of simulating them again.
    let exec = Executor::new(RunConfig::default(), ExecConfig::default());

    let a = presets::cluster_a();
    let b = presets::cluster_b();
    println!(
        "running the tiny suite across 1..{} cores of {} and 1..{} cores of {} (stride {step})…",
        a.node.cores(),
        a.name,
        b.node.cores(),
        b.name
    );
    let f1a = fig1_with(&exec, &a, step).expect("ClusterA sweep failed");
    let f1b = fig1_with(&exec, &b, step).expect("ClusterB sweep failed");

    println!("\n== §4.1.1 parallel efficiency: one ccNUMA domain → full node [%] ==");
    println!("{:<12} {:>9} {:>9}", "benchmark", a.name, b.name);
    let ea = efficiency_table(&f1a, &a);
    let eb = efficiency_table(&f1b, &b);
    for ((name, ea), (_, eb)) in ea.iter().zip(&eb) {
        println!("{name:<12} {ea:>9.0} {eb:>9.0}");
    }

    println!("\n== §4.1.2 acceleration factor: ClusterB over ClusterA (full node) ==");
    for (name, acc) in acceleration_table(&f1a, &f1b) {
        println!("{name:<12} {acc:>6.2}");
    }

    println!("\n== §4.1.3 vectorization ratio [% of flops in AVX-512] ==");
    for (name, v) in vectorization_table(&f1a) {
        println!("{name:<12} {v:>6.1}");
    }

    println!(
        "\n== Fig. 2 insets — the two node-level pathologies on {} ==",
        a.name
    );
    let f2 = fig2_with(&exec, &a, a.node.cores()).expect("fig2 failed");
    let ms = f2.minisweep_59;
    println!(
        "minisweep @ 59 processes: {:.3} s/step — {:.0}% MPI_Recv, {:.0}% compute (dominant: {:?})",
        ms.step_seconds,
        ms.recv_fraction * 100.0,
        ms.compute_fraction * 100.0,
        ms.dominant
    );
    println!("ITAC-style timeline (r = MPI_Recv, # = compute, s = send):");
    for line in f2.minisweep_inset.lines().take(16) {
        println!("  {line}");
    }
    println!("  … ({} ranks total)", ms.nranks);

    let lb = f2.lbm_odd;
    println!(
        "\nlbm @ {} processes: {:.3} s/step — {:.0}% compute, {:.0}% wait+barrier",
        lb.nranks,
        lb.step_seconds,
        lb.compute_fraction * 100.0,
        (lb.wait_fraction + lb.barrier_fraction) * 100.0
    );
    for line in f2.lbm_inset.lines().take(12) {
        println!("  {line}");
    }
    println!("  … ({} ranks total)", lb.nranks);
}
