//! Quickstart: run one benchmark of the simulated SPEChpc 2021 suite on
//! both clusters of the paper and print the headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark]
//! ```

use spechpc::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "tealeaf".into());
    let bench = benchmark_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{name}'; available: {BENCHMARK_NAMES:?}");
        std::process::exit(1);
    });

    println!("SPEChpc 2021 case-study reproduction — quickstart");
    println!("benchmark: {} ({})", name, bench.meta().numerics);
    println!();

    let runner = SimRunner::new(RunConfig::default());
    for cluster in [presets::cluster_a(), presets::cluster_b()] {
        let cores = cluster.node.cores();
        let r = runner
            .run(&cluster, &*bench, WorkloadClass::Tiny, cores)
            .expect("simulation failed");
        // Roofline-like reading (paper §4.1.2): the node model's split
        // of one rank's step into in-core and memory time.
        let (t_flops, t_mem) =
            NodeModel::new(&cluster, cores).split(&bench.signature(WorkloadClass::Tiny));
        println!(
            "{} — full node ({} cores, {} ccNUMA domains):",
            cluster.name,
            cores,
            cluster.node.numa_domains()
        );
        println!(
            "  tiny workload runtime  : {:8.1} s  ({:.4} s/step ± {:.1}%)",
            r.runtime_s,
            r.step_seconds,
            100.0 * (r.step_seconds_max - r.step_seconds_min) / r.step_seconds
        );
        println!(
            "  performance            : {:8.1} Gflop/s (DP), {:.1} Gflop/s vectorized",
            r.counters.dp_gflops(),
            r.counters.dp_avx_gflops()
        );
        println!(
            "  memory bandwidth       : {:8.1} GB/s of {:.0} GB/s saturated ({}.)",
            r.counters.mem_bandwidth(),
            cluster.node.saturated_mem_bandwidth(),
            if t_mem > t_flops {
                "memory-bound"
            } else {
                "compute-bound"
            }
        );
        println!(
            "  MPI share of runtime   : {:8.1} %",
            r.breakdown.mpi_fraction() * 100.0
        );
        println!(
            "  power (package + DRAM) : {:8.1} W  ({:.0} % of node TDP)",
            r.power.total(),
            100.0 * r.power.package_w / cluster.node.tdp()
        );
        println!(
            "  energy to solution     : {:8.1} kJ  (EDP {:.2e} J·s, DRAM share {:.1} %)",
            r.energy.total_j() / 1e3,
            r.energy.edp(),
            r.energy.dram_fraction() * 100.0
        );
        println!();
    }
}
