//! Cross-crate integration: run the full simulated suite end-to-end on
//! both clusters and check the pipeline's internal consistency
//! (machine model → node model → DES → counters → power → energy).

use spechpc::prelude::*;

fn quick() -> RunConfig {
    RunConfig::default().with_repetitions(2).with_trace(false)
}

fn exec() -> Executor {
    Executor::new(quick(), ExecConfig::default())
}

#[test]
fn tiny_suite_full_node_pipeline_consistency() {
    for cluster in [presets::cluster_a(), presets::cluster_b()] {
        let suite = Suite::tiny_full_node(&cluster);
        let report = suite.run_with(&exec(), &cluster);
        assert!(report.is_complete(), "{}", report.render());
        assert_eq!(report.results.len(), 9);
        let rapl = RaplModel::new(&cluster);
        for r in &report.results {
            // Energy = power × runtime, exactly.
            let expect = r.power.total() * r.runtime_s;
            assert!(
                (r.energy.total_j() - expect).abs() < 1e-6 * expect,
                "{}: energy integration inconsistent",
                r.benchmark
            );
            // Power between the allocated baseline and the TDP.
            assert!(r.power.package_w >= rapl.baseline_power(r.nodes_used));
            assert!(r.power.package_w <= rapl.tdp(r.nodes_used) + 1e-9);
            // Counters: vectorization ratio within [0, 1], bandwidth
            // below the hardware limit.
            let v = r.counters.vectorization_ratio();
            assert!((0.0..=1.0).contains(&v), "{}: ratio {v}", r.benchmark);
            let bw = r.counters.mem_bandwidth();
            let limit = cluster.node.saturated_mem_bandwidth() * r.nodes_used as f64;
            assert!(
                bw <= limit * 1.02,
                "{}: {bw} GB/s exceeds the {limit} GB/s envelope",
                r.benchmark
            );
            // DRAM is a minor contributor to energy (§4.3.2).
            assert!(
                r.energy.dram_fraction() < 0.25,
                "{}: DRAM energy share {}",
                r.benchmark,
                r.energy.dram_fraction()
            );
            // Statistics bracket the mean.
            assert!(r.step_seconds_min <= r.step_seconds);
            assert!(r.step_seconds_max >= r.step_seconds);
        }
        // The victim-L3 effect: the strong saturators show more L3 than
        // memory volume (§4.1.4).
        let pot3d = report.result("pot3d").unwrap();
        assert!(pot3d.counters.shows_victim_l3());
    }
}

#[test]
fn small_suite_multi_node_runs_on_both_clusters() {
    let runner = SimRunner::new(quick());
    for cluster in [presets::cluster_a(), presets::cluster_b()] {
        let two_nodes = 2 * cluster.node.cores();
        for name in ["tealeaf", "weather", "soma"] {
            let b = benchmark_by_name(name).unwrap();
            let r = runner
                .run(&cluster, &*b, WorkloadClass::Small, two_nodes)
                .expect("multi-node run");
            assert_eq!(r.nodes_used, 2);
            assert!(r.runtime_s > 0.0);
        }
    }
}

#[test]
fn suite_report_renders_complete_table() {
    let cluster = presets::cluster_a();
    let suite = Suite {
        class: WorkloadClass::Tiny,
        nranks: 36,
    };
    let report = suite.run_with(&exec(), &cluster);
    let text = report.render();
    for name in BENCHMARK_NAMES {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn workload_classes_scale_the_footprint() {
    // small must be a strictly larger problem than tiny for every code.
    for b in all_benchmarks() {
        let tiny = b.signature(WorkloadClass::Tiny);
        let small = b.signature(WorkloadClass::Small);
        assert!(
            small.flops * small.steps as f64 > tiny.flops * tiny.steps as f64,
            "{}: small not larger than tiny",
            b.meta().name
        );
        assert!(
            small.working_set_bytes >= tiny.working_set_bytes,
            "{}: small working set shrank",
            b.meta().name
        );
    }
}

#[test]
fn spec_names_cover_both_measured_suites() {
    for b in all_benchmarks() {
        let m = b.meta();
        let t = m.spec_name(WorkloadClass::Tiny);
        let s = m.spec_name(WorkloadClass::Small);
        assert!(t.starts_with('5') && t.ends_with("_t"), "{t}");
        assert!(s.starts_with('6') && s.ends_with("_s"), "{s}");
    }
}
