//! Property-style tests of the analytic models: bandwidth saturation,
//! pinning, the node performance model, power/energy identities, and
//! the decomposition helpers.
//!
//! Parameter points are sampled with the in-tree deterministic RNG
//! (fixed seeds), so each test exercises the same reproducible sweep on
//! every run.

use spechpc::kernels::common::model::NodeModel;
use spechpc::kernels::common::rng::Rng;
use spechpc::kernels::{block_range, factor_2d, factor_3d, Grid2d, WorkloadSignature};
use spechpc::machine::affinity::Pinning;
use spechpc::machine::cpu::overlapped;
use spechpc::machine::memory::SaturationCurve;
use spechpc::machine::presets;
use spechpc::power::energy::energy_to_solution;
use spechpc::power::rapl::JobPower;
use spechpc::prelude::WorkloadClass;

/// Draw a random (but always valid) workload signature.
fn draw_signature(rng: &mut Rng) -> WorkloadSignature {
    let mem = 10f64.powf(rng.range(8.0, 13.0));
    WorkloadSignature {
        flops: 10f64.powf(rng.range(9.0, 14.0)),
        simd_fraction: rng.next_f64(),
        core_efficiency: rng.range(0.05, 1.0),
        mem_bytes: mem,
        mem_bytes_per_rank: rng.range(0.0, 1e9),
        l2_bytes: mem * 1.5,
        l3_bytes: mem * 1.2,
        working_set_bytes: 10f64.powf(rng.range(8.0, 12.0)),
        cache_exponent: rng.range(0.5, 4.0),
        replicated_fraction: rng.next_f64(),
        heat: rng.next_f64(),
        steps: 10,
    }
}

/// Saturation curves are monotone and bounded by the plateau.
#[test]
fn saturation_monotone_bounded() {
    let mut rng = Rng::seed_from_u64(0xA1);
    for _ in 0..64 {
        let single = rng.range(1.0, 50.0);
        let headroom = rng.range(1.1, 20.0);
        let n = rng.range(0.0, 64.0) as usize;
        let c = SaturationCurve {
            single_core: single,
            plateau: single * headroom,
        };
        let bw_n = c.bandwidth(n);
        let bw_n1 = c.bandwidth(n + 1);
        assert!(bw_n1 >= bw_n - 1e-12);
        assert!(bw_n1 <= c.plateau + 1e-9);
    }
}

/// Compact pinning partitions ranks over distinct cores, and the
/// per-domain active counts sum to the rank count.
#[test]
fn pinning_partitions() {
    let cluster = presets::cluster_a();
    let mut rng = Rng::seed_from_u64(0xA2);
    for _ in 0..64 {
        let nranks = 1 + rng.range(0.0, cluster.total_cores() as f64) as usize;
        let p = Pinning::new(&cluster, nranks);
        let mut seen = std::collections::HashSet::new();
        for pl in &p.placements {
            assert!(seen.insert((pl.node, pl.core)), "double booking");
        }
        let total: usize = p
            .active_per_domain(cluster.node.numa_domains())
            .iter()
            .flatten()
            .sum();
        assert_eq!(total, nranks);
    }
}

/// The node model returns finite, non-negative per-rank times with
/// utilization in [0, 1], and never inflates memory traffic beyond the
/// nominal total (the victim L3 absorbs whatever was dropped). Without
/// penalties, ranks that share a node and a ccNUMA domain share a time,
/// and rank 0's time is its split under the overlap law, bit for bit.
#[test]
fn node_model_sanity() {
    let cluster = presets::cluster_b();
    let mut rng = Rng::seed_from_u64(0xA3);
    for _ in 0..64 {
        let sig = draw_signature(&mut rng);
        let nranks = (1 + rng.range(0.0, 207.0) as usize).min(cluster.total_cores());
        let model = NodeModel::new(&cluster, nranks);
        let ct = model.compute_times(&sig, &[]);
        assert_eq!(ct.per_rank.len(), nranks);
        for (i, &t) in ct.per_rank.iter().enumerate() {
            assert!(t.is_finite() && t >= 0.0, "rank {i} time {t}");
            assert!((0.0..=1.0).contains(&ct.utilization[i]));
        }
        let (t_flops, t_mem) = model.split(&sig);
        assert_eq!(
            overlapped(t_flops, t_mem).to_bits(),
            ct.per_rank[0].to_bits()
        );
        let mut class_time = std::collections::HashMap::new();
        for p in &model.pinning().placements {
            let t = *class_time
                .entry((p.node, p.domain))
                .or_insert(ct.per_rank[p.rank]);
            assert_eq!(
                t.to_bits(),
                ct.per_rank[p.rank].to_bits(),
                "rank {} differs from its (node {}, domain {}) class",
                p.rank,
                p.node,
                p.domain
            );
        }
        let nominal = sig.mem_bytes + sig.mem_bytes_per_rank * nranks as f64;
        assert!(ct.effective_mem_bytes <= nominal * (1.0 + 1e-9));
        assert!(ct.effective_l3_bytes >= sig.l3_bytes - 1e-9);
    }
}

/// Strong scaling in the model: the slowest rank's compute time never
/// grows when adding ranks (penalty-free, fixed problem size).
#[test]
fn node_model_monotone_scaling() {
    let cluster = presets::cluster_a();
    let mut rng = Rng::seed_from_u64(0xA4);
    for _ in 0..64 {
        // Per-rank replicated traffic breaks strong scaling by design
        // (soma!); restrict to distributed workloads here.
        let mut sig = draw_signature(&mut rng);
        sig.mem_bytes_per_rank = 0.0;
        sig.replicated_fraction = 0.0;
        let t: Vec<f64> = [1usize, 2, 4, 9, 18, 36, 72]
            .iter()
            .map(|&n| {
                NodeModel::new(&cluster, n)
                    .compute_times(&sig, &[])
                    .max_seconds()
            })
            .collect();
        for w in t.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "scaling reversed: {t:?}");
        }
    }
}

/// The paper's §4.1 split on a full node of either cluster: tealeaf,
/// cloverleaf, pot3d and hpgmgfv spend longer on memory than in-core,
/// and lbm, soma, minisweep and sph-exa the other way round.
#[test]
fn full_node_split_matches_the_papers_memory_bound_set() {
    for cluster in [presets::cluster_a(), presets::cluster_b()] {
        let model = NodeModel::new(&cluster, cluster.node.cores());
        let split = |name: &str| {
            let bench = spechpc::kernels::benchmark_by_name(name).expect("benchmark");
            model.split(&bench.signature(WorkloadClass::Tiny))
        };
        for name in ["tealeaf", "cloverleaf", "pot3d", "hpgmgfv"] {
            let (t_flops, t_mem) = split(name);
            assert!(
                t_mem > t_flops,
                "{name} on {}: t_mem {t_mem} <= t_flops {t_flops}",
                cluster.name
            );
        }
        for name in ["lbm", "soma", "minisweep", "sph-exa"] {
            let (t_flops, t_mem) = split(name);
            assert!(
                t_flops > t_mem,
                "{name} on {}: t_flops {t_flops} <= t_mem {t_mem}",
                cluster.name
            );
        }
    }
}

/// Energy identities: total = cpu + dram; EDP = E·t; scaling time
/// scales energy linearly.
#[test]
fn energy_identities() {
    let mut rng = Rng::seed_from_u64(0xA5);
    for _ in 0..64 {
        let pkg = rng.range(0.0, 2000.0);
        let dram = rng.range(0.0, 500.0);
        let t = rng.range(0.0, 1e5);
        let p = JobPower {
            package_w: pkg,
            dram_w: dram,
        };
        let e = energy_to_solution(p, t);
        assert!((e.total_j() - (pkg + dram) * t).abs() < 1e-6 * e.total_j().max(1.0));
        assert!((e.edp() - e.total_j() * t).abs() < 1e-6 * e.edp().max(1.0));
        let e2 = energy_to_solution(p, 2.0 * t);
        assert!((e2.total_j() - 2.0 * e.total_j()).abs() < 1e-6 * e2.total_j().max(1.0));
    }
}

/// block_range partitions exactly, with sizes differing by at most 1.
#[test]
fn block_range_partitions() {
    let mut rng = Rng::seed_from_u64(0xA6);
    for _ in 0..64 {
        let n = 1 + rng.range(0.0, 99_999.0) as usize;
        let p = 1 + rng.range(0.0, 511.0) as usize;
        let mut next = 0;
        let mut min = usize::MAX;
        let mut max = 0;
        for i in 0..p {
            let (lo, hi) = block_range(n, p, i);
            assert_eq!(lo, next);
            next = hi;
            let len = hi - lo;
            min = min.min(len);
            max = max.max(len);
        }
        assert_eq!(next, n);
        assert!(max - min <= 1);
    }
}

/// factor_2d/3d factorizations multiply back and are ordered.
#[test]
fn factorizations() {
    let mut rng = Rng::seed_from_u64(0xA7);
    for case in 0..64 {
        // Always include the small corner cases in the sweep.
        let p = if case < 8 {
            case + 1
        } else {
            1 + rng.range(0.0, 4999.0) as usize
        };
        let (a, b) = factor_2d(p);
        assert_eq!(a * b, p);
        assert!(a <= b);
        let (x, y, z) = factor_3d(p);
        assert_eq!(x * y * z, p);
        assert!(x <= y && y <= z);
    }
}

/// Grid2d tiles cover the domain exactly for arbitrary shapes.
#[test]
fn grid2d_covers() {
    let mut rng = Rng::seed_from_u64(0xA8);
    for _ in 0..64 {
        let nx = 1 + rng.range(0.0, 299.0) as usize;
        let ny = 1 + rng.range(0.0, 299.0) as usize;
        let p = (1 + rng.range(0.0, 63.0) as usize).min(nx * ny);
        let g = Grid2d::new(nx, ny, p);
        let mut count = 0usize;
        for r in 0..g.nranks() {
            let (x0, x1, y0, y1) = g.tile(r);
            assert!(x1 <= nx && y1 <= ny);
            count += (x1 - x0) * (y1 - y0);
        }
        assert_eq!(count, nx * ny);
    }
}

/// Every benchmark's signature validates for every workload class.
#[test]
fn signatures_always_validate() {
    let classes = [
        WorkloadClass::Test,
        WorkloadClass::Tiny,
        WorkloadClass::Small,
        WorkloadClass::Medium,
        WorkloadClass::Large,
    ];
    for b in spechpc::kernels::all_benchmarks() {
        for class in classes {
            let sig = b.signature(class);
            assert!(
                sig.validate().is_ok(),
                "{} @ {class:?}: {:?}",
                b.meta().name,
                sig.validate()
            );
        }
    }
}
