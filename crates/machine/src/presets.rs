//! Machine presets with the paper's Table 3 parameters.
//!
//! Power-model constants are calibrated against the paper's RAPL
//! measurements (§4.2): extrapolated zero-core baselines, the hot/cool
//! per-core power range bracketing sph-exa (98 %/97 % of TDP) and soma
//! (89 %/85 %), and DRAM power per ccNUMA domain (16 W saturated DDR4 on
//! ClusterA, 10–13 W DDR5 on ClusterB; 9.5 W / 5.5 W floors for
//! non-memory-bound codes).

use crate::cache::{CacheHierarchy, CacheLevel, CacheScope};
use crate::cluster::{ClusterSpec, InterconnectSpec};
use crate::cpu::CpuSpec;
use crate::memory::{MemorySpec, MemoryTech, SaturationCurve};
use crate::node::NodeSpec;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// HDR100 InfiniBand in a fat-tree — identical on both clusters.
pub fn hdr100() -> InterconnectSpec {
    InterconnectSpec {
        name: "HDR100 InfiniBand".to_string(),
        link_bandwidth: 12.5,
        effective_bandwidth: 12.0,
        latency_s: 1.5e-6,
        intranode_bandwidth: 16.0,
        intranode_latency_s: 0.3e-6,
        eager_threshold: 64 * KIB as usize,
    }
}

/// ClusterA: dual-socket Intel Xeon Ice Lake Platinum 8360Y nodes,
/// 36 cores/socket at 2.4 GHz base, SNC2 (4 ccNUMA domains of 18 cores),
/// 8 channels DDR4-3200 per socket, 250 W TDP.
pub fn cluster_a() -> ClusterSpec {
    let cpu = CpuSpec {
        model: "Xeon Platinum 8360Y".to_string(),
        microarchitecture: "Ice Lake".to_string(),
        base_clock_ghz: 2.4,
        cores_per_socket: 36,
        simd_dp_lanes: 8,
        fma_units: 2,
        tdp_w: 250.0,
        // §4.2.3: 95–101 W extrapolated zero-core baseline (~40 % TDP).
        baseline_power_w: 98.0,
        // Calibrated: soma (cool) 222 W = 98 + 36×3.44;
        //             sph-exa (hot) 244 W = 98 + 36×4.06.
        core_power_cool_w: 3.44,
        core_power_hot_w: 4.06,
        stall_power_floor: 0.40,
    };
    let caches = CacheHierarchy {
        levels: vec![
            CacheLevel {
                level: 1,
                capacity: 48 * KIB,
                scope: CacheScope::Core,
                bandwidth_per_core: 400.0,
                victim: false,
            },
            CacheLevel {
                level: 2,
                capacity: 1280 * KIB,
                scope: CacheScope::Core,
                bandwidth_per_core: 60.0,
                victim: false,
            },
            CacheLevel {
                level: 3,
                capacity: 54 * MIB,
                scope: CacheScope::Socket,
                bandwidth_per_core: 25.0,
                victim: true,
            },
        ],
    };
    let domain_memory = MemorySpec {
        tech: MemoryTech::Ddr4,
        mts: 3200,
        channels: 4, // 8 per socket, halved by SNC2
        capacity_gib: 64.0,
        theoretical_bw: 102.4,
        // §4.1.4: saturated 75–78 GB/s per ccNUMA domain.
        saturation: SaturationCurve {
            single_core: 13.0,
            plateau: 76.5,
        },
        // §4.2.1: 16 W saturated, 9.5 W floor for cool codes.
        idle_power_w: 9.0,
        busy_power_w: 16.0,
    };
    ClusterSpec {
        name: "ClusterA".to_string(),
        node: NodeSpec {
            name: "ClusterA node (2× Ice Lake 8360Y)".to_string(),
            cpu,
            sockets: 2,
            snc: 2,
            caches,
            domain_memory,
        },
        nodes: 32,
        interconnect: hdr100(),
    }
}

/// ClusterB: dual-socket Intel Xeon Sapphire Rapids Platinum 8470 nodes,
/// 52 cores/socket at 2.0 GHz base, SNC4 (8 ccNUMA domains of 13 cores),
/// 8 channels DDR5-4800 per socket, 350 W TDP.
pub fn cluster_b() -> ClusterSpec {
    let cpu = CpuSpec {
        model: "Xeon Platinum 8470".to_string(),
        microarchitecture: "Sapphire Rapids".to_string(),
        base_clock_ghz: 2.0,
        cores_per_socket: 52,
        simd_dp_lanes: 8,
        fma_units: 2,
        tdp_w: 350.0,
        // §4.2.3: 176–181 W baseline (~50 % of TDP).
        baseline_power_w: 178.0,
        // Calibrated: soma (cool) 298 W = 178 + 52×2.31;
        //             sph-exa (hot) 333 W = 178 + 52×2.98.
        core_power_cool_w: 2.31,
        core_power_hot_w: 2.98,
        stall_power_floor: 0.40,
    };
    let caches = CacheHierarchy {
        levels: vec![
            CacheLevel {
                level: 1,
                capacity: 48 * KIB,
                scope: CacheScope::Core,
                bandwidth_per_core: 400.0,
                victim: false,
            },
            CacheLevel {
                level: 2,
                capacity: 2 * MIB,
                scope: CacheScope::Core,
                bandwidth_per_core: 70.0,
                victim: false,
            },
            CacheLevel {
                level: 3,
                capacity: 105 * MIB,
                scope: CacheScope::Socket,
                bandwidth_per_core: 30.0,
                victim: true,
            },
        ],
    };
    let domain_memory = MemorySpec {
        tech: MemoryTech::Ddr5,
        mts: 4800,
        channels: 2, // 8 per socket, quartered by SNC4
        capacity_gib: 128.0,
        theoretical_bw: 76.8,
        // §4.1.4: saturated 58–62 GB/s per ccNUMA domain.
        saturation: SaturationCurve {
            single_core: 11.0,
            plateau: 60.0,
        },
        // §4.2.1: 10–13 W saturated per domain, 5.5 W floor (DDR5 with
        // half-rate clocking is measurably cooler than DDR4, §4.2.3).
        idle_power_w: 5.0,
        busy_power_w: 11.5,
    };
    ClusterSpec {
        name: "ClusterB".to_string(),
        node: NodeSpec {
            name: "ClusterB node (2× Sapphire Rapids 8470)".to_string(),
            cpu,
            sockets: 2,
            snc: 4,
            caches,
            domain_memory,
        },
        nodes: 32,
        interconnect: hdr100(),
    }
}

/// A 2012 Sandy Bridge server node, used by the paper (§4.2.3) only as an
/// idle-power reference point: baseline power below 20 % of a 120 W TDP.
pub fn sandy_bridge_node() -> NodeSpec {
    let cpu = CpuSpec {
        model: "Xeon E5-2680".to_string(),
        microarchitecture: "Sandy Bridge".to_string(),
        base_clock_ghz: 2.7,
        cores_per_socket: 8,
        simd_dp_lanes: 4,
        // Separate ADD and MUL ports, together 8 DP flops/cycle — the
        // same throughput as one FMA unit at 4 lanes.
        fma_units: 1,
        tdp_w: 120.0,
        baseline_power_w: 22.0, // <20 % of TDP
        core_power_cool_w: 7.0,
        core_power_hot_w: 11.5,
        stall_power_floor: 0.65,
    };
    NodeSpec {
        name: "Sandy Bridge reference node".to_string(),
        cpu,
        sockets: 2,
        snc: 1,
        caches: CacheHierarchy {
            levels: vec![
                CacheLevel {
                    level: 1,
                    capacity: 32 * KIB,
                    scope: CacheScope::Core,
                    bandwidth_per_core: 150.0,
                    victim: false,
                },
                CacheLevel {
                    level: 2,
                    capacity: 256 * KIB,
                    scope: CacheScope::Core,
                    bandwidth_per_core: 40.0,
                    victim: false,
                },
                CacheLevel {
                    level: 3,
                    capacity: 20 * MIB,
                    scope: CacheScope::Socket,
                    bandwidth_per_core: 15.0,
                    victim: false,
                },
            ],
        },
        domain_memory: MemorySpec {
            tech: MemoryTech::Ddr3,
            mts: 1600,
            channels: 4,
            capacity_gib: 32.0,
            theoretical_bw: 51.2,
            saturation: SaturationCurve {
                single_core: 10.0,
                plateau: 36.0,
            },
            idle_power_w: 6.0,
            busy_power_w: 14.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_cool_tdp_fractions_match_paper_421() {
        // sph-exa: 98 % (A) / 97 % (B) wait — fractions of *socket* TDP:
        // 244/250 = 0.976, 333/350 = 0.951. soma: 222/250 = 0.888,
        // 298/350 = 0.851. The model must land within 2 % of those.
        let a = cluster_a().node.cpu;
        let b = cluster_b().node.cpu;
        assert!((a.tdp_fraction_full(1.0) - 0.976).abs() < 0.02);
        assert!((a.tdp_fraction_full(0.0) - 0.888).abs() < 0.02);
        assert!((b.tdp_fraction_full(1.0) - 0.951).abs() < 0.02);
        assert!((b.tdp_fraction_full(0.0) - 0.851).abs() < 0.02);
    }

    #[test]
    fn baseline_fractions_match_paper_423() {
        let a = cluster_a().node.cpu;
        let b = cluster_b().node.cpu;
        let sb = sandy_bridge_node().cpu;
        let fa = a.baseline_power_w / a.tdp_w;
        let fb = b.baseline_power_w / b.tdp_w;
        let fsb = sb.baseline_power_w / sb.tdp_w;
        assert!((fa - 0.40).abs() < 0.03, "Ice Lake baseline fraction {fa}");
        assert!((fb - 0.50).abs() < 0.03, "SPR baseline fraction {fb}");
        assert!(fsb < 0.20, "Sandy Bridge baseline fraction {fsb}");
    }

    #[test]
    fn spr_has_bigger_caches_per_core() {
        // Paper footnote 7: ClusterB has 45 % more L3 and 60 % more L2
        // per core than ClusterA.
        let a = cluster_a().node;
        let b = cluster_b().node;
        let l2a = a.caches.level(2).unwrap().capacity as f64;
        let l2b = b.caches.level(2).unwrap().capacity as f64;
        assert!((l2b / l2a - 1.6).abs() < 0.01);
        let l3a = a.caches.level(3).unwrap().capacity as f64 / 36.0;
        let l3b = b.caches.level(3).unwrap().capacity as f64 / 52.0;
        let ratio = l3b / l3a;
        assert!((ratio - 1.45).abs() < 0.15, "L3/core ratio {ratio}");
    }

    #[test]
    fn dram_power_ddr5_cooler_than_ddr4() {
        let a = cluster_a().node.domain_memory;
        let b = cluster_b().node.domain_memory;
        assert!(b.busy_power_w < a.busy_power_w);
        assert!(b.idle_power_w < a.idle_power_w);
        assert_eq!(b.tech, MemoryTech::Ddr5);
        assert_eq!(a.tech, MemoryTech::Ddr4);
    }

    #[test]
    fn cluster_validation_passes() {
        cluster_a().validate().unwrap();
        cluster_b().validate().unwrap();
    }
}
