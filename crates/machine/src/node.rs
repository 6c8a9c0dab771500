//! Node specification: sockets, SNC layout, caches, and derived metrics
//! (peak performance, saturated node bandwidth, machine balance).

use crate::cache::CacheHierarchy;
use crate::cpu::CpuSpec;
use crate::memory::MemorySpec;
use crate::numa::{self, NumaDomain};
use crate::{GBps, GFlops, Watts};

/// Specification of one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Short name, e.g. "ClusterA node".
    pub name: String,
    pub cpu: CpuSpec,
    /// Number of sockets.
    pub sockets: usize,
    /// Sub-NUMA-Clustering factor (ccNUMA domains per socket).
    pub snc: usize,
    pub caches: CacheHierarchy,
    /// Memory attached to *one* ccNUMA domain.
    pub domain_memory: MemorySpec,
}

impl NodeSpec {
    /// Total physical cores in the node.
    pub fn cores(&self) -> usize {
        self.sockets * self.cpu.cores_per_socket
    }

    /// Number of ccNUMA domains in the node.
    pub fn numa_domains(&self) -> usize {
        self.sockets * self.snc
    }

    /// Cores per ccNUMA domain — the paper's fundamental scaling unit.
    pub fn cores_per_domain(&self) -> usize {
        self.cpu.cores_per_socket / self.snc
    }

    /// The ccNUMA domain layout of the node.
    pub fn domain_layout(&self) -> Vec<NumaDomain> {
        numa::layout(self.sockets, self.cpu.cores_per_socket, self.snc)
    }

    /// Peak double-precision performance of the node in Gflop/s.
    pub fn peak_flops(&self) -> GFlops {
        self.cpu.peak_flops() * self.sockets as f64
    }

    /// Theoretical memory bandwidth of the node in GB/s.
    pub fn theoretical_mem_bandwidth(&self) -> GBps {
        self.domain_memory.theoretical_bw * self.numa_domains() as f64
    }

    /// Saturated (achievable) memory bandwidth of the node in GB/s.
    pub fn saturated_mem_bandwidth(&self) -> GBps {
        self.domain_memory.saturation.plateau * self.numa_domains() as f64
    }

    /// Machine balance in bytes/flop (saturated bandwidth over peak
    /// performance) — the paper notes ClusterB has the higher balance.
    pub fn machine_balance(&self) -> f64 {
        self.saturated_mem_bandwidth() / self.peak_flops()
    }

    /// Node TDP (sockets × socket TDP).
    pub fn tdp(&self) -> Watts {
        self.cpu.tdp_w * self.sockets as f64
    }

    /// Total memory capacity of the node in GiB.
    pub fn memory_capacity_gib(&self) -> f64 {
        self.domain_memory.capacity_gib * self.numa_domains() as f64
    }

    /// Effective last-level-cache capacity visible to a job with
    /// `active_cores` busy cores spread over `active_domains` ccNUMA
    /// domains: the victim-L3 slices of the active domains (SNC
    /// partitions the L3) plus the private L2s of the active cores.
    /// This is the capacity the cache-fit model uses — it *grows* as
    /// cores are added, which is how superlinear within-node scaling
    /// arises for cache-sensitive codes (paper §4.1.1, weather on
    /// ClusterB).
    pub fn effective_llc_active(&self, active_cores: usize, active_domains: usize) -> u64 {
        let l3_domain_slice = self
            .caches
            .level(3)
            .map(|l| l.capacity / self.snc as u64)
            .unwrap_or(0);
        let l2_core = self.caches.level(2).map(|l| l.capacity).unwrap_or(0);
        let l3_is_victim = self.caches.level(3).map(|l| l.victim).unwrap_or(false);
        let l3 = l3_domain_slice * active_domains.min(self.numa_domains()) as u64;
        if l3_is_victim {
            l3 + l2_core * active_cores.min(self.cores()) as u64
        } else {
            l3
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets == 0 {
            return Err("node must have at least one socket".into());
        }
        if !self.cpu.cores_per_socket.is_multiple_of(self.snc) {
            return Err(format!(
                "{} cores per socket do not divide into SNC{}",
                self.cpu.cores_per_socket, self.snc
            ));
        }
        self.caches.validate()?;
        if self.domain_memory.saturation.plateau > self.domain_memory.theoretical_bw {
            return Err("saturated bandwidth exceeds theoretical bandwidth".into());
        }
        if self.domain_memory.saturation.single_core > self.domain_memory.saturation.plateau {
            return Err("single-core bandwidth exceeds the saturation plateau".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn cluster_a_node_derived_metrics() {
        let n = presets::cluster_a().node;
        assert_eq!(n.cores(), 72);
        assert_eq!(n.numa_domains(), 4);
        assert_eq!(n.cores_per_domain(), 18);
        // Table 3: 2 sockets × 2.765 Tflop/s
        assert!((n.peak_flops() - 5529.6).abs() < 1.0);
        // Table 3: 4 × 102.4 GB/s theoretical
        assert!((n.theoretical_mem_bandwidth() - 409.6).abs() < 0.1);
        // ≈306 GB/s saturated: the bandwidth roof of a full node.
        assert!((n.saturated_mem_bandwidth() - 306.0).abs() < 2.0);
        assert!((n.memory_capacity_gib() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn cluster_b_node_derived_metrics() {
        let n = presets::cluster_b().node;
        assert_eq!(n.cores(), 104);
        assert_eq!(n.numa_domains(), 8);
        assert_eq!(n.cores_per_domain(), 13);
        assert!((n.peak_flops() - 6656.0).abs() < 1.0);
        assert!((n.theoretical_mem_bandwidth() - 614.4).abs() < 0.1);
        assert!((n.memory_capacity_gib() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn paper_section_412_ratios() {
        // "the ratio of peak performance and memory bandwidth is 1.2 and
        // 1.5 respectively" (ClusterB over ClusterA).
        let a = presets::cluster_a().node;
        let b = presets::cluster_b().node;
        let perf = b.peak_flops() / a.peak_flops();
        let bw = b.saturated_mem_bandwidth() / a.saturated_mem_bandwidth();
        assert!((perf - 1.2).abs() < 0.05, "peak ratio {perf}");
        assert!((bw - 1.5).abs() < 0.15, "bandwidth ratio {bw}");
        // ClusterB has the higher machine balance (§5.1.3).
        assert!(b.machine_balance() > a.machine_balance());
    }

    #[test]
    fn presets_validate() {
        assert!(presets::cluster_a().node.validate().is_ok());
        assert!(presets::cluster_b().node.validate().is_ok());
        assert!(presets::sandy_bridge_node().validate().is_ok());
    }
}
