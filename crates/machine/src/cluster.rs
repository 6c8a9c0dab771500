//! Cluster and interconnect specification.
//!
//! Both clusters in the study use HDR100 InfiniBand (100 Gbit/s per link
//! and direction) in a fat-tree topology; the paper points out that the
//! interconnects are identical, so no communication-performance
//! differences are expected between the clusters (§5.1.3).

use crate::node::NodeSpec;
use crate::GBps;

/// Network parameters, LogGP-style.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectSpec {
    /// Human-readable name, e.g. "HDR100 InfiniBand".
    pub name: String,
    /// Raw link bandwidth per direction in GB/s (HDR100: 100 Gbit/s
    /// = 12.5 GB/s).
    pub link_bandwidth: GBps,
    /// Effective achievable point-to-point bandwidth in GB/s (protocol
    /// overheads; ≈12.0 for HDR100 with large messages).
    pub effective_bandwidth: GBps,
    /// One-way small-message latency between nodes in seconds.
    pub latency_s: f64,
    /// Effective intra-node (shared-memory) MPI bandwidth in GB/s.
    pub intranode_bandwidth: GBps,
    /// Intra-node small-message latency in seconds.
    pub intranode_latency_s: f64,
    /// Eager/rendezvous protocol switch threshold in bytes.
    pub eager_threshold: usize,
}

impl InterconnectSpec {
    /// Time for one point-to-point message of `bytes` between two ranks,
    /// ignoring rendezvous semantics (pure wire time).
    pub fn wire_time(&self, bytes: usize, same_node: bool) -> f64 {
        if same_node {
            self.intranode_latency_s + bytes as f64 / (self.intranode_bandwidth * 1e9)
        } else {
            self.latency_s + bytes as f64 / (self.effective_bandwidth * 1e9)
        }
    }

    /// Whether a message of this size uses the eager protocol.
    pub fn is_eager(&self, bytes: usize) -> bool {
        bytes < self.eager_threshold
    }
}

/// A homogeneous cluster of identical nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name ("ClusterA", "ClusterB").
    pub name: String,
    pub node: NodeSpec,
    /// Number of nodes available.
    pub nodes: usize,
    pub interconnect: InterconnectSpec,
}

impl ClusterSpec {
    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.node.cores()
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        if self.interconnect.effective_bandwidth > self.interconnect.link_bandwidth {
            return Err("effective bandwidth exceeds raw link bandwidth".into());
        }
        self.node.validate()
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn hdr100_parameters() {
        let c = presets::cluster_a();
        assert!((c.interconnect.link_bandwidth - 12.5).abs() < 1e-9);
        assert!(c.interconnect.effective_bandwidth <= 12.5);
        // Identical interconnects across clusters (paper §5.1.3).
        let b = presets::cluster_b();
        assert_eq!(c.interconnect, b.interconnect);
    }

    #[test]
    fn wire_time_scales_with_size_and_locality() {
        let ic = presets::cluster_a().interconnect;
        let small_local = ic.wire_time(8, true);
        let small_remote = ic.wire_time(8, false);
        assert!(small_local < small_remote, "intra-node must be faster");
        let big_remote = ic.wire_time(1 << 20, false);
        assert!(big_remote > small_remote);
        // 1 GiB at ~12 GB/s ≈ 90 ms ballpark.
        let t = ic.wire_time(1 << 30, false);
        assert!(t > 0.05 && t < 0.2, "unexpected wire time {t}");
    }

    #[test]
    fn eager_threshold_partition() {
        let ic = presets::cluster_a().interconnect;
        assert!(ic.is_eager(1));
        assert!(ic.is_eager(ic.eager_threshold - 1));
        assert!(!ic.is_eager(ic.eager_threshold));
    }

    #[test]
    fn small_suite_process_counts_fit() {
        // The paper runs up to 1664 MPI processes on both clusters.
        assert!(presets::cluster_a().total_cores() >= 1664);
        assert!(presets::cluster_b().total_cores() >= 1664);
    }
}
