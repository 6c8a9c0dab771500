//! # spechpc-machine — hardware models for the SPEChpc 2021 case study
//!
//! This crate models the two InfiniBand clusters of the paper
//! (*SPEChpc 2021 Benchmarks on Ice Lake and Sapphire Rapids Infiniband
//! Clusters*, SC'23): CPU specifications, the cache hierarchy including the
//! non-inclusive victim L3 of Ice Lake / Sapphire Rapids, ccNUMA domains
//! produced by Sub-NUMA Clustering (SNC), memory-bandwidth saturation
//! behaviour, node and cluster topology, and process-to-core affinity
//! (the `likwid-mpirun` analog).
//!
//! The models are *parameterized*, not hard-coded: [`presets`] instantiates
//! them with the paper's Table 3 numbers (ClusterA = Ice Lake Platinum
//! 8360Y, ClusterB = Sapphire Rapids Platinum 8470, plus a 2012 Sandy
//! Bridge node used by the paper's §4.2.3 idle-power comparison), but any
//! other machine can be described with the same types.
//!
//! ## Quick example
//!
//! ```
//! use spechpc_machine::presets;
//!
//! let a = presets::cluster_a();
//! let b = presets::cluster_b();
//! // Peak-performance ratio (paper §4.1.2: ≈1.2)
//! let perf_ratio = b.node.peak_flops() / a.node.peak_flops();
//! assert!((perf_ratio - 1.2).abs() < 0.05);
//! // Memory-bandwidth ratio (paper §4.1.2: ≈1.5)
//! let bw_ratio = b.node.saturated_mem_bandwidth() / a.node.saturated_mem_bandwidth();
//! assert!(bw_ratio > 1.4 && bw_ratio < 1.7);
//! ```

pub mod affinity;
pub mod cache;
pub mod cluster;
pub mod cpu;
pub mod memory;
pub mod node;
pub mod numa;
pub mod presets;

pub use affinity::Pinning;
pub use cache::{CacheHierarchy, CacheLevel, CacheScope};
pub use cluster::{ClusterSpec, InterconnectSpec};
pub use cpu::CpuSpec;
pub use memory::{MemorySpec, MemoryTech, SaturationCurve};
pub use node::NodeSpec;
pub use numa::NumaDomain;

/// Gigabytes per second, the unit used for all bandwidths in this crate.
pub type GBps = f64;
/// Giga floating-point operations per second.
pub type GFlops = f64;
/// Watts.
pub type Watts = f64;
/// Bytes.
pub type Bytes = u64;
