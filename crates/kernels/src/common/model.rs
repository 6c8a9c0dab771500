//! Node-level performance model: from workload signature to per-rank
//! compute time.
//!
//! A Roofline/ECM-style model (paper §4.1.2 adopts the same view): the
//! compute phase of a step takes
//! [`overlapped`]`(t_flops, t_mem) = max(t_flops, t_mem) + 0.5·min(t_flops, t_mem)`
//! per rank, where
//!
//! * `t_flops` follows from the core's SIMD-adjusted instruction
//!   throughput, and
//! * `t_mem` follows from the rank's share of its ccNUMA domain's
//!   saturating memory bandwidth — the mechanism behind the saturation
//!   speedup patterns of `pot3d`, `tealeaf`, `cloverleaf` and `hpgmgfv`.
//!
//! Both depend only on the rank's node and ccNUMA domain, so the model
//! computes them once per (node, domain) class and expands them to
//! ranks only for the per-rank times, utilizations and penalties.
//!
//! The model also applies the *cache-fit* correction: under strong
//! scaling the per-node share of the working set shrinks; once it
//! approaches the effective LLC (victim L3 + L2, paper footnote 6) the
//! memory traffic collapses and scaling turns superlinear (`weather`,
//! §5.1 case A). Replicated working sets (`soma`) never benefit.

use spechpc_machine::affinity::Pinning;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_machine::cpu::overlapped;

use crate::common::signature::WorkloadSignature;

/// Residual fraction of memory traffic that always streams (write
/// allocations, first touches), even for a fully cache-resident set.
const CACHE_TRAFFIC_FLOOR: f64 = 0.12;

/// Per-step, per-rank timing produced by the model.
#[derive(Debug, Clone)]
pub struct ComputeTimes {
    /// Compute seconds per rank for one step (before communication).
    pub per_rank: Vec<f64>,
    /// Core busy fraction per rank (`t_flops / t_step`): stalled cores
    /// draw less package power (paper §4.2).
    pub utilization: Vec<f64>,
    /// Effective main-memory traffic for one step, total bytes, after
    /// the cache-fit correction.
    pub effective_mem_bytes: f64,
    /// Effective L3 traffic for one step, total bytes (victim-cache
    /// bookkeeping: traffic dropped from memory is served by L3).
    pub effective_l3_bytes: f64,
    /// L2 traffic for one step, total bytes.
    pub effective_l2_bytes: f64,
}

impl ComputeTimes {
    /// The slowest rank's compute time — the step's critical path before
    /// communication effects.
    pub fn max_seconds(&self) -> f64 {
        self.per_rank.iter().copied().fold(0.0, f64::max)
    }
}

/// Performance model bound to a cluster and a compact pinning of
/// `nranks` ranks.
#[derive(Debug, Clone)]
pub struct NodeModel<'a> {
    cluster: &'a ClusterSpec,
    pinning: Pinning,
}

impl<'a> NodeModel<'a> {
    /// Model for `nranks` compactly pinned ranks (the paper's setup).
    pub fn new(cluster: &'a ClusterSpec, nranks: usize) -> Self {
        NodeModel {
            cluster,
            pinning: Pinning::new(cluster, nranks),
        }
    }

    pub fn nranks(&self) -> usize {
        self.pinning.nprocs()
    }

    pub fn pinning(&self) -> &Pinning {
        &self.pinning
    }

    pub fn cluster(&self) -> &'a ClusterSpec {
        self.cluster
    }

    /// Effective per-core instruction throughput in flop/s for a given
    /// signature: the SIMD-weighted mix of vector and scalar peak, scaled
    /// by the code's core efficiency.
    pub fn core_rate(&self, sig: &WorkloadSignature) -> f64 {
        let cpu = &self.cluster.node.cpu;
        let simd_peak = cpu.peak_flops_per_core() * 1e9;
        let scalar_peak = cpu.scalar_flops_per_core() * 1e9;
        sig.core_efficiency
            * (sig.simd_fraction * simd_peak + (1.0 - sig.simd_fraction) * scalar_peak)
    }

    /// Memory-traffic scale factor of one node: fraction of the nominal
    /// traffic that still reaches main memory given the per-node
    /// working-set share `ws_node` (bytes), the LLC capacity `llc`
    /// actually available to the active cores, and the code's cache
    /// sharpness `gamma`: `scale = 1 − (llc/ws)^γ`, with a residual
    /// streaming floor. γ = 1 is the fully associative random-access
    /// limit; streaming LRU access sees almost no reuse until the set
    /// nearly fits (γ ≈ 3).
    pub fn cache_traffic_scale(&self, ws_node: f64, llc: f64, gamma: f64) -> f64 {
        if ws_node <= 0.0 {
            return CACHE_TRAFFIC_FLOOR;
        }
        let r = (llc / ws_node).min(1.0);
        (1.0 - r.powf(gamma)).max(CACHE_TRAFFIC_FLOOR)
    }

    /// `(t_flops, t_mem, mem_rank)` of one rank of each (node, domain)
    /// class on the first `nodes` nodes; outer index node, inner index
    /// domain. `mem_rank` is the rank's memory traffic after the node's
    /// cache-fit correction.
    fn classes(&self, sig: &WorkloadSignature, nodes: usize) -> Vec<Vec<(f64, f64, f64)>> {
        let node = &self.cluster.node;
        let active = self.pinning.active_per_domain(node.numa_domains());
        let nodes_used = active.len() as f64;
        let nranks = self.nranks() as f64;
        let t_flops = sig.flops / nranks / self.core_rate(sig);
        let mem_nominal = sig.mem_bytes / nranks + sig.mem_bytes_per_rank;
        active[..nodes]
            .iter()
            .map(|doms| {
                // Per-node working-set share and cache scale. The LLC
                // capacity available grows with the number of active
                // cores/domains on the node (SNC L3 slices + private L2s).
                let ranks: usize = doms.iter().sum();
                let ws_node = sig.distributed_working_set() / nodes_used
                    + sig.working_set_bytes * sig.replicated_fraction * ranks as f64;
                let active_domains = doms.iter().filter(|&&c| c > 0).count();
                let llc = node.effective_llc_active(ranks, active_domains) as f64;
                let mem_rank =
                    mem_nominal * self.cache_traffic_scale(ws_node, llc, sig.cache_exponent);
                doms.iter()
                    .map(|&count| {
                        // Rank share of its ccNUMA domain's saturating
                        // bandwidth.
                        let n_active = count.max(1);
                        let share = node.domain_memory.saturation.bandwidth(n_active) * 1e9
                            / n_active as f64;
                        (t_flops, mem_rank / share, mem_rank)
                    })
                    .collect()
            })
            .collect()
    }

    /// Rank 0's `(t_flops, t_mem)` for one step without penalties: the
    /// in-core/memory split that [`overlapped`] turns into its compute
    /// time, and that the DVFS and throttle laws stretch.
    pub fn split(&self, sig: &WorkloadSignature) -> (f64, f64) {
        let (t_flops, t_mem, _) = self.classes(sig, 1)[0][self.pinning.placement(0).domain];
        (t_flops, t_mem)
    }

    /// Per-step compute times for all ranks.
    ///
    /// `penalties` scales each rank's compute time (≥ 1.0); used for the
    /// lbm data-alignment pathologies. Pass `&[]` for no penalties.
    pub fn compute_times(&self, sig: &WorkloadSignature, penalties: &[f64]) -> ComputeTimes {
        let nranks = self.nranks();
        assert!(
            penalties.is_empty() || penalties.len() == nranks,
            "penalty vector must be empty or match the rank count"
        );
        let classes = self.classes(sig, self.pinning.nodes_used());

        let mut per_rank = Vec::with_capacity(nranks);
        let mut utilization = Vec::with_capacity(nranks);
        let mut effective_mem_total = 0.0;

        for p in &self.pinning.placements {
            let (t_flops, t_mem, mem_rank) = classes[p.node][p.domain];
            effective_mem_total += mem_rank;
            let mut t = overlapped(t_flops, t_mem);
            if !penalties.is_empty() {
                t *= penalties[p.rank].max(1.0);
            }
            per_rank.push(t);
            // Only the DRAM-stall time that is not hidden behind in-core
            // work idles the core; cache-resident data movement keeps
            // the pipelines busy.
            let stall = (t_mem - t_flops).max(0.0);
            utilization.push(if t > 0.0 {
                ((t - stall) / t).clamp(0.0, 1.0)
            } else {
                1.0
            });
        }

        // Victim L3: traffic that no longer reaches memory is served by
        // the L3 instead.
        let dropped = sig.mem_bytes - effective_mem_total;
        ComputeTimes {
            per_rank,
            utilization,
            effective_mem_bytes: effective_mem_total,
            effective_l3_bytes: sig.l3_bytes + dropped.max(0.0),
            effective_l2_bytes: sig.l2_bytes,
        }
    }

    /// DRAM bandwidth utilization per (node, domain) for the power
    /// model: achieved bandwidth over the saturation plateau, given the
    /// step's effective memory traffic and duration.
    pub fn dram_utilization(&self, ct: &ComputeTimes, step_seconds: f64) -> Vec<Vec<f64>> {
        let node = &self.cluster.node;
        let nodes_used = self.pinning.nodes_used();
        let domains = node.numa_domains();
        let mut bytes = vec![vec![0.0f64; domains]; nodes_used];
        let per_rank_mem = ct.effective_mem_bytes / self.nranks() as f64;
        for p in &self.pinning.placements {
            bytes[p.node][p.domain] += per_rank_mem;
        }
        let plateau = node.domain_memory.saturation.plateau * 1e9;
        bytes
            .iter()
            .map(|doms| {
                doms.iter()
                    .map(|&b| {
                        if step_seconds <= 0.0 {
                            0.0
                        } else {
                            (b / step_seconds / plateau).clamp(0.0, 1.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_machine::presets;

    /// A strongly memory-bound signature (tealeaf-like).
    fn mem_bound() -> WorkloadSignature {
        WorkloadSignature {
            flops: 1e11,
            simd_fraction: 0.1,
            core_efficiency: 0.5,
            mem_bytes: 4e11, // 0.25 flops/byte
            mem_bytes_per_rank: 0.0,
            l2_bytes: 5e11,
            l3_bytes: 4.5e11,
            working_set_bytes: 4e10, // 40 GB: far beyond LLC
            cache_exponent: 1.0,
            replicated_fraction: 0.0,
            heat: 0.3,
            steps: 10,
        }
    }

    /// A compute-bound signature (sph-exa-like).
    fn compute_bound() -> WorkloadSignature {
        WorkloadSignature {
            flops: 1e13,
            simd_fraction: 0.7,
            core_efficiency: 0.35,
            mem_bytes: 1e10,
            mem_bytes_per_rank: 0.0,
            l2_bytes: 4e10,
            l3_bytes: 2e10,
            working_set_bytes: 2e10,
            cache_exponent: 1.0,
            replicated_fraction: 0.0,
            heat: 1.0,
            steps: 10,
        }
    }

    #[test]
    fn memory_bound_speedup_saturates_within_domain() {
        let cluster = presets::cluster_a();
        let sig = mem_bound();
        let t1 = NodeModel::new(&cluster, 1)
            .compute_times(&sig, &[])
            .max_seconds();
        let t6 = NodeModel::new(&cluster, 6)
            .compute_times(&sig, &[])
            .max_seconds();
        let t18 = NodeModel::new(&cluster, 18)
            .compute_times(&sig, &[])
            .max_seconds();
        let s6 = t1 / t6;
        let s18 = t1 / t18;
        // Strong early speedup, then saturation: 18 cores barely beat 6.
        assert!(s6 > 3.0, "speedup at 6 cores: {s6}");
        assert!(s18 < s6 * 1.6, "no saturation: s6={s6} s18={s18}");
    }

    #[test]
    fn memory_bound_scales_across_domains() {
        let cluster = presets::cluster_a();
        let sig = mem_bound();
        let t18 = NodeModel::new(&cluster, 18)
            .compute_times(&sig, &[])
            .max_seconds();
        let t72 = NodeModel::new(&cluster, 72)
            .compute_times(&sig, &[])
            .max_seconds();
        // Four domains: ~4× the bandwidth of one (paper §4.1.1).
        let s = t18 / t72;
        assert!((s - 4.0).abs() < 0.4, "domain scaling {s}");
    }

    #[test]
    fn compute_bound_scales_linearly() {
        let cluster = presets::cluster_a();
        let sig = compute_bound();
        let t1 = NodeModel::new(&cluster, 1)
            .compute_times(&sig, &[])
            .max_seconds();
        let t36 = NodeModel::new(&cluster, 36)
            .compute_times(&sig, &[])
            .max_seconds();
        let s = t1 / t36;
        assert!((s - 36.0).abs() < 1.0, "compute-bound speedup {s}");
    }

    #[test]
    fn utilization_low_when_memory_bound() {
        let cluster = presets::cluster_a();
        let mean = |ct: ComputeTimes| ct.utilization.iter().sum::<f64>() / 18.0;
        let ct = NodeModel::new(&cluster, 18).compute_times(&mem_bound(), &[]);
        assert!(mean(ct) < 0.5);
        let ct = NodeModel::new(&cluster, 18).compute_times(&compute_bound(), &[]);
        assert!(mean(ct) > 0.99);
    }

    #[test]
    fn cache_fit_reduces_memory_traffic() {
        let cluster = presets::cluster_b();
        let mut sig = mem_bound();
        // Shrink the working set to 2× the effective LLC of a node.
        let node = &cluster.node;
        let llc = node
            .caches
            .effective_llc_capacity(node.cores(), node.sockets) as f64;
        sig.working_set_bytes = 2.0 * llc;
        // All 104 cores active ⇒ the full LLC is in play.
        let ct = NodeModel::new(&cluster, 104).compute_times(&sig, &[]);
        assert!(
            ct.effective_mem_bytes < 0.6 * sig.mem_bytes,
            "cache fit not applied: {} vs {}",
            ct.effective_mem_bytes,
            sig.mem_bytes
        );
        // The dropped traffic reappears as L3 traffic (victim cache).
        assert!(ct.effective_l3_bytes > sig.l3_bytes);
    }

    #[test]
    fn replicated_working_set_defeats_cache_fit() {
        let cluster = presets::cluster_b();
        let node = &cluster.node;
        let llc = node
            .caches
            .effective_llc_capacity(node.cores(), node.sockets) as f64;
        let mut sig = mem_bound();
        sig.working_set_bytes = 2.0 * llc;
        sig.replicated_fraction = 1.0; // soma-style
        let ct = NodeModel::new(&cluster, 104).compute_times(&sig, &[]);
        // 104 replicas of 2×LLC never fit.
        assert!(ct.effective_mem_bytes > 0.9 * sig.mem_bytes);
    }

    #[test]
    fn penalties_slow_down_selected_ranks() {
        let cluster = presets::cluster_a();
        let sig = compute_bound();
        let mut pen = vec![1.0; 8];
        pen[7] = 2.0;
        let model = NodeModel::new(&cluster, 8);
        let ct = model.compute_times(&sig, &pen);
        assert!((ct.per_rank[7] / ct.per_rank[0] - 2.0).abs() < 1e-9);
        assert!((ct.max_seconds() - ct.per_rank[7]).abs() < 1e-15);
    }

    #[test]
    fn dram_utilization_saturates_for_memory_bound() {
        let cluster = presets::cluster_a();
        let model = NodeModel::new(&cluster, 18);
        let ct = model.compute_times(&mem_bound(), &[]);
        let u = model.dram_utilization(&ct, ct.max_seconds());
        // Domain 0 fully saturated, others idle.
        assert!(u[0][0] > 0.9, "domain 0 utilization {}", u[0][0]);
        assert_eq!(u[0][3], 0.0);
    }

    #[test]
    fn cluster_b_faster_on_memory_bound_by_bandwidth_ratio() {
        // Paper §4.1.2: memory-bound codes accelerate ~1.5–1.66× on a
        // full ClusterB node vs. a full ClusterA node.
        let sig = mem_bound();
        let ta = NodeModel::new(&presets::cluster_a(), 72)
            .compute_times(&sig, &[])
            .max_seconds();
        let tb = NodeModel::new(&presets::cluster_b(), 104)
            .compute_times(&sig, &[])
            .max_seconds();
        let ratio = ta / tb;
        assert!(ratio > 1.35 && ratio < 1.8, "acceleration factor {ratio}");
    }

    #[test]
    fn rate_mixes_simd_and_scalar_paths() {
        let cluster = presets::cluster_a();
        let model = NodeModel::new(&cluster, 1);
        let mut sig = compute_bound();
        sig.simd_fraction = 1.0;
        let full = model.core_rate(&sig);
        sig.simd_fraction = 0.0;
        let scalar = model.core_rate(&sig);
        // AVX-512: 8 DP lanes ⇒ 8× between fully vectorized and scalar.
        assert!((full / scalar - 8.0).abs() < 1e-9);
    }
}
