//! LogGP-style communication cost model.
//!
//! Costs depend on message size, the eager/rendezvous protocol regime,
//! and the placement of the communicating ranks (intra-node shared-memory
//! vs. inter-node InfiniBand). Collective costs use standard algorithm
//! models: dissemination barrier and recursive-doubling /
//! Rabenseifner all-reduce.

use spechpc_machine::affinity::Pinning;
use spechpc_machine::cluster::{ClusterSpec, InterconnectSpec};

/// Communication cost model bound to a concrete placement of ranks.
#[derive(Debug, Clone)]
pub struct NetModel {
    interconnect: InterconnectSpec,
    pinning: Pinning,
    /// Sender-side CPU overhead per message (the LogGP `o`), seconds.
    pub send_overhead: f64,
}

impl NetModel {
    /// Build a model for `nprocs` compactly pinned ranks.
    pub fn compact(cluster: &ClusterSpec, nprocs: usize) -> Self {
        NetModel {
            interconnect: cluster.interconnect.clone(),
            pinning: Pinning::new(cluster, nprocs),
            send_overhead: 0.2e-6,
        }
    }

    pub fn nprocs(&self) -> usize {
        self.pinning.nprocs()
    }

    pub fn pinning(&self) -> &Pinning {
        &self.pinning
    }

    pub fn interconnect(&self) -> &InterconnectSpec {
        &self.interconnect
    }

    /// Conservative PDES lookahead (seconds): the inter-node wire
    /// latency, i.e. the LogGP `L` of the interconnect. No message
    /// crossing a node boundary can complete sooner than this after its
    /// post, so a partitioned scheduler (see [`crate::pdes`]) may batch
    /// outgoing cross-partition traffic over windows of this width
    /// without a receiver ever observing it early.
    pub fn lookahead(&self) -> f64 {
        self.interconnect.latency_s
    }

    /// Whether a message of `bytes` uses the eager protocol.
    pub fn is_eager(&self, bytes: usize) -> bool {
        self.interconnect.is_eager(bytes)
    }

    /// Wire time of a point-to-point message between two ranks.
    pub fn p2p_time(&self, from: usize, to: usize, bytes: usize) -> f64 {
        let same_node = self.pinning.same_node(from, to);
        self.interconnect.wire_time(bytes, same_node)
    }

    /// The latency the collectives see: inter-node if the job spans more
    /// than one node, intra-node otherwise.
    fn collective_latency(&self) -> f64 {
        if self.pinning.nodes_used() > 1 {
            self.interconnect.latency_s
        } else {
            self.interconnect.intranode_latency_s
        }
    }

    /// The per-byte cost the collectives see (inverse bandwidth of the
    /// slowest path involved).
    fn collective_byte_time(&self) -> f64 {
        let bw = if self.pinning.nodes_used() > 1 {
            self.interconnect.effective_bandwidth
        } else {
            self.interconnect.intranode_bandwidth
        };
        1.0 / (bw * 1e9)
    }

    /// Dissemination barrier: `⌈log2 p⌉` rounds of small messages.
    pub fn barrier_cost(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * self.collective_latency()
    }

    /// All-reduce cost.
    ///
    /// Small buffers (below the eager threshold): recursive doubling,
    /// `⌈log2 p⌉ · (L + n·G)`. Large buffers: Rabenseifner
    /// reduce-scatter + all-gather, `2·log2(p)·L + 2·(p−1)/p·n·G`.
    pub fn allreduce_cost(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let l = self.collective_latency();
        let g = self.collective_byte_time();
        let rounds = (p as f64).log2().ceil();
        if self.is_eager(bytes) {
            rounds * (l + bytes as f64 * g)
        } else {
            2.0 * rounds * l + 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64 * g
        }
    }

    /// Broadcast cost: binomial tree, `⌈log2 p⌉ · (L + n·G)` for small
    /// buffers; scatter + allgather (van-de-Geijn),
    /// `log2(p)·L + 2·(p−1)/p·n·G`, for large ones.
    pub fn bcast_cost(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let l = self.collective_latency();
        let g = self.collective_byte_time();
        let rounds = (p as f64).log2().ceil();
        if self.is_eager(bytes) {
            rounds * (l + bytes as f64 * g)
        } else {
            rounds * l + 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64 * g
        }
    }

    /// Reduce-to-root cost: binomial tree, `⌈log2 p⌉ · (L + n·G)`, for
    /// small buffers; Rabenseifner reduce-scatter + binomial gather,
    /// `2·log2(p)·L + 2·(p−1)/p·n·G`, for large ones.
    ///
    /// Unlike broadcast's scatter + allgather (which pays `log2(p)·L`),
    /// Rabenseifner reduce traverses the tree twice, so the latency
    /// term is `2·log2(p)·L` — the same as allreduce's, while moving
    /// the same `2·(p−1)/p·n` bytes as broadcast.
    pub fn reduce_cost(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let l = self.collective_latency();
        let g = self.collective_byte_time();
        let rounds = (p as f64).log2().ceil();
        if self.is_eager(bytes) {
            rounds * (l + bytes as f64 * g)
        } else {
            2.0 * rounds * l + 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64 * g
        }
    }

    /// All-gather cost: ring algorithm, `(p−1) · (L + n·G)` with `n`
    /// the per-rank contribution.
    pub fn allgather_cost(&self, p: usize, bytes_per_rank: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let l = self.collective_latency();
        let g = self.collective_byte_time();
        (p as f64 - 1.0) * (l + bytes_per_rank as f64 * g)
    }

    /// All-to-all cost: pairwise exchange, `(p−1) · (L + n·G)` with `n`
    /// the per-peer message size.
    pub fn alltoall_cost(&self, p: usize, bytes_per_peer: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let l = self.collective_latency();
        let g = self.collective_byte_time();
        (p as f64 - 1.0) * (l + bytes_per_peer as f64 * g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_machine::presets;

    fn model(nprocs: usize) -> NetModel {
        NetModel::compact(&presets::cluster_a(), nprocs)
    }

    #[test]
    fn p2p_intra_node_is_cheaper() {
        let m = model(100); // spans two ClusterA nodes (72 cores/node)
        let intra = m.p2p_time(0, 1, 4096);
        let inter = m.p2p_time(0, 80, 4096);
        assert!(intra < inter);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let m2 = model(2).barrier_cost(2);
        let m4 = model(4).barrier_cost(4);
        let m16 = model(16).barrier_cost(16);
        assert!((m4 / m2 - 2.0).abs() < 1e-9);
        assert!((m16 / m2 - 4.0).abs() < 1e-9);
        assert_eq!(model(1).barrier_cost(1), 0.0);
    }

    #[test]
    fn allreduce_small_is_log_latency_bound() {
        let m = model(256);
        let t8 = m.allreduce_cost(8, 8);
        let t64 = m.allreduce_cost(64, 8);
        // 3 rounds vs 6 rounds.
        assert!((t64 / t8 - 2.0).abs() < 0.01);
    }

    #[test]
    fn allreduce_large_is_bandwidth_bound() {
        let m = model(128);
        let one_mib = m.allreduce_cost(128, 1 << 20);
        let two_mib = m.allreduce_cost(128, 2 << 20);
        // Doubling the buffer roughly doubles the cost in the
        // bandwidth-dominated regime.
        let ratio = two_mib / one_mib;
        assert!(ratio > 1.8 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = model(1);
        assert_eq!(m.allreduce_cost(1, 1 << 20), 0.0);
        assert_eq!(m.barrier_cost(1), 0.0);
    }

    #[test]
    fn single_node_job_uses_intranode_latency() {
        let single = model(36);
        let multi = model(144);
        assert!(single.barrier_cost(36) < multi.barrier_cost(36));
    }

    #[test]
    fn bcast_cheaper_than_allreduce_for_large_buffers() {
        let m = model(64);
        let n = 4 << 20;
        assert!(m.bcast_cost(64, n) < m.allreduce_cost(64, n));
    }

    #[test]
    fn large_message_collective_ordering_bcast_reduce_allreduce() {
        // Large buffers: broadcast (scatter + allgather) pays log2(p)·L,
        // Rabenseifner reduce pays 2·log2(p)·L — strictly more — and
        // allreduce is never cheaper than reduce. All three move the
        // same 2·(p−1)/p·n bytes.
        for p in [3usize, 6, 64, 100] {
            let m = model(p.max(64));
            let n = 4 << 20;
            let bcast = m.bcast_cost(p, n);
            let reduce = m.reduce_cost(p, n);
            let allreduce = m.allreduce_cost(p, n);
            assert!(bcast < reduce, "p={p}: bcast {bcast} !< reduce {reduce}");
            assert!(
                reduce <= allreduce + 1e-15,
                "p={p}: reduce {reduce} !<= allreduce {allreduce}"
            );
            // The reduce-vs-bcast gap is pure latency (one extra
            // log2(p)·L leg), so it must not depend on the buffer size.
            let gap_4m = reduce - bcast;
            let gap_8m = m.reduce_cost(p, 2 * n) - m.bcast_cost(p, 2 * n);
            assert!(
                (gap_4m - gap_8m).abs() < 1e-12,
                "p={p}: gap changed with size: {gap_4m} vs {gap_8m}"
            );
        }
        // Small (eager) buffers: binomial tree for both directions —
        // reduce and bcast agree.
        let m = model(64);
        assert!((m.reduce_cost(64, 256) - m.bcast_cost(64, 256)).abs() < 1e-18);
    }

    #[test]
    fn allgather_and_alltoall_scale_linearly_in_ranks() {
        let m = model(256);
        let g32 = m.allgather_cost(32, 4096);
        let g64 = m.allgather_cost(64, 4096);
        assert!((g64 / g32 - 63.0 / 31.0).abs() < 1e-9);
        let a32 = m.alltoall_cost(32, 4096);
        let a64 = m.alltoall_cost(64, 4096);
        assert!((a64 / a32 - 63.0 / 31.0).abs() < 1e-9);
        assert_eq!(m.allgather_cost(1, 4096), 0.0);
        assert_eq!(m.alltoall_cost(1, 4096), 0.0);
    }

    #[test]
    fn eager_classification_delegates_to_interconnect() {
        let m = model(4);
        assert!(m.is_eager(8));
        assert!(!m.is_eager(1 << 20));
    }

    #[test]
    fn non_power_of_two_ranks_round_up_to_next_power() {
        // ⌈log2⌉ rounds: p = 3 behaves like p = 4, p = 6 like p = 8.
        let m = model(64);
        assert_eq!(m.barrier_cost(3), m.barrier_cost(4));
        assert_eq!(m.barrier_cost(6), m.barrier_cost(8));
        assert!(m.barrier_cost(100) > m.barrier_cost(64));
        assert_eq!(m.allreduce_cost(3, 8), m.allreduce_cost(4, 8));
        // Bandwidth terms carry the exact (p−1)/p factor, so large
        // buffers do distinguish 3 from 4.
        assert!(m.allreduce_cost(3, 4 << 20) < m.allreduce_cost(4, 4 << 20));
    }

    #[test]
    fn zero_byte_collectives_cost_latency_only() {
        let m = model(8);
        let ar = m.allreduce_cost(8, 0);
        assert!(ar > 0.0, "latency still applies");
        assert_eq!(m.bcast_cost(8, 0), m.reduce_cost(8, 0));
        // Adding payload can only increase cost.
        assert!(m.allreduce_cost(8, 4096) > ar);
    }

    #[test]
    fn zero_byte_p2p_costs_latency_only() {
        let m = model(100);
        let t0 = m.p2p_time(0, 80, 0);
        assert!(t0 > 0.0);
        assert!(m.p2p_time(0, 80, 1 << 20) > t0);
    }
}
