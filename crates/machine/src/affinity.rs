//! Process-to-core affinity — the `likwid-mpirun` analog.
//!
//! The study maps consecutive MPI ranks to consecutive cores ("compact"
//! pinning): nodes fill in order, and within a node the ccNUMA domains
//! fill one after another. Every model reads this one placement.

use crate::cluster::ClusterSpec;

/// The placement of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub rank: usize,
    pub node: usize,
    /// Node-local core id.
    pub core: usize,
    /// Node-local ccNUMA domain id.
    pub domain: usize,
}

/// A compact pinning of `nprocs` ranks onto a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Pinning {
    pub placements: Vec<Placement>,
}

impl Pinning {
    /// Pin `nprocs` ranks compactly on `cluster`: rank `r` runs on core
    /// `r mod cores` of node `r / cores`.
    pub fn new(cluster: &ClusterSpec, nprocs: usize) -> Self {
        assert!(
            nprocs <= cluster.total_cores(),
            "cannot pin {nprocs} ranks on {} cores",
            cluster.total_cores()
        );
        let cpn = cluster.node.cores();
        let layout = cluster.node.domain_layout();
        let placements = (0..nprocs)
            .map(|rank| {
                let core = rank % cpn;
                let domain = crate::numa::domain_of(&layout, core)
                    .expect("core must belong to a domain")
                    .id;
                Placement {
                    rank,
                    node: rank / cpn,
                    core,
                    domain,
                }
            })
            .collect();
        Pinning { placements }
    }

    pub fn nprocs(&self) -> usize {
        self.placements.len()
    }

    pub fn placement(&self, rank: usize) -> Placement {
        self.placements[rank]
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.placements[a].node == self.placements[b].node
    }

    /// Number of nodes touched.
    pub fn nodes_used(&self) -> usize {
        self.placements.last().map(|p| p.node + 1).unwrap_or(0)
    }

    /// Active ranks per (node, domain) pair; outer index node, inner
    /// index domain.
    pub fn active_per_domain(&self, domains_per_node: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![0usize; domains_per_node]; self.nodes_used()];
        for p in &self.placements {
            out[p.node][p.domain] += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn compact_fills_first_domain_first() {
        let c = presets::cluster_a();
        let p = Pinning::new(&c, 20);
        // Ranks 0..18 in domain 0, 18..20 in domain 1 of node 0.
        assert!(p.placements[..18].iter().all(|x| x.domain == 0));
        assert_eq!(p.placements[18].domain, 1);
        assert_eq!(p.placements[19].domain, 1);
        assert_eq!(p.nodes_used(), 1);
    }

    #[test]
    fn multi_node_compact_spills_to_next_node() {
        let c = presets::cluster_a();
        let p = Pinning::new(&c, 100);
        assert_eq!(p.placements[71].node, 0);
        assert_eq!(p.placements[72].node, 1);
        assert_eq!(p.placements[72].core, 0);
        assert_eq!(p.nodes_used(), 2);
        assert!(!p.same_node(71, 72));
    }

    #[test]
    fn every_core_assigned_at_most_once() {
        let c = presets::cluster_b();
        let p = Pinning::new(&c, 2 * c.node.cores());
        let mut seen = std::collections::BTreeSet::new();
        for pl in &p.placements {
            assert!(seen.insert((pl.node, pl.core)), "double booking {pl:?}");
        }
    }

    #[test]
    fn active_per_domain_counts() {
        let c = presets::cluster_a();
        let p = Pinning::new(&c, 40);
        let a = p.active_per_domain(4);
        assert_eq!(a, vec![vec![18, 18, 4, 0]]);
    }

    #[test]
    #[should_panic(expected = "cannot pin")]
    fn overcommit_panics() {
        let c = presets::cluster_a();
        Pinning::new(&c, c.total_cores() + 1);
    }
}
