//! RAPL-style power accounting for a running job.
//!
//! The model follows the paper's "naive CPU and DRAM power model"
//! (§4.2): package power grows linearly with active cores until the
//! memory-bandwidth bottleneck is hit, after which additional cores
//! stall and contribute less; DRAM power tracks bandwidth utilization
//! and becomes constant at saturation. The calibrated constants live in
//! [`spechpc_machine::cpu::CpuSpec`] and
//! [`spechpc_machine::memory::MemorySpec`].

use spechpc_machine::affinity::Pinning;
use spechpc_machine::cluster::ClusterSpec;

/// Snapshot of one job's execution state, as the power model sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerState {
    /// Code heat in `[0, 1]` (0 = coolest code of the suite, soma;
    /// 1 = hottest, sph-exa).
    pub heat: f64,
    /// Mean core busy fraction (1 − memory-stall fraction) per rank.
    pub utilization: Vec<f64>,
    /// DRAM bandwidth utilization per `[node][domain]`, each in `[0,1]`.
    pub dram_utilization: Vec<Vec<f64>>,
}

/// Power of one job, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobPower {
    /// Total package power over all *allocated* sockets, W.
    pub package_w: f64,
    /// Total DRAM power over all allocated domains, W.
    pub dram_w: f64,
}

impl JobPower {
    pub fn total(&self) -> f64 {
        self.package_w + self.dram_w
    }
}

/// RAPL model bound to a cluster.
#[derive(Debug, Clone)]
pub struct RaplModel<'a> {
    cluster: &'a ClusterSpec,
}

impl<'a> RaplModel<'a> {
    pub fn new(cluster: &'a ClusterSpec) -> Self {
        RaplModel { cluster }
    }

    /// Power drawn by a pinned job in the given state. Allocated nodes
    /// are charged in full (both sockets' baselines and all domains'
    /// DRAM idle power): batch systems allocate whole nodes, which is
    /// exactly why the paper's baseline-power observations matter.
    pub fn job_power(&self, pinning: &Pinning, state: &PowerState) -> JobPower {
        assert_eq!(
            pinning.nprocs(),
            state.utilization.len(),
            "one utilization entry per rank required"
        );
        let node = &self.cluster.node;
        let cpu = &node.cpu;
        let nodes_used = pinning.nodes_used();
        let domains = node.numa_domains();
        let cores_per_socket = cpu.cores_per_socket;

        // Mean utilization of the active cores on each socket.
        let mut socket_active = vec![vec![0usize; node.sockets]; nodes_used];
        let mut socket_util = vec![vec![0.0f64; node.sockets]; nodes_used];
        for p in &pinning.placements {
            let socket = p.core / cores_per_socket;
            socket_active[p.node][socket] += 1;
            socket_util[p.node][socket] += state.utilization[p.rank];
        }

        let mut package_w = 0.0;
        for n in 0..nodes_used {
            for s in 0..node.sockets {
                let active = socket_active[n][s];
                let util = if active > 0 {
                    socket_util[n][s] / active as f64
                } else {
                    0.0
                };
                package_w += cpu.package_power(active, state.heat, util);
            }
        }

        let mut dram_w = 0.0;
        for n in 0..nodes_used {
            for d in 0..domains {
                let u = state
                    .dram_utilization
                    .get(n)
                    .and_then(|v| v.get(d))
                    .copied()
                    .unwrap_or(0.0);
                dram_w += node.domain_memory.dram_power(u);
            }
        }

        JobPower { package_w, dram_w }
    }

    /// The extrapolated zero-core package power of the allocated
    /// nodes — the paper's "baseline power" (§4.2.3).
    pub fn baseline_power(&self, nodes: usize) -> f64 {
        self.cluster.node.cpu.baseline_power_w * (self.cluster.node.sockets * nodes) as f64
    }

    /// TDP of the allocated nodes.
    pub fn tdp(&self, nodes: usize) -> f64 {
        self.cluster.node.tdp() * nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_machine::affinity::Pinning;
    use spechpc_machine::presets;

    fn state(nranks: usize, heat: f64, util: f64, dram: f64, nodes: usize) -> PowerState {
        PowerState {
            heat,
            utilization: vec![util; nranks],
            dram_utilization: vec![vec![dram; 8]; nodes],
        }
    }

    #[test]
    fn hot_full_node_approaches_tdp() {
        let cluster = presets::cluster_a();
        let model = RaplModel::new(&cluster);
        let pin = Pinning::new(&cluster, 72);
        let p = model.job_power(&pin, &state(72, 1.0, 1.0, 0.3, 1));
        // sph-exa: 244 W per socket (§4.2.1) ⇒ ~488 W per node.
        assert!(
            (p.package_w - 488.0).abs() < 10.0,
            "package power {}",
            p.package_w
        );
        assert!(p.package_w <= model.tdp(1));
    }

    #[test]
    fn cool_code_draws_less() {
        let cluster = presets::cluster_a();
        let model = RaplModel::new(&cluster);
        let pin = Pinning::new(&cluster, 72);
        let hot = model.job_power(&pin, &state(72, 1.0, 1.0, 0.2, 1));
        let cool = model.job_power(&pin, &state(72, 0.0, 1.0, 0.2, 1));
        // soma: 222 W per socket ⇒ ~444 W per node.
        assert!((cool.package_w - 444.0).abs() < 10.0, "{}", cool.package_w);
        assert!(cool.package_w < hot.package_w);
    }

    #[test]
    fn single_domain_job_still_pays_both_baselines() {
        let cluster = presets::cluster_a();
        let model = RaplModel::new(&cluster);
        let pin = Pinning::new(&cluster, 18);
        let p = model.job_power(&pin, &state(18, 0.5, 1.0, 0.0, 1));
        // Both sockets idle-baseline at minimum: ≥ 196 W.
        assert!(p.package_w > 2.0 * 98.0);
        // The idle socket contributes exactly its baseline.
        let one_socket_active =
            cluster.node.cpu.package_power(18, 0.5, 1.0) + cluster.node.cpu.baseline_power_w;
        assert!((p.package_w - one_socket_active).abs() < 1e-9);
    }

    #[test]
    fn dram_power_tracks_utilization() {
        let cluster = presets::cluster_a();
        let model = RaplModel::new(&cluster);
        let pin = Pinning::new(&cluster, 72);
        let idle = model.job_power(&pin, &state(72, 0.5, 0.5, 0.0, 1));
        let busy = model.job_power(&pin, &state(72, 0.5, 0.5, 1.0, 1));
        assert!(busy.dram_w > idle.dram_w);
        // Saturated DDR4: 16 W × 4 domains = 64 W per node (§4.2.1).
        assert!((busy.dram_w - 64.0).abs() < 1.0, "{}", busy.dram_w);
        // Idle floor: 9 W × 4 = 36 W.
        assert!((idle.dram_w - 36.0).abs() < 1.0, "{}", idle.dram_w);
    }

    #[test]
    fn ddr5_is_cooler_than_ddr4_at_same_utilization() {
        let a = presets::cluster_a();
        let b = presets::cluster_b();
        let pa = Pinning::new(&a, 72);
        let pb = Pinning::new(&b, 104);
        let da = RaplModel::new(&a).job_power(&pa, &state(72, 0.5, 0.5, 1.0, 1));
        let db = RaplModel::new(&b).job_power(&pb, &state(104, 0.5, 0.5, 1.0, 1));
        // ClusterB has twice the domains, yet its total DRAM power stays
        // comparable (§4.2.3: DDR5 with half-rate clocking).
        assert!(db.dram_w < 1.5 * da.dram_w);
    }

    #[test]
    fn multi_node_power_scales_with_allocated_nodes() {
        let cluster = presets::cluster_a();
        let model = RaplModel::new(&cluster);
        let p1 = {
            let pin = Pinning::new(&cluster, 72);
            model.job_power(&pin, &state(72, 0.5, 1.0, 0.5, 1)).total()
        };
        let p4 = {
            let pin = Pinning::new(&cluster, 288);
            model.job_power(&pin, &state(288, 0.5, 1.0, 0.5, 4)).total()
        };
        assert!((p4 / p1 - 4.0).abs() < 0.01, "ratio {}", p4 / p1);
    }

    #[test]
    fn stalled_cores_flatten_the_power_slope() {
        // Past bandwidth saturation the utilization drops; power keeps
        // growing but more slowly (§4.2).
        let cluster = presets::cluster_a();
        let model = RaplModel::new(&cluster);
        let pin18 = Pinning::new(&cluster, 18);
        let busy = model.job_power(&pin18, &state(18, 0.5, 1.0, 1.0, 1));
        let stalled = model.job_power(&pin18, &state(18, 0.5, 0.2, 1.0, 1));
        assert!(stalled.package_w < busy.package_w);
        assert!(stalled.package_w > model.baseline_power(1));
    }

    #[test]
    fn baseline_fractions_match_paper() {
        let (ca, cb) = (presets::cluster_a(), presets::cluster_b());
        let (a, b) = (RaplModel::new(&ca), RaplModel::new(&cb));
        let fa = a.baseline_power(1) / a.tdp(1);
        let fb = b.baseline_power(1) / b.tdp(1);
        assert!((fa - 0.392).abs() < 0.02, "Ice Lake {fa}");
        assert!((fb - 0.509).abs() < 0.02, "Sapphire Rapids {fb}");
    }
}
