//! `soma` — Monte-Carlo acceleration for soft coarse-grained polymers
//! (SPEC id 13, C, ~9500 LOC, collective: `MPI_Allreduce`).
//!
//! SOMA simulates soft polymer melts: polymer chains move by Monte-Carlo
//! displacements in a self-consistent density field that must be kept
//! globally synchronized — each rank holds a **full replica** of the
//! density grid and the replicas are combined by a large per-step
//! `MPI_Allreduce`. That replica is the root of the paper's "intriguing
//! non-memory-bound case of soma" (§5.1.2): aggregate memory traffic
//! rises *linearly* with the rank count while the reduction overhead
//! rises logarithmically, so per-node bandwidth climbs (to ~150 GB/s on
//! ClusterA, far below the 306 GB/s limit) and then sits constant while
//! scaling stops. soma is also the *coolest* code of the suite — 89 %/
//! 85 % of socket TDP (§4.2.1) — and the most reduction-bound (§5).
//!
//! The analog implements a real MC polymer model: bead chains with
//! harmonic bonds and a soft density-repulsion term, Metropolis
//! acceptance driven by a deterministic per-rank RNG, local density-grid
//! accumulation, and the global density `MPI_Allreduce` every step.

use spechpc_simmpi::comm::{Comm, ReduceOp};
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::model::ComputeTimes;
use crate::common::rng::Rng;
use crate::common::signature::WorkloadSignature;

/// Beads per polymer chain (SOMA's default coarse-graining).
const BEADS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SomaParams {
    pub polymers: usize,
    pub steps: u64,
    pub seed: u64,
    /// Density grid cells per dimension (replicated on every rank).
    pub grid: usize,
}

pub fn params(class: WorkloadClass) -> SomaParams {
    match class {
        WorkloadClass::Test => SomaParams {
            polymers: 200,
            steps: 5,
            seed: 42,
            grid: 8,
        },
        WorkloadClass::Tiny => SomaParams {
            polymers: 14_000_000,
            steps: 200,
            seed: 42,
            grid: 128, // ~16 MB replica per rank
        },
        WorkloadClass::Small => SomaParams {
            polymers: 25_000_000,
            steps: 400,
            seed: 42,
            // The small workload simulates a larger box: ~48 MB replica.
            grid: 182,
        },
        // soma ships no medium/large workloads.
        WorkloadClass::Medium | WorkloadClass::Large => SomaParams {
            polymers: 50_000_000,
            steps: 400,
            seed: 42,
            grid: 203,
        },
    }
}

/// Bytes of the replicated density grid (one f64 per cell).
pub fn replica_bytes(p: &SomaParams) -> f64 {
    (p.grid * p.grid * p.grid) as f64 * 8.0
}

/// The soma suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Soma;

impl Benchmark for Soma {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "soma",
            spec_id: 13,
            language: "C",
            loc: 9500,
            collective: "Allreduce",
            numerics: "Monte-Carlo acceleration for soft coarse-grained polymers",
            domain: "Physics of polymeric systems",
            supports_medium_large: false,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                (
                    "Initial seed for the random number generator",
                    p.seed.to_string(),
                ),
                ("Number of simulated time steps", p.steps.to_string()),
                ("Number of simulated polymers", p.polymers.to_string()),
            ],
            steps: p.steps,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let beads = (p.polymers * BEADS) as f64;
        let replica = replica_bytes(&p);
        // Distributed polymer data: position + velocity-like state per
        // bead (~24 B) — plus one density replica *per rank* (expressed
        // through replicated_fraction over a one-rank baseline).
        let distributed_ws = beads * 24.0;
        let ws = distributed_ws + replica;
        WorkloadSignature {
            // ~30 flops per MC bead move (bond energy, field lookup,
            // Metropolis) — branchy, gather-heavy, hardly vectorizable.
            flops: beads * 30.0,
            simd_fraction: 0.09,
            core_efficiency: 0.3,
            // Bead sweeps enjoy good chain locality: ~8 B per bead
            // reach DRAM.
            mem_bytes: beads * 8.0,
            // ~1.5 effective passes over the replicated density grid per
            // rank per step (zero/accumulate partially cached, plus the
            // reduction copy): the per-rank traffic behind the §5.1.2
            // anomaly — aggregate memory volume grows linearly with the
            // rank count.
            mem_bytes_per_rank: replica * 1.5,
            l2_bytes: beads * 96.0,
            l3_bytes: beads * 60.0,
            working_set_bytes: ws,
            cache_exponent: 1.0,
            replicated_fraction: replica / ws,
            heat: 0.0,
            steps: p.steps,
        }
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let replica = replica_bytes(&p) as usize;
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                prog.push(Op::compute(compute.per_rank[r]));
                // The big density-field reduction…
                prog.push(Op::allreduce(replica));
                // …plus the small acceptance-statistics reduction.
                prog.push(Op::allreduce(16));
                prog
            })
            .collect()
    }

    fn make_kernel(
        &self,
        class: WorkloadClass,
        rank: usize,
        nranks: usize,
        seed: u64,
    ) -> Box<dyn Kernel> {
        let p = params(class);
        Box::new(SomaKernel::new(p, rank, nranks, seed))
    }
}

/// Real MC polymer kernel: each rank owns `polymers / nranks` chains.
pub struct SomaKernel {
    /// Bead positions, flattened chains: `[chain][bead][xyz]`.
    pos: Vec<[f64; 3]>,
    /// Box edge length (periodic).
    boxl: f64,
    /// Replicated density grid (global state after the allreduce).
    pub density: Vec<f64>,
    grid: usize,
    rng: Rng,
    /// Accepted / attempted moves of the last step.
    pub accepted: u64,
    pub attempted: u64,
    /// Soft repulsion strength against the density field.
    kappa: f64,
    /// Harmonic bond strength.
    kbond: f64,
}

impl SomaKernel {
    pub fn new(p: SomaParams, rank: usize, nranks: usize, seed: u64) -> Self {
        // Miniature executable scale: cap the per-rank chain count so
        // native runs stay tractable; the signature carries full scale.
        let total = p.polymers.min(100_000);
        let chains = crate::common::decomp::block_range(total, nranks, rank);
        let chains = chains.1 - chains.0;
        let boxl = 32.0;
        let mut rng = Rng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut pos = Vec::with_capacity(chains * BEADS);
        for _ in 0..chains {
            // Random-walk chain growth from a random start.
            let mut at = [
                rng.next_f64() * boxl,
                rng.next_f64() * boxl,
                rng.next_f64() * boxl,
            ];
            for _ in 0..BEADS {
                pos.push(at);
                for d in 0..3 {
                    at[d] = (at[d] + rng.next_f64() - 0.5).rem_euclid(boxl);
                }
            }
        }
        let _ = chains;
        SomaKernel {
            pos,
            boxl,
            density: vec![0.0; p.grid * p.grid * p.grid],
            grid: p.grid,
            rng,
            accepted: 0,
            attempted: 0,
            kappa: 2.0,
            kbond: 1.0,
        }
    }

    fn cell_of(&self, p: [f64; 3]) -> usize {
        let g = self.grid as f64;
        let ix = ((p[0] / self.boxl * g) as usize).min(self.grid - 1);
        let iy = ((p[1] / self.boxl * g) as usize).min(self.grid - 1);
        let iz = ((p[2] / self.boxl * g) as usize).min(self.grid - 1);
        (iz * self.grid + iy) * self.grid + ix
    }

    /// Minimum-image distance squared on the periodic box.
    fn dist2(&self, a: [f64; 3], b: [f64; 3]) -> f64 {
        let mut s = 0.0;
        for d in 0..3 {
            let mut dx = (a[d] - b[d]).abs();
            if dx > self.boxl / 2.0 {
                dx = self.boxl - dx;
            }
            s += dx * dx;
        }
        s
    }

    /// Bond energy of bead `i` within its chain.
    fn bond_energy(&self, i: usize, p: [f64; 3]) -> f64 {
        let bead = i % BEADS;
        let mut e = 0.0;
        if bead > 0 {
            e += 0.5 * self.kbond * self.dist2(p, self.pos[i - 1]);
        }
        if bead + 1 < BEADS {
            e += 0.5 * self.kbond * self.dist2(p, self.pos[i + 1]);
        }
        e
    }

    /// Field energy: soft repulsion proportional to the local density.
    fn field_energy(&self, p: [f64; 3]) -> f64 {
        self.kappa * self.density[self.cell_of(p)]
    }

    pub fn bead_count(&self) -> usize {
        self.pos.len()
    }

    /// Adjust the soft-repulsion strength (test hook).
    pub fn set_kappa(&mut self, kappa: f64) {
        self.kappa = kappa;
    }
}

impl Kernel for SomaKernel {
    fn step(&mut self, comm: &mut dyn Comm) {
        // MC sweep: one trial displacement per bead.
        let (mut acc, mut att) = (0u64, 0u64);
        for i in 0..self.pos.len() {
            let old = self.pos[i];
            let mut new = old;
            for d in 0..3 {
                new[d] = (new[d] + (self.rng.next_f64() - 0.5) * 0.5).rem_euclid(self.boxl);
            }
            let de = self.bond_energy(i, new) + self.field_energy(new)
                - self.bond_energy(i, old)
                - self.field_energy(old);
            att += 1;
            if de <= 0.0 || self.rng.next_f64() < (-de).exp() {
                self.pos[i] = new;
                acc += 1;
            }
        }
        self.accepted = acc;
        self.attempted = att;

        // Rebuild the local density contribution and combine the
        // replicas globally — the big per-step Allreduce.
        self.density.iter_mut().for_each(|d| *d = 0.0);
        for i in 0..self.pos.len() {
            let c = self.cell_of(self.pos[i]);
            self.density[c] += 1.0;
        }
        comm.allreduce(ReduceOp::Sum, &mut self.density);
        // Acceptance statistics (the small reduction).
        let mut stats = [acc as f64, att as f64];
        comm.allreduce(ReduceOp::Sum, &mut stats);
    }

    fn validate(&self) -> Result<(), String> {
        if self.attempted > 0 {
            let rate = self.accepted as f64 / self.attempted as f64;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("nonsense acceptance rate {rate}"));
            }
            if rate == 0.0 {
                return Err("no move accepted — dynamics frozen".into());
            }
        }
        for p in &self.pos {
            for d in 0..3 {
                if !(0.0..=self.boxl).contains(&p[d]) {
                    return Err(format!("bead outside the box: {p:?}"));
                }
            }
        }
        let total: f64 = self.density.iter().sum();
        if total < 0.0 {
            return Err("negative total density".into());
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        self.pos.iter().map(|p| p[0] + p[1] + p[2]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;
    use spechpc_simmpi::threadcomm::ThreadWorld;

    #[test]
    fn mc_sweep_moves_beads_and_accepts_reasonably() {
        let mut k = SomaKernel::new(params(WorkloadClass::Test), 0, 1, 42);
        let c0 = k.checksum();
        let mut comm = SelfComm::new();
        k.step(&mut comm);
        k.validate().unwrap();
        assert_ne!(k.checksum(), c0, "beads must move");
        let rate = k.accepted as f64 / k.attempted as f64;
        assert!(rate > 0.2 && rate <= 1.0, "odd acceptance rate {rate}");
    }

    #[test]
    fn density_grid_accounts_for_every_bead() {
        let nranks = 3;
        let p = params(WorkloadClass::Test);
        let results = ThreadWorld::run(nranks, |rank, comm| {
            let mut k = SomaKernel::new(p, rank, nranks, 7);
            k.step(comm);
            (k.bead_count() as f64, k.density.iter().sum::<f64>())
        });
        let total_beads: f64 = results.iter().map(|(b, _)| b).sum();
        // After the allreduce every rank's grid holds the global count.
        for (_, d) in &results {
            assert!(
                (d - total_beads).abs() < 1e-9,
                "density total {d} != bead count {total_beads}"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_checksum() {
        let p = params(WorkloadClass::Test);
        let run = || {
            let mut k = SomaKernel::new(p, 0, 1, 42);
            let mut comm = SelfComm::new();
            for _ in 0..3 {
                k.step(&mut comm);
            }
            k.checksum()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_diverge() {
        let p = params(WorkloadClass::Test);
        let run = |seed| {
            let mut k = SomaKernel::new(p, 0, 1, seed);
            let mut comm = SelfComm::new();
            k.step(&mut comm);
            k.checksum()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn signature_has_replicated_data_and_is_coolest() {
        let sig = Soma.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        assert!(sig.replicated_fraction > 0.0, "soma replicates its field");
        assert_eq!(sig.heat, 0.0, "soma is the coolest code (§4.2.1)");
        assert!(sig.simd_fraction < 0.15, "soma is poorly vectorized");
        // Resident bytes grow with rank count — the §5.1.2 anomaly.
        assert!(sig.resident_bytes(1000) > 2.0 * sig.resident_bytes(1));
    }

    #[test]
    fn step_program_is_reduction_dominated() {
        let ct = ComputeTimes {
            per_rank: vec![0.01; 4],
            utilization: vec![1.0; 4],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = Soma.step_programs(WorkloadClass::Tiny, &ct);
        for p in &progs {
            assert_eq!(p.collective_count(), 2);
            // The density reduction moves the full replica.
            let big = p
                .ops
                .iter()
                .any(|o| matches!(o, Op::Allreduce { bytes } if *bytes > 10 << 20));
            assert!(big, "the density Allreduce must be tens of MiB");
        }
    }

    #[test]
    fn config_matches_table_1() {
        let cfg = Soma.config(WorkloadClass::Tiny);
        assert_eq!(cfg.param("Number of simulated polymers"), Some("14000000"));
        assert_eq!(cfg.steps, 200);
        let cfg = Soma.config(WorkloadClass::Small);
        assert_eq!(cfg.param("Number of simulated polymers"), Some("25000000"));
        assert_eq!(cfg.steps, 400);
    }
}
