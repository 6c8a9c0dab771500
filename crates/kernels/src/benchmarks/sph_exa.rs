//! `sph-exa` — smoothed-particle hydrodynamics
//! (SPEC id 32, C++14, ~3400 LOC, collective: `MPI_Allreduce`).
//!
//! SPH-EXA is a meshless Lagrangian hydrodynamics mini-app (paper
//! Table 2). In the study it is the **hottest** code of the suite —
//! 98 %/97 % of socket TDP (§4.2.1) — compute-bound on the node but with
//! enough cache sensitivity that its ClusterB/ClusterA acceleration
//! (1.48, §4.1.2) exceeds the pure peak-performance ratio. Multi-node it
//! scales poorly: a comparatively small data set meets both significant
//! point-to-point *and* reduction traffic (§5.1), and the 47 % higher
//! single-node baseline on ClusterB makes its scaling efficiency there
//! even worse (§5.1.3).
//!
//! The analog implements real 3-D SPH on a periodic box: cubic-spline
//! kernel, cell-list neighbor search, density summation, symmetric
//! pressure forces (momentum-conserving), leapfrog integration, 1-D slab
//! decomposition with ghost-particle exchange, and the global CFL/energy
//! `MPI_Allreduce`s.

use spechpc_simmpi::comm::{Comm, ReduceOp};
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::{block_range, factor_3d};
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SphParams {
    /// Particles per dimension (total = side³).
    pub side: usize,
    pub steps: u64,
}

pub fn params(class: WorkloadClass) -> SphParams {
    match class {
        WorkloadClass::Test => SphParams { side: 10, steps: 4 },
        WorkloadClass::Tiny => SphParams {
            side: 210,
            steps: 80,
        },
        WorkloadClass::Small => SphParams {
            side: 350,
            steps: 100,
        },
        // sph-exa ships no medium/large workloads.
        WorkloadClass::Medium | WorkloadClass::Large => SphParams {
            side: 500,
            steps: 100,
        },
    }
}

/// The sph-exa suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct SphExa;

impl Benchmark for SphExa {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "sph-exa",
            spec_id: 32,
            language: "C++14",
            loc: 3400,
            collective: "Allreduce",
            numerics: "Smoothed Particle Hydrodynamics (meshless Lagrangian)",
            domain: "Astrophysics and cosmology",
            supports_medium_large: false,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                ("Number of particles to the cube", format!("{}^3", p.side)),
                ("Number of time-steps", p.steps.to_string()),
                ("How often output file shall be written", "-1".into()),
            ],
            steps: p.steps,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let n = (p.side * p.side * p.side) as f64;
        WorkloadSignature {
            // ~2500 flops per particle per step (≈100 neighbors × 25
            // flops, twice: density + forces).
            flops: n * 2500.0,
            simd_fraction: 0.70,
            core_efficiency: 0.35,
            // Neighbor gathers sweep ~500 B per particle through the
            // hierarchy; with the small working set much of it becomes
            // cache-resident — the source of the above-peak-ratio
            // ClusterB acceleration (§4.1.2).
            mem_bytes: n * 500.0,
            mem_bytes_per_rank: 0.0,
            l2_bytes: n * 1000.0,
            l3_bytes: n * 800.0,
            // ~100 B per particle: the "comparatively small data set"
            // (0.93 GB tiny) that makes sph-exa cache-sensitive.
            working_set_bytes: n * 100.0,
            cache_exponent: 1.5,
            replicated_fraction: 0.0,
            heat: 1.0,
            steps: p.steps,
        }
    }

    /// Particle-load imbalance: SPH particles cluster, and with fewer
    /// particles per rank the relative density fluctuation across ranks
    /// grows — the per-step `MPI_Allreduce`s then synchronize everyone
    /// to the slowest rank. This is what caps sph-exa's node-level
    /// efficiency at ~80 % (§4.1.1) and wrecks its multi-node scaling
    /// together with the communication overhead (§5.1).
    fn penalties(&self, class: WorkloadClass, nranks: usize) -> Vec<f64> {
        let p = params(class);
        let total = (p.side * p.side * p.side) as f64;
        let local = total / nranks as f64;
        // Relative imbalance ∝ 1/√(local / cluster size); clusters hold
        // ~4·10⁴ particles.
        let spread = (4.0e4 / local).sqrt().min(1.0);
        (0..nranks)
            .map(|r| {
                // Deterministic per-rank draw in [0, 1].
                let mut h: u64 = r as u64 ^ 0x5DEECE66D;
                h = h.wrapping_mul(0x2545F4914F6CDD1D);
                h ^= h >> 33;
                let u = (h % 10_000) as f64 / 10_000.0;
                1.0 + spread * u
            })
            .collect()
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let n = (p.side * p.side * p.side) as f64;
        // 3-D domain decomposition: ghost layer ≈ the surface shell of
        // the local particle cube, ~2 h thick (h ≈ 2 particle spacings).
        let (px, py, pz) = factor_3d(nranks);
        let local = n / nranks as f64;
        let shell = |dims: usize| -> f64 {
            // Particles in the ghost shell for `dims` split dimensions.
            let cube_side = local.cbrt();
            (dims as f64) * 2.0 * 4.0 * cube_side * cube_side
        };
        let split_dims = [px, py, pz].iter().filter(|&&d| d > 1).count();
        let ghost_particles = shell(split_dims.max(1));
        let ghost_bytes = (ghost_particles * 100.0) as usize;
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                // Ghost exchange with up to 6 face neighbors (ring in
                // each split dimension; simplified to ±1 in rank space
                // per split dimension, matching the slab/pencil/block
                // surface volume).
                let mut req = 0;
                let mut reqs = Vec::new();
                if nranks > 1 {
                    let up = (r + 1) % nranks;
                    let down = (r + nranks - 1) % nranks;
                    // Tag 0: upward-moving ghosts (sent up, received
                    // from below); tag 1: downward-moving ghosts.
                    for (send_to, recv_from, tag) in [(up, down, 0u32), (down, up, 1)] {
                        prog.push(Op::irecv(recv_from, tag, req));
                        reqs.push(req);
                        req += 1;
                        prog.push(Op::isend(send_to, tag, ghost_bytes / 2, req));
                        reqs.push(req);
                        req += 1;
                    }
                }
                for q in reqs {
                    prog.push(Op::wait(q));
                }
                // Density pass, then force pass.
                prog.push(Op::compute(compute.per_rank[r] * 0.45));
                prog.push(Op::compute(compute.per_rank[r] * 0.55));
                // CFL dt, energy check, and domain-rebalance metrics.
                prog.push(Op::allreduce(8));
                prog.push(Op::allreduce(24));
                prog.push(Op::allreduce(8));
                prog.push(Op::allreduce(8));
                prog
            })
            .collect()
    }

    fn make_kernel(
        &self,
        class: WorkloadClass,
        rank: usize,
        nranks: usize,
        _seed: u64,
    ) -> Box<dyn Kernel> {
        let p = params(class);
        Box::new(SphKernel::new(p, rank, nranks))
    }
}

/// Cubic-spline kernel W(r, h), normalized in 3-D.
fn w_cubic(r: f64, h: f64) -> f64 {
    let q = r / h;
    let sigma = 1.0 / (std::f64::consts::PI * h * h * h);
    if q < 1.0 {
        sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q)
    } else if q < 2.0 {
        let t = 2.0 - q;
        sigma * 0.25 * t * t * t
    } else {
        0.0
    }
}

/// Gradient magnitude dW/dr of the cubic spline.
fn dw_cubic(r: f64, h: f64) -> f64 {
    let q = r / h;
    let sigma = 1.0 / (std::f64::consts::PI * h * h * h * h);
    if q < 1.0 {
        sigma * (-3.0 * q + 2.25 * q * q)
    } else if q < 2.0 {
        let t = 2.0 - q;
        sigma * (-0.75 * t * t)
    } else {
        0.0
    }
}

/// Real SPH kernel: 1-D slab decomposition in x with ghost exchange.
pub struct SphKernel {
    rank: usize,
    nranks: usize,
    /// Local particles: position, velocity.
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    pub density: Vec<f64>,
    mass: f64,
    h: f64,
    /// Global box edge; slabs split x.
    boxl: f64,
    /// x-range of the local slab.
    x_lo: f64,
    x_hi: f64,
    dt: f64,
    pub steps_done: u64,
}

impl SphKernel {
    pub fn new(p: SphParams, rank: usize, nranks: usize) -> Self {
        let side = p.side.min(16); // native-executable scale
        let boxl = side as f64;
        let (lo, hi) = block_range(side, nranks, rank);
        let mut pos = Vec::new();
        // Slightly perturbed lattice (deterministic).
        for x in lo..hi {
            for y in 0..side {
                for z in 0..side {
                    let jitter = |a: usize, b: usize, c: usize, k: f64| {
                        (((a * 73 + b * 37 + c * 11) % 97) as f64 / 97.0 - 0.5) * k
                    };
                    pos.push([
                        x as f64 + 0.5 + jitter(x, y, z, 0.2),
                        y as f64 + 0.5 + jitter(y, z, x, 0.2),
                        z as f64 + 0.5 + jitter(z, x, y, 0.2),
                    ]);
                }
            }
        }
        let n = pos.len();
        SphKernel {
            rank,
            nranks,
            pos,
            vel: vec![[0.0; 3]; n],
            density: vec![0.0; n],
            mass: 1.0,
            h: 1.3,
            boxl,
            x_lo: lo as f64,
            x_hi: hi as f64,
            dt: 1e-3,
            steps_done: 0,
        }
    }

    /// Serialize particles near the slab faces for the ghost exchange.
    fn boundary_particles(&self, upper: bool) -> Vec<f64> {
        let cut = 2.0 * self.h;
        let mut out = Vec::new();
        for p in &self.pos {
            let near = if upper {
                self.x_hi - p[0] < cut
            } else {
                p[0] - self.x_lo < cut
            };
            if near {
                out.extend_from_slice(p);
            }
        }
        out
    }

    /// Gather local + ghost particles.
    fn with_ghosts(&self, comm: &mut dyn Comm) -> Vec<[f64; 3]> {
        let mut all = self.pos.clone();
        if self.nranks > 1 {
            let up = (self.rank + 1) % self.nranks;
            let down = (self.rank + self.nranks - 1) % self.nranks;
            let up_msg = self.boundary_particles(true);
            let down_msg = self.boundary_particles(false);
            // Sizes first (they vary), then payloads.
            let mut sizes = [0.0; 1];
            comm.send(up, 0, &[up_msg.len() as f64]);
            comm.send(down, 1, &[down_msg.len() as f64]);
            comm.recv(down, 0, &mut sizes);
            let mut from_down = vec![0.0; sizes[0] as usize];
            comm.recv(up, 1, &mut sizes);
            let mut from_up = vec![0.0; sizes[0] as usize];
            comm.send(up, 2, &up_msg);
            comm.send(down, 3, &down_msg);
            comm.recv(down, 2, &mut from_down);
            comm.recv(up, 3, &mut from_up);
            for chunk in from_down.chunks_exact(3).chain(from_up.chunks_exact(3)) {
                all.push([chunk[0], chunk[1], chunk[2]]);
            }
        }
        all
    }

    /// Minimum-image displacement.
    fn delta(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [0.0; 3];
        for i in 0..3 {
            let mut x = a[i] - b[i];
            if x > self.boxl / 2.0 {
                x -= self.boxl;
            }
            if x < -self.boxl / 2.0 {
                x += self.boxl;
            }
            d[i] = x;
        }
        d
    }

    /// Largest particle speed.
    pub fn max_speed(&self) -> f64 {
        self.vel
            .iter()
            .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
            .fold(0.0, f64::max)
    }

    pub fn total_momentum(&self) -> [f64; 3] {
        let mut m = [0.0; 3];
        for v in &self.vel {
            for d in 0..3 {
                m[d] += self.mass * v[d];
            }
        }
        m
    }
}

impl Kernel for SphKernel {
    fn step(&mut self, comm: &mut dyn Comm) {
        let all = self.with_ghosts(comm);
        let n = self.pos.len();

        // Density summation over local + ghost neighbors (brute force at
        // executable scale; the signature carries cell-list costs).
        for i in 0..n {
            let mut rho = 0.0;
            for pj in &all {
                let d = self.delta(self.pos[i], *pj);
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                if r < 2.0 * self.h {
                    rho += self.mass * w_cubic(r, self.h);
                }
            }
            self.density[i] = rho;
        }

        // Pressure forces, symmetric form (conserves momentum).
        let k_eos = 1.0;
        let rho0 = self.density.iter().sum::<f64>() / n as f64;
        let pressure = |rho: f64| k_eos * (rho - rho0);
        // Ghost densities: approximate by ρ₀ (smooth ICs) — the force
        // asymmetry this introduces vanishes as the lattice relaxes.
        let mut acc = vec![[0.0; 3]; n];
        for i in 0..n {
            let pi = pressure(self.density[i]);
            for (j, pj_pos) in all.iter().enumerate() {
                let d = self.delta(self.pos[i], *pj_pos);
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                if r > 1e-12 && r < 2.0 * self.h {
                    let rho_j = if j < n { self.density[j] } else { rho0 };
                    let pj = pressure(rho_j);
                    let coeff = -self.mass
                        * (pi / (self.density[i] * self.density[i]) + pj / (rho_j * rho_j))
                        * dw_cubic(r, self.h);
                    for dd in 0..3 {
                        acc[i][dd] += coeff * d[dd] / r;
                    }
                }
            }
        }

        // CFL time step: global reduction.
        let vmax = self
            .vel
            .iter()
            .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
            .fold(0.0, f64::max);
        let local_dt = 0.1 * self.h / (vmax + 1.0);
        self.dt = comm.allreduce_scalar(ReduceOp::Min, local_dt).min(1e-2);
        // Energy/diagnostic reductions (as in the original).
        let e_kin: f64 = self
            .vel
            .iter()
            .map(|v| 0.5 * self.mass * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum();
        let _ = comm.allreduce_scalar(ReduceOp::Sum, e_kin);

        // Leapfrog update (positions stay inside the periodic box; at
        // executable scale particles do not cross slab boundaries).
        for i in 0..n {
            for d in 0..3 {
                self.vel[i][d] += self.dt * acc[i][d];
            }
            for d in 0..3 {
                self.pos[i][d] = (self.pos[i][d] + self.dt * self.vel[i][d]).rem_euclid(self.boxl);
            }
        }
        self.steps_done += 1;
    }

    fn validate(&self) -> Result<(), String> {
        for (i, &rho) in self.density.iter().enumerate() {
            if !rho.is_finite() || rho <= 0.0 {
                return Err(format!("bad density {rho} for particle {i}"));
            }
        }
        for v in &self.vel {
            if v.iter().any(|x| !x.is_finite()) {
                return Err("non-finite velocity".into());
            }
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        self.pos.iter().map(|p| p[0] + p[1] + p[2]).sum::<f64>() + self.density.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;
    use spechpc_simmpi::threadcomm::ThreadWorld;

    #[test]
    fn kernel_function_properties() {
        let h = 1.3;
        // Positive inside the support, zero outside.
        assert!(w_cubic(0.0, h) > 0.0);
        assert!(w_cubic(1.9 * h, h) > 0.0);
        assert_eq!(w_cubic(2.1 * h, h), 0.0);
        // Monotonically decreasing.
        assert!(w_cubic(0.0, h) > w_cubic(0.5 * h, h));
        assert!(w_cubic(0.5 * h, h) > w_cubic(1.5 * h, h));
        // Gradient is non-positive (attractive towards the centre).
        assert!(dw_cubic(0.5 * h, h) < 0.0);
        assert_eq!(dw_cubic(2.5 * h, h), 0.0);
    }

    #[test]
    fn density_positive_single_rank() {
        let mut k = SphKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        k.step(&mut comm);
        k.validate().unwrap();
        // On a near-uniform lattice, densities are near-uniform.
        let mean = k.density.iter().sum::<f64>() / k.density.len() as f64;
        for &rho in &k.density {
            assert!(
                (rho - mean).abs() / mean < 0.5,
                "wild density {rho} vs {mean}"
            );
        }
    }

    #[test]
    fn momentum_stays_small_single_rank() {
        // Symmetric pairwise forces: total momentum stays ≈ 0.
        let mut k = SphKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        for _ in 0..3 {
            k.step(&mut comm);
        }
        let p = k.total_momentum();
        let v_scale: f64 = k
            .vel
            .iter()
            .map(|v| v[0].abs() + v[1].abs() + v[2].abs())
            .sum::<f64>()
            .max(1e-30);
        for d in 0..3 {
            assert!(
                p[d].abs() < 1e-8 * v_scale.max(1.0),
                "momentum drift {p:?} vs velocity scale {v_scale}"
            );
        }
    }

    #[test]
    fn two_rank_native_run_is_consistent() {
        let p = params(WorkloadClass::Test);
        let sums = ThreadWorld::run(2, |rank, comm| {
            let mut k = SphKernel::new(p, rank, 2);
            for _ in 0..2 {
                k.step(comm);
            }
            k.validate().unwrap();
            k.density.iter().sum::<f64>()
        });
        assert!(sums.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn signature_is_the_hottest_and_compute_bound() {
        let sig = SphExa.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        assert_eq!(sig.heat, 1.0, "sph-exa is the hottest code (§4.2.1)");
        // Compute-dominated, but with enough cache-hierarchy traffic to
        // be cache-sensitive (intensity 5 against the hierarchy, much
        // higher against DRAM once the set is partially resident).
        assert!(sig.intensity() > 3.0, "compute bound: {}", sig.intensity());
        // Small working set (~0.93 GB): the cache-sensitivity driver.
        let ws = sig.working_set_bytes / 1e9;
        assert!(ws > 0.5 && ws < 1.5, "working set {ws} GB");
        assert!(!SphExa.meta().supports_medium_large);
    }

    #[test]
    fn step_program_mixes_p2p_and_reductions() {
        let ct = ComputeTimes {
            per_rank: vec![0.01; 8],
            utilization: vec![1.0; 8],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = SphExa.step_programs(WorkloadClass::Tiny, &ct);
        for p in &progs {
            assert_eq!(p.collective_count(), 4);
            assert!(p.bytes_sent() > 0);
            assert!(p.validate().is_ok());
        }
    }
}
