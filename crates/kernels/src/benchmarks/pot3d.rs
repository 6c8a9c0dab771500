//! `pot3d` — potential-field solutions of the solar corona
//! (SPEC id 28, Fortran, ~495000 LOC incl. HDF5, collective:
//! `MPI_Allreduce`).
//!
//! The original computes potential-field solutions by solving the
//! Laplace equation in 3-D spherical coordinates with a preconditioned
//! CG sparse solver (paper Table 2). It is the paper's archetypal
//! strongly saturating memory-bound code (§4.1.4 measures its L3 vs. L2
//! bandwidth to demonstrate the victim-L3 behaviour) and is very well
//! vectorized. Multi-node it lands in scaling case A — mild superlinear
//! speedup from cache effects (§5.1).
//!
//! The analog implements a real distributed Jacobi-preconditioned CG for
//! a 7-point Laplacian on the 3-D `(nr, nt, np)` grid (unit metric —
//! the spherical metric terms change coefficients, not structure, so the
//! resource footprint and communication pattern are unaffected), with
//! 6-face halo exchange and the two CG `MPI_Allreduce`s per iteration.
//! The HDF5 I/O of the original is outside the timed kernel and not
//! reproduced.

use spechpc_simmpi::comm::{Comm, ReduceOp};
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::Grid3d;
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pot3dParams {
    pub nr: usize,
    pub nt: usize,
    pub np: usize,
    /// CG iterations (one simulated step = one CG iteration).
    pub iters: u64,
}

pub fn params(class: WorkloadClass) -> Pot3dParams {
    match class {
        WorkloadClass::Test => Pot3dParams {
            nr: 16,
            nt: 18,
            np: 20,
            iters: 40,
        },
        WorkloadClass::Tiny => Pot3dParams {
            nr: 173,
            nt: 361,
            np: 1171,
            iters: 2000,
        },
        WorkloadClass::Small => Pot3dParams {
            nr: 325,
            nt: 450,
            np: 2050,
            iters: 2500,
        },
        WorkloadClass::Medium => Pot3dParams {
            nr: 600,
            nt: 900,
            np: 4100,
            iters: 3000,
        },
        WorkloadClass::Large => Pot3dParams {
            nr: 1100,
            nt: 1800,
            np: 8200,
            iters: 3500,
        },
    }
}

/// The pot3d suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pot3d;

impl Benchmark for Pot3d {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "pot3d",
            spec_id: 28,
            language: "Fortran",
            loc: 495000,
            collective: "Allreduce",
            numerics: "Preconditioned CG for the Laplace equation in 3D spherical coordinates",
            domain: "Solar physics",
            supports_medium_large: true,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                ("Number of nr", p.nr.to_string()),
                ("Number of nt", p.nt.to_string()),
                ("Number of np", p.np.to_string()),
            ],
            steps: p.iters,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let n = (p.nr * p.nt * p.np) as f64;
        // One PCG iteration: 7-pt matvec, Jacobi preconditioner apply,
        // 2 dots, 3 axpys over ~8 resident arrays ⇒ ~88 B, ~22 flops per
        // point (metric terms included).
        WorkloadSignature {
            flops: n * 22.0,
            simd_fraction: 0.97,
            core_efficiency: 0.5,
            mem_bytes: n * 88.0,
            mem_bytes_per_rank: 0.0,
            l2_bytes: n * 140.0,
            l3_bytes: n * 120.0,
            working_set_bytes: n * 8.0 * 8.0,
            cache_exponent: 1.2,
            replicated_fraction: 0.0,
            heat: 0.4,
            steps: p.iters,
        }
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let grid = Grid3d::new(p.nr, p.nt, p.np, nranks);
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                let ((x0, x1), (y0, y1), (z0, z1)) = grid.tile(r);
                let (lx, ly, lz) = (x1 - x0, y1 - y0, z1 - z0);
                let nb = grid.neighbors(r);
                // Face sizes: (−x,+x) = ly·lz, (−y,+y) = lx·lz,
                // (−z,+z) = lx·ly.
                let faces = [ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly];
                for dir in 0..6 {
                    let to = nb[dir];
                    let from = nb[dir ^ 1];
                    let bytes = faces[dir] * 8;
                    let tag = dir as u32;
                    match (to, from) {
                        (Some(to), Some(from)) => prog.push(Op::sendrecv(to, bytes, from, tag)),
                        (Some(to), None) => prog.push(Op::send(to, tag, bytes)),
                        (None, Some(from)) => prog.push(Op::recv(from, tag)),
                        (None, None) => {}
                    }
                }
                prog.push(Op::compute(compute.per_rank[r]));
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
        Box::new(Pot3dKernel::new(p, rank, nranks))
    }
}

/// Real distributed Jacobi-PCG for a 3-D 7-point Laplacian; one
/// [`Kernel::step`] runs one batch of CG iterations on the system
/// `A x = b` with Dirichlet boundaries.
pub struct Pot3dKernel {
    grid: Grid3d,
    rank: usize,
    lx: usize,
    ly: usize,
    lz: usize,
    /// Solution with 1-cell halo: `(lz+2) × (ly+2) × (lx+2)`.
    x: Vec<f64>,
    b: Vec<f64>,
    pub last_residual: f64,
    pub first_residual: f64,
    iters_per_step: usize,
}

impl Pot3dKernel {
    pub fn new(p: Pot3dParams, rank: usize, nranks: usize) -> Self {
        let grid = Grid3d::new(p.nr, p.nt, p.np, nranks);
        let ((x0, x1), (y0, y1), (z0, z1)) = grid.tile(rank);
        let (lx, ly, lz) = (x1 - x0, y1 - y0, z1 - z0);
        let size = (lx + 2) * (ly + 2) * (lz + 2);
        let mut b = vec![0.0; size];
        // Deterministic smooth source term.
        let sx = lx + 2;
        let sxy = sx * (ly + 2);
        for z in 0..lz {
            for y in 0..ly {
                for x in 0..lx {
                    let (gx, gy, gz) = (x0 + x, y0 + y, z0 + z);
                    b[(z + 1) * sxy + (y + 1) * sx + x + 1] = ((gx as f64 * 0.3).sin()
                        + (gy as f64 * 0.2).cos()
                        + (gz as f64 * 0.11).sin())
                        * 0.5;
                }
            }
        }
        Pot3dKernel {
            grid,
            rank,
            lx,
            ly,
            lz,
            x: vec![0.0; size],
            b,
            last_residual: f64::INFINITY,
            first_residual: f64::INFINITY,
            iters_per_step: 25,
        }
    }

    fn strides(&self) -> (usize, usize) {
        let sx = self.lx + 2;
        (sx, sx * (self.ly + 2))
    }

    /// 6-face halo exchange; missing faces keep zero (Dirichlet).
    fn halo(&self, v: &mut [f64], comm: &mut dyn Comm) {
        let (sx, sxy) = self.strides();
        let (lx, ly, lz) = (self.lx, self.ly, self.lz);
        let nb = self.grid.neighbors(self.rank);

        // Helper to gather/scatter one face. dir: 0 −x, 1 +x, 2 −y,
        // 3 +y, 4 −z, 5 +z; `layer` chooses the plane index.
        let gather = |v: &[f64], axis: usize, layer: usize| -> Vec<f64> {
            let mut out = Vec::new();
            match axis {
                0 => {
                    for z in 1..=lz {
                        for y in 1..=ly {
                            out.push(v[z * sxy + y * sx + layer]);
                        }
                    }
                }
                1 => {
                    for z in 1..=lz {
                        for x in 1..=lx {
                            out.push(v[z * sxy + layer * sx + x]);
                        }
                    }
                }
                _ => {
                    for y in 1..=ly {
                        for x in 1..=lx {
                            out.push(v[layer * sxy + y * sx + x]);
                        }
                    }
                }
            }
            out
        };
        let scatter = |v: &mut [f64], axis: usize, layer: usize, data: &[f64]| {
            let mut i = 0;
            match axis {
                0 => {
                    for z in 1..=lz {
                        for y in 1..=ly {
                            v[z * sxy + y * sx + layer] = data[i];
                            i += 1;
                        }
                    }
                }
                1 => {
                    for z in 1..=lz {
                        for x in 1..=lx {
                            v[z * sxy + layer * sx + x] = data[i];
                            i += 1;
                        }
                    }
                }
                _ => {
                    for y in 1..=ly {
                        for x in 1..=lx {
                            v[layer * sxy + y * sx + x] = data[i];
                            i += 1;
                        }
                    }
                }
            }
        };

        // (axis, send-low layer, send-high layer, low halo, high halo)
        let planes = [
            (0usize, 1usize, lx, 0usize, lx + 1),
            (1, 1, ly, 0, ly + 1),
            (2, 1, lz, 0, lz + 1),
        ];
        for (axis, send_lo, send_hi, halo_lo, halo_hi) in planes {
            let lo_nb = nb[2 * axis];
            let hi_nb = nb[2 * axis + 1];
            let tag_up = (2 * axis) as u32; // data moving "up" the axis
            let tag_dn = (2 * axis + 1) as u32;
            // Send up / receive from below.
            if let Some(hi) = hi_nb {
                comm.send(hi, tag_up, &gather(v, axis, send_hi));
            }
            if let Some(lo) = lo_nb {
                comm.send(lo, tag_dn, &gather(v, axis, send_lo));
            }
            let face_len = gather(v, axis, send_lo).len();
            if let Some(lo) = lo_nb {
                let mut buf = vec![0.0; face_len];
                comm.recv(lo, tag_up, &mut buf);
                scatter(v, axis, halo_lo, &buf);
            } else {
                // Dirichlet boundary: the halo face is exactly zero
                // (callers may pass vectors with stale halo entries).
                scatter(v, axis, halo_lo, &vec![0.0; face_len]);
            }
            if let Some(hi) = hi_nb {
                let mut buf = vec![0.0; face_len];
                comm.recv(hi, tag_dn, &mut buf);
                scatter(v, axis, halo_hi, &buf);
            } else {
                scatter(v, axis, halo_hi, &vec![0.0; face_len]);
            }
        }
    }

    /// `A v = 6v − Σ neighbors` (positive-definite 7-point Laplacian
    /// with Dirichlet boundaries).
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let (sx, sxy) = self.strides();
        for z in 1..=self.lz {
            for y in 1..=self.ly {
                for x in 1..=self.lx {
                    let i = z * sxy + y * sx + x;
                    out[i] = 6.0 * v[i]
                        - v[i - 1]
                        - v[i + 1]
                        - v[i - sx]
                        - v[i + sx]
                        - v[i - sxy]
                        - v[i + sxy];
                }
            }
        }
    }

    fn dot(&self, a: &[f64], b: &[f64], comm: &mut dyn Comm) -> f64 {
        let (sx, sxy) = self.strides();
        let mut s = 0.0;
        for z in 1..=self.lz {
            for y in 1..=self.ly {
                for x in 1..=self.lx {
                    let i = z * sxy + y * sx + x;
                    s += a[i] * b[i];
                }
            }
        }
        comm.allreduce_scalar(ReduceOp::Sum, s)
    }
}

impl Kernel for Pot3dKernel {
    fn step(&mut self, comm: &mut dyn Comm) {
        let size = self.x.len();
        let (sx, sxy) = self.strides();
        let mut r = vec![0.0; size];
        let mut z = vec![0.0; size];
        let mut p = vec![0.0; size];
        let mut ap = vec![0.0; size];

        // r = b − A x; Jacobi preconditioner M⁻¹ = 1/6.
        let mut xh = self.x.clone();
        self.halo(&mut xh, comm);
        self.apply(&xh, &mut ap);
        for i in 0..size {
            r[i] = self.b[i] - ap[i];
        }
        // Zero out halo entries of r so they don't pollute the dots.
        for zz in [0, self.lz + 1] {
            for y in 0..self.ly + 2 {
                for x in 0..self.lx + 2 {
                    r[zz * sxy + y * sx + x] = 0.0;
                }
            }
        }
        for i in 0..size {
            z[i] = r[i] / 6.0;
            p[i] = z[i];
        }
        let mut rz = self.dot(&r, &z, comm);
        self.first_residual = self.dot(&r, &r, comm).sqrt();

        for _ in 0..self.iters_per_step {
            self.halo(&mut p, comm);
            self.apply(&p, &mut ap);
            let pap = self.dot(&p, &ap, comm);
            if pap <= 0.0 {
                break;
            }
            let alpha = rz / pap;
            for i in 0..size {
                self.x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..size {
                z[i] = r[i] / 6.0;
            }
            let rz_new = self.dot(&r, &z, comm);
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..size {
                p[i] = z[i] + beta * p[i];
            }
        }
        self.last_residual = self.dot(&r, &r, comm).sqrt();
    }

    fn validate(&self) -> Result<(), String> {
        if !self.last_residual.is_finite() {
            return Err("residual not finite".into());
        }
        if self.last_residual > self.first_residual * 1.001 {
            return Err(format!(
                "PCG diverged: {} → {}",
                self.first_residual, self.last_residual
            ));
        }
        if self.x.iter().any(|v| !v.is_finite()) {
            return Err("non-finite solution entry".into());
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        // Interior sum only: halo entries hold transient axpy values.
        let (sx, sxy) = self.strides();
        let mut s = 0.0;
        for z in 1..=self.lz {
            for y in 1..=self.ly {
                for x in 1..=self.lx {
                    s += self.x[z * sxy + y * sx + x];
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;
    use spechpc_simmpi::threadcomm::ThreadWorld;

    #[test]
    fn pcg_converges_single_rank() {
        let mut k = Pot3dKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        k.step(&mut comm);
        assert!(
            k.last_residual < 0.1 * k.first_residual,
            "PCG stalled: {} → {}",
            k.first_residual,
            k.last_residual
        );
        k.validate().unwrap();
        // More steps keep reducing the residual.
        let r1 = k.last_residual;
        k.step(&mut comm);
        assert!(k.last_residual < r1);
    }

    #[test]
    fn operator_positive_definite_and_symmetric() {
        let k = Pot3dKernel::new(params(WorkloadClass::Test), 0, 1);
        let size = k.x.len();
        let mut v = vec![0.0; size];
        let mut w = vec![0.0; size];
        let (sx, sxy) = k.strides();
        for z in 1..=k.lz {
            for y in 1..=k.ly {
                for x in 1..=k.lx {
                    let i = z * sxy + y * sx + x;
                    v[i] = ((x * 7 + y * 3 + z * 11) % 17) as f64 - 8.0;
                    w[i] = ((x * 13 + y * 5 + z * 2) % 19) as f64 - 9.0;
                }
            }
        }
        let (mut av, mut aw) = (vec![0.0; size], vec![0.0; size]);
        k.apply(&v, &mut av);
        k.apply(&w, &mut aw);
        let d1: f64 = av.iter().zip(&w).map(|(a, b)| a * b).sum();
        let d2: f64 = v.iter().zip(&aw).map(|(a, b)| a * b).sum();
        assert!((d1 - d2).abs() < 1e-9 * d1.abs().max(1.0));
        let vav: f64 = av.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert!(vav > 0.0, "operator must be positive definite");
    }

    #[test]
    fn eight_rank_native_pcg_converges() {
        let p = params(WorkloadClass::Test);
        let residuals = ThreadWorld::run(8, |rank, comm| {
            let mut k = Pot3dKernel::new(p, rank, 8);
            k.step(comm);
            k.validate().unwrap();
            (k.first_residual, k.last_residual)
        });
        // Residuals are global — identical on every rank.
        let (f0, l0) = residuals[0];
        for &(f, l) in &residuals {
            assert!((f - f0).abs() < 1e-9);
            assert!((l - l0).abs() < 1e-9);
        }
        assert!(l0 < 0.1 * f0, "distributed PCG stalled: {f0} → {l0}");
    }

    #[test]
    fn distributed_matches_single_rank_solution() {
        let p = params(WorkloadClass::Test);
        // Global solution sum must agree between 1-rank and 4-rank runs.
        let mut single = Pot3dKernel::new(p, 0, 1);
        let mut comm = SelfComm::new();
        single.step(&mut comm);
        let sum1 = single.checksum();
        let sums = ThreadWorld::run(4, |rank, comm| {
            let mut k = Pot3dKernel::new(p, rank, 4);
            k.step(comm);
            k.checksum()
        });
        let sum4: f64 = sums.iter().sum();
        assert!(
            (sum1 - sum4).abs() < 1e-6 * sum1.abs().max(1.0),
            "decomposition changes the solution: {sum1} vs {sum4}"
        );
    }

    #[test]
    fn signature_is_the_strong_saturator() {
        let sig = Pot3d.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        assert!(sig.intensity() < 0.5);
        assert!(sig.simd_fraction > 0.9);
        // Tiny working set ≈ 4.7 GB.
        let ws = sig.working_set_bytes / 1e9;
        assert!(ws > 3.0 && ws < 8.0, "working set {ws} GB");
    }

    #[test]
    fn step_program_has_two_reductions_and_face_exchanges() {
        let ct = ComputeTimes {
            per_rank: vec![0.01; 8],
            utilization: vec![0.2; 8],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = Pot3d.step_programs(WorkloadClass::Tiny, &ct);
        for p in &progs {
            assert_eq!(p.collective_count(), 2);
            assert!(p.validate().is_ok());
        }
    }
}
