//! `hpgmgfv` — finite-volume high-performance geometric multigrid
//! (SPEC id 34, C, ~16700 LOC, collective: `MPI_Allreduce`).
//!
//! HPGMG-FV solves variable-coefficient elliptic problems on Cartesian
//! grids with a full multigrid method (paper Table 2). In the study it
//! is memory-bound but only *weakly* saturating — it becomes less
//! memory-bound with more cores (§4.1.4) because coarse levels live in
//! cache. Multi-node it is scaling case C (§5.1): memory traffic drops
//! with node count (cache effects) but the anticipated superlinear
//! speedup is outweighed by growing communication cost — V-cycles
//! exchange halos on *every* level, and the coarse levels send many
//! latency-bound small messages; reductions add on top.
//!
//! The analog implements a real 3-D Poisson V-cycle: Jacobi smoothing,
//! full-weighting restriction, trilinear prolongation, a direct smooth
//! at the coarsest level, 1-cell halo exchange per smoother application
//! on every level (slab decomposition in z), and the residual-norm
//! `MPI_Allreduce`. The tested invariant is the multigrid contraction:
//! each V-cycle reduces the residual by a grid-independent factor.

use spechpc_simmpi::comm::{Comm, ReduceOp};
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::{block_range, Grid3d};
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpgmgParams {
    /// log2 of the box dimension (finest-grid boxes are `2^box` cells).
    pub log2_box: u32,
    /// log2 of the global grid dimension.
    pub log2_grid: u32,
    pub steps: u64,
}

impl HpgmgParams {
    pub fn grid_dim(&self) -> usize {
        1 << self.log2_grid
    }
    /// Multigrid levels down to 4³.
    pub fn levels(&self) -> u32 {
        self.log2_grid.saturating_sub(2).max(1)
    }
}

pub fn params(class: WorkloadClass) -> HpgmgParams {
    match class {
        WorkloadClass::Test => HpgmgParams {
            log2_box: 3,
            log2_grid: 5,
            steps: 3,
        },
        WorkloadClass::Tiny => HpgmgParams {
            log2_box: 5,
            log2_grid: 9,
            steps: 300,
        },
        WorkloadClass::Small => HpgmgParams {
            log2_box: 5,
            log2_grid: 10,
            steps: 300,
        },
        WorkloadClass::Medium => HpgmgParams {
            log2_box: 5,
            log2_grid: 11,
            steps: 300,
        },
        WorkloadClass::Large => HpgmgParams {
            log2_box: 5,
            log2_grid: 12,
            steps: 300,
        },
    }
}

/// The hpgmgfv suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hpgmgfv;

impl Benchmark for Hpgmgfv {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "hpgmgfv",
            spec_id: 34,
            language: "C",
            loc: 16700,
            collective: "Allreduce",
            numerics: "Finite-volume geometric multigrid, variable-coefficient elliptic",
            domain: "Cosmology, astrophysics, combustion",
            supports_medium_large: true,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                ("Log to base 2 of the box dimension", p.log2_box.to_string()),
                (
                    "Log to base 2 of the grid dimension",
                    p.log2_grid.to_string(),
                ),
                ("Number of time-steps", p.steps.to_string()),
            ],
            steps: p.steps,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let n = (p.grid_dim() as f64).powi(3);
        // One V-cycle: ~4 smoother sweeps + residual + transfer on the
        // fine level, coarser levels add the 1/7 geometric tail.
        let level_factor = 8.0 / 7.0;
        WorkloadSignature {
            flops: n * 30.0 * level_factor,
            simd_fraction: 0.75,
            core_efficiency: 0.5,
            mem_bytes: n * 110.0 * level_factor,
            mem_bytes_per_rank: 0.0,
            l2_bytes: n * 180.0 * level_factor,
            l3_bytes: n * 150.0 * level_factor,
            working_set_bytes: n * 4.0 * 8.0 * level_factor,
            cache_exponent: 1.0,
            replicated_fraction: 0.0,
            heat: 0.45,
            steps: p.steps,
        }
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let dim = p.grid_dim();
        let grid = Grid3d::new(dim, dim, dim, nranks);
        let levels = p.levels();
        // Compute share of level l (geometric decay 1/8 per level).
        let weights: Vec<f64> = (0..levels).map(|l| 0.125f64.powi(l as i32)).collect();
        let wsum: f64 = weights.iter().sum::<f64>() * 2.0; // down + up legs
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                let ((x0, x1), (y0, y1), (z0, z1)) = grid.tile(r);
                let nb = grid.neighbors(r);
                // Down-leg then up-leg: halo exchange + compute per level.
                for leg in 0..2u32 {
                    let levels_iter: Vec<u32> = if leg == 0 {
                        (0..levels).collect()
                    } else {
                        (0..levels).rev().collect()
                    };
                    for l in levels_iter {
                        let shrink = 1usize << l;
                        let (lx, ly, lz) = (
                            ((x1 - x0) / shrink).max(1),
                            ((y1 - y0) / shrink).max(1),
                            ((z1 - z0) / shrink).max(1),
                        );
                        let faces = [ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly];
                        // HPGMG exchanges ghost zones *per box*
                        // (2^log2_box cells across): each face is
                        // fragmented into one message per box face,
                        // which makes the fine levels message-count
                        // heavy and the coarse levels latency-bound —
                        // the §5.1 case-C communication growth.
                        // Boxes hold up to 32³ cells at every level (coarse
                        // levels simply have fewer boxes), so the per-box
                        // face is 32² cells.
                        let box_face = 1usize << (2 * p.log2_box);
                        // Each level visit applies two smoother sweeps
                        // plus a residual/transfer, each needing fresh
                        // ghosts: three exchange rounds.
                        for round in 0..3u32 {
                            for dir in 0..6 {
                                let to = nb[dir];
                                let from = nb[dir ^ 1];
                                let face_cells = faces[dir];
                                let frags = (face_cells / box_face).clamp(1, 16);
                                let bytes = face_cells * 8 / frags;
                                for frag in 0..frags {
                                    let tag = leg * 100_000
                                        + round * 20_000
                                        + l * 2000
                                        + dir as u32 * 100
                                        + frag as u32;
                                    match (to, from) {
                                        (Some(to), Some(from)) => {
                                            prog.push(Op::sendrecv(to, bytes, from, tag))
                                        }
                                        (Some(to), None) => prog.push(Op::send(to, tag, bytes)),
                                        (None, Some(from)) => prog.push(Op::recv(from, tag)),
                                        (None, None) => {}
                                    }
                                }
                            }
                        }
                        let share = 0.125f64.powi(l as i32) / wsum;
                        prog.push(Op::compute(compute.per_rank[r] * share));
                        // Coarse-grid iterative solve: residual checks.
                        if l + 1 == levels {
                            for _ in 0..8 {
                                prog.push(Op::allreduce(8));
                            }
                        }
                    }
                }
                // Residual norm of the cycle.
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
        Box::new(HpgmgKernel::new(p, rank, nranks))
    }
}

/// One multigrid level: slab-decomposed (in z) field with 1-cell halo.
struct Level {
    /// Global cells per dimension at this level.
    dim: usize,
    /// Local z-extent (slab), plus the x/y extents (= dim).
    lz: usize,
    /// Solution, right-hand side, residual: `(lz+2) × dim × dim`
    /// (x/y periodic wrap handled by index arithmetic).
    u: Vec<f64>,
    b: Vec<f64>,
}

/// Real V-cycle Poisson solver. `Kernel::step` = one V-cycle.
pub struct HpgmgKernel {
    rank: usize,
    nranks: usize,
    levels: Vec<Level>,
    pub last_residual: f64,
    pub residual_history: Vec<f64>,
}

impl HpgmgKernel {
    pub fn new(p: HpgmgParams, rank: usize, nranks: usize) -> Self {
        // Executable scale: cap the grid; slabs need ≥ 2 planes per
        // rank at every level, which bounds nranks for native runs.
        let dim = p.grid_dim().min(32);
        let nlev = (dim.trailing_zeros().saturating_sub(1)).max(1);
        let mut levels = Vec::new();
        for l in 0..nlev {
            let d = dim >> l;
            let (z0, z1) = block_range(d, nranks, rank);
            let lz = z1 - z0;
            assert!(lz >= 1, "level {l}: slab too thin for {nranks} ranks");
            let mut level = Level {
                dim: d,
                lz,
                u: vec![0.0; (lz + 2) * d * d],
                b: vec![0.0; (lz + 2) * d * d],
            };
            if l == 0 {
                // Deterministic oscillatory RHS, made exactly zero-mean
                // (the periodic Laplacian is singular on constants, so a
                // mean component could never be resolved). The global
                // mean is computed redundantly on every rank — cheap at
                // executable scale and communication-free.
                let rhs = |x: usize, y: usize, gz: usize| -> f64 {
                    ((x as f64 * 0.7).sin() * (y as f64 * 0.5).cos() * (gz as f64 * 0.3).sin())
                        * 2.0
                };
                let mut mean = 0.0;
                for gz in 0..d {
                    for y in 0..d {
                        for x in 0..d {
                            mean += rhs(x, y, gz);
                        }
                    }
                }
                mean /= (d * d * d) as f64;
                for z in 0..lz {
                    for y in 0..d {
                        for x in 0..d {
                            let i = ((z + 1) * d + y) * d + x;
                            level.b[i] = rhs(x, y, z0 + z) - mean;
                        }
                    }
                }
            }
            levels.push(level);
        }
        HpgmgKernel {
            rank,
            nranks,
            levels,
            last_residual: f64::INFINITY,
            residual_history: Vec::new(),
        }
    }

    /// Exchange the z-halo planes of level `l`'s `u` field.
    fn halo(&mut self, l: usize, comm: &mut dyn Comm) {
        let level = &self.levels[l];
        let d = level.dim;
        let lz = level.lz;
        let plane = d * d;
        let up = (self.rank + 1) % self.nranks;
        let down = (self.rank + self.nranks - 1) % self.nranks;
        let top: Vec<f64> = self.levels[l].u[lz * plane..(lz + 1) * plane].to_vec();
        let bottom: Vec<f64> = self.levels[l].u[plane..2 * plane].to_vec();
        let mut from_below = vec![0.0; plane];
        let mut from_above = vec![0.0; plane];
        if self.nranks > 1 {
            let tag = (l * 4) as u32;
            comm.send(up, tag, &top);
            comm.send(down, tag + 1, &bottom);
            comm.recv(down, tag, &mut from_below);
            comm.recv(up, tag + 1, &mut from_above);
        } else {
            // Periodic wrap on a single rank.
            from_below.copy_from_slice(&top);
            from_above.copy_from_slice(&bottom);
        }
        self.levels[l].u[0..plane].copy_from_slice(&from_below);
        let off = (lz + 1) * plane;
        self.levels[l].u[off..off + plane].copy_from_slice(&from_above);
    }

    /// Residual `r = b − A u` at level `l` into `out` (interior planes).
    /// `A = −∇²` (periodic in x/y, rank-exchanged in z).
    fn residual(&self, l: usize, out: &mut [f64]) {
        let level = &self.levels[l];
        let d = level.dim;
        for z in 1..=level.lz {
            for y in 0..d {
                for x in 0..d {
                    let xm = (x + d - 1) % d;
                    let xp = (x + 1) % d;
                    let ym = (y + d - 1) % d;
                    let yp = (y + 1) % d;
                    let i = (z * d + y) * d + x;
                    let au = 6.0 * level.u[i]
                        - level.u[(z * d + y) * d + xm]
                        - level.u[(z * d + y) * d + xp]
                        - level.u[(z * d + ym) * d + x]
                        - level.u[(z * d + yp) * d + x]
                        - level.u[((z - 1) * d + y) * d + x]
                        - level.u[((z + 1) * d + y) * d + x];
                    out[i] = level.b[i] - au;
                }
            }
        }
    }

    /// Weighted-Jacobi smoothing sweeps on level `l`.
    fn smooth(&mut self, l: usize, sweeps: usize, comm: &mut dyn Comm) {
        let omega = 6.0 / 7.0;
        for _ in 0..sweeps {
            self.halo(l, comm);
            let level = &self.levels[l];
            let d = level.dim;
            let mut unew = level.u.clone();
            for z in 1..=level.lz {
                for y in 0..d {
                    for x in 0..d {
                        let xm = (x + d - 1) % d;
                        let xp = (x + 1) % d;
                        let ym = (y + d - 1) % d;
                        let yp = (y + 1) % d;
                        let i = (z * d + y) * d + x;
                        let nb_sum = level.u[(z * d + y) * d + xm]
                            + level.u[(z * d + y) * d + xp]
                            + level.u[(z * d + ym) * d + x]
                            + level.u[(z * d + yp) * d + x]
                            + level.u[((z - 1) * d + y) * d + x]
                            + level.u[((z + 1) * d + y) * d + x];
                        let jac = (level.b[i] + nb_sum) / 6.0;
                        unew[i] = (1.0 - omega) * level.u[i] + omega * jac;
                    }
                }
            }
            self.levels[l].u = unew;
        }
    }

    /// Global L2 norm of the fine-level residual.
    fn residual_norm(&mut self, comm: &mut dyn Comm) -> f64 {
        self.halo(0, comm);
        let level = &self.levels[0];
        let mut r = vec![0.0; level.u.len()];
        self.residual(0, &mut r);
        let local: f64 = r.iter().map(|x| x * x).sum();
        comm.allreduce_scalar(ReduceOp::Sum, local).sqrt()
    }
}

impl Kernel for HpgmgKernel {
    /// One V(2,2)-cycle.
    fn step(&mut self, comm: &mut dyn Comm) {
        let nlev = self.levels.len();
        // Down leg.
        for l in 0..nlev - 1 {
            self.smooth(l, 2, comm);
            self.halo(l, comm);
            let mut r = vec![0.0; self.levels[l].u.len()];
            self.residual(l, &mut r);
            // Full-weighting (here: 8-cell averaging) restriction of the
            // residual to the coarse RHS; coarse u starts at zero.
            let (df, lzf) = (self.levels[l].dim, self.levels[l].lz);
            let dc = self.levels[l + 1].dim;
            let lzc = self.levels[l + 1].lz;
            debug_assert_eq!(lzf, lzc * 2, "slab sizes must nest");
            let coarse = &mut self.levels[l + 1];
            coarse.u.iter_mut().for_each(|v| *v = 0.0);
            for z in 0..lzc {
                for y in 0..dc {
                    for x in 0..dc {
                        let mut s = 0.0;
                        for dz in 0..2 {
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let i = ((2 * z + dz + 1) * df + 2 * y + dy) * df + 2 * x + dx;
                                    s += r[i];
                                }
                            }
                        }
                        let i = ((z + 1) * dc + y) * dc + x;
                        // Factor 4 = h²-scaling of −∇² under coarsening
                        // (restriction avg × 4 keeps the operator
                        // consistent in cell units).
                        coarse.b[i] = s / 8.0 * 4.0;
                    }
                }
            }
        }
        // Coarsest solve: many smoothing sweeps.
        self.smooth(nlev - 1, 20, comm);
        // Up leg.
        for l in (0..nlev - 1).rev() {
            // Prolongate (piecewise-constant injection) and correct.
            let dc = self.levels[l + 1].dim;
            let lzc = self.levels[l + 1].lz;
            let df = self.levels[l].dim;
            let correction: Vec<f64> = self.levels[l + 1].u.clone();
            let fine = &mut self.levels[l];
            for z in 0..lzc {
                for y in 0..dc {
                    for x in 0..dc {
                        let c = correction[((z + 1) * dc + y) * dc + x];
                        for dz in 0..2 {
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let i = ((2 * z + dz + 1) * df + 2 * y + dy) * df + 2 * x + dx;
                                    fine.u[i] += c;
                                }
                            }
                        }
                    }
                }
            }
            self.smooth(l, 2, comm);
        }
        self.last_residual = self.residual_norm(comm);
        self.residual_history.push(self.last_residual);
    }

    fn validate(&self) -> Result<(), String> {
        if !self.last_residual.is_finite() {
            return Err("residual not finite".into());
        }
        // Contraction: each cycle must reduce the residual.
        for w in self.residual_history.windows(2) {
            if w[1] > w[0] * 1.01 {
                return Err(format!("V-cycle diverged: {} → {}", w[0], w[1]));
            }
        }
        if self.levels[0].u.iter().any(|v| !v.is_finite()) {
            return Err("non-finite solution".into());
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        let level = &self.levels[0];
        let d = level.dim;
        let mut s = 0.0;
        for z in 1..=level.lz {
            for y in 0..d {
                for x in 0..d {
                    s += level.u[(z * d + y) * d + x];
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
    fn vcycle_contracts_the_residual() {
        let mut k = HpgmgKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        let r0 = k.residual_norm(&mut comm);
        k.step(&mut comm);
        let r1 = k.last_residual;
        k.step(&mut comm);
        let r2 = k.last_residual;
        assert!(r1 < 0.35 * r0, "weak first contraction: {r0} → {r1}");
        assert!(r2 < 0.35 * r1, "weak second contraction: {r1} → {r2}");
        k.validate().unwrap();
    }

    #[test]
    fn two_rank_native_vcycle_contracts() {
        let p = params(WorkloadClass::Test);
        let results = ThreadWorld::run(2, |rank, comm| {
            let mut k = HpgmgKernel::new(p, rank, 2);
            k.step(comm);
            k.step(comm);
            k.validate().unwrap();
            k.residual_history.clone()
        });
        // Residual norms are global: identical across ranks.
        assert_eq!(results[0].len(), 2);
        for i in 0..2 {
            assert!((results[0][i] - results[1][i]).abs() < 1e-9);
        }
        assert!(results[0][1] < results[0][0]);
    }

    #[test]
    fn signature_weakly_memory_bound() {
        let sig = Hpgmgfv.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        // Higher intensity than the strong saturators (tealeaf ~0.175),
        // still well below compute-bound codes.
        let i = sig.intensity();
        assert!(i > 0.2 && i < 1.0, "intensity {i}");
    }

    #[test]
    fn step_program_touches_every_level_twice() {
        let ct = ComputeTimes {
            per_rank: vec![0.01; 8],
            utilization: vec![0.2; 8],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let p = params(WorkloadClass::Tiny);
        let progs = Hpgmgfv.step_programs(WorkloadClass::Tiny, &ct);
        for prog in &progs {
            // 2 legs × levels compute phases.
            let computes = prog
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Compute { .. }))
                .count();
            assert_eq!(computes, 2 * p.levels() as usize);
            // Compute budget preserved.
            assert!((prog.compute_seconds() - 0.01).abs() < 1e-12);
            assert!(prog.validate().is_ok());
            // Coarse levels send small (latency-bound) messages: the
            // smallest message must be far below the eager threshold.
            let min_msg = prog
                .ops
                .iter()
                .filter_map(|o| match o {
                    Op::Sendrecv { send_bytes, .. } => Some(*send_bytes),
                    Op::Send { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .min()
                .unwrap_or(usize::MAX);
            assert!(min_msg < 64 * 1024, "no small coarse-level messages");
        }
    }

    #[test]
    fn config_matches_table_1() {
        let cfg = Hpgmgfv.config(WorkloadClass::Tiny);
        assert_eq!(cfg.param("Log to base 2 of the box dimension"), Some("5"));
        assert_eq!(cfg.param("Log to base 2 of the grid dimension"), Some("9"));
        assert_eq!(cfg.steps, 300);
        let cfg = Hpgmgfv.config(WorkloadClass::Small);
        assert_eq!(cfg.param("Log to base 2 of the grid dimension"), Some("10"));
    }
}
