//! `lbm` — Lattice-Boltzmann D2Q37 2-D CFD solver analog
//! (SPEC id 05, C, ~9000 LOC, collective: `MPI_Barrier`).
//!
//! The original is a D2Q37 LBM with a strongly memory-bound sparse
//! "propagate" kernel and a very compute-intensive "collide" kernel
//! (~6600 flops per lattice-site update, paper §4.1.6). This analog
//! implements a real D2Q37 BGK lattice-Boltzmann method: the full
//! 37-velocity set, Gaussian-weight equilibrium with a self-consistent
//! sound speed (mass and momentum are conserved *exactly*, which the
//! tests verify), pull-scheme propagation with depth-3 halos, and
//! periodic global boundaries.
//!
//! The paper's headline lbm finding — reproducible performance
//! *fluctuations* over the process count, caused by data-alignment
//! pathologies of the many parallel SoA streams (TLB shortage, SIMD
//! remainder/misalignment, L1-set aliasing) — is modelled in
//! [`Lbm::penalties`]: the per-rank tile geometry determines a
//! deterministic slow-down factor, and the per-iteration `MPI_Barrier`
//! (which the paper notes is avoidable) makes every rank wait for the
//! slowest one, exactly as in the ITAC inset of Fig. 2(h).

use spechpc_simmpi::comm::Comm;
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::Grid2d;
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

/// Halo depth: the D2Q37 velocity set reaches 3 lattice cells.
const HALO: usize = 3;

/// Flops per lattice-site update of the original collide kernel (§4.1.6).
const FLOPS_PER_SITE: f64 = 6600.0;

/// Memory traffic per site and step: 37 populations read + written with
/// write-allocate (3 × 37 × 8 B).
const BYTES_PER_SITE: f64 = 37.0 * 8.0 * 3.0;

/// The 37 discrete velocities: all integer `(cx, cy)` with
/// `cx² + cy² ∈ {0, 1, 2, 4, 5, 8, 9, 10}`.
pub fn velocities() -> Vec<(i32, i32)> {
    let mut v = Vec::with_capacity(37);
    for cx in -3i32..=3 {
        for cy in -3i32..=3 {
            let n = cx * cx + cy * cy;
            if matches!(n, 0 | 1 | 2 | 4 | 5 | 8 | 9 | 10) {
                v.push((cx, cy));
            }
        }
    }
    debug_assert_eq!(v.len(), 37);
    v
}

/// Gaussian weights `w_i ∝ exp(−|c_i|²/2)`, normalized to 1, plus the
/// self-consistent squared sound speed `cs² = Σ w_i c_ix²` that makes
/// the second-order equilibrium conserve mass and momentum exactly.
pub fn weights_and_cs2(vel: &[(i32, i32)]) -> (Vec<f64>, f64) {
    let raw: Vec<f64> = vel
        .iter()
        .map(|&(cx, cy)| (-0.5 * (cx * cx + cy * cy) as f64).exp())
        .collect();
    let norm: f64 = raw.iter().sum();
    let w: Vec<f64> = raw.iter().map(|x| x / norm).collect();
    let cs2: f64 = w
        .iter()
        .zip(vel)
        .map(|(wi, &(cx, _))| wi * (cx * cx) as f64)
        .sum();
    (w, cs2)
}

/// Per-class lattice parameters (paper Table 1; medium/large
/// extrapolated with the suite's ~8×-per-class footprint growth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbmParams {
    pub nx: usize,
    pub ny: usize,
    pub steps: u64,
    pub seed: u64,
}

pub fn params(class: WorkloadClass) -> LbmParams {
    match class {
        WorkloadClass::Test => LbmParams {
            nx: 48,
            ny: 96,
            steps: 10,
            seed: 13948,
        },
        WorkloadClass::Tiny => LbmParams {
            nx: 4096,
            ny: 16384,
            steps: 600,
            seed: 13948,
        },
        WorkloadClass::Small => LbmParams {
            nx: 12000,
            ny: 48000,
            steps: 500,
            seed: 13948,
        },
        WorkloadClass::Medium => LbmParams {
            nx: 36000,
            ny: 144000,
            steps: 400,
            seed: 13948,
        },
        WorkloadClass::Large => LbmParams {
            nx: 72000,
            ny: 288000,
            steps: 300,
            seed: 13948,
        },
    }
}

/// Columns-equivalent of populations crossing an x-boundary per halo
/// exchange: `Σ_{cx>0} cx` over the velocity set (= 26; same in y by
/// symmetry).
fn crossing_columns() -> usize {
    velocities().iter().map(|&(cx, _)| cx.max(0) as usize).sum()
}

/// The lbm suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lbm;

impl Benchmark for Lbm {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "lbm",
            spec_id: 5,
            language: "C",
            loc: 9000,
            collective: "Barrier",
            numerics: "Lattice-Boltzmann Method D2Q37",
            domain: "2D CFD solver",
            supports_medium_large: true,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                (
                    "{X,Y}-dimension of lattice",
                    format!("{{{},{}}}", p.nx, p.ny),
                ),
                ("Number of iterations", p.steps.to_string()),
                ("Seed for random number generator", p.seed.to_string()),
            ],
            steps: p.steps,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let sites = (p.nx * p.ny) as f64;
        WorkloadSignature {
            flops: sites * FLOPS_PER_SITE,
            simd_fraction: 0.95,
            core_efficiency: 0.18,
            mem_bytes: sites * BYTES_PER_SITE,
            mem_bytes_per_rank: 0.0,
            l2_bytes: sites * BYTES_PER_SITE * 2.2,
            l3_bytes: sites * BYTES_PER_SITE * 1.5,
            // Two lattices (source + destination of the pull scheme).
            working_set_bytes: sites * 37.0 * 8.0 * 2.0,
            cache_exponent: 3.0,
            replicated_fraction: 0.0,
            heat: 0.65,
            steps: p.steps,
        }
    }

    /// Data-alignment pathology model (§4.1.6). Per-rank slow-down from
    /// the tile geometry:
    ///
    /// * SIMD remainder / misaligned rows when the tile width is not a
    ///   multiple of the 8-lane AVX-512 vector,
    /// * dTLB shortage when the 37 parallel SoA streams touch too many
    ///   distinct 4-KiB pages per row sweep,
    /// * L1-set aliasing when the row stride is a large multiple of the
    ///   4-KiB critical stride (powers of two in the lattice dimensions
    ///   are "particularly susceptible", as the paper notes).
    fn penalties(&self, class: WorkloadClass, nranks: usize) -> Vec<f64> {
        let p = params(class);
        let grid = Grid2d::new(p.nx, p.ny, nranks);
        let uneven = !p.ny.is_multiple_of(grid.py) || !p.nx.is_multiple_of(grid.px);
        (0..nranks)
            .map(|r| {
                let (lx, _ly) = grid.tile_size(r);
                let stride = lx * 8;
                let mut pen = 1.0;
                let mut pathological = false;
                if lx % 8 != 0 {
                    pen += 0.10;
                    pathological = true;
                }
                let pages_per_row_sweep = 37 * stride.div_ceil(4096);
                if pages_per_row_sweep > 128 {
                    pen += 0.12;
                    pathological = true;
                }
                if stride >= 16384 && stride % 4096 == 0 {
                    pen += 0.22;
                    pathological = true;
                }
                // With a pathological stride *and* an uneven
                // decomposition, tiles whose start offset lands badly
                // relative to the page pattern are hit much harder —
                // the "certain processes being slower if the local
                // domain size is unfortunate" effect behind the slow
                // rank of the Fig. 2(h) inset.
                if pathological && uneven {
                    let (_, _, y0, _) = grid.tile(r);
                    if y0 % 4096 >= 3584 {
                        pen += 0.25;
                    }
                }
                pen
            })
            .collect()
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let grid = Grid2d::new(p.nx, p.ny, nranks);
        let cross = crossing_columns();
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                prog.push(Op::compute(compute.per_rank[r]));
                let (lx, ly) = grid.tile_size(r);
                let [w, e, s, n] = grid.neighbors_periodic(r);
                let bytes_x = cross * ly * 8;
                let bytes_y = cross * (lx + 2 * HALO) * 8;
                let mut req = 0;
                let mut pairs = Vec::new();
                // Non-blocking halo exchange, x then y (the y strips
                // include the x halos, handling corners).
                for (peer_send, peer_recv, bytes, tag) in [
                    (e, w, bytes_x, 0u32),
                    (w, e, bytes_x, 1),
                    (n, s, bytes_y, 2),
                    (s, n, bytes_y, 3),
                ] {
                    // Self-sends in a 1-wide periodic grid are local
                    // copies, not messages.
                    if peer_send != r {
                        prog.push(Op::irecv(peer_recv, tag, req));
                        pairs.push(req);
                        req += 1;
                        prog.push(Op::isend(peer_send, tag, bytes, req));
                        pairs.push(req);
                        req += 1;
                    }
                }
                for q in pairs {
                    prog.push(Op::wait(q));
                }
                // The per-iteration global barrier the paper calls out
                // as avoidable.
                prog.push(Op::Barrier);
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
        Box::new(LbmKernel::new(p.nx, p.ny, rank, nranks, seed))
    }
}

/// Real executable D2Q37 BGK kernel on a rank-local tile.
pub struct LbmKernel {
    grid: Grid2d,
    rank: usize,
    /// Local tile extents (without halo).
    lx: usize,
    ly: usize,
    /// Populations, SoA: `f[q][(ly + 2H) × (lx + 2H)]`.
    f: Vec<Vec<f64>>,
    fnew: Vec<Vec<f64>>,
    vel: Vec<(i32, i32)>,
    w: Vec<f64>,
    cs2: f64,
    /// BGK relaxation parameter.
    omega: f64,
    steps_done: u64,
}

impl LbmKernel {
    pub fn new(nx: usize, ny: usize, rank: usize, nranks: usize, seed: u64) -> Self {
        let grid = Grid2d::new(nx, ny, nranks);
        assert!(rank < nranks);
        let (lx, ly) = grid.tile_size(rank);
        assert!(
            lx >= HALO && ly >= HALO,
            "tile {lx}×{ly} smaller than the halo depth"
        );
        let vel = velocities();
        let (w, cs2) = weights_and_cs2(&vel);
        let stride = lx + 2 * HALO;
        let size = stride * (ly + 2 * HALO);
        // Initial condition: ρ = 1 + small deterministic perturbation,
        // u = 0 (populations at equilibrium = weights × ρ).
        let (x0, _, y0, _) = grid.tile(rank);
        let mut f = vec![vec![0.0; size]; 37];
        for y in 0..ly {
            for x in 0..lx {
                let gx = (x0 + x) as f64;
                let gy = (y0 + y) as f64;
                let h = seed as f64 * 1e-4;
                let rho = 1.0 + 0.05 * ((gx * 0.37 + h).sin() * (gy * 0.23 + h).cos());
                let idx = (y + HALO) * stride + x + HALO;
                for q in 0..37 {
                    f[q][idx] = w[q] * rho;
                }
            }
        }
        let fnew = f.clone();
        LbmKernel {
            grid,
            rank,
            lx,
            ly,
            f,
            fnew,
            vel,
            w,
            cs2,
            omega: 1.2,
            steps_done: 0,
        }
    }

    fn stride(&self) -> usize {
        self.lx + 2 * HALO
    }

    /// Exchange halos: x-direction strips first, then y-direction strips
    /// including the freshly filled x halos (corner-complete).
    fn exchange_halos(&mut self, comm: &mut dyn Comm) {
        let stride = self.stride();
        let (lx, ly) = (self.lx, self.ly);
        let [wn, en, sn, nn] = self.grid.neighbors_periodic(self.rank);

        // --- X direction: columns [H, H+HALO) to west, [lx, lx+H) east.
        let pack_x = |f: &[Vec<f64>], x_start: usize| {
            let mut buf = Vec::with_capacity(37 * HALO * ly);
            for q in 0..37 {
                for y in 0..ly {
                    for dx in 0..HALO {
                        buf.push(f[q][(y + HALO) * stride + x_start + dx]);
                    }
                }
            }
            buf
        };
        let unpack_x = |f: &mut [Vec<f64>], buf: &[f64], x_start: usize| {
            let mut i = 0;
            for q in 0..37 {
                for y in 0..ly {
                    for dx in 0..HALO {
                        f[q][(y + HALO) * stride + x_start + dx] = buf[i];
                        i += 1;
                    }
                }
            }
        };
        let east_out = pack_x(&self.f, lx); // rightmost core columns
        let west_out = pack_x(&self.f, HALO); // leftmost core columns
        let mut west_in = vec![0.0; east_out.len()];
        let mut east_in = vec![0.0; west_out.len()];
        comm.sendrecv(en, &east_out, wn, &mut west_in, 10);
        comm.sendrecv(wn, &west_out, en, &mut east_in, 11);
        unpack_x(&mut self.f, &west_in, 0);
        unpack_x(&mut self.f, &east_in, lx + HALO);

        // --- Y direction: full-width rows including x halos.
        let row_w = stride;
        let pack_y = |f: &[Vec<f64>], y_start: usize| {
            let mut buf = Vec::with_capacity(37 * HALO * row_w);
            for q in 0..37 {
                for dy in 0..HALO {
                    let off = (y_start + dy) * stride;
                    buf.extend_from_slice(&f[q][off..off + row_w]);
                }
            }
            buf
        };
        let unpack_y = |f: &mut [Vec<f64>], buf: &[f64], y_start: usize| {
            let mut i = 0;
            for q in 0..37 {
                for dy in 0..HALO {
                    let off = (y_start + dy) * stride;
                    f[q][off..off + row_w].copy_from_slice(&buf[i..i + row_w]);
                    i += row_w;
                }
            }
        };
        let north_out = pack_y(&self.f, ly); // topmost core rows
        let south_out = pack_y(&self.f, HALO); // bottom core rows
        let mut south_in = vec![0.0; north_out.len()];
        let mut north_in = vec![0.0; south_out.len()];
        comm.sendrecv(nn, &north_out, sn, &mut south_in, 12);
        comm.sendrecv(sn, &south_out, nn, &mut north_in, 13);
        unpack_y(&mut self.f, &south_in, 0);
        unpack_y(&mut self.f, &north_in, ly + HALO);
    }

    /// Overwrite the state with a perfectly uniform equilibrium of
    /// density `rho` (used by fixed-point tests).
    pub fn set_uniform(&mut self, rho: f64, weights: &[f64]) {
        assert_eq!(weights.len(), 37);
        let stride = self.stride();
        for (q, w) in weights.iter().enumerate() {
            for y in 0..self.ly + 2 * HALO {
                for x in 0..self.lx + 2 * HALO {
                    self.f[q][y * stride + x] = w * rho;
                }
            }
        }
    }

    /// Max − min density over the core cells.
    pub fn density_spread(&self) -> f64 {
        let stride = self.stride();
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        for y in 0..self.ly {
            for x in 0..self.lx {
                let rho: f64 = (0..37)
                    .map(|q| self.f[q][(y + HALO) * stride + x + HALO])
                    .sum();
                mn = mn.min(rho);
                mx = mx.max(rho);
            }
        }
        mx - mn
    }

    /// Total mass on the local tile (core cells only).
    pub fn local_mass(&self) -> f64 {
        let stride = self.stride();
        let mut m = 0.0;
        for q in 0..37 {
            for y in 0..self.ly {
                for x in 0..self.lx {
                    m += self.f[q][(y + HALO) * stride + x + HALO];
                }
            }
        }
        m
    }

    /// Total x/y momentum on the local tile.
    pub fn local_momentum(&self) -> (f64, f64) {
        let stride = self.stride();
        let (mut px, mut py) = (0.0, 0.0);
        for (q, &(cx, cy)) in self.vel.iter().enumerate() {
            let mut s = 0.0;
            for y in 0..self.ly {
                for x in 0..self.lx {
                    s += self.f[q][(y + HALO) * stride + x + HALO];
                }
            }
            px += s * cx as f64;
            py += s * cy as f64;
        }
        (px, py)
    }
}

impl Kernel for LbmKernel {
    fn step(&mut self, comm: &mut dyn Comm) {
        self.exchange_halos(comm);
        let stride = self.stride();
        // Propagate (pull) + collide fused per cell.
        for y in 0..self.ly {
            for x in 0..self.lx {
                let idx = (y + HALO) * stride + (x + HALO);
                // Pull populations from upwind cells.
                let mut rho = 0.0;
                let mut ux = 0.0;
                let mut uy = 0.0;
                for q in 0..37 {
                    let (cx, cy) = self.vel[q];
                    let src = ((y + HALO) as i64 - cy as i64) as usize * stride
                        + ((x + HALO) as i64 - cx as i64) as usize;
                    let fq = self.f[q][src];
                    self.fnew[q][idx] = fq;
                    rho += fq;
                    ux += fq * cx as f64;
                    uy += fq * cy as f64;
                }
                ux /= rho;
                uy /= rho;
                // BGK collision with second-order equilibrium.
                let cs2 = self.cs2;
                let usq = ux * ux + uy * uy;
                for q in 0..37 {
                    let (cx, cy) = self.vel[q];
                    let cu = (cx as f64 * ux + cy as f64 * uy) / cs2;
                    let feq = self.w[q] * rho * (1.0 + cu + 0.5 * cu * cu - 0.5 * usq / cs2);
                    self.fnew[q][idx] += self.omega * (feq - self.fnew[q][idx]);
                }
            }
        }
        std::mem::swap(&mut self.f, &mut self.fnew);
        self.steps_done += 1;
        // End-of-iteration barrier, as in the original code.
        comm.barrier();
    }

    fn validate(&self) -> Result<(), String> {
        let stride = self.stride();
        for (q, fq) in self.f.iter().enumerate() {
            for y in 0..self.ly {
                for x in 0..self.lx {
                    let v = fq[(y + HALO) * stride + x + HALO];
                    if !v.is_finite() {
                        return Err(format!("non-finite population q={q} at ({x},{y})"));
                    }
                }
            }
        }
        let m = self.local_mass();
        if m <= 0.0 {
            return Err(format!("non-positive local mass {m}"));
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        self.local_mass()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;

    #[test]
    fn velocity_set_has_37_symmetric_members() {
        let v = velocities();
        assert_eq!(v.len(), 37);
        for &(cx, cy) in &v {
            assert!(v.contains(&(-cx, -cy)), "set must be symmetric");
            assert!(v.contains(&(cy, cx)), "set must be xy-symmetric");
        }
        // Net drift of the set is zero.
        let sx: i32 = v.iter().map(|&(cx, _)| cx).sum();
        assert_eq!(sx, 0);
    }

    #[test]
    fn weights_normalized_and_cs2_isotropic() {
        let v = velocities();
        let (w, cs2) = weights_and_cs2(&v);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-14);
        assert!(cs2 > 0.0);
        // Isotropy: Σ w cx² = Σ w cy², Σ w cx·cy = 0.
        let sxx: f64 = w
            .iter()
            .zip(&v)
            .map(|(w, &(x, _))| w * (x * x) as f64)
            .sum();
        let syy: f64 = w
            .iter()
            .zip(&v)
            .map(|(w, &(_, y))| w * (y * y) as f64)
            .sum();
        let sxy: f64 = w
            .iter()
            .zip(&v)
            .map(|(w, &(x, y))| w * (x * y) as f64)
            .sum();
        assert!((sxx - syy).abs() < 1e-14);
        assert!(sxy.abs() < 1e-15);
        assert!((cs2 - sxx).abs() < 1e-14);
    }

    #[test]
    fn single_rank_mass_and_momentum_conserved() {
        let mut k = LbmKernel::new(24, 24, 0, 1, 42);
        let m0 = k.local_mass();
        let (px0, py0) = k.local_momentum();
        let mut comm = SelfComm::new();
        for _ in 0..5 {
            k.step(&mut comm);
        }
        let m1 = k.local_mass();
        let (px1, py1) = k.local_momentum();
        assert!((m1 - m0).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
        assert!((px1 - px0).abs() < 1e-9, "x-momentum drift {px0} → {px1}");
        assert!((py1 - py0).abs() < 1e-9, "y-momentum drift {py0} → {py1}");
        k.validate().unwrap();
    }

    #[test]
    fn density_perturbation_relaxes() {
        // The BGK collision damps the initial perturbation: the density
        // spread must shrink over time.
        let mut k = LbmKernel::new(16, 16, 0, 1, 42);
        let spread = |k: &LbmKernel| {
            let stride = k.stride();
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            for y in 0..k.ly {
                for x in 0..k.lx {
                    let rho: f64 = (0..37)
                        .map(|q| k.f[q][(y + HALO) * stride + x + HALO])
                        .sum();
                    mn = mn.min(rho);
                    mx = mx.max(rho);
                }
            }
            mx - mn
        };
        let s0 = spread(&k);
        let mut comm = SelfComm::new();
        for _ in 0..30 {
            k.step(&mut comm);
        }
        let s1 = spread(&k);
        assert!(s1 < s0, "perturbation must decay: {s0} → {s1}");
    }

    #[test]
    fn penalties_flag_pathological_counts() {
        let lbm = Lbm;
        let max_pen = |n: usize| -> f64 {
            lbm.penalties(WorkloadClass::Tiny, n)
                .into_iter()
                .fold(1.0, f64::max)
        };
        // Paper §4.1.6: 22, 23, 31, 45 draw excess traffic / run slow;
        // 44 and 72 are fine.
        assert!(max_pen(22) > 1.05, "22 should be penalized");
        assert!(max_pen(23) > 1.05, "23 should be penalized");
        assert!(max_pen(45) > 1.05, "45 should be penalized");
        assert!(max_pen(71) > 1.05, "71 should be penalized");
        assert!((max_pen(44) - 1.0).abs() < 1e-12, "44 must be clean");
        assert!((max_pen(72) - 1.0).abs() < 1e-12, "72 must be clean");
    }

    #[test]
    fn step_programs_have_barrier_and_halos() {
        let lbm = Lbm;
        let ct = ComputeTimes {
            per_rank: vec![0.01; 8],
            utilization: vec![1.0; 8],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = lbm.step_programs(WorkloadClass::Tiny, &ct);
        assert_eq!(progs.len(), 8);
        for p in &progs {
            assert!(p.ops.iter().any(|o| matches!(o, Op::Barrier)));
            assert!(p.validate().is_ok());
            assert!(p.bytes_sent() > 0, "halo traffic expected");
        }
    }

    #[test]
    fn config_matches_table_1() {
        let cfg = Lbm.config(WorkloadClass::Tiny);
        assert_eq!(
            cfg.param("{X,Y}-dimension of lattice"),
            Some("{4096,16384}")
        );
        assert_eq!(cfg.steps, 600);
        let cfg = Lbm.config(WorkloadClass::Small);
        assert_eq!(
            cfg.param("{X,Y}-dimension of lattice"),
            Some("{12000,48000}")
        );
        assert_eq!(cfg.steps, 500);
    }

    #[test]
    fn signature_is_compute_dominated_but_with_bandwidth_demand() {
        let sig = Lbm.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        // ~7.4 flops/byte: well above the memory-bound regime of the
        // strongly saturating codes, below pure compute codes.
        let i = sig.intensity();
        assert!(i > 5.0 && i < 12.0, "intensity {i}");
        // Tiny working set ≈ 40 GB (fits the 64 GB class budget).
        let ws_gb = sig.working_set_bytes / 1e9;
        assert!(ws_gb > 30.0 && ws_gb < 64.0, "working set {ws_gb} GB");
    }
}
