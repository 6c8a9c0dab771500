//! `tealeaf` — linear heat conduction on a 2-D regular grid
//! (SPEC id 18, C, ~5400 LOC, collective: `MPI_Allreduce`).
//!
//! The original solves the linear heat-conduction equation with a
//! 5-point stencil and an implicit conjugate-gradient solver (paper
//! Table 2). It is one of the paper's strongly memory-bound,
//! bandwidth-saturating codes (§4.1.4) and — with only ~2 % of its work
//! vectorized — one of the most poorly vectorized (§4.1.3).
//!
//! This analog implements a real distributed CG solve of the backward-
//! Euler heat step `(I − α·dt·∇²) u = u_old` on a block-decomposed 2-D
//! grid with insulated (Neumann) boundaries: matrix-free 5-point
//! operator, 1-cell halo exchange per iteration via `MPI_Sendrecv`, and
//! the two dot-product `MPI_Allreduce`s of textbook CG. Total heat is
//! conserved exactly by the Neumann discretization — a tested invariant.

use spechpc_simmpi::comm::{Comm, ReduceOp};
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::Grid2d;
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

/// Per-class parameters. A simulated "step" is **one CG iteration** (the
/// unit the paper's per-iteration halo/reduction traffic refers to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TealeafParams {
    pub nx: usize,
    pub ny: usize,
    /// Outer (time) steps.
    pub outer_steps: u64,
    /// CG iterations per outer step (solver-bound in practice).
    pub cg_iters: u64,
}

impl TealeafParams {
    pub fn total_iters(&self) -> u64 {
        self.outer_steps * self.cg_iters
    }
}

pub fn params(class: WorkloadClass) -> TealeafParams {
    match class {
        WorkloadClass::Test => TealeafParams {
            nx: 48,
            ny: 48,
            outer_steps: 2,
            cg_iters: 30,
        },
        WorkloadClass::Tiny => TealeafParams {
            nx: 8192,
            ny: 8192,
            outer_steps: 5,
            cg_iters: 350,
        },
        WorkloadClass::Small => TealeafParams {
            nx: 16384,
            ny: 16384,
            outer_steps: 15,
            cg_iters: 350,
        },
        WorkloadClass::Medium => TealeafParams {
            nx: 49152,
            ny: 49152,
            outer_steps: 15,
            cg_iters: 350,
        },
        WorkloadClass::Large => TealeafParams {
            nx: 98304,
            ny: 98304,
            outer_steps: 15,
            cg_iters: 350,
        },
    }
}

/// The tealeaf suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tealeaf;

impl Benchmark for Tealeaf {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "tealeaf",
            spec_id: 18,
            language: "C",
            loc: 5400,
            collective: "Allreduce",
            numerics: "Linear heat conduction, 2D 5-point stencil, implicit CG",
            domain: "Physics / high energy physics",
            supports_medium_large: true,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                (
                    "Cell count for {X,Y}-direction",
                    format!("{{{},{}}}", p.nx, p.ny),
                ),
                (
                    "Method to solve the linear system",
                    "Conjugate Gradient".into(),
                ),
                ("Solver convergence threshold", "1.0e-15".into()),
                ("Upper iterations limit per step", "5000".into()),
                ("Initial time-step", "0.004".into()),
                (
                    "Simulation end times (end time, end step)",
                    format!("{{{}, 100}}", p.outer_steps),
                ),
            ],
            steps: p.total_iters(),
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let n = (p.nx * p.ny) as f64;
        // One CG iteration: matvec (5-pt) + 2 dots + 3 axpys over ~6
        // resident arrays ⇒ ~80 B and ~14 flops per grid point.
        WorkloadSignature {
            flops: n * 14.0,
            simd_fraction: 0.05,
            core_efficiency: 0.5,
            mem_bytes: n * 80.0,
            mem_bytes_per_rank: 0.0,
            l2_bytes: n * 100.0,
            l3_bytes: n * 90.0,
            working_set_bytes: n * 6.0 * 8.0,
            cache_exponent: 3.0,
            replicated_fraction: 0.0,
            heat: 0.35,
            steps: p.total_iters(),
        }
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let grid = Grid2d::new(p.nx, p.ny, nranks);
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                // Matvec with fresh halos. Tags name the direction of
                // data flow so sends and receives pair up correctly:
                // e.g. tag 0 = westward-moving edges (sent to the west
                // neighbor, received from the east neighbor).
                let (lx, ly) = grid.tile_size(r);
                let [w, e, s, n] = grid.neighbors(r);
                for (to, from, bytes, tag) in [
                    (w, e, ly * 8, 0u32),
                    (e, w, ly * 8, 1),
                    (s, n, lx * 8, 2),
                    (n, s, lx * 8, 3),
                ] {
                    match (to, from) {
                        (Some(to), Some(from)) => prog.push(Op::sendrecv(to, bytes, from, tag)),
                        (Some(to), None) => prog.push(Op::send(to, tag, bytes)),
                        (None, Some(from)) => prog.push(Op::recv(from, tag)),
                        (None, None) => {}
                    }
                }
                prog.push(Op::compute(compute.per_rank[r]));
                // The two CG dot products.
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
        Box::new(TealeafKernel::new(p, rank, nranks))
    }
}

/// Distributed CG solver for one implicit heat step per [`Kernel::step`].
pub struct TealeafKernel {
    grid: Grid2d,
    rank: usize,
    lx: usize,
    ly: usize,
    /// Temperature field with 1-cell halo, row-major `(ly+2) × (lx+2)`.
    u: Vec<f64>,
    /// Diffusion number α·dt/h².
    lambda: f64,
    cg_iters: u64,
    /// Residual norm of the last completed solve.
    pub last_residual: f64,
    /// Residual norm at the start of the last solve.
    pub first_residual: f64,
}

impl TealeafKernel {
    pub fn new(p: TealeafParams, rank: usize, nranks: usize) -> Self {
        let grid = Grid2d::new(p.nx, p.ny, nranks);
        let (lx, ly) = grid.tile_size(rank);
        let (x0, _, y0, _) = grid.tile(rank);
        let stride = lx + 2;
        let mut u = vec![0.0; stride * (ly + 2)];
        // A hot square in the global domain centre.
        for y in 0..ly {
            for x in 0..lx {
                let gx = x0 + x;
                let gy = y0 + y;
                let hot = gx > p.nx / 3 && gx < 2 * p.nx / 3 && gy > p.ny / 3 && gy < 2 * p.ny / 3;
                u[(y + 1) * stride + x + 1] = if hot { 100.0 } else { 0.1 };
            }
        }
        TealeafKernel {
            grid,
            rank,
            lx,
            ly,
            u,
            lambda: 0.5,
            cg_iters: p.cg_iters.min(200),
            last_residual: f64::INFINITY,
            first_residual: f64::INFINITY,
        }
    }

    fn stride(&self) -> usize {
        self.lx + 2
    }

    /// Exchange the 1-cell halo of `v` with the four neighbors; open
    /// boundaries mirror the edge cell (Neumann / insulated).
    fn halo(&self, v: &mut [f64], comm: &mut dyn Comm) {
        let stride = self.stride();
        let (lx, ly) = (self.lx, self.ly);
        let [wn, en, sn, nn] = self.grid.neighbors(self.rank);

        let col = |v: &[f64], x: usize| -> Vec<f64> {
            (0..ly).map(|y| v[(y + 1) * stride + x]).collect()
        };
        let set_col = |v: &mut [f64], x: usize, data: &[f64]| {
            for (y, d) in data.iter().enumerate() {
                v[(y + 1) * stride + x] = *d;
            }
        };
        // X direction. Tags name the data-flow direction: tag 1 =
        // eastward (my east edge → east neighbor), tag 0 = westward.
        // Sends are buffered, so send-first is deadlock-free; missing
        // neighbors mirror the edge (Neumann boundary).
        let west_edge = col(v, 1);
        let east_edge = col(v, lx);
        let mut west_in = vec![0.0; ly];
        let mut east_in = vec![0.0; ly];
        if let Some(en) = en {
            comm.send(en, 1, &east_edge);
        }
        if let Some(wn) = wn {
            comm.send(wn, 0, &west_edge);
        }
        if let Some(wn) = wn {
            comm.recv(wn, 1, &mut west_in);
        } else {
            west_in.copy_from_slice(&west_edge);
        }
        if let Some(en) = en {
            comm.recv(en, 0, &mut east_in);
        } else {
            east_in.copy_from_slice(&east_edge);
        }
        set_col(v, 0, &west_in);
        set_col(v, lx + 1, &east_in);

        // Y direction.
        let row =
            |v: &[f64], y: usize| -> Vec<f64> { v[y * stride + 1..y * stride + 1 + lx].to_vec() };
        let set_row = |v: &mut [f64], y: usize, data: &[f64]| {
            v[y * stride + 1..y * stride + 1 + lx].copy_from_slice(data);
        };
        let south_edge = row(v, 1);
        let north_edge = row(v, ly);
        let mut south_in = vec![0.0; lx];
        let mut north_in = vec![0.0; lx];
        if let Some(nn) = nn {
            comm.send(nn, 3, &north_edge);
        }
        if let Some(sn) = sn {
            comm.send(sn, 2, &south_edge);
        }
        if let Some(sn) = sn {
            comm.recv(sn, 3, &mut south_in);
        } else {
            south_in.copy_from_slice(&south_edge);
        }
        if let Some(nn) = nn {
            comm.recv(nn, 2, &mut north_in);
        } else {
            north_in.copy_from_slice(&north_edge);
        }
        set_row(v, 0, &south_in);
        set_row(v, ly + 1, &north_in);
    }

    /// Matrix-free operator `A v = (I − λ·∇²) v` with Neumann boundaries
    /// built into the halo mirroring. `v`'s halo must be fresh.
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        let stride = self.stride();
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                let i = y * stride + x;
                let lap = v[i - 1] + v[i + 1] + v[i - stride] + v[i + stride] - 4.0 * v[i];
                out[i] = v[i] - self.lambda * lap;
            }
        }
    }

    fn dot(&self, a: &[f64], b: &[f64], comm: &mut dyn Comm) -> f64 {
        let stride = self.stride();
        let mut s = 0.0;
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                s += a[y * stride + x] * b[y * stride + x];
            }
        }
        comm.allreduce_scalar(ReduceOp::Sum, s)
    }

    /// The core temperature field (halo stripped), row-major.
    pub fn core_field(&self) -> Vec<f64> {
        let stride = self.stride();
        let mut out = Vec::with_capacity(self.lx * self.ly);
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                out.push(self.u[y * stride + x]);
            }
        }
        out
    }

    /// Total heat on the local tile.
    pub fn local_heat(&self) -> f64 {
        let stride = self.stride();
        let mut s = 0.0;
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                s += self.u[y * stride + x];
            }
        }
        s
    }
}

impl Kernel for TealeafKernel {
    /// One implicit heat step: solve `(I − λ∇²) u_new = u` by CG.
    fn step(&mut self, comm: &mut dyn Comm) {
        let size = self.u.len();
        let b = self.u.clone();
        let mut x = self.u.clone();
        let mut r = vec![0.0; size];
        let mut p = vec![0.0; size];
        let mut ap = vec![0.0; size];
        let stride = self.stride();

        // r = b − A x, p = r.
        self.halo(&mut x, comm);
        self.apply(&x, &mut ap);
        for y in 1..=self.ly {
            for xx in 1..=self.lx {
                let i = y * stride + xx;
                r[i] = b[i] - ap[i];
                p[i] = r[i];
            }
        }
        let mut rr = self.dot(&r, &r, comm);
        self.first_residual = rr.sqrt();

        for _ in 0..self.cg_iters {
            if rr.sqrt() < 1e-15 {
                break;
            }
            self.halo(&mut p, comm);
            self.apply(&p, &mut ap);
            let pap = self.dot(&p, &ap, comm);
            if pap <= 0.0 {
                break; // operator is SPD; this only fires at round-off
            }
            let alpha = rr / pap;
            for y in 1..=self.ly {
                for xx in 1..=self.lx {
                    let i = y * stride + xx;
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
            }
            let rr_new = self.dot(&r, &r, comm);
            let beta = rr_new / rr;
            rr = rr_new;
            for y in 1..=self.ly {
                for xx in 1..=self.lx {
                    let i = y * stride + xx;
                    p[i] = r[i] + beta * p[i];
                }
            }
        }
        self.last_residual = rr.sqrt();
        self.u = x;
    }

    fn validate(&self) -> Result<(), String> {
        if !self.last_residual.is_finite() {
            return Err("residual is not finite".into());
        }
        if self.last_residual > self.first_residual {
            return Err(format!(
                "CG diverged: {} → {}",
                self.first_residual, self.last_residual
            ));
        }
        let stride = self.stride();
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                let v = self.u[y * stride + x];
                if !v.is_finite() {
                    return Err(format!("non-finite temperature at ({x},{y})"));
                }
            }
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        self.local_heat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;

    #[test]
    fn cg_reduces_residual_dramatically() {
        let mut k = TealeafKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        k.step(&mut comm);
        assert!(
            k.last_residual < 1e-6 * k.first_residual.max(1e-30),
            "CG barely converged: {} → {}",
            k.first_residual,
            k.last_residual
        );
        k.validate().unwrap();
    }

    #[test]
    fn heat_is_conserved_by_neumann_step() {
        let mut k = TealeafKernel::new(params(WorkloadClass::Test), 0, 1);
        let h0 = k.local_heat();
        let mut comm = SelfComm::new();
        for _ in 0..3 {
            k.step(&mut comm);
        }
        let h1 = k.local_heat();
        assert!((h1 - h0).abs() / h0 < 1e-8, "heat drift: {h0} → {h1}");
    }

    #[test]
    fn diffusion_smooths_the_field() {
        let mut k = TealeafKernel::new(params(WorkloadClass::Test), 0, 1);
        let spread = |k: &TealeafKernel| {
            let stride = k.stride();
            let core: Vec<f64> = (1..=k.ly)
                .flat_map(|y| (1..=k.lx).map(move |x| (x, y)))
                .map(|(x, y)| k.u[y * stride + x])
                .collect();
            let mx = core.iter().copied().fold(f64::MIN, f64::max);
            let mn = core.iter().copied().fold(f64::MAX, f64::min);
            mx - mn
        };
        let s0 = spread(&k);
        let mut comm = SelfComm::new();
        for _ in 0..5 {
            k.step(&mut comm);
        }
        assert!(spread(&k) < s0, "diffusion must smooth the hot square");
    }

    #[test]
    fn operator_is_symmetric() {
        // <Av, w> == <v, Aw> on a single rank (required for CG).
        let k = TealeafKernel::new(params(WorkloadClass::Test), 0, 1);
        let size = k.u.len();
        let stride = k.stride();
        let mut v = vec![0.0; size];
        let mut w = vec![0.0; size];
        for y in 1..=k.ly {
            for x in 1..=k.lx {
                v[y * stride + x] = ((x * 31 + y * 17) % 13) as f64 - 6.0;
                w[y * stride + x] = ((x * 7 + y * 41) % 11) as f64 - 5.0;
            }
        }
        let mut comm = SelfComm::new();
        let (mut av, mut aw) = (vec![0.0; size], vec![0.0; size]);
        let mut vh = v.clone();
        k.halo(&mut vh, &mut comm);
        k.apply(&vh, &mut av);
        let mut wh = w.clone();
        k.halo(&mut wh, &mut comm);
        k.apply(&wh, &mut aw);
        let d1: f64 = av.iter().zip(&w).map(|(a, b)| a * b).sum();
        let d2: f64 = v.iter().zip(&aw).map(|(a, b)| a * b).sum();
        assert!((d1 - d2).abs() < 1e-9 * d1.abs().max(1.0), "{d1} vs {d2}");
    }

    #[test]
    fn signature_is_strongly_memory_bound() {
        let sig = Tealeaf.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        assert!(sig.intensity() < 0.5, "intensity {}", sig.intensity());
        assert!(sig.simd_fraction < 0.1, "tealeaf is poorly vectorized");
    }

    #[test]
    fn step_program_has_two_dot_reductions() {
        let ct = ComputeTimes {
            per_rank: vec![0.01; 9],
            utilization: vec![0.2; 9],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = Tealeaf.step_programs(WorkloadClass::Tiny, &ct);
        for p in &progs {
            assert_eq!(
                p.ops
                    .iter()
                    .filter(|o| matches!(o, Op::Allreduce { .. }))
                    .count(),
                2
            );
            assert!(p.validate().is_ok());
        }
        // Interior ranks exchange four halos (rank 4 in a 3×3 grid).
        let interior = &progs[4];
        assert_eq!(
            interior
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Sendrecv { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn config_matches_table_1() {
        let cfg = Tealeaf.config(WorkloadClass::Tiny);
        assert_eq!(
            cfg.param("Cell count for {X,Y}-direction"),
            Some("{8192,8192}")
        );
        assert_eq!(
            cfg.param("Method to solve the linear system"),
            Some("Conjugate Gradient")
        );
    }

    #[test]
    fn two_rank_native_run_conserves_heat() {
        use spechpc_simmpi::threadcomm::ThreadWorld;
        let p = params(WorkloadClass::Test);
        let heats = ThreadWorld::run(2, |rank, comm| {
            let mut k = TealeafKernel::new(p, rank, 2);
            let h0 = k.local_heat();
            for _ in 0..2 {
                k.step(comm);
            }
            k.validate().unwrap();
            (h0, k.local_heat())
        });
        let before: f64 = heats.iter().map(|(a, _)| a).sum();
        let after: f64 = heats.iter().map(|(_, b)| b).sum();
        assert!(
            (after - before).abs() / before < 1e-8,
            "global heat drift {before} → {after}"
        );
    }
}
