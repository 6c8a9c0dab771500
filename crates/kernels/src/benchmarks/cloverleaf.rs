//! `cloverleaf` — compressible Euler equations on a 2-D Cartesian grid
//! (SPEC id 19, Fortran, ~12500 LOC, collective: `MPI_Allreduce`).
//!
//! The original solves the compressible Euler equations with an explicit
//! second-order method on a staggered grid (paper Table 2). In the study
//! it is strongly memory-bound and bandwidth-saturating on the node
//! (§4.1.4), well vectorized (§4.1.3), and its multi-node scaling is the
//! pure "communication overhead, no cache effect" case D (§5.1): its
//! working set is far too large to ever become cache-resident.
//!
//! The analog implements a real first-order conservative finite-volume
//! scheme (local Lax-Friedrichs fluxes) for the 2-D Euler equations with
//! an ideal-gas EOS on a block-decomposed grid: per-step halo exchanges
//! for the conserved fields and the global `MPI_Allreduce` minimum for
//! the CFL time step. Mass and total energy are conserved exactly by the
//! flux form on the periodic domain — tested invariants.

use spechpc_simmpi::comm::{Comm, ReduceOp};
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::Grid2d;
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

const GAMMA: f64 = 1.4;
/// Conserved variables per cell: ρ, ρu, ρv, E.
const NVARS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloverParams {
    pub nx: usize,
    pub ny: usize,
    pub steps: u64,
}

pub fn params(class: WorkloadClass) -> CloverParams {
    match class {
        WorkloadClass::Test => CloverParams {
            nx: 48,
            ny: 48,
            steps: 10,
        },
        WorkloadClass::Tiny => CloverParams {
            nx: 15360,
            ny: 15360,
            steps: 400,
        },
        WorkloadClass::Small => CloverParams {
            nx: 61440,
            ny: 30720,
            steps: 500,
        },
        WorkloadClass::Medium => CloverParams {
            nx: 122880,
            ny: 61440,
            steps: 500,
        },
        WorkloadClass::Large => CloverParams {
            nx: 245760,
            ny: 122880,
            steps: 500,
        },
    }
}

/// The cloverleaf suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cloverleaf;

impl Benchmark for Cloverleaf {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "cloverleaf",
            spec_id: 19,
            language: "Fortran",
            loc: 12500,
            collective: "Allreduce",
            numerics: "Compressible Euler, 2D Cartesian, explicit 2nd order",
            domain: "Physics / high energy physics",
            supports_medium_large: true,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                (
                    "[density, energy] in two ideal gas states",
                    "{0.2,1},{1,2.5}".into(),
                ),
                (
                    "Logical mesh size for {X,Y}-direction",
                    format!("{{{},{}}}", p.nx, p.ny),
                ),
                (
                    "Physical mesh size (Xmin,Ymin,Xmax,Ymax)",
                    "{0,0,10,10}".into(),
                ),
                ("Timestep (initial, rise, max)", "{0.04, 1.5, 0.04}".into()),
                (
                    "Simulation end times (end time, end step)",
                    format!("{{0.5, {}}}", p.steps),
                ),
            ],
            steps: p.steps,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let n = (p.nx * p.ny) as f64;
        // One hydro step sweeps ~15 field arrays over several kernels
        // (PdV, fluxes, advection in two directions): ~350 B and ~120
        // flops per cell per step.
        WorkloadSignature {
            flops: n * 120.0,
            simd_fraction: 0.95,
            core_efficiency: 0.45,
            mem_bytes: n * 350.0,
            mem_bytes_per_rank: 0.0,
            l2_bytes: n * 430.0,
            l3_bytes: n * 390.0,
            working_set_bytes: n * 15.0 * 8.0,
            cache_exponent: 3.0,
            replicated_fraction: 0.0,
            heat: 0.45,
            steps: p.steps,
        }
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        let grid = Grid2d::new(p.nx, p.ny, nranks);
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                let (lx, ly) = grid.tile_size(r);
                let [w, e, s, n] = grid.neighbors(r);
                // Three halo-exchange rounds per step (density/energy,
                // velocities, mass fluxes), two fields each.
                for round in 0..3u32 {
                    for (to, from, bytes, dir) in [
                        (w, e, ly * 8 * 2, 0u32),
                        (e, w, ly * 8 * 2, 1),
                        (s, n, lx * 8 * 2, 2),
                        (n, s, lx * 8 * 2, 3),
                    ] {
                        let tag = round * 4 + dir;
                        match (to, from) {
                            (Some(to), Some(from)) => prog.push(Op::sendrecv(to, bytes, from, tag)),
                            (Some(to), None) => prog.push(Op::send(to, tag, bytes)),
                            (None, Some(from)) => prog.push(Op::recv(from, tag)),
                            (None, None) => {}
                        }
                    }
                    // A third of the step's compute per round.
                    prog.push(Op::compute(compute.per_rank[r] / 3.0));
                }
                // CFL time-step reduction.
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
        Box::new(CloverKernel::new(p, rank, nranks))
    }
}

/// Real 2-D Euler finite-volume kernel (local Lax-Friedrichs), periodic
/// global domain, conserved-variable form.
pub struct CloverKernel {
    grid: Grid2d,
    rank: usize,
    lx: usize,
    ly: usize,
    /// Conserved fields with 1-cell halo: `q[v][(ly+2) × (lx+2)]`.
    q: Vec<Vec<f64>>,
    qn: Vec<Vec<f64>>,
    /// Fixed CFL-safe time step (recomputed each step via allreduce).
    pub dt: f64,
    steps_done: u64,
}

impl CloverKernel {
    pub fn new(p: CloverParams, rank: usize, nranks: usize) -> Self {
        let grid = Grid2d::new(p.nx, p.ny, nranks);
        let (lx, ly) = grid.tile_size(rank);
        let (x0, _, y0, _) = grid.tile(rank);
        let stride = lx + 2;
        let size = stride * (ly + 2);
        let mut q = vec![vec![0.0; size]; NVARS];
        // Table 1's two ideal-gas states: a dense energetic square
        // embedded in a light background.
        for y in 0..ly {
            for x in 0..lx {
                let gx = x0 + x;
                let gy = y0 + y;
                let inside = gx < p.nx / 2 && gy < p.ny / 2;
                let (rho, e) = if inside { (1.0, 2.5) } else { (0.2, 1.0) };
                let i = (y + 1) * stride + x + 1;
                q[0][i] = rho;
                q[1][i] = 0.0;
                q[2][i] = 0.0;
                q[3][i] = rho * e; // total energy (no kinetic part yet)
            }
        }
        let qn = q.clone();
        CloverKernel {
            grid,
            rank,
            lx,
            ly,
            q,
            qn,
            dt: 0.0,
            steps_done: 0,
        }
    }

    fn stride(&self) -> usize {
        self.lx + 2
    }

    /// Periodic halo exchange for all conserved fields.
    fn halo(&mut self, comm: &mut dyn Comm) {
        let stride = self.stride();
        let (lx, ly) = (self.lx, self.ly);
        let [wn, en, sn, nn] = self.grid.neighbors_periodic(self.rank);
        for v in 0..NVARS {
            let base = v as u32 * 4;
            // X direction.
            let east: Vec<f64> = (0..ly).map(|y| self.q[v][(y + 1) * stride + lx]).collect();
            let west: Vec<f64> = (0..ly).map(|y| self.q[v][(y + 1) * stride + 1]).collect();
            let mut west_in = vec![0.0; ly];
            let mut east_in = vec![0.0; ly];
            comm.sendrecv(en, &east, wn, &mut west_in, base);
            comm.sendrecv(wn, &west, en, &mut east_in, base + 1);
            for y in 0..ly {
                self.q[v][(y + 1) * stride] = west_in[y];
                self.q[v][(y + 1) * stride + lx + 1] = east_in[y];
            }
            // Y direction (full width including x halos).
            let north: Vec<f64> = self.q[v][ly * stride..(ly + 1) * stride].to_vec();
            let south: Vec<f64> = self.q[v][stride..2 * stride].to_vec();
            let mut south_in = vec![0.0; stride];
            let mut north_in = vec![0.0; stride];
            comm.sendrecv(nn, &north, sn, &mut south_in, base + 2);
            comm.sendrecv(sn, &south, nn, &mut north_in, base + 3);
            self.q[v][..stride].copy_from_slice(&south_in);
            self.q[v][(ly + 1) * stride..].copy_from_slice(&north_in);
        }
    }

    /// Pressure and sound speed from the conserved state.
    fn pressure(rho: f64, mx: f64, my: f64, e: f64) -> f64 {
        let kinetic = 0.5 * (mx * mx + my * my) / rho;
        (GAMMA - 1.0) * (e - kinetic).max(1e-12)
    }

    /// Local max signal speed for the CFL condition.
    fn max_speed(&self) -> f64 {
        let stride = self.stride();
        let mut s: f64 = 0.0;
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                let i = y * stride + x;
                let rho = self.q[0][i];
                let u = self.q[1][i] / rho;
                let v = self.q[2][i] / rho;
                let p = Self::pressure(rho, self.q[1][i], self.q[2][i], self.q[3][i]);
                let c = (GAMMA * p / rho).sqrt();
                s = s.max(u.abs() + c).max(v.abs() + c);
            }
        }
        s
    }

    /// Physical flux in the x direction (y by symmetry/swap).
    fn flux_x(rho: f64, mx: f64, my: f64, e: f64) -> [f64; 4] {
        let u = mx / rho;
        let p = Self::pressure(rho, mx, my, e);
        [mx, mx * u + p, my * u, (e + p) * u]
    }

    /// The core density field (halo stripped), row-major.
    pub fn density_field(&self) -> Vec<f64> {
        let stride = self.stride();
        let mut out = Vec::with_capacity(self.lx * self.ly);
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                out.push(self.q[0][y * stride + x]);
            }
        }
        out
    }

    /// Total mass and energy of the local tile.
    pub fn local_conserved(&self) -> (f64, f64) {
        let stride = self.stride();
        let (mut m, mut e) = (0.0, 0.0);
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                let i = y * stride + x;
                m += self.q[0][i];
                e += self.q[3][i];
            }
        }
        (m, e)
    }
}

impl Kernel for CloverKernel {
    fn step(&mut self, comm: &mut dyn Comm) {
        // CFL time-step: global minimum over all ranks (Table 1's
        // "timestep frequency" control; the suite's Allreduce).
        let smax = self.max_speed();
        let local_dt = 0.4 / smax.max(1e-12);
        self.dt = comm.allreduce_scalar(ReduceOp::Min, local_dt).min(0.04);

        self.halo(comm);
        let stride = self.stride();
        let dt_h = self.dt; // h = 1
        let lam = 2.0; // LLF dissipation ≥ max signal speed (c ≈ 1.2)

        for y in 1..=self.ly {
            for x in 1..=self.lx {
                let i = y * stride + x;
                let get = |q: &Vec<Vec<f64>>, j: usize| -> [f64; 4] {
                    [q[0][j], q[1][j], q[2][j], q[3][j]]
                };
                let c = get(&self.q, i);
                let wx = get(&self.q, i - 1);
                let ex = get(&self.q, i + 1);
                let sy = get(&self.q, i - stride);
                let ny = get(&self.q, i + stride);

                // Swap (mx ↔ my) turns the x-flux into the y-flux.
                let swap = |q: [f64; 4]| [q[0], q[2], q[1], q[3]];
                let fc = Self::flux_x(c[0], c[1], c[2], c[3]);
                let fw = Self::flux_x(wx[0], wx[1], wx[2], wx[3]);
                let fe = Self::flux_x(ex[0], ex[1], ex[2], ex[3]);
                let gc_s = Self::flux_x(c[0], c[2], c[1], c[3]);
                let gs_s = Self::flux_x(sy[0], sy[2], sy[1], sy[3]);
                let gn_s = Self::flux_x(ny[0], ny[2], ny[1], ny[3]);
                let gc = swap(gc_s);
                let gs = swap(gs_s);
                let gn = swap(gn_s);

                for v in 0..NVARS {
                    // Local Lax–Friedrichs: centred flux + dissipation.
                    let fl = 0.5 * (fw[v] + fc[v]) - 0.5 * lam * (c[v] - wx[v]);
                    let fr = 0.5 * (fc[v] + fe[v]) - 0.5 * lam * (ex[v] - c[v]);
                    let gl = 0.5 * (gs[v] + gc[v]) - 0.5 * lam * (c[v] - sy[v]);
                    let gr = 0.5 * (gc[v] + gn[v]) - 0.5 * lam * (ny[v] - c[v]);
                    self.qn[v][i] = c[v] - dt_h * (fr - fl) - dt_h * (gr - gl);
                }
            }
        }
        std::mem::swap(&mut self.q, &mut self.qn);
        self.steps_done += 1;
    }

    fn validate(&self) -> Result<(), String> {
        let stride = self.stride();
        for y in 1..=self.ly {
            for x in 1..=self.lx {
                let i = y * stride + x;
                let rho = self.q[0][i];
                if !rho.is_finite() || rho <= 0.0 {
                    return Err(format!("bad density {rho} at ({x},{y})"));
                }
                let p = Self::pressure(rho, self.q[1][i], self.q[2][i], self.q[3][i]);
                if !p.is_finite() || p <= 0.0 {
                    return Err(format!("bad pressure {p} at ({x},{y})"));
                }
            }
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        let (m, e) = self.local_conserved();
        m + e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;
    use spechpc_simmpi::threadcomm::ThreadWorld;

    #[test]
    fn mass_and_energy_conserved_single_rank() {
        let mut k = CloverKernel::new(params(WorkloadClass::Test), 0, 1);
        let (m0, e0) = k.local_conserved();
        let mut comm = SelfComm::new();
        for _ in 0..10 {
            k.step(&mut comm);
        }
        let (m1, e1) = k.local_conserved();
        assert!((m1 - m0).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
        assert!((e1 - e0).abs() / e0 < 1e-12, "energy drift {e0} → {e1}");
        k.validate().unwrap();
    }

    #[test]
    fn shock_spreads_momentum() {
        // The discontinuous initial state must start moving.
        let mut k = CloverKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        for _ in 0..5 {
            k.step(&mut comm);
        }
        let stride = k.stride();
        let mom: f64 = (1..=k.ly)
            .flat_map(|y| (1..=k.lx).map(move |x| y * stride + x))
            .map(|i| k.q[1][i].abs() + k.q[2][i].abs())
            .sum();
        assert!(mom > 0.0, "momentum must develop at the interface");
    }

    #[test]
    fn cfl_dt_is_positive_and_bounded() {
        let mut k = CloverKernel::new(params(WorkloadClass::Test), 0, 1);
        let mut comm = SelfComm::new();
        k.step(&mut comm);
        assert!(k.dt > 0.0 && k.dt <= 0.04, "dt = {}", k.dt);
    }

    #[test]
    fn four_rank_native_run_conserves_globally() {
        let p = params(WorkloadClass::Test);
        let results = ThreadWorld::run(4, |rank, comm| {
            let mut k = CloverKernel::new(p, rank, 4);
            let before = k.local_conserved();
            for _ in 0..5 {
                k.step(comm);
            }
            k.validate().unwrap();
            (before, k.local_conserved())
        });
        let m0: f64 = results.iter().map(|((m, _), _)| m).sum();
        let m1: f64 = results.iter().map(|(_, (m, _))| m).sum();
        let e0: f64 = results.iter().map(|((_, e), _)| e).sum();
        let e1: f64 = results.iter().map(|(_, (_, e))| e).sum();
        assert!((m1 - m0).abs() / m0 < 1e-12, "global mass {m0} → {m1}");
        assert!((e1 - e0).abs() / e0 < 1e-12, "global energy {e0} → {e1}");
    }

    #[test]
    fn signature_memory_bound_and_well_vectorized() {
        let sig = Cloverleaf.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        assert!(sig.intensity() < 0.5);
        assert!(sig.simd_fraction > 0.9);
        // Working set ~28 GB: never cache-resident (scaling case D).
        assert!(sig.working_set_bytes > 20e9);
    }

    #[test]
    fn step_program_has_single_dt_reduction() {
        let ct = ComputeTimes {
            per_rank: vec![0.01; 6],
            utilization: vec![0.2; 6],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = Cloverleaf.step_programs(WorkloadClass::Tiny, &ct);
        for p in &progs {
            assert_eq!(p.collective_count(), 1);
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn config_matches_table_1() {
        let cfg = Cloverleaf.config(WorkloadClass::Tiny);
        assert_eq!(
            cfg.param("Logical mesh size for {X,Y}-direction"),
            Some("{15360,15360}")
        );
        let cfg = Cloverleaf.config(WorkloadClass::Small);
        assert_eq!(
            cfg.param("Logical mesh size for {X,Y}-direction"),
            Some("{61440,30720}")
        );
    }
}
