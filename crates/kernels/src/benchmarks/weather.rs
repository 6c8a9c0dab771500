//! `weather` — finite-volume atmospheric flow (miniWeather-style)
//! (SPEC id 35, Fortran, ~1100 LOC, no collective).
//!
//! A traditional finite-volume control-flow code for atmospheric
//! dynamics (paper Table 2), the smallest code of the suite. The study's
//! weather findings: it mixes memory-bound and non-memory-bound kernels
//! (§4.1.4), is poorly vectorized ("it might become fully memory bound
//! if it could be efficiently vectorized", §4.1.3), shows the largest
//! ClusterB/ClusterA acceleration of the suite (2.03, §4.1.2), and is
//! *the* superlinear-scaling case: its working set drops into the
//! aggregate caches under strong scaling — earlier on ClusterB with its
//! 1.45×/1.6× larger L3/L2 per core — which makes it scaling case A on
//! ClusterB and case B (cache gain balancing communication) on ClusterA
//! (§5.1.1).
//!
//! The analog implements a real 2-D (x, z) finite-volume transport step
//! with dimensional splitting: four coupled state fields (the
//! dry-dynamics state vector), upwind fluxes in x with a prescribed
//! shear wind, buoyancy-driven vertical fluxes, periodic x boundaries
//! and rigid (zero-flux) z boundaries, 1-D domain decomposition along x
//! with non-blocking halo exchange — and *no* collectives, matching
//! Table 1. Tracer mass is conserved exactly by the flux form.

use spechpc_simmpi::comm::Comm;
use spechpc_simmpi::program::{Op, Program};

use crate::common::benchmark::{BenchConfig, BenchMeta, Benchmark, Kernel};
use crate::common::config::WorkloadClass;
use crate::common::decomp::block_range;
use crate::common::model::ComputeTimes;
use crate::common::signature::WorkloadSignature;

/// State fields: density perturbation, u-momentum, w-momentum,
/// potential-temperature perturbation.
const NVARS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeatherParams {
    pub nx: usize,
    pub nz: usize,
    pub steps: u64,
    /// Physics model number (Table 1; 6 = Injection).
    pub model: u32,
}

pub fn params(class: WorkloadClass) -> WeatherParams {
    match class {
        WorkloadClass::Test => WeatherParams {
            nx: 64,
            nz: 32,
            steps: 10,
            model: 6,
        },
        WorkloadClass::Tiny => WeatherParams {
            nx: 24000,
            nz: 1250,
            steps: 600,
            model: 6,
        },
        WorkloadClass::Small => WeatherParams {
            nx: 192000,
            nz: 1250,
            steps: 600,
            model: 6,
        },
        WorkloadClass::Medium => WeatherParams {
            nx: 768000,
            nz: 2500,
            steps: 600,
            model: 6,
        },
        WorkloadClass::Large => WeatherParams {
            nx: 1536000,
            nz: 5000,
            steps: 600,
            model: 6,
        },
    }
}

/// The weather suite member.
#[derive(Debug, Default, Clone, Copy)]
pub struct Weather;

impl Benchmark for Weather {
    fn meta(&self) -> BenchMeta {
        BenchMeta {
            name: "weather",
            spec_id: 35,
            language: "Fortran",
            loc: 1100,
            collective: "—",
            numerics: "Traditional finite-volume control flow (dry atmospheric dynamics)",
            domain: "Atmospheric weather and climate",
            supports_medium_large: true,
        }
    }

    fn config(&self, class: WorkloadClass) -> BenchConfig {
        let p = params(class);
        BenchConfig {
            params: vec![
                ("Global X-dimension size", p.nx.to_string()),
                ("Global Z-dimension size", p.nz.to_string()),
                ("Number of time-steps", p.steps.to_string()),
                ("Output over N number of time-steps", "100".into()),
                ("Model number to use", p.model.to_string()),
            ],
            steps: p.steps,
        }
    }

    fn signature(&self, class: WorkloadClass) -> WorkloadSignature {
        let p = params(class);
        let n = (p.nx * p.nz) as f64;
        // Mixed kernels: the flux computations are memory-intensive,
        // the semi-discrete update and physics are flop-heavy but
        // poorly vectorized.
        WorkloadSignature {
            flops: n * 250.0,
            simd_fraction: 0.35,
            core_efficiency: 0.30,
            mem_bytes: n * 250.0,
            mem_bytes_per_rank: 0.0,
            l2_bytes: n * 340.0,
            l3_bytes: n * 290.0,
            // The *hot* working set is little more than the 4-field
            // state vector (~20 B/cell after the splitting reuses the
            // temporaries; tiny: ≈0.6 GB): small enough that the
            // aggregate outer-level caches bite — the driver of the
            // superlinear scaling on ClusterB (§4.1.1, §5.1 case A) and
            // of the suite-topping 2.03× acceleration factor (§4.1.2).
            working_set_bytes: n * 20.0,
            cache_exponent: 3.0,
            replicated_fraction: 0.0,
            heat: 0.5,
            steps: p.steps,
        }
    }

    fn step_programs(&self, class: WorkloadClass, compute: &ComputeTimes) -> Vec<Program> {
        let nranks = compute.per_rank.len();
        let p = params(class);
        // Halo: 2 cells × nz × NVARS per side (3rd-order stencils need
        // 2-deep halos in the original).
        let halo_bytes = 2 * p.nz * NVARS * 8;
        (0..nranks)
            .map(|r| {
                let mut prog = Program::new();
                if nranks > 1 {
                    let east = (r + 1) % nranks;
                    let west = (r + nranks - 1) % nranks;
                    prog.push(Op::irecv(west, 0, 0));
                    prog.push(Op::irecv(east, 1, 1));
                    prog.push(Op::isend(east, 0, halo_bytes, 2));
                    prog.push(Op::isend(west, 1, halo_bytes, 3));
                    for q in 0..4 {
                        prog.push(Op::wait(q));
                    }
                }
                // Dimensional splitting: x pass then z pass.
                prog.push(Op::compute(compute.per_rank[r] * 0.5));
                prog.push(Op::compute(compute.per_rank[r] * 0.5));
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
        Box::new(WeatherKernel::new(p, rank, nranks))
    }
}

/// Real 2-D FV transport kernel, 1-D decomposition in x.
///
/// The prescribed wind field is built from a discrete stream function
/// (a sheared base flow plus a convective roll), so the face velocities
/// are *exactly* discretely divergence-free: constant states are
/// preserved to round-off and the first-order upwind transport is
/// monotone — both tested invariants.
pub struct WeatherKernel {
    rank: usize,
    nranks: usize,
    /// Local x-extent (without halo); z is never split.
    lx: usize,
    nz: usize,
    /// Fields with a 1-cell x halo: `q[v][(lx+2) × nz]`, x-major
    /// (column (x) contiguous in z for easy halo slicing).
    q: Vec<Vec<f64>>,
    qn: Vec<Vec<f64>>,
    /// Face-normal velocity through the x-faces: `(lx+1) × nz`
    /// (face i sits between cells i−1 and i of the core).
    u_face: Vec<f64>,
    /// Face-normal velocity through the z-faces: `lx × (nz+1)`;
    /// exactly zero at the rigid walls.
    w_face: Vec<f64>,
    dt: f64,
    pub steps_done: u64,
}

impl WeatherKernel {
    pub fn new(p: WeatherParams, rank: usize, nranks: usize) -> Self {
        let (x0, x1) = block_range(p.nx, nranks, rank);
        let lx = x1 - x0;
        assert!(lx >= 1, "x-slab too thin");
        let size = (lx + 2) * p.nz;
        let mut q = vec![vec![0.0; size]; NVARS];
        // Injection model (Table 1 model 6): a warm bubble near the
        // bottom boundary, zero mean state perturbation elsewhere.
        for x in 0..lx {
            for z in 0..p.nz {
                let gx = (x0 + x) as f64 / p.nx as f64;
                let gz = z as f64 / p.nz as f64;
                let dx = gx - 0.25;
                let dz = gz - 0.2;
                let bubble = (-((dx * dx) / 0.005 + (dz * dz) / 0.01)).exp();
                let i = (x + 1) * p.nz + z;
                q[0][i] = 1.0; // density
                q[1][i] = 0.0;
                q[2][i] = 0.0;
                q[3][i] = 300.0 + 10.0 * bubble; // θ
            }
        }
        let qn = q.clone();
        // Discrete stream function at cell corners: Ψ(gx, gz) =
        // base-shear + convective roll; face velocities are its
        // differences, hence discretely divergence-free.
        let psi = |gx: usize, gz: usize| -> f64 {
            let fx = gx as f64 / p.nx as f64 * std::f64::consts::TAU;
            let fz = gz as f64 / p.nz as f64;
            // ∂Ψ/∂z = 0.5 + 0.5·z/nz  (the sheared eastward base wind)
            let base = 0.5 * gz as f64 + 0.25 * (gz as f64) * fz;
            let roll = 0.15 * p.nz as f64 * fx.sin() * (std::f64::consts::PI * fz).sin();
            base + roll
        };
        let mut u_face = vec![0.0; (lx + 1) * p.nz];
        for xf in 0..=lx {
            let gx = (x0 + xf) % p.nx; // face between cells gx−1 and gx
            for z in 0..p.nz {
                u_face[xf * p.nz + z] = psi(gx, z + 1) - psi(gx, z);
            }
        }
        let mut w_face = vec![0.0; lx * (p.nz + 1)];
        for x in 0..lx {
            let gx = x0 + x;
            for zf in 0..=p.nz {
                // Zero at zf = 0 and zf = nz: the roll's sin(π·fz)
                // vanishes and the base is x-independent.
                w_face[x * (p.nz + 1) + zf] = -(psi(gx + 1, zf) - psi(gx, zf));
            }
        }
        WeatherKernel {
            rank,
            nranks,
            lx,
            nz: p.nz,
            q,
            qn,
            u_face,
            w_face,
            dt: 0.2,
            steps_done: 0,
        }
    }

    /// Exchange the one-column x halos (columns are contiguous).
    fn halo(&mut self, comm: &mut dyn Comm) {
        let nz = self.nz;
        let lx = self.lx;
        for v in 0..NVARS {
            let base = (v * 4) as u32;
            if self.nranks > 1 {
                let east = (self.rank + 1) % self.nranks;
                let west = (self.rank + self.nranks - 1) % self.nranks;
                let east_col = self.q[v][lx * nz..(lx + 1) * nz].to_vec();
                let west_col = self.q[v][nz..2 * nz].to_vec();
                comm.send(east, base, &east_col);
                comm.send(west, base + 1, &west_col);
                let mut from_west = vec![0.0; nz];
                let mut from_east = vec![0.0; nz];
                comm.recv(west, base, &mut from_west);
                comm.recv(east, base + 1, &mut from_east);
                self.q[v][0..nz].copy_from_slice(&from_west);
                self.q[v][(lx + 1) * nz..(lx + 2) * nz].copy_from_slice(&from_east);
            } else {
                // Periodic wrap locally.
                let east_col = self.q[v][lx * nz..(lx + 1) * nz].to_vec();
                let west_col = self.q[v][nz..2 * nz].to_vec();
                self.q[v][0..nz].copy_from_slice(&east_col);
                self.q[v][(lx + 1) * nz..(lx + 2) * nz].copy_from_slice(&west_col);
            }
        }
    }

    /// Overwrite field `v` (including halos) with a constant.
    pub fn set_constant(&mut self, v: usize, value: f64) {
        self.q[v].iter_mut().for_each(|x| *x = value);
    }

    /// (min, max) of field `v` over the core cells.
    pub fn field_range(&self, v: usize) -> (f64, f64) {
        let nz = self.nz;
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        for x in 1..=self.lx {
            for z in 0..nz {
                let val = self.q[v][x * nz + z];
                mn = mn.min(val);
                mx = mx.max(val);
            }
        }
        (mn, mx)
    }

    /// Total content of field `v` on the local slab.
    pub fn local_total(&self, v: usize) -> f64 {
        let nz = self.nz;
        let mut s = 0.0;
        for x in 1..=self.lx {
            for z in 0..nz {
                s += self.q[v][x * nz + z];
            }
        }
        s
    }
}

impl Kernel for WeatherKernel {
    fn step(&mut self, comm: &mut dyn Comm) {
        self.halo(comm);
        let nz = self.nz;
        let lx = self.lx;
        let dt = self.dt;

        // Single unsplit conservative upwind update on the discretely
        // divergence-free face velocities: constants are preserved
        // exactly and the scheme is monotone under the CFL bound.
        for v in 0..NVARS {
            for x in 1..=lx {
                for z in 0..nz {
                    let i = x * nz + z;
                    // x faces: west face xf = x−1, east face xf = x
                    // (u_face is indexed by core-face number 0..=lx).
                    let upwind_x = |xf: usize| -> f64 {
                        let u = self.u_face[xf * nz + z];
                        if u >= 0.0 {
                            u * self.q[v][xf * nz + z] // cell west of face
                        } else {
                            u * self.q[v][(xf + 1) * nz + z]
                        }
                    };
                    let upwind_z = |zf: usize| -> f64 {
                        let w = self.w_face[(x - 1) * (nz + 1) + zf];
                        if zf == 0 || zf == nz {
                            return 0.0; // rigid wall (w is 0 there too)
                        }
                        if w >= 0.0 {
                            w * self.q[v][x * nz + zf - 1]
                        } else {
                            w * self.q[v][x * nz + zf]
                        }
                    };
                    let div = (upwind_x(x) - upwind_x(x - 1)) + (upwind_z(z + 1) - upwind_z(z));
                    self.qn[v][i] = self.q[v][i] - dt * div;
                }
            }
        }
        for v in 0..NVARS {
            std::mem::swap(&mut self.q[v], &mut self.qn[v]);
        }
        self.steps_done += 1;
    }

    fn validate(&self) -> Result<(), String> {
        for (v, field) in self.q.iter().enumerate() {
            for x in 1..=self.lx {
                for z in 0..self.nz {
                    let val = field[x * self.nz + z];
                    if !val.is_finite() {
                        return Err(format!("non-finite field {v} at ({x},{z})"));
                    }
                }
            }
        }
        // Density must stay positive.
        for x in 1..=self.lx {
            for z in 0..self.nz {
                if self.q[0][x * self.nz + z] <= 0.0 {
                    return Err("non-positive density".into());
                }
            }
        }
        Ok(())
    }

    fn checksum(&self) -> f64 {
        (0..NVARS).map(|v| self.local_total(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_simmpi::comm::SelfComm;
    use spechpc_simmpi::threadcomm::ThreadWorld;

    #[test]
    fn mass_conserved_single_rank() {
        let mut k = WeatherKernel::new(params(WorkloadClass::Test), 0, 1);
        let m0 = k.local_total(0);
        let t0 = k.local_total(3);
        let mut comm = SelfComm::new();
        for _ in 0..10 {
            k.step(&mut comm);
        }
        let m1 = k.local_total(0);
        let t1 = k.local_total(3);
        assert!((m1 - m0).abs() / m0 < 1e-12, "mass drift {m0} → {m1}");
        assert!((t1 - t0).abs() / t0 < 1e-12, "θ drift {t0} → {t1}");
        k.validate().unwrap();
    }

    #[test]
    fn bubble_advects_downwind() {
        // Centre of mass of the θ perturbation must move in +x.
        let p = params(WorkloadClass::Test);
        let mut k = WeatherKernel::new(p, 0, 1);
        let com = |k: &WeatherKernel| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for x in 1..=k.lx {
                for z in 0..k.nz {
                    let pert = k.q[3][x * k.nz + z] - 300.0;
                    if pert > 0.1 {
                        num += pert * x as f64;
                        den += pert;
                    }
                }
            }
            num / den.max(1e-30)
        };
        let c0 = com(&k);
        let mut comm = SelfComm::new();
        for _ in 0..10 {
            k.step(&mut comm);
        }
        let c1 = com(&k);
        assert!(c1 > c0, "bubble must advect east: {c0} → {c1}");
    }

    #[test]
    fn three_rank_native_run_conserves_globally() {
        let p = params(WorkloadClass::Test);
        let totals = ThreadWorld::run(3, |rank, comm| {
            let mut k = WeatherKernel::new(p, rank, 3);
            let before = k.checksum();
            for _ in 0..5 {
                k.step(comm);
            }
            k.validate().unwrap();
            (before, k.checksum())
        });
        let b: f64 = totals.iter().map(|(x, _)| x).sum();
        let a: f64 = totals.iter().map(|(_, y)| y).sum();
        assert!((a - b).abs() / b < 1e-12, "global drift {b} → {a}");
    }

    #[test]
    fn signature_has_no_collectives_and_mixed_boundedness() {
        let sig = Weather.signature(WorkloadClass::Tiny);
        sig.validate().unwrap();
        // Intensity between the strong saturators and the compute codes
        // — the "mixed kernels" observation of §4.1.4.
        let i = sig.intensity();
        assert!(i > 0.5 && i < 3.0, "intensity {i}");
        assert!(sig.simd_fraction < 0.5, "poorly vectorized (§4.1.3)");
        assert_eq!(Weather.meta().collective, "—");
        // Tiny hot working set ≈ 0.6 GB — the cache-fit candidate.
        let ws = sig.working_set_bytes / 1e9;
        assert!(ws > 0.3 && ws < 1.5, "working set {ws} GB");
    }

    #[test]
    fn step_program_is_pure_p2p() {
        let ct = ComputeTimes {
            per_rank: vec![0.02; 4],
            utilization: vec![0.5; 4],
            effective_mem_bytes: 0.0,
            effective_l3_bytes: 0.0,
            effective_l2_bytes: 0.0,
        };
        let progs = Weather.step_programs(WorkloadClass::Tiny, &ct);
        for p in &progs {
            assert_eq!(p.collective_count(), 0, "weather has no collectives");
            assert!(p.bytes_sent() > 0);
            assert!(p.validate().is_ok());
            assert!((p.compute_seconds() - 0.02).abs() < 1e-12);
        }
    }

    #[test]
    fn config_matches_table_1() {
        let cfg = Weather.config(WorkloadClass::Tiny);
        assert_eq!(cfg.param("Global X-dimension size"), Some("24000"));
        assert_eq!(cfg.param("Model number to use"), Some("6"));
        assert_eq!(cfg.steps, 600);
        let cfg = Weather.config(WorkloadClass::Small);
        assert_eq!(cfg.param("Global X-dimension size"), Some("192000"));
    }
}
