//! CPU (socket) specification: clock, core count, SIMD capability, and the
//! RAPL-relevant power envelope (TDP, extrapolated zero-core baseline
//! power, per-core dynamic power range), plus the overlap law that turns
//! a core's in-core time and memory time into its step time.

use crate::{GFlops, Watts};

/// ECM-style non-overlap factor: the fraction of the shorter of
/// (in-core time, memory time) that does *not* hide behind the longer.
const OVERLAP_PENALTY: f64 = 0.5;

/// Time of a compute phase whose in-core work takes `t_flops` and whose
/// memory traffic takes `t_mem`: `max + 0.5·min`. In-core execution and
/// memory transfers overlap imperfectly on Intel server cores. The node
/// model and the DVFS analysis both read this one law.
pub fn overlapped(t_flops: f64, t_mem: f64) -> f64 {
    t_flops.max(t_mem) + OVERLAP_PENALTY * t_flops.min(t_mem)
}

/// Specification of one CPU socket.
///
/// Power constants follow the paper's RAPL methodology: `baseline_power_w`
/// is the *extrapolated zero-core* package power (paper §4.2.3: 95–101 W on
/// Ice Lake, 176–181 W on Sapphire Rapids, <20 % of TDP on Sandy Bridge),
/// and the per-core dynamic power is bounded by
/// `[core_power_cool_w, core_power_hot_w]`, calibrated such that "hot"
/// codes (sph-exa) reach 97–98 % of TDP and "cool" codes (soma) 85–89 %
/// with all cores active (paper §4.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. "Xeon Platinum 8360Y (Ice Lake)".
    pub model: String,
    /// Microarchitecture family, e.g. "Ice Lake".
    pub microarchitecture: String,
    /// Base clock frequency in GHz. The paper pins all cores to base clock
    /// via SLURM `--cpu-freq`, so this is the operating frequency.
    pub base_clock_ghz: f64,
    /// Physical cores per socket (hyper-threading disabled in the study).
    pub cores_per_socket: usize,
    /// Width of the widest SIMD unit in double-precision lanes
    /// (AVX-512 ⇒ 8, AVX ⇒ 4).
    pub simd_dp_lanes: usize,
    /// Number of SIMD FMA pipelines (2 on server Ice Lake / Sapphire
    /// Rapids, 1 on Sandy Bridge which has separate ADD and MUL ports —
    /// modelled as one combined pipe of throughput 2 ops/cycle there).
    pub fma_units: usize,
    /// Thermal design power of the socket in W.
    pub tdp_w: Watts,
    /// Extrapolated zero-core ("idle") package power in W.
    pub baseline_power_w: Watts,
    /// Dynamic power of one fully busy core running low-intensity
    /// (load/store dominated, poorly vectorized) code, in W.
    pub core_power_cool_w: Watts,
    /// Dynamic power of one fully busy core running high-intensity
    /// (dense SIMD FMA) code, in W.
    pub core_power_hot_w: Watts,
    /// Fraction of its busy power a memory-stalled core still draws.
    /// Modern server cores clock-gate stalled pipelines noticeably
    /// (≈0.40 on Ice Lake / Sapphire Rapids); older designs kept most
    /// of the clock tree running (≈0.65 on Sandy Bridge). Together with
    /// the baseline power this decides whether concurrency throttling
    /// saves energy (paper §4.3.1).
    pub stall_power_floor: f64,
}

impl CpuSpec {
    /// Peak double-precision performance of the whole socket in Gflop/s:
    /// `clock × lanes × 2 (FMA) × fma_units × cores`.
    pub fn peak_flops(&self) -> GFlops {
        self.base_clock_ghz
            * self.simd_dp_lanes as f64
            * 2.0
            * self.fma_units as f64
            * self.cores_per_socket as f64
    }

    /// Peak double-precision performance of one core in Gflop/s.
    pub fn peak_flops_per_core(&self) -> GFlops {
        self.peak_flops() / self.cores_per_socket as f64
    }

    /// Peak *scalar* (non-SIMD) DP performance of one core in Gflop/s.
    /// Used by the vectorization model: work not executed with SIMD
    /// instructions proceeds at scalar FMA throughput.
    pub fn scalar_flops_per_core(&self) -> GFlops {
        self.base_clock_ghz * 2.0 * self.fma_units as f64
    }

    /// Package power with `active` busy cores running code whose
    /// "heat" is `heat ∈ [0, 1]` (0 = coolest observed code, 1 = densest
    /// SIMD FMA code) and whose cores are only `utilization ∈ [0, 1]`
    /// busy (cores stalled on memory past the bandwidth saturation point
    /// draw less than fully busy cores; paper §4.2 observes the package
    /// power slope flattening after saturation).
    ///
    /// Clamped to TDP, as RAPL enforces on real hardware.
    pub fn package_power(&self, active: usize, heat: f64, utilization: f64) -> Watts {
        let active = active.min(self.cores_per_socket) as f64;
        let heat = heat.clamp(0.0, 1.0);
        let utilization = utilization.clamp(0.0, 1.0);
        let per_core =
            self.core_power_cool_w + heat * (self.core_power_hot_w - self.core_power_cool_w);
        // A stalled core still clocks and snoops: it retains the
        // CPU-specific floor of its busy power. This yields the "slope
        // still grows, but more slowly" behaviour of paper §4.2.
        let floor = self.stall_power_floor.clamp(0.0, 1.0);
        let effective = per_core * (floor + (1.0 - floor) * utilization);
        (self.baseline_power_w + active * effective).min(self.tdp_w)
    }

    /// Fraction of TDP drawn with all cores busy at the given heat.
    pub fn tdp_fraction_full(&self, heat: f64) -> f64 {
        self.package_power(self.cores_per_socket, heat, 1.0) / self.tdp_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icelake() -> CpuSpec {
        crate::presets::cluster_a().node.cpu
    }

    #[test]
    fn peak_flops_matches_hand_calculation() {
        let cpu = icelake();
        // 2.4 GHz × 8 lanes × 2 flops/FMA × 2 units × 36 cores
        assert!((cpu.peak_flops() - 2764.8).abs() < 1e-9);
        assert!((cpu.peak_flops_per_core() - 76.8).abs() < 1e-9);
    }

    #[test]
    fn scalar_rate_is_simd_rate_divided_by_lanes() {
        let cpu = icelake();
        assert!(
            (cpu.scalar_flops_per_core() * cpu.simd_dp_lanes as f64 - cpu.peak_flops_per_core())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn package_power_is_monotone_in_active_cores() {
        let cpu = icelake();
        let mut last = 0.0;
        for n in 0..=cpu.cores_per_socket {
            let p = cpu.package_power(n, 0.8, 1.0);
            assert!(p >= last, "power must not drop when adding cores");
            last = p;
        }
    }

    #[test]
    fn package_power_clamps_to_tdp() {
        let cpu = icelake();
        assert!(cpu.package_power(999, 1.0, 1.0) <= cpu.tdp_w + 1e-12);
    }

    #[test]
    fn zero_active_cores_draws_baseline() {
        let cpu = icelake();
        assert_eq!(cpu.package_power(0, 1.0, 1.0), cpu.baseline_power_w);
    }

    #[test]
    fn hot_code_draws_more_than_cool_code() {
        let cpu = icelake();
        let hot = cpu.package_power(cpu.cores_per_socket, 1.0, 1.0);
        let cool = cpu.package_power(cpu.cores_per_socket, 0.0, 1.0);
        assert!(hot > cool);
    }

    #[test]
    fn stalled_cores_draw_less_than_busy_cores() {
        let cpu = icelake();
        let busy = cpu.package_power(18, 0.5, 1.0);
        let stalled = cpu.package_power(18, 0.5, 0.3);
        assert!(stalled < busy);
        // ... but more than baseline: stalled cores are not free.
        assert!(stalled > cpu.baseline_power_w);
    }
}
