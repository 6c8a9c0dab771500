//! Frequency-scaling (DVFS) energy analysis — the paper's future-work
//! direction ("we will more thoroughly investigate optimization
//! opportunities", §6), built on the same power model.
//!
//! The classic pre-2020 result is that memory-bound codes save energy
//! by clocking down (performance is bandwidth-limited anyway). On CPUs
//! whose *baseline* power dominates (§4.2.3), that saving shrinks the
//! same way the concurrency-throttling saving did: stretching the
//! runtime costs baseline energy that the dynamic-power reduction can
//! no longer buy back. This module quantifies the trade.

use spechpc_machine::cpu::{overlapped, CpuSpec};

/// DVFS dynamic-power exponent: `P_dyn ∝ (f/f₀)^α`. Near the base
/// operating point voltage scales mildly with frequency; α ≈ 1.8 is a
/// common fit for server parts.
pub const DVFS_EXPONENT: f64 = 1.8;

/// One point of a frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    pub clock_ghz: f64,
    pub runtime_s: f64,
    pub power_w: f64,
    pub energy_j: f64,
}

/// Result of the sweep analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsAnalysis {
    /// Energy-optimal clock in GHz.
    pub optimal_clock_ghz: f64,
    /// Relative energy saving at the optimal clock vs. the base clock.
    pub saving_vs_base: f64,
    /// Runtime stretch at the optimal clock (t_opt / t_base).
    pub slowdown_at_optimum: f64,
}

/// Package power of a socket running at `clock_ghz`: the baseline
/// (uncore, fabric) is frequency-independent, the per-core dynamic part
/// scales with `(f/f₀)^α`.
pub fn package_power_at(
    cpu: &CpuSpec,
    active: usize,
    heat: f64,
    utilization: f64,
    clock_ghz: f64,
) -> f64 {
    let base_dynamic = cpu.package_power(active, heat, utilization) - cpu.baseline_power_w;
    let scale = (clock_ghz / cpu.base_clock_ghz).powf(DVFS_EXPONENT);
    cpu.baseline_power_w + base_dynamic * scale
}

/// Runtime of a code at `clock_ghz` under the Roofline split: the
/// in-core share `t_flops_base` stretches inversely with the clock, the
/// memory share `t_mem` does not, and the node model's [`overlapped`]
/// law combines the two.
pub fn runtime_at(t_flops_base: f64, t_mem: f64, base_clock: f64, clock_ghz: f64) -> f64 {
    overlapped(t_flops_base * base_clock / clock_ghz, t_mem)
}

/// Runtime stretch imposed by capping the core clock at `cap_ghz`,
/// for a code whose in-core (frequency-sensitive) share of the
/// base-clock Roofline profile is `flops_fraction` ∈ [0, 1].
///
/// This is the [`runtime_at`] model solved as a ratio: memory-bound
/// codes (`flops_fraction → 0`) barely notice the cap, compute-bound
/// codes (`flops_fraction → 1`) stretch by the full clock ratio
/// `f₀ / f_cap`. The fault-injection layer uses this to translate a
/// thermal/power-cap event given as a frequency into the `slowdown`
/// factor its throttle window applies.
pub fn throttle_slowdown(base_clock_ghz: f64, cap_ghz: f64, flops_fraction: f64) -> f64 {
    assert!(
        base_clock_ghz > 0.0 && cap_ghz > 0.0,
        "clocks must be positive"
    );
    let phi = flops_fraction.clamp(0.0, 1.0);
    let cap = cap_ghz.min(base_clock_ghz);
    let base = runtime_at(phi, 1.0 - phi, base_clock_ghz, base_clock_ghz);
    runtime_at(phi, 1.0 - phi, base_clock_ghz, cap) / base
}

/// Sweep the clock over `[f_min, f_base]` in `steps` points for a
/// socket-filling job with in-core time `t_flops_base`, memory time
/// `t_mem` (both at base clock) and the given heat.
pub fn frequency_sweep(
    cpu: &CpuSpec,
    heat: f64,
    t_flops_base: f64,
    t_mem: f64,
    f_min_ghz: f64,
    steps: usize,
) -> Vec<DvfsPoint> {
    assert!(steps >= 2, "need at least two sweep points");
    assert!(f_min_ghz > 0.0 && f_min_ghz <= cpu.base_clock_ghz);
    let f0 = cpu.base_clock_ghz;
    (0..steps)
        .map(|i| {
            let f = f_min_ghz + (f0 - f_min_ghz) * i as f64 / (steps - 1) as f64;
            let t = runtime_at(t_flops_base, t_mem, f0, f);
            // Utilization at this clock: the in-core share of the step.
            let t_flops = t_flops_base * f0 / f;
            let util = (t - (t_mem - t_flops).max(0.0)) / t;
            let p = package_power_at(cpu, cpu.cores_per_socket, heat, util, f);
            DvfsPoint {
                clock_ghz: f,
                runtime_s: t,
                power_w: p,
                energy_j: p * t,
            }
        })
        .collect()
}

/// Find the energy-optimal clock of a sweep.
pub fn analyze(sweep: &[DvfsPoint]) -> Option<DvfsAnalysis> {
    let best = sweep
        .iter()
        .min_by(|a, b| a.energy_j.total_cmp(&b.energy_j))?;
    let base = sweep
        .iter()
        .max_by(|a, b| a.clock_ghz.total_cmp(&b.clock_ghz))?;
    Some(DvfsAnalysis {
        optimal_clock_ghz: best.clock_ghz,
        saving_vs_base: (base.energy_j - best.energy_j) / base.energy_j,
        slowdown_at_optimum: best.runtime_s / base.runtime_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_machine::presets;

    fn sweep(cpu: &CpuSpec, t_flops: f64, t_mem: f64) -> Vec<DvfsPoint> {
        frequency_sweep(cpu, 0.4, t_flops, t_mem, cpu.base_clock_ghz * 0.5, 16)
    }

    #[test]
    fn compute_bound_codes_stay_near_full_clock() {
        // With α > 1 even compute-bound codes have a formal energy
        // optimum slightly below nominal, but the saving is negligible
        // and the optimum sits within ~10 % of base clock.
        for node in [presets::cluster_a().node, presets::cluster_b().node] {
            let s = sweep(&node.cpu, 10.0, 0.5);
            let a = analyze(&s).unwrap();
            assert!(
                a.optimal_clock_ghz > 0.88 * node.cpu.base_clock_ghz,
                "{}: compute-bound optimum at {} GHz",
                node.cpu.model,
                a.optimal_clock_ghz
            );
            assert!(
                a.saving_vs_base < 0.02,
                "{}: compute-bound DVFS saving {}",
                node.cpu.model,
                a.saving_vs_base
            );
        }
    }

    #[test]
    fn memory_bound_downclocking_pays_little_on_modern_cpus() {
        // The §4.3 argument extended to DVFS: with ~40–50 % baseline
        // power, clocking a memory-bound code down saves far less than
        // it used to.
        let modern = presets::cluster_a().node.cpu;
        let legacy = presets::sandy_bridge_node().cpu;
        let a_modern = analyze(&sweep(&modern, 1.0, 8.0)).unwrap();
        let a_legacy = analyze(&sweep(&legacy, 1.0, 8.0)).unwrap();
        // Both favour < base clock for strongly memory-bound codes…
        assert!(a_modern.optimal_clock_ghz < modern.base_clock_ghz);
        assert!(a_legacy.optimal_clock_ghz < legacy.base_clock_ghz);
        // …but the legacy chip gains much more.
        assert!(
            a_legacy.saving_vs_base > 1.5 * a_modern.saving_vs_base,
            "modern {:.3} vs legacy {:.3}",
            a_modern.saving_vs_base,
            a_legacy.saving_vs_base
        );
    }

    #[test]
    fn runtime_model_is_monotone_in_clock() {
        let f0 = 2.4;
        let mut last = f64::INFINITY;
        for i in 1..=10 {
            let f = f0 * i as f64 / 10.0;
            let t = runtime_at(5.0, 3.0, f0, f);
            assert!(t <= last + 1e-12, "runtime must not grow with clock");
            last = t;
        }
    }

    #[test]
    fn power_scales_superlinearly_with_clock() {
        let cpu = presets::cluster_a().node.cpu;
        let p_half = package_power_at(&cpu, 36, 0.8, 1.0, 1.2);
        let p_full = package_power_at(&cpu, 36, 0.8, 1.0, 2.4);
        let dyn_half = p_half - cpu.baseline_power_w;
        let dyn_full = p_full - cpu.baseline_power_w;
        let ratio = dyn_full / dyn_half;
        assert!((ratio - 2f64.powf(DVFS_EXPONENT)).abs() < 1e-9);
    }

    #[test]
    fn throttle_slowdown_tracks_the_roofline_split() {
        // Pure compute stretches by the full clock ratio…
        assert!((throttle_slowdown(2.4, 1.2, 1.0) - 2.0).abs() < 1e-12);
        // …pure memory traffic does not notice the cap…
        assert!((throttle_slowdown(2.4, 1.2, 0.0) - 1.0).abs() < 1e-12);
        // …and mixed codes land strictly in between.
        let mixed = throttle_slowdown(2.4, 1.2, 0.5);
        assert!(mixed > 1.0 && mixed < 2.0, "mixed slowdown {mixed}");
    }

    #[test]
    fn throttle_slowdown_is_monotone_and_clamped() {
        let mut last = f64::INFINITY;
        for i in 1..=12 {
            let cap = 2.4 * i as f64 / 12.0;
            let s = throttle_slowdown(2.4, cap, 0.7);
            assert!(s <= last + 1e-12, "deeper caps must slow more");
            assert!(s >= 1.0);
            last = s;
        }
        // A cap at or above base clock is a no-op, never a speed-up.
        assert!((throttle_slowdown(2.4, 2.4, 0.7) - 1.0).abs() < 1e-12);
        assert!((throttle_slowdown(2.4, 3.0, 0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_bounds_respected() {
        let cpu = presets::cluster_b().node.cpu;
        let s = frequency_sweep(&cpu, 0.5, 2.0, 2.0, 1.0, 8);
        assert_eq!(s.len(), 8);
        assert!((s.first().unwrap().clock_ghz - 1.0).abs() < 1e-12);
        assert!((s.last().unwrap().clock_ghz - cpu.base_clock_ghz).abs() < 1e-12);
    }
}
