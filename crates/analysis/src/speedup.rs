//! Speedup and parallel-efficiency analysis (paper §4.1.1).
//!
//! "A saturation pattern, i.e., the speedup approaching a limit across
//! the cores of a ccNUMA domain, is an indicator for memory-bound
//! behavior. Lacking other bottlenecks, the speedup *across* ccNUMA
//! domains should be ideal … unless cache effects allow for superlinear
//! scaling."

/// A strong-scaling curve: `(resources, runtime_s)` pairs, resources
/// ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeedupCurve {
    pub points: Vec<(usize, f64)>,
}

impl SpeedupCurve {
    pub fn new(points: Vec<(usize, f64)>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "resources must be strictly ascending"
        );
        SpeedupCurve { points }
    }

    /// Runtime at a resource count, if measured.
    pub fn runtime(&self, resources: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(r, _)| *r == resources)
            .map(|(_, t)| *t)
    }

    /// Speedup relative to the curve's first point.
    pub fn speedup(&self, resources: usize) -> Option<f64> {
        let (r0, t0) = *self.points.first()?;
        let _ = r0;
        Some(t0 / self.runtime(resources)?)
    }

    /// Speedup of every point relative to the first.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        let t0 = self.points.first().map(|(_, t)| *t).unwrap_or(1.0);
        self.points.iter().map(|(r, t)| (*r, t0 / t)).collect()
    }

    /// Detect saturation within a window `[lo, hi]`: the speedup gained
    /// from the second half of the window is less than `frac` of ideal.
    pub fn saturates_within(&self, lo: usize, hi: usize, frac: f64) -> bool {
        let (Some(t_lo), Some(t_hi)) = (self.runtime(lo), self.runtime(hi)) else {
            return false;
        };
        let gained = t_lo / t_hi;
        let ideal = hi as f64 / lo as f64;
        gained < frac * ideal
    }
}

/// Parallel efficiency (in %) between a baseline resource count and a
/// larger one: `100 · (t_base / t_big) / (big / base)`. The paper's
/// §4.1.1 table uses one ccNUMA domain as the baseline and the full
/// node as the target.
pub fn parallel_efficiency(
    curve: &SpeedupCurve,
    base_resources: usize,
    big_resources: usize,
) -> Option<f64> {
    let t_base = curve.runtime(base_resources)?;
    let t_big = curve.runtime(big_resources)?;
    let ideal = big_resources as f64 / base_resources as f64;
    Some(100.0 * (t_base / t_big) / ideal)
}

/// Classification of a node-level scaling pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeScalingPattern {
    /// Speedup saturates within the ccNUMA domain (memory-bound).
    Saturating,
    /// Near-ideal scaling throughout.
    Scalable,
    /// Large reproducible fluctuations (lbm, minisweep).
    Erratic,
    /// Better than ideal across domains (cache effects).
    Superlinear,
}

/// Classify a node-level curve given the machine's domain size.
pub fn classify_node_scaling(
    curve: &SpeedupCurve,
    domain_cores: usize,
    node_cores: usize,
) -> NodeScalingPattern {
    // Fluctuation: non-monotone runtime with spread > 15 %.
    let mut spread: f64 = 0.0;
    for w in curve.points.windows(3) {
        let (_, t0) = w[0];
        let (_, t1) = w[1];
        let (_, t2) = w[2];
        if t1 > t0 && t1 > t2 {
            spread = spread.max((t1 - t0.min(t2)) / t1);
        }
    }
    if spread > 0.15 {
        return NodeScalingPattern::Erratic;
    }
    if let Some(eff) = parallel_efficiency(curve, domain_cores, node_cores) {
        if eff > 110.0 {
            return NodeScalingPattern::Superlinear;
        }
    }
    if curve.saturates_within(1, domain_cores, 0.55) {
        return NodeScalingPattern::Saturating;
    }
    NodeScalingPattern::Scalable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal(n: usize) -> SpeedupCurve {
        SpeedupCurve::new((1..=n).map(|r| (r, 100.0 / r as f64)).collect())
    }

    fn saturating(n: usize, s_max: f64) -> SpeedupCurve {
        SpeedupCurve::new(
            (1..=n)
                .map(|r| {
                    let s = s_max * (r as f64 / s_max).tanh();
                    (r, 100.0 / s)
                })
                .collect(),
        )
    }

    #[test]
    fn ideal_curve_is_100_percent_efficient() {
        let c = ideal(72);
        let eff = parallel_efficiency(&c, 18, 72).unwrap();
        assert!((eff - 100.0).abs() < 1e-9);
        assert!(!c.saturates_within(1, 18, 0.55));
    }

    #[test]
    fn saturating_curve_detected() {
        let c = saturating(18, 6.0);
        assert!(c.saturates_within(1, 18, 0.55));
        assert_eq!(
            classify_node_scaling(&c, 18, 18),
            NodeScalingPattern::Saturating
        );
    }

    #[test]
    fn superlinear_efficiency_above_100() {
        // Runtime drops faster than ideal beyond the domain.
        let mut pts: Vec<(usize, f64)> = (1..=18).map(|r| (r, 100.0 / r as f64)).collect();
        pts.push((72, 100.0 / (72.0 * 1.25))); // 125 % efficient
        let c = SpeedupCurve::new(pts);
        let eff = parallel_efficiency(&c, 18, 72).unwrap();
        assert!((eff - 125.0).abs() < 1e-9);
        assert_eq!(
            classify_node_scaling(&c, 18, 72),
            NodeScalingPattern::Superlinear
        );
    }

    #[test]
    fn erratic_curve_detected() {
        // lbm-style: big dips at specific counts.
        let pts: Vec<(usize, f64)> = (1..=30)
            .map(|r| {
                let mut t = 100.0 / r as f64;
                if r == 22 || r == 23 {
                    t *= 1.4;
                }
                (r, t)
            })
            .collect();
        let c = SpeedupCurve::new(pts);
        assert_eq!(
            classify_node_scaling(&c, 18, 30),
            NodeScalingPattern::Erratic
        );
    }

    #[test]
    fn speedups_relative_to_first_point() {
        let c = SpeedupCurve::new(vec![(2, 50.0), (4, 25.0), (8, 12.5)]);
        let s = c.speedups();
        assert_eq!(s, vec![(2, 1.0), (4, 2.0), (8, 4.0)]);
        assert_eq!(c.speedup(8), Some(4.0));
        assert_eq!(c.speedup(3), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unordered_points_rejected() {
        SpeedupCurve::new(vec![(4, 1.0), (2, 2.0)]);
    }
}
