//! Seeded workload inputs. The program under test receives only the
//! request bodies generated here.

use spechpc::harness::experiments::node_level::sweep_counts;
use spechpc::harness::plan::{PlanJob, PlanRequest, PlanVariant};
use spechpc::kernels::common::rng::Rng;
use spechpc::prelude::*;

/// The Fig. 1 grid as `POST /v1/run` bodies: nine benchmarks, tiny
/// class, every eighth core count plus the NUMA-domain boundaries, on
/// both clusters.
pub fn grid_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    for (alias, cluster) in [("a", presets::cluster_a()), ("b", presets::cluster_b())] {
        for bench in BENCHMARK_NAMES {
            for n in sweep_counts(&cluster, 8) {
                bodies.push(
                    RunRequest::new(bench, WorkloadClass::Tiny, n)
                        .with_cluster(alias)
                        .to_json(),
                );
            }
        }
    }
    bodies
}

/// Uniform draws of key indices in `0..keys`, the replay workloads'
/// request sequence.
pub struct KeyDraws {
    rng: Rng,
    keys: usize,
}

impl KeyDraws {
    pub fn new(seed: u64, keys: usize) -> Self {
        KeyDraws {
            rng: Rng::seed_from_u64(seed),
            keys,
        }
    }
}

impl Iterator for KeyDraws {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Multiply-shift maps 64 random bits onto the key range without
        // the bias of a modulo.
        Some(((self.rng.next_u64() as u128 * self.keys as u128) >> 64) as usize)
    }
}

/// Node widths of the plan templates (ranks = width × 72 cores of an
/// Ice Lake node, so the same template is 1–3 nodes on Sapphire Rapids).
pub const PLAN_WIDTHS: [usize; 3] = [1, 2, 4];
/// Submissions per template.
pub const PLAN_COUNT: usize = 100;
/// Nodes of the modeled baseline cluster.
pub const PLAN_NODES: usize = 16;
/// Fleet power cap of the capped variant (W), as in
/// `plans/capacity-ci.json`.
pub const PLAN_CAP_W: f64 = 6250.0;

/// The `i`-th `POST /v1/plan` body of the seeded sequence: 27 templates
/// (nine benchmarks × three widths) whose first arrival and
/// interarrival gap are drawn from `(seed, i)`, so no two bodies agree,
/// plus the `spr` and capped variants of `plans/capacity-ci.json`.
pub fn plan_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut req = PlanRequest::new()
        .with_cluster("a")
        .with_nodes(PLAN_NODES)
        .with_variant(PlanVariant::new("spr").with_cluster("b"))
        .with_variant(PlanVariant::new("capped").with_power_cap_w(PLAN_CAP_W));
    for bench in BENCHMARK_NAMES {
        for width in PLAN_WIDTHS {
            let arrival = rng.range(0.0, 60.0).round();
            let gap = rng.range(2.0, 8.0).round();
            req = req.with_job(
                PlanJob::new(bench, WorkloadClass::Tiny, width * 72)
                    .with_arrival(arrival)
                    .with_count(PLAN_COUNT, gap),
            );
        }
    }
    req.to_json()
}

/// Distinct `(cluster alias, benchmark, ranks)` shapes the plan bodies
/// resolve: every template on the baseline (`a`) and `spr` (`b`)
/// clusters; the capped variant reuses the baseline's.
pub fn plan_shape_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    for alias in ["a", "b"] {
        for bench in BENCHMARK_NAMES {
            for width in PLAN_WIDTHS {
                bodies.push(
                    RunRequest::new(bench, WorkloadClass::Tiny, width * 72)
                        .with_cluster(alias)
                        .to_json(),
                );
            }
        }
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a: Vec<usize> = KeyDraws::new(7, 297).take(1000).collect();
        let b: Vec<usize> = KeyDraws::new(7, 297).take(1000).collect();
        let c: Vec<usize> = KeyDraws::new(8, 297).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&k| k < 297));
        // Uniform enough that every key of a small grid shows up.
        let mut seen = [false; 297];
        for k in KeyDraws::new(1, 297).take(20_000) {
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn plan_bodies_follow_the_seed_and_never_repeat() {
        assert_eq!(plan_body(3, 0), plan_body(3, 0));
        assert_ne!(plan_body(3, 0), plan_body(3, 1));
        assert_ne!(plan_body(3, 0), plan_body(4, 0));
        let req = PlanRequest::from_json(&plan_body(3, 5)).unwrap();
        assert_eq!(req.jobs.len(), 27);
        assert_eq!(req.variants.len(), 2);
    }

    #[test]
    fn grid_has_a_body_per_key() {
        let bodies = grid_bodies();
        let mut unique = bodies.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), bodies.len());
        assert_eq!(plan_shape_bodies().len(), 54);
    }
}
