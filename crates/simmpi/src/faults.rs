//! Seeded, deterministic fault injection.
//!
//! The paper's measurements (and its companion variability studies in
//! PAPERS.md) live on real clusters: OS noise perturbs compute phases,
//! individual nodes straggle or get power-capped, links degrade and
//! retransmit, ranks die. A [`FaultPlan`] expresses those scenarios as
//! a list of seeded, reproducible [`FaultEvent`]s that the engine
//! weaves into a run:
//!
//! * **OS noise** — per-op compute-time inflation drawn from a
//!   stateless hash of `(seed, rank, pc)`, so the same plan + seed
//!   reproduces the same jitter bit for bit regardless of host
//!   scheduling or simulation visiting order,
//! * **stragglers** — a constant multiplicative slowdown of one rank's
//!   compute phases (a slow node, a busy neighbor),
//! * **flaky links** — per-message retransmission latency on a
//!   directed rank pair, decided by a stateless hash of the message's
//!   (program-order deterministic) request id,
//! * **throttle windows** — a compute slowdown active inside a
//!   `[t_start, t_end)` simulated-time window, the thermal/power-cap
//!   analog (the harness converts a frequency cap into the factor via
//!   `power::dvfs`),
//! * **crashes** — a hard rank failure at a simulated time; the run
//!   aborts with [`SimError::RankFailed`](crate::engine::SimError)
//!   blaming the rank (MPI-abort semantics).
//!
//! ## Determinism contract
//!
//! Every fault decision is a pure function of `(plan, seed)` and
//! program-order-deterministic quantities (rank id, program counter,
//! request arena index). No global RNG state is threaded through the
//! scheduler, so results are independent of the ready-queue visiting
//! order — the same property the fault-free engine guarantees.
//!
//! ## Zero-cost off path
//!
//! The engine is monomorphized over a fault hook exactly like its
//! profile/trace sinks: with [`FaultPlan::none()`] the hook compiles
//! to nothing and `SimResult` is bit-identical to a build without the
//! subsystem (pinned by the golden fingerprints in
//! `tests/prop_engine.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which ranks an event applies to.
#[derive(Debug, Clone, PartialEq)]
pub enum RankSet {
    /// Every rank of the run.
    All,
    /// A single rank.
    One(usize),
    /// An explicit list of ranks.
    List(Vec<usize>),
}

impl RankSet {
    /// Whether `rank` belongs to the set.
    pub fn contains(&self, rank: usize) -> bool {
        match self {
            RankSet::All => true,
            RankSet::One(r) => *r == rank,
            RankSet::List(rs) => rs.contains(&rank),
        }
    }

    fn canonical(&self) -> String {
        match self {
            RankSet::All => "*".to_string(),
            RankSet::One(r) => r.to_string(),
            RankSet::List(rs) => rs
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        }
    }
}

/// One seeded fault event. Events referencing ranks outside the run's
/// `0..nranks` simply never fire (a plan written for 16 ranks is valid
/// on an 8-rank run), so one plan can drive a whole suite sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Inflate every compute phase of the ranks by a per-op factor in
    /// `[1, 1 + amplitude)`, drawn from `hash(seed, rank, pc)`.
    OsNoise { ranks: RankSet, amplitude: f64 },
    /// Multiply every compute phase of one rank by a constant factor
    /// (`slowdown >= 1`).
    Straggler { rank: usize, slowdown: f64 },
    /// Degrade the directed link `from → to`: each message on it
    /// retransmits with probability `drop_prob` (geometrically, capped),
    /// adding `retransmit_latency_s` per retransmission to its wire time.
    FlakyLink {
        from: usize,
        to: usize,
        drop_prob: f64,
        retransmit_latency_s: f64,
    },
    /// Multiply compute phases of the ranks by `slowdown` while the
    /// rank's clock is inside `[t_start_s, t_end_s)` — the
    /// thermal/power-cap throttling analog.
    Throttle {
        ranks: RankSet,
        t_start_s: f64,
        t_end_s: f64,
        slowdown: f64,
    },
    /// Hard-kill one rank at a simulated time: the run aborts with
    /// `SimError::RankFailed` when the rank's clock reaches `at_s`.
    Crash { rank: usize, at_s: f64 },
}

impl FaultEvent {
    /// Canonical form of the event, part of every run-cache key.
    ///
    /// Flaky links render as `flaky2(…)`: their draws are keyed by the
    /// run-wide request id, and the warm-up is now a prefix of the one
    /// simulated run, so runs under flaky-link plans changed their
    /// results. The new name retires their old cache entries without
    /// touching the key of any other run.
    fn canonical(&self) -> String {
        match self {
            FaultEvent::OsNoise { ranks, amplitude } => {
                format!("osnoise(ranks={},amp={:?})", ranks.canonical(), amplitude)
            }
            FaultEvent::Straggler { rank, slowdown } => {
                format!("straggler(rank={rank},x={slowdown:?})")
            }
            FaultEvent::FlakyLink {
                from,
                to,
                drop_prob,
                retransmit_latency_s,
            } => {
                format!("flaky2(from={from},to={to},p={drop_prob:?},rtx={retransmit_latency_s:?})")
            }
            FaultEvent::Throttle {
                ranks,
                t_start_s,
                t_end_s,
                slowdown,
            } => format!(
                "throttle(ranks={},t0={:?},t1={:?},x={:?})",
                ranks.canonical(),
                t_start_s,
                t_end_s,
                slowdown
            ),
            FaultEvent::Crash { rank, at_s } => format!("crash(rank={rank},at={at_s:?})"),
        }
    }
}

/// A seeded, reproducible fault schedule: the `(seed, events)` pair
/// fully determines every injected perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every stateless fault decision.
    pub seed: u64,
    /// The events, applied in order (multiplicative effects compose).
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan — selects the engine's zero-cost off path.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Canonical string of the plan — stable across runs, used for
    /// cache keying and the `spechpc faults` report. `{:?}` float
    /// formatting round-trips exactly, so distinct plans never collide.
    pub fn canonical(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut s = format!("seed={}", self.seed);
        for e in &self.events {
            s.push('|');
            s.push_str(&e.canonical());
        }
        s
    }

    /// Structural validation (parameter ranges only; rank ids are
    /// checked against nothing because one plan may serve runs of many
    /// sizes). Returns a human-readable reason on the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            let bad = |reason: String| Err(format!("event {i}: {reason}"));
            match e {
                FaultEvent::OsNoise { amplitude, .. } => {
                    if !amplitude.is_finite() || *amplitude < 0.0 {
                        return bad(format!("osnoise amplitude {amplitude} must be finite >= 0"));
                    }
                }
                FaultEvent::Straggler { slowdown, .. } => {
                    if !slowdown.is_finite() || *slowdown < 1.0 {
                        return bad(format!("straggler slowdown {slowdown} must be finite >= 1"));
                    }
                }
                FaultEvent::FlakyLink {
                    drop_prob,
                    retransmit_latency_s,
                    ..
                } => {
                    if drop_prob.is_nan() || *drop_prob < 0.0 || *drop_prob >= 1.0 {
                        return bad(format!(
                            "flaky-link drop_prob {drop_prob} must be in [0, 1)"
                        ));
                    }
                    if !retransmit_latency_s.is_finite() || *retransmit_latency_s < 0.0 {
                        return bad(format!(
                            "flaky-link retransmit latency {retransmit_latency_s} must be finite >= 0"
                        ));
                    }
                }
                FaultEvent::Throttle {
                    t_start_s,
                    t_end_s,
                    slowdown,
                    ..
                } => {
                    if !slowdown.is_finite() || *slowdown < 1.0 {
                        return bad(format!("throttle slowdown {slowdown} must be finite >= 1"));
                    }
                    if !t_start_s.is_finite()
                        || !t_end_s.is_finite()
                        || *t_end_s <= *t_start_s
                        || *t_start_s < 0.0
                    {
                        return bad(format!(
                            "throttle window [{t_start_s}, {t_end_s}) must be finite, non-empty and start >= 0"
                        ));
                    }
                }
                FaultEvent::Crash { at_s, .. } => {
                    if !at_s.is_finite() || *at_s < 0.0 {
                        return bad(format!("crash time {at_s} must be finite >= 0"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Upper bound on retransmissions of a single message — keeps
/// pathological `drop_prob` values from stalling a link forever.
const MAX_RETRANSMITS: u32 = 16;

/// splitmix64 finalizer — the stateless mixer behind every fault
/// decision.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in `[0, 1)` (top 53 bits).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Domain-separation salts so the noise and link streams never alias.
const SALT_NOISE: u64 = 0x006e_6f69_7365; // "noise"
const SALT_LINK: u64 = 0x6c69_6e6b; // "link"

/// A [`FaultPlan`] compiled against a concrete rank count: per-rank
/// lookup tables the engine's hot path reads directly, plus an
/// optional cooperative-cancellation token (the harness's per-run
/// timeout sets it from another thread).
#[derive(Debug, Clone)]
pub struct ActiveFaults {
    seed: u64,
    /// Constant compute slowdown per rank (stragglers, composed).
    slowdown: Vec<f64>,
    /// Noise amplitude per rank (max over events; 0 = quiet).
    noise_amp: Vec<f64>,
    /// Crash time per rank (`INFINITY` = never).
    crash_at: Vec<f64>,
    /// Throttle windows per rank: `(t_start, t_end, factor)`.
    throttle: Vec<Vec<(f64, f64, f64)>>,
    /// Degraded directed links: `(from, to) → (drop_prob, retransmit_latency_s)`.
    links: HashMap<(usize, usize), (f64, f64)>,
    /// Cooperative cancellation flag, polled at op granularity.
    cancel: Option<Arc<AtomicBool>>,
}

impl ActiveFaults {
    /// Compile `plan` for a run of `nranks` ranks. Events referencing
    /// out-of-range ranks are dropped here (see [`FaultEvent`]).
    pub fn compile(plan: &FaultPlan, nranks: usize, cancel: Option<Arc<AtomicBool>>) -> Self {
        let mut af = ActiveFaults {
            seed: plan.seed,
            slowdown: vec![1.0; nranks],
            noise_amp: vec![0.0; nranks],
            crash_at: vec![f64::INFINITY; nranks],
            throttle: vec![Vec::new(); nranks],
            links: HashMap::new(),
            cancel,
        };
        for e in &plan.events {
            match e {
                FaultEvent::OsNoise { ranks, amplitude } => {
                    for (r, amp) in af.noise_amp.iter_mut().enumerate() {
                        if ranks.contains(r) {
                            *amp = amp.max(*amplitude);
                        }
                    }
                }
                FaultEvent::Straggler { rank, slowdown } => {
                    if *rank < nranks {
                        af.slowdown[*rank] *= slowdown;
                    }
                }
                FaultEvent::FlakyLink {
                    from,
                    to,
                    drop_prob,
                    retransmit_latency_s,
                } => {
                    if *from < nranks && *to < nranks {
                        af.links
                            .insert((*from, *to), (*drop_prob, *retransmit_latency_s));
                    }
                }
                FaultEvent::Throttle {
                    ranks,
                    t_start_s,
                    t_end_s,
                    slowdown,
                } => {
                    for (r, wins) in af.throttle.iter_mut().enumerate() {
                        if ranks.contains(r) {
                            wins.push((*t_start_s, *t_end_s, *slowdown));
                        }
                    }
                }
                FaultEvent::Crash { rank, at_s } => {
                    if *rank < nranks {
                        af.crash_at[*rank] = af.crash_at[*rank].min(*at_s);
                    }
                }
            }
        }
        af
    }

    /// Perturbed duration of a compute op posted by `rank` at program
    /// counter `pc` with its clock at `clock`. Pure in
    /// `(plan, seed, rank, pc, clock)`.
    #[inline]
    pub fn compute_seconds(&self, rank: usize, pc: usize, clock: f64, base: f64) -> f64 {
        let mut s = base * self.slowdown[rank];
        let amp = self.noise_amp[rank];
        if amp > 0.0 {
            let h = mix64(self.seed ^ SALT_NOISE ^ mix64(((rank as u64) << 32) | pc as u64));
            s *= 1.0 + amp * unit(h);
        }
        for &(t0, t1, f) in &self.throttle[rank] {
            if clock >= t0 && clock < t1 {
                s *= f;
            }
        }
        s
    }

    /// Extra wire latency of the message whose send has run-wide
    /// request id `ireq` on link `from → to` (0 on healthy links).
    /// `ireq` is program-order deterministic (the sender's posts are
    /// numbered in order from its range of the run's id space), so the
    /// retransmission draw is independent of scheduler visiting order.
    #[inline]
    pub fn wire_extra(&self, from: usize, to: usize, ireq: usize) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        let Some(&(p, lat)) = self.links.get(&(from, to)) else {
            return 0.0;
        };
        let mut extra = 0.0;
        for attempt in 0..MAX_RETRANSMITS {
            let h = mix64(self.seed ^ SALT_LINK ^ mix64(ireq as u64).wrapping_add(attempt as u64));
            if unit(h) < p {
                extra += lat;
            } else {
                break;
            }
        }
        extra
    }

    /// Simulated time at which `rank` dies (`INFINITY` = never).
    #[inline]
    pub fn crash_at(&self, rank: usize) -> f64 {
        self.crash_at[rank]
    }

    /// Whether the cooperative cancellation token was set.
    #[inline]
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_canonical() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert_eq!(p.canonical(), "none");
        assert_eq!(FaultPlan::default(), p);
    }

    #[test]
    fn canonical_is_stable_and_distinguishes_plans() {
        let p1 = FaultPlan {
            seed: 7,
            events: vec![
                FaultEvent::Straggler {
                    rank: 3,
                    slowdown: 1.5,
                },
                FaultEvent::Crash {
                    rank: 1,
                    at_s: 0.25,
                },
            ],
        };
        let p2 = FaultPlan {
            seed: 8,
            ..p1.clone()
        };
        assert_eq!(p1.canonical(), p1.clone().canonical());
        assert_ne!(p1.canonical(), p2.canonical());
        assert!(p1.canonical().contains("straggler(rank=3,x=1.5)"));
        assert!(p1.canonical().contains("crash(rank=1,at=0.25)"));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let bad = |e: FaultEvent| {
            FaultPlan {
                seed: 0,
                events: vec![e],
            }
            .validate()
            .unwrap_err()
        };
        assert!(bad(FaultEvent::OsNoise {
            ranks: RankSet::All,
            amplitude: -0.1,
        })
        .contains("amplitude"));
        assert!(bad(FaultEvent::Straggler {
            rank: 0,
            slowdown: 0.5,
        })
        .contains("slowdown"));
        assert!(bad(FaultEvent::FlakyLink {
            from: 0,
            to: 1,
            drop_prob: 1.0,
            retransmit_latency_s: 1e-6,
        })
        .contains("drop_prob"));
        assert!(bad(FaultEvent::Throttle {
            ranks: RankSet::All,
            t_start_s: 2.0,
            t_end_s: 1.0,
            slowdown: 1.2,
        })
        .contains("window"));
        assert!(bad(FaultEvent::Crash {
            rank: 0,
            at_s: f64::NAN,
        })
        .contains("crash time"));
    }

    #[test]
    fn compile_applies_events_per_rank() {
        let plan = FaultPlan {
            seed: 42,
            events: vec![
                FaultEvent::Straggler {
                    rank: 1,
                    slowdown: 2.0,
                },
                FaultEvent::OsNoise {
                    ranks: RankSet::List(vec![0, 2]),
                    amplitude: 0.5,
                },
                FaultEvent::Crash { rank: 2, at_s: 3.0 },
                FaultEvent::Crash { rank: 2, at_s: 1.0 }, // earliest wins
                FaultEvent::Straggler {
                    rank: 99,
                    slowdown: 9.0,
                }, // out of range: dropped
            ],
        };
        let af = ActiveFaults::compile(&plan, 3, None);
        // Rank 1: pure 2x straggler, no noise.
        assert_eq!(af.compute_seconds(1, 0, 0.0, 1.0), 2.0);
        // Rank 0: noisy — inflated but bounded by the amplitude.
        let s = af.compute_seconds(0, 5, 0.0, 1.0);
        assert!((1.0..1.5).contains(&s), "noise out of range: {s}");
        assert_eq!(af.crash_at(2), 1.0);
        assert_eq!(af.crash_at(0), f64::INFINITY);
        assert!(!af.cancelled());
    }

    #[test]
    fn fault_decisions_are_stateless_and_seeded() {
        let plan = |seed| FaultPlan {
            seed,
            events: vec![
                FaultEvent::OsNoise {
                    ranks: RankSet::All,
                    amplitude: 0.3,
                },
                FaultEvent::FlakyLink {
                    from: 0,
                    to: 1,
                    drop_prob: 0.9,
                    retransmit_latency_s: 1e-6,
                },
            ],
        };
        let a = ActiveFaults::compile(&plan(7), 2, None);
        let b = ActiveFaults::compile(&plan(7), 2, None);
        let c = ActiveFaults::compile(&plan(8), 2, None);
        // Same seed: identical draws in any evaluation order.
        assert_eq!(
            a.compute_seconds(0, 3, 0.0, 1.0),
            b.compute_seconds(0, 3, 0.0, 1.0)
        );
        assert_eq!(a.wire_extra(0, 1, 12), b.wire_extra(0, 1, 12));
        // Different seeds decorrelate (some draw must differ).
        let differs = (0..64).any(|i| {
            a.compute_seconds(0, i, 0.0, 1.0) != c.compute_seconds(0, i, 0.0, 1.0)
                || a.wire_extra(0, 1, i) != c.wire_extra(0, 1, i)
        });
        assert!(differs);
        // Healthy direction untouched.
        assert_eq!(a.wire_extra(1, 0, 12), 0.0);
        // Retransmissions are bounded even at high drop probability.
        let worst = (0..256)
            .map(|i| a.wire_extra(0, 1, i))
            .fold(0.0f64, f64::max);
        assert!(worst <= MAX_RETRANSMITS as f64 * 1e-6 + 1e-18);
        assert!(worst > 0.0, "p=0.9 link never retransmitted");
    }

    #[test]
    fn throttle_window_applies_inside_only() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Throttle {
                ranks: RankSet::One(0),
                t_start_s: 1.0,
                t_end_s: 2.0,
                slowdown: 1.5,
            }],
        };
        let af = ActiveFaults::compile(&plan, 1, None);
        assert_eq!(af.compute_seconds(0, 0, 0.5, 1.0), 1.0);
        assert_eq!(af.compute_seconds(0, 0, 1.5, 1.0), 1.5);
        assert_eq!(af.compute_seconds(0, 0, 2.0, 1.0), 1.0);
    }

    #[test]
    fn cancellation_token_is_observed() {
        let flag = Arc::new(AtomicBool::new(false));
        let af = ActiveFaults::compile(&FaultPlan::none(), 1, Some(flag.clone()));
        assert!(!af.cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(af.cancelled());
    }
}
