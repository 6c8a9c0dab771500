//! Property-style tests of the parallel (PDES) engine path: the
//! partitioned scheduler must reproduce the 1-thread run **bit for
//! bit** at every thread count — same golden fingerprints, same
//! fault-plan outcomes, same error payloads on crash, deadlock and
//! collective mismatch.
//!
//! The generators and fingerprints are duplicated from
//! `prop_engine.rs` / `prop_faults.rs` (each property suite is
//! self-contained by convention), and the `GOLDEN` vector below is the
//! same pinned set the sequential scheduler is held to.

use spechpc::kernels::common::rng::Rng;
use spechpc::machine::presets;
use spechpc::simmpi::engine::{Engine, SimConfig, SimError, SimResult};
use spechpc::simmpi::faults::{FaultEvent, FaultPlan, RankSet};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};

/// FNV-1a accumulation over raw bytes.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Bit-exact digest of everything `SimResult` promises to keep stable
/// (identical to the one in `prop_engine.rs`, fault stall excluded).
fn fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in &r.finish_times {
        fnv(&mut h, &t.to_bits().to_le_bytes());
    }
    for row in &r.per_rank_breakdown {
        for v in row {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(&mut h, &r.p2p_bytes.to_le_bytes());
    fnv(&mut h, &r.internode_bytes.to_le_bytes());
    let p = &r.profile;
    fnv(&mut h, &(p.nranks as u64).to_le_bytes());
    for ph in &p.per_rank {
        for v in [
            ph.compute_s,
            ph.eager_send_s,
            ph.rendezvous_stall_s,
            ph.recv_wait_s,
            ph.collective_wait_s,
        ] {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    for hist in [&p.eager_hist, &p.rendezvous_hist] {
        for b in hist.iter() {
            fnv(&mut h, &b.count.to_le_bytes());
            fnv(&mut h, &b.bytes.to_le_bytes());
        }
    }
    for v in &p.comm_matrix {
        fnv(&mut h, &v.to_le_bytes());
    }
    for rank in 0..r.timeline.nranks {
        for e in r.timeline.rank_events(rank) {
            fnv(&mut h, &(e.rank as u64).to_le_bytes());
            fnv(&mut h, &e.start.to_bits().to_le_bytes());
            fnv(&mut h, &e.end.to_bits().to_le_bytes());
            fnv(&mut h, &[e.kind.glyph() as u8]);
        }
    }
    h
}

/// Fault-aware digest (identical to the one in `prop_faults.rs`):
/// includes the injected `fault_stall_s` phase.
fn fault_fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for t in &r.finish_times {
        fnv(&mut h, &t.to_bits().to_le_bytes());
    }
    for row in &r.per_rank_breakdown {
        for v in row {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(&mut h, &r.p2p_bytes.to_le_bytes());
    fnv(&mut h, &r.internode_bytes.to_le_bytes());
    for ph in &r.profile.per_rank {
        for v in [
            ph.compute_s,
            ph.eager_send_s,
            ph.rendezvous_stall_s,
            ph.recv_wait_s,
            ph.collective_wait_s,
            ph.fault_stall_s,
        ] {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Randomized deadlock-free workload mixing every scheduling shape the
/// engine supports (duplicated from `prop_engine.rs` — the golden
/// vectors depend on this exact generator).
fn mixed_programs(rng: &mut Rng, nranks: usize, steps: usize) -> Vec<Program> {
    let mut progs: Vec<Program> = (0..nranks).map(|_| Program::new()).collect();
    for step in 0..steps {
        let tag = step as u32;
        for (r, p) in progs.iter_mut().enumerate() {
            let skew = rng.range(0.0, 2.0) * 1e-4 * ((r % 7) + 1) as f64;
            p.push(Op::compute(skew));
        }
        let next = |r: usize| (r + 1) % nranks;
        let prev = |r: usize| (r + nranks - 1) % nranks;
        match rng.range(0.0, 5.0) as usize {
            0 if nranks > 1 => {
                let bytes = rng.range(1.0, 300_000.0) as usize;
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::sendrecv(next(r), bytes, prev(r), tag));
                }
            }
            1 if nranks > 1 => {
                let bytes = rng.range(0.0, 16_384.0) as usize;
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::send(next(r), tag, bytes));
                }
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::recv(prev(r), tag));
                }
            }
            2 if nranks > 1 => {
                let bytes = rng.range(1.0, 500_000.0) as usize;
                let reorder = rng.next_f64() < 0.5;
                for (r, p) in progs.iter_mut().enumerate() {
                    p.push(Op::irecv(prev(r), tag, 0));
                    p.push(Op::isend(next(r), tag, bytes, 1));
                    p.push(Op::compute(1e-4));
                    let (first, second) = if reorder { (1, 0) } else { (0, 1) };
                    p.push(Op::wait(first));
                    p.push(Op::wait(second));
                }
            }
            3 => {
                let bytes = rng.range(1.0, 100_000.0) as usize;
                let root = rng.range(0.0, nranks as f64) as usize % nranks;
                let op = match rng.range(0.0, 6.0) as usize {
                    0 => Op::allreduce(bytes),
                    1 => Op::Barrier,
                    2 => Op::bcast(root, bytes),
                    3 => Op::reduce(root, bytes),
                    4 => Op::allgather(bytes.min(4096)),
                    _ => Op::alltoall(bytes.min(2048)),
                };
                for p in &mut progs {
                    p.push(op);
                }
            }
            _ => {} // compute-only step
        }
    }
    progs
}

/// Ring workload (duplicated from `prop_faults.rs`).
fn ring_programs(
    nranks: usize,
    steps: usize,
    compute_ms: &[u8],
    msg_bytes: usize,
    collective: bool,
) -> Vec<Program> {
    (0..nranks)
        .map(|r| {
            let mut p = Program::new();
            for s in 0..steps {
                let c = compute_ms[(r * steps + s) % compute_ms.len()] as f64 * 1e-4;
                p.push(Op::compute(c));
                if nranks > 1 {
                    p.push(Op::sendrecv(
                        (r + 1) % nranks,
                        msg_bytes,
                        (r + nranks - 1) % nranks,
                        s as u32,
                    ));
                }
                if collective {
                    p.push(Op::allreduce(64));
                }
            }
            p
        })
        .collect()
}

/// Random non-crash degradation plan (duplicated from
/// `prop_faults.rs`).
fn degradation_plan(rng: &mut Rng, nranks: usize, seed: u64) -> FaultPlan {
    let mut events = Vec::new();
    let n_events = 1 + rng.range(0.0, 4.0) as usize;
    for _ in 0..n_events {
        let rank = rng.range(0.0, nranks as f64) as usize % nranks;
        events.push(match rng.range(0.0, 4.0) as usize {
            0 => FaultEvent::OsNoise {
                ranks: RankSet::All,
                amplitude: rng.range(0.01, 0.8),
            },
            1 => FaultEvent::Straggler {
                rank,
                slowdown: rng.range(1.0, 4.0),
            },
            2 => FaultEvent::FlakyLink {
                from: rank,
                to: (rank + 1) % nranks,
                drop_prob: rng.range(0.0, 0.9),
                retransmit_latency_s: rng.range(0.0, 1e-4),
            },
            _ => FaultEvent::Throttle {
                ranks: RankSet::One(rank),
                t_start_s: rng.range(0.0, 1e-3),
                t_end_s: rng.range(1e-3, 1.0),
                slowdown: rng.range(1.0, 3.0),
            },
        });
    }
    let plan = FaultPlan { seed, events };
    plan.validate().expect("generated plan must be valid");
    plan
}

/// Run one golden case at `threads` (the generator is byte-identical
/// to `prop_engine.rs`'s `golden_case`, plus the thread knob).
fn golden_case(seed: u64, threads: usize) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let nranks = 2 + rng.range(0.0, 30.0) as usize;
    let steps = 1 + rng.range(0.0, 7.0) as usize;
    let trace = rng.next_f64() < 0.3;
    let profile = rng.next_f64() < 0.8;
    let progs = mixed_programs(&mut rng, nranks, steps);
    let cluster = presets::cluster_a();
    let net = NetModel::compact(&cluster, nranks);
    let r = Engine::new(
        SimConfig::default()
            .with_trace(trace)
            .with_profile(profile)
            .with_threads(threads),
        net,
        progs,
    )
    .run()
    .expect("well-formed golden case must not deadlock");
    fingerprint(&r)
}

/// Pinned from the pre-rewrite polling engine — the same constants
/// `prop_engine.rs` holds the sequential scheduler to.
const GOLDEN: [u64; 24] = [
    0xf8e02a51d3285e96,
    0x559334651cc55837,
    0x7495f6a1630b87cc,
    0xed1ec5837bb154dd,
    0x12c59472c6e04af5,
    0xb44f49ade1b87109,
    0x33e8028dad38434d,
    0xe53ae00f0a76c644,
    0xd766250d1eefe3f7,
    0xde02b3f345b4429b,
    0x542225f392ce9fd3,
    0x8e8644a9152f56a3,
    0x18a411296cf15c63,
    0x74a2413a439edf0e,
    0x16f6c6769f1d97cf,
    0x2e0a063f010ac896,
    0xf70efac7f0e27013,
    0x57786eb26675187e,
    0x6e7be5479ebc7e98,
    0x409f4fc51b671387,
    0x1c5f04ce967e1ea3,
    0x2e8d1ced7e25bc79,
    0xb658fce9a578dc43,
    0xe6076a4057ad3bf9,
];

/// Every thread count reproduces all 24 golden fingerprints bit for
/// bit — the PDES scheduler cannot be told apart from the sequential
/// one by any contracted output.
#[test]
fn parallel_matches_golden_vectors_at_every_thread_count() {
    for threads in [2usize, 4, 8] {
        for (i, want) in GOLDEN.iter().enumerate() {
            let got = golden_case(0xD00D + i as u64, threads);
            assert_eq!(
                got, *want,
                "case {i} at {threads} threads: 0x{got:016x} != 0x{want:016x}"
            );
        }
    }
}

/// `threads == 0` clamps to the sequential path, and thread counts far
/// above the rank count clamp down instead of spawning idle workers.
#[test]
fn degenerate_thread_counts_clamp() {
    for threads in [0usize, 64] {
        let got = golden_case(0xD00D, threads);
        assert_eq!(got, GOLDEN[0], "threads={threads}");
    }
}

/// Non-crash fault plans (noise, stragglers, flaky links, throttling)
/// produce bit-identical results in parallel: the flaky-link RNG draws
/// hang off the shared request-arena numbering, so even randomized
/// retransmits cannot diverge across partitions.
#[test]
fn fault_plans_are_bit_identical_across_thread_counts() {
    let mut rng = Rng::seed_from_u64(0xFA02);
    for i in 0..12 {
        let nranks = 2 + rng.range(0.0, 12.0) as usize;
        let steps = 1 + rng.range(0.0, 4.0) as usize;
        let plan = degradation_plan(&mut rng, nranks, 0x5EED + i);
        let progs = ring_programs(nranks, steps, &[2, 5, 13], 32_768, false);
        let cluster = presets::cluster_a();
        let run = |threads: usize| {
            let net = NetModel::compact(&cluster, nranks);
            Engine::new(
                SimConfig::default()
                    .with_faults(plan.clone())
                    .with_threads(threads),
                net,
                progs.clone(),
            )
            .run()
            .expect("no crash events")
        };
        let seq = fault_fingerprint(&run(1));
        for threads in [2usize, 4] {
            assert_eq!(
                seq,
                fault_fingerprint(&run(threads)),
                "case {i} diverged at {threads} threads"
            );
        }
    }
}

/// An injected crash aborts the parallel run with *exactly* the
/// sequential error payload: same rank, same op index, same time. When
/// several ranks crash, every thread count blames the earliest
/// `(at_s, rank)`.
#[test]
fn crash_blame_matches_sequential() {
    let cluster = presets::cluster_a();
    // The outcome at 1 thread, after checking 2 and 4 threads agree.
    let outcome = |plan: &FaultPlan, progs: &[Program]| {
        let run = |threads: usize| {
            let net = NetModel::compact(&cluster, progs.len());
            Engine::new(
                SimConfig::default()
                    .with_faults(plan.clone())
                    .with_threads(threads),
                net,
                progs.to_vec(),
            )
            .run()
        };
        let seq = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            match (&seq, &par) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(fault_fingerprint(a), fault_fingerprint(b));
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{threads} threads"),
                _ => {
                    panic!("sequential and {threads}-thread outcomes disagree: {seq:?} vs {par:?}")
                }
            }
        }
        seq
    };

    let mut rng = Rng::seed_from_u64(0xFA01);
    let mut crashes_seen = 0;
    for _ in 0..16 {
        let nranks = 2 + rng.range(0.0, 16.0) as usize;
        let steps = 1 + rng.range(0.0, 5.0) as usize;
        let victim = rng.range(0.0, nranks as f64) as usize % nranks;
        let at_s = rng.range(0.0, 2e-3);
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash { rank: victim, at_s }],
        };
        let progs = ring_programs(nranks, steps, &[3, 7, 11], 4096, true);
        if outcome(&plan, &progs).is_err() {
            crashes_seen += 1;
        }
    }
    assert!(crashes_seen > 0, "no sampled crash ever fired");

    // Two crashes: rank 1 is first seen past its 1 ms crash time after
    // its first 2 ms compute, but rank 2 dies at t = 0 before op 0 —
    // the earliest crash, whichever rank the scheduler visits first.
    let progs: Vec<Program> = (0..4)
        .map(|_| {
            let mut p = Program::new();
            p.push(Op::compute(2e-3));
            p.push(Op::compute(2e-3));
            p.push(Op::Barrier);
            p
        })
        .collect();
    let plan = FaultPlan {
        seed: 1,
        events: vec![
            FaultEvent::Crash {
                rank: 1,
                at_s: 1e-3,
            },
            FaultEvent::Crash { rank: 2, at_s: 0.0 },
        ],
    };
    assert_eq!(
        outcome(&plan, &progs).expect_err("both crashes fire"),
        SimError::RankFailed {
            rank: 2,
            op_index: 0,
            at_s: 0.0
        }
    );
}

/// A deadlock that spans every partition — an 8-rank ring of blocking
/// rendezvous sends with no receives, run at 4 threads so the cycle
/// crosses partition boundaries — reports the *full* blame cycle, and
/// the payload (rank, op index, op) equals the sequential engine's.
#[test]
fn cross_partition_deadlock_reports_the_full_cycle() {
    let nranks = 8;
    let progs: Vec<Program> = (0..nranks)
        .map(|r| {
            let mut p = Program::new();
            p.push(Op::compute(1e-5 * (r + 1) as f64));
            // Rendezvous-sized payload: the send blocks until a recv
            // matches, and no rank ever posts one.
            p.push(Op::send((r + 1) % nranks, 0, 1 << 20));
            p
        })
        .collect();
    let cluster = presets::cluster_a();
    let run = |threads: usize| {
        let net = NetModel::compact(&cluster, nranks);
        Engine::new(
            SimConfig::default().with_threads(threads),
            net,
            progs.clone(),
        )
        .run()
    };
    let Err(SimError::Deadlock(seq)) = run(1) else {
        panic!("sequential run must deadlock");
    };
    assert_eq!(
        seq.iter().map(|(r, _, _)| *r).collect::<Vec<_>>(),
        (0..nranks).collect::<Vec<_>>(),
        "the whole ring is blocked"
    );
    for threads in [2usize, 4, 8] {
        let Err(SimError::Deadlock(par)) = run(threads) else {
            panic!("{threads}-thread run must deadlock");
        };
        assert_eq!(par, seq, "{threads}-thread blame cycle diverged");
    }
}

/// Collective sequence mismatches blame the same canonical rank in
/// parallel as in sequence, regardless of which partition trips first:
/// the smallest entrant's call is the expected one, and the smallest
/// rank calling something else is blamed.
#[test]
fn collective_mismatch_blame_matches_sequential() {
    let cluster = presets::cluster_a();
    // The error at 1 thread, after checking 2, 3 and 6 threads agree.
    let blame = |progs: &[Program]| {
        let run = |threads: usize| {
            let net = NetModel::compact(&cluster, progs.len());
            Engine::new(
                SimConfig::default().with_threads(threads),
                net,
                progs.to_vec(),
            )
            .run()
        };
        let seq = run(1).expect_err("mismatched collectives must fail");
        assert!(
            matches!(seq, SimError::CollectiveMismatch { .. }),
            "{seq:?}"
        );
        for threads in [2usize, 3, 6] {
            assert_eq!(
                run(threads).expect_err("must fail"),
                seq,
                "{threads} threads"
            );
        }
        seq
    };

    let progs: Vec<Program> = (0..6)
        .map(|r| {
            let mut p = Program::new();
            p.push(Op::compute(1e-5));
            // Ranks 0..3 enter an allreduce; 4 and 5 enter a barrier.
            if r < 4 {
                p.push(Op::allreduce(64));
            } else {
                p.push(Op::Barrier);
            }
            p
        })
        .collect();
    blame(&progs);

    // Rank 0 enters last (it first waits for rank 5's message), yet its
    // barrier is the expected call and rank 1 is the one blamed.
    let progs: Vec<Program> = (0..6)
        .map(|r| {
            let mut p = Program::new();
            match r {
                0 => {
                    p.push(Op::Recv { from: 5, tag: 0 });
                    p.push(Op::Barrier);
                }
                5 => {
                    p.push(Op::send(0, 0, 64));
                    p.push(Op::allreduce(64));
                }
                _ => p.push(Op::allreduce(64)),
            }
            p
        })
        .collect();
    assert_eq!(
        blame(&progs),
        SimError::CollectiveMismatch {
            seq: 0,
            rank: 1,
            expected: "Barrier",
            found: "Allreduce"
        }
    );
}
