//! Property-style tests of the fault-injection subsystem: graceful
//! termination under random crash plans, bit-exact reproducibility of
//! the same `(plan, seed)`, monotone degradation, byte-identical
//! cached replay through the harness, and the plan parsers' typed
//! errors on mutated plan files.
//!
//! Cases are drawn from the in-tree deterministic RNG with fixed
//! seeds, so every run explores the same parameter sample — failures
//! are reproducible by construction.

use std::path::PathBuf;

use spechpc::harness::{api, chaos, faultcfg};
use spechpc::kernels::common::rng::Rng;
use spechpc::machine::presets;
use spechpc::prelude::*;
use spechpc::simmpi::engine::{Engine, SimConfig, SimError, SimResult};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};

/// A well-formed random workload: compute + a ring sendrecv +
/// optionally a collective per step, so matching is deadlock-free
/// without faults.
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

fn run_with(plan: FaultPlan, progs: Vec<Program>) -> Result<SimResult, SimError> {
    let cluster = presets::cluster_a();
    let net = NetModel::compact(&cluster, progs.len());
    Engine::new(SimConfig::default().with_faults(plan), net, progs).run()
}

/// FNV-1a digest over everything `SimResult` promises to keep stable.
fn fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut fnv = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for t in &r.finish_times {
        fnv(&t.to_bits().to_le_bytes());
    }
    for row in &r.per_rank_breakdown {
        for v in row {
            fnv(&v.to_bits().to_le_bytes());
        }
    }
    fnv(&r.p2p_bytes.to_le_bytes());
    fnv(&r.internode_bytes.to_le_bytes());
    for ph in &r.profile.per_rank {
        for v in [
            ph.compute_s,
            ph.eager_send_s,
            ph.rendezvous_stall_s,
            ph.recv_wait_s,
            ph.collective_wait_s,
            ph.fault_stall_s,
        ] {
            fnv(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// A random non-crash degradation plan: noise, stragglers, flaky
/// links and throttle windows, with parameters inside the validated
/// ranges.
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

/// Under an arbitrary crash plan every run terminates — either
/// completing (the crash never fired on this size) or aborting with
/// `RankFailed` blaming the crashed rank, or `Deadlock` when survivors
/// block on the dead rank. Never a hang, never a panic.
#[test]
fn crash_plans_terminate_with_blame_or_deadlock() {
    let mut rng = Rng::seed_from_u64(0xFA01);
    let mut failures = 0;
    for _ in 0..48 {
        let nranks = 2 + rng.range(0.0, 16.0) as usize;
        let steps = 1 + rng.range(0.0, 5.0) as usize;
        let victim = rng.range(0.0, 1.5 * nranks as f64) as usize; // may be out of range
        let at_s = rng.range(0.0, 2e-3);
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash { rank: victim, at_s }],
        };
        let progs = ring_programs(nranks, steps, &[3, 7, 11], 4096, true);
        match run_with(plan, progs) {
            Ok(r) => assert!(r.makespan >= 0.0),
            Err(SimError::RankFailed { rank, at_s: t, .. }) => {
                failures += 1;
                assert_eq!(rank, victim, "abort must blame the crashed rank");
                assert!(t >= at_s, "failure time {t} before the scheduled {at_s}");
            }
            Err(SimError::Deadlock(blocked)) => {
                failures += 1;
                assert!(!blocked.is_empty());
            }
            Err(e) => panic!("unexpected error under a crash plan: {e}"),
        }
    }
    assert!(failures > 0, "no sampled crash ever fired");
}

/// The same `(plan, seed)` pair reproduces the `SimResult` bit for
/// bit, and reseeding a noisy plan actually changes the outcome.
#[test]
fn same_plan_and_seed_is_bit_identical() {
    let mut rng = Rng::seed_from_u64(0xFA02);
    let mut reseeded_differs = false;
    for i in 0..24 {
        let nranks = 2 + rng.range(0.0, 12.0) as usize;
        let steps = 1 + rng.range(0.0, 4.0) as usize;
        let plan = degradation_plan(&mut rng, nranks, 0x5EED + i);
        let progs = ring_programs(nranks, steps, &[2, 5, 13], 32_768, false);
        let a = run_with(plan.clone(), progs.clone()).expect("no crash events");
        let b = run_with(plan.clone(), progs.clone()).expect("no crash events");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "same (plan, seed) diverged"
        );
        let reseeded = FaultPlan {
            seed: plan.seed ^ 0xFFFF,
            ..plan
        };
        let c = run_with(reseeded, progs).expect("no crash events");
        reseeded_differs |= fingerprint(&a) != fingerprint(&c);
    }
    assert!(reseeded_differs, "reseeding never changed any outcome");
}

/// Degradation is monotone: injecting noise/stragglers/flaky links/
/// throttling can never make the run finish earlier, and the profile
/// attributes the loss as fault stall.
#[test]
fn faults_never_speed_a_run_up() {
    let mut rng = Rng::seed_from_u64(0xFA03);
    let mut stall_seen = false;
    for i in 0..24 {
        let nranks = 2 + rng.range(0.0, 12.0) as usize;
        let steps = 1 + rng.range(0.0, 4.0) as usize;
        let progs = ring_programs(nranks, steps, &[4, 9], 16_384, true);
        let clean = run_with(FaultPlan::none(), progs.clone()).expect("clean");
        let plan = degradation_plan(&mut rng, nranks, 0xACE + i);
        let faulty = run_with(plan, progs).expect("degradation plans cannot abort");
        assert!(
            faulty.makespan >= clean.makespan - 1e-12,
            "faults sped the run up: {} < {}",
            faulty.makespan,
            clean.makespan
        );
        stall_seen |= faulty
            .profile
            .per_rank
            .iter()
            .any(|ph| ph.fault_stall_s > 0.0);
    }
    assert!(stall_seen, "no sampled plan ever attributed fault stall");
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spechpc-prop-faults-{tag}-{}", std::process::id()))
}

/// Read the bytes of the single cache entry under `dir`.
fn only_entry(dir: &PathBuf) -> Vec<u8> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry");
    std::fs::read(entries.remove(0).path()).expect("read entry")
}

/// The same `(plan, seed)` through the harness is byte-identical on
/// disk: two cold executors over separate stores write the same cache
/// entry, and a warm executor replays it without re-simulating.
#[test]
fn cached_replay_of_a_faulty_run_is_byte_identical() {
    let cluster = presets::cluster_a();
    let plan = FaultPlan {
        seed: 99,
        events: vec![
            FaultEvent::OsNoise {
                ranks: RankSet::All,
                amplitude: 0.25,
            },
            FaultEvent::FlakyLink {
                from: 0,
                to: 1,
                drop_prob: 0.3,
                retransmit_latency_s: 2e-6,
            },
        ],
    };
    let config = RunConfig::default()
        .with_warmup_steps(1)
        .with_measured_steps(2)
        .with_repetitions(1)
        .with_trace(false)
        .with_faults(plan);
    let spec = RunSpec::new("tealeaf", WorkloadClass::Tiny, 8);

    let dirs = [scratch_dir("a"), scratch_dir("b")];
    let mut blobs = Vec::new();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        let exec = Executor::new(
            config.clone(),
            ExecConfig::default()
                .with_jobs(1)
                .with_cache_dir(dir.clone()),
        );
        exec.run_one(&cluster, &spec).expect("faulty run completes");
        blobs.push(only_entry(dir));
    }
    assert_eq!(
        blobs[0], blobs[1],
        "same (plan, seed) must serialize byte-identically"
    );

    // A fresh executor over the first store replays from disk.
    let warm = Executor::new(
        config,
        ExecConfig::default()
            .with_jobs(1)
            .with_cache_dir(dirs[0].clone()),
    );
    let r = warm.run_one(&cluster, &spec).expect("warm replay");
    assert_eq!(warm.metrics().runs_executed, 0, "replay must not simulate");
    assert!(r.profile.totals().fault_stall_s > 0.0 || r.runtime_s > 0.0);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ---------------------------------------------------------------------------
// Plan-parser mutation suite
// ---------------------------------------------------------------------------

/// Seeded mutations fed to both parsers per shipped plan file.
const MUTATIONS_PER_PLAN: usize = 800;

/// Values written over a `key = value` line's value: non-finite and
/// out-of-range numbers, signed zero, one past `u64::MAX`, and strings
/// where numbers belong.
const HOSTILE_VALUES: &[&str] = &[
    "nan",
    "NaN",
    "inf",
    "-inf",
    "+inf",
    "1e309",
    "-1e309",
    "-0",
    "-0.0",
    "18446744073709551616",
    "-1",
    "0.5",
    "1e-320",
    "\"nan\"",
    "\"\"",
    "\"all\"",
];

/// Rank sets with empty parts.
const EMPTY_RANK_PARTS: &[&str] = &["\"0,,1\"", "\",\"", "\"1,\"", "\",2\"", "\" , \"", "\"\""];

/// Garbled section headers, and the other dialect's header.
const GARBLED_HEADERS: &[&str] = &[
    "[[event]",
    "[event]]",
    "[[ event ]]",
    "[[]]",
    "[[event]]]",
    "[[",
    "[[event]] x",
    "[[EVENT]]",
    "[[fault",
    "[[évent]]",
    "[[event]]",
    "[[fault]]",
];

/// Non-ASCII text spliced into a line.
const NON_ASCII: &[&str] = &[
    "é",
    "ランク",
    "\u{feff}",
    "\u{0}",
    "🔥",
    "\u{202e}",
    "ß = ß",
];

fn below(rng: &mut Rng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[below(rng, items.len())]
}

/// Indices of the lines of `lines` for which `keep` holds.
fn lines_where(lines: &[String], keep: impl Fn(&str) -> bool) -> Vec<usize> {
    (0..lines.len()).filter(|&i| keep(&lines[i])).collect()
}

/// One seeded mutation of `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let bytes = text.as_bytes();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if bytes.is_empty() || lines.is_empty() {
        return pick(rng, GARBLED_HEADERS).to_string();
    }
    let n = lines.len();
    match below(rng, 10) {
        // Byte flip; a broken UTF-8 sequence reads as U+FFFD.
        0 => {
            let mut flipped = bytes.to_vec();
            let i = below(rng, flipped.len());
            flipped[i] ^= 1 + below(rng, 255) as u8;
            return String::from_utf8_lossy(&flipped).into_owned();
        }
        1 => return String::from_utf8_lossy(&bytes[..below(rng, bytes.len())]).into_owned(),
        2 => {
            lines.remove(below(rng, n));
        }
        3 => {
            let i = below(rng, n);
            lines.insert(i, lines[i].clone());
        }
        4 => lines.swap(below(rng, n), below(rng, n)),
        5 => {
            let headers = lines_where(&lines, |l| l.trim_start().starts_with('['));
            let garbled = pick(rng, GARBLED_HEADERS).to_string();
            match headers.as_slice() {
                [] => lines.insert(below(rng, n + 1), garbled),
                _ => lines[headers[below(rng, headers.len())]] = garbled,
            }
        }
        6 | 7 => {
            let values = lines_where(&lines, |l| l.contains('='));
            let ranks = lines_where(&lines, |l| l.trim_start().starts_with("ranks"));
            let (targets, pool) = if below(rng, 2) == 0 && !ranks.is_empty() {
                (ranks, EMPTY_RANK_PARTS)
            } else {
                (values, HOSTILE_VALUES)
            };
            if let Some(&i) = targets.get(below(rng, targets.len())) {
                let key = lines[i].split('=').next().unwrap_or("").trim().to_string();
                lines[i] = format!("{key} = {}", pick(rng, pool));
            }
        }
        // Unterminated string: drop a line's last quote.
        8 => {
            let quoted = lines_where(&lines, |l| l.contains('"'));
            if let Some(&i) = quoted.get(below(rng, quoted.len())) {
                let at = lines[i].rfind('"').expect("line has a quote");
                lines[i].remove(at);
            }
        }
        _ => {
            let i = below(rng, n);
            let boundaries: Vec<usize> = lines[i]
                .char_indices()
                .map(|(at, _)| at)
                .chain([lines[i].len()])
                .collect();
            let at = boundaries[below(rng, boundaries.len())];
            let fragment = pick(rng, NON_ASCII);
            lines[i].insert_str(at, fragment);
        }
    }
    lines.join("\n")
}

/// A rejection must be a well-formed [`faultcfg::PlanError`]: a message,
/// and a line number inside the text when it names one.
fn check_rejection(e: &faultcfg::PlanError, text: &str) -> Result<(), String> {
    if e.message.is_empty() {
        return Err("empty error message".into());
    }
    match e.line {
        Some(line) if line == 0 || line > text.lines().count() => Err(format!(
            "error names line {line} of a {}-line text: {e}",
            text.lines().count()
        )),
        _ => Ok(()),
    }
}

/// Feed `text` to both parsers. Neither may panic, every rejection is
/// a well-formed `PlanError`, and an accepted fault plan keeps its
/// canonical form through the wire codec. Returns which parsers
/// accepted `text`.
fn check_parsers(text: &str) -> Result<(bool, bool), String> {
    let fault = std::panic::catch_unwind(|| faultcfg::parse_plan(text))
        .map_err(|_| "faultcfg::parse_plan panicked".to_string())?;
    let fault_ok = match fault {
        Ok(plan) => {
            let back = api::fault_plan_from_json(&api::fault_plan_to_json(&plan))
                .map_err(|e| format!("accepted plan fails the JSON codec: {}", e.message))?;
            if back.canonical() != plan.canonical() {
                return Err(format!(
                    "canonical {} became {} through JSON",
                    plan.canonical(),
                    back.canonical()
                ));
            }
            true
        }
        Err(e) => {
            check_rejection(&e, text)?;
            false
        }
    };
    let chaos = std::panic::catch_unwind(|| chaos::parse_chaos_plan(text))
        .map_err(|_| "chaos::parse_chaos_plan panicked".to_string())?;
    let chaos_ok = match chaos {
        Ok(_) => true,
        Err(e) => {
            check_rejection(&e, text)?;
            false
        }
    };
    Ok((fault_ok, chaos_ok))
}

/// Seeded mutations of every shipped `plans/*.toml` file: byte flips,
/// truncations, dropped, duplicated and swapped lines, garbled headers,
/// hostile values, empty rank-set parts, unterminated strings and
/// non-ASCII text, stacked one to three deep.
#[test]
fn mutated_plan_files_get_typed_errors_and_never_panic() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("plans");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("plans/ directory")
        .map(|e| e.expect("plans/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 2,
        "expected shipped plans under {}",
        dir.display()
    );

    let (mut fault_accepted, mut chaos_accepted) = (0, 0);
    let mut failures = Vec::new();
    for (k, path) in files.iter().enumerate() {
        let original = std::fs::read_to_string(path).expect("read plan");
        let mut rng = Rng::seed_from_u64(0x7015_0000 + k as u64);
        for m in 0..=MUTATIONS_PER_PLAN {
            let mut text = original.clone();
            if m > 0 {
                for _ in 0..1 + below(&mut rng, 3) {
                    text = mutate(&text, &mut rng);
                }
            }
            match check_parsers(&text) {
                Ok((f, c)) => {
                    fault_accepted += f as usize;
                    chaos_accepted += c as usize;
                }
                Err(why) => failures.push(format!("{} #{m}: {why}\n{text}", path.display())),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} inputs failed; first:\n{}",
        failures.len(),
        files.len() * (MUTATIONS_PER_PLAN + 1),
        failures[0]
    );
    // Both acceptance paths ran, so the round trip was exercised.
    assert!(
        fault_accepted > 0 && chaos_accepted > 0,
        "{fault_accepted} {chaos_accepted}"
    );
}
