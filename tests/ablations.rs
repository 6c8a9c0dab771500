//! The four ablations of EXPERIMENTS.md's A1–A4 table, each a design
//! choice of the reproduction checked against a band:
//!
//! * **A1 — eager vs. rendezvous minisweep**: the §4.1.5 serialization
//!   needs synchronous rendezvous transfers. Finding: at 59 ranks the
//!   prime count forces a 1 × 59 wavefront chain whose fill time
//!   dominates; the rendezvous protocol adds only a few percent of
//!   sender stalls on top. Both mechanisms produce the paper's
//!   observables (a massive MPI_Recv share, prime-count sensitivity).
//! * **A2 — SNC on/off**: Sub-NUMA Clustering makes the memory domain,
//!   not the socket, the scaling unit. 18 cores saturate their SNC2
//!   domain; with SNC off they see the whole socket's bandwidth.
//! * **A3 — lbm barrier removal**: the paper notes lbm's per-iteration
//!   barrier "could be avoided". Finding: under *static* rank skew the
//!   slowest rank sets the steady-state rate, so removing the barrier
//!   alone saves nothing; it would only absorb transient jitter.
//! * **A4 — stalled-core power floor**: the race-to-idle conclusion
//!   (§4.3.1) flips when stalled cores draw as much as on older CPUs.
//!
//! Every test prints its numbers, so
//! `cargo test --test ablations -- --nocapture` re-reads the table.
//!
//! A1 and A2 change a preset but keep its name, which is the run
//! cache's key, so they run through a [`SimRunner`], never through a
//! cached executor.

use spechpc::power::race::{analyze, concurrency_sweep, saturating_speedup, StrategyAnalysis};
use spechpc::prelude::*;
use spechpc::simmpi::engine::{Engine, SimConfig};
use spechpc::simmpi::netmodel::NetModel;
use spechpc::simmpi::program::{Op, Program};

/// Seconds per step of `bench` at `nranks` tiny ranks on `cluster`.
fn step_seconds(cluster: &ClusterSpec, bench: &str, nranks: usize) -> f64 {
    let runner = SimRunner::new(RunConfig::default().with_repetitions(1).with_trace(false));
    let bench = benchmark_by_name(bench).unwrap();
    runner
        .run(cluster, &*bench, WorkloadClass::Tiny, nranks)
        .unwrap()
        .step_seconds
}

#[test]
fn a1_rendezvous_adds_a_few_percent_to_the_minisweep_chain() {
    let real = presets::cluster_a();
    let mut eager = presets::cluster_a();
    eager.interconnect.eager_threshold = usize::MAX;
    let t_real = step_seconds(&real, "minisweep", 59);
    let t_eager = step_seconds(&eager, "minisweep", 59);
    let ratio = t_real / t_eager;
    println!(
        "A1 minisweep@59: rendezvous {t_real:.3} s/step vs eager {t_eager:.3} s/step (×{ratio:.2} from the protocol alone)"
    );
    assert!(
        (1.01..=1.10).contains(&ratio),
        "rendezvous/eager ×{ratio:.3} outside [1.01, 1.10]"
    );
}

#[test]
fn a2_snc_off_gives_half_a_socket_the_whole_sockets_bandwidth() {
    let snc_on = presets::cluster_a();
    let mut snc_off = presets::cluster_a();
    snc_off.node.snc = 1;
    // One domain per socket now owns all 8 channels.
    snc_off.node.domain_memory.channels = 8;
    snc_off.node.domain_memory.theoretical_bw *= 2.0;
    snc_off.node.domain_memory.capacity_gib *= 2.0;
    snc_off.node.domain_memory.saturation.plateau *= 2.0;
    let t_on = step_seconds(&snc_on, "pot3d", 18);
    let t_off = step_seconds(&snc_off, "pot3d", 18);
    let ratio = t_on / t_off;
    println!(
        "A2 pot3d@18: SNC2 {t_on:.4} s/step vs SNC-off {t_off:.4} s/step (SNC-off ×{ratio:.2} faster at half-socket)"
    );
    assert!(
        (1.6..=2.0).contains(&ratio),
        "SNC2/SNC-off ×{ratio:.3} outside [1.6, 2.0]"
    );
}

#[test]
fn a3_removing_lbms_barrier_saves_nothing_under_static_skew() {
    let cluster = presets::cluster_a();
    let n = cluster.node.cores() - 1; // the slow-rank count of Fig. 2(h)
    let bench = benchmark_by_name("lbm").unwrap();
    let sig = bench.signature(WorkloadClass::Tiny);
    let model = NodeModel::new(&cluster, n);
    let ct = model.compute_times(&sig, &bench.penalties(WorkloadClass::Tiny, n));
    let with_barrier = bench.step_programs(WorkloadClass::Tiny, &ct);
    let without: Vec<Program> = with_barrier
        .iter()
        .map(|p| {
            let mut q = p.clone();
            q.ops.retain(|o| !matches!(o, Op::Barrier));
            q
        })
        .collect();
    let per_step = |progs: &[Program]| -> f64 {
        // Three steps back to back, so pipelining across iterations can
        // show.
        let repeated: Vec<Program> = progs
            .iter()
            .map(|p| {
                let mut q = Program::new();
                for _ in 0..3 {
                    q.ops.extend_from_slice(&p.ops);
                }
                q
            })
            .collect();
        let net = NetModel::compact(&cluster, n);
        Engine::new(SimConfig::default(), net, repeated)
            .run()
            .unwrap()
            .makespan
            / 3.0
    };
    let t_with = per_step(&with_barrier);
    let t_without = per_step(&without);
    let saved = (t_with - t_without) / t_with;
    println!(
        "A3 lbm@{n}: with barrier {t_with:.4} s/step vs without {t_without:.4} s/step ({:.1}% saved)",
        saved * 100.0
    );
    assert!(
        t_without <= t_with,
        "removing a barrier cannot slow lbm down: {t_without} > {t_with}"
    );
    assert!(
        saved < 0.01,
        "removing the barrier saved {:.2}%, not under 1%",
        saved * 100.0
    );
}

/// The race-to-idle verdict for one ClusterA domain of a code that
/// saturates at ×6, with stalled cores drawing `floor` of their busy
/// power.
fn race_verdict(floor: f64) -> StrategyAnalysis {
    let cluster = presets::cluster_a();
    let mut cpu = cluster.node.cpu.clone();
    cpu.stall_power_floor = floor;
    let s_max = 6.0;
    let z = concurrency_sweep(
        &cpu,
        cluster.node.cores_per_domain(),
        0.4,
        100.0,
        saturating_speedup(s_max, 1.0),
        move |n| (s_max / n as f64).min(1.0),
    );
    analyze(&z).unwrap()
}

#[test]
fn a4_a_high_stall_floor_flips_the_race_to_idle_verdict() {
    let modern = race_verdict(0.40);
    let legacy = race_verdict(0.90);
    println!(
        "A4 stall floor 0.40: throttling saves {:.1}% (race-to-idle {}), floor 0.90: saves {:.1}% (race-to-idle {})",
        modern.throttling_gain * 100.0,
        modern.race_to_idle_is_optimal,
        legacy.throttling_gain * 100.0,
        legacy.race_to_idle_is_optimal
    );
    assert!(
        modern.race_to_idle_is_optimal,
        "at floor 0.40 race-to-idle must be optimal: {modern:?}"
    );
    assert!(
        modern.throttling_gain < 0.05,
        "at floor 0.40 throttling must save under 5%: {modern:?}"
    );
    assert!(
        legacy.throttling_gain > 0.08,
        "at floor 0.90 throttling must save over 8%: {legacy:?}"
    );
}
