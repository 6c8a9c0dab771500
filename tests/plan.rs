//! The capacity planner end to end: the committed 500-job CI plan
//! through the real engine, the power-cap physics against the DVFS
//! model, randomized safety properties of the EASY backfill scheduler,
//! and the scheduler and the response writer against the full-scan and
//! `Json`-tree oracles they replaced.

use spechpc::harness::api::{self, resolve_cluster};
use spechpc::harness::plan::{
    cap_clock_ghz, dispatch_plan, easy_schedule, evaluate_plan, flops_fraction, JobShape,
    Placement, PlanJob, PlanRequest, PlanResponse, PlanVariant, ScenarioOutcome, SchedJob,
    MAX_PLAN_JOBS,
};
use spechpc::power::dvfs;
use spechpc::prelude::*;

fn executor() -> Executor {
    Executor::new(
        RunConfig::default().with_repetitions(1).with_trace(false),
        ExecConfig::default().with_jobs(2),
    )
}

fn ci_plan() -> PlanRequest {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/plans/capacity-ci.json");
    let body = std::fs::read_to_string(path).expect("committed CI plan");
    PlanRequest::from_json(&body).expect("plans/capacity-ci.json must stay valid")
}

#[test]
fn the_500_job_ci_plan_is_deterministic_and_cache_backed() {
    let req = ci_plan();
    let exec = executor();

    let first = dispatch_plan(&exec, &req).expect("plan evaluates");
    assert_eq!(first.jobs, 500);
    assert_eq!(first.scenarios.len(), 3, "baseline + spr + capped");
    let after_first = exec.metrics().runs_executed;
    // 5 templates × 2 distinct clusters; the capped variant reuses the
    // baseline shapes (the cap rescales, it never re-simulates).
    assert_eq!(after_first, 10, "one engine run per distinct job shape");

    // The identical request replays byte-identically — every shape
    // comes back out of the run cache, no new simulations.
    let second = dispatch_plan(&exec, &req).expect("replay evaluates");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "plan must be deterministic"
    );
    assert_eq!(
        exec.metrics().runs_executed,
        after_first,
        "replay must not simulate"
    );
    assert!(
        exec.metrics().cache.hits_mem >= 10,
        "replay must hit the cache"
    );

    // Scenario physics: every scenario scheduled all 500 jobs within
    // capacity, and the 20%-below-hot power cap trades makespan for
    // strictly lower job energy on this memory-leaning mix.
    let baseline = &first.scenarios[0];
    let capped = first
        .scenarios
        .iter()
        .find(|s| s.name == "capped")
        .expect("capped scenario");
    assert_eq!(baseline.per_job.len(), 500);
    assert!(
        capped.cap_ghz < 2.4,
        "a 6250 W cap must bind below base clock"
    );
    assert!(
        capped.total_j() < baseline.total_j(),
        "capped queue must use strictly less job energy: {} vs {}",
        capped.total_j(),
        baseline.total_j()
    );
    assert!(
        capped.makespan_s > baseline.makespan_s,
        "the cap's slowdown must show up in the makespan"
    );
}

#[test]
fn capped_job_durations_match_the_throttle_slowdown_law() {
    let req = ci_plan();
    let exec = executor();
    let resp = dispatch_plan(&exec, &req).expect("plan evaluates");
    let baseline = &resp.scenarios[0];
    let capped = resp
        .scenarios
        .iter()
        .find(|s| s.name == "capped")
        .expect("capped scenario");

    let cl = resolve_cluster("a").unwrap();
    let per_node = capped.power_cap_w / capped.nodes as f64;
    let cap = cap_clock_ghz(&cl, per_node).unwrap();
    assert!(
        (cap - capped.cap_ghz).abs() < 1e-12,
        "{cap} vs {}",
        capped.cap_ghz
    );

    // The five templates expand in order, 100 submissions each: job
    // i*100 is the first submission of template i. Each capped duration
    // must be the baseline duration stretched by exactly the roofline
    // throttle model at that job's flops fraction.
    for (i, job) in req.jobs.iter().enumerate() {
        let b = &baseline.per_job[i * 100];
        let c = &capped.per_job[i * 100];
        let phi = flops_fraction(&cl, &job.benchmark, job.class, job.nranks);
        let want = dvfs::throttle_slowdown(cl.node.cpu.base_clock_ghz, cap, phi);
        let got = (c.end_s - c.start_s) / (b.end_s - b.start_s);
        assert!(
            (got - want).abs() < 1e-9,
            "{}: slowdown {got} != throttle_slowdown {want}",
            job.benchmark
        );
    }
}

/// xorshift64* — the same in-tree generator the engine property tests
/// use; deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Node occupancy at instant `t` under half-open `[start, end)` spans.
fn used_at(jobs: &[SchedJob], placed: &[Placement], t: f64) -> usize {
    jobs.iter()
        .zip(placed)
        .filter(|(j, p)| p.start_s <= t && t < p.start_s + j.duration_s.max(0.0) && p.end_s > t)
        .map(|(j, _)| j.nodes)
        .sum()
}

#[test]
fn prop_backfill_never_violates_capacity() {
    for seed in 1..=60u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let total_nodes = 1 + rng.below(24) as usize;
        let n = 1 + rng.below(80) as usize;
        let jobs: Vec<SchedJob> = (0..n)
            .map(|_| SchedJob {
                arrival_s: rng.below(2_000) as f64 * 0.25,
                nodes: 1 + rng.below(total_nodes as u64) as usize,
                duration_s: rng.below(400) as f64 * 0.5,
            })
            .collect();
        let placed = easy_schedule(&jobs, total_nodes);

        // At every start instant (the only points where occupancy can
        // grow) the running widths must fit the cluster.
        for p in &placed {
            let used = used_at(&jobs, &placed, p.start_s);
            assert!(
                used <= total_nodes,
                "seed {seed}: {used} nodes in use > {total_nodes} at t={}",
                p.start_s
            );
        }
    }
}

#[test]
fn prop_backfill_never_starves_a_job() {
    for seed in 1..=60u64 {
        let mut rng = Rng(seed ^ 0xD1B54A32D192ED03);
        let total_nodes = 1 + rng.below(16) as usize;
        let n = 1 + rng.below(60) as usize;
        let jobs: Vec<SchedJob> = (0..n)
            .map(|_| SchedJob {
                arrival_s: rng.below(1_000) as f64,
                nodes: 1 + rng.below(total_nodes as u64) as usize,
                duration_s: 1.0 + rng.below(300) as f64,
            })
            .collect();
        let placed = easy_schedule(&jobs, total_nodes);

        // EASY's no-starvation bound: nothing starts before it arrives,
        // and nothing waits past the drain of the entire workload —
        // the head's reservation guarantees progress, so every start is
        // bounded by the last arrival plus the sum of all durations.
        let last_arrival = jobs.iter().map(|j| j.arrival_s).fold(0.0, f64::max);
        let drain: f64 = jobs.iter().map(|j| j.duration_s).sum();
        for (i, (j, p)) in jobs.iter().zip(&placed).enumerate() {
            assert!(
                p.start_s >= j.arrival_s,
                "seed {seed} job {i}: starts before it arrives"
            );
            assert!(
                p.end_s - p.start_s == j.duration_s,
                "seed {seed} job {i}: duration not preserved"
            );
            assert!(
                p.start_s <= last_arrival + drain,
                "seed {seed} job {i}: wait {} exceeds the drain bound {}",
                p.start_s - j.arrival_s,
                last_arrival + drain
            );
        }
    }
}

/// The EASY scheduler as it was before the per-width fast path and the
/// bucketed queue: every pass sorts the running set for the shadow and
/// scans the whole queue for a backfill. Kept as the oracle the
/// scheduler must reproduce.
fn easy_schedule_scan(jobs: &[SchedJob], total_nodes: usize) -> Vec<Placement> {
    use std::collections::VecDeque;
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival_s
            .total_cmp(&jobs[b].arrival_s)
            .then(a.cmp(&b))
    });
    let mut placed = vec![
        Placement {
            start_s: 0.0,
            end_s: 0.0
        };
        jobs.len()
    ];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut running: Vec<(f64, usize)> = Vec::new();
    let mut free = total_nodes;
    let mut next = 0usize;
    let mut now = order.first().map(|&i| jobs[i].arrival_s).unwrap_or(0.0);
    let start = |idx: usize,
                 now: f64,
                 placed: &mut Vec<Placement>,
                 running: &mut Vec<(f64, usize)>,
                 free: &mut usize| {
        placed[idx] = Placement {
            start_s: now,
            end_s: now + jobs[idx].duration_s,
        };
        *free -= jobs[idx].nodes;
        running.push((placed[idx].end_s, idx));
    };
    loop {
        while next < order.len() && jobs[order[next]].arrival_s <= now {
            queue.push_back(order[next]);
            next += 1;
        }
        loop {
            let mut progressed = false;
            while let Some(&head) = queue.front() {
                if jobs[head].nodes > free {
                    break;
                }
                queue.pop_front();
                start(head, now, &mut placed, &mut running, &mut free);
                progressed = true;
            }
            if let Some(&head) = queue.front() {
                let mut ends: Vec<(f64, usize)> =
                    running.iter().map(|&(e, i)| (e, jobs[i].nodes)).collect();
                ends.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut avail = free;
                let mut shadow = now;
                for (end, width) in ends {
                    if avail >= jobs[head].nodes {
                        break;
                    }
                    avail += width;
                    shadow = end;
                }
                let extra = avail - jobs[head].nodes;
                let mut qi = 1;
                while qi < queue.len() {
                    let j = queue[qi];
                    let fits = jobs[j].nodes <= free;
                    let harmless = now + jobs[j].duration_s <= shadow || jobs[j].nodes <= extra;
                    if fits && harmless {
                        queue.remove(qi);
                        start(j, now, &mut placed, &mut running, &mut free);
                        progressed = true;
                        break;
                    }
                    qi += 1;
                }
            }
            if !progressed {
                break;
            }
        }
        if queue.is_empty() && next >= order.len() && running.is_empty() {
            break;
        }
        let next_end = running
            .iter()
            .map(|&(e, _)| e)
            .fold(f64::INFINITY, f64::min);
        let next_arrival = if next < order.len() {
            jobs[order[next]].arrival_s
        } else {
            f64::INFINITY
        };
        now = now.max(next_end.min(next_arrival));
        running.retain(|&(end, idx)| {
            if end <= now {
                free += jobs[idx].nodes;
                false
            } else {
                true
            }
        });
    }
    placed
}

/// The job sets of the two property suites above, seeds 1..=60 each.
fn property_suites() -> Vec<(Vec<SchedJob>, usize)> {
    let mut suites = Vec::new();
    for seed in 1..=60u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let total_nodes = 1 + rng.below(24) as usize;
        let n = 1 + rng.below(80) as usize;
        let jobs = (0..n)
            .map(|_| SchedJob {
                arrival_s: rng.below(2_000) as f64 * 0.25,
                nodes: 1 + rng.below(total_nodes as u64) as usize,
                duration_s: rng.below(400) as f64 * 0.5,
            })
            .collect();
        suites.push((jobs, total_nodes));
        let mut rng = Rng(seed ^ 0xD1B54A32D192ED03);
        let total_nodes = 1 + rng.below(16) as usize;
        let n = 1 + rng.below(60) as usize;
        let jobs = (0..n)
            .map(|_| SchedJob {
                arrival_s: rng.below(1_000) as f64,
                nodes: 1 + rng.below(total_nodes as u64) as usize,
                duration_s: 1.0 + rng.below(300) as f64,
            })
            .collect();
        suites.push((jobs, total_nodes));
    }
    suites
}

/// Tie-heavy job sets: arrivals on a coarse grid that includes `-0.0`
/// (the wire accepts it) and durations from a small set with zeros, so
/// jobs of different widths start and end together, and a quarter of
/// the jobs as wide as the whole cluster. Half the sets use tenths,
/// whose sums round (`0.1 + 0.2 != 0.3`), so a backfill test of
/// `d <= shadow - now` in place of `now + d <= shadow` shows.
fn tie_suites() -> Vec<(Vec<SchedJob>, usize)> {
    let halves = (
        [-0.0, 0.0, 0.0, 1.0, 2.0, 4.0],
        [0.0, -0.0, 1.0, 2.0, 2.0, 3.0],
    );
    let tenths = (
        [-0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.7],
        [0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 0.4],
    );
    (1..=400u64)
        .map(|seed| {
            let (arrivals, durations) = if seed % 2 == 0 { halves } else { tenths };
            let mut rng = Rng(seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
            let total_nodes = 1 + rng.below(12) as usize;
            let n = 1 + rng.below(60) as usize;
            let jobs = (0..n)
                .map(|_| SchedJob {
                    arrival_s: arrivals[rng.below(6) as usize],
                    nodes: if rng.below(4) == 0 {
                        total_nodes
                    } else {
                        1 + rng.below(total_nodes as u64) as usize
                    },
                    duration_s: durations[rng.below(6) as usize],
                })
                .collect();
            (jobs, total_nodes)
        })
        .collect()
}

/// A backlog shaped like the benchmark's plan bodies: `groups` × 3
/// templates (1, 2 and 4 nodes wide) of 100 submissions each, arriving
/// within a minute at a 2–8 s cadence. Nine groups make the benchmark's
/// 2,700 jobs.
fn backlog(seed: u64, groups: usize) -> Vec<SchedJob> {
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut jobs = Vec::with_capacity(groups * 300);
    for _ in 0..groups {
        for width in [1usize, 2, 4] {
            let arrival = rng.below(61) as f64;
            let gap = 2.0 + rng.below(7) as f64;
            let duration = 5.0 + rng.below(600) as f64 * 0.25;
            for k in 0..100 {
                jobs.push(SchedJob {
                    arrival_s: arrival + k as f64 * gap,
                    nodes: width,
                    duration_s: duration,
                });
            }
        }
    }
    jobs
}

#[test]
fn fast_path_places_every_job_like_the_full_scan() {
    for (i, (jobs, total_nodes)) in property_suites().into_iter().enumerate() {
        assert_eq!(
            easy_schedule(&jobs, total_nodes),
            easy_schedule_scan(&jobs, total_nodes),
            "property suite {i}"
        );
    }
    for (i, (jobs, total_nodes)) in tie_suites().into_iter().enumerate() {
        assert_eq!(
            easy_schedule(&jobs, total_nodes),
            easy_schedule_scan(&jobs, total_nodes),
            "tie suite {i}: {jobs:?} on {total_nodes} nodes"
        );
    }
    for seed in 1..=64u64 {
        let jobs = backlog(seed, 9);
        assert_eq!(jobs.len(), 2_700);
        for total_nodes in [8, 16, 33] {
            assert_eq!(
                easy_schedule(&jobs, total_nodes),
                easy_schedule_scan(&jobs, total_nodes),
                "backlog {seed} on {total_nodes} nodes"
            );
        }
    }
}

/// Widest node occupancy over a schedule, from a sweep of start and end
/// events (ends first at equal times: spans are half-open).
fn peak_occupancy(jobs: &[SchedJob], placed: &[Placement]) -> usize {
    let mut events: Vec<(f64, isize)> = jobs
        .iter()
        .zip(placed)
        .flat_map(|(j, p)| {
            [
                (p.start_s, j.nodes as isize),
                (p.end_s, -(j.nodes as isize)),
            ]
        })
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut used, mut peak) = (0isize, 0isize);
    for (_, delta) in events {
        used += delta;
        peak = peak.max(used);
    }
    peak as usize
}

/// A backlog of about `MAX_PLAN_JOBS` jobs on 16 nodes keeps tens of
/// thousands waiting at once. The full scan walks that queue on every
/// blocked pass and takes seconds here; the bucketed queue descends a
/// tree per width and must take well under one.
#[test]
fn fast_path_is_cheap_on_a_max_size_backlog() {
    let jobs = backlog(11, MAX_PLAN_JOBS / 300);
    assert!(jobs.len() > MAX_PLAN_JOBS - 300 && jobs.len() <= MAX_PLAN_JOBS);
    let started = std::time::Instant::now();
    let placed = easy_schedule(&jobs, 16);
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "{took:?} for {} jobs",
        jobs.len()
    );
    for (i, (j, p)) in jobs.iter().zip(&placed).enumerate() {
        assert!(p.start_s >= j.arrival_s, "job {i} starts before it arrives");
        assert_eq!(
            p.end_s,
            p.start_s + j.duration_s,
            "job {i} lost its duration"
        );
    }
    assert!(peak_occupancy(&jobs, &placed) <= 16, "capacity exceeded");
}

/// A scenario may ask for up to 2^20 nodes while its jobs stay a few
/// nodes wide. The fast path's check must cost the same there as on a
/// small cluster, with the queue empty (every narrow job starts on
/// arrival) or behind a blocked full-cluster head: a check that walks
/// per-width counts up to `free` reads about 2^20 of them per pass and
/// takes seconds here, against milliseconds for the whole schedule.
#[test]
fn fast_path_is_cheap_on_a_huge_cluster() {
    let total_nodes = 1 << 20;
    let mut rng = Rng(0x5EED);
    let jobs: Vec<SchedJob> = (0..10_000)
        .map(|k| SchedJob {
            arrival_s: k as f64 * 0.5,
            nodes: if k % 500 == 250 {
                total_nodes
            } else {
                1 + rng.below(4) as usize
            },
            duration_s: 5.0 + rng.below(40) as f64 * 0.5,
        })
        .collect();
    let started = std::time::Instant::now();
    let placed = easy_schedule(&jobs, total_nodes);
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_millis(500),
        "{took:?} for {} jobs",
        jobs.len()
    );
    assert_eq!(placed, easy_schedule_scan(&jobs, total_nodes));
    // The full-cluster jobs had to wait for the narrow ones to drain.
    assert!(jobs
        .iter()
        .zip(&placed)
        .any(|(j, p)| j.nodes == total_nodes && p.start_s > j.arrival_s));
}

/// `PlanResponse::to_json` as it was before the direct writer: a `Json`
/// tree rendered by the codec. Kept as the oracle the writer must match
/// byte for byte.
fn plan_response_tree(r: &PlanResponse) -> String {
    let scenario = |s: &ScenarioOutcome| {
        let per_job = s
            .per_job
            .iter()
            .map(|j| {
                Json::Arr(vec![
                    Json::from(j.nodes),
                    Json::from(j.start_s),
                    Json::from(j.end_s),
                    Json::from(j.wait_s),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::from(s.name.as_str())),
            ("cluster".into(), Json::from(s.cluster.as_str())),
            ("nodes".into(), Json::from(s.nodes)),
            ("power_cap_w".into(), Json::from(s.power_cap_w)),
            ("cap_ghz".into(), Json::from(s.cap_ghz)),
            ("makespan_s".into(), Json::from(s.makespan_s)),
            ("utilization".into(), Json::from(s.utilization)),
            (
                "wait".into(),
                Json::Obj(vec![
                    ("mean_s".into(), Json::from(s.wait_mean_s)),
                    ("p95_s".into(), Json::from(s.wait_p95_s)),
                    ("max_s".into(), Json::from(s.wait_max_s)),
                ]),
            ),
            (
                "turnaround".into(),
                Json::Obj(vec![
                    ("mean_s".into(), Json::from(s.turnaround_mean_s)),
                    ("max_s".into(), Json::from(s.turnaround_max_s)),
                ]),
            ),
            (
                "energy".into(),
                Json::Obj(vec![
                    ("cpu_j".into(), Json::from(s.cpu_j)),
                    ("dram_j".into(), Json::from(s.dram_j)),
                    ("total_j".into(), Json::from(s.total_j())),
                    ("idle_j".into(), Json::from(s.idle_j)),
                    ("edp_js".into(), Json::from(s.edp_js())),
                ]),
            ),
            ("per_job".into(), Json::Arr(per_job)),
        ])
    };
    let best_by = |key: fn(&ScenarioOutcome) -> f64| {
        let mut best = &r.scenarios[0];
        for s in &r.scenarios[1..] {
            if key(s).total_cmp(&key(best)).is_lt() {
                best = s;
            }
        }
        Json::from(best.name.as_str())
    };
    let mut fields = vec![
        ("schema".into(), Json::from(api::API_SCHEMA_VERSION)),
        ("jobs".into(), Json::from(r.jobs)),
        (
            "scenarios".into(),
            Json::Arr(r.scenarios.iter().map(scenario).collect()),
        ),
    ];
    if r.scenarios.len() > 1 {
        let base = &r.scenarios[0];
        let ratio = |v: f64, b: f64| {
            if b > 0.0 {
                Json::from(v / b)
            } else {
                Json::Null
            }
        };
        let rows = r.scenarios[1..]
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::from(s.name.as_str())),
                    (
                        "makespan_ratio".into(),
                        ratio(s.makespan_s, base.makespan_s),
                    ),
                    ("energy_ratio".into(), ratio(s.total_j(), base.total_j())),
                    ("edp_ratio".into(), ratio(s.edp_js(), base.edp_js())),
                    (
                        "mean_wait_ratio".into(),
                        ratio(s.wait_mean_s, base.wait_mean_s),
                    ),
                ])
            })
            .collect();
        fields.push((
            "comparison".into(),
            Json::Obj(vec![
                ("baseline".into(), Json::from(base.name.as_str())),
                ("scenarios".into(), Json::Arr(rows)),
                ("best_energy".into(), best_by(ScenarioOutcome::total_j)),
                ("best_makespan".into(), best_by(|s| s.makespan_s)),
            ]),
        ));
    }
    let mut body = Json::Obj(fields).render();
    body.push('\n');
    body
}

/// A plan body shaped like the benchmark's: 27 templates (nine
/// benchmarks × 1, 2 and 4 Ice Lake nodes) of 100 submissions each on
/// 16 nodes, with a Sapphire Rapids and a power-capped variant.
fn benchmark_shaped_plan(seed: u64) -> PlanRequest {
    let mut rng = Rng(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1);
    let mut req = PlanRequest::new()
        .with_cluster("a")
        .with_nodes(16)
        .with_variant(PlanVariant::new("spr").with_cluster("b"))
        .with_variant(PlanVariant::new("capped").with_power_cap_w(6250.0));
    for bench in BENCHMARK_NAMES {
        for width in [1, 2, 4] {
            let arrival = rng.below(61) as f64;
            let gap = 2.0 + rng.below(7) as f64;
            req = req.with_job(
                PlanJob::new(bench, WorkloadClass::Tiny, width * 72)
                    .with_arrival(arrival)
                    .with_count(100, gap),
            );
        }
    }
    req
}

#[test]
fn response_writer_matches_the_tree_rendering() {
    // Real engine shapes, through the same dispatch the daemon runs.
    let exec = executor();
    for seed in 1..=16u64 {
        let resp = dispatch_plan(&exec, &benchmark_shaped_plan(seed)).expect("plan evaluates");
        assert_eq!(resp.jobs, 2_700);
        assert_eq!(resp.to_json(), plan_response_tree(&resp), "plan {seed}");
    }

    // Synthetic corners: signed zeros, integers at and past 2^53,
    // non-finite values, zero baselines and names that need escaping.
    let req = PlanRequest::new()
        .with_nodes(4)
        .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 72).with_count(4, 0.0))
        .with_variant(PlanVariant::new("a\"b\\c"))
        .with_variant(PlanVariant::new("tab\tnl\ncr\r\u{1}\u{1f}\u{7f}é☃"));
    // Zero-length shapes: every makespan is 0, so every ratio is null.
    let mut resp = evaluate_plan(&req, &mut |_, _, _, _, _| {
        Ok(JobShape {
            runtime_s: 0.0,
            nodes: 1,
            package_w: 300.0,
            dram_w: 20.0,
            flops_fraction: 0.5,
        })
    })
    .expect("plan evaluates");
    assert_eq!(resp.to_json(), plan_response_tree(&resp), "zero baseline");
    assert!(resp.to_json().contains("\"makespan_ratio\":null"));

    let corners = [
        -0.0,
        0.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_992.0,
        1e16,
        1e300,
        5e-324,
        -1.5,
        0.1,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let widths = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, usize::MAX];
    for (k, &x) in corners.iter().enumerate() {
        for (i, s) in resp.scenarios.iter_mut().enumerate() {
            s.nodes = widths[(k + i) % widths.len()];
            s.power_cap_w = x;
            s.makespan_s = if i == 0 { x } else { 2.0 };
            s.wait_mean_s = corners[(k + i + 1) % corners.len()];
            s.cpu_j = corners[(k + 2 * i) % corners.len()];
            for (n, j) in s.per_job.iter_mut().enumerate() {
                j.nodes = widths[(k + n) % widths.len()];
                j.start_s = x;
                j.end_s = corners[(k + n + 1) % corners.len()];
                j.wait_s = corners[(k + n + 2) % corners.len()];
            }
        }
        assert_eq!(resp.to_json(), plan_response_tree(&resp), "corner {x:?}");
    }
    resp.scenarios.truncate(1);
    assert_eq!(resp.to_json(), plan_response_tree(&resp), "one scenario");
}
