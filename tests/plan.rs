//! The capacity planner end to end: the committed 500-job CI plan
//! through the real engine, the power-cap physics against the DVFS
//! model, and randomized safety properties of the EASY backfill
//! scheduler.

use spechpc::harness::plan::{
    cap_clock_ghz, dispatch_plan, easy_schedule, flops_fraction, Placement, PlanRequest, SchedJob,
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

    let cl = spechpc::harness::api::resolve_cluster("a").unwrap();
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

/// The EASY scheduler as it was before its per-width fast path: every
/// pass walks the running set for the shadow and scans the whole queue
/// for a backfill. Kept as the oracle the fast path must reproduce.
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

/// A 2,700-job backlog shaped like the benchmark's plan bodies: 27
/// templates (9 benchmarks × 1, 2 and 4 nodes) of 100 submissions each,
/// arriving within a minute at a 2–8 s cadence, on 16 nodes.
fn backlog(seed: u64) -> Vec<SchedJob> {
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut jobs = Vec::with_capacity(2_700);
    for _ in 0..9 {
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
    for seed in 1..=8u64 {
        let jobs = backlog(seed);
        assert_eq!(jobs.len(), 2_700);
        assert_eq!(
            easy_schedule(&jobs, 16),
            easy_schedule_scan(&jobs, 16),
            "backlog {seed}"
        );
    }
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
