//! Cluster capacity planner — the decision tool the paper's data is
//! for (`POST /v1/plan`, `spechpc plan`).
//!
//! A [`PlanRequest`] declares a modeled cluster (machine preset × node
//! count), a queue of benchmark submissions (benchmark, ranks, arrival
//! time, optional fault plan), and optional fleet-wide power caps plus
//! what-if variants. The planner runs a discrete-event FCFS + EASY
//! backfill scheduler over the queue: the simulation engine supplies
//! each distinct job *shape* (benchmark/class/ranks/faults) exactly
//! once — cached and byte-replayable like any other run — and
//! [`throttle_slowdown`] rescales durations under a cap using the same
//! DVFS law the `spechpc dvfs` sweep plots. The answer is per-job
//! wait/turnaround, utilization, makespan, fleet energy/EDP, and a
//! scenario-comparison block for multi-variant requests.
//!
//! Determinism is non-negotiable: the scheduler is a pure function,
//! job shapes come from the deterministic engine, and the response is
//! written with the in-tree [`Json`] codec's number and string writers
//! — the same `PlanRequest` always yields a byte-identical
//! `PlanResponse`, so planner replies are cacheable and fleet-routable
//! like everything else.
//!
//! ## Power-cap model
//!
//! A fleet cap `power_cap_w` is divided evenly over the scenario's
//! nodes and inverted through the package DVFS law
//! (`P(f) = P_base + (P_hot − P_base)·(f/f₀)^1.8`, the fit behind
//! [`spechpc_power::dvfs::package_power_at`]) at the *hottest
//! admissible load* — every core busy at full utilization — giving a
//! capped clock `cap_ghz` that no admitted job can exceed the budget
//! at. Each job then stretches by
//! `throttle_slowdown(f₀, cap_ghz, φ)` where φ is its roofline
//! flops/memory split, and its dynamic package power rescales by
//! `(cap_ghz/f₀)^1.8` above the frequency-independent idle baseline.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use spechpc_kernels::common::config::WorkloadClass;
use spechpc_kernels::common::model::NodeModel;
use spechpc_kernels::registry::benchmark_by_name;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_power::dvfs::{throttle_slowdown, DVFS_EXPONENT};
use spechpc_simmpi::faults::FaultPlan;

use crate::api::{
    self, config_from_json, config_to_json, fault_plan_from_json, fault_plan_to_json, parse_class,
    resolve_cluster, str_field, uint_field, ApiError,
};
use crate::exec::{Executor, RunSpec};
use crate::json::{parse_json, write_num, write_str, Json};
use crate::report::{fmt, pct};
use crate::runner::RunConfig;

/// Hard ceiling on the expanded job count of one plan — a 500-job queue
/// is the design load; six figures is a client bug.
pub const MAX_PLAN_JOBS: usize = 100_000;

/// Hard ceiling on what-if variants per request (each variant on a new
/// cluster re-resolves every job shape through the engine).
pub const MAX_PLAN_VARIANTS: usize = 16;

/// Hard ceiling on modeled cluster size.
pub const MAX_PLAN_NODES: usize = 1 << 20;

/// 422 — the plan is well-formed JSON but semantically impossible.
fn invalid(message: impl Into<String>) -> ApiError {
    ApiError::new(422, "invalid_plan", message)
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// One job template in the queue: a benchmark submission, optionally
/// repeated `count` times at a fixed interarrival gap (so a 500-job
/// queue is a handful of templates, not 500 objects on the wire).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PlanJob {
    /// Benchmark name (see `spechpc list`).
    pub benchmark: String,
    /// Workload class of each submission.
    pub class: WorkloadClass,
    /// Ranks per submission; `0` = one full node of the scenario's
    /// cluster.
    pub nranks: usize,
    /// Arrival time of the first submission (seconds).
    pub arrival_s: f64,
    /// Number of submissions this template expands to (≥ 1).
    pub count: usize,
    /// Gap between successive submissions (seconds).
    pub interarrival_s: f64,
    /// Per-job fault plan; the empty plan inherits the request-level
    /// `config.faults`.
    pub faults: FaultPlan,
}

impl PlanJob {
    pub fn new(benchmark: impl Into<String>, class: WorkloadClass, nranks: usize) -> Self {
        PlanJob {
            benchmark: benchmark.into(),
            class,
            nranks,
            arrival_s: 0.0,
            count: 1,
            interarrival_s: 0.0,
            faults: FaultPlan::none(),
        }
    }

    /// Builder: arrival time of the first submission.
    pub fn with_arrival(mut self, arrival_s: f64) -> Self {
        self.arrival_s = arrival_s;
        self
    }

    /// Builder: expand to `count` submissions, `interarrival_s` apart.
    pub fn with_count(mut self, count: usize, interarrival_s: f64) -> Self {
        self.count = count;
        self.interarrival_s = if count > 1 { interarrival_s } else { 0.0 };
        self
    }

    /// Builder: seeded fault-injection plan for these submissions.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("benchmark".into(), Json::from(self.benchmark.as_str())),
            ("class".into(), Json::from(self.class.to_string())),
            ("nranks".into(), Json::from(self.nranks)),
            ("arrival_s".into(), Json::from(self.arrival_s)),
        ];
        if self.count != 1 {
            fields.push(("count".into(), Json::from(self.count)));
            fields.push(("interarrival_s".into(), Json::from(self.interarrival_s)));
        }
        if !self.faults.is_none() {
            fields.push(("faults".into(), fault_plan_to_json(&self.faults)));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<PlanJob, ApiError> {
        let benchmark = v
            .str_of("benchmark")
            .ok_or_else(|| ApiError::bad_request("missing field 'benchmark' in plan job"))?;
        let class = parse_class(&str_field(v, "class", "tiny")?)?;
        let nranks = uint_field(v, "nranks", 0)? as usize;
        let arrival_s = float_field(v, "arrival_s", 0.0)?;
        let count = uint_field(v, "count", 1)? as usize;
        if count == 0 {
            return Err(invalid("'count' must be >= 1"));
        }
        // With a single submission the gap is meaningless: normalize it
        // away so equivalent requests hash (and replay) identically.
        let interarrival_s = if count > 1 {
            float_field(v, "interarrival_s", 0.0)?
        } else {
            0.0
        };
        let faults = match v.get("faults") {
            Some(f) => fault_plan_from_json(f)?,
            None => FaultPlan::none(),
        };
        Ok(PlanJob {
            benchmark,
            class,
            nranks,
            arrival_s,
            count,
            interarrival_s,
            faults,
        })
    }
}

/// A what-if variant: the baseline scenario with any of cluster, node
/// count or power cap overridden. Absent fields inherit the baseline.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PlanVariant {
    /// Scenario name (unique; `"baseline"` is reserved).
    pub name: String,
    pub cluster: Option<String>,
    pub nodes: Option<usize>,
    pub power_cap_w: Option<f64>,
}

impl PlanVariant {
    pub fn new(name: impl Into<String>) -> Self {
        PlanVariant {
            name: name.into(),
            cluster: None,
            nodes: None,
            power_cap_w: None,
        }
    }

    /// Builder: override the cluster preset.
    pub fn with_cluster(mut self, cluster: impl Into<String>) -> Self {
        self.cluster = Some(cluster.into());
        self
    }

    /// Builder: override the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Builder: override the fleet power cap (`0` = uncapped).
    pub fn with_power_cap_w(mut self, watts: f64) -> Self {
        self.power_cap_w = Some(watts);
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".into(), Json::from(self.name.as_str()))];
        if let Some(c) = &self.cluster {
            fields.push(("cluster".into(), Json::from(c.as_str())));
        }
        if let Some(n) = self.nodes {
            fields.push(("nodes".into(), Json::from(n)));
        }
        if let Some(w) = self.power_cap_w {
            fields.push(("power_cap_w".into(), Json::from(w)));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<PlanVariant, ApiError> {
        let name = v
            .str_of("name")
            .ok_or_else(|| ApiError::bad_request("missing field 'name' in plan variant"))?;
        if name.is_empty() || name == "baseline" {
            return Err(invalid(
                "variant names must be non-empty and 'baseline' is reserved",
            ));
        }
        let cluster = match v.get("cluster") {
            None => None,
            Some(_) => Some(str_field(v, "cluster", "")?),
        };
        let nodes = match v.get("nodes") {
            None => None,
            Some(_) => Some(uint_field(v, "nodes", 0)? as usize),
        };
        let power_cap_w = match v.get("power_cap_w") {
            None => None,
            Some(_) => Some(float_field(v, "power_cap_w", 0.0)?),
        };
        Ok(PlanVariant {
            name,
            cluster,
            nodes,
            power_cap_w,
        })
    }
}

/// The `POST /v1/plan` body: a modeled cluster, a job queue, run rules
/// shared by every shape resolution, and optional what-if variants.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PlanRequest {
    /// Baseline cluster name or alias.
    pub cluster: String,
    /// Baseline node count; `0` = the preset's full size.
    pub nodes: usize,
    /// Baseline fleet power cap in watts; `0` = uncapped.
    pub power_cap_w: f64,
    /// Engine run rules for shape resolution (warmup/measured/reps,
    /// threads, default faults).
    pub config: RunConfig,
    /// Job templates (expanded in order).
    pub jobs: Vec<PlanJob>,
    /// What-if variants evaluated next to the baseline.
    pub variants: Vec<PlanVariant>,
}

impl Default for PlanRequest {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanRequest {
    pub fn new() -> Self {
        PlanRequest {
            cluster: "a".to_string(),
            nodes: 0,
            power_cap_w: 0.0,
            config: RunConfig::default(),
            jobs: Vec::new(),
            variants: Vec::new(),
        }
    }

    /// Builder: baseline cluster (name or alias).
    pub fn with_cluster(mut self, cluster: impl Into<String>) -> Self {
        self.cluster = cluster.into();
        self
    }

    /// Builder: baseline node count (`0` = preset size).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder: baseline fleet power cap (`0` = uncapped).
    pub fn with_power_cap_w(mut self, watts: f64) -> Self {
        self.power_cap_w = watts;
        self
    }

    /// Builder: engine run rules.
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: append one job template.
    pub fn with_job(mut self, job: PlanJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Builder: append one what-if variant.
    pub fn with_variant(mut self, variant: PlanVariant) -> Self {
        self.variants.push(variant);
        self
    }

    /// Serialize as the `POST /v1/plan` body (also the canonical form
    /// the fleet coordinator hashes for routing).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("cluster".into(), Json::from(self.cluster.as_str())),
            ("nodes".into(), Json::from(self.nodes)),
            ("power_cap_w".into(), Json::from(self.power_cap_w)),
            (
                "jobs".into(),
                Json::Arr(self.jobs.iter().map(PlanJob::to_json).collect()),
            ),
        ];
        if !self.variants.is_empty() {
            fields.push((
                "variants".into(),
                Json::Arr(self.variants.iter().map(PlanVariant::to_json).collect()),
            ));
        }
        fields.push(("config".into(), config_to_json(&self.config)));
        Json::Obj(fields).render()
    }

    /// Decode a `POST /v1/plan` body. Malformed shapes reject here;
    /// semantic impossibilities (unknown clusters, infeasible caps,
    /// jobs wider than the cluster) reject at evaluation.
    pub fn from_json(text: &str) -> Result<PlanRequest, ApiError> {
        let v = parse_json(text)
            .ok_or_else(|| ApiError::bad_request("request body is not valid JSON"))?;
        let cluster = str_field(&v, "cluster", "a")?;
        let nodes = uint_field(&v, "nodes", 0)? as usize;
        if nodes > MAX_PLAN_NODES {
            return Err(invalid(format!("'nodes' must be <= {MAX_PLAN_NODES}")));
        }
        let power_cap_w = float_field(&v, "power_cap_w", 0.0)?;
        let jobs = v
            .get("jobs")
            .and_then(Json::arr)
            .ok_or_else(|| ApiError::bad_request("missing field 'jobs' (array of job templates)"))?
            .iter()
            .map(PlanJob::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let variants = match v.get("variants").and_then(Json::arr) {
            Some(vs) => vs
                .iter()
                .map(PlanVariant::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        if variants.len() > MAX_PLAN_VARIANTS {
            return Err(invalid(format!(
                "at most {MAX_PLAN_VARIANTS} variants per plan"
            )));
        }
        let config = match v.get("config") {
            Some(c) => config_from_json(c)?,
            None => RunConfig::default(),
        };
        let req = PlanRequest {
            cluster,
            nodes,
            power_cap_w,
            config,
            jobs,
            variants,
        };
        // Fail fast on empty/oversized queues and duplicate names so a
        // bad request never reaches the engine.
        req.expanded_jobs()?;
        req.scenarios()?;
        Ok(req)
    }

    /// Expand the templates into `(template index, arrival)` instances,
    /// in template order then submission order. An arrival that
    /// overflows to infinity is a 422: no schedule can place it.
    fn expanded_jobs(&self) -> Result<Vec<(usize, f64)>, ApiError> {
        let mut out = Vec::new();
        for (t, job) in self.jobs.iter().enumerate() {
            if job.count == 0 {
                return Err(invalid("'count' must be >= 1"));
            }
            if job.count > MAX_PLAN_JOBS || out.len() + job.count > MAX_PLAN_JOBS {
                return Err(invalid(format!(
                    "plan expands to more than {MAX_PLAN_JOBS} jobs"
                )));
            }
            for i in 0..job.count {
                let arrival = job.arrival_s + i as f64 * job.interarrival_s;
                if !arrival.is_finite() {
                    return Err(invalid(format!(
                        "submission {i} of job '{}' arrives past the largest finite time",
                        job.benchmark
                    )));
                }
                out.push((t, arrival));
            }
        }
        if out.is_empty() {
            return Err(invalid("plan has no jobs"));
        }
        Ok(out)
    }

    /// The scenario list: baseline first, then each variant with its
    /// overrides applied.
    fn scenarios(&self) -> Result<Vec<ScenarioSpec>, ApiError> {
        let mut out = vec![ScenarioSpec {
            name: "baseline".to_string(),
            cluster: self.cluster.clone(),
            nodes: self.nodes,
            power_cap_w: self.power_cap_w,
        }];
        for v in &self.variants {
            out.push(ScenarioSpec {
                name: v.name.clone(),
                cluster: v.cluster.clone().unwrap_or_else(|| self.cluster.clone()),
                nodes: v.nodes.unwrap_or(self.nodes),
                power_cap_w: v.power_cap_w.unwrap_or(self.power_cap_w),
            });
        }
        for (i, a) in out.iter().enumerate() {
            if out[i + 1..].iter().any(|b| b.name == a.name) {
                return Err(invalid(format!("duplicate scenario name '{}'", a.name)));
            }
        }
        Ok(out)
    }
}

/// `v[key]` as a finite non-negative number with a default when absent.
fn float_field(v: &Json, key: &str, default: f64) -> Result<f64, ApiError> {
    api::field(v, key, default, "a finite non-negative number", |x| {
        x.num().filter(|x| x.is_finite() && *x >= 0.0)
    })
}

/// One resolved scenario (baseline or variant).
struct ScenarioSpec {
    name: String,
    cluster: String,
    nodes: usize,
    power_cap_w: f64,
}

// ---------------------------------------------------------------------------
// Job shapes (what the engine contributes)
// ---------------------------------------------------------------------------

/// Everything the scheduler and the energy model need to know about one
/// distinct job shape, as resolved by a single engine run.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    /// Wall-clock of one submission at the base clock (seconds).
    pub runtime_s: f64,
    /// Nodes one submission occupies.
    pub nodes: usize,
    /// Job-total package power at the base clock (watts, all nodes).
    pub package_w: f64,
    /// Job-total DRAM power (watts, all nodes).
    pub dram_w: f64,
    /// Roofline flops/(flops+mem) split of a representative rank — the
    /// φ that [`throttle_slowdown`] stretches runtimes by.
    pub flops_fraction: f64,
}

/// The roofline flops/memory split the DVFS slowdown model needs: rank
/// 0's [`NodeModel::split`], from the node model the engine's compute
/// times come from.
pub fn flops_fraction(
    cluster: &ClusterSpec,
    benchmark: &str,
    class: WorkloadClass,
    nranks: usize,
) -> f64 {
    let Some(bench) = benchmark_by_name(benchmark) else {
        return 0.5; // unreachable after a successful engine run
    };
    let (t_flops, t_mem) = NodeModel::new(cluster, nranks).split(&bench.signature(class));
    if t_flops + t_mem > 0.0 {
        t_flops / (t_flops + t_mem)
    } else {
        0.0
    }
}

/// Resolve one job shape through the executor (cached, deterministic).
fn engine_shape(
    exec: &Executor,
    config: &RunConfig,
    cluster: &ClusterSpec,
    benchmark: &str,
    class: WorkloadClass,
    nranks: usize,
    faults: &FaultPlan,
) -> Result<JobShape, ApiError> {
    let forked = exec.with_run_config(config.clone().with_faults(faults.clone()));
    // Read the four scalars off the served result: a memory hit clones
    // none of its profile arrays.
    let (runtime_s, nodes, package_w, dram_w) =
        forked.run_one_with(cluster, &RunSpec::new(benchmark, class, nranks), |r| {
            (r.runtime_s, r.nodes_used, r.power.package_w, r.power.dram_w)
        })?;
    Ok(JobShape {
        runtime_s,
        nodes,
        package_w,
        dram_w,
        flops_fraction: flops_fraction(cluster, benchmark, class, nranks),
    })
}

// ---------------------------------------------------------------------------
// Power cap → capped clock
// ---------------------------------------------------------------------------

/// The highest core clock at which one *fully busy, fully hot* node
/// stays within `node_budget_w` package watts — the package DVFS law
/// inverted in closed form. Budgets at or above full hot power return
/// the base clock (the cap binds nothing); budgets at or below the
/// idle baseline are infeasible (422 — no clock sheds baseline power).
pub fn cap_clock_ghz(cluster: &ClusterSpec, node_budget_w: f64) -> Result<f64, ApiError> {
    let cpu = &cluster.node.cpu;
    let per_socket = node_budget_w / cluster.node.sockets as f64;
    let full = cpu.package_power(cpu.cores_per_socket, 1.0, 1.0);
    if per_socket >= full {
        return Ok(cpu.base_clock_ghz);
    }
    if per_socket <= cpu.baseline_power_w {
        return Err(ApiError::new(
            422,
            "infeasible_power_cap",
            format!(
                "power cap leaves {per_socket:.0} W per socket on {}, at or below the \
                 {:.0} W idle baseline — no clock satisfies it",
                cluster.name, cpu.baseline_power_w
            ),
        ));
    }
    let scale = (per_socket - cpu.baseline_power_w) / (full - cpu.baseline_power_w);
    Ok(cpu.base_clock_ghz * scale.powf(1.0 / DVFS_EXPONENT))
}

// ---------------------------------------------------------------------------
// FCFS + EASY backfill scheduler
// ---------------------------------------------------------------------------

/// One schedulable job instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedJob {
    pub arrival_s: f64,
    pub nodes: usize,
    pub duration_s: f64,
}

/// Where the scheduler placed one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    pub start_s: f64,
    pub end_s: f64,
}

/// FCFS with EASY backfill (Lifka '95): the queue head gets a
/// reservation at the *shadow time* (the earliest instant enough
/// running jobs have drained for it); any later job may jump the queue
/// iff it fits the free nodes now and either finishes before the
/// shadow or squeezes into the nodes the head will leave idle — so
/// backfilling never delays the head, and every job's wait is bounded
/// by the drain of the work ahead of it (no starvation).
///
/// Pure and deterministic: ties break by index, time advances by
/// `total_cmp`. Returns one [`Placement`] per input job, input order.
///
/// Every job is known up front, so the queue is kept by width: each
/// width holds a min tree over its own jobs in arrival order, whose
/// slot for a job is its duration while it waits and +∞ before it
/// arrives and after it starts. While the head is blocked, a pass
/// starts the earliest-arriving job among the widths that fit the free
/// nodes. In a width that also fits the nodes the head leaves idle
/// (`extra`) that is the width's first waiting job; in any other it is
/// the leftmost job with `now + d <= shadow`. That test is evaluated as
/// written, not as `d <= shadow - now`, which rounds differently; and
/// since `now + d` is monotone in `d`, a subtree holds a passing job
/// iff its minimum passes, so the descent finds the very job a scan of
/// the queue would. Running jobs sit in a set ordered by `(end, width,
/// index)` under `total_cmp`, so the shadow walk reads them in order
/// without a sort; the width tie-break decides `extra` when jobs end
/// together. A pass costs a tree descent per fitting width plus the
/// running jobs the walk reads, however long the queue.
///
/// # Panics
/// If `total_nodes == 0`, a job is wider than the cluster, or any
/// time is negative/non-finite. [`evaluate_plan`] validates first and
/// maps violations to typed 422s.
pub fn easy_schedule(jobs: &[SchedJob], total_nodes: usize) -> Vec<Placement> {
    assert!(total_nodes > 0, "cluster must have at least one node");
    for j in jobs {
        assert!(
            j.nodes > 0 && j.nodes <= total_nodes,
            "job width must fit the cluster"
        );
        assert!(j.arrival_s.is_finite() && j.arrival_s >= 0.0);
        assert!(j.duration_s.is_finite() && j.duration_s >= 0.0);
    }
    let mut backlog = Backlog::new(jobs);
    let mut placed = vec![
        Placement {
            start_s: 0.0,
            end_s: 0.0
        };
        jobs.len()
    ];
    let mut running: BTreeSet<Running> = BTreeSet::new();
    let mut free = total_nodes;
    let mut now = backlog.order.first().map_or(0.0, |&i| jobs[i].arrival_s);

    loop {
        backlog.admit(now);
        // Scheduling pass: start the FCFS head while it fits, else one
        // backfill, until neither applies — each start changes free
        // and the shadow, so the reservation is recomputed before the
        // next jump.
        loop {
            let rank = match backlog.head() {
                Some(head) if jobs[backlog.order[head]].nodes <= free => head,
                Some(head) => match backlog.backfill(head, free, &running, now) {
                    Some(rank) => rank,
                    None => break,
                },
                None => break,
            };
            let idx = backlog.take(rank);
            let end = now + jobs[idx].duration_s;
            placed[idx] = Placement {
                start_s: now,
                end_s: end,
            };
            free -= jobs[idx].nodes;
            running.insert(Running {
                end,
                nodes: jobs[idx].nodes,
                idx,
            });
        }
        if running.is_empty() && backlog.is_drained() {
            break;
        }
        let next_end = running.first().map_or(f64::INFINITY, |r| r.end);
        let t = next_end.min(backlog.next_arrival());
        debug_assert!(t.is_finite(), "a blocked head implies running jobs");
        now = now.max(t);
        // Under `total_cmp` the jobs done by `now` are a prefix of the set.
        while let Some(done) = running.first().copied().filter(|r| r.end <= now) {
            running.remove(&done);
            free += done.nodes;
        }
    }
    placed
}

/// A running job, ordered as the shadow walk reads them: by end time
/// under `total_cmp`, then by width, then by index.
#[derive(Debug, Clone, Copy)]
struct Running {
    end: f64,
    nodes: usize,
    idx: usize,
}

impl Ord for Running {
    fn cmp(&self, other: &Self) -> Ordering {
        self.end
            .total_cmp(&other.end)
            .then(self.nodes.cmp(&other.nodes))
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for Running {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Running {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Running {}

/// The jobs not yet started, by arrival rank (position in the
/// `(arrival, index)` order) and bucketed by width.
struct Backlog<'a> {
    jobs: &'a [SchedJob],
    /// Job indices by rank.
    order: Vec<usize>,
    /// Each rank's width queue and its slot there.
    slot: Vec<(usize, usize)>,
    /// One queue per distinct width, narrowest first.
    queues: Vec<WidthQueue>,
    started: Vec<bool>,
    /// Lowest rank not yet started, once every rank below it has.
    head: usize,
    /// Ranks below `next` have arrived.
    next: usize,
}

impl<'a> Backlog<'a> {
    fn new(jobs: &'a [SchedJob]) -> Self {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival_s
                .total_cmp(&jobs[b].arrival_s)
                .then(a.cmp(&b))
        });
        let mut widths: Vec<usize> = jobs.iter().map(|j| j.nodes).collect();
        widths.sort_unstable();
        widths.dedup();
        let mut ranks = vec![Vec::new(); widths.len()];
        let slot = order
            .iter()
            .enumerate()
            .map(|(rank, &i)| {
                let q = widths
                    .binary_search(&jobs[i].nodes)
                    .expect("every width has a queue");
                ranks[q].push(rank);
                (q, ranks[q].len() - 1)
            })
            .collect();
        let queues = widths
            .into_iter()
            .zip(ranks)
            .map(|(nodes, ranks)| WidthQueue::new(nodes, ranks))
            .collect();
        Backlog {
            jobs,
            started: vec![false; order.len()],
            order,
            slot,
            queues,
            head: 0,
            next: 0,
        }
    }

    /// Queue every job that has arrived by `now`.
    fn admit(&mut self, now: f64) {
        while let Some(&i) = self.order.get(self.next) {
            if self.jobs[i].arrival_s > now {
                break;
            }
            let (q, slot) = self.slot[self.next];
            self.queues[q].set(slot, self.jobs[i].duration_s);
            self.next += 1;
        }
    }

    /// Arrival of the next job not yet queued (+∞ when none is left).
    fn next_arrival(&self) -> f64 {
        self.order
            .get(self.next)
            .map_or(f64::INFINITY, |&i| self.jobs[i].arrival_s)
    }

    /// Rank of the queue head, the earliest-arriving waiting job.
    fn head(&mut self) -> Option<usize> {
        while self.head < self.next && self.started[self.head] {
            self.head += 1;
        }
        (self.head < self.next).then_some(self.head)
    }

    /// Whether every job has started.
    fn is_drained(&mut self) -> bool {
        self.head().is_none() && self.next == self.order.len()
    }

    /// Take rank `rank` off the queue to start it; returns its job.
    fn take(&mut self, rank: usize) -> usize {
        self.started[rank] = true;
        let (q, slot) = self.slot[rank];
        self.queues[q].set(slot, f64::INFINITY);
        self.order[rank]
    }

    /// The rank EASY backfills past the blocked `head` at `now`, if any.
    fn backfill(
        &self,
        head: usize,
        free: usize,
        running: &BTreeSet<Running>,
        now: f64,
    ) -> Option<usize> {
        // The head is blocked, so its width exceeds `free`: only the
        // widths that fit can hold a candidate, and the head is in none.
        let fitting = &self.queues[..self.queues.partition_point(|q| q.nodes <= free)];
        if !fitting.iter().any(WidthQueue::waits) {
            return None;
        }
        // Shadow time: walk running jobs by completion until the head's
        // width is available. (The head is blocked, so something is
        // running: an idle cluster always fits it.)
        let need = self.jobs[self.order[head]].nodes;
        let mut avail = free;
        let mut shadow = now;
        for r in running {
            if avail >= need {
                break;
            }
            avail += r.nodes;
            shadow = r.end;
        }
        // Nodes still free at the shadow after the head starts: a
        // narrow enough job may run past the shadow harmlessly.
        let extra = avail - need;
        fitting
            .iter()
            .filter_map(|q| {
                if q.nodes <= extra {
                    q.first(|d| d < f64::INFINITY)
                } else {
                    q.first(|d| now + d <= shadow)
                }
            })
            .min()
    }
}

/// One width's jobs in arrival order under a min tree of their slots.
struct WidthQueue {
    nodes: usize,
    /// Ranks of this width's jobs, ascending; slot `s` is `ranks[s]`.
    ranks: Vec<usize>,
    /// Implicit binary tree: root at 1, slot `s` at leaf `leaves + s`.
    mins: Vec<f64>,
    leaves: usize,
}

impl WidthQueue {
    fn new(nodes: usize, ranks: Vec<usize>) -> Self {
        let leaves = ranks.len().next_power_of_two();
        WidthQueue {
            nodes,
            ranks,
            mins: vec![f64::INFINITY; 2 * leaves],
            leaves,
        }
    }

    fn set(&mut self, slot: usize, value: f64) {
        let mut i = self.leaves + slot;
        self.mins[i] = value;
        while i > 1 {
            i /= 2;
            self.mins[i] = self.mins[2 * i].min(self.mins[2 * i + 1]);
        }
    }

    /// Whether a job of this width waits.
    fn waits(&self) -> bool {
        self.mins[1] < f64::INFINITY
    }

    /// Rank of the earliest waiting job whose duration passes `test`.
    /// `test` must fail +∞ and pass every duration below one it passes:
    /// then a subtree holds a passing job iff its minimum passes.
    fn first(&self, test: impl Fn(f64) -> bool) -> Option<usize> {
        if !test(self.mins[1]) {
            return None;
        }
        let mut i = 1;
        while i < self.leaves {
            // Left child if it holds a passing job, else right.
            i = 2 * i + usize::from(!test(self.mins[2 * i]));
        }
        Some(self.ranks[i - self.leaves])
    }
}

// ---------------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------------

/// One scheduled job in a scenario's timeline.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct PlannedJob {
    pub nodes: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub wait_s: f64,
}

/// The planner's verdict on one scenario.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScenarioOutcome {
    pub name: String,
    /// Resolved cluster display name (`ClusterA`/`ClusterB`).
    pub cluster: String,
    pub nodes: usize,
    /// Fleet power cap (watts; `0` = uncapped).
    pub power_cap_w: f64,
    /// The clock the cap binds every job to (= base clock uncapped).
    pub cap_ghz: f64,
    pub makespan_s: f64,
    /// Node-seconds busy over node-seconds available.
    pub utilization: f64,
    pub wait_mean_s: f64,
    pub wait_p95_s: f64,
    pub wait_max_s: f64,
    pub turnaround_mean_s: f64,
    pub turnaround_max_s: f64,
    /// Job package energy (joules, all jobs).
    pub cpu_j: f64,
    /// Job DRAM energy (joules, all jobs).
    pub dram_j: f64,
    /// Baseline energy of node-seconds left idle over the makespan —
    /// reported next to, not inside, the job total.
    pub idle_j: f64,
    /// One row per expanded job, request order.
    pub per_job: Vec<PlannedJob>,
}

impl ScenarioOutcome {
    /// Job energy-to-solution of the whole queue (package + DRAM).
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.dram_j
    }

    /// Fleet energy-delay product: job energy × makespan.
    pub fn edp_js(&self) -> f64 {
        self.total_j() * self.makespan_s
    }

    /// Append this scenario's response object to `out`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_str(out, &self.name);
        out.push_str(",\"cluster\":");
        write_str(out, &self.cluster);
        for (key, x) in [
            (",\"nodes\":", self.nodes as f64),
            (",\"power_cap_w\":", self.power_cap_w),
            (",\"cap_ghz\":", self.cap_ghz),
            (",\"makespan_s\":", self.makespan_s),
            (",\"utilization\":", self.utilization),
            (",\"wait\":{\"mean_s\":", self.wait_mean_s),
            (",\"p95_s\":", self.wait_p95_s),
            (",\"max_s\":", self.wait_max_s),
            ("},\"turnaround\":{\"mean_s\":", self.turnaround_mean_s),
            (",\"max_s\":", self.turnaround_max_s),
            ("},\"energy\":{\"cpu_j\":", self.cpu_j),
            (",\"dram_j\":", self.dram_j),
            (",\"total_j\":", self.total_j()),
            (",\"idle_j\":", self.idle_j),
            (",\"edp_js\":", self.edp_js()),
        ] {
            out.push_str(key);
            write_num(out, x);
        }
        out.push_str("},\"per_job\":[");
        for (i, j) in self.per_job.iter().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            write_num(out, j.nodes as f64);
            for x in [j.start_s, j.end_s, j.wait_s] {
                out.push(',');
                write_num(out, x);
            }
            out.push(']');
        }
        out.push_str("]}");
    }
}

/// The `POST /v1/plan` answer: one outcome per scenario (baseline
/// first) plus a comparison block when variants were requested.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PlanResponse {
    /// Expanded job count (identical across scenarios).
    pub jobs: usize,
    pub scenarios: Vec<ScenarioOutcome>,
}

impl PlanResponse {
    /// Serialize as the `POST /v1/plan` response body. Deterministic:
    /// field order is fixed and every number and string goes through
    /// the in-tree codec's writers, so equal plans are byte-equal on the
    /// wire. Written straight into one buffer sized for the per-job
    /// rows, without building a [`Json`] tree.
    pub fn to_json(&self) -> String {
        let rows: usize = self.scenarios.iter().map(|s| s.per_job.len()).sum();
        let mut out = String::with_capacity(512 * (self.scenarios.len() + 1) + 64 * rows);
        out.push_str("{\"schema\":");
        write_num(&mut out, api::API_SCHEMA_VERSION as f64);
        out.push_str(",\"jobs\":");
        write_num(&mut out, self.jobs as f64);
        out.push_str(",\"scenarios\":[");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.write_json(&mut out);
        }
        out.push(']');
        if self.scenarios.len() > 1 {
            out.push_str(",\"comparison\":");
            self.write_comparison(&mut out);
        }
        out.push_str("}\n");
        out
    }

    /// Variant-vs-baseline ratios plus the winners across all
    /// scenarios (ratios against a zero baseline render as `null`).
    fn write_comparison(&self, out: &mut String) {
        let base = &self.scenarios[0];
        out.push_str("{\"baseline\":");
        write_str(out, &base.name);
        out.push_str(",\"scenarios\":[");
        for (i, s) in self.scenarios[1..].iter().enumerate() {
            out.push_str(if i == 0 { "{\"name\":" } else { ",{\"name\":" });
            write_str(out, &s.name);
            for (key, v, b) in [
                (",\"makespan_ratio\":", s.makespan_s, base.makespan_s),
                (",\"energy_ratio\":", s.total_j(), base.total_j()),
                (",\"edp_ratio\":", s.edp_js(), base.edp_js()),
                (",\"mean_wait_ratio\":", s.wait_mean_s, base.wait_mean_s),
            ] {
                out.push_str(key);
                if b > 0.0 {
                    write_num(out, v / b);
                } else {
                    out.push_str("null");
                }
            }
            out.push('}');
        }
        out.push_str("],\"best_energy\":");
        write_str(out, &best_by(&self.scenarios, |s| s.total_j()));
        out.push_str(",\"best_makespan\":");
        write_str(out, &best_by(&self.scenarios, |s| s.makespan_s));
        out.push('}');
    }
}

/// The first scenario minimizing `key` (ties keep request order).
fn best_by(scenarios: &[ScenarioOutcome], key: impl Fn(&ScenarioOutcome) -> f64) -> String {
    let mut best = &scenarios[0];
    for s in &scenarios[1..] {
        if key(s).total_cmp(&key(best)).is_lt() {
            best = s;
        }
    }
    best.name.clone()
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Evaluate a plan with job shapes supplied by `shape_of` — the
/// planner core, kept engine-free so schedulers and power math are
/// testable against synthetic shapes. [`dispatch_plan`] is the
/// engine-backed entry the service uses.
///
/// Each template is resolved once per scenario, and shape resolutions
/// are memoized per (cluster, benchmark, class, ranks, faults), so a
/// 500-job queue of a handful of templates costs a handful of engine
/// runs and as many memo probes per scenario.
pub fn evaluate_plan<F>(req: &PlanRequest, shape_of: &mut F) -> Result<PlanResponse, ApiError>
where
    F: FnMut(&ClusterSpec, &str, WorkloadClass, usize, &FaultPlan) -> Result<JobShape, ApiError>,
{
    let expanded = req.expanded_jobs()?;
    let scenario_specs = req.scenarios()?;
    let mut memo: BTreeMap<(String, String, String, usize, String), JobShape> = BTreeMap::new();
    let mut scenarios = Vec::with_capacity(scenario_specs.len());

    for spec in &scenario_specs {
        let cluster = resolve_cluster(&spec.cluster)?;
        let nodes = if spec.nodes == 0 {
            cluster.nodes
        } else {
            spec.nodes
        };
        if nodes == 0 || nodes > MAX_PLAN_NODES {
            return Err(invalid(format!(
                "scenario '{}' must model between 1 and {MAX_PLAN_NODES} nodes",
                spec.name
            )));
        }
        let base_ghz = cluster.node.cpu.base_clock_ghz;
        let cap_ghz = if spec.power_cap_w > 0.0 {
            cap_clock_ghz(&cluster, spec.power_cap_w / nodes as f64)?
        } else {
            base_ghz
        };
        let dynamic_scale = (cap_ghz / base_ghz).powf(DVFS_EXPONENT);
        let node_baseline_w = cluster.node.sockets as f64 * cluster.node.cpu.baseline_power_w;

        // Resolve each template once per scenario, in request order, so
        // errors and shape resolutions come in the order the jobs do:
        // its nodes, capped duration and power.
        let mut templates = Vec::with_capacity(req.jobs.len());
        for job in &req.jobs {
            let nranks = if job.nranks == 0 {
                cluster.node.cores()
            } else {
                job.nranks
            };
            // Shape resolution runs on the pristine preset, so shapes
            // are shared (and cached) across scenarios that only differ
            // in node count or cap; a job must still fit the preset.
            if nranks > cluster.total_cores() {
                return Err(invalid(format!(
                    "job '{}' needs {nranks} ranks but {} models at most {}",
                    job.benchmark,
                    cluster.name,
                    cluster.total_cores()
                )));
            }
            let faults = if job.faults.is_none() {
                req.config.faults.clone()
            } else {
                job.faults.clone()
            };
            let key = (
                cluster.name.clone(),
                job.benchmark.clone(),
                job.class.to_string(),
                nranks,
                faults.canonical(),
            );
            let shape = match memo.get(&key) {
                Some(s) => *s,
                None => {
                    let s = shape_of(&cluster, &job.benchmark, job.class, nranks, &faults)?;
                    memo.insert(key, s);
                    s
                }
            };
            if shape.nodes > nodes {
                return Err(invalid(format!(
                    "job '{}' spans {} nodes but scenario '{}' models {nodes}",
                    job.benchmark, shape.nodes, spec.name
                )));
            }
            let slowdown = throttle_slowdown(base_ghz, cap_ghz, shape.flops_fraction);
            let duration = shape.runtime_s * slowdown;
            // The job's idle floor (baseline of its nodes) is clock-
            // independent; only the dynamic share rescales with the cap.
            let floor_w = node_baseline_w * shape.nodes as f64;
            let package_w = floor_w + (shape.package_w - floor_w).max(0.0) * dynamic_scale;
            templates.push((shape.nodes, duration, package_w, shape.dram_w));
        }

        let mut sched = Vec::with_capacity(expanded.len());
        let mut cpu_j = 0.0;
        let mut dram_j = 0.0;
        for &(t, arrival) in &expanded {
            let (width, duration, package_w, dram_w) = templates[t];
            cpu_j += package_w * duration;
            dram_j += dram_w * duration;
            sched.push(SchedJob {
                arrival_s: arrival,
                nodes: width,
                duration_s: duration,
            });
        }

        let placed = easy_schedule(&sched, nodes);
        let t0 = sched
            .iter()
            .map(|j| j.arrival_s)
            .fold(f64::INFINITY, f64::min);
        let t1 = placed.iter().map(|p| p.end_s).fold(t0, f64::max);
        let makespan = t1 - t0;
        let busy_node_s: f64 = sched.iter().map(|j| j.nodes as f64 * j.duration_s).sum();
        let utilization = if makespan > 0.0 {
            busy_node_s / (nodes as f64 * makespan)
        } else {
            0.0
        };
        let idle_node_w = node_baseline_w
            + cluster.node.numa_domains() as f64 * cluster.node.domain_memory.dram_power(0.0);
        let idle_j = (nodes as f64 * makespan - busy_node_s).max(0.0) * idle_node_w;

        let per_job: Vec<PlannedJob> = sched
            .iter()
            .zip(&placed)
            .map(|(j, p)| PlannedJob {
                nodes: j.nodes,
                start_s: p.start_s,
                end_s: p.end_s,
                wait_s: p.start_s - j.arrival_s,
            })
            .collect();
        let mut waits: Vec<f64> = per_job.iter().map(|j| j.wait_s).collect();
        waits.sort_by(f64::total_cmp);
        let n = waits.len() as f64;
        let p95 = waits[((0.95 * n).ceil() as usize).clamp(1, waits.len()) - 1];
        let turnarounds: Vec<f64> = per_job
            .iter()
            .map(|j| j.end_s - (j.start_s - j.wait_s))
            .collect();

        scenarios.push(ScenarioOutcome {
            name: spec.name.clone(),
            cluster: cluster.name.clone(),
            nodes,
            power_cap_w: spec.power_cap_w,
            cap_ghz,
            makespan_s: makespan,
            utilization,
            wait_mean_s: waits.iter().sum::<f64>() / n,
            wait_p95_s: p95,
            wait_max_s: *waits.last().unwrap(),
            turnaround_mean_s: turnarounds.iter().sum::<f64>() / n,
            turnaround_max_s: turnarounds.iter().fold(0.0, |a, &b| a.max(b)),
            cpu_j,
            dram_j,
            idle_j,
            per_job,
        });
    }

    Ok(PlanResponse {
        jobs: expanded.len(),
        scenarios,
    })
}

/// Evaluate a plan with job shapes resolved by the executor — the
/// `POST /v1/plan` / `spechpc plan` entry point. Shapes go through the
/// run cache, so replays of the same plan are engine-free and the
/// response is byte-identical.
pub fn dispatch_plan(exec: &Executor, req: &PlanRequest) -> Result<PlanResponse, ApiError> {
    let config = req.config.clone();
    evaluate_plan(req, &mut |cluster, benchmark, class, nranks, faults| {
        engine_shape(exec, &config, cluster, benchmark, class, nranks, faults)
    })
}

// ---------------------------------------------------------------------------
// Rendering (the CLI's human-readable view)
// ---------------------------------------------------------------------------

/// The `spechpc plan` summary block.
pub fn render_plan_text(r: &PlanResponse) -> String {
    let mut out = format!(
        "capacity plan: {} job(s), {} scenario(s)\n",
        r.jobs,
        r.scenarios.len()
    );
    for s in &r.scenarios {
        let cap = if s.power_cap_w > 0.0 {
            format!("cap {} W -> {} GHz", fmt(s.power_cap_w), fmt(s.cap_ghz))
        } else {
            "uncapped".to_string()
        };
        out.push_str(&format!(
            "\n{}: {} x {} node(s), {}\n",
            s.name, s.cluster, s.nodes, cap
        ));
        out.push_str(&format!(
            "  makespan       {} s   utilization {}\n",
            fmt(s.makespan_s),
            pct(s.utilization * 100.0)
        ));
        out.push_str(&format!(
            "  wait           mean {} s / p95 {} s / max {} s\n",
            fmt(s.wait_mean_s),
            fmt(s.wait_p95_s),
            fmt(s.wait_max_s)
        ));
        out.push_str(&format!(
            "  turnaround     mean {} s / max {} s\n",
            fmt(s.turnaround_mean_s),
            fmt(s.turnaround_max_s)
        ));
        out.push_str(&format!(
            "  energy         {} kJ jobs (+ {} kJ idle)   EDP {} MJ*s\n",
            fmt(s.total_j() / 1e3),
            fmt(s.idle_j / 1e3),
            fmt(s.edp_js() / 1e6)
        ));
    }
    if r.scenarios.len() > 1 {
        let base = &r.scenarios[0];
        out.push_str(&format!("\ncomparison vs {}:\n", base.name));
        for s in &r.scenarios[1..] {
            let rel = |v: f64, b: f64| {
                if b > 0.0 {
                    format!("x{}", fmt(v / b))
                } else {
                    "n/a".to_string()
                }
            };
            out.push_str(&format!(
                "  {}: makespan {}  energy {}  EDP {}\n",
                s.name,
                rel(s.makespan_s, base.makespan_s),
                rel(s.total_j(), base.total_j()),
                rel(s.edp_js(), base.edp_js())
            ));
        }
        out.push_str(&format!(
            "  best energy: {}   best makespan: {}\n",
            best_by(&r.scenarios, |s| s.total_j()),
            best_by(&r.scenarios, |s| s.makespan_s)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechpc_power::dvfs::package_power_at;

    fn shape(runtime_s: f64, nodes: usize, package_w: f64, phi: f64) -> JobShape {
        JobShape {
            runtime_s,
            nodes,
            package_w,
            dram_w: 50.0 * nodes as f64,
            flops_fraction: phi,
        }
    }

    /// A synthetic oracle: runtime scales with ranks, one node per 72
    /// ranks, constant power density.
    fn synthetic(
        cluster: &ClusterSpec,
        benchmark: &str,
        _class: WorkloadClass,
        nranks: usize,
        _faults: &FaultPlan,
    ) -> Result<JobShape, ApiError> {
        let nodes = nranks.div_ceil(cluster.node.cores());
        let phi = match benchmark {
            "sph-exa" => 0.9,
            "lbm" => 0.2,
            _ => 0.5,
        };
        let baseline = cluster.node.sockets as f64 * cluster.node.cpu.baseline_power_w;
        Ok(shape(
            100.0 + nranks as f64,
            nodes,
            (baseline + 180.0) * nodes as f64,
            phi,
        ))
    }

    #[test]
    fn easy_backfill_fills_holes_without_delaying_the_head() {
        // 4 nodes. j0 takes 3 of them for 100 s; j1 (the head) wants
        // all 4 and must wait for the shadow at t=100. j2 is short and
        // narrow (fits the hole, done before the shadow): backfills.
        // j3 is narrow but too long: would delay the head, waits.
        let jobs = [
            SchedJob {
                arrival_s: 0.0,
                nodes: 3,
                duration_s: 100.0,
            },
            SchedJob {
                arrival_s: 1.0,
                nodes: 4,
                duration_s: 10.0,
            },
            SchedJob {
                arrival_s: 2.0,
                nodes: 1,
                duration_s: 50.0,
            },
            SchedJob {
                arrival_s: 3.0,
                nodes: 1,
                duration_s: 200.0,
            },
        ];
        let p = easy_schedule(&jobs, 4);
        assert_eq!(p[0].start_s, 0.0);
        assert_eq!(p[1].start_s, 100.0, "head starts exactly at the shadow");
        assert_eq!(p[2].start_s, 2.0, "short narrow job backfills");
        assert_eq!(
            p[3].start_s, 110.0,
            "long narrow job must not delay the head"
        );
    }

    #[test]
    fn fcfs_order_holds_without_backfill_opportunities() {
        let jobs: Vec<SchedJob> = (0..5)
            .map(|i| SchedJob {
                arrival_s: i as f64,
                nodes: 2,
                duration_s: 10.0,
            })
            .collect();
        let p = easy_schedule(&jobs, 2);
        for i in 1..5 {
            assert_eq!(p[i].start_s, p[i - 1].end_s);
        }
    }

    #[test]
    fn cap_clock_inverts_the_package_power_law() {
        let cluster = resolve_cluster("a").unwrap();
        let cpu = &cluster.node.cpu;
        let full_node =
            cluster.node.sockets as f64 * cpu.package_power(cpu.cores_per_socket, 1.0, 1.0);
        // A 70% budget lands strictly between baseline and full power:
        // the returned clock reproduces the budget through the forward
        // model.
        let budget = 0.7 * full_node;
        let cap = cap_clock_ghz(&cluster, budget).unwrap();
        assert!(cap > 0.0 && cap < cpu.base_clock_ghz);
        let at_cap = cluster.node.sockets as f64
            * package_power_at(cpu, cpu.cores_per_socket, 1.0, 1.0, cap);
        assert!(
            (at_cap - budget).abs() / budget < 1e-9,
            "forward model at cap {at_cap} != budget {budget}"
        );
        // Slack budgets bind nothing; starvation budgets are typed 422s.
        assert_eq!(
            cap_clock_ghz(&cluster, 2.0 * full_node).unwrap(),
            cpu.base_clock_ghz
        );
        let err = cap_clock_ghz(&cluster, 1.0).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, "infeasible_power_cap");
    }

    #[test]
    fn request_codec_is_a_fixed_point() {
        let req = PlanRequest::new()
            .with_cluster("b")
            .with_nodes(8)
            .with_power_cap_w(4000.0)
            .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 8).with_count(10, 30.0))
            .with_job(PlanJob::new("tealeaf", WorkloadClass::Small, 0).with_arrival(100.0))
            .with_variant(PlanVariant::new("uncapped").with_power_cap_w(0.0))
            .with_variant(PlanVariant::new("icelake").with_cluster("a").with_nodes(16));
        let text = req.to_json();
        let back = PlanRequest::from_json(&text).unwrap();
        assert_eq!(back.to_json(), text);
        assert_eq!(back.jobs.len(), 2);
        assert_eq!(back.variants.len(), 2);
        assert_eq!(back.expanded_jobs().unwrap().len(), 11);
    }

    #[test]
    fn malformed_plans_reject_with_typed_errors() {
        let cases: &[(&str, u16)] = &[
            ("{", 400),
            (r#"{"jobs": []}"#, 422),
            (r#"{"cluster":"a"}"#, 400),
            (r#"{"jobs":[{"class":"tiny"}]}"#, 400),
            (r#"{"jobs":[{"benchmark":"lbm","count":0}]}"#, 422),
            (r#"{"jobs":[{"benchmark":"lbm","count":2000000}]}"#, 422),
            (r#"{"jobs":[{"benchmark":"lbm","arrival_s":-1}]}"#, 400),
            (r#"{"jobs":[{"benchmark":"lbm","nranks":3.5}]}"#, 400),
            (r#"{"jobs":[{"benchmark":"lbm","class":"huge"}]}"#, 400),
            (
                r#"{"jobs":[{"benchmark":"lbm"}],"variants":[{"name":"baseline"}]}"#,
                422,
            ),
            (
                r#"{"jobs":[{"benchmark":"lbm"}],"variants":[{"name":"x"},{"name":"x"}]}"#,
                422,
            ),
            // Finite inputs whose expanded arrivals overflow to +inf.
            (
                r#"{"cluster":"a","nodes":4,"jobs":[{"benchmark":"lbm","nranks":72,"arrival_s":1e308,"count":3,"interarrival_s":1e308}]}"#,
                422,
            ),
        ];
        for (text, status) in cases {
            let err = PlanRequest::from_json(text).unwrap_err();
            assert_eq!(err.status, *status, "{text} -> {err}");
            if *status == 422 {
                assert_eq!(err.code, "invalid_plan", "{text} -> {err}");
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_caps_obey_the_dvfs_law() {
        let req = PlanRequest::new()
            .with_nodes(8)
            .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 72).with_count(40, 20.0))
            .with_job(PlanJob::new("sph-exa", WorkloadClass::Tiny, 144).with_count(10, 100.0))
            .with_variant(PlanVariant::new("capped").with_power_cap_w(8.0 * 300.0));
        let a = evaluate_plan(&req, &mut synthetic).unwrap();
        let b = evaluate_plan(&req, &mut synthetic).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "planner must be deterministic");

        let base = &a.scenarios[0];
        let capped = &a.scenarios[1];
        assert_eq!(base.cap_ghz, 2.4);
        assert!(capped.cap_ghz < 2.4);

        // Every capped duration is the base duration stretched by
        // exactly throttle_slowdown at the job's roofline split.
        for (cj, bj) in capped.per_job.iter().zip(&base.per_job) {
            let phi = if cj.nodes == 1 { 0.2 } else { 0.9 }; // lbm 1 node, sph_exa 2
            let want = throttle_slowdown(2.4, capped.cap_ghz, phi);
            let got = (cj.end_s - cj.start_s) / (bj.end_s - bj.start_s);
            assert!((got - want).abs() < 1e-12, "slowdown {got} != {want}");
        }

        // The comparison block names the baseline and rates the variant.
        let text = a.to_json();
        assert!(text.contains("\"comparison\""), "{text}");
        assert!(text.contains("\"baseline\":\"baseline\""));
        assert!(text.contains("\"best_makespan\":\"baseline\""));
    }

    #[test]
    fn memoization_resolves_each_shape_once() {
        let mut calls = 0usize;
        let req = PlanRequest::new()
            .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 72).with_count(100, 10.0))
            .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 144).with_count(100, 10.0));
        let resp = evaluate_plan(&req, &mut |c, b, cl, n, f| {
            calls += 1;
            synthetic(c, b, cl, n, f)
        })
        .unwrap();
        assert_eq!(resp.jobs, 200);
        assert_eq!(calls, 2, "two distinct shapes -> two resolutions");
    }

    #[test]
    fn jobs_wider_than_the_scenario_are_invalid() {
        let req = PlanRequest::new().with_nodes(1).with_job(PlanJob::new(
            "lbm",
            WorkloadClass::Tiny,
            144,
        ));
        let err = evaluate_plan(&req, &mut synthetic).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, "invalid_plan");
    }

    #[test]
    fn text_rendering_summarizes_every_scenario() {
        let req = PlanRequest::new()
            .with_nodes(4)
            .with_job(PlanJob::new("lbm", WorkloadClass::Tiny, 72).with_count(5, 10.0))
            .with_variant(PlanVariant::new("capped").with_power_cap_w(4.0 * 320.0));
        let resp = evaluate_plan(&req, &mut synthetic).unwrap();
        let text = render_plan_text(&resp);
        assert!(text.contains("baseline: ClusterA x 4 node(s), uncapped"));
        assert!(text.contains("capped: ClusterA x 4 node(s), cap"));
        assert!(text.contains("best energy:"));
    }
}
