//! The typed request/response vocabulary of the harness — one API for
//! the CLI, the `spechpc serve` daemon ([`serve`](crate::serve)) and
//! library users.
//!
//! A [`RunRequest`] names one grid point plus its run rules; a
//! [`SuiteRequest`] names a whole suite execution. Both serialize
//! through the in-tree [`json`](crate::json) codec, dispatch against a
//! resident [`Executor`] ([`dispatch_run`] / [`dispatch_suite`]) and
//! come back as a [`RunResponse`] / [`SuiteResponse`] or a typed
//! [`ApiError`] carrying an HTTP status and a machine-readable code.
//!
//! The run-response payload embeds the *cache encoding* of the result
//! ([`cache::encode_entry`]'s `"result"` object), so a request answered
//! from the content-addressed store is byte-identical to the one that
//! simulated — the service inherits the cache's replay guarantee.

use spechpc_kernels::common::config::WorkloadClass;
use spechpc_machine::cluster::ClusterSpec;
use spechpc_machine::presets;
use spechpc_simmpi::engine::SimError;
use spechpc_simmpi::faults::{FaultEvent, FaultPlan, RankSet};

use crate::cache;
use crate::error::HarnessError;
use crate::exec::{Executor, RunSpec};
use crate::json::{fmt_f64, parse_json, quote, Json};
use crate::report::fmt;
use crate::runner::{RunConfig, RunResult};
use crate::suite::{Suite, SuiteReport};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A failed API call: HTTP status, stable machine-readable code, and a
/// human-readable message. This is the *single* error surface clients
/// see — every [`HarnessError`] maps through [`ApiError::from`], and
/// the CLI derives its process exit codes from the same mapping
/// ([`ApiError::exit_code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ApiError {
    /// HTTP status the daemon answers with.
    pub status: u16,
    /// Stable machine-readable code (`snake_case`), independent of the
    /// message wording.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    pub fn new(status: u16, code: impl Into<String>, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code: code.into(),
            message: message.into(),
        }
    }

    /// 400 — the request itself is malformed.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(400, "bad_request", message)
    }

    /// 404 — no such route or resource.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(404, "not_found", message)
    }

    /// 429 — the executor is saturated; retry later.
    pub fn saturated(message: impl Into<String>) -> Self {
        ApiError::new(429, "saturated", message)
    }

    /// 503 — the daemon is draining for shutdown.
    pub fn shutting_down() -> Self {
        ApiError::new(503, "shutting_down", "server is draining for shutdown")
    }

    /// 500 — unexpected internal failure.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError::new(500, "internal", message)
    }

    /// 207 — a suite completed with some failed benchmarks (the
    /// partial-results analog of Multi-Status).
    pub fn partial_suite(message: impl Into<String>) -> Self {
        ApiError::new(207, "partial_suite", message)
    }

    /// 408 — the client did not deliver a complete request within the
    /// daemon's read deadline (the slow-loris reaper's answer).
    pub fn read_timeout(deadline_s: f64) -> Self {
        ApiError::new(
            408,
            "read_timeout",
            format!("request not received within the {deadline_s}s read deadline"),
        )
    }

    /// 431 — the request's header block exceeds the daemon's cap.
    pub fn headers_too_large(limit: usize) -> Self {
        ApiError::new(
            431,
            "headers_too_large",
            format!("request headers exceed {limit} bytes"),
        )
    }

    /// 503 — the daemon is at its concurrent-connection cap
    /// (`--max-conns`); retry once load subsides.
    pub fn connection_limit(max: usize) -> Self {
        ApiError::new(
            503,
            "connection_limit",
            format!("connection limit {max} reached; retry later"),
        )
    }

    /// 502 — an upstream worker answered with bytes the coordinator
    /// could not trust (truncated body, corrupt framing, undecodable
    /// payload). The partial bytes are never relayed.
    pub fn bad_upstream(message: impl Into<String>) -> Self {
        ApiError::new(502, "bad_upstream", message)
    }

    /// The process exit code a CLI invocation derives from this error:
    /// partial suites exit 3 (some benchmarks completed), everything
    /// else exits 1. (Argument-parse errors exit 2 before any `ApiError`
    /// exists.)
    pub fn exit_code(&self) -> i32 {
        if self.code == "partial_suite" {
            3
        } else {
            1
        }
    }

    /// Serialize as the error body the daemon sends.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("error".into(), Json::from(self.code.as_str())),
            ("status".into(), Json::from(self.status as u64)),
            ("message".into(), Json::from(self.message.as_str())),
        ])
        .render()
    }

    /// Decode an error body (the client half of [`ApiError::to_json`]).
    /// The status must be an exact integer in `u16` range — fractional
    /// or out-of-range values reject the body instead of truncating.
    pub fn from_json(text: &str) -> Option<ApiError> {
        let v = parse_json(text)?;
        Some(ApiError {
            status: v.u16_of("status")?,
            code: v.str_of("error")?,
            message: v.str_of("message")?,
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.code, self.status, self.message)
    }
}

impl std::error::Error for ApiError {}

/// The single `HarnessError` → wire-error mapping: simulation failures
/// are the client's fault (422 — the requested program cannot execute),
/// infrastructure failures are the server's (5xx).
impl From<HarnessError> for ApiError {
    fn from(e: HarnessError) -> Self {
        let message = e.to_string();
        match e {
            HarnessError::UnknownBenchmark { .. } => {
                ApiError::new(400, "unknown_benchmark", message)
            }
            HarnessError::Sim(sim) => match sim {
                SimError::RankFailed { .. } => ApiError::new(422, "rank_failed", message),
                SimError::Deadlock(_) => ApiError::new(422, "deadlock", message),
                SimError::CollectiveMismatch { .. }
                | SimError::InvalidProgram { .. }
                | SimError::RankOutOfRange { .. } => ApiError::new(422, "invalid_program", message),
                SimError::Cancelled => ApiError::new(503, "cancelled", message),
            },
            HarnessError::Timeout { .. } => ApiError::new(504, "timeout", message),
            HarnessError::Panic { .. } => ApiError::new(500, "panic", message),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Resolve a cluster name (the CLI's aliases included) to its preset.
pub fn resolve_cluster(name: &str) -> Result<ClusterSpec, ApiError> {
    match name.to_ascii_lowercase().as_str() {
        "a" | "clustera" | "icelake" | "icx" => Ok(presets::cluster_a()),
        "b" | "clusterb" | "sapphirerapids" | "spr" => Ok(presets::cluster_b()),
        other => Err(ApiError::bad_request(format!(
            "unknown cluster '{other}' (use a|b)"
        ))),
    }
}

/// Parse a workload-class name (the CLI's aliases included).
pub fn parse_class(s: &str) -> Result<WorkloadClass, ApiError> {
    match s.to_ascii_lowercase().as_str() {
        "test" => Ok(WorkloadClass::Test),
        "tiny" | "t" => Ok(WorkloadClass::Tiny),
        "small" | "s" => Ok(WorkloadClass::Small),
        "medium" | "m" => Ok(WorkloadClass::Medium),
        "large" | "l" => Ok(WorkloadClass::Large),
        other => Err(ApiError::bad_request(format!(
            "unknown workload class '{other}' (use test|tiny|small|medium|large)"
        ))),
    }
}

/// One simulation request: a grid point plus its run rules.
///
/// Built with [`RunRequest::new`] and the `with_*` builders; serialized
/// with [`RunRequest::to_json`] / [`RunRequest::from_json`]. The same
/// value drives `spechpc run` locally and `POST /v1/run` remotely.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunRequest {
    /// Cluster name or alias (`a`, `b`, `icelake`, `spr`, …).
    pub cluster: String,
    /// Registry name of the benchmark.
    pub benchmark: String,
    pub class: WorkloadClass,
    /// Rank count; `0` resolves to one full node of the cluster.
    pub nranks: usize,
    /// Run rules (repetitions, warm-up, faults, tracing).
    pub config: RunConfig,
}

impl RunRequest {
    pub fn new(benchmark: impl Into<String>, class: WorkloadClass, nranks: usize) -> Self {
        RunRequest {
            cluster: "a".to_string(),
            benchmark: benchmark.into(),
            class,
            nranks,
            config: RunConfig::default(),
        }
    }

    /// Builder: target cluster (name or alias).
    pub fn with_cluster(mut self, cluster: impl Into<String>) -> Self {
        self.cluster = cluster.into();
        self
    }

    /// Builder: replace the whole run configuration.
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: seeded fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.config = self.config.with_faults(faults);
        self
    }

    /// Builder: record the full event timeline.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.config = self.config.with_trace(trace);
        self
    }

    /// Builder: repetitions for min/max/avg statistics.
    pub fn with_repetitions(mut self, reps: usize) -> Self {
        self.config = self.config.with_repetitions(reps);
        self
    }

    /// Builder: engine worker threads (must be ≥ 1; `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config = self.config.with_threads(threads);
        self
    }

    /// The grid point this request names, with `nranks == 0` resolved
    /// against the cluster's full node.
    pub fn spec(&self, cluster: &ClusterSpec) -> RunSpec {
        RunSpec::new(
            self.benchmark.clone(),
            self.class,
            ranks_or_full_node(self.nranks, cluster),
        )
    }

    /// Serialize as the `POST /v1/run` body.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("cluster".into(), Json::from(self.cluster.as_str())),
            ("benchmark".into(), Json::from(self.benchmark.as_str())),
            ("class".into(), Json::from(self.class.to_string())),
            ("nranks".into(), Json::from(self.nranks)),
            ("config".into(), config_to_json(&self.config)),
        ])
        .render()
    }

    /// Decode a `POST /v1/run` body. Unknown benchmarks are caught at
    /// dispatch; malformed shapes are caught here.
    pub fn from_json(text: &str) -> Result<RunRequest, ApiError> {
        let v = parse_json(text)
            .ok_or_else(|| ApiError::bad_request("request body is not valid JSON"))?;
        let benchmark = v
            .str_of("benchmark")
            .ok_or_else(|| ApiError::bad_request("missing field 'benchmark'"))?;
        let class = parse_class(&v.str_of("class").unwrap_or_else(|| "tiny".to_string()))?;
        let nranks = v.usize_of("nranks").unwrap_or(0);
        let cluster = v.str_of("cluster").unwrap_or_else(|| "a".to_string());
        let config = match v.get("config") {
            Some(c) => config_from_json(c)?,
            None => RunConfig::default(),
        };
        Ok(RunRequest {
            cluster,
            benchmark,
            class,
            nranks,
            config,
        })
    }
}

/// One suite request: a workload class over all nine benchmarks.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SuiteRequest {
    /// Cluster name or alias.
    pub cluster: String,
    pub class: WorkloadClass,
    /// Rank count; `0` resolves to one full node of the cluster.
    pub nranks: usize,
    pub config: RunConfig,
}

impl SuiteRequest {
    pub fn new(class: WorkloadClass) -> Self {
        SuiteRequest {
            cluster: "a".to_string(),
            class,
            nranks: 0,
            config: RunConfig::default(),
        }
    }

    /// Builder: target cluster (name or alias).
    pub fn with_cluster(mut self, cluster: impl Into<String>) -> Self {
        self.cluster = cluster.into();
        self
    }

    /// Builder: explicit rank count (default: one full node).
    pub fn with_nranks(mut self, nranks: usize) -> Self {
        self.nranks = nranks;
        self
    }

    /// Builder: replace the whole run configuration.
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: seeded fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.config = self.config.with_faults(faults);
        self
    }

    /// The suite this request names, with `nranks == 0` resolved against
    /// the cluster's full node — the one point list a daemon runs and a
    /// fleet coordinator shards.
    pub fn suite(&self, cluster: &ClusterSpec) -> Suite {
        Suite {
            class: self.class,
            nranks: ranks_or_full_node(self.nranks, cluster),
        }
    }

    /// Serialize as the `POST /v1/suite` body.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("cluster".into(), Json::from(self.cluster.as_str())),
            ("class".into(), Json::from(self.class.to_string())),
            ("nranks".into(), Json::from(self.nranks)),
            ("config".into(), config_to_json(&self.config)),
        ])
        .render()
    }

    /// Decode a `POST /v1/suite` body.
    pub fn from_json(text: &str) -> Result<SuiteRequest, ApiError> {
        let v = parse_json(text)
            .ok_or_else(|| ApiError::bad_request("request body is not valid JSON"))?;
        let class = parse_class(&v.str_of("class").unwrap_or_else(|| "tiny".to_string()))?;
        let cluster = v.str_of("cluster").unwrap_or_else(|| "a".to_string());
        let nranks = v.usize_of("nranks").unwrap_or(0);
        let config = match v.get("config") {
            Some(c) => config_from_json(c)?,
            None => RunConfig::default(),
        };
        Ok(SuiteRequest {
            cluster,
            class,
            nranks,
            config,
        })
    }
}

// ---------------------------------------------------------------------------
// Run-config / fault-plan codec
// ---------------------------------------------------------------------------

/// Encode run rules as the `"config"` object of a request. Only the
/// non-default fault plan and thread count are emitted, keeping default
/// requests small (and their cache keys stable across client versions).
pub(crate) fn config_to_json(c: &RunConfig) -> Json {
    let mut fields = vec![
        ("warmup_steps".into(), Json::from(c.warmup_steps)),
        ("measured_steps".into(), Json::from(c.measured_steps)),
        ("repetitions".into(), Json::from(c.repetitions)),
        ("trace".into(), Json::from(c.trace)),
    ];
    if c.threads != 1 {
        fields.push(("threads".into(), Json::from(c.threads)));
    }
    if !c.faults.is_none() {
        fields.push(("faults".into(), fault_plan_to_json(&c.faults)));
    }
    Json::Obj(fields)
}

/// Decode the `"config"` object; absent fields keep their defaults.
pub(crate) fn config_from_json(v: &Json) -> Result<RunConfig, ApiError> {
    let d = RunConfig::default();
    let mut c = RunConfig::default()
        .with_warmup_steps(v.usize_of("warmup_steps").unwrap_or(d.warmup_steps))
        .with_measured_steps(v.usize_of("measured_steps").unwrap_or(d.measured_steps))
        .with_repetitions(v.usize_of("repetitions").unwrap_or(d.repetitions))
        .with_trace(v.bool_of("trace").unwrap_or(d.trace));
    if let Some(threads) = v.usize_of("threads") {
        if threads == 0 {
            return Err(ApiError::new(
                422,
                "invalid_threads",
                "'threads' must be >= 1 (1 = sequential engine)",
            ));
        }
        c = c.with_threads(threads);
    }
    if let Some(f) = v.get("faults") {
        c = c.with_faults(fault_plan_from_json(f)?);
    }
    Ok(c)
}

fn rank_set_to_json(rs: &RankSet) -> Json {
    match rs {
        RankSet::All => Json::from("all"),
        RankSet::One(r) => Json::Arr(vec![Json::from(*r)]),
        RankSet::List(rs) => Json::Arr(rs.iter().map(|&r| Json::from(r)).collect()),
    }
}

fn rank_set_from_json(v: &Json) -> Result<RankSet, ApiError> {
    match v {
        Json::Str(s) if s == "all" => Ok(RankSet::All),
        Json::Arr(items) => {
            let ranks: Option<Vec<usize>> =
                items.iter().map(|i| i.num().map(|x| x as usize)).collect();
            let ranks = ranks.ok_or_else(|| ApiError::bad_request("rank set must be numeric"))?;
            Ok(match ranks.as_slice() {
                [one] => RankSet::One(*one),
                _ => RankSet::List(ranks),
            })
        }
        _ => Err(ApiError::bad_request(
            "rank set must be \"all\" or an array",
        )),
    }
}

/// Encode a fault plan as the wire JSON of the `"faults"` field.
pub fn fault_plan_to_json(plan: &FaultPlan) -> Json {
    let events = plan
        .events
        .iter()
        .map(|e| match e {
            FaultEvent::OsNoise { ranks, amplitude } => Json::Obj(vec![
                ("kind".into(), Json::from("os_noise")),
                ("ranks".into(), rank_set_to_json(ranks)),
                ("amplitude".into(), Json::from(*amplitude)),
            ]),
            FaultEvent::Straggler { rank, slowdown } => Json::Obj(vec![
                ("kind".into(), Json::from("straggler")),
                ("rank".into(), Json::from(*rank)),
                ("slowdown".into(), Json::from(*slowdown)),
            ]),
            FaultEvent::FlakyLink {
                from,
                to,
                drop_prob,
                retransmit_latency_s,
            } => Json::Obj(vec![
                ("kind".into(), Json::from("flaky_link")),
                ("from".into(), Json::from(*from)),
                ("to".into(), Json::from(*to)),
                ("drop_prob".into(), Json::from(*drop_prob)),
                (
                    "retransmit_latency_s".into(),
                    Json::from(*retransmit_latency_s),
                ),
            ]),
            FaultEvent::Throttle {
                ranks,
                t_start_s,
                t_end_s,
                slowdown,
            } => Json::Obj(vec![
                ("kind".into(), Json::from("throttle")),
                ("ranks".into(), rank_set_to_json(ranks)),
                ("t_start_s".into(), Json::from(*t_start_s)),
                ("t_end_s".into(), Json::from(*t_end_s)),
                ("slowdown".into(), Json::from(*slowdown)),
            ]),
            FaultEvent::Crash { rank, at_s } => Json::Obj(vec![
                ("kind".into(), Json::from("crash")),
                ("rank".into(), Json::from(*rank)),
                ("at_s".into(), Json::from(*at_s)),
            ]),
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), Json::from(plan.seed)),
        ("events".into(), Json::Arr(events)),
    ])
}

/// Decode the `"faults"` wire JSON back into a plan.
pub fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, ApiError> {
    let seed = v.f64_of("seed").unwrap_or(0.0) as u64;
    let events = v
        .get("events")
        .and_then(Json::arr)
        .ok_or_else(|| ApiError::bad_request("fault plan needs an 'events' array"))?;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let kind = e
            .str_of("kind")
            .ok_or_else(|| ApiError::bad_request("fault event needs a 'kind'"))?;
        let need = |key: &str| -> Result<f64, ApiError> {
            e.f64_of(key)
                .ok_or_else(|| ApiError::bad_request(format!("{kind} event needs '{key}'")))
        };
        out.push(match kind.as_str() {
            "os_noise" => FaultEvent::OsNoise {
                ranks: rank_set_from_json(
                    e.get("ranks")
                        .ok_or_else(|| ApiError::bad_request("os_noise event needs 'ranks'"))?,
                )?,
                amplitude: need("amplitude")?,
            },
            "straggler" => FaultEvent::Straggler {
                rank: need("rank")? as usize,
                slowdown: need("slowdown")?,
            },
            "flaky_link" => FaultEvent::FlakyLink {
                from: need("from")? as usize,
                to: need("to")? as usize,
                drop_prob: need("drop_prob")?,
                retransmit_latency_s: need("retransmit_latency_s")?,
            },
            "throttle" => FaultEvent::Throttle {
                ranks: rank_set_from_json(
                    e.get("ranks")
                        .ok_or_else(|| ApiError::bad_request("throttle event needs 'ranks'"))?,
                )?,
                t_start_s: need("t_start_s")?,
                t_end_s: need("t_end_s")?,
                slowdown: need("slowdown")?,
            },
            "crash" => FaultEvent::Crash {
                rank: need("rank")? as usize,
                at_s: need("at_s")?,
            },
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown fault event kind '{other}'"
                )))
            }
        });
    }
    Ok(FaultPlan { seed, events: out })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A completed run. The JSON body embeds the cache encoding of the
/// result, so identical requests serve byte-identical payloads whether
/// simulated or replayed.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunResponse {
    pub result: RunResult,
}

impl RunResponse {
    /// Serialize as the `POST /v1/run` success body. Deterministic: no
    /// timestamps, no cache-hit flags — the same request always yields
    /// the same bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"result\": ");
        // The indented cache encoding nests at entry depth; reuse it
        // verbatim so cached replays cannot drift from fresh runs.
        s.push_str(&cache::encode_result(&self.result));
        s.push_str("\n}\n");
        s
    }

    /// Decode a success body (the client half of
    /// [`RunResponse::to_json`]).
    pub fn from_json(text: &str) -> Option<RunResponse> {
        let v = parse_json(text)?;
        Some(RunResponse {
            result: cache::decode_result(v.get("result")?)?,
        })
    }
}

/// A completed suite execution (possibly partial — failed benchmarks
/// are reported, not fatal).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SuiteResponse {
    pub report: SuiteReport,
}

impl SuiteResponse {
    /// The partial-completion error this suite maps to, if any — the
    /// daemon sends it as the response status, the CLI exits with
    /// [`ApiError::exit_code`] (3).
    pub fn partial_error(&self) -> Option<ApiError> {
        if self.report.is_complete() {
            None
        } else {
            Some(ApiError::partial_suite(format!(
                "{} of {} benchmarks failed",
                self.report.failures.len(),
                self.report.failures.len() + self.report.results.len()
            )))
        }
    }

    /// Serialize as the `POST /v1/suite` body (status 200 when
    /// complete, 207 when partial).
    pub fn to_json(&self) -> String {
        let results: Vec<String> = self
            .report
            .results
            .iter()
            .map(cache::encode_result)
            .collect();
        let failures: Vec<(String, String, String)> = self
            .report
            .failures
            .iter()
            .map(|f| {
                let e = ApiError::from(f.error.clone());
                (f.label.clone(), e.code, e.message)
            })
            .collect();
        suite_body(&self.report.cluster, self.report.class, &results, &failures)
    }
}

/// The `POST /v1/suite` body from cache-encoded results and
/// `(label, code, message)` failures, both in grid order. A daemon's
/// [`SuiteResponse`] and a fleet coordinator's reassembled shards are
/// written here, so the two answer the same bytes.
pub(crate) fn suite_body(
    cluster: &str,
    class: WorkloadClass,
    results: &[impl AsRef<str>],
    failures: &[(String, String, String)],
) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"cluster\": {},\n", quote(cluster)));
    s.push_str(&format!("  \"class\": {},\n", quote(&class.to_string())));
    s.push_str(&format!("  \"complete\": {},\n", failures.is_empty()));
    s.push_str("  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(r.as_ref());
    }
    s.push_str("],\n  \"failures\": [");
    for (i, (label, code, message)) in failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(&format!(
            "    {{ \"label\": {}, \"error\": {}, \"message\": {} }}",
            quote(label),
            quote(code),
            quote(message)
        ));
    }
    s.push_str("]\n}\n");
    s
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Execute one run request against a resident executor. The request's
/// run rules fork the executor ([`Executor::with_run_config`]), so
/// arbitrary per-request configurations still share one cache and one
/// metrics ledger.
pub fn dispatch_run(exec: &Executor, req: &RunRequest) -> Result<RunResponse, ApiError> {
    let cluster = resolve_cluster(&req.cluster)?;
    let spec = req.spec(&cluster);
    let forked = exec.with_run_config(req.config.clone());
    let result = forked.run_one(&cluster, &spec)?;
    Ok(RunResponse { result })
}

/// Execute one suite request against a resident executor.
pub fn dispatch_suite(exec: &Executor, req: &SuiteRequest) -> Result<SuiteResponse, ApiError> {
    let cluster = resolve_cluster(&req.cluster)?;
    let forked = exec.with_run_config(req.config.clone());
    let report = req.suite(&cluster).run_with(&forked, &cluster);
    Ok(SuiteResponse { report })
}

/// `nranks`, with `0` meaning one full node of `cluster`.
fn ranks_or_full_node(nranks: usize, cluster: &ClusterSpec) -> usize {
    if nranks == 0 {
        cluster.node.cores()
    } else {
        nranks
    }
}

// ---------------------------------------------------------------------------
// Endpoint registry
// ---------------------------------------------------------------------------

/// Version of the wire schema advertised by `GET /v1/capabilities`.
/// Bumped whenever a request/response body changes shape incompatibly;
/// clients feature-detect against it instead of sniffing bodies.
pub const API_SCHEMA_VERSION: u64 = 1;

/// Stable identity of one endpoint. `serve` and the fleet coordinator
/// look a request up in [`ENDPOINTS`] and dispatch on this id — the
/// path/method literals live in exactly one place (the route table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointId {
    Run,
    Suite,
    Plan,
    Profile,
    CacheEntry,
    Health,
    Metrics,
    Capabilities,
    Shutdown,
}

impl EndpointId {
    /// The registry row for this endpoint.
    pub fn endpoint(self) -> &'static Endpoint {
        ENDPOINTS
            .iter()
            .find(|e| e.id == self)
            .expect("every EndpointId has a registry row")
    }

    /// The concrete request path (exact routes) or path prefix (routes
    /// with a trailing segment) — what a client *sends*, so forwarding
    /// code builds upstream requests from the table too.
    pub fn path(self) -> &'static str {
        self.endpoint().pattern.prefix_str()
    }
}

/// How an endpoint's path is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPattern {
    /// The path must equal this string.
    Exact(&'static str),
    /// The path must extend this prefix with a non-empty trailing
    /// segment (e.g. a benchmark name or cache hash).
    Prefix(&'static str),
}

impl PathPattern {
    /// Does `path` match this pattern?
    pub fn matches(&self, path: &str) -> bool {
        match self {
            PathPattern::Exact(p) => path == *p,
            PathPattern::Prefix(p) => path.len() > p.len() && path.starts_with(p),
        }
    }

    /// The trailing segment of a matched prefix path (`""` for exact
    /// patterns).
    pub fn trailing<'a>(&self, path: &'a str) -> &'a str {
        match self {
            PathPattern::Exact(_) => "",
            PathPattern::Prefix(p) => path.strip_prefix(p).unwrap_or(""),
        }
    }

    fn prefix_str(&self) -> &'static str {
        match self {
            PathPattern::Exact(p) | PathPattern::Prefix(p) => p,
        }
    }
}

/// How the single-daemon event loop executes an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeClass {
    /// Answered inline on the event-loop thread; exempt from admission
    /// control so health/metrics stay responsive under load.
    Fast,
    /// Dispatched to the simulation worker pool under admission control
    /// (may run the engine for seconds).
    Sim,
}

impl ServeClass {
    /// Table label for docs/capabilities.
    pub fn label(self) -> &'static str {
        match self {
            ServeClass::Fast => "fast",
            ServeClass::Sim => "sim",
        }
    }
}

/// How the fleet coordinator treats an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetClass {
    /// Answered by the coordinator itself (even while draining).
    Local,
    /// Forwarded to the worker owning the request's content hash.
    Forward,
    /// Sharded across all live workers and reassembled.
    FanOut,
    /// Not routable through the coordinator (worker-local resource).
    Unrouted,
}

impl FleetClass {
    /// Table label for docs/capabilities.
    pub fn label(self) -> &'static str {
        match self {
            FleetClass::Local => "local",
            FleetClass::Forward => "forward",
            FleetClass::FanOut => "fan-out",
            FleetClass::Unrouted => "unrouted",
        }
    }
}

/// One row of the route table: everything `serve`, the fleet
/// coordinator, `/v1/capabilities` and the generated API reference need
/// to know about an endpoint.
#[derive(Debug)]
#[non_exhaustive]
pub struct Endpoint {
    pub id: EndpointId,
    /// HTTP method.
    pub method: &'static str,
    /// Path matcher.
    pub pattern: PathPattern,
    /// Wire path with `{placeholder}` segments, for display only.
    pub display_path: &'static str,
    /// Execution class on a single daemon.
    pub serve: ServeClass,
    /// Routing class on the fleet coordinator.
    pub fleet: FleetClass,
    /// Request body type (`"-"` when the endpoint takes none).
    pub request: &'static str,
    /// Response body type.
    pub response: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The route table — the single source of truth for the service
/// surface. Order is the display order of `/v1/capabilities` and the
/// generated SERVICE.md reference.
pub const ENDPOINTS: &[Endpoint] = &[
    Endpoint {
        id: EndpointId::Run,
        method: "POST",
        pattern: PathPattern::Exact("/v1/run"),
        display_path: "/v1/run",
        serve: ServeClass::Sim,
        fleet: FleetClass::Forward,
        request: "RunRequest",
        response: "RunResponse",
        summary: "Simulate one benchmark run (cached, byte-replayable)",
    },
    Endpoint {
        id: EndpointId::Suite,
        method: "POST",
        pattern: PathPattern::Exact("/v1/suite"),
        display_path: "/v1/suite",
        serve: ServeClass::Sim,
        fleet: FleetClass::FanOut,
        request: "SuiteRequest",
        response: "SuiteResponse",
        summary: "Run every benchmark at one workload class",
    },
    Endpoint {
        id: EndpointId::Plan,
        method: "POST",
        pattern: PathPattern::Exact("/v1/plan"),
        display_path: "/v1/plan",
        serve: ServeClass::Sim,
        fleet: FleetClass::Forward,
        request: "PlanRequest",
        response: "PlanResponse",
        summary: "Capacity-plan a job queue on a modeled cluster",
    },
    Endpoint {
        id: EndpointId::Profile,
        method: "GET",
        pattern: PathPattern::Prefix("/v1/profile/"),
        display_path: "/v1/profile/{benchmark}",
        serve: ServeClass::Sim,
        fleet: FleetClass::Unrouted,
        request: "-",
        response: "ProfileTables",
        summary: "Traced run: MPI phase, message-size and pair tables",
    },
    Endpoint {
        id: EndpointId::CacheEntry,
        method: "GET",
        pattern: PathPattern::Prefix("/v1/cache/"),
        display_path: "/v1/cache/{hash}",
        serve: ServeClass::Fast,
        fleet: FleetClass::Unrouted,
        request: "-",
        response: "CacheEntry",
        summary: "Fetch one cache entry by key hash (peer warm-start)",
    },
    Endpoint {
        id: EndpointId::Health,
        method: "GET",
        pattern: PathPattern::Exact("/v1/health"),
        display_path: "/v1/health",
        serve: ServeClass::Fast,
        fleet: FleetClass::Local,
        request: "-",
        response: "Health",
        summary: "Liveness, inflight load and drain state",
    },
    Endpoint {
        id: EndpointId::Metrics,
        method: "GET",
        pattern: PathPattern::Exact("/v1/metrics"),
        display_path: "/v1/metrics",
        serve: ServeClass::Fast,
        fleet: FleetClass::Local,
        request: "-",
        response: "Metrics",
        summary: "Run, cache and worker counters",
    },
    Endpoint {
        id: EndpointId::Capabilities,
        method: "GET",
        pattern: PathPattern::Exact("/v1/capabilities"),
        display_path: "/v1/capabilities",
        serve: ServeClass::Fast,
        fleet: FleetClass::Local,
        request: "-",
        response: "Capabilities",
        summary: "Route table + schema version (feature detection)",
    },
    Endpoint {
        id: EndpointId::Shutdown,
        method: "POST",
        pattern: PathPattern::Exact("/v1/shutdown"),
        display_path: "/v1/shutdown",
        serve: ServeClass::Fast,
        fleet: FleetClass::Local,
        request: "-",
        response: "DrainAck",
        summary: "Begin graceful drain",
    },
];

/// Look a request up in the route table. First match wins (patterns are
/// disjoint; a test enforces it).
pub fn endpoint_for(method: &str, path: &str) -> Option<&'static Endpoint> {
    ENDPOINTS
        .iter()
        .find(|e| e.method == method && e.pattern.matches(path))
}

/// The typed 404 every unmatched `(method, path)` maps to — worded in
/// one place so serve and fleet answer identically.
pub fn no_route(method: &str, path: &str) -> ApiError {
    ApiError::not_found(format!("no route for {method} {path}"))
}

/// The `GET /v1/capabilities` body: schema version plus one row per
/// registry endpoint, rendered deterministically in table order.
pub fn capabilities_json() -> String {
    let endpoints = ENDPOINTS
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("method".into(), Json::from(e.method)),
                ("path".into(), Json::from(e.display_path)),
                ("request".into(), Json::from(e.request)),
                ("response".into(), Json::from(e.response)),
                ("serve".into(), Json::from(e.serve.label())),
                ("fleet".into(), Json::from(e.fleet.label())),
                ("summary".into(), Json::from(e.summary)),
            ])
        })
        .collect();
    let mut body = Json::Obj(vec![
        ("schema".into(), Json::from(API_SCHEMA_VERSION)),
        ("endpoints".into(), Json::Arr(endpoints)),
    ])
    .render();
    body.push('\n');
    body
}

/// The SERVICE.md API-reference section, generated from the route table
/// (a repo test keeps the committed copy in sync with this output).
pub fn reference_markdown() -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Schema version {API_SCHEMA_VERSION}. Generated from the route table \
         (`harness::api::ENDPOINTS`) — edit the table, not this block.\n\n"
    ));
    s.push_str("| Method | Path | Request | Response | Serve | Fleet | Summary |\n");
    s.push_str("|--------|------|---------|----------|-------|-------|---------|\n");
    for e in ENDPOINTS {
        s.push_str(&format!(
            "| {} | `{}` | {} | {} | {} | {} | {} |\n",
            e.method,
            e.display_path,
            e.request,
            e.response,
            e.serve.label(),
            e.fleet.label(),
            e.summary
        ));
    }
    s
}

// ---------------------------------------------------------------------------
// Rendering (the CLI's human-readable view of a response)
// ---------------------------------------------------------------------------

/// The `spechpc run` summary block for one result — shared by the CLI
/// so the service dispatch path and the local path print identically.
pub fn render_run_text(r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} ({}) on {}: {} ranks over {} node(s)\n",
        r.benchmark, r.class, r.cluster, r.nranks, r.nodes_used
    ));
    out.push_str(&format!(
        "  runtime        {} s  (step {} s, min {} / max {})\n",
        fmt(r.runtime_s),
        fmt_f64(r.step_seconds),
        fmt_f64(r.step_seconds_min),
        fmt_f64(r.step_seconds_max),
    ));
    out.push_str(&format!(
        "  performance    {} Gflop/s ({} AVX)\n",
        fmt(r.counters.dp_gflops()),
        fmt(r.counters.dp_avx_gflops())
    ));
    out.push_str(&format!(
        "  memory BW      {} GB/s\n",
        fmt(r.counters.mem_bandwidth())
    ));
    out.push_str(&format!(
        "  MPI share      {}\n",
        crate::report::pct(r.breakdown.mpi_fraction() * 100.0)
    ));
    out.push_str(&format!(
        "  power          {} W package + {} W DRAM\n",
        fmt(r.power.package_w),
        fmt(r.power.dram_w)
    ));
    out.push_str(&format!(
        "  energy         {} kJ\n",
        fmt(r.energy.total_j() / 1e3)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;

    fn quick() -> RunConfig {
        RunConfig::default().with_repetitions(1)
    }

    #[test]
    fn run_request_round_trips_through_json() {
        let req = RunRequest::new("lbm", WorkloadClass::Tiny, 8)
            .with_cluster("b")
            .with_repetitions(2)
            .with_faults(FaultPlan {
                seed: 7,
                events: vec![
                    FaultEvent::Straggler {
                        rank: 3,
                        slowdown: 1.5,
                    },
                    FaultEvent::OsNoise {
                        ranks: RankSet::All,
                        amplitude: 0.05,
                    },
                    FaultEvent::Throttle {
                        ranks: RankSet::List(vec![1, 2]),
                        t_start_s: 0.5,
                        t_end_s: 1.0,
                        slowdown: 2.0,
                    },
                ],
            });
        let text = req.to_json();
        let back = RunRequest::from_json(&text).unwrap();
        assert_eq!(back.benchmark, "lbm");
        assert_eq!(back.cluster, "b");
        assert_eq!(back.class, WorkloadClass::Tiny);
        assert_eq!(back.nranks, 8);
        assert_eq!(back.config.repetitions, 2);
        assert_eq!(
            back.config.faults.canonical(),
            req.config.faults.canonical()
        );
        // Serialization is a fixed point.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn default_config_omits_the_fault_plan() {
        let text = RunRequest::new("lbm", WorkloadClass::Tiny, 4).to_json();
        assert!(!text.contains("faults"), "{text}");
        let req = RunRequest::from_json(&text).unwrap();
        assert!(req.config.faults.is_none());
    }

    #[test]
    fn threads_round_trip_and_default_omission() {
        // Sequential default: the field never hits the wire.
        let text = RunRequest::new("lbm", WorkloadClass::Tiny, 4).to_json();
        assert!(!text.contains("threads"), "{text}");
        assert_eq!(RunRequest::from_json(&text).unwrap().config.threads, 1);
        // A parallel request round-trips through a fixed point.
        let req = RunRequest::new("lbm", WorkloadClass::Tiny, 4).with_threads(4);
        let text = req.to_json();
        assert!(text.contains("\"threads\":4"), "{text}");
        let back = RunRequest::from_json(&text).unwrap();
        assert_eq!(back.config.threads, 4);
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn zero_threads_is_a_typed_422() {
        let err =
            RunRequest::from_json(r#"{"benchmark": "lbm", "config": {"threads": 0}}"#).unwrap_err();
        assert_eq!(err.status, 422, "{err}");
        assert_eq!(err.code, "invalid_threads");
    }

    #[test]
    fn malformed_requests_are_bad_request_errors() {
        for body in [
            "not json",
            "{}",
            r#"{"benchmark": "lbm", "class": "epic"}"#,
            r#"{"benchmark": "lbm", "config": {"faults": {"seed": 1}}}"#,
            r#"{"benchmark": "lbm", "config": {"faults": {"events": [{"kind": "warp"}]}}}"#,
        ] {
            let err = RunRequest::from_json(body).unwrap_err();
            assert_eq!(err.status, 400, "{body} → {err}");
        }
    }

    #[test]
    fn error_mapping_covers_every_harness_variant() {
        let cases: Vec<(HarnessError, u16, &str)> = vec![
            (
                HarnessError::UnknownBenchmark { name: "hpl".into() },
                400,
                "unknown_benchmark",
            ),
            (
                HarnessError::Sim(SimError::RankFailed {
                    rank: 2,
                    op_index: 0,
                    at_s: 0.0,
                }),
                422,
                "rank_failed",
            ),
            (
                HarnessError::Sim(SimError::Deadlock(vec![])),
                422,
                "deadlock",
            ),
            (
                HarnessError::Sim(SimError::InvalidProgram {
                    rank: 0,
                    reason: "x".into(),
                }),
                422,
                "invalid_program",
            ),
            (HarnessError::Sim(SimError::Cancelled), 503, "cancelled"),
            (
                HarnessError::Timeout {
                    label: "x".into(),
                    limit_s: 1.0,
                },
                504,
                "timeout",
            ),
            (
                HarnessError::Panic {
                    label: "x".into(),
                    message: "boom".into(),
                },
                500,
                "panic",
            ),
        ];
        for (err, status, code) in cases {
            let api = ApiError::from(err);
            assert_eq!(api.status, status, "{api}");
            assert_eq!(api.code, code);
            assert_eq!(api.exit_code(), 1);
            // Wire round trip.
            let back = ApiError::from_json(&api.to_json()).unwrap();
            assert_eq!(back, api);
        }
        assert_eq!(ApiError::partial_suite("x").exit_code(), 3);
    }

    #[test]
    fn dispatch_run_serves_results_and_byte_identical_replays() {
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let req = RunRequest::new("lbm", WorkloadClass::Tiny, 4);
        let fresh = dispatch_run(&exec, &req).unwrap();
        assert_eq!(fresh.result.benchmark, "lbm");
        let replay = dispatch_run(&exec, &req).unwrap();
        assert_eq!(
            fresh.to_json(),
            replay.to_json(),
            "cached replay must serve identical bytes"
        );
        // The response decodes back to the same physics.
        let decoded = RunResponse::from_json(&fresh.to_json()).unwrap();
        assert_eq!(
            decoded.result.step_seconds.to_bits(),
            fresh.result.step_seconds.to_bits()
        );
        // Both requests hit one shared metrics ledger: one simulation,
        // one memory hit.
        let m = exec.metrics();
        assert_eq!(m.runs_executed, 1);
        assert_eq!(m.cache.hits_mem, 1);
    }

    #[test]
    fn dispatch_run_maps_unknown_benchmarks_to_400() {
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let err = dispatch_run(&exec, &RunRequest::new("hpl", WorkloadClass::Tiny, 4)).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "unknown_benchmark");
        let err = dispatch_run(
            &exec,
            &RunRequest::new("lbm", WorkloadClass::Tiny, 4).with_cluster("c"),
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn dispatch_suite_reports_partial_completion_as_exit_3() {
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(2));
        let req = SuiteRequest::new(WorkloadClass::Tiny).with_faults(FaultPlan {
            seed: 11,
            events: vec![FaultEvent::Crash {
                rank: 30,
                at_s: 0.0,
            }],
        });
        let resp = dispatch_suite(&exec, &req).unwrap();
        let partial = resp.partial_error().expect("rank 30 crashes something");
        assert_eq!(partial.status, 207);
        assert_eq!(partial.exit_code(), 3);
        let text = resp.to_json();
        assert!(text.contains("\"complete\": false"));
        assert!(text.contains("rank_failed"), "{text}");

        // A clean suite is complete and exit-0 shaped.
        let clean = dispatch_suite(&exec, &SuiteRequest::new(WorkloadClass::Tiny)).unwrap();
        assert!(clean.partial_error().is_none());
        assert!(clean.to_json().contains("\"complete\": true"));
    }

    #[test]
    fn run_text_rendering_is_stable() {
        let exec = Executor::new(quick(), ExecConfig::default().with_jobs(1));
        let resp = dispatch_run(&exec, &RunRequest::new("lbm", WorkloadClass::Tiny, 4)).unwrap();
        let text = render_run_text(&resp.result);
        assert!(text.contains("lbm (tiny) on ClusterA: 4 ranks"));
        assert!(text.contains("runtime"));
        assert!(text.contains("energy"));
    }

    #[test]
    fn nranks_zero_resolves_to_a_full_node() {
        let cluster = resolve_cluster("a").unwrap();
        let spec = RunRequest::new("lbm", WorkloadClass::Tiny, 0).spec(&cluster);
        assert_eq!(spec.nranks, cluster.node.cores());
    }

    #[test]
    fn error_status_round_trip_rejects_instead_of_truncating() {
        // Valid bodies round-trip exactly.
        let e = ApiError::new(422, "invalid_program", "boom");
        assert_eq!(ApiError::from_json(&e.to_json()), Some(e));
        // Fractional and out-of-range statuses are rejected, not
        // truncated to a bogus but plausible status.
        for bad in [
            r#"{"error":"x","status":404.5,"message":"m"}"#,
            r#"{"error":"x","status":70000,"message":"m"}"#,
            r#"{"error":"x","status":-1,"message":"m"}"#,
            r#"{"error":"x","status":"500","message":"m"}"#,
        ] {
            assert_eq!(ApiError::from_json(bad), None, "{bad}");
        }
    }

    #[test]
    fn registry_rows_are_unique_and_disjoint() {
        for (i, a) in ENDPOINTS.iter().enumerate() {
            // Ids are unique and EndpointId::endpoint is its inverse.
            assert_eq!(a.id.endpoint().display_path, a.display_path);
            for b in &ENDPOINTS[i + 1..] {
                assert_ne!(a.id, b.id);
                if a.method == b.method {
                    // No concrete path may match two patterns: probe each
                    // row's own prefix/exact path against the other.
                    let probe = format!("{}x", a.pattern.prefix_str());
                    assert!(
                        !(a.pattern.matches(&probe) && b.pattern.matches(&probe)),
                        "{} and {} overlap on {probe}",
                        a.display_path,
                        b.display_path
                    );
                }
            }
        }
    }

    #[test]
    fn endpoint_lookup_matches_method_and_pattern() {
        assert_eq!(endpoint_for("POST", "/v1/run").unwrap().id, EndpointId::Run);
        assert_eq!(
            endpoint_for("POST", "/v1/plan").unwrap().id,
            EndpointId::Plan
        );
        assert_eq!(
            endpoint_for("GET", "/v1/capabilities").unwrap().id,
            EndpointId::Capabilities
        );
        let prof = endpoint_for("GET", "/v1/profile/lbm").unwrap();
        assert_eq!(prof.id, EndpointId::Profile);
        assert_eq!(prof.pattern.trailing("/v1/profile/lbm"), "lbm");
        // A bare prefix (no trailing segment) does not match.
        assert!(endpoint_for("GET", "/v1/profile/").is_none());
        // Wrong method, unknown path, wrong version: no route.
        assert!(endpoint_for("GET", "/v1/run").is_none());
        assert!(endpoint_for("POST", "/v1/health").is_none());
        assert!(endpoint_for("POST", "/v2/run").is_none());
        assert_eq!(no_route("POST", "/v2/run").status, 404);
    }

    #[test]
    fn capabilities_lists_every_route_deterministically() {
        let body = capabilities_json();
        assert_eq!(body, capabilities_json());
        let v = parse_json(&body).unwrap();
        assert_eq!(v.u64_of("schema"), Some(API_SCHEMA_VERSION));
        let rows = v.get("endpoints").unwrap().arr().unwrap();
        assert_eq!(rows.len(), ENDPOINTS.len());
        for (row, e) in rows.iter().zip(ENDPOINTS) {
            assert_eq!(row.str_of("path").as_deref(), Some(e.display_path));
            assert_eq!(row.str_of("method").as_deref(), Some(e.method));
        }
    }

    #[test]
    fn reference_markdown_covers_the_table() {
        let md = reference_markdown();
        for e in ENDPOINTS {
            assert!(md.contains(e.display_path), "{} missing", e.display_path);
        }
        assert!(md.contains(&format!("Schema version {API_SCHEMA_VERSION}")));
    }
}
