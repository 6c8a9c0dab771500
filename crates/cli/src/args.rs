//! Hand-rolled argument parsing for the `spechpc` binary (no external
//! CLI dependency).

use spechpc::prelude::WorkloadClass;

/// Which cluster preset to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterChoice {
    A,
    B,
}

impl ClusterChoice {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "a" | "clustera" | "icelake" | "icx" => Ok(ClusterChoice::A),
            "b" | "clusterb" | "sapphirerapids" | "spr" => Ok(ClusterChoice::B),
            other => Err(format!("unknown cluster '{other}' (use a|b)")),
        }
    }
}

pub fn parse_class(s: &str) -> Result<WorkloadClass, String> {
    match s.to_ascii_lowercase().as_str() {
        "test" => Ok(WorkloadClass::Test),
        "tiny" | "t" => Ok(WorkloadClass::Tiny),
        "small" | "s" => Ok(WorkloadClass::Small),
        "medium" | "m" => Ok(WorkloadClass::Medium),
        "large" | "l" => Ok(WorkloadClass::Large),
        other => Err(format!(
            "unknown workload class '{other}' (use test|tiny|small|medium|large)"
        )),
    }
}

/// Execution-layer options shared by the simulating commands: worker
/// count, run-cache policy and metrics reporting (see
/// `spechpc_harness::exec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOpts {
    /// `--jobs N`: worker threads (`None` = one per host core).
    pub jobs: Option<usize>,
    /// `--no-cache`: re-simulate everything, and do not touch
    /// `results/cache/`.
    pub no_cache: bool,
    /// `--metrics`: print executor/cache counters after the command and
    /// write them as CSV under `results/metrics/`.
    pub metrics: bool,
}

/// Fault-injection options shared by the simulating commands (see
/// `spechpc_harness::faultcfg` for the plan format).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultOpts {
    /// `--faults plan.toml`: inject this fault plan into every run.
    pub plan: Option<String>,
    /// `--fault-seed N`: override the plan's seed.
    pub seed: Option<u64>,
}

/// The parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    List,
    Run {
        benchmark: String,
        cluster: ClusterChoice,
        class: WorkloadClass,
        nranks: Option<usize>,
        trace_csv: Option<String>,
        /// `--threads N`: PDES engine threads per simulation
        /// (`None` = 1 = sequential).
        threads: Option<usize>,
        exec: ExecOpts,
        faults: FaultOpts,
    },
    Suite {
        cluster: ClusterChoice,
        class: WorkloadClass,
        nranks: Option<usize>,
        /// `--threads N`: PDES engine threads per simulation.
        threads: Option<usize>,
        exec: ExecOpts,
        faults: FaultOpts,
    },
    Profile {
        benchmark: String,
        cluster: ClusterChoice,
        class: WorkloadClass,
        nranks: Option<usize>,
        /// `--threads N`: PDES engine threads per simulation.
        threads: Option<usize>,
        exec: ExecOpts,
        faults: FaultOpts,
    },
    /// Validate and describe a fault plan without running anything.
    Faults {
        plan: String,
    },
    Score {
        class: WorkloadClass,
        exec: ExecOpts,
    },
    Figures {
        which: String,
        exec: ExecOpts,
    },
    Dvfs {
        benchmark: String,
        cluster: ClusterChoice,
    },
    /// Capacity-plan a job queue against a modeled cluster (the same
    /// evaluator as `POST /v1/plan`).
    Plan {
        /// Positional: PlanRequest JSON file (see `plans/capacity-ci.json`).
        file: String,
        /// `--json`: print the wire-format `PlanResponse` instead of the
        /// human-readable summary.
        json: bool,
        exec: ExecOpts,
    },
    /// Run the resident simulation-as-a-service daemon.
    Serve {
        /// `--addr host:port` (port 0 = ephemeral).
        addr: String,
        /// `--workers N`: simulation worker threads.
        workers: Option<usize>,
        /// `--queue-depth N`: bounded dispatch queue.
        queue_depth: Option<usize>,
        /// `--max-inflight N`: concurrent simulation cap.
        max_inflight: Option<usize>,
        /// `--timeout-s S`: per-request simulation budget (cooperative
        /// cancel; `0` disables).
        timeout_s: Option<f64>,
        /// `--max-conns N`: concurrent open-connection cap.
        max_conns: Option<usize>,
        /// `--keepalive-max N`: requests per keep-alive connection
        /// (`0` = unlimited).
        keepalive_max: Option<usize>,
        /// `--idle-timeout-s S`: idle keep-alive connection timeout.
        idle_timeout_s: Option<f64>,
        /// `--read-timeout-s S`: incomplete-request read deadline
        /// (slow-loris reaper).
        read_timeout_s: Option<f64>,
        /// `--peers a:p,b:p`: fleet peers whose caches are consulted on
        /// a local miss (`GET /v1/cache/{hash}`).
        peers: Vec<String>,
        /// `--threads N`: default PDES engine threads per simulation
        /// (requests may override through their `config.threads`).
        threads: Option<usize>,
        exec: ExecOpts,
    },
    /// Run the fleet coordinator in front of N worker daemons.
    Fleet {
        /// `--addr host:port` (port 0 = ephemeral).
        addr: String,
        /// `--workers a:p,b:p,...`: worker daemon addresses.
        workers: Vec<String>,
        /// `--vnodes N`: virtual nodes per worker on the hash ring.
        vnodes: Option<usize>,
        /// `--timeout-s S`: per-forward timeout.
        timeout_s: Option<f64>,
        /// `--no-hedge`: disable hedged `/v1/run` requests.
        no_hedge: bool,
    },
    /// Deterministic seeded fault-injecting TCP proxy.
    Chaos {
        /// Positional: chaos plan TOML (see `plans/chaos-*.toml`).
        plan: String,
        /// `--listen host:port` (port 0 = ephemeral).
        listen: String,
        /// `--upstream host:port`: where intact bytes are relayed.
        upstream: Option<String>,
        /// `--chaos-seed N`: override the plan's seed.
        seed: Option<u64>,
        /// `--validate`: parse + describe the plan, then exit.
        validate: bool,
    },
    Help,
}

pub const USAGE: &str = "\
spechpc — SPEChpc 2021 performance/energy case-study reproduction

USAGE:
    spechpc <COMMAND> [OPTIONS]

COMMANDS:
    list                         list benchmarks and cluster presets
    run <benchmark>              simulate one benchmark
        --cluster a|b            cluster preset             [default: a]
        --class tiny|small|...   workload class             [default: tiny]
        -n, --ranks N            MPI ranks                  [default: full node]
        --trace FILE.csv         write the ITAC-style trace as CSV
    suite                        run the whole suite; with faults injected a
                                 partial run reports failures and exits 3
        --cluster a|b  --class C  -n N
    profile <benchmark>          Fig.-2-style MPI time breakdown (per-rank
                                 phases incl. fault stall, message histograms,
                                 comm matrix) without tracing; CSV under
                                 results/profile/
        --cluster a|b  --class C  -n N
    faults <plan.toml>           validate a fault plan and describe its events
    score                        SPEC-style score of ClusterB vs ClusterA
        --class C                                           [default: tiny]
    figures <fig1|fig2|fig3|fig4|fig5|fig6|tables|all>
                                 regenerate the paper's artifacts
    dvfs <benchmark>             frequency-scaling energy analysis
        --cluster a|b
    plan <request.json>          capacity-plan a job queue against a modeled
                                 cluster: FCFS + EASY backfill scheduling,
                                 optional fleet power caps, per-job wait and
                                 turnaround, energy/EDP, scenario comparison
                                 (same evaluator as POST /v1/plan)
        --json                   print the wire-format PlanResponse
    serve                        simulation-as-a-service HTTP daemon: POST
                                 /v1/run and /v1/suite, GET /v1/profile/{b},
                                 /v1/metrics, /v1/health; graceful drain on
                                 SIGTERM or POST /v1/shutdown
        --addr HOST:PORT         listen address        [default: 127.0.0.1:8722]
        --workers N              simulation workers              [default: 8]
        --queue-depth N          bounded dispatch queue         [default: 64]
        --max-inflight N         concurrent simulation cap [default: workers-1]
        --timeout-s S            per-request simulation budget; requests over
                                 budget answer 504 (0 disables) [default: 300]
        --max-conns N            open-connection cap; accepts beyond it answer
                                 503                         [default: 10240]
        --keepalive-max N        requests per keep-alive connection before the
                                 daemon closes it (0 = unlimited)  [default: 0]
        --idle-timeout-s S       close idle keep-alive connections  [default: 60]
        --read-timeout-s S       408 + close for requests not completed in time
                                 (slow-loris reaper)               [default: 30]
        --peers A:P,B:P          fleet peers; on a local cache miss ask each
                                 peer's GET /v1/cache/{key} before simulating
    fleet                        sharded-execution coordinator: routes /v1/run
                                 by consistent-hashed RunKey, shards /v1/suite
                                 across workers with work stealing, fails over
                                 on dead or saturated workers
        --addr HOST:PORT         listen address        [default: 127.0.0.1:8700]
        --workers A:P,B:P,...    worker daemon addresses (required)
        --vnodes N               virtual nodes per worker       [default: 64]
        --timeout-s S            per-forward timeout           [default: 300]
        --no-hedge               disable hedged /v1/run requests (hedging fires
                                 the second ring preference after the observed
                                 p99 latency; first trustworthy answer wins)
    chaos <plan.toml>            deterministic fault-injecting TCP proxy: delay,
                                 throttle, truncate, garbage, reset, black-hole
                                 per connection, replayed bit-identically from a
                                 stateless hash of (seed, conn, fault)
        --listen HOST:PORT       proxy listen address  [default: 127.0.0.1:8799]
        --upstream HOST:PORT     where intact bytes relay to (required unless
                                 --validate)
        --chaos-seed N           override the plan's seed
        --validate               parse + describe the plan, then exit
    help                         show this message

EXECUTION (run/suite/score/figures/profile):
    --jobs N                     worker threads             [default: all cores]
    --no-cache                   re-simulate; skip results/cache/
    --metrics                    report executor/cache counters; CSV under
                                 results/metrics/

ENGINE (run/suite/profile/serve):
    --threads N                  PDES engine threads inside each simulation;
                                 results are bit-identical at any thread count
                                 (1 = sequential scheduler)       [default: 1]

FAULT INJECTION (run/suite/profile; see plans/ for examples):
    --faults plan.toml           inject a deterministic fault plan (os-noise,
                                 stragglers, flaky links, throttling, crashes)
    --fault-seed N               override the plan's seed
";

/// Parse the argument vector (without `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };

    // Collect options (--key value / -n value), valueless flags, and
    // positionals.
    const FLAGS: [&str; 5] = ["no-cache", "metrics", "validate", "no-hedge", "json"];
    let mut positional = Vec::new();
    let mut options = std::collections::BTreeMap::new();
    let mut flags = std::collections::BTreeSet::new();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if FLAGS.contains(&key) {
                flags.insert(key.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option --{key} needs a value"))?;
                options.insert(key.to_string(), value.clone());
            }
        } else if a == "-n" {
            let value = it.next().ok_or("option -n needs a value")?;
            options.insert("ranks".to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }

    let cluster = match options.get("cluster") {
        Some(s) => ClusterChoice::parse(s)?,
        None => ClusterChoice::A,
    };
    let class = match options.get("class") {
        Some(s) => parse_class(s)?,
        None => WorkloadClass::Tiny,
    };
    let nranks = match options.get("ranks") {
        Some(s) => Some(
            s.parse::<usize>()
                .map_err(|e| format!("bad rank count '{s}': {e}"))?,
        ),
        None => None,
    };
    let exec = ExecOpts {
        jobs: match options.get("jobs") {
            Some(s) => Some(
                s.parse::<usize>()
                    .map_err(|e| format!("bad job count '{s}': {e}"))
                    .and_then(|n| (n > 0).then_some(n).ok_or("--jobs must be ≥ 1".to_string()))?,
            ),
            None => None,
        },
        no_cache: flags.contains("no-cache"),
        metrics: flags.contains("metrics"),
    };
    let faults = FaultOpts {
        plan: options.get("faults").cloned(),
        seed: match options.get("fault-seed") {
            Some(s) => Some(
                s.parse::<u64>()
                    .map_err(|e| format!("bad fault seed '{s}': {e}"))?,
            ),
            None => None,
        },
    };

    let usize_opt = |key: &str| -> Result<Option<usize>, String> {
        match options.get(key) {
            Some(s) => s
                .parse::<usize>()
                .map_err(|e| format!("bad --{key} '{s}': {e}"))
                .and_then(|n| {
                    (n > 0)
                        .then_some(Some(n))
                        .ok_or(format!("--{key} must be ≥ 1"))
                }),
            None => Ok(None),
        }
    };
    // Counters that legitimately allow 0 (= unlimited).
    let count_opt = |key: &str| -> Result<Option<usize>, String> {
        match options.get(key) {
            Some(s) => s
                .parse::<usize>()
                .map(Some)
                .map_err(|e| format!("bad --{key} '{s}': {e}")),
            None => Ok(None),
        }
    };
    let secs_opt = |key: &str| -> Result<Option<f64>, String> {
        match options.get(key) {
            Some(s) => s
                .parse::<f64>()
                .map_err(|e| format!("bad --{key} '{s}': {e}"))
                .and_then(|t| {
                    (t >= 0.0)
                        .then_some(Some(t))
                        .ok_or(format!("--{key} must be ≥ 0"))
                }),
            None => Ok(None),
        }
    };
    // Comma-separated address lists (`--peers a:1,b:2`).
    let list_opt = |key: &str| -> Vec<String> {
        options
            .get(key)
            .map(|s| {
                s.split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };

    match cmd.as_str() {
        "list" => Ok(Command::List),
        "run" => {
            let benchmark = positional
                .first()
                .ok_or("run: which benchmark? (try `spechpc list`)")?
                .clone();
            Ok(Command::Run {
                benchmark,
                cluster,
                class,
                nranks,
                trace_csv: options.get("trace").cloned(),
                threads: usize_opt("threads")?,
                exec,
                faults,
            })
        }
        "suite" => Ok(Command::Suite {
            cluster,
            class,
            nranks,
            threads: usize_opt("threads")?,
            exec,
            faults,
        }),
        "profile" => {
            let benchmark = positional
                .first()
                .ok_or("profile: which benchmark? (try `spechpc list`)")?
                .clone();
            Ok(Command::Profile {
                benchmark,
                cluster,
                class,
                nranks,
                threads: usize_opt("threads")?,
                exec,
                faults,
            })
        }
        "faults" => {
            let plan = positional
                .first()
                .ok_or("faults: which plan file? (try plans/noisy-node.toml)")?
                .clone();
            Ok(Command::Faults { plan })
        }
        "score" => Ok(Command::Score { class, exec }),
        "figures" => Ok(Command::Figures {
            which: positional.first().cloned().unwrap_or_else(|| "all".into()),
            exec,
        }),
        "dvfs" => {
            let benchmark = positional.first().ok_or("dvfs: which benchmark?")?.clone();
            Ok(Command::Dvfs { benchmark, cluster })
        }
        "plan" => {
            let file = positional
                .first()
                .ok_or("plan: which request file? (try plans/capacity-ci.json)")?
                .clone();
            Ok(Command::Plan {
                file,
                json: flags.contains("json"),
                exec,
            })
        }
        "serve" => Ok(Command::Serve {
            addr: options
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:8722".into()),
            workers: usize_opt("workers")?,
            queue_depth: usize_opt("queue-depth")?,
            max_inflight: usize_opt("max-inflight")?,
            timeout_s: secs_opt("timeout-s")?,
            max_conns: usize_opt("max-conns")?,
            keepalive_max: count_opt("keepalive-max")?,
            idle_timeout_s: secs_opt("idle-timeout-s")?,
            read_timeout_s: secs_opt("read-timeout-s")?,
            peers: list_opt("peers"),
            threads: usize_opt("threads")?,
            exec,
        }),
        "fleet" => {
            let workers = list_opt("workers");
            if workers.is_empty() {
                return Err("fleet: --workers a:port,b:port,... is required".into());
            }
            Ok(Command::Fleet {
                addr: options
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:8700".into()),
                workers,
                vnodes: usize_opt("vnodes")?,
                timeout_s: secs_opt("timeout-s")?,
                no_hedge: flags.contains("no-hedge"),
            })
        }
        "chaos" => {
            let plan = positional
                .first()
                .ok_or("chaos: which plan file? (try plans/chaos-ci.toml)")?
                .clone();
            let validate = flags.contains("validate");
            let upstream = options.get("upstream").cloned();
            if !validate && upstream.is_none() {
                return Err("chaos: --upstream host:port is required (or use --validate)".into());
            }
            Ok(Command::Chaos {
                plan,
                listen: options
                    .get("listen")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:8799".into()),
                upstream,
                seed: match options.get("chaos-seed") {
                    Some(s) => Some(
                        s.parse::<u64>()
                            .map_err(|e| format!("bad --chaos-seed '{s}': {e}"))?,
                    ),
                    None => None,
                },
                validate,
            })
        }
        "help" | "-h" | "--help" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_all_options() {
        let c = parse(&v(&[
            "run",
            "tealeaf",
            "--cluster",
            "b",
            "--class",
            "small",
            "-n",
            "208",
            "--trace",
            "out.csv",
            "--threads",
            "4",
            "--jobs",
            "4",
            "--no-cache",
            "--metrics",
            "--faults",
            "plans/noisy-node.toml",
            "--fault-seed",
            "1234",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                benchmark: "tealeaf".into(),
                cluster: ClusterChoice::B,
                class: WorkloadClass::Small,
                nranks: Some(208),
                trace_csv: Some("out.csv".into()),
                threads: Some(4),
                exec: ExecOpts {
                    jobs: Some(4),
                    no_cache: true,
                    metrics: true,
                },
                faults: FaultOpts {
                    plan: Some("plans/noisy-node.toml".into()),
                    seed: Some(1234),
                },
            }
        );
    }

    #[test]
    fn parses_plan() {
        let c = parse(&v(&[
            "plan",
            "plans/capacity-ci.json",
            "--json",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Plan {
                file: "plans/capacity-ci.json".into(),
                json: true,
                exec: ExecOpts {
                    jobs: Some(2),
                    no_cache: false,
                    metrics: false,
                },
            }
        );
        assert!(parse(&v(&["plan"])).is_err());
    }

    #[test]
    fn parses_faults_subcommand_and_rejects_bad_seeds() {
        assert_eq!(
            parse(&v(&["faults", "plans/degraded-fabric.toml"])).unwrap(),
            Command::Faults {
                plan: "plans/degraded-fabric.toml".into(),
            }
        );
        assert!(parse(&v(&["faults"])).is_err());
        assert!(parse(&v(&["suite", "--fault-seed", "minus-one"])).is_err());
    }

    #[test]
    fn parses_profile() {
        let c = parse(&v(&["profile", "minisweep", "--cluster", "b", "-n", "59"])).unwrap();
        assert_eq!(
            c,
            Command::Profile {
                benchmark: "minisweep".into(),
                cluster: ClusterChoice::B,
                class: WorkloadClass::Tiny,
                nranks: Some(59),
                threads: None,
                exec: ExecOpts::default(),
                faults: FaultOpts::default(),
            }
        );
        assert!(parse(&v(&["profile"])).is_err());
    }

    #[test]
    fn defaults_applied() {
        let c = parse(&v(&["run", "lbm"])).unwrap();
        assert_eq!(
            c,
            Command::Run {
                benchmark: "lbm".into(),
                cluster: ClusterChoice::A,
                class: WorkloadClass::Tiny,
                nranks: None,
                trace_csv: None,
                threads: None,
                exec: ExecOpts::default(),
                faults: FaultOpts::default(),
            }
        );
    }

    #[test]
    fn threads_validation() {
        assert!(parse(&v(&["run", "lbm", "--threads", "0"])).is_err());
        assert!(parse(&v(&["suite", "--threads", "several"])).is_err());
        let c = parse(&v(&["suite", "--threads", "8"])).unwrap();
        assert!(matches!(
            c,
            Command::Suite {
                threads: Some(8),
                ..
            }
        ));
        let c = parse(&v(&["serve", "--threads", "2"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                threads: Some(2),
                ..
            }
        ));
    }

    #[test]
    fn jobs_validation() {
        assert!(parse(&v(&["suite", "--jobs", "0"])).is_err());
        assert!(parse(&v(&["suite", "--jobs", "many"])).is_err());
        assert!(parse(&v(&["suite", "--jobs"])).is_err());
        let c = parse(&v(&["suite", "--jobs", "16"])).unwrap();
        assert!(matches!(
            c,
            Command::Suite {
                exec: ExecOpts {
                    jobs: Some(16),
                    no_cache: false,
                    metrics: false,
                },
                ..
            }
        ));
    }

    #[test]
    fn cluster_aliases() {
        assert_eq!(ClusterChoice::parse("SPR").unwrap(), ClusterChoice::B);
        assert_eq!(ClusterChoice::parse("icelake").unwrap(), ClusterChoice::A);
        assert!(ClusterChoice::parse("c").is_err());
    }

    #[test]
    fn class_aliases() {
        assert_eq!(parse_class("t").unwrap(), WorkloadClass::Tiny);
        assert_eq!(parse_class("MEDIUM").unwrap(), WorkloadClass::Medium);
        assert!(parse_class("gigantic").is_err());
    }

    #[test]
    fn missing_values_are_errors() {
        assert!(parse(&v(&["run", "lbm", "--cluster"])).is_err());
        assert!(parse(&v(&["run", "lbm", "-n"])).is_err());
        assert!(parse(&v(&["run"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn empty_and_help_flags_mean_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["-h"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&v(&["serve"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8722".into(),
                workers: None,
                queue_depth: None,
                max_inflight: None,
                timeout_s: None,
                max_conns: None,
                keepalive_max: None,
                idle_timeout_s: None,
                read_timeout_s: None,
                peers: Vec::new(),
                threads: None,
                exec: ExecOpts::default(),
            }
        );
        assert_eq!(
            parse(&v(&[
                "serve",
                "--addr",
                "0.0.0.0:0",
                "--workers",
                "4",
                "--queue-depth",
                "16",
                "--max-inflight",
                "2",
                "--timeout-s",
                "1.5",
                "--max-conns",
                "2048",
                "--keepalive-max",
                "0",
                "--idle-timeout-s",
                "10",
                "--read-timeout-s",
                "5",
                "--peers",
                "127.0.0.1:8723, 127.0.0.1:8724",
                "--no-cache",
            ]))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:0".into(),
                workers: Some(4),
                queue_depth: Some(16),
                max_inflight: Some(2),
                timeout_s: Some(1.5),
                max_conns: Some(2048),
                keepalive_max: Some(0),
                idle_timeout_s: Some(10.0),
                read_timeout_s: Some(5.0),
                peers: vec!["127.0.0.1:8723".into(), "127.0.0.1:8724".into()],
                threads: None,
                exec: ExecOpts {
                    jobs: None,
                    no_cache: true,
                    metrics: false,
                },
            }
        );
        assert!(parse(&v(&["serve", "--workers", "0"])).is_err());
        assert!(parse(&v(&["serve", "--max-conns", "0"])).is_err());
        assert!(parse(&v(&["serve", "--queue-depth", "deep"])).is_err());
        assert!(parse(&v(&["serve", "--timeout-s", "-1"])).is_err());
        assert!(parse(&v(&["serve", "--read-timeout-s", "-1"])).is_err());
        assert!(parse(&v(&["serve", "--keepalive-max", "none"])).is_err());
    }

    #[test]
    fn parses_fleet() {
        assert_eq!(
            parse(&v(&[
                "fleet",
                "--workers",
                "127.0.0.1:8722,127.0.0.1:8723",
                "--vnodes",
                "32",
                "--timeout-s",
                "10",
            ]))
            .unwrap(),
            Command::Fleet {
                addr: "127.0.0.1:8700".into(),
                workers: vec!["127.0.0.1:8722".into(), "127.0.0.1:8723".into()],
                vnodes: Some(32),
                timeout_s: Some(10.0),
                no_hedge: false,
            }
        );
        // Workers are mandatory; an empty list is an error too.
        assert!(parse(&v(&["fleet"])).is_err());
        assert!(parse(&v(&["fleet", "--workers", ","])).is_err());
        assert!(parse(&v(&["fleet", "--workers", "a:1", "--vnodes", "0"])).is_err());
        // Hedging is on by default and --no-hedge switches it off.
        assert!(matches!(
            parse(&v(&["fleet", "--workers", "a:1", "--no-hedge"])).unwrap(),
            Command::Fleet { no_hedge: true, .. }
        ));
    }

    #[test]
    fn parses_chaos() {
        assert_eq!(
            parse(&v(&[
                "chaos",
                "plans/chaos-ci.toml",
                "--listen",
                "127.0.0.1:9001",
                "--upstream",
                "127.0.0.1:8722",
                "--chaos-seed",
                "7",
            ]))
            .unwrap(),
            Command::Chaos {
                plan: "plans/chaos-ci.toml".into(),
                listen: "127.0.0.1:9001".into(),
                upstream: Some("127.0.0.1:8722".into()),
                seed: Some(7),
                validate: false,
            }
        );
        // --validate needs no upstream…
        assert_eq!(
            parse(&v(&["chaos", "plans/chaos-ci.toml", "--validate"])).unwrap(),
            Command::Chaos {
                plan: "plans/chaos-ci.toml".into(),
                listen: "127.0.0.1:8799".into(),
                upstream: None,
                seed: None,
                validate: true,
            }
        );
        // …but serving does, and the plan file is always required.
        assert!(parse(&v(&["chaos", "plans/chaos-ci.toml"])).is_err());
        assert!(parse(&v(&["chaos"])).is_err());
        assert!(parse(&v(&["chaos", "p.toml", "--validate", "--chaos-seed", "x"])).is_err());
    }

    #[test]
    fn figures_default_all() {
        assert_eq!(
            parse(&v(&["figures"])).unwrap(),
            Command::Figures {
                which: "all".into(),
                exec: ExecOpts::default(),
            }
        );
        assert_eq!(
            parse(&v(&["figures", "fig5", "--no-cache"])).unwrap(),
            Command::Figures {
                which: "fig5".into(),
                exec: ExecOpts {
                    jobs: None,
                    no_cache: true,
                    metrics: false,
                },
            }
        );
    }
}
