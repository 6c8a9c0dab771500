//! The repository's benchmark: one named workload from a seed, in this
//! fresh process, with its outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-grid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run it from the repository root. An untraced run (`--trace 0`)
//! measures the end-to-end metrics; a traced run (`--trace 1`) times,
//! from this benchmark's own code, every call it makes into a layer's
//! public functions and reports each layer's share. The last line of
//! standard output is the result as one JSON object. Working caches
//! live under `results/perfbench/` and are removed on exit.

mod cpu;
mod daemons;
mod http;
mod inputs;
mod planload;
mod procfs;
mod replay;
mod report;
mod reproduce;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cpu::HostSpeed;
use report::Outcome;
use trace::Span;

/// The workloads `--workload` accepts; BENCHMARK.json says why each exists.
const WORKLOADS: [&str; 4] = [
    "reproduce-cold",
    "replay-grid",
    "fleet-replay",
    "plan-backlog",
];

/// Fresh working directories of one run, removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicUsize,
}

impl WorkDir {
    fn new(workload: &str) -> std::io::Result<WorkDir> {
        // Beside `results/cache/`, so cache writes hit the same
        // filesystem and their fsyncs are real.
        let root = PathBuf::from("results")
            .join("perfbench")
            .join(format!("{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A new empty directory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("working directory under results/perfbench");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: WorkDir,
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

/// Print each layer's total self time next to the traced op time they
/// must add up to.
pub fn print_layer_sums(spans: &[Span], selfs: &[f64]) {
    let mut layers: Vec<(&str, f64)> = Vec::new();
    for (s, v) in spans.iter().zip(selfs) {
        match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, total)) => *total += v,
            None => layers.push((s.layer(), *v)),
        }
    }
    let op_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ms)
        .sum();
    let sum: f64 = layers.iter().map(|(_, v)| v).sum();
    println!(
        "layer self time over {} traced ops:",
        spans.iter().filter(|s| s.parent.is_none()).count()
    );
    for (layer, ms) in &layers {
        println!("  {layer:<12} {ms:>12.3} ms  {:>6.2} %", ms / op_ms * 100.0);
    }
    println!("  sum of layer self times {sum:.3} ms; traced op time {op_ms:.3} ms");
}

/// Length of one measurement window of a closed loop.
const WINDOW_S: f64 = 1.0;

/// The timed phase of a closed loop.
pub struct Timed {
    pub latency_ms: Vec<f64>,
    /// Process CPU ms per op in each window.
    window_cpu_ms: Vec<f64>,
    /// Host steal share in each window.
    window_steal: Vec<f64>,
    /// Wall time of the windows, probes excluded.
    wall_s: f64,
    speed: HostSpeed,
}

impl Timed {
    /// Time `op` back to back until `seconds` pass, in windows of about
    /// a second with a host-speed probe after each. `op` returns whether
    /// the op succeeded, and the count of failures is returned beside.
    pub fn run(
        seconds: f64,
        mut op: impl FnMut(u64) -> Result<bool, String>,
    ) -> Result<(Timed, u64), String> {
        let mut t = Timed {
            latency_ms: Vec::new(),
            window_cpu_ms: Vec::new(),
            window_steal: Vec::new(),
            wall_s: 0.0,
            speed: HostSpeed::default(),
        };
        let mut failed = 0;
        let start = Instant::now();
        let mut i = 0;
        while start.elapsed().as_secs_f64() < seconds {
            let (w0, c0, first) = (Instant::now(), cpu::process_s(), i);
            let h0 = procfs::host_ticks().map_err(|e| e.to_string())?;
            loop {
                let t0 = Instant::now();
                let ok = op(i)?;
                t.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                failed += u64::from(!ok);
                i += 1;
                if w0.elapsed().as_secs_f64() >= WINDOW_S
                    || start.elapsed().as_secs_f64() >= seconds
                {
                    break;
                }
            }
            let cpu_s = cpu::process_s() - c0;
            t.wall_s += w0.elapsed().as_secs_f64();
            t.window_cpu_ms.push(cpu_s * 1e3 / (i - first) as f64);
            let h1 = procfs::host_ticks().map_err(|e| e.to_string())?;
            t.window_steal.push(procfs::steal_share(h0, h1));
            t.speed.probe();
        }
        Ok((t, failed))
    }

    /// Ops timed.
    pub fn ops(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    /// Set `cpu_ms_per_op`: the median over windows of CPU per op taken
    /// back to zero steal, scaled to the reference host. Print latency,
    /// throughput and the unadjusted figures beside it.
    pub fn set_metrics(&self, out: &mut Outcome) {
        let ops = self.ops();
        println!(
            "{ops} ops: p50 {:.4} ms, p90 {:.4} ms, {:.1} ops/s",
            stats::median(&self.latency_ms),
            stats::percentile(&self.latency_ms, 90.0).unwrap_or(0.0),
            ops as f64 / self.wall_s
        );
        // Steal makes an op cost more CPU (cold caches after each
        // preemption) in proportion to the window's steal; take each
        // window's CPU per op back to zero steal along the robust slope.
        let slope = stats::theil_sen_slope(&self.window_steal, &self.window_cpu_ms)
            .unwrap_or(0.0)
            .max(0.0);
        let at_zero_steal: Vec<f64> = self
            .window_cpu_ms
            .iter()
            .zip(&self.window_steal)
            .map(|(cpu, steal)| cpu - slope * steal)
            .collect();
        println!(
            "CPU per op over {} windows: median {:.4} ms at steal share {:.4}; {slope:.4} ms more per unit of steal",
            self.window_cpu_ms.len(),
            stats::median(&self.window_cpu_ms),
            stats::median(&self.window_steal)
        );
        set_cpu_per_op(out, stats::median(&at_zero_steal), &self.speed);
    }
}

/// Set `cpu_ms_per_op` from a measured CPU ms per op and the run's
/// host-speed probes, and print both.
pub fn set_cpu_per_op(out: &mut Outcome, cpu_ms: f64, speed: &HostSpeed) {
    let scale = speed.scale();
    println!(
        "CPU per op {cpu_ms:.4} ms unscaled; host-speed probe {:.4} ms, scale {scale:.4}",
        speed.probe_ms()
    );
    out.set("cpu_ms_per_op", cpu_ms * scale);
}

/// Peak resident memory so far, as the run's `peak_rss_mb`.
pub fn set_peak_rss(out: &mut Outcome) -> Result<(), String> {
    out.set(
        "peak_rss_mb",
        procfs::peak_rss_mb().map_err(|e| e.to_string())?,
    );
    Ok(())
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let steal_before = procfs::host_ticks().map_err(|e| e.to_string())?;
    let mut out = match ctx.workload.as_str() {
        "reproduce-cold" => reproduce::run(ctx),
        "replay-grid" => replay::run(ctx, false),
        "fleet-replay" => replay::run(ctx, true),
        "plan-backlog" => planload::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }?;
    let steal = procfs::steal_share(
        steal_before,
        procfs::host_ticks().map_err(|e| e.to_string())?,
    );
    println!("host steal share over the run: {steal:.4}");
    if ctx.trace {
        out.set("host.steal_share", steal);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(&workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        work,
    };
    let line = run(&ctx).and_then(|out| out.result_line(trace));
    drop(ctx);
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
