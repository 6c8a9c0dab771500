//! Content-addressed memoization of run results.
//!
//! Every simulated run is fully determined by its [`RunKey`] — the
//! benchmark, cluster preset, workload class, rank count and the
//! run-rule parameters of [`RunConfig`]. The key canonicalizes to a
//! stable string, hashes with FNV-1a, and addresses a [`RunCache`]
//! entry: an in-memory map backed (optionally) by one JSON file per run
//! under `results/cache/`.
//!
//! The JSON codec is hand-rolled (the workspace carries no external
//! dependencies) and round-trips every `f64` exactly: values are
//! written with Rust's `{:?}` formatting, which emits the shortest
//! decimal that parses back to the identical bit pattern. A cached
//! replay is therefore byte-identical to the run that produced it —
//! the property the parallel executor's determinism guarantee rests on.
//!
//! Traced runs are never cached: a [`Timeline`]
//! can hold millions of events and the experiments that need one (the
//! Fig. 2 insets, CSV export) re-simulate cheaply.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spechpc_analysis::counters::CounterSample;
use spechpc_power::energy::EnergyBreakdown;
use spechpc_power::rapl::JobPower;
use spechpc_simmpi::profile::{Profile, RankPhases, SizeBucket};
use spechpc_simmpi::trace::{Breakdown, EventKind, Timeline};

use crate::hash;
use crate::json::{fmt_f64 as jf, parse_json, quote as jstr, Json};
use crate::runner::{RunConfig, RunResult};

/// Bump whenever the on-disk layout or the simulation semantics change;
/// entries with a different schema are ignored.
///
/// v2: entries carry the observability [`Profile`] of the measured
/// region (per-rank phases, regime histograms, communication matrix).
///
/// v3: keys carry the canonical fault-plan digest (so faulted runs
/// replay byte-identically without colliding with clean ones) and
/// per-rank phase rows gain the `fault_stall_s` column.
pub const CACHE_SCHEMA_VERSION: u64 = 3;

/// Everything that determines a run's outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    pub benchmark: String,
    pub cluster: String,
    pub class: String,
    pub nranks: usize,
    pub warmup_steps: usize,
    pub measured_steps: usize,
    pub repetitions: usize,
    /// Canonical digest of the fault plan
    /// ([`FaultPlan::canonical`](spechpc_simmpi::faults::FaultPlan::canonical);
    /// `"none"` for fault-free runs).
    pub faults: String,
}

impl RunKey {
    /// Build the key for one run under `config`'s run rules.
    ///
    /// `config.trace` is deliberately absent: tracing changes what is
    /// recorded, never what is computed, and traced runs bypass the
    /// cache entirely. `config.threads` is absent for the same reason —
    /// the parallel engine is bit-identical to the sequential one at
    /// every thread count, so a result computed at any `threads` replays
    /// for all of them.
    pub fn new(
        cluster: &str,
        benchmark: &str,
        class: &str,
        nranks: usize,
        config: &RunConfig,
    ) -> Self {
        RunKey {
            benchmark: benchmark.to_string(),
            cluster: cluster.to_string(),
            class: class.to_string(),
            nranks,
            warmup_steps: config.warmup_steps,
            measured_steps: config.measured_steps,
            repetitions: config.repetitions,
            faults: config.faults.canonical(),
        }
    }

    /// Canonical string form — the hash input and the collision check
    /// stored alongside each entry.
    pub fn canonical(&self) -> String {
        format!(
            "v{}|{}|{}|{}|n={}|w={}|m={}|r={}|f={}",
            CACHE_SCHEMA_VERSION,
            self.benchmark,
            self.cluster,
            self.class,
            self.nranks,
            self.warmup_steps,
            self.measured_steps,
            self.repetitions,
            self.faults
        )
    }

    /// Stable 64-bit FNV-1a hash of the canonical form, as 16 hex
    /// digits — the cache file name, and the address fleet peers use
    /// against `GET /v1/cache/{hash}`.
    pub fn hash_hex(&self) -> String {
        hash_hex_of(&self.canonical())
    }
}

/// FNV-1a 64-bit over `s`, rendered as 16 lowercase hex digits.
fn hash_hex_of(s: &str) -> String {
    format!("{:016x}", hash::fnv1a(s.bytes()))
}

/// Counters describing how a [`RunCache`] behaved — the LIKWID-counter
/// analog for the execution layer. Snapshot via [`RunCache::metrics`].
///
/// Every lookup increments exactly one of `hits_mem`, `hits_disk`,
/// `misses` or `corrupt`; lookups that previously vanished into
/// `.ok()?` now show up as `corrupt` entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups served from the in-memory map.
    pub hits_mem: u64,
    /// Lookups served by decoding an on-disk entry.
    pub hits_disk: u64,
    /// Lookups that found no entry (no directory, or no file).
    pub misses: u64,
    /// Lookups that found a file but could not use it: unreadable,
    /// unparsable, wrong schema version, or a canonical-key mismatch
    /// (hash collision / stale layout).
    pub corrupt: u64,
    /// Corrupt entries successfully moved aside into the cache's
    /// `quarantine/` directory (each such lookup also counts under
    /// `corrupt`); the slot is then free for a clean re-run to refill.
    pub quarantined: u64,
    /// Torn or orphaned files the startup [`RunCache::scrub`] swept
    /// into quarantine: undecodable `*.json` entries and `*.tmp.*`
    /// leftovers from writes a crash interrupted.
    pub torn_quarantined: u64,
    /// Results stored (both fresh runs and disk-hit promotions write to
    /// the in-memory map; only fresh runs count here).
    pub stores: u64,
}

impl CacheMetrics {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits_mem + self.hits_disk + self.misses + self.corrupt
    }
}

/// Lock-free counter cell backing [`CacheMetrics`].
#[derive(Default)]
struct MetricCells {
    hits_mem: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    torn_quarantined: AtomicU64,
    stores: AtomicU64,
}

/// Memoized store of [`RunResult`]s, shared across executor workers.
///
/// Lookups hit the in-memory map first, then (when a directory is
/// configured) the on-disk JSON files; stores write through to both.
pub struct RunCache {
    mem: Mutex<HashMap<String, RunResult>>,
    dir: Option<PathBuf>,
    metrics: MetricCells,
}

impl RunCache {
    /// Purely in-memory cache (one process lifetime).
    pub fn in_memory() -> Self {
        RunCache {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            metrics: MetricCells::default(),
        }
    }

    /// Cache persisted under `dir` (created lazily on first store).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        RunCache {
            mem: Mutex::new(HashMap::new()),
            dir: Some(dir.into()),
            metrics: MetricCells::default(),
        }
    }

    /// The conventional persistent location, `results/cache/`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("cache")
    }

    fn path_of(&self, key: &RunKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.hash_hex())))
    }

    /// Look `key` up, memory first, then disk. Corrupt disk entries are
    /// quarantined (moved aside) so the re-run that follows can refill
    /// the slot with a clean entry instead of tripping over the same
    /// bad file forever.
    pub fn get(&self, key: &RunKey) -> Option<RunResult> {
        let canonical = key.canonical();
        if let Some(hit) = self
            .mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&canonical)
        {
            self.metrics.hits_mem.fetch_add(1, Ordering::Relaxed);
            return Some(hit.clone());
        }
        let Some(path) = self.path_of(key) else {
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if !path.exists() {
            self.metrics.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // From here on the entry exists: any failure is a corrupt (or
        // stale) entry, counted rather than silently swallowed.
        let decoded = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| decode_entry(&text, &canonical));
        let Some(result) = decoded else {
            self.metrics.corrupt.fetch_add(1, Ordering::Relaxed);
            if self.quarantine(&path).is_ok() {
                self.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        };
        self.metrics.hits_disk.fetch_add(1, Ordering::Relaxed);
        self.mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(canonical, result.clone());
        Some(result)
    }

    /// Move a corrupt entry into `<dir>/quarantine/`, preserving the
    /// file name, so it can be inspected post-mortem but never hit
    /// again. Best-effort: a failed move leaves the file in place (the
    /// lookup still reported a miss-like `None`).
    fn quarantine(&self, path: &Path) -> std::io::Result<()> {
        let dir = self
            .dir
            .as_ref()
            .expect("quarantine only reached with a disk-backed cache");
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir)?;
        let name = path
            .file_name()
            .ok_or_else(|| std::io::Error::other("entry path has no file name"))?;
        std::fs::rename(path, qdir.join(name))
    }

    /// Store `result` under `key`, writing through to disk when
    /// configured. I/O failures are swallowed: the cache is an
    /// accelerator, never a correctness dependency.
    pub fn put(&self, key: &RunKey, result: &RunResult) {
        self.metrics.stores.fetch_add(1, Ordering::Relaxed);
        let canonical = key.canonical();
        self.mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(canonical.clone(), result.clone());
        if let Some(path) = self.path_of(key) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = write_atomically(&path, &encode_entry(&canonical, result));
        }
    }

    /// The raw entry text addressed by `hash` (a [`RunKey::hash_hex`]
    /// value) — the read path behind the daemon's `GET /v1/cache/{hash}`
    /// route, serving the exact bytes [`RunCache::put`] persists so a
    /// fleet peer's replay stays byte-identical. Memory-resident
    /// entries re-encode under their canonical key (a fixed point of
    /// the codec, so identical to the disk write); otherwise the disk
    /// file is served verbatim. Peer traffic deliberately leaves the
    /// hit/miss metrics alone — those describe local run execution.
    pub fn entry_by_hash(&self, hash: &str) -> Option<String> {
        {
            let mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
            for (canonical, result) in mem.iter() {
                if hash_hex_of(canonical) == hash {
                    return Some(encode_entry(canonical, result));
                }
            }
        }
        let path = self.dir.as_ref()?.join(format!("{hash}.json"));
        std::fs::read_to_string(path).ok()
    }

    /// Number of entries resident in memory (test/diagnostic hook).
    pub fn len_in_memory(&self) -> usize {
        self.mem.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Snapshot of the behaviour counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits_mem: self.metrics.hits_mem.load(Ordering::Relaxed),
            hits_disk: self.metrics.hits_disk.load(Ordering::Relaxed),
            misses: self.metrics.misses.load(Ordering::Relaxed),
            corrupt: self.metrics.corrupt.load(Ordering::Relaxed),
            quarantined: self.metrics.quarantined.load(Ordering::Relaxed),
            torn_quarantined: self.metrics.torn_quarantined.load(Ordering::Relaxed),
            stores: self.metrics.stores.load(Ordering::Relaxed),
        }
    }

    /// Startup integrity sweep over the on-disk cache: every `*.json`
    /// entry must decode under its own embedded key and hash to its
    /// file name; anything that fails — plus any `*.tmp.*` leftover of
    /// a write a crash interrupted — is moved into `quarantine/` and
    /// counted under `torn_quarantined`. Returns the number of files
    /// swept. A no-op for in-memory caches and missing directories.
    ///
    /// This is invoked from the daemon's bind path, not from
    /// [`RunCache::on_disk`]: construction stays cheap and pure, and
    /// lookup-time corruption accounting (`corrupt`/`quarantined`)
    /// keeps observing entries that rot *while* the daemon runs.
    pub fn scrub(&self) -> u64 {
        let Some(dir) = self.dir.as_ref() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut swept = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let torn = if name.contains(".tmp.") {
                // A temp file only persists when its writer died
                // between create and rename.
                true
            } else if let Some(stem) = name.strip_suffix(".json") {
                !entry_is_sound(&path, stem)
            } else {
                continue;
            };
            if torn && self.quarantine(&path).is_ok() {
                self.metrics
                    .torn_quarantined
                    .fetch_add(1, Ordering::Relaxed);
                swept += 1;
            }
        }
        swept
    }
}

/// Is the entry at `path` internally consistent? It must parse, carry
/// the current schema, decode to a result, and its embedded canonical
/// key must hash to the file's stem — a mismatch means the bytes were
/// torn or the file was renamed into the wrong slot.
fn entry_is_sound(path: &Path, stem: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let Some(root) = parse_json(&text) else {
        return false;
    };
    let Some(key) = root.str_of("key") else {
        return false;
    };
    hash_hex_of(&key) == stem && decode_entry(&text, &key).is_some()
}

/// Write via a sibling temp file + `fsync` + rename so neither
/// concurrent processes nor a crash (`kill -9`, power loss) can leave a
/// readable torn entry under the final name: the data is durable
/// *before* the rename makes it visible, and the parent directory is
/// synced after so the rename itself survives a crash. A crash mid-way
/// leaves only a `*.tmp.*` file, which [`RunCache::scrub`] sweeps into
/// quarantine on the next startup.
fn write_atomically(path: &Path, contents: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serialize one cache entry (canonical key + result) as JSON.
pub fn encode_entry(canonical_key: &str, r: &RunResult) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {CACHE_SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"key\": {},\n", jstr(canonical_key)));
    s.push_str("  \"result\": ");
    s.push_str(&encode_result(r));
    s.push_str("\n}\n");
    s
}

/// Serialize the result object — the `"result"` value of a cache entry,
/// also embedded verbatim in the service API's run responses
/// ([`crate::api`]) so a cached replay serves byte-identical payloads.
pub(crate) fn encode_result(r: &RunResult) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str(&format!("    \"benchmark\": {},\n", jstr(&r.benchmark)));
    s.push_str(&format!("    \"cluster\": {},\n", jstr(&r.cluster)));
    s.push_str(&format!("    \"class\": {},\n", jstr(&r.class)));
    s.push_str(&format!("    \"nranks\": {},\n", r.nranks));
    s.push_str(&format!("    \"nodes_used\": {},\n", r.nodes_used));
    s.push_str(&format!("    \"step_seconds\": {},\n", jf(r.step_seconds)));
    s.push_str(&format!(
        "    \"step_seconds_min\": {},\n",
        jf(r.step_seconds_min)
    ));
    s.push_str(&format!(
        "    \"step_seconds_max\": {},\n",
        jf(r.step_seconds_max)
    ));
    s.push_str(&format!("    \"runtime_s\": {},\n", jf(r.runtime_s)));
    s.push_str(&format!(
        "    \"counters\": {{ \"runtime_s\": {}, \"dp_flops\": {}, \"dp_avx_flops\": {}, \"mem_bytes\": {}, \"l3_bytes\": {}, \"l2_bytes\": {} }},\n",
        jf(r.counters.runtime_s),
        jf(r.counters.dp_flops),
        jf(r.counters.dp_avx_flops),
        jf(r.counters.mem_bytes),
        jf(r.counters.l3_bytes),
        jf(r.counters.l2_bytes),
    ));
    s.push_str("    \"breakdown\": { \"total\": ");
    s.push_str(&jf(r.breakdown.total));
    s.push_str(", \"seconds\": [");
    for (i, (kind, secs)) in r.breakdown.seconds.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("[{}, {}]", jstr(&kind.to_string()), jf(*secs)));
    }
    s.push_str("] },\n");
    s.push_str(&encode_profile(&r.profile));
    s.push_str(&format!(
        "    \"power\": {{ \"package_w\": {}, \"dram_w\": {} }},\n",
        jf(r.power.package_w),
        jf(r.power.dram_w),
    ));
    s.push_str(&format!(
        "    \"energy\": {{ \"cpu_j\": {}, \"dram_j\": {}, \"runtime_s\": {} }}\n",
        jf(r.energy.cpu_j),
        jf(r.energy.dram_j),
        jf(r.energy.runtime_s),
    ));
    s.push_str("  }");
    s
}

/// Serialize the observability profile: dense per-rank phase rows,
/// sparse (non-zero only) histogram and matrix entries.
fn encode_profile(p: &Profile) -> String {
    let mut s = String::with_capacity(256);
    s.push_str(&format!(
        "    \"profile\": {{ \"nranks\": {}, \"per_rank\": [",
        p.nranks
    ));
    for (i, r) in p.per_rank.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "[{}, {}, {}, {}, {}, {}]",
            jf(r.compute_s),
            jf(r.eager_send_s),
            jf(r.rendezvous_stall_s),
            jf(r.recv_wait_s),
            jf(r.collective_wait_s),
            jf(r.fault_stall_s),
        ));
    }
    s.push_str("], ");
    for (name, hist) in [
        ("eager_hist", &p.eager_hist),
        ("rendezvous_hist", &p.rendezvous_hist),
    ] {
        s.push_str(&format!("\"{name}\": ["));
        let mut first = true;
        for (bucket, b) in hist.iter().enumerate() {
            if b.count == 0 && b.bytes == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("[{}, {}, {}]", bucket, b.count, b.bytes));
        }
        s.push_str("], ");
    }
    s.push_str("\"comm_matrix\": [");
    let mut first = true;
    for from in 0..p.nranks {
        for to in 0..p.nranks {
            let bytes = p.comm_matrix[from * p.nranks + to];
            if bytes == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("[{from}, {to}, {bytes}]"));
        }
    }
    s.push_str("] },\n");
    s
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Inverse of [`EventKind`]'s `Display` names.
fn event_kind_from_name(name: &str) -> Option<EventKind> {
    EventKind::ALL.into_iter().find(|k| k.to_string() == name)
}

/// Inverse of [`encode_profile`]. A `nranks` of zero reconstructs the
/// disabled-profile [`Profile::default`]; anything else rebuilds the
/// dense structure exactly.
fn decode_profile(v: &Json) -> Option<Profile> {
    let nranks = v.usize_of("nranks")?;
    if nranks == 0 {
        return Some(Profile::default());
    }
    let mut p = Profile::new(nranks);
    let Json::Arr(rows) = v.get("per_rank")? else {
        return None;
    };
    if rows.len() != nranks {
        return None;
    }
    for (i, row) in rows.iter().enumerate() {
        let Json::Arr(cols) = row else { return None };
        if cols.len() != 6 {
            return None;
        }
        p.per_rank[i] = RankPhases {
            compute_s: cols[0].num()?,
            eager_send_s: cols[1].num()?,
            rendezvous_stall_s: cols[2].num()?,
            recv_wait_s: cols[3].num()?,
            collective_wait_s: cols[4].num()?,
            fault_stall_s: cols[5].num()?,
        };
    }
    for (name, hist) in [
        ("eager_hist", &mut p.eager_hist),
        ("rendezvous_hist", &mut p.rendezvous_hist),
    ] {
        let Json::Arr(rows) = v.get(name)? else {
            return None;
        };
        for row in rows {
            let Json::Arr(cols) = row else { return None };
            let bucket = cols.first()?.num()? as usize;
            if bucket >= hist.len() {
                return None;
            }
            hist[bucket] = SizeBucket {
                count: cols.get(1)?.num()? as u64,
                bytes: cols.get(2)?.num()? as u64,
            };
        }
    }
    let Json::Arr(rows) = v.get("comm_matrix")? else {
        return None;
    };
    for row in rows {
        let Json::Arr(cols) = row else { return None };
        let from = cols.first()?.num()? as usize;
        let to = cols.get(1)?.num()? as usize;
        if from >= nranks || to >= nranks {
            return None;
        }
        p.comm_matrix[from * nranks + to] = cols.get(2)?.num()? as u64;
    }
    Some(p)
}

/// Decode one cache entry, verifying schema and the embedded canonical
/// key (which guards against both hash collisions and stale layouts).
pub fn decode_entry(text: &str, expected_key: &str) -> Option<RunResult> {
    let root = parse_json(text)?;
    if root.u64_of("schema")? != CACHE_SCHEMA_VERSION {
        return None;
    }
    if root.str_of("key")? != expected_key {
        return None;
    }
    decode_result(root.get("result")?)
}

/// Inverse of [`encode_result`] — shared with the service API's
/// response decoding ([`crate::api`]).
pub(crate) fn decode_result(r: &Json) -> Option<RunResult> {
    let c = r.get("counters")?;
    let counters = CounterSample {
        runtime_s: c.f64_of("runtime_s")?,
        dp_flops: c.f64_of("dp_flops")?,
        dp_avx_flops: c.f64_of("dp_avx_flops")?,
        mem_bytes: c.f64_of("mem_bytes")?,
        l3_bytes: c.f64_of("l3_bytes")?,
        l2_bytes: c.f64_of("l2_bytes")?,
    };

    let b = r.get("breakdown")?;
    let mut breakdown = Breakdown {
        total: b.f64_of("total")?,
        ..Breakdown::default()
    };
    let Json::Arr(pairs) = b.get("seconds")? else {
        return None;
    };
    for pair in pairs {
        let Json::Arr(kv) = pair else { return None };
        let kind = event_kind_from_name(kv.first()?.str()?)?;
        breakdown.seconds.insert(kind, kv.get(1)?.num()?);
    }

    let profile = decode_profile(r.get("profile")?)?;
    let p = r.get("power")?;
    let e = r.get("energy")?;
    let nranks = r.usize_of("nranks")?;
    Some(RunResult {
        benchmark: r.str_of("benchmark")?,
        cluster: r.str_of("cluster")?,
        class: r.str_of("class")?,
        nranks,
        nodes_used: r.usize_of("nodes_used")?,
        step_seconds: r.f64_of("step_seconds")?,
        step_seconds_min: r.f64_of("step_seconds_min")?,
        step_seconds_max: r.f64_of("step_seconds_max")?,
        runtime_s: r.f64_of("runtime_s")?,
        counters,
        breakdown,
        power: JobPower {
            package_w: p.f64_of("package_w")?,
            dram_w: p.f64_of("dram_w")?,
        },
        energy: EnergyBreakdown {
            cpu_j: e.f64_of("cpu_j")?,
            dram_j: e.f64_of("dram_j")?,
            runtime_s: e.f64_of("runtime_s")?,
        },
        // Cached runs are always untraced: an empty timeline sized
        // like the one the untraced simulation produced.
        timeline: Timeline::new(nranks),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        use spechpc_simmpi::profile::{bucket_of, Regime};
        let mut p = Profile::new(3);
        p.record_phase(0, spechpc_simmpi::profile::Phase::Compute, 0.1 + 0.2);
        p.record_phase(1, spechpc_simmpi::profile::Phase::RecvWait, 1e-17);
        p.record_phase(2, spechpc_simmpi::profile::Phase::RendezvousStall, 3.25);
        p.record_message(0, 1, 8, Regime::Eager);
        p.record_message(1, 2, 1 << 20, Regime::Rendezvous);
        p.record_message(2, 2, 0, Regime::Eager);
        assert!(p.eager_hist[bucket_of(8)].count > 0);
        p
    }

    fn sample_result() -> RunResult {
        let mut breakdown = Breakdown::default();
        breakdown.seconds.insert(EventKind::Compute, 0.1 + 0.2); // 0.30000000000000004
        breakdown.seconds.insert(EventKind::Recv, 1e-17);
        breakdown.total = 0.1 + 0.2 + 1e-17;
        RunResult {
            benchmark: "minisweep".into(),
            cluster: "ClusterA".into(),
            class: "tiny".into(),
            nranks: 59,
            nodes_used: 1,
            step_seconds: std::f64::consts::PI,
            step_seconds_min: 2.9,
            step_seconds_max: 3.5,
            runtime_s: 1234.5678901234567,
            counters: CounterSample {
                runtime_s: 1234.5678901234567,
                dp_flops: 1.23e15,
                dp_avx_flops: 4.56e14,
                mem_bytes: 7.89e13,
                l3_bytes: 8.9e13,
                l2_bytes: 9.1e13,
            },
            breakdown,
            power: JobPower {
                package_w: 417.423,
                dram_w: 38.0001,
            },
            energy: EnergyBreakdown {
                cpu_j: 5.1e5,
                dram_j: 4.7e4,
                runtime_s: 1234.5678901234567,
            },
            timeline: Timeline::default(),
            profile: sample_profile(),
        }
    }

    fn results_equal(a: &RunResult, b: &RunResult) -> bool {
        a.benchmark == b.benchmark
            && a.cluster == b.cluster
            && a.class == b.class
            && a.nranks == b.nranks
            && a.nodes_used == b.nodes_used
            && a.step_seconds.to_bits() == b.step_seconds.to_bits()
            && a.step_seconds_min.to_bits() == b.step_seconds_min.to_bits()
            && a.step_seconds_max.to_bits() == b.step_seconds_max.to_bits()
            && a.runtime_s.to_bits() == b.runtime_s.to_bits()
            && a.counters == b.counters
            && a.breakdown == b.breakdown
            && a.power == b.power
            && a.energy.cpu_j.to_bits() == b.energy.cpu_j.to_bits()
            && a.energy.dram_j.to_bits() == b.energy.dram_j.to_bits()
            && a.profile == b.profile
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let r = sample_result();
        let key = "v3|minisweep|ClusterA|tiny|n=59|w=2|m=3|r=3|f=none";
        let text = encode_entry(key, &r);
        let back = decode_entry(&text, key).expect("decodes");
        assert!(results_equal(&r, &back));
        // Double round trip is a fixed point.
        assert_eq!(text, encode_entry(key, &back));
    }

    #[test]
    fn decode_rejects_wrong_key_and_schema() {
        let r = sample_result();
        let text = encode_entry("some-key", &r);
        assert!(decode_entry(&text, "other-key").is_none());
        let stale = text.replace(
            &format!("\"schema\": {CACHE_SCHEMA_VERSION}"),
            "\"schema\": 999",
        );
        assert!(decode_entry(&stale, "some-key").is_none());
    }

    #[test]
    fn key_canonical_and_hash_are_stable() {
        let cfg = RunConfig::default();
        let key = RunKey::new("ClusterA", "tealeaf", "tiny", 72, &cfg);
        assert_eq!(
            key.canonical(),
            "v3|tealeaf|ClusterA|tiny|n=72|w=2|m=3|r=3|f=none"
        );
        // Pin the hash: silently changing it would orphan every
        // existing cache entry.
        assert_eq!(key.hash_hex(), key.hash_hex());
        assert_eq!(key.hash_hex().len(), 16);
        let other = RunKey::new("ClusterA", "tealeaf", "tiny", 73, &cfg);
        assert_ne!(key.hash_hex(), other.hash_hex());
    }

    #[test]
    fn key_separates_run_rule_parameters() {
        let base = RunConfig::default();
        let key = RunKey::new("ClusterA", "lbm", "tiny", 8, &base);
        for cfg in [
            base.clone().with_warmup_steps(3),
            base.clone().with_measured_steps(5),
            base.clone().with_repetitions(1),
        ] {
            let k2 = RunKey::new("ClusterA", "lbm", "tiny", 8, &cfg);
            assert_ne!(key.canonical(), k2.canonical());
        }
        // Tracing does NOT change the key (traced runs skip the cache).
        let traced = base.clone().with_trace(true);
        assert_eq!(
            key.canonical(),
            RunKey::new("ClusterA", "lbm", "tiny", 8, &traced).canonical()
        );
        // Neither does the thread count: the parallel engine is
        // bit-identical to the sequential one, so any thread count may
        // replay a cached result.
        let parallel = base.clone().with_threads(8);
        assert_eq!(
            key.canonical(),
            RunKey::new("ClusterA", "lbm", "tiny", 8, &parallel).canonical()
        );
    }

    #[test]
    fn event_kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(event_kind_from_name(&kind.to_string()), Some(kind));
        }
        assert_eq!(event_kind_from_name("MPI_Frobnicate"), None);
    }

    #[test]
    fn in_memory_cache_round_trips() {
        let cache = RunCache::in_memory();
        let cfg = RunConfig::default();
        let key = RunKey::new("ClusterA", "minisweep", "tiny", 59, &cfg);
        assert!(cache.get(&key).is_none());
        let r = sample_result();
        cache.put(&key, &r);
        let hit = cache.get(&key).expect("hit");
        assert!(results_equal(&r, &hit));
        assert_eq!(cache.len_in_memory(), 1);
    }

    #[test]
    fn disabled_profile_round_trips() {
        let mut r = sample_result();
        r.profile = Profile::default();
        let key = "k";
        let back = decode_entry(&encode_entry(key, &r), key).unwrap();
        assert_eq!(back.profile, Profile::default());
        assert!(!back.profile.is_enabled());
    }

    #[test]
    fn metrics_classify_every_lookup() {
        let cache = RunCache::in_memory();
        let cfg = RunConfig::default();
        let key = RunKey::new("ClusterA", "lbm", "tiny", 8, &cfg);
        assert!(cache.get(&key).is_none()); // miss
        cache.put(&key, &sample_result()); // store
        cache.get(&key).unwrap(); // memory hit
        let m = cache.metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.hits_mem, 1);
        assert_eq!(m.hits_disk, 0);
        assert_eq!(m.corrupt, 0);
        assert_eq!(m.lookups(), 2);
    }

    #[test]
    fn corrupt_disk_entries_are_counted_not_swallowed() {
        let dir = std::env::temp_dir().join(format!("spechpc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::default();
        let key = RunKey::new("ClusterA", "soma", "tiny", 12, &cfg);

        // First process writes a valid entry…
        {
            let cache = RunCache::on_disk(&dir);
            cache.put(&key, &sample_result());
        }
        // …a fresh cache (cold memory) reads it back from disk.
        {
            let cache = RunCache::on_disk(&dir);
            assert!(cache.get(&key).is_some());
            let m = cache.metrics();
            assert_eq!(m.hits_disk, 1);
            assert_eq!(m.corrupt, 0);
        }
        // Truncate the file: the entry now exists but cannot decode.
        let path = dir.join(format!("{}.json", key.hash_hex()));
        std::fs::write(&path, "{ \"schema\": ").unwrap();
        {
            let cache = RunCache::on_disk(&dir);
            assert!(cache.get(&key).is_none());
            let m = cache.metrics();
            assert_eq!(m.corrupt, 1);
            assert_eq!(m.quarantined, 1);
            assert_eq!(m.misses, 0);
            // The bad file moved aside, preserving its name for
            // post-mortem inspection…
            assert!(!path.exists());
            let qpath = dir
                .join("quarantine")
                .join(format!("{}.json", key.hash_hex()));
            assert!(qpath.exists());
            // …so the next lookup is a clean miss and a re-run can
            // refill the slot.
            assert!(cache.get(&key).is_none());
            assert_eq!(cache.metrics().misses, 1);
            cache.put(&key, &sample_result());
        }
        {
            let cache = RunCache::on_disk(&dir);
            assert!(cache.get(&key).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_torn_entries_and_stale_temps_only() {
        let dir = std::env::temp_dir().join(format!("spechpc-scrub-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::default();
        let good_key = RunKey::new("ClusterA", "lbm", "tiny", 8, &cfg);
        let torn_key = RunKey::new("ClusterA", "soma", "tiny", 12, &cfg);
        {
            let cache = RunCache::on_disk(&dir);
            cache.put(&good_key, &sample_result());
            cache.put(&torn_key, &sample_result());
        }
        // Simulate a crash mid-write: a torn entry under the final name
        // (half the bytes) and a leftover temp file that never renamed.
        let torn_path = dir.join(format!("{}.json", torn_key.hash_hex()));
        let full = std::fs::read_to_string(&torn_path).unwrap();
        std::fs::write(&torn_path, &full[..full.len() / 2]).unwrap();
        let tmp_path = dir.join("deadbeef00000000.tmp.12345");
        std::fs::write(&tmp_path, "partial").unwrap();
        // An entry whose bytes decode but live under the wrong name is
        // torn too (a rename landed in the wrong slot).
        let misfiled = dir.join("0123456789abcdef.json");
        std::fs::write(&misfiled, &full).unwrap();

        let cache = RunCache::on_disk(&dir);
        assert_eq!(cache.scrub(), 3);
        assert_eq!(cache.metrics().torn_quarantined, 3);
        assert!(!torn_path.exists());
        assert!(!tmp_path.exists());
        assert!(!misfiled.exists());
        assert!(dir
            .join("quarantine")
            .join(torn_path.file_name().unwrap())
            .exists());
        // The sound entry survived and still decodes; a second scrub
        // finds nothing.
        assert!(cache.get(&good_key).is_some());
        assert_eq!(cache.scrub(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_leave_no_temp_files_behind() {
        let dir = std::env::temp_dir().join(format!("spechpc-fsync-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::default();
        let key = RunKey::new("ClusterB", "tealeaf", "tiny", 16, &cfg);
        let cache = RunCache::on_disk(&dir);
        cache.put(&key, &sample_result());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![format!("{}.json", key.hash_hex())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_by_hash_serves_identical_bytes_from_memory_and_disk() {
        let dir = std::env::temp_dir().join(format!("spechpc-hash-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::default();
        let key = RunKey::new("ClusterB", "pot3d", "tiny", 16, &cfg);
        let r = sample_result();

        let cache = RunCache::on_disk(&dir);
        assert!(cache.entry_by_hash(&key.hash_hex()).is_none());
        cache.put(&key, &r);
        let from_mem = cache.entry_by_hash(&key.hash_hex()).expect("memory entry");
        assert_eq!(from_mem, encode_entry(&key.canonical(), &r));

        // A cold cache over the same directory serves the same bytes
        // straight from the file.
        let cold = RunCache::on_disk(&dir);
        let from_disk = cold.entry_by_hash(&key.hash_hex()).expect("disk entry");
        assert_eq!(from_mem, from_disk);
        let back = decode_entry(&from_disk, &key.canonical()).expect("decodes");
        assert!(results_equal(&r, &back));

        // In-memory-only caches answer too; unknown hashes do not.
        let mem_only = RunCache::in_memory();
        mem_only.put(&key, &r);
        assert_eq!(mem_only.entry_by_hash(&key.hash_hex()), Some(from_mem));
        assert!(mem_only.entry_by_hash("0000000000000000").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_fault_plans() {
        use spechpc_simmpi::faults::{FaultEvent, FaultPlan, RankSet};
        let clean = RunConfig::default();
        let faulted = RunConfig::default().with_faults(FaultPlan {
            seed: 7,
            events: vec![FaultEvent::Straggler {
                rank: 3,
                slowdown: 1.5,
            }],
        });
        let reseeded = RunConfig::default().with_faults(FaultPlan {
            seed: 8,
            ..faulted.faults.clone()
        });
        let noisy = RunConfig::default().with_faults(FaultPlan {
            seed: 7,
            events: vec![FaultEvent::OsNoise {
                ranks: RankSet::All,
                amplitude: 0.05,
            }],
        });
        let keys: Vec<String> = [&clean, &faulted, &reseeded, &noisy]
            .iter()
            .map(|cfg| RunKey::new("ClusterA", "lbm", "tiny", 8, cfg).canonical())
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "fault plans must not collide");
            }
        }
    }
}
