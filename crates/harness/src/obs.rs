//! Rendering of the observability layer: profile and executor-metrics
//! tables (for the CLI) and their CSV artifacts under `results/`.
//!
//! The [`Profile`] is the simulator's ITAC analog (per-rank MPI time
//! breakdowns, Fig. 2 of the paper); [`ExecMetrics`] is its
//! LIKWID-counter analog for the execution layer itself. This module
//! turns both into the aligned text tables of [`report`](crate::report)
//! and into CSV files, so `cli profile` and `--metrics` share one code
//! path.
//!
//! The executor metrics are named once, in [`metrics_json`]: the
//! daemon's `GET /v1/metrics` object. The `--metrics` table and CSV
//! (printed by the CLI, flushed by `serve` on drain) are that object
//! run through [`flatten`], so `cache.hits_mem` is the row
//! `cache_hits_mem` and the three views cannot drift apart.

use std::io;
use std::path::{Path, PathBuf};

use spechpc_simmpi::profile::{Profile, Regime};

use crate::exec::ExecMetrics;
use crate::json::Json;
use crate::report::{fmt, pct, ReportError, Table};

/// Per-rank phase-split table — the Fig.-2-style MPI time breakdown.
/// Ends with an all-ranks TOTAL row.
pub fn profile_rank_table(title: &str, p: &Profile) -> Result<Table, ReportError> {
    let mut t = Table::new(
        title,
        &[
            "rank",
            "compute",
            "eager",
            "rdv stall",
            "recv wait",
            "coll wait",
            "fault stall",
            "comm %",
        ],
    );
    for (rank, ph) in p.per_rank.iter().enumerate() {
        t.row(vec![
            rank.to_string(),
            fmt(ph.compute_s),
            fmt(ph.eager_send_s),
            fmt(ph.rendezvous_stall_s),
            fmt(ph.recv_wait_s),
            fmt(ph.collective_wait_s),
            fmt(ph.fault_stall_s),
            pct(ph.comm_fraction() * 100.0),
        ])?;
    }
    let tot = p.totals();
    t.row(vec![
        "TOTAL".to_string(),
        fmt(tot.compute_s),
        fmt(tot.eager_send_s),
        fmt(tot.rendezvous_stall_s),
        fmt(tot.recv_wait_s),
        fmt(tot.collective_wait_s),
        fmt(tot.fault_stall_s),
        pct(tot.comm_fraction() * 100.0),
    ])?;
    Ok(t)
}

/// Message-size histogram table, both protocol regimes, non-empty
/// buckets only.
pub fn profile_histogram_table(title: &str, p: &Profile) -> Result<Table, ReportError> {
    let mut t = Table::new(title, &["regime", ">= bytes", "messages", "payload B"]);
    for (name, regime) in [("eager", Regime::Eager), ("rendezvous", Regime::Rendezvous)] {
        let hist = match regime {
            Regime::Eager => &p.eager_hist,
            Regime::Rendezvous => &p.rendezvous_hist,
        };
        for (bucket, b) in hist.iter().enumerate() {
            if b.count == 0 && b.bytes == 0 {
                continue;
            }
            t.row(vec![
                name.to_string(),
                spechpc_simmpi::profile::bucket_floor(bucket).to_string(),
                b.count.to_string(),
                b.bytes.to_string(),
            ])?;
        }
    }
    Ok(t)
}

/// The heaviest sender→receiver pairs of the communication matrix
/// (ITAC message-statistics view), at most `top` rows.
pub fn profile_matrix_table(title: &str, p: &Profile, top: usize) -> Result<Table, ReportError> {
    let mut pairs: Vec<(usize, usize, u64)> = Vec::new();
    for from in 0..p.nranks {
        for to in 0..p.nranks {
            let bytes = p.bytes_between(from, to);
            if bytes > 0 {
                pairs.push((from, to, bytes));
            }
        }
    }
    // Heaviest first; ties broken by (from, to) so the output is stable.
    pairs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    pairs.truncate(top);
    let mut t = Table::new(title, &["from", "to", "payload B"]);
    for (from, to, bytes) in pairs {
        t.row(vec![from.to_string(), to.to_string(), bytes.to_string()])?;
    }
    Ok(t)
}

/// The daemon's `GET /v1/metrics` object — the one place the executor
/// and cache metrics are named. The `--metrics` table and CSV are this
/// object run through [`flatten`].
pub fn metrics_json(m: &ExecMetrics) -> Json {
    let c = &m.cache;
    Json::Obj(vec![
        ("runs_executed".into(), Json::from(m.runs_executed)),
        ("peer_hits".into(), Json::from(m.peer_hits)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits_mem".into(), Json::from(c.hits_mem)),
                ("hits_disk".into(), Json::from(c.hits_disk)),
                ("misses".into(), Json::from(c.misses)),
                ("corrupt".into(), Json::from(c.corrupt)),
                ("quarantined".into(), Json::from(c.quarantined)),
                ("torn_quarantined".into(), Json::from(c.torn_quarantined)),
                ("stores".into(), Json::from(c.stores)),
            ]),
        ),
        (
            "per_worker_runs".into(),
            Json::Arr(m.per_worker_runs.iter().map(|&r| Json::from(r)).collect()),
        ),
        ("points_timed".into(), Json::from(m.point_wall_s.len())),
        ("total_wall_s".into(), Json::from(m.total_wall_s())),
    ])
}

/// `(path, value)` rows of a JSON object in document order: nested keys
/// join with `_` and array items take their index, so `cache.hits_mem`
/// becomes `cache_hits_mem` and `per_worker_runs[0]` `per_worker_runs_0`.
/// Values are the leaves' JSON renderings.
pub fn flatten(v: &Json) -> Vec<(String, String)> {
    fn walk(path: &str, v: &Json, out: &mut Vec<(String, String)>) {
        let child = |k: &str| match path {
            "" => k.to_string(),
            _ => format!("{path}_{k}"),
        };
        match v {
            Json::Obj(fields) => {
                for (k, x) in fields {
                    walk(&child(k), x, out);
                }
            }
            Json::Arr(items) => {
                for (i, x) in items.iter().enumerate() {
                    walk(&child(&i.to_string()), x, out);
                }
            }
            leaf => out.push((path.to_string(), leaf.render())),
        }
    }
    let mut out = Vec::new();
    walk("", v, &mut out);
    out
}

/// Executor/cache counters as one `metric`/`value` table.
pub fn metrics_table(title: &str, m: &ExecMetrics) -> Result<Table, ReportError> {
    let mut t = Table::new(title, &["metric", "value"]);
    for (name, value) in flatten(&metrics_json(m)) {
        t.row(vec![name, value])?;
    }
    Ok(t)
}

/// Executor/cache counters as CSV: one `metric,value` line per metric,
/// then the per-point ledger, one `wall_s,<label>,<seconds>` line per
/// timed grid point.
pub fn metrics_to_csv(m: &ExecMetrics) -> String {
    let mut out = String::from("metric,value\n");
    for (name, value) in flatten(&metrics_json(m)) {
        out.push_str(&format!("{name},{value}\n"));
    }
    out.push_str("\nwall_s,label,seconds\n");
    for (label, secs) in &m.point_wall_s {
        out.push_str(&format!("wall_s,{label},{secs:.6}\n"));
    }
    out
}

/// Write the three profile CSV views under `dir` with a common `stem`:
/// `<stem>_ranks.csv`, `<stem>_hist.csv`, `<stem>_matrix.csv`.
/// Returns the written paths.
pub fn write_profile_csvs(dir: &Path, stem: &str, p: &Profile) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let files = [
        (format!("{stem}_ranks.csv"), p.ranks_to_csv()),
        (format!("{stem}_hist.csv"), p.histogram_to_csv()),
        (format!("{stem}_matrix.csv"), p.matrix_to_csv()),
    ];
    let mut written = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

/// Write the executor metrics CSV under `dir` as `<stem>.csv`.
pub fn write_metrics_csv(dir: &Path, stem: &str, m: &ExecMetrics) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.csv"));
    std::fs::write(&path, metrics_to_csv(m))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMetrics;
    use spechpc_simmpi::profile::Phase;

    fn sample_profile() -> Profile {
        let mut p = Profile::new(2);
        p.record_phase(0, Phase::Compute, 2.0);
        p.record_phase(1, Phase::RecvWait, 1.5);
        p.record_phase(1, Phase::Compute, 0.5);
        p.record_message(0, 1, 4096, Regime::Eager);
        p.record_message(1, 0, 1 << 20, Regime::Rendezvous);
        p
    }

    #[test]
    fn rank_table_has_total_row_and_fractions() {
        let t = profile_rank_table("demo", &sample_profile()).unwrap();
        assert_eq!(t.rows.len(), 3); // 2 ranks + TOTAL
        assert_eq!(t.rows[2][0], "TOTAL");
        assert_eq!(t.rows[1][7], "75%"); // rank 1: 1.5 of 2.0 s in MPI
    }

    #[test]
    fn histogram_table_lists_both_regimes() {
        let t = profile_histogram_table("h", &sample_profile()).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "eager");
        assert_eq!(t.rows[1][0], "rendezvous");
        assert_eq!(t.rows[0][1], "4096");
    }

    #[test]
    fn matrix_table_is_heaviest_first_and_bounded() {
        let t = profile_matrix_table("m", &sample_profile(), 10).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][2], (1u64 << 20).to_string());
        let t1 = profile_matrix_table("m", &sample_profile(), 1).unwrap();
        assert_eq!(t1.rows.len(), 1);
    }

    fn sample_metrics() -> ExecMetrics {
        ExecMetrics {
            runs_executed: 3,
            peer_hits: 5,
            cache: CacheMetrics {
                hits_mem: 2,
                hits_disk: 1,
                misses: 3,
                corrupt: 7,
                quarantined: 6,
                torn_quarantined: 4,
                stores: 3,
            },
            per_worker_runs: vec![4, 2],
            point_wall_s: vec![("lbm/tiny/4@ClusterA".into(), 0.0123)],
        }
    }

    #[test]
    fn metrics_render_as_table_and_csv() {
        let m = sample_metrics();
        let t = metrics_table("metrics", &m).unwrap();
        assert!(t.render().contains("cache_hits_mem"));
        let csv = metrics_to_csv(&m);
        assert!(csv.contains("cache_hits_mem,2"));
        assert!(csv.contains("per_worker_runs_1,2"));
        assert!(csv.contains("wall_s,lbm/tiny/4@ClusterA,0.012300"));
    }

    #[test]
    fn table_and_csv_rows_are_the_flattened_metrics_object() {
        let m = sample_metrics();
        // The daemon's `GET /v1/metrics` body, byte for byte.
        let body = metrics_json(&m).render();
        assert_eq!(
            body,
            "{\"runs_executed\":3,\"peer_hits\":5,\"cache\":{\"hits_mem\":2,\"hits_disk\":1,\
             \"misses\":3,\"corrupt\":7,\"quarantined\":6,\"torn_quarantined\":4,\"stores\":3},\
             \"per_worker_runs\":[4,2],\"points_timed\":1,\"total_wall_s\":0.0123}"
        );
        let rows = flatten(&crate::json::parse_json(&body).unwrap());
        let names: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "runs_executed",
                "peer_hits",
                "cache_hits_mem",
                "cache_hits_disk",
                "cache_misses",
                "cache_corrupt",
                "cache_quarantined",
                "cache_torn_quarantined",
                "cache_stores",
                "per_worker_runs_0",
                "per_worker_runs_1",
                "points_timed",
                "total_wall_s",
            ]
        );
        let table: Vec<(String, String)> = metrics_table("m", &m)
            .unwrap()
            .rows
            .into_iter()
            .map(|r| (r[0].clone(), r[1].clone()))
            .collect();
        assert_eq!(table, rows);
        let csv = metrics_to_csv(&m);
        let csv_rows: Vec<(String, String)> = csv
            .lines()
            .skip(1)
            .take_while(|l| !l.is_empty())
            .map(|l| {
                let (k, v) = l.split_once(',').unwrap();
                (k.to_string(), v.to_string())
            })
            .collect();
        assert_eq!(csv_rows, rows);
    }

    #[test]
    fn csv_files_land_on_disk_non_empty() {
        let dir = std::env::temp_dir().join(format!("spechpc-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_profile_csvs(&dir, "lbm_tiny", &sample_profile()).unwrap();
        assert_eq!(written.len(), 3);
        for path in &written {
            let body = std::fs::read_to_string(path).unwrap();
            assert!(body.lines().count() >= 2, "{path:?} must have data rows");
        }
        let mpath = write_metrics_csv(&dir, "metrics", &ExecMetrics::default()).unwrap();
        assert!(std::fs::read_to_string(&mpath)
            .unwrap()
            .contains("metric,value"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
