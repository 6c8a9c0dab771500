//! Loading fault plans from `.toml` files (see `plans/` in the repo
//! root for examples).
//!
//! The workspace carries no external dependencies, so this is a
//! hand-rolled parser for the TOML subset fault plans actually use:
//! top-level `key = value` pairs, `[[event]]` array-of-table headers,
//! quoted strings, numbers and `#` comments. Anything fancier
//! (nested tables, arrays, multi-line strings) is rejected with a
//! line-numbered error. Chaos plans ([`chaos`](crate::chaos)) are read
//! by the same table reader, with `[[fault]]` sections.
//!
//! ## Plan format
//!
//! ```toml
//! seed = 42                    # optional, default 0; CLI --fault-seed overrides
//!
//! [[event]]
//! kind = "os-noise"            # per-rank compute jitter
//! ranks = "all"                # "all", "5", or "0,4,7"
//! amplitude = 0.08             # mean relative inflation
//!
//! [[event]]
//! kind = "straggler"           # one persistently slow rank
//! rank = 5
//! slowdown = 1.35              # multiplies every compute op
//!
//! [[event]]
//! kind = "flaky-link"          # degraded wire, one direction
//! from = 0
//! to = 12
//! drop_prob = 0.02             # per-transfer retransmit probability
//! retransmit_latency_s = 25e-6
//!
//! [[event]]
//! kind = "throttle"            # thermal / power-cap window
//! ranks = "all"
//! t_start_s = 0.5
//! t_end_s = 2.0
//! slowdown = 1.25              # either given directly…
//! # cap_ghz = 1.6              # …or derived from a frequency cap via
//! # base_clock_ghz = 2.4       #    spechpc_power::dvfs::throttle_slowdown
//! # flops_fraction = 0.6       #    (optional, default 0.6)
//!
//! [[event]]
//! kind = "crash"               # hard rank failure, MPI-abort semantics
//! rank = 3
//! at_s = 1.0
//! ```

use std::collections::HashMap;
use std::path::Path;

use spechpc_power::dvfs::throttle_slowdown;
use spechpc_simmpi::faults::{FaultEvent, FaultPlan, RankSet};

/// Share of the base-clock runtime assumed frequency-sensitive when a
/// throttle event gives a frequency cap without a `flops_fraction`.
const DEFAULT_FLOPS_FRACTION: f64 = 0.6;

/// A fault-plan file could not be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line of the offending input, when attributable.
    pub line: Option<usize>,
    pub message: String,
}

impl PlanError {
    pub(crate) fn at(line: usize, message: impl Into<String>) -> Self {
        PlanError {
            line: Some(line),
            message: message.into(),
        }
    }

    pub(crate) fn new(message: impl Into<String>) -> Self {
        PlanError {
            line: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "fault plan line {line}: {}", self.message),
            None => write!(f, "fault plan: {}", self.message),
        }
    }
}

impl std::error::Error for PlanError {}

/// One parsed value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
}

/// One `key = value` table with the line each key was set on, and the
/// noun its section's errors use (`event`, `fault`).
#[derive(Debug)]
pub(crate) struct TableData {
    entries: HashMap<String, (Value, usize)>,
    noun: &'static str,
}

impl TableData {
    fn new(noun: &'static str) -> Self {
        TableData {
            entries: HashMap::new(),
            noun,
        }
    }

    pub(crate) fn str(&self, key: &str) -> Option<Result<&str, PlanError>> {
        self.entries.get(key).map(|(v, line)| match v {
            Value::Str(s) => Ok(s.as_str()),
            Value::Num(_) => Err(PlanError::at(*line, format!("'{key}' must be a string"))),
        })
    }

    pub(crate) fn num(&self, key: &str) -> Option<Result<f64, PlanError>> {
        self.entries.get(key).map(|(v, line)| match v {
            Value::Num(n) => Ok(*n),
            Value::Str(_) => Err(PlanError::at(*line, format!("'{key}' must be a number"))),
        })
    }

    pub(crate) fn require_num(&self, key: &str, kind: &str, line: usize) -> Result<f64, PlanError> {
        self.num(key).unwrap_or_else(|| {
            Err(PlanError::at(
                line,
                format!("'{kind}' {} needs '{key}'", self.noun),
            ))
        })
    }

    /// A required non-negative integer (a rank, a byte count).
    pub(crate) fn require_count(
        &self,
        key: &str,
        kind: &str,
        line: usize,
    ) -> Result<u64, PlanError> {
        count(key, self.require_num(key, kind, line)?, line)
    }

    /// An optional non-negative integer, `default` when absent.
    pub(crate) fn count_or(&self, key: &str, default: u64, line: usize) -> Result<u64, PlanError> {
        match self.num(key).transpose()? {
            Some(n) => count(key, n, line),
            None => Ok(default),
        }
    }
}

fn count(key: &str, n: f64, line: usize) -> Result<u64, PlanError> {
    if n < 0.0 || n.fract() != 0.0 {
        return Err(PlanError::at(
            line,
            format!("'{key}' must be a non-negative integer, got {n}"),
        ));
    }
    Ok(n as u64)
}

/// Load and validate a fault plan from a `.toml` file.
pub fn load_plan(path: &Path) -> Result<FaultPlan, PlanError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PlanError::new(format!("cannot read {}: {e}", path.display())))?;
    parse_plan(&text)
}

/// Parse and validate a fault plan from TOML text.
pub fn parse_plan(text: &str) -> Result<FaultPlan, PlanError> {
    let (seed, events) = parse_sections(text, "event")?;
    let events = events
        .iter()
        .map(|(t, line)| convert_event(t, *line))
        .collect::<Result<Vec<FaultEvent>, PlanError>>()?;

    let plan = FaultPlan { seed, events };
    plan.validate().map_err(PlanError::new)?;
    Ok(plan)
}

/// The first pass both plan dialects share (fault plans here, chaos
/// plans in [`chaos`](crate::chaos)): split `text` into the top-level
/// table and one table per `[[section]]` header, recording each
/// header's line, and read the top-level `seed` (default 0), the only
/// top-level key.
pub(crate) fn parse_sections(
    text: &str,
    section: &'static str,
) -> Result<(u64, Vec<(TableData, usize)>), PlanError> {
    let header = format!("[[{section}]]");
    let mut top = TableData::new(section);
    let mut tables: Vec<(TableData, usize)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == header {
            tables.push((TableData::new(section), lineno));
            continue;
        }
        if line.starts_with('[') {
            return Err(PlanError::at(
                lineno,
                format!("unsupported section '{line}' (only {header} is recognized)"),
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(PlanError::at(
                lineno,
                format!("expected 'key = value', got '{line}'"),
            ));
        };
        let key = key.trim().to_string();
        let value = parse_value(value.trim(), lineno)?;
        let table = match tables.last_mut() {
            Some((t, _)) => t,
            None => &mut top,
        };
        if table.entries.insert(key.clone(), (value, lineno)).is_some() {
            return Err(PlanError::at(lineno, format!("duplicate key '{key}'")));
        }
    }

    let seed = match top.num("seed").transpose()? {
        Some(s) if s >= 0.0 && s.fract() == 0.0 => s as u64,
        Some(s) => {
            return Err(PlanError::new(format!(
                "seed must be a non-negative integer, got {s}"
            )))
        }
        None => 0,
    };
    for key in top.entries.keys() {
        if key != "seed" {
            return Err(PlanError::new(format!("unknown top-level key '{key}'")));
        }
    }
    Ok((seed, tables))
}

/// Drop a `#` comment, respecting (single-line, non-escaping) quoted
/// strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, line: usize) -> Result<Value, PlanError> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(PlanError::at(line, format!("unterminated string: {text}")));
        };
        if inner.contains('"') {
            return Err(PlanError::at(
                line,
                format!("stray quote in string: {text}"),
            ));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| PlanError::at(line, format!("cannot parse value '{text}'")))
}

fn parse_rank_set(text: &str, line: usize) -> Result<RankSet, PlanError> {
    if text == "all" {
        return Ok(RankSet::All);
    }
    let ranks = text
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| PlanError::at(line, format!("bad rank '{}' in rank set", part.trim())))
        })
        .collect::<Result<Vec<usize>, PlanError>>()?;
    match ranks.as_slice() {
        [] => Err(PlanError::at(line, "empty rank set")),
        [one] => Ok(RankSet::One(*one)),
        _ => Ok(RankSet::List(ranks)),
    }
}

fn convert_event(t: &TableData, line: usize) -> Result<FaultEvent, PlanError> {
    let kind = t
        .str("kind")
        .unwrap_or_else(|| Err(PlanError::at(line, "event needs a 'kind'")))?;
    let ranks = |keys: &[&str]| -> Result<RankSet, PlanError> {
        match t.str("ranks").transpose()? {
            Some(text) => parse_rank_set(text, line),
            None => Err(PlanError::at(line, format!("'{kind}' event needs 'ranks'"))),
        }
        .and_then(|set| {
            check_keys(t, keys, kind, line)?;
            Ok(set)
        })
    };
    match kind {
        "os-noise" => {
            let amplitude = t.require_num("amplitude", kind, line)?;
            let ranks = ranks(&["kind", "ranks", "amplitude"])?;
            Ok(FaultEvent::OsNoise { ranks, amplitude })
        }
        "straggler" => {
            check_keys(t, &["kind", "rank", "slowdown"], kind, line)?;
            Ok(FaultEvent::Straggler {
                rank: t.require_count("rank", kind, line)? as usize,
                slowdown: t.require_num("slowdown", kind, line)?,
            })
        }
        "flaky-link" => {
            check_keys(
                t,
                &["kind", "from", "to", "drop_prob", "retransmit_latency_s"],
                kind,
                line,
            )?;
            Ok(FaultEvent::FlakyLink {
                from: t.require_count("from", kind, line)? as usize,
                to: t.require_count("to", kind, line)? as usize,
                drop_prob: t.require_num("drop_prob", kind, line)?,
                retransmit_latency_s: t.require_num("retransmit_latency_s", kind, line)?,
            })
        }
        "throttle" => {
            let slowdown = match (
                t.num("slowdown").transpose()?,
                t.num("cap_ghz").transpose()?,
            ) {
                (Some(_), Some(_)) => {
                    return Err(PlanError::at(
                        line,
                        "'throttle' takes either 'slowdown' or 'cap_ghz', not both",
                    ))
                }
                (Some(s), None) => {
                    check_keys(
                        t,
                        &["kind", "ranks", "t_start_s", "t_end_s", "slowdown"],
                        kind,
                        line,
                    )?;
                    s
                }
                (None, Some(cap)) => {
                    check_keys(
                        t,
                        &[
                            "kind",
                            "ranks",
                            "t_start_s",
                            "t_end_s",
                            "cap_ghz",
                            "base_clock_ghz",
                            "flops_fraction",
                        ],
                        kind,
                        line,
                    )?;
                    let base = t.require_num("base_clock_ghz", kind, line)?;
                    let phi = t
                        .num("flops_fraction")
                        .transpose()?
                        .unwrap_or(DEFAULT_FLOPS_FRACTION);
                    // Written so that NaN fails too: `throttle_slowdown`
                    // asserts positive clocks.
                    if !(base > 0.0 && cap > 0.0) {
                        return Err(PlanError::at(line, "clocks must be positive"));
                    }
                    throttle_slowdown(base, cap, phi)
                }
                (None, None) => {
                    return Err(PlanError::at(
                        line,
                        "'throttle' needs 'slowdown' or 'cap_ghz' + 'base_clock_ghz'",
                    ))
                }
            };
            let ranks = match t.str("ranks").transpose()? {
                Some(text) => parse_rank_set(text, line)?,
                None => return Err(PlanError::at(line, "'throttle' event needs 'ranks'")),
            };
            Ok(FaultEvent::Throttle {
                ranks,
                t_start_s: t.require_num("t_start_s", kind, line)?,
                t_end_s: t.require_num("t_end_s", kind, line)?,
                slowdown,
            })
        }
        "crash" => {
            check_keys(t, &["kind", "rank", "at_s"], kind, line)?;
            Ok(FaultEvent::Crash {
                rank: t.require_count("rank", kind, line)? as usize,
                at_s: t.require_num("at_s", kind, line)?,
            })
        }
        other => Err(PlanError::at(
            line,
            format!(
                "unknown event kind '{other}' \
                 (expected os-noise, straggler, flaky-link, throttle or crash)"
            ),
        )),
    }
}

/// Reject keys the section's kind does not understand — a typo in a
/// plan must not silently become a no-op.
pub(crate) fn check_keys(
    t: &TableData,
    allowed: &[&str],
    kind: &str,
    line: usize,
) -> Result<(), PlanError> {
    for key in t.entries.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(PlanError::at(
                line,
                format!("'{kind}' {} does not take '{key}'", t.noun),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_round_trips_every_event_kind() {
        let text = r#"
# a kitchen-sink plan
seed = 42

[[event]]
kind = "os-noise"
ranks = "all"
amplitude = 0.08

[[event]]
kind = "straggler"
rank = 5
slowdown = 1.35

[[event]]
kind = "flaky-link"
from = 0
to = 12
drop_prob = 0.02
retransmit_latency_s = 25e-6

[[event]]
kind = "throttle"
ranks = "0,4,7"   # the hot sockets
t_start_s = 0.5
t_end_s = 2.0
slowdown = 1.25

[[event]]
kind = "crash"
rank = 3
at_s = 1.0
"#;
        let plan = parse_plan(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.events.len(), 5);
        assert!(matches!(
            plan.events[0],
            FaultEvent::OsNoise {
                ranks: RankSet::All,
                ..
            }
        ));
        assert!(matches!(
            plan.events[3],
            FaultEvent::Throttle {
                ranks: RankSet::List(ref l),
                ..
            } if l == &[0, 4, 7]
        ));
        assert!(matches!(plan.events[4], FaultEvent::Crash { rank: 3, .. }));
    }

    #[test]
    fn frequency_caps_convert_to_slowdowns() {
        let text = r#"
[[event]]
kind = "throttle"
ranks = "all"
t_start_s = 0.0
t_end_s = 10.0
cap_ghz = 1.2
base_clock_ghz = 2.4
flops_fraction = 1.0
"#;
        let plan = parse_plan(text).unwrap();
        let FaultEvent::Throttle { slowdown, .. } = plan.events[0] else {
            panic!("expected a throttle event");
        };
        // Pure compute at half clock: exactly 2×.
        assert!((slowdown - 2.0).abs() < 1e-12, "slowdown {slowdown}");
    }

    #[test]
    fn empty_input_is_the_empty_plan() {
        let plan = parse_plan("# nothing but comments\n\n").unwrap();
        assert!(plan.is_none());
    }

    #[test]
    fn errors_carry_line_numbers_and_reject_typos() {
        let bad_kind =
            parse_plan("[[event]]\nkind = \"os-nose\"\nranks = \"all\"\namplitude = 0.1\n");
        let e = bad_kind.unwrap_err();
        assert!(e.to_string().contains("os-nose"), "{e}");

        let typo = parse_plan("[[event]]\nkind = \"crash\"\nrank = 3\nat = 1.0\n");
        let e = typo.unwrap_err();
        assert!(e.to_string().contains("does not take 'at'"), "{e}");

        let syntax = parse_plan("seed 42\n");
        let e = syntax.unwrap_err();
        assert_eq!(e.line, Some(1));

        let both = parse_plan(
            "[[event]]\nkind = \"throttle\"\nranks = \"all\"\nt_start_s = 0.0\nt_end_s = 1.0\nslowdown = 1.5\ncap_ghz = 1.0\n",
        );
        assert!(both.unwrap_err().to_string().contains("not both"));
    }

    #[test]
    fn invalid_physics_fail_validation() {
        // drop_prob = 1.0 would retransmit forever; FaultPlan::validate
        // rejects it.
        let e = parse_plan(
            "[[event]]\nkind = \"flaky-link\"\nfrom = 0\nto = 1\ndrop_prob = 1.0\nretransmit_latency_s = 1e-6\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("drop_prob"), "{e}");
        // A NaN clock is refused before the slowdown law sees it.
        let e = parse_plan(
            "[[event]]\nkind = \"throttle\"\nranks = \"all\"\nt_start_s = 0.0\nt_end_s = 1.0\ncap_ghz = nan\nbase_clock_ghz = 2.4\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("clocks must be positive"), "{e}");
        // The wire cannot carry an infinite window end (it would come
        // back as NaN), so the plan is refused here.
        let e = parse_plan(
            "[[event]]\nkind = \"throttle\"\nranks = \"all\"\nt_start_s = 0.5\nt_end_s = inf\nslowdown = 1.25\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("must be finite"), "{e}");
    }

    #[test]
    fn load_plan_reads_files_and_reports_missing_ones() {
        let dir = std::env::temp_dir().join(format!("spechpc-faultcfg-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.toml");
        std::fs::write(
            &path,
            "seed = 7\n[[event]]\nkind = \"straggler\"\nrank = 1\nslowdown = 2.0\n",
        )
        .unwrap();
        let plan = load_plan(&path).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 1);
        let missing = load_plan(&dir.join("absent.toml")).unwrap_err();
        assert!(missing.to_string().contains("cannot read"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
