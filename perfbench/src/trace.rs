//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records one public call: its name (`layer.part`), start and
//! end on a clock shared by every recorder of a run, the span that
//! caused it, the op it belongs to, and a work count. Where a layer
//! keeps its steps private, the benchmark re-issues the public calls
//! that layer makes on the same inputs and records them as the
//! layer span's children; those children then lie outside the parent's
//! interval, and [`self_times`] treats both kinds of children alike.

use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<usize>,
    pub op: usize,
    /// Work done inside the call (simulated ops, bytes, …), or 0.
    pub count: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans; one per thread, merged at the end of a run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` and return its result and the
    /// span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            count: 0,
        });
        (out, self.spans.len() - 1)
    }

    /// Set the work count of span `id`.
    pub fn count(&mut self, id: usize, count: u64) {
        self.spans[id].count = count;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, shifting parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span in ms: its duration minus the time covered
/// by the union of its direct children's intervals (overlapping
/// children count once, grandchildren not at all).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ms() - covered as f64 / 1e6
        })
        .collect()
}

/// Durations (ms) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self times (ms) of the spans named `name`, from [`self_times`].
pub fn selfs_of(spans: &[Span], selfs: &[f64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, v)| *v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            count: 0,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn nested_children_subtract_only_from_their_own_parent() {
        let spans = vec![
            span("serve.rtt", 0, 10 * MS, None),
            span("api.decode", MS, 4 * MS, Some(0)),
            span("api.parse", 2 * MS, 3 * MS, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![7.0, 2.0, 1.0]);
        let total: f64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].ms());
    }

    #[test]
    fn overlapping_siblings_count_once_and_disjoint_ones_add() {
        let spans = vec![
            span("exec.grid", 0, 10 * MS, None),
            span("runner.a", MS, 5 * MS, Some(0)),
            span("runner.b", 3 * MS, 6 * MS, Some(0)),
            span("runner.c", 8 * MS, 9 * MS, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn reissued_children_outside_the_parent_interval_subtract_by_duration() {
        let spans = vec![
            span("exec.run", 0, 10 * MS, None),
            span("runner.run", 20 * MS, 26 * MS, Some(0)),
            span("simmpi.engine", 30 * MS, 34 * MS, Some(1)),
            span("cache.put", 40 * MS, 41 * MS, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3.0, 2.0, 4.0, 1.0]);
        assert_eq!(selfs.iter().sum::<f64>(), spans[0].ms());
    }

    #[test]
    fn merge_keeps_parents_within_their_part() {
        let a = vec![span("x.a", 0, 1, None), span("x.b", 0, 1, Some(0))];
        let b = vec![span("y.a", 0, 1, None), span("y.b", 0, 1, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].layer(), "y");
    }
}
