//! Per-rank execution timelines — the ITAC analog.
//!
//! The engine emits one [`TraceEvent`] per executed operation. The
//! [`Timeline`] groups them per rank and computes the runtime breakdowns
//! the paper reports (e.g. minisweep at 59 processes on ClusterA: "75 %
//! of the time is spent in `MPI_Recv`, 5.5 % in `MPI_Sendrecv`, 19.5 % in
//! computation"). [`Timeline::render_ascii`] draws the Fig. 2-inset style
//! timelines.

use std::collections::BTreeMap;

/// The category of a timeline interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    Compute,
    Send,
    Recv,
    Sendrecv,
    Wait,
    Allreduce,
    Barrier,
    Bcast,
    Reduce,
    Allgather,
    Alltoall,
}

impl EventKind {
    /// Single-character glyph for ASCII rendering. Matches the paper's
    /// inset colouring: computation (blue → `#`), receives/waits
    /// (red → `r`/`w`), sends (yellow → `s`), collectives (`A`/`B`).
    pub fn glyph(self) -> char {
        match self {
            EventKind::Compute => '#',
            EventKind::Send => 's',
            EventKind::Recv => 'r',
            EventKind::Sendrecv => 'x',
            EventKind::Wait => 'w',
            EventKind::Allreduce => 'A',
            EventKind::Barrier => 'B',
            EventKind::Bcast => 'b',
            EventKind::Reduce => 'R',
            EventKind::Allgather => 'g',
            EventKind::Alltoall => 't',
        }
    }

    pub fn is_mpi(self) -> bool {
        self != EventKind::Compute
    }

    /// The MPI routine name (`"Compute"` for computation) that reports,
    /// CSVs and cache entries print.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::Compute => "Compute",
            EventKind::Send => "MPI_Send",
            EventKind::Recv => "MPI_Recv",
            EventKind::Sendrecv => "MPI_Sendrecv",
            EventKind::Wait => "MPI_Wait",
            EventKind::Allreduce => "MPI_Allreduce",
            EventKind::Barrier => "MPI_Barrier",
            EventKind::Bcast => "MPI_Bcast",
            EventKind::Reduce => "MPI_Reduce",
            EventKind::Allgather => "MPI_Allgather",
            EventKind::Alltoall => "MPI_Alltoall",
        }
    }

    /// All kinds, in a fixed order (the engine's online breakdown
    /// arrays index into this).
    pub const ALL: [EventKind; 11] = [
        EventKind::Compute,
        EventKind::Send,
        EventKind::Recv,
        EventKind::Sendrecv,
        EventKind::Wait,
        EventKind::Allreduce,
        EventKind::Barrier,
        EventKind::Bcast,
        EventKind::Reduce,
        EventKind::Allgather,
        EventKind::Alltoall,
    ];

    /// Number of event kinds (array dimension for per-kind counters).
    pub const COUNT: usize = Self::ALL.len();

    /// Index of this kind in [`EventKind::ALL`]. The engine's hot path
    /// indexes its per-kind counters with this instead of scanning
    /// `ALL`; `ALL` is declared in discriminant order, which a unit
    /// test (`all_order_matches_discriminants`) pins.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One interval on one rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub rank: usize,
    pub start: f64,
    pub end: f64,
    pub kind: EventKind,
}

impl TraceEvent {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Runtime fractions per event kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds per kind.
    pub seconds: BTreeMap<EventKind, f64>,
    /// Total seconds covered.
    pub total: f64,
}

impl Breakdown {
    pub fn fraction(&self, kind: EventKind) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.seconds.get(&kind).copied().unwrap_or(0.0) / self.total
    }

    /// Fraction of the time spent in any MPI call.
    pub fn mpi_fraction(&self) -> f64 {
        EventKind::ALL
            .iter()
            .filter(|k| k.is_mpi())
            .map(|&k| self.fraction(k))
            .sum()
    }

    /// The MPI kind with the largest share, if any time is covered.
    pub fn dominant_mpi(&self) -> Option<EventKind> {
        EventKind::ALL
            .iter()
            .filter(|k| k.is_mpi())
            .copied()
            .max_by(|a, b| {
                self.fraction(*a)
                    .partial_cmp(&self.fraction(*b))
                    .expect("fractions are finite")
            })
            .filter(|&k| self.fraction(k) > 0.0)
    }
}

/// All events of a simulated run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub nranks: usize,
    pub events: Vec<TraceEvent>,
}

impl Timeline {
    pub fn new(nranks: usize) -> Self {
        Timeline {
            nranks,
            events: Vec::new(),
        }
    }

    pub fn record(&mut self, rank: usize, start: f64, end: f64, kind: EventKind) {
        debug_assert!(end >= start, "event ends before it starts");
        // Zero-length intervals add nothing to any breakdown.
        if end > start {
            self.events.push(TraceEvent {
                rank,
                start,
                end,
                kind,
            });
        }
    }

    /// Append every event of a partition timeline, preserving its
    /// recording order. The per-rank event streams — the only ordering
    /// [`Timeline`] promises (see [`Timeline::rank_events`]; the global
    /// interleaving is scheduler-visiting-order and not part of the
    /// contract) — are owner-recorded by exactly one partition, so
    /// absorbing partitions in any order reproduces the sequential
    /// engine's per-rank streams exactly.
    pub fn absorb(&mut self, part: &Timeline) {
        debug_assert_eq!(self.nranks, part.nranks, "timelines of different runs");
        self.events.extend_from_slice(&part.events);
    }

    /// Events of one rank, in time order.
    pub fn rank_events(&self, rank: usize) -> Vec<TraceEvent> {
        let mut ev: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.rank == rank)
            .copied()
            .collect();
        ev.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"));
        ev
    }

    /// End of the last event (the makespan).
    pub fn end_time(&self) -> f64 {
        self.events.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Aggregate breakdown over all ranks.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for e in &self.events {
            *b.seconds.entry(e.kind).or_insert(0.0) += e.duration();
            b.total += e.duration();
        }
        b
    }

    /// Breakdown for a single rank.
    pub fn rank_breakdown(&self, rank: usize) -> Breakdown {
        let mut b = Breakdown::default();
        for e in self.events.iter().filter(|e| e.rank == rank) {
            *b.seconds.entry(e.kind).or_insert(0.0) += e.duration();
            b.total += e.duration();
        }
        b
    }

    /// Render an ASCII timeline: one row per rank, `width` time bins; the
    /// glyph of the kind covering the majority of each bin is printed.
    /// Gaps (rank idle in the model, e.g. before a resume) print `.`.
    pub fn render_ascii(&self, width: usize) -> String {
        let t_end = self.end_time();
        if t_end <= 0.0 || width == 0 {
            return String::new();
        }
        let mut out = String::new();
        for rank in 0..self.nranks {
            let events = self.rank_events(rank);
            let mut row = vec!['.'; width];
            for (i, cell) in row.iter_mut().enumerate() {
                let bin_start = t_end * i as f64 / width as f64;
                let bin_end = t_end * (i + 1) as f64 / width as f64;
                // Find the kind with maximal overlap in this bin.
                let mut best = ('.', 0.0);
                for e in &events {
                    let overlap = (e.end.min(bin_end) - e.start.max(bin_start)).max(0.0);
                    if overlap > best.1 {
                        best = (e.kind.glyph(), overlap);
                    }
                }
                *cell = best.0;
            }
            out.push_str(&format!("{rank:>4} |"));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_order_matches_discriminants() {
        // `EventKind::index` relies on `ALL` listing the kinds in
        // declaration (discriminant) order.
        for (i, &k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "ALL out of discriminant order at {i}");
        }
    }

    fn sample() -> Timeline {
        let mut t = Timeline::new(2);
        t.record(0, 0.0, 1.0, EventKind::Compute);
        t.record(0, 1.0, 2.0, EventKind::Recv);
        t.record(1, 0.0, 3.0, EventKind::Compute);
        t.record(1, 3.0, 4.0, EventKind::Allreduce);
        t
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = sample().breakdown();
        let sum: f64 = EventKind::ALL.iter().map(|&k| b.fraction(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((b.total - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rank_breakdown_isolated() {
        let b = sample().rank_breakdown(0);
        assert!((b.fraction(EventKind::Compute) - 0.5).abs() < 1e-12);
        assert!((b.fraction(EventKind::Recv) - 0.5).abs() < 1e-12);
        assert_eq!(b.dominant_mpi(), Some(EventKind::Recv));
    }

    #[test]
    fn mpi_fraction_complements_compute() {
        let b = sample().breakdown();
        assert!((b.mpi_fraction() + b.fraction(EventKind::Compute) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_events_are_dropped() {
        let mut t = Timeline::new(1);
        t.record(0, 1.0, 1.0, EventKind::Barrier);
        assert!(t.events.is_empty());
    }

    #[test]
    fn end_time_is_max_end() {
        assert!((sample().end_time() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_has_one_row_per_rank() {
        let s = sample().render_ascii(40);
        assert_eq!(s.lines().count(), 2);
        // Rank 1 computes for 3/4 of the makespan: mostly '#'.
        let row1 = s.lines().nth(1).unwrap();
        let hashes = row1.chars().filter(|&c| c == '#').count();
        assert!(hashes >= 25, "expected mostly compute glyphs, got {row1}");
        // Collective at the end.
        assert!(row1.trim_end().ends_with('A'));
    }

    #[test]
    fn empty_timeline_renders_empty() {
        let t = Timeline::new(3);
        assert_eq!(t.render_ascii(10), "");
    }

    #[test]
    fn dominant_mpi_none_for_pure_compute() {
        let mut t = Timeline::new(1);
        t.record(0, 0.0, 1.0, EventKind::Compute);
        assert_eq!(t.breakdown().dominant_mpi(), None);
    }
}
