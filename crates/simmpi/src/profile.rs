//! Per-run observability profile — the ITAC/LIKWID analog.
//!
//! The paper's evaluation rests on measurement tooling: ITAC traces for
//! the MPI time breakdowns of §4.1 / Fig. 2 and ITAC message
//! statistics for the communication analysis of §5. The [`Profile`] is
//! the simulator's equivalent, available even when full event tracing
//! ([`SimConfig::trace`](crate::engine::SimConfig)) is off — tracing
//! records *every interval*, the profile records *sums*, which is what
//! the Fig. 2-style analyses actually consume.
//!
//! It holds three views of a run:
//!
//! * **per-rank phase split** ([`RankPhases`]) — wall-clock seconds in
//!   computation, eager-send overhead, rendezvous stalls, receive
//!   waits, collective waits and fault-induced stalls; the
//!   compute-vs-communication fractions of the paper's Fig. 2 insets.
//!   These depend on the schedule, so the engine books them as it
//!   executes, each rank into its own row,
//! * **protocol-regime / message-size histograms** — log2-bucketed
//!   point-to-point message counts and payload bytes, split into the
//!   eager and rendezvous regimes (the protocol boundary the minisweep
//!   pathology of §4.1.5 hinges on),
//! * **rank×rank communication matrix** — point-to-point payload bytes
//!   per (sender, receiver) pair, the ITAC message-statistics analog.
//!   It is stored sparse: the non-zero pairs sorted by `(from, to)`,
//!   so a profile is O(ranks + pairs), never O(ranks²).
//!
//! The histograms and the matrix depend only on the programs, not on
//! the schedule: a completed run posts every send of its programs once
//! per walk. The engine's validation prepass groups the sends of one
//! walk as it checks the programs, and
//! [`Prepass::traffic`](crate::engine::Prepass::traffic) scales them to
//! any number of walks.

/// Protocol regime of a point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Below the interconnect's threshold: completes locally after the
    /// sender overhead.
    Eager,
    /// At/above the threshold: synchronous hand-shake with the receiver.
    Rendezvous,
}

/// The category a blocked (or computing) interval is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Local computation.
    Compute,
    /// Sender-side overhead of eager messages (completes in `o`).
    EagerSend,
    /// Waiting for a rendezvous hand-shake + transfer to complete —
    /// the serialization regime of the minisweep ripple.
    RendezvousStall,
    /// Waiting for a message to arrive in `MPI_Recv`/`MPI_Wait`.
    RecvWait,
    /// Waiting inside a collective (barrier, allreduce, …).
    CollectiveWait,
    /// Time lost to injected faults (OS noise, straggler/throttle
    /// slowdown) — the inflation of a compute phase beyond its
    /// fault-free duration. Zero unless a
    /// [`FaultPlan`](crate::faults::FaultPlan) is active.
    FaultStall,
}

/// Per-rank wall-clock split over the [`Phase`] categories, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankPhases {
    pub compute_s: f64,
    pub eager_send_s: f64,
    pub rendezvous_stall_s: f64,
    pub recv_wait_s: f64,
    pub collective_wait_s: f64,
    /// Fault-induced compute inflation (zero without fault injection).
    pub fault_stall_s: f64,
}

impl RankPhases {
    /// Total accounted time.
    pub fn total_s(&self) -> f64 {
        self.compute_s
            + self.eager_send_s
            + self.rendezvous_stall_s
            + self.recv_wait_s
            + self.collective_wait_s
            + self.fault_stall_s
    }

    /// Time in any MPI phase (fault stalls are local, not MPI).
    pub fn mpi_s(&self) -> f64 {
        self.total_s() - self.compute_s - self.fault_stall_s
    }

    /// Fraction of the accounted time spent communicating (0 when no
    /// time is accounted).
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total_s();
        if t <= 0.0 {
            0.0
        } else {
            self.mpi_s() / t
        }
    }

    /// Book `secs` of `phase`; only a positive interval books anything.
    pub(crate) fn add(&mut self, phase: Phase, secs: f64) {
        if secs > 0.0 {
            match phase {
                Phase::Compute => self.compute_s += secs,
                Phase::EagerSend => self.eager_send_s += secs,
                Phase::RendezvousStall => self.rendezvous_stall_s += secs,
                Phase::RecvWait => self.recv_wait_s += secs,
                Phase::CollectiveWait => self.collective_wait_s += secs,
                Phase::FaultStall => self.fault_stall_s += secs,
            }
        }
    }

    /// Component-wise `self − other`, clamped at zero (used to isolate
    /// the measured region from the warm-up prefix).
    pub fn saturating_sub(&self, other: &RankPhases) -> RankPhases {
        let d = |a: f64, b: f64| (a - b).max(0.0);
        RankPhases {
            compute_s: d(self.compute_s, other.compute_s),
            eager_send_s: d(self.eager_send_s, other.eager_send_s),
            rendezvous_stall_s: d(self.rendezvous_stall_s, other.rendezvous_stall_s),
            recv_wait_s: d(self.recv_wait_s, other.recv_wait_s),
            collective_wait_s: d(self.collective_wait_s, other.collective_wait_s),
            fault_stall_s: d(self.fault_stall_s, other.fault_stall_s),
        }
    }
}

/// One log2 message-size bucket: message count and payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeBucket {
    pub count: u64,
    pub bytes: u64,
}

/// Number of log2 size buckets (bucket `i` covers `[2^i, 2^(i+1))`
/// bytes; zero-byte messages land in bucket 0 alongside 1-byte ones).
pub const NBUCKETS: usize = 40;

/// Log2 bucket index of a message size (clamped into the last bucket).
pub fn bucket_of(bytes: usize) -> usize {
    if bytes <= 1 {
        0
    } else {
        ((usize::BITS - 1 - bytes.leading_zeros()) as usize).min(NBUCKETS - 1)
    }
}

/// Lower bound (bytes) of a bucket, for rendering.
pub fn bucket_floor(bucket: usize) -> u64 {
    1u64 << bucket
}

/// `count` point-to-point sends of `bytes` bytes each, `from → to`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sends {
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) bytes: usize,
    pub(crate) count: u64,
}

/// One non-zero entry of the rank×rank byte matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pair {
    from: u32,
    to: u32,
    bytes: u64,
}

/// The complete observability profile of one simulated run: the phase
/// split the engine measures, and the message statistics of the
/// programs it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pub nranks: usize,
    /// Phase split of every rank.
    pub per_rank: Vec<RankPhases>,
    /// Message-size histogram of the eager regime.
    pub eager_hist: Vec<SizeBucket>,
    /// Message-size histogram of the rendezvous regime.
    pub rendezvous_hist: Vec<SizeBucket>,
    /// The rank×rank payload bytes, sparse and canonical: the non-zero
    /// entries only, sorted by `(from, to)`.
    pairs: Vec<Pair>,
}

impl Profile {
    /// A zeroed profile for `nranks` ranks: no time, no messages.
    pub fn new(nranks: usize) -> Self {
        Profile {
            nranks,
            per_rank: vec![RankPhases::default(); nranks],
            eager_hist: vec![SizeBucket::default(); NBUCKETS],
            rendezvous_hist: vec![SizeBucket::default(); NBUCKETS],
            pairs: Vec::new(),
        }
    }

    /// The message statistics of `sends`, sorted by `(from, to)`, each
    /// group posted `reps` times over, with zeroed phase rows. A
    /// message below `eager_threshold` bytes is eager.
    pub(crate) fn from_sends(
        nranks: usize,
        sends: &[Sends],
        reps: u64,
        eager_threshold: usize,
    ) -> Self {
        let mut p = Profile::new(nranks);
        for s in sends {
            let hist = if s.bytes < eager_threshold {
                &mut p.eager_hist
            } else {
                &mut p.rendezvous_hist
            };
            let (count, bytes) = (s.count * reps, s.bytes as u64 * s.count * reps);
            let b = &mut hist[bucket_of(s.bytes)];
            b.count += count;
            b.bytes += bytes;
            if bytes == 0 {
                continue;
            }
            match p.pairs.last_mut() {
                Some(last) if (last.from, last.to) == (s.from, s.to) => last.bytes += bytes,
                _ => p.pairs.push(Pair {
                    from: s.from,
                    to: s.to,
                    bytes,
                }),
            }
        }
        p
    }

    /// Append the matrix entry `from → to` to a profile being decoded.
    /// Entries must come in the canonical order: in range, non-zero,
    /// and strictly after the last one by `(from, to)`. Returns `false`,
    /// appending nothing, for any other entry.
    pub fn push_pair(&mut self, from: usize, to: usize, bytes: u64) -> bool {
        let canonical = from < self.nranks
            && to < self.nranks
            && bytes > 0
            && self
                .pairs
                .last()
                .is_none_or(|p| (p.from as usize, p.to as usize) < (from, to));
        if canonical {
            self.pairs.push(Pair {
                from: from as u32,
                to: to as u32,
                bytes,
            });
        }
        canonical
    }

    /// Payload bytes sent `from → to`.
    pub fn bytes_between(&self, from: usize, to: usize) -> u64 {
        let key = (from as u32, to as u32);
        self.pairs
            .binary_search_by_key(&key, |p| (p.from, p.to))
            .map_or(0, |i| self.pairs[i].bytes)
    }

    /// The non-zero matrix entries `(from, to, bytes)`, sorted by
    /// `(from, to)`.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = (usize, usize, u64)> + '_ {
        self.pairs
            .iter()
            .map(|p| (p.from as usize, p.to as usize, p.bytes))
    }

    /// Totals over one regime's histogram.
    pub fn regime_totals(&self, regime: Regime) -> SizeBucket {
        let hist = match regime {
            Regime::Eager => &self.eager_hist,
            Regime::Rendezvous => &self.rendezvous_hist,
        };
        hist.iter()
            .fold(SizeBucket::default(), |acc, b| SizeBucket {
                count: acc.count + b.count,
                bytes: acc.bytes + b.bytes,
            })
    }

    /// Sum of every rank's phase split.
    pub fn totals(&self) -> RankPhases {
        let mut t = RankPhases::default();
        for r in &self.per_rank {
            t.compute_s += r.compute_s;
            t.eager_send_s += r.eager_send_s;
            t.rendezvous_stall_s += r.rendezvous_stall_s;
            t.recv_wait_s += r.recv_wait_s;
            t.collective_wait_s += r.collective_wait_s;
            t.fault_stall_s += r.fault_stall_s;
        }
        t
    }

    // -----------------------------------------------------------------
    // CSV export (the `results/profile/` artifacts)
    // -----------------------------------------------------------------

    /// Per-rank phase split as CSV.
    pub fn ranks_to_csv(&self) -> String {
        let mut out = String::from(
            "rank,compute_s,eager_send_s,rendezvous_stall_s,recv_wait_s,collective_wait_s,fault_stall_s,comm_fraction\n",
        );
        for (rank, p) in self.per_rank.iter().enumerate() {
            out.push_str(&format!(
                "{},{:.9e},{:.9e},{:.9e},{:.9e},{:.9e},{:.9e},{:.6}\n",
                rank,
                p.compute_s,
                p.eager_send_s,
                p.rendezvous_stall_s,
                p.recv_wait_s,
                p.collective_wait_s,
                p.fault_stall_s,
                p.comm_fraction()
            ));
        }
        out
    }

    /// Message-size histogram (both regimes) as CSV; only non-empty
    /// buckets are written.
    pub fn histogram_to_csv(&self) -> String {
        let mut out = String::from("regime,bucket_floor_bytes,count,bytes\n");
        for (name, hist) in [
            ("eager", &self.eager_hist),
            ("rendezvous", &self.rendezvous_hist),
        ] {
            for (i, b) in hist.iter().enumerate() {
                if b.count > 0 {
                    out.push_str(&format!(
                        "{},{},{},{}\n",
                        name,
                        bucket_floor(i),
                        b.count,
                        b.bytes
                    ));
                }
            }
        }
        out
    }

    /// Rank×rank communication matrix as sparse CSV (non-zero entries).
    pub fn matrix_to_csv(&self) -> String {
        let mut out = String::from("from,to,bytes\n");
        for (from, to, b) in self.pairs() {
            out.push_str(&format!("{from},{to},{b}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Prepass;
    use crate::program::{Op, Program};

    #[test]
    fn buckets_cover_sizes() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1 << 20), 20);
        assert_eq!(bucket_of((1 << 20) + 1), 20);
        assert_eq!(bucket_floor(20), 1 << 20);
        assert!(bucket_of(usize::MAX) < NBUCKETS);
    }

    /// Rank 0 sends 100 B to rank 1 twice and 1 MiB to rank 3, rank 2
    /// an empty message to rank 0; the threshold is 64 KiB.
    fn programs() -> Vec<Program> {
        let mut progs: Vec<Program> = (0..4).map(|_| Program::new()).collect();
        progs[0].push(Op::send(3, 0, 1 << 20));
        progs[0].push(Op::isend(1, 0, 100, 0));
        progs[0].push(Op::wait(0));
        progs[0].push(Op::sendrecv(1, 100, 2, 1));
        progs[2].push(Op::send(0, 0, 0));
        progs
    }

    #[test]
    fn program_traffic_fills_all_views() {
        let p = Prepass::analyze(&programs()).unwrap().traffic(3, 64 << 10);
        assert_eq!(p.nranks, 4);
        assert_eq!(p.totals(), RankPhases::default());
        assert_eq!(p.bytes_between(0, 1), 600);
        assert_eq!(p.bytes_between(0, 3), 3 << 20);
        assert_eq!(p.bytes_between(1, 0), 0);
        // The empty message counts but takes no matrix entry.
        assert_eq!(p.bytes_between(2, 0), 0);
        assert_eq!(
            p.pairs().collect::<Vec<_>>(),
            vec![(0, 1, 600), (0, 3, 3 << 20)]
        );
        let eager = p.regime_totals(Regime::Eager);
        assert_eq!((eager.count, eager.bytes), (9, 600));
        assert_eq!(p.eager_hist[bucket_of(100)].count, 6);
        assert_eq!(p.eager_hist[0].count, 3);
        assert_eq!(p.rendezvous_hist[20].bytes, 3 << 20);
    }

    #[test]
    fn decoded_pairs_must_be_canonical() {
        let mut p = Profile::new(3);
        assert!(p.push_pair(0, 2, 5));
        assert!(p.push_pair(1, 0, 7));
        assert!(!p.push_pair(1, 0, 7), "repeated pair");
        assert!(!p.push_pair(0, 1, 1), "out of order");
        assert!(!p.push_pair(2, 1, 0), "zero bytes");
        assert!(!p.push_pair(2, 3, 1), "out of range");
        assert_eq!(p.pairs().len(), 2);
        assert_eq!(p.bytes_between(1, 0), 7);
    }

    #[test]
    fn phase_accounting_and_fractions() {
        let mut p = Profile::new(2);
        p.per_rank[0].add(Phase::Compute, 3.0);
        p.per_rank[0].add(Phase::RecvWait, 1.0);
        p.per_rank[1].add(Phase::CollectiveWait, 2.0);
        p.per_rank[1].add(Phase::Compute, 0.0); // no-op
        assert!((p.per_rank[0].total_s() - 4.0).abs() < 1e-12);
        assert!((p.per_rank[0].comm_fraction() - 0.25).abs() < 1e-12);
        assert!((p.per_rank[1].comm_fraction() - 1.0).abs() < 1e-12);
        let t = p.totals();
        assert!((t.total_s() - 6.0).abs() < 1e-12);
        assert!((t.mpi_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn subtraction_isolates_measured_region() {
        let mut full = RankPhases::default();
        full.add(Phase::Compute, 5.0);
        full.add(Phase::RecvWait, 1.0);
        let mut warm = RankPhases::default();
        warm.add(Phase::Compute, 2.0);
        warm.add(Phase::RecvWait, 2.0);
        let m = full.saturating_sub(&warm);
        assert!((m.compute_s - 3.0).abs() < 1e-12);
        assert_eq!(m.recv_wait_s, 0.0);
    }

    #[test]
    fn csv_exports_are_well_formed() {
        let mut p = Prepass::analyze(&programs()).unwrap().traffic(1, 64 << 10);
        p.per_rank[0].add(Phase::Compute, 1.0);
        p.per_rank[1].add(Phase::RendezvousStall, 0.5);
        let ranks = p.ranks_to_csv();
        assert_eq!(ranks.lines().count(), 5); // header + 4 ranks
        assert!(ranks.starts_with("rank,compute_s"));
        let hist = p.histogram_to_csv();
        assert!(hist.contains("rendezvous,1048576,1,1048576"));
        assert_eq!(p.matrix_to_csv(), "from,to,bytes\n0,1,200\n0,3,1048576\n");
    }
}
