//! Per-run observability profile — the ITAC/LIKWID analog computed
//! *online* by the engine.
//!
//! The paper's evaluation rests on measurement tooling: ITAC traces for
//! the MPI time breakdowns of §4.1 / Fig. 2 and LIKWID counters for the
//! power analysis of §4.2. The [`Profile`] is the simulator's
//! equivalent: the engine accumulates it incrementally while executing,
//! so it is available even when full event tracing
//! ([`SimConfig::trace`](crate::engine::SimConfig)) is off — tracing
//! records *every interval*, the profile records *sums*, which is what
//! the Fig. 2-style analyses actually consume.
//!
//! Three views are maintained per run:
//!
//! * **per-rank phase split** ([`RankPhases`]) — wall-clock seconds in
//!   computation, eager-send overhead, rendezvous stalls, receive
//!   waits, collective waits and fault-induced stalls; the
//!   compute-vs-communication fractions of the paper's Fig. 2 insets,
//! * **protocol-regime / message-size histograms** — log2-bucketed
//!   point-to-point message counts and payload bytes, split into the
//!   eager and rendezvous regimes (the protocol boundary the minisweep
//!   pathology of §4.1.5 hinges on),
//! * **rank×rank communication matrix** — point-to-point payload bytes
//!   per (sender, receiver) pair, the ITAC message-statistics analog.

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

    fn add(&mut self, phase: Phase, secs: f64) {
        match phase {
            Phase::Compute => self.compute_s += secs,
            Phase::EagerSend => self.eager_send_s += secs,
            Phase::RendezvousStall => self.rendezvous_stall_s += secs,
            Phase::RecvWait => self.recv_wait_s += secs,
            Phase::CollectiveWait => self.collective_wait_s += secs,
            Phase::FaultStall => self.fault_stall_s += secs,
        }
    }

    /// Component-wise `self − other`, clamped at zero (used to isolate
    /// the measured region from the warm-up prefix).
    fn saturating_sub(&self, other: &RankPhases) -> RankPhases {
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

/// The complete observability profile of one simulated run. Empty
/// (`nranks == 0`) when profiling was disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub nranks: usize,
    /// Phase split of every rank.
    pub per_rank: Vec<RankPhases>,
    /// Message-size histogram of the eager regime.
    pub eager_hist: Vec<SizeBucket>,
    /// Message-size histogram of the rendezvous regime.
    pub rendezvous_hist: Vec<SizeBucket>,
    /// Row-major rank×rank payload bytes: `comm_matrix[from * nranks + to]`.
    pub comm_matrix: Vec<u64>,
}

impl Profile {
    /// An enabled, zeroed profile for `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        Profile {
            nranks,
            per_rank: vec![RankPhases::default(); nranks],
            eager_hist: vec![SizeBucket::default(); NBUCKETS],
            rendezvous_hist: vec![SizeBucket::default(); NBUCKETS],
            comm_matrix: vec![0; nranks * nranks],
        }
    }

    /// Whether the engine populated this profile.
    pub fn is_enabled(&self) -> bool {
        self.nranks > 0
    }

    /// Record one point-to-point message (at post time).
    pub fn record_message(&mut self, from: usize, to: usize, bytes: usize, regime: Regime) {
        let hist = match regime {
            Regime::Eager => &mut self.eager_hist,
            Regime::Rendezvous => &mut self.rendezvous_hist,
        };
        let b = &mut hist[bucket_of(bytes)];
        b.count += 1;
        b.bytes += bytes as u64;
        self.comm_matrix[from * self.nranks + to] += bytes as u64;
    }

    /// Accumulate one interval into a rank's phase split.
    pub fn record_phase(&mut self, rank: usize, phase: Phase, secs: f64) {
        if secs > 0.0 {
            self.per_rank[rank].add(phase, secs);
        }
    }

    /// Payload bytes sent `from → to`.
    pub fn bytes_between(&self, from: usize, to: usize) -> u64 {
        self.comm_matrix[from * self.nranks + to]
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

    /// `self − warm`, component-wise and clamped at zero. Both runs
    /// being deterministic with a shared prefix, this isolates the
    /// measured region exactly (the same trick
    /// `harness`'s breakdown subtraction uses).
    pub fn saturating_sub(&self, warm: &Profile) -> Profile {
        if !self.is_enabled() {
            return Profile::default();
        }
        if !warm.is_enabled() {
            return self.clone();
        }
        assert_eq!(self.nranks, warm.nranks, "profiles of different runs");
        let sub_hist = |a: &[SizeBucket], b: &[SizeBucket]| -> Vec<SizeBucket> {
            a.iter()
                .zip(b)
                .map(|(x, y)| SizeBucket {
                    count: x.count.saturating_sub(y.count),
                    bytes: x.bytes.saturating_sub(y.bytes),
                })
                .collect()
        };
        Profile {
            nranks: self.nranks,
            per_rank: self
                .per_rank
                .iter()
                .zip(&warm.per_rank)
                .map(|(a, b)| a.saturating_sub(b))
                .collect(),
            eager_hist: sub_hist(&self.eager_hist, &warm.eager_hist),
            rendezvous_hist: sub_hist(&self.rendezvous_hist, &warm.rendezvous_hist),
            comm_matrix: self
                .comm_matrix
                .iter()
                .zip(&warm.comm_matrix)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    /// Merge one partition's profile into a full-size one: the
    /// per-rank phase rows of `lo..hi` are scattered from the partition
    /// (which owns those ranks exclusively), while the global views —
    /// both size histograms and the communication matrix — are summed
    /// element-wise. All global counters are `u64`, so the merged
    /// result is bit-identical to a single-threaded accumulation
    /// regardless of partition order; the per-rank `f64` sums are
    /// owner-written in the rank's own operation order, which is the
    /// same order a one-partition run uses.
    pub fn absorb_partition(&mut self, part: &Profile, lo: usize, hi: usize) {
        assert_eq!(self.nranks, part.nranks, "profiles of different runs");
        self.per_rank[lo..hi].copy_from_slice(&part.per_rank[lo..hi]);
        for (a, b) in self.eager_hist.iter_mut().zip(&part.eager_hist) {
            a.count += b.count;
            a.bytes += b.bytes;
        }
        for (a, b) in self.rendezvous_hist.iter_mut().zip(&part.rendezvous_hist) {
            a.count += b.count;
            a.bytes += b.bytes;
        }
        for (a, b) in self.comm_matrix.iter_mut().zip(&part.comm_matrix) {
            *a += *b;
        }
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
        for from in 0..self.nranks {
            for to in 0..self.nranks {
                let b = self.bytes_between(from, to);
                if b > 0 {
                    out.push_str(&format!("{from},{to},{b}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn message_recording_fills_all_views() {
        let mut p = Profile::new(4);
        p.record_message(0, 1, 100, Regime::Eager);
        p.record_message(0, 1, 100, Regime::Eager);
        p.record_message(2, 3, 1 << 20, Regime::Rendezvous);
        assert_eq!(p.bytes_between(0, 1), 200);
        assert_eq!(p.bytes_between(1, 0), 0);
        assert_eq!(p.regime_totals(Regime::Eager).count, 2);
        assert_eq!(p.regime_totals(Regime::Eager).bytes, 200);
        assert_eq!(p.regime_totals(Regime::Rendezvous).count, 1);
        assert_eq!(p.eager_hist[bucket_of(100)].count, 2);
        assert_eq!(p.rendezvous_hist[20].bytes, 1 << 20);
    }

    #[test]
    fn phase_accounting_and_fractions() {
        let mut p = Profile::new(2);
        p.record_phase(0, Phase::Compute, 3.0);
        p.record_phase(0, Phase::RecvWait, 1.0);
        p.record_phase(1, Phase::CollectiveWait, 2.0);
        p.record_phase(1, Phase::Compute, 0.0); // no-op
        assert!((p.per_rank[0].total_s() - 4.0).abs() < 1e-12);
        assert!((p.per_rank[0].comm_fraction() - 0.25).abs() < 1e-12);
        assert!((p.per_rank[1].comm_fraction() - 1.0).abs() < 1e-12);
        let t = p.totals();
        assert!((t.total_s() - 6.0).abs() < 1e-12);
        assert!((t.mpi_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn subtraction_isolates_measured_region() {
        let mut full = Profile::new(1);
        full.record_phase(0, Phase::Compute, 5.0);
        full.record_message(0, 0, 64, Regime::Eager);
        full.record_message(0, 0, 64, Regime::Eager);
        let mut warm = Profile::new(1);
        warm.record_phase(0, Phase::Compute, 2.0);
        warm.record_message(0, 0, 64, Regime::Eager);
        let m = full.saturating_sub(&warm);
        assert!((m.per_rank[0].compute_s - 3.0).abs() < 1e-12);
        assert_eq!(m.regime_totals(Regime::Eager).count, 1);
        assert_eq!(m.bytes_between(0, 0), 64);
    }

    #[test]
    fn disabled_profile_subtracts_to_empty() {
        let empty = Profile::default();
        assert!(!empty.is_enabled());
        assert_eq!(empty.saturating_sub(&Profile::new(3)), Profile::default());
        let p = Profile::new(2);
        assert_eq!(p.saturating_sub(&Profile::default()), p);
    }

    #[test]
    fn csv_exports_are_well_formed() {
        let mut p = Profile::new(2);
        p.record_phase(0, Phase::Compute, 1.0);
        p.record_phase(1, Phase::RendezvousStall, 0.5);
        p.record_message(0, 1, 1 << 17, Regime::Rendezvous);
        let ranks = p.ranks_to_csv();
        assert_eq!(ranks.lines().count(), 3); // header + 2 ranks
        assert!(ranks.starts_with("rank,compute_s"));
        let hist = p.histogram_to_csv();
        assert!(hist.contains("rendezvous,131072,1,131072"));
        let m = p.matrix_to_csv();
        assert_eq!(m.lines().count(), 2); // header + 1 pair
        assert!(m.contains("0,1,131072"));
    }
}
