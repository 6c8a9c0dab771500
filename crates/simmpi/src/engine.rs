//! Deterministic discrete-event engine executing one [`Program`] per rank.
//!
//! ## Semantics
//!
//! * **Point-to-point matching** is FIFO per `(source, destination, tag)`
//!   (MPI's non-overtaking rule). Channels are keyed by the rank pair
//!   alone: each holds the pair's pending sends and pending receives in
//!   posting order (MPI's unexpected and posted queues), and a new
//!   posting takes the first entry of the other list with its tag.
//!   Workloads that give every halo fragment its own tag therefore touch
//!   one channel per neighbour, not one per fragment.
//! * **Eager protocol** (below the interconnect's threshold): a send
//!   completes locally after the sender overhead `o`; the message arrives
//!   at `post + wire_time`; the receive completes at
//!   `max(recv_post, arrival)`.
//! * **Synchronous rendezvous** (at/above the threshold): sender and
//!   receiver hand-shake; the transfer starts at
//!   `max(send_post, recv_post)` and both sides complete at
//!   `start + wire_time`. This is the regime responsible for the
//!   minisweep serialization "ripple" of the paper (§4.1.5).
//! * **Collectives** are globally ordered per rank-local sequence number;
//!   every rank must execute the same sequence (mismatches are detected
//!   and reported). A collective completes for all ranks at
//!   `max(entry times) + algorithmic cost`.
//! * **Deadlocks** (cyclic rendezvous sends, missing matches) are
//!   detected: when no rank can make progress and not all are done, the
//!   engine reports which rank is stuck on which operation.
//!
//! ## Scheduling
//!
//! The engine is **event-driven**: runnable ranks live on a ready
//! queue, and a blocked rank is re-examined only when something it
//! waits on completes — a message match delivers a wake to the owning
//! rank(s), the last entrant of a collective wakes all participants.
//! Total scheduler work is `O(ops + messages)`; blocked ranks are never
//! polled. Results are *visiting-order independent*: completion times
//! are computed from posted timestamps alone (FIFO matching within a
//! channel involves exactly two ranks, whose postings are already in
//! program order; collective finishes are max-reductions over entry
//! times), so the ready-queue engine reproduces the earlier
//! polling-sweep engine bit for bit. `tests/prop_engine.rs` pins this
//! equivalence with golden fingerprints captured from the polling
//! implementation.
//!
//! The engine is deterministic: completion times depend only on the
//! programs and the network model, never on host scheduling.
//!
//! ## Replayed step templates and the warm-up cut
//!
//! Every rank walks its program as a sequence of *segments*.
//! [`Engine::run`] walks each program once. [`Engine::run_replayed`]
//! treats the programs as a step template: each rank walks it `W`
//! times, then a warm-up `Barrier`, then `M` more times, exactly as if
//! the `W×step + Barrier + M×step` program had been concatenated, but
//! without materializing it. The run-wide program counter and request
//! id are arithmetic in the repetition index, so fault draws keyed by
//! them (os-noise per `(rank, pc)`, flaky links per request id) and
//! error payloads are those of the concatenated run. Request slots are
//! reused from one repetition to the next: a step template closes every
//! request it opens, so the only posting that can outlive its step is
//! an eager send still queued at its receiver, and that one carries its
//! run-wide id with it and never writes its slot again.
//!
//! While replaying, the scheduler records a [`WarmupCut`]: the finish
//! time of the warm-up barrier, and each rank's breakdown and phase
//! rows as it leaves the barrier. No rank can post past the barrier
//! before it finishes, so the cut equals the time-side state of a run
//! of `W×step + Barrier` alone, bit for bit.
//!
//! ## Traffic from the programs, time from the engine
//!
//! The scheduler measures time only: clocks, breakdown rows and the
//! profile's phase rows, each written by the rank's owner. The message
//! statistics — the profile's size histograms and rank×rank matrix,
//! [`SimResult::p2p_bytes`] and [`SimResult::internode_bytes`] — depend
//! only on the programs: a completed run posts every send of its
//! template once per repetition. The validation [`Prepass`] groups the
//! sends of one walk, and [`Prepass::traffic`] scales them by the
//! replay's repetition count once per run; nothing is booked per send.
//!
//! ## One step loop for every partition count
//!
//! The step loop exists once, in the crate-private `Scheduler`. It is
//! monomorphized over the fault hook, the `TRACE` flag and a
//! `Boundary`: the hook that says which ranks the loop owns
//! and how it reaches the others. A boundary answers four questions —
//! does this partition own rank `r` (and the channels into it); where
//! does a send to a rank it does not own go; where does the rendezvous
//! completion of a foreign sender go; and how is a collective entered
//! and its finish published — plus one notification at the end of
//! every rank's turn.
//!
//! * `Solo` (`SimConfig::threads == 1`) owns every rank and keeps the
//!   collective table to itself. Its hooks are constants and direct
//!   calls, so the remote branches compile away and the run stays on
//!   the calling thread: no inbox, atomics, locks, spawn or merge.
//! * `Partitioned` (`threads > 1`, see [`crate::pdes`]) owns one
//!   contiguous, node-aligned slice of the ranks. It forwards
//!   cross-partition traffic through per-partition inboxes in
//!   lookahead-sized batches and shares one locked collective table.
//!
//! Visiting-order independence is what makes the partitioned case
//! exact: every partition count yields a bit-identical [`SimResult`].
//! Failures resolve in one canonical order at every partition count —
//! cancellation, then the earliest `(at_s, rank)` crash, then the
//! smallest-rank collective mismatch, then deadlock — so the error
//! payload does not depend on the thread count either.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::faults::{ActiveFaults, FaultPlan};
use crate::netmodel::NetModel;
use crate::profile::{Phase, Profile, RankPhases, Sends};
use crate::program::{Op, Program, ReqId};
use crate::trace::{EventKind, Timeline};

/// Engine configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimConfig {
    /// Record a full event timeline. Off by default — timelines hold
    /// one entry per executed op and dominate memory on large sweeps;
    /// the Fig. 2 insets and CSV export request tracing explicitly.
    pub trace: bool,
    /// Seeded fault-injection plan ([`FaultPlan::none()`] by default).
    /// Like the `trace` flag, the run loop is monomorphized over the
    /// fault hook: an empty plan selects a no-op hook, carries no
    /// fault branches on the hot path, and keeps [`SimResult`]
    /// bit-identical to a faults-free build.
    pub faults: FaultPlan,
    /// Number of partitions the scheduler splits the rank range into,
    /// one host thread each. `1` (the default) is the one-partition
    /// case and runs on the calling thread; larger values split the
    /// ranks into contiguous, node-aligned partitions (see
    /// [`crate::pdes`]). Results and error payloads are bit-identical
    /// at every thread count; `0` is clamped to `1`, and values above
    /// the rank count are clamped to it.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            trace: false,
            faults: FaultPlan::none(),
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Builder: set [`SimConfig::trace`].
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: set [`SimConfig::faults`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: set [`SimConfig::threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No rank can make progress. Contains `(rank, op index, op)` for
    /// every blocked rank.
    Deadlock(Vec<(usize, usize, Op)>),
    /// Ranks disagree on the collective sequence: `expected` is the
    /// call of the smallest rank that entered sequence `seq`, `rank`
    /// the smallest rank whose call (`found`) differs from it.
    CollectiveMismatch {
        seq: usize,
        rank: usize,
        expected: &'static str,
        found: &'static str,
    },
    /// A program failed structural validation.
    InvalidProgram { rank: usize, reason: String },
    /// An op referenced a rank outside `0..nranks`.
    RankOutOfRange { rank: usize, op_index: usize },
    /// A rank was hard-killed by an injected
    /// [`FaultEvent::Crash`](crate::faults::FaultEvent). MPI-abort
    /// semantics: the whole run aborts, blaming the crashed rank and
    /// the op it was about to execute. When several ranks crash, the
    /// earliest `(at_s, rank)` is blamed.
    RankFailed {
        rank: usize,
        op_index: usize,
        at_s: f64,
    },
    /// The run was cancelled cooperatively (the harness's per-run
    /// timeout sets the engine's cancellation token).
    Cancelled,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(blocked) => {
                write!(f, "deadlock: {} rank(s) blocked", blocked.len())?;
                for (r, pc, op) in blocked.iter().take(8) {
                    write!(f, "; rank {r} at op {pc} ({op:?})")?;
                }
                if blocked.len() > 8 {
                    write!(f, "; … and {} more blocked ranks", blocked.len() - 8)?;
                }
                Ok(())
            }
            SimError::CollectiveMismatch {
                seq,
                rank,
                expected,
                found,
            } => write!(
                f,
                "collective mismatch at sequence {seq}: rank {rank} called {found}, others {expected}"
            ),
            SimError::InvalidProgram { rank, reason } => {
                write!(f, "invalid program on rank {rank}: {reason}")
            }
            SimError::RankOutOfRange { rank, op_index } => {
                write!(f, "rank {rank} out of range at op {op_index}")
            }
            SimError::RankFailed {
                rank,
                op_index,
                at_s,
            } => write!(
                f,
                "rank {rank} failed (injected crash) at t={at_s:.6}s before op {op_index}; aborting run"
            ),
            SimError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Time at which the last rank finished (seconds).
    pub makespan: f64,
    /// Finish time of every rank.
    pub finish_times: Vec<f64>,
    /// Event timeline (empty if tracing was disabled).
    pub timeline: Timeline,
    /// Total point-to-point payload bytes moved (from the programs).
    pub p2p_bytes: u64,
    /// Point-to-point payload bytes that crossed a node boundary (from
    /// the programs).
    pub internode_bytes: u64,
    /// Per-rank time per event kind (indexed by [`EventKind::ALL`]
    /// order), accumulated online — available even without tracing.
    pub per_rank_breakdown: Vec<[f64; EventKind::COUNT]>,
    /// Observability profile: phase rows booked online, message
    /// statistics computed from the programs.
    pub profile: Profile,
}

impl SimResult {
    /// Aggregate [`Breakdown`](crate::trace::Breakdown) over all ranks from the online counters.
    pub fn breakdown(&self) -> crate::trace::Breakdown {
        breakdown_of(&self.per_rank_breakdown)
    }
}

/// Sum per-rank breakdown rows into one [`Breakdown`](crate::trace::Breakdown),
/// in rank order.
fn breakdown_of(rows: &[[f64; EventKind::COUNT]]) -> crate::trace::Breakdown {
    let mut b = crate::trace::Breakdown::default();
    for rank in rows {
        for (i, &kind) in EventKind::ALL.iter().enumerate() {
            if rank[i] > 0.0 {
                *b.seconds.entry(kind).or_insert(0.0) += rank[i];
                b.total += rank[i];
            }
        }
    }
    b
}

/// The state of a [`Engine::run_replayed`] run at its warm-up barrier:
/// the time-side outputs a run of the `W×step + Barrier` prefix alone
/// would have returned, bit for bit (see the module docs). Its message
/// statistics are `W` repetitions of the step's, so the cut does not
/// carry them.
#[derive(Debug, Clone)]
pub struct WarmupCut {
    /// Finish time of the warm-up barrier; every rank leaves it then.
    pub finish: f64,
    /// Each rank's breakdown row as it left the barrier.
    pub per_rank_breakdown: Vec<[f64; EventKind::COUNT]>,
    /// Each rank's profile phase row as it left the barrier.
    pub per_rank_phases: Vec<RankPhases>,
}

impl WarmupCut {
    /// Aggregate breakdown of the warm-up prefix, summed as
    /// [`SimResult::breakdown`] sums a whole run.
    pub fn breakdown(&self) -> crate::trace::Breakdown {
        breakdown_of(&self.per_rank_breakdown)
    }
}

/// Output of the engine's fused validation prepass: one walk over every
/// program performing the structural checks of [`Program::validate`]
/// (same rules, same messages), the peer range checks, the
/// point-to-point post count that sizes the request arena, and the
/// sends a walk posts, from which [`Prepass::traffic`] derives a run's
/// message statistics.
///
/// A `Prepass` is reusable: it depends only on the programs, not on the
/// configuration, network model or fault plan, so a caller simulating
/// several runs of the same programs (or of programs *derived* from a
/// shared template — see [`Prepass::scaled`]) pays for the walk once.
#[derive(Debug, Clone)]
pub struct Prepass {
    /// Point-to-point posts per rank (`Send`/`Isend`/`Recv`/`Irecv`
    /// count 1, `Sendrecv` counts 2).
    p2p_ops: Vec<usize>,
    /// The sends of one walk, grouped by `(from, to, bytes)` and sorted.
    sends: Vec<Sends>,
}

impl Prepass {
    /// Run the fused validate/range/count walk over `programs`,
    /// grouping the sends as it goes.
    ///
    /// Error precedence matches running [`Program::validate`] first: a
    /// structural error on a rank wins over any range error on that
    /// rank, regardless of op order, so range errors are buffered until
    /// the rank's walk finishes.
    pub fn analyze(programs: &[Program]) -> Result<Self, SimError> {
        let nranks = programs.len();
        let mut p2p_ops: Vec<usize> = vec![0; nranks];
        let mut sends: Vec<Sends> = Vec::new();
        let mut rank_sends: Vec<(usize, usize)> = Vec::new();
        let mut open: std::collections::BTreeSet<ReqId> = std::collections::BTreeSet::new();
        for (rank, p) in programs.iter().enumerate() {
            open.clear();
            rank_sends.clear();
            let invalid = |reason: String| SimError::InvalidProgram { rank, reason };
            let mut range_err: Option<SimError> = None;
            for (op_index, op) in p.ops.iter().enumerate() {
                let peer = match op {
                    Op::Send { to, bytes, .. } => {
                        p2p_ops[rank] += 1;
                        rank_sends.push((*to, *bytes));
                        Some(*to)
                    }
                    Op::Isend { to, req, bytes, .. } => {
                        p2p_ops[rank] += 1;
                        rank_sends.push((*to, *bytes));
                        if !open.insert(*req) {
                            return Err(invalid(format!("request {req} created while still open")));
                        }
                        Some(*to)
                    }
                    Op::Recv { from, .. } => {
                        p2p_ops[rank] += 1;
                        Some(*from)
                    }
                    Op::Irecv { from, req, .. } => {
                        p2p_ops[rank] += 1;
                        if !open.insert(*req) {
                            return Err(invalid(format!("request {req} created while still open")));
                        }
                        Some(*from)
                    }
                    Op::Wait { req } => {
                        if !open.remove(req) {
                            return Err(invalid(format!(
                                "wait on request {req} which is not open"
                            )));
                        }
                        None
                    }
                    Op::Bcast { root, .. } | Op::Reduce { root, .. } => Some(*root),
                    Op::Sendrecv {
                        to,
                        send_bytes,
                        from,
                        ..
                    } => {
                        p2p_ops[rank] += 2;
                        rank_sends.push((*to, *send_bytes));
                        if *to >= nranks && range_err.is_none() {
                            range_err = Some(SimError::RankOutOfRange {
                                rank: *to,
                                op_index,
                            });
                        }
                        Some(*from)
                    }
                    _ => None,
                };
                if let Some(p) = peer {
                    if p >= nranks && range_err.is_none() {
                        range_err = Some(SimError::RankOutOfRange { rank: p, op_index });
                    }
                }
            }
            if let Some(req) = open.iter().next() {
                return Err(invalid(format!("request {req} never waited on")));
            }
            if let Some(e) = range_err {
                return Err(e);
            }
            rank_sends.sort_unstable();
            for same in rank_sends.chunk_by(|a, b| a == b) {
                sends.push(Sends {
                    from: rank as u32,
                    to: same[0].0 as u32,
                    bytes: same[0].1,
                    count: same.len() as u64,
                });
            }
        }
        Ok(Prepass { p2p_ops, sends })
    }

    /// Prepass of the programs formed by concatenating `reps` copies of
    /// the analyzed template per rank: post and send counts scale
    /// linearly, and validity is preserved because
    /// [`Program::validate`] requires all requests closed at the end of
    /// the template, so every copy starts from a clean request namespace
    /// (the documented reuse-after-`Wait` rule). Appending collectives
    /// (which post no point-to-point requests) to such a concatenation
    /// leaves the counts unchanged, so e.g. a `W×step + Barrier` warm-up
    /// program is described by `template.scaled(W)` exactly.
    pub fn scaled(&self, reps: usize) -> Prepass {
        Prepass {
            p2p_ops: self.p2p_ops.iter().map(|c| c * reps).collect(),
            sends: self
                .sends
                .iter()
                .map(|s| Sends {
                    count: s.count * reps as u64,
                    ..*s
                })
                .collect(),
        }
    }

    /// The message statistics of `reps` walks of the analyzed programs,
    /// with zeroed phase rows: a completed run posts every send of a
    /// program once per walk, whatever the schedule, so this is what
    /// counting its sends one by one would give. A message below
    /// `eager_threshold` bytes is eager.
    pub fn traffic(&self, reps: u64, eager_threshold: usize) -> Profile {
        Profile::from_sends(self.nranks(), &self.sends, reps, eager_threshold)
    }

    /// Number of ranks the prepass describes.
    pub fn nranks(&self) -> usize {
        self.p2p_ops.len()
    }

    /// Request-arena layout: rank `r` owns the contiguous range
    /// `starts[r]..starts[r + 1]` (prefix sums of the post counts).
    fn arena_starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.p2p_ops.len() + 1);
        let mut acc = 0;
        starts.push(0);
        for &n in &self.p2p_ops {
            acc += n;
            starts.push(acc);
        }
        starts
    }
}

// ---------------------------------------------------------------------------
// Fault-injection strategy (monomorphized; see `SimConfig::faults`)
// ---------------------------------------------------------------------------

/// Fault-injection strategy the run loop is monomorphized over, like
/// the `TRACE` flag: the faults-off instantiation compiles to
/// nothing (no per-op branch, no crash/cancel polls, no wire-time
/// perturbation — results stay bit-identical to a faults-free build),
/// the active one reads the lookup tables an [`ActiveFaults`] compiled
/// from the plan. Partitions share one hook, hence `Sync`.
pub(crate) trait FaultHook: Sync {
    /// Whether any fault logic needs to run at all.
    const ENABLED: bool;
    /// Perturbed duration of a compute op (`base` when off).
    fn compute_seconds(&self, rank: usize, pc: usize, clock: f64, base: f64) -> f64;
    /// Extra wire latency of the message whose send has run-wide
    /// request id `id`.
    fn wire_extra(&self, from: usize, to: usize, id: usize) -> f64;
    /// Simulated time at which `rank` dies (`INFINITY` = never).
    fn crash_at(&self, rank: usize) -> f64;
    /// Whether cooperative cancellation was requested.
    fn cancelled(&self) -> bool;
}

/// The zero-cost off path.
struct NoFaults;

impl FaultHook for NoFaults {
    const ENABLED: bool = false;
    #[inline]
    fn compute_seconds(&self, _rank: usize, _pc: usize, _clock: f64, base: f64) -> f64 {
        base
    }
    #[inline]
    fn wire_extra(&self, _from: usize, _to: usize, _id: usize) -> f64 {
        0.0
    }
    #[inline]
    fn crash_at(&self, _rank: usize) -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn cancelled(&self) -> bool {
        false
    }
}

impl FaultHook for ActiveFaults {
    const ENABLED: bool = true;
    #[inline]
    fn compute_seconds(&self, rank: usize, pc: usize, clock: f64, base: f64) -> f64 {
        ActiveFaults::compute_seconds(self, rank, pc, clock, base)
    }
    #[inline]
    fn wire_extra(&self, from: usize, to: usize, id: usize) -> f64 {
        ActiveFaults::wire_extra(self, from, to, id)
    }
    #[inline]
    fn crash_at(&self, rank: usize) -> f64 {
        ActiveFaults::crash_at(self, rank)
    }
    #[inline]
    fn cancelled(&self) -> bool {
        ActiveFaults::cancelled(self)
    }
}

// ---------------------------------------------------------------------------
// Hot-path data structures
// ---------------------------------------------------------------------------

/// Multiply-rotate hasher (FxHash-style) for the channel map: the keys
/// are small integer tuples, for which the default SipHash dominates
/// the per-op cost at scale.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Channel storage: a dense slab of rank-pair channels plus a hash
/// index resolving `(from, to)` to slab slots. The hash index is
/// consulted only on a rank's memo miss (see [`ChanMemo`]); steady-state
/// patterns (rings, halos) hit the memo and never hash. Tags play no
/// part in the key, so the table holds one entry per communicating
/// pair however many tags the pair uses.
#[derive(Default)]
struct Channels {
    store: Vec<Channel>,
    index: HashMap<(usize, usize), u32, BuildHasherDefault<FxHasher>>,
}

impl Channels {
    /// Slot of channel `from → to`, creating it on first use.
    fn slot(&mut self, np: &NetParams, from: usize, to: usize) -> u32 {
        use std::collections::hash_map::Entry;
        match self.index.entry((from, to)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let idx = self.store.len() as u32;
                self.store.push(Channel::new(np, from, to));
                e.insert(idx);
                idx
            }
        }
    }

    /// [`Channels::slot`] through a rank's one-slot `memo`, keyed by
    /// the channel's far end `peer` as seen from that rank.
    #[inline]
    fn memo_slot(
        &mut self,
        np: &NetParams,
        memo: &mut ChanMemo,
        peer: usize,
        from: usize,
        to: usize,
    ) -> u32 {
        if memo.peer == peer {
            return memo.idx;
        }
        let idx = self.slot(np, from, to);
        *memo = ChanMemo { peer, idx };
        idx
    }
}

/// One-slot memo of the channel a rank last used on each side. MPI
/// programs repeat their communication pattern across iterations, so
/// the memo turns almost every channel lookup into one integer compare.
#[derive(Debug, Clone, Copy)]
struct ChanMemo {
    peer: usize,
    idx: u32,
}

impl ChanMemo {
    const EMPTY: ChanMemo = ChanMemo {
        peer: usize::MAX,
        idx: 0,
    };
}

/// Internal request slot (separate namespace from user [`ReqId`]s).
pub(crate) type IReq = usize;

/// Sentinel for an unoccupied user-request slot.
const NO_REQ: IReq = usize::MAX;

/// What an internal request stands for — used to attribute blocked time
/// to a [`Phase`] in the online profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqClass {
    EagerSend,
    RdvSend,
    Recv,
}

/// One internal request: pending until `done`, then complete at
/// `done_at`. State and classification live in one table so a post
/// touches a single cache line.
#[derive(Debug, Clone, Copy)]
struct Req {
    done_at: f64,
    class: ReqClass,
    done: bool,
}

impl Req {
    /// The state of a freshly posted receive.
    const PENDING_RECV: Req = Req {
        done_at: 0.0,
        class: ReqClass::Recv,
        done: false,
    };

    #[inline]
    fn complete(&mut self, at: f64) {
        self.done_at = at;
        self.done = true;
    }
}

/// Network parameters the hot path needs, flattened out of
/// [`NetModel`]: the per-message cost is `lat + bytes / denom`, chosen
/// by node placement, exactly as
/// [`InterconnectSpec::wire_time`](spechpc_machine::cluster::InterconnectSpec::wire_time)
/// computes it (the `bandwidth * 1e9` product is hoisted, the division
/// is not — keeping results bit-identical).
pub(crate) struct NetParams {
    send_overhead: f64,
    eager_threshold: usize,
    lat_intra: f64,
    denom_intra: f64,
    lat_inter: f64,
    denom_inter: f64,
    /// Node id per rank (dense copy of the pinning).
    pub(crate) node_of: Vec<u32>,
}

impl NetParams {
    pub(crate) fn of(net: &NetModel, nranks: usize) -> Self {
        let ic = net.interconnect();
        NetParams {
            send_overhead: net.send_overhead,
            eager_threshold: ic.eager_threshold,
            lat_intra: ic.intranode_latency_s,
            denom_intra: ic.intranode_bandwidth * 1e9,
            lat_inter: ic.latency_s,
            denom_inter: ic.effective_bandwidth * 1e9,
            node_of: (0..nranks)
                .map(|r| net.pinning().placement(r).node as u32)
                .collect(),
        }
    }
}

/// A send posting. The sender's request slot (for a rendezvous
/// completion) and its run-wide request id (the key of flaky-link
/// draws) travel with it, so both key the same way in whichever
/// partition the channel lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendPost {
    time: f64,
    bytes: usize,
    ireq: IReq,
    id: usize,
    tag: u32,
}

#[derive(Debug, Clone, Copy)]
struct RecvPost {
    time: f64,
    ireq: IReq,
    tag: u32,
}

/// A channel's pending postings of one side, in posting order: two
/// inline slots and a heap spill area. A pair's backlog spans only the
/// current rendezvous window, so the steady state of every
/// point-to-point pattern fits inline and a run's channels never
/// heap-allocate; deeper backlogs (bursts of non-blocking posts) spill
/// to a `Vec` in push order. Inline entries are always older than
/// spilled ones, so scanning inline-first visits postings oldest first.
#[derive(Debug)]
struct Pending<T> {
    inline: [Option<T>; 2],
    head: u8,
    len: u8,
    spill: Vec<T>,
    spill_head: usize,
}

impl<T> Default for Pending<T> {
    fn default() -> Self {
        Pending {
            inline: [None, None],
            head: 0,
            len: 0,
            spill: Vec::new(),
            spill_head: 0,
        }
    }
}

impl<T: Copy> Pending<T> {
    #[inline]
    fn push(&mut self, t: T) {
        // Once anything has spilled, newer items must follow it there
        // until the spill drains, or they would overtake it.
        if self.len < 2 && self.spill_head == self.spill.len() {
            self.inline[((self.head + self.len) & 1) as usize] = Some(t);
            self.len += 1;
        } else {
            self.spill.push(t);
        }
    }

    /// Remove and return the oldest posting that `hit` accepts; the
    /// others keep their order.
    #[inline]
    fn take(&mut self, hit: impl Fn(&T) -> bool) -> Option<T> {
        for k in 0..self.len {
            let i = ((self.head + k) & 1) as usize;
            if self.inline[i].as_ref().is_some_and(&hit) {
                // Removing the older slot advances the head; removing
                // the younger one (k = 1) leaves the older in place.
                if k == 0 {
                    self.head = (self.head + 1) & 1;
                }
                self.len -= 1;
                return self.inline[i].take();
            }
        }
        let pos = self.spill[self.spill_head..].iter().position(hit)?;
        let t = if pos == 0 {
            self.spill_head += 1;
            self.spill[self.spill_head - 1]
        } else {
            self.spill.remove(self.spill_head + pos)
        };
        if self.spill_head == self.spill.len() {
            self.spill.clear();
            self.spill_head = 0;
        }
        Some(t)
    }
}

/// The message channel of one rank pair `from → to`, owned by the
/// partition of the receiver `to`: the sends still waiting for a
/// receive (MPI's unexpected queue) and the receives still waiting for
/// a send (its posted queue). At most one of the two holds entries of
/// any one tag. The pair's wire parameters are resolved once at channel
/// creation, so matching never consults the pinning tables.
#[derive(Debug)]
struct Channel {
    sends: Pending<SendPost>,
    recvs: Pending<RecvPost>,
    wire_lat: f64,
    wire_denom: f64,
}

impl Channel {
    fn new(np: &NetParams, from: usize, to: usize) -> Self {
        let same_node = np.node_of[from] == np.node_of[to];
        Channel {
            sends: Pending::default(),
            recvs: Pending::default(),
            wire_lat: if same_node {
                np.lat_intra
            } else {
                np.lat_inter
            },
            wire_denom: if same_node {
                np.denom_intra
            } else {
                np.denom_inter
            },
        }
    }
}

/// Inline set of the internal requests one blocking op waits on.
/// `Sendrecv` is the maximum arity (2), so no blocking op ever
/// heap-allocates its request list.
#[derive(Debug, Clone, Copy)]
struct ReqSet {
    reqs: [IReq; 2],
    len: u8,
}

impl ReqSet {
    #[inline]
    fn one(a: IReq) -> Self {
        ReqSet {
            reqs: [a, a],
            len: 1,
        }
    }
    #[inline]
    fn two(a: IReq, b: IReq) -> Self {
        ReqSet {
            reqs: [a, b],
            len: 2,
        }
    }
    #[inline]
    fn as_slice(&self) -> &[IReq] {
        &self.reqs[..self.len as usize]
    }
}

/// What a rank is currently blocked on.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// Waiting for a set of internal requests; resumes at the max of
    /// their completion times (and not before `start`).
    Reqs {
        reqs: ReqSet,
        kind: EventKind,
        start: f64,
    },
    /// Waiting inside the collective (of kind `kind`) at the rank's
    /// current sequence number.
    Collective { start: f64, kind: EventKind },
}

struct RankState<'a> {
    /// The op list the rank is walking: a repetition of its program, or
    /// the warm-up barrier (see [`Replay`]).
    seg: &'a [Op],
    /// Index of the rank's next op in `seg`.
    at: usize,
    /// Run-wide program counter of `seg[0]`.
    base: usize,
    /// Repetitions of the program started so far.
    reps: usize,
    /// Whether the rank has reached the warm-up barrier.
    cut_reached: bool,
    clock: f64,
    blocked: Option<Blocked>,
    /// The rank will never run again: it finished its program or
    /// crashed (a crash is reported before any outcome that reads
    /// `done`).
    done: bool,
    /// Next free slot in the rank's range of the shared request arena;
    /// the range restarts with every repetition.
    req_next: usize,
    /// One past the last slot of that range (bounds the posts the
    /// validation prepass counted for this rank).
    req_end: usize,
    /// Run-wide request id of slot `s` in the current repetition, minus
    /// `s`.
    id_offset: usize,
    /// Memo of the last send-side channel (`to` → slot).
    send_memo: ChanMemo,
    /// Memo of the last receive-side channel (`from` → slot).
    recv_memo: ChanMemo,
    /// User request id → internal request slot, as a slot vector
    /// indexed by [`ReqId`] (program validation guarantees every
    /// `Wait` follows its creation, so a `Wait` always finds its slot
    /// occupied).
    user_reqs: Vec<IReq>,
    /// Rank-local collective sequence number.
    coll_seq: usize,
}

impl RankState<'_> {
    /// Run-wide program counter of the rank's next op.
    #[inline]
    fn pc(&self) -> usize {
        self.base + self.at
    }
}

/// The warm-up barrier a replay inserts between the warm-up and the
/// measured repetitions.
static WARMUP_BARRIER: [Op; 1] = [Op::Barrier];

/// How every rank walks its program: `before` repetitions, then the
/// warm-up barrier if there is a cut, then `after` repetitions — and
/// how its requests are numbered. [`Engine::run`] is one repetition
/// without a cut.
pub(crate) struct Replay<'p> {
    before: usize,
    /// Collective sequence number of the warm-up barrier, if inserted.
    cut: Option<usize>,
    after: usize,
    /// Rank `r`'s request slots are `slots[r]..slots[r + 1]`, reused by
    /// every repetition.
    slots: Vec<usize>,
    /// The prepass of one repetition.
    step: &'p Prepass,
}

impl<'p> Replay<'p> {
    /// Each program walked once, without a cut.
    fn once(prepass: &'p Prepass) -> Self {
        Replay {
            before: 1,
            cut: None,
            after: 0,
            slots: prepass.arena_starts(),
            step: prepass,
        }
    }

    /// The step template `programs` walked `warmup` times, the warm-up
    /// barrier, then `measured` more times.
    fn warmed(programs: &[Program], step: &'p Prepass, warmup: usize, measured: usize) -> Self {
        // A successful run enters the same collectives on every rank,
        // so rank 0's count places the barrier for all of them.
        let per_step = programs.first().map_or(0, |p| {
            p.ops
                .iter()
                .filter(|op| collective_of(op).is_some())
                .count()
        });
        Replay {
            before: warmup,
            cut: Some(warmup * per_step),
            after: measured,
            slots: step.arena_starts(),
            step,
        }
    }
}

/// The warm-up cut as a partition records it (see [`WarmupCut`]).
struct Cut {
    /// Collective sequence number of the warm-up barrier.
    seq: usize,
    /// The barrier's finish, once this partition has learnt it.
    finish: Option<f64>,
    rows: Vec<[f64; EventKind::COUNT]>,
    phases: Vec<RankPhases>,
}

/// The scheduler's wake-list: ranks that may be able to make progress.
///
/// Invariants:
/// * a rank is on the queue at most once (`queued` flags),
/// * every request completion delivered to a rank enqueues that rank
///   (unless it is the rank currently executing, which re-examines its
///   own blocked state inline before yielding),
/// * a popped rank that is still blocked simply stays off the queue —
///   the next completion delivered to it re-enqueues it.
///
/// Together these guarantee no lost wakeups: a rank blocks only on
/// requests/collectives that complete exactly once, and each completion
/// produces a wake.
struct ReadyQueue {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl ReadyQueue {
    /// Queue over the global rank id space with the partition's own
    /// ranks initially runnable (a partition only ever enqueues those).
    fn new(nranks: usize, owned: Range<usize>) -> Self {
        ReadyQueue {
            queue: owned.clone().collect(),
            queued: (0..nranks).map(|r| owned.contains(&r)).collect(),
        }
    }

    #[inline]
    fn wake(&mut self, rank: usize, running: usize) {
        if rank != running && !self.queued[rank] {
            self.queued[rank] = true;
            self.queue.push_back(rank);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<usize> {
        let r = self.queue.pop_front()?;
        self.queued[r] = false;
        Some(r)
    }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

/// State of one collective sequence number.
struct CollEntry {
    /// The expected call: the smallest entrant's, so the mismatch
    /// report is independent of arrival order.
    kind: EventKind,
    /// Smallest rank entered so far; defines `kind`.
    owner: usize,
    bytes: usize,
    entered: usize,
    /// Running max of the entry times — exact and commutative, so the
    /// finish is the same bits for any arrival order.
    max_entry: f64,
    /// Smallest rank whose call differs from `kind`, if any.
    mismatch: Option<(usize, EventKind)>,
}

/// The collective table, one entry per sequence number. `Solo` owns
/// it; partitions share one behind a lock.
pub(crate) struct CollTable<'a> {
    net: &'a NetModel,
    entries: Vec<CollEntry>,
}

impl<'a> CollTable<'a> {
    pub(crate) fn new(net: &'a NetModel) -> Self {
        CollTable {
            net,
            entries: Vec::new(),
        }
    }

    /// Enter `rank`, calling `kind` with `bytes` at `time`, into the
    /// collective at `seq`. Returns the common finish time when `rank`
    /// is the last entrant of a consistent collective; the entrants of
    /// an inconsistent one stay parked, and [`CollTable::mismatch`]
    /// reports it once the run has drained.
    pub(crate) fn enter(
        &mut self,
        seq: usize,
        rank: usize,
        kind: EventKind,
        bytes: usize,
        time: f64,
    ) -> Option<f64> {
        if self.entries.len() <= seq {
            // A rank reaches `seq` only after every rank passed
            // `seq - 1`, so the table grows one sequence at a time.
            debug_assert_eq!(self.entries.len(), seq, "collective entered out of order");
            self.entries.push(CollEntry {
                kind,
                owner: rank,
                bytes: 0,
                entered: 0,
                max_entry: 0.0,
                mismatch: None,
            });
        }
        let e = &mut self.entries[seq];
        let differs = if rank < e.owner {
            // A new smallest entrant redefines the expected call; the
            // old owner was the smallest entrant so far, hence the
            // smallest now disagreeing with it.
            let old = (e.owner, e.kind);
            e.owner = rank;
            e.kind = kind;
            (old.1 != kind).then_some(old)
        } else {
            (kind != e.kind).then_some((rank, kind))
        };
        if let Some((r, k)) = differs {
            if e.mismatch.is_none_or(|(m, _)| r < m) {
                e.mismatch = Some((r, k));
            }
        }
        e.bytes = e.bytes.max(bytes);
        e.entered += 1;
        e.max_entry = e.max_entry.max(time);
        let n = self.net.nprocs();
        if e.entered < n || e.mismatch.is_some() {
            return None;
        }
        let cost = match e.kind {
            EventKind::Barrier => self.net.barrier_cost(n),
            EventKind::Allreduce => self.net.allreduce_cost(n, e.bytes),
            EventKind::Bcast => self.net.bcast_cost(n, e.bytes),
            EventKind::Reduce => self.net.reduce_cost(n, e.bytes),
            EventKind::Allgather => self.net.allgather_cost(n, e.bytes),
            EventKind::Alltoall => self.net.alltoall_cost(n, e.bytes),
            _ => 0.0,
        };
        Some(e.max_entry + cost)
    }

    /// The canonical mismatch error, if any sequence saw one.
    pub(crate) fn mismatch(&self) -> Option<SimError> {
        self.entries.iter().enumerate().find_map(|(seq, e)| {
            let (rank, found) = e.mismatch?;
            Some(SimError::CollectiveMismatch {
                seq,
                rank,
                expected: collective_name(e.kind),
                found: collective_name(found),
            })
        })
    }
}

/// The kind and payload of a collective op (`None` for any other op).
fn collective_of(op: &Op) -> Option<(EventKind, usize)> {
    Some(match *op {
        Op::Allreduce { bytes } => (EventKind::Allreduce, bytes),
        Op::Barrier => (EventKind::Barrier, 0),
        Op::Bcast { bytes, .. } => (EventKind::Bcast, bytes),
        Op::Reduce { bytes, .. } => (EventKind::Reduce, bytes),
        Op::Allgather { bytes } => (EventKind::Allgather, bytes),
        Op::Alltoall { bytes } => (EventKind::Alltoall, bytes),
        _ => return None,
    })
}

/// Name used in collective-mismatch diagnostics.
fn collective_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Allreduce => "Allreduce",
        EventKind::Barrier => "Barrier",
        EventKind::Bcast => "Bcast",
        EventKind::Reduce => "Reduce",
        EventKind::Allgather => "Allgather",
        EventKind::Alltoall => "Alltoall",
        _ => "?",
    }
}

// ---------------------------------------------------------------------------
// The partition boundary (monomorphized; see the module docs)
// ---------------------------------------------------------------------------

/// How a [`Scheduler`] reaches the ranks it does not own. Channels
/// live with their receiver, so a partition posts receives locally and
/// only sends, rendezvous completions and collective finishes cross a
/// boundary.
pub(crate) trait Boundary {
    /// Whether this partition executes `rank` (and owns the channels
    /// into it).
    fn owns(&self, rank: usize) -> bool;
    /// Hand a send posting to the partition owning its receiver `to`.
    fn forward_send(&mut self, from: usize, to: usize, post: SendPost);
    /// Hand the rendezvous completion of request `ireq` back to the
    /// partition owning its sender `rank`.
    fn forward_rdv_done(&mut self, rank: usize, ireq: IReq, done_at: f64);
    /// [`CollTable::enter`] on the run's collective table; a finish is
    /// also published to every other partition.
    fn enter_collective(
        &mut self,
        seq: usize,
        rank: usize,
        kind: EventKind,
        bytes: usize,
        time: f64,
    ) -> Option<f64>;
    /// The executing rank's turn ended with its clock at `clock`.
    fn end_turn(&mut self, clock: f64);
}

/// The one-partition boundary: owns every rank and the collective
/// table. Every hook is a constant or a direct call.
struct Solo<'a>(CollTable<'a>);

impl Boundary for Solo<'_> {
    #[inline]
    fn owns(&self, _rank: usize) -> bool {
        true
    }
    fn forward_send(&mut self, _from: usize, _to: usize, _post: SendPost) {
        unreachable!("a solo partition owns every rank")
    }
    fn forward_rdv_done(&mut self, _rank: usize, _ireq: IReq, _done_at: f64) {
        unreachable!("a solo partition owns every rank")
    }
    #[inline]
    fn enter_collective(
        &mut self,
        seq: usize,
        rank: usize,
        kind: EventKind,
        bytes: usize,
        time: f64,
    ) -> Option<f64> {
        self.0.enter(seq, rank, kind, bytes, time)
    }
    #[inline]
    fn end_turn(&mut self, _clock: f64) {}
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// A rank whose clock reached its injected crash time before op `pc`.
struct Crash {
    at_s: f64,
    rank: usize,
    pc: usize,
}

/// The event-driven scheduler over the ranks one partition owns,
/// monomorphized over the fault hook, the boundary and the tracing
/// flag. Programs are already validated.
///
/// State is globally indexed even when the partition owns a slice of
/// the ranks: only owned slots (plus the rendezvous completions of
/// owned senders) are ever touched, but global indexing keeps the arena
/// numbering identical at every partition count.
pub(crate) struct Scheduler<'a, F, B, const TRACE: bool> {
    programs: &'a [Program],
    replay: &'a Replay<'a>,
    np: &'a NetParams,
    faults: &'a F,
    pub(crate) boundary: B,
    owned: Range<usize>,
    ranks: Vec<RankState<'a>>,
    /// All internal requests in one flat arena; each rank owns the
    /// contiguous slot range sized by its prepass post count.
    reqs: Vec<Req>,
    channels: Channels,
    ready: ReadyQueue,
    /// Finish time of every completed collective, by sequence number.
    coll_finish: Vec<f64>,
    crashes: Vec<Crash>,
    timeline: Timeline,
    /// Online per-rank breakdown (kept even when full tracing is off).
    breakdown: Vec<[f64; EventKind::COUNT]>,
    /// Online per-rank profile phases, written like `breakdown`.
    phases: Vec<RankPhases>,
    /// The warm-up cut, when the replay inserts a warm-up barrier.
    cut: Option<Cut>,
}

impl<'a, F: FaultHook, B: Boundary, const TRACE: bool> Scheduler<'a, F, B, TRACE> {
    /// A scheduler executing the ranks `owned` as `replay` walks them.
    pub(crate) fn new(
        programs: &'a [Program],
        replay: &'a Replay<'a>,
        np: &'a NetParams,
        owned: Range<usize>,
        faults: &'a F,
        boundary: B,
    ) -> Self {
        let nranks = programs.len();
        let ranks = (0..nranks)
            .map(|r| RankState {
                seg: &[],
                at: 0,
                base: 0,
                reps: 0,
                cut_reached: false,
                clock: 0.0,
                blocked: None,
                done: false,
                req_next: replay.slots[r],
                req_end: replay.slots[r + 1],
                id_offset: 0,
                send_memo: ChanMemo::EMPTY,
                recv_memo: ChanMemo::EMPTY,
                user_reqs: Vec::new(),
                coll_seq: 0,
            })
            .collect();
        Scheduler {
            programs,
            replay,
            np,
            faults,
            boundary,
            ranks,
            reqs: vec![Req::PENDING_RECV; replay.slots[nranks]],
            channels: Channels::default(),
            ready: ReadyQueue::new(nranks, owned.clone()),
            owned,
            coll_finish: Vec::new(),
            crashes: Vec::new(),
            timeline: Timeline::new(nranks),
            breakdown: vec![[0.0; EventKind::COUNT]; nranks],
            phases: vec![RankPhases::default(); nranks],
            cut: replay.cut.map(|seq| Cut {
                seq,
                finish: None,
                rows: vec![[0.0; EventKind::COUNT]; nranks],
                phases: vec![RankPhases::default(); nranks],
            }),
        }
    }

    /// Run ranks off the ready queue until it is empty. The only error
    /// is [`SimError::Cancelled`]; every other failure parks or retires
    /// ranks and is resolved by [`Scheduler::conclude`].
    pub(crate) fn drain(&mut self) -> Result<(), SimError> {
        while let Some(r) = self.ready.pop() {
            if self.ranks[r].done {
                continue; // woken spuriously after finishing or crashing
            }
            'rank: loop {
                if F::ENABLED {
                    // Cooperative cancellation and hard crashes are
                    // checked at op granularity. A crash retires only
                    // the crashed rank: the rest drain to quiescence so
                    // the blame is the earliest `(at_s, rank)` at any
                    // partition count.
                    if self.faults.cancelled() {
                        return Err(SimError::Cancelled);
                    }
                    let state = &mut self.ranks[r];
                    if state.clock >= self.faults.crash_at(r) {
                        self.crashes.push(Crash {
                            at_s: state.clock,
                            rank: r,
                            pc: state.pc(),
                        });
                        state.done = true;
                        break 'rank;
                    }
                }
                // Re-examine the blocked state first: a popped rank was
                // woken by a completion that may end its blocked op.
                // (Blocking ops that can finish immediately never store
                // a `Blocked` at all — they unblock inline below.)
                match self.ranks[r].blocked {
                    Some(Blocked::Reqs { reqs, kind, start }) => {
                        if !self.try_unblock(r, reqs, kind, start) {
                            // Still pending; the next completion
                            // delivered to this rank re-enqueues it.
                            break 'rank;
                        }
                        continue 'rank;
                    }
                    Some(Blocked::Collective { start, kind }) => {
                        let seq = self.ranks[r].coll_seq;
                        let Some(&finish) = self.coll_finish.get(seq) else {
                            break 'rank;
                        };
                        self.unblock_collective(r, start, finish, kind);
                        continue 'rank;
                    }
                    None => {}
                }

                let state = &self.ranks[r];
                let clock = state.clock;
                let Some(&op) = state.seg.get(state.at) else {
                    if !self.next_segment(r) {
                        self.ranks[r].done = true;
                        break 'rank;
                    }
                    continue 'rank;
                };
                // Blocking point-to-point ops yield the requests they
                // wait on.
                let (set, kind) = match op {
                    Op::Compute { seconds } => {
                        self.compute(r, clock, seconds);
                        continue 'rank;
                    }
                    Op::Send { to, tag, bytes } => {
                        let s = self.post_send(r, to, tag, bytes, clock);
                        (ReqSet::one(s), EventKind::Send)
                    }
                    Op::Recv { from, tag } => {
                        let v = self.post_recv(from, r, tag, clock);
                        (ReqSet::one(v), EventKind::Recv)
                    }
                    Op::Sendrecv {
                        to,
                        send_bytes,
                        from,
                        tag,
                    } => {
                        let s = self.post_send(r, to, tag, send_bytes, clock);
                        let v = self.post_recv(from, r, tag, clock);
                        (ReqSet::two(s, v), EventKind::Sendrecv)
                    }
                    Op::Isend {
                        to,
                        tag,
                        bytes,
                        req,
                    } => {
                        let s = self.post_send(r, to, tag, bytes, clock);
                        self.set_user_req(r, req, s);
                        continue 'rank;
                    }
                    Op::Irecv { from, tag, req } => {
                        let v = self.post_recv(from, r, tag, clock);
                        self.set_user_req(r, req, v);
                        continue 'rank;
                    }
                    Op::Wait { req } => {
                        let ireq = self.ranks[r].user_reqs[req as usize];
                        debug_assert_ne!(ireq, NO_REQ, "validated: wait follows creation");
                        (ReqSet::one(ireq), EventKind::Wait)
                    }
                    _ => {
                        let (kind, bytes) = collective_of(&op).expect("only collectives remain");
                        let seq = self.ranks[r].coll_seq;
                        // The last entrant finishes the collective and
                        // unblocks inline; everyone else parks.
                        match self.boundary.enter_collective(seq, r, kind, bytes, clock) {
                            Some(finish) => {
                                self.collective_finished(seq, finish, r);
                                self.unblock_collective(r, clock, finish, kind);
                                continue 'rank;
                            }
                            None => {
                                self.ranks[r].blocked =
                                    Some(Blocked::Collective { start: clock, kind });
                                break 'rank;
                            }
                        }
                    }
                };
                if !self.try_unblock(r, set, kind, clock) {
                    self.ranks[r].blocked = Some(Blocked::Reqs {
                        reqs: set,
                        kind,
                        start: clock,
                    });
                    break 'rank;
                }
            }
            self.boundary.end_turn(self.ranks[r].clock);
        }
        Ok(())
    }

    /// Move rank `r`, whose segment is exhausted, to its next one: the
    /// warm-up barrier once `before` repetitions are done, otherwise the
    /// next repetition of its program, which restarts the rank's
    /// request slots and advances its run-wide request ids. Returns
    /// `false` when the rank has walked everything.
    #[cold]
    fn next_segment(&mut self, r: usize) -> bool {
        let replay = self.replay;
        let state = &mut self.ranks[r];
        state.base += state.at;
        state.at = 0;
        if replay.cut.is_some() && !state.cut_reached && state.reps == replay.before {
            state.cut_reached = true;
            state.seg = &WARMUP_BARRIER;
            return true;
        }
        if state.reps == replay.before + replay.after {
            return false;
        }
        // Run-wide request ids are those of the concatenated run: rank
        // `r`'s first is `(before + after) × slots[r]` (the prefix sum
        // of every rank's posts over all repetitions), and each
        // repetition advances them by the rank's post count. Every
        // partition numbers the same way, so request ids — and the
        // flaky-link draws keyed by them — do not depend on the
        // partition count.
        let (slots, posts) = (replay.slots[r], replay.slots[r + 1] - replay.slots[r]);
        state.seg = &self.programs[r].ops;
        state.req_next = slots;
        state.id_offset = slots * (replay.before + replay.after - 1) + state.reps * posts;
        state.reps += 1;
        true
    }

    /// Execute a compute op of fault-free length `seconds`. Fault
    /// inflation (noise, straggler, throttle) stretches the op; the
    /// excess over the fault-free duration is attributed to
    /// `Phase::FaultStall` so variability studies can read the injected
    /// time directly.
    #[inline]
    fn compute(&mut self, r: usize, clock: f64, seconds: f64) {
        let (total, stall) = if F::ENABLED {
            let pc = self.ranks[r].pc();
            let t = self.faults.compute_seconds(r, pc, clock, seconds);
            (t, (t - seconds).max(0.0))
        } else {
            (seconds, 0.0)
        };
        if TRACE {
            self.timeline
                .record(r, clock, clock + total, EventKind::Compute);
        }
        self.breakdown[r][EventKind::Compute.index()] += total;
        if F::ENABLED && stall > 0.0 {
            self.phases[r].add(Phase::Compute, total - stall);
            self.phases[r].add(Phase::FaultStall, stall);
        } else {
            self.phases[r].add(Phase::Compute, total);
        }
        let state = &mut self.ranks[r];
        state.clock += total;
        state.at += 1;
    }

    /// If every request in `set` has completed, perform the full
    /// unblock bookkeeping (trace, breakdown, profile phase, clock,
    /// program counter) and return `true`; otherwise leave the rank
    /// untouched. Shared by the inline fast path (blocking op completes
    /// at post time) and the wake path (rank re-examined off the ready
    /// queue).
    #[inline]
    fn try_unblock(&mut self, r: usize, set: ReqSet, kind: EventKind, start: f64) -> bool {
        let mut resume = start;
        for &ireq in set.as_slice() {
            let q = self.reqs[ireq];
            if !q.done {
                return false;
            }
            resume = resume.max(q.done_at);
        }
        // Attribute the blocked time: a rendezvous send in the set
        // means a hand-shake stall; otherwise an unfinished receive
        // dominates (eager sends complete in `o`).
        let has = |class: ReqClass| set.as_slice().iter().any(|&q| self.reqs[q].class == class);
        let phase = if has(ReqClass::RdvSend) {
            Phase::RendezvousStall
        } else if has(ReqClass::Recv) {
            Phase::RecvWait
        } else {
            Phase::EagerSend
        };
        if TRACE {
            self.timeline.record(r, start, resume, kind);
        }
        if resume > start {
            self.breakdown[r][kind.index()] += resume - start;
            self.phases[r].add(phase, resume - start);
        }
        let state = &mut self.ranks[r];
        state.clock = resume;
        state.blocked = None;
        state.at += 1;
        true
    }

    /// Unblock bookkeeping for a finished collective: the rank leaves
    /// at the common `finish` time and advances to its next collective
    /// sequence number. Leaving the warm-up barrier records the rank's
    /// rows of the cut.
    #[inline]
    fn unblock_collective(&mut self, r: usize, start: f64, finish: f64, kind: EventKind) {
        if TRACE {
            self.timeline.record(r, start, finish, kind);
        }
        if finish > start {
            self.breakdown[r][kind.index()] += finish - start;
            self.phases[r].add(Phase::CollectiveWait, finish - start);
        }
        if let Some(cut) = &mut self.cut {
            if self.ranks[r].coll_seq == cut.seq {
                cut.rows[r] = self.breakdown[r];
                cut.phases[r] = self.phases[r];
            }
        }
        let state = &mut self.ranks[r];
        state.clock = finish;
        state.blocked = None;
        state.coll_seq += 1;
        state.at += 1;
    }

    /// Record collective `seq`'s finish and wake every owned rank —
    /// all of them entered it (except `running`, which re-examines its
    /// state inline).
    pub(crate) fn collective_finished(&mut self, seq: usize, finish: f64, running: usize) {
        debug_assert_eq!(self.coll_finish.len(), seq, "collectives finish in order");
        self.coll_finish.push(finish);
        if let Some(cut) = &mut self.cut {
            if seq == cut.seq {
                cut.finish = Some(finish);
            }
        }
        for r in self.owned.clone() {
            self.ready.wake(r, running);
        }
    }

    /// Record `user req id → ireq` in rank `r`'s slot vector, growing
    /// it on first use of a new id (ids may be reused after their
    /// `Wait`), and step past the non-blocking post.
    #[inline]
    fn set_user_req(&mut self, r: usize, req: ReqId, ireq: IReq) {
        let state = &mut self.ranks[r];
        let slot = req as usize;
        if state.user_reqs.len() <= slot {
            state.user_reqs.resize(slot + 1, NO_REQ);
        }
        state.user_reqs[slot] = ireq;
        state.at += 1;
    }

    /// Take the next request slot of `rank`'s arena range.
    #[inline]
    fn next_req(&mut self, rank: usize) -> IReq {
        let state = &mut self.ranks[rank];
        let ireq = state.req_next;
        debug_assert!(ireq < state.req_end, "prepass under-counted posts");
        state.req_next += 1;
        ireq
    }

    /// Post a send: create its request (eager sends complete locally
    /// after the sender overhead, receiver or not) and match it against
    /// its channel's pending receives — or forward it to the partition
    /// owning the receiver.
    fn post_send(&mut self, from: usize, to: usize, tag: u32, bytes: usize, time: f64) -> IReq {
        let eager = bytes < self.np.eager_threshold;
        let ireq = self.next_req(from);
        self.reqs[ireq] = if eager {
            Req {
                done_at: time + self.np.send_overhead,
                class: ReqClass::EagerSend,
                done: true,
            }
        } else {
            Req {
                done_at: 0.0,
                class: ReqClass::RdvSend,
                done: false,
            }
        };
        let post = SendPost {
            time,
            bytes,
            ireq,
            id: ireq + self.ranks[from].id_offset,
            tag,
        };
        if self.boundary.owns(to) {
            let memo = &mut self.ranks[from].send_memo;
            let slot = self.channels.memo_slot(self.np, memo, to, from, to);
            self.arrive_send(slot, from, to, post, from);
        } else {
            self.boundary.forward_send(from, to, post);
        }
        ireq
    }

    /// Post a receive on its (always local) channel: match it against
    /// the oldest pending send with its tag, or queue it.
    fn post_recv(&mut self, from: usize, to: usize, tag: u32, time: f64) -> IReq {
        let ireq = self.next_req(to);
        self.reqs[ireq] = Req::PENDING_RECV;
        let memo = &mut self.ranks[to].recv_memo;
        let slot = self.channels.memo_slot(self.np, memo, from, from, to);
        let ch = &mut self.channels.store[slot as usize];
        let v = RecvPost { time, ireq, tag };
        match ch.sends.take(|s| s.tag == tag) {
            Some(s) => self.complete_match(slot, from, to, s, v, to),
            None => ch.recvs.push(v),
        }
        ireq
    }

    /// A send forwarded by the sender's partition arrives at its
    /// channel.
    pub(crate) fn deliver_send(&mut self, from: usize, to: usize, post: SendPost) {
        let slot = self.channels.slot(self.np, from, to);
        self.arrive_send(slot, from, to, post, usize::MAX);
    }

    /// Match send `s` against the oldest pending receive with its tag
    /// in channel `slot` (`from → to`), or queue it.
    #[inline]
    fn arrive_send(&mut self, slot: u32, from: usize, to: usize, s: SendPost, running: usize) {
        let ch = &mut self.channels.store[slot as usize];
        match ch.recvs.take(|v| v.tag == s.tag) {
            Some(v) => self.complete_match(slot, from, to, s, v, running),
            None => ch.sends.push(s),
        }
    }

    /// Complete owned request `ireq` of `rank` at `done_at` (a
    /// rendezvous resolved in the receiver's partition).
    pub(crate) fn complete_remote(&mut self, rank: usize, ireq: IReq, done_at: f64) {
        self.reqs[ireq].complete(done_at);
        self.ready.wake(rank, usize::MAX);
    }

    /// Complete the matched pair `s`/`v` of channel `slot` (`from →
    /// to`), delivering completions straight into the request arena and
    /// waking the owning ranks (the currently executing rank `running`
    /// re-examines its own state inline instead). A foreign sender's
    /// rendezvous completion crosses the boundary.
    fn complete_match(
        &mut self,
        slot: u32,
        from: usize,
        to: usize,
        s: SendPost,
        v: RecvPost,
        running: usize,
    ) {
        let ch = &self.channels.store[slot as usize];
        let mut wire = ch.wire_lat + s.bytes as f64 / ch.wire_denom;
        if F::ENABLED {
            // Degraded-link retransmissions lengthen the transfer; the
            // draw is keyed by the sender's run-wide request id,
            // keeping it visiting-order independent.
            wire += self.faults.wire_extra(from, to, s.id);
        }
        let recv_done = if s.bytes < self.np.eager_threshold {
            // The sender's completion was already issued at post time
            // (eager sends complete locally); only the receive side
            // completes here, at message arrival.
            v.time.max(s.time + wire)
        } else {
            // Rendezvous: transfer starts when both are ready.
            let done = s.time.max(v.time) + wire;
            if self.boundary.owns(from) {
                self.reqs[s.ireq].complete(done);
                self.ready.wake(from, running);
            } else {
                self.boundary.forward_rdv_done(from, s.ireq, done);
            }
            done
        };
        self.reqs[v.ireq].complete(recv_done);
        self.ready.wake(to, running);
    }

    /// Fold in a drained partition: its owned per-rank state replaces
    /// the (untouched) rows here, and its crashes join this one's. The
    /// partitions' warm-up cuts merge the same way.
    pub(crate) fn absorb(&mut self, mut part: Self) {
        let owned = part.owned.clone();
        self.ranks[owned.clone()].swap_with_slice(&mut part.ranks[owned.clone()]);
        self.breakdown[owned.clone()].copy_from_slice(&part.breakdown[owned.clone()]);
        self.phases[owned.clone()].copy_from_slice(&part.phases[owned.clone()]);
        self.timeline.absorb(&part.timeline);
        self.crashes.append(&mut part.crashes);
        if let (Some(cut), Some(theirs)) = (&mut self.cut, part.cut) {
            cut.finish = cut.finish.or(theirs.finish);
            cut.rows[owned.clone()].copy_from_slice(&theirs.rows[owned.clone()]);
            cut.phases[owned.clone()].copy_from_slice(&theirs.phases[owned]);
        }
    }

    /// The run's outcome from the drained state of every rank, in the
    /// canonical order after cancellation: the earliest `(at_s, rank)`
    /// crash, then `mismatch`, then deadlock.
    pub(crate) fn conclude(
        self,
        mismatch: Option<SimError>,
    ) -> Result<(SimResult, Option<WarmupCut>), SimError> {
        let earliest = self
            .crashes
            .iter()
            .min_by(|a, b| a.at_s.total_cmp(&b.at_s).then_with(|| a.rank.cmp(&b.rank)));
        if let Some(c) = earliest {
            return Err(SimError::RankFailed {
                rank: c.rank,
                op_index: c.pc,
                at_s: c.at_s,
            });
        }
        if let Some(e) = mismatch {
            return Err(e);
        }
        if self.ranks.iter().any(|s| !s.done) {
            let blocked = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.done)
                .map(|(r, s)| (r, s.pc(), s.seg[s.at.min(s.seg.len().saturating_sub(1))]))
                .collect();
            return Err(SimError::Deadlock(blocked));
        }
        let finish_times: Vec<f64> = self.ranks.iter().map(|s| s.clock).collect();
        let makespan = finish_times.iter().copied().fold(0.0, f64::max);
        let cut = self.cut.map(|cut| WarmupCut {
            // Every rank of a completed run left the barrier, so only a
            // run without ranks has no finish to report.
            finish: cut.finish.unwrap_or(0.0),
            per_rank_breakdown: cut.rows,
            per_rank_phases: cut.phases,
        });
        // Every rank walked its program once per repetition (see the
        // module docs).
        let reps = (self.replay.before + self.replay.after) as u64;
        let mut profile = self.replay.step.traffic(reps, self.np.eager_threshold);
        profile.per_rank = self.phases;
        let node_of = &self.np.node_of;
        let internode_bytes = profile
            .pairs()
            .filter(|&(from, to, _)| node_of[from] != node_of[to])
            .map(|(_, _, bytes)| bytes)
            .sum();
        Ok((
            SimResult {
                makespan,
                finish_times,
                timeline: self.timeline,
                p2p_bytes: profile.pairs().map(|(_, _, bytes)| bytes).sum(),
                internode_bytes,
                per_rank_breakdown: self.breakdown,
                profile,
            },
            cut,
        ))
    }
}

/// The discrete-event engine. See the module docs for semantics.
pub struct Engine {
    config: SimConfig,
    pub(crate) net: NetModel,
    pub(crate) programs: Vec<Program>,
    /// Cooperative cancellation token (see [`Engine::with_cancel`]).
    cancel: Option<Arc<AtomicBool>>,
}

impl Engine {
    pub fn new(config: SimConfig, net: NetModel, programs: Vec<Program>) -> Self {
        assert_eq!(
            net.nprocs(),
            programs.len(),
            "network model sized for {} ranks but {} programs given",
            net.nprocs(),
            programs.len()
        );
        Engine {
            config,
            net,
            programs,
            cancel: None,
        }
    }

    /// Attach a cooperative cancellation token: when another thread
    /// sets the flag, the run aborts at the next op boundary with
    /// [`SimError::Cancelled`]. Attaching a token routes the run
    /// through the fault-capable instantiation of the scheduler (the
    /// flag is polled at op granularity), so timing results remain
    /// identical but the zero-poll fast path is forgone.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Execute the programs to completion.
    pub fn run(self) -> Result<SimResult, SimError> {
        let prepass = Prepass::analyze(&self.programs)?;
        self.run_prevalidated(&prepass)
    }

    /// Execute programs whose [`Prepass`] was computed (or derived) in
    /// advance — for callers that simulate several runs of one set of
    /// programs, or of concatenations of one template (see
    /// [`Prepass::scaled`]), and pay for the walk once.
    ///
    /// The prepass must describe exactly `self`'s programs (the rank
    /// count is asserted; the per-rank post counts and the sends behind
    /// the message statistics are trusted, and a debug assertion in the
    /// scheduler catches post undercounts).
    pub fn run_prevalidated(self, prepass: &Prepass) -> Result<SimResult, SimError> {
        self.run_replay(&Replay::once(prepass))
            .map(|(result, _)| result)
    }

    /// Replay `self`'s programs as a step template: every rank walks
    /// its program `warmup` times, a warm-up `Barrier`, then `measured`
    /// more times. The result is that of running the concatenated
    /// `warmup×step + Barrier + measured×step` programs bit for bit —
    /// fault draws, error payloads and the timeline included — and the
    /// [`WarmupCut`] is what a run of the `warmup×step + Barrier` prefix
    /// alone would have returned. `step` is the [`Prepass`] of the
    /// template (trusted as in [`Engine::run_prevalidated`]).
    pub fn run_replayed(
        self,
        step: &Prepass,
        warmup: usize,
        measured: usize,
    ) -> Result<(SimResult, WarmupCut), SimError> {
        let replay = Replay::warmed(&self.programs, step, warmup, measured);
        let (result, cut) = self.run_replay(&replay)?;
        Ok((
            result,
            cut.expect("a replay with a warm-up barrier records its cut"),
        ))
    }

    /// Run every rank as `replay` walks it.
    fn run_replay(&self, replay: &Replay) -> Result<(SimResult, Option<WarmupCut>), SimError> {
        let nranks = self.programs.len();
        assert_eq!(
            replay.step.nranks(),
            nranks,
            "prepass sized for {} ranks but {} programs given",
            replay.step.nranks(),
            nranks
        );
        // `threads` is a scheduling knob, never a semantic one: results
        // are bit-identical at every value, 0 is clamped to 1 and the
        // partition count never exceeds the rank count.
        let threads = self.config.threads.max(1).min(nranks.max(1));
        // Fault-capable instantiations are selected only when a plan or
        // a cancellation token is present; otherwise the zero-cost
        // `NoFaults` hook keeps the hot path free of fault branches.
        if !self.config.faults.is_none() || self.cancel.is_some() {
            let hook = ActiveFaults::compile(&self.config.faults, nranks, self.cancel.clone());
            self.dispatch(replay, threads, &hook)
        } else {
            self.dispatch(replay, threads, &NoFaults)
        }
    }

    /// Select the trace instantiation for fault hook `F`.
    fn dispatch<F: FaultHook>(
        &self,
        replay: &Replay,
        threads: usize,
        faults: &F,
    ) -> Result<(SimResult, Option<WarmupCut>), SimError> {
        if self.config.trace {
            self.run_with::<F, true>(replay, threads, faults)
        } else {
            self.run_with::<F, false>(replay, threads, faults)
        }
    }

    /// Run one instantiation: the `Solo` boundary on the calling thread,
    /// or `threads` partitions under [`crate::pdes`].
    fn run_with<F: FaultHook, const TRACE: bool>(
        &self,
        replay: &Replay,
        threads: usize,
        faults: &F,
    ) -> Result<(SimResult, Option<WarmupCut>), SimError> {
        if threads > 1 {
            return crate::pdes::run::<F, TRACE>(self, replay, threads, faults);
        }
        let nranks = self.programs.len();
        let np = NetParams::of(&self.net, nranks);
        let solo = Solo(CollTable::new(&self.net));
        let mut sched =
            Scheduler::<F, _, TRACE>::new(&self.programs, replay, &np, 0..nranks, faults, solo);
        sched.drain()?;
        let mismatch = sched.boundary.0.mismatch();
        sched.conclude(mismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Regime;
    use crate::program::{Op, Program};
    use spechpc_machine::presets;

    fn engine_for(progs: Vec<Program>) -> Engine {
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        Engine::new(SimConfig::default(), net, progs)
    }

    fn run(progs: Vec<Program>) -> SimResult {
        engine_for(progs).run().expect("simulation must succeed")
    }

    #[test]
    fn pure_compute_runs_independently() {
        let mut p0 = Program::new();
        p0.push(Op::compute(1.0));
        let mut p1 = Program::new();
        p1.push(Op::compute(2.0));
        let r = run(vec![p0, p1]);
        assert!((r.finish_times[0] - 1.0).abs() < 1e-12);
        assert!((r.finish_times[1] - 2.0).abs() < 1e-12);
        assert!((r.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eager_send_does_not_wait_for_receiver() {
        // Rank 0 sends a tiny message then computes; rank 1 computes for
        // a long time before receiving. Eager: sender is not delayed.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 8));
        p0.push(Op::compute(1.0));
        let mut p1 = Program::new();
        p1.push(Op::compute(5.0));
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        assert!(
            r.finish_times[0] < 1.1,
            "eager sender delayed: {:?}",
            r.finish_times
        );
        assert!(r.finish_times[1] >= 5.0);
    }

    #[test]
    fn rendezvous_send_blocks_until_recv_posted() {
        // 2 MiB is above the 64 KiB eager threshold.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 2 << 20));
        let mut p1 = Program::new();
        p1.push(Op::compute(3.0));
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        // Sender cannot finish before the receiver posts at t=3.
        assert!(
            r.finish_times[0] >= 3.0,
            "rendezvous not enforced: {:?}",
            r.finish_times
        );
    }

    #[test]
    fn recv_completes_at_arrival_not_post() {
        let mut p0 = Program::new();
        p0.push(Op::compute(2.0));
        p0.push(Op::send(1, 0, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        // Receiver posts at t=0 but data only exists after t=2.
        assert!(r.finish_times[1] >= 2.0);
    }

    #[test]
    fn sendrecv_pair_exchanges_without_deadlock() {
        // Two ranks sendrecv large messages to each other — with plain
        // blocking rendezvous sends this would deadlock.
        let mk = |peer: usize| {
            let mut p = Program::new();
            p.push(Op::sendrecv(peer, 1 << 20, peer, 0));
            p
        };
        let r = run(vec![mk(1), mk(0)]);
        assert!(r.makespan > 0.0);
        assert!((r.finish_times[0] - r.finish_times[1]).abs() < 1e-9);
    }

    #[test]
    fn opposing_blocking_rendezvous_sends_deadlock() {
        let mk = |peer: usize| {
            let mut p = Program::new();
            p.push(Op::send(peer, 0, 1 << 20));
            p.push(Op::recv(peer, 0));
            p
        };
        let err = engine_for(vec![mk(1), mk(0)]).run().unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
    }

    #[test]
    fn deadlock_display_reports_all_blocked_ranks() {
        // An 11-rank cyclic rendezvous deadlock: the Display form
        // details the first 8 ranks and must say how many more are
        // blocked instead of silently truncating.
        let n = 11;
        let progs: Vec<Program> = (0..n)
            .map(|r| {
                let mut p = Program::new();
                p.push(Op::send((r + 1) % n, 0, 1 << 20));
                p.push(Op::recv((r + n - 1) % n, 0));
                p
            })
            .collect();
        let err = engine_for(progs).run().unwrap_err();
        let SimError::Deadlock(ref blocked) = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(blocked.len(), n);
        let msg = err.to_string();
        assert!(
            msg.contains("and 3 more blocked ranks"),
            "truncated ranks not reported: {msg}"
        );
        // All 11 are still present in the payload, only the rendering
        // is summarized.
        assert!(msg.starts_with("deadlock: 11 rank(s) blocked"));
    }

    #[test]
    fn isend_wait_overlaps_compute() {
        let mut p0 = Program::new();
        p0.push(Op::isend(1, 0, 1 << 20, 0));
        p0.push(Op::compute(1.0));
        p0.push(Op::wait(0));
        let mut p1 = Program::new();
        p1.push(Op::irecv(0, 0, 0));
        p1.push(Op::compute(1.0));
        p1.push(Op::wait(0));
        let r = run(vec![p0, p1]);
        // Transfer overlaps the compute: finish ≈ 1.0 + wire, well under
        // the serialized 2.0 + wire.
        assert!(r.makespan < 1.5, "no overlap: makespan {}", r.makespan);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let mut progs = Vec::new();
        for r in 0..4 {
            let mut p = Program::new();
            p.push(Op::compute(r as f64));
            p.push(Op::Barrier);
            progs.push(p);
        }
        let r = run(progs);
        let slowest_entry = 3.0;
        for t in &r.finish_times {
            assert!(*t >= slowest_entry, "barrier exited early: {t}");
        }
        // All ranks leave the barrier at the same time.
        let t0 = r.finish_times[0];
        assert!(r.finish_times.iter().all(|t| (t - t0).abs() < 1e-12));
    }

    #[test]
    fn allreduce_result_time_scales_with_ranks() {
        let mk_progs = |n: usize| {
            (0..n)
                .map(|_| {
                    let mut p = Program::new();
                    p.push(Op::allreduce(8));
                    p
                })
                .collect::<Vec<_>>()
        };
        let t4 = run(mk_progs(4)).makespan;
        let t64 = run(mk_progs(64)).makespan;
        assert!(t64 > t4, "allreduce cost must grow with rank count");
    }

    #[test]
    fn extended_collectives_synchronize_and_cost() {
        let mk = |nranks: usize| -> Vec<Program> {
            (0..nranks)
                .map(|r| {
                    let mut p = Program::new();
                    p.push(Op::compute(0.001 * r as f64));
                    p.push(Op::bcast(0, 4096));
                    p.push(Op::reduce(0, 4096));
                    p.push(Op::allgather(1024));
                    p.push(Op::alltoall(256));
                    p
                })
                .collect()
        };
        let r = run(mk(8));
        // Collectives synchronize: finishing spread is only the cost
        // differences, not the initial skew.
        let t0 = r.finish_times[0];
        assert!(r.finish_times.iter().all(|t| (t - t0).abs() < 1e-12));
        // Cost grows with rank count for the linear collectives.
        let r32 = run(mk(32));
        assert!(r32.makespan > r.makespan);
        // Breakdown records the new kinds.
        let b = r.breakdown();
        assert!(b.fraction(EventKind::Allgather) > 0.0);
        assert!(b.fraction(EventKind::Alltoall) > 0.0);
    }

    #[test]
    fn bcast_root_out_of_range_rejected() {
        let mut p0 = Program::new();
        p0.push(Op::bcast(5, 8));
        let err = engine_for(vec![p0]).run().unwrap_err();
        assert!(matches!(err, SimError::RankOutOfRange { .. }));
    }

    #[test]
    fn collective_mismatch_detected() {
        let mut p0 = Program::new();
        p0.push(Op::Barrier);
        let mut p1 = Program::new();
        p1.push(Op::allreduce(8));
        let err = engine_for(vec![p0, p1]).run().unwrap_err();
        assert!(matches!(err, SimError::CollectiveMismatch { .. }));
    }

    #[test]
    fn rendezvous_chain_ripples() {
        // The minisweep pattern: all ranks send up first (open chain).
        // Rendezvous serializes the chain; makespan grows with length.
        let chain = |n: usize| {
            let progs: Vec<Program> = (0..n)
                .map(|r| {
                    let mut p = Program::new();
                    if r + 1 < n {
                        p.push(Op::send(r + 1, 0, 1 << 20));
                    }
                    if r > 0 {
                        p.push(Op::recv(r - 1, 0));
                    }
                    p
                })
                .collect();
            run(progs).makespan
        };
        let t4 = chain(4);
        let t16 = chain(16);
        assert!(t16 > 3.0 * t4, "serialization missing: t4={t4} t16={t16}");
    }

    #[test]
    fn trace_breakdown_identifies_recv_wait() {
        // Rank 1 waits 10 s in MPI_Recv for rank 0's late message.
        let mut p0 = Program::new();
        p0.push(Op::compute(10.0));
        p0.push(Op::send(1, 0, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        p1.push(Op::compute(0.1));
        let progs = vec![p0, p1];
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        let cfg = SimConfig {
            trace: true,
            ..SimConfig::default()
        };
        let r = Engine::new(cfg, net, progs).run().unwrap();
        let b = r.timeline.rank_breakdown(1);
        assert_eq!(b.dominant_mpi(), Some(EventKind::Recv));
        assert!(b.fraction(EventKind::Recv) > 0.9);
    }

    #[test]
    fn byte_accounting_distinguishes_locality() {
        let cluster = presets::cluster_a();
        // 73 ranks: rank 72 is on node 1.
        let mut progs: Vec<Program> = (0..73).map(|_| Program::new()).collect();
        progs[0].push(Op::send(1, 0, 1000)); // intra-node
        progs[1].push(Op::recv(0, 0));
        progs[0].push(Op::send(72, 1, 500)); // inter-node
        progs[72].push(Op::recv(0, 1));
        let net = NetModel::compact(&cluster, 73);
        let r = Engine::new(SimConfig::default(), net, progs).run().unwrap();
        assert_eq!(r.p2p_bytes, 1500);
        assert_eq!(r.internode_bytes, 500);
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let mut p0 = Program::new();
        p0.push(Op::send(5, 0, 8));
        let err = engine_for(vec![p0]).run().unwrap_err();
        assert!(matches!(err, SimError::RankOutOfRange { .. }));
    }

    #[test]
    fn invalid_program_rejected() {
        let mut p0 = Program::new();
        p0.push(Op::wait(3));
        let err = engine_for(vec![p0]).run().unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram { .. }));
    }

    #[test]
    fn determinism_two_runs_identical() {
        let mk = || {
            let mut progs = Vec::new();
            for r in 0..8 {
                let mut p = Program::new();
                p.push(Op::compute(0.01 * (r + 1) as f64));
                p.push(Op::sendrecv((r + 1) % 8, 1 << 17, (r + 7) % 8, 0));
                p.push(Op::allreduce(64));
                progs.push(p);
            }
            progs
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.finish_times, b.finish_times);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn tags_keep_channels_separate() {
        // Two messages with different tags received in reverse order.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 7, 8));
        p0.push(Op::send(1, 9, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 9));
        p1.push(Op::recv(0, 7));
        let r = run(vec![p0, p1]);
        assert!(r.makespan > 0.0);
    }

    // ---------------------------------------------------------------
    // Mixed tags on one rank pair (rank-pair channels)
    // ---------------------------------------------------------------

    /// What a [`burst`] must produce: each rank's `Wait` intervals (as
    /// the timeline records them) and its finish time.
    #[derive(Debug, PartialEq)]
    struct Expected {
        waits: [Vec<(f64, f64)>; 2],
        finish: [f64; 2],
    }

    /// A one-pair burst and what it must produce when receive `k`
    /// matches send `pairing[k]`. Rank 1 posts one `Irecv` per tag of
    /// `recvs` early; rank 0 then posts one `Isend` per `(tag, bytes)`
    /// of `sends`, each after a compute of its own length. Rank 0 waits
    /// in posting order, rank 1 in the order its receives complete, so
    /// every completion shows in its timeline. Timing follows the
    /// engine's rules: an eager send completes after the overhead and
    /// its receive on arrival; a rendezvous completes both sides at
    /// `max(posts) + wire`.
    fn burst(sends: &[(u32, usize)], recvs: &[u32], pairing: &[usize]) -> (Vec<Program>, Expected) {
        burst_waiting_as(sends, recvs, pairing, pairing)
    }

    /// [`burst`], with rank 1 waiting in the order receives would
    /// complete under `wait_pairing` — to see what a wrong `pairing`
    /// would show in the same programs.
    fn burst_waiting_as(
        sends: &[(u32, usize)],
        recvs: &[u32],
        pairing: &[usize],
        wait_pairing: &[usize],
    ) -> (Vec<Program>, Expected) {
        let net = NetModel::compact(&presets::cluster_a(), 2);
        let ic = net.interconnect();
        let gap0 = |i: usize| 5e-6 + 1e-6 * i as f64;
        let gap1 = |k: usize| 1e-7 * (k + 1) as f64;
        let posted = |n: usize, gap: &dyn Fn(usize) -> f64| {
            let mut t = 0.0;
            (0..n)
                .map(|i| {
                    t += gap(i);
                    t
                })
                .collect::<Vec<f64>>()
        };
        let (ts, tr) = (posted(sends.len(), &gap0), posted(recvs.len(), &gap1));
        let done = |pairing: &[usize]| {
            let mut send_done: Vec<f64> = ts.iter().map(|t| t + net.send_overhead).collect();
            let mut recv_done = vec![0.0; recvs.len()];
            for (k, &i) in pairing.iter().enumerate() {
                let (tag, bytes) = sends[i];
                assert_eq!(tag, recvs[k], "a pairing must match tags");
                let wire = ic.wire_time(bytes, true);
                if ic.is_eager(bytes) {
                    recv_done[k] = tr[k].max(ts[i] + wire);
                } else {
                    recv_done[k] = ts[i].max(tr[k]) + wire;
                    send_done[i] = recv_done[k];
                }
            }
            (send_done, recv_done)
        };
        let (send_done, recv_done) = done(pairing);
        let wait_done = done(wait_pairing).1;
        let mut order: Vec<usize> = (0..recvs.len()).collect();
        order.sort_by(|&a, &b| wait_done[a].total_cmp(&wait_done[b]));
        let waits = |start: f64, done: Vec<f64>| {
            let mut clock = start;
            let mut events = Vec::new();
            for d in done {
                if d > clock {
                    events.push((clock, d));
                    clock = d;
                }
            }
            (events, clock)
        };
        let (w0, f0) = waits(*ts.last().unwrap(), send_done);
        let (w1, f1) = waits(
            *tr.last().unwrap(),
            order.iter().map(|&k| recv_done[k]).collect(),
        );

        let mut p0 = Program::new();
        for (i, &(tag, bytes)) in sends.iter().enumerate() {
            p0.push(Op::compute(gap0(i)));
            p0.push(Op::isend(1, tag, bytes, i as ReqId));
        }
        for i in 0..sends.len() {
            p0.push(Op::wait(i as ReqId));
        }
        let mut p1 = Program::new();
        for (k, &tag) in recvs.iter().enumerate() {
            p1.push(Op::compute(gap1(k)));
            p1.push(Op::irecv(0, tag, k as ReqId));
        }
        for &k in &order {
            p1.push(Op::wait(k as ReqId));
        }
        let expected = Expected {
            waits: [w0, w1],
            finish: [f0, f1],
        };
        (vec![p0, p1], expected)
    }

    /// Run `progs` traced at `threads` and read back what [`Expected`]
    /// describes.
    fn observed(progs: Vec<Program>, threads: usize) -> Result<Expected, SimError> {
        let net = NetModel::compact(&presets::cluster_a(), progs.len());
        let cfg = SimConfig::default().with_trace(true).with_threads(threads);
        let r = Engine::new(cfg, net, progs).run()?;
        let waits = |rank: usize| {
            r.timeline
                .rank_events(rank)
                .iter()
                .filter(|e| e.kind == EventKind::Wait)
                .map(|e| (e.start, e.end))
                .collect()
        };
        Ok(Expected {
            waits: [waits(0), waits(1)],
            finish: [r.finish_times[0], r.finish_times[1]],
        })
    }

    /// Tags 3, 1, 2, 1 out against 1, 2, 1, 3 in, with distinct sizes
    /// so that a wrong pairing changes the timing.
    fn out_of_order(base: usize) -> Vec<(u32, usize)> {
        [3, 1, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, base + 1000 * i))
            .collect()
    }

    #[test]
    fn out_of_order_tags_match_by_tag() {
        // Receive k matches the oldest unmatched send with its tag.
        let recvs = [1, 2, 1, 3];
        for base in [8usize, 1 << 20] {
            let sends = out_of_order(base);
            let (progs, want) = burst(&sends, &recvs, &[1, 2, 3, 0]);
            assert_eq!(observed(progs, 1).unwrap(), want, "message size {base}");
        }
    }

    #[test]
    fn same_tag_messages_stay_fifo() {
        // Two tag-7 messages: the first receive gets the first message.
        for big in [60_000usize, 3 << 20] {
            let sends = [(7, 8), (7, big)];
            let (progs, fifo) = burst(&sends, &[7, 7], &[0, 1]);
            let (_, swapped) = burst_waiting_as(&sends, &[7, 7], &[1, 0], &[0, 1]);
            assert_ne!(fifo, swapped, "the check must tell the orders apart");
            assert_eq!(observed(progs, 1).unwrap(), fifo, "message size {big}");
        }
    }

    #[test]
    fn a_tag_that_never_arrives_deadlocks_with_the_same_payload() {
        // Rank 1 waits for tag 5, which rank 0 never sends; the tag-4
        // message it does send is received. The payload names the
        // blocked op by its program index, at every partition count.
        let mut p0 = Program::new();
        p0.push(Op::isend(1, 4, 64, 0));
        p0.push(Op::wait(0));
        let mut p1 = Program::new();
        p1.push(Op::irecv(0, 5, 0));
        p1.push(Op::recv(0, 4));
        p1.push(Op::wait(0));
        for threads in [1, 2] {
            let err = observed(vec![p0.clone(), p1.clone()], threads).unwrap_err();
            assert_eq!(
                err,
                SimError::Deadlock(vec![(1, 2, Op::Wait { req: 0 })]),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn one_pair_split_across_partitions_matches_by_tag() {
        // At two threads rank 0 and rank 1 live in different
        // partitions: the sends cross the boundary and match there.
        let recvs = [1, 2, 1, 3];
        for base in [8usize, 1 << 20] {
            let (progs, want) = burst(&out_of_order(base), &recvs, &[1, 2, 3, 0]);
            assert_eq!(observed(progs, 2).unwrap(), want, "message size {base}");
        }
    }

    #[test]
    fn user_request_ids_may_be_sparse() {
        // The slot-vector request table must cope with non-contiguous
        // user request ids.
        let mut p0 = Program::new();
        p0.push(Op::irecv(1, 0, 1000));
        p0.push(Op::wait(1000));
        let mut p1 = Program::new();
        p1.push(Op::send(0, 0, 64));
        let r = run(vec![p0, p1]);
        assert!(r.makespan > 0.0);
    }

    // ---------------------------------------------------------------
    // Online profile (the Fig.-2 / ITAC analog)
    // ---------------------------------------------------------------

    #[test]
    fn profile_populated_without_tracing() {
        // Default config: trace off.
        let mut p0 = Program::new();
        p0.push(Op::compute(10.0));
        p0.push(Op::send(1, 0, 8));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        assert!(r.timeline.events.is_empty(), "tracing must default off");
        let prof = &r.profile;
        // Rank 0: 10 s compute plus the eager send overhead.
        assert!((prof.per_rank[0].compute_s - 10.0).abs() < 1e-12);
        // Rank 1 waited ~10 s for the late message.
        assert!(prof.per_rank[1].recv_wait_s > 9.0);
        assert!(prof.per_rank[1].comm_fraction() > 0.9);
        // The 8-byte message is in the eager histogram and the matrix.
        let eager = prof.regime_totals(Regime::Eager);
        let rdv = prof.regime_totals(Regime::Rendezvous);
        assert_eq!(eager.count, 1);
        assert_eq!(eager.bytes, 8);
        assert_eq!(rdv.count, 0);
        assert_eq!(prof.bytes_between(0, 1), 8);
        assert_eq!(prof.bytes_between(1, 0), 0);
    }

    #[test]
    fn profile_distinguishes_rendezvous_stall_from_recv_wait() {
        // Rank 0 posts a 1 MiB rendezvous send immediately; rank 1 only
        // posts the receive after 5 s of compute. The sender's blocked
        // time is a rendezvous stall, not a receive wait.
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 1 << 20));
        let mut p1 = Program::new();
        p1.push(Op::compute(5.0));
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        let prof = &r.profile;
        assert!(prof.per_rank[0].rendezvous_stall_s > 4.0);
        assert_eq!(prof.per_rank[0].recv_wait_s, 0.0);
        assert_eq!(prof.per_rank[1].rendezvous_stall_s, 0.0);
        let eager = prof.regime_totals(Regime::Eager);
        let rdv = prof.regime_totals(Regime::Rendezvous);
        assert_eq!(eager.count, 0);
        assert_eq!(rdv.count, 1);
        assert_eq!(rdv.bytes, 1 << 20);
    }

    #[test]
    fn profile_attributes_collective_wait() {
        // Rank 0 arrives 3 s late at the barrier; rank 1's wait shows up
        // as collective time.
        let mut p0 = Program::new();
        p0.push(Op::compute(3.0));
        p0.push(Op::Barrier);
        let mut p1 = Program::new();
        p1.push(Op::Barrier);
        let r = run(vec![p0, p1]);
        assert!(r.profile.per_rank[1].collective_wait_s > 2.9);
        assert!(r.profile.per_rank[0].collective_wait_s < 0.5);
    }

    #[test]
    fn profile_agrees_with_trace_breakdown() {
        // The online recv-wait total must match what the full timeline
        // reports for the same run.
        let mut p0 = Program::new();
        p0.push(Op::compute(2.0));
        p0.push(Op::send(1, 0, 64));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let progs = vec![p0, p1];
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        let cfg = SimConfig::default().with_trace(true);
        let r = Engine::new(cfg, net, progs).run().unwrap();
        let traced = r
            .timeline
            .rank_breakdown(1)
            .seconds
            .get(&EventKind::Recv)
            .copied()
            .unwrap_or(0.0);
        assert!((r.profile.per_rank[1].recv_wait_s - traced).abs() < 1e-12);
    }

    // ---------------------------------------------------------------
    // Edge cases: zero-byte messages, self-sends, odd rank counts
    // ---------------------------------------------------------------

    #[test]
    fn zero_byte_messages_deliver_and_profile() {
        let mut p0 = Program::new();
        p0.push(Op::send(1, 0, 0));
        let mut p1 = Program::new();
        p1.push(Op::recv(0, 0));
        let r = run(vec![p0, p1]);
        assert!(r.makespan > 0.0, "latency still applies to empty payloads");
        let eager = r.profile.regime_totals(Regime::Eager);
        assert_eq!(eager.count, 1);
        assert_eq!(eager.bytes, 0);
        assert_eq!(r.profile.bytes_between(0, 1), 0);
        assert_eq!(r.p2p_bytes, 0);
    }

    #[test]
    fn eager_self_send_completes() {
        // MPI allows a rank to message itself; with an eager-sized
        // payload the blocking send completes locally and the receive
        // matches the queued message.
        let mut p0 = Program::new();
        p0.push(Op::send(0, 3, 128));
        p0.push(Op::recv(0, 3));
        p0.push(Op::compute(0.5));
        let r = run(vec![p0]);
        assert!(r.makespan >= 0.5);
        assert_eq!(r.profile.bytes_between(0, 0), 128);
        assert_eq!(r.internode_bytes, 0);
    }

    #[test]
    fn rendezvous_self_send_via_irecv() {
        // A rendezvous-sized self-send needs the receive pre-posted
        // (exactly like real MPI): irecv + send + wait.
        let mut p0 = Program::new();
        p0.push(Op::irecv(0, 0, 1));
        p0.push(Op::send(0, 0, 1 << 20));
        p0.push(Op::wait(1));
        let r = run(vec![p0]);
        assert!(r.makespan > 0.0);
        assert_eq!(r.profile.bytes_between(0, 0), 1 << 20);
    }

    #[test]
    fn collectives_at_non_power_of_two_ranks() {
        // p = 3, 6, 100: every collective must synchronize and finish.
        for &p in &[3usize, 6, 100] {
            let progs: Vec<Program> = (0..p)
                .map(|r| {
                    let mut prog = Program::new();
                    prog.push(Op::compute(0.001 * (r + 1) as f64));
                    prog.push(Op::Barrier);
                    prog.push(Op::allreduce(4096));
                    prog.push(Op::bcast(0, 1 << 16));
                    prog.push(Op::reduce(p - 1, 1 << 16));
                    prog.push(Op::allgather(512));
                    prog.push(Op::alltoall(256));
                    prog
                })
                .collect();
            let cluster = presets::cluster_a();
            let net = NetModel::compact(&cluster, p);
            let r = Engine::new(SimConfig::default(), net, progs)
                .run()
                .unwrap_or_else(|e| panic!("p={p}: {e:?}"));
            assert!(r.makespan.is_finite() && r.makespan > 0.0, "p={p}");
            // Everyone but the slowest entrant logged collective wait.
            let waits = r
                .profile
                .per_rank
                .iter()
                .filter(|ph| ph.collective_wait_s > 0.0)
                .count();
            assert!(waits >= p - 1, "p={p}: waits={waits}");
        }
    }

    // ---------------------------------------------------------------
    // Fault injection (see `crate::faults`)
    // ---------------------------------------------------------------

    use crate::faults::FaultEvent;

    fn faulted(progs: Vec<Program>, plan: FaultPlan) -> Result<SimResult, SimError> {
        let cluster = presets::cluster_a();
        let net = NetModel::compact(&cluster, progs.len());
        let cfg = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        Engine::new(cfg, net, progs).run()
    }

    #[test]
    fn crash_aborts_run_blaming_rank() {
        let mut progs = Vec::new();
        for _ in 0..4 {
            let mut p = Program::new();
            for _ in 0..10 {
                p.push(Op::compute(0.1));
                p.push(Op::allreduce(64));
            }
            progs.push(p);
        }
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash {
                rank: 2,
                at_s: 0.35,
            }],
        };
        let err = faulted(progs, plan).unwrap_err();
        let SimError::RankFailed { rank, at_s, .. } = err else {
            panic!("expected RankFailed, got {err:?}");
        };
        assert_eq!(rank, 2);
        assert!(at_s >= 0.35, "crash reported before its time: {at_s}");
    }

    #[test]
    fn crash_after_finish_is_benign() {
        let mut p0 = Program::new();
        p0.push(Op::compute(0.5));
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Crash {
                rank: 0,
                at_s: 100.0,
            }],
        };
        let r = faulted(vec![p0], plan).unwrap();
        assert!((r.makespan - 0.5).abs() < 1e-12);
    }

    #[test]
    fn straggler_inflates_and_attributes_fault_stall() {
        let mk = || {
            let mut p = Program::new();
            p.push(Op::compute(1.0));
            p
        };
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::Straggler {
                rank: 0,
                slowdown: 2.0,
            }],
        };
        let r = faulted(vec![mk(), mk()], plan).unwrap();
        assert!((r.finish_times[0] - 2.0).abs() < 1e-12);
        assert!((r.finish_times[1] - 1.0).abs() < 1e-12);
        // The inflation is visible as fault stall, not as compute.
        assert!((r.profile.per_rank[0].fault_stall_s - 1.0).abs() < 1e-12);
        assert!((r.profile.per_rank[0].compute_s - 1.0).abs() < 1e-12);
        assert_eq!(r.profile.per_rank[1].fault_stall_s, 0.0);
        // The breakdown carries the full inflated compute time.
        assert!((r.per_rank_breakdown[0][EventKind::Compute.index()] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flaky_link_delays_messages_one_direction() {
        let mk = |r: usize| {
            let mut p = Program::new();
            if r == 0 {
                p.push(Op::send(1, 0, 8));
            } else {
                p.push(Op::recv(0, 0));
            }
            p
        };
        let plan = FaultPlan {
            seed: 3,
            events: vec![FaultEvent::FlakyLink {
                from: 0,
                to: 1,
                drop_prob: 0.999,
                retransmit_latency_s: 1.0,
            }],
        };
        let clean = faulted(vec![mk(0), mk(1)], FaultPlan::none()).unwrap();
        let dirty = faulted(vec![mk(0), mk(1)], plan).unwrap();
        // With p≈1 the first attempt virtually always retransmits, so
        // the receive completes at least one retransmit latency later.
        assert!(
            dirty.finish_times[1] >= clean.finish_times[1] + 1.0,
            "no retransmit delay: clean={} dirty={}",
            clean.finish_times[1],
            dirty.finish_times[1]
        );
        // The eager sender is unaffected (completes locally).
        assert!((dirty.finish_times[0] - clean.finish_times[0]).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_through_fault_path_is_bit_identical() {
        // Force the ActiveFaults instantiation with an un-set cancel
        // token and an empty plan: every result must match the
        // zero-cost NoFaults path bit for bit.
        let mk = || {
            let mut progs = Vec::new();
            for r in 0..8usize {
                let mut p = Program::new();
                p.push(Op::compute(0.01 * (r + 1) as f64));
                p.push(Op::sendrecv((r + 1) % 8, 1 << 17, (r + 7) % 8, 0));
                p.push(Op::allreduce(64));
                progs.push(p);
            }
            progs
        };
        let cluster = presets::cluster_a();
        let fast = Engine::new(SimConfig::default(), NetModel::compact(&cluster, 8), mk())
            .run()
            .unwrap();
        let token = Arc::new(AtomicBool::new(false));
        let slow = Engine::new(SimConfig::default(), NetModel::compact(&cluster, 8), mk())
            .with_cancel(token)
            .run()
            .unwrap();
        assert_eq!(fast.finish_times, slow.finish_times);
        assert_eq!(fast.per_rank_breakdown, slow.per_rank_breakdown);
        assert_eq!(fast.profile, slow.profile);
        assert_eq!(fast.p2p_bytes, slow.p2p_bytes);
        assert_eq!(fast.internode_bytes, slow.internode_bytes);
    }

    #[test]
    fn pre_set_cancel_token_aborts_immediately() {
        // An 8-rank ring, cancelled before the first op, at one and at
        // several partitions (the executor's per-run timeout relies on
        // the partitioned path too).
        let ring = || -> Vec<Program> {
            (0..8)
                .map(|r| {
                    let mut p = Program::new();
                    p.push(Op::compute(1.0));
                    p.push(Op::sendrecv((r + 1) % 8, 1 << 17, (r + 7) % 8, 0));
                    p.push(Op::allreduce(64));
                    p
                })
                .collect()
        };
        let cluster = presets::cluster_a();
        for threads in [1, 2, 4] {
            let token = Arc::new(AtomicBool::new(true));
            let cfg = SimConfig::default().with_threads(threads);
            let err = Engine::new(cfg, NetModel::compact(&cluster, 8), ring())
                .with_cancel(token)
                .run()
                .unwrap_err();
            assert_eq!(err, SimError::Cancelled, "threads={threads}");
        }
    }
}
