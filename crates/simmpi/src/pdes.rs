//! Conservative parallel discrete-event scheduling (PDES) — the
//! partition boundary behind
//! [`SimConfig::threads`](crate::engine::SimConfig) `> 1`.
//!
//! ## Design
//!
//! The rank range is split into `threads` contiguous partitions, with
//! cut points snapped to node boundaries where one lies near the even
//! split (see `partition_ranks`). Each partition runs the engine's one
//! step loop (see [`crate::engine`]) over its own ranks on a host
//! thread, with its own channel table, trace timeline and per-rank
//! rows. This module supplies only the `Partitioned` boundary and the
//! protocol behind it. Partitions exchange three kinds of messages over
//! per-partition inboxes:
//!
//! * `Send` — a point-to-point posting whose receiver lives in another
//!   partition; the channel (and thus the FIFO matching state) is owned
//!   by the *receiver's* partition,
//! * `RdvDone` — the sender-side completion of a rendezvous hand-shake
//!   resolved by a remote receiver,
//! * `CollFinish` — the finish time of a collective, broadcast by the
//!   partition that observed the last entrant. The collective table
//!   itself is shared behind a lock.
//!
//! ## Null messages, lookahead, and why the result is bit-identical
//!
//! The engine's completion times are *visiting-order independent*:
//! every timestamp is computed from posted timestamps alone (FIFO
//! matching involves exactly two ranks whose postings are in program
//! order; collective finishes are max-reductions — see the scheduling
//! notes in [`crate::engine`]). Parallel execution is therefore a
//! monotone dataflow fixed point: a partition can never observe a
//! message "too early", only make progress the moment its inputs exist,
//! and the fixed point it converges to is the one-partition result bit
//! for bit. Classic conservative PDES needs LBTS/null-message rounds to
//! decide when it is *safe* to advance local virtual time; here safety
//! is unconditional, so the null-message machinery degenerates into two
//! honest throughput knobs:
//!
//! * **Lookahead-horizon flushing** — outgoing cross-partition traffic
//!   is batched and released whenever the executing rank's clock passes
//!   the last flush by [`NetModel::lookahead`](crate::netmodel::NetModel::lookahead)
//!   (the LogGP `L` of the interconnect — the minimum time any
//!   cross-node message needs anyway), bounding both the batching delay
//!   in virtual time and the lock traffic per real second. A partition
//!   always flushes before idling and immediately after finishing a
//!   collective (a global synchronization point every other partition
//!   is waiting on).
//! * **Quiescence accounting** — global sent/delivered counters double
//!   as the LBTS termination test: when every partition is idle and
//!   every sent message was delivered, no progress is possible anywhere
//!   and the run has reached its fixed point (completion, or the same
//!   crash, mismatch or deadlock state one partition would reach).
//!
//! ## Deterministic merge
//!
//! Each per-rank output (finish time, program counter, breakdown row,
//! profile phase row, trace events) is written only by the partition
//! owning that rank, in the rank's own program order — so scattering
//! the partition outputs back together reproduces the one-partition
//! per-rank streams exactly. Nothing cross-rank is summed: collective
//! entry times max-reduce in the shared table, the run-wide request ids
//! (which seed the flaky-link draws) are identical because every
//! partition numbers requests from the same prepass-derived layout, and
//! the message statistics come from the prepass once the merged run
//! concludes. Errors then resolve in the engine's one canonical order,
//! which does not depend on the partition count.
//!
//! A replay's warm-up cut merges the same way: each partition writes
//! the cut rows of its own ranks as they leave the warm-up barrier, and
//! the rows scatter as the final state's do.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::engine::{
    Boundary, CollTable, Engine, FaultHook, IReq, NetParams, Replay, Scheduler, SendPost, SimError,
    SimResult, WarmupCut,
};
use crate::program::Program;
use crate::trace::EventKind;

/// Flush the outgoing buffers once this many messages are pending even
/// if the executing rank's clock has not crossed the lookahead horizon
/// yet — bounds the burst a receiver sees in one batch.
const FLUSH_CAP: usize = 512;

/// Lock a mutex, recovering from poisoning (a panicked peer worker is
/// surfaced through its join handle; the state itself stays usable).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Split `0..nranks` into `parts` contiguous, non-empty ranges.
///
/// Cut points start from the even split and snap to the nearest node
/// boundary (a rank whose node differs from its predecessor's) when one
/// lies within half a partition width — node-aligned cuts keep
/// intra-node traffic (cheap, high-rate) inside a partition and route
/// only inter-node traffic (whose latency is the lookahead) across
/// partitions. Jobs on a single node simply get the even split.
pub(crate) fn partition_ranks(nranks: usize, parts: usize, node_of: &[u32]) -> Vec<Range<usize>> {
    let p = parts.clamp(1, nranks.max(1));
    let starts: Vec<usize> = (1..nranks)
        .filter(|&b| node_of[b] != node_of[b - 1])
        .collect();
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0usize);
    for i in 1..p {
        let ideal = i * nranks / p;
        let snapped = nearest_boundary(&starts, ideal);
        let half = (nranks / p / 2).max(1);
        let cut = match snapped {
            Some(s) if s.abs_diff(ideal) <= half => s,
            _ => ideal,
        };
        let prev = *cuts.last().expect("cuts is non-empty");
        // Keep every partition non-empty and leave room for the rest.
        cuts.push(cut.clamp(prev + 1, nranks - (p - i)));
    }
    cuts.push(nranks);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Nearest element of the sorted `starts` to `ideal` (ties toward the
/// smaller), or `None` if there are no boundaries.
fn nearest_boundary(starts: &[usize], ideal: usize) -> Option<usize> {
    let i = starts.partition_point(|&s| s < ideal);
    let right = starts.get(i).copied();
    let left = i.checked_sub(1).map(|j| starts[j]);
    match (left, right) {
        (Some(l), Some(r)) => Some(if ideal - l <= r - ideal { l } else { r }),
        (Some(l), None) => Some(l),
        (None, r) => r,
    }
}

// ---------------------------------------------------------------------------
// Inter-partition protocol
// ---------------------------------------------------------------------------

/// One cross-partition message.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// A point-to-point posting whose receiver is remote.
    Send {
        from: usize,
        to: usize,
        post: SendPost,
    },
    /// Sender-side completion of a rendezvous resolved remotely.
    RdvDone {
        rank: usize,
        ireq: IReq,
        done_at: f64,
    },
    /// A collective completed; every partition unparks its entrants.
    CollFinish { seq: usize, finish: f64 },
}

/// A partition's message inbox.
#[derive(Default)]
struct Inbox {
    queue: Mutex<VecDeque<Msg>>,
    cv: Condvar,
}

/// Outgoing message buffers, one per destination partition, released in
/// lookahead-sized windows (see the module docs).
struct Outgoing {
    bufs: Vec<Vec<Msg>>,
    pending: usize,
}

impl Outgoing {
    fn new(nparts: usize) -> Self {
        Outgoing {
            bufs: vec![Vec::new(); nparts],
            pending: 0,
        }
    }

    #[inline]
    fn push(&mut self, dest: usize, m: Msg) {
        self.bufs[dest].push(m);
        self.pending += 1;
    }
}

/// State shared by all partition workers for one run.
struct Shared<'a> {
    np: NetParams,
    programs: &'a [Program],
    replay: &'a Replay<'a>,
    parts: Vec<Range<usize>>,
    /// Partition index per rank.
    part_of: Vec<u32>,
    lookahead: f64,
    inboxes: Vec<Inbox>,
    /// Messages pushed to any inbox / drained from any inbox. Equality
    /// while everyone idles is the quiescence (termination) test.
    sent: AtomicU64,
    delivered: AtomicU64,
    /// Partitions parked in `await_work`.
    idle: Mutex<usize>,
    stop: AtomicBool,
    cancelled: AtomicBool,
    colls: Mutex<CollTable<'a>>,
}

/// Set the stop flag and wake every parked worker. Locking each inbox
/// before notifying pairs with the waiters' check-under-lock, so no
/// wakeup is lost.
fn stop_all(sh: &Shared<'_>) {
    sh.stop.store(true, Ordering::SeqCst);
    for ib in &sh.inboxes {
        let _guard = lock(&ib.queue);
        ib.cv.notify_all();
    }
}

/// Release every pending outgoing message to its destination inbox.
/// `sent` is incremented under the destination lock, before the push
/// becomes visible, so `sent >= delivered` always holds and equality
/// implies empty inboxes.
fn flush(sh: &Shared<'_>, out: &mut Outgoing) {
    if out.pending == 0 {
        return;
    }
    for (dest, buf) in out.bufs.iter_mut().enumerate() {
        if buf.is_empty() {
            continue;
        }
        let inbox = &sh.inboxes[dest];
        {
            let mut q = lock(&inbox.queue);
            sh.sent.fetch_add(buf.len() as u64, Ordering::SeqCst);
            q.extend(buf.drain(..));
        }
        inbox.cv.notify_all();
    }
    out.pending = 0;
}

/// Park on partition `me`'s inbox until it holds work (`true`) or the
/// run stops (`false`). The last partition to idle while every sent
/// message has been delivered declares quiescence and stops everyone.
///
/// The idle count changes only under its lock, and the quiescence test
/// reads the counters under it too. A woken partition leaves the count
/// before it takes its messages, so the test either still counts it
/// idle and sees its messages undelivered, or no longer counts it. It
/// must never count a partition idle and also see that partition's
/// messages delivered: that partition is busy draining them, and
/// stopping it would cut the run short as a spurious deadlock.
fn await_work(sh: &Shared<'_>, me: usize) -> bool {
    let inbox = &sh.inboxes[me];
    let mut q = lock(&inbox.queue);
    if !q.is_empty() {
        return true;
    }
    {
        let mut idle = lock(&sh.idle);
        *idle += 1;
        if *idle == sh.parts.len()
            && sh.sent.load(Ordering::SeqCst) == sh.delivered.load(Ordering::SeqCst)
        {
            *idle -= 1;
            drop(idle);
            drop(q);
            stop_all(sh);
            return false;
        }
    }
    loop {
        if sh.stop.load(Ordering::SeqCst) {
            *lock(&sh.idle) -= 1;
            return false;
        }
        if !q.is_empty() {
            *lock(&sh.idle) -= 1;
            return true;
        }
        q = inbox.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
}

// ---------------------------------------------------------------------------
// The partition boundary
// ---------------------------------------------------------------------------

/// The boundary of partition `me` among several: cross-partition posts
/// and completions are buffered per destination and released at the
/// lookahead horizon; collectives go through the shared table.
struct Partitioned<'s, 'a> {
    sh: &'s Shared<'a>,
    me: usize,
    out: Outgoing,
    next_flush: f64,
}

impl Boundary for Partitioned<'_, '_> {
    #[inline]
    fn owns(&self, rank: usize) -> bool {
        self.sh.parts[self.me].contains(&rank)
    }

    fn forward_send(&mut self, from: usize, to: usize, post: SendPost) {
        let dest = self.sh.part_of[to] as usize;
        self.out.push(dest, Msg::Send { from, to, post });
    }

    fn forward_rdv_done(&mut self, rank: usize, ireq: IReq, done_at: f64) {
        let dest = self.sh.part_of[rank] as usize;
        self.out.push(
            dest,
            Msg::RdvDone {
                rank,
                ireq,
                done_at,
            },
        );
    }

    fn enter_collective(
        &mut self,
        seq: usize,
        rank: usize,
        kind: EventKind,
        bytes: usize,
        time: f64,
    ) -> Option<f64> {
        let finish = lock(&self.sh.colls).enter(seq, rank, kind, bytes, time)?;
        for p in (0..self.sh.parts.len()).filter(|&p| p != self.me) {
            self.out.push(p, Msg::CollFinish { seq, finish });
        }
        // Every other partition is parked on this synchronization
        // point — release the broadcast immediately.
        flush(self.sh, &mut self.out);
        self.next_flush = time + self.sh.lookahead;
        Some(finish)
    }

    fn end_turn(&mut self, clock: f64) {
        // The lookahead horizon: withhold cross-partition traffic for
        // at most one inter-node latency of this partition's virtual
        // time (or FLUSH_CAP messages, whichever is first).
        let out = &self.out;
        if out.pending >= FLUSH_CAP || (out.pending > 0 && clock >= self.next_flush) {
            flush(self.sh, &mut self.out);
            self.next_flush = clock + self.sh.lookahead;
        }
    }
}

/// One partition worker: alternate between applying inbox messages and
/// draining the ready queue until the run stops, then hand back the
/// partition's state for the merge.
fn worker<'s, 'a, F: FaultHook, const TRACE: bool>(
    sh: &'s Shared<'a>,
    faults: &'s F,
    me: usize,
) -> Scheduler<'s, F, Partitioned<'s, 'a>, TRACE> {
    let boundary = Partitioned {
        sh,
        me,
        out: Outgoing::new(sh.parts.len()),
        next_flush: sh.lookahead,
    };
    let owned = sh.parts[me].clone();
    let mut part = Scheduler::new(sh.programs, sh.replay, &sh.np, owned, faults, boundary);
    loop {
        // Drain the inbox in one batch; `delivered` is credited only
        // after processing so in-flight messages keep the quiescence
        // test failing.
        let msgs = std::mem::take(&mut *lock(&sh.inboxes[me].queue));
        for &m in &msgs {
            match m {
                Msg::Send { from, to, post } => part.deliver_send(from, to, post),
                Msg::RdvDone {
                    rank,
                    ireq,
                    done_at,
                } => part.complete_remote(rank, ireq, done_at),
                Msg::CollFinish { seq, finish } => {
                    part.collective_finished(seq, finish, usize::MAX)
                }
            }
        }
        if !msgs.is_empty() {
            sh.delivered.fetch_add(msgs.len() as u64, Ordering::SeqCst);
        }
        if part.drain().is_err() {
            // Cancellation outranks every other outcome.
            sh.cancelled.store(true, Ordering::SeqCst);
            stop_all(sh);
            break;
        }
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
        flush(sh, &mut part.boundary.out);
        if !await_work(sh, me) {
            break;
        }
    }
    part
}

// ---------------------------------------------------------------------------
// Entry point and merge
// ---------------------------------------------------------------------------

/// Run `engine` as `threads` partitions (already clamped to the rank
/// count), every rank walking its program as `replay` says.
pub(crate) fn run<F: FaultHook, const TRACE: bool>(
    engine: &Engine,
    replay: &Replay,
    threads: usize,
    faults: &F,
) -> Result<(SimResult, Option<WarmupCut>), SimError> {
    let nranks = engine.programs.len();
    let np = NetParams::of(&engine.net, nranks);
    let parts = partition_ranks(nranks, threads, &np.node_of);
    let mut part_of = vec![0u32; nranks];
    for (i, rg) in parts.iter().enumerate() {
        part_of[rg.clone()].fill(i as u32);
    }
    let sh = Shared {
        np,
        programs: &engine.programs,
        replay,
        inboxes: (0..parts.len()).map(|_| Inbox::default()).collect(),
        parts,
        part_of,
        lookahead: engine.net.lookahead(),
        sent: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        idle: Mutex::new(0),
        stop: AtomicBool::new(false),
        cancelled: AtomicBool::new(false),
        colls: Mutex::new(CollTable::new(&engine.net)),
    };

    let mut outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sh.parts.len())
            .map(|me| {
                let sh = &sh;
                scope.spawn(move || worker::<F, TRACE>(sh, faults, me))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pdes worker panicked"))
            .collect::<Vec<_>>()
    })
    .into_iter();

    if sh.cancelled.load(Ordering::SeqCst) {
        return Err(SimError::Cancelled);
    }
    let mut merged = outs.next().expect("at least one partition");
    for part in outs {
        merged.absorb(part);
    }
    let mismatch = lock(&sh.colls).mismatch();
    merged.conclude(mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(parts: &[Range<usize>]) -> Vec<usize> {
        parts.iter().map(|r| r.len()).collect()
    }

    #[test]
    fn partitions_cover_contiguously() {
        let node_of: Vec<u32> = (0..100).map(|r| (r / 16) as u32).collect();
        for p in 1..=10 {
            let parts = partition_ranks(100, p, &node_of);
            assert_eq!(parts.len(), p);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, 100);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(parts.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn cuts_snap_to_node_boundaries() {
        // 64 ranks, 16 per node: every even split at 4 parts lands
        // exactly on a node boundary, snapping must keep it there.
        let node_of: Vec<u32> = (0..64).map(|r| (r / 16) as u32).collect();
        let parts = partition_ranks(64, 4, &node_of);
        assert_eq!(sizes(&parts), vec![16, 16, 16, 16]);
        // 60 ranks, 16 per node: the even split at 3 parts is 20/20/20,
        // but node boundaries at 16/32/48 are within half a partition
        // width — cuts snap to them.
        let node_of: Vec<u32> = (0..60).map(|r| (r / 16) as u32).collect();
        let parts = partition_ranks(60, 3, &node_of);
        assert_eq!(sizes(&parts), vec![16, 16, 28]);
    }

    #[test]
    fn single_node_gets_even_split() {
        let node_of = vec![0u32; 31];
        let parts = partition_ranks(31, 4, &node_of);
        assert_eq!(sizes(&parts), vec![7, 8, 8, 8]);
    }

    #[test]
    fn more_parts_than_ranks_clamps() {
        let node_of = vec![0u32; 3];
        let parts = partition_ranks(3, 8, &node_of);
        assert_eq!(sizes(&parts), vec![1, 1, 1]);
    }

    #[test]
    fn nearest_boundary_picks_closest() {
        assert_eq!(nearest_boundary(&[], 5), None);
        assert_eq!(nearest_boundary(&[16, 32], 20), Some(16));
        assert_eq!(nearest_boundary(&[16, 32], 30), Some(32));
        assert_eq!(nearest_boundary(&[16, 32], 24), Some(16)); // tie → smaller
        assert_eq!(nearest_boundary(&[16], 3), Some(16));
        assert_eq!(nearest_boundary(&[16], 40), Some(16));
    }
}
