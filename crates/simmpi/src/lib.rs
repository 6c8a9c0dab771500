//! # spechpc-simmpi — discrete-event MPI simulator and tracing
//!
//! The paper studies the *MPI-only* variants of the SPEChpc 2021 suite and
//! derives several key findings from MPI behaviour: the `minisweep`
//! communication-serialization bug (synchronous rendezvous sends rippling
//! through an open-boundary chain, §4.1.5), dominating `MPI_Allreduce`
//! overhead in `soma` (§5.1.2), and the avoidable `MPI_Barrier` in `lbm`.
//!
//! This crate provides the message-passing substrate those findings need:
//!
//! * [`program`] — an abstract per-rank *program* of operations
//!   (compute, blocking/non-blocking point-to-point, collectives),
//! * [`netmodel`] — LogGP-style communication costs on top of
//!   [`spechpc_machine`]'s interconnect and placement models, with
//!   eager vs. synchronous-rendezvous protocol semantics,
//! * [`engine`] — a deterministic discrete-event engine executing one
//!   program per rank with MPI matching semantics (FIFO per channel,
//!   rendezvous hand-shakes, globally ordered collectives) and deadlock
//!   detection,
//! * [`pdes`] — the conservative parallel scheduler behind
//!   [`SimConfig::threads`](engine::SimConfig): contiguous node-aligned
//!   rank partitions on host threads, null-message-style synchronization
//!   with LogGP lookahead, and a deterministic merge keeping results
//!   bit-identical to the one-partition (`threads = 1`) run,
//! * [`faults`] — seeded, deterministic fault injection (OS noise,
//!   stragglers, flaky links, power-cap throttling, rank crashes) woven
//!   through the engine with a zero-cost off path,
//! * [`trace`] — per-rank timelines (the ITAC analog) with breakdowns and
//!   an ASCII timeline renderer used for the paper's Fig. 2 insets,
//! * [`profile`] — the observability profile of a run, available even
//!   with `trace: false`: a per-rank phase split the engine books as it
//!   executes, plus protocol/size histograms and a sparse rank×rank
//!   communication matrix counted from the programs by the prepass,
//! * [`comm`] / [`threadcomm`] — a real, in-process message-passing layer
//!   with the same interface, used to execute the mini-kernels natively on
//!   host threads (data actually moves; collectives actually reduce).
//!
//! ## Example: the rendezvous ripple
//!
//! ```
//! use spechpc_simmpi::program::{Op, Program};
//! use spechpc_simmpi::engine::{Engine, SimConfig};
//! use spechpc_simmpi::netmodel::NetModel;
//! use spechpc_machine::presets;
//!
//! // A 4-rank chain: everyone sends 1 MiB up first, then receives —
//! // the minisweep pattern. Rendezvous semantics serialize it.
//! let n = 4;
//! let progs: Vec<Program> = (0..n).map(|r| {
//!     let mut p = Program::new();
//!     if r + 1 < n { p.push(Op::send(r + 1, 0, 1 << 20)); }
//!     if r > 0 { p.push(Op::recv(r - 1, 0)); }
//!     p
//! }).collect();
//! let cluster = presets::cluster_a();
//! let net = NetModel::compact(&cluster, n);
//! let result = Engine::new(SimConfig::default(), net, progs).run().unwrap();
//! // Rank n-1 finishes last; the makespan grows with the chain length.
//! assert!(result.makespan > 0.0);
//! ```

pub mod comm;
pub mod engine;
pub mod export;
pub mod faults;
pub mod netmodel;
pub mod pdes;
pub mod profile;
pub mod program;
pub mod threadcomm;
pub mod trace;

pub use comm::Comm;
pub use engine::{Engine, Prepass, SimConfig, SimError, SimResult};
pub use netmodel::NetModel;
pub use profile::{Phase, Profile, RankPhases, Regime, SizeBucket};
pub use program::{Op, Program, ReqId, Tag};
pub use trace::{EventKind, Timeline, TraceEvent};
