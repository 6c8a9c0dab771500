//! # spechpc-analysis — performance metrics and classification
//!
//! The paper's analytical toolbox: "demonstrating the value of
//! fundamental resource metrics like data volume and bandwidths"
//! (Contributions, §1). This crate implements those metrics on top of
//! simulation output:
//!
//! * [`speedup`] — speedup and parallel-efficiency curves, saturation
//!   and superlinearity detection (§4.1.1),
//! * [`counters`] — LIKWID-style counter groups (MEM_DP, L3, L2):
//!   data volumes, bandwidths, DP vs. DP-AVX flops (§4.1.3–4.1.4),
//! * [`perfctr`] — `likwid-perfctr`-style group-report rendering,
//! * [`scaling`] — the multi-node scaling-case classifier of §5.1
//!   (cases A–D from cache effects × communication overhead).

pub mod counters;
pub mod perfctr;
pub mod scaling;
pub mod speedup;

pub use counters::{CounterGroup, CounterSample};
pub use scaling::{classify_scaling, ScalingCase, ScalingEvidence};
pub use speedup::{parallel_efficiency, SpeedupCurve};
