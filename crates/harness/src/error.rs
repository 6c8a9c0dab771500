//! Typed failure modes of the execution layer.
//!
//! The harness used to panic its way out of trouble (unknown benchmark
//! names, poisoned locks, worker panics). Under fault injection a
//! failed run is an *expected* outcome — a crashed rank must surface as
//! a report line, not tear down the whole grid — so every way a run can
//! go wrong is a [`HarnessError`] variant and
//! [`Executor::run_all`](crate::exec::Executor::run_all) degrades to
//! partial results plus a per-spec failure report.

use spechpc_simmpi::engine::SimError;

/// Everything that can go wrong executing one grid point.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The simulation itself failed (deadlock, injected crash,
    /// cancellation, invalid program …).
    Sim(SimError),
    /// The run spec names a benchmark the registry does not know.
    UnknownBenchmark { name: String },
    /// The worker running this point panicked; the panic was caught at
    /// the run boundary so the rest of the grid kept going.
    Panic { label: String, message: String },
    /// The run exceeded the per-run wall-clock budget and was
    /// cooperatively cancelled.
    Timeout { label: String, limit_s: f64 },
}

impl HarnessError {
    /// The rank an injected crash blamed, if this error is one.
    pub fn failed_rank(&self) -> Option<usize> {
        match self {
            HarnessError::Sim(SimError::RankFailed { rank, .. }) => Some(*rank),
            _ => None,
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Sim(e) => write!(f, "{e}"),
            HarnessError::UnknownBenchmark { name } => {
                write!(f, "unknown benchmark '{name}' in run spec")
            }
            HarnessError::Panic { label, message } => {
                write!(f, "worker panicked running {label}: {message}")
            }
            HarnessError::Timeout { label, limit_s } => {
                write!(f, "{label} exceeded the {limit_s:.3}s per-run timeout")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_blame_are_informative() {
        let e = HarnessError::Sim(SimError::RankFailed {
            rank: 3,
            op_index: 7,
            at_s: 0.5,
        });
        assert_eq!(e.failed_rank(), Some(3));
        assert!(e.to_string().contains("rank 3"));
        let u = HarnessError::UnknownBenchmark { name: "hpl".into() };
        assert!(u.to_string().contains("unknown benchmark 'hpl'"));
        assert_eq!(u.failed_rank(), None);
    }
}
