//! A miniature in-process MapReduce engine.
//!
//! The paper runs Phase 1 "in parallel using a MapReduce based platform"
//! (Hadoop 0.20.2) and compares against HaTen2, a MapReduce tensor
//! decomposition suite. Neither Hadoop nor the HaTen2 binary is available
//! here, so this crate provides the substrate both are simulated on:
//!
//! * [`MapReduceJob`] — user map/reduce logic over typed records;
//! * [`run_job`] — parallel mappers (on the shared [`tpcp_par`] thread
//!   budget), a *disk-spilled* hash-partitioned shuffle, parallel reducers;
//! * [`Record`] — explicit binary encoding for everything that crosses the
//!   shuffle (no serde; sizes are accounted byte-exactly);
//! * [`JobCounters`] — records/bytes counters in the spirit of Hadoop's,
//!   the quantities behind the paper's claim that "the I/O or communication
//!   overhead of iterative algorithms … can be very expensive";
//! * per-reducer **memory caps** ([`MrConfig::reducer_memory_bytes`]) — the
//!   mechanism by which the HaTen2 baseline reproduces Table I's `FAILS`
//!   row when a reduce group no longer fits;
//! * [`SimDfs`] — a simulated distributed file system for materialising
//!   intermediates between chained jobs (HaTen2 materialises `O(nnz·F)`
//!   records per mode per iteration, which is exactly what makes it slow on
//!   dense tensors).

#![forbid(unsafe_code)]

mod counters;
mod dfs;
mod engine;
mod record;

pub use counters::{CounterSnapshot, JobCounters};
pub use dfs::SimDfs;
pub use engine::{run_job, MapReduceJob, MrConfig};
pub use record::Record;

/// Errors surfaced by the MapReduce engine.
#[derive(Debug)]
pub enum MrError {
    /// Underlying file-system failure (spill or DFS).
    Io(std::io::Error),
    /// A record failed to decode from a spill or DFS file.
    Decode {
        /// What was being decoded.
        context: String,
    },
    /// A reducer's input exceeded the configured memory cap — the
    /// out-of-memory failure mode of memory-hungry MapReduce jobs.
    ReducerOutOfMemory {
        /// Which reducer bucket overflowed.
        reducer: usize,
        /// Bytes the bucket required.
        bytes: u64,
        /// The configured cap.
        cap: u64,
    },
    /// A mapper or reducer thread panicked; the panic was caught by
    /// [`tpcp_par`] and surfaced as a job failure (a real cluster reports a
    /// failed task the same way) instead of unwinding the caller.
    WorkerPanic {
        /// The stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::Io(e) => write!(f, "I/O error: {e}"),
            MrError::Decode { context } => write!(f, "decode failure in {context}"),
            MrError::ReducerOutOfMemory {
                reducer,
                bytes,
                cap,
            } => write!(
                f,
                "reducer {reducer} out of memory: needs {bytes} bytes, cap {cap}"
            ),
            MrError::WorkerPanic { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl std::error::Error for MrError {}

impl From<std::io::Error> for MrError {
    fn from(e: std::io::Error) -> Self {
        MrError::Io(e)
    }
}

impl From<tpcp_par::ParError<MrError>> for MrError {
    fn from(e: tpcp_par::ParError<MrError>) -> Self {
        match e {
            tpcp_par::ParError::Worker(inner) => inner,
            tpcp_par::ParError::Panic { message } => MrError::WorkerPanic { message },
        }
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MrError>;
