//! Out-of-core storage for 2PCP's iterative-refinement phase.
//!
//! Phase 2 of the paper runs on a single worker whose buffer memory cannot
//! hold all intermediary data (§IV, Observation #4). The swappable
//! granularity is the *data-access unit* `⟨i, kᵢ⟩` (Def. 4): the global
//! sub-factor `A(i)(kᵢ)` together with the mode-`i` sub-factors of every
//! block in the slab. This crate provides:
//!
//! * [`UnitData`] — the in-memory representation of one unit;
//! * [`codec`] — an explicit, checksummed binary page format (no serde);
//!   one version (v2) that lays payloads out as contiguous 8-byte-aligned
//!   `f64` slabs, encoded and decoded by straight slab copies in safe code;
//! * [`UnitStore`] implementations: [`DiskStore`] (per unit one page
//!   file, committed by write-then-rename, plus a two-slot factor file
//!   that a Phase-2 write-back updates in place —
//!   [`UnitStore::write_factor`], `docs/storage.md`; fault injection for
//!   tests) and [`MemStore`];
//! * [`BufferPool`] — a byte-budgeted cache over a store with pluggable
//!   [`ReplacementPolicy`]: LRU, MRU and the paper's forward-looking (FOR)
//!   schedule-aware policy (§VII), plus pinning so a step's working set
//!   cannot evict itself;
//! * [`IoStats`] — swap accounting (the paper's evaluation metric:
//!   "the amount of I/O (i.e., data swaps) between the disk and memory
//!   buffer") plus critical-path stall and prefetch accounting;
//! * the asynchronous prefetch pipeline ([`PrefetchSource`],
//!   [`PrefetchConfig`], [`BufferPool::with_prefetch`]): the deterministic
//!   schedule that makes the `Forward` policy Belady-exact also tells a
//!   background worker exactly which units the next steps will need, so
//!   disk reads overlap compute instead of blocking it, and a read is
//!   only issued while its page is sure to fit the staging area. Prefetch
//!   moves bytes, never values — results and swap counts are
//!   bit-identical with the pipeline on or off.
//!
//! A unit leaves a [`DiskStore`] one way: its page file is read into a
//! reused buffer, decoded, and overlaid with its factor file. The
//! synchronous read and the prefetch worker share that one function.

#![forbid(unsafe_code)]

pub mod codec;

mod buffer;
mod factor;
mod policy;
mod prefetch;
mod stats;
mod store;

pub use buffer::{capacity_for_fraction, BufferPool};
pub use policy::{ForwardPolicy, LruPolicy, MruPolicy, PolicyKind, ReplacementPolicy};
pub use prefetch::{PrefetchConfig, PrefetchRead, PrefetchSource};
pub use stats::IoStats;
pub use store::{DiskStore, MemStore, PageRead, UnitData, UnitStore};

use tpcp_schedule::UnitId;

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// A page failed structural validation or checksum verification.
    Corrupt {
        /// Explanation of the corruption.
        reason: String,
    },
    /// The requested unit does not exist in the store.
    NotFound(UnitId),
    /// The buffer cannot hold the pinned working set of a single step.
    BufferTooSmall {
        /// Bytes that must be simultaneously resident.
        needed: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// Deliberately injected fault (test harness).
    Injected,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt { reason } => write!(f, "corrupt page: {reason}"),
            StorageError::NotFound(u) => write!(f, "unit {u} not found"),
            StorageError::BufferTooSmall { needed, capacity } => write!(
                f,
                "buffer too small: step needs {needed} bytes, capacity {capacity}"
            ),
            StorageError::Injected => write!(f, "injected fault"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
