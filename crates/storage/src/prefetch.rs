//! Schedule-driven asynchronous prefetching (the phase-2 I/O pipeline).
//!
//! Phase 2's block access sequence is fully deterministic (§VII: the
//! cyclic schedule is what makes the `Forward` policy Belady-exact). The
//! same determinism makes *perfect prefetch* free: the pool knows exactly
//! which units the next steps will pin, so a background worker can read
//! them from disk while the consumer computes — turning fetch-then-compute
//! into a pipeline and moving the swap cost off the critical path.
//!
//! The moving parts:
//!
//! * [`PrefetchSource`] — a store that can hand out an independent,
//!   [`Send`] read handle ([`PrefetchRead`]) usable from a background
//!   thread while the owning store keeps serving the consumer;
//! * [`Prefetcher`] — the pipeline itself: a request channel into a
//!   [`tpcp_par::Background`] worker that reads and decodes units, and a
//!   bounded staging channel back (the bound is the pipeline depth, so a
//!   stalled consumer exerts backpressure instead of accumulating pages);
//! * [`PrefetchConfig`] — depth/enable knobs, with a `TPCP_PREFETCH`
//!   environment override for ablations and CI.
//!
//! **Prefetch moves bytes, never values.** Admission control lives in the
//! buffer pool: staged pages are tagged with the unit's *write epoch* at
//! issue time and are discarded unless the epoch is still current when the
//! page is consumed, so a page staged before a write-back can never
//! resurrect stale data. Swap counts, eviction decisions and all numerical
//! results are bit-identical with the pipeline on or off.
//!
//! The staging hop itself is copy-free: the worker's [`PrefetchRead`]
//! decodes the page (from its own memory map when the store runs with
//! mmap on — one copy, map → `Mat`), and the decoded [`UnitData`] then
//! *moves* through the staging channel and into the pool's entry map.
//! [`DiskStore`](crate::DiskStore) readers additionally keep a bounded,
//! inode-validated FD cache so hot units skip the open/close cycle.

use crate::store::UnitData;
use crate::Result;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use tpcp_par::Background;
use tpcp_schedule::UnitId;

/// A thread-safe read handle onto a unit store, used by the background
/// prefetch worker. Implementations read committed data only; they do not
/// observe or disturb the owning store's counters or fault injection.
pub trait PrefetchRead: Send {
    /// Loads a unit. Errors are reported back to the pool, which falls
    /// back to a synchronous read on the store of record.
    fn read(&mut self, unit: UnitId) -> Result<UnitData>;
}

/// A store that can produce independent [`PrefetchRead`] handles.
///
/// Returning `None` opts the store out of prefetching (the buffer pool
/// silently degrades to synchronous reads): [`crate::MemStore`] does this
/// — an in-memory map has no I/O latency to hide.
pub trait PrefetchSource {
    /// A fresh, independent read handle, or `None` when this store cannot
    /// (or need not) be read from a second thread.
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>>;
}

/// Name of the environment variable overriding the prefetch pipeline:
/// `0` / `off` / `false` disables it, a positive integer enables it with
/// that pipeline depth. Anything else is ignored.
pub const PREFETCH_ENV_VAR: &str = "TPCP_PREFETCH";

/// Configuration of the asynchronous prefetch pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Whether the pipeline runs at all.
    pub enabled: bool,
    /// Maximum units staged or in flight at once — the pipeline depth.
    /// Staged pages live *outside* the pool's byte budget until admitted,
    /// in a staging area the pool caps at one buffer's worth of bytes, so
    /// the worst-case overshoot is the smaller of `depth` units and one
    /// buffer.
    pub depth: usize,
}

impl PrefetchConfig {
    /// The default pipeline: enabled, depth 4, unless `TPCP_PREFETCH`
    /// says otherwise.
    pub fn auto() -> Self {
        match std::env::var(PREFETCH_ENV_VAR) {
            Ok(v) => {
                let v = v.trim();
                if matches!(v.to_ascii_lowercase().as_str(), "0" | "off" | "false") {
                    PrefetchConfig::disabled()
                } else if let Ok(depth) = v.parse::<usize>() {
                    PrefetchConfig::with_depth(depth)
                } else {
                    PrefetchConfig::default()
                }
            }
            Err(_) => PrefetchConfig::default(),
        }
    }

    /// An enabled pipeline of the given depth (`0` disables).
    pub fn with_depth(depth: usize) -> Self {
        PrefetchConfig {
            enabled: depth > 0,
            depth,
        }
    }

    /// Prefetching off: every miss is a synchronous read.
    pub fn disabled() -> Self {
        PrefetchConfig {
            enabled: false,
            depth: 0,
        }
    }

    /// `true` when the pipeline should actually run.
    pub fn is_active(&self) -> bool {
        self.enabled && self.depth > 0
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            depth: 4,
        }
    }
}

struct Request {
    unit: UnitId,
    epoch: u64,
}

/// A page that came back from the worker, tagged with the write epoch its
/// request carried.
pub(crate) struct Staged {
    pub unit: UnitId,
    pub epoch: u64,
    pub result: Result<UnitData>,
}

/// The request/stage channel pair around one background read worker.
///
/// Field order is load-bearing: both channel ends drop before `worker`,
/// disconnecting the loop so the implicit join in [`Background`]'s drop
/// cannot deadlock.
pub(crate) struct Prefetcher {
    req_tx: Sender<Request>,
    staged_rx: Receiver<Staged>,
    #[allow(dead_code)] // held for its drop-join
    worker: Background,
}

impl Prefetcher {
    /// Spawns the worker around `reader`; `depth` bounds the staging
    /// channel.
    pub fn spawn(mut reader: Box<dyn PrefetchRead>, depth: usize) -> std::io::Result<Prefetcher> {
        let (req_tx, req_rx) = std::sync::mpsc::channel::<Request>();
        let (staged_tx, staged_rx): (SyncSender<Staged>, _) =
            std::sync::mpsc::sync_channel(depth.max(1));
        let worker = Background::spawn("tpcp-prefetch", move || {
            while let Ok(req) = req_rx.recv() {
                let result = reader.read(req.unit);
                let staged = Staged {
                    unit: req.unit,
                    epoch: req.epoch,
                    result,
                };
                if staged_tx.send(staged).is_err() {
                    break; // pool gone: shut down
                }
            }
        })?;
        Ok(Prefetcher {
            req_tx,
            staged_rx,
            worker,
        })
    }

    /// Queues a read of `unit`, tagged with its current write `epoch`.
    /// Returns `false` when the worker is gone (pipeline dead).
    pub fn issue(&self, unit: UnitId, epoch: u64) -> bool {
        self.req_tx.send(Request { unit, epoch }).is_ok()
    }

    /// Pulls one staged page without blocking.
    pub fn try_recv(&self) -> Option<Staged> {
        self.staged_rx.try_recv().ok()
    }

    /// Blocks (bounded) for the next staged page; `None` when the worker
    /// is gone or silent past the timeout — callers then fall back to a
    /// synchronous read, so a wedged worker degrades, never deadlocks.
    pub fn recv_blocking(&self) -> Option<Staged> {
        self.staged_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, UnitStore};
    use crate::StorageError;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use tpcp_linalg::Mat;

    /// A shared-map reader for exercising the pipeline without disk.
    struct MapReader(Arc<Mutex<HashMap<UnitId, UnitData>>>);

    impl PrefetchRead for MapReader {
        fn read(&mut self, unit: UnitId) -> Result<UnitData> {
            self.0
                .lock()
                .expect("map poisoned")
                .get(&unit)
                .cloned()
                .ok_or(StorageError::NotFound(unit))
        }
    }

    fn unit_data(part: usize, v: f64) -> UnitData {
        UnitData {
            unit: UnitId::new(0, part),
            factor: Mat::filled(2, 2, v),
            sub_factors: vec![],
        }
    }

    #[test]
    fn config_env_parsing() {
        assert!(PrefetchConfig::default().is_active());
        assert!(!PrefetchConfig::disabled().is_active());
        assert!(!PrefetchConfig::with_depth(0).is_active());
        assert_eq!(PrefetchConfig::with_depth(7).depth, 7);
    }

    #[test]
    fn pipeline_round_trip_and_epoch_tagging() {
        let map = Arc::new(Mutex::new(HashMap::from([
            (UnitId::new(0, 0), unit_data(0, 1.0)),
            (UnitId::new(0, 1), unit_data(1, 2.0)),
        ])));
        let pf = Prefetcher::spawn(Box::new(MapReader(map)), 2).unwrap();
        assert!(pf.issue(UnitId::new(0, 0), 7));
        assert!(pf.issue(UnitId::new(0, 1), 9));
        let a = pf.recv_blocking().unwrap();
        let b = pf.recv_blocking().unwrap();
        assert_eq!(a.unit, UnitId::new(0, 0));
        assert_eq!(a.epoch, 7);
        assert_eq!(a.result.unwrap(), unit_data(0, 1.0));
        assert_eq!(b.epoch, 9);
        assert_eq!(b.result.unwrap(), unit_data(1, 2.0));
        assert!(pf.try_recv().is_none());
    }

    #[test]
    fn read_errors_are_staged_not_fatal() {
        let map = Arc::new(Mutex::new(HashMap::new()));
        let pf = Prefetcher::spawn(Box::new(MapReader(map)), 1).unwrap();
        assert!(pf.issue(UnitId::new(3, 3), 0));
        let staged = pf.recv_blocking().unwrap();
        assert!(matches!(staged.result, Err(StorageError::NotFound(_))));
    }

    #[test]
    fn mem_store_opts_out() {
        assert!(MemStore::new().prefetch_reader().is_none());
        let _ = MemStore::new().bytes_read(); // silence unused-import lint paths
    }
}
