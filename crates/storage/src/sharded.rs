//! Sharded unit stores: route `UnitId`s across several backing stores.
//!
//! The paper's Phase 1 writes every data-access unit to one worker's disk;
//! at genuine billion scale the unit set itself outgrows a single store.
//! [`ShardedStore`] splits the unit space across `S` backing stores with a
//! stable hash, so Phase 1 can emit units shard-by-shard and Phase 2 reads
//! route transparently. Sharding moves bytes, never values: a sharded run
//! is bit-identical to a single-store run (CI-enforced via the
//! `TPCP_SHARDS` test leg and the sharded-equivalence proptests).

use crate::prefetch::{PrefetchRead, PrefetchSource};
use crate::store::{DiskStore, MemStore, PageRead, UnitData, UnitStore};
use crate::Result;
use std::path::Path;
use tpcp_schedule::UnitId;

/// Name of the environment variable overriding the unit-store shard count
/// (a positive integer; `0`, absent or unparsable means 1 shard).
pub const SHARDS_ENV_VAR: &str = "TPCP_SHARDS";

/// The automatic shard count: `TPCP_SHARDS` when set to a positive
/// integer, otherwise 1 (unsharded).
pub fn shards_auto() -> usize {
    match std::env::var(SHARDS_ENV_VAR) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// Stable shard assignment of a unit: FNV-1a over `(mode, part)` modulo
/// the shard count. Deterministic across runs and platforms, so a store
/// written with `S` shards always reads back with `S` shards.
pub fn shard_of(unit: UnitId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in unit
        .mode
        .to_le_bytes()
        .into_iter()
        .chain(unit.part.to_le_bytes())
    {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// A [`UnitStore`] that routes each unit to one of `S` backing shards.
///
/// Byte counters aggregate across *all* shards (not shard 0), so
/// reporting through [`UnitStore::bytes_written`] / `bytes_read` stays
/// correct under sharding; [`ShardedStore::per_shard_bytes`] exposes the
/// per-shard breakdown for balance diagnostics.
pub struct ShardedStore<S> {
    shards: Vec<S>,
}

impl<S: UnitStore> ShardedStore<S> {
    /// Wraps pre-built backing stores (one per shard).
    ///
    /// # Panics
    /// Panics when `shards` is empty.
    pub fn new(shards: Vec<S>) -> Self {
        assert!(!shards.is_empty(), "sharded store needs at least one shard");
        ShardedStore { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `unit` routes to.
    pub fn shard_of(&self, unit: UnitId) -> usize {
        shard_of(unit, self.shards.len())
    }

    /// Borrows shard `i`.
    pub fn shard(&self, i: usize) -> &S {
        &self.shards[i]
    }

    /// Per-shard `(bytes_written, bytes_read)` breakdown.
    pub fn per_shard_bytes(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| (s.bytes_written(), s.bytes_read()))
            .collect()
    }
}

impl ShardedStore<DiskStore> {
    /// Opens `n` [`DiskStore`] shards under `root/shard_{i}`.
    ///
    /// # Errors
    /// I/O failure creating a shard directory.
    pub fn open_disk(root: impl AsRef<Path>, n: usize) -> Result<Self> {
        let mut shards = Vec::with_capacity(n.max(1));
        for i in 0..n.max(1) {
            shards.push(DiskStore::open(root.as_ref().join(format!("shard_{i}")))?);
        }
        Ok(ShardedStore::new(shards))
    }

    /// Switches the mmap read path on or off for every shard.
    pub fn set_mmap(&mut self, mmap: bool) {
        for s in &mut self.shards {
            s.set_mmap(mmap);
        }
    }
}

impl ShardedStore<MemStore> {
    /// `n` in-memory shards (testing / shard-routing equivalence runs).
    pub fn mem(n: usize) -> Self {
        ShardedStore::new((0..n.max(1)).map(|_| MemStore::new()).collect())
    }
}

impl<S: UnitStore> UnitStore for ShardedStore<S> {
    fn write(&mut self, data: &UnitData) -> Result<()> {
        let s = self.shard_of(data.unit);
        self.shards[s].write(data)
    }

    fn write_factor(&mut self, data: &UnitData) -> Result<u64> {
        let s = self.shard_of(data.unit);
        self.shards[s].write_factor(data)
    }

    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        let s = self.shard_of(unit);
        self.shards[s].read(unit)
    }

    fn read_slab(&mut self, unit: UnitId) -> Result<PageRead<'_>> {
        let s = self.shard_of(unit);
        self.shards[s].read_slab(unit)
    }

    fn note_borrowed_read(&mut self, unit: UnitId, payload_bytes: u64) {
        let s = self.shard_of(unit);
        self.shards[s].note_borrowed_read(unit, payload_bytes);
    }

    fn contains(&self, unit: UnitId) -> bool {
        self.shards[self.shard_of(unit)].contains(unit)
    }

    fn bytes_written(&self) -> u64 {
        self.shards.iter().map(UnitStore::bytes_written).sum()
    }

    fn bytes_read(&self) -> u64 {
        self.shards.iter().map(UnitStore::bytes_read).sum()
    }

    fn shard_hint(&self, unit: UnitId) -> usize {
        self.shard_of(unit)
    }

    fn warm(&mut self, units: &[UnitId]) {
        for &unit in units {
            let s = self.shard_of(unit);
            self.shards[s].warm(&[unit]);
        }
    }
}

/// Routes prefetch reads across the per-shard readers.
struct ShardedReader {
    readers: Vec<Box<dyn PrefetchRead>>,
}

impl PrefetchRead for ShardedReader {
    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        let s = shard_of(unit, self.readers.len());
        self.readers[s].read(unit)
    }
}

impl<S: UnitStore + PrefetchSource> PrefetchSource for ShardedStore<S> {
    /// A sharded reader exists only when *every* shard provides one
    /// (an in-memory shard has no latency to hide, so a mixed store opts
    /// out as a whole rather than prefetching half its units).
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>> {
        let readers: Vec<Box<dyn PrefetchRead>> = self
            .shards
            .iter()
            .map(PrefetchSource::prefetch_reader)
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(ShardedReader { readers }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageError;
    use tpcp_linalg::Mat;

    fn sample(unit: UnitId, seed: f64) -> UnitData {
        UnitData {
            unit,
            factor: Mat::from_rows(&[&[seed, 2.0], &[3.0, seed]]),
            sub_factors: vec![(1, Mat::from_rows(&[&[seed + 1.0]]))],
        }
    }

    fn units(n: usize) -> Vec<UnitId> {
        (0..n)
            .flat_map(|m| (0..n).map(move |p| UnitId::new(m, p)))
            .collect()
    }

    #[test]
    fn routing_is_stable_and_spreads() {
        let mut seen = std::collections::HashSet::new();
        for u in units(8) {
            let s = shard_of(u, 3);
            assert_eq!(s, shard_of(u, 3), "stable");
            assert!(s < 3);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 3, "64 units must hit all 3 shards");
        // One shard degenerates to the identity routing.
        assert!(units(8).iter().all(|&u| shard_of(u, 1) == 0));
    }

    #[test]
    fn sharded_mem_roundtrip_and_aggregated_bytes() {
        let mut s = ShardedStore::mem(3);
        assert_eq!(s.num_shards(), 3);
        for (i, u) in units(4).into_iter().enumerate() {
            assert!(!s.contains(u));
            s.write(&sample(u, i as f64)).unwrap();
            assert!(s.contains(u));
        }
        for (i, u) in units(4).into_iter().enumerate() {
            assert_eq!(s.read(u).unwrap(), sample(u, i as f64));
        }
        // Counters must sum across shards, not report shard 0.
        let per_shard = s.per_shard_bytes();
        assert!(per_shard.iter().filter(|(w, _)| *w > 0).count() > 1);
        assert_eq!(
            s.bytes_written(),
            per_shard.iter().map(|(w, _)| w).sum::<u64>()
        );
        assert_eq!(
            s.bytes_read(),
            per_shard.iter().map(|(_, r)| r).sum::<u64>()
        );
        assert!(s.bytes_written() > per_shard[0].0, "aggregate > shard 0");
    }

    #[test]
    fn sharded_store_matches_single_store_contents() {
        let mut sharded = ShardedStore::mem(3);
        let mut single = MemStore::new();
        for (i, u) in units(5).into_iter().enumerate() {
            let d = sample(u, i as f64);
            sharded.write(&d).unwrap();
            single.write(&d).unwrap();
        }
        for u in units(5) {
            assert_eq!(sharded.read(u).unwrap(), single.read(u).unwrap());
        }
        assert_eq!(sharded.bytes_written(), single.bytes_written());
    }

    #[test]
    fn sharded_disk_store_persists_across_instances() {
        let root = std::env::temp_dir().join(format!("tpcp_sharded_disk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let us = units(4);
        {
            let mut s = ShardedStore::open_disk(&root, 3).unwrap();
            for (i, &u) in us.iter().enumerate() {
                s.write(&sample(u, i as f64)).unwrap();
            }
        }
        let mut s2 = ShardedStore::open_disk(&root, 3).unwrap();
        for (i, &u) in us.iter().enumerate() {
            assert_eq!(s2.read(u).unwrap(), sample(u, i as f64));
            assert_eq!(s2.shard_hint(u), s2.shard_of(u));
        }
        // More than one shard directory actually holds pages.
        let populated = (0..3)
            .filter(|i| {
                std::fs::read_dir(root.join(format!("shard_{i}")))
                    .map(|d| d.count() > 0)
                    .unwrap_or(false)
            })
            .count();
        assert!(populated > 1, "units must spread across shard directories");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn factor_writes_reach_the_owning_shard_as_factor_writes() {
        let root = std::env::temp_dir().join(format!("tpcp_sharded_fac_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut s = ShardedStore::open_disk(&root, 3).unwrap();
        for (i, u) in units(3).into_iter().enumerate() {
            s.write(&sample(u, i as f64)).unwrap();
            let mut next = sample(u, i as f64);
            next.factor.set(0, 0, -7.0);
            // Not the trait's whole-unit default: the disk shard wrote the
            // 2×2 factor alone, and only the owning shard wrote at all.
            let owner_before = s.shard(s.shard_of(u)).bytes_written();
            let total_before = s.bytes_written();
            assert_eq!(s.write_factor(&next).unwrap(), 32);
            assert_eq!(s.shard(s.shard_of(u)).bytes_written(), owner_before + 32);
            assert_eq!(s.bytes_written(), total_before + 32);
            assert_eq!(s.read(u).unwrap(), next);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_prefetch_reader_routes_reads() {
        let root = std::env::temp_dir().join(format!("tpcp_sharded_pf_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut s = ShardedStore::open_disk(&root, 2).unwrap();
        let u = UnitId::new(1, 3);
        s.write(&sample(u, 9.0)).unwrap();
        let mut r = s.prefetch_reader().expect("disk shards provide readers");
        assert_eq!(r.read(u).unwrap(), sample(u, 9.0));
        assert!(matches!(
            r.read(UnitId::new(7, 7)),
            Err(StorageError::NotFound(_))
        ));
        // Mem shards opt out, so the sharded store opts out too.
        assert!(ShardedStore::mem(2).prefetch_reader().is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_unit_error_routes_through_shard() {
        let mut s = ShardedStore::mem(4);
        assert!(matches!(
            s.read(UnitId::new(0, 0)),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn shards_auto_defaults_to_one() {
        // The test harness does not set TPCP_SHARDS for this assertion to
        // be meaningful under the default CI leg; under the TPCP_SHARDS=3
        // leg it still must parse to the override.
        let n = shards_auto();
        match std::env::var(SHARDS_ENV_VAR) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(k) if k > 0 => assert_eq!(n, k),
                _ => assert_eq!(n, 1),
            },
            Err(_) => assert_eq!(n, 1),
        }
    }
}
