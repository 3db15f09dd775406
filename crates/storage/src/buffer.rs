//! The byte-budgeted buffer pool over a unit store.

use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::prefetch::{PrefetchConfig, PrefetchSource, Prefetcher, Staged};
use crate::stats::IoStats;
use crate::store::{UnitData, UnitStore};
use crate::{Result, StorageError};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use tpcp_linalg::Mat;
use tpcp_schedule::{AccessSequence, NextUseOracle, UnitId};

/// Buffer capacity for a fraction of the total space requirement — the
/// paper expresses buffer sizes as 1/3, 1/2 or 2/3 of
/// `Σᵢ Σ_kᵢ bytes(⟨i,kᵢ⟩)` (Table III).
pub fn capacity_for_fraction(total_bytes: usize, fraction: f64) -> usize {
    assert!(fraction > 0.0, "buffer fraction must be positive");
    ((total_bytes as f64) * fraction).floor() as usize
}

/// What a resident unit owes the store. Ordered: a unit handed out whole
/// stays `Whole` even if its factor is borrowed afterwards.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dirty {
    Clean,
    /// Only `A(i)(kᵢ)` was handed out mutably ([`BufferPool::get_factor_mut`]):
    /// the write-back is [`UnitStore::write_factor`].
    Factor,
    /// The whole unit was ([`BufferPool::get_mut`]): [`UnitStore::write`].
    Whole,
}

struct Entry {
    data: UnitData,
    bytes: usize,
    dirty: Dirty,
}

impl Entry {
    /// Writes the entry back if it is dirty, as little as its dirtiness
    /// allows, and reports whether the store was written.
    fn write_back<S: UnitStore>(&mut self, store: &mut S, stats: &mut IoStats) -> Result<bool> {
        stats.bytes_written += match self.dirty {
            Dirty::Clean => return Ok(false),
            Dirty::Factor => store.write_factor(&self.data)?,
            Dirty::Whole => {
                store.write(&self.data)?;
                self.bytes as u64
            }
        };
        self.dirty = Dirty::Clean;
        Ok(true)
    }
}

/// Pool-side state of the asynchronous prefetch pipeline.
///
/// Staged pages live here — *outside* the pool's entry map — until the
/// consumer actually misses on them, so prefetch can never evict a pinned
/// or sooner-needed unit: admission happens only on the normal `acquire`
/// path, under the normal capacity/eviction rules. Every staged page is
/// tagged with the unit's write epoch at issue time; a write-back bumps
/// the epoch, and stale pages are discarded instead of admitted.
///
/// The staging area holds at most one buffer's worth of bytes, and a read
/// is only issued while its page is sure to fit there on arrival
/// ([`PrefetchState::has_room`]) — the worker never reads a page the pool
/// would have to throw away.
struct PrefetchState {
    prefetcher: Prefetcher,
    /// Max units staged + in flight (pipeline depth).
    depth: usize,
    /// Arrived, epoch-valid pages awaiting their miss.
    staged: HashMap<UnitId, (u64, UnitData)>,
    staged_bytes: usize,
    /// Issued to the worker, not yet drained.
    in_flight: HashSet<UnitId>,
    /// Next schedule position the horizon walk will examine.
    cursor: u64,
    /// Reused buffer for one position's units (the walk runs every step;
    /// no per-position allocation).
    step_units: Vec<UnitId>,
    /// Payload bytes of the largest page the pool has seen (0 before the
    /// first): what an in-flight read is assumed to bring back.
    largest_page: usize,
}

impl PrefetchState {
    fn new(prefetcher: Prefetcher, depth: usize) -> Self {
        PrefetchState {
            prefetcher,
            depth,
            staged: HashMap::new(),
            staged_bytes: 0,
            in_flight: HashSet::new(),
            cursor: 0,
            step_units: Vec::new(),
            largest_page: 0,
        }
    }

    fn occupancy(&self) -> usize {
        self.staged.len() + self.in_flight.len()
    }

    /// Whether one more read may be issued: the pipeline is not `depth`
    /// deep yet, and what is staged plus every read in flight plus this
    /// one, each taken at the largest page seen, fits the staging area
    /// (`capacity` bytes). Before any page has been seen the size is
    /// unknown and a single read is allowed to find it out.
    fn has_room(&self, capacity: usize) -> bool {
        let page = match self.largest_page {
            0 => capacity,
            bytes => bytes,
        };
        self.occupancy() < self.depth
            && (self.in_flight.len() + 1)
                .checked_mul(page)
                .and_then(|reads| reads.checked_add(self.staged_bytes))
                .is_some_and(|bytes| bytes <= capacity)
    }

    /// Whether nobody holds or is fetching `unit` yet.
    fn wants(&self, unit: UnitId, entries: &HashMap<UnitId, Entry>) -> bool {
        !entries.contains_key(&unit)
            && !self.staged.contains_key(&unit)
            && !self.in_flight.contains(&unit)
    }

    /// Queues a read of `unit` at its current write epoch; `false` when
    /// the worker is gone (the pipeline is inert from then on).
    fn issue(&mut self, unit: UnitId, write_epochs: &HashMap<UnitId, u64>) -> bool {
        let epoch = write_epochs.get(&unit).copied().unwrap_or(0);
        let sent = self.prefetcher.issue(unit, epoch);
        if sent {
            self.in_flight.insert(unit);
        }
        sent
    }

    /// Files one arrived page into the staging map, or drops it: pages
    /// whose epoch tag is stale, whose read failed, or whose unit became
    /// resident in the meantime are useless (the synchronous path will
    /// take over, exactly as if they had never been prefetched). A page
    /// that was read and then dropped counts as
    /// [`IoStats::prefetch_discarded`].
    fn file_arrival(
        &mut self,
        staged: Staged,
        write_epochs: &HashMap<UnitId, u64>,
        entries: &HashMap<UnitId, Entry>,
        capacity: usize,
        stats: &mut IoStats,
    ) {
        self.in_flight.remove(&staged.unit);
        let current_epoch = write_epochs.get(&staged.unit).copied().unwrap_or(0);
        let Ok(data) = staged.result else { return };
        let bytes = data.payload_bytes();
        self.largest_page = self.largest_page.max(bytes);
        // The staging footprint stays within one buffer's worth of bytes.
        if staged.epoch != current_epoch
            || entries.contains_key(&staged.unit)
            || self.staged_bytes.saturating_add(bytes) > capacity
        {
            stats.prefetch_discarded += 1;
            return;
        }
        if self
            .staged
            .insert(staged.unit, (staged.epoch, data))
            .is_none()
        {
            self.staged_bytes += bytes;
        }
    }

    /// Removes and returns the staged page for `unit` if its epoch is
    /// still current.
    fn take_staged(
        &mut self,
        unit: UnitId,
        write_epochs: &HashMap<UnitId, u64>,
        stats: &mut IoStats,
    ) -> Option<UnitData> {
        let (epoch, data) = self.staged.remove(&unit)?;
        self.staged_bytes -= data.payload_bytes();
        if epoch == write_epochs.get(&unit).copied().unwrap_or(0) {
            stats.prefetch_hits += 1;
            stats.prefetched_bytes += data.payload_bytes() as u64;
            Some(data)
        } else {
            stats.prefetch_discarded += 1;
            None
        }
    }
}

/// A buffer pool caching [`UnitData`] pages over a [`UnitStore`].
///
/// * Capacity is a byte budget (units may have different sizes when the
///   tensor or the grid is non-uniform).
/// * A step's working set is `acquire`d — loaded and *pinned* — before use,
///   so the units of the current step never evict one another, then
///   `release`d.
/// * Eviction consults the configured [`ReplacementPolicy`]; the
///   forward-looking policy additionally receives the schedule position set
///   via [`BufferPool::set_position`] and the [`NextUseOracle`].
/// * All traffic is tallied in [`IoStats`]; a *swap* (the paper's metric)
///   is a fetch from the store.
pub struct BufferPool<'o, S: UnitStore> {
    store: S,
    capacity: usize,
    used: usize,
    entries: HashMap<UnitId, Entry>,
    pinned: HashSet<UnitId>,
    policy: Box<dyn ReplacementPolicy>,
    oracle: Option<&'o dyn NextUseOracle>,
    sequence: Option<&'o dyn AccessSequence>,
    prefetch: Option<PrefetchState>,
    /// Per-unit count of pool→store writes (write-backs, flushes); the
    /// admission guard that keeps prefetched pages from resurrecting
    /// overwritten data.
    write_epochs: HashMap<UnitId, u64>,
    position: u64,
    tick: u64,
    stats: IoStats,
}

impl<'o, S: UnitStore> BufferPool<'o, S> {
    /// Creates a pool with the given byte capacity and policy.
    pub fn new(store: S, capacity: usize, policy: PolicyKind) -> Self {
        BufferPool {
            store,
            capacity,
            used: 0,
            entries: HashMap::new(),
            pinned: HashSet::new(),
            policy: policy.build(),
            oracle: None,
            sequence: None,
            prefetch: None,
            write_epochs: HashMap::new(),
            position: 0,
            tick: 0,
            stats: IoStats::default(),
        }
    }

    /// Attaches the schedule's next-use oracle (enables the exact
    /// forward-looking policy of §VII-B).
    pub fn with_oracle(mut self, oracle: &'o dyn NextUseOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Updates the current schedule position (global step index); consulted
    /// by the forward-looking policy, and — when a prefetch pipeline is
    /// bound — advances the prefetch horizon over the upcoming accesses.
    pub fn set_position(&mut self, position: u64) {
        self.position = position;
        self.advance_prefetch();
    }

    /// Hints the pipeline at explicitly-known upcoming units (e.g. a warm-up
    /// scan outside the cyclic schedule). Best-effort, bounded by the
    /// pipeline depth and the staging area; a no-op without an active
    /// pipeline.
    pub fn prefetch_units(&mut self, units: &[UnitId]) {
        self.drain_prefetched();
        let Some(pf) = self.prefetch.as_mut() else {
            return;
        };
        for &unit in units {
            if !pf.wants(unit, &self.entries) {
                continue;
            }
            if !pf.has_room(self.capacity) || !pf.issue(unit, &self.write_epochs) {
                break;
            }
        }
    }

    /// `true` when an asynchronous prefetch pipeline is running.
    pub fn prefetch_active(&self) -> bool {
        self.prefetch.is_some()
    }

    /// Moves arrived pages from the worker into the staging map.
    fn drain_prefetched(&mut self) {
        let Some(pf) = self.prefetch.as_mut() else {
            return;
        };
        while let Some(staged) = pf.prefetcher.try_recv() {
            pf.file_arrival(
                staged,
                &self.write_epochs,
                &self.entries,
                self.capacity,
                &mut self.stats,
            );
        }
    }

    /// Walks the bound access sequence ahead of the current position,
    /// issuing reads for units the upcoming steps will miss, while the
    /// pipeline has room ([`PrefetchState::has_room`]). The walk is bounded
    /// so a fully-resident working set costs O(depth) checks per step, not
    /// an unbounded cycle scan.
    fn advance_prefetch(&mut self) {
        self.drain_prefetched();
        let Some(seq) = self.sequence else { return };
        let Some(pf) = self.prefetch.as_mut() else {
            return;
        };
        if pf.cursor < self.position {
            pf.cursor = self.position;
        }
        let horizon = self.position + 4 * pf.depth as u64 + 1;
        let mut step_units = std::mem::take(&mut pf.step_units);
        'walk: while pf.cursor < horizon {
            step_units.clear();
            seq.for_each_unit_at(pf.cursor, &mut |u| step_units.push(u));
            for &unit in &step_units {
                if !pf.wants(unit, &self.entries) {
                    continue;
                }
                // No room (or no worker): the cursor stays on this
                // position, so the unit is issued by a later advance
                // instead of being walked past.
                if !pf.has_room(self.capacity) || !pf.issue(unit, &self.write_epochs) {
                    break 'walk;
                }
            }
            pf.cursor += 1;
        }
        pf.step_units = step_units;
    }

    /// Produces the bytes for a missing unit: staged prefetch data when
    /// valid, otherwise a synchronous store read. Wall time spent blocked
    /// here — the synchronous read, or the tail of an in-flight prefetch —
    /// is the pipeline's `stall_ns`. Staged prefetch pages are admitted
    /// by move, so the staging hop adds no copy.
    fn fetch_unit(&mut self, unit: UnitId) -> Result<UnitData> {
        if self.prefetch.is_some() {
            self.drain_prefetched();
            if let Some(pf) = self.prefetch.as_mut() {
                if let Some(data) = pf.take_staged(unit, &self.write_epochs, &mut self.stats) {
                    return Ok(data);
                }
                if pf.in_flight.contains(&unit) {
                    // The read is already happening on the worker — wait
                    // for it rather than issuing a duplicate.
                    let start = Instant::now();
                    while pf.in_flight.contains(&unit) {
                        match pf.prefetcher.recv_blocking() {
                            Some(staged) => pf.file_arrival(
                                staged,
                                &self.write_epochs,
                                &self.entries,
                                self.capacity,
                                &mut self.stats,
                            ),
                            None => {
                                pf.in_flight.remove(&unit);
                                break;
                            }
                        }
                    }
                    self.stats.stall_ns += start.elapsed().as_nanos() as u64;
                    if let Some(data) = pf.take_staged(unit, &self.write_epochs, &mut self.stats) {
                        return Ok(data);
                    }
                }
            }
        }
        let start = Instant::now();
        let result = self.store.read(unit);
        self.stats.stall_ns += start.elapsed().as_nanos() as u64;
        result
    }

    /// Byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of resident units.
    pub fn resident_len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `unit` is resident right now.
    pub fn is_resident(&self, unit: UnitId) -> bool {
        self.entries.contains_key(&unit)
    }

    /// Snapshot of the I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Mutable access to the backing store (setup/inspection).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Shared access to the backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Flushes dirty entries and dissolves the pool into its store.
    ///
    /// # Errors
    /// Propagates store write failures from the final flush.
    pub fn into_store(mut self) -> Result<S> {
        self.flush()?;
        Ok(self.store)
    }

    /// Loads (if needed) and pins every unit in `units`.
    ///
    /// Pinned units are never chosen for eviction; the caller must
    /// [`release`](Self::release) them when the step completes. On error the
    /// pins taken by this call are rolled back.
    ///
    /// # Errors
    /// Store failures, or [`StorageError::BufferTooSmall`] when the pinned
    /// working set alone exceeds capacity.
    pub fn acquire(&mut self, units: &[UnitId]) -> Result<()> {
        let newly_pinned: Vec<UnitId> = units
            .iter()
            .filter(|u| self.pinned.insert(**u))
            .copied()
            .collect();
        let result = self.acquire_inner(units);
        if result.is_err() {
            for u in &newly_pinned {
                self.pinned.remove(u);
            }
        }
        result
    }

    fn acquire_inner(&mut self, units: &[UnitId]) -> Result<()> {
        for &unit in units {
            self.tick += 1;
            if self.entries.contains_key(&unit) {
                self.stats.hits += 1;
                self.policy.on_access(unit, self.tick);
            } else {
                let data = self.fetch_unit(unit)?;
                let bytes = data.payload_bytes();
                self.stats.fetches += 1;
                self.stats.bytes_read += bytes as u64;
                self.used += bytes;
                if let Some(pf) = self.prefetch.as_mut() {
                    pf.largest_page = pf.largest_page.max(bytes);
                }
                self.entries.insert(
                    unit,
                    Entry {
                        data,
                        bytes,
                        dirty: Dirty::Clean,
                    },
                );
                self.policy.on_access(unit, self.tick);
            }
        }
        self.shrink_to_capacity()
    }

    /// Unpins units previously [`acquire`](Self::acquire)d.
    pub fn release(&mut self, units: &[UnitId]) {
        for u in units {
            self.pinned.remove(u);
        }
    }

    /// Borrows a resident unit.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] when the unit is not resident (callers
    /// must `acquire` first — the pool never does hidden I/O on reads).
    pub fn get(&self, unit: UnitId) -> Result<&UnitData> {
        self.entries
            .get(&unit)
            .map(|e| &e.data)
            .ok_or(StorageError::NotFound(unit))
    }

    /// Mutably borrows a resident unit, marking all of it dirty: its
    /// write-back rewrites the whole unit.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] when the unit is not resident.
    pub fn get_mut(&mut self, unit: UnitId) -> Result<&mut UnitData> {
        let entry = self
            .entries
            .get_mut(&unit)
            .ok_or(StorageError::NotFound(unit))?;
        entry.dirty = Dirty::Whole;
        Ok(&mut entry.data)
    }

    /// Mutably borrows a resident unit's factor `A(i)(kᵢ)` next to its
    /// (shared) slab sub-factors, marking only the factor dirty: the
    /// write-back is a [`UnitStore::write_factor`] — the factor's bytes,
    /// not the unit's. This is how Phase 2 commits an update.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] when the unit is not resident.
    pub fn get_factor_mut(&mut self, unit: UnitId) -> Result<(&mut Mat, &[(u64, Mat)])> {
        let entry = self
            .entries
            .get_mut(&unit)
            .ok_or(StorageError::NotFound(unit))?;
        entry.dirty = entry.dirty.max(Dirty::Factor);
        Ok((&mut entry.data.factor, &entry.data.sub_factors))
    }

    /// Writes every dirty resident unit back to the store (without
    /// evicting).
    ///
    /// # Errors
    /// Propagates store write failures.
    pub fn flush(&mut self) -> Result<()> {
        for (unit, entry) in self.entries.iter_mut() {
            if entry.write_back(&mut self.store, &mut self.stats)? {
                *self.write_epochs.entry(*unit).or_insert(0) += 1;
            }
        }
        Ok(())
    }

    /// Flushes and drops every resident unit (end of a run).
    ///
    /// # Errors
    /// Propagates store write failures.
    pub fn flush_and_clear(&mut self) -> Result<()> {
        self.flush()?;
        for unit in self.entries.keys().copied().collect::<Vec<_>>() {
            self.policy.on_remove(unit);
        }
        self.entries.clear();
        self.pinned.clear();
        self.used = 0;
        Ok(())
    }

    fn shrink_to_capacity(&mut self) -> Result<()> {
        while self.used > self.capacity {
            let candidates: Vec<UnitId> = self
                .entries
                .keys()
                .filter(|u| !self.pinned.contains(u))
                .copied()
                .collect();
            if candidates.is_empty() {
                return Err(StorageError::BufferTooSmall {
                    needed: self.used,
                    capacity: self.capacity,
                });
            }
            let victim = self
                .policy
                .choose_victim(&candidates, self.position, self.oracle);
            let mut entry = self.entries.remove(&victim).expect("victim is resident");
            self.policy.on_remove(victim);
            self.used -= entry.bytes;
            self.stats.evictions += 1;
            if let Some(pf) = self.prefetch.as_mut() {
                // The horizon walk passed the victim's upcoming accesses
                // because it was resident; it no longer is, so the walk
                // resumes from its next use after this step (without an
                // oracle: from the next step) and gets to stage it.
                let after = self.position + 1;
                let next_use = self.oracle.map_or(after, |o| o.next_use(victim, after));
                pf.cursor = pf.cursor.min(next_use);
            }
            if entry.write_back(&mut self.store, &mut self.stats)? {
                *self.write_epochs.entry(victim).or_insert(0) += 1;
                self.stats.write_backs += 1;
            }
        }
        Ok(())
    }
}

impl<'o, S: UnitStore + PrefetchSource> BufferPool<'o, S> {
    /// Binds the asynchronous prefetch pipeline: a background worker walks
    /// `sequence` ahead of the position set via
    /// [`BufferPool::set_position`] and stages the units upcoming steps
    /// will miss.
    ///
    /// Silently a no-op when the config is disabled, the store declines to
    /// provide a [`PrefetchSource`] reader (e.g. [`crate::MemStore`]), or
    /// the worker cannot be spawned — the pool then behaves exactly as
    /// without prefetch. Prefetch moves bytes, never values: swap counts,
    /// evictions and all data observed through the pool are identical
    /// either way.
    pub fn with_prefetch(mut self, sequence: &'o dyn AccessSequence, cfg: PrefetchConfig) -> Self {
        if !cfg.is_active() {
            return self;
        }
        let Some(reader) = self.store.prefetch_reader() else {
            return self;
        };
        if let Ok(prefetcher) = Prefetcher::spawn(reader, cfg.depth) {
            self.sequence = Some(sequence);
            self.prefetch = Some(PrefetchState::new(prefetcher, cfg.depth));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::collections::HashMap as Map;
    use tpcp_linalg::Mat;

    /// A store seeded with `n` units of identical size; returns the size.
    fn seeded_store(n: usize) -> (MemStore, usize) {
        let mut store = MemStore::new();
        let mut size = 0;
        for p in 0..n {
            let data = UnitData {
                unit: UnitId::new(0, p),
                factor: Mat::filled(4, 2, p as f64),
                sub_factors: vec![(p as u64, Mat::filled(2, 2, 1.0))],
            };
            size = data.payload_bytes();
            store.write(&data).unwrap();
        }
        (store, size)
    }

    fn u(part: usize) -> UnitId {
        UnitId::new(0, part)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (store, size) = seeded_store(3);
        let mut pool = BufferPool::new(store, size * 3, PolicyKind::Lru);
        pool.acquire(&[u(0), u(1)]).unwrap();
        pool.release(&[u(0), u(1)]);
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        let s = pool.stats();
        assert_eq!(s.fetches, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn capacity_is_enforced_via_eviction() {
        let (store, size) = seeded_store(4);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru);
        for p in 0..4 {
            pool.acquire(&[u(p)]).unwrap();
            pool.release(&[u(p)]);
            assert!(pool.used_bytes() <= pool.capacity());
        }
        assert_eq!(pool.stats().fetches, 4);
        assert_eq!(pool.stats().evictions, 2);
        assert_eq!(pool.resident_len(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (store, size) = seeded_store(3);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru);
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        pool.acquire(&[u(1)]).unwrap();
        pool.release(&[u(1)]);
        pool.acquire(&[u(0)]).unwrap(); // refresh 0
        pool.release(&[u(0)]);
        pool.acquire(&[u(2)]).unwrap(); // evicts 1 (least recent)
        pool.release(&[u(2)]);
        assert!(pool.is_resident(u(0)));
        assert!(!pool.is_resident(u(1)));
        assert!(pool.is_resident(u(2)));
    }

    #[test]
    fn mru_evicts_most_recent() {
        let (store, size) = seeded_store(3);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Mru);
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        pool.acquire(&[u(1)]).unwrap();
        pool.release(&[u(1)]);
        pool.acquire(&[u(2)]).unwrap(); // evicts 1 (most recent unpinned)
        pool.release(&[u(2)]);
        assert!(pool.is_resident(u(0)));
        assert!(!pool.is_resident(u(1)));
        assert!(pool.is_resident(u(2)));
    }

    struct MapOracle(Map<UnitId, u64>);
    impl NextUseOracle for MapOracle {
        fn next_use(&self, unit: UnitId, _now: u64) -> u64 {
            self.0.get(&unit).copied().unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn forward_evicts_furthest_next_use() {
        let (store, size) = seeded_store(3);
        let oracle = MapOracle(Map::from([(u(0), 2), (u(1), 50), (u(2), 3)]));
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Forward).with_oracle(&oracle);
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        pool.acquire(&[u(1)]).unwrap();
        pool.release(&[u(1)]);
        pool.acquire(&[u(2)]).unwrap(); // evicts 1 (next use 50)
        pool.release(&[u(2)]);
        assert!(pool.is_resident(u(0)));
        assert!(!pool.is_resident(u(1)));
    }

    #[test]
    fn pinned_units_are_never_evicted() {
        let (store, size) = seeded_store(3);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru);
        pool.acquire(&[u(0), u(1)]).unwrap(); // both pinned
        let err = pool.acquire(&[u(2)]).unwrap_err();
        assert!(matches!(err, StorageError::BufferTooSmall { .. }));
        // Failed acquire rolled its pin back; after releasing, it works.
        pool.release(&[u(0), u(1)]);
        pool.acquire(&[u(2)]).unwrap();
        assert!(pool.is_resident(u(2)));
    }

    #[test]
    fn dirty_units_are_written_back_on_eviction() {
        let (store, size) = seeded_store(2);
        let mut pool = BufferPool::new(store, size, PolicyKind::Lru);
        pool.acquire(&[u(0)]).unwrap();
        pool.get_mut(u(0)).unwrap().factor.set(0, 0, 123.0);
        pool.release(&[u(0)]);
        pool.acquire(&[u(1)]).unwrap(); // evicts dirty 0
        pool.release(&[u(1)]);
        assert_eq!(pool.stats().write_backs, 1);
        let back = pool.store_mut().read(u(0)).unwrap();
        assert_eq!(back.factor.get(0, 0), 123.0);
    }

    #[test]
    fn clean_evictions_skip_write_back() {
        let (store, size) = seeded_store(2);
        let mut pool = BufferPool::new(store, size, PolicyKind::Lru);
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        pool.acquire(&[u(1)]).unwrap();
        pool.release(&[u(1)]);
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().write_backs, 0);
    }

    #[test]
    fn get_requires_residency() {
        let (store, _) = seeded_store(1);
        let pool = BufferPool::new(store, 1 << 20, PolicyKind::Lru);
        assert!(matches!(pool.get(u(0)), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn flush_writes_dirty_without_eviction() {
        let (store, size) = seeded_store(1);
        let mut pool = BufferPool::new(store, size * 4, PolicyKind::Lru);
        pool.acquire(&[u(0)]).unwrap();
        pool.get_mut(u(0)).unwrap().factor.set(1, 1, -7.0);
        pool.flush().unwrap();
        assert!(pool.is_resident(u(0)));
        let back = pool.store_mut().read(u(0)).unwrap();
        assert_eq!(back.factor.get(1, 1), -7.0);
        // Second flush is a no-op (entry now clean).
        let written_before = pool.stats().bytes_written;
        pool.flush().unwrap();
        assert_eq!(pool.stats().bytes_written, written_before);
    }

    #[test]
    fn flush_and_clear_resets_residency() {
        let (store, size) = seeded_store(2);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru);
        pool.acquire(&[u(0), u(1)]).unwrap();
        pool.get_mut(u(1)).unwrap().factor.set(0, 0, 5.0);
        pool.flush_and_clear().unwrap();
        assert_eq!(pool.resident_len(), 0);
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(pool.store_mut().read(u(1)).unwrap().factor.get(0, 0), 5.0);
    }

    #[test]
    fn store_read_errors_propagate_and_rollback_pins() {
        let dir = std::env::temp_dir().join(format!("tpcp_pool_fault_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut disk = crate::DiskStore::open(&dir).unwrap();
        disk.write(&UnitData {
            unit: u(0),
            factor: Mat::filled(2, 2, 1.0),
            sub_factors: vec![],
        })
        .unwrap();
        disk.inject_read_failures(1);
        let mut pool = BufferPool::new(disk, 1 << 20, PolicyKind::Lru);
        assert!(matches!(pool.acquire(&[u(0)]), Err(StorageError::Injected)));
        // Pin was rolled back; the retry succeeds.
        pool.acquire(&[u(0)]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A memory store whose map is shared with prefetch readers — the
    /// deterministic stand-in for a disk store in pipeline tests.
    struct SharedStore {
        map: std::sync::Arc<std::sync::Mutex<Map<UnitId, UnitData>>>,
    }

    impl SharedStore {
        fn new() -> Self {
            SharedStore {
                map: std::sync::Arc::new(std::sync::Mutex::new(Map::new())),
            }
        }
    }

    impl UnitStore for SharedStore {
        fn write(&mut self, data: &UnitData) -> crate::Result<()> {
            self.map
                .lock()
                .expect("map poisoned")
                .insert(data.unit, data.clone());
            Ok(())
        }

        fn read(&mut self, unit: UnitId) -> crate::Result<UnitData> {
            self.map
                .lock()
                .expect("map poisoned")
                .get(&unit)
                .cloned()
                .ok_or(StorageError::NotFound(unit))
        }

        fn contains(&self, unit: UnitId) -> bool {
            self.map.lock().expect("map poisoned").contains_key(&unit)
        }

        fn bytes_written(&self) -> u64 {
            0
        }

        fn bytes_read(&self) -> u64 {
            0
        }
    }

    struct SharedReader(std::sync::Arc<std::sync::Mutex<Map<UnitId, UnitData>>>);

    impl crate::prefetch::PrefetchRead for SharedReader {
        fn read(&mut self, unit: UnitId) -> crate::Result<UnitData> {
            self.0
                .lock()
                .expect("map poisoned")
                .get(&unit)
                .cloned()
                .ok_or(StorageError::NotFound(unit))
        }
    }

    impl PrefetchSource for SharedStore {
        fn prefetch_reader(&self) -> Option<Box<dyn crate::prefetch::PrefetchRead>> {
            Some(Box::new(SharedReader(std::sync::Arc::clone(&self.map))))
        }
    }

    /// A scripted access sequence: position `p` touches `script[p % len]`.
    struct ScriptSequence(Vec<UnitId>);

    impl AccessSequence for ScriptSequence {
        fn units_at(&self, pos: u64) -> Vec<UnitId> {
            vec![self.0[(pos as usize) % self.0.len()]]
        }
    }

    fn shared_seeded(n: usize) -> (SharedStore, usize) {
        let mut store = SharedStore::new();
        let mut size = 0;
        for p in 0..n {
            let data = UnitData {
                unit: UnitId::new(0, p),
                factor: Mat::filled(4, 2, p as f64),
                sub_factors: vec![(p as u64, Mat::filled(2, 2, 1.0))],
            };
            size = data.payload_bytes();
            store.write(&data).unwrap();
        }
        (store, size)
    }

    #[test]
    fn prefetch_pipeline_stages_upcoming_units() {
        let (store, size) = shared_seeded(4);
        let script = ScriptSequence((0..4).map(u).collect());
        let mut pool = BufferPool::new(store, size * 4, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::with_depth(4));
        assert!(pool.prefetch_active());
        for p in 0..4u64 {
            pool.set_position(p);
            pool.acquire(&[u(p as usize)]).unwrap();
            pool.release(&[u(p as usize)]);
        }
        let s = pool.stats();
        // Every access was a miss (cold cache) and a fetch (= swap) —
        // identical to the no-prefetch run…
        assert_eq!(s.fetches, 4);
        assert_eq!(s.hits, 0);
        // …but at least the later units came from the pipeline (unit 0 may
        // race the first synchronous read; 1..3 were staged well ahead).
        assert!(s.prefetch_hits >= 2, "stats: {s}");
        assert!(s.prefetched_bytes >= 2 * size as u64);
    }

    #[test]
    fn prefetched_values_match_store_exactly() {
        let (store, size) = shared_seeded(6);
        let script = ScriptSequence((0..6).map(u).collect());
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::with_depth(3));
        for p in 0..6u64 {
            pool.set_position(p);
            pool.acquire(&[u(p as usize)]).unwrap();
            let got = pool.get(u(p as usize)).unwrap();
            assert_eq!(got.factor.get(0, 0), p as f64);
            pool.release(&[u(p as usize)]);
        }
    }

    #[test]
    fn stale_prefetch_is_discarded_after_write_back() {
        let (store, size) = shared_seeded(3);
        // Script: 0, 1, 2, 0, … with a buffer of exactly one unit, so
        // every acquire evicts (and, when dirty, writes back) the previous
        // unit while the pipeline races ahead.
        let script = ScriptSequence(vec![u(0), u(1), u(2), u(0), u(1), u(2)]);
        let mut pool = BufferPool::new(store, size, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::with_depth(3));
        for (pos, part) in [0usize, 1, 2, 0, 1, 2].iter().enumerate() {
            pool.set_position(pos as u64);
            pool.acquire(&[u(*part)]).unwrap();
            // Mutate every unit on every visit: any stale page the
            // pipeline admitted would surface as a wrong value below.
            let visit = (pos / 3) as f64;
            let entry = pool.get_mut(u(*part)).unwrap();
            let expect_prev = if pos < 3 {
                *part as f64
            } else {
                1000.0 + *part as f64 + (visit - 1.0) * 10.0
            };
            assert_eq!(entry.factor.get(0, 0), expect_prev, "pos {pos}");
            entry.factor.set(0, 0, 1000.0 + *part as f64 + visit * 10.0);
            pool.release(&[u(*part)]);
        }
        let s = pool.stats();
        assert_eq!(s.write_backs, 5, "every eviction wrote back dirty data");
    }

    #[test]
    fn prefetch_disabled_config_is_inert() {
        let (store, size) = shared_seeded(2);
        let script = ScriptSequence(vec![u(0), u(1)]);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::disabled());
        assert!(!pool.prefetch_active());
        pool.set_position(0);
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        assert_eq!(pool.stats().prefetch_hits, 0);
        assert_eq!(pool.stats().prefetched_bytes, 0);
    }

    #[test]
    fn mem_store_pool_silently_skips_prefetch() {
        let (store, size) = seeded_store(2);
        let script = ScriptSequence(vec![u(0), u(1)]);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::default());
        assert!(!pool.prefetch_active(), "MemStore declines a reader");
        pool.set_position(0);
        pool.acquire(&[u(0)]).unwrap();
        assert_eq!(pool.stats().fetches, 1);
    }

    #[test]
    fn explicit_prefetch_hints_stage_units() {
        let (store, size) = shared_seeded(3);
        let script = ScriptSequence(vec![u(0)]);
        let mut pool = BufferPool::new(store, size * 3, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::with_depth(3));
        // One synchronous fetch tells the pool how big a page is; before
        // that, hints are issued one at a time.
        pool.acquire(&[u(0)]).unwrap();
        pool.release(&[u(0)]);
        pool.prefetch_units(&[u(1), u(2)]);
        // Miss on the hinted units: both must be pipeline hits (either
        // staged or awaited in flight).
        pool.acquire(&[u(1), u(2)]).unwrap();
        pool.release(&[u(1), u(2)]);
        let s = pool.stats();
        assert_eq!(s.fetches, 3);
        assert_eq!(s.prefetch_hits, 2, "stats: {s}");
        assert_eq!(s.prefetch_discarded, 0);
    }

    #[test]
    fn reads_are_issued_only_while_their_pages_fit_the_staging_area() {
        // Depth 8 over a 2-unit buffer: the staging area holds two pages,
        // so at most two reads are ever outstanding and nothing that
        // arrives has to be thrown away — every later unit is walked to
        // again, not past.
        let (store, size) = shared_seeded(8);
        let script = ScriptSequence((0..8).map(u).collect());
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::with_depth(8));
        for p in 0..16u64 {
            pool.set_position(p);
            let pf = pool.prefetch.as_ref().unwrap();
            assert!(pf.staged_bytes + pf.in_flight.len() * size <= size * 2);
            let unit = u((p % 8) as usize);
            pool.acquire(&[unit]).unwrap();
            pool.release(&[unit]);
        }
        let s = pool.stats();
        assert_eq!(s.fetches, 16);
        assert_eq!(s.prefetch_discarded, 0, "stats: {s}");
        assert!(s.prefetch_hits >= 14, "stats: {s}");
    }

    #[test]
    fn eviction_rewinds_the_walk_to_the_victims_next_use() {
        // Script 0 1 0 2 0 3 …: unit 0 is resident when the walk passes
        // its later accesses. With a one-unit buffer it is evicted by the
        // very next acquire, so unless the eviction rewinds the cursor
        // every revisit of unit 0 is a synchronous miss.
        let (store, size) = shared_seeded(4);
        let script = ScriptSequence(vec![u(0), u(1), u(0), u(2), u(0), u(3)]);
        let mut pool = BufferPool::new(store, size, PolicyKind::Lru)
            .with_prefetch(&script, PrefetchConfig::with_depth(4));
        for p in 0..24u64 {
            pool.set_position(p);
            let unit = script.0[(p % 6) as usize];
            pool.acquire(&[unit]).unwrap();
            pool.release(&[unit]);
        }
        let s = pool.stats();
        assert_eq!(s.fetches, 24);
        assert_eq!(s.prefetch_discarded, 0, "stats: {s}");
        assert!(s.prefetch_hits >= 22, "stats: {s}");
    }

    #[test]
    fn stall_ns_accumulates_on_synchronous_reads() {
        let (store, size) = seeded_store(2);
        let mut pool = BufferPool::new(store, size * 2, PolicyKind::Lru);
        pool.acquire(&[u(0), u(1)]).unwrap();
        assert!(pool.stats().stall_ns > 0, "sync reads must be timed");
    }

    #[test]
    fn capacity_for_fraction_matches_paper_settings() {
        // Exact at representable fractions; within one byte of the ideal at
        // the paper's 1/3 and 2/3 settings (floating-point floor).
        assert_eq!(capacity_for_fraction(300, 0.5), 150);
        assert_eq!(capacity_for_fraction(1 << 20, 0.25), 1 << 18);
        let third = capacity_for_fraction(300, 1.0 / 3.0);
        assert!((99..=100).contains(&third));
        let two_thirds = capacity_for_fraction(300, 2.0 / 3.0);
        assert!((199..=200).contains(&two_thirds));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fraction_rejected() {
        let _ = capacity_for_fraction(100, 0.0);
    }
}
