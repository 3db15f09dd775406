//! Unit stores: the backing level the buffer pool swaps against.

use crate::factor::{self, FactorFiles};
use crate::prefetch::{PrefetchRead, PrefetchSource};
use crate::{codec, Result, StorageError};
use memmap2::Mmap;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tpcp_linalg::Mat;
use tpcp_schedule::UnitId;

/// Name of the environment variable enabling mmap-backed page reads
/// process-wide (`1` / `on` / `true` / `yes`; anything else — or absence —
/// leaves the buffered scratch-copy read path in place).
pub const MMAP_ENV_VAR: &str = "TPCP_MMAP";

/// The automatic mmap setting: `TPCP_MMAP` when set to an affirmative
/// value, otherwise off. Stores opened without an explicit flag start
/// here, so a `TPCP_MMAP=1` test leg exercises the zero-copy read path
/// across the whole workspace.
pub fn mmap_auto() -> bool {
    match std::env::var(MMAP_ENV_VAR) {
        Ok(v) => matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "on" | "true" | "yes"
        ),
        Err(_) => false,
    }
}

/// Result of [`UnitStore::read_slab`]: either the decoded unit (the
/// classic owned path) or a borrowed, still-encoded page slab that the
/// caller decodes itself. Mmap-backed stores return `Borrowed` views
/// straight out of the page cache, so the only copy on the whole read
/// path is the codec's slab → [`Mat`] materialisation.
pub enum PageRead<'a> {
    /// The store decoded the page itself.
    Owned(UnitData),
    /// A borrowed view of the raw page; decode with [`codec::decode`] and
    /// report the payload size back via [`UnitStore::note_borrowed_read`].
    Borrowed(&'a [u8]),
}

/// In-memory payload of one data-access unit `⟨i, kᵢ⟩` (paper Def. 4).
#[derive(Clone, Debug, PartialEq)]
pub struct UnitData {
    /// Which unit this is.
    pub unit: UnitId,
    /// The global sub-factor `A(i)(kᵢ)` (`(Iᵢ/Kᵢ) × F`).
    pub factor: Mat,
    /// The mode-`i` sub-factors `U(i)_l` of every block `l` in the slab
    /// `[∗,…,kᵢ,…,∗]`, keyed by linear block id.
    pub sub_factors: Vec<(u64, Mat)>,
}

impl UnitData {
    /// Payload size in bytes under the paper's accounting
    /// (8-byte doubles: `(Iᵢ/Kᵢ × F) · (1 + Π_{j≠i} Kⱼ) × 8`).
    pub fn payload_bytes(&self) -> usize {
        self.factor.payload_bytes()
            + self
                .sub_factors
                .iter()
                .map(|(_, m)| m.payload_bytes())
                .sum::<usize>()
    }

    /// Borrow the sub-factor for `block`, if present.
    pub fn sub_factor(&self, block: u64) -> Option<&Mat> {
        self.sub_factors
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, m)| m)
    }
}

/// The persistence level below the buffer pool.
///
/// Implementations must be *stores of record*: a `write` followed by a
/// `read` of the same unit returns identical data, across instances for
/// durable implementations.
pub trait UnitStore {
    /// Persists (or overwrites) a unit.
    fn write(&mut self, data: &UnitData) -> Result<()>;

    /// Persists `data.factor` — the only part of a unit Phase 2 changes —
    /// as the unit's factor of record and returns the payload bytes
    /// written. The unit must already be stored and `data.sub_factors`
    /// must be what the store holds: a store is free to ignore them. The
    /// default rewrites the whole unit; [`DiskStore`] writes the factor
    /// alone, in place.
    ///
    /// # Errors
    /// Same failure modes as [`UnitStore::write`].
    fn write_factor(&mut self, data: &UnitData) -> Result<u64> {
        self.write(data)?;
        Ok(data.payload_bytes() as u64)
    }

    /// Loads a unit.
    fn read(&mut self, unit: UnitId) -> Result<UnitData>;

    /// Whether the unit exists.
    fn contains(&self, unit: UnitId) -> bool;

    /// Total payload bytes written so far (for reporting).
    fn bytes_written(&self) -> u64;

    /// Total payload bytes read so far (for reporting).
    fn bytes_read(&self) -> u64;

    /// The shard `unit` routes to — `0` for unsharded stores. Lets
    /// callers (Phase 1's unit emission) group writes shard-by-shard
    /// without knowing the concrete store type.
    fn shard_hint(&self, _unit: UnitId) -> usize {
        0
    }

    /// Loads a unit, preferring to hand back a borrowed page slab when
    /// the store is mmap-backed ([`PageRead::Borrowed`]); the default
    /// delegates to [`UnitStore::read`]. A caller that decodes a borrowed
    /// slab must report the payload size via
    /// [`UnitStore::note_borrowed_read`] so byte accounting stays
    /// identical to the owned path.
    ///
    /// # Errors
    /// Same failure modes as [`UnitStore::read`].
    fn read_slab(&mut self, unit: UnitId) -> Result<PageRead<'_>> {
        self.read(unit).map(PageRead::Owned)
    }

    /// Accounts a read served through a [`PageRead::Borrowed`] slab (the
    /// store could not know the payload size before the caller decoded
    /// it). No-op for stores that never return borrowed slabs.
    fn note_borrowed_read(&mut self, _unit: UnitId, _payload_bytes: u64) {}

    /// Re-primes transport-side caches for `units` — typically pages just
    /// written back, whose next read would otherwise pay the cold-start
    /// cost the write evicted. The mmap-backed [`DiskStore`] re-opens and
    /// re-maps each fresh page file and batches one `madvise(WILLNEED)`
    /// per page (the written bytes are still in the page cache, so this
    /// costs syscalls, not I/O — and it moves the map/advise bill off the
    /// next read's critical path). Purely a performance hint: stores
    /// without such caches ignore it, failures are swallowed, and decoded
    /// data is bit-identical either way.
    fn warm(&mut self, _units: &[UnitId]) {}
}

/// A purely in-memory store — reference implementation for tests and the
/// "buffer large enough to hold everything" configurations.
#[derive(Default)]
pub struct MemStore {
    map: HashMap<UnitId, UnitData>,
    bytes_written: u64,
    bytes_read: u64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored units.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no units are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl UnitStore for MemStore {
    fn write(&mut self, data: &UnitData) -> Result<()> {
        self.bytes_written += data.payload_bytes() as u64;
        self.map.insert(data.unit, data.clone());
        Ok(())
    }

    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        let data = self
            .map
            .get(&unit)
            .cloned()
            .ok_or(StorageError::NotFound(unit))?;
        self.bytes_read += data.payload_bytes() as u64;
        Ok(data)
    }

    fn contains(&self, unit: UnitId) -> bool {
        self.map.contains_key(&unit)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

impl PrefetchSource for MemStore {
    /// An in-memory map has no I/O latency to hide; opting out keeps the
    /// buffer pool on plain synchronous reads (and avoids doubling the
    /// resident data just to serve it from a second thread).
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>> {
        None
    }
}

/// Inode of the file at `path`'s metadata, used to validate cached page
/// handles. `None` on targets without stable inode numbers, which simply
/// turns every cache probe into a miss (reopen-per-read, today's
/// behaviour).
fn inode_of(meta: &fs::Metadata) -> Option<u64> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        Some(meta.ino())
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        None
    }
}

/// One cached page handle: the open file, its inode at open time, and —
/// in mmap mode — a mapping of the whole page. `map_attempted` caches a
/// failed mapping attempt too, so a target where `mmap(2)` is unavailable
/// still gets full FD reuse instead of retrying the syscall per read.
struct CachedPage {
    ino: Option<u64>,
    file: File,
    map: Option<Mmap>,
    map_attempted: bool,
    last_used: u64,
}

/// A small bounded cache of open page files keyed by unit.
///
/// [`DiskStore`] commits pages with write-then-rename, so for a given
/// *inode* a page file's content never changes; a cached handle is valid
/// exactly while the path still resolves to the inode it was opened
/// under. Each probe therefore costs one `stat` instead of an
/// `open`/`read`/`close` cycle — and in mmap mode the cached mapping is
/// reused outright, making repeat reads of a hot unit zero-syscall.
struct FdCache {
    cap: usize,
    tick: u64,
    entries: HashMap<UnitId, CachedPage>,
}

impl FdCache {
    /// Default bound: enough for the prefetch depth plus a hot working
    /// set, small enough to never threaten the process FD budget.
    const DEFAULT_CAP: usize = 64;

    fn new(cap: usize) -> Self {
        FdCache {
            cap: cap.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Returns a validated handle for `unit`, (re)opening the page file
    /// when it is not cached or the path's inode moved (an overwrite
    /// committed a new file). With `mmap`, the handle carries a mapping of
    /// the whole page; mapping failure degrades to the plain handle.
    ///
    /// # Errors
    /// [`StorageError::NotFound`] when no page file exists; I/O errors
    /// from `stat`/`open`.
    fn entry(&mut self, dir: &Path, unit: UnitId, mmap: bool) -> Result<&mut CachedPage> {
        self.tick += 1;
        let path = unit_path_in(dir, unit);
        let ino = match fs::metadata(&path) {
            Ok(meta) => inode_of(&meta),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.entries.remove(&unit);
                return Err(StorageError::NotFound(unit));
            }
            Err(e) => return Err(e.into()),
        };
        let valid = ino.is_some() && self.entries.get(&unit).is_some_and(|c| c.ino == ino);
        if !valid {
            let file = match File::open(&path) {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    self.entries.remove(&unit);
                    return Err(StorageError::NotFound(unit));
                }
                Err(e) => return Err(e.into()),
            };
            if self.entries.len() >= self.cap && !self.entries.contains_key(&unit) {
                self.evict_lru();
            }
            self.entries.insert(
                unit,
                CachedPage {
                    ino,
                    file,
                    map: None,
                    map_attempted: false,
                    last_used: self.tick,
                },
            );
        }
        let entry = self.entries.get_mut(&unit).expect("present: just checked");
        entry.last_used = self.tick;
        if mmap && !entry.map_attempted {
            entry.map_attempted = true;
            // SAFETY: page files are immutable per inode (write-then-
            // rename), so the mapped bytes can never move or shrink under
            // the map — see `Mmap::map`'s contract.
            entry.map = unsafe { Mmap::map(&entry.file) }.ok();
            if let Some(map) = &entry.map {
                // Batch the fresh map's page faults into one read-ahead
                // (madvise WILLNEED) instead of one major fault per 4 KiB
                // the decoder touches; on the prefetch reader this keeps
                // the background worker's reads sequential too.
                map.advise_willneed(0, map.len());
            }
        }
        Ok(entry)
    }

    fn evict_lru(&mut self) {
        if let Some(&victim) = self
            .entries
            .iter()
            .min_by_key(|(_, c)| c.last_used)
            .map(|(u, _)| u)
        {
            self.entries.remove(&victim);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Reads and decodes `unit`'s page through a validated [`FdCache`] handle
/// — straight from the cached mapping in mmap mode (one copy, map →
/// `Mat`), otherwise through the cached descriptor and `scratch` — then
/// overlays the unit's factor file.
fn read_cached(
    cache: &mut FdCache,
    dir: &Path,
    unit: UnitId,
    mmap: bool,
    scratch: &mut Vec<u8>,
) -> Result<UnitData> {
    let entry = cache.entry(dir, unit, mmap)?;
    let data = if let Some(map) = &entry.map {
        codec::decode(map)?
    } else {
        entry.file.seek(SeekFrom::Start(0))?;
        scratch.clear();
        entry.file.read_to_end(scratch)?;
        codec::decode(scratch)?
    };
    unit_of_record(dir, unit, data, scratch)
}

/// Turns a decoded base page into the unit of record: checks it is
/// `unit`'s page and overlays the newest factor from the unit's factor
/// file, if one exists ([`factor::overlay`]). Every disk read path ends
/// here, so none can serve the base page's factor once a newer one was
/// written. `scratch` is free for reuse (the page is already decoded).
fn unit_of_record(
    dir: &Path,
    unit: UnitId,
    mut data: UnitData,
    scratch: &mut Vec<u8>,
) -> Result<UnitData> {
    if data.unit != unit {
        return Err(StorageError::Corrupt {
            reason: format!("page for {} found under path of {unit}", data.unit),
        });
    }
    factor::overlay(dir, &mut data, scratch)?;
    Ok(data)
}

/// Disk-backed store: per unit, one checksummed page file — the whole
/// unit, committed by write-then-rename — and, once Phase 2 has written
/// the unit back, a two-slot factor file next to it holding the current
/// `A(i)(kᵢ)`, updated in place (`factor.rs`, `docs/storage.md`). A read
/// decodes the page and overlays the newest valid factor slot.
///
/// Both files are checksummed, so torn or corrupted files are detected
/// rather than silently consumed. The `inject_*_failures` knobs let
/// tests exercise error paths deterministically.
///
/// With mmap enabled ([`DiskStore::set_mmap`], [`mmap_auto`]), reads
/// decode directly from a memory map of the page file — no scratch-buffer
/// copy — and [`UnitStore::read_slab`] hands the raw mapped page to the
/// caller so the buffer pool can decode it straight into residency.
pub struct DiskStore {
    dir: PathBuf,
    bytes_written: u64,
    bytes_read: u64,
    inject_read_failures: u32,
    inject_write_failures: u32,
    /// Page buffer reused across `read()` calls (no per-fetch allocation).
    scratch: Vec<u8>,
    /// Whether reads go through memory maps instead of buffered copies.
    mmap: bool,
    /// Validated page-handle cache (mmap mode; maps are reused across
    /// reads of the same committed page).
    cache: FdCache,
    /// Open factor files, bounded like `cache`.
    factors: FactorFiles,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`, with the
    /// mmap read path per [`mmap_auto`] (the `TPCP_MMAP` override).
    ///
    /// # Errors
    /// I/O failure creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, mmap_auto())
    }

    /// Opens (creating if needed) a store rooted at `dir`, with the mmap
    /// read path explicitly on or off.
    ///
    /// # Errors
    /// I/O failure creating the directory.
    pub fn open_with(dir: impl AsRef<Path>, mmap: bool) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(DiskStore {
            dir: dir.as_ref().to_path_buf(),
            bytes_written: 0,
            bytes_read: 0,
            inject_read_failures: 0,
            inject_write_failures: 0,
            scratch: Vec::new(),
            mmap,
            cache: FdCache::new(FdCache::DEFAULT_CAP),
            factors: FactorFiles::new(FdCache::DEFAULT_CAP),
        })
    }

    /// Switches the mmap read path on or off. Purely a transport choice:
    /// the decoded data is bit-identical either way. Disabling drops the
    /// handle cache — the buffered path never consults it, so keeping the
    /// descriptors and mappings open would pin them for no benefit.
    pub fn set_mmap(&mut self, mmap: bool) {
        self.mmap = mmap;
        if !mmap {
            self.cache.entries.clear();
        }
    }

    /// Whether reads currently go through memory maps.
    pub fn mmap_enabled(&self) -> bool {
        self.mmap
    }

    /// Path of the page file for `unit`.
    pub fn unit_path(&self, unit: UnitId) -> PathBuf {
        unit_path_in(&self.dir, unit)
    }

    /// Makes the next `n` reads fail with [`StorageError::Injected`].
    pub fn inject_read_failures(&mut self, n: u32) {
        self.inject_read_failures = n;
    }

    /// Makes the next `n` writes ([`UnitStore::write`] and
    /// [`UnitStore::write_factor`] alike) fail with
    /// [`StorageError::Injected`].
    pub fn inject_write_failures(&mut self, n: u32) {
        self.inject_write_failures = n;
    }

    fn injected_write_failure(&mut self) -> bool {
        let fail = self.inject_write_failures > 0;
        self.inject_write_failures -= u32::from(fail);
        fail
    }
}

impl UnitStore for DiskStore {
    fn write(&mut self, data: &UnitData) -> Result<()> {
        if self.injected_write_failure() {
            return Err(StorageError::Injected);
        }
        let page = codec::encode(data);
        // Write-then-rename so readers never observe a torn page.
        let final_path = self.unit_path(data.unit);
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut f = std::io::BufWriter::new(fs::File::create(&tmp_path)?);
            f.write_all(&page)?;
            f.flush()?;
        }
        // The new page carries the factor of record itself, so a factor
        // file left by earlier write-backs (or an earlier run over this
        // directory) must not be overlaid on it. Dropped before the
        // rename: a crash in between leaves the old page without its
        // overlay — an older unit, never a new page under an old factor.
        self.factors.invalidate(&self.dir, data.unit)?;
        fs::rename(&tmp_path, &final_path)?;
        // The rename unlinked the unit's previous inode: retire the cached
        // handle (and its map) now, while we are already paying write-side
        // I/O cost. Unmapping a dead inode tears down its page-cache pages
        // — measured at ~100µs — which must not land on the next read's
        // critical path (the inode check would catch the staleness anyway;
        // this is purely about *when* the teardown bill is paid).
        self.cache.entries.remove(&data.unit);
        self.bytes_written += data.payload_bytes() as u64;
        Ok(())
    }

    fn write_factor(&mut self, data: &UnitData) -> Result<u64> {
        if self.injected_write_failure() {
            return Err(StorageError::Injected);
        }
        self.factors.write(&self.dir, data.unit, &data.factor)?;
        let bytes = data.factor.payload_bytes() as u64;
        self.bytes_written += bytes;
        Ok(bytes)
    }

    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        if self.inject_read_failures > 0 {
            self.inject_read_failures -= 1;
            return Err(StorageError::Injected);
        }
        let data = if self.mmap {
            read_cached(&mut self.cache, &self.dir, unit, true, &mut self.scratch)?
        } else {
            read_unit_page(&self.dir, unit, &mut self.scratch)?
        };
        self.bytes_read += data.payload_bytes() as u64;
        Ok(data)
    }

    fn read_slab(&mut self, unit: UnitId) -> Result<PageRead<'_>> {
        // A borrowed slab is the base page as Phase 1 wrote it; once a
        // factor file exists the page alone is no longer the unit, so the
        // store decodes (from the map, still one copy) and overlays.
        if self.inject_read_failures > 0
            || !self.mmap
            || factor::factor_path_in(&self.dir, unit).exists()
        {
            return self.read(unit).map(PageRead::Owned);
        }
        // Ensure a current handle (and, when possible, mapping) is cached,
        // then hand out a borrowed view of the map; when mapping is
        // unavailable for this inode, decode through the cached descriptor
        // instead — the failed attempt is cached too, so no reopen and no
        // mmap retry per read.
        let has_map = self.cache.entry(&self.dir, unit, true)?.map.is_some();
        if has_map {
            let entry = &self.cache.entries[&unit];
            return Ok(PageRead::Borrowed(
                entry.map.as_deref().expect("mapped: just checked"),
            ));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = read_cached(&mut self.cache, &self.dir, unit, true, &mut scratch);
        self.scratch = scratch;
        let data = result?;
        self.bytes_read += data.payload_bytes() as u64;
        Ok(PageRead::Owned(data))
    }

    fn note_borrowed_read(&mut self, _unit: UnitId, payload_bytes: u64) {
        self.bytes_read += payload_bytes;
    }

    fn warm(&mut self, units: &[UnitId]) {
        if !self.mmap {
            return;
        }
        for &unit in units {
            // `entry` opens, maps and `madvise(WILLNEED)`s the committed
            // page in one pass (a write-back just dropped the stale
            // handle, so this re-routes the unit through the FdCache map
            // ahead of its next read). Best-effort: a missing or
            // unmappable page simply stays cold.
            let _ = self.cache.entry(&self.dir, unit, true);
        }
    }

    fn contains(&self, unit: UnitId) -> bool {
        self.unit_path(unit).exists()
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

fn unit_path_in(dir: &Path, unit: UnitId) -> PathBuf {
    dir.join(format!("unit_m{}_p{}.2pcp", unit.mode, unit.part))
}

/// Reads and decodes `unit`'s page file under `dir`, reusing `scratch` as
/// the page buffer. Shared by [`DiskStore::read`] and its prefetch reader.
fn read_unit_page(dir: &Path, unit: UnitId, scratch: &mut Vec<u8>) -> Result<UnitData> {
    let path = unit_path_in(dir, unit);
    let mut file = match fs::File::open(&path) {
        Ok(f) => std::io::BufReader::new(f),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StorageError::NotFound(unit));
        }
        Err(e) => return Err(e.into()),
    };
    scratch.clear();
    file.read_to_end(scratch)?;
    let data = codec::decode(scratch)?;
    unit_of_record(dir, unit, data, scratch)
}

/// A [`PrefetchRead`] handle onto a [`DiskStore`] directory: one file per
/// unit means the handle only needs the directory path. Open descriptors
/// (and, in mmap mode, page mappings) are kept in a bounded [`FdCache`]
/// validated by inode, so the handle still always observes the latest
/// committed page (writes are write-then-rename, hence a fresh inode)
/// while repeat reads of a hot unit skip the open/close cycle entirely.
struct DiskReader {
    dir: PathBuf,
    scratch: Vec<u8>,
    mmap: bool,
    cache: FdCache,
}

impl PrefetchRead for DiskReader {
    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        read_cached(
            &mut self.cache,
            &self.dir,
            unit,
            self.mmap,
            &mut self.scratch,
        )
    }
}

impl PrefetchSource for DiskStore {
    /// Readers bypass the store's counters and fault injection: injected
    /// faults exercise the synchronous path (where errors must surface),
    /// while prefetched traffic is tallied by the buffer pool's
    /// [`crate::IoStats::prefetched_bytes`].
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>> {
        Some(Box::new(DiskReader {
            dir: self.dir.clone(),
            scratch: Vec::new(),
            mmap: self.mmap,
            cache: FdCache::new(FdCache::DEFAULT_CAP),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(unit: UnitId, seed: f64) -> UnitData {
        UnitData {
            unit,
            factor: Mat::from_rows(&[&[seed, 2.0], &[3.0, seed]]),
            sub_factors: vec![(1, Mat::from_rows(&[&[seed + 1.0]]))],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tpcp_store_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_store_roundtrip() {
        let mut s = MemStore::new();
        let u = UnitId::new(0, 1);
        assert!(!s.contains(u));
        assert!(matches!(s.read(u), Err(StorageError::NotFound(_))));
        s.write(&sample(u, 1.0)).unwrap();
        assert!(s.contains(u));
        assert_eq!(s.read(u).unwrap(), sample(u, 1.0));
        assert_eq!(s.len(), 1);
        assert!(s.bytes_written() > 0);
        assert!(s.bytes_read() > 0);
    }

    #[test]
    fn disk_store_roundtrip_and_persistence() {
        let dir = tmpdir("roundtrip");
        let u = UnitId::new(2, 5);
        {
            let mut s = DiskStore::open(&dir).unwrap();
            s.write(&sample(u, 7.0)).unwrap();
            assert_eq!(s.read(u).unwrap(), sample(u, 7.0));
        }
        // Re-open: data survives the instance.
        let mut s2 = DiskStore::open(&dir).unwrap();
        assert!(s2.contains(u));
        assert_eq!(s2.read(u).unwrap(), sample(u, 7.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_overwrite_wins() {
        let dir = tmpdir("overwrite");
        let mut s = DiskStore::open(&dir).unwrap();
        let u = UnitId::new(0, 0);
        s.write(&sample(u, 1.0)).unwrap();
        s.write(&sample(u, 2.0)).unwrap();
        assert_eq!(s.read(u).unwrap(), sample(u, 2.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_missing_unit() {
        let dir = tmpdir("missing");
        let mut s = DiskStore::open(&dir).unwrap();
        assert!(matches!(
            s.read(UnitId::new(0, 9)),
            Err(StorageError::NotFound(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_detects_corruption() {
        let dir = tmpdir("corrupt");
        let mut s = DiskStore::open(&dir).unwrap();
        let u = UnitId::new(1, 1);
        s.write(&sample(u, 3.0)).unwrap();
        // Flip a byte in the middle of the page file.
        let path = s.unit_path(u);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(s.read(u), Err(StorageError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_fault_injection() {
        let dir = tmpdir("faults");
        let mut s = DiskStore::open(&dir).unwrap();
        let u = UnitId::new(0, 0);
        s.inject_write_failures(1);
        assert!(matches!(
            s.write(&sample(u, 1.0)),
            Err(StorageError::Injected)
        ));
        s.write(&sample(u, 1.0)).unwrap();
        s.inject_read_failures(2);
        assert!(matches!(s.read(u), Err(StorageError::Injected)));
        assert!(matches!(s.read(u), Err(StorageError::Injected)));
        assert!(s.read(u).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_reader_sees_latest_committed_page() {
        let dir = tmpdir("reader");
        let mut s = DiskStore::open(&dir).unwrap();
        let u = UnitId::new(0, 0);
        s.write(&sample(u, 1.0)).unwrap();
        let mut r = s.prefetch_reader().unwrap();
        assert_eq!(r.read(u).unwrap(), sample(u, 1.0));
        // The handle is not a snapshot: a committed overwrite is visible.
        s.write(&sample(u, 9.0)).unwrap();
        assert_eq!(r.read(u).unwrap(), sample(u, 9.0));
        assert!(matches!(
            r.read(UnitId::new(5, 5)),
            Err(StorageError::NotFound(_))
        ));
        // Reader traffic does not touch the store's counters.
        assert_eq!(s.bytes_read(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_scratch_reuse_keeps_reads_correct() {
        let dir = tmpdir("scratch");
        let mut s = DiskStore::open(&dir).unwrap();
        // Different page sizes back to back: the reused buffer must never
        // leak a longer previous page into a shorter read.
        let big = UnitData {
            unit: UnitId::new(0, 0),
            factor: Mat::filled(6, 3, 2.0),
            sub_factors: vec![(0, Mat::filled(4, 3, 3.0))],
        };
        let small = sample(UnitId::new(0, 1), 5.0);
        s.write(&big).unwrap();
        s.write(&small).unwrap();
        for _ in 0..3 {
            assert_eq!(s.read(UnitId::new(0, 0)).unwrap(), big);
            assert_eq!(s.read(UnitId::new(0, 1)).unwrap(), small);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unit_data_payload_bytes() {
        let u = sample(UnitId::new(0, 0), 1.0);
        // factor 2x2 + one 1x1 sub-factor = 5 doubles.
        assert_eq!(u.payload_bytes(), 40);
        assert!(u.sub_factor(1).is_some());
        assert!(u.sub_factor(2).is_none());
    }

    #[test]
    fn mmap_reads_match_buffered_reads_bitwise() {
        let dir = tmpdir("mmap_equiv");
        let units: Vec<UnitId> = (0..4).map(|p| UnitId::new(0, p)).collect();
        {
            let mut s = DiskStore::open_with(&dir, false).unwrap();
            for (i, &u) in units.iter().enumerate() {
                s.write(&sample(u, i as f64)).unwrap();
            }
        }
        let mut buffered = DiskStore::open_with(&dir, false).unwrap();
        let mut mapped = DiskStore::open_with(&dir, true).unwrap();
        assert!(mapped.mmap_enabled() && !buffered.mmap_enabled());
        for &u in &units {
            assert_eq!(buffered.read(u).unwrap(), mapped.read(u).unwrap());
        }
        assert_eq!(buffered.bytes_read(), mapped.bytes_read());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_reprimes_the_handle_cache_after_write_back() {
        let dir = tmpdir("warm");
        let mut s = DiskStore::open_with(&dir, true).unwrap();
        let units: Vec<UnitId> = (0..3).map(|p| UnitId::new(0, p)).collect();
        for (i, &u) in units.iter().enumerate() {
            s.write(&sample(u, i as f64)).unwrap();
        }
        // A write retires the cached handle, so the cache starts cold.
        assert_eq!(s.cache.len(), 0);
        s.warm(&units);
        assert_eq!(
            s.cache.len(),
            units.len(),
            "warm primes one handle per page"
        );
        // Warmed handles serve the latest committed data, unchanged.
        for (i, &u) in units.iter().enumerate() {
            assert_eq!(s.read(u).unwrap(), sample(u, i as f64));
        }
        // Warming a missing unit is a swallowed no-op, and warming with
        // mmap off never populates the cache.
        s.warm(&[UnitId::new(5, 5)]);
        assert_eq!(s.cache.len(), units.len());
        s.set_mmap(false);
        s.warm(&units);
        assert_eq!(s.cache.len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mmap_store_sees_latest_committed_page_after_overwrite() {
        // The FD cache keys validity on the inode: an overwrite commits a
        // fresh inode (write-then-rename), so a cached map must never
        // serve the old page.
        let dir = tmpdir("mmap_overwrite");
        let mut s = DiskStore::open_with(&dir, true).unwrap();
        let u = UnitId::new(0, 0);
        s.write(&sample(u, 1.0)).unwrap();
        assert_eq!(s.read(u).unwrap(), sample(u, 1.0)); // caches the map
        s.write(&sample(u, 9.0)).unwrap();
        assert_eq!(s.read(u).unwrap(), sample(u, 9.0));
        let mut r = s.prefetch_reader().unwrap();
        assert_eq!(r.read(u).unwrap(), sample(u, 9.0));
        s.write(&sample(u, 11.0)).unwrap();
        assert_eq!(r.read(u).unwrap(), sample(u, 11.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    // Mapping is implemented on Unix only; elsewhere read_slab degrades
    // to owned reads, which the other tests cover.
    #[cfg(unix)]
    #[test]
    fn read_slab_borrows_only_in_mmap_mode() {
        let dir = tmpdir("slab");
        let u = UnitId::new(1, 2);
        {
            let mut s = DiskStore::open_with(&dir, false).unwrap();
            s.write(&sample(u, 4.0)).unwrap();
            assert!(matches!(s.read_slab(u), Ok(PageRead::Owned(d)) if d == sample(u, 4.0)));
        }
        let mut s = DiskStore::open_with(&dir, true).unwrap();
        match s.read_slab(u).unwrap() {
            PageRead::Borrowed(page) => {
                let d = codec::decode(page).unwrap();
                assert_eq!(d, sample(u, 4.0));
            }
            PageRead::Owned(_) => panic!("mmap store must hand out borrowed slabs"),
        }
        // Borrowed reads do not self-account; the caller reports them.
        assert_eq!(s.bytes_read(), 0);
        s.note_borrowed_read(u, sample(u, 4.0).payload_bytes() as u64);
        assert_eq!(s.bytes_read(), sample(u, 4.0).payload_bytes() as u64);
        // Missing units surface NotFound, not a silent fallback.
        assert!(matches!(
            s.read_slab(UnitId::new(9, 9)),
            Err(StorageError::NotFound(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_slab_honours_fault_injection() {
        let dir = tmpdir("slab_fault");
        let mut s = DiskStore::open_with(&dir, true).unwrap();
        let u = UnitId::new(0, 0);
        s.write(&sample(u, 1.0)).unwrap();
        s.inject_read_failures(1);
        assert!(matches!(s.read_slab(u), Err(StorageError::Injected)));
        assert!(s.read_slab(u).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fd_cache_is_bounded_and_validates_inodes() {
        let dir = tmpdir("fdcache");
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        let units: Vec<UnitId> = (0..5).map(|p| UnitId::new(0, p)).collect();
        for (i, &u) in units.iter().enumerate() {
            s.write(&sample(u, i as f64)).unwrap();
        }
        let mut cache = FdCache::new(2);
        let mut scratch = Vec::new();
        for (i, &u) in units.iter().enumerate() {
            let d = read_cached(&mut cache, &dir, u, false, &mut scratch).unwrap();
            assert_eq!(d, sample(u, i as f64));
            assert!(cache.len() <= 2, "cache grew past its bound");
        }
        // Overwrite while cached: the inode check forces a reopen.
        let last = units[4];
        s.write(&sample(last, 99.0)).unwrap();
        let d = read_cached(&mut cache, &dir, last, false, &mut scratch).unwrap();
        assert_eq!(d, sample(last, 99.0));
        // Deleting the file surfaces NotFound and drops the entry.
        fs::remove_file(s.unit_path(last)).unwrap();
        assert!(matches!(
            read_cached(&mut cache, &dir, last, false, &mut scratch),
            Err(StorageError::NotFound(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `sample(unit, seed)` with its factor replaced by `v` everywhere —
    /// what the store must serve after `write_factor` of that value.
    fn with_factor(unit: UnitId, seed: f64, v: f64) -> UnitData {
        let mut data = sample(unit, seed);
        data.factor.as_mut_slice().fill(v);
        data
    }

    /// Flips one byte in the middle of slot `slot` of `unit`'s factor file.
    fn corrupt_slot(s: &DiskStore, unit: UnitId, slot: usize) {
        let path = factor::factor_path_in(&s.dir, unit);
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len() / 2;
        bytes[slot * len + len / 2] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn write_factor_persists_the_factor_and_leaves_the_page_alone() {
        let dir = tmpdir("factor_roundtrip");
        let u = UnitId::new(1, 2);
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        s.write(&sample(u, 3.0)).unwrap();
        let page = fs::read(s.unit_path(u)).unwrap();
        let written_before = s.bytes_written();
        for v in [10.0, 11.0, 12.0] {
            let bytes = s.write_factor(&with_factor(u, 3.0, v)).unwrap();
            assert_eq!(bytes, 4 * 8, "payload of the 2×2 factor alone");
            assert_eq!(s.read(u).unwrap(), with_factor(u, 3.0, v));
        }
        assert_eq!(s.bytes_written(), written_before + 3 * 32);
        // The page is what `write` left: still a whole, decodable unit.
        assert_eq!(fs::read(s.unit_path(u)).unwrap(), page);
        assert_eq!(codec::decode(&page).unwrap(), sample(u, 3.0));
        // A second instance (either read path) and the prefetch reader
        // serve the newest factor too, and writes resume where they were.
        drop(s);
        for mmap in [false, true] {
            let mut again = DiskStore::open_with(&dir, mmap).unwrap();
            assert_eq!(again.read(u).unwrap(), with_factor(u, 3.0, 12.0));
            let mut reader = again.prefetch_reader().unwrap();
            assert_eq!(reader.read(u).unwrap(), with_factor(u, 3.0, 12.0));
        }
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        s.write_factor(&with_factor(u, 3.0, 13.0)).unwrap();
        assert_eq!(s.read(u).unwrap(), with_factor(u, 3.0, 13.0));
        // …into the older slot (0: the four writes so far went 0+1, 0, 1):
        // losing the newest serves 12, not 11.
        corrupt_slot(&s, u, 0);
        assert_eq!(s.read(u).unwrap(), with_factor(u, 3.0, 12.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_newest_slot_serves_the_previous_version() {
        let dir = tmpdir("slot_fallback");
        let u = UnitId::new(0, 0);
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        s.write(&sample(u, 1.0)).unwrap();
        // The first write creates the file (slot 0) and fills slot 1; the
        // next two go to slot 0, then slot 1.
        for v in [20.0, 21.0, 22.0] {
            s.write_factor(&with_factor(u, 1.0, v)).unwrap();
        }
        corrupt_slot(&s, u, 1);
        assert_eq!(s.read(u).unwrap(), with_factor(u, 1.0, 21.0));
        // The next write replaces the damaged slot, not the good one.
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        s.write_factor(&with_factor(u, 1.0, 23.0)).unwrap();
        assert_eq!(s.read(u).unwrap(), with_factor(u, 1.0, 23.0));
        corrupt_slot(&s, u, 1);
        assert_eq!(s.read(u).unwrap(), with_factor(u, 1.0, 21.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_factor_file_without_a_valid_slot_is_corrupt_never_stale() {
        let dir = tmpdir("slot_corrupt");
        let (a, b) = (UnitId::new(0, 0), UnitId::new(0, 1));
        for mmap in [false, true] {
            let _ = fs::remove_dir_all(&dir);
            let mut s = DiskStore::open_with(&dir, mmap).unwrap();
            for u in [a, b] {
                s.write(&sample(u, 1.0)).unwrap();
                s.write_factor(&with_factor(u, 1.0, 30.0)).unwrap();
                s.write_factor(&with_factor(u, 1.0, 31.0)).unwrap();
            }
            let path = factor::factor_path_in(&s.dir, a);
            let intact = fs::read(&path).unwrap();
            let is_corrupt = |s: &mut DiskStore| {
                let mut reader = s.prefetch_reader().unwrap();
                matches!(s.read(a), Err(StorageError::Corrupt { .. }))
                    && matches!(s.read_slab(a), Err(StorageError::Corrupt { .. }))
                    && matches!(reader.read(a), Err(StorageError::Corrupt { .. }))
            };

            // Both slots damaged: the base page's factor must not surface.
            corrupt_slot(&s, a, 0);
            corrupt_slot(&s, a, 1);
            assert!(is_corrupt(&mut s), "both slots damaged (mmap {mmap})");
            // Truncated anywhere, or grown.
            for len in [0, 1, intact.len() / 2, intact.len() - 1] {
                fs::write(&path, &intact[..len]).unwrap();
                assert!(is_corrupt(&mut s), "truncated to {len} (mmap {mmap})");
            }
            fs::write(&path, [&intact[..], &[0u8; 8]].concat()).unwrap();
            assert!(is_corrupt(&mut s), "trailing bytes (mmap {mmap})");
            // Another unit's (valid) factor file under this unit's name.
            fs::copy(factor::factor_path_in(&s.dir, b), &path).unwrap();
            assert!(is_corrupt(&mut s), "mislabelled (mmap {mmap})");
            // The neighbour is unaffected, and a rewrite of the whole
            // unit heals it.
            assert_eq!(s.read(b).unwrap(), with_factor(b, 1.0, 31.0));
            s.write(&sample(a, 5.0)).unwrap();
            assert_eq!(s.read(a).unwrap(), sample(a, 5.0));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_whole_unit_write_drops_the_factor_file() {
        let dir = tmpdir("factor_invalidate");
        let u = UnitId::new(0, 3);
        {
            let mut s = DiskStore::open_with(&dir, true).unwrap();
            s.write(&sample(u, 1.0)).unwrap();
            s.write_factor(&with_factor(u, 1.0, 40.0)).unwrap();
            assert!(factor::factor_path_in(&s.dir, u).exists());
        }
        // A later run over the same directory (Phase 1 again) rewrites the
        // unit: the old run's factor must not be overlaid on the new page,
        // in this instance or a reader's.
        let mut s = DiskStore::open_with(&dir, true).unwrap();
        let mut reader = s.prefetch_reader().unwrap();
        assert_eq!(reader.read(u).unwrap(), with_factor(u, 1.0, 40.0));
        s.write(&sample(u, 2.0)).unwrap();
        assert!(!factor::factor_path_in(&s.dir, u).exists());
        assert_eq!(s.read(u).unwrap(), sample(u, 2.0));
        assert_eq!(reader.read(u).unwrap(), sample(u, 2.0));
        // And the cached handle went with it: the next factor write starts
        // a fresh file instead of writing into the unlinked one.
        s.write_factor(&with_factor(u, 2.0, 41.0)).unwrap();
        assert_eq!(s.read(u).unwrap(), with_factor(u, 2.0, 41.0));
        assert_eq!(reader.read(u).unwrap(), with_factor(u, 2.0, 41.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn factor_write_backs_after_the_first_touch_no_directory_entry() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmpdir("factor_in_place");
        let u = UnitId::new(2, 1);
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        s.write(&sample(u, 1.0)).unwrap();
        s.write_factor(&with_factor(u, 1.0, 50.0)).unwrap();
        let path = factor::factor_path_in(&s.dir, u);
        let listing = |dir: &Path| {
            let mut names: Vec<_> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let (ino, len, names) = (
            fs::metadata(&path).unwrap().ino(),
            fs::metadata(&path).unwrap().len(),
            listing(&dir),
        );
        for v in 0..9 {
            s.write_factor(&with_factor(u, 1.0, 51.0 + f64::from(v)))
                .unwrap();
        }
        // Same inode, same length, same directory listing: nine positioned
        // writes, no create / rename / unlink.
        assert_eq!(fs::metadata(&path).unwrap().ino(), ino);
        assert_eq!(fs::metadata(&path).unwrap().len(), len);
        assert_eq!(listing(&dir), names);
        assert_eq!(s.read(u).unwrap(), with_factor(u, 1.0, 59.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn factor_handles_are_bounded_and_writes_honour_fault_injection() {
        let dir = tmpdir("factor_bound");
        let mut s = DiskStore::open_with(&dir, false).unwrap();
        // A 3 × 64 grid's worth of units must not pin 192 descriptors.
        let units: Vec<UnitId> = (0..3)
            .flat_map(|m| (0..64).map(move |p| UnitId::new(m, p)))
            .collect();
        for &u in &units {
            s.write(&sample(u, 1.0)).unwrap();
        }
        for round in 0..2 {
            for (i, &u) in units.iter().enumerate() {
                s.write_factor(&with_factor(u, 1.0, (round * 1000 + i) as f64))
                    .unwrap();
                assert!(s.factors.len() <= FdCache::DEFAULT_CAP);
            }
        }
        // A handle that was evicted and re-opened still extends its file.
        for (i, &u) in units.iter().enumerate() {
            assert_eq!(s.read(u).unwrap(), with_factor(u, 1.0, (1000 + i) as f64));
        }
        s.inject_write_failures(1);
        assert!(matches!(
            s.write_factor(&with_factor(units[0], 1.0, -1.0)),
            Err(StorageError::Injected)
        ));
        assert_eq!(
            s.read(units[0]).unwrap(),
            with_factor(units[0], 1.0, 1000.0)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_rejects_mislabeled_page() {
        let dir = tmpdir("mislabel");
        let mut s = DiskStore::open(&dir).unwrap();
        let a = UnitId::new(0, 0);
        let b = UnitId::new(0, 1);
        s.write(&sample(a, 1.0)).unwrap();
        // Copy a's page over b's path: checksum is fine but identity wrong.
        fs::copy(s.unit_path(a), s.unit_path(b)).unwrap();
        assert!(matches!(s.read(b), Err(StorageError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
