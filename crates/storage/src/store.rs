//! Unit stores: the backing level the buffer pool swaps against.

use crate::factor::{self, FactorFiles};
use crate::prefetch::{PrefetchRead, PrefetchSource};
use crate::{codec, Result, StorageError};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use tpcp_linalg::Mat;
use tpcp_schedule::UnitId;

/// Result of [`UnitStore::read_slab`]. Nothing in the engine uses this;
/// it leaves with ROADMAP 1(b).
pub enum PageRead<'a> {
    /// A decoded unit.
    Owned(UnitData),
    /// A still-encoded page (no store in this crate returns one).
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

    /// Always `0`. Nothing in the engine calls it: it stays on the trait
    /// only because the pinned `e2e` benchmark package forwards it, and
    /// it goes with that package's re-pin (ROADMAP item 1(b)).
    fn shard_hint(&self, _unit: UnitId) -> usize {
        0
    }

    /// [`UnitStore::read`] wrapped in [`PageRead::Owned`]. Nothing in the
    /// engine uses this; it leaves with ROADMAP 1(b).
    ///
    /// # Errors
    /// Same failure modes as [`UnitStore::read`].
    fn read_slab(&mut self, unit: UnitId) -> Result<PageRead<'_>> {
        self.read(unit).map(PageRead::Owned)
    }

    /// A no-op. Nothing in the engine uses this; it leaves with ROADMAP
    /// 1(b).
    fn note_borrowed_read(&mut self, _unit: UnitId, _payload_bytes: u64) {}

    /// A no-op. Nothing in the engine uses this; it leaves with ROADMAP
    /// 1(b).
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

/// Disk-backed store: per unit, one checksummed page file — the whole
/// unit, committed by write-then-rename — and, once Phase 2 has written
/// the unit back, a two-slot factor file next to it holding the current
/// `A(i)(kᵢ)`, updated in place (`factor.rs`, `docs/storage.md`). A read
/// decodes the page and overlays the newest valid factor slot.
///
/// Both files are checksummed, so torn or corrupted files are detected
/// rather than silently consumed. The `inject_*_failures` knobs let
/// tests exercise error paths deterministically.
pub struct DiskStore {
    dir: PathBuf,
    bytes_written: u64,
    bytes_read: u64,
    inject_read_failures: u32,
    inject_write_failures: u32,
    /// Page buffer reused across `read()` calls (no per-fetch allocation).
    scratch: Vec<u8>,
    /// Open factor files, for in-place write-backs.
    factors: FactorFiles,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    /// I/O failure creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(DiskStore {
            dir: dir.as_ref().to_path_buf(),
            bytes_written: 0,
            bytes_read: 0,
            inject_read_failures: 0,
            inject_write_failures: 0,
            scratch: Vec::new(),
            factors: FactorFiles::new(),
        })
    }

    /// [`DiskStore::open`]; the flag is ignored. Nothing in the engine
    /// uses this; it leaves with ROADMAP 1(b).
    ///
    /// # Errors
    /// I/O failure creating the directory.
    pub fn open_with(dir: impl AsRef<Path>, _mmap: bool) -> Result<Self> {
        Self::open(dir)
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
        let data = read_unit_page(&self.dir, unit, &mut self.scratch)?;
        self.bytes_read += data.payload_bytes() as u64;
        Ok(data)
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

/// Reads `unit` of record from `dir`: decodes its page file, checks the
/// page is `unit`'s, and overlays the newest factor from the unit's
/// factor file, if one exists ([`factor::overlay`]). `scratch` is the
/// page buffer. This is the only way a unit leaves a [`DiskStore`]:
/// [`DiskStore::read`] and its prefetch reader both call it, so neither
/// can serve the base page's factor once a newer one was written.
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
    let mut data = codec::decode(scratch)?;
    if data.unit != unit {
        return Err(StorageError::Corrupt {
            reason: format!("page for {} found under path of {unit}", data.unit),
        });
    }
    factor::overlay(dir, &mut data, scratch)?;
    Ok(data)
}

/// A [`PrefetchRead`] handle onto a [`DiskStore`] directory: one file per
/// unit means the handle only needs the directory path, and opening the
/// page per read means it always observes the latest committed page
/// (writes are write-then-rename).
struct DiskReader {
    dir: PathBuf,
    scratch: Vec<u8>,
}

impl PrefetchRead for DiskReader {
    fn read(&mut self, unit: UnitId) -> Result<UnitData> {
        read_unit_page(&self.dir, unit, &mut self.scratch)
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
        let mut s = DiskStore::open(&dir).unwrap();
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
        // A second instance and the prefetch reader serve the newest
        // factor too, and writes resume where they were.
        drop(s);
        let mut again = DiskStore::open(&dir).unwrap();
        assert_eq!(again.read(u).unwrap(), with_factor(u, 3.0, 12.0));
        let mut reader = again.prefetch_reader().unwrap();
        assert_eq!(reader.read(u).unwrap(), with_factor(u, 3.0, 12.0));
        drop(again);
        let mut s = DiskStore::open(&dir).unwrap();
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
        let mut s = DiskStore::open(&dir).unwrap();
        s.write(&sample(u, 1.0)).unwrap();
        // The first write creates the file (slot 0) and fills slot 1; the
        // next two go to slot 0, then slot 1.
        for v in [20.0, 21.0, 22.0] {
            s.write_factor(&with_factor(u, 1.0, v)).unwrap();
        }
        corrupt_slot(&s, u, 1);
        assert_eq!(s.read(u).unwrap(), with_factor(u, 1.0, 21.0));
        // The next write replaces the damaged slot, not the good one.
        let mut s = DiskStore::open(&dir).unwrap();
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
        let mut s = DiskStore::open(&dir).unwrap();
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
                && matches!(reader.read(a), Err(StorageError::Corrupt { .. }))
        };

        // Both slots damaged: the base page's factor must not surface.
        corrupt_slot(&s, a, 0);
        corrupt_slot(&s, a, 1);
        assert!(is_corrupt(&mut s), "both slots damaged");
        // Truncated anywhere, or grown.
        for len in [0, 1, intact.len() / 2, intact.len() - 1] {
            fs::write(&path, &intact[..len]).unwrap();
            assert!(is_corrupt(&mut s), "truncated to {len}");
        }
        fs::write(&path, [&intact[..], &[0u8; 8]].concat()).unwrap();
        assert!(is_corrupt(&mut s), "trailing bytes");
        // Another unit's (valid) factor file under this unit's name.
        fs::copy(factor::factor_path_in(&s.dir, b), &path).unwrap();
        assert!(is_corrupt(&mut s), "mislabelled");
        // The neighbour is unaffected, and a rewrite of the whole unit
        // heals it.
        assert_eq!(s.read(b).unwrap(), with_factor(b, 1.0, 31.0));
        s.write(&sample(a, 5.0)).unwrap();
        assert_eq!(s.read(a).unwrap(), sample(a, 5.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_whole_unit_write_drops_the_factor_file() {
        let dir = tmpdir("factor_invalidate");
        let u = UnitId::new(0, 3);
        {
            let mut s = DiskStore::open(&dir).unwrap();
            s.write(&sample(u, 1.0)).unwrap();
            s.write_factor(&with_factor(u, 1.0, 40.0)).unwrap();
            assert!(factor::factor_path_in(&s.dir, u).exists());
        }
        // A later run over the same directory (Phase 1 again) rewrites the
        // unit: the old run's factor must not be overlaid on the new page,
        // in this instance or a reader's.
        let mut s = DiskStore::open(&dir).unwrap();
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
        let mut s = DiskStore::open(&dir).unwrap();
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
        let mut s = DiskStore::open(&dir).unwrap();
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
                assert!(s.factors.len() <= FactorFiles::CAP);
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
