//! The mutable half of an on-disk unit: the factor file.
//!
//! Phase 2 only ever assigns `A(i)(kᵢ)`; the unit page next to it (the
//! [`codec`] page Phase 1 wrote) stays untouched. A factor file holds the
//! current `A` in one of **two fixed-size slots**, each self-validating:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "2PCPFACT"
//! 8       4     slot format version (1)
//! 12      4     unit mode  (u32)
//! 16      4     unit part  (u32)
//! 20      4     factor rows
//! 24      4     factor cols
//! 28      4     zero
//! 32      8     sequence number (u64, starts at 1, +1 per write)
//! 40      8rc   factor data, row-major little-endian f64
//! 40+8rc  8     FNV-1a 64 of the slot's bytes before it
//! ```
//!
//! Slot `k` starts at `k × slot_len`; the file is exactly two slots long.
//! A slot is *valid* when magic, version, unit, shape and checksum all
//! agree with what the reader expects. **The reader serves the valid slot
//! with the highest sequence number; the writer overwrites the other
//! one** with a single positioned write. A write torn at any byte leaves
//! that slot failing its checksum, so the reader falls back to the slot
//! it did not touch — the previous version. That is the same old-or-new
//! guarantee write-then-rename gives, without a create, a rename or an
//! unlink per write-back. A file that exists but holds no valid slot is
//! [`StorageError::Corrupt`]: the base page's factor is never served in
//! its place.
//!
//! The file is created (the factor in slot 0, slot 1 zeroed) under a
//! temporary name and renamed into place, so a reader never sees a short
//! file or one without a valid slot; the write that needed the file then
//! lands in slot 1 like any other. See `docs/storage.md`.

use crate::codec::{self, fnv1a};
use crate::store::UnitData;
use crate::{Result, StorageError};
use bytes::BufMut;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use tpcp_linalg::Mat;
use tpcp_schedule::UnitId;

const MAGIC: &[u8; 8] = b"2PCPFACT";
const VERSION: u32 = 1;
const HEADER: usize = 40;

/// Byte length of one slot holding a `rows × cols` factor.
fn slot_len(rows: usize, cols: usize) -> Option<usize> {
    rows.checked_mul(cols)?
        .checked_mul(8)?
        .checked_add(HEADER + 8)
}

pub(crate) fn factor_path_in(dir: &Path, unit: UnitId) -> PathBuf {
    dir.join(format!("unit_m{}_p{}.2pcpa", unit.mode, unit.part))
}

/// Appends one slot to `buf`.
fn encode_slot(buf: &mut Vec<u8>, unit: UnitId, factor: &Mat, seq: u64) {
    let start = buf.len();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(u32::from(unit.mode));
    buf.put_u32_le(unit.part);
    buf.put_u32_le(factor.rows() as u32);
    buf.put_u32_le(factor.cols() as u32);
    buf.put_u32_le(0);
    buf.put_u64_le(seq);
    codec::put_f64_slab(buf, factor.as_slice());
    let checksum = fnv1a(&buf[start..]);
    buf.put_u64_le(checksum);
}

/// The sequence number and payload bytes of `slot` when it is a valid
/// slot for `unit` with factor shape `shape`; `None` otherwise.
fn decode_slot(slot: &[u8], unit: UnitId, shape: (usize, usize)) -> Option<(u64, &[u8])> {
    let (body, trailer) = slot.split_at(slot.len() - 8);
    let word = |i: usize| u32::from_le_bytes(body[i..i + 4].try_into().expect("4 bytes"));
    let labelled = &body[..8] == MAGIC
        && word(8) == VERSION
        && word(12) == u32::from(unit.mode)
        && word(16) == unit.part
        && word(20) as usize == shape.0
        && word(24) as usize == shape.1;
    if !labelled || u64::from_le_bytes(trailer.try_into().expect("8 bytes")) != fnv1a(body) {
        return None;
    }
    let seq = u64::from_le_bytes(body[32..HEADER].try_into().expect("8 bytes"));
    Some((seq, &body[HEADER..]))
}

/// The newest valid slot of a whole factor file: `(slot index, sequence,
/// payload bytes)`.
///
/// # Errors
/// [`StorageError::Corrupt`] when the file is not exactly two slots of
/// the expected shape, or neither slot validates.
fn newest_slot(file: &[u8], unit: UnitId, shape: (usize, usize)) -> Result<(usize, u64, &[u8])> {
    let corrupt = |why: &str| StorageError::Corrupt {
        reason: format!("factor file of {unit}: {why}"),
    };
    let len = slot_len(shape.0, shape.1).ok_or_else(|| corrupt("slot size overflow"))?;
    if file.len() != 2 * len {
        return Err(corrupt(&format!(
            "{} bytes, expected two {len}-byte slots",
            file.len()
        )));
    }
    (0..2)
        .filter_map(|k| {
            decode_slot(&file[k * len..(k + 1) * len], unit, shape)
                .map(|(seq, payload)| (k, seq, payload))
        })
        .max_by_key(|&(_, seq, _)| seq)
        .ok_or_else(|| corrupt("no valid slot"))
}

/// Replaces `data.factor` with the newest version in the unit's factor
/// file under `dir`, if there is one — the single place a page read off
/// disk becomes the unit of record (`DiskStore` reads, mmap or not, and
/// its prefetch reader all come through here). `scratch` is the file
/// buffer.
///
/// # Errors
/// I/O failures; [`StorageError::Corrupt`] per [`newest_slot`].
pub(crate) fn overlay(dir: &Path, data: &mut UnitData, scratch: &mut Vec<u8>) -> Result<()> {
    let mut file = match File::open(factor_path_in(dir, data.unit)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    scratch.clear();
    file.read_to_end(scratch)?;
    let (_, _, payload) = newest_slot(scratch, data.unit, data.factor.shape())?;
    codec::copy_f64_slab(payload, data.factor.as_mut_slice());
    Ok(())
}

fn write_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(buf)
    }
}

/// An open factor file and where its next write goes.
struct Handle {
    file: File,
    /// The slot the next write overwrites (the older or invalid one).
    slot: usize,
    /// The sequence number the next write carries.
    seq: u64,
    last_used: u64,
}

/// The write side: a bounded cache of open factor files, owned by the
/// `DiskStore` that is the directory's only writer (so a cached handle
/// can only go stale through [`FactorFiles::invalidate`]).
pub(crate) struct FactorFiles {
    cap: usize,
    tick: u64,
    handles: HashMap<UnitId, Handle>,
    /// Slot (or, on creation, whole-file) encode buffer.
    buf: Vec<u8>,
}

impl FactorFiles {
    pub fn new(cap: usize) -> Self {
        FactorFiles {
            cap: cap.max(1),
            tick: 0,
            handles: HashMap::new(),
            buf: Vec::new(),
        }
    }

    /// Persists `factor` as the newest version of `unit`'s factor: one
    /// positioned write into the older slot of the cached handle. Only a
    /// unit without a (usable) factor file pays a create + rename first,
    /// once.
    pub fn write(&mut self, dir: &Path, unit: UnitId, factor: &Mat) -> Result<()> {
        self.tick += 1;
        if !self.handles.contains_key(&unit) {
            let path = factor_path_in(dir, unit);
            let handle = match self.open_existing(&path, unit, factor.shape())? {
                Some(handle) => handle,
                None => self.create(&path, unit, factor)?,
            };
            if self.handles.len() >= self.cap {
                self.evict_lru();
            }
            self.handles.insert(unit, handle);
        }
        let handle = self.handles.get_mut(&unit).expect("present: just checked");
        handle.last_used = self.tick;
        self.buf.clear();
        encode_slot(&mut self.buf, unit, factor, handle.seq);
        write_at(
            &handle.file,
            &self.buf,
            (handle.slot * self.buf.len()) as u64,
        )?;
        handle.slot ^= 1;
        handle.seq += 1;
        Ok(())
    }

    /// Opens the factor file at `path` for in-place writes; `None` when
    /// there is none, or none a write could extend (wrong size, no valid
    /// slot) — the caller then replaces it wholesale.
    fn open_existing(
        &mut self,
        path: &Path,
        unit: UnitId,
        shape: (usize, usize),
    ) -> Result<Option<Handle>> {
        let mut file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        self.buf.clear();
        file.read_to_end(&mut self.buf)?;
        Ok(newest_slot(&self.buf, unit, shape)
            .ok()
            .map(|(slot, seq, _)| Handle {
                file,
                slot: slot ^ 1,
                seq: seq + 1,
                last_used: self.tick,
            }))
    }

    /// Writes a fresh two-slot file (slot 0 = `factor` at sequence 1,
    /// slot 1 zeroed, hence invalid) and renames it into place, so a
    /// reader never sees a file without a valid slot; the caller's regular
    /// write then fills slot 1.
    fn create(&mut self, path: &Path, unit: UnitId, factor: &Mat) -> Result<Handle> {
        self.buf.clear();
        encode_slot(&mut self.buf, unit, factor, 1);
        self.buf.resize(2 * self.buf.len(), 0);
        let tmp = path.with_extension("2pcpa.tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&self.buf)?;
        fs::rename(&tmp, path)?;
        Ok(Handle {
            file,
            slot: 1,
            seq: 2,
            last_used: self.tick,
        })
    }

    /// Forgets and removes `unit`'s factor file: the base page is about
    /// to be rewritten and carries the factor of record itself.
    pub fn invalidate(&mut self, dir: &Path, unit: UnitId) -> Result<()> {
        self.handles.remove(&unit);
        match fs::remove_file(factor_path_in(dir, unit)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    fn evict_lru(&mut self) {
        if let Some(&victim) = self
            .handles
            .iter()
            .min_by_key(|(_, h)| h.last_used)
            .map(|(u, _)| u)
        {
            self.handles.remove(&victim);
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.handles.len()
    }
}
