//! Offline stand-in for the [`memmap2`](https://crates.io/crates/memmap2)
//! crate.
//!
//! The build environment has no registry access, so this crate provides the
//! read-only API subset the workspace uses — [`Mmap::map`] of a whole
//! [`std::fs::File`], `Deref<Target = [u8]>`, `Send + Sync` — implemented
//! directly over the `mmap(2)`/`munmap(2)` system calls via `extern "C"`
//! declarations on Unix. Its one caller is `twopcp::Model::load_shared`.
//! On non-Unix targets [`Mmap::map`] returns
//! [`std::io::ErrorKind::Unsupported`] and that caller falls back to an
//! owned decode, so the shim never needs a portable fallback
//! implementation.
//!
//! Divergences from the real crate (swap for the registry version when
//! network access is available; call sites are written against the API
//! intersection):
//!
//! * read-only maps only — no `MmapMut` or `flush`; the only advice kind
//!   is [`Mmap::advise_willneed`] (the real crate's
//!   `advise_range(Advice::WillNeed, ..)`);
//! * no `MmapOptions`: a map always covers the whole file;
//! * zero-length maps produce an empty slice without a system call
//!   (`mmap(2)` rejects `len == 0`; the real crate special-cases this the
//!   same way).

use std::fs::File;
use std::io;

/// A read-only memory map of an entire file.
///
/// The mapping is `MAP_SHARED`, so bytes written to the file through
/// ordinary `write(2)` calls after the map was created are visible through
/// it (the page cache is unified on every supported Unix). The mapping
/// keeps the underlying pages alive even if the file is later renamed over
/// or unlinked.
pub struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is read-only and owned (unmapped exactly once, on
// drop); sharing immutable views of it across threads is no different from
// sharing a `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` (in its entirety, read-only) into memory.
    ///
    /// # Safety
    ///
    /// The caller must ensure the mapped bytes are not mutated through the
    /// same file in ways the reader cannot tolerate while the map is live
    /// (this mirrors the real `memmap2` contract: the map aliases the
    /// file, so concurrent truncation can turn reads into `SIGBUS`).
    /// `.2pcpm` model files satisfy that by construction: `Model::save`
    /// writes a new file and renames it over the old path, so the inode
    /// under a live map is never written or truncated again.
    ///
    /// # Errors
    /// Metadata or `mmap(2)` failure, or [`io::ErrorKind::Unsupported`] on
    /// non-Unix targets.
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        if len == 0 {
            // mmap(2) rejects zero-length maps; an empty slice needs no
            // mapping at all.
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        sys::map(file, len)
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` points at a live mapping of exactly `len` bytes
        // (established by `sys::map`, released only in `drop`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Advises the kernel that `[offset, offset + len)` will be read soon
    /// (`madvise(MADV_WILLNEED)`), so the pages can be faulted in as one
    /// batched read-ahead instead of one major fault per 4 KiB touched by
    /// the decoder. Purely a scheduling hint: it moves page faults, never
    /// bytes, and is a no-op on non-Unix targets, on empty ranges, and on
    /// ranges outside the mapping. Failures are deliberately ignored —
    /// the subsequent reads just fault on demand as before.
    ///
    /// Divergence note: the real `memmap2` exposes this as
    /// `advise_range(Advice::WillNeed, ..)`; this shim keeps the one
    /// advice kind the workspace uses as a named method.
    pub fn advise_willneed(&self, offset: usize, len: usize) {
        if len == 0 || offset >= self.len {
            return;
        }
        let len = len.min(self.len - offset);
        // SAFETY: `ptr + offset` stays inside the live mapping (bounds
        // clamped above); madvise does not mutate or invalidate it.
        sys::advise_willneed(unsafe { self.ptr.add(offset) }, len);
    }

    /// `true` when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            sys::unmap(self.ptr, self.len);
        }
    }
}

#[cfg(unix)]
mod sys {
    use super::Mmap;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    // Values shared by every Unix this workspace targets (Linux, macOS,
    // the BSDs all define PROT_READ = 0x1 and MAP_SHARED = 0x1).
    const PROT_READ: i32 = 0x1;
    const MAP_SHARED: i32 = 0x1;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
    }

    /// `MADV_WILLNEED` is 3 on every Unix this workspace targets (Linux,
    /// macOS, the BSDs).
    const MADV_WILLNEED: i32 = 3;

    pub fn advise_willneed(ptr: *mut u8, len: usize) {
        // madvise requires a page-aligned start address; round down and
        // widen the length accordingly (advice on the extra head bytes of
        // the page is harmless — they were going to be faulted anyway).
        const PAGE: usize = 4096;
        let addr = ptr as usize;
        let aligned = addr & !(PAGE - 1);
        let widened = len + (addr - aligned);
        // SAFETY: the caller passes a sub-range of a live mapping; advice
        // never mutates memory, and errors are ignored by contract.
        unsafe {
            let _ = madvise(aligned as *mut core::ffi::c_void, widened, MADV_WILLNEED);
        }
    }

    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        // SAFETY: a fresh read-only shared mapping of an open descriptor;
        // the kernel validates every argument and reports failure as
        // MAP_FAILED, which is checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr.cast::<u8>(),
            len,
        })
    }

    pub fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: `ptr`/`len` describe exactly the region `map` created;
        // this is the sole unmap (Mmap is not Clone, drop runs once).
        unsafe {
            munmap(ptr.cast::<core::ffi::c_void>(), len);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use super::Mmap;
    use std::fs::File;
    use std::io;

    pub fn map(_file: &File, _len: usize) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memmap2 shim: mmap is only implemented on Unix",
        ))
    }

    pub fn unmap(_ptr: *mut u8, _len: usize) {}

    pub fn advise_willneed(_ptr: *mut u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("memmap2_shim_{name}_{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[cfg(unix)]
    #[test]
    fn maps_file_contents() {
        let path = tmp("contents", b"hello mapped world");
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&*map, b"hello mapped world");
        assert_eq!(map.len(), 18);
        assert!(!map.is_empty());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp("empty", b"");
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), &[] as &[u8]);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn shared_map_sees_appended_bytes_below_its_length() {
        // The map length is fixed at creation, but writes *within* that
        // length through the file descriptor are visible (MAP_SHARED):
        // exercised here by mapping a pre-sized file and writing after.
        let path = tmp("coherent", &[0u8; 32]);
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(map[..4], [0, 0, 0, 0]);
        use std::io::Seek;
        let mut w = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        w.seek(std::io::SeekFrom::Start(0)).unwrap();
        w.write_all(&[7, 8, 9, 10]).unwrap();
        w.flush().unwrap();
        assert_eq!(map[..4], [7, 8, 9, 10]);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn advise_willneed_is_harmless_everywhere() {
        let path = tmp("advise", &[7u8; 10_000]);
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        // In-range, unaligned, clamped-past-end, empty and out-of-range
        // advice must all be no-fail no-ops semantically: the bytes read
        // back unchanged.
        map.advise_willneed(0, map.len());
        map.advise_willneed(4097, 100);
        map.advise_willneed(9_000, 5_000);
        map.advise_willneed(0, 0);
        map.advise_willneed(1 << 30, 8);
        assert!(map.iter().all(|&b| b == 7));
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn map_survives_rename_over_the_file() {
        // A mapping pins the old inode's pages even after the path is
        // renamed over — what lets a model be saved over a mapped file.
        let path = tmp("rename_a", b"old old old old!");
        let other = tmp("rename_b", b"new new new new!");
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        std::fs::rename(&other, &path).unwrap();
        assert_eq!(&*map, b"old old old old!");
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }
}
