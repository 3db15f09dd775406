//! The on-disk page format for data-access units.
//!
//! An explicit, versioned, checksummed binary layout (little-endian).
//! Format **v2** (written by [`encode`]) separates the page into a fixed
//! descriptor header and one contiguous, 8-byte-aligned `f64` slab, so
//! encode and decode are bulk byte copies instead of per-element loops —
//! the codec half of the zero-copy read path (the other half is the
//! mmap-backed stores handing [`decode`] a borrowed page view):
//!
//! ```text
//! offset    size  field
//! 0         8     magic  "2PCPUNIT"
//! 8         4     format version (2)
//! 12        4     unit mode  (u32)
//! 16        4     unit part  (u32)
//! 20        4     factor rows
//! 24        4     factor cols
//! 28        4     number of sub-factors (n)
//! 32        16n   sub-factor descriptors:
//!                   block linear id (u64) , rows (u32) , cols (u32)
//! 32+16n    8d    f64 slab: factor data then each sub-factor's data,
//!                 row-major little-endian (d = total doubles)
//! trailer   8     FNV-1a 64 checksum of everything before it
//! ```
//!
//! The slab offset `32 + 16n` is a multiple of 8, and [`DiskStore`] pages
//! start at offset 0 of their file, so the slab is also 8-byte aligned *in
//! the file* — hence 8-byte aligned in a page-aligned memory map.
//!
//! Format **v1** interleaved per-matrix headers with payload (`rows, cols,
//! data` per matrix) and was encoded element by element; [`decode`]
//! dispatches on the version field, so v1 pages written by earlier builds
//! remain readable. [`encode_v1`] is retained for compatibility tests and
//! ablation benches.
//!
//! Hand-rolled (rather than serde) to keep the storage engine transparent:
//! page sizes are exactly the paper's `8 × #doubles` accounting plus a
//! fixed small header, and corruption is detected before any payload is
//! trusted.
//!
//! [`DiskStore`]: crate::DiskStore

use crate::store::UnitData;
use crate::{Result, StorageError};
use bytes::{Buf, BufMut, BytesMut};
use tpcp_linalg::Mat;
use tpcp_schedule::UnitId;

/// Page magic bytes.
pub const MAGIC: &[u8; 8] = b"2PCPUNIT";
/// Current format version (contiguous-slab layout).
pub const VERSION: u32 = 2;
/// The interleaved per-matrix layout of earlier builds (still readable).
pub const VERSION_V1: u32 = 1;

/// Byte length of the fixed v2 header (everything before the sub-factor
/// descriptors).
const V2_FIXED_HEADER: usize = 32;
/// Byte length of one v2 sub-factor descriptor.
const V2_SUB_DESCRIPTOR: usize = 16;

/// Offset of the v2 `f64` slab within a page holding `n` sub-factors.
/// Always a multiple of 8, so slabs are 8-byte aligned whenever the page
/// itself is.
pub fn v2_slab_offset(sub_factors: usize) -> usize {
    V2_FIXED_HEADER + V2_SUB_DESCRIPTOR * sub_factors
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash (stable, dependency-free integrity check).
///
/// The chain `hash = (hash ^ byte) * prime` is inherently sequential, but
/// the loop is unrolled 8 bytes per iteration: one bounds check and one
/// branch per 8 bytes instead of per byte, which roughly halves the cost
/// of checksumming a page. Bit-identical to the byte-at-a-time reference
/// implementation (pinned by a proptest in `tests/prop.rs` and the known
/// vectors below).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = FNV_OFFSET;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        hash = (hash ^ u64::from(c[0])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[1])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[2])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[3])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[4])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[5])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[6])).wrapping_mul(FNV_PRIME);
        hash = (hash ^ u64::from(c[7])).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Appends `vals` to `buf` as a little-endian `f64` slab in one bulk copy
/// (no per-element loop on little-endian targets).
pub(crate) fn put_f64_slab(buf: &mut Vec<u8>, vals: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `f64` has no padding or invalid bit patterns, `u8` has
        // alignment 1, and on a little-endian target the in-memory bytes
        // of an f64 slice already are the wire format.
        let bytes = unsafe {
            std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a little-endian `f64` slab into an owned vector in one bulk
/// copy — on the mmap read path this is the *single* copy between the page
/// cache and the resident [`Mat`]s.
fn get_f64_slab(bytes: &[u8]) -> Vec<f64> {
    debug_assert_eq!(bytes.len() % 8, 0, "slab length must be 8-divisible");
    let n = bytes.len() / 8;
    #[cfg(target_endian = "little")]
    {
        let mut out = Vec::<f64>::with_capacity(n);
        // SAFETY: source and destination do not overlap (fresh
        // allocation), the copy fills all `n * 8` bytes of the reserved
        // capacity with valid f64 bit patterns *before* the length is
        // set (skipping the zero-fill a `vec![0.0; n]` would pay only to
        // be overwritten), and byte-wise copy tolerates an unaligned
        // source.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            out.set_len(n);
        }
        out
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut out = vec![0.0f64; n];
        for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        }
        out
    }
}

/// Decodes a little-endian `f64` slab into `out` (same length) in one
/// bulk copy.
pub(crate) fn copy_f64_slab(bytes: &[u8], out: &mut [f64]) {
    assert_eq!(bytes.len(), out.len() * 8, "slab length mismatch");
    #[cfg(target_endian = "little")]
    // SAFETY: the assert above makes both ranges `bytes.len()` long, they
    // cannot overlap (`out` is exclusively borrowed), every bit pattern
    // is a valid f64, and a byte-wise copy tolerates an unaligned source.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    #[cfg(not(target_endian = "little"))]
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
}

fn corrupt(reason: &str) -> StorageError {
    StorageError::Corrupt {
        reason: reason.to_string(),
    }
}

/// Serialises a unit into its page representation (format v2).
pub fn encode(data: &UnitData) -> Vec<u8> {
    let slab_off = v2_slab_offset(data.sub_factors.len());
    let mut buf = Vec::with_capacity(slab_off + data.payload_bytes() + 8);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(u32::from(data.unit.mode));
    buf.put_u32_le(data.unit.part);
    buf.put_u32_le(data.factor.rows() as u32);
    buf.put_u32_le(data.factor.cols() as u32);
    buf.put_u32_le(data.sub_factors.len() as u32);
    for (block, m) in &data.sub_factors {
        buf.put_u64_le(*block);
        buf.put_u32_le(m.rows() as u32);
        buf.put_u32_le(m.cols() as u32);
    }
    debug_assert_eq!(buf.len(), slab_off, "descriptor section length");
    put_f64_slab(&mut buf, data.factor.as_slice());
    for (_, m) in &data.sub_factors {
        put_f64_slab(&mut buf, m.as_slice());
    }
    let checksum = fnv1a(&buf);
    buf.put_u64_le(checksum);
    buf
}

/// Serialises a unit in the legacy v1 layout (interleaved per-matrix
/// headers, per-element encode). Kept for the v1-compatibility tests and
/// the `zero_copy/*` codec ablation; new pages are always written as v2.
pub fn encode_v1(data: &UnitData) -> Vec<u8> {
    fn put_mat(buf: &mut BytesMut, m: &Mat) {
        buf.put_u32_le(m.rows() as u32);
        buf.put_u32_le(m.cols() as u32);
        for &v in m.as_slice() {
            buf.put_f64_le(v);
        }
    }
    let mut buf = BytesMut::with_capacity(data.payload_bytes() + 64);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_V1);
    buf.put_u32_le(u32::from(data.unit.mode));
    buf.put_u32_le(data.unit.part);
    put_mat(&mut buf, &data.factor);
    buf.put_u32_le(data.sub_factors.len() as u32);
    for (block, m) in &data.sub_factors {
        buf.put_u64_le(*block);
        put_mat(&mut buf, m);
    }
    let checksum = fnv1a(&buf);
    buf.put_u64_le(checksum);
    buf.to_vec()
}

/// Deserialises a page, verifying magic, version and checksum. Accepts
/// both the current v2 layout and legacy v1 pages.
///
/// The input may be a borrowed view straight out of a memory map: nothing
/// is copied until the payload slab is materialised into [`Mat`]s.
///
/// # Errors
/// [`StorageError::Corrupt`] on any structural or integrity failure.
pub fn decode(page: &[u8]) -> Result<UnitData> {
    if page.len() < MAGIC.len() + 4 + 8 + 8 {
        return Err(corrupt("page too small"));
    }
    let (body, trailer) = page.split_at(page.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(corrupt(&format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    if &body[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    match version {
        VERSION => decode_v2_body(&body[12..]),
        VERSION_V1 => decode_v1_body(&body[12..]),
        other => Err(corrupt(&format!("unsupported version {other}"))),
    }
}

/// Parses a v2 body (everything after magic + version, before the
/// trailer): fixed header, descriptor table, then bulk slab reads.
fn decode_v2_body(body: &[u8]) -> Result<UnitData> {
    // Fixed header: mode, part, factor rows/cols, sub-factor count.
    if body.len() < V2_FIXED_HEADER - 12 {
        return Err(corrupt("truncated v2 header"));
    }
    let word = |i: usize| u32::from_le_bytes(body[i..i + 4].try_into().expect("4 bytes"));
    let mode = word(0);
    let part = word(4);
    let factor_rows = word(8) as usize;
    let factor_cols = word(12) as usize;
    let count = word(16) as usize;

    let desc_off: usize = 20; // relative to `body` (absolute 32)
    let desc_len = count
        .checked_mul(V2_SUB_DESCRIPTOR)
        .ok_or_else(|| corrupt("sub-factor count overflow"))?;
    let slab_off = desc_off
        .checked_add(desc_len)
        .ok_or_else(|| corrupt("descriptor table overflow"))?;
    if body.len() < slab_off {
        return Err(corrupt("truncated v2 descriptor table"));
    }

    let factor_n = factor_rows
        .checked_mul(factor_cols)
        .ok_or_else(|| corrupt("matrix size overflow"))?;
    let mut shapes = Vec::with_capacity(count);
    let mut total = factor_n;
    for i in 0..count {
        let d = &body[desc_off + i * V2_SUB_DESCRIPTOR..];
        let block = u64::from_le_bytes(d[..8].try_into().expect("8 bytes"));
        let rows = u32::from_le_bytes(d[8..12].try_into().expect("4 bytes")) as usize;
        let cols = u32::from_le_bytes(d[12..16].try_into().expect("4 bytes")) as usize;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("matrix size overflow"))?;
        total = total
            .checked_add(n)
            .ok_or_else(|| corrupt("slab size overflow"))?;
        shapes.push((block, rows, cols, n));
    }
    let slab_bytes = total
        .checked_mul(8)
        .ok_or_else(|| corrupt("slab size overflow"))?;
    if body.len() - slab_off != slab_bytes {
        return Err(corrupt("v2 slab length mismatch"));
    }

    let mut slab = &body[slab_off..];
    let mut take = |n: usize| {
        let (head, rest) = slab.split_at(n * 8);
        slab = rest;
        get_f64_slab(head)
    };
    let factor = Mat::from_vec(factor_rows, factor_cols, take(factor_n));
    let sub_factors = shapes
        .into_iter()
        .map(|(block, rows, cols, n)| (block, Mat::from_vec(rows, cols, take(n))))
        .collect();
    Ok(UnitData {
        unit: UnitId {
            mode: mode as u16,
            part,
        },
        factor,
        sub_factors,
    })
}

/// Parses a legacy v1 body (interleaved matrix headers, element-at-a-time
/// fields) — the exact reader shipped with format v1.
fn decode_v1_body(mut cur: &[u8]) -> Result<UnitData> {
    fn get_mat(buf: &mut &[u8]) -> Result<Mat> {
        if buf.remaining() < 8 {
            return Err(corrupt("truncated matrix header"));
        }
        let rows = buf.get_u32_le() as usize;
        let cols = buf.get_u32_le() as usize;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("matrix size overflow"))?;
        if buf.remaining() < n * 8 {
            return Err(corrupt("truncated matrix payload"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(buf.get_f64_le());
        }
        Ok(Mat::from_vec(rows, cols, data))
    }

    if cur.remaining() < 8 {
        return Err(corrupt("truncated unit id"));
    }
    let mode = cur.get_u32_le();
    let part = cur.get_u32_le();
    let factor = get_mat(&mut cur)?;
    if cur.remaining() < 4 {
        return Err(corrupt("truncated sub-factor count"));
    }
    let count = cur.get_u32_le() as usize;
    let mut sub_factors = Vec::with_capacity(count);
    for _ in 0..count {
        if cur.remaining() < 8 {
            return Err(corrupt("truncated block id"));
        }
        let block = cur.get_u64_le();
        sub_factors.push((block, get_mat(&mut cur)?));
    }
    if cur.has_remaining() {
        return Err(corrupt("trailing bytes after payload"));
    }
    Ok(UnitData {
        unit: UnitId {
            mode: mode as u16,
            part,
        },
        factor,
        sub_factors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_unit() -> UnitData {
        UnitData {
            unit: UnitId::new(1, 3),
            factor: Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
            sub_factors: vec![
                (0, Mat::from_rows(&[&[0.5, -1.0]])),
                (7, Mat::from_rows(&[&[9.0, 8.0], &[7.0, 6.0]])),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let unit = sample_unit();
        let page = encode(&unit);
        let back = decode(&page).unwrap();
        assert_eq!(back.unit, unit.unit);
        assert_eq!(back.factor, unit.factor);
        assert_eq!(back.sub_factors, unit.sub_factors);
    }

    #[test]
    fn roundtrip_empty_subfactors() {
        let unit = UnitData {
            unit: UnitId::new(0, 0),
            factor: Mat::zeros(0, 0),
            sub_factors: vec![],
        };
        let back = decode(&encode(&unit)).unwrap();
        assert_eq!(back.sub_factors.len(), 0);
        assert_eq!(back.factor.shape(), (0, 0));
    }

    #[test]
    fn v1_pages_still_decode() {
        // Back compatibility: a page written by the v1 encoder (the exact
        // format shipped before the slab layout) must decode under the
        // current reader, bit-identically.
        let unit = sample_unit();
        let page = encode_v1(&unit);
        assert_eq!(u32::from_le_bytes(page[8..12].try_into().unwrap()), 1);
        let back = decode(&page).unwrap();
        assert_eq!(back, unit);
    }

    #[test]
    fn v2_is_the_default_write_format() {
        let page = encode(&sample_unit());
        assert_eq!(u32::from_le_bytes(page[8..12].try_into().unwrap()), 2);
    }

    #[test]
    fn v2_slab_is_8_byte_aligned() {
        for n in 0..5 {
            assert_eq!(v2_slab_offset(n) % 8, 0, "slab offset for {n} subs");
        }
        // And the factor slab of a real page starts exactly there.
        let unit = sample_unit();
        let page = encode(&unit);
        let off = v2_slab_offset(unit.sub_factors.len());
        let first = f64::from_le_bytes(page[off..off + 8].try_into().unwrap());
        assert_eq!(first, 1.0);
    }

    #[test]
    fn detects_bit_flip_anywhere() {
        for page in [encode(&sample_unit()), encode_v1(&sample_unit())] {
            // Flip one byte in a handful of positions spanning header,
            // payload and trailer.
            for pos in [0, 9, 20, 40, page.len() / 2, page.len() - 1] {
                let mut bad = page.clone();
                bad[pos] ^= 0x40;
                assert!(decode(&bad).is_err(), "flip at {pos} was not detected");
            }
        }
    }

    #[test]
    fn detects_truncation() {
        for page in [encode(&sample_unit()), encode_v1(&sample_unit())] {
            for cut in [1, 8, 16, page.len() - 9, page.len() - 1] {
                assert!(decode(&page[..cut]).is_err(), "truncation to {cut}");
            }
        }
    }

    /// Re-checksummed structural corruption (the checksum is valid but the
    /// descriptors lie about the payload) must still be rejected.
    fn reseal(mut page: Vec<u8>) -> Vec<u8> {
        let body_len = page.len() - 8;
        let sum = fnv1a(&page[..body_len]);
        page[body_len..].copy_from_slice(&sum.to_le_bytes());
        page
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let unit = sample_unit();
        let mut page = encode(&unit);
        page[0] = b'X';
        let err = decode(&reseal(page)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));

        let mut page2 = encode(&unit);
        page2[8] = 99; // version
        assert!(decode(&reseal(page2)).is_err());
    }

    #[test]
    fn rejects_resealed_descriptor_lies() {
        let unit = sample_unit();
        // Inflate the factor row count: slab length no longer matches.
        let mut page = encode(&unit);
        page[20..24].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode(&reseal(page)).is_err());
        // Inflate the sub-factor count: descriptor table runs past the end.
        let mut page = encode(&unit);
        page[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&reseal(page)).is_err());
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a test vectors (spanning the unrolled and the
        // remainder paths).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a(b"chongo was here!\n"), 0x46810940eff5f915);
    }

    #[test]
    fn fnv1a_matches_reference_across_chunk_boundaries() {
        fn reference(data: &[u8]) -> u64 {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in data {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash
        }
        for len in 0..40usize {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            assert_eq!(fnv1a(&data), reference(&data), "len {len}");
        }
    }

    #[test]
    fn page_size_matches_accounting() {
        let unit = sample_unit();
        let page = encode(&unit);
        // v2: fixed header 32 + 2 descriptors × 16 + 12 doubles + trailer 8.
        let expect = 32 + 2 * 16 + 12 * 8 + 8;
        assert_eq!(page.len(), expect);
        assert_eq!(
            page.len(),
            v2_slab_offset(unit.sub_factors.len()) + unit.payload_bytes() + 8
        );
        // v1: header 20 + factor hdr 8 + 6 doubles + count 4
        // + (8 + 8 + 2 doubles) + (8 + 8 + 4 doubles) + trailer 8
        let v1 = encode_v1(&unit);
        assert_eq!(v1.len(), 20 + 8 + 48 + 4 + (16 + 16) + (16 + 32) + 8);
    }

    #[test]
    fn v1_and_v2_decode_to_identical_units() {
        let unit = sample_unit();
        assert_eq!(
            decode(&encode(&unit)).unwrap(),
            decode(&encode_v1(&unit)).unwrap()
        );
    }
}
