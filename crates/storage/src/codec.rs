//! The on-disk page format for data-access units.
//!
//! An explicit, versioned, checksummed binary layout (little-endian): a
//! fixed descriptor header and one contiguous, 8-byte-aligned `f64` slab,
//! so encode and decode are straight slab copies instead of per-matrix
//! parsing:
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
//! the file*.
//!
//! Version 2 is the only format: [`decode`] rejects a page of any other
//! version as [`StorageError::Corrupt`]. A unit page never outlives the
//! run that wrote it, so no reader for an older layout is kept.
//!
//! Hand-rolled (rather than serde) to keep the storage engine transparent:
//! page sizes are exactly the paper's `8 × #doubles` accounting plus a
//! fixed small header, and corruption is detected before any payload is
//! trusted.
//!
//! [`DiskStore`]: crate::DiskStore

use crate::store::UnitData;
use crate::{Result, StorageError};
use tpcp_linalg::Mat;
use tpcp_schedule::UnitId;

/// Page magic bytes.
pub const MAGIC: &[u8; 8] = b"2PCPUNIT";
/// The format version; a page carrying any other is rejected.
pub const VERSION: u32 = 2;

/// Byte length of the fixed header (everything before the sub-factor
/// descriptors).
const FIXED_HEADER: usize = 32;
/// Byte length of one sub-factor descriptor.
const SUB_DESCRIPTOR: usize = 16;

/// Offset of the `f64` slab within a page holding `n` sub-factors.
/// Always a multiple of 8, so slabs are 8-byte aligned whenever the page
/// itself is.
pub fn v2_slab_offset(sub_factors: usize) -> usize {
    FIXED_HEADER + SUB_DESCRIPTOR * sub_factors
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

/// Appends `vals` to `buf` as a little-endian `f64` slab.
pub(crate) fn put_f64_slab(buf: &mut Vec<u8>, vals: &[f64]) {
    let start = buf.len();
    buf.resize(start + vals.len() * 8, 0);
    for (c, v) in buf[start..].chunks_exact_mut(8).zip(vals) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a little-endian `f64` slab into an owned vector — the only
/// copy between the page buffer and the resident [`Mat`]s.
fn get_f64_slab(bytes: &[u8]) -> Vec<f64> {
    debug_assert_eq!(bytes.len() % 8, 0, "slab length must be 8-divisible");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Decodes a little-endian `f64` slab into `out` (same length).
pub(crate) fn copy_f64_slab(bytes: &[u8], out: &mut [f64]) {
    assert_eq!(bytes.len(), out.len() * 8, "slab length mismatch");
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
}

fn corrupt(reason: &str) -> StorageError {
    StorageError::Corrupt {
        reason: reason.to_string(),
    }
}

/// Serialises a unit into its page representation.
pub fn encode(data: &UnitData) -> Vec<u8> {
    let slab_off = v2_slab_offset(data.sub_factors.len());
    let mut buf = Vec::with_capacity(slab_off + data.payload_bytes() + 8);
    buf.extend_from_slice(MAGIC);
    for word in [
        VERSION,
        u32::from(data.unit.mode),
        data.unit.part,
        data.factor.rows() as u32,
        data.factor.cols() as u32,
        data.sub_factors.len() as u32,
    ] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    for (block, m) in &data.sub_factors {
        buf.extend_from_slice(&block.to_le_bytes());
        buf.extend_from_slice(&(m.rows() as u32).to_le_bytes());
        buf.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    }
    debug_assert_eq!(buf.len(), slab_off, "descriptor section length");
    put_f64_slab(&mut buf, data.factor.as_slice());
    for (_, m) in &data.sub_factors {
        put_f64_slab(&mut buf, m.as_slice());
    }
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// The parsed header of a verified page: everything but the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PageHeader {
    /// The unit the page holds.
    unit: UnitId,
    /// `(rows, cols)` of the global sub-factor.
    factor_shape: (usize, usize),
    /// `(block id, rows, cols)` of each slab sub-factor, in page order.
    sub_factors: Vec<(u64, usize, usize)>,
    /// Byte offset of the `f64` slab within the page. The slab runs up to
    /// the 8-byte checksum trailer and holds exactly the doubles the
    /// shapes above declare.
    slab_offset: usize,
}

/// Verifies a page without copying its payload: checksum, magic and
/// version, then the header, the descriptor table and the slab length
/// against the shapes they declare.
///
/// # Errors
/// [`StorageError::Corrupt`] on any structural or integrity failure,
/// including a version other than [`VERSION`].
fn verify(page: &[u8]) -> Result<PageHeader> {
    if page.len() < FIXED_HEADER + 8 {
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
    let word = |i: usize| u32::from_le_bytes(body[i..i + 4].try_into().expect("4 bytes"));
    let version = word(8);
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let mode = u16::try_from(word(12)).map_err(|_| corrupt("unit mode out of range"))?;
    let part = word(16);
    let factor_shape = (word(20) as usize, word(24) as usize);
    let count = word(28) as usize;

    let slab_offset = count
        .checked_mul(SUB_DESCRIPTOR)
        .and_then(|len| len.checked_add(FIXED_HEADER))
        .ok_or_else(|| corrupt("sub-factor count overflow"))?;
    if body.len() < slab_offset {
        return Err(corrupt("truncated descriptor table"));
    }

    let doubles = |(rows, cols): (usize, usize)| {
        rows.checked_mul(cols)
            .ok_or_else(|| corrupt("matrix size overflow"))
    };
    let mut total = doubles(factor_shape)?;
    let mut sub_factors = Vec::with_capacity(count);
    for d in body[FIXED_HEADER..slab_offset].chunks_exact(SUB_DESCRIPTOR) {
        let block = u64::from_le_bytes(d[..8].try_into().expect("8 bytes"));
        let rows = u32::from_le_bytes(d[8..12].try_into().expect("4 bytes")) as usize;
        let cols = u32::from_le_bytes(d[12..16].try_into().expect("4 bytes")) as usize;
        total = total
            .checked_add(doubles((rows, cols))?)
            .ok_or_else(|| corrupt("slab size overflow"))?;
        sub_factors.push((block, rows, cols));
    }
    let slab_bytes = total
        .checked_mul(8)
        .ok_or_else(|| corrupt("slab size overflow"))?;
    if body.len() - slab_offset != slab_bytes {
        return Err(corrupt("slab length mismatch"));
    }
    Ok(PageHeader {
        unit: UnitId { mode, part },
        factor_shape,
        sub_factors,
        slab_offset,
    })
}

/// Deserialises a page: verifies all of it (checksum, header, descriptor
/// table, slab length) before copying anything out, then materialises the
/// slab into the matrices the header declares, one copy each.
///
/// # Errors
/// [`StorageError::Corrupt`] on any structural or integrity failure.
pub fn decode(page: &[u8]) -> Result<UnitData> {
    let header = verify(page)?;
    let mut slab = &page[header.slab_offset..page.len() - 8];
    let mut take = |(rows, cols): (usize, usize)| {
        let (head, rest) = slab.split_at(rows * cols * 8);
        slab = rest;
        Mat::from_vec(rows, cols, get_f64_slab(head))
    };
    let factor = take(header.factor_shape);
    let sub_factors = header
        .sub_factors
        .into_iter()
        .map(|(block, rows, cols)| (block, take((rows, cols))))
        .collect();
    Ok(UnitData {
        unit: header.unit,
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

    /// Known-answer bytes of `sample_unit()`'s page (its length and the
    /// FNV-1a of the whole page), pinned from the bulk-copy codec this
    /// one replaced. A roundtrip cannot see an endian or offset slip that
    /// encode and decode make together; this can.
    #[test]
    fn sample_page_has_known_bytes() {
        let page = encode(&sample_unit());
        assert_eq!(u32::from_le_bytes(page[8..12].try_into().unwrap()), VERSION);
        assert_eq!(page.len(), 168);
        assert_eq!(fnv1a(&page), 0x962a_6d51_0be6_f92b);
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
        let page = encode(&sample_unit());
        // Flip one byte in a handful of positions spanning header,
        // payload and trailer.
        for pos in [0, 9, 20, 40, page.len() / 2, page.len() - 1] {
            let mut bad = page.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {pos} was not detected");
        }
    }

    #[test]
    fn detects_truncation() {
        let page = encode(&sample_unit());
        for cut in [1, 8, 16, page.len() - 9, page.len() - 1] {
            assert!(decode(&page[..cut]).is_err(), "truncation to {cut}");
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

        // Any version but the one this codec writes, including the
        // retired v1 and a future v3, is corrupt.
        for version in [1u32, 3, 99] {
            let mut page = encode(&unit);
            page[8..12].copy_from_slice(&version.to_le_bytes());
            let err = decode(&reseal(page)).unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "version {version}"
            );
        }
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
        // A mode no `UnitId` can hold is rejected, not truncated.
        let mut page = encode(&unit);
        page[12..16].copy_from_slice(&0x1_0001u32.to_le_bytes());
        assert!(verify(&reseal(page)).is_err());
    }

    #[test]
    fn verify_parses_the_header() {
        let unit = sample_unit();
        let page = encode(&unit);
        let header = verify(&page).unwrap();
        assert_eq!(header.unit, unit.unit);
        assert_eq!(header.factor_shape, (3, 2));
        assert_eq!(header.sub_factors, vec![(0, 1, 2), (7, 2, 2)]);
        assert_eq!(header.slab_offset, v2_slab_offset(2));
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
        // Fixed header 32 + 2 descriptors × 16 + 12 doubles + trailer 8.
        let expect = 32 + 2 * 16 + 12 * 8 + 8;
        assert_eq!(page.len(), expect);
        assert_eq!(
            page.len(),
            v2_slab_offset(unit.sub_factors.len()) + unit.payload_bytes() + 8
        );
    }
}
