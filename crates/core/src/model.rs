//! The saved-model artifact: a decomposition promoted from the driver's
//! loose `(factors, λ, fit)` outputs into a self-describing, queryable
//! on-disk container.
//!
//! # Container format (`.2pcpm`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"2PCPMODL"
//! 8       4     container version (u32 LE, currently 1)
//! 12      4     metadata length `m` (u32 LE)
//! 16      m     metadata block (layout below)
//! 16+m    8     FNV-1a 64 checksum of bytes [0, 16+m)
//! …       pad   zero padding to the next 8-byte boundary
//! then, for each mode h = 0 .. order:
//!         8     page length (u64 LE)
//!         …     codec-v2 page of `UnitData { unit: (h, 0), factor: A⁽ʰ⁾ }`
//!         pad   zero padding to the next 8-byte boundary
//! ```
//!
//! Metadata block (all little-endian):
//!
//! ```text
//! u16 name_len, name (UTF-8)
//! u32 rank
//! u32 order
//! u64 × order   dims
//! u64 seed
//! f64 fit
//! u16 sched_len, schedule abbreviation (UTF-8, e.g. "HO")
//! u32 parts_len, u64 × parts_len   phase-1 grid provenance
//! -- version 2 only (compression provenance) --
//! u32 mlrank_len, u64 × mlrank_len   requested per-mode rank caps
//! f64 energy                          retained ‖X‖² fraction
//! u32 core_len, u64 × core_len        compressed core shape
//! -- end version 2 --
//! f64 × rank    component weights λ
//! ```
//!
//! Version 1 containers have no compression section; [`Model::to_bytes`]
//! still writes version 1 whenever the model carries no compression
//! provenance, so artifacts from the default pipeline are byte-for-byte
//! what they were before version 2 existed, and old files keep loading.
//!
//! Factor matrices ride as ordinary codec-v2 pages — the same
//! checksummed, bulk-copy format the unit stores swap — so the reader is
//! `tpcp_storage::codec::decode` over an `Mmap` (buffered fallback when
//! `TPCP_MMAP` is off), and a corrupted factor fails the same way a
//! corrupted swap page does.
//!
//! # Residency: owned vs shared-mmap
//!
//! A model can be resident in two ways ([`Model::residency`]):
//!
//! * [`Residency::Owned`] — factors decoded into owned matrices
//!   ([`Model::from_bytes`], [`Model::load_with`] buffered);
//! * [`Residency::Mapped`] — [`Model::load_shared`] validates the whole
//!   container once (checksums, shapes) and then reads the factor slabs
//!   *in place* from one shared, page-aligned memory map. Queries borrow
//!   `&[f64]` views straight out of the map — zero copies per query —
//!   and cloning the model clones an `Arc` of the map, so a serving
//!   registry holds exactly one mapping per model version. Because the
//!   map is `MAP_SHARED` over an immutable file that writers replace via
//!   atomic rename ([`Model::save`]), a hot swap never mutates pages
//!   under a live reader: sessions pinned to the old version keep the old
//!   inode's mapping alive until the last `Arc` drops.
//!
//! Both residencies answer every query bitwise-identically: the slab
//! bytes are the same little-endian `f64`s either way, and all heavy
//! products go through the shared kernel seam
//! ([`tpcp_linalg::matmul_t_slices`]) with its accumulation-order
//! contract.
//!
//! Besides persistence, [`Model`] is the shared query surface: the
//! serving daemon (`tpcp-serve`) and in-process verification both answer
//! entry/fiber/slice/top-k/similarity questions through these methods,
//! which is what makes served answers bitwise-comparable to local ones.
//! The batched variants ([`Model::entries`], [`Model::fibers`],
//! [`Model::rows`]) evaluate many queries in one pass per factor matrix
//! (gather rows → one matmul-shaped product instead of N dot loops) and
//! are guaranteed bitwise-identical to looping the single-query methods.

use crate::{config::TwoPcpConfig, driver::TwoPcpOutcome, Result, TwoPcpError};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use tpcp_compress::CompressProvenance;
use tpcp_cp::CpModel;
use tpcp_linalg::{gather_rows, matmul_t_slices_auto, Mat};
use tpcp_schedule::UnitId;
use tpcp_storage::{codec, mmap_auto, UnitData};

/// Magic bytes opening a model container.
pub const MODEL_MAGIC: &[u8; 8] = b"2PCPMODL";
/// Newest container format version. [`Model::save`] writes version 2 only
/// when the model carries compression provenance; plain models stay
/// version 1 (bitwise identical to pre-v2 artifacts). The reader accepts
/// both.
pub const MODEL_VERSION: u32 = 2;
/// Conventional file extension for saved models.
pub const MODEL_EXT: &str = "2pcpm";

/// Hard ceilings rejected at load time before any allocation is sized
/// from untrusted header fields.
const MAX_META_LEN: u32 = 1 << 20;
const MAX_ORDER: u32 = 64;
const MAX_RANK: u32 = 1 << 20;

/// Descriptive metadata stored alongside the factors: everything needed
/// to answer "what is this model?" without decoding a page.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelMeta {
    /// Human-readable model name (the registry key when served).
    pub name: String,
    /// Decomposition rank `F`.
    pub rank: usize,
    /// Tensor shape `I₁ … I_N`.
    pub dims: Vec<usize>,
    /// RNG seed the decomposition ran with.
    pub seed: u64,
    /// Exact fit against the input tensor (paper §III-B).
    pub fit: f64,
    /// Phase-2 schedule provenance (abbreviation, e.g. `"HO"`).
    pub schedule: String,
    /// Phase-1 grid provenance: partitions per mode.
    pub parts: Vec<usize>,
    /// Compression provenance (requested mlrank caps, retained energy,
    /// core shape) when the model came from the compress-then-decompose
    /// pipeline; `None` for the two-phase path. Serialised only in
    /// version-2 containers.
    pub compress: Option<CompressProvenance>,
}

/// How a model's factors are resident in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// Factors decoded into owned matrices.
    Owned,
    /// Factors read zero-copy out of a shared memory map of the
    /// container file ([`Model::load_shared`]).
    Mapped,
}

impl Residency {
    /// Human-readable label (`"owned"` / `"mapped"`), used by the serving
    /// smoke and status output.
    pub fn label(self) -> &'static str {
        match self {
            Residency::Owned => "owned",
            Residency::Mapped => "mapped",
        }
    }
}

/// A borrowed view of one factor matrix: `rows × cols`, row-major. For
/// owned models it borrows the matrix's buffer; for mapped models it
/// borrows the container's memory map directly.
#[derive(Clone, Copy)]
pub struct FactorView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> FactorView<'a> {
    /// Number of rows (`I_h`).
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns (the rank `F`).
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// The whole factor, row-major.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
    /// Row `r`.
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
    /// Materialises an owned copy.
    pub fn to_mat(&self) -> Mat {
        Mat::from_vec(self.rows, self.cols, self.data.to_vec())
    }
}

/// Factors resident in a shared memory map: the map itself plus, per
/// mode, the absolute byte offset and shape of its `f64` slab.
#[derive(Clone)]
struct MappedFactors {
    map: Arc<memmap2::Mmap>,
    weights: Vec<f64>,
    /// Per mode: (byte offset of the slab within the map, rows, cols).
    slabs: Vec<(usize, usize, usize)>,
}

impl MappedFactors {
    fn slab(&self, mode: usize) -> &[f64] {
        let (off, rows, cols) = self.slabs[mode];
        let n = rows * cols;
        let bytes = &self.map[off..off + n * 8];
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0, "slab alignment");
        // SAFETY: the offset was validated 8-aligned at load time (and
        // the container layout guarantees it — pages start on 8-byte
        // boundaries of a page-aligned map, slabs at +32); `f64` accepts
        // any bit pattern; this build is little-endian (checked at load),
        // so the mapped bytes *are* the in-memory representation. The
        // borrow keeps the `Arc<Mmap>` alive for the slice's lifetime.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), n) }
    }
}

#[derive(Clone)]
enum FactorStore {
    Owned(CpModel),
    Mapped(MappedFactors),
}

impl FactorStore {
    fn order(&self) -> usize {
        match self {
            FactorStore::Owned(cp) => cp.order(),
            FactorStore::Mapped(m) => m.slabs.len(),
        }
    }
}

/// A saved/loadable decomposition: metadata plus the weighted factors,
/// resident either as owned matrices or zero-copy over a shared memory
/// map of the container (see [`Residency`]).
///
/// A model's factors and weights never change after construction: no
/// `&mut` accessor to them exists, and a reload builds a new `Model`.
/// That is what makes the per-mode row-norm cache behind
/// [`Model::similar_rows`] sound — it is a pure function of immutable
/// data, filled once on first use and shared by every clone.
#[derive(Clone)]
pub struct Model {
    /// Descriptive metadata (see [`ModelMeta`]).
    pub meta: ModelMeta,
    store: FactorStore,
    /// Per mode, `Σ_f (λ_f·A[r, f])²` for every row `r` (8 B per row),
    /// filled lazily by [`Model::row_norms`].
    norms: Arc<[OnceLock<Vec<f64>>]>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("meta", &self.meta)
            .field("residency", &self.residency())
            .finish()
    }
}

impl PartialEq for Model {
    /// Value equality: same metadata, same weights, same factor entries —
    /// regardless of residency (a mapped model equals its owned decode).
    fn eq(&self, other: &Self) -> bool {
        if self.meta != other.meta || self.weights() != other.weights() {
            return false;
        }
        (0..self.order()).all(|h| {
            let (a, b) = (self.factor(h), other.factor(h));
            (a.rows(), a.cols()) == (b.rows(), b.cols()) && a.as_slice() == b.as_slice()
        })
    }
}

fn model_err(reason: impl Into<String>) -> TwoPcpError {
    TwoPcpError::Model {
        reason: reason.into(),
    }
}

impl Model {
    /// Wraps a CP model with metadata, validating that they agree.
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] when `meta.rank`/`meta.dims` disagree with
    /// the factors.
    pub fn new(meta: ModelMeta, cp: CpModel) -> Result<Self> {
        if meta.rank != cp.rank() {
            return Err(model_err(format!(
                "metadata rank {} != factor rank {}",
                meta.rank,
                cp.rank()
            )));
        }
        if meta.dims != cp.dims() {
            return Err(model_err(format!(
                "metadata dims {:?} != factor dims {:?}",
                meta.dims,
                cp.dims()
            )));
        }
        Ok(Model::with_store(meta, FactorStore::Owned(cp)))
    }

    fn with_store(meta: ModelMeta, store: FactorStore) -> Self {
        Model {
            meta,
            norms: (0..store.order()).map(|_| OnceLock::new()).collect(),
            store,
        }
    }

    /// Promotes a driver outcome into a named artifact, recording the
    /// run's provenance (seed, schedule, grid) from its config.
    pub fn from_outcome(name: &str, outcome: &TwoPcpOutcome, config: &TwoPcpConfig) -> Self {
        Model::with_store(
            ModelMeta {
                name: name.to_string(),
                rank: outcome.model.rank(),
                dims: outcome.model.dims(),
                seed: config.seed,
                fit: outcome.fit,
                schedule: config.schedule.abbrev().to_string(),
                parts: config.parts.clone(),
                compress: outcome.compress.clone(),
            },
            FactorStore::Owned(outcome.model.clone()),
        )
    }

    /// Decomposition rank `F`.
    pub fn rank(&self) -> usize {
        self.weights().len()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.store.order()
    }

    /// Tensor shape.
    pub fn dims(&self) -> Vec<usize> {
        (0..self.order()).map(|h| self.factor(h).rows()).collect()
    }

    /// How the factors are resident (owned matrices vs shared mmap).
    pub fn residency(&self) -> Residency {
        match &self.store {
            FactorStore::Owned(_) => Residency::Owned,
            FactorStore::Mapped(_) => Residency::Mapped,
        }
    }

    /// The component weights λ.
    pub fn weights(&self) -> &[f64] {
        match &self.store {
            FactorStore::Owned(cp) => &cp.weights,
            FactorStore::Mapped(m) => &m.weights,
        }
    }

    /// A borrowed view of mode `mode`'s factor matrix.
    ///
    /// # Panics
    /// Panics when `mode >= self.order()` (use [`Model::factor_checked`]
    /// for untrusted input).
    pub fn factor(&self, mode: usize) -> FactorView<'_> {
        match &self.store {
            FactorStore::Owned(cp) => {
                let f = &cp.factors[mode];
                FactorView {
                    data: f.as_slice(),
                    rows: f.rows(),
                    cols: f.cols(),
                }
            }
            FactorStore::Mapped(m) => {
                let (_, rows, cols) = m.slabs[mode];
                FactorView {
                    data: m.slab(mode),
                    rows,
                    cols,
                }
            }
        }
    }

    /// Materialises an owned [`CpModel`] (a cheap borrow for owned
    /// residency is impossible here because mapped factors have no
    /// backing `Mat`s; this copies in that case).
    pub fn to_cp(&self) -> CpModel {
        match &self.store {
            FactorStore::Owned(cp) => cp.clone(),
            FactorStore::Mapped(m) => CpModel::new(
                m.weights.clone(),
                (0..self.order()).map(|h| self.factor(h).to_mat()).collect(),
            )
            .expect("mapped factors validated at load"),
        }
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serialises the container into a byte vector (the exact bytes
    /// [`Model::save`] writes).
    pub fn to_bytes(&self) -> Vec<u8> {
        // Plain models keep writing version 1, byte-for-byte what they
        // were before the compression section existed.
        let version: u32 = if self.meta.compress.is_none() {
            1
        } else {
            MODEL_VERSION
        };
        let meta = self.encode_meta();
        let mut out = Vec::with_capacity(meta.len() + 64);
        out.extend_from_slice(MODEL_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&meta);
        let sum = codec::fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        pad8(&mut out);
        for h in 0..self.order() {
            let page = codec::encode(&UnitData {
                unit: UnitId::new(h, 0),
                factor: self.factor(h).to_mat(),
                sub_factors: Vec::new(),
            });
            out.extend_from_slice(&(page.len() as u64).to_le_bytes());
            out.extend_from_slice(&page);
            pad8(&mut out);
        }
        out
    }

    /// Writes the container to `path`, atomically (write to a sibling
    /// temp file, then rename over the destination). The rename is what
    /// makes hot swaps safe for mapped readers: the old inode is never
    /// mutated, so live [`Residency::Mapped`] models keep reading
    /// consistent bytes until their map drops.
    ///
    /// # Errors
    /// [`TwoPcpError::Storage`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("2pcpm.tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a container from `path`, honouring the `TPCP_MMAP` default:
    /// with mmap on this is [`Model::load_shared`] (zero-copy residency),
    /// otherwise a buffered owned decode.
    ///
    /// # Errors
    /// [`TwoPcpError::Storage`] on I/O failure, [`TwoPcpError::Model`]
    /// on a malformed or corrupted container.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::load_with(path, mmap_auto())
    }

    /// Loads a container, choosing the transport explicitly: `mmap`
    /// routes through [`Model::load_shared`] (factors stay resident in
    /// the map); otherwise the file is read into a buffer and decoded
    /// into owned matrices.
    pub fn load_with(path: impl AsRef<Path>, mmap: bool) -> Result<Self> {
        let path = path.as_ref();
        if mmap {
            return Self::load_shared(path);
        }
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Loads a container as a shared-mmap resident model: the whole file
    /// is validated once (header checksum, per-page checksums, shapes),
    /// then queries read the factor slabs zero-copy out of one shared
    /// memory map. Falls back to an owned decode when the platform or
    /// container layout is not eligible (mapping failure, big-endian
    /// target, legacy codec-v1 pages) — the returned model then reports
    /// [`Residency::Owned`].
    ///
    /// # Errors
    /// [`TwoPcpError::Storage`] on I/O failure, [`TwoPcpError::Model`]
    /// on a malformed or corrupted container.
    pub fn load_shared(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        let map = match unsafe { memmap2::Mmap::map(&file) } {
            Ok(map) => map,
            // Mapping can fail (empty file, exotic fs) — fall back to
            // the buffered read, which reports the real parse error.
            Err(_) => return Self::from_bytes(&std::fs::read(path)?),
        };
        map.advise_willneed(0, map.len());
        #[cfg(target_endian = "little")]
        {
            Self::from_mapped(map)
        }
        #[cfg(not(target_endian = "little"))]
        {
            Self::from_bytes(&map)
        }
    }

    /// Parses a container from bytes into an owned-residency model (the
    /// inverse of [`Model::to_bytes`]).
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] describing the first malformed field; all
    /// length fields are bounds-checked before use, so truncated or
    /// hostile inputs fail cleanly instead of panicking.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (meta, weights, mut pos) = parse_container_head(bytes)?;
        let mut factors = Vec::with_capacity(meta.dims.len());
        for h in 0..meta.dims.len() {
            let (page, next) = next_page(bytes, pos, h)?;
            let unit =
                codec::decode(page).map_err(|e| model_err(format!("factor {h} page: {e}")))?;
            if unit.unit != UnitId::new(h, 0) || !unit.sub_factors.is_empty() {
                return Err(model_err(format!("factor {h} page carries the wrong unit")));
            }
            if unit.factor.rows() != meta.dims[h] || unit.factor.cols() != meta.rank {
                return Err(model_err(format!(
                    "factor {h} is {}×{}, metadata says {}×{}",
                    unit.factor.rows(),
                    unit.factor.cols(),
                    meta.dims[h],
                    meta.rank
                )));
            }
            factors.push(unit.factor);
            pos = next;
        }
        let cp = CpModel::new(weights, factors)
            .map_err(|e| model_err(format!("factors disagree with metadata: {e}")))?;
        Model::new(meta, cp)
    }

    /// Validates a mapped container and records slab offsets instead of
    /// decoding: one checksum pass at load, zero copies afterwards.
    #[cfg(target_endian = "little")]
    fn from_mapped(map: memmap2::Mmap) -> Result<Self> {
        let bytes: &[u8] = &map;
        let (meta, weights, mut pos) = parse_container_head(bytes)?;
        if weights.len() != meta.rank {
            return Err(model_err("factors disagree with metadata: weight arity"));
        }
        let mut slabs = Vec::with_capacity(meta.dims.len());
        for h in 0..meta.dims.len() {
            let (page, next) = next_page(bytes, pos, h)?;
            match validate_model_page(page, h, meta.dims[h], meta.rank) {
                Ok(()) => {}
                // Legacy codec-v1 page: not slab-shaped — decode owned.
                Err(PageIssue::Ineligible) => return Self::from_bytes(bytes),
                Err(PageIssue::Corrupt(e)) => return Err(e),
            }
            // `pos` addresses the u64 page-length prefix; the page (and
            // therefore the slab offset) starts just past it.
            let slab_off = pos + 8 + codec::v2_slab_offset(0);
            if !(bytes.as_ptr() as usize + slab_off).is_multiple_of(8) {
                // Cannot happen with a page-aligned map and the 8-aligned
                // container layout, but misalignment must never reach the
                // unsafe slice cast — decode owned instead.
                return Self::from_bytes(bytes);
            }
            slabs.push((slab_off, meta.dims[h], meta.rank));
            pos = next;
        }
        Ok(Model::with_store(
            meta,
            FactorStore::Mapped(MappedFactors {
                map: Arc::new(map),
                weights,
                slabs,
            }),
        ))
    }

    fn encode_meta(&self) -> Vec<u8> {
        let m = &self.meta;
        let mut out = Vec::new();
        out.extend_from_slice(&(m.name.len() as u16).to_le_bytes());
        out.extend_from_slice(m.name.as_bytes());
        out.extend_from_slice(&(m.rank as u32).to_le_bytes());
        out.extend_from_slice(&(m.dims.len() as u32).to_le_bytes());
        for &d in &m.dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&m.seed.to_le_bytes());
        out.extend_from_slice(&m.fit.to_le_bytes());
        out.extend_from_slice(&(m.schedule.len() as u16).to_le_bytes());
        out.extend_from_slice(m.schedule.as_bytes());
        out.extend_from_slice(&(m.parts.len() as u32).to_le_bytes());
        for &p in &m.parts {
            out.extend_from_slice(&(p as u64).to_le_bytes());
        }
        if let Some(c) = &m.compress {
            out.extend_from_slice(&(c.mlrank.len() as u32).to_le_bytes());
            for &r in &c.mlrank {
                out.extend_from_slice(&(r as u64).to_le_bytes());
            }
            out.extend_from_slice(&c.energy.to_le_bytes());
            out.extend_from_slice(&(c.core_shape.len() as u32).to_le_bytes());
            for &d in &c.core_shape {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
        }
        for &w in self.weights() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    // ------------------------------------------------------------------
    // Queries (shared by the serving daemon and in-process verification)
    // ------------------------------------------------------------------

    /// Reconstructs a single tensor entry `X̃[coords]`.
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] when `coords` has the wrong arity or an
    /// index is out of range.
    pub fn entry(&self, coords: &[usize]) -> Result<f64> {
        let dims = self.dims();
        if coords.len() != dims.len() {
            return Err(model_err(format!(
                "entry wants {} coordinates, got {}",
                dims.len(),
                coords.len()
            )));
        }
        let mut prod = self.weights().to_vec();
        for (h, &c) in coords.iter().enumerate() {
            if c >= dims[h] {
                return Err(model_err(format!(
                    "coordinate {c} out of range for mode {h} (dim {})",
                    dims[h]
                )));
            }
            for (p, &a) in prod.iter_mut().zip(self.factor(h).row(c)) {
                *p *= a;
            }
        }
        Ok(prod.iter().sum())
    }

    /// Reconstructs the mode-`mode` fiber at `fixed` — the length-`I_mode`
    /// vector obtained by varying `mode` while the other coordinates are
    /// pinned to `fixed` (given in ascending mode order, `mode` omitted).
    pub fn fiber(&self, mode: usize, fixed: &[usize]) -> Result<Vec<f64>> {
        let prod = self.pinned_product(&[mode], fixed)?;
        let a = self.factor(mode);
        Ok((0..a.rows()).map(|i| dot(a.row(i), &prod)).collect())
    }

    /// Reconstructs the 2-D slice with free modes `mode_r` (rows) and
    /// `mode_c` (columns), remaining coordinates pinned to `fixed`
    /// (ascending mode order, both free modes omitted).
    pub fn slice(&self, mode_r: usize, mode_c: usize, fixed: &[usize]) -> Result<Mat> {
        if mode_r == mode_c {
            return Err(model_err("slice needs two distinct free modes"));
        }
        let prod = self.pinned_product(&[mode_r, mode_c], fixed)?;
        // out = (A_r ⊙ prod) · A_cᵀ  — scale A_r's columns by the pinned
        // product, then one matmul_t gives every (i, j) at once. The rhs
        // factor is consumed as a raw slice so mapped residency pays no
        // copy for it.
        let mut scaled = self.factor(mode_r).to_mat();
        scaled.scale_columns(&prod);
        let c = self.factor(mode_c);
        Ok(matmul_t_slices_auto(
            scaled.as_slice(),
            scaled.rows(),
            scaled.cols(),
            c.as_slice(),
            c.rows(),
        ))
    }

    /// The `k` largest entries of the mode-`mode` fiber at `fixed`,
    /// as `(index, value)` sorted by value descending (ties by index).
    pub fn top_k(&self, mode: usize, fixed: &[usize], k: usize) -> Result<Vec<(usize, f64)>> {
        let fiber = self.fiber(mode, fixed)?;
        Ok(rank_fiber(fiber, k))
    }

    /// Cosine similarity between rows `i` and `j` of mode `mode`'s factor
    /// (each row weighted by λ). Zero-norm rows compare as `0.0`. Bitwise
    /// the value [`Model::similar_rows`] reports for `j` when asked about
    /// `i`.
    pub fn cosine(&self, mode: usize, i: usize, j: usize) -> Result<f64> {
        let a = self.factor_checked(mode)?;
        for &r in &[i, j] {
            if r >= a.rows() {
                return Err(model_err(format!(
                    "row {r} out of range for mode {mode} (dim {})",
                    a.rows()
                )));
            }
        }
        Ok(weighted_cosine(a.row(i), a.row(j), self.weights()))
    }

    /// The `k` rows of mode `mode`'s factor most cosine-similar to `row`
    /// (the row itself excluded), as `(index, similarity)` sorted by
    /// similarity descending (ties by index).
    ///
    /// Cost: one O(rows·F) pass for the dot products plus an
    /// O(rows + k log k) ranking. Every row's λ-weighted squared norm is
    /// computed once per model (see [`Model`] on why that cache is
    /// sound), and the dot products run a fixed block of rows side by
    /// side, each row keeping its own accumulator in ascending `f` —
    /// exactly [`Model::cosine`]'s arithmetic, so every value is bitwise
    /// what it returns for the same pair.
    pub fn similar_rows(&self, mode: usize, row: usize, k: usize) -> Result<Vec<(usize, f64)>> {
        let a = self.factor_checked(mode)?;
        if row >= a.rows() {
            return Err(model_err(format!(
                "row {row} out of range for mode {mode} (dim {})",
                a.rows()
            )));
        }
        let (rows, n) = (a.rows(), a.cols());
        let w = &self.weights()[..n];
        let norms = self.row_norms(mode);
        let aa = norms[row];
        let wx: Vec<f64> = a.row(row).iter().zip(w).map(|(&x, &w)| w * x).collect();
        let cosine = |ab: f64, bb: f64| {
            if aa == 0.0 || bb == 0.0 {
                0.0
            } else {
                ab / (aa.sqrt() * bb.sqrt())
            }
        };
        let full = rows - rows % SIMILAR_LANES;
        let mut ranked = Vec::with_capacity(rows - 1);
        for base in (0..full).step_by(SIMILAR_LANES) {
            let block = &a.as_slice()[base * n..(base + SIMILAR_LANES) * n];
            let mut ab = [0.0f64; SIMILAR_LANES];
            for f in 0..n {
                let (wxf, wf) = (wx[f], w[f]);
                for (l, acc) in ab.iter_mut().enumerate() {
                    *acc += wxf * (wf * block[l * n + f]);
                }
            }
            for (l, &ab) in ab.iter().enumerate() {
                let r = base + l;
                if r != row {
                    ranked.push((r, cosine(ab, norms[r])));
                }
            }
        }
        for r in (full..rows).filter(|&r| r != row) {
            let ab = wx
                .iter()
                .zip(w)
                .zip(a.row(r))
                .fold(0.0, |ab, ((&wxf, &wf), &y)| ab + wxf * (wf * y));
            ranked.push((r, cosine(ab, norms[r])));
        }
        Ok(top_ranked(ranked, k))
    }

    /// Mode `mode`'s per-row `Σ_f (λ_f·A[r, f])²`, in ascending `f` —
    /// the norm half of [`weighted_cosine`], computed on first use and
    /// kept for the model's life.
    fn row_norms(&self, mode: usize) -> &[f64] {
        self.norms[mode].get_or_init(|| {
            let a = self.factor(mode);
            let w = self.weights();
            (0..a.rows())
                .map(|r| {
                    a.row(r).iter().zip(w).fold(0.0, |bb, (&y, &w)| {
                        let wy = w * y;
                        bb + wy * wy
                    })
                })
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // Batched queries (one pass through the factors for many requests)
    // ------------------------------------------------------------------

    /// Reconstructs many tensor entries in one pass: per mode, the needed
    /// factor rows are gathered once and multiplied into a `n × F`
    /// product matrix, instead of walking all modes per query. Bitwise
    /// identical to calling [`Model::entry`] per query (each component
    /// sees the same multiplications in the same ascending-mode order,
    /// and the final per-row sum accumulates ascending).
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] on the first query with wrong arity or an
    /// out-of-range index (all-or-nothing; callers wanting per-query
    /// isolation validate first).
    pub fn entries(&self, queries: &[Vec<usize>]) -> Result<Vec<f64>> {
        let dims = self.dims();
        for coords in queries {
            if coords.len() != dims.len() {
                return Err(model_err(format!(
                    "entry wants {} coordinates, got {}",
                    dims.len(),
                    coords.len()
                )));
            }
            for (h, &c) in coords.iter().enumerate() {
                if c >= dims[h] {
                    return Err(model_err(format!(
                        "coordinate {c} out of range for mode {h} (dim {})",
                        dims[h]
                    )));
                }
            }
        }
        let mut prod = broadcast_weights(self.weights(), queries.len());
        let mut rows_scratch = Vec::with_capacity(queries.len());
        for (h, view) in (0..dims.len()).map(|h| (h, self.factor(h))) {
            rows_scratch.clear();
            rows_scratch.extend(queries.iter().map(|q| q[h]));
            let gathered = gather_rows(view.as_slice(), view.rows(), view.cols(), &rows_scratch);
            prod.hadamard_assign(&gathered)
                .expect("broadcast and gather shapes agree");
        }
        Ok((0..queries.len())
            .map(|q| prod.row(q).iter().sum())
            .collect())
    }

    /// Reconstructs many mode-`mode` fibers in one kernel product:
    /// pinned products for all queries become an `n × F` matrix `P`, and
    /// one `A⁽ᵐᵒᵈᵉ⁾ · Pᵀ` through the kernel seam yields every fiber as a
    /// column. Bitwise identical to calling [`Model::fiber`] per query
    /// (the kernel contract accumulates each output element ascending,
    /// exactly like the single-query dot loop).
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] on the first invalid query (all-or-nothing).
    pub fn fibers(&self, mode: usize, queries: &[Vec<usize>]) -> Result<Vec<Vec<f64>>> {
        let mut p = broadcast_weights(self.weights(), queries.len());
        let dims = self.dims();
        if mode >= dims.len() {
            return Err(model_err(format!(
                "mode {mode} out of range for an order-{} tensor",
                dims.len()
            )));
        }
        let mut rows_scratch = Vec::with_capacity(queries.len());
        for h in 0..dims.len() {
            if h == mode {
                continue;
            }
            // `fixed` omits the free mode: pinned index of mode h sits at
            // position h (or h-1 past the free mode).
            let at = if h < mode { h } else { h - 1 };
            rows_scratch.clear();
            for q in queries {
                if q.len() + 1 != dims.len() {
                    return Err(model_err(format!(
                        "expected {} pinned coordinates, got {}",
                        dims.len() - 1,
                        q.len()
                    )));
                }
                let c = q[at];
                if c >= dims[h] {
                    return Err(model_err(format!(
                        "coordinate {c} out of range for mode {h} (dim {})",
                        dims[h]
                    )));
                }
                rows_scratch.push(c);
            }
            let view = self.factor(h);
            let gathered = gather_rows(view.as_slice(), view.rows(), view.cols(), &rows_scratch);
            p.hadamard_assign(&gathered)
                .expect("broadcast and gather shapes agree");
        }
        // Degenerate arity check when no pinned mode existed to do it.
        if dims.len() == 1 {
            for q in queries {
                if !q.is_empty() {
                    return Err(model_err(format!(
                        "expected 0 pinned coordinates, got {}",
                        q.len()
                    )));
                }
            }
        }
        let a = self.factor(mode);
        let m = matmul_t_slices_auto(a.as_slice(), a.rows(), a.cols(), p.as_slice(), p.rows());
        // Column q of the I × n product is query q's fiber.
        Ok((0..queries.len())
            .map(|q| (0..a.rows()).map(|i| m.get(i, q)).collect())
            .collect())
    }

    /// Gathers factor rows of mode `mode` into a dense
    /// `indices.len() × F` matrix (bulk row fetch for similarity-style
    /// workloads).
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] on a bad mode or out-of-range index.
    pub fn rows(&self, mode: usize, indices: &[usize]) -> Result<Mat> {
        let a = self.factor_checked(mode)?;
        for &r in indices {
            if r >= a.rows() {
                return Err(model_err(format!(
                    "row {r} out of range for mode {mode} (dim {})",
                    a.rows()
                )));
            }
        }
        Ok(gather_rows(a.as_slice(), a.rows(), a.cols(), indices))
    }

    /// `λ_f · Π_{m ∉ free} A⁽ᵐ⁾[fixed_m, f]` — the component products with
    /// every non-free mode pinned. `fixed` lists one coordinate per pinned
    /// mode, ascending; `free` is the (small) set of unpinned modes.
    fn pinned_product(&self, free: &[usize], fixed: &[usize]) -> Result<Vec<f64>> {
        let dims = self.dims();
        for &m in free {
            if m >= dims.len() {
                return Err(model_err(format!(
                    "mode {m} out of range for an order-{} tensor",
                    dims.len()
                )));
            }
        }
        if fixed.len() + free.len() != dims.len() {
            return Err(model_err(format!(
                "expected {} pinned coordinates, got {}",
                dims.len() - free.len(),
                fixed.len()
            )));
        }
        let mut prod = self.weights().to_vec();
        let mut pinned = fixed.iter();
        for (h, &dim) in dims.iter().enumerate() {
            if free.contains(&h) {
                continue;
            }
            let &c = pinned.next().expect("arity checked above");
            if c >= dim {
                return Err(model_err(format!(
                    "coordinate {c} out of range for mode {h} (dim {dim})"
                )));
            }
            for (p, &a) in prod.iter_mut().zip(self.factor(h).row(c)) {
                *p *= a;
            }
        }
        Ok(prod)
    }

    fn factor_checked(&self, mode: usize) -> Result<FactorView<'_>> {
        if mode >= self.order() {
            return Err(model_err(format!(
                "mode {mode} out of range for an order-{} tensor",
                self.order()
            )));
        }
        Ok(self.factor(mode))
    }
}

/// Ranks a fiber's entries: value descending, ties by index, truncated to
/// `k` — the single ranking both [`Model::top_k`] and the batched serving
/// path use, so they cannot drift. O(n + k log k): a selection, then a
/// sort of the `k` survivors.
pub fn rank_fiber(fiber: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
    top_ranked(fiber.into_iter().enumerate().collect(), k)
}

/// Rows per interleaved block in [`Model::similar_rows`]: that many
/// independent dot-product chains in flight at once.
const SIMILAR_LANES: usize = 8;

/// The `k` first of `ranked` under value descending by `total_cmp`, then
/// index ascending, in that order. A select followed by a sort of the
/// `k` survivors: under a total order with distinct indices this is
/// exactly a full sort then a truncate.
fn top_ranked(mut ranked: Vec<(usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    let order = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked
}

/// An `n × F` matrix whose every row is the weight vector λ — the seed of
/// the batched per-query component products.
fn broadcast_weights(weights: &[f64], n: usize) -> Mat {
    let mut data = Vec::with_capacity(n * weights.len());
    for _ in 0..n {
        data.extend_from_slice(weights);
    }
    Mat::from_vec(n, weights.len(), data)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Cosine of the λ-weighted rows: weights scale each component the same
/// way reconstruction does, so "similar" means similar contribution.
fn weighted_cosine(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    let (mut ab, mut aa, mut bb) = (0.0, 0.0, 0.0);
    for ((&x, &y), &w) in a.iter().zip(b).zip(weights) {
        let (wx, wy) = (w * x, w * y);
        ab += wx * wy;
        aa += wx * wx;
        bb += wy * wy;
    }
    if aa == 0.0 || bb == 0.0 {
        return 0.0;
    }
    ab / (aa.sqrt() * bb.sqrt())
}

fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

fn align8(pos: usize) -> usize {
    pos.div_ceil(8) * 8
}

/// Validates the fixed header and metadata block: returns the decoded
/// metadata, the trailing weight vector, and the (8-aligned) position of
/// the first factor page's length prefix.
fn parse_container_head(bytes: &[u8]) -> Result<(ModelMeta, Vec<f64>, usize)> {
    if bytes.len() < 16 {
        return Err(model_err("container shorter than its fixed header"));
    }
    if &bytes[0..8] != MODEL_MAGIC {
        return Err(model_err("bad magic: not a 2PCP model container"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version == 0 || version > MODEL_VERSION {
        return Err(model_err(format!(
            "unsupported container version {version} (expected 1..={MODEL_VERSION})"
        )));
    }
    let meta_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if meta_len > MAX_META_LEN {
        return Err(model_err(format!(
            "metadata length {meta_len} exceeds the {MAX_META_LEN}-byte cap"
        )));
    }
    let meta_end = 16 + meta_len as usize;
    if bytes.len() < meta_end + 8 {
        return Err(model_err("container truncated inside the metadata block"));
    }
    let stored = u64::from_le_bytes(bytes[meta_end..meta_end + 8].try_into().unwrap());
    let actual = codec::fnv1a(&bytes[..meta_end]);
    if stored != actual {
        return Err(model_err(format!(
            "metadata checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    let meta = decode_meta(&bytes[16..meta_end], version)?;
    let weights = meta_weights(&bytes[16..meta_end], &meta);
    Ok((meta, weights, align8(meta_end + 8)))
}

/// Bounds-checks the length-prefixed page starting at `pos`; returns the
/// page bytes and the (8-aligned) position of the next page.
fn next_page(bytes: &[u8], pos: usize, h: usize) -> Result<(&[u8], usize)> {
    if bytes.len() < pos + 8 {
        return Err(model_err(format!("container truncated before factor {h}")));
    }
    let page_len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    let start = pos + 8;
    let Some(end) = start
        .checked_add(page_len as usize)
        .filter(|&e| e <= bytes.len())
    else {
        return Err(model_err(format!(
            "factor {h} page length {page_len} overruns the container"
        )));
    };
    Ok((&bytes[start..end], align8(end)))
}

#[cfg(target_endian = "little")]
enum PageIssue {
    /// Structurally sound but not slab-addressable (legacy v1 layout).
    Ineligible,
    Corrupt(TwoPcpError),
}

/// Validates one factor page for the mapped load path *without* decoding
/// it: checksum, magic, shape and layout checks mirroring
/// `codec::decode`, leaving the slab untouched in place.
#[cfg(target_endian = "little")]
fn validate_model_page(
    page: &[u8],
    h: usize,
    rows: usize,
    cols: usize,
) -> std::result::Result<(), PageIssue> {
    let corrupt = |msg: String| PageIssue::Corrupt(model_err(format!("factor {h} page: {msg}")));
    if page.len() < codec::MAGIC.len() + 4 + 8 + 8 {
        return Err(corrupt("page too small".into()));
    }
    let (body, trailer) = page.split_at(page.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = codec::fnv1a(body);
    if stored != computed {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    if &body[..8] != codec::MAGIC.as_slice() {
        return Err(corrupt("bad magic".into()));
    }
    let word = |i: usize| u32::from_le_bytes(body[i..i + 4].try_into().expect("4 bytes"));
    if word(8) != codec::VERSION {
        // v1 pages interleave headers with the payload; no contiguous
        // slab to borrow.
        return Err(PageIssue::Ineligible);
    }
    if body.len() < codec::v2_slab_offset(0) {
        return Err(corrupt("truncated v2 header".into()));
    }
    let (mode, part) = (word(12), word(16));
    let (page_rows, page_cols, subs) = (word(20) as usize, word(24) as usize, word(28));
    if mode as usize != h || part != 0 || subs != 0 {
        return Err(PageIssue::Corrupt(model_err(format!(
            "factor {h} page carries the wrong unit"
        ))));
    }
    if page_rows != rows || page_cols != cols {
        return Err(PageIssue::Corrupt(model_err(format!(
            "factor {h} is {page_rows}×{page_cols}, metadata says {rows}×{cols}"
        ))));
    }
    let slab_bytes = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| corrupt("matrix size overflow".into()))?;
    if body.len() - codec::v2_slab_offset(0) != slab_bytes {
        return Err(corrupt("v2 slab length mismatch".into()));
    }
    Ok(())
}

/// A bounds-checked little-endian reader over the metadata block.
struct MetaReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MetaReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(model_err("metadata block truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| model_err("metadata string not UTF-8"))
    }
}

fn decode_meta(bytes: &[u8], version: u32) -> Result<ModelMeta> {
    let mut r = MetaReader { bytes, pos: 0 };
    let name = r.string()?;
    let rank = r.u32()?;
    if rank == 0 || rank > MAX_RANK {
        return Err(model_err(format!("metadata rank {rank} out of range")));
    }
    let order = r.u32()?;
    if order == 0 || order > MAX_ORDER {
        return Err(model_err(format!("metadata order {order} out of range")));
    }
    let dims: Vec<usize> = (0..order)
        .map(|_| r.u64().map(|d| d as usize))
        .collect::<Result<_>>()?;
    let seed = r.u64()?;
    let fit = r.f64()?;
    let schedule = r.string()?;
    let parts_len = r.u32()?;
    if parts_len > MAX_ORDER {
        return Err(model_err(format!(
            "metadata parts count {parts_len} out of range"
        )));
    }
    let parts: Vec<usize> = (0..parts_len)
        .map(|_| r.u64().map(|p| p as usize))
        .collect::<Result<_>>()?;
    // Version 2 inserts the compression provenance section here; version 1
    // has none (plain two-phase model).
    let compress = if version >= 2 {
        let mlrank_len = r.u32()?;
        if mlrank_len > MAX_ORDER {
            return Err(model_err(format!(
                "metadata mlrank count {mlrank_len} out of range"
            )));
        }
        let mlrank: Vec<usize> = (0..mlrank_len)
            .map(|_| r.u64().map(|v| v as usize))
            .collect::<Result<_>>()?;
        let energy = r.f64()?;
        let core_len = r.u32()?;
        if core_len > MAX_ORDER {
            return Err(model_err(format!(
                "metadata core-shape count {core_len} out of range"
            )));
        }
        let core_shape: Vec<usize> = (0..core_len)
            .map(|_| r.u64().map(|v| v as usize))
            .collect::<Result<_>>()?;
        Some(CompressProvenance {
            mlrank,
            energy,
            core_shape,
        })
    } else {
        None
    };
    // The weights follow; their arity is checked by `meta_weights`.
    Ok(ModelMeta {
        name,
        rank: rank as usize,
        dims,
        seed,
        fit,
        schedule,
        parts,
        compress,
    })
}

/// Re-walks the metadata block to extract the trailing λ vector (decoded
/// separately so `decode_meta` stays a pure header parse).
fn meta_weights(bytes: &[u8], meta: &ModelMeta) -> Vec<f64> {
    let tail = meta.rank * 8;
    if bytes.len() < tail {
        return Vec::new(); // arity mismatch — CpModel::new rejects it
    }
    bytes[bytes.len() - tail..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpcp_tensor::random_factor;

    fn sample_model() -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let dims = [6usize, 5, 4];
        let rank = 3;
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, rank, &mut rng))
            .collect();
        let cp = CpModel::new(vec![2.0, 1.0, 0.5], factors).unwrap();
        Model::new(
            ModelMeta {
                name: "demo".into(),
                rank,
                dims: dims.to_vec(),
                seed: 11,
                fit: 0.93,
                schedule: "HO".into(),
                parts: vec![2, 2, 2],
                compress: None,
            },
            cp,
        )
        .unwrap()
    }

    fn compressed_model() -> Model {
        let mut m = sample_model();
        m.meta.compress = Some(CompressProvenance {
            mlrank: vec![4, 4, 3],
            energy: 0.9987,
            core_shape: vec![3, 3, 3],
        });
        m
    }

    #[test]
    fn roundtrip_bytes_is_identity() {
        let m = sample_model();
        let again = Model::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn plain_models_still_write_version_1() {
        let bytes = sample_model().to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    }

    #[test]
    fn compressed_models_roundtrip_as_version_2() {
        let m = compressed_model();
        let bytes = m.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        let again = Model::from_bytes(&bytes).unwrap();
        assert_eq!(m, again);
        let c = again.meta.compress.unwrap();
        assert_eq!(c.core_shape, vec![3, 3, 3]);
        assert!((c.energy - 0.9987).abs() < 1e-15);
    }

    #[test]
    fn version_1_containers_without_provenance_still_load() {
        // A version-1 container is exactly what a pre-compression build
        // wrote; the loader must keep accepting it and report no
        // provenance.
        let bytes = sample_model().to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        let loaded = Model::from_bytes(&bytes).unwrap();
        assert!(loaded.meta.compress.is_none());
        // Future versions are rejected, not misparsed.
        let mut future = bytes;
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(Model::from_bytes(&future).is_err());
    }

    #[test]
    fn roundtrip_file_both_transports() {
        let m = sample_model();
        let dir = std::env::temp_dir().join(format!("tpcp_model_rt_{}", std::process::id()));
        let path = dir.join("demo.2pcpm");
        m.save(&path).unwrap();
        for mmap in [false, true] {
            let again = Model::load_with(&path, mmap).unwrap();
            assert_eq!(m, again, "transport mmap={mmap}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_load_is_mapped_and_bitwise_equal() {
        let m = sample_model();
        let dir = std::env::temp_dir().join(format!("tpcp_model_shared_{}", std::process::id()));
        let path = dir.join("demo.2pcpm");
        m.save(&path).unwrap();
        let mapped = Model::load_shared(&path).unwrap();
        assert_eq!(mapped.residency(), Residency::Mapped);
        assert_eq!(mapped.residency().label(), "mapped");
        assert_eq!(m.residency(), Residency::Owned);
        // Factor views are bitwise-equal to the owned decode, and every
        // query answers identically.
        for h in 0..m.order() {
            let (a, b) = (m.factor(h), mapped.factor(h));
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(
            m.entry(&[1, 2, 3]).unwrap().to_bits(),
            mapped.entry(&[1, 2, 3]).unwrap().to_bits()
        );
        let (f1, f2) = (
            m.fiber(1, &[2, 3]).unwrap(),
            mapped.fiber(1, &[2, 3]).unwrap(),
        );
        assert!(f1.iter().zip(&f2).all(|(a, b)| a.to_bits() == b.to_bits()));
        let (s1, s2) = (
            m.slice(0, 2, &[1]).unwrap(),
            mapped.slice(0, 2, &[1]).unwrap(),
        );
        assert!(s1
            .as_slice()
            .iter()
            .zip(s2.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Clones share the same map (one mapping per model).
        let clone = mapped.clone();
        assert_eq!(clone.residency(), Residency::Mapped);
        assert_eq!(clone, mapped);
        // A mapped model survives its file being replaced (atomic rename
        // leaves the old inode's pages intact).
        sample_model().save(&path).unwrap();
        assert_eq!(
            mapped.entry(&[0, 0, 0]).unwrap().to_bits(),
            m.entry(&[0, 0, 0]).unwrap().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_containers_are_rejected_by_shared_load_too() {
        let dir = std::env::temp_dir().join(format!("tpcp_model_sharedbad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = sample_model().to_bytes();
        // Flip a byte inside a factor page's slab region.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 24] ^= 0xff;
        let path = dir.join("bad.2pcpm");
        std::fs::write(&path, &bad).unwrap();
        assert!(Model::load_shared(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_entries_match_singles_bitwise() {
        for model in [sample_model(), {
            let dir = std::env::temp_dir().join(format!("tpcp_model_batch_{}", std::process::id()));
            let path = dir.join("demo.2pcpm");
            sample_model().save(&path).unwrap();
            let m = Model::load_shared(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            m
        }] {
            let dims = model.dims();
            let queries: Vec<Vec<usize>> = (0..17)
                .map(|q| {
                    dims.iter()
                        .enumerate()
                        .map(|(h, &d)| (q * 5 + h * 3) % d)
                        .collect()
                })
                .collect();
            let batched = model.entries(&queries).unwrap();
            for (q, v) in queries.iter().zip(&batched) {
                assert_eq!(
                    v.to_bits(),
                    model.entry(q).unwrap().to_bits(),
                    "batched entry differs at {q:?} ({:?})",
                    model.residency()
                );
            }
        }
    }

    #[test]
    fn batched_fibers_match_singles_bitwise() {
        let model = sample_model();
        let dims = model.dims();
        for mode in 0..dims.len() {
            let queries: Vec<Vec<usize>> = (0..9)
                .map(|q| {
                    (0..dims.len())
                        .filter(|&h| h != mode)
                        .map(|h| (q * 7 + h) % dims[h])
                        .collect()
                })
                .collect();
            let batched = model.fibers(mode, &queries).unwrap();
            for (q, fib) in queries.iter().zip(&batched) {
                let single = model.fiber(mode, q).unwrap();
                assert_eq!(fib.len(), single.len());
                for (a, b) in fib.iter().zip(&single) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "batched fiber differs: mode {mode}, fixed {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_rows_gather_factor_rows() {
        let model = sample_model();
        let picked = model.rows(0, &[3, 0, 3]).unwrap();
        assert_eq!(picked.shape(), (3, model.rank()));
        assert_eq!(picked.row(0), model.factor(0).row(3));
        assert_eq!(picked.row(1), model.factor(0).row(0));
        assert!(model.rows(0, &[99]).is_err());
        assert!(model.rows(9, &[0]).is_err());
    }

    #[test]
    fn batched_bad_queries_are_errors() {
        let model = sample_model();
        assert!(model.entries(&[vec![0, 0]]).is_err()); // wrong arity
        assert!(model.entries(&[vec![99, 0, 0]]).is_err()); // out of range
        assert!(model.fibers(7, &[vec![0, 0]]).is_err()); // bad mode
        assert!(model.fibers(0, &[vec![0]]).is_err()); // wrong arity
        assert!(model.entries(&[]).unwrap().is_empty()); // empty batch ok
    }

    #[test]
    fn queries_match_dense_reconstruction() {
        let m = sample_model();
        let x = m.to_cp().reconstruct_dense();
        let dims = m.dims();
        // Every entry, bitwise.
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for k in 0..dims[2] {
                    let direct = x.get(&[i, j, k]).unwrap();
                    assert_eq!(m.entry(&[i, j, k]).unwrap(), direct);
                }
            }
        }
        // Mode-1 fiber at (i=2, k=3) against entries (tolerance, not
        // bitwise: the fiber path multiplies modes in a different order).
        let fiber = m.fiber(1, &[2, 3]).unwrap();
        for (j, &v) in fiber.iter().enumerate() {
            assert!((v - m.entry(&[2, j, 3]).unwrap()).abs() < 1e-12);
        }
        // Slice (modes 0×2) at j=1 against entries.
        let slice = m.slice(0, 2, &[1]).unwrap();
        for i in 0..dims[0] {
            for k in 0..dims[2] {
                assert!((slice.get(i, k) - m.entry(&[i, 1, k]).unwrap()).abs() < 1e-12);
            }
        }
        // Top-k is the sorted fiber prefix.
        let top = m.top_k(1, &[2, 3], 2).unwrap();
        let mut sorted: Vec<(usize, f64)> = fiber.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(top, sorted[..2]);
    }

    #[test]
    fn cosine_is_reflexive_and_bounded() {
        let m = sample_model();
        assert!((m.cosine(0, 2, 2).unwrap() - 1.0).abs() < 1e-12);
        let sims = m.similar_rows(0, 0, 10).unwrap();
        assert_eq!(sims.len(), m.dims()[0] - 1);
        assert!(sims
            .iter()
            .all(|&(r, s)| r != 0 && (-1.0001..=1.0001).contains(&s)));
        assert!(sims.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    /// The scalar `similar_rows`: `weighted_cosine` per row, a full sort,
    /// a truncate.
    fn similar_rows_oracle(m: &Model, mode: usize, row: usize, k: usize) -> Vec<(usize, f64)> {
        let a = m.factor(mode);
        let anchor = a.row(row);
        let mut ranked: Vec<(usize, f64)> = (0..a.rows())
            .filter(|&r| r != row)
            .map(|r| (r, weighted_cosine(anchor, a.row(r), m.weights())))
            .collect();
        ranked.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        ranked.truncate(k);
        ranked
    }

    /// The full-sort `rank_fiber`.
    fn rank_fiber_oracle(fiber: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = fiber.into_iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    fn ranked_bits(r: &[(usize, f64)]) -> Vec<(usize, u64)> {
        r.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// Ragged row counts against the interleave (13 and 11 are not
    /// multiples of it, 16 is, 3 is below it), a zero row, and exact
    /// duplicate rows so that ties fall to the index.
    fn similarity_model(rank: usize, seed: u64) -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dims = [13usize, 16, 3, 11];
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| {
                let mut f = random_factor(d, rank, &mut rng);
                for c in 0..rank {
                    f.set(1, c, 0.0);
                    f.set(d - 1, c, f.get(0, c));
                    if d > 4 {
                        f.set(4, c, f.get(0, c));
                    }
                }
                f
            })
            .collect();
        let weights = (0..rank).map(|f| 0.5 + f as f64 * 0.37).collect();
        let meta = ModelMeta {
            name: "sim".into(),
            rank,
            dims: dims.to_vec(),
            seed,
            fit: 0.9,
            schedule: "HO".into(),
            parts: vec![1],
            compress: None,
        };
        Model::new(meta, CpModel::new(weights, factors).unwrap()).unwrap()
    }

    #[test]
    fn similar_rows_is_bitwise_the_scalar_full_sort() {
        let dir = std::env::temp_dir().join(format!("tpcp_model_sim_{}", std::process::id()));
        for rank in [1, 32] {
            let owned = similarity_model(rank, 5 + rank as u64);
            let path = dir.join(format!("sim{rank}.2pcpm"));
            owned.save(&path).unwrap();
            let mapped = Model::load_shared(&path).unwrap();
            assert_eq!(mapped.residency(), Residency::Mapped);
            for mode in 0..owned.order() {
                let rows = owned.dims()[mode];
                for row in 0..rows {
                    for k in [0, 1, 10, rows - 1, rows, rows + 5] {
                        let want = ranked_bits(&similar_rows_oracle(&owned, mode, row, k));
                        for m in [&owned, &mapped] {
                            let got = ranked_bits(&m.similar_rows(mode, row, k).unwrap());
                            assert_eq!(
                                got,
                                want,
                                "rank {rank} mode {mode} row {row} k {k} ({:?})",
                                m.residency()
                            );
                        }
                    }
                    for (j, v) in owned.similar_rows(mode, row, rows).unwrap() {
                        assert_eq!(v.to_bits(), owned.cosine(mode, row, j).unwrap().to_bits());
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn similar_rows_ties_break_by_index() {
        let m = similarity_model(4, 3);
        // Rows 0, 4 and 12 of mode 0 are one row; asked from row 0 the
        // other two tie at the top, lower index first.
        let top = m.similar_rows(0, 0, 2).unwrap();
        assert_eq!(top.iter().map(|p| p.0).collect::<Vec<_>>(), [4, 12]);
        assert_eq!(top[0].1.to_bits(), top[1].1.to_bits());
        // The zero row compares as 0.0 from either side.
        assert_eq!(m.cosine(0, 1, 5).unwrap(), 0.0);
        assert!(m.similar_rows(0, 1, 20).unwrap().iter().all(|p| p.1 == 0.0));
    }

    #[test]
    fn norm_cache_is_filled_once_and_shared_by_clones() {
        let m = similarity_model(6, 8);
        assert!(m.norms.iter().all(|n| n.get().is_none()));
        m.similar_rows(1, 2, 3).unwrap();
        let clone = m.clone();
        assert!(Arc::ptr_eq(&m.norms, &clone.norms));
        let filled = clone.norms[1].get().expect("filled through the original");
        assert_eq!(filled.len(), m.dims()[1]);
        assert!(clone.norms[0].get().is_none(), "only the asked mode fills");
        assert_eq!(
            ranked_bits(&clone.similar_rows(1, 2, 3).unwrap()),
            ranked_bits(&m.similar_rows(1, 2, 3).unwrap())
        );
    }

    #[test]
    fn rank_fiber_is_bitwise_the_full_sort() {
        let nan = f64::NAN;
        let fibers = [
            vec![],
            vec![
                0.0,
                -0.0,
                nan,
                1.0,
                -nan,
                1.0,
                f64::NEG_INFINITY,
                f64::INFINITY,
                -0.0,
                0.0,
            ],
            (0..37).map(|i| ((i * 7) % 5) as f64 - 2.0).collect(),
            (0..29).map(|i| (i as f64 * 0.7).sin()).collect(),
        ];
        for fiber in fibers {
            let n = fiber.len();
            for k in [0, 1, 3, 10, n.saturating_sub(1), n, n + 5] {
                assert_eq!(
                    ranked_bits(&rank_fiber(fiber.clone(), k)),
                    ranked_bits(&rank_fiber_oracle(fiber.clone(), k)),
                    "n {n} k {k}"
                );
            }
        }
    }

    #[test]
    fn bad_queries_are_errors_not_panics() {
        let m = sample_model();
        assert!(m.entry(&[0, 0]).is_err()); // wrong arity
        assert!(m.entry(&[99, 0, 0]).is_err()); // out of range
        assert!(m.fiber(7, &[0, 0]).is_err()); // bad mode
        assert!(m.slice(1, 1, &[0, 0]).is_err()); // duplicate free modes
        assert!(m.cosine(0, 0, 99).is_err());
        assert!(m.similar_rows(9, 0, 3).is_err());
    }

    #[test]
    fn corrupted_containers_are_rejected() {
        let good = sample_model().to_bytes();
        // Flip a metadata byte — checksum must catch it.
        let mut bad = good.clone();
        bad[20] ^= 0xff;
        assert!(Model::from_bytes(&bad).is_err());
        // Truncations at every prefix parse as errors, never panic.
        for cut in [0, 4, 15, 16, 40, good.len() - 1] {
            assert!(Model::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(Model::from_bytes(&bad).is_err());
        // Hostile declared metadata length.
        let mut bad = good;
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Model::from_bytes(&bad).is_err());
    }
}
