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
//! checksummed, bulk-copy format the unit stores swap — and the loader
//! decodes them with `tpcp_storage::codec::decode`, so a corrupted factor
//! fails the same way a corrupted swap page does. A loaded model owns its
//! factors: it reads the file once and never looks at it again, so
//! whatever later happens to the file cannot change a model in memory.
//!
//! Besides persistence, [`Model`] is the shared query surface: the
//! serving daemon (`tpcp-serve`) and in-process verification both answer
//! entry/fiber/slice/top-k/similarity questions through these methods,
//! which is what makes served answers bitwise-comparable to local ones.
//! [`Model::entries`] is [`Model::entry`] over a list, kept for callers
//! that hold one; the server answers a batch of queries one query at a
//! time, through the same methods a lone query uses.

use crate::{config::TwoPcpConfig, driver::TwoPcpOutcome, Result, TwoPcpError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use tpcp_compress::CompressProvenance;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_schedule::UnitId;
use tpcp_storage::{codec, UnitData};

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

/// A saved/loadable decomposition: metadata plus the weighted factors,
/// held as owned matrices.
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
    cp: CpModel,
    /// Per mode, `sqrt(Σ_f (λ_f·A[r, f])²)` for every row `r` (8 B per
    /// row), filled lazily by [`Model::row_norms`].
    norms: Arc<[OnceLock<Vec<f64>>]>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model").field("meta", &self.meta).finish()
    }
}

impl PartialEq for Model {
    /// Value equality: same metadata, same weights, same factor entries.
    /// The row-norm cache is not compared.
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.cp == other.cp
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
        Ok(Model::with_cp(meta, cp))
    }

    fn with_cp(meta: ModelMeta, cp: CpModel) -> Self {
        Model {
            meta,
            norms: (0..cp.order()).map(|_| OnceLock::new()).collect(),
            cp,
        }
    }

    /// Promotes a driver outcome into a named artifact, recording the
    /// run's provenance (seed, schedule, grid) from its config.
    pub fn from_outcome(name: &str, outcome: &TwoPcpOutcome, config: &TwoPcpConfig) -> Self {
        Model::with_cp(
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
            outcome.model.clone(),
        )
    }

    /// Decomposition rank `F`.
    pub fn rank(&self) -> usize {
        self.weights().len()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.cp.order()
    }

    /// Tensor shape.
    pub fn dims(&self) -> Vec<usize> {
        self.cp.dims()
    }

    /// The component weights λ.
    pub fn weights(&self) -> &[f64] {
        &self.cp.weights
    }

    /// Mode `mode`'s factor matrix.
    ///
    /// # Panics
    /// Panics when `mode >= self.order()`; the query methods check
    /// `mode` and answer an error instead, so use them for untrusted input.
    pub fn factor(&self, mode: usize) -> &Mat {
        &self.cp.factors[mode]
    }

    /// The weighted factors as a [`CpModel`].
    pub fn to_cp(&self) -> &CpModel {
        &self.cp
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
                factor: self.factor(h).clone(),
                sub_factors: Vec::new(),
            });
            out.extend_from_slice(&(page.len() as u64).to_le_bytes());
            out.extend_from_slice(&page);
            pad8(&mut out);
        }
        out
    }

    /// Writes the container to `path`, atomically (write to a sibling
    /// temp file, then rename over the destination), so a concurrent
    /// [`Model::load`] of `path` reads either the old container or the
    /// new one, never a half-written file.
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

    /// Loads a container from `path`: the file is read once and decoded
    /// into owned matrices.
    ///
    /// # Errors
    /// [`TwoPcpError::Storage`] on I/O failure, [`TwoPcpError::Model`]
    /// on a malformed or corrupted container.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// [`Model::load`]. Nothing in the workspace needs this; it leaves
    /// with ROADMAP 1(b).
    ///
    /// # Errors
    /// As [`Model::load`].
    pub fn load_shared(path: impl AsRef<Path>) -> Result<Self> {
        Self::load(path)
    }

    /// Parses a container from bytes into a model (the inverse of
    /// [`Model::to_bytes`]).
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
            check_factor_page(&meta, h, &unit)?;
            factors.push(unit.factor);
            pos = next;
        }
        let cp = CpModel::new(weights, factors)
            .map_err(|e| model_err(format!("factors disagree with metadata: {e}")))?;
        Model::new(meta, cp)
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
        // product, then one matmul_t gives every (i, j) at once.
        let mut scaled = self.factor(mode_r).clone();
        scaled.scale_columns(&prod);
        Ok(scaled
            .matmul_t(self.factor(mode_c))
            .expect("both factors have rank columns"))
    }

    /// The `k` largest entries of the mode-`mode` fiber at `fixed`,
    /// as `(index, value)` sorted by value descending (ties by index).
    /// Every NaN ranks as one value after every number and is reported as
    /// `f64::NAN`.
    pub fn top_k(&self, mode: usize, fixed: &[usize], k: usize) -> Result<Vec<(usize, f64)>> {
        let fiber = self.fiber(mode, fixed)?;
        Ok(rank_fiber(fiber, k))
    }

    /// Cosine similarity between rows `i` and `j` of mode `mode`'s factor
    /// (each row weighted by λ). Zero-norm rows compare as `0.0`, and a
    /// NaN cosine is `f64::NAN`, whatever sign the arithmetic left on it.
    /// Bitwise the value [`Model::similar_rows`] reports for `j` when
    /// asked about `i`.
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
    /// similarity descending (ties by index), NaN last as in
    /// [`Model::top_k`].
    ///
    /// Cost: one O(rows·F) pass for the dot products, one division per
    /// row, and an O(rows + a·log k) ranking for `a` heap admissions.
    /// Every row's λ-weighted norm is computed once per model (see
    /// [`Model`] on why that cache is sound), and the dot products run a
    /// fixed block of rows side by side, each row keeping its own
    /// accumulator in ascending `f` — exactly [`Model::cosine`]'s
    /// arithmetic, so every value is bitwise what it returns for the same
    /// pair.
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
        let wx: Vec<f64> = a.row(row).iter().zip(w).map(|(&x, &w)| w * x).collect();
        let wx = &wx[..n];
        let full = rows - rows % SIMILAR_LANES;
        let mut sims = Vec::with_capacity(rows);
        for base in (0..full).step_by(SIMILAR_LANES) {
            // Slices of exactly `n` let the compiler drop every bounds
            // check from the inner loop.
            let lanes: [&[f64]; SIMILAR_LANES] = std::array::from_fn(|l| &a.row(base + l)[..n]);
            let mut ab = [0.0f64; SIMILAR_LANES];
            for f in 0..n {
                let (wxf, wf) = (wx[f], w[f]);
                for (acc, lane) in ab.iter_mut().zip(&lanes) {
                    *acc += wxf * (wf * lane[f]);
                }
            }
            sims.extend_from_slice(&ab);
        }
        sims.extend((full..rows).map(|r| {
            wx.iter()
                .zip(w)
                .zip(a.row(r))
                .fold(0.0, |ab, ((&wxf, &wf), &y)| ab + wxf * (wf * y))
        }));
        // `weighted_cosine`'s `ab / (aa.sqrt() * bb.sqrt())`, zero when
        // either norm is: the dot products become cosines in place.
        let sa = norms[row];
        if sa == 0.0 {
            sims.fill(0.0);
        } else {
            for (s, &sb) in sims.iter_mut().zip(norms) {
                let cos = *s / (sa * sb);
                *s = if sb == 0.0 { 0.0 } else { cos };
            }
        }
        let others = sims.iter().enumerate().filter(|&(r, _)| r != row);
        Ok(top_ranked(others.map(|(r, &s)| (r, s)), k))
    }

    /// Mode `mode`'s per-row λ-weighted norm `sqrt(Σ_f (λ_f·A[r, f])²)`,
    /// summed in ascending `f` — the norm half of [`weighted_cosine`],
    /// computed on first use and kept for the model's life.
    fn row_norms(&self, mode: usize) -> &[f64] {
        self.norms[mode].get_or_init(|| {
            let a = self.factor(mode);
            let w = self.weights();
            (0..a.rows())
                .map(|r| {
                    let bb = a.row(r).iter().zip(w).fold(0.0, |bb, (&y, &w)| {
                        let wy = w * y;
                        bb + wy * wy
                    });
                    bb.sqrt()
                })
                .collect()
        })
    }

    /// [`Model::entry`] for each query, in order: bitwise its values.
    ///
    /// # Errors
    /// [`TwoPcpError::Model`] on the first query with wrong arity or an
    /// out-of-range index (all-or-nothing).
    pub fn entries(&self, queries: &[Vec<usize>]) -> Result<Vec<f64>> {
        queries.iter().map(|q| self.entry(q)).collect()
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

    fn factor_checked(&self, mode: usize) -> Result<&Mat> {
        if mode >= self.order() {
            return Err(model_err(format!(
                "mode {mode} out of range for an order-{} tensor",
                self.order()
            )));
        }
        Ok(self.factor(mode))
    }
}

/// Ranks a fiber's entries for [`Model::top_k`]: value descending, NaN
/// last, ties by index, truncated to `k`.
fn rank_fiber(fiber: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
    top_ranked(fiber.into_iter().enumerate(), k)
}

/// Rows per interleaved block in [`Model::similar_rows`]: that many
/// independent dot-product chains in flight at once.
const SIMILAR_LANES: usize = 8;

/// The key every NaN ranks under: below every number's [`order_key`].
/// (It is the key `total_cmp` gives the all-ones NaN, which is why no
/// number has it.)
const NAN_KEY: i64 = i64::MIN;

/// The ranking's order as an integer: on numbers,
/// `order_key(a).cmp(&order_key(b))` is `a.total_cmp(&b)` and
/// [`from_order_key`] undoes it bit for bit; every NaN, whatever its sign
/// and payload, is [`NAN_KEY`] and comes back as `f64::NAN`. Rust leaves a
/// NaN result's sign unspecified, so ranking NaNs by their bits would let
/// a served answer change order between builds.
fn order_key(v: f64) -> i64 {
    if v.is_nan() {
        return NAN_KEY;
    }
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

fn from_order_key(key: i64) -> f64 {
    if key == NAN_KEY {
        return f64::NAN;
    }
    // The transform keeps the sign bit, so it is its own inverse.
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// The `k` first of `candidates` under value descending by
/// [`order_key`] (every NaN one value, after every number), then index
/// ascending — exactly a full sort then a truncate. The candidates must
/// come in ascending index order.
///
/// One streaming pass holds the best `min(k, seen)` in a heap whose top
/// is the worst of them. A later candidate loses every tie on index, so
/// it is admitted only when its key beats the worst's: one integer
/// compare rejects it. O(n + a·log k) for `a` admissions.
fn top_ranked(candidates: impl Iterator<Item = (usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    let mut candidates = candidates.map(|(i, v)| (Reverse(order_key(v)), i));
    let mut heap: BinaryHeap<(Reverse<i64>, usize)> = candidates.by_ref().take(k).collect();
    if let Some(&(Reverse(mut worst), _)) = heap.peek() {
        for (Reverse(key), i) in candidates {
            if key > worst {
                // Replacing the top through `PeekMut` sifts it down on drop.
                *heap.peek_mut().expect("the heap holds k > 0 entries") = (Reverse(key), i);
                worst = heap.peek().expect("still k entries").0 .0;
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|(Reverse(key), i)| (i, from_order_key(key)))
        .collect()
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
    let cos = ab / (aa.sqrt() * bb.sqrt());
    // A NaN's sign is unspecified: report the one NaN the ranking reports.
    if cos.is_nan() {
        f64::NAN
    } else {
        cos
    }
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
    let (meta, weights) = decode_meta(&bytes[16..meta_end], version)?;
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

/// Checks what the codec cannot know about factor `h`'s page: that it
/// holds unit `⟨h, 0⟩` with no sub-factors, shaped `dims[h] × rank` as
/// the metadata says.
fn check_factor_page(meta: &ModelMeta, h: usize, page: &UnitData) -> Result<()> {
    if page.unit != UnitId::new(h, 0) || !page.sub_factors.is_empty() {
        return Err(model_err(format!("factor {h} page carries the wrong unit")));
    }
    let (rows, cols) = page.factor.shape();
    if (rows, cols) != (meta.dims[h], meta.rank) {
        return Err(model_err(format!(
            "factor {h} is {rows}×{cols}, metadata says {}×{}",
            meta.dims[h], meta.rank
        )));
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

/// Decodes the metadata block: the fields, then λ right after the last
/// of them, which must end the block exactly.
fn decode_meta(bytes: &[u8], version: u32) -> Result<(ModelMeta, Vec<f64>)> {
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
    let (left, want) = (bytes.len() - r.pos, rank as usize * 8);
    if left != want {
        return Err(model_err(format!(
            "metadata block has {left} bytes after its fields; the {rank} weights take {want}"
        )));
    }
    let weights = (0..rank).map(|_| r.f64()).collect::<Result<_>>()?;
    let meta = ModelMeta {
        name,
        rank: rank as usize,
        dims,
        seed,
        fit,
        schedule,
        parts,
        compress,
    };
    Ok((meta, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpcp_tensor::random_factor;

    fn sample_model() -> Model {
        sample_model_seeded(11)
    }

    fn sample_model_seeded(seed: u64) -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
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
                seed,
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
    fn roundtrip_file_is_identity() {
        let m = sample_model();
        let dir = std::env::temp_dir().join(format!("tpcp_model_rt_{}", std::process::id()));
        let path = dir.join("demo.2pcpm");
        m.save(&path).unwrap();
        assert_eq!(m, Model::load(&path).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loaded_model_is_bitwise_equal_and_keeps_its_bits_after_a_save_over_it() {
        let m = sample_model();
        let dir = std::env::temp_dir().join(format!("tpcp_model_saveover_{}", std::process::id()));
        let path = dir.join("demo.2pcpm");
        m.save(&path).unwrap();
        let loaded = Model::load(&path).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for h in 0..m.order() {
            assert_eq!(m.factor(h).shape(), loaded.factor(h).shape());
            assert_eq!(
                bits(m.factor(h).as_slice()),
                bits(loaded.factor(h).as_slice())
            );
        }
        assert_eq!(
            m.entry(&[1, 2, 3]).unwrap().to_bits(),
            loaded.entry(&[1, 2, 3]).unwrap().to_bits()
        );
        assert_eq!(
            bits(&m.fiber(1, &[2, 3]).unwrap()),
            bits(&loaded.fiber(1, &[2, 3]).unwrap())
        );
        assert_eq!(
            bits(m.slice(0, 2, &[1]).unwrap().as_slice()),
            bits(loaded.slice(0, 2, &[1]).unwrap().as_slice())
        );
        // Saving a different model over the file leaves the loaded one as
        // it was, and the next load reads the new one.
        let other = sample_model_seeded(12);
        assert_ne!(other.to_bytes(), m.to_bytes());
        other.save(&path).unwrap();
        for h in 0..m.order() {
            let (a, b) = (m.factor(h).as_slice(), loaded.factor(h).as_slice());
            assert_eq!(bits(a), bits(b), "factor {h} after save");
        }
        assert_eq!(Model::load(&path).unwrap(), other);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_entries_match_singles_bitwise() {
        let model = sample_model();
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
                "batched entry differs at {q:?}"
            );
        }
    }

    #[test]
    fn batched_bad_queries_are_errors() {
        let model = sample_model();
        assert!(model.entries(&[vec![0, 0]]).is_err()); // wrong arity
        assert!(model.entries(&[vec![99, 0, 0]]).is_err()); // out of range
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
        ranked.sort_by(ranking_order);
        ranked.truncate(k);
        ranked
    }

    /// The ranking's specification as a comparator: value descending by
    /// `total_cmp` among numbers, every NaN after every number and equal to
    /// every other NaN, ties by index ascending.
    fn ranking_order(x: &(usize, f64), y: &(usize, f64)) -> std::cmp::Ordering {
        let by_value = match (x.1.is_nan(), y.1.is_nan()) {
            (false, false) => y.1.total_cmp(&x.1),
            (x_nan, y_nan) => x_nan.cmp(&y_nan),
        };
        by_value.then(x.0.cmp(&y.0))
    }

    /// The full-sort `rank_fiber`, reporting every NaN as `f64::NAN`.
    fn rank_fiber_oracle(fiber: Vec<f64>, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = fiber.into_iter().enumerate().collect();
        ranked.sort_by(ranking_order);
        ranked.truncate(k);
        for r in &mut ranked {
            if r.1.is_nan() {
                r.1 = f64::NAN;
            }
        }
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

    /// A model over the given factors and weights.
    fn model_of(weights: Vec<f64>, factors: Vec<Mat>) -> Model {
        let meta = ModelMeta {
            name: "edge".into(),
            rank: weights.len(),
            dims: factors.iter().map(Mat::rows).collect(),
            seed: 0,
            fit: 0.0,
            schedule: "HO".into(),
            parts: vec![1],
            compress: None,
        };
        Model::new(meta, CpModel::new(weights, factors).unwrap()).unwrap()
    }

    /// Mode-0 rows whose cosines hit the ranking's edges: duplicates (ties),
    /// a zero row, a cosine that underflows to `-0.0` and one that is
    /// `+0.0`, infinite and NaN entries (NaN cosines), and a row whose
    /// squared norm is subnormal.
    fn edge_similarity_model() -> Model {
        let inf = f64::INFINITY;
        let rows: [&[f64]; 11] = [
            &[1.0, 0.0],
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[-1e-320, 1e10],
            &[0.0, 1.0],
            &[inf, 0.0],
            &[f64::NAN, 0.0],
            &[-inf, 1.0],
            &[-1.0, 0.0],
            &[1e-160, 0.0],
            &[-f64::NAN, 2.0],
        ];
        model_of(
            vec![1.0, 1.0],
            vec![Mat::from_rows(&rows), Mat::from_rows(&[&[1.0, 1.0]])],
        )
    }

    #[test]
    fn similar_rows_is_bitwise_the_scalar_full_sort() {
        let models = [
            similarity_model(1, 6),
            similarity_model(32, 37),
            edge_similarity_model(),
        ];
        for m in &models {
            for mode in 0..m.order() {
                let rows = m.dims()[mode];
                for row in 0..rows {
                    for k in [0, 1, 10, rows - 1, rows, rows + 5, usize::MAX] {
                        let want = ranked_bits(&similar_rows_oracle(m, mode, row, k));
                        let got = ranked_bits(&m.similar_rows(mode, row, k).unwrap());
                        let rank = m.rank();
                        assert_eq!(got, want, "rank {rank} mode {mode} row {row} k {k}");
                    }
                    for (j, v) in m.similar_rows(mode, row, rows).unwrap() {
                        assert_eq!(v.to_bits(), m.cosine(mode, row, j).unwrap().to_bits());
                    }
                }
            }
        }
        // The edge rows do produce the edge values.
        let e = edge_similarity_model();
        let sims: Vec<u64> = e
            .similar_rows(0, 0, 20)
            .unwrap()
            .iter()
            .map(|p| p.1.to_bits())
            .collect();
        assert!(sims.contains(&(-0.0f64).to_bits()) && sims.contains(&0.0f64.to_bits()));
        // NaN cosines (rows 6 and 10, whose NaNs carry both signs) are the
        // one canonical NaN, ranked last.
        let ranked = e.similar_rows(0, 0, 20).unwrap();
        let nans: Vec<(usize, u64)> = ranked
            .iter()
            .filter(|p| p.1.is_nan())
            .map(|p| (p.0, p.1.to_bits()))
            .collect();
        let nan = f64::NAN.to_bits();
        assert_eq!(nans, [(5, nan), (6, nan), (7, nan), (10, nan)]);
        assert!(ranked[ranked.len() - nans.len()..]
            .iter()
            .all(|p| p.1.is_nan()));
        // A zero-norm query row compares as 0.0 with every row.
        let zero = e.similar_rows(0, 1, usize::MAX).unwrap();
        assert_eq!(zero.len(), 10);
        assert!(zero.iter().all(|p| p.1.to_bits() == 0.0f64.to_bits()));
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
        // Each entry is the square root `weighted_cosine` takes of the
        // row's λ-weighted sum of squares, bit for bit.
        let a = m.factor(1);
        for (r, &norm) in filled.iter().enumerate() {
            let bb = a
                .row(r)
                .iter()
                .zip(m.weights())
                .fold(0.0, |bb, (&y, &w)| bb + (w * y) * (w * y));
            assert_eq!(norm.to_bits(), bb.sqrt().to_bits(), "row {r}");
        }
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
            // Long enough that the heap admits and rejects many times over,
            // with every value repeated and every edge value mixed in.
            (0..600)
                .map(|i| match i % 97 {
                    0 => nan,
                    1 => -nan,
                    2 => f64::INFINITY,
                    3 => f64::NEG_INFINITY,
                    4 => -0.0,
                    5 => 0.0,
                    _ => ((i * 37) % 101) as f64 * 0.5 - 20.0,
                })
                .collect(),
        ];
        for fiber in fibers {
            let n = fiber.len();
            // A rank-1 model whose mode-0 fiber at (0) is `fiber`, bit for
            // bit: λ = 1 and a mode-1 factor of one 1.0.
            let m = model_of(
                vec![1.0],
                vec![
                    Mat::from_vec(n, 1, fiber.clone()),
                    Mat::from_vec(1, 1, vec![1.0]),
                ],
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&m.fiber(0, &[0]).unwrap()), bits(&fiber));
            for k in [0, 1, 3, 10, n.saturating_sub(1), n, n + 5, usize::MAX] {
                let want = ranked_bits(&rank_fiber_oracle(fiber.clone(), k));
                assert_eq!(
                    ranked_bits(&rank_fiber(fiber.clone(), k)),
                    want,
                    "n {n} k {k}"
                );
                let got = ranked_bits(&m.top_k(0, &[0], k).unwrap());
                assert_eq!(got, want, "top_k n {n} k {k}");
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
        let model = sample_model();
        let good = model.to_bytes();
        let meta_len = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
        let meta = &good[16..16 + meta_len];
        let pages_at = align8(16 + meta_len + 8);
        // The container with its metadata block replaced by `block`,
        // resealed: new length, new checksum, padding, then the factor
        // pages unchanged at their new offset.
        let reseal = |block: &[u8]| {
            let mut bytes = good[..12].to_vec();
            bytes.extend_from_slice(&(block.len() as u32).to_le_bytes());
            bytes.extend_from_slice(block);
            let sum = codec::fnv1a(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            pad8(&mut bytes);
            bytes.extend_from_slice(&good[pages_at..]);
            bytes
        };
        // Factor 0's page: past the fixed header, the metadata block, its
        // checksum and the padding, then the page's u64 length prefix.
        let start = pages_at + 8;
        let page_len = u64::from_le_bytes(good[start - 8..start].try_into().unwrap());
        let end = start + page_len as usize;
        // Overwrites one header word of that page and reseals its checksum,
        // so only the structural checks can catch the lie.
        let lie = |offset: usize, value: u32| {
            let mut bytes = good.clone();
            bytes[start + offset..start + offset + 4].copy_from_slice(&value.to_le_bytes());
            let sum = codec::fnv1a(&bytes[start..end - 8]);
            bytes[end - 8..end].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        let rows = u32::from_le_bytes(good[start + 20..start + 24].try_into().unwrap());

        let dir = std::env::temp_dir().join(format!("tpcp_model_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.2pcpm");
        // Controls: resealing the true metadata block, or a page's true
        // value, loads the same model.
        for (what, bytes) in [("metadata", reseal(meta)), ("page", lie(20, rows))] {
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(Model::load(&path).unwrap(), model, "resealed true {what}");
        }

        let lambda_at = meta_len - model.rank() * 8;
        let mut padded = meta[..lambda_at].to_vec();
        padded.extend_from_slice(&[0u8; 8]);
        padded.extend_from_slice(&meta[lambda_at..]);
        let mut meta_flipped = good.clone();
        meta_flipped[20] ^= 0xff;
        let mut slab_flipped = good.clone();
        let n = slab_flipped.len();
        slab_flipped[n - 24] ^= 0xff;
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut hostile_len = good.clone();
        hostile_len[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cases = vec![
            ("metadata byte flipped", meta_flipped),
            ("extra bytes before λ, resealed", reseal(&padded)),
            ("λ cut off, resealed", reseal(&meta[..lambda_at])),
            ("slab byte flipped", slab_flipped),
            ("inflated rows", lie(20, rows + 1)),
            ("sub-factor count u32::MAX", lie(28, u32::MAX)),
            ("wrong mode", lie(12, 1)),
            ("wrong magic", bad_magic),
            ("hostile metadata length", hostile_len),
        ];
        // Truncations at every kind of prefix parse as errors, never panic.
        for cut in [0, 4, 15, 16, 40, good.len() - 1] {
            cases.push(("truncated", good[..cut].to_vec()));
        }
        for (what, bytes) in cases {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                Model::load(&path).is_err(),
                "{what} ({} bytes)",
                bytes.len()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
