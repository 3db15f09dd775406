//! Streaming block ingest: yield one grid block at a time.
//!
//! The paper's headline workloads are tensors that never fit in memory,
//! so Phase 1 cannot start from a materialised `DenseTensor`. A
//! [`BlockSource`] yields one block's sub-tensor at a time — in grid
//! order or by coordinate — so the consumer's peak footprint is
//! O(largest block), not O(tensor). Three adapters ship here:
//!
//! * [`DenseMemorySource`] / [`SparseMemorySource`] — back-compat views
//!   over an already-materialised tensor (the eager [`crate::split_dense`]
//!   / [`crate::split_sparse`] are thin wrappers over them, so block
//!   extraction logic exists in exactly one place);
//! * [`FileTensorSource`] — an on-disk row-major `f64` file (raw, or with
//!   the tiny self-describing header written by
//!   [`FileTensorSource::write_dense`]), read in coalesced spans of
//!   last-mode runs through a scratch buffer bounded by
//!   `max(64 KiB, one run)`;
//!
//! plus a generator adapter in `tpcp-datasets` that synthesises blocks
//! on demand from a seeded CP model.

use crate::Grid;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tpcp_tensor::{
    advance_index, multi_index, num_elements, strides, DenseTensor, SparseBuilder, SparseTensor,
    TensorError,
};

/// Errors surfaced by block sources.
#[derive(Debug)]
pub enum SourceError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// A tensor-shape failure while cutting a block.
    Tensor(TensorError),
    /// A file failed structural validation (bad magic, truncated data…).
    Format {
        /// Explanation of the malformed input.
        reason: String,
    },
    /// A block holds a NaN or an infinity. The kernels' bitwise contract
    /// (`docs/kernels.md`) and ALS itself assume finite data.
    NonFinite {
        /// Linear id of the block holding the cell.
        block: usize,
        /// The first offending cell, in full-tensor coordinates.
        cell: Vec<usize>,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "I/O error: {e}"),
            SourceError::Tensor(e) => write!(f, "tensor error: {e}"),
            SourceError::Format { reason } => write!(f, "malformed tensor file: {reason}"),
            SourceError::NonFinite { block, cell, value } => {
                write!(
                    f,
                    "non-finite value {value} at cell {cell:?} (block {block})"
                )
            }
        }
    }
}

impl std::error::Error for SourceError {}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e)
    }
}

impl From<TensorError> for SourceError {
    fn from(e: TensorError) -> Self {
        SourceError::Tensor(e)
    }
}

/// Convenience result alias for source operations.
pub type SourceResult<T> = std::result::Result<T, SourceError>;

/// One block yielded by a [`BlockSource`] — dense or sparse, matching the
/// two Phase-1 execution families.
#[derive(Clone, Debug)]
pub enum Block {
    /// A densely stored sub-tensor.
    Dense(DenseTensor),
    /// A COO sub-tensor (coordinates re-based to the block origin).
    Sparse(SparseTensor),
}

impl Block {
    /// Dimensions of the block.
    pub fn dims(&self) -> &[usize] {
        match self {
            Block::Dense(t) => t.dims(),
            Block::Sparse(t) => t.dims(),
        }
    }

    /// Squared Frobenius norm `‖X_k‖²`.
    pub fn fro_norm_sq(&self) -> f64 {
        match self {
            Block::Dense(t) => t.fro_norm_sq(),
            Block::Sparse(t) => t.fro_norm_sq(),
        }
    }

    /// Bytes this block materialises in memory (the quantity the
    /// streaming refactor bounds): 8 per cell for dense storage,
    /// `8 + 4·order` per non-zero for COO.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Block::Dense(t) => t.len() * 8,
            Block::Sparse(t) => t.nnz() * (8 + 4 * t.order()),
        }
    }

    /// Rejects a block holding a NaN or an infinity, naming `lin` (the
    /// block's linear id in `grid`) and the first offending cell in
    /// full-tensor coordinates.
    ///
    /// # Errors
    /// [`SourceError::NonFinite`] for the first non-finite cell.
    pub fn check_finite(&self, grid: &Grid, lin: usize) -> SourceResult<()> {
        let (local, value) = match self {
            Block::Dense(t) => match first_non_finite(t.as_slice()) {
                Some(i) => (multi_index(t.dims(), i), t.as_slice()[i]),
                None => return Ok(()),
            },
            Block::Sparse(t) => match first_non_finite(t.values()) {
                Some(e) => (t.coord_of(e), t.values()[e]),
                None => return Ok(()),
            },
        };
        let coords = grid.block_coords(lin);
        let cell = local
            .iter()
            .enumerate()
            .map(|(m, &i)| grid.part_range(m, coords[m]).start + i)
            .collect();
        Err(SourceError::NonFinite {
            block: lin,
            cell,
            value,
        })
    }

    /// Unwraps a dense block.
    ///
    /// # Panics
    /// Panics when the block is sparse.
    pub fn into_dense(self) -> DenseTensor {
        match self {
            Block::Dense(t) => t,
            Block::Sparse(_) => panic!("expected a dense block"),
        }
    }

    /// Unwraps a sparse block.
    ///
    /// # Panics
    /// Panics when the block is dense.
    pub fn into_sparse(self) -> SparseTensor {
        match self {
            Block::Sparse(t) => t,
            Block::Dense(_) => panic!("expected a sparse block"),
        }
    }
}

/// Index of the first non-finite value. Each chunk is first tested by a
/// branch-free pass the compiler vectorises, so a finite block costs one
/// streaming read.
fn first_non_finite(values: &[f64]) -> Option<usize> {
    const CHUNK: usize = 1024;
    values.chunks(CHUNK).enumerate().find_map(|(c, chunk)| {
        if chunk.iter().fold(true, |finite, v| finite & v.is_finite()) {
            None
        } else {
            chunk
                .iter()
                .position(|v| !v.is_finite())
                .map(|i| c * CHUNK + i)
        }
    })
}

/// Streaming ingest of a grid-partitioned tensor.
///
/// Implementations yield blocks by linear block id (random access, so the
/// same source can serve grid-order Phase-1 ingest *and* the blockwise
/// exact-accuracy pass). The full tensor is never required to be resident;
/// a conforming implementation materialises only the requested block plus
/// a bounded scratch buffer.
pub trait BlockSource {
    /// Dimensions of the full tensor.
    fn dims(&self) -> &[usize];

    /// Loads the block with linear id `lin` of `grid`.
    ///
    /// # Errors
    /// I/O or format failures of the backing medium.
    ///
    /// # Panics
    /// Panics when the grid was built for different dimensions.
    fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block>;

    /// Cumulative payload bytes yielded so far (for memory accounting).
    fn bytes_loaded(&self) -> u64;
}

fn check_grid(dims: &[usize], grid: &Grid) {
    assert_eq!(grid.dims(), dims, "grid/tensor dimension mismatch");
}

// ---------------------------------------------------------------------------
// In-memory adapters (back-compat)
// ---------------------------------------------------------------------------

/// A [`BlockSource`] over an already-materialised dense tensor.
pub struct DenseMemorySource<'a> {
    tensor: &'a DenseTensor,
    bytes_loaded: u64,
}

impl<'a> DenseMemorySource<'a> {
    /// Wraps `tensor` without copying it.
    pub fn new(tensor: &'a DenseTensor) -> Self {
        DenseMemorySource {
            tensor,
            bytes_loaded: 0,
        }
    }
}

impl BlockSource for DenseMemorySource<'_> {
    fn dims(&self) -> &[usize] {
        self.tensor.dims()
    }

    fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
        check_grid(self.tensor.dims(), grid);
        let ranges = grid.block_ranges(&grid.block_coords(lin));
        let block = self.tensor.slice(&ranges)?;
        self.bytes_loaded += (block.len() * 8) as u64;
        Ok(Block::Dense(block))
    }

    fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded
    }
}

/// Routes every non-zero of `t` to its block in a single pass — the
/// bucketing strategy the paper's Phase-1 MapReduce mapper uses
/// (`map: ⟨b, i, j, k, X(i,j,k)⟩ on b`).
fn bucket_sparse(t: &SparseTensor, grid: &Grid) -> Vec<SparseTensor> {
    let order = grid.order();
    // part_of[m][row] = (partition index, offset within partition).
    let mut part_of: Vec<Vec<(u32, u32)>> = Vec::with_capacity(order);
    for m in 0..order {
        let mut table = vec![(0u32, 0u32); grid.dims()[m]];
        for k in 0..grid.parts()[m] {
            let r = grid.part_range(m, k);
            for (off, slot) in table[r.clone()].iter_mut().enumerate() {
                *slot = (k as u32, off as u32);
            }
        }
        part_of.push(table);
    }

    let mut builders: Vec<SparseBuilder> = grid
        .iter_blocks()
        .map(|c| SparseBuilder::new(&grid.block_dims(&c)))
        .collect();

    let mut local = vec![0usize; order];
    for e in 0..t.nnz() {
        let mut lin_block = 0usize;
        for m in 0..order {
            let (k, off) = part_of[m][t.mode_coords(m)[e] as usize];
            lin_block = lin_block * grid.parts()[m] + k as usize;
            local[m] = off as usize;
        }
        builders[lin_block].push(&local, t.values()[e]);
    }
    builders.into_iter().map(SparseBuilder::build).collect()
}

/// A [`BlockSource`] over an already-materialised sparse tensor.
///
/// The first block request triggers a single bucketing pass over the
/// non-zeros (re-run only if a different grid is supplied); subsequent
/// requests are clones of the cached buckets.
pub struct SparseMemorySource<'a> {
    tensor: &'a SparseTensor,
    buckets: Option<(Grid, Vec<SparseTensor>)>,
    bytes_loaded: u64,
}

impl<'a> SparseMemorySource<'a> {
    /// Wraps `tensor` without copying it.
    pub fn new(tensor: &'a SparseTensor) -> Self {
        SparseMemorySource {
            tensor,
            buckets: None,
            bytes_loaded: 0,
        }
    }

    fn ensure_buckets(&mut self, grid: &Grid) {
        check_grid(self.tensor.dims(), grid);
        let stale = match &self.buckets {
            Some((g, _)) => g != grid,
            None => true,
        };
        if stale {
            self.buckets = Some((grid.clone(), bucket_sparse(self.tensor, grid)));
        }
    }

    /// Consumes the bucket cache, returning every block in linear
    /// block-id order with a single bucketing pass and no per-block
    /// clones — the one-shot path behind [`crate::split_sparse`].
    ///
    /// # Panics
    /// Panics when the grid was built for different dimensions.
    pub fn take_blocks(&mut self, grid: &Grid) -> Vec<SparseTensor> {
        self.ensure_buckets(grid);
        let (_, blocks) = self.buckets.take().expect("just bucketed");
        self.bytes_loaded += blocks
            .iter()
            .map(|b| (b.nnz() * (8 + 4 * b.order())) as u64)
            .sum::<u64>();
        blocks
    }
}

impl BlockSource for SparseMemorySource<'_> {
    fn dims(&self) -> &[usize] {
        self.tensor.dims()
    }

    fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
        self.ensure_buckets(grid);
        let block = self.buckets.as_ref().expect("just bucketed").1[lin].clone();
        self.bytes_loaded += (block.nnz() * (8 + 4 * block.order())) as u64;
        Ok(Block::Sparse(block))
    }

    fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded
    }
}

// ---------------------------------------------------------------------------
// On-disk row-major file adapter
// ---------------------------------------------------------------------------

/// Magic prefix of a self-describing tensor file
/// (see [`FileTensorSource::write_dense`]).
const RAW_MAGIC: &[u8; 8] = b"2PCPRAW1";

/// Cap of the [`FileTensorSource`] read buffer: consecutive rows of the
/// penultimate mode are fetched by one positioned read while their span
/// fits in this many bytes.
const SPAN_CAP_BYTES: usize = 64 << 10;

/// A [`BlockSource`] over an on-disk row-major little-endian `f64` file.
///
/// Blocks are cut with positioned reads. Within a block, the last-mode
/// runs of consecutive penultimate-mode rows sit `I_last` cells apart in
/// the file, so one read fetches a *span* of rows — `(rows − 1)·I_last +
/// run` cells, the gaps between the runs included — and the runs are
/// copied out of it: as many rows per read as fit in 64 KiB, a single run
/// per read when one run alone exceeds that. A span ends with its last
/// run, so no read reaches past the block (or the file). Peak memory per
/// request is one block plus the span buffer,
/// [`scratch_bytes`](FileTensorSource::scratch_bytes)` ≤ max(64 KiB, one
/// run)` — never the tensor.
pub struct FileTensorSource {
    file: File,
    path: PathBuf,
    dims: Vec<usize>,
    /// Byte offset of the first cell (0 for headerless raw files).
    data_offset: u64,
    scratch: Vec<u8>,
    bytes_loaded: u64,
}

impl FileTensorSource {
    /// Opens a self-describing tensor file written by
    /// [`FileTensorSource::write_dense`] / [`write_raw_from_source`].
    ///
    /// # Errors
    /// I/O failures; [`SourceError::Format`] on bad magic or a length that
    /// disagrees with the header dimensions.
    pub fn open(path: impl AsRef<Path>) -> SourceResult<Self> {
        let mut file = File::open(path.as_ref())?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|_| SourceError::Format {
                reason: "truncated header".into(),
            })?;
        if &magic != RAW_MAGIC {
            return Err(SourceError::Format {
                reason: "bad magic (not a 2PCP tensor file)".into(),
            });
        }
        let mut word = [0u8; 8];
        file.read_exact(&mut word)
            .map_err(|_| SourceError::Format {
                reason: "truncated header".into(),
            })?;
        let order = u32::from_le_bytes(word[4..8].try_into().expect("4 bytes")) as usize;
        let version = u32::from_le_bytes(word[0..4].try_into().expect("4 bytes"));
        if version != 1 {
            return Err(SourceError::Format {
                reason: format!("unsupported version {version}"),
            });
        }
        if order == 0 || order > 16 {
            return Err(SourceError::Format {
                reason: format!("implausible order {order}"),
            });
        }
        let mut dims = Vec::with_capacity(order);
        for _ in 0..order {
            let mut d = [0u8; 8];
            file.read_exact(&mut d).map_err(|_| SourceError::Format {
                reason: "truncated dimension list".into(),
            })?;
            dims.push(u64::from_le_bytes(d) as usize);
        }
        let data_offset = 16 + 8 * order as u64;
        Self::with_layout(file, path.as_ref(), dims, data_offset)
    }

    /// Opens a headerless raw file: row-major little-endian `f64` cells of
    /// the given dimensions, nothing else.
    ///
    /// # Errors
    /// I/O failures; [`SourceError::Format`] when the file length is not
    /// exactly `Π dims × 8` bytes.
    pub fn open_raw(path: impl AsRef<Path>, dims: &[usize]) -> SourceResult<Self> {
        let file = File::open(path.as_ref())?;
        Self::with_layout(file, path.as_ref(), dims.to_vec(), 0)
    }

    fn with_layout(
        file: File,
        path: &Path,
        dims: Vec<usize>,
        data_offset: u64,
    ) -> SourceResult<Self> {
        // Untrusted dims: an overflowing size is a malformed file.
        let expect = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .and_then(|n| u64::try_from(n).ok())
            .and_then(|n| n.checked_mul(8))
            .and_then(|bytes| bytes.checked_add(data_offset))
            .ok_or_else(|| SourceError::Format {
                reason: format!("dims {dims:?} overflow the addressable size"),
            })?;
        let len = file.metadata()?.len();
        if len != expect {
            return Err(SourceError::Format {
                reason: format!("file is {len} bytes, dims {dims:?} require {expect}"),
            });
        }
        Ok(FileTensorSource {
            file,
            path: path.to_path_buf(),
            dims,
            data_offset,
            scratch: Vec::new(),
            bytes_loaded: 0,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current scratch-buffer footprint in bytes — at most
    /// `max(64 KiB, the longest last-mode run of any block ever requested)`,
    /// the "+ scratch" term of the streaming memory model.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.capacity()
    }

    /// Writes `tensor` as a self-describing file at `path`
    /// (header: magic, version, order, dims as `u64`; then the row-major
    /// little-endian cells).
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_dense(path: impl AsRef<Path>, tensor: &DenseTensor) -> SourceResult<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::io::BufWriter::new(File::create(path.as_ref())?);
        write_header(&mut f, tensor.dims())?;
        for v in tensor.as_slice() {
            f.write_all(&v.to_le_bytes())?;
        }
        f.flush()?;
        Ok(())
    }
}

/// Fills `buf` from `offset` — one `pread` on Unix, no separate `lseek`.
#[cfg(unix)]
fn read_exact_at(file: &mut File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `offset`.
#[cfg(not(unix))]
fn read_exact_at(file: &mut File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

fn write_header<W: Write>(w: &mut W, dims: &[usize]) -> std::io::Result<()> {
    w.write_all(RAW_MAGIC)?;
    w.write_all(&1u32.to_le_bytes())?;
    w.write_all(&(dims.len() as u32).to_le_bytes())?;
    for &d in dims {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    Ok(())
}

/// Streams every block of `src` into a self-describing tensor file at
/// `path`, so an arbitrarily large tensor can be laid out on disk without
/// ever materialising more than one block (plus one run of scratch).
///
/// # Errors
/// Source failures and file I/O failures.
///
/// # Panics
/// Panics when the grid was built for different dimensions.
pub fn write_raw_from_source(
    path: impl AsRef<Path>,
    src: &mut dyn BlockSource,
    grid: &Grid,
) -> SourceResult<()> {
    check_grid(src.dims(), grid);
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path.as_ref())?;
    write_header(&mut file, src.dims())?;
    let dims = src.dims().to_vec();
    let data_offset = 16 + 8 * dims.len() as u64;
    file.set_len(data_offset + 8 * num_elements(&dims) as u64)?;
    let src_strides = strides(&dims);
    let last = dims.len() - 1;
    let mut scratch: Vec<u8> = Vec::new();
    for lin in 0..grid.num_blocks() {
        let ranges = grid.block_ranges(&grid.block_coords(lin));
        let block = match src.load_block(grid, lin)? {
            Block::Dense(t) => t,
            Block::Sparse(t) => t.to_dense()?,
        };
        let run = ranges[last].end - ranges[last].start;
        let outer_dims: Vec<usize> = block.dims()[..last].to_vec();
        let outer_count: usize = outer_dims.iter().product();
        let data = block.as_slice();
        for o in 0..outer_count {
            let outer_idx = multi_index(&outer_dims, o);
            let mut cell_off = ranges[last].start;
            for (m, &oi) in outer_idx.iter().enumerate() {
                cell_off += (ranges[m].start + oi) * src_strides[m];
            }
            scratch.clear();
            for &v in &data[o * run..(o + 1) * run] {
                scratch.extend_from_slice(&v.to_le_bytes());
            }
            file.seek(SeekFrom::Start(data_offset + 8 * cell_off as u64))?;
            file.write_all(&scratch)?;
        }
    }
    file.flush()?;
    Ok(())
}

impl BlockSource for FileTensorSource {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
        check_grid(&self.dims, grid);
        let ranges = grid.block_ranges(&grid.block_coords(lin));
        let out_dims: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
        let mut out = DenseTensor::zeros(&out_dims);
        if out.is_empty() {
            return Ok(Block::Dense(out));
        }
        let src_strides = strides(&self.dims);
        let last = self.dims.len() - 1;
        let run = out_dims[last];
        // Consecutive penultimate-mode rows are `pitch` cells apart in the
        // file; an order-1 tensor is a single row.
        let pitch = self.dims[last];
        let rows = if last == 0 { 1 } else { out_dims[last - 1] };
        let outer_dims = &out_dims[..last.saturating_sub(1)];
        let cap_cells = SPAN_CAP_BYTES / 8;
        let rows_per_read = if run >= cap_cells {
            1
        } else {
            ((cap_cells - run) / pitch + 1).min(rows)
        };
        let span_bytes = ((rows_per_read - 1) * pitch + run) * 8;
        if self.scratch.len() < span_bytes {
            // A fresh exact allocation: growing in place could double the
            // capacity past the documented bound.
            self.scratch = vec![0; span_bytes];
        }

        // Cell offset of the block's first run; the outer index (every
        // mode before the penultimate) then advances as an odometer.
        let origin: usize = ranges
            .iter()
            .zip(&src_strides)
            .map(|(r, s)| r.start * s)
            .sum();
        let mut outer_idx = vec![0usize; outer_dims.len()];
        for group in out.as_mut_slice().chunks_mut(rows * run) {
            let group_off = origin
                + outer_idx
                    .iter()
                    .zip(&src_strides)
                    .map(|(i, s)| i * s)
                    .sum::<usize>();
            for (chunk_idx, dst) in group.chunks_mut(rows_per_read * run).enumerate() {
                let span_rows = dst.len() / run;
                let span = &mut self.scratch[..((span_rows - 1) * pitch + run) * 8];
                let cell_off = group_off + chunk_idx * rows_per_read * pitch;
                read_exact_at(&mut self.file, span, self.data_offset + 8 * cell_off as u64)?;
                for (dst_run, src_row) in dst.chunks_mut(run).zip(span.chunks(pitch * 8)) {
                    for (slot, bytes) in dst_run.iter_mut().zip(src_row.chunks_exact(8)) {
                        *slot = f64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
                    }
                }
            }
            advance_index(outer_dims, &mut outer_idx);
        }
        self.bytes_loaded += (out.len() * 8) as u64;
        Ok(Block::Dense(out))
    }

    fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(dims: &[usize]) -> DenseTensor {
        let n = num_elements(dims);
        DenseTensor::from_vec(dims, (0..n).map(|i| i as f64).collect())
    }

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tpcp_source_{name}_{}", std::process::id()))
    }

    #[test]
    fn check_finite_names_the_block_and_the_first_cell_globally() {
        let mut t = seq_tensor(&[5, 7, 3]);
        t.set(&[4, 6, 2], f64::NEG_INFINITY).unwrap();
        t.set(&[3, 5, 2], f64::NAN).unwrap();
        let g = Grid::new(t.dims(), &[2, 3, 2]);
        let lin = g.block_linear(&[1, 2, 1]);
        // Every cell as a COO entry (`from_dense` would drop the NaN).
        let mut coo = SparseBuilder::new(t.dims());
        for (i, &v) in t.as_slice().iter().enumerate() {
            coo.push(&multi_index(t.dims(), i), v);
        }
        let coo = coo.build();
        for sparse in [false, true] {
            for l in 0..g.num_blocks() {
                let block = if sparse {
                    SparseMemorySource::new(&coo).load_block(&g, l).unwrap()
                } else {
                    DenseMemorySource::new(&t).load_block(&g, l).unwrap()
                };
                match block.check_finite(&g, l) {
                    Ok(()) => assert_ne!(l, lin, "sparse {sparse}"),
                    Err(SourceError::NonFinite { block, cell, value }) => {
                        assert_eq!((block, l), (lin, lin), "sparse {sparse}");
                        // Row-major within the block: (3,5,2) precedes (4,6,2).
                        assert_eq!(cell, vec![3, 5, 2], "sparse {sparse}");
                        assert!(value.is_nan(), "sparse {sparse}");
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
    }

    #[test]
    fn dense_memory_source_matches_slices() {
        let t = seq_tensor(&[5, 7, 3]);
        let g = Grid::new(t.dims(), &[2, 3, 2]);
        let mut src = DenseMemorySource::new(&t);
        for lin in 0..g.num_blocks() {
            let block = src.load_block(&g, lin).unwrap().into_dense();
            let expect = t.slice(&g.block_ranges(&g.block_coords(lin))).unwrap();
            assert_eq!(block, expect);
        }
        assert_eq!(src.bytes_loaded(), (t.len() * 8) as u64);
    }

    #[test]
    fn sparse_memory_source_matches_dense_blocks() {
        let t = seq_tensor(&[6, 5, 4]);
        let s = SparseTensor::from_dense(&t, 0.5);
        let g = Grid::new(t.dims(), &[3, 2, 2]);
        let mut dsrc = DenseMemorySource::new(&t);
        let mut ssrc = SparseMemorySource::new(&s);
        for lin in 0..g.num_blocks() {
            let sb = ssrc.load_block(&g, lin).unwrap().into_sparse();
            let db = dsrc.load_block(&g, lin).unwrap().into_dense();
            assert_eq!(sb.dims(), db.dims());
            // The dense tensor has one 0.0 cell (value 0.0 at linear 0),
            // dropped by the 0.5 threshold along with the 0.5-and-below
            // cells; compare against the thresholded dense block.
            let thresholded = SparseTensor::from_dense(&db, 0.5);
            assert_eq!(sb, thresholded);
        }
        assert!(ssrc.bytes_loaded() > 0);
    }

    #[test]
    fn sparse_memory_source_rebuckets_on_grid_change() {
        let t = seq_tensor(&[4, 4]);
        let s = SparseTensor::from_dense(&t, 0.0);
        let mut src = SparseMemorySource::new(&s);
        let g1 = Grid::uniform(&[4, 4], 2);
        let g2 = Grid::new(&[4, 4], &[4, 1]);
        let b1 = src.load_block(&g1, 0).unwrap().into_sparse();
        assert_eq!(b1.dims(), &[2, 2]);
        let b2 = src.load_block(&g2, 0).unwrap().into_sparse();
        assert_eq!(b2.dims(), &[1, 4]);
    }

    #[test]
    fn file_source_roundtrips_bitwise() {
        let t = seq_tensor(&[5, 4, 3]);
        let path = tmpfile("roundtrip");
        FileTensorSource::write_dense(&path, &t).unwrap();
        let g = Grid::new(t.dims(), &[2, 2, 2]);
        let mut fsrc = FileTensorSource::open(&path).unwrap();
        assert_eq!(fsrc.dims(), t.dims());
        let mut msrc = DenseMemorySource::new(&t);
        for lin in (0..g.num_blocks()).rev() {
            // Reverse order: the source supports access by coordinate.
            let fb = fsrc.load_block(&g, lin).unwrap().into_dense();
            let mb = msrc.load_block(&g, lin).unwrap().into_dense();
            assert_eq!(fb, mb, "block {lin}");
        }
        // Scratch stays bounded by max(64 KiB, one last-mode run).
        assert!(fsrc.scratch_bytes() <= SPAN_CAP_BYTES.max(3 * 8));
        let _ = std::fs::remove_file(&path);
    }

    /// Every block of `grid` read from a file of `t` equals the in-memory
    /// cut bitwise, the payload accounting matches, and the scratch bound
    /// holds.
    fn assert_file_blocks_match_memory(name: &str, t: &DenseTensor, grid: &Grid) {
        let path = tmpfile(name);
        FileTensorSource::write_dense(&path, t).unwrap();
        let mut fsrc = FileTensorSource::open(&path).unwrap();
        let mut msrc = DenseMemorySource::new(t);
        let mut longest_run = 0;
        for lin in 0..grid.num_blocks() {
            let fb = fsrc.load_block(grid, lin).unwrap().into_dense();
            let mb = msrc.load_block(grid, lin).unwrap().into_dense();
            assert_eq!(fb.dims(), mb.dims(), "{name} block {lin}");
            let bits = |b: &DenseTensor| -> Vec<u64> {
                b.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&fb), bits(&mb), "{name} block {lin}");
            longest_run = longest_run.max(*fb.dims().last().unwrap());
        }
        assert_eq!(fsrc.bytes_loaded(), msrc.bytes_loaded(), "{name}");
        assert_eq!(fsrc.bytes_loaded(), (t.len() * 8) as u64, "{name}");
        assert!(
            fsrc.scratch_bytes() <= SPAN_CAP_BYTES.max(longest_run * 8),
            "{name}: scratch {}",
            fsrc.scratch_bytes()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn span_reads_match_memory_on_ragged_grids_of_every_order() {
        let cases: [(&[usize], &[usize]); 8] = [
            (&[37], &[4]),
            (&[9, 14], &[2, 3]),
            (&[5, 7, 3], &[2, 3, 2]),
            (&[4, 5, 3, 6], &[2, 2, 3, 2]),
            (&[3, 4, 2, 5, 3], &[2, 3, 1, 2, 2]),
            // One cell per block: every run is a single cell.
            (&[3, 4, 5], &[3, 4, 5]),
            (&[6, 4], &[6, 4]),
            // One block: the last span ends on the file's last byte.
            (&[4, 3, 5], &[1, 1, 1]),
        ];
        for (i, (dims, parts)) in cases.iter().enumerate() {
            let t = seq_tensor(dims);
            assert_file_blocks_match_memory(&format!("span{i}"), &t, &Grid::new(dims, parts));
        }
    }

    #[test]
    fn spans_straddling_the_cap_match_memory() {
        let cap_cells = SPAN_CAP_BYTES / 8;
        // Rows of 3500 cells cut into runs of 1750: two rows fit a span
        // ((2−1)·3500 + 1750 ≤ 8192 < (3−1)·3500 + 1750), so the 5-row
        // partitions are read as spans of 2 + 2 + 1 rows.
        let t = seq_tensor(&[2, 10, 3500]);
        assert_file_blocks_match_memory("cap_rows", &t, &Grid::new(t.dims(), &[2, 2, 2]));
        // A run longer than the cap is read alone, whole.
        let t = seq_tensor(&[3, cap_cells + 5]);
        assert_file_blocks_match_memory("cap_run", &t, &Grid::new(t.dims(), &[2, 1]));
        // Runs of exactly the cap.
        let t = seq_tensor(&[3, 2 * cap_cells]);
        assert_file_blocks_match_memory("cap_exact", &t, &Grid::new(t.dims(), &[1, 2]));
    }

    #[test]
    fn scratch_bound_survives_a_growing_span() {
        // 5-row blocks need a 40 000-byte span, the whole tensor then a
        // 64 000-byte one: growing the buffer must not overshoot the cap.
        let t = seq_tensor(&[10, 1000]);
        let path = tmpfile("grow");
        FileTensorSource::write_dense(&path, &t).unwrap();
        let mut src = FileTensorSource::open(&path).unwrap();
        src.load_block(&Grid::new(t.dims(), &[2, 1]), 0).unwrap();
        assert_eq!(src.scratch_bytes(), 40_000);
        let whole = src.load_block(&Grid::uniform(t.dims(), 1), 0).unwrap();
        assert_eq!(whole.into_dense(), t);
        assert!(
            src.scratch_bytes() <= SPAN_CAP_BYTES,
            "{}",
            src.scratch_bytes()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_a_typed_error_not_a_panic() {
        let t = seq_tensor(&[4, 6, 5]);
        let path = tmpfile("truncated");
        FileTensorSource::write_dense(&path, &t).unwrap();
        let g = Grid::new(t.dims(), &[2, 2, 1]);
        let mut src = FileTensorSource::open(&path).unwrap();
        // The file shrinks under the open source: the last block's final
        // span now runs past the end.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 8)
            .unwrap();
        assert!(src.load_block(&g, 0).is_ok());
        assert!(matches!(
            src.load_block(&g, g.num_blocks() - 1),
            Err(SourceError::Io(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_headerless_file_opens_with_explicit_dims() {
        let t = seq_tensor(&[3, 4]);
        let path = tmpfile("raw");
        let mut bytes = Vec::new();
        for v in t.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let g = Grid::uniform(&[3, 4], 1);
        let mut src = FileTensorSource::open_raw(&path, &[3, 4]).unwrap();
        assert_eq!(src.load_block(&g, 0).unwrap().into_dense(), t);
        // A wrong shape is rejected up front.
        assert!(matches!(
            FileTensorSource::open_raw(&path, &[5, 4]),
            Err(SourceError::Format { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_source_rejects_garbage() {
        let path = tmpfile("garbage");
        std::fs::write(&path, b"definitely not a tensor").unwrap();
        assert!(matches!(
            FileTensorSource::open(&path),
            Err(SourceError::Format { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Dims whose size overflows are a format error: no debug-build panic,
    /// and no wrapped length that a 32-byte file happens to match.
    #[test]
    fn overflowing_dims_are_a_format_error() {
        let path = tmpfile("overflow");
        for dims in [[1u64 << 61, 1], [1 << 32, 1 << 32]] {
            let mut bytes = [&RAW_MAGIC[..], &1u32.to_le_bytes(), &2u32.to_le_bytes()].concat();
            dims.iter().for_each(|d| bytes.extend(d.to_le_bytes()));
            std::fs::write(&path, &bytes).unwrap();
            let opened = FileTensorSource::open(&path);
            assert!(
                matches!(opened, Err(SourceError::Format { .. })),
                "{dims:?}"
            );
        }
        let opened = FileTensorSource::open_raw(&path, &[usize::MAX, 2]);
        assert!(matches!(opened, Err(SourceError::Format { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_raw_from_source_streams_blocks_to_disk() {
        let t = seq_tensor(&[5, 6, 4]);
        let g = Grid::new(t.dims(), &[2, 3, 2]);
        let path = tmpfile("from_source");
        let mut msrc = DenseMemorySource::new(&t);
        write_raw_from_source(&path, &mut msrc, &g).unwrap();
        let mut fsrc = FileTensorSource::open(&path).unwrap();
        let full = fsrc
            .load_block(&Grid::uniform(t.dims(), 1), 0)
            .unwrap()
            .into_dense();
        assert_eq!(full, t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn source_rejects_wrong_grid() {
        let t = seq_tensor(&[4, 4]);
        let g = Grid::uniform(&[8, 8], 2);
        let _ = DenseMemorySource::new(&t).load_block(&g, 0);
    }

    #[test]
    fn block_payload_accounting() {
        let d = Block::Dense(seq_tensor(&[2, 3]));
        assert_eq!(d.payload_bytes(), 6 * 8);
        let mut b = SparseBuilder::new(&[2, 3]);
        b.push(&[0, 1], 2.0);
        let s = Block::Sparse(b.build());
        assert_eq!(s.payload_bytes(), 8 + 4 * 2);
        assert_eq!(s.dims(), &[2, 3]);
        assert!(d.fro_norm_sq() > 0.0);
    }
}
