//! Phase 1: independent (parallel) decomposition of every block, streamed
//! from a [`BlockSource`].
//!
//! Each sub-tensor `X_k` is decomposed with standard CP-ALS into rank-`F`
//! sub-factors `U(1)_k … U(N)_k` (paper §IV, Observation #1). Blocks are
//! *pulled* from a streaming [`BlockSource`] one batch at a time (batch =
//! the [`tpcp_par`] thread budget), so peak Phase-1 memory is
//! O(largest block × threads) — never O(tensor). Entry points:
//!
//! * [`run_phase1_source`] — the streaming core: pull blocks, decompose
//!   each with in-process parallel workers, emit the per-mode
//!   *data-access units* shard-by-shard through a [`tpcp_mapreduce`]
//!   aggregation job;
//! * [`run_phase1_dense`] / [`run_phase1_sparse`] — thin adapters wrapping
//!   an in-memory tensor in a memory source (bit-identical results);
//! * [`run_phase1_mapreduce`] / [`run_phase1_mapreduce_source`] — the
//!   paper's MapReduce formulation, mapping `⟨b, i, j, k, X(i,j,k)⟩ on b`
//!   and decomposing each block in a reducer, running on the
//!   [`tpcp_mapreduce`] substrate.
//!
//! All paths end by assembling the per-mode data-access units
//! (`A(i)(kᵢ)` + slab sub-factors) through the aggregation job and writing
//! them — grouped by destination shard — to the unit store that Phase 2
//! will refine against.

use crate::config::{InitKind, TwoPcpConfig};
use crate::{Result, TwoPcpError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use tpcp_cp::{cp_als_dense, cp_als_sparse, AlsOptions, CpModel};
use tpcp_linalg::Mat;
use tpcp_mapreduce::{run_job, JobCounters, MapReduceJob, MrConfig};
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, DenseMemorySource, Grid, SparseMemorySource};
use tpcp_schedule::UnitId;
use tpcp_storage::{UnitData, UnitStore};
use tpcp_tensor::{random_factor, DenseTensor, SparseBuilder, SparseTensor};

/// Everything Phase 2 (and the evaluation harness) needs to know about the
/// completed first phase.
#[derive(Clone, Debug)]
pub struct Phase1Result {
    /// The partitioning grid.
    pub grid: Grid,
    /// `‖X_k‖²` per block (enables streaming exact-accuracy computation).
    pub block_norms_sq: Vec<f64>,
    /// `‖X̂₁_k‖²` per block — the Phase-1 reconstruction norms feeding the
    /// Phase-2 surrogate fit.
    pub u_norm_sq: Vec<f64>,
    /// Per-block ALS fit achieved in Phase 1.
    pub block_fits: Vec<f64>,
    /// Total bytes of all data-access units (the paper's `memtotal`,
    /// §IV-A) — the reference the buffer fraction is taken against.
    pub total_unit_bytes: usize,
    /// Total tensor bytes streamed from the block source.
    pub ingested_bytes: u64,
    /// Peak tensor bytes simultaneously resident while ingesting — one
    /// batch of blocks (the streaming memory bound this phase guarantees;
    /// with a serial budget, exactly one block).
    pub peak_block_bytes: u64,
}

/// Builds the grid after validating partition counts against dimensions.
pub(crate) fn grid_for(cfg: &TwoPcpConfig, dims: &[usize]) -> Result<Grid> {
    let parts = cfg.resolved_parts(dims.len())?;
    for (m, (&p, &d)) in parts.iter().zip(dims).enumerate() {
        if p > d {
            return Err(TwoPcpError::Config {
                reason: format!("mode {m}: {p} partitions exceed dimension {d}"),
            });
        }
    }
    Ok(Grid::new(dims, &parts))
}

fn als_options(cfg: &TwoPcpConfig, block_seed: u64) -> AlsOptions {
    AlsOptions {
        rank: cfg.rank,
        max_iters: cfg.phase1.max_iters,
        tol: cfg.phase1.tol,
        ridge: cfg.ridge,
        seed: block_seed,
        init: None,
        // Block workers already occupy the budget; the kernels inside one
        // block stay serial rather than oversubscribing the machine.
        par: ParConfig::serial(),
        kernel: cfg.kernel,
        // Per-block tensors are already small; compressing them would be
        // pure overhead. Compression applies to the whole decomposition via
        // the driver (`TwoPcpConfig::compress`), never per Phase-1 block.
        compress: None,
    }
}

/// Spreads the component weights evenly over the modes
/// (`λ^{1/N}` per factor), so the block model becomes the identity-core
/// form `X_k ≈ I ×₁ U(1)_k ×₂ … ×_N U(N)_k` of paper eq. 1.
fn balance_weights(model: &mut CpModel) {
    let order = model.order();
    if order == 0 {
        return;
    }
    model.normalize();
    let root: Vec<f64> = model
        .weights
        .iter()
        .map(|&l| {
            if l > 0.0 {
                l.powf(1.0 / order as f64)
            } else {
                0.0
            }
        })
        .collect();
    for factor in &mut model.factors {
        factor.scale_columns(&root);
    }
    model.weights.fill(1.0);
}

/// What a Phase-1 worker hands back for one block.
struct BlockOutcome {
    /// The balanced block model.
    model: CpModel,
    /// The ALS fit reached.
    fit: f64,
    /// `‖X_k‖²`, measured once — by the ALS that needs it for its fit.
    norm_sq: f64,
}

/// Decomposes one streamed block.
fn decompose_block(block: &Block, cfg: &TwoPcpConfig, seed: u64) -> Result<BlockOutcome> {
    let report = match block {
        Block::Dense(t) => cp_als_dense(t, &als_options(cfg, seed))?,
        Block::Sparse(t) if t.is_empty() => {
            // Footnote 3: empty sub-tensors get zero factors.
            return Ok(BlockOutcome {
                model: CpModel::zeros(t.dims(), cfg.rank),
                fit: 1.0,
                norm_sq: t.fro_norm_sq(),
            });
        }
        Block::Sparse(t) => cp_als_sparse(t, &als_options(cfg, seed))?,
    };
    let mut model = report.model;
    balance_weights(&mut model);
    Ok(BlockOutcome {
        model,
        fit: report.final_fit,
        norm_sq: report.norm_x_sq,
    })
}

// ---------------------------------------------------------------------------
// Unit assembly: a MapReduce aggregation job over per-block factors
// ---------------------------------------------------------------------------

/// The unit key `⟨i, kᵢ⟩` crossing the assembly shuffle.
type UnitKey = (u16, u32);
/// One block's mode-`i` sub-factor crossing the shuffle:
/// `(block id, rows, cols, row-major data)`.
type FactorMsg = (u64, u32, u32, Vec<f64>);

/// The unit-aggregation job: `map` keys each per-block factor by the
/// data-access unit it belongs to, `reduce` rebuilds the unit (slab
/// sub-factors in ascending block order plus the initial global
/// sub-factor `A(i)(kᵢ)`).
struct UnitAssemblyJob<'a> {
    grid: &'a Grid,
    cfg: &'a TwoPcpConfig,
}

impl MapReduceJob for UnitAssemblyJob<'_> {
    /// `(linear block id, mode, factor)`.
    type Input = (u64, u16, Mat);
    type Key = UnitKey;
    type Value = FactorMsg;
    type Output = UnitData;

    fn map(&self, (block, mode, factor): Self::Input, emit: &mut dyn FnMut(UnitKey, FactorMsg)) {
        let part = self.grid.block_coords(block as usize)[mode as usize] as u32;
        let (rows, cols) = factor.shape();
        emit(
            (mode, part),
            (block, rows as u32, cols as u32, factor.into_vec()),
        );
    }

    fn reduce(
        &self,
        (mode, part): UnitKey,
        mut values: Vec<FactorMsg>,
        emit: &mut dyn FnMut(UnitData),
    ) {
        // Slab order is ascending linear block id, so sorting restores the
        // deterministic order regardless of shuffle arrival.
        values.sort_unstable_by_key(|&(block, _, _, _)| block);
        let sub_factors: Vec<(u64, Mat)> = values
            .into_iter()
            .map(|(block, rows, cols, data)| {
                (block, Mat::from_vec(rows as usize, cols as usize, data))
            })
            .collect();
        let (mode, part) = (mode as usize, part as usize);
        let rows = self.grid.part_len(mode, part);
        let factor = match self.cfg.init {
            InitKind::Random => {
                let mut rng =
                    StdRng::seed_from_u64(self.cfg.seed ^ ((mode as u64) << 32) ^ part as u64);
                random_factor(rows, self.cfg.rank, &mut rng)
            }
            InitKind::SlabMean => {
                let mut acc = Mat::zeros(rows, self.cfg.rank);
                for (_, u) in &sub_factors {
                    // Slab factors share the unit shape by construction.
                    acc.add_assign(u).expect("slab factor shape");
                }
                acc.scale(1.0 / sub_factors.len().max(1) as f64);
                acc
            }
        };
        emit(UnitData {
            unit: UnitId::new(mode, part),
            factor,
            sub_factors,
        });
    }
}

/// Distinguishes concurrent assembly scratch directories within a process.
static ASSEMBLY_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs the unit-aggregation job over the per-block factors and writes the
/// resulting data-access units to the store *shard-by-shard* (grouped by
/// [`UnitStore::shard_hint`], then unit order), returning the total unit
/// bytes.
fn assemble_units<S: UnitStore>(
    grid: &Grid,
    cfg: &TwoPcpConfig,
    inputs: Vec<(u64, u16, Mat)>,
    store: &mut S,
) -> Result<usize> {
    let dir = cfg
        .work_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!(
            "p1_assemble_{}_{}",
            std::process::id(),
            ASSEMBLY_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let job = UnitAssemblyJob { grid, cfg };
    let mut mr_cfg = MrConfig::new(&dir);
    mr_cfg.num_mappers = cfg.par.threads();
    mr_cfg.par = cfg.par;
    // Internal counters: the public counter contract describes the
    // nnz-level Phase-1 job, not this assembly pass.
    let counters = JobCounters::new();
    let outcome = run_job(&job, inputs, &mr_cfg, &counters);
    // Clean the scratch directory on failure too, so failing runs do not
    // accumulate spilled factor data under the work dir.
    let _ = std::fs::remove_dir_all(&dir);
    let mut units = outcome?;
    debug_assert_eq!(units.len(), grid.num_units());
    units.sort_by_key(|u| (store.shard_hint(u.unit), u.unit.linear(grid)));
    let mut total_bytes = 0usize;
    for unit in &units {
        total_bytes += unit.payload_bytes();
        store.write(unit)?;
    }
    Ok(total_bytes)
}

// ---------------------------------------------------------------------------
// Streaming in-process path
// ---------------------------------------------------------------------------

/// Phase 1 over a streaming [`BlockSource`] with in-process parallel block
/// workers: blocks are pulled one batch (= thread budget) at a time,
/// decomposed, and dropped before the next batch loads, so peak tensor
/// residency is [`Phase1Result::peak_block_bytes`], not the tensor.
///
/// # Errors
/// Source, configuration, ALS or storage failures.
pub fn run_phase1_source<S: UnitStore>(
    src: &mut dyn BlockSource,
    cfg: &TwoPcpConfig,
    store: &mut S,
) -> Result<Phase1Result> {
    let grid = grid_for(cfg, src.dims())?;
    let nblocks = grid.num_blocks();
    let batch_len = cfg.par.threads().max(1);
    let mut block_norms_sq = Vec::with_capacity(nblocks);
    let mut block_fits = Vec::with_capacity(nblocks);
    let mut u_norm_sq = Vec::with_capacity(nblocks);
    let mut factor_inputs: Vec<(u64, u16, Mat)> = Vec::with_capacity(nblocks * grid.order());
    let mut ingested_bytes = 0u64;
    let mut peak_block_bytes = 0u64;

    let mut start = 0usize;
    while start < nblocks {
        let end = (start + batch_len).min(nblocks);
        let mut blocks = Vec::with_capacity(end - start);
        let mut resident = 0u64;
        for lin in start..end {
            let block = src.load_block(&grid, lin)?;
            resident += block.payload_bytes() as u64;
            blocks.push(block);
        }
        ingested_bytes += resident;
        peak_block_bytes = peak_block_bytes.max(resident);
        let results = tpcp_par::par_map(&cfg.par, &blocks, |i, block| {
            decompose_block(block, cfg, cfg.seed.wrapping_add((start + i) as u64))
        })
        .map_err(TwoPcpError::from)?;
        drop(blocks);
        for (off, out) in results.into_iter().enumerate() {
            block_norms_sq.push(out.norm_sq);
            u_norm_sq.push(out.model.norm_sq());
            block_fits.push(out.fit);
            for (mode, factor) in out.model.factors.into_iter().enumerate() {
                factor_inputs.push(((start + off) as u64, mode as u16, factor));
            }
        }
        start = end;
    }

    let total_unit_bytes = assemble_units(&grid, cfg, factor_inputs, store)?;
    Ok(Phase1Result {
        grid,
        block_norms_sq,
        u_norm_sq,
        block_fits,
        total_unit_bytes,
        ingested_bytes,
        peak_block_bytes,
    })
}

/// Phase 1 over a dense tensor — a thin adapter over
/// [`run_phase1_source`] with an in-memory source (bit-identical to the
/// historical eager path).
///
/// # Errors
/// Configuration, ALS or storage failures.
pub fn run_phase1_dense<S: UnitStore>(
    x: &DenseTensor,
    cfg: &TwoPcpConfig,
    store: &mut S,
) -> Result<Phase1Result> {
    let mut src = DenseMemorySource::new(x);
    run_phase1_source(&mut src, cfg, store)
}

/// Phase 1 over a sparse tensor — a thin adapter over
/// [`run_phase1_source`] with an in-memory source (bit-identical to the
/// historical eager path).
///
/// # Errors
/// Configuration, ALS or storage failures.
pub fn run_phase1_sparse<S: UnitStore>(
    x: &SparseTensor,
    cfg: &TwoPcpConfig,
    store: &mut S,
) -> Result<Phase1Result> {
    let mut src = SparseMemorySource::new(x);
    run_phase1_source(&mut src, cfg, store)
}

// ---------------------------------------------------------------------------
// MapReduce path (paper Observation #1)
// ---------------------------------------------------------------------------

/// Per-block output of the Phase-1 reducer.
struct BlockOut {
    block: u64,
    model: CpModel,
    fit: f64,
    norm_sq: f64,
}

/// The paper's Phase-1 job: `map` keys each non-zero by its block id,
/// `reduce` recomposes the sub-tensor and runs PARAFAC on it.
struct Phase1Job<'a> {
    grid: &'a Grid,
    cfg: &'a TwoPcpConfig,
    /// `part_of[mode][global_row] = (partition, local_row)`.
    part_of: Vec<Vec<(u32, u32)>>,
}

impl<'a> Phase1Job<'a> {
    fn new(grid: &'a Grid, cfg: &'a TwoPcpConfig) -> Self {
        let mut part_of = Vec::with_capacity(grid.order());
        for m in 0..grid.order() {
            let mut table = vec![(0u32, 0u32); grid.dims()[m]];
            for k in 0..grid.parts()[m] {
                let r = grid.part_range(m, k);
                for (off, slot) in table[r].iter_mut().enumerate() {
                    *slot = (k as u32, off as u32);
                }
            }
            part_of.push(table);
        }
        Phase1Job { grid, cfg, part_of }
    }
}

impl MapReduceJob for Phase1Job<'_> {
    /// One tensor non-zero: global coordinates plus value.
    type Input = (Vec<u32>, f64);
    /// Linear block id `b`.
    type Key = u64;
    /// Block-local coordinates plus value.
    type Value = (Vec<u32>, f64);
    type Output = BlockOut;

    fn map(&self, (coords, v): Self::Input, emit: &mut dyn FnMut(u64, (Vec<u32>, f64))) {
        let mut block = 0u64;
        let mut local = Vec::with_capacity(coords.len());
        for (m, &c) in coords.iter().enumerate() {
            let (k, off) = self.part_of[m][c as usize];
            block = block * self.grid.parts()[m] as u64 + u64::from(k);
            local.push(off);
        }
        emit(block, (local, v));
    }

    fn reduce(&self, block: u64, values: Vec<(Vec<u32>, f64)>, emit: &mut dyn FnMut(BlockOut)) {
        let coords = self.grid.block_coords(block as usize);
        let dims = self.grid.block_dims(&coords);
        let mut builder = SparseBuilder::new(&dims);
        let mut norm_sq = 0.0;
        let mut idx = vec![0usize; dims.len()];
        for (local, v) in values {
            for (slot, c) in idx.iter_mut().zip(&local) {
                *slot = *c as usize;
            }
            builder.push(&idx, v);
            norm_sq += v * v;
        }
        let tensor = builder.build();
        let opts = als_options(self.cfg, self.cfg.seed.wrapping_add(block));
        match cp_als_sparse(&tensor, &opts) {
            Ok(report) => {
                let mut model = report.model;
                balance_weights(&mut model);
                emit(BlockOut {
                    block,
                    model,
                    fit: report.final_fit,
                    norm_sq,
                });
            }
            Err(_) => {
                // An unsolvable block degrades to zero factors rather than
                // failing the whole job (mirrors footnote 3's treatment).
                emit(BlockOut {
                    block,
                    model: CpModel::zeros(&dims, self.cfg.rank),
                    fit: 0.0,
                    norm_sq,
                });
            }
        }
    }
}

/// Phase 1 executed as a MapReduce job over the tensor's non-zeros —
/// the paper's distributed formulation, runnable on the in-process engine.
/// A thin adapter over [`run_phase1_mapreduce_source`].
///
/// # Errors
/// Configuration, MapReduce or storage failures.
pub fn run_phase1_mapreduce<S: UnitStore>(
    x: &SparseTensor,
    cfg: &TwoPcpConfig,
    store: &mut S,
    mr_dir: &Path,
    counters: &JobCounters,
) -> Result<Phase1Result> {
    let mut src = SparseMemorySource::new(x);
    run_phase1_mapreduce_source(&mut src, cfg, store, mr_dir, counters)
}

/// The MapReduce Phase 1 fed from a streaming [`BlockSource`]: blocks are
/// pulled one at a time and flattened into the `⟨coords, value⟩` records
/// the paper's mapper consumes (dense blocks contribute their non-zero
/// cells, mirroring the COO view); unit assembly then runs through the
/// shared shard-by-shard aggregation job.
///
/// **Memory note:** unlike [`run_phase1_source`], this path materialises
/// the full COO record set as mapper input (the in-process engine takes a
/// `Vec`; a real cluster would stream splits from DFS), so its footprint
/// is O(nnz), not O(largest block) — [`Phase1Result::peak_block_bytes`]
/// here reports only block-level residency during ingest. Use the
/// in-process streaming path for tensors that do not fit in memory.
///
/// # Errors
/// Source, configuration, MapReduce or storage failures.
pub fn run_phase1_mapreduce_source<S: UnitStore>(
    src: &mut dyn BlockSource,
    cfg: &TwoPcpConfig,
    store: &mut S,
    mr_dir: &Path,
    counters: &JobCounters,
) -> Result<Phase1Result> {
    let grid = grid_for(cfg, src.dims())?;
    let nblocks = grid.num_blocks();

    let mut inputs: Vec<(Vec<u32>, f64)> = Vec::new();
    let mut ingested_bytes = 0u64;
    let mut peak_block_bytes = 0u64;
    for lin in 0..nblocks {
        let coords = grid.block_coords(lin);
        let offsets: Vec<u32> = grid
            .block_ranges(&coords)
            .iter()
            .map(|r| r.start as u32)
            .collect();
        let block = src.load_block(&grid, lin)?;
        let bytes = block.payload_bytes() as u64;
        ingested_bytes += bytes;
        peak_block_bytes = peak_block_bytes.max(bytes);
        let mut push = |local: &[u32], v: f64| {
            let global: Vec<u32> = local.iter().zip(&offsets).map(|(&c, &o)| c + o).collect();
            inputs.push((global, v));
        };
        match block {
            Block::Sparse(b) => b.for_each_entry(|idx, v| push(idx, v)),
            Block::Dense(b) => {
                // Mirror `SparseTensor::from_dense(x, 0.0)` blockwise: the
                // non-zero cells in local row-major order.
                SparseTensor::from_dense(&b, 0.0).for_each_entry(|idx, v| push(idx, v));
            }
        }
    }

    let job = Phase1Job::new(&grid, cfg);
    let mut mr_cfg = MrConfig::new(mr_dir);
    // The substrate draws its mapper chunking and its mapper/reducer
    // concurrency from the same shared thread budget as the in-process
    // paths (bucket structure stays at the engine default).
    mr_cfg.num_mappers = cfg.par.threads();
    mr_cfg.par = cfg.par;
    let outputs = run_job(&job, inputs, &mr_cfg, counters)?;

    // Fill in results; blocks with no non-zeros never reach a reducer.
    let mut models: Vec<Option<CpModel>> = (0..nblocks).map(|_| None).collect();
    let mut block_fits = vec![1.0f64; nblocks];
    let mut block_norms_sq = vec![0.0f64; nblocks];
    for out in outputs {
        let b = out.block as usize;
        block_fits[b] = out.fit;
        block_norms_sq[b] = out.norm_sq;
        models[b] = Some(out.model);
    }
    let models: Vec<CpModel> = models
        .into_iter()
        .enumerate()
        .map(|(b, m)| {
            m.unwrap_or_else(|| CpModel::zeros(&grid.block_dims(&grid.block_coords(b)), cfg.rank))
        })
        .collect();

    let u_norm_sq: Vec<f64> = models.iter().map(CpModel::norm_sq).collect();
    let mut factor_inputs: Vec<(u64, u16, Mat)> = Vec::with_capacity(nblocks * grid.order());
    for (lin, model) in models.into_iter().enumerate() {
        for (mode, factor) in model.factors.into_iter().enumerate() {
            factor_inputs.push((lin as u64, mode as u16, factor));
        }
    }
    let total_unit_bytes = assemble_units(&grid, cfg, factor_inputs, store)?;
    Ok(Phase1Result {
        grid,
        block_norms_sq,
        u_norm_sq,
        block_fits,
        total_unit_bytes,
        ingested_bytes,
        peak_block_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_storage::{MemStore, ShardedStore};

    fn low_rank(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        CpModel::new(vec![1.0; f], factors)
            .unwrap()
            .reconstruct_dense()
    }

    fn cfg(rank: usize, parts: Vec<usize>) -> TwoPcpConfig {
        TwoPcpConfig::new(rank).parts(parts)
    }

    #[test]
    fn dense_phase1_writes_all_units() {
        let x = low_rank(&[8, 8, 8], 2, 1);
        let cfg = cfg(2, vec![2]);
        let mut store = MemStore::new();
        let result = run_phase1_dense(&x, &cfg, &mut store).unwrap();
        assert_eq!(result.grid.num_units(), 6);
        assert_eq!(store.len(), 6);
        for lin in 0..6 {
            let unit = UnitId::from_linear(&result.grid, lin);
            let data = store.read(unit).unwrap();
            assert_eq!(data.factor.shape(), (4, 2));
            assert_eq!(data.sub_factors.len(), 4, "slab of a 2x2x2 grid");
        }
        // Unit bytes match the paper's formula: per mode-partition
        // (4·2)·(1 + 4)·8 bytes; 6 units total.
        assert_eq!(result.total_unit_bytes, 6 * (4 * 2) * 5 * 8);
        // The whole tensor streamed through, one batch at a time.
        assert_eq!(result.ingested_bytes, (8 * 8 * 8 * 8) as u64);
        assert!(result.peak_block_bytes >= (4 * 4 * 4 * 8) as u64);
    }

    #[test]
    fn dense_phase1_blocks_fit_well() {
        let x = low_rank(&[8, 8, 8], 2, 2);
        let cfg = TwoPcpConfig::new(3).parts(vec![2]);
        let mut store = MemStore::new();
        let result = run_phase1_dense(&x, &cfg, &mut store).unwrap();
        for (b, fit) in result.block_fits.iter().enumerate() {
            assert!(*fit > 0.98, "block {b} fit {fit}");
        }
        // ‖X̂₁‖ ≈ ‖X‖ when blocks fit well.
        let total_u: f64 = result.u_norm_sq.iter().sum();
        let total_x: f64 = result.block_norms_sq.iter().sum();
        assert!((total_u - total_x).abs() / total_x < 0.05);
    }

    #[test]
    fn serial_streaming_residency_is_one_block() {
        let x = low_rank(&[8, 6, 8], 2, 5);
        let cfg = cfg(2, vec![2]).threads(1);
        let mut store = MemStore::new();
        let result = run_phase1_dense(&x, &cfg, &mut store).unwrap();
        // With a serial budget, the batch is one block, so the peak
        // residency is exactly the largest block.
        let largest = result
            .grid
            .iter_blocks()
            .map(|c| result.grid.block_dims(&c).iter().product::<usize>() * 8)
            .max()
            .unwrap() as u64;
        assert_eq!(result.peak_block_bytes, largest);
        assert_eq!(result.ingested_bytes, (x.len() * 8) as u64);
    }

    #[test]
    fn sparse_phase1_handles_empty_blocks() {
        // One populated corner; the rest of the blocks are empty.
        let mut b = SparseBuilder::new(&[8, 8, 8]);
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    b.push(&[i, j, k], (1 + i + j + k) as f64);
                }
            }
        }
        let x = b.build();
        let cfg = cfg(2, vec![2]);
        let mut store = MemStore::new();
        let result = run_phase1_sparse(&x, &cfg, &mut store).unwrap();
        // Block (0,0,0) is the only non-empty one.
        assert!(result.block_norms_sq[0] > 0.0);
        assert!(result.block_norms_sq[1..].iter().all(|&n| n == 0.0));
        assert!(result.u_norm_sq[1..].iter().all(|&n| n == 0.0));
        // Empty blocks produce zero sub-factors (footnote 3).
        let unit = store.read(UnitId::new(0, 1)).unwrap();
        for (block, u) in &unit.sub_factors {
            let coords = result.grid.block_coords(*block as usize);
            assert_eq!(coords[0], 1);
            assert!(u.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn mapreduce_phase1_matches_threaded_norms() {
        let x = low_rank(&[6, 6, 6], 2, 3);
        let sparse = SparseTensor::from_dense(&x, 0.0);
        let cfg = cfg(2, vec![2]);

        let mut store_a = MemStore::new();
        let threaded = run_phase1_sparse(&sparse, &cfg, &mut store_a).unwrap();

        let dir = std::env::temp_dir().join(format!("tpcp_p1mr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let counters = JobCounters::new();
        let mut store_b = MemStore::new();
        let mr = run_phase1_mapreduce(&sparse, &cfg, &mut store_b, &dir, &counters).unwrap();

        // Same per-block ALS seeds ⇒ identical block norms and fits.
        assert_eq!(threaded.block_norms_sq, mr.block_norms_sq);
        for (a, b) in threaded.block_fits.iter().zip(&mr.block_fits) {
            assert!((a - b).abs() < 1e-9);
        }
        let s = counters.snapshot();
        assert_eq!(s.map_input_records, sparse.nnz() as u64);
        assert_eq!(s.reduce_groups, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_store_receives_identical_units() {
        let x = low_rank(&[8, 8, 8], 2, 7);
        let cfg = cfg(2, vec![2]);
        let mut single = MemStore::new();
        let mut sharded = ShardedStore::mem(3);
        let a = run_phase1_dense(&x, &cfg, &mut single).unwrap();
        let b = run_phase1_dense(&x, &cfg, &mut sharded).unwrap();
        assert_eq!(a.block_fits, b.block_fits);
        assert_eq!(a.u_norm_sq, b.u_norm_sq);
        assert_eq!(a.total_unit_bytes, b.total_unit_bytes);
        for lin in 0..a.grid.num_units() {
            let unit = UnitId::from_linear(&a.grid, lin);
            assert_eq!(single.read(unit).unwrap(), sharded.read(unit).unwrap());
        }
        // The units actually spread over more than one shard.
        let populated = sharded
            .per_shard_bytes()
            .iter()
            .filter(|(w, _)| *w > 0)
            .count();
        assert!(populated > 1, "expected units on multiple shards");
    }

    #[test]
    fn balance_weights_preserves_reconstruction() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = CpModel::new(
            vec![3.0, 0.5],
            vec![
                random_factor(3, 2, &mut rng),
                random_factor(4, 2, &mut rng),
                random_factor(2, 2, &mut rng),
            ],
        )
        .unwrap();
        let before = model.reconstruct_dense();
        balance_weights(&mut model);
        assert!(model.weights.iter().all(|&w| w == 1.0));
        let after = model.reconstruct_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
        // Factor column norms are balanced across modes.
        let n0 = model.factors[0].column_norms();
        let n1 = model.factors[1].column_norms();
        for (a, b) in n0.iter().zip(&n1) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn random_init_differs_from_slab_mean() {
        let x = low_rank(&[4, 4], 1, 9);
        let mut s1 = MemStore::new();
        let mut s2 = MemStore::new();
        run_phase1_dense(&x, &TwoPcpConfig::new(1).parts(vec![2]), &mut s1).unwrap();
        run_phase1_dense(
            &x,
            &TwoPcpConfig::new(1).parts(vec![2]).init(InitKind::Random),
            &mut s2,
        )
        .unwrap();
        let a = s1.read(UnitId::new(0, 0)).unwrap();
        let b = s2.read(UnitId::new(0, 0)).unwrap();
        assert_ne!(a.factor, b.factor);
        // Sub-factors are identical (same ALS), only the init differs.
        assert_eq!(a.sub_factors, b.sub_factors);
    }

    #[test]
    fn too_many_partitions_is_a_config_error() {
        let x = low_rank(&[3, 3], 1, 0);
        let mut store = MemStore::new();
        let err =
            run_phase1_dense(&x, &TwoPcpConfig::new(1).parts(vec![4]), &mut store).unwrap_err();
        assert!(matches!(err, TwoPcpError::Config { .. }));
    }
}
