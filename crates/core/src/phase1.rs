//! Phase 1: independent (parallel) decomposition of every block, streamed
//! from a [`BlockSource`].
//!
//! Each sub-tensor `X_k` is decomposed with standard CP-ALS into rank-`F`
//! sub-factors `U(1)_k … U(N)_k` (paper §IV, Observation #1).
//! [`run_phase1_source`] pulls the blocks through the crate's one block
//! loop, a batch of at most [`tpcp_par`] threads at a time, so peak
//! Phase-1 memory is O(largest block × threads), never O(tensor). The
//! blocks are independent, so each batch is decomposed by parallel
//! workers, one block each. An in-memory tensor comes in the same way,
//! wrapped in a memory source.
//!
//! The phase ends by grouping the sub-factors into the per-mode
//! *data-access units* (`A(i)(kᵢ)` + slab sub-factors) and writing them,
//! in ascending unit order, to the unit store that Phase 2 will refine
//! against.

use crate::config::{InitKind, TwoPcpConfig};
use crate::stream::stream_blocks;
use crate::{Result, TwoPcpError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcp_cp::{cp_als_dense, cp_als_sparse, AlsOptions, CpModel};
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, Grid};
use tpcp_schedule::UnitId;
use tpcp_storage::{UnitData, UnitStore};
use tpcp_tensor::random_factor;

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
    /// with a serial budget, exactly one block). A compressed run reports
    /// what its passes held at once, a slab panel included
    /// (`tpcp_compress::CompressOutcome::peak_tensor_bytes`).
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

/// Decomposes block `lin` of `grid`, after rejecting non-finite data.
fn decompose_block(
    block: &Block,
    grid: &Grid,
    lin: usize,
    cfg: &TwoPcpConfig,
) -> Result<BlockOutcome> {
    block.check_finite(grid, lin)?;
    let seed = cfg.seed.wrapping_add(lin as u64);
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
// Unit assembly: group the per-block factors by data-access unit
// ---------------------------------------------------------------------------

/// The initial global sub-factor `A(i)(kᵢ)` of `unit`, given its slab's
/// sub-factors in ascending block order.
fn initial_factor(
    grid: &Grid,
    cfg: &TwoPcpConfig,
    unit: UnitId,
    sub_factors: &[(u64, Mat)],
) -> Mat {
    let rows = grid.part_len(unit.mode as usize, unit.part as usize);
    match cfg.init {
        InitKind::Random => {
            let seed = cfg.seed ^ (u64::from(unit.mode) << 32) ^ u64::from(unit.part);
            random_factor(rows, cfg.rank, &mut StdRng::seed_from_u64(seed))
        }
        InitKind::SlabMean => {
            let mut acc = Mat::zeros(rows, cfg.rank);
            for (_, u) in sub_factors {
                // Slab factors share the unit shape by construction.
                acc.add_assign(u).expect("slab factor shape");
            }
            acc.scale(1.0 / sub_factors.len().max(1) as f64);
            acc
        }
    }
}

/// Builds each data-access unit from its slab of the per-block factors
/// (`block_factors[b][mode]` = `U(mode)_b`, moved out as it is used;
/// [`Grid::slab`] walks a slab in ascending block order) and writes the
/// units to the store in ascending [`UnitId::linear`] order, returning the
/// total unit bytes.
fn assemble_units<S: UnitStore>(
    grid: &Grid,
    cfg: &TwoPcpConfig,
    mut block_factors: Vec<Vec<Mat>>,
    store: &mut S,
) -> Result<usize> {
    let mut total_bytes = 0usize;
    for lin in 0..grid.num_units() {
        let unit = UnitId::from_linear(grid, lin);
        let (mode, part) = (unit.mode as usize, unit.part as usize);
        let sub_factors: Vec<(u64, Mat)> = grid
            .slab(mode, part)
            .map(|b| {
                let factor = std::mem::replace(&mut block_factors[b][mode], Mat::zeros(0, 0));
                (b as u64, factor)
            })
            .collect();
        let data = UnitData {
            unit,
            factor: initial_factor(grid, cfg, unit, &sub_factors),
            sub_factors,
        };
        total_bytes += data.payload_bytes();
        store.write(&data)?;
    }
    Ok(total_bytes)
}

// ---------------------------------------------------------------------------
// The streaming phase
// ---------------------------------------------------------------------------

/// Phase 1 over a streaming [`BlockSource`] with parallel block workers:
/// blocks are pulled one batch (= thread budget) at a time,
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
    let mut block_norms_sq = Vec::with_capacity(nblocks);
    let mut block_fits = Vec::with_capacity(nblocks);
    let mut u_norm_sq = Vec::with_capacity(nblocks);
    // Pre-sized: nothing this thread allocates between two batches may
    // outlive them, or it lands in the blocks' freed memory and the next
    // batch cannot reuse it whole (+1 MiB peak RSS on a 40⁴ tensor).
    let mut block_factors: Vec<Vec<Mat>> = Vec::with_capacity(nblocks);
    let (ingested_bytes, peak_block_bytes) = stream_blocks(
        src,
        &grid,
        &cfg.par,
        |lin, block| decompose_block(block, &grid, lin, cfg),
        |out| {
            block_norms_sq.push(out.norm_sq);
            u_norm_sq.push(out.model.norm_sq());
            block_fits.push(out.fit);
            block_factors.push(out.model.factors);
        },
    )?;

    let total_unit_bytes = assemble_units(&grid, cfg, block_factors, store)?;
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
    use tpcp_partition::{DenseMemorySource, SparseMemorySource};
    use tpcp_storage::MemStore;
    use tpcp_tensor::{DenseTensor, SparseBuilder};

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

    fn run_dense<S: UnitStore>(
        x: &DenseTensor,
        cfg: &TwoPcpConfig,
        store: &mut S,
    ) -> Result<Phase1Result> {
        run_phase1_source(&mut DenseMemorySource::new(x), cfg, store)
    }

    #[test]
    fn dense_phase1_writes_all_units() {
        let x = low_rank(&[8, 8, 8], 2, 1);
        let cfg = cfg(2, vec![2]);
        let mut store = MemStore::new();
        let result = run_dense(&x, &cfg, &mut store).unwrap();
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
        let result = run_dense(&x, &cfg, &mut store).unwrap();
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
        let result = run_dense(&x, &cfg, &mut store).unwrap();
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
        let result = run_phase1_source(&mut SparseMemorySource::new(&x), &cfg, &mut store).unwrap();
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

    /// Forwards to `inner`, remembering the order units were written in.
    struct Recording<S> {
        inner: S,
        written: Vec<UnitId>,
    }

    impl<S: UnitStore> UnitStore for Recording<S> {
        fn write(&mut self, data: &UnitData) -> tpcp_storage::Result<()> {
            self.written.push(data.unit);
            self.inner.write(data)
        }
        fn read(&mut self, unit: UnitId) -> tpcp_storage::Result<UnitData> {
            self.inner.read(unit)
        }
        fn contains(&self, unit: UnitId) -> bool {
            self.inner.contains(unit)
        }
        fn bytes_written(&self) -> u64 {
            self.inner.bytes_written()
        }
        fn bytes_read(&self) -> u64 {
            self.inner.bytes_read()
        }
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn units_group_block_factors_in_block_order_and_write_in_linear_order() {
        let x = low_rank(&[7, 5, 6], 2, 13);
        let cfg = cfg(2, vec![3, 2, 2]);
        let mut store = Recording {
            inner: MemStore::new(),
            written: Vec::new(),
        };
        let result = run_dense(&x, &cfg, &mut store).unwrap();
        let grid = &result.grid;
        // The block models Phase 1 produced, recomputed one by one.
        let mut src = DenseMemorySource::new(&x);
        let models: Vec<CpModel> = (0..grid.num_blocks())
            .map(|lin| {
                let block = src.load_block(grid, lin).unwrap();
                decompose_block(&block, grid, lin, &cfg).unwrap().model
            })
            .collect();

        let written: Vec<usize> = store.written.iter().map(|u| u.linear(grid)).collect();
        let ascending: Vec<usize> = (0..grid.num_units()).collect();
        assert_eq!(written, ascending, "write order");

        let mut doubles = 0usize;
        for lin in ascending {
            let unit = UnitId::from_linear(grid, lin);
            let (mode, part) = (unit.mode as usize, unit.part as usize);
            let rows = grid.part_len(mode, part);
            let slab: Vec<u64> = (0..grid.num_blocks())
                .filter(|&b| grid.block_coords(b)[mode] == part)
                .map(|b| b as u64)
                .collect();
            let data = store.read(unit).unwrap();
            let blocks: Vec<u64> = data.sub_factors.iter().map(|(b, _)| *b).collect();
            assert_eq!(blocks, slab, "{unit}: slab in ascending block id");
            let mut mean = Mat::zeros(rows, cfg.rank);
            for (block, u) in &data.sub_factors {
                let expected = &models[*block as usize].factors[mode];
                assert_eq!(bits(u), bits(expected), "{unit} block {block}");
                mean.add_assign(u).unwrap();
            }
            mean.scale(1.0 / slab.len() as f64);
            assert_eq!(bits(&data.factor), bits(&mean), "{unit}: slab mean");
            // Paper §IV-A: A(i)(kᵢ) plus one sub-factor per slab block.
            doubles += rows * cfg.rank * (1 + slab.len());
        }
        assert_eq!(result.total_unit_bytes, doubles * 8);
        // Assembly is in-memory: an in-memory run touches no scratch dir.
        let scratch = format!("p1_assemble_{}_", std::process::id());
        let leftovers = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&scratch))
            .count();
        assert_eq!(leftovers, 0);
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
        run_dense(&x, &TwoPcpConfig::new(1).parts(vec![2]), &mut s1).unwrap();
        run_dense(
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
        let err = run_dense(&x, &TwoPcpConfig::new(1).parts(vec![4]), &mut store).unwrap_err();
        assert!(matches!(err, TwoPcpError::Config { .. }));
    }
}
