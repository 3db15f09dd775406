//! The top-level two-phase driver.
//!
//! Every input comes in as a [`BlockSource`]: [`TwoPcp::decompose_dense`]
//! and [`TwoPcp::decompose_sparse`] wrap a resident tensor in a memory
//! source and take the [`TwoPcp::decompose_source`] path, so a tensor
//! decomposes to the same bits, exact fit included, however it is handed
//! in. A run is Phase 1 over the source, Phase 2 against the unit store,
//! then the exact fit, which re-streams the source blockwise; or, with
//! [`TwoPcpConfig::compress`] set, the compress-then-decompose pipeline in
//! place of the two phases.

use crate::accuracy::blockwise_fit_stream;
use crate::config::TwoPcpConfig;
use crate::phase1::{grid_for, run_phase1_source, Phase1Result};
use crate::phase2::{refine, RefineStats};
use crate::pq::QHadamardStats;
use crate::Result;
use std::time::{Duration, Instant};
use tpcp_compress::{compress_decompose, CompressOptions, CompressProvenance};
use tpcp_cp::{AlsOptions, CpModel};
use tpcp_partition::{BlockSource, DenseMemorySource, SparseMemorySource};
use tpcp_storage::{DiskStore, IoStats, MemStore, PrefetchSource, UnitStore};
use tpcp_tensor::{DenseTensor, SparseTensor};

/// The 2PCP decomposition engine (see crate docs for an example).
pub struct TwoPcp {
    config: TwoPcpConfig,
}

/// The result of a full two-phase decomposition.
#[derive(Clone, Debug)]
pub struct TwoPcpOutcome {
    /// The rank-`F` CP model of the input tensor.
    pub model: CpModel,
    /// Exact accuracy against the input (paper §III-B).
    pub fit: f64,
    /// Phase-1 details (grid, per-block fits, space requirement).
    pub phase1: Phase1Result,
    /// Phase-2 statistics (swaps, fit trace, convergence).
    pub phase2: RefineStats,
    /// Wall-clock time of Phase 1.
    pub phase1_time: Duration,
    /// Wall-clock time of Phase 2.
    pub phase2_time: Duration,
    /// Compression provenance (`None` unless the run went through the
    /// compress-then-decompose pipeline, [`TwoPcpConfig::compress`]).
    pub compress: Option<CompressProvenance>,
}

impl TwoPcp {
    /// Creates a driver with the given configuration.
    pub fn new(config: TwoPcpConfig) -> Self {
        TwoPcp { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TwoPcpConfig {
        &self.config
    }

    /// Decomposes a dense tensor: [`TwoPcp::decompose_source`] over a
    /// [`DenseMemorySource`], so the outcome, fit included, is bitwise
    /// that of any other source of the same tensor.
    ///
    /// # Errors
    /// Configuration, numerical or storage failures.
    pub fn decompose_dense(&self, x: &DenseTensor) -> Result<TwoPcpOutcome> {
        self.decompose_source(&mut DenseMemorySource::new(x))
    }

    /// Decomposes a sparse tensor: [`TwoPcp::decompose_source`] over a
    /// [`SparseMemorySource`].
    ///
    /// # Errors
    /// Configuration, numerical or storage failures.
    pub fn decompose_sparse(&self, x: &SparseTensor) -> Result<TwoPcpOutcome> {
        self.decompose_source(&mut SparseMemorySource::new(x))
    }

    /// Decomposes a tensor streamed from a [`BlockSource`] — the full
    /// tensor is never materialised. Phase 1 holds at most one block per
    /// [`TwoPcpConfig::par`] thread, and the final exact accuracy
    /// re-streams the source the same way, so peak tensor
    /// residency throughout the run is O(largest block × threads).
    ///
    /// # Errors
    /// Source, configuration, numerical or storage failures.
    pub fn decompose_source(&self, src: &mut dyn BlockSource) -> Result<TwoPcpOutcome> {
        match &self.config.work_dir {
            Some(dir) => {
                let store = DiskStore::open(dir.join("units"))?;
                self.run(src, store)
            }
            None => self.run(src, MemStore::new()),
        }
    }

    fn run<S: UnitStore + PrefetchSource>(
        &self,
        src: &mut dyn BlockSource,
        mut store: S,
    ) -> Result<TwoPcpOutcome> {
        let cfg = &self.config;
        // Compress-then-decompose replaces both phases wholesale.
        if let Some(compress) = &cfg.compress {
            return self.run_compressed(src, compress);
        }

        let t0 = Instant::now();
        let phase1 = run_phase1_source(src, cfg, &mut store)?;
        let phase1_time = t0.elapsed();

        let t1 = Instant::now();
        let outcome = refine(&phase1.grid, store, cfg, &phase1.u_norm_sq)?;
        let phase2_time = t1.elapsed();

        let fit = blockwise_fit_stream(
            &outcome.model,
            &phase1.grid,
            src,
            Some(&phase1.block_norms_sq),
            &cfg.par,
        )?;
        Ok(TwoPcpOutcome {
            model: outcome.model,
            fit,
            phase1,
            phase2: outcome.stats,
            phase1_time,
            phase2_time,
            compress: None,
        })
    }

    /// The compress-then-decompose pipeline: streaming Tucker compression,
    /// CP on the core, expansion and an exact polish (`tpcp-compress`),
    /// reported through the same [`TwoPcpOutcome`] shape as the two-phase
    /// path. Compression + core CP + polish are timed as "phase 1" (the
    /// decomposition proper); `phase2_time` is zero since no refinement
    /// phase runs. Phase-2 I/O stats are empty — the pipeline streams
    /// blocks, it never touches a unit store. `peak_block_bytes` is what
    /// the pipeline's passes held at once, a slab panel included.
    fn run_compressed(
        &self,
        src: &mut dyn BlockSource,
        compress: &CompressOptions,
    ) -> Result<TwoPcpOutcome> {
        let cfg = &self.config;
        let grid = grid_for(cfg, src.dims())?;

        let t0 = Instant::now();
        let options = AlsOptions {
            rank: cfg.rank,
            max_iters: cfg.max_virtual_iters,
            tol: cfg.tol,
            ridge: cfg.ridge,
            seed: cfg.seed,
            init: None,
            par: cfg.par,
        };
        let out = compress_decompose(src, &grid, &options, compress)?;
        let phase1_time = t0.elapsed();

        let fit =
            blockwise_fit_stream(&out.model, &grid, src, Some(&out.block_norms_sq), &cfg.par)?;

        let num_blocks = grid.num_blocks();
        let phase1 = Phase1Result {
            grid,
            block_norms_sq: out.block_norms_sq,
            u_norm_sq: vec![0.0; num_blocks],
            block_fits: Vec::new(),
            total_unit_bytes: 0,
            ingested_bytes: src.bytes_loaded(),
            peak_block_bytes: out.peak_tensor_bytes,
        };
        let phase2 = RefineStats {
            io: IoStats::default(),
            swaps_per_iteration: Vec::new(),
            fit_trace: out.core_report.fit_trace,
            virtual_iterations: out.core_report.iterations,
            converged: out.core_report.converged,
            warmup_iterations: 0,
            q_hadamard: QHadamardStats::default(),
        };
        Ok(TwoPcpOutcome {
            model: out.model,
            fit,
            phase1,
            phase2,
            phase1_time,
            phase2_time: Duration::ZERO,
            compress: Some(out.provenance),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpcp_linalg::Mat;
    use tpcp_schedule::ScheduleKind;
    use tpcp_storage::PolicyKind;
    use tpcp_tensor::random_factor;

    fn low_rank(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        CpModel::new(vec![1.0; f], factors)
            .unwrap()
            .reconstruct_dense()
    }

    #[test]
    fn end_to_end_dense_in_memory() {
        let x = low_rank(&[10, 10, 10], 2, 4);
        let outcome = TwoPcp::new(
            TwoPcpConfig::new(2)
                .parts(vec![2])
                .max_virtual_iters(40)
                .tol(1e-7),
        )
        .decompose_dense(&x)
        .unwrap();
        assert!(outcome.fit > 0.97, "fit {}", outcome.fit);
        assert_eq!(outcome.model.dims(), vec![10, 10, 10]);
    }

    #[test]
    fn end_to_end_on_disk_matches_in_memory() {
        let x = low_rank(&[8, 8, 8], 2, 6);
        let cfg = TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(ScheduleKind::ZOrder)
            .policy(PolicyKind::Forward)
            .buffer_fraction(0.5)
            .max_virtual_iters(15)
            .tol(0.0);

        let mem = TwoPcp::new(cfg.clone()).decompose_dense(&x).unwrap();

        let dir = std::env::temp_dir().join(format!("tpcp_driver_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = TwoPcp::new(cfg.work_dir(&dir)).decompose_dense(&x).unwrap();

        // Same seeds + same schedule => bit-identical math, independent of
        // the storage backend.
        assert_eq!(mem.fit, disk.fit);
        assert_eq!(
            mem.phase2.swaps_per_iteration,
            disk.phase2.swaps_per_iteration
        );
        assert!(disk.phase2.io.fetches > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_sparse() {
        let x = low_rank(&[9, 9, 9], 2, 8);
        let sp = SparseTensor::from_dense(&x, 0.0);
        let outcome = TwoPcp::new(
            TwoPcpConfig::new(2)
                .parts(vec![3])
                .max_virtual_iters(40)
                .tol(1e-7),
        )
        .decompose_sparse(&sp)
        .unwrap();
        assert!(outcome.fit > 0.9, "fit {}", outcome.fit);
    }

    /// The compress pipeline reports what its passes held, a slab panel
    /// included, not the largest block; on a grid of uneven blocks.
    #[test]
    fn compress_path_reports_the_pipelines_peak() {
        let x = low_rank(&[9, 7, 5], 2, 3);
        let cfg = TwoPcpConfig::new(2)
            .parts(vec![2, 3, 2])
            .compress(CompressOptions::default());
        let outcome = TwoPcp::new(cfg).decompose_dense(&x).unwrap();
        let grid = outcome.phase1.grid.clone();
        let mut src = DenseMemorySource::new(&x);
        let options = AlsOptions::with_rank(2);
        let direct =
            compress_decompose(&mut src, &grid, &options, &CompressOptions::default()).unwrap();
        assert_eq!(outcome.phase1.peak_block_bytes, direct.peak_tensor_bytes);
        let largest_block = grid
            .iter_blocks()
            .map(|c| grid.block_dims(&c).iter().product::<usize>() * 8)
            .max()
            .unwrap() as u64;
        assert!(outcome.phase1.peak_block_bytes > largest_block);
    }
}
