//! The top-level two-phase driver.

use crate::accuracy::blockwise_fit_stream;
use crate::config::TwoPcpConfig;
use crate::phase1::{grid_for, run_phase1_source, Phase1Result};
use crate::phase2::{refine, RefineStats};
use crate::pq::QHadamardStats;
use crate::Result;
use std::time::{Duration, Instant};
use tpcp_compress::{compress_decompose, CompressProvenance};
use tpcp_cp::{AlsOptions, CpModel};
use tpcp_partition::{BlockSource, DenseMemorySource, Grid, SparseMemorySource};
use tpcp_storage::{DiskStore, IoStats, MemStore, PrefetchSource, ShardedStore, UnitStore};
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

enum Input<'a> {
    Dense(&'a DenseTensor),
    Sparse(&'a SparseTensor),
    Source(&'a mut dyn BlockSource),
}

/// How the exact accuracy against the input is computed after Phase 2.
enum ExactFit<'a> {
    /// Against the resident dense tensor.
    Dense(&'a DenseTensor),
    /// Against the resident sparse tensor.
    Sparse(&'a SparseTensor),
    /// By re-streaming the ingest source blockwise (one block resident at
    /// a time — the streaming memory bound extends to the accuracy pass).
    Stream,
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

    /// Decomposes a dense tensor.
    ///
    /// # Errors
    /// Configuration, numerical or storage failures.
    pub fn decompose_dense(&self, x: &DenseTensor) -> Result<TwoPcpOutcome> {
        self.dispatch(Input::Dense(x))
    }

    /// Decomposes a sparse tensor.
    ///
    /// # Errors
    /// Configuration, numerical or storage failures.
    pub fn decompose_sparse(&self, x: &SparseTensor) -> Result<TwoPcpOutcome> {
        self.dispatch(Input::Sparse(x))
    }

    /// Decomposes a tensor streamed from a [`BlockSource`] — the full
    /// tensor is never materialised. Phase 1 pulls one batch of blocks at
    /// a time ([`TwoPcpConfig::par`] threads wide), and the final exact
    /// accuracy re-streams the source blockwise, so peak tensor residency
    /// throughout the run is O(largest block × threads).
    ///
    /// # Errors
    /// Source, configuration, numerical or storage failures.
    pub fn decompose_source(&self, src: &mut dyn BlockSource) -> Result<TwoPcpOutcome> {
        self.dispatch(Input::Source(src))
    }

    fn dispatch(&self, input: Input<'_>) -> Result<TwoPcpOutcome> {
        // Shard count 0 is rejected by config validation inside Phase 1;
        // route it to the unsharded arm rather than panicking here.
        match (&self.config.work_dir, self.config.shards) {
            (Some(dir), 0 | 1) => {
                let store = DiskStore::open_with(dir.join("units"), self.config.mmap)?;
                self.run(input, store)
            }
            (Some(dir), shards) => {
                let mut store = ShardedStore::open_disk(dir.join("units"), shards)?;
                store.set_mmap(self.config.mmap);
                self.run(input, store)
            }
            (None, 0 | 1) => self.run(input, MemStore::new()),
            (None, shards) => self.run(input, ShardedStore::mem(shards)),
        }
    }

    fn run<S: UnitStore + PrefetchSource>(
        &self,
        input: Input<'_>,
        store: S,
    ) -> Result<TwoPcpOutcome> {
        // Every input becomes a streaming source; resident tensors keep
        // their direct exact-fit path (cheaper, same value as always).
        match input {
            Input::Dense(x) => {
                let mut src = DenseMemorySource::new(x);
                self.run_streaming(&mut src, ExactFit::Dense(x), store)
            }
            Input::Sparse(x) => {
                let mut src = SparseMemorySource::new(x);
                self.run_streaming(&mut src, ExactFit::Sparse(x), store)
            }
            Input::Source(src) => self.run_streaming(src, ExactFit::Stream, store),
        }
    }

    fn run_streaming<S: UnitStore + PrefetchSource>(
        &self,
        src: &mut dyn BlockSource,
        exact: ExactFit<'_>,
        mut store: S,
    ) -> Result<TwoPcpOutcome> {
        let cfg = &self.config;

        // ---- Compress-then-decompose (opt-in) ------------------------------
        // Replaces both phases wholesale; the default (`compress: None`)
        // path below is untouched — bitwise identical to builds without
        // the knob.
        if cfg.compress.is_some() {
            return self.run_compressed(src, exact);
        }

        // ---- Phase 1 -------------------------------------------------------
        let t0 = Instant::now();
        let phase1 = run_phase1_source(src, cfg, &mut store)?;
        let phase1_time = t0.elapsed();

        // ---- Phase 2 -------------------------------------------------------
        let t1 = Instant::now();
        let outcome = refine(&phase1.grid, store, cfg, &phase1.u_norm_sq)?;
        let phase2_time = t1.elapsed();

        // ---- Exact accuracy -------------------------------------------------
        let fit = self.exact_fit(
            exact,
            &outcome.model,
            &phase1.grid,
            src,
            &phase1.block_norms_sq,
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

    /// The exact accuracy of `model` against the input. A streamed input
    /// is re-read one batch of blocks at a time on the run's thread budget
    /// and kernel, with the `‖X_k‖²` the decomposition already measured.
    fn exact_fit(
        &self,
        exact: ExactFit<'_>,
        model: &CpModel,
        grid: &Grid,
        src: &mut dyn BlockSource,
        block_norms_sq: &[f64],
    ) -> Result<f64> {
        let cfg = &self.config;
        Ok(match exact {
            ExactFit::Dense(x) => model.fit_dense(x)?,
            ExactFit::Sparse(x) => model.fit_sparse(x)?,
            ExactFit::Stream => {
                blockwise_fit_stream(model, grid, src, Some(block_norms_sq), &cfg.par, cfg.kernel)?
            }
        })
    }

    /// The compress-then-decompose pipeline: streaming Tucker compression,
    /// CP on the core, expansion and an exact polish (`tpcp-compress`),
    /// reported through the same [`TwoPcpOutcome`] shape as the two-phase
    /// path. Compression + core CP + polish are timed as "phase 1" (the
    /// decomposition proper); `phase2_time` is zero since no refinement
    /// phase runs. Phase-2 I/O stats are empty — the pipeline streams
    /// blocks, it never touches a unit store.
    fn run_compressed(
        &self,
        src: &mut dyn BlockSource,
        exact: ExactFit<'_>,
    ) -> Result<TwoPcpOutcome> {
        let cfg = &self.config;
        let dims = src.dims().to_vec();
        let grid = grid_for(cfg, &dims)?;

        let t0 = Instant::now();
        let options = AlsOptions {
            rank: cfg.rank,
            max_iters: cfg.max_virtual_iters,
            tol: cfg.tol,
            ridge: cfg.ridge,
            seed: cfg.seed,
            init: None,
            par: cfg.par,
            kernel: cfg.kernel,
            compress: cfg.compress.clone(),
        };
        let out = compress_decompose(src, &grid, &options)?;
        let phase1_time = t0.elapsed();

        let fit = self.exact_fit(exact, &out.model, &grid, src, &out.block_norms_sq)?;

        let num_blocks = grid.num_blocks();
        let peak_block_bytes = (0..num_blocks)
            .map(|lin| {
                grid.block_dims(&grid.block_coords(lin))
                    .iter()
                    .product::<usize>() as u64
                    * std::mem::size_of::<f64>() as u64
            })
            .max()
            .unwrap_or(0);
        let phase1 = Phase1Result {
            grid,
            block_norms_sq: out.block_norms_sq.clone(),
            u_norm_sq: vec![0.0; num_blocks],
            block_fits: Vec::new(),
            total_unit_bytes: 0,
            ingested_bytes: src.bytes_loaded(),
            peak_block_bytes,
        };
        let phase2 = RefineStats {
            io: IoStats::default(),
            swaps_per_iteration: Vec::new(),
            fit_trace: out.core_report.fit_trace.clone(),
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
}
