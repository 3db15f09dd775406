//! The one block loop every pass over the input runs on.
//!
//! Phase 1 ([`run_phase1_source`](crate::run_phase1_source)) and the exact
//! fit ([`blockwise_fit_source`](crate::accuracy::blockwise_fit_source))
//! each visit every block of the grid once. Both go through
//! [`stream_blocks`]: load a batch of at most `threads` blocks on the
//! calling thread, compute on [`tpcp_par::par_map`] workers, drop the
//! batch, fold the results in ascending block order. The fold order is
//! what makes every value bitwise independent of the thread budget.

use crate::{Result, TwoPcpError};
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, Grid};

/// Streams every block of `grid` out of `src`, `par.threads()` blocks at a
/// time. `work(lin, block)` runs on the workers, which share the budget
/// among blocks, so it must run its kernels serially. `fold(result)` runs
/// on the calling thread in ascending block order, after the batch that
/// produced the result has been dropped: at most one batch of blocks is
/// ever resident.
///
/// Returns `(ingested, peak)`: the payload bytes loaded in all, and the
/// most held by one batch.
///
/// # Errors
/// The first source or `work` failure; blocks after it are not loaded.
pub(crate) fn stream_blocks<T: Send>(
    src: &mut dyn BlockSource,
    grid: &Grid,
    par: &ParConfig,
    work: impl Fn(usize, &Block) -> Result<T> + Sync,
    mut fold: impl FnMut(T),
) -> Result<(u64, u64)> {
    let nblocks = grid.num_blocks();
    let batch_len = par.threads().max(1);
    let (mut ingested, mut peak) = (0u64, 0u64);
    let mut start = 0usize;
    while start < nblocks {
        let end = (start + batch_len).min(nblocks);
        let mut blocks = Vec::with_capacity(end - start);
        for lin in start..end {
            blocks.push(src.load_block(grid, lin)?);
        }
        let resident: u64 = blocks.iter().map(|b| b.payload_bytes() as u64).sum();
        ingested += resident;
        peak = peak.max(resident);
        let results = tpcp_par::par_map(par, &blocks, |i, block| work(start + i, block))
            .map_err(TwoPcpError::from)?;
        drop(blocks);
        results.into_iter().for_each(&mut fold);
        start = end;
    }
    Ok((ingested, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use tpcp_partition::{DenseMemorySource, SourceResult};
    use tpcp_tensor::DenseTensor;

    /// Forwards to a memory source, recording the order of its loads and
    /// the most blocks ever loaded but not yet folded. The loop folds a
    /// batch only after dropping it, so that count bounds the residency.
    struct Recording<'a> {
        inner: DenseMemorySource<'a>,
        loads: Vec<usize>,
        folds: Rc<Cell<usize>>,
        max_held: usize,
    }

    impl BlockSource for Recording<'_> {
        fn dims(&self) -> &[usize] {
            self.inner.dims()
        }
        fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
            self.loads.push(lin);
            self.max_held = self.max_held.max(self.loads.len() - self.folds.get());
            self.inner.load_block(grid, lin)
        }
        fn bytes_loaded(&self) -> u64 {
            self.inner.bytes_loaded()
        }
    }

    #[test]
    fn loads_in_order_holds_one_batch_and_folds_in_order() {
        // 5 × 5 × 1 = 25 blocks of uneven size: at budgets 2, 3 and 7
        // the last batch is short.
        let dims = [11usize, 7, 4];
        let x = DenseTensor::from_vec(&dims, (0..11 * 7 * 4).map(f64::from).collect());
        let grid = Grid::new(&dims, &[5, 5, 1]);
        let nblocks = grid.num_blocks();
        let sizes: Vec<u64> = (0..nblocks)
            .map(|lin| {
                grid.block_dims(&grid.block_coords(lin))
                    .iter()
                    .product::<usize>() as u64
                    * 8
            })
            .collect();
        let ascending: Vec<usize> = (0..nblocks).collect();
        for threads in [1usize, 2, 3, 7] {
            let folds = Rc::new(Cell::new(0));
            let mut src = Recording {
                inner: DenseMemorySource::new(&x),
                loads: Vec::new(),
                folds: Rc::clone(&folds),
                max_held: 0,
            };
            let mut folded = Vec::new();
            let (ingested, peak) = stream_blocks(
                &mut src,
                &grid,
                &ParConfig::with_threads(threads),
                |lin, block| Ok((lin, block.payload_bytes() as u64)),
                |result| {
                    folds.set(folds.get() + 1);
                    folded.push(result);
                },
            )
            .unwrap();
            assert_eq!(src.loads, ascending, "t{threads}: load order");
            assert_eq!(
                src.max_held,
                threads.min(nblocks),
                "t{threads}: blocks held"
            );
            let order: Vec<usize> = folded.iter().map(|&(lin, _)| lin).collect();
            assert_eq!(order, ascending, "t{threads}: fold order");
            let bytes: Vec<u64> = folded.iter().map(|&(_, b)| b).collect();
            assert_eq!(bytes, sizes, "t{threads}");
            assert_eq!(ingested, sizes.iter().sum::<u64>());
            let batch_peak = sizes.chunks(threads).map(|c| c.iter().sum()).max();
            assert_eq!(Some(peak), batch_peak, "t{threads}: peak batch bytes");
        }
    }
}
