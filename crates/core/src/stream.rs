//! The one block loop every pass over the input runs on.
//!
//! Phase 1 ([`run_phase1_source`](crate::run_phase1_source)) and the exact
//! fit ([`blockwise_fit_source`](crate::accuracy::blockwise_fit_source))
//! each visit every block of the grid once. Both go through
//! [`stream_blocks`], a pipeline on [`tpcp_par::par_stream`]: `threads`
//! workers, spawned once per pass, decompose blocks while the calling
//! thread loads the next block ([`BlockSource::load_block_into`]) into
//! whichever of `threads` reused buffers a worker has just handed back.
//! Block `k` is loaded only once block `k − threads` has been folded, so
//! at most `threads` blocks are ever resident, and the buffers die with
//! the pass. Results fold in ascending block order, which is what makes
//! every value bitwise independent of the thread budget. At one thread
//! nothing is spawned: load, compute and fold take turns in one buffer.

use crate::Result;
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, Grid};

/// Streams every block of `grid` out of `src` through `par.threads()`
/// reused buffers. `work(lin, block)` runs on the workers, which share the
/// budget among blocks, so it must run its kernels serially. `fold(result)`
/// runs on the calling thread in ascending block order.
///
/// Returns `(ingested, peak)`: the payload bytes loaded in all, and the
/// most the buffers held at once (a buffer keeps its block until the next
/// load overwrites it).
///
/// # Errors
/// The failure of the lowest-numbered block that failed, to load or in
/// `work`; a panic in `work` as [`TwoPcpError::WorkerPanic`]. No block
/// past `failed + threads − 1` is loaded.
///
/// [`TwoPcpError::WorkerPanic`]: crate::TwoPcpError::WorkerPanic
pub(crate) fn stream_blocks<T: Send>(
    src: &mut dyn BlockSource,
    grid: &Grid,
    par: &ParConfig,
    work: impl Fn(usize, &Block) -> Result<T> + Sync,
    fold: impl FnMut(T),
) -> Result<(u64, u64)> {
    let payload = |buf: &Option<Block>| buf.as_ref().map_or(0, |b| b.payload_bytes() as u64);
    let (mut ingested, mut held, mut peak) = (0u64, 0u64, 0u64);
    tpcp_par::par_stream(
        par,
        grid.num_blocks(),
        |lin, buf: &mut Option<Block>| {
            held -= payload(buf);
            src.load_block_into(grid, lin, buf)?;
            let loaded = payload(buf);
            ingested += loaded;
            held += loaded;
            peak = peak.max(held);
            Ok(())
        },
        |lin, buf| work(lin, buf.as_ref().expect("a loaded block")),
        fold,
    )?;
    Ok((ingested, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoPcpError;
    use std::cell::{Cell, RefCell};
    use std::time::Duration;
    use tpcp_partition::{DenseMemorySource, SourceResult};
    use tpcp_tensor::DenseTensor;

    /// 5 × 5 × 1 = 25 blocks of uneven size over an 11 × 7 × 4 tensor.
    fn ragged() -> (DenseTensor, Grid) {
        let dims = [11usize, 7, 4];
        let cells = (0..11 * 7 * 4)
            .map(|i| f64::from(i) * 0.37 - 11.0)
            .collect();
        (
            DenseTensor::from_vec(&dims, cells),
            Grid::new(&dims, &[5, 5, 1]),
        )
    }

    /// `count` seeded delays of 0–199 µs.
    fn jitter(seed: u64, count: usize) -> Vec<Duration> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..count)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                Duration::from_micros((state >> 33) % 200)
            })
            .collect()
    }

    /// Forwards to a memory source through the default `load_block_into`
    /// (as any source without an override runs), sleeping a seeded delay
    /// per load and recording the load order and the most blocks loaded
    /// but not yet folded.
    struct Recording<'a> {
        inner: DenseMemorySource<'a>,
        delays: Vec<Duration>,
        loads: Vec<usize>,
        folds: &'a Cell<usize>,
        max_held: usize,
    }

    impl BlockSource for Recording<'_> {
        fn dims(&self) -> &[usize] {
            self.inner.dims()
        }
        fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
            std::thread::sleep(self.delays[lin]);
            self.loads.push(lin);
            self.max_held = self.max_held.max(self.loads.len() - self.folds.get());
            self.inner.load_block(grid, lin)
        }
        fn bytes_loaded(&self) -> u64 {
            self.inner.bytes_loaded()
        }
    }

    /// What a `work` returns: the block id and a value whose bits depend
    /// on every cell in order.
    fn digest(lin: usize, block: &Block) -> (usize, u64) {
        let Block::Dense(t) = block else {
            unreachable!("dense source")
        };
        let v = t
            .as_slice()
            .iter()
            .fold(lin as f64, |acc, &x| acc * 0.999 + x);
        (lin, v.to_bits())
    }

    /// One pass at `threads` with seeded load and `work` delays; `fail`
    /// makes block `k`'s `work` return an error (`Ok(false)`) or panic
    /// (`Ok(true)`). Returns the outcome, the loads and the folds.
    #[allow(clippy::type_complexity)]
    fn run(
        threads: usize,
        seed: u64,
        fail: Option<(usize, bool)>,
    ) -> (Result<(u64, u64)>, Vec<usize>, usize, Vec<(usize, u64)>) {
        let (x, grid) = ragged();
        let nblocks = grid.num_blocks();
        let work_delays = jitter(seed ^ 0xabcd, nblocks);
        let folds = Cell::new(0);
        let mut src = Recording {
            inner: DenseMemorySource::new(&x),
            delays: jitter(seed, nblocks),
            loads: Vec::new(),
            folds: &folds,
            max_held: 0,
        };
        let folded = RefCell::new(Vec::new());
        let outcome = stream_blocks(
            &mut src,
            &grid,
            &ParConfig::with_threads(threads),
            |lin, block| {
                std::thread::sleep(work_delays[lin]);
                match fail {
                    Some((k, true)) if k == lin => panic!("block {lin} exploded"),
                    Some((k, false)) if k == lin => Err(TwoPcpError::Config {
                        reason: format!("block {lin} failed"),
                    }),
                    _ => Ok(digest(lin, block)),
                }
            },
            |result| {
                folds.set(folds.get() + 1);
                folded.borrow_mut().push(result);
            },
        );
        (outcome, src.loads, src.max_held, folded.into_inner())
    }

    #[test]
    fn pipelined_loop_loads_in_order_holds_at_most_threads_and_folds_like_serial() {
        let (_, grid) = ragged();
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
        let (serial, _, _, serial_folds) = run(1, 0, None);
        assert_eq!(
            serial.unwrap(),
            (sizes.iter().sum(), *sizes.iter().max().unwrap())
        );
        for threads in [1usize, 2, 3, 7] {
            for seed in 1..=3 {
                let (outcome, loads, max_held, folded) = run(threads, seed, None);
                let (ingested, peak) = outcome.unwrap();
                assert_eq!(loads, ascending, "t{threads} s{seed}: load order");
                assert!(max_held <= threads, "t{threads} s{seed}: held {max_held}");
                assert_eq!(folded, serial_folds, "t{threads} s{seed}: folds");
                assert_eq!(ingested, sizes.iter().sum::<u64>(), "t{threads} s{seed}");
                // The buffers hold `threads` blocks at most; which ones
                // depends on the order the workers hand them back.
                let mut largest = sizes.clone();
                largest.sort_unstable_by(|a, b| b.cmp(a));
                let bound: u64 = largest[..threads].iter().sum();
                assert!(
                    (largest[0]..=bound).contains(&peak),
                    "t{threads} s{seed}: peak {peak}"
                );
            }
        }
    }

    #[test]
    fn a_failing_block_is_the_error_and_stops_the_loads() {
        for threads in [1usize, 2, 3, 7] {
            for (seed, k) in [0usize, 6, 13, 24].into_iter().enumerate() {
                let (outcome, loads, _, folded) = run(threads, seed as u64, Some((k, false)));
                match outcome {
                    Err(TwoPcpError::Config { reason }) => {
                        assert_eq!(reason, format!("block {k} failed"), "t{threads}")
                    }
                    other => panic!("t{threads} k{k}: {other:?}"),
                }
                let order: Vec<usize> = folded.iter().map(|&(lin, _)| lin).collect();
                assert_eq!(order, (0..k).collect::<Vec<_>>(), "t{threads} k{k}: folds");
                let last = *loads.last().unwrap();
                assert!(last < k + threads, "t{threads} k{k}: loaded block {last}");
            }
        }
    }

    #[test]
    fn a_panicking_block_is_an_error_not_a_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for threads in [1usize, 2, 3, 7] {
                let (outcome, _, _, folded) = run(threads, 5, Some((9, true)));
                tx.send((threads, outcome.map(|_| ()), folded.len()))
                    .unwrap();
            }
        });
        for _ in 0..4 {
            let (threads, outcome, folds) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("the loop returns after a panic");
            match outcome {
                Err(TwoPcpError::WorkerPanic { message }) => {
                    assert!(
                        message.contains("block 9 exploded"),
                        "t{threads}: {message}"
                    )
                }
                other => panic!("t{threads}: {other:?}"),
            }
            assert_eq!(folds, 9, "t{threads}");
        }
    }
}
