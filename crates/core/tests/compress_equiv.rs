//! Compress-then-decompose equivalence and determinism contract.
//!
//! The compressed pipeline is opt-in and approximate, but its contract is
//! strict where it matters:
//!
//! * on exactly-low-mlrank data it must recover (essentially) the exact
//!   path's fit, across orders 3–5 and ragged shapes;
//! * on noisy data the reported retained energy must bound what the
//!   truncation actually discarded;
//! * the whole pipeline — sketches, eigensolves, core ALS, polish — is
//!   bitwise run-to-run repeatable and invariant across thread budgets
//!   {1, 2, 4, 7}.

use rand::SeedableRng;
use tpcp_compress::{compress_decompose, CompressOutcome};
use tpcp_cp::{cp_als_dense, AlsOptions, CpModel};
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_partition::{DenseMemorySource, Grid};
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::CompressOptions;

/// A CP-structured tensor of rank `f`: multilinear rank ≤ `f` per mode
/// *and* exactly fittable by a rank-`f` CP model.
fn low_mlrank(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    CpModel::new(vec![1.0; f], factors)
        .unwrap()
        .reconstruct_dense()
}

fn options(rank: usize) -> AlsOptions {
    AlsOptions::builder()
        .rank(rank)
        .max_iters(60)
        .tol(1e-9)
        .seed(7)
        .build()
        .unwrap()
}

/// The pipeline over a one-block grid of `x`.
fn single_block(x: &DenseTensor, opts: &AlsOptions, copts: &CompressOptions) -> CompressOutcome {
    let grid = Grid::uniform(x.dims(), 1);
    compress_decompose(&mut DenseMemorySource::new(x), &grid, opts, copts).unwrap()
}

#[test]
fn orders_3_to_5_ragged_recover_the_exact_fit() {
    // Ragged shapes on purpose: no dimension divides another.
    let shapes: [&[usize]; 3] = [&[11, 7, 5], &[9, 8, 6, 5], &[7, 6, 5, 4, 3]];
    for dims in shapes {
        let f = 3;
        let x = low_mlrank(dims, f, 42 + dims.len() as u64);
        let exact = cp_als_dense(&x, &options(f)).unwrap();
        let exact_fit = *exact.fit_trace.last().unwrap();

        // A few polish sweeps: the core ALS solves the same problem in the
        // compressed basis, but matching a fully converged direct ALS to
        // 1e-6 takes more than the default single exact sweep.
        let copts = CompressOptions::builder()
            .mlrank(vec![f; dims.len()])
            .refine_iters(12)
            .build()
            .unwrap();
        let out = single_block(&x, &options(f), &copts);
        let fit = out.model.fit_dense(&x).unwrap();
        assert!(
            fit >= exact_fit - 1e-6,
            "order {}: compressed fit {fit} below exact {exact_fit}",
            dims.len()
        );
        assert_eq!(out.provenance.core_shape, vec![f; dims.len()]);
    }
}

#[test]
fn noisy_data_energy_bound_holds() {
    // Low-mlrank signal plus small dense noise: the truncated tail is at
    // most the noise energy, so retained energy must sit above the
    // signal's share and never above 1.
    let dims = [12, 10, 8];
    let f = 3;
    let signal = low_mlrank(&dims, f, 9);
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let noise = tpcp_tensor::random_dense(&dims, &mut rng);
    let signal_sq: f64 = signal.as_slice().iter().map(|v| v * v).sum();
    let noise_sq: f64 = noise.as_slice().iter().map(|v| v * v).sum();
    // Scale the noise to 1% of the signal energy.
    let scale = (0.01 * signal_sq / noise_sq).sqrt();
    let data: Vec<f64> = signal
        .as_slice()
        .iter()
        .zip(noise.as_slice())
        .map(|(s, n)| s + scale * n)
        .collect();
    let x = DenseTensor::from_vec(&dims, data);

    let copts = CompressOptions::builder()
        .mlrank(vec![f; dims.len()])
        .build()
        .unwrap();
    let out = single_block(&x, &options(f), &copts);
    let e = out.provenance.energy;
    // ‖noise‖² ≈ 1% of ‖signal‖² ⇒ each mode discards at most ~1/101 of
    // the total; order × that bounds the reported multi-mode discard.
    assert!(e <= 1.0, "energy {e} above 1");
    assert!(e >= 1.0 - 0.04, "energy {e} claims too much was discarded");
    // And the model still explains the signal through the noise floor.
    let fit = out.model.fit_dense(&x).unwrap();
    assert!(fit > 0.85, "noisy fit {fit}");
}

/// Factor/weight/provenance bits of one blocked run.
fn pipeline_bits(
    x: &DenseTensor,
    grid: &Grid,
    threads: usize,
    sketched: bool,
) -> (Vec<Vec<u64>>, Vec<u64>, Vec<usize>) {
    let f = 3;
    let mut opts = options(f);
    opts.par = ParConfig::with_threads(threads);
    let mut b = CompressOptions::builder().mlrank(vec![f; x.dims().len()]);
    if sketched {
        b = b.oversample(3).power_iters(1);
    }
    let mut src = DenseMemorySource::new(x);
    let out = compress_decompose(&mut src, grid, &opts, &b.build().unwrap()).unwrap();
    (
        out.model
            .factors
            .iter()
            .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect(),
        out.model.weights.iter().map(|v| v.to_bits()).collect(),
        out.provenance.mlrank.clone(),
    )
}

#[test]
fn bitwise_across_threads() {
    let dims = [10, 9, 8, 7];
    let x = low_mlrank(&dims, 3, 21);
    let grid = Grid::uniform(&dims, 2);
    for sketched in [false, true] {
        let baseline = pipeline_bits(&x, &grid, 1, sketched);
        for threads in [2usize, 4, 7] {
            let got = pipeline_bits(&x, &grid, threads, sketched);
            assert_eq!(
                baseline, got,
                "sketched={sketched} threads={threads} diverged"
            );
        }
        // Run-to-run: same configuration twice.
        let again = pipeline_bits(&x, &grid, 1, sketched);
        assert_eq!(baseline, again, "sketched={sketched}: not repeatable");
    }
}
