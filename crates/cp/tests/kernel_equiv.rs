//! Tiled == reference bitwise equivalence for the dense MTTKRP.
//!
//! The dense 3-mode MTTKRP runs its slab sweeps on the `Kernel` products
//! (`matmul`, `t_matmul`, `partial_fold`, `partial_axpy`); through the
//! pinned entry `mttkrp_dense_kernel` the tiled backend must reproduce
//! the reference backend **bit for bit** for every mode, any ragged dims,
//! rank spanning 1..32, and any thread budget — the composition of the
//! primitives that `tpcp-linalg`'s `kernel_equiv` suite pins one by one.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::{mttkrp_dense, mttkrp_dense_kernel};
use tpcp_linalg::{KernelKind, Mat};
use tpcp_par::ParConfig;
use tpcp_tensor::DenseTensor;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 7];

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn rand_tensor_and_factors(dims: &[usize], f: usize, seed: u64) -> (DenseTensor, Vec<Mat>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = tpcp_tensor::random_dense(dims, &mut rng);
    let factors = dims
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, f, &mut rng))
        .collect();
    (t, factors)
}

/// Asserts that for every mode the implicit entry point and, at every
/// thread budget, the tiled backend equal the serial reference backend
/// bitwise.
fn check_modes(dims: &[usize], f: usize, seed: u64) {
    let (t, factors) = rand_tensor_and_factors(dims, f, seed);
    let refs: Vec<&Mat> = factors.iter().collect();
    for mode in 0..dims.len() {
        let reference =
            mttkrp_dense_kernel(&t, &refs, mode, &ParConfig::serial(), KernelKind::Reference)
                .unwrap();
        // `mttkrp_dense` takes no kernel argument: it must run the tiled
        // backend, bitwise the reference.
        let implicit = mttkrp_dense(&t, &refs, mode, &ParConfig::auto()).unwrap();
        prop_assert_eq!(
            bits(&implicit),
            bits(&reference),
            "mttkrp_dense mode {}",
            mode
        );
        for threads in THREAD_BUDGETS {
            let par = ParConfig::with_threads(threads);
            let tiled = mttkrp_dense_kernel(&t, &refs, mode, &par, KernelKind::Tiled).unwrap();
            prop_assert_eq!(
                bits(&tiled),
                bits(&reference),
                "dims {:?} mode {} rank {} threads {}: tiled != reference bitwise",
                dims,
                mode,
                f,
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Small ragged dims at low rank: exercises the narrow tiles
    /// (rank < TILE_NR) and row-ragged edges of the slab products on all
    /// three modes.
    #[test]
    fn tiled_mttkrp_matches_reference_small_ranks(
        d0 in 3usize..14, d1 in 3usize..14, d2 in 3usize..14,
        f in 1usize..8, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1, d2], f, seed);
    }

    /// Work above the 2¹³ serial clamp with ranks up to 32, so the slab
    /// sweeps genuinely fan out and full 8-wide tiles plus ragged rank
    /// tails are both hit.
    #[test]
    fn tiled_mttkrp_matches_reference_parallel(
        d0 in 12usize..17, d1 in 12usize..17, d2 in 12usize..17,
        f in 8usize..33, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1, d2], f, seed);
    }
}

/// Zero-heavy tensors: the reference fibre loops skip zero entries while
/// the tiled loops are branch-free; ±0.0 products must leave the
/// accumulators bitwise unchanged for finite inputs.
#[test]
fn tiled_mttkrp_matches_reference_with_zeros() {
    let dims = [13usize, 11, 9];
    let (mut t, factors) = rand_tensor_and_factors(&dims, 16, 42);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 0.0;
        } else if i % 5 == 0 {
            *v = -0.0;
        }
    }
    let refs: Vec<&Mat> = factors.iter().collect();
    for mode in 0..3 {
        let reference =
            mttkrp_dense_kernel(&t, &refs, mode, &ParConfig::serial(), KernelKind::Reference)
                .unwrap();
        for threads in THREAD_BUDGETS {
            let par = ParConfig::with_threads(threads);
            let tiled = mttkrp_dense_kernel(&t, &refs, mode, &par, KernelKind::Tiled).unwrap();
            assert_eq!(bits(&tiled), bits(&reference), "mode {mode} t{threads}");
        }
    }
}
