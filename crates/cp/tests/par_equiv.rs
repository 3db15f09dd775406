//! Parallel == serial equivalence for the MTTKRP kernels.
//!
//! The determinism contract of `tpcp-par` promises that every MTTKRP path
//! (dense 3-mode slab sweeps, contraction tree, sparse) produces **bit-identical**
//! results for any thread budget: the dense paths partition *output* rows
//! (each accumulated by one worker in serial order) and the sparse
//! reduction uses fixed, size-derived chunk boundaries merged in ascending
//! order. These property tests pin that contract across tensor
//! orders 3–5, every mode, and thread budgets {1, 2, 4, 7}.
//!
//! Tensor sizes are chosen to exceed the kernels' internal
//! serial-clamp work threshold (elements × rank ≥ 2¹³) and the reduction
//! chunk size (512 elements), so the parallel machinery — including
//! multi-chunk ordered merges — is genuinely exercised, not short-circuited.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::{mttkrp_dense, mttkrp_sparse_par};
use tpcp_linalg::{khatri_rao, Mat};
use tpcp_par::ParConfig;
use tpcp_tensor::{DenseTensor, SparseTensor};

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

/// Materialised reference: unfold(mode) · KR(other factors).
fn reference_mttkrp(x: &DenseTensor, factors: &[&Mat], mode: usize) -> Mat {
    let others: Vec<&Mat> = (0..factors.len())
        .filter(|&h| h != mode)
        .map(|h| factors[h])
        .collect();
    let kr = khatri_rao(&others).unwrap();
    x.unfold(mode).unwrap().matmul(&kr).unwrap()
}

/// Asserts bitwise thread-count invariance (and correctness vs the
/// materialised reference) of the dense kernel for every mode of `dims`.
fn check_dense(dims: &[usize], f: usize, seed: u64) {
    let (t, factors) = rand_tensor_and_factors(dims, f, seed);
    let refs: Vec<&Mat> = factors.iter().collect();
    for mode in 0..dims.len() {
        let serial = mttkrp_dense(&t, &refs, mode, &ParConfig::serial()).unwrap();
        let slow = reference_mttkrp(&t, &refs, mode);
        prop_assert!(
            serial.max_abs_diff(&slow).unwrap() < 1e-9,
            "dims {dims:?} mode {mode}: serial kernel diverges from reference"
        );
        for threads in THREAD_BUDGETS {
            let par = mttkrp_dense(&t, &refs, mode, &ParConfig::with_threads(threads)).unwrap();
            prop_assert_eq!(
                bits(&par),
                bits(&serial),
                "dims {:?} mode {} threads {}: parallel != serial bitwise",
                dims,
                mode,
                threads
            );
        }
    }
}

/// Asserts bitwise thread-count invariance of the sparse kernel (against a
/// half-zeroed dense tensor's COO view) for every mode of `dims`.
fn check_sparse(dims: &[usize], f: usize, seed: u64) {
    let (mut t, factors) = rand_tensor_and_factors(dims, f, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 0.0;
        }
    }
    let sp = SparseTensor::from_dense(&t, 0.0);
    let refs: Vec<&Mat> = factors.iter().collect();
    for mode in 0..dims.len() {
        let serial = mttkrp_sparse_par(&sp, &refs, mode, &ParConfig::serial()).unwrap();
        let dense = mttkrp_dense(&t, &refs, mode, &ParConfig::serial()).unwrap();
        prop_assert!(
            serial.max_abs_diff(&dense).unwrap() < 1e-9,
            "dims {dims:?} mode {mode}: sparse kernel diverges from dense"
        );
        for threads in THREAD_BUDGETS {
            let par =
                mttkrp_sparse_par(&sp, &refs, mode, &ParConfig::with_threads(threads)).unwrap();
            prop_assert_eq!(
                bits(&par),
                bits(&serial),
                "dims {:?} mode {} threads {}: sparse parallel != serial bitwise",
                dims,
                mode,
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dense3_fused_kernel_is_thread_invariant(
        d0 in 12usize..17, d1 in 12usize..17, d2 in 12usize..17,
        f in 6usize..11, seed in 0u64..1000,
    ) {
        check_dense(&[d0, d1, d2], f, seed);
    }

    #[test]
    fn dense_tree_order4_is_thread_invariant(
        d0 in 7usize..9, d1 in 7usize..9, d2 in 7usize..9, d3 in 7usize..9,
        f in 6usize..11, seed in 0u64..1000,
    ) {
        check_dense(&[d0, d1, d2, d3], f, seed);
    }

    #[test]
    fn dense_tree_order5_is_thread_invariant(
        d0 in 4usize..6, d1 in 4usize..6, d2 in 4usize..6,
        d3 in 4usize..6, d4 in 4usize..6,
        f in 8usize..11, seed in 0u64..1000,
    ) {
        check_dense(&[d0, d1, d2, d3, d4], f, seed);
    }

    #[test]
    fn sparse_kernel_is_thread_invariant_order3(
        d0 in 12usize..17, d1 in 12usize..17, d2 in 12usize..17,
        f in 10usize..13, seed in 0u64..1000,
    ) {
        check_sparse(&[d0, d1, d2], f, seed);
    }

    #[test]
    fn sparse_kernel_is_thread_invariant_order4(
        d0 in 7usize..9, d1 in 7usize..9, d2 in 7usize..9, d3 in 7usize..9,
        f in 10usize..13, seed in 0u64..1000,
    ) {
        check_sparse(&[d0, d1, d2, d3], f, seed);
    }
}

/// Fixed multi-chunk regression: large enough that the sparse reduction
/// cuts several 512-element chunks (and the tree bands several row
/// chunks), so the ordered merge — not just single-chunk degeneration — is
/// what the bitwise assertions pin.
#[test]
fn multi_chunk_reduction_is_thread_invariant() {
    let dims = [9usize, 8, 7, 5];
    let (t, factors) = rand_tensor_and_factors(&dims, 9, 99);
    assert!(t.len() > 4 * 512, "tensor must span several reduce chunks");
    let refs: Vec<&Mat> = factors.iter().collect();
    let sp = SparseTensor::from_dense(&t, 0.0);
    for mode in 0..dims.len() {
        let dense_serial = mttkrp_dense(&t, &refs, mode, &ParConfig::serial()).unwrap();
        let sparse_serial = mttkrp_sparse_par(&sp, &refs, mode, &ParConfig::serial()).unwrap();
        for threads in THREAD_BUDGETS {
            let cfg = ParConfig::with_threads(threads);
            let d = mttkrp_dense(&t, &refs, mode, &cfg).unwrap();
            let s = mttkrp_sparse_par(&sp, &refs, mode, &cfg).unwrap();
            assert_eq!(
                bits(&d),
                bits(&dense_serial),
                "dense mode {mode} t{threads}"
            );
            assert_eq!(
                bits(&s),
                bits(&sparse_serial),
                "sparse mode {mode} t{threads}"
            );
        }
    }
}
