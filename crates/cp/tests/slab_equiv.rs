//! The dense order-3 MTTKRP's slab sweeps against the per-fibre loops.
//!
//! `mttkrp_dense` contracts each mode-0 slab `X[i]` on the register-tiled
//! products, one panel of `j` rows at a time; the per-fibre loops of
//! `fibre_oracle` are the order it must keep. Every mode, at thread
//! budgets whose bands are and are not whole register tiles and through
//! the implicit budget, on ragged dims, ranks below, at and across the
//! 8-wide tile, tensors with every third fibre zero or with zeros of both
//! signs, and a mode 1 longer than one panel: bit for bit. The oracle does
//! not share the slab code, so a fault in how `mttkrp_dense` composes the
//! primitives fails here even where every primitive is right.

mod fibre_oracle;

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::mttkrp_dense;
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_tensor::DenseTensor;

/// Budget 3 cuts 13 and 11 rows into bands that are not whole 4-row tiles
/// under a plain `div_ceil`; 7 leaves some workers idle on short modes.
const THREAD_BUDGETS: [usize; 5] = [1, 2, 3, 4, 7];

const RANKS: [usize; 8] = [1, 3, 6, 8, 10, 16, 17, 32];

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Ragged dims, and a mode 1 of 130 and 257 rows: longer than one
/// 128-row panel, so the sweeps continue across two and three panels.
fn shapes() -> [[usize; 3]; 4] {
    [[13, 11, 9], [5, 7, 3], [3, 130, 5], [2, 257, 3]]
}

#[test]
fn slab_sweeps_are_bitwise_the_fibre_loops() {
    for (s, dims) in shapes().into_iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(s as u64);
        let dense = tpcp_tensor::random_dense(&dims, &mut rng);
        let mut zero_fibres = dense.clone();
        for (ij, fibre) in zero_fibres.as_mut_slice().chunks_mut(dims[2]).enumerate() {
            if ij % 3 == 1 {
                fibre.fill(0.0);
            }
        }
        for (name, t) in [("dense", &dense), ("zero fibres", &zero_fibres)] {
            check_modes(name, t, &mut rng);
        }
    }
}

fn check_modes(name: &str, t: &DenseTensor, rng: &mut rand::rngs::StdRng) {
    for f in RANKS {
        let factors: Vec<Mat> = t
            .dims()
            .iter()
            .map(|&d| tpcp_tensor::random_factor(d, f, rng))
            .collect();
        check_factors(name, t, &factors);
    }
}

/// Every mode of `t` against the oracle: at every thread budget, and
/// through the implicit budget.
fn check_factors(name: &str, t: &DenseTensor, factors: &[Mat]) {
    let refs: Vec<&Mat> = factors.iter().collect();
    let f = factors[0].cols();
    for mode in 0..3 {
        let oracle = bits(&fibre_oracle::mttkrp3(t, &refs, mode));
        let case = format!("{name} {:?} F{f} mode {mode}", t.dims());
        for threads in THREAD_BUDGETS {
            let par = ParConfig::with_threads(threads);
            let tiled = mttkrp_dense(t, &refs, mode, &par).unwrap();
            prop_assert_eq!(&bits(&tiled), &oracle, "{} t{}", case, threads);
        }
        let implicit = mttkrp_dense(t, &refs, mode, &ParConfig::auto()).unwrap();
        prop_assert_eq!(&bits(&implicit), &oracle, "{} implicit budget", case);
    }
}

fn random_case(dims: &[usize], f: usize, seed: u64) -> (DenseTensor, Vec<Mat>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = tpcp_tensor::random_dense(dims, &mut rng);
    let factors = dims
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, f, &mut rng))
        .collect();
    (t, factors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Small ragged dims at low rank: the narrow tiles (rank < 8) and
    /// row-ragged edges of the slab products on all three modes.
    #[test]
    fn slab_sweeps_match_the_oracle_small_ranks(
        d0 in 3usize..14, d1 in 3usize..14, d2 in 3usize..14,
        f in 1usize..8, seed in 0u64..1000,
    ) {
        let (t, factors) = random_case(&[d0, d1, d2], f, seed);
        check_factors("random", &t, &factors);
    }

    /// Work above the 2¹³ serial clamp with ranks up to 32, so the slab
    /// sweeps fan out and full 8-wide tiles plus ragged rank tails are
    /// both hit.
    #[test]
    fn slab_sweeps_match_the_oracle_parallel(
        d0 in 12usize..17, d1 in 12usize..17, d2 in 12usize..17,
        f in 8usize..33, seed in 0u64..1000,
    ) {
        let (t, factors) = random_case(&[d0, d1, d2], f, seed);
        check_factors("random", &t, &factors);
    }
}

/// Zeros of both signs scattered through the tensor: the oracle skips
/// zero entries while the tiled loops are branch-free, and for finite
/// inputs a `±0.0` product leaves an accumulator bitwise unchanged.
#[test]
fn slab_sweeps_match_the_oracle_with_signed_zeros() {
    let (mut t, factors) = random_case(&[13, 11, 9], 16, 42);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 0.0;
        } else if i % 5 == 0 {
            *v = -0.0;
        }
    }
    check_factors("signed zeros", &t, &factors);
}
