//! Determinism and correctness contract of the dense contraction engine
//! (`docs/dimtree.md`): the one-shot `mttkrp_dense` and the `DimTree`
//! sweeps the ALS loop runs on.
//!
//! 1. **Correct**: every MTTKRP agrees with the materialised definition
//!    `unfold · khatri_rao` within a small relative tolerance — the tree
//!    sums factor *groups* at internal nodes, the definition one fused
//!    Khatri-Rao row per element, and floating-point addition does not
//!    associate.
//! 2. **Bitwise deterministic**: run to run and across thread budgets —
//!    one accumulator per node element, reduction index ascending,
//!    parallelism banding output rows only — and the contract survives
//!    the whole ALS loop. Each primitive is pinned bitwise against the
//!    scalar oracle in `tpcp-linalg`'s `kernel_equiv`.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::{cp_als_dense, mttkrp_dense, AlsOptions, CpModel, DimTree};
use tpcp_linalg::{hadamard_all, khatri_rao, solve::cholesky, Mat};
use tpcp_par::ParConfig;
use tpcp_tensor::DenseTensor;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 7];

/// Relative tolerance against the materialised reference. Both sides sum
/// the same ≤ ~8⁵·16 products in different orders; the error of either
/// against the exact sum is bounded by `n·ε·Σ|terms|`, and these dims keep
/// that far below 1e-10 of the result norm.
const MTTKRP_RTOL: f64 = 1e-10;

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn rand_factors(dims: &[usize], f: usize, rng: &mut rand::rngs::StdRng) -> Vec<Mat> {
    dims.iter()
        .map(|&d| tpcp_tensor::random_factor(d, f, rng))
        .collect()
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

fn assert_close(fast: &Mat, x: &DenseTensor, factors: &[&Mat], mode: usize, what: &str) {
    let slow = reference_mttkrp(x, factors, mode);
    let scale = slow.fro_norm().max(1.0);
    let diff = fast.max_abs_diff(&slow).unwrap() / scale;
    prop_assert!(
        diff < MTTKRP_RTOL,
        "{what}: dims {:?} mode {mode}: rel diff {diff:e}",
        x.dims()
    );
}

/// Every mode one-shot, then two ALS-shaped sweeps on one tree (each
/// mode's factor replaced after its MTTKRP, so the second sweep answers
/// from partials the first left valid): all of it within tolerance of the
/// reference and bitwise equal across thread budgets.
fn check_contraction(dims: &[usize], f: usize, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = tpcp_tensor::random_dense(dims, &mut rng);
    let initial = rand_factors(dims, f, &mut rng);
    let replacements = [
        rand_factors(dims, f, &mut rng),
        rand_factors(dims, f, &mut rng),
    ];

    let mut baseline: Option<Vec<Vec<u64>>> = None;
    for threads in THREAD_BUDGETS {
        let par = ParConfig::with_threads(threads);
        let what = format!("rank {f} t{threads}");
        let mut produced = Vec::new();

        let refs: Vec<&Mat> = initial.iter().collect();
        for mode in 0..dims.len() {
            let m = mttkrp_dense(&t, &refs, mode, &par).unwrap();
            assert_close(&m, &t, &refs, mode, &format!("one-shot {what}"));
            produced.push(bits(&m));
        }

        let mut tree = DimTree::new(dims, f).expect("order >= 2, rank >= 1");
        let mut live = initial.clone();
        for replacement in &replacements {
            for mode in 0..dims.len() {
                let refs: Vec<&Mat> = live.iter().collect();
                let m = tree.mttkrp(&t, &refs, mode, &par).unwrap();
                assert_close(&m, &t, &refs, mode, &format!("sweep {what}"));
                produced.push(bits(&m));
                live[mode] = replacement[mode].clone();
                tree.factor_updated(mode);
            }
        }

        match &baseline {
            None => baseline = Some(produced),
            Some(b) => prop_assert_eq!(b, &produced, "not bitwise stable: {}", what),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Order 2: both leaves hang off the root — a plain `matmul` and
    /// `t_matmul` against the other factor.
    #[test]
    fn contraction_order2(
        d0 in 1usize..40, d1 in 1usize..40, f in 1usize..33, seed in 0u64..1000,
    ) {
        check_contraction(&[d0, d1], f, seed);
    }

    /// Order 3: the one-shot path is the dense-3 slab sweeps, the tree
    /// has one internal node with singleton-sibling weights.
    #[test]
    fn contraction_order3(
        d0 in 1usize..12, d1 in 1usize..12, d2 in 1usize..12,
        f in 1usize..33, seed in 0u64..1000,
    ) {
        check_contraction(&[d0, d1, d2], f, seed);
    }

    /// Order 4: the balanced tree where both root children carry two-mode
    /// Khatri-Rao sibling weights.
    #[test]
    fn contraction_order4(
        d0 in 1usize..9, d1 in 1usize..9, d2 in 1usize..9, d3 in 1usize..9,
        f in 1usize..17, seed in 0u64..1000,
    ) {
        check_contraction(&[d0, d1, d2, d3], f, seed);
    }

    /// Order 5: an unbalanced split (2|3) exercising different left/right
    /// subtree depths and both non-root contraction kinds below one parent.
    #[test]
    fn contraction_order5(
        d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6,
        d3 in 1usize..6, d4 in 1usize..6,
        f in 1usize..9, seed in 0u64..1000,
    ) {
        check_contraction(&[d0, d1, d2, d3, d4], f, seed);
    }
}

/// The corners the ranges above only sometimes draw: a dimension of 1 in
/// every position, and rank 1.
#[test]
fn contraction_with_unit_dimensions_and_rank_one() {
    for dims in [
        vec![1usize, 7],
        vec![6, 1],
        vec![1, 5, 4, 3],
        vec![5, 1, 4, 3],
        vec![5, 4, 3, 1],
        vec![3, 1, 1, 4, 2],
        vec![1, 1, 1, 1],
    ] {
        check_contraction(&dims, 1, 17);
        check_contraction(&dims, 5, 18);
    }
}

/// An exact rank-`f` tensor whose factors are centred (entries in
/// ±0.5), so the components are far from collinear and ALS converges
/// without a swamp.
fn exact_low_rank(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut factors = rand_factors(dims, f, &mut rng);
    for factor in &mut factors {
        for v in factor.as_mut_slice() {
            *v -= 0.5;
        }
    }
    CpModel::new(vec![1.0; f], factors)
        .unwrap()
        .reconstruct_dense()
}

/// The ALS driver on orders 4 and 5 — the orders that sweep on the tree —
/// recovers exact low-rank data, and its whole trajectory (fit trace,
/// weights, factors) is bitwise the same for every thread budget: the
/// tree's determinism contract survives the sweep loop, Gram caching and
/// rebalancing included.
#[test]
fn als_on_the_tree_is_bitwise_reproducible_and_recovers_low_rank_data() {
    // Sized so that the root contractions (elements × rank ≥ 2¹³) really
    // fan out over the thread budget.
    for dims in [vec![9usize, 8, 8, 7], vec![6, 5, 5, 4, 5]] {
        let t = exact_low_rank(&dims, 3, 3);
        let mut baseline: Option<(Vec<u64>, Vec<Vec<u64>>)> = None;
        for threads in THREAD_BUDGETS {
            let opts = AlsOptions {
                rank: 3,
                max_iters: 200,
                tol: 1e-14,
                seed: 1,
                par: ParConfig::with_threads(threads),
                ..Default::default()
            };
            let report = cp_als_dense(&t, &opts).unwrap();
            assert!(
                report.final_fit >= 1.0 - 1e-6,
                "dims {dims:?} t{threads}: fit {} after {} iterations",
                report.final_fit,
                report.iterations
            );
            let trace: Vec<u64> = report.fit_trace.iter().map(|v| v.to_bits()).collect();
            let mut model: Vec<Vec<u64>> = report.model.factors.iter().map(bits).collect();
            model.push(report.model.weights.iter().map(|v| v.to_bits()).collect());
            match &baseline {
                None => baseline = Some((trace, model)),
                Some((base_trace, base_model)) => {
                    assert_eq!(base_trace, &trace, "t{threads}");
                    assert_eq!(base_model, &model, "t{threads}");
                }
            }
        }
    }
}

/// Order-3 ALS runs modes 0 and 1 as one pass over the block when its
/// budget is one thread, and as two per-mode sweeps banded over the
/// threads otherwise. The whole trajectory (fit trace, weights, factors)
/// is bitwise the same for every budget: ragged dims, ranks below, at and
/// across the 8-wide register chunk, all-zero fibres, and a mode-0 system
/// `V0` that needs the ridge.
#[test]
fn order3_als_is_bitwise_across_thread_budgets() {
    // Every case has elements × rank ≥ 2¹³, so above one thread the
    // per-mode sweeps really fan out.
    let ragged = exact_low_rank(&[23, 19, 21], 4, 5);
    let mut zero_fibres = exact_low_rank(&[23, 19, 21], 4, 6);
    for (ij, fibre) in zero_fibres.as_mut_slice().chunks_mut(21).enumerate() {
        if ij % 3 == 1 {
            fibre.fill(0.0);
        }
    }
    // rank(G1 ⊛ G2) ≤ 2·3 < F: V0 needs the ridge (asserted below for the
    // initial factors).
    let deficient = exact_low_rank(&[160, 2, 3], 2, 7);
    let mut cases: Vec<(&str, &DenseTensor, usize)> = Vec::new();
    for f in [1usize, 3, 8, 10, 16, 17] {
        cases.push(("ragged", &ragged, f));
        cases.push(("zero fibres", &zero_fibres, f));
    }
    cases.push(("rank-deficient", &deficient, 10));
    cases.push(("rank-deficient", &deficient, 16));
    for (name, t, f) in cases {
        let mut rng = rand::rngs::StdRng::seed_from_u64(f as u64);
        let init = rand_factors(t.dims(), f, &mut rng);
        if name == "rank-deficient" {
            let v0 = hadamard_all(&[&init[1].gram(), &init[2].gram()]).unwrap();
            assert!(cholesky(&v0).is_err(), "{name} F{f}: V0 is not singular");
        }
        let mut baseline: Option<(Vec<u64>, Vec<Vec<u64>>)> = None;
        for threads in THREAD_BUDGETS {
            let opts = AlsOptions {
                rank: f,
                max_iters: 6,
                tol: 0.0,
                init: Some(init.clone()),
                par: ParConfig::with_threads(threads),
                ..Default::default()
            };
            let report = cp_als_dense(t, &opts).unwrap();
            assert!(report.final_fit.is_finite(), "{name} F{f} t{threads}");
            let trace: Vec<u64> = report.fit_trace.iter().map(|v| v.to_bits()).collect();
            let mut model: Vec<Vec<u64>> = report.model.factors.iter().map(bits).collect();
            model.push(report.model.weights.iter().map(|v| v.to_bits()).collect());
            match &baseline {
                None => baseline = Some((trace, model)),
                Some((base_trace, base_model)) => {
                    assert_eq!(base_trace, &trace, "{name} F{f} t{threads}");
                    assert_eq!(base_model, &model, "{name} F{f} t{threads}");
                }
            }
        }
    }
}
