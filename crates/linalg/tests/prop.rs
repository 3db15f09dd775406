//! Property-based tests for the linear-algebra kernels.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use tpcp_linalg::{hadamard_all, khatri_rao, solve, Mat};

/// Strategy producing a matrix with bounded dimensions and tame values.
fn mat(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> impl Strategy<Value = Mat> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Mat::from_vec(r, c, data))
    })
}

/// Pair of matrices with compatible inner dimension for `matmul`.
fn matmul_pair() -> impl Strategy<Value = (Mat, Mat)> {
    (1usize..8, 1usize..8, 1usize..8).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-10.0f64..10.0, m * k)
                .prop_map(move |d| Mat::from_vec(m, k, d)),
            proptest::collection::vec(-10.0f64..10.0, k * n)
                .prop_map(move |d| Mat::from_vec(k, n, d)),
        )
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(a in mat(1..12, 1..12)) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn matmul_associates_with_identity((a, b) in matmul_pair()) {
        let c = a.matmul(&b).unwrap();
        let via_identity = a
            .matmul(&Mat::identity(a.cols())).unwrap()
            .matmul(&b).unwrap();
        prop_assert!(c.max_abs_diff(&via_identity).unwrap() < 1e-9);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul((a, b) in (1usize..8, 1usize..8, 1usize..8)
        .prop_flat_map(|(m, k, n)| (
            proptest::collection::vec(-10.0f64..10.0, m * k)
                .prop_map(move |d| Mat::from_vec(m, k, d)),
            proptest::collection::vec(-10.0f64..10.0, m * n)
                .prop_map(move |d| Mat::from_vec(m, n, d)),
        )))
    {
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transposed().matmul(&b).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-9);
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal(a in mat(1..10, 1..6)) {
        let g = a.gram();
        for i in 0..g.rows() {
            // Diagonal entries of a Gram matrix are column norms squared.
            prop_assert!(g.get(i, i) >= -1e-12);
            for j in 0..g.cols() {
                prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn khatri_rao_gram_identity(
        (a, b) in (1usize..6, 1usize..6, 1usize..5).prop_flat_map(|(ra, rb, f)| (
            proptest::collection::vec(-5.0f64..5.0, ra * f)
                .prop_map(move |d| Mat::from_vec(ra, f, d)),
            proptest::collection::vec(-5.0f64..5.0, rb * f)
                .prop_map(move |d| Mat::from_vec(rb, f, d)),
        )))
    {
        // (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ⊛ BᵀB
        let k = khatri_rao(&[&a, &b]).unwrap();
        let lhs = k.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-8);
    }

    #[test]
    fn hadamard_is_commutative(a in mat(1..8, 1..8)) {
        let b = {
            let mut b = a.clone();
            b.scale(0.5);
            b
        };
        let ab = hadamard_all(&[&a, &b]).unwrap();
        let ba = hadamard_all(&[&b, &a]).unwrap();
        prop_assert!(ab.max_abs_diff(&ba).unwrap() < 1e-12);
    }

    #[test]
    fn solve_gram_recovers_solution(
        (x, basis) in (1usize..5, 2usize..6).prop_flat_map(|(m, n)| (
            proptest::collection::vec(-3.0f64..3.0, m * n)
                .prop_map(move |d| Mat::from_vec(m, n, d)),
            proptest::collection::vec(-3.0f64..3.0, (n + 2) * n)
                .prop_map(move |d| Mat::from_vec(n + 2, n, d)),
        )))
    {
        // S = basisᵀ·basis + I is comfortably SPD.
        let mut s = basis.gram();
        s.add_assign(&Mat::identity(s.rows())).unwrap();
        let t = x.matmul(&s).unwrap();
        let recovered = solve::solve_gram_system(&t, &s, 1e-12).unwrap();
        prop_assert!(recovered.max_abs_diff(&x).unwrap() < 1e-6);
    }

    #[test]
    fn lu_solve_residual_is_small(
        (a, x) in (2usize..6).prop_flat_map(|n| (
            proptest::collection::vec(-3.0f64..3.0, n * n)
                .prop_map(move |d| {
                    // Diagonally dominate to keep the system well conditioned.
                    let mut m = Mat::from_vec(n, n, d);
                    for i in 0..n {
                        let v = m.get(i, i) + 10.0;
                        m.set(i, i, v);
                    }
                    m
                }),
            proptest::collection::vec(-3.0f64..3.0, n),
        )))
    {
        let mut b = vec![0.0; x.len()];
        for i in 0..x.len() {
            for j in 0..x.len() {
                b[i] += a.get(i, j) * x[j];
            }
        }
        let got = solve::lu_solve(&a, &b).unwrap();
        for (g, w) in got.iter().zip(&x) {
            prop_assert!((g - w).abs() < 1e-7);
        }
    }

    #[test]
    fn vstack_row_block_roundtrip(
        (top, bottom) in (1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(r1, r2, c)| (
            proptest::collection::vec(-5.0f64..5.0, r1 * c)
                .prop_map(move |d| Mat::from_vec(r1, c, d)),
            proptest::collection::vec(-5.0f64..5.0, r2 * c)
                .prop_map(move |d| Mat::from_vec(r2, c, d)),
        )))
    {
        let stacked = Mat::vstack(&[&top, &bottom]);
        prop_assert_eq!(stacked.row_block(0, top.rows()), top.clone());
        prop_assert_eq!(stacked.row_block(top.rows(), bottom.rows()), bottom);
    }
}

proptest! {
    /// Jacobi eigendecomposition: `S ≈ V·Λ·Vᵀ`, `VᵀV ≈ I`, eigenvalues
    /// descending — on comfortably-conditioned random Gram matrices.
    #[test]
    fn sym_eig_reconstructs(
        basis in (2usize..6).prop_flat_map(|n| (
            proptest::collection::vec(-3.0f64..3.0, (n + 2) * n)
                .prop_map(move |d| Mat::from_vec(n + 2, n, d)),
        )))
    {
        let (basis,) = basis;
        let mut s = basis.gram();
        s.add_assign(&Mat::identity(s.rows())).unwrap();
        let (lambda, v) = solve::sym_eig(&s).unwrap();
        prop_assert!(lambda.windows(2).all(|w| w[0] >= w[1]));
        let mut vl = v.clone();
        vl.scale_columns(&lambda);
        let back = vl.matmul_t(&v).unwrap();
        prop_assert!(back.max_abs_diff(&s).unwrap() < 1e-8);
        let eye = v.gram();
        prop_assert!(eye.max_abs_diff(&Mat::identity(s.rows())).unwrap() < 1e-10);
    }

    /// CholeskyQR2: `QᵀQ ≈ I` to working precision and `Q` spans the same
    /// column space (`Q·QᵀA ≈ A`), on full-column-rank tall inputs (an
    /// appended identity block guarantees the rank).
    #[test]
    fn orthonormalize_is_orthonormal_and_spanning(
        a in (1usize..6, 2usize..8).prop_flat_map(|(k, extra)| (
            proptest::collection::vec(-5.0f64..5.0, (k + extra) * k)
                .prop_map(move |d| {
                    let top = Mat::from_vec(k + extra, k, d);
                    Mat::vstack(&[&top, &Mat::identity(k)])
                }),
        )))
    {
        let (a,) = a;
        let q = a.orthonormalize().unwrap();
        prop_assert_eq!(q.shape(), a.shape());
        prop_assert!(q.gram().max_abs_diff(&Mat::identity(a.cols())).unwrap() < 1e-12);
        let back = q.matmul(&q.t_matmul(&a).unwrap()).unwrap();
        prop_assert!(back.max_abs_diff(&a).unwrap() < 1e-8);
    }

    /// Both routines are serial (Jacobi) or built on bitwise
    /// thread-invariant products (`gram`), so repeated runs must
    /// agree bit for bit — the determinism leg of the contract.
    #[test]
    fn eig_and_orthonormalize_are_bitwise_repeatable(
        a in (2usize..5, 1usize..4).prop_flat_map(|(k, extra)| (
            proptest::collection::vec(-4.0f64..4.0, (k + extra) * k)
                .prop_map(move |d| Mat::from_vec(k + extra, k, d)),
        )))
    {
        let (a,) = a;
        let s = {
            let mut s = a.gram();
            s.add_assign(&Mat::identity(a.cols())).unwrap();
            s
        };
        let (l1, v1) = solve::sym_eig(&s).unwrap();
        let (l2, v2) = solve::sym_eig(&s).unwrap();
        prop_assert_eq!(mat_bits(&v1), mat_bits(&v2));
        let lb = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(lb(&l1), lb(&l2));
        let tall = Mat::vstack(&[&a, &Mat::identity(a.cols())]);
        let q1 = tall.orthonormalize().unwrap();
        let q2 = tall.orthonormalize().unwrap();
        prop_assert_eq!(mat_bits(&q1), mat_bits(&q2));
    }
}

/// Bitwise results of a matrix as a u64 vector (exact FP comparison).
fn mat_bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallel product kernels partition the output matrix, so every
    /// thread budget must reproduce the serial result bit for bit. The
    /// shapes keep `m·k·n` above the kernels' serial-clamp flop threshold
    /// (2¹⁵) so the parallel path is genuinely exercised.
    #[test]
    fn matmul_is_thread_invariant(
        (a, b) in (128usize..192, 16usize..24, 16usize..24).prop_flat_map(|(m, k, n)| (
            proptest::collection::vec(-10.0f64..10.0, m * k)
                .prop_map(move |d| Mat::from_vec(m, k, d)),
            proptest::collection::vec(-10.0f64..10.0, k * n)
                .prop_map(move |d| Mat::from_vec(k, n, d)),
        )))
    {
        use tpcp_par::ParConfig;
        let serial = a.matmul_kernel(&b, &ParConfig::serial()).unwrap();
        for threads in [2usize, 4, 7] {
            let par = a.matmul_kernel(&b, &ParConfig::with_threads(threads)).unwrap();
            prop_assert_eq!(mat_bits(&par), mat_bits(&serial), "threads {}", threads);
        }
        // matmul_t against the explicit transpose, same invariance.
        let bt = b.transposed();
        let serial_t = a.matmul_t_kernel(&bt, &ParConfig::serial()).unwrap();
        prop_assert_eq!(mat_bits(&serial_t), mat_bits(&serial));
        for threads in [2usize, 4, 7] {
            let par = a.matmul_t_kernel(&bt, &ParConfig::with_threads(threads)).unwrap();
            prop_assert_eq!(mat_bits(&par), mat_bits(&serial), "matmul_t threads {}", threads);
        }
    }

    /// `gram`/`t_matmul` partition the *output* rows but sweep the input
    /// rows in serial order, so they are bit-identical too. Tall shapes
    /// keep the flop count above the serial clamp.
    #[test]
    fn gram_and_t_matmul_are_thread_invariant(
        (a, b) in (512usize..640, 8usize..12, 8usize..12).prop_flat_map(|(m, k, n)| (
            proptest::collection::vec(-10.0f64..10.0, m * k)
                .prop_map(move |d| Mat::from_vec(m, k, d)),
            proptest::collection::vec(-10.0f64..10.0, m * n)
                .prop_map(move |d| Mat::from_vec(m, n, d)),
        )))
    {
        use tpcp_par::ParConfig;
        let gram_on = |par: &ParConfig| {
            let mut g = Mat::default();
            a.gram_into(par, &mut g);
            g
        };
        let gram_serial = gram_on(&ParConfig::serial());
        prop_assert_eq!(mat_bits(&gram_serial), mat_bits(&a.gram()));
        let tm_serial = a.t_matmul_kernel(&b, &ParConfig::serial()).unwrap();
        for threads in [2usize, 4, 7] {
            let cfg = ParConfig::with_threads(threads);
            prop_assert_eq!(mat_bits(&gram_on(&cfg)), mat_bits(&gram_serial), "gram threads {}", threads);
            let tm = a.t_matmul_kernel(&b, &cfg).unwrap();
            prop_assert_eq!(mat_bits(&tm), mat_bits(&tm_serial), "t_matmul threads {}", threads);
        }
    }
}
