//! The tiled primitives == the scalar oracle, bitwise.
//!
//! `tpcp_linalg::kernel`'s determinism contract promises that every
//! primitive accumulates each output element in exactly the serial order,
//! so each must reproduce the original scalar loops (`reference`, kept
//! verbatim) **bit for bit** — on any shape (including ragged dims that are
//! not multiples of the 4×8 register tile), any rank, and any thread
//! budget. These tests pin that contract for every primitive: the four
//! products through the `Mat` entry points (which run the tiled
//! primitives at every thread budget) against the oracle run as one serial
//! band, `matmul` / `matmul_t` overwriting a band of NaNs, `t_matmul`
//! accumulating into a non-zero `out`, and the fibre ops of the dimension
//! tree (`partial_fold`, `partial_axpy`) by width sweeps. The engine
//! composes only these primitives, each over output bands in a fixed
//! order.

mod reference;

use proptest::prelude::*;
use tpcp_linalg::{kernel, KernelKind, Mat};
use tpcp_par::ParConfig;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 7];

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |d| Mat::from_vec(rows, cols, d))
}

/// A product of the oracle over the whole `rows×cols` output, zeroed, as
/// one serial band (an empty output stays empty).
fn oracle(rows: usize, cols: usize, band: impl FnOnce(&mut [f64])) -> Mat {
    let mut out = Mat::zeros(rows, cols);
    if rows * cols > 0 {
        band(out.as_mut_slice());
    }
    out
}

/// The oracle's full Gram matrix `aᵀ · a`.
fn oracle_gram(a: &Mat) -> Mat {
    let (m, k) = a.shape();
    oracle(k, k, |out| {
        reference::gram_band(a.as_slice(), m, k, 0, k, out)
    })
}

/// Checks all four products on one `(a: m×k, b)` instance: the implicit
/// entry point and, for every thread budget, the explicit-budget entry
/// point must equal the oracle bitwise.
fn check_products(a: &Mat, b_kn: &Mat, b_mn: &Mat, b_nk: &Mat) {
    let ((m, k), n) = (a.shape(), b_kn.cols());
    let mm_ref = oracle(m, n, |out| {
        reference::matmul(a.as_slice(), m, k, b_kn.as_slice(), n, out)
    });
    let tm_ref = oracle(k, n, |out| {
        reference::t_matmul(a.as_slice(), m, k, 0, k, b_mn.as_slice(), n, out)
    });
    let mt_ref = oracle(m, n, |out| {
        reference::matmul_t(a.as_slice(), m, k, b_nk.as_slice(), n, out)
    });
    let gram_ref = oracle_gram(a);
    prop_assert_eq!(bits(&a.matmul(b_kn).unwrap()), bits(&mm_ref), "matmul");
    prop_assert_eq!(bits(&a.t_matmul(b_mn).unwrap()), bits(&tm_ref), "t_matmul");
    prop_assert_eq!(bits(&a.matmul_t(b_nk).unwrap()), bits(&mt_ref), "matmul_t");
    prop_assert_eq!(bits(&a.gram()), bits(&gram_ref), "gram");
    for threads in THREAD_BUDGETS {
        let par = ParConfig::with_threads(threads);
        let mm = a.matmul_kernel(b_kn, &par).unwrap();
        prop_assert_eq!(bits(&mm), bits(&mm_ref), "matmul threads {}", threads);
        let tm = a.t_matmul_kernel(b_mn, &par).unwrap();
        prop_assert_eq!(bits(&tm), bits(&tm_ref), "t_matmul threads {}", threads);
        let mt = a.matmul_t_kernel(b_nk, &par).unwrap();
        prop_assert_eq!(bits(&mt), bits(&mt_ref), "matmul_t threads {}", threads);
        let mut g = Mat::default();
        a.gram_into(&par, &mut g);
        prop_assert_eq!(bits(&g), bits(&gram_ref), "gram threads {}", threads);
        let g = a.gram_kernel(&par, KernelKind::Tiled);
        prop_assert_eq!(bits(&g), bits(&gram_ref), "gram_kernel threads {}", threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Small ragged shapes: dims 1..20 hit every combination of full and
    /// partial 4×8 tiles (and the all-edge case where no full tile fits),
    /// with ranks spanning the issue's 1..32 requirement.
    #[test]
    fn tiled_equals_reference_bitwise_ragged(
        (a, b_kn, b_mn, b_nk) in (1usize..20, 1usize..33, 1usize..20).prop_flat_map(|(m, k, n)| (
            mat_strategy(m, k),
            mat_strategy(k, n),
            mat_strategy(m, n),
            mat_strategy(n, k),
        )))
    {
        check_products(&a, &b_kn, &b_mn, &b_nk);
    }

    /// Shapes above the 2¹⁵-flop serial clamp, so the parallel wrappers
    /// genuinely fan out and the tile-aligned chunking is exercised
    /// (non-tile-multiple row counts make the last chunk ragged).
    #[test]
    fn tiled_equals_reference_bitwise_parallel(
        (a, b_kn, b_mn, b_nk) in (97usize..131, 9usize..33, 17usize..41).prop_flat_map(|(m, k, n)| (
            mat_strategy(m, k),
            mat_strategy(k, n),
            mat_strategy(m, n),
            mat_strategy(n, k),
        )))
    {
        check_products(&a, &b_kn, &b_mn, &b_nk);
    }

    /// The tiled gram computes only the upper triangle and mirrors; the
    /// result must still be exactly symmetric (bitwise) and equal to the
    /// reference full computation.
    #[test]
    fn tiled_gram_is_bitwise_symmetric(
        a in (5usize..60, 1usize..33).prop_flat_map(|(m, k)| mat_strategy(m, k)))
    {
        let mut g = Mat::default();
        a.gram_into(&ParConfig::serial(), &mut g);
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                prop_assert_eq!(
                    g.get(i, j).to_bits(),
                    g.get(j, i).to_bits(),
                    "gram asymmetric at ({}, {})", i, j
                );
            }
        }
        prop_assert_eq!(bits(&g), bits(&oracle_gram(&a)));
    }

    /// Zero-heavy inputs: the oracle's loops skip zero multiplicands
    /// while the tiled loops are branch-free; for finite inputs the ±0.0
    /// products must leave the accumulators bitwise unchanged.
    #[test]
    fn tiled_equals_reference_with_many_zeros(
        (a, b_kn, b_mn, b_nk) in (5usize..20, 4usize..20, 5usize..20).prop_flat_map(|(m, k, n)| {
            let sparse = |r: usize, c: usize| {
                proptest::collection::vec(
                    // Unweighted oneof: repeat the +0.0 arm for a 3:1:1 mix.
                    prop_oneof![
                        Just(0.0f64),
                        Just(0.0f64),
                        Just(0.0f64),
                        -4.0f64..4.0,
                        Just(-0.0f64),
                    ],
                    r * c,
                )
                .prop_map(move |d| Mat::from_vec(r, c, d))
            };
            (sparse(m, k), sparse(k, n), sparse(m, n), sparse(n, k))
        }))
    {
        check_products(&a, &b_kn, &b_mn, &b_nk);
    }
}

/// Degenerate shapes must not panic and must agree with the oracle.
#[test]
fn degenerate_shapes_agree() {
    let par = ParConfig::serial();
    for (m, k, n) in [(1, 1, 1), (4, 0, 8), (0, 3, 3), (3, 3, 0), (8, 1, 8)] {
        let a = Mat::filled(m, k, 1.5);
        let b = Mat::filled(k, n, -2.0);
        let r = oracle(m, n, |out| {
            reference::matmul(a.as_slice(), m, k, b.as_slice(), n, out)
        });
        let t = a.matmul_kernel(&b, &par).unwrap();
        assert_eq!(r, t, "matmul {m}x{k}x{n}");
        let gt = a.gram_kernel(&par, KernelKind::Tiled);
        assert_eq!(oracle_gram(&a), gt, "gram {m}x{k}");
    }
}

/// Deterministic fill: non-dyadic values of mixed sign, so a change in
/// accumulation order shows in the low bits.
fn det_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
        })
        .collect()
}

fn det_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    Mat::from_vec(rows, cols, det_vec(rows * cols, seed))
}

/// Every output width 1..=17 — below, at and across the 8-wide register
/// tile — at row counts that give full, narrow (all 4 rows, fewer than 8
/// columns) and row-ragged tiles, through every product at every thread
/// budget. A narrow tile runs a register tile exactly as wide as its
/// columns, reading B in place at its row stride `n`, and must stay
/// bitwise the oracle; `k = 400` (the `order4` root unfolding) pins
/// every narrow width 1..=7 over a production-length reduction. At
/// `n ∈ 9..=15`, `matmul_t`'s narrow tile runs over a Bᵀ pack whose lanes
/// past its width still hold the previous column tile, so a tile that
/// read a lane it does not own would show here.
#[test]
fn width_sweep_is_bitwise_reference() {
    for m in [4usize, 5, 8, 13] {
        for k in [1usize, 6, 33, 400] {
            for n in 1..=17usize {
                let seed = (m * 10_000 + k * 100 + n) as u64;
                check_products(
                    &det_mat(m, k, seed),
                    &det_mat(k, n, seed + 1),
                    &det_mat(m, n, seed + 2),
                    &det_mat(n, k, seed + 3),
                );
            }
        }
    }
}

/// The tiled Gram starts each row tile's column sweep at its diagonal, so
/// its narrow tail starts at a different column in each row tile (at
/// `k = 13`: columns 8, 12, 8 for row tiles 0, 4, 8). Every `k` in 1..=17
/// walks those shifting starts.
#[test]
fn gram_width_sweep_is_bitwise_reference() {
    for m in [4usize, 5, 8, 13] {
        for k in 1..=17usize {
            let seed = (m * 100 + k) as u64;
            check_products(
                &det_mat(m, k, seed),
                &det_mat(k, k, seed + 1),
                &det_mat(m, k, seed + 2),
                &det_mat(k, k, seed + 3),
            );
        }
    }
}

/// Fibre and row widths of the primitive-level sweeps: every rank `F`
/// below, at and across the 8-wide register chunk, plus four full chunks.
fn sweep_widths() -> impl Iterator<Item = usize> {
    (1..=17).chain([32])
}

/// Reduction / row lengths (the reduction or row count of one call): one,
/// a ragged few, one tile height's multiple, and past four of them.
const SWEEP_LENGTHS: [usize; 5] = [1, 5, 8, 13, 33];

/// Values with zeros of both signs mixed in: the oracle's loops skip zero
/// multiplicands, the tiled ones multiply through them.
fn zero_heavy(len: usize, seed: u64) -> Vec<f64> {
    let mut v = det_vec(len, seed);
    for (i, x) in v.iter_mut().enumerate() {
        if i % 3 == 1 {
            *x = 0.0;
        } else if i % 7 == 5 {
            *x = -0.0;
        }
    }
    v
}

fn vec_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The signature `kernel::t_matmul` and `reference::t_matmul` share.
type TMatmul = fn(&[f64], usize, usize, usize, usize, &[f64], usize, &mut [f64]);
/// The signature `kernel::partial_fold` / `partial_axpy` and their
/// oracles share.
type Fold = fn(&[f64], &[f64], usize, &mut [f64]);

/// Runs `run` on the primitive and on its oracle (`[primitive, oracle]`)
/// at every sweep width and length and asserts the two outputs are
/// bitwise equal.
fn sweep_is_bitwise_reference<P: Copy>(
    op: &str,
    [primitive, oracle]: [P; 2],
    run: impl Fn(P, usize, usize) -> Vec<f64>,
) {
    for f in sweep_widths() {
        for len in SWEEP_LENGTHS {
            let tiled = run(primitive, f, len);
            let reference = run(oracle, f, len);
            assert_eq!(
                vec_bits(&tiled),
                vec_bits(&reference),
                "{op}: f {f} len {len}"
            );
        }
    }
}

/// `matmul` and `matmul_t` overwrite every element of their band — full
/// tile, narrow tile and ragged edge alike — so a band of NaNs comes out
/// bitwise the oracle's from zeros. The dense MTTKRPs rely on this: they
/// hand `matmul` scratch that still holds the previous slab's products.
#[test]
fn matmul_overwrites_its_band() {
    for n in sweep_widths() {
        for rows in [4usize, 5, 8, 13] {
            for k in [1usize, 6, 33, 400] {
                let seed = (n * 10_000 + rows * 1_000 + k) as u64 + 41;
                let a = zero_heavy(rows * k, seed);
                let b_kn = det_vec(k * n, seed + 1);
                let b_nk = det_vec(n * k, seed + 2);
                let shape = format!("n {n} rows {rows} k {k}");
                let mut out = vec![f64::NAN; rows * n];
                let mut want = vec![0.0; rows * n];
                kernel::matmul(&a, rows, k, &b_kn, n, &mut out);
                reference::matmul(&a, rows, k, &b_kn, n, &mut want);
                assert_eq!(vec_bits(&out), vec_bits(&want), "matmul {shape}");
                let mut out = vec![f64::NAN; rows * n];
                let mut want = vec![0.0; rows * n];
                kernel::matmul_t(&a, rows, k, &b_nk, n, &mut out);
                reference::matmul_t(&a, rows, k, &b_nk, n, &mut want);
                assert_eq!(vec_bits(&out), vec_bits(&want), "matmul_t {shape}");
            }
        }
    }
}

/// Bands of `t_matmul`'s output rows (`c0`, `rows`): whole row tiles,
/// row-ragged ones, and bands that start off a tile boundary.
const T_MATMUL_BANDS: [(usize, usize); 6] = [(0, 4), (1, 5), (0, 8), (3, 13), (2, 3), (0, 1)];

/// `out += Aᵀ·B` over a band of `A`'s columns, into a non-zero `out`:
/// every accumulator, full tile, narrow tile or ragged edge, starts from
/// its `out` element. `A` is zero-heavy, `out` holds no `-0.0`: a `-0.0`
/// start is the one case the primitive and the oracle may differ in (the
/// module docs of `tpcp_linalg::kernel`), and no caller passes one.
#[test]
fn t_matmul_accumulates_bitwise_reference() {
    let fns: [TMatmul; 2] = [kernel::t_matmul, reference::t_matmul];
    sweep_is_bitwise_reference("t_matmul", fns, |t_matmul, n, m| {
        let mut outs = Vec::new();
        for (c0, rows) in T_MATMUL_BANDS {
            let k = c0 + rows + 1;
            let seed = (n * 10_000 + m * 100 + c0 * 20 + rows) as u64 + 23;
            let a = zero_heavy(m * k, seed);
            let b = det_vec(m * n, seed + 1);
            let mut out = det_vec(rows * n, seed + 2);
            t_matmul(&a, m, k, c0, rows, &b, n, &mut out);
            outs.extend(out);
        }
        outs
    });
}

/// Two `t_matmul` calls over consecutive row panels of `A` and `B` are
/// one call over both, bit for bit: the second continues each element's
/// ascending reduction where the first left it. The dense order-3 MTTKRP
/// relies on this to bound its panels.
#[test]
fn t_matmul_over_row_panels_is_one_call() {
    let (m, k, n) = (29usize, 13usize, 11usize);
    let a = zero_heavy(m * k, 31);
    let b = det_vec(m * n, 32);
    let fns: [(&str, TMatmul); 2] = [
        ("primitive", kernel::t_matmul),
        ("oracle", reference::t_matmul),
    ];
    for (name, t_matmul) in fns {
        for split in [1usize, 8, 17, 28] {
            let mut whole = vec![0.0; k * n];
            t_matmul(&a, m, k, 0, k, &b, n, &mut whole);
            let mut panels = vec![0.0; k * n];
            let (a_top, a_rest) = a.split_at(split * k);
            let (b_top, b_rest) = b.split_at(split * n);
            t_matmul(a_top, split, k, 0, k, b_top, n, &mut panels);
            t_matmul(a_rest, m - split, k, 0, k, b_rest, n, &mut panels);
            assert_eq!(vec_bits(&panels), vec_bits(&whole), "{name} split {split}");
        }
    }
}

/// `out[s] = Σ_r y[r][s] · w[r][s]`, overwriting an `out` of NaNs.
#[test]
fn partial_fold_width_sweep_is_bitwise_reference() {
    let fns: [Fold; 2] = [kernel::partial_fold, reference::partial_fold];
    sweep_is_bitwise_reference("partial_fold", fns, |partial_fold, f, rows| {
        let seed = (f * 100 + rows) as u64 + 13;
        let y = det_vec(rows * f, seed);
        let w = det_vec(rows * f, seed + 1);
        let mut out = vec![f64::NAN; f];
        partial_fold(&y, &w, f, &mut out);
        out
    });
}

/// The fold at a few `(rows, F)` off the sweep's grid — one row, a row
/// count past two tiles, `F` = 19 — overwriting NaNs.
#[test]
fn partial_fold_matches_the_oracle_off_the_grid() {
    for (rows, f) in [(1usize, 1usize), (5, 3), (7, 8), (9, 19), (16, 32)] {
        let y = det_vec(rows * f, 3);
        let w = det_vec(rows * f, 4);
        let mut want = vec![f64::NAN; f];
        reference::partial_fold(&y, &w, f, &mut want);
        let mut got = vec![f64::NAN; f];
        kernel::partial_fold(&y, &w, f, &mut got);
        assert_eq!(vec_bits(&got), vec_bits(&want), "rows {rows} f {f}");
    }
}

/// `out[e][s] += y[e][s] · w_row[s]` into a non-zero `out`.
#[test]
fn partial_axpy_width_sweep_is_bitwise_reference() {
    let fns: [Fold; 2] = [kernel::partial_axpy, reference::partial_axpy];
    sweep_is_bitwise_reference("partial_axpy", fns, |partial_axpy, f, rows| {
        let seed = (f * 100 + rows) as u64 + 19;
        let y = det_vec(rows * f, seed);
        let w_row = det_vec(f, seed + 1);
        let mut out = det_vec(rows * f, seed + 2);
        partial_axpy(&y, &w_row, f, &mut out);
        out
    });
}

/// The contract the dimension tree relies on: evaluating a node by
/// per-row folds or by an ascending axpy sweep over zeroed output agrees
/// bit for bit — for the primitives and for the oracle, and the two agree
/// with each other.
#[test]
fn axpy_sweep_is_bitwise_identical_to_fold() {
    let (blocks, rows, f) = (6usize, 5usize, 11usize);
    let y = det_vec(blocks * rows * f, 7);
    let w = det_vec(blocks * f, 8);
    let pairs: [(&str, Fold, Fold); 2] = [
        ("primitive", kernel::partial_axpy, kernel::partial_fold),
        ("oracle", reference::partial_axpy, reference::partial_fold),
    ];
    let mut results = Vec::new();
    for (name, partial_axpy, partial_fold) in pairs {
        let mut swept = vec![0.0f64; rows * f];
        for b in 0..blocks {
            partial_axpy(
                &y[b * rows * f..(b + 1) * rows * f],
                &w[b * f..(b + 1) * f],
                f,
                &mut swept,
            );
        }
        // Per output row j, the fold reduces the strided column
        // y[b * rows + j] against w's rows — gather it contiguously to use
        // the contiguous fold.
        let mut folded = vec![0.0f64; rows * f];
        for j in 0..rows {
            let mut gathered = Vec::with_capacity(blocks * f);
            for b in 0..blocks {
                gathered.extend_from_slice(&y[(b * rows + j) * f..(b * rows + j + 1) * f]);
            }
            partial_fold(&gathered, &w, f, &mut folded[j * f..(j + 1) * f]);
        }
        assert_eq!(vec_bits(&swept), vec_bits(&folded), "{name}");
        results.push(vec_bits(&swept));
    }
    assert_eq!(results[0], results[1], "primitive vs oracle");
}
