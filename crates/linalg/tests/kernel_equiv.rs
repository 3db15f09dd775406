//! Tiled == reference bitwise equivalence for the kernel backend seam.
//!
//! The `Kernel` trait's determinism contract promises that every backend
//! accumulates each output element in exactly the serial reference order,
//! so `TiledKernel` must reproduce `ReferenceKernel` **bit for bit** — on
//! any shape (including ragged dims that are not multiples of the 4×8
//! register tile), any rank, and any thread budget. These tests pin that
//! contract for every primitive of the trait: the four products through
//! the `Mat` entry points (which run the tiled backend at every thread
//! budget) against the reference backend run as one serial band, and the
//! fibre ops of the MTTKRP and the dimension tree (`mttkrp_tile`,
//! `mttkrp_scatter`, `partial_fold`, `partial_axpy`) by width sweeps at
//! the trait level. The engine composes only these primitives, each over
//! output bands in a fixed order, so a pipeline built on them is bitwise
//! the same on either backend.

use proptest::prelude::*;
use tpcp_linalg::{Kernel, KernelKind, Mat, ReferenceKernel, TiledKernel};
use tpcp_par::ParConfig;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 7];

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |d| Mat::from_vec(rows, cols, d))
}

/// A product of the reference backend over the whole `rows×cols` output
/// as one serial band (an empty output stays empty).
fn reference(rows: usize, cols: usize, band: impl FnOnce(&mut [f64])) -> Mat {
    let mut out = Mat::zeros(rows, cols);
    if rows * cols > 0 {
        band(out.as_mut_slice());
    }
    out
}

/// Checks all four products on one `(a: m×k, b)` instance: the implicit
/// entry point and, for every thread budget, the explicit-budget entry
/// point must equal the reference backend bitwise.
fn check_products(a: &Mat, b_kn: &Mat, b_mn: &Mat, b_nk: &Mat) {
    let ((m, k), n) = (a.shape(), b_kn.cols());
    let r = ReferenceKernel;
    let mm_ref = reference(m, n, |out| {
        r.matmul(a.as_slice(), m, k, b_kn.as_slice(), n, out)
    });
    let tm_ref = reference(k, n, |out| {
        r.t_matmul(a.as_slice(), m, k, 0, k, b_mn.as_slice(), n, out)
    });
    let mt_ref = reference(m, n, |out| {
        r.matmul_t(a.as_slice(), m, k, b_nk.as_slice(), n, out)
    });
    let gram_ref = a.gram_kernel(&ParConfig::serial(), KernelKind::Reference);
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
        let g_ref = a.gram_kernel(&ParConfig::serial(), KernelKind::Reference);
        prop_assert_eq!(bits(&g), bits(&g_ref));
    }

    /// Zero-heavy inputs: the reference loops skip zero multiplicands
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

/// Degenerate shapes must not panic and must agree with the reference.
#[test]
fn degenerate_shapes_agree() {
    let par = ParConfig::serial();
    for (m, k, n) in [(1, 1, 1), (4, 0, 8), (0, 3, 3), (3, 3, 0), (8, 1, 8)] {
        let a = Mat::filled(m, k, 1.5);
        let b = Mat::filled(k, n, -2.0);
        let r = reference(m, n, |out| {
            ReferenceKernel.matmul(a.as_slice(), m, k, b.as_slice(), n, out)
        });
        let t = a.matmul_kernel(&b, &par).unwrap();
        assert_eq!(r, t, "matmul {m}x{k}x{n}");
        let gr = a.gram_kernel(&par, KernelKind::Reference);
        let gt = a.gram_kernel(&par, KernelKind::Tiled);
        assert_eq!(gr, gt, "gram {m}x{k}");
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
/// budget. A narrow tile runs the register tile over a zero-padded panel
/// and must stay bitwise the reference.
#[test]
fn width_sweep_is_bitwise_reference() {
    for m in [4usize, 5, 8, 13] {
        for k in [1usize, 6, 33] {
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

/// Fibre and row widths of the trait-level sweeps: every rank `F` below,
/// at and across the 8-wide register chunk, plus four full chunks.
fn sweep_widths() -> impl Iterator<Item = usize> {
    (1..=17).chain([32])
}

/// Fibre / row lengths (the reduction or row count of one call): one, a
/// ragged few, one tile height's multiple, and past four of them.
const SWEEP_LENGTHS: [usize; 5] = [1, 5, 8, 13, 33];

/// A fibre with zeros of both signs mixed in: the reference fibre loops
/// skip zero entries, the tiled ones multiply through them.
fn zero_heavy_fibre(len: usize, seed: u64) -> Vec<f64> {
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

/// Runs `op` on both backends at every sweep width and length and asserts
/// the two outputs are bitwise equal.
fn sweep_is_bitwise_reference(op: &str, run: impl Fn(&dyn Kernel, usize, usize) -> Vec<f64>) {
    for f in sweep_widths() {
        for len in SWEEP_LENGTHS {
            let reference = run(&ReferenceKernel, f, len);
            let tiled = run(&TiledKernel, f, len);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tiled), bits(&reference), "{op}: f {f} len {len}");
        }
    }
}

/// `out[s] += (Σ_kk fibre[kk] · c[kk][s]) · w[s]` into a non-zero `out`,
/// with a scratch the reference backend must clear itself.
#[test]
fn mttkrp_tile_width_sweep_is_bitwise_reference() {
    sweep_is_bitwise_reference("mttkrp_tile", |kernel, f, len| {
        let seed = (f * 100 + len) as u64;
        let fibre = zero_heavy_fibre(len, seed);
        let c = det_vec(len * f, seed + 1);
        let w = det_vec(f, seed + 2);
        let mut out = det_vec(f, seed + 3);
        let mut scratch = vec![f64::NAN; f];
        kernel.mttkrp_tile(&fibre, &c, f, &w, &mut out, &mut scratch);
        out
    });
}

/// `out[kk][s] += fibre[kk] · s_row[s]` into a non-zero `out`.
#[test]
fn mttkrp_scatter_width_sweep_is_bitwise_reference() {
    sweep_is_bitwise_reference("mttkrp_scatter", |kernel, f, len| {
        let seed = (f * 100 + len) as u64 + 7;
        let fibre = zero_heavy_fibre(len, seed);
        let s_row = det_vec(f, seed + 1);
        let mut out = det_vec(len * f, seed + 2);
        kernel.mttkrp_scatter(&fibre, &s_row, f, &mut out);
        out
    });
}

/// `out[s] = Σ_r y[r][s] · w[r][s]`, overwriting an `out` of NaNs.
#[test]
fn partial_fold_width_sweep_is_bitwise_reference() {
    sweep_is_bitwise_reference("partial_fold", |kernel, f, rows| {
        let seed = (f * 100 + rows) as u64 + 13;
        let y = det_vec(rows * f, seed);
        let w = det_vec(rows * f, seed + 1);
        let mut out = vec![f64::NAN; f];
        kernel.partial_fold(&y, &w, f, &mut out);
        out
    });
}

/// `out[e][s] += y[e][s] · w_row[s]` into a non-zero `out`.
#[test]
fn partial_axpy_width_sweep_is_bitwise_reference() {
    sweep_is_bitwise_reference("partial_axpy", |kernel, f, rows| {
        let seed = (f * 100 + rows) as u64 + 19;
        let y = det_vec(rows * f, seed);
        let w_row = det_vec(f, seed + 1);
        let mut out = det_vec(rows * f, seed + 2);
        kernel.partial_axpy(&y, &w_row, f, &mut out);
        out
    });
}
