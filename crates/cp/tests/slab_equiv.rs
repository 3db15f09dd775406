//! The dense order-3 MTTKRP's slab sweeps against the per-fibre loops.
//!
//! `mttkrp_dense` contracts each mode-0 slab `X[i]` on the register-tiled
//! products, one panel of `j` rows at a time; the per-fibre loops of
//! `fibre_oracle` are the order it must keep. Every mode, at thread
//! budgets whose bands are and are not whole register tiles, on ragged
//! dims, ranks below, at and across the 8-wide tile, tensors with every
//! third fibre zero, and a mode 1 longer than one panel: bit for bit.

mod fibre_oracle;

use rand::SeedableRng;
use tpcp_cp::{mttkrp_dense, mttkrp_dense_kernel};
use tpcp_linalg::{KernelKind, Mat};
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
    let dims = t.dims();
    for f in RANKS {
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| tpcp_tensor::random_factor(d, f, rng))
            .collect();
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..3 {
            let oracle = bits(&fibre_oracle::mttkrp3(t, &refs, mode));
            let case = format!("{name} {dims:?} F{f} mode {mode}");
            for threads in THREAD_BUDGETS {
                let par = ParConfig::with_threads(threads);
                let tiled = mttkrp_dense(t, &refs, mode, &par).unwrap();
                assert_eq!(bits(&tiled), oracle, "{case} t{threads}");
            }
            let reference =
                mttkrp_dense_kernel(t, &refs, mode, &ParConfig::serial(), KernelKind::Reference)
                    .unwrap();
            assert_eq!(bits(&reference), oracle, "{case} reference backend");
        }
    }
}
