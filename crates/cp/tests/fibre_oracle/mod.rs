//! The per-fibre loops of the dense order-3 MTTKRP: the scalar fibre ops
//! the reference backend ran before the sweeps moved onto per-slab
//! products, verbatim, composed in the serial per-fibre order. The oracle
//! the slab sweeps (`slab_equiv`) and the paired ALS pass (`tpcp-cp`'s
//! unit tests) are pinned against bit for bit.

use tpcp_linalg::Mat;
use tpcp_tensor::DenseTensor;

/// `out[s] += (Σ_kk fibre[kk] · c[kk][s]) · w[s]`, the inner sum over
/// `kk` ascending from `0.0` in `scratch`, skipping zero tensor entries.
pub fn mttkrp_tile(
    fibre: &[f64],
    c: &[f64],
    f: usize,
    w: &[f64],
    out: &mut [f64],
    scratch: &mut [f64],
) {
    // scratch = fibre · C, skipping zero tensor entries …
    scratch.fill(0.0);
    for (kk, &v) in fibre.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let c_row = &c[kk * f..(kk + 1) * f];
        for (s, &cv) in scratch.iter_mut().zip(c_row) {
            *s += v * cv;
        }
    }
    // … then out += scratch ⊛ w.
    for ((o, &s), &wv) in out.iter_mut().zip(scratch.iter()).zip(w) {
        *o += s * wv;
    }
}

/// For each `kk`, `out[kk][s] += fibre[kk] · s_row[s]`, skipping zero
/// tensor entries.
pub fn mttkrp_scatter(fibre: &[f64], s_row: &[f64], f: usize, out: &mut [f64]) {
    for (kk, &v) in fibre.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let out_row = &mut out[kk * f..(kk + 1) * f];
        for (o, &sv) in out_row.iter_mut().zip(s_row) {
            *o += v * sv;
        }
    }
}

/// The mode-`mode` MTTKRP of the order-3 `x`, one fibre `X[i, j, :]` at a
/// time, `(i, j)` ascending: `mttkrp_tile` for modes 0 and 1,
/// `mttkrp_scatter` of `A[i] ⊛ B[j]` for mode 2. `factors[mode]` only
/// gives the rank.
pub fn mttkrp3(x: &DenseTensor, factors: &[&Mat], mode: usize) -> Mat {
    let &[di, dj, dk] = x.dims() else {
        panic!("order 3 only")
    };
    let f = factors[0].cols();
    let mut out = Mat::zeros(x.dims()[mode], f);
    let mut scratch = vec![0.0; f];
    let c = factors[2].as_slice();
    for i in 0..di {
        for j in 0..dj {
            let fibre = &x.as_slice()[(i * dj + j) * dk..(i * dj + j + 1) * dk];
            let (a_row, b_row) = (factors[0].row(i), factors[1].row(j));
            match mode {
                0 => mttkrp_tile(fibre, c, f, b_row, out.row_mut(i), &mut scratch),
                1 => mttkrp_tile(fibre, c, f, a_row, out.row_mut(j), &mut scratch),
                _ => {
                    for ((s, &a), &b) in scratch.iter_mut().zip(a_row).zip(b_row) {
                        *s = a * b;
                    }
                    mttkrp_scatter(fibre, &scratch, f, out.as_mut_slice());
                }
            }
        }
    }
    out
}
