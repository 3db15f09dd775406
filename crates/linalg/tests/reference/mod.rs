//! The original scalar loops of the dense products and the dimension-tree
//! contractions, verbatim: the oracle every primitive of
//! `tpcp_linalg::kernel` is pinned against, bit for bit, by `kernel_equiv`.
//!
//! Each takes the arguments of the primitive of the same name. Where the
//! primitive overwrites its band (`matmul`, `matmul_t`), these loops
//! accumulate into it, so they expect a zeroed `out`; `gram_band` computes
//! the full band (the primitive leaves the strict lower triangle to a
//! mirror).

pub fn matmul(a: &[f64], _rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    // i-k-j ordering: the inner loop streams a row of `b` and a row of
    // `out`, both contiguous, so the kernel vectorises without bounds
    // checks dominating.
    for (local, out_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a[local * k..(local + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
}

pub fn matmul_t(a: &[f64], _rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    for (local, out_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a[local * k..(local + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub fn t_matmul(
    a: &[f64],
    m: usize,
    k: usize,
    c0: usize,
    _rows: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    // Rank-1 updates row by row, restricted to this worker's band of
    // output rows; accessed rows stay contiguous.
    for r in 0..m {
        let a_row = &a[r * k..(r + 1) * k];
        let b_row = &b[r * n..(r + 1) * n];
        for (local, out_row) in out.chunks_mut(n).enumerate() {
            let a_rc = a_row[c0 + local];
            if a_rc == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_rc * bv;
            }
        }
    }
}

pub fn gram_band(a: &[f64], m: usize, k: usize, c0: usize, rows: usize, out: &mut [f64]) {
    // The full band of Aᵀ·A.
    t_matmul(a, m, k, c0, rows, a, k, out);
}

pub fn partial_fold(y: &[f64], w: &[f64], f: usize, out: &mut [f64]) {
    let rows = w.len() / f;
    for (s, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for r in 0..rows {
            acc += y[r * f + s] * w[r * f + s];
        }
        *o = acc;
    }
}

pub fn partial_axpy(y: &[f64], w_row: &[f64], f: usize, out: &mut [f64]) {
    for (out_row, y_row) in out.chunks_mut(f).zip(y.chunks(f)) {
        for ((o, &yv), &wv) in out_row.iter_mut().zip(y_row).zip(w_row) {
            *o += yv * wv;
        }
    }
}
