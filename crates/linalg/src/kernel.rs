//! The kernel backend seam: the inner-loop implementations of the dense
//! products ([`Mat::matmul`](crate::Mat::matmul) and friends), the fused
//! 3-mode MTTKRP and the dimension-tree contractions in `tpcp-cp`.
//!
//! A [`Kernel`] computes one worker's *band* of the output — the parallel
//! wrappers in `ops.rs` (and `tpcp-cp`'s `mttkrp.rs` / `dimtree.rs`)
//! partition the output across the shared `tpcp-par` budget and hand each
//! band to the backend. Two backends ship:
//!
//! * [`TiledKernel`] — register-blocked microkernels (`4×8` output tiles
//!   held in accumulator registers across the whole reduction loop, with
//!   panel packing of the strided operand into contiguous scratch so every
//!   inner loop is stride-1 and explicit-width for the autovectorizer).
//!   This is the engine's backend;
//! * [`ReferenceKernel`] — the original scalar loops, kept verbatim as the
//!   correctness oracle of the `kernel_equiv` suites.
//!
//! # The determinism contract
//!
//! Every backend must accumulate **each output element in exactly the
//! serial reference order**: one accumulator per element, reduction index
//! ascending. Register blocking therefore vectorises across *output
//! elements*, never by splitting the reduction axis into partial sums —
//! that would change rounding. Under this contract (and finite inputs; see
//! `docs/kernels.md`) every backend is bit-identical to the reference at
//! any thread count, so swapping backends can never change factors, fits
//! or swap counts.
//!
//! The reference loops skip zero multiplicands (`if a == 0.0 {{ continue }}`)
//! while the tiled loops are branch-free; the results are still bitwise
//! equal for finite inputs because adding a `±0.0` product leaves any
//! accumulator unchanged bit-for-bit (an accumulator seeded with `+0.0`
//! can never become `-0.0` in round-to-nearest).
//!
//! # Dispatch
//!
//! The engine calls [`TiledKernel`] by name; nothing in a configuration
//! selects a backend. [`KernelKind`] names a backend only at the two
//! entry points a benchmark times — `Mat::gram_kernel` and `tpcp-cp`'s
//! `mttkrp_dense_kernel` — and the test suites pin the tiled backend
//! against [`ReferenceKernel`] primitive by primitive, at the trait level.

/// Which kernel backend [`Mat::gram_kernel`](crate::Mat::gram_kernel) and
/// `mttkrp_dense_kernel` run. The two are bit-identical (see the
/// [module docs](self)), so the choice trades speed only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelKind {
    /// Register-blocked microkernels ([`TiledKernel`]) — the backend.
    #[default]
    Tiled,
    /// The original scalar loops ([`ReferenceKernel`]) — the oracle.
    Reference,
}

impl KernelKind {
    /// The backend implementation this kind dispatches to.
    pub fn resolve(self) -> &'static dyn Kernel {
        match self {
            KernelKind::Tiled => &TiledKernel,
            KernelKind::Reference => &ReferenceKernel,
        }
    }
}

/// One kernel backend: band-level entry points for the dense products and
/// the fused 3-mode MTTKRP.
///
/// All matrices are row-major `f64` slices. The `matmul`/`matmul_t` entry
/// points receive a *band* of `A` rows and the matching band of the output;
/// `t_matmul`/`gram_band` receive all of `A` plus the band's first output
/// row `c0` (an output row is a *column* of `A` there). Output bands arrive
/// zero-initialised; a backend may accumulate into them or overwrite them,
/// as the two are indistinguishable on zeroed memory.
///
/// Implementations must uphold the accumulation-order contract in the
/// [module docs](self): per output element, one accumulator, reduction
/// index ascending.
pub trait Kernel: Sync {
    /// Stable name, for test diagnostics.
    fn label(&self) -> &'static str;

    /// Preferred output-row granularity: parallel wrappers round their
    /// per-worker chunk to a multiple of this so workers receive whole
    /// register tiles (`1` = no preference).
    fn row_tile(&self) -> usize;

    /// `out[r][j] = Σ_p a[r][p] · b[p][j]` — a band of `rows` rows of
    /// `A · B` where `a` is `rows×k` (the band), `b` is `k×n`.
    fn matmul(&self, a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]);

    /// `out[r][j] = Σ_p a[r][p] · b[j][p]` — a band of `A · Bᵀ` where `a`
    /// is `rows×k` (the band), `b` is `n×k`.
    fn matmul_t(&self, a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]);

    /// `out[local][j] = Σ_r a[r][c0+local] · b[r][j]` — the band of rows
    /// `c0..c0+rows` of `Aᵀ · B` where `a` is `m×k` (all of it), `b` is
    /// `m×n`. The reduction sweeps `r` in ascending order.
    #[allow(clippy::too_many_arguments)]
    fn t_matmul(
        &self,
        a: &[f64],
        m: usize,
        k: usize,
        c0: usize,
        rows: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    );

    /// The band of rows `c0..c0+rows` of the Gram matrix `Aᵀ · A` (`a` is
    /// `m×k`, the band is `rows×k`).
    ///
    /// A backend may compute only the columns `j ≥ c0 + i0` of each row
    /// tile (the upper triangle plus a sliver below the diagonal) and
    /// report [`Kernel::gram_needs_mirror`] = `true`; the caller then
    /// fills the strict lower triangle by mirroring after all bands
    /// complete. The mirror is bitwise-exact: `Σ a[r][j]·a[r][c]` equals
    /// `Σ a[r][c]·a[r][j]` bit-for-bit (IEEE multiplication commutes and
    /// the `r` order is shared).
    fn gram_band(&self, a: &[f64], m: usize, k: usize, c0: usize, rows: usize, out: &mut [f64]);

    /// Whether [`Kernel::gram_band`] leaves the strict lower triangle for
    /// the caller to mirror.
    fn gram_needs_mirror(&self) -> bool {
        false
    }

    /// The fused fibre op of the dense 3-mode MTTKRP (modes 0 and 1):
    /// `out[s] += (Σ_kk fibre[kk] · c[kk][s]) · w[s]`, with the inner sum
    /// accumulated over `kk` ascending. `c` is `dk×f` row-major
    /// (`dk = fibre.len()`), `w` and `out` have length `f`, and `scratch`
    /// is caller-provided storage of length `f` a backend may clobber.
    fn mttkrp_tile(
        &self,
        fibre: &[f64],
        c: &[f64],
        f: usize,
        w: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
    );

    /// The scatter op of the dense 3-mode MTTKRP (mode 2): for each `kk`,
    /// `out[kk][s] += fibre[kk] · s_row[s]` (`out` is `fibre.len()×f`
    /// row-major).
    fn mttkrp_scatter(&self, fibre: &[f64], s_row: &[f64], f: usize, out: &mut [f64]);

    /// The dimension-tree *fold* contraction: **overwrites**
    /// `out[s] = Σ_r y[r][s] · w[r][s]` with the reduction index `r`
    /// ascending (`y` and `w` are `rows×f` row-major with
    /// `rows = w.len() / f`; `out` has length `f`).
    ///
    /// Together with [`Kernel::partial_axpy`] this is the internal-node
    /// contraction of the dimension-tree MTTKRP engine (`tpcp-cp`'s
    /// `dimtree` module): a node's partial product is reduced against the
    /// sibling subtree's Khatri-Rao weights one output row at a time. The
    /// overwrite (rather than accumulate-into-zeroed) semantics make a
    /// fold bitwise identical to an ascending [`Kernel::partial_axpy`]
    /// sweep over zero-initialised output — `acc` after the last step
    /// holds exactly the running value the axpy sweep leaves in `out` —
    /// so the two per-node evaluation strategies are interchangeable.
    fn partial_fold(&self, y: &[f64], w: &[f64], f: usize, out: &mut [f64]);

    /// The dimension-tree *axpy* contraction: `out[e][s] += y[e][s] ·
    /// w_row[s]` for every row `e` (`y` and `out` are `rows×f` row-major,
    /// `w_row` has length `f`). One multiply-add per element per call;
    /// the caller fixes the accumulation order by sweeping its parent
    /// blocks in ascending order.
    fn partial_axpy(&self, y: &[f64], w_row: &[f64], f: usize, out: &mut [f64]);
}

/// The original scalar loops, verbatim — the correctness oracle every
/// other backend is pinned against (bitwise, via the trait-level sweeps
/// of the `kernel_equiv` suite).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceKernel;

impl Kernel for ReferenceKernel {
    fn label(&self) -> &'static str {
        "reference"
    }

    fn row_tile(&self) -> usize {
        1
    }

    fn matmul(&self, a: &[f64], _rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
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

    fn matmul_t(&self, a: &[f64], _rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
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
    fn t_matmul(
        &self,
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

    fn gram_band(&self, a: &[f64], m: usize, k: usize, c0: usize, rows: usize, out: &mut [f64]) {
        // The full band of Aᵀ·A — the symmetric half-compute lives in the
        // tiled backend, behind the same seam.
        self.t_matmul(a, m, k, c0, rows, a, k, out);
    }

    fn mttkrp_tile(
        &self,
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

    fn mttkrp_scatter(&self, fibre: &[f64], s_row: &[f64], f: usize, out: &mut [f64]) {
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

    fn partial_fold(&self, y: &[f64], w: &[f64], f: usize, out: &mut [f64]) {
        let rows = w.len() / f;
        for (s, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..rows {
                acc += y[r * f + s] * w[r * f + s];
            }
            *o = acc;
        }
    }

    fn partial_axpy(&self, y: &[f64], w_row: &[f64], f: usize, out: &mut [f64]) {
        for (out_row, y_row) in out.chunks_mut(f).zip(y.chunks(f)) {
            for ((o, &yv), &wv) in out_row.iter_mut().zip(y_row).zip(w_row) {
                *o += yv * wv;
            }
        }
    }
}

/// Register-block height: output rows per microtile.
pub const TILE_MR: usize = 4;

/// Register-block width: output columns per microtile.
pub const TILE_NR: usize = 8;

/// Register-blocked, SIMD-friendly microkernels.
///
/// Each `TILE_MR×TILE_NR` output tile is held in accumulator registers
/// across the entire reduction loop (the reference loops instead re-load
/// and re-store the output row on every reduction step), the inner loops
/// are branch-free with explicit widths the autovectorizer maps onto
/// vector lanes, and the operand whose tile access would be strided is
/// packed into contiguous scratch (`matmul` packs the A panel reduction-
/// major; `matmul_t` packs the Bᵀ panel; `t_matmul`/`gram_band` need no
/// packing because both tile dimensions are already contiguous). A
/// *narrow* tile — all `TILE_MR` rows, fewer than `TILE_NR` columns, so
/// every tile when the width is below 8 — runs the same microtile out of
/// line in `narrow_tile`, against a zero-padded B panel. Tiles with
/// fewer than `TILE_MR` rows fall back to scalar loops with the same
/// ascending reduction order, so ragged shapes stay bit-identical too.
#[derive(Clone, Copy, Debug, Default)]
pub struct TiledKernel;

impl Kernel for TiledKernel {
    fn label(&self) -> &'static str {
        "tiled"
    }

    fn row_tile(&self) -> usize {
        TILE_MR
    }

    fn matmul(&self, a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        // A panel packed reduction-major: pack[p*MR + r] = a[i0+r][p], so
        // the microtile's per-step loads of the 4 A lanes share one cache
        // line instead of 4. Small panels (k ≤ 64: every F×F product of
        // the phase-2 update) pack on the stack, so the call allocates
        // nothing.
        const STACK_PACK: usize = 64 * TILE_MR;
        let mut on_stack = [0.0f64; STACK_PACK];
        let mut on_heap = Vec::new();
        let pack: &mut [f64] = if k * TILE_MR <= STACK_PACK {
            &mut on_stack[..k * TILE_MR]
        } else {
            on_heap.resize(k * TILE_MR, 0.0f64);
            &mut on_heap
        };
        // The narrow tail's zero-padded B panel: one column start per
        // call, built on first use and shared by every row tile.
        let mut panel = NarrowPanel::default();
        let mut i0 = 0;
        while i0 < rows {
            let h = TILE_MR.min(rows - i0);
            // A narrow tile reads A in place, so a row tile with no full
            // tile to share the pack with skips packing.
            if h < TILE_MR || n >= TILE_NR {
                for r in 0..h {
                    let row = &a[(i0 + r) * k..(i0 + r + 1) * k];
                    for (p, &v) in row.iter().enumerate() {
                        pack[p * TILE_MR + r] = v;
                    }
                }
            }
            let mut j0 = 0;
            while j0 < n {
                let w = TILE_NR.min(n - j0);
                if h == TILE_MR && w == TILE_NR {
                    let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
                    for p in 0..k {
                        let ap = &pack[p * TILE_MR..p * TILE_MR + TILE_MR];
                        let bp = &b[p * n + j0..p * n + j0 + TILE_NR];
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let arp = ap[r];
                            for (acc_rt, &bv) in acc_r.iter_mut().zip(bp) {
                                *acc_rt += arp * bv;
                            }
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        out[(i0 + r) * n + j0..(i0 + r) * n + j0 + TILE_NR].copy_from_slice(acc_r);
                    }
                } else if h == TILE_MR {
                    let bp = panel.padded(b, k, n, j0, w);
                    narrow_tile(a, i0 * k, 1, k, bp, k, w, &mut out[i0 * n + j0..], n);
                } else {
                    // Ragged edge: scalar, same ascending-p accumulation.
                    for r in 0..h {
                        for t in 0..w {
                            let mut acc = 0.0;
                            for p in 0..k {
                                acc += pack[p * TILE_MR + r] * b[p * n + j0 + t];
                            }
                            out[(i0 + r) * n + j0 + t] = acc;
                        }
                    }
                }
                j0 += w;
            }
            i0 += h;
        }
    }

    fn matmul_t(&self, a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        // Bᵀ panel packed reduction-major: pack[p*NR + t] = b[j0+t][p], so
        // the microtile's inner loop is a stride-1 8-wide FMA. The panel
        // is packed once per column tile and reused by every row tile.
        // A narrow column tile zeroes its padded lanes, so the same pack
        // is the zero-padded panel `narrow_tile` runs against.
        let mut pack = vec![0.0f64; k * TILE_NR];
        let mut j0 = 0;
        while j0 < n {
            let w = TILE_NR.min(n - j0);
            for t in 0..w {
                let row = &b[(j0 + t) * k..(j0 + t + 1) * k];
                for (p, &v) in row.iter().enumerate() {
                    pack[p * TILE_NR + t] = v;
                }
            }
            if w < TILE_NR {
                for lanes in pack.chunks_exact_mut(TILE_NR) {
                    lanes[w..].fill(0.0);
                }
            }
            let mut i0 = 0;
            while i0 < rows {
                let h = TILE_MR.min(rows - i0);
                if h == TILE_MR && w == TILE_NR {
                    let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
                    for p in 0..k {
                        let bp = &pack[p * TILE_NR..p * TILE_NR + TILE_NR];
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let arp = a[(i0 + r) * k + p];
                            for (acc_rt, &bv) in acc_r.iter_mut().zip(bp) {
                                *acc_rt += arp * bv;
                            }
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        out[(i0 + r) * n + j0..(i0 + r) * n + j0 + TILE_NR].copy_from_slice(acc_r);
                    }
                } else if h == TILE_MR {
                    narrow_tile(a, i0 * k, 1, k, &pack, k, w, &mut out[i0 * n + j0..], n);
                } else {
                    for r in 0..h {
                        for t in 0..w {
                            let mut acc = 0.0;
                            for p in 0..k {
                                acc += a[(i0 + r) * k + p] * pack[p * TILE_NR + t];
                            }
                            out[(i0 + r) * n + j0 + t] = acc;
                        }
                    }
                }
                i0 += h;
            }
            j0 += w;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn t_matmul(
        &self,
        a: &[f64],
        m: usize,
        k: usize,
        c0: usize,
        rows: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        t_matmul_tiled(a, m, k, c0, rows, b, n, out, false);
    }

    fn gram_band(&self, a: &[f64], m: usize, k: usize, c0: usize, rows: usize, out: &mut [f64]) {
        // Symmetry exploit: each row tile computes only the columns from
        // its own diagonal onwards (j ≥ c0 + i0); the caller mirrors the
        // strict lower triangle afterwards — ~2× fewer flops on the
        // per-iteration ALS Gram matrices.
        t_matmul_tiled(a, m, k, c0, rows, a, k, out, true);
    }

    fn gram_needs_mirror(&self) -> bool {
        true
    }

    fn mttkrp_tile(
        &self,
        fibre: &[f64],
        c: &[f64],
        f: usize,
        w: &[f64],
        out: &mut [f64],
        _scratch: &mut [f64],
    ) {
        // 8-wide column chunks of `scratch = fibre · C` held in registers
        // across the whole fibre sweep (the reference path re-loads and
        // re-stores the f-length scratch on every fibre element), fused
        // with the `out += scratch ⊛ w` combine. Branch-free: a zero
        // tensor entry contributes `±0.0` products, which leave the
        // accumulators unchanged bit-for-bit for finite inputs.
        let mut s0 = 0;
        while s0 + TILE_NR <= f {
            let mut acc = [0.0f64; TILE_NR];
            for (kk, &v) in fibre.iter().enumerate() {
                let c_row = &c[kk * f + s0..kk * f + s0 + TILE_NR];
                for (acc_t, &cv) in acc.iter_mut().zip(c_row) {
                    *acc_t += v * cv;
                }
            }
            let w_row = &w[s0..s0 + TILE_NR];
            let out_row = &mut out[s0..s0 + TILE_NR];
            for ((o, &s), &wv) in out_row.iter_mut().zip(&acc).zip(w_row) {
                *o += s * wv;
            }
            s0 += TILE_NR;
        }
        // Ragged tail: scalar per column, same ascending-kk accumulation.
        for t in s0..f {
            let mut acc = 0.0;
            for (kk, &v) in fibre.iter().enumerate() {
                acc += v * c[kk * f + t];
            }
            out[t] += acc * w[t];
        }
    }

    fn mttkrp_scatter(&self, fibre: &[f64], s_row: &[f64], f: usize, out: &mut [f64]) {
        // Branch-free version of the reference scatter (same ±0.0
        // argument as mttkrp_tile).
        for (kk, &v) in fibre.iter().enumerate() {
            let out_row = &mut out[kk * f..(kk + 1) * f];
            for (o, &sv) in out_row.iter_mut().zip(s_row) {
                *o += v * sv;
            }
        }
    }

    fn partial_fold(&self, y: &[f64], w: &[f64], f: usize, out: &mut [f64]) {
        // 8-wide column chunks of the fold held in registers across the
        // whole row sweep; per output element the accumulation is still
        // one accumulator, `r` ascending, stored once (overwrite), so the
        // result is bit-identical to the reference scalar column loop.
        let rows = w.len() / f;
        let mut s0 = 0;
        while s0 + TILE_NR <= f {
            let mut acc = [0.0f64; TILE_NR];
            for r in 0..rows {
                let y_row = &y[r * f + s0..r * f + s0 + TILE_NR];
                let w_row = &w[r * f + s0..r * f + s0 + TILE_NR];
                for ((a, &yv), &wv) in acc.iter_mut().zip(y_row).zip(w_row) {
                    *a += yv * wv;
                }
            }
            out[s0..s0 + TILE_NR].copy_from_slice(&acc);
            s0 += TILE_NR;
        }
        // Ragged tail: scalar per column, same ascending-r accumulation.
        for t in s0..f {
            let mut acc = 0.0;
            for r in 0..rows {
                acc += y[r * f + t] * w[r * f + t];
            }
            out[t] = acc;
        }
    }

    fn partial_axpy(&self, y: &[f64], w_row: &[f64], f: usize, out: &mut [f64]) {
        // One multiply-add per element — memory-bound, and each element is
        // touched exactly once per call, so the stride-1 zip below is both
        // the vectorisable and the trivially order-exact form.
        for (out_row, y_row) in out.chunks_mut(f).zip(y.chunks(f)) {
            for ((o, &yv), &wv) in out_row.iter_mut().zip(y_row).zip(w_row) {
                *o += yv * wv;
            }
        }
    }
}

/// Shared tiled core of `t_matmul` and `gram_band`: both tile dimensions
/// (columns of `A`, columns of `B`) are contiguous per input row, so no
/// packing is needed — each reduction step loads one 4-lane and one 8-lane
/// stride-1 slice. With `upper_only`, each row tile starts its column
/// sweep at its own diagonal (`j0 = c0 + i0`), so the narrow tail starts
/// at a different column in each row tile and its padded panel is rebuilt
/// whenever the start moves.
#[allow(clippy::too_many_arguments)]
fn t_matmul_tiled(
    a: &[f64],
    m: usize,
    k: usize,
    c0: usize,
    rows: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    upper_only: bool,
) {
    let mut panel = NarrowPanel::default();
    let mut i0 = 0;
    while i0 < rows {
        let h = TILE_MR.min(rows - i0);
        let mut j0 = if upper_only { c0 + i0 } else { 0 };
        while j0 < n {
            let w = TILE_NR.min(n - j0);
            if h == TILE_MR && w == TILE_NR {
                let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
                for r in 0..m {
                    let av = &a[r * k + c0 + i0..r * k + c0 + i0 + TILE_MR];
                    let bv = &b[r * n + j0..r * n + j0 + TILE_NR];
                    for (x, acc_x) in acc.iter_mut().enumerate() {
                        let ax = av[x];
                        for (acc_xt, &bvt) in acc_x.iter_mut().zip(bv) {
                            *acc_xt += ax * bvt;
                        }
                    }
                }
                for (x, acc_x) in acc.iter().enumerate() {
                    out[(i0 + x) * n + j0..(i0 + x) * n + j0 + TILE_NR].copy_from_slice(acc_x);
                }
            } else if h == TILE_MR {
                let bp = panel.padded(b, m, n, j0, w);
                narrow_tile(a, c0 + i0, k, 1, bp, m, w, &mut out[i0 * n + j0..], n);
            } else {
                for x in 0..h {
                    for t in 0..w {
                        let mut acc = 0.0;
                        for r in 0..m {
                            acc += a[r * k + c0 + i0 + x] * b[r * n + j0 + t];
                        }
                        out[(i0 + x) * n + j0 + t] = acc;
                    }
                }
            }
            j0 += w;
        }
        i0 += h;
    }
}

/// The B operand of a narrow tile: columns `j0..j0 + w` of a row-major
/// `steps×n` matrix, copied reduction-major into `TILE_NR` lanes with the
/// lanes past `w` zero (`lanes[p*NR + t] = b[p][j0 + t]`). Built on first
/// use and rebuilt only when the tile's start column moves, so a call with
/// no narrow tile allocates nothing.
#[derive(Default)]
struct NarrowPanel {
    j0: Option<usize>,
    lanes: Vec<f64>,
}

impl NarrowPanel {
    fn padded(&mut self, b: &[f64], steps: usize, n: usize, j0: usize, w: usize) -> &[f64] {
        if self.j0 != Some(j0) {
            self.j0 = Some(j0);
            self.lanes.clear();
            self.lanes.resize(steps * TILE_NR, 0.0);
            for (p, lanes) in self.lanes.chunks_exact_mut(TILE_NR).enumerate() {
                lanes[..w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
            }
        }
        &self.lanes
    }
}

/// One narrow tile: `TILE_MR` rows, `w < TILE_NR` columns. Runs the 4×8
/// microtile over `steps` reduction steps against `panel`, a B operand
/// zero-padded to `TILE_NR` lanes (`panel[p*NR + t]`), and stores only the
/// `w` real lanes into `out` (the tile's top-left element first, rows `n`
/// apart). A lane `r` of A at step `p` is `a[a0 + p*a_step + r*a_lane]`.
///
/// Each stored element is still one accumulator with the reduction index
/// ascending, exactly as in the scalar edge loop; a padded lane computes
/// `a·0` into an accumulator that is never stored, so no stored bit can
/// change. Kept out of line so its callers' full-tile loops compile as
/// they do without it.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn narrow_tile(
    a: &[f64],
    a0: usize,
    a_step: usize,
    a_lane: usize,
    panel: &[f64],
    steps: usize,
    w: usize,
    out: &mut [f64],
    n: usize,
) {
    let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
    for (p, bp) in panel[..steps * TILE_NR].chunks_exact(TILE_NR).enumerate() {
        let ap = a0 + p * a_step;
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let arp = a[ap + r * a_lane];
            for (acc_rt, &bv) in acc_r.iter_mut().zip(bp) {
                *acc_rt += arp * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * n..r * n + w].copy_from_slice(&acc_r[..w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_dispatch_to_their_backend_and_tiled_is_the_default() {
        assert_eq!(KernelKind::default(), KernelKind::Tiled);
        assert_eq!(KernelKind::Tiled.resolve().label(), "tiled");
        assert_eq!(KernelKind::Reference.resolve().label(), "reference");
    }

    #[test]
    fn row_tiles() {
        assert_eq!(ReferenceKernel.row_tile(), 1);
        assert_eq!(TiledKernel.row_tile(), TILE_MR);
    }

    /// Deterministic pseudo-random fill (no RNG dependency in this crate).
    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn partial_fold_matches_naive_and_is_backend_bitwise() {
        for (rows, f) in [(1usize, 1usize), (5, 3), (7, 8), (9, 19), (16, 32)] {
            let y = fill(rows * f, 3);
            let w = fill(rows * f, 4);
            let mut naive = vec![0.0f64; f];
            for (s, o) in naive.iter_mut().enumerate() {
                let mut acc = 0.0;
                for r in 0..rows {
                    acc += y[r * f + s] * w[r * f + s];
                }
                *o = acc;
            }
            let mut reference = vec![f64::NAN; f]; // overwrite semantics
            ReferenceKernel.partial_fold(&y, &w, f, &mut reference);
            let mut tiled = vec![f64::NAN; f];
            TiledKernel.partial_fold(&y, &w, f, &mut tiled);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reference), bits(&naive), "rows {rows} f {f}");
            assert_eq!(bits(&tiled), bits(&reference), "rows {rows} f {f}");
        }
    }

    #[test]
    fn axpy_sweep_is_bitwise_identical_to_fold() {
        // The contract the dimtree engine relies on: evaluating a node by
        // per-row folds or by an ascending axpy sweep over zeroed output
        // must agree bit for bit, for either backend.
        let (blocks, rows, f) = (6usize, 5usize, 11usize);
        let y = fill(blocks * rows * f, 7);
        let w = fill(blocks * f, 8);
        for kernel in [&ReferenceKernel as &dyn Kernel, &TiledKernel] {
            let mut swept = vec![0.0f64; rows * f];
            for b in 0..blocks {
                kernel.partial_axpy(
                    &y[b * rows * f..(b + 1) * rows * f],
                    &w[b * f..(b + 1) * f],
                    f,
                    &mut swept,
                );
            }
            // Per output row j, the fold reduces the strided column
            // y[b * rows + j] against w's rows — gather it contiguously
            // to use the contiguous fold entry point.
            let mut folded = vec![0.0f64; rows * f];
            for j in 0..rows {
                let mut gathered = Vec::with_capacity(blocks * f);
                for b in 0..blocks {
                    gathered.extend_from_slice(&y[(b * rows + j) * f..(b * rows + j + 1) * f]);
                }
                kernel.partial_fold(&gathered, &w, f, &mut folded[j * f..(j + 1) * f]);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&swept), bits(&folded), "{}", kernel.label());
        }
    }
}
