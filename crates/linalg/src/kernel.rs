//! The kernel backend seam: the inner-loop implementations of the dense
//! products ([`Mat::matmul`](crate::Mat::matmul) and friends), which
//! `tpcp-cp`'s dense MTTKRPs run on too, and the dimension-tree
//! contractions in `tpcp-cp`.
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
//! can never become `-0.0` in round-to-nearest). The one exception is an
//! accumulator seeded with `-0.0`, which only [`Kernel::t_matmul`] takes
//! (it starts from `out`): `-0.0 + 0.0` is `+0.0`, where the reference
//! skips the product and keeps `-0.0`. No caller seeds `-0.0`: every
//! `t_matmul` output starts zeroed (`+0.0`) and only ever holds sums.
//!
//! # Dispatch
//!
//! The engine calls [`TiledKernel`] by name; nothing in a configuration
//! selects a backend. [`KernelKind`] names a backend only at the two
//! entry points a benchmark times — `Mat::gram_kernel` and `tpcp-cp`'s
//! `mttkrp_dense_kernel` — and the test suites pin the tiled backend
//! against [`ReferenceKernel`] primitive by primitive, at the trait level.
//!
//! # Vector width
//!
//! [`TiledKernel`]'s bodies are compiled twice from one source by the
//! `tiled_instance!` macro: a *baseline* instance for the target's
//! baseline (SSE2 on x86-64) and, on x86, an *avx2* instance under
//! `#[target_feature(enable = "avx2")]`. Each call runs the AVX2 instance
//! when `is_x86_feature_detected!("avx2")` is true
//! ([`TiledKernel::isa`] names the choice); that dispatch is the crate's
//! one `unsafe` block. Both instances do the same IEEE multiply and add
//! per output element in the same order — `fma` is not enabled, nothing
//! calls `mul_add`, and Rust never contracts or reassociates floats — so
//! the choice never changes a bit of any result.

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
/// the dimension-tree contractions.
///
/// All matrices are row-major `f64` slices. The `matmul`/`matmul_t` entry
/// points receive a *band* of `A` rows and the matching band of the output;
/// `t_matmul`/`gram_band` receive all of `A` plus the band's first output
/// row `c0` (an output row is a *column* of `A` there). `t_matmul`
/// accumulates: each output element's sum starts from the value `out`
/// holds, so consecutive calls over consecutive row panels of `A` and `B`
/// continue one ascending reduction. The other products receive zeroed
/// output bands; a backend may accumulate into them or overwrite them, as
/// the two are indistinguishable on zeroed memory.
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

    /// `out[local][j] += Σ_r a[r][c0+local] · b[r][j]` — adds the band of
    /// rows `c0..c0+rows` of `Aᵀ · B` into `out`, where `a` is `m×k` (all
    /// of it), `b` is `m×n`. Each element's one accumulator starts from
    /// its `out` value and sweeps `r` in ascending order.
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
/// *narrow* tile — all `TILE_MR` rows, `w < TILE_NR` columns, so every
/// tile when the width is below 8 — runs out of line in `narrow_tile`, a
/// register tile exactly `w` wide that reads B's `w` columns in place.
/// Tiles with fewer than `TILE_MR` rows fall back to scalar loops with
/// the same ascending reduction order, so ragged shapes stay
/// bit-identical too.
///
/// Every call runs the widest of two bitwise-equal compiled instances of
/// these bodies that the CPU supports ([`TiledKernel::isa`]; see the
/// [module docs](self#vector-width)).
#[derive(Clone, Copy, Debug, Default)]
pub struct TiledKernel;

impl TiledKernel {
    /// The instance this CPU's calls run: `"avx2"` when the CPU reports
    /// AVX2, else `"baseline"`.
    pub fn isa() -> &'static str {
        Isa::detected().name()
    }
}

impl Kernel for TiledKernel {
    fn label(&self) -> &'static str {
        "tiled"
    }

    fn row_tile(&self) -> usize {
        TILE_MR
    }

    fn matmul(&self, a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        Isa::detected().run(Call::Matmul {
            a,
            rows,
            k,
            b,
            n,
            out,
        });
    }

    fn matmul_t(&self, a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
        Isa::detected().run(Call::MatmulT {
            a,
            rows,
            k,
            b,
            n,
            out,
        });
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
        Isa::detected().run(Call::TMatmul {
            a,
            m,
            k,
            c0,
            rows,
            b,
            n,
            out,
        });
    }

    fn gram_band(&self, a: &[f64], m: usize, k: usize, c0: usize, rows: usize, out: &mut [f64]) {
        Isa::detected().run(Call::GramBand {
            a,
            m,
            k,
            c0,
            rows,
            out,
        });
    }

    fn gram_needs_mirror(&self) -> bool {
        true
    }

    fn partial_fold(&self, y: &[f64], w: &[f64], f: usize, out: &mut [f64]) {
        Isa::detected().run(Call::PartialFold { y, w, f, out });
    }

    fn partial_axpy(&self, y: &[f64], w_row: &[f64], f: usize, out: &mut [f64]) {
        Isa::detected().run(Call::PartialAxpy { y, w_row, f, out });
    }
}

/// One [`TiledKernel`] primitive call with its operands, as the
/// [`Kernel`] method received them: the one shape in which a call
/// crosses from the method to an instance.
enum Call<'a> {
    Matmul {
        a: &'a [f64],
        rows: usize,
        k: usize,
        b: &'a [f64],
        n: usize,
        out: &'a mut [f64],
    },
    MatmulT {
        a: &'a [f64],
        rows: usize,
        k: usize,
        b: &'a [f64],
        n: usize,
        out: &'a mut [f64],
    },
    TMatmul {
        a: &'a [f64],
        m: usize,
        k: usize,
        c0: usize,
        rows: usize,
        b: &'a [f64],
        n: usize,
        out: &'a mut [f64],
    },
    GramBand {
        a: &'a [f64],
        m: usize,
        k: usize,
        c0: usize,
        rows: usize,
        out: &'a mut [f64],
    },
    PartialFold {
        y: &'a [f64],
        w: &'a [f64],
        f: usize,
        out: &'a mut [f64],
    },
    PartialAxpy {
        y: &'a [f64],
        w_row: &'a [f64],
        f: usize,
        out: &'a mut [f64],
    },
}

/// An instance of the tiled bodies: the instruction set one compiled copy
/// of them may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// The target's baseline (SSE2 on x86-64): runs on every CPU.
    Baseline,
    /// Compiled with `avx2` enabled. Constructed only by
    /// [`Isa::detected`], after the CPU reported AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl Isa {
    /// The widest instance this CPU runs. `is_x86_feature_detected!`
    /// caches its probe, so a call costs one load and a bit test.
    fn detected() -> Isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx2 => "avx2",
        }
    }

    /// Runs `call` on this instance's body of the primitive.
    #[allow(unsafe_code)]
    fn run(self, call: Call<'_>) {
        match self {
            Isa::Baseline => baseline::run(call),
            // SAFETY: `avx2::run` and everything it calls are compiled
            // with `#[target_feature(enable = "avx2")]`; running them is
            // sound exactly when the CPU executes AVX2 instructions. Only
            // `Isa::detected` constructs `Isa::Avx2`, and only after
            // `is_x86_feature_detected!("avx2")` has returned true, so
            // this arm runs only on a CPU that reported AVX2. Beyond the
            // instruction set the instance is the same safe Rust as
            // `baseline::run`.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx2 => unsafe { avx2::run(call) },
        }
    }
}

/// Defines one instance of the tiled bodies as module `$isa`: every
/// primitive and every helper it calls, each carrying the attributes
/// given, so the whole call tree is compiled for one instruction set (a
/// helper left outside an instance would silently run the baseline's
/// code). The bodies are written once, here; the instances differ only in
/// the attributes.
macro_rules! tiled_instance {
    ($isa:ident $(, #[$attr:meta])*) => {
        mod $isa {
            use super::{Call, TILE_MR, TILE_NR};

            $(#[$attr])*
            pub(super) fn run(call: Call<'_>) {
                match call {
                    Call::Matmul { a, rows, k, b, n, out } => matmul(a, rows, k, b, n, out),
                    Call::MatmulT { a, rows, k, b, n, out } => matmul_t(a, rows, k, b, n, out),
                    Call::TMatmul { a, m, k, c0, rows, b, n, out } => {
                        t_matmul_tiled::<true>(a, m, k, c0, rows, b, n, out, false)
                    }
                    // Symmetry exploit: each row tile computes only the
                    // columns from its own diagonal onwards (j ≥ c0 + i0);
                    // the caller mirrors the strict lower triangle
                    // afterwards — ~2× fewer flops on the per-iteration
                    // ALS Gram matrices.
                    Call::GramBand { a, m, k, c0, rows, out } => {
                        t_matmul_tiled::<false>(a, m, k, c0, rows, a, k, out, true)
                    }
                    Call::PartialFold { y, w, f, out } => partial_fold(y, w, f, out),
                    Call::PartialAxpy { y, w_row, f, out } => partial_axpy(y, w_row, f, out),
                }
            }

            $(#[$attr])*
            fn matmul(a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
                // A panel packed reduction-major: pack[p*MR + r] = a[i0+r][p], so
                // the microtile's per-step loads of the 4 A lanes share one cache
                // line instead of 4. A narrow tile reads A in place, so only a
                // full or a row-ragged tile packs: with an output narrower than 8
                // and whole row tiles, nothing is packed or allocated. Small
                // panels (k ≤ 64: every F×F product of the phase-2 update) pack
                // on the stack, so the call allocates nothing.
                const STACK_PACK: usize = 64 * TILE_MR;
                let mut on_stack = [0.0f64; STACK_PACK];
                let mut on_heap = Vec::new();
                let pack: &mut [f64] = if n < TILE_NR && rows.is_multiple_of(TILE_MR) {
                    &mut []
                } else if k * TILE_MR <= STACK_PACK {
                    &mut on_stack[..k * TILE_MR]
                } else {
                    on_heap.resize(k * TILE_MR, 0.0f64);
                    &mut on_heap
                };
                let mut i0 = 0;
                while i0 < rows {
                    let h = TILE_MR.min(rows - i0);
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
                                out[(i0 + r) * n + j0..(i0 + r) * n + j0 + TILE_NR]
                                    .copy_from_slice(acc_r);
                            }
                        } else if h == TILE_MR {
                            let out = &mut out[i0 * n + j0..];
                            narrow_tile::<false>(&a[i0 * k..], 1, k, &b[j0..], n, k, w, out, n);
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

            $(#[$attr])*
            fn matmul_t(a: &[f64], rows: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
                // Bᵀ panel packed reduction-major: pack[p*NR + t] = b[j0+t][p], so
                // the microtile's inner loop is a stride-1 8-wide FMA. The panel
                // is packed once per column tile and reused by every row tile; a
                // narrow tile reads its `w` lanes at stride `TILE_NR`.
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
                                out[(i0 + r) * n + j0..(i0 + r) * n + j0 + TILE_NR]
                                    .copy_from_slice(acc_r);
                            }
                        } else if h == TILE_MR {
                            let out = &mut out[i0 * n + j0..];
                            narrow_tile::<false>(&a[i0 * k..], 1, k, &pack, TILE_NR, k, w, out, n);
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

            $(#[$attr])*
            fn partial_fold(y: &[f64], w: &[f64], f: usize, out: &mut [f64]) {
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

            $(#[$attr])*
            fn partial_axpy(y: &[f64], w_row: &[f64], f: usize, out: &mut [f64]) {
                // One multiply-add per element — memory-bound, and each element is
                // touched exactly once per call, so the stride-1 zip below is both
                // the vectorisable and the trivially order-exact form.
                for (out_row, y_row) in out.chunks_mut(f).zip(y.chunks(f)) {
                    for ((o, &yv), &wv) in out_row.iter_mut().zip(y_row).zip(w_row) {
                        *o += yv * wv;
                    }
                }
            }

            /// Shared tiled core of `t_matmul` and `gram_band`: both tile
            /// dimensions (columns of `A`, columns of `B`) are contiguous per
            /// input row, so no packing is needed — each reduction step loads
            /// one 4-lane and one 8-lane stride-1 slice. With `upper_only`,
            /// each row tile starts its column sweep at its own diagonal
            /// (`j0 = c0 + i0`), so the narrow tail starts at a different
            /// column in each row tile. `ACC` (accumulate) starts every
            /// accumulator from its `out` element (`t_matmul`'s `out +=`)
            /// rather than from `0.0`; it is a compile-time choice so the
            /// `0.0` start compiles as it does without it.
            $(#[$attr])*
            #[allow(clippy::too_many_arguments)]
            fn t_matmul_tiled<const ACC: bool>(
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
                let mut i0 = 0;
                while i0 < rows {
                    let h = TILE_MR.min(rows - i0);
                    let mut j0 = if upper_only { c0 + i0 } else { 0 };
                    while j0 < n {
                        let w = TILE_NR.min(n - j0);
                        if h == TILE_MR && w == TILE_NR {
                            let mut acc = [[0.0f64; TILE_NR]; TILE_MR];
                            if ACC {
                                for (x, acc_x) in acc.iter_mut().enumerate() {
                                    acc_x.copy_from_slice(
                                        &out[(i0 + x) * n + j0..(i0 + x) * n + j0 + TILE_NR],
                                    );
                                }
                            }
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
                                out[(i0 + x) * n + j0..(i0 + x) * n + j0 + TILE_NR]
                                    .copy_from_slice(acc_x);
                            }
                        } else if h == TILE_MR {
                            let out = &mut out[i0 * n + j0..];
                            narrow_tile::<ACC>(&a[c0 + i0..], k, 1, &b[j0..], n, m, w, out, n);
                        } else {
                            for x in 0..h {
                                for t in 0..w {
                                    let o = (i0 + x) * n + j0 + t;
                                    let mut acc = if ACC { out[o] } else { 0.0 };
                                    for r in 0..m {
                                        acc += a[r * k + c0 + i0 + x] * b[r * n + j0 + t];
                                    }
                                    out[o] = acc;
                                }
                            }
                        }
                        j0 += w;
                    }
                    i0 += h;
                }
            }

            /// One narrow tile: `TILE_MR` rows, `w < TILE_NR` columns, over
            /// `steps` reduction steps. Lane `r` of A at step `p` is
            /// `a[p*a_step + r*a_lane]`; B's row at step `p` is
            /// `b[p*b_stride..][..w]`, read in place. The tile's top-left
            /// output element is `out[0]`, its rows `n` apart.
            ///
            /// Dispatches once on `w` to a body whose `[[f64; W]; TILE_MR]`
            /// accumulators are exactly the stored elements: each one
            /// accumulator with the reduction index ascending, as in the
            /// scalar edge loop, started from its `out` element when
            /// `ACC` (as in `t_matmul_tiled`). Kept out of line so its
            /// callers' full-tile loops compile as they do without it.
            $(#[$attr])*
            #[allow(clippy::too_many_arguments)]
            #[inline(never)]
            fn narrow_tile<const ACC: bool>(
                a: &[f64],
                a_step: usize,
                a_lane: usize,
                b: &[f64],
                b_stride: usize,
                steps: usize,
                w: usize,
                out: &mut [f64],
                n: usize,
            ) {
                match w {
                    1 => narrow_tile_w::<1, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    2 => narrow_tile_w::<2, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    3 => narrow_tile_w::<3, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    4 => narrow_tile_w::<4, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    5 => narrow_tile_w::<5, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    6 => narrow_tile_w::<6, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    7 => narrow_tile_w::<7, ACC>(a, a_step, a_lane, b, b_stride, steps, out, n),
                    _ => unreachable!("a narrow tile is 1..=7 columns wide, not {w}"),
                }
            }

            /// [`narrow_tile`]'s body at width `W`.
            $(#[$attr])*
            #[allow(clippy::too_many_arguments)]
            fn narrow_tile_w<const W: usize, const ACC: bool>(
                a: &[f64],
                a_step: usize,
                a_lane: usize,
                b: &[f64],
                b_stride: usize,
                steps: usize,
                out: &mut [f64],
                n: usize,
            ) {
                let mut acc = [[0.0f64; W]; TILE_MR];
                if ACC {
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        acc_r.copy_from_slice(&out[r * n..r * n + W]);
                    }
                }
                for p in 0..steps {
                    let bp = &b[p * b_stride..][..W];
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let arp = a[p * a_step + r * a_lane];
                        for (acc_rt, &bv) in acc_r.iter_mut().zip(bp) {
                            *acc_rt += arp * bv;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    out[r * n..r * n + W].copy_from_slice(acc_r);
                }
            }
        }
    };
}

tiled_instance!(baseline);
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
tiled_instance!(avx2, #[target_feature(enable = "avx2")]);

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

    /// `fill` with zeros of both signs mixed in: the instances are
    /// branch-free, so a signed zero reaches every multiply and add.
    fn signed_zeros(len: usize, seed: u64) -> Vec<f64> {
        let mut v = fill(len, seed);
        for (i, x) in v.iter_mut().enumerate() {
            if i % 3 == 1 {
                *x = 0.0;
            } else if i % 7 == 5 {
                *x = -0.0;
            }
        }
        v
    }

    /// Runs `op` into a copy of `init` on the baseline instance and on
    /// `isa`, and asserts the two outputs are bitwise equal.
    fn assert_instances_agree(isa: Isa, what: &str, init: &[f64], op: impl Fn(Isa, &mut [f64])) {
        let run = |on: Isa| {
            let mut out = init.to_vec();
            op(on, &mut out);
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(
            run(isa),
            run(Isa::Baseline),
            "{} vs baseline: {what}",
            isa.name()
        );
    }

    /// Every primitive, on both instances, over `kernel_equiv`'s shapes:
    /// widths 1..=17 and 32, rows {4, 5, 8, 13}, reductions (and row
    /// lengths) {1, 6, 33, 400}, zeros of both signs in every operand, and
    /// `t_matmul` accumulating into a non-zero `out`. `kernel_equiv` pins
    /// whichever instance the CPU dispatches to against `ReferenceKernel`;
    /// on an AVX2 CPU this is the one test that still runs the baseline
    /// instance.
    #[test]
    fn avx2_instance_is_bitwise_the_baseline() {
        let isa = Isa::detected();
        if isa == Isa::Baseline {
            println!("skipped: this CPU has no AVX2, so the baseline is the only instance");
            return;
        }
        for n in (1..=17usize).chain([32]) {
            for rows in [4usize, 5, 8, 13] {
                for k in [1usize, 6, 33, 400] {
                    let seed = (n * 10_000 + rows * 1_000 + k) as u64;
                    let a = signed_zeros(rows * k, seed);
                    let b_kn = signed_zeros(k * n, seed + 1);
                    let b_nk = signed_zeros(n * k, seed + 2);
                    // t_matmul's A is k×(rows + 1): the band is its columns
                    // 1..=rows, so the tile's A lanes start off a row start.
                    let a_t = signed_zeros(k * (rows + 1), seed + 3);
                    // `t_matmul` adds into `out`: start it from non-zero
                    // values (and signed zeros; both instances add through
                    // them alike).
                    let out_t = signed_zeros(rows * n, seed + 4);
                    let zeros = vec![0.0; rows * n];
                    let shape = format!("n {n} rows {rows} k {k}");
                    assert_instances_agree(isa, &format!("matmul {shape}"), &zeros, |on, out| {
                        on.run(Call::Matmul {
                            a: &a,
                            rows,
                            k,
                            b: &b_kn,
                            n,
                            out,
                        })
                    });
                    assert_instances_agree(isa, &format!("matmul_t {shape}"), &zeros, |on, out| {
                        on.run(Call::MatmulT {
                            a: &a,
                            rows,
                            k,
                            b: &b_nk,
                            n,
                            out,
                        })
                    });
                    assert_instances_agree(isa, &format!("t_matmul {shape}"), &out_t, |on, out| {
                        on.run(Call::TMatmul {
                            a: &a_t,
                            m: k,
                            k: rows + 1,
                            c0: 1,
                            rows,
                            b: &b_kn,
                            n,
                            out,
                        })
                    });
                }
            }
            // The Gram of an m×n A, one band from each row tile onwards, so
            // every diagonal start of the upper-triangle sweep runs.
            for m in [1usize, 6, 33, 400] {
                let a = signed_zeros(m * n, (n * 100 + m) as u64);
                for c0 in (0..n).step_by(TILE_MR) {
                    let rows = n - c0;
                    let zeros = vec![0.0; rows * n];
                    let what = format!("gram_band n {n} m {m} c0 {c0}");
                    assert_instances_agree(isa, &what, &zeros, |on, out| {
                        on.run(Call::GramBand {
                            a: &a,
                            m,
                            k: n,
                            c0,
                            rows,
                            out,
                        })
                    });
                }
            }
            for len in [1usize, 4, 5, 6, 8, 13, 33, 400] {
                let seed = (n * 1_000 + len) as u64 + 7;
                let y = signed_zeros(len * n, seed + 2);
                let w_rows = signed_zeros(len * n, seed + 3);
                let w = fill(n, seed + 4);
                let shape = format!("f {n} len {len}");
                let out_lf = fill(len * n, seed + 6);
                let nans = vec![f64::NAN; n]; // overwrite semantics
                assert_instances_agree(isa, &format!("partial_fold {shape}"), &nans, |on, out| {
                    on.run(Call::PartialFold {
                        y: &y,
                        w: &w_rows,
                        f: n,
                        out,
                    })
                });
                assert_instances_agree(
                    isa,
                    &format!("partial_axpy {shape}"),
                    &out_lf,
                    |on, out| {
                        on.run(Call::PartialAxpy {
                            y: &y,
                            w_row: &w,
                            f: n,
                            out,
                        })
                    },
                );
            }
        }
    }

    /// The `SAFETY` argument of `Isa::run`: the AVX2 instance is chosen
    /// exactly when the CPU reports AVX2 — never without the detection,
    /// and (on a CPU that has it) always. Runs on every CPU: without AVX2,
    /// it is the case the argument is about.
    #[test]
    fn dispatch_picks_avx2_only_when_detected() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let has_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let has_avx2 = false;
        if !has_avx2 {
            println!("note: this CPU has no AVX2; checking that the baseline is chosen");
        }
        let want = if has_avx2 { "avx2" } else { "baseline" };
        assert_eq!(Isa::detected().name(), want);
        assert_eq!(TiledKernel::isa(), want);
    }
}
