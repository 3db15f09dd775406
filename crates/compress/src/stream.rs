//! Streaming passes over a [`BlockSource`]: mode Grams / sketches, the
//! core contraction, and the exact polish sweeps.
//!
//! Every pass keeps at most one *slab panel* (`I_n ×` one block-column
//! group) plus one block resident (the block unfolds straight into the
//! panel's rows), or one block and its unfolding, so compression obeys
//! the same out-of-core memory discipline as streaming Phase 1 — the
//! full `I_n × Π_{m≠n} I_m` unfolding is never materialised.
//! [`Stream::peak_bytes`] records the most any pass held.
//! Determinism follows the workspace contract: all products run the
//! bitwise thread-invariant tiled kernels, and every accumulation
//! (`G_n += Y·Yᵀ`, sketch row updates, core adds, MTTKRP row adds) happens
//! serially in a fixed order (ascending slab/block linear id), so results
//! are bit-identical run to run and for any thread budget.

use crate::Result;
use tpcp_cp::mttkrp_dense;
use tpcp_linalg::{khatri_rao, Mat};
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, Grid};
use tpcp_tensor::DenseTensor;

/// A block source streamed over one grid, with the kernels' thread budget
/// and the most tensor bytes a pass has held at once.
pub(crate) struct Stream<'a> {
    pub(crate) src: &'a mut dyn BlockSource,
    pub(crate) grid: &'a Grid,
    pub(crate) par: ParConfig,
    /// Peak of the slab panel, block and unfolding bytes held together.
    pub(crate) peak_bytes: u64,
}

/// Dense bytes of `elems` cells.
fn bytes(elems: usize) -> u64 {
    (elems * std::mem::size_of::<f64>()) as u64
}

impl Stream<'_> {
    /// Loads block `lin` densely (sparse blocks are densified — compression
    /// operates on dense panels), rejecting non-finite data.
    fn load_dense(&mut self, lin: usize) -> Result<DenseTensor> {
        let block = self.src.load_block(self.grid, lin)?;
        block.check_finite(self.grid, lin)?;
        match block {
            Block::Dense(t) => Ok(t),
            Block::Sparse(t) => Ok(t.to_dense().map_err(tpcp_cp::CpError::from)?),
        }
    }

    /// Records `held` tensor bytes as resident at one moment.
    fn hold(&mut self, held: u64) {
        self.peak_bytes = self.peak_bytes.max(held);
    }
}

/// One streaming pass of mode-`mode` slab panels.
///
/// For each group of blocks sharing their non-`mode` coordinates (iterated
/// in ascending block-linear order of the group's first block), the blocks'
/// mode-`mode` unfoldings are stacked into an `I_mode × c` panel — the
/// vertical slice `X_(mode)[:, cols(κ)]` of the unfolding — and handed to
/// `on_panel`. `on_block` sees every block exactly once (used to collect
/// per-block norms without an extra pass).
pub(crate) fn stream_panels(
    s: &mut Stream,
    mode: usize,
    mut on_block: impl FnMut(usize, &DenseTensor),
    mut on_panel: impl FnMut(&Mat) -> Result<()>,
) -> Result<()> {
    let grid = s.grid;
    let i_n = grid.dims()[mode];
    for lin in 0..grid.num_blocks() {
        let coords = grid.block_coords(lin);
        if coords[mode] != 0 {
            continue;
        }
        let cols: usize = grid
            .block_dims(&coords)
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &d)| d)
            .product();
        let mut panel = Mat::zeros(i_n, cols);
        let mut kc = coords.clone();
        for k in 0..grid.parts()[mode] {
            kc[mode] = k;
            let blin = grid.block_linear(&kc);
            let dense = s.load_dense(blin)?;
            on_block(blin, &dense);
            s.hold(bytes(panel.as_slice().len() + dense.len()));
            // The block's unfolding is the panel's rows `r0..`, contiguous
            // in row-major order: unfold straight into them.
            let at = grid.part_range(mode, k).start * cols;
            dense
                .unfold_into(mode, &mut panel.as_mut_slice()[at..at + dense.len()])
                .map_err(tpcp_cp::CpError::from)?;
        }
        on_panel(&panel)?;
    }
    Ok(())
}

/// The exact mode-`mode` Gram `G = X_(mode) · X_(mode)ᵀ`, accumulated one
/// slab panel at a time (`G += Y_κ · Y_κᵀ` in ascending slab order).
pub(crate) fn mode_gram(
    s: &mut Stream,
    mode: usize,
    mut on_block: impl FnMut(usize, &DenseTensor),
) -> Result<Mat> {
    let (i_n, par) = (s.grid.dims()[mode], s.par);
    let mut g = Mat::zeros(i_n, i_n);
    stream_panels(s, mode, &mut on_block, |panel| {
        let contrib = panel
            .matmul_t_kernel(panel, &par)
            .map_err(tpcp_cp::CpError::from)?;
        g.add_assign(&contrib).map_err(tpcp_cp::CpError::from)?;
        Ok(())
    })?;
    Ok(g)
}

/// The projected Gram `S = Qᵀ · X_(mode) · X_(mode)ᵀ · Q` for an
/// orthonormal `Q` (sketched path: `S`'s eigenvalues estimate the leading
/// mode spectrum). Accumulated as `S += (Y_κᵀQ)ᵀ(Y_κᵀQ)` per slab.
pub(crate) fn projected_gram(s: &mut Stream, mode: usize, q: &Mat) -> Result<Mat> {
    let (l, par) = (q.cols(), s.par);
    let mut acc = Mat::zeros(l, l);
    let mut g = Mat::default();
    stream_panels(
        s,
        mode,
        |_, _| {},
        |panel| {
            let w = panel
                .t_matmul_kernel(q, &par)
                .map_err(tpcp_cp::CpError::from)?;
            w.gram_into(&par, &mut g);
            acc.add_assign(&g).map_err(tpcp_cp::CpError::from)?;
            Ok(())
        },
    )?;
    Ok(acc)
}

/// One subspace (power) iteration for mode `mode`:
/// `Z = X_(mode) · X_(mode)ᵀ · Q`, accumulated per slab as
/// `Z += Y_κ · (Y_κᵀ · Q)`.
pub(crate) fn power_pass(s: &mut Stream, mode: usize, q: &Mat) -> Result<Mat> {
    let par = s.par;
    let mut z = Mat::zeros(s.grid.dims()[mode], q.cols());
    stream_panels(
        s,
        mode,
        |_, _| {},
        |panel| {
            let w = panel
                .t_matmul_kernel(q, &par)
                .map_err(tpcp_cp::CpError::from)?;
            let contrib = panel
                .matmul_kernel(&w, &par)
                .map_err(tpcp_cp::CpError::from)?;
            z.add_assign(&contrib).map_err(tpcp_cp::CpError::from)?;
            Ok(())
        },
    )?;
    Ok(z)
}

/// One pass computing every mode's Gaussian sketch `Y_n = X_(n) · Ω_n`,
/// where `Ω_n` is the Khatri-Rao product of the per-mode test matrices
/// `omegas[n][m]` (`m ≠ n`) — so each block's contribution is
/// `unf_b · KR(row-blocks of Ω)`, touching the block exactly once for all
/// modes. Also records per-block squared norms.
pub(crate) fn sketch_pass(
    s: &mut Stream,
    omegas: &[Vec<Option<Mat>>],
    widths: &[usize],
    block_norms_sq: &mut [f64],
) -> Result<Vec<Mat>> {
    let grid = s.grid;
    let order = grid.order();
    let mut ys: Vec<Mat> = (0..order)
        .map(|n| Mat::zeros(grid.dims()[n], widths[n]))
        .collect();
    for (lin, norm_sq) in block_norms_sq.iter_mut().enumerate() {
        let dense = s.load_dense(lin)?;
        s.hold(2 * bytes(dense.len()));
        *norm_sq = dense.fro_norm_sq();
        let coords = grid.block_coords(lin);
        for n in 0..order {
            let unf = dense.unfold(n).map_err(tpcp_cp::CpError::from)?;
            let slices: Vec<Mat> = (0..order)
                .filter(|&m| m != n)
                .map(|m| {
                    let r = grid.part_range(m, coords[m]);
                    omegas[n][m]
                        .as_ref()
                        .expect("omega present for every m != n")
                        .row_block(r.start, r.end - r.start)
                })
                .collect();
            let refs: Vec<&Mat> = slices.iter().collect();
            let kr = khatri_rao(&refs).map_err(tpcp_cp::CpError::from)?;
            let contrib = unf
                .matmul_kernel(&kr, &s.par)
                .map_err(tpcp_cp::CpError::from)?;
            let r0 = grid.part_range(n, coords[n]).start;
            for i in 0..contrib.rows() {
                for (dst, v) in ys[n].row_mut(r0 + i).iter_mut().zip(contrib.row(i)) {
                    *dst += v;
                }
            }
        }
    }
    Ok(ys)
}

/// Second streaming pass: contracts the tensor against every mode basis
/// into the dense core `C = X ×₁ U₁ᵀ ×₂ … ×_N U_Nᵀ`.
///
/// Per block the TTMs run as a *sequential chain* in ascending mode order,
/// so each contraction shrinks the operand the next one reads (the
/// dimension-tree-style reuse of partial products: after mode 0 the chain
/// works on an `R_0 × d_1 × …` partial, not the raw block), and block
/// contributions add into the core serially in ascending block order.
pub(crate) fn contract_core(s: &mut Stream, bases: &[Mat]) -> Result<DenseTensor> {
    let grid = s.grid;
    let order = grid.order();
    let core_dims: Vec<usize> = bases.iter().map(Mat::cols).collect();
    let mut core = DenseTensor::zeros(&core_dims);
    for lin in 0..grid.num_blocks() {
        let mut t = s.load_dense(lin)?;
        // The block and its first unfolding; the chain only shrinks.
        s.hold(2 * bytes(t.len()));
        let coords = grid.block_coords(lin);
        let mut tdims: Vec<usize> = t.dims().to_vec();
        for n in 0..order {
            let r = grid.part_range(n, coords[n]);
            let u_rows = bases[n].row_block(r.start, r.end - r.start);
            let unf = t.unfold(n).map_err(tpcp_cp::CpError::from)?;
            let contracted = u_rows
                .t_matmul_kernel(&unf, &s.par)
                .map_err(tpcp_cp::CpError::from)?;
            tdims[n] = core_dims[n];
            t = DenseTensor::fold(&contracted, n, &tdims).map_err(tpcp_cp::CpError::from)?;
        }
        for (dst, v) in core.as_mut_slice().iter_mut().zip(t.as_slice()) {
            *dst += v;
        }
    }
    Ok(core)
}

/// One exact ALS update of `factors[mode]` against the original tensor,
/// streamed blockwise: the mode-`mode` MTTKRP accumulates per block
/// (serial row adds, ascending block order), the Gram-Hadamard system
/// comes from the full factors, and the normal equations are solved with
/// the usual escalating ridge.
pub(crate) fn refine_mode(
    s: &mut Stream,
    factors: &mut [Mat],
    mode: usize,
    ridge: f64,
) -> Result<()> {
    let (grid, par) = (s.grid, s.par);
    let order = grid.order();
    let f = factors[mode].cols();
    let mut t_mat = Mat::zeros(grid.dims()[mode], f);
    for lin in 0..grid.num_blocks() {
        let dense = s.load_dense(lin)?;
        s.hold(bytes(dense.len()));
        let coords = grid.block_coords(lin);
        let slices: Vec<Mat> = (0..order)
            .map(|m| {
                let r = grid.part_range(m, coords[m]);
                factors[m].row_block(r.start, r.end - r.start)
            })
            .collect();
        let refs: Vec<&Mat> = slices.iter().collect();
        let contrib = mttkrp_dense(&dense, &refs, mode, &par)?;
        let r0 = grid.part_range(mode, coords[mode]).start;
        for i in 0..contrib.rows() {
            for (dst, v) in t_mat.row_mut(r0 + i).iter_mut().zip(contrib.row(i)) {
                *dst += v;
            }
        }
    }
    let mut sys: Option<Mat> = None;
    for m in (0..order).filter(|&m| m != mode) {
        let mut g = Mat::default();
        factors[m].gram_into(&par, &mut g);
        sys = Some(match sys {
            Some(mut acc) => {
                acc.hadamard_assign(&g).map_err(tpcp_cp::CpError::from)?;
                acc
            }
            None => g,
        });
    }
    let sys = sys.expect("refine_mode requires order >= 2");
    factors[mode] = tpcp_linalg::solve::solve_gram_system(&t_mat, &sys, ridge)
        .map_err(tpcp_cp::CpError::from)?;
    Ok(())
}
