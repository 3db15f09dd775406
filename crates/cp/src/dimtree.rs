//! The contraction tree: how a dense tensor is contracted with the factors
//! (Ballard/Hayashi/Kannan, arXiv:1806.07985).
//!
//! An MTTKRP `X_(n) · KR([A⁽ʰ⁾]_{h≠n})` contracts the tensor against every
//! factor but one. A dimension tree contracts against *groups* of factors
//! and keeps the partial products: the root holds `X` itself, each
//! internal node over a contiguous mode range `S = [lo, hi)` holds
//!
//! ```text
//! Y_S[(i_S), s] = Σ_{i∉S} X[i] · ∏_{h∉S} A⁽ʰ⁾[i_h, s]
//! ```
//!
//! (an `∏_{h∈S} I_h × F` matrix, rows in row-major last-mode-fastest order,
//! exactly matching `DenseTensor`'s layout), and each leaf `{n}` *is* the
//! mode-`n` MTTKRP. Only the root's children read the tensor — one banded
//! GEMM against the sibling range's Khatri-Rao product each — and
//! everything below is a cheap per-row fold.
//!
//! The tree is evaluated two ways (`docs/dimtree.md`):
//!
//! * **sweep** — the ALS loop keeps one tree per decomposition, so a sweep
//!   over all modes pays the two `O(|X|·F)` root contractions once and
//!   descends with the folds (roughly half the flops of `N` independent
//!   MTTKRPs for order ≥ 4), with arenas allocated once and reused;
//! * **one-shot** — `mttkrp_dense` evaluates a single root→leaf
//!   path on a throw-away tree: one GEMM, then folds.
//!
//! A node depends only on the factors *outside* its range, so updating
//! factor `n` invalidates exactly the nodes whose range excludes `n` — the
//! complement formulation of "invalidate the updated leaf's ancestors'
//! siblings" used in the literature.
//!
//! Determinism contract (same shape as `docs/kernels.md`): one accumulator
//! per node element with the reduction index ascending, and parallelism
//! only ever bands *output* rows — results are bitwise run-to-run and
//! thread-count stable, for both kernel backends.

use crate::mttkrp::check_factors;
use crate::{CpError, Result};
use tpcp_linalg::{khatri_rao_into, Kernel, Mat, TiledKernel};
use tpcp_par::{par_chunks_mut, tile_rows_per_chunk, ParConfig};
use tpcp_schedule::{AccessSequence, UnitId};
use tpcp_tensor::DenseTensor;

/// Work (parent elements × rank) below which a node contraction stays on
/// the calling thread (same floor as the dense 3-mode MTTKRP).
const PAR_MIN_WORK: usize = 1 << 13;

/// "No node" sentinel for parent/child links.
const NO_NODE: usize = usize::MAX;

/// One tree node over the contiguous mode range `[lo, hi)`.
struct Node {
    lo: usize,
    hi: usize,
    parent: usize,
    left: usize,
    right: usize,
    /// `∏ dims[lo..hi)` — the node value's row count.
    rows: usize,
    /// Whether `value` reflects the current factors.
    valid: bool,
    /// The node's partial product (`rows × F` row-major); empty for the
    /// root (whose value is the tensor itself) and until first evaluated.
    value: Vec<f64>,
}

impl Node {
    fn contains(&self, mode: usize) -> bool {
        self.lo <= mode && mode < self.hi
    }
}

/// A binary dimension tree over the modes of one dense tensor, with
/// per-node scratch arenas reused across ALS sweeps.
///
/// Node `0` is the root `[0, N)`; every internal node splits its range at
/// the midpoint, so the tree has exactly `2N − 1` nodes and depth
/// `⌈log₂ N⌉ + 1`.
pub struct DimTree {
    dims: Vec<usize>,
    rank: usize,
    nodes: Vec<Node>,
    /// `leaf_of_mode[n]` = index of the leaf `{n}`.
    leaf_of_mode: Vec<usize>,
    /// Reusable buffer for sibling Khatri-Rao weights.
    kr_scratch: Mat,
    /// Flops spent in node evaluations since the last [`DimTree::take_flops`].
    flops: u64,
}

impl DimTree {
    /// Builds the tree for an order-`N ≥ 2` tensor at a positive rank;
    /// returns `None` otherwise (an order-1 root is its own leaf — there
    /// is nothing to contract). At order 2 the two leaves are the root's
    /// children: a plain `matmul` and `t_matmul` against the other factor.
    pub fn new(dims: &[usize], rank: usize) -> Option<Self> {
        if dims.len() < 2 || rank == 0 {
            return None;
        }
        let mut nodes = Vec::with_capacity(2 * dims.len() - 1);
        let mut leaf_of_mode = vec![NO_NODE; dims.len()];
        build(&mut nodes, &mut leaf_of_mode, dims, 0, dims.len(), NO_NODE);
        nodes[0].valid = true; // the root *is* the tensor
        Some(DimTree {
            dims: dims.to_vec(),
            rank,
            nodes,
            leaf_of_mode,
            kr_scratch: Mat::zeros(0, 0),
            flops: 0,
        })
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Decomposition rank `F`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total bytes currently held by the node arenas (plus the KR scratch).
    pub fn arena_bytes(&self) -> usize {
        let values: usize = self.nodes.iter().map(|n| n.value.capacity()).sum();
        (values + self.kr_scratch.len()) * std::mem::size_of::<f64>()
    }

    /// Flops spent in node evaluations since the last call (resets the
    /// counter): `2·rows(parent)·F` per contraction plus the sibling
    /// Khatri-Rao materialisation.
    pub fn take_flops(&mut self) -> u64 {
        std::mem::take(&mut self.flops)
    }

    /// The mode-`mode` MTTKRP `X_(mode) · KR([factors]_{h≠mode})`, answered
    /// from the tree path and cached partial products.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when the factors disagree with the tensor
    /// shape or the tree's rank, or `x`'s shape disagrees with the tree.
    pub fn mttkrp(
        &mut self,
        x: &DenseTensor,
        factors: &[&Mat],
        mode: usize,
        par: &ParConfig,
    ) -> Result<Mat> {
        self.mttkrp_on(x, factors, mode, par, &TiledKernel)
    }

    /// [`DimTree::mttkrp`] on the backend `kernel`.
    pub(crate) fn mttkrp_on(
        &mut self,
        x: &DenseTensor,
        factors: &[&Mat],
        mode: usize,
        par: &ParConfig,
        kernel: &dyn Kernel,
    ) -> Result<Mat> {
        let f = check_factors(&self.dims, factors, mode)?;
        if f != self.rank {
            return Err(CpError::BadFactors {
                reason: format!("factor rank {f} != tree rank {}", self.rank),
            });
        }
        if x.dims() != &self.dims[..] {
            return Err(CpError::BadFactors {
                reason: format!("tensor dims {:?} != tree dims {:?}", x.dims(), self.dims),
            });
        }
        let leaf = self.leaf_of_mode[mode];
        self.ensure(leaf, x, factors, par, kernel)?;
        let node = &self.nodes[leaf];
        Ok(Mat::from_vec(node.rows, f, node.value.clone()))
    }

    /// Marks the nodes whose value depends on factor `mode` — exactly
    /// those whose range *excludes* `mode` — as stale. The updated leaf
    /// and its ancestors keep their values (they never read `A⁽ᵐᵒᵈᵉ⁾`).
    pub fn factor_updated(&mut self, mode: usize) {
        for node in &mut self.nodes[1..] {
            if !node.contains(mode) {
                node.valid = false;
            }
        }
    }

    /// Invalidates every cached value (the root, being the tensor itself,
    /// stays). Required after any whole-model rescale — ALS rebalancing
    /// scales *all* factor columns, which touches every node's inputs.
    pub fn invalidate_all(&mut self) {
        for node in &mut self.nodes[1..] {
            node.valid = false;
        }
    }

    /// The steady-state per-sweep access sequence: position `pos % N` lists
    /// the factor units (`UnitId { mode: h, part: 0 }`) whose factors the
    /// mode-`(pos % N)` MTTKRP consumes as Khatri-Rao weights of freshly
    /// evaluated nodes. A prefetcher walking this sequence can stage the
    /// upcoming leaf reads (`tpcp_schedule::AccessSequence`).
    ///
    /// Built by simulating two sweeps of evaluate/invalidate over the tree
    /// and keeping the second — the first sweep's cold start evaluates
    /// extra nodes that never recur.
    pub fn access_sequence(&self) -> SweepSequence {
        let n = self.dims.len();
        let mut valid = vec![false; self.nodes.len()];
        valid[0] = true;
        let mut steps = Vec::new();
        for sweep in 0..2 {
            let mut this_sweep = Vec::with_capacity(n);
            for mode in 0..n {
                let mut consumed: Vec<usize> = Vec::new();
                self.simulate_ensure(self.leaf_of_mode[mode], &mut valid, &mut consumed);
                consumed.sort_unstable();
                consumed.dedup();
                this_sweep.push(consumed.into_iter().map(|m| UnitId::new(m, 0)).collect());
                for (i, node) in self.nodes.iter().enumerate().skip(1) {
                    if !node.contains(mode) {
                        valid[i] = false;
                    }
                }
            }
            if sweep == 1 {
                steps = this_sweep;
            }
        }
        SweepSequence { steps }
    }

    /// Mirror of [`DimTree::ensure`]'s recursion on validity flags alone,
    /// recording which modes' factors each evaluation would read.
    fn simulate_ensure(&self, idx: usize, valid: &mut [bool], consumed: &mut Vec<usize>) {
        if idx == 0 || valid[idx] {
            return;
        }
        let parent = self.nodes[idx].parent;
        self.simulate_ensure(parent, valid, consumed);
        let sib = if self.nodes[parent].left == idx {
            self.nodes[parent].right
        } else {
            self.nodes[parent].left
        };
        consumed.extend(self.nodes[sib].lo..self.nodes[sib].hi);
        valid[idx] = true;
    }

    /// Makes node `idx`'s value current, re-evaluating the stale part of
    /// its path from the nearest valid ancestor downwards.
    fn ensure(
        &mut self,
        idx: usize,
        x: &DenseTensor,
        factors: &[&Mat],
        par: &ParConfig,
        kernel: &dyn Kernel,
    ) -> Result<()> {
        if idx == 0 || self.nodes[idx].valid {
            return Ok(());
        }
        let parent = self.nodes[idx].parent;
        self.ensure(parent, x, factors, par, kernel)?;
        self.eval_child(idx, x, factors, par, kernel)
    }

    /// Evaluates node `idx` from its (valid) parent: contract the parent's
    /// value against the *sibling* range's Khatri-Rao weights. The root's
    /// children contract the tensor itself via `matmul`/`t_matmul` bands;
    /// deeper nodes use the [`Kernel::partial_fold`] /
    /// [`Kernel::partial_axpy`] entry points. All four shapes parallelise
    /// by banding output rows only — the reduction axis is never split.
    fn eval_child(
        &mut self,
        idx: usize,
        x: &DenseTensor,
        factors: &[&Mat],
        par: &ParConfig,
        kernel: &dyn Kernel,
    ) -> Result<()> {
        let f = self.rank;
        let node_rows = self.nodes[idx].rows;
        let parent = self.nodes[idx].parent;
        let p_rows = self.nodes[parent].rows;
        let is_left = self.nodes[parent].left == idx;
        // The sibling's range supplies the Khatri-Rao weights.
        let (s_lo, s_hi) = if is_left {
            (self.nodes[idx].hi, self.nodes[parent].hi)
        } else {
            (self.nodes[parent].lo, self.nodes[idx].lo)
        };
        let w_rows: usize = self.dims[s_lo..s_hi].iter().product();

        let mut val = std::mem::take(&mut self.nodes[idx].value);
        if val.len() != node_rows * f {
            val = vec![0.0; node_rows * f];
        }
        let mut scratch = std::mem::replace(&mut self.kr_scratch, Mat::zeros(0, 0));
        // Sibling weights in the parent's row order (modes ascending, last
        // fastest — `khatri_rao`'s convention matches the unfolding); a
        // singleton sibling is the factor itself, no copy.
        let w: &[f64] = if s_hi - s_lo == 1 {
            factors[s_lo].as_slice()
        } else {
            khatri_rao_into(&factors[s_lo..s_hi], &mut scratch)?;
            scratch.as_slice()
        };
        debug_assert_eq!(w.len(), w_rows * f);

        let par = par.clamped(p_rows * f, PAR_MIN_WORK);
        let chunk_rows = tile_rows_per_chunk(node_rows, par.threads(), kernel.row_tile());

        if parent == 0 {
            // The root's value is the tensor itself: its left child is a
            // plain banded GEMM of the `node_rows × w_rows` matricisation
            // against the suffix weights, its right child the transposed
            // product against the prefix weights.
            let data = x.as_slice();
            if is_left {
                val.fill(0.0);
                par_chunks_mut(&par, &mut val, chunk_rows * f, |ci, chunk| {
                    let r0 = ci * chunk_rows;
                    let rows = chunk.len() / f;
                    kernel.matmul(
                        &data[r0 * w_rows..(r0 + rows) * w_rows],
                        rows,
                        w_rows,
                        w,
                        f,
                        chunk,
                    );
                });
            } else {
                val.fill(0.0);
                par_chunks_mut(&par, &mut val, chunk_rows * f, |ci, chunk| {
                    let c0 = ci * chunk_rows;
                    let rows = chunk.len() / f;
                    kernel.t_matmul(data, w_rows, node_rows, c0, rows, w, f, chunk);
                });
            }
        } else {
            let pv: &[f64] = &self.nodes[parent].value;
            debug_assert_eq!(pv.len(), p_rows * f);
            if is_left {
                // Each output row folds one contiguous parent block against
                // the sibling weights — one fresh accumulator per element,
                // reduction ascending, overwrite semantics.
                par_chunks_mut(&par, &mut val, chunk_rows * f, |ci, chunk| {
                    let b0 = ci * chunk_rows;
                    for (local, out_row) in chunk.chunks_mut(f).enumerate() {
                        let b = b0 + local;
                        kernel.partial_fold(
                            &pv[b * w_rows * f..(b + 1) * w_rows * f],
                            w,
                            f,
                            out_row,
                        );
                    }
                });
            } else {
                // Right child: out[j] = Σ_i pv[i·n₂ + j] ⊛ w[i], with the
                // parent-block index i swept ascending by every worker over
                // its own output band — bitwise equal to the fold by the
                // kernel contract, contiguous streaming either way.
                val.fill(0.0);
                par_chunks_mut(&par, &mut val, chunk_rows * f, |ci, chunk| {
                    let j0 = ci * chunk_rows;
                    let band = chunk.len() / f;
                    for i in 0..w_rows {
                        let y = &pv[(i * node_rows + j0) * f..(i * node_rows + j0 + band) * f];
                        kernel.partial_axpy(y, &w[i * f..(i + 1) * f], f, chunk);
                    }
                });
            }
        }

        // 2 flops per parent element per rank column, plus the sibling KR
        // materialisation (one multiply per produced element).
        self.flops += 2 * (p_rows * f) as u64;
        if s_hi - s_lo > 1 {
            self.flops += (w_rows * f) as u64;
        }

        self.kr_scratch = scratch;
        let node = &mut self.nodes[idx];
        node.value = val;
        node.valid = true;
        Ok(())
    }
}

/// Recursively appends the subtree over `[lo, hi)`, returning its root's
/// index.
fn build(
    nodes: &mut Vec<Node>,
    leaf_of_mode: &mut [usize],
    dims: &[usize],
    lo: usize,
    hi: usize,
    parent: usize,
) -> usize {
    let idx = nodes.len();
    nodes.push(Node {
        lo,
        hi,
        parent,
        left: NO_NODE,
        right: NO_NODE,
        rows: dims[lo..hi].iter().product(),
        valid: false,
        value: Vec::new(),
    });
    if hi - lo == 1 {
        leaf_of_mode[lo] = idx;
    } else {
        let mid = lo + (hi - lo) / 2;
        let left = build(nodes, leaf_of_mode, dims, lo, mid, idx);
        let right = build(nodes, leaf_of_mode, dims, mid, hi, idx);
        nodes[idx].left = left;
        nodes[idx].right = right;
    }
    idx
}

/// The model flops of one full MTTKRP sweep evaluated mode by mode
/// (`2·|X|·F` per mode) — the numerator of the e2e benchmark's
/// `cp.mttkrp_gflops` and the yardstick a tree sweep's
/// [`DimTree::take_flops`] is compared against.
pub fn per_mode_sweep_flops(dims: &[usize], rank: usize) -> u64 {
    let elems: u64 = dims.iter().map(|&d| d as u64).product();
    2 * elems * rank as u64 * dims.len() as u64
}

/// A [`DimTree`]'s steady-state sweep as a cyclic
/// [`tpcp_schedule::AccessSequence`]: step `pos` describes the factor
/// units the mode-`(pos % N)` MTTKRP reads, so a phase-2 prefetcher can
/// hint the leaves the next mode steps will consume.
#[derive(Clone, Debug)]
pub struct SweepSequence {
    steps: Vec<Vec<UnitId>>,
}

impl SweepSequence {
    /// Steps per sweep (the tensor order `N`).
    pub fn cycle_len(&self) -> usize {
        self.steps.len()
    }
}

impl AccessSequence for SweepSequence {
    fn units_at(&self, pos: u64) -> Vec<UnitId> {
        self.steps[(pos % self.steps.len() as u64) as usize].clone()
    }

    fn for_each_unit_at(&self, pos: u64, f: &mut dyn FnMut(UnitId)) {
        for &unit in &self.steps[(pos % self.steps.len() as u64) as usize] {
            f(unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttkrp::reference_mttkrp;
    use rand::SeedableRng;
    use tpcp_linalg::ReferenceKernel;
    use tpcp_tensor::random_factor;

    fn fixtures(dims: &[usize], f: usize, seed: u64) -> (DenseTensor, Vec<Mat>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = tpcp_tensor::random_dense(dims, &mut rng);
        let factors = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        (t, factors)
    }

    #[test]
    fn tree_shape_is_binary_over_contiguous_ranges() {
        for order in 2..=6 {
            let dims: Vec<usize> = (0..order).map(|i| 2 + i).collect();
            let tree = DimTree::new(&dims, 2).unwrap();
            assert_eq!(tree.nodes.len(), 2 * order - 1);
            assert_eq!(tree.nodes[0].lo, 0);
            assert_eq!(tree.nodes[0].hi, order);
            for (i, node) in tree.nodes.iter().enumerate() {
                if node.left == NO_NODE {
                    assert_eq!(node.hi - node.lo, 1, "leaves are single modes");
                    assert_eq!(tree.leaf_of_mode[node.lo], i);
                } else {
                    let (l, r) = (&tree.nodes[node.left], &tree.nodes[node.right]);
                    assert_eq!((l.lo, r.hi), (node.lo, node.hi));
                    assert_eq!(l.hi, r.lo, "children partition the range");
                    assert_eq!(node.rows, l.rows * r.rows);
                }
            }
        }
    }

    #[test]
    fn rejects_order_one_and_zero_rank() {
        assert!(DimTree::new(&[4], 2).is_none());
        assert!(DimTree::new(&[4, 4, 4], 0).is_none());
        assert!(DimTree::new(&[4, 4], 1).is_some());
    }

    #[test]
    fn matches_the_materialised_reference_on_all_modes_and_orders() {
        for dims in [
            vec![4, 5],
            vec![4, 5, 3],
            vec![3, 4, 2, 5],
            vec![2, 3, 2, 3, 2],
        ] {
            let f = 3;
            let (t, factors) = fixtures(&dims, f, 17);
            let refs: Vec<&Mat> = factors.iter().collect();
            let mut tree = DimTree::new(&dims, f).unwrap();
            let par = ParConfig::auto();
            for mode in 0..dims.len() {
                let fast = tree.mttkrp(&t, &refs, mode, &par).unwrap();
                let slow = reference_mttkrp(&t, &refs, mode);
                let scale = slow.fro_norm().max(1.0);
                assert!(
                    fast.max_abs_diff(&slow).unwrap() / scale < 1e-12,
                    "dims {dims:?} mode {mode}"
                );
            }
        }
    }

    #[test]
    fn invalidation_tracks_factor_updates() {
        let dims = [3usize, 4, 2, 3];
        let f = 2;
        let (t, mut factors) = fixtures(&dims, f, 23);
        let mut tree = DimTree::new(&dims, f).unwrap();
        let par = ParConfig::serial();

        // Simulate one ALS sweep: answer mode n, then replace factor n.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for mode in 0..dims.len() {
            let refs: Vec<&Mat> = factors.iter().collect();
            let from_tree = tree.mttkrp(&t, &refs, mode, &par).unwrap();
            let direct = reference_mttkrp(&t, &refs, mode);
            let scale = direct.fro_norm().max(1.0);
            assert!(
                from_tree.max_abs_diff(&direct).unwrap() / scale < 1e-12,
                "stale value served for mode {mode}"
            );
            factors[mode] = random_factor(dims[mode], f, &mut rng);
            tree.factor_updated(mode);
            // Nodes containing `mode` stay valid; the updated leaf does too.
            for node in &tree.nodes[1..] {
                if node.valid {
                    assert!(
                        node.contains(mode),
                        "[{}, {}) must be stale",
                        node.lo,
                        node.hi
                    );
                }
            }
        }

        tree.invalidate_all();
        assert!(tree.nodes[1..].iter().all(|n| !n.valid));
        assert!(
            tree.nodes[0].valid,
            "the root (the tensor) never goes stale"
        );
    }

    #[test]
    fn steady_state_sweep_spends_fewer_flops_than_per_mode() {
        let dims = [6usize, 5, 4, 3];
        let f = 4;
        let (t, factors) = fixtures(&dims, f, 31);
        let refs: Vec<&Mat> = factors.iter().collect();
        let mut tree = DimTree::new(&dims, f).unwrap();
        let par = ParConfig::serial();

        // Warm-up sweep, then measure a steady-state sweep.
        for sweep in 0..2 {
            tree.take_flops();
            for mode in 0..dims.len() {
                tree.mttkrp(&t, &refs, mode, &par).unwrap();
                tree.factor_updated(mode);
            }
            tree.invalidate_all(); // what the ALS rebalance forces
            if sweep == 1 {
                let spent = tree.take_flops();
                let baseline = per_mode_sweep_flops(&dims, f);
                assert!(
                    (baseline as f64) / (spent as f64) > 1.3,
                    "steady-state ratio {:.2} below the 1.3× floor",
                    baseline as f64 / spent as f64
                );
            }
        }
    }

    #[test]
    fn access_sequence_is_cyclic_and_covers_the_sweep() {
        let dims = [3usize, 3, 3, 3];
        let tree = DimTree::new(&dims, 2).unwrap();
        let seq = tree.access_sequence();
        assert_eq!(seq.cycle_len(), 4);
        // Steady state for the balanced order-4 tree: mode 0 rebuilds the
        // prefix node (weights = modes 2,3) and its leaf (weight = mode 1);
        // mode 1 reuses the prefix node (weight = mode 0 only).
        assert_eq!(
            seq.units_at(0),
            vec![UnitId::new(1, 0), UnitId::new(2, 0), UnitId::new(3, 0)]
        );
        assert_eq!(seq.units_at(1), vec![UnitId::new(0, 0)]);
        // Cyclic: one full sweep later the same step repeats.
        assert_eq!(seq.units_at(5), seq.units_at(1));
        let mut visited = Vec::new();
        seq.for_each_unit_at(2, &mut |u| visited.push(u));
        assert_eq!(visited, seq.units_at(2));
    }

    #[test]
    fn shape_validation() {
        let (t, factors) = fixtures(&[3, 3, 3], 2, 5);
        let refs: Vec<&Mat> = factors.iter().collect();
        let par = ParConfig::serial();
        // Wrong-rank tree.
        let mut tree = DimTree::new(&[3, 3, 3], 4).unwrap();
        assert!(tree.mttkrp(&t, &refs, 0, &par).is_err());
        // Wrong-shape tensor.
        let mut tree = DimTree::new(&[3, 3, 4], 2).unwrap();
        assert!(tree.mttkrp(&t, &refs, 0, &par).is_err());
    }

    #[test]
    fn thread_count_is_bitwise_neutral() {
        let dims = [7usize, 4, 5, 3];
        let f = 5;
        let (t, factors) = fixtures(&dims, f, 41);
        let refs: Vec<&Mat> = factors.iter().collect();
        let mut baseline: Option<Vec<Vec<u64>>> = None;
        for kernel in [&ReferenceKernel as &dyn Kernel, &TiledKernel] {
            for threads in [1usize, 2, 4, 7] {
                let par = ParConfig::with_threads(threads);
                let mut tree = DimTree::new(&dims, f).unwrap();
                let bits: Vec<Vec<u64>> = (0..dims.len())
                    .map(|mode| {
                        tree.mttkrp_on(&t, &refs, mode, &par, kernel)
                            .unwrap()
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect();
                match &baseline {
                    None => baseline = Some(bits),
                    Some(b) => assert_eq!(b, &bits, "{} at {threads} threads", kernel.label()),
                }
            }
        }
    }
}
