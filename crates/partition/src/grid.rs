//! The partitioning pattern `K` and block/slab index arithmetic.

/// A grid partitioning of an N-mode tensor.
///
/// Mode `i` (of size `dims[i]`) is split into `parts[i]` contiguous
/// partitions. When `parts[i]` does not divide `dims[i]`, the first
/// `dims[i] % parts[i]` partitions receive one extra row, so partition
/// sizes differ by at most one (the paper assumes exact divisibility
/// "without loss of generality"; we support the general case).
///
/// Blocks are addressed either by coordinates (one partition index per
/// mode) or by a row-major linear id in `0..num_blocks()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grid {
    dims: Vec<usize>,
    parts: Vec<usize>,
}

impl Grid {
    /// Creates a grid for a tensor of shape `dims`, splitting mode `i` into
    /// `parts[i]` partitions.
    ///
    /// # Panics
    /// Panics if lengths differ, any dimension/partition count is zero, or
    /// some mode has more partitions than rows.
    pub fn new(dims: &[usize], parts: &[usize]) -> Self {
        assert_eq!(dims.len(), parts.len(), "dims/parts length mismatch");
        assert!(!dims.is_empty(), "grid needs at least one mode");
        for (&d, &p) in dims.iter().zip(parts) {
            assert!(d > 0 && p > 0, "zero dimension or partition count");
            assert!(p <= d, "mode of size {d} cannot host {p} partitions");
        }
        Grid {
            dims: dims.to_vec(),
            parts: parts.to_vec(),
        }
    }

    /// Uniform helper: `p` partitions on every mode (the paper's `p×p×p`).
    pub fn uniform(dims: &[usize], p: usize) -> Self {
        Grid::new(dims, &vec![p; dims.len()])
    }

    /// Tensor dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-mode partition counts `K₁, …, K_N`.
    #[inline]
    pub fn parts(&self) -> &[usize] {
        &self.parts
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total number of blocks `|K| = Π Kᵢ`.
    pub fn num_blocks(&self) -> usize {
        self.parts.iter().product()
    }

    /// Total number of mode-partition pairs `Σ Kᵢ` — the number of
    /// swappable data-access units (paper Def. 4) and the length of a
    /// virtual iteration (paper Def. 3).
    pub fn num_units(&self) -> usize {
        self.parts.iter().sum()
    }

    /// Half-open row range of partition `k` on mode `mode`.
    ///
    /// # Panics
    /// Panics when `mode` or `k` is out of range.
    pub fn part_range(&self, mode: usize, k: usize) -> std::ops::Range<usize> {
        assert!(mode < self.order(), "mode out of range");
        let d = self.dims[mode];
        let p = self.parts[mode];
        assert!(k < p, "partition index out of range");
        let base = d / p;
        let extra = d % p;
        // Partitions 0..extra have size base+1; the rest have size base.
        let start = if k < extra {
            k * (base + 1)
        } else {
            extra * (base + 1) + (k - extra) * base
        };
        let len = if k < extra { base + 1 } else { base };
        start..start + len
    }

    /// Number of rows in partition `k` of `mode`.
    pub fn part_len(&self, mode: usize, k: usize) -> usize {
        let r = self.part_range(mode, k);
        r.end - r.start
    }

    /// The dense ranges covered by block `coords` (one per mode).
    pub fn block_ranges(&self, coords: &[usize]) -> Vec<std::ops::Range<usize>> {
        assert_eq!(coords.len(), self.order());
        coords
            .iter()
            .enumerate()
            .map(|(m, &k)| self.part_range(m, k))
            .collect()
    }

    /// Dimensions of the block at `coords`.
    pub fn block_dims(&self, coords: &[usize]) -> Vec<usize> {
        self.block_ranges(coords)
            .into_iter()
            .map(|r| r.end - r.start)
            .collect()
    }

    /// Row-major linear id of block `coords`.
    pub fn block_linear(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.order());
        let mut lin = 0usize;
        for (&p, &c) in self.parts.iter().zip(coords) {
            debug_assert!(c < p);
            lin = lin * p + c;
        }
        lin
    }

    /// Inverse of [`block_linear`].
    pub fn block_coords(&self, lin: usize) -> Vec<usize> {
        let mut coords = Vec::new();
        self.block_coords_into(lin, &mut coords);
        coords
    }

    /// [`block_coords`](Self::block_coords) into a reused buffer (per-block
    /// loops of the refinement call this once per block per step).
    pub fn block_coords_into(&self, mut lin: usize, coords: &mut Vec<usize>) {
        coords.clear();
        coords.resize(self.order(), 0);
        for i in (0..self.order()).rev() {
            coords[i] = lin % self.parts[i];
            lin /= self.parts[i];
        }
        debug_assert_eq!(lin, 0);
    }

    /// Iterates all block coordinate vectors in row-major order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        (0..self.num_blocks()).map(|lin| self.block_coords(lin))
    }

    /// Iterates the linear ids of the *slab* `[∗,…,∗,k,∗,…,∗]`: every block
    /// whose mode-`mode` partition equals `k`.
    ///
    /// The slab is exactly the set of blocks whose mode-`mode` sub-factors
    /// make up the data unit `⟨mode, k⟩` of paper Def. 4, and the set the
    /// update-rule sums `T`, `S` range over.
    pub fn slab(&self, mode: usize, k: usize) -> SlabIter<'_> {
        assert!(
            mode < self.order() && k < self.parts[mode],
            "slab out of range"
        );
        let others: usize = self
            .parts
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &p)| p)
            .product();
        SlabIter {
            grid: self,
            mode,
            k,
            next: 0,
            remaining: others,
        }
    }

    /// Number of blocks in any mode-`mode` slab: `Π_{j≠mode} Kⱼ`.
    pub fn slab_len(&self, mode: usize) -> usize {
        self.parts
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &p)| p)
            .product()
    }
}

/// Iterator over the linear block ids of a slab (see [`Grid::slab`]).
pub struct SlabIter<'a> {
    grid: &'a Grid,
    mode: usize,
    k: usize,
    next: usize,
    remaining: usize,
}

impl Iterator for SlabIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        // Enumerate the "other modes" coordinates row-major and inject k.
        let mut rem = self.next;
        self.next += 1;
        self.remaining -= 1;
        let order = self.grid.order();
        let mut coords = vec![0usize; order];
        for m in (0..order).rev() {
            if m == self.mode {
                coords[m] = self.k;
            } else {
                coords[m] = rem % self.grid.parts[m];
                rem /= self.grid.parts[m];
            }
        }
        Some(self.grid.block_linear(&coords))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SlabIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_counts() {
        let g = Grid::uniform(&[8, 8, 8], 2);
        assert_eq!(g.num_blocks(), 8);
        assert_eq!(g.num_units(), 6);
        assert_eq!(g.slab_len(0), 4);
    }

    #[test]
    fn part_ranges_even() {
        let g = Grid::new(&[8], &[4]);
        for k in 0..4 {
            assert_eq!(g.part_range(0, k), 2 * k..2 * k + 2);
        }
    }

    #[test]
    fn part_ranges_uneven_cover_exactly() {
        let g = Grid::new(&[10], &[4]); // sizes 3,3,2,2
        assert_eq!(g.part_range(0, 0), 0..3);
        assert_eq!(g.part_range(0, 1), 3..6);
        assert_eq!(g.part_range(0, 2), 6..8);
        assert_eq!(g.part_range(0, 3), 8..10);
        let total: usize = (0..4).map(|k| g.part_len(0, k)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn block_linear_roundtrip() {
        let g = Grid::new(&[6, 8, 4], &[3, 2, 2]);
        for lin in 0..g.num_blocks() {
            let c = g.block_coords(lin);
            assert_eq!(g.block_linear(&c), lin);
        }
    }

    #[test]
    fn block_dims_match_ranges() {
        let g = Grid::new(&[5, 4], &[2, 2]);
        assert_eq!(g.block_dims(&[0, 0]), vec![3, 2]);
        assert_eq!(g.block_dims(&[1, 1]), vec![2, 2]);
        assert_eq!(g.block_ranges(&[1, 0]), vec![3..5, 0..2]);
    }

    #[test]
    fn slab_contains_exactly_matching_blocks() {
        let g = Grid::uniform(&[8, 8, 8], 2);
        let slab: Vec<usize> = g.slab(1, 1).collect();
        assert_eq!(slab.len(), 4);
        for lin in 0..g.num_blocks() {
            let c = g.block_coords(lin);
            assert_eq!(slab.contains(&lin), c[1] == 1, "block {c:?}");
        }
    }

    #[test]
    fn slabs_partition_the_grid() {
        let g = Grid::new(&[9, 6, 8], &[3, 2, 4]);
        for mode in 0..3 {
            let mut seen = vec![false; g.num_blocks()];
            for k in 0..g.parts()[mode] {
                for lin in g.slab(mode, k) {
                    assert!(!seen[lin], "block visited twice");
                    seen[lin] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "mode {mode} slabs incomplete");
        }
    }

    #[test]
    fn slab_iter_len() {
        let g = Grid::uniform(&[8, 8, 8], 4);
        let it = g.slab(2, 3);
        assert_eq!(it.len(), 16);
        assert_eq!(it.count(), 16);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn too_many_partitions_panics() {
        let _ = Grid::new(&[3], &[4]);
    }

    #[test]
    fn iter_blocks_row_major() {
        let g = Grid::new(&[4, 4], &[2, 2]);
        let blocks: Vec<Vec<usize>> = g.iter_blocks().collect();
        assert_eq!(blocks, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }
}
