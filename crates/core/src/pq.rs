//! The RAM-resident `P`/`Q` caches of the refinement phase.
//!
//! For every block `l` and mode `h` the paper maintains
//! `P(h)_l = U(h)_lᵀ A(h)(l_h)` and `Q(h)_l = A(h)(l_h)ᵀ A(h)(l_h)` — `F×F`
//! matrices revised *in place* after each sub-factor update (Algorithm 1/2,
//! Observation #2). `Q(h)_l` depends on the block only through its mode-`h`
//! partition, so it is stored per *unit* rather than per block.
//!
//! These caches are small (`|K|·N·F²` + `ΣKᵢ·F²` doubles) relative to the
//! swappable units and are excluded from the buffer budget, matching the
//! paper's memory accounting (§IV-A counts only `A` and `U` data).

use crate::{Result, TwoPcpError};
use std::time::Instant;
use tpcp_linalg::{hadamard_all, hadamard_all_into, Mat};
use tpcp_partition::Grid;
use tpcp_schedule::UnitId;

/// Hotness counters for the `Q`-Hadamard fold of the refine loop
/// (ROADMAP item 3 asks whether `q_hadamard` is ever hot enough to
/// justify a phase-2 dimension tree; these counters answer it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QHadamardStats {
    /// Calls to [`PqCache::q_hadamard_excluding_cached`].
    pub calls: u64,
    /// Wall time spent inside those calls, in nanoseconds.
    pub ns: u64,
}

impl QHadamardStats {
    /// Total fold time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Reusable fold-prefix scratch for
/// [`PqCache::q_hadamard_excluding_cached`].
///
/// The cached partials are only valid while the `Q` entries they folded
/// stay untouched: callers must [`QHadamardScratch::clear`] the scratch
/// after any `set_q` (the per-unit update loop clears it once per unit,
/// before scanning the unit's blocks).
#[derive(Default)]
pub struct QHadamardScratch {
    /// Linear unit indices of the cached fold, in ascending-mode order.
    keys: Vec<usize>,
    /// `partials[i]` = Hadamard fold of `q[keys[0..=i]]` for `i <
    /// keys.len()`; entries past that are spare buffers kept for reuse.
    partials: Vec<Mat>,
    /// What an empty fold yields (`hadamard_all(&[])`).
    empty: Mat,
    /// Lifetime call/time counters (survive [`QHadamardScratch::clear`]).
    stats: QHadamardStats,
}

impl QHadamardScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every cached prefix (required whenever a `Q` entry changes).
    /// Hotness counters are *not* reset — they tally the whole run.
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Accumulated call/time counters.
    pub fn stats(&self) -> QHadamardStats {
        self.stats
    }
}

/// The `P`/`Q` cache (see module docs).
pub struct PqCache {
    order: usize,
    rank: usize,
    /// `p[block][mode]` = `U(mode)_blockᵀ · A(mode)(block_mode)`.
    p: Vec<Vec<Mat>>,
    /// `q[unit.linear]` = `A(i)(kᵢ)ᵀ · A(i)(kᵢ)`.
    q: Vec<Mat>,
}

impl PqCache {
    /// An all-zero cache for `grid` at rank `rank`.
    pub fn new(grid: &Grid, rank: usize) -> Self {
        PqCache {
            order: grid.order(),
            rank,
            p: (0..grid.num_blocks())
                .map(|_| (0..grid.order()).map(|_| Mat::zeros(rank, rank)).collect())
                .collect(),
            q: (0..grid.num_units())
                .map(|_| Mat::zeros(rank, rank))
                .collect(),
        }
    }

    /// Decomposition rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `P(mode)_block`.
    pub fn p(&self, block: usize, mode: usize) -> &Mat {
        &self.p[block][mode]
    }

    /// `P(mode)_block`, to be refreshed in place.
    pub fn p_mut(&mut self, block: usize, mode: usize) -> &mut Mat {
        &mut self.p[block][mode]
    }

    /// Replaces `P(mode)_block`.
    pub fn set_p(&mut self, block: usize, mode: usize, value: Mat) {
        debug_assert_eq!(value.shape(), (self.rank, self.rank));
        self.p[block][mode] = value;
    }

    /// `Q` of the unit `⟨mode, part⟩`.
    pub fn q(&self, grid: &Grid, unit: UnitId) -> &Mat {
        &self.q[unit.linear(grid)]
    }

    /// `Q` of the unit, to be refreshed in place.
    pub fn q_mut(&mut self, grid: &Grid, unit: UnitId) -> &mut Mat {
        &mut self.q[unit.linear(grid)]
    }

    /// Replaces `Q` of the unit.
    pub fn set_q(&mut self, grid: &Grid, unit: UnitId, value: Mat) {
        debug_assert_eq!(value.shape(), (self.rank, self.rank));
        self.q[unit.linear(grid)] = value;
    }

    /// Hadamard product of `P(h)_block` over all modes `h ≠ mode`
    /// (the paper's `P_l ⊘ (U(i)ᵀ_l A(i)(kᵢ))`, computed without the
    /// numerically fragile element-wise division).
    ///
    /// # Errors
    /// Propagates shape mismatches (impossible for a well-formed cache).
    pub fn p_hadamard_excluding(&self, block: usize, mode: usize) -> Result<Mat> {
        let mats: Vec<&Mat> = (0..self.order)
            .filter(|&h| h != mode)
            .map(|h| &self.p[block][h])
            .collect();
        hadamard_all(&mats).map_err(TwoPcpError::from)
    }

    /// [`PqCache::p_hadamard_excluding`] into a reused `out`: the same
    /// left fold over the ascending modes, hence the same bits.
    ///
    /// # Errors
    /// Propagates shape mismatches (impossible for a well-formed cache).
    pub fn p_hadamard_excluding_into(
        &self,
        block: usize,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        let mats = (0..self.order)
            .filter(|&h| h != mode)
            .map(|h| &self.p[block][h]);
        Ok(hadamard_all_into(mats, out)?)
    }

    /// Hadamard product of `Q` over all modes `h ≠ mode` for block
    /// `coords` (the summand of `S(i)(kᵢ)`).
    ///
    /// # Errors
    /// Propagates shape mismatches (impossible for a well-formed cache).
    pub fn q_hadamard_excluding(&self, grid: &Grid, coords: &[usize], mode: usize) -> Result<Mat> {
        let mats: Vec<&Mat> = (0..self.order)
            .filter(|&h| h != mode)
            .map(|h| &self.q[UnitId::new(h, coords[h]).linear(grid)])
            .collect();
        hadamard_all(&mats).map_err(TwoPcpError::from)
    }

    /// [`PqCache::q_hadamard_excluding`] with fold-prefix reuse:
    /// consecutive blocks of one sub-factor update walk the grid with the
    /// trailing coordinates varying fastest, so the ascending-mode fold
    /// over their `Q` operands shares a long leading prefix from block to
    /// block. The scratch keeps each fold intermediate keyed by its unit;
    /// a call re-folds only past the longest common prefix.
    ///
    /// Bitwise-identical to the uncached variant: `hadamard_all` is a
    /// left fold over the same ascending operand list, and the cached
    /// partials *are* that fold's intermediates. The result is borrowed
    /// from the scratch, whose buffers are reused from call to call.
    ///
    /// # Errors
    /// Propagates shape mismatches (impossible for a well-formed cache).
    pub fn q_hadamard_excluding_cached<'s>(
        &self,
        grid: &Grid,
        coords: &[usize],
        mode: usize,
        scratch: &'s mut QHadamardScratch,
    ) -> Result<&'s Mat> {
        let start = Instant::now();
        let mut folded = 0;
        for h in (0..self.order).filter(|&h| h != mode) {
            let key = UnitId::new(h, coords[h]).linear(grid);
            if scratch.keys.get(folded) != Some(&key) {
                // Past the common prefix: everything from here is re-folded.
                scratch.keys.truncate(folded);
                if scratch.partials.len() == folded {
                    scratch.partials.push(Mat::default());
                }
                let (done, rest) = scratch.partials.split_at_mut(folded);
                match done.last() {
                    None => rest[0].copy_from(&self.q[key]),
                    Some(prev) => {
                        rest[0].copy_from(prev);
                        rest[0].hadamard_assign(&self.q[key])?;
                    }
                }
                scratch.keys.push(key);
            }
            folded += 1;
        }
        scratch.keys.truncate(folded);
        scratch.stats.calls += 1;
        scratch.stats.ns += start.elapsed().as_nanos() as u64;
        // An order-1 grid excludes every mode; match `hadamard_all(&[])`.
        Ok(match folded {
            0 => &scratch.empty,
            n => &scratch.partials[n - 1],
        })
    }

    /// Surrogate fit of the current global factors against the Phase-1
    /// reconstruction (see crate docs of [`crate::phase2`]):
    ///
    /// `‖X̂₁ − X̂‖² = Σ_l ( ‖X̂₁_l‖² − 2·1ᵀ(⊛_h P(h)_l)1 + 1ᵀ(⊛_h Q(h)_l)1 )`
    ///
    /// computed entirely from the caches — zero I/O.
    ///
    /// # Errors
    /// Propagates cache-shape mismatches (impossible when well-formed).
    pub fn surrogate_fit(&self, grid: &Grid, u_norm_sq: &[f64]) -> Result<f64> {
        debug_assert_eq!(u_norm_sq.len(), grid.num_blocks());
        let mut err_sq = 0.0;
        let mut ref_sq = 0.0;
        // One fold buffer and one coordinate buffer for all blocks.
        let mut had = Mat::default();
        let mut coords = Vec::new();
        for (block, (p, &norm_sq)) in self.p.iter().zip(u_norm_sq).enumerate() {
            grid.block_coords_into(block, &mut coords);
            hadamard_all_into(p.iter(), &mut had)?;
            let inner = had.sum();
            hadamard_all_into(
                (0..self.order).map(|h| &self.q[UnitId::new(h, coords[h]).linear(grid)]),
                &mut had,
            )?;
            let model_sq = had.sum();
            err_sq += (norm_sq - 2.0 * inner + model_sq).max(0.0);
            ref_sq += norm_sq;
        }
        if ref_sq <= 0.0 {
            return Ok(1.0);
        }
        Ok(1.0 - (err_sq.sqrt() / ref_sq.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid22() -> Grid {
        Grid::uniform(&[4, 4], 2)
    }

    #[test]
    fn new_cache_is_zeroed() {
        let g = grid22();
        let pq = PqCache::new(&g, 3);
        assert_eq!(pq.rank(), 3);
        assert_eq!(pq.p(0, 0).shape(), (3, 3));
        assert_eq!(pq.q(&g, UnitId::new(1, 1)).shape(), (3, 3));
        assert!(pq.p(3, 1).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn set_and_get_roundtrip() {
        let g = grid22();
        let mut pq = PqCache::new(&g, 2);
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        pq.set_p(2, 1, m.clone());
        assert_eq!(pq.p(2, 1), &m);
        pq.set_q(&g, UnitId::new(1, 0), m.clone());
        assert_eq!(pq.q(&g, UnitId::new(1, 0)), &m);
    }

    #[test]
    fn hadamard_excluding_skips_the_mode() {
        let g = grid22();
        let mut pq = PqCache::new(&g, 1);
        pq.set_p(0, 0, Mat::from_rows(&[&[2.0]]));
        pq.set_p(0, 1, Mat::from_rows(&[&[5.0]]));
        // Excluding mode 0 leaves only mode 1's P.
        assert_eq!(pq.p_hadamard_excluding(0, 0).unwrap().get(0, 0), 5.0);
        assert_eq!(pq.p_hadamard_excluding(0, 1).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn q_hadamard_uses_block_coords() {
        let g = grid22();
        let mut pq = PqCache::new(&g, 1);
        pq.set_q(&g, UnitId::new(0, 1), Mat::from_rows(&[&[3.0]]));
        pq.set_q(&g, UnitId::new(1, 0), Mat::from_rows(&[&[7.0]]));
        // Block (1, 0): excluding mode 1 leaves Q of unit <0,1> = 3.
        let got = pq.q_hadamard_excluding(&g, &[1, 0], 1).unwrap();
        assert_eq!(got.get(0, 0), 3.0);
        // Excluding mode 0 leaves Q of unit <1,0> = 7.
        let got = pq.q_hadamard_excluding(&g, &[1, 0], 0).unwrap();
        assert_eq!(got.get(0, 0), 7.0);
    }

    #[test]
    fn cached_q_hadamard_matches_uncached_bitwise() {
        let g = Grid::uniform(&[4, 4, 4], 2);
        let mut pq = PqCache::new(&g, 2);
        for u in 0..g.num_units() {
            let v = 0.3 + 0.17 * u as f64;
            pq.set_q(
                &g,
                UnitId::from_linear(&g, u),
                Mat::from_rows(&[&[v, v * 1.1], &[v * 0.9, v * v]]),
            );
        }
        let mut scratch = QHadamardScratch::new();
        // Walk blocks in linear order (trailing coordinate fastest — the
        // refine loop's order) and check every mode against the uncached
        // fold, bit for bit.
        for block in 0..g.num_blocks() {
            let coords = g.block_coords(block);
            for mode in 0..3 {
                let slow = pq.q_hadamard_excluding(&g, &coords, mode).unwrap();
                let fast = pq
                    .q_hadamard_excluding_cached(&g, &coords, mode, &mut scratch)
                    .unwrap();
                let slow_bits: Vec<u64> = slow.as_slice().iter().map(|v| v.to_bits()).collect();
                let fast_bits: Vec<u64> = fast.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(slow_bits, fast_bits, "block {block} mode {mode}");
            }
        }
    }

    #[test]
    fn q_hadamard_scratch_clear_forgets_stale_partials() {
        let g = grid22();
        let mut pq = PqCache::new(&g, 1);
        pq.set_q(&g, UnitId::new(0, 1), Mat::from_rows(&[&[3.0]]));
        pq.set_q(&g, UnitId::new(1, 0), Mat::from_rows(&[&[7.0]]));
        let mut scratch = QHadamardScratch::new();
        let got = pq
            .q_hadamard_excluding_cached(&g, &[1, 0], 1, &mut scratch)
            .unwrap();
        assert_eq!(got.get(0, 0), 3.0);
        // Mutate the folded Q entry; a cleared scratch must re-fold.
        pq.set_q(&g, UnitId::new(0, 1), Mat::from_rows(&[&[4.0]]));
        scratch.clear();
        let got = pq
            .q_hadamard_excluding_cached(&g, &[1, 0], 1, &mut scratch)
            .unwrap();
        assert_eq!(got.get(0, 0), 4.0);
    }

    #[test]
    fn surrogate_fit_perfect_alignment() {
        // Rank 1, every block: P = Q = u_norm contribution s.t. error = 0.
        let g = grid22();
        let mut pq = PqCache::new(&g, 1);
        for b in 0..g.num_blocks() {
            for m in 0..2 {
                pq.set_p(b, m, Mat::from_rows(&[&[2.0]]));
            }
        }
        for u in 0..g.num_units() {
            pq.set_q(&g, UnitId::from_linear(&g, u), Mat::from_rows(&[&[2.0]]));
        }
        // Per block: inner = 4, model_sq = 4 ⇒ choose u_norm_sq = 4.
        let fit = pq.surrogate_fit(&g, &[4.0; 4]).unwrap();
        assert!((fit - 1.0).abs() < 1e-12);
    }

    #[test]
    fn surrogate_fit_detects_error() {
        let g = grid22();
        let pq = PqCache::new(&g, 1); // all-zero model
        let fit = pq.surrogate_fit(&g, &[1.0; 4]).unwrap();
        // err² = Σ u_norm_sq ⇒ fit = 0.
        assert!(fit.abs() < 1e-12);
    }

    #[test]
    fn surrogate_fit_zero_reference() {
        let g = grid22();
        let pq = PqCache::new(&g, 1);
        assert_eq!(pq.surrogate_fit(&g, &[0.0; 4]).unwrap(), 1.0);
    }
}
