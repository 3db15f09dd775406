//! The refinement update rule (paper eq. 3).
//!
//! For mode `i`, partition `kᵢ`:
//!
//! ```text
//! T(i)(kᵢ) = Σ_{l: lᵢ=kᵢ}  U(i)_l · ⊛_{h≠i} P(h)_l
//! S(i)(kᵢ) = Σ_{l: lᵢ=kᵢ}  ⊛_{h≠i} Q(h)_l
//! A(i)(kᵢ) ← T(i)(kᵢ) · S(i)(kᵢ)⁻¹
//! ```
//!
//! followed by the in-place refresh of `P(i)_l` (for every block `l` in the
//! slab) and `Q(i)(kᵢ)` — the paper's Observation #2, which is what makes
//! the block-centric scheduling of Algorithm 2 possible without extra I/O.

use crate::pq::{PqCache, QHadamardScratch, QHadamardStats};
use crate::Result;
use tpcp_linalg::{solve, Mat};
use tpcp_par::ParConfig;
use tpcp_partition::Grid;
use tpcp_schedule::UnitId;
use tpcp_storage::UnitData;

/// The workspace of one refinement run's sub-factor updates: every
/// temporary of [`compute_sub_factor_update`] and
/// [`commit_sub_factor_update`], shaped by the first update and reused by
/// all later ones, so a step allocates nothing.
///
/// It also carries the pending `A(i)(kᵢ)` from `compute` to `commit`, and
/// the `Q`-Hadamard fold prefixes with their hotness counters.
#[derive(Default)]
pub struct UpdateScratch {
    q_fold: QHadamardScratch,
    /// `T(i)(kᵢ)`, overwritten by `T·S⁻¹` — the pending `A(i)(kᵢ)`.
    a_new: Mat,
    s: Mat,
    p_had: Mat,
    contrib: Mat,
    coords: Vec<usize>,
    solve: solve::GramSolveScratch,
}

impl UpdateScratch {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated `Q`-Hadamard fold counters of every update so far.
    pub fn q_hadamard_stats(&self) -> QHadamardStats {
        self.q_fold.stats()
    }
}

/// Computes the updated sub-factor `A(i)(kᵢ) = T·S⁻¹` from the unit's slab
/// sub-factors and the `P`/`Q` caches, with the `U·(⊛P)` products on the
/// shared thread budget (each block's product fans out on its own flop
/// count, exactly as a stand-alone [`Mat::matmul_kernel`] would). The
/// caches are only read; the result is left in `scratch` for
/// [`commit_sub_factor_update`].
///
/// The `Q`-Hadamard fold prefixes shared by the slab's consecutive blocks
/// are dropped on entry, so any `Q` refresh between calls is safe, and the
/// result is bitwise-identical to folding from scratch per block.
///
/// # Errors
/// Propagates linear-algebra failures (singular `S` beyond ridge repair).
pub fn compute_sub_factor_update(
    grid: &Grid,
    unit: &UnitData,
    pq: &PqCache,
    ridge: f64,
    par: &ParConfig,
    scratch: &mut UpdateScratch,
) -> Result<()> {
    let mode = usize::from(unit.unit.mode);
    let rank = pq.rank();
    let UpdateScratch {
        q_fold,
        a_new: t,
        s,
        p_had,
        contrib,
        coords,
        solve: solve_scratch,
    } = scratch;

    // `Q` entries may have been refreshed since the previous unit's update.
    q_fold.clear();
    t.reset(unit.factor.rows(), rank);
    s.reset(rank, rank);
    for (block_u64, u_mat) in &unit.sub_factors {
        let block = *block_u64 as usize;
        // T += U(i)_l · ⊛_{h≠i} P(h)_l   (skip empty blocks: U = 0).
        pq.p_hadamard_excluding_into(block, mode, p_had)?;
        if u_mat.as_slice().iter().any(|&v| v != 0.0) {
            u_mat.matmul_into(p_had, par, contrib)?;
            t.add_assign(contrib)?;
        }
        // S += ⊛_{h≠i} Q(h)_l (fold prefixes shared between the slab's
        // consecutive blocks).
        grid.block_coords_into(block, coords);
        s.add_assign(pq.q_hadamard_excluding_cached(grid, coords, mode, q_fold)?)?;
    }
    Ok(solve::solve_gram_system_in_place(
        t,
        s,
        ridge,
        solve_scratch,
    )?)
}

/// Commits the pending `A(i)(kᵢ)` of `scratch` as the unit's `factor` and
/// refreshes the caches in place: `P(i)_l ← U(i)_lᵀ · A` for every block
/// `l` in the slab (`sub_factors`), and `Q(i)(kᵢ) ← Aᵀ · A`, both on the
/// shared thread budget. The unit's previous factor buffer becomes the
/// scratch's next `T` accumulator, so nothing is copied.
///
/// # Errors
/// Propagates shape mismatches (impossible for consistent inputs).
#[allow(clippy::too_many_arguments)]
pub fn commit_sub_factor_update(
    grid: &Grid,
    unit: UnitId,
    factor: &mut Mat,
    sub_factors: &[(u64, Mat)],
    pq: &mut PqCache,
    par: &ParConfig,
    scratch: &mut UpdateScratch,
) -> Result<()> {
    let mode = usize::from(unit.mode);
    let a_new = &scratch.a_new;
    for (block_u64, u_mat) in sub_factors {
        u_mat.t_matmul_into(a_new, par, pq.p_mut(*block_u64 as usize, mode))?;
    }
    a_new.gram_into(par, pq.q_mut(grid, unit));
    std::mem::swap(factor, &mut scratch.a_new);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpcp_cp::CpModel;
    use tpcp_tensor::random_factor;

    /// Builds a consistent 1-partition-per-mode scenario where the update
    /// rule must reproduce plain ALS on the reconstructed tensor.
    #[test]
    fn single_block_update_matches_direct_least_squares() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let dims = [6usize, 5, 4];
        let f = 3;
        let grid = Grid::new(&dims, &[1, 1, 1]);

        // Block model U (the Phase-1 output) and current global guess A.
        let u: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        let a: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();

        // Prime the caches.
        let mut pq = PqCache::new(&grid, f);
        for h in 0..3 {
            pq.set_p(0, h, u[h].t_matmul(&a[h]).unwrap());
            pq.set_q(&grid, UnitId::new(h, 0), a[h].gram());
        }

        // Unit for mode 0.
        let unit = UnitData {
            unit: UnitId::new(0, 0),
            factor: a[0].clone(),
            sub_factors: vec![(0, u[0].clone())],
        };
        let mut scratch = UpdateScratch::new();
        compute_sub_factor_update(&grid, &unit, &pq, 1e-12, &ParConfig::auto(), &mut scratch)
            .unwrap();

        // Reference: ALS update of mode 0 on the reconstruction of U, with
        // B and C fixed to the current A estimates:
        //   A₀ = X̂_(0)·KR(A₁,A₂)·(A₁ᵀA₁ ⊛ A₂ᵀA₂)⁻¹.
        let x_hat = CpModel::new(vec![1.0; f], u.clone())
            .unwrap()
            .reconstruct_dense();
        let refs: Vec<&Mat> = a.iter().collect();
        let m = tpcp_cp::mttkrp_dense(&x_hat, &refs, 0, &ParConfig::auto()).unwrap();
        let s = a[1].gram().hadamard(&a[2].gram()).unwrap();
        let expect = solve::solve_gram_system(&m, &s, 1e-12).unwrap();

        assert!(
            scratch.a_new.max_abs_diff(&expect).unwrap() < 1e-6,
            "block update rule must equal ALS on the reconstructed tensor"
        );
    }

    #[test]
    fn commit_refreshes_caches_and_factor() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let grid = Grid::new(&[4, 4], &[2, 2]);
        let f = 2;
        let mut pq = PqCache::new(&grid, f);
        let u_block0 = random_factor(2, f, &mut rng);
        let u_block1 = random_factor(2, f, &mut rng);
        // Slab of <0,0> in a 2x2 grid: blocks (0,0)=0 and (0,1)=1.
        let unit = UnitId::new(0, 0);
        let mut factor = random_factor(2, f, &mut rng);
        let sub_factors = vec![(0, u_block0.clone()), (1, u_block1.clone())];
        let a_new = random_factor(2, f, &mut rng);
        let mut scratch = UpdateScratch::new();
        scratch.a_new = a_new.clone();
        commit_sub_factor_update(
            &grid,
            unit,
            &mut factor,
            &sub_factors,
            &mut pq,
            &ParConfig::auto(),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(factor, a_new);
        assert_eq!(pq.p(0, 0), &u_block0.t_matmul(&a_new).unwrap());
        assert_eq!(pq.p(1, 0), &u_block1.t_matmul(&a_new).unwrap());
        assert_eq!(pq.q(&grid, unit), &a_new.gram());
        // Unrelated cache entries untouched.
        assert!(pq.p(2, 0).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_blocks_contribute_zero_to_t() {
        // A slab whose only block is empty (zero U): T = 0 ⇒ A_new = 0.
        let grid = Grid::new(&[4, 4], &[1, 1]);
        let f = 2;
        let mut pq = PqCache::new(&grid, f);
        // Q must be nonsingular for the solve; set to identity.
        pq.set_q(&grid, UnitId::new(0, 0), Mat::identity(f));
        pq.set_q(&grid, UnitId::new(1, 0), Mat::identity(f));
        let unit = UnitData {
            unit: UnitId::new(0, 0),
            factor: Mat::filled(4, f, 1.0),
            sub_factors: vec![(0, Mat::zeros(4, f))],
        };
        let mut scratch = UpdateScratch::new();
        compute_sub_factor_update(&grid, &unit, &pq, 1e-9, &ParConfig::serial(), &mut scratch)
            .unwrap();
        assert!(scratch.a_new.as_slice().iter().all(|&v| v.abs() < 1e-12));
    }

    /// The update rule as it stood before the scratch rewrite — one fresh
    /// matrix per product, fold and solve — kept verbatim as the oracle
    /// the in-place form is pinned against.
    fn oracle_update(
        grid: &Grid,
        unit: &mut UnitData,
        pq: &mut PqCache,
        ridge: f64,
        par: &ParConfig,
    ) {
        let mode = usize::from(unit.unit.mode);
        let rank = pq.rank();
        let mut t = Mat::zeros(unit.factor.rows(), rank);
        let mut s = Mat::zeros(rank, rank);
        for (block_u64, u_mat) in &unit.sub_factors {
            let block = *block_u64 as usize;
            let p_had = pq.p_hadamard_excluding(block, mode).unwrap();
            if u_mat.as_slice().iter().any(|&v| v != 0.0) {
                let contrib = u_mat.matmul_kernel(&p_had, par).unwrap();
                t.add_assign(&contrib).unwrap();
            }
            let coords = grid.block_coords(block);
            let q_had = pq.q_hadamard_excluding(grid, &coords, mode).unwrap();
            s.add_assign(&q_had).unwrap();
        }
        let a_new = solve::solve_gram_system(&t, &s, ridge).unwrap();
        for (block_u64, u_mat) in &unit.sub_factors {
            let p_new = u_mat.t_matmul_kernel(&a_new, par).unwrap();
            pq.set_p(*block_u64 as usize, mode, p_new);
        }
        let mut q = Mat::default();
        a_new.gram_into(par, &mut q);
        pq.set_q(grid, unit.unit, q);
        unit.factor = a_new;
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Two sweeps over every unit of `grid`, the oracle and the scratch
    /// form side by side from the same start: factors, every `P`, every
    /// `Q` and the surrogate fit must agree bit for bit after each update.
    /// `zero_block`'s sub-factors are all-zero (an empty tensor block).
    fn assert_pinned(
        dims: &[usize],
        parts: &[usize],
        rank: usize,
        zero_block: usize,
        threads: usize,
    ) {
        let grid = Grid::new(dims, parts);
        let mut rng = rand::rngs::StdRng::seed_from_u64(dims.len() as u64 * 31 + rank as u64);
        let mut units: Vec<UnitData> = (0..grid.num_units())
            .map(|lin| {
                let id = UnitId::from_linear(&grid, lin);
                let (mode, part) = (usize::from(id.mode), id.part as usize);
                let rows = grid.part_len(mode, part);
                UnitData {
                    unit: id,
                    factor: random_factor(rows, rank, &mut rng),
                    sub_factors: grid
                        .slab(mode, part)
                        .map(|block| {
                            let u = if block == zero_block {
                                Mat::zeros(rows, rank)
                            } else {
                                random_factor(rows, rank, &mut rng)
                            };
                            (block as u64, u)
                        })
                        .collect(),
                }
            })
            .collect();
        let mut pq = PqCache::new(&grid, rank);
        for unit in &units {
            let mode = usize::from(unit.unit.mode);
            pq.set_q(&grid, unit.unit, unit.factor.gram());
            for (block, u) in &unit.sub_factors {
                pq.set_p(*block as usize, mode, u.t_matmul(&unit.factor).unwrap());
            }
        }
        let u_norm_sq: Vec<f64> = (0..grid.num_blocks()).map(|b| 1.0 + b as f64).collect();

        let par = ParConfig::with_threads(threads);
        let mut oracle_units = units.clone();
        let mut oracle_pq = PqCache::new(&grid, rank);
        for block in 0..grid.num_blocks() {
            for mode in 0..grid.order() {
                oracle_pq.set_p(block, mode, pq.p(block, mode).clone());
            }
        }
        for unit in &units {
            oracle_pq.set_q(&grid, unit.unit, pq.q(&grid, unit.unit).clone());
        }

        let mut scratch = UpdateScratch::new();
        for sweep in 0..2 {
            for (unit, oracle_unit) in units.iter_mut().zip(&mut oracle_units) {
                oracle_update(&grid, oracle_unit, &mut oracle_pq, 1e-9, &par);
                compute_sub_factor_update(&grid, unit, &pq, 1e-9, &par, &mut scratch).unwrap();
                commit_sub_factor_update(
                    &grid,
                    unit.unit,
                    &mut unit.factor,
                    &unit.sub_factors,
                    &mut pq,
                    &par,
                    &mut scratch,
                )
                .unwrap();
                let at = format!("{dims:?}/{parts:?} sweep {sweep} unit {}", unit.unit);
                assert_eq!(bits(&unit.factor), bits(&oracle_unit.factor), "{at}: A");
                assert_eq!(
                    bits(pq.q(&grid, unit.unit)),
                    bits(oracle_pq.q(&grid, unit.unit)),
                    "{at}: Q"
                );
                let mode = usize::from(unit.unit.mode);
                for (block, _) in &unit.sub_factors {
                    let block = *block as usize;
                    assert_eq!(
                        bits(pq.p(block, mode)),
                        bits(oracle_pq.p(block, mode)),
                        "{at}: P of block {block}"
                    );
                }
            }
            assert_eq!(
                pq.surrogate_fit(&grid, &u_norm_sq).unwrap().to_bits(),
                oracle_surrogate_fit(&oracle_pq, &grid, &u_norm_sq).to_bits(),
                "{dims:?}/{parts:?} sweep {sweep}: surrogate fit"
            );
        }
        assert!(scratch.q_hadamard_stats().calls > 0);
    }

    /// `PqCache::surrogate_fit` as it stood before it folded in place.
    fn oracle_surrogate_fit(pq: &PqCache, grid: &Grid, u_norm_sq: &[f64]) -> f64 {
        let (mut err_sq, mut ref_sq) = (0.0, 0.0);
        for (block, &norm_sq) in u_norm_sq.iter().enumerate() {
            let coords = grid.block_coords(block);
            let p_refs: Vec<&Mat> = (0..grid.order()).map(|h| pq.p(block, h)).collect();
            let inner = tpcp_linalg::hadamard_all(&p_refs).unwrap().sum();
            let q_refs: Vec<&Mat> = (0..grid.order())
                .map(|h| pq.q(grid, UnitId::new(h, coords[h])))
                .collect();
            let model_sq = tpcp_linalg::hadamard_all(&q_refs).unwrap().sum();
            err_sq += (norm_sq - 2.0 * inner + model_sq).max(0.0);
            ref_sq += norm_sq;
        }
        1.0 - (err_sq.sqrt() / ref_sq.sqrt())
    }

    #[test]
    fn scratch_update_is_bitwise_the_allocating_update() {
        // Order 3, ragged parts (7 = 3 + 2 + 2 rows), rank past one tile.
        assert_pinned(&[7, 6, 5], &[3, 2, 2], 9, 5, 1);
        // Order 4, ragged, rank below one tile, an all-zero first block.
        assert_pinned(&[5, 4, 3, 5], &[2, 2, 1, 3], 3, 0, 1);
        // Uniform, with each mode-0 block's product at the fan-out
        // threshold (16384·16·16 = PAR_MIN_FLOPS) on a two-thread budget.
        assert_pinned(&[32768, 4, 4], &[2, 2, 2], 16, 3, 2);
    }
}
