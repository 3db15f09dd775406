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

use crate::pq::{PqCache, QHadamardScratch};
use crate::{Result, TwoPcpError};
use tpcp_linalg::{solve, KernelKind, Mat};
use tpcp_par::ParConfig;
use tpcp_partition::Grid;
use tpcp_schedule::UnitId;
use tpcp_storage::UnitData;

/// Computes the updated sub-factor `A(i)(kᵢ) = T·S⁻¹` from the unit's slab
/// sub-factors and the `P`/`Q` caches, with the `U·(⊛P)` products on the
/// shared thread budget. Pure function — the caller commits the result via
/// [`commit_sub_factor_update`].
///
/// `scratch` carries the `Q`-Hadamard fold prefixes across the slab's
/// blocks (and across units, when the caller keeps it alive): it is
/// cleared on entry, so any `Q` refresh between calls is safe, and the
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
    kernel: KernelKind,
    scratch: &mut QHadamardScratch,
) -> Result<Mat> {
    let mode = usize::from(unit.unit.mode);
    let rank = pq.rank();
    let rows = unit.factor.rows();

    // `Q` entries may have been refreshed since the previous unit's update.
    scratch.clear();
    let mut t = Mat::zeros(rows, rank);
    let mut s = Mat::zeros(rank, rank);
    for (block_u64, u_mat) in &unit.sub_factors {
        let block = *block_u64 as usize;
        // T += U(i)_l · ⊛_{h≠i} P(h)_l   (skip empty blocks: U = 0).
        let p_had = pq.p_hadamard_excluding(block, mode)?;
        if u_mat.as_slice().iter().any(|&v| v != 0.0) {
            let contrib = u_mat
                .matmul_kernel(&p_had, par, kernel)
                .map_err(TwoPcpError::from)?;
            t.add_assign(&contrib).map_err(TwoPcpError::from)?;
        }
        // S += ⊛_{h≠i} Q(h)_l (fold prefixes shared between the slab's
        // consecutive blocks).
        let coords = grid.block_coords(block);
        let q_had = pq.q_hadamard_excluding_cached(grid, &coords, mode, scratch)?;
        s.add_assign(&q_had).map_err(TwoPcpError::from)?;
    }
    solve::solve_gram_system(&t, &s, ridge).map_err(TwoPcpError::from)
}

/// Commits `a_new` as the unit's factor and refreshes the caches in place:
/// `P(i)_l ← U(i)_lᵀ · a_new` for every block `l` in the slab, and
/// `Q(i)(kᵢ) ← a_newᵀ · a_new`, both on the shared thread budget.
///
/// # Errors
/// Propagates shape mismatches (impossible for consistent inputs).
pub fn commit_sub_factor_update(
    grid: &Grid,
    unit: &mut UnitData,
    pq: &mut PqCache,
    a_new: Mat,
    par: &ParConfig,
    kernel: KernelKind,
) -> Result<()> {
    let mode = usize::from(unit.unit.mode);
    for (block_u64, u_mat) in &unit.sub_factors {
        let p_new = u_mat
            .t_matmul_kernel(&a_new, par, kernel)
            .map_err(TwoPcpError::from)?;
        pq.set_p(*block_u64 as usize, mode, p_new);
    }
    pq.set_q(
        grid,
        UnitId::new(mode, unit.unit.part as usize),
        a_new.gram_kernel(par, kernel),
    );
    unit.factor = a_new;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_cp::CpModel;
    use tpcp_tensor::random_factor;

    /// Builds a consistent 1-partition-per-mode scenario where the update
    /// rule must reproduce plain ALS on the reconstructed tensor.
    #[test]
    fn single_block_update_matches_direct_least_squares() {
        use rand::SeedableRng;
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
        let a0_new = compute_sub_factor_update(
            &grid,
            &unit,
            &pq,
            1e-12,
            &ParConfig::auto(),
            KernelKind::Tiled,
            &mut QHadamardScratch::new(),
        )
        .unwrap();

        // Reference: ALS update of mode 0 on the reconstruction of U, with
        // B and C fixed to the current A estimates:
        //   A₀ = X̂_(0)·KR(A₁,A₂)·(A₁ᵀA₁ ⊛ A₂ᵀA₂)⁻¹.
        let x_hat = CpModel::new(vec![1.0; f], u.clone())
            .unwrap()
            .reconstruct_dense();
        let refs: Vec<&Mat> = a.iter().collect();
        let m = tpcp_cp::mttkrp_dense(&x_hat, &refs, 0).unwrap();
        let s = a[1].gram().hadamard(&a[2].gram()).unwrap();
        let expect = solve::solve_gram_system(&m, &s, 1e-12).unwrap();

        assert!(
            a0_new.max_abs_diff(&expect).unwrap() < 1e-6,
            "block update rule must equal ALS on the reconstructed tensor"
        );
    }

    #[test]
    fn commit_refreshes_caches_and_factor() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let grid = Grid::new(&[4, 4], &[2, 2]);
        let f = 2;
        let mut pq = PqCache::new(&grid, f);
        let u_block0 = random_factor(2, f, &mut rng);
        let u_block1 = random_factor(2, f, &mut rng);
        let mut unit = UnitData {
            unit: UnitId::new(0, 0),
            // Slab of <0,0> in a 2x2 grid: blocks (0,0)=0 and (0,1)=1.
            factor: random_factor(2, f, &mut rng),
            sub_factors: vec![(0, u_block0.clone()), (1, u_block1.clone())],
        };
        let a_new = random_factor(2, f, &mut rng);
        commit_sub_factor_update(
            &grid,
            &mut unit,
            &mut pq,
            a_new.clone(),
            &ParConfig::auto(),
            KernelKind::Tiled,
        )
        .unwrap();
        assert_eq!(unit.factor, a_new);
        assert_eq!(pq.p(0, 0), &u_block0.t_matmul(&a_new).unwrap());
        assert_eq!(pq.p(1, 0), &u_block1.t_matmul(&a_new).unwrap());
        assert_eq!(pq.q(&grid, UnitId::new(0, 0)), &a_new.gram());
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
        let a_new = compute_sub_factor_update(
            &grid,
            &unit,
            &pq,
            1e-9,
            &ParConfig::serial(),
            KernelKind::Tiled,
            &mut QHadamardScratch::new(),
        )
        .unwrap();
        assert!(a_new.as_slice().iter().all(|&v| v.abs() < 1e-12));
    }
}
