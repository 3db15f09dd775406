//! Phase 2: out-of-core iterative refinement.
//!
//! Executes the update schedule over the unit store through a
//! byte-budgeted buffer pool (paper §V–VII):
//!
//! * every step `acquire`s (and pins) its data-access units — one for a
//!   mode-centric step, `N` for a block-centric step;
//! * sub-factors are revised by the `T·S⁻¹` rule and the `P`/`Q` caches
//!   refreshed in place, in a workspace reused from step to step; only
//!   `A(i)(kᵢ)` is marked dirty, so a write-back persists the factor
//!   alone ([`BufferPool::get_factor_mut`]);
//! * convergence is evaluated once per *virtual iteration* (`Σᵢ Kᵢ` steps,
//!   paper Def. 3) against the **surrogate fit** — the accuracy of the
//!   current global factors with respect to the Phase-1 reconstruction,
//!   computable from the caches with zero extra I/O;
//! * all disk traffic is tallied per virtual iteration, producing exactly
//!   the "data swaps per iteration" series of the paper's Figure 12;
//! * the same schedule determinism that makes the `Forward` policy
//!   Belady-exact drives an **asynchronous prefetch pipeline**
//!   ([`TwoPcpConfig::prefetch`]): a background worker stages the units
//!   upcoming steps will miss, so disk reads overlap the `T·S⁻¹` compute
//!   instead of stalling it. Results and swap counts are bit-identical
//!   with the pipeline on or off; only [`IoStats::stall_ns`] shrinks.

use crate::config::TwoPcpConfig;
use crate::pq::{PqCache, QHadamardStats};
use crate::update::{commit_sub_factor_update, compute_sub_factor_update, UpdateScratch};
use crate::Result;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_partition::Grid;
use tpcp_schedule::{build_cycle, virtual_iteration_len, CycleOracle, UnitId};
use tpcp_storage::{capacity_for_fraction, BufferPool, IoStats, PrefetchSource, UnitStore};

/// Statistics of a refinement run.
#[derive(Clone, Debug)]
pub struct RefineStats {
    /// Total buffer-pool I/O statistics.
    pub io: IoStats,
    /// Data swaps (unit fetches) in each virtual iteration.
    pub swaps_per_iteration: Vec<u64>,
    /// Surrogate fit after each virtual iteration.
    pub fit_trace: Vec<f64>,
    /// Virtual iterations executed.
    pub virtual_iterations: usize,
    /// Whether the tolerance was met before the iteration budget.
    pub converged: bool,
    /// Virtual iterations covering the first full schedule cycle
    /// (`⌈cycle/ΣKᵢ⌉`) — the cold-start window to exclude when reporting
    /// steady-state swaps.
    pub warmup_iterations: usize,
    /// Hotness of the `Q`-Hadamard fold across every sub-factor update
    /// (calls + wall ns; ROADMAP item 3's "measure first" question).
    pub q_hadamard: QHadamardStats,
}

impl RefineStats {
    /// Mean swaps per virtual iteration after the cold-start window (the
    /// steady-state quantity Figure 12 reports). Falls back to the overall
    /// mean when the run was shorter than one full cycle.
    pub fn steady_swaps_per_iteration(&self) -> f64 {
        steady_mean(&self.swaps_per_iteration, self.warmup_iterations)
    }
}

/// Mean of `swaps[warmup..]`, falling back to the overall mean for short
/// runs.
pub(crate) fn steady_mean(swaps: &[u64], warmup: usize) -> f64 {
    let tail = if swaps.len() > warmup {
        &swaps[warmup..]
    } else {
        swaps
    };
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<u64>() as f64 / tail.len() as f64
}

/// Outcome of [`refine`]: the stitched model, run statistics and the store
/// (returned so callers can inspect or reuse the refined units).
pub struct RefineOutcome<S> {
    /// The global CP model assembled from the refined sub-factors.
    pub model: CpModel,
    /// Run statistics.
    pub stats: RefineStats,
    /// The backing store, flushed.
    pub store: S,
}

impl<S> std::fmt::Debug for RefineOutcome<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefineOutcome")
            .field("model_dims", &self.model.dims())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// The exact byte size of unit `⟨mode, k⟩` under the paper's §VI space
/// formula: `(Iᵢ/Kᵢ rows) × F doubles` for the global sub-factor plus one
/// equal-shaped sub-factor per block of the slab. This is what Phase 1
/// materialises, so the Phase-2 buffer can be sized *before* touching the
/// store — no sizing pre-scan outside the buffer pool.
pub(crate) fn expected_unit_bytes(grid: &Grid, rank: usize, unit: UnitId) -> usize {
    let mode = usize::from(unit.mode);
    grid.part_len(mode, unit.part as usize) * rank * (1 + grid.slab_len(mode)) * 8
}

/// Runs the Phase-2 refinement over units previously written by Phase 1.
///
/// `u_norm_sq` holds `‖X̂₁_k‖²` per block (from
/// [`crate::phase1::Phase1Result`]).
///
/// # Errors
/// Storage failures (including a buffer too small for one step's working
/// set) and numerical failures in the update solves.
pub fn refine<S: UnitStore + PrefetchSource>(
    grid: &Grid,
    store: S,
    cfg: &TwoPcpConfig,
    u_norm_sq: &[f64],
) -> Result<RefineOutcome<S>> {
    // ---- Space requirement (analytic, paper §VI formula). ----------------
    let unit_ids: Vec<UnitId> = (0..grid.num_units())
        .map(|lin| UnitId::from_linear(grid, lin))
        .collect();
    let mut total_bytes = 0usize;
    let mut max_unit_bytes = 0usize;
    for &unit_id in &unit_ids {
        let bytes = expected_unit_bytes(grid, cfg.rank, unit_id);
        total_bytes += bytes;
        max_unit_bytes = max_unit_bytes.max(bytes);
    }

    let capacity = if cfg.buffer_fraction >= 1.0 {
        usize::MAX
    } else {
        // For non-cubic tensors the units are unevenly sized; the buffer
        // must at least hold the single largest working unit or the
        // algorithm cannot execute at all (the paper's fractions implicitly
        // assume this floor).
        capacity_for_fraction(total_bytes, cfg.buffer_fraction).max(max_unit_bytes)
    };

    // ---- Schedule, oracle, pool (prefetch pipeline bound here). ---------
    let cycle = build_cycle(grid, cfg.schedule);
    let oracle = CycleOracle::new(grid, &cycle);
    let bound = oracle.bind(grid);
    let mut pool = BufferPool::new(store, capacity, cfg.policy)
        .with_oracle(&bound)
        .with_prefetch(&bound, cfg.prefetch);

    // ---- Initialise the P/Q caches with one pass *through the pool*, so
    // the first cycle starts warm and the scan's fetches (and stalls) are
    // tallied in the run's `IoStats`. The scan itself is pipelined by
    // hinting the next few units ahead of each read.
    let mut pq = PqCache::new(grid, cfg.rank);
    for (lin, &unit_id) in unit_ids.iter().enumerate() {
        let hint_end = (lin + 1 + cfg.prefetch.depth).min(unit_ids.len());
        pool.prefetch_units(&unit_ids[(lin + 1).min(hint_end)..hint_end]);
        let hold = [unit_id];
        pool.acquire(&hold)?;
        let result = (|| -> Result<(Mat, Vec<(usize, Mat)>)> {
            let data = pool.get(unit_id)?;
            debug_assert_eq!(
                data.payload_bytes(),
                expected_unit_bytes(grid, cfg.rank, unit_id),
                "stored unit diverges from the analytic space formula"
            );
            let q = data.factor.gram_kernel(&cfg.par, cfg.kernel);
            let mut ps = Vec::with_capacity(data.sub_factors.len());
            for (block, u) in &data.sub_factors {
                ps.push((
                    *block as usize,
                    u.t_matmul_kernel(&data.factor, &cfg.par, cfg.kernel)?,
                ));
            }
            Ok((q, ps))
        })();
        pool.release(&hold);
        let (q, ps) = result?;
        pq.set_q(grid, unit_id, q);
        let mode = usize::from(unit_id.mode);
        for (block, p) in ps {
            pq.set_p(block, mode, p);
        }
    }

    // Virtual iterations are counted in sub-factor updates (paper Def. 3):
    // a mode-centric step is one update, a block step is N updates.
    let vlen = virtual_iteration_len(grid) as u64;
    let cycle_len = cycle.len() as u64;
    let cycle_updates: u64 = cycle.iter().map(|s| s.update_count(grid) as u64).sum();

    let mut fit_trace = Vec::new();
    let mut swaps_per_iteration = Vec::new();
    let mut converged = false;
    let mut prev_fit = f64::NEG_INFINITY;
    let mut pos: u64 = 0;
    let mut updates_done: u64 = 0;
    let mut iterations = 0usize;
    // Every temporary of the update rule, allocated by the first step and
    // reused by all later ones.
    let mut scratch = UpdateScratch::new();

    'outer: while iterations < cfg.max_virtual_iters {
        let swaps_before = pool.stats().fetches;
        let quota = (iterations as u64 + 1) * vlen;
        while updates_done < quota {
            let step = cycle[(pos % cycle_len) as usize];
            pool.set_position(pos);
            // Algorithm 2 processes the modes of a block position one at a
            // time, so only one data-access unit needs to be resident per
            // sub-factor update — the buffer can be as small as one unit.
            for unit_id in step.units(grid) {
                let hold = [unit_id];
                pool.acquire(&hold)?;
                let result = (|| -> Result<()> {
                    compute_sub_factor_update(
                        grid,
                        pool.get(unit_id)?,
                        &pq,
                        cfg.ridge,
                        &cfg.par,
                        cfg.kernel,
                        &mut scratch,
                    )?;
                    // Only `A(i)(kᵢ)` changes, so only it is marked dirty:
                    // the eventual write-back persists the factor alone.
                    let (factor, sub_factors) = pool.get_factor_mut(unit_id)?;
                    commit_sub_factor_update(
                        grid,
                        unit_id,
                        factor,
                        sub_factors,
                        &mut pq,
                        &cfg.par,
                        cfg.kernel,
                        &mut scratch,
                    )
                })();
                pool.release(&hold);
                result?;
                updates_done += 1;
            }
            pos += 1;
        }
        iterations += 1;
        swaps_per_iteration.push(pool.stats().fetches - swaps_before);
        let fit = pq.surrogate_fit(grid, u_norm_sq)?;
        fit_trace.push(fit);
        // Termination is evaluated per virtual iteration (paper Def. 3 /
        // Figure 7) but never before one full tensor-filling cycle: a
        // block-centric virtual iteration touches only ΣKᵢ/N block
        // positions, and declaring convergence before every block has
        // contributed once would freeze the factors at whatever the first
        // visited corner of the tensor suggested.
        let min_iters = (cycle_updates as usize).div_ceil(vlen as usize);
        if iterations > min_iters && (fit - prev_fit).abs() < cfg.tol {
            converged = true;
            break 'outer;
        }
        prev_fit = fit;
    }

    // ---- Finalise. --------------------------------------------------------
    let io = pool.stats();
    let mut store = pool.into_store()?;
    let mut factors = Vec::with_capacity(grid.order());
    for mode in 0..grid.order() {
        let parts: Vec<Mat> = (0..grid.parts()[mode])
            .map(|k| store.read(UnitId::new(mode, k)).map(|d| d.factor))
            .collect::<std::result::Result<_, _>>()?;
        let refs: Vec<&Mat> = parts.iter().collect();
        factors.push(Mat::vstack(&refs));
    }
    let mut model = CpModel::new(vec![1.0; cfg.rank], factors)?;
    model.normalize();

    Ok(RefineOutcome {
        model,
        stats: RefineStats {
            io,
            swaps_per_iteration,
            fit_trace,
            virtual_iterations: iterations,
            converged,
            warmup_iterations: (cycle_updates as usize).div_ceil(vlen as usize),
            q_hadamard: scratch.q_hadamard_stats(),
        },
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::run_phase1_dense;
    use rand::SeedableRng;
    use tpcp_schedule::ScheduleKind;
    use tpcp_storage::{MemStore, PolicyKind};
    use tpcp_tensor::{random_factor, DenseTensor};

    fn low_rank(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        CpModel::new(vec![1.0; f], factors)
            .unwrap()
            .reconstruct_dense()
    }

    fn run(cfg: TwoPcpConfig, x: &DenseTensor) -> (RefineOutcome<MemStore>, f64) {
        let mut store = MemStore::new();
        let p1 = run_phase1_dense(x, &cfg, &mut store).unwrap();
        let outcome = refine(&p1.grid, store, &cfg, &p1.u_norm_sq).unwrap();
        let fit = outcome.model.fit_dense(x).unwrap();
        (outcome, fit)
    }

    #[test]
    fn refinement_reaches_high_fit_on_low_rank_data() {
        let x = low_rank(&[12, 12, 12], 3, 42);
        let cfg = TwoPcpConfig::new(3)
            .parts(vec![2])
            .max_virtual_iters(60)
            .tol(1e-7);
        let (outcome, fit) = run(cfg, &x);
        assert!(fit > 0.98, "exact fit {fit} too low");
        // The surrogate is capped by Phase-1 block quality (a single global
        // factor set cannot perfectly reproduce 8 independent block models).
        assert!(outcome.stats.fit_trace.last().unwrap() > &0.95);
    }

    #[test]
    fn all_schedules_converge_to_similar_fit() {
        let x = low_rank(&[8, 8, 8], 2, 7);
        let mut fits = Vec::new();
        for kind in ScheduleKind::ALL {
            let cfg = TwoPcpConfig::new(2)
                .parts(vec![2])
                .schedule(kind)
                .max_virtual_iters(40)
                .tol(1e-9);
            let (_, fit) = run(cfg, &x);
            fits.push((kind, fit));
        }
        for (kind, fit) in &fits {
            assert!(*fit > 0.95, "{kind} fit {fit}");
        }
    }

    #[test]
    fn surrogate_fit_is_monotonish_and_high_at_end() {
        let x = low_rank(&[10, 10, 10], 2, 3);
        let cfg = TwoPcpConfig::new(2)
            .parts(vec![2])
            .max_virtual_iters(50)
            .tol(0.0);
        let (outcome, _) = run(cfg, &x);
        let trace = &outcome.stats.fit_trace;
        assert!(
            trace.last().unwrap() > &0.95,
            "surrogate {:?}",
            trace.last()
        );
        // Allow small dips but require overall improvement.
        assert!(trace.last().unwrap() >= &(trace[0] - 1e-6));
    }

    #[test]
    fn constrained_buffer_produces_swaps_and_same_result() {
        let x = low_rank(&[12, 12, 12], 2, 5);
        let base = TwoPcpConfig::new(2)
            .parts(vec![2])
            .max_virtual_iters(10)
            .tol(0.0)
            .schedule(ScheduleKind::HilbertOrder)
            .policy(PolicyKind::Forward);

        let (unbounded, fit_unbounded) = run(base.clone(), &x);
        assert_eq!(
            unbounded.stats.io.fetches, 6,
            "with an unbounded buffer each unit is fetched exactly once"
        );

        let (bounded, fit_bounded) = run(base.buffer_fraction(0.5), &x);
        assert!(bounded.stats.io.fetches > 6, "restricted buffer must swap");
        assert!(bounded.stats.io.evictions > 0);
        // The math is identical regardless of buffering.
        assert!(
            (fit_unbounded - fit_bounded).abs() < 1e-9,
            "{fit_unbounded} vs {fit_bounded}"
        );
    }

    #[test]
    fn mode_centric_equals_block_centric_per_unit_updates() {
        // Both schedule families apply the same update rule; with an
        // unbounded buffer and identical seeds, final fits must be close
        // (they differ only in update interleaving).
        let x = low_rank(&[8, 8, 8], 2, 9);
        let cfg_mc = TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(ScheduleKind::ModeCentric)
            .max_virtual_iters(60)
            .tol(1e-10);
        let cfg_ho = cfg_mc.clone().schedule(ScheduleKind::HilbertOrder);
        let (_, fit_mc) = run(cfg_mc, &x);
        let (_, fit_ho) = run(cfg_ho, &x);
        assert!((fit_mc - fit_ho).abs() < 0.05, "{fit_mc} vs {fit_ho}");
    }

    #[test]
    fn swaps_counted_per_virtual_iteration() {
        let x = low_rank(&[12, 12, 12], 2, 1);
        let cfg = TwoPcpConfig::new(2)
            .parts(vec![2])
            .buffer_fraction(0.34)
            .schedule(ScheduleKind::FiberOrder)
            .policy(PolicyKind::Lru)
            .max_virtual_iters(5)
            .tol(0.0);
        let (outcome, _) = run(cfg, &x);
        assert_eq!(outcome.stats.swaps_per_iteration.len(), 5);
        // The P/Q-initialisation scan runs through the pool: its ΣKᵢ = 6
        // cold fetches are tallied in `io` but precede iteration 0.
        assert_eq!(
            outcome.stats.swaps_per_iteration.iter().sum::<u64>() + 6,
            outcome.stats.io.fetches
        );
        assert!(outcome.stats.steady_swaps_per_iteration() > 0.0);
        // Every sub-factor update folds Q once per block of its slab.
        assert!(outcome.stats.q_hadamard.calls > 0);
    }

    #[test]
    fn converges_early_with_loose_tolerance() {
        let x = low_rank(&[8, 8, 8], 2, 13);
        let cfg = TwoPcpConfig::new(2)
            .parts(vec![2])
            .max_virtual_iters(100)
            .tol(0.5); // absurdly loose: stops right after the first cycle
        let (outcome, _) = run(cfg, &x);
        assert!(outcome.stats.converged);
        // One HO cycle = 8 blocks × 3 updates / 6 per iteration = 4 virtual
        // iterations; convergence is first allowed at iteration 5.
        assert_eq!(outcome.stats.virtual_iterations, 5);
    }

    #[test]
    fn minuscule_buffer_degrades_to_one_unit_and_thrashes() {
        // The capacity floor guarantees the single largest unit fits, so
        // even an absurd fraction runs — at one swap per unit access.
        let x = low_rank(&[8, 8, 8], 2, 2);
        let cfg = TwoPcpConfig::new(2)
            .parts(vec![2])
            .buffer_fraction(0.01)
            .max_virtual_iters(4)
            .tol(0.0);
        let mut store = MemStore::new();
        let p1 = run_phase1_dense(&x, &cfg, &mut store).unwrap();
        let outcome = refine(&p1.grid, store, &cfg, &p1.u_norm_sq).unwrap();
        let io = outcome.stats.io;
        // 4 virtual iterations × ΣKᵢ = 6 updates each = 24 unit accesses,
        // plus the 6-unit P/Q-initialisation scan through the pool; with a
        // one-unit buffer nearly every access misses.
        assert_eq!(io.hits + io.fetches, 4 * 6 + 6);
        assert!(io.fetches >= 26, "expected thrashing, got {io:?}");
    }
}
