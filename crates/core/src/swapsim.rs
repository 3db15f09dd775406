//! Data-swap simulation (paper Figure 12).
//!
//! The paper observes that "the per-iteration number of swaps is not a
//! function of the data, but the number of partitions and the size of the
//! buffer relative to the total space requirement" (§VIII-C1). This module
//! therefore replays a schedule against the *real* buffer pool and policies
//! with skeletal unit payloads whose sizes preserve the paper's byte
//! formula ratios, counting swaps exactly — in milliseconds instead of the
//! hours a real decomposition would take.

use crate::{Result, TwoPcpError};
use tpcp_linalg::Mat;
use tpcp_partition::Grid;
use tpcp_schedule::{build_cycle, virtual_iteration_len, CycleOracle, ScheduleKind, UnitId};
use tpcp_storage::{
    capacity_for_fraction, BufferPool, IoStats, MemStore, PolicyKind, UnitData, UnitStore,
};

/// Configuration of one swap-simulation cell of Figure 12.
#[derive(Clone, Debug)]
pub struct SwapSimConfig {
    /// Partition counts per mode (e.g. `[8, 8, 8]`).
    pub parts: Vec<usize>,
    /// Update schedule.
    pub schedule: ScheduleKind,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Buffer size as a fraction of the total space requirement.
    pub buffer_fraction: f64,
    /// Number of virtual iterations to simulate.
    pub virtual_iters: usize,
}

/// Result of a swap simulation.
#[derive(Clone, Debug)]
pub struct SwapReport {
    /// Swaps in each simulated virtual iteration.
    pub swaps_per_iteration: Vec<u64>,
    /// Mean swaps per iteration excluding the cold-start window (the first
    /// full schedule cycle).
    pub steady_swaps: f64,
    /// Virtual iterations covered by one full cycle (the cold-start
    /// window).
    pub warmup_iterations: usize,
    /// Full buffer statistics.
    pub io: IoStats,
    /// Number of data-access units in the configuration.
    pub unit_count: usize,
}

/// Exact byte size of the unit `⟨mode, kᵢ⟩` under the paper's §VI formula:
/// `((Iᵢ/Kᵢ)·F + (Π_{j≠i} Kⱼ)·(Iᵢ/Kᵢ)·F) × 8`.
pub fn unit_bytes(dims: &[usize], parts: &[usize], rank: usize, mode: usize) -> usize {
    let rows = dims[mode] / parts[mode];
    let slab: usize = parts
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != mode)
        .map(|(_, &k)| k)
        .product();
    rows * rank * (1 + slab) * 8
}

/// Simulates `cfg.virtual_iters` virtual iterations of the schedule and
/// counts data swaps, using the production buffer pool, policies and
/// next-use oracle.
///
/// Unit payloads are skeletal (one row, rank one) — for the paper's uniform
/// cubic grids every unit shrinks by the same factor `(Iᵢ/Kᵢ)·F`, so the
/// byte-budget arithmetic (and hence the swap counts) is exact.
///
/// # Errors
/// [`TwoPcpError::Config`] on an invalid configuration, storage errors if
/// the buffer cannot hold one step's working set.
pub fn simulate_swaps(cfg: &SwapSimConfig) -> Result<SwapReport> {
    if cfg.parts.is_empty() || cfg.parts.contains(&0) {
        return Err(TwoPcpError::Config {
            reason: "parts must be non-empty and positive".into(),
        });
    }
    if !crate::config::is_positive_fraction(cfg.buffer_fraction) {
        return Err(TwoPcpError::Config {
            reason: "buffer_fraction must be positive".into(),
        });
    }
    // Skeletal grid: one row per partition.
    let grid = Grid::new(&cfg.parts, &cfg.parts);

    // Seed the store with skeletal units (1×1 factor, 1×1 sub-factors).
    let mut store = MemStore::new();
    let mut total_bytes = 0usize;
    let mut max_unit_bytes = 0usize;
    for lin in 0..grid.num_units() {
        let unit = UnitId::from_linear(&grid, lin);
        let mode = usize::from(unit.mode);
        let sub_factors: Vec<(u64, Mat)> = grid
            .slab(mode, unit.part as usize)
            .map(|l| (l as u64, Mat::zeros(1, 1)))
            .collect();
        let data = UnitData {
            unit,
            factor: Mat::zeros(1, 1),
            sub_factors,
        };
        total_bytes += data.payload_bytes();
        max_unit_bytes = max_unit_bytes.max(data.payload_bytes());
        store.write(&data)?;
    }

    // Capacity arithmetic mirrors `refine` exactly (same one-unit floor),
    // so the simulated eviction sequence matches the real refiner's.
    let capacity = if cfg.buffer_fraction >= 1.0 {
        usize::MAX
    } else {
        capacity_for_fraction(total_bytes, cfg.buffer_fraction).max(max_unit_bytes)
    };
    let cycle = build_cycle(&grid, cfg.schedule);
    let oracle = CycleOracle::new(&grid, &cycle);
    let bound = oracle.bind(&grid);
    let mut pool = BufferPool::new(store, capacity, cfg.policy).with_oracle(&bound);

    // Mirror the refiner's P/Q-initialisation scan: one pooled acquire per
    // unit in linear order, warming the buffer before the cycle starts.
    for lin in 0..grid.num_units() {
        let hold = [UnitId::from_linear(&grid, lin)];
        pool.acquire(&hold)?;
        pool.release(&hold);
    }

    // Virtual iterations in sub-factor updates (paper Def. 3): a block
    // step is N updates, a mode-centric step one.
    let vlen = virtual_iteration_len(&grid) as u64;
    let cycle_len = cycle.len() as u64;
    let cycle_updates: u64 = cycle.iter().map(|s| s.update_count(&grid) as u64).sum();
    let mut swaps_per_iteration = Vec::with_capacity(cfg.virtual_iters);
    let mut pos: u64 = 0;
    let mut updates_done: u64 = 0;
    for vi in 0..cfg.virtual_iters {
        let before = pool.stats().fetches;
        let quota = (vi as u64 + 1) * vlen;
        while updates_done < quota {
            let step = cycle[(pos % cycle_len) as usize];
            pool.set_position(pos);
            // Mirror the refiner exactly: one unit resident per sub-factor
            // update (Algorithm 2 touches the modes of a block in turn).
            for unit in step.units(&grid) {
                let hold = [unit];
                pool.acquire(&hold)?;
                pool.release(&hold);
                updates_done += 1;
            }
            pos += 1;
        }
        swaps_per_iteration.push(pool.stats().fetches - before);
    }

    let warmup_iterations = (cycle_updates as usize).div_ceil(vlen as usize);
    let steady_swaps = crate::phase2::steady_mean(&swaps_per_iteration, warmup_iterations);

    Ok(SwapReport {
        swaps_per_iteration,
        steady_swaps,
        warmup_iterations,
        io: pool.stats(),
        unit_count: grid.num_units(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(parts: usize, schedule: ScheduleKind, policy: PolicyKind, fraction: f64) -> SwapReport {
        simulate_swaps(&SwapSimConfig {
            parts: vec![parts; 3],
            schedule,
            policy,
            buffer_fraction: fraction,
            virtual_iters: 200,
        })
        .unwrap()
    }

    #[test]
    fn unbounded_buffer_swaps_only_cold_misses() {
        for kind in ScheduleKind::ALL {
            let r = sim(4, kind, PolicyKind::Lru, 1.0);
            assert_eq!(r.io.fetches, 12, "{kind}: one fetch per unit");
            assert_eq!(r.io.evictions, 0, "{kind}");
            assert_eq!(
                r.steady_swaps, 0.0,
                "{kind}: cold misses all fall in warmup"
            );
        }
    }

    #[test]
    fn mc_lru_thrashes_at_small_buffers() {
        // §VIII-C1: MC with LRU is the worst strategy — with 1/3 buffer the
        // cyclic unit order defeats LRU completely: every access misses.
        let r = sim(8, ScheduleKind::ModeCentric, PolicyKind::Lru, 1.0 / 3.0);
        assert_eq!(r.unit_count, 24);
        assert!(
            r.steady_swaps >= 23.9,
            "expected ~24 swaps/iter, got {}",
            r.steady_swaps
        );
    }

    #[test]
    fn mru_improves_mode_centric() {
        let lru = sim(8, ScheduleKind::ModeCentric, PolicyKind::Lru, 1.0 / 3.0);
        let mru = sim(8, ScheduleKind::ModeCentric, PolicyKind::Mru, 1.0 / 3.0);
        assert!(
            mru.steady_swaps < lru.steady_swaps,
            "MRU {} should beat LRU {}",
            mru.steady_swaps,
            lru.steady_swaps
        );
    }

    #[test]
    fn hilbert_forward_is_best() {
        // The paper's headline: HO+FOR ⪅ 1.1 swaps/iter at 8³ with 1/3
        // buffer, far below MC/LRU's ~24.
        let ho_for = sim(
            8,
            ScheduleKind::HilbertOrder,
            PolicyKind::Forward,
            1.0 / 3.0,
        );
        let mc_lru = sim(8, ScheduleKind::ModeCentric, PolicyKind::Lru, 1.0 / 3.0);
        assert!(
            ho_for.steady_swaps < 1.5,
            "HO+FOR steady swaps {}",
            ho_for.steady_swaps
        );
        assert!(ho_for.steady_swaps < mc_lru.steady_swaps / 10.0);
    }

    #[test]
    fn larger_buffers_swap_less() {
        for kind in [ScheduleKind::FiberOrder, ScheduleKind::ZOrder] {
            let small = sim(8, kind, PolicyKind::Forward, 1.0 / 3.0);
            let large = sim(8, kind, PolicyKind::Forward, 2.0 / 3.0);
            assert!(
                large.steady_swaps <= small.steady_swaps,
                "{kind}: {} vs {}",
                large.steady_swaps,
                small.steady_swaps
            );
        }
    }

    #[test]
    fn forward_beats_or_ties_lru_everywhere() {
        // Belady-style replacement is optimal for fixed reference strings;
        // with the exact oracle it can never lose to LRU.
        for parts in [2usize, 4] {
            for kind in ScheduleKind::ALL {
                for fraction in [1.0 / 3.0, 0.5, 2.0 / 3.0] {
                    let fwd = sim(parts, kind, PolicyKind::Forward, fraction);
                    let lru = sim(parts, kind, PolicyKind::Lru, fraction);
                    assert!(
                        fwd.steady_swaps <= lru.steady_swaps + 1e-9,
                        "{kind} {parts}^3 f={fraction}: FOR {} > LRU {}",
                        fwd.steady_swaps,
                        lru.steady_swaps
                    );
                }
            }
        }
    }

    #[test]
    fn unit_bytes_matches_paper_example() {
        // §VIII-C1 worked example: 100K³ tensor, 8³ grid, F=100:
        // one unit = (100000/8 · 100) · (1 + 64) · 8 = 650 MB.
        let b = unit_bytes(&[100_000; 3], &[8; 3], 100, 0);
        assert_eq!(b, 12_500 * 100 * 65 * 8);
        // 8.32 swaps/iter ⇒ ~6.3 GB/iter (paper: "≈ 6GB data exchange").
        let gb = 8.32 * b as f64 / 1e9;
        assert!((5.0..7.0).contains(&gb), "{gb}");
        // 0.22 swaps/iter ⇒ ~140 MB (paper: "only ~160MB").
        let mb = 0.22 * b as f64 / 1e6;
        assert!((120.0..180.0).contains(&mb), "{mb}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(simulate_swaps(&SwapSimConfig {
            parts: vec![],
            schedule: ScheduleKind::ZOrder,
            policy: PolicyKind::Lru,
            buffer_fraction: 0.5,
            virtual_iters: 1,
        })
        .is_err());
        // NaN fails `<= 0.0` as well as `> 0.0`: it must still be a typed
        // error, not the buffer pool's panic.
        for bad in [f64::NAN, 0.0, -0.0] {
            let err = simulate_swaps(&SwapSimConfig {
                parts: vec![2, 2],
                schedule: ScheduleKind::ZOrder,
                policy: PolicyKind::Lru,
                buffer_fraction: bad,
                virtual_iters: 1,
            })
            .unwrap_err();
            assert!(matches!(err, TwoPcpError::Config { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn swap_counts_are_deterministic() {
        let a = sim(4, ScheduleKind::ZOrder, PolicyKind::Mru, 0.5);
        let b = sim(4, ScheduleKind::ZOrder, PolicyKind::Mru, 0.5);
        assert_eq!(a.swaps_per_iteration, b.swaps_per_iteration);
    }
}
