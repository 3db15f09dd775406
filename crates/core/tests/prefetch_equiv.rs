//! Prefetch-equivalence properties: the asynchronous I/O pipeline must
//! move bytes, never values.
//!
//! For every (policy × buffer fraction × schedule × thread budget ×
//! pipeline depth) cell, a Phase-2 refinement with prefetch enabled must
//! be **bitwise** identical to one with prefetch disabled — fit trace,
//! final factor matrices, and (the paper's headline metric) the per-
//! iteration swap counts, including under the `Forward` policy whose
//! Belady-exactness the pipeline must not perturb.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{DiskStore, IoStats, PolicyKind, PrefetchConfig, PrefetchSource, UnitStore};
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::{refine, run_phase1_dense, RefineStats, TwoPcpConfig};

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

/// Everything a run produces, reduced to exactly-comparable form.
struct Fingerprint {
    fit_bits: Vec<u64>,
    factor_bits: Vec<Vec<u64>>,
    swaps_per_iteration: Vec<u64>,
    io: IoStats,
}

fn fingerprint(model: &CpModel, stats: &RefineStats) -> Fingerprint {
    Fingerprint {
        fit_bits: stats.fit_trace.iter().map(|f| f.to_bits()).collect(),
        factor_bits: model
            .factors
            .iter()
            .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect(),
        swaps_per_iteration: stats.swaps_per_iteration.clone(),
        io: stats.io,
    }
}

fn run_once<S: UnitStore + PrefetchSource>(
    x: &DenseTensor,
    cfg: &TwoPcpConfig,
    mut store: S,
) -> Fingerprint {
    let p1 = run_phase1_dense(x, cfg, &mut store).unwrap();
    let outcome = refine(&p1.grid, store, cfg, &p1.u_norm_sq).unwrap();
    fingerprint(&outcome.model, &outcome.stats)
}

fn assert_equivalent(off: &Fingerprint, on: &Fingerprint, label: &str) {
    assert_eq!(off.fit_bits, on.fit_bits, "{label}: fit trace diverged");
    assert_eq!(off.factor_bits, on.factor_bits, "{label}: factors diverged");
    assert_eq!(
        off.swaps_per_iteration, on.swaps_per_iteration,
        "{label}: per-iteration swaps diverged"
    );
    assert_eq!(off.io.fetches, on.io.fetches, "{label}: swap totals");
    assert_eq!(off.io.hits, on.io.hits, "{label}: hits");
    assert_eq!(off.io.evictions, on.io.evictions, "{label}: evictions");
    assert_eq!(
        off.io.write_backs, on.io.write_backs,
        "{label}: write-backs"
    );
    assert_eq!(off.io.bytes_read, on.io.bytes_read, "{label}: bytes read");
    assert_eq!(
        off.io.bytes_written, on.io.bytes_written,
        "{label}: bytes written"
    );
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpcp_pf_equiv_{tag}_{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// DiskStore: refinement is bitwise invariant to the prefetch
    /// pipeline across policies, buffer fractions, schedules, thread
    /// budgets and pipeline depths.
    #[test]
    fn refine_is_bitwise_invariant_to_prefetch(
        seed in 0u64..500,
        policy_idx in 0usize..3,
        frac_idx in 0usize..3,
        schedule_idx in 0usize..3,
        threads_idx in 0usize..2,
        depth in 1usize..9,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let fraction = [1.0 / 3.0, 0.5, 1.0][frac_idx];
        let schedule = [
            ScheduleKind::ModeCentric,
            ScheduleKind::FiberOrder,
            ScheduleKind::HilbertOrder,
        ][schedule_idx];
        // Mirrors CI's TPCP_THREADS ∈ {1, 4} matrix, pinned explicitly so
        // the property holds regardless of the ambient environment.
        let threads = [1usize, 4][threads_idx];

        let x = low_rank(&[8, 8, 8], 2, seed);
        let base = TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(schedule)
            .policy(policy)
            .buffer_fraction(fraction)
            .max_virtual_iters(6)
            .tol(0.0)
            .seed(seed)
            .par(ParConfig::with_threads(threads));

        let dir = scratch(&format!("disk_{seed}_{policy_idx}_{frac_idx}_{schedule_idx}_{threads}_{depth}"));
        let _ = std::fs::remove_dir_all(&dir);

        let off = run_once(
            &x,
            &base.clone().prefetch(PrefetchConfig::disabled()),
            DiskStore::open(dir.join("off")).unwrap(),
        );
        let on = run_once(
            &x,
            &base.clone().prefetch_depth(depth),
            DiskStore::open(dir.join("on")).unwrap(),
        );
        assert_equivalent(&off, &on, &format!("{policy}/{schedule}/f{fraction:.2}/t{threads}/d{depth}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The pipeline actually engages on a constrained buffer — misses are
/// served from staged pages — and the stall accounting registers the
/// synchronous fallbacks on the prefetch-off run.
#[test]
fn prefetch_engages_and_stall_is_accounted() {
    let x = low_rank(&[12, 12, 12], 2, 5);
    let base = TwoPcpConfig::new(2)
        .parts(vec![2])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.5)
        .max_virtual_iters(10)
        .tol(0.0);
    let dir = scratch("engage");
    let _ = std::fs::remove_dir_all(&dir);
    let off = run_once(
        &x,
        &base.clone().prefetch(PrefetchConfig::disabled()),
        DiskStore::open(dir.join("off")).unwrap(),
    );
    let on = run_once(
        &x,
        &base.clone().prefetch_depth(6),
        DiskStore::open(dir.join("on")).unwrap(),
    );
    assert_eq!(off.io.prefetch_hits, 0);
    assert_eq!(off.io.prefetched_bytes, 0);
    assert!(off.io.stall_ns > 0, "sync reads must be timed");
    assert!(
        on.io.prefetch_hits > 0,
        "constrained-buffer misses must hit the pipeline (stats: {})",
        on.io
    );
    assert!(on.io.prefetched_bytes > 0);
    // Swap counts — the Forward policy's Belady-exact metric — unchanged.
    assert_eq!(off.io.fetches, on.io.fetches);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper's own regime in miniature — 24 units through a 3-unit
/// buffer, Hilbert order, forward-looking replacement — with a pipeline
/// as deep as, and deeper than, the staging area. The worker must never
/// read a page the pool then throws away (staging holds one buffer's
/// worth: 3 pages), and must not walk past a unit it could not issue or
/// that was evicted behind the cursor — so all but the cold start's
/// fetches come through the pipeline. Values, as ever, do not move.
#[test]
fn deep_pipeline_over_a_small_buffer_wastes_no_read() {
    let x = low_rank(&[16, 16, 16], 2, 23);
    let base = TwoPcpConfig::new(2)
        .parts(vec![8])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.125)
        .max_virtual_iters(40)
        .tol(0.0);
    let dir = scratch("deep");
    let _ = std::fs::remove_dir_all(&dir);
    let off = run_once(
        &x,
        &base.clone().prefetch(PrefetchConfig::disabled()),
        DiskStore::open(dir.join("off")).unwrap(),
    );
    assert!(off.io.fetches > 200, "the buffer must thrash: {}", off.io);
    for depth in [4, 8] {
        let on = run_once(
            &x,
            &base.clone().prefetch_depth(depth),
            DiskStore::open(dir.join(format!("d{depth}"))).unwrap(),
        );
        assert_equivalent(&off, &on, &format!("depth {depth}"));
        assert_eq!(on.io.prefetch_discarded, 0, "depth {depth}: {}", on.io);
        assert!(
            on.io.prefetch_hits + 2 >= on.io.fetches,
            "depth {depth}: fetches bypassed the pipeline: {}",
            on.io
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
