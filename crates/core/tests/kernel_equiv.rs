//! End-to-end kernel-backend equivalence: the tiled microkernels must
//! change *speed*, never *values*.
//!
//! A full 2PCP run (Phase 1 block ALS + Phase 2 out-of-core refinement)
//! with `KernelKind::Tiled` must be **bitwise** identical to the same run
//! with `KernelKind::Reference` — fit trace, final factor matrices, and
//! the paper's headline swap counts — across schedules, eviction
//! policies and thread budgets.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{DiskStore, IoStats, PolicyKind};
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::{refine, run_phase1_dense, KernelKind, RefineStats, TwoPcpConfig};

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

fn run_once(x: &DenseTensor, cfg: &TwoPcpConfig, dir: &std::path::Path) -> Fingerprint {
    let mut store = DiskStore::open(dir).unwrap();
    let p1 = run_phase1_dense(x, cfg, &mut store).unwrap();
    let outcome = refine(&p1.grid, store, cfg, &p1.u_norm_sq).unwrap();
    fingerprint(&outcome.model, &outcome.stats)
}

fn assert_equivalent(reference: &Fingerprint, tiled: &Fingerprint, label: &str) {
    assert_eq!(
        reference.fit_bits, tiled.fit_bits,
        "{label}: fit trace diverged"
    );
    assert_eq!(
        reference.factor_bits, tiled.factor_bits,
        "{label}: factors diverged"
    );
    assert_eq!(
        reference.swaps_per_iteration, tiled.swaps_per_iteration,
        "{label}: per-iteration swaps diverged"
    );
    assert_eq!(reference.io.fetches, tiled.io.fetches, "{label}: swaps");
    assert_eq!(
        reference.io.evictions, tiled.io.evictions,
        "{label}: evictions"
    );
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpcp_kern_equiv_{tag}_{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full pipeline, Reference vs Tiled: bitwise-identical factors, fit
    /// trace and swap counts across schedule/policy/thread cells.
    #[test]
    fn decompose_is_bitwise_invariant_to_kernel_backend(
        seed in 0u64..500,
        policy_idx in 0usize..3,
        schedule_idx in 0usize..3,
        threads_idx in 0usize..2,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
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
            .buffer_fraction(0.5)
            .max_virtual_iters(6)
            .tol(0.0)
            .seed(seed)
            .par(ParConfig::with_threads(threads));

        let dir = scratch(&format!("{seed}_{policy_idx}_{schedule_idx}_{threads}"));
        let _ = std::fs::remove_dir_all(&dir);

        let reference = run_once(
            &x,
            &base.clone().kernel(KernelKind::Reference),
            &dir.join("ref"),
        );
        let tiled = run_once(&x, &base.clone().kernel(KernelKind::Tiled), &dir.join("tiled"));
        assert_equivalent(
            &reference,
            &tiled,
            &format!("{policy}/{schedule}/t{threads}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The high-level `TwoPcp::decompose_dense` driver (which also routes the
/// Phase-1 ALS through the seam) is backend-invariant end to end.
#[test]
fn driver_outcome_is_backend_invariant() {
    use twopcp::TwoPcp;
    let x = low_rank(&[10, 9, 8], 3, 21);
    let base = TwoPcpConfig::new(3)
        .parts(vec![2, 2, 2])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.5)
        .max_virtual_iters(5)
        .tol(0.0)
        .seed(9);
    let reference = TwoPcp::new(base.clone().kernel(KernelKind::Reference))
        .decompose_dense(&x)
        .unwrap();
    let tiled = TwoPcp::new(base.kernel(KernelKind::Tiled))
        .decompose_dense(&x)
        .unwrap();
    assert_eq!(
        reference.fit.to_bits(),
        tiled.fit.to_bits(),
        "final fit diverged"
    );
    assert_eq!(
        reference.phase2.io.swaps(),
        tiled.phase2.io.swaps(),
        "swap counts diverged"
    );
    for (r, t) in reference
        .model
        .factors
        .iter()
        .zip(tiled.model.factors.iter())
    {
        let rb: Vec<u64> = r.as_slice().iter().map(|v| v.to_bits()).collect();
        let tb: Vec<u64> = t.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(rb, tb, "factors diverged");
    }
}
