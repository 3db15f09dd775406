//! End-to-end thread-budget equivalence: the shared `tpcp-par` budget
//! must change *speed*, never *values*.
//!
//! A full order-3 2PCP run (Phase 1 block ALS + Phase 2 out-of-core
//! refinement) on one thread must be **bitwise** identical to the same
//! run on four — fit trace, final factor matrices, and the paper's
//! headline swap counts — across schedules and eviction policies.
//! (The tiled primitives are pinned against the scalar oracle one by one
//! in `tpcp-linalg`'s `kernel_equiv` suite.)

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_partition::DenseMemorySource;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{DiskStore, IoStats, PolicyKind};
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::{refine, run_phase1_source, RefineStats, TwoPcpConfig};

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
    let p1 = run_phase1_source(&mut DenseMemorySource::new(x), cfg, &mut store).unwrap();
    let outcome = refine(&p1.grid, store, cfg, &p1.u_norm_sq).unwrap();
    fingerprint(&outcome.model, &outcome.stats)
}

fn assert_equivalent(serial: &Fingerprint, parallel: &Fingerprint, label: &str) {
    assert_eq!(
        serial.fit_bits, parallel.fit_bits,
        "{label}: fit trace diverged"
    );
    assert_eq!(
        serial.factor_bits, parallel.factor_bits,
        "{label}: factors diverged"
    );
    assert_eq!(
        serial.swaps_per_iteration, parallel.swaps_per_iteration,
        "{label}: per-iteration swaps diverged"
    );
    assert_eq!(serial.io.fetches, parallel.io.fetches, "{label}: swaps");
    assert_eq!(
        serial.io.evictions, parallel.io.evictions,
        "{label}: evictions"
    );
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpcp_pipeline_equiv_{tag}_{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full pipeline, 1 thread vs 4 (CI's `TPCP_THREADS` legs, pinned
    /// explicitly so the property holds regardless of the ambient
    /// environment): bitwise-identical factors, fit trace and swap counts
    /// across seed × schedule × policy cells.
    #[test]
    fn decompose_is_bitwise_invariant_to_thread_budget(
        seed in 0u64..500,
        policy_idx in 0usize..3,
        schedule_idx in 0usize..3,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let schedule = [
            ScheduleKind::ModeCentric,
            ScheduleKind::FiberOrder,
            ScheduleKind::HilbertOrder,
        ][schedule_idx];

        let x = low_rank(&[8, 8, 8], 2, seed);
        let base = TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(schedule)
            .policy(policy)
            .buffer_fraction(0.5)
            .max_virtual_iters(6)
            .tol(0.0)
            .seed(seed);

        let dir = scratch(&format!("{seed}_{policy_idx}_{schedule_idx}"));
        let _ = std::fs::remove_dir_all(&dir);

        let serial = run_once(
            &x,
            &base.clone().par(ParConfig::with_threads(1)),
            &dir.join("t1"),
        );
        let parallel = run_once(&x, &base.par(ParConfig::with_threads(4)), &dir.join("t4"));
        assert_equivalent(&serial, &parallel, &format!("{policy}/{schedule}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The high-level `TwoPcp::decompose_dense` driver (Phase-1 block workers,
/// Phase-2 cache refreshes and the exact-fit pass, all on the configured
/// budget: a resident tensor streams through the same block loop as any
/// other source) is thread-budget invariant end to end.
#[test]
fn driver_outcome_is_thread_budget_invariant() {
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
    let serial = TwoPcp::new(base.clone().threads(1))
        .decompose_dense(&x)
        .unwrap();
    let parallel = TwoPcp::new(base.threads(2)).decompose_dense(&x).unwrap();
    assert_eq!(
        serial.fit.to_bits(),
        parallel.fit.to_bits(),
        "final fit diverged"
    );
    assert_eq!(
        serial.phase2.io.swaps(),
        parallel.phase2.io.swaps(),
        "swap counts diverged"
    );
    for (s, p) in serial
        .model
        .factors
        .iter()
        .zip(parallel.model.factors.iter())
    {
        let sb: Vec<u64> = s.as_slice().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = p.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, pb, "factors diverged");
    }
}
