//! Cross-crate integration tests of the full two-phase pipeline.

use tpcp_datasets::{ensemble_like, low_rank_dense};
use tpcp_partition::{DenseMemorySource, Grid};
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use twopcp::{accuracy, TwoPcp, TwoPcpConfig};

/// 2PCP must be competitive with direct (unpartitioned) CP-ALS on
/// recoverable low-rank data — the block decomposition and stitching
/// should not lose the structure.
#[test]
fn two_phase_matches_direct_als_fit() {
    let x = low_rank_dense(&[16, 16, 16], 3, 0.01, 5);

    let direct = tpcp_cp::cp_als_dense(
        &x,
        &tpcp_cp::AlsOptions::builder()
            .rank(3)
            .max_iters(60)
            .tol(1e-6)
            .build()
            .unwrap(),
    )
    .unwrap();

    let outcome = TwoPcp::new(
        TwoPcpConfig::new(3)
            .parts(vec![2])
            .max_virtual_iters(80)
            .tol(1e-6),
    )
    .decompose_dense(&x)
    .unwrap();

    assert!(direct.final_fit > 0.99, "direct fit {}", direct.final_fit);
    assert!(
        outcome.fit > direct.final_fit - 0.03,
        "2PCP fit {} vs direct {}",
        outcome.fit,
        direct.final_fit
    );
}

/// The storage backend must be transparent: disk-backed and in-memory
/// stores produce bit-identical results and identical swap sequences.
#[test]
fn disk_and_memory_stores_agree_bitwise() {
    let x = ensemble_like(&[12, 12, 12], 2, 0.05, 9);
    let base = TwoPcpConfig::new(2)
        .parts(vec![2])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.5)
        .max_virtual_iters(12)
        .tol(0.0)
        .seed(4);

    let mem = TwoPcp::new(base.clone()).decompose_dense(&x).unwrap();

    let dir = std::env::temp_dir().join(format!("tpcp_it_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = TwoPcp::new(base.work_dir(&dir))
        .decompose_dense(&x)
        .unwrap();

    assert_eq!(mem.fit, disk.fit);
    assert_eq!(mem.model.weights, disk.model.weights);
    for (a, b) in mem.model.factors.iter().zip(&disk.model.factors) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
    assert_eq!(
        mem.phase2.swaps_per_iteration,
        disk.phase2.swaps_per_iteration
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The driver's fit is the blockwise streaming accuracy pass, and it
/// agrees with the fit computed over the whole tensor.
#[test]
fn blockwise_accuracy_matches_global() {
    let x = low_rank_dense(&[12, 9, 6], 2, 0.1, 21);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![3, 3, 2])
            .max_virtual_iters(30)
            .tol(1e-5),
    )
    .decompose_dense(&x)
    .unwrap();

    let grid = Grid::new(x.dims(), &[3, 3, 2]);
    let mut src = DenseMemorySource::new(&x);
    let blockwise = accuracy::blockwise_fit_source(&outcome.model, &grid, &mut src).unwrap();
    assert_eq!(outcome.fit.to_bits(), blockwise.to_bits());
    let global = outcome.model.fit_dense(&x).unwrap();
    assert!(
        (global - blockwise).abs() < 1e-6,
        "global {global} vs blockwise {blockwise}"
    );
}

/// Uneven partition sizes (dims not divisible by the grid) must work end
/// to end.
#[test]
fn uneven_partitions_work() {
    let x = low_rank_dense(&[13, 11, 7], 2, 0.05, 8);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![3, 2, 2])
            .max_virtual_iters(40)
            .tol(1e-5),
    )
    .decompose_dense(&x)
    .unwrap();
    assert!(outcome.fit > 0.9, "fit {}", outcome.fit);
    assert_eq!(outcome.model.dims(), vec![13, 11, 7]);
}

/// Four-mode tensors exercise the contraction-tree (non-3-mode) paths.
#[test]
fn four_mode_tensor_end_to_end() {
    let x = low_rank_dense(&[6, 6, 6, 6], 2, 0.02, 3);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(ScheduleKind::ZOrder)
            .max_virtual_iters(40)
            .tol(1e-5),
    )
    .decompose_dense(&x)
    .unwrap();
    assert!(outcome.fit > 0.9, "fit {}", outcome.fit);
}
