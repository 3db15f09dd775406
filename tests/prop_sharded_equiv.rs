//! Sharded-equivalence property suite: routing data-access units across
//! `S` unit-store shards must move bytes, never values. For every input
//! kind (dense, sparse) and store (memory, disk) a sharded run
//! (`TwoPcpConfig::shards`, the programmatic face of `TPCP_SHARDS`) must
//! produce *bitwise-identical* factors, weights, fits and swap counts to
//! the single-store run.

use proptest::prelude::*;
use tpcp_datasets::{low_rank_dense, low_rank_sparse};
use twopcp::{TwoPcp, TwoPcpConfig, TwoPcpOutcome};

fn assert_bitwise_equal(a: &TwoPcpOutcome, b: &TwoPcpOutcome) {
    assert_eq!(a.fit.to_bits(), b.fit.to_bits(), "exact fit must match");
    assert_eq!(a.model.weights, b.model.weights);
    assert_eq!(
        a.model.factors, b.model.factors,
        "factors must be bitwise equal"
    );
    assert_eq!(a.phase1.block_fits, b.phase1.block_fits);
    assert_eq!(a.phase1.u_norm_sq, b.phase1.u_norm_sq);
    assert_eq!(a.phase1.total_unit_bytes, b.phase1.total_unit_bytes);
    assert_eq!(
        a.phase2.swaps_per_iteration, b.phase2.swaps_per_iteration,
        "swap counts must match"
    );
    assert_eq!(a.phase2.fit_trace, b.phase2.fit_trace);
}

fn base_cfg(rank: usize, parts: usize, seed: u64) -> TwoPcpConfig {
    TwoPcpConfig::new(rank)
        .parts(vec![parts])
        .buffer_fraction(0.5)
        .max_virtual_iters(8)
        .tol(1e-3)
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Dense in-process Phase 1: 1 vs 3 shards, in-memory stores.
    #[test]
    fn dense_sharded_runs_are_bitwise_identical(
        seed in 0u64..500,
        parts in 2usize..4,
        rank in 1usize..4,
    ) {
        let dims = [parts * 3, parts * 2, parts * 3];
        let x = low_rank_dense(&dims, rank, 0.1, seed);
        let single = TwoPcp::new(base_cfg(rank, parts, seed).shards(1))
            .decompose_dense(&x).unwrap();
        let sharded = TwoPcp::new(base_cfg(rank, parts, seed).shards(3))
            .decompose_dense(&x).unwrap();
        assert_bitwise_equal(&single, &sharded);
    }

    /// Sparse in-process Phase 1: 1 vs 3 shards.
    #[test]
    fn sparse_sharded_runs_are_bitwise_identical(
        seed in 0u64..500,
        parts in 2usize..4,
    ) {
        let dims = [parts * 4, parts * 3, parts * 2];
        let x = low_rank_sparse(&dims, 0.3, 2, 0.05, seed);
        let single = TwoPcp::new(base_cfg(2, parts, seed).shards(1))
            .decompose_sparse(&x).unwrap();
        let sharded = TwoPcp::new(base_cfg(2, parts, seed).shards(3))
            .decompose_sparse(&x).unwrap();
        assert_bitwise_equal(&single, &sharded);
    }

    /// Out-of-core configuration: disk-backed sharded stores with a
    /// constrained buffer still agree bitwise and do real I/O.
    #[test]
    fn disk_sharded_out_of_core_is_bitwise_identical(
        seed in 0u64..500,
        frac_idx in 0usize..2,
    ) {
        let fraction = [1.0 / 3.0, 0.5][frac_idx];
        let x = low_rank_dense(&[8, 8, 8], 2, 0.1, seed);
        let root = std::env::temp_dir().join(format!(
            "tpcp_prop_shard_disk_{}_{seed}_{frac_idx}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let run = |shards: usize| {
            TwoPcp::new(
                base_cfg(2, 2, seed)
                    .buffer_fraction(fraction)
                    .shards(shards)
                    .work_dir(root.join(format!("s{shards}"))),
            )
            .decompose_dense(&x)
            .unwrap()
        };
        let single = run(1);
        let sharded = run(3);
        assert_bitwise_equal(&single, &sharded);
        assert!(sharded.phase2.io.fetches > 0, "constrained buffer must swap");
        assert_eq!(single.phase2.io.fetches, sharded.phase2.io.fetches);
        let _ = std::fs::remove_dir_all(&root);
    }
}
