//! The default N-way path end to end: an order-4 tensor file goes through
//! `decompose_source` — Phase 1 sweeping every block on the contraction
//! tree, the exact fit riding on the one-shot MTTKRP, blocks cut by
//! coalesced span reads — and comes out accurate, bitwise independent of
//! the thread budget, and bitwise what the in-memory path produces.

use tpcp_datasets::low_rank_dense;
use tpcp_partition::{BlockSource, FileTensorSource};
use twopcp::{TwoPcp, TwoPcpConfig, TwoPcpOutcome};

const DIMS: [usize; 4] = [12, 10, 11, 9];
const RANK: usize = 3;

fn cfg(threads: usize) -> TwoPcpConfig {
    TwoPcpConfig::new(RANK)
        .parts(vec![2])
        .max_virtual_iters(30)
        .tol(0.0)
        .seed(5)
        .threads(threads)
}

fn assert_same_factors(a: &TwoPcpOutcome, b: &TwoPcpOutcome, what: &str) {
    let bits = |o: &TwoPcpOutcome| -> Vec<Vec<u64>> {
        std::iter::once(&o.model.weights[..])
            .chain(o.model.factors.iter().map(|f| f.as_slice()))
            .map(|vals| vals.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: factors must be bitwise equal");
    assert_eq!(a.phase1.block_fits, b.phase1.block_fits, "{what}");
    assert_eq!(a.phase1.block_norms_sq, b.phase1.block_norms_sq, "{what}");
}

#[test]
fn order4_file_decomposes_accurately_and_bitwise_reproducibly() {
    let x = low_rank_dense(&DIMS, RANK, 0.02, 23);
    let path = std::env::temp_dir().join(format!("tpcp_order4_{}.raw", std::process::id()));
    FileTensorSource::write_dense(&path, &x).unwrap();

    let run = |threads: usize| {
        let mut src = FileTensorSource::open(&path).unwrap();
        let outcome = TwoPcp::new(cfg(threads))
            .decompose_source(&mut src)
            .unwrap();
        // Phase 1 and the exact-fit re-stream: two passes over the file.
        assert_eq!(src.bytes_loaded(), 2 * (x.len() * 8) as u64);
        outcome
    };
    let serial = run(1);
    let two = run(2);
    let in_memory = TwoPcp::new(cfg(2)).decompose_dense(&x).unwrap();

    assert!(serial.fit >= 0.95, "fit {}", serial.fit);
    assert_eq!(serial.model.dims(), DIMS.to_vec());
    assert_same_factors(&serial, &two, "threads 1 vs 2");
    assert_same_factors(&two, &in_memory, "file vs in-memory");
    // The streaming fit is summed in block order whatever the budget…
    assert_eq!(serial.fit.to_bits(), two.fit.to_bits());
    // …and agrees with the monolithic fit of the resident tensor to
    // rounding (different summation order).
    assert!((two.fit - in_memory.fit).abs() < 1e-9);
    let _ = std::fs::remove_file(&path);
}
