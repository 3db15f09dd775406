//! Quickstart: decompose a dense tensor with 2PCP in a dozen lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tpcp_datasets::low_rank_dense;
use twopcp::{TwoPcp, TwoPcpConfig};

fn main() {
    // A 32×32×32 dense tensor with hidden rank-4 structure plus noise.
    let x = low_rank_dense(&[32, 32, 32], 4, 0.05, 42);
    println!(
        "input: {:?} ({} cells, {:.0}% non-zero)",
        x.dims(),
        x.len(),
        100.0 * x.nnz() as f64 / x.len() as f64
    );

    // Rank-4 decomposition over a 2×2×2 block grid. With the default
    // in-memory store and a full-size buffer this is the "everything
    // fits" configuration; see the `out_of_core` example for the
    // disk-backed one. The builder validates the settings up front
    // (zero rank, empty grids and the like are rejected here, not
    // deep inside phase 1).
    let config = TwoPcpConfig::builder()
        .rank(4)
        .parts(vec![2])
        .seed(1)
        .build()
        .expect("invalid configuration");
    let outcome = TwoPcp::new(config)
        .decompose_dense(&x)
        .expect("decomposition failed");

    println!(
        "phase 1: {} blocks decomposed in {:?} (mean block fit {:.4})",
        outcome.phase1.grid.num_blocks(),
        outcome.phase1_time,
        outcome.phase1.block_fits.iter().sum::<f64>() / outcome.phase1.block_fits.len() as f64,
    );
    println!(
        "phase 2: {} virtual iterations in {:?} (converged: {})",
        outcome.phase2.virtual_iterations, outcome.phase2_time, outcome.phase2.converged,
    );
    println!("accuracy (1 - relative error): {:.4}", outcome.fit);

    // The model is a standard weighted CP decomposition.
    let model = &outcome.model;
    println!(
        "model: rank {} over modes {:?}, component weights {:?}",
        model.rank(),
        model.dims(),
        model
            .weights
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect::<Vec<_>>(),
    );
}
