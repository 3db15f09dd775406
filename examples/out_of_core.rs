//! Out-of-core decomposition: disk-backed unit store, constrained buffer,
//! and the effect of the replacement policy on I/O — then the fully
//! streaming configuration, where even the *input* tensor lives on disk
//! and is ingested block-by-block through a `BlockSource`.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use tpcp_datasets::{dense_uniform, ModelBlockSource};
use tpcp_partition::{write_raw_from_source, FileTensorSource, Grid};
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use twopcp::{TwoPcp, TwoPcpConfig};

fn main() {
    // A 48³ tensor of density 0.49 — the Table II workload, scaled down.
    let x = dense_uniform(&[48, 48, 48], 0.49, 7);
    let scratch = std::env::temp_dir().join(format!("tpcp_example_ooc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "decomposing {:?} out-of-core (buffer = 1/3 of working set)\n",
        x.dims()
    );
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8}",
        "policy", "swaps", "hits", "bytes read", "written", "stall ms", "pf drop", "pf hits", "fit"
    );
    for policy in PolicyKind::ALL {
        let config = TwoPcpConfig::new(8)
            .parts(vec![4])
            .schedule(ScheduleKind::HilbertOrder)
            .policy(policy)
            .buffer_fraction(1.0 / 3.0)
            .max_virtual_iters(30)
            .tol(1e-3)
            .work_dir(scratch.join(policy.abbrev()));
        let outcome = TwoPcp::new(config)
            .decompose_dense(&x)
            .expect("decomposition failed");
        let io = outcome.phase2.io;
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>12} {:>9.2} {:>8} {:>8} {:>8.4}",
            policy.abbrev(),
            io.fetches,
            io.hits,
            io.bytes_read,
            io.bytes_written,
            io.stall_ms(),
            io.prefetch_discarded,
            io.prefetch_hits,
            outcome.fit,
        );
    }
    println!(
        "\nSame schedule, same math — only the eviction decisions differ.\n\
         The forward-looking (FOR) policy knows the Hilbert traversal and\n\
         evicts the unit needed furthest in the future (paper §VII-B)."
    );

    // ---- Streaming ingest: the tensor itself never fits in RAM ----------
    // Lay a synthetic tensor out on disk by streaming generator blocks
    // (the full tensor is never materialised), then decompose straight
    // from the file through a `FileTensorSource` into the on-disk unit store.
    let dims = [32usize, 32, 32];
    let rank = 4;
    let grid = Grid::new(&dims, &[2, 2, 2]);
    let raw = scratch.join("input.raw");
    let mut generator = ModelBlockSource::low_rank(&dims, rank, 7);
    write_raw_from_source(&raw, &mut generator, &grid).expect("writing the raw tensor file");

    let mut src = FileTensorSource::open(&raw).expect("opening the raw tensor file");
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(rank)
            .parts(vec![2])
            .buffer_fraction(0.5)
            .max_virtual_iters(20)
            .tol(1e-3)
            // Serial ingest: peak residency is exactly one block,
            // independent of the machine's core count.
            .threads(1)
            .work_dir(scratch.join("streaming")),
    )
    .decompose_source(&mut src)
    .expect("streaming decomposition failed");
    let tensor_bytes = dims.iter().product::<usize>() * 8;
    println!(
        "\nstreaming ingest from {raw:?}:\n\
         fit {:.4}; tensor {} B on disk, peak phase-1 residency {} B \
         ({}x smaller), {} B streamed",
        outcome.fit,
        tensor_bytes,
        outcome.phase1.peak_block_bytes,
        tensor_bytes as u64 / outcome.phase1.peak_block_bytes.max(1),
        outcome.phase1.ingested_bytes,
    );
    assert!(
        outcome.phase1.peak_block_bytes < tensor_bytes as u64 / 4,
        "streaming ingest must stay well under the tensor size"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
