//! Streaming-ingest acceptance suite: a dense tensor ingested from a
//! file-backed [`BlockSource`] decomposes end-to-end with peak Phase-1
//! materialisation bounded by one block (+ scratch), byte-accounted, and
//! produces factors and exact fit bitwise-identical to the in-memory
//! path, with an in-memory or an on-disk unit store.

use tpcp_datasets::ModelBlockSource;
use tpcp_partition::{write_raw_from_source, BlockSource, FileTensorSource, Grid};
use twopcp::{TwoPcp, TwoPcpConfig, TwoPcpOutcome};

const DIMS: [usize; 3] = [12, 10, 8];
const RANK: usize = 2;
const SEED: u64 = 17;

fn cfg() -> TwoPcpConfig {
    TwoPcpConfig::new(RANK)
        .parts(vec![2])
        .max_virtual_iters(10)
        .tol(1e-4)
        .seed(SEED)
        // Serial budget: the block loop holds exactly one block, which
        // is what the byte-accounting assertions below pin down.
        .threads(1)
}

fn assert_same_factors(a: &TwoPcpOutcome, b: &TwoPcpOutcome) {
    assert_eq!(a.model.weights, b.model.weights);
    assert_eq!(
        a.model.factors, b.model.factors,
        "factors must be bitwise equal"
    );
    assert_eq!(a.phase2.swaps_per_iteration, b.phase2.swaps_per_iteration);
}

/// Largest single block of the run's grid, in dense bytes.
fn largest_block_bytes(grid: &Grid) -> u64 {
    grid.iter_blocks()
        .map(|c| grid.block_dims(&c).iter().product::<usize>() * 8)
        .max()
        .unwrap() as u64
}

#[test]
fn file_backed_ingest_matches_in_memory_bitwise() {
    // The reference tensor, materialised once for the in-memory baseline.
    let mut generator = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    let grid = Grid::new(&DIMS, &[2, 2, 2]);
    let x = generator.materialize(&grid);

    // Lay the tensor out on disk by streaming generator blocks — the full
    // tensor is never needed to build the file.
    let path = std::env::temp_dir().join(format!("tpcp_ingest_accept_{}.raw", std::process::id()));
    let mut fresh = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    write_raw_from_source(&path, &mut fresh, &grid).unwrap();

    let in_memory = TwoPcp::new(cfg()).decompose_dense(&x).unwrap();

    let mut src = FileTensorSource::open(&path).unwrap();
    let outcome = TwoPcp::new(cfg()).decompose_source(&mut src).unwrap();

    // Factors and exact fit bitwise-identical to the in-memory path: a
    // resident tensor is streamed through the same block loop.
    assert_same_factors(&in_memory, &outcome);
    assert_eq!(outcome.fit.to_bits(), in_memory.fit.to_bits());

    // Byte accounting: with a serial budget Phase 1 materialised at
    // most one block at a time…
    let limit = largest_block_bytes(&outcome.phase1.grid);
    assert_eq!(outcome.phase1.peak_block_bytes, limit);
    // …the whole tensor streamed through exactly once during Phase 1…
    assert_eq!(outcome.phase1.ingested_bytes, (x.len() * 8) as u64);
    // …and the file reader's span buffer stayed within its bound,
    // max(64 KiB, one last-mode run) — the "+ scratch" term (the
    // longest mode-2 partition here is 4 cells × 8 bytes, so the
    // 64 KiB cap is the bound).
    assert!(
        src.scratch_bytes() <= 64 << 10,
        "scratch {}",
        src.scratch_bytes()
    );
    // Phase 1 + the exact-accuracy re-stream: two passes total.
    assert_eq!(src.bytes_loaded(), 2 * (x.len() * 8) as u64);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn generator_ingest_matches_in_memory_bitwise() {
    let mut generator = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    let grid = Grid::new(&DIMS, &[2, 2, 2]);
    let x = generator.materialize(&grid);

    let in_memory = TwoPcp::new(cfg()).decompose_dense(&x).unwrap();
    let mut src = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    let streamed = TwoPcp::new(cfg()).decompose_source(&mut src).unwrap();
    assert_same_factors(&in_memory, &streamed);
    assert_eq!(streamed.fit.to_bits(), in_memory.fit.to_bits());
    assert!(streamed.fit > 0.9, "fit {}", streamed.fit);
}

#[test]
fn file_backed_out_of_core_run_on_disk_store() {
    // Ingest from disk *and* refine against the on-disk unit store under a
    // constrained buffer — the full never-in-RAM configuration — and match
    // the resident tensor refined against an in-memory store, bit for bit.
    let mut generator = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    let grid = Grid::new(&DIMS, &[2, 2, 2]);
    let x = generator.materialize(&grid);
    let path = std::env::temp_dir().join(format!("tpcp_ingest_ooc_{}.raw", std::process::id()));
    let mut fresh = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    write_raw_from_source(&path, &mut fresh, &grid).unwrap();
    let root = std::env::temp_dir().join(format!("tpcp_ingest_ooc_wd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let constrained = cfg().buffer_fraction(0.5);
    let in_memory = TwoPcp::new(constrained.clone())
        .decompose_dense(&x)
        .unwrap();
    let mut src = FileTensorSource::open(&path).unwrap();
    let on_disk = TwoPcp::new(constrained.work_dir(&root))
        .decompose_source(&mut src)
        .unwrap();
    assert_same_factors(&in_memory, &on_disk);
    assert_eq!(on_disk.fit.to_bits(), in_memory.fit.to_bits());
    assert!(on_disk.phase2.io.fetches > 0);
    assert_eq!(on_disk.phase2.io.fetches, in_memory.phase2.io.fetches);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&path);
}

/// A NaN and an infinity planted in one block of a tensor file stop the
/// run before any ALS touches them, in the two-phase and the compress
/// pipelines alike: a typed ingest error naming the block and the first
/// offending cell (row-major within the block), never a panic or a NaN
/// factor.
#[test]
fn non_finite_cells_in_a_file_are_a_typed_error() {
    use tpcp_partition::SourceError;
    use twopcp::{CompressOptions, TwoPcpError};

    let mut generator = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    let grid = Grid::new(&DIMS, &[2, 2, 2]);
    let mut x = generator.materialize(&grid);
    // Block (1, 0, 1) spans rows 6..12, 0..5, 4..8.
    let block = grid.block_linear(&[1, 0, 1]);
    x.set(&[7, 3, 5], f64::INFINITY).unwrap();
    x.set(&[9, 1, 6], f64::NAN).unwrap();
    let path =
        std::env::temp_dir().join(format!("tpcp_ingest_nonfinite_{}.tns", std::process::id()));

    let compress = CompressOptions::builder()
        .mlrank(vec![RANK + 1; DIMS.len()])
        .build()
        .unwrap();
    let configs = [
        ("two-phase, serial", cfg()),
        ("two-phase, 2 threads", cfg().threads(2)),
        ("compress", cfg().compress(compress)),
    ];
    // First the infinity (it precedes the NaN in the block's row-major
    // order), then, with it mended, the NaN.
    for (planted, cell) in [("inf", [7, 3, 5]), ("nan", [9, 1, 6])] {
        if planted == "nan" {
            x.set(&[7, 3, 5], 1.0).unwrap();
        }
        FileTensorSource::write_dense(&path, &x).unwrap();
        for (label, config) in &configs {
            let mut src = FileTensorSource::open(&path).unwrap();
            match TwoPcp::new(config.clone()).decompose_source(&mut src) {
                Err(TwoPcpError::Ingest(SourceError::NonFinite {
                    block: b,
                    cell: c,
                    value,
                })) => {
                    assert_eq!(b, block, "{label}, {planted}");
                    assert_eq!(c, cell.to_vec(), "{label}, {planted}");
                    assert_eq!(format!("{value}").to_lowercase(), planted, "{label}");
                }
                Err(e) => panic!("{label}, {planted}: wrong error {e}"),
                Ok(_) => panic!("{label}, {planted}: non-finite data decomposed"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
