//! Streaming-ingest acceptance suite: a dense tensor ingested from a
//! file-backed [`BlockSource`] decomposes end-to-end with peak Phase-1
//! materialisation bounded by one block (+ scratch), byte-accounted, and
//! produces factors bitwise-identical to the in-memory path at shard
//! counts 1 and 3.

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
        // Serial budget: the streaming batch is exactly one block, which
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
fn file_backed_ingest_matches_in_memory_bitwise_at_1_and_3_shards() {
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

    for shards in [1usize, 3] {
        let mut src = FileTensorSource::open(&path).unwrap();
        let outcome = TwoPcp::new(cfg().shards(shards))
            .decompose_source(&mut src)
            .unwrap();

        // Factors bitwise-identical to the in-memory path.
        assert_same_factors(&in_memory, &outcome);
        // The streaming exact fit agrees with the monolithic fit to
        // rounding (different summation order).
        assert!((outcome.fit - in_memory.fit).abs() < 1e-9);

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
    }
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
    assert!(streamed.fit > 0.9, "fit {}", streamed.fit);
}

#[test]
fn file_backed_out_of_core_run_with_sharded_disk_store() {
    // Ingest from disk *and* refine against sharded on-disk unit stores
    // under a constrained buffer — the full never-in-RAM configuration.
    let mut generator = ModelBlockSource::low_rank(&DIMS, RANK, SEED);
    let grid = Grid::new(&DIMS, &[2, 2, 2]);
    let path = std::env::temp_dir().join(format!("tpcp_ingest_ooc_{}.raw", std::process::id()));
    write_raw_from_source(&path, &mut generator, &grid).unwrap();
    let root = std::env::temp_dir().join(format!("tpcp_ingest_ooc_wd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let run = |shards: usize| {
        let mut src = FileTensorSource::open(&path).unwrap();
        TwoPcp::new(
            cfg()
                .buffer_fraction(0.5)
                .shards(shards)
                .work_dir(root.join(format!("s{shards}"))),
        )
        .decompose_source(&mut src)
        .unwrap()
    };
    let single = run(1);
    let sharded = run(3);
    assert_same_factors(&single, &sharded);
    assert_eq!(single.fit.to_bits(), sharded.fit.to_bits());
    assert!(sharded.phase2.io.fetches > 0);
    // The sharded run's unit pages really live in several shard
    // directories.
    let shard_dirs = (0..3)
        .filter(|i| {
            std::fs::read_dir(root.join("s3").join("units").join(format!("shard_{i}")))
                .map(|d| d.count() > 0)
                .unwrap_or(false)
        })
        .count();
    assert!(shard_dirs > 1, "units must spread across shard directories");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&path);
}
