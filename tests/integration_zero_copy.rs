//! Integration tests of the zero-copy page I/O path: the mmap-backed
//! stores and codec v2 must move bytes, never values — end-to-end
//! `decompose`/`decompose_source` results (factors, fits, swap counts)
//! are bitwise identical with the mmap flag on or off, with or without
//! prefetch, under resident and streaming ingest; and legacy v1 pages
//! written by earlier builds decode under the current store stack.

use tpcp_datasets::{low_rank_dense, ModelBlockSource};
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{codec, DiskStore, PolicyKind, PrefetchConfig, UnitData, UnitStore};
use twopcp::{TwoPcp, TwoPcpConfig, TwoPcpOutcome};

fn assert_bitwise_equal(a: &TwoPcpOutcome, b: &TwoPcpOutcome) {
    assert_eq!(a.fit.to_bits(), b.fit.to_bits(), "exact fit must match");
    assert_eq!(a.model.weights, b.model.weights);
    assert_eq!(
        a.model.factors, b.model.factors,
        "factors must be bitwise equal"
    );
    assert_eq!(a.phase1.block_fits, b.phase1.block_fits);
    assert_eq!(
        a.phase2.swaps_per_iteration, b.phase2.swaps_per_iteration,
        "swap counts must match"
    );
    assert_eq!(a.phase2.fit_trace, b.phase2.fit_trace);
    assert_eq!(a.phase2.io.fetches, b.phase2.io.fetches);
    assert_eq!(a.phase2.io.hits, b.phase2.io.hits);
    assert_eq!(a.phase2.io.evictions, b.phase2.io.evictions);
    assert_eq!(a.phase2.io.write_backs, b.phase2.io.write_backs);
    assert_eq!(a.phase2.io.bytes_read, b.phase2.io.bytes_read);
    assert_eq!(a.phase2.io.bytes_written, b.phase2.io.bytes_written);
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tpcp_zero_copy_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_cfg() -> TwoPcpConfig {
    TwoPcpConfig::new(2)
        .parts(vec![2])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.5)
        .max_virtual_iters(10)
        .tol(0.0)
        .seed(17)
}

/// The core acceptance gate: with prefetch disabled every fetch goes
/// through the synchronous path, so the mmap run exercises the pool's
/// borrowed-slab admission on each swap — and must still be bitwise
/// identical to the buffered run.
#[test]
fn mmap_is_bit_identical_synchronous_path() {
    let x = low_rank_dense(&[10, 10, 10], 2, 0.05, 3);
    let root = tmp("sync");
    let run = |mmap: bool| {
        TwoPcp::new(
            base_cfg()
                .prefetch(PrefetchConfig::disabled())
                .work_dir(root.join(if mmap { "on" } else { "off" }))
                .mmap(mmap),
        )
        .decompose_dense(&x)
        .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert_bitwise_equal(&off, &on);
    assert!(on.phase2.io.fetches > 0, "constrained buffer must swap");
    // Transport differs even though values do not: on Unix a synchronous
    // fetch of the mmap run borrows the mapped page for as long as that
    // page is the whole unit — all six fetches of the P/Q-initialisation
    // scan, at least — and once a unit's factor has been written back
    // the store decodes from the map and overlays the factor file itself.
    #[cfg(unix)]
    {
        assert!(on.phase2.io.borrowed_reads >= 6, "{}", on.phase2.io);
        assert!(on.phase2.io.borrowed_reads < on.phase2.io.fetches);
        assert_eq!(off.phase2.io.borrowed_reads, 0);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Mmap × prefetch: the pipeline's background reader decodes from its own
/// maps; results stay bitwise identical to the buffered, non-prefetching
/// run.
#[test]
fn mmap_is_bit_identical_with_prefetch_pipeline() {
    let x = low_rank_dense(&[8, 8, 8], 2, 0.05, 9);
    let root = tmp("prefetch");
    let run = |mmap: bool, depth: usize| {
        TwoPcp::new(
            base_cfg()
                .prefetch(PrefetchConfig::with_depth(depth))
                .work_dir(root.join(format!("m{mmap}_d{depth}")))
                .mmap(mmap),
        )
        .decompose_dense(&x)
        .unwrap()
    };
    let reference = run(false, 0);
    for (mmap, depth) in [(true, 0), (false, 4), (true, 4)] {
        assert_bitwise_equal(&reference, &run(mmap, depth));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Mmap × streaming ingest: `decompose_source` over a generator source,
/// mmap on vs off.
#[test]
fn mmap_is_bit_identical_streaming() {
    let dims = [8usize, 8, 8];
    let root = tmp("streaming");
    let run = |mmap: bool| {
        let mut src = ModelBlockSource::low_rank(&dims, 2, 21);
        TwoPcp::new(
            base_cfg()
                .work_dir(root.join(if mmap { "on" } else { "off" }))
                .mmap(mmap),
        )
        .decompose_source(&mut src)
        .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert_bitwise_equal(&off, &on);
    let _ = std::fs::remove_dir_all(&root);
}

/// Back compatibility: pages written in the legacy v1 layout (as by
/// builds before codec v2) must decode through the whole store stack —
/// buffered and mmap-backed alike.
#[test]
fn v1_pages_decode_through_the_store_stack() {
    use tpcp_linalg::Mat;
    use tpcp_schedule::UnitId;

    let root = tmp("v1_pages");
    std::fs::create_dir_all(&root).unwrap();
    let unit = UnitData {
        unit: UnitId::new(1, 4),
        factor: Mat::from_rows(&[&[1.5, -2.0], &[0.25, 8.0]]),
        sub_factors: vec![(3, Mat::from_rows(&[&[9.0], &[-1.0]]))],
    };
    // Lay the v1 page down exactly where the store expects its file.
    let store = DiskStore::open_with(&root, false).unwrap();
    std::fs::write(store.unit_path(unit.unit), codec::encode_v1(&unit)).unwrap();
    drop(store);

    for mmap in [false, true] {
        let mut s = DiskStore::open_with(&root, mmap).unwrap();
        assert!(s.contains(unit.unit));
        assert_eq!(s.read(unit.unit).unwrap(), unit, "mmap={mmap}");
    }
    // An overwrite through the current store upgrades the page to v2.
    let mut s = DiskStore::open_with(&root, false).unwrap();
    s.write(&unit).unwrap();
    let page = std::fs::read(s.unit_path(unit.unit)).unwrap();
    assert_eq!(u32::from_le_bytes(page[8..12].try_into().unwrap()), 2);
    assert_eq!(s.read(unit.unit).unwrap(), unit);
    let _ = std::fs::remove_dir_all(&root);
}
