//! Ablation microbenchmarks: each group pits one design choice against
//! its alternative. Beside each group is the document or paper section
//! that motivates the choice.
//!
//! * `curves/*` — Gray vs Morton vs Hilbert mapping cost (paper §VI-C2
//!   argues Z-order has the cheaper mapping);
//! * `schedules/*` — Hilbert- vs Gray-order swap counts on an 8³ grid
//!   (§VI-C2's order-based schedules; Gray order is this repo's
//!   extension);
//! * `mttkrp/*` — the fused 3-mode kernel vs the textbook unfold·Khatri-Rao
//!   materialisation (`docs/kernels.md`, "The tiled microkernels");
//! * `mttkrp_par/*` — the fused kernel's thread scaling, serial vs 2 vs 4
//!   workers on the `tpcp-par` budget: results are bit-identical, only
//!   the wall clock moves (`docs/kernels.md`, "Parallel chunking");
//! * `pq/*` — in-place cached `P` refresh vs recomputing the slab's `P`
//!   matrices from scratch on every update (paper Observation #2);
//! * `fit/*` — the zero-I/O surrogate fit phase 2 stops on vs the exact
//!   fit against the tensor (paper §III-B);
//! * `solve/*` — the ridge-guarded Cholesky solve `T·S⁻¹` that ends every
//!   ALS and phase-2 update (paper eq. 3);
//! * `prefetch/*` — the asynchronous phase-2 I/O pipeline on vs off
//!   (policy × buffer fraction), with per-cell `stall_ns`/swap reporting
//!   (`docs/storage.md`, "The prefetcher reads only what it can keep");
//! * `phase1_ingest/*` — streaming phase-1 ingest from in-memory,
//!   file-backed and generator block sources, with per-cell peak-RSS proxy
//!   (bytes materialised at once) and total streamed bytes (paper §IV,
//!   Observation #1: blocks are independent, so one batch at a time).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use tpcp_cp::{mttkrp_dense, CpModel};
use tpcp_linalg::{khatri_rao, solve, Mat};
use tpcp_par::ParConfig;
use tpcp_partition::Grid;
use tpcp_schedule::{gray_coords, hilbert_index, morton_index, ScheduleKind, UnitId};
use tpcp_storage::PolicyKind;
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::{simulate_swaps, PqCache, SwapSimConfig};

fn bench_curves(c: &mut Criterion) {
    let mut group = c.benchmark_group("curves");
    let coords: Vec<[usize; 3]> = (0..4096)
        .map(|i| [i % 16, (i / 16) % 16, i / 256])
        .collect();
    group.bench_function("gray_4096", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..4096usize {
                acc ^= gray_coords(black_box(i), &[16, 16, 16])[0];
            }
            black_box(acc)
        })
    });
    group.bench_function("morton_4096", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for c in &coords {
                acc ^= morton_index(black_box(c), 4);
            }
            black_box(acc)
        })
    });
    group.bench_function("hilbert_4096", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for c in &coords {
                acc ^= hilbert_index(black_box(c), 4);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_mttkrp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp");
    group.sample_size(20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let dims = [24usize, 24, 24];
    let f = 8;
    let x = tpcp_tensor::random_dense(&dims, &mut rng);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    let refs: Vec<&Mat> = factors.iter().collect();

    group.bench_function("fused_3mode", |b| {
        let par = ParConfig::auto();
        b.iter(|| black_box(mttkrp_dense(black_box(&x), &refs, 1, &par).unwrap()))
    });
    group.bench_function("unfold_khatri_rao", |b| {
        b.iter(|| {
            let others = [&factors[0], &factors[2]];
            let kr = khatri_rao(&others).unwrap();
            black_box(x.unfold(1).unwrap().matmul(&kr).unwrap())
        })
    });
    group.finish();
}

/// Parallel-MTTKRP ablation: the same fused 3-mode kernel at 1, 2 and 4
/// worker threads. The tensor is large enough (96³ × F=16) that the
/// per-fibre GEMMs dominate and the fan-out amortises; on a multi-core
/// machine the 2- and 4-thread rows should scale near-linearly, while the
/// output stays bit-identical to the serial row by construction.
fn bench_mttkrp_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp_par");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let dims = [96usize, 96, 96];
    let f = 16;
    let x = tpcp_tensor::random_dense(&dims, &mut rng);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    let refs: Vec<&Mat> = factors.iter().collect();

    for threads in [1usize, 2, 4] {
        let par = ParConfig::with_threads(threads);
        group.bench_function(format!("fused_3mode_{threads}t"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for mode in 0..3 {
                    let m = mttkrp_dense(black_box(&x), &refs, mode, &par).unwrap();
                    acc += m.get(0, 0);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_pq(c: &mut Criterion) {
    let mut group = c.benchmark_group("pq");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let grid = Grid::uniform(&[64, 64, 64], 4);
    let f = 16;
    let mut pq = PqCache::new(&grid, f);
    // Prime the cache and build the slab's U and A.
    let a = random_factor(16, f, &mut rng);
    let slab: Vec<usize> = grid.slab(0, 0).collect();
    let us: Vec<Mat> = slab
        .iter()
        .map(|_| random_factor(16, f, &mut rng))
        .collect();
    for block in 0..grid.num_blocks() {
        for mode in 0..3 {
            pq.set_p(block, mode, random_factor(f, f, &mut rng));
        }
    }
    for unit in 0..grid.num_units() {
        pq.set_q(
            &grid,
            UnitId::from_linear(&grid, unit),
            random_factor(f, f, &mut rng),
        );
    }

    // Observation #2 ablation: with the in-place cache, a mode-0 update
    // combines F×F mats; without it every P(h≠0) would be recomputed from
    // its (rows×F) U and A matrices.
    group.bench_function("cached_hadamard_chain", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &l in &slab {
                acc += pq.p_hadamard_excluding(black_box(l), 0).unwrap().sum();
            }
            black_box(acc)
        })
    });
    group.bench_function("recompute_from_factors", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for u in &us {
                // Recompute both other-mode P matrices from scratch.
                let p1 = u.t_matmul(black_box(&a)).unwrap();
                let p2 = u.t_matmul(black_box(&a)).unwrap();
                acc += p1.hadamard(&p2).unwrap().sum();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit");
    group.sample_size(20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let dims = [32usize, 32, 32];
    let f = 8;
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    let model = CpModel::new(vec![1.0; f], factors).unwrap();
    let x: DenseTensor = model.reconstruct_dense();

    group.bench_function("exact_fit_dense", |b| {
        b.iter(|| black_box(model.fit_dense(black_box(&x)).unwrap()))
    });

    let grid = Grid::uniform(&dims, 2);
    let mut pq = PqCache::new(&grid, f);
    for block in 0..grid.num_blocks() {
        for mode in 0..3 {
            pq.set_p(block, mode, random_factor(f, f, &mut rng));
        }
    }
    for unit in 0..grid.num_units() {
        pq.set_q(
            &grid,
            UnitId::from_linear(&grid, unit),
            random_factor(f, f, &mut rng),
        );
    }
    let u_norms = vec![1.0; grid.num_blocks()];
    group.bench_function("surrogate_fit", |b| {
        b.iter(|| black_box(pq.surrogate_fit(&grid, black_box(&u_norms)).unwrap()))
    });
    group.finish();
}

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve");
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let f = 64;
    let basis = random_factor(f + 8, f, &mut rng);
    let mut s = basis.gram();
    s.add_assign(&Mat::identity(f)).unwrap();
    let t = random_factor(256, f, &mut rng);
    group.bench_function("gram_system_64", |b| {
        b.iter(|| black_box(solve::solve_gram_system(black_box(&t), &s, 1e-9).unwrap()))
    });
    group.finish();
}

/// Extension ablation: Gray-order vs Hilbert-order swap counts — both have
/// unit-step transitions, but Gray handles non-power-of-two grids natively
/// with an O(order) mapping.
fn bench_gray_vs_hilbert(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedules");
    group.sample_size(10);
    for kind in [ScheduleKind::HilbertOrder, ScheduleKind::GrayOrder] {
        group.bench_function(format!("swapsim_8cube_{}", kind.abbrev()), |b| {
            b.iter(|| {
                let r = simulate_swaps(&SwapSimConfig {
                    parts: vec![8; 3],
                    schedule: kind,
                    policy: PolicyKind::Forward,
                    buffer_fraction: 1.0 / 3.0,
                    virtual_iters: 130,
                })
                .unwrap();
                black_box(r.steady_swaps)
            })
        });
    }
    group.finish();
}

/// Prefetch-pipeline ablation: Phase-2 refinement on a disk-backed store
/// with the asynchronous prefetcher on vs off, across replacement policy
/// and buffer fraction, plus one cell with the pipeline deeper than the
/// buffer (`depth_gt_capacity`: 24 units through a 3-unit buffer at depth
/// 8 — the shape where reads used to be issued only to be thrown away).
/// The timed quantity is the whole `refine` run; a one-shot warm-up run
/// per cell prints the stall/swap accounting (`stall_ns` is what the
/// pipeline removes from the critical path — swap counts are identical by
/// construction and asserted here).
fn bench_prefetch(c: &mut Criterion) {
    use tpcp_storage::{DiskStore, IoStats};
    use twopcp::{refine, run_phase1_dense, PrefetchConfig, TwoPcpConfig};

    let mut group = c.benchmark_group("prefetch");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let dims = [32usize, 32, 32];
    let f = 8;
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    let x: DenseTensor = CpModel::new(vec![1.0; f], factors)
        .unwrap()
        .reconstruct_dense();
    let scratch = std::env::temp_dir().join(format!("tpcp_bench_prefetch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // One off/on pair over a unit store materialised once under `dir`
    // (each refine re-opens it); returns the two runs' I/O statistics.
    let mut pair = |tag: String, base: TwoPcpConfig, depth: usize| -> (IoStats, IoStats) {
        let dir = scratch.join(&tag);
        let mut store = DiskStore::open(&dir).unwrap();
        let p1 = run_phase1_dense(&x, &base, &mut store).unwrap();
        drop(store);
        let mut cell = |name: String, pf: PrefetchConfig| {
            let run_cfg = base.clone().prefetch(pf);
            let run = || {
                refine(
                    &p1.grid,
                    DiskStore::open(&dir).unwrap(),
                    &run_cfg,
                    &p1.u_norm_sq,
                )
                .unwrap()
                .stats
                .io
            };
            let io = run();
            eprintln!(
                "prefetch/{name}: swaps={} stall={:.3}ms prefetch_hits={} discarded={}",
                io.fetches,
                io.stall_ms(),
                io.prefetch_hits,
                io.prefetch_discarded,
            );
            group.bench_function(name.as_str(), |b| b.iter(|| black_box(run().fetches)));
            io
        };
        let off = cell(format!("off_{tag}"), PrefetchConfig::disabled());
        let on = cell(format!("on_{tag}"), PrefetchConfig::with_depth(depth));
        assert_eq!(
            off.fetches, on.fetches,
            "prefetch changed the swap count — it must only move bytes"
        );
        (off, on)
    };

    let base = |parts: usize, policy: PolicyKind, fraction: f64| {
        TwoPcpConfig::new(f)
            .parts(vec![parts])
            .schedule(ScheduleKind::HilbertOrder)
            .policy(policy)
            .buffer_fraction(fraction)
            .max_virtual_iters(6)
            .tol(0.0)
    };
    for policy in [PolicyKind::Lru, PolicyKind::Forward] {
        for fraction in [0.34, 0.5] {
            pair(
                format!("{}_f{fraction}", policy.abbrev()),
                base(2, policy, fraction),
                6,
            );
        }
    }
    let (_, deep) = pair(
        "depth_gt_capacity".into(),
        base(8, PolicyKind::Forward, 0.125),
        8,
    );
    assert_eq!(
        deep.prefetch_discarded, 0,
        "the prefetcher read pages it had no room for"
    );
    let _ = std::fs::remove_dir_all(&scratch);
    group.finish();
}

fn bench_phase1_ingest(c: &mut Criterion) {
    use tpcp_datasets::ModelBlockSource;
    use tpcp_partition::{BlockSource, DenseMemorySource, FileTensorSource};
    use tpcp_storage::MemStore;
    use twopcp::{run_phase1_source, TwoPcpConfig};

    let mut group = c.benchmark_group("phase1_ingest");
    group.sample_size(10);
    let dims = [24usize, 24, 24];
    let rank = 4;
    let seed = 33;
    let cfg = TwoPcpConfig::new(rank).parts(vec![2]).seed(seed).threads(1);
    let grid = Grid::new(&dims, &[2, 2, 2]);
    let x = ModelBlockSource::low_rank(&dims, rank, seed).materialize(&grid);
    let path = std::env::temp_dir().join(format!("tpcp_bench_ingest_{}.raw", std::process::id()));
    FileTensorSource::write_dense(&path, &x).unwrap();

    enum Kind {
        Memory,
        File,
        Generator,
    }
    for (name, kind) in [
        ("memory", Kind::Memory),
        ("file", Kind::File),
        ("generator", Kind::Generator),
    ] {
        // One accounted run per cell: the peak-RSS proxy (bytes
        // materialised at once) and the total streamed bytes.
        let run = |src: &mut dyn BlockSource| {
            let mut store = MemStore::new();
            run_phase1_source(src, &cfg, &mut store).unwrap()
        };
        let p1 = match kind {
            Kind::Memory => run(&mut DenseMemorySource::new(&x)),
            Kind::File => run(&mut FileTensorSource::open(&path).unwrap()),
            Kind::Generator => run(&mut ModelBlockSource::low_rank(&dims, rank, seed)),
        };
        eprintln!(
            "phase1_ingest/{name}: peak_block_bytes={} ingested_bytes={} unit_bytes={}",
            p1.peak_block_bytes, p1.ingested_bytes, p1.total_unit_bytes,
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let p1 = match kind {
                    Kind::Memory => run(&mut DenseMemorySource::new(&x)),
                    Kind::File => run(&mut FileTensorSource::open(&path).unwrap()),
                    Kind::Generator => run(&mut ModelBlockSource::low_rank(&dims, rank, seed)),
                };
                black_box(p1.peak_block_bytes)
            })
        });
        // The streaming bound: a serial budget never materialises
        // more than the largest block at once.
        let largest = grid
            .iter_blocks()
            .map(|c| grid.block_dims(&c).iter().product::<usize>() * 8)
            .max()
            .unwrap() as u64;
        assert_eq!(p1.peak_block_bytes, largest);
    }
    let _ = std::fs::remove_file(&path);
    group.finish();
}

criterion_group!(
    benches,
    bench_curves,
    bench_mttkrp,
    bench_mttkrp_par,
    bench_pq,
    bench_fit,
    bench_solve,
    bench_prefetch,
    bench_phase1_ingest,
    bench_gray_vs_hilbert
);
criterion_main!(benches);
