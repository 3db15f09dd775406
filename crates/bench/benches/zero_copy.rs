//! Zero-copy page I/O ablation: codec format v1 vs v2 × mmap on/off.
//!
//! Three layers of the read path are measured separately:
//!
//! * `zero_copy/codec_*` — pure encode/decode cost of the two page
//!   formats on a representative unit (v1: per-element cursor loops;
//!   v2: bulk slab copies);
//! * `zero_copy/read_*` — [`DiskStore`] reads of v1/v2 pages through the
//!   buffered scratch path vs the mmap path (the full swap transport:
//!   open/stat, load, checksum, decode);
//! * `zero_copy/refine_disk_*` — the whole Phase-2 refinement on the
//!   out-of-core configuration with mmap off vs on, prefetch disabled so
//!   every swap's cost lands on the critical path (`stall_ns`). Swap
//!   counts are asserted identical — mmap moves bytes, never values.
//!
//! Measured shape of the results (warm page cache): codec v2 cuts
//! per-page decode ~15-40% vs v1 at every layer, and the mmap transport
//! wins on stable pages (the `read_*` cells, prefetch readers). On the
//! refine loop mmap used to stall 1.77× longer, because every write-back
//! renamed the page and retired its mapping; since a write-back became an
//! in-place write to the unit's factor file the page — and its map —
//! stays put, and the `refine_disk_mmap_*` cells are the input to the
//! pending decision on `TPCP_MMAP`'s default (ROADMAP item 1(b)).
//!
//! A one-shot accounted pass per cell is written to
//! `BENCH_zero_copy.json` at the workspace root (decode ns/page,
//! stall_ns, swaps) together with the environment that produced it, so
//! the perf trajectory stays machine-readable across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_schedule::{ScheduleKind, UnitId};
use tpcp_storage::{codec, DiskStore, PolicyKind, UnitData, UnitStore};
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::{refine, run_phase1_dense, PrefetchConfig, TwoPcpConfig};

/// Where the machine-readable artifact lands (the workspace root).
const ARTIFACT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_zero_copy.json");

/// One artifact line: a cell name and its measured quantities.
struct Cell {
    name: String,
    fields: Vec<(&'static str, f64)>,
}

/// What produced the numbers: logical CPUs, the thread budget and kernel
/// the refine cells ran on, the source revision, and the I/O they saw.
fn environment() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let cfg = TwoPcpConfig::new(1);
    format!(
        "{{\"cpus\": {}, \"threads\": {}, \"kernel\": \"{}\", \"os\": \"{}\", \
         \"arch\": \"{}\", \"git\": \"{git}\", \"io\": \"page cache (tmpdir)\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cfg.par.threads(),
        cfg.kernel.label(),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

fn write_artifact(cells: &[Cell]) {
    let mut out = format!(
        "{{\n  \"bench\": \"zero_copy\",\n  \"env\": {},\n  \"cells\": [\n",
        environment()
    );
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\"", cell.name));
        for (k, v) in &cell.fields {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                out.push_str(&format!(", \"{k}\": {}", *v as i64));
            } else {
                out.push_str(&format!(", \"{k}\": {v:.3}"));
            }
        }
        out.push('}');
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"notes\": \"mmap paths issue madvise(WILLNEED) on fresh maps and on each \
         prefetched page range, batching major page faults into one read-ahead; \
         cold-cache mmap reads fault sequentially instead of per-4KiB-touch. \
         Warm-page-cache cells above are unaffected by the advice. The refine cells \
         re-open one unit store, so after the first run every unit has a factor file \
         and an mmap read is decode-from-map plus a two-slot overlay (borrowed_reads 0); \
         a write-back no longer renames the page, so its mapping survives.\"\n",
    );
    out.push_str("}\n");
    match std::fs::write(ARTIFACT_PATH, &out) {
        Ok(()) => eprintln!("zero_copy: artifact written to {ARTIFACT_PATH}"),
        Err(e) => eprintln!("zero_copy: could not write artifact: {e}"),
    }
}

/// A representative data-access unit: 64 KiB of payload, one factor and
/// four sub-factors (the shape Phase 2 actually swaps).
fn representative_unit() -> UnitData {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    UnitData {
        unit: UnitId::new(1, 2),
        factor: random_factor(256, 16, &mut rng),
        sub_factors: (0..4)
            .map(|b| (b, random_factor(64, 16, &mut rng)))
            .collect(),
    }
}

/// Median ns per call of `f` over a few accounted batches (the artifact's
/// one-shot number; criterion's own loop prints the console figures).
fn measure_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_codec(c: &mut Criterion, cells: &mut Vec<Cell>) {
    let unit = representative_unit();
    let v1 = codec::encode_v1(&unit);
    let v2 = codec::encode(&unit);
    assert_eq!(codec::decode(&v1).unwrap(), codec::decode(&v2).unwrap());

    let mut group = c.benchmark_group("zero_copy");
    group.sample_size(20);
    group.bench_function("codec_encode_v1", |b| {
        b.iter(|| black_box(codec::encode_v1(black_box(&unit))))
    });
    group.bench_function("codec_encode_v2", |b| {
        b.iter(|| black_box(codec::encode(black_box(&unit))))
    });
    group.bench_function("codec_decode_v1", |b| {
        b.iter(|| black_box(codec::decode(black_box(&v1)).unwrap()))
    });
    group.bench_function("codec_decode_v2", |b| {
        b.iter(|| black_box(codec::decode(black_box(&v2)).unwrap()))
    });
    group.finish();

    for (name, page) in [("codec_decode_v1", &v1), ("codec_decode_v2", &v2)] {
        let ns = measure_ns(200, || {
            black_box(codec::decode(black_box(page)).unwrap());
        });
        eprintln!(
            "zero_copy/{name}: {ns:.0} ns/page ({} payload bytes)",
            unit.payload_bytes()
        );
        cells.push(Cell {
            name: name.into(),
            fields: vec![
                ("decode_ns_per_page", ns),
                ("payload_bytes", unit.payload_bytes() as f64),
            ],
        });
    }
}

fn bench_store_read(c: &mut Criterion, cells: &mut Vec<Cell>) {
    let scratch = std::env::temp_dir().join(format!("tpcp_bench_zc_read_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let units: Vec<UnitData> = (0..16)
        .map(|p| {
            let mut u = representative_unit();
            u.unit = UnitId::new(0, p);
            u
        })
        .collect();

    // Two page sets on disk: v2 written by the store, v1 laid down in the
    // legacy format (the store reads both — the compatibility the codec
    // guarantees).
    let v2_dir = scratch.join("v2");
    let mut s = DiskStore::open_with(&v2_dir, false).unwrap();
    for u in &units {
        s.write(u).unwrap();
    }
    let v1_dir = scratch.join("v1");
    let s1 = DiskStore::open_with(&v1_dir, false).unwrap();
    for u in &units {
        std::fs::write(s1.unit_path(u.unit), codec::encode_v1(u)).unwrap();
    }

    let mut group = c.benchmark_group("zero_copy");
    group.sample_size(10);
    for (fmt, dir) in [("v1", &v1_dir), ("v2", &v2_dir)] {
        for (transport, mmap) in [("buffered", false), ("mmap", true)] {
            let name = format!("read_{fmt}_{transport}");
            let mut store = DiskStore::open_with(dir, mmap).unwrap();
            group.bench_function(name.as_str(), |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for p in 0..units.len() {
                        acc += store.read(UnitId::new(0, p)).unwrap().factor.get(0, 0);
                    }
                    black_box(acc)
                })
            });
            let ns = measure_ns(20, || {
                for p in 0..units.len() {
                    black_box(store.read(UnitId::new(0, p)).unwrap());
                }
            }) / units.len() as f64;
            eprintln!("zero_copy/{name}: {ns:.0} ns/page");
            cells.push(Cell {
                name,
                fields: vec![("read_ns_per_page", ns)],
            });
        }
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

fn bench_refine(c: &mut Criterion, cells: &mut Vec<Cell>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let dims = [48usize, 48, 48];
    let f = 16;
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    let x: DenseTensor = CpModel::new(vec![1.0; f], factors)
        .unwrap()
        .reconstruct_dense();
    let scratch = std::env::temp_dir().join(format!("tpcp_bench_zc_refine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Out-of-core configuration, prefetch off: every swap's read cost
    // lands on the critical path, so stall_ns isolates the transport.
    let cfg = TwoPcpConfig::new(f)
        .parts(vec![2])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.34)
        .max_virtual_iters(6)
        .tol(0.0)
        .prefetch(PrefetchConfig::disabled());
    let mut store = DiskStore::open_with(scratch.join("units"), false).unwrap();
    let p1 = run_phase1_dense(&x, &cfg, &mut store).unwrap();
    drop(store);

    let mut group = c.benchmark_group("zero_copy");
    group.sample_size(10);
    let mut swaps = Vec::new();
    for mmap in [false, true] {
        let name = format!("refine_disk_mmap_{}", if mmap { "on" } else { "off" });
        let run = || {
            refine(
                &p1.grid,
                DiskStore::open_with(scratch.join("units"), mmap).unwrap(),
                &cfg,
                &p1.u_norm_sq,
            )
            .unwrap()
            .stats
        };
        // One-shot accounted pass (best of 3 for a stable stall
        // figure — stall_ns is tens of syscalls, noisy under a shared
        // container).
        let mut io = run().io;
        for _ in 0..2 {
            let next = run().io;
            if next.stall_ns < io.stall_ns {
                io = next;
            }
        }
        eprintln!(
            "zero_copy/{name}: swaps={} stall={:.3}ms borrowed={}",
            io.fetches,
            io.stall_ms(),
            io.borrowed_reads,
        );
        swaps.push(io.fetches);
        cells.push(Cell {
            name: name.clone(),
            fields: vec![
                ("stall_ns", io.stall_ns as f64),
                ("swaps", io.fetches as f64),
                ("borrowed_reads", io.borrowed_reads as f64),
            ],
        });
        group.bench_function(name.as_str(), |b| b.iter(|| black_box(run().io.fetches)));
    }
    assert_eq!(
        swaps[0], swaps[1],
        "mmap changed the swap count — it must only move bytes"
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

fn bench_zero_copy(c: &mut Criterion) {
    let mut cells = Vec::new();
    bench_codec(c, &mut cells);
    bench_store_read(c, &mut cells);
    bench_refine(c, &mut cells);
    write_artifact(&cells);
}

criterion_group!(benches, bench_zero_copy);
criterion_main!(benches);
