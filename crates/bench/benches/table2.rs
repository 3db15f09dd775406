//! Criterion bench mirroring Table II at micro scale: naive in-memory
//! CP-ALS vs the two-phase pipeline with LRU/FOR replacement.
//!
//! Bench names carry the config's kernel backend, so tiled and reference
//! runs land in separate criterion series instead of polluting each
//! other's history.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpcp_cp::{cp_als_dense, AlsOptions};
use tpcp_datasets::dense_uniform;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use twopcp::{TwoPcp, TwoPcpConfig};

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    let x = dense_uniform(&[24, 24, 24], 0.49, 2);
    let base = TwoPcpConfig::new(4)
        .parts(vec![2])
        .schedule(ScheduleKind::ZOrder)
        .buffer_fraction(0.5)
        .max_virtual_iters(8)
        .tol(1e-2);
    let kernel = base.kernel.label();

    group.bench_function("naive_cp", |b| {
        b.iter(|| {
            let report = cp_als_dense(
                black_box(&x),
                &AlsOptions::builder()
                    .rank(4)
                    .max_iters(6)
                    .tol(1e-2)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            black_box(report.final_fit)
        })
    });

    for policy in [PolicyKind::Lru, PolicyKind::Forward] {
        let cfg = base.clone().policy(policy);
        group.bench_function(format!("twopcp_2x2x2_{}_{kernel}", policy.abbrev()), |b| {
            b.iter(|| {
                let outcome = TwoPcp::new(cfg.clone())
                    .decompose_dense(black_box(&x))
                    .unwrap();
                black_box(outcome.fit)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
