//! The product cell of `docs/kernels.md`: µs per call of each dense
//! product of `tpcp_linalg::kernel`, serial.
//!
//! `A` is 400×400 (the `order4` root unfolding), the other operand is
//! 400×width (width×400 for `matmul_t`; `gram` is of a 400×width `A`). Every
//! sample times each cell once, so the cells are interleaved sample by
//! sample; each line is the median [q1, q3] over the samples. The header
//! names the instance of the tiled bodies this CPU dispatches to
//! (`isa: avx2` or `isa: baseline`, from `kernel::isa()`).
//!
//! A second table, the fan-out cell, times the three products `tpcp-linalg`
//! fans out with a tall operand (`matmul_into`, `t_matmul_into`,
//! `gram_into`) at m×16·16×16, m from 128 to 65 536, serial against two
//! workers split the way `ops.rs` splits them (whole row tiles of the
//! output per worker, one `par_chunks_mut` region). The products' serial
//! clamp, `PAR_MIN_FLOPS`, is the crossover this table reads.
//!
//! ```sh
//! cargo run --release --example kernel_cell              # 31 samples
//! cargo run --release --example kernel_cell -- --quick   # one sample
//! ```

use std::time::Instant;

use tpcp_linalg::kernel::{self, TILE_MR};
use tpcp_par::{par_chunks_mut, tile_rows_per_chunk, ParConfig};

const M: usize = 400;
const WIDTHS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 16];
const PRODUCTS: [&str; 4] = ["matmul", "matmul_t", "t_matmul", "gram"];
/// A sample repeats its product until it has run this long, so a call
/// far below the timer's resolution is still timed.
const SAMPLE_NS: u128 = 1_000_000;

/// Deterministic fill of non-dyadic values of mixed sign.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// One product at one width, from zeroed output: `t_matmul` accumulates
/// into it, and every product pays the same fill so the rows compare.
fn run(product: &str, a: &[f64], b: &[f64], n: usize, out: &mut [f64]) {
    let rows = if product == "gram" { n } else { M };
    let out = &mut out[..rows * n];
    out.fill(0.0);
    match product {
        "matmul" => kernel::matmul(a, M, M, b, n, out),
        "matmul_t" => kernel::matmul_t(a, M, M, b, n, out),
        "t_matmul" => kernel::t_matmul(a, M, M, 0, M, b, n, out),
        _ => kernel::gram_band(b, M, n, 0, n, out),
    }
}

/// Width of the fan-out table's products.
const W: usize = 16;
/// Rows `m` of the fan-out table's tall operands.
const FAN_ROWS: [usize; 10] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536];
const FAN_PRODUCTS: [&str; 3] = ["matmul", "t_matmul", "gram"];

/// One fan-out product on `threads` workers: `a` (m×16) times the 16×16
/// `b` for `matmul`, `aᵀ·c` for `t_matmul` (`c` m×16), `aᵀ·a` (upper
/// bands) for `gram` — the chunking of `Mat::*_into` without its clamp.
fn fan(product: &str, m: usize, threads: usize, a: &[f64], b: &[f64], c: &[f64], out: &mut [f64]) {
    let par = ParConfig::with_threads(threads);
    let (a, c) = (&a[..m * W], &c[..m * W]);
    if product == "matmul" {
        let rows = tile_rows_per_chunk(m, threads, TILE_MR);
        par_chunks_mut(&par, &mut out[..m * W], rows * W, |i, chunk| {
            let r = chunk.len() / W;
            kernel::matmul(&a[i * rows * W..(i * rows + r) * W], r, W, b, W, chunk);
        });
        return;
    }
    let out = &mut out[..W * W];
    out.fill(0.0);
    let rows = tile_rows_per_chunk(W, threads, TILE_MR);
    par_chunks_mut(&par, out, rows * W, |i, chunk| {
        let r = chunk.len() / W;
        if product == "t_matmul" {
            kernel::t_matmul(a, m, W, i * rows, r, c, W, chunk);
        } else {
            kernel::gram_band(a, m, W, i * rows, r, chunk);
        }
    });
}

/// Repeats per sample so that one sample of `call` runs ≈ [`SAMPLE_NS`].
fn reps_for(mut call: impl FnMut()) -> usize {
    let start = Instant::now();
    call();
    let once = start.elapsed().as_nanos().max(1);
    (SAMPLE_NS / once).clamp(1, 100_000) as usize
}

/// µs per call of `call`, repeated `reps` times.
fn time_us(reps: usize, mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        call();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn quartiles(samples: &mut [f64]) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    [at(0.5), at(0.25), at(0.75)]
}

fn main() {
    let samples = if std::env::args().any(|a| a == "--quick") {
        1
    } else {
        31
    };
    let a = fill(M * M, 1);
    let b = fill(M * 16, 2);
    let mut out = vec![0.0f64; M * 16];

    // Cells in print order: (product, width, repeats per sample).
    let mut cells = Vec::new();
    for product in PRODUCTS {
        for n in WIDTHS {
            let reps = reps_for(|| run(product, &a, &b[..M * n], n, &mut out));
            cells.push((product, n, reps, Vec::with_capacity(samples)));
        }
    }
    let m_max = FAN_ROWS[FAN_ROWS.len() - 1];
    let (fa, fb, fc) = (fill(m_max * W, 3), fill(W * W, 4), fill(m_max * W, 5));
    let mut fan_out = vec![0.0f64; m_max * W];
    // (product, m, threads, repeats per sample, samples).
    let mut fan_cells = Vec::new();
    for product in FAN_PRODUCTS {
        for m in FAN_ROWS {
            for threads in [1usize, 2] {
                let reps = reps_for(|| fan(product, m, threads, &fa, &fb, &fc, &mut fan_out));
                fan_cells.push((product, m, threads, reps, Vec::with_capacity(samples)));
            }
        }
    }
    for _ in 0..samples {
        for (product, n, reps, times) in &mut cells {
            times.push(time_us(*reps, || {
                run(product, &a, &b[..M * *n], *n, &mut out)
            }));
        }
        for (product, m, threads, reps, times) in &mut fan_cells {
            times.push(time_us(*reps, || {
                fan(product, *m, *threads, &fa, &fb, &fc, &mut fan_out)
            }));
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let isa = kernel::isa();
    println!("# kernel_cell: A {M}x{M}, serial, {samples} samples, cpus {cpus}, isa: {isa}");
    println!("# µs per product, median [q1, q3]");
    println!("{:<9} {:>5}  tiled", "product", "width");
    for (product, n, _, times) in &mut cells {
        let [med, q1, q3] = quartiles(times);
        println!("{product:<9} {n:>5}  {med:.2} [{q1:.2}, {q3:.2}]");
    }

    println!();
    println!("# fan-out: m x {W} . {W} x {W}, serial vs 2 workers, µs median [q1, q3]");
    println!(
        "{:<9} {:>6} {:>9}  {:<28} {:<28} t2/t1",
        "product", "m", "flops", "serial", "2 threads"
    );
    for pair in fan_cells.chunks_mut(2) {
        let [serial, two] = pair else {
            unreachable!("one serial and one 2-thread cell per row")
        };
        let [s_med, s_q1, s_q3] = quartiles(&mut serial.4);
        let [t_med, t_q1, t_q3] = quartiles(&mut two.4);
        let (product, m) = (serial.0, serial.1);
        println!(
            "{product:<9} {m:>6} {:>9}  {:<28} {:<28} {:.2}",
            m * W * W,
            format!("{s_med:.2} [{s_q1:.2}, {s_q3:.2}]"),
            format!("{t_med:.2} [{t_q1:.2}, {t_q3:.2}]"),
            t_med / s_med
        );
    }
}
