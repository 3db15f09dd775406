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
//! ```sh
//! cargo run --release --example kernel_cell              # 31 samples
//! cargo run --release --example kernel_cell -- --quick   # one sample
//! ```

use std::time::Instant;

use tpcp_linalg::kernel;

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
            let start = Instant::now();
            run(product, &a, &b[..M * n], n, &mut out);
            let once = start.elapsed().as_nanos().max(1);
            let reps = (SAMPLE_NS / once).clamp(1, 100_000) as usize;
            cells.push((product, n, reps, Vec::with_capacity(samples)));
        }
    }
    for _ in 0..samples {
        for (product, n, reps, times) in &mut cells {
            let start = Instant::now();
            for _ in 0..*reps {
                run(product, &a, &b[..M * *n], *n, &mut out);
            }
            times.push(start.elapsed().as_secs_f64() * 1e6 / *reps as f64);
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
}
