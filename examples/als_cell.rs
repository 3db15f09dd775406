//! The phase-1 block cell: serial CP-ALS on one 128³ low-rank block,
//! 16 iterations at tolerance 0, at ranks 6, 10, 16 and 32 — the work
//! phase 1 does per block, on the one thread it gives each block.
//!
//! Every sample times each rank once, so the ranks are interleaved sample
//! by sample; each line is the median [q1, q3] seconds over the samples.
//! The header names the instance of the tiled bodies this CPU dispatches
//! to. Each line ends with the final fit and an FNV-1a hash of the
//! model's weights and factors (every sample must reproduce it), so two
//! builds can be checked bitwise against each other by their output.
//!
//! ```sh
//! cargo run --release --example als_cell              # 31 samples
//! cargo run --release --example als_cell -- --quick   # one sample
//! ```

use std::time::Instant;

use tpcp_cp::{cp_als_dense, AlsOptions, AlsReport};
use tpcp_datasets::low_rank_dense;
use tpcp_linalg::TiledKernel;
use tpcp_par::ParConfig;

const SIDE: usize = 128;
const RANKS: [usize; 4] = [6, 10, 16, 32];
const ITERS: usize = 16;
const SEED: u64 = 11;

/// FNV-1a over the little-endian bits of the weights, then every factor.
fn factors_hash(report: &AlsReport) -> u64 {
    let model = &report.model;
    let values = model
        .weights
        .iter()
        .chain(model.factors.iter().flat_map(|m| m.as_slice()));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
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
    let block = low_rank_dense(&[SIDE; 3], 10, 0.1, SEED);
    let options = |rank| AlsOptions {
        rank,
        max_iters: ITERS,
        tol: 0.0,
        seed: SEED,
        par: ParConfig::serial(),
        ..Default::default()
    };

    // Per rank: (times, final fit, factors hash).
    let mut cells: Vec<(Vec<f64>, f64, Option<u64>)> = RANKS
        .map(|_| (Vec::with_capacity(samples), 0.0, None))
        .into();
    for _ in 0..samples {
        for (&rank, (times, fit, hash)) in RANKS.iter().zip(&mut cells) {
            let start = Instant::now();
            let report = cp_als_dense(&block, &options(rank)).expect("a valid block and rank");
            times.push(start.elapsed().as_secs_f64());
            let h = factors_hash(&report);
            assert_eq!(
                *hash.get_or_insert(h),
                h,
                "rank {rank}: a run changed a bit"
            );
            *fit = report.final_fit;
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let isa = TiledKernel::isa();
    println!(
        "# als_cell: {SIDE}^3 block, {ITERS} iterations, serial, {samples} samples, \
         cpus {cpus}, isa: {isa}"
    );
    println!("# s per decomposition, median [q1, q3]");
    println!(
        "{:>4}  {:<26} {:<20} factors_hash",
        "rank", "seconds", "fit"
    );
    for (&rank, (times, fit, hash)) in RANKS.iter().zip(&mut cells) {
        let [med, q1, q3] = quartiles(times);
        let seconds = format!("{med:.3} [{q1:.3}, {q3:.3}]");
        let hash = hash.expect("at least one sample");
        println!("{rank:>4}  {seconds:<26} {fit:<20} {hash}");
    }
}
