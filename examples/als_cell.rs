//! The phase-1 block cell: serial CP-ALS on one 128³ low-rank block,
//! 16 iterations at tolerance 0, at ranks 6, 10, 16 and 32 — the work
//! phase 1 does per block, on the one thread it gives each block — and
//! beneath it the layer cell: one serial `mttkrp_dense` per mode on the
//! same block, against random factors at the same ranks. The generator
//! cell times `CpModel::reconstruct_dense` of one 128³ block at rank 10
//! (the ladder's blocks) and 16 (`dense3`'s input), the serial generator
//! behind `low_rank_dense` and `ModelBlockSource`.
//!
//! Every sample times each cell once, so the cells are interleaved sample
//! by sample; each line is the median [q1, q3] over the samples. The
//! header names the instance of the tiled bodies this CPU dispatches to.
//! Each ALS line ends with the final fit and an FNV-1a hash of the
//! model's weights and factors, each MTTKRP line with the hash of its
//! `M`, each generator line with the hash of its block (every sample must
//! reproduce them), so two builds can be checked bitwise against each
//! other by their output.
//!
//! ```sh
//! cargo run --release --example als_cell              # 31 samples
//! cargo run --release --example als_cell -- --quick   # one sample
//! ```

use std::time::Instant;

use rand::SeedableRng;
use tpcp_cp::{cp_als_dense, mttkrp_dense, AlsOptions, AlsReport, CpModel};
use tpcp_datasets::low_rank_dense;
use tpcp_linalg::{kernel, Mat};
use tpcp_par::ParConfig;
use tpcp_tensor::random_factor;

const SIDE: usize = 128;
const RANKS: [usize; 4] = [6, 10, 16, 32];
const GENERATOR_RANKS: [usize; 2] = [10, 16];
const ITERS: usize = 16;
const SEED: u64 = 11;

/// FNV-1a over the little-endian bits of `values`.
fn fnv1a<'a>(values: impl Iterator<Item = &'a f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The hash of the weights, then every factor.
fn factors_hash(report: &AlsReport) -> u64 {
    let model = &report.model;
    fnv1a(
        model
            .weights
            .iter()
            .chain(model.factors.iter().flat_map(|m| m.as_slice())),
    )
}

/// Checks `h` against the hash the cell's first sample recorded.
fn pin_hash(pinned: &mut Option<u64>, h: u64, what: &str) {
    assert_eq!(*pinned.get_or_insert(h), h, "{what}: a run changed a bit");
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
            pin_hash(hash, factors_hash(&report), &format!("rank {rank}"));
            *fit = report.final_fit;
        }
    }

    // The layer cell: per rank, the block's three factors; per (rank,
    // mode), the times and the hash of `M`.
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let factors: Vec<Vec<Mat>> = RANKS
        .iter()
        .map(|&rank| {
            (0..3)
                .map(|_| random_factor(SIDE, rank, &mut rng))
                .collect()
        })
        .collect();
    let mut layer: Vec<(Vec<f64>, Option<u64>)> = (0..RANKS.len() * 3)
        .map(|_| (Vec::with_capacity(samples), None))
        .collect();
    for _ in 0..samples {
        for (cell, (times, hash)) in layer.iter_mut().enumerate() {
            let (r, mode) = (cell / 3, cell % 3);
            let refs: Vec<&Mat> = factors[r].iter().collect();
            let start = Instant::now();
            let m = mttkrp_dense(&block, &refs, mode, &ParConfig::serial())
                .expect("factors shaped to the block");
            times.push(start.elapsed().as_secs_f64() * 1e3);
            let what = format!("rank {} mode {mode}", RANKS[r]);
            pin_hash(hash, fnv1a(m.as_slice().iter()), &what);
        }
    }

    // The generator cell: per rank, a unit-weight model of three random
    // factors; per sample, the time of one reconstruction and its hash.
    let models: Vec<CpModel> = GENERATOR_RANKS
        .iter()
        .map(|&rank| {
            let factors = (0..3)
                .map(|_| random_factor(SIDE, rank, &mut rng))
                .collect();
            CpModel::new(vec![1.0; rank], factors).expect("consistent rank")
        })
        .collect();
    let mut generator: Vec<(Vec<f64>, Option<u64>)> = GENERATOR_RANKS
        .map(|_| (Vec::with_capacity(samples), None))
        .into();
    for _ in 0..samples {
        for ((model, (times, hash)), &rank) in
            models.iter().zip(&mut generator).zip(&GENERATOR_RANKS)
        {
            let start = Instant::now();
            let block = model.reconstruct_dense();
            times.push(start.elapsed().as_secs_f64() * 1e3);
            let what = format!("reconstruct rank {rank}");
            pin_hash(hash, fnv1a(block.as_slice().iter()), &what);
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let isa = kernel::isa();
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
    println!("# mttkrp_dense, serial, ms per call, median [q1, q3]");
    println!("{:>4} {:>4}  {:<26} m_hash", "rank", "mode", "ms");
    for (cell, (times, hash)) in layer.iter_mut().enumerate() {
        let (rank, mode) = (RANKS[cell / 3], cell % 3);
        let [med, q1, q3] = quartiles(times);
        let ms = format!("{med:.2} [{q1:.2}, {q3:.2}]");
        let hash = hash.expect("at least one sample");
        println!("{rank:>4} {mode:>4}  {ms:<26} {hash}");
    }
    println!("# reconstruct_dense, serial, ms per {SIDE}^3 block, median [q1, q3]");
    println!("{:>4}  {:<26} block_hash", "rank", "ms");
    for (&rank, (times, hash)) in GENERATOR_RANKS.iter().zip(&mut generator) {
        let [med, q1, q3] = quartiles(times);
        let ms = format!("{med:.2} [{q1:.2}, {q3:.2}]");
        let hash = hash.expect("at least one sample");
        println!("{rank:>4}  {ms:<26} {hash}");
    }
}
