//! The "Naive CP" baseline: out-of-core CP-ALS without partitioned
//! refinement.
//!
//! Table II's baseline is TensorDB's secondary-storage CP-ALS: the tensor
//! lives on disk in chunks, and **every ALS iteration re-reads the entire
//! tensor once per mode** to compute the MTTKRP. This module reproduces
//! that architecture: blocks are materialised to disk once, then streamed
//! back `N` times per iteration, with all traffic counted. The contrast
//! with 2PCP is structural — Phase 2 of 2PCP touches only factor-sized
//! units (`ΣKᵢ · (Iᵢ/Kᵢ)·F·(1+Π_{j≠i}Kⱼ)` doubles) while the naive
//! baseline re-reads `Πᵢ Iᵢ` doubles per mode per iteration, which is what
//! makes it exceed 12 hours at the paper's scale.

use crate::{Result, TwoPcpError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use tpcp_cp::{mttkrp_dense, CpModel};
use tpcp_linalg::{hadamard_all, solve, Mat};
use tpcp_par::ParConfig;
use tpcp_partition::{split_dense, Grid};
use tpcp_storage::codec::fnv1a;
use tpcp_tensor::{random_factor, DenseTensor};

/// Options for the out-of-core naive baseline.
#[derive(Clone, Debug)]
pub struct NaiveOocOptions {
    /// Decomposition rank.
    pub rank: usize,
    /// Chunking grid (how the tensor is stored on disk; TensorDB chunks).
    pub parts: Vec<usize>,
    /// ALS iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the fit.
    pub tol: f64,
    /// Ridge for the normal-equation solves.
    pub ridge: f64,
    /// Seed for factor initialisation.
    pub seed: u64,
    /// Directory for the chunk files.
    pub work_dir: PathBuf,
}

impl NaiveOocOptions {
    /// Defaults: rank 10, 2 chunks per mode, 25 iterations.
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        NaiveOocOptions {
            rank: 10,
            parts: vec![2],
            max_iters: 25,
            tol: 1e-4,
            ridge: 1e-9,
            seed: 0,
            work_dir: work_dir.into(),
        }
    }
}

/// Outcome of the baseline run.
#[derive(Clone, Debug)]
pub struct NaiveOocReport {
    /// The fitted model.
    pub model: CpModel,
    /// Final fit.
    pub fit: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Tensor bytes written during chunking (once).
    pub bytes_written: u64,
    /// Tensor bytes re-read during the ALS sweeps (N per iteration).
    pub bytes_read: u64,
}

const BLOCK_MAGIC: &[u8; 8] = b"2PCPBLCK";

fn block_path(dir: &Path, lin: usize) -> PathBuf {
    dir.join(format!("block_{lin}.blk"))
}

fn write_block(dir: &Path, lin: usize, block: &DenseTensor) -> Result<u64> {
    let mut buf: Vec<u8> = Vec::with_capacity(16 + block.dims().len() * 8 + block.len() * 8 + 8);
    buf.extend_from_slice(BLOCK_MAGIC);
    buf.extend_from_slice(&(block.dims().len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]);
    for &d in block.dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in block.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv1a(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    let mut f = std::io::BufWriter::new(fs::File::create(block_path(dir, lin))?);
    f.write_all(&buf)?;
    f.flush()?;
    Ok(buf.len() as u64)
}

fn read_block(dir: &Path, lin: usize) -> Result<(DenseTensor, u64)> {
    let mut buf = Vec::new();
    std::io::BufReader::new(fs::File::open(block_path(dir, lin))?).read_to_end(&mut buf)?;
    let corrupt = |reason: &str| {
        TwoPcpError::Storage(tpcp_storage::StorageError::Corrupt {
            reason: reason.to_string(),
        })
    };
    if buf.len() < 24 || &buf[..8] != BLOCK_MAGIC {
        return Err(corrupt("bad block header"));
    }
    let (body, trailer) = buf.split_at(buf.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if stored != fnv1a(body) {
        return Err(corrupt("block checksum mismatch"));
    }
    let order = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    let mut off = 16;
    let mut dims = Vec::with_capacity(order);
    for _ in 0..order {
        dims.push(u64::from_le_bytes(body[off..off + 8].try_into().expect("8 bytes")) as usize);
        off += 8;
    }
    let cells: usize = dims.iter().product();
    if body.len() != off + cells * 8 {
        return Err(corrupt("block payload size mismatch"));
    }
    let mut data = Vec::with_capacity(cells);
    for chunk in body[off..].chunks_exact(8) {
        data.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    Ok((DenseTensor::from_vec(&dims, data), buf.len() as u64))
}

/// Runs out-of-core CP-ALS: chunk the tensor to disk once, then stream all
/// chunks back `N` times per iteration.
///
/// # Errors
/// Configuration, I/O or numerical failures.
pub fn naive_cp_out_of_core(x: &DenseTensor, options: &NaiveOocOptions) -> Result<NaiveOocReport> {
    if options.rank == 0 {
        return Err(TwoPcpError::Config {
            reason: "rank must be positive".into(),
        });
    }
    let order = x.order();
    let parts = if options.parts.len() == 1 {
        vec![options.parts[0]; order]
    } else if options.parts.len() == order {
        options.parts.clone()
    } else {
        return Err(TwoPcpError::Config {
            reason: "parts length must be 1 or match the tensor order".into(),
        });
    };
    let grid = Grid::new(x.dims(), &parts);
    fs::create_dir_all(&options.work_dir)?;

    // ---- Chunk to disk (TensorDB load). ---------------------------------
    let mut bytes_written = 0u64;
    for (lin, block) in split_dense(x, &grid).into_iter().enumerate() {
        bytes_written += write_block(&options.work_dir, lin, &block)?;
    }
    let norm_x_sq = x.fro_norm_sq();

    // ---- ALS over disk-resident chunks. ----------------------------------
    let f = options.rank;
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut factors: Vec<Mat> = x
        .dims()
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    let mut grams: Vec<Mat> = factors.iter().map(Mat::gram).collect();
    let mut bytes_read = 0u64;
    let mut fit = 0.0;
    let mut prev_fit = f64::NEG_INFINITY;
    let mut iterations = 0;

    for _iter in 0..options.max_iters {
        iterations += 1;
        let mut last_m: Option<Mat> = None;
        for mode in 0..order {
            let mut m = Mat::zeros(x.dims()[mode], f);
            // One full pass over the tensor per mode.
            for lin in 0..grid.num_blocks() {
                let (block, bytes) = read_block(&options.work_dir, lin)?;
                bytes_read += bytes;
                let coords = grid.block_coords(lin);
                let slices: Vec<Mat> = factors
                    .iter()
                    .enumerate()
                    .map(|(h, a)| {
                        let r = grid.part_range(h, coords[h]);
                        a.row_block(r.start, r.end - r.start)
                    })
                    .collect();
                let refs: Vec<&Mat> = slices.iter().collect();
                let partial = mttkrp_dense(&block, &refs, mode, &ParConfig::auto())?;
                let dst = grid.part_range(mode, coords[mode]);
                for (row_off, src_row) in (dst.start..dst.end).zip(0..partial.rows()) {
                    for (d, &s) in m.row_mut(row_off).iter_mut().zip(partial.row(src_row)) {
                        *d += s;
                    }
                }
            }
            let other: Vec<&Mat> = (0..order)
                .filter(|&h| h != mode)
                .map(|h| &grams[h])
                .collect();
            let s = hadamard_all(&other)?;
            let a = solve::solve_gram_system(&m, &s, options.ridge)?;
            grams[mode] = a.gram();
            factors[mode] = a;
            if mode == order - 1 {
                last_m = Some(m);
            }
        }
        let m = last_m.expect("order >= 1");
        let inner: f64 = m
            .as_slice()
            .iter()
            .zip(factors[order - 1].as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let gram_refs: Vec<&Mat> = grams.iter().collect();
        let model_sq = hadamard_all(&gram_refs)?.sum().max(0.0);
        let err_sq = (norm_x_sq - 2.0 * inner + model_sq).max(0.0);
        fit = if norm_x_sq > 0.0 {
            1.0 - (err_sq.sqrt() / norm_x_sq.sqrt())
        } else {
            1.0
        };
        if (fit - prev_fit).abs() < options.tol {
            break;
        }
        prev_fit = fit;
    }

    let mut model = CpModel::new(vec![1.0; f], factors)?;
    model.normalize();
    Ok(NaiveOocReport {
        model,
        fit,
        iterations,
        bytes_written,
        bytes_read,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpcp_naive_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn low_rank(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        CpModel::new(vec![1.0; f], factors)
            .unwrap()
            .reconstruct_dense()
    }

    #[test]
    fn matches_in_memory_als_quality() {
        let x = low_rank(&[10, 9, 8], 2, 4);
        let dir = scratch("match");
        let report = naive_cp_out_of_core(
            &x,
            &NaiveOocOptions {
                rank: 2,
                max_iters: 60,
                tol: 1e-8,
                seed: 3,
                ..NaiveOocOptions::new(&dir)
            },
        )
        .unwrap();
        assert!(report.fit > 0.99, "fit {}", report.fit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rereads_tensor_n_times_per_iteration() {
        let x = low_rank(&[8, 8, 8], 2, 1);
        let dir = scratch("traffic");
        let report = naive_cp_out_of_core(
            &x,
            &NaiveOocOptions {
                rank: 2,
                max_iters: 5,
                tol: 0.0, // run all 5 iterations
                ..NaiveOocOptions::new(&dir)
            },
        )
        .unwrap();
        assert_eq!(report.iterations, 5);
        // 3 modes × 5 iterations × the whole tensor.
        assert_eq!(report.bytes_read, 15 * report.bytes_written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_roundtrip_and_corruption_detection() {
        let dir = scratch("codec");
        fs::create_dir_all(&dir).unwrap();
        let block = low_rank(&[3, 4, 2], 2, 9);
        write_block(&dir, 0, &block).unwrap();
        let (back, _) = read_block(&dir, 0).unwrap();
        assert_eq!(back, block);
        // Corrupt a byte.
        let path = block_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 1;
        fs::write(&path, bytes).unwrap();
        assert!(read_block(&dir, 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_config() {
        let x = low_rank(&[4, 4], 1, 0);
        let dir = scratch("cfg");
        assert!(naive_cp_out_of_core(
            &x,
            &NaiveOocOptions {
                rank: 0,
                ..NaiveOocOptions::new(&dir)
            }
        )
        .is_err());
        assert!(naive_cp_out_of_core(
            &x,
            &NaiveOocOptions {
                parts: vec![2, 2, 2],
                ..NaiveOocOptions::new(&dir)
            }
        )
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
