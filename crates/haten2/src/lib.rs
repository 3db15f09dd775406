//! A HaTen2-style MapReduce CP-ALS baseline.
//!
//! HaTen2 (Jeon, Papalexakis, Kang & Faloutsos, ICDE 2015) runs PARAFAC as
//! chains of MapReduce jobs, materialising every intermediate between jobs
//! on HDFS. It is built for *sparse* social-media tensors; the 2PCP paper's
//! Table I shows that on *dense* scientific tensors this architecture pays
//! an enormous I/O price and eventually fails outright when a worker's
//! memory cap is exceeded.
//!
//! The real HaTen2 binary (and Hadoop) are unavailable, so this crate
//! implements the architecturally equivalent baseline on the
//! [`tpcp_mapreduce`] substrate:
//!
//! * per ALS iteration and mode, the MTTKRP is a MapReduce job whose
//!   mappers emit one `(row, F-vector)` contribution **per non-zero** —
//!   the `O(nnz·F)` intermediate data flood that HaTen2's column-wise
//!   decomposition mitigates for sparse data but which is unavoidable at
//!   density 0.2;
//! * factor matrices are materialised to the simulated DFS after every
//!   update and re-read by the next job (HDFS round-trips);
//! * reducers run under a configurable memory cap — exceeding it aborts
//!   the run with [`Haten2Error::OutOfMemory`], reproducing the `FAILS`
//!   row of Table I.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use tpcp_cp::CpModel;
use tpcp_linalg::{hadamard_all, solve, Mat};
use tpcp_mapreduce::{
    run_job, CounterSnapshot, JobCounters, MapReduceJob, MrConfig, MrError, SimDfs,
};
use tpcp_tensor::{random_factor, SparseTensor};

/// Errors surfaced by the baseline.
#[derive(Debug)]
pub enum Haten2Error {
    /// A reducer exceeded its memory cap — the run FAILS (Table I).
    OutOfMemory {
        /// Which reducer overflowed.
        reducer: usize,
        /// Bytes required.
        bytes: u64,
        /// Configured cap.
        cap: u64,
    },
    /// MapReduce substrate failure.
    MapReduce(MrError),
    /// Numerical failure in the local solve step.
    Linalg(tpcp_linalg::LinalgError),
    /// CP model assembly failure.
    Cp(tpcp_cp::CpError),
    /// Invalid configuration.
    Config {
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for Haten2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Haten2Error::OutOfMemory {
                reducer,
                bytes,
                cap,
            } => write!(
                f,
                "HaTen2 FAILS: reducer {reducer} needs {bytes} bytes, cap {cap}"
            ),
            Haten2Error::MapReduce(e) => write!(f, "mapreduce: {e}"),
            Haten2Error::Linalg(e) => write!(f, "linalg: {e}"),
            Haten2Error::Cp(e) => write!(f, "cp: {e}"),
            Haten2Error::Config { reason } => write!(f, "config: {reason}"),
        }
    }
}

impl std::error::Error for Haten2Error {}

impl From<MrError> for Haten2Error {
    fn from(e: MrError) -> Self {
        match e {
            MrError::ReducerOutOfMemory {
                reducer,
                bytes,
                cap,
            } => Haten2Error::OutOfMemory {
                reducer,
                bytes,
                cap,
            },
            other => Haten2Error::MapReduce(other),
        }
    }
}

impl From<tpcp_linalg::LinalgError> for Haten2Error {
    fn from(e: tpcp_linalg::LinalgError) -> Self {
        Haten2Error::Linalg(e)
    }
}

impl From<tpcp_cp::CpError> for Haten2Error {
    fn from(e: tpcp_cp::CpError) -> Self {
        Haten2Error::Cp(e)
    }
}

impl Haten2Error {
    /// `true` when the run failed due to the memory cap (the paper's
    /// `FAILS` outcome).
    pub fn is_oom(&self) -> bool {
        matches!(self, Haten2Error::OutOfMemory { .. })
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Haten2Error>;

/// Configuration of a baseline run.
#[derive(Clone, Debug)]
pub struct Haten2Config {
    /// Decomposition rank `F`.
    pub rank: usize,
    /// ALS iterations (Table I uses 1 — "due to the large execution time
    /// of HaTen2, we only report execution time for 1 iteration").
    pub iterations: usize,
    /// Work directory for the shuffle and the simulated DFS.
    pub work_dir: PathBuf,
    /// Reducer count of each MapReduce job.
    pub num_reducers: usize,
    /// Per-reducer memory cap in bytes; `None` disables the failure mode.
    pub reducer_memory_bytes: Option<u64>,
    /// Seed for factor initialisation.
    pub seed: u64,
    /// Ridge for the local solve.
    pub ridge: f64,
}

impl Haten2Config {
    /// Defaults mirroring the paper's Table I setting (rank 10, one
    /// iteration).
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        Haten2Config {
            rank: 10,
            iterations: 1,
            work_dir: work_dir.into(),
            num_reducers: 4,
            reducer_memory_bytes: None,
            seed: 0,
            ridge: 1e-9,
        }
    }
}

/// Outcome of a successful baseline run.
#[derive(Clone, Debug)]
pub struct Haten2Report {
    /// The fitted model.
    pub model: CpModel,
    /// Fit against the input.
    pub fit: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Aggregate MapReduce counters over all jobs.
    pub counters: CounterSnapshot,
    /// Simulated-DFS bytes written (factor materialisation).
    pub dfs_bytes_written: u64,
    /// Simulated-DFS bytes read (factor broadcast per job).
    pub dfs_bytes_read: u64,
}

/// The per-mode MTTKRP job: one `(row, F-vector)` record per non-zero.
struct MttkrpJob {
    mode: usize,
    factors: Vec<Mat>,
    rank: usize,
}

impl MapReduceJob for MttkrpJob {
    /// One non-zero: coordinates + value.
    type Input = (Vec<u32>, f64);
    /// Target row along `mode`.
    type Key = u32;
    /// Partial contribution `v · ⊛_{h≠mode} A_h[i_h, :]`.
    type Value = Vec<f64>;
    /// Accumulated MTTKRP row.
    type Output = (u32, Vec<f64>);

    fn map(&self, (coords, v): Self::Input, emit: &mut dyn FnMut(u32, Vec<f64>)) {
        let mut contrib = vec![v; self.rank];
        for (h, &c) in coords.iter().enumerate() {
            if h == self.mode {
                continue;
            }
            for (p, &a) in contrib.iter_mut().zip(self.factors[h].row(c as usize)) {
                *p *= a;
            }
        }
        emit(coords[self.mode], contrib);
    }

    fn reduce(&self, row: u32, values: Vec<Vec<f64>>, emit: &mut dyn FnMut((u32, Vec<f64>))) {
        let mut acc = vec![0.0; self.rank];
        for v in values {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        emit((row, acc));
    }
}

/// Serialises a factor matrix to flat DFS records.
fn factor_records(m: &Mat) -> Vec<(u32, Vec<f64>)> {
    (0..m.rows())
        .map(|r| (r as u32, m.row(r).to_vec()))
        .collect()
}

fn factor_from_records(records: Vec<(u32, Vec<f64>)>, rows: usize, cols: usize) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for (r, row) in records {
        m.row_mut(r as usize).copy_from_slice(&row);
    }
    m
}

/// Runs HaTen2-style CP-ALS on a sparse tensor.
///
/// # Errors
/// [`Haten2Error::OutOfMemory`] when a reducer exceeds the cap (Table I's
/// `FAILS`), plus numerical/substrate failures.
pub fn haten2_cp(x: &SparseTensor, cfg: &Haten2Config) -> Result<Haten2Report> {
    if cfg.rank == 0 {
        return Err(Haten2Error::Config {
            reason: "rank must be positive".into(),
        });
    }
    let order = x.order();
    let dims: Vec<usize> = x.dims().to_vec();
    let f = cfg.rank;

    let dfs = SimDfs::open(cfg.work_dir.join("dfs"))?;
    let counters = JobCounters::new();
    let mut mr_cfg = MrConfig::new(cfg.work_dir.join("shuffle"));
    mr_cfg.num_reducers = cfg.num_reducers;
    mr_cfg.reducer_memory_bytes = cfg.reducer_memory_bytes;

    // Initialise factors and materialise them on the DFS (HaTen2 keeps all
    // state in HDFS files between jobs).
    {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
        for (mode, &d) in dims.iter().enumerate() {
            let factor = random_factor(d, f, &mut rng);
            dfs.store(&format!("factor_{mode}"), &factor_records(&factor))?;
        }
    }

    // The non-zero entries (in a real deployment these live on HDFS too;
    // the input scan cost is captured by map_input_records).
    let mut entries: Vec<(Vec<u32>, f64)> = Vec::with_capacity(x.nnz());
    x.for_each_entry(|idx, v| entries.push((idx.to_vec(), v)));

    let norm_x_sq = x.fro_norm_sq();
    let mut fit = 0.0;
    let mut iterations = 0;

    for _iter in 0..cfg.iterations {
        iterations += 1;
        let mut last_m: Option<Mat> = None;
        for mode in 0..order {
            // Broadcast: every job re-reads all N factors from the DFS.
            let factors: Vec<Mat> = (0..order)
                .map(|h| {
                    dfs.load(&format!("factor_{h}"))
                        .map(|rec| factor_from_records(rec, dims[h], f))
                })
                .collect::<std::result::Result<_, _>>()?;

            let job = MttkrpJob {
                mode,
                factors: factors.clone(),
                rank: f,
            };
            let rows = run_job(&job, entries.clone(), &mr_cfg, &counters)?;
            let m = {
                let mut m = Mat::zeros(dims[mode], f);
                for (r, row) in rows {
                    m.row_mut(r as usize).copy_from_slice(&row);
                }
                m
            };

            // Local solve: A_mode = M · (⊛_{h≠mode} A_hᵀA_h)⁻¹.
            let grams: Vec<Mat> = factors.iter().map(Mat::gram).collect();
            let other: Vec<&Mat> = (0..order)
                .filter(|&h| h != mode)
                .map(|h| &grams[h])
                .collect();
            let s = hadamard_all(&other)?;
            let a_new = solve::solve_gram_system(&m, &s, cfg.ridge)?;

            // Materialise the updated factor back to the DFS.
            dfs.store(&format!("factor_{mode}"), &factor_records(&a_new))?;
            if mode == order - 1 {
                last_m = Some(m);
            }
        }

        // Fit via the Gram identity (same formula as the in-memory ALS).
        let factors: Vec<Mat> = (0..order)
            .map(|h| {
                dfs.load(&format!("factor_{h}"))
                    .map(|rec| factor_from_records(rec, dims[h], f))
            })
            .collect::<std::result::Result<_, _>>()?;
        let m = last_m.expect("order >= 1");
        let inner: f64 = m
            .as_slice()
            .iter()
            .zip(factors[order - 1].as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let grams: Vec<Mat> = factors.iter().map(Mat::gram).collect();
        let gram_refs: Vec<&Mat> = grams.iter().collect();
        let model_sq = hadamard_all(&gram_refs)?.sum().max(0.0);
        let err_sq = (norm_x_sq - 2.0 * inner + model_sq).max(0.0);
        fit = if norm_x_sq > 0.0 {
            1.0 - (err_sq.sqrt() / norm_x_sq.sqrt())
        } else {
            1.0
        };
    }

    let factors: Vec<Mat> = (0..order)
        .map(|h| {
            dfs.load(&format!("factor_{h}"))
                .map(|rec| factor_from_records(rec, dims[h], f))
        })
        .collect::<std::result::Result<_, _>>()?;
    let mut model = CpModel::new(vec![1.0; f], factors)?;
    model.normalize();

    Ok(Haten2Report {
        model,
        fit,
        iterations,
        counters: counters.snapshot(),
        dfs_bytes_written: dfs.bytes_written(),
        dfs_bytes_read: dfs.bytes_read(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpcp_haten2_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn low_rank_sparse(dims: &[usize], f: usize, seed: u64) -> SparseTensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        let dense = CpModel::new(vec![1.0; f], factors)
            .unwrap()
            .reconstruct_dense();
        SparseTensor::from_dense(&dense, 0.0)
    }

    #[test]
    fn matches_in_memory_als_trajectory() {
        let x = low_rank_sparse(&[6, 5, 4], 2, 3);
        let dir = workdir("match");
        let cfg = Haten2Config {
            rank: 2,
            iterations: 8,
            seed: 7,
            ..Haten2Config::new(&dir)
        };
        let report = haten2_cp(&x, &cfg).unwrap();

        // The same math in-memory: CP-ALS with identical seeding.
        let opts = tpcp_cp::AlsOptions::builder()
            .rank(2)
            .max_iters(8)
            .tol(0.0)
            .ridge(1e-9)
            .seed(7)
            .init({
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                x.dims()
                    .iter()
                    .map(|&d| random_factor(d, 2, &mut rng))
                    .collect()
            })
            .build()
            .unwrap();
        let reference = tpcp_cp::cp_als_sparse(&x, &opts).unwrap();
        // HaTen2-sim does not rebalance between iterations, so allow a
        // small numerical gap rather than bitwise equality.
        assert!(
            (report.fit - reference.final_fit).abs() < 1e-6,
            "haten2 {} vs als {}",
            report.fit,
            reference.final_fit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intermediate_traffic_scales_with_nnz_times_rank() {
        let x = low_rank_sparse(&[8, 8, 8], 2, 5);
        let dir = workdir("traffic");
        let cfg = Haten2Config {
            rank: 4,
            iterations: 1,
            ..Haten2Config::new(&dir)
        };
        let report = haten2_cp(&x, &cfg).unwrap();
        let s = report.counters;
        // One map output per nnz per mode.
        assert_eq!(s.map_output_records, (x.nnz() * 3) as u64);
        // Each record carries ≥ rank·8 bytes through the shuffle.
        assert!(s.shuffle_bytes >= s.map_output_records * 4 * 8);
        // Factors were materialised and re-read repeatedly.
        assert!(report.dfs_bytes_read > report.dfs_bytes_written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_cap_fails_the_run() {
        let x = low_rank_sparse(&[10, 10, 10], 2, 1);
        let dir = workdir("oom");
        let cfg = Haten2Config {
            rank: 8,
            reducer_memory_bytes: Some(2048),
            ..Haten2Config::new(&dir)
        };
        let err = haten2_cp(&x, &cfg).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dense_inputs_work_through_coo_view() {
        // Table I feeds dense tensors (density 0.2) through the sparse API.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let dense = tpcp_tensor::sparse_support_dense(&[8, 8, 8], 0.2, &mut rng);
        let x = SparseTensor::from_dense(&dense, 0.0);
        let dir = workdir("dense");
        let cfg = Haten2Config {
            rank: 3,
            iterations: 2,
            ..Haten2Config::new(&dir)
        };
        let report = haten2_cp(&x, &cfg).unwrap();
        assert!(report.fit.is_finite());
        assert_eq!(report.iterations, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_rank_rejected() {
        let x = SparseTensor::empty(&[2, 2]);
        let dir = workdir("zr");
        let cfg = Haten2Config {
            rank: 0,
            ..Haten2Config::new(&dir)
        };
        assert!(matches!(
            haten2_cp(&x, &cfg),
            Err(Haten2Error::Config { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
