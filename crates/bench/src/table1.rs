//! Table I + Figure 11: 2PCP vs HaTen2 on dense tensors.
//!
//! Paper setting: cubic dense tensors of side 500 / 1000 / 1500, density
//! 0.2, rank 10, 2×2×2 partitioning; HaTen2 limited to one iteration
//! ("due to the large execution time"); HaTen2 `FAILS` at 1500³.
//!
//! Default harness setting: sides 60 / 120 / 180 (same 1:2:3 shape, ≈578×
//! fewer non-zeros), identical density/rank/grid, and a per-reducer memory
//! cap calibrated so the largest size exceeds it — reproducing the `FAILS`
//! row mechanically rather than by wall-clock exhaustion. Pass `--full`
//! for paper-scale sides (hours of runtime and ≳30 GB of disk).

use crate::fmt::{fmt_count, fmt_duration, render_table};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tpcp_datasets::dense_uniform;
use tpcp_haten2::{haten2_cp, Haten2Config};
use tpcp_tensor::SparseTensor;
use twopcp::{TwoPcp, TwoPcpConfig};

/// Configuration of the Table I experiment.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// Cube sides to sweep.
    pub sides: Vec<usize>,
    /// Fraction of non-zero cells (paper: 0.2).
    pub density: f64,
    /// Decomposition rank (paper: 10).
    pub rank: usize,
    /// Partitions per mode for 2PCP (paper: 2).
    pub parts: usize,
    /// HaTen2 ALS iterations (paper: 1).
    pub haten2_iterations: usize,
    /// Per-reducer memory cap for the HaTen2 baseline.
    pub haten2_memory_cap: Option<u64>,
    /// Phase-2 virtual-iteration budget for 2PCP.
    pub twopcp_virtual_iters: usize,
    /// Scratch directory.
    pub work_dir: PathBuf,
    /// Seed.
    pub seed: u64,
}

impl Table1Config {
    /// Laptop-scale defaults (see module docs).
    pub fn scaled(work_dir: PathBuf) -> Self {
        Table1Config {
            sides: vec![60, 120, 180],
            density: 0.2,
            rank: 10,
            parts: 2,
            haten2_iterations: 1,
            // ~8 MB/reducer at side 120, ~27 MB at side 180: the largest
            // size exceeds the cap, reproducing Table I's FAILS row.
            haten2_memory_cap: Some(16 << 20),
            twopcp_virtual_iters: 20,
            work_dir,
            seed: 42,
        }
    }

    /// Paper-scale settings (500/1000/1500; use only with hours of budget).
    pub fn full(work_dir: PathBuf) -> Self {
        Table1Config {
            sides: vec![500, 1000, 1500],
            // EC2 R3.xlarge had 30.5 GB per worker; the cap scales the
            // same way the harness cap does (≈ nnz · record bytes / R).
            haten2_memory_cap: Some(8 << 30),
            ..Table1Config::scaled(work_dir)
        }
    }
}

/// One measured row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Cube side.
    pub side: usize,
    /// Non-zero count.
    pub nnz: u64,
    /// 2PCP wall time.
    pub twopcp_time: Duration,
    /// 2PCP exact fit.
    pub twopcp_fit: f64,
    /// 2PCP Phase-2 I/O statistics (swaps, stall, discarded prefetches,
    /// prefetch hits).
    pub twopcp_io: tpcp_storage::IoStats,
    /// HaTen2 wall time (None = FAILS).
    pub haten2_time: Option<Duration>,
    /// HaTen2 fit (None = FAILS).
    pub haten2_fit: Option<f64>,
}

/// Runs the sweep.
///
/// # Panics
/// Panics on configuration errors (the harness treats those as bugs).
pub fn run(cfg: &Table1Config) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (i, &side) in cfg.sides.iter().enumerate() {
        let dims = [side, side, side];
        let x = dense_uniform(&dims, cfg.density, cfg.seed.wrapping_add(i as u64));
        let nnz = x.nnz() as u64;

        // ---- 2PCP ---------------------------------------------------------
        let t0 = Instant::now();
        let outcome = TwoPcp::new(
            TwoPcpConfig::new(cfg.rank)
                .parts(vec![cfg.parts])
                .max_virtual_iters(cfg.twopcp_virtual_iters)
                .tol(1e-2)
                .seed(cfg.seed)
                .work_dir(cfg.work_dir.join(format!("twopcp_{side}"))),
        )
        .decompose_dense(&x)
        .expect("2PCP run failed");
        let twopcp_time = t0.elapsed();

        // ---- HaTen2 baseline ------------------------------------------------
        let sparse = SparseTensor::from_dense(&x, 0.0);
        drop(x);
        let h_cfg = Haten2Config {
            rank: cfg.rank,
            iterations: cfg.haten2_iterations,
            reducer_memory_bytes: cfg.haten2_memory_cap,
            seed: cfg.seed,
            ..Haten2Config::new(cfg.work_dir.join(format!("haten2_{side}")))
        };
        let t1 = Instant::now();
        let (haten2_time, haten2_fit) = match haten2_cp(&sparse, &h_cfg) {
            Ok(report) => (Some(t1.elapsed()), Some(report.fit)),
            Err(e) if e.is_oom() => (None, None),
            Err(e) => panic!("HaTen2 baseline failed unexpectedly: {e}"),
        };

        rows.push(Table1Row {
            side,
            nnz,
            twopcp_time,
            twopcp_fit: outcome.fit,
            twopcp_io: outcome.phase2.io,
            haten2_time,
            haten2_fit,
        });
    }
    rows
}

/// Renders the paper-style table.
pub fn render(cfg: &Table1Config, rows: &[Table1Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{0}x{0}x{0} ({1} nnz)", r.side, fmt_count(r.nnz)),
                fmt_duration(r.twopcp_time),
                format!("{:.4}", r.twopcp_fit),
                format!(
                    "{} sw / {:.1}ms / {} drop / {} pf",
                    r.twopcp_io.fetches,
                    r.twopcp_io.stall_ms(),
                    r.twopcp_io.prefetch_discarded,
                    r.twopcp_io.prefetch_hits
                ),
                r.haten2_time.map_or("FAILS".into(), fmt_duration),
                r.haten2_fit.map_or("FAILS".into(), |f| format!("{f:.4}")),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "Table I — execution times on dense tensors (density {}, rank {}, {p}x{p}x{p} grid; HaTen2: {} iteration(s))\n",
        cfg.density,
        cfg.rank,
        cfg.haten2_iterations,
        p = cfg.parts,
    ));
    out.push_str(&render_table(
        &[
            "Tensor size",
            "2PCP",
            "2PCP fit",
            "P2 swaps/stall/dropped/prefetch",
            "HaTen2",
            "HaTen2 fit",
        ],
        &body,
    ));
    out
}

/// Renders the Figure 11 series (execution time vs non-zeros).
pub fn render_fig11(rows: &[Table1Row]) -> String {
    let mut out = String::from("Figure 11 — 2PCP execution time vs number of non-zero elements\n");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                fmt_count(r.nnz),
                format!("{:.2}", r.twopcp_time.as_secs_f64()),
            ]
        })
        .collect();
    out.push_str(&render_table(&["# non-zeros", "2PCP seconds"], &body));
    // Linearity check: the paper's point is that 2PCP scales ~linearly.
    if rows.len() >= 2 {
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        let nnz_ratio = last.nnz as f64 / first.nnz.max(1) as f64;
        let time_ratio = last.twopcp_time.as_secs_f64() / first.twopcp_time.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "nnz grew {nnz_ratio:.1}x, time grew {time_ratio:.1}x (linear scaling => similar ratios)\n",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_expected_shape() {
        let dir = crate::args::scratch_dir("table1_test");
        let cfg = Table1Config {
            sides: vec![12, 18],
            twopcp_virtual_iters: 4,
            // Cap chosen so the second size fails: nnz(18³)·0.2 ≈ 1166
            // records ≈ 110 KB of shuffle vs nnz(12³)·0.2 ≈ 345.
            haten2_memory_cap: Some(20 << 10),
            ..Table1Config::scaled(dir.clone())
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].haten2_time.is_some(), "small size must pass");
        assert!(rows[1].haten2_time.is_none(), "large size must FAIL");
        assert!(rows[1].nnz > rows[0].nnz * 2);
        let table = render(&cfg, &rows);
        assert!(table.contains("FAILS"));
        let fig = render_fig11(&rows);
        assert!(fig.contains("2PCP seconds"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
