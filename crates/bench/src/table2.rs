//! Table II: Naive CP vs 2PCP (LRU vs FOR) on a high-density tensor.
//!
//! Paper setting (weak configuration, 8 GB RAM): 1000³ dense tensor of
//! density 0.49, rank 100; 2PCP on TensorDB with Z-order scheduling,
//! comparing LRU against forward-looking replacement at 2×2×2 and 4×4×4
//! partitionings; "Naive CP" (unpartitioned TensorDB CP-ALS) exceeds
//! 12 hours.
//!
//! Default harness setting: side 96 (≈1130× fewer cells), density 0.49,
//! rank 16, same grids/schedule/policies, on-disk unit store with a 1/2
//! buffer so replacement policy differences show up in wall time as well
//! as in swap counts. `--full` restores side 1000 / rank 100.

use crate::fmt::{fmt_bytes, fmt_duration, render_table};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tpcp_datasets::dense_uniform;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use tpcp_tensor::DenseTensor;
use twopcp::{naive_cp_out_of_core, NaiveOocOptions, TwoPcp, TwoPcpConfig};

/// Configuration of the Table II experiment.
#[derive(Clone, Debug)]
pub struct Table2Config {
    /// Cube side (paper: 1000).
    pub side: usize,
    /// Density (paper: 0.49).
    pub density: f64,
    /// Rank (paper: 100).
    pub rank: usize,
    /// Partitionings to compare (paper: 2 and 4 per mode).
    pub parts: Vec<usize>,
    /// Buffer fraction for Phase 2.
    pub buffer_fraction: f64,
    /// Phase-2 budget (the paper ran "until convergence").
    pub max_virtual_iters: usize,
    /// Naive-CP iteration cap.
    pub naive_max_iters: usize,
    /// Scratch directory.
    pub work_dir: PathBuf,
    /// Seed.
    pub seed: u64,
}

impl Table2Config {
    /// Laptop-scale defaults (see module docs).
    pub fn scaled(work_dir: PathBuf) -> Self {
        Table2Config {
            side: 96,
            density: 0.49,
            rank: 16,
            parts: vec![2, 4],
            buffer_fraction: 0.5,
            max_virtual_iters: 30,
            naive_max_iters: 20,
            work_dir,
            seed: 7,
        }
    }

    /// Paper-scale settings.
    pub fn full(work_dir: PathBuf) -> Self {
        Table2Config {
            side: 1000,
            rank: 100,
            ..Table2Config::scaled(work_dir)
        }
    }
}

/// Timings of one partitioning row.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Partitions per mode.
    pub parts: usize,
    /// Mean Phase-1 time per block (the paper's "BD (per block)").
    pub phase1_per_block: Duration,
    /// Phase-2 time under LRU.
    pub phase2_lru: Duration,
    /// Phase-2 time under forward-looking replacement.
    pub phase2_for: Duration,
    /// Total under LRU (Phase 1 + Phase 2).
    pub total_lru: Duration,
    /// Total under FOR.
    pub total_for: Duration,
    /// Phase-2 swap counts (LRU, FOR) — the mechanism behind the gap.
    pub swaps: (u64, u64),
    /// Phase-2 disk traffic under FOR (bytes read + written) — compare
    /// with the naive baseline's full-tensor scans.
    pub phase2_bytes_for: u64,
    /// Phase-2 critical-path read stall in ms (LRU, FOR) — what the
    /// prefetch pipeline removes.
    pub stall_ms: (f64, f64),
    /// Pages the prefetcher read and the pool threw away (LRU, FOR) —
    /// reads that saved nothing.
    pub prefetch_discarded: (u64, u64),
    /// Phase-2 swaps served by the asynchronous prefetcher (LRU, FOR).
    pub prefetch_hits: (u64, u64),
    /// `Q`-Hadamard fold hotness under FOR (ROADMAP item 3: is it ever
    /// worth a phase-2 dimension tree?).
    pub q_hadamard_for: twopcp::QHadamardStats,
}

/// Full result: the Naive CP baseline plus one row per partitioning.
#[derive(Clone, Debug)]
pub struct Table2Result {
    /// Wall time of the out-of-core naive CP baseline (the TensorDB
    /// analogue the paper compares against).
    pub naive_time: Duration,
    /// Fit of the naive baseline.
    pub naive_fit: f64,
    /// Tensor bytes the naive baseline re-read from disk (N full tensor
    /// scans per iteration — the quantity that balloons past 12 hours at
    /// paper scale).
    pub naive_bytes_read: u64,
    /// Per-partitioning rows.
    pub rows: Vec<Table2Row>,
}

fn run_variant(
    x: &DenseTensor,
    cfg: &Table2Config,
    parts: usize,
    policy: PolicyKind,
) -> (Duration, Duration, twopcp::RefineStats, f64) {
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(cfg.rank)
            .parts(vec![parts])
            .schedule(ScheduleKind::ZOrder)
            .policy(policy)
            .buffer_fraction(cfg.buffer_fraction)
            .max_virtual_iters(cfg.max_virtual_iters)
            .tol(1e-2)
            .seed(cfg.seed)
            .work_dir(
                cfg.work_dir
                    .join(format!("t2_p{parts}_{}", policy.abbrev())),
            ),
    )
    .decompose_dense(x)
    .expect("2PCP run failed");
    (
        outcome.phase1_time,
        outcome.phase2_time,
        outcome.phase2,
        outcome.fit,
    )
}

/// Runs the experiment.
///
/// # Panics
/// Panics on configuration errors.
pub fn run(cfg: &Table2Config) -> Table2Result {
    let dims = [cfg.side, cfg.side, cfg.side];
    let x = dense_uniform(&dims, cfg.density, cfg.seed);

    // Naive CP: out-of-core ALS (TensorDB-style) — the tensor is chunked
    // to disk and every iteration re-reads it once per mode.
    let t0 = Instant::now();
    let naive = naive_cp_out_of_core(
        &x,
        &NaiveOocOptions {
            rank: cfg.rank,
            max_iters: cfg.naive_max_iters,
            tol: 1e-2,
            seed: cfg.seed,
            ..NaiveOocOptions::new(cfg.work_dir.join("naive"))
        },
    )
    .expect("naive out-of-core ALS failed");
    let naive_time = t0.elapsed();

    let mut rows = Vec::new();
    for &parts in &cfg.parts {
        let (p1_lru, p2_lru, st_lru, _) = run_variant(&x, cfg, parts, PolicyKind::Lru);
        let (_, p2_for, st_for, _) = run_variant(&x, cfg, parts, PolicyKind::Forward);
        let (io_lru, io_for) = (&st_lru.io, &st_for.io);
        let blocks = parts.pow(3) as u32;
        rows.push(Table2Row {
            parts,
            phase1_per_block: p1_lru / blocks,
            phase2_lru: p2_lru,
            phase2_for: p2_for,
            total_lru: p1_lru + p2_lru,
            total_for: p1_lru + p2_for,
            swaps: (io_lru.fetches, io_for.fetches),
            phase2_bytes_for: io_for.bytes_read + io_for.bytes_written,
            stall_ms: (io_lru.stall_ms(), io_for.stall_ms()),
            prefetch_discarded: (io_lru.prefetch_discarded, io_for.prefetch_discarded),
            prefetch_hits: (io_lru.prefetch_hits, io_for.prefetch_hits),
            q_hadamard_for: st_for.q_hadamard,
        });
    }
    Table2Result {
        naive_time,
        naive_fit: naive.fit,
        naive_bytes_read: naive.bytes_read,
        rows,
    }
}

/// Renders the paper-style table.
pub fn render(cfg: &Table2Config, result: &Table2Result) -> String {
    let mut body = vec![vec![
        "Naive CP (OOC)".to_string(),
        fmt_duration(result.naive_time),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt_bytes(result.naive_bytes_read),
        "-".into(),
        "-".into(),
        "-".into(),
    ]];
    for r in &result.rows {
        body.push(vec![
            format!("{0}x{0}x{0}", r.parts),
            format!("{} (per block)", fmt_duration(r.phase1_per_block)),
            fmt_duration(r.phase2_lru),
            fmt_duration(r.phase2_for),
            fmt_duration(r.total_lru),
            fmt_duration(r.total_for),
            format!("{} / {}", r.swaps.0, r.swaps.1),
            fmt_bytes(r.phase2_bytes_for),
            format!("{:.1} / {:.1}", r.stall_ms.0, r.stall_ms.1),
            format!("{} / {}", r.prefetch_discarded.0, r.prefetch_discarded.1),
            format!("{} / {}", r.prefetch_hits.0, r.prefetch_hits.1),
        ]);
    }
    let mut out = format!(
        "Table II — execution times ({side}^3, density {dens}, rank {rank}, ZO schedule, buffer {buf:.2})\n",
        side = cfg.side,
        dens = cfg.density,
        rank = cfg.rank,
        buf = cfg.buffer_fraction,
    );
    out.push_str(&render_table(
        &[
            "# Part.",
            "Phase I BD",
            "Phase II LRU",
            "Phase II FOR",
            "Total LRU",
            "Total FOR",
            "Swaps LRU/FOR",
            "Disk traffic",
            "Stall ms LRU/FOR",
            "PF dropped LRU/FOR",
            "PF hits LRU/FOR",
        ],
        &body,
    ));
    out.push_str(
        "Disk traffic: naive = full-tensor re-reads (N per iteration);          2PCP = Phase-2 factor-unit traffic only.
",
    );
    out.push_str(
        "Stall = wall time blocked on Phase-2 reads; PF dropped = pages prefetched and thrown away; PF hits = swaps served by the async prefetch pipeline.
",
    );
    // ROADMAP item 3 asks whether the refine loop's Q-Hadamard fold is
    // ever hot enough to warrant a phase-2 dimension tree; answer it in
    // every report.
    for r in &result.rows {
        let share = 100.0 * r.q_hadamard_for.ms() / r.phase2_for.as_secs_f64().max(1e-9) / 1000.0;
        out.push_str(&format!(
            "Q-Hadamard fold ({0}x{0}x{0}, FOR): {1} calls, {2:.2} ms = {3:.3}% of Phase II.\n",
            r.parts,
            r.q_hadamard_for.calls,
            r.q_hadamard_for.ms(),
            share,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table2_has_for_no_worse_than_lru_swaps() {
        let dir = crate::args::scratch_dir("table2_test");
        let cfg = Table2Config {
            side: 16,
            rank: 4,
            parts: vec![2],
            max_virtual_iters: 8,
            naive_max_iters: 4,
            ..Table2Config::scaled(dir.clone())
        };
        let result = run(&cfg);
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert!(
            row.swaps.1 <= row.swaps.0,
            "FOR swaps {} must not exceed LRU swaps {}",
            row.swaps.1,
            row.swaps.0
        );
        let table = render(&cfg, &result);
        assert!(table.contains("Naive CP (OOC)"));
        assert!(table.contains("2x2x2"));
        assert!(
            table.contains("Q-Hadamard fold"),
            "report must answer the q_hadamard hotness question"
        );
        assert!(row.q_hadamard_for.calls > 0, "hotness counter never ticked");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
