//! Figure 13 (a–b): decomposition accuracy of block-centric schedules
//! relative to the mode-centric baseline.
//!
//! Paper setting: four datasets (Epinions, Ciao, Enron, Face) × grids
//! 2³/4³/8³, buffer 1/3, rank 100, stopping at a 10⁻² per-iteration
//! improvement with virtual-iteration caps of 100 (sub-figure a) and
//! 200 (sub-figure b). Reported quantity: the relative accuracy difference
//! of FO/ZO/HO against MC — positive means the block-centric schedule
//! matched or beat the conventional one.
//!
//! Default harness setting: the synthetic dataset stand-ins (see
//! `tpcp-datasets`), rank 10, Face at 1/8 scale. `--full` restores
//! rank 100 and full-size Face.

use crate::fmt::render_table;
use tpcp_datasets::{ciao_like, enron_like, epinions_like, face_like};
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use tpcp_tensor::{DenseTensor, SparseTensor};
use twopcp::{TwoPcp, TwoPcpConfig};

/// The datasets of Figure 13, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig13Dataset {
    /// Epinions-like ⟨user, item, category⟩ ratings.
    Epinions,
    /// Ciao-like ⟨user, item, category⟩ ratings.
    Ciao,
    /// Enron-like ⟨time, from, to⟩ email with bursty time mode.
    Enron,
    /// Face-like dense image stack.
    Face,
}

impl Fig13Dataset {
    /// All four datasets.
    pub const ALL: [Fig13Dataset; 4] = [
        Fig13Dataset::Epinions,
        Fig13Dataset::Ciao,
        Fig13Dataset::Enron,
        Fig13Dataset::Face,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Fig13Dataset::Epinions => "Epinions",
            Fig13Dataset::Ciao => "Ciao",
            Fig13Dataset::Enron => "Enron",
            Fig13Dataset::Face => "Face",
        }
    }
}

enum Data {
    Dense(DenseTensor),
    Sparse(SparseTensor),
}

/// Configuration of the Figure 13 experiment.
#[derive(Clone, Debug)]
pub struct Fig13Config {
    /// Decomposition rank (paper: 100).
    pub rank: usize,
    /// Grids to sweep (partitions per mode).
    pub grids: Vec<usize>,
    /// Virtual-iteration caps (paper: 100 and 200).
    pub budgets: Vec<usize>,
    /// Buffer fraction (paper: 1/3).
    pub buffer_fraction: f64,
    /// Stopping tolerance (paper: 10⁻²).
    pub tol: f64,
    /// Downscale factor for the Face dataset.
    pub face_scale: usize,
    /// Seed for the dataset generators and ALS.
    pub seed: u64,
}

impl Fig13Config {
    /// Laptop-scale defaults.
    pub fn scaled() -> Self {
        Fig13Config {
            rank: 10,
            grids: vec![2, 4, 8],
            budgets: vec![100, 200],
            buffer_fraction: 1.0 / 3.0,
            tol: 1e-2,
            face_scale: 8,
            seed: 17,
        }
    }

    /// Paper-scale settings (rank 100, full-size Face).
    pub fn full() -> Self {
        Fig13Config {
            rank: 100,
            face_scale: 1,
            ..Fig13Config::scaled()
        }
    }
}

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Fig13Cell {
    /// Dataset.
    pub dataset: Fig13Dataset,
    /// Partitions per mode.
    pub grid: usize,
    /// Virtual-iteration cap.
    pub budget: usize,
    /// Schedule.
    pub schedule: ScheduleKind,
    /// Exact fit against the input tensor.
    pub fit: f64,
}

fn load(dataset: Fig13Dataset, cfg: &Fig13Config) -> Data {
    match dataset {
        Fig13Dataset::Epinions => Data::Sparse(epinions_like(cfg.seed)),
        Fig13Dataset::Ciao => Data::Sparse(ciao_like(cfg.seed)),
        Fig13Dataset::Enron => Data::Sparse(enron_like(cfg.seed)),
        Fig13Dataset::Face => Data::Dense(face_like(cfg.seed, cfg.face_scale)),
    }
}

fn run_one(
    data: &Data,
    cfg: &Fig13Config,
    grid: usize,
    schedule: ScheduleKind,
    budget: usize,
) -> f64 {
    let config = TwoPcpConfig::new(cfg.rank)
        .parts(vec![grid])
        .schedule(schedule)
        .policy(PolicyKind::Forward)
        .buffer_fraction(cfg.buffer_fraction)
        .max_virtual_iters(budget)
        .tol(cfg.tol)
        .seed(cfg.seed);
    let driver = TwoPcp::new(config);
    let outcome = match data {
        Data::Dense(x) => driver.decompose_dense(x),
        Data::Sparse(x) => driver.decompose_sparse(x),
    }
    .expect("fig13 run failed");
    outcome.fit
}

/// Runs the sweep (`datasets × grids × budgets × schedules`).
///
/// # Panics
/// Panics on configuration errors.
pub fn run(cfg: &Fig13Config) -> Vec<Fig13Cell> {
    run_subset(cfg, &Fig13Dataset::ALL)
}

/// Runs the sweep on a subset of datasets (used by tests and benches).
///
/// # Panics
/// Panics on configuration errors.
pub fn run_subset(cfg: &Fig13Config, datasets: &[Fig13Dataset]) -> Vec<Fig13Cell> {
    let mut cells = Vec::new();
    for &dataset in datasets {
        let data = load(dataset, cfg);
        for &grid in &cfg.grids {
            for &budget in &cfg.budgets {
                for schedule in ScheduleKind::ALL {
                    let fit = run_one(&data, cfg, grid, schedule, budget);
                    cells.push(Fig13Cell {
                        dataset,
                        grid,
                        budget,
                        schedule,
                        fit,
                    });
                }
            }
        }
    }
    cells
}

/// Relative accuracy difference (%) of `schedule` against MC for a given
/// cell group — the quantity the figure plots.
pub fn relative_diff(cells: &[Fig13Cell], cell: &Fig13Cell) -> f64 {
    let mc = cells
        .iter()
        .find(|c| {
            c.dataset == cell.dataset
                && c.grid == cell.grid
                && c.budget == cell.budget
                && c.schedule == ScheduleKind::ModeCentric
        })
        .expect("MC baseline present");
    100.0 * (cell.fit - mc.fit) / mc.fit.abs().max(1e-9)
}

/// Renders the two paper sub-figures as tables (one per budget).
pub fn render(cfg: &Fig13Config, cells: &[Fig13Cell]) -> String {
    let mut out = String::new();
    for &budget in &cfg.budgets {
        out.push_str(&format!(
            "Figure 13 — relative accuracy vs MC (buffer {:.2}, rank {}, max {budget} virtual iterations)\n",
            cfg.buffer_fraction, cfg.rank
        ));
        let mut body = Vec::new();
        for dataset in Fig13Dataset::ALL {
            for &grid in &cfg.grids {
                let mc = cells.iter().find(|c| {
                    c.dataset == dataset
                        && c.grid == grid
                        && c.budget == budget
                        && c.schedule == ScheduleKind::ModeCentric
                });
                let Some(mc) = mc else { continue };
                let mut row = vec![
                    dataset.name().to_string(),
                    format!("{grid}x{grid}x{grid}"),
                    format!("{:.4}", mc.fit),
                ];
                for schedule in [
                    ScheduleKind::FiberOrder,
                    ScheduleKind::ZOrder,
                    ScheduleKind::HilbertOrder,
                ] {
                    let cell = cells
                        .iter()
                        .find(|c| {
                            c.dataset == dataset
                                && c.grid == grid
                                && c.budget == budget
                                && c.schedule == schedule
                        })
                        .expect("cell present");
                    row.push(format!("{:+.2}%", relative_diff(cells, cell)));
                }
                body.push(row);
            }
        }
        if body.is_empty() {
            continue;
        }
        out.push_str(&render_table(
            &["Dataset", "Grid", "MC fit", "FO", "ZO", "HO"],
            &body,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_cells_are_schedule_insensitive() {
        // The paper's core accuracy finding: on the dense Face data the
        // mode- and block-centric schedules are "virtually identical".
        let cfg = Fig13Config {
            rank: 4,
            grids: vec![2],
            budgets: vec![30],
            face_scale: 16,
            ..Fig13Config::scaled()
        };
        let cells = run_subset(&cfg, &[Fig13Dataset::Face]);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            if cell.schedule != ScheduleKind::ModeCentric {
                let d = relative_diff(&cells, cell);
                assert!(d.abs() < 5.0, "{:?} diff {d}%", cell.schedule);
            }
        }
        let rendered = render(&cfg, &cells);
        assert!(rendered.contains("Face"));
        assert!(rendered.contains("HO"));
    }

    #[test]
    fn sparse_dataset_runs_all_grids() {
        let cfg = Fig13Config {
            rank: 3,
            grids: vec![2, 4],
            budgets: vec![20],
            ..Fig13Config::scaled()
        };
        let cells = run_subset(&cfg, &[Fig13Dataset::Epinions]);
        assert_eq!(cells.len(), 2 * 4);
        for cell in &cells {
            assert!(cell.fit.is_finite(), "{cell:?}");
        }
    }
}
