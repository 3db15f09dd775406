//! Schedule kinds, steps and data-access units.

use crate::curves::{hilbert_rank_blocks, morton_rank_blocks};
use crate::gray::gray_rank_blocks;
use tpcp_partition::Grid;

/// A mode-partition pair `⟨i, kᵢ⟩` — the paper's unit of data access
/// (Def. 4): the global sub-factor `A(i)(kᵢ)` *plus* the mode-`i`
/// sub-factors of every block in the slab `[∗,…,kᵢ,…,∗]`.
///
/// All buffer traffic is counted at this granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId {
    /// The mode `i`.
    pub mode: u16,
    /// The partition index `kᵢ` along that mode.
    pub part: u32,
}

impl UnitId {
    /// Creates a unit id.
    pub fn new(mode: usize, part: usize) -> Self {
        UnitId {
            mode: mode as u16,
            part: part as u32,
        }
    }

    /// Dense linear index of this unit in `0..grid.num_units()`
    /// (units ordered by mode, then partition).
    pub fn linear(&self, grid: &Grid) -> usize {
        let mut base = 0usize;
        for m in 0..self.mode as usize {
            base += grid.parts()[m];
        }
        base + self.part as usize
    }

    /// Inverse of [`UnitId::linear`].
    pub fn from_linear(grid: &Grid, mut lin: usize) -> Self {
        for (m, &p) in grid.parts().iter().enumerate() {
            if lin < p {
                return UnitId::new(m, lin);
            }
            lin -= p;
        }
        panic!("unit linear index out of range");
    }
}

impl std::fmt::Display for UnitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{},{}>", self.mode, self.part)
    }
}

/// One step of an update schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Block-centric step (Algorithm 2): visit block `linear id` and update
    /// all `N` sub-factors it touches.
    Block(usize),
    /// Mode-centric step (Algorithm 1): update the single sub-factor
    /// `A(mode)(part)`.
    ModeUpdate {
        /// Mode being updated.
        mode: usize,
        /// Partition of that mode.
        part: usize,
    },
}

impl Step {
    /// Number of sub-factor updates this step performs: `N` for a block
    /// step (one per mode), `1` for a mode-centric step. The currency of
    /// virtual-iteration accounting (paper Def. 3).
    pub fn update_count(&self, grid: &Grid) -> usize {
        match self {
            Step::Block(_) => grid.order(),
            Step::ModeUpdate { .. } => 1,
        }
    }

    /// The data units this step needs resident in the buffer: `N` units for
    /// a block step, one for a mode-centric step.
    pub fn units(&self, grid: &Grid) -> Vec<UnitId> {
        match *self {
            Step::Block(lin) => grid
                .block_coords(lin)
                .iter()
                .enumerate()
                .map(|(m, &k)| UnitId::new(m, k))
                .collect(),
            Step::ModeUpdate { mode, part } => vec![UnitId::new(mode, part)],
        }
    }
}

/// The update-schedule families evaluated in the paper (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Conventional mode-centric order (paper Algorithm 1, "MC").
    ModeCentric,
    /// Block-centric nested-loop traversal ("FO", §VI-B).
    FiberOrder,
    /// Block-centric Morton-curve traversal ("ZO", §VI-C1).
    ZOrder,
    /// Block-centric Hilbert-curve traversal ("HO", §VI-C2).
    HilbertOrder,
    /// Block-centric mixed-radix Gray-code traversal ("GO") — an
    /// *extension* beyond the paper's evaluated set: unit-step transitions
    /// like Hilbert, native support for non-power-of-two grids, O(order)
    /// rank mapping. See the `schedule_explorer` example.
    GrayOrder,
}

impl ScheduleKind {
    /// The four schedules the paper evaluates, in its presentation order.
    pub const ALL: [ScheduleKind; 4] = [
        ScheduleKind::ModeCentric,
        ScheduleKind::FiberOrder,
        ScheduleKind::ZOrder,
        ScheduleKind::HilbertOrder,
    ];

    /// The paper's four plus this crate's extension schedules.
    pub const ALL_EXTENDED: [ScheduleKind; 5] = [
        ScheduleKind::ModeCentric,
        ScheduleKind::FiberOrder,
        ScheduleKind::ZOrder,
        ScheduleKind::HilbertOrder,
        ScheduleKind::GrayOrder,
    ];

    /// The paper's two-letter abbreviation (MC/FO/ZO/HO).
    pub fn abbrev(&self) -> &'static str {
        match self {
            ScheduleKind::ModeCentric => "MC",
            ScheduleKind::FiberOrder => "FO",
            ScheduleKind::ZOrder => "ZO",
            ScheduleKind::HilbertOrder => "HO",
            ScheduleKind::GrayOrder => "GO",
        }
    }

    /// `true` for the block-centric family (everything but MC).
    pub fn is_block_centric(&self) -> bool {
        !matches!(self, ScheduleKind::ModeCentric)
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

impl std::str::FromStr for ScheduleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "MC" | "MODE" | "MODE-CENTRIC" => Ok(ScheduleKind::ModeCentric),
            "FO" | "FIBER" => Ok(ScheduleKind::FiberOrder),
            "ZO" | "Z" | "Z-ORDER" | "MORTON" => Ok(ScheduleKind::ZOrder),
            "HO" | "H" | "HILBERT" => Ok(ScheduleKind::HilbertOrder),
            "GO" | "GRAY" => Ok(ScheduleKind::GrayOrder),
            other => Err(format!("unknown schedule kind: {other}")),
        }
    }
}

/// Builds one full cycle `C` of the tensor-filling schedule (paper Def. 2).
///
/// * MC: `Σᵢ Kᵢ` [`Step::ModeUpdate`]s — each sub-factor exactly once;
/// * FO/ZO/HO: `Πᵢ Kᵢ` [`Step::Block`]s — each block position exactly once,
///   in the respective traversal order.
///
/// Repeating the returned cycle yields the infinite schedule
/// `S = C : C : C : …`.
pub fn build_cycle(grid: &Grid, kind: ScheduleKind) -> Vec<Step> {
    match kind {
        ScheduleKind::ModeCentric => {
            let mut steps = Vec::with_capacity(grid.num_units());
            for mode in 0..grid.order() {
                for part in 0..grid.parts()[mode] {
                    steps.push(Step::ModeUpdate { mode, part });
                }
            }
            steps
        }
        ScheduleKind::FiberOrder => (0..grid.num_blocks()).map(Step::Block).collect(),
        ScheduleKind::ZOrder => morton_rank_blocks(grid)
            .into_iter()
            .map(Step::Block)
            .collect(),
        ScheduleKind::HilbertOrder => hilbert_rank_blocks(grid)
            .into_iter()
            .map(Step::Block)
            .collect(),
        ScheduleKind::GrayOrder => gray_rank_blocks(grid)
            .into_iter()
            .map(Step::Block)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid222() -> Grid {
        Grid::uniform(&[8, 8, 8], 2)
    }

    #[test]
    fn unit_linear_roundtrip() {
        let g = Grid::new(&[8, 9, 10], &[2, 3, 5]);
        for lin in 0..g.num_units() {
            let u = UnitId::from_linear(&g, lin);
            assert_eq!(u.linear(&g), lin);
        }
        assert_eq!(UnitId::new(1, 2).linear(&g), 2 + 2);
        assert_eq!(UnitId::new(2, 0).linear(&g), 2 + 3);
    }

    #[test]
    fn mode_centric_cycle_shape() {
        let g = grid222();
        let c = build_cycle(&g, ScheduleKind::ModeCentric);
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], Step::ModeUpdate { mode: 0, part: 0 });
        assert_eq!(c[5], Step::ModeUpdate { mode: 2, part: 1 });
        // Each step needs exactly one unit.
        assert!(c.iter().all(|s| s.units(&g).len() == 1));
    }

    #[test]
    fn block_centric_cycles_are_tensor_filling() {
        let g = grid222();
        for kind in [
            ScheduleKind::FiberOrder,
            ScheduleKind::ZOrder,
            ScheduleKind::HilbertOrder,
        ] {
            let c = build_cycle(&g, kind);
            assert_eq!(c.len(), g.num_blocks(), "{kind}");
            let mut seen: Vec<usize> = c
                .iter()
                .map(|s| match s {
                    Step::Block(l) => *l,
                    _ => panic!("unexpected mode step"),
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..g.num_blocks()).collect::<Vec<_>>(), "{kind}");
        }
    }

    #[test]
    fn block_step_units() {
        let g = grid222();
        let lin = g.block_linear(&[1, 0, 1]);
        let units = Step::Block(lin).units(&g);
        assert_eq!(
            units,
            vec![UnitId::new(0, 1), UnitId::new(1, 0), UnitId::new(2, 1)]
        );
    }

    #[test]
    fn fiber_order_consecutive_blocks_share_units() {
        // §VI-B: along a fiber only the last-mode unit changes.
        let g = Grid::uniform(&[8, 8, 8], 4);
        let c = build_cycle(&g, ScheduleKind::FiberOrder);
        let mut shared_counts = Vec::new();
        for w in c.windows(2) {
            let u1 = w[0].units(&g);
            let u2 = w[1].units(&g);
            let shared = u1.iter().filter(|u| u2.contains(u)).count();
            shared_counts.push(shared);
        }
        // Most transitions share N-1 = 2 units (all except fiber wrap).
        let full_share = shared_counts.iter().filter(|&&s| s == 2).count();
        assert!(full_share >= c.len() - 1 - (c.len() / 4));
    }

    #[test]
    fn hilbert_consecutive_blocks_share_n_minus_1_units_everywhere() {
        // The Hilbert walk changes exactly one coordinate per step on a
        // power-of-two grid, so every transition shares N-1 units.
        let g = grid222();
        let c = build_cycle(&g, ScheduleKind::HilbertOrder);
        for w in c.windows(2) {
            let u1 = w[0].units(&g);
            let u2 = w[1].units(&g);
            let shared = u1.iter().filter(|u| u2.contains(u)).count();
            assert_eq!(shared, 2);
        }
    }

    #[test]
    fn schedule_kind_parsing_and_display() {
        use std::str::FromStr;
        for kind in ScheduleKind::ALL {
            assert_eq!(ScheduleKind::from_str(kind.abbrev()).unwrap(), kind);
        }
        assert!(ScheduleKind::from_str("nope").is_err());
        assert_eq!(ScheduleKind::ZOrder.to_string(), "ZO");
        assert!(ScheduleKind::HilbertOrder.is_block_centric());
        assert!(!ScheduleKind::ModeCentric.is_block_centric());
    }
}
