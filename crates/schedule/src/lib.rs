//! Update schedules for the 2PCP iterative-refinement phase.
//!
//! The paper (§V–VI) drives Phase 2 by an *update schedule*: a cyclic,
//! tensor-filling sequence of steps. Four schedules are implemented:
//!
//! * **Mode-centric (MC)** — the conventional GridPARAFAC order
//!   (Algorithm 1): every mode in turn, every partition of that mode;
//! * **Fiber-order (FO)** — block-centric, nested-loop traversal of block
//!   positions (Algorithm 2 + §VI-B);
//! * **Z-order (ZO)** — block-centric traversal along the Morton curve
//!   (§VI-C1);
//! * **Hilbert-order (HO)** — block-centric traversal along the
//!   N-dimensional Hilbert curve (§VI-C2, Skilling's transpose algorithm).
//!
//! The crate also provides:
//!
//! * [`UnitId`] — the mode-partition pair `⟨i, kᵢ⟩` of paper Def. 4, the
//!   granularity of all buffer traffic;
//! * [`Step::units`] — the data units a step touches (N units for a block
//!   step, one for a mode-centric step);
//! * virtual-iteration segmentation (paper Def. 3): both schedule families
//!   are compared per `Σᵢ Kᵢ` steps;
//! * [`CycleOracle`] — "how far in the future will this unit be needed
//!   again?", the quantity the forward-looking replacement policy of §VII-B
//!   ranks evictions by.

#![forbid(unsafe_code)]

mod curves;
mod gray;
mod oracle;
mod steps;

pub use curves::{
    hilbert_coords, hilbert_index, hilbert_rank_blocks, morton_index, morton_rank_blocks,
};
pub use gray::{gray_coords, gray_rank, gray_rank_blocks};
pub use oracle::{AccessSequence, CycleOracle, NextUseOracle};
pub use steps::{build_cycle, ScheduleKind, Step, UnitId};

/// Length of one virtual iteration for `grid`: `Σᵢ Kᵢ` **sub-factor
/// updates** (paper Def. 3 — "the length of each virtual iteration is
/// `Σ Kᵢ` updates of the sub-factors of X").
///
/// A mode-centric cycle performs exactly `ΣKᵢ` updates (one per step), so
/// one MC cycle is one virtual iteration. A block-centric step performs
/// `N` updates (one per mode), so a virtual iteration spans `ΣKᵢ / N`
/// block visits and a full block-centric cycle spans `N·ΠKᵢ / ΣKᵢ`
/// virtual iterations. This update-based normalisation is what makes the
/// per-iteration swap counts of the two schedule families comparable
/// (Figure 12).
pub fn virtual_iteration_len(grid: &tpcp_partition::Grid) -> usize {
    grid.num_units()
}
