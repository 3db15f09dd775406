//! Grid partitioning of tensors into blocks (sub-tensors) and slabs.
//!
//! The paper partitions an N-mode tensor `X ∈ R^{I₁×…×I_N}` into a grid of
//! sub-tensors `X = {X_k | k ∈ K}` where mode `i` is split into `Kᵢ` equal
//! partitions (§III-C). [`Grid`] captures that partitioning pattern and
//! provides:
//!
//! * block coordinate ⇄ linear id mapping (row-major over the grid),
//! * per-mode partition ranges (supporting the uneven tail the paper's
//!   "equal partitions" assumption glosses over),
//! * *slab* enumeration — the set `[∗,…,∗,kᵢ,∗,…,∗]` of blocks sharing
//!   partition `kᵢ` on mode `i`, which is the unit the update rules sum
//!   over and the granularity of the paper's data-access units (Def. 4),
//! * dense and sparse tensor splitting/reassembly,
//! * streaming ingest ([`BlockSource`]): yield one block at a time from an
//!   in-memory tensor, an on-disk row-major file, or a generator, so the
//!   full tensor is never resident (see `tpcp-datasets` for the generator
//!   adapter).

#![forbid(unsafe_code)]

mod grid;
mod source;
mod split;

pub use grid::{Grid, SlabIter};
pub use source::{
    write_raw_from_source, Block, BlockSource, DenseMemorySource, FileTensorSource, SourceError,
    SourceResult, SparseMemorySource,
};
pub use split::{assemble_dense, split_dense, split_sparse};
