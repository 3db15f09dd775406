//! Offline stand-in for the [`memmap2`](https://crates.io/crates/memmap2)
//! crate, with no code: nothing in the workspace maps a file. The crate
//! exists only because the pinned end-to-end benchmark's `Cargo.lock`
//! lists it as a dependency of `twopcp` and `tpcp-storage`; dropping it
//! would rewrite that lock. It leaves with those two dependency lines.
