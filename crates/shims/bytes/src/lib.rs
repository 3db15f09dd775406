//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes)
//! crate, with no code: the storage codec and the factor-file slot encoder
//! write their little-endian words with `to_le_bytes`. The crate exists
//! only because the pinned end-to-end benchmark's `Cargo.lock` lists it as
//! a dependency of `tpcp-storage`; dropping it would rewrite that lock. It
//! leaves with that dependency line.
