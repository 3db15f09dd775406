//! Umbrella crate for the 2PCP reproduction workspace.
//!
//! Re-exports every sub-crate so examples and integration tests can reach
//! the whole system through one dependency. Library users should depend on
//! the individual crates (most importantly [`twopcp`]) directly.

#![forbid(unsafe_code)]

pub use tpcp_cp as cp;
pub use tpcp_datasets as datasets;
pub use tpcp_haten2 as haten2;
pub use tpcp_linalg as linalg;
pub use tpcp_mapreduce as mapreduce;
pub use tpcp_par as par;
pub use tpcp_partition as partition;
pub use tpcp_schedule as schedule;
pub use tpcp_storage as storage;
pub use tpcp_tensor as tensor;
pub use twopcp as core2pcp;
