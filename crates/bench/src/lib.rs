//! Benchmark harness regenerating every table and figure of the 2PCP
//! paper's evaluation (§VIII).
//!
//! Each experiment lives in its own module with a `run` entry point called
//! by the corresponding binary (`cargo run -p tpcp-bench --release --bin
//! tableN|figN`). Default parameters are scaled to
//! laptop budgets (documented per module, with the scaling argument in
//! DESIGN.md §3); `--full` restores the paper-scale settings where
//! feasible.
//!
//! | target | paper artefact |
//! |---|---|
//! | [`table1`] | Table I (+ Figure 11): 2PCP vs HaTen2 on dense tensors |
//! | [`table2`] | Table II: Naive CP vs 2PCP with LRU/FOR at 2³/4³ |
//! | [`fig12`] | Figure 12 (a–c): swaps/iteration sweep |
//! | [`fig13`] | Figure 13 (a–b): schedule accuracy relative to MC |

#![forbid(unsafe_code)]

pub mod args;
pub mod fig12;
pub mod fig13;
pub mod fmt;
pub mod table1;
pub mod table2;
