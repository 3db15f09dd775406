//! Seeded synthetic stand-ins for the paper's evaluation datasets.
//!
//! The paper evaluates on four real datasets (Epinions, Ciao, Enron, the
//! Extended Yale Face Database B) plus billion-scale synthetic dense
//! tensors on EC2. None of these are available here, so each is replaced
//! by a deterministic generator that matches the published shape, density
//! and the structural property the paper's analysis depends on
//! (see DESIGN.md §3 for the substitution argument):
//!
//! | generator | paper dataset | dims | density | preserved property |
//! |---|---|---|---|---|
//! | [`epinions_like`] | Epinions ⟨user,item,category⟩ | 170×1000×18 | 2.4e-4 | sparse, low-rank ratings |
//! | [`ciao_like`] | Ciao ⟨user,item,category⟩ | 167×967×18 | 2.2e-4 | sparse, low-rank ratings |
//! | [`enron_like`] | Enron ⟨time,from,to⟩ | 5632×184×184 | 1.8e-4 | bursty time mode ⇒ high block-density variance |
//! | [`face_like`] | Extended Yale B ⟨x,y,image⟩ | 480×640×100 | 1.0 | dense, smooth, low-rank |
//! | [`dense_uniform`] | Table I/II synthetic | up to 1500³ | 0.2 / 0.49 | dense storage, uniform support |
//! | [`ensemble_like`] | §I fn.2 ensemble simulations | configurable | 1.0 | smooth response surfaces |

#![forbid(unsafe_code)]

mod real_like;
mod source;
mod synth;

pub use real_like::{ciao_like, enron_like, epinions_like, face_like, DatasetSpec};
pub use source::ModelBlockSource;
pub use synth::{dense_uniform, ensemble_like, low_rank_dense, low_rank_sparse};
