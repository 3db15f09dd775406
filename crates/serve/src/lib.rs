//! **tpcp-serve** — a tensor-serving daemon for decomposed 2PCP models.
//!
//! A decomposition saved with [`twopcp::Model::save`] becomes a served
//! artifact: `tpcp-serve` loads every `*.2pcpm` container in a directory
//! and answers concurrent queries — entry/fiber/slice reconstruction,
//! top-k along a mode, factor-row cosine similarity — over a versioned
//! length-prefixed binary protocol on plain TCP.
//!
//! Layering (the pgsqlite/spark2026 shape):
//!
//! * [`protocol`] — the frame codec and payload encodings, shared
//!   verbatim by server and client so the two sides cannot drift;
//! * [`registry`] — named + versioned models with `ArcSwap`-style hot
//!   reload (RELOAD opcode or SIGHUP);
//! * [`router`] — opcode dispatch over the registry, with per-session
//!   version pinning (a hot swap never mixes versions mid-connection);
//! * [`cache`] — an O(1) LRU of normalized-request → response, keyed on
//!   the pinned model version so swaps self-invalidate, bounded by entry
//!   count and by response bytes;
//! * [`metrics`] — per-opcode counters and log2-µs latency histograms,
//!   served by the STATS opcode;
//! * [`server`] — the bounded accept loop and the session threads, one
//!   per live connection: each turn reads what has arrived, answers every
//!   whole frame in order and writes the answers once, so a pipelining
//!   client pays one read and one write per burst (memory bounded by
//!   [`server::PIPELINE_DEPTH`] maximal frames in, 64 KiB out). Unix
//!   only — it waits in `poll(2)`;
//! * [`client`] — a blocking client used by `tpcp-query`, the
//!   integration tests and the bench, with `batch()`/`pipeline()`
//!   multi-request APIs and bounded `Busy` retry.
//!
//! The wire contract is specified in `docs/protocol.md`.

pub mod cache;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;

pub use cache::QueryCache;
pub use client::{
    decode_entry_payload, decode_fiber_payload, decode_meta_payload, decode_ranked, request,
    Client, MetaReport, OpStat, ReloadReport, StatsReport, CLIENT_PIPELINE_WINDOW,
};
pub use metrics::{Metrics, OpSnapshot};
pub use protocol::{
    decode_batch_request, decode_batch_response, encode_batch_request, encode_batch_response,
    BatchSub, BatchSubResponse, Opcode, ProtoError, Status, MAX_BATCH_SUBS, MIN_VERSION, VERSION,
};
pub use registry::{ModelEntry, ModelRegistry};
pub use router::{Router, SessionState};
pub use server::PIPELINE_DEPTH;
pub use server::{ServeOptions, Server, DEFAULT_ADDR};
