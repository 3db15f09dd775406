//! Request routing: one decoded frame in, one response frame out.
//!
//! The router owns nothing mutable per request — it borrows the shared
//! [`ModelRegistry`], [`QueryCache`] and [`Metrics`], plus the calling
//! session's [`SessionState`]. Model resolution goes through the session
//! *pin map*: the first time a session names a model it captures the
//! current registry entry and keeps answering from it, so a hot reload
//! mid-session never mixes versions within one connection. Error
//! responses carry a human-readable message string as payload; the
//! connection stays usable after any status except a frame-layer error.
//!
//! # BATCH dispatch (protocol v2)
//!
//! A BATCH envelope is unpacked into sub-requests and answered with one
//! sub-response each, in order, with per-sub status — one bad sub fails
//! alone. Every sub goes through `Router::dispatch`, the code a lone
//! frame of it goes through: the same validation, the same query-cache
//! key (identical bytes → identical key) and the same model evaluation,
//! so every sub's answer is bitwise what its own frame would get. Each
//! sub records once under its own opcode in [`Metrics`], at its own cost,
//! with the status its client receives. SHUTDOWN and nested BATCH are
//! rejected per-sub.
//!
//! # The response cap
//!
//! No answer leaves the router larger than [`MAX_RESPONSE_PAYLOAD`], the
//! most a client reads. A GET_SLICE whose answer would exceed it is
//! refused with `TooLarge` before it is evaluated (its size is known from
//! the model's dims). Inside a BATCH the limit is what is left of the
//! envelope, so the subs' answers together cannot be evaluated past it;
//! once assembled, any sub whose answer would push the envelope past the
//! cap is answered `TooLarge` instead, in request order.

use crate::cache::QueryCache;
use crate::metrics::Metrics;
use crate::protocol::{
    decode_batch_request, enc, encode_batch_response, BatchSubResponse, Dec, Frame, Opcode, Status,
    MAX_RESPONSE_PAYLOAD, VERSION,
};
use crate::registry::{ModelEntry, ModelRegistry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use twopcp::TwoPcpError;

/// Ceiling on `k` in TOP_K / SIMILAR requests (defensive: bounds the
/// response size independently of model shape).
pub const MAX_K: u32 = 1 << 20;

/// The response cap as a length.
const CAP: usize = MAX_RESPONSE_PAYLOAD as usize;
/// Bytes of a BATCH response before its first sub (the sub count).
const BATCH_HEAD: usize = 2;
/// Bytes of each BATCH sub-response before its payload (opcode, status,
/// length).
const SUB_HEAD: usize = 7;

/// Per-connection state: the models this session has pinned.
#[derive(Default)]
pub struct SessionState {
    pins: HashMap<String, Arc<ModelEntry>>,
}

impl SessionState {
    /// Fresh state with no pins.
    pub fn new() -> Self {
        SessionState::default()
    }

    /// Resolves `name`, pinning the registry's current entry on first
    /// use so later reloads do not change this session's answers.
    fn resolve(&mut self, registry: &ModelRegistry, name: &str) -> Option<Arc<ModelEntry>> {
        if let Some(pinned) = self.pins.get(name) {
            return Some(pinned.clone());
        }
        let entry = registry.snapshot().get(name)?.clone();
        self.pins.insert(name.to_string(), entry.clone());
        Some(entry)
    }
}

/// A routed response, plus whether the server should stop.
pub struct Response {
    /// Wire status code.
    pub status: Status,
    /// Response payload (an error message string on non-OK statuses).
    pub payload: Vec<u8>,
    /// `true` after a SHUTDOWN request was acknowledged.
    pub shutdown: bool,
}

impl Response {
    fn ok(payload: Vec<u8>) -> Self {
        Response {
            status: Status::Ok,
            payload,
            shutdown: false,
        }
    }

    fn err(status: Status, message: impl AsRef<str>) -> Self {
        let mut payload = Vec::new();
        enc::string(&mut payload, message.as_ref());
        Response {
            status,
            payload,
            shutdown: false,
        }
    }
}

/// Stateless dispatcher over the shared serving state.
pub struct Router {
    /// Served models.
    pub registry: Arc<ModelRegistry>,
    /// Response cache.
    pub cache: Arc<QueryCache>,
    /// Per-opcode counters and histograms.
    pub metrics: Arc<Metrics>,
}

impl Router {
    /// Routes one request frame, recording latency, outcome and payload
    /// bytes in [`Metrics`]. Responses are encoded for the *frame's*
    /// protocol version, so v1 clients get v1 bodies back.
    pub fn handle(&self, session: &mut SessionState, frame: &Frame) -> Response {
        let start = Instant::now();
        let Some(op) = Opcode::from_u8(frame.opcode) else {
            // Unknown opcodes have no metrics slot; answer without one.
            return Response::err(
                Status::UnknownOpcode,
                format!("opcode {:#04x} not recognised", frame.opcode),
            );
        };
        let mut resp = self.dispatch(session, op, &frame.payload, frame.version, CAP);
        if resp.payload.len() > CAP {
            resp = too_large(resp.payload.len(), CAP);
        }
        self.metrics
            .record(op, start.elapsed(), resp.status == Status::Ok);
        self.metrics
            .record_bytes(op, frame.payload.len() as u64, resp.payload.len() as u64);
        resp
    }

    /// Answers one request; `limit` is the most bytes its answer may take
    /// (checked before evaluation where the size is known up front).
    fn dispatch(
        &self,
        session: &mut SessionState,
        op: Opcode,
        payload: &[u8],
        version: u8,
        limit: usize,
    ) -> Response {
        match op {
            Opcode::Ping => Response::ok(Vec::new()),
            Opcode::ListModels => self.list_models(),
            Opcode::Stats => self.stats(version),
            Opcode::Reload => self.reload(),
            Opcode::Shutdown => Response {
                status: Status::Ok,
                payload: Vec::new(),
                shutdown: true,
            },
            Opcode::Batch => {
                if version < 2 {
                    return Response::err(Status::BadRequest, "BATCH requires protocol version 2");
                }
                self.batch(session, payload)
            }
            Opcode::ModelMeta
            | Opcode::GetEntry
            | Opcode::GetFiber
            | Opcode::GetSlice
            | Opcode::TopK
            | Opcode::Similar => self.model_query(session, op, payload, limit),
        }
    }

    fn list_models(&self) -> Response {
        let snap = self.registry.snapshot();
        let mut names: Vec<&String> = snap.keys().collect();
        names.sort();
        let mut out = Vec::new();
        enc::u32(&mut out, names.len() as u32);
        for name in names {
            enc::string(&mut out, name);
            enc::u64(&mut out, snap[name].version);
        }
        Response::ok(out)
    }

    fn stats(&self, version: u8) -> Response {
        let mut out = Vec::new();
        out.push(Opcode::ALL.len() as u8);
        for op in Opcode::ALL {
            let s = self.metrics.snapshot(op);
            out.push(op as u8);
            enc::u64(&mut out, s.count);
            enc::u64(&mut out, s.errors);
            enc::u64(&mut out, s.total_ns);
            // v2 rows carry byte accounting; a v1 client's decoder does
            // not know these fields, so they are version-gated.
            if version >= 2 {
                enc::u64(&mut out, s.bytes_in);
                enc::u64(&mut out, s.bytes_out);
            }
            out.push(s.buckets.len() as u8);
            for b in s.buckets {
                enc::u64(&mut out, b);
            }
        }
        let (hits, misses, len) = self.cache.counters();
        enc::u64(&mut out, hits);
        enc::u64(&mut out, misses);
        enc::u64(&mut out, len);
        enc::u64(&mut out, self.registry.generation());
        Response::ok(out)
    }

    fn reload(&self) -> Response {
        let (count, errors) = self.registry.reload();
        let mut out = Vec::new();
        enc::u32(&mut out, count as u32);
        enc::u64(&mut out, self.registry.generation());
        enc::u32(&mut out, errors.len() as u32);
        for e in &errors {
            enc::string(&mut out, e);
        }
        Response::ok(out)
    }

    /// All model-addressed opcodes: resolve the pin, consult the cache,
    /// evaluate on miss.
    fn model_query(
        &self,
        session: &mut SessionState,
        op: Opcode,
        payload: &[u8],
        limit: usize,
    ) -> Response {
        let mut dec = Dec::new(payload);
        let name = match dec.string() {
            Ok(n) => n,
            Err(e) => return Response::err(Status::BadRequest, e.to_string()),
        };
        let Some(entry) = session.resolve(&self.registry, &name) else {
            return Response::err(Status::UnknownModel, format!("no model named {name:?}"));
        };
        if let Some(cached) = self.cache.get(op as u8, entry.version, payload) {
            return Response::ok(cached);
        }
        let result = match op {
            Opcode::ModelMeta => meta_response(&entry),
            Opcode::GetEntry => entry_response(&entry, dec),
            Opcode::GetFiber => fiber_response(&entry, dec),
            Opcode::GetSlice => slice_response(&entry, dec, limit),
            Opcode::TopK => top_k_response(&entry, dec),
            Opcode::Similar => similar_response(&entry, dec),
            _ => unreachable!("non-model opcode in model_query"),
        };
        match result {
            Ok(out) => {
                self.cache
                    .put(op as u8, entry.version, payload, out.clone());
                Response::ok(out)
            }
            Err(resp) => resp,
        }
    }

    /// The BATCH envelope: each sub goes through [`Router::dispatch`], as
    /// a lone frame of it would, in request order and within what is left
    /// of the envelope. Only v2 frames carry one, so its subs answer at v2.
    /// Each sub is recorded under its own opcode once [`fit_envelope`] has
    /// settled the status its client receives.
    fn batch(&self, session: &mut SessionState, payload: &[u8]) -> Response {
        let subs = match decode_batch_request(payload) {
            Ok(s) => s,
            Err(e) => return Response::err(Status::BadRequest, e.to_string()),
        };
        let mut out = Vec::with_capacity(subs.len());
        // Per sub, its opcode and cost; `None` for a sub refused unrouted.
        let mut costs = Vec::with_capacity(subs.len());
        // Envelope bytes taken by the subs answered so far.
        let mut used = BATCH_HEAD;
        for sub in &subs {
            let (resp, cost) = match Opcode::from_u8(sub.opcode) {
                None => (
                    Response::err(
                        Status::UnknownOpcode,
                        format!("opcode {:#04x} not recognised", sub.opcode),
                    ),
                    None,
                ),
                Some(Opcode::Batch) => (
                    Response::err(Status::BadRequest, "nested BATCH is not allowed"),
                    None,
                ),
                Some(Opcode::Shutdown) => (
                    Response::err(Status::BadRequest, "SHUTDOWN is not allowed inside a BATCH"),
                    None,
                ),
                Some(op) => {
                    let t = Instant::now();
                    let limit = CAP.saturating_sub(used + SUB_HEAD);
                    let resp = self.dispatch(session, op, &sub.payload, VERSION, limit);
                    (resp, Some((op, t.elapsed())))
                }
            };
            used += SUB_HEAD + resp.payload.len();
            out.push(sub_response(sub.opcode, resp));
            costs.push(cost);
        }
        fit_envelope(&mut out);
        for (sub, cost) in out.iter().zip(costs) {
            if let Some((op, elapsed)) = cost {
                self.metrics
                    .record(op, elapsed, sub.status == Status::Ok as u16);
            }
        }
        Response::ok(encode_batch_response(&out))
    }
}

fn sub_response(opcode: u8, resp: Response) -> BatchSubResponse {
    BatchSubResponse {
        opcode,
        status: resp.status as u16,
        payload: resp.payload,
    }
}

/// Answers `TooLarge`, in request order, every sub whose answer would
/// push the encoded envelope past [`MAX_RESPONSE_PAYLOAD`]. Room is kept
/// for each later sub at the smaller of its answer and the refusal, so
/// the refusals themselves always fit: a sub is refused only when its
/// answer is longer than the refusal that replaces it.
fn fit_envelope(subs: &mut [BatchSubResponse]) {
    let encoded: usize = subs.iter().map(|s| SUB_HEAD + s.payload.len()).sum();
    if BATCH_HEAD + encoded <= CAP {
        return;
    }
    let refusal = Response::err(
        Status::TooLarge,
        format!("answer would push the BATCH response past {CAP} bytes"),
    )
    .payload;
    let floor = |s: &BatchSubResponse| SUB_HEAD + s.payload.len().min(refusal.len());
    let mut later: usize = subs.iter().map(floor).sum();
    let mut total = BATCH_HEAD;
    for s in subs {
        later -= floor(s);
        if total + SUB_HEAD + s.payload.len() + later > CAP {
            s.status = Status::TooLarge as u16;
            s.payload = refusal.clone();
        }
        total += SUB_HEAD + s.payload.len();
    }
}

/// A `TooLarge` answer for a `bytes`-long answer over `limit`.
fn too_large(bytes: usize, limit: usize) -> Response {
    Response::err(
        Status::TooLarge,
        format!("a {bytes}-byte answer exceeds the {limit}-byte limit"),
    )
}

type QueryResult = std::result::Result<Vec<u8>, Response>;

/// Maps a model-layer error onto a wire status: query-shape problems are
/// the client's fault, anything else is ours.
fn query_err(e: TwoPcpError) -> Response {
    match e {
        TwoPcpError::Model { reason } => Response::err(Status::BadRequest, reason),
        other => Response::err(Status::Internal, other.to_string()),
    }
}

fn bad(e: impl std::fmt::Display) -> Response {
    Response::err(Status::BadRequest, e.to_string())
}

fn meta_response(entry: &ModelEntry) -> QueryResult {
    let m = &entry.model.meta;
    let mut out = Vec::new();
    enc::string(&mut out, &m.name);
    enc::u64(&mut out, entry.version);
    enc::u32(&mut out, m.rank as u32);
    enc::u32(&mut out, m.dims.len() as u32);
    for &d in &m.dims {
        enc::u64(&mut out, d as u64);
    }
    enc::u64(&mut out, m.seed);
    enc::f64(&mut out, m.fit);
    enc::string(&mut out, &m.schedule);
    enc::u32(&mut out, m.parts.len() as u32);
    for &p in &m.parts {
        enc::u64(&mut out, p as u64);
    }
    // Versioned tail: compression provenance (flag byte + fields). Old
    // clients stop before the tail; new clients treat its absence (an old
    // server) as "no provenance".
    match &m.compress {
        Some(c) => {
            out.push(1);
            enc::u32(&mut out, c.mlrank.len() as u32);
            for &r in &c.mlrank {
                enc::u64(&mut out, r as u64);
            }
            enc::f64(&mut out, c.energy);
            enc::u32(&mut out, c.core_shape.len() as u32);
            for &d in &c.core_shape {
                enc::u64(&mut out, d as u64);
            }
        }
        None => out.push(0),
    }
    Ok(out)
}

fn entry_response(entry: &ModelEntry, mut dec: Dec) -> QueryResult {
    let coords = dec.coords().map_err(bad)?;
    dec.finish().map_err(bad)?;
    let v = entry.model.entry(&coords).map_err(query_err)?;
    let mut out = Vec::new();
    enc::f64(&mut out, v);
    Ok(out)
}

fn fiber_response(entry: &ModelEntry, mut dec: Dec) -> QueryResult {
    let mode = dec.u16().map_err(bad)? as usize;
    let fixed = dec.coords().map_err(bad)?;
    dec.finish().map_err(bad)?;
    let fiber = entry.model.fiber(mode, &fixed).map_err(query_err)?;
    Ok(fiber_payload(&fiber))
}

/// `u32 length × f64` — GET_FIBER's response.
fn fiber_payload(fiber: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    enc::u32(&mut out, fiber.len() as u32);
    for &v in fiber {
        enc::f64(&mut out, v);
    }
    out
}

fn slice_response(entry: &ModelEntry, mut dec: Dec, limit: usize) -> QueryResult {
    let mode_r = dec.u16().map_err(bad)? as usize;
    let mode_c = dec.u16().map_err(bad)? as usize;
    let fixed = dec.coords().map_err(bad)?;
    dec.finish().map_err(bad)?;
    // `u32 rows, u32 cols, rows × cols × f64`, sized before it is built.
    let dims = entry.model.dims();
    if let (Some(&rows), Some(&cols)) = (dims.get(mode_r), dims.get(mode_c)) {
        let bytes = rows
            .saturating_mul(cols)
            .saturating_mul(8)
            .saturating_add(8);
        if mode_r != mode_c && bytes > limit {
            return Err(too_large(bytes, limit));
        }
    }
    let slice = entry
        .model
        .slice(mode_r, mode_c, &fixed)
        .map_err(query_err)?;
    let mut out = Vec::new();
    enc::u32(&mut out, slice.rows() as u32);
    enc::u32(&mut out, slice.cols() as u32);
    for &v in slice.as_slice() {
        enc::f64(&mut out, v);
    }
    Ok(out)
}

fn top_k_response(entry: &ModelEntry, mut dec: Dec) -> QueryResult {
    let mode = dec.u16().map_err(bad)? as usize;
    let k = dec.u32().map_err(bad)?;
    let fixed = dec.coords().map_err(bad)?;
    dec.finish().map_err(bad)?;
    if k > MAX_K {
        return Err(Response::err(
            Status::BadRequest,
            format!("k {k} exceeds cap {MAX_K}"),
        ));
    }
    let top = entry
        .model
        .top_k(mode, &fixed, k as usize)
        .map_err(query_err)?;
    Ok(ranked_payload(&top))
}

fn similar_response(entry: &ModelEntry, mut dec: Dec) -> QueryResult {
    let mode = dec.u16().map_err(bad)? as usize;
    let row = dec.u64().map_err(bad)? as usize;
    let k = dec.u32().map_err(bad)?;
    dec.finish().map_err(bad)?;
    if k > MAX_K {
        return Err(Response::err(
            Status::BadRequest,
            format!("k {k} exceeds cap {MAX_K}"),
        ));
    }
    let sims = entry
        .model
        .similar_rows(mode, row, k as usize)
        .map_err(query_err)?;
    Ok(ranked_payload(&sims))
}

/// `u32 count × (u64 index, f64 value)` — TOP_K and SIMILAR share it.
fn ranked_payload(ranked: &[(usize, f64)]) -> Vec<u8> {
    let mut out = Vec::new();
    enc::u32(&mut out, ranked.len() as u32);
    for &(i, v) in ranked {
        enc::u64(&mut out, i as u64);
        enc::f64(&mut out, v);
    }
    out
}
