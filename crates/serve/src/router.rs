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
//! alone. Homogeneous runs are *grouped* and evaluated through the bulk
//! model entry points: all valid GET_ENTRY subs against one model become
//! one [`Model::entries`] call, all valid GET_FIBER/TOP_K subs against
//! one `(model, mode)` become one [`Model::fibers`] call — a single
//! matmul-shaped pass through the factors instead of N dot loops.
//! Grouping is transparent: the bulk paths are bitwise-identical to the
//! single-query ones (guaranteed in `twopcp::model`), sub payloads share
//! the query cache with single frames (identical bytes → identical key),
//! and each sub still records once under its own opcode in [`Metrics`],
//! at its group's mean cost with ranking, encoding and caching included.
//! Subs that fail pre-validation are routed through the ordinary single
//! dispatch so their error messages are exactly what a single frame
//! would have produced. SHUTDOWN and nested BATCH are rejected per-sub.

use crate::cache::QueryCache;
use crate::metrics::Metrics;
use crate::protocol::{
    decode_batch_request, enc, encode_batch_response, BatchSubResponse, Dec, Frame, Opcode, Status,
    VERSION,
};
use crate::registry::{ModelEntry, ModelRegistry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use twopcp::{rank_fiber, TwoPcpError};

/// Ceiling on `k` in TOP_K / SIMILAR requests (defensive: bounds the
/// response size independently of model shape).
pub const MAX_K: u32 = 1 << 20;

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
        let resp = self.dispatch(session, op, &frame.payload, frame.version);
        self.metrics
            .record(op, start.elapsed(), resp.status == Status::Ok);
        self.metrics
            .record_bytes(op, frame.payload.len() as u64, resp.payload.len() as u64);
        resp
    }

    fn dispatch(
        &self,
        session: &mut SessionState,
        op: Opcode,
        payload: &[u8],
        version: u8,
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
                self.batch(session, payload, version)
            }
            Opcode::ModelMeta
            | Opcode::GetEntry
            | Opcode::GetFiber
            | Opcode::GetSlice
            | Opcode::TopK
            | Opcode::Similar => self.model_query(session, op, payload, version),
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
        version: u8,
    ) -> Response {
        let mut dec = Dec::new(payload);
        let name = match dec.string() {
            Ok(n) => n,
            Err(e) => return Response::err(Status::BadRequest, e.to_string()),
        };
        let Some(entry) = session.resolve(&self.registry, &name) else {
            return Response::err(Status::UnknownModel, format!("no model named {name:?}"));
        };
        if let Some(cached) = self.cache.get(version, op as u8, entry.version, payload) {
            return Response::ok(cached);
        }
        let result = match op {
            Opcode::ModelMeta => meta_response(&entry, version),
            Opcode::GetEntry => entry_response(&entry, dec),
            Opcode::GetFiber => fiber_response(&entry, dec),
            Opcode::GetSlice => slice_response(&entry, dec),
            Opcode::TopK => top_k_response(&entry, dec),
            Opcode::Similar => similar_response(&entry, dec),
            _ => unreachable!("non-model opcode in model_query"),
        };
        match result {
            Ok(out) => {
                self.cache
                    .put(version, op as u8, entry.version, payload, out.clone());
                Response::ok(out)
            }
            Err(resp) => resp,
        }
    }

    /// The BATCH envelope: unpack, group, bulk-evaluate, reassemble in
    /// request order.
    fn batch(&self, session: &mut SessionState, payload: &[u8], version: u8) -> Response {
        let subs = match decode_batch_request(payload) {
            Ok(s) => s,
            Err(e) => return Response::err(Status::BadRequest, e.to_string()),
        };
        let mut out: Vec<Option<BatchSubResponse>> = (0..subs.len()).map(|_| None).collect();
        // Homogeneous runs eligible for bulk evaluation, keyed by the
        // pinned model (and mode for fibers). Values are (sub index,
        // decoded query, k-for-topk).
        #[allow(clippy::type_complexity)]
        let mut entry_groups: HashMap<String, (Arc<ModelEntry>, Vec<(usize, Vec<usize>)>)> =
            HashMap::new();
        #[allow(clippy::type_complexity)]
        let mut fiber_groups: HashMap<
            (String, usize, bool),
            (Arc<ModelEntry>, Vec<(usize, Vec<usize>, u32)>),
        > = HashMap::new();

        for (i, sub) in subs.iter().enumerate() {
            let resolved = Opcode::from_u8(sub.opcode);
            let answered = match resolved {
                None => Some(Response::err(
                    Status::UnknownOpcode,
                    format!("opcode {:#04x} not recognised", sub.opcode),
                )),
                Some(Opcode::Batch) => Some(Response::err(
                    Status::BadRequest,
                    "nested BATCH is not allowed",
                )),
                Some(Opcode::Shutdown) => Some(Response::err(
                    Status::BadRequest,
                    "SHUTDOWN is not allowed inside a BATCH",
                )),
                Some(Opcode::GetEntry) => {
                    match self.classify_entry(session, version, &sub.payload) {
                        Classified::Grouped(entry, coords) => {
                            entry_groups
                                .entry(entry.name.clone())
                                .or_insert_with(|| (entry, Vec::new()))
                                .1
                                .push((i, coords));
                            None
                        }
                        Classified::Answer(resp) => Some(resp),
                    }
                }
                Some(op @ (Opcode::GetFiber | Opcode::TopK)) => {
                    match self.classify_fiber(session, version, op, &sub.payload) {
                        Classified::Grouped(entry, (mode, fixed, k)) => {
                            fiber_groups
                                .entry((entry.name.clone(), mode, op == Opcode::TopK))
                                .or_insert_with(|| (entry, Vec::new()))
                                .1
                                .push((i, fixed, k));
                            None
                        }
                        Classified::Answer(resp) => Some(resp),
                    }
                }
                // Everything else rides as an ordinary single dispatch.
                Some(op) => {
                    let t = Instant::now();
                    let resp = self.dispatch(session, op, &sub.payload, version);
                    self.metrics
                        .record(op, t.elapsed(), resp.status == Status::Ok);
                    Some(resp)
                }
            };
            if let Some(resp) = answered {
                out[i] = Some(sub_response(sub.opcode, resp));
            }
        }

        for (entry, members) in entry_groups.into_values() {
            let t = Instant::now();
            let (slots, queries): (Vec<usize>, Vec<Vec<usize>>) = members.into_iter().unzip();
            let answered = match entry.model.entries(&queries) {
                Ok(vs) => slots
                    .into_iter()
                    .zip(vs)
                    .map(|(i, v)| {
                        let mut p = Vec::new();
                        enc::f64(&mut p, v);
                        self.cache.put(
                            version,
                            Opcode::GetEntry as u8,
                            entry.version,
                            &subs[i].payload,
                            p.clone(),
                        );
                        (i, Response::ok(p))
                    })
                    .collect(),
                // Pre-validation makes this unreachable in practice;
                // surface it faithfully if it ever happens.
                Err(e) => group_error(slots, &e),
            };
            self.file_group(&mut out, Opcode::GetEntry, t, answered);
        }

        for ((_, mode, is_topk), (entry, members)) in fiber_groups {
            let t = Instant::now();
            let op = if is_topk {
                Opcode::TopK
            } else {
                Opcode::GetFiber
            };
            let (slots, queries): (Vec<(usize, u32)>, Vec<Vec<usize>>) =
                members.into_iter().map(|(i, q, k)| ((i, k), q)).unzip();
            let answered = match entry.model.fibers(mode, &queries) {
                Ok(fs) => slots
                    .into_iter()
                    .zip(fs)
                    .map(|((i, k), fiber)| {
                        let p = if is_topk {
                            ranked_payload(&rank_fiber(fiber, k as usize))
                        } else {
                            fiber_payload(&fiber)
                        };
                        self.cache.put(
                            version,
                            op as u8,
                            entry.version,
                            &subs[i].payload,
                            p.clone(),
                        );
                        (i, Response::ok(p))
                    })
                    .collect(),
                Err(e) => group_error(slots.into_iter().map(|(i, _)| i), &e),
            };
            self.file_group(&mut out, op, t, answered);
        }

        let flat: Vec<BatchSubResponse> = out
            .into_iter()
            .map(|r| r.expect("every sub answered"))
            .collect();
        Response::ok(encode_batch_response(&flat))
    }

    /// Files one bulk group's responses and records each sub under `op`
    /// at the group's mean cost since `start`: evaluation, ranking,
    /// encoding and cache insertion, which is what a single frame's
    /// record of the same opcode covers.
    fn file_group(
        &self,
        out: &mut [Option<BatchSubResponse>],
        op: Opcode,
        start: Instant,
        answered: Vec<(usize, Response)>,
    ) {
        let each = start.elapsed() / answered.len().max(1) as u32;
        for (i, resp) in answered {
            self.metrics.record(op, each, resp.status == Status::Ok);
            out[i] = Some(sub_response(op as u8, resp));
        }
    }

    /// Decodes and fully validates one GET_ENTRY sub. Valid queries join
    /// the bulk group; cache hits and anything invalid are answered
    /// immediately (the latter by the single dispatch path, so the error
    /// message is exactly what a lone frame would get).
    fn classify_entry(
        &self,
        session: &mut SessionState,
        version: u8,
        payload: &[u8],
    ) -> Classified<Vec<usize>> {
        let valid = (|| {
            let mut dec = Dec::new(payload);
            let name = dec.string().ok()?;
            let entry = session.resolve(&self.registry, &name)?;
            if let Some(cached) =
                self.cache
                    .get(version, Opcode::GetEntry as u8, entry.version, payload)
            {
                return Some((entry, None, Some(cached)));
            }
            let coords = dec.coords().ok()?;
            dec.finish().ok()?;
            let dims = entry.model.dims();
            if coords.len() != dims.len() || coords.iter().zip(&dims).any(|(&c, &d)| c >= d) {
                return None;
            }
            Some((entry, Some(coords), None))
        })();
        match valid {
            Some((_, _, Some(cached))) => {
                self.metrics
                    .record(Opcode::GetEntry, std::time::Duration::ZERO, true);
                Classified::Answer(Response::ok(cached))
            }
            Some((entry, Some(coords), None)) => Classified::Grouped(entry, coords),
            _ => Classified::Answer(self.single_sub(session, Opcode::GetEntry, payload, version)),
        }
    }

    /// Decodes and fully validates one GET_FIBER or TOP_K sub (same
    /// policy as [`Router::classify_entry`]).
    fn classify_fiber(
        &self,
        session: &mut SessionState,
        version: u8,
        op: Opcode,
        payload: &[u8],
    ) -> Classified<(usize, Vec<usize>, u32)> {
        let valid = (|| {
            let mut dec = Dec::new(payload);
            let name = dec.string().ok()?;
            let entry = session.resolve(&self.registry, &name)?;
            if let Some(cached) = self.cache.get(version, op as u8, entry.version, payload) {
                return Some((entry, None, Some(cached)));
            }
            let mode = dec.u16().ok()? as usize;
            let k = if op == Opcode::TopK {
                let k = dec.u32().ok()?;
                if k > MAX_K {
                    return None;
                }
                k
            } else {
                0
            };
            let fixed = dec.coords().ok()?;
            dec.finish().ok()?;
            let dims = entry.model.dims();
            if mode >= dims.len() || fixed.len() + 1 != dims.len() {
                return None;
            }
            let in_range = fixed
                .iter()
                .zip((0..dims.len()).filter(|&h| h != mode))
                .all(|(&c, h)| c < dims[h]);
            if !in_range {
                return None;
            }
            Some((entry, Some((mode, fixed, k)), None))
        })();
        match valid {
            Some((_, _, Some(cached))) => {
                self.metrics.record(op, std::time::Duration::ZERO, true);
                Classified::Answer(Response::ok(cached))
            }
            Some((entry, Some(q), None)) => Classified::Grouped(entry, q),
            _ => Classified::Answer(self.single_sub(session, op, payload, version)),
        }
    }

    /// Single-dispatch fallback for a batch sub, with its own metrics
    /// record (exactly like a lone frame, minus the envelope bytes).
    fn single_sub(
        &self,
        session: &mut SessionState,
        op: Opcode,
        payload: &[u8],
        version: u8,
    ) -> Response {
        let t = Instant::now();
        let resp = self.model_query(session, op, payload, version);
        self.metrics
            .record(op, t.elapsed(), resp.status == Status::Ok);
        resp
    }
}

/// Outcome of classifying one batch sub-request.
enum Classified<Q> {
    /// Joined a bulk-evaluation group (pinned entry + decoded query).
    Grouped(Arc<ModelEntry>, Q),
    /// Answered immediately (cache hit, validation failure, or a
    /// non-groupable opcode).
    Answer(Response),
}

fn sub_response(opcode: u8, resp: Response) -> BatchSubResponse {
    BatchSubResponse {
        opcode,
        status: resp.status as u16,
        payload: resp.payload,
    }
}

/// One `Internal` answer per sub of a group whose bulk evaluation failed.
fn group_error(slots: impl IntoIterator<Item = usize>, e: &TwoPcpError) -> Vec<(usize, Response)> {
    slots
        .into_iter()
        .map(|i| (i, Response::err(Status::Internal, e.to_string())))
        .collect()
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

fn meta_response(entry: &ModelEntry, version: u8) -> QueryResult {
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
    // Protocol-v2 tail: residency provenance (1 = mmap-resident,
    // 0 = owned). v1 clients' decoders stop before this byte.
    if version >= VERSION {
        out.push(match entry.model.residency() {
            twopcp::Residency::Mapped => 1,
            twopcp::Residency::Owned => 0,
        });
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

/// `u32 length × f64` — GET_FIBER's response, single or batched.
fn fiber_payload(fiber: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    enc::u32(&mut out, fiber.len() as u32);
    for &v in fiber {
        enc::f64(&mut out, v);
    }
    out
}

fn slice_response(entry: &ModelEntry, mut dec: Dec) -> QueryResult {
    let mode_r = dec.u16().map_err(bad)? as usize;
    let mode_c = dec.u16().map_err(bad)? as usize;
    let fixed = dec.coords().map_err(bad)?;
    dec.finish().map_err(bad)?;
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
