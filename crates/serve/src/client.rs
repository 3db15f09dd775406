//! A blocking client for the tpcp-serve protocol.
//!
//! One [`Client`] wraps one [`TcpStream`]. Requests are issued one at a
//! time through the typed methods, or many at once through
//! [`Client::batch`] (one BATCH envelope frame) and [`Client::pipeline`]
//! (many single frames kept in flight on the connection; the server
//! answers in request order). Decoding goes through the same
//! [`protocol`](crate::protocol) helpers the server encodes with.
//!
//! A `Busy` refusal (the server's session limit) is retried with bounded,
//! jittered exponential backoff by default — the refusing server closes
//! the connection, so each retry reconnects. Model pins do not survive a
//! reconnect; since `Busy` only ever arrives on a virgin connection's
//! first request, there are no pins to lose. Tune or disable with
//! [`Client::set_busy_retry`].

use crate::metrics::OpSnapshot;
use crate::protocol::{
    decode_batch_response, enc, encode_batch_request, encode_frame, read_frame, write_frame,
    BatchSub, BatchSubResponse, Dec, Opcode, ProtoError, Result, Status, MAX_RESPONSE_PAYLOAD,
    VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use twopcp::CompressProvenance;

/// Client-side cap on frames in flight during [`Client::pipeline`]
/// (the server's [`PIPELINE_DEPTH`](crate::server::PIPELINE_DEPTH): a
/// session keeps reading until that many maximal frames are unanswered,
/// so a pipelined burst never deadlocks on full TCP buffers in both
/// directions).
pub const CLIENT_PIPELINE_WINDOW: usize = 32;

/// Default number of reconnect attempts after a `Busy` refusal.
pub const DEFAULT_BUSY_RETRIES: u32 = 4;
/// Default base backoff before the first `Busy` retry (doubled per
/// attempt, plus deterministic jitter of up to one base).
pub const DEFAULT_BUSY_BACKOFF: Duration = Duration::from_millis(20);

/// MODEL_META decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct MetaReport {
    /// Model name.
    pub name: String,
    /// Registry version the answering session has pinned.
    pub version: u64,
    /// Decomposition rank.
    pub rank: usize,
    /// Tensor shape.
    pub dims: Vec<usize>,
    /// Decomposition seed.
    pub seed: u64,
    /// Fit against the input tensor.
    pub fit: f64,
    /// Schedule provenance abbreviation.
    pub schedule: String,
    /// Phase-1 grid provenance.
    pub parts: Vec<usize>,
    /// Compression provenance (`None` for two-phase models, and when the
    /// answering server predates the provenance tail).
    pub compress: Option<CompressProvenance>,
}

/// One opcode's row in a STATS response.
#[derive(Clone, Debug, PartialEq)]
pub struct OpStat {
    /// Wire opcode byte.
    pub opcode: u8,
    /// Opcode name (derived client-side).
    pub name: &'static str,
    /// Counters and histogram.
    pub snapshot: OpSnapshot,
}

/// STATS decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReport {
    /// Per-opcode counters, in wire order.
    pub ops: Vec<OpStat>,
    /// Query-cache hits.
    pub cache_hits: u64,
    /// Query-cache misses.
    pub cache_misses: u64,
    /// Query-cache resident entries.
    pub cache_len: u64,
    /// Registry reload generation.
    pub generation: u64,
}

impl StatsReport {
    /// The row for `op`, if the server reported one.
    pub fn op(&self, op: Opcode) -> Option<&OpStat> {
        self.ops.iter().find(|s| s.opcode == op as u8)
    }
}

/// RELOAD decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct ReloadReport {
    /// Models served after the rescan.
    pub models: u32,
    /// New registry generation.
    pub generation: u64,
    /// Per-file load errors (those files were skipped).
    pub errors: Vec<String>,
}

/// Request-payload builders, shared by the typed single-frame methods
/// and BATCH/pipeline callers so both paths emit bitwise-identical
/// request bytes (which is also what makes them share server-side cache
/// entries).
pub mod request {
    use super::{enc, BatchSub, Opcode};

    /// PING.
    pub fn ping() -> BatchSub {
        BatchSub {
            opcode: Opcode::Ping as u8,
            payload: Vec::new(),
        }
    }

    /// MODEL_META for `name`.
    pub fn meta(name: &str) -> BatchSub {
        let mut p = Vec::new();
        enc::string(&mut p, name);
        BatchSub {
            opcode: Opcode::ModelMeta as u8,
            payload: p,
        }
    }

    /// GET_ENTRY at `coords`.
    pub fn entry(name: &str, coords: &[usize]) -> BatchSub {
        let mut p = Vec::new();
        enc::string(&mut p, name);
        enc::coords(&mut p, coords);
        BatchSub {
            opcode: Opcode::GetEntry as u8,
            payload: p,
        }
    }

    /// GET_FIBER along `mode` at `fixed`.
    pub fn fiber(name: &str, mode: usize, fixed: &[usize]) -> BatchSub {
        let mut p = Vec::new();
        enc::string(&mut p, name);
        enc::u16(&mut p, mode as u16);
        enc::coords(&mut p, fixed);
        BatchSub {
            opcode: Opcode::GetFiber as u8,
            payload: p,
        }
    }

    /// GET_SLICE over `(mode_r, mode_c)` at `fixed`.
    pub fn slice(name: &str, mode_r: usize, mode_c: usize, fixed: &[usize]) -> BatchSub {
        let mut p = Vec::new();
        enc::string(&mut p, name);
        enc::u16(&mut p, mode_r as u16);
        enc::u16(&mut p, mode_c as u16);
        enc::coords(&mut p, fixed);
        BatchSub {
            opcode: Opcode::GetSlice as u8,
            payload: p,
        }
    }

    /// TOP_K along `mode` at `fixed`.
    pub fn top_k(name: &str, mode: usize, fixed: &[usize], k: usize) -> BatchSub {
        let mut p = Vec::new();
        enc::string(&mut p, name);
        enc::u16(&mut p, mode as u16);
        enc::u32(&mut p, k as u32);
        enc::coords(&mut p, fixed);
        BatchSub {
            opcode: Opcode::TopK as u8,
            payload: p,
        }
    }

    /// SIMILAR rows to `row` in `mode`.
    pub fn similar(name: &str, mode: usize, row: usize, k: usize) -> BatchSub {
        let mut p = Vec::new();
        enc::string(&mut p, name);
        enc::u16(&mut p, mode as u16);
        enc::u64(&mut p, row as u64);
        enc::u32(&mut p, k as u32);
        BatchSub {
            opcode: Opcode::Similar as u8,
            payload: p,
        }
    }
}

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
    addr: String,
    busy_retries: u32,
    busy_backoff: Duration,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            addr: addr.to_string(),
            busy_retries: DEFAULT_BUSY_RETRIES,
            busy_backoff: DEFAULT_BUSY_BACKOFF,
        })
    }

    /// Configures `Busy` handling: up to `retries` reconnect attempts
    /// with `backoff` base delay (0 retries restores fail-fast).
    pub fn set_busy_retry(&mut self, retries: u32, backoff: Duration) {
        self.busy_retries = retries;
        self.busy_backoff = backoff;
    }

    /// Issues one raw request and returns the OK payload. A `Busy`
    /// refusal is retried per [`Client::set_busy_retry`] (the refusing
    /// server closes the connection, so each retry reconnects).
    ///
    /// # Errors
    /// [`ProtoError::Remote`] carrying the server's status and message
    /// when the response is not OK; transport errors otherwise.
    pub fn request(&mut self, op: Opcode, payload: &[u8]) -> Result<Vec<u8>> {
        let mut attempt = 0u32;
        loop {
            match self.request_once(op, payload) {
                Err(ProtoError::Remote { status, message })
                    if status == Status::Busy as u16 && attempt < self.busy_retries =>
                {
                    std::thread::sleep(backoff_delay(self.busy_backoff, attempt, &self.addr));
                    attempt += 1;
                    // The server closed the refused connection; reconnect.
                    match Client::connect(&self.addr) {
                        Ok(fresh) => self.stream = fresh.stream,
                        Err(_) => {
                            return Err(ProtoError::Remote { status, message });
                        }
                    }
                }
                other => return other,
            }
        }
    }

    fn request_once(&mut self, op: Opcode, payload: &[u8]) -> Result<Vec<u8>> {
        write_frame(&mut self.stream, op as u8, 0, payload)?;
        let frame = read_frame(&mut self.stream, MAX_RESPONSE_PAYLOAD)?;
        if frame.status != Status::Ok as u16 {
            let message = Dec::new(&frame.payload)
                .string()
                .unwrap_or_else(|_| "<no message>".into());
            return Err(ProtoError::Remote {
                status: frame.status,
                message,
            });
        }
        Ok(frame.payload)
    }

    /// Sends `subs` as one BATCH envelope and returns the per-sub
    /// responses, in request order. The envelope itself must succeed;
    /// individual subs report their own [`BatchSubResponse::status`].
    pub fn batch(&mut self, subs: &[BatchSub]) -> Result<Vec<BatchSubResponse>> {
        let payload = self.request(Opcode::Batch, &encode_batch_request(subs))?;
        let resps = decode_batch_response(&payload)?;
        if resps.len() != subs.len() {
            return Err(ProtoError::Malformed(format!(
                "batch sent {} subs, got {} responses",
                subs.len(),
                resps.len()
            )));
        }
        Ok(resps)
    }

    /// Pipelines `reqs` as individual frames without waiting for each
    /// response, keeping at most [`CLIENT_PIPELINE_WINDOW`] in flight.
    /// Returns `(status, payload)` per request, in request order (the
    /// server guarantees ordered responses on a connection). Unlike
    /// [`Client::request`], non-OK statuses are returned in place rather
    /// than raised, so one failed request does not lose the rest.
    pub fn pipeline(&mut self, reqs: &[BatchSub]) -> Result<Vec<(u16, Vec<u8>)>> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut sent = 0usize;
        // Each refill of the window is encoded whole and written once.
        let mut refill = Vec::new();
        while out.len() < reqs.len() {
            refill.clear();
            while sent < reqs.len() && sent - out.len() < CLIENT_PIPELINE_WINDOW {
                encode_frame(
                    &mut refill,
                    VERSION,
                    reqs[sent].opcode,
                    0,
                    &reqs[sent].payload,
                );
                sent += 1;
            }
            self.stream.write_all(&refill)?;
            let frame = read_frame(&mut self.stream, MAX_RESPONSE_PAYLOAD)?;
            out.push((frame.status, frame.payload));
        }
        Ok(out)
    }

    /// PING.
    pub fn ping(&mut self) -> Result<()> {
        self.request(Opcode::Ping, &[])?;
        Ok(())
    }

    /// LIST_MODELS → `(name, version)` pairs, sorted by name.
    pub fn list_models(&mut self) -> Result<Vec<(String, u64)>> {
        let payload = self.request(Opcode::ListModels, &[])?;
        let mut d = Dec::new(&payload);
        let n = d.u32()?;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = d.string()?;
            let version = d.u64()?;
            out.push((name, version));
        }
        d.finish()?;
        Ok(out)
    }

    /// MODEL_META for `name`.
    pub fn meta(&mut self, name: &str) -> Result<MetaReport> {
        let req = request::meta(name);
        let payload = self.request(Opcode::ModelMeta, &req.payload)?;
        decode_meta_payload(&payload)
    }

    /// GET_ENTRY: one reconstructed tensor value.
    pub fn entry(&mut self, name: &str, coords: &[usize]) -> Result<f64> {
        let req = request::entry(name, coords);
        let payload = self.request(Opcode::GetEntry, &req.payload)?;
        decode_entry_payload(&payload)
    }

    /// GET_FIBER: the mode-`mode` fiber at `fixed`.
    pub fn fiber(&mut self, name: &str, mode: usize, fixed: &[usize]) -> Result<Vec<f64>> {
        let req = request::fiber(name, mode, fixed);
        let payload = self.request(Opcode::GetFiber, &req.payload)?;
        decode_fiber_payload(&payload)
    }

    /// GET_SLICE: `(rows, cols, row-major values)`.
    pub fn slice(
        &mut self,
        name: &str,
        mode_r: usize,
        mode_c: usize,
        fixed: &[usize],
    ) -> Result<(usize, usize, Vec<f64>)> {
        let req = request::slice(name, mode_r, mode_c, fixed);
        let payload = self.request(Opcode::GetSlice, &req.payload)?;
        let mut d = Dec::new(&payload);
        let rows = d.u32()? as usize;
        let cols = d.u32()? as usize;
        let data = (0..rows * cols)
            .map(|_| d.f64())
            .collect::<Result<Vec<_>>>()?;
        d.finish()?;
        Ok((rows, cols, data))
    }

    /// TOP_K: the `k` largest fiber entries as `(index, value)`.
    pub fn top_k(
        &mut self,
        name: &str,
        mode: usize,
        fixed: &[usize],
        k: usize,
    ) -> Result<Vec<(usize, f64)>> {
        let req = request::top_k(name, mode, fixed, k);
        let payload = self.request(Opcode::TopK, &req.payload)?;
        decode_ranked(&payload)
    }

    /// SIMILAR: the `k` most cosine-similar factor rows.
    pub fn similar(
        &mut self,
        name: &str,
        mode: usize,
        row: usize,
        k: usize,
    ) -> Result<Vec<(usize, f64)>> {
        let req = request::similar(name, mode, row, k);
        let payload = self.request(Opcode::Similar, &req.payload)?;
        decode_ranked(&payload)
    }

    /// STATS.
    pub fn stats(&mut self) -> Result<StatsReport> {
        let payload = self.request(Opcode::Stats, &[])?;
        let mut d = Dec::new(&payload);
        let n_ops = d.u8()?;
        let mut ops = Vec::with_capacity(n_ops as usize);
        for _ in 0..n_ops {
            let opcode = d.u8()?;
            let count = d.u64()?;
            let errors = d.u64()?;
            let total_ns = d.u64()?;
            // This client speaks v2, so the server's rows carry byte
            // accounting.
            let bytes_in = d.u64()?;
            let bytes_out = d.u64()?;
            let n_buckets = d.u8()?;
            let buckets = (0..n_buckets)
                .map(|_| d.u64())
                .collect::<Result<Vec<_>>>()?;
            ops.push(OpStat {
                opcode,
                name: Opcode::from_u8(opcode).map(|o| o.name()).unwrap_or("?"),
                snapshot: OpSnapshot {
                    count,
                    errors,
                    total_ns,
                    bytes_in,
                    bytes_out,
                    buckets,
                },
            });
        }
        let cache_hits = d.u64()?;
        let cache_misses = d.u64()?;
        let cache_len = d.u64()?;
        let generation = d.u64()?;
        d.finish()?;
        Ok(StatsReport {
            ops,
            cache_hits,
            cache_misses,
            cache_len,
            generation,
        })
    }

    /// RELOAD (admin): rescan the model directory.
    pub fn reload(&mut self) -> Result<ReloadReport> {
        let payload = self.request(Opcode::Reload, &[])?;
        let mut d = Dec::new(&payload);
        let models = d.u32()?;
        let generation = d.u64()?;
        let n_err = d.u32()?;
        let errors = (0..n_err).map(|_| d.string()).collect::<Result<Vec<_>>>()?;
        d.finish()?;
        Ok(ReloadReport {
            models,
            generation,
            errors,
        })
    }

    /// SHUTDOWN (admin): stop the server after this response.
    pub fn shutdown(&mut self) -> Result<()> {
        self.request(Opcode::Shutdown, &[])?;
        Ok(())
    }
}

/// Decodes a GET_ENTRY response payload (also valid for BATCH subs).
pub fn decode_entry_payload(payload: &[u8]) -> Result<f64> {
    let mut d = Dec::new(payload);
    let v = d.f64()?;
    d.finish()?;
    Ok(v)
}

/// Decodes a GET_FIBER response payload (also valid for BATCH subs).
pub fn decode_fiber_payload(payload: &[u8]) -> Result<Vec<f64>> {
    let mut d = Dec::new(payload);
    let n = d.u32()?;
    let out = (0..n).map(|_| d.f64()).collect::<Result<Vec<_>>>()?;
    d.finish()?;
    Ok(out)
}

/// Decodes a TOP_K / SIMILAR response payload (also valid for BATCH
/// subs).
pub fn decode_ranked(payload: &[u8]) -> Result<Vec<(usize, f64)>> {
    let mut d = Dec::new(payload);
    let n = d.u32()?;
    let out = (0..n)
        .map(|_| {
            let i = d.u64()? as usize;
            let v = d.f64()?;
            Ok((i, v))
        })
        .collect::<Result<Vec<_>>>()?;
    d.finish()?;
    Ok(out)
}

/// Decodes a MODEL_META response payload (also valid for BATCH subs).
pub fn decode_meta_payload(payload: &[u8]) -> Result<MetaReport> {
    let mut d = Dec::new(payload);
    let name = d.string()?;
    let version = d.u64()?;
    let rank = d.u32()? as usize;
    let order = d.u32()?;
    let dims = (0..order)
        .map(|_| d.u64().map(|v| v as usize))
        .collect::<Result<Vec<_>>>()?;
    let seed = d.u64()?;
    let fit = d.f64()?;
    let schedule = d.string()?;
    let n_parts = d.u32()?;
    let parts = (0..n_parts)
        .map(|_| d.u64().map(|v| v as usize))
        .collect::<Result<Vec<_>>>()?;
    // Versioned tail: absent on servers predating compression
    // provenance, flag byte + fields since.
    let compress = if d.remaining() > 0 && d.u8()? == 1 {
        let n = d.u32()?;
        let mlrank = (0..n)
            .map(|_| d.u64().map(|v| v as usize))
            .collect::<Result<Vec<_>>>()?;
        let energy = d.f64()?;
        let n = d.u32()?;
        let core_shape = (0..n)
            .map(|_| d.u64().map(|v| v as usize))
            .collect::<Result<Vec<_>>>()?;
        Some(CompressProvenance {
            mlrank,
            energy,
            core_shape,
        })
    } else {
        None
    };
    d.finish()?;
    Ok(MetaReport {
        name,
        version,
        rank,
        dims,
        seed,
        fit,
        schedule,
        parts,
        compress,
    })
}

/// Deterministic jittered exponential backoff: `base * 2^attempt` plus a
/// hash-derived jitter in `[0, base)`. No RNG dependency; the jitter
/// varies per address and attempt, which is enough to de-synchronise a
/// thundering herd of identical clients started together.
fn backoff_delay(base: Duration, attempt: u32, addr: &str) -> Duration {
    let base_ms = base.as_millis().max(1) as u64;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    let jitter_ms = h % base_ms;
    Duration::from_millis(base_ms.saturating_mul(1 << attempt.min(6)) + jitter_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_jitters_deterministically() {
        let base = Duration::from_millis(20);
        let d0 = backoff_delay(base, 0, "127.0.0.1:7171");
        let d1 = backoff_delay(base, 1, "127.0.0.1:7171");
        let d2 = backoff_delay(base, 2, "127.0.0.1:7171");
        assert!(d0 >= base && d0 < base * 2);
        assert!(d1 >= base * 2 && d1 < base * 3);
        assert!(d2 >= base * 4 && d2 < base * 5);
        // Deterministic for the same inputs, different across addresses.
        assert_eq!(d0, backoff_delay(base, 0, "127.0.0.1:7171"));
        let other = backoff_delay(base, 0, "10.0.0.9:7171");
        assert!(other >= base && other < base * 2);
    }

    #[test]
    fn request_builders_match_typed_encodings() {
        // The builder payload for entry must be exactly what the typed
        // method sends (same helpers), spot-check the layout.
        let sub = request::entry("demo", &[1, 2, 3]);
        let mut d = Dec::new(&sub.payload);
        assert_eq!(d.string().unwrap(), "demo");
        assert_eq!(d.coords().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
        let sub = request::top_k("m", 2, &[4, 5], 7);
        let mut d = Dec::new(&sub.payload);
        assert_eq!(d.string().unwrap(), "m");
        assert_eq!(d.u16().unwrap(), 2);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.coords().unwrap(), vec![4, 5]);
        d.finish().unwrap();
    }
}
