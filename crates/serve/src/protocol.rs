//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"2PCP"
//! 4       1     protocol version (1 or 2)
//! 5       1     opcode
//! 6       2     status (u16 LE; 0 in requests, result code in responses)
//! 8       4     payload length (u32 LE)
//! 12      …     payload
//! ```
//!
//! Version 2 adds the [`Opcode::Batch`] envelope (N sub-requests in one
//! frame, N sub-responses back, per-sub status) and extends the STATS and
//! MODEL_META response encodings. The server keeps speaking version 1 to
//! version-1 clients: every response echoes the *request's* version byte
//! and uses that version's encoding, so old clients work unchanged
//! against a new server. Frames of either version may be pipelined on a
//! connection — the server answers in request order.
//!
//! Defensive limits are asymmetric: requests are capped at 64 KiB (a
//! hostile client cannot make the server allocate more than that before
//! validation), responses at 16 MiB (a slice of a large model). A frame
//! declaring more than the cap is rejected *before* any allocation and
//! the connection is closed; the same pre-allocation discipline applies
//! inside a BATCH envelope (sub count and per-sub lengths are validated
//! against the bytes actually present before any sub is materialised).
//! The codec comes in two shapes over one set of checks: [`read_frame`] /
//! [`write_frame`] on a stream (what a blocking client wants), and
//! [`parse_frame`] / [`encode_frame`] on a buffer (what a session that
//! reads and writes whole bursts wants).
//! Payload field encodings are documented per opcode in
//! `docs/protocol.md`; the [`enc`]/[`Dec`] helpers here are the single
//! implementation both the router and the client use.

use std::io::{ErrorKind, IoSlice, Read, Write};

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"2PCP";
/// Newest protocol version spoken by this build.
pub const VERSION: u8 = 2;
/// Oldest protocol version still accepted.
pub const MIN_VERSION: u8 = 1;
/// Most sub-requests one BATCH envelope may carry, enforced before any
/// per-sub allocation.
pub const MAX_BATCH_SUBS: u16 = 1024;
/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 12;
/// Largest payload a server accepts in a request frame.
pub const MAX_REQUEST_PAYLOAD: u32 = 64 * 1024;
/// Largest payload a client accepts in a response frame.
pub const MAX_RESPONSE_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty payload both ways.
    Ping = 0x01,
    /// Enumerate served models (name + pinned version).
    ListModels = 0x02,
    /// Metadata of one model (shape, rank, seed, fit, provenance).
    ModelMeta = 0x03,
    /// Reconstruct a single tensor entry.
    GetEntry = 0x04,
    /// Reconstruct a mode-`m` fiber.
    GetFiber = 0x05,
    /// Reconstruct a 2-D slice.
    GetSlice = 0x06,
    /// Top-k entries of a fiber.
    TopK = 0x07,
    /// Factor rows most cosine-similar to a given row.
    Similar = 0x08,
    /// Per-opcode latency histograms + cache counters.
    Stats = 0x09,
    /// Admin: rescan the model directory (hot swap).
    Reload = 0x0a,
    /// Admin: stop the server after this response.
    Shutdown = 0x0b,
    /// Version-2 envelope: N sub-requests in one frame, N sub-responses
    /// back, each with its own status.
    Batch = 0x0c,
}

impl Opcode {
    /// All opcodes, in wire order (drives STATS iteration and docs).
    pub const ALL: [Opcode; 12] = [
        Opcode::Ping,
        Opcode::ListModels,
        Opcode::ModelMeta,
        Opcode::GetEntry,
        Opcode::GetFiber,
        Opcode::GetSlice,
        Opcode::TopK,
        Opcode::Similar,
        Opcode::Stats,
        Opcode::Reload,
        Opcode::Shutdown,
        Opcode::Batch,
    ];

    /// Decodes a wire opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|&op| op as u8 == b)
    }

    /// Human-readable opcode name (STATS reports, logs).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "PING",
            Opcode::ListModels => "LIST_MODELS",
            Opcode::ModelMeta => "MODEL_META",
            Opcode::GetEntry => "GET_ENTRY",
            Opcode::GetFiber => "GET_FIBER",
            Opcode::GetSlice => "GET_SLICE",
            Opcode::TopK => "TOP_K",
            Opcode::Similar => "SIMILAR",
            Opcode::Stats => "STATS",
            Opcode::Reload => "RELOAD",
            Opcode::Shutdown => "SHUTDOWN",
            Opcode::Batch => "BATCH",
        }
    }
}

/// Response status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Status {
    /// Success; payload is the opcode's response encoding.
    Ok = 0,
    /// The frame itself was malformed (bad magic/version).
    BadFrame = 1,
    /// The opcode byte is not one this server speaks.
    UnknownOpcode = 2,
    /// No model of the requested name is loaded.
    UnknownModel = 3,
    /// The request payload was malformed or out of range.
    BadRequest = 4,
    /// Server-side failure evaluating the query.
    Internal = 5,
    /// Declared payload length exceeded the defensive cap.
    TooLarge = 6,
    /// Session limit reached; retry later.
    Busy = 7,
}

impl Status {
    /// Decodes a wire status code.
    pub fn from_u16(v: u16) -> Option<Status> {
        [
            Status::Ok,
            Status::BadFrame,
            Status::UnknownOpcode,
            Status::UnknownModel,
            Status::BadRequest,
            Status::Internal,
            Status::TooLarge,
            Status::Busy,
        ]
        .into_iter()
        .find(|&s| s as u16 == v)
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Protocol version the peer wrote ([`MIN_VERSION`]..=[`VERSION`]).
    /// The server echoes it in the response so v1 clients never see v2
    /// headers or encodings.
    pub version: u8,
    /// Raw opcode byte (kept raw so unknown opcodes can be reported).
    pub opcode: u8,
    /// Status field (0 in requests).
    pub status: u16,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

/// Protocol-layer failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (includes truncation / mid-frame disconnect,
    /// surfaced as `UnexpectedEof`).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds the cap — rejected unread.
    TooLarge {
        /// The length the header declared.
        declared: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// The peer answered with an error status.
    Remote {
        /// The wire status code.
        status: u16,
        /// The error message carried in the payload.
        message: String,
    },
    /// A payload did not parse as its opcode's encoding.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::TooLarge { declared, cap } => {
                write!(f, "declared payload {declared} exceeds cap {cap}")
            }
            ProtoError::Remote { status, message } => {
                let name = Status::from_u16(*status)
                    .map(|s| format!("{s:?}"))
                    .unwrap_or_else(|| status.to_string());
                write!(f, "server error {name}: {message}")
            }
            ProtoError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Convenience result alias for the protocol layer.
pub type Result<T> = std::result::Result<T, ProtoError>;

/// The fixed-size part of a frame, validated: what [`read_frame`] and
/// [`parse_frame`] share, so the two apply the same checks in the same
/// order (magic, version, then the length cap — all before the payload
/// is looked at or allocated for).
struct Header {
    version: u8,
    opcode: u8,
    status: u16,
    len: u32,
}

// `#[inline]` here and on `frame_header`: their callers are generic over
// the reader / writer, so they are compiled in the calling crate, and a
// frame is too small to pay a call per header (measured: 4 ns of a 4 ns
// `write_frame` into a `Vec`).
impl Header {
    #[inline]
    fn parse(header: &[u8; HEADER_LEN], max_payload: u32) -> Result<Header> {
        if header[0..4] != MAGIC {
            return Err(ProtoError::BadMagic(header[0..4].try_into().unwrap()));
        }
        if !(MIN_VERSION..=VERSION).contains(&header[4]) {
            return Err(ProtoError::BadVersion(header[4]));
        }
        let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if len > max_payload {
            return Err(ProtoError::TooLarge {
                declared: len,
                cap: max_payload,
            });
        }
        Ok(Header {
            version: header[4],
            opcode: header[5],
            status: u16::from_le_bytes(header[6..8].try_into().unwrap()),
            len,
        })
    }

    #[inline]
    fn into_frame(self, payload: Vec<u8>) -> Frame {
        Frame {
            version: self.version,
            opcode: self.opcode,
            status: self.status,
            payload,
        }
    }
}

/// The header of a frame carrying `payload_len` bytes.
#[inline]
pub(crate) fn frame_header(
    version: u8,
    opcode: u8,
    status: u16,
    payload_len: usize,
) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = version;
    header[5] = opcode;
    header[6..8].copy_from_slice(&status.to_le_bytes());
    header[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    header
}

/// Appends one encoded frame to `out` — the buffer-side twin of
/// [`write_frame_versioned`]: a sender that has several frames ready
/// encodes them all and writes the buffer once.
pub fn encode_frame(out: &mut Vec<u8>, version: u8, opcode: u8, status: u16, payload: &[u8]) {
    out.extend_from_slice(&frame_header(version, opcode, status, payload.len()));
    out.extend_from_slice(payload);
}

/// Writes one frame at the current protocol [`VERSION`].
pub fn write_frame(w: &mut impl Write, opcode: u8, status: u16, payload: &[u8]) -> Result<()> {
    write_frame_versioned(w, VERSION, opcode, status, payload)
}

/// Writes one frame with an explicit version byte — the server uses this
/// to echo the request frame's version back, so a v1 client never sees a
/// v2 header.
///
/// Header and payload leave in **one** gathered write (`writev` on a
/// socket, one `extend` on a `Vec`): with `TCP_NODELAY` two writes are
/// two segments and two wake-ups of the peer. Nothing is allocated or
/// copied, whatever the payload's size. What that one write does not
/// take — a short count, a writer without vectored writes of its own —
/// follows with `write_all`.
pub fn write_frame_versioned(
    w: &mut impl Write,
    version: u8,
    opcode: u8,
    status: u16,
    payload: &[u8],
) -> Result<()> {
    let header = frame_header(version, opcode, status, payload.len());
    let sent = match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
        Ok(n) => n,
        Err(e) if e.kind() == ErrorKind::Interrupted => 0,
        Err(e) => return Err(e.into()),
    };
    w.write_all(header.get(sent..).unwrap_or_default())?;
    let sent = sent.saturating_sub(HEADER_LEN);
    w.write_all(payload.get(sent..).unwrap_or_default())?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, enforcing `max_payload` *before* allocating.
///
/// # Errors
/// [`ProtoError::Io`] on transport failure or truncation,
/// [`ProtoError::BadMagic`]/[`ProtoError::BadVersion`] on a foreign
/// stream, [`ProtoError::TooLarge`] when the declared length exceeds the
/// cap (nothing past the header is read in that case).
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = Header::parse(&header, max_payload)?;
    let mut payload = vec![0u8; header.len as usize];
    r.read_exact(&mut payload)?;
    Ok(header.into_frame(payload))
}

/// [`read_frame`] over bytes already received: the frame at the front of
/// `buf`, or `None` while `buf` holds only part of one — exactly where
/// `read_frame` over the same bytes reports truncation. A returned frame
/// occupied the first `HEADER_LEN + payload.len()` bytes of `buf`.
///
/// # Errors
/// [`ProtoError::BadMagic`], [`ProtoError::BadVersion`] and
/// [`ProtoError::TooLarge`] as soon as `buf` holds a whole header, in
/// that order and before anything is allocated — the same answers
/// `read_frame` gives.
pub fn parse_frame(buf: &[u8], max_payload: u32) -> Result<Option<Frame>> {
    let Some((header, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let header = Header::parse(header, max_payload)?;
    Ok(rest
        .get(..header.len as usize)
        .map(|payload| header.into_frame(payload.to_vec())))
}

// ----------------------------------------------------------------------
// BATCH envelope (protocol v2)
// ----------------------------------------------------------------------

/// One sub-request inside a BATCH envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSub {
    /// The sub-request's opcode byte (kept raw like [`Frame::opcode`]).
    pub opcode: u8,
    /// The sub-request's payload, encoded exactly as a single frame of
    /// that opcode would be.
    pub payload: Vec<u8>,
}

/// One sub-response inside a BATCH envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSubResponse {
    /// Echo of the sub-request's opcode.
    pub opcode: u8,
    /// The sub-request's own status — one bad sub fails alone.
    pub status: u16,
    /// The sub-response payload (an error message on non-Ok status).
    pub payload: Vec<u8>,
}

/// Encodes a BATCH request payload:
/// `u16 count`, then per sub `u8 opcode + u32 len + bytes`.
pub fn encode_batch_request(subs: &[BatchSub]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + subs.iter().map(|s| 5 + s.payload.len()).sum::<usize>());
    enc::u16(&mut out, subs.len() as u16);
    for s in subs {
        out.push(s.opcode);
        enc::u32(&mut out, s.payload.len() as u32);
        out.extend_from_slice(&s.payload);
    }
    out
}

/// Decodes a BATCH request payload. Defensive: the sub count is capped at
/// [`MAX_BATCH_SUBS`] and every declared length is checked against the
/// bytes actually present *before* the sub's payload is allocated, so a
/// hostile envelope cannot reserve more memory than it shipped.
pub fn decode_batch_request(payload: &[u8]) -> Result<Vec<BatchSub>> {
    let mut d = Dec::new(payload);
    let count = d.u16()?;
    if count > MAX_BATCH_SUBS {
        return Err(ProtoError::Malformed(format!(
            "batch declares {count} subs, cap is {MAX_BATCH_SUBS}"
        )));
    }
    let mut subs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let opcode = d.u8()?;
        let len = d.u32()? as usize;
        if len > d.remaining() {
            return Err(ProtoError::Malformed(format!(
                "batch sub declares {len} bytes, {} remain",
                d.remaining()
            )));
        }
        subs.push(BatchSub {
            opcode,
            payload: d.bytes_exact(len)?.to_vec(),
        });
    }
    d.finish()?;
    Ok(subs)
}

/// Encodes a BATCH response payload:
/// `u16 count`, then per sub `u8 opcode + u16 status + u32 len + bytes`.
pub fn encode_batch_response(subs: &[BatchSubResponse]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + subs.iter().map(|s| 7 + s.payload.len()).sum::<usize>());
    enc::u16(&mut out, subs.len() as u16);
    for s in subs {
        out.push(s.opcode);
        enc::u16(&mut out, s.status);
        enc::u32(&mut out, s.payload.len() as u32);
        out.extend_from_slice(&s.payload);
    }
    out
}

/// Decodes a BATCH response payload (same pre-allocation discipline as
/// [`decode_batch_request`]).
pub fn decode_batch_response(payload: &[u8]) -> Result<Vec<BatchSubResponse>> {
    let mut d = Dec::new(payload);
    let count = d.u16()?;
    if count > MAX_BATCH_SUBS {
        return Err(ProtoError::Malformed(format!(
            "batch declares {count} subs, cap is {MAX_BATCH_SUBS}"
        )));
    }
    let mut subs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let opcode = d.u8()?;
        let status = d.u16()?;
        let len = d.u32()? as usize;
        if len > d.remaining() {
            return Err(ProtoError::Malformed(format!(
                "batch sub declares {len} bytes, {} remain",
                d.remaining()
            )));
        }
        subs.push(BatchSubResponse {
            opcode,
            status,
            payload: d.bytes_exact(len)?.to_vec(),
        });
    }
    d.finish()?;
    Ok(subs)
}

// ----------------------------------------------------------------------
// Payload encoding helpers (little-endian throughout)
// ----------------------------------------------------------------------

/// Append-only payload writers; the router and client share them so the
/// two sides cannot drift.
pub mod enc {
    /// `u16 len + UTF-8 bytes`.
    pub fn string(out: &mut Vec<u8>, s: &str) {
        let len = s.len().min(u16::MAX as usize);
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&s.as_bytes()[..len]);
    }
    /// `u16 LE`.
    pub fn u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// `u32 LE`.
    pub fn u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// `u64 LE`.
    pub fn u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// `f64 LE` (bit pattern preserved — this is what makes served
    /// answers bitwise-comparable to local ones).
    pub fn f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// `u16 count + u64 × count` (coordinate lists).
    pub fn coords(out: &mut Vec<u8>, cs: &[usize]) {
        u16(out, cs.len() as u16);
        for &c in cs {
            u64(out, c as u64);
        }
    }
}

/// Bounds-checked payload reader: every accessor fails cleanly on
/// truncated input instead of panicking.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts reading `bytes` from the front.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(ProtoError::Malformed("payload truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Reads exactly `n` raw bytes (BATCH sub payloads).
    pub fn bytes_exact(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
    /// Reads a `u16 LE`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Reads a `u32 LE`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a `u64 LE`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads an `f64 LE`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a `u16 len + UTF-8` string.
    pub fn string(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| ProtoError::Malformed("string not UTF-8".into()))
    }
    /// Reads a `u16 count + u64 × count` coordinate list.
    pub fn coords(&mut self) -> Result<Vec<usize>> {
        let n = self.u16()? as usize;
        (0..n).map(|_| self.u64().map(|v| v as usize)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::GetEntry as u8, 0, b"hello").unwrap();
        let f = read_frame(&mut Cursor::new(&buf), MAX_REQUEST_PAYLOAD).unwrap();
        assert_eq!(f.version, VERSION);
        assert_eq!(f.opcode, Opcode::GetEntry as u8);
        assert_eq!(f.status, 0);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn a_writer_that_takes_one_byte_at_a_time_still_gets_the_whole_frame() {
        // No vectored write of its own, and short counts: the worst
        // writer `write_frame_versioned` can meet.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend(buf.first());
                Ok(buf.len().min(1))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"x", b"hello, frame"] {
            let mut slow = Trickle(Vec::new());
            write_frame(&mut slow, Opcode::TopK as u8, 7, payload).unwrap();
            let mut whole = Vec::new();
            encode_frame(&mut whole, VERSION, Opcode::TopK as u8, 7, payload);
            assert_eq!(slow.0, whole);
            let f = parse_frame(&whole, MAX_REQUEST_PAYLOAD).unwrap().unwrap();
            assert_eq!((f.opcode, f.status, &f.payload[..]), (7, 7, payload));
        }
    }

    #[test]
    fn v1_frames_are_still_accepted() {
        let mut buf = Vec::new();
        write_frame_versioned(&mut buf, 1, Opcode::Ping as u8, 0, &[]).unwrap();
        let f = read_frame(&mut Cursor::new(&buf), MAX_REQUEST_PAYLOAD).unwrap();
        assert_eq!(f.version, 1);
        // Versions outside [MIN_VERSION, VERSION] are rejected.
        for bad in [0u8, VERSION + 1, 0xff] {
            let mut buf = Vec::new();
            write_frame_versioned(&mut buf, bad, Opcode::Ping as u8, 0, &[]).unwrap();
            match read_frame(&mut Cursor::new(&buf), MAX_REQUEST_PAYLOAD) {
                Err(ProtoError::BadVersion(v)) => assert_eq!(v, bad),
                other => panic!("version {bad}: expected BadVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_envelope_roundtrip() {
        let subs = vec![
            BatchSub {
                opcode: Opcode::GetEntry as u8,
                payload: vec![1, 2, 3],
            },
            BatchSub {
                opcode: Opcode::TopK as u8,
                payload: Vec::new(),
            },
        ];
        let back = decode_batch_request(&encode_batch_request(&subs)).unwrap();
        assert_eq!(back, subs);
        let resps = vec![
            BatchSubResponse {
                opcode: Opcode::GetEntry as u8,
                status: Status::Ok as u16,
                payload: vec![9; 8],
            },
            BatchSubResponse {
                opcode: Opcode::TopK as u8,
                status: Status::BadRequest as u16,
                payload: b"nope".to_vec(),
            },
        ];
        let back = decode_batch_response(&encode_batch_response(&resps)).unwrap();
        assert_eq!(back, resps);
    }

    #[test]
    fn hostile_batch_envelopes_are_rejected_before_allocation() {
        // Sub count over the cap.
        let mut payload = Vec::new();
        enc::u16(&mut payload, MAX_BATCH_SUBS + 1);
        assert!(decode_batch_request(&payload).is_err());
        // A sub declaring more bytes than the envelope carries.
        let mut payload = Vec::new();
        enc::u16(&mut payload, 1);
        payload.push(Opcode::Ping as u8);
        enc::u32(&mut payload, u32::MAX);
        assert!(decode_batch_request(&payload).is_err());
        assert!(decode_batch_response(&{
            let mut p = Vec::new();
            enc::u16(&mut p, 1);
            p.push(Opcode::Ping as u8);
            enc::u16(&mut p, 0);
            enc::u32(&mut p, 1 << 30);
            p
        })
        .is_err());
        // Trailing garbage after the last sub.
        let mut payload = encode_batch_request(&[]);
        payload.push(0);
        assert!(decode_batch_request(&payload).is_err());
    }

    #[test]
    fn oversized_declared_length_is_rejected_unread() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, &[]).unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut Cursor::new(&buf), MAX_REQUEST_PAYLOAD) {
            Err(ProtoError::TooLarge { declared, .. }) => assert_eq!(declared, u32::MAX),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 0, b"payload").unwrap();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 2] {
            match read_frame(&mut Cursor::new(&buf[..cut]), MAX_REQUEST_PAYLOAD) {
                Err(ProtoError::Io(_)) => {}
                other => panic!("cut {cut}: expected Io, got {other:?}"),
            }
        }
    }

    #[test]
    fn dec_is_bounds_checked() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u64().is_err());
        let mut payload = Vec::new();
        enc::string(&mut payload, "abc");
        let mut d = Dec::new(&payload[..3]); // length says 3, only 1 byte follows
        assert!(d.string().is_err());
    }
}
