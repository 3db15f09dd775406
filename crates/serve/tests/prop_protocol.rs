//! Fuzz-style protocol properties: hostile bytes — truncated frames,
//! oversized declared lengths, unknown opcodes, garbage payloads,
//! mid-frame disconnects — must produce protocol errors, never panics,
//! hangs, or runaway allocations; and a live server must survive all of
//! them and keep answering well-formed clients.

use proptest::prelude::*;
use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_serve::protocol::{
    decode_batch_request, decode_batch_response, enc, encode_batch_request, encode_batch_response,
    encode_frame, parse_frame, read_frame, write_frame, BatchSub, BatchSubResponse, Dec,
    ProtoError, MAX_BATCH_SUBS, MAX_REQUEST_PAYLOAD, MAX_RESPONSE_PAYLOAD,
};
use tpcp_serve::{Client, ModelRegistry, Opcode, ProtoError as PE, ServeOptions, Server, Status};
use twopcp::{Model, ModelMeta};

// ---------------------------------------------------------------------
// Pure codec properties (no sockets)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup: `read_frame` returns — frame or error —
    /// without panicking, and never allocates beyond the declared cap.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = read_frame(&mut Cursor::new(&bytes), MAX_REQUEST_PAYLOAD);
    }

    /// A well-formed frame truncated at any point is an `Io` error (the
    /// mid-frame-disconnect shape), except the full length which parses.
    #[test]
    fn truncations_error_cleanly(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        opcode in any::<u8>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode, 0, &payload).unwrap();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        match read_frame(&mut Cursor::new(&buf[..cut]), MAX_REQUEST_PAYLOAD) {
            Err(ProtoError::Io(_)) => prop_assert!(cut < buf.len()),
            Ok(frame) => {
                prop_assert_eq!(cut, buf.len());
                prop_assert_eq!(frame.payload, payload);
            }
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
    }

    /// Any declared length over the cap is rejected before the payload
    /// is read, whatever the rest of the header says.
    #[test]
    fn oversized_lengths_rejected(
        declared in (MAX_REQUEST_PAYLOAD + 1)..u32::MAX,
        opcode in any::<u8>(),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, opcode, 0, &[]).unwrap();
        buf[8..12].copy_from_slice(&declared.to_le_bytes());
        match read_frame(&mut Cursor::new(&buf), MAX_REQUEST_PAYLOAD) {
            Err(ProtoError::TooLarge { declared: d, .. }) => prop_assert_eq!(d, declared),
            other => prop_assert!(false, "unexpected: {:?}", other),
        }
    }

    /// `parse_frame` over received bytes is `read_frame` over a cursor on
    /// the same bytes: the same frame, the same error variant with the
    /// same fields, and "incomplete" exactly where `read_frame` reports
    /// truncation — on frames with intact or corrupted magic, every
    /// version byte, honest and oversized declared lengths, cut anywhere,
    /// with or without the start of a next frame behind them.
    #[test]
    fn parse_frame_agrees_with_read_frame(
        payload in proptest::collection::vec(any::<u8>(), 0..48),
        (opcode, version) in (any::<u8>(), 0u8..5),
        corrupt_magic_at in 0usize..12, // 4.. leaves the magic intact
        oversize_by in prop_oneof![Just(0u32), 1u32..1 << 20],
        trailing in proptest::collection::vec(any::<u8>(), 0..16),
        cut_frac in 0.0f64..1.2, // >= 1: not cut
    ) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, version, opcode, 0, &payload);
        if corrupt_magic_at < 4 {
            buf[corrupt_magic_at] ^= 0x20;
        }
        if oversize_by > 0 {
            buf[8..12].copy_from_slice(&(MAX_REQUEST_PAYLOAD + oversize_by).to_le_bytes());
        }
        buf.extend_from_slice(&trailing);
        let cut = (((buf.len() as f64) * cut_frac) as usize).min(buf.len());
        let bytes = &buf[..cut];
        let read = read_frame(&mut Cursor::new(bytes), MAX_REQUEST_PAYLOAD);
        let parsed = parse_frame(bytes, MAX_REQUEST_PAYLOAD);
        match (read, parsed) {
            (Ok(a), Ok(Some(b))) => prop_assert_eq!(a, b),
            (Err(ProtoError::Io(e)), Ok(None)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            (Err(ProtoError::BadMagic(a)), Err(ProtoError::BadMagic(b))) => prop_assert_eq!(a, b),
            (Err(ProtoError::BadVersion(a)), Err(ProtoError::BadVersion(b))) => {
                prop_assert_eq!(a, b)
            }
            (
                Err(ProtoError::TooLarge { declared: a, cap: ca }),
                Err(ProtoError::TooLarge { declared: b, cap: cb }),
            ) => prop_assert_eq!((a, ca), (b, cb)),
            (read, parsed) => prop_assert!(false, "read {:?} but parsed {:?}", read, parsed),
        }
    }

    /// The same agreement on arbitrary byte soup (almost always a bad
    /// magic, or too short to tell).
    #[test]
    fn parse_frame_agrees_with_read_frame_on_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let read = read_frame(&mut Cursor::new(&bytes), MAX_REQUEST_PAYLOAD);
        match (read, parse_frame(&bytes, MAX_REQUEST_PAYLOAD)) {
            (Ok(a), Ok(Some(b))) => prop_assert_eq!(a, b),
            (Err(ProtoError::Io(_)), Ok(None)) => {}
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (read, parsed) => prop_assert!(false, "read {:?} but parsed {:?}", read, parsed),
        }
    }

    /// `Dec` string/coords survive any byte soup without panicking, and
    /// roundtrip what `enc` writes.
    #[test]
    fn payload_codec_roundtrips(
        s in proptest::collection::vec(0usize..64, 0..40).prop_map(|ix| {
            const CS: &[u8] =
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
            ix.into_iter().map(|i| CS[i] as char).collect::<String>()
        }),
        coords in proptest::collection::vec(0usize..1_000_000, 0..12),
        soup in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut payload = Vec::new();
        enc::string(&mut payload, &s);
        enc::coords(&mut payload, &coords);
        let mut d = Dec::new(&payload);
        prop_assert_eq!(d.string().unwrap(), s);
        prop_assert_eq!(d.coords().unwrap(), coords);
        d.finish().unwrap();

        let mut d = Dec::new(&soup);
        let _ = d.string();
        let _ = d.coords();
    }

    /// BATCH envelopes with ragged sub sizes (including empty payloads)
    /// roundtrip exactly, request and response side.
    #[test]
    fn batch_envelopes_roundtrip_ragged(
        shape in proptest::collection::vec((any::<u8>(), 0usize..48), 0..24),
    ) {
        let subs: Vec<BatchSub> = shape
            .iter()
            .map(|&(opcode, len)| BatchSub {
                opcode,
                payload: (0..len).map(|i| (i as u8).wrapping_mul(31) ^ opcode).collect(),
            })
            .collect();
        let back = decode_batch_request(&encode_batch_request(&subs)).unwrap();
        prop_assert_eq!(&back, &subs);

        let resps: Vec<BatchSubResponse> = subs
            .iter()
            .enumerate()
            .map(|(i, s)| BatchSubResponse {
                opcode: s.opcode,
                status: (i % 7) as u16, // mixed OK and error statuses
                payload: s.payload.clone(),
            })
            .collect();
        let back = decode_batch_response(&encode_batch_response(&resps)).unwrap();
        prop_assert_eq!(back, resps);
    }

    /// A BATCH request truncated anywhere strictly inside is an error,
    /// never a panic or a silently shorter batch.
    #[test]
    fn batch_truncations_error_cleanly(
        shape in proptest::collection::vec((any::<u8>(), 0usize..32), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let subs: Vec<BatchSub> = shape
            .iter()
            .map(|&(opcode, len)| BatchSub { opcode, payload: vec![opcode; len] })
            .collect();
        let buf = encode_batch_request(&subs);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        match decode_batch_request(&buf[..cut]) {
            Ok(back) => {
                prop_assert_eq!(cut, buf.len());
                prop_assert_eq!(back, subs);
            }
            Err(_) => prop_assert!(cut < buf.len()),
        }
    }

    /// Hostile counts and declared sub lengths are rejected before any
    /// allocation proportional to the declared size: a tiny buffer that
    /// declares a huge count or sub length must fail on the bytes it
    /// has, not on what it promises.
    #[test]
    fn hostile_batch_declarations_rejected(
        count in (MAX_BATCH_SUBS + 1)..=u16::MAX,
        declared_len in (MAX_REQUEST_PAYLOAD + 1)..u32::MAX,
    ) {
        // Oversized count, no sub bytes at all.
        let mut buf = Vec::new();
        enc::u16(&mut buf, count);
        prop_assert!(decode_batch_request(&buf).is_err());

        // Valid count, one sub declaring more bytes than the buffer holds.
        let mut buf = Vec::new();
        enc::u16(&mut buf, 1);
        buf.push(0x03);
        enc::u32(&mut buf, declared_len);
        buf.extend_from_slice(&[0xAB; 16]);
        prop_assert!(decode_batch_request(&buf).is_err());
    }
}

// ---------------------------------------------------------------------
// Live-server resilience
// ---------------------------------------------------------------------

fn demo_model() -> Model {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let dims = [5usize, 4, 3];
    let rank = 2;
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, rank, &mut rng))
        .collect();
    Model::new(
        ModelMeta {
            name: "demo".into(),
            rank,
            dims: dims.to_vec(),
            seed: 3,
            fit: 0.9,
            schedule: "HO".into(),
            parts: vec![1],
            compress: None,
        },
        CpModel::new(vec![1.0, 0.5], factors).unwrap(),
    )
    .unwrap()
}

/// Starts a server on an ephemeral port over a fresh temp model dir.
fn start_server(tag: &str) -> (Server, String, tempdir::Guard) {
    let dir = std::env::temp_dir().join(format!("tpcp_protofuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    demo_model().save(dir.join("demo.2pcpm")).unwrap();
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let mut opts = ServeOptions::new(&dir);
    opts.addr = "127.0.0.1:0".into();
    let server = Server::start_with_registry(opts, registry).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr, tempdir::Guard(dir))
}

/// Tiny RAII temp-dir cleanup.
mod tempdir {
    pub struct Guard(pub std::path::PathBuf);
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[test]
fn server_survives_hostile_clients() {
    let (server, addr, _guard) = start_server("hostile");

    // 1. Unknown opcode: error response, connection stays usable.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        write_frame(&mut s, 0xEE, 0, &[]).unwrap();
        let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
        assert_eq!(resp.status, Status::UnknownOpcode as u16);
        // Same socket, well-formed PING: the session must still answer.
        write_frame(&mut s, Opcode::Ping as u8, 0, &[]).unwrap();
        let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
        assert_eq!(resp.status, Status::Ok as u16);
    }

    // 2. Oversized declared length: one TooLarge response, then close.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut header = Vec::new();
        write_frame(&mut header, Opcode::Ping as u8, 0, &[]).unwrap();
        header[8..12].copy_from_slice(&(MAX_REQUEST_PAYLOAD + 1).to_le_bytes());
        s.write_all(&header).unwrap();
        let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
        assert_eq!(resp.status, Status::TooLarge as u16);
    }

    // 3. Bad magic: one BadFrame response, then close.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
        assert_eq!(resp.status, Status::BadFrame as u16);
    }

    // 4. Mid-frame disconnect: declare 100 payload bytes, send 3, hang
    //    up. The server must drop the session without hanging.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::GetEntry as u8, 0, &[0u8; 100]).unwrap();
        s.write_all(&buf[..protocol_header_len() + 3]).unwrap();
        drop(s);
    }

    // 5. Garbage payloads on every model opcode: must answer an error
    //    status (or OK for the parameterless ones), never hang.
    {
        let mut c = Client::connect(&addr).unwrap();
        for op in Opcode::ALL {
            if matches!(op, Opcode::Shutdown | Opcode::Reload) {
                continue; // admin ops exercised elsewhere
            }
            let garbage = [0xFFu8, 0x00, 0xAB, 0xCD, 0x01, 0x02];
            match c.request(op, &garbage) {
                Ok(_) | Err(PE::Remote { .. }) => {}
                other => panic!("{}: unexpected {other:?}", op.name()),
            }
        }
        // The connection is still healthy after all of it.
        c.ping().unwrap();
    }

    // The server still answers a clean, well-formed session.
    let mut c = Client::connect(&addr).unwrap();
    let models = c.list_models().unwrap();
    assert_eq!(models.len(), 1);
    let v = c.entry("demo", &[0, 0, 0]).unwrap();
    assert_eq!(
        v.to_bits(),
        demo_model().entry(&[0, 0, 0]).unwrap().to_bits()
    );
    c.shutdown().unwrap();
    server.join().unwrap();
}

fn protocol_header_len() -> usize {
    tpcp_serve::protocol::HEADER_LEN
}
