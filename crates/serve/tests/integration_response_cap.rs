//! The server keeps its own response cap: no answer it writes is longer
//! than `MAX_RESPONSE_PAYLOAD`, the most the bundled client reads. A
//! GET_SLICE or TOP_K that would be longer is refused with `TooLarge` and
//! the session stays usable; a BATCH whose answers would be longer
//! answers the overflowing subs `TooLarge` and every other sub as a
//! single frame would.

use std::sync::Arc;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_serve::protocol::MAX_RESPONSE_PAYLOAD;
use tpcp_serve::router::MAX_K;
use tpcp_serve::{
    decode_batch_response, encode_batch_request, request, BatchSub, Client, ModelRegistry,
    OpSnapshot, Opcode, ProtoError, ServeOptions, Server, Status,
};
use twopcp::{Model, ModelMeta};

const NAME: &str = "big";
/// The `serve_*` benchmark shape: a `(0, 1)` slice is `8 + 8·2048·1024`
/// bytes, 8 over the cap; a `(1, 2)` slice is a quarter of it.
const DIMS: [usize; 3] = [2048, 1024, 512];
const TALL: &str = "tall";
/// A mode of 2²⁰ rows: TOP_K at the largest `k` allowed is
/// `4 + 16·2²⁰` bytes, 4 over the cap.
const TALL_DIMS: [usize; 3] = [1 << 20, 1, 1];

struct DirGuard(std::path::PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn model(name: &str, dims: &[usize]) -> Model {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, 1, &mut rng))
        .collect();
    Model::new(
        ModelMeta {
            name: name.into(),
            rank: 1,
            dims: dims.to_vec(),
            seed: 5,
            fit: 1.0,
            schedule: "HO".into(),
            parts: vec![1],
            compress: None,
        },
        CpModel::new(vec![1.0], factors).unwrap(),
    )
    .unwrap()
}

/// A server over the two saved models, with the query cache off so that
/// every answer below is evaluated, never replayed.
fn start(tag: &str) -> (Server, String, DirGuard) {
    let dir = std::env::temp_dir().join(format!("tpcp_cap_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, dims) in [(NAME, &DIMS), (TALL, &TALL_DIMS)] {
        model(name, dims)
            .save(dir.join(format!("{name}.2pcpm")))
            .unwrap();
    }
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let mut opts = ServeOptions::new(&dir);
    opts.addr = "127.0.0.1:0".into();
    opts.cache_capacity = 0;
    let server = Server::start_with_registry(opts, registry).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr, DirGuard(dir))
}

fn assert_too_large<T>(answer: Result<T, ProtoError>) {
    match answer {
        Err(ProtoError::Remote { status, .. }) => assert_eq!(status, Status::TooLarge as u16),
        Err(e) => panic!("expected a TooLarge answer, got {e}"),
        Ok(_) => panic!("expected a TooLarge answer, got an answer"),
    }
}

#[test]
fn an_oversized_answer_is_refused_and_the_session_stays_in_step() {
    let (server, addr, _dir) = start("single");
    let mut c = Client::connect(&addr).unwrap();
    assert_too_large(c.slice(NAME, 0, 1, &[3]));
    // Nothing of the refused answer is left in the stream: the next
    // frame on the same session is answered, and is its own answer.
    c.ping().unwrap();
    assert_too_large(c.top_k(TALL, 0, &[0, 0], MAX_K as usize));
    c.ping().unwrap();
    let (rows, cols, values) = c.slice(NAME, 1, 2, &[3]).unwrap();
    assert_eq!((rows, cols), (DIMS[1], DIMS[2]));
    let local = model(NAME, &DIMS).slice(1, 2, &[3]).unwrap();
    assert!(values
        .iter()
        .zip(local.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Sends `subs` as one BATCH and checks the answer: no longer than the
/// cap, the subs in `overflowing` answered `TooLarge`, and every other sub
/// byte for byte its single-frame answer.
fn check_batch(c: &mut Client, subs: &[BatchSub], overflowing: &[usize]) {
    let envelope = c
        .request(Opcode::Batch, &encode_batch_request(subs))
        .unwrap();
    assert!(envelope.len() <= MAX_RESPONSE_PAYLOAD as usize);
    let answers = decode_batch_response(&envelope).unwrap();
    assert_eq!(answers.len(), subs.len());
    for (i, (sub, answer)) in subs.iter().zip(&answers).enumerate() {
        assert_eq!(answer.opcode, sub.opcode);
        if overflowing.contains(&i) {
            assert_eq!(answer.status, Status::TooLarge as u16, "sub {i}");
            continue;
        }
        assert_eq!(answer.status, Status::Ok as u16, "sub {i}");
        let op = Opcode::from_u8(sub.opcode).unwrap();
        let single = c.request(op, &sub.payload).unwrap();
        assert!(
            answer.payload == single,
            "sub {i} differs from its single frame"
        );
    }
}

#[test]
fn a_batch_past_the_cap_answers_its_overflowing_subs_too_large() {
    let (server, addr, _dir) = start("batch");
    let mut c = Client::connect(&addr).unwrap();
    // Five 4 MiB slices, with two entries among them: three slices fit
    // in 16 MiB, the fourth would not.
    let slices = [
        request::slice(NAME, 1, 2, &[0]),
        request::entry(NAME, &[1, 2, 3]),
        request::slice(NAME, 1, 2, &[1]),
        request::slice(NAME, 1, 2, &[2]),
        request::slice(NAME, 1, 2, &[3]),
        request::entry(NAME, &[4, 5, 6]),
        request::slice(NAME, 1, 2, &[4]),
    ];
    check_batch(&mut c, &slices, &[4, 6]);
    // 1024 fibers of 2048 rows: each answer is 16 KiB, and all of them
    // are 11 KiB past the cap, so the last one is refused, and STATS
    // counts that refusal as the error its client received.
    let fibers: Vec<BatchSub> = (0..1024)
        .map(|j| request::fiber(NAME, 0, &[j, 0]))
        .collect();
    let before = stat(&mut c, Opcode::GetFiber).errors;
    check_batch(&mut c, &fibers, &[1023]);
    assert_eq!(stat(&mut c, Opcode::GetFiber).errors, before + 1);
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// STATS' row for `op`.
fn stat(c: &mut Client, op: Opcode) -> OpSnapshot {
    c.stats().unwrap().op(op).unwrap().snapshot.clone()
}

#[test]
fn a_sub_behind_others_is_limited_by_what_they_left_of_the_envelope() {
    let (server, addr, _dir) = start("behind");
    let mut c = Client::connect(&addr).unwrap();
    // 1000 fibers take all but 373 KiB of the envelope, so the 4 MiB
    // slice behind them is refused before it is evaluated, and counted
    // as an error.
    let mut subs: Vec<BatchSub> = (0..1000)
        .map(|j| request::fiber(NAME, 0, &[j, 0]))
        .collect();
    subs.push(request::slice(NAME, 1, 2, &[3]));
    check_batch(&mut c, &subs, &[1000]);
    let slice = stat(&mut c, Opcode::GetSlice);
    assert_eq!((slice.count, slice.errors), (1, 1));
    c.shutdown().unwrap();
    server.join().unwrap();
}
