//! BATCH + pipelining end-to-end: batched responses must be bitwise
//! identical to the serial single-frame path (including across a RELOAD
//! hot swap, where a pinned session keeps answering on its pinned
//! version), one bad sub-request must fail alone, pipelined responses
//! must arrive in request order, and hand-crafted protocol-v1 frames
//! must keep working unchanged against the v2 server.

use std::net::TcpStream;
use std::sync::Arc;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_serve::protocol::{
    read_frame, write_frame_versioned, MAX_RESPONSE_PAYLOAD, MIN_VERSION, VERSION,
};
use tpcp_serve::{
    decode_entry_payload, decode_fiber_payload, decode_meta_payload, decode_ranked, request,
    Client, ModelRegistry, Opcode, ProtoError, ServeOptions, Server, Status,
};
use twopcp::{Model, ModelMeta};

const DIMS: [usize; 3] = [9, 7, 5];
const RANK: usize = 3;

fn make_model(seed: u64) -> Model {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let factors: Vec<Mat> = DIMS
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, RANK, &mut rng))
        .collect();
    Model::new(
        ModelMeta {
            name: "demo".into(),
            rank: RANK,
            dims: DIMS.to_vec(),
            seed,
            fit: 0.95,
            schedule: "HO".into(),
            parts: vec![2],
            compress: None,
        },
        CpModel::new(vec![2.0, 1.0, 0.5], factors).unwrap(),
    )
    .unwrap()
}

struct DirGuard(std::path::PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> DirGuard {
    let dir = std::env::temp_dir().join(format!("tpcp_batch_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    DirGuard(dir)
}

fn start(dir: &std::path::Path) -> (Server, String) {
    serve(ServeOptions::new(dir))
}

fn serve(mut opts: ServeOptions) -> (Server, String) {
    let registry = Arc::new(ModelRegistry::open(&opts.models_dir).unwrap());
    opts.addr = "127.0.0.1:0".into();
    opts.max_sessions = 16;
    let server = Server::start_with_registry(opts, registry).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// One batch of mixed sub-requests must answer bitwise-equal to the
/// typed single-frame path on the same session, against `local`.
fn assert_batch_matches_serial(c: &mut Client, local: &Model, salt: usize) {
    let coords: Vec<usize> = DIMS.iter().map(|&d| salt % d).collect();
    let fixed: Vec<usize> = coords[1..].to_vec();
    let subs = vec![
        request::entry("demo", &coords),
        request::fiber("demo", 0, &fixed),
        request::top_k("demo", 1, &[coords[0], coords[2]], 4),
        request::entry("demo", &[999, 999]), // invalid: fails alone
        request::similar("demo", 0, coords[0], 3),
        request::meta("demo"),
    ];
    let resps = c.batch(&subs).unwrap();
    assert_eq!(resps.len(), subs.len());
    for (i, r) in resps.iter().enumerate() {
        if i == 3 {
            assert_ne!(r.status, Status::Ok as u16, "invalid sub must fail");
        } else {
            assert_eq!(r.status, Status::Ok as u16, "sub {i} failed: {:?}", r);
        }
        assert_eq!(r.opcode, subs[i].opcode);
    }

    let entry = decode_entry_payload(&resps[0].payload).unwrap();
    assert_eq!(entry.to_bits(), local.entry(&coords).unwrap().to_bits());
    assert_eq!(
        entry.to_bits(),
        c.entry("demo", &coords).unwrap().to_bits(),
        "batched entry differs from single-frame entry"
    );

    let fiber = decode_fiber_payload(&resps[1].payload).unwrap();
    let serial = c.fiber("demo", 0, &fixed).unwrap();
    let expect = local.fiber(0, &fixed).unwrap();
    assert_eq!(fiber.len(), expect.len());
    for ((a, b), s) in fiber.iter().zip(&expect).zip(&serial) {
        assert_eq!(a.to_bits(), b.to_bits(), "batched fiber differs from local");
        assert_eq!(
            a.to_bits(),
            s.to_bits(),
            "batched fiber differs from serial"
        );
    }

    let top = decode_ranked(&resps[2].payload).unwrap();
    assert_eq!(top, local.top_k(1, &[coords[0], coords[2]], 4).unwrap());
    assert_eq!(top, c.top_k("demo", 1, &[coords[0], coords[2]], 4).unwrap());

    let sims = decode_ranked(&resps[4].payload).unwrap();
    assert_eq!(sims, local.similar_rows(0, coords[0], 3).unwrap());

    let meta = decode_meta_payload(&resps[5].payload).unwrap();
    assert_eq!(meta.dims, DIMS.to_vec());
}

#[test]
fn batch_matches_serial_bitwise_across_hot_swap() {
    let guard = temp_dir("swap");
    let dir = guard.0.clone();
    let v1 = make_model(31);
    let v2 = make_model(32);
    v1.save(dir.join("demo.2pcpm")).unwrap();
    let (server, addr) = start(&dir);

    assert_ne!(
        v1.entry(&[0, 0, 0]).unwrap().to_bits(),
        v2.entry(&[0, 0, 0]).unwrap().to_bits(),
        "sanity: versions must answer differently"
    );

    // Pin v1 on a session and verify batch == serial == local.
    let mut pinned = Client::connect(&addr).unwrap();
    let pinned_version = pinned.meta("demo").unwrap().version;
    for salt in 0..4 {
        assert_batch_matches_serial(&mut pinned, &v1, salt);
    }

    // Hot swap to v2 under the pinned session.
    v2.save(dir.join("demo.2pcpm")).unwrap();
    let mut admin = Client::connect(&addr).unwrap();
    let reload = admin.reload().unwrap();
    assert!(reload.errors.is_empty());

    // The pinned session still answers v1, batched and serial alike.
    assert_eq!(pinned.meta("demo").unwrap().version, pinned_version);
    for salt in 0..4 {
        assert_batch_matches_serial(&mut pinned, &v1, salt);
    }

    // A fresh session sees v2 — same invariants on the new version.
    let mut fresh = Client::connect(&addr).unwrap();
    assert!(fresh.meta("demo").unwrap().version > pinned_version);
    for salt in 0..4 {
        assert_batch_matches_serial(&mut fresh, &v2, salt);
    }

    admin.shutdown().unwrap();
    server.join().unwrap();
}

/// Entries over every mode, as bits: what `local` answers.
fn probe() -> Vec<Vec<usize>> {
    (0..24)
        .map(|q| DIMS.iter().enumerate().map(|(m, &d)| (q + m) % d).collect())
        .collect()
}

/// Asserts that `c` answers every probe entry bitwise as `local` does,
/// as single frames and as one BATCH.
fn assert_answers(c: &mut Client, local: &Model, what: &str) {
    let probe = probe();
    for coords in &probe {
        let want = local.entry(coords).unwrap().to_bits();
        let got = c.entry("demo", coords).unwrap().to_bits();
        assert_eq!(got, want, "{what}: single entry {coords:?}");
    }
    let subs: Vec<_> = probe.iter().map(|c| request::entry("demo", c)).collect();
    for (r, coords) in c.batch(&subs).unwrap().iter().zip(&probe) {
        assert_eq!(r.status, Status::Ok as u16, "{what}: {r:?}");
        let got = decode_entry_payload(&r.payload).unwrap().to_bits();
        let want = local.entry(coords).unwrap().to_bits();
        assert_eq!(got, want, "{what}: batched entry {coords:?}");
    }
}

/// A served file rewritten or truncated in place, as `cp new demo.2pcpm`
/// or a crashed writer would leave it, never reaches a session that has
/// pinned the model: a loaded model owns its factors. A RELOAD of a
/// broken file is the documented degraded result — one error, the model
/// gone from the fresh map — and a good file brings serving back.
///
/// Before models were always owned, a server holding them in a shared
/// memory map of the file (an option in earlier builds) failed both
/// halves: after the
/// in-place rewrite the v1 holder answered v2's values, and after the
/// truncation it read zeros from the page the file now ended in and died
/// of `SIGBUS` on any page past it.
#[test]
fn file_rewritten_or_truncated_in_place_never_reaches_a_pinned_session() {
    let guard = temp_dir("inplace");
    let path = guard.0.join("demo.2pcpm");
    let v1 = make_model(71);
    let v2 = make_model(72);
    v1.save(&path).unwrap();
    // No query cache, so every answer below is evaluated on the pinned
    // model rather than replayed.
    let mut opts = ServeOptions::new(&guard.0);
    opts.cache_capacity = 0;
    let (server, addr) = serve(opts);
    let mut admin = Client::connect(&addr).unwrap();

    let mut pinned = Client::connect(&addr).unwrap();
    assert_answers(&mut pinned, &v1, "v1 before the rewrite");

    // Rewrite in place: same path, same inode, truncated then written.
    let v2_bytes = v2.to_bytes();
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .truncate(true)
        .open(&path)
        .unwrap();
    std::io::Write::write_all(&mut f, &v2_bytes).unwrap();
    drop(f);
    assert_answers(&mut pinned, &v1, "v1 holder after the in-place rewrite");
    let reload = admin.reload().unwrap();
    assert_eq!((reload.models, reload.errors.len()), (1, 0));
    let mut fresh = Client::connect(&addr).unwrap();
    assert_answers(&mut fresh, &v2, "fresh session after RELOAD");
    assert_answers(&mut pinned, &v1, "v1 holder after RELOAD");

    // Truncate to half and reload: one error, no model in the new map.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(v2_bytes.len() as u64 / 2)
        .unwrap();
    let reload = admin.reload().unwrap();
    assert_eq!((reload.models, reload.errors.len()), (0, 1), "{reload:?}");
    assert_answers(&mut pinned, &v1, "v1 holder after the truncation");
    assert_answers(&mut fresh, &v2, "v2 holder after the truncation");
    let mut orphan = Client::connect(&addr).unwrap();
    match orphan.entry("demo", &[0, 0, 0]) {
        Err(ProtoError::Remote { status, .. }) => {
            assert_eq!(status, Status::UnknownModel as u16)
        }
        other => panic!("GET_ENTRY on a dropped model: {other:?}"),
    }

    // A good file and a RELOAD bring serving back.
    v1.save(&path).unwrap();
    let reload = admin.reload().unwrap();
    assert_eq!((reload.models, reload.errors.len()), (1, 0));
    let mut back = Client::connect(&addr).unwrap();
    assert_answers(&mut back, &v1, "fresh session after the repair");

    admin.shutdown().unwrap();
    server.join().unwrap();
}

fn ranked_bits(r: &[(usize, f64)]) -> Vec<(usize, u64)> {
    r.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

/// SIMILAR at k = 0, 3 and beyond the row count, and TOP_K at and beyond
/// the fiber length, in one BATCH: each must equal its single frame and
/// the in-process model bitwise. Returns the SIMILAR answers.
fn assert_ranked_edges_match(c: &mut Client, local: &Model) -> Vec<Vec<(usize, u64)>> {
    let similar = [(0, 2, 0), (0, 2, 3), (1, 6, DIMS[1] + 4), (0, 8, DIMS[0])];
    let top_k = [(0, [1, 2], DIMS[0] + 4), (2, [3, 4], DIMS[2])];
    let mut subs = Vec::new();
    let mut want = Vec::new();
    let mut single = Vec::new();
    for &(mode, row, k) in &similar {
        subs.push(request::similar("demo", mode, row, k));
        want.push(local.similar_rows(mode, row, k).unwrap());
        single.push(c.similar("demo", mode, row, k).unwrap());
    }
    for (mode, fixed, k) in &top_k {
        subs.push(request::top_k("demo", *mode, fixed, *k));
        want.push(local.top_k(*mode, fixed, *k).unwrap());
        single.push(c.top_k("demo", *mode, fixed, *k).unwrap());
    }
    let lens: Vec<usize> = want.iter().map(Vec::len).collect();
    assert_eq!(lens, [0, 3, DIMS[1] - 1, DIMS[0] - 1, DIMS[0], DIMS[2]]);
    let resps = c.batch(&subs).unwrap();
    for (i, resp) in resps.iter().enumerate() {
        assert_eq!(resp.status, Status::Ok as u16, "sub {i}: {resp:?}");
        let batched = ranked_bits(&decode_ranked(&resp.payload).unwrap());
        assert_eq!(batched, ranked_bits(&want[i]), "sub {i}: batch vs local");
        assert_eq!(batched, ranked_bits(&single[i]), "sub {i}: batch vs single");
    }
    want[..similar.len()]
        .iter()
        .map(|r| ranked_bits(r))
        .collect()
}

#[test]
fn ranked_edges_match_bitwise_and_similar_follows_reload() {
    let guard = temp_dir("ranked");
    let dir = guard.0.clone();
    let v1 = make_model(61);
    let v2 = make_model(62);
    v1.save(dir.join("demo.2pcpm")).unwrap();
    // No query cache: every batched and single answer is evaluated, none
    // replayed from the other.
    let mut opts = ServeOptions::new(&dir);
    opts.cache_capacity = 0;
    let (server, addr) = serve(opts);

    let mut pinned = Client::connect(&addr).unwrap();
    let old = assert_ranked_edges_match(&mut pinned, &v1);

    v2.save(dir.join("demo.2pcpm")).unwrap();
    let mut admin = Client::connect(&addr).unwrap();
    assert!(admin.reload().unwrap().errors.is_empty());

    // A fresh session answers from the new factors — the row norms of
    // the old version must not leak into it — while the pinned session
    // keeps answering the old version.
    let mut fresh = Client::connect(&addr).unwrap();
    let new = assert_ranked_edges_match(&mut fresh, &v2);
    assert_ne!(old, new, "sanity: the versions must rank differently");
    assert_eq!(assert_ranked_edges_match(&mut pinned, &v1), old);

    admin.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let guard = temp_dir("pipe");
    let dir = guard.0.clone();
    let model = make_model(41);
    model.save(dir.join("demo.2pcpm")).unwrap();
    let (server, addr) = start(&dir);

    // Many more frames than the server's in-flight bound, with distinct
    // answers so misordering cannot go unnoticed.
    let n = 4 * tpcp_serve::PIPELINE_DEPTH;
    let coords: Vec<Vec<usize>> = (0..n)
        .map(|q| DIMS.iter().enumerate().map(|(m, &d)| (q + m) % d).collect())
        .collect();
    let reqs: Vec<_> = coords.iter().map(|c| request::entry("demo", c)).collect();

    let mut c = Client::connect(&addr).unwrap();
    let resps = c.pipeline(&reqs).unwrap();
    assert_eq!(resps.len(), n);
    for (q, (status, payload)) in resps.iter().enumerate() {
        assert_eq!(*status, Status::Ok as u16);
        let got = decode_entry_payload(payload).unwrap();
        let want = model.entry(&coords[q]).unwrap();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pipelined response {q} out of order or wrong"
        );
    }

    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn v1_single_frame_clients_work_unchanged() {
    let guard = temp_dir("v1compat");
    let dir = guard.0.clone();
    let model = make_model(51);
    model.save(dir.join("demo.2pcpm")).unwrap();
    let (server, addr) = start(&dir);

    let mut s = TcpStream::connect(&addr).unwrap();

    // v1 PING: the response frame must come back stamped v1.
    write_frame_versioned(&mut s, MIN_VERSION, Opcode::Ping as u8, 0, &[]).unwrap();
    let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
    assert_eq!(resp.version, MIN_VERSION, "server must echo the v1 header");
    assert_eq!(resp.status, Status::Ok as u16);

    // v1 GET_ENTRY: bitwise-equal to the local model.
    let sub = request::entry("demo", &[1, 2, 3]);
    write_frame_versioned(&mut s, MIN_VERSION, sub.opcode, 0, &sub.payload).unwrap();
    let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
    assert_eq!(
        (resp.version, resp.status),
        (MIN_VERSION, Status::Ok as u16)
    );
    assert_eq!(
        decode_entry_payload(&resp.payload).unwrap().to_bits(),
        model.entry(&[1, 2, 3]).unwrap().to_bits()
    );

    // v1 MODEL_META: a v1 header, and a body v1 clients decode.
    let sub = request::meta("demo");
    write_frame_versioned(&mut s, MIN_VERSION, sub.opcode, 0, &sub.payload).unwrap();
    let v1_meta = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
    assert_eq!(
        (v1_meta.version, v1_meta.status),
        (MIN_VERSION, Status::Ok as u16)
    );
    assert_eq!(decode_meta_payload(&v1_meta.payload).unwrap().dims, DIMS);

    // BATCH is a v2 opcode: a v1 frame carrying it must be refused
    // without killing the session.
    let batch = tpcp_serve::encode_batch_request(&[request::ping()]);
    write_frame_versioned(&mut s, MIN_VERSION, Opcode::Batch as u8, 0, &batch).unwrap();
    let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
    assert_ne!(resp.status, Status::Ok as u16, "BATCH must require v2");

    // The session survived the refusal; the same request at v2 gets a v2
    // header and the same body bytes.
    let sub = request::meta("demo");
    write_frame_versioned(&mut s, VERSION, sub.opcode, 0, &sub.payload).unwrap();
    let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
    assert_eq!((resp.version, resp.status), (VERSION, Status::Ok as u16));
    assert_eq!(resp.payload, v1_meta.payload, "v1 and v2 META bodies");

    drop(s);
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();
}
