//! The session loop's contract, over real sockets on `127.0.0.1:0`: one
//! thread reads bursts into a buffer, answers every whole frame in order
//! and writes the answers once. However the bytes are cut up on the way
//! in, whatever follows them (a fault, a half-close, nothing) and whether
//! or not the client reads, the response stream must be the same bytes,
//! in order — and the server must always be able to stop.
//!
//! Every test runs under a watchdog: a wedged session fails in seconds
//! with a message instead of hanging the suite.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_serve::protocol::{
    encode_frame, read_frame, Frame, MAX_REQUEST_PAYLOAD, MAX_RESPONSE_PAYLOAD, MIN_VERSION,
    VERSION,
};
use tpcp_serve::{
    decode_batch_response, decode_fiber_payload, encode_batch_request, request, BatchSub,
    ModelRegistry, Opcode, ServeOptions, Server, Status, MAX_BATCH_SUBS, PIPELINE_DEPTH,
};
use twopcp::{Model, ModelMeta};

/// Long on purpose: it pads every sub-request, which is how the window
/// tests get an envelope near the request cap out of 1024 subs.
const NAME: &str = "wide_fibers_for_the_full_window_test";
/// Mode 0 is wide so that a fiber along it is a ≈ 1 KiB answer.
const DIMS: [usize; 3] = [128, 4, 4];
const RANK: usize = 2;

fn model() -> Model {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    let factors: Vec<Mat> = DIMS
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, RANK, &mut rng))
        .collect();
    Model::new(
        ModelMeta {
            name: NAME.into(),
            rank: RANK,
            dims: DIMS.to_vec(),
            seed: 71,
            fit: 0.9,
            schedule: "HO".into(),
            parts: vec![1],
            compress: None,
        },
        CpModel::new(vec![1.0, 0.5], factors).unwrap(),
    )
    .unwrap()
}

struct DirGuard(std::path::PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(tag: &str) -> (Server, String, DirGuard) {
    start_with(tag, None)
}

/// [`start`], with the session limit set when `max_sessions` is given.
fn start_with(tag: &str, max_sessions: Option<usize>) -> (Server, String, DirGuard) {
    let dir = std::env::temp_dir().join(format!("tpcp_session_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    model().save(dir.join(format!("{NAME}.2pcpm"))).unwrap();
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let mut opts = ServeOptions::new(&dir);
    opts.addr = "127.0.0.1:0".into();
    if let Some(n) = max_sessions {
        opts.max_sessions = n;
    }
    let server = Server::start_with_registry(opts, registry).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr, DirGuard(dir))
}

/// Runs `body` on its own thread and fails the test if it has not
/// returned within `limit`. A panic inside `body` is re-raised here.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: still running after {limit:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("sender dropped without a value"))
        }
    }
}

const WATCHDOG: Duration = Duration::from_secs(30);

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Half-closes and reads until the server closes: everything it answered.
fn drain(mut s: TcpStream) -> Vec<u8> {
    s.shutdown(Shutdown::Write).unwrap();
    let mut all = Vec::new();
    s.read_to_end(&mut all).unwrap();
    all
}

/// Splits a response byte stream back into frames; it must be whole.
fn frames(mut bytes: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        out.push(read_frame(&mut bytes, MAX_RESPONSE_PAYLOAD).expect("torn response stream"));
    }
    out
}

fn stop(server: Server) {
    server.stop();
    server.join().unwrap();
}

/// A deterministic request stream touching every answer shape: empty,
/// scalar, vector, metadata, an envelope, an unknown opcode, a bad
/// payload — in both protocol versions.
fn mixed_stream() -> (Vec<u8>, usize) {
    let subs = [
        request::ping(),
        request::entry(NAME, &[5, 1, 2]),
        request::fiber(NAME, 0, &[1, 2]),
        request::meta(NAME),
        request::top_k(NAME, 0, &[3, 3], 5),
        BatchSub {
            opcode: Opcode::Batch as u8,
            payload: encode_batch_request(&[
                request::entry(NAME, &[9, 0, 0]),
                request::entry(NAME, &[999, 0, 0]),
                request::similar(NAME, 0, 7, 3),
            ]),
        },
        BatchSub {
            opcode: 0xEE,
            payload: vec![1, 2, 3],
        },
        request::entry("no_such_model", &[0, 0, 0]),
        request::slice(NAME, 0, 1, &[2]),
    ];
    let mut wire = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        let version = if i % 3 == 1 { MIN_VERSION } else { VERSION };
        encode_frame(&mut wire, version, sub.opcode, 0, &sub.payload);
    }
    (wire, subs.len())
}

/// (b) How the request bytes are cut into writes — one byte each, 7-byte
/// pieces, one write — must not show in the response stream.
#[test]
fn response_stream_is_independent_of_how_requests_are_cut() {
    within(WATCHDOG, || {
        let (server, addr, _guard) = start("cut");
        let (wire, n) = mixed_stream();
        let answers: Vec<Vec<u8>> = [1, 7, wire.len()]
            .into_iter()
            .map(|piece| {
                let mut s = connect(&addr);
                for chunk in wire.chunks(piece) {
                    s.write_all(chunk).unwrap();
                }
                drain(s)
            })
            .collect();
        assert_eq!(frames(&answers[2]).len(), n);
        assert!(
            answers[0] == answers[2],
            "one byte per write answered differently"
        );
        assert!(
            answers[1] == answers[2],
            "7-byte pieces answered differently"
        );
        stop(server);
    });
}

/// (c) A frame-layer fault behind N good frames in the same write: N OK
/// answers, then the one fault answer, then the close — and nothing sent
/// behind the fault is answered.
#[test]
fn fault_in_a_burst_is_answered_once_in_order_then_closes() {
    within(WATCHDOG, || {
        let (server, addr, _guard) = start("fault");
        const N: usize = 9;
        let mut good = Vec::new();
        for i in 0..N {
            let sub = request::entry(NAME, &[i, 0, 0]);
            encode_frame(&mut good, VERSION, sub.opcode, 0, &sub.payload);
        }
        let mut bad_magic = Vec::new();
        encode_frame(&mut bad_magic, VERSION, Opcode::Ping as u8, 0, &[]);
        bad_magic[0] = b'X';
        let mut oversized = Vec::new();
        encode_frame(&mut oversized, VERSION, Opcode::Ping as u8, 0, &[]);
        oversized[8..12].copy_from_slice(&(MAX_REQUEST_PAYLOAD + 1).to_le_bytes());

        for (fault, status) in [
            (&bad_magic, Status::BadFrame),
            (&oversized, Status::TooLarge),
        ] {
            let mut burst = good.clone();
            burst.extend_from_slice(fault);
            encode_frame(&mut burst, VERSION, Opcode::Ping as u8, 0, &[]); // never answered
            let mut s = connect(&addr);
            s.write_all(&burst).unwrap();
            let mut all = Vec::new();
            s.read_to_end(&mut all).unwrap(); // ends because the server closes
            let got = frames(&all);
            assert_eq!(got.len(), N + 1, "{status:?}");
            for (i, f) in got[..N].iter().enumerate() {
                assert_eq!(f.status, Status::Ok as u16);
                assert_eq!(
                    tpcp_serve::decode_entry_payload(&f.payload)
                        .unwrap()
                        .to_bits(),
                    model().entry(&[i, 0, 0]).unwrap().to_bits(),
                    "answer {i} out of order"
                );
            }
            assert_eq!(got[N].status, status as u16);
            assert_eq!(got[N].version, MIN_VERSION, "faults are stamped v1");
        }
        stop(server);
    });
}

/// (d) A client that writes N frames and half-closes still gets N answers.
#[test]
fn half_close_still_answers_every_whole_frame() {
    within(WATCHDOG, || {
        let (server, addr, _guard) = start("halfclose");
        const N: usize = 40; // more than one window
        let mut wire = Vec::new();
        for i in 0..N {
            let sub = request::fiber(NAME, 0, &[i % DIMS[1], i % DIMS[2]]);
            encode_frame(&mut wire, VERSION, sub.opcode, 0, &sub.payload);
        }
        // …and the first bytes of a frame that never completes.
        wire.extend_from_slice(b"2PCP\x02");
        let mut s = connect(&addr);
        s.write_all(&wire).unwrap();
        let got = frames(&drain(s));
        assert_eq!(got.len(), N, "the partial frame must not be answered");
        for (i, f) in got.iter().enumerate() {
            let want = model().fiber(0, &[i % DIMS[1], i % DIMS[2]]).unwrap();
            let fiber = decode_fiber_payload(&f.payload).unwrap();
            assert!(
                fiber.len() == want.len()
                    && fiber
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "answer {i} differs"
            );
        }
        stop(server);
    });
}

/// (f) v1 and v2 frames in one coalesced burst: each answer carries its
/// request's version, in order, and the `MODEL_META` body is the same
/// bytes at either version.
#[test]
fn versions_are_echoed_per_frame_inside_a_burst() {
    within(WATCHDOG, || {
        let (server, addr, _guard) = start("versions");
        let versions = [VERSION, MIN_VERSION, MIN_VERSION, VERSION, MIN_VERSION];
        let sub = request::meta(NAME);
        let mut wire = Vec::new();
        for &v in &versions {
            encode_frame(&mut wire, v, sub.opcode, 0, &sub.payload);
        }
        let mut s = connect(&addr);
        s.write_all(&wire).unwrap();
        let got = frames(&drain(s));
        assert_eq!(got.len(), versions.len());
        for (f, &v) in got.iter().zip(&versions) {
            assert_eq!((f.version, f.status), (v, Status::Ok as u16));
            assert_eq!(f.payload, got[0].payload, "v{v} body");
        }
        let meta = tpcp_serve::decode_meta_payload(&got[0].payload).unwrap();
        assert_eq!(meta.name, NAME);
        stop(server);
    });
}

/// One BATCH envelope at the sub-count cap whose every sub is a fiber
/// along the wide mode: a request near `MAX_REQUEST_PAYLOAD`, an answer
/// of about 1 MiB.
fn heavy_envelope() -> Vec<u8> {
    let subs: Vec<BatchSub> = (0..MAX_BATCH_SUBS as usize)
        .map(|i| request::fiber(NAME, 0, &[i % DIMS[1], (i / DIMS[1]) % DIMS[2]]))
        .collect();
    let payload = encode_batch_request(&subs);
    assert!(payload.len() > MAX_REQUEST_PAYLOAD as usize * 9 / 10);
    let mut frame = Vec::new();
    encode_frame(&mut frame, VERSION, Opcode::Batch as u8, 0, &payload);
    frame
}

/// Shrinks the socket's send buffer to the kernel's minimum, so that what
/// the client has "written" is what the server has taken, not what the
/// kernel is holding for it.
#[cfg(target_os = "linux")]
fn shrink_send_buffer(s: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    let bytes: i32 = 4096;
    // SAFETY: `value` points at one live `i32` and `len` is its size,
    // which is what SO_SNDBUF reads; the descriptor is `s`'s, open for
    // the call.
    let rc = unsafe { setsockopt(s.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt(SO_SNDBUF)");
}
#[cfg(not(target_os = "linux"))]
fn shrink_send_buffer(_: &TcpStream) {}

/// (e) The no-deadlock guarantee at its edge: a full window —
/// `PIPELINE_DEPTH` envelopes near the request cap, ≈ 2 MiB of requests
/// and ≈ 33 MiB of answers — written in full before anything is read.
/// The server cannot write more than the kernel's buffers hold, so it
/// stops answering early; it must keep *reading*, or this client's
/// `write_all` never returns. With the send buffer shrunk the kernel
/// holds a few hundred KiB of the 2 MiB at most, so the rest really is
/// in the session's `inbuf`. (Elsewhere than Linux the buffer is left
/// alone and this is a smoke: the bound itself is argued in the
/// `server` module docs.)
#[test]
fn full_window_written_before_any_read_completes() {
    within(WATCHDOG, || {
        let (server, addr, _guard) = start("window");
        let frame = heavy_envelope();
        let mut s = connect(&addr);
        shrink_send_buffer(&s);
        for _ in 0..PIPELINE_DEPTH {
            s.write_all(&frame).unwrap();
        }
        for k in 0..PIPELINE_DEPTH {
            let resp = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap();
            assert_eq!(resp.status, Status::Ok as u16, "envelope {k}");
            assert!(resp.payload.len() > 1 << 20, "envelope {k} answer size");
            let subs = decode_batch_response(&resp.payload).unwrap();
            assert_eq!(subs.len(), MAX_BATCH_SUBS as usize);
            assert!(subs.iter().all(|r| r.status == Status::Ok as u16));
        }
        drop(s);
        stop(server);
    });
}

/// A client that asks for tens of MiB and never reads them must not be
/// able to keep the server from stopping: the session waiting to write
/// sees the flag like any other.
#[test]
fn stalled_reader_does_not_wedge_shutdown() {
    let (server, addr, _guard) = start("stalled");
    let frame = heavy_envelope();
    let mut s = connect(&addr);
    for _ in 0..PIPELINE_DEPTH {
        s.write_all(&frame).unwrap();
    }
    // Let the session fill the kernel's buffers and block on the rest.
    std::thread::sleep(Duration::from_millis(500));
    within(Duration::from_secs(10), move || stop(server));
    drop(s); // open, and unread, until the server was gone
}

/// Threads of this process, one `/proc/self/task` entry each.
fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Connection churn leaves a bounded number of threads behind: session
/// threads are reused, so however many connections come and go — one
/// after another, or in bursts past the session limit — the process never
/// holds more than its threads before the server started plus
/// `max_sessions` plus the accept thread, and after the first burst the
/// count stops growing.
///
/// Skipped off Linux: the count is read from `/proc/self/task`. The other
/// tests in this binary run servers of their own beside this one, so the
/// test re-runs itself alone in a child process and counts there.
#[test]
#[cfg_attr(
    not(target_os = "linux"),
    ignore = "reads /proc/self/task, which only Linux has"
)]
fn thread_count_stays_bounded_under_connection_churn() {
    const ALONE: &str = "TPCP_SESSION_CHURN_ALONE";
    const NAME_HERE: &str = "thread_count_stays_bounded_under_connection_churn";
    if std::env::var_os(ALONE).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", NAME_HERE, "--test-threads=1", "--nocapture"])
            .env(ALONE, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    const MAX_SESSIONS: usize = 4;
    const ROUNDS: usize = 6;
    const ONE_BY_ONE: usize = 4 * MAX_SESSIONS;
    within(WATCHDOG, || {
        let baseline = threads_now();
        let (server, addr, _guard) = start_with("churn", Some(MAX_SESSIONS));
        let bound = baseline + MAX_SESSIONS + 1;
        let mut ping = Vec::new();
        encode_frame(&mut ping, VERSION, Opcode::Ping as u8, 0, &[]);

        let mut after_first = None;
        for round in 0..ROUNDS {
            // A burst past the limit: every connection is answered — a
            // session or a Busy refusal — while all of them are open …
            let mut burst: Vec<TcpStream> = (0..MAX_SESSIONS + 2).map(|_| connect(&addr)).collect();
            let mut statuses = Vec::new();
            for s in &mut burst {
                s.write_all(&ping).unwrap();
                statuses.push(read_frame(s, MAX_RESPONSE_PAYLOAD).unwrap().status);
                assert!(
                    threads_now() <= bound,
                    "round {round}: over {bound} threads"
                );
            }
            let served = statuses
                .iter()
                .filter(|&&st| st == Status::Ok as u16)
                .count();
            let busy = statuses
                .iter()
                .filter(|&&st| st == Status::Busy as u16)
                .count();
            assert_eq!(served + busy, statuses.len(), "round {round}: {statuses:?}");
            // Later rounds may find the last one-by-one session still
            // ending, so only the first burst is sure to fill every slot.
            assert!(
                served <= MAX_SESSIONS,
                "round {round}: {served} sessions at once"
            );
            if round == 0 {
                assert_eq!(served, MAX_SESSIONS);
            }
            // … then all of them go, each once the server has closed it
            // (a refused one is closed already).
            for mut s in burst {
                let _ = s.shutdown(Shutdown::Write);
                let _ = s.read_to_end(&mut Vec::new());
            }
            // One after another, each dropped as soon as it is answered.
            // The sessions end as the server sees the drops, so on a busy
            // machine a few may still hold every slot: Busy is an answer.
            for _ in 0..ONE_BY_ONE {
                let mut s = connect(&addr);
                s.write_all(&ping).unwrap();
                let status = read_frame(&mut s, MAX_RESPONSE_PAYLOAD).unwrap().status;
                assert!(
                    status == Status::Ok as u16 || status == Status::Busy as u16,
                    "round {round}: status {status}"
                );
                drop(s);
                assert!(
                    threads_now() <= bound,
                    "round {round}: over {bound} threads"
                );
            }
            let now = threads_now();
            match after_first {
                None => after_first = Some(now),
                Some(first) => assert!(
                    now <= first,
                    "round {round}: {now} threads, {first} after the first"
                ),
            }
        }
        stop(server);
        assert!(
            threads_now() <= baseline,
            "threads left behind by the server"
        );
    });
}
