//! The daemon: a bounded accept loop handing connections to named
//! session threads, one thread per session.
//!
//! Unix only: both loops wait in `poll(2)`, and hot reload listens for
//! SIGHUP. (The library's client and codec build anywhere; this module
//! says so instead of carrying a second, untested loop for other
//! platforms.)
//!
//! The accept loop runs on a [`tpcp_par::Background`] thread and waits on
//! the non-blocking listener for at most `IDLE_POLL`, which keeps three
//! signals on one code path: a new connection (accepted at once — the
//! wait ends when it arrives), and the two flags looked at whenever the
//! wait ends or times out — SIGHUP-triggered hot reload, and shutdown
//! (set by the SHUTDOWN opcode or [`Server::stop`]). Sessions run on std
//! threads named `tpcp-session-N`, each serving one connection at a time
//! and, when that ends, the next one the accept loop has for it — there
//! are as many threads as there were ever sessions at once (see
//! `session_thread` for why). The accept loop refuses connections past
//! `max_sessions` with a `Busy` frame instead of queueing unboundedly.
//!
//! # Pipelining
//!
//! A session is one thread over two buffers and one wait. The socket is
//! non-blocking; each turn of the loop
//!
//! 1. answers every whole frame in `inbuf`, in order, through
//!    [`Router::handle`], encoding the responses one after another into
//!    `out`;
//! 2. writes `out` once;
//! 3. waits in `poll(2)` — for input, for room to write, or both — and
//!    reads whatever has arrived into `inbuf` with one `read`.
//!
//! So a frame costs what its work costs: a lone frame is one read and one
//! write, and when a client pipelines, the frames that arrived together
//! are answered together and their responses leave in one write. What the
//! loop guarantees:
//!
//! * **Order.** Responses leave strictly in request order: one thread
//!   parses, answers and appends.
//! * **Faults.** A frame-layer fault (bad magic, unsupported version,
//!   declared length over the cap — checked before anything is
//!   allocated) is answered once, in order, after every frame before it;
//!   then the session closes, because the stream position is no longer
//!   trustworthy.
//! * **EOF.** When the peer closes or half-closes, every whole frame
//!   already received is still answered and written before the session
//!   ends; a trailing partial frame is dropped.
//! * **SHUTDOWN** is acknowledged — the response written — before the
//!   flag is set; frames behind it are not answered.
//! * **Bounded memory, no deadlock.** The session stops reading while
//!   `inbuf` holds `IN_HIGH_WATER` = [`PIPELINE_DEPTH`] ×
//!   (`MAX_REQUEST_PAYLOAD` + `HEADER_LEN`) unanswered bytes, and stops
//!   answering while `OUT_HIGH_WATER` = 64 KiB of `out` is unwritten (a
//!   response that large or larger is written from the router's `Vec`,
//!   never copied into `out`). Reading does not wait for writing: a
//!   client with at most [`PIPELINE_DEPTH`] frames in flight has at most
//!   `IN_HIGH_WATER` bytes of them unanswered, so it can always finish
//!   writing them before it reads a single response, whatever the kernel's
//!   socket buffers hold. A client that floods past that blocks in its
//!   own `write`; one that never reads stalls only its own session.
//! * **Slow frames.** A partial frame that has sat at the front of
//!   `inbuf` for `FRAME_TIMEOUT` closes the session.
//! * **Shutdown is seen** within `IDLE_POLL` in every state — idle,
//!   mid-frame, or waiting on a peer that does not read — because every
//!   wait is the same bounded `poll`.

use crate::cache::QueryCache;
use crate::metrics::Metrics;
use crate::protocol::{
    enc, frame_header, parse_frame, write_frame_versioned, Opcode, ProtoError, Status, HEADER_LEN,
    MAX_REQUEST_PAYLOAD, MIN_VERSION,
};
use crate::registry::ModelRegistry;
use crate::router::{Router, SessionState};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Default listen address when neither flag nor `TPCP_SERVE_ADDR` is set.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// The longest any loop waits before it looks at the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(250);
/// How long a session allows one frame to finish arriving.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a new connection waits for a session thread that is about to
/// finish, before a new thread is spawned for it.
const HANDOVER_GRACE: Duration = Duration::from_millis(1);
/// Most maximal request frames a session holds received-but-unanswered
/// (the pipelining in-flight bound, kept in bytes: see the module docs).
pub const PIPELINE_DEPTH: usize = 32;
/// Unanswered bytes at which a session stops reading: room for
/// [`PIPELINE_DEPTH`] frames of the largest size a request may have.
const IN_HIGH_WATER: usize = PIPELINE_DEPTH * (MAX_REQUEST_PAYLOAD as usize + HEADER_LEN);
/// What `inbuf` starts at; a window of small frames fits several times.
const IN_INITIAL: usize = 16 * 1024;
/// Unwritten bytes at which a session stops answering, and the payload
/// size from which a response is written from its own `Vec`.
const OUT_HIGH_WATER: usize = 64 * 1024;

/// Server construction options.
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Directory of `*.2pcpm` model containers.
    pub models_dir: PathBuf,
    /// Maximum concurrent sessions before `Busy` refusals.
    pub max_sessions: usize,
    /// Query-cache capacity in responses (0 disables).
    pub cache_capacity: usize,
}

impl ServeOptions {
    /// Defaults: `TPCP_SERVE_ADDR` (via [`twopcp::EnvOverrides`]) or
    /// [`DEFAULT_ADDR`], 64 sessions, 1024 cached responses.
    pub fn new(models_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: twopcp::EnvOverrides::from_env()
                .serve_addr
                .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            models_dir: models_dir.into(),
            max_sessions: 64,
            cache_capacity: 1024,
        }
    }
}

/// A running server; dropping it stops the accept loop and joins it.
pub struct Server {
    local_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<ModelRegistry>,
    accept_loop: Option<tpcp_par::Background>,
}

impl Server {
    /// Binds, loads the registry, and starts accepting in the background.
    ///
    /// # Errors
    /// Bind failure, or a model directory from which nothing loads.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let registry = Arc::new(
            ModelRegistry::open(&opts.models_dir)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?,
        );
        Server::start_with_registry(opts, registry)
    }

    /// Like [`Server::start`] with an externally constructed registry
    /// (tests and benches share one).
    pub fn start_with_registry(
        opts: ServeOptions,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        sighup::install();

        let router = Arc::new(Router {
            registry: registry.clone(),
            cache: Arc::new(QueryCache::new(opts.cache_capacity)),
            metrics: Arc::new(Metrics::new()),
        });
        let accept_shutdown = shutdown.clone();
        let max_sessions = opts.max_sessions;
        let accept_loop = tpcp_par::Background::spawn("tpcp-serve-accept", move || {
            accept_loop(listener, router, accept_shutdown, max_sessions);
        })?;

        Ok(Server {
            local_addr,
            shutdown,
            registry,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The served registry (admin access: reload without a connection).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// `true` once a SHUTDOWN request (or [`Server::stop`]) was seen.
    pub fn is_stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests a stop without a connection.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop (and its sessions) exit.
    pub fn join(mut self) -> Result<(), String> {
        match self.accept_loop.take() {
            Some(bg) => bg.join(),
            None => Ok(()),
        }
    }

    /// Waits for a SHUTDOWN opcode to stop the server, then joins.
    pub fn serve_forever(self) -> Result<(), String> {
        while !self.is_stopping() {
            std::thread::sleep(IDLE_POLL);
        }
        self.join()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(bg) = self.accept_loop.take() {
            let _ = bg.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    router: Arc<Router>,
    shutdown: Arc<AtomicBool>,
    max_sessions: usize,
) {
    let active = Arc::new(AtomicUsize::new(0));
    // A session thread without a session sends the way to reach it here.
    let (idle_tx, idle_rx) = mpsc::channel::<mpsc::Sender<TcpStream>>();
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        if sighup::pending() {
            let (count, errors) = router.registry.reload();
            eprintln!(
                "tpcp-serve: SIGHUP reload — {count} model(s), {} error(s)",
                errors.len()
            );
        }
        // A connection ends the wait at once; the two flags above are
        // looked at again when it times out at the latest.
        if wait_ready(&listener, POLLIN, IDLE_POLL) == 0 {
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::Acquire) >= max_sessions {
                    refuse_busy(stream);
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                // A thread that has finished a session takes this one, or
                // one that finishes within `HANDOVER_GRACE` — which is
                // what a client that reconnects as it disconnects meets.
                // A new thread only when all are still busy then.
                let idle = if threads.is_empty() {
                    None
                } else {
                    idle_rx.recv_timeout(HANDOVER_GRACE).ok()
                };
                let stream = match idle {
                    Some(thread) => match thread.send(stream) {
                        Ok(()) => continue,
                        Err(gone) => gone.0,
                    },
                    None => stream,
                };
                let (router, shutdown) = (router.clone(), shutdown.clone());
                let (active_there, idle_tx) = (active.clone(), idle_tx.clone());
                let spawned = std::thread::Builder::new()
                    .name(format!("tpcp-session-{}", threads.len()))
                    .spawn(move || {
                        session_thread(stream, &router, &shutdown, &active_there, &idle_tx)
                    });
                match spawned {
                    Ok(handle) => threads.push(handle),
                    Err(_) => {
                        active.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            // Out of descriptors or memory: the listener stays readable,
            // so back off instead of spinning on the same failure.
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
    // Idle threads leave when the senders queued here drop; sessions watch
    // the flag and see it within their poll interval, whatever they wait
    // for.
    drop(idle_rx);
    for h in threads {
        let _ = h.join();
    }
}

/// A session thread: serves one connection after another, and between
/// two waits for the accept loop to send the next (or to go).
///
/// Threads are reused, not spawned per connection, because the allocator
/// gives every thread that runs beside another an arena of its own and an
/// arena keeps what its largest responses needed: a client that reconnects
/// as fast as it disconnects would otherwise meet a fresh thread — and
/// leave such an arena behind — every time. This way there are as many as
/// there were ever sessions at once.
fn session_thread(
    mut stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
    active: &AtomicUsize,
    idle_tx: &mpsc::Sender<mpsc::Sender<TcpStream>>,
) {
    loop {
        Session::run(stream, router, shutdown);
        active.fetch_sub(1, Ordering::AcqRel);
        let (tx, rx) = mpsc::channel();
        if idle_tx.send(tx).is_err() {
            return;
        }
        match rx.recv() {
            Ok(next) => stream = next,
            Err(_) => return,
        }
    }
}

/// Over the session limit: answer every arriving frame's slot with one
/// `Busy` error and close. Written at [`MIN_VERSION`] so clients of any
/// protocol version can decode it.
fn refuse_busy(mut stream: TcpStream) {
    let mut payload = Vec::new();
    enc::string(&mut payload, "session limit reached");
    let _ = write_frame_versioned(&mut stream, MIN_VERSION, 0, Status::Busy as u16, &payload);
}

/// One connection: its socket, the received-but-unanswered bytes, the
/// answered-but-unwritten bytes, and the model pins.
struct Session {
    stream: TcpStream,
    /// Receive storage, all of it initialised; `inbuf[head..tail]` has
    /// arrived and is not answered yet.
    inbuf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Encoded responses in request order; then `big`, the payload of the
    /// last of them when it is `OUT_HIGH_WATER` or longer (its header ends
    /// `out`) — still the `Vec` the router built. `written` counts into
    /// the two laid end to end.
    out: Vec<u8>,
    big: Vec<u8>,
    written: usize,
    state: SessionState,
}

impl Session {
    /// The session loop; the module docs say what it guarantees.
    fn run(stream: TcpStream, router: &Router, shutdown: &AtomicBool) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let mut s = Session {
            stream,
            inbuf: vec![0; IN_INITIAL],
            head: 0,
            tail: 0,
            out: Vec::new(),
            big: Vec::new(),
            written: 0,
            state: SessionState::new(),
        };
        // The peer will send no more (it closed, or half-closed).
        let mut eof = false;
        // Nothing more will be answered: write what is owed, then go.
        let mut closing = false;
        let mut ack_shutdown = false;
        // Since when the front of `inbuf` has been part of a frame.
        let mut partial_since: Option<Instant> = None;
        while !shutdown.load(Ordering::Acquire) {
            while !closing && s.can_answer() {
                match parse_frame(&s.inbuf[s.head..s.tail], MAX_REQUEST_PAYLOAD) {
                    Ok(Some(frame)) => {
                        s.head += HEADER_LEN + frame.payload.len();
                        partial_since = None;
                        let resp = router.handle(&mut s.state, &frame);
                        // Echo the request's protocol version so v1 clients
                        // get v1 headers (and v1 bodies, chosen by the router).
                        s.push(frame.version, frame.opcode, resp.status, resp.payload);
                        (closing, ack_shutdown) = (resp.shutdown, resp.shutdown);
                    }
                    Ok(None) if eof => closing = true,
                    Ok(None) => {
                        if s.head < s.tail {
                            partial_since.get_or_insert_with(Instant::now);
                        }
                        break;
                    }
                    // A frame-layer fault: one in-order answer, then close —
                    // the stream position is no longer trustworthy.
                    Err(e) => {
                        let status = match e {
                            ProtoError::TooLarge { .. } => Status::TooLarge,
                            _ => Status::BadFrame,
                        };
                        let mut message = Vec::new();
                        enc::string(&mut message, &e.to_string());
                        s.push(MIN_VERSION, Opcode::Ping as u8, status, message);
                        closing = true;
                    }
                }
            }
            let was_full = !s.can_answer();
            if s.flush().is_err() {
                return;
            }
            let unwritten = s.out.len() + s.big.len() - s.written;
            if closing && unwritten == 0 {
                if ack_shutdown {
                    shutdown.store(true, Ordering::Release);
                }
                return;
            }
            if !closing && was_full && s.can_answer() {
                continue; // the write made room: answer on before waiting
            }

            let reading = !eof && !closing && s.tail - s.head < IN_HIGH_WATER;
            let events = if reading { POLLIN } else { 0 } | if unwritten > 0 { POLLOUT } else { 0 };
            let ready = wait_ready(&s.stream, events, IDLE_POLL);
            if partial_since.is_some_and(|since| since.elapsed() >= FRAME_TIMEOUT) {
                return;
            }
            if reading && ready & (POLLIN | POLLHUP | POLLERR) != 0 {
                match s.fill() {
                    Ok(0) => eof = true,
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            } else if ready & (POLLHUP | POLLERR) != 0 {
                return; // gone in both directions: nobody to answer
            }
        }
    }

    /// `true` while another response may be encoded: the output bound.
    fn can_answer(&self) -> bool {
        self.big.is_empty() && self.out.len() - self.written < OUT_HIGH_WATER
    }

    /// Queues one response behind those already queued.
    fn push(&mut self, version: u8, opcode: u8, status: Status, payload: Vec<u8>) {
        // Written bytes leave `out` here, so a client that always leaves a
        // little unread cannot grow it without bound.
        self.out.drain(..self.written);
        self.written = 0;
        let header = frame_header(version, opcode, status as u16, payload.len());
        self.out.extend_from_slice(&header);
        if payload.len() < OUT_HIGH_WATER {
            self.out.extend_from_slice(&payload);
        } else {
            self.big = payload;
        }
    }

    /// Writes as much of `out` + `big` as the socket takes right now — in
    /// one gathered write, when it takes it all.
    fn flush(&mut self) -> std::io::Result<()> {
        loop {
            let split = self.written.min(self.out.len());
            let (small, large) = (&self.out[split..], &self.big[self.written - split..]);
            if small.is_empty() && large.is_empty() {
                self.out.clear();
                self.big = Vec::new();
                self.written = 0;
                return Ok(());
            }
            match (&self.stream).write_vectored(&[IoSlice::new(small), IoSlice::new(large)]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One `read` into the free end of `inbuf`. The unanswered bytes move
    /// to the front first (usually there are none) and `inbuf` doubles
    /// when they fill it; the caller reads only below `IN_HIGH_WATER`, so
    /// there is room to make and `Ok(0)` can only mean end of stream.
    fn fill(&mut self) -> std::io::Result<usize> {
        if self.head > 0 {
            self.inbuf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
        }
        if self.tail == self.inbuf.len() {
            self.inbuf.resize((2 * self.tail).min(IN_HIGH_WATER), 0);
        }
        let n = (&self.stream).read(&mut self.inbuf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
}

/// Waits until `socket` is ready for one of `events`, hangs up or fails,
/// or `timeout` passes: the ready set (`POLL*` bits), 0 on timeout and on
/// an interrupting signal.
fn wait_ready(socket: &impl AsRawFd, events: i16, timeout: Duration) -> i16 {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events,
        revents: 0,
    };
    // SAFETY: `fds` points at one valid, exclusively borrowed `pollfd`
    // that outlives the call and `nfds` is 1, so the kernel reads and
    // writes only `fd`; its descriptor belongs to the `TcpStream` /
    // `TcpListener` borrowed for the whole call, so it is open and is not
    // reused meanwhile. `poll` retains nothing after it returns.
    let n = unsafe { poll(&mut fd, 1, timeout.as_millis() as i32) };
    if n > 0 {
        fd.revents
    } else {
        0
    }
}

/// Minimal SIGHUP plumbing: the handler only flips an atomic; the accept
/// loop does the actual reload outside signal context.
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static PENDING: AtomicBool = AtomicBool::new(false);
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    const SIGHUP: i32 = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sighup(_: i32) {
        PENDING.store(true, Ordering::Release);
    }

    pub fn install() {
        if !INSTALLED.swap(true, Ordering::AcqRel) {
            // SAFETY: `signal` takes a signal number and the address of an
            // `extern "C" fn(i32)`, which `on_sighup` is and, being a
            // function item, stays valid for the life of the process. The
            // handler is async-signal-safe: it performs one atomic store
            // and touches nothing else, so it may interrupt any thread at
            // any point. `INSTALLED` makes this the only call.
            unsafe {
                signal(SIGHUP, on_sighup as *const () as usize);
            }
        }
    }

    pub fn pending() -> bool {
        PENDING.swap(false, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: (client side, server side).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn wait_ready_reports_waiting_bytes_and_a_waiting_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(wait_ready(&listener, POLLIN, LONG), POLLIN);
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        assert_eq!(wait_ready(&server, POLLIN, LONG), POLLIN);
    }

    #[test]
    fn wait_ready_times_out_to_zero_when_nothing_is_waiting() {
        let (_client, server) = pair();
        let timeout = Duration::from_millis(200);
        let t = Instant::now();
        assert_eq!(wait_ready(&server, POLLIN, timeout), 0);
        let waited = t.elapsed();
        assert!(
            waited >= timeout * 3 / 4 && waited < LONG,
            "waited {waited:?} for a {timeout:?} timeout"
        );
    }

    #[test]
    fn wait_ready_reports_a_closed_peer_and_the_read_sees_its_end() {
        let (client, mut server) = pair();
        drop(client);
        let ready = wait_ready(&server, POLLIN, LONG);
        assert!(ready & (POLLIN | POLLHUP) != 0, "revents {ready:#x}");
        assert_eq!(server.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn wait_ready_reports_a_fresh_socket_writable() {
        let (client, _server) = pair();
        assert_eq!(wait_ready(&client, POLLOUT, LONG), POLLOUT);
    }
}
