//! The load generator: a seeded request stream, the closed-loop
//! transports (pipelined single frames, `BATCH` envelopes), the
//! informational single-frame and open-loop phases, and the bitwise
//! re-evaluation of sampled answers.

use crate::spec::{Mix, Spec, Transport, FIBER_MODE, SIMILAR_MODE, TOP_K};
use crate::stats::Latencies;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tpcp_serve::protocol::{read_frame, write_frame, MAX_RESPONSE_PAYLOAD};
use tpcp_serve::{
    decode_entry_payload, decode_fiber_payload, decode_ranked, request, BatchSub, Client, Opcode,
    Status,
};
use twopcp::Model;

/// One answer in this many is kept and re-evaluated in process.
const SAMPLE_EVERY: u64 = 64;
/// Latency samples a slice keeps (touched up front, see [`Latencies`]).
const LATENCY_CAP: usize = 1 << 18;

#[derive(Clone, Debug)]
pub enum Query {
    Entry(Vec<usize>),
    /// `GET_FIBER` along [`FIBER_MODE`] at these fixed coordinates.
    Fiber(Vec<usize>),
    /// `TOP_K` along [`FIBER_MODE`], k = [`TOP_K`].
    TopK(Vec<usize>),
    /// `SIMILAR` rows of [`SIMILAR_MODE`], k = [`TOP_K`].
    Similar(usize),
}

impl Query {
    pub fn encode(&self, model: &str) -> BatchSub {
        match self {
            Query::Entry(c) => request::entry(model, c),
            Query::Fiber(f) => request::fiber(model, FIBER_MODE, f),
            Query::TopK(f) => request::top_k(model, FIBER_MODE, f, TOP_K),
            Query::Similar(r) => request::similar(model, SIMILAR_MODE, *r, TOP_K),
        }
    }

    /// `true` when `payload` decodes to exactly what the model gives in
    /// process, bit for bit.
    pub fn answered_by(&self, model: &Model, payload: &[u8]) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let same_ranked = |a: &[(usize, f64)], b: &[(usize, f64)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        };
        match self {
            Query::Entry(c) => matches!(
                (decode_entry_payload(payload), model.entry(c)),
                (Ok(got), Ok(want)) if got.to_bits() == want.to_bits()
            ),
            Query::Fiber(f) => matches!(
                (decode_fiber_payload(payload), model.fiber(FIBER_MODE, f)),
                (Ok(got), Ok(want)) if same(&got, &want)
            ),
            Query::TopK(f) => matches!(
                (decode_ranked(payload), model.top_k(FIBER_MODE, f, TOP_K)),
                (Ok(got), Ok(want)) if same_ranked(&got, &want)
            ),
            Query::Similar(r) => matches!(
                (decode_ranked(payload), model.similar_rows(SIMILAR_MODE, *r, TOP_K)),
                (Ok(got), Ok(want)) if same_ranked(&got, &want)
            ),
        }
    }
}

/// The workload's request stream: a pure function of the seed.
pub struct Requests {
    rng: StdRng,
    dims: Vec<usize>,
    mix: Mix,
    hot: Vec<Query>,
    pub model: String,
}

impl Requests {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut r = Requests {
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            dims: spec.dims.to_vec(),
            mix: spec.mix,
            hot: Vec::new(),
            model: spec.name.to_string(),
        };
        r.hot = (0..spec.hot_keys.unwrap_or(0)).map(|_| r.fresh()).collect();
        r
    }

    pub fn coords(&mut self) -> Vec<usize> {
        let Requests { rng, dims, .. } = self;
        dims.iter().map(|&d| rng.random_range(0..d)).collect()
    }

    fn fresh(&mut self) -> Query {
        let coords = self.coords();
        let fixed = || {
            let mut f = coords.clone();
            f.remove(FIBER_MODE);
            f
        };
        let roll = self.rng.random_range(0..100u32);
        let Mix {
            entry,
            fiber,
            top_k,
        } = self.mix;
        if roll < entry {
            Query::Entry(coords)
        } else if roll < entry + fiber {
            Query::Fiber(fixed())
        } else if roll < entry + fiber + top_k {
            Query::TopK(fixed())
        } else {
            Query::Similar(coords[SIMILAR_MODE])
        }
    }

    pub fn next(&mut self) -> Query {
        if !self.hot.is_empty() && self.rng.random::<bool>() {
            let i = self.rng.random_range(0..self.hot.len());
            self.hot[i].clone()
        } else {
            self.fresh()
        }
    }
}

/// When a closed-loop slice stops issuing.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests (sub-requests count individually).
    Requests(usize),
    After(Duration),
}

impl Stop {
    /// This stop's share for one of `n` connections taking turns.
    fn split(self, n: usize) -> Stop {
        match self {
            Stop::Requests(r) => Stop::Requests(r.div_ceil(n)),
            Stop::After(d) => Stop::After(d / n as u32),
        }
    }

    fn reached(self, issued: u64, since: Instant) -> bool {
        match self {
            Stop::Requests(n) => issued >= n as u64,
            Stop::After(d) => since.elapsed() >= d,
        }
    }
}

/// What one closed-loop slice observed, summed over its connections.
pub struct Slice {
    /// Requests answered OK (sub-requests count individually).
    pub ok: u64,
    pub attempted: u64,
    /// Non-OK or missing answers, plus sampled answers that differ from
    /// the in-process evaluation.
    pub failed: u64,
    /// Time the connections spent issuing and draining, set-up excluded.
    pub elapsed: Duration,
    /// One sample per issued operation: a frame, or a whole envelope.
    pub latencies: Latencies,
}

impl Slice {
    pub fn rps(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }
}

/// Fresh connections a slice is spread over, one after another. On two
/// shared cores the rate a connection reaches depends on where the
/// scheduler happens to put its two session threads next to the client,
/// and stays there for the connection's life; a slice that is one long
/// connection measures that draw, not the server.
pub const CONNECTIONS: usize = 12;

/// A raw connection with one answered `PING` behind it: the accept loop
/// polls every 20 ms, and that wait belongs to no request.
fn connected(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    write_frame(&mut stream, Opcode::Ping as u8, 0, &[]).map_err(|e| e.to_string())?;
    read_frame(&mut stream, MAX_RESPONSE_PAYLOAD).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Runs the workload's transport until `stop` over [`CONNECTIONS`]
/// successive connections, re-evaluating the sampled answers against
/// `reference` after each.
pub fn closed_loop(
    spec: &Spec,
    reqs: &mut Requests,
    addr: &str,
    reference: &Model,
    stop: Stop,
) -> Result<Slice, String> {
    let mut slice = Slice {
        ok: 0,
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        latencies: Latencies::with_capacity(LATENCY_CAP),
    };
    let stop = stop.split(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        match spec.transport {
            Transport::Pipeline { window } => {
                let mut stream = connected(addr)?;
                pipeline(&mut stream, reqs, reference, window, stop, &mut slice)?;
            }
            Transport::Batch { subs } => {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                client.ping().map_err(|e| e.to_string())?;
                batch(&mut client, reqs, reference, subs, stop, &mut slice)?;
            }
        }
    }
    Ok(slice)
}

/// Single frames kept `window` deep on one connection, the loop of
/// `Client::pipeline` with a clock on every frame: a frame's latency runs
/// from its `write_frame` to its response.
fn pipeline(
    stream: &mut TcpStream,
    reqs: &mut Requests,
    reference: &Model,
    window: usize,
    stop: Stop,
    slice: &mut Slice,
) -> Result<(), String> {
    let mut in_flight: VecDeque<(Instant, Option<Query>)> = VecDeque::with_capacity(window);
    let mut sampled: Vec<(Query, Vec<u8>)> = Vec::new();
    let mut issued = 0u64;
    let start = Instant::now();
    loop {
        while in_flight.len() < window && !stop.reached(issued, start) {
            let query = reqs.next();
            let sub = query.encode(&reqs.model);
            let keep = issued.is_multiple_of(SAMPLE_EVERY);
            let sent = Instant::now();
            write_frame(stream, sub.opcode, 0, &sub.payload).map_err(|e| e.to_string())?;
            in_flight.push_back((sent, keep.then_some(query)));
            issued += 1;
        }
        let Some((sent, query)) = in_flight.pop_front() else {
            break;
        };
        let frame = read_frame(stream, MAX_RESPONSE_PAYLOAD).map_err(|e| e.to_string())?;
        if frame.status == Status::Ok as u16 {
            slice.latencies.push(sent.elapsed().as_nanos() as u64);
            slice.ok += 1;
            if let Some(query) = query {
                sampled.push((query, frame.payload));
            }
        } else {
            slice.failed += 1;
        }
    }
    slice.elapsed += start.elapsed();
    slice.attempted += issued;
    slice.failed += sampled
        .iter()
        .filter(|(q, payload)| !q.answered_by(reference, payload))
        .count() as u64;
    Ok(())
}

/// `BATCH` envelopes of `subs` sub-requests, one in flight. A sampled
/// envelope is checked twice afterwards: every sub re-evaluated in
/// process, and re-issued as a single frame whose bytes must match.
fn batch(
    client: &mut Client,
    reqs: &mut Requests,
    reference: &Model,
    subs: usize,
    stop: Stop,
    slice: &mut Slice,
) -> Result<(), String> {
    let mut sampled: Vec<(Vec<Query>, Vec<Vec<u8>>)> = Vec::new();
    let (mut issued, mut envelopes) = (0u64, 0u64);
    let start = Instant::now();
    while !stop.reached(issued, start) {
        let queries: Vec<Query> = (0..subs).map(|_| reqs.next()).collect();
        let encoded: Vec<BatchSub> = queries.iter().map(|q| q.encode(&reqs.model)).collect();
        issued += subs as u64;
        let sent = Instant::now();
        let answers = client.batch(&encoded).map_err(|e| e.to_string())?;
        let not_ok = answers
            .iter()
            .filter(|a| a.status != Status::Ok as u16)
            .count() as u64;
        slice.failed += not_ok;
        slice.ok += subs as u64 - not_ok;
        if not_ok == 0 {
            slice.latencies.push(sent.elapsed().as_nanos() as u64);
            if envelopes.is_multiple_of(SAMPLE_EVERY) {
                sampled.push((queries, answers.into_iter().map(|a| a.payload).collect()));
            }
        }
        envelopes += 1;
    }
    slice.elapsed += start.elapsed();
    slice.attempted += issued;
    for (queries, payloads) in &sampled {
        for (query, payload) in queries.iter().zip(payloads) {
            let sub = query.encode(&reqs.model);
            let op = Opcode::from_u8(sub.opcode).expect("built by request::*");
            let single = client.request(op, &sub.payload);
            let same_as_single = matches!(&single, Ok(bytes) if bytes == payload);
            if !(same_as_single && query.answered_by(reference, payload)) {
                slice.failed += 1;
            }
        }
    }
    Ok(())
}

/// Closed-loop single-frame round trips for `for_`: `(p50 µs, failed)`.
/// Informational — bimodal with thread placement on two shared cores.
pub fn single_rtt(client: &mut Client, reqs: &mut Requests, for_: Duration) -> (f64, u64) {
    let mut latencies = Latencies::with_capacity(LATENCY_CAP);
    let mut failed = 0u64;
    let start = Instant::now();
    while start.elapsed() < for_ {
        let sub = reqs.next().encode(&reqs.model);
        let op = Opcode::from_u8(sub.opcode).expect("built by request::*");
        let sent = Instant::now();
        match client.request(op, &sub.payload) {
            Ok(_) => latencies.push(sent.elapsed().as_nanos() as u64),
            Err(_) => failed += 1,
        }
    }
    (latencies.percentiles_us().0, failed)
}

/// What the open-loop phase observed, µs.
pub struct OpenLoop {
    pub p50_us: f64,
    pub p99_us: f64,
    /// p99 of how late the generator sent, against its schedule.
    pub late_p99_us: f64,
    pub failed: u64,
}

/// Open loop at a fixed `rate`: frame `k` is due at `k / rate` whatever
/// the server is doing, and its latency runs from that due time, so a
/// stall is charged to every request it delays. A sender thread keeps the
/// schedule; this thread reads.
pub fn open_loop(
    addr: &str,
    reqs: &mut Requests,
    rate: f64,
    for_: Duration,
) -> Result<OpenLoop, String> {
    let total = (rate * for_.as_secs_f64()) as usize;
    let frames: Vec<BatchSub> = (0..total)
        .map(|_| reqs.next().encode(&reqs.model))
        .collect();
    let mut read_half = connected(addr)?;
    let mut write_half = read_half.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut latencies = Latencies::with_capacity(total);
    let mut failed = 0u64;
    let mut lateness = std::thread::scope(|scope| -> Result<Latencies, String> {
        let sender = scope.spawn(move || -> Result<Latencies, String> {
            let mut lateness = Latencies::with_capacity(total);
            for (k, frame) in frames.iter().enumerate() {
                let wait = due(k).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                lateness.push(Instant::now().saturating_duration_since(due(k)).as_nanos() as u64);
                write_frame(&mut write_half, frame.opcode, 0, &frame.payload)
                    .map_err(|e| e.to_string())?;
            }
            Ok(lateness)
        });
        for k in 0..total {
            match read_frame(&mut read_half, MAX_RESPONSE_PAYLOAD) {
                Ok(f) if f.status == Status::Ok as u16 => latencies
                    .push(Instant::now().saturating_duration_since(due(k)).as_nanos() as u64),
                Ok(_) => failed += 1,
                Err(e) => return Err(e.to_string()),
            }
        }
        sender.join().map_err(|_| "open-loop sender panicked")?
    })?;
    let (p50_us, p99_us, _) = latencies.percentiles_us();
    Ok(OpenLoop {
        p50_us,
        p99_us,
        late_p99_us: lateness.percentiles_us().1,
        failed,
    })
}
