//! Deterministic scoped-parallelism primitives for the 2PCP workspace.
//!
//! Every layer of the stack (MTTKRP kernels, dense matrix products, the
//! Phase-1 block loop — [`par_stream`] over the grid's blocks *is* the
//! paper's Observation #1 — and the HaTen2 baseline's MapReduce engine)
//! funnels its threading through this crate, so the whole system shares
//! one thread-budget policy
//! ([`ParConfig`], overridable via the `TPCP_THREADS` environment variable)
//! and one set of determinism guarantees:
//!
//! * [`par_map_owned`] — an indexed, work-stealing map that propagates
//!   the lowest-indexed worker `Err` and surfaces worker *panics* as
//!   [`ParError::Panic`] instead of aborting the process;
//! * [`par_stream`] — a pipelined loop: the calling thread loads items
//!   into a fixed set of reused buffers while persistent workers compute,
//!   and results fold in ascending index order, with the same error and
//!   panic semantics;
//! * [`par_chunks_mut`] — disjoint partition of an output buffer: each
//!   element is written by exactly one worker, so results are bit-identical
//!   to a serial run for **any** thread count;
//! * [`par_chunks_reduce`] — fixed chunking (boundaries depend only on the
//!   input size, never on the thread count) plus an *ordered* reduction of
//!   the per-chunk accumulators, so floating-point results are bit-identical
//!   regardless of how many threads executed the chunks.
//!
//! `std::thread::scope` is used only inside this crate; at `threads == 1`
//! every primitive degenerates to a plain sequential loop over the same
//! chunk boundaries (no threads are spawned, and the arithmetic — including
//! the reduction order — is unchanged).

#![forbid(unsafe_code)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// The shared thread-budget policy.
///
/// A `ParConfig` always carries a *resolved* budget of at least one thread.
/// Construct one with [`ParConfig::auto`] (environment override, hardware
/// fallback), [`ParConfig::serial`] or [`ParConfig::with_threads`], and pass
/// it down: `TwoPcpConfig`, `AlsOptions` and `MrConfig` all embed one so the
/// driver, Phase 1, Phase 2 and the baseline's MapReduce engine draw from a
/// single budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

/// Name of the environment variable that overrides the automatic thread
/// budget (a positive integer; anything else is ignored).
pub const THREADS_ENV_VAR: &str = "TPCP_THREADS";

impl ParConfig {
    /// The automatic budget: `TPCP_THREADS` when set to a positive integer,
    /// otherwise [`std::thread::available_parallelism`] (or 1 when even that
    /// is unavailable).
    pub fn auto() -> Self {
        match env_threads() {
            Some(n) => ParConfig { threads: n },
            None => ParConfig {
                threads: hardware_threads(),
            },
        }
    }

    /// A single-threaded budget: primitives run sequentially on the calling
    /// thread (same chunking, same reduction order, no spawns).
    pub fn serial() -> Self {
        ParConfig { threads: 1 }
    }

    /// The hardware budget: [`std::thread::available_parallelism`] alone,
    /// ignoring `TPCP_THREADS`. Callers that centralise environment
    /// handling (e.g. `twopcp::EnvOverrides`) start here and layer the
    /// override themselves.
    pub fn hardware() -> Self {
        ParConfig {
            threads: hardware_threads(),
        }
    }

    /// An explicit budget of `n` threads; `0` means "decide automatically"
    /// and resolves exactly like [`ParConfig::auto`].
    pub fn with_threads(n: usize) -> Self {
        if n == 0 {
            ParConfig::auto()
        } else {
            ParConfig { threads: n }
        }
    }

    /// The resolved thread budget (always ≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This budget, clamped to serial when `work` (in whatever unit the
    /// kernel counts — flops, elements × rank, …) is below `min_work`.
    ///
    /// Fanning out is not free: a scoped region of two workers costs
    /// 60–110 µs on a 2-vCPU VM (`kernel_cell`'s fan-out table), the time
    /// of 2¹⁹–2²⁰ multiply-adds of a serial product. Every kernel should
    /// apply this before spawning; the clamp is result-neutral because the
    /// primitives are deterministic in the thread count.
    #[inline]
    #[must_use]
    pub fn clamped(&self, work: usize, min_work: usize) -> ParConfig {
        if work < min_work {
            ParConfig::serial()
        } else {
            *self
        }
    }

    /// `true` when the budget is a single thread.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::auto()
    }
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Failure of a parallel region.
#[derive(Debug)]
pub enum ParError<E> {
    /// A worker (or [`par_stream`]'s loader) returned `Err`; this is the
    /// error of the lowest-indexed failing item (deterministic regardless
    /// of scheduling).
    Worker(E),
    /// A worker panicked; the payload is converted to a message so the
    /// caller can degrade gracefully instead of unwinding the whole
    /// process.
    Panic {
        /// The panic payload, stringified when possible.
        message: String,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ParError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Worker(e) => write!(f, "worker error: {e}"),
            ParError::Panic { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for ParError<E> {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `call`, turning its `Err` into [`ParError::Worker`] and a panic
/// into [`ParError::Panic`].
fn guarded<T, E>(call: impl FnOnce() -> Result<T, E>) -> Result<T, ParError<E>> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(ParError::Worker(e)),
        Err(payload) => Err(ParError::Panic {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Runs `call(i)` for `i in 0..n`, catching panics, and collects results in
/// index order. The core of [`par_map_owned`].
fn run_indexed<T, E, G>(cfg: &ParConfig, n: usize, call: G) -> Result<Vec<T>, ParError<E>>
where
    T: Send,
    E: Send,
    G: Fn(usize) -> Result<T, E> + Sync,
{
    let guarded = |i: usize| guarded(|| call(i));

    let threads = cfg.threads().min(n.max(1));
    if threads <= 1 {
        // Sequential fast path: short-circuits at the lowest-indexed
        // failure, matching the multi-threaded error selection below.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(guarded(i)?);
        }
        return Ok(out);
    }

    /// One worker result, filled exactly once by whichever thread stole
    /// the index.
    type Slot<T, E> = Mutex<Option<Result<T, ParError<E>>>>;
    let next = AtomicUsize::new(0);
    let slots: Vec<Slot<T, E>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = guarded(i);
                *slots[i].lock().expect("par_map slot poisoned") = Some(result);
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot
            .into_inner()
            .expect("par_map slot poisoned")
            .expect("every index visited")
        {
            Ok(v) => out.push(v),
            // Slots are scanned in index order, so the first error seen is
            // the lowest-indexed one — deterministic even though workers
            // finished in arbitrary order.
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// A bounded, pipelined loop over `0..n`: `load(i, buf)` fills one of
/// `cfg.threads()` reused buffers on the calling thread, `work(i, buf)`
/// runs on as many workers, spawned once for the whole loop, and
/// `fold(result)` runs on the calling thread in ascending index order.
///
/// The calling thread loads item `i` into whichever buffer a worker has
/// just handed back, while the other workers compute — ingest overlaps
/// compute. Item `i` is loaded only once item `i − threads` has been
/// folded, so at most `threads` items are loaded but not yet folded and
/// no more than `threads` buffers ever exist (built with `B::default()`,
/// dropped when the loop returns). `load` overwrites whatever its buffer
/// held last. The fold order is fixed, so every folded value is
/// bit-identical for any thread budget. At `threads == 1` nothing is
/// spawned: one buffer, load, work and fold in turn.
///
/// # Errors
/// The lowest-indexed failure, whether `load` or `work` returned it, as
/// [`ParError::Worker`], or [`ParError::Panic`] when `work` panicked.
/// Results before it have been folded, none after it; no item past
/// `failed + threads − 1` is loaded.
pub fn par_stream<B, T, E>(
    cfg: &ParConfig,
    n: usize,
    mut load: impl FnMut(usize, &mut B) -> Result<(), E>,
    work: impl Fn(usize, &B) -> Result<T, E> + Sync,
    mut fold: impl FnMut(T),
) -> Result<(), ParError<E>>
where
    B: Default + Send,
    T: Send,
    E: Send,
{
    let guarded = |i: usize, buf: &B| guarded(|| work(i, buf));
    let threads = cfg.threads().min(n.max(1));
    if threads <= 1 {
        let mut buf = B::default();
        for i in 0..n {
            load(i, &mut buf).map_err(ParError::Worker)?;
            fold(guarded(i, &buf)?);
        }
        return Ok(());
    }

    /// A finished item: its index, its result and the buffer it borrowed.
    type Done<B, T, E> = (usize, Result<T, ParError<E>>, B);
    std::thread::scope(|scope| {
        // Both channels' calling-thread ends live in this closure: however
        // it returns, they drop before the scope joins the workers, so a
        // worker's next `recv` or `send` fails and it exits.
        let (job_tx, job_rx) = mpsc::channel::<(usize, B)>();
        let (done_tx, done_rx) = mpsc::channel::<Done<B, T, E>>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..threads {
            let (job_rx, done_tx, guarded) = (Arc::clone(&job_rx), done_tx.clone(), &guarded);
            scope.spawn(move || loop {
                let job = job_rx.lock().expect("par_stream job queue poisoned").recv();
                let Ok((i, buf)) = job else { break };
                if done_tx.send((i, guarded(i, &buf), buf)).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        let mut free: Vec<B> = (0..threads).map(|_| B::default()).collect();
        // Results that finished ahead of their turn, at `index % threads`.
        let mut ready: Vec<Option<Result<T, ParError<E>>>> = (0..threads).map(|_| None).collect();
        let (mut loaded, mut folded) = (0usize, 0usize);
        let mut load_err = None;
        loop {
            while load_err.is_none() && loaded < n.min(folded + threads) {
                let mut buf = free.pop().expect("one buffer per unfolded item");
                match load(loaded, &mut buf) {
                    Ok(()) => {
                        job_tx
                            .send((loaded, buf))
                            .expect("workers run until the job sender drops");
                        loaded += 1;
                    }
                    Err(e) => load_err = Some(e),
                }
            }
            if folded == loaded {
                break;
            }
            // Every worker holds a `done_tx` until it exits, so a closed
            // channel means all of them died outside `catch_unwind`.
            let (i, result, buf) = done_rx.recv().map_err(|_| ParError::Panic {
                message: "par_stream workers exited early".to_owned(),
            })?;
            free.push(buf);
            ready[i % threads] = Some(result);
            while let Some(result) = ready[folded % threads].take() {
                fold(result?);
                folded += 1;
            }
        }
        load_err.map_or(Ok(()), |e| Err(ParError::Worker(e)))
    })
}

/// Indexed work-stealing map over owned items.
///
/// Moves each item into exactly one `f(index, item)` call on up to
/// `cfg.threads()` scoped threads (work-stealing via an atomic cursor, so
/// uneven per-item cost balances out; the MapReduce mappers and reducers
/// consume their input this way) and returns the results in input order.
///
/// # Errors
/// The lowest-indexed worker `Err` as [`ParError::Worker`], or
/// [`ParError::Panic`] when a worker panicked — the panic is caught and
/// reported instead of unwinding through the caller.
pub fn par_map_owned<I, T, E, F>(
    cfg: &ParConfig,
    items: Vec<I>,
    f: F,
) -> Result<Vec<T>, ParError<E>>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(usize, I) -> Result<T, E> + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    run_indexed(cfg, slots.len(), |i| {
        let item = slots[i]
            .lock()
            .expect("par_map_owned item poisoned")
            .take()
            .expect("each item is taken exactly once");
        f(i, item)
    })
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and runs `f(chunk_index, chunk)` with each chunk
/// assigned to exactly one worker.
///
/// Because the chunks partition the output, every element is written by a
/// single worker and the result is **bit-identical to a serial run** for
/// any thread count. Chunks are statically assigned round-robin — use this
/// for dense kernels whose per-chunk cost is uniform. A worker panic
/// propagates to the caller (the closure is expected to be infallible).
pub fn par_chunks_mut<T, F>(cfg: &ParConfig, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_scratch(cfg, data, chunk_len, || (), |idx, chunk, ()| f(idx, chunk));
}

/// [`par_chunks_mut`] with **worker-local scratch**: each worker builds one
/// scratch value with `make_scratch` and reuses it across every chunk it
/// executes (the serial path builds exactly one).
///
/// This hoists per-chunk workspace allocations out of hot sweep loops (the
/// MTTKRP row scratch, the dimension-tree gather buffers) without touching
/// the determinism story: scratch is pure workspace — a closure must not
/// carry information from one chunk into the next through it — so the
/// chunk→worker assignment stays result-neutral and outputs remain
/// bit-identical for any thread count.
pub fn par_chunks_mut_scratch<T, S, F>(
    cfg: &ParConfig,
    data: &mut [T],
    chunk_len: usize,
    make_scratch: impl Fn() -> S + Sync,
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = cfg.threads().min(n_chunks);
    if threads <= 1 {
        let mut scratch = make_scratch();
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk, &mut scratch);
        }
        return;
    }
    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
        per_worker[idx % threads].push((idx, chunk));
    }
    std::thread::scope(|scope| {
        for worker in per_worker {
            let f = &f;
            let make_scratch = &make_scratch;
            scope.spawn(move || {
                let mut scratch = make_scratch();
                for (idx, chunk) in worker {
                    f(idx, chunk, &mut scratch);
                }
            });
        }
    });
}

/// Fixed chunking + ordered reduction over the index range `0..n_items`.
///
/// The range is cut into chunks of `chunk_size` (last one shorter); each
/// chunk gets a **fresh** accumulator from `make_acc`, is filled by
/// `work(range, &mut acc)`, and the per-chunk accumulators are folded with
/// `merge` in ascending chunk order. Chunk boundaries depend only on
/// `(n_items, chunk_size)` — never on the thread budget — and the fold
/// order is fixed, so the result is bit-identical for any thread count
/// (including 1, where the same chunked computation runs sequentially).
///
/// Use this for reductions whose floating-point result depends on
/// accumulation order (sparse MTTKRP, Gram accumulation): determinism comes
/// from fixing that order structurally, not from hoping threads race
/// benignly. A worker panic propagates to the caller.
pub fn par_chunks_reduce<A, F, M>(
    cfg: &ParConfig,
    n_items: usize,
    chunk_size: usize,
    make_acc: impl Fn() -> A + Sync,
    work: F,
    merge: M,
) -> A
where
    A: Send,
    F: Fn(Range<usize>, &mut A) + Sync,
    M: FnMut(A, A) -> A,
{
    par_chunks_reduce_scratch(
        cfg,
        n_items,
        chunk_size,
        make_acc,
        || (),
        |range, acc, ()| work(range, acc),
        merge,
    )
}

/// [`par_chunks_reduce`] with **worker-local scratch**: each worker builds
/// one scratch value and reuses it across every chunk it claims (the serial
/// path builds exactly one). Accumulators stay per-chunk — they carry the
/// results that merge in ascending chunk order — but pure workspace (the
/// sparse MTTKRP's Hadamard-row buffer) no longer re-allocates per chunk.
/// Scratch must not carry information between chunks, so the
/// work-stealing chunk→worker assignment stays result-neutral.
#[allow(clippy::too_many_arguments)]
pub fn par_chunks_reduce_scratch<A, S, F, M>(
    cfg: &ParConfig,
    n_items: usize,
    chunk_size: usize,
    make_acc: impl Fn() -> A + Sync,
    make_scratch: impl Fn() -> S + Sync,
    work: F,
    mut merge: M,
) -> A
where
    A: Send,
    S: Send,
    F: Fn(Range<usize>, &mut A, &mut S) + Sync,
    M: FnMut(A, A) -> A,
{
    if n_items == 0 {
        return make_acc();
    }
    let chunk_size = chunk_size.max(1);
    let n_chunks = n_items.div_ceil(chunk_size);
    let range_of = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(n_items);

    let threads = cfg.threads().min(n_chunks);
    if threads <= 1 {
        let mut scratch = make_scratch();
        let mut acc = make_acc();
        work(range_of(0), &mut acc, &mut scratch);
        for c in 1..n_chunks {
            let mut next = make_acc();
            work(range_of(c), &mut next, &mut scratch);
            acc = merge(acc, next);
        }
        return acc;
    }

    let next_chunk = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<A>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = make_scratch();
                loop {
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let mut acc = make_acc();
                    work(range_of(c), &mut acc, &mut scratch);
                    *slots[c].lock().expect("chunk slot poisoned") = Some(acc);
                }
            });
        }
    });

    let mut chunks = slots.into_iter().map(|s| {
        s.into_inner()
            .expect("chunk slot poisoned")
            .expect("chunk filled")
    });
    let first = chunks.next().expect("n_chunks >= 1");
    chunks.fold(first, merge)
}

/// A named, joinable background worker thread for *pipelined* side work —
/// tasks that overlap the main thread rather than fan out from it (the
/// storage layer's I/O prefetcher is the canonical user).
///
/// Unlike the scoped primitives above, a `Background` outlives the call
/// that spawned it; the closure must therefore have its own exit condition
/// (typically a disconnected channel). Dropping the handle joins the
/// thread, so a `Background` can never outlive the owner that holds it —
/// the same "no detached threads" discipline the scoped primitives
/// enforce, stretched over an object lifetime instead of a call.
///
/// A worker panic is contained: it surfaces when the owner joins (via
/// [`Background::join`]) as `Err(message)`, and is swallowed on implicit
/// drop-join (the owner is likely already unwinding).
pub struct Background {
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Background {
    /// Spawns `f` on a named OS thread.
    ///
    /// # Errors
    /// The OS-level spawn failure, if thread creation fails.
    pub fn spawn<F>(name: &str, f: F) -> std::io::Result<Background>
    where
        F: FnOnce() + Send + 'static,
    {
        let handle = std::thread::Builder::new().name(name.to_owned()).spawn(f)?;
        Ok(Background {
            handle: Some(handle),
        })
    }

    /// Waits for the worker to finish.
    ///
    /// # Errors
    /// The stringified panic payload when the worker panicked.
    pub fn join(mut self) -> Result<(), String> {
        match self.handle.take() {
            Some(handle) => handle.join().map_err(|p| panic_message(p.as_ref())),
            None => Ok(()),
        }
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // The worker's exit condition (e.g. channel disconnect) must
            // already hold by the time the owner drops us; a panic here is
            // deliberately swallowed — drop is not a reporting channel.
            let _ = handle.join();
        }
    }
}

/// Rows per [`par_chunks_mut`] chunk so that `rows` split over `threads`
/// workers evenly, rounded up to a multiple of `tile`.
///
/// The rounding hands each worker whole kernel row-tiles (e.g. the tiled
/// matmul microkernel's register-block height), so only the final chunk of
/// the final worker ever sees a ragged tile edge. Because
/// [`par_chunks_mut`] partitions the *output*, the chunk geometry is
/// result-neutral: any `(threads, tile)` pair yields bit-identical values.
pub fn tile_rows_per_chunk(rows: usize, threads: usize, tile: usize) -> usize {
    let base = rows.div_ceil(threads.max(1)).max(1);
    base.next_multiple_of(tile.max(1))
}

/// A chunk size that depends only on the input size: at least `min_chunk`
/// items per chunk, and at most `max_chunks` chunks overall.
///
/// Feeding this into [`par_chunks_reduce`] keeps chunk boundaries (and
/// therefore floating-point results) stable across thread budgets while
/// bounding both per-chunk overhead (accumulator allocation + merge) and
/// scheduling granularity.
pub fn fixed_chunk_size(n_items: usize, min_chunk: usize, max_chunks: usize) -> usize {
    min_chunk.max(1).max(n_items.div_ceil(max_chunks.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution() {
        assert_eq!(ParConfig::serial().threads(), 1);
        assert!(ParConfig::serial().is_serial());
        assert_eq!(ParConfig::with_threads(7).threads(), 7);
        assert!(ParConfig::with_threads(0).threads() >= 1);
        assert!(ParConfig::auto().threads() >= 1);
    }

    #[test]
    fn clamped_serializes_small_work_only() {
        let cfg = ParConfig::with_threads(8);
        assert!(cfg.clamped(100, 1000).is_serial());
        assert_eq!(cfg.clamped(1000, 1000).threads(), 8);
        assert_eq!(cfg.clamped(5000, 1000).threads(), 8);
    }

    #[test]
    fn par_map_owned_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        for t in [1usize, 2, 4, 7] {
            let cfg = ParConfig::with_threads(t);
            let out: Vec<usize> =
                par_map_owned(&cfg, items.clone(), |i, x| Ok::<_, ()>(i * 1000 + x * 3)).unwrap();
            let expect: Vec<usize> = (0..103).map(|i| i * 1000 + i * 3).collect();
            assert_eq!(out, expect, "threads={t}");
        }
    }

    #[test]
    fn par_map_owned_propagates_lowest_indexed_error() {
        let items: Vec<usize> = (0..64).collect();
        for t in [1usize, 4] {
            let cfg = ParConfig::with_threads(t);
            let err = par_map_owned(&cfg, items.clone(), |_, x| {
                if x % 10 == 7 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            match err {
                ParError::Worker(msg) => assert_eq!(msg, "bad 7", "threads={t}"),
                other => panic!("expected worker error, got {other:?}"),
            }
        }
    }

    #[test]
    fn par_map_owned_surfaces_worker_panic_as_error() {
        let items: Vec<usize> = (0..16).collect();
        for t in [1usize, 4] {
            let cfg = ParConfig::with_threads(t);
            let err = par_map_owned(&cfg, items.clone(), |_, x| -> Result<usize, String> {
                if x == 11 {
                    panic!("worker {x} exploded");
                }
                Ok(x)
            })
            .unwrap_err();
            match err {
                ParError::Panic { message } => {
                    assert!(message.contains("exploded"), "message: {message}")
                }
                other => panic!("expected panic error, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_err_beats_later_panic() {
        // Item 3 errors, item 9 panics: the lowest-indexed failure wins.
        let items: Vec<usize> = (0..16).collect();
        let err = par_map_owned(&ParConfig::with_threads(4), items, |_, x| {
            if x == 9 {
                panic!("later panic");
            }
            if x == 3 {
                return Err("first error");
            }
            Ok(x)
        })
        .unwrap_err();
        assert!(matches!(err, ParError::Worker("first error")));
    }

    #[test]
    fn par_stream_folds_in_order_through_reused_buffers() {
        use std::cell::Cell;
        let caller = std::thread::current().id();
        for t in [1usize, 2, 4, 7] {
            let (loads, folds, fresh) = (Cell::new(0usize), Cell::new(0usize), Cell::new(0));
            let mut out = Vec::new();
            par_stream(
                &ParConfig::with_threads(t),
                103,
                |i, buf: &mut Vec<usize>| {
                    assert_eq!(i, loads.get(), "threads={t}: load order");
                    assert!(i < folds.get() + t, "threads={t}: window");
                    fresh.set(fresh.get() + usize::from(buf.is_empty()));
                    buf.clear();
                    buf.extend([i; 3]);
                    loads.set(i + 1);
                    Ok::<_, ()>(())
                },
                |i, buf| {
                    assert_eq!(t == 1, std::thread::current().id() == caller);
                    // Uneven work, so items finish out of order.
                    std::thread::sleep(std::time::Duration::from_micros((i % 5 * 40) as u64));
                    Ok(i * 1000 + buf.iter().sum::<usize>())
                },
                |v| {
                    folds.set(folds.get() + 1);
                    out.push(v);
                },
            )
            .unwrap();
            let expect: Vec<usize> = (0..103).map(|i| i * 1000 + 3 * i).collect();
            assert_eq!(out, expect, "threads={t}");
            assert_eq!(fresh.get(), t, "threads={t}: buffers built");
        }
    }

    #[test]
    fn par_stream_reports_the_lowest_indexed_failure() {
        // (failing load, failing work) → the expected error.
        let cases = [
            (None, Some(37), "work 37"),
            (Some(50), Some(37), "work 37"),
            (Some(20), Some(37), "load 20"),
            (Some(0), None, "load 0"),
        ];
        for t in [1usize, 2, 4] {
            for (bad_load, bad_work, expect) in cases {
                let mut max_loaded = 0;
                let mut folded = Vec::new();
                let err = par_stream(
                    &ParConfig::with_threads(t),
                    64,
                    |i, _: &mut ()| {
                        max_loaded = max_loaded.max(i);
                        match bad_load {
                            Some(b) if b == i => Err(format!("load {i}")),
                            _ => Ok(()),
                        }
                    },
                    |i, ()| match bad_work {
                        Some(b) if b == i => Err(format!("work {i}")),
                        _ => Ok(i),
                    },
                    |i| folded.push(i),
                )
                .unwrap_err();
                match err {
                    ParError::Worker(msg) => assert_eq!(msg, expect, "threads={t}"),
                    other => panic!("expected worker error, got {other:?}"),
                }
                let failed: usize = expect[5..].parse().unwrap();
                assert_eq!(folded, (0..failed).collect::<Vec<_>>(), "threads={t}");
                assert!(max_loaded < failed + t, "threads={t}: loaded {max_loaded}");
            }
        }
    }

    #[test]
    fn par_stream_surfaces_worker_panic_as_error() {
        for t in [1usize, 3] {
            let err = par_stream(
                &ParConfig::with_threads(t),
                16,
                |_, _: &mut ()| Ok::<_, String>(()),
                |i, ()| {
                    if i == 11 {
                        panic!("item {i} exploded");
                    }
                    Ok(i)
                },
                |_| {},
            )
            .unwrap_err();
            assert!(
                matches!(&err, ParError::Panic { message } if message.contains("exploded")),
                "threads={t}: {err:?}"
            );
        }
    }

    #[test]
    fn par_map_owned_moves_items() {
        let items: Vec<String> = (0..20).map(|i| format!("item{i}")).collect();
        let out = par_map_owned(&ParConfig::with_threads(3), items, |i, s| {
            Ok::<_, ()>(format!("{i}:{s}"))
        })
        .unwrap();
        assert_eq!(out[13], "13:item13");
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn par_map_owned_empty_input() {
        let out: Vec<u8> =
            par_map_owned(&ParConfig::auto(), Vec::<u8>::new(), |_, x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_mut_partitions_exactly_once() {
        for t in [1usize, 2, 4, 7] {
            let mut data = vec![0u32; 97];
            par_chunks_mut(&ParConfig::with_threads(t), &mut data, 10, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + idx as u32;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, 1 + (i / 10) as u32, "threads={t}, index {i}");
            }
        }
    }

    #[test]
    fn chunks_reduce_is_identical_across_thread_counts() {
        // Sum of 1/(i+1) — floating-point, so the merge order matters; the
        // fixed chunking must make every thread count agree bitwise.
        let n = 10_000;
        let run = |threads: usize| -> f64 {
            par_chunks_reduce(
                &ParConfig::with_threads(threads),
                n,
                768,
                || 0.0f64,
                |range, acc| {
                    for i in range {
                        *acc += 1.0 / (i as f64 + 1.0);
                    }
                },
                |a, b| a + b,
            )
        };
        let reference = run(1);
        for t in [2usize, 3, 4, 7, 16] {
            assert_eq!(run(t).to_bits(), reference.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn chunks_reduce_merges_in_chunk_order() {
        // Concatenating chunk-index vectors exposes the fold order.
        let order = par_chunks_reduce(
            &ParConfig::with_threads(4),
            50,
            8,
            Vec::new,
            |range, acc: &mut Vec<usize>| acc.push(range.start / 8),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn chunks_reduce_empty_input_yields_fresh_accumulator() {
        let acc = par_chunks_reduce(
            &ParConfig::auto(),
            0,
            64,
            || 42i64,
            |_, _| unreachable!("no chunks for empty input"),
            |a, _| a,
        );
        assert_eq!(acc, 42);
    }

    #[test]
    fn background_runs_and_joins() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<u32>();
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        let worker = Background::spawn("test-worker", move || {
            // Exit condition: channel disconnect.
            let mut sum = 0;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            assert_eq!(sum, 6);
            done2.store(true, Ordering::SeqCst);
        })
        .unwrap();
        for v in [1, 2, 3] {
            tx.send(v).unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn background_join_reports_panic() {
        let worker = Background::spawn("test-panicker", || panic!("worker blew up")).unwrap();
        let err = worker.join().unwrap_err();
        assert!(err.contains("blew up"), "got {err}");
    }

    #[test]
    fn tile_rows_round_up_to_whole_tiles() {
        // Plain even split when tile = 1 (the reference kernel).
        assert_eq!(tile_rows_per_chunk(100, 4, 1), 25);
        // Rounded to the next tile multiple otherwise.
        assert_eq!(tile_rows_per_chunk(100, 4, 4), 28);
        assert_eq!(tile_rows_per_chunk(100, 3, 4), 36);
        // Degenerate guards: zero threads/tile behave like 1.
        assert_eq!(tile_rows_per_chunk(10, 0, 0), 10);
        assert_eq!(tile_rows_per_chunk(1, 8, 4), 4);
    }

    #[test]
    fn fixed_chunk_size_depends_only_on_input() {
        assert_eq!(fixed_chunk_size(100, 512, 64), 512);
        assert_eq!(fixed_chunk_size(100_000, 512, 64), 1563);
        assert_eq!(fixed_chunk_size(0, 512, 64), 512);
        // Degenerate guards.
        assert_eq!(fixed_chunk_size(10, 0, 0), 10);
    }
}
