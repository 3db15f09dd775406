//! Bench-side spans around calls into the layers' public functions.
//!
//! Nothing in the program is instrumented: the traced run wraps the
//! public seams ([`BlockSource`], [`UnitStore`], [`PrefetchSource`]) and
//! times the calls that cross them. Spans are kept in memory and written
//! out when the rep ends. A span's parent is the span that was open on
//! the same thread when it began; a background thread's spans have none.

use std::cell::RefCell;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use tpcp_partition::{Block, BlockSource, Grid, SourceResult};
use tpcp_schedule::UnitId;
use tpcp_storage::{PageRead, PrefetchRead, PrefetchSource, UnitData, UnitStore};

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Starts recording; spans taken before this are dropped.
pub fn start() {
    *RECORDER.lock().expect("trace recorder poisoned") = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    });
}

/// Times `f` as one span named `name`. Without [`start`] this only
/// calls `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = {
        let mut guard = RECORDER.lock().expect("trace recorder poisoned");
        guard.as_mut().map(|rec| {
            let parent = OPEN.with(|open| open.borrow().last().copied());
            rec.spans.push(Span {
                name,
                start_ns: rec.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            rec.spans.len() - 1
        })
    };
    let Some(index) = opened else {
        return f();
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    let mut guard = RECORDER.lock().expect("trace recorder poisoned");
    if let Some(rec) = guard.as_mut() {
        rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
    }
    out
}

/// The finished spans of one rep.
pub struct Trace {
    spans: Vec<Span>,
}

/// Stops recording and hands back what was recorded.
pub fn finish() -> Trace {
    let rec = RECORDER.lock().expect("trace recorder poisoned").take();
    Trace {
        spans: rec.map(|r| r.spans).unwrap_or_default(),
    }
}

/// Seconds one empty span costs, measured on a recorder of its own.
pub fn span_cost() -> f64 {
    const N: usize = 20_000;
    start();
    let t = Instant::now();
    for _ in 0..N {
        span("calibrate", || ());
    }
    let cost = t.elapsed().as_secs_f64() / N as f64;
    finish();
    cost
}

impl Trace {
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn secs(&self, pick: impl Fn(usize, &Span) -> bool) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| pick(*i, s))
            .map(|(_, s)| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .sum::<f64>()
            // The sum of no spans is -0.0.
            + 0.0
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.secs(|_, s| s.name == name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the direct children of the spans called `name`.
    pub fn children(&self, name: &str) -> f64 {
        self.secs(|_, s| s.parent.is_some_and(|p| self.spans[p].name == name))
    }

    /// A layer's self time: its spans minus what their children cover.
    pub fn self_time(&self, name: &str) -> f64 {
        self.total(name) - self.children(name)
    }

    /// Writes `[{"name","start_ns","end_ns","parent","rep"}, …]`; `parent`
    /// is an index into the same array, or null.
    pub fn write(&self, path: &Path, rep: usize) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{rep}}}{comma}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A [`BlockSource`] whose block loads are spans.
pub struct TimedSource<S>(pub S);

impl<S: BlockSource> BlockSource for TimedSource<S> {
    fn dims(&self) -> &[usize] {
        self.0.dims()
    }

    fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
        span("partition.load_block", || self.0.load_block(grid, lin))
    }

    fn bytes_loaded(&self) -> u64 {
        self.0.bytes_loaded()
    }
}

/// A [`UnitStore`] + [`PrefetchSource`] whose every transfer is a span.
/// Every trait method forwards, the defaulted ones too, so the wrapped
/// store behaves exactly as it does bare.
pub struct TimedStore<S>(pub S);

impl<S: UnitStore> UnitStore for TimedStore<S> {
    fn write(&mut self, data: &UnitData) -> tpcp_storage::Result<()> {
        span("storage.write", || self.0.write(data))
    }

    fn read(&mut self, unit: UnitId) -> tpcp_storage::Result<UnitData> {
        span("storage.read", || self.0.read(unit))
    }

    fn contains(&self, unit: UnitId) -> bool {
        self.0.contains(unit)
    }

    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.0.bytes_read()
    }

    fn shard_hint(&self, unit: UnitId) -> usize {
        self.0.shard_hint(unit)
    }

    fn read_slab(&mut self, unit: UnitId) -> tpcp_storage::Result<PageRead<'_>> {
        span("storage.read", || self.0.read_slab(unit))
    }

    fn note_borrowed_read(&mut self, unit: UnitId, payload_bytes: u64) {
        self.0.note_borrowed_read(unit, payload_bytes);
    }

    fn warm(&mut self, units: &[UnitId]) {
        span("storage.warm", || self.0.warm(units));
    }
}

struct TimedReader(Box<dyn PrefetchRead>);

impl PrefetchRead for TimedReader {
    fn read(&mut self, unit: UnitId) -> tpcp_storage::Result<UnitData> {
        span("storage.prefetch_read", || self.0.read(unit))
    }
}

impl<S: PrefetchSource> PrefetchSource for TimedStore<S> {
    fn prefetch_reader(&self) -> Option<Box<dyn PrefetchRead>> {
        let inner = self.0.prefetch_reader()?;
        Some(Box::new(TimedReader(inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        let trace = Trace {
            spans: vec![
                span("journey", 0, 10_000_000_000, None),
                span("phase1", 0, 6_000_000_000, Some(0)),
                span("partition.load_block", 0, 1_000_000_000, Some(1)),
                span(
                    "partition.load_block",
                    7_000_000_000,
                    8_000_000_000,
                    Some(4),
                ),
                span("fit", 6_000_000_000, 9_000_000_000, Some(0)),
                span("storage.prefetch_read", 1_000_000_000, 2_000_000_000, None),
            ],
        };
        assert_eq!(trace.total("partition.load_block"), 2.0);
        assert_eq!(trace.count("partition.load_block"), 2);
        assert_eq!(trace.self_time("phase1"), 5.0);
        assert_eq!(trace.children("journey"), 9.0);
    }
}
