//! Per-opcode service metrics: request/error counters and latency
//! histograms with power-of-two microsecond buckets.
//!
//! Bucket `b` counts latencies in `[2^(b-1), 2^b)` µs (bucket 0 is
//! `< 1 µs`), 28 buckets reaching ~2.2 minutes. Everything is lock-free
//! atomics on the hot path; the STATS opcode serialises a snapshot and
//! consumers (the bench, the smoke client) derive p50/p99 from the
//! buckets.

use crate::protocol::Opcode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets (`2^27` µs ≈ 134 s in the last one).
pub const BUCKETS: usize = 28;

/// Counters for one opcode.
#[derive(Default)]
struct OpMetrics {
    count: AtomicU64,
    errors: AtomicU64,
    total_ns: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Immutable snapshot of one opcode's counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpSnapshot {
    /// Requests handled.
    pub count: u64,
    /// Requests answered with a non-OK status.
    pub errors: u64,
    /// Summed handling time.
    pub total_ns: u64,
    /// Request payload bytes received (header bytes excluded; a BATCH's
    /// sub-requests count in its envelope's bytes, under BATCH).
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
    /// Latency histogram (log2-µs buckets).
    pub buckets: Vec<u64>,
}

impl OpSnapshot {
    /// The latency quantile `q ∈ [0, 1]` estimated from the histogram
    /// (upper edge of the bucket containing the quantile rank), in µs.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << b;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// All per-opcode metrics for one server.
#[derive(Default)]
pub struct Metrics {
    ops: [OpMetrics; Opcode::ALL.len()],
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one handled request for `op`.
    pub fn record(&self, op: Opcode, elapsed: Duration, ok: bool) {
        let m = &self.ops[index_of(op)];
        m.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.total_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        let us = elapsed.as_micros() as u64;
        let bucket = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        m.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records payload byte traffic for `op` (request bytes in, response
    /// bytes out). Kept separate from [`Metrics::record`] because BATCH
    /// sub-requests account their latency under their own opcodes but
    /// their envelope bytes under [`Opcode::Batch`].
    pub fn record_bytes(&self, op: Opcode, bytes_in: u64, bytes_out: u64) {
        let m = &self.ops[index_of(op)];
        m.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        m.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
    }

    /// Snapshots one opcode's counters.
    pub fn snapshot(&self, op: Opcode) -> OpSnapshot {
        let m = &self.ops[index_of(op)];
        OpSnapshot {
            count: m.count.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            total_ns: m.total_ns.load(Ordering::Relaxed),
            bytes_in: m.bytes_in.load(Ordering::Relaxed),
            bytes_out: m.bytes_out.load(Ordering::Relaxed),
            buckets: m
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

fn index_of(op: Opcode) -> usize {
    Opcode::ALL
        .iter()
        .position(|&o| o == op)
        .expect("opcode in ALL")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        let m = Metrics::new();
        m.record(Opcode::Ping, Duration::from_micros(0), true);
        m.record(Opcode::Ping, Duration::from_micros(1), true);
        m.record(Opcode::Ping, Duration::from_micros(3), false);
        m.record(Opcode::Ping, Duration::from_micros(1000), true);
        let s = m.snapshot(Opcode::Ping);
        assert_eq!((s.count, s.errors), (4, 1));
        assert_eq!(s.buckets[0], 1); // <1µs
        assert_eq!(s.buckets[1], 1); // [1,2)
        assert_eq!(s.buckets[2], 1); // [2,4)
        assert_eq!(s.buckets[10], 1); // [512,1024)µs
        assert_eq!(s.quantile_us(0.5), 2);
        assert_eq!(s.quantile_us(0.99), 1024);
    }

    #[test]
    fn byte_counters_accumulate_per_opcode() {
        let m = Metrics::new();
        m.record_bytes(Opcode::GetEntry, 30, 8);
        m.record_bytes(Opcode::GetEntry, 30, 8);
        m.record_bytes(Opcode::Batch, 100, 200);
        let e = m.snapshot(Opcode::GetEntry);
        assert_eq!((e.bytes_in, e.bytes_out), (60, 16));
        let b = m.snapshot(Opcode::Batch);
        assert_eq!((b.bytes_in, b.bytes_out), (100, 200));
        assert_eq!(m.snapshot(Opcode::Ping).bytes_in, 0);
    }
}
