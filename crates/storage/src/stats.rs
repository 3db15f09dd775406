//! Swap and byte accounting.

/// I/O statistics of a [`crate::BufferPool`] run.
///
/// The paper's primary evaluation metric (§VIII-C) is the number of *data
/// swaps* per virtual iteration: a swap is the fetch of one data unit from
/// disk into the buffer (when the buffer is full this implies evicting —
/// and, if dirty, writing back — another unit, which is why the paper
/// describes them as swap *operations*). `fetches` is therefore the swap
/// count; the other counters break the traffic down further.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Unit loads from the backing store (buffer misses) — the paper's
    /// "data swaps".
    pub fetches: u64,
    /// Accesses satisfied without touching the store.
    pub hits: u64,
    /// Units removed from the buffer to make room.
    pub evictions: u64,
    /// Evicted units that were dirty and had to be written back.
    pub write_backs: u64,
    /// Payload bytes read from the store.
    pub bytes_read: u64,
    /// Payload bytes written to the store.
    pub bytes_written: u64,
    /// Fetches satisfied from the asynchronous prefetch pipeline instead
    /// of a synchronous store read. A subset of `fetches`: prefetch moves
    /// bytes off the critical path, it never changes what counts as a
    /// swap.
    pub prefetch_hits: u64,
    /// Payload bytes that arrived through the prefetch pipeline and were
    /// admitted into the buffer.
    pub prefetched_bytes: u64,
    /// Wall-clock nanoseconds the consumer spent blocked on reads — the
    /// synchronous `store.read()` fallbacks plus any wait for an
    /// in-flight prefetch. This is the swap cost actually paid on the
    /// critical path; prefetch exists to shrink it.
    pub stall_ns: u64,
    /// Pages the prefetch worker read and decoded that the pool then
    /// threw away on arrival: no room in the staging area, the unit was
    /// written back after the read was issued (stale epoch), or it had
    /// become resident in the meantime. Pure waste — each one is a full
    /// page read that saved nothing, and usually a synchronous read later.
    pub prefetch_discarded: u64,
}

impl IoStats {
    /// Swaps (fetches) — the headline metric.
    pub fn swaps(&self) -> u64 {
        self.fetches
    }

    /// Hit rate in `[0, 1]`; 0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.fetches;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Critical-path read stall in milliseconds (convenience for display).
    pub fn stall_ms(&self) -> f64 {
        self.stall_ns as f64 / 1e6
    }

    /// Difference since an earlier snapshot (all counters are monotone).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            fetches: self.fetches - earlier.fetches,
            hits: self.hits - earlier.hits,
            evictions: self.evictions - earlier.evictions,
            write_backs: self.write_backs - earlier.write_backs,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            prefetched_bytes: self.prefetched_bytes - earlier.prefetched_bytes,
            stall_ns: self.stall_ns - earlier.stall_ns,
            prefetch_discarded: self.prefetch_discarded - earlier.prefetch_discarded,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "swaps={} hits={} evictions={} write_backs={} read={}B written={}B \
             prefetch_hits={} prefetched={}B discarded={} stall={:.2}ms",
            self.fetches,
            self.hits,
            self.evictions,
            self.write_backs,
            self.bytes_read,
            self.bytes_written,
            self.prefetch_hits,
            self.prefetched_bytes,
            self.prefetch_discarded,
            self.stall_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_edges() {
        let empty = IoStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let s = IoStats {
            fetches: 1,
            hits: 3,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts() {
        let early = IoStats {
            fetches: 2,
            hits: 5,
            evictions: 1,
            write_backs: 1,
            bytes_read: 100,
            bytes_written: 50,
            prefetch_hits: 1,
            prefetched_bytes: 60,
            stall_ns: 1_000,
            prefetch_discarded: 2,
        };
        let late = IoStats {
            fetches: 7,
            hits: 6,
            evictions: 3,
            write_backs: 2,
            bytes_read: 400,
            bytes_written: 90,
            prefetch_hits: 4,
            prefetched_bytes: 200,
            stall_ns: 5_000,
            prefetch_discarded: 7,
        };
        let d = late.since(&early);
        assert_eq!(d.fetches, 5);
        assert_eq!(d.hits, 1);
        assert_eq!(d.evictions, 2);
        assert_eq!(d.write_backs, 1);
        assert_eq!(d.bytes_read, 300);
        assert_eq!(d.bytes_written, 40);
        assert_eq!(d.prefetch_hits, 3);
        assert_eq!(d.prefetched_bytes, 140);
        assert_eq!(d.stall_ns, 4_000);
        assert_eq!(d.prefetch_discarded, 5);
        assert_eq!(d.swaps(), 5);
    }

    #[test]
    fn stall_ms_converts_nanoseconds() {
        let s = IoStats {
            stall_ns: 2_500_000,
            ..Default::default()
        };
        assert!((s.stall_ms() - 2.5).abs() < 1e-12);
    }
}
