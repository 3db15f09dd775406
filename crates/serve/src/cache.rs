//! The query cache: normalized request → encoded OK response payload.
//!
//! The key is the bytes `[opcode | model version (u64 LE) | request
//! payload]` — requests are already canonical on the wire (fixed
//! little-endian field order), so the payload bytes *are* the normal
//! form. Folding the pinned model version into the key makes hot swaps
//! self-invalidating: after a reload, new sessions key on the new version
//! and old entries age out of the LRU without any explicit flush. No
//! cached opcode's answer depends on the frame's protocol version, so v1
//! and v2 frames share entries.
//!
//! The LRU is exact and O(1) per call: a slab of nodes doubly linked by
//! index in recency order, and a `HashMap` from key bytes to slab index.
//! A lookup builds its key in a scratch buffer kept under the lock, so a
//! hit allocates nothing but the clone of its response. An insert
//! allocates one key and, once the cache is full, reuses the evicted node
//! in place.
//!
//! Two bounds hold at once: at most `cap` entries, and at most
//! `BYTE_BUDGET` (64 MiB) of resident response bytes. An insert evicts
//! from the least-recent end until both hold; an answer larger than the
//! whole budget is not cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The most response bytes the cache keeps resident, whatever its cap.
const BYTE_BUDGET: usize = 64 << 20;

/// The null link.
const NIL: usize = usize::MAX;

struct Node {
    /// This entry's key bytes, kept to unmap it on eviction.
    key: Vec<u8>,
    response: Vec<u8>,
    /// Neighbour towards the least-recent end.
    older: usize,
    /// Neighbour towards the most-recent end.
    newer: usize,
}

struct Inner {
    map: HashMap<Vec<u8>, usize>,
    slab: Vec<Node>,
    /// Slab slots of evicted nodes, reused by the next inserts.
    free: Vec<usize>,
    /// Least- and most-recently used nodes (`NIL` when empty).
    oldest: usize,
    newest: usize,
    /// Resident response bytes.
    bytes: usize,
    cap: usize,
    /// The key being looked up or inserted.
    scratch: Vec<u8>,
}

impl Inner {
    fn set_key(&mut self, opcode: u8, version: u64, payload: &[u8]) {
        self.scratch.clear();
        self.scratch.push(opcode);
        self.scratch.extend_from_slice(&version.to_le_bytes());
        self.scratch.extend_from_slice(payload);
    }

    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slab[i].older, self.slab[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slab[n].older = older,
        }
    }

    fn push_newest(&mut self, i: usize) {
        self.slab[i].older = self.newest;
        self.slab[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slab[n].newer = i,
        }
        self.newest = i;
    }

    /// Drops the least-recently-used entry; its slot (and key buffer)
    /// waits on the free list.
    fn evict_oldest(&mut self) {
        let i = self.oldest;
        self.unlink(i);
        let node = &mut self.slab[i];
        self.map.remove(node.key.as_slice());
        self.bytes -= node.response.len();
        node.response = Vec::new();
        self.free.push(i);
    }
}

/// A bounded LRU cache of successful query responses.
pub struct QueryCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// Creates a cache holding at most `cap` responses, and at most
    /// 64 MiB of them (`cap == 0` disables caching; every lookup misses).
    pub fn new(cap: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                oldest: NIL,
                newest: NIL,
                bytes: 0,
                cap,
                scratch: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a cached response, refreshing its recency on a hit.
    pub fn get(&self, opcode: u8, version: u64, payload: &[u8]) -> Option<Vec<u8>> {
        let mut guard = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *guard;
        inner.set_key(opcode, version, payload);
        let Some(&i) = inner.map.get(inner.scratch.as_slice()) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if i != inner.newest {
            inner.unlink(i);
            inner.push_newest(i);
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(inner.slab[i].response.clone())
    }

    /// Inserts a response, evicting least-recently-used entries until
    /// both the entry cap and the byte budget hold. A key already
    /// resident keeps its entry and its recency.
    pub fn put(&self, opcode: u8, version: u64, payload: &[u8], response: Vec<u8>) {
        let mut guard = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *guard;
        if inner.cap == 0 || response.len() > BYTE_BUDGET {
            return;
        }
        inner.set_key(opcode, version, payload);
        if inner.map.contains_key(inner.scratch.as_slice()) {
            return;
        }
        while inner.map.len() >= inner.cap || inner.bytes + response.len() > BYTE_BUDGET {
            inner.evict_oldest();
        }
        inner.bytes += response.len();
        let i = match inner.free.pop() {
            Some(i) => {
                let node = &mut inner.slab[i];
                node.key.clear();
                node.key.extend_from_slice(&inner.scratch);
                node.response = response;
                i
            }
            None => {
                inner.slab.push(Node {
                    key: inner.scratch.clone(),
                    response,
                    older: NIL,
                    newer: NIL,
                });
                inner.slab.len() - 1
            }
        };
        inner.push_newest(i);
        inner.map.insert(inner.scratch.clone(), i);
    }

    /// `(hits, misses, resident entries)` counters for STATS.
    pub fn counters(&self) -> (u64, u64, u64) {
        let len = self.inner.lock().expect("cache lock poisoned").map.len() as u64;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::VecDeque;

    #[test]
    fn hit_miss_and_lru_eviction() {
        let c = QueryCache::new(2);
        assert!(c.get(1, 0, b"a").is_none());
        c.put(1, 0, b"a", vec![1]);
        c.put(1, 0, b"b", vec![2]);
        assert_eq!(c.get(1, 0, b"a"), Some(vec![1])); // refreshes "a"
        c.put(1, 0, b"c", vec![3]); // evicts "b", the LRU
        assert!(c.get(1, 0, b"b").is_none());
        assert_eq!(c.get(1, 0, b"a"), Some(vec![1]));
        assert_eq!(c.get(1, 0, b"c"), Some(vec![3]));
        let (hits, misses, len) = c.counters();
        assert_eq!((hits, misses, len), (3, 2, 2));
    }

    #[test]
    fn version_partitions_the_key_space() {
        let c = QueryCache::new(8);
        c.put(1, 1, b"q", vec![1]);
        assert!(c.get(1, 2, b"q").is_none());
        assert_eq!(c.get(1, 1, b"q"), Some(vec![1]));
    }

    /// The cache before it was O(1): a linear-scan LRU over a `VecDeque`
    /// of `(key bytes, response)`, least recent first.
    struct NaiveLru {
        order: VecDeque<(Vec<u8>, Vec<u8>)>,
        cap: usize,
        hits: u64,
        misses: u64,
    }

    impl NaiveLru {
        fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
            match self.order.iter().position(|(k, _)| k == key) {
                Some(i) => {
                    let entry = self.order.remove(i).expect("position is in range");
                    let resp = entry.1.clone();
                    self.order.push_back(entry);
                    self.hits += 1;
                    Some(resp)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn put(&mut self, key: Vec<u8>, resp: Vec<u8>) {
            if self.cap == 0 || self.order.iter().any(|(k, _)| *k == key) {
                return;
            }
            if self.order.len() >= self.cap {
                self.order.pop_front();
            }
            self.order.push_back((key, resp));
        }
    }

    /// The cache's resident keys, least recent first, walked through the
    /// links; also checks the map and the byte total agree with them.
    fn resident(c: &QueryCache) -> Vec<Vec<u8>> {
        let inner = c.inner.lock().unwrap();
        let (mut keys, mut bytes, mut i) = (Vec::new(), 0, inner.oldest);
        while i != NIL {
            let node = &inner.slab[i];
            assert_eq!(inner.map.get(node.key.as_slice()), Some(&i));
            keys.push(node.key.clone());
            bytes += node.response.len();
            i = node.newer;
        }
        assert_eq!(keys.len(), inner.map.len());
        assert_eq!(bytes, inner.bytes);
        keys
    }

    #[test]
    fn matches_a_naive_lru_step_for_step() {
        for cap in [0, 1, 2, 7, 64] {
            let mut rng = StdRng::seed_from_u64(0x1c0 + cap as u64);
            let c = QueryCache::new(cap);
            let mut naive = NaiveLru {
                order: VecDeque::new(),
                cap,
                hits: 0,
                misses: 0,
            };
            for step in 0..12_000 {
                // Payloads from a pool a little wider than the largest
                // cap, each under two opcodes and two model versions.
                let opcode = [3u8, 5][rng.random_range(0usize..2)];
                let version = rng.random_range(1u64..3);
                let payload = [rng.random_range(0u8..80), 0x5a];
                let mut key = vec![opcode];
                key.extend_from_slice(&version.to_le_bytes());
                key.extend_from_slice(&payload);
                if rng.random_range(0u32..2) == 0 {
                    let got = c.get(opcode, version, &payload);
                    assert_eq!(got, naive.get(&key), "cap {cap} step {step} get");
                } else {
                    let resp = vec![payload[0]; rng.random_range(1usize..5)];
                    c.put(opcode, version, &payload, resp.clone());
                    naive.put(key, resp);
                }
                let want: Vec<Vec<u8>> = naive.order.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(resident(&c), want, "cap {cap} step {step} resident set");
                let len = naive.order.len() as u64;
                assert_eq!(c.counters(), (naive.hits, naive.misses, len), "cap {cap}");
            }
        }
    }

    #[test]
    fn resident_bytes_stay_under_the_budget() {
        let c = QueryCache::new(1024);
        let mib = 1 << 20;
        for i in 0..200u32 {
            c.put(4, 1, &i.to_le_bytes(), vec![i as u8; mib]);
            assert!(c.inner.lock().unwrap().bytes <= BYTE_BUDGET);
        }
        let (_, _, len) = c.counters();
        assert_eq!(len as usize, BYTE_BUDGET / mib);
        for i in 200 - len as u32..200 {
            assert!(c.get(4, 1, &i.to_le_bytes()).is_some(), "newest {i}");
        }
        assert!(c.get(4, 1, &0u32.to_le_bytes()).is_none());
        // An answer over the whole budget is never resident.
        c.put(4, 1, b"huge", vec![0; BYTE_BUDGET + 1]);
        assert!(c.get(4, 1, b"huge").is_none());
        assert_eq!(resident(&c).len(), len as usize);
    }
}
