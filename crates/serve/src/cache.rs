//! The query cache: normalized request → encoded OK response payload.
//!
//! The key is `(opcode, model version, request payload)` — requests are
//! already canonical on the wire (fixed little-endian field order), so
//! the payload bytes *are* the normal form. Folding the pinned model
//! version into the key makes hot swaps self-invalidating: after a
//! reload, new sessions key on the new version and old entries age out
//! of the LRU ring without any explicit flush. No cached opcode's answer
//! depends on the frame's protocol version, so v1 and v2 frames share
//! entries.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    opcode: u8,
    version: u64,
    payload: Vec<u8>,
}

struct Inner {
    map: HashMap<Key, Vec<u8>>,
    order: VecDeque<Key>,
    cap: usize,
}

/// A bounded LRU cache of successful query responses.
pub struct QueryCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// Creates a cache holding at most `cap` responses (`cap == 0`
    /// disables caching; every lookup misses).
    pub fn new(cap: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                cap,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a cached response, refreshing its recency on a hit.
    pub fn get(&self, opcode: u8, version: u64, payload: &[u8]) -> Option<Vec<u8>> {
        let key = Key {
            opcode,
            version,
            payload: payload.to_vec(),
        };
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if let Some(resp) = inner.map.get(&key).cloned() {
            if let Some(i) = inner.order.iter().position(|k| *k == key) {
                inner.order.remove(i);
                inner.order.push_back(key);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(resp)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts a response, evicting the least-recently-used entry when
    /// full.
    pub fn put(&self, opcode: u8, version: u64, payload: &[u8], response: Vec<u8>) {
        let key = Key {
            opcode,
            version,
            payload: payload.to_vec(),
        };
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.cap == 0 || inner.map.contains_key(&key) {
            return;
        }
        while inner.map.len() >= inner.cap {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&old);
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, response);
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
}
