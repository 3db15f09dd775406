//! Property-based tests: the buffer pool against a reference model, and
//! codec roundtrips under arbitrary payload shapes.

use proptest::prelude::*;
use std::collections::HashMap;
use tpcp_linalg::Mat;
use tpcp_schedule::{AccessSequence, UnitId};
use tpcp_storage::{
    codec, BufferPool, DiskStore, MemStore, PageRead, PolicyKind, PrefetchConfig, PrefetchSource,
    ShardedStore, StorageError, UnitData, UnitStore,
};

fn unit_data(part: usize, rows: usize, value: f64) -> UnitData {
    UnitData {
        unit: UnitId::new(0, part),
        factor: Mat::filled(rows, 2, value),
        sub_factors: vec![(part as u64, Mat::filled(1, 2, value + 0.5))],
    }
}

/// What a touch does to the unit while it holds it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutate {
    No,
    /// Replace the whole unit through `get_mut` (a whole-unit write-back).
    Whole,
    /// Overwrite the factor through `get_factor_mut` (a factor-only one).
    Factor,
}

/// One step of a random pool workload.
#[derive(Clone, Debug)]
enum Op {
    /// Acquire, optionally mutate (making the unit dirty), release.
    Touch { part: usize, mutate: Mutate },
    /// Flush all dirty entries.
    Flush,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..6, 0usize..3).prop_map(|(part, m)| Op::Touch {
                part,
                mutate: [Mutate::No, Mutate::Whole, Mutate::Factor][m],
            }),
            Just(Op::Flush),
        ],
        1..60,
    )
}

/// Applies `how` to resident unit `part`, leaving `version` in its factor.
fn apply<S: UnitStore>(pool: &mut BufferPool<'_, S>, part: usize, how: Mutate, version: f64) {
    let id = UnitId::new(0, part);
    match how {
        Mutate::No => {}
        Mutate::Whole => *pool.get_mut(id).unwrap() = unit_data(part, 3, version),
        Mutate::Factor => {
            let (factor, _) = pool.get_factor_mut(id).unwrap();
            factor.as_mut_slice().fill(version);
        }
    }
}

proptest! {
    /// Under any workload and policy, the pool (a) never exceeds its
    /// capacity after an operation, (b) always returns the latest written
    /// value, and (c) leaves the store holding exactly the latest values
    /// after a final flush — i.e. caching is semantically invisible.
    #[test]
    fn pool_is_semantically_invisible(
        ops in ops(),
        policy_idx in 0usize..3,
        capacity_units in 1usize..7,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let mut store = MemStore::new();
        for part in 0..6 {
            store.write(&unit_data(part, 3, part as f64)).unwrap();
        }
        let unit_bytes = unit_data(0, 3, 0.0).payload_bytes();
        let mut pool = BufferPool::new(store, unit_bytes * capacity_units, policy);

        // Reference model: latest value per unit.
        let mut model: HashMap<usize, f64> = (0..6).map(|p| (p, p as f64)).collect();
        let mut version = 100.0;

        for op in &ops {
            match op {
                Op::Touch { part, mutate } => {
                    let id = UnitId::new(0, *part);
                    pool.acquire(&[id]).unwrap();
                    let expect = model[part];
                    let got = pool.get(id).unwrap().factor.get(0, 0);
                    prop_assert_eq!(got, expect, "stale read of unit {}", part);
                    if *mutate != Mutate::No {
                        version += 1.0;
                        apply(&mut pool, *part, *mutate, version);
                        model.insert(*part, version);
                    }
                    pool.release(&[id]);
                }
                Op::Flush => pool.flush().unwrap(),
            }
            prop_assert!(
                pool.used_bytes() <= pool.capacity(),
                "capacity exceeded: {} > {}",
                pool.used_bytes(),
                pool.capacity()
            );
            prop_assert!(pool.resident_len() <= capacity_units);
        }

        // Final flush: the store must hold exactly the model.
        pool.flush_and_clear().unwrap();
        let mut store = pool.into_store().unwrap();
        for (part, expect) in model {
            let got = store.read(UnitId::new(0, part)).unwrap().factor.get(0, 0);
            prop_assert_eq!(got, expect, "store lost write to unit {}", part);
        }
    }

    /// Accounting identity: every access is either a hit or a fetch, and
    /// evictions never exceed fetches.
    #[test]
    fn pool_accounting_identities(
        parts in proptest::collection::vec(0usize..5, 1..40),
        policy_idx in 0usize..3,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let mut store = MemStore::new();
        for part in 0..5 {
            store.write(&unit_data(part, 2, part as f64)).unwrap();
        }
        let unit_bytes = unit_data(0, 2, 0.0).payload_bytes();
        let mut pool = BufferPool::new(store, unit_bytes * 2, policy);
        for &part in &parts {
            let id = UnitId::new(0, part);
            pool.acquire(&[id]).unwrap();
            pool.release(&[id]);
        }
        let s = pool.stats();
        prop_assert_eq!(s.hits + s.fetches, parts.len() as u64);
        prop_assert!(s.evictions <= s.fetches);
        prop_assert_eq!(s.write_backs, 0, "no mutation => no write-backs");
        prop_assert_eq!(s.bytes_read, s.fetches * unit_bytes as u64);
    }

    /// The page codec roundtrips arbitrary unit shapes exactly.
    #[test]
    fn codec_roundtrips_arbitrary_units(
        mode in 0usize..4,
        part in 0usize..100,
        rows in 0usize..6,
        cols in 0usize..6,
        subs in proptest::collection::vec((0u64..64, 1usize..4, 1usize..4), 0..5),
        seed in -100.0f64..100.0,
    ) {
        let data = UnitData {
            unit: UnitId::new(mode, part),
            factor: Mat::filled(rows, cols, seed),
            sub_factors: subs
                .iter()
                .map(|&(b, r, c)| (b, Mat::filled(r, c, seed * 0.5)))
                .collect(),
        };
        let page = codec::encode(&data);
        let back = codec::decode(&page).unwrap();
        prop_assert_eq!(back.unit, data.unit);
        prop_assert_eq!(back.factor, data.factor);
        prop_assert_eq!(back.sub_factors, data.sub_factors);
    }

    /// The prefetch pipeline is semantically invisible: under any random
    /// touch/mutate/flush workload over a real on-disk store, a pool with
    /// an *oracle-accurate* prefetch sequence returns exactly the same
    /// values, produces the same swap/hit/eviction counts, and leaves the
    /// same bytes in the store as a pool without prefetch.
    #[test]
    fn prefetch_is_semantically_invisible(
        ops in ops(),
        policy_idx in 0usize..3,
        capacity_units in 1usize..7,
        depth in 1usize..6,
    ) {
        /// Replays the exact upcoming touch stream — the honest analogue
        /// of phase 2's deterministic schedule.
        struct TouchScript(Vec<UnitId>);
        impl AccessSequence for TouchScript {
            fn units_at(&self, pos: u64) -> Vec<UnitId> {
                match self.0.get(pos as usize) {
                    Some(u) => vec![*u],
                    None => Vec::new(),
                }
            }
        }

        let policy = PolicyKind::ALL[policy_idx];
        let touches: Vec<UnitId> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Touch { part, .. } => Some(UnitId::new(0, *part)),
                Op::Flush => None,
            })
            .collect();
        let script = TouchScript(touches);

        let dir = std::env::temp_dir().join(format!(
            "tpcp_prop_prefetch_{}_{}",
            std::process::id(),
            std::thread::current().name().map(str::to_owned).unwrap_or_default().len(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let unit_bytes = unit_data(0, 3, 0.0).payload_bytes();
        let run = |prefetch: bool, tag: &str| -> (Vec<f64>, u64, u64, u64, u64, Vec<f64>) {
            let mut store = DiskStore::open(dir.join(tag)).unwrap();
            for part in 0..6 {
                store.write(&unit_data(part, 3, part as f64)).unwrap();
            }
            let mut pool = BufferPool::new(store, unit_bytes * capacity_units, policy);
            if prefetch {
                pool = pool.with_prefetch(&script, PrefetchConfig::with_depth(depth));
                assert!(pool.prefetch_active());
            }
            let mut observed = Vec::new();
            let mut version = 100.0;
            let mut pos = 0u64;
            for op in &ops {
                match op {
                    Op::Touch { part, mutate } => {
                        let id = UnitId::new(0, *part);
                        pool.set_position(pos);
                        pos += 1;
                        pool.acquire(&[id]).unwrap();
                        observed.push(pool.get(id).unwrap().factor.get(0, 0));
                        if *mutate != Mutate::No {
                            version += 1.0;
                            apply(&mut pool, *part, *mutate, version);
                        }
                        pool.release(&[id]);
                    }
                    Op::Flush => pool.flush().unwrap(),
                }
            }
            pool.flush_and_clear().unwrap();
            let s = pool.stats();
            let mut store = pool.into_store().unwrap();
            let finals: Vec<f64> = (0..6)
                .map(|p| store.read(UnitId::new(0, p)).unwrap().factor.get(0, 0))
                .collect();
            (observed, s.fetches, s.hits, s.evictions, s.write_backs, finals)
        };

        let off = run(false, "off");
        let on = run(true, "on");
        prop_assert_eq!(&off.0, &on.0, "observed values diverged");
        prop_assert_eq!(off.1, on.1, "swap counts diverged");
        prop_assert_eq!(off.2, on.2, "hits diverged");
        prop_assert_eq!(off.3, on.3, "evictions diverged");
        prop_assert_eq!(off.4, on.4, "write-backs diverged");
        prop_assert_eq!(&off.5, &on.5, "final store contents diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single-byte corruption of a page is detected — for the current
    /// v2 slab layout and legacy v1 pages alike.
    #[test]
    fn codec_detects_any_single_byte_flip(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        v1 in any::<bool>(),
    ) {
        let data = unit_data(3, 4, 7.0);
        let mut page = if v1 {
            codec::encode_v1(&data)
        } else {
            codec::encode(&data)
        };
        let pos = ((page.len() - 1) as f64 * pos_frac) as usize;
        page[pos] ^= 1 << bit;
        prop_assert!(codec::decode(&page).is_err(), "flip at {pos} undetected");
    }

    /// Any truncation of a page is detected (the checksum trailer moves or
    /// vanishes, so no prefix can validate).
    #[test]
    fn codec_detects_any_truncation(
        cut_frac in 0.0f64..1.0,
        v1 in any::<bool>(),
    ) {
        let data = unit_data(2, 3, -4.5);
        let page = if v1 {
            codec::encode_v1(&data)
        } else {
            codec::encode(&data)
        };
        let cut = ((page.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(codec::decode(&page[..cut]).is_err(), "cut to {cut} undetected");
    }

    /// Pages written in the legacy v1 layout decode bit-identically to
    /// their v2 re-encoding under the current reader, for arbitrary unit
    /// shapes.
    #[test]
    fn codec_v1_pages_decode_identically(
        mode in 0usize..4,
        part in 0usize..100,
        rows in 0usize..6,
        cols in 0usize..6,
        subs in proptest::collection::vec((0u64..64, 1usize..4, 1usize..4), 0..5),
        seed in -100.0f64..100.0,
    ) {
        let data = UnitData {
            unit: UnitId::new(mode, part),
            factor: Mat::filled(rows, cols, seed),
            sub_factors: subs
                .iter()
                .map(|&(b, r, c)| (b, Mat::filled(r, c, seed * 0.5)))
                .collect(),
        };
        let from_v1 = codec::decode(&codec::encode_v1(&data)).unwrap();
        let from_v2 = codec::decode(&codec::encode(&data)).unwrap();
        prop_assert_eq!(&from_v1, &data);
        prop_assert_eq!(&from_v1, &from_v2);
    }

    /// The unrolled 8-bytes-per-iteration `fnv1a` is pinned bit-identical
    /// to the byte-at-a-time reference implementation for arbitrary input
    /// (lengths straddle every chunk/remainder boundary).
    #[test]
    fn fnv1a_matches_byte_at_a_time_reference(
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        fn reference(data: &[u8]) -> u64 {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in data {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash
        }
        prop_assert_eq!(codec::fnv1a(&data), reference(&data));
    }

    /// The mmap read path moves bytes, never values: an mmap-backed disk
    /// store run through a random pool workload observes and persists
    /// exactly what the buffered run does, counter for counter.
    #[test]
    fn mmap_pool_runs_match_buffered_runs(
        ops in ops(),
        policy_idx in 0usize..3,
        capacity_units in 1usize..7,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let dir = std::env::temp_dir().join(format!(
            "tpcp_prop_mmap_{}_{}",
            std::process::id(),
            std::thread::current().name().map(str::to_owned).unwrap_or_default().len(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let unit_bytes = unit_data(0, 3, 0.0).payload_bytes();

        let run = |mmap: bool, tag: &str| -> (Vec<f64>, tpcp_storage::IoStats, Vec<f64>) {
            let mut store = DiskStore::open_with(dir.join(tag), mmap).unwrap();
            for part in 0..6 {
                store.write(&unit_data(part, 3, part as f64)).unwrap();
            }
            let mut pool = BufferPool::new(store, unit_bytes * capacity_units, policy);
            let mut observed = Vec::new();
            let mut version = 100.0;
            for op in &ops {
                match op {
                    Op::Touch { part, mutate } => {
                        let id = UnitId::new(0, *part);
                        pool.acquire(&[id]).unwrap();
                        observed.push(pool.get(id).unwrap().factor.get(0, 0));
                        if *mutate != Mutate::No {
                            version += 1.0;
                            apply(&mut pool, *part, *mutate, version);
                        }
                        pool.release(&[id]);
                    }
                    Op::Flush => pool.flush().unwrap(),
                }
            }
            pool.flush_and_clear().unwrap();
            let stats = pool.stats();
            let mut store = pool.into_store().unwrap();
            let finals: Vec<f64> = (0..6)
                .map(|p| store.read(UnitId::new(0, p)).unwrap().factor.get(0, 0))
                .collect();
            (observed, stats, finals)
        };

        let off = run(false, "off");
        let on = run(true, "on");
        prop_assert_eq!(&off.0, &on.0, "observed values diverged");
        prop_assert_eq!(off.1.fetches, on.1.fetches, "swap counts diverged");
        prop_assert_eq!(off.1.hits, on.1.hits);
        prop_assert_eq!(off.1.evictions, on.1.evictions);
        prop_assert_eq!(off.1.write_backs, on.1.write_backs);
        prop_assert_eq!(off.1.bytes_read, on.1.bytes_read, "byte accounting diverged");
        prop_assert_eq!(off.1.bytes_written, on.1.bytes_written);
        prop_assert_eq!(off.1.borrowed_reads, 0, "buffered run must not borrow");
        // A page is borrowed from the map for as long as it is the whole
        // unit; a factor-only write-back ends that (the store overlays the
        // factor file itself), a whole-unit one restores it.
        let factor_writes = ops.iter().any(|op| {
            matches!(op, Op::Touch { mutate: Mutate::Factor, .. })
        });
        if cfg!(unix) && !factor_writes {
            prop_assert_eq!(
                on.1.borrowed_reads, on.1.fetches,
                "every mmap fetch of a whole page must take the borrowed-slab path"
            );
        }
        prop_assert!(on.1.borrowed_reads <= on.1.fetches);
        prop_assert_eq!(&off.2, &on.2, "final store contents diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every store is a store of record under any interleaving of whole
    /// writes, factor-only writes and reads: `MemStore`, `DiskStore`
    /// (buffered and mmap), a fresh `DiskStore` over the same directory
    /// and `ShardedStore` all read back what a plain map of whole units
    /// would — through `read`, `read_slab` and the prefetch reader alike.
    #[test]
    fn stores_of_record_agree_under_any_write_interleaving(
        ops in proptest::collection::vec((0usize..3, 0usize..4), 1..40),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tpcp_prop_record_{}_{}",
            std::process::id(),
            std::thread::current().name().map(str::to_owned).unwrap_or_default().len(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        check_store_of_record(MemStore::new(), &ops);
        check_store_of_record(ShardedStore::mem(3), &ops);
        for mmap in [false, true] {
            let at = dir.join(format!("disk_{mmap}"));
            let model = check_store_of_record(DiskStore::open_with(&at, mmap).unwrap(), &ops);
            // What was written survives the instance, whichever way the
            // next one reads.
            let mut second = DiskStore::open_with(&at, !mmap).unwrap();
            for (id, expect) in &model {
                prop_assert_eq!(&second.read(*id).unwrap(), expect, "re-opened store");
            }
        }
        let mut sharded = ShardedStore::open_disk(dir.join("sharded"), 3).unwrap();
        sharded.set_mmap(true);
        check_store_of_record(sharded, &ops);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Drives `store` through `ops` (`(kind, part)`: 0 = whole write, 1 =
/// factor-only write, 2 = read) next to a map of whole units — the store
/// of record it must be indistinguishable from — comparing every read
/// path after every step. Returns the map.
fn check_store_of_record<S: UnitStore + PrefetchSource>(
    mut store: S,
    ops: &[(usize, usize)],
) -> HashMap<UnitId, UnitData> {
    let mut model: HashMap<UnitId, UnitData> = HashMap::new();
    let mut reader = store.prefetch_reader();
    for (step, &(kind, part)) in ops.iter().enumerate() {
        let id = UnitId::new(0, part);
        let version = 10.0 + step as f64;
        match kind {
            0 => {
                let data = unit_data(part, 3, version);
                store.write(&data).unwrap();
                model.insert(id, data);
            }
            1 => {
                // A factor-only write is defined for stored units only.
                if let Some(data) = model.get_mut(&id) {
                    data.factor.as_mut_slice().fill(version);
                    let written = store.write_factor(data).unwrap() as usize;
                    prop_assert!(
                        written == data.factor.payload_bytes() || written == data.payload_bytes()
                    );
                }
            }
            _ => {}
        }
        let expect = model.get(&id);
        match store.read(id) {
            Ok(got) => prop_assert_eq!(Some(&got), expect, "read, step {}", step),
            Err(StorageError::NotFound(_)) => prop_assert!(expect.is_none()),
            Err(e) => panic!("read failed at step {step}: {e}"),
        }
        let slab = match store.read_slab(id) {
            Ok(PageRead::Owned(got)) => Some(got),
            Ok(PageRead::Borrowed(page)) => Some(codec::decode(page).unwrap()),
            Err(StorageError::NotFound(_)) => None,
            Err(e) => panic!("read_slab failed at step {step}: {e}"),
        };
        prop_assert_eq!(slab.as_ref(), expect, "read_slab, step {}", step);
        if let Some(reader) = reader.as_mut() {
            let got = reader.read(id).ok();
            prop_assert_eq!(got.as_ref(), expect, "prefetch reader, step {}", step);
        }
    }
    model
}
