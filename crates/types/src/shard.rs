//! A sharded, process-wide concurrent memo map.
//!
//! The experiment suite computes the same pure functions — ratio hulls,
//! placement allocations, whole experiment cells — from many worker
//! threads at once. [`ShardedMap`] gives them one shared memo: a fixed
//! array of mutex-guarded hash maps whose values are
//! [`OnceLock`] slots, so a computation runs at most
//! once per process while concurrent readers of *other* keys never
//! contend on the same lock.
//!
//! The shard for a key is chosen from the *high* bits of its
//! [`Mix64Build`] hash; the map inside the shard
//! consumes the low bits, so shard selection and bucket indexing stay
//! statistically independent.
//!
//! # Examples
//!
//! ```
//! use nuca_types::ShardedMap;
//!
//! let memo: ShardedMap<u64, String> = ShardedMap::new();
//! let a = memo.get_or_compute(7, || "seven".to_string());
//! let b = memo.get_or_compute(7, || unreachable!("memoized"));
//! assert_eq!(a, b);
//! let stats = memo.stats();
//! assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
//! ```

// Every HashMap in this module is Mix64Build-hashed (that is the point
// of ShardedMap); clippy's type ban cannot see hasher parameters.
#![allow(clippy::disallowed_types)]

use crate::hash::Mix64Build;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// log2 of the shard count: 32 shards keeps lock contention negligible for
/// the worker-pool sizes the engine uses (≤ hardware threads) while the
/// whole shard array stays a few cache lines of mutexes.
const SHARD_BITS: u32 = 5;
const SHARDS: usize = 1 << SHARD_BITS;

type Shard<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>, Mix64Build>>;

/// Aggregate counters for one [`ShardedMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapStats {
    /// Lookups served from an already-computed entry.
    pub hits: u64,
    /// Lookups that had to run (or wait for) the computation.
    pub misses: u64,
    /// Entries currently resident (computed or in flight).
    pub entries: u64,
}

impl MapStats {
    /// Fraction of lookups served from cache; 0 when the map is untouched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent memoization map sharded over `SHARDS` mutexes.
///
/// Values are cloned out on every lookup, so `V` is typically an
/// `Arc<...>` (or another cheap-to-clone handle). The per-key
/// [`OnceLock`] guarantees the closure passed to
/// [`get_or_compute`](ShardedMap::get_or_compute) runs at most once per
/// key per process, even under races — losers of the race block until the
/// winner's result is ready and then share it.
///
/// The compute closure must not re-enter the map with the *same* key
/// (that would deadlock on the key's `OnceLock`); computing *different*
/// keys from inside a closure is fine because the shard lock is released
/// before the closure runs.
pub struct ShardedMap<K, V> {
    shards: [Shard<K, V>; SHARDS],
    hasher: Mix64Build,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &SHARDS)
            .finish_non_exhaustive()
    }
}

impl<K, V> Default for ShardedMap<K, V>
where
    K: Eq + Hash,
    V: Clone,
{
    fn default() -> Self {
        ShardedMap::new()
    }
}

impl<K, V> ShardedMap<K, V>
where
    K: Eq + Hash,
    V: Clone,
{
    /// An empty map.
    pub fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::default())),
            hasher: Mix64Build,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shard guarding `key`, selected from the high hash bits (the
    /// hash map inside the shard uses the low bits for its buckets).
    fn shard(&self, key: &K) -> &Shard<K, V> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h >> (64 - SHARD_BITS)) as usize]
    }

    /// The memoized value for `key`, computing it with `f` on first use.
    ///
    /// Exactly one caller per key ever runs `f`; concurrent callers for
    /// the same key wait and receive a clone of the winner's result. The
    /// shard lock is held only to find or create the key's slot, never
    /// while `f` runs.
    pub fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> V {
        let slot = {
            let mut shard = self.shard(&key).lock().expect("sharded map lock");
            Arc::clone(shard.entry(key).or_default())
        };
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                f()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// The value for `key` if it has been computed, without counting a
    /// hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key).lock().expect("sharded map lock");
        shard.get(key).and_then(|slot| slot.get().cloned())
    }

    /// Stores `value` under `key` (write-through), overwriting any
    /// previous entry. Counts as a miss: the caller computed the value.
    pub fn insert(&self, key: K, value: V) {
        let slot = OnceLock::new();
        slot.set(value).ok().expect("fresh OnceLock is empty");
        let mut shard = self.shard(&key).lock().expect("sharded map lock");
        shard.insert(key, Arc::new(slot));
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores `value` under `key` only if no value is resident yet,
    /// without touching the hit/miss counters. This is the warm-start
    /// path: entries loaded from a persistent store are neither hits nor
    /// misses of *this* process, and a seed must never clobber a value a
    /// thread has already computed (or raced to).
    pub fn seed(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock().expect("sharded map lock");
        let slot = Arc::clone(shard.entry(key).or_default());
        drop(shard);
        let _ = slot.set(value);
    }

    /// A snapshot of every completed entry, for persisting the map.
    /// In-flight computations are skipped.
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("sharded map lock")
                    .iter()
                    .filter_map(|(k, slot)| slot.get().map(|v| (k.clone(), v.clone())))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Number of entries whose computation has completed.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("sharded map lock")
                    .values()
                    .filter(|slot| slot.get().is_some())
                    .count()
            })
            .sum()
    }

    /// True when no completed entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("sharded map lock").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// A snapshot of the hit/miss counters and resident entry count.
    pub fn stats(&self) -> MapStats {
        MapStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_each_key_once_under_concurrency() {
        let map: ShardedMap<u64, Arc<u64>> = ShardedMap::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for key in 0..64u64 {
                        let v = map.get_or_compute(key, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            Arc::new(key * 3)
                        });
                        assert_eq!(*v, key * 3);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 64, "one compute per key");
        let stats = map.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.hits + stats.misses, 8 * 64);
        assert_eq!(stats.misses, 64);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let map: ShardedMap<u32, u32> = ShardedMap::new();
        assert_eq!(map.stats(), MapStats::default());
        assert_eq!(map.stats().hit_rate(), 0.0);
        map.get_or_compute(1, || 10);
        map.get_or_compute(1, || unreachable!());
        map.get_or_compute(2, || 20);
        let stats = map.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn insert_and_get_round_trip() {
        let map: ShardedMap<String, Arc<str>> = ShardedMap::new();
        assert_eq!(map.get(&"a".to_string()), None);
        map.insert("a".to_string(), Arc::from("alpha"));
        assert_eq!(map.get(&"a".to_string()).as_deref(), Some("alpha"));
        // get() is a pure probe: no hit/miss accounting.
        assert_eq!(map.stats().hits, 0);
        assert_eq!(map.stats().misses, 1);
        // A memoized lookup now hits the inserted value.
        let v = map.get_or_compute("a".to_string(), || unreachable!());
        assert_eq!(&*v, "alpha");
        assert_eq!(map.stats().hits, 1);
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..10 {
            map.get_or_compute(k, || k);
        }
        assert_eq!(map.len(), 10);
        assert!(!map.is_empty());
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.stats(), MapStats::default());
    }

    #[test]
    fn seed_and_snapshot_bypass_the_counters() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        map.seed(1, 10);
        map.seed(2, 20);
        // Seeding does not count as a hit or a miss.
        assert_eq!(map.stats().hits + map.stats().misses, 0);
        // A seeded entry serves later lookups as a hit.
        assert_eq!(map.get_or_compute(1, || unreachable!()), 10);
        // Seeding never clobbers a resident value.
        map.seed(1, 99);
        assert_eq!(map.get(&1), Some(10));
        let mut snap = map.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn keys_spread_across_shards() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..512 {
            map.get_or_compute(k, || k);
        }
        let occupied = map
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(occupied > SHARDS / 2, "only {occupied} shards occupied");
    }
}
