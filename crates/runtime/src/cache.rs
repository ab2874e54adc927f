//! N-way lock-striped concurrent memo-cache.
//!
//! Replaces the single global `RwLock<HashMap>` the lexicon used to
//! serialize every transitive-hypernymy query behind: keys are routed to
//! one of N independent `RwLock<HashMap>` shards by hash, so readers on
//! different shards never contend. Hit/miss counters make cache
//! effectiveness observable (`/metrics` and the benchmark's
//! `*_hit_ratio` metrics report them).
//!
//! Shards are chosen with a fixed-key hasher, so a key lands in the same
//! shard in every process and a bounded cache evicts the same keys on
//! the same input; each shard's own map keeps a random-keyed hasher.

use crate::sync;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Hits / (hits + misses), or 0 when the cache was never queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Sum two snapshots (for aggregating several caches).
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }

    /// Counter growth since an `earlier` snapshot of the same cache —
    /// used to attribute a shared (process-wide or cross-domain) cache's
    /// activity to one pipeline stage. `entries` keeps the current
    /// reading (it is a gauge, not a monotonic counter).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// A concurrent memo-cache striped over `shards` independent locks.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    /// Most entries one shard holds (unbounded unless built by
    /// [`ShardedCache::bounded`]).
    shard_cap: usize,
    /// Routes keys to shards; fixed keys, so routing is repeatable.
    router: BuildHasherDefault<DefaultHasher>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Default shard count: enough stripes that a 16-thread evaluation run
/// rarely collides, small enough that an empty cache stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

impl<K: Hash + Eq, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        ShardedCache::new(DEFAULT_SHARDS)
    }
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// Create a cache with `shards` stripes (clamped to at least 1,
    /// rounded up to a power of two so routing is a mask).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let mut vec = Vec::with_capacity(n);
        for _ in 0..n {
            vec.push(RwLock::new(HashMap::new()));
        }
        ShardedCache {
            shards: vec,
            shard_cap: usize::MAX,
            router: BuildHasherDefault::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that never holds more than `cap` entries: each shard
    /// holds at most its share, and a full shard drops its entries (the
    /// counters stay) before it stores a new key.
    pub fn bounded(cap: usize) -> Self {
        let shards = DEFAULT_SHARDS.min(cap.max(1));
        let shards = 1 << shards.ilog2();
        ShardedCache {
            shard_cap: cap.max(1) / shards,
            ..ShardedCache::new(shards)
        }
    }

    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        (self.router.hash_one(key) as usize) & (self.shards.len() - 1)
    }

    /// Look up `key` (borrowed form allowed, like `HashMap::get`),
    /// counting a hit or miss.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard = &self.shards[self.shard_of(key)];
        let found = sync::read(shard).get(key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `key → value`, first emptying the key's shard if it is full.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = sync::write(&self.shards[self.shard_of(&key)]);
        if shard.len() >= self.shard_cap && !shard.contains_key(&key) {
            shard.clear();
        }
        shard.insert(key, value);
    }

    /// Memoize `compute`: return the cached value or compute-and-store.
    ///
    /// `compute` runs outside any shard lock, so recursive lookups (the
    /// hypernym DAG walk queries the cache for intermediate nodes) cannot
    /// deadlock; concurrent computers may race, last write wins — safe
    /// because memoized functions are pure.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V
    where
        K: Clone,
    {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Counter + size snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| sync::read(s).len()).sum(),
        }
    }

    /// Drop every entry and reset the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            sync::write(shard).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Every shard operation is one whole map call, so a panic while a
    /// shard is held leaves it valid and the cache keeps working.
    #[test]
    fn cache_survives_poisoned_shards() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(2);
        cache.insert(1, 10);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guards: Vec<_> = cache.shards.iter().map(|s| s.write().unwrap()).collect();
                panic!("holder panics with every shard locked");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.shards.iter().all(|s| s.is_poisoned()));
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(2, 20);
        assert_eq!(cache.get_or_insert_with(2, || 0), 20);
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn memoizes_and_counts() {
        let cache: ShardedCache<String, usize> = ShardedCache::default();
        let computed = AtomicUsize::new(0);
        let f = |s: &str| {
            cache.get_or_insert_with(s.to_string(), || {
                computed.fetch_add(1, Ordering::Relaxed);
                s.len()
            })
        };
        assert_eq!(f("hello"), 5);
        assert_eq!(f("hello"), 5);
        assert_eq!(f("hi"), 2);
        assert_eq!(computed.load(Ordering::Relaxed), 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(1);
        cache.insert(1, 2);
        assert_eq!(cache.get(&1), Some(2));
        cache.clear();
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn bounded_cache_never_exceeds_its_cap_and_keeps_counters() {
        for cap in [1, 3, 16, 100, 1024] {
            let cache: ShardedCache<u32, u32> = ShardedCache::bounded(cap);
            for k in 0..5_000 {
                assert_eq!(cache.get_or_insert_with(k, || k * 2), k * 2);
                assert!(cache.stats().entries <= cap, "cap {cap} exceeded");
            }
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (0, 5_000));
            cache.clear();
            assert_eq!(cache.stats(), CacheStats::default());
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new(5);
        assert_eq!(cache.shards.len(), 8);
        let cache: ShardedCache<u32, u32> = ShardedCache::new(0);
        assert_eq!(cache.shards.len(), 1);
    }

    /// Satellite smoke test: hammer the cache from 8 threads and check
    /// the counters stay consistent (hits + misses == lookups issued,
    /// and every key is present exactly once afterwards).
    #[test]
    fn concurrent_hammer_counters_consistent() {
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        const KEYS: u64 = 64;
        let cache: ShardedCache<u64, u64> = ShardedCache::new(8);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..OPS {
                        let key = ((t * OPS + i) as u64 * 2_654_435_761) % KEYS;
                        let v = cache.get_or_insert_with(key, || key * 3);
                        assert_eq!(v, key * 3);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * OPS) as u64);
        assert!(stats.entries as u64 <= KEYS);
        assert!(stats.hits > 0, "some lookups must have hit");
    }
}
