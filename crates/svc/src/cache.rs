//! A sharded, size-bounded LRU cache for rendered synthesis responses.
//!
//! Keys are 128-bit content identities (the canonical
//! [`modsyn_stg::stg_digest`] of the request STG combined with the method
//! tag); values are immutable `Arc` blobs, so a hit is a clone of a
//! pointer, never a copy of the body. The map is split into
//! power-of-two shards, each behind its own mutex, so concurrent handler
//! threads only contend when they land on the same shard.
//!
//! Bounds are enforced **per shard** (total ÷ shards, at least one entry):
//! on insert, a shard evicts its least-recently-used entries until both
//! its entry and byte budgets hold. Recency is a monotonically increasing
//! stamp bumped on every hit; eviction scans the shard for the minimum
//! stamp, which is O(shard size) but shards are small by construction
//! (default 1024 entries across 8 shards). Two threads that miss on the
//! same key concurrently will both compute and insert; the synthesis
//! pipeline is deterministic, so both insert byte-identical values and
//! last-writer-wins is harmless (no request coalescing is needed for
//! correctness, only for economy).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use modsyn_fault::{site, FaultHook, Faults};

/// Cache bounds.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of shards, rounded up to a power of two, at least 1.
    pub shards: usize,
    /// Total entry budget across all shards.
    pub max_entries: usize,
    /// Total byte budget (sum of value costs) across all shards.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            max_entries: 1024,
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

struct Entry<V> {
    value: V,
    bytes: usize,
    stamp: u64,
}

struct Shard<V> {
    map: HashMap<u128, Entry<V>>,
    bytes: usize,
}

/// The cache. `V` is cheap to clone (an `Arc` in the service).
pub struct ShardedLru<V: Clone> {
    shards: Vec<Mutex<Shard<V>>>,
    mask: usize,
    per_shard_entries: usize,
    per_shard_bytes: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
    faults: Faults,
}

impl<V: Clone> ShardedLru<V> {
    /// An empty cache with `config` bounds.
    pub fn new(config: &CacheConfig) -> ShardedLru<V> {
        let shards = config.shards.max(1).next_power_of_two();
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            mask: shards - 1,
            per_shard_entries: (config.max_entries / shards).max(1),
            per_shard_bytes: (config.max_bytes / shards).max(1),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            faults: Faults::none(),
        }
    }

    /// Attaches a fault-injection handle: an armed `cache.evict-storm`
    /// rule empties the target shard on insert, modelling a pathological
    /// eviction cascade. Harmless to correctness — the cache is an
    /// economy, not a source of truth — but visible in the eviction
    /// metric, which is exactly what chaos runs assert on.
    pub fn with_faults(mut self, faults: Faults) -> ShardedLru<V> {
        self.faults = faults;
        self
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        // High bits pick the shard; the digest is already well-mixed.
        &self.shards[(key >> 64) as usize & self.mask]
    }

    fn lock(&self, key: u128) -> std::sync::MutexGuard<'_, Shard<V>> {
        self.shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&self, key: u128) -> Option<V> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.lock(key);
        let entry = shard.map.get_mut(&key)?;
        entry.stamp = stamp;
        Some(entry.value.clone())
    }

    /// Inserts `key → value` costing `bytes`, evicting LRU entries from the
    /// key's shard until its budgets hold. Returns how many entries were
    /// evicted. A value whose cost alone exceeds the per-shard byte budget
    /// is not cached at all.
    pub fn insert(&self, key: u128, value: V, bytes: usize) -> usize {
        if bytes > self.per_shard_bytes {
            return 0;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.lock(key);
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.bytes;
        }
        let mut evicted = 0;
        if self.faults.fire(site::CACHE_EVICT_STORM) {
            evicted += shard.map.len();
            shard.map.clear();
            shard.bytes = 0;
        }
        while shard.map.len() + 1 > self.per_shard_entries
            || shard.bytes + bytes > self.per_shard_bytes
        {
            let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            let old = shard.map.remove(&victim).expect("victim came from the map");
            shard.bytes -= old.bytes;
            evicted += 1;
        }
        shard.bytes += bytes;
        shard.map.insert(
            key,
            Entry {
                value,
                bytes,
                stamp,
            },
        );
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        evicted
    }

    /// Current entry count across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current byte cost across shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .bytes
            })
            .sum()
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Every live entry, sorted by key — the persistence walk used by the
    /// daemon's `--durable` checkpoints. Recency stamps are not preserved:
    /// a reloaded cache starts with fresh LRU history, which only costs
    /// eviction-order fidelity, never correctness.
    pub fn entries(&self) -> Vec<(u128, V)> {
        let mut out: Vec<(u128, V)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .iter()
                    .map(|(&k, e)| (k, e.value.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The per-shard entry budget (exposed for capacity assertions in
    /// tests: `len() <= shard_count() * entry_budget()` always holds).
    pub fn entry_budget(&self) -> usize {
        self.per_shard_entries
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<V: Clone> std::fmt::Debug for ShardedLru<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Combines an STG content digest and a method tag into one cache key.
/// The digest fills the high 64 bits (they also pick the shard); the tag
/// keeps the same STG synthesised under different methods distinct.
pub fn cache_key(digest: u64, method_tag: u8) -> u128 {
    (u128::from(digest) << 64) | u128::from(method_tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tiny(shards: usize, entries: usize, bytes: usize) -> ShardedLru<Arc<Vec<u8>>> {
        ShardedLru::new(&CacheConfig {
            shards,
            max_entries: entries,
            max_bytes: bytes,
        })
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = tiny(1, 8, 1024);
        assert!(cache.get(cache_key(1, 0)).is_none());
        cache.insert(cache_key(1, 0), Arc::new(b"x".to_vec()), 1);
        assert_eq!(*cache.get(cache_key(1, 0)).unwrap(), b"x".to_vec());
        // Same digest, different method: distinct entries.
        assert!(cache.get(cache_key(1, 1)).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = tiny(1, 2, 1024);
        cache.insert(cache_key(1, 0), Arc::new(vec![]), 1);
        cache.insert(cache_key(2, 0), Arc::new(vec![]), 1);
        // Touch 1 so 2 is the LRU victim.
        cache.get(cache_key(1, 0));
        let evicted = cache.insert(cache_key(3, 0), Arc::new(vec![]), 1);
        assert_eq!(evicted, 1);
        assert!(cache.get(cache_key(1, 0)).is_some());
        assert!(cache.get(cache_key(2, 0)).is_none());
        assert!(cache.get(cache_key(3, 0)).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn byte_budget_holds() {
        let cache = tiny(1, 100, 10);
        cache.insert(cache_key(1, 0), Arc::new(vec![]), 6);
        cache.insert(cache_key(2, 0), Arc::new(vec![]), 6);
        assert!(cache.bytes() <= 10, "bytes = {}", cache.bytes());
        assert_eq!(cache.len(), 1);
        // An oversized value is refused outright.
        assert_eq!(cache.insert(cache_key(3, 0), Arc::new(vec![]), 11), 0);
        assert!(cache.get(cache_key(3, 0)).is_none());
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = tiny(1, 4, 100);
        cache.insert(cache_key(1, 0), Arc::new(vec![]), 40);
        cache.insert(cache_key(1, 0), Arc::new(vec![]), 10);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 10);
    }

    #[test]
    fn an_eviction_storm_empties_the_shard_but_stays_correct() {
        use modsyn_fault::FaultPlan;
        let faults = FaultPlan::new("storm", 7)
            .rule(
                modsyn_fault::FaultRule::at(site::CACHE_EVICT_STORM)
                    .skip(2)
                    .times(1),
            )
            .arm();
        let cache = tiny(1, 8, 1024).with_faults(faults.clone());
        cache.insert(cache_key(1, 0), Arc::new(vec![]), 1);
        cache.insert(cache_key(2, 0), Arc::new(vec![]), 1);
        // The storm fires on this insert: both prior entries are dumped,
        // the new one still lands, and lookups stay consistent.
        cache.insert(cache_key(3, 0), Arc::new(b"v".to_vec()), 1);
        assert_eq!(faults.total_injected(), 1);
        assert_eq!(cache.evictions(), 2);
        assert!(cache.get(cache_key(1, 0)).is_none());
        assert_eq!(*cache.get(cache_key(3, 0)).unwrap(), b"v".to_vec());
        assert_eq!(cache.bytes(), 1);
    }

    #[test]
    fn sharding_keeps_totals_bounded() {
        let cache = tiny(4, 8, 8 * 1024);
        for k in 0..1000u64 {
            cache.insert(
                cache_key(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0),
                Arc::new(vec![]),
                1,
            );
        }
        assert!(cache.len() <= cache.shard_count() * cache.entry_budget());
        assert!(cache.evictions() > 0);
    }
}
