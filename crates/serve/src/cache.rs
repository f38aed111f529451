//! The bounded, sharded LRU cross-window estimate cache.
//!
//! PR 5's in-window coalescing only deduplicates queries that land in the *same* batch;
//! hot repeated traffic separated by more than one batching window recomputes every
//! time.  This cache extends the same idea across windows: the scheduler consults it at
//! batch-build time, so a hit resolves its tickets **without entering the compute path**
//! — an answer at memory latency, tagged [`Cached`](crate::EstimateSource::Cached).
//!
//! # Invalidation (version keys, never scans)
//!
//! Entries are keyed on `(canonical query hash, pool version, model version)` — the
//! discipline the per-shard anchor caches in `crn_core::service` already prove.  A
//! query's estimate reads matching anchors from *every* pool shard, so the pool half of
//! the key is the snapshot-wide [`PoolSnapshot::version`] (the strictly-monotonic sum of
//! the per-shard versions), not the query's own shard version: any maintenance upsert
//! anywhere bumps it, and a model hot-swap bumps the model version.  Fills use the
//! versions the serve response itself reports
//! ([`ServeResponse::pool_version`](crn_core::ServeResponse), `ServeStats::model_version`)
//! — the exact pairing the estimate was computed under — and probes use the versions a
//! serve issued now would take, so a hit is **bit-identical to recomputation** by
//! construction and stale entries can never match again; they simply age out of the LRU.
//!
//! Hash collisions cannot break parity either: every entry stores its query and a probe
//! must match it by equality, exactly like the scheduler's in-window coalescing.
//!
//! [`PoolSnapshot::version`]: crn_core::PoolSnapshot::version

use crn_query::ast::Query;
use std::collections::HashMap;
use std::sync::Mutex;

use crn_nn::parallel::lock_ignoring_poison;

/// How many independent shards (mutexes) a cache spreads its entries over — bounds
/// submit-side contention the same way the pool's storage shards do.
const CACHE_SHARDS: usize = 8;

/// One entry's full key: the canonical query hash plus the `(pool, model)` version
/// pairing the estimate was computed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    query_hash: u64,
    pool_version: u64,
    model_version: u64,
}

struct CacheEntry {
    /// The full query, equality-checked on every probe (canonical hashes can collide;
    /// a collision is a miss, never a wrong answer).
    query: Query,
    estimate: f64,
    /// LRU clock value of the last hit or fill (shard-local logical time).
    last_used: u64,
}

struct CacheShard {
    entries: HashMap<CacheKey, CacheEntry>,
    capacity: usize,
    /// Shard-local logical clock, bumped on every touch.
    clock: u64,
}

impl CacheShard {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evicts the least-recently-used entry (capacity is ≥ 1 and the shard is full when
    /// this is called).
    fn evict_lru(&mut self) {
        if let Some(&key) = self
            .entries
            .iter()
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| key)
        {
            self.entries.remove(&key);
        }
    }
}

/// A bounded, sharded LRU map from `(canonical query hash, pool version, model version)`
/// to a computed estimate — see the [module docs](self) for the invalidation contract.
///
/// All methods take `&self`: probes and fills lock only the one shard the query hash
/// routes to.
pub struct EstimateCache {
    shards: Vec<Mutex<CacheShard>>,
}

impl std::fmt::Debug for EstimateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimateCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl EstimateCache {
    /// A cache bounded at `entries` total entries (≥ 1), spread over up to
    /// `CACHE_SHARDS` shards; per-shard capacities sum to exactly `entries`.  Small
    /// caches collapse to fewer shards so every shard keeps a useful LRU depth.
    pub fn new(entries: usize) -> Self {
        let entries = entries.max(1);
        let shards = (entries / 8).clamp(1, CACHE_SHARDS);
        EstimateCache {
            shards: (0..shards)
                .map(|index| {
                    // Distribute the bound: the first `entries % shards` shards hold one
                    // extra entry.
                    let capacity = entries / shards + usize::from(index < entries % shards);
                    Mutex::new(CacheShard {
                        entries: HashMap::with_capacity(capacity),
                        capacity,
                        clock: 0,
                    })
                })
                .collect(),
        }
    }

    fn shard_of(&self, query_hash: u64) -> &Mutex<CacheShard> {
        &self.shards[(query_hash % self.shards.len() as u64) as usize]
    }

    /// Probes for `query`'s estimate under the given version pairing, refreshing its LRU
    /// position on a hit.  `None` on absence, version mismatch, or a hash collision
    /// (the stored query must equal the probed one).
    pub fn lookup(
        &self,
        query: &Query,
        query_hash: u64,
        pool_version: u64,
        model_version: u64,
    ) -> Option<f64> {
        let key = CacheKey {
            query_hash,
            pool_version,
            model_version,
        };
        let mut shard = lock_ignoring_poison(self.shard_of(query_hash));
        let tick = shard.touch();
        let entry = shard.entries.get_mut(&key)?;
        if entry.query != *query {
            return None;
        }
        entry.last_used = tick;
        Some(entry.estimate)
    }

    /// Files a computed estimate under the version pairing its serve response reported,
    /// evicting the least-recently-used entry of the target shard when full.  Returns
    /// whether an eviction happened.  Re-filling an existing key (same query, same
    /// versions — bit-identical by the parity contract) just refreshes its LRU position.
    pub fn insert(
        &self,
        query: &Query,
        query_hash: u64,
        pool_version: u64,
        model_version: u64,
        estimate: f64,
    ) -> bool {
        let key = CacheKey {
            query_hash,
            pool_version,
            model_version,
        };
        let mut shard = lock_ignoring_poison(self.shard_of(query_hash));
        let tick = shard.touch();
        if let Some(entry) = shard.entries.get_mut(&key) {
            // Same key: either the same query (refresh) or a hash collision (newest
            // wins — lookups equality-check, so either resident entry is safe).
            entry.query = query.clone();
            entry.estimate = estimate;
            entry.last_used = tick;
            return false;
        }
        let evict = shard.entries.len() >= shard.capacity;
        if evict {
            shard.evict_lru();
        }
        shard.entries.insert(
            key,
            CacheEntry {
                query: query.clone(),
                estimate,
                last_used: tick,
            },
        );
        evict
    }

    /// Proactively drops every entry whose version pairing differs from the given
    /// current one, returning how many were purged.
    ///
    /// Stale generations can never *hit* (probes carry the current versions), so this
    /// changes no answer — but without it they linger until the LRU ages them out,
    /// wasting capacity that live entries could use.  The scheduler calls this once per
    /// observed `(pool, model)` version movement, so at million-entry pool scale a
    /// maintenance burst does not leave the cache full of dead weight.
    pub fn purge_stale(&self, pool_version: u64, model_version: u64) -> usize {
        let mut purged = 0usize;
        for shard in &self.shards {
            let mut shard = lock_ignoring_poison(shard);
            let before = shard.entries.len();
            shard.entries.retain(|key, _| {
                key.pool_version == pool_version && key.model_version == model_version
            });
            purged += before - shard.entries.len();
        }
        purged
    }

    /// Total entries currently resident (sums the shards; a point-in-time figure).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_ignoring_poison(shard).entries.len())
            .sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(table: &str) -> Query {
        Query::scan(table)
    }

    #[test]
    fn lookup_requires_exact_versions_and_query_equality() {
        let cache = EstimateCache::new(16);
        let query = scan("title");
        assert!(cache.lookup(&query, 1, 10, 2).is_none());
        cache.insert(&query, 1, 10, 2, 42.5);
        assert_eq!(cache.lookup(&query, 1, 10, 2), Some(42.5));
        // A bumped pool or model version is a miss: upserts and hot-swaps invalidate by
        // construction.
        assert!(cache.lookup(&query, 1, 11, 2).is_none());
        assert!(cache.lookup(&query, 1, 10, 3).is_none());
        // A hash collision (same key, different query) is a miss, never a wrong answer.
        let other = scan("cast_info");
        assert!(cache.lookup(&other, 1, 10, 2).is_none());
        // Newest-wins on a colliding fill; the displaced query stops hitting.
        cache.insert(&other, 1, 10, 2, 7.0);
        assert_eq!(cache.lookup(&other, 1, 10, 2), Some(7.0));
        assert!(cache.lookup(&query, 1, 10, 2).is_none());
    }

    #[test]
    fn capacity_is_bounded_and_eviction_is_lru() {
        // A 2-entry cache collapses to one shard of capacity 2, so the LRU order below
        // is fully deterministic.
        let cache = EstimateCache::new(2);
        let query = scan("title");
        assert!(!cache.insert(&query, 0, 1, 1, 1.0));
        assert!(!cache.insert(&query, 2, 1, 1, 2.0));
        assert_eq!(cache.len(), 2);
        // Touch hash 0 so hash 2 is the LRU victim.
        assert_eq!(cache.lookup(&query, 0, 1, 1), Some(1.0));
        assert!(cache.insert(&query, 4, 1, 1, 3.0), "full shard must evict");
        assert_eq!(cache.len(), 2, "the bound holds");
        assert_eq!(cache.lookup(&query, 0, 1, 1), Some(1.0), "MRU survives");
        assert!(cache.lookup(&query, 2, 1, 1).is_none(), "LRU evicted");
        assert_eq!(cache.lookup(&query, 4, 1, 1), Some(3.0));
        // Re-filling a resident key refreshes, never evicts.
        assert!(!cache.insert(&query, 0, 1, 1, 1.0));
        assert!(!cache.is_empty());
    }

    #[test]
    fn purge_stale_drops_exactly_the_dead_generations() {
        let cache = EstimateCache::new(64);
        let query = scan("title");
        // Three generations: two dead pairings and the live one.
        for hash in 0..5u64 {
            cache.insert(&query, hash, 1, 1, hash as f64);
        }
        for hash in 0..3u64 {
            cache.insert(&query, hash, 2, 1, hash as f64);
        }
        for hash in 0..4u64 {
            cache.insert(&query, hash, 2, 2, hash as f64);
        }
        assert_eq!(cache.len(), 12);
        assert_eq!(cache.purge_stale(2, 2), 8, "both dead generations drop");
        assert_eq!(cache.len(), 4);
        // Live entries still hit; purging again is a no-op.
        for hash in 0..4u64 {
            assert_eq!(cache.lookup(&query, hash, 2, 2), Some(hash as f64));
        }
        assert!(cache.lookup(&query, 0, 1, 1).is_none());
        assert_eq!(cache.purge_stale(2, 2), 0);
    }

    #[test]
    fn per_shard_capacities_sum_to_the_bound() {
        for entries in [1usize, 2, 7, 8, 9, 64, 1000] {
            let cache = EstimateCache::new(entries);
            let query = scan("title");
            // Fill far past the bound with distinct hashes; residency must never exceed
            // the configured total.
            for hash in 0..(entries as u64 * 3) {
                cache.insert(&query, hash, 1, 1, hash as f64);
            }
            assert_eq!(cache.len(), entries, "bound for {entries} entries");
        }
    }
}
