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
//! One entry per query (by canonical query hash), tagged with the versions of exactly
//! what its estimate read: its FROM bucket's
//! [`PoolSnapshot::from_version`] and the model version.  §5.3 compares a query only
//! with same-FROM anchors, so a maintenance upsert invalidates the entries of its own
//! FROM clause and nothing else, while a model hot-swap invalidates every entry.  Fills
//! use the versions of the serve response that computed the estimate
//! ([`ServeResponse::snapshot`](crn_core::ServeResponse), `ServeStats::model_version`)
//! and overwrite the query's older entry.  Probes use the current versions — the
//! runtime reads them off the latest response's snapshot once `serving_versions()`
//! confirms that snapshot is still current — so a hit is **bit-identical to
//! recomputation** by construction.  A probe that finds its query's entry under older
//! versions drops it: versions only grow, so it could never hit again.
//!
//! Hash collisions cannot break parity either: every entry stores its query and a probe
//! must match it by equality, exactly like the scheduler's in-window coalescing.
//!
//! [`PoolSnapshot::from_version`]: crn_core::PoolSnapshot::from_version

use crn_query::ast::Query;
use std::collections::HashMap;
use std::sync::Mutex;

use crn_nn::parallel::lock_ignoring_poison;

/// How many independent shards (mutexes) a cache spreads its entries over — bounds
/// submit-side contention the same way the pool's storage shards do.
const CACHE_SHARDS: usize = 8;

struct CacheEntry {
    /// The full query, equality-checked on every probe (canonical hashes can collide;
    /// a collision is a miss, never a wrong answer).
    query: Query,
    /// `(FROM-bucket version, model version)` the estimate was computed under.
    versions: (u64, u64),
    estimate: f64,
    /// LRU clock value of the last hit or fill (shard-local logical time).
    last_used: u64,
}

struct CacheShard {
    /// Keyed by canonical query hash.
    entries: HashMap<u64, CacheEntry>,
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

/// What one probe found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lookup {
    /// The query's entry, under exactly the probed versions.
    Hit(f64),
    /// The query's entry under older versions: dropped by the probe.
    Stale,
    /// No entry for the query (absent, or a colliding query's).
    Miss,
}

/// A bounded, sharded LRU map from canonical query hash to the query's latest computed
/// estimate and the `(FROM-bucket version, model version)` it was computed under — see
/// the [module docs](self) for the invalidation contract.
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

    /// Probes for `query`'s estimate under its current `(FROM-bucket, model)` versions,
    /// refreshing its LRU position on a hit.  The query's entry under any other versions
    /// is [`Stale`](Lookup::Stale) and dropped; the caller guarantees the versions are
    /// current, and versions only grow.
    pub fn lookup(
        &self,
        query: &Query,
        query_hash: u64,
        bucket_version: u64,
        model_version: u64,
    ) -> Lookup {
        let mut shard = lock_ignoring_poison(self.shard_of(query_hash));
        let tick = shard.touch();
        let Some(entry) = shard.entries.get_mut(&query_hash) else {
            return Lookup::Miss;
        };
        if entry.query != *query {
            return Lookup::Miss;
        }
        if entry.versions != (bucket_version, model_version) {
            shard.entries.remove(&query_hash);
            return Lookup::Stale;
        }
        entry.last_used = tick;
        Lookup::Hit(entry.estimate)
    }

    /// Files a computed estimate under the versions its serve response read, replacing
    /// whatever the query's hash held (its own older entry, or a colliding query's —
    /// lookups equality-check, so either is safe to displace) and evicting the
    /// least-recently-used entry of the target shard only when a new hash joins a full
    /// shard.  Returns whether an eviction happened.
    pub fn insert(
        &self,
        query: &Query,
        query_hash: u64,
        bucket_version: u64,
        model_version: u64,
        estimate: f64,
    ) -> bool {
        let mut shard = lock_ignoring_poison(self.shard_of(query_hash));
        let tick = shard.touch();
        let entry = CacheEntry {
            query: query.clone(),
            versions: (bucket_version, model_version),
            estimate,
            last_used: tick,
        };
        if let Some(resident) = shard.entries.get_mut(&query_hash) {
            *resident = entry;
            return false;
        }
        let evict = shard.entries.len() >= shard.capacity;
        if evict {
            shard.evict_lru();
        }
        shard.entries.insert(query_hash, entry);
        evict
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
        assert_eq!(cache.lookup(&query, 1, 10, 2), Lookup::Miss);
        cache.insert(&query, 1, 10, 2, 42.5);
        assert_eq!(cache.lookup(&query, 1, 10, 2), Lookup::Hit(42.5));
        // A hash collision (same key, different query) is a miss, never a wrong answer,
        // and leaves the resident entry alone.
        let other = scan("cast_info");
        assert_eq!(cache.lookup(&other, 1, 10, 2), Lookup::Miss);
        assert_eq!(cache.lookup(&query, 1, 10, 2), Lookup::Hit(42.5));
        // A bumped bucket or model version is stale: upserts to the query's FROM clause
        // and hot-swaps invalidate by construction.
        assert_eq!(cache.lookup(&query, 1, 11, 2), Lookup::Stale);
        cache.insert(&query, 1, 10, 2, 42.5);
        assert_eq!(cache.lookup(&query, 1, 10, 3), Lookup::Stale);
        // Newest-wins on a colliding fill; the displaced query stops hitting.
        cache.insert(&query, 1, 10, 2, 42.5);
        cache.insert(&other, 1, 10, 2, 7.0);
        assert_eq!(cache.lookup(&other, 1, 10, 2), Lookup::Hit(7.0));
        assert_eq!(cache.lookup(&query, 1, 10, 2), Lookup::Miss);
    }

    #[test]
    fn a_fill_overwrites_the_querys_older_entry() {
        let cache = EstimateCache::new(16);
        let query = scan("title");
        assert!(!cache.insert(&query, 1, 10, 2, 1.0));
        // The refill under newer versions replaces the entry in place: one entry per
        // query, the newest answer.
        assert!(!cache.insert(&query, 1, 12, 2, 2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&query, 1, 12, 2), Lookup::Hit(2.0));
        // Re-filling the same versions (bit-identical by the parity contract) also keeps
        // one entry and never evicts.
        assert!(!cache.insert(&query, 1, 12, 2, 2.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_stale_probe_drops_exactly_the_entry_it_found() {
        let cache = EstimateCache::new(64);
        let query = scan("title");
        for hash in 0..6u64 {
            cache.insert(&query, hash, 1, 1, hash as f64);
        }
        assert_eq!(cache.len(), 6);
        // Two of the six queries' FROM buckets moved on: each probe drops its own entry,
        // and only that one.
        let outcomes: Vec<Lookup> = (0..6u64)
            .map(|hash| cache.lookup(&query, hash, 1 + u64::from(hash % 3 == 0), 1))
            .collect();
        let stale = outcomes.iter().filter(|&&o| o == Lookup::Stale).count();
        assert_eq!(stale, 2);
        assert_eq!(cache.len(), 4);
        // A dropped entry is gone (a miss, not stale again); the rest still hit.
        assert_eq!(cache.lookup(&query, 0, 2, 1), Lookup::Miss);
        assert_eq!(cache.lookup(&query, 1, 1, 1), Lookup::Hit(1.0));
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
        assert_eq!(cache.lookup(&query, 0, 1, 1), Lookup::Hit(1.0));
        assert!(cache.insert(&query, 4, 1, 1, 3.0), "full shard must evict");
        assert_eq!(cache.len(), 2, "the bound holds");
        assert_eq!(
            cache.lookup(&query, 0, 1, 1),
            Lookup::Hit(1.0),
            "MRU survives"
        );
        assert_eq!(cache.lookup(&query, 2, 1, 1), Lookup::Miss, "LRU evicted");
        assert_eq!(cache.lookup(&query, 4, 1, 1), Lookup::Hit(3.0));
        // Re-filling a resident key refreshes, never evicts.
        assert!(!cache.insert(&query, 0, 1, 1, 1.0));
        assert!(!cache.is_empty());
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
