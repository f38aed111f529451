//! Sharded queries-pool storage behind an immutable-snapshot API — the storage layer of the
//! concurrent serving subsystem.
//!
//! A [`ShardedPool`] distributes pool entries over `N` [`QueriesPool`] shards by **canonical
//! query hash** (the same unkeyed hash the duplicate index uses), so each shard owns a
//! disjoint slice of the entries together with its own FROM-clause and duplicate indexes.
//! The live state is a [`PoolSnapshot`]: an `Arc`'d, fully immutable view swapped under a
//! `parking_lot::RwLock`.
//!
//! * **Readers never block on writers** beyond the pointer swap: [`ShardedPool::snapshot`]
//!   clones the current `Arc` under a read lock and serves from the frozen shards for as
//!   long as it likes — inserts and removals build a *new* snapshot (copy-on-write of the
//!   single affected shard; the untouched shards are shared by `Arc`) and swap it in.
//! * **Sharded matching is a partition of sequential matching**: a query's matching entries
//!   in shard `s` are exactly the pool-wide matching entries routed to `s`, so
//!   concatenating the per-shard lists in canonical shard order `0..N` is a permutation of
//!   the single-shard scan.  The serving layer's final functions (median / mean over the
//!   per-entry estimates) are order-insensitive, which makes sharded serving bit-identical
//!   to the sequential path — the parity tests in [`crate::service`] pin this at
//!   `N = 1, 2, 8`.
//! * **Versions.**  Every FROM bucket of every shard carries a version from one
//!   process-wide counter, drawn afresh whenever a write changes that bucket's entry list;
//!   a FROM key's version in a snapshot ([`PoolSnapshot::from_version`]) is the maximum
//!   over its shards.  The serving caches key on it — prepared anchors per
//!   `(shard, FROM key)`, whole estimates per query — so a write invalidates exactly the
//!   FROM clause it touched.  Shard versions (monotonic per pool, bumped on every
//!   copy-on-write replacement that changes entries) sum to the snapshot-wide
//!   [`PoolSnapshot::version`], which tells a reader whether it still holds the current
//!   snapshot.

use crate::pool::{feature_signature, query_hash, rank_order, PoolEntry, QueriesPool};
use crn_query::ast::Query;
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::btree_map;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable point-in-time view of a sharded pool: the unit the serving layer reads.
///
/// Snapshots are cheap to hold (a vector of `Arc`s) and never change after construction;
/// concurrent maintenance on the owning [`ShardedPool`] produces *new* snapshots.
#[derive(Clone)]
pub struct PoolSnapshot {
    shards: Vec<Arc<QueriesPool>>,
    /// Per-shard versions: monotonic within the owning pool, bumped whenever a write
    /// replaces the shard with one holding different entries.
    versions: Vec<u64>,
}

impl std::fmt::Debug for PoolSnapshot {
    /// Shape and version only: a snapshot rides on every serve response, and its entries
    /// are no business of a response's `Debug`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolSnapshot")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("version", &self.version())
            .finish()
    }
}

impl PoolSnapshot {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The frozen shards, in canonical shard order.
    pub fn shards(&self) -> &[Arc<QueriesPool>] {
        &self.shards
    }

    /// One shard.
    pub fn shard(&self, index: usize) -> &QueriesPool {
        &self.shards[index]
    }

    /// The version of one shard (see the type docs for the invalidation contract).
    pub fn shard_version(&self, index: usize) -> u64 {
        self.versions[index]
    }

    /// The snapshot-wide pool version: the sum of the per-shard versions.
    ///
    /// Every copy-on-write swap that changes entries bumps the replaced shards' versions
    /// to fresh strictly-larger values, so this sum is **strictly monotonic** across
    /// successor snapshots of one pool, and two snapshots share a pool version only if
    /// they hold the same entries.  (A retention-weight update publishes under the
    /// versions it found: weights never change an estimate.)  It answers "is this still
    /// the current snapshot?"; what one query's estimate read is
    /// [`from_version`](PoolSnapshot::from_version).
    pub fn version(&self) -> u64 {
        self.versions.iter().sum()
    }

    /// The version of the query's FROM clause in this snapshot: the maximum over the
    /// shards of their bucket version for that key (0 when no shard ever held it).
    ///
    /// Bucket versions come from one process-wide counter, so any change to the key's
    /// bucket on any shard draws a new global maximum: the value rises exactly when the
    /// key's matching entries change, and is untouched by writes to other FROM clauses
    /// and by retention-weight updates.  A query's estimate reads nothing else of the
    /// pool (§5.3: only same-FROM anchors participate), so this, with the model version,
    /// keys a cached estimate exactly.
    pub fn from_version(&self, query: &Query) -> u64 {
        let key = crate::pool::from_key(query);
        self.shards
            .iter()
            .map(|shard| shard.bucket_version(&key))
            .max()
            .unwrap_or(0)
    }

    /// This snapshot with shard `index` replaced by `shard` at `version`.
    fn with_shard(&self, index: usize, shard: QueriesPool, version: u64) -> PoolSnapshot {
        let mut shards = self.shards.clone();
        let mut versions = self.versions.clone();
        shards[index] = Arc::new(shard);
        versions[index] = version;
        PoolSnapshot { shards, versions }
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Returns true when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Entries matching the query's FROM clause across all shards, in canonical shard order
    /// (within a shard: insertion order).  A permutation of the single-shard
    /// [`QueriesPool::matching`] list.
    pub fn matching<'a>(&'a self, query: &Query) -> impl Iterator<Item = &'a PoolEntry> {
        let key = crate::pool::from_key(query);
        self.shards
            .iter()
            .flat_map(move |shard| shard.matching_key(&key).collect::<Vec<_>>())
    }

    /// [`matching_top_k`] over this snapshot's shards.
    pub fn matching_top_k<'a>(&'a self, query: &Query, k: usize) -> Vec<(u64, &'a PoolEntry)> {
        matching_top_k(&self.shards, query, k)
    }

    /// Number of distinct FROM clauses covered by the pool (union over shards).
    pub fn num_from_clauses(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.from_keys())
            .collect::<std::collections::BTreeSet<&str>>()
            .len()
    }

    /// Flattens the snapshot into a single-shard pool, in canonical shard order (the
    /// durable form the pool serializes to, and the parity tests' flat view; the result is
    /// `matching`-equivalent, not entry-order-identical, to the pool the snapshot was built
    /// from).
    pub fn to_pool(&self) -> QueriesPool {
        let mut pool = QueriesPool::new();
        for shard in &self.shards {
            for entry in shard.entries() {
                pool.insert(entry.query.clone(), entry.cardinality);
            }
        }
        pool
    }

    /// Flattens **one** shard into a single-owner pool, preserving the shard's entry
    /// order exactly.  This is the unit a distributed deployment ships to a worker: a
    /// worker that rebuilds a one-shard [`ShardedPool`] from this pool reproduces the
    /// shard's entry order (pinned by the one-shard round-trip test below), so its
    /// per-entry estimate lists are bit-identical to this shard's contribution in a
    /// single-process serve.
    pub fn shard_pool(&self, index: usize) -> QueriesPool {
        let mut pool = QueriesPool::new();
        for entry in self.shards[index].entries() {
            pool.insert(entry.query.clone(), entry.cardinality);
        }
        pool
    }
}

/// The `k` same-FROM anchors most similar to the query across `shards`, ranked by score
/// descending with ties broken by the anchor query's `Ord` — the sublinear retrieval stage
/// ahead of the exact containment heads.
///
/// The ranking comparator is a *total* order (pool queries are distinct), so merging the
/// per-shard top-`k` selections and re-selecting globally yields **exactly** the top-`k` of
/// the flat pool-wide ranking at any shard count — the determinism the top-K proptests pin.
/// The query is featurized once; per-shard work is O(bucket + k log k).
pub fn matching_top_k<'a, S: Borrow<QueriesPool>>(
    shards: &'a [S],
    query: &Query,
    k: usize,
) -> Vec<(u64, &'a PoolEntry)> {
    if k == 0 {
        return Vec::new();
    }
    let key = crate::pool::from_key(query);
    let signature = feature_signature(query);
    let mut merged: Vec<(u64, &PoolEntry)> = shards
        .iter()
        .flat_map(|shard| shard.borrow().matching_top_k_scored(&key, &signature, k))
        .collect();
    merged.sort_unstable_by(rank_order);
    merged.truncate(k);
    merged
}

/// `N` pool shards keyed by canonical query hash behind an immutable-snapshot API.
///
/// All reads go through [`ShardedPool::snapshot`]; [`ShardedPool::insert`] and
/// [`ShardedPool::remove`] are copy-on-write over the single affected shard.  Writers are
/// serialized by a dedicated mutex and build the successor shard **outside** the snapshot
/// lock, taking the write lock only for the `Arc` swap — so the type is `Sync` and
/// concurrent readers contend with maintenance only on that pointer swap, never on the
/// O(shard-size) clone/re-index.
#[derive(Debug)]
pub struct ShardedPool {
    snapshot: RwLock<Arc<PoolSnapshot>>,
    /// Serializes writers: with this held, the current snapshot can only be replaced by
    /// the holder, so read-clone-swap without keeping the snapshot lock is race-free.
    writer: parking_lot::Mutex<()>,
    /// Source of fresh shard versions (see [`PoolSnapshot::shard_version`]).
    next_version: AtomicU64,
    /// Bounded-capacity mode ([`ShardedPool::with_capacity`]): per-shard entry quota.
    /// `None` (the default) grows without bound, exactly the pre-tier behaviour.
    shard_capacity: Option<usize>,
    /// Entries evicted by the bounded-capacity mode since construction.
    evictions: AtomicU64,
}

impl ShardedPool {
    /// Creates an empty pool with `num_shards` shards (at least one).
    pub fn new(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let shards = (0..num_shards)
            .map(|_| Arc::new(QueriesPool::new()))
            .collect();
        let versions = (1..=num_shards as u64).collect();
        ShardedPool {
            snapshot: RwLock::new(Arc::new(PoolSnapshot { shards, versions })),
            writer: parking_lot::Mutex::new(()),
            next_version: AtomicU64::new(num_shards as u64 + 1),
            shard_capacity: None,
            evictions: AtomicU64::new(0),
        }
    }

    /// Builds a sharded pool from a single-owner pool by routing every entry to its
    /// canonical-hash shard (bulk construction: each shard is built once, no copy-on-write).
    pub fn from_pool(pool: &QueriesPool, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let mut shards: Vec<QueriesPool> = (0..num_shards).map(|_| QueriesPool::new()).collect();
        for entry in pool.entries() {
            let shard = (query_hash(&entry.query) % num_shards as u64) as usize;
            shards[shard].insert(entry.query.clone(), entry.cardinality);
        }
        let shards: Vec<Arc<QueriesPool>> = shards.into_iter().map(Arc::new).collect();
        let versions = (1..=num_shards as u64).collect();
        ShardedPool {
            snapshot: RwLock::new(Arc::new(PoolSnapshot { shards, versions })),
            writer: parking_lot::Mutex::new(()),
            next_version: AtomicU64::new(num_shards as u64 + 1),
            shard_capacity: None,
            evictions: AtomicU64::new(0),
        }
    }

    /// Switches the pool into bounded-capacity mode: `capacity` total entries, split into
    /// a per-shard quota of `ceil(capacity / num_shards)` (at least 1).  Once a shard is
    /// at quota, every insert evicts the anchor with the lowest retention weight **in the
    /// same copy-on-write swap** — readers never observe an over-quota snapshot.  The
    /// freshly inserted entry itself is fair game: starting at the default weight it only
    /// loses against anchors the feedback stream has already marked worse.
    ///
    /// Entries already present are not trimmed retroactively; the bound applies from the
    /// next insert on (the sweep builds at-capacity pools through `from_pool` and relies
    /// on this).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        let shards = self.snapshot.read().num_shards();
        self.shard_capacity = Some(capacity.div_ceil(shards).max(1));
        self
    }

    /// Entries evicted by the bounded-capacity mode since construction (0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.snapshot.read().num_shards()
    }

    /// The canonical shard index of a query (stable for the pool's lifetime: entries are
    /// routed by the process-wide canonical query hash modulo the shard count).
    pub fn shard_of(&self, query: &Query) -> usize {
        (query_hash(query) % self.num_shards() as u64) as usize
    }

    /// The current immutable snapshot.  Hold it as long as needed; it never changes and
    /// never blocks maintenance (which swaps in successors).
    pub fn snapshot(&self) -> Arc<PoolSnapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Adds an executed query with its actual cardinality; returns whether the entry was new
    /// (duplicates keep the first recorded cardinality, exactly like the single-owner pool).
    ///
    /// Copy-on-write: clones the target shard and mutates the clone **outside** the
    /// snapshot lock (writers are serialized by the pool's `writer` lock, so the snapshot
    /// cannot change under us), then swaps in a new snapshot sharing the `N − 1` untouched
    /// shards — readers only ever wait for the pointer swap.
    pub fn insert(&self, query: Query, cardinality: u64) -> bool {
        let _writer = self.writer.lock();
        let current = self.snapshot();
        let index = (query_hash(&query) % current.num_shards() as u64) as usize;
        let mut shard = (*current.shards[index]).clone();
        if !shard.insert(query, cardinality) {
            return false;
        }
        self.enforce_quota(&mut shard);
        let next = Arc::new(self.replaced(&current, index, shard));
        *self.snapshot.write() = next;
        true
    }

    /// Removes a previously inserted query, returning its recorded cardinality (`None` when
    /// absent).  Copy-on-write like [`ShardedPool::insert`] (successor built outside the
    /// snapshot lock).
    pub fn remove(&self, query: &Query) -> Option<u64> {
        let _writer = self.writer.lock();
        let current = self.snapshot();
        let index = (query_hash(query) % current.num_shards() as u64) as usize;
        let mut shard = (*current.shards[index]).clone();
        let removed = shard.remove(query)?;
        let next = Arc::new(self.replaced(&current, index, shard));
        *self.snapshot.write() = next;
        Some(removed)
    }

    /// Inserts the query or refreshes its recorded cardinality in **one** copy-on-write
    /// swap, returning the replaced cardinality (`None` when the query was new).
    ///
    /// Observable semantics are exactly `remove` followed by `insert` (the refreshed entry
    /// moves to the end of its shard's insertion order; the routing proptests pin this
    /// against the remove+insert oracle), but where that sequence clones the target shard
    /// twice and publishes two successor snapshots — exposing an intermediate state in
    /// which the entry is *absent* — `upsert` clones once, publishes once, and bumps the
    /// shard version once.  This is the maintenance-lane primitive: the serving runtime
    /// refreshes completed queries' true cardinalities through it, so concurrent readers
    /// either see the old cardinality or the new one, never a pool without the entry.
    pub fn upsert(&self, query: Query, cardinality: u64) -> Option<u64> {
        let _writer = self.writer.lock();
        let current = self.snapshot();
        let index = (query_hash(&query) % current.num_shards() as u64) as usize;
        let mut shard = (*current.shards[index]).clone();
        let replaced = shard.upsert(query, cardinality);
        self.enforce_quota(&mut shard);
        let next = Arc::new(self.replaced(&current, index, shard));
        *self.snapshot.write() = next;
        replaced
    }

    /// Evicts lowest-retention-weight anchors until the shard is back under its quota
    /// (no-op in unbounded mode).  Runs on the writer's private clone, so the eviction and
    /// the triggering insert publish as one snapshot.
    fn enforce_quota(&self, shard: &mut QueriesPool) {
        let Some(quota) = self.shard_capacity else {
            return;
        };
        while shard.len() > quota {
            if shard.evict_lowest_weight().is_none() {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds an observed estimation q-error into the resident anchor's retention weight
    /// (see [`QueriesPool::record_feedback`]); returns whether the anchor was resident.
    ///
    /// Weights steer eviction and compaction only — they are invisible to `matching` and
    /// to estimates — so the update publishes through the regular copy-on-write swap (so
    /// readers and the weight state can never tear) but under the shard's existing
    /// version, and leaves every bucket version alone: no cached estimate or prepared
    /// anchor state goes stale over a weight.
    pub fn record_feedback(&self, query: &Query, q_error: f64) -> bool {
        let _writer = self.writer.lock();
        let current = self.snapshot();
        let index = (query_hash(query) % current.num_shards() as u64) as usize;
        // Residency check before the O(shard) clone: feedback for evicted/foreign anchors
        // is common once eviction is on, and must not cost a copy-on-write cycle.
        if !current.shards[index]
            .matching(query)
            .any(|entry| entry.query == *query)
        {
            return false;
        }
        let mut shard = (*current.shards[index]).clone();
        if !shard.record_feedback(query, q_error) {
            return false;
        }
        let next = Arc::new(current.with_shard(index, shard, current.versions[index]));
        *self.snapshot.write() = next;
        true
    }

    /// Merges near-duplicate anchors **pool-wide**: entries sharing a structural shape
    /// (FROM clause, joins and predicate `(column, op)` pairs — compared constants
    /// ignored) collapse to the one with the highest retention weight, ties broken by the
    /// smallest query.  Returns the total number of entries removed.
    ///
    /// Winner selection must be global, not per-shard: near-duplicates differ exactly in
    /// their literals, so their canonical hashes — and therefore their home shards — are
    /// unrelated, and shard-local compaction would leave every cross-shard duplicate
    /// group resident forever.  The scan reads the shared snapshot without cloning;
    /// only shards that actually lose an entry are cloned, filtered
    /// (`QueriesPool::retain_queries`) and re-versioned, and all of them publish as a
    /// **single** successor snapshot.
    pub fn compact(&self) -> usize {
        let _writer = self.writer.lock();
        let current = self.snapshot();
        // Global winner per structural shape: (weight desc, query asc) over all shards.
        let mut best: BTreeMap<String, (f64, &Query)> = BTreeMap::new();
        let mut total = 0usize;
        for shard in current.shards.iter() {
            for (entry, weight) in shard.entries_with_weights() {
                total += 1;
                match best.entry(crate::pool::structure_key(&entry.query)) {
                    btree_map::Entry::Vacant(slot) => {
                        slot.insert((weight, &entry.query));
                    }
                    btree_map::Entry::Occupied(mut slot) => {
                        let (kept_weight, kept_query) = *slot.get();
                        let better = match weight.total_cmp(&kept_weight) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => entry.query < *kept_query,
                        };
                        if better {
                            slot.insert((weight, &entry.query));
                        }
                    }
                }
            }
        }
        let removed = total - best.len();
        if removed == 0 {
            return 0;
        }
        let winners: BTreeSet<&Query> = best.values().map(|(_, query)| *query).collect();
        let mut shards = current.shards.clone();
        let mut versions = current.versions.clone();
        for (index, slot) in shards.iter_mut().enumerate() {
            if slot.entries().iter().all(|e| winners.contains(&e.query)) {
                continue;
            }
            let mut shard = (**slot).clone();
            shard.retain_queries(|query| winners.contains(query));
            *slot = Arc::new(shard);
            versions[index] = self.next_version.fetch_add(1, Ordering::Relaxed);
        }
        *self.snapshot.write() = Arc::new(PoolSnapshot { shards, versions });
        removed
    }

    /// Total number of entries (over the current snapshot).
    pub fn len(&self) -> usize {
        self.snapshot.read().len()
    }

    /// Returns true when the current snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot.read().is_empty()
    }

    /// Flattens the current snapshot into a single-owner pool (see
    /// [`PoolSnapshot::to_pool`]).
    pub fn to_pool(&self) -> QueriesPool {
        self.snapshot().to_pool()
    }

    /// A successor snapshot with shard `index` replaced (and re-versioned).
    fn replaced(&self, current: &PoolSnapshot, index: usize, shard: QueriesPool) -> PoolSnapshot {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        current.with_shard(index, shard, version)
    }
}

impl Clone for ShardedPool {
    /// Clones the pool at its current snapshot (cheap: shards are shared until either copy
    /// writes).
    fn clone(&self) -> Self {
        let snapshot = self.snapshot();
        ShardedPool {
            snapshot: RwLock::new(snapshot),
            writer: parking_lot::Mutex::new(()),
            next_version: AtomicU64::new(self.next_version.load(Ordering::Relaxed)),
            shard_capacity: self.shard_capacity,
            evictions: AtomicU64::new(self.evictions.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::DEFAULT_RETENTION_WEIGHT;
    use crn_db::imdb::{generate_imdb, tables, ImdbConfig};

    #[test]
    fn routing_distributes_and_preserves_matching() {
        let db = generate_imdb(&ImdbConfig::tiny(90));
        let pool = QueriesPool::generate(&db, 60, 2, 90);
        for num_shards in [1usize, 2, 3, 8] {
            let sharded = ShardedPool::from_pool(&pool, num_shards);
            assert_eq!(sharded.num_shards(), num_shards);
            assert_eq!(sharded.len(), pool.len());
            let snapshot = sharded.snapshot();
            assert_eq!(snapshot.num_from_clauses(), pool.num_from_clauses());
            // Every query's sharded matching list is a permutation of the sequential one.
            for entry in pool.entries().iter().take(20) {
                let mut sequential: Vec<(&Query, u64)> = pool
                    .matching(&entry.query)
                    .map(|e| (&e.query, e.cardinality))
                    .collect();
                let mut sharded_matches: Vec<(&Query, u64)> = snapshot
                    .matching(&entry.query)
                    .map(|e| (&e.query, e.cardinality))
                    .collect();
                sequential.sort_by_key(|(q, _)| format!("{q}"));
                sharded_matches.sort_by_key(|(q, _)| format!("{q}"));
                assert_eq!(sequential, sharded_matches, "shards = {num_shards}");
            }
            // Entries land on their canonical-hash shard.
            for (index, shard) in snapshot.shards().iter().enumerate() {
                for entry in shard.entries() {
                    assert_eq!(
                        (query_hash(&entry.query) % num_shards as u64) as usize,
                        index
                    );
                }
            }
        }
    }

    #[test]
    fn snapshots_are_immutable_under_writes() {
        let sharded = ShardedPool::new(4);
        let title_scan = Query::scan(tables::TITLE);
        let cast_scan = Query::scan(tables::CAST_INFO);
        assert!(sharded.insert(title_scan.clone(), 100));
        let before = sharded.snapshot();
        assert_eq!(before.len(), 1);

        assert!(sharded.insert(cast_scan.clone(), 50));
        assert!(!sharded.insert(cast_scan.clone(), 999), "duplicate ignored");
        assert_eq!(sharded.remove(&title_scan), Some(100));
        assert_eq!(sharded.remove(&title_scan), None);

        // The old snapshot still sees the pre-write world.
        assert_eq!(before.len(), 1);
        assert_eq!(before.matching(&title_scan).count(), 1);
        // The new snapshot sees the post-write world.
        let after = sharded.snapshot();
        assert_eq!(after.len(), 1);
        assert_eq!(after.matching(&title_scan).count(), 0);
        assert_eq!(after.matching(&cast_scan).next().unwrap().cardinality, 50);
    }

    #[test]
    fn shard_versions_change_exactly_for_written_shards() {
        let sharded = ShardedPool::new(4);
        let query = Query::scan(tables::TITLE);
        let target = sharded.shard_of(&query);
        let before = sharded.snapshot();
        assert!(sharded.insert(query.clone(), 1));
        let after = sharded.snapshot();
        for shard in 0..4 {
            if shard == target {
                assert_ne!(before.shard_version(shard), after.shard_version(shard));
            } else {
                assert_eq!(before.shard_version(shard), after.shard_version(shard));
                assert!(
                    Arc::ptr_eq(&before.shards()[shard], &after.shards()[shard]),
                    "untouched shards are shared, not copied"
                );
            }
        }
        // A rejected duplicate swaps nothing.
        assert!(!sharded.insert(query, 2));
        let unchanged = sharded.snapshot();
        assert_eq!(after.shard_version(target), unchanged.shard_version(target));
    }

    #[test]
    fn upsert_is_a_single_swap_with_remove_insert_semantics() {
        let db = generate_imdb(&ImdbConfig::tiny(94));
        let pool = QueriesPool::generate(&db, 30, 1, 94);
        let sharded = ShardedPool::from_pool(&pool, 4);
        let victim = pool.entries()[0].query.clone();
        let target = sharded.shard_of(&victim);
        let before = sharded.snapshot();

        // Refresh: exactly one fresh version is allocated, on exactly the target shard
        // (remove+insert would allocate two and publish an entry-less intermediate
        // snapshot).  Versions are globally monotonic, so "one allocation" shows up as
        // max-version + 1.
        let max_before = (0..4).map(|s| before.shard_version(s)).max().unwrap();
        assert_eq!(
            sharded.upsert(victim.clone(), 4242),
            Some(pool.entries()[0].cardinality)
        );
        let after = sharded.snapshot();
        assert_eq!(after.len(), pool.len(), "refresh keeps the entry count");
        for shard in 0..4 {
            if shard == target {
                assert_eq!(
                    after.shard_version(shard),
                    max_before + 1,
                    "one copy-on-write swap, one version allocation"
                );
            } else {
                assert!(Arc::ptr_eq(&before.shards()[shard], &after.shards()[shard]));
            }
        }
        let refreshed: Vec<u64> = after
            .matching(&victim)
            .filter(|e| e.query == victim)
            .map(|e| e.cardinality)
            .collect();
        assert_eq!(refreshed, vec![4242]);
        // The old snapshot still sees the old cardinality — snapshot isolation.
        assert!(before
            .matching(&victim)
            .any(|e| e.query == victim && e.cardinality == pool.entries()[0].cardinality));

        // Upsert of an absent query inserts (again in one swap).
        let fresh = Query::scan(tables::MOVIE_INFO_IDX);
        sharded.remove(&fresh); // may or may not be in the generated pool
        let baseline = sharded.len();
        let pre_insert = sharded.snapshot();
        assert_eq!(sharded.upsert(fresh.clone(), 7), None);
        assert_eq!(sharded.len(), baseline + 1);
        let post_insert = sharded.snapshot();
        let fresh_shard = sharded.shard_of(&fresh);
        let max_pre = (0..4).map(|s| pre_insert.shard_version(s)).max().unwrap();
        assert_eq!(post_insert.shard_version(fresh_shard), max_pre + 1);
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        let db = generate_imdb(&ImdbConfig::tiny(91));
        let pool = QueriesPool::generate(&db, 40, 1, 91);
        let sharded = ShardedPool::from_pool(&pool, 4);
        let entries: Vec<PoolEntry> = pool.entries().to_vec();
        std::thread::scope(|scope| {
            // Writer: churn the same entries in and out.
            scope.spawn(|| {
                for entry in &entries {
                    sharded.remove(&entry.query);
                    sharded.insert(entry.query.clone(), entry.cardinality);
                }
            });
            // Readers: every snapshot is internally consistent (len equals the sum over
            // shards, and matching never yields an entry the snapshot does not hold).
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let snapshot = sharded.snapshot();
                        let total: usize = snapshot.shards().iter().map(|s| s.len()).sum();
                        assert_eq!(snapshot.len(), total);
                    }
                });
            }
        });
        assert_eq!(sharded.len(), pool.len());
    }

    #[test]
    fn sharded_proptest_oracle_agreement() {
        // The proptest proper lives in `routing_proptests` below; this anchor test keeps a
        // fast deterministic instance in the default filter set.
        let db = generate_imdb(&ImdbConfig::tiny(93));
        let pool = QueriesPool::generate(&db, 30, 1, 93);
        let sharded = ShardedPool::from_pool(&pool, 3);
        for entry in pool.entries() {
            assert_eq!(sharded.remove(&entry.query), Some(entry.cardinality));
            assert!(sharded.insert(entry.query.clone(), entry.cardinality));
        }
        assert_eq!(sharded.len(), pool.len());
    }

    #[test]
    fn bounded_capacity_evicts_lowest_retention_weight_on_insert() {
        let db = generate_imdb(&ImdbConfig::tiny(95));
        let pool = QueriesPool::generate(&db, 40, 1, 95);
        let unbounded = ShardedPool::from_pool(&pool, 2);
        assert_eq!(unbounded.evictions(), 0);

        // Capacity is split into per-shard quotas enforced from the next insert on.
        // Size the bound so the shard the fresh entry routes to sits exactly at quota:
        // its insert must then evict exactly one entry — the lowest-weight one.
        let fresh = Query::scan("a_table_surely_not_in_the_pool");
        let unbounded_target = ShardedPool::from_pool(&pool, 2);
        let target = unbounded_target.shard_of(&fresh);
        let target_len = unbounded_target.snapshot().shards()[target].len();
        assert!(target_len > 0, "the generated pool populates both shards");
        let bounded = unbounded_target.with_capacity(target_len * 2);
        // Sink one resident anchor of the target shard so the victim is observable.
        let probe = bounded.snapshot().shards()[target].entries()[0]
            .query
            .clone();
        assert!(bounded.record_feedback(&probe, 1_000.0));
        assert!(bounded.insert(fresh.clone(), 7));
        let snapshot = bounded.snapshot();
        assert_eq!(
            snapshot.shards()[target].len(),
            target_len,
            "insert past quota evicts back to the bound"
        );
        assert_eq!(bounded.evictions(), 1);
        assert!(
            !snapshot.matching(&probe).any(|e| e.query == probe),
            "the weight-sunk anchor is the victim"
        );
        assert!(snapshot.matching(&fresh).any(|e| e.query == fresh));

        // Feedback on an absent query touches nothing (and publishes no snapshot).
        let before = bounded.snapshot().version();
        assert!(!bounded.record_feedback(&Query::scan("nope"), 9.0));
        assert_eq!(bounded.snapshot().version(), before);
    }

    /// A retention update is invisible to estimates, so it must not look like a write to
    /// the version-keyed caches: the pool version, every shard version and the anchor's
    /// bucket version stay put — and the new weight still decides the next eviction.
    #[test]
    fn retention_feedback_keeps_every_version_and_still_steers_eviction() {
        let db = generate_imdb(&ImdbConfig::tiny(97));
        let pool = QueriesPool::generate(&db, 40, 1, 97);
        let sharded = ShardedPool::from_pool(&pool, 3);
        let fresh = Query::scan("a_table_surely_not_in_the_pool");
        let target = sharded.shard_of(&fresh);
        let target_len = sharded.snapshot().shards()[target].len();
        let bounded = sharded.with_capacity(target_len * 3);
        let before = bounded.snapshot();
        let sunk = before.shards()[target].entries()[target_len / 2]
            .query
            .clone();

        assert!(bounded.record_feedback(&sunk, 1_000.0));
        let after = bounded.snapshot();
        assert!(!Arc::ptr_eq(&before, &after), "the new weight is published");
        assert_eq!(after.version(), before.version());
        for shard in 0..after.num_shards() {
            assert_eq!(after.shard_version(shard), before.shard_version(shard));
        }
        assert_eq!(after.from_version(&sunk), before.from_version(&sunk));
        assert!(after.shards()[target].retention_weight(&sunk) < DEFAULT_RETENTION_WEIGHT);

        // The target shard is at its quota: the next insert there evicts the sunk anchor.
        assert!(bounded.insert(fresh.clone(), 7));
        let evicted = bounded.snapshot();
        assert_eq!(bounded.evictions(), 1);
        assert!(!evicted.matching(&sunk).any(|e| e.query == sunk));
        assert!(evicted.from_version(&sunk) > after.from_version(&sunk));
    }

    #[test]
    fn compaction_publishes_one_snapshot_and_leaves_old_readers_intact() {
        let db = generate_imdb(&ImdbConfig::tiny(96));
        let pool = QueriesPool::generate(&db, 30, 1, 96);
        let sharded = ShardedPool::from_pool(&pool, 3);
        // Collapse any structural duplicates the generator itself produced, so the
        // baseline below is structurally distinct and the synthetic count is exact.
        sharded.compact();
        let baseline = sharded.to_pool();
        // Duplicate every predicate-bearing entry's structure with shifted literals so
        // compaction has genuine near-duplicate groups to merge.  The shifted literal
        // changes the canonical hash, so most variants land on a *different* shard than
        // their base — exactly the cross-shard case global winner selection must cover.
        let mut added = 0usize;
        for entry in baseline.entries() {
            if !entry.query.predicates().is_empty() {
                let predicate = entry.query.predicates()[0].clone();
                let shifted = crn_query::ast::Predicate::new(
                    predicate.column.clone(),
                    predicate.op,
                    predicate.value.wrapping_add(1_000_003),
                );
                if sharded.insert(
                    entry.query.with_replaced_predicate(0, shifted),
                    entry.cardinality + 1,
                ) {
                    added += 1;
                }
            }
        }
        assert!(
            added > 0,
            "the generated pool has predicate-bearing entries"
        );
        let before = sharded.snapshot();
        let removed = sharded.compact();
        assert_eq!(removed, added, "every synthetic near-duplicate merges away");
        assert_eq!(sharded.len(), baseline.len());
        // Old readers still see the pre-compaction world; the new snapshot moved on.
        assert_eq!(before.len(), baseline.len() + added);
        assert!(sharded.snapshot().version() > before.version());
        // A second pass finds nothing; versions stay put on the no-op.
        let settled = sharded.snapshot().version();
        assert_eq!(sharded.compact(), 0);
        assert_eq!(sharded.snapshot().version(), settled);
    }

    #[test]
    fn to_pool_round_trips_through_any_shard_count() {
        let db = generate_imdb(&ImdbConfig::tiny(92));
        let pool = QueriesPool::generate(&db, 50, 2, 92);
        for num_shards in [1usize, 3, 8] {
            let sharded = ShardedPool::from_pool(&pool, num_shards);
            let flattened = sharded.to_pool();
            assert_eq!(flattened.len(), pool.len());
            assert_eq!(flattened.num_from_clauses(), pool.num_from_clauses());
            // Entry order may be permuted, the entry set may not.
            let mut a: Vec<String> = pool.entries().iter().map(|e| format!("{:?}", e)).collect();
            let mut b: Vec<String> = flattened
                .entries()
                .iter()
                .map(|e| format!("{:?}", e))
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
            // One-shard mode reproduces the source pool's entry order exactly.
            if num_shards == 1 {
                assert_eq!(flattened.entries(), pool.entries());
            }
        }
    }

    /// The serialized form of a sharded pool is its flattened [`PoolSnapshot::to_pool`]:
    /// shard-count-agnostic, so a pool written at one shard count loads at any other
    /// (sharding is a runtime serving decision, not a storage property).
    #[test]
    fn sharded_pool_round_trips_across_shard_counts() {
        let db = generate_imdb(&ImdbConfig::tiny(73));
        let pool = QueriesPool::generate(&db, 30, 1, 73);
        let sharded = ShardedPool::from_pool(&pool, 4);
        let json = serde_json::to_string(&sharded.to_pool()).expect("serializes");
        let loaded: QueriesPool = serde_json::from_str(&json).expect("deserializes");
        let reloaded = ShardedPool::from_pool(&loaded, 2);
        assert_eq!(reloaded.num_shards(), 2);
        assert_eq!(reloaded.len(), pool.len());
        let mut original: Vec<String> = pool.entries().iter().map(|e| format!("{e:?}")).collect();
        let mut roundtrip: Vec<String> = reloaded
            .to_pool()
            .entries()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        original.sort();
        roundtrip.sort();
        assert_eq!(original, roundtrip);
    }
}

#[cfg(test)]
mod routing_proptests {
    //! Property tests of the sharded routing: under random interleavings of insert /
    //! remove / persistence reload (including reload into a *different* shard count), a
    //! [`ShardedPool`] must agree with the PR-2 one-shard `OraclePool` harness on every
    //! returned value and on the full observable matching state.

    use super::*;
    use crate::pool::index_proptests::{query_universe, OraclePool};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_sharded_agrees(sharded: &ShardedPool, oracle: &OraclePool) -> Result<(), String> {
        let snapshot = sharded.snapshot();
        prop_assert_eq!(snapshot.len(), oracle.entries.len());
        prop_assert_eq!(snapshot.num_from_clauses(), oracle.num_from_clauses());
        // Matching agrees as a multiset for every universe query (sharding permutes the
        // order; the serving layer's final functions are order-insensitive).
        for query in query_universe() {
            let mut via_shards: Vec<(String, u64)> = snapshot
                .matching(query)
                .map(|e| (format!("{}", e.query), e.cardinality))
                .collect();
            let mut via_oracle: Vec<(String, u64)> = oracle
                .matching(query)
                .into_iter()
                .map(|(q, c)| (format!("{q}"), c))
                .collect();
            via_shards.sort();
            via_oracle.sort();
            prop_assert_eq!(via_shards, via_oracle);
        }
        // Every entry sits on its canonical-hash shard with exact per-shard indexes.
        for (index, shard) in snapshot.shards().iter().enumerate() {
            for entry in shard.entries() {
                prop_assert_eq!(
                    (crate::pool::query_hash(&entry.query) % snapshot.num_shards() as u64) as usize,
                    index
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random insert/remove/reload interleavings at random shard counts: the sharded
        /// pool and the linear-scan oracle agree on every returned value and on the full
        /// observable state; reloads may change the shard count without changing semantics.
        #[test]
        fn sharded_routing_agrees_with_one_shard_oracle(seed in 0u64..10_000) {
            let universe = query_universe();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sharded = ShardedPool::new(rng.gen_range(1usize..=8));
            let mut oracle = OraclePool::default();
            for op in 0..40 {
                let query = universe[rng.gen_range(0..universe.len())].clone();
                match rng.gen_range(0..10u32) {
                    // Inserts dominate so the pool actually grows.
                    0..=5 => {
                        let cardinality = rng.gen_range(0..1000u64);
                        let inserted = sharded.insert(query.clone(), cardinality);
                        let before = oracle.entries.len();
                        oracle.insert(query, cardinality);
                        prop_assert!(
                            inserted == (oracle.entries.len() > before),
                            "op {op}: insert disagreement"
                        );
                    }
                    6..=7 => {
                        let (mine, theirs) = (sharded.remove(&query), oracle.remove(&query));
                        prop_assert!(
                            mine == theirs,
                            "op {op}: remove returned {mine:?}, oracle {theirs:?}"
                        );
                    }
                    8 => {
                        // Upsert (the maintenance-lane single-swap refresh) must agree
                        // with its remove-then-insert oracle decomposition exactly.
                        let cardinality = rng.gen_range(0..1000u64);
                        let mine = sharded.upsert(query.clone(), cardinality);
                        let theirs = oracle.remove(&query);
                        oracle.insert(query, cardinality);
                        prop_assert!(
                            mine == theirs,
                            "op {op}: upsert replaced {mine:?}, oracle removed {theirs:?}"
                        );
                    }
                    _ => {
                        // Persistence reload into a random (possibly different) shard
                        // count: flatten, JSON round-trip, re-shard.
                        let flattened = sharded.to_pool();
                        let json = serde_json::to_string(&flattened)
                            .map_err(|e| format!("serialize: {e}"))?;
                        let reloaded: QueriesPool = serde_json::from_str(&json)
                            .map_err(|e| format!("deserialize: {e}"))?;
                        sharded = ShardedPool::from_pool(&reloaded, rng.gen_range(1usize..=8));
                    }
                }
                assert_sharded_agrees(&sharded, &oracle)?;
            }
        }

        /// Bucket versions track exactly what an estimate reads.  Under random insert /
        /// remove / upsert / compact / retention-feedback / reload interleavings at random
        /// shard counts, a FROM key's `from_version` rises whenever its matching list
        /// (queries, cardinalities or order) changes, and stays put under retention
        /// feedback, writes to other keys, no-op compactions and rejected duplicate
        /// inserts.  (An upsert may restamp its own key without moving anything, and a
        /// reload restamps every key.)
        #[test]
        fn from_versions_rise_exactly_when_a_matching_list_changes(seed in 0u64..10_000) {
            let universe = query_universe();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sharded = ShardedPool::new(rng.gen_range(1usize..=8));
            let mut probes: BTreeMap<String, &Query> = BTreeMap::new();
            for query in universe {
                probes.entry(crate::pool::from_key(query)).or_insert(query);
            }
            let observe = |snapshot: &PoolSnapshot| -> Vec<(Vec<(Query, u64)>, u64)> {
                probes
                    .values()
                    .map(|probe| {
                        let list = snapshot
                            .matching(probe)
                            .map(|e| (e.query.clone(), e.cardinality))
                            .collect();
                        (list, snapshot.from_version(probe))
                    })
                    .collect()
            };
            let mut before = observe(&sharded.snapshot());
            for op in 0..40 {
                let query = universe[rng.gen_range(0..universe.len())].clone();
                let mut restamped: Option<String> = None;
                let mut reloaded = false;
                match rng.gen_range(0..12u32) {
                    0..=4 => {
                        sharded.insert(query, rng.gen_range(0..1000u64));
                    }
                    5..=6 => {
                        sharded.remove(&query);
                    }
                    7..=8 => {
                        restamped = Some(crate::pool::from_key(&query));
                        sharded.upsert(query, rng.gen_range(0..1000u64));
                    }
                    9 => {
                        sharded.compact();
                    }
                    10 => {
                        sharded.record_feedback(&query, rng.gen_range(1.0..100.0f64));
                    }
                    _ => {
                        let json = serde_json::to_string(&sharded.to_pool())
                            .map_err(|e| format!("serialize: {e}"))?;
                        let reloaded_pool: QueriesPool = serde_json::from_str(&json)
                            .map_err(|e| format!("deserialize: {e}"))?;
                        sharded = ShardedPool::from_pool(&reloaded_pool, rng.gen_range(1usize..=8));
                        reloaded = true;
                    }
                }
                let after = observe(&sharded.snapshot());
                for (key, ((list_before, version_before), (list_after, version_after))) in
                    probes.keys().zip(before.iter().zip(&after))
                {
                    prop_assert!(
                        list_after.is_empty() || *version_after > 0,
                        "op {op}: non-empty bucket {key} at version 0"
                    );
                    if list_before != list_after {
                        prop_assert!(
                            version_after > version_before,
                            "op {op}: {key}'s list changed but its version went \
                             {version_before} -> {version_after}"
                        );
                    } else if !reloaded && restamped.as_deref() != Some(key.as_str()) {
                        prop_assert!(
                            version_after == version_before,
                            "op {op}: {key}'s list is unchanged but its version went \
                             {version_before} -> {version_after}"
                        );
                    }
                }
                before = after;
            }
        }

        /// Tentpole invariant: top-K anchor selection is a pure function of (query, pool
        /// contents, k) — the same ranked (score, anchor) sequence at EVERY shard count,
        /// equal to a flat score-all-then-sort oracle.  The rank order is total (score
        /// descending, then ascending query order over distinct pool queries), so
        /// per-shard top-k followed by the global merge-and-reselect cannot disagree
        /// with the global sort; and because per-query work reads only the immutable
        /// snapshot, the ranked set is thread-count invariant by construction.
        #[test]
        fn top_k_selection_matches_flat_oracle_at_every_shard_count(seed in 0u64..10_000) {
            let universe = query_universe();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool = QueriesPool::new();
            for query in universe {
                if rng.gen_bool(0.7) {
                    pool.insert(query.clone(), rng.gen_range(1..1000u64));
                }
            }
            let probe = universe[rng.gen_range(0..universe.len())].clone();
            let k = rng.gen_range(1usize..=8);
            let mut oracle: Vec<(u64, Query)> = pool
                .matching(&probe)
                .map(|e| (crate::pool::anchor_score(&e.query, &probe), e.query.clone()))
                .collect();
            oracle.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            oracle.truncate(k);
            for shards in [1usize, 2, 3, 8] {
                let sharded = ShardedPool::from_pool(&pool, shards);
                let snapshot = sharded.snapshot();
                let ranked: Vec<(u64, Query)> = snapshot
                    .matching_top_k(&probe, k)
                    .into_iter()
                    .map(|(score, entry)| (score, entry.query.clone()))
                    .collect();
                prop_assert!(
                    ranked == oracle,
                    "shards = {shards}: ranked {ranked:?} vs oracle {oracle:?}"
                );
            }
        }
    }
}
