//! The queries pool: previously executed queries with their actual cardinalities (paper §5.2).
//!
//! The pool is envisioned as an additional DBMS component: a compact record of queries that
//! have already been executed (or were executed ahead of time by a generator) together with
//! their true result cardinalities — *not* their results.  The `Cnt2Crd` cardinality
//! estimation technique matches a new query against every pool entry with the same FROM
//! clause, so the pool is indexed by FROM-clause table set.
//!
//! [`QueriesPool`] is the one storage type: entries plus the FROM-clause and canonical-hash
//! indexes over them.  [`crate::sharded::ShardedPool`] holds N of them as shards keyed by
//! canonical query hash behind an immutable-snapshot API, the storage the concurrent
//! [`crate::service::EstimatorService`] reads.

use crn_db::database::Database;
use crn_exec::Executor;
use crn_query::ast::Query;
use crn_query::generator::{GeneratorConfig, QueryGenerator};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-wide source of FROM-bucket versions (see [`QueriesPool::bucket_version`]): every
/// change to any bucket of any shard draws the next value, so a fresh version is larger
/// than every version handed out before it.
static NEXT_BUCKET_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_bucket_version() -> u64 {
    NEXT_BUCKET_VERSION.fetch_add(1, AtomicOrdering::Relaxed)
}

/// The retention weight every anchor starts with (and the weight a query absent from the
/// weight side-car reports).  Feedback moves weights *down* from here toward the q-error
/// signal, so an anchor that keeps producing bad estimates sinks below fresh ones.
pub const DEFAULT_RETENTION_WEIGHT: f64 = 1.0;

/// EMA decay of the retention weight: `w ← DECAY·w + (1 − DECAY)·signal` with
/// `signal = 1 / max(q_error, 1)`.  At 0.7 an anchor needs a few consecutive bad
/// estimates to sink — one outlier execution cannot evict a good anchor.
const RETENTION_DECAY: f64 = 0.7;

/// One pool entry: a previously executed query and its actual cardinality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolEntry {
    /// The executed query.
    pub query: Query,
    /// Its true result cardinality.
    pub cardinality: u64,
}

/// A pool of previously executed queries, indexed by FROM clause and by canonical hash.
///
/// It is also the shard of a [`crate::sharded::ShardedPool`], the unit the serving layer
/// evaluates in parallel: every shard's `matching` list is a disjoint subset of the
/// pool-wide matching list, and concatenating the per-shard lists in canonical shard order
/// reproduces a full scan.  Only `entries` is serialized; every index and side-car is
/// derived from them.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QueriesPool {
    entries: Vec<PoolEntry>,
    /// Index from FROM-clause key (tables joined by `,`) to entry positions.  Never
    /// persisted: a deserialized pool rebuilds it from `entries`, so a document cannot
    /// point it past the entries or under the wrong key.
    #[serde(skip)]
    by_from: BTreeMap<String, Vec<usize>>,
    /// Per-FROM-key bucket versions (see [`QueriesPool::bucket_version`]), restamped from the
    /// process-wide counter whenever a bucket's entry list changes.  A bucket that empties
    /// keeps its last version here, so a key's version never moves backwards.  Never
    /// persisted, like [`query_hash`]: a deserialized pool stamps every bucket afresh.
    #[serde(skip)]
    bucket_versions: BTreeMap<String, u64>,
    /// Index from canonical query hash to entry positions: duplicate detection on insert is
    /// O(1) expected instead of a linear scan over the whole pool, so bulk construction of a
    /// pool of `n` entries is O(n) expected rather than O(n²).  Hash collisions are resolved
    /// by comparing the (few) colliding entries for real equality.
    ///
    /// Never serialized: `DefaultHasher`'s algorithm is not guaranteed stable across Rust
    /// releases, so a persisted index could silently disagree with the hashes a newer binary
    /// computes.  It is rebuilt lazily on the first mutation of a deserialized pool.
    #[serde(skip)]
    by_hash: HashMap<u64, Vec<usize>>,
    /// Per-entry similarity signatures ([`feature_signature`]), aligned with `entries` and
    /// maintained incrementally on every insert/remove, so the top-K scoring pass never
    /// re-featurizes resident anchors.  Unserialized for the same hash-stability reason as
    /// `by_hash`; rebuilt lazily on the first mutation of a deserialized pool (reads fall
    /// back to on-the-fly signatures while the side-car is out of sync).
    #[serde(skip)]
    signatures: Vec<Vec<u64>>,
    /// Per-entry retention weights, aligned with `entries` (see
    /// [`QueriesPool::record_feedback`]).  Soft serving state: never persisted — a reloaded
    /// pool starts every anchor back at [`DEFAULT_RETENTION_WEIGHT`].
    #[serde(skip)]
    weights: Vec<f64>,
}

impl PartialEq for QueriesPool {
    /// Pools are equal when their entries are (both indexes are deterministic functions
    /// of the entry sequence; the signature/weight/version side-cars are unserialized soft
    /// state).
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Deserialize for QueriesPool {
    /// Reads the persisted `entries` only (a `by_from` in older documents is ignored).  The
    /// FROM-clause index is rebuilt from them and every bucket is stamped here, so a loaded
    /// pool never serves a non-empty bucket at version 0; the other side-cars start empty
    /// and rebuild lazily.
    fn from_content(content: &serde::content::Content) -> Result<Self, serde::de::Error> {
        let mut pool = QueriesPool {
            entries: Deserialize::from_content(content.field("entries")?)?,
            ..QueriesPool::default()
        };
        pool.rebuild_from_index();
        pool.bucket_versions = pool
            .by_from
            .keys()
            .map(|key| (key.clone(), fresh_bucket_version()))
            .collect();
        Ok(pool)
    }
}

/// The canonical hash of a query within one process ([`std::collections::hash_map::DefaultHasher`]
/// is unkeyed, so every pool agrees), used by the duplicate index, as the
/// [`crate::sharded::ShardedPool`] routing key, and by the serving runtime as the
/// dedupe key when coalescing duplicate in-window requests.  Never persist it (the
/// algorithm is not guaranteed stable across Rust releases).
pub fn query_hash(query: &Query) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    query.hash(&mut hasher);
    hasher.finish()
}

/// The featurization-space similarity signature of a query: a sorted multiset of feature
/// hashes — one per join clause, and per predicate both the exact predicate and its bare
/// column.  [`anchor_score`] is the multiset-intersection size of two signatures, so an
/// anchor scores 1 for every shared join, 1 for every predicate on a shared column and 2
/// when the predicate matches exactly — the cheap scoring pass the top-K anchor selection
/// runs ahead of the exact containment heads.  Like [`query_hash`], never persist it.
pub fn feature_signature(query: &Query) -> Vec<u64> {
    fn feature<T: Hash>(tag: u8, value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        tag.hash(&mut hasher);
        value.hash(&mut hasher);
        hasher.finish()
    }
    let mut features = Vec::with_capacity(query.joins().len() + 2 * query.predicates().len());
    for join in query.joins() {
        features.push(feature(0, join));
    }
    for predicate in query.predicates() {
        features.push(feature(1, predicate));
        features.push(feature(2, &predicate.column));
    }
    features.sort_unstable();
    features
}

/// Multiset-intersection size of two sorted feature signatures (two-pointer merge).
fn shared_features(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut shared) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// The similarity score of a pool anchor against an incoming query: a pure, deterministic
/// integer function of the two queries (see [`feature_signature`] for the weighting).
/// Entries sharing no join, predicate or predicate column score 0.
pub fn anchor_score(anchor: &Query, query: &Query) -> u64 {
    shared_features(&feature_signature(anchor), &feature_signature(query))
}

/// The top-K ranking order over `(score, entry)` pairs: score **descending**, ties broken
/// by the anchor query's `Ord` **ascending**.  Pool entries have distinct queries (the
/// duplicate index guarantees it), so this is a *total* order — which is what makes the
/// per-shard top-K selections merge into the same global top-K at any shard count.
pub(crate) fn rank_order(a: &(u64, &PoolEntry), b: &(u64, &PoolEntry)) -> Ordering {
    b.0.cmp(&a.0).then_with(|| a.1.query.cmp(&b.1.query))
}

/// The structural shape of a query: FROM clause, join clauses, and the predicate
/// `(column, op)` pairs with the compared constants stripped.  Two anchors with equal
/// structure keys are "near duplicates" — the unit [`QueriesPool::compact`] merges.
pub(crate) fn structure_key(query: &Query) -> String {
    let shape: Vec<_> = query
        .predicates()
        .iter()
        .map(|p| (&p.column, &p.op))
        .collect();
    format!("{:?}|{:?}|{:?}", query.tables(), query.joins(), shape)
}

impl QueriesPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        QueriesPool::default()
    }

    /// Rebuilds the FROM-clause index from the entries.
    fn rebuild_from_index(&mut self) {
        self.by_from.clear();
        for (index, entry) in self.entries.iter().enumerate() {
            self.by_from
                .entry(from_key(&entry.query))
                .or_default()
                .push(index);
        }
    }

    /// Rebuilds the (unserialized) duplicate-detection index from the entries.
    fn rebuild_hash_index(&mut self) {
        self.by_hash.clear();
        for (index, entry) in self.entries.iter().enumerate() {
            self.by_hash
                .entry(query_hash(&entry.query))
                .or_default()
                .push(index);
        }
    }

    /// Restores the hash index of a deserialized pool before the first mutation (the index
    /// is never persisted).
    fn ensure_hash_index(&mut self) {
        if self.by_hash.is_empty() && !self.entries.is_empty() {
            self.rebuild_hash_index();
        }
    }

    /// Restores the (unserialized) signature/weight side-cars of a deserialized pool: the
    /// per-entry alignment makes staleness unambiguous — a length mismatch with `entries`
    /// means the side-car was dropped by serialization and is rebuilt wholesale.
    fn ensure_sidecars(&mut self) {
        if self.signatures.len() != self.entries.len() {
            self.signatures = self
                .entries
                .iter()
                .map(|entry| feature_signature(&entry.query))
                .collect();
        }
        if self.weights.len() != self.entries.len() {
            self.weights = vec![DEFAULT_RETENTION_WEIGHT; self.entries.len()];
        }
    }

    /// Adds an executed query with its actual cardinality; returns whether the entry was new.
    ///
    /// Duplicate queries are ignored (the pool keeps the first recorded cardinality).
    pub fn insert(&mut self, query: Query, cardinality: u64) -> bool {
        self.ensure_hash_index();
        self.ensure_sidecars();
        let hash = query_hash(&query);
        if let Some(indices) = self.by_hash.get(&hash) {
            if indices.iter().any(|&i| self.entries[i].query == query) {
                return false;
            }
        }
        let index = self.entries.len();
        self.by_hash.entry(hash).or_default().push(index);
        let key = from_key(&query);
        self.stamp_bucket(&key);
        self.by_from.entry(key).or_default().push(index);
        self.signatures.push(feature_signature(&query));
        self.weights.push(DEFAULT_RETENTION_WEIGHT);
        self.entries.push(PoolEntry { query, cardinality });
        true
    }

    /// Removes a previously inserted query, returning its recorded cardinality (`None` when
    /// the query is not in the pool).
    ///
    /// Removal keeps both indexes exact: the entry positions above the removed one shift
    /// down by one, so every stored index is rewritten and FROM-clause / hash buckets that
    /// become empty are dropped (so [`QueriesPool::num_from_clauses`] and
    /// [`QueriesPool::matching`] never see ghosts).  The duplicate index stays consistent
    /// with a linear-scan oracle under arbitrary insert/remove/reload interleavings — the
    /// property tests below pin this.
    pub fn remove(&mut self, query: &Query) -> Option<u64> {
        self.ensure_hash_index();
        self.ensure_sidecars();
        let hash = query_hash(query);
        let position = self
            .by_hash
            .get(&hash)?
            .iter()
            .copied()
            .find(|&index| self.entries[index].query == *query)?;
        let removed = self.entries.remove(position);
        self.signatures.remove(position);
        self.weights.remove(position);
        self.stamp_bucket(&from_key(&removed.query));
        let fix_indices = |indices: &mut Vec<usize>| {
            indices.retain(|&index| index != position);
            for index in indices.iter_mut() {
                if *index > position {
                    *index -= 1;
                }
            }
            !indices.is_empty()
        };
        self.by_hash.retain(|_, indices| fix_indices(indices));
        self.by_from.retain(|_, indices| fix_indices(indices));
        Some(removed.cardinality)
    }

    /// Inserts the query or refreshes its recorded cardinality, returning the replaced
    /// cardinality (`None` when the query was new).
    ///
    /// Observable semantics are **exactly** remove-then-insert: a refreshed entry moves to
    /// the end of the pool's insertion order (the proptests pin this against the
    /// remove+insert oracle).  A refreshed entry keeps its accumulated retention weight —
    /// fresh truth does not absolve an anchor the feedback stream has marked bad.  The
    /// point of the dedicated entry point is one level up —
    /// [`crate::sharded::ShardedPool::upsert`] turns what used to be *two* copy-on-write
    /// snapshot swaps into one, which is what the serving runtime's maintenance lane
    /// (refreshing completed queries' true cardinalities) hammers.
    pub fn upsert(&mut self, query: Query, cardinality: u64) -> Option<u64> {
        let kept_weight = self.retention_weight(&query);
        let replaced = self.remove(&query);
        self.insert(query, cardinality);
        if replaced.is_some() {
            if let Some(weight) = self.weights.last_mut() {
                *weight = kept_weight;
            }
        }
        replaced
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// Entries whose FROM clause matches the given query's FROM clause (§5.3: only those can
    /// participate in the Cnt2Crd estimation), in insertion order.
    ///
    /// Returns an iterator rather than an allocated `Vec`: this lookup sits on the per-query
    /// serving hot path, where the caller either folds over the entries directly or packs
    /// them into its own batch layout anyway.
    pub fn matching<'a>(&'a self, query: &Query) -> impl Iterator<Item = &'a PoolEntry> {
        self.matching_key(&from_key(query))
    }

    /// [`QueriesPool::matching`] by pre-computed FROM-clause key (the serving layer groups
    /// concurrent queries by this key and resolves it once per group, not once per query).
    pub fn matching_key<'a>(&'a self, key: &str) -> impl Iterator<Item = &'a PoolEntry> {
        self.by_from
            .get(key)
            .into_iter()
            .flatten()
            .map(move |&i| &self.entries[i])
    }

    /// The version of one FROM bucket: a value from the process-wide counter, drawn afresh
    /// by every insert, remove, upsert, eviction or compaction that changes the bucket's
    /// entry list, and left alone by everything else (retention weights included).  Equal
    /// versions therefore mean an equal entry list.  0 only for a key this pool has never
    /// held.  [`crate::sharded::PoolSnapshot::from_version`] is the one public reader.
    pub(crate) fn bucket_version(&self, key: &str) -> u64 {
        self.bucket_versions.get(key).copied().unwrap_or(0)
    }

    /// Draws a fresh version for `key`'s bucket (see [`QueriesPool::bucket_version`]).
    fn stamp_bucket(&mut self, key: &str) {
        let version = fresh_bucket_version();
        match self.bucket_versions.get_mut(key) {
            Some(slot) => *slot = version,
            None => {
                self.bucket_versions.insert(key.to_string(), version);
            }
        }
    }

    /// Number of distinct FROM clauses covered by the pool.
    pub fn num_from_clauses(&self) -> usize {
        self.by_from.len()
    }

    /// The distinct FROM-clause keys of this pool (used by snapshots to form the union
    /// across shards).
    pub fn from_keys(&self) -> impl Iterator<Item = &str> {
        self.by_from.keys().map(|k| k.as_str())
    }

    /// Position of the query in `entries`, via the duplicate index when it is built and by
    /// linear scan otherwise (read-only callers cannot lazily rebuild the index).
    fn position_of(&self, query: &Query) -> Option<usize> {
        if self.by_hash.is_empty() {
            return self.entries.iter().position(|entry| entry.query == *query);
        }
        self.by_hash
            .get(&query_hash(query))?
            .iter()
            .copied()
            .find(|&index| self.entries[index].query == *query)
    }

    /// The current retention weight of an anchor ([`DEFAULT_RETENTION_WEIGHT`] when the
    /// query is absent or the weight side-car has not been rebuilt since deserialization).
    pub fn retention_weight(&self, query: &Query) -> f64 {
        if self.weights.len() != self.entries.len() {
            return DEFAULT_RETENTION_WEIGHT;
        }
        self.position_of(query)
            .map(|index| self.weights[index])
            .unwrap_or(DEFAULT_RETENTION_WEIGHT)
    }

    /// Folds an observed estimation q-error for this anchor into its retention weight
    /// (`w ← 0.7·w + 0.3·(1/max(q_error, 1))`), returning whether the anchor is resident.
    ///
    /// A perfectly calibrated anchor (q-error 1) holds weight 1; an anchor that keeps
    /// producing order-of-magnitude errors decays toward 0 and becomes the first eviction
    /// victim.  `max` with 1 also absorbs NaN q-errors from degenerate feedback.
    pub fn record_feedback(&mut self, query: &Query, q_error: f64) -> bool {
        self.ensure_hash_index();
        self.ensure_sidecars();
        let Some(position) = self.position_of(query) else {
            return false;
        };
        let signal = 1.0 / q_error.max(1.0);
        let weight = &mut self.weights[position];
        *weight = RETENTION_DECAY * *weight + (1.0 - RETENTION_DECAY) * signal;
        true
    }

    /// Removes and returns the anchor with the lowest retention weight (ties broken by the
    /// query's `Ord`, so eviction is deterministic).  `None` on an empty pool.
    pub fn evict_lowest_weight(&mut self) -> Option<Query> {
        self.ensure_sidecars();
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| {
                self.weights[*i]
                    .total_cmp(&self.weights[*j])
                    .then_with(|| a.query.cmp(&b.query))
            })?
            .1
            .query
            .clone();
        self.remove(&victim);
        Some(victim)
    }

    /// Merges near-duplicate anchors: entries with the same structural shape (FROM clause,
    /// joins, and predicate `(column, op)` pairs — compared constants ignored) collapse to
    /// the one with the highest retention weight (ties broken by the smallest query), in
    /// original insertion order.  Returns the number of entries removed.
    ///
    /// Rebuilds the indexes and side-cars wholesale — O(n), not O(n²) of repeated removes.
    pub fn compact(&mut self) -> usize {
        self.ensure_sidecars();
        let mut keep_by_shape: BTreeMap<String, usize> = BTreeMap::new();
        for (index, entry) in self.entries.iter().enumerate() {
            match keep_by_shape.entry(structure_key(&entry.query)) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(index);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let kept = *slot.get();
                    let better = match self.weights[index].total_cmp(&self.weights[kept]) {
                        Ordering::Greater => true,
                        Ordering::Less => false,
                        Ordering::Equal => self.entries[index].query < self.entries[kept].query,
                    };
                    if better {
                        slot.insert(index);
                    }
                }
            }
        }
        let removed = self.entries.len() - keep_by_shape.len();
        if removed == 0 {
            return 0;
        }
        let mut keep_mask = vec![false; self.entries.len()];
        for index in keep_by_shape.into_values() {
            keep_mask[index] = true;
        }
        self.apply_keep_mask(&keep_mask);
        removed
    }

    /// Entries paired with their current retention weights, in insertion order
    /// ([`DEFAULT_RETENTION_WEIGHT`] throughout when the side-car is stale after a
    /// deserialization).  The cross-shard compaction scan in [`crate::sharded`] reads
    /// this without forcing a side-car rebuild on a shared snapshot.
    pub(crate) fn entries_with_weights(&self) -> impl Iterator<Item = (&PoolEntry, f64)> + '_ {
        let aligned = self.weights.len() == self.entries.len();
        self.entries.iter().enumerate().map(move |(index, entry)| {
            let weight = if aligned {
                self.weights[index]
            } else {
                DEFAULT_RETENTION_WEIGHT
            };
            (entry, weight)
        })
    }

    /// Drops every entry for which `keep` returns false, preserving insertion order of the
    /// survivors.  Returns the number removed.  One O(n) rebuild like [`QueriesPool::compact`]
    /// — this is the per-shard apply step of the pool-wide compaction in [`crate::sharded`],
    /// where the winner set is chosen across *all* shards.
    pub(crate) fn retain_queries(&mut self, mut keep: impl FnMut(&Query) -> bool) -> usize {
        self.ensure_sidecars();
        let keep_mask: Vec<bool> = self.entries.iter().map(|e| keep(&e.query)).collect();
        let removed = keep_mask.iter().filter(|kept| !**kept).count();
        if removed == 0 {
            return 0;
        }
        self.apply_keep_mask(&keep_mask);
        removed
    }

    /// Rebuilds entries, side-cars and both indexes keeping exactly the masked positions
    /// (side-cars must be aligned — callers run `ensure_sidecars` first), restamping the
    /// buckets that lost an entry.
    fn apply_keep_mask(&mut self, keep_mask: &[bool]) {
        let old_entries = std::mem::take(&mut self.entries);
        let old_signatures = std::mem::take(&mut self.signatures);
        let old_weights = std::mem::take(&mut self.weights);
        let mut shrunk = BTreeSet::new();
        for (index, ((entry, signature), weight)) in old_entries
            .into_iter()
            .zip(old_signatures)
            .zip(old_weights)
            .enumerate()
        {
            if keep_mask[index] {
                self.entries.push(entry);
                self.signatures.push(signature);
                self.weights.push(weight);
            } else {
                shrunk.insert(from_key(&entry.query));
            }
        }
        for key in &shrunk {
            self.stamp_bucket(key);
        }
        self.rebuild_from_index();
        self.rebuild_hash_index();
    }

    /// The `k` same-FROM anchors most similar to the query, ranked by `rank_order`
    /// (score descending, ties by anchor `Ord`).  With fewer than `k` matching anchors this
    /// is a ranked permutation of [`QueriesPool::matching`]; `k == 0` selects nothing.
    pub fn matching_top_k<'a>(&'a self, query: &Query, k: usize) -> Vec<(u64, &'a PoolEntry)> {
        self.matching_top_k_scored(&from_key(query), &feature_signature(query), k)
    }

    /// [`QueriesPool::matching_top_k`] by pre-computed FROM-clause key and query signature
    /// (the serving layer featurizes each incoming query exactly once, then probes every
    /// shard).  Scoring reads the incremental signature side-car when it is aligned and
    /// falls back to on-the-fly featurization right after a deserialization.
    ///
    /// Cost is O(bucket) scoring + O(bucket) selection + O(k log k) ranking — independent
    /// of total pool size and, for the selection, of the bucket's sort order.
    pub fn matching_top_k_scored<'a>(
        &'a self,
        key: &str,
        signature: &[u64],
        k: usize,
    ) -> Vec<(u64, &'a PoolEntry)> {
        if k == 0 {
            return Vec::new();
        }
        let Some(indices) = self.by_from.get(key) else {
            return Vec::new();
        };
        let aligned = self.signatures.len() == self.entries.len();
        let mut scored: Vec<(u64, &PoolEntry)> = indices
            .iter()
            .map(|&i| {
                let entry = &self.entries[i];
                let score = if aligned {
                    shared_features(&self.signatures[i], signature)
                } else {
                    shared_features(&feature_signature(&entry.query), signature)
                };
                (score, entry)
            })
            .collect();
        if k < scored.len() {
            scored.select_nth_unstable_by(k - 1, rank_order);
            scored.truncate(k);
        }
        scored.sort_unstable_by(rank_order);
        scored
    }

    /// Restricts the pool to at most `limit` entries, keeping the distribution across FROM
    /// clauses as even as possible (used by the pool-size sweep of Table 14).
    pub fn truncated(&self, limit: usize) -> QueriesPool {
        let mut result = QueriesPool::new();
        if limit == 0 {
            return result;
        }
        // Round-robin over FROM clauses so every clause keeps coverage.
        let mut cursors: Vec<(usize, &Vec<usize>)> =
            self.by_from.values().map(|v| (0usize, v)).collect();
        'outer: loop {
            let mut progressed = false;
            for (cursor, indices) in cursors.iter_mut() {
                if *cursor < indices.len() {
                    let entry = &self.entries[indices[*cursor]];
                    result.insert(entry.query.clone(), entry.cardinality);
                    *cursor += 1;
                    progressed = true;
                    if result.len() >= limit {
                        break 'outer;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        result
    }

    /// Builds a synthetic pool by generating queries over every possible FROM clause and
    /// executing them (paper §5.2's "generate in advance" approach and §6.2's experimental
    /// pool: "equally distributed among all the possible FROM clauses over the database").
    ///
    /// `size` is the total number of pool entries; `max_joins` bounds the FROM clauses
    /// considered (0..=max_joins joins).
    pub fn generate(db: &Database, size: usize, max_joins: usize, seed: u64) -> QueriesPool {
        let mut generator =
            QueryGenerator::new(db, GeneratorConfig::with_max_joins(seed, max_joins));
        let executor = Executor::new(db);
        let mut pool = QueriesPool::new();
        // Spread the budget uniformly over join counts, then over generated FROM clauses.
        let per_join = (size / (max_joins + 1)).max(1);
        for joins in 0..=max_joins {
            let queries = generator.generate_initial_with_joins(per_join * 2, joins);
            let mut taken = 0usize;
            for query in queries {
                if taken >= per_join || pool.len() >= size {
                    break;
                }
                let cardinality = executor.cardinality(&query);
                if pool.insert(query, cardinality) {
                    taken += 1;
                }
            }
            if pool.len() >= size {
                break;
            }
        }
        // Always include the predicate-free queries ("SELECT * FROM ... WHERE TRUE", §5.2) so
        // that every FROM clause has at least one guaranteed non-empty match.
        let from_clauses: BTreeSet<BTreeSet<String>> = pool
            .entries()
            .iter()
            .map(|e| e.query.tables().clone())
            .collect();
        for tables in from_clauses {
            let scan_like = pool
                .entries()
                .iter()
                .find(|e| e.query.tables() == &tables && e.query.predicates().is_empty());
            if scan_like.is_none() {
                // Re-create the empty-predicate query for this FROM clause by stripping an
                // existing entry's predicates.
                if let Some(entry) = pool.entries().iter().find(|e| e.query.tables() == &tables) {
                    let stripped = Query::new(
                        entry.query.tables().iter().cloned(),
                        entry.query.joins().to_vec(),
                        [],
                    );
                    let cardinality = executor.cardinality(&stripped);
                    pool.insert(stripped, cardinality);
                }
            }
        }
        pool
    }
}

/// Canonical string key of a query's FROM clause (tables are already sorted in the AST).
/// Shared with the Cnt2Crd serving cache, whose per-FROM-clause anchor groups must match
/// [`QueriesPool::matching`]'s grouping exactly — and with the distributed coordinator's
/// group→shard plan, which routes each FROM group to the shards whose anchors match it.
pub fn from_key(query: &Query) -> String {
    query
        .tables()
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, tables, ImdbConfig};

    #[test]
    fn insert_and_match_by_from_clause() {
        let mut pool = QueriesPool::new();
        assert!(pool.is_empty());
        let title_scan = Query::scan(tables::TITLE);
        let cast_scan = Query::scan(tables::CAST_INFO);
        pool.insert(title_scan.clone(), 100);
        pool.insert(cast_scan.clone(), 50);
        pool.insert(title_scan.clone(), 999); // duplicate: ignored
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.num_from_clauses(), 2);
        let matches: Vec<&PoolEntry> = pool.matching(&title_scan).collect();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].cardinality, 100);
        assert_eq!(pool.matching(&Query::scan(tables::MOVIE_INFO)).count(), 0);
    }

    #[test]
    fn bulk_insert_deduplicates_through_the_hash_index() {
        let db = generate_imdb(&ImdbConfig::tiny(47));
        let mut gen =
            crn_query::generator::QueryGenerator::new(&db, GeneratorConfig::with_max_joins(47, 2));
        let queries = gen.generate_queries(300);
        let mut pool = QueriesPool::new();
        for (i, q) in queries.iter().enumerate() {
            pool.insert(q.clone(), i as u64);
        }
        let unique: std::collections::HashSet<&Query> = queries.iter().collect();
        assert_eq!(
            pool.len(),
            unique.len(),
            "pool keeps exactly the distinct queries"
        );
        // Re-inserting the whole workload changes nothing.
        let before = pool.len();
        for q in &queries {
            pool.insert(q.clone(), 999_999);
        }
        assert_eq!(pool.len(), before);
        assert!(pool.entries().iter().all(|e| e.cardinality != 999_999));
    }

    #[test]
    fn remove_deletes_entries_and_prunes_indexes() {
        let mut pool = QueriesPool::new();
        let title_scan = Query::scan(tables::TITLE);
        let cast_scan = Query::scan(tables::CAST_INFO);
        pool.insert(title_scan.clone(), 100);
        pool.insert(cast_scan.clone(), 50);
        assert_eq!(pool.remove(&title_scan), Some(100));
        assert_eq!(pool.remove(&title_scan), None, "already removed");
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.matching(&title_scan).count(), 0);
        assert_eq!(pool.num_from_clauses(), 1, "empty FROM buckets are dropped");
        // The surviving entry's shifted index still resolves.
        assert_eq!(pool.matching(&cast_scan).next().unwrap().cardinality, 50);
        // Remove-then-reinsert works (the tombstone really is gone from the hash index).
        pool.insert(title_scan.clone(), 77);
        assert_eq!(pool.matching(&title_scan).next().unwrap().cardinality, 77);
        assert_eq!(pool.remove(&cast_scan), Some(50));
        assert_eq!(pool.remove(&cast_scan), None);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn upsert_refreshes_cardinality_with_remove_insert_semantics() {
        let mut pool = QueriesPool::new();
        let title_scan = Query::scan(tables::TITLE);
        let cast_scan = Query::scan(tables::CAST_INFO);
        assert_eq!(pool.upsert(title_scan.clone(), 100), None, "new entry");
        pool.insert(cast_scan.clone(), 50);
        // A refresh replaces the cardinality (insert would keep the first) and moves the
        // entry to the end of the insertion order, exactly like remove-then-insert.
        assert_eq!(pool.upsert(title_scan.clone(), 123), Some(100));
        assert_eq!(pool.len(), 2);
        assert_eq!(
            pool.matching(&title_scan).next().unwrap().cardinality,
            123,
            "upsert replaces the recorded cardinality"
        );
        assert_eq!(pool.entries().last().unwrap().query, title_scan);
        // The oracle comparison in miniature: remove+insert on a clone agrees exactly.
        let mut oracle = QueriesPool::new();
        oracle.insert(title_scan.clone(), 100);
        oracle.insert(cast_scan, 50);
        oracle.remove(&title_scan);
        oracle.insert(title_scan, 123);
        assert_eq!(pool, oracle);
    }

    #[test]
    fn duplicate_detection_survives_serialization() {
        let db = generate_imdb(&ImdbConfig::tiny(48));
        let pool = QueriesPool::generate(&db, 20, 1, 48);
        let json = serde_json::to_string(&pool).expect("serializes");
        let mut loaded: QueriesPool = serde_json::from_str(&json).expect("deserializes");
        let before = loaded.len();
        // The hash index rebuilds after a load, so re-inserting existing queries is still a
        // no-op.
        for entry in pool.entries().to_vec() {
            loaded.insert(entry.query, entry.cardinality + 1);
        }
        assert_eq!(loaded.len(), before);
        assert_eq!(&loaded, &pool);
    }

    #[test]
    fn a_deserialized_shard_stamps_every_bucket_before_it_serves() {
        let db = generate_imdb(&ImdbConfig::tiny(49));
        let pool = QueriesPool::generate(&db, 20, 1, 49);
        let json = serde_json::to_string(&pool).expect("serializes");
        assert!(
            !json.contains("bucket_versions"),
            "versions are never persisted"
        );
        let loaded: QueriesPool = serde_json::from_str(&json).expect("deserializes");
        for key in loaded.from_keys() {
            assert_ne!(loaded.bucket_version(key), 0, "non-empty bucket {key}");
            assert!(loaded.bucket_version(key) > pool.bucket_version(key));
        }
        assert_eq!(loaded.bucket_version("no_such_table"), 0);
    }

    /// A document's own FROM-clause index is never trusted: a position past the entries
    /// (or under another key) would panic or misroute anchors the first time the pool
    /// serves.  The index is rebuilt from the entries instead.
    #[test]
    fn a_deserialized_pool_rebuilds_its_from_index_from_the_entries() {
        let title_scan = Query::scan(tables::TITLE);
        let entry = PoolEntry {
            query: title_scan.clone(),
            cardinality: 7,
        };
        let entry_json = serde_json::to_string(&entry).expect("serializes");
        // `by_from` in the map encoding older documents carry: `[[key, positions], ...]`.
        let json = format!(r#"{{"entries":[{entry_json}],"by_from":[["title",[5]]]}}"#);
        let loaded: QueriesPool = serde_json::from_str(&json).expect("deserializes");
        let matches: Vec<&PoolEntry> = loaded.matching(&title_scan).collect();
        assert_eq!(matches, vec![&entry]);
        assert!(
            !serde_json::to_string(&loaded).unwrap().contains("by_from"),
            "the index is never persisted"
        );
    }

    #[test]
    fn generated_pool_covers_all_join_counts_and_is_exact() {
        let db = generate_imdb(&ImdbConfig::tiny(44));
        let pool = QueriesPool::generate(&db, 60, 2, 44);
        assert!(
            pool.len() >= 30,
            "pool should be reasonably filled: {}",
            pool.len()
        );
        let executor = Executor::new(&db);
        // Cardinalities stored in the pool are the true ones.
        for entry in pool.entries().iter().take(10) {
            assert_eq!(entry.cardinality, executor.cardinality(&entry.query));
        }
        // All join counts from 0 to 2 appear.
        for joins in 0..=2 {
            assert!(
                pool.entries().iter().any(|e| e.query.num_joins() == joins),
                "missing join count {joins}"
            );
        }
    }

    #[test]
    fn generated_pool_contains_predicate_free_queries() {
        let db = generate_imdb(&ImdbConfig::tiny(45));
        let pool = QueriesPool::generate(&db, 40, 2, 45);
        let from_clauses: BTreeSet<_> = pool
            .entries()
            .iter()
            .map(|e| e.query.tables().clone())
            .collect();
        for tables in from_clauses {
            assert!(
                pool.entries()
                    .iter()
                    .any(|e| e.query.tables() == &tables && e.query.predicates().is_empty()),
                "FROM clause {tables:?} lacks a predicate-free entry"
            );
        }
    }

    #[test]
    fn truncation_keeps_from_clause_coverage() {
        let db = generate_imdb(&ImdbConfig::tiny(46));
        let pool = QueriesPool::generate(&db, 80, 2, 46);
        let truncated = pool.truncated(20);
        assert!(truncated.len() <= 20);
        // Round-robin truncation keeps at least one entry from each of the first FROM clauses.
        assert!(truncated.num_from_clauses() >= pool.num_from_clauses().min(20) / 2);
        assert_eq!(pool.truncated(0).len(), 0);
        assert_eq!(pool.truncated(usize::MAX).len(), pool.len());
    }

    fn title_pred(column: &str, op: crn_db::value::CompareOp, value: i64) -> Query {
        Query::new(
            [tables::TITLE.to_string()],
            [],
            [crn_query::ast::Predicate::new(
                crn_db::schema::ColumnRef::new(tables::TITLE, column),
                op,
                value,
            )],
        )
    }

    #[test]
    fn top_k_ranks_by_shared_features_with_query_order_tie_break() {
        use crn_db::value::CompareOp;
        let mut shard = QueriesPool::new();
        let probe = title_pred("production_year", CompareOp::Eq, 1990);
        // Exact predicate match (joins the column match): the strongest anchor.
        let exact = title_pred("production_year", CompareOp::Eq, 1990);
        // Same column, different literal: a weaker anchor.
        let same_column = title_pred("production_year", CompareOp::Eq, 2001);
        // Unrelated column: weakest (only probed via the FROM clause).
        let unrelated = title_pred("kind_id", CompareOp::Le, 3);
        shard.insert(unrelated.clone(), 5);
        shard.insert(same_column.clone(), 7);
        shard.insert(exact.clone(), 9);
        assert!(anchor_score(&exact, &probe) > anchor_score(&same_column, &probe));
        assert!(anchor_score(&same_column, &probe) > anchor_score(&unrelated, &probe));

        assert!(
            shard.matching_top_k(&probe, 0).is_empty(),
            "k=0 selects none"
        );
        let top = shard.matching_top_k(&probe, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1.query, exact);
        assert_eq!(top[1].1.query, same_column);
        // k past the bucket returns the whole bucket, still rank-ordered.
        let all = shard.matching_top_k(&probe, 10);
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].1.query, unrelated);
        // Equal scores fall back to ascending query order — a total order, because
        // pool queries are distinct.
        let tie_a = title_pred("kind_id", CompareOp::Le, 1);
        let tie_b = title_pred("kind_id", CompareOp::Le, 2);
        let mut tie_shard = QueriesPool::new();
        tie_shard.insert(tie_b.clone(), 1);
        tie_shard.insert(tie_a.clone(), 1);
        let ranked = tie_shard.matching_top_k(&probe, 2);
        assert_eq!(
            ranked[0].0, ranked[1].0,
            "identical structure, identical score"
        );
        assert!(ranked[0].1.query < ranked[1].1.query);
    }

    #[test]
    fn feedback_moves_retention_weights_and_eviction_takes_the_worst() {
        use crn_db::value::CompareOp;
        let good = title_pred("production_year", CompareOp::Eq, 1990);
        let bad = title_pred("production_year", CompareOp::Eq, 1991);
        let mut shard = QueriesPool::new();
        shard.insert(good.clone(), 10);
        shard.insert(bad.clone(), 20);
        assert_eq!(shard.retention_weight(&good), DEFAULT_RETENTION_WEIGHT);
        // Perfect feedback (q-error 1) keeps the weight at 1; terrible feedback sinks it.
        assert!(shard.record_feedback(&good, 1.0));
        assert!(shard.record_feedback(&bad, 100.0));
        assert!(
            !shard.record_feedback(&Query::scan(tables::TITLE), 2.0),
            "absent query"
        );
        assert_eq!(shard.retention_weight(&good), DEFAULT_RETENTION_WEIGHT);
        assert!(shard.retention_weight(&bad) < shard.retention_weight(&good));
        // NaN q-error is clamped, never poisoning the weight.
        assert!(shard.record_feedback(&bad, f64::NAN));
        assert!(shard.retention_weight(&bad).is_finite());
        assert_eq!(shard.evict_lowest_weight(), Some(bad));
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.matching(&good).count(), 1, "indexes survive eviction");
        // All-default weights: the tie breaks on ascending query order.
        let mut ties = QueriesPool::new();
        let a = title_pred("kind_id", CompareOp::Le, 1);
        let b = title_pred("kind_id", CompareOp::Le, 2);
        ties.insert(b.clone(), 1);
        ties.insert(a.clone(), 1);
        assert_eq!(ties.evict_lowest_weight(), Some(a.min(b)));
    }

    #[test]
    fn compaction_merges_structural_near_duplicates_keeping_the_best_retained() {
        use crn_db::value::CompareOp;
        let mut shard = QueriesPool::new();
        // Three literal-only variants of one structure, plus one distinct structure.
        let v1 = title_pred("production_year", CompareOp::Eq, 1990);
        let v2 = title_pred("production_year", CompareOp::Eq, 1991);
        let v3 = title_pred("production_year", CompareOp::Eq, 1992);
        let other = title_pred("kind_id", CompareOp::Le, 3);
        for (query, cardinality) in [(&v1, 10u64), (&v2, 11), (&v3, 12), (&other, 13)] {
            shard.insert(query.clone(), cardinality);
        }
        // v2 has the best feedback record of its group; v1/v3 sank.
        assert!(shard.record_feedback(&v1, 50.0));
        assert!(shard.record_feedback(&v3, 50.0));
        assert_eq!(shard.compact(), 2, "two near-duplicates merged away");
        assert_eq!(shard.len(), 2);
        assert_eq!(
            shard.matching(&v2).count(),
            2,
            "v2 and other share the FROM clause"
        );
        assert_eq!(shard.matching(&v2).next().unwrap().cardinality, 11);
        assert!(shard.matching(&other).any(|e| e.query == other));
        // Idempotent once every structure is unique; the shard still accepts inserts.
        assert_eq!(shard.compact(), 0);
        shard.insert(v1.clone(), 99);
        assert_eq!(shard.len(), 3);
        // Equal weights inside a group: the smallest query survives.
        let mut ties = QueriesPool::new();
        ties.insert(v2.clone(), 2);
        ties.insert(v1.clone(), 1);
        assert_eq!(ties.compact(), 1);
        assert_eq!(ties.entries()[0].query, v1.clone().min(v2));
    }
}

#[cfg(test)]
pub(crate) mod index_proptests {
    //! Property tests of the canonical-hash duplicate index: under random interleavings of
    //! insert / remove / serialization reload, the indexed pool must agree operation by
    //! operation with a brute-force oracle that scans linearly (the O(n²) semantics the
    //! index replaced).

    use super::*;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    /// A brute-force pool with the exact same semantics: first insert wins, removal shifts,
    /// membership by full query equality via linear scan.
    #[derive(Default)]
    pub(crate) struct OraclePool {
        pub(crate) entries: Vec<(Query, u64)>,
    }

    impl OraclePool {
        pub(crate) fn insert(&mut self, query: Query, cardinality: u64) {
            if !self.entries.iter().any(|(q, _)| *q == query) {
                self.entries.push((query, cardinality));
            }
        }

        pub(crate) fn remove(&mut self, query: &Query) -> Option<u64> {
            let position = self.entries.iter().position(|(q, _)| q == query)?;
            Some(self.entries.remove(position).1)
        }

        pub(crate) fn matching(&self, query: &Query) -> Vec<(&Query, u64)> {
            let key = from_key(query);
            self.entries
                .iter()
                .filter(|(q, _)| from_key(q) == key)
                .map(|(q, c)| (q, *c))
                .collect()
        }

        pub(crate) fn num_from_clauses(&self) -> usize {
            self.entries
                .iter()
                .map(|(q, _)| from_key(q))
                .collect::<std::collections::BTreeSet<String>>()
                .len()
        }
    }

    /// A fixed universe of candidate queries with plenty of duplicates-by-construction, so
    /// random op sequences actually hit the duplicate and ghost-bucket paths.
    pub(crate) fn query_universe() -> &'static Vec<Query> {
        static UNIVERSE: OnceLock<Vec<Query>> = OnceLock::new();
        UNIVERSE.get_or_init(|| {
            let db = generate_imdb(&ImdbConfig::tiny(60));
            let mut gen = QueryGenerator::new(&db, GeneratorConfig::with_max_joins(60, 2));
            gen.generate_queries(24)
        })
    }

    fn assert_pools_agree(pool: &QueriesPool, oracle: &OraclePool) -> Result<(), String> {
        prop_assert_eq!(pool.len(), oracle.entries.len());
        // Same entries in the same (insertion, shifted-by-removal) order.
        for (entry, (query, cardinality)) in pool.entries().iter().zip(&oracle.entries) {
            prop_assert_eq!(&entry.query, query);
            prop_assert_eq!(entry.cardinality, *cardinality);
        }
        // FROM-clause lookups agree for every universe query, and no ghost clauses linger.
        for query in query_universe() {
            let via_index: Vec<(&Query, u64)> = pool
                .matching(query)
                .map(|e| (&e.query, e.cardinality))
                .collect();
            prop_assert_eq!(via_index, oracle.matching(query));
        }
        prop_assert_eq!(pool.num_from_clauses(), oracle.num_from_clauses());
        Ok(())
    }

    /// A real generated pool document (pure ASCII, so any byte XOR-ed with a mask below
    /// 128 keeps it valid UTF-8 and every damaged copy reaches the JSON parser).
    fn generated_pool_json() -> &'static str {
        static JSON: OnceLock<String> = OnceLock::new();
        JSON.get_or_init(|| {
            let db = generate_imdb(&ImdbConfig::tiny(61));
            let json =
                serde_json::to_string(&QueriesPool::generate(&db, 30, 2, 61)).expect("serializes");
            assert!(json.is_ascii());
            json
        })
    }

    /// A damaged document must load as an error or as a pool whose every FROM bucket holds
    /// only entries of that FROM key, and which serves and mutates without panicking.
    fn check_damaged_document(text: &str) -> Result<(), String> {
        let Ok(mut pool) = serde_json::from_str::<QueriesPool>(text) else {
            return Ok(());
        };
        let keys: Vec<String> = pool.from_keys().map(str::to_string).collect();
        for key in &keys {
            for entry in pool.matching_key(key) {
                prop_assert_eq!(&from_key(&entry.query), key);
            }
        }
        for entry in pool.entries().to_vec() {
            prop_assert!(pool.matching(&entry.query).any(|e| e.query == entry.query));
            prop_assert!(!pool.matching_top_k(&entry.query, 4).is_empty());
        }
        if let Some(first) = pool.entries().first().map(|e| e.query.clone()) {
            pool.record_feedback(&first, 3.0);
            pool.compact();
            pool.remove(&first);
            pool.insert(first, 1);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random insert/remove/reload interleavings: the indexed pool and the linear-scan
        /// oracle agree on every returned value and on the full observable state.
        #[test]
        fn insert_remove_reload_agree_with_scan_oracle(seed in 0u64..10_000) {
            let universe = query_universe();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool = QueriesPool::new();
            let mut oracle = OraclePool::default();
            for op in 0..40 {
                let query = universe[rng.gen_range(0..universe.len())].clone();
                match rng.gen_range(0..10u32) {
                    // Inserts dominate so the pool actually grows.
                    0..=5 => {
                        let cardinality = rng.gen_range(0..1000u64);
                        pool.insert(query.clone(), cardinality);
                        oracle.insert(query, cardinality);
                    }
                    6..=8 => {
                        let (mine, theirs) = (pool.remove(&query), oracle.remove(&query));
                        prop_assert!(
                            mine == theirs,
                            "op {op}: remove returned {mine:?}, oracle {theirs:?}"
                        );
                    }
                    _ => {
                        // Serialization reload: drops the (unserialized) hash index, which
                        // must lazily rebuild on the next mutation.
                        let json = serde_json::to_string(&pool)
                            .map_err(|e| format!("serialize: {e}"))?;
                        pool = serde_json::from_str(&json)
                            .map_err(|e| format!("deserialize: {e}"))?;
                    }
                }
                assert_pools_agree(&pool, &oracle)?;
            }
        }

        /// A real pool document truncated at any byte, or with any one byte flipped, loads
        /// as an error or as a pool that keeps every bucket to its own FROM key.
        #[test]
        fn truncated_or_flipped_pool_documents_never_misroute(
            cut in 0usize..1 << 20,
            at in 0usize..1 << 20,
            mask in 1u8..128,
        ) {
            let json = generated_pool_json();
            check_damaged_document(&json[..cut % (json.len() + 1)])?;
            let mut flipped = json.as_bytes().to_vec();
            flipped[at % json.len()] ^= mask;
            check_damaged_document(std::str::from_utf8(&flipped).expect("ASCII stays ASCII"))?;
        }
    }
}
