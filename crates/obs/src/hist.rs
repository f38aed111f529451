//! Fixed-bucket log-linear latency histograms with per-thread shards.
//!
//! The hot path is a single relaxed `fetch_add` on a shard picked by a thread-local
//! slot, so concurrent recorders never contend on a cache line. Shards are merged only
//! when read. Buckets are log-linear: each value below 16 has a bucket of its
//! own, and above that every power-of-two octave `[2^k, 2^(k+1))` is cut into 16 equal
//! linear sub-buckets, so a bucket is at most 1/16 as wide as its lower bound and a
//! quantile read off the histogram is within 6.25 % of the exact sorted-oracle value.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// log₂ of the number of linear sub-buckets per octave (and of the exact-bucket count).
const SUB_BITS: u32 = 4;

/// Number of buckets: 16 exact ones for 0–15, then 16 sub-buckets for each of the 60
/// octaves `[2^k, 2^(k+1))`, `k = 4..=63`, that make up the rest of a `u64`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

static THREAD_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small dense per-thread slot index, assigned once per thread on first record.
fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut index = slot.get();
        if index == usize::MAX {
            index = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
            slot.set(index);
        }
        index
    })
}

/// The bucket a value lands in: `16 · shift + (value >> shift)`, where `shift` keeps the
/// value's top five bits (its leading 1, then the 16-way sub-bucket) — so below 32,
/// where `shift` is 0, the value itself.
pub fn bucket_index(value: u64) -> usize {
    let shift = (63 - (value | 1).leading_zeros()).saturating_sub(SUB_BITS);
    ((shift as usize) << SUB_BITS) + (value >> shift) as usize
}

/// The inclusive `[lower, upper]` value range of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let sub = 1usize << SUB_BITS;
    if index < sub {
        return (index as u64, index as u64);
    }
    let shift = index / sub - 1;
    let lower = ((index % sub + sub) as u64) << shift;
    (lower, lower + ((1u64 << shift) - 1))
}

struct Shard {
    counts: [AtomicU64; BUCKETS],
}

impl Shard {
    fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A concurrent log-linear histogram. Recording is one relaxed atomic add on a
/// per-thread shard; reads merge the shards.
pub struct Hist {
    shards: Box<[Shard]>,
}

impl Hist {
    /// A histogram with `shards` independent per-thread shards (minimum 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
        }
    }

    /// Records one observation. Hot path: thread-local slot lookup + relaxed add.
    pub fn record(&self, value: u64) {
        let shard = &self.shards[thread_slot() % self.shards.len()];
        shard.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges all shards into one flat bucket array.
    pub fn merged(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for shard in self.shards.iter() {
            for (bucket, count) in shard.counts.iter().enumerate() {
                out[bucket] += count.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Total observations across all shards.
    pub fn count(&self) -> u64 {
        self.merged().iter().sum()
    }

    /// The quantile at `fraction`, mirroring the eval driver's sorted nearest-rank rule
    /// (`rank = round((n-1) · fraction)`): returns the *upper bound* of the bucket the
    /// rank falls in, so the true sorted value is never above the reported quantile and
    /// never below the same bucket's lower bound.
    pub fn quantile(&self, fraction: f64) -> u64 {
        let merged = self.merged();
        let total: u64 = merged.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total - 1) as f64 * fraction.clamp(0.0, 1.0)).round() as u64;
        let mut cumulative = 0u64;
        for (bucket, count) in merged.iter().enumerate() {
            cumulative += count;
            if cumulative > rank {
                return bucket_bounds(bucket).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("shards", &self.shards.len())
            .field("count", &self.count())
            .finish()
    }
}
