//! The metrics registry: named counters and histograms behind cheap cloneable handles.
//! Registration takes a mutex once per name at setup time; the handles themselves are
//! lock-free (`Arc` + relaxed atomics). Counters are always live — a disabled
//! [`Obs`](crate::Obs) hands out a private, unregistered cell, so a component can keep
//! its only copy of a count in one — while histograms are no-ops when disabled, costing
//! one `Option` branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Hist;

/// Per-thread shard count of every registered histogram.
const HIST_SHARDS: usize = 8;

/// A monotonically increasing counter handle: a registry cell when observability is
/// enabled (snapshotted under its name), a private cell when disabled — counting either
/// way.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed) and returns the previous value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Adds 1 (relaxed).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raises the value to `n` if it is lower (relaxed) — a high-water mark.
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle. Recording is one relaxed add on a per-thread shard; no-op when
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct HistHandle(pub(crate) Option<Arc<Hist>>);

impl HistHandle {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(hist) = &self.0 {
            hist.record(value);
        }
    }

    /// The underlying histogram, when enabled.
    pub fn hist(&self) -> Option<&Hist> {
        self.0.as_deref()
    }

    /// Quantile at `fraction` (bucket upper bound; 0 when disabled or empty).
    pub fn quantile(&self, fraction: f64) -> u64 {
        self.0
            .as_ref()
            .map(|hist| hist.quantile(fraction))
            .unwrap_or(0)
    }

    /// Total observations (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map(|hist| hist.count()).unwrap_or(0)
    }
}

/// The name → metric maps. Held behind a mutex that is only taken at registration and
/// snapshot time, never on the record path.
#[derive(Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<Hist>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            self.counters
                .lock()
                .expect("counter registry")
                .entry(name.to_string())
                .or_default(),
        )
    }

    pub(crate) fn hist(&self, name: &str) -> Arc<Hist> {
        Arc::clone(
            self.hists
                .lock()
                .expect("hist registry")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Hist::new(HIST_SHARDS))),
        )
    }
}

/// A point-in-time read of every registered counter, sorted by name, and of the journal.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Clock microseconds at snapshot time.
    pub at_us: u64,
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// Journal events recorded / dropped by ring overflow so far.
    pub journal_recorded: u64,
    /// See [`Snapshot::journal_recorded`].
    pub journal_dropped: u64,
}

impl Registry {
    /// `(name, value)` for every counter, sorted by name.
    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        let counters = self.counters.lock().expect("counter registry");
        counters
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }
}
