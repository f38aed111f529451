//! The metrics registry: named counters, gauges and histograms behind cheap cloneable
//! handles. Registration takes a mutex once per name at setup time; the handles
//! themselves are lock-free (`Arc` + relaxed atomics). Counters are always live — a
//! disabled [`Obs`](crate::Obs) hands out a private, unregistered cell, so a component
//! can keep its only copy of a count in one — while gauges and histograms are no-ops
//! when disabled, costing one `Option` branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Hist, HistSnapshot};

/// A monotonically increasing counter handle: a registry cell when observability is
/// enabled (exported under its name), a private cell when disabled — counting either way.
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

/// A last-write-wins gauge handle storing an `f64`. No-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge (relaxed store of the f64 bits).
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
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
pub(crate) struct Registry {
    pub(crate) counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    pub(crate) hists: Mutex<BTreeMap<String, Arc<Hist>>>,
    pub(crate) hist_shards: usize,
}

impl Registry {
    pub(crate) fn new(hist_shards: usize) -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            hist_shards: hist_shards.max(1),
        }
    }

    pub(crate) fn counter(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            self.counters
                .lock()
                .expect("counter registry")
                .entry(name.to_string())
                .or_default(),
        )
    }

    pub(crate) fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            self.gauges
                .lock()
                .expect("gauge registry")
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
                .or_insert_with(|| Arc::new(Hist::new(self.hist_shards))),
        )
    }
}

/// A point-in-time read of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Clock microseconds at snapshot time.
    pub at_us: u64,
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Journal events recorded / dropped by ring overflow so far.
    pub journal_recorded: u64,
    /// See [`Snapshot::journal_recorded`].
    pub journal_dropped: u64,
}

/// The three metric families of a [`Snapshot`], each sorted by name.
pub(crate) type MetricTables = (
    Vec<(String, u64)>,
    Vec<(String, f64)>,
    Vec<(String, HistSnapshot)>,
);

impl Registry {
    pub(crate) fn snapshot(&self) -> MetricTables {
        let counters = self
            .counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry")
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let hists = self
            .hists
            .lock()
            .expect("hist registry")
            .iter()
            .map(|(name, hist)| (name.clone(), HistSnapshot::of(hist)))
            .collect();
        (counters, gauges, hists)
    }
}
