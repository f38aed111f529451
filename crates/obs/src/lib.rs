//! # crn-obs — zero-overhead-when-off observability for the serving stack
//!
//! A dependency-free metrics + tracing layer threaded through `crn-core`, `crn-serve`,
//! `crn-online` and `crn-eval`:
//!
//! - **Metrics registry** — named counters, gauges and fixed-bucket log-linear
//!   latency histograms ([`hist`]); histogram recording is one relaxed atomic add on a
//!   per-thread shard, merged only at snapshot time.
//! - **Per-request spans** ([`span`]) — a trace ID minted at `submit`, carried through
//!   the ticket, with queue-wait / batch-wait / cache-probe / shard-compute / merge
//!   segments filled in by the scheduler. An injectable [`Clock`] keeps deterministic
//!   tests exact.
//! - **Event journal** ([`journal`]) — a bounded ring buffer of structured serving
//!   events (batch closes, supervisor restarts, gate decisions, checkpoint commits,
//!   pool maintenance).
//! - **Exporters** ([`export`]) — a periodic JSONL emitter, a one-shot Prometheus-text
//!   dump and an end-of-run plain-text table.
//!
//! The load-bearing contract is [`Obs::disabled`]: a disabled handle is a `None` inside
//! a `Clone`-able wrapper. **Counters are always live** — [`Obs::counter`] hands out a
//! private cell instead of a registry cell, so a component's counters can *be* its
//! obs counters, one relaxed add per event either way — but nothing is registered or
//! exported. Everything else (gauges, histograms, traces, the journal, the clock)
//! short-circuits on that single branch, and the instrumented crates take **no clock
//! reads and no allocations** per request on the disabled path — serving behaviour is
//! bit-identical to the pre-observability code.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod span;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use export::{render_prometheus, render_snapshot_json, render_table, JsonlEmitter};
pub use hist::{bucket_bounds, bucket_index, Hist, HistSnapshot, BUCKETS};
pub use journal::{Event, Journal, JournalEntry};
pub use metrics::{Counter, Gauge, HistHandle, Snapshot};
pub use span::{RequestTrace, TraceStart};

/// Construction-time knobs for an [`Obs`] instance. The default is **disabled**.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// When false (the default), [`Obs::new`] returns the no-op handle.
    pub enabled: bool,
    /// Ring-buffer capacity of the event journal.
    pub journal_capacity: usize,
    /// Per-thread shard count for every histogram.
    pub hist_shards: usize,
}

impl ObsConfig {
    /// The no-op configuration (the default): observability off, prior code path.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            journal_capacity: 1024,
            hist_shards: 8,
        }
    }

    /// Observability on with default journal capacity (1024) and shard count (8).
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Sets the journal ring-buffer capacity.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity.max(1);
        self
    }

    /// Sets the per-histogram shard count.
    pub fn with_hist_shards(mut self, shards: usize) -> Self {
        self.hist_shards = shards.max(1);
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

struct ObsInner {
    clock: Arc<dyn Clock>,
    registry: metrics::Registry,
    journal: Journal,
    trace_seq: AtomicU64,
}

/// The observability handle threaded through the serving stack. Cloning is an `Arc`
/// clone (or a `None` copy when disabled); on the disabled handle every method is a
/// no-op except [`counter`](Obs::counter), whose private cell still counts.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The disabled handle (the default): every operation short-circuits, and counters
    /// are private cells.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Builds a handle from `config` with the production [`MonotonicClock`].
    /// `config.enabled == false` yields the no-op handle.
    pub fn new(config: ObsConfig) -> Self {
        Self::with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// Builds a handle from `config` with an injected clock (deterministic tests pass
    /// a [`ManualClock`]).
    pub fn with_clock(config: ObsConfig, clock: Arc<dyn Clock>) -> Self {
        if !config.enabled {
            return Self::disabled();
        }
        Self {
            inner: Some(Arc::new(ObsInner {
                clock,
                registry: metrics::Registry::new(config.hist_shards),
                journal: Journal::new(config.journal_capacity),
                trace_seq: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Clock microseconds (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.clock.now_us())
            .unwrap_or(0)
    }

    /// Mints a new trace at the current clock time; `None` when disabled, so the
    /// disabled submit path takes no clock read.
    pub fn mint_trace(&self) -> Option<TraceStart> {
        self.inner.as_ref().map(|inner| TraceStart {
            id: inner.trace_seq.fetch_add(1, Ordering::Relaxed),
            submitted_us: inner.clock.now_us(),
        })
    }

    /// Registers (or looks up) a counter by name. Disabled, the counter is a private cell
    /// that still counts but is never registered or exported.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Arc::default(),
        })
    }

    /// Registers (or looks up) a gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| inner.registry.gauge(name)))
    }

    /// Registers (or looks up) a histogram by name.
    pub fn hist(&self, name: &str) -> HistHandle {
        HistHandle(self.inner.as_ref().map(|inner| inner.registry.hist(name)))
    }

    /// Appends an event to the journal at the current clock time.
    pub fn record_event(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.journal.record(inner.clock.now_us(), event);
        }
    }

    /// Journal entries with `seq >= from_seq` (empty when disabled).
    pub fn events_since(&self, from_seq: u64) -> Vec<JournalEntry> {
        self.inner
            .as_ref()
            .map(|inner| inner.journal.entries_since(from_seq))
            .unwrap_or_default()
    }

    /// A point-in-time read of every registered metric plus journal health.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => {
                let (counters, gauges, hists) = inner.registry.snapshot();
                Snapshot {
                    at_us: inner.clock.now_us(),
                    counters,
                    gauges,
                    hists,
                    journal_recorded: inner.journal.recorded(),
                    journal_dropped: inner.journal.dropped(),
                }
            }
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        assert_eq!(obs.now_us(), 0);
        assert!(obs.mint_trace().is_none());
        let counter = obs.counter("c");
        counter.inc();
        assert_eq!(counter.get(), 1, "counters stay live when disabled");
        assert_eq!(obs.counter("c").get(), 0, "never shared");
        obs.gauge("g").set(1.0);
        obs.hist("h").record(10);
        obs.record_event(Event::LaneDegraded { lane: "scheduler" });
        let snapshot = obs.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.hists.is_empty());
        assert!(obs.events_since(0).is_empty());
    }

    #[test]
    fn enabled_handle_registers_and_records() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(ObsConfig::enabled(), clock.clone());
        clock.set(42);
        let counter = obs.counter("serve.batches");
        counter.add(3);
        obs.gauge("online.median").set(1.5);
        obs.hist("serve.latency_us").record(100);
        obs.record_event(Event::CheckpointCommit { written: 1 });
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.at_us, 42);
        assert_eq!(snapshot.counters, vec![("serve.batches".to_string(), 3)]);
        assert_eq!(snapshot.gauges, vec![("online.median".to_string(), 1.5)]);
        assert_eq!(snapshot.hists.len(), 1);
        assert_eq!(snapshot.hists[0].1.count, 1);
        let events = obs.events_since(0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_us, 42);
        assert_eq!(events[0].event.kind(), "checkpoint_commit");
    }

    #[test]
    fn trace_ids_are_unique_and_timestamped() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::with_clock(ObsConfig::enabled(), clock.clone());
        clock.set(7);
        let a = obs.mint_trace().expect("enabled");
        clock.set(9);
        let b = obs.mint_trace().expect("enabled");
        assert_ne!(a.id, b.id);
        assert_eq!(a.submitted_us, 7);
        assert_eq!(b.submitted_us, 9);
    }

    #[test]
    fn same_name_shares_the_metric() {
        let obs = Obs::new(ObsConfig::enabled());
        obs.counter("x").add(2);
        obs.counter("x").add(3);
        assert_eq!(obs.counter("x").get(), 5);
    }
}
