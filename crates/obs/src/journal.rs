//! The bounded structured event journal: a ring buffer of timestamped serving events
//! (batch closes, supervisor restarts, gate decisions, pool maintenance, worker
//! losses). Overflow drops the *oldest* entries and counts them, so a wedged
//! exporter can never grow the journal without bound.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A structured serving event. Variants carry only plain data; every field renders
/// into the JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The scheduler closed a batch.
    BatchClosed {
        /// Why the batch closed: `"size"`, `"window"` or `"drain"`.
        reason: &'static str,
        /// Requests in the batch.
        size: usize,
    },
    /// A supervised lane crashed and was restarted.
    SupervisorRestart {
        /// Lane name (`"scheduler"`, `"maintenance"`, `"refresh"`).
        lane: &'static str,
        /// Restart count for that lane so far.
        restarts: u64,
    },
    /// A supervised lane exhausted its restart budget and degraded.
    LaneDegraded {
        /// Lane name.
        lane: &'static str,
    },
    /// The online refresh controller made a gate decision.
    GateDecision {
        /// Outcome: `"applied"`, `"rejected-by-gate"` or `"no-training-pairs"`.
        decision: &'static str,
        /// Drift-window median q-error at decision time.
        window_median: f64,
    },
    /// A warm-start fine-tune cycle completed (before the gate verdict).
    FineTune {
        /// Wall-clock fine-tune duration in microseconds.
        duration_us: u64,
        /// Training pairs in the cycle's corpus.
        pairs: usize,
    },
    /// The pool evicted entries under retention pressure.
    PoolEviction {
        /// Entries evicted since the previous journal entry.
        evicted: u64,
    },
    /// The pool was compacted: after a model swap, or on the maintenance lane's
    /// `compact_every` cadence.
    PoolCompaction {
        /// Entries re-anchored or merged by the compaction.
        merged: usize,
    },
    /// An estimate-cache probe found entries filed under older versions than their
    /// queries' current `(FROM bucket, model)` pairing, and dropped them (one event per
    /// probe that dropped any).
    CachePurge {
        /// Entries dropped by the probe.
        purged: u64,
    },
    /// A cluster coordinator lost contact with a worker process (dead connection or
    /// exceeded timeout); the worker's shards degrade to the fallback path until it
    /// reconnects.
    WorkerLost {
        /// Zero-based worker index in the fleet.
        worker: usize,
    },
}

impl Event {
    /// Short machine-readable event kind for the `"kind"` JSON field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BatchClosed { .. } => "batch_closed",
            Event::SupervisorRestart { .. } => "supervisor_restart",
            Event::LaneDegraded { .. } => "lane_degraded",
            Event::GateDecision { .. } => "gate_decision",
            Event::FineTune { .. } => "fine_tune",
            Event::PoolEviction { .. } => "pool_eviction",
            Event::PoolCompaction { .. } => "pool_compaction",
            Event::CachePurge { .. } => "cache_purge",
            Event::WorkerLost { .. } => "worker_lost",
        }
    }

    /// Renders the variant's payload as JSON object fields (no braces), e.g.
    /// `"reason":"size","size":12`.
    fn render_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Event::BatchClosed { reason, size } => {
                let _ = write!(out, "\"reason\":\"{reason}\",\"size\":{size}");
            }
            Event::SupervisorRestart { lane, restarts } => {
                let _ = write!(out, "\"lane\":\"{lane}\",\"restarts\":{restarts}");
            }
            Event::LaneDegraded { lane } => {
                let _ = write!(out, "\"lane\":\"{lane}\"");
            }
            Event::GateDecision {
                decision,
                window_median,
            } => {
                let _ = write!(
                    out,
                    "\"decision\":\"{decision}\",\"window_median\":{}",
                    crate::export::json_f64(*window_median)
                );
            }
            Event::FineTune { duration_us, pairs } => {
                let _ = write!(out, "\"duration_us\":{duration_us},\"pairs\":{pairs}");
            }
            Event::PoolEviction { evicted } => {
                let _ = write!(out, "\"evicted\":{evicted}");
            }
            Event::PoolCompaction { merged } => {
                let _ = write!(out, "\"merged\":{merged}");
            }
            Event::CachePurge { purged } => {
                let _ = write!(out, "\"purged\":{purged}");
            }
            Event::WorkerLost { worker } => {
                let _ = write!(out, "\"worker\":{worker}");
            }
        }
    }
}

/// A journal entry: a monotonic sequence number, a clock timestamp and the event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Monotonic per-journal sequence number (never reused, survives ring overflow).
    pub seq: u64,
    /// Clock microseconds at record time.
    pub at_us: u64,
    /// The event payload.
    pub event: Event,
}

impl JournalEntry {
    /// One JSONL line: `{"type":"event","seq":…,"at_us":…,"kind":…,…fields}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"at_us\":{},\"kind\":\"{}\",",
            self.seq,
            self.at_us,
            self.event.kind()
        );
        self.event.render_fields(&mut out);
        out.push('}');
        out
    }
}

struct JournalState {
    entries: VecDeque<JournalEntry>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded ring-buffer journal. All operations take one short mutex hold; the
/// serving hot path only touches it on batch-level (not per-request) events.
pub struct Journal {
    capacity: usize,
    state: Mutex<JournalState>,
}

impl Journal {
    /// A journal holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(JournalState {
                entries: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends an event at clock time `at_us`, evicting the oldest entry when full.
    pub fn record(&self, at_us: u64, event: Event) {
        let mut state = self.state.lock().expect("journal mutex");
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.entries.len() == self.capacity {
            state.entries.pop_front();
            state.dropped += 1;
        }
        state.entries.push_back(JournalEntry { seq, at_us, event });
    }

    /// All retained entries with `seq >= from_seq`, oldest first. Exporters track the
    /// last sequence they saw and pass `last + 1` to drain incrementally.
    pub fn entries_since(&self, from_seq: u64) -> Vec<JournalEntry> {
        let state = self.state.lock().expect("journal mutex");
        state
            .entries
            .iter()
            .filter(|entry| entry.seq >= from_seq)
            .cloned()
            .collect()
    }

    /// Entries evicted by ring overflow before any exporter saw them.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("journal mutex").dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.state.lock().expect("journal mutex").next_seq
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("journal mutex");
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("len", &state.entries.len())
            .field("dropped", &state.dropped)
            .finish()
    }
}
