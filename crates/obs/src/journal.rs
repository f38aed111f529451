//! The bounded structured event journal: a ring buffer of timestamped serving events
//! (batch closes, supervisor restarts, lane degradation, worker losses). Overflow
//! drops the *oldest* entries and counts them, so a reader that falls behind can never
//! grow the journal without bound.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A structured serving event: a batch close, or a serving failure (a lane restart or
/// degradation, a lost worker), which is journaled as well as counted. Variants carry
/// only plain data.
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
    /// A cluster coordinator lost contact with a worker process (dead connection or
    /// exceeded timeout); the worker's shards degrade to the fallback path until it
    /// reconnects.
    WorkerLost {
        /// Zero-based worker index in the fleet.
        worker: usize,
    },
}

impl Event {
    /// Short machine-readable event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BatchClosed { .. } => "batch_closed",
            Event::SupervisorRestart { .. } => "supervisor_restart",
            Event::LaneDegraded { .. } => "lane_degraded",
            Event::WorkerLost { .. } => "worker_lost",
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

    /// All retained entries with `seq >= from_seq`, oldest first. A reader that tracks
    /// the last sequence it saw passes `last + 1` to drain incrementally.
    pub fn entries_since(&self, from_seq: u64) -> Vec<JournalEntry> {
        let state = self.state.lock().expect("journal mutex");
        state
            .entries
            .iter()
            .filter(|entry| entry.seq >= from_seq)
            .cloned()
            .collect()
    }

    /// Entries evicted by ring overflow.
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
