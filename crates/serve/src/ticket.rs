//! Completion handles: the condvar-backed future-like half of a submission.
//!
//! A successful [`submit`](crate::ServeRuntime::submit) returns a [`Ticket`].  The
//! scheduler resolves it exactly once — when the batch containing the request has been
//! served, when its deadline expired in the queue, or during the shutdown drain — and
//! every resolution wakes all waiters through the same poison-robust condvar discipline
//! the worker pool uses.
//!
//! Resolution is a `Result`: [`TicketOutcome`] carries the estimate plus its
//! [`EstimateSource`] provenance (a fallback answer after a panicked batch is tagged
//! [`Degraded`](EstimateSource::Degraded) — never a silent wrong answer), and
//! [`TicketError`] distinguishes a queue-expired deadline from a batch whose even the
//! fallback path failed.  Nothing here panics at the waiter anymore: under every fault
//! the runtime injects or survives, observing a ticket yields a value the caller can
//! route on.

use crn_nn::parallel::{lock_ignoring_poison, wait_ignoring_poison, wait_timeout_ignoring_poison};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Provenance of a resolved estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSource {
    /// The estimate came from the full serving path — bit-identical to a synchronous
    /// [`EstimatorService::serve`](crn_core::EstimatorService::serve) over any batch
    /// containing this query.
    Computed,
    /// The estimate was replayed from the runtime's cross-window estimate cache
    /// ([`crate::cache`]): full fidelity at memory latency.  The cached value was
    /// computed by the full serving path and is keyed on the exact
    /// `(FROM-bucket version, model version)` pairing it was computed under, so it is
    /// **bit-identical** to what recomputing the query right now would return — only
    /// the compute was skipped, never the answer changed.
    Cached,
    /// The batch's execution panicked and the estimate came from the service's
    /// stats/fallback path ([`EstimatorService::fallback_estimate`]) instead: a usable
    /// answer within budget, explicitly *not* the model's — callers that must not act
    /// on reduced-fidelity estimates route on this tag.
    ///
    /// [`EstimatorService::fallback_estimate`]: crn_core::EstimatorService::fallback_estimate
    Degraded,
}

/// What a completed request resolved to: the estimate plus batch provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicketOutcome {
    /// The cardinality estimate (see [`source`](TicketOutcome::source) for whether it
    /// came from the full serving path or the degraded fallback).
    pub estimate: f64,
    /// Where the estimate came from.
    pub source: EstimateSource,
    /// How many requests the batch that served this request fused (cross-call batching
    /// evidence: under concurrent callers and a non-zero window this exceeds 1).
    pub batch_size: usize,
    /// The runtime-wide sequence number of that batch (0-based).
    pub batch_seq: u64,
    /// How long the request waited in the submission queue before its batch closed.
    pub queue_wait: Duration,
    /// The request's per-segment span (queue-wait / batch-wait / cache-probe /
    /// shard-compute / merge, in clock microseconds), recorded only when the runtime's
    /// observability layer is enabled — `None` on the zero-overhead disabled path and
    /// on degraded resolutions.
    pub trace: Option<crn_obs::RequestTrace>,
}

impl TicketOutcome {
    /// Whether the estimate is a full-fidelity serving-path answer — directly computed,
    /// or replayed bit-identically from the estimate cache.  `false` only for the
    /// degraded fallback path.
    pub fn is_computed(&self) -> bool {
        matches!(
            self.source,
            EstimateSource::Computed | EstimateSource::Cached
        )
    }
}

/// Why a ticket resolved without an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketError {
    /// The request's deadline passed while it was still queued; the scheduler shed it
    /// before execution (counted in [`RuntimeStats::expired`](crate::RuntimeStats::expired)).
    Expired,
    /// The batch's execution panicked *and* the degraded fallback path panicked too —
    /// the runtime survives, but this request has no answer of any fidelity.
    BatchFailed,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketError::Expired => {
                write!(f, "request deadline expired before its batch executed")
            }
            TicketError::BatchFailed => write!(
                f,
                "the batch executing this request panicked and the degraded fallback failed"
            ),
        }
    }
}

impl std::error::Error for TicketError {}

/// The ticket's resolution state.
enum TicketState {
    /// Queued or in flight.
    Pending,
    /// Resolved: served (possibly degraded), expired, or failed.
    Resolved(Result<TicketOutcome, TicketError>),
}

/// The shared completion cell: written once by the scheduler, read by the ticket holder.
pub(crate) struct TicketCell {
    state: Mutex<TicketState>,
    done: Condvar,
}

impl TicketCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketCell {
            state: Mutex::new(TicketState::Pending),
            done: Condvar::new(),
        })
    }

    /// Resolves the ticket.  Called exactly once, by whichever thread settled the
    /// request (scheduler, recovery hook, or degraded-sync submitter).
    pub(crate) fn resolve(&self, resolution: Result<TicketOutcome, TicketError>) {
        let mut state = lock_ignoring_poison(&self.state);
        debug_assert!(
            matches!(*state, TicketState::Pending),
            "a ticket resolves exactly once"
        );
        *state = TicketState::Resolved(resolution);
        self.done.notify_all();
    }

    /// Resolves with a served outcome.
    pub(crate) fn complete(&self, outcome: TicketOutcome) {
        self.resolve(Ok(outcome));
    }

    /// Resolves as deadline-expired.
    pub(crate) fn expire(&self) {
        self.resolve(Err(TicketError::Expired));
    }

    /// Resolves as failed (panicked batch whose fallback also failed).
    pub(crate) fn fail(&self) {
        self.resolve(Err(TicketError::BatchFailed));
    }
}

/// The completion handle of one submitted query.
///
/// Cheap to move across threads; the submitting caller typically `wait`s (closed-loop
/// clients) or `poll`s from an event loop.  Dropping an unresolved ticket is fine — the
/// scheduler still serves the request, the outcome is simply never observed.
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = !matches!(
            *lock_ignoring_poison(&self.cell.state),
            TicketState::Pending
        );
        f.debug_struct("Ticket")
            .field("resolved", &resolved)
            .finish()
    }
}

impl Ticket {
    pub(crate) fn new(cell: Arc<TicketCell>) -> Self {
        Ticket { cell }
    }

    /// Non-blocking completion check: `Some` once the request has resolved — to an
    /// outcome (computed or degraded) or a [`TicketError`].
    pub fn poll(&self) -> Option<Result<TicketOutcome, TicketError>> {
        match *lock_ignoring_poison(&self.cell.state) {
            TicketState::Pending => None,
            TicketState::Resolved(resolution) => Some(resolution),
        }
    }

    /// Blocks until the request has resolved and returns the resolution.
    ///
    /// Every admitted request eventually resolves — the scheduler drains the queue even
    /// on shutdown, panicked batches resolve through the degraded path, expired
    /// deadlines resolve as [`TicketError::Expired`], and the supervisor's recovery
    /// hook resolves batches orphaned by a killed scheduler — so this cannot wait
    /// forever against a live or shutting-down runtime (the chaos suite's headline
    /// invariant).
    pub fn wait(&self) -> Result<TicketOutcome, TicketError> {
        let mut state = lock_ignoring_poison(&self.cell.state);
        loop {
            match *state {
                TicketState::Pending => state = wait_ignoring_poison(&self.cell.done, state),
                TicketState::Resolved(resolution) => return resolution,
            }
        }
    }

    /// [`wait`](Ticket::wait) with a wait bound: `None` if the request is still queued
    /// or in flight when `timeout` elapses (the ticket stays valid — this bounds the
    /// *observation*, the request's own queue-residency bound is its submit deadline).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<TicketOutcome, TicketError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = lock_ignoring_poison(&self.cell.state);
        loop {
            if let TicketState::Resolved(resolution) = *state {
                return Some(resolution);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _timed_out) =
                wait_timeout_ignoring_poison(&self.cell.done, state, deadline - now);
            state = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_wait_and_timeout_observe_one_completion() {
        let cell = TicketCell::new();
        let ticket = Ticket::new(Arc::clone(&cell));
        assert!(ticket.poll().is_none());
        assert!(ticket.wait_timeout(Duration::from_millis(5)).is_none());
        assert!(format!("{ticket:?}").contains("resolved: false"));

        let outcome = TicketOutcome {
            estimate: 42.5,
            source: EstimateSource::Computed,
            batch_size: 3,
            batch_seq: 7,
            queue_wait: Duration::from_micros(120),
            trace: None,
        };
        let completer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                cell.complete(outcome);
            })
        };
        // A blocking waiter wakes on completion.
        assert_eq!(ticket.wait(), Ok(outcome));
        completer.join().expect("completer exits");
        // Completion is sticky: every subsequent observation sees the same outcome.
        assert_eq!(ticket.poll(), Some(Ok(outcome)));
        assert_eq!(ticket.wait_timeout(Duration::ZERO), Some(Ok(outcome)));
        assert!(ticket.wait().expect("resolved").is_computed());
    }

    #[test]
    fn failed_and_expired_tickets_resolve_with_errors_instead_of_hanging() {
        let failed = TicketCell::new();
        let failed_ticket = Ticket::new(Arc::clone(&failed));
        failed.fail();
        assert_eq!(failed_ticket.wait(), Err(TicketError::BatchFailed));
        assert_eq!(failed_ticket.poll(), Some(Err(TicketError::BatchFailed)));

        let expired = TicketCell::new();
        let expired_ticket = Ticket::new(Arc::clone(&expired));
        expired.expire();
        assert_eq!(expired_ticket.wait(), Err(TicketError::Expired));
        assert_eq!(
            expired_ticket.wait_timeout(Duration::ZERO),
            Some(Err(TicketError::Expired))
        );
        assert!(TicketError::Expired.to_string().contains("deadline"));
    }

    #[test]
    fn degraded_outcomes_carry_their_provenance() {
        let cell = TicketCell::new();
        let ticket = Ticket::new(Arc::clone(&cell));
        cell.complete(TicketOutcome {
            estimate: 1000.0,
            source: EstimateSource::Degraded,
            batch_size: 4,
            batch_seq: 0,
            queue_wait: Duration::ZERO,
            trace: None,
        });
        let outcome = ticket.wait().expect("resolved");
        assert!(!outcome.is_computed());
        assert_eq!(outcome.source, EstimateSource::Degraded);
    }

    #[test]
    fn cached_outcomes_count_as_full_fidelity() {
        let cell = TicketCell::new();
        let ticket = Ticket::new(Arc::clone(&cell));
        cell.complete(TicketOutcome {
            estimate: 512.0,
            source: EstimateSource::Cached,
            batch_size: 2,
            batch_seq: 5,
            queue_wait: Duration::from_micros(40),
            trace: None,
        });
        let outcome = ticket.wait().expect("resolved");
        // A cache replay is bit-identical to recomputation: callers routing on
        // `is_computed` must treat it as the full path, not a degraded answer.
        assert!(outcome.is_computed());
        assert_eq!(outcome.source, EstimateSource::Cached);
    }
}
