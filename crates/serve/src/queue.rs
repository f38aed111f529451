//! The bounded MPSC submission queue and its admission control.
//!
//! Submitters push `Request`s under a mutex; the single scheduler thread pops batches.
//! Admission is *load-shedding*, never blocking: a submission against a full queue (or a
//! caller already at its fairness quota, or a class at its weighted share) returns
//! [`SubmitError::Overloaded`] immediately, so an overload surfaces as explicit
//! rejections the caller can retry, shed or report — exactly the behaviour a
//! tail-latency budget wants, instead of unbounded queueing.
//!
//! Requests carry an [`SloClass`]: pending requests queue **per class** (each class has
//! its own arrival-ordered lane and its own batching window — see
//! [`RuntimeConfig::class_window`](crate::RuntimeConfig::class_window)), and weighted
//! admission bounds each class's share of the queue depth so batch/replay traffic can
//! never occupy the slots interactive traffic needs.

use crate::ticket::TicketCell;
use crn_query::ast::Query;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The latency SLO class a caller registers for (see
/// [`ServeRuntime::register_caller`](crate::ServeRuntime::register_caller)).
///
/// Each class gets its **own batching window** (interactive zero by default — served as
/// soon as the scheduler is free, latency first; batch ≈ multi-ms — fusion first) and its **own weighted share of the queue depth**
/// ([`RuntimeConfig::class_weights`](crate::RuntimeConfig::class_weights)), and the
/// scheduler always closes the most urgent eligible class's batch first.  Extensible:
/// everything downstream indexes [`SloClass::ALL`], so adding a class is adding a
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SloClass {
    /// Latency-sensitive foreground traffic (the default for unregistered callers —
    /// exactly the pre-class behaviour).
    #[default]
    Interactive,
    /// Throughput-oriented background traffic (replay, backfill, analytics): longer
    /// batching windows, a bounded share of the queue, and never able to starve
    /// interactive callers.
    Batch,
}

impl SloClass {
    /// Number of classes (the length of every per-class array in the runtime).
    pub const COUNT: usize = 2;

    /// All classes, in priority order (used for deterministic tie-breaks: when two
    /// classes are equally urgent, the earlier one closes first).
    pub const ALL: [SloClass; SloClass::COUNT] = [SloClass::Interactive, SloClass::Batch];

    /// The class's index into per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short stable name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
        }
    }
}

/// Why a submission was load-shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded submission queue is at its configured depth
    /// ([`RuntimeConfig::queue_depth`](crate::RuntimeConfig::queue_depth)).
    QueueFull,
    /// The submitting caller already has its fairness quota of pending requests
    /// ([`RuntimeConfig::per_caller_depth`](crate::RuntimeConfig::per_caller_depth)) —
    /// other callers' shares of the queue stay admissible.
    CallerQuota,
    /// The submitting caller's [`SloClass`] already holds its weighted share of the
    /// queue depth ([`RuntimeConfig::class_weights`](crate::RuntimeConfig::class_weights))
    /// — other classes' shares stay admissible, which is exactly how batch traffic is
    /// kept from starving interactive callers.
    ClassShare,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Load shed: the queue (or the caller's / the class's share of it) is full.  Retry
    /// later, shed, or fall back to a synchronous estimate.
    Overloaded {
        /// Which admission bound rejected the submission.
        reason: RejectReason,
        /// Requests pending in the queue at rejection time.
        pending: usize,
    },
    /// The runtime is shutting down and no longer admits work (already-admitted requests
    /// still complete — the scheduler drains the queue before exiting).
    ShuttingDown,
    /// A retrying submission ([`submit_retrying_for`]) exhausted its patience budget
    /// before admission succeeded — the backoff's deadline cap, so a closed-loop caller
    /// under sustained overload gets a bounded-latency "no" instead of parking forever.
    ///
    /// [`submit_retrying_for`]: crate::ServeRuntime::submit_retrying_for
    DeadlineExceeded,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { reason, pending } => match reason {
                RejectReason::QueueFull => {
                    write!(f, "overloaded: submission queue full ({pending} pending)")
                }
                RejectReason::CallerQuota => write!(
                    f,
                    "overloaded: caller at its fairness quota ({pending} pending)"
                ),
                RejectReason::ClassShare => write!(
                    f,
                    "overloaded: SLO class at its weighted queue share ({pending} pending)"
                ),
            },
            SubmitError::ShuttingDown => write!(f, "runtime is shutting down"),
            SubmitError::DeadlineExceeded => {
                write!(f, "submission deadline exceeded while retrying admission")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One admitted request: the query, its completion cell and admission bookkeeping.
pub(crate) struct Request {
    pub(crate) caller: u64,
    pub(crate) query: Query,
    pub(crate) ticket: Arc<TicketCell>,
    pub(crate) enqueued: Instant,
    /// Absolute deadline after which the request must not be executed: the scheduler
    /// sheds it at batch-pop time and its ticket resolves
    /// [`Expired`](crate::ticket::TicketError::Expired).  `None` = no deadline.
    pub(crate) deadline: Option<Instant>,
    /// The trace minted at submission when observability is enabled (`None` on the
    /// zero-overhead disabled path) — carried to the scheduler, which fills in the
    /// per-segment [`RequestTrace`](crn_obs::RequestTrace) at resolution.
    pub(crate) trace: Option<crn_obs::TraceStart>,
}

/// The scheduler-facing queue state (guarded by the runtime's queue mutex).
pub(crate) struct QueueState {
    /// Admitted requests in arrival order, one lane per [`SloClass`] (indexed by
    /// [`SloClass::index`]): batches are single-class, so each class's window and the
    /// most-urgent-first close decision stay independent.
    pub(crate) pending: [VecDeque<Request>; SloClass::COUNT],
    /// Pending-request count per caller (entries removed at zero), enforcing the quota.
    /// Invariant (proptest-pinned): for every caller, the entry equals its pending
    /// requests summed across class lanes — and there is **no** entry at zero.
    pub(crate) per_caller: HashMap<u64, usize>,
    /// Requests popped into a batch that has not completed yet (drained by `flush`).
    pub(crate) in_flight: usize,
    /// Set once at shutdown: admissions stop, the scheduler drains and exits.
    pub(crate) closed: bool,
}

impl QueueState {
    pub(crate) fn new() -> Self {
        QueueState {
            pending: std::array::from_fn(|_| VecDeque::new()),
            per_caller: HashMap::new(),
            in_flight: 0,
            closed: false,
        }
    }

    /// Total pending requests across all class lanes (what `queue_depth` bounds).
    pub(crate) fn total_pending(&self) -> usize {
        self.pending.iter().map(|lane| lane.len()).sum()
    }

    /// Pending requests in one class's lane.
    pub(crate) fn pending_in(&self, class: SloClass) -> usize {
        self.pending[class.index()].len()
    }

    /// The enqueue instant of the oldest pending request in one class's lane (what that
    /// class's batching window is measured from).
    pub(crate) fn oldest(&self, class: SloClass) -> Option<Instant> {
        self.pending[class.index()].front().map(|r| r.enqueued)
    }

    /// Admission control: admits the query (returning its completion cell) or rejects it
    /// with the bound that failed.  `queue_depth` bounds total pending requests,
    /// `class_share` bounds the class's lane (pass `queue_depth` for an unconstrained
    /// class), `per_caller_depth` bounds one caller's share.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit(
        &mut self,
        caller: u64,
        class: SloClass,
        query: Query,
        deadline: Option<Instant>,
        trace: Option<crn_obs::TraceStart>,
        queue_depth: usize,
        per_caller_depth: usize,
        class_share: usize,
    ) -> Result<Arc<TicketCell>, SubmitError> {
        if self.closed {
            return Err(SubmitError::ShuttingDown);
        }
        let total = self.total_pending();
        if total >= queue_depth {
            return Err(SubmitError::Overloaded {
                reason: RejectReason::QueueFull,
                pending: total,
            });
        }
        if self.pending_in(class) >= class_share {
            return Err(SubmitError::Overloaded {
                reason: RejectReason::ClassShare,
                pending: total,
            });
        }
        // Check the quota BEFORE touching the map: `entry(..).or_insert(0)` here used to
        // leave a permanent zeroed entry behind every rejection, so a rejection storm
        // from many distinct callers grew `per_caller` without bound.
        if self.per_caller.get(&caller).copied().unwrap_or(0) >= per_caller_depth {
            return Err(SubmitError::Overloaded {
                reason: RejectReason::CallerQuota,
                pending: total,
            });
        }
        *self.per_caller.entry(caller).or_insert(0) += 1;
        let ticket = TicketCell::new();
        self.pending[class.index()].push_back(Request {
            caller,
            query,
            ticket: Arc::clone(&ticket),
            enqueued: Instant::now(),
            deadline,
            trace,
        });
        Ok(ticket)
    }

    /// Releases one caller's quota share (on pop or deadline shed).
    fn release_quota(&mut self, caller: u64) {
        match self.per_caller.get_mut(&caller) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                self.per_caller.remove(&caller);
            }
        }
    }

    /// Removes every pending request whose deadline has passed at `now`, releasing its
    /// quota share, and returns them (class-priority order, arrival order within a
    /// class) for the scheduler to resolve as expired.  Runs right before a batch pops,
    /// so no expired request ever executes.
    pub(crate) fn shed_expired(&mut self, now: Instant) -> Vec<Request> {
        if self
            .pending
            .iter()
            .flatten()
            .all(|request| request.deadline.is_none_or(|deadline| deadline > now))
        {
            return Vec::new();
        }
        let mut expired = Vec::new();
        for lane in &mut self.pending {
            let mut kept = VecDeque::with_capacity(lane.len());
            for request in lane.drain(..) {
                match request.deadline {
                    Some(deadline) if deadline <= now => expired.push(request),
                    _ => kept.push_back(request),
                }
            }
            *lane = kept;
        }
        for request in &expired {
            self.release_quota(request.caller);
        }
        expired
    }

    /// Pops up to `max` requests of one class in arrival order into a batch, releasing
    /// their callers' quota shares and counting them in flight.
    pub(crate) fn pop_batch(&mut self, class: SloClass, max: usize) -> Vec<Request> {
        let lane = &mut self.pending[class.index()];
        let take = lane.len().min(max);
        let batch: Vec<Request> = lane.drain(..take).collect();
        for request in &batch {
            self.release_quota(request.caller);
        }
        self.in_flight += batch.len();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Query {
        Query::scan("title")
    }

    /// Interactive-class admission with an unconstrained class share — the pre-class
    /// admission shape every legacy call maps to.
    fn admit_plain(
        state: &mut QueueState,
        caller: u64,
        deadline: Option<Instant>,
        queue_depth: usize,
        per_caller_depth: usize,
    ) -> Result<Arc<TicketCell>, SubmitError> {
        state.admit(
            caller,
            SloClass::Interactive,
            query(),
            deadline,
            None,
            queue_depth,
            per_caller_depth,
            queue_depth,
        )
    }

    #[test]
    fn admission_enforces_queue_depth_and_caller_quota() {
        let mut state = QueueState::new();
        // Caller 1 fills its quota of 2; the third submission is shed with CallerQuota
        // while caller 2 is still admissible — per-caller fairness.
        assert!(admit_plain(&mut state, 1, None, 4, 2).is_ok());
        assert!(admit_plain(&mut state, 1, None, 4, 2).is_ok());
        assert_eq!(
            admit_plain(&mut state, 1, None, 4, 2)
                .map(|_| ())
                .unwrap_err(),
            SubmitError::Overloaded {
                reason: RejectReason::CallerQuota,
                pending: 2,
            }
        );
        assert!(admit_plain(&mut state, 2, None, 4, 2).is_ok());
        assert!(admit_plain(&mut state, 3, None, 4, 2).is_ok());
        // The queue itself is now at depth 4: even a fresh caller is shed.
        let rejection = admit_plain(&mut state, 4, None, 4, 2)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            rejection,
            SubmitError::Overloaded {
                reason: RejectReason::QueueFull,
                pending: 4,
            }
        );
        assert!(rejection.to_string().contains("queue full"));

        // Popping a batch releases quota shares: caller 1 can submit again.
        let batch = state.pop_batch(SloClass::Interactive, 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(state.in_flight, 3);
        assert_eq!(state.total_pending(), 1);
        assert!(admit_plain(&mut state, 1, None, 4, 2).is_ok());

        // Closing stops admission entirely.
        state.closed = true;
        assert_eq!(
            admit_plain(&mut state, 9, None, 4, 2)
                .map(|_| ())
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn rejected_callers_leave_no_quota_entries() {
        // Regression: `admit` used to insert a zeroed `per_caller` entry *before* the
        // quota check, so every rejected caller left a permanent entry behind and the
        // map grew without bound under a rejection storm from distinct callers.
        let mut state = QueueState::new();
        for caller in 0..64u64 {
            assert_eq!(
                admit_plain(&mut state, caller, None, 64, 0)
                    .map(|_| ())
                    .unwrap_err(),
                SubmitError::Overloaded {
                    reason: RejectReason::CallerQuota,
                    pending: 0,
                }
            );
        }
        assert!(
            state.per_caller.is_empty(),
            "zero-quota rejections must not create quota entries"
        );

        // Same under a queue-full storm: fill the queue, then reject a wave of fresh
        // callers — the map keeps exactly the admitted callers.
        for caller in 0..4u64 {
            assert!(admit_plain(&mut state, caller, None, 4, 4).is_ok());
        }
        for caller in 100..164u64 {
            assert!(admit_plain(&mut state, caller, None, 4, 4).is_err());
        }
        assert_eq!(state.per_caller.len(), 4, "only admitted callers tracked");

        // And under class-share rejections: a capped class sheds without touching the
        // quota map either.
        for caller in 200..232u64 {
            assert_eq!(
                state
                    .admit(caller, SloClass::Batch, query(), None, None, 64, 64, 0)
                    .map(|_| ())
                    .unwrap_err(),
                SubmitError::Overloaded {
                    reason: RejectReason::ClassShare,
                    pending: 4,
                }
            );
        }
        assert_eq!(state.per_caller.len(), 4);
    }

    #[test]
    fn class_share_bounds_one_class_while_others_stay_admissible() {
        let mut state = QueueState::new();
        // Batch's share is 2 of depth 8: the third batch submission sheds with
        // ClassShare...
        assert!(state
            .admit(7, SloClass::Batch, query(), None, None, 8, 8, 2)
            .is_ok());
        assert!(state
            .admit(7, SloClass::Batch, query(), None, None, 8, 8, 2)
            .is_ok());
        let rejection = state
            .admit(7, SloClass::Batch, query(), None, None, 8, 8, 2)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            rejection,
            SubmitError::Overloaded {
                reason: RejectReason::ClassShare,
                pending: 2,
            }
        );
        assert!(rejection.to_string().contains("weighted queue share"));
        // ...while interactive traffic still has the rest of the queue: the starvation
        // guarantee in one assertion.
        for caller in 0..6u64 {
            assert!(state
                .admit(caller, SloClass::Interactive, query(), None, None, 8, 8, 6)
                .is_ok());
        }
        assert_eq!(state.total_pending(), 8);
        assert_eq!(state.pending_in(SloClass::Batch), 2);
        assert_eq!(state.pending_in(SloClass::Interactive), 6);
        // Lanes pop independently, in arrival order.
        let batch = state.pop_batch(SloClass::Batch, 8);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|r| r.caller == 7));
        assert_eq!(state.pending_in(SloClass::Interactive), 6);
    }

    #[test]
    fn shed_expired_removes_only_passed_deadlines_and_releases_quota() {
        let mut state = QueueState::new();
        let now = Instant::now();
        let passed = Some(now - std::time::Duration::from_millis(1));
        let future = Some(now + std::time::Duration::from_secs(60));
        admit_plain(&mut state, 1, passed, 8, 8).expect("admitted");
        admit_plain(&mut state, 1, future, 8, 8).expect("admitted");
        admit_plain(&mut state, 2, None, 8, 8).expect("admitted");
        admit_plain(&mut state, 2, passed, 8, 8).expect("admitted");

        let expired = state.shed_expired(now);
        assert_eq!(
            expired.iter().map(|r| r.caller).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(state.total_pending(), 2);
        assert_eq!(state.per_caller[&1], 1);
        assert_eq!(state.per_caller[&2], 1);
        assert_eq!(state.in_flight, 0, "shed requests never count in flight");
        // Nothing else is due yet: the scan sheds nothing and keeps the order.
        assert!(state
            .shed_expired(now + std::time::Duration::from_secs(1))
            .is_empty());
        assert_eq!(state.total_pending(), 2);
        // Once the future deadline passes, it sheds too; the deadline-free request stays.
        let late = state.shed_expired(now + std::time::Duration::from_secs(61));
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].caller, 1);
        assert_eq!(state.total_pending(), 1);
        assert!(!state.per_caller.contains_key(&1));
    }

    #[test]
    fn shed_expired_covers_every_class_lane() {
        let mut state = QueueState::new();
        let now = Instant::now();
        let passed = Some(now - std::time::Duration::from_millis(1));
        state
            .admit(1, SloClass::Interactive, query(), passed, None, 8, 8, 8)
            .expect("admitted");
        state
            .admit(2, SloClass::Batch, query(), passed, None, 8, 8, 8)
            .expect("admitted");
        state
            .admit(3, SloClass::Batch, query(), None, None, 8, 8, 8)
            .expect("admitted");
        let expired = state.shed_expired(now);
        assert_eq!(
            expired.iter().map(|r| r.caller).collect::<Vec<_>>(),
            vec![1, 2],
            "class-priority order, arrival order within a class"
        );
        assert_eq!(state.pending_in(SloClass::Batch), 1);
        assert_eq!(state.per_caller.len(), 1);
    }

    #[test]
    fn pop_batch_respects_arrival_order_and_max() {
        let mut state = QueueState::new();
        for caller in 0..5u64 {
            admit_plain(&mut state, caller, None, 16, 16).expect("admitted");
        }
        let first = state.pop_batch(SloClass::Interactive, 2);
        assert_eq!(
            first.iter().map(|r| r.caller).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let rest = state.pop_batch(SloClass::Interactive, 16);
        assert_eq!(
            rest.iter().map(|r| r.caller).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(state.per_caller.is_empty(), "all quota shares released");
        assert_eq!(state.in_flight, 5);
        assert!(state.pop_batch(SloClass::Interactive, 4).is_empty());
    }

    /// Satellite property test: the quota map is *exactly* the pending counts under any
    /// interleaving of admissions, deadline sheds and per-class batch pops — no stale
    /// entries, no zero entries, no drift (the invariant the weighted-admission layer is
    /// built on).
    mod quota_props {
        use super::*;
        use proptest::prelude::*;

        /// A tiny deterministic PRNG (splitmix64) deriving an op sequence from one
        /// sampled seed — the vendored `proptest` shim provides range strategies only.
        struct OpRng(u64);

        impl OpRng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }

        proptest! {
            #[test]
            fn per_caller_always_equals_pending_counts(
                seed in 0u64..1_000_000,
                op_count in 1usize..80,
            ) {
                let mut rng = OpRng(seed);
                let mut state = QueueState::new();
                let epoch = Instant::now();
                for _ in 0..op_count {
                    match rng.next() % 4 {
                        // Admissions dominate the mix so pops and sheds have work.
                        0 | 1 => {
                            let caller = rng.next() % 6;
                            let class = SloClass::ALL[(rng.next() % SloClass::COUNT as u64) as usize];
                            // An already-passed deadline makes the request sheddable on
                            // the next `shed_expired`; a far-future one never sheds.
                            let deadline = if rng.next().is_multiple_of(2) {
                                Some(epoch)
                            } else {
                                Some(epoch + std::time::Duration::from_secs(3600))
                            };
                            let _ = state.admit(caller, class, query(), deadline, None, 12, 4, 8);
                        }
                        2 => {
                            let _ = state.shed_expired(Instant::now());
                        }
                        _ => {
                            let class = SloClass::ALL[(rng.next() % SloClass::COUNT as u64) as usize];
                            let max = (rng.next() % 9) as usize;
                            let _ = state.pop_batch(class, max);
                        }
                    }
                    let mut recount: HashMap<u64, usize> = HashMap::new();
                    for request in state.pending.iter().flatten() {
                        *recount.entry(request.caller).or_insert(0) += 1;
                    }
                    // The quota map must equal the recounted pending requests exactly.
                    prop_assert_eq!(&recount, &state.per_caller);
                    prop_assert!(
                        state.per_caller.values().all(|&count| count > 0),
                        "no zero entries may linger"
                    );
                }
            }
        }
    }
}
