//! The serving runtime: batch-forming scheduler, admission front door, maintenance lane —
//! supervised, deadline-aware and checkpoint-capable.
//!
//! One [`ServeRuntime`] owns three background threads:
//!
//! * the **scheduler** runs each batch through a fixed sequence of stage functions that
//!   hand one owned batch record along:
//!   1. **close** — `close_decision`, a pure function of the queue state, the config
//!      and the clock: a class lane at the size threshold
//!      ([`RuntimeConfig::batch_max`]) closes first, then (at shutdown) the drain, then
//!      the most urgent lane whose window ([`RuntimeConfig::class_window`], measured from
//!      its oldest request) expired; otherwise the scheduler sleeps until that deadline.
//!      A zero-window lane — the interactive default — is always expired, so it closes
//!      the moment the scheduler is free, with whatever queued while the previous batch
//!      ran (work-conserving: an idle scheduler never holds a request);
//!   2. **pop** — sheds queued requests whose deadline passed (tickets resolve
//!      [`Expired`](crate::TicketError::Expired)), then pops the batch;
//!   3. **coalesce** — folds duplicate queries into one row each;
//!   4. **probe** — the estimate cache answers what it can; only the misses go on;
//!   5. **execute** — **one** [`ComputeBackend::serve`] call under containment (so
//!      cross-call traffic fuses into the same multi-query head batches a single
//!      synchronous caller would get); a panic, or a response without exactly one row
//!      per query, sends the batch to the fallback path, tagged
//!      [`Degraded`](crate::EstimateSource::Degraded) — never a hang, never a silent
//!      wrong answer;
//!   6. **resolve** — the one function that completes tickets, whatever answered them;
//!   7. **retire** — gives the batch back to the in-flight accounting;
//! * the **maintenance lane** drains the feedback queue of `(query, true cardinality)`
//!   records and applies each one to the pool as a single-swap copy-on-write
//!   [`upsert`](crn_core::ShardedPool::upsert) — the paper's §5.2 pool-refresh loop,
//!   running concurrently with serving and never blocking snapshot readers;
//! * the **checkpoint helper** runs the installed [`CheckpointWriter`] (the crash-safe
//!   persistence hook `crn-online` implements) whenever the maintenance lane's cadence
//!   ([`RuntimeConfig::checkpoint_every`]) requests one, off the lane's critical path.
//!
//! The scheduler and maintenance lane run under the [`Supervisor`]: a panic that escapes
//! the per-batch / per-upsert containment restarts the thread **with its queues intact**
//! (all lane state lives in the shared block; a batch killed mid-flight resolves through
//! the fallback path), up to the restart budget; past the budget the scheduler degrades
//! to synchronous serving — coalesce → execute → resolve as a one-request batch on the
//! submitting thread (visible in [`RuntimeStats::degraded_sync_mode`]) — and the
//! maintenance lane starts shedding: reduced service, loudly reported, instead of a dead
//! runtime.  The deterministic [`FaultInjector`] drives exactly these paths in the chaos
//! suite.
//!
//! Every counter lives once, as a `serve.<field>` [`Counter`] of the configured [`Obs`]
//! (a private cell when obs is disabled); [`ServeRuntime::stats`] reads them back.
//!
//! Shutdown is graceful: [`ServeRuntime::shutdown`] (or drop) stops admission, drains
//! both queues — every admitted ticket resolves, every accepted feedback record applies —
//! and joins all three threads.

use crate::backend::ComputeBackend;
use crate::cache::EstimateCache;
use crate::fault::{FaultInjector, FaultSite};
use crate::queue::{QueueState, RejectReason, Request, SloClass, SubmitError};
use crate::supervisor::{
    Supervisor, SupervisorPolicy, SupervisorVerdict, LANE_MAINTENANCE, LANE_SCHEDULER,
};
use crate::ticket::{EstimateSource, Ticket, TicketCell, TicketOutcome};
use crn_core::{query_hash, ServeStats};
use crn_nn::parallel::{lock_ignoring_poison, wait_ignoring_poison, wait_timeout_ignoring_poison};
use crn_obs::{Counter, Event, Gauge, HistHandle, Obs, RequestTrace, TraceStart};
use crn_query::ast::Query;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Downstream consumer of the maintenance lane's observed feedback — the channel the
/// online model-refresh subsystem (`crn-online`) listens on.
///
/// The maintenance thread calls [`observe`](FeedbackObserver::observe) for every record
/// submitted through [`ServeRuntime::record_observed`] *after* its pool upsert applied,
/// so an observer sees exactly the `(query, true cardinality, estimate)` triples that
/// reached the pool, in application order.  Observers run on the maintenance thread:
/// keep `observe` cheap (enqueue-and-return) — a slow observer stalls pool refreshes,
/// never serving.  A panicking observer is contained separately from the (already
/// applied) upsert: counted in [`RuntimeStats::observer_failed`], the lane keeps
/// draining.
pub trait FeedbackObserver: Send + Sync {
    /// One applied feedback record: the executed query, its true cardinality, and the
    /// estimate the runtime served for it (what the drift detector compares).
    fn observe(&self, query: &Query, true_cardinality: u64, estimate: f64);
}

/// The crash-safe persistence hook the maintenance lane invokes on its checkpoint
/// cadence ([`RuntimeConfig::checkpoint_every`]).
///
/// Defined here (not in `crn-online`, which implements it over the service + refresh
/// controller) so the runtime stays model-refresh-agnostic.  Implementations must write
/// **atomically** (temp-file + rename with a manifest — `crn_online::Checkpoint` is the
/// canonical one): the lane treats any `Err` or panic as a failed write, counts it in
/// [`RuntimeStats::checkpoints_failed`] and simply retries after the next interval —
/// a checkpoint failure must never take serving down with it.
pub trait CheckpointWriter: Send + Sync {
    /// Captures and durably writes one checkpoint; `Err(reason)` marks the attempt
    /// failed.
    fn write_checkpoint(&self) -> Result<(), String>;
}

/// Configuration of one [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bound on *queued* (admitted, not yet batched) requests; submissions against a full
    /// queue are shed with [`SubmitError::Overloaded`].  Depth 1 degenerates to
    /// one-request batches — the useful floor for parity testing.
    pub queue_depth: usize,
    /// Per-caller fairness quota: one caller's share of `queue_depth`.  A flooding caller
    /// is shed at this bound while other callers' submissions stay admissible.
    pub per_caller_depth: usize,
    /// Size threshold closing a batch: the scheduler stops waiting as soon as this many
    /// requests are pending.  Normalized to at most `queue_depth` — admission caps the
    /// pending count there, so a larger threshold could never be met and waiting out the
    /// window for it would be pure dead latency.
    pub batch_max: usize,
    /// Time window closing a batch: measured from the *oldest* pending request, so no
    /// admitted request waits in the queue longer than this before its batch executes.
    /// It is the interactive lane's window unless
    /// [`class_windows`](RuntimeConfig::class_windows) overrides it.
    ///
    /// Zero (the default) is work-conserving: the scheduler serves whatever has
    /// accumulated the moment it is free, so a request arriving at an idle scheduler
    /// executes at once, and a batch is whatever queued while the previous batch ran.
    /// A positive window only adds waiting at an idle scheduler (plus the timer's slack
    /// on top of the window itself), while closed-loop callers fuse anyway behind the
    /// batch in flight.  The trade-off is open-loop fusion: a burst arriving at an idle
    /// scheduler splits across about two batches instead of one, at a few percent more
    /// CPU per request.  A window ([`with_window_us`](RuntimeConfig::with_window_us))
    /// buys that fusion back with latency.
    pub batch_window: Duration,
    /// Bound on queued maintenance records; feedback against a full lane is shed (serving
    /// traffic is never displaced by maintenance).
    pub maintenance_depth: usize,
    /// Deadline attached to every [`submit`](ServeRuntime::submit) /
    /// [`submit_retrying`](ServeRuntime::submit_retrying) request that does not carry
    /// its own: a request still queued this long after submission is shed unexecuted
    /// and its ticket resolves [`Expired`](crate::TicketError::Expired).  `None` (the
    /// default) = requests wait as long as the queue holds them.
    pub default_deadline: Option<Duration>,
    /// Restart budget of the supervised lanes (scheduler, maintenance — and the refresh
    /// worker, when `crn-online` shares this runtime's supervisor).
    pub restart_policy: SupervisorPolicy,
    /// Checkpoint cadence: invoke the installed [`CheckpointWriter`] after every this
    /// many *applied* maintenance records.  0 (the default) disables checkpointing.
    pub checkpoint_every: u64,
    /// Background pool-compaction cadence: run [`ComputeBackend::compact`] on the
    /// maintenance lane after every this many *applied* feedback records — structural
    /// dedup keeping the highest-retention anchor per shape, not only post-model-swap.
    /// 0 (the default) disables periodic compaction.
    pub compact_every: u64,
    /// Per-class batching windows, indexed by [`SloClass::index`]; `None` inherits
    /// [`batch_window`](RuntimeConfig::batch_window).  Defaults: `Interactive` inherits
    /// (zero — served as soon as the scheduler is free), `Batch` gets 2ms (fusion
    /// first).  Unregistered callers are `Interactive`, so a runtime that never
    /// registers a `Batch` caller behaves exactly like the single-window runtime.
    pub class_windows: [Option<Duration>; SloClass::COUNT],
    /// Per-class admission weights, indexed by [`SloClass::index`]: class `c` may hold
    /// at most `ceil(queue_depth · wᶜ / Σw)` pending requests (at least 1), so a class
    /// with weight `w` out of `Σw` can never occupy the other classes' shares — with
    /// weights `[3, 1]`, batch/replay floods cap at a quarter of the queue and
    /// interactive callers always find the rest admissible: the starvation guarantee.
    /// All-zero (the default) disables class shares entirely — every class may use the
    /// full depth, exactly the pre-class admission behaviour.
    pub class_weights: [u32; SloClass::COUNT],
    /// Bound on the cross-window estimate cache ([`crate::cache`]): total resident
    /// entries.  Size it at ~2–4× the hot repeated working set.  0 (the default)
    /// disables the cache and restores the uncached runtime behaviour exactly —
    /// every batch enters the compute path.
    pub cache_entries: usize,
    /// Per-class default deadlines, indexed by [`SloClass::index`]; `None` inherits
    /// [`default_deadline`](RuntimeConfig::default_deadline).  Lets `Batch` traffic run
    /// with a looser staleness bound than `Interactive` — a replay pipeline tolerates
    /// seconds of queueing that would make an optimizer's estimate worthless.  Both
    /// `None` by default, so plain configurations keep the single-deadline behaviour.
    pub class_deadlines: [Option<Duration>; SloClass::COUNT],
    /// The observability handle ([`crn_obs::Obs`]) the runtime records into: its
    /// counters (registered as `serve.<RuntimeStats field>`), per-class latency
    /// histograms, per-request spans carried on [`TicketOutcome`], and the structured
    /// event journal.  The default is [`Obs::disabled`] — the counters are then private
    /// cells, and the scheduler takes the exact pre-observability code path (no clock
    /// reads, no allocations, no atomics beyond the counters).  An enabled handle shared
    /// by two runtimes sums their counters.
    pub obs: Obs,
}

impl Default for RuntimeConfig {
    /// Defaults: depth 64, no per-caller cap beyond the depth,
    /// batches of at most 32 closing as soon as the scheduler is free (zero window),
    /// maintenance lane of 1024, no request deadline, 3 restarts / 60 s supervision
    /// budget, checkpointing off, class shares off (batch-class window 2ms when a batch
    /// caller registers), estimate cache off.
    fn default() -> Self {
        RuntimeConfig {
            queue_depth: 64,
            per_caller_depth: 64,
            batch_max: 32,
            batch_window: Duration::ZERO,
            maintenance_depth: 1024,
            default_deadline: None,
            restart_policy: SupervisorPolicy::default(),
            checkpoint_every: 0,
            compact_every: 0,
            class_windows: [None, Some(Duration::from_millis(2))],
            class_weights: [0; SloClass::COUNT],
            cache_entries: 0,
            class_deadlines: [None; SloClass::COUNT],
            obs: Obs::disabled(),
        }
    }
}

impl RuntimeConfig {
    /// Sets the batching window from microseconds.
    pub fn with_window_us(mut self, micros: u64) -> Self {
        self.batch_window = Duration::from_micros(micros);
        self
    }

    /// Sets the queue depth (and caps the per-caller quota at it).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self.per_caller_depth = self.per_caller_depth.min(self.queue_depth);
        self
    }

    /// Sets the per-caller fairness quota.
    pub fn with_per_caller_depth(mut self, depth: usize) -> Self {
        self.per_caller_depth = depth.max(1);
        self
    }

    /// Sets the batch size threshold.
    pub fn with_batch_max(mut self, max: usize) -> Self {
        self.batch_max = max.max(1);
        self
    }

    /// Sets the default per-request deadline (see
    /// [`default_deadline`](RuntimeConfig::default_deadline)).
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Sets the default per-request deadline from microseconds.
    pub fn with_deadline_us(mut self, micros: u64) -> Self {
        self.default_deadline = Some(Duration::from_micros(micros));
        self
    }

    /// Sets the supervision restart budget.
    pub fn with_restart_policy(mut self, policy: SupervisorPolicy) -> Self {
        self.restart_policy = policy;
        self
    }

    /// Sets the checkpoint cadence in applied maintenance records (0 disables).
    pub fn with_checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Sets the background pool-compaction cadence in applied maintenance records
    /// (0 disables).
    pub fn with_compact_every(mut self, records: u64) -> Self {
        self.compact_every = records;
        self
    }

    /// Sets one class's batching window from microseconds; 0 makes the class inherit [`batch_window`](RuntimeConfig::batch_window).
    pub fn with_class_window_us(mut self, class: SloClass, micros: u64) -> Self {
        self.class_windows[class.index()] = if micros == 0 {
            None
        } else {
            Some(Duration::from_micros(micros))
        };
        self
    }

    /// Sets the per-class admission weights (see
    /// [`class_weights`](RuntimeConfig::class_weights); all-zero disables class shares).
    pub fn with_class_weights(mut self, weights: [u32; SloClass::COUNT]) -> Self {
        self.class_weights = weights;
        self
    }

    /// Sets the estimate-cache bound in entries (0 disables the cache).
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// Sets one class's default request deadline from microseconds (the
    /// `--class-deadline-us` CLI unit); 0 makes the class inherit
    /// [`default_deadline`](RuntimeConfig::default_deadline).
    pub fn with_class_deadline_us(mut self, class: SloClass, micros: u64) -> Self {
        self.class_deadlines[class.index()] = if micros == 0 {
            None
        } else {
            Some(Duration::from_micros(micros))
        };
        self
    }

    /// Installs the observability handle (see [`RuntimeConfig::obs`]); pass an enabled
    /// [`Obs`] to turn on metrics, spans and the event journal for this runtime.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// One class's effective default deadline: its own, or the base
    /// [`default_deadline`](RuntimeConfig::default_deadline) when unset (which may
    /// itself be `None` — wait indefinitely).
    pub fn class_deadline(&self, class: SloClass) -> Option<Duration> {
        self.class_deadlines[class.index()].or(self.default_deadline)
    }

    /// One class's effective batching window: its own, or the base
    /// [`batch_window`](RuntimeConfig::batch_window) when unset.
    pub fn class_window(&self, class: SloClass) -> Duration {
        self.class_windows[class.index()].unwrap_or(self.batch_window)
    }

    /// One class's weighted share of the queue depth: `ceil(queue_depth · wᶜ / Σw)`,
    /// at least 1 — or the full depth when every weight is zero (shares disabled).
    pub fn class_share(&self, class: SloClass) -> usize {
        let total: u64 = self.class_weights.iter().map(|&w| u64::from(w)).sum();
        if total == 0 {
            return self.queue_depth;
        }
        let weight = u64::from(self.class_weights[class.index()]);
        let share = (self.queue_depth as u64 * weight).div_ceil(total);
        (share.max(1) as usize).min(self.queue_depth)
    }
}

/// Why the scheduler closed a batch (counted in [`RuntimeStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// `batch_max` pending requests accumulated before the window expired.
    Size,
    /// The window expired with fewer than `batch_max` pending.
    Window,
    /// Shutdown drain: the queue is being emptied without waiting for windows.
    Drain,
}

impl CloseReason {
    /// Stable journal/event label.
    fn label(self) -> &'static str {
        match self {
            CloseReason::Size => "size",
            CloseReason::Window => "window",
            CloseReason::Drain => "drain",
        }
    }
}

/// Monotonic counters describing a runtime's lifetime (snapshot via
/// [`ServeRuntime::stats`]).
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Requests admitted by the submission queue (including degraded-sync submissions).
    pub submitted: u64,
    /// Requests whose tickets resolved with a full-path
    /// ([`Computed`](crate::EstimateSource::Computed)) estimate.
    pub completed: u64,
    /// Requests resolved through the degraded fallback path after their batch panicked
    /// ([`Degraded`](crate::EstimateSource::Degraded) provenance) — answered, but not by
    /// the model.
    pub degraded: u64,
    /// Requests shed unexecuted because their deadline passed while queued (tickets
    /// resolve [`Expired`](crate::TicketError::Expired)).
    pub expired: u64,
    /// Requests whose batch panicked *and* whose degraded fallback panicked too (tickets
    /// resolve [`BatchFailed`](crate::TicketError::BatchFailed); the runtime survives).
    pub failed: u64,
    /// Submissions shed because the queue was at depth.
    pub rejected_queue_full: u64,
    /// Submissions shed by the per-caller fairness quota.
    pub rejected_caller_quota: u64,
    /// Submissions shed because the caller's [`SloClass`] was at its weighted share of
    /// the queue depth (see [`RuntimeConfig::class_weights`]).
    pub rejected_class_share: u64,
    /// Batches closed (every close counts, including batches the estimate cache
    /// resolved entirely without a service call).
    pub batches: u64,
    /// Batches closed by the size threshold.
    pub size_closes: u64,
    /// Batches closed by the expired window — including every close of a zero-window
    /// lane (the interactive default), whose window has expired the moment a request
    /// is pending.
    pub window_closes: u64,
    /// Batches closed by the shutdown drain.
    pub drain_closes: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Requests answered from another in-window request's computed row: duplicate
    /// queries inside one batch (by canonical query hash) are coalesced into a single
    /// served row fanned out to every duplicate's ticket.
    pub coalesced: u64,
    /// Estimate-cache probes that hit (one probe per coalesced unique query per closed
    /// batch; the hit's estimate fans out to every duplicate's ticket).  With no
    /// degraded/failed traffic the accounting closes exactly:
    /// `serve.queries + coalesced + cache_hits == completed`.
    pub cache_hits: u64,
    /// Estimate-cache probes that missed (the query then entered the compute path and
    /// its result was filed back into the cache).  0 whenever the cache is disabled —
    /// `cache_entries: 0` takes the exact pre-cache path.
    pub cache_misses: u64,
    /// Estimates filed into the cache (one per computed unique query of a cache-enabled
    /// batch; degraded results are never cached).
    pub cache_insertions: u64,
    /// Cache fills that displaced a least-recently-used entry (the bound at work).
    pub cache_evictions: u64,
    /// Stale-generation cache entries proactively purged on observed `(pool, model)`
    /// version movement (see [`crate::EstimateCache::purge_stale`]) — without this they
    /// would only age out of the LRU, wasting capacity.
    pub cache_purged: u64,
    /// Requests served synchronously on the submitting thread because the scheduler
    /// lane breached its restart budget (see
    /// [`degraded_sync_mode`](RuntimeStats::degraded_sync_mode)).
    pub sync_served: u64,
    /// Maintenance records applied to the pool.
    pub maintenance_applied: u64,
    /// Maintenance records shed because the lane was at depth (or down).
    pub maintenance_rejected: u64,
    /// Maintenance records whose upsert panicked (contained; the lane keeps draining),
    /// or that were lost to a maintenance-thread kill / budget-breach drain.
    pub maintenance_failed: u64,
    /// Applied records whose [`FeedbackObserver`] panicked (contained separately: the
    /// upsert itself succeeded and stays counted in `maintenance_applied`).
    pub observer_failed: u64,
    /// Applied observed-feedback records whose served-estimate q-error was folded into
    /// the pool anchor's retention weight
    /// ([`record_feedback`](crn_core::ShardedPool::record_feedback)) — the signal the
    /// bounded-capacity pool's eviction ranks by.
    pub retention_updates: u64,
    /// Anchors the bounded-capacity pool evicted so far
    /// ([`ShardedPool::evictions`](crn_core::ShardedPool::evictions); 0 in unbounded
    /// mode).
    pub pool_evictions: u64,
    /// Background pool compactions the maintenance lane ran (see
    /// [`RuntimeConfig::compact_every`]; 0 when periodic compaction is disabled).
    pub compactions: u64,
    /// Requests currently queued (admitted, not yet popped into a batch) per
    /// [`SloClass`], indexed by [`SloClass::index`] — a point-in-time gauge, unlike the
    /// monotonic counters around it.
    pub queued_by_class: [u64; SloClass::COUNT],
    /// Scheduler-thread restarts the supervisor granted (panics that escaped batch
    /// containment and came back up with the queue intact).
    pub scheduler_restarts: u64,
    /// Maintenance-thread restarts the supervisor granted.
    pub maintenance_restarts: u64,
    /// True once the scheduler lane breached its restart budget: the runtime now serves
    /// every submission synchronously on the submitting thread — reduced service, said
    /// out loud.
    pub degraded_sync_mode: bool,
    /// True once the maintenance lane breached its restart budget: feedback records are
    /// shed from here on.
    pub maintenance_down: bool,
    /// Checkpoints the maintenance lane wrote successfully through the installed
    /// [`CheckpointWriter`].
    pub checkpoints_written: u64,
    /// Checkpoint attempts that failed (writer error, writer panic, or an injected
    /// [`CheckpointWrite`](crate::FaultSite::CheckpointWrite) fault) — retried after the
    /// next interval.
    pub checkpoints_failed: u64,
    /// Faults the [`FaultInjector`] fired so far (0 outside chaos runs).
    pub faults_injected: u64,
    /// The accumulated per-layer serving stats over every executed batch
    /// (see [`ServeStats::accumulate`]).
    pub serve: ServeStats,
}

impl RuntimeStats {
    /// Mean executed batch size (0 when no batch ran) — the cross-call fusion factor.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// The chaos suite's headline invariant, checkable at quiescence: every admitted
    /// request resolved one way or another — completed, degraded, expired or failed.
    /// (Cache-replayed requests count in `completed`: they are full-fidelity answers.)
    pub fn fully_resolved(&self) -> bool {
        self.submitted == self.completed + self.degraded + self.expired + self.failed
    }

    /// Estimate-cache hit rate over all probes (0 when the cache never probed — i.e.
    /// disabled or no batch closed yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Every counter, gauge and mode flag of this snapshot as `(name, value)` pairs —
    /// the **complete** enumeration the end-of-run summary prints from, so no counter
    /// can silently fall out of reporting.  Booleans render as 0/1; the per-class
    /// queue gauge expands to one entry per [`SloClass`].  The nested
    /// [`serve`](RuntimeStats::serve) stats are excluded (a [`ServeStats`] of their own);
    /// the field-coverage test enforces that every *other* field of this struct appears
    /// here, so adding a counter without extending this list fails the build's tests.
    pub fn counter_fields(&self) -> Vec<(&'static str, u64)> {
        let mut fields = vec![
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("degraded", self.degraded),
            ("expired", self.expired),
            ("failed", self.failed),
            ("rejected_queue_full", self.rejected_queue_full),
            ("rejected_caller_quota", self.rejected_caller_quota),
            ("rejected_class_share", self.rejected_class_share),
            ("batches", self.batches),
            ("size_closes", self.size_closes),
            ("window_closes", self.window_closes),
            ("drain_closes", self.drain_closes),
            ("max_batch", self.max_batch),
            ("coalesced", self.coalesced),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_insertions", self.cache_insertions),
            ("cache_evictions", self.cache_evictions),
            ("cache_purged", self.cache_purged),
            ("sync_served", self.sync_served),
            ("maintenance_applied", self.maintenance_applied),
            ("maintenance_rejected", self.maintenance_rejected),
            ("maintenance_failed", self.maintenance_failed),
            ("observer_failed", self.observer_failed),
            ("retention_updates", self.retention_updates),
            ("pool_evictions", self.pool_evictions),
            ("compactions", self.compactions),
            ("scheduler_restarts", self.scheduler_restarts),
            ("maintenance_restarts", self.maintenance_restarts),
            ("degraded_sync_mode", self.degraded_sync_mode as u64),
            ("maintenance_down", self.maintenance_down as u64),
            ("checkpoints_written", self.checkpoints_written),
            ("checkpoints_failed", self.checkpoints_failed),
            ("faults_injected", self.faults_injected),
        ];
        for class in SloClass::ALL {
            fields.push((
                match class {
                    SloClass::Interactive => "queued_by_class.interactive",
                    SloClass::Batch => "queued_by_class.batch",
                },
                self.queued_by_class[class.index()],
            ));
        }
        fields
    }
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The runtime's counters, each registered in the configured [`Obs`] as
        /// `serve.<field>` (a private cell when obs is disabled): the exporter and
        /// [`ServeRuntime::stats`] read the same atomics, one relaxed add per event.
        struct Counters {
            $($field: Counter,)*
        }

        impl Counters {
            fn new(obs: &Obs) -> Self {
                Counters {
                    $($field: obs.counter(concat!("serve.", stringify!($field))),)*
                }
            }

            /// Copies every counter into its same-named [`RuntimeStats`] field.
            fn read_into(&self, stats: &mut RuntimeStats) {
                $(stats.$field = self.$field.get();)*
            }
        }
    };
}

counters! {
    submitted, completed, degraded, expired, failed, rejected_queue_full,
    rejected_caller_quota, rejected_class_share, batches, size_closes, window_closes,
    drain_closes, max_batch, coalesced, cache_hits, cache_misses, cache_insertions,
    cache_evictions, cache_purged, retention_updates, sync_served, maintenance_applied,
    maintenance_rejected, maintenance_failed, observer_failed, checkpoints_written,
    checkpoints_failed, compactions,
}

/// The runtime's pre-registered histograms and gauges: one registry lookup each at
/// construction, so the scheduler's hot path never touches the registry mutex.  Every
/// handle is a no-op when the configured [`Obs`] is disabled; `enabled` is hoisted so
/// the scheduler can skip whole instrumentation blocks (clock reads, spans) with a
/// single branch — the disabled path is the exact pre-observability path.
struct ObsHooks {
    obs: Obs,
    enabled: bool,
    /// End-to-end served latency per [`SloClass`] (submit → resolution, µs).
    latency_us: [HistHandle; SloClass::COUNT],
    /// Queue residency per request (submit → batch close, µs).
    queue_wait_us: HistHandle,
    /// Closed-batch sizes.
    batch_size: HistHandle,
    /// Live queue-depth gauge per class, sampled at batch close.
    queued_gauge: [Gauge; SloClass::COUNT],
    /// Pool evictions already journaled (delta detection; only touched when enabled).
    journaled_pool_evictions: AtomicU64,
}

impl ObsHooks {
    fn new(obs: Obs) -> Self {
        ObsHooks {
            enabled: obs.enabled(),
            latency_us: [
                obs.hist("serve.latency_us.interactive"),
                obs.hist("serve.latency_us.batch"),
            ],
            queue_wait_us: obs.hist("serve.queue_wait_us"),
            batch_size: obs.hist("serve.batch_size"),
            queued_gauge: [
                obs.gauge("serve.queued.interactive"),
                obs.gauge("serve.queued.batch"),
            ],
            journaled_pool_evictions: AtomicU64::new(0),
            obs,
        }
    }
}

/// One queued maintenance record: the query, its observed true cardinality, and — when
/// submitted through [`ServeRuntime::record_observed`] — the estimate the runtime served
/// for it (forwarded to the [`FeedbackObserver`] after the upsert applies).
struct MaintRecord {
    query: Query,
    cardinality: u64,
    estimate: Option<f64>,
}

/// The maintenance lane's queue state (guarded by its own mutex).
struct MaintState {
    pending: VecDeque<MaintRecord>,
    /// True while the maintenance thread is applying a popped record (so `flush` waits
    /// for the in-flight upsert, not just an empty queue).
    applying: bool,
    closed: bool,
    /// Set when the lane breached its restart budget: records are shed from here on.
    dead: bool,
}

/// One closed batch: the record the scheduler's stages hand along, owned by one stage at
/// a time (and parked by `Arc` in the recovery slot while it executes).
struct Batch {
    class: SloClass,
    /// Runtime-wide sequence number, taken at coalesce time.
    seq: u64,
    /// Requests popped — what retire gives back to the in-flight count, and every
    /// outcome's `batch_size`, even after the probe resolved some members.
    size: usize,
    /// The distinct queries still to answer, with their canonical hashes.
    unique: Vec<Query>,
    hashes: Vec<u64>,
    /// The requests still to resolve.
    members: Vec<Member>,
    /// Obs-clock close time and cache-probe duration (0 with obs disabled).
    close_us: u64,
    probe_us: u64,
}

/// One request in a [`Batch`].
struct Member {
    ticket: Arc<TicketCell>,
    /// Index into [`Batch::unique`]: duplicates share a slot, and so an answer.
    slot: usize,
    queue_wait: Duration,
    trace: Option<TraceStart>,
}

/// The span segments every member of one resolution shares (queue wait is per member):
/// a batch's requests share its close, probe, compute and merge phases — that sharing
/// is the point of batching.
#[derive(Clone, Copy)]
struct Segments {
    batch_wait_us: u64,
    cache_probe_us: u64,
    shard_compute_us: u64,
    merge_us: u64,
}

/// Handoff cell between the maintenance lane and the checkpoint helper thread.  The
/// lane only flips `requested` (cheap, never blocks on IO); the helper does the actual
/// [`CheckpointWriter`] call off the critical path.  Requests coalesce: a cadence hit
/// while a write is already pending or in flight folds into that write's successor.
struct CkptState {
    /// A checkpoint is due and not yet picked up by the helper.
    requested: bool,
    /// The helper is inside a writer call right now.
    writing: bool,
    /// Shutdown: the helper drains any pending request, then exits.
    closed: bool,
}

/// Everything the background threads and the handle share.
struct Shared<B> {
    service: Arc<B>,
    config: RuntimeConfig,
    queue: Mutex<QueueState>,
    /// Submitters → scheduler: a new request (or shutdown) arrived.
    queue_ready: Condvar,
    /// Scheduler → blocked [`submit_retrying`](ServeRuntime::submit_retrying) callers: a
    /// batch was popped, so queue depth and caller quotas freed up (also signalled at
    /// shutdown so parked submitters observe `ShuttingDown`).
    queue_space: Condvar,
    /// Scheduler → `flush`/idle waiters: the queue emptied and no batch is in flight.
    queue_idle: Condvar,
    maint: Mutex<MaintState>,
    /// Feedback producers → maintenance thread.
    maint_ready: Condvar,
    /// Maintenance thread → `flush` waiters.
    maint_idle: Condvar,
    /// The downstream feedback consumer (the online refresh controller), if any.
    feedback_observer: Mutex<Option<Arc<dyn FeedbackObserver>>>,
    /// The crash-safe persistence hook, if any (see [`CheckpointWriter`]).
    checkpoint_writer: Mutex<Option<Arc<dyn CheckpointWriter>>>,
    /// Applied maintenance records since the last checkpoint attempt.
    since_checkpoint: AtomicU64,
    /// Applied maintenance records since the last background compaction (see
    /// [`RuntimeConfig::compact_every`]).
    since_compaction: AtomicU64,
    /// Maintenance → checkpoint-helper handoff (see [`CkptState`]).
    ckpt: Mutex<CkptState>,
    /// Maintenance lane → checkpoint helper: a request (or shutdown) arrived.
    ckpt_ready: Condvar,
    /// Checkpoint helper → [`flush`](ServeRuntime::flush) waiters: the writer went idle.
    ckpt_idle: Condvar,
    /// The batch the scheduler is executing, parked so the supervisor's recovery hook can
    /// resolve it if the scheduler thread dies mid-batch (nothing admitted may hang).
    inflight: Mutex<Option<Arc<Batch>>>,
    /// Caller → registered [`SloClass`] (unregistered callers are `Interactive`).
    /// Looked up outside the queue lock on every submission.
    caller_classes: Mutex<HashMap<u64, SloClass>>,
    /// The cross-window estimate cache; `None` when
    /// [`cache_entries`](RuntimeConfig::cache_entries) is 0 — the scheduler then takes
    /// the exact pre-cache path.
    cache: Option<EstimateCache>,
    /// The `(pool, model)` version pairing the scheduler last probed the cache under —
    /// movement triggers the proactive stale-generation purge.  Only the scheduler
    /// thread writes these (0 until the first cache-enabled batch).
    last_pool_version: AtomicU64,
    last_model_version: AtomicU64,
    supervisor: Arc<Supervisor>,
    injector: Arc<FaultInjector>,
    /// Set (under the queue lock) when the scheduler lane degrades: submissions execute
    /// synchronously on the submitting thread from then on.
    degraded_sync: AtomicBool,
    counters: Counters,
    serve_stats: Mutex<ServeStats>,
    /// Pre-registered histograms and gauges (no-ops when [`RuntimeConfig::obs`] is
    /// disabled).
    hooks: ObsHooks,
}

/// Blocking-retry backoff bounds of [`ServeRuntime::submit_retrying`]: exponential from
/// the floor, capped at the ceiling — bounded rather than condvar-park-forever, so a
/// missed wakeup or a dead scheduler can only ever cost one backoff step.  Public so
/// other reconnect-style loops (e.g. `crn-cluster`'s worker re-dial) share the same
/// bounded-backoff envelope instead of inventing their own.
pub const RETRY_BACKOFF_FLOOR: Duration = Duration::from_micros(50);
/// Upper bound of the [`RETRY_BACKOFF_FLOOR`] doubling schedule.
pub const RETRY_BACKOFF_CEIL: Duration = Duration::from_millis(2);

/// The async request-queue serving runtime over a [`ComputeBackend`] (in process, an
/// [`EstimatorService`](crn_core::EstimatorService)).
///
/// See the [module docs](self) for the execution model and the crate docs for the
/// bit-parity contract.  The handle is the only owner of the background threads: dropping
/// it shuts the runtime down gracefully (drain, then join).
pub struct ServeRuntime<B: ComputeBackend> {
    shared: Arc<Shared<B>>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    maintenance: Option<std::thread::JoinHandle<()>>,
    checkpoint: Option<std::thread::JoinHandle<()>>,
}

impl<B: ComputeBackend> ServeRuntime<B> {
    /// Spawns the runtime (scheduler, maintenance and checkpoint threads) over a shared
    /// service, with no faults scripted.
    pub fn new(service: Arc<B>, config: RuntimeConfig) -> Self {
        Self::with_faults(service, config, FaultInjector::none())
    }

    /// [`new`](ServeRuntime::new) with a scripted [`FaultInjector`] — the chaos suite's
    /// entry point.  With the empty plan this is exactly `new`.
    pub fn with_faults(
        service: Arc<B>,
        config: RuntimeConfig,
        injector: Arc<FaultInjector>,
    ) -> Self {
        let queue_depth = config.queue_depth.max(1);
        let config = RuntimeConfig {
            queue_depth,
            per_caller_depth: config.per_caller_depth.clamp(1, queue_depth),
            // A threshold above the queue depth could never be reached (admission caps
            // pending there), so the scheduler would always wait out the full window.
            batch_max: config.batch_max.clamp(1, queue_depth),
            maintenance_depth: config.maintenance_depth.max(1),
            ..config
        };
        let supervisor = Arc::new(Supervisor::new(config.restart_policy));
        let cache = (config.cache_entries > 0).then(|| EstimateCache::new(config.cache_entries));
        let counters = Counters::new(&config.obs);
        let hooks = ObsHooks::new(config.obs.clone());
        let shared = Arc::new(Shared {
            service,
            config,
            queue: Mutex::new(QueueState::new()),
            queue_ready: Condvar::new(),
            queue_space: Condvar::new(),
            queue_idle: Condvar::new(),
            maint: Mutex::new(MaintState {
                pending: VecDeque::new(),
                applying: false,
                closed: false,
                dead: false,
            }),
            maint_ready: Condvar::new(),
            maint_idle: Condvar::new(),
            feedback_observer: Mutex::new(None),
            checkpoint_writer: Mutex::new(None),
            since_checkpoint: AtomicU64::new(0),
            since_compaction: AtomicU64::new(0),
            ckpt: Mutex::new(CkptState {
                requested: false,
                writing: false,
                closed: false,
            }),
            ckpt_ready: Condvar::new(),
            ckpt_idle: Condvar::new(),
            inflight: Mutex::new(None),
            caller_classes: Mutex::new(HashMap::new()),
            cache,
            last_pool_version: AtomicU64::new(0),
            last_model_version: AtomicU64::new(0),
            supervisor,
            injector,
            degraded_sync: AtomicBool::new(false),
            counters,
            serve_stats: Mutex::new(ServeStats::default()),
            hooks,
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("crn-serve-scheduler".into())
                .spawn(move || scheduler_thread(&shared))
                .expect("spawn scheduler thread")
        };
        let maintenance = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("crn-serve-maintenance".into())
                .spawn(move || maintenance_thread(&shared))
                .expect("spawn maintenance thread")
        };
        let checkpoint = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("crn-serve-checkpoint".into())
                .spawn(move || checkpoint_thread(&shared))
                .expect("spawn checkpoint thread")
        };
        ServeRuntime {
            shared,
            scheduler: Some(scheduler),
            maintenance: Some(maintenance),
            checkpoint: Some(checkpoint),
        }
    }

    /// The wrapped service (its pool is the one the maintenance lane refreshes).
    pub fn service(&self) -> &Arc<B> {
        &self.shared.service
    }

    /// The runtime's (normalized) configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// The lanes' supervisor — share it with a `crn-online` `RefreshWorker` so all
    /// three supervised threads budget under one policy and report in one place.
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.shared.supervisor
    }

    /// The runtime's fault injector (the empty plan unless scripted via
    /// [`with_faults`](ServeRuntime::with_faults)).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.shared.injector
    }

    /// The runtime's observability handle (the disabled no-op handle unless an enabled
    /// [`Obs`] was installed via [`RuntimeConfig::with_obs`]) — what exporters and the
    /// eval driver snapshot metrics and drain journal events from.
    pub fn obs(&self) -> &Obs {
        &self.shared.hooks.obs
    }

    /// Registers `caller`'s latency [`SloClass`] — its requests queue in that class's
    /// lane, batch under that class's window
    /// ([`RuntimeConfig::class_window`]) and admit against that class's weighted share
    /// of the queue ([`RuntimeConfig::class_weights`]).  Unregistered callers are
    /// [`Interactive`](SloClass::Interactive); re-registering replaces the class for
    /// subsequent submissions.
    pub fn register_caller(&self, caller: u64, class: SloClass) {
        lock_ignoring_poison(&self.shared.caller_classes).insert(caller, class);
    }

    /// The class `caller`'s submissions currently admit under.
    pub fn caller_class(&self, caller: u64) -> SloClass {
        lock_ignoring_poison(&self.shared.caller_classes)
            .get(&caller)
            .copied()
            .unwrap_or_default()
    }

    /// Submits one query on behalf of `caller`, returning its completion [`Ticket`].
    ///
    /// Never blocks: a full queue (or an exhausted caller quota, or a full class share)
    /// sheds the submission with [`SubmitError::Overloaded`] immediately — admission
    /// control, not backpressure by stalling.  `caller` is an arbitrary fairness key
    /// (connection id, tenant, ...).  The request carries the caller's class deadline
    /// ([`RuntimeConfig::class_deadline`] — the class's own default, else the base
    /// [`default_deadline`](RuntimeConfig::default_deadline)), if any.
    pub fn submit(&self, caller: u64, query: Query) -> Result<Ticket, SubmitError> {
        // One class lookup picks both the deadline and the lane: a `register_caller`
        // racing this submission can then never split them across two classes.
        let class = self.caller_class(caller);
        let deadline = self.shared.config.class_deadline(class);
        self.admit(caller, class, query, deadline)
    }

    /// [`submit`](ServeRuntime::submit) with an explicit per-request deadline
    /// (overriding the configured default; `None` = wait indefinitely): if the request
    /// is still queued when the deadline passes, the scheduler sheds it unexecuted and
    /// its ticket resolves [`Expired`](crate::TicketError::Expired) — a stale answer is
    /// worth nothing to a query optimizer that already picked a plan.
    pub fn submit_with_deadline(
        &self,
        caller: u64,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        self.admit(caller, self.caller_class(caller), query, deadline)
    }

    /// The non-blocking admission path of [`submit`](ServeRuntime::submit) and
    /// [`submit_with_deadline`](ServeRuntime::submit_with_deadline), for a class the
    /// caller looked up once — outside the queue lock: registration is rare, admission
    /// is hot.
    fn admit(
        &self,
        caller: u64,
        class: SloClass,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let due = deadline.map(|d| Instant::now() + d);
        let admitted = {
            let mut state = lock_ignoring_poison(&self.shared.queue);
            // The degrade transition happens under this lock, so the flag read is
            // race-free: either we admit into a live scheduler's queue, or we serve
            // synchronously ourselves.
            if self.shared.degraded_sync.load(Ordering::Relaxed) {
                if state.closed {
                    return Err(SubmitError::ShuttingDown);
                }
                drop(state);
                return Ok(self.serve_degraded_sync(caller, class, query));
            }
            self.try_admit(&mut state, caller, class, query, due)
        };
        admitted.map(|cell| {
            self.shared.queue_ready.notify_all();
            Ticket::new(cell)
        })
    }

    /// [`submit`](ServeRuntime::submit) for closed-loop clients: when admission sheds
    /// the attempt, backs off exponentially (timed waits on the queue-space condvar,
    /// [`RETRY_BACKOFF_FLOOR`] doubling to [`RETRY_BACKOFF_CEIL`], woken early whenever
    /// the scheduler pops a batch) and retries — no busy-spinning, and each shed attempt
    /// counts once in the rejection stats.  Returns `Err` only once the runtime is
    /// shutting down.  This is the one blocking submission shape — the load generator,
    /// the benches and the parity tests all go through it, so they measure the same
    /// client behaviour.
    pub fn submit_retrying(&self, caller: u64, query: &Query) -> Result<Ticket, SubmitError> {
        self.submit_retrying_for(caller, query, None)
    }

    /// [`submit_retrying`](ServeRuntime::submit_retrying) with a patience cap: gives up
    /// with [`SubmitError::DeadlineExceeded`] if admission has not succeeded within
    /// `patience` — the bounded-latency "no" a caller with its own budget needs under
    /// sustained overload.  `None` retries indefinitely.
    pub fn submit_retrying_for(
        &self,
        caller: u64,
        query: &Query,
        patience: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let give_up = patience.map(|p| Instant::now() + p);
        let class = self.caller_class(caller);
        // The request's own execution deadline anchors at the FIRST admission attempt:
        // recomputing it per retry let the deadline slide forward with every shed
        // attempt, so a request could wait in admission + queue far longer than its
        // configured bound before expiring.  Patience bounds *admission*; the deadline
        // bounds the request's total age — both from the same submission instant.
        let due = self
            .shared
            .config
            .class_deadline(class)
            .map(|d| Instant::now() + d);
        let mut backoff = RETRY_BACKOFF_FLOOR;
        let mut state = lock_ignoring_poison(&self.shared.queue);
        loop {
            if self.shared.degraded_sync.load(Ordering::Relaxed) {
                if state.closed {
                    return Err(SubmitError::ShuttingDown);
                }
                drop(state);
                return Ok(self.serve_degraded_sync(caller, class, query.clone()));
            }
            match self.try_admit(&mut state, caller, class, query.clone(), due) {
                Ok(cell) => {
                    drop(state);
                    self.shared.queue_ready.notify_all();
                    return Ok(Ticket::new(cell));
                }
                Err(SubmitError::Overloaded { .. }) => {
                    let now = Instant::now();
                    if let Some(give_up) = give_up {
                        if now >= give_up {
                            return Err(SubmitError::DeadlineExceeded);
                        }
                    }
                    let mut wait = backoff;
                    if let Some(give_up) = give_up {
                        wait = wait.min(give_up.saturating_duration_since(now));
                    }
                    let (next, _timed_out) =
                        wait_timeout_ignoring_poison(&self.shared.queue_space, state, wait);
                    state = next;
                    backoff = (backoff * 2).min(RETRY_BACKOFF_CEIL);
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// The degraded-sync serving path: once the scheduler lane has breached its restart
    /// budget, every submission runs coalesce → execute → resolve as a one-request batch
    /// on the *submitting* thread — same service, same estimates (the bit-parity contract
    /// is per-query), no cross-call batching, no background thread to die.  Its ticket is
    /// resolved before this returns.
    fn serve_degraded_sync(&self, caller: u64, class: SloClass, query: Query) -> Ticket {
        let shared = &self.shared;
        shared.counters.submitted.inc();
        shared.counters.sync_served.inc();
        let ticket = TicketCell::new();
        let request = Request {
            caller,
            query,
            ticket: Arc::clone(&ticket),
            enqueued: Instant::now(),
            deadline: None,
            trace: None,
        };
        execute(shared, &coalesce(shared, class, vec![request]));
        Ticket::new(ticket)
    }

    /// The shared admission step of [`submit`](ServeRuntime::submit) and
    /// [`submit_retrying`](ServeRuntime::submit_retrying): runs admission control under
    /// the caller-held queue lock and keeps the counters.
    fn try_admit(
        &self,
        state: &mut QueueState,
        caller: u64,
        class: SloClass,
        query: Query,
        deadline: Option<Instant>,
    ) -> Result<Arc<TicketCell>, SubmitError> {
        // Minted only when observability is enabled — `None` otherwise, with no clock
        // read, so the disabled admission path is exactly the prior one.
        let trace = self.shared.hooks.obs.mint_trace();
        let admitted = state.admit(
            caller,
            class,
            query,
            deadline,
            trace,
            self.shared.config.queue_depth,
            self.shared.config.per_caller_depth,
            self.shared.config.class_share(class),
        );
        let counters = &self.shared.counters;
        match &admitted {
            Ok(_) => counters.submitted.inc(),
            Err(SubmitError::Overloaded { reason, .. }) => match reason {
                RejectReason::QueueFull => counters.rejected_queue_full.inc(),
                RejectReason::CallerQuota => counters.rejected_caller_quota.inc(),
                RejectReason::ClassShare => counters.rejected_class_share.inc(),
            },
            Err(_) => {}
        }
        admitted
    }

    /// Feeds one completed query's true cardinality to the maintenance lane.
    ///
    /// The record is applied asynchronously as a single-swap
    /// [`upsert`](crn_core::ShardedPool::upsert) — new entries join the pool, stale
    /// entries get their cardinality refreshed, and in-flight snapshots are untouched.
    /// A full (or budget-breached) lane sheds the record ([`SubmitError::Overloaded`]);
    /// the next execution of the same query can resubmit it.
    pub fn record_feedback(&self, query: Query, cardinality: u64) -> Result<(), SubmitError> {
        self.enqueue_maintenance(query, cardinality, None)
    }

    /// [`record_feedback`](ServeRuntime::record_feedback) carrying the estimate the
    /// runtime served for the query: after the pool upsert applies, the full
    /// `(query, true cardinality, estimate)` triple is forwarded to the configured
    /// [`FeedbackObserver`] — the feedback channel of the online model-refresh
    /// subsystem.  Without an observer this behaves exactly like `record_feedback`.
    pub fn record_observed(
        &self,
        query: Query,
        cardinality: u64,
        estimate: f64,
    ) -> Result<(), SubmitError> {
        self.enqueue_maintenance(query, cardinality, Some(estimate))
    }

    /// Installs (or replaces) the downstream feedback consumer.  Applies to records
    /// enqueued from now on; records already in the lane keep the observer that is
    /// current when they apply.
    pub fn set_feedback_observer(&self, observer: Arc<dyn FeedbackObserver>) {
        *lock_ignoring_poison(&self.shared.feedback_observer) = Some(observer);
    }

    /// Installs (or replaces) the crash-safe persistence hook the maintenance lane
    /// invokes every [`checkpoint_every`](RuntimeConfig::checkpoint_every) applied
    /// records.
    pub fn set_checkpoint_writer(&self, writer: Arc<dyn CheckpointWriter>) {
        *lock_ignoring_poison(&self.shared.checkpoint_writer) = Some(writer);
    }

    /// The shared admission step of both feedback shapes.
    fn enqueue_maintenance(
        &self,
        query: Query,
        cardinality: u64,
        estimate: Option<f64>,
    ) -> Result<(), SubmitError> {
        let mut state = lock_ignoring_poison(&self.shared.maint);
        if state.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if state.dead || state.pending.len() >= self.shared.config.maintenance_depth {
            self.shared.counters.maintenance_rejected.inc();
            return Err(SubmitError::Overloaded {
                reason: RejectReason::QueueFull,
                pending: state.pending.len(),
            });
        }
        state.pending.push_back(MaintRecord {
            query,
            cardinality,
            estimate,
        });
        drop(state);
        self.shared.maint_ready.notify_all();
        Ok(())
    }

    /// Blocks until both lanes are quiescent: no queued or in-flight request, no queued
    /// or in-flight maintenance record.  (A quiesce point for tests and drivers; new
    /// submissions may race in after it returns.)
    pub fn flush(&self) {
        {
            let mut state = lock_ignoring_poison(&self.shared.queue);
            while !(state.total_pending() == 0 && state.in_flight == 0) {
                state = wait_ignoring_poison(&self.shared.queue_idle, state);
            }
        }
        {
            let mut state = lock_ignoring_poison(&self.shared.maint);
            while !state.pending.is_empty() || state.applying {
                state = wait_ignoring_poison(&self.shared.maint_idle, state);
            }
        }
        {
            // The checkpoint helper runs off the maintenance lane's critical path, so a
            // quiesce must also wait out any write the drained records requested.
            let mut state = lock_ignoring_poison(&self.shared.ckpt);
            while state.requested || state.writing {
                state = wait_ignoring_poison(&self.shared.ckpt_idle, state);
            }
        }
    }

    /// A point-in-time snapshot of the runtime's counters and accumulated serving stats.
    pub fn stats(&self) -> RuntimeStats {
        let supervisor = &self.shared.supervisor;
        let queued_by_class = {
            let state = lock_ignoring_poison(&self.shared.queue);
            SloClass::ALL.map(|class| state.pending_in(class) as u64)
        };
        let mut stats = RuntimeStats {
            pool_evictions: self.shared.service.pool_evictions(),
            queued_by_class,
            scheduler_restarts: supervisor.restarts(LANE_SCHEDULER),
            maintenance_restarts: supervisor.restarts(LANE_MAINTENANCE),
            degraded_sync_mode: self.shared.degraded_sync.load(Ordering::Relaxed),
            maintenance_down: supervisor.degraded(LANE_MAINTENANCE),
            faults_injected: self.shared.injector.faults_injected(),
            serve: lock_ignoring_poison(&self.shared.serve_stats).clone(),
            ..RuntimeStats::default()
        };
        self.shared.counters.read_into(&mut stats);
        stats
    }

    /// Initiates the graceful drain without blocking: admission stops on both lanes
    /// ([`SubmitError::ShuttingDown`] from here on), while already-admitted requests and
    /// feedback records still execute.  Callers keep polling/waiting their tickets;
    /// [`ServeRuntime::shutdown`] (or drop) completes the drain and joins the threads.
    pub fn begin_shutdown(&self) {
        {
            let mut state = lock_ignoring_poison(&self.shared.queue);
            state.closed = true;
        }
        self.shared.queue_ready.notify_all();
        // Parked blocking submitters must wake to observe `ShuttingDown`.
        self.shared.queue_space.notify_all();
        {
            let mut state = lock_ignoring_poison(&self.shared.maint);
            state.closed = true;
        }
        self.shared.maint_ready.notify_all();
    }

    /// Graceful shutdown: stops admission, drains both queues (every admitted ticket
    /// resolves, every accepted feedback record applies), joins both threads and returns
    /// the final stats.  Dropping the runtime does the same minus the stats.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.begin_shutdown();
        if let Some(handle) = self.scheduler.take() {
            handle.join().expect("scheduler thread exits cleanly");
        }
        if let Some(handle) = self.maintenance.take() {
            handle.join().expect("maintenance thread exits cleanly");
        }
        // Only after the maintenance lane drained: its last records may still have
        // requested a checkpoint, which the helper must write before exiting.
        {
            let mut state = lock_ignoring_poison(&self.shared.ckpt);
            state.closed = true;
        }
        self.shared.ckpt_ready.notify_all();
        if let Some(handle) = self.checkpoint.take() {
            handle.join().expect("checkpoint thread exits cleanly");
        }
    }
}

impl<B: ComputeBackend> Drop for ServeRuntime<B> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl<B: ComputeBackend> std::fmt::Debug for ServeRuntime<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRuntime")
            .field("service", &self.shared.service.name())
            .field("config", &self.shared.config)
            .finish()
    }
}

/// The scheduler lane's supervision wrapper: runs [`scheduler_loop`] and, when a panic
/// escapes it (a loop bug, or an injected
/// [`SchedulerLoop`](crate::FaultSite::SchedulerLoop) kill), reconciles the shared
/// state — the orphaned in-flight batch resolves through the degraded path, nothing
/// hangs — and either re-enters the loop (queue intact) or, past the restart budget,
/// flips the runtime to degraded-sync serving.
fn scheduler_thread<B: ComputeBackend>(shared: &Arc<Shared<B>>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| scheduler_loop(shared))) {
            Ok(()) => return, // clean shutdown drain
            Err(_panic) => {
                recover_orphaned_batch(shared);
                match shared.supervisor.on_panic(LANE_SCHEDULER) {
                    SupervisorVerdict::Restart => {
                        shared.hooks.obs.record_event(Event::SupervisorRestart {
                            lane: LANE_SCHEDULER,
                            restarts: shared.supervisor.restarts(LANE_SCHEDULER),
                        });
                        continue;
                    }
                    SupervisorVerdict::Degrade => {
                        shared.hooks.obs.record_event(Event::LaneDegraded {
                            lane: LANE_SCHEDULER,
                        });
                        degrade_to_sync(shared);
                        return;
                    }
                }
            }
        }
    }
}

/// Resolves the batch a killed scheduler left parked in the recovery slot through the
/// fallback path, under the batch's own sequence number, and retires it, so `flush` and
/// waiters see a consistent queue again before the loop restarts.
fn recover_orphaned_batch<B: ComputeBackend>(shared: &Shared<B>) {
    let Some(batch) = lock_ignoring_poison(&shared.inflight).take() else {
        return;
    };
    resolve_fallback(shared, &batch);
    retire(shared, batch.size);
}

/// The budget-breach transition: flips the runtime to degraded-sync serving (under the
/// queue lock, so no submission races past the flag into a queue nobody drains) and
/// settles everything still pending — expired deadlines expire, each class lane's
/// remainder resolves through the fallback path as one batch.
fn degrade_to_sync<B: ComputeBackend>(shared: &Shared<B>) {
    let (expired, stranded) = {
        let mut state = lock_ignoring_poison(&shared.queue);
        shared.degraded_sync.store(true, Ordering::Relaxed);
        let expired = state.shed_expired(Instant::now());
        // Drain EVERY class lane: the degrade transition must strand no class.
        let stranded = SloClass::ALL.map(|class| {
            let remaining = state.pending_in(class);
            (class, state.pop_batch(class, remaining))
        });
        (expired, stranded)
    };
    shared.queue_ready.notify_all();
    shared.queue_space.notify_all();
    expire(shared, expired);
    for (class, requests) in stranded {
        let size = requests.len();
        if size > 0 {
            resolve_fallback(shared, &coalesce(shared, class, requests));
        }
        retire(shared, size);
    }
}

/// Resolves shed requests [`Expired`](crate::TicketError::Expired): their deadline passed
/// while they were queued, so they never execute.
fn expire<B: ComputeBackend>(shared: &Shared<B>, expired: Vec<Request>) {
    if expired.is_empty() {
        return;
    }
    shared.counters.expired.add(expired.len() as u64);
    for request in expired {
        request.ticket.expire();
    }
}

/// What the close rule decided (see [`close_decision`]).
#[derive(Debug, PartialEq, Eq)]
enum CloseDecision {
    /// Close a batch of this class now.
    Close(SloClass, CloseReason),
    /// Nothing is due before this instant — the most urgent lane's window deadline.
    WaitUntil(Instant),
    /// Every lane is empty.
    Idle,
}

/// The close rule, a pure function of the queue state, the config and `now`.  In
/// priority order: a lane holding `batch_max` requests closes by size (lanes in
/// [`SloClass::ALL`] order); otherwise the most urgent lane — earliest `oldest request +
/// class window`, ties in `SloClass::ALL` order — closes by drain at shutdown, or by
/// window once that deadline has passed, or the scheduler waits until it.  A zero-window
/// lane's deadline is its oldest request's arrival, never in the future, so it closes
/// the moment the scheduler is free.  Batches are single-class, so each class keeps its
/// own latency promise.
fn close_decision(state: &QueueState, config: &RuntimeConfig, now: Instant) -> CloseDecision {
    if let Some(class) = SloClass::ALL
        .into_iter()
        .find(|&class| state.pending_in(class) >= config.batch_max)
    {
        return CloseDecision::Close(class, CloseReason::Size);
    }
    let mut urgent: Option<(SloClass, Instant)> = None;
    for class in SloClass::ALL {
        let Some(oldest) = state.oldest(class) else {
            continue;
        };
        let due = oldest + config.class_window(class);
        if urgent.is_none_or(|(_, best)| due < best) {
            urgent = Some((class, due));
        }
    }
    match urgent {
        None => CloseDecision::Idle,
        Some((class, _)) if state.closed => CloseDecision::Close(class, CloseReason::Drain),
        Some((class, due)) if now >= due => CloseDecision::Close(class, CloseReason::Window),
        Some((_, due)) => CloseDecision::WaitUntil(due),
    }
}

/// The scheduler: close → pop → coalesce → probe → execute → resolve → retire, one batch
/// per pass, until the shutdown drain completes.  Panics escape to
/// [`scheduler_thread`]'s supervision.
fn scheduler_loop<B: ComputeBackend>(shared: &Shared<B>) {
    loop {
        let mut state = lock_ignoring_poison(&shared.queue);
        let (class, reason) = loop {
            let now = Instant::now();
            match close_decision(&state, &shared.config, now) {
                CloseDecision::Close(class, reason) => break (class, reason),
                CloseDecision::WaitUntil(due) => {
                    state = wait_timeout_ignoring_poison(&shared.queue_ready, state, due - now).0;
                }
                CloseDecision::Idle if state.closed => {
                    shared.queue_idle.notify_all();
                    return;
                }
                CloseDecision::Idle => state = wait_ignoring_poison(&shared.queue_ready, state),
            }
        };
        let requests = pop(shared, state, class);
        let size = requests.len();
        if size > 0 {
            let mut batch = coalesce(shared, class, requests);
            record_close(shared, &batch, reason);
            if let Some(cache) = &shared.cache {
                probe(shared, cache, &mut batch);
            }
            if !batch.unique.is_empty() {
                // Park the batch where the supervision wrapper resolves and retires it if
                // this thread dies before it resolves.  Members the probe resolved are no
                // longer in it — a ticket resolves exactly once.
                let batch = Arc::new(batch);
                *lock_ignoring_poison(&shared.inflight) = Some(Arc::clone(&batch));
                // Scripted scheduler kill: OUTSIDE every containment, mid-batch — the
                // genuine thread-death path the supervisor exists for.
                shared.injector.fire(FaultSite::SchedulerLoop);
                execute(shared, &batch);
                lock_ignoring_poison(&shared.inflight).take();
            }
        }
        retire(shared, size);
    }
}

/// Pop stage: sheds every queued request whose deadline has passed — after the close
/// decision and before the pop, so an expired request never executes and never holds
/// capacity a live one could use — then pops up to `batch_max` of `class` (none when the
/// whole lane had expired).
fn pop<B: ComputeBackend>(
    shared: &Shared<B>,
    mut state: MutexGuard<'_, QueueState>,
    class: SloClass,
) -> Vec<Request> {
    let expired = state.shed_expired(Instant::now());
    let requests = state.pop_batch(class, shared.config.batch_max);
    if shared.hooks.enabled {
        // Post-pop queue depth per class: the live gauge the JSONL export samples.
        for class in SloClass::ALL {
            shared.hooks.queued_gauge[class.index()].set(state.pending_in(class) as f64);
        }
    }
    drop(state);
    // The pop freed queue depth and caller quotas: wake parked blocking submitters.
    shared.queue_space.notify_all();
    expire(shared, expired);
    requests
}

/// Coalesce stage: stamps the next batch sequence number and folds duplicate queries
/// (same canonical hash, equality-checked against collisions) into one unique slot whose
/// estimate fans out to every duplicate — per-query results are independent of batch
/// composition (the service's bit-parity contract), so a duplicate's answer is exactly
/// what its own row would have computed.
fn coalesce<B: ComputeBackend>(
    shared: &Shared<B>,
    class: SloClass,
    requests: Vec<Request>,
) -> Batch {
    let closed_at = Instant::now();
    let size = requests.len();
    let mut batch = Batch {
        class,
        seq: shared.counters.batches.add(1),
        size,
        unique: Vec::with_capacity(size),
        hashes: Vec::with_capacity(size),
        members: Vec::with_capacity(size),
        close_us: shared.hooks.obs.now_us(),
        probe_us: 0,
    };
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::with_capacity(size);
    for request in requests {
        let hash = query_hash(&request.query);
        let candidates = by_hash.entry(hash).or_default();
        let existing = candidates
            .iter()
            .copied()
            .find(|&slot| batch.unique[slot] == request.query);
        let slot = existing.unwrap_or_else(|| {
            candidates.push(batch.unique.len());
            batch.unique.push(request.query);
            batch.hashes.push(hash);
            batch.unique.len() - 1
        });
        batch.members.push(Member {
            ticket: request.ticket,
            slot,
            queue_wait: closed_at.saturating_duration_since(request.enqueued),
            trace: request.trace,
        });
    }
    batch
}

/// Close-time bookkeeping of a batch the close rule closed — a batch the probe resolves
/// entirely still counts as closed.
fn record_close<B: ComputeBackend>(shared: &Shared<B>, batch: &Batch, reason: CloseReason) {
    let counters = &shared.counters;
    match reason {
        CloseReason::Size => counters.size_closes.inc(),
        CloseReason::Window => counters.window_closes.inc(),
        CloseReason::Drain => counters.drain_closes.inc(),
    }
    counters.max_batch.raise_to(batch.size as u64);
    counters
        .coalesced
        .add((batch.size - batch.unique.len()) as u64);
    let hooks = &shared.hooks;
    if hooks.enabled {
        hooks.batch_size.record(batch.size as u64);
        for member in &batch.members {
            hooks
                .queue_wait_us
                .record(member.queue_wait.as_micros() as u64);
        }
        hooks.obs.record_event(Event::BatchClosed {
            reason: reason.label(),
            size: batch.size,
            class: batch.class.name(),
        });
    }
}

/// Probe stage: one estimate-cache lookup per unique query, under the versions a serve
/// issued right now would take, so a hit is bit-identical to recomputation.  Hit members
/// resolve here, before the batch parks in the recovery slot — a scheduler death later
/// can then never resolve them twice — and the batch keeps only the misses, renumbered
/// densely.
fn probe<B: ComputeBackend>(shared: &Shared<B>, cache: &EstimateCache, batch: &mut Batch) {
    let start_us = shared.hooks.obs.now_us();
    let (pool_version, model_version) = shared.service.serving_versions();
    // Proactive purge on version movement: entries filed under older pairings can never
    // hit again (probes carry the current versions), so drop them now instead of letting
    // them squat in the LRU.  Only this thread writes the last-seen pair.
    let last_seen = (
        shared
            .last_pool_version
            .swap(pool_version, Ordering::Relaxed),
        shared
            .last_model_version
            .swap(model_version, Ordering::Relaxed),
    );
    if last_seen != (pool_version, model_version) {
        let purged = cache.purge_stale(pool_version, model_version) as u64;
        shared.counters.cache_purged.add(purged);
        if purged > 0 {
            shared.hooks.obs.record_event(Event::CachePurge { purged });
        }
    }
    let hits: Vec<Option<f64>> = batch
        .unique
        .iter()
        .zip(&batch.hashes)
        .map(|(query, &hash)| cache.lookup(query, hash, pool_version, model_version))
        .collect();
    let hit_count = hits.iter().flatten().count();
    shared.counters.cache_hits.add(hit_count as u64);
    shared
        .counters
        .cache_misses
        .add((hits.len() - hit_count) as u64);
    // Charged to every member, hit or miss: misses paid the probe before computing.
    batch.probe_us = shared.hooks.obs.now_us().saturating_sub(start_us);
    if hit_count == 0 {
        return;
    }
    // A hit's span ends at the probe: zero compute, zero merge.
    let segments = shared.hooks.enabled.then_some(Segments {
        batch_wait_us: start_us.saturating_sub(batch.close_us),
        cache_probe_us: batch.probe_us,
        shard_compute_us: 0,
        merge_us: 0,
    });
    let hit_members = batch
        .members
        .iter()
        .filter(|member| hits[member.slot].is_some());
    let cached = |slot: usize| hits[slot].map(|estimate| (estimate, EstimateSource::Cached));
    resolve(shared, batch, hit_members, cached, segments);
    let unique = std::mem::take(&mut batch.unique);
    let hashes = std::mem::take(&mut batch.hashes);
    let mut renumbered = vec![usize::MAX; hits.len()];
    for (slot, (query, hash)) in unique.into_iter().zip(hashes).enumerate() {
        if hits[slot].is_none() {
            renumbered[slot] = batch.unique.len();
            batch.unique.push(query);
            batch.hashes.push(hash);
        }
    }
    batch.members.retain_mut(|member| {
        member.slot = renumbered[member.slot];
        member.slot != usize::MAX
    });
}

/// Execute stage: the batch's unique queries as ONE backend call, under containment —
/// the worker pool propagates shard panics to this thread, and a panicked batch must
/// neither strand its waiters nor kill the scheduler.  A panic, or a response without
/// exactly one row per query, sends the whole batch to the fallback path.  Rows the
/// backend answered through its own reduced-fidelity path (`ServeResponse::degraded` —
/// e.g. a cluster coordinator covering a lost worker) resolve `Degraded`; every other
/// row is filed into the estimate cache under the versions the response reports, so a
/// later hit replays it bit-identically.
fn execute<B: ComputeBackend>(shared: &Shared<B>, batch: &Batch) {
    let serve_start_us = shared.hooks.obs.now_us();
    let response = catch_unwind(AssertUnwindSafe(|| {
        shared.injector.fire(FaultSite::BatchExecute);
        shared.service.serve(&batch.unique)
    }));
    let Some(response) = response
        .ok()
        .filter(|response| response.estimates.len() == batch.unique.len())
    else {
        return resolve_fallback(shared, batch);
    };
    let source = |slot: usize| {
        if response.degraded.contains(&slot) {
            EstimateSource::Degraded
        } else {
            EstimateSource::Computed
        }
    };
    lock_ignoring_poison(&shared.serve_stats).accumulate(&response.stats);
    if let Some(cache) = &shared.cache {
        let (mut filed, mut evicted) = (0, 0);
        for (slot, (query, &hash)) in batch.unique.iter().zip(&batch.hashes).enumerate() {
            if source(slot) == EstimateSource::Computed {
                filed += 1;
                evicted += u64::from(cache.insert(
                    query,
                    hash,
                    response.pool_version,
                    response.stats.model_version,
                    response.estimates[slot],
                ));
            }
        }
        shared.counters.cache_insertions.add(filed);
        shared.counters.cache_evictions.add(evicted);
    }
    let segments = shared.hooks.enabled.then(|| Segments {
        batch_wait_us: serve_start_us.saturating_sub(batch.close_us.saturating_add(batch.probe_us)),
        cache_probe_us: batch.probe_us,
        shard_compute_us: response.stats.compute_time.as_micros() as u64,
        merge_us: response.stats.merge_time.as_micros() as u64,
    });
    let served = |slot: usize| Some((response.estimates[slot], source(slot)));
    resolve(shared, batch, batch.members.iter(), served, segments);
}

/// The fallback path — for a panicked or malformed batch, a batch orphaned by a scheduler
/// kill, and the requests a budget breach strands: one
/// [`fallback_estimate`](ComputeBackend::fallback_estimate) per unique query, tagged
/// [`Degraded`](EstimateSource::Degraded).  If even the fallback panics, the members
/// fail — resolved either way, never stranded.
fn resolve_fallback<B: ComputeBackend>(shared: &Shared<B>, batch: &Batch) {
    let estimates = catch_unwind(AssertUnwindSafe(|| {
        batch
            .unique
            .iter()
            .map(|query| shared.service.fallback_estimate(query))
            .collect::<Vec<f64>>()
    }))
    .ok();
    let fallback = |slot: usize| Some((estimates.as_ref()?[slot], EstimateSource::Degraded));
    resolve(shared, batch, batch.members.iter(), fallback, None);
}

/// Resolve stage — the only function that completes tickets.  Each member gets its slot's
/// answer (estimate and source), or fails when `answer` has none.  The counters move by
/// source *before* any ticket completes, so a woken waiter sees them.  With `segments`
/// (obs enabled; computed and cached answers) each member's latency lands in its class
/// histogram and its span rides on the outcome.
fn resolve<'a, B: ComputeBackend>(
    shared: &Shared<B>,
    batch: &Batch,
    members: impl Iterator<Item = &'a Member> + Clone,
    answer: impl Fn(usize) -> Option<(f64, EstimateSource)>,
    segments: Option<Segments>,
) {
    let (mut completed, mut degraded, mut failed) = (0, 0, 0);
    for member in members.clone() {
        match answer(member.slot) {
            Some((_, EstimateSource::Degraded)) => degraded += 1,
            Some(_) => completed += 1,
            None => failed += 1,
        }
    }
    shared.counters.completed.add(completed);
    shared.counters.degraded.add(degraded);
    shared.counters.failed.add(failed);
    let resolved_us = shared.hooks.obs.now_us();
    for member in members {
        let Some((estimate, source)) = answer(member.slot) else {
            member.ticket.fail();
            continue;
        };
        let trace = segments.zip(member.trace).map(|(segments, start)| {
            shared.hooks.latency_us[batch.class.index()]
                .record(resolved_us.saturating_sub(start.submitted_us));
            RequestTrace {
                trace_id: start.id,
                queue_wait_us: member.queue_wait.as_micros() as u64,
                batch_wait_us: segments.batch_wait_us,
                cache_probe_us: segments.cache_probe_us,
                shard_compute_us: segments.shard_compute_us,
                merge_us: segments.merge_us,
            }
        });
        member.ticket.complete(TicketOutcome {
            estimate,
            source,
            batch_size: batch.size,
            batch_seq: batch.seq,
            queue_wait: member.queue_wait,
            trace,
        });
    }
}

/// Retire stage: gives `size` popped requests back from the in-flight count and wakes
/// `flush` waiters once nothing is queued or in flight.
fn retire<B: ComputeBackend>(shared: &Shared<B>, size: usize) {
    let mut state = lock_ignoring_poison(&shared.queue);
    state.in_flight -= size;
    if state.total_pending() == 0 && state.in_flight == 0 {
        shared.queue_idle.notify_all();
    }
}

/// The maintenance lane's supervision wrapper (mirror of [`scheduler_thread`]): a panic
/// that escapes the per-record containment loses at most the in-flight record (counted
/// failed), the queue survives, and the lane restarts — or, past the budget, goes down
/// for good with its backlog counted and shed.
fn maintenance_thread<B: ComputeBackend>(shared: &Arc<Shared<B>>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| maintenance_loop(shared))) {
            Ok(()) => return,
            Err(_panic) => {
                recover_maintenance(shared);
                match shared.supervisor.on_panic(LANE_MAINTENANCE) {
                    SupervisorVerdict::Restart => {
                        shared.hooks.obs.record_event(Event::SupervisorRestart {
                            lane: LANE_MAINTENANCE,
                            restarts: shared.supervisor.restarts(LANE_MAINTENANCE),
                        });
                        continue;
                    }
                    SupervisorVerdict::Degrade => {
                        shared.hooks.obs.record_event(Event::LaneDegraded {
                            lane: LANE_MAINTENANCE,
                        });
                        degrade_maintenance(shared);
                        return;
                    }
                }
            }
        }
    }
}

/// Reconciles the maintenance state after a mid-record kill: the popped record is lost
/// (counted failed), the `applying` flag clears so `flush` cannot wedge.
fn recover_maintenance<B: ComputeBackend>(shared: &Shared<B>) {
    let mut state = lock_ignoring_poison(&shared.maint);
    if state.applying {
        state.applying = false;
        shared.counters.maintenance_failed.inc();
    }
    let idle = state.pending.is_empty();
    drop(state);
    if idle {
        shared.maint_idle.notify_all();
    }
}

/// The maintenance lane's budget-breach transition: the lane stays down, its backlog is
/// counted failed and dropped, and admission sheds from here on (`dead`).
fn degrade_maintenance<B: ComputeBackend>(shared: &Shared<B>) {
    let mut state = lock_ignoring_poison(&shared.maint);
    state.dead = true;
    let dropped = state.pending.len() as u64;
    state.pending.clear();
    drop(state);
    if dropped > 0 {
        shared.counters.maintenance_failed.add(dropped);
    }
    shared.maint_idle.notify_all();
}

/// One checkpoint attempt through the installed [`CheckpointWriter`] (if any): failures
/// — writer errors, writer panics, injected write faults — are counted and contained;
/// the lane keeps draining and retries after the next interval.
fn run_checkpoint<B: ComputeBackend>(shared: &Shared<B>) {
    let writer = lock_ignoring_poison(&shared.checkpoint_writer).clone();
    let Some(writer) = writer else { return };
    if shared.injector.should_fire(FaultSite::CheckpointWrite) {
        shared.counters.checkpoints_failed.inc();
        return;
    }
    match catch_unwind(AssertUnwindSafe(|| writer.write_checkpoint())) {
        Ok(Ok(())) => {
            let written = shared.counters.checkpoints_written.add(1) + 1;
            shared
                .hooks
                .obs
                .record_event(Event::CheckpointCommit { written });
        }
        Ok(Err(_)) | Err(_) => {
            shared.counters.checkpoints_failed.inc();
        }
    }
}

/// The checkpoint helper thread: waits for the maintenance lane to request a write,
/// runs [`run_checkpoint`] off the lane's critical path, and goes back to sleep.  The
/// writer itself snapshots the pool/model Arcs, so the lane keeps applying upserts
/// concurrently with the (possibly slow) serialization + two-phase rename.  Exits when
/// the runtime closes the cell, after draining a final pending request.
fn checkpoint_thread<B: ComputeBackend>(shared: &Arc<Shared<B>>) {
    loop {
        {
            let mut state = lock_ignoring_poison(&shared.ckpt);
            loop {
                if state.requested {
                    state.requested = false;
                    state.writing = true;
                    break;
                }
                if state.closed {
                    return;
                }
                state = wait_ignoring_poison(&shared.ckpt_ready, state);
            }
        }
        // Lock released: the lane can keep requesting (coalesced into the next pass)
        // while the writer serializes and commits.
        run_checkpoint(shared);
        let mut state = lock_ignoring_poison(&shared.ckpt);
        state.writing = false;
        shared.ckpt_idle.notify_all();
    }
}

/// The maintenance lane: applies feedback records to the pool, one single-swap upsert at
/// a time, concurrently with serving.  Panics escape to [`maintenance_thread`]'s
/// supervision.
fn maintenance_loop<B: ComputeBackend>(shared: &Shared<B>) {
    loop {
        let record = {
            let mut state = lock_ignoring_poison(&shared.maint);
            loop {
                if let Some(record) = state.pending.pop_front() {
                    state.applying = true;
                    break record;
                }
                if state.closed {
                    shared.maint_idle.notify_all();
                    return;
                }
                state = wait_ignoring_poison(&shared.maint_ready, state);
            }
        };
        // Scripted maintenance kill: mid-record (popped, not yet applied), outside the
        // containment below — the record is lost, the supervisor restarts the lane.
        shared.injector.fire(FaultSite::MaintenanceLoop);
        // Same containment as the scheduler: a panicking upsert must not wedge `flush`
        // (the `applying` flag below) or kill the lane for later records.
        let applied = catch_unwind(AssertUnwindSafe(|| {
            shared.injector.fire(FaultSite::MaintenanceUpsert);
            shared
                .service
                .apply_feedback(&record.query, record.cardinality);
        }));
        let counter = match &applied {
            Ok(_) => &shared.counters.maintenance_applied,
            Err(_panic) => &shared.counters.maintenance_failed,
        };
        counter.inc();
        if applied.is_ok() {
            after_upsert(shared, &record);
        }
        let mut state = lock_ignoring_poison(&shared.maint);
        state.applying = false;
        if state.pending.is_empty() {
            shared.maint_idle.notify_all();
        }
    }
}

/// What follows an applied upsert on the maintenance lane: the retention fold and the
/// forward of the applied triple to the online feedback channel — after the upsert (an
/// observer reacting to the record, e.g. by reading the pool, must see the refreshed
/// entry) and each contained separately, since a panic there must neither kill the lane
/// nor mislabel the successful upsert as a maintenance failure — then the pool-eviction
/// journal and the checkpoint and compaction cadences.
fn after_upsert<B: ComputeBackend>(shared: &Shared<B>, record: &MaintRecord) {
    if let Some(estimate) = record.estimate {
        // Fold the served estimate's q-error into the (just-refreshed) anchor's
        // retention weight: anchors that keep producing bad estimates sink in
        // the bounded-capacity pool's eviction order.  Same containment rules
        // as the observer below — a panic here must not kill the lane or
        // mislabel the applied upsert.
        let retained = catch_unwind(AssertUnwindSafe(|| {
            let q_error =
                crn_nn::q_error(estimate.max(1.0), (record.cardinality.max(1)) as f64, 1.0);
            shared.service.record_retention(&record.query, q_error)
        }));
        if matches!(retained, Ok(true)) {
            shared.counters.retention_updates.inc();
        }
        let observer = lock_ignoring_poison(&shared.feedback_observer).clone();
        if let Some(observer) = observer {
            let observed = catch_unwind(AssertUnwindSafe(|| {
                observer.observe(&record.query, record.cardinality, estimate);
            }));
            if observed.is_err() {
                shared.counters.observer_failed.inc();
            }
        }
    }
    // Journal pool evictions as a delta against the pool's own counter: the
    // maintenance lane is the only serving-side writer, so this races with at
    // most the refresh worker's compactions — the swap keeps the delta exact.
    if shared.hooks.enabled {
        let evictions = shared.service.pool_evictions();
        let seen = shared
            .hooks
            .journaled_pool_evictions
            .swap(evictions, Ordering::Relaxed);
        if evictions > seen {
            shared.hooks.obs.record_event(Event::PoolEviction {
                evicted: evictions - seen,
            });
        }
    }
    // Checkpoint cadence: every `checkpoint_every` applied records, hand the
    // write to the checkpoint helper thread — the lane only flips a flag, so a
    // slow writer (fsync stall, big pool) never blocks upsert application.
    // Requests coalesce while a write is pending or in flight.
    if shared.config.checkpoint_every > 0 {
        let due = shared.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
        if due >= shared.config.checkpoint_every {
            shared.since_checkpoint.store(0, Ordering::Relaxed);
            lock_ignoring_poison(&shared.ckpt).requested = true;
            shared.ckpt_ready.notify_all();
        }
    }
    // Background compaction cadence: every `compact_every` applied records,
    // structurally dedup the pool on this lane — not only after model swaps.
    if shared.config.compact_every > 0 {
        let due = shared.since_compaction.fetch_add(1, Ordering::Relaxed) + 1;
        if due >= shared.config.compact_every {
            shared.since_compaction.store(0, Ordering::Relaxed);
            let merged = catch_unwind(AssertUnwindSafe(|| shared.service.compact()));
            if let Ok(merged) = merged {
                shared.counters.compactions.inc();
                if merged > 0 {
                    shared
                        .hooks
                        .obs
                        .record_event(Event::PoolCompaction { merged });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue holding one request per `(class, age)`, enqueued `age` before `now`
    /// (each lane in the listed order).
    fn queue_with(now: Instant, requests: &[(SloClass, u64)]) -> QueueState {
        let mut state = QueueState::new();
        for (caller, &(class, age_us)) in requests.iter().enumerate() {
            let query = Query::scan("title");
            state
                .admit(caller as u64, class, query, None, None, 64, 64, 64)
                .expect("admitted");
            let request = state.pending[class.index()].back_mut().expect("admitted");
            request.enqueued = now - Duration::from_micros(age_us);
        }
        state
    }

    /// Batch max 2, interactive window 100µs, batch window 2ms.
    fn close_config() -> RuntimeConfig {
        RuntimeConfig::default()
            .with_batch_max(2)
            .with_window_us(100)
            .with_class_window_us(SloClass::Batch, 2_000)
    }

    #[test]
    fn close_rule_ranks_size_over_drain_over_window() {
        use CloseDecision::{Close, Idle};
        use CloseReason::{Drain, Size, Window};
        use SloClass::{Batch, Interactive};
        let (config, now) = (close_config(), Instant::now());
        let decide = |state: &QueueState| close_decision(state, &config, now);
        // A full lane closes by size even when another lane's window already expired...
        let mut state = queue_with(now, &[(Interactive, 1_000), (Batch, 0), (Batch, 0)]);
        assert_eq!(decide(&state), Close(Batch, Size));
        // ...and even at shutdown.
        state.closed = true;
        assert_eq!(decide(&state), Close(Batch, Size));
        // At shutdown the most urgent lane drains, expired window or not.
        let mut state = queue_with(now, &[(Interactive, 1_000)]);
        state.closed = true;
        assert_eq!(decide(&state), Close(Interactive, Drain));
        let mut state = queue_with(now, &[(Batch, 0)]);
        state.closed = true;
        assert_eq!(decide(&state), Close(Batch, Drain));
        // Otherwise an expired window closes, with whatever the lane holds.
        let state = queue_with(now, &[(Interactive, 100)]);
        assert_eq!(decide(&state), Close(Interactive, Window));
        // Empty lanes: nothing to close, open or shutting down.
        let mut state = QueueState::new();
        assert_eq!(decide(&state), Idle);
        state.closed = true;
        assert_eq!(decide(&state), Idle);
    }

    #[test]
    fn close_rule_picks_the_earliest_window_deadline_ties_in_class_order() {
        use CloseDecision::Close;
        use CloseReason::{Drain, Window};
        use SloClass::{Batch, Interactive};
        let (config, now) = (close_config(), Instant::now());
        let decide = |state: &QueueState| close_decision(state, &config, now);
        // Batch's oldest is due 1ms ago, interactive's in 100µs: the earliest deadline
        // wins, whatever the class priority.
        let state = queue_with(now, &[(Interactive, 0), (Batch, 3_000)]);
        assert_eq!(decide(&state), Close(Batch, Window));
        // Both due 900µs ago (1000 − 100 = 2900 − 2000): the tie goes to `SloClass::ALL`
        // order, for the window close and the drain alike.
        let mut state = queue_with(now, &[(Batch, 2_900), (Interactive, 1_000)]);
        assert_eq!(decide(&state), Close(Interactive, Window));
        state.closed = true;
        assert_eq!(decide(&state), Close(Interactive, Drain));
    }

    #[test]
    fn close_rule_waits_until_the_most_urgent_deadline() {
        use CloseDecision::WaitUntil;
        use SloClass::{Batch, Interactive};
        let (config, now) = (close_config(), Instant::now());
        let decide = |state: &QueueState| close_decision(state, &config, now);
        let micros = Duration::from_micros;
        // Interactive (oldest 40µs ago) is due in 60µs, batch (just now) in 2ms.
        let state = queue_with(now, &[(Batch, 0), (Interactive, 40)]);
        assert_eq!(decide(&state), WaitUntil(now - micros(40) + micros(100)));
        // A lone batch request: its own class window, from its own arrival.
        let state = queue_with(now, &[(Batch, 500)]);
        assert_eq!(decide(&state), WaitUntil(now - micros(500) + micros(2_000)));
        // One below the size threshold still waits.
        let state = queue_with(now, &[(Interactive, 10)]);
        assert_eq!(decide(&state), WaitUntil(now - micros(10) + micros(100)));
    }

    #[test]
    fn close_rule_serves_a_default_interactive_lane_at_once() {
        use CloseDecision::{Close, WaitUntil};
        use CloseReason::Window;
        use SloClass::{Batch, Interactive};
        let (config, now) = (RuntimeConfig::default(), Instant::now());
        let decide = |state: &QueueState| close_decision(state, &config, now);
        // A request admitted just now closes at once: no window to wait out.
        let state = queue_with(now, &[(Interactive, 0)]);
        assert_eq!(decide(&state), Close(Interactive, Window));
        // A lone batch request still waits out its class's 2ms fusion window.
        let state = queue_with(now, &[(Batch, 0)]);
        assert_eq!(decide(&state), WaitUntil(now + Duration::from_millis(2)));
        // With both pending — the batch request older — the interactive lane closes first.
        let state = queue_with(now, &[(Batch, 1_000), (Interactive, 0)]);
        assert_eq!(decide(&state), Close(Interactive, Window));
    }

    #[test]
    fn class_deadlines_override_per_class_and_inherit_the_default_when_unset() {
        let config = RuntimeConfig::default()
            .with_deadline_us(1_000)
            .with_class_deadline_us(SloClass::Batch, 50_000);
        assert_eq!(
            config.class_deadline(SloClass::Batch),
            Some(Duration::from_micros(50_000))
        );
        // Classes without an override inherit the base deadline.
        assert_eq!(
            config.class_deadline(SloClass::Interactive),
            Some(Duration::from_micros(1_000))
        );
        // Zero micros clears the override back to inheritance.
        let cleared = config.with_class_deadline_us(SloClass::Batch, 0);
        assert_eq!(
            cleared.class_deadline(SloClass::Batch),
            Some(Duration::from_micros(1_000))
        );
        // With no base deadline either, the class runs undeadlined.
        let bare = RuntimeConfig::default().with_class_deadline_us(SloClass::Interactive, 200);
        assert_eq!(bare.class_deadline(SloClass::Batch), None);
        assert_eq!(
            bare.class_deadline(SloClass::Interactive),
            Some(Duration::from_micros(200))
        );
    }
}
