//! `crn-serve` — the asynchronous request-queue serving runtime over the concurrent
//! [`EstimatorService`](crn_core::EstimatorService).
//!
//! PR 3's `EstimatorService` is *synchronous*: a caller hands over a slice of concurrent
//! queries and blocks until the whole batch is served.  That leaves the batching decision
//! — the thing the fused multi-query head batches feed on — to every caller individually,
//! and a production front-end has neither a natural batch boundary nor the luxury of
//! blocking its request threads.  This crate adds the genuinely async front-end the
//! ROADMAP names: a queue + completion-handle runtime with admission control and
//! cross-call batching windows, hand-rolled on `std::sync` primitives (the vendored-deps
//! policy rules out tokio — everything here is a bounded `VecDeque` behind a mutex plus
//! the worker pool's poison-robust condvar wakeup helpers from `crn_nn::parallel`).
//!
//! The moving parts:
//!
//! * [`ticket`] — [`Ticket`]: the condvar-backed completion handle a submission returns;
//!   `poll` (non-blocking), `wait` and `wait_timeout` resolve to the estimate plus batch
//!   provenance.
//! * [`queue`] — the bounded MPSC submission queue with admission control: one
//!   arrival-ordered lane under a hard `queue_depth` bound and a per-caller fairness
//!   quota, both load-shedding with [`SubmitError::Overloaded`] instead of blocking the
//!   submitter.
//! * [`runtime`] — [`ServeRuntime`]: the scheduler thread that forms batches (closing on
//!   a size threshold *or* a time window, so cross-call traffic fuses into one
//!   multi-query head batch), executes them on the wrapped service, and resolves the
//!   tickets; plus the background *maintenance lane* applying completed queries' true
//!   cardinalities back into the pool via single-swap copy-on-write
//!   [`upsert`](crn_core::ShardedPool::upsert)s — the paper's §5.2 pool-refresh loop,
//!   never blocking concurrent readers.
//! * [`cache`] — [`EstimateCache`]: the bounded, sharded LRU **cross-window estimate
//!   cache**, one entry per canonical query hash tagged `(FROM-bucket version, model
//!   version)` and consulted at batch-build time, so hot repeated queries resolve at
//!   memory latency without entering the compute path.  Invalidation is by version key:
//!   a maintenance upsert bumps the version of its own FROM clause only (§5.3 compares a
//!   query only with same-FROM anchors) and a hot-swap bumps the model version, so a hit
//!   is bit-identical to recomputation by construction.  `cache_entries: 0` (the
//!   default) disables it and restores the uncached scheduler path exactly.
//!
//! # Bit-parity contract
//!
//! For a fixed set of submitted queries, the estimates the runtime resolves are
//! **bit-identical** to what one synchronous [`EstimatorService::serve`] call over the
//! same queries returns — at *any* batch window, queue depth, caller interleaving,
//! worker count or cache size.  This is inherited, not
//! re-proven: the service's per-query results are independent of batch composition
//! (forced-CSR featurization, row-count-independent kernels, canonical-order merges —
//! see `crn_core::service`), so however the scheduler slices the traffic into batches,
//! every query's answer is the one the sequential path computes — and a cache hit
//! replays a computed answer under the exact `(FROM bucket, model)` version pairing a
//! serve issued now would read.  The parity tests in `tests/async_parity.rs` pin the full
//! window × depth × workers × cache matrix.
//!
//! # Fault tolerance
//!
//! PR 6 hardens the runtime against the failure modes a long-lived serving process
//! actually meets:
//!
//! * [`ticket`] resolutions became a `Result`: per-request **deadlines** shed stale
//!   queued requests ([`TicketError::Expired`]), and a panicked batch resolves its
//!   waiters through the service's **degraded** fallback path, tagged in
//!   [`EstimateSource`] — never a hang, never a silent wrong answer.
//! * [`supervisor`] — bounded panic-restart budgets: a panic that escapes per-batch /
//!   per-upsert containment restarts the lane *with its queues intact*; past the budget
//!   the runtime degrades to synchronous serving instead of crash-looping.
//! * [`fault`] — the deterministic, occurrence-counted [`FaultInjector`] that scripts
//!   exactly these failures for the chaos suite.
//!
//! The headline invariant, pinned by `tests/chaos.rs`: **every admitted ticket
//! resolves** — completed, degraded, expired or failed — under every fault plan.
//!
//! [`EstimatorService::serve`]: crn_core::EstimatorService::serve

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cache;
pub mod fault;
pub mod queue;
pub mod runtime;
pub mod supervisor;
pub mod ticket;

pub use backend::ComputeBackend;
pub use cache::EstimateCache;
pub use fault::{
    FaultInjector, FaultPlan, FaultPlanError, FaultSite, FaultSpec, FaultTrigger, FiredFault,
};
pub use queue::{RejectReason, SubmitError};
pub use runtime::{
    RuntimeConfig, RuntimeStats, ServeRuntime, RETRY_BACKOFF_CEIL, RETRY_BACKOFF_FLOOR,
};
pub use supervisor::{
    Supervisor, SupervisorPolicy, SupervisorVerdict, LANE_MAINTENANCE, LANE_SCHEDULER,
};
pub use ticket::{EstimateSource, Ticket, TicketError, TicketOutcome};
