//! # crn-cluster — cross-process distributed serving
//!
//! The cluster tier spreads the queries-pool shards over N worker **processes** and
//! serves batches through a coordinator that scatters FROM-clause groups to shard
//! owners, gathers their ε-filtered per-entry estimate lists, and folds them locally —
//! in **canonical shard order**, with the same [`fold_entry_lists`]
//! (re-exported by `crn-core`) the single-process service uses, so distributed
//! estimates are **bit-identical** to single-process serving (ROADMAP: "Distributed
//! serving"; parity pinned at workers {1,2,4} × shards {1,4,8}).
//!
//! Three modules:
//!
//! * [`wire`] — hand-rolled length-prefixed frames over `std::net` TCP (no async
//!   runtime): `[u32 LE length][type byte][tagged binary payload]`, bounded by
//!   [`wire::MAX_FRAME`], bit-exact for every `f64` including NaN and ±∞ (pinned by a
//!   proptest roundtrip), and safe to decode from a hostile peer.
//! * [`worker`] — the shard-owning process: applies assignments, evaluates scattered
//!   batches shard-locally, mirrors canary probe traffic, stages/swaps models.  All
//!   policy stays on the coordinator.
//! * [`client`] — the coordinator-side [`ClusterClient`], a
//!   [`ComputeBackend`](crn_serve::ComputeBackend) the serving runtime schedules onto
//!   exactly like the in-process service.  Lost or slow workers degrade their queries
//!   to the fallback path (`EstimateSource::Degraded` downstream, counted in
//!   [`ClusterStats`], journaled as `worker_lost`) — never hung, never silently
//!   wrong — and reconnect with bounded backoff.  Model rollout goes through a canary
//!   worker gated by the refresh tier's rule ([`crn_online::gate_accepts`]); a batch
//!   can never mix model versions.
//!
//! [`fold_entry_lists`]: crn_core::fold_entry_lists

pub mod client;
pub mod wire;
pub mod worker;

pub use client::{ClusterClient, ClusterOptions, ClusterStats, RolloutOutcome};
pub use wire::{Message, WireError, MAX_FRAME};
pub use worker::{run_worker, spawn_worker};
