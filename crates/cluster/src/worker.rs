//! The worker process: owns a subset of the global pool shards and serves the
//! shard-local half of layer 3 (pool scan + per-entry containment estimates) for
//! batches scattered to it by the coordinator.
//!
//! A worker is deliberately dumb: it holds no routing knowledge, makes no gate
//! decisions, and never folds entry lists into estimates — it applies whatever
//! [`Assignment`] the coordinator ships, answers
//! [`EvalRequest`](crate::wire::EvalRequest)s with raw per-shard entry-estimate lists,
//! and applies the feedback upserts forwarded to its shards.  All policy
//! (canonical-order merging, degradation, reconnect cadence) lives on the coordinator,
//! so adding a worker never adds a decision point.
//!
//! Bit-parity note: each owned shard is reconstructed as a **one-shard**
//! [`ShardedPool`] from the shipped shard payload.  One-shard reconstruction
//! preserves entry order, so the worker's shard scan visits entries in exactly the
//! order the single-process service would — and Eval runs the same shared core
//! ([`Cnt2CrdCore`]) the service runs, so the lists it returns are bit-identical to
//! the corresponding single-process work items.
//!
//! Version discipline: an [`EvalRequest`](crate::wire::EvalRequest) carries the fleet
//! model version it must be served under.  A worker whose version differs answers
//! [`ErrorReply`] rather than serving — a mismatched worker can degrade a batch, but
//! can never silently serve it under another model.

use crate::wire::{
    read_message, write_message, AssignAck, Assignment, ErrorReply, EvalResponse, Message,
    ShardLists, WireError,
};
use crn_core::{AnchorCache, Cnt2CrdConfig, Cnt2CrdCore, CrnModel, ShardedPool};
use crn_nn::WorkerPool;
use crn_query::ast::Query;
use std::net::{TcpListener, TcpStream};

/// Everything a worker holds between messages.  Built wholesale from an
/// [`Assignment`]; absent until the first one arrives.
struct WorkerState {
    worker_id: usize,
    /// Fleet model version this worker serves under.
    version: u64,
    config: Cnt2CrdConfig,
    workers: WorkerPool,
    /// The model: Eval reads it by reference.
    model: CrnModel,
    /// The owned global shards, ascending by shard index: `(index, one-shard pool,
    /// prepared-anchor cache of that shard)`.
    shards: Vec<(usize, ShardedPool, AnchorCache)>,
}

impl WorkerState {
    fn from_assignment(assignment: Assignment, threads: usize) -> Self {
        let mut shards: Vec<_> = assignment
            .shards
            .iter()
            .map(|payload| {
                let pool = ShardedPool::from_pool(&payload.pool, 1);
                (payload.index, pool, AnchorCache::default())
            })
            .collect();
        shards.sort_by_key(|(index, ..)| *index);
        WorkerState {
            worker_id: assignment.worker_id,
            version: assignment.model_version,
            config: assignment.config,
            workers: WorkerPool::shared(threads.max(1)),
            model: assignment.model,
            shards,
        }
    }

    /// Per owned shard, the per-query entry lists of `queries` under the model.
    fn eval(&self, queries: &[Query]) -> Vec<ShardLists> {
        self.shards
            .iter()
            .map(|(index, pool, cache)| {
                let snapshot = pool.snapshot();
                let core = Cnt2CrdCore {
                    config: &self.config,
                    model: &self.model,
                    shards: snapshot.shards(),
                    cache: Some((cache, self.version)),
                };
                ShardLists {
                    index: *index,
                    lists: core.entry_lists(&self.workers, queries).0,
                }
            })
            .collect()
    }
}

fn error_reply(reason: impl Into<String>) -> Message {
    Message::Error(ErrorReply {
        reason: reason.into(),
    })
}

/// Handles one message against the (possibly absent) worker state.  Returns the reply
/// to send, or `None` for [`Message::Shutdown`].
fn handle(state: &mut Option<WorkerState>, message: Message, threads: usize) -> Option<Message> {
    match message {
        Message::Assign(assignment) => {
            let worker_id = assignment.worker_id;
            let model_version = assignment.model_version;
            let fresh = WorkerState::from_assignment(*assignment, threads);
            let shards = fresh.shards.len();
            *state = Some(fresh);
            Some(Message::AssignAck(AssignAck {
                worker_id,
                shards,
                model_version,
            }))
        }
        Message::Eval(request) => {
            let Some(state) = state.as_ref() else {
                return Some(error_reply("eval before assignment"));
            };
            if request.model_version != state.version {
                return Some(error_reply(format!(
                    "model version mismatch: batch wants v{}, worker {} serves v{}",
                    request.model_version, state.worker_id, state.version
                )));
            }
            Some(Message::EvalResult(EvalResponse {
                model_version: state.version,
                shards: state.eval(&request.queries),
            }))
        }
        Message::Upsert(request) => {
            let Some(state) = state.as_mut() else {
                return Some(error_reply("upsert before assignment"));
            };
            let Some((_, pool, _)) = state
                .shards
                .iter()
                .find(|(index, ..)| *index == request.shard)
            else {
                return Some(error_reply(format!(
                    "upsert for shard {} not owned by worker {}",
                    request.shard, state.worker_id
                )));
            };
            pool.upsert(request.query, request.cardinality);
            Some(Message::UpsertAck)
        }
        Message::Shutdown => None,
        // Coordinator-bound message kinds arriving at a worker are protocol bugs;
        // answer loudly instead of hanging the connection.
        other => Some(error_reply(format!(
            "unexpected message kind {:?} at worker",
            other.kind()
        ))),
    }
}

/// Serves one coordinator connection until it closes, shutdown arrives, or the wire
/// breaks.  Returns `Ok(true)` if the worker should exit (explicit shutdown).
fn serve_connection(
    stream: TcpStream,
    state: &mut Option<WorkerState>,
    threads: usize,
) -> Result<bool, WireError> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    loop {
        match handle(state, read_message(&mut reader)?, threads) {
            Some(reply) => write_message(&mut writer, &reply)?,
            None => return Ok(true),
        }
    }
}

/// Runs a worker on `listener` until a [`Message::Shutdown`] arrives.  Accepts one
/// coordinator connection at a time; a dropped connection returns the worker to
/// `accept`, where the coordinator's reconnect path re-dials and re-ships state.
/// Only a failing `accept` is an error.
pub fn run_worker(listener: TcpListener, threads: usize) -> Result<(), WireError> {
    let mut state: Option<WorkerState> = None;
    loop {
        let (stream, _) = listener.accept().map_err(WireError::Io)?;
        stream.set_nodelay(true).ok();
        // Any wire error ends only this connection, never the worker: a dead link is
        // the coordinator's to re-dial, and after a frame that fails to decode (bad
        // length, type or payload) the stream sits at an unknown offset, so the worker
        // drops it and keeps its state for the next coordinator.
        if let Ok(true) = serve_connection(stream, &mut state, threads) {
            return Ok(());
        }
    }
}

/// Spawns [`run_worker`] on a named thread — the in-process harness used by the
/// loopback parity and chaos tests (the eval demo forks real processes instead).
pub fn spawn_worker(listener: TcpListener, threads: usize) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("crn-cluster-worker".into())
        .spawn(move || {
            let _ = run_worker(listener, threads);
        })
        .expect("spawn cluster worker thread")
}
