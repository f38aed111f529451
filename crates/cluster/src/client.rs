//! The coordinator-side cluster client: a [`ComputeBackend`] that scatters batches to
//! shard-owning worker processes and gathers their entry lists back into estimates.
//!
//! # Bit-parity by construction
//!
//! The client never re-implements serving math.  It keeps the authoritative pool
//! mirror in the same [`ShardedPool`] the single-process service uses, plans batches
//! with the same [`plan_groups`] and [`plan_work_items`], and folds gathered lists with
//! the same [`fold_entry_lists`].  Workers return raw per-shard ε-filtered entry-estimate
//! lists; the client concatenates them **in canonical (ascending global) shard
//! order** — exactly the order the single-process `serve_entry_lists` concatenates
//! its work items — so every non-degraded estimate is bit-identical to single-process
//! serving.  The loopback parity tests pin this at workers {1,2,4} × shards {1,4,8}.
//!
//! # Never hung, never silently wrong
//!
//! Every socket carries a read/write timeout.  A worker that dies, stalls past its
//! timeout, answers the wrong model version, or answers with anything but one list set of
//! finite estimates per owned shard is treated as **lost**: its queries in
//! the current batch degrade to the coordinator-local fallback path, are reported in
//! [`ServeResponse::degraded`] (the runtime tags those tickets
//! `EstimateSource::Degraded` and keeps them out of the estimate cache), counted in
//! [`ClusterStats`], and journaled as [`Event::WorkerLost`].  Lost workers are
//! re-dialled with bounded backoff (reusing the serve tier's
//! [`RETRY_BACKOFF_FLOOR`]/[`RETRY_BACKOFF_CEIL`] envelope) and re-shipped their full
//! assignment on reconnect.
//!
//! # One model per client
//!
//! The model shipped at [`connect`](ClusterClient::connect) serves for the client's
//! whole lifetime, under version 1.  A model swap is an in-process affair
//! (`EstimatorService::swap_model`); a cluster picks up a new model by connecting a new
//! client.  Every [`EvalRequest`] still carries the version it must be served under, and
//! workers refuse mismatches.

use crate::wire::{
    read_message, write_message, Assignment, EvalRequest, EvalResponse, Message, ShardPayload,
    UpsertRequest, WireError,
};
use crn_core::{
    fold_entry_lists, plan_groups, plan_work_items, Cnt2CrdConfig, CrnModel, QueriesPool,
    ServeResponse, ServeStats, ShardedPool,
};
use crn_estimators::CardinalityEstimator;
use crn_obs::{Event, HistHandle, Obs};
use crn_query::ast::Query;
use crn_serve::{
    ComputeBackend, FaultInjector, FaultSite, RETRY_BACKOFF_CEIL, RETRY_BACKOFF_FLOOR,
};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Coordinator-side knobs (serving math comes from [`Cnt2CrdConfig`], which is shared
/// with the workers via the assignment).
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// The serving configuration shipped to every worker and used by the local fold.
    pub config: Cnt2CrdConfig,
    /// Per-socket read/write timeout; a worker slower than this on one reply is
    /// treated as lost for the batch.
    pub worker_timeout: Duration,
    /// Batches between reconnect attempts to a lost worker.
    pub reconnect_every: u64,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            config: Cnt2CrdConfig::default(),
            worker_timeout: Duration::from_secs(2),
            reconnect_every: 4,
        }
    }
}

/// A point-in-time read of the cluster's health counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Workers in the fleet.
    pub workers: usize,
    /// Workers currently connected.
    pub workers_up: usize,
    /// Batches scattered so far.
    pub batches: u64,
    /// Queries answered by the degraded (coordinator-local fallback) path.
    pub degraded_queries: u64,
    /// Times a worker was declared lost (dead socket, timeout, wrong version, malformed
    /// reply).
    pub worker_losses: u64,
    /// Successful reconnect + re-ship cycles.
    pub reconnects: u64,
    /// Feedback upserts forwarded to shard owners.
    pub upserts_forwarded: u64,
}

/// The model version every batch is served under: the client's model never changes.
const MODEL_VERSION: u64 = 1;

/// One worker connection.  `stream: None` means lost — awaiting reconnect cadence.
struct WorkerLink {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    batches_since_attempt: u64,
}

/// The client's metric handles, registered once per installed [`Obs`] (no-ops when it
/// is disabled), so the serve path never takes the registry lock.
struct ObsHandles {
    scatter_us: HistHandle,
    gather_us: HistHandle,
}

impl ObsHandles {
    fn new(obs: &Obs) -> Self {
        ObsHandles {
            scatter_us: obs.hist("cluster.scatter_us"),
            gather_us: obs.hist("cluster.gather_us"),
        }
    }
}

struct Counters {
    batches: AtomicU64,
    degraded_queries: AtomicU64,
    worker_losses: AtomicU64,
    reconnects: AtomicU64,
    upserts_forwarded: AtomicU64,
}

/// The coordinator-side scatter/gather backend.  See the module docs for its contracts
/// (parity, liveness, one model).
pub struct ClusterClient {
    mirror: ShardedPool,
    options: ClusterOptions,
    fallback: Option<Box<dyn CardinalityEstimator + Send + Sync>>,
    links: Mutex<Vec<WorkerLink>>,
    /// The model, kept for re-shipping assignments to reconnecting workers.
    model: CrnModel,
    counters: Counters,
    faults: Arc<FaultInjector>,
    obs: Obs,
    handles: ObsHandles,
    name: String,
}

fn lock_links(links: &Mutex<Vec<WorkerLink>>) -> MutexGuard<'_, Vec<WorkerLink>> {
    links
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether `response` answers a `queries`-query slice whole: one list set per shard of
/// `owned`, in that (ascending) order, each holding one list per query of finite
/// estimates only — the shape of a worker's `Cnt2CrdCore` output.  A missing or foreign
/// shard, a wrong list count or a non-finite estimate (which the fold's sort cannot
/// order) is a faulty worker, not a partial answer.
fn is_whole_reply(
    response: &EvalResponse,
    mut owned: impl Iterator<Item = usize>,
    queries: usize,
) -> bool {
    response.shards.iter().all(|lists| {
        owned.next() == Some(lists.index)
            && lists.lists.len() == queries
            && lists
                .lists
                .iter()
                .flatten()
                .all(|estimate| estimate.is_finite())
    }) && owned.next().is_none()
}

impl ClusterClient {
    /// Connects to `addrs` (one worker process each), shards `pool` into
    /// `total_shards` canonical shards, and ships every worker its assignment (shard
    /// `s` is owned by worker `s % addrs.len()`).  Fails if any worker is unreachable
    /// at startup — a fleet that begins degraded is a deployment error, not a runtime
    /// condition — and with [`WireError::UnsupportedConfig`] for `options.config.top_k > 0`:
    /// top-K ranks a query's anchors across *all* shards, which no shard-local worker scan
    /// can do (a per-shard top-K is a different, wrong estimate).
    pub fn connect(
        addrs: &[SocketAddr],
        model: CrnModel,
        pool: &QueriesPool,
        total_shards: usize,
        options: ClusterOptions,
    ) -> Result<Self, WireError> {
        assert!(!addrs.is_empty(), "cluster needs at least one worker");
        if options.config.top_k > 0 {
            return Err(WireError::UnsupportedConfig(
                "top_k > 0 needs a pool-wide anchor ranking; cluster workers scan shard-locally",
            ));
        }
        let total_shards = total_shards.max(1);
        let mirror = ShardedPool::from_pool(pool, total_shards);
        let client = Self {
            mirror,
            name: format!("crn-cluster({} workers)", addrs.len()),
            options,
            fallback: None,
            links: Mutex::new(
                addrs
                    .iter()
                    .map(|addr| WorkerLink {
                        addr: *addr,
                        stream: None,
                        batches_since_attempt: 0,
                    })
                    .collect(),
            ),
            model,
            counters: Counters {
                batches: AtomicU64::new(0),
                degraded_queries: AtomicU64::new(0),
                worker_losses: AtomicU64::new(0),
                reconnects: AtomicU64::new(0),
                upserts_forwarded: AtomicU64::new(0),
            },
            faults: FaultInjector::none(),
            obs: Obs::disabled(),
            handles: ObsHandles::new(&Obs::disabled()),
        };
        {
            let mut links = lock_links(&client.links);
            let workers = links.len();
            for worker_id in 0..workers {
                let stream = client.dial(links[worker_id].addr)?;
                links[worker_id].stream = Some(stream);
                client.ship_assignment(&mut links[worker_id], worker_id, workers)?;
            }
        }
        Ok(client)
    }

    /// Replaces the degraded-path estimator (default: the flat
    /// `config.default_estimate`).
    pub fn with_fallback(mut self, fallback: Box<dyn CardinalityEstimator + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Attaches an observability handle (the `cluster.{scatter,gather}_us` timing
    /// histograms and worker-loss journal events).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self.handles = ObsHandles::new(obs);
        self
    }

    /// Attaches a fault injector (the chaos tests script
    /// [`FaultSite::ClusterFrameDrop`] through it).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// The cluster health counters.
    pub fn stats(&self) -> ClusterStats {
        let links = lock_links(&self.links);
        ClusterStats {
            workers: links.len(),
            workers_up: links.iter().filter(|link| link.stream.is_some()).count(),
            batches: self.counters.batches.load(Ordering::Relaxed),
            degraded_queries: self.counters.degraded_queries.load(Ordering::Relaxed),
            worker_losses: self.counters.worker_losses.load(Ordering::Relaxed),
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
            upserts_forwarded: self.counters.upserts_forwarded.load(Ordering::Relaxed),
        }
    }

    fn dial(&self, addr: SocketAddr) -> Result<TcpStream, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.options.worker_timeout))
            .ok();
        stream
            .set_write_timeout(Some(self.options.worker_timeout))
            .ok();
        Ok(stream)
    }

    /// Ships `worker_id`'s full assignment (owned shards + model + version) over
    /// its connected link and waits for the ack.
    fn ship_assignment(
        &self,
        link: &mut WorkerLink,
        worker_id: usize,
        workers: usize,
    ) -> Result<(), WireError> {
        let snapshot = self.mirror.snapshot();
        let shards = (0..snapshot.num_shards())
            .filter(|shard| shard % workers == worker_id)
            .map(|shard| ShardPayload {
                index: shard,
                version: snapshot.shard_version(shard),
                pool: snapshot.shard_pool(shard),
            })
            .collect();
        let assignment = Message::Assign(Box::new(Assignment {
            worker_id,
            total_shards: snapshot.num_shards(),
            model_version: MODEL_VERSION,
            config: self.options.config,
            model: self.model.clone(),
            shards,
        }));
        let stream = link.stream.as_mut().expect("ship over connected link");
        write_message(stream, &assignment)?;
        match read_message(stream)? {
            Message::AssignAck(_) => Ok(()),
            Message::Error(error) => Err(WireError::BadPayload(error.reason)),
            other => Err(WireError::BadPayload(format!(
                "unexpected {} to assignment",
                other.kind()
            ))),
        }
    }

    /// Declares `worker_id` lost: drops the socket, bumps the loss counters, journals
    /// the event.  Its shards degrade until the reconnect cadence restores it.
    fn declare_lost(&self, links: &mut [WorkerLink], worker_id: usize) {
        if links[worker_id].stream.take().is_some() {
            links[worker_id].batches_since_attempt = 0;
            self.counters.worker_losses.fetch_add(1, Ordering::Relaxed);
            self.obs
                .record_event(Event::WorkerLost { worker: worker_id });
        }
    }

    /// Reconnect cadence, run at the top of every batch: each lost worker is
    /// re-dialled every `reconnect_every` batches with the serve tier's bounded
    /// backoff envelope between dial attempts — the cost is bounded per batch, so a
    /// permanently dead worker can only degrade its own shards, never stall serving.
    fn reconnect_due(&self, links: &mut [WorkerLink]) {
        let workers = links.len();
        for (worker_id, link) in links.iter_mut().enumerate() {
            if link.stream.is_some() {
                continue;
            }
            link.batches_since_attempt += 1;
            if link.batches_since_attempt < self.options.reconnect_every.max(1) {
                continue;
            }
            link.batches_since_attempt = 0;
            let mut backoff = RETRY_BACKOFF_FLOOR;
            for attempt in 0..3 {
                if attempt > 0 {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(RETRY_BACKOFF_CEIL);
                }
                let Ok(stream) = self.dial(link.addr) else {
                    continue;
                };
                link.stream = Some(stream);
                match self.ship_assignment(link, worker_id, workers) {
                    Ok(()) => {
                        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(_) => {
                        link.stream = None;
                    }
                }
            }
        }
    }

    /// The scripted mid-frame connection drop ([`FaultSite::ClusterFrameDrop`]): write
    /// a deliberately truncated frame, then kill the socket — the worker sees a
    /// mid-frame EOF, the coordinator a dead link.  Entirely occurrence-counted; no
    /// wall clock involved.
    fn inject_frame_drop(&self, link: &mut WorkerLink) {
        if let Some(stream) = link.stream.as_mut() {
            let _ = stream.write_all(&[0xFF, 0xFF]);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Scatters `queries` to shard owners, gathers entry lists in canonical shard
    /// order, folds locally.  See module docs for the degradation contract.
    fn serve_locked(&self, links: &mut [WorkerLink], queries: &[Query]) -> ServeResponse {
        let start = Instant::now();
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.reconnect_due(links);

        let snapshot = self.mirror.snapshot();
        let workers = links.len();
        let mut stats = ServeStats {
            queries: queries.len(),
            shards: snapshot.num_shards(),
            pool_entries: snapshot.len(),
            model_version: MODEL_VERSION,
            ..ServeStats::default()
        };

        let group_start = Instant::now();
        let groups = plan_groups(queries);
        stats.groups = groups.len();
        // Which query indices each worker must evaluate: the single-process planner's
        // (group, shard) work items, each group sent once to every worker owning at least
        // one of its shards (items are sorted by group, so "once" is a last-group check).
        let items = plan_work_items(snapshot.shards(), &groups);
        stats.work_items = items.len();
        let mut sent: Vec<Vec<usize>> = vec![Vec::new(); workers];
        let mut last_group = vec![usize::MAX; workers];
        for (group, shard) in items {
            let owner = shard % workers;
            if std::mem::replace(&mut last_group[owner], group) != group {
                sent[owner].extend(&groups[group].1);
            }
        }
        stats.group_time = group_start.elapsed();

        // Scatter.
        let scatter_start = Instant::now();
        let mut in_flight: Vec<bool> = vec![false; workers];
        let mut degraded: Vec<bool> = vec![false; queries.len()];
        for worker_id in 0..workers {
            if sent[worker_id].is_empty() {
                continue;
            }
            if links[worker_id].stream.is_some()
                && self.faults.should_fire(FaultSite::ClusterFrameDrop)
            {
                self.inject_frame_drop(&mut links[worker_id]);
                self.declare_lost(links, worker_id);
            }
            let Some(stream) = links[worker_id].stream.as_mut() else {
                for &query in &sent[worker_id] {
                    degraded[query] = true;
                }
                continue;
            };
            let request = Message::Eval(EvalRequest {
                model_version: MODEL_VERSION,
                queries: sent[worker_id]
                    .iter()
                    .map(|&index| queries[index].clone())
                    .collect(),
            });
            if write_message(stream, &request).is_err() {
                self.declare_lost(links, worker_id);
                for &query in &sent[worker_id] {
                    degraded[query] = true;
                }
            } else {
                in_flight[worker_id] = true;
            }
        }
        self.handles
            .scatter_us
            .record(scatter_start.elapsed().as_micros() as u64);

        // Gather: per-shard lists keyed by global shard, then concatenated ascending.
        let gather_start = Instant::now();
        let mut per_shard: Vec<Option<Vec<Vec<f64>>>> = vec![None; snapshot.num_shards()];
        for worker_id in 0..workers {
            if !in_flight[worker_id] {
                continue;
            }
            let reply = {
                let stream = links[worker_id].stream.as_mut().expect("in-flight link");
                read_message(stream)
            };
            let owned = (worker_id..snapshot.num_shards()).step_by(workers);
            let response = match reply {
                Ok(Message::EvalResult(response))
                    if response.model_version == MODEL_VERSION
                        && is_whole_reply(&response, owned, sent[worker_id].len()) =>
                {
                    response
                }
                // Wrong version, a reply that is not the whole slice, an Error reply, a
                // timeout, or a dead socket: the worker cannot serve THIS batch — degrade
                // its slice loudly.
                _ => {
                    self.declare_lost(links, worker_id);
                    for &query in &sent[worker_id] {
                        degraded[query] = true;
                    }
                    continue;
                }
            };
            for lists in response.shards {
                per_shard[lists.index] = Some(lists.lists);
            }
        }

        let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
        for (shard, lists) in per_shard.into_iter().enumerate() {
            let Some(lists) = lists else { continue };
            let owner = shard % workers;
            for (position, &query) in sent[owner].iter().enumerate() {
                per_query[query].extend(lists[position].iter().copied());
            }
        }
        stats.compute_time = gather_start.elapsed();
        self.handles
            .gather_us
            .record(gather_start.elapsed().as_micros() as u64);

        // A degraded query may still have partial lists from surviving workers; a
        // partial fold would be silently wrong, so the whole query drops to the
        // fallback path (the shared fold's own fallback arm answers it).
        let merge_start = Instant::now();
        let mut degraded_indices = Vec::new();
        for (index, flag) in degraded.iter().enumerate() {
            if *flag {
                per_query[index].clear();
                degraded_indices.push(index);
            }
        }
        self.counters
            .degraded_queries
            .fetch_add(degraded_indices.len() as u64, Ordering::Relaxed);
        let estimates = fold_entry_lists(
            &self.options.config,
            self.fallback.as_deref(),
            &per_query,
            queries,
            &mut stats,
        );
        stats.merge_time = merge_start.elapsed();
        stats.total_time = start.elapsed();

        ServeResponse {
            estimates,
            stats,
            pool_version: snapshot.version(),
            snapshot,
            degraded: degraded_indices,
        }
    }

    /// Sends every connected worker a shutdown frame (the eval demo's clean teardown;
    /// lost workers are simply left to their own exit).
    pub fn shutdown_workers(&self) {
        let mut links = lock_links(&self.links);
        for link in links.iter_mut() {
            if let Some(stream) = link.stream.as_mut() {
                let _ = write_message(stream, &Message::Shutdown);
            }
            link.stream = None;
        }
    }
}

impl ComputeBackend for ClusterClient {
    fn serve(&self, queries: &[Query]) -> ServeResponse {
        let mut links = lock_links(&self.links);
        self.serve_locked(&mut links, queries)
    }

    fn fallback_estimate(&self, query: &Query) -> f64 {
        match &self.fallback {
            Some(fallback) => fallback.estimate(query),
            None => self.options.config.default_estimate,
        }
    }

    fn serving_versions(&self) -> (u64, u64) {
        (self.mirror.snapshot().version(), MODEL_VERSION)
    }

    fn apply_feedback(&self, query: &Query, cardinality: u64) {
        self.mirror.upsert(query.clone(), cardinality);
        let shard = self.mirror.shard_of(query);
        let mut links = lock_links(&self.links);
        let workers = links.len();
        let owner = shard % workers;
        if links[owner].stream.is_some() {
            let outcome = {
                let stream = links[owner].stream.as_mut().expect("live link");
                write_message(
                    stream,
                    &Message::Upsert(UpsertRequest {
                        shard,
                        query: query.clone(),
                        cardinality,
                    }),
                )
                .and_then(|()| read_message(stream))
            };
            match outcome {
                Ok(Message::UpsertAck) => {
                    self.counters
                        .upserts_forwarded
                        .fetch_add(1, Ordering::Relaxed);
                }
                _ => self.declare_lost(&mut links, owner),
            }
        }
        // A lost owner misses this upsert now, but reconnect re-ships the whole
        // mirror, so its shard converges to the authoritative state.
    }

    fn record_retention(&self, query: &Query, q_error: f64) -> bool {
        // Retention weights steer coordinator-side eviction/compaction only; they
        // never change what a shard scan returns, so workers don't need them.
        self.mirror.record_feedback(query, q_error)
    }

    fn pool_evictions(&self) -> u64 {
        self.mirror.evictions()
    }

    fn compact(&self) -> usize {
        let merged = self.mirror.compact();
        if merged > 0 {
            // Compaction restructures shard contents; re-ship every live worker its
            // assignment so worker shards stay bit-identical to the mirror.
            let mut links = lock_links(&self.links);
            let workers = links.len();
            for worker_id in 0..workers {
                if links[worker_id].stream.is_some()
                    && self
                        .ship_assignment(&mut links[worker_id], worker_id, workers)
                        .is_err()
                {
                    self.declare_lost(&mut links, worker_id);
                }
            }
        }
        merged
    }

    fn name(&self) -> &str {
        &self.name
    }
}
