//! The refresh controller: feedback intake, fine-tune trigger, validation gate, hot swap.
//!
//! One [`RefreshController`] sits between the serving runtime's maintenance lane (it is
//! the runtime's [`FeedbackObserver`](crn_serve::FeedbackObserver)) and the live [`EstimatorService`].  Intake is
//! cheap and lock-scoped (the maintenance thread must never stall on training); the
//! expensive refresh cycle — labelling, warm-start fine-tune, probe-set gate — runs on
//! whichever thread calls [`RefreshController::refresh_if_needed`]: a driver at its own
//! cadence, or the background [`RefreshWorker`].

use crate::feedback::{floored_q_error, DriftDetector, FeedbackRecord};
use crn_core::{
    fold_entry_lists, Cnt2CrdConfig, Cnt2CrdCore, CrnModel, EstimatorService, FinalFunction,
    QueriesPool,
};
use crn_db::Database;
use crn_exec::{label_containment_pairs, ContainmentSample};
use crn_nn::{Adam, ReplayBuffer, WorkerPool};
use crn_query::ast::Query;
use crn_serve::{FaultInjector, FaultSite, Supervisor, SupervisorPolicy, SupervisorVerdict};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Knobs of the online refresh loop (guidance: ROADMAP "Online refresh").
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Sliding q-error window size of the drift detector.
    pub drift_window: usize,
    /// Median q-error above which the window signals drift.
    pub drift_threshold: f64,
    /// Minimum q-errors in the window before drift can be declared.
    pub min_observations: usize,
    /// Minimum fresh (non-probe) feedback records before a fine-tune can trigger.
    pub min_fresh: usize,
    /// Fraction of the feedback stream routed to the held-out probe set (never trained
    /// on; deterministic stride routing).  0 disables the gate's data source — with an
    /// empty probe set no candidate can pass, so refreshes are effectively off.
    pub probe_fraction: f64,
    /// Most recent probe records kept (the gate evaluates against current traffic).
    pub probe_capacity: usize,
    /// Minimum probe records before a refresh may run (a gate over 2 queries is noise).
    pub min_probe: usize,
    /// Reservoir capacity of the training-history replay buffer.
    pub replay_capacity: usize,
    /// Fraction of each fine-tune corpus drawn from the replay buffer (the rest is the
    /// freshly labelled feedback).  0 disables replay, 0.5 mixes half-and-half.
    pub replay_fraction: f64,
    /// Epochs of each warm-start fine-tune ([`CrnModel::fit_incremental`]).
    pub fine_tune_epochs: usize,
    /// Fine-tune learning rate as a fraction of the model's training rate.  Full-rate
    /// Adam steps on a small fresh corpus overshoot a warm start; 0.2–0.5 adapts
    /// steadily without wrecking what the model already knows.
    pub learning_rate_scale: f64,
    /// Cap on freshly labelled pairs per refresh (labelling executes queries; this
    /// bounds the background-work budget of one cycle).
    pub max_pairs_per_refresh: usize,
    /// Relative margin the validation gate demands: a candidate is applied only when
    /// its probe median beats the live model's by this *fraction* —
    /// `candidate < live * (1 - gate_margin)`.  0 (the default) keeps the original
    /// strictly-better gate; a few percent (e.g. 0.05) buys hysteresis against noisy
    /// probe sets, where a statistically meaningless hair's-width "win" would otherwise
    /// churn the live model.  Clamped to `[0, 1]`.
    pub gate_margin: f64,
    /// Cap on original-training-corpus samples pushed into the replay reservoir at
    /// startup via [`RefreshController::seed_replay_from`] (0, the default, disables
    /// seeding).  Without it the buffer starts empty, so the *first* fine-tune trains
    /// on fresh drift alone and can forget the original workload; seeding makes the
    /// very first cycle mix history like every later one.
    pub seed_replay: usize,
    /// Seed of the controller's deterministic machinery (replay reservoir).
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            drift_window: 32,
            drift_threshold: 3.0,
            min_observations: 16,
            min_fresh: 16,
            probe_fraction: 0.25,
            probe_capacity: 64,
            min_probe: 4,
            replay_capacity: 256,
            replay_fraction: 0.5,
            fine_tune_epochs: 6,
            learning_rate_scale: 0.25,
            max_pairs_per_refresh: 256,
            gate_margin: 0.0,
            seed_replay: 0,
            seed: 42,
        }
    }
}

/// The refresh controller's validation-gate rule: a candidate is accepted only when its
/// probe median q-error beats the live model's by at least the relative `gate_margin`
/// fraction (`candidate < live * (1 - margin)`; margin is clamped to `[0, 1]`, and 0
/// keeps the strictly-better rule).
pub fn gate_accepts(live_median: f64, candidate_median: f64, gate_margin: f64) -> bool {
    candidate_median < live_median * (1.0 - gate_margin.clamp(0.0, 1.0))
}

/// Median q-error of `model` over a probe set — the number the refresh controller's
/// validation gate compares for the live model and a candidate.  The estimates come from
/// the shared serving core over `shards` without a fallback estimator, so they are
/// bit-identical to what [`EstimatorService::serve`] answers for these queries under that
/// model over that pool: the gate measures exactly the serving behaviour, for the live
/// model and a candidate alike.
pub fn probe_median<S: std::borrow::Borrow<QueriesPool> + Sync>(
    config: &Cnt2CrdConfig,
    model: &CrnModel,
    shards: &[S],
    queries: &[Query],
    truths: &[u64],
) -> f64 {
    let core = Cnt2CrdCore {
        config,
        model,
        shards,
        cache: None,
    };
    // Inline on the calling thread: a gate runs off the serving path and must not queue
    // behind it on a serving worker pool.
    let (per_query, mut stats) = core.entry_lists(&WorkerPool::shared(1), queries);
    let errors: Vec<f64> = fold_entry_lists(config, None, &per_query, queries, &mut stats)
        .iter()
        .zip(truths)
        .map(|(&estimate, &truth)| floored_q_error(estimate, truth))
        .collect();
    FinalFunction::Median.apply(&errors).unwrap_or(0.0)
}

/// Produces labelled containment training pairs for fresh feedback queries — the bridge
/// from `(query, true cardinality)` feedback to the CRN's training format.
///
/// The canonical implementation ([`ExecLabeler`]) pairs each fresh query with the pool
/// anchors sharing its FROM clause (exactly the pairings serving evaluates, §5.3) and
/// labels both containment directions by execution — the same ground-truth source the
/// feedback itself came from, spent as background work off the serving path.
pub trait FeedbackLabeler: Send + Sync {
    /// Labels fresh feedback against the current pool anchors.  `budget` caps how many
    /// pairs to produce (implementations should spread it over the fresh queries).
    fn label(
        &self,
        fresh: &[FeedbackRecord],
        anchors: &QueriesPool,
        budget: usize,
    ) -> Vec<ContainmentSample>;
}

/// The execution-backed [`FeedbackLabeler`]: pairs fresh queries with same-FROM-clause
/// pool anchors (both containment directions, round-robin over the fresh queries so the
/// budget spreads instead of exhausting on the first query) and labels by executing on
/// the given database snapshot.
pub struct ExecLabeler {
    db: Arc<Database>,
    threads: usize,
}

impl ExecLabeler {
    /// Creates the labeler over a database snapshot with a labelling thread budget.
    pub fn new(db: Arc<Database>, threads: usize) -> Self {
        ExecLabeler {
            db,
            threads: threads.max(1),
        }
    }
}

impl FeedbackLabeler for ExecLabeler {
    fn label(
        &self,
        fresh: &[FeedbackRecord],
        anchors: &QueriesPool,
        budget: usize,
    ) -> Vec<ContainmentSample> {
        // Per-fresh-query anchor references, in pool matching order.  The maintenance
        // lane upserts each fed query into the pool before the observer fires, so the
        // query itself usually sits among its own anchors: skip it — a (q, q) pair's
        // label is trivially 1.0 and would burn labelling budget twice per record.
        let per_query: Vec<(&Query, Vec<&Query>)> = fresh
            .iter()
            .map(|record| {
                let matching: Vec<&Query> = anchors
                    .matching(&record.query)
                    .map(|entry| &entry.query)
                    .filter(|anchor| **anchor != record.query)
                    .collect();
                (&record.query, matching)
            })
            .collect();
        // Round-robin across fresh queries up to the budget, cloning only what is
        // emitted.  Both containment directions per pairing: serving consults
        // anchor ⊂% query AND query ⊂% anchor, so the fine-tune must cover both heads.
        let mut pairs: Vec<(Query, Query)> = Vec::new();
        let mut depth = 0usize;
        'fill: loop {
            let mut any = false;
            for (query, query_anchors) in &per_query {
                if let Some(anchor) = query_anchors.get(depth) {
                    any = true;
                    for pair in [
                        ((*anchor).clone(), (*query).clone()),
                        ((*query).clone(), (*anchor).clone()),
                    ] {
                        pairs.push(pair);
                        if pairs.len() >= budget {
                            break 'fill;
                        }
                    }
                }
            }
            if !any {
                break;
            }
            depth += 1;
        }
        label_containment_pairs(&self.db, &pairs, self.threads)
    }
}

/// Why a refresh cycle ended the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDecision {
    /// The candidate beat the live model on the probe set and was hot-swapped in.
    Applied,
    /// The candidate failed the validation gate and was discarded (counted, never
    /// served).
    RejectedByGate,
    /// The labeler produced no training pairs (e.g. no anchors share the fresh queries'
    /// FROM clauses); nothing was trained.
    NoTrainingPairs,
}

/// The outcome of one refresh cycle (returned by
/// [`RefreshController::refresh_if_needed`] when a cycle ran).
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// What happened.
    pub decision: RefreshDecision,
    /// The live model's median q-error on the held-out probe set at gate time.
    pub live_probe_median: f64,
    /// The candidate's median q-error on the same probe set.
    pub candidate_probe_median: f64,
    /// The model version serving after the cycle (bumped only on `Applied`).
    pub model_version: u64,
    /// Fresh feedback records consumed by the cycle.
    pub fresh_records: usize,
    /// Labelled pairs produced for the fine-tune.
    pub labeled_pairs: usize,
    /// History samples mixed in from the replay buffer.
    pub replayed: usize,
    /// Probe records the gate evaluated on.
    pub probe_records: usize,
    /// The (clamped) relative gate margin the cycle enforced
    /// ([`OnlineConfig::gate_margin`]).
    pub gate_margin: f64,
    /// Near-duplicate anchors merged by the post-swap pool compaction (0 unless the
    /// cycle was [`Applied`](RefreshDecision::Applied)).
    pub pool_compacted: usize,
}

impl RefreshOutcome {
    /// The gate invariant: an applied refresh must have beaten the live model on the
    /// probe set by at least the configured relative margin.  `tests/online_refresh.rs`
    /// re-checks this on every cycle it drives.
    pub fn gate_respected(&self) -> bool {
        match self.decision {
            RefreshDecision::Applied => gate_accepts(
                self.live_probe_median,
                self.candidate_probe_median,
                self.gate_margin,
            ),
            RefreshDecision::RejectedByGate | RefreshDecision::NoTrainingPairs => true,
        }
    }
}

/// Monotonic counters describing a controller's lifetime.  Serializable: they ride
/// along in [`Checkpoint`](crate::Checkpoint)s so a restored process resumes its
/// refresh history instead of starting the counters over.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    /// Feedback records observed (probe + fresh).
    pub feedback_seen: u64,
    /// Records routed to the held-out probe set.
    pub probe_routed: u64,
    /// Times the drift detector's signal (with enough fresh data) started a cycle.
    pub refreshes_attempted: u64,
    /// Cycles whose candidate passed the gate and was hot-swapped.
    pub refreshes_applied: u64,
    /// Cycles whose candidate the gate discarded — counted, never served.
    pub refreshes_rejected: u64,
    /// Cycles that found no labelable training pairs.
    pub refreshes_without_pairs: u64,
    /// The live model version after the most recent cycle (1 = the initial model).
    pub live_model_version: u64,
    /// Gate medians of the most recent cycle (0 until a cycle ran).
    pub last_live_probe_median: f64,
    /// See [`OnlineStats::last_live_probe_median`].
    pub last_candidate_probe_median: f64,
    /// The drift window's current median q-error (serving health at a glance).
    pub window_median: f64,
    /// Near-duplicate anchors merged by post-swap pool compactions, cumulatively.
    pub pool_compacted: u64,
}

/// Mutable controller state behind one mutex (intake is cheap; refresh cycles move the
/// expensive work outside — see the module docs).
struct ControllerState {
    detector: DriftDetector,
    /// Fresh (non-probe) feedback since the last refresh cycle.
    fresh: Vec<FeedbackRecord>,
    /// The held-out probe set: most recent `probe_capacity` probe-routed records.
    probe: Vec<FeedbackRecord>,
    /// Reservoir-sampled training history (labelled pairs of past refreshes).
    replay: ReplayBuffer<ContainmentSample>,
    /// The optimizer of the live model's lineage: its moments and step count, resumed by
    /// every refresh and adopted together with the candidate it fine-tuned.
    adam: Adam,
    /// Deterministic probe routing: every record where `route_count * fraction` crosses
    /// an integer boundary goes to the probe set.
    route_count: u64,
    probe_routed_acc: f64,
    /// True while a refresh cycle is in flight (cycles never run concurrently).
    refreshing: bool,
    stats: OnlineStats,
}

/// The refresh controller — see the [module docs](self).
pub struct RefreshController {
    service: Arc<EstimatorService<CrnModel>>,
    labeler: Box<dyn FeedbackLabeler>,
    config: OnlineConfig,
    state: Mutex<ControllerState>,
    /// Signalled when intake makes a refresh possible (wakes the [`RefreshWorker`]).
    trigger: Condvar,
    /// The journal the refresh worker's supervisor records restarts and degradation
    /// into (inert unless wired via [`with_obs`](RefreshController::with_obs)).
    obs: crn_obs::Obs,
}

impl RefreshController {
    /// Creates the controller over the live service with the given labeler.
    pub fn new(
        service: Arc<EstimatorService<CrnModel>>,
        labeler: Box<dyn FeedbackLabeler>,
        config: OnlineConfig,
    ) -> Self {
        let learning_rate =
            service.model().config().learning_rate * config.learning_rate_scale.max(0.0) as f32;
        let detector = DriftDetector::new(
            config.drift_window,
            config.drift_threshold,
            config.min_observations,
        );
        let stats = OnlineStats {
            live_model_version: service.model_version(),
            ..OnlineStats::default()
        };
        RefreshController {
            state: Mutex::new(ControllerState {
                detector,
                fresh: Vec::new(),
                probe: Vec::new(),
                replay: ReplayBuffer::new(config.replay_capacity, config.seed),
                adam: Adam::new(learning_rate),
                route_count: 0,
                probe_routed_acc: 0.0,
                refreshing: false,
                stats,
            }),
            service,
            labeler,
            config,
            trigger: Condvar::new(),
            obs: crn_obs::Obs::disabled(),
        }
    }

    /// Seeds the replay reservoir from the original training corpus (capped at
    /// [`OnlineConfig::seed_replay`]; a no-op at the default 0).  Call once at startup,
    /// before feedback flows: the very first fine-tune then mixes original-workload
    /// history into its corpus exactly like later cycles mix their banked labels —
    /// without this the first cycle trains on fresh drift alone.  Returns how many
    /// samples were pushed.
    pub fn seed_replay_from(&self, corpus: &[ContainmentSample]) -> usize {
        let cap = self.config.seed_replay;
        if cap == 0 {
            return 0;
        }
        let mut state = self.state.lock().expect("controller state lock");
        let take = corpus.len().min(cap);
        for sample in &corpus[..take] {
            state.replay.push(sample.clone());
        }
        take
    }

    /// Wires the refresh worker's supervision into `obs`: its journal records each
    /// restart and degradation of the refresh lane.  A disabled `obs` keeps the exact
    /// pre-observability behavior.
    pub fn with_obs(mut self, obs: &crn_obs::Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<EstimatorService<CrnModel>> {
        &self.service
    }

    /// The controller's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Records one feedback triple (what [`crn_serve::FeedbackObserver::observe`]
    /// forwards).  Cheap: a q-error, a window push and a routing decision under one
    /// short lock — safe to call from the maintenance thread.
    pub fn record(&self, record: FeedbackRecord) {
        let mut state = self.state.lock().expect("controller state lock");
        state.detector.observe(record.q_error());
        state.stats.feedback_seen += 1;
        state.stats.window_median = state.detector.median().unwrap_or(0.0);
        // Deterministic stride routing: accumulate the fraction and peel a probe record
        // whenever it crosses an integer (e.g. fraction 0.25 -> every 4th record).
        state.route_count += 1;
        state.probe_routed_acc += self.config.probe_fraction.clamp(0.0, 1.0);
        if state.probe_routed_acc >= 1.0 {
            state.probe_routed_acc -= 1.0;
            state.stats.probe_routed += 1;
            if state.probe.len() == self.config.probe_capacity.max(1) {
                state.probe.remove(0);
            }
            state.probe.push(record);
        } else {
            state.fresh.push(record);
        }
        if self.refresh_possible(&state) {
            self.trigger.notify_all();
        }
    }

    /// Whether a refresh cycle would start right now (drift + enough fresh + a viable
    /// probe set + no cycle already in flight).
    fn refresh_possible(&self, state: &ControllerState) -> bool {
        !state.refreshing
            && state.detector.drifted()
            && state.fresh.len() >= self.config.min_fresh
            && state.probe.len() >= self.config.min_probe.max(1)
    }

    /// A point-in-time snapshot of the controller's counters.
    pub fn stats(&self) -> OnlineStats {
        self.state
            .lock()
            .expect("controller state lock")
            .stats
            .clone()
    }

    /// Runs one refresh cycle if the trigger conditions hold, returning its outcome
    /// (`None` when nothing triggered).  The expensive phases — labelling, fine-tune,
    /// probe gate — run on the calling thread with the intake lock *released*, so
    /// serving and feedback intake continue untouched; the concluding hot swap is an
    /// `Arc` pointer swap.
    pub fn refresh_if_needed(&self) -> Option<RefreshOutcome> {
        // Phase 0 — claim the cycle and take its inputs under the intake lock.
        let (fresh, probe) = {
            let mut state = self.state.lock().expect("controller state lock");
            if !self.refresh_possible(&state) {
                return None;
            }
            state.refreshing = true;
            state.stats.refreshes_attempted += 1;
            let fresh = std::mem::take(&mut state.fresh);
            let probe = state.probe.clone();
            (fresh, probe)
        };
        let outcome = self.run_cycle(&fresh, &probe);
        // Phase 4 — publish the outcome and re-arm.
        let mut state = self.state.lock().expect("controller state lock");
        state.refreshing = false;
        // Re-arm drift on post-refresh observations only (whatever the decision: a
        // rejected candidate should not immediately re-trip on the same stale window).
        state.detector.reset();
        state.stats.window_median = 0.0;
        match outcome.decision {
            RefreshDecision::Applied => state.stats.refreshes_applied += 1,
            RefreshDecision::RejectedByGate => state.stats.refreshes_rejected += 1,
            RefreshDecision::NoTrainingPairs => state.stats.refreshes_without_pairs += 1,
        }
        state.stats.live_model_version = outcome.model_version;
        state.stats.last_live_probe_median = outcome.live_probe_median;
        state.stats.last_candidate_probe_median = outcome.candidate_probe_median;
        state.stats.pool_compacted += outcome.pool_compacted as u64;
        Some(outcome)
    }

    /// The cycle body: label, mix, fine-tune, gate, swap.  Runs without the intake lock.
    fn run_cycle(&self, fresh: &[FeedbackRecord], probe: &[FeedbackRecord]) -> RefreshOutcome {
        let gate_margin = self.config.gate_margin.clamp(0.0, 1.0);
        // One flattened pool snapshot for the whole cycle, with every probe query
        // *removed*: the maintenance lane upserts executed queries (including the
        // probe-routed ones) into the pool with their true cardinalities, so a pool
        // entry identical to a probe query would let BOTH models answer it from memory
        // (q-error ≈ 1) and the gate would measure pool recall instead of model
        // quality.  Probe queries are held out of the entire cycle: never an anchor in
        // the gate's evaluations, never a labelling pairing.
        let mut pool = self.service.pool().to_pool();
        for record in probe {
            pool.remove(&record.query);
        }
        let labeled = self
            .labeler
            .label(fresh, &pool, self.config.max_pairs_per_refresh);
        if labeled.is_empty() {
            return RefreshOutcome {
                decision: RefreshDecision::NoTrainingPairs,
                live_probe_median: 0.0,
                candidate_probe_median: 0.0,
                model_version: self.service.model_version(),
                fresh_records: fresh.len(),
                labeled_pairs: 0,
                replayed: 0,
                probe_records: probe.len(),
                gate_margin,
                pool_compacted: 0,
            };
        }

        // Replay mix: draw history so that `replay_fraction` of the corpus is replayed
        // (n_replay = fresh * f / (1 - f)), then bank the fresh labels for future cycles.
        let (replayed, mut adam) = {
            let mut state = self.state.lock().expect("controller state lock");
            let fraction = self.config.replay_fraction.clamp(0.0, 0.9);
            let want = ((labeled.len() as f64) * fraction / (1.0 - fraction)).round() as usize;
            let replayed = state.replay.sample(want);
            for sample in &labeled {
                state.replay.push(sample.clone());
            }
            (replayed, state.adam.clone())
        };
        let mut corpus = labeled.clone();
        corpus.extend(replayed.iter().cloned());

        // Warm-start fine-tune of a clone, off the serving path, resuming a clone of the
        // lineage's optimizer (zero moments on the first cycle).
        let live = self.service.model();
        let mut candidate = (*live).clone();
        candidate.fit_incremental(&corpus, &mut adam, self.config.fine_tune_epochs);

        // The validation gate: both models on the same probe set over the same pool and
        // serving configuration, through the serving core.  Better by at least the relative
        // margin, or discarded (margin 0 = the original strictly-better gate).
        let (queries, truths): (Vec<Query>, Vec<u64>) = probe
            .iter()
            .map(|record| (record.query.clone(), record.true_cardinality))
            .unzip();
        let (config, shards) = (self.service.config(), [&pool]);
        let median_under =
            |model: &CrnModel| probe_median(config, model, &shards, &queries, &truths);
        let live_probe_median = median_under(&live);
        let candidate_probe_median = median_under(&candidate);
        if gate_accepts(live_probe_median, candidate_probe_median, gate_margin) {
            let model_version = self.service.swap_model(candidate);
            // The candidate is live: its optimizer is the lineage's from now on.
            self.state.lock().expect("controller state lock").adam = adam;
            // The anchor population churns most around an applied refresh — the
            // maintenance lane has been upserting drifted traffic the whole window —
            // so this is the cadence at which near-duplicate anchors accumulate.
            // Compacting here (never on rejected cycles: nothing changed) folds each
            // structural near-duplicate group into its best-retained representative,
            // off the serving path like everything else in the cycle body.
            let pool_compacted = self.service.pool().compact();
            RefreshOutcome {
                decision: RefreshDecision::Applied,
                live_probe_median,
                candidate_probe_median,
                model_version,
                fresh_records: fresh.len(),
                labeled_pairs: labeled.len(),
                replayed: replayed.len(),
                probe_records: probe.len(),
                gate_margin,
                pool_compacted,
            }
        } else {
            // Discard the candidate and the optimizer clone that fine-tuned it: the
            // lineage keeps the optimizer that produced the live model.
            RefreshOutcome {
                decision: RefreshDecision::RejectedByGate,
                live_probe_median,
                candidate_probe_median,
                model_version: self.service.model_version(),
                fresh_records: fresh.len(),
                labeled_pairs: labeled.len(),
                replayed: replayed.len(),
                probe_records: probe.len(),
                gate_margin,
                pool_compacted: 0,
            }
        }
    }

    /// Captures the controller state a [`Checkpoint`](crate::Checkpoint) carries: the
    /// lifetime counters plus the optimizer (moments and step count) and probe-routing
    /// position.  The
    /// transient windows (drift detector, fresh/probe/replay buffers) are deliberately
    /// *not* persisted — they describe recent traffic, which a restored process no
    /// longer has; refilling them from live feedback is both correct and cheap, while a
    /// wrong optimizer state would silently mis-scale every future fine-tune.
    pub fn checkpoint_state(&self) -> ControllerCheckpoint {
        let state = self.state.lock().expect("controller state lock");
        ControllerCheckpoint {
            stats: state.stats.clone(),
            adam: state.adam.clone(),
            route_count: state.route_count,
            probe_routed_acc: state.probe_routed_acc,
        }
    }

    /// Restores the durable state captured by
    /// [`checkpoint_state`](RefreshController::checkpoint_state) into this (freshly
    /// constructed) controller.  The restored optimizer — moments and step count — must
    /// accompany the restored model's weights: together they make a restored run's future
    /// fine-tunes bit-identical to an uninterrupted one's.
    pub fn restore_state(&self, checkpoint: ControllerCheckpoint) {
        let mut state = self.state.lock().expect("controller state lock");
        state.stats = checkpoint.stats;
        state.stats.live_model_version = self.service.model_version();
        state.adam = checkpoint.adam;
        state.route_count = checkpoint.route_count;
        state.probe_routed_acc = checkpoint.probe_routed_acc;
    }

    /// Reconciles the controller after a refresh-worker panic: clears the in-flight
    /// cycle flag so future cycles can trigger again (the panicked cycle's taken fresh
    /// records are lost — feedback keeps flowing, the next window refills).  Tolerates
    /// the poisoned lock a mid-cycle panic leaves behind.
    pub fn recover_after_panic(&self) {
        let mut state = match self.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.refreshing = false;
    }

    /// Parks the calling thread until a refresh becomes possible or the timeout elapses
    /// (the [`RefreshWorker`]'s wait primitive).  Returns whether a refresh is possible.
    fn wait_for_trigger(&self, timeout: Duration) -> bool {
        let state = self.state.lock().expect("controller state lock");
        if self.refresh_possible(&state) {
            return true;
        }
        let (state, _timed_out) = self
            .trigger
            .wait_timeout(state, timeout)
            .expect("controller state lock");
        self.refresh_possible(&state)
    }
}

/// The controller's durable state, as carried inside a [`Checkpoint`](crate::Checkpoint):
/// lifetime counters, the optimizer (its moments and step count) and the deterministic
/// probe-routing position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// The lifetime counters at capture time.
    pub stats: OnlineStats,
    /// The resumed optimizer: its moments, shaped like the checkpointed model's weights
    /// (empty before the first fine-tune), and its step count, which drives Adam's bias
    /// correction.  Restoring both keeps post-restore fine-tunes bit-identical to an
    /// uninterrupted run's.
    pub adam: Adam,
    /// Feedback records routed so far (the probe-routing stride position).
    pub route_count: u64,
    /// The fractional probe-routing accumulator.
    pub probe_routed_acc: f64,
}

impl crn_serve::FeedbackObserver for RefreshController {
    fn observe(&self, query: &Query, true_cardinality: u64, estimate: f64) {
        self.record(FeedbackRecord {
            query: query.clone(),
            true_cardinality,
            estimate,
        });
    }
}

impl std::fmt::Debug for RefreshController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshController")
            .field("service", &self.service.name())
            .field("config", &self.config)
            .finish()
    }
}

/// The background trainer: a thread that parks on the controller's trigger and runs
/// refresh cycles as they become possible — model refresh fully off the serving path.
///
/// Dropping (or [`stop`](RefreshWorker::stop)ping) the worker finishes any in-flight
/// cycle and joins the thread.  Drivers that need determinism (demos, CI) skip the
/// worker and pace [`RefreshController::refresh_if_needed`] themselves.
pub struct RefreshWorker {
    stop: Arc<Mutex<bool>>,
    controller: Arc<RefreshController>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RefreshWorker {
    /// Spawns the worker over a shared controller.  `poll_interval` bounds how long the
    /// worker sleeps between trigger checks (it also wakes immediately when intake
    /// signals a possible refresh).  The worker runs under its own default-policy
    /// supervisor; use [`spawn_supervised`](RefreshWorker::spawn_supervised) to budget
    /// it together with a serving runtime's lanes.
    pub fn spawn(controller: Arc<RefreshController>, poll_interval: Duration) -> Self {
        Self::spawn_supervised(
            controller,
            poll_interval,
            Arc::new(Supervisor::new(SupervisorPolicy::default())),
            FaultInjector::none(),
        )
    }

    /// [`spawn`](RefreshWorker::spawn) under an explicit supervisor (typically the
    /// serving runtime's, so all three background lanes budget under one policy and
    /// report in one place) and fault injector (the chaos suite's
    /// [`FaultSite::RefreshCycle`] scripts a panic right before a cycle runs).
    ///
    /// A panicked cycle loses its taken fresh-feedback window, nothing else: the
    /// recovery hook clears the in-flight flag, the supervisor grants a restart within
    /// budget (lane [`crn_serve::LANE_REFRESH`]), and the worker re-enters its loop.
    /// Past the budget the worker stays down — the model stops refreshing, visible in
    /// the supervisor's `degraded` view, while serving continues unharmed.
    pub fn spawn_supervised(
        controller: Arc<RefreshController>,
        poll_interval: Duration,
        supervisor: Arc<Supervisor>,
        injector: Arc<FaultInjector>,
    ) -> Self {
        let stop = Arc::new(Mutex::new(false));
        let handle = {
            let controller = Arc::clone(&controller);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("crn-online-refresh".into())
                .spawn(move || loop {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                        let stopped = match stop.lock() {
                            Ok(flag) => *flag,
                            Err(poisoned) => *poisoned.into_inner(),
                        };
                        if stopped {
                            return;
                        }
                        if controller.wait_for_trigger(poll_interval) {
                            // Scripted refresh-cycle panic: outside the cycle's own
                            // work, so the injected death exercises exactly the
                            // supervision path.
                            injector.fire(FaultSite::RefreshCycle);
                            controller.refresh_if_needed();
                        }
                    }));
                    match run {
                        Ok(()) => return,
                        Err(_panic) => {
                            controller.recover_after_panic();
                            match supervisor.on_panic(crn_serve::LANE_REFRESH) {
                                SupervisorVerdict::Restart => {
                                    controller.obs.record_event(
                                        crn_obs::Event::SupervisorRestart {
                                            lane: crn_serve::LANE_REFRESH,
                                            restarts: supervisor.restarts(crn_serve::LANE_REFRESH),
                                        },
                                    );
                                    continue;
                                }
                                SupervisorVerdict::Degrade => {
                                    controller.obs.record_event(crn_obs::Event::LaneDegraded {
                                        lane: crn_serve::LANE_REFRESH,
                                    });
                                    return;
                                }
                            }
                        }
                    }
                })
                .expect("spawn refresh worker")
        };
        RefreshWorker {
            stop,
            controller,
            handle: Some(handle),
        }
    }

    /// The shared controller.
    pub fn controller(&self) -> &Arc<RefreshController> {
        &self.controller
    }

    /// Stops the worker: any in-flight cycle completes, then the thread joins.
    pub fn stop(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        *self.stop.lock().expect("stop flag lock") = true;
        // Wake the worker out of its timed park so it observes the flag promptly.
        self.controller.trigger.notify_all();
        if let Some(handle) = self.handle.take() {
            handle.join().expect("refresh worker exits cleanly");
        }
    }
}

impl Drop for RefreshWorker {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_impl();
        }
    }
}
