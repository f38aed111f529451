//! Data-parallel epoch execution: a persistent shard pool with deterministic gradient
//! reduction.
//!
//! Mini-batch training is data-parallel up to the optimizer step: the per-sample losses and
//! gradients of one mini-batch are independent, only their *sum* feeds Adam.  This module
//! supplies the machinery the CRN and MSCN training loops use to exploit that:
//!
//! * [`ThreadPoolConfig`] — how many worker threads to use and whether to run in
//!   *deterministic* mode;
//! * [`WorkerPool`] — the shard pool: `num_shards` independent work items executed by
//!   `threads` spawn-once workers (the vendored-deps policy rules out rayon), results
//!   returned **in canonical shard order** regardless of which worker ran which shard.  It
//!   is shared process-wide per thread count: training loops and the Cnt2Crd serving layer
//!   submit every mini-batch / per-query job to the same long-lived workers;
//! * [`GradientSet`] — a model's gradient tensors as plain matrices, detached from the
//!   parameters so every shard can accumulate privately ([`ShardGradients`]: one set per
//!   shard, kept for the whole training run);
//! * [`reduce_gradients`] — merges per-shard gradient sets in a **fixed shard order**
//!   (tree reduction by default, strictly sequential in deterministic mode).  Training
//!   applies the same sums element by element inside the optimizer pass
//!   ([`Adam::step_sharded`](crate::optim::Adam::step_sharded)); this function is the
//!   definition that pass is tested against.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so *how* shard gradients are merged decides
//! reproducibility:
//!
//! * **Default mode** shards each mini-batch into `threads` pieces and tree-reduces them in
//!   fixed shard order.  Results are bit-for-bit reproducible *for a given thread count*
//!   (re-running with the same `threads` gives identical models), but change when the
//!   thread count changes, because the shard boundaries move.
//! * **Deterministic mode** ([`ThreadPoolConfig::deterministic`]) always splits into
//!   [`DETERMINISTIC_SHARDS`] canonical shards — independent of the thread count — and
//!   reduces them in canonical (sequential) order.  Training is then bit-for-bit identical
//!   at `threads = 1, 2, 4, ...`; the thread count only changes wall-clock time.  The
//!   cross-thread parity tests in `crn-core` and `crn-estimators` pin this.
//!
//! In both modes the work queue hands shards to workers dynamically (an atomic cursor), but
//! every shard's result lands in its own slot and every element's merge runs in shard order
//! — whichever thread computes it — so scheduling jitter never reaches the arithmetic.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Number of canonical shards used by deterministic mode, chosen independently of the
/// thread count so that the f32 reduction order — and therefore the trained model — is
/// identical no matter how many workers execute the shards.  8 keeps per-shard batches
/// large enough for the blocked GEMM kernels at the paper's batch size of 128 while
/// allowing up to 8 workers to help.
pub const DETERMINISTIC_SHARDS: usize = 8;

/// Thread-pool configuration of the data-parallel training engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadPoolConfig {
    /// Number of worker threads for sharded epoch work (`1` disables spawning entirely and
    /// runs the exact single-threaded batched path).
    pub threads: usize,
    /// Deterministic mode: shard each mini-batch into [`DETERMINISTIC_SHARDS`] canonical
    /// pieces and reduce gradients in canonical order, so results are bit-identical for
    /// every thread count (see the module docs for the full contract).
    pub deterministic: bool,
}

impl ThreadPoolConfig {
    /// The exact PR-1 single-threaded batched path: one shard per mini-batch, no spawning.
    pub fn single_threaded() -> Self {
        ThreadPoolConfig {
            threads: 1,
            deterministic: false,
        }
    }

    /// `threads` workers in default (per-thread-count reproducible) mode.
    pub fn with_threads(threads: usize) -> Self {
        ThreadPoolConfig {
            threads: threads.max(1),
            deterministic: false,
        }
    }

    /// `threads` workers in deterministic mode (bit-identical across thread counts).
    pub fn deterministic(threads: usize) -> Self {
        ThreadPoolConfig {
            threads: threads.max(1),
            deterministic: true,
        }
    }

    /// Reads the configuration from the environment: `THREADS` (worker count, default 1)
    /// and `DETERMINISTIC` (`1`/`true`/`yes` enables deterministic mode).  This is what
    /// [`crate::train::TrainConfig::default`] uses, so `THREADS=4 cargo test` runs the whole
    /// suite through the parallel engine — the CI thread-matrix job relies on it.
    pub fn from_env() -> Self {
        Self::parse(
            std::env::var("THREADS").ok().as_deref(),
            std::env::var("DETERMINISTIC").ok().as_deref(),
        )
    }

    /// Pure parsing core of [`ThreadPoolConfig::from_env`] (split out for testability).
    fn parse(threads: Option<&str>, deterministic: Option<&str>) -> Self {
        let threads = threads
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1);
        let deterministic = deterministic.map(str::trim).is_some_and(|v| {
            ["1", "true", "yes"]
                .iter()
                .any(|on| v.eq_ignore_ascii_case(on))
        });
        ThreadPoolConfig {
            threads,
            deterministic,
        }
    }

    /// Number of shards one mini-batch of `num_items` samples is split into: the canonical
    /// [`DETERMINISTIC_SHARDS`] in deterministic mode, else the thread count — capped by the
    /// item count in both cases (a shard is never empty).
    pub fn shard_count(&self, num_items: usize) -> usize {
        if num_items == 0 {
            return 0;
        }
        let shards = if self.deterministic {
            DETERMINISTIC_SHARDS
        } else {
            self.threads.max(1)
        };
        shards.min(num_items)
    }
}

impl Default for ThreadPoolConfig {
    /// Environment-driven ([`ThreadPoolConfig::from_env`]): single-threaded unless `THREADS`
    /// is set.
    fn default() -> Self {
        ThreadPoolConfig::from_env()
    }
}

/// A persistent data-parallel worker pool: `threads - 1` workers spawned **once** and reused
/// across jobs (see [`run_sharded`](WorkerPool::run_sharded) for a job's contract).
///
/// Spawning threads per call is fine for a handful of epoch-level calls but measurably not
/// for per-mini-batch or per-query work: the spawn/join overhead once cost +24% of a
/// small-batch training epoch.  Training (the one loop of [`crate::train`]) and the
/// Cnt2Crd serving layer therefore take a `WorkerPool` handle — obtained once via
/// [`WorkerPool::shared`] — and submit every mini-batch and every per-shard serving job to
/// the same long-lived workers.
///
/// Handles are cheap clones of one shared pool (`Arc` internally); the spawned threads exit
/// when the last handle drops.  Jobs from concurrent submitters are serialized in submission
/// order — the pool runs one job at a time, so per-job determinism is unaffected by other
/// submitters.  Jobs must not submit nested jobs to the same pool (the nested submit would
/// wait on its own job's completion); shard bodies are expected to be pure compute.
#[derive(Clone)]
pub struct WorkerPool {
    core: Arc<PoolCore>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.core.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (the calling thread counts as one: only
    /// `threads - 1` OS threads are spawned, and `threads <= 1` spawns none and runs every
    /// job inline).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner::default());
        let handles = (1..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        WorkerPool {
            core: Arc::new(PoolCore {
                inner,
                threads,
                handles,
            }),
        }
    }

    /// Returns the process-wide shared pool for the given thread count, creating (and
    /// spawning) it on first use.  This is how the training loops and the serving layer
    /// amortize thread spawns across *all* mini-batches and queries of the process: every
    /// `ThreadPoolConfig` with the same `threads` resolves to the same OS threads.
    ///
    /// Shared pools live for the remainder of the process (the registry keeps one handle).
    pub fn shared(threads: usize) -> WorkerPool {
        static REGISTRY: OnceLock<Mutex<HashMap<usize, WorkerPool>>> = OnceLock::new();
        let threads = threads.max(1);
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut pools = lock_ignoring_poison(registry);
        pools
            .entry(threads)
            .or_insert_with(|| WorkerPool::new(threads))
            .clone()
    }

    /// The pool's worker count (including the submitting thread).
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Executes `num_shards` independent work items on the pool and returns the results
    /// **in shard order**.
    ///
    /// Shards are handed out dynamically (an atomic cursor), so uneven shard costs balance
    /// across workers; every result lands in its own slot, so the returned order — and any
    /// reduction the caller performs over it — is independent of scheduling.  The calling
    /// thread drains the queue alongside the workers, and with `threads <= 1` (or a single
    /// shard) the work runs inline on it.
    ///
    /// # Panics
    /// Propagates a panic from any shard's work; the pool survives and serves the next job.
    pub fn run_sharded<T, F>(&self, num_shards: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if num_shards == 0 {
            return Vec::new();
        }
        if self.core.threads <= 1 || num_shards <= 1 {
            return (0..num_shards).map(work).collect();
        }
        let slots: Vec<ResultSlot<T>> = (0..num_shards).map(|_| ResultSlot::new()).collect();
        let slots_ref = &slots;
        let work_ref = &work;
        let task = move |shard: usize| {
            let value = work_ref(shard);
            // SAFETY: the job cursor hands each shard index to exactly one executor, so
            // this is the only writer of slot `shard`.
            unsafe { slots_ref[shard].set(value) };
        };
        let erased: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: `submit_and_drain` blocks until every shard invocation has returned, so
        // the erased borrow of `task` (and everything it captures) outlives all uses.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(erased) };
        let panicked = self.core.inner.submit_and_drain(erased, num_shards);
        if panicked {
            panic!("worker pool shard panicked");
        }
        slots
            .into_iter()
            .map(|slot| slot.take().expect("every shard produced exactly once"))
            .collect()
    }

    /// Range-partitioned form of [`run_sharded`](WorkerPool::run_sharded): runs `work` once
    /// per range of `ranges` and returns the results in range order.
    pub fn run_over_ranges<T, F>(&self, ranges: &[Range<usize>], work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        self.run_sharded(ranges.len(), |shard| work(ranges[shard].clone()))
    }
}

impl ThreadPoolConfig {
    /// The process-shared persistent [`WorkerPool`] for this configuration's thread count.
    pub fn worker_pool(&self) -> WorkerPool {
        WorkerPool::shared(self.threads)
    }
}

/// The user-facing shared state of one pool: dropped when the last [`WorkerPool`] handle
/// drops, which shuts the workers down.
struct PoolCore {
    inner: Arc<PoolInner>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut state = lock_ignoring_poison(&self.inner.state);
            state.shutdown = true;
            self.inner.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job already surfaced through the submit
            // path; at shutdown all that matters is that the thread is gone.
            let _ = handle.join();
        }
    }
}

/// Worker-visible pool state.
#[derive(Default)]
struct PoolInner {
    /// Serializes submitters: one job runs at a time, in submission order.
    submit: Mutex<()>,
    /// The published job and the shutdown flag, guarded for the condvars.
    state: Mutex<JobState>,
    /// Signalled when a new job is published (and at shutdown).
    work_ready: Condvar,
    /// Signalled when a job's last shard completes.
    work_done: Condvar,
}

#[derive(Default)]
struct JobState {
    job: Option<Job>,
    /// Bumped per job so a worker never re-enters the job it just drained.
    generation: u64,
    shutdown: bool,
}

/// One submitted job.  Each job owns its *own* cursor/completion atomics: a worker that
/// wakes up late (or lingers after draining) can only touch the atomics of the job it
/// actually observed, never a successor job's hand-out state.
#[derive(Clone)]
struct Job {
    task: TaskPtr,
    num_shards: usize,
    cursor: Arc<AtomicUsize>,
    completed: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
}

/// The erased task pointer of a [`Job`].
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation from many threads is its contract), and
// the submitter keeps it alive until the job completes, which bounds every dereference.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

impl PoolInner {
    /// Publishes a job, drains it from the calling thread alongside the workers, and blocks
    /// until every shard has completed.  Returns whether any shard panicked.
    fn submit_and_drain(&self, task: *const (dyn Fn(usize) + Sync), num_shards: usize) -> bool {
        let _submit = lock_ignoring_poison(&self.submit);
        let job = Job {
            task: TaskPtr(task),
            num_shards,
            cursor: Arc::new(AtomicUsize::new(0)),
            completed: Arc::new(AtomicUsize::new(0)),
            panicked: Arc::new(AtomicBool::new(false)),
        };
        {
            let mut state = lock_ignoring_poison(&self.state);
            debug_assert!(state.job.is_none(), "submitters are serialized");
            state.generation = state.generation.wrapping_add(1);
            state.job = Some(job.clone());
            self.work_ready.notify_all();
        }
        self.drain(&job);
        {
            let mut state = lock_ignoring_poison(&self.state);
            while job.completed.load(Ordering::Acquire) < num_shards {
                state = wait_ignoring_poison(&self.work_done, state);
            }
            state.job = None;
        }
        job.panicked.load(Ordering::Acquire)
    }

    /// Pulls shards off a job's cursor until the queue is exhausted.  Shared by the workers
    /// and the submitting thread.
    fn drain(&self, job: &Job) {
        loop {
            let shard = job.cursor.fetch_add(1, Ordering::Relaxed);
            if shard >= job.num_shards {
                return;
            }
            // SAFETY: the submitter keeps the task alive until `completed == num_shards`,
            // and this dereference strictly precedes this shard's completion increment.
            let task = unsafe { &*job.task.0 };
            if catch_unwind(AssertUnwindSafe(|| task(shard))).is_err() {
                job.panicked.store(true, Ordering::Release);
            }
            if job.completed.fetch_add(1, Ordering::AcqRel) + 1 == job.num_shards {
                // Lock the state mutex before notifying so the submitter cannot check the
                // predicate and then miss this wakeup.
                let _state = lock_ignoring_poison(&self.state);
                self.work_done.notify_all();
            }
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = lock_ignoring_poison(&inner.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    if let Some(job) = &state.job {
                        seen_generation = state.generation;
                        break job.clone();
                    }
                }
                state = wait_ignoring_poison(&inner.work_ready, state);
            }
        };
        inner.drain(&job);
    }
}

/// One shard's result cell: written exactly once by whichever thread ran the shard, read by
/// the submitter after the completion barrier.
struct ResultSlot<T>(UnsafeCell<Option<T>>);

// SAFETY: the job cursor hands each shard index out exactly once, so each cell has exactly
// one writer, and the submitter only reads after the `completed` acquire barrier.
unsafe impl<T: Send> Sync for ResultSlot<T> {}

impl<T> ResultSlot<T> {
    fn new() -> Self {
        ResultSlot(UnsafeCell::new(None))
    }

    /// # Safety
    /// Must be called at most once per slot, by the unique executor of its shard.
    unsafe fn set(&self, value: T) {
        *self.0.get() = Some(value);
    }

    fn take(self) -> Option<T> {
        self.0.into_inner()
    }
}

/// `Mutex::lock` that recovers the guard from a poisoned lock: a panicked shard is already
/// reported through the job's `panicked` flag, and pool state transitions are all
/// exception-safe single-field writes.
///
/// Public because this is the worker pool's wakeup machinery, shared by everything that
/// parks threads against the pool's job lifecycle — `crn-serve`'s submission queue and
/// completion tickets sleep and wake through these same helpers, so a poisoned lock never
/// wedges a serving runtime any more than it wedges the pool itself.
pub fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `Condvar::wait` with the same poison recovery as [`lock_ignoring_poison`].
pub fn wait_ignoring_poison<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    match condvar.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `Condvar::wait_timeout` with the same poison recovery as [`lock_ignoring_poison`];
/// returns the guard and whether the wait timed out.
///
/// This is the primitive behind batching *windows*: `crn-serve`'s scheduler parks on its
/// submission queue with the window's remaining time as the timeout, so a new submission
/// wakes it early (to check the size threshold) and an expired window wakes it at the
/// deadline — the same wakeup discipline the worker pool uses for job hand-out, extended
/// with a deadline.
pub fn wait_timeout_ignoring_poison<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: std::time::Duration,
) -> (MutexGuard<'a, T>, bool) {
    match condvar.wait_timeout(guard, timeout) {
        Ok((guard, result)) => (guard, result.timed_out()),
        Err(poisoned) => {
            let (guard, result) = poisoned.into_inner();
            (guard, result.timed_out())
        }
    }
}

/// A model's gradient tensors as plain matrices in a fixed, model-defined parameter order,
/// detached from the parameters themselves so that every shard of a mini-batch can
/// accumulate into its own private set before the merge.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientSet {
    parts: Vec<Matrix>,
}

impl GradientSet {
    /// Creates a zeroed gradient set with one matrix per `(rows, cols)` shape.
    pub fn zeros(shapes: &[(usize, usize)]) -> Self {
        GradientSet {
            parts: shapes
                .iter()
                .map(|&(rows, cols)| Matrix::zeros(rows, cols))
                .collect(),
        }
    }

    /// Number of gradient tensors.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Returns true when the set holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The gradient tensors in parameter order.
    pub fn parts(&self) -> &[Matrix] {
        &self.parts
    }

    /// Mutable access to the gradient tensors in parameter order.
    pub fn parts_mut(&mut self) -> &mut [Matrix] {
        &mut self.parts
    }

    /// Mutable access to one gradient tensor.
    pub fn part_mut(&mut self, index: usize) -> &mut Matrix {
        &mut self.parts[index]
    }

    /// Mutable access to two distinct gradient tensors at once (e.g. a layer's weight and
    /// bias gradients for a fused scatter).
    ///
    /// # Panics
    /// Panics unless `first < second < len`.
    pub fn pair_mut(&mut self, first: usize, second: usize) -> (&mut Matrix, &mut Matrix) {
        assert!(first < second && second < self.parts.len());
        let (left, right) = self.parts.split_at_mut(second);
        (&mut left[first], &mut right[0])
    }

    /// Sets every tensor to zero, keeping the allocations.
    pub fn fill_zero(&mut self) {
        self.parts.iter_mut().for_each(Matrix::fill_zero);
    }

    /// Element-wise `self += other` over every tensor.
    ///
    /// # Panics
    /// Panics if the two sets disagree in arity or shapes.
    pub fn add_assign(&mut self, other: &GradientSet) {
        assert_eq!(
            self.parts.len(),
            other.parts.len(),
            "gradient arity mismatch"
        );
        for (mine, theirs) in self.parts.iter_mut().zip(&other.parts) {
            mine.add_assign(theirs);
        }
    }
}

/// The gradient sets the shards of a mini-batch accumulate into, one per shard, allocated
/// once per training run and zeroed by the shard that starts on them — not allocated (and
/// page-faulted in) once per shard per step.  [`Adam::step_sharded`](crate::optim::Adam::step_sharded)
/// sums them in shard order.
#[derive(Debug)]
pub struct ShardGradients {
    /// A mutex per set: the pool hands every shard index to exactly one worker, and this is
    /// what lets the shared shard closure take its set mutably.
    sets: Vec<Mutex<GradientSet>>,
}

impl ShardGradients {
    /// One zeroed set of the given shapes for each of `config`'s shards of a mini-batch.
    pub fn new(shapes: &[(usize, usize)], config: &ThreadPoolConfig) -> Self {
        ShardGradients {
            sets: (0..config.shard_count(usize::MAX))
                .map(|_| Mutex::new(GradientSet::zeros(shapes)))
                .collect(),
        }
    }

    /// Shard `shard`'s set, zeroed, for the worker that runs the shard.
    pub fn start(&self, shard: usize) -> MutexGuard<'_, GradientSet> {
        let mut set = lock_ignoring_poison(&self.sets[shard]);
        set.fill_zero();
        set
    }

    /// The sets of shards `0..count`, in shard order.
    pub fn sets(&mut self, count: usize) -> Vec<&GradientSet> {
        self.sets[..count]
            .iter_mut()
            .map(|set| {
                &*set
                    .get_mut()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
            })
            .collect()
    }
}

/// Merges per-shard gradient sets into one, consuming the shards.
///
/// * `deterministic = false`: **fixed shard-order tree reduction** — pairwise merges with
///   doubling stride (`0+=1, 2+=3, ... then 0+=2, ...`).  The association depends only on
///   the shard *count*, never on scheduling, so results are reproducible for a given
///   thread count.
/// * `deterministic = true`: strictly **canonical (sequential) order** — shard 0 absorbs
///   shard 1, then 2, ... — the association a single thread walking the shards would
///   produce, making the merged gradient independent of how the shard work was scheduled
///   *and* of the thread count (the shard count is canonical in this mode, see
///   [`ThreadPoolConfig::shard_count`]).
///
/// Returns `None` for an empty input.
pub fn reduce_gradients(mut shards: Vec<GradientSet>, deterministic: bool) -> Option<GradientSet> {
    if shards.is_empty() {
        return None;
    }
    if deterministic {
        let mut merged = shards.remove(0);
        for shard in &shards {
            merged.add_assign(shard);
        }
        return Some(merged);
    }
    let mut stride = 1;
    while stride < shards.len() {
        let mut left = 0;
        while left + stride < shards.len() {
            let (head, tail) = shards.split_at_mut(left + stride);
            head[left].add_assign(&tail[0]);
            left += 2 * stride;
        }
        stride *= 2;
    }
    Some(shards.swap_remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_threads_and_deterministic() {
        assert_eq!(
            ThreadPoolConfig::parse(None, None),
            ThreadPoolConfig::single_threaded()
        );
        assert_eq!(
            ThreadPoolConfig::parse(Some("4"), None),
            ThreadPoolConfig::with_threads(4)
        );
        assert_eq!(
            ThreadPoolConfig::parse(Some(" 2 "), Some("true")),
            ThreadPoolConfig::deterministic(2)
        );
        // Garbage and zero fall back to a single thread.
        assert_eq!(ThreadPoolConfig::parse(Some("zero"), None).threads, 1);
        assert_eq!(ThreadPoolConfig::parse(Some("0"), None).threads, 1);
        assert!(!ThreadPoolConfig::parse(None, Some("no")).deterministic);
        // The deterministic switch is case-insensitive.
        assert!(ThreadPoolConfig::parse(None, Some("TRUE")).deterministic);
        assert!(ThreadPoolConfig::parse(None, Some(" Yes ")).deterministic);
    }

    #[test]
    fn shard_count_is_canonical_in_deterministic_mode() {
        for threads in [1, 2, 4, 16] {
            let config = ThreadPoolConfig::deterministic(threads);
            assert_eq!(config.shard_count(128), DETERMINISTIC_SHARDS);
            assert_eq!(config.shard_count(3), 3, "capped by item count");
            assert_eq!(config.shard_count(0), 0);
        }
        assert_eq!(ThreadPoolConfig::with_threads(4).shard_count(128), 4);
        assert_eq!(ThreadPoolConfig::with_threads(4).shard_count(2), 2);
        assert_eq!(ThreadPoolConfig::single_threaded().shard_count(128), 1);
    }

    fn set_of(values: &[f32]) -> GradientSet {
        let mut set = GradientSet::zeros(&[(1, values.len())]);
        set.part_mut(0).data_mut().copy_from_slice(values);
        set
    }

    #[test]
    fn reductions_sum_every_shard() {
        for deterministic in [false, true] {
            for count in 1..=9usize {
                let shards: Vec<GradientSet> =
                    (0..count).map(|i| set_of(&[i as f32, 1.0])).collect();
                let merged = reduce_gradients(shards, deterministic).expect("non-empty");
                let expected: f32 = (0..count).map(|i| i as f32).sum();
                assert_eq!(merged.parts()[0].data(), &[expected, count as f32]);
            }
            assert!(reduce_gradients(Vec::new(), deterministic).is_none());
        }
    }

    #[test]
    fn sequential_reduction_is_shard_count_order() {
        // With values chosen to expose association, sequential order must equal a plain
        // left fold (this is the canonical order deterministic mode promises).
        let values = [1.0e8f32, 1.0, -1.0e8, 1.0];
        let shards: Vec<GradientSet> = values.iter().map(|&v| set_of(&[v])).collect();
        let merged = reduce_gradients(shards, true).expect("non-empty");
        let folded = values.iter().fold(0.0f32, |acc, &v| acc + v);
        assert_eq!(merged.parts()[0].data(), &[folded]);
    }

    #[test]
    fn worker_pool_returns_results_in_shard_order() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.threads(), threads);
            // The pool is persistent: several jobs reuse the same workers.
            for job in 0..3usize {
                let results = pool.run_sharded(23, |shard| shard * shard + job);
                assert_eq!(results, (0..23).map(|s| s * s + job).collect::<Vec<_>>());
            }
            assert!(pool
                .run_sharded::<usize, _>(0, |_| unreachable!())
                .is_empty());
        }
    }

    #[test]
    fn worker_pool_balances_uneven_work() {
        let pool = WorkerPool::new(4);
        let results = pool.run_sharded(8, |shard| {
            if shard == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            shard
        });
        assert_eq!(results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn worker_pool_runs_ranges_in_order() {
        let pool = WorkerPool::new(3);
        let ranges = vec![0..3, 3..5, 5..9];
        assert_eq!(pool.run_over_ranges(&ranges, |r| r.len()), vec![3, 2, 4]);
    }

    #[test]
    fn worker_pool_propagates_shard_panics() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_sharded(6, |shard| {
                if shard == 3 {
                    panic!("boom");
                }
                shard
            })
        }));
        assert!(result.is_err(), "a shard panic must reach the submitter");
        // The pool survives a panicked job and serves the next one.
        assert_eq!(pool.run_sharded(4, |shard| shard), vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_pool_serializes_concurrent_submitters() {
        let pool = WorkerPool::new(3);
        let sum = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        let results = pool.clone().run_sharded(9, |shard| shard + 1);
                        assert_eq!(results, (1..=9).collect::<Vec<_>>());
                        sum.fetch_add(results.iter().sum::<usize>(), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4 * 5 * 45);
    }

    #[test]
    fn shared_pools_are_reused_per_thread_count() {
        let a = WorkerPool::shared(2);
        let b = WorkerPool::shared(2);
        assert!(
            Arc::ptr_eq(&a.core, &b.core),
            "same thread count, same pool"
        );
        let c = WorkerPool::shared(3);
        assert!(!Arc::ptr_eq(&a.core, &c.core));
        assert_eq!(ThreadPoolConfig::with_threads(2).worker_pool().threads(), 2);
    }

    #[test]
    fn wait_timeout_helper_reports_timeouts_and_wakeups() {
        use std::time::Duration;
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        // Nothing signals: the wait must report a timeout with the predicate unchanged.
        {
            let guard = lock_ignoring_poison(&state.0);
            let (guard, timed_out) =
                wait_timeout_ignoring_poison(&state.1, guard, Duration::from_millis(5));
            assert!(timed_out);
            assert!(!*guard);
        }
        // A signaller flips the predicate: the wait must wake well before a long deadline.
        let signaller = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                *lock_ignoring_poison(&state.0) = true;
                state.1.notify_all();
            })
        };
        let mut guard = lock_ignoring_poison(&state.0);
        while !*guard {
            let (next, timed_out) =
                wait_timeout_ignoring_poison(&state.1, guard, Duration::from_secs(10));
            guard = next;
            assert!(!timed_out || *guard, "a 10s timeout must not expire here");
        }
        drop(guard);
        signaller.join().expect("signaller exits");
    }

    #[test]
    fn gradient_set_pair_mut_returns_disjoint_parts() {
        let mut set = GradientSet::zeros(&[(1, 1), (1, 2), (1, 3)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let (a, b) = set.pair_mut(0, 2);
        a.data_mut()[0] = 1.0;
        b.data_mut()[2] = 2.0;
        assert_eq!(set.parts()[0].data(), &[1.0]);
        assert_eq!(set.parts()[2].data(), &[0.0, 0.0, 2.0]);
    }
}
