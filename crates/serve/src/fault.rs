//! Deterministic fault injection: scripted panics and write failures at named sites.
//!
//! Chaos testing a concurrent runtime is only useful when the chaos is *reproducible*:
//! a fault that fires "sometimes, under load" cannot pin an invariant in CI.  Every
//! fault here is therefore triggered by an **occurrence count** at a [`FaultSite`] — the
//! Nth batch execution, the Nth maintenance-record application — never by wall-clock
//! time or randomness, so the same [`FaultPlan`] against the same workload kills the
//! same thread at the same point on every run and at every `THREADS` setting.
//!
//! The runtime consults one [`FaultInjector`] (default: the empty plan, a handful of
//! relaxed atomic increments on the hot paths).  Sites are chosen so that each shipped
//! plan exercises a *different* layer of the resilience stack:
//!
//! * [`FaultSite::BatchExecute`] panics **inside** the scheduler's containment — the
//!   degraded-answer path resolves the tickets;
//! * [`FaultSite::SchedulerLoop`] / [`FaultSite::MaintenanceLoop`] panic **outside** any
//!   containment — the thread genuinely dies and the
//!   [`Supervisor`](crate::Supervisor) restart path is exercised;
//! * [`FaultSite::MaintenanceUpsert`] panics inside the upsert containment — the lane
//!   counts the failure and keeps draining;
//! * [`FaultSite::CheckpointWrite`] fails the write without a panic — the cadence
//!   counts it and retries later;
//! * [`FaultSite::RefreshCycle`] panics the background refresh worker
//!   (`crn-online`) — its supervised loop restarts it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crn_nn::parallel::lock_ignoring_poison;

/// Number of distinct [`FaultSite`]s (sizes the per-site arrival counters).
const SITE_COUNT: usize = 7;

/// Where in the serving stack a scripted fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Inside the batch-execution containment (the "model panics on batch N" fault) —
    /// on the scheduler, or on the submitting thread in degraded-sync mode: tickets
    /// resolve through the degraded fallback path.
    BatchExecute,
    /// In the scheduler loop, outside every containment, right after a batch was popped:
    /// the scheduler thread dies mid-batch and the supervisor must restart it with the
    /// queue (and the orphaned batch's tickets) intact.
    SchedulerLoop,
    /// Inside the maintenance lane's upsert containment: the record fails, the lane
    /// survives on its own.
    MaintenanceUpsert,
    /// In the maintenance loop, outside containment, mid-record (after the pop, before
    /// the upsert): the lane thread dies and the supervisor restarts it.
    MaintenanceLoop,
    /// Fails a checkpoint write (no panic — an I/O-error stand-in): counted in
    /// [`RuntimeStats::checkpoints_failed`](crate::RuntimeStats::checkpoints_failed),
    /// the cadence retries after the next interval.
    CheckpointWrite,
    /// Panics the background refresh worker's cycle (`crn-online`): its supervised loop
    /// restarts the worker.
    RefreshCycle,
    /// Drops a cluster connection **mid-frame** (`crn-cluster`): the coordinator writes
    /// a truncated frame and shuts the socket, so the worker sees a torn stream and the
    /// coordinator must degrade that worker's queries — deterministically, no wall
    /// clock involved.
    ClusterFrameDrop,
}

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::BatchExecute => 0,
            FaultSite::SchedulerLoop => 1,
            FaultSite::MaintenanceUpsert => 2,
            FaultSite::MaintenanceLoop => 3,
            FaultSite::CheckpointWrite => 4,
            FaultSite::RefreshCycle => 5,
            FaultSite::ClusterFrameDrop => 6,
        }
    }

    /// The spec-syntax name of the site (what [`FaultPlan::parse`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BatchExecute => "batch-panic",
            FaultSite::SchedulerLoop => "scheduler-kill",
            FaultSite::MaintenanceUpsert => "maint-panic",
            FaultSite::MaintenanceLoop => "maint-kill",
            FaultSite::CheckpointWrite => "checkpoint-fail",
            FaultSite::RefreshCycle => "refresh-panic",
            FaultSite::ClusterFrameDrop => "cluster-frame-drop",
        }
    }
}

/// When a spec fires at its site (occurrences are 1-based arrival counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fire exactly once, on the Nth arrival.
    Once(u64),
    /// Fire on every Kth arrival (the "panics on every Kth batch" shape).
    Every(u64),
}

/// One scripted fault: a site plus its trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub site: FaultSite,
    /// On which arrival(s) it fires.
    pub trigger: FaultTrigger,
}

impl FaultSpec {
    fn matches(&self, arrival: u64) -> bool {
        match self.trigger {
            FaultTrigger::Once(n) => arrival == n.max(1),
            FaultTrigger::Every(k) => arrival.is_multiple_of(k.max(1)),
        }
    }
}

/// A parse failure of a fault-plan spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// The spec fragment that failed to parse.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec {:?}: {}", self.spec, self.reason)
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic, seedless fault script: a list of [`FaultSpec`]s.
///
/// The text syntax ([`FaultPlan::parse`]) is comma-separated
/// `site:occurrence` specs — `batch-panic:2` (panic the 2nd batch execution),
/// `maint-kill:1,maint-kill:2` (kill the maintenance thread on its 1st and 2nd
/// record), `batch-panic:every3` (every 3rd batch).  A bare site name means `:1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted faults, in spec order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds one scripted fault (builder shape for tests and drivers).
    pub fn with(mut self, site: FaultSite, trigger: FaultTrigger) -> Self {
        self.specs.push(FaultSpec { site, trigger });
        self
    }

    /// Parses the comma-separated `site:occurrence` syntax (see the type docs).
    pub fn parse(text: &str) -> Result<Self, FaultPlanError> {
        let mut specs = Vec::new();
        for fragment in text.split(',') {
            let fragment = fragment.trim();
            if fragment.is_empty() {
                continue;
            }
            let (name, occurrence) = match fragment.split_once(':') {
                Some((name, occurrence)) => (name.trim(), occurrence.trim()),
                None => (fragment, "1"),
            };
            let site = ALL_SITES
                .iter()
                .copied()
                .find(|site| site.name() == name)
                .ok_or_else(|| FaultPlanError {
                    spec: fragment.to_string(),
                    reason: format!(
                        "unknown site {:?} (expected one of {})",
                        name,
                        ALL_SITES
                            .iter()
                            .map(|s| s.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                })?;
            let trigger = if let Some(every) = occurrence.strip_prefix("every") {
                FaultTrigger::Every(parse_count(fragment, every)?)
            } else {
                FaultTrigger::Once(parse_count(fragment, occurrence)?)
            };
            specs.push(FaultSpec { site, trigger });
        }
        Ok(FaultPlan { specs })
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

const ALL_SITES: [FaultSite; SITE_COUNT] = [
    FaultSite::BatchExecute,
    FaultSite::SchedulerLoop,
    FaultSite::MaintenanceUpsert,
    FaultSite::MaintenanceLoop,
    FaultSite::CheckpointWrite,
    FaultSite::RefreshCycle,
    FaultSite::ClusterFrameDrop,
];

fn parse_count(fragment: &str, text: &str) -> Result<u64, FaultPlanError> {
    let count: u64 = text.parse().map_err(|_| FaultPlanError {
        spec: fragment.to_string(),
        reason: format!("occurrence {text:?} is not a positive integer"),
    })?;
    if count == 0 {
        return Err(FaultPlanError {
            spec: fragment.to_string(),
            reason: "occurrences are 1-based (0 never fires)".to_string(),
        });
    }
    Ok(count)
}

/// One fault that actually fired (an entry of the injector's audit log,
/// [`FaultInjector::fired`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// Where it fired.
    pub site: FaultSite,
    /// The 1-based arrival at which it fired.
    pub occurrence: u64,
}

/// The runtime's fault oracle: per-site arrival counters against a [`FaultPlan`].
///
/// `should_fire` is the only decision point — one relaxed `fetch_add` plus a scan of
/// the (tiny, usually empty) plan — so an injector with the empty plan costs nothing
/// measurable on the serving path.  All state is monotonic counters: the injector is
/// deterministic for a fixed plan and per-site arrival order (which the runtime's
/// single-scheduler / single-maintenance-thread design guarantees).
pub struct FaultInjector {
    plan: FaultPlan,
    arrivals: [AtomicU64; SITE_COUNT],
    fired: Mutex<Vec<FiredFault>>,
}

impl FaultInjector {
    /// An injector over the empty plan (what [`ServeRuntime::new`](crate::ServeRuntime::new) uses).
    pub fn none() -> Arc<Self> {
        Self::new(FaultPlan::none())
    }

    /// An injector over a scripted plan.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            arrivals: Default::default(),
            fired: Mutex::new(Vec::new()),
        })
    }

    /// The injector's plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts one arrival at `site` and reports whether a scripted fault fires on it
    /// (recording it in the fired log if so).  Non-panicking — the caller decides what
    /// "firing" means at its site (panic, failed write, ...).
    pub fn should_fire(&self, site: FaultSite) -> bool {
        let arrival = self.arrivals[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.is_empty() {
            return false;
        }
        let fires = self
            .plan
            .specs
            .iter()
            .any(|spec| spec.site == site && spec.matches(arrival));
        if fires {
            lock_ignoring_poison(&self.fired).push(FiredFault {
                site,
                occurrence: arrival,
            });
        }
        fires
    }

    /// [`should_fire`](FaultInjector::should_fire), panicking when the fault fires —
    /// the injection shape of every "panic"/"kill" site.
    pub fn fire(&self, site: FaultSite) {
        if self.should_fire(site) {
            panic!(
                "crn-serve injected fault: {} at arrival {}",
                site.name(),
                self.arrivals[site.index()].load(Ordering::Relaxed)
            );
        }
    }

    /// How often `site` has been arrived at (fired or not).
    pub fn arrivals(&self, site: FaultSite) -> u64 {
        self.arrivals[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults that fired so far.
    pub fn faults_injected(&self) -> u64 {
        lock_ignoring_poison(&self.fired).len() as u64
    }

    /// The audit log of fired faults, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        lock_ignoring_poison(&self.fired).clone()
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("faults_injected", &self.faults_injected())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_shipped_plan_shapes() {
        let plan = FaultPlan::parse("batch-panic:2, maint-kill, checkpoint-fail:every3").unwrap();
        assert_eq!(
            plan.specs,
            vec![
                FaultSpec {
                    site: FaultSite::BatchExecute,
                    trigger: FaultTrigger::Once(2),
                },
                FaultSpec {
                    site: FaultSite::MaintenanceLoop,
                    trigger: FaultTrigger::Once(1),
                },
                FaultSpec {
                    site: FaultSite::CheckpointWrite,
                    trigger: FaultTrigger::Every(3),
                },
            ]
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        for bad in ["nonsense:1", "batch-panic:0", "batch-panic:soon"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn occurrence_counting_is_deterministic_and_per_site() {
        let injector = FaultInjector::new(
            FaultPlan::none()
                .with(FaultSite::BatchExecute, FaultTrigger::Once(2))
                .with(FaultSite::MaintenanceUpsert, FaultTrigger::Every(2)),
        );
        // Site arrivals are independent streams; Once fires exactly once, Every repeats.
        let batch: Vec<bool> = (0..4)
            .map(|_| injector.should_fire(FaultSite::BatchExecute))
            .collect();
        let maint: Vec<bool> = (0..4)
            .map(|_| injector.should_fire(FaultSite::MaintenanceUpsert))
            .collect();
        assert_eq!(batch, vec![false, true, false, false]);
        assert_eq!(maint, vec![false, true, false, true]);
        assert_eq!(injector.faults_injected(), 3);
        assert!(!injector.should_fire(FaultSite::SchedulerLoop));
        assert_eq!(injector.arrivals(FaultSite::SchedulerLoop), 1);
        let fired = injector.fired();
        assert_eq!(fired[0].site, FaultSite::BatchExecute);
        assert_eq!(fired[0].occurrence, 2);
    }

    #[test]
    fn fire_panics_exactly_on_the_scripted_arrival() {
        let injector = FaultInjector::new(
            FaultPlan::none().with(FaultSite::SchedulerLoop, FaultTrigger::Once(1)),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            injector.fire(FaultSite::SchedulerLoop)
        }));
        assert!(result.is_err());
        injector.fire(FaultSite::SchedulerLoop); // later arrivals pass
    }
}
