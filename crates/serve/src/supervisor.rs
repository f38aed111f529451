//! Thread supervision: bounded panic-restart budgets for the runtime's background lanes.
//!
//! PR 4's containment strategy (`catch_unwind` around every batch and upsert) keeps a
//! *contained* panic from killing a thread — but a panic that escapes containment (a bug
//! in the loop itself, or an injected [`FaultSite::SchedulerLoop`]-class fault) used to
//! leave the thread dead for the life of the process: queued requests would hang and the
//! pool would silently stop refreshing.  The [`Supervisor`] replaces stay-dead with the
//! classic restart policy: a panicked lane is restarted **with its queues intact** (all
//! lane state lives in the runtime's shared block, not on the dead thread's stack), up
//! to [`SupervisorPolicy::max_restarts`] times per [`SupervisorPolicy::restart_window`].
//! A lane that breaches the budget is declared *degraded* — a crash loop should fail
//! loudly into a reduced mode (the scheduler degrades to synchronous serving, the
//! maintenance lane starts shedding records), never burn CPU restarting forever.
//!
//! The supervisor itself holds no thread handles: each supervised thread wraps its own
//! loop in `catch_unwind` and *asks* the supervisor for a verdict after a panic
//! ([`Supervisor::on_panic`]).  That keeps restart free of spawn races — the thread
//! never actually exits on `Restart`, it re-enters its loop after the runtime's
//! recovery hook reconciled the shared state.
//!
//! [`FaultSite::SchedulerLoop`]: crate::FaultSite::SchedulerLoop

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crn_nn::parallel::lock_ignoring_poison;
use std::sync::Mutex;

/// The scheduler lane's supervision key.
pub const LANE_SCHEDULER: &str = "scheduler";
/// The maintenance lane's supervision key.
pub const LANE_MAINTENANCE: &str = "maintenance";

/// Restart budget of one supervised lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Panics a lane may survive (be restarted after) within one `restart_window`
    /// before it is degraded.  0 degrades on the first escaped panic.
    pub max_restarts: u32,
    /// The sliding budget window.  A panic after a quiet window resets the count — a
    /// lane that panics once an hour is healthy-ish; one that panics three times in a
    /// second is crash-looping.
    pub restart_window: Duration,
}

impl Default for SupervisorPolicy {
    /// Three restarts per 60 s window — generous for real incidents, tight enough that
    /// the chaos suite can breach it deterministically with four scripted kills.
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            restart_window: Duration::from_secs(60),
        }
    }
}

impl SupervisorPolicy {
    /// Sets the per-window restart budget.
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }
}

/// The verdict after an escaped panic: re-enter the loop, or give the lane up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// Within budget: the lane re-enters its loop (queues intact).
    Restart,
    /// Budget breached: the lane stays down and the runtime drops to its degraded mode.
    Degrade,
}

/// Per-lane restart bookkeeping.
#[derive(Debug)]
struct LaneState {
    window_start: Instant,
    in_window: u32,
    restarts: u64,
    panics: u64,
    degraded: bool,
}

/// The restart-policy arbiter shared by the runtime's lanes (and the refresh worker).
#[derive(Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    lanes: Mutex<HashMap<&'static str, LaneState>>,
}

impl Supervisor {
    /// Creates a supervisor with the given policy.
    pub fn new(policy: SupervisorPolicy) -> Self {
        Supervisor {
            policy,
            lanes: Mutex::new(HashMap::new()),
        }
    }

    /// The supervisor's policy.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// Records an escaped panic on `lane` and returns the restart verdict.  Called by
    /// the lane's own supervision wrapper after its loop body unwound (and after the
    /// runtime's recovery hook reconciled shared state).
    pub fn on_panic(&self, lane: &'static str) -> SupervisorVerdict {
        let mut lanes = lock_ignoring_poison(&self.lanes);
        let now = Instant::now();
        let state = lanes.entry(lane).or_insert(LaneState {
            window_start: now,
            in_window: 0,
            restarts: 0,
            panics: 0,
            degraded: false,
        });
        state.panics += 1;
        if state.degraded {
            return SupervisorVerdict::Degrade;
        }
        if now.duration_since(state.window_start) > self.policy.restart_window {
            state.window_start = now;
            state.in_window = 0;
        }
        if state.in_window >= self.policy.max_restarts {
            state.degraded = true;
            SupervisorVerdict::Degrade
        } else {
            state.in_window += 1;
            state.restarts += 1;
            SupervisorVerdict::Restart
        }
    }

    /// Restarts granted to `lane` so far (panics that came back up).
    pub fn restarts(&self, lane: &str) -> u64 {
        lock_ignoring_poison(&self.lanes)
            .get(lane)
            .map_or(0, |state| state.restarts)
    }

    /// Escaped panics observed on `lane` (granted or not).
    pub fn panics(&self, lane: &str) -> u64 {
        lock_ignoring_poison(&self.lanes)
            .get(lane)
            .map_or(0, |state| state.panics)
    }

    /// Restarts granted across all lanes.
    pub fn total_restarts(&self) -> u64 {
        lock_ignoring_poison(&self.lanes)
            .values()
            .map(|state| state.restarts)
            .sum()
    }

    /// Whether `lane` has breached its budget and stays down.
    pub fn degraded(&self, lane: &str) -> bool {
        lock_ignoring_poison(&self.lanes)
            .get(lane)
            .is_some_and(|state| state.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_grants_restarts_then_degrades_and_stays_degraded() {
        let supervisor = Supervisor::new(SupervisorPolicy {
            max_restarts: 2,
            restart_window: Duration::from_secs(3600),
        });
        assert_eq!(
            supervisor.on_panic(LANE_SCHEDULER),
            SupervisorVerdict::Restart
        );
        assert_eq!(
            supervisor.on_panic(LANE_SCHEDULER),
            SupervisorVerdict::Restart
        );
        assert_eq!(
            supervisor.on_panic(LANE_SCHEDULER),
            SupervisorVerdict::Degrade
        );
        // Degradation is sticky even though the window is long gone.
        assert_eq!(
            supervisor.on_panic(LANE_SCHEDULER),
            SupervisorVerdict::Degrade
        );
        assert_eq!(supervisor.restarts(LANE_SCHEDULER), 2);
        assert_eq!(supervisor.panics(LANE_SCHEDULER), 4);
        assert!(supervisor.degraded(LANE_SCHEDULER));
        // Lanes budget independently.
        assert!(!supervisor.degraded(LANE_MAINTENANCE));
        assert_eq!(
            supervisor.on_panic(LANE_MAINTENANCE),
            SupervisorVerdict::Restart
        );
        assert_eq!(supervisor.total_restarts(), 3);
    }

    #[test]
    fn a_quiet_window_resets_the_budget() {
        let supervisor = Supervisor::new(SupervisorPolicy {
            max_restarts: 1,
            restart_window: Duration::from_millis(10),
        });
        assert_eq!(
            supervisor.on_panic(LANE_MAINTENANCE),
            SupervisorVerdict::Restart
        );
        std::thread::sleep(Duration::from_millis(25));
        // The earlier panic fell out of the window: the budget is fresh again.
        assert_eq!(
            supervisor.on_panic(LANE_MAINTENANCE),
            SupervisorVerdict::Restart
        );
        assert_eq!(supervisor.restarts(LANE_MAINTENANCE), 2);
        assert!(!supervisor.degraded(LANE_MAINTENANCE));
    }

    #[test]
    fn zero_budget_degrades_on_the_first_panic() {
        let supervisor = Supervisor::new(SupervisorPolicy::default().with_max_restarts(0));
        assert_eq!(
            supervisor.on_panic(LANE_MAINTENANCE),
            SupervisorVerdict::Degrade
        );
        assert_eq!(supervisor.restarts(LANE_MAINTENANCE), 0);
    }
}
