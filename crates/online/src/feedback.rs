//! Feedback records and drift detection — the sensing half of the refresh loop.

use crn_query::ast::Query;
use std::collections::VecDeque;

/// The floor applied to cardinalities before forming a q-error (at least one row —
/// matches `crn_eval::metrics::CARDINALITY_FLOOR`).
pub const CARDINALITY_FLOOR: f64 = 1.0;

/// One observed execution: what the runtime served and what the database then measured.
/// This is the unit flowing through the feedback channel (the maintenance lane's
/// [`crn_serve::FeedbackObserver`] forwards exactly these triples).
#[derive(Debug, Clone)]
pub struct FeedbackRecord {
    /// The executed query.
    pub query: Query,
    /// Its true (observed) cardinality.
    pub true_cardinality: u64,
    /// The estimate the live model served for it.
    pub estimate: f64,
}

impl FeedbackRecord {
    /// The record's q-error — the live model's error on this execution.
    pub fn q_error(&self) -> f64 {
        floored_q_error(self.estimate, self.true_cardinality)
    }
}

/// The q-error of an estimate against a measured cardinality, both floored at one row.
pub(crate) fn floored_q_error(estimate: f64, true_cardinality: u64) -> f64 {
    crn_nn::q_error(
        estimate.max(CARDINALITY_FLOOR),
        (true_cardinality as f64).max(CARDINALITY_FLOOR),
        CARDINALITY_FLOOR,
    )
}

/// A sliding-window drift detector over the live model's q-errors.
///
/// The window holds the most recent `capacity` q-errors; drift is declared when the
/// window is sufficiently full (at least `min_observations`) and its **median** exceeds
/// `threshold`.  The median (not the mean) keeps a single catastrophic outlier from
/// tripping a refresh — drift means the *typical* estimate went bad, which is what
/// fine-tuning can fix.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    window: VecDeque<f64>,
    capacity: usize,
    threshold: f64,
    min_observations: usize,
}

impl DriftDetector {
    /// Creates a detector over a window of `capacity` q-errors declaring drift at
    /// `threshold`, once at least `min_observations` are in the window.
    pub fn new(capacity: usize, threshold: f64, min_observations: usize) -> Self {
        let capacity = capacity.max(1);
        DriftDetector {
            window: VecDeque::with_capacity(capacity),
            capacity,
            threshold,
            min_observations: min_observations.clamp(1, capacity),
        }
    }

    /// Pushes one observed q-error, evicting the oldest beyond the capacity.
    pub fn observe(&mut self, q_error: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(q_error);
    }

    /// The window's median q-error (`None` while empty) — the same median definition
    /// the validation gate uses ([`crn_core::FinalFunction::Median`]), so the trigger
    /// and the gate never disagree on the statistic.
    pub fn median(&self) -> Option<f64> {
        let window: Vec<f64> = self.window.iter().copied().collect();
        crn_core::FinalFunction::Median.apply(&window)
    }

    /// Whether the window currently signals drift.
    pub fn drifted(&self) -> bool {
        self.window.len() >= self.min_observations
            && self.median().is_some_and(|median| median > self.threshold)
    }

    /// Number of q-errors currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Returns true while no q-error has been observed.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Empties the window — called after a refresh attempt so drift re-arms on
    /// *post-refresh* observations instead of re-tripping on the stale ones.
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_q_error_is_symmetric_and_floored() {
        let record = FeedbackRecord {
            query: Query::scan("title"),
            true_cardinality: 100,
            estimate: 25.0,
        };
        assert_eq!(record.q_error(), 4.0);
        let inverse = FeedbackRecord {
            true_cardinality: 25,
            estimate: 100.0,
            ..record.clone()
        };
        assert_eq!(inverse.q_error(), 4.0);
        // Zero truth / zero estimate hit the floor instead of dividing by zero.
        let floored = FeedbackRecord {
            true_cardinality: 0,
            estimate: 0.0,
            ..record
        };
        assert_eq!(floored.q_error(), 1.0);
    }

    #[test]
    fn drift_trips_on_the_median_not_on_outliers() {
        let mut detector = DriftDetector::new(5, 2.0, 3);
        assert!(detector.is_empty());
        assert!(!detector.drifted(), "empty window never drifts");
        detector.observe(1.1);
        detector.observe(1.2);
        assert!(!detector.drifted(), "below min_observations");
        // One catastrophic outlier must not trip the median.
        detector.observe(500.0);
        assert_eq!(detector.len(), 3);
        assert_eq!(detector.median(), Some(1.2));
        assert!(!detector.drifted());
        // A run of typical-bad estimates does.
        detector.observe(6.0);
        detector.observe(8.0);
        assert_eq!(detector.median(), Some(6.0));
        assert!(detector.drifted());
        // The window slides: old small values fall out at capacity.
        detector.observe(9.0);
        assert_eq!(detector.len(), 5);
        assert!(detector.drifted());
        detector.reset();
        assert!(detector.is_empty());
        assert!(!detector.drifted());
    }
}
