//! `crn-online` — the continual-learning model-refresh subsystem: the layer that turns a
//! trained-then-frozen estimator into a *self-improving* serving system.
//!
//! The paper's §5.2 pool-refresh loop (PR 4's maintenance lane) keeps the **queries
//! pool** fresh, but the CRN model itself stays frozen at train time — exactly the
//! staleness failure mode Adaptive Cardinality Estimation (Ivanov & Bartunov) and
//! ByteCard's production refresh pipeline identify as the gap between a learned
//! estimator and one a DBMS can actually run.  This crate closes the loop for the
//! *model*:
//!
//! 1. **Feedback channel** — the serving runtime's maintenance lane forwards every
//!    applied `(query, true cardinality, estimate)` triple through
//!    [`crn_serve::FeedbackObserver`]; the [`RefreshController`] is such an observer.
//! 2. **Drift detection** — a sliding window over the q-errors of the live estimates
//!    ([`DriftDetector`]): when the window's median exceeds the configured threshold,
//!    the model is considered stale.
//! 3. **Fine-tune trigger** — once drift is detected *and* enough fresh feedback has
//!    accumulated, the controller labels the fresh queries against the current pool
//!    anchors (a [`FeedbackLabeler`]), mixes in reservoir-sampled history
//!    ([`crn_nn::ReplayBuffer`] — the standard catastrophic-forgetting mitigation) and
//!    warm-start fine-tunes a **clone** of the live model
//!    ([`crn_core::CrnModel::fit_incremental`], resuming Adam state) off the serving
//!    path.
//! 4. **Validation gate** — the candidate must *strictly beat* the live snapshot's
//!    median q-error on a held-out probe set (a fraction of the feedback stream that
//!    never enters training).  A failing candidate is discarded and counted
//!    ([`OnlineStats::refreshes_rejected`]) — no silent regressions ever reach serving.
//! 5. **Hot swap** — a passing candidate is published through
//!    [`crn_core::EstimatorService::swap_model`]: an `Arc`-swapped versioned
//!    [`crn_core::ModelSnapshot`], so readers never block and every in-flight batch
//!    completes under exactly one snapshot (swap atomicity — pinned by the proptest in
//!    `crn_core::service`).
//!
//! Refresh cycles run either driver-paced (call
//! [`RefreshController::refresh_if_needed`] at your own cadence — what the integration
//! tests do, keeping them deterministic) or fully in the background on a
//! [`RefreshWorker`] thread.
//!
//! Knob guidance lives on the fields of [`OnlineConfig`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod controller;
pub mod feedback;

pub use checkpoint::{Checkpoint, CheckpointError, Manifest, CHECKPOINT_FORMAT_VERSION};
pub use controller::{
    gate_accepts, probe_median, ControllerCheckpoint, ExecLabeler, FeedbackLabeler, OnlineConfig,
    OnlineStats, RefreshController, RefreshDecision, RefreshOutcome, RefreshWorker,
};
pub use feedback::{DriftDetector, FeedbackRecord};
