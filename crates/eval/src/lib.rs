//! `crn-eval` — the evaluation harness reproducing every table and figure of the paper.
//!
//! * [`metrics`] — q-error distributions and the paper's percentile summaries;
//! * [`report`] — plain-text / Markdown rendering of experiment results;
//! * [`workloads`] — the `cnt_test1/2`, `crd_test1/2` and `scale` evaluation workloads
//!   (§4.2, §6.1);
//! * [`harness`] — the shared [`harness::ExperimentContext`]: database, training corpora,
//!   trained CRN/MSCN models, the PostgreSQL baseline and the queries pool;
//! * [`experiments`] — one runner per paper table/figure plus ablations;
//! * [`serve`] — the `repro serve` startup check: every serving backend (the in-process
//!   service, the async runtime over it, the runtime over forked cluster workers) is
//!   bit-identical to sequential serving.  `benchmark/` drives and times serving load.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p crn-eval --bin repro -- all --preset small
//! cargo run --release -p crn-eval --bin repro -- table7 table13 --preset tiny
//! cargo run --release -p crn-eval --bin repro -- serve --preset tiny --cluster 2
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod plot;
pub mod report;
pub mod serve;
pub mod workloads;

pub use experiments::{run_all, run_experiment, ALL_EXPERIMENTS};
pub use harness::{ExperimentConfig, ExperimentContext};
pub use metrics::{ModelErrors, QErrorSummary};
pub use plot::{render_box_plots, BoxStats};
pub use report::ExperimentReport;
pub use serve::{check_serving_parity, ServeCheckConfig};
pub use workloads::{PairWorkload, Workload, WorkloadSizes};
