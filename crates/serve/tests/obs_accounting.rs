//! Accounting-integrity tests of the runtime's observability surface: the
//! end-of-run summary must enumerate every [`RuntimeStats`] field (a counter
//! added without reporting fails here, not in production), the resolution
//! accounting identity `serve.queries + coalesced + cache_hits == completed`
//! must close under arbitrary interleavings of coalescing, cache hits,
//! deadline expiry and class-share admission, and the `crn-obs` layer must be
//! invisible when disabled yet complete when enabled — same estimates either
//! way.

use crn_core::{EstimatorService, ShardedPool};
use crn_estimators::ContainmentEstimator;
use crn_nn::parallel::WorkerPool;
use crn_obs::{Event, Obs, ObsConfig};
use crn_query::Query;
use crn_serve::{RuntimeConfig, RuntimeStats, ServeRuntime, SloClass, SubmitError};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// A trivial containment model: constant rate, no precomputation.
struct ConstModel;

impl ContainmentEstimator for ConstModel {
    fn name(&self) -> &str {
        "const"
    }

    fn estimate_containment(&self, _q1: &Query, _q2: &Query) -> f64 {
        0.5
    }
}

fn instant_runtime(config: RuntimeConfig) -> ServeRuntime<EstimatorService<ConstModel>> {
    let pool = ShardedPool::new(2);
    pool.insert(Query::scan("title"), 10);
    let service = Arc::new(EstimatorService::new(
        ConstModel,
        pool,
        WorkerPool::shared(1),
    ));
    ServeRuntime::new(service, config)
}

/// Field names of a struct's `{:#?}`-free Debug output at nesting depth 1:
/// identifiers immediately followed by `:` while exactly one brace/bracket is
/// open.  Nested struct fields (depth 2+) and the type name (depth 0) are
/// excluded.
fn debug_fields_at_depth_one(debug: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut token = String::new();
    for ch in debug.chars() {
        match ch {
            '{' | '[' => {
                depth += 1;
                token.clear();
            }
            '}' | ']' => {
                depth -= 1;
                token.clear();
            }
            ':' if depth == 1 && !token.is_empty() => {
                fields.push(token.clone());
                token.clear();
            }
            c if c.is_ascii_alphanumeric() || c == '_' => token.push(c),
            _ => token.clear(),
        }
    }
    fields
}

/// Satellite: the end-of-run summary prints from [`RuntimeStats::counter_fields`];
/// this pins that the enumeration is complete.  A counter added to the struct
/// without extending `counter_fields` fails here — reporting can never silently
/// fall behind the struct.
#[test]
fn counter_fields_covers_every_runtime_stats_field() {
    let stats = RuntimeStats::default();
    let struct_fields = debug_fields_at_depth_one(&format!("{stats:?}"));
    assert!(
        struct_fields.len() >= 30,
        "Debug parsing collapsed — got only {struct_fields:?}"
    );
    let reported: Vec<&str> = stats
        .counter_fields()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    for field in &struct_fields {
        // The nested per-layer serve stats have their own render path.
        if field == "serve" {
            continue;
        }
        let covered = reported
            .iter()
            .any(|name| name == field || name.starts_with(&format!("{field}.")));
        assert!(
            covered,
            "RuntimeStats field `{field}` missing from counter_fields(): {reported:?}"
        );
    }
    // And nothing is reported that the struct does not carry (guards renames).
    for name in &reported {
        let root = name.split('.').next().unwrap();
        assert!(
            struct_fields.iter().any(|field| field == root),
            "counter_fields() entry `{name}` has no RuntimeStats field"
        );
    }
}

mod accounting_identity {
    use super::*;
    use proptest::prelude::*;

    /// A tiny deterministic PRNG (splitmix64) deriving an op sequence from one
    /// sampled seed — the vendored `proptest` shim provides range strategies only.
    struct OpRng(u64);

    impl OpRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The resolution-accounting identity documented on
        /// [`RuntimeStats::cache_hits`]: with no degraded/failed traffic, every
        /// completed request is accounted exactly once — computed by the service
        /// (`serve.queries`), coalesced onto an in-batch duplicate, or replayed
        /// from the estimate cache.  Interleaves duplicate-heavy submissions,
        /// already-expired deadlines, flushes (the cache's second-pass hits) and
        /// weighted two-class admission; the identity and `fully_resolved` must
        /// close at quiescence regardless of the interleaving.
        #[test]
        fn resolution_accounting_closes_under_interleaved_traffic(
            seed in 0u64..1_000_000,
            op_count in 20usize..120,
            cache_entries in 0usize..48,
        ) {
            const TABLES: [&str; 3] = ["title", "cast_info", "movie_companies"];
            let mut rng = OpRng(seed);
            let runtime = instant_runtime(
                RuntimeConfig::default()
                    .with_queue_depth(16)
                    .with_batch_max(4)
                    .with_window_us(200)
                    .with_class_weights([3, 1])
                    .with_cache_entries(cache_entries),
            );
            // Odd callers ride the batch class: admission runs the weighted
            // class-share path (rejections allowed, never miscounted).
            for caller in 0..4u64 {
                let class = if caller % 2 == 1 { SloClass::Batch } else { SloClass::Interactive };
                runtime.register_caller(caller, class);
            }
            let mut tickets = Vec::new();
            for _ in 0..op_count {
                let caller = rng.next() % 4;
                let query = Query::scan(TABLES[(rng.next() % TABLES.len() as u64) as usize]);
                match rng.next() % 8 {
                    // Submissions dominate; a 3-table query set makes in-batch
                    // duplicates (coalescing) and cross-batch repeats (cache
                    // hits) common.
                    0..=5 => match runtime.submit(caller, query) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(SubmitError::Overloaded { .. }) => {}
                        Err(other) => prop_assert!(false, "unexpected submit error {other:?}"),
                    },
                    // An already-expired deadline: shed unexecuted at pop time.
                    6 => match runtime.submit_with_deadline(caller, query, Some(Duration::ZERO)) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(SubmitError::Overloaded { .. }) => {}
                        Err(other) => prop_assert!(false, "unexpected submit error {other:?}"),
                    },
                    // Quiesce mid-stream so later repeats replay from the cache.
                    _ => runtime.flush(),
                }
            }
            for ticket in tickets {
                match ticket.wait() {
                    Ok(outcome) => prop_assert!(outcome.is_computed()),
                    Err(crn_serve::TicketError::Expired) => {}
                    Err(other) => prop_assert!(false, "unexpected resolution {other:?}"),
                }
            }
            runtime.flush();
            let stats = runtime.shutdown();
            prop_assert!(stats.fully_resolved(), "unbalanced resolution: {stats:?}");
            prop_assert_eq!(stats.degraded, 0);
            prop_assert_eq!(stats.failed, 0);
            prop_assert!(
                stats.serve.queries as u64 + stats.coalesced + stats.cache_hits
                    == stats.completed,
                "accounting identity broken: {stats:?}"
            );
            if cache_entries == 0 {
                prop_assert_eq!(stats.cache_hits + stats.cache_misses, 0);
            }
        }
    }
}

fn run_closed_loop(
    runtime: &ServeRuntime<EstimatorService<ConstModel>>,
) -> Vec<(f64, Option<crn_obs::RequestTrace>)> {
    const TABLES: [&str; 3] = ["title", "cast_info", "movie_companies"];
    (0..12)
        .map(|index| {
            let outcome = runtime
                .submit(0, Query::scan(TABLES[index % TABLES.len()]))
                .expect("admitted")
                .wait()
                .expect("served");
            (outcome.estimate, outcome.trace)
        })
        .collect()
}

/// Disabled obs (the default) must be invisible — no traces minted, no journal —
/// and, run against the identical workload with obs enabled, the estimates must
/// be bit-identical while every completion carries a trace, lands in the latency
/// histogram, and every closed batch lands in the journal.
#[test]
fn obs_disabled_is_invisible_and_enabled_is_complete_at_identical_estimates() {
    // Disabled path: the default config, exactly the pre-obs runtime.
    let runtime = instant_runtime(RuntimeConfig::default().with_window_us(0));
    let disabled = run_closed_loop(&runtime);
    runtime.shutdown();
    for (_, trace) in &disabled {
        assert!(trace.is_none(), "disabled obs must not mint traces");
    }

    // Enabled path: same workload, full instrumentation.
    let obs = Obs::new(ObsConfig::enabled());
    let runtime = instant_runtime(
        RuntimeConfig::default()
            .with_window_us(0)
            .with_obs(obs.clone()),
    );
    let enabled = run_closed_loop(&runtime);
    let stats = runtime.shutdown();

    let disabled_estimates: Vec<f64> = disabled.iter().map(|(estimate, _)| *estimate).collect();
    let enabled_estimates: Vec<f64> = enabled.iter().map(|(estimate, _)| *estimate).collect();
    assert_eq!(
        disabled_estimates, enabled_estimates,
        "instrumentation changed the estimates"
    );

    let mut trace_ids = HashSet::new();
    for (_, trace) in &enabled {
        let trace = trace.as_ref().expect("enabled obs traces every completion");
        assert!(trace_ids.insert(trace.trace_id), "trace IDs must be unique");
    }

    // Every completion is in the per-class latency histogram (caller 0 is
    // unregistered, i.e. Interactive), and every closed batch is journaled.
    let hist = obs.hist("serve.latency_us.interactive");
    assert_eq!(hist.count(), stats.completed);
    let closes = obs
        .events_since(0)
        .iter()
        .filter(|entry| matches!(entry.event, Event::BatchClosed { .. }))
        .count() as u64;
    assert_eq!(closes, stats.batches);

    // One counter store: every runtime counter is exported as `serve.<field>`, and
    // the snapshot reads the very atomics `stats()` does.
    let exported: std::collections::HashMap<String, u64> =
        obs.snapshot().counters.into_iter().collect();
    let shared: Vec<_> = stats
        .counter_fields()
        .into_iter()
        .filter_map(|(name, value)| Some((name, value, *exported.get(&format!("serve.{name}"))?)))
        .collect();
    assert_eq!(shared.len(), 28, "{exported:?}");
    for (name, value, exported) in shared {
        assert_eq!(value, exported, "serve.{name}");
    }
}
