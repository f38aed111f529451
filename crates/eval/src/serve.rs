//! `repro serve` — the startup parity check over every serving backend.
//!
//! Generates a workload from the experiment context and serves it through each backend the
//! stack offers, comparing every estimate bit for bit with the sequential single-query
//! [`Cnt2Crd`] oracle over the same model, pool and fallback:
//!
//! 1. [`EstimatorService::serve`] on the whole workload, over a [`ShardedPool`];
//! 2. a [`ServeRuntime`] over that service, one caller submitting and waiting per query;
//! 3. with `cluster > 0`, a [`ServeRuntime`] over a [`ClusterClient`] scattering to forked
//!    `repro cluster-worker` processes, so the check spans process boundaries.
//!
//! The first mismatched, degraded or unresolved estimate is an `Err` naming the backend and
//! the query index, which the `repro` binary turns into exit 1.  The service's line also
//! gives its anchors scored per query and the share of them that passed ε (the rows of the
//! second containment-head pass).  Nothing here is timed: `benchmark/` drives and times
//! serving load.

use crate::harness::ExperimentContext;
use crn_cluster::{ClusterClient, ClusterOptions};
use crn_core::{Cnt2Crd, EstimatorService, ShardedPool};
use crn_estimators::{CardinalityEstimator, PostgresEstimator};
use crn_nn::parallel::WorkerPool;
use crn_query::generator::{GeneratorConfig, QueryGenerator};
use crn_query::Query;
use crn_serve::{ComputeBackend, RuntimeConfig, ServeRuntime, TicketError, TicketOutcome};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// One `repro serve` run, past the `--preset` that picks the context.
#[derive(Debug)]
pub struct ServeCheckConfig {
    /// Pool shard count of the service and the cluster (`--shards`).
    pub shards: usize,
    /// Worker threads of the service's pool and of each forked worker (`--threads`).
    pub threads: usize,
    /// Workload queries checked on every backend (`--queries`).
    pub queries: usize,
    /// Forked worker processes behind the cluster check (`--cluster`); 0 skips it.
    pub cluster: usize,
}

impl Default for ServeCheckConfig {
    fn default() -> Self {
        ServeCheckConfig {
            shards: 4,
            threads: 2,
            queries: 64,
            cluster: 0,
        }
    }
}

/// Runs the parity check on every backend, returning one line per backend that passed — or
/// an `Err` describing the first violation.
pub fn check_serving_parity(
    ctx: &ExperimentContext,
    config: &ServeCheckConfig,
) -> Result<Vec<String>, String> {
    let workload = workload(ctx, config.queries.max(1));
    let fallback = || Box::new(PostgresEstimator::analyze(&ctx.db));
    let sequential = Cnt2Crd::new(ctx.crn.clone(), ctx.pool.clone()).with_fallback(fallback());
    let expected: Vec<f64> = workload.iter().map(|q| sequential.estimate(q)).collect();

    let service = Arc::new(
        EstimatorService::new(
            ctx.crn.clone(),
            ShardedPool::from_pool(&ctx.pool, config.shards),
            WorkerPool::shared(config.threads.max(1)),
        )
        .with_fallback(fallback()),
    );
    let direct = service.serve(&workload);
    let (scored, kept) = (direct.stats.anchors_scored, direct.stats.anchors_kept);
    let parity = compare(
        "service",
        &expected,
        direct.estimates.into_iter().map(Ok).collect(),
    )?;
    let mut lines = vec![format!(
        "{parity}; {:.1} anchors scored per query, {:.1} % of them kept by ε",
        scored as f64 / workload.len() as f64,
        100.0 * kept as f64 / scored.max(1) as f64
    )];
    lines.push(compare(
        "runtime",
        &expected,
        through_runtime(service, &workload),
    )?);

    if config.cluster > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("cluster: current_exe: {e}"))?;
        let fleet = WorkerFleet::spawn(&exe, config.cluster, config.threads.max(1))?;
        let client = ClusterClient::connect(
            fleet.addrs(),
            ctx.crn.clone(),
            &ctx.pool,
            config.shards,
            ClusterOptions::default(),
        )
        .map_err(|e| format!("cluster: connect failed: {e}"))?
        .with_fallback(fallback());
        let client = Arc::new(client);
        let served = through_runtime(Arc::clone(&client), &workload);
        client.shutdown_workers();
        lines.push(compare(
            &format!("cluster of {}", config.cluster),
            &expected,
            served,
        )?);
    }
    Ok(lines)
}

/// The first `queries` queries of the paper generator, seeded off the context's seed.
fn workload(ctx: &ExperimentContext, queries: usize) -> Vec<Query> {
    // `generate_queries` expands each initial query with perturbed variants, so truncate to
    // the requested workload size exactly.
    let mut generator =
        QueryGenerator::new(&ctx.db, GeneratorConfig::paper(ctx.config.seed ^ 0x5e));
    let mut workload = generator.generate_queries(queries);
    workload.truncate(queries);
    workload
}

/// Serves `workload` through a [`ServeRuntime`] over `backend`, one caller submitting and
/// waiting per query, and returns each request as [`resolved`] sees it.
fn through_runtime<B: ComputeBackend>(
    backend: Arc<B>,
    workload: &[Query],
) -> Vec<Result<f64, String>> {
    let runtime = ServeRuntime::new(backend, RuntimeConfig::default());
    let served = workload
        .iter()
        .map(|query| match runtime.submit_retrying(0, query) {
            Ok(ticket) => resolved(ticket.wait()),
            Err(e) => Err(format!("was not admitted: {e}")),
        })
        .collect();
    runtime.shutdown();
    served
}

/// A runtime resolution as the check sees it: the estimate of a full-fidelity answer, or
/// why there is none.
fn resolved(outcome: Result<TicketOutcome, TicketError>) -> Result<f64, String> {
    match outcome {
        Ok(outcome) if outcome.is_computed() => Ok(outcome.estimate),
        Ok(_) => Err("was served degraded".to_string()),
        Err(e) => Err(format!("did not resolve: {e}")),
    }
}

/// The tripwire: `served[i]`, what `backend` answered for query `i`, must be the sequential
/// oracle's `expected[i]` bit for bit.
fn compare(
    backend: &str,
    expected: &[f64],
    served: Vec<Result<f64, String>>,
) -> Result<String, String> {
    if served.len() != expected.len() {
        return Err(format!(
            "parity violation ({backend}): {} estimates for {} queries",
            served.len(),
            expected.len()
        ));
    }
    for (index, (served, expected)) in served.into_iter().zip(expected).enumerate() {
        let estimate =
            served.map_err(|why| format!("parity violation ({backend}): query {index} {why}"))?;
        if estimate.to_bits() != expected.to_bits() {
            return Err(format!(
                "parity violation ({backend}): query {index} served {estimate} vs sequential \
                 {expected}"
            ));
        }
    }
    Ok(format!(
        "[serve] parity ({backend}): {} estimates bit-identical to the sequential path",
        expected.len()
    ))
}

/// The forked `repro cluster-worker` processes of `--cluster N`.  Dropping the fleet kills
/// and reaps every worker — `Child::drop` does neither, and a worker blocks in its serve
/// loop forever — so no exit path of the check (an error return, a panic) leaks one.
pub struct WorkerFleet {
    children: Vec<Child>,
    addrs: Vec<SocketAddr>,
}

impl WorkerFleet {
    /// Forks `workers` processes of `exe` in `cluster-worker` mode.  Each binds an ephemeral
    /// loopback port and announces it on stdout as `CLUSTER_WORKER_PORT=<port>` before
    /// blocking in its serve loop.
    pub fn spawn(exe: &std::path::Path, workers: usize, threads: usize) -> Result<Self, String> {
        let mut fleet = WorkerFleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for worker in 0..workers {
            let mut child = Command::new(exe)
                .arg("cluster-worker")
                .arg("--threads")
                .arg(threads.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cluster: fork worker {worker}: {e}"))?;
            let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
            fleet.children.push(child);
            let mut line = String::new();
            let port = loop {
                line.clear();
                let read = stdout
                    .read_line(&mut line)
                    .map_err(|e| format!("cluster: worker {worker} stdout: {e}"))?;
                if read == 0 {
                    return Err(format!(
                        "cluster: worker {worker} exited before announcing its port"
                    ));
                }
                if let Some(rest) = line.trim().strip_prefix("CLUSTER_WORKER_PORT=") {
                    break rest.parse::<u16>().map_err(|e| {
                        format!("cluster: worker {worker} announced a bad port {rest:?}: {e}")
                    })?;
                }
            };
            fleet.addrs.push(SocketAddr::from(([127, 0, 0, 1], port)));
        }
        Ok(fleet)
    }

    /// The workers' loopback addresses, in fleet order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_context;
    use crate::metrics::{QErrorSummary, CARDINALITY_FLOOR};
    use crn_core::{Cnt2CrdConfig, QueriesPool};
    use crn_serve::EstimateSource;
    use std::time::Duration;

    #[test]
    fn the_service_and_the_runtime_over_it_pass_the_parity_check() {
        let config = ServeCheckConfig {
            shards: 2,
            threads: 2,
            queries: 24,
            cluster: 0,
        };
        let lines = check_serving_parity(tiny_context(), &config).expect("parity holds");
        assert_eq!(lines.len(), 2, "no cluster check without --cluster");
        assert!(lines[0].starts_with("[serve] parity (service): 24 estimates"));
        assert!(lines[0].contains(" % of them kept by ε"), "{}", lines[0]);
        assert!(lines[1].starts_with("[serve] parity (runtime): 24 estimates"));
    }

    #[test]
    fn an_estimate_one_ulp_off_fails_naming_the_backend_and_the_query() {
        let expected = [10.0, 250.5, 3.25];
        let mut served: Vec<Result<f64, String>> = expected.iter().copied().map(Ok).collect();
        assert!(compare("runtime", &expected, served.clone()).is_ok());
        served[1] = Ok(f64::from_bits(expected[1].to_bits() + 1));
        let violation = compare("runtime", &expected, served).unwrap_err();
        assert!(violation.contains("(runtime)"), "{violation}");
        assert!(violation.contains("query 1 "), "{violation}");
    }

    #[test]
    fn a_degraded_or_unresolved_estimate_fails_the_check() {
        let degraded = TicketOutcome {
            estimate: 10.0,
            source: EstimateSource::Degraded,
            batch_size: 1,
            batch_seq: 0,
            queue_wait: Duration::ZERO,
            trace: None,
        };
        // The degraded estimate even equals the oracle's: its provenance alone fails it.
        let served = vec![Ok(10.0), resolved(Ok(degraded))];
        let violation = compare("cluster of 2", &[10.0, 10.0], served).unwrap_err();
        assert!(
            violation.contains("query 1 was served degraded"),
            "{violation}"
        );
        let served = vec![resolved(Err(TicketError::Expired))];
        let violation = compare("runtime", &[10.0], served).unwrap_err();
        assert!(violation.contains("query 0 did not resolve"), "{violation}");
    }

    /// Grows `base` to `target` entries by cloning predicate-bearing anchors with shifted
    /// literals and perturbed cardinalities.  Every variant keeps its base's structure (FROM
    /// clause, joins, predicate shapes), so bucket sizes grow proportionally with the pool.
    fn synthesize_pool(base: &QueriesPool, target: usize) -> QueriesPool {
        let mut pool = base.clone();
        let perturbable: Vec<_> = base
            .entries()
            .iter()
            .filter(|e| !e.query.predicates().is_empty())
            .collect();
        // `insert` dedups, so a literal collision with a resident entry just skips a variant.
        let mut variant = 0usize;
        while pool.len() < target {
            let entry = perturbable[variant % perturbable.len()];
            let round = (variant / perturbable.len() + 1) as i64;
            let predicate = entry.query.predicates()[0].clone();
            let shifted = crn_query::ast::Predicate::new(
                predicate.column.clone(),
                predicate.op,
                predicate.value.wrapping_add(round.wrapping_mul(7_919)),
            );
            pool.insert(
                entry.query.with_replaced_predicate(0, shifted),
                entry.cardinality + (variant % 31) as u64 + 1,
            );
            variant += 1;
        }
        pool
    }

    /// The pool tier's scaling gates on synthesized pools of 300 and 1,500 entries: top-8
    /// selection keeps the median q-error within 1.25× the full scan's, scores fewer anchors
    /// than the full scan at the larger size, and its anchors per query grow by at most half
    /// the pool-size ratio.
    #[test]
    fn top_k_scores_sublinearly_many_anchors_at_bounded_quality() {
        let ctx = tiny_context();
        let workload = workload(ctx, 24);
        let executor = crn_exec::Executor::new(&ctx.db);
        let truths: Vec<f64> = workload
            .iter()
            .map(|q| executor.cardinality(q) as f64)
            .collect();
        let workers = WorkerPool::shared(2);
        // (median q-error, anchors scored per query) of one serve of the workload.
        let serve = |pool: &QueriesPool, top_k: usize| {
            let service = EstimatorService::new(
                ctx.crn.clone(),
                ShardedPool::from_pool(pool, 2),
                workers.clone(),
            )
            .with_config(Cnt2CrdConfig {
                top_k,
                ..Cnt2CrdConfig::default()
            })
            .with_fallback(Box::new(PostgresEstimator::analyze(&ctx.db)));
            let response = service.serve(&workload);
            let pairs: Vec<(f64, f64)> = response
                .estimates
                .into_iter()
                .zip(truths.iter().copied())
                .collect();
            let median = QErrorSummary::from_pairs(&pairs, CARDINALITY_FLOOR).p50;
            (
                median,
                response.stats.anchors_scored as f64 / workload.len() as f64,
            )
        };

        let (small, large) = (
            synthesize_pool(&ctx.pool, 300),
            synthesize_pool(&ctx.pool, 1_500),
        );
        assert_eq!((small.len(), large.len()), (300, 1_500));
        let [small_full, small_top, large_full, large_top] =
            [(&small, 0), (&small, 8), (&large, 0), (&large, 8)].map(|(pool, k)| serve(pool, k));
        for (full, top) in [(small_full, small_top), (large_full, large_top)] {
            assert!(
                top.0 <= 1.25 * full.0,
                "top-8 median q-error {} vs full {}",
                top.0,
                full.0
            );
        }
        assert!(
            large_top.1 < large_full.1,
            "top-8 scores {} vs full {}",
            large_top.1,
            large_full.1
        );
        let growth = large_top.1 / small_top.1;
        assert!(
            growth <= 0.5 * 1_500.0 / 300.0,
            "top-8 anchors grew {growth:.2}x"
        );
    }
}
