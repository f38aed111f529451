//! The distributed-parity pin: a loopback coordinator + worker fleet serves every
//! batch **bit-identically** to the single-process service and to the paper's
//! sequential estimator, across every fleet shape the ISSUE names (workers {1,2,4} ×
//! shards {1,4,8}), through feedback upserts, and for the zero-length batch.

mod common;

use common::{assert_bit_identical, fixture, spawn_fleet, workload};
use crn_cluster::{ClusterClient, ClusterOptions, WireError};
use crn_core::{Cnt2Crd, Cnt2CrdConfig, EstimatorService, ShardedPool};
use crn_estimators::CardinalityEstimator;
use crn_nn::parallel::WorkerPool;
use crn_obs::{Obs, ObsConfig};
use crn_serve::ComputeBackend;

/// Top-K ranks a query's anchors pool-wide; workers scan shard-locally and used to answer
/// with full-scan lists, silently ignoring `top_k` (served 177.47 vs sequential 0 on the
/// tiny preset).  The coordinator refuses the configuration before touching any worker.
#[test]
fn top_k_configuration_is_rejected_at_connect() {
    let fx = fixture(11);
    // No listener behind this address: the rejection must come before any dial.
    let unreachable = "127.0.0.1:1".parse().expect("socket addr");
    let options = ClusterOptions {
        config: Cnt2CrdConfig {
            top_k: 1,
            ..Cnt2CrdConfig::default()
        },
        ..ClusterOptions::default()
    };
    let outcome = ClusterClient::connect(&[unreachable], fx.model, &fx.pool, 4, options);
    assert!(
        matches!(outcome, Err(WireError::UnsupportedConfig(_))),
        "top_k > 0 must be refused with the typed error"
    );
}

#[test]
fn distributed_serving_is_bit_identical_across_fleet_shapes() {
    let fx = fixture(11);
    let queries = workload(&fx.db, 77, 24);
    for &workers in &[1usize, 2, 4] {
        for &shards in &[1usize, 4, 8] {
            let context = format!("workers={workers} shards={shards}");
            let (addrs, handles) = spawn_fleet(workers, 1);
            let client = ClusterClient::connect(
                &addrs,
                fx.model.clone(),
                &fx.pool,
                shards,
                ClusterOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{context}: connect failed: {e}"));

            let response = client.serve(&queries);
            assert!(
                response.degraded.is_empty(),
                "{context}: healthy fleet degraded {:?}",
                response.degraded
            );

            // Single-process service over the same pool sharding.
            let service = EstimatorService::new(
                fx.model.clone(),
                ShardedPool::from_pool(&fx.pool, shards),
                WorkerPool::shared(2),
            );
            let local = ComputeBackend::serve(&service, &queries);
            assert_bit_identical(&response.estimates, &local.estimates, &context);

            // And the paper's sequential path (shard-count independence transitively).
            let sequential = Cnt2Crd::new(fx.model.clone(), fx.pool.clone());
            for (query, estimate) in queries.iter().zip(&response.estimates) {
                assert_eq!(
                    estimate.to_bits(),
                    sequential.estimate(query).to_bits(),
                    "{context}: diverged from sequential Cnt2Crd"
                );
            }

            client.shutdown_workers();
            for handle in handles {
                handle.join().expect("worker thread exits cleanly");
            }
        }
    }
}

#[test]
fn parity_survives_feedback_upserts_on_both_sides() {
    let fx = fixture(23);
    let queries = workload(&fx.db, 91, 16);
    let fresh = workload(&fx.db, 92, 8);

    let (addrs, handles) = spawn_fleet(2, 1);
    let client = ClusterClient::connect(
        &addrs,
        fx.model.clone(),
        &fx.pool,
        4,
        ClusterOptions::default(),
    )
    .expect("connect");
    let service = EstimatorService::new(
        fx.model.clone(),
        ShardedPool::from_pool(&fx.pool, 4),
        WorkerPool::shared(2),
    );

    // Identical upsert stream on both sides: the cluster forwards each record to the
    // owning worker, the local service applies it directly.
    for (index, query) in fresh.iter().enumerate() {
        let cardinality = 10 * (index as u64 + 1) + 5;
        client.apply_feedback(query, cardinality);
        service.apply_feedback(query, cardinality);
    }
    assert_eq!(client.stats().upserts_forwarded, fresh.len() as u64);

    let response = client.serve(&queries);
    let local = ComputeBackend::serve(&service, &queries);
    assert!(response.degraded.is_empty());
    assert_bit_identical(&response.estimates, &local.estimates, "post-upsert batch");

    // The upserted queries themselves now serve from the pool, identically.
    let response = client.serve(&fresh);
    let local = ComputeBackend::serve(&service, &fresh);
    assert!(response.degraded.is_empty());
    assert_bit_identical(&response.estimates, &local.estimates, "upserted queries");

    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker thread exits cleanly");
    }
}

/// The client registers its metric handles once, in `with_obs`; the serve path only
/// records into them.  After one batch an enabled `Obs` holds one scatter sample.
#[test]
fn an_obs_enabled_client_records_one_scatter_sample_per_serve() {
    let fx = fixture(5);
    let queries = workload(&fx.db, 31, 6);
    let obs = Obs::new(ObsConfig::enabled());
    let (addrs, handles) = spawn_fleet(1, 1);
    let client = ClusterClient::connect(
        &addrs,
        fx.model.clone(),
        &fx.pool,
        4,
        ClusterOptions::default(),
    )
    .expect("connect")
    .with_obs(&obs);

    let response = client.serve(&queries);
    assert!(response.degraded.is_empty());
    assert_eq!(obs.hist("cluster.scatter_us").count(), 1);

    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker thread exits cleanly");
    }
}

#[test]
fn zero_length_batch_serves_empty_and_stays_healthy() {
    let fx = fixture(5);
    let (addrs, handles) = spawn_fleet(2, 1);
    let client = ClusterClient::connect(
        &addrs,
        fx.model.clone(),
        &fx.pool,
        4,
        ClusterOptions::default(),
    )
    .expect("connect");

    let response = client.serve(&[]);
    assert!(response.estimates.is_empty());
    assert!(response.degraded.is_empty());
    let stats = client.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.worker_losses, 0);
    assert_eq!(stats.workers_up, 2);

    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker thread exits cleanly");
    }
}
