//! Node-failure and rollout behaviour: a lost worker degrades its shards **loudly**
//! (every admitted ticket still resolves, tagged `Degraded`, counted in
//! [`ClusterStats`] and journaled) and recovers to bit-parity on reconnect; a
//! sabotaged candidate model dies at the canary and never reaches the fleet, while a
//! good candidate rolls out fleet-wide with no mixed-version batch.

mod common;

use common::{
    assert_bit_identical, canary_owned_pool, covered_probe, fixture, sabotaged_crn, spawn_fleet,
    workload,
};
use crn_cluster::wire::{read_message, write_message, Message};
use crn_cluster::{ClusterClient, ClusterOptions, RolloutOutcome};
use crn_core::{EstimatorService, ShardedPool};
use crn_nn::parallel::WorkerPool;
use crn_obs::{Obs, ObsConfig};
use crn_serve::{
    ComputeBackend, EstimateSource, FaultInjector, FaultPlan, FaultSite, FaultTrigger,
    RuntimeConfig, ServeRuntime,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// A mid-batch frame drop (the deterministic [`FaultSite::ClusterFrameDrop`] fault
/// site — occurrence-counted, no wall clock) degrades exactly the affected batch:
/// every admitted ticket resolves as `EstimateSource::Degraded`, the loss is counted
/// and journaled, and the reconnect cadence restores bit-parity.
#[test]
fn frame_drop_mid_batch_resolves_tickets_as_degraded_then_recovers() {
    let fx = fixture(41);
    let queries = workload(&fx.db, 83, 6);
    let obs = Obs::new(ObsConfig::enabled());
    let (addrs, handles) = spawn_fleet(1, 1);
    // The scheduler may split the 6 tickets into up to 6 batches; a cadence longer
    // than that keeps the worker lost for the whole ticket phase (no racy recovery),
    // and the explicit recovery loop below crosses it deterministically.
    let options = ClusterOptions {
        reconnect_every: 8,
        ..ClusterOptions::default()
    };
    let faults = FaultInjector::new(
        FaultPlan::none().with(FaultSite::ClusterFrameDrop, FaultTrigger::Once(1)),
    );
    let client = Arc::new(
        ClusterClient::connect(&addrs, fx.model.clone(), &fx.pool, 4, options)
            .expect("connect")
            .with_obs(&obs)
            .with_faults(faults),
    );
    let runtime = ServeRuntime::new(Arc::clone(&client), RuntimeConfig::default());

    // Batch 1: the scripted drop severs the only worker mid-frame.  Every ticket must
    // still resolve — degraded, never hung.
    let tickets: Vec<_> = queries
        .iter()
        .map(|query| runtime.submit(1, query.clone()).expect("admitted"))
        .collect();
    for ticket in &tickets {
        let outcome = ticket.wait().expect("ticket resolves");
        assert_eq!(outcome.source, EstimateSource::Degraded);
    }

    let stats = client.stats();
    assert_eq!(stats.worker_losses, 1, "the drop is a counted loss");
    assert!(
        stats.degraded_queries >= queries.len() as u64,
        "every query in the severed batch degraded"
    );
    let lost_events = obs
        .events_since(0)
        .into_iter()
        .filter(|entry| entry.event.kind() == "worker_lost")
        .count();
    assert_eq!(lost_events, 1, "the loss is journaled");

    // Later batches: the reconnect cadence re-dials, re-ships the assignment, and
    // serving is bit-identical to single-process again.
    let mut response = client.serve(&queries);
    for _ in 0..16 {
        if response.degraded.is_empty() {
            break;
        }
        response = client.serve(&queries);
    }
    assert!(response.degraded.is_empty(), "reconnected fleet is healthy");
    assert_eq!(client.stats().reconnects, 1);
    let service = EstimatorService::new(
        fx.model.clone(),
        ShardedPool::from_pool(&fx.pool, 4),
        WorkerPool::shared(2),
    );
    let local = ComputeBackend::serve(&service, &queries);
    assert_bit_identical(&response.estimates, &local.estimates, "post-reconnect");

    drop(runtime);
    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker exits");
    }
}

/// A frame that fails to decode costs the sender its connection, not the worker its
/// life: after a bad payload, an unknown type byte and an oversized length prefix,
/// each on its own connection, the same worker still accepts a coordinator and serves
/// bit-identically.
#[test]
fn bad_frames_drop_the_connection_not_the_worker() {
    let fx = fixture(43);
    let queries = workload(&fx.db, 84, 12);
    let (addrs, handles) = spawn_fleet(1, 1);

    let mut deep = vec![3u8];
    for _ in 0..100_000 {
        deep.push(7);
        deep.extend_from_slice(&1u32.to_le_bytes());
    }
    let bad_payload = [&(deep.len() as u32).to_le_bytes()[..], &deep].concat();
    let bad_type = [&1u32.to_le_bytes()[..], &[200u8]].concat();
    let bad_length = u32::MAX.to_le_bytes().to_vec();
    for garbage in [bad_payload, bad_type, bad_length] {
        let mut stream = TcpStream::connect(addrs[0]).expect("dial worker");
        stream.write_all(&garbage).expect("send garbage");
        // The worker hangs up without a reply.
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .expect("worker closes the connection");
        assert!(rest.is_empty(), "no reply to a bad frame");
    }

    let client = ClusterClient::connect(
        &addrs,
        fx.model.clone(),
        &fx.pool,
        4,
        ClusterOptions::default(),
    )
    .expect("the worker still accepts a coordinator");
    let response = client.serve(&queries);
    assert!(response.degraded.is_empty(), "the worker serves");
    let service = EstimatorService::new(
        fx.model.clone(),
        ShardedPool::from_pool(&fx.pool, 4),
        WorkerPool::shared(2),
    );
    let local = ComputeBackend::serve(&service, &queries);
    assert_bit_identical(&response.estimates, &local.estimates, "after bad frames");

    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker exits");
    }
}

/// A worker that dies for good (its listener gone — reconnects are refused forever)
/// permanently degrades only its own shards: every batch fully resolves, the healthy
/// worker's queries stay bit-identical, and the losses/degraded counters keep score.
#[test]
fn dead_worker_degrades_its_shards_and_never_hangs_a_batch() {
    let fx = fixture(47);
    let queries = workload(&fx.db, 85, 20);

    // Worker 0 is real.  Worker 1 is a stub that accepts the assignment, acks it, then
    // dies — dropping its listener, so every later dial is refused.
    let (mut addrs, mut handles) = spawn_fleet(1, 1);
    let stub = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    addrs.push(stub.local_addr().expect("stub addr"));
    handles.push(std::thread::spawn(move || {
        let (stream, _) = stub.accept().expect("coordinator connects");
        let mut reader = stream.try_clone().expect("clone");
        let mut writer = stream;
        let Ok(Message::Assign(assignment)) = read_message(&mut reader) else {
            panic!("expected assignment first");
        };
        write_message(
            &mut writer,
            &Message::AssignAck(crn_cluster::wire::AssignAck {
                worker_id: assignment.worker_id,
                shards: assignment.shards.len(),
                model_version: assignment.model_version,
            }),
        )
        .expect("ack");
        // Die: connection and listener both drop here.
    }));

    let options = ClusterOptions {
        reconnect_every: 1,
        ..ClusterOptions::default()
    };
    let client =
        ClusterClient::connect(&addrs, fx.model.clone(), &fx.pool, 4, options).expect("connect");

    // Reference for the still-healthy slots.
    let service = EstimatorService::new(
        fx.model.clone(),
        ShardedPool::from_pool(&fx.pool, 4),
        WorkerPool::shared(2),
    );
    let local = ComputeBackend::serve(&service, &queries);

    for batch in 0..3 {
        let response = client.serve(&queries);
        assert_eq!(
            response.estimates.len(),
            queries.len(),
            "batch {batch}: every query answered"
        );
        assert!(
            !response.degraded.is_empty(),
            "batch {batch}: the dead worker's shards degrade"
        );
        assert!(
            response.degraded.len() < queries.len(),
            "batch {batch}: the live worker still serves its shards"
        );
        for (index, estimate) in response.estimates.iter().enumerate() {
            if !response.degraded.contains(&index) {
                assert_eq!(
                    estimate.to_bits(),
                    local.estimates[index].to_bits(),
                    "batch {batch}: healthy slot {index} diverged"
                );
            }
        }
    }

    let stats = client.stats();
    assert_eq!(stats.workers_up, 1);
    assert!(stats.worker_losses >= 1);
    assert!(stats.degraded_queries > 0);
    assert_eq!(stats.reconnects, 0, "a refused dial is not a reconnect");

    client.shutdown_workers();
    handles.remove(1).join().expect("stub exits");
    handles.remove(0).join().expect("worker exits");
}

/// The canary gate: a sabotaged candidate (trained into epsilon-filtering every
/// anchor, so every probe falls back to the flat default) is rejected on the
/// canary worker's mirrored probe traffic and never reaches the fleet — the live
/// version keeps serving bit-identically; the decision is journaled and counted.
#[test]
fn sabotaged_candidate_dies_at_the_canary() {
    let fx = fixture(53);
    let queries = workload(&fx.db, 87, 12);
    // Probe traffic the canary worker can actually answer from its own shard subset
    // (2 workers x 4 shards: worker 0 owns shards 0 and 2).
    let owned = canary_owned_pool(&fx.pool, 4, 2);
    let (probe, truths) = covered_probe(&fx.db, &owned, 88, 12);

    let obs = Obs::new(ObsConfig::enabled());
    let (addrs, handles) = spawn_fleet(2, 1);
    let client = ClusterClient::connect(
        &addrs,
        fx.model.clone(),
        &fx.pool,
        4,
        ClusterOptions::default(),
    )
    .expect("connect")
    .with_obs(&obs);

    let before = client.serve(&queries);
    let outcome = client
        .roll_out(sabotaged_crn(&fx.db, 53), &probe, &truths)
        .expect("rollout runs");
    let RolloutOutcome::Rejected {
        live_median,
        candidate_median,
    } = outcome
    else {
        panic!("sabotaged candidate was promoted: {outcome:?}");
    };
    assert!(
        candidate_median >= live_median,
        "rejection reason: candidate {candidate_median} vs live {live_median}"
    );

    // The fleet still serves the old version, bit-identically to before.
    assert_eq!(client.model_version(), 1);
    let after = client.serve(&queries);
    assert!(after.degraded.is_empty(), "no version-mismatch fallout");
    assert_bit_identical(&after.estimates, &before.estimates, "post-rejection");

    let stats = client.stats();
    assert_eq!(stats.canary_rejected, 1);
    assert_eq!(stats.canary_promoted, 0);
    let decisions: Vec<_> = obs
        .events_since(0)
        .into_iter()
        .filter(|entry| entry.event.kind() == "canary_decision")
        .collect();
    assert_eq!(decisions.len(), 1, "one journaled canary decision");

    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker exits");
    }
}

/// The promotion path: with a sabotaged live model, a properly trained candidate
/// beats the canary gate and swaps fleet-wide under a new version — subsequent batches
/// serve bit-identically to a single-process service on the NEW model, with no
/// degraded slots (i.e. no worker ever answered under a stale version).
#[test]
fn good_candidate_promotes_fleet_wide_without_mixing_versions() {
    let fx = fixture(59);
    let queries = workload(&fx.db, 89, 12);
    let owned = canary_owned_pool(&fx.pool, 4, 2);
    let (probe, truths) = covered_probe(&fx.db, &owned, 90, 12);

    let (addrs, handles) = spawn_fleet(2, 1);
    let live = sabotaged_crn(&fx.db, 59);
    let client = ClusterClient::connect(&addrs, live, &fx.pool, 4, ClusterOptions::default())
        .expect("connect");

    let outcome = client
        .roll_out(fx.model.clone(), &probe, &truths)
        .expect("rollout runs");
    let RolloutOutcome::Promoted { version, .. } = outcome else {
        panic!("good candidate was rejected: {outcome:?}");
    };
    assert_eq!(version, 2);
    assert_eq!(client.model_version(), 2);
    assert_eq!(client.stats().canary_promoted, 1);

    // Every post-swap batch serves the candidate on every worker: bit-identical to a
    // single-process service over the candidate, with zero degraded (a stale-version
    // worker would have errored the batch into degradation — none did).
    let response = client.serve(&queries);
    assert!(response.degraded.is_empty(), "no mixed-version batch");
    let service = EstimatorService::new(
        fx.model.clone(),
        ShardedPool::from_pool(&fx.pool, 4),
        WorkerPool::shared(2),
    );
    let local = ComputeBackend::serve(&service, &queries);
    assert_bit_identical(&response.estimates, &local.estimates, "post-promotion");

    client.shutdown_workers();
    for handle in handles {
        handle.join().expect("worker exits");
    }
}
