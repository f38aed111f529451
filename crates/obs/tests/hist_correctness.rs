//! Histogram correctness (satellite coverage for the observability tentpole):
//! exact counts under the injectable clock, merge-equals-flat across per-thread
//! shards, and quantile error bounded by bucket width against a sorted oracle.

use std::sync::Arc;

use crn_obs::{
    bucket_bounds, bucket_index, render_prometheus, render_snapshot_json, render_table, Event,
    Hist, ManualClock, Obs, ObsConfig, BUCKETS,
};

/// The eval driver's sorted nearest-rank percentile rule, duplicated as the oracle.
fn sorted_oracle(samples: &mut [u64], fraction: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * fraction).round() as usize;
    samples[rank]
}

#[test]
fn bucket_layout_is_log_linear() {
    // Values below 16 are exact.
    for value in 0..16u64 {
        assert_eq!(bucket_index(value), value as usize);
    }
    // The octave [16, 32) is still one value per bucket; from 32 on, a bucket spans
    // 2^(octave − 4) values.
    assert_eq!(bucket_index(31), 31);
    assert_eq!(bucket_index(32), 32);
    assert_eq!(bucket_index(33), 32);
    assert_eq!(bucket_index(34), 33);
    assert_eq!(bucket_index(63), 47);
    assert_eq!(bucket_index(64), 48);
    assert_eq!(bucket_bounds(bucket_index(100)), (100, 103));
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    // The buckets tile the whole u64 range in order, each round-tripping.
    assert_eq!(bucket_bounds(0).0, 0);
    assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    for index in 0..BUCKETS {
        let (lower, upper) = bucket_bounds(index);
        assert!(lower <= upper);
        assert_eq!(bucket_index(lower), index);
        assert_eq!(bucket_index(upper), index);
        if index + 1 < BUCKETS {
            assert_eq!(
                bucket_bounds(index + 1).0,
                upper + 1,
                "gap after bucket {index}"
            );
        }
    }
}

#[test]
fn buckets_from_16_up_are_at_most_a_sixteenth_wide() {
    // upper ≤ lower · 17/16: a quantile's bucket upper bound overstates the exact value
    // by at most 6.25 %.
    for index in 16..BUCKETS {
        let (lower, upper) = bucket_bounds(index);
        assert!(
            u128::from(upper) * 16 <= u128::from(lower) * 17,
            "bucket {index} [{lower}, {upper}] is wider than 1/16 of its lower bound"
        );
    }
}

#[test]
fn exact_counts_under_manual_clock() {
    // Deterministic mode: a ManualClock drives span-style durations, so the histogram
    // counts are exact, not approximate. Each recorded duration is (end - start) on
    // the injected clock.
    use crn_obs::Clock as _;
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::with_clock(ObsConfig::enabled().with_hist_shards(1), clock.clone());
    let hist = obs.hist("test.duration_us");
    for step in [0u64, 1, 1, 3, 100, 103, 4096] {
        clock.set(0);
        let start = clock.now_us();
        clock.advance(step);
        hist.record(clock.now_us() - start);
    }
    let merged = obs
        .hist("test.duration_us")
        .hist()
        .expect("enabled")
        .merged();
    assert_eq!(merged[bucket_index(0)], 1);
    assert_eq!(merged[bucket_index(1)], 2);
    assert_eq!(merged[bucket_index(3)], 1);
    assert_eq!(merged[bucket_index(100)], 2);
    assert_eq!(merged[bucket_index(4096)], 1);
    assert_eq!(merged.iter().sum::<u64>(), 7);
}

#[test]
fn merge_equals_flat_across_shards() {
    // The same sample stream recorded into a sharded histogram from many threads must
    // merge to exactly the flat single-shard reference.
    let sharded = Arc::new(Hist::new(8));
    let flat = Hist::new(1);
    let samples: Vec<u64> = (0..4096u64).map(|i| (i * 2654435761) % 100_000).collect();
    for &sample in &samples {
        flat.record(sample);
    }
    std::thread::scope(|scope| {
        for chunk in samples.chunks(512) {
            let sharded = Arc::clone(&sharded);
            scope.spawn(move || {
                for &sample in chunk {
                    sharded.record(sample);
                }
            });
        }
    });
    assert_eq!(sharded.merged(), flat.merged());
    assert_eq!(sharded.count(), flat.count());
}

#[test]
fn quantile_error_bounded_by_bucket_width() {
    // Against a sorted oracle using the same nearest-rank rule, the histogram quantile
    // must land in the same bucket as the exact value: oracle ∈ [lower, upper] of the
    // bucket the histogram reports.
    let hist = Hist::new(4);
    let mut samples: Vec<u64> = (0..5000u64)
        .map(|i| {
            let x = (i * 48271) % 65537;
            x * x % 1_000_000
        })
        .collect();
    for &sample in &samples {
        hist.record(sample);
    }
    for fraction in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let exact = sorted_oracle(&mut samples, fraction);
        let reported = hist.quantile(fraction);
        let (lower, upper) = bucket_bounds(bucket_index(reported));
        assert!(
            exact >= lower && exact <= upper,
            "q{fraction}: exact {exact} outside histogram bucket [{lower}, {upper}]"
        );
        assert_eq!(
            bucket_index(reported),
            bucket_index(exact),
            "q{fraction}: histogram bucket disagrees with the oracle's bucket"
        );
    }
}

#[test]
fn journal_ring_drops_oldest_and_keeps_seq() {
    let obs = Obs::new(ObsConfig::enabled().with_journal_capacity(4));
    for written in 0..10u64 {
        obs.record_event(Event::CheckpointCommit { written });
    }
    let entries = obs.events_since(0);
    assert_eq!(entries.len(), 4);
    assert_eq!(
        entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![6, 7, 8, 9]
    );
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.journal_recorded, 10);
    assert_eq!(snapshot.journal_dropped, 6);
    // Incremental drain: nothing new after the last seen seq.
    assert!(obs.events_since(10).is_empty());
}

#[test]
fn exporters_render_wellformed_output() {
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::with_clock(ObsConfig::enabled(), clock.clone());
    clock.set(1000);
    obs.counter("serve.batches").add(2);
    obs.gauge("online.drift_window_median").set(2.25);
    let hist = obs.hist("serve.latency_us.interactive");
    hist.record(100);
    hist.record(300);
    obs.record_event(Event::BatchClosed {
        reason: "size",
        size: 8,
        class: "interactive",
    });

    let snapshot = obs.snapshot();
    let json = render_snapshot_json(&snapshot);
    assert!(json.starts_with("{\"type\":\"snapshot\",\"at_us\":1000,"));
    assert!(json.contains("\"serve.batches\":2"));
    assert!(json.contains("\"online.drift_window_median\":2.25"));
    assert!(json.contains("\"serve.latency_us.interactive\":{\"count\":2,"));
    assert!(json.ends_with("}"));

    let event_json = obs.events_since(0)[0].to_json();
    assert_eq!(
        event_json,
        "{\"type\":\"event\",\"seq\":0,\"at_us\":1000,\"kind\":\"batch_closed\",\
         \"reason\":\"size\",\"size\":8,\"class\":\"interactive\"}"
    );

    let prom = render_prometheus(&snapshot);
    assert!(prom.contains("# TYPE serve_batches counter\nserve_batches 2\n"));
    assert!(prom.contains("serve_latency_us_interactive_count 2"));

    let table = render_table(&snapshot);
    assert!(table.contains("serve.batches"));
    assert!(table.contains("journal: 1 events recorded, 0 dropped"));
}

#[test]
fn jsonl_emitter_writes_snapshot_and_events() {
    let dir = std::env::temp_dir().join(format!("crn-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let obs = Obs::new(ObsConfig::enabled());
    obs.counter("serve.completed").add(5);
    obs.record_event(Event::SupervisorRestart {
        lane: "scheduler",
        restarts: 1,
    });
    let emitter =
        crn_obs::JsonlEmitter::spawn(obs.clone(), &path, std::time::Duration::from_millis(5))
            .expect("spawn emitter");
    std::thread::sleep(std::time::Duration::from_millis(20));
    obs.record_event(Event::LaneDegraded {
        lane: "maintenance",
    });
    emitter.stop();

    let contents = std::fs::read_to_string(&path).expect("jsonl written");
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 2, "expected snapshot + event lines");
    assert!(lines.iter().any(|l| l.contains("\"type\":\"snapshot\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"kind\":\"supervisor_restart\"")
            && l.contains("\"lane\":\"scheduler\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"kind\":\"lane_degraded\"")));
    // Every event seq appears exactly once: the emitter drains incrementally.
    let restart_lines = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"supervisor_restart\""))
        .count();
    assert_eq!(restart_lines, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
