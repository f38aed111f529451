//! Histogram correctness (satellite coverage for the observability tentpole):
//! exact counts under the injectable clock, merge-equals-flat across per-thread
//! shards, and quantile error bounded by bucket width against a sorted oracle.

use std::sync::Arc;

use crn_obs::{
    bucket_bounds, bucket_index, Event, Hist, Journal, ManualClock, Obs, ObsConfig, BUCKETS,
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
    let obs = Obs::with_clock(ObsConfig::enabled(), clock.clone());
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
    let journal = Journal::new(4);
    for worker in 0..10usize {
        journal.record(worker as u64, Event::WorkerLost { worker });
    }
    let entries = journal.entries_since(0);
    assert_eq!(entries.len(), 4);
    assert_eq!(
        entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![6, 7, 8, 9]
    );
    assert_eq!(entries[0].event, Event::WorkerLost { worker: 6 });
    assert_eq!(journal.recorded(), 10);
    assert_eq!(journal.dropped(), 6);
    // Incremental drain: nothing new after the last seen seq.
    assert!(journal.entries_since(10).is_empty());
}
