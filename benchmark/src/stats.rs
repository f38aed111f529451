//! Order statistics, the run's pooled estimators and the `/proc` readers.

use std::time::Duration;

/// Nearest-rank percentile of an ascending sample, `rank = round((n − 1) · fraction)` —
/// the rule `crn_obs::Hist::quantile` mirrors, so the two are comparable.  0 when empty.
pub fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * fraction.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// Sorts `values` ascending (all values are finite measurements).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
}

/// Nearest-rank median; sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

/// Arithmetic mean, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One measured round: the latencies (µs) of the requests that were answered and the
/// round's length in ns.
#[derive(Debug, Clone)]
pub struct RoundSample {
    pub latencies_us: Vec<f64>,
    pub length_ns: u64,
}

/// Latency and throughput of a run, over the samples of its rounds pooled.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Median of all samples, µs.
    pub latency_p50_us: f64,
    /// 95th percentile of the samples of the quieter rounds (see [`summarize_rounds`]), µs.
    pub latency_p95_us: f64,
    /// Rounds left out of `latency_p95_us`.
    pub rounds_left_out: usize,
    /// 99th percentile of all samples, µs (reported in the notes, not gated).
    pub latency_p99_us: f64,
    /// Answered records of all rounds per second of all rounds.
    pub records_per_s: f64,
    /// Latency samples in all rounds.
    pub samples: usize,
    /// The round medians, in time order (the report prints them).
    pub round_p50_us: Vec<f64>,
}

/// The run's estimators: percentiles of the pooled samples and the overall rate.
///
/// How fast a service instance runs on a shared host moves between two modes that last
/// seconds (see the README), so a median *over rounds* flips between the modes from run to
/// run; the pooled percentiles mix them in proportion and move half as much.
///
/// The tail is decided by the worst moments of the interval it is taken over, and on a
/// shared host those are stalls of the host, which only ever add time and which an open
/// loop stretches into a backlog: one episode in one round of nine can double the pooled
/// p95 of the run.  So the p95 is taken over the rounds left after setting aside the
/// quarter of them (rounded down) whose own p95 is highest — the tail in the quieter three
/// quarters of the run.  `slo_met_frac` and the p99 still see every sample.
pub fn summarize_rounds(rounds: &[RoundSample]) -> PhaseSummary {
    let mut sorted_rounds: Vec<Vec<f64>> = rounds
        .iter()
        .map(|round| {
            let mut sorted = round.latencies_us.clone();
            sort(&mut sorted);
            sorted
        })
        .collect();
    let round_p50_us = sorted_rounds
        .iter()
        .map(|sorted| percentile(sorted, 0.5))
        .collect();
    let mut pooled = sorted_rounds.concat();
    sort(&mut pooled);

    let rounds_left_out = rounds.len() / 4;
    sorted_rounds.sort_by(|a, b| {
        percentile(a, 0.95)
            .partial_cmp(&percentile(b, 0.95))
            .expect("finite measurements")
    });
    sorted_rounds.truncate(rounds.len() - rounds_left_out);
    let mut quieter = sorted_rounds.concat();
    sort(&mut quieter);

    let length_ns: u64 = rounds.iter().map(|round| round.length_ns).sum();
    PhaseSummary {
        latency_p50_us: percentile(&pooled, 0.5),
        latency_p95_us: percentile(&quieter, 0.95),
        rounds_left_out,
        latency_p99_us: percentile(&pooled, 0.99),
        records_per_s: pooled.len() as f64 * 1e9 / length_ns.max(1) as f64,
        samples: pooled.len(),
        round_p50_us,
    }
}

/// Kernel clock ticks per second.  `sysconf(_SC_CLK_TCK)` needs libc, which the offline
/// toolchain does not vendor; every Linux ABI this runs on fixes it at 100.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Process user + system CPU time so far, from `/proc/self/stat` (all threads, live and
/// joined).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime field 15.
    let ticks: f64 = [11, 12]
        .iter()
        .map(|&i| fields[i].parse::<f64>().expect("numeric tick count"))
        .sum();
    Duration::from_secs_f64(ticks / CLOCK_TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .expect("VmHWM is reported");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 0.5), 51.0); // round(99 · 0.5) = 50 → 51
        assert_eq!(percentile(&sample, 0.99), 99.0); // round(98.01) = 98 → 99
        assert_eq!(percentile(&sample, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    /// `count` samples of `latency_us` in one second.
    fn round(latency_us: f64, count: usize) -> RoundSample {
        RoundSample {
            latencies_us: vec![latency_us; count],
            length_ns: 1_000_000_000,
        }
    }

    #[test]
    fn summary_pools_the_rounds() {
        // Three rounds of one second; the second is 10× slower and half as productive.
        let rounds = [
            round(100.0, 1_000),
            round(1_000.0, 500),
            round(110.0, 1_500),
        ];
        let summary = summarize_rounds(&rounds);
        assert_eq!(summary.samples, 3_000);
        assert_eq!(summary.round_p50_us, vec![100.0, 1_000.0, 110.0]);
        // Ascending: 1,000 × 100, 1,500 × 110, 500 × 1,000 — nearest ranks 1,500, 2,849, 2,969.
        assert_eq!(summary.latency_p50_us, 110.0);
        assert_eq!(summary.latency_p95_us, 1_000.0);
        assert_eq!(summary.latency_p99_us, 1_000.0);
        assert_eq!(summary.records_per_s, 1_000.0);
    }

    #[test]
    fn the_p95_sets_aside_the_quarter_of_rounds_with_the_worst_tail() {
        // Eight rounds at 100 µs; a stall pushes a tenth of one round to 5,000 µs.
        let mut rounds = vec![round(100.0, 1_000); 8];
        for latency_us in rounds[5].latencies_us.iter_mut().take(100) {
            *latency_us = 5_000.0;
        }
        let summary = summarize_rounds(&rounds);
        assert_eq!(summary.rounds_left_out, 2);
        assert_eq!(summary.latency_p95_us, 100.0);
        // 100 of 8,000 samples: the pooled p99 sees them, the median does not.
        assert_eq!(summary.latency_p99_us, 5_000.0);
        assert_eq!(summary.latency_p50_us, 100.0);
        // With three rounds nothing is set aside: a stall in a third of the run shows.
        let summary = summarize_rounds(&rounds[4..7]);
        assert_eq!(summary.rounds_left_out, 0);
        assert_eq!(summary.latency_p95_us, 100.0); // 100 of 3,000 = 3.3 % < 5 %
        assert_eq!(summary.latency_p99_us, 5_000.0);
    }

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        let _ = process_cpu();
    }
}
