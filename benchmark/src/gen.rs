//! Seeded input generators: Poisson arrivals, Zipf ranks, visiting orders, and the
//! literal-perturbation pool synthesiser.  The same seed gives the same inputs.

use crn_core::QueriesPool;
use crn_query::ast::{Predicate, Query};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Arrival times (ns from the start of the schedule) of a Poisson process at
/// `rate_per_s`, up to `horizon_s`: exponential gaps with mean `1 / rate`.
pub fn poisson_arrivals_ns(rate_per_s: f64, horizon_s: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::with_capacity((rate_per_s * horizon_s * 1.1) as usize + 8);
    let mut at = 0.0f64;
    loop {
        let uniform: f64 = rng.gen();
        at += -(1.0 - uniform).ln() / rate_per_s;
        if at >= horizon_s {
            return arrivals;
        }
        arrivals.push((at * 1e9) as u64);
    }
}

/// Zipf(`exponent`) over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks.
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        for value in &mut cumulative {
            *value /= total;
        }
        Zipf {
            cumulative,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next rank.
    pub fn sample(&mut self) -> usize {
        let uniform: f64 = self.rng.gen();
        self.cumulative
            .partition_point(|&c| c <= uniform)
            .min(self.cumulative.len() - 1)
    }
}

/// A seeded permutation of `0..n` — the order one caller visits the corpus in.
pub fn visiting_order(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Grows `base` to exactly `target` entries by cloning predicate-bearing anchors with
/// shifted literals: every variant keeps its base's FROM clause, joins and predicate
/// shapes, so FROM buckets grow in proportion to the pool.  `insert` refuses duplicates,
/// so the result has none; a base without a perturbable entry cannot grow and is an
/// error.
pub fn synthesize_pool(base: &QueriesPool, target: usize) -> Result<QueriesPool, String> {
    if base.len() >= target {
        return Ok(base.truncated(target));
    }
    let perturbable: Vec<(&Query, u64)> = base
        .entries()
        .iter()
        .filter(|entry| !entry.query.predicates().is_empty())
        .map(|entry| (&entry.query, entry.cardinality))
        .collect();
    if perturbable.is_empty() {
        return Err("the base pool has no predicate-bearing entry to perturb".to_string());
    }
    let mut pool = base.clone();
    let max_attempts = target.saturating_mul(4) + 1_000;
    for attempt in 0..max_attempts {
        if pool.len() >= target {
            return Ok(pool);
        }
        let (query, cardinality) = perturbable[attempt % perturbable.len()];
        let round = (attempt / perturbable.len() + 1) as i64;
        // Alternate which predicate moves so multi-predicate anchors spread out too.
        let index = (round as usize) % query.predicates().len();
        let predicate = &query.predicates()[index];
        let shifted = Predicate::new(
            predicate.column.clone(),
            predicate.op,
            predicate.value.wrapping_add(round.wrapping_mul(7_919)),
        );
        pool.insert(
            query.with_replaced_predicate(index, shifted),
            cardinality + (attempt % 31) as u64 + 1,
        );
    }
    Err(format!(
        "could not synthesise {target} entries ({} after {max_attempts} attempts)",
        pool.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use std::collections::BTreeSet;

    #[test]
    fn poisson_is_reproducible_and_has_the_right_rate() {
        let a = poisson_arrivals_ns(600.0, 10.0, 9);
        assert_eq!(a, poisson_arrivals_ns(600.0, 10.0, 9));
        assert_ne!(a, poisson_arrivals_ns(600.0, 10.0, 10));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        assert!(*a.last().expect("non-empty") < 10_000_000_000);
        // 6,000 expected, σ ≈ 77: ±5 % is > 3σ.
        assert!((5_700..=6_300).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn zipf_is_reproducible_and_skewed() {
        let draw = |seed| {
            let mut zipf = Zipf::new(512, 1.1, seed);
            (0..20_000).map(|_| zipf.sample()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&rank| rank < 512));
        let head = a.iter().filter(|&&rank| rank == 0).count();
        let tail = a.iter().filter(|&&rank| rank == 511).count();
        // P(rank 0) ≈ 0.18 at s = 1.1, n = 512; rank 511 is ~950× rarer.
        assert!(head > 3_000 && head < 4_200, "head drawn {head} times");
        assert!(tail < 30, "tail drawn {tail} times");
    }

    #[test]
    fn visiting_order_is_a_seeded_permutation() {
        let order = visiting_order(1_000, 5);
        assert_eq!(order, visiting_order(1_000, 5));
        assert_ne!(order, visiting_order(1_000, 6));
        let distinct: BTreeSet<u32> = order.iter().copied().collect();
        assert_eq!(distinct.len(), 1_000);
    }

    #[test]
    fn synthesiser_reaches_the_target_without_duplicates() {
        let db = generate_imdb(&ImdbConfig::tiny(1));
        let base = QueriesPool::generate(&db, 40, 2, 7);
        let grown = synthesize_pool(&base, 600).expect("pool grows");
        assert_eq!(grown.len(), 600);
        let distinct: BTreeSet<&Query> = grown.entries().iter().map(|e| &e.query).collect();
        assert_eq!(distinct.len(), 600, "no duplicate anchors");
        // The base entries survive and no new FROM clause appears.
        assert_eq!(grown.num_from_clauses(), base.num_from_clauses());
        assert_eq!(
            synthesize_pool(&base, 10).expect("truncates").len(),
            10,
            "a smaller target truncates"
        );
    }
}
