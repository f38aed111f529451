//! The traced run's recording: a [`ComputeBackend`] wrapper that spans every `serve`
//! call from outside, and the in-memory span list written as JSONL when the run ends.

use crn_core::{ServeResponse, ServeStats};
use crn_query::ast::Query;
use crn_serve::ComputeBackend;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `serve` call on the wrapped backend.
#[derive(Debug, Clone)]
pub struct BackendSpan {
    /// 0-based sequence of the call on this wrapper.
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Queries in the batch.
    pub batch: usize,
    /// The stats the call returned.
    pub stats: ServeStats,
}

impl BackendSpan {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Default)]
struct Recorded {
    spans: Vec<BackendSpan>,
    batches: Vec<Vec<Query>>,
}

/// Delegates every [`ComputeBackend`] method to `inner`, recording a span (start, end,
/// batch size, sequence, returned stats) around `serve` and keeping the first
/// `keep_batches` batches' queries so they can be replayed through another backend.
pub struct TracedBackend<B> {
    inner: Arc<B>,
    epoch: Instant,
    keep_batches: usize,
    recorded: Mutex<Recorded>,
}

impl<B: ComputeBackend> TracedBackend<B> {
    /// Wraps `inner`; span times are ns since `epoch`.
    pub fn new(inner: Arc<B>, epoch: Instant, keep_batches: usize) -> Self {
        TracedBackend {
            inner,
            epoch,
            keep_batches,
            recorded: Mutex::new(Recorded::default()),
        }
    }

    /// The spans recorded since `since` (a later instant than the wrapper's epoch) with
    /// their times re-based to it, and the kept batches of those spans; leaves the
    /// wrapper empty.  Spans ascend by time: whoever calls `serve` calls it from one
    /// thread.
    pub fn take_since(&self, since: Instant) -> (Vec<BackendSpan>, Vec<Vec<Query>>) {
        let mut recorded = self.recorded.lock().expect("no panic while recording");
        let mut spans = std::mem::take(&mut recorded.spans);
        let batches = std::mem::take(&mut recorded.batches);
        let shift = since.duration_since(self.epoch).as_nanos() as u64;
        spans.retain(|span| span.start_ns >= shift);
        for span in &mut spans {
            span.start_ns -= shift;
            span.end_ns -= shift;
        }
        // The kept prefix of batches starts with whatever ran before `since`.
        let earlier = spans.first().map_or(0, |span| span.seq as usize);
        (spans, batches.into_iter().skip(earlier).collect())
    }
}

impl<B: ComputeBackend> ComputeBackend for TracedBackend<B> {
    fn serve(&self, queries: &[Query]) -> ServeResponse {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let response = self.inner.serve(queries);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut recorded = self.recorded.lock().expect("no panic while recording");
        let seq = recorded.spans.len() as u64;
        if recorded.batches.len() < self.keep_batches {
            recorded.batches.push(queries.to_vec());
        }
        recorded.spans.push(BackendSpan {
            seq,
            start_ns,
            end_ns,
            batch: queries.len(),
            stats: response.stats.clone(),
        });
        response
    }

    fn fallback_estimate(&self, query: &Query) -> f64 {
        self.inner.fallback_estimate(query)
    }

    fn serving_versions(&self) -> (u64, u64) {
        self.inner.serving_versions()
    }

    fn apply_feedback(&self, query: &Query, cardinality: u64) {
        self.inner.apply_feedback(query, cardinality)
    }

    fn record_retention(&self, query: &Query, q_error: f64) -> bool {
        self.inner.record_retention(query, q_error)
    }

    fn pool_evictions(&self) -> u64 {
        self.inner.pool_evictions()
    }

    fn compact(&self) -> usize {
        self.inner.compact()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The backend span a request resolved at `done_ns` was computed by: the last span that
/// ended at or before the wake (spans do not overlap — one scheduler thread), provided
/// it started after the request was sent.
pub fn span_of(spans: &[BackendSpan], sent_ns: u64, done_ns: u64) -> Option<&BackendSpan> {
    let index = spans.partition_point(|span| span.end_ns <= done_ns);
    let span = spans.get(index.checked_sub(1)?)?;
    (span.start_ns >= sent_ns).then_some(span)
}

/// One span of the written trace.  `parent` is the `id` of the span that caused it;
/// spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Batch size (`backend.serve`, `request`) or 0.
    pub batch: usize,
}

/// Writes `spans` as JSON lines (times in µs since the run's epoch).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"batch\":{}}}",
            span.name,
            span.id,
            parent,
            span.request,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            span.batch
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_core::{CrnModel, EstimatorService, QueriesPool, ShardedPool};
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use crn_nn::{TrainConfig, WorkerPool};
    use crn_query::generator::{GeneratorConfig, QueryGenerator};

    #[test]
    fn traced_backend_returns_the_inner_response_unchanged() {
        let db = generate_imdb(&ImdbConfig::tiny(3));
        let pool = QueriesPool::generate(&db, 40, 2, 11);
        let model = CrnModel::new(&db, TrainConfig::fast_test());
        let inner = Arc::new(EstimatorService::new(
            model,
            ShardedPool::from_pool(&pool, 2),
            WorkerPool::new(1),
        ));
        let mut queries = QueryGenerator::new(&db, GeneratorConfig::paper(5)).generate_queries(12);
        queries.truncate(12);

        let epoch = Instant::now();
        let traced = TracedBackend::new(Arc::clone(&inner), epoch, 1);
        let direct = inner.serve(&queries);
        let through = ComputeBackend::serve(&traced, &queries);
        let again = ComputeBackend::serve(&traced, &queries[..4]);
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&through.estimates), bits(&direct.estimates));
        assert_eq!(through.pool_version, direct.pool_version);
        assert_eq!(through.degraded, direct.degraded);
        assert_eq!(through.stats.queries, direct.stats.queries);
        assert_eq!(bits(&again.estimates), bits(&direct.estimates[..4]));
        assert_eq!(traced.name(), inner.name());
        assert_eq!(
            ComputeBackend::serving_versions(&traced),
            inner.serving_versions()
        );
        assert_eq!(
            traced.fallback_estimate(&queries[0]).to_bits(),
            inner.fallback_estimate(&queries[0]).to_bits()
        );

        // Since the wrapper's own epoch: both spans, and the one batch it was told to keep.
        let (spans, batches) = traced.take_since(epoch);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].seq, spans[0].batch), (0, 12));
        assert_eq!((spans[1].seq, spans[1].batch), (1, 4));
        assert!(spans[0].start_ns <= spans[0].end_ns && spans[0].end_ns <= spans[1].start_ns);
        assert_eq!(batches, vec![queries.clone()]);

        // Since a later instant: what ran before it falls away, the rest is re-based.
        ComputeBackend::serve(&traced, &queries[..3]);
        let since = Instant::now();
        ComputeBackend::serve(&traced, &queries[..2]);
        let (spans, batches) = traced.take_since(since);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].seq, spans[0].batch), (1, 2));
        assert!(spans[0].end_ns <= since.elapsed().as_nanos() as u64);
        assert!(batches.is_empty(), "the kept batch ran before `since`");
    }

    fn span(start_ns: u64, end_ns: u64) -> BackendSpan {
        BackendSpan {
            seq: 0,
            start_ns,
            end_ns,
            batch: 1,
            stats: ServeStats::default(),
        }
    }

    #[test]
    fn span_of_finds_the_batch_that_answered_a_request() {
        let spans = [span(10, 20), span(30, 40), span(50, 60)];
        assert_eq!(span_of(&spans, 25, 45).map(|s| s.start_ns), Some(30));
        assert_eq!(span_of(&spans, 5, 20).map(|s| s.start_ns), Some(10));
        // Resolved before any span ended, or by a span that began before it was sent
        // (a cache hit resolved while an unrelated batch's result was the latest).
        assert!(span_of(&spans, 0, 15).is_none());
        assert!(span_of(&spans, 35, 45).is_none());
    }
}
