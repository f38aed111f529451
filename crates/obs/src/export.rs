//! Exporters: a periodic JSONL emitter (snapshot + event lines to a file), a one-shot
//! Prometheus-text dump and an end-of-run plain-text table. JSON emission is
//! hand-rolled on `std` so the crate stays dependency-free.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::Snapshot;
use crate::Obs;

/// Renders an `f64` as a JSON number (finite values only; non-finite becomes `0`).
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` keeps round-trip precision and always includes a decimal point or
        // exponent, which every JSON parser accepts.
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for inclusion inside JSON quotes.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One JSONL line for a metrics snapshot:
/// `{"type":"snapshot","at_us":…,"counters":{…},"gauges":{…},"hists":{name:{count,p50,p99,max}},…}`.
pub fn render_snapshot_json(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"type\":\"snapshot\",\"at_us\":{},\"counters\":{{",
        snapshot.at_us
    );
    for (index, (name, value)) in snapshot.counters.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(name), value);
    }
    out.push_str("},\"gauges\":{");
    for (index, (name, value)) in snapshot.gauges.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(name), json_f64(*value));
    }
    out.push_str("},\"hists\":{");
    for (index, (name, hist)) in snapshot.hists.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            json_escape(name),
            hist.count,
            hist.p50,
            hist.p99,
            hist.max
        );
    }
    let _ = write!(
        out,
        "}},\"journal_recorded\":{},\"journal_dropped\":{}}}",
        snapshot.journal_recorded, snapshot.journal_dropped
    );
    out
}

/// Sanitizes a metric name for Prometheus exposition (`[a-zA-Z0-9_]`, dots → `_`).
fn prom_name(raw: &str) -> String {
    raw.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// A one-shot Prometheus-text rendering of a snapshot. Histograms expose `_count`,
/// `_p50`, `_p99` and `_max` gauges (log-linear-bucket summaries, not native histograms —
/// the bucket layout is fixed and the quantiles are what the benchmarks consume).
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(512);
    for (name, value) in &snapshot.counters {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", json_f64(*value));
    }
    for (name, hist) in &snapshot.hists {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}_count {}", hist.count);
        let _ = writeln!(out, "{name}_p50 {}", hist.p50);
        let _ = writeln!(out, "{name}_p99 {}", hist.p99);
        let _ = writeln!(out, "{name}_max {}", hist.max);
    }
    out
}

/// An end-of-run plain-text table of every metric, aligned for terminal reading.
pub fn render_table(snapshot: &Snapshot) -> String {
    let width = snapshot
        .counters
        .iter()
        .map(|(name, _)| name.len())
        .chain(snapshot.gauges.iter().map(|(name, _)| name.len()))
        .chain(snapshot.hists.iter().map(|(name, _)| name.len()))
        .max()
        .unwrap_or(0)
        .max(16);
    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "{:<width$}  value", "counter");
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "{name:<width$}  {value}");
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "{:<width$}  value", "gauge");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "{name:<width$}  {value:.3}");
        }
    }
    if !snapshot.hists.is_empty() {
        let _ = writeln!(out, "{:<width$}  count  p50us  p99us  maxus", "histogram");
        for (name, hist) in &snapshot.hists {
            let _ = writeln!(
                out,
                "{name:<width$}  {}  {}  {}  {}",
                hist.count, hist.p50, hist.p99, hist.max
            );
        }
    }
    let _ = writeln!(
        out,
        "journal: {} events recorded, {} dropped by ring overflow",
        snapshot.journal_recorded, snapshot.journal_dropped
    );
    out
}

struct EmitterShared {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// A background thread that appends one snapshot line plus any new journal-event lines
/// to a JSONL file every `interval`. `stop()` writes a final snapshot and drains the
/// remaining events, so short runs still produce a complete artifact.
pub struct JsonlEmitter {
    shared: Arc<EmitterShared>,
    handle: Option<JoinHandle<()>>,
}

impl JsonlEmitter {
    /// Spawns the emitter over `obs`, appending to `path`. Returns an I/O error when
    /// the file cannot be created.
    pub fn spawn(obs: Obs, path: &Path, interval: Duration) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let shared = Arc::new(EmitterShared {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("crn-obs-jsonl".to_string())
            .spawn(move || {
                let mut writer = BufWriter::new(file);
                let mut next_seq = 0u64;
                loop {
                    let stopped = {
                        let guard = thread_shared.stopped.lock().expect("emitter mutex");
                        let (guard, _) = thread_shared
                            .wake
                            .wait_timeout_while(guard, interval, |stopped| !*stopped)
                            .expect("emitter condvar");
                        *guard
                    };
                    Self::emit(&obs, &mut writer, &mut next_seq);
                    if stopped {
                        break;
                    }
                }
            })
            .expect("spawn jsonl emitter");
        Ok(Self {
            shared,
            handle: Some(handle),
        })
    }

    fn emit(obs: &Obs, writer: &mut BufWriter<File>, next_seq: &mut u64) {
        let line = render_snapshot_json(&obs.snapshot());
        let _ = writeln!(writer, "{line}");
        for entry in obs.events_since(*next_seq) {
            *next_seq = entry.seq + 1;
            let _ = writeln!(writer, "{}", entry.to_json());
        }
        let _ = writer.flush();
    }

    /// Stops the emitter after one final snapshot + event drain and joins the thread.
    pub fn stop(mut self) {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn signal_stop(&self) {
        *self.shared.stopped.lock().expect("emitter mutex") = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for JsonlEmitter {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
