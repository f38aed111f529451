//! Drives the real `repro` binary through every surviving `repro serve` mode on the tiny
//! preset.  The process exit code is the gate each mode carries (bit-parity against the
//! sequential oracle, SLO isolation, histogram-vs-sort agreement, the pool-scale budgets);
//! on top, every emitted record must carry the one schema tag and the one key set.  This is
//! the only tier-1 coverage of cluster mode: forking `cluster-worker` processes needs the
//! binary, which a unit test's `current_exe()` is not.

use crn_eval::serve::WorkerFleet;
use serde::content::Content;
use serde::Deserialize;
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The parsed JSON tree itself (the vendored `serde` has no `Value` type).
struct Json(Content);

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, serde::de::Error> {
        Ok(Json(content.clone()))
    }
}

/// Runs `repro serve` on the tiny preset with the (whitespace-separated) `flags`, requires
/// exit 0 and returns the schema tag and records of its `--bench-json`.
fn serve(name: &str, flags: &str) -> (String, Vec<Content>) {
    let path =
        std::env::temp_dir().join(format!("crn_serve_cli_{name}_{}.json", std::process::id()));
    let output = Command::new(REPRO)
        .args("serve --preset tiny --shards 4 --threads 2 --queries 24 --batch 8".split(' '))
        .args(flags.split_whitespace())
        .arg("--bench-json")
        .arg(&path)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro serve {flags} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("bench json written");
    std::fs::remove_file(&path).ok();
    let Json(summary) = serde_json::from_str(&text).expect("bench json parses");
    let schema = String::from_content(summary.field("schema").unwrap()).unwrap();
    let records = summary.field("configs").unwrap().as_seq().unwrap().to_vec();
    (schema, records)
}

fn text(record: &Content, key: &str) -> String {
    String::from_content(record.field(key).unwrap()).unwrap()
}

fn count(record: &Content, key: &str) -> u64 {
    u64::from_content(record.field(key).unwrap()).unwrap()
}

fn counter(record: &Content, name: &str) -> u64 {
    let counters = Vec::<(String, u64)>::from_content(record.field("counters").unwrap()).unwrap();
    let found = counters.iter().find(|(key, _)| key == name);
    found.unwrap_or_else(|| panic!("no counter {name}")).1
}

#[test]
fn every_mode_exits_zero_and_emits_the_same_record_shape() {
    let closed_loop = "--batch-window-us 100 --queue-depth 16 --callers 4";
    let (sync_schema, sync) = serve("sync", "");
    let (async_schema, asynchronous) = serve(
        "async",
        &format!(
            "--async --class-window-us 20000 --class-weights 3:1 --cache-entries 256 {closed_loop}"
        ),
    );
    let (cluster_schema, cluster) = serve("cluster", &format!("--cluster 2 {closed_loop}"));
    let (scale_schema, scale) = serve(
        "scale",
        "--top-k 8 --pool-scale 300,1500 --q-error-budget 1.25",
    );

    for schema in [&async_schema, &cluster_schema, &scale_schema] {
        assert_eq!(schema, &sync_schema, "one schema tag");
    }
    let modes: Vec<String> = [&sync, &asynchronous, &cluster, &scale]
        .into_iter()
        .flatten()
        .map(|record| text(record, "mode"))
        .collect();
    assert_eq!(
        modes,
        [
            "sync",
            "async",
            "cluster",
            "pool-scale-full",
            "pool-scale-topk",
            "pool-scale-full",
            "pool-scale-topk"
        ]
    );
    let keys = |record: &Content| -> Vec<String> {
        let entries = record.as_map().expect("a record is an object");
        entries.iter().map(|(key, _)| key.clone()).collect()
    };
    for record in [&asynchronous, &cluster, &scale].into_iter().flatten() {
        assert_eq!(keys(record), keys(&sync[0]), "one top-level key set");
    }

    // What the exit code does not say: the closed loop served every request it was handed
    // (two passes with the cache on, the second from the cache), and a healthy loopback
    // fleet answered all of its own undegraded.
    assert_eq!(count(&asynchronous[0], "queries"), 48);
    assert!(counter(&asynchronous[0], "cache_hits") >= 24);
    let classes = asynchronous[0].field("classes").unwrap();
    assert_eq!(classes.as_seq().unwrap().len(), 2);
    assert_eq!(count(&cluster[0], "cluster_workers"), 2);
    assert_eq!(count(&cluster[0], "queries"), 24);
    assert_eq!(counter(&cluster[0], "degraded"), 0);
    assert_eq!(counter(&cluster[0], "maintenance_applied"), 8);
}

/// The guard `repro serve --cluster` holds its forked workers in: dropping it over a live
/// worker — what every early error return and panic of the driver does — kills and reaps
/// the process, so its port stops accepting.
#[test]
fn dropping_the_fleet_kills_a_live_worker() {
    let fleet = WorkerFleet::spawn(Path::new(REPRO), 1, 1).expect("the worker forks");
    let addr = fleet.addrs()[0];
    // A dropped connection returns the worker to `accept`: it is still alive after this.
    TcpStream::connect(addr).expect("a live worker accepts");
    drop(fleet);
    assert!(
        TcpStream::connect(addr).is_err(),
        "a killed and reaped worker's listener is closed"
    );
}
