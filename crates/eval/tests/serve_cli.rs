//! Drives the real `repro serve` binary on the tiny preset: the startup parity check over all
//! three backends — the in-process service, the async runtime over it, and the runtime over
//! two forked `cluster-worker` processes — plus its usage errors.  This is the only tier-1
//! coverage of cluster mode: forking `cluster-worker` processes needs the binary, which a
//! unit test's `current_exe()` is not.

use crn_eval::serve::WorkerFleet;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro_serve(flags: &str) -> Output {
    Command::new(REPRO)
        .args(["serve", "--preset", "tiny"])
        .args(flags.split_whitespace())
        .output()
        .expect("repro runs")
}

#[test]
fn every_backend_passes_the_startup_parity_check() {
    let output = repro_serve("--shards 4 --threads 2 --queries 24 --cluster 2");
    assert!(
        output.status.success(),
        "repro serve exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let backends: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("[serve] parity ("))
        .map(|rest| {
            rest.split_once("): 24 estimates bit-identical")
                .expect("a parity line")
                .0
        })
        .collect();
    assert_eq!(backends, ["service", "runtime", "cluster of 2"]);
}

#[test]
fn a_removed_flag_is_a_usage_error() {
    let output = repro_serve("--async");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown serve flag --async"), "{stderr}");
}

/// The guard `repro serve --cluster` holds its forked workers in: dropping it over a live
/// worker — what every early error return and panic of the check does — kills and reaps
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
