//! Snapshot of the whole reproduction on the tiny preset: `repro all --preset tiny
//! --deterministic` must print exactly the tables checked in as `tiny_reproduction.md`, at one
//! worker thread and at four.  The 19 experiments cover both models' training (including the
//! per-epoch histories of Figures 3/4 and the retraining sweeps), Cnt2Crd serving and every
//! baseline, so a change that moves a reproduced number at the four significant digits the
//! tables print fails here.  Exact bits stay the job of the training and serving tripwires.
//!
//! Wall-clock cells (those ending in `ms`: Table 14's "Prediction time" row and Table 15) are
//! dropped before the comparison.
//!
//! To regenerate after an *intended* change of the reproduced numbers:
//! `cargo test -p crn-eval --test tiny_reproduction -- --ignored write_tiny_reproduction_snapshot`
//! and review the diff of `tiny_reproduction.md`.

use std::path::PathBuf;
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The checked-in snapshot.
fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/tiny_reproduction.md")
}

/// Runs `repro all --preset tiny --deterministic` on `threads` workers and returns its
/// Markdown report without the wall-clock rows.
fn reproduce(threads: usize) -> String {
    let path = std::env::temp_dir().join(format!(
        "crn_tiny_reproduction_t{threads}_{}.md",
        std::process::id()
    ));
    let output = Command::new(REPRO)
        .args(["all", "--preset", "tiny", "--deterministic"])
        .args(["--threads", &threads.to_string()])
        .arg("--markdown")
        .arg(&path)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro all exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let markdown = std::fs::read_to_string(&path).expect("markdown written");
    std::fs::remove_file(&path).ok();
    without_wall_clock_rows(&markdown)
}

/// Drops every table row with a cell ending in `ms`.
fn without_wall_clock_rows(markdown: &str) -> String {
    markdown
        .lines()
        .filter(|line| {
            !(line.starts_with('|')
                && line
                    .split('|')
                    .skip(2)
                    .any(|cell| cell.trim().ends_with("ms")))
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn tiny_reproduction_matches_the_snapshot_at_one_and_four_threads() {
    let expected = std::fs::read_to_string(snapshot_path()).expect("snapshot checked in");
    assert_eq!(
        expected.matches("\n### ").count() + 1,
        19,
        "one section per experiment"
    );
    // Both runs at once: each is a separate process.
    let runs: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = [1usize, 4]
            .map(|threads| scope.spawn(move || (threads, reproduce(threads))))
            .into_iter()
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("run completes"))
            .collect()
    });
    for (threads, actual) in runs {
        if actual != expected {
            let first = actual
                .lines()
                .zip(expected.lines())
                .position(|(a, e)| a != e)
                .unwrap_or(actual.lines().count().min(expected.lines().count()));
            panic!(
                "threads = {threads}: the tiny reproduction moved; first differing line {}:\n  \
                 actual:   {:?}\n  snapshot: {:?}",
                first + 1,
                actual.lines().nth(first),
                expected.lines().nth(first)
            );
        }
    }
}

/// Rewrites the snapshot (see the module docs).
#[test]
#[ignore = "regeneration helper, not a check"]
fn write_tiny_reproduction_snapshot() {
    std::fs::write(snapshot_path(), reproduce(1)).expect("snapshot written");
}
