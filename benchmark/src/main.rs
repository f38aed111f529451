//! `crn-benchmark` — one workload per process, measured from outside through the
//! serving + training stack's public functions.  See `benchmark/README.md`.
//!
//! ```text
//! crn-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the human-readable table, then — as the last line of standard output — one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` carrying the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).  Exits non-zero when a
//! correctness check fails.

mod fixture;
mod gen;
mod layers;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// The command line.
pub struct Args {
    pub workload: String,
    /// Seed of the traffic (visiting orders, arrivals, Zipf draws, batches, training draws).
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics, span file, layer walk.
    pub trace: bool,
    /// Seed of the state (database, model, pool, probe, corpus, hot set).  The driver never
    /// passes it; it exists to show that no workload depends on artefacts of the default
    /// state.
    pub fixture_seed: u64,
    /// Self-test: flip one bit of the oracle so the parity tripwire must fire.
    pub flip_oracle_bit: bool,
}

const USAGE: &str = "usage: crn-benchmark --workload <point_closed|cluster_point|open_sessions|\
planner_feedback|bulk_sync|train_step> [--seed N] [--seconds S] [--trace 0|1] \
[--fixture-seed N] [--flip-oracle-bit]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 7.0,
        trace: false,
        fixture_seed: fixture::DEFAULT_FIXTURE_SEED,
        flip_oracle_bit: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{text:?} is not a whole number: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => args.seed = number(value("a number")?)?,
            "--fixture-seed" => args.fixture_seed = number(value("a number")?)?,
            "--seconds" => {
                let text = value("a number of seconds")?;
                args.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {text:?} is not in (0, 600]"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--flip-oracle-bit" => args.flip_oracle_bit = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::execute(&args) {
        Ok(outcome) => outcome,
        Err(problem) => {
            eprintln!("{}: {problem}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let table: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!(
        "seed {} · fixture seed {} · {} s measured · {} · {} threads available",
        args.seed,
        args.fixture_seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    print!("{}", report::render_table(&args.workload, table, &outcome));
    println!("{}", report::result_line(table, &outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
