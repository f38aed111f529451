//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all [--preset tiny|small|paper] [--threads N] [--deterministic] [--markdown <path>]
//! repro <experiment-id> [<experiment-id> ...] [--preset ...]
//! repro serve [--preset ...] [--shards N] [--threads N] [--queries N] [--cluster N]
//! repro cluster-worker [--threads N]
//! repro list
//! ```
//!
//! `--threads N` runs model training (CRN and MSCN epochs) on the data-parallel shard pool
//! with `N` worker threads, and uses the same count for ground-truth labelling;
//! `--deterministic` selects the canonical shard/reduction order so the trained models are
//! bit-identical for every `N` (see `crn_nn::parallel`).
//!
//! `repro serve` checks the serving stack instead of running an experiment: `--queries`
//! workload queries served through the `--shards`-way sharded service on `--threads`
//! workers, through the async runtime over it and, with `--cluster N`, through the runtime
//! over N forked `cluster-worker` processes must all be bit-identical to sequential
//! serving.  It prints one parity line per backend and exits 1 on the first violation.
//! `benchmark/` drives and times serving load.
//!
//! Experiment ids are the ones `repro list` prints (`ALL_EXPERIMENTS`: `table2`–`table15`,
//! `fig3`–`fig13`, `ablation_crn`, `ablation_final_fn`).  The output is the same set of
//! rows/series the paper reports; absolute numbers differ (different database instance and
//! scale), the *shape* is what should be compared.  `crates/eval/tests/tiny_reproduction.md`
//! is the tiny preset's `repro all --deterministic --markdown` report, pinned by a test.

use crn_eval::{
    check_serving_parity, run_experiment, ExperimentConfig, ExperimentContext, ServeCheckConfig,
    ALL_EXPERIMENTS,
};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if args[0] == "serve" {
        run_serve(&args[1..]);
        return;
    }
    if args[0] == "cluster-worker" {
        run_cluster_worker(&args[1..]);
        return;
    }

    let mut experiment_ids: Vec<String> = Vec::new();
    let mut preset = "small".to_string();
    let mut markdown_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut deterministic = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--preset" => {
                preset = iter.next().unwrap_or_else(|| {
                    eprintln!("--preset requires a value (tiny|small|paper)");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--threads requires a worker count");
                    std::process::exit(2);
                });
                threads = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("--threads requires a positive integer, got {value}");
                    std::process::exit(2);
                }));
            }
            "--deterministic" => deterministic = true,
            "--markdown" => {
                markdown_path = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--markdown requires a path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            other => experiment_ids.push(other.to_string()),
        }
    }

    let mut config = preset_config(&preset);
    if let Some(threads) = threads {
        config.train.parallel.threads = threads.max(1);
        // Ground-truth labelling shares the worker budget.
        config.threads = threads.max(1);
    }
    if deterministic {
        config.train.parallel.deterministic = true;
    }

    let ids: Vec<String> = if experiment_ids.iter().any(|id| id == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        experiment_ids
    };
    if ids.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str())
            && !matches!(
                id.as_str(),
                "fig5" | "fig6" | "fig9" | "fig10" | "fig11" | "fig12"
            )
        {
            eprintln!("unknown experiment id: {id} (use `repro list`)");
            std::process::exit(2);
        }
    }

    eprintln!("[repro] building experiment context (preset: {preset}) ...");
    let started = Instant::now();
    let ctx = ExperimentContext::build(config);
    eprintln!(
        "[repro] context ready in {:.1}s: {} training pairs, {} MSCN samples, pool of {} queries",
        started.elapsed().as_secs_f64(),
        ctx.containment_training.len(),
        ctx.cardinality_training.len(),
        ctx.pool.len()
    );

    let mut markdown = String::new();
    for id in &ids {
        let experiment_start = Instant::now();
        match run_experiment(&ctx, id) {
            Some(report) => {
                println!("{}", report.render_text());
                eprintln!(
                    "[repro] {id} finished in {:.1}s",
                    experiment_start.elapsed().as_secs_f64()
                );
                markdown.push_str(&report.render_markdown());
                markdown.push('\n');
            }
            None => eprintln!("[repro] skipping unknown experiment {id}"),
        }
    }

    if let Some(path) = markdown_path {
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        file.write_all(markdown.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("[repro] wrote markdown report to {path}");
    }
    eprintln!("[repro] done in {:.1}s", started.elapsed().as_secs_f64());
}

/// The experiment configuration of a `--preset` name; exits 2 on an unknown one.
fn preset_config(preset: &str) -> ExperimentConfig {
    match preset {
        "tiny" => ExperimentConfig::tiny(),
        "small" => ExperimentConfig::small(),
        "paper" => ExperimentConfig::paper(),
        other => {
            eprintln!("unknown preset {other}; expected tiny, small or paper");
            std::process::exit(2);
        }
    }
}

/// Parses and runs `repro serve ...` (see the module docs for the flags).
fn run_serve(args: &[String]) {
    let mut preset = "tiny".to_string();
    let mut config = ServeCheckConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let field = match flag.as_str() {
            "--preset" => {
                preset = flag_value(&mut iter, flag);
                continue;
            }
            "--shards" => &mut config.shards,
            "--threads" => &mut config.threads,
            "--queries" => &mut config.queries,
            "--cluster" => &mut config.cluster,
            "--help" | "-h" => {
                print_serve_usage();
                return;
            }
            other => {
                eprintln!("unknown serve flag {other}");
                print_serve_usage();
                std::process::exit(2);
            }
        };
        *field = parse_count(&flag_value(&mut iter, flag), flag);
    }
    let experiment = preset_config(&preset);
    eprintln!("[serve] building experiment context (preset: {preset}) ...");
    let ctx = ExperimentContext::build(experiment);
    match check_serving_parity(&ctx, &config) {
        Ok(lines) => println!("{}", lines.join("\n")),
        Err(violation) => {
            eprintln!("[serve] FATAL: {violation}");
            std::process::exit(1);
        }
    }
}

/// `repro cluster-worker [--threads N]` — the worker half of `repro serve --cluster`.
///
/// Binds an ephemeral loopback listener, announces it on stdout as
/// `CLUSTER_WORKER_PORT=<port>` (the coordinator parses exactly this line), then blocks
/// in the worker serve loop until the coordinator sends Shutdown.  Not meant to be run
/// by hand, but harmless if it is: with no coordinator it just waits for a connection.
fn run_cluster_worker(args: &[String]) {
    let mut threads = 1usize;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--threads" => threads = parse_count(&flag_value(&mut iter, flag), flag),
            other => {
                eprintln!("unknown cluster-worker flag {other}");
                std::process::exit(2);
            }
        }
    }
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("[cluster-worker] cannot bind a loopback listener: {e}");
        std::process::exit(1);
    });
    let port = listener
        .local_addr()
        .expect("a bound listener has an address")
        .port();
    println!("CLUSTER_WORKER_PORT={port}");
    std::io::stdout().flush().expect("announce the port");
    if let Err(e) = crn_cluster::run_worker(listener, threads) {
        eprintln!("[cluster-worker] serve loop failed: {e}");
        std::process::exit(1);
    }
}

const SERVE_USAGE: &str = "repro serve [--preset tiny|small|paper] [--shards N] [--threads N] \
                           [--queries N] [--cluster N]";

/// `repro serve --help`.
fn print_serve_usage() {
    eprintln!(
        "usage: {SERVE_USAGE}\n\
         \n\
         Serves --queries workload queries through the --shards-way sharded estimator \
         service on\n\
         --threads workers, through the async runtime over it and, with --cluster N, \
         through the\n\
         runtime over N forked worker processes, and checks every estimate bit for bit \
         against\n\
         sequential serving.  Prints one parity line per backend; exits 1 on the first \
         mismatched,\n\
         degraded or unresolved estimate.  benchmark/run.sh drives and times serving load."
    );
}

/// The value following `flag`; exits 2 when there is none.
fn flag_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    iter.next().cloned().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse::<usize>() {
        Ok(parsed) if parsed >= 1 => parsed,
        _ => {
            eprintln!("{flag} requires a positive integer, got {value}");
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: repro <all|list|experiment-id ...> [--preset tiny|small|paper] \
         [--threads N] [--deterministic] [--markdown <path>]"
    );
    eprintln!("       {SERVE_USAGE}");
    eprintln!("experiment ids: {}", ALL_EXPERIMENTS.join(", "));
}
