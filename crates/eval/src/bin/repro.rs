//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro all [--preset tiny|small|paper] [--threads N] [--deterministic] [--markdown <path>]
//! repro <experiment-id> [<experiment-id> ...] [--preset ...]
//! repro serve [--preset ...] [--shards N] [--threads N] [--queries N] [--batch N]
//!             [--async] [--batch-window-us N] [--queue-depth N] [--callers N]
//!             [--class-window-us N] [--class-weights A:B] [--cache-entries N]
//!             [--deadline-us N] [--batch-deadline-us N]
//!             [--checkpoint-dir D] [--checkpoint-every N]
//!             [--top-k K] [--pool-cap N] [--pool-scale a,b,...]
//!             [--q-error-budget F] [--bench-json <path>]
//!             [--metrics-jsonl <path>] [--metrics-interval-ms N]
//!             [--cluster N] [--worker-timeout-us N] [--compact-every N]
//! repro cluster-worker [--threads N]
//! repro list
//! ```
//!
//! `--threads N` runs model training (CRN and MSCN epochs) on the data-parallel shard pool
//! with `N` worker threads, and uses the same count for ground-truth labelling;
//! `--deterministic` selects the canonical shard/reduction order so the trained models are
//! bit-identical for every `N` (see `crn_nn::parallel`).
//!
//! `repro serve` drives the serving stack instead of an experiment: the queries pool is
//! sharded `--shards` ways behind an immutable snapshot and served on the persistent
//! `--threads`-worker pool — synchronously in `--batch`-sized `serve` calls, or through
//! the async request-queue runtime (`--async`) with a closed-loop `--callers`-thread load
//! generator, a `--batch-window-us` cross-call batching window and a `--queue-depth`
//! admission bound; `--cluster N` puts N forked worker processes behind that runtime, and
//! `--pool-scale` runs the full-scan vs top-K sweep over synthesized pools.  The first batch
//! is verified bit-for-bit against sequential serving and any violated gate exits non-zero
//! (`repro serve --help` has the parameter-selection guidance).
//!
//! Experiment ids are the ones `repro list` prints (`ALL_EXPERIMENTS`: `table2`–`table15`,
//! `fig3`–`fig13`, `ablation_crn`, `ablation_final_fn`).  The output is the same set of
//! rows/series the paper reports; absolute numbers differ (different database instance and
//! scale), the *shape* is what should be compared.  `crates/eval/tests/tiny_reproduction.md`
//! is the tiny preset's `repro all --deterministic --markdown` report, pinned by a test.

use crn_eval::{
    run_experiment, run_serve_demo, ExperimentConfig, ExperimentContext, ServeDemoConfig,
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

    let mut config = match preset.as_str() {
        "tiny" => ExperimentConfig::tiny(),
        "small" => ExperimentConfig::small(),
        "paper" => ExperimentConfig::paper(),
        other => {
            eprintln!("unknown preset {other}; expected tiny, small or paper");
            std::process::exit(2);
        }
    };
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

/// Parses and runs `repro serve ...` (see the module docs for the flags).
fn run_serve(args: &[String]) {
    let mut preset = "tiny".to_string();
    let mut config = ServeDemoConfig::new(ExperimentConfig::tiny());
    let mut iter = args.iter();
    let flag_value = |iter: &mut std::slice::Iter<'_, String>, flag: &str| -> String {
        iter.next().cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--preset" => preset = flag_value(&mut iter, "--preset"),
            "--shards" => {
                config.shards = parse_count(&flag_value(&mut iter, "--shards"), "--shards")
            }
            "--threads" => {
                config.threads = parse_count(&flag_value(&mut iter, "--threads"), "--threads")
            }
            "--queries" => {
                config.queries = parse_count(&flag_value(&mut iter, "--queries"), "--queries")
            }
            "--batch" => config.batch = parse_count(&flag_value(&mut iter, "--batch"), "--batch"),
            "--async" => config.async_mode = true,
            "--batch-window-us" => {
                // Zero is legitimate: it means "serve whatever has accumulated".
                let value = flag_value(&mut iter, "--batch-window-us");
                config.batch_window_us = value.parse().unwrap_or_else(|_| {
                    eprintln!("--batch-window-us requires a non-negative integer, got {value}");
                    std::process::exit(2);
                });
            }
            "--queue-depth" => {
                config.queue_depth =
                    parse_count(&flag_value(&mut iter, "--queue-depth"), "--queue-depth")
            }
            "--callers" => {
                config.callers = parse_count(&flag_value(&mut iter, "--callers"), "--callers")
            }
            "--bench-json" => {
                config.bench_json = Some(flag_value(&mut iter, "--bench-json"));
            }
            "--deadline-us" => {
                config.deadline_us = Some(parse_count(
                    &flag_value(&mut iter, "--deadline-us"),
                    "--deadline-us",
                ) as u64);
            }
            "--checkpoint-dir" => {
                config.checkpoint_dir = Some(flag_value(&mut iter, "--checkpoint-dir"));
            }
            "--checkpoint-every" => {
                // Zero is legitimate: the directory is still restored from, cadence
                // writes are just off.
                let value = flag_value(&mut iter, "--checkpoint-every");
                config.checkpoint_every = value.parse().unwrap_or_else(|_| {
                    eprintln!("--checkpoint-every requires a non-negative integer, got {value}");
                    std::process::exit(2);
                });
            }
            "--class-window-us" => {
                // Zero is legitimate: the batch class then inherits the base
                // --batch-window-us window (classes still admit separately).
                let value = flag_value(&mut iter, "--class-window-us");
                config.class_window_us = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("--class-window-us requires a non-negative integer, got {value}");
                    std::process::exit(2);
                }));
            }
            "--class-weights" => {
                let value = flag_value(&mut iter, "--class-weights");
                let parsed = value.split_once(':').and_then(|(interactive, batch)| {
                    Some((
                        interactive.trim().parse::<u32>().ok()?,
                        batch.trim().parse::<u32>().ok()?,
                    ))
                });
                config.class_weights = match parsed {
                    Some(weights) if weights != (0, 0) => Some(weights),
                    _ => {
                        eprintln!(
                            "--class-weights requires INTERACTIVE:BATCH with at least one \
                             non-zero weight (e.g. 3:1), got {value}"
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--cache-entries" => {
                // Zero is legitimate: it disables the estimate cache, restoring the
                // cache-free serving path exactly.
                let value = flag_value(&mut iter, "--cache-entries");
                config.cache_entries = value.parse().unwrap_or_else(|_| {
                    eprintln!("--cache-entries requires a non-negative integer, got {value}");
                    std::process::exit(2);
                });
            }
            "--top-k" => {
                // Zero is legitimate: it keeps the full-pool path, bit-identical to
                // the pre-pool-tier serving semantics.
                let value = flag_value(&mut iter, "--top-k");
                config.top_k = value.parse().unwrap_or_else(|_| {
                    eprintln!("--top-k requires a non-negative integer, got {value}");
                    std::process::exit(2);
                });
            }
            "--pool-cap" => {
                // Zero is legitimate: it means unbounded (no eviction on insert).
                let value = flag_value(&mut iter, "--pool-cap");
                config.pool_cap = value.parse().unwrap_or_else(|_| {
                    eprintln!("--pool-cap requires a non-negative integer, got {value}");
                    std::process::exit(2);
                });
            }
            "--q-error-budget" => {
                let value = flag_value(&mut iter, "--q-error-budget");
                config.q_error_budget = match value.parse::<f64>() {
                    Ok(parsed) if parsed >= 1.0 => parsed,
                    _ => {
                        eprintln!("--q-error-budget requires a factor >= 1.0, got {value}");
                        std::process::exit(2);
                    }
                };
            }
            "--pool-scale" => {
                let value = flag_value(&mut iter, "--pool-scale");
                let sizes: Option<Vec<usize>> = value
                    .split(',')
                    .map(|size| size.trim().parse::<usize>().ok().filter(|&s| s >= 1))
                    .collect();
                config.pool_scale = match sizes {
                    Some(sizes) if !sizes.is_empty() => Some(sizes),
                    _ => {
                        eprintln!(
                            "--pool-scale requires comma-separated positive pool sizes \
                             (e.g. 100000,1000000), got {value}"
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--batch-deadline-us" => {
                config.batch_deadline_us = Some(parse_count(
                    &flag_value(&mut iter, "--batch-deadline-us"),
                    "--batch-deadline-us",
                ) as u64);
            }
            "--metrics-jsonl" => {
                config.metrics_jsonl = Some(flag_value(&mut iter, "--metrics-jsonl"));
            }
            "--metrics-interval-ms" => {
                config.metrics_interval_ms = parse_count(
                    &flag_value(&mut iter, "--metrics-interval-ms"),
                    "--metrics-interval-ms",
                ) as u64;
            }
            "--cluster" => {
                config.cluster = parse_count(&flag_value(&mut iter, "--cluster"), "--cluster");
            }
            "--worker-timeout-us" => {
                config.worker_timeout_us = parse_count(
                    &flag_value(&mut iter, "--worker-timeout-us"),
                    "--worker-timeout-us",
                ) as u64;
            }
            "--compact-every" => {
                // Zero is legitimate: it disables periodic compaction (the default).
                let value = flag_value(&mut iter, "--compact-every");
                config.compact_every = value.parse().unwrap_or_else(|_| {
                    eprintln!("--compact-every requires a non-negative integer, got {value}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                print_serve_usage();
                return;
            }
            other => {
                eprintln!("unknown serve flag {other}");
                std::process::exit(2);
            }
        }
    }
    if config.cluster > 0 && config.top_k > 0 {
        // Top-K ranks a query's anchors across all shards; cluster workers scan
        // shard-locally, so the coordinator refuses the combination at connect time.
        eprintln!("--cluster cannot be combined with --top-k (use --top-k 0)");
        std::process::exit(2);
    }
    config.experiment = match preset.as_str() {
        "tiny" => ExperimentConfig::tiny(),
        "small" => ExperimentConfig::small(),
        "paper" => ExperimentConfig::paper(),
        other => {
            eprintln!("unknown preset {other}; expected tiny, small or paper");
            std::process::exit(2);
        }
    };
    config.preset_label = preset;
    match run_serve_demo(&config) {
        Ok(report) => println!("{report}"),
        Err(violation) => {
            // A violated gate (bit-parity first of all) must fail the CI smoke loudly,
            // not scroll past in a log.
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
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let value = iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--threads requires a value");
                    std::process::exit(2);
                });
                threads = parse_count(&value, "--threads");
            }
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

/// `repro serve --help`: flags plus the parameter-selection guidance.
fn print_serve_usage() {
    eprintln!(
        "usage: repro serve [--preset tiny|small|paper] [--shards N] [--threads N] \
         [--queries N] [--batch N]\n\
         \x20                  [--async] [--batch-window-us N] [--queue-depth N] \
         [--callers N] [--bench-json <path>]\n\
         \x20                  [--class-window-us N] [--class-weights A:B] \
         [--cache-entries N]\n\
         \x20                  [--deadline-us N] [--batch-deadline-us N] \
         [--checkpoint-dir D] [--checkpoint-every N]\n\
         \x20                  [--top-k K] [--pool-cap N] [--pool-scale a,b,...] \
         [--q-error-budget F]\n\
         \x20                  [--metrics-jsonl <path>] [--metrics-interval-ms N]\n\
         \x20                  [--cluster N] [--worker-timeout-us N] \
         [--compact-every N]\n\
         \n\
         Serves a synthetic workload through the sharded estimator service — \
         synchronously in --batch-sized\n\
         serve calls, or with --async through the request-queue runtime (bounded \
         admission, cross-call\n\
         batching windows, closed-loop --callers load generator, online pool \
         maintenance).  The first batch\n\
         is always verified bit-for-bit against sequential serving; a violation exits \
         non-zero.\n\
         Model refresh, fault injection and crash-restore are not driven from here: \
         `cargo test -p crn-online\n\
         -p crn-serve` pins them.\n\
         \n\
         Choosing --shards: shards bound the per-work-item anchor batch.  Use 1 on a \
         single core (anything\n\
         more is pure merge overhead); on multi-core hosts pick \
         min(FROM-clause bucket size / ~32, worker\n\
         threads) — more shards than threads only adds merge overhead, fewer starves \
         the workers when a\n\
         batch collapses into few FROM-clause groups.\n\
         \n\
         Choosing --threads: the persistent worker pool serving every batch.  Physical \
         cores (or slightly\n\
         below) for a dedicated serving host; 1 reproduces the sequential path with \
         zero thread overhead.\n\
         \n\
         Choosing --batch-window-us (async): the tail-latency budget you are willing to \
         spend on batching.\n\
         0 fuses only what has already queued (lowest latency, least fusion); ~100-500us \
         fuses bursts of\n\
         concurrent callers (the sweet spot at >=4 callers); multi-ms windows maximize \
         fusion for\n\
         throughput-bound replay.  Estimates are bit-identical at every setting — the \
         window only moves\n\
         the latency/throughput trade-off.\n\
         \n\
         Choosing --queue-depth (async): the load-shedding bound.  ~2x (callers x \
         batch) absorbs bursts\n\
         without unbounded queueing; depth 1 degenerates to one-request batches \
         (parity-testing floor).\n\
         Per-caller fairness quotas are queue-depth / callers.\n\
         \n\
         Choosing --class-window-us (async): the Batch-class batching window.  Setting \
         it (or\n\
         --class-weights) switches the load generator to mixed traffic — odd-indexed \
         callers register\n\
         Batch-class — and each class closes batches on its own window: keep the base \
         --batch-window-us\n\
         at the interactive tail budget (~100-500us) and give the batch class \
         multi-ms (2000-20000)\n\
         so replay/backfill traffic fuses maximally without ever holding an \
         interactive request; the\n\
         scheduler always closes the most urgent class first.  0 makes the batch \
         class inherit the base\n\
         window (admission still per class).  Estimates stay bit-identical at every \
         setting.\n\
         \n\
         Choosing --class-weights (async): INTERACTIVE:BATCH shares of the queue \
         depth, the\n\
         anti-starvation bound — a class may only occupy ceil(depth x weight / total) \
         slots, so a batch\n\
         flood can never fill the queue against interactive traffic.  3:1 suits \
         latency-first serving;\n\
         omit the flag to let every class use the whole queue (the single-class \
         behavior).  Every class\n\
         always keeps at least one admissible slot.\n\
         \n\
         Choosing --cache-entries (async): the cross-window estimate cache, keyed on \
         (canonical query\n\
         hash, pool version, model version) so maintenance upserts and model \
         hot-swaps invalidate\n\
         exactly — hits are bit-identical to recomputing, only the compute is \
         skipped.  Size it to\n\
         2-4x the hot working set of distinct queries; repeated-query workloads then \
         serve mostly at\n\
         memory latency.  0 disables the cache and restores the cache-free path \
         exactly.  With the\n\
         cache on, the demo drives the workload twice so the hit path is measured \
         (per-class p50/p99\n\
         and the cache counters land in --bench-json).\n\
         \n\
         Choosing --deadline-us (async): the per-request staleness bound.  A queued \
         request past its\n\
         deadline is shed with an Expired resolution instead of executing — set it to \
         the point where a\n\
         late estimate is worthless to the optimizer (a few ms for interactive \
         planning); off by default\n\
         because expiry under overload is load-shedding policy, not a safety \
         requirement.\n\
         \n\
         Choosing --batch-deadline-us (async): a Batch-class override of --deadline-us. \
         Batch traffic\n\
         rides multi-ms batching windows by design, so a tight interactive deadline \
         would shed it\n\
         spuriously — give batch ~10-50x the interactive deadline (or leave unset to \
         inherit\n\
         --deadline-us for every class).\n\
         \n\
         Choosing --top-k: per-FROM-bucket anchor selection ahead of the containment \
         heads.  0 (default)\n\
         scores nothing and runs model inference over the whole bucket — bit-identical \
         to pre-pool-tier\n\
         serving.  K>0 ranks the bucket by cheap featurization-space similarity \
         (shared joins and\n\
         predicates) and only the K most similar anchors reach the model: per-query \
         cost drops from\n\
         O(bucket) to O(K) inferences + O(bucket) integer scoring.  16-64 holds \
         median q-error at\n\
         million-entry scale (the --pool-scale gates verify this); below ~8 the \
         median over anchors\n\
         thins and quality degrades.  Ranking is deterministic at every shard/thread \
         count.\n\
         \n\
         Choosing --pool-cap: the bounded-capacity pool tier.  Maintenance inserts \
         past the cap evict\n\
         the lowest-retention-weight anchors (weights track feedback q-errors: \
         well-calibrated anchors\n\
         stay, persistently-wrong ones go).  Size it to the memory budget divided by \
         ~entry size;\n\
         0 = unbounded (the default, exactly the pre-cap behavior).\n\
         \n\
         Choosing --pool-scale: the production-scale latency sweep.  Comma-separated \
         pool sizes\n\
         (e.g. 100000,1000000) are synthesized from the preset's pool by literal \
         perturbation; each size\n\
         serves the workload through the full-pool arm and the top-K arm \
         (K = --top-k, default 32),\n\
         recording per-size p50/p99 curves, median q-errors and anchors scored per \
         query into\n\
         --bench-json.  The run exits non-zero unless (a) the top-K arm's median q-error \
         stays within\n\
         --q-error-budget of the full arm at every size, (b) the anchors top-K scores per \
         query grow\n\
         sublinearly across sizes, and (c) top-K scores fewer than the full arm at the \
         largest size;\n\
         the p50s are reported, not gated (two single-run p50s on a shared host).\n\
         \n\
         Choosing --q-error-budget: the estimator-quality parity bound of the sweep, \
         as a factor\n\
         (1.1 = top-K may cost at most 10% median-q-error headroom).  Tighten toward \
         1.0 to demand\n\
         near-exactness (larger K needed); loosen above ~1.5 only for latency-first \
         deployments.\n\
         \n\
         Choosing --checkpoint-every: applied maintenance records between checkpoint \
         writes to\n\
         --checkpoint-dir (atomic temp-file + rename, checksum-verified manifest; \
         restored on startup).\n\
         The cadence bounds replayable loss: ~the records you can afford to re-learn \
         after a crash.\n\
         Writes serialize the full pool + model, so cadences below ~64 records tax the \
         maintenance lane\n\
         on busy feeds; 0 disables cadence writes.\n\
         \n\
         Choosing --metrics-jsonl: live observability export.  The serve demos always \
         run with the\n\
         crn-obs layer enabled (per-request spans, per-class log2 latency histograms, \
         a bounded event\n\
         journal of batch closes / restarts / gate decisions / checkpoints / \
         evictions); this flag\n\
         streams periodic JSONL snapshots of every counter, gauge and histogram — \
         plus journal events\n\
         as they happen — to <path>, and prints the end-of-run metrics table.  Each \
         line is one JSON\n\
         object (kind: snapshot|event), safe to tail.  Omit the flag and nothing is \
         exported.\n\
         \n\
         Choosing --metrics-interval-ms: the snapshot cadence of --metrics-jsonl \
         (default 50).  Tens of\n\
         ms suits short demo runs; hundreds of ms suits long soaks where per-snapshot \
         volume matters.\n\
         The emitter is a single background thread reading lock-light shards — \
         cadence does not perturb\n\
         the serving path.\n\
         \n\
         Choosing --cluster: cross-process distributed serving.  N worker processes \
         are forked (this\n\
         binary in cluster-worker mode), each owning the pool shards s with \
         s mod N == its fleet index;\n\
         the coordinator scatters each batch's FROM-clause groups to the owning \
         workers, gathers the\n\
         per-shard entry lists and merges them in canonical shard order — estimates \
         are bit-identical\n\
         to single-process serving at every worker count, and the first batch is \
         verified so at startup\n\
         (non-zero exit on violation).  Use --shards >= N so every worker owns at \
         least one shard; N\n\
         up to the physical cores left after --threads per worker.  A lost worker \
         degrades only its own\n\
         shards (loudly: counted, journaled, Degraded-tagged) and is re-dialed with \
         bounded backoff.\n\
         Not combinable with --top-k: the ranking is pool-wide, workers scan \
         shard-locally.\n\
         \n\
         Choosing --worker-timeout-us (cluster): the per-worker gather budget.  A \
         worker that misses it\n\
         is declared lost and its queries degrade to the coordinator-local fallback \
         for that batch —\n\
         never a hang, never a silently-wrong merge.  Set it well above the p99 \
         single-process batch\n\
         latency (10-50x; the default 2s suits CI-sized demos); too tight turns \
         ordinary scheduling\n\
         jitter into spurious degradation.\n\
         \n\
         Choosing --compact-every: applied maintenance records between pool \
         compactions on the\n\
         maintenance lane.  Compaction rebuilds eviction-fragmented shards off the \
         critical path (the\n\
         serving snapshot swaps atomically); with --cluster the compacted shards are \
         re-shipped to their\n\
         owners.  ~4-16x the eviction churn per window keeps fragmentation bounded \
         without busywork;\n\
         0 (default) disables periodic compaction."
    );
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
    eprintln!(
        "       repro serve [--preset tiny|small|paper] [--shards N] [--threads N] \
         [--queries N] [--batch N] [--async] [--batch-window-us N] [--queue-depth N] \
         [--callers N] [--class-window-us N] [--class-weights A:B] [--cache-entries N] \
         [--deadline-us N] [--batch-deadline-us N] [--checkpoint-dir D] \
         [--checkpoint-every N] [--top-k K] [--pool-cap N] \
         [--pool-scale a,b,...] [--q-error-budget F] [--bench-json <path>] \
         [--metrics-jsonl <path>] [--metrics-interval-ms N] [--cluster N] \
         [--worker-timeout-us N] [--compact-every N]  \
         (see `repro serve --help`)"
    );
    eprintln!("experiment ids: {}", ALL_EXPERIMENTS.join(", "));
}
