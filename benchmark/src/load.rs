//! The load generators: closed-loop callers, closed-loop feedback sessions and the
//! open-loop session sender, all over a [`ServeRuntime`], each logging one [`Rec`] per
//! request.

use crate::gen::Zipf;
use crn_query::ast::Query;
use crn_serve::{ComputeBackend, EstimateSource, ServeRuntime, Ticket, TicketError};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Computed,
    Cached,
    Degraded,
    Refused,
    Expired,
    Failed,
}

impl Status {
    /// Answered at full fidelity.
    pub fn ok(self) -> bool {
        matches!(self, Status::Computed | Status::Cached)
    }
}

/// One request as the load generator saw it.  Times are ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// When the request was due: the session's scheduled arrival in the open loop, the
    /// send time in a closed loop.  Latency counts from here.
    pub due_ns: u64,
    /// Just before `submit`.
    pub sent_ns: u64,
    /// `submit` returned.
    pub submitted_ns: u64,
    /// The ticket's wake was observed (= `submitted_ns` for a refusal).
    pub done_ns: u64,
    /// `TicketOutcome::queue_wait`.
    pub queue_wait_ns: u64,
    /// `RequestTrace::accounted_us` when the runtime's obs layer is on, else 0.
    pub accounted_us: u64,
    pub status: Status,
}

impl Rec {
    pub fn latency_us(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e3
    }
}

/// One measured window's clock: a warm-up from `epoch`, then `[warm_end_ns, end_ns)`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub epoch: Instant,
    pub warm_end_ns: u64,
    pub end_ns: u64,
}

impl Window {
    /// A window starting now.
    pub fn starting_now(warm_up: Duration, measure: Duration) -> Window {
        Window {
            epoch: Instant::now(),
            warm_end_ns: warm_up.as_nanos() as u64,
            end_ns: (warm_up + measure).as_nanos() as u64,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The `index`-th of `parts` equal parts of the measured interval.
    pub fn part(&self, index: usize, parts: usize) -> (u64, u64) {
        let span = self.end_ns - self.warm_end_ns;
        let at = |i: usize| self.warm_end_ns + (span as u128 * i as u128 / parts as u128) as u64;
        (at(index), at(index + 1))
    }

    fn sleep_until(&self, at_ns: u64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }

    /// Runs `load` on its own thread while this thread reads the process CPU clock at the
    /// edges of the measured interval's `parts` equal parts; returns the load's result
    /// and the CPU seconds the whole process (load generator included) spent in each part.
    pub fn run<R: Send>(&self, parts: usize, load: impl FnOnce() -> R + Send) -> (R, Vec<f64>) {
        std::thread::scope(|scope| {
            let handle = scope.spawn(load);
            let mut readings = Vec::with_capacity(parts + 1);
            for index in 0..parts {
                self.sleep_until(self.part(index, parts).0);
                readings.push(crate::stats::process_cpu());
            }
            self.sleep_until(self.end_ns);
            readings.push(crate::stats::process_cpu());
            let result = handle.join().expect("the load generator does not panic");
            let cpu_s = readings
                .windows(2)
                .map(|pair| (pair[1] - pair[0]).as_secs_f64())
                .collect();
            (result, cpu_s)
        })
    }
}

/// Waits for `ticket` and completes the request's record; returns it with the estimate,
/// if the ticket resolved to one.
fn finish(window: &Window, mut rec: Rec, ticket: &Ticket) -> (Rec, Option<f64>) {
    let outcome = ticket.wait();
    rec.done_ns = window.now_ns();
    let estimate = match outcome {
        Ok(outcome) => {
            rec.queue_wait_ns = outcome.queue_wait.as_nanos() as u64;
            rec.accounted_us = outcome.trace.map_or(0, |trace| trace.accounted_us());
            rec.status = match outcome.source {
                EstimateSource::Computed => Status::Computed,
                EstimateSource::Cached => Status::Cached,
                EstimateSource::Degraded => Status::Degraded,
            };
            Some(outcome.estimate)
        }
        Err(TicketError::Expired) => {
            rec.status = Status::Expired;
            None
        }
        Err(TicketError::BatchFailed) => {
            rec.status = Status::Failed;
            None
        }
    };
    (rec, estimate)
}

/// The record of a request whose ticket (if it was admitted) has been waited for.
fn settle(window: &Window, rec: Rec, ticket: Option<Ticket>) -> Rec {
    match ticket {
        Some(ticket) => finish(window, rec, &ticket).0,
        None => rec,
    }
}

/// Submits `query` with plain `submit` (a refusal is a failure, not a retry).
fn send<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    window: &Window,
    caller: u64,
    due_ns: Option<u64>,
    query: &Query,
) -> (Rec, Option<Ticket>) {
    let sent_ns = window.now_ns();
    let ticket = runtime.submit(caller, query.clone());
    let submitted_ns = window.now_ns();
    let rec = Rec {
        due_ns: due_ns.unwrap_or(sent_ns),
        sent_ns,
        submitted_ns,
        done_ns: submitted_ns,
        queue_wait_ns: 0,
        accounted_us: 0,
        status: Status::Refused,
    };
    (rec, ticket.ok())
}

/// Serves `queries` through the runtime in bursts of 16 (an idle runtime refuses none)
/// and returns the estimates in order (the correctness pass), with one record per request.
pub fn serve_all<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    window: &Window,
    queries: &[Query],
) -> Result<(Vec<f64>, Vec<Rec>), String> {
    let mut estimates = Vec::with_capacity(queries.len());
    let mut recs = Vec::with_capacity(queries.len());
    for burst in queries.chunks(16) {
        let pending: Vec<_> = burst
            .iter()
            .map(|query| send(runtime, window, 0, None, query))
            .collect();
        for (rec, ticket) in pending {
            let ticket = ticket.ok_or("correctness pass: a probe query was refused")?;
            let (rec, estimate) = finish(window, rec, &ticket);
            if rec.status != Status::Computed {
                return Err(format!(
                    "correctness pass: a probe query ended {:?}",
                    rec.status
                ));
            }
            estimates.push(estimate.expect("a computed ticket carries an estimate"));
            recs.push(rec);
        }
    }
    Ok((estimates, recs))
}

/// Closed loop: one caller per visiting order, one request in flight each, until the
/// window ends.  Caller `i` walks `corpus` in `orders[i]`, wrapping around.
pub fn closed_loop<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    window: &Window,
    corpus: &[Query],
    orders: &[Vec<u32>],
) -> Vec<Rec> {
    std::thread::scope(|scope| {
        let callers: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(caller, order)| {
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    for &index in order.iter().cycle() {
                        if window.now_ns() >= window.end_ns {
                            break;
                        }
                        let (rec, ticket) = send(
                            runtime,
                            window,
                            caller as u64,
                            None,
                            &corpus[index as usize],
                        );
                        recs.push(settle(window, rec, ticket));
                    }
                    recs
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|caller| caller.join().expect("callers do not panic"))
            .collect()
    })
}

/// Queries per planner session burst (`open_sessions`, `planner_feedback`).
pub const BURST: usize = 8;

/// What the feedback sessions did besides reading.
pub struct FeedbackLog {
    pub recs: Vec<Rec>,
    /// `(hot index, truth)` of every feedback record the maintenance lane accepted.
    pub written: Vec<usize>,
    /// Feedback records the maintenance lane refused.
    pub write_refused: u64,
}

/// Closed-loop planner sessions with feedback: each of `seeds.len()` sessions submits a
/// burst of [`BURST`] queries drawn Zipf(`exponent`) from `hot` (repeats coalesce),
/// waits for all of them, and after every `write_every`-th burst reports the burst's
/// first query's true cardinality with `record_feedback`.
pub fn feedback_sessions<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    window: &Window,
    hot: &[Query],
    truths: &[u64],
    exponent: f64,
    write_every: usize,
    seeds: &[u64],
) -> FeedbackLog {
    std::thread::scope(|scope| {
        let sessions: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(caller, &seed)| {
                scope.spawn(move || {
                    let mut zipf = Zipf::new(hot.len(), exponent, seed);
                    let mut log = FeedbackLog {
                        recs: Vec::new(),
                        written: Vec::new(),
                        write_refused: 0,
                    };
                    let mut bursts = 0usize;
                    while window.now_ns() < window.end_ns {
                        let picks: [usize; BURST] = std::array::from_fn(|_| zipf.sample());
                        let pending: Vec<_> = picks
                            .iter()
                            .map(|&pick| send(runtime, window, caller as u64, None, &hot[pick]))
                            .collect();
                        for (rec, ticket) in pending {
                            log.recs.push(settle(window, rec, ticket));
                        }
                        bursts += 1;
                        if bursts.is_multiple_of(write_every) {
                            let pick = picks[0];
                            match runtime.record_feedback(hot[pick].clone(), truths[pick]) {
                                Ok(()) => log.written.push(pick),
                                Err(_) => log.write_refused += 1,
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        let mut merged = FeedbackLog {
            recs: Vec::new(),
            written: Vec::new(),
            write_refused: 0,
        };
        for session in sessions {
            let log = session.join().expect("sessions do not panic");
            merged.recs.extend(log.recs);
            merged.written.extend(log.written);
            merged.write_refused += log.write_refused;
        }
        merged
    })
}

/// What the open-loop generator did.
pub struct OpenLog {
    pub recs: Vec<Rec>,
    /// Per session: how late the sender was (send − due), ns.
    pub lag_ns: Vec<u64>,
    /// Requests outstanding (sent − answered) when each session was sent.
    pub outstanding: Vec<(u64, i64)>,
}

/// Open loop: one sender thread submits each session's burst of [`BURST`] consecutive
/// corpus queries at its scheduled arrival (never waiting for answers), one collector
/// thread waits the tickets in send order.  `arrivals_ns` are ns since `window.epoch`;
/// `starts[i]` is session `i`'s first corpus index.
pub fn open_sessions<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    window: &Window,
    corpus: &[Query],
    arrivals_ns: &[u64],
    starts: &[u32],
) -> OpenLog {
    let answered = std::sync::atomic::AtomicI64::new(0);
    let (to_collector, from_sender) = mpsc::channel::<(Rec, Ticket)>();
    std::thread::scope(|scope| {
        let answered = &answered;
        let collector = scope.spawn(move || {
            let mut recs = Vec::new();
            for (rec, ticket) in from_sender {
                recs.push(finish(window, rec, &ticket).0);
                answered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            recs
        });
        let mut refused = Vec::new();
        let mut lag_ns = Vec::with_capacity(arrivals_ns.len());
        let mut outstanding = Vec::with_capacity(arrivals_ns.len());
        let mut sent = 0i64;
        for (&due_ns, &start) in arrivals_ns.iter().zip(starts) {
            window.sleep_until(due_ns);
            lag_ns.push(window.now_ns().saturating_sub(due_ns));
            outstanding.push((
                due_ns,
                sent - answered.load(std::sync::atomic::Ordering::Relaxed),
            ));
            for offset in 0..BURST {
                let query = &corpus[(start as usize + offset) % corpus.len()];
                let (rec, ticket) = send(runtime, window, 0, Some(due_ns), query);
                match ticket {
                    Some(ticket) => {
                        sent += 1;
                        to_collector
                            .send((rec, ticket))
                            .expect("the collector outlives the sender");
                    }
                    None => refused.push(rec),
                }
            }
        }
        drop(to_collector);
        let mut recs = collector.join().expect("the collector does not panic");
        recs.extend(refused);
        OpenLog {
            recs,
            lag_ns,
            outstanding,
        }
    })
}
