//! The four workloads and their end-to-end metrics.
//!
//! Each run sets the workload up several times (the median is
//! `setup_s`), then drives the last set-up for the run length and
//! reports the metrics every workload shares: set-up time, peak memory,
//! throughput, median and p90 latency and CPU per request. The load
//! generator is this one process with at most two threads and two
//! connections; the program under test receives only the generated
//! request lines or program files.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::daemon::{Conn, Daemon};
use crate::json::{self, Json};
use crate::programs::{self, check_reply, log_spaced, Oracle, Program, Reply};
use crate::rng::Rng;
use crate::stats::{percentile, MIN_BEYOND};
use crate::sys;
use crate::trace::{self, TraceInput};

pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-mixed", "engine-wide", "batch-corpus"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Latency samples a run collects at least, so that its p90 has ten
/// samples beyond it; a run outlasts `--seconds` until it has them.
pub const MIN_SAMPLES: usize = 10 * MIN_BEYOND;

/// `serve-mixed` offered load in requests per second, fixed once: at the
/// commit that introduced the benchmark the daemon spent about a quarter
/// of one core on it, so most requests found their connection idle and
/// a miss still held up the requests queued behind it.
const MIXED_RATE: f64 = 120.0;

/// Everything a workload run needs.
pub struct Ctx {
    pub mpl: PathBuf,
    /// Where traces and results are written.
    pub work: PathBuf,
    /// This run's own scratch directory, removed when the run ends.
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    pub oracle: Oracle,
}

impl Ctx {
    fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }

    fn socket(&self, label: &str) -> PathBuf {
        self.scratch.join(format!("{label}.sock"))
    }

    fn rng(&self, purpose: u64) -> Rng {
        Rng::new(self.seed, purpose)
    }

    /// A seeded, positive payload salt: generated programs of a run take
    /// `salt + i`, so their text (and cache key) changes with the seed
    /// while their answers and sizes do not.
    fn salt(&self, purpose: u64) -> usize {
        1 + self.rng(purpose).below(1 << 20)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Requests sent, requests that failed, and answers that were wrong,
/// over everything a run sends (set-up, timed phase and trace).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, reply: Reply) {
        self.attempted += 1;
        match reply {
            Reply::Correct => {}
            Reply::Failed(note) => {
                self.failed += 1;
                self.note(note);
            }
            Reply::Wrong(note) => {
                self.failed += 1;
                self.wrong += 1;
                self.note(note);
            }
        }
    }

    pub fn note(&mut self, note: String) {
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for note in other.notes {
            self.note(note);
        }
    }
}

/// A finished run.
pub struct Outcome {
    /// The metrics `BENCHMARK.json` lists as end to end.
    pub end_to_end: Vec<Metric>,
    /// Metrics printed and saved, but not listed in `BENCHMARK.json`.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<Metric>,
}

/// Runs one workload; the tally covers every request it sent.
pub fn run(workload: &str, ctx: &Ctx) -> Result<(Outcome, Tally), String> {
    let mut tally = Tally::default();
    let outcome = match workload {
        "serve-hot" => serve_hot(ctx, &mut tally),
        "serve-mixed" => serve_mixed(ctx, &mut tally),
        "engine-wide" => engine_wide(ctx, &mut tally),
        "batch-corpus" => batch_corpus(ctx, &mut tally),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }?;
    Ok((outcome, tally))
}

/// An `analyze` request line, newline included.
fn analyze_line(name: &str, source: &str) -> String {
    format!(
        "{{\"op\":\"analyze\",\"name\":\"{}\",\"program\":\"{}\"}}\n",
        json::escape(name),
        json::escape(source)
    )
}

/// Simulator cross-check of every generated program a run uses; a
/// wrong constructed answer would make every check against it
/// meaningless, so it counts as a wrong output.
fn cross_check(programs: &[Program], tally: &mut Tally) {
    for program in programs {
        if let Err(e) = programs::cross_check(program) {
            tally.wrong += 1;
            tally.failed += 1;
            tally.note(e);
        }
    }
}

/// Checks replies, remembering each program's first correct reply so
/// that a repeat costs a byte comparison in the timed phase.
struct Verifier<'a> {
    programs: &'a [Program],
    correct: Vec<OnceLock<String>>,
}

impl<'a> Verifier<'a> {
    fn new(programs: &'a [Program]) -> Verifier<'a> {
        Verifier {
            programs,
            correct: programs.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    fn check(&self, i: usize, reply: &str) -> Reply {
        if self.correct[i].get().is_some_and(|c| c == reply) {
            return Reply::Correct;
        }
        let program = &self.programs[i];
        let verdict = check_reply(program, Some(&program.name), reply);
        if verdict == Reply::Correct {
            let _ = self.correct[i].set(reply.to_owned());
        }
        verdict
    }
}

/// Latency samples of one timed phase.
#[derive(Default)]
struct Samples {
    /// (latency in ms, request class) per completed request.
    latency_ms: Vec<(f64, Class)>,
    /// How late each request was sent: after its due time (open loop),
    /// after the previous reply (closed loop) or after the previous
    /// invocation ended (batch), in ms.
    late_ms: Vec<f64>,
    /// Start of the timed phase to its last reply.
    wall: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Repeat,
    Fresh,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.wall = self.wall.max(other.wall);
    }

    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.latency_ms
            .iter()
            .filter(|(_, c)| class.is_none_or(|want| *c == want))
            .map(|(l, _)| *l)
            .collect()
    }
}

/// The metrics every workload reports. `completed` counts requests
/// (programs, for the batch CLI).
///
/// Only set-up time and peak memory are end to end in `BENCHMARK.json`,
/// in its order: they carry its bounds. Throughput, latency and CPU per
/// request are printed and saved as well, for `compare`, but carry no
/// bound, because on the 2-vCPU VMs the benchmark was made on they did
/// not repeat closely enough for one (see the README). The p99 is
/// reported where a run has the samples for it.
fn measured(
    setups: &[f64],
    samples: &Samples,
    completed: u64,
    cpu_s: f64,
    peak_rss_mb: f64,
) -> Result<Outcome, String> {
    let all = samples.latencies(None);
    let pct = |p: f64| {
        percentile(&all, p)
            .ok_or_else(|| format!("{} latency samples are too few for p{p}", all.len()))
    };
    let setup_s = crate::stats::median(setups).ok_or("no set-up was timed")?;
    let mut extra = vec![
        metric(
            "throughput_rps",
            completed as f64 / samples.wall.as_secs_f64(),
            "1/s",
        ),
        metric("latency_p50_ms", pct(50.0)?, "ms"),
        metric("latency_p90_ms", pct(90.0)?, "ms"),
        metric(
            "cpu_ms_per_request",
            cpu_s * 1e3 / completed.max(1) as f64,
            "ms",
        ),
    ];
    extra.extend(
        pct(99.0)
            .ok()
            .map(|p99| metric("latency_p99_ms", p99, "ms")),
    );
    Ok(Outcome {
        end_to_end: vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        extra,
        layer: Vec::new(),
    })
}

/// Load-generator validity metrics: how late it ran and how much it
/// sent.
fn loadgen_metrics(samples: &Samples) -> Vec<Metric> {
    let late = &samples.late_ms;
    let late_p99 = percentile(late, 99.0)
        .or_else(|| late.iter().copied().reduce(f64::max))
        .unwrap_or(0.0);
    vec![
        metric("loadgen.late_ms_p99", late_p99, "ms"),
        metric("loadgen.sent", samples.latency_ms.len() as f64, "count"),
    ]
}

/// Cache, flight and journal counters from the `stats` delta between
/// two points of a daemon's life.
pub fn counter_metrics(before: &Json, after: &Json) -> Vec<Metric> {
    let delta = |key: &str| after.count(key).saturating_sub(before.count(key)) as f64;
    let (hits, misses) = (delta("hits"), delta("misses"));
    vec![
        metric("cache.hits", hits, "count"),
        metric("cache.misses", misses, "count"),
        metric("cache.evictions", delta("evictions"), "count"),
        metric(
            "cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("service.coalesced", delta("coalesced"), "count"),
        metric("persist.replayed", after.count("replayed") as f64, "count"),
        metric("persist.journal_appends", delta("journal_appends"), "count"),
        metric("persist.compactions", delta("compactions"), "count"),
    ]
}

/// Journal writes that failed are failures of the run. (Refused or
/// invalid requests already count, through the replies they got.)
fn count_journal_errors(before: &Json, after: &Json, tally: &mut Tally) {
    let n = after
        .count("journal_errors")
        .saturating_sub(before.count("journal_errors"));
    if n > 0 {
        tally.failed += n;
        tally.note(format!("daemon counted {n} journal errors"));
    }
}

/// Sends `order` once, split between the connections, each waiting for
/// every reply before its next request.
fn closed_pass(
    conns: &mut [Conn],
    order: &[usize],
    lines: &[String],
    verifier: &Verifier,
) -> Result<Tally, String> {
    let n = conns.len();
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || -> Result<Tally, String> {
                    let mut tally = Tally::default();
                    for &i in order.iter().skip(c).step_by(n) {
                        let reply = conn.call(&lines[i])?;
                        tally.record(verifier.check(i, &reply));
                    }
                    Ok(tally)
                })
            })
            .collect();
        let mut tally = Tally::default();
        for worker in workers {
            tally.merge(worker.join().expect("load thread panicked")?);
        }
        Ok(tally)
    })
}

/// Closed loop: each connection sends its own permutation in whole
/// passes, one request at a time, until the run length has passed and
/// together they hold [`MIN_SAMPLES`] samples.
fn closed_loop(
    conns: &mut [Conn],
    perms: &[Vec<usize>],
    lines: &[String],
    verifier: &Verifier,
    seconds: f64,
) -> Result<(Samples, Tally), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn = MIN_SAMPLES.div_ceil(conns.len());
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(perms)
            .map(|(conn, perm)| {
                s.spawn(move || -> Result<(Samples, Tally), String> {
                    let mut samples = Samples::default();
                    let mut tally = Tally::default();
                    let mut last_reply: Option<Instant> = None;
                    loop {
                        for &i in perm {
                            let sent = Instant::now();
                            if let Some(last) = last_reply {
                                samples.late_ms.push(ms(sent - last));
                            }
                            let reply = conn.call(&lines[i])?;
                            let done = Instant::now();
                            samples.latency_ms.push((ms(done - sent), Class::Repeat));
                            last_reply = Some(done);
                            tally.record(verifier.check(i, &reply));
                        }
                        if Instant::now() >= deadline && samples.latency_ms.len() >= per_conn {
                            break;
                        }
                    }
                    samples.wall = start.elapsed();
                    Ok((samples, tally))
                })
            })
            .collect();
        let mut samples = Samples::default();
        let mut tally = Tally::default();
        for worker in workers {
            let (s, t) = worker.join().expect("load thread panicked")?;
            samples.merge(s);
            tally.merge(t);
        }
        Ok((samples, tally))
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The daemon's CPU seconds and peak memory.
fn daemon_usage(daemon: &Daemon) -> Result<(f64, f64), String> {
    Ok((
        sys::process_cpu_s(daemon.pid())?,
        sys::process_peak_rss_mb(daemon.pid())?,
    ))
}

/// Trace inputs: each distinct program once, with the line it is sent
/// as.
fn trace_inputs(programs: &[Program]) -> Vec<TraceInput> {
    programs
        .iter()
        .map(|p| TraceInput {
            program: p.clone(),
            line: analyze_line(&p.name, &p.source),
        })
        .collect()
}

// ---------------------------------------------------------------------
// serve-hot: every request a cache hit.
// ---------------------------------------------------------------------

/// The 64-program working set: the corpus, exchange chains of 8 to 1024
/// rounds (sources up to 64 KB) and small exchange-with-root programs.
fn hot_programs(ctx: &Ctx) -> Result<Vec<Program>, String> {
    let salt = ctx.salt(1);
    let (mut set, chains, wides): (Vec<Program>, usize, usize) = if ctx.smoke {
        (ctx.oracle.corpus()?.into_iter().take(3).collect(), 3, 1)
    } else {
        (ctx.oracle.corpus()?, 37, 8)
    };
    for i in 0..chains {
        let k = if ctx.smoke {
            i + 1
        } else {
            log_spaced(8, 1024, i, chains)
        };
        set.push(programs::exchanges(k, salt + i));
    }
    for i in 0..wides {
        let n = if ctx.smoke {
            2
        } else {
            log_spaced(8, 48, i, wides)
        };
        set.push(programs::wide(n, salt + i));
    }
    Ok(set)
}

fn serve_hot(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let programs = hot_programs(ctx)?;
    cross_check(&programs, tally);
    let lines: Vec<String> = programs
        .iter()
        .map(|p| analyze_line(&p.name, &p.source))
        .collect();
    let verifier = Verifier::new(&programs);
    let everything: Vec<usize> = (0..programs.len()).collect();

    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Vec<Conn>)> = None;
    for _ in 0..ctx.setup_repeats() {
        if let Some((daemon, conns)) = live.take() {
            drop(conns);
            daemon.stop()?;
        }
        let start = Instant::now();
        let daemon = Daemon::start(&ctx.mpl, &ctx.socket("hot"), &[])?;
        let mut conns = vec![daemon.connect()?, daemon.connect()?];
        tally.merge(closed_pass(&mut conns, &everything, &lines, &verifier)?);
        setups.push(start.elapsed().as_secs_f64());
        live = Some((daemon, conns));
    }
    let (daemon, mut conns) = live.expect("at least one set-up");

    let mut rng = ctx.rng(2);
    let perms: Vec<Vec<usize>> = (0..conns.len())
        .map(|_| {
            let mut perm = everything.clone();
            rng.shuffle(&mut perm);
            perm
        })
        .collect();
    let before = daemon.stats()?;
    let (cpu0, _) = daemon_usage(&daemon)?;
    let (samples, load_tally) = closed_loop(&mut conns, &perms, &lines, &verifier, ctx.seconds)?;
    tally.merge(load_tally);
    let (cpu1, rss) = daemon_usage(&daemon)?;
    let after = daemon.stats()?;
    count_journal_errors(&before, &after, tally);
    drop(conns);
    daemon.stop()?;

    let completed = samples.latency_ms.len() as u64;
    let mut outcome = measured(&setups, &samples, completed, cpu1 - cpu0, rss)?;
    if ctx.trace {
        outcome.layer = counter_metrics(&before, &after);
        outcome.layer.extend(loadgen_metrics(&samples));
        outcome
            .layer
            .extend(trace::run(ctx, "serve-hot", &trace_inputs(&programs), tally)?.0);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// serve-mixed: open-loop traffic against a small persistent cache.
// ---------------------------------------------------------------------

/// The working set is half again the cache: a Zipf(1.0) stream over it
/// hits about nine times in ten, so the median request is a hit (and
/// stays one from seed to seed) while every tenth repeat still misses,
/// evicts and appends to the journal.
const MIXED_WORKING_SET: usize = 192;
const MIXED_CACHE: usize = 128;
const MIXED_COMPACT_EVERY: usize = 128;
/// Shares of arrivals that repeat a working-set program, and that send a
/// fresh program on both connections at once; the rest send a fresh
/// program on one. Few enough fresh programs that nine requests in ten
/// are answered from the cache without queueing behind a miss.
const MIXED_REPEATS: f64 = 0.90;
const MIXED_PAIRS: f64 = 0.04;
/// Size strata the generated programs cycle through.
const MIXED_STRATA: usize = 8;
/// One popularity rank in this many is a corpus program.
const MIXED_CORPUS_STRIDE: usize = 10;

/// The `i`-th generated program of the `serve-mixed` population: small
/// and mid-size exchange chains and exchange-with-root programs,
/// alternating and cycling through the size strata, so that every
/// stretch of the popularity ranking holds the same mix of sizes.
fn mixed_generated(i: usize, salt: usize, smoke: bool) -> Program {
    let stratum = (i / 2) % MIXED_STRATA;
    match (i % 2, smoke) {
        (0, false) => programs::exchanges(log_spaced(8, 48, stratum, MIXED_STRATA), salt),
        (_, false) => programs::wide(log_spaced(1, 6, stratum, MIXED_STRATA), salt),
        (_, true) => programs::exchanges(1 + i % 3, salt),
    }
}

struct Arrival {
    due: Duration,
    entry: usize,
    class: Class,
}

/// The seeded traffic: the working set, then the fresh programs, and
/// each connection's arrivals in due order.
struct MixedPlan {
    programs: Vec<Program>,
    /// Working-set entries from hottest to coldest.
    ranked: Vec<usize>,
    schedule: [Vec<Arrival>; 2],
}

fn mixed_plan(ctx: &Ctx) -> Result<MixedPlan, String> {
    let (size, corpus_count) = if ctx.smoke {
        (16, 4)
    } else {
        (MIXED_WORKING_SET, usize::MAX)
    };
    let mut programs: Vec<Program> = ctx
        .oracle
        .corpus()?
        .into_iter()
        .take(corpus_count)
        .collect();
    let corpus = programs.len();
    let salt = ctx.salt(3);
    for i in 0..size - corpus {
        programs.push(mixed_generated(i, salt + i, ctx.smoke));
    }
    // The ranking is fixed, not drawn: a corpus program every tenth
    // rank, generated programs in their size cycle between.
    let (mut corpus_ids, mut generated_ids) = (0..corpus, corpus..size);
    let ranked: Vec<usize> = (0..size)
        .map(|r| {
            let (first, second) = if r % MIXED_CORPUS_STRIDE == 0 {
                (&mut corpus_ids, &mut generated_ids)
            } else {
                (&mut generated_ids, &mut corpus_ids)
            };
            first
                .next()
                .or_else(|| second.next())
                .expect("one rank per program")
        })
        .collect();

    // Zipf(1.0) over the ranks.
    let cumulative: Vec<f64> = (1..=size)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cumulative[size - 1];

    // A Poisson process conditioned on its count: the run always offers
    // the same number of requests, at uniformly scattered times.
    let mut rng = ctx.rng(5);
    let count = ((MIXED_RATE * ctx.seconds).round() as usize).max(MIN_SAMPLES + 20);
    let span = count as f64 / MIXED_RATE;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * span).collect();
    times.sort_by(f64::total_cmp);

    let mut schedule: [Vec<Arrival>; 2] = [Vec::new(), Vec::new()];
    let mut fresh = 0;
    for t in times {
        let due = Duration::from_secs_f64(t);
        let u = rng.unit();
        if u < MIXED_REPEATS {
            let x = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c < x).min(size - 1);
            schedule[rng.below(2)].push(Arrival {
                due,
                entry: ranked[rank],
                class: Class::Repeat,
            });
            continue;
        }
        // A never-seen program, sent on one connection or on both at
        // once, so that the second copy can join the first's computation.
        programs.push(mixed_generated(fresh, salt + 100_000 + fresh, ctx.smoke));
        fresh += 1;
        let entry = programs.len() - 1;
        if u < 1.0 - MIXED_PAIRS {
            schedule[rng.below(2)].push(Arrival {
                due,
                entry,
                class: Class::Fresh,
            });
        } else {
            for conn in &mut schedule {
                conn.push(Arrival {
                    due,
                    entry,
                    class: Class::Fresh,
                });
            }
        }
    }
    Ok(MixedPlan {
        programs,
        ranked,
        schedule,
    })
}

/// Open loop on one connection: each request goes out at its due time
/// whether or not earlier replies are back, and its latency runs from
/// that due time.
fn open_loop(
    conn: &mut Conn,
    arrivals: &[Arrival],
    start: Instant,
    lines: &[String],
    verifier: &Verifier,
) -> Result<(Samples, Tally), String> {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut outstanding: VecDeque<&Arrival> = VecDeque::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        if let Some(arrival) = arrivals.get(next) {
            let due = start + arrival.due;
            if now >= due {
                conn.send(&lines[arrival.entry])?;
                samples.late_ms.push(ms(now - due));
                outstanding.push_back(arrival);
                next += 1;
                continue;
            }
            if outstanding.is_empty() {
                std::thread::sleep(due - now);
                continue;
            }
        } else if outstanding.is_empty() {
            break;
        }
        let wait_until = arrivals
            .get(next)
            .map_or(now + crate::daemon::REPLY_TIMEOUT, |a| start + a.due);
        match conn.recv_until(wait_until)? {
            Some(reply) => {
                let arrival = outstanding.pop_front().expect("a request is outstanding");
                samples
                    .latency_ms
                    .push((ms(Instant::now() - (start + arrival.due)), arrival.class));
                tally.record(verifier.check(arrival.entry, &reply));
            }
            None if arrivals.get(next).is_none() => {
                return Err("no reply within the reply timeout".to_owned());
            }
            None => {}
        }
    }
    samples.wall = start.elapsed();
    Ok((samples, tally))
}

fn mixed_args(dir: &Path, compact_every: usize, smoke: bool) -> Vec<String> {
    let cache = if smoke { 4 } else { MIXED_CACHE };
    vec![
        "--cache".to_owned(),
        cache.to_string(),
        "--cache-dir".to_owned(),
        dir.display().to_string(),
        "--compact-every".to_owned(),
        compact_every.to_string(),
    ]
}

fn serve_mixed(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let plan = mixed_plan(ctx)?;
    cross_check(&plan.programs, tally);
    let lines: Vec<String> = plan
        .programs
        .iter()
        .map(|p| analyze_line(&p.name, &p.source))
        .collect();
    let verifier = Verifier::new(&plan.programs);
    let working_set = plan.ranked.len();

    // Untimed preparation: a daemon computes the whole working set, in
    // a seeded order, into a journal that every set-up starts from.
    let journal = {
        let dir = ctx.scratch.join("mixed-journal-seed");
        let daemon = Daemon::start(
            &ctx.mpl,
            &ctx.socket("mixed"),
            &mixed_args(&dir, usize::MAX, ctx.smoke),
        )?;
        let mut conns = vec![daemon.connect()?, daemon.connect()?];
        let mut order: Vec<usize> = (0..working_set).collect();
        ctx.rng(6).shuffle(&mut order);
        tally.merge(closed_pass(&mut conns, &order, &lines, &verifier)?);
        drop(conns);
        daemon.stop()?;
        std::fs::read(dir.join(mpl_core::persist::JOURNAL_FILE))
            .map_err(|e| format!("cannot read the seeded journal: {e}"))?
    };

    // Set-up: start on a copy of the journal (replay), then warm the
    // hottest entries, coldest first so the hottest end most recent.
    let warm: Vec<usize> = plan
        .ranked
        .iter()
        .take(MIXED_CACHE)
        .rev()
        .copied()
        .collect();
    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Vec<Conn>)> = None;
    for rep in 0..ctx.setup_repeats() {
        if let Some((daemon, conns)) = live.take() {
            drop(conns);
            daemon.stop()?;
        }
        let dir = ctx.scratch.join(format!("mixed-journal-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(mpl_core::persist::JOURNAL_FILE), &journal)
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let daemon = Daemon::start(
            &ctx.mpl,
            &ctx.socket("mixed"),
            &mixed_args(&dir, MIXED_COMPACT_EVERY, ctx.smoke),
        )?;
        let mut conns = vec![daemon.connect()?, daemon.connect()?];
        tally.merge(closed_pass(&mut conns, &warm, &lines, &verifier)?);
        setups.push(start.elapsed().as_secs_f64());
        live = Some((daemon, conns));
    }
    let (daemon, mut conns) = live.expect("at least one set-up");

    let before = daemon.stats()?;
    let (cpu0, _) = daemon_usage(&daemon)?;
    let start = Instant::now();
    let (samples, load_tally) = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(&plan.schedule)
            .map(|(conn, arrivals)| {
                let (lines, verifier) = (&lines, &verifier);
                s.spawn(move || open_loop(conn, arrivals, start, lines, verifier))
            })
            .collect();
        let mut samples = Samples::default();
        let mut tally = Tally::default();
        for worker in workers {
            let (s, t) = worker.join().expect("load thread panicked")?;
            samples.merge(s);
            tally.merge(t);
        }
        Ok::<_, String>((samples, tally))
    })?;
    tally.merge(load_tally);
    let (cpu1, rss) = daemon_usage(&daemon)?;
    let after = daemon.stats()?;
    count_journal_errors(&before, &after, tally);
    drop(conns);
    daemon.stop()?;

    let completed = samples.latency_ms.len() as u64;
    let mut outcome = measured(&setups, &samples, completed, cpu1 - cpu0, rss)?;
    if let Some(p50) = percentile(&samples.latencies(Some(Class::Repeat)), 50.0) {
        outcome
            .extra
            .push(metric("repeat_latency_p50_ms", p50, "ms"));
    }
    if let Some(p90) = percentile(&samples.latencies(Some(Class::Fresh)), 90.0) {
        outcome
            .extra
            .push(metric("fresh_latency_p90_ms", p90, "ms"));
    }
    if ctx.trace {
        outcome.layer = counter_metrics(&before, &after);
        outcome.layer.extend(loadgen_metrics(&samples));
        outcome.layer.extend(
            trace::run(
                ctx,
                "serve-mixed",
                &trace_inputs(&plan.programs[..working_set]),
                tally,
            )?
            .0,
        );
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// engine-wide: every request a cache miss on a wide program.
// ---------------------------------------------------------------------

/// Five sizes, so that the median request falls on the middle one and
/// the p90 on the largest; wide(96) would take a second a request and
/// leave a run too few samples.
const ENGINE_SIZES: [usize; 5] = [8, 16, 24, 32, 48];

fn engine_wide(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let salt = ctx.salt(10);
    // Even wide(1) takes tens of milliseconds in a debug build; the
    // smoke scale uses the cheapest programs there are.
    let programs: Vec<Program> = if ctx.smoke {
        (1..=2).map(|k| programs::exchanges(k, salt)).collect()
    } else {
        ENGINE_SIZES
            .iter()
            .map(|&n| programs::wide(n, salt))
            .collect()
    };
    cross_check(&programs, tally);
    // Every request carries a name of its own, so the daemon's cache
    // never answers it.
    let send = |conn: &mut Conn, i: usize, name: &str, tally: &mut Tally| -> Result<f64, String> {
        let line = analyze_line(name, &programs[i].source);
        let sent = Instant::now();
        let reply = conn.call(&line)?;
        let latency = ms(sent.elapsed());
        tally.record(check_reply(&programs[i], Some(name), &reply));
        Ok(latency)
    };

    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Conn)> = None;
    for rep in 0..ctx.setup_repeats() {
        if let Some((daemon, conn)) = live.take() {
            drop(conn);
            daemon.stop()?;
        }
        let start = Instant::now();
        let daemon = Daemon::start(&ctx.mpl, &ctx.socket("engine"), &[])?;
        let mut conn = daemon.connect()?;
        for (i, p) in programs.iter().enumerate() {
            send(&mut conn, i, &format!("warm{rep}-{}", p.name), tally)?;
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((daemon, conn));
    }
    let (daemon, mut conn) = live.expect("at least one set-up");

    let before = daemon.stats()?;
    let (cpu0, _) = daemon_usage(&daemon)?;
    let mut rng = ctx.rng(7);
    let mut samples = Samples::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut order: Vec<usize> = (0..programs.len()).collect();
    let mut last_reply: Option<Instant> = None;
    while Instant::now() < deadline || samples.latency_ms.len() < MIN_SAMPLES {
        rng.shuffle(&mut order);
        for &i in &order {
            if let Some(last) = last_reply {
                samples.late_ms.push(ms(last.elapsed()));
            }
            let name = format!("req{}-{}", samples.latency_ms.len(), programs[i].name);
            let latency = send(&mut conn, i, &name, tally)?;
            samples.latency_ms.push((latency, Class::Fresh));
            last_reply = Some(Instant::now());
        }
    }
    samples.wall = start.elapsed();
    let (cpu1, rss) = daemon_usage(&daemon)?;
    let after = daemon.stats()?;
    count_journal_errors(&before, &after, tally);
    drop(conn);
    daemon.stop()?;

    let completed = samples.latency_ms.len() as u64;
    let mut outcome = measured(&setups, &samples, completed, cpu1 - cpu0, rss)?;
    if ctx.trace {
        outcome.layer = counter_metrics(&before, &after);
        outcome.layer.extend(loadgen_metrics(&samples));
        outcome
            .layer
            .extend(trace::run(ctx, "engine-wide", &trace_inputs(&programs), tally)?.0);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// batch-corpus: repeated `mpl analyze-corpus` invocations.
// ---------------------------------------------------------------------

/// The 24-program directory: the corpus plus five generated programs,
/// none more than an eighth of the work. The file order is fixed, not
/// drawn, because it decides how the two workers are dealt the programs:
/// a drawn order moved the time of an invocation by a fifth from seed to
/// seed. The generated programs come last, so each worker pops them
/// first from its own deque and the small corpus programs fill in the
/// end.
fn batch_programs(ctx: &Ctx) -> Result<Vec<Program>, String> {
    let salt = ctx.salt(8);
    let mut set: Vec<Program>;
    if ctx.smoke {
        set = ctx.oracle.corpus()?.into_iter().take(1).collect();
        set.push(programs::exchanges(1, salt));
    } else {
        set = ctx.oracle.corpus()?;
        for (i, k) in [96, 128].into_iter().enumerate() {
            set.push(programs::exchanges(k, salt + i));
        }
        for (i, n) in [6, 7, 8].into_iter().enumerate() {
            set.push(programs::wide(n, salt + i));
        }
    }
    for (pos, program) in set.iter_mut().enumerate() {
        program.name = format!("p{pos:02}-{}", program.name);
    }
    Ok(set)
}

/// Writes each program to `<dir>/<name>.mpl`.
pub fn write_program_dir(dir: &Path, programs: &[Program]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for p in programs {
        std::fs::write(dir.join(format!("{}.mpl", p.name)), &p.source)
            .map_err(|e| format!("cannot write {}: {e}", p.name))?;
    }
    Ok(())
}

/// Runs `mpl analyze-corpus --dir <dir> --jobs 2 --json` once and
/// checks every program record; returns the invocation's wall time.
pub fn analyze_dir(
    mpl: &Path,
    dir: &Path,
    programs: &[Program],
    tally: &mut Tally,
) -> Result<Duration, String> {
    let start = Instant::now();
    let output = Command::new(mpl)
        .args(["analyze-corpus", "--dir"])
        .arg(dir)
        .args(["--jobs", "2", "--json"])
        .output()
        .map_err(|e| format!("cannot run `{} analyze-corpus`: {e}", mpl.display()))?;
    let wall = start.elapsed();
    if !output.status.success() {
        tally.failed += 1;
        tally.note(format!("analyze-corpus exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut seen = 0;
    for line in stdout.lines() {
        let Ok(record) = json::parse(line) else {
            tally.record(Reply::Wrong(format!("unparseable corpus line: {line}")));
            continue;
        };
        if record.get("type").and_then(Json::as_str) == Some("summary") {
            continue;
        }
        let name = record.get("name").and_then(Json::as_str).unwrap_or("");
        match programs.iter().find(|p| p.name == name) {
            Some(p) => tally.record(check_reply(p, Some(name), line)),
            None => tally.record(Reply::Wrong(format!("unknown program in output: {line}"))),
        }
        seen += 1;
    }
    if seen != programs.len() {
        tally.wrong += 1;
        tally.failed += 1;
        tally.note(format!(
            "{seen} program records for {} programs",
            programs.len()
        ));
    }
    Ok(wall)
}

fn batch_corpus(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let programs = batch_programs(ctx)?;
    cross_check(&programs, tally);
    let dir = ctx.scratch.join("batch-corpus");
    write_program_dir(&dir, &programs)?;

    let setups = (0..ctx.setup_repeats())
        .map(|_| analyze_dir(&ctx.mpl, &dir, &programs, tally).map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<f64>, String>>()?;

    let usage0 = sys::children_usage();
    let mut samples = Samples::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut last_end: Option<Instant> = None;
    while Instant::now() < deadline || samples.latency_ms.len() < MIN_SAMPLES {
        if let Some(last) = last_end {
            samples.late_ms.push(ms(last.elapsed()));
        }
        let wall = analyze_dir(&ctx.mpl, &dir, &programs, tally)?;
        samples.latency_ms.push((ms(wall), Class::Repeat));
        last_end = Some(Instant::now());
    }
    samples.wall = start.elapsed();
    let usage1 = sys::children_usage();

    let completed = (samples.latency_ms.len() * programs.len()) as u64;
    let mut outcome = measured(
        &setups,
        &samples,
        completed,
        usage1.cpu_s - usage0.cpu_s,
        usage1.max_rss_mb,
    )?;
    if ctx.trace {
        let (layer, counters) = trace::run(ctx, "batch-corpus", &trace_inputs(&programs), tally)?;
        // No daemon serves this workload; its counters come from the
        // daemon the trace replays the programs through.
        outcome.layer = counters;
        outcome.layer.extend(loadgen_metrics(&samples));
        outcome.layer.extend(layer);
    }
    Ok(outcome)
}
