//! The traced run: replays each distinct input of a workload through the
//! public functions of every layer, in process, recording a span around
//! each call, and derives the per-layer metrics from those spans.
//!
//! Spans live in memory and are written as NDJSON to
//! `<work>/<workload>.trace.ndjson` when the run ends, with a per-layer
//! self-time table on standard error. The program itself carries no
//! spans; the benchmark places them around its calls into each layer.
//!
//! Stages, each over the workload's distinct programs:
//!
//! 1. **miss**: the daemon's miss path taken apart: JSON decode, request
//!    build (with the source parse inside it), fingerprint, check
//!    string, CFG build, engine run (its profile's phases as synthetic
//!    child spans) and rendering. Each answer is checked and written to
//!    a cache journal.
//! 2. **hit**: `AnalysisService::open` on that journal, then repeated
//!    passes timing the real `handle_line` on each (now cached) line
//!    next to the same path taken apart: decode, build, fingerprint,
//!    check string and cache lookup. The taken-apart path also runs with
//!    spans off, which gives the tracing overhead.
//! 3. **transport**: a daemon replays the journal; the round trip of
//!    each line over its socket minus the in-process `handle_line` time
//!    is the transport's cost.
//! 4. **batch**: `RequestBatch::run` at two workers over the programs
//!    next to `mpl analyze-corpus --jobs 2` on the same files; the
//!    difference is the CLI's cost.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use mpl_core::{
    analyze_cfg_with, parse_json, AnalysisConfig, AnalysisRequest, AnalysisResponse,
    AnalysisService, CacheJournal, JsonValue, RequestBatch, ResultCache, ServiceConfig,
    StatsObserver,
};

use crate::daemon::Daemon;
use crate::programs::{check_reply, Program, Reply};
use crate::stats::median;
use crate::workloads::{
    analyze_dir, counter_metrics, metric, write_program_dir, Ctx, Metric, Tally,
};

/// One distinct input: a program and the request line it is sent as.
pub struct TraceInput {
    pub program: Program,
    /// The `analyze` request line, newline included.
    pub line: String,
}

/// Hit passes a trace makes at least, and at most (within a third of the
/// run length).
const MIN_HIT_PASSES: usize = 5;
const MAX_HIT_PASSES: usize = 50;

/// Round trips per program in the transport stage.
const ROUND_TRIPS: usize = 3;

/// Repetitions of the batch stage.
const BATCH_REPEATS: usize = 4;

struct Span {
    name: &'static str,
    request: Option<usize>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Placed from a measured duration rather than timed around a call
    /// (the engine profile's phases).
    synthetic: bool,
}

/// Spans in memory. A disabled recorder runs the same calls with no
/// clock reads at all, for the overhead comparison.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            synthetic: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Adds back-to-back synthetic children to the innermost open span.
    fn synthetic(&mut self, request: Option<usize>, phases: &[(&'static str, Duration)]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent].start;
        for &(name, len) in phases {
            self.spans.push(Span {
                name,
                request,
                parent: Some(parent),
                start: at,
                end: at + len,
                synthetic: true,
            });
            at += len;
        }
    }

    fn len(&self, i: usize) -> Duration {
        self.spans[i].end.saturating_sub(self.spans[i].start)
    }

    fn root(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Per-request durations in µs of spans named `name`, optionally
    /// only those under a root named `root`.
    fn samples(&self, name: &str, root: Option<&str>) -> HashMap<usize, Vec<f64>> {
        let mut out: HashMap<usize, Vec<f64>> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && root.is_none_or(|r| self.root(i) == r) {
                if let Some(r) = s.request {
                    out.entry(r).or_default().push(us(self.len(i)));
                }
            }
        }
        out
    }

    /// Durations in µs of spans named `name`, whatever their request.
    fn all(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| us(self.len(i)))
            .collect()
    }

    /// Self time by span name: each span's length minus what its
    /// children cover, summed, with the span count.
    fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_total = vec![Duration::ZERO; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_total[p] += self.len(i);
            }
        }
        let mut by_name: HashMap<&'static str, (f64, usize)> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = by_name.entry(s.name).or_default();
            entry.0 += us(self.len(i).saturating_sub(child_total[i]));
            entry.1 += 1;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    fn write_ndjson(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"synthetic\":{}}}",
                s.name,
                opt(s.request),
                opt(s.parent),
                us(s.start),
                us(s.end),
                s.synthetic
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-request medians of per-request samples.
fn medians(samples: &HashMap<usize, Vec<f64>>) -> HashMap<usize, f64> {
    samples
        .iter()
        .filter_map(|(&r, v)| median(v).map(|m| (r, m)))
        .collect()
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The request the daemon builds for an `analyze` line with these
/// fields: default configuration, fault directives honoured, no
/// retries.
fn builder(name: &str) -> mpl_core::AnalysisRequestBuilder {
    AnalysisRequest::builder()
        .name(name)
        .config(AnalysisConfig::default())
        .honor_fault_directive(true)
        .retries(0)
}

/// The `program` and `name` fields of a decoded request line.
fn fields(value: &JsonValue) -> (&str, &str) {
    (
        value
            .get("program")
            .and_then(JsonValue::as_str)
            .unwrap_or(""),
        value.get("name").and_then(JsonValue::as_str).unwrap_or(""),
    )
}

/// Engine and domain counters summed over one miss pass.
#[derive(Default)]
struct EngineTotals {
    nodes: usize,
    total: Duration,
    transfer: Duration,
    matching: Duration,
    join_widen: Duration,
    admission: Duration,
    steps: u64,
    rounds: u64,
    frontier_peak: usize,
    stored_bytes: usize,
    full_closures: u64,
    incremental_closures: u64,
    closure: Duration,
    matrix_copies: u64,
}

/// The hit path of `AnalysisService::handle_line` taken apart into its
/// layers: decode, build, fingerprint, check string, lookup.
fn hit_path(rec: &mut Recorder, r: usize, line: &str, cache: &mut ResultCache) -> Option<String> {
    rec.span("service.handle", Some(r), |rec| {
        let value = rec.span("json.parse", Some(r), |_| parse_json(line)).ok()?;
        let (source, name) = fields(&value);
        let request = rec.span("request.build", Some(r), |rec| {
            let ast = rec.span("lang.parse", Some(r), |_| mpl_lang::parse_program(source));
            builder(name).program(ast.ok()?).build().ok()
        })?;
        let key = rec.span("request.fingerprint", Some(r), |_| request.fingerprint());
        let check = rec.span("request.cache_check", Some(r), |_| request.cache_check());
        rec.span("cache.lookup", Some(r), |_| cache.lookup(key, &check))
    })
}

/// Runs the traced stages; returns the per-layer metrics and the
/// counters of the transport stage's daemon.
pub fn run(
    ctx: &Ctx,
    workload: &str,
    inputs: &[TraceInput],
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let mut rec = Recorder::new(true);
    let lines: Vec<&str> = inputs.iter().map(|i| i.line.trim_end()).collect();
    let journal_dir = ctx.scratch.join("trace-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);

    // 1. Miss path, once per program.
    let mut cache = ResultCache::new(inputs.len());
    let mut responses: Vec<AnalysisResponse> = Vec::with_capacity(inputs.len());
    let mut bodies: Vec<String> = Vec::with_capacity(inputs.len());
    let mut engine = EngineTotals::default();
    {
        let (mut journal, _) = CacheJournal::open(&journal_dir)
            .map_err(|e| format!("cannot open {}: {e}", journal_dir.display()))?;
        for (r, input) in inputs.iter().enumerate() {
            let p = &input.program;
            let request = builder(&p.name)
                .source(p.source.as_str())
                .build()
                .map_err(|e| format!("{}: {e}", p.name))?;
            let response = request.execute();
            let body = response.json_line(false);
            tally.record(check_reply(p, Some(&p.name), &body));
            let (key, check) = (request.fingerprint(), request.cache_check());
            journal
                .append(key, &check, &body)
                .map_err(|e| format!("cannot write the trace journal: {e}"))?;
            cache.insert(key, check, body.clone());
            rec.span("request.miss", Some(r), |rec| {
                let value = rec.span("json.parse", Some(r), |_| parse_json(lines[r]));
                let Ok(value) = value else { return };
                let (source, name) = fields(&value);
                let built = rec.span("request.build", Some(r), |rec| {
                    let ast = rec.span("lang.parse", Some(r), |_| mpl_lang::parse_program(source));
                    builder(name).program(ast.ok()?).build().ok()
                });
                let Some(req) = built else { return };
                rec.span("request.fingerprint", Some(r), |_| req.fingerprint());
                rec.span("request.cache_check", Some(r), |_| req.cache_check());
                let cfg = rec.span("cfg.build", Some(r), |_| mpl_cfg::Cfg::build(&req.program));
                engine.nodes += cfg.node_count();
                rec.span("engine.run", Some(r), |rec| {
                    // A fresh interner per analysis, as every request
                    // path runs it.
                    mpl_domains::reset_table();
                    mpl_domains::stats::reset_matrix_copies();
                    let mut observer = StatsObserver::new();
                    let result = analyze_cfg_with(&cfg, &req.config, &mut observer);
                    let profile = observer.profile().copied().unwrap_or_default();
                    rec.synthetic(
                        Some(r),
                        &[
                            ("engine.transfer", profile.transfer),
                            ("engine.match", profile.matching),
                            ("engine.join_widen", profile.join_widen),
                            ("engine.admission", profile.admission),
                        ],
                    );
                    engine.total += profile.total;
                    engine.transfer += profile.transfer;
                    engine.matching += profile.matching;
                    engine.join_widen += profile.join_widen;
                    engine.admission += profile.admission;
                    engine.steps += result.steps;
                    engine.rounds += profile.rounds;
                    engine.frontier_peak = engine.frontier_peak.max(profile.frontier_peak);
                    engine.stored_bytes += profile.stored.approx_bytes;
                    engine.full_closures += result.closure_stats.full_closures;
                    engine.incremental_closures += result.closure_stats.incremental_closures;
                    engine.closure += Duration::from_nanos(result.closure_stats.closure_nanos);
                    engine.matrix_copies += mpl_domains::stats::matrix_copies();
                });
                rec.span("render.json_line", Some(r), |_| response.json_line(false));
            });
            responses.push(response);
            bodies.push(body);
        }
    }

    // 2. Journal replay, then hit passes.
    let service_config = ServiceConfig {
        cache_capacity: inputs.len().max(1),
        cache_dir: Some(journal_dir.clone()),
        ..ServiceConfig::default()
    };
    let mut service = None;
    for _ in 0..3 {
        drop(service.take());
        let opened = rec.span("persist.open", None, |_| {
            AnalysisService::open(service_config.clone())
        });
        service = Some(opened?);
    }
    let service = service.expect("opened at least once");
    let mut off = Recorder::new(false);
    // Per line, the untraced and the traced time of its hit path.
    let (mut untraced, mut traced) = (vec![Vec::new(); lines.len()], vec![Vec::new(); lines.len()]);
    // (request, composite root span, real handle_line span) per pass.
    let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
    let hit_start = Instant::now();
    let hit_budget = Duration::from_secs_f64(ctx.seconds / 3.0);
    let mut passes = 0;
    while passes < MIN_HIT_PASSES || (passes < MAX_HIT_PASSES && hit_start.elapsed() < hit_budget) {
        // Each line's path untraced and taken apart with spans, in turns
        // going first (the second call finds the caches warm), then the
        // real call, back to back so they meet the machine in the same
        // state.
        for (r, line) in lines.iter().enumerate() {
            let mut untraced_call = |cache: &mut ResultCache| {
                let t = Instant::now();
                std::hint::black_box(hit_path(&mut off, r, line, cache));
                untraced[r].push(t.elapsed().as_secs_f64());
            };
            if passes % 2 == 0 {
                untraced_call(&mut cache);
            }
            let composite = rec.spans.len();
            let t = Instant::now();
            let body = hit_path(&mut rec, r, line, &mut cache);
            traced[r].push(t.elapsed().as_secs_f64());
            if passes % 2 == 1 {
                untraced_call(&mut cache);
            }
            if body.as_deref() != Some(&bodies[r]) {
                tally.record(Reply::Wrong(format!(
                    "{}: cache lookup missed",
                    inputs[r].program.name
                )));
            }
            let real = rec.spans.len();
            let reply = rec.span("service.handle_line", Some(r), |_| {
                service.handle_line(line)
            });
            if reply.line() != bodies[r] {
                tally.record(Reply::Wrong(format!(
                    "{}: hit differs from miss",
                    inputs[r].program.name
                )));
            }
            pairs.push((r, composite, real));
        }
        for (r, response) in responses.iter().enumerate() {
            rec.span("render.json_line", Some(r), |_| {
                std::hint::black_box(response.json_line(false))
            });
        }
        passes += 1;
    }
    drop(service);

    // 3. Transport: the same lines over a daemon's socket.
    let replay_dir = ctx.scratch.join("trace-replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    std::fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
    let journal_file = mpl_core::persist::JOURNAL_FILE;
    std::fs::copy(
        journal_dir.join(journal_file),
        replay_dir.join(journal_file),
    )
    .map_err(|e| format!("cannot copy the trace journal: {e}"))?;
    let daemon = Daemon::start(
        &ctx.mpl,
        &ctx.scratch.join("trace.sock"),
        &[
            "--cache".to_owned(),
            inputs.len().max(128).to_string(),
            "--cache-dir".to_owned(),
            replay_dir.display().to_string(),
        ],
    )?;
    let before = daemon.stats()?;
    {
        let mut conn = daemon.connect()?;
        for _ in 0..ROUND_TRIPS {
            for (r, input) in inputs.iter().enumerate() {
                let reply =
                    rec.span("transport.round_trip", Some(r), |_| conn.call(&input.line))?;
                if reply != bodies[r] {
                    tally.record(Reply::Wrong(format!(
                        "{}: daemon reply differs",
                        input.program.name
                    )));
                }
            }
        }
    }
    let after = daemon.stats()?;
    daemon.stop()?;
    let counters = counter_metrics(&before, &after);

    // 4. The batch layer in process and behind the CLI.
    let mut programs: Vec<Program> = inputs.iter().map(|i| i.program.clone()).collect();
    // In the order `analyze-corpus` queues the files, so that both runs
    // deal the same jobs to the same workers.
    programs.sort_by_cached_key(|p| format!("{}.mpl", p.name));
    let dir = ctx.scratch.join("trace-programs");
    write_program_dir(&dir, &programs)?;
    let (mut occupancy, mut speedup, mut cli_overhead) = (Vec::new(), Vec::new(), Vec::new());
    let cli = |rec: &mut Recorder, tally: &mut Tally| {
        rec.span("cli.invocation", None, |_| {
            analyze_dir(&ctx.mpl, &dir, &programs, tally)
        })
    };
    // The programs as `analyze-corpus` would run them, at `workers`
    // workers: the batch's wall time and the sum of its jobs' times.
    let in_process = |rec: &mut Recorder,
                      tally: &mut Tally,
                      span: &'static str,
                      workers: usize|
     -> Result<(Duration, u64), String> {
        let mut batch = RequestBatch::new().workers(workers);
        for p in &programs {
            batch.push(
                AnalysisRequest::builder()
                    .name(&p.name)
                    .source(p.source.as_str())
                    .config(AnalysisConfig::default())
                    .honor_fault_directive(true)
                    .build()
                    .map_err(|e| format!("{}: {e}", p.name))?,
            );
        }
        let t = Instant::now();
        let done = rec.span(span, None, |_| batch.run());
        let wall = t.elapsed();
        for (p, response) in programs.iter().zip(&done.responses) {
            tally.record(check_reply(p, Some(&p.name), &response.json_line(false)));
        }
        Ok((wall, done.responses.iter().map(|r| r.wall_nanos).sum()))
    };
    for rep in 0..BATCH_REPEATS {
        // The CLI goes first in every other repetition, so that neither
        // side always finds the machine warmed by the other.
        let cli_first = if rep % 2 == 1 {
            Some(cli(&mut rec, tally)?)
        } else {
            None
        };
        let (batch_wall, busy_nanos) = in_process(&mut rec, tally, "runtime.batch", 2)?;
        occupancy.push(busy_nanos as f64 / (2.0 * batch_wall.as_nanos() as f64));
        let (serial_wall, _) = in_process(&mut rec, tally, "runtime.batch_serial", 1)?;
        speedup.push(serial_wall.as_secs_f64() / batch_wall.as_secs_f64());
        let cli_wall = match cli_first {
            Some(wall) => wall,
            None => cli(&mut rec, tally)?,
        };
        cli_overhead.push((cli_wall.as_secs_f64() - batch_wall.as_secs_f64()) * 1e3);
    }

    // Metrics.
    let handle = medians(&rec.samples("service.handle_line", None));
    let json_parse = medians(&rec.samples("json.parse", None));
    let lang_parse = medians(&rec.samples("lang.parse", None));
    let round_trip = medians(&rec.samples("transport.round_trip", None));
    let per_request_p50 = |name: &str| median_of(medians(&rec.samples(name, None)).into_values());
    let total_bytes: usize = inputs.iter().map(|i| i.program.source.len()).sum();
    let sum = |m: &HashMap<usize, f64>| m.values().sum::<f64>();
    // Per line, the median over passes of how much of the real call the
    // taken-apart path's layers cover; the worst line is reported.
    let mut coverage: HashMap<usize, Vec<f64>> = HashMap::new();
    for &(r, composite, real) in &pairs {
        let covered: Duration = (composite..real)
            .filter(|&i| rec.spans[i].parent == Some(composite))
            .map(|i| rec.len(i))
            .sum();
        coverage
            .entry(r)
            .or_default()
            .push(covered.as_secs_f64() / rec.len(real).as_secs_f64());
    }
    let coverage_min = medians(&coverage)
        .into_values()
        .fold(f64::INFINITY, f64::min);
    let batch_ms = median_of(rec.all("runtime.batch")) / 1e3;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let n = inputs.len().max(1) as f64;
    let layer = vec![
        metric(
            "json.parse_us_p50",
            median_of(json_parse.values().copied()),
            "us",
        ),
        metric(
            "json.parse_us_max",
            json_parse.values().copied().fold(0.0, f64::max),
            "us",
        ),
        metric(
            "json.parse_share",
            sum(&json_parse_hits(&rec)) / sum(&handle),
            "ratio",
        ),
        metric(
            "request.build_us_p50",
            per_request_p50("request.build"),
            "us",
        ),
        metric(
            "request.fingerprint_us_p50",
            per_request_p50("request.fingerprint"),
            "us",
        ),
        metric(
            "lang.parse_us_p50",
            median_of(lang_parse.values().copied()),
            "us",
        ),
        metric(
            "lang.bytes_per_us",
            total_bytes as f64 / sum(&lang_parse),
            "B/us",
        ),
        metric(
            "render.json_line_us_p50",
            per_request_p50("render.json_line"),
            "us",
        ),
        metric(
            "service.handle_us_p50",
            median_of(handle.values().copied()),
            "us",
        ),
        metric(
            "transport.overhead_us_p50",
            median_of(
                round_trip
                    .iter()
                    .filter_map(|(r, t)| Some(t - handle.get(r)?)),
            ),
            "us",
        ),
        metric("cfg.build_us_p50", per_request_p50("cfg.build"), "us"),
        metric("cfg.nodes_mean", engine.nodes as f64 / n, "count"),
        metric("engine.total_ms", ms(engine.total), "ms"),
        metric("engine.transfer_ms", ms(engine.transfer), "ms"),
        metric("engine.match_ms", ms(engine.matching), "ms"),
        metric("engine.join_widen_ms", ms(engine.join_widen), "ms"),
        metric("engine.admission_ms", ms(engine.admission), "ms"),
        metric("engine.steps", engine.steps as f64, "count"),
        metric("engine.rounds", engine.rounds as f64, "count"),
        metric("engine.frontier_peak", engine.frontier_peak as f64, "count"),
        metric("engine.stored_bytes", engine.stored_bytes as f64, "B"),
        metric(
            "domains.full_closures",
            engine.full_closures as f64,
            "count",
        ),
        metric(
            "domains.incremental_closures",
            engine.incremental_closures as f64,
            "count",
        ),
        metric("domains.closure_ms", ms(engine.closure), "ms"),
        metric(
            "domains.matrix_copies",
            engine.matrix_copies as f64,
            "count",
        ),
        metric("runtime.batch_ms", batch_ms, "ms"),
        metric("runtime.occupancy", median_of(occupancy), "ratio"),
        metric("runtime.speedup", median_of(speedup), "ratio"),
        metric("cli.overhead_ms", median_of(cli_overhead), "ms"),
        metric(
            "persist.open_ms",
            median_of(rec.all("persist.open")) / 1e3,
            "ms",
        ),
        metric(
            "trace.overhead_frac",
            traced
                .iter()
                .map(|t| median_of(t.iter().copied()))
                .sum::<f64>()
                / untraced
                    .iter()
                    .map(|t| median_of(t.iter().copied()))
                    .sum::<f64>()
                - 1.0,
            "ratio",
        ),
        metric("trace.coverage_min", coverage_min, "ratio"),
    ];

    report(ctx, workload, &rec, inputs, &handle)?;
    Ok((layer, counters))
}

/// `json.parse` on the hit path only (the share's numerator).
fn json_parse_hits(rec: &Recorder) -> HashMap<usize, f64> {
    medians(&rec.samples("json.parse", Some("service.handle")))
}

/// Writes the spans and prints the self-time table and the JSON-decode
/// share of hits by request size.
fn report(
    ctx: &Ctx,
    workload: &str,
    rec: &Recorder,
    inputs: &[TraceInput],
    handle: &HashMap<usize, f64>,
) -> Result<(), String> {
    let path = ctx.work.join(format!("{workload}.trace.ndjson"));
    rec.write_ndjson(&path)?;
    eprintln!(
        "# {workload}: {} spans written to {}",
        rec.spans.len(),
        path.display()
    );
    eprintln!("# {:<24} {:>14} {:>8}", "layer span", "self ms", "spans");
    for (name, self_us, count) in rec.self_times() {
        eprintln!("# {name:<24} {:>14.3} {count:>8}", self_us / 1e3);
    }
    let parse = json_parse_hits(rec);
    for (label, lo, hi) in [
        ("< 1 KB", 0, 1024),
        ("1-16 KB", 1024, 16 * 1024),
        (">= 16 KB", 16 * 1024, usize::MAX),
    ] {
        let in_class: Vec<usize> = (0..inputs.len())
            .filter(|&r| (lo..hi).contains(&inputs[r].line.len()))
            .collect();
        let parse_us: f64 = in_class.iter().filter_map(|r| parse.get(r)).sum();
        let handle_us: f64 = in_class.iter().filter_map(|r| handle.get(r)).sum();
        if handle_us > 0.0 {
            eprintln!(
                "# json.parse share of hits, request lines {label}: {:.1}% of {:.3} ms over {} lines",
                100.0 * parse_us / handle_us,
                handle_us / 1e3,
                in_class.len()
            );
        }
    }
    Ok(())
}
