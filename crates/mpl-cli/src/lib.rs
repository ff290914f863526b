//! # mpl-cli — the `mpl` command-line tool
//!
//! ```text
//! mpl analyze <file> [--client simple|cartesian] [--min-np N] [--trace]
//! mpl analyze-corpus  [--dir D] [--jobs N] [--client C] [--min-np N]
//!                     [--timeout-ms T] [--retries R] [--keep-going] [--json] [--timing]
//! mpl run     <file> --np N [--seed S] [--rendezvous] [--set var=val]...
//! mpl check   <file>                  # diagnostics; exit 1 on findings
//! mpl dot     <file>                  # Graphviz CFG
//! mpl flow    <file> --source v[,v]   # information-flow leak report
//! mpl mpicfg  <file>                  # MPI-CFG baseline comparison
//! mpl rewrite <file>                  # broadcast -> binomial tree
//! ```
//!
//! All command logic lives here (returning the rendered output and an
//! exit code) so it is unit-testable; `main.rs` only forwards.
//!
//! Flag parsing is strict: every command declares the flags it accepts,
//! and an unknown flag or malformed value is an error (exit code 2 from
//! the binary) rather than being silently ignored.

pub mod serve;

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;

use mpl_cfg::Cfg;
use mpl_core::diagnostics::diagnose;
use mpl_core::{
    analyze_cfg, analyze_cfg_with, classify, info_flow, mpi_cfg_topology, summary_json_line,
    AnalysisConfig, AnalysisRequest, AnalysisRequestBuilder, BatchResponse, Client, ObserverStack,
    RequestBatch, StatsObserver, TraceObserver, Verdict,
};
use mpl_lang::{corpus, parse_program};
use mpl_sim::{Schedule, SendMode, SimConfig, Simulator};

/// A rendered command outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text to print on stdout.
    pub text: String,
    /// Process exit code.
    pub code: i32,
}

fn ok(text: String) -> CmdOutput {
    CmdOutput { text, code: 0 }
}

/// Parsed command-line flags, validated against a per-command spec.
///
/// Value flags may repeat (`--set a=1 --set b=2`); [`Flags::value`]
/// returns the last occurrence, [`Flags::values`] all of them.
#[derive(Debug, Default)]
pub(crate) struct Flags {
    values: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args` strictly: every argument must be a flag named in
    /// `value_flags` (consumes the following argument) or `switch_flags`.
    pub(crate) fn parse(
        args: &[String],
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if value_flags.contains(&arg) {
                let Some(value) = args.get(i + 1) else {
                    return Err(format!("missing value for `{arg}`"));
                };
                flags
                    .values
                    .entry(arg.to_owned())
                    .or_default()
                    .push(value.clone());
                i += 2;
            } else if switch_flags.contains(&arg) {
                flags.switches.push(arg.to_owned());
                i += 1;
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(flags)
    }

    /// The last value given for `name`, if any.
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every value given for `name`, in order.
    fn values(&self, name: &str) -> &[String] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// True if the switch `name` was given.
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses the value of `name` as `T`, or returns `default` when the
    /// flag is absent. Malformed values report the flag they came from.
    pub(crate) fn parse_value<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for `{name}`")),
        }
    }
}

/// Runs a full command line (without the leading program name) against
/// `source` (the contents of the program file named in `args[1]` — the
/// caller resolves the path so this stays testable). `analyze-corpus`
/// takes no file; its `source` is ignored.
///
/// # Errors
///
/// Returns a description of invalid usage or a parse failure.
pub fn run_command(args: &[String], source: &str) -> Result<CmdOutput, Box<dyn Error>> {
    let Some(cmd) = args.first() else {
        return Err(usage().into());
    };
    if cmd == "analyze-corpus" {
        return cmd_analyze_corpus(&args[1..]).map_err(Into::into);
    }
    if cmd == "serve" {
        return serve::cmd_serve(&args[1..]).map_err(Into::into);
    }
    if cmd == "client" {
        return serve::cmd_client(&args[1..]).map_err(Into::into);
    }
    let program = parse_program(source)?;
    let cfg = Cfg::build(&program);
    let rest = &args[2.min(args.len())..];
    match cmd.as_str() {
        "analyze" => cmd_analyze(program, &cfg, rest),
        "run" => cmd_run(&cfg, rest),
        "check" => cmd_check(&cfg, rest),
        "dot" => {
            Flags::parse(rest, &[], &[])?;
            Ok(ok(mpl_cfg::dot::to_dot(&cfg, "mpl")))
        }
        "flow" => cmd_flow(&cfg, rest),
        "mpicfg" => {
            Flags::parse(rest, &[], &[])?;
            cmd_mpicfg(&cfg)
        }
        "rewrite" => {
            Flags::parse(rest, &[], &[])?;
            cmd_rewrite(&program, &cfg)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

/// The usage string.
#[must_use]
pub fn usage() -> &'static str {
    "usage:\n  \
     mpl analyze <file> [--client simple|cartesian] [--min-np N] [--trace] [--stats] [--json]\n  \
     mpl analyze-corpus  [--dir D] [--jobs N] [--client simple|cartesian] [--min-np N]\n              \
     [--timeout-ms T] [--retries R] [--keep-going] [--json] [--timing]\n  \
     mpl serve   (--socket PATH | --tcp ADDR) [--cache N] [--cache-dir D] [--compact-every N]\n              \
     [--max-in-flight N] [--max-line-bytes N] [--drain-timeout-ms T]\n              \
     [--quota-rps N] [--quota-burst N]\n              \
     [--client simple|cartesian] [--min-np N] [--timeout-ms T] [--retries R]\n  \
     mpl client  (--socket PATH | --tcp ADDR) [--op analyze|stats|ping|shutdown]\n              \
     [--mode drain|abort] [--file F] [--name N] [--client C] [--client-id ID]\n              \
     [--min-np N] [--timeout-ms T] [--retries R]\n  \
     mpl run     <file> --np N [--seed S] [--rendezvous] [--set var=val]...\n  \
     mpl check   <file>\n  \
     mpl dot     <file>\n  \
     mpl flow    <file> --source var[,var...]\n  \
     mpl mpicfg  <file>\n  \
     mpl rewrite <file>"
}

pub(crate) fn parse_client(flags: &Flags) -> Result<Client, String> {
    match flags.value("--client") {
        None => Ok(Client::default()),
        Some(tag) => Client::from_tag(tag).ok_or_else(|| format!("unknown client `{tag}`")),
    }
}

/// `mpl analyze`: `cfg` is the graph of `program`, which the request
/// takes over, so every mode holds one AST and one CFG.
fn cmd_analyze(
    program: mpl_lang::ast::Program,
    cfg: &Cfg,
    args: &[String],
) -> Result<CmdOutput, Box<dyn Error>> {
    let flags = Flags::parse(
        args,
        &["--client", "--min-np"],
        &["--trace", "--stats", "--json"],
    )?;
    let client = parse_client(&flags)?;
    let min_np = flags.parse_value("--min-np", AnalysisConfig::default().min_np)?;
    let trace = flags.switch("--trace");
    let stats = flags.switch("--stats");
    let json = flags.switch("--json");
    if json && (trace || stats) {
        return Err("`--json` cannot be combined with `--trace`/`--stats`".into());
    }
    // Every analysis goes through the unified request API; `--trace` /
    // `--stats` re-run the same validated configuration under an
    // observer stack (observers are out-of-band instrumentation, not
    // part of the request/response wire contract).
    let request = AnalysisRequest::builder()
        .program(program)
        .config(AnalysisConfig {
            client,
            min_np,
            ..AnalysisConfig::default()
        })
        .build()?;
    if json {
        // The exact bytes the daemon serves (and caches) for this
        // program/config — the byte-identity contract of `mpl serve`.
        let response = request.execute_on(cfg);
        let exact = response.result.as_ref().is_some_and(|r| r.is_exact());
        return Ok(CmdOutput {
            text: format!("{}\n", response.json_line(false)),
            code: i32::from(!exact),
        });
    }

    let mut tracer = TraceObserver::new();
    let mut stats_obs = StatsObserver::new();
    let result = if trace || stats {
        let mut stack = ObserverStack::new();
        if trace {
            stack.push(&mut tracer);
        }
        if stats {
            stack.push(&mut stats_obs);
        }
        analyze_cfg_with(cfg, &request.config, &mut stack)
    } else {
        let response = request.execute_on(cfg);
        match response.result {
            Some(result) => result,
            // Only reachable if the engine itself panicked; the request
            // layer isolated it — report instead of crashing.
            None => {
                return Ok(CmdOutput {
                    text: format!("analysis failed: {}\n", response.outcome),
                    code: 1,
                });
            }
        }
    };

    let mut out = String::new();
    if trace {
        for line in tracer.lines() {
            let _ = writeln!(out, "{line}");
        }
    }
    let _ = writeln!(out, "verdict: {:?}", result.verdict);
    out.push_str(&result.render_topology());
    let pattern = classify(&result);
    let _ = writeln!(out, "pattern: {pattern}");
    if let Some(hint) = pattern.collective_hint() {
        let _ = writeln!(out, "hint: {hint}");
    }
    for p in &result.prints {
        if let Some(v) = p.value {
            let _ = writeln!(
                out,
                "print at {} for ranks {}: constant {v}",
                p.node, p.range
            );
        }
    }
    for d in diagnose(cfg, &result) {
        let _ = writeln!(out, "diagnostic: {d}");
    }
    if stats {
        let cs = &result.closure_stats;
        let _ = writeln!(
            out,
            "closure stats: {} full (avg {:.1} vars), {} incremental (avg {:.1} vars), {:?} in closure",
            cs.full_closures,
            cs.avg_full_vars(),
            cs.incremental_closures,
            cs.avg_incremental_vars(),
            cs.closure_time(),
        );
        if let Some(profile) = stats_obs.profile() {
            let _ = writeln!(out, "engine events: {}", profile.events());
            let _ = writeln!(out, "engine phases: {profile}");
            let _ = writeln!(
                out,
                "stored states: {} locations, peak {} live, ~{} bytes held at end \
                 (shared substructure deduplicated)",
                profile.stored.locations, profile.stored.peak_live, profile.stored.approx_bytes,
            );
        }
    }
    let code = i32::from(!result.is_exact());
    Ok(CmdOutput { text: out, code })
}

/// Runs a corpus — the built-in one, or every `.mpl` file under `--dir`
/// — through a [`RequestBatch`], one request per program.
///
/// Output is deterministic for any `--jobs` value; only the `--timing`
/// fields (wall times, panic worker ids) vary between runs, so
/// reproducibility checks must omit that switch. A non-exact verdict is
/// not a CLI failure here (unlike `mpl analyze`) — the corpus
/// intentionally contains deadlocking and inconclusive programs — but a
/// job that *fails to produce an analysis* (panicked, timed out, or
/// unparseable) exits 1 unless `--keep-going` is given.
fn cmd_analyze_corpus(args: &[String]) -> Result<CmdOutput, String> {
    let flags = Flags::parse(
        args,
        &[
            "--jobs",
            "--client",
            "--min-np",
            "--dir",
            "--timeout-ms",
            "--retries",
        ],
        &["--json", "--timing", "--keep-going"],
    )?;
    let jobs: usize = flags.parse_value("--jobs", 1)?;
    if jobs == 0 {
        return Err("invalid value `0` for `--jobs`".to_owned());
    }
    let client = parse_client(&flags)?;
    let min_np: i64 = flags.parse_value("--min-np", AnalysisConfig::default().min_np)?;
    let timeout_ms: u64 = flags.parse_value("--timeout-ms", 0)?;
    let retries: u32 = flags.parse_value("--retries", 0)?;
    let keep_going = flags.switch("--keep-going");
    let json = flags.switch("--json");
    let timing = flags.switch("--timing");

    let mut policy = AnalysisRequest::builder().retries(retries);
    if timeout_ms > 0 {
        policy = policy.timeout(Duration::from_millis(timeout_ms));
    }
    let mut batch = RequestBatch::new().workers(jobs);
    if let Some(dir) = flags.value("--dir") {
        push_corpus_dir(&mut batch, dir, &policy, client, min_np)?;
    } else {
        for prog in corpus::all() {
            let request = policy
                .clone()
                .name(prog.name)
                .program(prog.program)
                .config(AnalysisConfig {
                    client,
                    min_np: min_np.max(i64::try_from(prog.min_procs).unwrap_or(i64::MAX)),
                    ..AnalysisConfig::default()
                })
                .build()
                .map_err(|e| e.to_string())?;
            batch.push(request);
        }
    }
    let done = batch.run();

    let text = if json {
        render_corpus_json(&done, timing)
    } else {
        render_corpus_text(&done, timing)
    };
    let code = i32::from(!keep_going && done.summary.failures() > 0);
    Ok(CmdOutput { text, code })
}

/// Queues every `.mpl` file under `dir` as a request built from
/// `policy` (sorted by file name, so request order — and hence the
/// report — is independent of directory enumeration order). A file that
/// fails to read or parse becomes a
/// [`JobOutcome::Error`](mpl_core::JobOutcome::Error) record in its
/// slot instead of aborting the run; `// mpl:fault=...` directives in
/// the source are honored.
fn push_corpus_dir(
    batch: &mut RequestBatch,
    dir: &str,
    policy: &AnalysisRequestBuilder,
    client: Client,
    min_np: i64,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read `{dir}`: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "mpl"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .mpl files in `{dir}`"));
    }
    // Knob validation happens once, up front — a bad `--min-np` aborts
    // the run instead of failing every file individually.
    let defaults = AnalysisConfig {
        client,
        min_np,
        ..AnalysisConfig::default()
    };
    defaults.validate().map_err(|e| e.to_string())?;
    for path in paths {
        let name = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let source = match std::fs::read_to_string(&path) {
            Ok(source) => source,
            Err(e) => {
                batch.push_error(name, format!("read error: {e}"), client);
                continue;
            }
        };
        match policy
            .clone()
            .name(&name)
            .source(source)
            .config(defaults.clone())
            .honor_fault_directive(true)
            .build()
        {
            Ok(request) => batch.push(request),
            Err(e) => batch.push_error(name, e.to_string(), client),
        }
    }
    Ok(())
}

fn render_corpus_text(done: &BatchResponse, timing: bool) -> String {
    let mut out = String::new();
    for response in &done.responses {
        let _ = writeln!(out, "{}", response.text_line(timing));
    }
    let s = &done.summary;
    let _ = write!(
        out,
        "summary: programs={} exact={} deadlock={} top={} matches={} leaks={} steps={}",
        s.programs, s.exact, s.deadlock, s.top, s.matches, s.leaks, s.steps
    );
    if timing {
        let _ = write!(
            out,
            " cpu_ms={:.3} workers={}",
            s.wall_nanos as f64 / 1e6,
            done.workers
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "outcomes: completed={} degraded={} timed_out={} panicked={} errors={}",
        s.completed, s.degraded, s.timed_out, s.panicked, s.errors
    );
    let _ = writeln!(
        out,
        "closures: full={} incremental={}",
        s.closure.full_closures, s.closure.incremental_closures
    );
    out
}

fn render_corpus_json(done: &BatchResponse, timing: bool) -> String {
    let mut out = String::new();
    for response in &done.responses {
        let _ = writeln!(out, "{}", response.json_line(timing));
    }
    let _ = writeln!(
        out,
        "{}",
        summary_json_line(&done.summary, done.workers, timing)
    );
    out
}

fn cmd_run(cfg: &Cfg, args: &[String]) -> Result<CmdOutput, Box<dyn Error>> {
    let flags = Flags::parse(args, &["--np", "--seed", "--set"], &["--rendezvous"])?;
    let np: u64 = flags
        .value("--np")
        .ok_or("missing --np")?
        .parse()
        .map_err(|_| "invalid value for `--np`")?;
    if np == 0 {
        return Err("invalid value `0` for `--np`: need at least one process".into());
    }
    let mut config = SimConfig::default();
    if let Some(seed) = flags.value("--seed") {
        config.schedule = Schedule::Random {
            seed: seed.parse().map_err(|_| "invalid value for `--seed`")?,
        };
    }
    if flags.switch("--rendezvous") {
        config.send_mode = SendMode::Rendezvous;
    }
    let mut initial: BTreeMap<String, i64> = BTreeMap::new();
    for kv in flags.values("--set") {
        let (k, v) = kv.split_once('=').ok_or("expected --set var=val")?;
        initial.insert(k.to_owned(), v.parse()?);
    }
    config.initial_vars = initial;

    let outcome = Simulator::from_cfg(cfg.clone(), np)
        .with_config(config)
        .run()?;
    let mut out = String::new();
    let _ = writeln!(out, "status: {:?}", outcome.status);
    for (rank, prints) in outcome.prints.iter().enumerate() {
        if !prints.is_empty() {
            let _ = writeln!(out, "rank {rank} printed: {prints:?}");
        }
    }
    let _ = writeln!(out, "messages delivered: {}", outcome.topology.len());
    for leak in &outcome.leaks {
        let _ = writeln!(
            out,
            "leak: message from rank {} to rank {} (send {})",
            leak.sender, leak.receiver, leak.send_node
        );
    }
    let code = i32::from(!outcome.is_complete() || !outcome.leaks.is_empty());
    Ok(CmdOutput { text: out, code })
}

fn cmd_check(cfg: &Cfg, args: &[String]) -> Result<CmdOutput, Box<dyn Error>> {
    Flags::parse(args, &[], &[])?;
    let result = analyze_cfg(cfg, &AnalysisConfig::default());
    let diags = diagnose(cfg, &result);
    let mut out = String::new();
    if diags.is_empty() {
        let _ = writeln!(
            out,
            "ok: communication matched exactly, no leaks, no deadlock"
        );
        return Ok(ok(out));
    }
    for d in &diags {
        let _ = writeln!(out, "{d}");
    }
    Ok(CmdOutput { text: out, code: 1 })
}

fn cmd_flow(cfg: &Cfg, args: &[String]) -> Result<CmdOutput, Box<dyn Error>> {
    let flags = Flags::parse(args, &["--source"], &[])?;
    let sources: Vec<&str> = flags
        .value("--source")
        .ok_or("missing --source")?
        .split(',')
        .collect();
    let result = analyze_cfg(cfg, &AnalysisConfig::default());
    let mut out = String::new();
    if !result.is_exact() {
        let _ = writeln!(
            out,
            "warning: verdict {:?}; falling back to the MPI-CFG over-approximation",
            result.verdict
        );
        let baseline = mpi_cfg_topology(cfg);
        let flow = mpl_core::info_flow_with_pairs(cfg, baseline.pairs());
        render_flow(&mut out, &flow, &sources);
        return Ok(CmdOutput { text: out, code: 2 });
    }
    let flow = info_flow(cfg, &result);
    render_flow(&mut out, &flow, &sources);
    Ok(ok(out))
}

fn render_flow(out: &mut String, flow: &mpl_core::InfoFlow, sources: &[&str]) {
    let tainted = flow.tainted_from(sources);
    let _ = writeln!(
        out,
        "tainted variables: {}",
        tainted.into_iter().collect::<Vec<_>>().join(", ")
    );
    let leaks = flow.leaking_prints(sources);
    if leaks.is_empty() {
        let _ = writeln!(out, "no print statement can output the sources");
    } else {
        for node in leaks {
            let _ = writeln!(out, "possible leak at print {node}");
        }
    }
}

fn cmd_rewrite(program: &mpl_lang::ast::Program, cfg: &Cfg) -> Result<CmdOutput, Box<dyn Error>> {
    let result = analyze_cfg(cfg, &AnalysisConfig::default());
    match mpl_core::rewrite_broadcast(program, cfg, &result) {
        Ok(tree) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "// fan-out broadcast detected; rewritten to a binomial tree:"
            );
            let _ = write!(out, "{tree}");
            Ok(ok(out))
        }
        Err(e) => Ok(CmdOutput {
            text: format!("no rewrite: {e}\n"),
            code: 1,
        }),
    }
}

fn cmd_mpicfg(cfg: &Cfg) -> Result<CmdOutput, Box<dyn Error>> {
    let baseline = mpi_cfg_topology(cfg);
    let result = analyze_cfg(cfg, &AnalysisConfig::default());
    let mut out = String::new();
    let _ = write!(out, "{baseline}");
    match &result.verdict {
        Verdict::Exact => {
            let _ = writeln!(
                out,
                "pCFG analysis: exact with {} statement pairs ({} fewer than MPI-CFG)",
                result.matches.len(),
                baseline.pairs().len().saturating_sub(result.matches.len())
            );
        }
        other => {
            let _ = writeln!(out, "pCFG analysis verdict: {other:?}");
        }
    }
    Ok(ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str], source: &str) -> CmdOutput {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run_command(&args, source).expect("command runs")
    }

    fn run_err(args: &[&str], source: &str) -> String {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run_command(&args, source).unwrap_err().to_string()
    }

    #[test]
    fn analyze_reports_verdict_pattern_and_constants() {
        let prog = corpus::fig2_exchange();
        let out = run(&["analyze", "f.mpl", "--client", "simple"], &prog.source);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("verdict: Exact"));
        assert!(out.text.contains("pattern: pair-exchange"));
        assert!(out.text.contains("constant 5"));
    }

    #[test]
    fn analyze_stats_flag_reports_closure_counts() {
        let prog = corpus::fig2_exchange();
        let out = run(
            &["analyze", "f.mpl", "--client", "simple", "--stats"],
            &prog.source,
        );
        assert_eq!(out.code, 0);
        assert!(out.text.contains("closure stats:"));
        assert!(out.text.contains("full"));
        assert!(out.text.contains("incremental"));
        assert!(out.text.contains("engine events:"), "{}", out.text);
        assert!(out.text.contains("widenings"), "{}", out.text);
        let phases = out.text.lines().find(|l| l.starts_with("engine phases:"));
        assert!(
            phases.is_some_and(|l| !l.contains("stored")),
            "{}",
            out.text
        );
        // fig. 2 visits 13 locations, but the store never holds more than
        // the few its queued states can still reach; only this line says so.
        assert!(
            out.text
                .contains("stored states: 13 locations, peak 4 live, ~"),
            "{}",
            out.text
        );
    }

    #[test]
    fn analyze_trace_flag_streams_engine_steps() {
        let prog = corpus::fig2_exchange();
        let out = run(
            &[
                "analyze", "f.mpl", "--client", "simple", "--trace", "--stats",
            ],
            &prog.source,
        );
        assert_eq!(out.code, 0);
        assert!(out.text.contains("step 1:"), "{}", out.text);
        assert!(out.text.contains("match:"), "{}", out.text);
        assert!(out.text.contains("engine events:"), "{}", out.text);
    }

    #[test]
    fn analyze_nonexact_exits_nonzero() {
        let prog = corpus::ring_uniform();
        let out = run(&["analyze", "f.mpl"], &prog.source);
        assert_eq!(out.code, 1);
        assert!(out.text.contains("Top"));
    }

    #[test]
    fn run_simulates_and_reports_prints() {
        let prog = corpus::fig2_exchange();
        let out = run(&["run", "f.mpl", "--np", "4"], &prog.source);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("rank 0 printed: [5]"));
        assert!(out.text.contains("rank 1 printed: [5]"));
    }

    #[test]
    fn run_with_seed_and_set() {
        let prog = corpus::stencil_2d_vertical(corpus::GridDims::Symbolic);
        let out = run(
            &[
                "run", "f.mpl", "--np", "9", "--seed", "7", "--set", "nrows=3", "--set", "ncols=3",
            ],
            &prog.source,
        );
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("messages delivered: 6"));
    }

    #[test]
    fn run_flags_leaks_with_nonzero_exit() {
        let prog = corpus::message_leak();
        let out = run(&["run", "f.mpl", "--np", "3"], &prog.source);
        assert_eq!(out.code, 1);
        assert!(out.text.contains("leak: message from rank 0 to rank 1"));
    }

    #[test]
    fn check_clean_and_dirty() {
        let clean = run(&["check", "f.mpl"], &corpus::exchange_with_root().source);
        assert_eq!(clean.code, 0);
        assert!(clean.text.contains("ok:"));
        let dirty = run(&["check", "f.mpl"], &corpus::deadlock_pair().source);
        assert_eq!(dirty.code, 1);
        assert!(dirty.text.contains("deadlock"));
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = run(&["dot", "f.mpl"], "x := 1;");
        assert!(out.text.starts_with("digraph mpl"));
    }

    #[test]
    fn flow_reports_leaking_prints() {
        let out = run(
            &["flow", "f.mpl", "--source", "x"],
            &corpus::fig2_exchange().source,
        );
        assert_eq!(out.code, 0);
        assert!(out.text.contains("possible leak at print"));
    }

    #[test]
    fn mpicfg_compares_against_pcfg() {
        let out = run(&["mpicfg", "f.mpl"], &corpus::mdcask_full().source);
        assert!(out.text.contains("MPI-CFG topology"));
        assert!(out.text.contains("pCFG analysis: exact"));
    }

    #[test]
    fn unknown_command_and_bad_flags_error() {
        let args = vec!["frobnicate".to_owned()];
        assert!(run_command(&args, "x := 1;").is_err());
        let args: Vec<String> = ["run", "f.mpl"].iter().map(|s| (*s).to_owned()).collect();
        assert!(run_command(&args, "x := 1;").is_err()); // missing --np
        let args: Vec<String> = ["analyze", "f.mpl", "--client", "quantum"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(run_command(&args, "x := 1;").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        let err = run_err(&["analyze", "f.mpl", "--bogus"], "x := 1;");
        assert!(err.contains("unknown argument `--bogus`"), "{err}");
        let err = run_err(&["check", "f.mpl", "--verbose"], "x := 1;");
        assert!(err.contains("unknown argument `--verbose`"), "{err}");
        let err = run_err(&["dot", "f.mpl", "extra"], "x := 1;");
        assert!(err.contains("unknown argument `extra`"), "{err}");
    }

    #[test]
    fn malformed_flag_values_are_rejected() {
        let err = run_err(&["analyze", "f.mpl", "--min-np", "many"], "x := 1;");
        assert!(err.contains("invalid value `many` for `--min-np`"), "{err}");
        let err = run_err(&["analyze", "f.mpl", "--min-np"], "x := 1;");
        assert!(err.contains("missing value for `--min-np`"), "{err}");
        let err = run_err(&["run", "f.mpl", "--np", "four"], "x := 1;");
        assert!(err.contains("invalid value for `--np`"), "{err}");
        let err = run_err(&["run", "f.mpl", "--np", "0"], "x := 1;");
        assert!(err.contains("invalid value `0` for `--np`"), "{err}");
        let err = run_err(&["analyze-corpus", "--jobs", "zero"], "");
        assert!(err.contains("invalid value `zero` for `--jobs`"), "{err}");
        let err = run_err(&["analyze-corpus", "--jobs", "0"], "");
        assert!(err.contains("invalid value `0` for `--jobs`"), "{err}");
    }

    #[test]
    fn analyze_corpus_covers_whole_corpus() {
        let out = run(&["analyze-corpus"], "");
        assert_eq!(out.code, 0);
        let n = corpus::all().len();
        assert!(out.text.contains(&format!("summary: programs={n}")));
        for prog in corpus::all() {
            assert!(out.text.contains(prog.name), "missing {}", prog.name);
        }
        assert!(out.text.contains("closures: full="));
    }

    #[test]
    fn analyze_corpus_is_deterministic_across_jobs() {
        let base = run(&["analyze-corpus"], "");
        for jobs in ["2", "4", "8"] {
            let par = run(&["analyze-corpus", "--jobs", jobs], "");
            assert_eq!(base.text, par.text, "output diverged at --jobs {jobs}");
        }
        let base_json = run(&["analyze-corpus", "--json"], "");
        let par_json = run(&["analyze-corpus", "--json", "--jobs", "8"], "");
        assert_eq!(base_json.text, par_json.text);
    }

    #[test]
    fn analyze_corpus_json_lines_are_well_formed() {
        let out = run(&["analyze-corpus", "--json", "--jobs", "2"], "");
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(lines.len(), corpus::all().len() + 1);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"type\":\"program\""));
        assert!(lines.last().unwrap().contains("\"type\":\"summary\""));
        // Timing fields only appear with --timing.
        assert!(!out.text.contains("wall_nanos"));
        let timed = run(&["analyze-corpus", "--json", "--timing"], "");
        assert!(timed.text.contains("wall_nanos"));
    }

    /// Creates a unique scratch corpus directory populated with `files`
    /// (name, contents) and returns its path.
    fn scratch_corpus(label: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mpl-cli-test-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        for (name, contents) in files {
            std::fs::write(dir.join(name), contents).expect("write corpus file");
        }
        dir
    }

    #[test]
    fn analyze_corpus_dir_isolates_faults_and_parse_errors() {
        let good = corpus::fig2_exchange().source;
        let poison = format!("// mpl:fault=panic\n{good}");
        let spinner = format!("// mpl:fault=spin\n{good}");
        let dir = scratch_corpus(
            "faults",
            &[
                ("a_good.mpl", good.as_str()),
                ("b_poison.mpl", poison.as_str()),
                ("c_spin.mpl", spinner.as_str()),
                ("d_broken.mpl", "x := ;"),
                ("ignored.txt", "not a program"),
            ],
        );
        let dir_arg = dir.to_str().unwrap();
        let out = run(
            &[
                "analyze-corpus",
                "--dir",
                dir_arg,
                "--jobs",
                "4",
                "--timeout-ms",
                "200",
                "--keep-going",
            ],
            "",
        );
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("a_good: verdict=exact"), "{}", out.text);
        assert!(
            out.text.contains("b_poison: outcome=panicked"),
            "{}",
            out.text
        );
        assert!(
            out.text
                .contains("c_spin: verdict=top reason=deadline outcome=timed-out"),
            "{}",
            out.text
        );
        assert!(out.text.contains("d_broken: outcome=error"), "{}", out.text);
        assert!(
            out.text
                .contains("outcomes: completed=1 degraded=0 timed_out=1 panicked=1 errors=1"),
            "{}",
            out.text
        );
        // Without --keep-going the same corpus is a CLI failure.
        let strict = run(
            &["analyze-corpus", "--dir", dir_arg, "--timeout-ms", "200"],
            "",
        );
        assert_eq!(strict.code, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_corpus_dir_output_is_deterministic_across_jobs() {
        let good = corpus::fig2_exchange().source;
        let poison = format!("// mpl:fault=panic\n{good}");
        let spinner = format!("// mpl:fault=spin\n{good}");
        let dir = scratch_corpus(
            "determinism",
            &[
                ("a.mpl", good.as_str()),
                ("b_poison.mpl", poison.as_str()),
                ("c_spin.mpl", spinner.as_str()),
                ("d.mpl", good.as_str()),
            ],
        );
        let dir_arg = dir.to_str().unwrap();
        let base = run(
            &[
                "analyze-corpus",
                "--dir",
                dir_arg,
                "--timeout-ms",
                "150",
                "--keep-going",
                "--json",
            ],
            "",
        );
        for jobs in ["4", "8"] {
            let par = run(
                &[
                    "analyze-corpus",
                    "--dir",
                    dir_arg,
                    "--jobs",
                    jobs,
                    "--timeout-ms",
                    "150",
                    "--keep-going",
                    "--json",
                ],
                "",
            );
            assert_eq!(base.text, par.text, "diverged at --jobs {jobs}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_corpus_retries_degrade_top_once_fault() {
        let good = corpus::fig2_exchange().source;
        let flaky = format!("// mpl:fault=top-once\n{good}");
        let dir = scratch_corpus("retries", &[("flaky.mpl", flaky.as_str())]);
        let dir_arg = dir.to_str().unwrap();
        // No retries: the injected budget-⊤ stands, outcome completed.
        let out = run(&["analyze-corpus", "--dir", dir_arg], "");
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(
            out.text.contains("flaky: verdict=top reason=step-budget"),
            "{}",
            out.text
        );
        // One retry: the second attempt recovers, outcome degraded.
        let out = run(&["analyze-corpus", "--dir", dir_arg, "--retries", "1"], "");
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(
            out.text
                .contains("flaky: verdict=exact outcome=degraded attempts=2"),
            "{}",
            out.text
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_corpus_json_reports_outcomes() {
        let good = corpus::fig2_exchange().source;
        let poison = format!("// mpl:fault=panic\n{good}");
        let dir = scratch_corpus(
            "json-outcomes",
            &[("a.mpl", good.as_str()), ("b_poison.mpl", poison.as_str())],
        );
        let dir_arg = dir.to_str().unwrap();
        let out = run(
            &["analyze-corpus", "--dir", dir_arg, "--keep-going", "--json"],
            "",
        );
        assert_eq!(out.code, 0);
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"outcome\":\"completed\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"outcome\":\"panicked\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"verdict\":null"), "{}", lines[1]);
        assert!(lines[1].contains("\"detail\":\""), "{}", lines[1]);
        assert!(
            lines[2].contains(
                "\"completed\":1,\"degraded\":0,\"timed_out\":0,\"panicked\":1,\"errors\":0"
            ),
            "{}",
            lines[2]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_emits_tree_broadcast() {
        let out = run(&["rewrite", "f.mpl"], &corpus::fanout_broadcast().source);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("binomial tree"));
        assert!(out.text.contains("while (mpl_k < np)"));
        // The emitted program is valid MPL.
        let body = out.text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(mpl_lang::parse_program(&body).is_ok());
        // Non-broadcasts are refused.
        let no = run(
            &["rewrite", "f.mpl"],
            &corpus::nearest_neighbor_shift().source,
        );
        assert_eq!(no.code, 1);
    }

    #[test]
    fn parse_errors_surface() {
        let args: Vec<String> = ["check", "f.mpl"].iter().map(|s| (*s).to_owned()).collect();
        let err = run_command(&args, "x := ;").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }
}
