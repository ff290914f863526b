//! `mpl-benchmark`: the repository's benchmark of the `mpl` analyzer.
//!
//! ```text
//! mpl-benchmark run     --workload <name|all> --seed N [--seconds S] [options]
//! mpl-benchmark trace   --workload <name|all> --seed N [--seconds S] [options]
//! mpl-benchmark compare <parent-dir> <change-dir> [--rules BENCHMARK.json]
//! mpl-benchmark --workload <name> --seed N --seconds S --trace <0|1> [options]
//!
//! options: --mpl PATH       the `mpl` binary (default: next to this one)
//!          --work DIR       traces, results and scratch files
//!                           (default: $CARGO_TARGET_DIR/mpl-benchmark)
//!          --expected FILE  corpus answers (default: expected.ndjson)
//!          --smoke          tiny inputs, one set-up: checks the harness
//! ```
//!
//! A run prints every metric as `workload metric value unit`, a
//! provenance line, and last a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or the per-layer ones
//! of a traced run). It appends the same, with the git revision, `nproc`,
//! seed and `rustc -V`, to `<work>/results/<workload>.ndjson`, which
//! `compare` reads. A wrong answer makes the exit code 1.

mod compare;
mod daemon;
mod json;
mod programs;
mod rng;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

use workloads::{Ctx, Metric, Outcome, Tally, WORKLOADS};

/// The run length when `--seconds` is not given; `BENCHMARK.json` names
/// the same.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mpl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..], Some(false)),
        Some("trace") => run_command(&args[1..], Some(true)),
        Some("compare") => {
            let rest = &args[1..];
            let [parent, change] =
                [rest.first(), rest.get(1)].map(|a| a.filter(|a| !a.starts_with("--")));
            let (Some(parent), Some(change)) = (parent, change) else {
                return Err("usage: compare <parent-dir> <change-dir> [--rules FILE]".to_owned());
            };
            let rules = flag(&rest[2..], "--rules")?.unwrap_or("BENCHMARK.json");
            let regressed =
                compare::compare(Path::new(parent), Path::new(change), Path::new(rules))?;
            Ok(if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        Some(a) if a.starts_with("--") => run_command(args, None),
        _ => Err(
            "usage: mpl-benchmark run|trace|compare ... (see crates/mpl-benchmark/README.md)"
                .to_owned(),
        ),
    }
}

/// The value after `name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("`{name}` needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for `{name}`"))
        })
        .transpose()
}

/// Runs one workload (or all, each in a process of its own so that
/// resource accounting never mixes workloads). `trace` is fixed by the
/// subcommand or read from `--trace`.
fn run_command(args: &[String], trace: Option<bool>) -> Result<ExitCode, String> {
    const KNOWN: [&str; 8] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--mpl",
        "--work",
        "--expected",
        "--smoke",
    ];
    for a in args.iter().filter(|a| a.starts_with("--")) {
        if !KNOWN.contains(&a.as_str()) {
            return Err(format!("unknown flag `{a}`"));
        }
    }
    let workload = flag(args, "--workload")?.ok_or("`--workload` is required")?;
    let trace = match trace {
        Some(t) => t,
        None => match flag(args, "--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("invalid value `{v}` for `--trace`")),
        },
    };
    if workload == "all" {
        let me = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut worst = ExitCode::SUCCESS;
        for w in WORKLOADS {
            let mut child_args: Vec<String> = Vec::new();
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--workload" | "--trace" => i += 2,
                    a => {
                        child_args.push(a.to_owned());
                        i += 1;
                    }
                }
            }
            let status = Command::new(&me)
                .args(["--workload", w, "--trace", if trace { "1" } else { "0" }])
                .args(&child_args)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", me.display()))?;
            if !status.success() {
                eprintln!("mpl-benchmark: workload {w} failed ({status})");
                worst = ExitCode::from(1);
            }
        }
        return Ok(worst);
    }
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }

    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("`--seconds` must be positive".to_owned());
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let mpl = match flag(args, "--mpl")? {
        Some(path) => PathBuf::from(path),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("mpl"),
    };
    if !mpl.is_file() {
        return Err(format!(
            "no `mpl` binary at {} (build it, or pass --mpl)",
            mpl.display()
        ));
    }
    let work = match flag(args, "--work")? {
        Some(dir) => PathBuf::from(dir),
        None => {
            PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
                .join("mpl-benchmark")
        }
    };
    let work = relative_to_cwd(&work);
    let expected = match flag(args, "--expected")? {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => programs::EXPECTED.to_owned(),
    };
    let scratch = work.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        mpl,
        work: work.clone(),
        scratch: scratch.clone(),
        seed,
        seconds,
        smoke,
        trace,
        oracle: programs::Oracle::parse(&expected)?,
    };
    let started_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let ran = workloads::run(workload, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let (outcome, tally) = ran?;

    let provenance = Provenance::collect(seed);
    report(
        workload,
        &ctx,
        &outcome,
        &tally,
        &provenance,
        started_ms,
        &work.join("results"),
    )?;
    Ok(if tally.wrong > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `path` relative to the working directory when it lies below it:
/// unix socket paths are limited to about a hundred bytes, and the
/// daemon shares this process's working directory.
fn relative_to_cwd(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| path.to_path_buf())
}

/// Where a result came from.
struct Provenance {
    rev: String,
    nproc: usize,
    seed: u64,
    rustc: String,
}

impl Provenance {
    fn collect(seed: u64) -> Provenance {
        let output = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        Provenance {
            rev: output("git", &["rev-parse", "--short=12", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            seed,
            rustc: output("rustc", &["-V"]),
        }
    }

    fn json(&self) -> String {
        format!(
            "\"rev\":\"{}\",\"nproc\":{},\"seed\":{},\"rustc\":\"{}\"",
            json::escape(&self.rev),
            self.nproc,
            self.seed,
            json::escape(&self.rustc)
        )
    }
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A metric value as JSON: every digit as measured; a value that is not
/// a number (a ratio of empty sets) becomes 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn report(
    workload: &str,
    ctx: &Ctx,
    outcome: &Outcome,
    tally: &Tally,
    provenance: &Provenance,
    started_ms: u64,
    results: &Path,
) -> Result<(), String> {
    for note in &tally.notes {
        eprintln!("mpl-benchmark: {workload}: {note}");
    }
    let mut out = std::io::stdout().lock();
    let printed: Vec<&Metric> = if ctx.trace {
        outcome.layer.iter().collect()
    } else {
        outcome.end_to_end.iter().collect()
    };
    let saved: Vec<&Metric> = printed
        .iter()
        .copied()
        .chain(outcome.extra.iter().filter(|_| !ctx.trace))
        .collect();
    let lines = (|| -> std::io::Result<()> {
        writeln!(
            out,
            "# {workload} seed={} seconds={} trace={} rev={} nproc={} rustc={}",
            provenance.seed,
            ctx.seconds,
            ctx.trace,
            provenance.rev,
            provenance.nproc,
            provenance.rustc
        )?;
        for m in &saved {
            writeln!(out, "{workload} {} {} {}", m.name, number(m.value), m.unit)?;
        }
        let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        writeln!(out, "{workload} failed_frac {failed_frac} ratio")?;
        writeln!(out, "{workload} wrong_outputs {} count", tally.wrong)?;
        Ok(())
    })();
    lines.map_err(|e| format!("cannot write to stdout: {e}"))?;

    std::fs::create_dir_all(results)
        .map_err(|e| format!("cannot create {}: {e}", results.display()))?;
    let path = results.join(format!("{workload}.ndjson"));
    let line = format!(
        "{{\"workload\":\"{workload}\",{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"started_unix_ms\":{started_ms},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"wrong_outputs\":{},\"metrics\":{}}}\n",
        provenance.json(),
        ctx.seconds,
        ctx.trace,
        ctx.smoke,
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        tally.wrong,
        metrics_json(&saved)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;

    writeln!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&printed)
    )
    .and_then(|()| out.flush())
    .map_err(|e| format!("cannot write to stdout: {e}"))
}
