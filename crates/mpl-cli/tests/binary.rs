//! End-to-end tests of the actual `mpl` binary (spawned as a process).

use std::io::Write as _;
use std::process::Command;

fn run_mpl(args: &[&str], source: &str) -> (String, String, i32) {
    let mut file = tempfile();
    file.write_all(source.as_bytes())
        .expect("write temp program");
    let path = file.path().to_owned();
    let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .arg(args[0])
        .arg(&path)
        .args(&args[1..])
        .output()
        .expect("spawn mpl");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn tempfile() -> tempfile_shim::NamedTemp {
    tempfile_shim::NamedTemp::new()
}

/// A minimal named-temp-file helper (avoids an external dependency).
mod tempfile_shim {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct NamedTemp {
        path: PathBuf,
        file: std::fs::File,
    }

    impl NamedTemp {
        pub fn new() -> NamedTemp {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("mpl-cli-test-{}-{n}.mpl", std::process::id()));
            let file = std::fs::File::create(&path).expect("create temp file");
            NamedTemp { path, file }
        }

        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl std::io::Write for NamedTemp {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    impl Drop for NamedTemp {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

const EXCHANGE: &str = "\
x := 7;
if id = 0 then
  for i = 1 to np - 1 do
    send x -> i;
    recv y <- i;
  end
else
  recv y <- 0;
  send x -> 0;
end
";

#[test]
fn binary_analyze_end_to_end() {
    let (stdout, stderr, code) = run_mpl(&["analyze"], EXCHANGE);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("verdict: Exact"), "{stdout}");
    assert!(stdout.contains("exchange-with-root"), "{stdout}");
}

#[test]
fn binary_run_end_to_end() {
    let (stdout, _, code) = run_mpl(&["run", "--np", "6"], EXCHANGE);
    assert_eq!(code, 0);
    assert!(stdout.contains("status: Completed"), "{stdout}");
    assert!(stdout.contains("messages delivered: 10"), "{stdout}");
}

#[test]
fn binary_check_reports_deadlock_nonzero() {
    let deadlock = "\
if id = 0 then
  recv y <- 1;
else
  if id = 1 then
    recv y <- 0;
  end
end
";
    let (stdout, _, code) = run_mpl(&["check"], deadlock);
    assert_eq!(code, 1);
    assert!(stdout.contains("deadlock"), "{stdout}");
}

#[test]
fn binary_rejects_deep_nesting_as_a_parse_error() {
    // Both once aborted the process with a stack overflow (exit 134).
    let parens = format!("x := {}1{};\n", "(".repeat(10_000), ")".repeat(10_000));
    let ifs = format!(
        "{}skip;\n{}",
        "if id = 0 then\n".repeat(20_000),
        "end\n".repeat(20_000)
    );
    for source in [parens, ifs] {
        for cmd in ["check", "analyze"] {
            let (_, stderr, code) = run_mpl(&[cmd], &source);
            assert_eq!(code, 2, "{cmd}: {stderr}");
            assert!(stderr.contains("nesting deeper than"), "{cmd}: {stderr}");
        }
    }
}

#[test]
fn binary_reports_missing_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .args(["analyze", "/nonexistent/path.mpl"])
        .output()
        .expect("spawn mpl");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn binary_usage_on_no_args() {
    let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .output()
        .expect("spawn mpl");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn binary_analyze_corpus_runs_without_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .args(["analyze-corpus", "--jobs", "2"])
        .output()
        .expect("spawn mpl");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("summary: programs="), "{stdout}");
    assert!(stdout.contains("fig2_exchange"), "{stdout}");
}

#[test]
fn binary_rejects_unknown_flags_with_exit_2() {
    // A bad flag must produce an error on stderr and exit code 2 —
    // distinct from 0 (clean) and 1 (findings) — not be ignored.
    let (_, stderr, code) = run_mpl(&["analyze", "--frobnicate"], EXCHANGE);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("unknown argument `--frobnicate`"),
        "{stderr}"
    );

    // The retired parallel-worklist knobs are unknown flags now.
    for (name, value) in [("par", "2"), ("order", "priority")] {
        let flag = format!("--{name}");
        let (_, stderr, code) = run_mpl(&["analyze", &flag, value], EXCHANGE);
        assert_eq!(code, 2, "stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
    }

    let (_, stderr, code) = run_mpl(&["analyze", "--min-np", "lots"], EXCHANGE);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("invalid value `lots` for `--min-np`"),
        "{stderr}"
    );

    // An out-of-range knob gets the same message on every entry point
    // that takes it: `analyze`, `analyze-corpus --dir` and `serve`.
    let (_, stderr, code) = run_mpl(&["analyze", "--min-np", "0"], EXCHANGE);
    assert_eq!(code, 2);
    assert_eq!(stderr, "error: min_np must be >= 1 (got 0)\n");
    let dir = std::env::temp_dir().join(format!("mpl-cli-test-{}-min-np", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    std::fs::write(dir.join("p.mpl"), EXCHANGE).expect("write corpus program");
    let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .arg("analyze-corpus")
        .arg("--dir")
        .arg(&dir)
        .args(["--min-np", "0"])
        .output()
        .expect("spawn mpl");
    std::fs::remove_dir_all(&dir).expect("remove corpus dir");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: min_np must be >= 1 (got 0)\n"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .args(["analyze-corpus", "--jobs", "-3"])
        .output()
        .expect("spawn mpl");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_serve_end_to_end_over_unix_socket() {
    use std::io::{BufRead as _, BufReader, Read as _};
    use std::process::Stdio;

    let sock = std::env::temp_dir().join(format!("mpl-serve-{}.sock", std::process::id()));
    let sock = sock.to_str().expect("utf-8 temp path").to_owned();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .args(["serve", "--socket", &sock, "--cache", "16"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut daemon_out = BufReader::new(daemon.stdout.take().expect("piped stdout"));

    // The daemon announces readiness before its first accept.
    let mut ready = String::new();
    daemon_out.read_line(&mut ready).expect("readiness line");
    assert!(
        ready.starts_with("{\"v\":1,\"type\":\"serving\""),
        "{ready}"
    );
    assert!(ready.contains("\"transport\":\"unix\""), "{ready}");

    let mut file = tempfile();
    file.write_all(EXCHANGE.as_bytes()).expect("write program");
    let path = file.path().to_str().expect("utf-8 temp path").to_owned();
    let client = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
            .args(["client", "--socket", &sock])
            .args(args)
            .output()
            .expect("spawn client");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            out.status.code().unwrap_or(-1),
        )
    };

    // Cold, then cached: byte-identical responses, and both identical
    // to what the one-shot CLI prints for the same program.
    let (cold, code) = client(&["--file", &path]);
    assert_eq!(code, 0, "{cold}");
    assert!(cold.starts_with("{\"v\":1,\"type\":\"program\""), "{cold}");
    let (warm, code) = client(&["--file", &path]);
    assert_eq!(code, 0);
    assert_eq!(cold, warm, "cached response must be byte-identical");
    let (oneshot, stderr, code) = run_mpl(&["analyze", "--json"], EXCHANGE);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(cold, oneshot, "daemon and one-shot output must agree");

    let (stats, code) = client(&["--op", "stats"]);
    assert_eq!(code, 0);
    assert!(stats.contains("\"hits\":1"), "{stats}");
    assert!(stats.contains("\"misses\":1"), "{stats}");

    // A malformed request gets a structured error and client exit 1.
    let (err, code) = client(&["--file", &path, "--client", "quantum"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("\"code\":\"unknown-client\""), "{err}");

    let (bye, code) = client(&["--op", "shutdown"]);
    assert_eq!(code, 0);
    assert!(bye.contains("\"type\":\"shutdown\""), "{bye}");
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert_eq!(status.code(), Some(0));
    let mut rest = String::new();
    daemon_out.read_to_string(&mut rest).expect("summary");
    assert!(rest.contains("\"type\":\"shutdown-summary\""), "{rest}");
    assert!(
        !std::path::Path::new(&sock).exists(),
        "socket file must be removed on exit"
    );
}

#[test]
fn binary_serve_end_to_end_over_tcp() {
    use std::io::{BufRead as _, BufReader, Read as _};
    use std::process::{Child, Stdio};

    /// Kills the daemon if the test fails before it shuts down.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_mpl"))
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon"),
    );
    let mut daemon_out = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));

    // The readiness line carries the port the daemon bound.
    let mut ready = String::new();
    daemon_out.read_line(&mut ready).expect("readiness line");
    assert!(ready.contains("\"transport\":\"tcp\""), "{ready}");
    let addr = ready
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("readiness line names its address")
        .to_owned();
    assert!(
        addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
        "{addr}"
    );

    let mut file = tempfile();
    file.write_all(EXCHANGE.as_bytes()).expect("write program");
    let path = file.path().to_str().expect("utf-8 temp path").to_owned();
    let client = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
            .args(["client", "--tcp", &addr])
            .args(args)
            .output()
            .expect("spawn client");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    assert_eq!(client(&["--op", "ping"]), "{\"v\":1,\"type\":\"pong\"}\n");
    let served = client(&["--file", &path]);
    let (oneshot, stderr, code) = run_mpl(&["analyze", "--json"], EXCHANGE);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(served, oneshot, "daemon and one-shot output must agree");
    let stats = client(&["--op", "stats"]);
    assert!(stats.contains("\"misses\":1"), "{stats}");

    let bye = client(&["--op", "shutdown", "--mode", "drain"]);
    assert!(bye.contains("\"mode\":\"drain\""), "{bye}");
    let status = daemon.0.wait().expect("daemon exits after shutdown");
    assert_eq!(status.code(), Some(0));
    let mut rest = String::new();
    daemon_out.read_to_string(&mut rest).expect("summary");
    let records: Vec<&str> = rest.lines().collect();
    assert_eq!(records.len(), 2, "{rest}");
    assert!(
        records[0].starts_with("{\"v\":1,\"type\":\"drain\",\"completed\":true"),
        "{rest}"
    );
    assert!(
        records[1].starts_with("{\"v\":1,\"type\":\"shutdown-summary\""),
        "{rest}"
    );
}

#[test]
fn binary_serve_flag_parsing_is_strict() {
    let serve = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
            .arg("serve")
            .args(args)
            .output()
            .expect("spawn mpl");
        (
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.code().unwrap_or(-1),
        )
    };
    // All validation happens before a socket is bound: unknown flags,
    // malformed values, and transport misuse each exit 2 immediately.
    let (stderr, code) = serve(&["--socket", "/tmp/x.sock", "--frobnicate"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("unknown argument `--frobnicate`"),
        "{stderr}"
    );

    let (stderr, code) = serve(&[]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("one of `--socket PATH` or `--tcp ADDR`"),
        "{stderr}"
    );

    let (stderr, code) = serve(&["--socket", "/tmp/a.sock", "--tcp", "127.0.0.1:0"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    let (stderr, code) = serve(&["--socket", "/tmp/a.sock", "--cache", "lots"]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("invalid value `lots` for `--cache`"),
        "{stderr}"
    );

    let (stderr, code) = serve(&["--tcp", "127.0.0.1:0", "--max-in-flight", "0"]);
    assert_eq!(code, 2);
    assert!(
        stderr.contains("invalid value `0` for `--max-in-flight`"),
        "{stderr}"
    );

    let (stderr, code) = serve(&["--tcp", "127.0.0.1:0", "--min-np", "0"]);
    assert_eq!(code, 2);
    assert_eq!(stderr, "error: min_np must be >= 1 (got 0)\n");
}

#[test]
fn shipped_sample_programs_work() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let run_on = |cmd: &str, file: &str, extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mpl"))
            .arg(cmd)
            .arg(format!("{root}/{file}"))
            .args(extra)
            .output()
            .expect("spawn mpl");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            out.status.code().unwrap_or(-1),
        )
    };
    let (out, code) = run_on("analyze", "exchange.mpl", &[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("exchange-with-root"));

    let (out, code) = run_on("analyze", "transpose.mpl", &[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("partner-exchange"));

    let (out, code) = run_on("analyze", "shift.mpl", &[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("shift(+1)"));

    let (_, code) = run_on("check", "leak.mpl", &[]);
    assert_eq!(code, 1, "leak must be flagged");

    let (out, code) = run_on("flow", "secret.mpl", &["--source", "secret"]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(out.matches("possible leak").count(), 1, "{out}");

    let (out, code) = run_on(
        "run",
        "transpose.mpl",
        &["--np", "9", "--set", "nrows=3", "--set", "ncols=3"],
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("status: Completed"));
}
