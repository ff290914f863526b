//! Chaos tests for `mpl serve`: `kill -9` mid-stream with restart
//! recovery, torn journal tails, graceful drain under load, oversized
//! request lines, deeply nested programs, and slow/half-open clients.
//! Everything the daemon must survive without corrupting state or
//! wedging.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A spawned daemon with its readiness consumed and its scratch paths.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    sock: String,
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mpl-chaos-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Spawns `mpl serve --socket <dir>/mpl.sock <extra...>` and waits for
/// the readiness line.
fn spawn_daemon(dir: &std::path::Path, extra: &[&str]) -> Daemon {
    let sock = dir.join("mpl.sock");
    let _ = std::fs::remove_file(&sock);
    let sock = sock.to_str().expect("utf-8 path").to_owned();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .args(["serve", "--socket", &sock])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("readiness line");
    assert!(
        ready.starts_with("{\"v\":1,\"type\":\"serving\""),
        "{ready}"
    );
    Daemon {
        child,
        stdout,
        sock,
    }
}

/// One raw request/response round trip over a fresh connection.
fn round_trip(sock: &str, request: &str) -> String {
    let mut stream = connect(sock);
    writeln!(stream, "{request}").expect("send");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    response.trim_end_matches('\n').to_owned()
}

/// Connects with a short retry loop (daemon may still be binding).
fn connect(sock: &str) -> UnixStream {
    for _ in 0..200 {
        match UnixStream::connect(sock) {
            Ok(stream) => return stream,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("daemon never accepted on {sock}");
}

fn escape(source: &str) -> String {
    source
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn analyze_request(source: &str) -> String {
    format!(
        "{{\"op\":\"analyze\",\"client\":\"simple\",\"program\":\"{}\"}}",
        escape(source)
    )
}

/// Three distinct programs with distinct topologies.
fn programs() -> Vec<String> {
    vec![
        "x := 7;\nif id = 0 then\n  for i = 1 to np - 1 do\n    send x -> i;\n    recv y <- i;\n  end\nelse\n  recv y <- 0;\n  send x -> 0;\nend\n"
            .to_owned(),
        "a := 1;\nsend a -> id + 1;\nrecv b <- id - 1;\n".to_owned(),
        "v := 3;\nif id = 0 then\n  send v -> 1;\nelse\n  if id = 1 then\n    recv w <- 0;\n  end\nend\n"
            .to_owned(),
    ]
}

#[test]
fn kill9_midstream_then_restart_serves_byte_identical_warm_hits() {
    let dir = scratch("kill9");
    let cache_dir = dir.join("cache");
    let cache_flag = cache_dir.to_str().expect("utf-8").to_owned();
    let first = spawn_daemon(&dir, &["--cache-dir", &cache_flag]);
    let sock = first.sock.clone();

    // Phase 1: settle three analyses into the journal and record the
    // exact bytes served.
    let cold: Vec<String> = programs()
        .iter()
        .map(|p| {
            let response = round_trip(&sock, &analyze_request(p));
            assert!(response.contains("\"type\":\"program\""), "{response}");
            response
        })
        .collect();

    // Phase 2: concurrent load (repeat requests plus stats traffic)
    // racing the kill. These connections may die mid-stream — that is
    // the point — so every I/O outcome is tolerated.
    let load: Vec<_> = (0..4)
        .map(|t| {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let sources = programs();
                for round in 0..50 {
                    let Ok(mut stream) = UnixStream::connect(&sock) else {
                        return;
                    };
                    let request = if round % 5 == 0 {
                        "{\"op\":\"stats\"}".to_owned()
                    } else {
                        analyze_request(&sources[(t + round) % sources.len()])
                    };
                    if writeln!(stream, "{request}").is_err() {
                        return;
                    }
                    let mut reader = BufReader::new(stream);
                    let mut response = String::new();
                    if reader.read_line(&mut response).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    let mut child = first.child;
    child.kill().expect("SIGKILL the daemon"); // Child::kill is SIGKILL on unix
    let _ = child.wait();
    for worker in load {
        let _ = worker.join();
    }

    // Phase 3: restart on the same cache dir. The journal must replay
    // (tolerating whatever tail the kill left) and serve byte-identical
    // responses as warm hits.
    let second = spawn_daemon(&dir, &["--cache-dir", &cache_flag]);
    let warm: Vec<String> = programs()
        .iter()
        .map(|p| round_trip(&second.sock, &analyze_request(p)))
        .collect();
    assert_eq!(cold, warm, "restart must not change a single byte");
    let stats = round_trip(&second.sock, "{\"op\":\"stats\"}");
    let replayed = counter(&stats, "replayed");
    let hits = counter(&stats, "hits");
    assert!(
        replayed >= 3,
        "phase-1 entries must survive the kill: {stats}"
    );
    assert!(hits >= 1, "at least one warm hit after restart: {stats}");

    // The recovered bytes equal what the one-shot CLI prints today.
    let file = dir.join("prog.mpl");
    std::fs::write(&file, &programs()[0]).expect("write program");
    let oneshot = Command::new(env!("CARGO_BIN_EXE_mpl"))
        .args([
            "analyze",
            file.to_str().expect("utf-8"),
            "--json",
            "--client",
            "simple",
        ])
        .output()
        .expect("one-shot analyze");
    assert_eq!(
        warm[0],
        String::from_utf8_lossy(&oneshot.stdout).trim_end_matches('\n'),
        "daemon, journal, and one-shot CLI must agree"
    );

    shutdown_clean(second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_recovered_not_fatal() {
    let dir = scratch("torn");
    let cache_dir = dir.join("cache");
    let cache_flag = cache_dir.to_str().expect("utf-8").to_owned();
    let first = spawn_daemon(&dir, &["--cache-dir", &cache_flag]);
    let expected = round_trip(&first.sock, &analyze_request(&programs()[0]));
    assert!(expected.contains("\"type\":\"program\""), "{expected}");
    let second_entry = round_trip(&first.sock, &analyze_request(&programs()[1]));
    assert!(
        second_entry.contains("\"type\":\"program\""),
        "{second_entry}"
    );
    shutdown_clean(first);

    // Tear the journal mid-record and add trailing garbage — a worse
    // tail than any real crash produces.
    let journal = cache_dir.join("cache-journal.ndjson");
    let mut data = std::fs::read(&journal).expect("journal exists");
    data.truncate(data.len() - 17);
    data.extend_from_slice(b"\xff\xfegarbage without newline");
    std::fs::write(&journal, &data).expect("tear journal");

    let daemon = spawn_daemon(&dir, &["--cache-dir", &cache_flag]);
    let warm = round_trip(&daemon.sock, &analyze_request(&programs()[0]));
    assert_eq!(warm, expected, "surviving entry replays byte-identical");
    let stats = round_trip(&daemon.sock, "{\"op\":\"stats\"}");
    assert_eq!(counter(&stats, "replayed"), 1, "{stats}");
    assert_eq!(counter(&stats, "hits"), 1, "{stats}");
    // The torn second entry recomputes to the same bytes and re-journals.
    let recomputed = round_trip(&daemon.sock, &analyze_request(&programs()[1]));
    assert_eq!(recomputed, second_entry);
    shutdown_clean(daemon);

    // After truncation + recompute, a third life replays both cleanly.
    let daemon = spawn_daemon(&dir, &["--cache-dir", &cache_flag]);
    let stats = round_trip(&daemon.sock, "{\"op\":\"stats\"}");
    assert_eq!(counter(&stats, "replayed"), 2, "{stats}");
    shutdown_clean(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_finishes_in_flight_requests_before_exit() {
    let dir = scratch("drain");
    let daemon = spawn_daemon(&dir, &["--drain-timeout-ms", "10000"]);
    let sock = daemon.sock.clone();

    // A deliberately slow request: the spin fault runs until its
    // cooperative 900 ms deadline, then renders a timed-out record.
    let slow = std::thread::spawn(move || {
        let mut stream = connect(&sock);
        let request = format!(
            "{{\"op\":\"analyze\",\"client\":\"simple\",\"timeout_ms\":900,\"program\":\"{}\"}}",
            escape("// mpl:fault=spin\nx := 1;\n")
        );
        writeln!(stream, "{request}").expect("send slow request");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("slow response");
        response
    });
    // Give the slow request time to be admitted, then drain.
    std::thread::sleep(Duration::from_millis(150));
    let bye = round_trip(&daemon.sock, "{\"op\":\"shutdown\",\"mode\":\"drain\"}");
    assert_eq!(bye, "{\"v\":1,\"type\":\"shutdown\",\"mode\":\"drain\"}");

    // The in-flight spin must complete with a full response line —
    // drain means finish, not sever.
    let response = slow.join().expect("slow client thread");
    assert!(
        response.contains("\"v\":1") && response.ends_with("}\n"),
        "in-flight request must get its complete response: {response:?}"
    );

    let mut child = daemon.child;
    let mut stdout = daemon.stdout;
    let status = child.wait().expect("daemon exits after drain");
    assert_eq!(status.code(), Some(0));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("tail output");
    assert!(
        rest.contains("{\"v\":1,\"type\":\"drain\",\"completed\":true,\"abandoned\":0}"),
        "drain must report completion: {rest}"
    );
    assert!(rest.contains("\"type\":\"shutdown-summary\""), "{rest}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_line_gets_structured_error_and_daemon_stays_up() {
    let dir = scratch("oversize");
    // Room for the 20 000-byte deep line below.
    const CAP: usize = 32 * 1024;
    let daemon = spawn_daemon(&dir, &["--max-line-bytes", &CAP.to_string()]);

    let mut stream = connect(&daemon.sock);
    let huge = vec![b'x'; CAP + 8 * 1024];
    stream.write_all(&huge).expect("send oversized prefix");
    stream.write_all(b"\n").expect("newline");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("error line");
    assert!(
        response.contains("\"code\":\"line-too-long\""),
        "{response}"
    );
    assert!(response.contains(&CAP.to_string()), "{response}");
    // The connection is closed after the refusal (framing is lost).
    // The daemon closes with part of the oversized line unread, which
    // surfaces as either EOF or a connection reset — both are "closed".
    let mut rest = String::new();
    match reader.read_to_string(&mut rest) {
        Ok(_) => assert_eq!(rest, "", "connection must close after line-too-long"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected close error: {e}"
        ),
    }

    // ...but the daemon is unharmed: fresh connections serve normally,
    // and the refusal shows up in stats.
    let pong = round_trip(&daemon.sock, "{\"op\":\"ping\"}");
    assert_eq!(pong, "{\"v\":1,\"type\":\"pong\"}");
    // A line nested 20 000 deep fits the cap but not the JSON parser's
    // depth limit: one `bad-json` record, and the same connection
    // answers its next line.
    let mut stream = connect(&daemon.sock);
    writeln!(stream, "{}", "[".repeat(20_000)).expect("send deep line");
    writeln!(stream, "{{\"op\":\"ping\"}}").expect("send ping");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("deep line reply");
    assert!(response.contains("\"code\":\"bad-json\""), "{response}");
    response.clear();
    reader.read_line(&mut response).expect("ping reply");
    assert_eq!(response, "{\"v\":1,\"type\":\"pong\"}\n");
    let stats = round_trip(&daemon.sock, "{\"op\":\"stats\"}");
    assert_eq!(counter(&stats, "oversize"), 1, "{stats}");
    // A line of exactly the cap still parses.
    let exact = format!("{{\"op\":\"ping\"}}{}", " ".repeat(CAP - 13));
    assert_eq!(exact.len(), CAP);
    assert_eq!(
        round_trip(&daemon.sock, &exact),
        "{\"v\":1,\"type\":\"pong\"}"
    );

    shutdown_clean(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_program_gets_parse_error_and_daemon_stays_up() {
    let dir = scratch("deep-source");
    let daemon = spawn_daemon(&dir, &[]);
    // 10 000 nested parentheses once overflowed a connection thread's
    // stack and aborted the daemon. Past the source nesting cap the
    // request is answered with an ordinary `parse-error` record, and
    // the daemon then answers `ping`.
    let source = format!("x := {}1{};\n", "(".repeat(10_000), ")".repeat(10_000));
    let reply = round_trip(&daemon.sock, &analyze_request(&source));
    assert!(reply.contains("\"code\":\"parse-error\""), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");
    let pong = round_trip(&daemon.sock, "{\"op\":\"ping\"}");
    assert_eq!(pong, "{\"v\":1,\"type\":\"pong\"}");
    shutdown_clean(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_and_half_open_clients_do_not_wedge_shutdown() {
    let dir = scratch("halfopen");
    let daemon = spawn_daemon(&dir, &[]);

    // A half-open client: sends half a request line and stalls forever.
    let mut stalled = connect(&daemon.sock);
    stalled
        .write_all(b"{\"op\":\"anal")
        .expect("send partial line");
    stalled.flush().expect("flush");
    // A silent client: connects and never sends anything.
    let silent = connect(&daemon.sock);

    // The daemon still serves other clients around them.
    for _ in 0..3 {
        let pong = round_trip(&daemon.sock, "{\"op\":\"ping\"}");
        assert_eq!(pong, "{\"v\":1,\"type\":\"pong\"}");
    }

    // And an abort shutdown exits promptly despite the open sockets.
    let bye = round_trip(&daemon.sock, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"mode\":\"abort\""), "{bye}");
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    drop(stalled);
    drop(silent);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extracts `"name":<n>` from a stats line.
fn counter(stats: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let rest = &stats[stats
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} in {stats}"))
        + needle.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {name} in {stats}"))
}

/// Shuts a daemon down via the protocol and asserts a clean exit.
fn shutdown_clean(daemon: Daemon) {
    let bye = round_trip(&daemon.sock, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"shutdown\""), "{bye}");
    let mut child = daemon.child;
    let status = child.wait().expect("daemon exits after shutdown");
    assert_eq!(status.code(), Some(0));
}
