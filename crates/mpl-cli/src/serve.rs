//! `mpl serve` — the long-running analysis daemon — and `mpl client`,
//! its line-oriented companion.
//!
//! The daemon is a thin transport shell around
//! [`mpl_core::AnalysisService`]: it owns a unix or TCP listener, spawns
//! one thread per connection, and forwards newline-framed JSON lines to
//! [`AnalysisService::handle_line_as`]. All protocol behaviour —
//! caching, persistence, admission control, quotas, error rendering,
//! the byte-identity contract with `mpl analyze --json` — lives in the
//! service, where it is unit-tested without any sockets.
//!
//! Transport-level robustness lives here:
//!
//! * **Bounded request lines.** Reads are capped at `--max-line-bytes`
//!   (default 4 MiB); an oversized line gets a structured
//!   `line-too-long` error and the connection is closed (the framing is
//!   unrecoverable mid-line) — never unbounded buffering.
//! * **A connection registry.** Every connection thread is tracked
//!   (active count + join handles), not detached, so shutdown can
//!   choose between draining and aborting. Connection reads poll with a
//!   short timeout so idle connections notice shutdown promptly.
//! * **Graceful drain.** `{"op":"shutdown","mode":"drain"}` stops
//!   accepting, lets in-flight connections finish their current request
//!   under the `--drain-timeout-ms` deadline, joins the drained
//!   threads, and reports a `{"type":"drain",...}` record. The default
//!   `abort` mode keeps the historic semantics: in-flight requests are
//!   abandoned (their clients see a closed connection, never a hang).
//!
//! Lifecycle: on startup the daemon prints a single
//! `{"v":1,"type":"serving",...}` line to stdout (flushed eagerly, so a
//! parent process can wait for readiness and, with `--tcp 127.0.0.1:0`,
//! discover the ephemeral port). It then serves until a `shutdown`
//! request arrives, and exits printing a `shutdown-summary` record with
//! the final cache, admission, coalescing, quota, and journal counters.

use std::io::{BufRead, BufReader, IoSlice, Read as _, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mpl_core::{
    error_line, json_escape, AnalysisConfig, AnalysisService, CancelToken, QuotaPolicy, Reply,
    ServiceConfig, ShutdownMode, PROTOCOL_VERSION,
};

use crate::{parse_client, CmdOutput, Flags};

/// How long the accept loop waits on the listener before it checks the
/// shutdown token again. A pending connection ends the wait at once.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Read timeout on connection sockets: the interval at which an idle
/// connection thread re-checks the shutdown and drain flags.
const READ_POLL: Duration = Duration::from_millis(25);

/// Default cap on one request line, in bytes.
const DEFAULT_MAX_LINE: usize = 4 * 1024 * 1024;

/// Default drain deadline.
const DEFAULT_DRAIN_TIMEOUT_MS: u64 = 5_000;

/// Connect attempts `mpl client` makes before giving up (the daemon
/// may still be binding its socket when the client starts).
const CONNECT_ATTEMPTS: u32 = 40;

/// The two transports the daemon (and client) speak.
enum Listener {
    Unix(UnixListener, String),
    Tcp(TcpListener),
}

/// Bookkeeping for live connection threads, shared between the accept
/// loop and every connection.
struct ConnRegistry {
    /// Connection threads that have not yet exited.
    active: AtomicUsize,
    /// Set when a drain starts: connection loops finish their current
    /// request and exit instead of reading the next one.
    draining: AtomicBool,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ConnRegistry {
    fn new() -> Arc<ConnRegistry> {
        Arc::new(ConnRegistry {
            active: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
        })
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Joins finished threads so the handle list stays proportional to
    /// *live* connections, not total connections served.
    fn reap(&self) {
        let mut handles = self.handles.lock().expect("registry lock");
        let mut live = Vec::with_capacity(handles.len());
        for handle in handles.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push(handle);
            }
        }
        *handles = live;
    }

    /// Joins every remaining thread (drain completion).
    fn join_all(&self) {
        let handles = {
            let mut handles = self.handles.lock().expect("registry lock");
            std::mem::take(&mut *handles)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Decrements the active-connection count when the thread exits, on
/// every path including panics.
struct ActiveGuard(Arc<ConnRegistry>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Parses the mutually-exclusive `--socket` / `--tcp` pair.
fn transport_flags(flags: &Flags) -> Result<(Option<String>, Option<String>), String> {
    let socket = flags.value("--socket").map(str::to_owned);
    let tcp = flags.value("--tcp").map(str::to_owned);
    if socket.is_some() && tcp.is_some() {
        return Err("`--socket` and `--tcp` are mutually exclusive".to_owned());
    }
    if socket.is_none() && tcp.is_none() {
        return Err("one of `--socket PATH` or `--tcp ADDR` is required".to_owned());
    }
    Ok((socket, tcp))
}

/// Builds the service configuration shared by `serve` from its flags.
fn service_config(flags: &Flags) -> Result<ServiceConfig, String> {
    let client = parse_client(flags)?;
    let min_np: i64 = flags.parse_value("--min-np", AnalysisConfig::default().min_np)?;
    let defaults = AnalysisConfig {
        client,
        min_np,
        ..AnalysisConfig::default()
    };
    defaults.validate().map_err(|e| e.to_string())?;
    let timeout_ms: u64 = flags.parse_value("--timeout-ms", 0)?;
    let mut config = ServiceConfig::default();
    config.defaults = defaults;
    config.cache_capacity = flags.parse_value("--cache", config.cache_capacity)?;
    config.max_in_flight = flags.parse_value("--max-in-flight", config.max_in_flight)?;
    if config.max_in_flight == 0 {
        return Err("invalid value `0` for `--max-in-flight`".to_owned());
    }
    config.default_timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    config.default_retries = flags.parse_value("--retries", 0)?;
    config.cache_dir = flags.value("--cache-dir").map(std::path::PathBuf::from);
    config.compact_every = flags.parse_value("--compact-every", config.compact_every)?;
    let quota_rps: u64 = flags.parse_value("--quota-rps", 0)?;
    let quota_burst: u64 = flags.parse_value("--quota-burst", 0)?;
    if quota_burst > 0 && quota_rps == 0 {
        return Err("`--quota-burst` requires `--quota-rps`".to_owned());
    }
    config.quota = (quota_rps > 0).then_some(QuotaPolicy {
        rate_per_sec: quota_rps,
        // Burst defaults to one second's worth of tokens.
        burst: if quota_burst > 0 {
            quota_burst
        } else {
            quota_rps
        },
    });
    Ok(config)
}

/// The `mpl serve` command. Blocks until a `shutdown` request is
/// served; the returned [`CmdOutput`] is the shutdown summary (preceded
/// by a `drain` record when the shutdown asked for one).
pub(crate) fn cmd_serve(args: &[String]) -> Result<CmdOutput, String> {
    let flags = Flags::parse(
        args,
        &[
            "--socket",
            "--tcp",
            "--cache",
            "--cache-dir",
            "--compact-every",
            "--max-in-flight",
            "--max-line-bytes",
            "--drain-timeout-ms",
            "--quota-rps",
            "--quota-burst",
            "--client",
            "--min-np",
            "--timeout-ms",
            "--retries",
        ],
        &[],
    )?;
    let (socket, tcp) = transport_flags(&flags)?;
    let max_line: usize = flags.parse_value("--max-line-bytes", DEFAULT_MAX_LINE)?;
    if max_line == 0 {
        return Err("invalid value `0` for `--max-line-bytes`".to_owned());
    }
    let drain_timeout_ms: u64 =
        flags.parse_value("--drain-timeout-ms", DEFAULT_DRAIN_TIMEOUT_MS)?;
    let service = Arc::new(AnalysisService::open(service_config(&flags)?)?);

    let (listener, addr, kind) = if let Some(path) = socket {
        let listener =
            UnixListener::bind(&path).map_err(|e| format!("cannot bind `{path}`: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        (Listener::Unix(listener, path.clone()), path, "unix")
    } else {
        let addr = tcp.expect("transport_flags guarantees one of the pair");
        let listener =
            TcpListener::bind(&addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let actual = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        (Listener::Tcp(listener), actual, "tcp")
    };

    // Readiness line, flushed before the first accept: parents wait on
    // this, and for `--tcp host:0` it carries the real port.
    {
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "{{\"v\":{PROTOCOL_VERSION},\"type\":\"serving\",\"transport\":\"{kind}\",\
             \"addr\":\"{}\"}}",
            json_escape(&addr)
        );
        let _ = stdout.flush();
    }

    let registry = ConnRegistry::new();
    match &listener {
        // Unix peer credentials are not portable; the per-connection
        // sequence number is the quota identity for anonymous local
        // clients.
        Listener::Unix(listener, path) => {
            let mut conn_seq = 0u64;
            accept_until_shutdown(&service, &registry, listener.as_raw_fd(), max_line, || {
                let (stream, _) = listener.accept()?;
                conn_seq += 1;
                Ok((stream, format!("conn-{conn_seq}")))
            });
            let _ = std::fs::remove_file(path);
        }
        // The remote address is the quota identity: a client that
        // reconnects without a `client_id` keeps its bucket instead of
        // minting a fresh anonymous one per connection.
        Listener::Tcp(listener) => {
            accept_until_shutdown(&service, &registry, listener.as_raw_fd(), max_line, || {
                let (stream, remote) = listener.accept()?;
                Ok((stream, remote.to_string()))
            });
        }
    }

    let mut text = String::new();
    if service.shutdown_mode() == Some(ShutdownMode::Drain) {
        registry.draining.store(true, Ordering::Release);
        let deadline = CancelToken::with_deadline(Duration::from_millis(drain_timeout_ms));
        while registry.active.load(Ordering::Acquire) > 0 && !deadline.is_cancelled() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let abandoned = registry.active.load(Ordering::Acquire);
        if abandoned == 0 {
            registry.join_all();
        }
        text.push_str(&format!(
            "{{\"v\":{PROTOCOL_VERSION},\"type\":\"drain\",\"completed\":{},\
             \"abandoned\":{abandoned}}}\n",
            abandoned == 0
        ));
    }
    text.push_str(&service.shutdown_summary_line());
    text.push('\n');
    Ok(CmdOutput { text, code: 0 })
}

/// Accepts connections until a shutdown is requested, each on its own
/// thread. `accept` takes one pending connection off the nonblocking
/// listener `fd` and yields its stream and its peer identity, which keys
/// the connection's quota bucket.
fn accept_until_shutdown<S>(
    service: &Arc<AnalysisService>,
    registry: &Arc<ConnRegistry>,
    fd: RawFd,
    max_line: usize,
    mut accept: impl FnMut() -> std::io::Result<(S, String)>,
) where
    S: std::io::Read + std::io::Write + TryCloneStream + Send + 'static,
{
    let shutdown = service.shutdown_token();
    while !shutdown.is_cancelled() {
        match accept() {
            Ok((stream, peer)) => {
                spawn_connection(Arc::clone(service), registry, stream, peer, max_line);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_readable(fd, ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Spawns and registers the per-connection thread.
fn spawn_connection<S>(
    service: Arc<AnalysisService>,
    registry: &Arc<ConnRegistry>,
    stream: S,
    peer: String,
    max_line: usize,
) where
    S: std::io::Read + std::io::Write + TryCloneStream + Send + 'static,
{
    registry.reap();
    registry.active.fetch_add(1, Ordering::AcqRel);
    let shutdown = service.shutdown_token();
    let conn_registry = Arc::clone(registry);
    let handle = std::thread::spawn(move || {
        let registry = conn_registry;
        let _guard = ActiveGuard(Arc::clone(&registry));
        // Blocking mode with a short read timeout: reads return
        // `WouldBlock`/`TimedOut` periodically so the loop can notice
        // shutdown and drain without an interruptible-read mechanism.
        if stream.prepare_polling(READ_POLL).is_err() {
            return;
        }
        let Ok(read_half) = stream.try_clone_stream() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            if shutdown.is_cancelled() || registry.is_draining() {
                break;
            }
            match read_capped_line(&mut reader, max_line, &mut buf) {
                LineRead::Idle => continue,
                LineRead::Eof => break,
                LineRead::TooLong => {
                    // The rest of the oversized line is unread, so the
                    // framing is lost: answer, then close.
                    let _ = write_line(&mut writer, &service.oversize_reply(max_line));
                    break;
                }
                LineRead::Line => {
                    let line = match String::from_utf8(std::mem::take(&mut buf)) {
                        Ok(line) => line,
                        Err(_) => {
                            let reply = error_line("bad-json", "request line is not UTF-8");
                            if write_line(&mut writer, &reply).is_err() {
                                break;
                            }
                            continue;
                        }
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    let reply = service.handle_line_as(&line, &peer);
                    let done = matches!(reply, Reply::Shutdown(_));
                    if write_line(&mut writer, reply.line()).is_err() {
                        break;
                    }
                    if done {
                        break;
                    }
                }
            }
        }
    });
    registry.handles.lock().expect("registry lock").push(handle);
}

/// Writes `line` and its newline with one vectored write (`writev`)
/// where the stream takes both at once, so a reply does not go out as
/// two writes, then finishes whatever a short write left.
fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let bufs = [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")];
    let written = loop {
        match writer.write_vectored(&bufs) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if written < line.len() {
        writer.write_all(&line.as_bytes()[written..])?;
    }
    if written <= line.len() {
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

const POLLIN: c_short = 1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Waits until `fd` is readable — for a listener, until a connection is
/// pending — or `timeout` passes. An error or a signal ends the wait
/// early; the caller's loop just looks again.
fn wait_readable(fd: RawFd, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `pfd` is live for the call and `nfds` is 1 to match the
    // single descriptor.
    unsafe {
        poll(&mut pfd, 1, millis);
    }
}

/// One attempt to read a capped, newline-terminated line.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the cap; the buffer holds the prefix.
    TooLong,
    /// The read timed out with the line still incomplete; the partial
    /// buffer is preserved for the next attempt.
    Idle,
    /// Connection closed (or hard I/O error).
    Eof,
}

/// Reads until a newline, a timeout, EOF, or `cap` bytes — whichever
/// comes first. Partial reads accumulate in `buf` across `Idle`
/// returns, so a slow client costs patience, not memory beyond the cap.
fn read_capped_line(reader: &mut impl BufRead, cap: usize, buf: &mut Vec<u8>) -> LineRead {
    loop {
        // Allow one byte past the cap so "exactly cap bytes plus the
        // newline" still parses while "cap+1 payload bytes" trips.
        let budget = (cap + 1).saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', buf) {
            Ok(0) => return LineRead::Eof,
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return LineRead::Line;
                }
                if buf.len() > cap {
                    return LineRead::TooLong;
                }
                // Budget exhausted exactly at the cap without a newline
                // is impossible (budget always reaches cap + 1), so
                // this is a short read: keep going.
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineRead::Idle;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Eof,
        }
    }
}

/// `try_clone` plus socket-option setup, unified across the two stream
/// types.
trait TryCloneStream: Sized {
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    /// Switches the socket to blocking mode with `poll` as the read
    /// timeout (the connection loop's shutdown-check cadence).
    fn prepare_polling(&self, poll: Duration) -> std::io::Result<()>;
}

/// Implements [`TryCloneStream`] for stream types whose inherent
/// `try_clone`, `set_nonblocking` and `set_read_timeout` have the same
/// signatures, as `UnixStream`'s and `TcpStream`'s do.
macro_rules! impl_try_clone_stream {
    ($($stream:ty),*) => {$(
        impl TryCloneStream for $stream {
            fn try_clone_stream(&self) -> std::io::Result<$stream> {
                self.try_clone()
            }

            fn prepare_polling(&self, poll: Duration) -> std::io::Result<()> {
                self.set_nonblocking(false)?;
                self.set_read_timeout(Some(poll))
            }
        }
    )*};
}

impl_try_clone_stream!(UnixStream, TcpStream);

/// The `mpl client` command: sends one request line to a running
/// daemon and prints the one response line. Exit code 0 for served
/// answers (`program`, `pong`, `stats`, `shutdown`), 1 for `error` and
/// `rejected` responses.
pub(crate) fn cmd_client(args: &[String]) -> Result<CmdOutput, String> {
    let flags = Flags::parse(
        args,
        &[
            "--socket",
            "--tcp",
            "--op",
            "--mode",
            "--file",
            "--name",
            "--client",
            "--client-id",
            "--min-np",
            "--max-steps",
            "--timeout-ms",
            "--retries",
        ],
        &[],
    )?;
    let (socket, tcp) = transport_flags(&flags)?;
    let op = flags.value("--op").unwrap_or("analyze");
    let request = match op {
        "ping" | "stats" => format!("{{\"op\":\"{op}\"}}"),
        "shutdown" => match flags.value("--mode") {
            None => "{\"op\":\"shutdown\"}".to_owned(),
            Some(mode) => format!("{{\"op\":\"shutdown\",\"mode\":\"{}\"}}", json_escape(mode)),
        },
        "analyze" => build_analyze_line(&flags)?,
        other => return Err(format!("unknown op `{other}`")),
    };

    let response = if let Some(path) = socket {
        let stream = connect_with_retry(|| UnixStream::connect(&path), &path)?;
        round_trip(stream, &request)?
    } else {
        let addr = tcp.expect("transport_flags guarantees one of the pair");
        let stream = connect_with_retry(|| TcpStream::connect(&addr), &addr)?;
        round_trip(stream, &request)?
    };
    let failed = response.starts_with(&format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"error\""))
        || response.starts_with(&format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"rejected\""));
    Ok(CmdOutput {
        text: format!("{response}\n"),
        code: i32::from(failed),
    })
}

/// Connects with a bounded, deterministic backoff: the daemon prints
/// its readiness line *before* its first accept, and on busy machines a
/// client racing that window (or a daemon restart) would otherwise flake
/// with `ConnectionRefused`. Backoff is `min(5·attempt, 50)` ms for up
/// to [`CONNECT_ATTEMPTS`] attempts (~1.8 s worst case), then the real
/// error surfaces.
fn connect_with_retry<S>(
    connect: impl Fn() -> std::io::Result<S>,
    label: &str,
) -> Result<S, String> {
    let mut attempt = 0u32;
    loop {
        match connect() {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                attempt += 1;
                let transient = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::NotFound
                        | std::io::ErrorKind::AddrNotAvailable
                );
                if !transient || attempt >= CONNECT_ATTEMPTS {
                    return Err(format!("cannot connect `{label}`: {e}"));
                }
                std::thread::sleep(Duration::from_millis(u64::from((5 * attempt).min(50))));
            }
        }
    }
}

/// Assembles the `analyze` request object from client flags.
fn build_analyze_line(flags: &Flags) -> Result<String, String> {
    let path = flags
        .value("--file")
        .ok_or("`--op analyze` requires `--file`")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut line = format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\"",
        json_escape(&source)
    );
    if let Some(name) = flags.value("--name") {
        line.push_str(&format!(",\"name\":\"{}\"", json_escape(name)));
    }
    if let Some(client) = flags.value("--client") {
        line.push_str(&format!(",\"client\":\"{}\"", json_escape(client)));
    }
    if let Some(id) = flags.value("--client-id") {
        line.push_str(&format!(",\"client_id\":\"{}\"", json_escape(id)));
    }
    for (flag, key) in [
        ("--min-np", "min_np"),
        ("--max-steps", "max_steps"),
        ("--timeout-ms", "timeout_ms"),
        ("--retries", "retries"),
    ] {
        if let Some(raw) = flags.value(flag) {
            let n: i64 = raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for `{flag}`"))?;
            line.push_str(&format!(",\"{key}\":{n}"));
        }
    }
    line.push('}');
    Ok(line)
}

/// Writes one request line and reads one response line.
fn round_trip<S: std::io::Read + std::io::Write + TryCloneStream>(
    mut stream: S,
    request: &str,
) -> Result<String, String> {
    let read_half = stream.try_clone_stream().map_err(|e| e.to_string())?;
    write_line(&mut stream, request).map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(read_half);
    let mut response = String::new();
    let n = reader
        .read_line(&mut response)
        .map_err(|e| format!("receive failed: {e}"))?;
    if n == 0 {
        return Err("server closed the connection without replying".to_owned());
    }
    Ok(response.trim_end_matches('\n').to_owned())
}

#[cfg(test)]
mod tests {
    use std::io::{IoSlice, Write};

    use super::write_line;

    /// A writer that counts its calls and takes at most `max` bytes per
    /// call, as a socket with a full buffer does.
    struct Chunky {
        calls: usize,
        max: usize,
        out: Vec<u8>,
    }

    impl Chunky {
        fn new(max: usize) -> Chunky {
            Chunky {
                calls: 0,
                max,
                out: Vec::new(),
            }
        }
    }

    impl Write for Chunky {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = self.max;
            for buf in bufs {
                let take = buf.len().min(left);
                self.out.extend_from_slice(&buf[..take]);
                left -= take;
            }
            Ok(self.max - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_and_its_newline_go_out_in_one_write() {
        let mut writer = Chunky::new(usize::MAX);
        write_line(&mut writer, "{\"v\":1,\"type\":\"pong\"}").unwrap();
        assert_eq!(writer.out, b"{\"v\":1,\"type\":\"pong\"}\n");
        assert_eq!(writer.calls, 1);
    }

    #[test]
    fn a_short_write_is_finished() {
        let line = "{\"v\":1,\"type\":\"pong\"}";
        for max in [1, 3, line.len() - 1, line.len(), line.len() + 1] {
            let mut writer = Chunky::new(max);
            write_line(&mut writer, line).unwrap();
            assert_eq!(writer.out, format!("{line}\n").as_bytes(), "max {max}");
        }
    }
}
