//! A `mpl serve` child process on a unix socket, and the connections the
//! load generator drives it through.

use std::io::{BufRead, BufReader, Write as _};
use std::os::fd::AsRawFd as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Json};

/// How long any reply may take before the run is abandoned: far above
/// the slowest analysis in any workload, far below the run time limit.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills and reaps the process, so no
/// error path leaves one behind.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `mpl serve --socket <socket> <args>` and waits until it
    /// reports that it is serving.
    pub fn start(mpl: &Path, socket: &Path, args: &[String]) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(mpl)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start `{} serve`: {e}", mpl.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            socket: socket.to_owned(),
        };
        let mut ready = String::new();
        let _ = daemon.stdout.read_line(&mut ready);
        if !ready.contains("\"type\":\"serving\"") {
            return Err(format!("`mpl serve` did not start: {ready:?}"));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to {}: {e}", self.socket.display()))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// The daemon's counters (`{"op":"stats"}`), over a connection of
    /// their own.
    pub fn stats(&self) -> Result<Json, String> {
        let reply = self.connect()?.call("{\"op\":\"stats\"}\n")?;
        json::parse(&reply).map_err(|e| format!("bad stats reply ({e}): {reply}"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = self.connect()?.call("{\"op\":\"shutdown\"}\n")?;
        if !reply.contains("\"type\":\"shutdown\"") {
            return Err(format!("unexpected shutdown reply: {reply}"));
        }
        // Read the shutdown summary to the end so the daemon never
        // blocks on a full pipe.
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("`mpl serve` exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection. Request lines are written whole, with their
/// newline, in one call; replies are read a line at a time.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Sends one request; `line` ends with a newline.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Waits up to [`REPLY_TIMEOUT`] for the next reply.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut buf = Vec::new();
        match self.reader.read_until(b'\n', &mut buf) {
            Ok(0) => Err("the daemon closed the connection".to_owned()),
            Ok(_) if buf.last() == Some(&b'\n') => {
                buf.pop();
                String::from_utf8(buf).map_err(|_| "reply is not UTF-8".to_owned())
            }
            Ok(_) => Err("the daemon closed the connection mid-reply".to_owned()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// The next reply, or `None` if none starts arriving before
    /// `deadline`.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        if !self.reader.buffer().contains(&b'\n') {
            let left = deadline.saturating_duration_since(Instant::now());
            let fd = self.reader.get_ref().as_raw_fd();
            if left.is_zero() || !crate::sys::wait_readable(fd, left)? {
                return Ok(None);
            }
        }
        self.recv().map(Some)
    }

    /// One request and its reply.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}
