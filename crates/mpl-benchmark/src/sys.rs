//! Process accounting: CPU time and peak memory of the daemon (from
//! `/proc`) and of finished CLI children (from `getrusage`); and a
//! precise wait for a socket to become readable.

use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the process accounting below assumes 64-bit Linux");

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const RUSAGE_CHILDREN: c_int = -1;
const SC_CLK_TCK: c_int = 2;
const POLLIN: c_short = 1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until `fd` is readable (or closed) or `timeout` passes, with
/// the precision of a high-resolution timer. Socket receive timeouts
/// fire on the scheduler tick, which made an open-loop generator send
/// up to a tick late.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> Result<bool, String> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live for the call, `nfds` is 1 to match
    // the single descriptor, and a null signal mask leaves it unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(format!("ppoll failed: {e}"))
            }
        }
    }
}

/// Resource use of all children this process has waited for.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    pub cpu_s: f64,
    pub max_rss_mb: f64,
}

pub fn children_usage() -> ChildUsage {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // layout the kernel writes on 64-bit Linux (checked above), and
    // RUSAGE_CHILDREN is a valid `who`; the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    ChildUsage {
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        max_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    }
}

/// User plus system CPU seconds of a live process, all threads.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc stat".to_owned())
    };
    // SAFETY: sysconf takes a plain integer name and reads no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz <= 0 {
        return Err("sysconf(_SC_CLK_TCK) failed".to_owned());
    }
    Ok((ticks(11)? + ticks(12)?) / hz as f64)
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn process_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process_accounting() {
        let pid = std::process::id();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s(pid).unwrap() >= 0.0);
        assert!(process_peak_rss_mb(pid).unwrap() > 0.0);
        let status = std::process::Command::new("true").status().unwrap();
        assert!(status.success());
        assert!(children_usage().max_rss_mb > 0.0);
    }
}
