//! Linux process facts, and the generator's precise wait.
//!
//! The load generator sleeps until shortly before its next due time in
//! one `ppoll(2)` with a nanosecond timeout (plain `poll(2)` rounds to
//! milliseconds), with its timer slack lowered so the wake-up lands
//! within a few µs. Everything else reads `/proc`.
#![allow(unsafe_code)]

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads /proc and calls ppoll(2); it runs on Linux only");

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const PR_SET_TIMERSLACK: c_int = 29;

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

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Waits until one of `streams` is readable (or writable, where its
/// flag in `want_write` is set) or `timeout` lapses. Callers retry
/// their non-blocking I/O on every stream afterwards, so which one
/// woke the wait is not reported.
pub fn wait(streams: &[&TcpStream], want_write: &[bool], timeout: Duration) -> std::io::Result<()> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .zip(want_write)
        .map(|(s, &w)| PollFd {
            fd: s.as_raw_fd(),
            events: if w { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, initialized repr(C) array of its true
    // length, `ts` outlives the call, and a null sigmask means "leave
    // the signal mask alone"; ppoll writes only `revents` within `fds`.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Lowers the calling thread's timer slack to 1 ns so timed waits wake
/// on time instead of up to 50 µs late. Best effort.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches only the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// The process's high-water resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Resets the high-water RSS to the current RSS, so a later
/// [`peak_rss_mb`] covers only what follows. Best effort: a kernel
/// that refuses leaves the process-lifetime peak in place.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds the hypervisor gave to others while this VM's CPUs
/// wanted to run ("steal", summed over all CPUs), from `/proc/stat`.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// User plus system CPU seconds consumed by the whole process so far
/// (all threads), from `/proc/self/stat` at the kernel's fixed
/// `USER_HZ` of 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12th and 13th after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
