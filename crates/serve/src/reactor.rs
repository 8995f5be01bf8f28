//! Minimal std-only readiness layer for the shard event loops.
//!
//! Each shard owns one [`Poller`] and blocks in [`Poller::poll`] until a
//! pinned connection turns readable or writable, its [`Waker`] is poked
//! (new connection handed over by the acceptor, shutdown requested), or
//! the timeout lapses (batch window, deadlines). On Linux this is a thin
//! safe wrapper over `ppoll(2)`, whose nanosecond timeout keeps a
//! sub-millisecond batch-window remainder from being rounded up;
//! elsewhere a portable fallback reports every source ready after a
//! short bounded wait, which is correct (if less efficient) because all
//! connection I/O is non-blocking and handlers tolerate spurious
//! readiness.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What a shard wants to hear about for one registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the source has bytes to read (or hung up).
    Readable,
    /// Wake when the source can accept writes without blocking.
    Writable,
}

/// One readiness fact produced by [`Poller::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen token identifying the source (shards use the
    /// index of the connection in their table at poll time).
    pub token: usize,
    /// Bytes are readable, or the peer hung up (a subsequent read
    /// observes EOF/reset — the handler distinguishes).
    pub readable: bool,
    /// Writes would make progress.
    pub writable: bool,
}

/// Wakes a [`Poller`] blocked in `poll` from another thread.
///
/// Backed by the write half of a `UnixStream` pair whose read half the
/// poller watches alongside the registered sources. Cloning is cheap
/// (`Arc`); wakes are idempotent and never block.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudges the owning poller. Errors are deliberately ignored: a
    /// full pipe means a wake is already pending, a closed pipe means
    /// the poller is gone and there is nothing left to wake.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// Per-shard readiness selector. Not `Sync`: exactly one shard thread
/// drives it, with cross-thread signalling via the paired [`Waker`].
pub struct Poller {
    wake_rx: UnixStream,
}

impl Poller {
    /// Builds a poller and its waker.
    pub fn new() -> std::io::Result<(Poller, Waker)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Poller { wake_rx: rx }, Waker { tx: Arc::new(tx) }))
    }

    /// Blocks until at least one source is ready, the waker fires, or
    /// `timeout` lapses (`None` waits indefinitely). Ready sources are
    /// appended to `events` as `(token, readable, writable)` facts;
    /// wake-ups drain the internal pipe and produce no event. Returns
    /// the number of events appended.
    ///
    /// Spurious readiness is allowed: callers must use non-blocking
    /// I/O on the sources and treat `WouldBlock` as "not actually
    /// ready yet".
    pub fn poll(
        &mut self,
        sources: &[(usize, &TcpStream, Interest)],
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> std::io::Result<usize> {
        events.clear();
        let n = sys::poll_impl(&self.wake_rx, sources, timeout, events)?;
        self.drain_wakes();
        Ok(n)
    }

    fn drain_wakes(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Poller")
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod sys {
    //! Safe wrapper over `ppoll(2)`. The only unsafe in the crate lives
    //! here; the FFI signature matches the Linux/Android ABI (`nfds_t`
    //! is `c_ulong` and `timespec` is two `c_long`s there — not true on
    //! e.g. Darwin, which takes the portable fallback instead).
    #![allow(unsafe_code)]

    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    use super::{Event, Interest};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

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
    }

    pub(super) fn poll_impl(
        wake_rx: &UnixStream,
        sources: &[(usize, &TcpStream, Interest)],
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> std::io::Result<usize> {
        let mut fds: Vec<PollFd> = Vec::with_capacity(sources.len() + 1);
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (_, stream, interest) in sources {
            fds.push(PollFd {
                fd: stream.as_raw_fd(),
                events: match interest {
                    Interest::Readable => POLLIN,
                    Interest::Writable => POLLOUT,
                },
                revents: 0,
            });
        }
        let timespec = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let timeout_ptr = timespec
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is a live, properly initialized repr(C) slice
        // for the duration of the call and the length is its true
        // length; ppoll(2) only writes within the passed array, reads
        // the timeout (live or null = wait indefinitely), and a null
        // sigmask leaves the signal mask alone, as poll(2) would.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                timeout_ptr,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for (slot, (token, _, _)) in fds.iter().skip(1).zip(sources) {
            let revents = slot.revents;
            if revents == 0 {
                continue;
            }
            events.push(Event {
                token: *token,
                // Errors and hang-ups surface as readable so the
                // handler's next read observes the failure.
                readable: revents & (POLLIN | POLLERR | POLLHUP) != 0,
                writable: revents & (POLLOUT | POLLERR | POLLHUP) != 0,
            });
        }
        Ok(events.len())
    }
}

#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod sys {
    //! Portable fallback: a short bounded sleep, then report every
    //! source ready. Correct because connection I/O is non-blocking
    //! and spurious readiness is part of the [`Poller::poll`] contract;
    //! the cost is a ~20ms wake cadence instead of true readiness.

    use std::net::TcpStream;
    use std::time::Duration;

    use super::{Event, Interest};

    const TICK: Duration = Duration::from_millis(20);

    pub(super) fn poll_impl(
        _wake_rx: &std::os::unix::net::UnixStream,
        sources: &[(usize, &TcpStream, Interest)],
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> std::io::Result<usize> {
        let wait = timeout.unwrap_or(TICK).min(TICK);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        for (token, _, _) in sources {
            events.push(Event {
                token: *token,
                readable: true,
                writable: true,
            });
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).expect("nonblocking");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let (client, _server) = pair();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller
            .poll(
                &[(0, &client, Interest::Readable)],
                Some(Duration::from_millis(30)),
                &mut events,
            )
            .expect("poll");
        assert_eq!(n, 0, "{events:?}");
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn poll_reports_readable_after_peer_write() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let (client, mut server) = pair();
        server.write_all(b"hi").expect("peer write");
        let mut events = Vec::new();
        let n = poller
            .poll(
                &[(7, &client, Interest::Readable)],
                Some(Duration::from_secs(2)),
                &mut events,
            )
            .expect("poll");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let (mut poller, waker) = Poller::new().expect("poller");
        let (client, _server) = pair();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
            waker.wake(); // idempotent
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .poll(
                &[(0, &client, Interest::Readable)],
                Some(Duration::from_secs(5)),
                &mut events,
            )
            .expect("poll");
        // Woken well before the 5s timeout; the wake produced no event.
        assert!(start.elapsed() < Duration::from_secs(4));
        assert!(events.iter().all(|e| e.token != usize::MAX));
        handle.join().expect("join");
    }

    #[test]
    fn connected_stream_is_writable() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let (client, _server) = pair();
        let mut events = Vec::new();
        let n = poller
            .poll(
                &[(3, &client, Interest::Writable)],
                Some(Duration::from_secs(2)),
                &mut events,
            )
            .expect("poll");
        assert_eq!(n, 1);
        assert!(events[0].writable);
    }

    #[test]
    fn sub_millisecond_timeouts_are_neither_early_nor_rounded_up() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let (client, _server) = pair();
        let timeout = Duration::from_micros(200);
        let mut events = Vec::new();
        let mut elapsed: Vec<Duration> = (0..21)
            .map(|_| {
                let start = Instant::now();
                poller
                    .poll(
                        &[(0, &client, Interest::Readable)],
                        Some(timeout),
                        &mut events,
                    )
                    .expect("poll");
                start.elapsed()
            })
            .collect();
        elapsed.sort();
        assert!(elapsed[0] >= timeout, "returned early: {elapsed:?}");
        // poll(2) with whole milliseconds would wait at least 1ms.
        let median = elapsed[elapsed.len() / 2];
        assert!(
            median < Duration::from_micros(900),
            "rounded up: {elapsed:?}"
        );
    }
}
