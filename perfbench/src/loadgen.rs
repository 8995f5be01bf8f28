//! The open-loop load generator: one thread drives every connection
//! from one poll loop, sending each request at its due time whether or
//! not earlier replies are back, and timestamping each reply line as
//! it completes.
//!
//! Latency is measured from a request's *due* time, not its send time,
//! so a generator or server that falls behind shows up as latency
//! instead of silently stretching the schedule.
//!
//! Within [`SPIN`] of the next due time the loop busy-polls its
//! non-blocking sockets, yielding the CPU between passes; further out
//! it sleeps in `ppoll` until a reply arrives or the spin window opens.
//! Waking a sleeping thread on a small VM takes tens to hundreds of µs,
//! varying with the host's load, so at high rates (gaps well under
//! [`SPIN`]) a sleeping generator would add its own wake-up to every
//! send and reply timestamp. At low rates it sleeps, leaving the CPU to
//! the server.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::sys;

/// How close to the next due time the generator stops sleeping.
pub const SPIN: Duration = Duration::from_millis(1);

/// One persistent, pipelined client connection.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Requests sent (or queued) and not yet answered, in send order;
    /// replies come back in that order.
    in_flight: VecDeque<usize>,
}

impl Conn {
    /// Connects to `addr` with Nagle off and non-blocking I/O.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            in_flight: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads whatever has arrived and hands each complete line to
    /// `on_line` together with the instant its last byte was read.
    /// Returns `false` once the peer has closed the connection.
    fn read_lines(
        &mut self,
        mut on_line: impl FnMut(&mut Self, String, Instant),
    ) -> std::io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    let at = Instant::now();
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    // Split every complete line first and drop them from
                    // the buffer in one move, so a burst of replies costs
                    // time linear in its size.
                    let mut lines = Vec::new();
                    let mut begin = 0;
                    while let Some(len) = self.inbuf[begin..].iter().position(|&b| b == b'\n') {
                        let end = begin + len;
                        lines.push(String::from_utf8_lossy(&self.inbuf[begin..end]).into_owned());
                        begin = end + 1;
                    }
                    self.inbuf.drain(..begin);
                    for text in lines {
                        on_line(self, text, at);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one command and collects its reply lines up to and
    /// including the first one `done` accepts. Only valid while no
    /// score requests are in flight on this connection.
    pub fn command(
        &mut self,
        line: &str,
        timeout: Duration,
        done: impl Fn(&str) -> bool,
    ) -> std::io::Result<Vec<String>> {
        assert!(
            self.in_flight.is_empty(),
            "command sent behind in-flight requests"
        );
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let deadline = Instant::now() + timeout;
        let mut lines = Vec::new();
        let mut finished = false;
        while !finished {
            self.flush()?;
            let open = self.read_lines(|_, l, _| {
                if !finished {
                    finished = done(&l);
                    lines.push(l);
                }
            })?;
            if finished {
                break;
            }
            if !open || Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("no complete reply to {line}"),
                ));
            }
            std::thread::yield_now();
        }
        Ok(lines)
    }
}

/// Everything observed while running one schedule.
#[derive(Debug)]
pub struct Outcome {
    /// Reply line per request (`None`: no reply before the drain
    /// deadline).
    pub replies: Vec<Option<String>>,
    /// Due-to-reply latency per request in µs; `INFINITY` when no reply
    /// arrived.
    pub latency_us: Vec<f64>,
    /// How late each request was handed to the socket, in µs.
    pub lag_us: Vec<f64>,
    /// Requests due but not yet answered, sampled at each send.
    pub backlog_at_send: Vec<u32>,
}

/// Sends `lines[i]` at `start + due[i]`, round-robin over `conns`, and
/// collects replies until all are in or `drain` has passed since the
/// last due time. Each line must end in a newline.
pub fn run(
    conns: &mut [Conn],
    lines: &[&[u8]],
    due: &[Duration],
    drain: Duration,
) -> std::io::Result<Outcome> {
    assert_eq!(lines.len(), due.len());
    assert!(
        conns.iter().all(|c| c.in_flight.is_empty()),
        "connections must be idle"
    );
    let n = lines.len();
    let mut out = Outcome {
        replies: vec![None; n],
        latency_us: vec![f64::INFINITY; n],
        lag_us: vec![0.0; n],
        backlog_at_send: Vec::with_capacity(n),
    };
    // A short lead so the first due times are not already past.
    let start = Instant::now() + Duration::from_millis(2);
    let last_due = start + due.last().copied().unwrap_or_default();
    let give_up = last_due + drain;
    let (mut next, mut answered) = (0usize, 0usize);
    let mut open = vec![true; conns.len()];
    while answered < n {
        let now = Instant::now();
        while next < n && start + due[next] <= now {
            let conn = &mut conns[next % conns.len()];
            conn.out.extend_from_slice(lines[next]);
            conn.in_flight.push_back(next);
            out.lag_us[next] = (now - (start + due[next])).as_secs_f64() * 1e6;
            out.backlog_at_send.push((next - answered) as u32);
            next += 1;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if !open[c] {
                continue;
            }
            conn.flush()?;
            open[c] = conn.read_lines(|conn, line, at| {
                if let Some(i) = conn.in_flight.pop_front() {
                    out.latency_us[i] =
                        at.saturating_duration_since(start + due[i]).as_secs_f64() * 1e6;
                    out.replies[i] = Some(line);
                    answered += 1;
                }
            })?;
        }
        let now = Instant::now();
        if answered == n || now >= give_up || !open.iter().any(|&o| o) {
            break;
        }
        let until =
            if next < n { start + due[next] } else { give_up }.saturating_duration_since(now);
        if until > SPIN {
            let streams: Vec<&TcpStream> = conns.iter().map(|c| &c.stream).collect();
            let want_write: Vec<bool> = conns.iter().map(|c| c.out_pos < c.out.len()).collect();
            sys::wait(&streams, &want_write, until - SPIN)?;
        } else {
            std::thread::yield_now();
        }
    }
    // Anything still unanswered is a failure; forget it so the next
    // schedule starts from idle connections.
    for conn in conns.iter_mut() {
        conn.in_flight.clear();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_of_replies_splits_into_lines_and_keeps_the_partial_one() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(b"{\"a\":1}\n{\"b\":2}\n{\"c\"").unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 2 && Instant::now() < deadline {
            conn.read_lines(|_, line, _| got.push(line)).unwrap();
        }
        assert_eq!(got, vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(conn.inbuf, b"{\"c\"");
    }
}
