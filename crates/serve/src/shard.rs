//! Per-shard event loop: one thread reads, scores, and writes.
//!
//! Each shard is a single thread multiplexing all of its connections
//! over the poll-based readiness layer in [`crate::reactor`]. One tick:
//! adopt newly pinned connections, poll (timeout capped by the batch
//! window close, the nearest request deadline, and the release of a
//! held batch), flush writable sockets and read readable ones, admit
//! every complete request line, run the batches that are due inline,
//! answer expired requests, then flush output buffers.
//!
//! Connections may pipeline. A connection is read only while it has
//! fewer than `max_batch` unanswered requests and an empty output
//! buffer; replies leave in request order through a per-connection
//! reply queue. Writes never block: a peer that stops reading only
//! stops being read, and is closed once [`WRITE_STALL_CAP`] passes
//! without write progress, so it cannot stall the rest of its shard.
//!
//! Everything a request touches on the hot path — the pending misses,
//! the LRU cache, the sentinel window, the metrics — belongs to the
//! shard, so shards never contend with each other. The only shared
//! state is the swappable [`crate::reload::ModelSlot`] (an atomic
//! generation read per cache lookup, one `Arc` clone per batch) and
//! the fault injector.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use maleva_obs::trace::{self, Span};

use crate::batch::score_rows_isolated;
use crate::cache::{quantize, LruCache};
use crate::error::ServeError;
use crate::fault::FaultSite;
use crate::metrics::{Metrics, MetricsSnapshot, StageTimes};
use crate::protocol::{self, Request, ScoreResponse, TraceContext};
use crate::reactor::{Event, Interest, Poller, Waker};
use crate::sentinel::{poison_score, Sentinel, SentinelDecision};
use crate::server::{self, suggested_retry_after_ms, Shared, READ_TICK};

/// What other threads reach of a shard: its metrics, its sentinel
/// window, and the hand-off for new connections.
pub(crate) struct ShardState {
    /// Stable shard index (the acceptor's round-robin position).
    pub(crate) index: usize,
    /// This shard's private metrics registry; merged on demand by
    /// [`crate::server::refresh`].
    pub(crate) metrics: Metrics,
    /// Per-client extraction-sentinel window for connections pinned to
    /// this shard. Locked because [`crate::server::sentinel_report`]
    /// reads it from other threads.
    pub(crate) sentinel: Mutex<Sentinel>,
    /// Wakes the shard's poll loop (new connection, shutdown).
    pub(crate) waker: Waker,
    /// Where the acceptor hands over accepted sockets.
    pub(crate) conn_tx: mpsc::Sender<TcpStream>,
}

impl ShardState {
    /// One coherent snapshot of this shard's metrics, with the sentinel
    /// gauge refreshed first.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        if let Ok(sentinel) = self.sentinel.lock() {
            self.metrics
                .sentinel_tracked_clients
                .set(sentinel.tracked_clients().min(i64::MAX as usize) as i64);
        }
        let entries = self.metrics.cache_entries.get().max(0) as usize;
        self.metrics.snapshot(entries)
    }
}

/// How long a connection may hold unwritten replies without any write
/// progress before it is closed.
const WRITE_STALL_CAP: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Bytes read from a connection, consumed line by line through a cursor
/// and compacted once per tick, so framing a pipelined backlog is linear
/// in its size.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    /// Bytes before this offset are consumed.
    consumed: usize,
}

/// What [`LineBuf::extract_line`] produced this call.
#[derive(Debug, PartialEq)]
enum LineStatus {
    /// A complete request line (newline stripped; `\r\n` tolerated).
    Line(String),
    /// The line exceeded the configured limit.
    TooLong,
    /// No complete line buffered yet.
    NotYet,
}

impl LineBuf {
    fn unconsumed(&self) -> usize {
        self.bytes.len() - self.consumed
    }

    /// Takes the next line. An oversized line is detected as soon as
    /// `limit + 1` bytes are buffered without a newline, without
    /// waiting for the rest. After EOF a final unterminated line is
    /// served.
    fn extract_line(&mut self, limit: usize, eof: bool) -> LineStatus {
        let rest = &self.bytes[self.consumed..];
        let (line, used) = match rest.iter().position(|&b| b == b'\n') {
            Some(pos) if pos > limit => return LineStatus::TooLong,
            Some(pos) => (&rest[..pos], pos + 1),
            None if rest.len() > limit => return LineStatus::TooLong,
            None if eof && !rest.is_empty() => (rest, rest.len()),
            None => return LineStatus::NotYet,
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let line = String::from_utf8_lossy(line).into_owned();
        self.consumed += used;
        LineStatus::Line(line)
    }

    /// Drops the consumed prefix.
    fn compact(&mut self) {
        if self.consumed > 0 {
            self.bytes.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

/// One connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// The sentinel's fallback client identity when requests carry no
    /// explicit `client_id`.
    peer: String,
    input: LineBuf,
    /// Replies not yet on their way out, in request order; `None` holds
    /// the place of a miss that is still being scored.
    replies: VecDeque<Option<Vec<u8>>>,
    /// Sequence number of `replies.front()`.
    first_seq: u64,
    /// Encoded replies waiting for the socket to take them.
    out: Vec<u8>,
    /// When `out` last became non-empty or a write made progress.
    last_progress: Instant,
    /// The peer closed its write side; remaining buffered lines are
    /// still processed (a final unterminated line counts).
    eof: bool,
    /// Read no more requests; close once every queued reply is flushed.
    closing: bool,
    /// Drop at the end of the tick, flushed or not.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown-peer".to_string());
        Conn {
            stream,
            peer,
            input: LineBuf::default(),
            replies: VecDeque::new(),
            first_seq: 0,
            out: Vec::new(),
            last_progress: Instant::now(),
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Whether the loop may take another request off this connection.
    fn accepts_requests(&self, max_batch: usize) -> bool {
        !self.dead && !self.closing && self.replies.len() < max_batch
    }

    fn wants_read(&self, max_batch: usize) -> bool {
        self.accepts_requests(max_batch) && !self.eof && self.out.is_empty()
    }

    fn finished(&self) -> bool {
        self.dead
            || (self.closing || self.eof && self.input.unconsumed() == 0)
                && self.replies.is_empty()
                && self.out.is_empty()
    }

    /// Reads what the socket holds, stopping at EOF, `WouldBlock`, or
    /// once more than `limit` unconsumed bytes are buffered (enough to
    /// frame a line or reject it as too long).
    fn read(&mut self, limit: usize) {
        let mut chunk = [0u8; 16 * 1024];
        while self.input.unconsumed() <= limit {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => self.input.bytes.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Writes as much of `out` as the socket takes without blocking.
    fn flush(&mut self) {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if written > 0 {
            self.out.drain(..written);
            self.last_progress = Instant::now();
        }
    }

    fn emit(&mut self, bytes: &[u8]) {
        if self.out.is_empty() {
            self.last_progress = Instant::now();
        }
        self.out.extend_from_slice(bytes);
    }

    /// Holds the place of a reply that comes later; returns its
    /// sequence number.
    fn reserve(&mut self) -> u64 {
        self.replies.push_back(None);
        self.first_seq + self.replies.len() as u64 - 1
    }

    /// Queues one encoded reply (`seq` from [`Conn::reserve`], or `None`
    /// for a request answered on the spot), then moves every reply that
    /// is now in order into the output buffer.
    fn queue(&mut self, seq: Option<u64>, bytes: Vec<u8>) {
        match seq {
            None if self.replies.is_empty() => return self.emit(&bytes),
            None => self.replies.push_back(Some(bytes)),
            Some(seq) => {
                let index = seq.wrapping_sub(self.first_seq) as usize;
                if let Some(slot) = self.replies.get_mut(index) {
                    *slot = Some(bytes);
                }
            }
        }
        while let Some(Some(_)) = self.replies.front() {
            if let Some(Some(bytes)) = self.replies.pop_front() {
                self.emit(&bytes);
            }
            self.first_seq += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------------

/// A cache miss admitted for scoring, waiting for its batch.
struct Miss {
    /// Connection id and reply slot the answer goes to.
    conn: usize,
    seq: u64,
    /// Transformed feature row (taken when the batch runs).
    features: Vec<f64>,
    /// Quantized cache key for post-scoring insertion.
    cache_key: Vec<i64>,
    trace: Option<TraceContext>,
    client_id: String,
    /// Whether the sentinel flagged this client for verdict poisoning.
    poison: bool,
    span: Span,
    stages: StageTimes,
    /// Request start, for end-to-end latency.
    start: Instant,
    /// When the miss joined the pending list (`batch_wait` epoch).
    admitted: Instant,
    /// Past this the request is answered `deadline_exceeded`.
    deadline: Instant,
}

/// A formed batch held by an injected [`FaultSite::ScoreDelay`].
struct Held {
    rows: Vec<Miss>,
    /// When the batch formed (its rows' `inference` epoch).
    start: Instant,
    release: Instant,
}

/// The shard's scoring schedule. Misses wait in `pending` until the
/// list reaches `max_batch` or the batch window opened by the oldest
/// closes; a flush then moves them all to `flushing`, scored
/// `max_batch` rows at a time. An injected `ScoreDelay` parks a formed
/// batch in `held` until its release, without blocking the loop. Every
/// collection is in admission order, so deadlines ascend within each.
struct Batcher {
    pending: VecDeque<Miss>,
    flushing: VecDeque<Miss>,
    /// Start of the latest flush (the `queue_wait` epoch of its rows).
    flush_start: Instant,
    held: Option<Held>,
}

impl Batcher {
    fn len(&self) -> usize {
        self.pending.len() + self.flushing.len() + self.held.as_ref().map_or(0, |h| h.rows.len())
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// When the loop must next act on the schedule: the release of a
    /// held batch or the close of the window, or the nearest deadline.
    /// `flushing` is only non-empty while a batch is held.
    fn next_wake(&self, window: Duration) -> Option<Instant> {
        let step = match &self.held {
            Some(held) => Some(held.release),
            None => self.pending.front().map(|m| m.admitted + window),
        };
        let oldest = self.held.iter().filter_map(|h| h.rows.first());
        let oldest = oldest
            .chain(self.flushing.front())
            .chain(self.pending.front());
        step.into_iter().chain(oldest.map(|m| m.deadline)).min()
    }
}

/// Splits a miss's wait from admission to now into `batch_wait` (until
/// its flush began), `queue_wait` (behind earlier batches of that
/// flush) and `inference` (its own batch, including any injected hold).
/// Stages the miss never reached stay zero.
fn split_wait(
    stages: &mut StageTimes,
    admitted: Instant,
    flush_start: Option<Instant>,
    batch_start: Option<Instant>,
) {
    let now = Instant::now();
    let flush = flush_start.unwrap_or(now).max(admitted);
    let batch = batch_start.unwrap_or(now).max(flush);
    stages.batch_wait += flush.saturating_duration_since(admitted);
    stages.queue_wait += batch.saturating_duration_since(flush);
    stages.inference += now.saturating_duration_since(batch);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// The answer to one score request, carried to the single
/// serialization exit ([`Worker::finish_score`]).
enum ScoreOutcome {
    /// A score to send; `faulted` routes the write through the
    /// write-fault sites (only cache hits bypass them).
    Reply { resp: ScoreResponse, faulted: bool },
    /// A typed error to send (always through the write-fault sites).
    Error(ServeError),
}

/// The state one shard thread owns outright.
struct Worker<'a> {
    shared: &'a Shared,
    shard: &'a ShardState,
    max_batch: usize,
    /// Score cache, keyed by quantized features; values carry the model
    /// generation that produced them so a reload lazily invalidates
    /// stale entries on lookup.
    cache: LruCache<Vec<i64>, (f64, u64)>,
    batcher: Batcher,
}

pub(crate) fn shard_loop(
    shared: &Shared,
    shard: &ShardState,
    mut poller: Poller,
    conn_rx: &Receiver<TcpStream>,
) {
    let mut worker = Worker {
        shared,
        shard,
        max_batch: shared.config.max_batch.max(1),
        cache: LruCache::new(shared.config.cache_capacity),
        batcher: Batcher {
            pending: VecDeque::new(),
            flushing: VecDeque::new(),
            flush_start: Instant::now(),
            held: None,
        },
    };
    let max_batch = worker.max_batch;
    let limit = shared.config.max_line_bytes;
    let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
    let mut next_id = 0usize;
    let mut events: Vec<Event> = Vec::new();
    loop {
        // Adopt newly pinned connections (dropped mid-drain: the
        // acceptor may race the shutdown flag by one hand-off).
        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        while let Ok(stream) = conn_rx.try_recv() {
            if !shutting_down {
                conns.insert(next_id, Conn::new(stream));
                next_id += 1;
            }
        }

        // A connection with replies to write waits for writability; one
        // that may take requests waits for bytes; the rest wait on the
        // batch schedule.
        {
            let sources: Vec<(usize, &TcpStream, Interest)> = conns
                .iter()
                .filter_map(|(&id, c)| {
                    if !c.dead && !c.out.is_empty() {
                        Some((id, &c.stream, Interest::Writable))
                    } else if c.wants_read(max_batch) {
                        Some((id, &c.stream, Interest::Readable))
                    } else {
                        None
                    }
                })
                .collect();
            let timeout = worker
                .batcher
                .next_wake(shared.config.batch_timeout)
                .map_or(READ_TICK, |at| {
                    at.saturating_duration_since(Instant::now()).min(READ_TICK)
                });
            let _ = poller.poll(&sources, Some(timeout), &mut events);
        }
        for event in &events {
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.writable && !conn.out.is_empty() {
                conn.flush();
            }
            if event.readable && conn.wants_read(max_batch) {
                conn.read(limit);
            }
        }

        // Admit requests, then run what is due; a finished batch frees
        // reply slots, which may let pipelined lines in.
        loop {
            for (&id, conn) in conns.iter_mut() {
                worker.process_lines(id, conn);
            }
            if !worker.advance(&mut conns) {
                break;
            }
        }
        worker.expire(&mut conns);

        let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
        let now = Instant::now();
        for conn in conns.values_mut() {
            if !conn.out.is_empty()
                && now.saturating_duration_since(conn.last_progress) > WRITE_STALL_CAP
            {
                conn.dead = true;
            }
            conn.input.compact();
            // Drain: stop reading, answer what was admitted, close.
            conn.closing |= shutting_down;
        }
        conns.retain(|_, c| !c.finished());
        shard
            .metrics
            .queue_depth
            .set(worker.batcher.len().min(i64::MAX as usize) as i64);
        if shutting_down && conns.is_empty() && worker.batcher.is_empty() {
            while conn_rx.try_recv().is_ok() {}
            return;
        }
    }
}

impl Worker<'_> {
    /// Takes request lines off `conn` while it may have more requests
    /// in flight and its output buffer is empty.
    fn process_lines(&mut self, id: usize, conn: &mut Conn) {
        let limit = self.shared.config.max_line_bytes;
        while conn.accepts_requests(self.max_batch) && conn.out.is_empty() {
            match conn.input.extract_line(limit, conn.eof) {
                LineStatus::NotYet => return,
                LineStatus::TooLong => {
                    // Typed error, then close: the stream is out of sync.
                    self.respond_error(conn, &ServeError::LineTooLong { limit });
                    conn.closing = true;
                }
                LineStatus::Line(line) => {
                    if self.shared.fire(&self.shard.metrics, FaultSite::SlowRead) {
                        std::thread::sleep(self.shared.injector.delay());
                    }
                    self.process_line(id, conn, &line);
                }
            }
        }
    }

    fn process_line(&mut self, id: usize, conn: &mut Conn, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        let shared = self.shared;
        // The span, the latency clock and the stage clocks all start once
        // the line is parsed, so the six stages account for the whole span.
        let parsed = protocol::parse_request(line, shared.pipeline.features().dim());
        let start = Instant::now();
        let mut span = Span::enter("serve.request");
        let reply = match parsed {
            Err(e) => {
                span.record("cmd", "invalid");
                return self.respond_error(conn, &e);
            }
            Ok(Request::Stats) => {
                span.record("cmd", "stats");
                // Both the merged body and the `shards` array come from the
                // SAME snapshot vector, so they agree even mid-drain.
                let (merged, per_shard) = server::refresh(shared);
                protocol::encode_stats_with_shards(&merged, &per_shard)
            }
            Ok(Request::Metrics) => {
                span.record("cmd", "metrics");
                let (merged, _) = server::refresh(shared);
                // A multi-line exposition block over the otherwise
                // line-oriented protocol, terminated by a `# EOF` marker
                // line (OpenMetrics convention).
                let mut block = shared.aggregate.render_prometheus(merged.cache_entries);
                if !block.ends_with('\n') {
                    block.push('\n');
                }
                block + "# EOF"
            }
            Ok(Request::Health) => {
                span.record("cmd", "health");
                protocol::encode_health(&server::health_report(shared))
            }
            Ok(Request::Sentinel) => {
                span.record("cmd", "sentinel");
                protocol::encode_sentinel(&server::sentinel_report(shared))
            }
            Ok(Request::Slo) => {
                span.record("cmd", "slo");
                protocol::encode_slo(&server::evaluate_slo(shared))
            }
            Ok(Request::Reload { path }) => {
                span.record("cmd", "reload");
                match server::do_reload(shared, &path) {
                    Ok((generation, params)) => {
                        span.record("generation", generation);
                        protocol::encode_reload_ack(generation, params)
                    }
                    Err(e) => return self.respond_error(conn, &e),
                }
            }
            Ok(Request::Shutdown) => {
                span.record("cmd", "shutdown");
                shared.trigger_shutdown();
                conn.closing = true;
                protocol::encode_shutdown_ack()
            }
            Ok(Request::Score {
                counts,
                client_id,
                trace,
            }) => {
                span.record("cmd", "score");
                if let Some(t) = trace {
                    span.record("trace_id", t.trace_id);
                    if t.span_id != 0 {
                        span.record("client_span", t.span_id);
                    }
                }
                let cid = client_id.unwrap_or_else(|| conn.peer.clone());
                self.shard.metrics.requests.inc();
                if let Some((outcome, mut span, mut stages)) =
                    self.score_step(id, conn, &counts, cid, trace, span, start)
                {
                    self.finish_score(conn, None, &outcome, &mut stages, &mut span);
                }
                return;
            }
        };
        self.deliver(conn, None, reply, false);
    }

    // -----------------------------------------------------------------------
    // Score path
    // -----------------------------------------------------------------------

    /// Runs the synchronous part of the score pipeline — sentinel,
    /// cache, admission control — accumulating per-stage time as it
    /// goes. Returns the resolved outcome, or `None` once the request is
    /// admitted as a miss awaiting its batch.
    #[allow(clippy::too_many_arguments)]
    fn score_step(
        &mut self,
        id: usize,
        conn: &mut Conn,
        counts: &[u32],
        client_id: String,
        trace: Option<TraceContext>,
        mut span: Span,
        start: Instant,
    ) -> Option<(ScoreOutcome, Span, StageTimes)> {
        let (shared, shard) = (self.shared, self.shard);
        let metrics = &shard.metrics;
        let mut stages = StageTimes::default();
        let features = shared.pipeline.features().transform_counts(counts);
        let cache_key = quantize(&features);

        // The sentinel rules *before* scoring, from recorded history alone,
        // so its decisions are a pure function of (seed, client history).
        let sentinel_on = shared.config.sentinel.enabled;
        let decision = if sentinel_on {
            let check = Instant::now();
            let decision = match shard.sentinel.lock() {
                Ok(mut s) => s.decide(&client_id),
                Err(_) => SentinelDecision::Allow,
            };
            stages.sentinel_check += check.elapsed();
            decision
        } else {
            SentinelDecision::Allow
        };
        if let SentinelDecision::Throttle { retry_after_ms } = decision {
            metrics.sentinel_throttled.inc();
            span.record("throttled", true);
            let check = Instant::now();
            self.sentinel_record(&client_id, cache_key, None);
            stages.sentinel_check += check.elapsed();
            let outcome = ScoreOutcome::Error(ServeError::Throttled { retry_after_ms });
            return Some((outcome, span, stages));
        }
        let poison = matches!(decision, SentinelDecision::Poison);

        // A cache entry is only valid for the generation that produced it;
        // entries from before a reload read as misses and are overwritten
        // when the re-scored batch lands (lazy invalidation).
        let generation = shared.model.generation();
        let cached = self
            .cache
            .get(&cache_key)
            .filter(|(_, cached_generation)| *cached_generation == generation)
            .map(|(score, _)| score);
        // The key is the transformed, quantized request, so everything
        // since the request was parsed, bar the sentinel, is the lookup.
        stages.cache_lookup = start.elapsed().saturating_sub(stages.sentinel_check);
        if let Some(score) = cached {
            metrics.cache_hits.inc();
            metrics.record_latency(start.elapsed());
            span.record("cached", true);
            if sentinel_on {
                // History records the *true* verdict so later flip analysis
                // is about the model's boundary, not the poison stream.
                let check = Instant::now();
                self.sentinel_record(&client_id, cache_key.clone(), Some(score >= 0.5));
                stages.sentinel_check += check.elapsed();
            }
            let served = self.serve_score(poison, score, &cache_key, &mut span);
            let outcome = ScoreOutcome::Reply {
                resp: ScoreResponse::new(served, true, 0).with_generation(generation),
                faulted: false,
            };
            return Some((outcome, span, stages));
        }
        metrics.cache_misses.inc();
        span.record("cached", false);

        if shared.shutting_down.load(Ordering::SeqCst) {
            return Some((ScoreOutcome::Error(ServeError::ShuttingDown), span, stages));
        }

        // Admission control: one check on the misses already waiting, so
        // a saturated shard rejects cheaply instead of queueing work it
        // cannot finish in time.
        let depth = self.batcher.len();
        let admit_limit = shared
            .config
            .shed_queue_depth
            .min(shared.config.queue_capacity)
            .max(1);
        if depth >= admit_limit {
            metrics.shed.inc();
            metrics.overloaded.inc();
            span.record("shed", true);
            let outcome = ScoreOutcome::Error(ServeError::Overloaded {
                capacity: shared.config.queue_capacity,
                retry_after_ms: suggested_retry_after_ms(
                    depth as u64,
                    self.max_batch,
                    shared.config.batch_timeout,
                ),
            });
            return Some((outcome, span, stages));
        }

        let admitted = Instant::now();
        self.batcher.pending.push_back(Miss {
            conn: id,
            seq: conn.reserve(),
            features,
            cache_key,
            trace,
            client_id,
            poison,
            span,
            stages,
            start,
            admitted,
            deadline: admitted + shared.config.request_deadline,
        });
        None
    }

    /// Runs every batch that is due: a held batch past its release, the
    /// next `max_batch` rows of a flush in progress, or a new flush once
    /// the pending list fills a batch or its window closes. Returns
    /// whether any batch ran.
    fn advance(&mut self, conns: &mut BTreeMap<usize, Conn>) -> bool {
        let mut ran = false;
        loop {
            let now = Instant::now();
            if let Some(held) = &self.batcher.held {
                if now < held.release {
                    return ran;
                }
                let held = self.batcher.held.take().expect("held batch");
                self.score(held.rows, held.start, conns);
                ran = true;
                continue;
            }
            if self.batcher.flushing.is_empty() {
                // A draining shard scores what it holds without waiting.
                let window = self.shared.config.batch_timeout;
                let due = self.batcher.pending.len() >= self.max_batch
                    || self.shared.shutting_down.load(Ordering::SeqCst)
                    || self
                        .batcher
                        .pending
                        .front()
                        .is_some_and(|m| now >= m.admitted + window);
                if self.batcher.pending.is_empty() || !due {
                    return ran;
                }
                self.batcher.flush_start = now;
                self.batcher.flushing = std::mem::take(&mut self.batcher.pending);
            }
            let n = self.max_batch.min(self.batcher.flushing.len());
            let rows: Vec<Miss> = self.batcher.flushing.drain(..n).collect();
            // The first batch of a flush starts with it: zero queue_wait.
            let start = now;
            if self.shared.fire(&self.shard.metrics, FaultSite::ScoreDelay) {
                let release = start + self.shared.injector.delay();
                self.batcher.held = Some(Held {
                    rows,
                    start,
                    release,
                });
                continue;
            }
            self.score(rows, start, conns);
            ran = true;
        }
    }

    /// Scores one batch inline and answers its rows.
    fn score(&mut self, mut rows: Vec<Miss>, start: Instant, conns: &mut BTreeMap<usize, Conn>) {
        if rows.is_empty() {
            return;
        }
        let (shared, shard) = (self.shared, self.shard);
        let metrics = &shard.metrics;
        // One Arc clone per batch: a concurrent reload lands exactly at
        // a batch boundary, so every row in this batch — and the reply
        // generation each reports — comes from one model.
        let model = shared.model.current();
        let n = rows.len();
        let mut span = Span::enter("serve.batch");
        span.record("rows", n as u64);
        span.record("shard", shard.index as u64);
        span.record("generation", model.generation);
        // Tag the batch with every member's wire trace so a request is
        // followable into the batch that scored it.
        for trace in rows.iter().filter_map(|m| m.trace) {
            if trace.trace_id != 0 {
                trace::event(
                    "serve.batch.job",
                    &[
                        ("trace_id", trace.trace_id.into()),
                        ("client_span", trace.span_id.into()),
                    ],
                );
            }
        }
        let features: Vec<Vec<f64>> = rows
            .iter_mut()
            .map(|m| std::mem::take(&mut m.features))
            .collect();

        // BatchPanic/RowPanic fire inside the isolated scorer; with a
        // single shard (every deterministic chaos plan) only this
        // thread consumes those sites, so the delta is race-free.
        let scorer_faults = || {
            shared.injector.fired(FaultSite::BatchPanic)
                + shared.injector.fired(FaultSite::RowPanic)
        };
        let faults_before = scorer_faults();
        let outcome = score_rows_isolated(&model.network, &features, &shared.injector);
        metrics.faults_injected.add(scorer_faults() - faults_before);
        metrics.batches.inc();
        metrics.record_batch_size(n as u64);
        if outcome.batch_failed {
            metrics.scorer_panics.inc();
            span.record("batch_failed", true);
        }
        metrics.row_failures.add(outcome.row_failures);
        let ok_rows = outcome.scores.iter().filter(|s| s.is_ok()).count() as u64;
        metrics.rows_scored.add(ok_rows);
        for (miss, score) in rows.iter().zip(&outcome.scores) {
            if let Ok(score) = score {
                self.cache
                    .insert(miss.cache_key.clone(), (*score, model.generation));
            }
        }
        metrics
            .cache_entries
            .set(self.cache.len().min(i64::MAX as usize) as i64);
        drop(span);

        let flush_start = Some(self.batcher.flush_start);
        for (mut miss, score) in rows.into_iter().zip(outcome.scores) {
            split_wait(&mut miss.stages, miss.admitted, flush_start, Some(start));
            let outcome = match score {
                Ok(score) => {
                    let key = &miss.cache_key;
                    metrics.record_latency(miss.start.elapsed());
                    miss.span.record("batch_size", n as u64);
                    let served = if shared.config.sentinel.enabled {
                        let check = Instant::now();
                        self.sentinel_record(&miss.client_id, key.clone(), Some(score >= 0.5));
                        miss.stages.sentinel_check += check.elapsed();
                        self.serve_score(miss.poison, score, key, &mut miss.span)
                    } else {
                        score
                    };
                    ScoreOutcome::Reply {
                        resp: ScoreResponse::new(served, false, n)
                            .with_generation(model.generation),
                        faulted: true,
                    }
                }
                Err(detail) => ScoreOutcome::Error(ServeError::Internal { detail }),
            };
            // A connection that died meanwhile gets no reply; its score
            // is cached all the same.
            if let Some(conn) = conns.get_mut(&miss.conn) {
                let (stages, span) = (&mut miss.stages, &mut miss.span);
                self.finish_score(conn, Some(miss.seq), &outcome, stages, span);
            }
        }
    }

    /// Answers every miss whose deadline has passed with a typed
    /// `deadline_exceeded`, wherever it waits, so a held or slow batch
    /// never hangs a connection.
    fn expire(&mut self, conns: &mut BTreeMap<usize, Conn>) {
        let now = Instant::now();
        let late = |m: &Miss| m.deadline <= now;
        let flush_start = Some(self.batcher.flush_start);
        let mut expired: Vec<(Miss, Option<Instant>, Option<Instant>)> = Vec::new();
        if let Some(held) = &mut self.batcher.held {
            let n = held.rows.partition_point(late);
            let batch_start = Some(held.start);
            expired.extend(held.rows.drain(..n).map(|m| (m, flush_start, batch_start)));
        }
        let n = self.batcher.flushing.partition_point(late);
        expired.extend(
            self.batcher
                .flushing
                .drain(..n)
                .map(|m| (m, flush_start, None)),
        );
        let n = self.batcher.pending.partition_point(late);
        expired.extend(self.batcher.pending.drain(..n).map(|m| (m, None, None)));

        let deadline_ms = self.shared.config.request_deadline.as_millis() as u64;
        for (mut miss, flush_start, batch_start) in expired {
            self.shard.metrics.deadline_exceeded.inc();
            miss.span.record("deadline_exceeded", true);
            split_wait(&mut miss.stages, miss.admitted, flush_start, batch_start);
            if let Some(conn) = conns.get_mut(&miss.conn) {
                let outcome = ScoreOutcome::Error(ServeError::DeadlineExceeded { deadline_ms });
                self.finish_score(
                    conn,
                    Some(miss.seq),
                    &outcome,
                    &mut miss.stages,
                    &mut miss.span,
                );
            }
        }
    }

    /// The single exit for every score request: encode, queue and a
    /// non-blocking flush are the `serialize` stage, after which the
    /// full six-stage decomposition is recorded on the span and into the
    /// `serve_stage_*_us` histograms.
    fn finish_score(
        &self,
        conn: &mut Conn,
        seq: Option<u64>,
        outcome: &ScoreOutcome,
        stages: &mut StageTimes,
        span: &mut Span,
    ) {
        let serialize_start = Instant::now();
        let (line, faulted) = match outcome {
            ScoreOutcome::Reply { resp, faulted } => (protocol::encode_score(resp), *faulted),
            ScoreOutcome::Error(err) => {
                self.shard.metrics.errors.inc();
                (protocol::encode_error(err), true)
            }
        };
        self.deliver(conn, seq, line, faulted);
        stages.serialize = serialize_start.elapsed();
        self.shard.metrics.record_stages(stages);
        let [queue_wait, batch_wait, cache_lookup, sentinel_check, inference, serialize] =
            stages.as_us();
        span.record("stage_queue_wait_us", queue_wait);
        span.record("stage_batch_wait_us", batch_wait);
        span.record("stage_cache_lookup_us", cache_lookup);
        span.record("stage_sentinel_check_us", sentinel_check);
        span.record("stage_inference_us", inference);
        span.record("stage_serialize_us", serialize);
    }

    /// Records one query in the shard's sentinel and forwards its
    /// observations to the metrics.
    fn sentinel_record(&self, client_id: &str, key: Vec<i64>, verdict: Option<bool>) {
        let obs = match self.shard.sentinel.lock() {
            Ok(mut s) => s.record(client_id, key, verdict),
            Err(_) => return,
        };
        let metrics = &self.shard.metrics;
        if obs.near_duplicate {
            metrics.sentinel_near_duplicates.inc();
        }
        if obs.verdict_flip {
            metrics.sentinel_verdict_flips.inc();
        }
        if obs.newly_flagged {
            metrics.sentinel_flagged.inc();
        }
    }

    /// The score actually sent to the client: the true score, or — for a
    /// poison-flagged client — a deterministic seed-randomized one.
    fn serve_score(&self, poison: bool, score: f64, key: &[i64], span: &mut Span) -> f64 {
        if !poison {
            return score;
        }
        self.shard.metrics.sentinel_poisoned.inc();
        span.record("poisoned", true);
        poison_score(self.shared.config.sentinel.seed, key)
    }

    // -----------------------------------------------------------------------
    // Writes
    // -----------------------------------------------------------------------

    fn respond_error(&self, conn: &mut Conn, err: &ServeError) {
        self.shard.metrics.errors.inc();
        self.deliver(conn, None, protocol::encode_error(err), true);
    }

    /// Queues one reply line for `conn` and flushes what is in order.
    /// `faulted` routes it through the write-fault sites:
    /// [`FaultSite::WriteReset`] drops the connection instead of
    /// replying, [`FaultSite::SlowWrite`] pauses the loop after flushing
    /// the first half of the line (when it is next on the wire).
    fn deliver(&self, conn: &mut Conn, seq: Option<u64>, line: String, faulted: bool) {
        let shared = self.shared;
        let metrics = &self.shard.metrics;
        if faulted && shared.fire(metrics, FaultSite::WriteReset) {
            conn.dead = true;
            return;
        }
        let mut bytes = line.into_bytes();
        if faulted && shared.fire(metrics, FaultSite::SlowWrite) {
            // Split only a reply that goes straight to the wire.
            if seq.map_or(conn.replies.is_empty(), |seq| seq == conn.first_seq) {
                let rest = bytes.split_off(bytes.len() / 2);
                conn.emit(&bytes);
                bytes = rest;
            }
            conn.flush();
            std::thread::sleep(shared.injector.delay());
        }
        bytes.push(b'\n');
        conn.queue(seq, bytes);
        conn.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> LineStatus {
        LineStatus::Line(s.to_string())
    }

    /// Frames `bytes` until the buffer runs dry or a line is rejected.
    fn frames(bytes: &[u8], limit: usize, eof: bool) -> Vec<LineStatus> {
        let mut input = LineBuf {
            bytes: bytes.to_vec(),
            consumed: 0,
        };
        let mut out = Vec::new();
        loop {
            let status = input.extract_line(limit, eof);
            let done = !matches!(status, LineStatus::Line(_));
            out.push(status);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn a_line_split_across_reads_is_framed_once_complete() {
        let mut input = LineBuf::default();
        input.bytes.extend_from_slice(b"{\"cmd\":");
        assert_eq!(input.extract_line(64, false), LineStatus::NotYet);
        input.bytes.extend_from_slice(b"\"stats\"}\n{\"cmd\"");
        assert_eq!(input.extract_line(64, false), line("{\"cmd\":\"stats\"}"));
        assert_eq!(input.extract_line(64, false), LineStatus::NotYet);
        input.compact();
        input.bytes.extend_from_slice(b":\"health\"}\n");
        assert_eq!(input.extract_line(64, false), line("{\"cmd\":\"health\"}"));
        assert_eq!(input.unconsumed(), 0);
    }

    #[test]
    fn crlf_endings_are_stripped() {
        let framed = frames(b"a\r\nb\n", 64, false);
        assert_eq!(framed, [line("a"), line("b"), LineStatus::NotYet]);
    }

    #[test]
    fn a_final_unterminated_line_is_served_after_eof() {
        let framed = frames(b"first\nlast", 64, false);
        assert_eq!(framed, [line("first"), LineStatus::NotYet]);
        let framed = frames(b"first\nlast", 64, true);
        assert_eq!(framed, [line("first"), line("last"), LineStatus::NotYet]);
    }

    #[test]
    fn limit_plus_one_bytes_without_a_newline_is_too_long() {
        assert_eq!(frames(&[b'x'; 8], 8, false), [LineStatus::NotYet]);
        assert_eq!(frames(&[b'x'; 9], 8, false), [LineStatus::TooLong]);
    }

    #[test]
    fn a_newline_past_the_limit_is_too_long() {
        let framed = frames(b"12345678\n", 8, false);
        assert_eq!(framed, [line("12345678"), LineStatus::NotYet]);
        let framed = frames(b"ok\n123456789\n", 8, false);
        assert_eq!(framed, [line("ok"), LineStatus::TooLong]);
    }
}
