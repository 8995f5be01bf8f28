//! Concurrency soak test: N client threads hammer a live server over
//! TCP on an ephemeral port; every response must bit-exactly match the
//! offline oracle (feature transform + forward pass computed without
//! the server), no request may be dropped or duplicated, and the final
//! stats counters must sum.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_serve::{spawn, ServeConfig, ServerHandle};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 60;
/// Distinct request vectors; far fewer than total requests so the
/// cache sees plenty of repeats.
const KEYSPACE: usize = 16;

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context"))
}

fn spawn_server(max_batch: usize, cache_capacity: usize) -> ServerHandle {
    spawn(
        ctx().detector.clone(),
        ServeConfig {
            max_batch,
            cache_capacity,
            batch_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .expect("spawn server")
}

/// The offline oracle: what the score for `counts` must be, computed
/// without the server (single-row forward; batching is bit-identical
/// by the crate's property tests).
fn oracle_score(counts: &[u32]) -> f64 {
    let detector = &ctx().detector;
    let features = detector.features().transform_counts(counts);
    maleva_serve::score_rows(detector.network(), std::slice::from_ref(&features))
        .expect("oracle forward")[0]
}

fn render_line(counts: &[u32]) -> String {
    let entries: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("{{\"features\":[{}]}}", entries.join(","))
}

/// Pulls the `"score"` field out of a response line, failing on error
/// responses.
fn parse_score(line: &str) -> f64 {
    assert!(
        line.starts_with("{\"score\":"),
        "expected a score response, got: {line}"
    );
    let rest = &line["{\"score\":".len()..];
    let end = rest.find(',').expect("fields after score");
    rest[..end].parse().expect("score is a float")
}

#[test]
fn soak_every_response_matches_the_oracle_and_counters_sum() {
    let handle = spawn_server(32, 4096);
    let addr = handle.addr();

    // Request pool + oracle answers, computed before any load.
    let test = ctx().dataset.test();
    let pool: Vec<(String, u64)> = (0..KEYSPACE)
        .map(|i| {
            let counts = test[i % test.len()].counts();
            (render_line(counts), oracle_score(counts).to_bits())
        })
        .collect();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let pool = pool.clone();
            std::thread::spawn(move || -> u64 {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let mut responses = 0u64;
                for r in 0..REQUESTS_PER_CLIENT {
                    // Stagger clients through the keyspace so concurrent
                    // requests mix cache hits, misses, and shared batches.
                    let (line, want_bits) = &pool[(c * 7 + r) % pool.len()];
                    writer.write_all(line.as_bytes()).expect("write");
                    writer.write_all(b"\n").expect("write newline");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("read response");
                    let got = parse_score(resp.trim_end());
                    assert_eq!(
                        got.to_bits(),
                        *want_bits,
                        "client {c} request {r}: score {got} diverged from oracle"
                    );
                    responses += 1;
                }
                responses
            })
        })
        .collect();

    let total: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .sum();
    // One response per request: nothing dropped, nothing duplicated.
    assert_eq!(total, (CLIENTS * REQUESTS_PER_CLIENT) as u64);

    let stats = handle.shutdown();
    assert_eq!(stats.requests, total, "every request is counted");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        total,
        "every request is a cache hit or a miss"
    );
    assert_eq!(
        stats.rows_scored, stats.cache_misses,
        "exactly the misses reach the network"
    );
    assert_eq!(stats.errors, 0, "no typed errors under clean load");
    assert_eq!(stats.overloaded, 0, "queue never overflowed");
    // KEYSPACE distinct vectors over CLIENTS*REQUESTS requests: repeats
    // must have hit the cache, and the cache can't exceed the keyspace.
    assert!(
        stats.cache_hits > 0,
        "repeated requests should hit the cache"
    );
    assert!(stats.cache_entries <= KEYSPACE);
}

#[test]
fn soak_without_cache_scores_every_request_and_batches_under_load() {
    let handle = spawn_server(16, 0);
    let addr = handle.addr();

    let test = ctx().dataset.test();
    let pool: Vec<(String, u64)> = (0..KEYSPACE)
        .map(|i| {
            let counts = test[i % test.len()].counts();
            (render_line(counts), oracle_score(counts).to_bits())
        })
        .collect();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                for r in 0..REQUESTS_PER_CLIENT {
                    let (line, want_bits) = &pool[(c + r) % pool.len()];
                    writer.write_all(line.as_bytes()).expect("write");
                    writer.write_all(b"\n").expect("write newline");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("read response");
                    let got = parse_score(resp.trim_end());
                    assert_eq!(got.to_bits(), *want_bits);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let stats = handle.shutdown();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.requests, total);
    assert_eq!(stats.cache_hits, 0, "cache disabled");
    assert_eq!(
        stats.rows_scored, total,
        "every request reaches the network"
    );
    assert_eq!(stats.errors, 0);
    // 8 concurrent clients against one scorer: at least some batches
    // must have coalesced more than one row.
    assert!(
        stats.batches <= stats.rows_scored,
        "batches {} cannot exceed rows {}",
        stats.batches,
        stats.rows_scored
    );
}

#[test]
fn graceful_shutdown_over_the_wire_drains_and_acknowledges() {
    let handle = spawn_server(8, 128);
    let addr = handle.addr();

    let counts = ctx().dataset.test()[0].counts();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    writer
        .write_all((render_line(counts) + "\n").as_bytes())
        .expect("write score request");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read score");
    assert_eq!(
        parse_score(resp.trim_end()).to_bits(),
        oracle_score(counts).to_bits()
    );

    writer
        .write_all(b"{\"cmd\":\"stats\"}\n")
        .expect("write stats");
    resp.clear();
    reader.read_line(&mut resp).expect("read stats");
    assert!(resp.starts_with("{\"stats\":{"), "stats response: {resp}");
    assert!(
        resp.contains("\"requests\":1"),
        "stats counts the request: {resp}"
    );

    // Prometheus exposition over the wire: multi-line, "# EOF"-terminated.
    writer
        .write_all(b"{\"cmd\":\"metrics\"}\n")
        .expect("write metrics");
    let mut exposition = String::new();
    loop {
        resp.clear();
        reader.read_line(&mut resp).expect("read metrics line");
        if resp.trim_end() == "# EOF" {
            break;
        }
        exposition.push_str(&resp);
    }
    assert!(
        exposition.contains("# TYPE serve_requests_total counter"),
        "metrics exposition: {exposition}"
    );
    assert!(
        exposition.contains("serve_requests_total 1"),
        "{exposition}"
    );
    assert!(
        exposition.contains("serve_request_latency_us_count 1"),
        "{exposition}"
    );

    writer
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("write shutdown");
    resp.clear();
    reader.read_line(&mut resp).expect("read ack");
    assert_eq!(resp.trim_end(), "{\"ok\":\"shutting down\"}");

    // join() returns because the wire shutdown stopped the server.
    let stats = handle.join();
    assert_eq!(stats.requests, 1);
}

/// What one pipelined request must be answered with.
enum Want {
    Score { bits: u64, cached: bool },
    Prefix(&'static str),
}

/// One connection pipelines a mixed backlog in a single write: misses,
/// repeats that hit the cache, commands, a malformed line, and a
/// trailing over-long line. Replies must come back in request order,
/// every score bit-identical to the oracle, the misses must share
/// batches, and the over-long line is answered only after every earlier
/// reply, followed by the close.
#[test]
fn pipelined_lines_answer_in_order_and_share_batches() {
    const MAX_LINE: usize = 16 * 1024;
    let handle = spawn(
        ctx().detector.clone(),
        ServeConfig {
            max_batch: 4,
            // Long enough that only a full batch, never the window,
            // triggers scoring.
            batch_timeout: Duration::from_millis(200),
            max_line_bytes: MAX_LINE,
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");

    let test = ctx().dataset.test();
    let score = |i: usize, cached: bool| {
        let counts = test[i % test.len()].counts();
        let want = Want::Score {
            bits: oracle_score(counts).to_bits(),
            cached,
        };
        (render_line(counts), want)
    };
    let command = |line: &str, prefix: &'static str| (line.to_string(), Want::Prefix(prefix));
    let mut script: Vec<(String, Want)> = (0..4).map(|i| score(i, false)).collect();
    script.extend([
        score(0, true),
        score(2, true),
        command("{\"cmd\":\"stats\"}", "{\"stats\":{"),
        command("{\"cmd\":\"health\"}", "{\"health\":{"),
        command(
            "{\"features\":[1,2",
            "{\"error\":{\"kind\":\"malformed_json\"",
        ),
    ]);
    script.extend((4..8).map(|i| score(i, false)));
    script.push(score(5, true));

    let mut payload = String::new();
    for (line, _) in &script {
        payload.push_str(line);
        payload.push('\n');
    }
    payload.push_str(&"x".repeat(MAX_LINE + 1));

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    writer.write_all(payload.as_bytes()).expect("single write");
    let mut reader = BufReader::new(stream);

    let mut misses = 0u64;
    for (i, (_, want)) in script.iter().enumerate() {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read reply");
        let resp = resp.trim_end();
        match want {
            Want::Score { bits, cached } => {
                assert_eq!(parse_score(resp).to_bits(), *bits, "reply {i}: {resp}");
                let hit = resp.contains("\"cached\":true");
                assert_eq!(hit, *cached, "reply {i}: {resp}");
                misses += u64::from(!hit);
            }
            Want::Prefix(prefix) => assert!(resp.starts_with(prefix), "reply {i}: {resp}"),
        }
    }
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read too-long reply");
    assert!(
        resp.starts_with("{\"error\":{\"kind\":\"line_too_long\""),
        "{resp}"
    );
    resp.clear();
    assert_eq!(
        reader.read_line(&mut resp).expect("read close"),
        0,
        "{resp}"
    );

    let stats = handle.shutdown();
    assert_eq!(misses, 8);
    assert_eq!(stats.cache_misses, misses);
    assert!(
        stats.batches < misses,
        "misses must share batches: {} batches for {misses} misses",
        stats.batches
    );
}
