//! Hostile-peer regression tests: a misbehaving connection must not
//! raise the latency of well-behaved clients on the same shard.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_serve::{spawn, ServeConfig};

/// How long the server lets a connection hold unwritten replies without
/// write progress (the server's private constant of the same name).
const WRITE_STALL_CAP: Duration = Duration::from_secs(10);

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context"))
}

fn render_line(counts: &[u32]) -> String {
    let entries: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    format!("{{\"features\":[{}]}}", entries.join(","))
}

/// A peer pipelines `{"cmd":"metrics"}` and never reads a reply. Once
/// its socket buffers are full, a healthy client on the same shard must
/// still get every answer quickly, and the stalled peer is closed once
/// `WRITE_STALL_CAP` passes without write progress.
#[test]
fn a_peer_that_never_reads_cannot_stall_its_shard() {
    let handle = spawn(
        ctx().detector.clone(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr();

    let slow = TcpStream::connect(addr).expect("connect slow peer");
    slow.set_write_timeout(Some(WRITE_STALL_CAP * 3))
        .expect("write timeout");
    let written = Arc::new(AtomicU64::new(0));
    let slow_peer = {
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            let chunk = "{\"cmd\":\"metrics\"}\n".repeat(64);
            let mut last_progress = Instant::now();
            while (&slow).write_all(chunk.as_bytes()).is_ok() {
                last_progress = Instant::now();
                written.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
            (last_progress, Instant::now())
        })
    };

    // Wait until the server stops taking the peer's bytes: its replies
    // are backed up and its requests sit unread.
    let mut seen = written.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = written.load(Ordering::Relaxed);
        if now == seen && now > 0 {
            break;
        }
        seen = now;
    }

    let stream = TcpStream::connect(addr).expect("connect healthy client");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(WRITE_STALL_CAP * 2))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let test = ctx().dataset.test();
    let lines: Vec<String> = (0..8)
        .map(|i| render_line(test[i % test.len()].counts()))
        .chain(std::iter::once("{\"cmd\":\"health\"}".to_string()))
        .collect();
    let mut max_rtt = Duration::ZERO;
    let phase = Instant::now();
    let mut i = 0;
    while phase.elapsed() < Duration::from_secs(2) {
        let line = &lines[i % lines.len()];
        i += 1;
        let sent = Instant::now();
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write newline");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read reply");
        max_rtt = max_rtt.max(sent.elapsed());
        assert!(
            resp.starts_with("{\"score\":") || resp.starts_with("{\"health\":"),
            "{resp}"
        );
    }
    assert!(
        max_rtt < Duration::from_millis(50),
        "a peer that never reads stalled the healthy client: max round trip {max_rtt:?} over {i} requests"
    );

    let (last_progress, closed) = slow_peer.join().expect("slow peer thread");
    let stalled = closed.saturating_duration_since(last_progress);
    assert!(
        stalled >= WRITE_STALL_CAP - Duration::from_secs(2)
            && stalled <= WRITE_STALL_CAP + Duration::from_secs(5),
        "the stalled peer was closed {stalled:?} after its last write progress"
    );
    handle.shutdown();
}
