//! File-descriptor exhaustion regression test: when `accept` fails
//! because the process is out of fds, the acceptor must back off
//! instead of spinning a core, and the connection waiting in the
//! backlog must be served once fds are free again.
//!
//! The test re-runs its own binary under `sh -c 'ulimit -n 64; …'`, so
//! only that child process gets the lowered limit.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

use maleva_core::{ExperimentContext, ExperimentScale};
use maleva_serve::{spawn, ServeConfig};

/// Set in the re-executed child, which runs the actual scenario.
const CHILD_ENV: &str = "MALEVA_FD_EXHAUSTION_CHILD";
const TEST_NAME: &str = "accept_errors_back_off_instead_of_spinning";
/// How long the child watches its own CPU time while the acceptor
/// cannot get an fd.
const WATCH: Duration = Duration::from_millis(500);
/// Largest CPU time the whole child may burn during [`WATCH`]; a
/// spinning acceptor burns about all of it.
const CPU_BUDGET_MS: u64 = 100;
/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 per second for user space.
const MS_PER_TICK: u64 = 10;

#[test]
fn accept_errors_back_off_instead_of_spinning() {
    if std::env::var_os(CHILD_ENV).is_some() {
        run_child();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 64; exec \"$0\" \"$@\"")
        .arg(exe)
        .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("run the test binary under a lowered fd limit");
    assert!(
        out.status.success(),
        "child failed ({}):\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// User plus system CPU time of this process, in milliseconds, read
/// through an already-open `/proc/self/stat` (opening it again would
/// need a free fd).
fn cpu_ms(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0))
        .expect("rewind /proc/self/stat");
    stat.read_to_string(&mut text)
        .expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &text[text.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> u64 { fields.next().expect("stat field").parse().expect("ticks") };
    (tick() + tick()) * MS_PER_TICK
}

fn run_child() {
    let ctx = ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context");
    let detector = &ctx.detector;
    let counts = ctx.dataset.test()[0].counts();
    let features = detector.features().transform_counts(counts);
    let want = maleva_serve::score_rows(detector.network(), std::slice::from_ref(&features))
        .expect("oracle forward")[0];
    let entries: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
    let line = format!("{{\"features\":[{}]}}\n", entries.join(","));

    let handle = spawn(
        detector.clone(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");
    let mut stat = File::open("/proc/self/stat").expect("open /proc/self/stat");

    // Use up every fd but one, and spend that one on the client: the
    // server can then complete no `accept` while the connection waits
    // in the listen backlog.
    let mut hog = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hog.push(file);
    }
    assert!(!hog.is_empty(), "no fds could be opened at all");
    hog.pop();
    let client = TcpStream::connect(handle.addr()).expect("connect into the backlog");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    (&client).write_all(line.as_bytes()).expect("send request");

    let before = cpu_ms(&mut stat);
    std::thread::sleep(WATCH);
    let burned = cpu_ms(&mut stat) - before;
    assert!(
        burned < CPU_BUDGET_MS,
        "the process burned {burned} ms of CPU in {WATCH:?} while accept could not get an fd"
    );

    drop(hog);
    let mut reply = String::new();
    BufReader::new(&client)
        .read_line(&mut reply)
        .expect("reply once fds are free");
    assert!(reply.starts_with("{\"score\":"), "{reply}");
    let rest = &reply["{\"score\":".len()..];
    let got: f64 = rest[..rest.find(',').expect("fields after score")]
        .parse()
        .expect("score parses");
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "reply {got} vs oracle {want}"
    );
    drop(client);
    handle.shutdown();
}
