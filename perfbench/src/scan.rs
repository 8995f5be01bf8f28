//! The `scan_open` and `scan_hot` workloads: open-loop Poisson arrivals
//! over real TCP against an in-process `maleva_serve::spawn` of the
//! quick-scale detector with `ServeConfig::default()`.
//!
//! A run is: generate the inputs from the seed (untimed); set up
//! (build the context, spawn the server, get a first reply) several
//! times and keep the last server; then climb the workload's fixed rate
//! ladder, one rung after another, scraping the server's own metrics
//! around each rung and checking every reply against the offline
//! oracle. A traced run then times the serving layers and the paper
//! pipeline's layers in isolation.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use maleva_apisim::{Class, DatasetSpec, Program, World, WorldConfig};
use maleva_core::{DetectorPipeline, ExperimentContext, ExperimentScale};
use maleva_obs::trace;
use maleva_serve::{score_rows, spawn, ServeConfig, ServerHandle};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::json::{self, J};
use crate::loadgen::{self, Conn};
use crate::stats::{self, LogHistogram, RungVerdict};
use crate::{paper, spans, sys, Args, Metric, RunResult};

/// The seeded generator `maleva_apisim::rng` hands out.
type Seeded = rand_chacha::ChaCha8Rng;

/// The latency objective behind `max_rps_at_slo`, on the reported p50.
/// Not on a tail: host steal moves the tail of every rate, and with it
/// the rung where a tail objective fails, by several ladder steps,
/// while the p50 objective fails only where the server saturates.
const SLO_US: f64 = 10_000.0;
/// Requests per latency window. The tail reported is p90, the highest
/// percentile with ten samples beyond it in a window. A repetition's
/// p50 and p90 are the medians over its windows, and a rate's are the
/// medians over its repetitions, so neither a host-level stall that
/// hits a minority of windows nor a backlog collapse in one repetition
/// of three decides the figure. The pooled p99 of every rate and the
/// histograms in the record keep both. The p90 is a per-layer metric
/// only: between runs of the same code on a shared host it spreads
/// past any allowed bound.
const WINDOW: usize = 100;
/// A run whose hypervisor steal exceeds this share of the VM's CPU
/// time is flagged as measured on a contended host: quiet runs show
/// under 3 %, contended ones 5–28 %, and their latencies are not
/// comparable with quiet ones.
const CONTENDED_STEAL: f64 = 0.03;
/// Fewest arrivals in one rung repetition.
const MIN_ARRIVALS: usize = 400;
/// Shortest rung repetition, in seconds of schedule, so that a rate
/// above capacity has time to build a backlog.
const MIN_RUNG_S: f64 = 0.5;
/// Each rung runs this many times, interleaved with the other rungs.
const REPS: usize = 3;
/// Unrecorded lead-in requests at the low rate (on `scan_hot` they
/// start with one pass over the hot set, filling the cache).
const WARMUP_SAMPLES: usize = 200;
/// How long after a rung's last due time replies may still arrive.
const DRAIN: Duration = Duration::from_secs(10);
/// Persistent client connections.
const CONNECTIONS: usize = 2;
/// Distinct programs `scan_hot` draws its requests from.
const HOT_SET: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reported in place of a percentile that landed on a failed request.
const FAILED_US: f64 = 1e9;
/// Table I's test class mix: the share of malware among test samples.
const MALWARE_SHARE: f64 = 28_874.0 / 45_028.0;

/// A workload's fixed ladder of offered rates (requests per second).
struct Spec {
    /// Requests repeat a small hot set instead of being distinct.
    hot: bool,
    ladder: &'static [f64],
    low: f64,
    high: f64,
}

/// The ladders: the low and high rates, then steps of at most 1.2x
/// from below today's capacity to well past saturation, so
/// `max_rps_at_slo` resolves a capacity change of 20 %. Today
/// `scan_open` saturates near 700 req/s and `scan_hot` near 17 000.
fn spec(workload: &str) -> Spec {
    match workload {
        "scan_open" => Spec {
            hot: false,
            ladder: &[200.0, 350.0, 500.0, 600.0, 710.0, 840.0, 1_000.0],
            low: 200.0,
            high: 350.0,
        },
        _ => Spec {
            hot: true,
            ladder: &[
                6_000.0, 10_000.0, 12_000.0, 14_000.0, 16_800.0, 20_000.0, 24_000.0,
            ],
            low: 6_000.0,
            high: 10_000.0,
        },
    }
}

/// Arrivals per repetition of each rung for a run of `seconds`: every
/// rung gets [`MIN_ARRIVALS`] and [`MIN_RUNG_S`], and the time left is
/// shared equally between the low and high rungs, whose percentiles
/// are reported.
fn plan(spec: &Spec, seconds: f64) -> Result<Vec<(f64, usize)>, String> {
    let per_pass = seconds / REPS as f64;
    let least = |rate: f64| (MIN_ARRIVALS as f64).max(rate * MIN_RUNG_S).ceil();
    let floor: f64 = spec.ladder.iter().map(|&r| least(r) / r).sum();
    if per_pass < floor {
        return Err(format!(
            "--seconds must be at least {:.1} for this ladder",
            floor * REPS as f64
        ));
    }
    let extra_s = (per_pass - floor) / 2.0;
    Ok(spec
        .ladder
        .iter()
        .map(|&rate| {
            let bonus = if rate == spec.low || rate == spec.high {
                extra_s * rate
            } else {
                0.0
            };
            (rate, (least(rate) + bonus) as usize)
        })
        .collect())
}

/// The request inputs: distinct programs, each kept only as its
/// encoded request line (the counts are parsed back when needed, so
/// the pool costs one copy of memory).
struct Inputs {
    lines: Vec<Vec<u8>>,
}

impl Inputs {
    fn push(&mut self, counts: &[u32]) {
        let mut line = String::with_capacity(counts.len() * 3 + 16);
        line.push_str("{\"features\":[");
        for (i, c) in counts.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&c.to_string());
        }
        line.push_str("]}\n");
        self.lines.push(line.into_bytes());
    }

    fn len(&self) -> usize {
        self.lines.len()
    }

    /// The counts input `i` encodes.
    fn counts(&self, i: usize) -> Vec<u32> {
        let line = &self.lines[i];
        let start = line.iter().position(|&b| b == b'[').expect("encoded line") + 1;
        let end = line.iter().rposition(|&b| b == b']').expect("encoded line");
        line[start..end]
            .split(|&b| b == b',')
            .map(|d| d.iter().fold(0u32, |n, &b| n * 10 + u32::from(b - b'0')))
            .collect()
    }
}

/// A 64-bit digest of a program's counts, for telling programs apart
/// without keeping a second copy of them.
fn digest(counts: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    counts.hash(&mut h);
    h.finish()
}

/// One scheduled rung repetition: its arrivals and which input each
/// one sends.
struct Rung {
    label: String,
    rate: f64,
    due: Vec<Duration>,
    input: Vec<usize>,
}

/// Everything generated from the seed before the clock starts.
struct Workload {
    inputs: Inputs,
    /// Index of the set-up probe's input.
    probe: usize,
    warmup: Rung,
    /// Every rung repetition in run order: the whole ladder from the
    /// lowest rate up, [`REPS`] times over.
    passes: Vec<Rung>,
    /// Traced runs repeat the high rung untraced to price the tracer.
    untraced_high: Option<Rung>,
}

fn generate(spec: &Spec, args: &Args) -> Result<Workload, String> {
    let world = World::new(WorldConfig::default());
    let mut rng = maleva_apisim::rng(args.seed ^ 0x5CA7_10AD);
    let schedule = |rng: &mut Seeded, label: String, rate: f64, n: usize| Rung {
        label,
        rate,
        due: stats::poisson_arrivals(rate, n, rng),
        input: Vec::new(),
    };
    let plan = plan(spec, args.seconds)?;
    let mut warmup = schedule(&mut rng, "warmup".into(), spec.low, WARMUP_SAMPLES);
    let mut passes = Vec::new();
    for rep in 0..REPS {
        for &(rate, n) in &plan {
            passes.push(schedule(&mut rng, format!("{rate}#{rep}"), rate, n));
        }
    }
    let mut untraced_high = args.trace.then(|| {
        let n = plan.iter().find(|p| p.0 == spec.high).expect("high rung").1;
        schedule(&mut rng, "untraced".into(), spec.high, n)
    });

    let mut inputs = Inputs { lines: Vec::new() };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut fresh = |rng: &mut Seeded, inputs: &mut Inputs| loop {
        let class = if rng.gen::<f64>() < MALWARE_SHARE {
            Class::Malware
        } else {
            Class::Clean
        };
        let program: Program = world.sample_program(class, rng);
        if seen.insert(digest(program.counts())) {
            inputs.push(program.counts());
            return inputs.len() - 1;
        }
    };
    let probe = fresh(&mut rng, &mut inputs);
    let rungs = std::iter::once(&mut warmup)
        .chain(passes.iter_mut())
        .chain(untraced_high.iter_mut());
    if spec.hot {
        // The hot set: distinct test-split programs of the same
        // dataset the context trains on.
        let dataset = world.build_dataset(&DatasetSpec::quick(), args.seed);
        let mut order: Vec<usize> = (0..dataset.test().len()).collect();
        order.shuffle(&mut rng);
        let mut hot = Vec::with_capacity(HOT_SET);
        for i in order {
            if hot.len() == HOT_SET {
                break;
            }
            let counts = dataset.test()[i].counts();
            if seen.insert(digest(counts)) {
                inputs.push(counts);
                hot.push(inputs.len() - 1);
            }
        }
        for rung in rungs {
            rung.input = (0..rung.due.len())
                .map(|_| hot[rng.gen_range(0..hot.len())])
                .collect();
        }
        // The warm-up opens with one pass over the whole hot set.
        warmup.input[..hot.len()].copy_from_slice(&hot);
    } else {
        for rung in rungs {
            rung.input = (0..rung.due.len())
                .map(|_| fresh(&mut rng, &mut inputs))
                .collect();
        }
    }
    Ok(Workload {
        inputs,
        probe,
        warmup,
        passes,
        untraced_high,
    })
}

/// The offline oracle: the malware score of each of the first `n`
/// inputs through the detector's own feature transform and batched
/// forward pass (batched scoring is bit-identical to per-row scoring),
/// 256 rows at a time.
fn oracle(detector: &DetectorPipeline, inputs: &Inputs, n: usize) -> Result<Vec<f64>, String> {
    let mut scores = Vec::with_capacity(n);
    for start in (0..n).step_by(256) {
        let rows: Vec<Vec<f64>> = (start..n.min(start + 256))
            .map(|i| detector.features().transform_counts(&inputs.counts(i)))
            .collect();
        scores.extend(score_rows(detector.network(), &rows).map_err(|e| format!("oracle: {e}"))?);
    }
    Ok(scores)
}

/// How one reply compares with the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reply {
    /// Score bits and verdict match.
    Scored { cached: bool },
    /// A typed error reply.
    Error,
    /// No reply before the drain deadline.
    Missing,
    /// A score that differs from the oracle.
    Mismatch,
}

fn check(reply: Option<&str>, expected: f64) -> Reply {
    let Some(line) = reply else {
        return Reply::Missing;
    };
    if line.starts_with("{\"error\"") {
        return Reply::Error;
    }
    let verdict = if expected >= 0.5 { "malware" } else { "clean" };
    match json::num(line, "score") {
        Some(s)
            if s.to_bits() == expected.to_bits()
                && json::field(line, "verdict") == Some(verdict) =>
        {
            Reply::Scored {
                cached: json::field(line, "cached") == Some("true"),
            }
        }
        _ => Reply::Mismatch,
    }
}

/// A server ready to measure, with what its set-up cost.
struct Ready {
    server: ServerHandle,
    conns: Vec<Conn>,
    /// A copy of the served detector, for the oracle.
    detector: DetectorPipeline,
    /// The rest of the context, when the caller asked to keep it.
    context: Option<ExperimentContext>,
    build_s: f64,
    setup_s: f64,
    probe_reply: Option<String>,
}

fn connect_all(server: &ServerHandle) -> Result<Vec<Conn>, String> {
    (0..CONNECTIONS)
        .map(|_| Conn::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Builds the quick-scale context, spawns the server with the shipped
/// defaults and waits for the first reply. Only the build and the
/// spawn-to-reply interval are timed; copying the detector for the
/// oracle and dropping the rest of the context are not.
fn set_up(seed: u64, probe_line: &str, keep_context: bool) -> Result<Ready, String> {
    let _span = maleva_obs::Span::enter("bench.setup");
    let t = Instant::now();
    let ctx = ExperimentContext::build(ExperimentScale::quick(), seed)
        .map_err(|e| format!("context build: {e}"))?;
    let build = t.elapsed();
    let detector = ctx.detector.clone();
    let served = ctx.detector.clone();
    let context = keep_context.then_some(ctx);
    let t = Instant::now();
    let server = spawn(served, ServeConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let mut conns = connect_all(&server)?;
    let reply = conns[0]
        .command(probe_line, Duration::from_secs(30), |_| true)
        .map_err(|e| format!("first reply: {e}"))?
        .pop();
    let ready = t.elapsed();
    Ok(Ready {
        server,
        conns,
        detector,
        context,
        build_s: build.as_secs_f64(),
        setup_s: (build + ready).as_secs_f64(),
        probe_reply: reply,
    })
}

type Scrape = BTreeMap<String, f64>;

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let lines = conn
        .command("{\"cmd\":\"metrics\"}", Duration::from_secs(10), |l| {
            l == "# EOF"
        })
        .map_err(|e| format!("metrics scrape: {e}"))?;
    Ok(stats::parse_exposition(&lines.join("\n")))
}

/// The server's own view of one rung, from metric deltas.
#[derive(Debug, Clone, Default)]
struct ServerView {
    /// Mean µs per request in each `maleva_obs::report::STAGES` stage.
    stage_us: Vec<f64>,
    batch_rows: f64,
    hit_ratio: f64,
    /// Mean of `serve_request_latency_us` (its buckets are powers of
    /// two, too coarse for a p50 to subtract from the client's).
    mean_us: f64,
    errors: f64,
    overloaded: f64,
}

fn server_view(before: &Scrape, after: &Scrape) -> ServerView {
    let d = |s: &str| stats::delta(before, after, s);
    let hits = d("serve_cache_hits_total");
    let misses = d("serve_cache_misses_total");
    let batches = d("serve_batches_total");
    ServerView {
        stage_us: maleva_obs::report::STAGES
            .iter()
            .map(|s| stats::interval_mean(before, after, &format!("serve_stage_{s}_us")))
            .collect(),
        batch_rows: if batches > 0.0 {
            d("serve_rows_scored_total") / batches
        } else {
            0.0
        },
        hit_ratio: if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        mean_us: stats::interval_mean(before, after, "serve_request_latency_us"),
        errors: d("serve_errors_total"),
        overloaded: d("serve_overloaded_total"),
    }
}

/// One measured rung.
#[derive(Debug)]
struct RungReport {
    label: String,
    rate: f64,
    /// Due time of the last arrival.
    duration_s: f64,
    /// Due-to-reply latencies in µs, ascending; failures are infinite.
    sorted_us: Vec<f64>,
    /// p50 and p90 of each [`WINDOW`] of consecutive arrivals.
    window_p50_us: Vec<f64>,
    window_p90_us: Vec<f64>,
    /// Share of the VM's CPU time the hypervisor stole during the rung.
    steal_share: f64,
    errors: u64,
    missing: u64,
    mismatched: u64,
    cached: u64,
    lag_p99_us: f64,
    backlog_max: u32,
    backlog_growing: bool,
    server: ServerView,
}

impl RungReport {
    fn failed(&self) -> u64 {
        self.errors + self.missing + self.mismatched
    }

    fn pct(&self, q: f64) -> f64 {
        stats::percentile(&self.sorted_us, q)
    }

    /// Mean latency of the answered requests.
    fn mean_us(&self) -> f64 {
        let done: Vec<f64> = self
            .sorted_us
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        done.iter().sum::<f64>() / done.len().max(1) as f64
    }

    fn to_json(&self) -> J {
        let n = self.sorted_us.len();
        let hist = LogHistogram::from_us(&self.sorted_us);
        let stages = maleva_obs::report::STAGES
            .iter()
            .zip(&self.server.stage_us)
            .map(|(s, v)| (format!("{s}_us"), J::from(*v)));
        J::obj([
            ("label", J::from(self.label.as_str())),
            ("offered_rps", J::from(self.rate)),
            ("schedule_s", J::from(self.duration_s)),
            ("requests", J::from(n)),
            ("errors", J::from(self.errors)),
            ("missing", J::from(self.missing)),
            ("mismatched", J::from(self.mismatched)),
            ("cached_replies", J::from(self.cached)),
            ("p50_us", J::from(self.pct(0.5))),
            ("p99_us", J::from(self.pct(0.99))),
            ("p50_samples", J::from(n)),
            ("p99_samples", J::from(n)),
            ("window_p50_us", J::Arr(self.window_p50_us.iter().map(|&v| J::from(v)).collect())),
            ("window_p90_us", J::Arr(self.window_p90_us.iter().map(|&v| J::from(v)).collect())),
            (
                "highest_reportable_percentile",
                stats::highest_reportable_percentile(n).map_or(J::Num(f64::NAN), J::from),
            ),
            ("gen_lag_p99_us", J::from(self.lag_p99_us)),
            ("host_steal_share", J::from(self.steal_share)),
            ("backlog_max", J::from(self.backlog_max as u64)),
            ("backlog_growing", J::from(self.backlog_growing)),
            (
                "server",
                J::obj(
                    [
                        ("batch_rows", J::from(self.server.batch_rows)),
                        ("cache_hit_ratio", J::from(self.server.hit_ratio)),
                        ("request_latency_mean_us", J::from(self.server.mean_us)),
                        ("errors", J::from(self.server.errors)),
                        ("overloaded", J::from(self.server.overloaded)),
                    ]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .chain(stages),
                ),
            ),
            (
                "latency_histogram",
                J::obj([
                    (
                        "scheme",
                        J::from(format!(
                            "[i, lower_us, count]: bucket i covers [2^(i/{0}), 2^((i+1)/{0})) us; bucket 0 also holds < 1 us",
                            stats::SUB_BUCKETS
                        )),
                    ),
                    (
                        "buckets",
                        J::Arr(
                            hist.buckets
                                .iter()
                                .map(|(&i, &c)| {
                                    J::Arr(vec![J::from(i as u64), J::from(LogHistogram::lower_us(i)), J::from(c)])
                                })
                                .collect(),
                        ),
                    ),
                    ("failed", J::from(hist.failed)),
                ]),
            ),
        ])
    }
}

fn run_rung(
    conns: &mut Vec<Conn>,
    server: &ServerHandle,
    rung: &Rung,
    w: &Workload,
    expected: &[f64],
) -> Result<RungReport, String> {
    let before = scrape(&mut conns[0])?;
    let lines: Vec<&[u8]> = rung
        .input
        .iter()
        .map(|&i| w.inputs.lines[i].as_slice())
        .collect();
    let (steal0, wall0) = (sys::steal_seconds(), Instant::now());
    let out = {
        let _span = maleva_obs::Span::enter("bench.rung");
        loadgen::run(conns, &lines, &rung.due, DRAIN)
            .map_err(|e| format!("rung {}: {e}", rung.label))?
    };
    let steal_share =
        (sys::steal_seconds() - steal0) / (wall0.elapsed().as_secs_f64() * sys::nproc() as f64);
    if out.replies.iter().any(Option::is_none) {
        // Late replies must not be mistaken for the next rung's.
        *conns = connect_all(server)?;
    }
    let after = scrape(&mut conns[0])?;

    let mut report = RungReport {
        label: rung.label.clone(),
        rate: rung.rate,
        duration_s: rung.due.last().map_or(0.0, Duration::as_secs_f64),
        sorted_us: out.latency_us,
        window_p50_us: Vec::new(),
        window_p90_us: Vec::new(),
        steal_share,
        errors: 0,
        missing: 0,
        mismatched: 0,
        cached: 0,
        lag_p99_us: 0.0,
        backlog_max: out.backlog_at_send.iter().copied().max().unwrap_or(0),
        backlog_growing: stats::backlog_growing(&out.backlog_at_send),
        server: server_view(&before, &after),
    };
    for (i, reply) in out.replies.iter().enumerate() {
        match check(reply.as_deref(), expected[rung.input[i]]) {
            Reply::Scored { cached } => report.cached += u64::from(cached),
            failure => {
                report.sorted_us[i] = f64::INFINITY;
                match failure {
                    Reply::Error => report.errors += 1,
                    Reply::Missing => report.missing += 1,
                    _ => report.mismatched += 1,
                }
            }
        }
    }
    report.window_p50_us =
        stats::per_window(&report.sorted_us, WINDOW, stats::window_percentile(0.5));
    report.window_p90_us =
        stats::per_window(&report.sorted_us, WINDOW, stats::window_percentile(0.9));
    report.sorted_us.sort_by(f64::total_cmp);
    let mut lag = out.lag_us;
    lag.sort_by(f64::total_cmp);
    report.lag_p99_us = if lag.is_empty() {
        0.0
    } else {
        stats::percentile(&lag, 0.99)
    };
    eprintln!(
        "perfbench: {:>13} rps  n={:<6} p50={:>9.1}us p99={:>9.1}us lag_p99={:>7.1}us backlog_max={:<4} failed={} batch={:.2} hit={:.3}",
        report.label,
        report.sorted_us.len(),
        report.pct(0.5),
        report.pct(0.99),
        report.lag_p99_us,
        report.backlog_max,
        report.failed(),
        report.server.batch_rows,
        report.server.hit_ratio,
    );
    Ok(report)
}

/// Nanoseconds per call of the layer functions the server runs per
/// request, timed in isolation on the workload's own inputs.
fn isolated(detector: &DetectorPipeline, inputs: &Inputs) -> Vec<Metric> {
    use std::hint::black_box;
    let n = inputs.len().min(256);
    let dim = detector.features().dim();
    let lines: Vec<&str> = inputs.lines[..n]
        .iter()
        .map(|l| std::str::from_utf8(&l[..l.len() - 1]).expect("ascii request line"))
        .collect();
    let counts: Vec<Vec<u32>> = (0..n).map(|i| inputs.counts(i)).collect();
    let rows: Vec<Vec<f64>> = counts
        .iter()
        .map(|c| detector.features().transform_counts(c))
        .collect();
    let time = |span: &'static str, mut pass: Box<dyn FnMut() + '_>| -> f64 {
        let _span = maleva_obs::Span::enter(span);
        let t = Instant::now();
        let mut passes = 0usize;
        while passes < 3 || t.elapsed() < Duration::from_millis(300) {
            pass();
            passes += 1;
        }
        t.elapsed().as_secs_f64() * 1e9 / (passes * n) as f64
    };
    let mut out = vec![
        Metric::new(
            "serve.parse_ns",
            time(
                "bench.parse",
                Box::new(|| {
                    for l in &lines {
                        let _ = black_box(maleva_serve::parse_request(black_box(l), dim));
                    }
                }),
            ),
            "ns",
        ),
        Metric::new(
            "serve.quantize_ns",
            time(
                "bench.quantize",
                Box::new(|| {
                    for r in &rows {
                        black_box(maleva_serve::cache::quantize(black_box(r)));
                    }
                }),
            ),
            "ns",
        ),
        Metric::new(
            "features.transform_ns",
            time(
                "bench.transform",
                Box::new(|| {
                    for c in &counts {
                        black_box(detector.features().transform_counts(black_box(c)));
                    }
                }),
            ),
            "ns",
        ),
    ];
    for b in [1usize, 2, 32] {
        let ns = time(
            "bench.forward",
            Box::new(|| {
                for chunk in rows.chunks(b) {
                    let _ = black_box(score_rows(detector.network(), black_box(chunk)));
                }
            }),
        );
        out.push(Metric::new(format!("nn.forward_ns_per_row.b{b}"), ns, "ns"));
    }
    out
}

/// `(calls, summed µs)` of the GEMM kernels so far, from the global
/// registry the linalg crate records into.
fn gemm_reading() -> (f64, f64) {
    use maleva_obs::metrics::MetricReading;
    let registry = maleva_obs::metrics::global();
    let calls = match registry.read("linalg_gemm_calls_total") {
        Some(MetricReading::Counter(c)) => c as f64,
        _ => 0.0,
    };
    let us = match registry.read("linalg_gemm_latency_us") {
        Some(MetricReading::Histogram { sum, .. }) => sum as f64,
        _ => 0.0,
    };
    (calls, us)
}

/// Latency for reporting: a percentile that landed on a failure
/// becomes [`FAILED_US`] so the record stays a number.
fn reported(us: f64) -> f64 {
    if us.is_finite() {
        us
    } else {
        FAILED_US
    }
}

/// One ladder rate over its repetitions.
struct RateSummary<'a> {
    rate: f64,
    reps: Vec<&'a RungReport>,
}

impl RateSummary<'_> {
    /// The median over repetitions of a per-repetition figure.
    fn median(&self, f: impl Fn(&RungReport) -> f64) -> f64 {
        stats::median(&self.reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    }

    /// The median over repetitions of each repetition's median over
    /// its windows.
    fn windowed(&self, f: impl Fn(&RungReport) -> &[f64]) -> f64 {
        self.median(|r| stats::median(f(r)))
    }

    fn requests(&self) -> usize {
        self.reps.iter().map(|r| r.sorted_us.len()).sum()
    }

    /// Percentile `q` of every request of every repetition together.
    fn pooled(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self
            .reps
            .iter()
            .flat_map(|r| r.sorted_us.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        stats::percentile(&all, q)
    }

    fn p50(&self) -> f64 {
        self.windowed(|r| &r.window_p50_us)
    }

    fn p90(&self) -> f64 {
        self.windowed(|r| &r.window_p90_us)
    }

    /// The rung meets the SLO on its windowed p50, and a backlog that
    /// grew in most repetitions disqualifies it.
    fn verdict(&self) -> RungVerdict {
        let growing = self.reps.iter().filter(|r| r.backlog_growing).count();
        RungVerdict {
            rate: self.rate,
            latency_us: self.p50(),
            backlog_growing: 2 * growing > self.reps.len(),
        }
    }

    fn to_json(&self) -> J {
        J::obj([
            ("offered_rps", J::from(self.rate)),
            ("repetitions", J::from(self.reps.len())),
            (
                "windows",
                J::from(
                    self.reps
                        .iter()
                        .map(|r| r.window_p90_us.len())
                        .sum::<usize>(),
                ),
            ),
            ("requests", J::from(self.requests())),
            ("p50_us_reported", J::from(self.p50())),
            ("p90_us_reported", J::from(self.p90())),
            (
                "p99_us_pooled",
                if stats::percentile_reportable(self.requests(), 0.99) {
                    J::from(reported(self.pooled(0.99)))
                } else {
                    J::Num(f64::NAN)
                },
            ),
            ("meets_slo", J::from(self.verdict().meets(SLO_US))),
        ])
    }
}

fn summarize<'a>(ladder: &[f64], reports: &'a [RungReport]) -> Vec<RateSummary<'a>> {
    ladder
        .iter()
        .map(|&rate| RateSummary {
            rate,
            reps: reports.iter().filter(|r| r.rate == rate).collect(),
        })
        .collect()
}

fn provenance(args: &Args, spec: &Spec, w: &Workload) -> J {
    let cfg = ServeConfig::default();
    let per_rep: Vec<J> = spec
        .ladder
        .iter()
        .map(|&rate| {
            let rung = w
                .passes
                .iter()
                .find(|r| r.rate == rate)
                .expect("scheduled rung");
            J::obj([
                ("offered_rps", J::from(rate)),
                ("arrivals", J::from(rung.due.len())),
                (
                    "schedule_s",
                    J::from(rung.due.last().map_or(0.0, Duration::as_secs_f64)),
                ),
            ])
        })
        .collect();
    J::obj([
        ("workload", J::from(args.workload.as_str())),
        ("seed", J::from(args.seed)),
        ("seconds", J::from(args.seconds)),
        ("trace", J::from(args.trace)),
        ("git_sha", J::from(sys::git_sha())),
        ("nproc", J::from(sys::nproc())),
        ("cpu_model", J::from(sys::cpu_model())),
        ("linalg_backend", J::from(maleva_linalg::backend::effective_kind().name())),
        ("linalg_threads", J::from(maleva_linalg::pool::effective_threads())),
        (
            "serve_config",
            J::obj([
                ("addr", J::from(cfg.addr.as_str())),
                ("shards", J::from(cfg.shards)),
                ("max_batch", J::from(cfg.max_batch)),
                ("batch_timeout_us", J::from(cfg.batch_timeout.as_micros() as u64)),
                ("queue_capacity", J::from(cfg.queue_capacity)),
                ("cache_capacity", J::from(cfg.cache_capacity)),
                ("max_line_bytes", J::from(cfg.max_line_bytes)),
                ("request_deadline_ms", J::from(cfg.request_deadline.as_millis() as u64)),
                ("shed_queue_depth", J::from(cfg.shed_queue_depth)),
                ("sentinel_enabled", J::from(cfg.sentinel.enabled)),
            ]),
        ),
        ("connections", J::from(CONNECTIONS)),
        ("slo_p50_us", J::from(SLO_US)),
        ("low_rps", J::from(spec.low)),
        ("high_rps", J::from(spec.high)),
        ("repetitions", J::from(REPS)),
        ("arrivals_per_repetition", J::Arr(per_rep)),
        (
            "percentile_rule",
            J::from(format!(
                "nearest rank; a percentile needs >= {} samples beyond it; failures count as infinitely late; reported p50/p90 are medians over the rate's repetitions of each repetition's median over its windows of {} consecutive arrivals",
                stats::MIN_TAIL_SAMPLES, WINDOW
            )),
        ),
        ("warmup_arrivals", J::from(WARMUP_SAMPLES)),
        ("distinct_inputs", J::from(w.inputs.len())),
        ("setups_per_run", J::from(if args.trace { 1 } else { SETUPS })),
        ("contended_steal_share", J::from(CONTENDED_STEAL)),
    ])
}

/// Runs one scan workload end to end.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let spec = spec(&args.workload);
    let t = Instant::now();
    let w = generate(&spec, args)?;
    eprintln!(
        "perfbench: {} distinct inputs, {} scheduled requests, generated in {:.1?}",
        w.inputs.len(),
        w.warmup.due.len() + w.passes.iter().map(|r| r.due.len()).sum::<usize>(),
        t.elapsed()
    );
    let probe_line = std::str::from_utf8(&w.inputs.lines[w.probe])
        .map_err(|e| e.to_string())?
        .trim_end()
        .to_string();

    // From here on the high-water RSS is the set-up's, the server's
    // and the timed body's, over the generated request pool.
    sys::reset_peak_rss();
    let memory = args.trace.then(trace::install_memory_sink);
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let last = i + 1 == setups;
        let ready = set_up(args.seed, &probe_line, last && args.trace)?;
        eprintln!(
            "perfbench: set-up {} of {setups}: {:.3}s (context build {:.3}s)",
            i + 1,
            ready.setup_s,
            ready.build_s
        );
        setup_s.push(ready.setup_s);
        // Every build of one seed must serve the same detector.
        fingerprints.push(
            oracle(&ready.detector, &w.inputs, w.inputs.len().min(32))?
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
        );
        if last {
            kept = Some(ready);
        } else {
            drop(ready.conns);
            ready.server.shutdown();
        }
    }
    let Ready {
        server,
        mut conns,
        detector,
        context,
        build_s,
        probe_reply,
        ..
    } = kept.expect("at least one set-up");
    let deterministic_builds = fingerprints.windows(2).all(|p| p[0] == p[1]);
    let expected = {
        let _span = maleva_obs::Span::enter("bench.oracle");
        oracle(&detector, &w.inputs, w.inputs.len())?
    };
    let probe_ok = matches!(
        check(probe_reply.as_deref(), expected[w.probe]),
        Reply::Scored { .. }
    );

    // The timed body: warm-up, then the ladder from the lowest rate
    // up, REPS times over.
    let first_body_span = trace::mint_id();
    let (gemm_calls0, gemm_us0) = gemm_reading();
    let cpu0 = sys::cpu_seconds();
    let steal0 = sys::steal_seconds();
    let wall0 = Instant::now();
    let warmup = run_rung(&mut conns, &server, &w.warmup, &w, &expected)?;
    let mut reports = Vec::new();
    for rung in &w.passes {
        reports.push(run_rung(&mut conns, &server, rung, &w, &expected)?);
    }
    let body_wall = wall0.elapsed().as_secs_f64();
    let cpu_util = (sys::cpu_seconds() - cpu0) / (body_wall * sys::nproc() as f64);
    let steal_share = (sys::steal_seconds() - steal0) / (body_wall * sys::nproc() as f64);
    let (gemm_calls1, gemm_us1) = gemm_reading();
    if steal_share > CONTENDED_STEAL {
        eprintln!(
            "perfbench: WARNING contended host: the hypervisor stole {:.1}% of the CPU during the timed body (quiet hosts show under {:.0}%); these latencies are not comparable with a quiet run's",
            100.0 * steal_share,
            100.0 * CONTENDED_STEAL
        );
    }

    let mut attempted = 1
        + warmup.sorted_us.len() as u64
        + reports
            .iter()
            .map(|r| r.sorted_us.len() as u64)
            .sum::<u64>();
    let mut failed = u64::from(!probe_ok)
        + warmup.failed()
        + reports.iter().map(RungReport::failed).sum::<u64>();
    let ladder = summarize(spec.ladder, &reports);
    let verdicts: Vec<RungVerdict> = ladder.iter().map(RateSummary::verdict).collect();
    let max_rps = stats::max_rate_at_slo(&verdicts, SLO_US);
    let low = ladder
        .iter()
        .find(|r| r.rate == spec.low)
        .expect("low rung");
    let high = ladder
        .iter()
        .find(|r| r.rate == spec.high)
        .expect("high rung");

    let mut checks = vec![
        ("replies_match_oracle", failed == 0),
        ("setups_serve_identical_detectors", deterministic_builds),
        ("first_reply_matches_oracle", probe_ok),
    ];
    let mut paper_record = J::obj(Vec::<(&str, J)>::new());
    let metrics = if let Some(memory) = &memory {
        let mut m = isolated(&detector, &w.inputs);
        // Price the tracer: the high rung again, untraced.
        trace::install(trace::Sink::Disabled).map_err(|e| e.to_string())?;
        let rung = w.untraced_high.as_ref().expect("traced runs schedule it");
        let untraced = run_rung(&mut conns, &server, rung, &w, &expected)?;
        drop(conns);
        server.shutdown();
        // The paper pipeline's layers, traced again.
        let paper_memory = trace::install_memory_sink();
        let mut ctx = context.expect("traced runs keep the context");
        let paper = paper::run(&mut ctx)?;
        drop(ctx);
        trace::install(trace::Sink::Disabled).map_err(|e| e.to_string())?;
        let mut lines = memory.lines();
        lines.extend(paper_memory.lines());
        let trace_path = args.out_dir.join(format!(
            "{}-seed{}-trace1.trace.jsonl",
            args.workload, args.seed
        ));
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&trace_path, lines.join("\n") + "\n"))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        eprintln!(
            "perfbench: wrote {} trace records to {}",
            lines.len(),
            trace_path.display()
        );
        let spans = spans::closed_spans(&lines);
        let (attack, failed_rows) = paper::attack_metrics(&paper, &spans);
        // Operations of the paper section: each crafted row and each
        // of its output checks.
        let crafted = attack[0].value as u64;
        attempted += crafted + paper.checks.len() as u64;
        failed += failed_rows + paper.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        checks.extend(paper.checks.iter().copied());
        m.extend(attack);
        m.extend(paper.wall_s.iter().map(|&(n, s)| Metric::new(n, s, "s")));
        m.extend(layer_metrics(&LayerInputs {
            spans: &spans,
            first_body_span,
            detector: &detector,
            low,
            high,
            reports: &reports,
            untraced: &untraced,
            gemm_calls: gemm_calls1 - gemm_calls0,
            gemm_s: (gemm_us1 - gemm_us0) / 1e6,
            build_s,
            cpu_util,
            steal_share,
            fail_frac: failed as f64 / attempted as f64,
        }));
        paper_record = paper::to_json(&paper);
        m
    } else {
        drop(conns);
        server.shutdown();
        vec![
            Metric::new("setup_s", stats::median(&setup_s), "s"),
            Metric::new("p50_us.low", reported(low.p50()), "us"),
            Metric::new("p50_us.high", reported(high.p50()), "us"),
            Metric::new("max_rps_at_slo", max_rps, "req/s"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        ]
    };

    let correct = failed == 0 && checks.iter().all(|(_, ok)| *ok);
    let record = J::obj([
        ("provenance", provenance(args, &spec, &w)),
        (
            "checks",
            J::obj(checks.iter().map(|&(n, ok)| (n, J::from(ok)))),
        ),
        (
            "setup_s",
            J::Arr(setup_s.iter().map(|&s| J::from(s)).collect()),
        ),
        ("body_wall_s", J::from(body_wall)),
        ("host_steal_share", J::from(steal_share)),
        ("contended_host", J::from(steal_share > CONTENDED_STEAL)),
        ("max_rps_at_slo", J::from(max_rps)),
        (
            "ladder",
            J::Arr(ladder.iter().map(RateSummary::to_json).collect()),
        ),
        ("warmup", warmup.to_json()),
        (
            "rungs",
            J::Arr(reports.iter().map(RungReport::to_json).collect()),
        ),
        ("paper", paper_record),
        ("metrics", crate::metrics_json(&metrics)),
    ]);
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        record,
    })
}

/// What the per-layer attribution of a traced run is computed from.
struct LayerInputs<'a> {
    spans: &'a BTreeMap<u64, spans::Span>,
    first_body_span: u64,
    detector: &'a DetectorPipeline,
    low: &'a RateSummary<'a>,
    high: &'a RateSummary<'a>,
    reports: &'a [RungReport],
    untraced: &'a RungReport,
    gemm_calls: f64,
    gemm_s: f64,
    build_s: f64,
    cpu_util: f64,
    steal_share: f64,
    fail_frac: f64,
}

/// Layers whose self time a traced run reports, by span-name prefix.
const SELF_TIME_LAYERS: [&str; 6] = ["bench", "pipeline", "train", "serve", "attack", "jsma"];

fn layer_metrics(x: &LayerInputs) -> Vec<Metric> {
    let mut m = Vec::new();
    for (tag, rate) in [("low", x.low), ("high", x.high)] {
        m.push(Metric::new(
            format!("p90_us.{tag}"),
            reported(rate.p90()),
            "us",
        ));
        for (i, stage) in maleva_obs::report::STAGES.iter().enumerate() {
            m.push(Metric::new(
                format!("serve.stage.{stage}_us.{tag}"),
                rate.median(|r| r.server.stage_us[i]),
                "us",
            ));
        }
        m.push(Metric::new(
            format!("serve.batch_rows.{tag}"),
            rate.median(|r| r.server.batch_rows),
            "rows",
        ));
        m.push(Metric::new(
            format!("serve.cache.hit_ratio.{tag}"),
            rate.median(|r| r.server.hit_ratio),
            "ratio",
        ));
        m.push(Metric::new(
            format!("serve.outside_us.{tag}"),
            rate.median(|r| r.mean_us() - r.server.mean_us),
            "us",
        ));
        m.push(Metric::new(
            format!("gen.lag_p99_us.{tag}"),
            rate.median(|r| r.lag_p99_us),
            "us",
        ));
        m.push(Metric::new(
            format!("gen.backlog_max.{tag}"),
            rate.reps
                .iter()
                .map(|r| r.backlog_max as f64)
                .fold(0.0, f64::max),
            "count",
        ));
        m.push(Metric::new(
            format!("pooled_p99_us.{tag}"),
            reported(rate.pooled(0.99)),
            "us",
        ));
    }
    let sum = |f: fn(&ServerView) -> f64| x.reports.iter().map(|r| f(&r.server)).sum::<f64>();
    m.push(Metric::new("serve.errors", sum(|s| s.errors), "count"));
    m.push(Metric::new(
        "serve.overloaded",
        sum(|s| s.overloaded),
        "count",
    ));

    let named = |name: &'static str| x.spans.iter().filter(move |(_, s)| s.name == name);
    // FLOPs per training row and epoch: 2 per multiply-add of each
    // Dense layer forward, 4 more backward (input and weight grads).
    let dims = x.detector.network().dims();
    let macs_per_row: f64 = dims.windows(2).map(|d| (d[0] * d[1]) as f64).sum();
    let (mut fit_s, mut flop) = (0.0, 0.0);
    for (_, fit) in named("train.fit") {
        fit_s += fit.dur_ns as f64 / 1e9;
        let samples = json::num(&fit.exit_line, "samples").unwrap_or(0.0);
        let epochs = json::num(&fit.exit_line, "epochs_run").unwrap_or(0.0);
        flop += 6.0 * macs_per_row * samples * epochs;
    }
    let epochs: Vec<f64> = named("train.epoch")
        .map(|(_, s)| s.dur_ns as f64 / 1e6)
        .collect();
    let body_fits = named("train.fit")
        .filter(|(id, _)| **id > x.first_body_span)
        .count();
    m.push(Metric::new("nn.fit_calls", body_fits as f64, "count"));
    m.push(Metric::new("nn.fit_s", fit_s, "s"));
    m.push(Metric::new(
        "nn.epoch_ms",
        if epochs.is_empty() {
            0.0
        } else {
            epochs.iter().sum::<f64>() / epochs.len() as f64
        },
        "ms",
    ));
    m.push(Metric::new(
        "nn.train_gflop_per_s",
        if fit_s > 0.0 { flop / fit_s / 1e9 } else { 0.0 },
        "GFLOP/s",
    ));
    m.push(Metric::new("linalg.gemm_calls", x.gemm_calls, "count"));
    m.push(Metric::new("linalg.gemm_s", x.gemm_s, "s"));
    m.push(Metric::new("core.context_s", x.build_s, "s"));
    m.push(Metric::new("proc.cpu_util", x.cpu_util, "ratio"));
    m.push(Metric::new("host.steal_share", x.steal_share, "ratio"));
    m.push(Metric::new(
        "obs.overhead",
        reported(x.high.p50()) - reported(stats::median(&x.untraced.window_p50_us)),
        "us",
    ));
    m.push(Metric::new("fail_frac", x.fail_frac, "ratio"));
    let self_s = spans::self_seconds_by_layer(x.spans);
    for layer in SELF_TIME_LAYERS {
        m.push(Metric::new(
            format!("self_s.{layer}"),
            self_s.get(layer).copied().unwrap_or(0.0),
            "s",
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_step_finely_and_plans_fit_the_run() {
        for workload in ["scan_open", "scan_hot"] {
            let spec = spec(workload);
            assert!(spec.ladder.windows(2).all(|p| p[0] < p[1]));
            assert!(spec.ladder[2..]
                .windows(2)
                .all(|p| p[1] / p[0] <= 1.2 + 1e-9));
            for seconds in [30.0, 60.0] {
                let plan = plan(&spec, seconds).unwrap();
                let pass_s: f64 = plan.iter().map(|&(rate, n)| n as f64 / rate).sum();
                assert!(pass_s <= seconds / REPS as f64 + 1e-6, "{workload}");
                for (rate, n) in plan {
                    assert!(n >= MIN_ARRIVALS && n as f64 / rate >= MIN_RUNG_S - 1e-9);
                }
            }
            assert!(plan(&spec, 5.0).is_err());
        }
    }

    #[test]
    fn request_lines_decode_to_their_counts() {
        let mut inputs = Inputs { lines: Vec::new() };
        inputs.push(&[0, 7, 1234]);
        inputs.push(&[5]);
        assert_eq!(inputs.lines[0], b"{\"features\":[0,7,1234]}\n");
        assert_eq!(inputs.counts(0), vec![0, 7, 1234]);
        assert_eq!(inputs.counts(1), vec![5]);
    }
}
