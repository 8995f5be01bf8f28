//! `perfbench` — the maleva end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <scan_open|scan_hot> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir bench_out/perfbench]
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which also times the paper pipeline's layers). The full
//! record (provenance, every rung's latency histogram, the spans of a
//! traced run) goes to `--out-dir`. Exits non-zero if any correctness
//! check failed. See `README.md`.

mod json;
mod loadgen;
mod paper;
mod scan;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use json::J;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured seconds, shared among the ladder's rungs.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the full result record goes.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from("bench_out/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; `name` may be built at run time.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The full record written to `--out-dir`.
    pub record: J,
}

fn metrics_json(metrics: &[Metric]) -> J {
    J::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            J::obj([("value", J::Num(m.value)), ("unit", J::from(m.unit))]),
        )
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    sys::tighten_timer_slack();
    let result = match args.workload.as_str() {
        "scan_open" | "scan_hot" => scan::run(&args),
        other => Err(format!("unknown workload {other} (scan_open, scan_hot)")),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let path = args.out_dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", result.record)))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("perfbench: wrote {}", path.display());
    let line = J::obj([
        ("correct", J::from(result.correct)),
        ("attempted", J::from(result.attempted)),
        ("failed", J::from(result.failed)),
        ("metrics", metrics_json(&result.metrics)),
    ]);
    println!("{line}");
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness checks failed");
        ExitCode::FAILURE
    }
}
