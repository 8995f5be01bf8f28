//! The paper pipeline's layers, timed in a traced run: the white-box
//! security curves (Fig 3a/3b), the grey-box substitute (Table IV) and
//! the defense comparison (Tables V and VI), called through
//! `maleva_core`'s public experiment functions the way `repro` calls
//! them, on the run's own quick-scale context.
//!
//! Two departures from `repro --scale quick` keep a traced run inside
//! its time limit: the substitute and every defended model train for
//! [`EPOCHS`] epochs instead of 30 (per-epoch and per-call costs are
//! unchanged, so the layer figures still move with their layer), and
//! the white-box curves craft against [`WHITEBOX_ROWS`] test-malware
//! rows. The defense suite runs twice, as `repro --exp all` runs it
//! for Table V and again for Table VI.

use std::collections::BTreeMap;
use std::time::Instant;

use maleva_core::{defenses, greybox, whitebox, ExperimentContext, ExperimentScale};

use crate::json::{self, J};
use crate::spans::Span;
use crate::Metric;

/// Training epochs of the substitute and of each defended model.
pub const EPOCHS: usize = 3;
/// Test-malware rows the white-box curves craft against.
pub const WHITEBOX_ROWS: usize = 600;

/// What the paper section produced.
pub struct Paper {
    /// Wall seconds of each timed call, by metric name.
    pub wall_s: Vec<(&'static str, f64)>,
    /// Named correctness checks.
    pub checks: Vec<(&'static str, bool)>,
    /// FNV-1a digest of both curves and the Table VI rows; every run
    /// of one seed must record the same one.
    pub digest: String,
    /// The first span id minted after the section began.
    pub first_span: u64,
}

/// Runs `f` inside a span named `span` and returns its result and
/// wall seconds.
fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = maleva_obs::Span::enter(span);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs the section on `ctx`, whose scale it edits as described in
/// the module docs.
pub fn run(ctx: &mut ExperimentContext) -> Result<Paper, String> {
    let first_span = maleva_obs::trace::mint_id();
    let e = |what: &'static str| move |err: maleva_nn::NnError| format!("{what}: {err}");
    ctx.scale.substitute_epochs = EPOCHS;
    ctx.scale.attack_samples = WHITEBOX_ROWS;
    let (gamma, gamma_s) = timed("bench.gamma_curve", || {
        whitebox::gamma_curve(ctx, WHITEBOX_ROWS)
    });
    let gamma = gamma.map_err(e("gamma curve"))?;
    let (theta, theta_s) = timed("bench.theta_curve", || {
        whitebox::theta_curve(ctx, WHITEBOX_ROWS)
    });
    let theta = theta.map_err(e("theta curve"))?;
    // Both axes start at strength 0, where nothing is perturbed: the
    // target's point must be its plain detection rate on those rows.
    let rows = ctx.attack_batch();
    let plain = maleva_attack::detection_rate(ctx.target(), &rows).map_err(e("detection rate"))?;
    let at_zero = |c: &maleva_eval::SecurityCurve| {
        c.strength.first() == Some(&0.0)
            && c.series
                .first()
                .and_then(|s| s.values.first())
                .map(|v| v.to_bits())
                == Some(plain.to_bits())
    };
    let zero_ok = at_zero(&gamma) && at_zero(&theta);

    ctx.scale.attack_samples = ExperimentScale::quick().attack_samples;
    let (substitute, substitute_s) = timed("bench.substitute", || {
        greybox::train_substitute(ctx, ctx.seed ^ 0x5B)
    });
    let substitute = substitute.map_err(e("substitute"))?;
    let config = defenses::DefenseConfig::default();
    let mut suites = Vec::new();
    for name in ["bench.defense_suite.1", "bench.defense_suite.2"] {
        let (cmp, s) = timed(name, || {
            defenses::compare_defenses(ctx, &substitute, &config)
        });
        suites.push((cmp.map_err(e("defense suite"))?, s));
    }
    // Debug output prints every float exactly, so equal text means
    // bit-identical tables.
    let table = |i: usize| format!("{:?}", suites[i].0.rows);
    let suites_identical = table(0) == table(1);
    let digest = fnv1a(&format!("{gamma:?}\n{theta:?}\n{}", table(0)));
    Ok(Paper {
        wall_s: vec![
            ("core.gamma_curve_s", gamma_s),
            ("core.theta_curve_s", theta_s),
            ("core.substitute_s", substitute_s),
            ("defense.suite_s.1", suites[0].1),
            ("defense.suite_s.2", suites[1].1),
        ],
        checks: vec![
            ("whitebox_strength0_equals_detection_rate", zero_ok),
            ("defense_suites_identical", suites_identical),
        ],
        digest,
        first_span,
    })
}

/// Attack-layer figures from the section's spans: `jsma.craft` calls
/// (in the curves and the defense suites' advex pools), their mean
/// duration, rows crafted per second of white-box curve time, and the
/// share of crafted rows that evaded. Also counts rows that failed in
/// `attack::parallel` (an `attack.row` whose outcome is not `ok`).
pub fn attack_metrics(p: &Paper, spans: &BTreeMap<u64, Span>) -> (Vec<Metric>, u64) {
    let after = |name: &'static str| {
        spans
            .iter()
            .filter(move |(id, s)| **id > p.first_span && s.name == name)
    };
    let crafts: Vec<&Span> = after("jsma.craft").map(|(_, s)| s).collect();
    let evaded = crafts
        .iter()
        .filter(|s| json::field(&s.exit_line, "evaded") == Some("true"))
        .count();
    let failed_rows = after("attack.row")
        .filter(|(_, s)| json::field(&s.exit_line, "outcome") != Some("ok"))
        .count() as u64;
    // Span ids grow in time, so the curves' rows are those minted
    // before the substitute's span opened.
    let curves_end = spans
        .iter()
        .find(|(_, s)| s.name == "bench.substitute")
        .map_or(u64::MAX, |(id, _)| *id);
    let curve_rows = after("attack.row")
        .filter(|(id, _)| **id < curves_end)
        .count() as f64;
    let curve_s: f64 = p
        .wall_s
        .iter()
        .filter(|(n, _)| n.ends_with("curve_s"))
        .map(|(_, s)| s)
        .sum();
    let n = crafts.len() as f64;
    let per = |x: f64| if n > 0.0 { x / n } else { 0.0 };
    (
        vec![
            Metric::new("attack.craft_calls", n, "count"),
            Metric::new(
                "attack.craft_us",
                per(crafts.iter().map(|s| s.dur_ns as f64 / 1e3).sum()),
                "us",
            ),
            Metric::new(
                "attack.rows_per_s",
                if curve_s > 0.0 {
                    curve_rows / curve_s
                } else {
                    0.0
                },
                "rows/s",
            ),
            Metric::new("attack.evasion_ratio", per(evaded as f64), "ratio"),
        ],
        failed_rows,
    )
}

/// The section's record: scale, wall times, checks and digest.
pub fn to_json(p: &Paper) -> J {
    J::obj([
        ("epochs", J::from(EPOCHS)),
        ("whitebox_rows", J::from(WHITEBOX_ROWS)),
        (
            "defense_rows",
            J::from(ExperimentScale::quick().attack_samples),
        ),
        (
            "wall_s",
            J::obj(p.wall_s.iter().map(|(n, s)| (n.to_string(), J::from(*s)))),
        ),
        (
            "checks",
            J::obj(p.checks.iter().map(|(n, ok)| (n.to_string(), J::from(*ok)))),
        ),
        ("digest", J::from(p.digest.as_str())),
    ])
}
