//! The benchmark's own arithmetic: arrival schedules, percentiles and
//! the rule for when one may be reported, the SLO ladder, the
//! log-bucketed latency histogram kept in result files, and the
//! Prometheus-exposition deltas behind the per-stage means.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::Rng;

/// A percentile is reported only if at least this many samples lie
/// beyond it; otherwise it is a statement about one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The first `n` arrivals of an open-loop Poisson process at `rate`
/// per second: due offsets from the rung start, ascending.
/// Inter-arrival gaps are exponential with mean `1 / rate`, drawn from
/// `rng`, so the same seed always yields the same schedule. A fixed
/// count (rather than a fixed duration) guarantees every rung the
/// samples its percentiles need.
pub fn poisson_arrivals(rate: f64, n: usize, rng: &mut impl Rng) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 - U lies in (0, 1], so the logarithm is finite.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Whether percentile `q` (in `(0, 1)`) of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples strictly beyond its nearest-rank
/// position.
pub fn percentile_reportable(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank && n - rank >= MIN_TAIL_SAMPLES
}

/// The highest percentile of `n` samples that still has
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` below that many.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    (n > MIN_TAIL_SAMPLES).then(|| (n - MIN_TAIL_SAMPLES) as f64 / n as f64)
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
/// Failed requests are stored as `f64::INFINITY`, so they count as
/// beyond every finite limit.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Splits values (in arrival order) into consecutive windows of
/// `window`, folding a short remainder into the last window, and
/// applies `f` to each window. With `window` = 100, a p90 per window
/// still has ten samples beyond it.
pub fn per_window(
    in_arrival_order: &[f64],
    window: usize,
    f: impl Fn(&mut [f64]) -> f64,
) -> Vec<f64> {
    let count = (in_arrival_order.len() / window).max(1);
    (0..count)
        .map(|w| {
            let end = if w + 1 == count {
                in_arrival_order.len()
            } else {
                (w + 1) * window
            };
            f(&mut in_arrival_order[w * window..end].to_vec())
        })
        .collect()
}

/// Percentile `q` of one window (sorts it in place).
pub fn window_percentile(q: f64) -> impl Fn(&mut [f64]) -> f64 {
    move |w| {
        w.sort_by(f64::total_cmp);
        percentile(w, q)
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Whether a rung's outstanding-request count grew over the rung: the
/// median backlog of the last quarter of sends is more than twice that
/// of the first quarter plus a few requests of Poisson burst slack. A
/// server below capacity holds a flat backlog; above it, the backlog
/// grows linearly until the schedule ends. Medians, so a transient
/// stall that piles up requests for a moment and then drains is not
/// mistaken for growth.
pub fn backlog_growing(backlog_at_send: &[u32]) -> bool {
    let quarter = backlog_at_send.len() / 4;
    if quarter == 0 {
        return false;
    }
    let median_of = |s: &[u32]| median(&s.iter().map(|&b| f64::from(b)).collect::<Vec<_>>());
    let first = median_of(&backlog_at_send[..quarter]);
    let last = median_of(&backlog_at_send[backlog_at_send.len() - quarter..]);
    last > 2.0 * first + 4.0
}

/// One rung's verdict against the latency SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The latency the objective is on, in µs, with failures counted
    /// as infinitely late.
    pub latency_us: f64,
    /// Whether the backlog grew over the rung.
    pub backlog_growing: bool,
}

impl RungVerdict {
    /// A rung meets the SLO if its latency (failures included as misses)
    /// is within `slo_us` and it did not build a growing backlog.
    pub fn meets(&self, slo_us: f64) -> bool {
        self.latency_us <= slo_us && !self.backlog_growing
    }
}

/// The highest offered rate on the ladder whose rung meets the SLO,
/// or 0 if none does.
pub fn max_rate_at_slo(rungs: &[RungVerdict], slo_us: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets(slo_us))
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Sub-buckets per power of two in [`LogHistogram`]: adjacent bucket
/// bounds differ by 2^(1/16) ≈ 4.4%, far better than 2x resolution.
pub const SUB_BUCKETS: u32 = 16;

/// A sparse log-linear histogram of latencies in µs, kept in result
/// files so any percentile can be recomputed later to within one
/// bucket. Bucket `i` covers `[2^(i/16), 2^((i+1)/16))` µs; values
/// below 1 µs fall in bucket 0. Infinite values (failures) are counted
/// separately.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LogHistogram {
    /// Bucket index → count.
    pub buckets: BTreeMap<u32, u64>,
    /// Failed requests (no finite latency).
    pub failed: u64,
}

impl LogHistogram {
    /// Builds a histogram from latencies in µs.
    pub fn from_us(values: &[f64]) -> Self {
        let mut h = LogHistogram::default();
        for &v in values {
            if v.is_finite() {
                *h.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
            } else {
                h.failed += 1;
            }
        }
        h
    }

    /// The bucket holding `us`.
    pub fn bucket_of(us: f64) -> u32 {
        if us < 1.0 {
            0
        } else {
            (us.log2() * SUB_BUCKETS as f64).floor() as u32
        }
    }

    /// Lower bound of bucket `i` in µs.
    pub fn lower_us(i: u32) -> f64 {
        2f64.powf(i as f64 / SUB_BUCKETS as f64)
    }
}

/// Sample values from a Prometheus text exposition, keyed by the full
/// series name including any label set (`x_bucket{le="8"}`).
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The growth of one series between two scrapes (0 if absent).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// Mean of a histogram over the interval between two scrapes:
/// Δ`_sum` / Δ`_count`, or 0 when nothing was recorded.
pub fn interval_mean(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    histogram: &str,
) -> f64 {
    let count = delta(before, after, &format!("{histogram}_count"));
    if count <= 0.0 {
        return 0.0;
    }
    delta(before, after, &format!("{histogram}_sum")) / count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!percentile_reportable(999, 0.99));
        assert!(percentile_reportable(1000, 0.99));
        assert!(percentile_reportable(20, 0.5));
        assert!(!percentile_reportable(19, 0.5));
        assert!(!percentile_reportable(5, 0.5));
    }

    #[test]
    fn highest_reportable_percentile_leaves_ten_beyond() {
        assert_eq!(highest_reportable_percentile(10), None);
        assert_eq!(highest_reportable_percentile(1000), Some(0.99));
        assert_eq!(highest_reportable_percentile(100), Some(0.9));
        for n in [11, 57, 1000, 4321] {
            let q = highest_reportable_percentile(n).unwrap();
            assert!(percentile_reportable(n, q), "n={n} q={q}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
    }

    #[test]
    fn windows_fold_the_remainder_into_the_last() {
        let v: Vec<f64> = (1..=2500).rev().map(f64::from).collect();
        // Windows 2500..=1501 and 1500..=1.
        assert_eq!(
            per_window(&v, 1000, window_percentile(1.0)),
            vec![2500.0, 1500.0]
        );
        assert_eq!(
            per_window(&v, 1000, window_percentile(0.5)),
            vec![2000.0, 750.0]
        );
        assert_eq!(
            per_window(&v[..10], 1000, window_percentile(1.0)),
            vec![2500.0]
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failures_count_as_misses_on_the_ladder() {
        // 989 fast replies and 11 failures: the p99 lands on a failure.
        let mut v = vec![100.0; 989];
        v.extend(std::iter::repeat_n(f64::INFINITY, 11));
        let p99 = percentile(&v, 0.99);
        assert!(p99.is_infinite());
        let rung = RungVerdict {
            rate: 200.0,
            latency_us: p99,
            backlog_growing: false,
        };
        assert!(!rung.meets(10_000.0));
        // With only 9 failures the p99 is a fast reply again.
        let mut ok = vec![100.0; 991];
        ok.extend(std::iter::repeat_n(f64::INFINITY, 9));
        assert_eq!(percentile(&ok, 0.99), 100.0);
    }

    #[test]
    fn ladder_takes_the_highest_passing_rung() {
        let rung = |rate, latency_us, backlog_growing| RungVerdict {
            rate,
            latency_us,
            backlog_growing,
        };
        let slo = 10_000.0;
        let ladder = [
            rung(100.0, 3_000.0, false),
            rung(200.0, 6_000.0, false),
            rung(400.0, 20_000.0, false),
        ];
        assert_eq!(max_rate_at_slo(&ladder, slo), 200.0);
        // A growing backlog disqualifies a rung even under the limit.
        let ladder = [rung(100.0, 3_000.0, false), rung(200.0, 6_000.0, true)];
        assert_eq!(max_rate_at_slo(&ladder, slo), 100.0);
        assert_eq!(max_rate_at_slo(&[rung(100.0, 1e9, false)], slo), 0.0);
    }

    #[test]
    fn backlog_growth_needs_a_real_trend() {
        let flat: Vec<u32> = (0..400).map(|i| 2 + (i % 5)).collect();
        assert!(!backlog_growing(&flat));
        let growing: Vec<u32> = (0..400).map(|i| i / 4).collect();
        assert!(backlog_growing(&growing));
        assert!(!backlog_growing(&[50, 60, 70]));
        // A stall late in the rung that drains again is not growth.
        let mut spike = flat.clone();
        for (i, b) in spike[330..370].iter_mut().enumerate() {
            *b += 10 * i as u32;
        }
        assert!(!backlog_growing(&spike));
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_arrivals(500.0, 1000, &mut maleva_apisim::rng(7));
        let b = poisson_arrivals(500.0, 1000, &mut maleva_apisim::rng(7));
        let c = poisson_arrivals(500.0, 1000, &mut maleva_apisim::rng(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 1000 arrivals at 500/s take about 2 s; 5 sigma is about 0.32 s.
        let span = a.last().unwrap().as_secs_f64();
        assert!((1.68..2.32).contains(&span), "{span} s");
    }

    #[test]
    fn histogram_resolution_beats_two_x() {
        let ratio = LogHistogram::lower_us(1) / LogHistogram::lower_us(0);
        assert!(ratio < 1.05);
        let h = LogHistogram::from_us(&[0.5, 1.0, 1000.0, 1010.0, f64::INFINITY]);
        assert_eq!(h.failed, 1);
        assert_eq!(h.buckets.values().sum::<u64>(), 4);
        let b = LogHistogram::bucket_of(1000.0);
        assert!(LogHistogram::lower_us(b) <= 1000.0 && 1000.0 < LogHistogram::lower_us(b + 1));
    }

    const BEFORE: &str = "\
# TYPE serve_stage_inference_us histogram
serve_stage_inference_us_bucket{le=\"64\"} 10
serve_stage_inference_us_bucket{le=\"128\"} 30
serve_stage_inference_us_bucket{le=\"+Inf\"} 30
serve_stage_inference_us_sum 2400
serve_stage_inference_us_count 30
serve_requests_total 30
";
    const AFTER: &str = "\
# TYPE serve_stage_inference_us histogram
serve_stage_inference_us_bucket{le=\"64\"} 10
serve_stage_inference_us_bucket{le=\"128\"} 50
serve_stage_inference_us_bucket{le=\"256\"} 80
serve_stage_inference_us_bucket{le=\"+Inf\"} 80
serve_stage_inference_us_sum 12400
serve_stage_inference_us_count 80
serve_requests_total 80
";

    #[test]
    fn stage_means_come_from_sum_and_count_deltas() {
        let (a, b) = (parse_exposition(BEFORE), parse_exposition(AFTER));
        assert_eq!(delta(&a, &b, "serve_requests_total"), 50.0);
        // (12400 - 2400) / (80 - 30)
        assert_eq!(interval_mean(&a, &b, "serve_stage_inference_us"), 200.0);
        assert_eq!(interval_mean(&a, &a, "serve_stage_inference_us"), 0.0);
        assert_eq!(interval_mean(&a, &b, "serve_stage_absent_us"), 0.0);
    }
}
