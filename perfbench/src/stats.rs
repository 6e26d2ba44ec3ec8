//! Metric values, order statistics, and the result line the benchmark
//! prints.

use std::fmt::Write as _;

use smokestack_telemetry::StreamingHistogram;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name: only `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`, `count`, `share`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Turn a label such as `smokestack/AES-10+prune` into a name segment
/// (`smokestack-AES-10-prune`).
pub fn name_segment(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Linear-interpolated `q`-quantile of `values` (`0.0..=1.0`); 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest of `values`; 0 for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The highest percentile that still has at least ten samples above
/// it: `(percentile in 0..100, value)`, or `None` below 11 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// `label: median, tail percentile, sample count` for a report line.
pub fn summary(label: &str, values: &[f64]) -> String {
    let tail = tail(values).map_or("-".to_string(), |(p, v)| format!("p{p:.0}={v:.3}"));
    format!(
        "{label}: p50={:.3} {tail} n={}",
        median(values),
        values.len()
    )
}

/// Geometric mean of positive values (0 if any is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `q`-quantile of a log-bucketed histogram, interpolated linearly
/// inside the bucket that holds the rank (the histogram's own
/// [`StreamingHistogram::quantile`] returns bucket midpoints, which
/// would read identically across runs that differ by less than a
/// bucket).
pub fn hist_quantile(h: &StreamingHistogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count() as f64).max(1.0);
    let mut below = 0u64;
    for ((lo, count), (hi_incl, _)) in h.nonzero_buckets().zip(h.cumulative_buckets()) {
        if (below + count) as f64 >= rank {
            let frac = (rank - below as f64) / count as f64;
            let est = lo as f64 + frac * ((hi_incl + 1 - lo) as f64);
            return est.clamp(h.min() as f64, h.max() as f64);
        }
        below += count;
    }
    h.max() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Correctness bookkeeping shared by every workload: operations
/// attempted, and the checks that failed with a reason each.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted (runs, requests, trials).
    pub attempted: u64,
    /// Failed operations or checks.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one failure with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(why);
        }
    }

    /// Require `ok`, counting a failure with `why` otherwise.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// Render the result object the benchmark prints as its last line.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 75.0);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn histogram_quantile_is_bracketed_by_exact() {
        let mut h = StreamingHistogram::new();
        let values: Vec<u64> = (0..5000u64).map(|i| 1000 + (i * 7919) % 100_000).collect();
        for &v in &values {
            h.observe(v);
        }
        let exact: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for q in [0.5, 0.99] {
            let est = hist_quantile(&h, q);
            let truth = quantile(&exact, q);
            assert!((est / truth - 1.0).abs() < 0.04, "q{q}: {est} vs {truth}");
        }
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("vm.request_us.smokestack-AES-10.p99"));
        assert!(!valid_name("serve/p99"));
        assert!(!valid_name(".leading"));
        assert_eq!(
            name_segment("smokestack/AES-10+prune"),
            "smokestack-AES-10-prune"
        );
    }

    #[test]
    fn result_line_shape() {
        let c = Checks {
            attempted: 3,
            ..Checks::default()
        };
        let line = result_json(&c, &[Metric::new("a", "ms", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
