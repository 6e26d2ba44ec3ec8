//! Counters, gauges, streaming percentile histograms, and
//! permutation-index frequency tables with a chi-squared uniformity
//! statistic.

use crate::histogram::StreamingHistogram;
use crate::json::push_json_str;
use std::collections::BTreeMap;

/// Chi-squared statistic of `counts` against the uniform distribution
/// over its bins. Returns 0.0 for degenerate inputs (fewer than two
/// bins or no observations).
pub fn chi_squared_uniform(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if counts.len() < 2 || total == 0 {
        return 0.0;
    }
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// Frequency table over small integer indices (P-BOX row selections).
/// Grows automatically to cover the largest index observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreqTable {
    counts: Vec<u64>,
    total: u64,
}

impl FreqTable {
    /// An empty table.
    pub fn new() -> FreqTable {
        FreqTable::default()
    }

    /// Record one observation of `index`.
    pub fn observe(&mut self, index: u64) {
        let i = index as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Per-index counts (index 0..).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Chi-squared uniformity statistic over the observed index range.
    pub fn chi_squared(&self) -> f64 {
        chi_squared_uniform(&self.counts)
    }

    fn to_json(&self) -> String {
        let counts: Vec<String> = self.counts.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"total\":{},\"chi_squared\":{:.3},\"counts\":[{}]}}",
            self.total,
            self.chi_squared(),
            counts.join(",")
        )
    }
}

/// Named counters, gauges, streaming histograms, and frequency tables.
///
/// Names are dotted strings (`rng_draws.AES-10`, `pbox_index.server`);
/// `BTreeMap` keeps dumps deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    streams: BTreeMap<String, StreamingHistogram>,
    freq_tables: BTreeMap<String, FreqTable>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name`.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.entry_counter(name) += by;
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raise gauge `name` to `value` if larger (high-water mark).
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Record index `index` into frequency table `name`.
    pub fn observe_index(&mut self, name: &str, index: u64) {
        self.freq_tables.entry_or_default(name).observe(index);
    }

    /// Record `value` into streaming percentile histogram `name`.
    pub fn stream_observe(&mut self, name: &str, value: u64) {
        self.streams.entry_or_default(name).observe(value);
    }

    /// Merge a whole [`StreamingHistogram`] into slot `name` (how the
    /// flight recorder materializes its fixed-slot histograms at drain
    /// time).
    pub fn merge_stream(&mut self, name: &str, h: &StreamingHistogram) {
        self.streams.entry_or_default(name).merge(h);
    }

    /// Merge a whole [`FreqTable`] into slot `name`.
    pub fn merge_freq_table(&mut self, name: &str, table: &FreqTable) {
        let mine = self.freq_tables.entry_or_default(name);
        for (i, &c) in table.counts.iter().enumerate() {
            if i >= mine.counts.len() {
                mine.counts.resize(i + 1, 0);
            }
            mine.counts[i] += c;
        }
        mine.total += table.total;
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Streaming percentile histogram by name.
    pub fn stream(&self, name: &str) -> Option<&StreamingHistogram> {
        self.streams.get(name)
    }

    /// All streaming histograms, ordered by name.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &StreamingHistogram)> {
        self.streams.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All counters, ordered by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, ordered by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Frequency table by name.
    pub fn freq_table(&self, name: &str) -> Option<&FreqTable> {
        self.freq_tables.get(name)
    }

    /// All frequency tables, ordered by name.
    pub fn freq_tables(&self) -> impl Iterator<Item = (&str, &FreqTable)> {
        self.freq_tables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold another registry into this one (counters add, gauges take
    /// the max, streams and tables merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.entry_counter(k) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, h) in &other.streams {
            self.streams.entry_or_default(k).merge(h);
        }
        for (k, t) in &other.freq_tables {
            self.merge_freq_table(k, t);
        }
    }

    fn entry_counter(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), 0);
        }
        self.counters.get_mut(name).unwrap()
    }

    /// Dump the whole registry as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            push_json_str(&mut s, k);
            s.push_str(&format!(":{v}"));
        }
        s.push_str("},\"gauges\":{");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                s.push(',');
            }
            first = false;
            push_json_str(&mut s, k);
            s.push_str(&format!(":{v}"));
        }
        s.push_str("},\"streams\":{");
        first = true;
        for (k, h) in &self.streams {
            if !first {
                s.push(',');
            }
            first = false;
            push_json_str(&mut s, k);
            s.push(':');
            s.push_str(&h.to_json());
        }
        s.push_str("},\"freq_tables\":{");
        first = true;
        for (k, t) in &self.freq_tables {
            if !first {
                s.push(',');
            }
            first = false;
            push_json_str(&mut s, k);
            s.push(':');
            s.push_str(&t.to_json());
        }
        s.push_str("}}");
        s
    }
}

/// `entry(..).or_default()` without the repeated `to_string`
/// boilerplate at call sites.
trait EntryOrDefault<V: Default> {
    fn entry_or_default(&mut self, name: &str) -> &mut V;
}

impl<V: Default> EntryOrDefault<V> for BTreeMap<String, V> {
    fn entry_or_default(&mut self, name: &str) -> &mut V {
        if !self.contains_key(name) {
            self.insert(name.to_string(), V::default());
        }
        self.get_mut(name).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_squared_basics() {
        // Perfectly uniform -> 0.
        assert_eq!(chi_squared_uniform(&[10, 10, 10, 10]), 0.0);
        // Degenerate inputs -> 0.
        assert_eq!(chi_squared_uniform(&[]), 0.0);
        assert_eq!(chi_squared_uniform(&[5]), 0.0);
        assert_eq!(chi_squared_uniform(&[0, 0]), 0.0);
        // All mass in one of two bins: statistic = total.
        assert!((chi_squared_uniform(&[40, 0]) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn freq_table_grows_and_scores() {
        let mut t = FreqTable::new();
        for i in 0..8u64 {
            for _ in 0..100 {
                t.observe(i);
            }
        }
        assert_eq!(t.total(), 800);
        assert_eq!(t.counts().len(), 8);
        assert_eq!(t.chi_squared(), 0.0);
        t.observe(15);
        assert_eq!(t.counts().len(), 16);
    }

    #[test]
    fn registry_round_trip() {
        let mut m = MetricsRegistry::new();
        m.inc("rng_draws.AES-10", 3);
        m.gauge_max("peak_rss", 100);
        m.gauge_max("peak_rss", 50);
        m.stream_observe("frame_bytes", 48);
        m.observe_index("pbox_index.server", 2);
        assert_eq!(m.counter("rng_draws.AES-10"), 3);
        assert_eq!(m.gauge("peak_rss"), Some(100));
        assert_eq!(m.stream("frame_bytes").unwrap().count(), 1);
        assert_eq!(m.freq_table("pbox_index.server").unwrap().total(), 1);

        let json = m.to_json();
        assert!(json.contains("\"rng_draws.AES-10\":3"));
        assert!(json.contains("\"peak_rss\":100"));
        assert!(json.contains("\"chi_squared\""));
        assert!(json.contains("\"streams\":{\"frame_bytes\":{"));
        // The dump is itself a flat-ish JSON object; spot-check balance.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.observe_index("t", 0);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 5);
        b.gauge_max("g", 9);
        b.stream_observe("h", 7);
        b.observe_index("t", 3);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.gauge("g"), Some(9));
        assert_eq!(a.stream("h").unwrap().count(), 1);
        let t = a.freq_table("t").unwrap();
        assert_eq!(t.total(), 2);
        assert_eq!(t.counts(), &[1, 0, 0, 1]);
    }
}
