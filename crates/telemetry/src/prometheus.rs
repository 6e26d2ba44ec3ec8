//! Prometheus text-format exposition for a [`MetricsRegistry`].
//!
//! The `stats` surface on the `bench` and `campaign` binaries emits
//! this format so the recorder's aggregates can be scraped or diffed
//! with standard tooling. Exposition follows the text format v0.0.4
//! conventions:
//!
//! * counters get a `_total` suffix;
//! * gauges are emitted as-is;
//! * streaming percentile histograms become summaries:
//!   `<name>{quantile="0.5|0.95|0.99|0.999"}` plus `_sum`/`_count`;
//! * frequency tables become `<name>_total{index="i"}` series plus a
//!   `<name>_chi_squared` gauge.
//!
//! Registry names are dotted (`rng_draws.AES-10`); dots and dashes are
//! not legal in Prometheus metric names, so everything outside
//! `[a-zA-Z0-9_:]` maps to `_`. The original dotted name survives in a
//! `# HELP` line. Output ordering is deterministic (the registry is
//! `BTreeMap`-backed).

use crate::metrics::MetricsRegistry;

/// Sanitize a dotted registry name into a legal Prometheus metric name.
pub fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn push_help_type(out: &mut String, name: &str, original: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} smokestack metric `{original}`\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Render a registry in Prometheus text exposition format.
pub fn render_prometheus(m: &MetricsRegistry) -> String {
    let mut out = String::new();

    for (name, value) in m.counters() {
        let pname = sanitize_name(name);
        push_help_type(&mut out, &format!("{pname}_total"), name, "counter");
        out.push_str(&format!("{pname}_total {value}\n"));
    }

    for (name, value) in m.gauges() {
        let pname = sanitize_name(name);
        push_help_type(&mut out, &pname, name, "gauge");
        out.push_str(&format!("{pname} {value}\n"));
    }

    for (name, h) in m.streams() {
        let pname = sanitize_name(name);
        push_help_type(&mut out, &pname, name, "summary");
        for (q, v) in [
            ("0.5", h.p50()),
            ("0.95", h.p95()),
            ("0.99", h.p99()),
            ("0.999", h.p999()),
        ] {
            out.push_str(&format!("{pname}{{quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{pname}_sum {}\n", h.sum()));
        out.push_str(&format!("{pname}_count {}\n", h.count()));
    }

    for (name, t) in m.freq_tables() {
        let pname = sanitize_name(name);
        push_help_type(&mut out, &format!("{pname}_total"), name, "counter");
        for (i, &c) in t.counts().iter().enumerate() {
            out.push_str(&format!("{pname}_total{{index=\"{i}\"}} {c}\n"));
        }
        let chi = sanitize_name(&format!("{name}_chi_squared"));
        push_help_type(&mut out, &chi, name, "gauge");
        out.push_str(&format!("{chi} {:.3}\n", t.chi_squared()));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::StreamingHistogram;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_name("rng_draws.AES-10"), "rng_draws_AES_10");
        assert_eq!(sanitize_name("pbox_index.server"), "pbox_index_server");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn renders_every_metric_family() {
        let mut m = MetricsRegistry::new();
        m.inc("rng_draws.AES-10", 7);
        m.gauge_max("peak_rss", 4096);
        let mut s = StreamingHistogram::new();
        for v in [10, 20, 30, 40_000] {
            s.observe(v);
        }
        m.merge_stream("rng_cost_decicycles", &s);
        m.observe_index("pbox_index.server", 0);
        m.observe_index("pbox_index.server", 2);

        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE rng_draws_AES_10_total counter"));
        assert!(text.contains("rng_draws_AES_10_total 7\n"));
        assert!(text.contains("# TYPE peak_rss gauge"));
        assert!(text.contains("peak_rss 4096\n"));
        assert!(text.contains("# TYPE rng_cost_decicycles summary"));
        assert!(text.contains("rng_cost_decicycles{quantile=\"0.99\"}"));
        assert!(text.contains("rng_cost_decicycles_sum 40060\n"));
        assert!(text.contains("rng_cost_decicycles_count 4\n"));
        assert!(text.contains("pbox_index_server_total{index=\"1\"} 0\n"));
        assert!(text.contains("pbox_index_server_chi_squared"));
        // HELP lines preserve the dotted original.
        assert!(text.contains("`rng_draws.AES-10`"));
    }
}
