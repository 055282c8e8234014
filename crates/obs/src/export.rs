//! Snapshot exporter: Prometheus text-exposition format.

use crate::json::write_f64;
use crate::registry::Snapshot;

fn prom_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        // Prometheus label values escape backslash, quote, newline.
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

/// Render a snapshot in Prometheus text-exposition format (version
/// 0.0.4). Counters and gauges render one sample per label set;
/// histograms render as summaries with `quantile="0.5|0.95|0.99"`
/// samples plus `_sum` (seconds) and `_count`. Output is deterministic:
/// metrics sorted by name then labels, one `# TYPE` line per family.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    let type_line = |out: &mut String, last: &mut String, name: &str, kind: &str| {
        if *last != name {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            *last = name.to_string();
        }
    };
    for c in &snap.counters {
        type_line(&mut out, &mut last_family, &c.name, "counter");
        out.push_str(&c.name);
        prom_labels(&mut out, &c.labels, None);
        out.push(' ');
        out.push_str(&c.value.to_string());
        out.push('\n');
    }
    for g in &snap.gauges {
        type_line(&mut out, &mut last_family, &g.name, "gauge");
        out.push_str(&g.name);
        prom_labels(&mut out, &g.labels, None);
        out.push(' ');
        out.push_str(&g.value.to_string());
        out.push('\n');
    }
    for h in &snap.histograms {
        type_line(&mut out, &mut last_family, &h.name, "summary");
        for (q, v) in [
            ("0.5", h.p50_seconds),
            ("0.95", h.p95_seconds),
            ("0.99", h.p99_seconds),
        ] {
            out.push_str(&h.name);
            prom_labels(&mut out, &h.labels, Some(("quantile", q)));
            out.push(' ');
            write_f64(&mut out, v);
            out.push('\n');
        }
        out.push_str(&h.name);
        out.push_str("_sum");
        prom_labels(&mut out, &h.labels, None);
        out.push(' ');
        write_f64(&mut out, h.sum_seconds);
        out.push('\n');
        out.push_str(&h.name);
        out.push_str("_count");
        prom_labels(&mut out, &h.labels, None);
        out.push(' ');
        out.push_str(&h.count.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{HistogramValue, MetricValue};

    fn fixed_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![MetricValue {
                name: "aqp_rows_scanned_total".into(),
                labels: vec![],
                value: 4242,
            }],
            gauges: vec![MetricValue {
                name: "aqp_disabled_units".into(),
                labels: vec![("system".into(), "demo".into())],
                value: 2,
            }],
            histograms: vec![HistogramValue {
                name: "aqp_stage_seconds".into(),
                labels: vec![("stage".into(), "query.scan".into())],
                count: 10,
                sum_seconds: 0.5,
                p50_seconds: 0.04,
                p95_seconds: 0.09,
                p99_seconds: 0.1,
                buckets: vec![(100, 10)],
            }],
        }
    }

    #[test]
    fn prometheus_rendering_shape() {
        let text = to_prometheus(&fixed_snapshot());
        assert!(text.contains("# TYPE aqp_rows_scanned_total counter\n"));
        assert!(text.contains("aqp_rows_scanned_total 4242\n"));
        assert!(text.contains("aqp_disabled_units{system=\"demo\"} 2\n"));
        assert!(text.contains("# TYPE aqp_stage_seconds summary\n"));
        assert!(text.contains("aqp_stage_seconds{stage=\"query.scan\",quantile=\"0.99\"} 0.1\n"));
        assert!(text.contains("aqp_stage_seconds_sum{stage=\"query.scan\"} 0.5\n"));
        assert!(text.contains("aqp_stage_seconds_count{stage=\"query.scan\"} 10\n"));
    }
}
