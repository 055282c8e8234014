//! Dependency-free HTML dashboard.
//!
//! Renders one self-contained HTML file — inline CSS and hand-built SVG
//! bar charts, no external assets or scripts — combining the observability
//! artifacts a workload run writes: per-operator explain profiles (from
//! request records), span time per name, serving-tier counts, and the CI-coverage
//! calibration audit. Hand-rolled string building in the same spirit as
//! [`crate::json`]; the section anchors (`id="explain"`, `id="stages"`,
//! `id="tiers"`, `id="calibration"`) are stable so CI can grep for them.

use crate::json::Value;
use crate::flight::RequestRecord;
use std::fmt::Write as _;

/// Everything the dashboard can render; all inputs optional.
#[derive(Debug, Clone, Copy, Default)]
pub struct DashboardData<'a> {
    /// Page title (e.g. the artifact prefix).
    pub title: &'a str,
    /// Parsed `{prefix}_report.json` (summary + tier counts).
    pub report: Option<&'a Value>,
    /// Parsed `{prefix}_calibration.json` (coverage audit).
    pub calibration: Option<&'a Value>,
    /// Request records from `{prefix}_traces.jsonl` (span times +
    /// operators).
    pub traces: &'a [RequestRecord],
}

/// Escape text for HTML body and attribute positions.
fn escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape(&mut out, s);
    out
}

/// Horizontal SVG bar chart: one labelled bar per row, scaled to the max
/// value. `fmt` renders the value label next to each bar.
fn bar_chart(rows: &[(String, f64)], fmt: &dyn Fn(f64) -> String) -> String {
    if rows.is_empty() {
        return "<p class=\"empty\">no data</p>".into();
    }
    let max = rows.iter().map(|(_, v)| *v).fold(0.0f64, f64::max).max(1e-12);
    let row_h = 22;
    let label_w = 240;
    let bar_w = 420;
    let height = rows.len() * row_h + 4;
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {w} {height}\" width=\"{w}\" height=\"{height}\" \
         role=\"img\">",
        w = label_w + bar_w + 120
    );
    for (i, (label, v)) in rows.iter().enumerate() {
        let y = i * row_h + 2;
        let w = ((v / max) * bar_w as f64).max(1.0);
        let _ = write!(
            svg,
            "<text x=\"{lx}\" y=\"{ty}\" text-anchor=\"end\" class=\"lbl\">{label}</text>\
             <rect x=\"{bx}\" y=\"{y}\" width=\"{w:.1}\" height=\"{h}\" class=\"bar\"/>\
             <text x=\"{vx:.1}\" y=\"{ty}\" class=\"val\">{val}</text>",
            lx = label_w - 6,
            ty = y + row_h - 8,
            label = esc(label),
            bx = label_w,
            h = row_h - 6,
            vx = label_w as f64 + w + 6.0,
            val = esc(&fmt(*v)),
        );
    }
    svg.push_str("</svg>");
    svg
}

fn obj_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn obj_str<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn human_bytes(b: f64) -> String {
    if b >= 1048576.0 {
        format!("{:.1} MiB", b / 1048576.0)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Operator-profile section (`id="explain"`): a table of per-operator
/// rows/selectivity/memory from the trace with the most operators, plus a
/// rows-scanned-per-stratum bar chart.
fn explain_section(out: &mut String, traces: &[RequestRecord]) {
    out.push_str("<section id=\"explain\"><h2>Explain profiles</h2>");
    let trace = traces.iter().max_by_key(|t| t.operators.len());
    let Some(trace) = trace.filter(|t| !t.operators.is_empty()) else {
        out.push_str("<p class=\"empty\">no operator profiles (run with --trace)</p></section>");
        return;
    };
    let _ = write!(
        out,
        "<p>query <code>{}</code> — plan <code>{}</code>, tier {}, {} rows scanned</p>",
        esc(&trace.query),
        esc(&trace.plan),
        esc(&trace.serving_tier),
        trace.rows_scanned
    );
    out.push_str(
        "<table><tr><th>operator</th><th>stratum</th><th>weight</th><th>rows in</th>\
         <th>rows out</th><th>selectivity</th><th>morsels</th><th>workers</th>\
         <th>p95/morsel</th><th>mem peak</th><th>mem current</th></tr>",
    );
    for op in &trace.operators {
        let _ = write!(
            out,
            "<tr><td><code>{}</code></td><td>{}</td><td>{:.1}</td><td>{}</td><td>{}</td>\
             <td>{:.1}%</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&op.op),
            esc(&op.stratum),
            op.weight,
            op.rows_in,
            op.rows_out,
            op.selectivity() * 100.0,
            op.morsels,
            op.morsels_per_worker.len(),
            esc(&human_ns(op.morsel_p95_ns as f64)),
            esc(&human_bytes(op.mem_peak_bytes as f64)),
            esc(&human_bytes(op.mem_current_bytes as f64)),
        );
    }
    out.push_str("</table><h3>Rows scanned per stratum</h3>");
    let rows: Vec<(String, f64)> = trace
        .operators
        .iter()
        .map(|op| (format!("{} [{}]", op.op, op.stratum), op.rows_in as f64))
        .collect();
    out.push_str(&bar_chart(&rows, &|v| format!("{v:.0}")));
    out.push_str("</section>");
}

/// Stage-timing section (`id="stages"`): span time per name, summed over
/// all records.
fn stages_section(out: &mut String, traces: &[RequestRecord]) {
    out.push_str("<section id=\"stages\"><h2>Stage timings</h2>");
    let mut totals: Vec<(String, f64)> = Vec::new();
    for t in traces {
        for s in &t.spans {
            if let Some((_, us)) = totals.iter_mut().find(|(name, _)| *name == s.name) {
                *us += s.micros as f64;
            } else {
                totals.push((s.name.clone(), s.micros as f64));
            }
        }
    }
    out.push_str(&bar_chart(&totals, &|v| format!("{v:.0} µs")));
    out.push_str("</section>");
}

/// Serving-tier section (`id="tiers"`): counts from the report summary,
/// falling back to counting the tiers of answered records.
fn tiers_section(out: &mut String, report: Option<&Value>, traces: &[RequestRecord]) {
    out.push_str("<section id=\"tiers\"><h2>Serving tiers</h2>");
    let mut rows: Vec<(String, f64)> = Vec::new();
    if let Some(tiers) = report.and_then(|r| r.get("summary")).and_then(|s| s.get("tiers")) {
        for tier in ["primary", "degraded", "overall", "exact", "partial"] {
            if let Some(n) = obj_f64(tiers, tier) {
                rows.push((tier.to_string(), n));
            }
        }
    } else {
        for t in traces.iter().filter(|t| !t.serving_tier.is_empty()) {
            if let Some((_, n)) = rows.iter_mut().find(|(l, _)| *l == t.serving_tier) {
                *n += 1.0;
            } else {
                rows.push((t.serving_tier.clone(), 1.0));
            }
        }
    }
    out.push_str(&bar_chart(&rows, &|v| format!("{v:.0}")));
    out.push_str("</section>");
}

/// One calibration bucket table (per aggregate function, decile or n).
fn coverage_table(out: &mut String, buckets: &[Value], nominal: f64) {
    out.push_str(
        "<table><tr><th>bucket</th><th>cells</th><th>covered</th><th>observed</th>\
         <th>AC 95% interval</th><th>coverage</th><th></th></tr>",
    );
    for b in buckets {
        let cells = obj_f64(b, "cells").unwrap_or(0.0);
        let observed = obj_f64(b, "observed").unwrap_or(0.0);
        let flagged = matches!(b.get("flagged"), Some(Value::Bool(true)));
        let frac = observed.clamp(0.0, 1.0);
        let nom_x = 60.0 + nominal.clamp(0.0, 1.0) * 160.0;
        let _ = write!(
            out,
            "<tr{cls}><td>{label}</td><td>{cells:.0}</td><td>{covered:.0}</td>\
             <td>{observed:.1}%</td><td>[{lo:.1}%, {hi:.1}%]</td>\
             <td><svg viewBox=\"0 0 230 14\" width=\"230\" height=\"14\">\
             <rect x=\"60\" y=\"2\" width=\"160\" height=\"10\" class=\"rail\"/>\
             <rect x=\"60\" y=\"2\" width=\"{w:.1}\" height=\"10\" class=\"{bar}\"/>\
             <line x1=\"{nx:.1}\" y1=\"0\" x2=\"{nx:.1}\" y2=\"14\" class=\"nominal\"/>\
             </svg></td><td>{flag}</td></tr>",
            cls = if flagged { " class=\"flagged\"" } else { "" },
            label = esc(obj_str(b, "label")),
            covered = obj_f64(b, "covered").unwrap_or(0.0),
            observed = observed * 100.0,
            lo = obj_f64(b, "ci_lo").unwrap_or(0.0) * 100.0,
            hi = obj_f64(b, "ci_hi").unwrap_or(0.0) * 100.0,
            w = frac * 160.0,
            bar = if flagged { "bar-bad" } else { "bar-ok" },
            nx = nom_x,
            flag = if flagged { "UNDER-COVERS" } else { "ok" },
        );
    }
    out.push_str("</table>");
}

/// Calibration section (`id="calibration"`): observed CI coverage vs
/// nominal, per aggregate function, per group-size decile and per
/// sampled-row count n.
fn calibration_section(out: &mut String, calibration: Option<&Value>) {
    out.push_str("<section id=\"calibration\"><h2>CI-coverage calibration</h2>");
    let Some(cal) = calibration else {
        out.push_str("<p class=\"empty\">no calibration audit (run workload --calibrate)</p></section>");
        return;
    };
    let nominal = obj_f64(cal, "nominal").unwrap_or(0.95);
    let _ = write!(
        out,
        "<p>nominal coverage {:.0}% over {} queries — {} estimated cells audited \
         ({} exact, {} unbounded intervals excluded); vertical line marks nominal</p>",
        nominal * 100.0,
        obj_f64(cal, "queries").unwrap_or(0.0),
        obj_f64(cal, "cells").unwrap_or(0.0),
        obj_f64(cal, "exact_cells").unwrap_or(0.0),
        obj_f64(cal, "unbounded_cells").unwrap_or(0.0),
    );
    if let Some(Value::Arr(funcs)) = cal.get("per_function") {
        out.push_str("<h3>Per aggregate function</h3>");
        coverage_table(out, funcs, nominal);
    }
    if let Some(Value::Arr(deciles)) = cal.get("per_decile") {
        out.push_str("<h3>Per group-size decile</h3>");
        coverage_table(out, deciles, nominal);
    }
    if let Some(Value::Arr(per_rows)) = cal.get("per_rows") {
        out.push_str("<h3>Per sampled rows n</h3>");
        coverage_table(out, per_rows, nominal);
    }
    out.push_str("</section>");
}

/// Render the dashboard as one self-contained HTML document.
pub fn render(data: &DashboardData<'_>) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str("<title>");
    escape(&mut out, data.title);
    out.push_str(" — AQP dashboard</title><style>");
    out.push_str(
        "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:64rem;\
         color:#1a1a2e;padding:0 1rem}\
         h1{border-bottom:2px solid #1a1a2e}section{margin:2rem 0}\
         table{border-collapse:collapse;width:100%;font-size:13px}\
         th,td{border:1px solid #cbd5e1;padding:3px 8px;text-align:right}\
         th:first-child,td:first-child{text-align:left}\
         tr.flagged td{background:#fee2e2}\
         code{background:#f1f5f9;padding:0 3px}\
         .bar{fill:#3b5bdb}.bar-ok{fill:#2f9e44}.bar-bad{fill:#e03131}\
         .rail{fill:#e2e8f0}.nominal{stroke:#1a1a2e;stroke-width:1.5}\
         .lbl,.val{font:11px system-ui,sans-serif}.empty{color:#64748b}",
    );
    out.push_str("</style></head><body><h1>");
    escape(&mut out, data.title);
    out.push_str(" — approximate query processing dashboard</h1>");
    if let Some(summary) = data.report.and_then(|r| r.get("summary")) {
        let _ = write!(
            out,
            "<p>{} queries · mean rel. error {:.4} · {:.1}% of groups found · \
             speedup {:.1}×</p>",
            obj_f64(summary, "queries").unwrap_or(0.0),
            obj_f64(summary, "rel_err").unwrap_or(0.0),
            obj_f64(summary, "pct_groups").unwrap_or(0.0) * 100.0,
            obj_f64(summary, "speedup").unwrap_or(0.0),
        );
    }
    explain_section(&mut out, data.traces);
    calibration_section(&mut out, data.calibration);
    tiers_section(&mut out, data.report, data.traces);
    stages_section(&mut out, data.traces);
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::profile::OpProfile;
    use crate::flight::Stage;

    fn trace() -> RequestRecord {
        RequestRecord {
            query: "SELECT COUNT(*) FROM t GROUP BY \"g<1>\"".into(),
            plan: "union-all(2)".into(),
            serving_tier: "primary".into(),
            rows_scanned: 130,
            spans: vec![
                Stage { name: "query.scan".into(), micros: 1_500 },
                Stage { name: "query.merge".into(), micros: 250 },
            ],
            operators: vec![
                OpProfile {
                    op: "scan:sg_t.g".into(),
                    table: "sg_t.g".into(),
                    stratum: "small-group".into(),
                    weight: 1.0,
                    rows_in: 30,
                    rows_out: 30,
                    morsels: 1,
                    morsels_per_worker: vec![1],
                    ..OpProfile::default()
                },
                OpProfile {
                    op: "scan:t_overall".into(),
                    table: "t_overall".into(),
                    stratum: "overall".into(),
                    weight: 10.0,
                    rows_in: 100,
                    rows_out: 80,
                    morsels: 2,
                    morsels_per_worker: vec![2],
                    mem_peak_bytes: 2048,
                    ..OpProfile::default()
                },
            ],
            ..RequestRecord::default()
        }
    }

    #[test]
    fn renders_all_section_anchors() {
        let cal = json::parse(
            "{\"nominal\":0.95,\"queries\":20,\"cells\":300,\"exact_cells\":40,\
             \"unbounded_cells\":1,\"per_function\":[{\"label\":\"COUNT\",\"cells\":100,\
             \"covered\":96,\"observed\":0.96,\"ci_lo\":0.90,\"ci_hi\":0.98,\
             \"flagged\":false}],\"per_decile\":[{\"label\":\"d1 [1..4]\",\"cells\":30,\
             \"covered\":20,\"observed\":0.667,\"ci_lo\":0.48,\"ci_hi\":0.81,\
             \"flagged\":true}],\"per_rows\":[{\"label\":\"n 3-5\",\"cells\":12,\
             \"covered\":3,\"observed\":0.25,\"ci_lo\":0.08,\"ci_hi\":0.54,\
             \"flagged\":true}]}",
        )
        .unwrap();
        let report = json::parse(
            "{\"summary\":{\"queries\":20,\"rel_err\":0.01,\"pct_groups\":0.98,\
             \"speedup\":12.0,\"tiers\":{\"primary\":18,\"degraded\":0,\"overall\":1,\
             \"exact\":1,\"partial\":0}}}",
        )
        .unwrap();
        let traces = [trace()];
        let html = render(&DashboardData {
            title: "OBS",
            report: Some(&report),
            calibration: Some(&cal),
            traces: &traces,
        });
        for anchor in ["id=\"explain\"", "id=\"calibration\"", "id=\"tiers\"", "id=\"stages\""] {
            assert!(html.contains(anchor), "missing {anchor}");
        }
        assert!(html.contains("<svg"), "has inline SVG charts");
        assert!(html.contains("UNDER-COVERS"), "flags under-covering decile");
        assert!(html.contains("<h3>Per sampled rows n</h3>"));
        assert!(html.contains("<td>n 3-5</td><td>12</td><td>3</td>"));
        assert!(html.contains("scan:sg_t.g"));
        assert!(html.contains(">1500 µs</text>"), "span time charted in µs");
        // Query text is escaped.
        assert!(html.contains("&quot;g&lt;1&gt;&quot;"));
        assert!(!html.contains("\"g<1>\""));
    }

    #[test]
    fn renders_empty_inputs_without_panicking() {
        let html = render(&DashboardData { title: "empty", ..DashboardData::default() });
        for anchor in ["id=\"explain\"", "id=\"calibration\"", "id=\"tiers\"", "id=\"stages\""] {
            assert!(html.contains(anchor), "missing {anchor}");
        }
        assert!(html.contains("no calibration audit"));
    }
}
