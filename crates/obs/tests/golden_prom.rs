//! Golden-file test for the Prometheus text exporter.
//!
//! Builds a private registry with fixed observations and compares the
//! rendered exposition byte-for-byte against `tests/golden/metrics.prom`.
//! The histogram quantiles come from the log-linear bucket midpoints, so
//! the output is fully deterministic.

use aqp_obs::{to_prometheus, Registry};

#[test]
fn prometheus_export_matches_golden_file() {
    let r = Registry::new();

    r.counter("aqp_rows_scanned_total", &[]).inc_by(123_456);
    r.counter("aqp_serving_tier_total", &[("tier", "primary")])
        .inc_by(7);
    r.counter("aqp_serving_tier_total", &[("tier", "exact")]).inc();
    r.gauge("aqp_disabled_units", &[("system", "demo")]).set(2);

    let scan = r.histogram("aqp_stage_seconds", &[("stage", "query.scan")]);
    for _ in 0..9 {
        scan.observe(1_000_000); // 1ms in ns
    }
    scan.observe(50_000_000); // one 50ms outlier
    let merge = r.histogram("aqp_stage_seconds", &[("stage", "query.merge")]);
    merge.observe(250_000); // 0.25ms

    let rendered = to_prometheus(&r.snapshot());
    let golden = include_str!("golden/metrics.prom");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/golden/metrics.prom;\n\
         if the change is intentional, update the golden file.\n--- rendered ---\n{rendered}"
    );
}
