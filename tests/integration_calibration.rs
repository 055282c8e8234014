//! End-to-end CI-coverage calibration: over a seeded 210-query workload
//! (COUNT, SUM and AVG), the observed 95 % confidence-interval coverage
//! of the uniform estimator must land in [90 %, 99 %] per aggregate
//! function — i.e. the intervals we report are neither fantasy-narrow
//! nor uselessly wide.
//!
//! Queries rotate across several independently-seeded samples so coverage
//! events are not all correlated through a single sample draw.

use aqp::prelude::*;
use aqp::query::DataSource;
use aqp::workload::{
    exact_answer, generate_queries, CoverageAudit, DatasetProfile, QueryGenConfig,
    WorkloadAggregate,
};
use rand::prelude::*;
use rand::rngs::StdRng;

/// 6 000-row view: three categorical columns of moderate cardinality and
/// one float measure with non-trivial within-group variance.
fn calibration_view() -> Table {
    let schema = SchemaBuilder::new()
        .field("cat", DataType::Utf8)
        .field("region", DataType::Utf8)
        .field("year", DataType::Int64)
        .field("rev", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("v", schema);
    let mut rng = StdRng::seed_from_u64(2003);
    for i in 0..6_000i64 {
        let rev: f64 = rng.random_range(1.0..100.0);
        t.push_row(&[
            format!("c{}", i % 8).into(),
            format!("r{}", i % 5).into(),
            (2000 + i % 4).into(),
            rev.into(),
        ])
        .unwrap();
    }
    t
}

#[test]
fn observed_coverage_matches_nominal_per_aggregate_function() {
    let view = calibration_view();
    let source = DataSource::Wide(&view);
    let profile = DatasetProfile::new(&view, &["rev"], &[], 100);
    // Several independently-seeded uniform samples; queries rotate across
    // them so one unlucky draw cannot sink every cell at once.
    let systems: Vec<UniformAqp> = (0..6)
        .map(|seed| UniformAqp::build(&view, 0.15, 100 + seed).unwrap())
        .collect();

    let mut audit = CoverageAudit::new();
    let mut total_queries = 0usize;
    for (batch, aggregate) in [
        WorkloadAggregate::Count,
        WorkloadAggregate::Sum,
        WorkloadAggregate::Avg,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = QueryGenConfig {
            grouping_columns: 1,
            aggregate,
            seed: 7 + batch as u64,
            ..QueryGenConfig::default()
        };
        for (i, query) in generate_queries(&profile, &cfg, 70).into_iter().enumerate() {
            let exact = exact_answer(&source, &query).unwrap();
            let system = &systems[i % systems.len()];
            let approx = system.answer(&query, 0.95).unwrap();
            audit.record(&query, &approx, &exact);
            total_queries += 1;
        }
    }
    assert!(total_queries >= 200, "need at least 200 audited queries");

    let report = audit.report(0.95);
    assert_eq!(report.queries as usize, total_queries);
    let labels: Vec<&str> = report
        .per_function
        .iter()
        .map(|b| b.label.as_str())
        .collect();
    assert_eq!(labels, ["COUNT", "SUM", "AVG"]);
    for bucket in &report.per_function {
        assert!(
            bucket.cells >= 50,
            "{}: too few auditable cells ({})",
            bucket.label,
            bucket.cells
        );
        let observed = bucket.observed();
        assert!(
            (0.90..=0.99).contains(&observed),
            "{}: observed 95% CI coverage {:.3} outside [0.90, 0.99] ({}/{} cells)",
            bucket.label,
            observed,
            bucket.covered,
            bucket.cells
        );
    }
    // The well-calibrated estimator must not trip the per-function
    // under-coverage flag. (Decile buckets are not asserted: a decile can
    // collapse onto one repeated group size, making its cells strongly
    // correlated through the shared sample draws, which the binomial
    // flagging interval does not model.)
    let flagged_functions: Vec<&str> = report
        .per_function
        .iter()
        .filter(|b| b.flagged(report.nominal))
        .map(|b| b.label.as_str())
        .collect();
    assert!(
        flagged_functions.is_empty(),
        "unexpected per-function under-coverage flags: {flagged_functions:?}"
    );
    // Decile bucketing and n bucketing each partition the auditable cells.
    let decile_cells: u64 = report.per_decile.iter().map(|b| b.cells).sum();
    assert_eq!(decile_cells, report.overall.cells);
    let n_cells: u64 = report.per_rows.iter().map(|b| b.cells).sum();
    assert_eq!(n_cells, report.overall.cells);
}
