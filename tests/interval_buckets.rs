//! Where the 95 % intervals miss, by the sampled row count behind them.
//!
//! SALES is generated in-process and served by a small-group family and by
//! a budget-capped scan of the view, with COUNT, SUM and AVG group-by
//! templates at seeds 1–3. Every non-exact cell is compared with the exact
//! answer and counted in a bucket of its estimate's `rows` (the sampled
//! stratum's n: 1, 2, 3–5, 6–20, 21+, the buckets `workload --calibrate`
//! reports) × design × aggregate. The table pins
//! today's cell and covered counts exactly, so a change to an interval
//! (small-n quantiles, a floor for zero-variance cells, a prefix-scan
//! interval) moves a number here instead of slipping under a tolerance.
//! The view stays in generator order, so its prefix is close to a random
//! sample; on a view clustered by time the prefix is far worse.
//!
//! On a mismatch the test prints the table it measured in the form of
//! [`PINNED`], ready to paste after checking that the move is the intended
//! one.

use aqp::datagen::sales::{SALES_EXCLUDED_GROUPING, SALES_MEASURE_COLUMNS};
use aqp::prelude::*;
use aqp::workload::{rows_bucket, ExactAnswer, ROWS_BUCKETS};
use std::collections::BTreeMap;

/// SALES fact rows per seed: enough for 1-row to 21+-row sampled groups at
/// the rates below, small enough for a few seconds in a debug build.
const FACT_ROWS: usize = 30_000;
/// Base sampling rate `r` and allocation ratio γ, as the benchmark uses.
const BASE_RATE: f64 = 0.04;
const GAMMA: f64 = 0.5;
/// The budget-capped scan reads the first `FACT_ROWS / 25` rows (4 %).
const PREFIX_ROWS: usize = FACT_ROWS / 25;
/// Templates per seed, aggregate and group-by width (1–3 columns).
const TEMPLATES: usize = 3;

/// `(design, aggregate, rows bucket)` → `(cells, covered)`.
type Buckets = BTreeMap<(String, String, usize), (u64, u64)>;

fn record(buckets: &mut Buckets, query: &Query, answer: &ApproxAnswer, exact: &ExactAnswer) {
    for group in &answer.groups {
        for (i, value) in group.values.iter().enumerate() {
            let Some(&truth) = exact.per_agg[i].get(&group.key) else { continue };
            if value.is_exact() {
                continue;
            }
            let (e, func) = (value.estimate, query.aggregates[i].func);
            let key = (format!("{:?}", e.design), func.to_string(), rows_bucket(e.rows));
            let slot = buckets.entry(key).or_default();
            slot.0 += 1;
            slot.1 += u64::from(value.ci.contains(truth));
        }
    }
}

fn measure() -> Buckets {
    let mut buckets = Buckets::new();
    for seed in 1..=3u64 {
        let star = gen_sales(&SalesConfig { fact_rows: FACT_ROWS, zipf_z: 1.5, seed }).unwrap();
        let view = star.denormalize("v").unwrap();
        drop(star);
        let config = SmallGroupConfig { seed, ..SmallGroupConfig::with_rates(BASE_RATE, GAMMA) };
        let sgs = SmallGroupSampler::build(&view, config).unwrap();
        let prefix = ResilientSystem::exact_only(view.clone()).with_row_budget(PREFIX_ROWS);
        let profile =
            DatasetProfile::new(&view, SALES_MEASURE_COLUMNS, SALES_EXCLUDED_GROUPING, 5_000);
        let aggregates = [WorkloadAggregate::Count, WorkloadAggregate::Sum, WorkloadAggregate::Avg];
        for aggregate in aggregates {
            for grouping_columns in 1..=3 {
                let cfg =
                    QueryGenConfig { grouping_columns, aggregate, seed, ..Default::default() };
                for query in generate_queries(&profile, &cfg, TEMPLATES) {
                    let exact = exact_answer(&DataSource::Wide(&view), &query).unwrap();
                    record(&mut buckets, &query, &sgs.answer(&query, 0.95).unwrap(), &exact);
                    record(&mut buckets, &query, &prefix.answer(&query, 0.95).unwrap(), &exact);
                }
            }
        }
    }
    buckets
}

/// `(design, aggregate, rows bucket, cells, covered)` over seeds 1–3.
/// The AVG templates are the SUM templates with the aggregate swapped (the
/// generator draws both from one seed), so the two share their cell
/// counts. The delta-method variance of an AVG over one sampled row is
/// zero, and so is its interval's width: that is why AVG's first bucket
/// covers a tenth of its cells.
#[rustfmt::skip]
const PINNED: &[(&str, &str, &str, u64, u64)] = &[
    ("Prefix", "AVG", "1", 492, 39),
    ("Prefix", "AVG", "2", 147, 54),
    ("Prefix", "AVG", "3-5", 183, 100),
    ("Prefix", "AVG", "6-20", 170, 111),
    ("Prefix", "AVG", "21+", 82, 63),
    ("Prefix", "COUNT", "1", 822, 810),
    ("Prefix", "COUNT", "2", 202, 201),
    ("Prefix", "COUNT", "3-5", 188, 183),
    ("Prefix", "COUNT", "6-20", 162, 157),
    ("Prefix", "COUNT", "21+", 50, 47),
    ("Prefix", "SUM", "1", 492, 358),
    ("Prefix", "SUM", "2", 147, 115),
    ("Prefix", "SUM", "3-5", 183, 132),
    ("Prefix", "SUM", "6-20", 170, 120),
    ("Prefix", "SUM", "21+", 82, 63),
    ("Scaled", "AVG", "1", 461, 48),
    ("Scaled", "AVG", "2", 182, 94),
    ("Scaled", "AVG", "3-5", 179, 91),
    ("Scaled", "AVG", "6-20", 158, 96),
    ("Scaled", "AVG", "21+", 85, 63),
    ("Scaled", "COUNT", "1", 773, 758),
    ("Scaled", "COUNT", "2", 192, 182),
    ("Scaled", "COUNT", "3-5", 196, 192),
    ("Scaled", "COUNT", "6-20", 145, 139),
    ("Scaled", "COUNT", "21+", 52, 51),
    ("Scaled", "SUM", "1", 461, 332),
    ("Scaled", "SUM", "2", 182, 139),
    ("Scaled", "SUM", "3-5", 179, 131),
    ("Scaled", "SUM", "6-20", 158, 123),
    ("Scaled", "SUM", "21+", 85, 69),
];

#[test]
fn sampled_cells_by_rows_design_and_aggregate_are_pinned() {
    let measured = measure();
    let rows: Vec<(&str, &str, &str, u64, u64)> = measured
        .iter()
        .map(|((design, agg, at), &(cells, covered))| {
            (design.as_str(), agg.as_str(), ROWS_BUCKETS[*at].1, cells, covered)
        })
        .collect();
    let mut listing = String::new();
    for (design, agg, b, cells, covered) in &rows {
        listing.push_str(&format!("    ({design:?}, {agg:?}, {b:?}, {cells}, {covered}),\n"));
    }
    assert_eq!(rows, PINNED, "measured table:\n{listing}");
}
