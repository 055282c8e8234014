//! The small-group estimator is unbiased, pinned over many sample draws.
//!
//! SALES is generated once (30 000 fact rows, data seed 1) and the small
//! group family is rebuilt at sampler seeds 1–40. COUNT, SUM and AVG
//! templates over one and two group-by columns are answered from every
//! build. For each sampled cell (template × group) the draws give a mean
//! estimate and its standard error, and so a t statistic against the
//! exact value. A group missing from a draw's answer counts as 0 for
//! COUNT and SUM (the Horvitz–Thompson convention: no sampled row, no
//! weight) and is no observation for AVG, which has no such convention.
//!
//! Per design × aggregate the table pins the cells with t > 3 and with
//! t < −3, the pooled Σt/√cells to two decimals, and how many of the
//! draws' intervals covered the truth. A weight error or a row counted in
//! two strata shifts every cell's mean the same way, which the pooled
//! statistic adds up; the extreme-t counts catch a shift confined to a
//! few cells. The intervals' coverage is pinned beside them because it
//! is a different question: SUM and AVG intervals miss far more often
//! than 5 %, and the t statistics show that is their shape, not bias.
//!
//! On a mismatch the test prints the table it measured in the form of
//! [`PINNED`].

use aqp::datagen::sales::{SALES_EXCLUDED_GROUPING, SALES_MEASURE_COLUMNS};
use aqp::prelude::*;
use std::collections::BTreeMap;

const FACT_ROWS: usize = 30_000;
const DATA_SEED: u64 = 1;
/// Sampler seeds 1..=SEEDS.
const SEEDS: u64 = 40;
/// Base sampling rate `r` and allocation ratio γ, as the benchmark uses.
const BASE_RATE: f64 = 0.04;
const GAMMA: f64 = 0.5;
/// Templates per aggregate and group-by width (1–2 columns).
const TEMPLATES: usize = 3;

/// One cell's draws: the estimates (0 for a COUNT/SUM group a draw did
/// not find), and how many of the draws' intervals covered the truth.
#[derive(Default)]
struct Cell {
    truth: f64,
    /// The design of the draws' estimates; empty if no draw found the
    /// group.
    design: String,
    estimates: Vec<f64>,
    intervals: u64,
    covered: u64,
}

/// One design × aggregate: its cells, their t statistics, and the draws'
/// intervals.
#[derive(Default)]
struct Pool {
    cells: u64,
    t_above_3: u64,
    t_below_minus_3: u64,
    t_sum: f64,
    covered: u64,
    intervals: u64,
}

/// A pinned row: `(design, aggregate, cells, t > 3, t < −3, Σt/√cells,
/// covered, intervals)`.
type Row<'a> = (&'a str, &'a str, u64, u64, u64, &'a str, u64, u64);

fn measure() -> BTreeMap<(String, String), Pool> {
    let star = gen_sales(&SalesConfig {
        fact_rows: FACT_ROWS,
        zipf_z: 1.5,
        seed: DATA_SEED,
    })
    .unwrap();
    let view = star.denormalize("v").unwrap();
    drop(star);
    let profile = DatasetProfile::new(&view, SALES_MEASURE_COLUMNS, SALES_EXCLUDED_GROUPING, 5_000);
    let mut templates = Vec::new();
    for aggregate in [
        WorkloadAggregate::Count,
        WorkloadAggregate::Sum,
        WorkloadAggregate::Avg,
    ] {
        for grouping_columns in 1..=2 {
            let cfg = QueryGenConfig {
                grouping_columns,
                aggregate,
                seed: DATA_SEED,
                ..Default::default()
            };
            for query in generate_queries(&profile, &cfg, TEMPLATES) {
                let exact = exact_answer(&DataSource::Wide(&view), &query).unwrap();
                templates.push((query, exact));
            }
        }
    }
    // (template, group key) → cell, for each template's one aggregate.
    let mut cells: BTreeMap<(usize, Vec<Value>), Cell> = BTreeMap::new();
    for (t, (_, exact)) in templates.iter().enumerate() {
        for (key, &truth) in &exact.per_agg[0] {
            cells.insert(
                (t, key.clone()),
                Cell {
                    truth,
                    ..Cell::default()
                },
            );
        }
    }
    for seed in 1..=SEEDS {
        let config = SmallGroupConfig {
            seed,
            ..SmallGroupConfig::with_rates(BASE_RATE, GAMMA)
        };
        let sgs = SmallGroupSampler::build(&view, config).unwrap();
        for (t, (query, _)) in templates.iter().enumerate() {
            let answer = sgs.answer(query, 0.95).unwrap();
            let horvitz_thompson_zero = query.aggregates[0].func != AggFunc::Avg;
            for ((at, key), cell) in cells.range_mut((t, Vec::new())..) {
                if *at != t {
                    break;
                }
                match answer.group(key) {
                    Some(group) => {
                        let value = &group.values[0];
                        cell.estimates.push(value.estimate.value);
                        cell.design = format!("{:?}", value.estimate.design);
                        cell.intervals += 1;
                        cell.covered += u64::from(value.ci.contains(cell.truth));
                    }
                    None if horvitz_thompson_zero => cell.estimates.push(0.0),
                    None => {}
                }
            }
        }
    }
    // t per cell some draw answered, pooled per design × aggregate in cell
    // order. Draws that all agree (every exact cell) give t = 0: their
    // distance from the truth is summation order, not sampling.
    let mut pools: BTreeMap<(String, String), Pool> = BTreeMap::new();
    for ((t, _), cell) in &cells {
        let n = cell.estimates.len() as f64;
        if cell.design.is_empty() || n < 2.0 {
            continue;
        }
        let stat = if cell.estimates.iter().all(|&e| e == cell.estimates[0]) {
            0.0
        } else {
            let mean = cell.estimates.iter().sum::<f64>() / n;
            let var = cell
                .estimates
                .iter()
                .map(|e| (e - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            (mean - cell.truth) / (var / n).sqrt()
        };
        let func = templates[*t].0.aggregates[0].func.to_string();
        let pool = pools.entry((cell.design.clone(), func)).or_default();
        pool.cells += 1;
        pool.t_above_3 += u64::from(stat > 3.0);
        pool.t_below_minus_3 += u64::from(stat < -3.0);
        pool.t_sum += stat;
        pool.covered += cell.covered;
        pool.intervals += cell.intervals;
    }
    pools
}

/// `(design, aggregate, cells, t > 3, t < −3, Σt/√cells, covered,
/// intervals)` over sampler seeds 1–40.
///
/// `Exact` cells come from small group tables, which no sampler seed
/// changes: every draw gives the same value, so t is 0. A row the overall
/// sample counts a second time would give them a spread and a positive
/// t. Seven SUM/AVG exact cells sum in another order than the exact scan
/// and miss their zero-width interval by an ulp in every draw (ROADMAP
/// item 1), hence 1520 of 1800.
///
/// `Scaled` cells are overall-sample cells. No cell's mean sits more than
/// 3 SE above its truth. The few below, and the negative pooled
/// statistics, are what the mean of 40 draws from a right-skewed
/// distribution shows: its standard error is small exactly when the draws
/// missed the tail. Coverage reads 0.974 for COUNT, 0.717 for SUM and
/// 0.497 for AVG.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("Exact", "AVG", 45, 0, 0, "0.00", 1520, 1800),
    ("Exact", "COUNT", 238, 0, 0, "0.00", 9520, 9520),
    ("Exact", "SUM", 45, 0, 0, "0.00", 1520, 1800),
    ("Scaled", "AVG", 244, 0, 9, "-6.44", 3652, 7353),
    ("Scaled", "COUNT", 647, 0, 6, "-2.78", 8348, 8571),
    ("Scaled", "SUM", 245, 0, 13, "-4.92", 5276, 7354),
];

#[test]
fn sampled_cells_are_unbiased_per_design_and_aggregate() {
    let measured = measure();
    let pooled: Vec<String> = measured
        .values()
        .map(|p| format!("{:.2}", p.t_sum / (p.cells as f64).sqrt()))
        .collect();
    let rows: Vec<Row> = measured
        .iter()
        .zip(&pooled)
        .map(|(((design, agg), p), pooled)| {
            let (hi, lo) = (p.t_above_3, p.t_below_minus_3);
            (
                design.as_str(),
                agg.as_str(),
                p.cells,
                hi,
                lo,
                pooled.as_str(),
                p.covered,
                p.intervals,
            )
        })
        .collect();
    let mut listing = String::new();
    for (design, agg, cells, hi, lo, pooled, covered, intervals) in &rows {
        listing.push_str(&format!(
            "    ({design:?}, {agg:?}, {cells}, {hi}, {lo}, {pooled:?}, {covered}, {intervals}),\n"
        ));
    }
    assert_eq!(rows, PINNED, "measured table:\n{listing}");
}
