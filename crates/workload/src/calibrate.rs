//! Confidence-interval coverage calibration (the audit half of the
//! observability PR).
//!
//! A reported 95 % confidence interval is only worth reporting if it
//! actually contains the true answer about 95 % of the time. This module
//! runs a seeded workload through an AQP system *and* the differential
//! exact oracle, then tallies — per aggregate function and per group-size
//! decile — how often the reported interval covered the exact value
//! ("observed coverage") versus the nominal level.
//!
//! Three kinds of (query, group, aggregate) cells are excluded from the
//! coverage tally, but counted separately so nothing disappears silently:
//!
//! * **exact cells** — estimates served entirely from 100 %-rate strata
//!   carry degenerate `[v, v]` intervals that trivially cover; counting
//!   them would inflate observed coverage toward 1.0;
//! * **unbounded cells** — intervals of infinite width (missing-variance
//!   fallbacks) trivially cover for the opposite reason;
//! * **unmatched groups** — groups present in only one of the two answers
//!   are an accuracy problem ([`crate::metrics::pct_groups`]), not a
//!   calibration one.
//!
//! Whether a bucket *under-covers* is itself a statistical question: with
//! 40 cells, 36 covered is entirely consistent with a true 95 % rate. A
//! bucket is flagged only when the upper bound of an Agresti–Coull 95 %
//! interval for its observed coverage proportion lies below the nominal
//! level — i.e. when we are confident the interval construction is too
//! narrow, not merely unlucky.

use std::collections::BTreeMap;
use std::fmt;

use crate::generator::{generate_queries, DatasetProfile, QueryGenConfig, WorkloadAggregate};
use crate::harness::{exact_answer_threaded, ExactAnswer};
use aqp_core::{ApproxAnswer, AqpSystem};
use aqp_obs::json::Value;
use aqp_query::{AggFunc, DataSource, Query};
use aqp_sampling::{agresti_coull, ConfidenceInterval};

/// One auditable cell: a (query, group, aggregate) triple whose estimate
/// is genuinely approximate and whose interval has finite width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageCell {
    /// Aggregate function that produced the estimate.
    pub func: AggFunc,
    /// Exact number of base-view tuples in the group (for decile bucketing).
    pub group_rows: u64,
    /// Whether the reported interval contained the exact value.
    pub covered: bool,
}

/// Coverage tally for one bucket (an aggregate function, or a group-size
/// decile).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageBucket {
    /// Human-readable bucket label (`"COUNT"`, `"rows 12-88"`, ...).
    pub label: String,
    /// Auditable cells in the bucket.
    pub cells: u64,
    /// Cells whose interval covered the exact value.
    pub covered: u64,
}

impl CoverageBucket {
    /// Observed coverage proportion (0 when the bucket is empty).
    pub fn observed(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.covered as f64 / self.cells as f64
        }
    }

    /// Agresti–Coull 95 % interval for the observed coverage proportion.
    pub fn interval(&self) -> ConfidenceInterval {
        agresti_coull(self.covered, self.cells, 0.95)
    }

    /// Whether the bucket demonstrably under-covers the `nominal` level:
    /// the *upper* bound of the Agresti–Coull interval is below it.
    pub fn flagged(&self, nominal: f64) -> bool {
        self.cells > 0 && self.interval().hi < nominal
    }
}

/// Accumulates coverage cells across a workload, then renders the report.
#[derive(Debug, Default)]
pub struct CoverageAudit {
    cells: Vec<CoverageCell>,
    queries: u64,
    exact_cells: u64,
    unbounded_cells: u64,
}

impl CoverageAudit {
    /// A fresh, empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Audit one query: compare every matched (group, aggregate) cell of
    /// the approximate answer against the exact oracle.
    pub fn record(&mut self, query: &Query, approx: &ApproxAnswer, exact: &ExactAnswer) {
        self.queries += 1;
        for group in &approx.groups {
            let group_rows = exact.rows_per_group.get(&group.key).copied().unwrap_or(0);
            for (idx, value) in group.values.iter().enumerate() {
                let Some(exact_value) = exact
                    .per_agg
                    .get(idx)
                    .and_then(|m| m.get(&group.key))
                    .copied()
                else {
                    continue; // group absent from the exact answer
                };
                if value.estimate.exact {
                    self.exact_cells += 1;
                    continue;
                }
                if !value.ci.width().is_finite() {
                    self.unbounded_cells += 1;
                    continue;
                }
                self.cells.push(CoverageCell {
                    func: query.aggregates[idx].func,
                    group_rows,
                    covered: value.ci.contains(exact_value),
                });
            }
        }
    }

    /// Auditable cells recorded so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Build the calibration report against a nominal confidence level.
    pub fn report(&self, nominal: f64) -> CalibrationReport {
        let mut overall = CoverageBucket {
            label: "overall".to_owned(),
            cells: 0,
            covered: 0,
        };
        // Per aggregate function, in a stable display order.
        let mut by_func: BTreeMap<u8, CoverageBucket> = BTreeMap::new();
        for cell in &self.cells {
            overall.cells += 1;
            overall.covered += u64::from(cell.covered);
            let (order, label) = func_label(cell.func);
            let bucket = by_func.entry(order).or_insert_with(|| CoverageBucket {
                label: label.to_owned(),
                cells: 0,
                covered: 0,
            });
            bucket.cells += 1;
            bucket.covered += u64::from(cell.covered);
        }

        // Per group-size decile: sort cells by exact group size and cut
        // into ten equal-count buckets.
        let mut sorted: Vec<&CoverageCell> = self.cells.iter().collect();
        sorted.sort_by_key(|c| c.group_rows);
        let n = sorted.len();
        let mut per_decile = Vec::new();
        for d in 0..10usize {
            let start = d * n / 10;
            let end = (d + 1) * n / 10;
            if start >= end {
                continue;
            }
            let chunk = &sorted[start..end];
            per_decile.push(CoverageBucket {
                label: format!(
                    "d{} rows {}-{}",
                    d + 1,
                    chunk.first().map_or(0, |c| c.group_rows),
                    chunk.last().map_or(0, |c| c.group_rows)
                ),
                cells: chunk.len() as u64,
                covered: chunk.iter().filter(|c| c.covered).count() as u64,
            });
        }

        CalibrationReport {
            nominal,
            queries: self.queries,
            exact_cells: self.exact_cells,
            unbounded_cells: self.unbounded_cells,
            per_function: by_func.into_values().collect(),
            per_decile,
            overall,
        }
    }
}

fn func_label(func: AggFunc) -> (u8, &'static str) {
    match func {
        AggFunc::Count => (0, "COUNT"),
        AggFunc::Sum => (1, "SUM"),
        AggFunc::Avg => (2, "AVG"),
        AggFunc::Min => (3, "MIN"),
        AggFunc::Max => (4, "MAX"),
    }
}

/// The calibration audit result: observed CI coverage versus nominal,
/// per aggregate function and per group-size decile.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Nominal confidence level the intervals were requested at.
    pub nominal: f64,
    /// Queries audited.
    pub queries: u64,
    /// Cells skipped because the estimate was exact (degenerate interval).
    pub exact_cells: u64,
    /// Cells skipped because the interval had infinite width.
    pub unbounded_cells: u64,
    /// Coverage per aggregate function (COUNT, SUM, AVG order).
    pub per_function: Vec<CoverageBucket>,
    /// Coverage per group-size decile (smallest groups first).
    pub per_decile: Vec<CoverageBucket>,
    /// Coverage over all auditable cells.
    pub overall: CoverageBucket,
}

impl CalibrationReport {
    /// Buckets (function or decile) that demonstrably under-cover.
    pub fn flagged_buckets(&self) -> Vec<&CoverageBucket> {
        self.per_function
            .iter()
            .chain(self.per_decile.iter())
            .filter(|b| b.flagged(self.nominal))
            .collect()
    }

    /// Serialise as a single JSON object (the shape
    /// [`aqp_obs::dashboard`] consumes).
    pub fn to_json(&self) -> String {
        let buckets = |list: &[CoverageBucket]| {
            Value::Arr(list.iter().map(|b| bucket_value(b, self.nominal)).collect())
        };
        Value::object([
            ("nominal", self.nominal.into()),
            ("queries", self.queries.into()),
            ("cells", self.overall.cells.into()),
            ("exact_cells", self.exact_cells.into()),
            ("unbounded_cells", self.unbounded_cells.into()),
            ("overall", bucket_value(&self.overall, self.nominal)),
            ("per_function", buckets(&self.per_function)),
            ("per_decile", buckets(&self.per_decile)),
        ])
        .to_json()
    }
}

fn bucket_value(bucket: &CoverageBucket, nominal: f64) -> Value {
    let ci = bucket.interval();
    Value::object([
        ("label", bucket.label.as_str().into()),
        ("cells", bucket.cells.into()),
        ("covered", bucket.covered.into()),
        ("observed", bucket.observed().into()),
        ("ci_lo", ci.lo.into()),
        ("ci_hi", ci.hi.into()),
        ("flagged", bucket.flagged(nominal).into()),
    ])
}

impl fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CI coverage calibration (nominal {:.1}%)",
            self.nominal * 100.0
        )?;
        writeln!(
            f,
            "  queries: {}   auditable cells: {}   exact cells skipped: {}   unbounded skipped: {}",
            self.queries, self.overall.cells, self.exact_cells, self.unbounded_cells
        )?;
        write_bucket_line(f, &self.overall, self.nominal)?;
        if !self.per_function.is_empty() {
            writeln!(f, "  by aggregate function:")?;
            for b in &self.per_function {
                write_bucket_line(f, b, self.nominal)?;
            }
        }
        if !self.per_decile.is_empty() {
            writeln!(f, "  by group-size decile:")?;
            for b in &self.per_decile {
                write_bucket_line(f, b, self.nominal)?;
            }
        }
        Ok(())
    }
}

fn write_bucket_line(
    f: &mut fmt::Formatter<'_>,
    bucket: &CoverageBucket,
    nominal: f64,
) -> fmt::Result {
    let ci = bucket.interval();
    writeln!(
        f,
        "    {:<18} {:>6} cells  {:>5.1}% covered  AC95 [{:.1}%, {:.1}%]{}",
        bucket.label,
        bucket.cells,
        bucket.observed() * 100.0,
        ci.lo * 100.0,
        ci.hi * 100.0,
        if bucket.flagged(nominal) {
            "  UNDER-COVERS"
        } else {
            ""
        }
    )
}

/// Configuration for [`run_calibration`].
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Nominal confidence level for the reported intervals.
    pub nominal: f64,
    /// Queries generated per aggregate function.
    pub queries_per_function: usize,
    /// Grouping columns per generated query.
    pub grouping_columns: usize,
    /// Workload RNG seed (each function batch offsets from it).
    pub seed: u64,
    /// Scan workers for the exact oracle.
    pub threads: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            nominal: 0.95,
            queries_per_function: 70,
            grouping_columns: 1,
            seed: 42,
            threads: 1,
        }
    }
}

/// Run the full calibration audit: a COUNT batch plus, when the profile
/// has measure columns, SUM and AVG batches, each compared against the
/// differential exact oracle.
pub fn run_calibration(
    system: &dyn AqpSystem,
    exact_source: &DataSource<'_>,
    profile: &DatasetProfile,
    cfg: &CalibrationConfig,
) -> Result<CalibrationReport, Box<dyn std::error::Error>> {
    let mut aggregates = vec![WorkloadAggregate::Count];
    if !profile.measures().is_empty() {
        aggregates.push(WorkloadAggregate::Sum);
        aggregates.push(WorkloadAggregate::Avg);
    }
    let mut audit = CoverageAudit::new();
    for (offset, aggregate) in aggregates.into_iter().enumerate() {
        let gen_cfg = QueryGenConfig {
            grouping_columns: cfg.grouping_columns,
            aggregate,
            seed: cfg.seed.wrapping_add(offset as u64),
            ..QueryGenConfig::default()
        };
        for query in generate_queries(profile, &gen_cfg, cfg.queries_per_function) {
            let exact = exact_answer_threaded(exact_source, &query, cfg.threads)?;
            let approx = system.answer(&query, cfg.nominal)?;
            audit.record(&query, &approx, &exact);
        }
    }
    Ok(audit.report(cfg.nominal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_core::UniformAqp;
    use aqp_storage::{DataType, SchemaBuilder, Table};

    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("cat", DataType::Utf8)
            .field("region", DataType::Utf8)
            .field("rev", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..2000i64 {
            t.push_row(&[
                format!("c{}", i % 6).into(),
                format!("r{}", i % 4).into(),
                ((i % 97) as f64 + 0.5).into(),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn under_coverage_flag_uses_interval_not_point() {
        // 50/100 demonstrably under-covers a 95 % nominal level...
        let bad = CoverageBucket {
            label: "bad".into(),
            cells: 100,
            covered: 50,
        };
        assert!(bad.flagged(0.95));
        // ...but 95/100 is exactly on target,
        let good = CoverageBucket {
            label: "good".into(),
            cells: 100,
            covered: 95,
        };
        assert!(!good.flagged(0.95));
        // and 18/20 (90 % observed) is within small-sample noise of 95 %,
        // so the flag must stay quiet where a naive point comparison would
        // fire.
        let noisy = CoverageBucket {
            label: "noisy".into(),
            cells: 20,
            covered: 18,
        };
        assert!(!noisy.flagged(0.95));
        // Empty buckets are never flagged.
        let empty = CoverageBucket {
            label: "empty".into(),
            cells: 0,
            covered: 0,
        };
        assert!(!empty.flagged(0.95));
    }

    #[test]
    fn shrunken_variance_is_flagged() {
        // Run a genuine workload, then shrink every interval to a tenth of
        // its width around the point estimate: coverage must collapse and
        // the audit must flag it.
        let view = view();
        let system = UniformAqp::build(&view, 0.2, 7).unwrap();
        let profile = DatasetProfile::new(&view, &["rev"], &[], 100);
        let cfg = QueryGenConfig {
            grouping_columns: 1,
            aggregate: WorkloadAggregate::Count,
            seed: 11,
            ..QueryGenConfig::default()
        };
        let source = DataSource::Wide(&view);
        let mut audit = CoverageAudit::new();
        for query in generate_queries(&profile, &cfg, 80) {
            let exact = exact_answer_threaded(&source, &query, 1).unwrap();
            let mut approx = system.answer(&query, 0.95).unwrap();
            for group in &mut approx.groups {
                for value in &mut group.values {
                    let mid = (value.ci.lo + value.ci.hi) / 2.0;
                    let half = (value.ci.hi - value.ci.lo) / 20.0;
                    value.ci.lo = mid - half;
                    value.ci.hi = mid + half;
                }
            }
            audit.record(&query, &approx, &exact);
        }
        let report = audit.report(0.95);
        assert!(report.overall.cells >= 100, "workload produced too few cells");
        assert!(
            report.overall.flagged(0.95),
            "shrunken intervals must be flagged: observed {:.3}",
            report.overall.observed()
        );
        assert!(!report.flagged_buckets().is_empty());
    }

    #[test]
    fn exact_and_unbounded_cells_are_excluded() {
        use aqp_core::{ApproxGroup, ApproxValue};
        use aqp_sampling::Estimate;
        use std::collections::HashMap;

        let query = Query::builder()
            .aggregate(aqp_query::AggExpr::count("cnt"))
            .group_by("cat")
            .build()
            .unwrap();
        let key = vec![aqp_storage::Value::from("a")];
        let mut per_group = HashMap::new();
        per_group.insert(key.clone(), 10.0);
        let mut rows = HashMap::new();
        rows.insert(key.clone(), 10u64);
        let exact = ExactAnswer {
            per_agg: vec![per_group],
            rows_per_group: rows,
            view_rows: 10,
            elapsed: std::time::Duration::ZERO,
        };

        let make = |estimate: Estimate, lo: f64, hi: f64| ApproxAnswer {
            group_names: vec!["cat".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![ApproxGroup {
                key: key.clone(),
                values: vec![ApproxValue {
                    estimate,
                    ci: ConfidenceInterval {
                        lo,
                        hi,
                        confidence: 0.95,
                    },
                }],
            }],
            ..ApproxAnswer::default()
        };

        let mut audit = CoverageAudit::new();
        audit.record(&query, &make(Estimate::exact(10.0), 10.0, 10.0), &exact);
        audit.record(
            &query,
            &make(
                Estimate::with_variance(10.0, f64::INFINITY),
                f64::NEG_INFINITY,
                f64::INFINITY,
            ),
            &exact,
        );
        audit.record(
            &query,
            &make(Estimate::with_variance(9.0, 4.0), 5.0, 13.0),
            &exact,
        );
        let report = audit.report(0.95);
        assert_eq!(report.exact_cells, 1);
        assert_eq!(report.unbounded_cells, 1);
        assert_eq!(report.overall.cells, 1);
        assert_eq!(report.overall.covered, 1);
    }

    #[test]
    fn deciles_partition_cells_and_json_shape_holds() {
        let mut audit = CoverageAudit::new();
        // Synthesise 50 cells with distinct group sizes directly.
        for i in 0..50u64 {
            audit.cells.push(CoverageCell {
                func: AggFunc::Count,
                group_rows: i + 1,
                covered: i % 20 != 0,
            });
        }
        audit.queries = 5;
        let report = audit.report(0.95);
        assert_eq!(report.per_decile.len(), 10);
        let decile_cells: u64 = report.per_decile.iter().map(|b| b.cells).sum();
        assert_eq!(decile_cells, report.overall.cells);
        // Smallest groups land in the first decile.
        assert!(report.per_decile[0].label.contains("rows 1-5"));

        let json = report.to_json();
        let value = aqp_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(value.get("queries").and_then(|v| v.as_f64()), Some(5.0));
        let funcs = value.get("per_function").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(funcs.len(), 1);
        assert_eq!(
            funcs[0].get("label").and_then(|v| v.as_str()),
            Some("COUNT")
        );
        for k in ["cells", "covered", "observed", "ci_lo", "ci_hi"] {
            assert!(funcs[0].get(k).and_then(|v| v.as_f64()).is_some(), "{k}");
        }
        assert!(funcs[0].get("flagged").and_then(|v| v.as_bool()).is_some());
        assert_eq!(
            value.get("per_decile").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(10)
        );
    }

    #[test]
    fn run_calibration_covers_all_three_functions() {
        let view = view();
        let system = UniformAqp::build(&view, 0.25, 3).unwrap();
        let profile = DatasetProfile::new(&view, &["rev"], &[], 100);
        let cfg = CalibrationConfig {
            queries_per_function: 5,
            ..CalibrationConfig::default()
        };
        let source = DataSource::Wide(&view);
        let report = run_calibration(&system, &source, &profile, &cfg).unwrap();
        assert_eq!(report.queries, 15);
        let labels: Vec<&str> = report.per_function.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, ["COUNT", "SUM", "AVG"]);
        assert!(report.overall.cells > 0);
    }
}
