//! Shared runtime machinery: execute a query against several sample-table
//! strata and merge the per-group tallies into one approximate answer.
//!
//! Every AQP system in this crate reduces to this shape at runtime — a
//! UNION ALL over differently-weighted strata (paper Section 4.2.2) —
//! differing only in which strata they assemble and which [`Design`] each
//! group's answer has. The resilience ladder's exact rung is one more: a
//! single part over the base view, cut by the row budget.

use crate::answer::{state_to_estimate, ApproxAnswer, ApproxGroup, ApproxValue};
use crate::colscan::KeyCode;
use crate::error::AqpResult;
use aqp_query::{
    run_scans, AggFunc, DataSource, ExecOptions, PlanGroups, PreparedScan, Query, Weighting,
};
use aqp_sampling::{Design, Estimate};
use aqp_storage::{BitSet, Table};

/// One stratum of a rewritten query plan.
pub(crate) struct Part<'a> {
    /// The sample table to scan.
    pub table: &'a Table,
    /// Bitmask exclusion filter (rows intersecting it are skipped); only
    /// valid for tables carrying a bitmask column.
    pub mask: Option<BitSet>,
    /// Row weighting for this stratum.
    pub weighting: Weighting<'a>,
    /// Scan at most this many rows (the exact rung's row budget).
    pub row_limit: Option<usize>,
    /// Stratum kind for per-operator attribution (`small-group`,
    /// `overall`, `outlier`, `stratified`, or `base`).
    pub stratum: &'static str,
}

impl<'a> Part<'a> {
    /// A whole-table stratum at `weighting`, optionally masked.
    pub(crate) fn new(
        table: &'a Table,
        mask: Option<BitSet>,
        weighting: Weighting<'a>,
        stratum: &'static str,
    ) -> Self {
        Part {
            table,
            mask,
            weighting,
            row_limit: None,
            stratum,
        }
    }
}

/// Execute every part and merge the tallies per group, forming estimates
/// and confidence intervals: the one place any system turns scans into an
/// [`ApproxAnswer`]. `design` names, per group key given as one
/// `(code, is_null)` digit per group column (the plan's shared codes, see
/// [`PlanGroups::for_each_group`]), the [`Design`] of that group's answer:
/// [`Design::Exact`] where every row of the group comes from a weight-1
/// part, the plan's sampled design otherwise. The morsels of all parts run
/// in one scheduling round on up to `threads` workers; the answer is
/// bit-identical at any value (each part folds its own morsels in morsel
/// order, see `aqp_query::parallel`), and strata are always merged in
/// plan order — on group *codes*
/// ([`PlanGroups`]); a key is decoded once, here, when its group is
/// finalised. Groups come out in key order (`Value`'s `Ord` on the keys),
/// decided on the codes before any key is decoded
/// ([`PlanGroups::for_each_group`]), so the wire writes an answer as it
/// stands. `rows_scanned` and `partial` come from the scans: a part cut
/// short by its row limit makes the answer partial.
pub(crate) fn answer_from_parts(
    query: &Query,
    parts: &[Part<'_>],
    confidence: f64,
    threads: usize,
    design: &dyn Fn(&[KeyCode]) -> Design,
) -> AqpResult<ApproxAnswer> {
    let scans = parts
        .iter()
        .map(|part| {
            let opts = ExecOptions {
                weight: part.weighting,
                bitmask_exclude: part.mask.as_ref(),
                row_limit: part.row_limit,
                ..ExecOptions::default()
            };
            PreparedScan::new(&DataSource::Wide(part.table), query, &opts)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let partials = run_scans(&scans, threads.max(1), None)?;

    let mut merged = PlanGroups::new(query, &scans)?;
    let (mut rows_scanned, mut partial) = (0usize, false);
    for ((part, scan), partials) in parts.iter().zip(scans).zip(partials) {
        // Label the scan's profile with this stratum's plan position; its
        // rows_in is the scan's rows_scanned, so the per-operator rows
        // reconcile with the answer's by construction.
        let _ctx = aqp_obs::profile::scan_context(aqp_obs::ScanContext {
            table: part.table.name(),
            stratum: part.stratum,
            weight: match part.weighting {
                Weighting::Unweighted => 1.0,
                Weighting::Constant(w) => w,
                Weighting::PerRow(_) => 0.0,
            },
        });
        let scanned = scan.finish(partials);
        rows_scanned += scanned.rows_scanned;
        partial |= scanned.truncated;
        merged.absorb(scanned);
    }

    let _finalize_span = aqp_obs::span("plan.finalize");
    let mut groups = Vec::with_capacity(merged.num_groups());
    merged.for_each_group(|digits, key, states| {
        let design = design(digits);
        let values = query
            .aggregates
            .iter()
            .zip(states)
            .map(|(agg, state)| {
                let estimate = match agg.func {
                    // Only the exact rung serves MIN/MAX. An extremum over
                    // a truncated scan bounds nothing about the unseen
                    // rows: infinite variance keeps the interval honest.
                    AggFunc::Min | AggFunc::Max => {
                        let v = if agg.func == AggFunc::Min { state.min } else { state.max };
                        let variance = if design == Design::Exact { 0.0 } else { f64::INFINITY };
                        Estimate::new(v, variance, design, state.sampled_rows)
                    }
                    // No estimate (e.g. AVG over a group whose sampled rows
                    // were all NULL): report value 0 with infinite variance
                    // so the interval is honest about knowing nothing,
                    // instead of a confidently-zero answer.
                    func => state_to_estimate(func, state, design)
                        .unwrap_or_else(|| Estimate::with_variance(0.0, f64::INFINITY)),
                };
                ApproxValue {
                    estimate,
                    ci: estimate.confidence_interval(confidence),
                }
            })
            .collect();
        groups.push(ApproxGroup { key, values });
    });

    Ok(ApproxAnswer {
        group_names: query.group_by.clone(),
        agg_aliases: query.aggregates.iter().map(|a| a.alias.clone()).collect(),
        groups,
        rows_scanned,
        partial,
        ..ApproxAnswer::default()
    })
}

#[cfg(test)]
mod tests {
    use crate::congress::{BasicCongress, Congress};
    use crate::multilevel::{MultiLevelConfig, MultiLevelSampler};
    use crate::outlier::OutlierIndex;
    use crate::resilience::ResilientSystem;
    use crate::smallgroup::{SmallGroupConfig, SmallGroupSampler};
    use crate::system::AqpSystem;
    use crate::uniform::UniformAqp;
    use aqp_query::{execute, AggExpr, DataSource, ExecOptions, Query};
    use aqp_sampling::Design;
    use aqp_storage::{DataType, SchemaBuilder, Table, Value};

    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("h", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..600 {
            let g: Value = if i % 50 == 0 {
                format!("rare{i}").into()
            } else {
                ["a", "b"][i % 2].into()
            };
            t.push_row(&[g, format!("h{}", i % 7).into(), (i as f64).into()])
                .unwrap();
        }
        t
    }

    /// Every string column of `tables` holds `view`'s dictionary.
    fn assert_shared<'t>(view: &Table, tables: impl IntoIterator<Item = &'t Table>, what: &str) {
        for table in tables {
            for (col, view_col) in table.columns().iter().zip(view.columns()) {
                if let (Some((_, a)), Some((_, b))) = (col.as_utf8(), view_col.as_utf8()) {
                    assert!(std::ptr::eq(a, b), "{what}: {}", table.name());
                }
            }
        }
    }

    #[test]
    fn every_sampler_plans_on_its_views_dictionaries() {
        let v = view();
        let cols = ["g".to_owned(), "h".to_owned()];
        let sgs = SmallGroupSampler::build(&v, SmallGroupConfig::with_rates(0.1, 0.5)).unwrap();
        assert_shared(&v, sgs.tables(), "small group");
        assert_shared(
            &v,
            [&UniformAqp::build(&v, 0.1, 1).unwrap().sample],
            "uniform",
        );
        assert_shared(
            &v,
            [&BasicCongress::build(&v, &cols, 60, 1).unwrap().sample],
            "basic congress",
        );
        assert_shared(
            &v,
            [&Congress::build(&v, &cols, 60, 1).unwrap().sample],
            "congress",
        );
        let outlier = OutlierIndex::build(&v, "x", 10, 0.1, 1).unwrap();
        assert_shared(&v, [&outlier.outliers, &outlier.sample], "outlier");
        let multi = MultiLevelSampler::build(&v, MultiLevelConfig::default()).unwrap();
        assert_shared(
            &v,
            multi
                .entries
                .iter()
                .map(|e| &e.table)
                .chain([&multi.overall]),
            "multilevel",
        );
    }

    /// Every estimate carries its design and n: an SGS answer's exact cells
    /// have no sampled rows, a sampled cell's n is its group's row count in
    /// the overall sample, and a budget-capped scan of the view is a
    /// prefix whose n is the rows it read.
    #[test]
    fn estimates_carry_their_design_and_sampled_rows() {
        let v = view();
        let q = Query::builder()
            .count()
            .sum("x")
            .aggregate(AggExpr::avg("x", "avg_x"))
            .group_by("g")
            .build()
            .unwrap();
        let sgs = SmallGroupSampler::build(&v, SmallGroupConfig::with_rates(0.1, 0.5)).unwrap();
        let [overall] = &sgs.overall[..] else { panic!("one overall part") };
        let count_by_g = Query::builder().count().group_by("g").build().unwrap();
        let opts = ExecOptions::default();
        let in_overall = execute(&DataSource::Wide(&overall.table), &count_by_g, &opts).unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let (mut exact, mut sampled) = (0, 0);
        for g in &ans.groups {
            for value in &g.values {
                let e = value.estimate;
                if value.is_exact() {
                    exact += 1;
                    assert_eq!((e.design, e.rows), (Design::Exact, 0), "{:?}", g.key);
                } else {
                    sampled += 1;
                    let n = in_overall.group(&g.key).map_or(0, |o| o.aggs[0].rows);
                    assert_eq!((e.design, e.rows), (Design::Scaled, n), "{:?}", g.key);
                }
            }
        }
        assert!(exact > 0 && sampled > 0, "{exact} exact and {sampled} sampled cells");

        let count = Query::builder().count().group_by("g").build().unwrap();
        let capped = ResilientSystem::exact_only(v.clone()).with_row_budget(100);
        let ans = capped.answer(&count, 0.95).unwrap();
        assert!(ans.partial);
        let cells = ans.groups.iter().map(|g| g.values[0].estimate);
        assert!(cells.clone().all(|e| e.design == Design::Prefix));
        assert_eq!(cells.map(|e| e.rows).sum::<u64>(), 100);

        let full = ResilientSystem::exact_only(v).answer(&count, 0.95).unwrap();
        let cells = full.groups.iter().map(|g| g.values[0].estimate);
        assert!(cells.clone().all(|e| (e.design, e.rows) == (Design::Exact, 0)));
    }
}
