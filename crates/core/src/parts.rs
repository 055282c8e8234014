//! Shared runtime machinery: execute a query against several sample-table
//! strata and merge the per-group tallies into one approximate answer.
//!
//! Every AQP system in this crate reduces to this shape at runtime — a
//! UNION ALL over differently-weighted strata (paper Section 4.2.2) —
//! differing only in which strata they assemble and how exactness is
//! decided per group.

use crate::answer::{state_to_estimate, ApproxAnswer, ApproxGroup, ApproxValue};
use crate::error::AqpResult;
use aqp_query::{run_scans, DataSource, ExecOptions, PlanGroups, PreparedScan, Query, Weighting};
use aqp_sampling::Estimate;
use aqp_storage::{BitSet, Table, Value};

/// One stratum of a rewritten query plan.
pub(crate) struct Part<'a> {
    /// The sample table to scan.
    pub table: &'a Table,
    /// Bitmask exclusion filter (rows intersecting it are skipped); only
    /// valid for tables carrying a bitmask column.
    pub mask: Option<BitSet>,
    /// Row weighting for this stratum.
    pub weighting: PartWeight<'a>,
    /// Stratum kind for per-operator attribution (`small-group`,
    /// `overall`, `outlier`, `stratified`, or `base`).
    pub stratum: &'static str,
}

/// Stratum weighting: a constant inverse rate, or per-row weights.
pub(crate) enum PartWeight<'a> {
    Constant(f64),
    PerRow(&'a [f64]),
}

/// Execute every part and merge the tallies per group, forming estimates
/// and confidence intervals. `is_exact` decides, per decoded group key,
/// whether the answer for that group is exact. The morsels of all parts
/// run in one scheduling round on up to `threads` workers; the answer is
/// bit-identical at any value (each part folds its own morsels in morsel
/// order, see `aqp_query::parallel`), and strata are always merged in
/// plan order — on group *codes* ([`PlanGroups`]); a key is decoded once,
/// here, when its group is finalised. Groups come out first-seen in plan
/// order (the first part's groups in ascending first row, then each
/// later part's new ones), the same on every call.
pub(crate) fn answer_from_parts(
    query: &Query,
    parts: &[Part<'_>],
    confidence: f64,
    threads: usize,
    is_exact: &dyn Fn(&[Value]) -> bool,
) -> AqpResult<ApproxAnswer> {
    let scans = parts
        .iter()
        .map(|part| {
            let opts = ExecOptions {
                weight: match part.weighting {
                    PartWeight::Constant(w) => Weighting::Constant(w),
                    PartWeight::PerRow(ws) => Weighting::PerRow(ws),
                },
                bitmask_exclude: part.mask.as_ref(),
                ..ExecOptions::default()
            };
            PreparedScan::new(&DataSource::Wide(part.table), query, &opts)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let partials = run_scans(&scans, threads.max(1), None)?;

    let mut merged = PlanGroups::new(query, &scans)?;
    let mut rows_scanned = 0usize;
    for ((part, scan), partials) in parts.iter().zip(scans).zip(partials) {
        rows_scanned += part.table.num_rows();
        // Label the scan's profile with this stratum's plan position;
        // every part scans table.num_rows() rows, so the per-operator
        // rows_in reconcile with `rows_scanned` by construction.
        let _ctx = aqp_obs::profile::scan_context(aqp_obs::ScanContext {
            table: part.table.name(),
            stratum: part.stratum,
            weight: match part.weighting {
                PartWeight::Constant(w) => w,
                PartWeight::PerRow(_) => 0.0,
            },
        });
        merged.absorb(scan.finish(partials));
    }

    let _finalize_span = aqp_obs::span("plan.finalize");
    let mut groups = Vec::with_capacity(merged.num_groups());
    for (key, states) in merged.groups() {
        let exact = is_exact(&key);
        let values = query
            .aggregates
            .iter()
            .zip(states)
            .map(|(agg, state)| {
                // No estimate (e.g. AVG over a group whose sampled rows
                // were all NULL): report value 0 with infinite variance so
                // the interval is honest about knowing nothing, instead of
                // a confidently-zero answer.
                let estimate = state_to_estimate(agg.func, state, exact)
                    .unwrap_or_else(|| Estimate::with_variance(0.0, f64::INFINITY));
                ApproxValue {
                    estimate,
                    ci: estimate.confidence_interval(confidence),
                }
            })
            .collect();
        groups.push(ApproxGroup { key, values });
    }

    Ok(ApproxAnswer {
        group_names: query.group_by.clone(),
        agg_aliases: query.aggregates.iter().map(|a| a.alias.clone()).collect(),
        groups,
        rows_scanned,
        ..ApproxAnswer::default()
    })
}

#[cfg(test)]
mod tests {
    use crate::congress::{BasicCongress, Congress};
    use crate::multilevel::{MultiLevelConfig, MultiLevelSampler};
    use crate::outlier::OutlierIndex;
    use crate::smallgroup::{SmallGroupConfig, SmallGroupSampler};
    use crate::uniform::UniformAqp;
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
}
