//! Per-run observability report: the accuracy summary of a CLI
//! `workload --trace` run, as one JSON document. The run's traces and
//! metrics snapshot go to their own files beside it.

use crate::harness::EvalSummary;
use aqp_obs::json::Value;

/// Render the observability report for one workload run as a JSON
/// document, `{"summary": {...}}`: the averaged accuracy and timing
/// metrics of the run and its per-tier answer counts.
pub fn obs_report_json(summary: &EvalSummary) -> String {
    let t = &summary.tiers;
    let tiers = Value::object([
        ("primary", t.primary.into()),
        ("degraded", t.degraded.into()),
        ("overall", t.overall.into()),
        ("exact", t.exact.into()),
        ("partial", t.partial.into()),
    ]);
    let summary = Value::object([
        ("queries", summary.queries.into()),
        ("rel_err", summary.rel_err.into()),
        ("pct_groups", summary.pct_groups.into()),
        ("sq_rel_err", summary.sq_rel_err.into()),
        ("speedup", summary.speedup.into()),
        ("approx_ms", summary.approx_ms.into()),
        ("exact_ms", summary.exact_ms.into()),
        ("tiers", tiers),
    ]);
    Value::object([("summary", summary)]).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_holds_the_summary_only() {
        let summary = EvalSummary {
            queries: 2,
            rel_err: 0.125,
            tiers: aqp_core::TierCounts {
                primary: 1,
                exact: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(
            obs_report_json(&summary),
            "{\"summary\":{\"queries\":2,\"rel_err\":0.125,\"pct_groups\":0,\"sq_rel_err\":0,\
             \"speedup\":0,\"approx_ms\":0,\"exact_ms\":0,\"tiers\":{\"primary\":1,\
             \"degraded\":0,\"overall\":0,\"exact\":1,\"partial\":0}}}"
        );
    }
}
