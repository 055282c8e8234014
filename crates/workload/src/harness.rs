//! Experiment harness: exact answers, per-query evaluation, averaging.

use crate::metrics::{metric_report, MetricReport};
use aqp_core::{ApproxAnswer, AqpSystem, ServingTier, TierCounts};
use aqp_query::{execute, AggFunc, DataSource, ExecOptions, Query};
use aqp_storage::Value;
use std::collections::HashMap;
use std::time::Instant;

/// The exact answer to a query, in metric-ready form.
#[derive(Debug, Clone)]
pub struct ExactAnswer {
    /// Per aggregate expression: group key → exact value.
    pub per_agg: Vec<HashMap<Vec<Value>, f64>>,
    /// Group key → number of tuples in the group.
    pub rows_per_group: HashMap<Vec<Value>, u64>,
    /// Rows in the queried view (for per-group-selectivity bucketing).
    pub view_rows: usize,
    /// Wall-clock time of the exact execution.
    pub elapsed: std::time::Duration,
}

impl ExactAnswer {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.rows_per_group.len()
    }

    /// Per-group selectivity: mean group size as a fraction of the view
    /// (the x-axis of the paper's Figure 5).
    pub fn per_group_selectivity(&self) -> f64 {
        if self.rows_per_group.is_empty() || self.view_rows == 0 {
            return 0.0;
        }
        let total: u64 = self.rows_per_group.values().sum();
        total as f64 / self.rows_per_group.len() as f64 / self.view_rows as f64
    }
}

/// Execute `query` exactly against `source`.
pub fn exact_answer(source: &DataSource<'_>, query: &Query) -> aqp_query::QueryResult<ExactAnswer> {
    exact_answer_threaded(source, query, 1)
}

/// Execute `query` exactly against `source` with `threads` scan workers.
/// The answer is bit-identical to the serial one (morsel-order merge);
/// only [`ExactAnswer::elapsed`] changes.
pub fn exact_answer_threaded(
    source: &DataSource<'_>,
    query: &Query,
    threads: usize,
) -> aqp_query::QueryResult<ExactAnswer> {
    let opts = ExecOptions {
        parallelism: threads.max(1),
        ..ExecOptions::default()
    };
    let start = Instant::now();
    let out = execute(source, query, &opts)?;
    let elapsed = start.elapsed();

    let mut per_agg: Vec<HashMap<Vec<Value>, f64>> =
        vec![HashMap::with_capacity(out.groups.len()); query.aggregates.len()];
    let mut rows_per_group = HashMap::with_capacity(out.groups.len());
    for g in &out.groups {
        // Skip the synthetic empty group of an ungrouped query over zero
        // matching rows — it has no counterpart in an approximate answer.
        let group_rows = g.aggs.first().map_or(0, |a| a.rows);
        if query.group_by.is_empty() && group_rows == 0 {
            continue;
        }
        rows_per_group.insert(g.key.clone(), group_rows);
        for (i, (agg, state)) in query.aggregates.iter().zip(&g.aggs).enumerate() {
            let value = match agg.func {
                AggFunc::Count => state.sum_w,
                AggFunc::Sum => state.sum_wx,
                AggFunc::Avg => {
                    if state.sum_w > 0.0 {
                        state.sum_wx / state.sum_w
                    } else {
                        0.0
                    }
                }
                AggFunc::Min => state.min,
                AggFunc::Max => state.max,
            };
            per_agg[i].insert(g.key.clone(), value);
        }
    }
    Ok(ExactAnswer {
        per_agg,
        rows_per_group,
        view_rows: source.num_rows(),
        elapsed,
    })
}

/// Extract the per-group estimates for aggregate `agg_idx` from an
/// approximate answer.
pub fn approx_map(answer: &ApproxAnswer, agg_idx: usize) -> HashMap<Vec<Value>, f64> {
    answer
        .groups
        .iter()
        .map(|g| (g.key.clone(), g.values[agg_idx].value()))
        .collect()
}

/// Evaluation of one query against one AQP system.
#[derive(Debug, Clone)]
pub struct QueryEval {
    /// Accuracy metrics for the first aggregate expression.
    pub metrics: MetricReport,
    /// Per-group selectivity of the exact answer.
    pub per_group_selectivity: f64,
    /// Exact execution time.
    pub exact_time: std::time::Duration,
    /// Approximate execution time.
    pub approx_time: std::time::Duration,
    /// Sample rows the system scanned.
    pub rows_scanned: usize,
    /// Which degradation-ladder rung served the answer (always
    /// [`ServingTier::Primary`] for non-resilient systems).
    pub tier: ServingTier,
    /// Whether a row budget truncated the answer.
    pub partial: bool,
}

impl QueryEval {
    /// Exact / approximate wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        let approx = self.approx_time.as_secs_f64();
        if approx <= 0.0 {
            f64::INFINITY
        } else {
            self.exact_time.as_secs_f64() / approx
        }
    }
}

/// Averaged evaluation over a batch of queries.
#[derive(Debug, Clone, Default)]
pub struct EvalSummary {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Mean RelErr (Definition 4.2).
    pub rel_err: f64,
    /// Mean PctGroups (Definition 4.1).
    pub pct_groups: f64,
    /// Mean SqRelErr (Definition 4.3).
    pub sq_rel_err: f64,
    /// Mean exact-over-approximate speedup.
    pub speedup: f64,
    /// Mean approximate query time in milliseconds.
    pub approx_ms: f64,
    /// Mean exact query time in milliseconds.
    pub exact_ms: f64,
    /// How many answers each degradation-ladder rung served.
    pub tiers: TierCounts,
}

/// Evaluate one query: run it exactly against `exact_source` and
/// approximately against `system`.
pub fn evaluate_query(
    system: &dyn AqpSystem,
    exact_source: &DataSource<'_>,
    query: &Query,
    confidence: f64,
) -> Result<QueryEval, Box<dyn std::error::Error>> {
    let exact = exact_answer(exact_source, query)?;
    let start = Instant::now();
    let approx = system.answer(query, confidence)?;
    let approx_time = start.elapsed();

    let metrics = metric_report(&exact.per_agg[0], &approx_map(&approx, 0));
    Ok(QueryEval {
        metrics,
        per_group_selectivity: exact.per_group_selectivity(),
        exact_time: exact.elapsed,
        approx_time,
        rows_scanned: approx.rows_scanned,
        tier: approx.tier,
        partial: approx.partial,
    })
}

/// Evaluate a batch of queries and average the metrics.
pub fn evaluate_queries(
    system: &dyn AqpSystem,
    exact_source: &DataSource<'_>,
    queries: &[Query],
    confidence: f64,
) -> Result<EvalSummary, Box<dyn std::error::Error>> {
    Ok(evaluate_queries_traced(system, exact_source, queries, confidence, false)?.0)
}

/// Like [`evaluate_queries`], but when `trace` is set every query is run
/// through [`AqpSystem::answer_traced`] and the per-query
/// [`aqp_obs::QueryTrace`] records are returned alongside the summary.
/// With `trace` off the returned vector is empty and the evaluation path
/// is identical to [`evaluate_queries`].
pub fn evaluate_queries_traced(
    system: &dyn AqpSystem,
    exact_source: &DataSource<'_>,
    queries: &[Query],
    confidence: f64,
    trace: bool,
) -> Result<(EvalSummary, Vec<aqp_obs::QueryTrace>), Box<dyn std::error::Error>> {
    let mut summary = EvalSummary::default();
    let mut traces = Vec::new();
    for q in queries {
        let exact = exact_answer(exact_source, q)?;
        let start = Instant::now();
        let approx = if trace {
            let (answer, t) = system.answer_traced(q, confidence)?;
            traces.push(t);
            answer
        } else {
            system.answer(q, confidence)?
        };
        let approx_time = start.elapsed();
        if trace {
            if let Some(t) = traces.last_mut() {
                t.total_ms = approx_time.as_secs_f64() * 1e3;
            }
        }

        let metrics = metric_report(&exact.per_agg[0], &approx_map(&approx, 0));
        let eval = QueryEval {
            metrics,
            per_group_selectivity: exact.per_group_selectivity(),
            exact_time: exact.elapsed,
            approx_time,
            rows_scanned: approx.rows_scanned,
            tier: approx.tier,
            partial: approx.partial,
        };
        summary.queries += 1;
        summary.rel_err += eval.metrics.rel_err;
        summary.pct_groups += eval.metrics.pct_groups;
        summary.sq_rel_err += eval.metrics.sq_rel_err;
        summary.speedup += eval.speedup();
        summary.approx_ms += eval.approx_time.as_secs_f64() * 1e3;
        summary.exact_ms += eval.exact_time.as_secs_f64() * 1e3;
        match eval.tier {
            ServingTier::Primary => summary.tiers.primary += 1,
            ServingTier::DegradedPrimary => summary.tiers.degraded += 1,
            ServingTier::Overall => summary.tiers.overall += 1,
            ServingTier::Exact => summary.tiers.exact += 1,
        }
        if eval.partial {
            summary.tiers.partial += 1;
        }
    }
    let n = summary.queries.max(1) as f64;
    summary.rel_err /= n;
    summary.pct_groups /= n;
    summary.sq_rel_err /= n;
    summary.speedup /= n;
    summary.approx_ms /= n;
    summary.exact_ms /= n;
    Ok((summary, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_core::{SmallGroupConfig, SmallGroupSampler, UniformAqp};
    use aqp_query::Expr;
    use aqp_storage::{DataType, SchemaBuilder, Table};

    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..900 {
            t.push_row(&["big".into(), (i as f64).into()]).unwrap();
        }
        for i in 0..100 {
            t.push_row(&["small".into(), (i as f64).into()]).unwrap();
        }
        t
    }

    #[test]
    fn exact_answer_contents() {
        let v = view();
        let q = Query::builder().count().sum("x").group_by("g").build().unwrap();
        let exact = exact_answer(&DataSource::Wide(&v), &q).unwrap();
        assert_eq!(exact.num_groups(), 2);
        assert_eq!(
            exact.per_agg[0][&vec![Value::Utf8("big".into())]],
            900.0
        );
        assert_eq!(exact.rows_per_group[&vec![Value::Utf8("small".into())]], 100);
        // Selectivity: mean group size 500 over 1000 rows.
        assert!((exact.per_group_selectivity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ungrouped_empty_result_handled() {
        let v = view();
        let q = Query::builder()
            .count()
            .filter(Expr::eq("g", "nothing"))
            .build()
            .unwrap();
        let exact = exact_answer(&DataSource::Wide(&v), &q).unwrap();
        assert_eq!(exact.num_groups(), 0);
        assert_eq!(exact.per_group_selectivity(), 0.0);
    }

    #[test]
    fn evaluate_full_rate_systems_are_perfect() {
        let v = view();
        let u = UniformAqp::build(&v, 1.0, 1).unwrap();
        let q = Query::builder().count().group_by("g").build().unwrap();
        let eval = evaluate_query(&u, &DataSource::Wide(&v), &q, 0.95).unwrap();
        assert_eq!(eval.metrics.rel_err, 0.0);
        assert_eq!(eval.metrics.pct_groups, 0.0);
        assert_eq!(eval.metrics.spurious_groups, 0);
        assert!(eval.speedup() > 0.0);
    }

    #[test]
    fn evaluate_batch_averages() {
        let v = view();
        let sgs = SmallGroupSampler::build(
            &v,
            SmallGroupConfig {
                base_rate: 0.2,
                small_group_fraction: 0.11,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let queries = vec![
            Query::builder().count().group_by("g").build().unwrap(),
            Query::builder().count().build().unwrap(),
        ];
        let summary =
            evaluate_queries(&sgs, &DataSource::Wide(&v), &queries, 0.95).unwrap();
        assert_eq!(summary.queries, 2);
        assert!(summary.rel_err >= 0.0 && summary.rel_err < 0.5);
        assert!(summary.approx_ms >= 0.0);
    }

    #[test]
    fn tier_counts_in_summary() {
        use aqp_core::ResilientSystem;
        let v = view();
        let sgs = SmallGroupSampler::build(
            &v,
            SmallGroupConfig {
                base_rate: 0.2,
                small_group_fraction: 0.11,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let sys = ResilientSystem::from_sampler(sgs).with_view(v.clone());
        let queries = vec![
            Query::builder().count().group_by("g").build().unwrap(),
            Query::builder().count().build().unwrap(),
        ];
        let summary =
            evaluate_queries(&sys, &DataSource::Wide(&v), &queries, 0.95).unwrap();
        assert_eq!(summary.tiers.total(), 2);
        assert_eq!(summary.tiers.primary, 2, "healthy system serves all primary");
        assert_eq!(summary.tiers.partial, 0);
    }

    #[test]
    fn small_group_beats_uniform_on_small_groups() {
        // The headline qualitative claim, checked end-to-end: with many
        // tiny groups, at equal sample budget, SGS answers them exactly
        // while uniform sampling misses most of them. Averaged over seeds
        // so the comparison is statistical, not luck.
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .build()
            .unwrap();
        let mut v = Table::empty("v", schema);
        for _ in 0..960 {
            v.push_row(&["big".into()]).unwrap();
        }
        for i in 0..40 {
            v.push_row(&[format!("tiny{i}").into()]).unwrap();
        }
        let q = Query::builder().count().group_by("g").build().unwrap();

        let mut sgs_err = 0.0;
        let mut uni_err = 0.0;
        for seed in 0..8 {
            let sgs = SmallGroupSampler::build(
                &v,
                SmallGroupConfig {
                    base_rate: 0.02,
                    small_group_fraction: 0.05,
                    seed,
                    ..Default::default()
                },
            )
            .unwrap();
            let sgs_eval = evaluate_query(&sgs, &DataSource::Wide(&v), &q, 0.95).unwrap();
            sgs_err += sgs_eval.metrics.rel_err;

            // Matched uniform budget: same rows scanned.
            let rate = (sgs.runtime_rows(&q) as f64 / 1000.0).min(1.0);
            let uni = UniformAqp::build(&v, rate, seed).unwrap();
            let uni_eval = evaluate_query(&uni, &DataSource::Wide(&v), &q, 0.95).unwrap();
            uni_err += uni_eval.metrics.rel_err;
        }
        assert!(
            sgs_err < uni_err,
            "SGS total {sgs_err} vs Uniform total {uni_err}"
        );
    }
}
