//! The hash group-by executor.
//!
//! Executes a [`Query`] against a [`DataSource`] in a single scan:
//! compiled-predicate filter → compact group-key extraction → per-group
//! [`AggState`] accumulation. Three features exist specifically for the
//! AQP runtime of the paper:
//!
//! * **weights** ([`Weighting`]) — every row can carry an inverse-sampling-
//!   rate weight (constant for uniform samples, per-row for congress-style
//!   stratified samples); weight 1 gives exact evaluation;
//! * **bitmask exclusion** — rows whose sample-membership bitmask intersects
//!   a given mask are skipped, which is the paper's
//!   `WHERE bitmask & M = 0` double-counting filter (Section 4.2.2);
//! * **morsel-driven parallelism** — every scan is decomposed into
//!   fixed-size morsels whose partial group tables are folded in morsel
//!   order ([`crate::parallel`]), so answers are bit-identical at any
//!   thread count (the caller's thread plus a process-wide pool of parked
//!   helper threads; std only).
//!
//! Every morsel runs through the vectorised kernels (`kernel`):
//! selection vectors, typed columnar filters, and arithmetic group ids.
//! A morsel's partial is a flat group table (`groups`): the
//! keys it touched, as codes, in first-touch order, and one state array.
//! [`PreparedScan::finish`] folds a scan's partials in morsel order into
//! one such table, still coded ([`ScanGroups`]); [`execute`] decodes it
//! into a [`QueryOutput`], a plan of several scans folds the tables on
//! codes first ([`crate::PlanGroups`]) and decodes each surviving key
//! once.
//!
//! The answer is defined row at a time: per morsel, [`AggState::update`]
//! in ascending row order with groups in first-touch order, then the
//! morsel-order fold. The differential suites hold the executor to a
//! row-at-a-time reference written that way (`tests/support/reference.rs`)
//! bit for bit, group order included, on every commit.

use crate::cancel::CancelToken;
use crate::error::{QueryError, QueryResult};
use crate::expr::{compile, CompiledExpr};
use crate::groups::{fold_partials, GroupTable, Groups, RadixPlan, ScanGroups};
use crate::kernel::run_morsel_vectorized;
use crate::output::{AggState, QueryOutput};
use crate::parallel::{run_round, MorselSchedule};
use crate::plan::Query;
use crate::prune::{PruneDecision, PrunePlan};
use crate::source::{DataSource, ResolvedColumn};
use aqp_storage::morsel::{Morsel, MorselIter};
use aqp_storage::{BitSet, DEFAULT_MORSEL_ROWS};
use std::time::Instant;

/// Per-row weighting applied during aggregation.
#[derive(Debug, Clone, Copy)]
pub enum Weighting<'a> {
    /// Every row has weight 1 (exact evaluation, or 100 %-rate strata).
    Unweighted,
    /// Every row has the same weight (inverse of a uniform sampling rate).
    Constant(f64),
    /// `weights[row]` per row (stratified samples with varying rates).
    PerRow(&'a [f64]),
}

/// Whether [`execute`] consults zone maps to skip (or take wholesale)
/// morsels before touching column data. It is set per scan, through
/// [`ExecOptions::pruning`], and by nothing else.
///
/// Pruning never changes the answer — only which work is avoided — and
/// the differential oracle compares the two settings, and each against
/// the row-at-a-time reference, on every commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Skip or take whole blocks wherever the zone maps decide (the
    /// default). A scan without a predicate has nothing to decide.
    #[default]
    Auto,
    /// Every morsel down the ordinary scan path.
    Off,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Row weighting (default: unweighted).
    pub weight: Weighting<'a>,
    /// Skip rows whose bitmask intersects this mask (sample tables only).
    pub bitmask_exclude: Option<&'a BitSet>,
    /// Workers for the scan, the caller's thread included (1 = the caller
    /// alone); the scan gets only the pool's idle helpers, so values above
    /// the core count add no threads. The answer is bit-identical at every
    /// value: morsel boundaries and the merge order of partial states
    /// depend only on the row count and `morsel_rows`.
    pub parallelism: usize,
    /// Stop the scan after this many rows (a per-query budget used by
    /// degraded serving). [`QueryOutput::truncated`] reports whether the
    /// limit actually cut the scan short.
    pub row_limit: Option<usize>,
    /// Rows per scan morsel (default [`DEFAULT_MORSEL_ROWS`]). Changing it
    /// changes float rounding in merged aggregates; it exists as a knob so
    /// tests can force many morsels on small tables. Clamped to ≥ 1.
    pub morsel_rows: usize,
    /// Zone-map block pruning (default [`PruneMode::Auto`]). Never
    /// affects the answer, only which morsels avoid work.
    pub pruning: PruneMode,
    /// Cooperative cancellation token, checked at every morsel claim
    /// point. When `None`, the ambient token installed on this thread via
    /// [`crate::cancel::install`] (if any) applies instead. A tripped
    /// token makes the scan return [`QueryError::Cancelled`] rather than
    /// a partial answer.
    pub cancel: Option<&'a CancelToken>,
}

impl Default for ExecOptions<'static> {
    fn default() -> Self {
        ExecOptions {
            weight: Weighting::Unweighted,
            bitmask_exclude: None,
            parallelism: 1,
            row_limit: None,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            pruning: PruneMode::Auto,
            cancel: None,
        }
    }
}

/// Execute `query` against `source`: prepare the scan, run its morsels
/// in a round of their own, fold them in morsel order, decode the keys.
/// Groups come out in first-touch order (ascending first row).
pub fn execute(
    source: &DataSource<'_>,
    query: &Query,
    opts: &ExecOptions<'_>,
) -> QueryResult<QueryOutput> {
    let scan = PreparedScan::new(source, query, opts)?;
    let mut partials = run_scans(std::slice::from_ref(&scan), opts.parallelism, opts.cancel)?;
    let folded = scan.finish(partials.pop().expect("one scan in, one out"));
    let _finalize_span = aqp_obs::span("query.finalize");
    Ok(QueryOutput {
        group_names: query.group_by.clone(),
        agg_aliases: query.aggregates.iter().map(|a| a.alias.clone()).collect(),
        rows_scanned: folded.rows_scanned,
        truncated: folded.truncated,
        groups: folded.into_groups(),
    })
}

/// One scan, planned: columns resolved, aggregates typed, predicate
/// compiled and lowered onto the zone maps. The first of the three steps
/// [`execute`] is made of — prepare, then per-morsel work in a scheduling
/// round ([`run_scans`]), then the in-order fold ([`PreparedScan::finish`])
/// — split so that a plan of several scans (the UNION ALL over sample
/// tables) can put the morsels of all of them into one round.
pub struct PreparedScan<'a> {
    scan: Scan<'a>,
    prune_plan: Option<PrunePlan>,
    /// Rows the scan covers (the source's, cut by any row limit).
    rows: usize,
    truncated: bool,
    morsel_rows: usize,
    num_aggs: usize,
}

/// What one morsel of a [`PreparedScan`] produced: plain data, so that
/// all profiling bookkeeping happens on the control thread.
struct MorselPartial {
    groups: Groups,
    /// Rows that survived the filters.
    matched: u64,
    elapsed: std::time::Duration,
    decision: PruneDecision,
    /// Zone-map blocks the morsel overlaps (0 without a prune plan).
    blocks: u64,
    rows: u64,
}

/// Every morsel of one scan in morsel order, as [`run_scans`] returns it
/// and [`PreparedScan::finish`] folds it.
pub struct ScanPartials {
    partials: Vec<MorselPartial>,
    schedule: MorselSchedule,
}

/// Run every morsel of every scan in **one** scheduling round on up to
/// `threads` workers ([`run_round`]), returning each scan's partials in
/// morsel order. `cancel` (or, when `None`, the ambient token installed
/// on this thread via [`crate::cancel::install`]) is checked at every
/// morsel claim; once it trips the whole round is abandoned with
/// [`QueryError::Cancelled`] — which morsels ran depends on the OS
/// schedule, so an incomplete set must never be folded into an answer.
pub fn run_scans(
    scans: &[PreparedScan<'_>],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> QueryResult<Vec<ScanPartials>> {
    let token = cancel.cloned().or_else(crate::cancel::current);
    let morsels: Vec<MorselIter> = scans.iter().map(PreparedScan::morsels).collect();
    // Span timers live on this control thread only, bracketing the whole
    // round; worker closures touch no observability state, so
    // instrumentation cannot perturb the morsel-order merge.
    let round = {
        let _span = aqp_obs::span("query.scan");
        run_round(&morsels, threads, token.as_ref(), |scan, m| scans[scan].run_morsel(m))
    };
    if round.cancelled {
        aqp_obs::counter("aqp_query_cancelled_total", &[]).inc();
        // Report *which* condition tripped, not merely whether a deadline
        // existed: an explicit cancel() on a deadline-carrying token is a
        // cancellation, not a timeout (cause() gives Explicit precedence).
        return Err(QueryError::Cancelled {
            deadline: token.as_ref().and_then(|t| t.cause())
                == Some(crate::cancel::CancelCause::Deadline),
        });
    }
    Ok(round
        .results
        .into_iter()
        .zip(round.schedules)
        .map(|(partials, schedule)| ScanPartials { partials, schedule })
        .collect())
}

impl<'a> PreparedScan<'a> {
    /// Plan `query` over `source`. `opts.parallelism` and `opts.cancel`
    /// belong to the scheduling round, not the scan: pass them to
    /// [`run_scans`].
    pub fn new(
        source: &DataSource<'a>,
        query: &Query,
        opts: &ExecOptions<'a>,
    ) -> QueryResult<PreparedScan<'a>> {
        if query.aggregates.is_empty() {
            return Err(QueryError::InvalidQuery("no aggregates".into()));
        }
        if let Weighting::PerRow(ws) = opts.weight {
            if ws.len() != source.num_rows() {
                return Err(QueryError::InvalidQuery(format!(
                    "per-row weights: {} weights for {} rows",
                    ws.len(),
                    source.num_rows()
                )));
            }
        }

        // Resolve group-by columns.
        let group_cols: Vec<ResolvedColumn<'a>> = query
            .group_by
            .iter()
            .map(|name| source.resolve(name))
            .collect::<QueryResult<_>>()?;

        // Resolve each aggregate to its per-scan plan, validating types. The
        // function match and the input-column unwrap happen exactly once here,
        // not once per row in the scan loop.
        let aggs: Vec<AggStep<'a>> = query
            .aggregates
            .iter()
            .map(|agg| match (&agg.column, agg.func.needs_column()) {
                (None, false) => Ok(AggStep::CountStar),
                (Some(name), true) => {
                    let col = source.resolve(name)?;
                    if !col.data_type().is_numeric() {
                        return Err(QueryError::InvalidAggregate {
                            reason: format!(
                                "{}({name}) over non-numeric column of type {}",
                                agg.func,
                                col.data_type()
                            ),
                        });
                    }
                    Ok(AggStep::Column(col))
                }
                (None, true) => Err(QueryError::InvalidAggregate {
                    reason: format!("{} requires a column", agg.func),
                }),
                (Some(_), false) => Err(QueryError::InvalidAggregate {
                    reason: "COUNT(*) takes no column".into(),
                }),
            })
            .collect::<QueryResult<_>>()?;

        // Compile the predicate.
        let predicate = query
            .predicate
            .as_ref()
            .map(|p| compile(p, source))
            .transpose()?;

        // Bitmask exclusion requires the source to actually carry a bitmask.
        let bitmask = match opts.bitmask_exclude {
            Some(mask) => match source.bitmask() {
                Some(col) => Some((col, mask)),
                None => {
                    return Err(QueryError::InvalidQuery(
                        "bitmask filter requested but source has no bitmask column".into(),
                    ))
                }
            },
            None => None,
        };

        let total_rows = source.num_rows();
        let rows = match opts.row_limit {
            Some(limit) => total_rows.min(limit),
            None => total_rows,
        };

        // Lower the predicate onto the source table's zone maps (computing
        // them lazily if the table was built before zone maps existed).
        // Pruning reasons about physical fact/wide-table blocks, so the fact
        // table anchors the star case; dimension-column leaves are opaque.
        let prune_plan = if opts.pruning == PruneMode::Auto {
            let table = match source {
                DataSource::Wide(t) => *t,
                DataSource::Star(s) => s.fact(),
            };
            predicate.as_ref().and_then(|p| PrunePlan::build(p, table))
        } else {
            None
        };

        Ok(PreparedScan {
            scan: Scan {
                radix: RadixPlan::for_columns(&group_cols),
                group_cols,
                aggs,
                predicate,
                bitmask,
                weight: opts.weight,
            },
            prune_plan,
            rows,
            truncated: rows < total_rows,
            morsel_rows: opts.morsel_rows,
            num_aggs: query.aggregates.len(),
        })
    }

    pub(crate) fn group_cols(&self) -> &[ResolvedColumn<'a>] {
        &self.scan.group_cols
    }

    pub(crate) fn num_aggs(&self) -> usize {
        self.num_aggs
    }

    /// The scan's morsel decomposition: a function of its row count and
    /// `morsel_rows` only, never of the thread count.
    fn morsels(&self) -> MorselIter {
        MorselIter::new(self.rows, self.morsel_rows)
    }

    /// The work of one morsel. Every scan — single-threaded ones included
    /// — goes through the same morsel decomposition: a direct whole-range
    /// accumulation would round float sums differently and break the
    /// determinism contract.
    fn run_morsel(&self, m: Morsel) -> MorselPartial {
        let started = Instant::now();
        let num_aggs = self.num_aggs;
        let (decision, blocks) = match &self.prune_plan {
            Some(p) => (p.decide(m.start, m.end), p.blocks(m.start, m.end) as u64),
            None => (PruneDecision::Scan, 0),
        };
        let (groups, matched) = match decision {
            // No row can match: the empty partial is exactly what the
            // kernels return for a fully-filtered morsel, so the merge
            // fold is unchanged bit for bit.
            PruneDecision::SkipAll => (Groups::empty(self.scan.radix.is_some()), 0),
            other => run_morsel_vectorized(
                &self.scan,
                m.start,
                m.end,
                num_aggs,
                other != PruneDecision::TakeAll,
            ),
        };
        MorselPartial {
            groups,
            matched,
            elapsed: started.elapsed(),
            decision,
            blocks,
            rows: (m.end - m.start) as u64,
        }
    }

    /// Fold the scan's partials in morsel order — which is what makes the
    /// result bit-identical at every thread count — and record the scan's
    /// profile (under whatever [`aqp_obs::ScanContext`] is installed). The
    /// keys stay coded: see [`ScanGroups`].
    pub fn finish(self, partials: ScanPartials) -> ScanGroups<'a> {
        let ScanPartials { partials, schedule } = partials;
        let num_aggs = self.num_aggs;
        let kernel = match &self.scan.radix {
            Some(plan) if plan.direct() => "vectorized-dense",
            _ => "vectorized-hash",
        };
        aqp_obs::counter("aqp_rows_scanned_total", &[]).inc_by(self.rows as u64);
        aqp_obs::counter("aqp_query_scans_total", &[]).inc();
        let mut rows_out = 0u64;
        let mut morsel_ns = Vec::with_capacity(partials.len());
        let mut partial_bytes = 0u64;
        let mut blocks_skipped = 0u64;
        let mut blocks_taken = 0u64;
        let mut blocks_scanned = 0u64;
        let mut rows_pruned = 0u64;
        let mut tables = Vec::with_capacity(partials.len());
        for partial in partials {
            rows_out += partial.matched;
            morsel_ns.push(u64::try_from(partial.elapsed.as_nanos()).unwrap_or(u64::MAX));
            partial_bytes += partial.groups.bytes();
            match partial.decision {
                PruneDecision::SkipAll => {
                    blocks_skipped += partial.blocks;
                    rows_pruned += partial.rows;
                }
                PruneDecision::TakeAll => blocks_taken += partial.blocks,
                PruneDecision::Scan => blocks_scanned += partial.blocks,
            }
            tables.push(partial.groups);
        }
        let merge_span = aqp_obs::span("query.merge");
        let (mut groups, fold_bytes) = fold_partials(tables, self.scan.radix.is_some(), num_aggs);
        drop(merge_span);
        if self.prune_plan.is_some() {
            // Register all three outcomes (even at zero) so one pruned query
            // makes the full metric family greppable in exports.
            for (outcome, count) in [
                ("skip", blocks_skipped),
                ("take", blocks_taken),
                ("scan", blocks_scanned),
            ] {
                aqp_obs::counter("aqp_prune_blocks_total", &[("outcome", outcome)]).inc_by(count);
            }
        }
        // Logical memory, from the flat vectors' real lengths: every
        // per-morsel partial coexists with the table (and its key index)
        // they fold into (see aqp_obs::mem). An estimate of what the
        // operator asked for, not allocator truth (`unsafe` is denied, so
        // there is no global-allocator hook to measure real allocations).
        let _mem = aqp_obs::mem::reserve(partial_bytes + fold_bytes);
        aqp_obs::profile::record_scan(aqp_obs::ScanStats {
            rows_in: self.rows as u64,
            rows_out,
            claims: schedule.claims,
            morsel_ns,
            mem_peak_bytes: partial_bytes + fold_bytes,
            mem_current_bytes: groups.bytes(),
            kernel,
            blocks_skipped,
            blocks_taken,
            blocks_scanned,
            rows_pruned,
        });

        // Aggregation without GROUP BY always yields exactly one row: the
        // trivial radix plan's only key.
        if self.scan.group_cols.is_empty() && groups.len() == 0 {
            groups = Groups::Radix(GroupTable {
                keys: vec![0],
                states: vec![AggState::new(); num_aggs],
            });
        }

        ScanGroups {
            group_cols: self.scan.group_cols,
            radix: self.scan.radix,
            groups,
            stride: num_aggs,
            rows_scanned: self.rows,
            truncated: self.truncated,
        }
    }
}

/// One aggregate's pre-resolved scan plan: what each surviving row feeds
/// into [`AggState::update`], with the function match and the
/// input-column `Option` unwrap done once at plan time rather than per
/// row (SUM/AVG/MIN/MAX all accumulate the same state; they differ only
/// in finalisation).
pub(crate) enum AggStep<'a> {
    /// COUNT(*): every surviving row contributes x = 1.
    CountStar,
    /// A column aggregate: the row's numeric value, nulls skipped.
    Column(ResolvedColumn<'a>),
}

/// Everything a scan partition needs, shareable across threads.
pub(crate) struct Scan<'a> {
    /// Resolved GROUP BY columns, in query order.
    pub(crate) group_cols: Vec<ResolvedColumn<'a>>,
    /// Pre-resolved aggregate plans, in query order.
    pub(crate) aggs: Vec<AggStep<'a>>,
    /// Compiled predicate, if the query has one.
    pub(crate) predicate: Option<CompiledExpr<'a>>,
    /// Bitmask column + exclusion mask for the double-counting filter.
    pub(crate) bitmask: Option<(&'a aqp_storage::BitmaskColumn, &'a BitSet)>,
    /// Row weighting.
    pub(crate) weight: Weighting<'a>,
    /// The radix key space, when the group columns have one (see
    /// [`RadixPlan`]); `None` keys the scan's groups by
    /// [`crate::groups::GroupKey`]. Chosen by the columns alone.
    pub(crate) radix: Option<RadixPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::plan::AggExpr;
    use aqp_storage::{DataType, SchemaBuilder, Table, Value};

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .field("t.cat", DataType::Utf8)
            .field("t.sub", DataType::Int64)
            .field("t.val", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        let rows: Vec<(&str, i64, f64)> = vec![
            ("a", 1, 10.0),
            ("a", 1, 20.0),
            ("a", 2, 30.0),
            ("b", 1, 40.0),
            ("b", 2, 50.0),
            ("b", 2, 60.0),
            ("c", 3, 70.0),
        ];
        for (c, s, v) in rows {
            t.push_row(&[c.into(), s.into(), v.into()]).unwrap();
        }
        t
    }

    fn count_query(group: &[&str]) -> Query {
        let mut b = Query::builder().count();
        for g in group {
            b = b.group_by(*g);
        }
        b.build().unwrap()
    }

    fn run(t: &Table, q: &Query) -> QueryOutput {
        execute(&DataSource::Wide(t), q, &ExecOptions::default()).unwrap()
    }

    #[test]
    fn ungrouped_count() {
        let t = table();
        let out = run(&t, &count_query(&[]));
        assert_eq!(out.num_groups(), 1);
        assert_eq!(out.groups[0].aggs[0].rows, 7);
        assert_eq!(out.groups[0].aggs[0].sum_w, 7.0);
    }

    #[test]
    fn grouped_count() {
        let t = table();
        let mut out = run(&t, &count_query(&["t.cat"]));
        out.sort_by_key();
        assert_eq!(out.num_groups(), 3);
        let counts: Vec<u64> = out.groups.iter().map(|g| g.aggs[0].rows).collect();
        assert_eq!(counts, vec![3, 3, 1]);
        assert_eq!(out.groups[0].key, vec![Value::Utf8("a".into())]);
    }

    #[test]
    fn multi_column_group_sum() {
        let t = table();
        let q = Query::builder()
            .count()
            .sum("t.val")
            .group_by("t.cat")
            .group_by("t.sub")
            .build()
            .unwrap();
        let mut out = run(&t, &q);
        out.sort_by_key();
        assert_eq!(out.num_groups(), 5);
        // (a,1): count 2, sum 30.
        let g = out
            .group(&[Value::Utf8("a".into()), Value::Int64(1)])
            .unwrap();
        assert_eq!(g.aggs[0].rows, 2);
        assert_eq!(g.aggs[1].sum_wx, 30.0);
        assert_eq!(g.aggs[1].min, 10.0);
        assert_eq!(g.aggs[1].max, 20.0);
    }

    #[test]
    fn predicate_filters() {
        let t = table();
        let q = Query::builder()
            .count()
            .group_by("t.cat")
            .filter(Expr::in_set("t.sub", vec![2i64.into()]))
            .build()
            .unwrap();
        let mut out = run(&t, &q);
        out.sort_by_key();
        assert_eq!(out.num_groups(), 2);
        assert_eq!(out.group(&[Value::Utf8("a".into())]).unwrap().aggs[0].rows, 1);
        assert_eq!(out.group(&[Value::Utf8("b".into())]).unwrap().aggs[0].rows, 2);
    }

    #[test]
    fn dict_in_set_predicate() {
        let t = table();
        let q = Query::builder()
            .count()
            .filter(Expr::in_set("t.cat", vec!["a".into(), "zz".into()]))
            .build()
            .unwrap();
        let out = run(&t, &q);
        assert_eq!(out.groups[0].aggs[0].rows, 3, "zz not in dictionary, a matches 3");
    }

    #[test]
    fn float_and_int_comparisons() {
        let t = table();
        let q = Query::builder()
            .count()
            .filter(Expr::And(vec![
                Expr::cmp("t.val", CmpOp::Ge, 30.0f64),
                Expr::cmp("t.sub", CmpOp::Lt, 3i64),
            ]))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 4);
        // Int literal against float column coerces.
        let q = Query::builder()
            .count()
            .filter(Expr::cmp("t.val", CmpOp::Gt, 60i64))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 1);
    }

    #[test]
    fn or_and_not() {
        let t = table();
        let q = Query::builder()
            .count()
            .filter(Expr::Or(vec![
                Expr::eq("t.cat", "c"),
                Expr::Not(Box::new(Expr::cmp("t.sub", CmpOp::Le, 2i64))),
            ]))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 1, "both branches match row 6 only");
    }

    #[test]
    fn constant_weight_scales() {
        let t = table();
        let q = count_query(&["t.cat"]);
        let opts = ExecOptions {
            weight: Weighting::Constant(10.0),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        let g = out.group(&[Value::Utf8("a".into())]).unwrap();
        assert_eq!(g.aggs[0].rows, 3);
        assert_eq!(g.aggs[0].sum_w, 30.0);
        assert!(g.aggs[0].var_acc > 0.0);
    }

    #[test]
    fn per_row_weights() {
        let t = table();
        let weights = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let q = count_query(&[]);
        let opts = ExecOptions {
            weight: Weighting::PerRow(&weights),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].sum_w, 28.0);
        // Wrong-length weights rejected.
        let bad = vec![1.0];
        let opts = ExecOptions {
            weight: Weighting::PerRow(&bad),
            ..ExecOptions::default()
        };
        assert!(execute(&DataSource::Wide(&t), &q, &opts).is_err());
    }

    #[test]
    fn bitmask_exclusion() {
        let src = table();
        let mut t = src.gather("s", &[0, 1, 2]);
        let mut masks = aqp_storage::BitmaskColumn::new(2);
        for mask in [BitSet::from_bits(2, [0]), BitSet::from_bits(2, [1]), BitSet::with_capacity(2)] {
            masks.push(&mask);
        }
        t.attach_bitmask(masks).unwrap();

        let q = count_query(&[]);
        let mask = BitSet::from_bits(2, [0]);
        let opts = ExecOptions {
            bitmask_exclude: Some(&mask),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 2, "row with bit 0 skipped");

        // Requesting a bitmask filter on a mask-less table is an error.
        assert!(execute(&DataSource::Wide(&src), &q, &opts).is_err());
    }

    #[test]
    fn unknown_column_and_bad_aggregates() {
        let t = table();
        let q = count_query(&["t.zzz"]);
        assert!(matches!(
            execute(&DataSource::Wide(&t), &q, &ExecOptions::default()),
            Err(QueryError::UnknownColumn { .. })
        ));
        let q = Query::builder().sum("t.cat").build().unwrap();
        assert!(matches!(
            execute(&DataSource::Wide(&t), &q, &ExecOptions::default()),
            Err(QueryError::InvalidAggregate { .. })
        ));
    }

    #[test]
    fn min_max_avg() {
        let t = table();
        let q = Query::builder()
            .aggregate(AggExpr::min("t.val", "mn"))
            .aggregate(AggExpr::max("t.val", "mx"))
            .aggregate(AggExpr::avg("t.val", "av"))
            .build()
            .unwrap();
        let out = run(&t, &q);
        let aggs = &out.groups[0].aggs;
        assert_eq!(aggs[0].min, 10.0);
        assert_eq!(aggs[1].max, 70.0);
        // AVG consumers divide sum_wx by sum_w.
        assert!((aggs[2].sum_wx / aggs[2].sum_w - 40.0).abs() < 1e-9);
    }

    #[test]
    fn nulls_excluded_from_aggregates_and_predicates() {
        let schema = SchemaBuilder::new()
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        t.push_row(&[1.0f64.into()]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        t.push_row(&[3.0f64.into()]).unwrap();

        let q = Query::builder().count().sum("x").build().unwrap();
        let out = run(&t, &q);
        assert_eq!(out.groups[0].aggs[0].rows, 3, "COUNT(*) counts all rows");
        assert_eq!(out.groups[0].aggs[1].rows, 2, "SUM skips nulls");
        assert_eq!(out.groups[0].aggs[1].sum_wx, 4.0);

        let q = Query::builder()
            .count()
            .filter(Expr::cmp("x", CmpOp::Ge, 0.0f64))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 2, "null fails predicate");
    }

    #[test]
    fn null_group_keys() {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        t.push_row(&[Value::Null]).unwrap();
        t.push_row(&["x".into()]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        let out = run(&t, &count_query(&["g"]));
        assert_eq!(out.num_groups(), 2);
        let null_group = out.group(&[Value::Null]).unwrap();
        assert_eq!(null_group.aggs[0].rows, 2);
    }

    #[test]
    fn empty_input_grouped_vs_ungrouped() {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Int64)
            .build()
            .unwrap();
        let t = Table::empty("t", schema);
        let out = run(&t, &count_query(&["g"]));
        assert_eq!(out.num_groups(), 0, "grouped query over empty table: no groups");
        let out = run(&t, &count_query(&[]));
        assert_eq!(out.num_groups(), 1, "ungrouped query always yields one row");
        assert_eq!(out.groups[0].aggs[0].rows, 0);
    }

    #[test]
    fn more_than_max_fast_key_columns() {
        let mut b = SchemaBuilder::new();
        for i in 0..8 {
            b = b.field(format!("c{i}"), DataType::Int64);
        }
        let schema = b.build().unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..10i64 {
            let row: Vec<Value> = (0..8).map(|c| Value::Int64(r % (c + 1))).collect();
            t.push_row(&row).unwrap();
        }
        let cols: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
        let q = Query::builder()
            .count()
            .group_by_all(cols.clone())
            .build()
            .unwrap();
        let out = run(&t, &q);
        let total: u64 = out.groups.iter().map(|g| g.aggs[0].rows).sum();
        assert_eq!(total, 10);
        assert!(out.num_groups() > 1);
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        // Spans several morsels; float values with non-trivial rounding so
        // any merge-order deviation would show up in the low bits.
        let schema = SchemaBuilder::new()
            .field("g", DataType::Int64)
            .field("v", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for i in 0..20_000i64 {
            t.push_row(&[(i % 37).into(), (0.1 + (i % 11) as f64 / 7.0).into()])
                .unwrap();
        }
        let q = Query::builder()
            .count()
            .sum("v")
            .group_by("g")
            .filter(Expr::cmp("v", CmpOp::Ge, 0.3f64))
            .build()
            .unwrap();
        let mut serial = run(&t, &q);
        serial.sort_by_key();
        for threads in [2, 4, 8] {
            let opts = ExecOptions {
                parallelism: threads,
                ..ExecOptions::default()
            };
            let mut parallel = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
            parallel.sort_by_key();
            assert_eq!(serial.num_groups(), parallel.num_groups());
            for (a, b) in serial.groups.iter().zip(&parallel.groups) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.aggs[0].rows, b.aggs[0].rows);
                assert_eq!(
                    a.aggs[1].sum_wx.to_bits(),
                    b.aggs[1].sum_wx.to_bits(),
                    "SUM must be bit-identical at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn tiny_morsels_still_deterministic() {
        // Force many morsels on a small table: every morsel size must give
        // the same answer across thread counts (morsel boundaries are a
        // function of row count only).
        let t = table();
        let q = Query::builder()
            .count()
            .sum("t.val")
            .group_by("t.cat")
            .build()
            .unwrap();
        let base = {
            let opts = ExecOptions {
                morsel_rows: 2,
                ..ExecOptions::default()
            };
            let mut out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
            out.sort_by_key();
            out
        };
        for threads in [2, 4, 8] {
            let opts = ExecOptions {
                morsel_rows: 2,
                parallelism: threads,
                ..ExecOptions::default()
            };
            let mut out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
            out.sort_by_key();
            assert_eq!(base.num_groups(), out.num_groups());
            for (a, b) in base.groups.iter().zip(&out.groups) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.aggs[1].sum_wx.to_bits(), b.aggs[1].sum_wx.to_bits());
            }
        }
    }

    #[test]
    fn row_limit_truncates_scan() {
        let t = table();
        let q = count_query(&[]);
        let opts = ExecOptions {
            row_limit: Some(4),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 4);
        assert_eq!(out.rows_scanned, 4);
        assert!(out.truncated);

        // A limit at least as large as the table is a no-op.
        let opts = ExecOptions {
            row_limit: Some(100),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 7);
        assert_eq!(out.rows_scanned, 7);
        assert!(!out.truncated);
    }

    #[test]
    fn star_source_execution() {
        use crate::join::{Dimension, StarSchema};
        // Dimension: 2 parts.
        let dschema = SchemaBuilder::new()
            .field("part.partkey", DataType::Int64)
            .field("part.brand", DataType::Utf8)
            .build()
            .unwrap();
        let mut dim = Table::empty("part", dschema);
        dim.push_row(&[1i64.into(), "X".into()]).unwrap();
        dim.push_row(&[2i64.into(), "Y".into()]).unwrap();
        // Fact: 5 rows.
        let fschema = SchemaBuilder::new()
            .field("f.partkey", DataType::Int64)
            .field("f.qty", DataType::Float64)
            .build()
            .unwrap();
        let mut fact = Table::empty("f", fschema);
        for (fk, q) in [(1i64, 10.0), (2, 20.0), (1, 30.0), (1, 40.0), (2, 50.0)] {
            fact.push_row(&[fk.into(), q.into()]).unwrap();
        }
        let star = StarSchema::new(
            fact,
            vec![Dimension::new(dim, "part.partkey", "f.partkey")],
        )
        .unwrap();

        let q = Query::builder()
            .count()
            .sum("f.qty")
            .group_by("part.brand")
            .build()
            .unwrap();
        let mut out = execute(&DataSource::Star(&star), &q, &ExecOptions::default()).unwrap();
        out.sort_by_key();
        let gx = out.group(&[Value::Utf8("X".into())]).unwrap();
        assert_eq!(gx.aggs[0].rows, 3);
        assert_eq!(gx.aggs[1].sum_wx, 80.0);

        // The same query over the denormalised view gives identical results.
        let wide = star.denormalize("wide").unwrap();
        let mut out2 = execute(&DataSource::Wide(&wide), &q, &ExecOptions::default()).unwrap();
        out2.sort_by_key();
        assert_eq!(out.num_groups(), out2.num_groups());
        for (a, b) in out.groups.iter().zip(&out2.groups) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.aggs[1].sum_wx, b.aggs[1].sum_wx);
        }

        // Predicates on dimension columns work against the star.
        let q = Query::builder()
            .count()
            .filter(Expr::eq("part.brand", "Y"))
            .build()
            .unwrap();
        let out = execute(&DataSource::Star(&star), &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 2);
    }
}
