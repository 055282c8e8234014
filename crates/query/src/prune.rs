//! Block pruning: zone-map-driven morsel skip/take decisions.
//!
//! Before a morsel touches any column data, the executor can consult the
//! table's [`ZoneMaps`] (per-block min/max bounds, null counts, and
//! dictionary-code presence bitmaps — [`aqp_storage::zonemap`]) and
//! classify the morsel:
//!
//! * [`PruneDecision::SkipAll`] — **no** row of the morsel can satisfy
//!   the predicate: the morsel contributes an empty partial table without
//!   reading a single cell;
//! * [`PruneDecision::TakeAll`] — **every** row satisfies the predicate:
//!   the scan runs with per-row predicate evaluation suppressed (the
//!   bitmask double-counting filter still applies);
//! * [`PruneDecision::Scan`] — neither bound is provable; run normally.
//!
//! Correctness contract: the decisions are conservative statements about
//! *all rows of the blocks overlapping the morsel*, proven from the same
//! leaf semantics the row-at-a-time evaluator uses — integer `Ord`,
//! float `total_cmp`, dictionary-code membership, and NULL failing every
//! leaf. A morsel that partially overlaps a block inherits the block's
//! decision soundly, because a universally-quantified claim over a block
//! holds for any subset of its rows. Pruned execution is therefore
//! **bit-identical** to unpruned execution (the differential oracle in
//! `tests/diff_prune.rs` enforces it): a `SkipAll` morsel returns exactly
//! the empty partial table a filtered-out morsel returns, and a `TakeAll`
//! morsel selects exactly the rows the predicate would have kept.
//!
//! Decision algebra (`eval` is plain two-valued boolean here — NULL fails
//! leaves, `Not` is plain negation — so the flips are exact):
//!
//! * leaf over an all-NULL block → `SkipAll`; `TakeAll` at a leaf
//!   additionally requires `null_count == 0`;
//! * `Not` swaps `SkipAll` ↔ `TakeAll` and keeps `Scan`;
//! * `And`: any `SkipAll` → `SkipAll`; all `TakeAll` → `TakeAll`
//!   (the empty conjunction — compiled `TRUE` — is `TakeAll`);
//! * `Or`: any `TakeAll` → `TakeAll`; all `SkipAll` → `SkipAll`
//!   (the empty disjunction — compiled `FALSE` — is `SkipAll`).
//!
//! Generic leaves, `Bool` columns, and star-join dimension columns (whose
//! rows are permuted through the fact row map, so block locality does not
//! survive) are opaque: they always vote `Scan`.

use crate::expr::{CmpOp, CodeBitmap, CompiledExpr};
use crate::source::ResolvedColumn;
use aqp_storage::{BlockBounds, BlockSummary, Table, ZoneMaps};
use std::cmp::Ordering;
use std::sync::Arc;

/// What the zone maps prove about one morsel (or block) of a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PruneDecision {
    /// No row can satisfy the predicate; skip the morsel entirely.
    SkipAll,
    /// Every row satisfies the predicate; scan without per-row predicate
    /// evaluation.
    TakeAll,
    /// Nothing provable; evaluate the predicate per row as usual.
    Scan,
}

/// A predicate lowered onto a table's zone maps, built once per query.
/// It holds copies of the IN-list leaves (a few integers, or one bit per
/// dictionary entry) rather than borrowing the compiled predicate, so the
/// two can be fields of one prepared scan.
pub(crate) struct PrunePlan {
    maps: Arc<ZoneMaps>,
    node: PruneNode,
}

/// The prunable skeleton of a [`CompiledExpr`]: typed leaves carry the
/// zone-map column index; anything the zone maps cannot reason about is
/// [`PruneNode::Opaque`] (always `Scan`).
enum PruneNode {
    IntCmp {
        col: usize,
        op: CmpOp,
        literal: i64,
    },
    FloatCmp {
        col: usize,
        op: CmpOp,
        literal: f64,
    },
    IntInSet {
        col: usize,
        /// Ascending, unique (sorted by `compile`).
        values: Vec<i64>,
    },
    DictInSet {
        col: usize,
        codes: CodeBitmap,
    },
    And(Vec<PruneNode>),
    Or(Vec<PruneNode>),
    Not(Box<PruneNode>),
    Opaque,
}

impl PrunePlan {
    /// Lower `predicate` onto `table`'s zone maps. Returns `None` when no
    /// leaf is prunable (plans that could only ever answer `Scan` are not
    /// worth consulting per morsel) or the maps do not cover the table.
    pub(crate) fn build(predicate: &CompiledExpr<'_>, table: &Table) -> Option<PrunePlan> {
        let maps = Arc::clone(table.zone_maps());
        if maps.rows != table.num_rows() || maps.block_rows == 0 {
            return None;
        }
        let node = build_node(predicate, table);
        if !node.has_leaf() {
            return None;
        }
        Some(PrunePlan { maps, node })
    }

    /// Number of zone-map blocks the row range `[start, end)` overlaps.
    pub(crate) fn blocks(&self, start: usize, end: usize) -> usize {
        self.maps.block_range(start, end).len()
    }

    /// Decide the row range `[start, end)` (one morsel): the combined
    /// verdict over every block it overlaps. All-`SkipAll` → `SkipAll`,
    /// all-`TakeAll` → `TakeAll`, anything mixed or unproven → `Scan`.
    pub(crate) fn decide(&self, start: usize, end: usize) -> PruneDecision {
        let range = self.maps.block_range(start, end);
        if range.is_empty() {
            return PruneDecision::Scan;
        }
        let mut all_skip = true;
        let mut all_take = true;
        for block in range {
            match self.node.decide(&self.maps, block) {
                PruneDecision::SkipAll => all_take = false,
                PruneDecision::TakeAll => all_skip = false,
                PruneDecision::Scan => return PruneDecision::Scan,
            }
            if !all_skip && !all_take {
                return PruneDecision::Scan;
            }
        }
        if all_skip {
            PruneDecision::SkipAll
        } else {
            PruneDecision::TakeAll
        }
    }
}

/// The zone-map column index backing a leaf, if pruning can use it:
/// fact/wide columns only (dimension columns reach rows through the join
/// row map, so fact-side blocks say nothing about their values).
fn column_index(table: &Table, col: &ResolvedColumn<'_>) -> Option<usize> {
    if col.row_map.is_some() {
        return None;
    }
    (0..table.columns().len()).find(|&i| std::ptr::eq(table.column(i), col.column))
}

fn build_node(e: &CompiledExpr<'_>, table: &Table) -> PruneNode {
    match e {
        CompiledExpr::IntCmp { col, op, literal } => match column_index(table, col) {
            Some(i) => PruneNode::IntCmp {
                col: i,
                op: *op,
                literal: *literal,
            },
            None => PruneNode::Opaque,
        },
        CompiledExpr::FloatCmp { col, op, literal } => match column_index(table, col) {
            Some(i) => PruneNode::FloatCmp {
                col: i,
                op: *op,
                literal: *literal,
            },
            None => PruneNode::Opaque,
        },
        CompiledExpr::IntInSet { col, values } => match column_index(table, col) {
            Some(i) => PruneNode::IntInSet { col: i, values: values.clone() },
            None => PruneNode::Opaque,
        },
        CompiledExpr::DictInSet { col, codes } => match column_index(table, col) {
            Some(i) => PruneNode::DictInSet { col: i, codes: codes.clone() },
            None => PruneNode::Opaque,
        },
        CompiledExpr::GenericCmp { .. } | CompiledExpr::GenericInSet { .. } => PruneNode::Opaque,
        CompiledExpr::And(es) => PruneNode::And(es.iter().map(|c| build_node(c, table)).collect()),
        CompiledExpr::Or(es) => PruneNode::Or(es.iter().map(|c| build_node(c, table)).collect()),
        CompiledExpr::Not(inner) => PruneNode::Not(Box::new(build_node(inner, table))),
    }
}

impl PruneNode {
    /// Whether any descendant can ever vote something other than `Scan`.
    fn has_leaf(&self) -> bool {
        match self {
            PruneNode::IntCmp { .. }
            | PruneNode::FloatCmp { .. }
            | PruneNode::IntInSet { .. }
            | PruneNode::DictInSet { .. } => true,
            PruneNode::And(es) | PruneNode::Or(es) => es.iter().any(PruneNode::has_leaf),
            PruneNode::Not(e) => e.has_leaf(),
            PruneNode::Opaque => false,
        }
    }

    fn decide(&self, maps: &ZoneMaps, block: usize) -> PruneDecision {
        match self {
            PruneNode::IntCmp { col, op, literal } => {
                leaf(maps, *col, block, |bounds| match bounds {
                    BlockBounds::Int { min, max } => {
                        Some(cmp_bounds(min.cmp(literal), max.cmp(literal), *op))
                    }
                    _ => None,
                })
            }
            PruneNode::FloatCmp { col, op, literal } => {
                leaf(maps, *col, block, |bounds| match bounds {
                    BlockBounds::Float { min, max } => Some(cmp_bounds(
                        min.total_cmp(literal),
                        max.total_cmp(literal),
                        *op,
                    )),
                    _ => None,
                })
            }
            PruneNode::IntInSet { col, values } => {
                leaf(maps, *col, block, |bounds| match bounds {
                    BlockBounds::Int { min, max } => {
                        // Ascending + unique: the first candidate ≥ min
                        // decides emptiness of the [min, max] overlap.
                        let lo = values.partition_point(|v| v < min);
                        let none = lo >= values.len() || values[lo] > *max;
                        let all = min == max && !none;
                        Some((none, all))
                    }
                    _ => None,
                })
            }
            PruneNode::DictInSet { col, codes } => {
                leaf(maps, *col, block, |bounds| match bounds {
                    BlockBounds::Dict { words } => Some((
                        !codes.intersects_words(words),
                        codes.superset_of_words(words),
                    )),
                    _ => None,
                })
            }
            PruneNode::And(es) => {
                let mut all_take = true;
                for e in es {
                    match e.decide(maps, block) {
                        PruneDecision::SkipAll => return PruneDecision::SkipAll,
                        PruneDecision::TakeAll => {}
                        PruneDecision::Scan => all_take = false,
                    }
                }
                if all_take {
                    PruneDecision::TakeAll
                } else {
                    PruneDecision::Scan
                }
            }
            PruneNode::Or(es) => {
                let mut all_skip = true;
                for e in es {
                    match e.decide(maps, block) {
                        PruneDecision::TakeAll => return PruneDecision::TakeAll,
                        PruneDecision::SkipAll => {}
                        PruneDecision::Scan => all_skip = false,
                    }
                }
                if all_skip {
                    PruneDecision::SkipAll
                } else {
                    PruneDecision::Scan
                }
            }
            PruneNode::Not(e) => match e.decide(maps, block) {
                PruneDecision::SkipAll => PruneDecision::TakeAll,
                PruneDecision::TakeAll => PruneDecision::SkipAll,
                PruneDecision::Scan => PruneDecision::Scan,
            },
            PruneNode::Opaque => PruneDecision::Scan,
        }
    }
}

/// Shared leaf logic: fetch the block summary, handle the all-NULL and
/// missing-bounds cases, and turn a `(matches_none, matches_all)` verdict
/// over the *non-null* rows into a decision. `TakeAll` demands
/// `null_count == 0` because a NULL cell fails every leaf.
fn leaf(
    maps: &ZoneMaps,
    col: usize,
    block: usize,
    verdict: impl Fn(&BlockBounds) -> Option<(bool, bool)>,
) -> PruneDecision {
    let Some(summary) = maps.columns.get(col).and_then(|c| c.blocks.get(block)) else {
        return PruneDecision::Scan;
    };
    if summary.rows > 0 && summary.all_null() {
        return PruneDecision::SkipAll;
    }
    let (none, all) = match summary.bounds.as_ref().and_then(&verdict) {
        Some(v) => v,
        None => return PruneDecision::Scan,
    };
    decide_from(summary, none, all)
}

fn decide_from(summary: &BlockSummary, none: bool, all: bool) -> PruneDecision {
    if none {
        PruneDecision::SkipAll
    } else if all && summary.null_count == 0 {
        PruneDecision::TakeAll
    } else {
        PruneDecision::Scan
    }
}

/// `(matches_none, matches_all)` for `x op literal` over non-null rows
/// with `x ∈ [min, max]`, given `min_cmp = min ⋄ literal` and
/// `max_cmp = max ⋄ literal` under the column's total order (`Ord` for
/// integers, `total_cmp` for floats — the same orders the row kernels
/// use, so a bound can never disagree with a row).
fn cmp_bounds(min_cmp: Ordering, max_cmp: Ordering, op: CmpOp) -> (bool, bool) {
    use Ordering::{Equal, Greater, Less};
    match op {
        // Satisfying set (-inf, lit): decided by whichever end is closer.
        CmpOp::Lt => (min_cmp != Less, max_cmp == Less),
        CmpOp::Le => (min_cmp == Greater, max_cmp != Greater),
        CmpOp::Gt => (max_cmp != Greater, min_cmp == Greater),
        CmpOp::Ge => (max_cmp == Less, min_cmp != Less),
        // lit outside [min, max] ⇒ none; the degenerate block ⇒ all.
        CmpOp::Eq => (
            min_cmp == Greater || max_cmp == Less,
            min_cmp == Equal && max_cmp == Equal,
        ),
        CmpOp::Ne => (
            min_cmp == Equal && max_cmp == Equal,
            min_cmp == Greater || max_cmp == Less,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{compile, Expr};
    use crate::source::DataSource;
    use aqp_storage::{DataType, SchemaBuilder, Value, ZONE_BLOCK_ROWS};

    /// Three blocks: ints ascending (so blocks are disjoint ranges), a
    /// float mirror, and a dict column that changes value per block.
    fn clustered_table(rows: usize) -> Table {
        let schema = SchemaBuilder::new()
            .field("t.i", DataType::Int64)
            .field("t.f", DataType::Float64)
            .field("t.s", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..rows {
            let s = ["aa", "bb", "cc"][r / ZONE_BLOCK_ROWS % 3];
            t.push_row(&[
                Value::Int64(r as i64),
                Value::Float64(r as f64),
                s.into(),
            ])
            .unwrap();
        }
        t
    }

    fn plan(compiled: &CompiledExpr<'_>, t: &Table) -> PrunePlan {
        PrunePlan::build(compiled, t).expect("prunable plan")
    }

    /// Every decision must be consistent with brute-force evaluation.
    fn check_against_eval(t: &Table, expr: &Expr) {
        let src = DataSource::Wide(t);
        let compiled = compile(expr, &src).unwrap();
        let Some(p) = PrunePlan::build(&compiled, t) else {
            return;
        };
        let rows = t.num_rows();
        let mut start = 0;
        while start < rows {
            let end = (start + ZONE_BLOCK_ROWS).min(rows);
            let matches = (start..end).filter(|&r| compiled.eval(r)).count();
            match p.decide(start, end) {
                PruneDecision::SkipAll => {
                    assert_eq!(matches, 0, "{expr}: SkipAll block {start}..{end} has matches")
                }
                PruneDecision::TakeAll => assert_eq!(
                    matches,
                    end - start,
                    "{expr}: TakeAll block {start}..{end} has non-matches"
                ),
                PruneDecision::Scan => {}
            }
            start = end;
        }
    }

    #[test]
    fn range_predicate_skips_and_takes_blocks() {
        let t = clustered_table(ZONE_BLOCK_ROWS * 3);
        let src = DataSource::Wide(&t);
        let lit = ZONE_BLOCK_ROWS as i64;
        let c = compile(&Expr::cmp("t.i", CmpOp::Lt, lit), &src).unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::TakeAll);
        assert_eq!(
            p.decide(ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS),
            PruneDecision::SkipAll
        );
        // A morsel spanning a Take block and a Skip block is mixed.
        assert_eq!(p.decide(0, 2 * ZONE_BLOCK_ROWS), PruneDecision::Scan);
        assert_eq!(p.blocks(0, 2 * ZONE_BLOCK_ROWS), 2);
        // Sub-block morsels inherit their containing block's decision.
        assert_eq!(p.decide(10, 20), PruneDecision::TakeAll);
    }

    #[test]
    fn float_and_dict_leaves_decide() {
        let t = clustered_table(ZONE_BLOCK_ROWS * 3);
        let src = DataSource::Wide(&t);
        let c = compile(
            &Expr::cmp("t.f", CmpOp::Ge, (2 * ZONE_BLOCK_ROWS) as f64),
            &src,
        )
        .unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::SkipAll);
        assert_eq!(
            p.decide(2 * ZONE_BLOCK_ROWS, 3 * ZONE_BLOCK_ROWS),
            PruneDecision::TakeAll
        );

        let c = compile(&Expr::in_set("t.s", vec!["bb".into()]), &src).unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::SkipAll);
        assert_eq!(
            p.decide(ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS),
            PruneDecision::TakeAll
        );
    }

    #[test]
    fn not_flips_and_combinators_combine() {
        let t = clustered_table(ZONE_BLOCK_ROWS * 3);
        let src = DataSource::Wide(&t);
        let lt = Expr::cmp("t.i", CmpOp::Lt, ZONE_BLOCK_ROWS as i64);
        let c = compile(&Expr::Not(Box::new(lt.clone())), &src).unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::SkipAll);
        assert_eq!(
            p.decide(ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS),
            PruneDecision::TakeAll
        );

        // And with an always-true second conjunct keeps the leaf verdicts.
        let c = compile(
            &Expr::And(vec![lt.clone(), Expr::cmp("t.i", CmpOp::Ge, 0i64)]),
            &src,
        )
        .unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::TakeAll);
        assert_eq!(
            p.decide(2 * ZONE_BLOCK_ROWS, 3 * ZONE_BLOCK_ROWS),
            PruneDecision::SkipAll
        );

        // Or of two disjoint skips is a skip; covering both is a take.
        let c = compile(
            &Expr::Or(vec![
                Expr::cmp("t.i", CmpOp::Lt, ZONE_BLOCK_ROWS as i64),
                Expr::cmp("t.i", CmpOp::Ge, (2 * ZONE_BLOCK_ROWS) as i64),
            ]),
            &src,
        )
        .unwrap();
        let p = plan(&c, &t);
        assert_eq!(
            p.decide(ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS),
            PruneDecision::SkipAll
        );
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::TakeAll);
    }

    #[test]
    fn nulls_veto_take_but_not_skip() {
        let schema = SchemaBuilder::new()
            .field("x", DataType::Int64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..ZONE_BLOCK_ROWS * 2 {
            let v = if r % 10 == 0 {
                Value::Null
            } else {
                Value::Int64((r / ZONE_BLOCK_ROWS) as i64)
            };
            t.push_row(&[v]).unwrap();
        }
        let src = DataSource::Wide(&t);
        // Block 0 holds only value 0 (plus NULLs): `= 0` matches every
        // non-null row, but NULLs fail it, so TakeAll must not fire.
        let c = compile(&Expr::eq("x", 0i64), &src).unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::Scan);
        // Block 1 holds only value 1: no row (NULL or not) matches.
        assert_eq!(
            p.decide(ZONE_BLOCK_ROWS, 2 * ZONE_BLOCK_ROWS),
            PruneDecision::SkipAll
        );
        check_against_eval(&t, &Expr::eq("x", 0i64));
        check_against_eval(&t, &Expr::Not(Box::new(Expr::eq("x", 0i64))));
    }

    #[test]
    fn all_null_block_skips_every_leaf() {
        let schema = SchemaBuilder::new()
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for _ in 0..ZONE_BLOCK_ROWS {
            t.push_row(&[Value::Null]).unwrap();
        }
        let src = DataSource::Wide(&t);
        let c = compile(&Expr::cmp("x", CmpOp::Ge, f64::NEG_INFINITY), &src).unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::SkipAll);
        // NOT over an all-NULL block: every row passes (NULL fails the
        // inner leaf, Not is plain negation), so the flip gives TakeAll.
        let c = compile(
            &Expr::Not(Box::new(Expr::cmp("x", CmpOp::Ge, f64::NEG_INFINITY))),
            &src,
        )
        .unwrap();
        let p = plan(&c, &t);
        assert_eq!(p.decide(0, ZONE_BLOCK_ROWS), PruneDecision::TakeAll);
    }

    #[test]
    fn unprunable_predicates_yield_no_plan() {
        let t = clustered_table(16);
        let src = DataSource::Wide(&t);
        // Generic leaf only (cross-type comparison) → no plan.
        let c = compile(&Expr::eq("t.s", 3i64), &src).unwrap();
        assert!(PrunePlan::build(&c, &t).is_none());
        // Empty conjunction: no leaf to prune with.
        let c = compile(&Expr::And(vec![]), &src).unwrap();
        assert!(PrunePlan::build(&c, &t).is_none());
    }

    #[test]
    fn cmp_bounds_matches_brute_force() {
        // Exhaustively check the decision table on tiny integer blocks.
        for min in -2i64..=2 {
            for max in min..=2 {
                for lit in -3i64..=3 {
                    for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                        let (none, all) = cmp_bounds(min.cmp(&lit), max.cmp(&lit), op);
                        // The block could contain any multiset over
                        // [min, max] that attains both endpoints.
                        let candidates: Vec<i64> = (min..=max).collect();
                        let hits = candidates.iter().filter(|&&x| op.evaluate(x.cmp(&lit))).count();
                        if none {
                            assert_eq!(hits, 0, "{min}..{max} {op:?} {lit}");
                        }
                        if all {
                            assert_eq!(
                                hits,
                                candidates.len(),
                                "{min}..{max} {op:?} {lit}"
                            );
                        }
                        // Endpoint checks are exact for monotone ops and Eq
                        // on degenerate blocks; `none` must hold whenever
                        // zero candidates hit *and the endpoints decide*.
                        if hits == candidates.len() && matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                            assert!(all, "{min}..{max} {op:?} {lit}: monotone all missed");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decisions_consistent_with_eval_across_predicates() {
        let t = clustered_table(ZONE_BLOCK_ROWS * 3 + 100);
        let b = ZONE_BLOCK_ROWS as i64;
        for expr in [
            Expr::cmp("t.i", CmpOp::Le, b + 7),
            Expr::cmp("t.i", CmpOp::Eq, b),
            Expr::cmp("t.f", CmpOp::Gt, 1.5 * b as f64),
            Expr::in_set("t.i", vec![Value::Int64(5), Value::Int64(b * 2 + 1)]),
            Expr::in_set("t.s", vec!["aa".into(), "cc".into()]),
            Expr::And(vec![
                Expr::cmp("t.i", CmpOp::Ge, b),
                Expr::in_set("t.s", vec!["bb".into()]),
            ]),
            Expr::Or(vec![
                Expr::cmp("t.i", CmpOp::Lt, 10),
                Expr::cmp("t.f", CmpOp::Ge, 2.9 * b as f64),
            ]),
            Expr::Not(Box::new(Expr::in_set("t.s", vec!["bb".into()]))),
        ] {
            check_against_eval(&t, &expr);
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        const OPS: [CmpOp; 6] =
            [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

        /// One drawn row: (null-draws, int key, float key, dict index).
        /// A draw below 3 (of 20) makes the cell NULL, as in
        /// `tests/prop_kernels.rs`.
        type DrawnRow = ((u32, i64), (u32, i64), (u32, usize));

        fn drawn_rows() -> impl Strategy<Value = Vec<DrawnRow>> {
            proptest::collection::vec(
                ((0u32..20, -40i64..40), (0u32..20, -40i64..40), (0u32..20, 0usize..3)),
                1..600,
            )
        }

        /// Build a table from draws, replicating each drawn row so the
        /// table spans several zone-map blocks without drawing (and
        /// shrinking) tens of thousands of tuples. Sorting by the integer
        /// key clusters the data, which is what makes Skip/Take verdicts
        /// actually fire; unsorted tables exercise the Scan-heavy side.
        fn build(rows: &[DrawnRow], sorted: bool, repeat: usize) -> Table {
            let mut rows = rows.to_vec();
            if sorted {
                rows.sort_by_key(|r| (r.0 .0 < 3, r.0 .1));
            }
            let schema = SchemaBuilder::new()
                .field("t.i", DataType::Int64)
                .field("t.f", DataType::Float64)
                .field("t.s", DataType::Utf8)
                .build()
                .unwrap();
            let mut t = Table::empty("t", schema);
            let cell = |null_draw: u32, v: Value| if null_draw < 3 { Value::Null } else { v };
            for ((ni, i), (nf, f), (ns, s)) in &rows {
                let row = [
                    cell(*ni, Value::Int64(*i)),
                    cell(*nf, Value::Float64(*f as f64 / 2.0)),
                    cell(*ns, ["aa", "bb", "cc"][*s].into()),
                ];
                for _ in 0..repeat {
                    t.push_row(&row).unwrap();
                }
            }
            t
        }

        fn drawn_expr(kind: usize, op: usize, lit: i64) -> Expr {
            let op = OPS[op];
            match kind {
                0 => Expr::cmp("t.i", op, lit),
                1 => Expr::cmp("t.f", op, lit as f64 / 2.0),
                2 => Expr::in_set("t.i", vec![Value::Int64(lit), Value::Int64(lit + 3)]),
                3 => Expr::in_set("t.s", vec!["aa".into(), "cc".into()]),
                4 => Expr::Not(Box::new(Expr::cmp("t.i", op, lit))),
                _ => Expr::Or(vec![
                    Expr::cmp("t.i", CmpOp::Lt, lit),
                    Expr::And(vec![
                        Expr::cmp("t.f", op, lit as f64),
                        Expr::in_set("t.s", vec!["bb".into()]),
                    ]),
                ]),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The oracle invariant, on random data: a `SkipAll` block
            /// contains no matching row, a `TakeAll` block no
            /// non-matching row — judged by the compiled row evaluator
            /// itself, so pruning can never disagree with a scan.
            #[test]
            fn random_block_decisions_never_lie(
                rows in drawn_rows(),
                sorted in (0u32..2).prop_map(|b| b == 0),
                kind in 0usize..6,
                op in 0usize..6,
                lit in -45i64..45,
            ) {
                // ~600 draws × 16 replicas spans a few 4096-row blocks.
                let t = build(&rows, sorted, 16);
                check_against_eval(&t, &drawn_expr(kind, op, lit));
            }
        }
    }
}
