//! Selection-vector construction: the filter half of the vectorised scan.
//!
//! Per morsel, the kernel executor builds a **selection vector** — the
//! logical row numbers that survive the bitmask double-counting filter and
//! the compiled predicate — and every downstream kernel (group-id
//! extraction, aggregation) then runs over that dense `&[u32]` with no
//! further branches. Two stages:
//!
//! 1. **Bitmask stage** — the paper's `WHERE bitmask & M = 0` exclusion
//!    filter: one word-AND per row (families of up to 64 sample tables
//!    keep one mask word per row), compacted without a branch on the
//!    outcome — an overall sample drops a few rows in most 64-row blocks,
//!    which no block-level shortcut and no branch predictor gets right.
//!    An empty `M` (the first table of a plan) skips the stage.
//! 2. **Predicate stage** — [`filter`] narrows the vector in place. Typed
//!    leaves (`IntCmp`/`FloatCmp`/`IntInSet`/`DictInSet`) run as
//!    monomorphised kernels over the column's native slice with the
//!    comparison operator, null handling, and star-join row map all
//!    dispatched **once per batch**; `And` applies its conjuncts
//!    sequentially over the shrinking vector (cheapest-first would be a
//!    planner concern; order does not affect the result). `Or`, `Not`,
//!    and the generic leaves fall back to the per-row
//!    [`CompiledExpr::eval`] for each remaining row — rare in the paper's
//!    workload class, and trivially equivalent by construction.
//!
//! Equivalence with the per-row evaluator is not an accident to be
//! tested into existence but a structural property: both evaluate the
//! same [`CompiledExpr`] tree with the same leaf semantics (floats compare
//! via `total_cmp`, NULL fails every leaf), and a selection vector is just
//! the set of rows a row loop would keep, in ascending order. The unit
//! tests below and the row-at-a-time reference in `tests/support/` hold
//! it anyway.

use crate::expr::{CmpOp, CompiledExpr};
use aqp_storage::{with_codes, BitSet, BitmaskColumn, NullMask};
use std::cmp::Ordering;

/// Fill `sel` with the logical rows of `start..end` that survive the
/// bitmask exclusion filter and the predicate, ascending.
pub(crate) fn build_selection(
    sel: &mut Vec<u32>,
    start: usize,
    end: usize,
    bitmask: Option<(&BitmaskColumn, &BitSet)>,
    predicate: Option<&CompiledExpr<'_>>,
) {
    sel.clear();
    sel.extend((start..end).map(|r| r as u32));
    if let Some((col, mask)) = bitmask.filter(|(_, mask)| !mask.is_empty()) {
        match (col.width(), mask.words()) {
            (1, &[m]) => {
                let words = col.words();
                compact(sel, |r| words[r as usize] & m == 0)
            }
            _ => compact(sel, |r| !col.row_intersects(r as usize, mask)),
        }
    }
    if let Some(p) = predicate {
        filter(p, sel);
    }
}

/// Narrow `sel` in place to the rows where `e` holds.
pub(crate) fn filter(e: &CompiledExpr<'_>, sel: &mut Vec<u32>) {
    match e {
        CompiledExpr::And(es) => {
            for c in es {
                filter(c, sel);
            }
        }
        CompiledExpr::IntCmp { col, op, literal } => match col.column.as_int64() {
            Some(data) => {
                let nulls = col.column.nulls();
                let map = col.row_map;
                let lit = *literal;
                match op {
                    CmpOp::Eq => retain_valid(sel, data, nulls, map, |x| x == lit),
                    CmpOp::Ne => retain_valid(sel, data, nulls, map, |x| x != lit),
                    CmpOp::Lt => retain_valid(sel, data, nulls, map, |x| x < lit),
                    CmpOp::Le => retain_valid(sel, data, nulls, map, |x| x <= lit),
                    CmpOp::Gt => retain_valid(sel, data, nulls, map, |x| x > lit),
                    CmpOp::Ge => retain_valid(sel, data, nulls, map, |x| x >= lit),
                }
            }
            None => retain_eval(e, sel),
        },
        CompiledExpr::FloatCmp { col, op, literal } => match col.column.as_float64() {
            Some(data) => {
                let nulls = col.column.nulls();
                let map = col.row_map;
                let lit = *literal;
                // `total_cmp`, exactly like the scalar leaf: -0.0 < +0.0
                // and NaN ordered last, so the two paths cannot disagree
                // on edge-of-IEEE rows.
                match op {
                    CmpOp::Eq => retain_valid(sel, data, nulls, map, |x: f64| {
                        x.total_cmp(&lit) == Ordering::Equal
                    }),
                    CmpOp::Ne => retain_valid(sel, data, nulls, map, |x: f64| {
                        x.total_cmp(&lit) != Ordering::Equal
                    }),
                    CmpOp::Lt => retain_valid(sel, data, nulls, map, |x: f64| {
                        x.total_cmp(&lit) == Ordering::Less
                    }),
                    CmpOp::Le => retain_valid(sel, data, nulls, map, |x: f64| {
                        x.total_cmp(&lit) != Ordering::Greater
                    }),
                    CmpOp::Gt => retain_valid(sel, data, nulls, map, |x: f64| {
                        x.total_cmp(&lit) == Ordering::Greater
                    }),
                    CmpOp::Ge => retain_valid(sel, data, nulls, map, |x: f64| {
                        x.total_cmp(&lit) != Ordering::Less
                    }),
                }
            }
            None => retain_eval(e, sel),
        },
        CompiledExpr::IntInSet { col, values } => match col.column.as_int64() {
            Some(data) => retain_valid(sel, data, col.column.nulls(), col.row_map, |x| {
                values.binary_search(&x).is_ok()
            }),
            None => retain_eval(e, sel),
        },
        CompiledExpr::DictInSet { col, codes } => match col.column.as_utf8() {
            Some((col_codes, _)) => with_codes!(col_codes, c => {
                retain_valid(sel, c, col.column.nulls(), col.row_map, |code| {
                    codes.contains(code.into())
                })
            }),
            None => retain_eval(e, sel),
        },
        // Disjunctions, negations, and the generic dynamic-value leaves
        // run the scalar evaluator per remaining row.
        CompiledExpr::Or(_)
        | CompiledExpr::Not(_)
        | CompiledExpr::GenericCmp { .. }
        | CompiledExpr::GenericInSet { .. } => retain_eval(e, sel),
    }
}

/// Per-row fallback: keep the rows where the scalar evaluator says yes.
fn retain_eval(e: &CompiledExpr<'_>, sel: &mut Vec<u32>) {
    sel.retain(|&r| e.eval(r as usize));
}

/// Keep the rows of `sel` that pass `keep`, in order. Every row is
/// written to the output position and the position advances by the
/// outcome, so the loop has no branch to mispredict at the 10–50 %
/// selectivities of sampled plans (`Vec::retain` branches per row).
#[inline]
fn compact(sel: &mut Vec<u32>, keep: impl Fn(u32) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let row = sel[i];
        sel[kept] = row;
        kept += keep(row) as usize;
    }
    sel.truncate(kept);
}

/// The shared monomorphised retain loop: null handling and the star-join
/// row map are dispatched here, once per batch, so the inner closure sees
/// only a plain slice load and the typed test.
#[inline]
fn retain_valid<T: Copy>(
    sel: &mut Vec<u32>,
    data: &[T],
    nulls: Option<&NullMask>,
    row_map: Option<&[u32]>,
    test: impl Fn(T) -> bool,
) {
    match (nulls, row_map) {
        (None, None) => compact(sel, |r| test(data[r as usize])),
        (Some(nm), None) => compact(sel, |r| !nm.is_null(r as usize) && test(data[r as usize])),
        (None, Some(map)) => compact(sel, |r| test(data[map[r as usize] as usize])),
        (Some(nm), Some(map)) => compact(sel, |r| {
            let p = map[r as usize] as usize;
            !nm.is_null(p) && test(data[p])
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{compile, Expr};
    use crate::source::DataSource;
    use aqp_storage::{DataType, SchemaBuilder, Table, Value};

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .field("t.i", DataType::Int64)
            .field("t.f", DataType::Float64)
            .field("t.s", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..500i64 {
            let i: Value = if r % 7 == 0 { Value::Null } else { (r % 13).into() };
            let f: Value = if r % 11 == 0 {
                Value::Null
            } else {
                ((r % 17) as f64 / 4.0 - 1.0).into()
            };
            let s: Value = ["aa", "bb", "cc", "dd"][(r % 4) as usize].into();
            t.push_row(&[i, f, s]).unwrap();
        }
        t
    }

    /// Batch filter must keep exactly the rows the scalar evaluator keeps.
    fn assert_matches_scalar(expr: &Expr) {
        let t = table();
        let src = DataSource::Wide(&t);
        let compiled = compile(expr, &src).unwrap();
        let mut sel = Vec::new();
        build_selection(&mut sel, 0, t.num_rows(), None, Some(&compiled));
        let expect: Vec<u32> = (0..t.num_rows())
            .filter(|&r| compiled.eval(r))
            .map(|r| r as u32)
            .collect();
        assert_eq!(sel, expect, "{expr}");
    }

    #[test]
    fn typed_leaves_match_scalar() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_matches_scalar(&Expr::cmp("t.i", op, 6i64));
            assert_matches_scalar(&Expr::cmp("t.f", op, 0.25f64));
            // -0.0 literal exercises the total_cmp edge.
            assert_matches_scalar(&Expr::cmp("t.f", op, -0.0f64));
        }
        assert_matches_scalar(&Expr::in_set("t.i", vec![1i64.into(), 5i64.into(), 12i64.into()]));
        assert_matches_scalar(&Expr::in_set("t.s", vec!["bb".into(), "zz".into()]));
    }

    #[test]
    fn combinators_match_scalar() {
        assert_matches_scalar(&Expr::And(vec![
            Expr::cmp("t.i", CmpOp::Ge, 3i64),
            Expr::cmp("t.f", CmpOp::Lt, 2.0f64),
        ]));
        assert_matches_scalar(&Expr::Or(vec![
            Expr::eq("t.s", "aa"),
            Expr::cmp("t.i", CmpOp::Gt, 10i64),
        ]));
        assert_matches_scalar(&Expr::Not(Box::new(Expr::in_set(
            "t.s",
            vec!["cc".into()],
        ))));
        assert_matches_scalar(&Expr::And(vec![]));
        assert_matches_scalar(&Expr::Or(vec![]));
    }

    #[test]
    fn no_filters_selects_whole_range() {
        let mut sel = Vec::new();
        build_selection(&mut sel, 10, 20, None, None);
        assert_eq!(sel, (10u32..20).collect::<Vec<_>>());
    }

    #[test]
    fn bitmask_stage_matches_per_row_probes() {
        // One mask word per row (families of up to 64 tables: the typed
        // path) and two (the general path); rows excluded singly, in
        // runs, and not at all; the empty mask excludes nothing.
        for bits in [5usize, 70] {
            let mut col = BitmaskColumn::new(bits);
            for r in 0..300usize {
                let set = match r % 11 {
                    0 => vec![0],
                    3 | 4 => vec![bits - 1],
                    7 => vec![1, bits - 1],
                    _ => vec![],
                };
                col.push(&BitSet::from_bits(bits, set));
            }
            for mask_bits in [vec![], vec![0], vec![bits - 1], vec![0, 1, bits - 1]] {
                let mask = BitSet::from_bits(bits, mask_bits.clone());
                let mut sel = Vec::new();
                build_selection(&mut sel, 17, 290, Some((&col, &mask)), None);
                let expect: Vec<u32> = (17..290u32)
                    .filter(|&r| !col.row_intersects(r as usize, &mask))
                    .collect();
                assert_eq!(sel, expect, "{bits} bits, mask {mask_bits:?}");
            }
        }
    }
}
