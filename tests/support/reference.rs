//! The row-at-a-time reference the executor is held to, bit for bit.
//!
//! Shared by the differential suites, each of which includes it with
//! `#[path = "support/reference.rs"] mod reference;`.
//!
//! It knows nothing of kernels, selection vectors, radix keys or
//! dictionary codes: every row is read with [`Table::row`] as owned
//! [`Value`]s, the predicate is walked per row, and groups are keyed by
//! their values. What it does share with the executor is the answer's
//! *definition*, which fixes the order of every float operation:
//!
//! * a scan covers the first `row_limit` rows (all of them without one),
//!   cut into morsels of `morsel_rows` rows;
//! * within a morsel rows are visited in ascending order; a row whose
//!   bitmask intersects the exclusion mask, or that fails the predicate
//!   (a NULL cell fails every leaf), is skipped; every other row feeds
//!   [`AggState::update`] of each aggregate — COUNT(*) with `x = 1`, a
//!   column aggregate with its non-NULL value — at the row's weight, into
//!   groups kept in first-touch order;
//! * morsels fold in morsel order, and a plan's scans in plan order
//!   ([`fold`]): a key's first state is copied, later ones merged;
//! * float keys group as SQL groups them (`-0.0` with `0.0`, every NaN
//!   as one);
//! * an ungrouped query answers exactly one group, even over no rows.
//!
//! So the executor must equal it exactly — every field of every
//! [`AggState`] and the group order — at any thread count, morsel size,
//! weighting or prune setting, fractional measures and weights included.
#![allow(dead_code)]

use aqp::query::{AggState, ExecOptions, Expr, GroupResult, Query, QueryOutput, Weighting};
use aqp::storage::{Table, Value};
use std::collections::HashMap;

/// Evaluate `query` over `table` under the scan-shaping fields of `opts`
/// (weight, bitmask exclusion, row limit, morsel size; threads, pruning
/// and cancellation cannot change an answer and are ignored).
pub fn evaluate(table: &Table, query: &Query, opts: &ExecOptions<'_>) -> QueryOutput {
    let col = |name: &str| table.schema().index_of(name).expect("known column");
    let keys: Vec<usize> = query.group_by.iter().map(|g| col(g)).collect();
    let inputs: Vec<Option<usize>> = query.aggregates.iter().map(|a| a.column.as_deref().map(col)).collect();
    let rows = opts.row_limit.map_or(table.num_rows(), |limit| limit.min(table.num_rows()));
    let step = opts.morsel_rows.max(1);

    let morsels = (0..rows).step_by(step).map(|start| {
        let mut groups: Vec<GroupResult> = Vec::new();
        let mut slot: HashMap<Vec<Value>, usize> = HashMap::new();
        for r in start..(start + step).min(rows) {
            if let Some(mask) = opts.bitmask_exclude {
                if table.bitmask().expect("a bitmask column").row(r).intersects(mask) {
                    continue;
                }
            }
            let row = table.row(r);
            if !query.predicate.as_ref().is_none_or(|p| matches(p, &row, &col)) {
                continue;
            }
            let key: Vec<Value> = keys.iter().map(|&k| group_value(&row[k])).collect();
            let at = *slot.entry(key.clone()).or_insert_with(|| {
                groups.push(GroupResult { key, aggs: vec![AggState::new(); inputs.len()] });
                groups.len() - 1
            });
            let w = match opts.weight {
                Weighting::Unweighted => 1.0,
                Weighting::Constant(c) => c,
                Weighting::PerRow(ws) => ws[r],
            };
            for (state, input) in groups[at].aggs.iter_mut().zip(&inputs) {
                match input {
                    None => state.update(1.0, w),
                    Some(c) => {
                        if let Some(x) = row[*c].as_f64() {
                            state.update(x, w);
                        }
                    }
                }
            }
        }
        groups
    });
    let mut groups = fold(morsels);
    if keys.is_empty() && groups.is_empty() {
        groups.push(GroupResult { key: Vec::new(), aggs: vec![AggState::new(); inputs.len()] });
    }
    QueryOutput {
        group_names: query.group_by.clone(),
        agg_aliases: query.aggregates.iter().map(|a| a.alias.clone()).collect(),
        groups,
        rows_scanned: rows,
        truncated: rows < table.num_rows(),
    }
}

/// Fold group lists in the order given: unseen keys are appended with
/// their states copied, seen ones merged slot by slot.
pub fn fold(tables: impl IntoIterator<Item = Vec<GroupResult>>) -> Vec<GroupResult> {
    let mut out: Vec<GroupResult> = Vec::new();
    let mut slot: HashMap<Vec<Value>, usize> = HashMap::new();
    for g in tables.into_iter().flatten() {
        match slot.get(&g.key) {
            Some(&at) => out[at].aggs.iter_mut().zip(&g.aggs).for_each(|(a, b)| a.merge(b)),
            None => {
                slot.insert(g.key.clone(), out.len());
                out.push(g);
            }
        }
    }
    out
}

/// A float key the way the executor codes it: one bit pattern per group.
fn group_value(v: &Value) -> Value {
    match v {
        Value::Float64(f) if *f == 0.0 => Value::Float64(0.0),
        Value::Float64(f) if f.is_nan() => Value::Float64(f64::NAN),
        other => other.clone(),
    }
}

/// The predicate on one row: NULL fails every leaf, `Not` negates.
/// Comparisons order values as [`Value`]'s `Ord` does (numbers as IEEE
/// total order across integer and float). IN-lists are type-strict,
/// except that an integer column accepts integral float literals when
/// every literal is a number.
fn matches(e: &Expr, row: &[Value], col: &impl Fn(&str) -> usize) -> bool {
    match e {
        Expr::Cmp { column, op, literal } => {
            let v = &row[col(column)];
            !v.is_null() && op.evaluate(v.cmp(literal))
        }
        Expr::InSet { column, values } => match &row[col(column)] {
            Value::Null => false,
            Value::Int64(x) if values.iter().all(|l| matches!(l, Value::Int64(_) | Value::Float64(_))) => {
                values.iter().any(|l| match l {
                    Value::Float64(f) => f.fract() == 0.0 && *f as i64 == *x,
                    l => l == &Value::Int64(*x),
                })
            }
            v => values.contains(v),
        },
        Expr::And(es) => es.iter().all(|e| matches(e, row, col)),
        Expr::Or(es) => es.iter().any(|e| matches(e, row, col)),
        Expr::Not(e) => !matches(e, row, col),
    }
}

/// Whether two states agree in all ten fields, floats by bit pattern.
pub fn same_bits(a: &AggState, b: &AggState) -> bool {
    a.rows == b.rows
        && [
            (a.sum_w, b.sum_w),
            (a.sum_wx, b.sum_wx),
            (a.sum_x, b.sum_x),
            (a.sum_x_sq, b.sum_x_sq),
            (a.var_acc, b.var_acc),
            (a.var_acc_w, b.var_acc_w),
            (a.cov_acc, b.cov_acc),
            (a.min, b.min),
            (a.max, b.max),
        ]
        .iter()
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The first way `got` differs from `want` — group count, group order,
/// or any state bit — or `None` when they are identical.
pub fn first_difference(want: &[GroupResult], got: &[GroupResult]) -> Option<String> {
    if want.len() != got.len() {
        return Some(format!("{} groups, want {}", got.len(), want.len()));
    }
    want.iter().zip(got).enumerate().find_map(|(i, (w, g))| {
        if w.key != g.key {
            Some(format!("group {i} is {:?}, want {:?}", g.key, w.key))
        } else {
            (w.aggs.iter().zip(&g.aggs).enumerate())
                .find(|(_, (a, b))| !same_bits(a, b))
                .map(|(j, (a, b))| format!("key {:?}, aggregate {j}: {b:?}, want {a:?}", w.key))
        }
    })
}

/// Panic with `ctx` unless `got` is `want`, bit for bit and in order.
pub fn assert_same(want: &[GroupResult], got: &[GroupResult], ctx: &str) {
    if let Some(diff) = first_difference(want, got) {
        panic!("{ctx}: {diff}");
    }
}
