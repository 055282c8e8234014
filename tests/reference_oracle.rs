//! Hand-checked answers for the row-at-a-time reference.
//!
//! Four differential suites hold the executor to the evaluator in
//! `tests/support/reference.rs`, bit for bit; that is only as good as the
//! evaluator itself. Each test here runs a query over a table small enough
//! to work out by hand, asserts the executor equals the reference (at 1 and
//! 2 threads, with 1-, 2- and 1 024-row morsels), and asserts the reference
//! equals the hand-computed numbers: NULLs, weights, bitmask exclusion, row
//! limits, float keys, group order and the morsel fold order.

#[path = "support/reference.rs"]
mod reference;

use aqp::prelude::*;
use aqp::query::{run_scans, GroupResult, PlanGroups, PreparedScan, QueryOutput};
use aqp::storage::{BitSet, BitmaskColumn};

fn table(fields: &[(&str, DataType)], rows: &[Vec<Value>]) -> Table {
    let schema = fields
        .iter()
        .fold(SchemaBuilder::new(), |b, (name, ty)| b.field(*name, *ty))
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    for row in rows {
        t.push_row(row).unwrap();
    }
    t
}

/// One float column `x`.
fn xs(values: &[Option<f64>]) -> Table {
    let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![v.map_or(Value::Null, Value::Float64)]).collect();
    table(&[("x", DataType::Float64)], &rows)
}

/// The reference's answer at 1-, 2- and 1 024-row morsels (the rest of
/// `opts` as given), each after checking the executor returns the same at
/// 1 and 2 threads.
fn answers(t: &Table, q: &Query, opts: ExecOptions<'_>) -> Vec<QueryOutput> {
    [1, 2, 1_024]
        .into_iter()
        .map(|morsel_rows| {
            let opts = ExecOptions { morsel_rows, ..opts };
            let want = reference::evaluate(t, q, &opts);
            for parallelism in [1, 2] {
                let got = aqp::query::execute(&DataSource::Wide(t), q, &ExecOptions { parallelism, ..opts }).unwrap();
                let ctx = format!("{morsel_rows}-row morsels @ {parallelism} threads");
                assert_eq!((got.rows_scanned, got.truncated), (want.rows_scanned, want.truncated), "{ctx}");
                reference::assert_same(&want.groups, &got.groups, &ctx);
            }
            want
        })
        .collect()
}

/// The single group of an ungrouped answer.
fn only(out: &QueryOutput) -> &GroupResult {
    assert_eq!(out.groups.len(), 1, "one group");
    &out.groups[0]
}

fn keys(out: &QueryOutput) -> Vec<Vec<Value>> {
    out.groups.iter().map(|g| g.key.clone()).collect()
}

fn count() -> Query {
    Query::builder().count().build().unwrap()
}

fn count_where(e: Expr) -> Query {
    Query::builder().count().filter(e).build().unwrap()
}

#[test]
fn reference_counts_and_sums_by_hand() {
    let t = table(
        &[("g", DataType::Utf8), ("x", DataType::Float64)],
        &[
            vec!["a".into(), 1.0.into()],
            vec!["b".into(), 2.0.into()],
            vec!["a".into(), Value::Null],
            vec!["b".into(), 4.0.into()],
            vec!["a".into(), 5.0.into()],
        ],
    );
    let q = Query::builder()
        .count()
        .sum("x")
        .aggregate(AggExpr::min("x", "min_x"))
        .aggregate(AggExpr::max("x", "max_x"))
        .group_by("g")
        .build()
        .unwrap();
    for out in answers(&t, &q, ExecOptions::default()) {
        assert_eq!(keys(&out), [vec![Value::from("a")], vec![Value::from("b")]]);
        let [a, b] = [&out.groups[0].aggs, &out.groups[1].aggs];
        // COUNT(*) counts the NULL row; SUM / MIN / MAX skip it.
        assert_eq!((a[0].rows, a[0].sum_w), (3, 3.0));
        assert_eq!((a[1].rows, a[1].sum_w, a[1].sum_wx), (2, 2.0, 6.0));
        assert_eq!((a[2].min, a[3].max), (1.0, 5.0));
        assert_eq!((b[0].rows, b[1].sum_wx, b[2].min, b[3].max), (2, 6.0, 2.0, 4.0));
        // Unit weights: no row is sampled, and the variance accumulators
        // stay zero.
        assert_eq!(a[1].sampled_rows, 0);
        assert_eq!((a[1].var_acc, a[1].var_acc_w, a[1].cov_acc), (0.0, 0.0, 0.0));
    }
}

#[test]
fn null_fails_every_leaf_and_not_negates_the_leaf() {
    let t = table(
        &[("k", DataType::Int64)],
        &[vec![1i64.into()], vec![Value::Null], vec![3i64.into()]],
    );
    let gt1 = || Expr::cmp("k", CmpOp::Gt, 1i64);
    let in13 = || Expr::in_set("k", vec![1i64.into(), 3i64.into()]);
    let cases = [
        ("k > 1", count_where(gt1()), 1.0),
        ("NOT k > 1", count_where(Expr::Not(Box::new(gt1()))), 2.0),
        ("k IN (1, 3)", count_where(in13()), 2.0),
        ("NOT k IN (1, 3)", count_where(Expr::Not(Box::new(in13()))), 1.0),
        ("k > 1 OR NOT k > 1", count_where(Expr::Or(vec![gt1(), Expr::Not(Box::new(gt1()))])), 3.0),
        ("k > 1 AND NOT k > 1", count_where(Expr::And(vec![gt1(), Expr::Not(Box::new(gt1()))])), 0.0),
    ];
    for (name, q, want) in cases {
        for out in answers(&t, &q, ExecOptions::default()) {
            assert_eq!(only(&out).aggs[0].sum_w, want, "{name}");
        }
    }
}

#[test]
fn in_list_on_an_integer_column_accepts_integral_float_literals() {
    let t = table(
        &[("k", DataType::Int64)],
        &[vec![1i64.into()], vec![2i64.into()], vec![3i64.into()], vec![Value::Null]],
    );
    let cases = [
        (vec![Value::Float64(2.0), Value::Int64(3)], 2.0),
        (vec![Value::Float64(2.5)], 0.0),
        (vec![Value::Float64(2.5), Value::Float64(1.0)], 1.0),
    ];
    for (values, want) in cases {
        let q = count_where(Expr::in_set("k", values.clone()));
        for out in answers(&t, &q, ExecOptions::default()) {
            assert_eq!(only(&out).aggs[0].sum_w, want, "IN {values:?}");
        }
    }
}

#[test]
fn constant_and_per_row_weights_scale_count_and_sum() {
    let t = xs(&[Some(1.0), Some(2.0), None, Some(4.0)]);
    let q = Query::builder().count().sum("x").build().unwrap();
    let constant = ExecOptions { weight: Weighting::Constant(2.5), ..ExecOptions::default() };
    for out in answers(&t, &q, constant) {
        let [n, s] = [&only(&out).aggs[0], &only(&out).aggs[1]];
        assert_eq!((n.rows, n.sampled_rows, n.sum_w), (4, 4, 10.0));
        assert_eq!((s.rows, s.sampled_rows, s.sum_w, s.sum_wx), (3, 3, 7.5, 17.5));
        // Σ w(w−1) = 3 × 2.5 × 1.5; Σ w(w−1)x = 3.75 × 7; Σ w(w−1)x² = 3.75 × 21.
        assert_eq!((s.var_acc_w, s.cov_acc, s.var_acc), (11.25, 26.25, 78.75));
    }
    let per_row = [1.0, 0.5, 3.0, 2.0];
    let weighted = ExecOptions { weight: Weighting::PerRow(&per_row), ..ExecOptions::default() };
    for out in answers(&t, &q, weighted) {
        let [n, s] = [&only(&out).aggs[0], &only(&out).aggs[1]];
        assert_eq!(n.sum_w, 6.5);
        assert_eq!((s.sum_w, s.sum_wx), (3.5, 10.0));
        // Only rows whose weight is not 1 count as sampled: rows 1–3 for
        // COUNT(*), rows 1 and 3 for SUM (row 2 is NULL).
        assert_eq!((n.sampled_rows, s.sampled_rows), (3, 2));
    }
}

#[test]
fn per_row_weights_index_by_row_not_by_selected_position() {
    // The filter drops row 0, so a kernel that read weights by position
    // in the selection would weigh rows 1..=3 with 10, 20, 30.
    let t = xs(&[Some(1.0), Some(2.0), Some(3.0), Some(4.0)]);
    let q = Query::builder().count().sum("x").filter(Expr::cmp("x", CmpOp::Gt, 1.0f64)).build().unwrap();
    let per_row = [10.0, 20.0, 30.0, 40.0];
    for out in answers(&t, &q, ExecOptions { weight: Weighting::PerRow(&per_row), ..ExecOptions::default() }) {
        let [n, s] = [&only(&out).aggs[0], &only(&out).aggs[1]];
        assert_eq!((n.rows, n.sum_w), (3, 90.0));
        assert_eq!(s.sum_wx, 20.0 * 2.0 + 30.0 * 3.0 + 40.0 * 4.0);
    }
}

#[test]
fn bitmask_exclusion_skips_rows_whose_bits_intersect_the_mask() {
    // Rows carry bits {}, {0}, {1}, {0, 1}.
    let mut t = xs(&[Some(1.0), Some(2.0), Some(4.0), Some(8.0)]);
    let mut masks = BitmaskColumn::new(2);
    for bits in [&[][..], &[0], &[1], &[0, 1]] {
        masks.push(&BitSet::from_bits(2, bits.iter().copied()));
    }
    t.attach_bitmask(masks).unwrap();
    let q = Query::builder().count().sum("x").build().unwrap();
    for (exclude, rows, sum) in [(&[][..], 4, 15.0), (&[0], 2, 5.0), (&[1], 2, 3.0), (&[0, 1], 1, 1.0)] {
        let mask = BitSet::from_bits(2, exclude.iter().copied());
        for out in answers(&t, &q, ExecOptions { bitmask_exclude: Some(&mask), ..ExecOptions::default() }) {
            let g = only(&out);
            assert_eq!((g.aggs[0].rows, g.aggs[1].sum_wx), (rows, sum), "excluding {exclude:?}");
            assert_eq!(out.rows_scanned, 4, "excluded rows are still scanned");
        }
    }
}

#[test]
fn row_limit_scans_a_prefix_and_reports_truncation() {
    let t = xs(&[Some(1.0), Some(2.0), Some(4.0), Some(8.0), Some(16.0)]);
    let q = Query::builder().count().sum("x").build().unwrap();
    for (limit, scanned, truncated, sum) in [(3, 3, true, 7.0), (5, 5, false, 31.0), (9, 5, false, 31.0), (0, 0, true, 0.0)] {
        for out in answers(&t, &q, ExecOptions { row_limit: Some(limit), ..ExecOptions::default() }) {
            assert_eq!((out.rows_scanned, out.truncated), (scanned, truncated), "limit {limit}");
            assert_eq!((only(&out).aggs[0].rows, only(&out).aggs[1].sum_wx), (scanned as u64, sum), "limit {limit}");
        }
    }
}

#[test]
fn float_keys_group_negative_zero_with_zero_and_every_nan_as_one() {
    // Non-canonical spellings come first, so first-seen cannot be the
    // reason a group's key is canonical.
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let negative_nan = -f64::NAN;
    assert!(other_nan.is_nan() && negative_nan.is_nan());
    let t = xs(&[Some(-0.0), Some(other_nan), Some(1.5), Some(0.0), Some(negative_nan), Some(f64::NAN), None]);
    let q = Query::builder().count().group_by("x").build().unwrap();
    for out in answers(&t, &q, ExecOptions::default()) {
        let key_bits: Vec<Option<u64>> = out.groups.iter().map(|g| g.key[0].as_f64().map(f64::to_bits)).collect();
        assert_eq!(key_bits, [Some(0.0f64.to_bits()), Some(f64::NAN.to_bits()), Some(1.5f64.to_bits()), None]);
        let counts: Vec<u64> = out.groups.iter().map(|g| g.aggs[0].rows).collect();
        assert_eq!(counts, [2, 3, 1, 1]);
    }
}

#[test]
fn ungrouped_query_over_no_matching_rows_answers_one_empty_group() {
    let t = xs(&[Some(1.0), Some(2.0), None]);
    let nothing = Expr::cmp("x", CmpOp::Gt, 100.0f64);
    let q = Query::builder().count().sum("x").filter(nothing.clone()).build().unwrap();
    for out in answers(&t, &q, ExecOptions::default()) {
        let g = only(&out);
        assert!(g.key.is_empty());
        for state in &g.aggs {
            assert_eq!((state.rows, state.sum_w, state.sum_wx), (0, 0.0, 0.0));
            assert_eq!((state.min, state.max), (f64::INFINITY, f64::NEG_INFINITY));
        }
    }
    // Grouped, the same filter answers no group at all.
    let grouped = Query::builder().count().group_by("x").filter(nothing).build().unwrap();
    for out in answers(&t, &grouped, ExecOptions::default()) {
        assert!(out.groups.is_empty());
    }
    // And no rows at all is the same as no matching rows.
    for out in answers(&xs(&[]), &count(), ExecOptions::default()) {
        assert_eq!((out.rows_scanned, only(&out).aggs[0].rows), (0, 0));
    }
}

#[test]
fn groups_come_out_in_first_touch_order_across_morsels() {
    let g = ["c", "a", "c", "b", "a", "d"];
    let rows: Vec<Vec<Value>> = g.iter().map(|&s| vec![s.into()]).collect();
    let t = table(&[("g", DataType::Utf8)], &rows);
    let q = Query::builder().count().group_by("g").build().unwrap();
    for out in answers(&t, &q, ExecOptions::default()) {
        let order: Vec<Vec<Value>> = ["c", "a", "b", "d"].iter().map(|&s| vec![s.into()]).collect();
        assert_eq!(keys(&out), order);
        let counts: Vec<f64> = out.groups.iter().map(|g| g.aggs[0].sum_w).collect();
        assert_eq!(counts, [2.0, 2.0, 1.0, 1.0]);
    }
}

#[test]
fn morsel_size_fixes_the_float_fold_order() {
    // At 1e16 the float spacing is 2, so 1e16 + 1 rounds back to 1e16 and
    // −1e16 + 1 to −1e16. In one pass the sum is ((1 + 1e16) − 1e16) + 1
    // = 1; in 2-row morsels it is (1 + 1e16) + (−1e16 + 1) = 0. The
    // executor must land on the same side as the reference at each size:
    // bit equality is a real constraint, not one any order would meet.
    let t = xs(&[Some(1.0), Some(1e16), Some(-1e16), Some(1.0)]);
    let q = Query::builder().sum("x").build().unwrap();
    let sums: Vec<f64> = answers(&t, &q, ExecOptions::default()).iter().map(|o| only(o).aggs[0].sum_wx).collect();
    assert_eq!(sums, [1.0, 0.0, 1.0], "1-, 2- and 1 024-row morsels");
}

#[test]
fn fold_copies_a_key_first_state_and_merges_later_ones_in_plan_order() {
    // Two parts gathered from one table, so they share its dictionary, as
    // the sample tables of one view do.
    let g = ["b", "a", "c", "a", "b"];
    let x = [1.0, 2.0, 4.0, 8.0, 16.0];
    let rows: Vec<Vec<Value>> = g.iter().zip(x).map(|(&g, x)| vec![g.into(), x.into()]).collect();
    let whole = table(&[("g", DataType::Utf8), ("x", DataType::Float64)], &rows);
    let parts = [(whole.gather("p0", &[0, 1]), 1.0), (whole.gather("p1", &[2, 3, 4]), 2.0)];
    let q = Query::builder().count().sum("x").group_by("g").build().unwrap();
    let opts = |w| ExecOptions { weight: Weighting::Constant(w), morsel_rows: 2, ..ExecOptions::default() };

    let want = reference::fold(parts.iter().map(|(t, w)| reference::evaluate(t, &q, &opts(*w)).groups));
    let order: Vec<Vec<Value>> = ["b", "a", "c"].iter().map(|&s| vec![s.into()]).collect();
    assert_eq!(want.iter().map(|g| g.key.clone()).collect::<Vec<_>>(), order);
    let totals: Vec<(u64, f64, f64)> = want.iter().map(|g| (g.aggs[0].rows, g.aggs[0].sum_w, g.aggs[1].sum_wx)).collect();
    assert_eq!(totals, [(2, 3.0, 33.0), (2, 3.0, 18.0), (1, 2.0, 8.0)]);

    // The executor's one-round plan fold, on group codes, agrees.
    for threads in [1, 2] {
        let scans: Vec<PreparedScan<'_>> =
            parts.iter().map(|(t, w)| PreparedScan::new(&DataSource::Wide(t), &q, &opts(*w)).unwrap()).collect();
        let partials = run_scans(&scans, threads, None).unwrap();
        let Ok(mut plan) = PlanGroups::new(&q, &scans) else { panic!("one dictionary") };
        for (scan, partials) in scans.into_iter().zip(partials) {
            plan.absorb(scan.finish(partials));
        }
        let got: Vec<GroupResult> = plan.groups().map(|(key, states)| GroupResult { key, aggs: states.to_vec() }).collect();
        reference::assert_same(&want, &got, &format!("plan fold @ {threads} threads"));
    }
}
