//! Property tests for the vectorised scan kernels.
//!
//! Random tables (dictionary, boolean, integer, and float columns, each
//! with NULLs), random predicates over every compiled kernel form, random
//! group-by subsets — which send the kernels down the dense group-id
//! path, the hash path, or the ungrouped path — and random weightings
//! are executed and held to the row-at-a-time reference in
//! `tests/support/reference.rs`: bit for bit, group order included, in
//! every field of every tally.

#[path = "support/reference.rs"]
mod reference;

use aqp::prelude::*;
use proptest::prelude::*;

const CATS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// One generated row: dict group, bool group, int group, int measure,
/// float measure. `None` encodes NULL.
#[derive(Debug, Clone)]
struct Row {
    g: Option<usize>,
    b: Option<bool>,
    k: Option<i64>,
    x: Option<i64>,
    y: Option<i64>,
}

/// Turn a raw draw into `None` with probability ~3/20 (the vendored
/// proptest has no `option` module, so NULLs are coded by hand).
fn opt<T>(null_draw: u32, v: T) -> Option<T> {
    (null_draw >= 3).then_some(v)
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    collection::vec(
        (
            (0u32..20, 0usize..CATS.len()),
            (0u32..20, 0u32..2),
            (0u32..20, -4i64..4),
            (0u32..20, -50i64..50),
            (0u32..20, 0i64..40),
        )
            .prop_map(|(g, b, k, x, y)| Row {
                g: opt(g.0, g.1),
                b: opt(b.0, b.1 == 0),
                k: opt(k.0, k.1),
                x: opt(x.0, x.1),
                y: opt(y.0, y.1),
            }),
        1..200,
    )
}

/// Predicate shapes covering every compiled kernel: dictionary IN-list,
/// integer compare, float compare, and an AND/OR/NOT combination.
#[derive(Debug, Clone, Copy)]
enum PredKind {
    None,
    DictIn,
    IntCmp,
    FloatCmp,
    Combo,
}

fn pred_kind() -> impl Strategy<Value = PredKind> {
    (0usize..5).prop_map(|i| {
        [
            PredKind::None,
            PredKind::DictIn,
            PredKind::IntCmp,
            PredKind::FloatCmp,
            PredKind::Combo,
        ][i]
    })
}

fn build_pred(kind: PredKind) -> Option<Expr> {
    match kind {
        PredKind::None => None,
        PredKind::DictIn => Some(Expr::in_set("g", vec!["alpha".into(), "gamma".into()])),
        PredKind::IntCmp => Some(Expr::cmp("k", CmpOp::Ge, 0i64)),
        PredKind::FloatCmp => Some(Expr::cmp("y", CmpOp::Lt, 20.0f64)),
        PredKind::Combo => Some(Expr::Or(vec![
            Expr::And(vec![
                Expr::cmp("x", CmpOp::Gt, 0i64),
                Expr::Not(Box::new(Expr::in_set("g", vec!["beta".into()]))),
            ]),
            Expr::cmp("y", CmpOp::Le, 5.0f64),
        ])),
    }
}

/// Group-by subsets: ungrouped, all-dict/bool (dense path), and mixes
/// that include the integer column (hash path).
fn group_sets() -> impl Strategy<Value = Vec<&'static str>> {
    (0usize..6).prop_map(|i| {
        [
            vec![],
            vec!["g"],
            vec!["g", "b"],
            vec!["k"],
            vec!["g", "k"],
            vec!["b", "k", "g"],
        ][i]
        .clone()
    })
}

fn to_table(rows: &[Row]) -> Table {
    let schema = SchemaBuilder::new()
        .field("g", DataType::Utf8)
        .field("b", DataType::Bool)
        .field("k", DataType::Int64)
        .field("x", DataType::Int64)
        .field("y", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    let val = |o: Option<Value>| o.unwrap_or(Value::Null);
    for r in rows {
        t.push_row(&[
            val(r.g.map(|g| CATS[g].into())),
            val(r.b.map(Value::Bool)),
            val(r.k.map(Value::Int64)),
            val(r.x.map(Value::Int64)),
            val(r.y.map(|y| Value::Float64(y as f64))),
        ])
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_match_the_reference(
        rows in rows(),
        kind in pred_kind(),
        groups in group_sets(),
        weighting in 0usize..3,
        threads in 1usize..4,
        morsel_rows in (0usize..3).prop_map(|i| [7usize, 64, 1024][i]),
    ) {
        let table = to_table(&rows);
        let mut b = Query::builder()
            .count()
            .sum("x")
            .aggregate(AggExpr::avg("y", "avg_y"));
        for &g in &groups {
            b = b.group_by(g);
        }
        if let Some(p) = build_pred(kind) {
            b = b.filter(p);
        }
        let q = b.build().unwrap();
        let per_row: Vec<f64> = (0..rows.len()).map(|r| 1.0 + (r % 5) as f64 / 4.0).collect();
        let opts = ExecOptions {
            weight: [Weighting::Unweighted, Weighting::Constant(2.5), Weighting::PerRow(&per_row)][weighting],
            parallelism: threads,
            morsel_rows,
            ..ExecOptions::default()
        };

        let got = aqp::query::execute(&DataSource::Wide(&table), &q, &opts).unwrap();
        let want = reference::evaluate(&table, &q, &opts);
        let diff = reference::first_difference(&want.groups, &got.groups);
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }
}
