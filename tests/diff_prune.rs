//! Differential oracle for zone-map block pruning.
//!
//! The pruning contract is absolute: with pruning **on** (the default,
//! `PruneMode::Auto`), every query answer — group order, every tally
//! field, every estimate — is *bit-identical* to the same query with
//! pruning **off**, and both to the row-at-a-time reference in
//! `tests/support/reference.rs`, at every thread count, at morsel sizes
//! that do and do not align with the 4096-row zone-map blocks. Pruning
//! may only change how much work the scan does, never what it answers.
//!
//! The table is *clustered* (sorted by the range column, dictionary
//! values per block) so that real `SkipAll`/`TakeAll` verdicts fire — a
//! second trace-backed test asserts pruning actually engaged, so these
//! oracles can never pass vacuously against a Scan-everything plan. The
//! sampler's pruned UNION ALL is held to the (never pruning) reference
//! part by part in `diff_parallel.rs`.

#[path = "support/reference.rs"]
mod reference;

use aqp::prelude::*;

/// Zone-map block size (mirrors `aqp_storage::ZONE_BLOCK_ROWS`).
const BLOCK: usize = 4096;

/// Deterministic splitmix-style generator, as in `diff_parallel.rs`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let z = *state ^ (*state >> 31);
    z.wrapping_mul(0x9e3779b97f4a7c15) >> 17
}

/// Clustered fact table spanning several zone-map blocks plus a ragged
/// tail: `k` ascends (disjoint per-block ranges), `f` mirrors it with
/// noise, `cat` changes value per block, `nh` is ~90% NULL, and the two
/// measures carry NULLs of their own.
fn clustered_table(rows: usize, seed: u64) -> Table {
    let schema = SchemaBuilder::new()
        .field("k", DataType::Int64)
        .field("f", DataType::Float64)
        .field("cat", DataType::Utf8)
        .field("nh", DataType::Int64)
        .field("val", DataType::Float64)
        .field("amt", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("fact", schema);
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(1);
    let cats = ["aa", "bb", "cc", "dd"];
    for r in 0..rows {
        t.push_row(&[
            Value::Int64(r as i64),
            Value::Float64(r as f64 + (next(&mut s) % 7) as f64 / 8.0),
            cats[r / BLOCK % cats.len()].into(),
            if next(&mut s).is_multiple_of(10) {
                Value::Int64((next(&mut s) % 5) as i64)
            } else {
                Value::Null
            },
            if next(&mut s).is_multiple_of(8) {
                Value::Null
            } else {
                Value::Float64(0.01 + (next(&mut s) % 13) as f64 / 7.0)
            },
            Value::Float64((next(&mut s) % 101) as f64),
        ])
        .unwrap();
    }
    t
}

/// Predicates covering every compiled leaf the prune planner understands
/// (int/float compares, dict IN-lists, int IN-lists) plus combinators,
/// the NULL-heavy column, and an empty-match query.
fn query_grid(rows: usize) -> Vec<Query> {
    let b = BLOCK as i64;
    let build = |pred: Option<Expr>, group: &[&str]| {
        let mut q = Query::builder()
            .count()
            .sum("val")
            .sum("amt")
            .aggregate(AggExpr::avg("amt", "avg_amt"))
            .aggregate(AggExpr::min("val", "min_val"))
            .aggregate(AggExpr::max("amt", "max_amt"));
        for g in group {
            q = q.group_by(*g);
        }
        if let Some(p) = pred {
            q = q.filter(p);
        }
        q.build().unwrap()
    };
    vec![
        // Low selectivity: most blocks SkipAll, the first TakeAll.
        build(Some(Expr::cmp("k", CmpOp::Lt, b / 2)), &["cat"]),
        // High selectivity: every full block TakeAll.
        build(Some(Expr::cmp("k", CmpOp::Ge, 0i64)), &["cat"]),
        // Float range straddling a block boundary: mixed Scan blocks.
        build(Some(Expr::cmp("f", CmpOp::Le, 1.5 * b as f64)), &["cat"]),
        // Dict IN-list: per-block presence bitmaps decide.
        build(Some(Expr::in_set("cat", vec!["bb".into(), "dd".into()])), &["cat"]),
        // Int IN-list with one hit per distant block.
        build(
            Some(Expr::in_set("k", vec![Value::Int64(7), Value::Int64(b * 2 + 9)])),
            &[],
        ),
        // Combinator over two columns with a NOT.
        build(
            Some(Expr::Or(vec![
                Expr::And(vec![
                    Expr::cmp("k", CmpOp::Ge, b),
                    Expr::Not(Box::new(Expr::in_set("cat", vec!["cc".into()]))),
                ]),
                Expr::cmp("f", CmpOp::Lt, 64.0),
            ])),
            &["cat"],
        ),
        // NULL-heavy column: NULLs fail leaves, TakeAll must never fire.
        build(Some(Expr::cmp("nh", CmpOp::Ge, 0i64)), &["nh"]),
        // Empty match: ungrouped still answers one row; every block skips.
        build(Some(Expr::cmp("k", CmpOp::Gt, rows as i64 + 10)), &[]),
    ]
}

fn run(
    table: &Table,
    q: &Query,
    pruning: PruneMode,
    threads: usize,
    morsel_rows: usize,
) -> aqp::query::QueryOutput {
    let opts = ExecOptions {
        parallelism: threads,
        morsel_rows,
        pruning,
        ..ExecOptions::default()
    };
    aqp::query::execute(&DataSource::Wide(table), q, &opts).unwrap()
}

#[test]
fn pruned_answers_bit_identical_to_unpruned() {
    // 3 full blocks + a ragged tail; morsel sizes both block-aligned
    // (4096) and straddling block boundaries (1500).
    let rows = BLOCK * 3 + 777;
    let t = clustered_table(rows, 7);
    for (qi, q) in query_grid(rows).iter().enumerate() {
        for morsel_rows in [BLOCK, 1500] {
            let want = reference::evaluate(&t, q, &ExecOptions { morsel_rows, ..ExecOptions::default() });
            for threads in [1, 2, 4, 8] {
                for pruning in [PruneMode::Off, PruneMode::Auto] {
                    let got = run(&t, q, pruning, threads, morsel_rows);
                    let ctx = format!("query {qi} @ {threads} threads, pruning {pruning:?}, morsel {morsel_rows}");
                    assert_eq!(got.rows_scanned, want.rows_scanned, "{ctx}: rows_scanned");
                    reference::assert_same(&want.groups, &got.groups, &ctx);
                }
            }
        }
    }
}

#[test]
fn pruning_engages_and_reports_block_outcomes() {
    // The oracle above would pass vacuously if pruning never fired; this
    // pins the effect. Trace collection is control-thread-only, so the
    // profile is observable right here.
    let rows = BLOCK * 3;
    let t = clustered_table(rows, 11);
    let q = Query::builder()
        .count()
        .sum("amt")
        .filter(Expr::cmp("k", CmpOp::Lt, (BLOCK / 2) as i64))
        .build()
        .unwrap();

    assert!(aqp::obs::trace::begin("pruned scan"));
    let opts = ExecOptions {
        parallelism: 2,
        pruning: PruneMode::Auto,
        ..ExecOptions::default()
    };
    let out = aqp::query::execute(&DataSource::Wide(&t), &q, &opts).unwrap();
    let trace = aqp::obs::trace::finish().expect("trace open");
    assert_eq!(out.groups[0].aggs[0].rows, (BLOCK / 2) as u64);
    let op = &trace.operators[0];
    assert_eq!(
        op.blocks_skipped + op.blocks_taken + op.blocks_scanned,
        3,
        "every block accounted for: {op:?}"
    );
    assert_eq!(op.blocks_skipped, 2, "blocks 1 and 2 cannot match k < {}", BLOCK / 2);
    assert_eq!(op.rows_pruned, 2 * BLOCK as u64);

    // Pruning off: the same scan reports no block outcomes at all.
    assert!(aqp::obs::trace::begin("unpruned scan"));
    let opts = ExecOptions {
        parallelism: 2,
        pruning: PruneMode::Off,
        ..ExecOptions::default()
    };
    aqp::query::execute(&DataSource::Wide(&t), &q, &opts).unwrap();
    let trace = aqp::obs::trace::finish().expect("trace open");
    let op = &trace.operators[0];
    assert_eq!(
        (op.blocks_skipped, op.blocks_taken, op.blocks_scanned, op.rows_pruned),
        (0, 0, 0, 0),
        "pruning off reports zeros: {op:?}"
    );
}
