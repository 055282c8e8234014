//! Differential oracle for morsel-driven parallel execution.
//!
//! Every answer here is held to the row-at-a-time reference in
//! `tests/support/reference.rs`, bit for bit and in group order, across
//! aggregate types, group-by arities (including past the fast-key limit),
//! NULLs, predicates, weightings (unit, constant and per-row fractional
//! weights), bitmask exclusion and row limits, at 1/2/4/8 threads and
//! morsel sizes on both sides of the inline cutoff. Because the reference
//! fixes the answer independently of the thread count, matching it at
//! every count is the determinism contract: morsel boundaries and the
//! merge order of partial states depend only on the row count, so
//! scheduling can never leak into results.
//!
//! The same holds for the single scheduling round a UNION-ALL plan runs
//! in — part by part for the plan [`SmallGroupSampler`] serves, and for
//! the code-keyed fold that merges the plan's tables (every key space,
//! parts cut from one table with different vocabularies, as a view's
//! sample tables are) — plus all-or-nothing cancellation and per-part
//! profiles.

#[path = "support/reference.rs"]
mod reference;

use aqp::core::answer::state_to_estimate;
use aqp::prelude::*;
use aqp::query::plan::QueryBuilder;
use aqp::query::{run_scans, CancelToken, GroupResult, PlanGroups, PreparedScan, QueryError};
use aqp::sampling::Estimate;
use aqp::storage::{BitSet, BitmaskColumn, Codes};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic splitmix-style generator: no rand dependency, stable
/// across platforms.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let z = *state ^ (*state >> 31);
    z.wrapping_mul(0x9e3779b97f4a7c15) >> 17
}

/// Mixed-type table with NULLs in a group column and both measures.
/// `c0..c6` provide a 7-column grouping set that exceeds the executor's
/// compact-key width and exercises the heap-key fallback.
fn test_table(rows: usize, seed: u64) -> Table {
    let mut b = SchemaBuilder::new()
        .field("cat", DataType::Utf8)
        .field("sub", DataType::Int64);
    for i in 0..7 {
        b = b.field(format!("c{i}"), DataType::Int64);
    }
    let schema = b
        .field("val", DataType::Float64)
        .field("amt", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(1);
    let cats = ["a", "b", "c", "d"];
    for _ in 0..rows {
        let mut row: Vec<Value> = Vec::with_capacity(11);
        row.push(if next(&mut s).is_multiple_of(10) {
            Value::Null
        } else {
            cats[(next(&mut s) % 4) as usize].into()
        });
        row.push(((next(&mut s) % 5) as i64).into());
        for i in 0..7u64 {
            row.push(((next(&mut s) % (i + 2)) as i64).into());
        }
        // Fractional measure: sums depend on accumulation order in the
        // low bits. Integer-valued measure: sums are exact at any order.
        row.push(if next(&mut s).is_multiple_of(8) {
            Value::Null
        } else {
            (0.01 + (next(&mut s) % 13) as f64 / 7.0).into()
        });
        row.push(if next(&mut s).is_multiple_of(9) {
            Value::Null
        } else {
            ((next(&mut s) % 101) as f64).into()
        });
        t.push_row(&row).unwrap();
    }
    t
}

/// The query grid: every aggregate function, 0/1/2/7 grouping columns,
/// and predicates over every compiled form (dict IN-list, int/float
/// comparisons, AND/OR/NOT).
fn query_grid() -> Vec<Query> {
    let all_aggs = |b: QueryBuilder| -> QueryBuilder {
        b.count()
            .sum("val")
            .sum("amt")
            .aggregate(AggExpr::avg("amt", "avg_amt"))
            .aggregate(AggExpr::min("val", "min_val"))
            .aggregate(AggExpr::max("amt", "max_amt"))
    };
    let mut queries = vec![
        all_aggs(Query::builder()).build().unwrap(),
        all_aggs(Query::builder()).group_by("cat").build().unwrap(),
        all_aggs(Query::builder())
            .group_by("cat")
            .group_by("sub")
            .filter(Expr::in_set("cat", vec!["a".into(), "c".into()]))
            .build()
            .unwrap(),
        all_aggs(Query::builder())
            .group_by("sub")
            .filter(Expr::Or(vec![
                Expr::cmp("val", CmpOp::Ge, 0.5f64),
                Expr::Not(Box::new(Expr::cmp("sub", CmpOp::Le, 2i64))),
            ]))
            .build()
            .unwrap(),
        // Predicate selecting nothing: ungrouped must still yield one row.
        Query::builder()
            .count()
            .sum("amt")
            .filter(Expr::cmp("sub", CmpOp::Gt, 99i64))
            .build()
            .unwrap(),
    ];
    // 7-column grouping: past MAX_FAST_KEY, uses the slow-key path.
    let mut seven = Query::builder().count().sum("amt");
    for i in 0..7 {
        seven = seven.group_by(format!("c{i}"));
    }
    queries.push(seven.build().unwrap());
    queries
}

/// `t` with a bitmask column of three bits per row, each set on about a
/// third of the rows.
fn with_bitmask(mut t: Table, seed: u64) -> Table {
    let mut s = seed;
    let mut masks = BitmaskColumn::new(3);
    for _ in 0..t.num_rows() {
        masks.push(&BitSet::from_bits(3, (0..3).filter(|_| next(&mut s).is_multiple_of(3))));
    }
    t.attach_bitmask(masks).unwrap();
    t
}

#[test]
fn parallel_exact_answers_match_naive_reference() {
    // Fractional measures and fractional weights: every float tally
    // depends on the order of its additions, and the reference fixes
    // that order, so bit equality is the whole contract. 64-row morsels
    // make ~40 of them (a threaded round), 1 024-row ones 3 (inline).
    let t = with_bitmask(test_table(2_500, 11), 12);
    let per_row: Vec<f64> = (0..t.num_rows()).map(|r| 0.5 + (r % 17) as f64 / 6.0).collect();
    let mask = BitSet::from_bits(3, [1]);
    let unweighted = ExecOptions::default();
    let variants = [
        ("unweighted", unweighted),
        ("constant weight", ExecOptions { weight: Weighting::Constant(10.0 / 3.0), ..unweighted }),
        ("per-row weights", ExecOptions { weight: Weighting::PerRow(&per_row), ..unweighted }),
        (
            "bitmask-excluded",
            ExecOptions { weight: Weighting::Constant(2.5), bitmask_exclude: Some(&mask), ..unweighted },
        ),
        ("row limit", ExecOptions { row_limit: Some(1_777), ..unweighted }),
    ];
    for (qi, q) in query_grid().iter().enumerate() {
        for (variant, opts) in &variants {
            for morsel_rows in [64, 1_024] {
                let opts = ExecOptions { morsel_rows, ..*opts };
                let want = reference::evaluate(&t, q, &opts);
                for threads in [1, 2, 4, 8] {
                    let opts = ExecOptions { parallelism: threads, ..opts };
                    let got = aqp::query::execute(&DataSource::Wide(&t), q, &opts).unwrap();
                    let ctx = format!("query {qi}, {variant}, {morsel_rows}-row morsels @ {threads} threads");
                    assert_eq!((got.rows_scanned, got.truncated), (want.rows_scanned, want.truncated), "{ctx}");
                    reference::assert_same(&want.groups, &got.groups, &ctx);
                }
            }
        }
    }
}

#[test]
fn parallel_exact_answers_bit_identical_across_threads() {
    // The determinism contract stated directly, executor against itself:
    // at 64-row morsels (~40 on 2 500 rows) any scheduling-dependent
    // merge order would have every chance to show, in the fractional
    // tallies and in the group order (nothing here sorts).
    let t = test_table(2_500, 7);
    let per_row: Vec<f64> = (0..t.num_rows()).map(|r| 0.25 + (r % 11) as f64 / 7.0).collect();
    for (variant, weight) in [("unweighted", Weighting::Unweighted), ("per-row weights", Weighting::PerRow(&per_row))] {
        for (qi, q) in query_grid().iter().enumerate() {
            let run = |threads| {
                let opts = ExecOptions { parallelism: threads, morsel_rows: 64, weight, ..ExecOptions::default() };
                aqp::query::execute(&DataSource::Wide(&t), q, &opts).unwrap()
            };
            let base = run(1);
            for threads in [2, 4, 8] {
                let par = run(threads);
                let ctx = format!("query {qi}, {variant} @ {threads} threads");
                assert_eq!(par.rows_scanned, base.rows_scanned, "{ctx}");
                reference::assert_same(&base.groups, &par.groups, &ctx);
            }
        }
    }
}

/// Zone-map block size (mirrors `aqp_storage::ZONE_BLOCK_ROWS`).
const BLOCK: usize = 4096;

/// A fact table clustered on `k` (ascending, so each block holds a
/// disjoint range of it), as in `diff_prune.rs`: `f` mirrors `k` with
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

#[test]
fn sampler_union_all_parts_match_the_reference_part_by_part() {
    // The sampler answers with a UNION ALL of weighted, bitmask-filtered
    // scans. Rebuild its plan from the public surface — `plan_tables` in
    // plan order; each small group table at weight 1 excluding rows of
    // the tables before it; the overall sample at weight 1/rate
    // excluding all of them — and hold every part's scan to the
    // reference, then the served estimates and intervals to the
    // reference parts folded in plan order. Nothing here sorts.
    //
    // The second input is clustered over 40 zone-map blocks, so its
    // overall sample spans four, and `k < 10 × 4096` lets the served plan
    // skip some of them. The reference never prunes: bit equality with it
    // is the identity of pruned and unpruned answers on the paper's
    // UNION ALL, and the trace shows that pruning engaged.
    let mixed_queries = [
        Query::builder().count().group_by("cat").build().unwrap(),
        Query::builder()
            .count()
            .sum("amt")
            .aggregate(AggExpr::avg("val", "avg_val"))
            .group_by("cat")
            .group_by("sub")
            .build()
            .unwrap(),
        Query::builder()
            .sum("val")
            .filter(Expr::in_set("cat", vec!["a".into(), "b".into()]))
            .build()
            .unwrap(),
    ];
    let clustered_queries = [
        Query::builder().count().group_by("cat").build().unwrap(),
        Query::builder()
            .count()
            .sum("amt")
            .aggregate(AggExpr::avg("val", "avg_val"))
            .group_by("cat")
            .filter(Expr::cmp("k", CmpOp::Lt, (10 * BLOCK) as i64))
            .build()
            .unwrap(),
    ];
    sampler_parts_match_the_reference(&test_table(3_000, 17), &mixed_queries, "mixed");
    let clustered = clustered_table(40 * BLOCK, 17);
    let skipped = sampler_parts_match_the_reference(&clustered, &clustered_queries, "clustered");
    assert!(skipped > 0, "the clustered input's served plans skipped no block");
}

/// The test above for the sampler over `t`: returns the zone-map blocks
/// the served answers skipped.
fn sampler_parts_match_the_reference(t: &Table, queries: &[Query], input: &str) -> u64 {
    let mut sampler = SmallGroupSampler::build(
        t,
        SmallGroupConfig { seed: 5, ..SmallGroupConfig::with_rates(0.1, 0.5) },
    )
    .unwrap();
    let units = sampler.sample_columns();
    let mut blocks_skipped = 0;
    for (qi, q) in queries.iter().enumerate() {
        let mut excluded = Vec::new();
        let mut parts = Vec::new();
        for name in sampler.plan_tables(q) {
            let table = sampler.tables().find(|t| t.name() == name).unwrap().clone();
            let mask = BitSet::from_bits(units.len().max(1), excluded.iter().copied());
            match units.iter().position(|u| format!("sg_{u}") == name) {
                Some(unit) => {
                    excluded.push(unit);
                    parts.push((table, mask, 1.0));
                }
                None => parts.push((table, mask, 1.0 / sampler.overall_rate())),
            }
        }
        assert_eq!(parts.last().unwrap().0.name(), "overall", "{input} query {qi}");
        for threads in [1, 2, 4, 8] {
            sampler.set_threads(threads);
            let ctx = format!("{input} query {qi} @ {threads} threads");
            let mut want = Vec::new();
            for (table, mask, weight) in &parts {
                let opts = ExecOptions {
                    weight: Weighting::Constant(*weight),
                    bitmask_exclude: Some(mask),
                    parallelism: threads,
                    ..ExecOptions::default()
                };
                let part = reference::evaluate(table, q, &opts);
                let got = aqp::query::execute(&DataSource::Wide(table), q, &opts).unwrap();
                reference::assert_same(&part.groups, &got.groups, &format!("{ctx}, part {}", table.name()));
                want.push(part.groups);
            }
            let want = reference::fold(want);
            assert!(aqp::obs::trace::begin("sampler plan"));
            let answer = sampler.answer(q, 0.95).unwrap();
            let trace = aqp::obs::trace::finish().expect("trace open");
            blocks_skipped += trace.operators.iter().map(|op| op.blocks_skipped).sum::<u64>();
            assert_eq!(answer.groups.len(), want.len(), "{ctx}: group count");
            for (w, g) in want.iter().zip(&answer.groups) {
                assert_eq!(w.key, g.key, "{ctx}: group order");
                for ((agg, state), v) in q.aggregates.iter().zip(&w.aggs).zip(&g.values) {
                    let estimate = state_to_estimate(agg.func, state, v.is_exact())
                        .unwrap_or_else(|| Estimate::with_variance(0.0, f64::INFINITY));
                    let ci = estimate.confidence_interval(0.95);
                    assert_eq!(
                        [estimate.value, ci.lo, ci.hi].map(f64::to_bits),
                        [v.value(), v.ci.lo, v.ci.hi].map(f64::to_bits),
                        "{ctx}: {} for {:?}",
                        agg.alias,
                        w.key
                    );
                }
            }
        }
    }
    blocks_skipped
}

#[test]
fn union_all_rewrite_plan_bit_identical_across_threads() {
    // The sampler's answer path is the paper's UNION ALL over strata
    // (small-group tables + bitmask-filtered overall sample). Thread
    // count must not perturb a single bit of estimate or interval, nor
    // the order the groups come out in (nothing here sorts).
    let t = test_table(3_000, 3);
    let mut sampler = SmallGroupSampler::build(
        &t,
        SmallGroupConfig {
            seed: 5,
            ..SmallGroupConfig::with_rates(0.1, 0.5)
        },
    )
    .unwrap();

    let queries = [
        Query::builder().count().group_by("cat").build().unwrap(),
        Query::builder()
            .count()
            .sum("amt")
            .aggregate(AggExpr::avg("val", "avg_val"))
            .group_by("cat")
            .group_by("sub")
            .build()
            .unwrap(),
        Query::builder()
            .sum("val")
            .filter(Expr::in_set("cat", vec!["a".into(), "b".into()]))
            .build()
            .unwrap(),
    ];

    for (qi, q) in queries.iter().enumerate() {
        sampler.set_threads(1);
        let base = sampler.answer(q, 0.95).unwrap();
        for threads in [2, 4, 8] {
            sampler.set_threads(threads);
            let par = sampler.answer(q, 0.95).unwrap();
            assert_eq!(base.groups.len(), par.groups.len(), "query {qi} @ {threads}");
            for (a, b) in base.groups.iter().zip(&par.groups) {
                assert_eq!(a.key, b.key, "query {qi} @ {threads}");
                for (va, vb) in a.values.iter().zip(&b.values) {
                    assert_eq!(
                        va.value().to_bits(),
                        vb.value().to_bits(),
                        "query {qi} @ {threads}: estimate for {:?}",
                        a.key
                    );
                    assert_eq!(va.ci.lo.to_bits(), vb.ci.lo.to_bits(), "query {qi} @ {threads}");
                    assert_eq!(va.ci.hi.to_bits(), vb.ci.hi.to_bits(), "query {qi} @ {threads}");
                    assert_eq!(va.is_exact(), vb.is_exact(), "query {qi} @ {threads}");
                }
            }
        }
    }
}

#[test]
fn parallel_sgs_build_produces_identical_families() {
    // Parallel preprocessing: per-worker group-frequency histograms are
    // merged in morsel order before the small-group/overall split, so the
    // resulting sample family must be byte-identical at any thread count.
    let t = test_table(3_000, 9);
    let build = |threads: usize| {
        SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                seed: 5,
                preprocess_threads: threads,
                ..SmallGroupConfig::with_rates(0.1, 0.5)
            },
        )
        .unwrap()
    };
    let base = build(1);
    let q = Query::builder()
        .count()
        .sum("amt")
        .group_by("cat")
        .build()
        .unwrap();
    let mut base_ans = base.answer(&q, 0.95).unwrap();
    base_ans.sort_by_key();
    for threads in [2, 4, 8] {
        let other = build(threads);
        assert_eq!(
            base.catalog().to_string(),
            other.catalog().to_string(),
            "catalog @ {threads} threads"
        );
        let mut ans = other.answer(&q, 0.95).unwrap();
        ans.sort_by_key();
        assert_eq!(base_ans.groups.len(), ans.groups.len());
        for (a, b) in base_ans.groups.iter().zip(&ans.groups) {
            assert_eq!(a.key, b.key);
            for (va, vb) in a.values.iter().zip(&b.values) {
                assert_eq!(va.value().to_bits(), vb.value().to_bits(), "build @ {threads}");
            }
        }
    }
}

fn part_opts(weight: f64, morsel_rows: usize) -> ExecOptions<'static> {
    ExecOptions {
        weight: Weighting::Constant(weight),
        morsel_rows,
        ..ExecOptions::default()
    }
}

/// A UNION-ALL plan the way `answer_from_parts` runs it: every part
/// prepared, the morsels of all parts in ONE scheduling round, then each
/// part folded in morsel order and the parts folded on group codes in
/// plan order, each key decoded once at the end.
fn union_all_in_one_round(parts: &[(Table, f64)], q: &Query, threads: usize, morsel_rows: usize) -> Vec<GroupResult> {
    let scans: Vec<PreparedScan<'_>> = parts
        .iter()
        .map(|(table, weight)| {
            PreparedScan::new(&DataSource::Wide(table), q, &part_opts(*weight, morsel_rows)).unwrap()
        })
        .collect();
    let partials = run_scans(&scans, threads, None).unwrap();
    let Ok(mut plan) = PlanGroups::new(q, &scans) else {
        panic!("parts on one dictionary")
    };
    for (scan, partials) in scans.into_iter().zip(partials) {
        plan.absorb(scan.finish(partials));
    }
    plan.groups().map(|(key, states)| GroupResult { key, aggs: states.to_vec() }).collect()
}

/// `parts` cut back out of one table of all their rows — row ranges
/// gathered in plan order — so that they share one dictionary per column,
/// as the sample tables of one view do.
fn cut_from_one_table(parts: Vec<(Table, f64)>) -> Vec<(Table, f64)> {
    let mut whole = Table::empty("whole", Arc::clone(parts[0].0.schema()));
    for (t, _) in &parts {
        for row in 0..t.num_rows() {
            whole.push_row(&t.row(row)).unwrap();
        }
    }
    let mut start = 0;
    (parts.iter())
        .map(|(t, weight)| {
            let rows: Vec<usize> = (start..start + t.num_rows()).collect();
            start += t.num_rows();
            (whole.gather(t.name(), &rows), *weight)
        })
        .collect()
}

/// The same plan through the reference: each part evaluated row at a
/// time on decoded values, folded in plan order — what the single round
/// and the code-keyed fold must reproduce bit for bit, order included.
fn union_all_reference(parts: &[(Table, f64)], q: &Query, morsel_rows: usize) -> Vec<GroupResult> {
    reference::fold(
        parts.iter().map(|(table, weight)| reference::evaluate(table, q, &part_opts(*weight, morsel_rows)).groups),
    )
}

#[test]
fn union_all_single_round_bit_identical_on_both_sides_of_the_inline_cutoff() {
    // Three strata of 64-row morsels whose total morsel count walks
    // across the executor's inline cutoff (16 morsels at the time of
    // writing; the sweep covers 3..=40, so the cutoff may move): below it
    // the round runs on the caller's thread, from it on one scoped round
    // serves all three parts. Either way, and at every thread count, the
    // fold must equal the reference's plan-order fold to the last bit.
    let queries = query_grid();
    for total_morsels in [3usize, 8, 14, 15, 16, 17, 18, 24, 40] {
        // Part sizes: a short first stratum, a ragged middle one (its
        // last morsel is partial), the rest in the last.
        let first = 1;
        let middle = (total_morsels - 1) / 2;
        let last = total_morsels - first - middle;
        let parts = cut_from_one_table(vec![
            (test_table(first * 64, 21), 1.0),
            (test_table(middle * 64 - 17, 22), 2.5),
            (test_table(last * 64, 23), 10.0 / 3.0),
        ]);
        for (qi, q) in queries.iter().enumerate() {
            let want = union_all_reference(&parts, q, 64);
            for threads in [1, 2, 4, 8] {
                let got = union_all_in_one_round(&parts, q, threads, 64);
                let ctx = format!("{total_morsels} morsels, query {qi} @ {threads} threads");
                reference::assert_same(&want, &got, &ctx);
            }
        }
    }
}

/// Dictionary-heavy table: `d0..d6` are strings (seven of them: past the
/// fast-key width), `n` an integer, `amt` an integer-valued measure.
/// Strings are `v<k>` for `k` in `vocab`, drawn in a seed-dependent
/// order, and `d0..d2` are NULL about one row in `null_every`.
fn dict_table(rows: usize, seed: u64, vocab: std::ops::Range<u64>, null_every: u64) -> Table {
    let mut b = SchemaBuilder::new();
    for i in 0..7 {
        b = b.field(format!("d{i}"), DataType::Utf8);
    }
    let schema = b
        .field("n", DataType::Int64)
        .field("amt", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(1);
    let span = vocab.end - vocab.start;
    for _ in 0..rows {
        let mut row: Vec<Value> = Vec::with_capacity(9);
        for i in 0..7u64 {
            let null = i < 3 && next(&mut s).is_multiple_of(null_every);
            row.push(if null {
                Value::Null
            } else {
                format!("v{}", vocab.start + next(&mut s) % span.min(i + 2)).into()
            });
        }
        row.push(((next(&mut s) % 4) as i64).into());
        row.push(((next(&mut s) % 101) as f64).into());
        t.push_row(&row).unwrap();
    }
    t
}

fn dict_queries() -> Vec<Query> {
    let aggs = || Query::builder().count().sum("amt").aggregate(AggExpr::avg("amt", "avg_amt"));
    let mut seven = aggs();
    for i in 0..7 {
        seven = seven.group_by(format!("d{i}"));
    }
    vec![
        // One dictionary column, NULL keys.
        aggs().group_by("d0").build().unwrap(),
        // NULL keys in several columns at once.
        aggs().group_by("d0").group_by("d1").group_by("d2").build().unwrap(),
        // Dictionary + integer: a wide key.
        aggs().group_by("n").group_by("d1").build().unwrap(),
        // Seven dictionary columns: heap keys.
        seven.build().unwrap(),
        // Ungrouped: one row per table, one row across tables.
        aggs().build().unwrap(),
        // Ungrouped over a value only the later tables hold ...
        aggs().filter(Expr::in_set("d6", vec!["v11".into()])).build().unwrap(),
        // ... and over no row at all: still exactly one row.
        aggs().filter(Expr::cmp("n", CmpOp::Gt, 99i64)).build().unwrap(),
    ]
}

/// The fold of `parts` under `q` must equal the reference's — every bit,
/// and the group order — at 1/2/8 threads, with morsel sizes on both
/// sides of the inline cutoff. The reference keys groups by decoded
/// values, so this also proves every part's codes decode through the one
/// dictionary the parts share.
fn assert_code_keyed_fold_matches_reference(parts: &[(Table, f64)], q: &Query, ctx: &str) {
    let rows: usize = parts.iter().map(|(t, _)| t.num_rows()).sum();
    // ~9 morsels (inline), ~16 (the cutoff), ~70 (threaded).
    for morsel_rows in [rows / 8, rows / 15, rows / 70] {
        let want = union_all_reference(parts, q, morsel_rows);
        for threads in [1, 2, 8] {
            let got = union_all_in_one_round(parts, q, threads, morsel_rows);
            reference::assert_same(&want, &got, &format!("{ctx}, {morsel_rows}-row morsels @ {threads} threads"));
        }
    }
}

#[test]
fn plan_fold_across_parts_whose_vocabularies_differ() {
    // Three parts over overlapping vocabularies (v0..v9, v4..v13,
    // v8..v17): each holds strings the others lack, so each uses a
    // different slice of the dictionary they share.
    let parts = cut_from_one_table(vec![
        (dict_table(900, 41, 0..10, 6), 1.0),
        (dict_table(1_400, 42, 4..14, 9), 1.0),
        (dict_table(700, 43, 8..18, 4), 1.0),
    ]);
    for (qi, q) in dict_queries().iter().enumerate() {
        assert_code_keyed_fold_matches_reference(&parts, q, &format!("query {qi}"));
    }
    // Fractional weights: the fold order is all that keeps this stable.
    let weighted = [parts[0].clone(), (parts[1].0.clone(), 2.5), (parts[2].0.clone(), 10.0 / 3.0)];
    for (qi, q) in dict_queries().iter().enumerate() {
        assert_code_keyed_fold_matches_reference(&weighted, q, &format!("weighted query {qi}"));
    }
}

/// String columns `h0..` of exactly `cards[i]` distinct values each
/// (`h<shift>` .. `h<shift + card - 1>`; the first `card` rows list them
/// all), three rows in four drawn from the first four values so groups
/// recur within and across morsels, plus an integer-valued measure.
fn card_table(rows: usize, cards: &[u64], seed: u64, shift: u64) -> Table {
    let mut b = SchemaBuilder::new();
    for i in 0..cards.len() {
        b = b.field(format!("h{i}"), DataType::Utf8);
    }
    let schema = b.field("amt", DataType::Float64).build().unwrap();
    let mut t = Table::empty("t", schema);
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(1);
    for r in 0..rows as u64 {
        let mut row: Vec<Value> = Vec::with_capacity(cards.len() + 1);
        for &card in cards {
            let v = if r < card {
                r
            } else if !next(&mut s).is_multiple_of(4) {
                next(&mut s) % card.min(4)
            } else {
                next(&mut s) % card
            };
            row.push(format!("h{}", v + shift).into());
        }
        row.push(((next(&mut s) % 101) as f64).into());
        t.push_row(&row).unwrap();
    }
    t
}

fn group_by_all_h(columns: usize) -> Query {
    let mut b = Query::builder().count().sum("amt");
    for i in 0..columns {
        b = b.group_by(format!("h{i}"));
    }
    b.build().unwrap()
}

/// The `kernel` label the executor reports for `q` over `t`.
fn kernel_label(t: &Table, q: &Query) -> String {
    assert!(aqp::obs::trace::begin("kernel label"));
    aqp::query::execute(&DataSource::Wide(t), q, &ExecOptions::default()).unwrap();
    let trace = aqp::obs::trace::finish().expect("trace open");
    trace.operators[0].kernel.clone()
}

#[test]
fn plan_fold_around_the_dense_slot_cap_and_past_u64() {
    // (89+1)·(90+1) = 8 190 keys: under the 8 192-slot cap, the radix key
    // indexes the accumulator directly.
    let below = cut_from_one_table(vec![
        (card_table(1_200, &[89, 90], 51, 0), 1.0),
        (card_table(900, &[89, 90], 52, 0), 2.5),
    ]);
    assert_eq!(kernel_label(&below[0].0, &group_by_all_h(2)), "vectorized-dense");
    assert_code_keyed_fold_matches_reference(&below, &group_by_all_h(2), "below the cap");

    // (90+1)·(90+1) = 8 281 keys: over it, the same number is interned.
    let above = cut_from_one_table(vec![
        (card_table(1_200, &[90, 90], 53, 0), 1.0),
        (card_table(900, &[90, 90], 54, 0), 2.5),
    ]);
    assert_eq!(kernel_label(&above[0].0, &group_by_all_h(2)), "vectorized-hash");
    assert_code_keyed_fold_matches_reference(&above, &group_by_all_h(2), "above the cap");

    // A part's key space is its shared dictionary's, not its own rows':
    // the first part uses 89 × 90 strings, but the second's shift makes
    // the dictionaries 129 × 130, past the cap for both.
    let shifted = cut_from_one_table(vec![
        (card_table(1_200, &[89, 90], 51, 0), 1.0),
        (card_table(900, &[89, 90], 52, 40), 2.5),
    ]);
    assert_eq!(kernel_label(&shifted[0].0, &group_by_all_h(2)), "vectorized-hash");
    assert_code_keyed_fold_matches_reference(&shifted, &group_by_all_h(2), "shifted past the cap");

    // 3 001⁶ ≈ 7.3e20 keys: past u64. The product must be caught, not
    // wrapped — a wrapped radix would alias distinct keys and merge groups
    // the decoded merge keeps apart.
    let past_u64 = cut_from_one_table(vec![
        (card_table(2_400, &[2_000; 6], 57, 0), 1.0),
        (card_table(2_100, &[2_000; 6], 58, 1_000), 2.5),
    ]);
    assert_code_keyed_fold_matches_reference(&past_u64, &group_by_all_h(6), "past u64");
    let groups = union_all_in_one_round(&past_u64, &group_by_all_h(6), 1, 4_096);
    let distinct: std::collections::HashSet<&Vec<Value>> = groups.iter().map(|g| &g.key).collect();
    assert_eq!(distinct.len(), groups.len(), "every group has a key of its own");
    assert!(groups.len() > 2_000, "the 2 000 all-distinct rows of each table are groups: {}", groups.len());
}

/// A string column `g` of exactly `card` distinct values (`g<shift>` ..
/// `g<shift + card - 1>`; the first `card` rows list them all, later ones
/// redraw them, one in nine NULL), an integer `k` of three values and an
/// integer-valued measure `amt`.
fn width_table(rows: usize, card: u64, seed: u64, shift: u64) -> Table {
    let schema = SchemaBuilder::new()
        .field("g", DataType::Utf8)
        .field("k", DataType::Int64)
        .field("amt", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(1);
    for r in 0..rows as u64 {
        let g = if r >= card && next(&mut s).is_multiple_of(9) {
            Value::Null
        } else {
            format!("g{}", shift + if r < card { r } else { next(&mut s) % card }).into()
        };
        t.push_row(&[g, ((next(&mut s) % 3) as i64).into(), ((next(&mut s) % 101) as f64).into()]).unwrap();
    }
    t
}

#[test]
fn plan_fold_across_parts_at_their_shared_dictionarys_width() {
    // `g` holds 200 strings in the first part (u8 codes on a dictionary
    // of its own) and 300 in the second, 100 of them shared: cut from one
    // table, both parts store u16 codes into its 400-entry dictionary.
    let parts = cut_from_one_table(vec![
        (width_table(1_500, 200, 61, 0), 1.0),
        (width_table(2_000, 300, 62, 100), 2.5),
    ]);
    let codes = |t: &Table| t.column_by_name("g").unwrap().as_utf8().unwrap().0.clone();
    assert!(matches!(codes(&width_table(1_500, 200, 61, 0)), Codes::U8(_)));
    assert!(matches!(codes(&parts[0].0), Codes::U16(_)));
    assert!(matches!(codes(&parts[1].0), Codes::U16(_)));

    let aggs = || Query::builder().count().sum("amt");
    let in_list = || Expr::in_set("g", ["g5", "g150", "g250", "g399", "g999"].map(Value::from).to_vec());
    let queries = [
        ("radix key", "vectorized-dense", aggs().group_by("g").build().unwrap()),
        ("hashed key", "vectorized-hash", aggs().group_by("g").group_by("k").build().unwrap()),
        ("dictionary IN-list", "vectorized-dense", aggs().group_by("g").filter(in_list()).build().unwrap()),
        ("IN-list, ungrouped", "vectorized-dense", aggs().filter(in_list()).build().unwrap()),
    ];
    for (label, kernel, q) in &queries {
        for (t, _) in &parts {
            assert_eq!(&kernel_label(t, q), kernel, "{label}");
        }
        for morsel_rows in [64, 1_000] {
            let want = union_all_reference(&parts, q, morsel_rows);
            assert!(want.len() > 1 || q.group_by.is_empty(), "{label}: groups from both parts");
            for threads in [1, 2, 4, 8] {
                let got = union_all_in_one_round(&parts, q, threads, morsel_rows);
                reference::assert_same(&want, &got, &format!("{label}, {morsel_rows}-row morsels @ {threads} threads"));
            }
        }
    }
}

#[test]
fn answer_group_order_is_first_seen_in_plan_order_and_repeatable() {
    // `ApproxAnswer::groups` used to come out in the iteration order of a
    // randomly seeded map: two identical calls disagreed. Now the order is
    // first-seen in plan order, so consecutive calls agree without sorting
    // — and it is not key order either, or sorting would be a no-op.
    let t = test_table(3_000, 3);
    let sampler = SmallGroupSampler::build(
        &t,
        SmallGroupConfig { seed: 5, ..SmallGroupConfig::with_rates(0.1, 0.5) },
    )
    .unwrap();
    let q = Query::builder().count().sum("amt").group_by("cat").group_by("sub").build().unwrap();
    let first = sampler.answer(&q, 0.95).unwrap();
    assert!(first.groups.len() > 10);
    for _ in 0..5 {
        let again = sampler.answer(&q, 0.95).unwrap();
        let keys = |a: &ApproxAnswer| a.groups.iter().map(|g| g.key.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&first), keys(&again), "same call, same group order");
    }
    let mut sorted = first.clone();
    sorted.sort_by_key();
    assert_ne!(
        first.groups.iter().map(|g| &g.key).collect::<Vec<_>>(),
        sorted.groups.iter().map(|g| &g.key).collect::<Vec<_>>(),
        "first-seen order, not key order"
    );
}

#[test]
fn fold_time_per_morsel_group_stays_flat_when_groups_per_morsel_grow_tenfold() {
    // Two tables of 40 morsels each; every morsel holds every group twice.
    // 200 groups a morsel against 2 000: ten times the (morsel × group)
    // entries to build, fold per table and fold across tables, and — at a
    // fixed two rows per entry — ten times the rows. A flat table does ten
    // times the work; per-group allocations, or a map that re-hashes as it
    // regrows from empty in every morsel, grow faster than that. 30x sits
    // far from 10x, so host noise cannot flip the verdict.
    let parts = |groups: u64| -> Vec<(Table, f64)> {
        let parts = [61u64, 67]
            .iter()
            .map(|&seed| {
                let schema = SchemaBuilder::new()
                    .field("a", DataType::Utf8)
                    .field("b", DataType::Utf8)
                    .field("c", DataType::Utf8)
                    .field("amt", DataType::Float64)
                    .build()
                    .unwrap();
                let mut t = Table::empty("t", schema);
                for r in 0..groups * 2 * 40 {
                    // 21³ = 9 261 keys: past the dense cap at both sizes.
                    let g = (r.wrapping_mul(seed)) % groups;
                    let name = |p: &str, v: u64| -> Value { format!("{p}{v}").into() };
                    t.push_row(&[
                        name("a", g % 20),
                        name("b", (g / 20) % 20),
                        name("c", g / 400),
                        ((r % 7) as f64).into(),
                    ])
                    .unwrap();
                }
                (t, 2.0)
            })
            .collect();
        cut_from_one_table(parts)
    };
    let q = Query::builder().count().sum("amt").group_by("a").group_by("b").group_by("c").build().unwrap();
    // Best of several runs each: interference only ever adds time.
    let best = |parts: &[(Table, f64)], morsel_rows: usize, runs: usize| {
        (0..runs)
            .map(|_| {
                let started = Instant::now();
                let answer = union_all_in_one_round(parts, &q, 1, morsel_rows);
                let took = started.elapsed();
                assert_eq!(answer.len() * 2 * 40, parts[0].0.num_rows());
                took
            })
            .min()
            .expect("at least one run")
    };
    let (small, large) = (parts(200), parts(2_000));
    let (small_took, large_took) = (best(&small, 400, 20), best(&large, 4_000, 5));
    let ratio = large_took.as_secs_f64() / small_took.as_secs_f64();
    assert!(
        ratio < 30.0,
        "80 morsels x 2000 groups took {large_took:?}, x 200 groups {small_took:?}: {ratio:.0}x for 10x the entries"
    );
}

#[test]
fn sampler_plan_past_the_inline_cutoff_bit_identical_across_threads() {
    // `union_all_rewrite_plan_bit_identical_across_threads` runs plans of
    // a few hundred sample rows — a handful of morsels, always inline. A
    // 90 % sample of 80k rows is ~18 default-size morsels plus the small
    // group tables: the sampler's own plan through a threaded round.
    let t = test_table(80_000, 29);
    let mut sampler = SmallGroupSampler::build(
        &t,
        SmallGroupConfig {
            seed: 5,
            ..SmallGroupConfig::with_rates(0.9, 0.5)
        },
    )
    .unwrap();
    let q = Query::builder()
        .count()
        .sum("val")
        .aggregate(AggExpr::avg("amt", "avg_amt"))
        .group_by("cat")
        .group_by("sub")
        .filter(Expr::cmp("c6", CmpOp::Le, 5i64))
        .build()
        .unwrap();
    sampler.set_threads(1);
    let base = sampler.answer(&q, 0.95).unwrap();
    assert!(base.rows_scanned > 16 * 4096, "plan of {} rows is past the cutoff", base.rows_scanned);
    for threads in [2, 4, 8] {
        sampler.set_threads(threads);
        let par = sampler.answer(&q, 0.95).unwrap();
        assert_eq!(base.rows_scanned, par.rows_scanned);
        assert_eq!(base.groups.len(), par.groups.len(), "@ {threads}");
        for (a, b) in base.groups.iter().zip(&par.groups) {
            assert_eq!(a.key, b.key, "@ {threads}");
            for (va, vb) in a.values.iter().zip(&b.values) {
                assert_eq!(va.value().to_bits(), vb.value().to_bits(), "@ {threads}: {:?}", a.key);
                assert_eq!(va.ci.lo.to_bits(), vb.ci.lo.to_bits(), "@ {threads}: ci.lo");
                assert_eq!(va.ci.hi.to_bits(), vb.ci.hi.to_bits(), "@ {threads}: ci.hi");
                assert_eq!(va.is_exact(), vb.is_exact(), "@ {threads}");
            }
        }
    }
}

#[test]
fn token_tripped_mid_plan_cancels_the_whole_plan() {
    // 3 x 2500 one-row morsels take far longer than the 200 µs the
    // deadline allows, so the token trips while the round is under way
    // (or, on a stalled host, before it starts — the outcome is the same).
    // The plan must come back as `Cancelled`, at every thread count, and
    // no part may have been folded: `finish` is what records an operator
    // profile, and the trace must hold none.
    let parts = [test_table(2_500, 31), test_table(2_500, 32), test_table(2_500, 33)];
    let q = query_grid().swap_remove(2);
    for threads in [1, 4] {
        let scans: Vec<PreparedScan<'_>> = parts
            .iter()
            .map(|t| {
                let opts = ExecOptions { morsel_rows: 1, ..ExecOptions::default() };
                PreparedScan::new(&DataSource::Wide(t), &q, &opts).unwrap()
            })
            .collect();
        assert!(aqp::obs::trace::begin("cancelled plan"));
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_micros(200));
        let outcome = run_scans(&scans, threads, Some(&token));
        let trace = aqp::obs::trace::finish().expect("trace open");
        assert!(
            matches!(outcome, Err(QueryError::Cancelled { deadline: true })),
            "@ {threads} threads: a tripped deadline is a timeout, not an answer"
        );
        assert!(trace.operators.is_empty(), "@ {threads} threads: a part was folded");

        // An explicit cancel reports as a cancellation, not a timeout.
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(
            run_scans(&scans, threads, Some(&token)),
            Err(QueryError::Cancelled { deadline: false })
        ));
    }

    // The same through the sampler, which picks the token up ambiently.
    let t = test_table(3_000, 3);
    let sampler = SmallGroupSampler::build(
        &t,
        SmallGroupConfig { seed: 5, ..SmallGroupConfig::with_rates(0.1, 0.5) },
    )
    .unwrap();
    let token = CancelToken::new();
    token.cancel();
    let _installed = aqp::query::cancel::install(token);
    let q = Query::builder().count().group_by("cat").build().unwrap();
    assert!(matches!(sampler.answer(&q, 0.95), Err(AqpError::Cancelled { .. })));
}

#[test]
fn per_part_operator_profiles_reconcile_with_rows_scanned() {
    // One scheduling round per plan, but still one operator profile per
    // part, in plan order, each accounting for exactly its own table.
    let t = test_table(80_000, 29);
    let mut sampler = SmallGroupSampler::build(
        &t,
        SmallGroupConfig { seed: 5, ..SmallGroupConfig::with_rates(0.9, 0.5) },
    )
    .unwrap();
    let q = Query::builder()
        .count()
        .group_by("cat")
        .filter(Expr::cmp("sub", CmpOp::Le, 2i64))
        .build()
        .unwrap();
    for threads in [1, 4] {
        sampler.set_threads(threads);
        assert!(aqp::obs::trace::begin("profiled plan"));
        let answer = sampler.answer(&q, 0.95).unwrap();
        let trace = aqp::obs::trace::finish().expect("trace open");
        let ops = &trace.operators;
        assert!(ops.len() >= 2, "small-group table(s) plus the overall sample: {ops:?}");
        assert_eq!(ops.last().unwrap().stratum, "overall", "plan order: overall sample last");
        assert!(ops[..ops.len() - 1].iter().all(|op| op.stratum == "small-group"));
        let rows_in: u64 = ops.iter().map(|op| op.rows_in).sum();
        assert_eq!(rows_in as usize, answer.rows_scanned, "@ {threads}: Σ rows_in");
        for op in ops {
            let ctx = format!("{} @ {threads} threads", op.op);
            assert_eq!(op.morsels, op.rows_in.div_ceil(4096), "{ctx}: morsel count");
            assert_eq!(op.morsels_per_worker.iter().sum::<u64>(), op.morsels, "{ctx}: claims");
            assert!(op.morsels_per_worker.len() <= threads, "{ctx}: workers");
            assert!(op.rows_out <= op.rows_in, "{ctx}: rows out");
        }
        // The predicate keeps 3 of 5 `sub` values: every part filters.
        let rows_out: u64 = ops.iter().map(|op| op.rows_out).sum();
        assert!(rows_out > 0 && rows_out < rows_in, "@ {threads}: Σ rows_out {rows_out}");
    }
}
