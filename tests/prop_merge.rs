//! Property tests for partial-aggregate-state merging — the algebra the
//! morsel-driven executor relies on.
//!
//! Update streams use exactly-representable values (small integers for
//! `x`, small positive integers for `w`), so every tally field is an
//! integer far below 2^53 and float addition is *exact*. Under exact
//! arithmetic the merge must be associative and order-insensitive
//! bit-for-bit; any structural mistake in [`AggState::merge`] or in the
//! executor's two folds of flat group tables — morsels into a scan
//! (`PreparedScan::finish`), scans into a plan ([`PlanGroups`]) — (a
//! missed field, a swapped min/max, a dropped empty state, a key merged
//! into the wrong slot or decoded through the wrong dictionary) shows up
//! as a hard bit mismatch against the one-pass reference: the
//! row-at-a-time evaluator of `tests/support/reference.rs` over the whole
//! stream as a single morsel. The executor's determinism for *inexact*
//! streams is the morsel-order reference comparison in
//! `tests/diff_parallel.rs`.

#[path = "support/reference.rs"]
mod reference;

use aqp::prelude::*;
use aqp::query::{execute, run_scans, AggState, GroupResult, PlanGroups, PreparedScan};
use proptest::prelude::*;
use reference::same_bits;

/// One update: measure value, weight, and whether the measure is NULL
/// (a NULL still counts the row for COUNT(*) but must not touch the
/// column tallies — mirroring the executor's per-aggregate behaviour).
type Update = (i64, u64, bool);

fn updates() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec(
        (-50i64..50, 1u64..5, 0u32..4).prop_map(|(x, w, n)| (x, w, n == 0)),
        0..120,
    )
}

/// Apply a slice of updates the way the executor's scan does: slot 0 is
/// COUNT(*) (always updates with x = 1), slot 1 is SUM/AVG over the
/// measure (skips NULLs entirely).
fn apply(updates: &[Update]) -> [AggState; 2] {
    let mut count = AggState::new();
    let mut sum = AggState::new();
    for &(x, w, is_null) in updates {
        count.update(1.0, w as f64);
        if !is_null {
            sum.update(x as f64, w as f64);
        }
    }
    [count, sum]
}

fn merged(parts: &[&[Update]]) -> [AggState; 2] {
    let mut acc = [AggState::new(), AggState::new()];
    for part in parts {
        let s = apply(part);
        acc[0].merge(&s[0]);
        acc[1].merge(&s[1]);
    }
    acc
}

/// A keyed update stream as a table the executor can scan — key column
/// `k` (a string per key, so the scan's keys are radix numbers over a
/// dictionary built in order of appearance, or the integer itself, so
/// they are wide keys; key 0 is NULL), nullable measure `x` — plus the
/// per-row weights.
fn keyed_table(items: &[(u32, Update)], dict_keys: bool) -> (Table, Vec<f64>) {
    let key_type = if dict_keys { DataType::Utf8 } else { DataType::Int64 };
    let schema = SchemaBuilder::new()
        .field("k", key_type)
        .field("x", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    for &(k, (x, _, is_null)) in items {
        let key: Value = match (k, dict_keys) {
            (0, _) => Value::Null,
            (k, true) => format!("key{k}").into(),
            (k, false) => (k as i64).into(),
        };
        let x: Value = if is_null { Value::Null } else { (x as f64).into() };
        t.push_row(&[key, x]).unwrap();
    }
    (t, items.iter().map(|&(_, (_, w, _))| w as f64).collect())
}

fn keyed_query() -> Query {
    Query::builder().count().sum("x").group_by("k").build().unwrap()
}

/// The reference: the whole stream as one table scanned in one morsel —
/// one pass, groups in order of first appearance.
fn keyed_reference(items: &[(u32, Update)], dict_keys: bool) -> Vec<GroupResult> {
    let (table, weights) = keyed_table(items, dict_keys);
    let opts = ExecOptions {
        weight: Weighting::PerRow(&weights),
        morsel_rows: items.len(),
        ..ExecOptions::default()
    };
    reference::evaluate(&table, &keyed_query(), &opts).groups
}

fn keyed_items() -> impl Strategy<Value = Vec<(u32, Update)>> {
    proptest::collection::vec(
        (0u32..6, -50i64..50, 1u64..5, 0u32..4).prop_map(|(k, x, w, n)| (k, (x, w, n == 0))),
        0..120,
    )
}

/// Split `v` into chunks at positions derived from `cuts`.
fn split<'a>(v: &'a [Update], cuts: &[usize]) -> Vec<&'a [Update]> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (v.len() + 1)).collect();
    bounds.push(0);
    bounds.push(v.len());
    bounds.sort_unstable();
    bounds.dedup();
    bounds.windows(2).map(|w| &v[w[0]..w[1]]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Splitting an update stream at arbitrary points and merging the
    /// partial states in order reproduces the sequential state exactly.
    #[test]
    fn split_merge_equals_sequential(
        ups in updates(),
        cuts in proptest::collection::vec(0usize..200, 0..6),
    ) {
        let sequential = apply(&ups);
        let parts = split(&ups, &cuts);
        let folded = merged(&parts);
        prop_assert!(same_bits(&sequential[0], &folded[0]), "COUNT slot");
        prop_assert!(same_bits(&sequential[1], &folded[1]), "SUM slot");
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), per field,
    /// bit-for-bit.
    #[test]
    fn merge_is_associative(
        a in updates(),
        b in updates(),
        c in updates(),
    ) {
        for slot in 0..2 {
            let (sa, sb, sc) = (apply(&a)[slot], apply(&b)[slot], apply(&c)[slot]);
            let mut left = sa;
            left.merge(&sb);
            left.merge(&sc);
            let mut right_tail = sb;
            right_tail.merge(&sc);
            let mut right = sa;
            right.merge(&right_tail);
            prop_assert!(same_bits(&left, &right), "slot {slot}");
        }
    }

    /// Merge order does not matter for exact streams: any rotation of the
    /// chunk list folds to the same state.
    #[test]
    fn merge_is_order_insensitive(
        ups in updates(),
        cuts in proptest::collection::vec(0usize..200, 0..5),
        rot in 0usize..8,
    ) {
        let parts = split(&ups, &cuts);
        let base = merged(&parts);
        let mut rotated = parts.clone();
        rotated.rotate_left(rot % parts.len().max(1));
        let other = merged(&rotated);
        prop_assert!(same_bits(&base[0], &other[0]));
        prop_assert!(same_bits(&base[1], &other[1]));
    }

    /// Empty morsels are identities: merging fresh states in anywhere —
    /// including as the accumulator's first operand, where min/max start
    /// at ±∞ — changes nothing.
    #[test]
    fn empty_states_are_identity(ups in updates(), n_empties in 1usize..4) {
        let full = apply(&ups);
        for (slot, state) in full.iter().enumerate() {
            // Empties before.
            let mut acc = AggState::new();
            for _ in 0..n_empties {
                acc.merge(&AggState::new());
            }
            acc.merge(state);
            prop_assert!(same_bits(&acc, state), "prefix empties, slot {slot}");
            // Empties after.
            let mut acc = *state;
            for _ in 0..n_empties {
                acc.merge(&AggState::new());
            }
            prop_assert!(same_bits(&acc, state), "suffix empties, slot {slot}");
        }
    }

    /// The per-scan fold: a keyed stream scanned in morsels of any size
    /// — each morsel a flat partial table, folded in morsel order —
    /// equals the one-pass reference: groups union in order of first
    /// appearance, shared keys merge per slot, keys seen in only one
    /// morsel carry over untouched; in both key spaces, at 1–4 threads.
    #[test]
    fn morsel_fold_matches_concatenation(
        keyed in keyed_items(),
        morsel_rows in 1usize..130,
        dict_keys in 0u32..2,
        threads in 1usize..5,
    ) {
        let dict_keys = dict_keys == 1;
        let (table, weights) = keyed_table(&keyed, dict_keys);
        let opts = ExecOptions {
            weight: Weighting::PerRow(&weights),
            morsel_rows,
            parallelism: threads,
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&table), &keyed_query(), &opts).unwrap();
        let diff = reference::first_difference(&keyed_reference(&keyed, dict_keys), &out.groups);
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }

    /// The cross-table fold: the stream cut into consecutive tables —
    /// each with a dictionary of its own, so the same string has
    /// different codes in different tables and some strings are missing
    /// from some — scanned as one plan and folded on codes equals the
    /// one-pass reference, group order included, and every key decodes
    /// to the right values.
    #[test]
    fn plan_fold_matches_concatenation(
        keyed in keyed_items(),
        cuts in proptest::collection::vec(0usize..120, 0..3),
        morsel_rows in 1usize..130,
        dict_keys in 0u32..2,
    ) {
        let dict_keys = dict_keys == 1;
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (keyed.len() + 1)).collect();
        bounds.extend([0, keyed.len()]);
        bounds.sort_unstable();
        let parts: Vec<(Table, Vec<f64>)> =
            bounds.windows(2).map(|w| keyed_table(&keyed[w[0]..w[1]], dict_keys)).collect();
        let query = keyed_query();
        let scans: Vec<PreparedScan<'_>> = parts
            .iter()
            .map(|(table, weights)| {
                let opts = ExecOptions {
                    weight: Weighting::PerRow(weights),
                    morsel_rows,
                    ..ExecOptions::default()
                };
                PreparedScan::new(&DataSource::Wide(table), &query, &opts).unwrap()
            })
            .collect();
        let partials = run_scans(&scans, 1, None).unwrap();
        let mut plan = PlanGroups::new(&scans).unwrap();
        for (scan, partials) in scans.into_iter().zip(partials) {
            plan.absorb(scan.finish(partials));
        }
        let got: Vec<GroupResult> =
            plan.groups().map(|(key, states)| GroupResult { key, aggs: states.to_vec() }).collect();
        let diff = reference::first_difference(&keyed_reference(&keyed, dict_keys), &got);
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }
}
