//! Property tests for CI-aware semantic-cache reuse soundness.
//!
//! The cache's admission rule is [`AnswerContract::satisfied_by`]; these
//! properties pin it, and the cache built on it, against an independent
//! re-derivation of the reuse conditions:
//!
//! 1. `satisfied_by` agrees with a from-first-principles oracle over
//!    random answers (partial flags, exactness mixes, CI widths,
//!    confidences) and random contracts (confidence + optional
//!    relative-error bound);
//! 2. a [`SemanticCache`] returns a `Hit` for a seeded key **iff** the
//!    stored answer satisfies the incoming contract — never for a looser
//!    answer, always for an equal-or-tighter one — and the hit's frame
//!    carries the incoming query's aliases while leaving estimates
//!    bitwise untouched;
//! 3. reuse never crosses plans (different predicate literal → different
//!    key → miss) nor epochs (`invalidate()` → miss), no matter how
//!    permissive the incoming contract is.

use aqp::prelude::*;
use aqp::serving::protocol::ServedAnswer;
use aqp::serving::{CacheConfig, CacheDecision, Response, SemanticCache};
use proptest::prelude::*;

/// Build a synthetic one-group answer with controlled CI geometry.
/// `halves[i]` is the half-width of value `i`; `None` marks it exact.
fn answer(values: &[(f64, Option<f64>)], confidence: f64, partial: bool) -> ApproxAnswer {
    let vals = values
        .iter()
        .map(|&(value, half)| ApproxValue {
            estimate: Estimate {
                value,
                variance: half.map_or(0.0, |h| h * h),
                design: if half.is_none() { Design::Exact } else { Design::Scaled },
                rows: 0,
            },
            ci: ConfidenceInterval {
                lo: value - half.unwrap_or(0.0),
                hi: value + half.unwrap_or(0.0),
                confidence,
            },
        })
        .collect();
    ApproxAnswer {
        group_names: vec!["g".into()],
        agg_aliases: values.iter().enumerate().map(|(i, _)| format!("a{i}")).collect(),
        groups: vec![ApproxGroup { key: vec![Value::Utf8("k".into())], values: vals }],
        rows_scanned: 1,
        tier: ServingTier::Primary,
        partial,
    }
}

/// Independent restatement of the reuse rule, written as a plain
/// predicate over the drawn geometry rather than over the answer struct.
fn oracle(
    values: &[(f64, Option<f64>)],
    answer_conf: f64,
    partial: bool,
    contract_conf: f64,
    rel_bound: Option<f64>,
) -> bool {
    if partial {
        return false;
    }
    if values.iter().all(|(_, half)| half.is_none()) {
        return true; // all-exact answers are points at every confidence
    }
    if answer_conf + 1e-9 < contract_conf {
        return false;
    }
    match rel_bound {
        None => true,
        Some(b) => values
            .iter()
            .all(|&(v, half)| half.is_none_or(|h| h.is_finite() && h <= b * v.abs())),
    }
}

/// One drawn value: (estimate, exactness draw, half-width).
type RawValue = (f64, u32, f64);

fn values_strategy() -> impl Strategy<Value = Vec<RawValue>> {
    collection::vec((-1000.0f64..1000.0, 0u32..4, 0.0f64..150.0), 1..5)
}

fn geometry(raw: Vec<RawValue>) -> Vec<(f64, Option<f64>)> {
    // Draw 0 of 4 → exact value; otherwise approximate with the drawn
    // half-width (which may be 0.0 — a collapsed but non-exact CI).
    raw.iter().map(|&(v, e, h)| (v, (e != 0).then_some(h))).collect()
}

proptest! {
    /// `satisfied_by` ≡ the independent oracle on random geometry.
    fn satisfied_by_matches_first_principles_oracle(
        raw in values_strategy(),
        answer_conf in 0.5f64..0.999,
        partial_draw in 0u32..4,
        contract_conf in 0.5f64..0.999,
        bound_draw in 0u32..3,
        bound in 0.01f64..2.0,
    ) {
        let values = geometry(raw);
        let partial = partial_draw == 0;
        let rel_bound = (bound_draw != 0).then_some(bound);
        let a = answer(&values, answer_conf, partial);
        let contract = AnswerContract { confidence: contract_conf, max_rel_error: rel_bound };
        prop_assert_eq!(
            contract.satisfied_by(&a, answer_conf),
            oracle(&values, answer_conf, partial, contract_conf, rel_bound),
        );
    }

    /// A seeded cache hits iff the stored answer satisfies the incoming
    /// contract; hits re-skin aliases but keep estimates bitwise intact.
    fn cache_hit_iff_contract_satisfied(
        raw in values_strategy(),
        answer_conf in 0.5f64..0.999,
        partial_draw in 0u32..6,
        contract_conf in 0.5f64..0.999,
        bound_draw in 0u32..3,
        bound in 0.01f64..2.0,
    ) {
        let values = geometry(raw);
        let partial = partial_draw == 0;
        let rel_bound = (bound_draw != 0).then_some(bound);
        // The stored answer has as many aggregates as drawn values; the
        // incoming query's plan must match, only its aliases differ.
        let aggs: Vec<String> =
            (0..values.len()).map(|i| format!("COUNT(*) AS stored{i}")).collect();
        let seed_sql = format!("SELECT g, {} FROM v GROUP BY g", aggs.join(", "));
        let reuse_sql = seed_sql.replace("stored", "fresh");
        let seed = parse_query(&seed_sql).unwrap();
        let reuse = parse_query(&reuse_sql).unwrap();

        let cache = SemanticCache::new(CacheConfig::default());
        let stored = answer(&values, answer_conf, partial);
        let loose = AnswerContract::at_confidence(0.0);
        match cache.decide(&seed.table, &seed.query, &loose, None) {
            CacheDecision::Execute(guard) => guard.complete(&stored, answer_conf, true),
            _ => prop_assert!(false, "fresh cache must miss"),
        }

        let contract = AnswerContract { confidence: contract_conf, max_rel_error: rel_bound };
        let expect_hit = contract.satisfied_by(&stored, answer_conf);
        match cache.decide(&reuse.table, &reuse.query, &contract, None) {
            CacheDecision::Hit(answer, served_conf, cached) => {
                prop_assert!(expect_hit, "hit though contract unsatisfied");
                prop_assert_eq!(served_conf, answer_conf);
                // What the client reads: the hit's frame, decoded.
                let served = ServedAnswer {
                    answer,
                    trace_id: "t".into(),
                    deadline_limited: false,
                    effective_budget: None,
                    elapsed_ms: 0.0,
                    cached: Some(cached),
                };
                let mut json = String::new();
                served.write_json(&mut json);
                let Ok(Response::Answer(served)) = Response::from_json(&json) else {
                    panic!("a hit frames an answer: {json}");
                };
                let aliases: Vec<String> =
                    (0..values.len()).map(|i| format!("fresh{i}")).collect();
                prop_assert_eq!(&served.agg_aliases, &aliases, "hit must re-skin aliases");
                prop_assert!(served.cache_hit);
                for (vs, &(v, _)) in served.groups[0].values.iter().zip(&values) {
                    prop_assert_eq!(vs.estimate.to_bits(), v.to_bits());
                }
            }
            CacheDecision::Execute(_) => {
                prop_assert!(!expect_hit, "miss though contract satisfied");
            }
            CacheDecision::Bypass => prop_assert!(false, "cache is enabled"),
        };
    }

    /// No reuse across differing plans or across an epoch bump, even
    /// under the loosest possible contract.
    fn no_reuse_across_plans_or_epochs(
        lit_a in 0i64..1000,
        lit_offset in 1i64..1000,
        value in -1000.0f64..1000.0,
        half in 0.0f64..150.0,
    ) {
        let lit_b = lit_a + lit_offset; // guaranteed distinct literal
        let sql =
            |lit: i64| format!("SELECT g, COUNT(*) AS c FROM v WHERE x > {lit} GROUP BY g");
        let qa = parse_query(&sql(lit_a)).unwrap();
        let qb = parse_query(&sql(lit_b)).unwrap();
        let loose = AnswerContract::at_confidence(0.0);

        let cache = SemanticCache::new(CacheConfig::default());
        let stored = answer(&[(value, Some(half))], 0.999, false);
        match cache.decide(&qa.table, &qa.query, &loose, None) {
            CacheDecision::Execute(guard) => guard.complete(&stored, 0.999, true),
            _ => prop_assert!(false, "fresh cache must miss"),
        }
        prop_assert!(
            matches!(cache.decide(&qa.table, &qa.query, &loose, None), CacheDecision::Hit(..)),
            "sanity: identical plan hits"
        );

        // Different predicate literal → different key → never a hit.
        prop_assert!(
            matches!(cache.decide(&qb.table, &qb.query, &loose, None), CacheDecision::Execute(_)),
            "distinct plans must not share an entry"
        );

        // Epoch bump → the seeded entry is unreachable.
        let epoch_before = cache.epoch();
        cache.invalidate();
        prop_assert!(cache.epoch() > epoch_before);
        prop_assert!(
            matches!(cache.decide(&qa.table, &qa.query, &loose, None), CacheDecision::Execute(_)),
            "invalidate must drop every prior entry"
        );
    }
}
