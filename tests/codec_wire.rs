//! Differential and robustness tests for the streaming answer codec.
//!
//! `Response::to_json` writes an answer straight into one string and
//! `Response::from_json` reads it straight off the tokenizer. The
//! `Value`-tree encoder they replaced is kept here, as the reference the
//! bytes are compared against: the wire format did not change, so the two
//! must agree on every answer, to the byte. The reference prints the tree
//! itself, numbers through std's `Display` and strings one char at a
//! time, so it shares no formatting code with the encoder under test.

use aqp::obs::json::{self, Value as Json};
use aqp::prelude::*;
use aqp::serving::protocol::{CachedFrame, ServedAnswer, WireGroup, WireValue};
use aqp::serving::{CacheConfig, CacheDecision, Response, SemanticCache, WireAnswer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A number as the wire has always written it, by std alone: an integral
/// value below 10^15 in magnitude through `i64`'s `Display`, any other
/// finite value through `f64`'s (shortest round trip, no exponent), and a
/// non-finite one as `null`. `-0.0` keeps the float path, which writes
/// `-0`.
fn reference_number(out: &mut String, v: f64) {
    if v.abs() < 1e15 && v.trunc() == v && !(v == 0.0 && v.is_sign_negative()) {
        out.push_str(&(v as i64).to_string());
    } else if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

/// A JSON string literal, escaped one char at a time.
fn reference_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Print a tree compactly, with the reference number and string text.
fn reference_write(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => reference_number(out, *n),
        Json::Str(s) => reference_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_write(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_string(out, k);
                out.push(':');
                reference_write(out, v);
            }
            out.push('}');
        }
    }
}

/// The encoder as it was before answers were streamed: build the whole
/// frame as a [`Json`] tree, then print the tree.
fn reference_to_json(a: &WireAnswer) -> String {
    let strings = |items: &[String]| Json::Arr(items.iter().map(|s| s.as_str().into()).collect());
    let groups = a
        .groups
        .iter()
        .map(|g| {
            let values = g
                .values
                .iter()
                .map(|v| {
                    Json::Obj(vec![
                        ("estimate".into(), v.estimate.into()),
                        ("lo".into(), v.lo.into()),
                        ("hi".into(), v.hi.into()),
                        ("exact".into(), v.exact.into()),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("key".into(), Json::Arr(g.key.clone())),
                ("values".into(), Json::Arr(values)),
            ])
        })
        .collect();
    let mut members: Vec<(String, Json)> = vec![
        ("status".into(), "ok".into()),
        ("trace_id".into(), a.trace_id.as_str().into()),
        ("tier".into(), a.tier.as_str().into()),
        ("partial".into(), a.partial.into()),
        ("deadline_limited".into(), a.deadline_limited.into()),
        ("cache_hit".into(), a.cache_hit.into()),
        ("rows_scanned".into(), a.rows_scanned.into()),
        ("elapsed_ms".into(), a.elapsed_ms.into()),
        ("group_names".into(), strings(&a.group_names)),
        ("agg_aliases".into(), strings(&a.agg_aliases)),
        ("groups".into(), Json::Arr(groups)),
    ];
    if let Some(budget) = a.effective_budget {
        members.insert(6, ("effective_budget".into(), budget.into()));
    }
    let mut out = String::new();
    reference_write(&mut out, &Json::Obj(members));
    out
}

const STRINGS: [&str; 10] = [
    "",
    "plain",
    "with \"quotes\" and \\backslashes\\",
    "line\nbreak\ttab\rreturn",
    "control \u{1}\u{8}\u{c}\u{1f} chars",
    "multi-byte ≈ é 日本語",
    "beyond the BMP 😀🚀",
    "\\u0041 is not an escape here",
    "trailing backslash \\",
    "/slashes/ and 'single' quotes",
];

const FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.5,
    0.1,
    1e-9,
    123_456.789,
    34_256.0,
    5e-324,                     // smallest subnormal
    2.225_073_858_507_201e-308, // largest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    9_007_199_254_740_993.0, // past 2^53
];

fn pick_float(rng: &mut StdRng) -> f64 {
    if rng.random_bool(0.5) {
        FLOATS[rng.random_range(0..FLOATS.len())]
    } else {
        (rng.random::<f64>() - 0.5) * 10f64.powi(rng.random_range(-12..13i32))
    }
}

/// A bound: mostly finite, sometimes one of the values JSON cannot carry.
fn pick_bound(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        _ => pick_float(rng),
    }
}

fn pick_key(rng: &mut StdRng) -> Value {
    match rng.random_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Int64(rng.random_range(-1_000_000..1_000_000i64)),
        2 => Value::Float64(pick_float(rng)),
        3 => Value::Bool(rng.random()),
        _ => Value::Utf8(STRINGS[rng.random_range(0..STRINGS.len())].to_string()),
    }
}

/// A random in-memory answer: 0–4 group-by columns, 0–40 groups (an
/// ungrouped answer has exactly one), 1–3 aggregates.
fn random_answer(rng: &mut StdRng) -> ApproxAnswer {
    let columns = rng.random_range(0..5usize);
    let aggregates = rng.random_range(1..4usize);
    let groups = if columns == 0 {
        1
    } else {
        rng.random_range(0..41usize)
    };
    let name = |rng: &mut StdRng| STRINGS[rng.random_range(1..STRINGS.len())].to_string();
    ApproxAnswer {
        group_names: (0..columns).map(|_| name(rng)).collect(),
        agg_aliases: (0..aggregates).map(|_| name(rng)).collect(),
        groups: (0..groups)
            .map(|_| ApproxGroup {
                key: (0..columns).map(|_| pick_key(rng)).collect(),
                values: (0..aggregates)
                    .map(|_| {
                        let exact = rng.random_bool(0.4);
                        let value = if rng.random_bool(0.1) {
                            pick_bound(rng)
                        } else {
                            pick_float(rng)
                        };
                        let (lo, hi) = if exact {
                            (value, value)
                        } else {
                            (pick_bound(rng), pick_bound(rng))
                        };
                        ApproxValue {
                            estimate: Estimate {
                                value,
                                variance: rng.random(),
                                design: if exact { Design::Exact } else { Design::Scaled },
                                rows: 0,
                            },
                            ci: ConfidenceInterval {
                                lo,
                                hi,
                                confidence: 0.95,
                            },
                        }
                    })
                    .collect(),
            })
            .collect(),
        rows_scanned: rng.random_range(0..10_000_000usize),
        tier: [
            ServingTier::Primary,
            ServingTier::DegradedPrimary,
            ServingTier::Overall,
            ServingTier::Exact,
        ][rng.random_range(0..4usize)],
        partial: rng.random(),
    }
}

fn random_wire(rng: &mut StdRng) -> WireAnswer {
    let answer = random_answer(rng);
    let budget = rng
        .random_bool(0.5)
        .then(|| rng.random_range(0..5_000_000usize));
    let trace_id = STRINGS[rng.random_range(0..STRINGS.len())].to_string();
    WireAnswer::from_answer(
        &answer,
        rng.random(),
        budget,
        pick_float(rng).abs(),
        rng.random(),
        trace_id,
    )
}

/// What decoding the encoding of `v` must give: JSON has no non-finite
/// numbers, they travel as `null`, and the decoder's placeholder for a
/// missing bound is NaN and for a missing estimate 0.
fn as_decoded(v: &WireValue) -> WireValue {
    let or = |x: f64, placeholder: f64| if x.is_finite() { x } else { placeholder };
    WireValue {
        estimate: or(v.estimate, 0.0),
        lo: or(v.lo, f64::NAN),
        hi: or(v.hi, f64::NAN),
        exact: v.exact,
    }
}

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_key(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => same_f64(*x, *y),
        _ => a == b,
    }
}

/// Bit-exact comparison (`==` on the structs would call `-0.0 == 0.0`
/// equal and `NaN == NaN` different).
fn assert_decodes_to(decoded: &WireAnswer, sent: &WireAnswer, ctx: &str) {
    assert_eq!(decoded.trace_id, sent.trace_id, "{ctx}");
    assert_eq!(decoded.tier, sent.tier, "{ctx}");
    assert_eq!(
        (decoded.partial, decoded.deadline_limited, decoded.cache_hit),
        (sent.partial, sent.deadline_limited, sent.cache_hit),
        "{ctx}"
    );
    assert_eq!(decoded.rows_scanned, sent.rows_scanned, "{ctx}");
    assert_eq!(decoded.effective_budget, sent.effective_budget, "{ctx}");
    assert!(
        same_f64(decoded.elapsed_ms, sent.elapsed_ms),
        "{ctx}: elapsed_ms"
    );
    assert_eq!(decoded.group_names, sent.group_names, "{ctx}");
    assert_eq!(decoded.agg_aliases, sent.agg_aliases, "{ctx}");
    assert_eq!(
        decoded.groups.len(),
        sent.groups.len(),
        "{ctx}: group count"
    );
    for (d, s) in decoded.groups.iter().zip(&sent.groups) {
        assert_eq!(d.key.len(), s.key.len(), "{ctx}: key width");
        assert!(
            d.key.iter().zip(&s.key).all(|(a, b)| same_key(a, b)),
            "{ctx}: key {:?} vs {:?}",
            d.key,
            s.key
        );
        assert_eq!(d.values.len(), s.values.len(), "{ctx}: value count");
        for (dv, sv) in d.values.iter().zip(&s.values) {
            let want = as_decoded(sv);
            let same = same_f64(dv.estimate, want.estimate)
                && same_f64(dv.lo, want.lo)
                && same_f64(dv.hi, want.hi)
                && dv.exact == want.exact;
            assert!(same, "{ctx}: {dv:?} vs {want:?}");
        }
    }
}

#[test]
fn streamed_bytes_equal_the_tree_encoder_and_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let (mut empty, mut ungrouped, mut budgeted, mut nulls) = (0, 0, 0, 0);
    for case in 0..400 {
        let wire = random_wire(&mut rng);
        empty += usize::from(wire.groups.is_empty());
        ungrouped += usize::from(wire.group_names.is_empty());
        budgeted += usize::from(wire.effective_budget.is_some());
        let json = Response::Answer(wire.clone()).to_json();
        nulls += usize::from(json.contains("\"lo\":null"));
        assert_eq!(
            json,
            reference_to_json(&wire),
            "case {case}: bytes differ from the tree encoder"
        );
        match Response::from_json(&json) {
            Ok(Response::Answer(back)) => assert_decodes_to(&back, &wire, &format!("case {case}")),
            other => panic!("case {case}: decoded to {other:?}"),
        }
        // The generic parser reads the same document.
        assert!(json::parse(&json).is_ok(), "case {case}");
    }
    // The generator reached every class the comparison is meant to cover.
    assert!(
        empty > 0 && ungrouped > 0 && nulls > 0,
        "{empty} {ungrouped} {nulls}"
    );
    assert!(budgeted > 0 && budgeted < 400, "{budgeted}");
}

#[test]
fn from_answer_orders_groups_like_sort_by_key() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..100 {
        let answer = random_answer(&mut rng);
        let wire = WireAnswer::from_answer(&answer, false, None, 0.0, false, String::new());
        let mut sorted = answer.clone();
        sorted.sort_by_key();
        assert_eq!(wire.groups.len(), sorted.groups.len());
        for (w, s) in wire.groups.iter().zip(&sorted.groups) {
            for (wv, sv) in w.values.iter().zip(&s.values) {
                assert!(
                    same_f64(wv.estimate, sv.value())
                        && same_f64(wv.lo, sv.ci.lo)
                        && same_f64(wv.hi, sv.ci.hi)
                );
            }
        }
    }
}

/// What the server writes for `answer` (in key order), fresh or, with
/// `cached`, as a cache hit, against what
/// `Response::Answer(WireAnswer::from_answer(&expected, ..))` writes
/// through the tree encoder, under a random envelope.
fn assert_served_bytes(
    expected: &ApproxAnswer,
    answer: Arc<ApproxAnswer>,
    cached: Option<CachedFrame>,
    trace_id: String,
    rng: &mut StdRng,
    ctx: &str,
) -> String {
    let budget = rng
        .random_bool(0.5)
        .then(|| rng.random_range(0..5_000_000usize));
    let (deadline_limited, elapsed_ms) = (rng.random(), pick_float(rng).abs());
    let wire = WireAnswer::from_answer(
        expected,
        deadline_limited,
        budget,
        elapsed_ms,
        cached.is_some(),
        trace_id.clone(),
    );
    let served = ServedAnswer {
        answer,
        trace_id,
        deadline_limited,
        effective_budget: budget,
        elapsed_ms,
        cached,
    };
    let mut json = String::new();
    served.write_json(&mut json);
    assert_eq!(
        json,
        reference_to_json(&wire),
        "{ctx}: bytes differ from the tree encoder"
    );
    json
}

#[test]
fn served_answers_write_the_bytes_of_from_answer() {
    let mut rng = StdRng::seed_from_u64(0x5E2FED);
    let (mut exact_cells, mut null_bounds) = (0, 0);
    let mut key_kinds = [0usize; 5];
    for case in 0..400 {
        let mut answer = random_answer(&mut rng);
        answer.sort_by_key();
        for g in &answer.groups {
            exact_cells += g.values.iter().filter(|v| v.is_exact()).count();
            null_bounds += g
                .values
                .iter()
                .filter(|v| !v.ci.lo.is_finite() || !v.ci.hi.is_finite())
                .count();
            for k in &g.key {
                key_kinds[match k {
                    Value::Null => 0,
                    Value::Int64(_) => 1,
                    Value::Float64(_) => 2,
                    Value::Bool(_) => 3,
                    Value::Utf8(_) => 4,
                }] += 1;
            }
        }
        // A hit's frame copies the groups text its entry keeps, written
        // here by this first hit.
        let cached = rng.random_bool(0.5).then(CachedFrame::default);
        let trace_id = STRINGS[rng.random_range(0..STRINGS.len())].to_string();
        let answer = Arc::new(answer);
        assert_served_bytes(
            &answer,
            Arc::clone(&answer),
            cached,
            trace_id,
            &mut rng,
            &format!("case {case}"),
        );
    }
    assert!(
        exact_cells > 100 && null_bounds > 100,
        "{exact_cells} {null_bounds}"
    );
    assert!(key_kinds.iter().all(|&n| n > 50), "{key_kinds:?}");
}

fn count_by(group: &str, alias: &str) -> Query {
    Query::builder()
        .aggregate(AggExpr::count(alias))
        .group_by(group)
        .build()
        .unwrap()
}

/// A random complete answer to `count_by(group, "cached")`, in key order.
fn cacheable_answer(rng: &mut StdRng, group: &str) -> ApproxAnswer {
    loop {
        let mut answer = random_answer(rng);
        if answer.group_names.len() == 1 && answer.agg_aliases.len() == 1 {
            answer.sort_by_key();
            answer.partial = false;
            answer.group_names = vec![group.into()];
            answer.agg_aliases = vec!["cached".into()];
            return answer;
        }
    }
}

/// Miss on `group`'s plan and complete the flight with a fresh random
/// answer, which `cache` keeps; returns that answer.
fn seed(cache: &SemanticCache, group: &str, rng: &mut StdRng, ctx: &str) -> ApproxAnswer {
    let answer = cacheable_answer(rng, group);
    let contract = AnswerContract::at_confidence(0.95);
    match cache.decide("v", &count_by(group, "cached"), &contract, None) {
        CacheDecision::Execute(flight) => flight.complete(&answer, 0.95, true),
        _ => panic!("{ctx}: expected a miss"),
    }
    answer
}

/// Hit `group`'s plan under `alias`: the frame must be `expected`'s fresh
/// encode, named as the hit's query names it, under this hit's own trace
/// id (each hit gets one no other request had).
fn assert_hit(
    cache: &SemanticCache,
    group: &str,
    alias: &str,
    expected: &ApproxAnswer,
    rng: &mut StdRng,
    ctx: &str,
) -> String {
    static TRACE: AtomicUsize = AtomicUsize::new(0);
    let contract = AnswerContract::at_confidence(0.95);
    let (answer, cached) = match cache.decide("v", &count_by(group, alias), &contract, None) {
        CacheDecision::Hit(answer, _, cached) => (answer, cached),
        _ => panic!("{ctx}: expected a hit"),
    };
    let mut expected = expected.clone();
    expected.agg_aliases = vec![alias.into()];
    let trace_id = format!("hit-{}", TRACE.fetch_add(1, Ordering::Relaxed));
    let json = assert_served_bytes(&expected, answer, Some(cached), trace_id, rng, ctx);
    assert!(json.contains(&format!("\"agg_aliases\":[\"{alias}\"]")), "{ctx}");
    json
}

#[test]
fn cache_hits_write_the_bytes_of_a_fresh_encode() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    for case in 0..40 {
        let ctx = |what: &str| format!("case {case}, {what}");
        // The first hit writes the entry's groups text; the later ones,
        // under the cached names or others, copy it behind their own head.
        let cache = SemanticCache::new(CacheConfig::default());
        let a = seed(&cache, "g", &mut rng, &ctx("seed"));
        for (alias, what) in [("cached", "first hit"), ("cached", "second hit"), ("fresh", "re-aliased hit")] {
            assert_hit(&cache, "g", alias, &a, &mut rng, &ctx(what));
        }
        // An invalidate drops the entry and its text: the next answer under
        // the same plan is served with its own bytes.
        cache.invalidate();
        let b = seed(&cache, "g", &mut rng, &ctx("seed after invalidate"));
        assert_hit(&cache, "g", "cached", &b, &mut rng, &ctx("first hit after invalidate"));
        // So does an LRU eviction.
        let small = SemanticCache::new(CacheConfig { capacity: 1, ..CacheConfig::default() });
        let a = seed(&small, "g", &mut rng, &ctx("seed"));
        assert_hit(&small, "g", "cached", &a, &mut rng, &ctx("hit before eviction"));
        seed(&small, "h", &mut rng, &ctx("seed evicting g"));
        let b = seed(&small, "g", &mut rng, &ctx("re-insert"));
        assert_hit(&small, "g", "cached", &b, &mut rng, &ctx("hit after eviction and re-insert"));
    }
    // And a TTL expiry, for a few entries at once (one sleep).
    let ttl = Duration::from_millis(300);
    let cache = SemanticCache::new(CacheConfig { ttl: Some(ttl), ..CacheConfig::default() });
    let groups = ["g0", "g1", "g2", "g3"];
    let before: Vec<_> = groups.iter().map(|g| seed(&cache, g, &mut rng, g)).collect();
    for (g, a) in groups.iter().zip(&before) {
        assert_hit(&cache, g, "cached", a, &mut rng, &format!("{g}, hit before expiry"));
    }
    std::thread::sleep(ttl + Duration::from_millis(50));
    let after: Vec<_> = groups.iter().map(|g| seed(&cache, g, &mut rng, &format!("{g}, expired"))).collect();
    for (g, b) in groups.iter().zip(&after) {
        assert_hit(&cache, g, "cached", b, &mut rng, &format!("{g}, hit after expiry"));
    }
}

#[test]
fn every_strict_prefix_of_a_valid_payload_is_an_error() {
    let mut rng = StdRng::seed_from_u64(99);
    // Small answers: the check is quadratic in the payload's length.
    let mut payloads: Vec<String> =
        std::iter::repeat_with(|| Response::Answer(random_wire(&mut rng)).to_json())
            .filter(|json| json.len() <= 2_000)
            .take(8)
            .collect();
    payloads.extend([
        Response::Pong.to_json(),
        Response::Metrics("# HELP x \"quoted\"\nx 1\n".into()).to_json(),
        Response::Shed {
            retry_after_ms: 40,
            class: "batch".into(),
            trace_id: "t-≈".into(),
        }
        .to_json(),
        Response::Error {
            message: "bad \\ thing".into(),
            trace_id: String::new(),
        }
        .to_json(),
    ]);
    let mut checked = 0usize;
    for payload in &payloads {
        assert!(Response::from_json(payload).is_ok());
        for cut in (0..payload.len()).filter(|&i| payload.is_char_boundary(i)) {
            let prefix = &payload[..cut];
            assert!(
                Response::from_json(prefix).is_err(),
                "prefix of {cut} bytes decoded: {prefix}"
            );
            assert!(
                json::parse(prefix).is_err(),
                "prefix of {cut} bytes parsed: {prefix}"
            );
            checked += 1;
        }
    }
    assert!(checked > 5_000, "only {checked} prefixes");
}

/// No peer sends these, but the lenient decoder's answer to them is
/// pinned: an absent or mistyped member is its default, and of two
/// members with one name the first counts, at every level — what the
/// tree decoder's `Value::get` lookups did.
#[test]
fn duplicate_and_mistyped_members_decode_as_a_first_match_lookup_would() {
    let decode = |groups: &str| match Response::from_json(&format!(
        r#"{{"status":"ok","tier":"primary",{groups},"tier":"exact"}}"#
    )) {
        Ok(Response::Answer(a)) => Ok(a),
        Ok(other) => panic!("not an answer: {other:?}"),
        Err(e) => Err(e),
    };

    let a = decode(concat!(
        r#""groups":[{"key":["a"],"key":["b"],"values":7,"values":[{"estimate":1}]},"#,
        r#"{"values":[{"estimate":1,"estimate":2,"lo":"x","lo":3,"hi":4,"hi":5,"#,
        r#""exact":true,"exact":false},7],"key":null},8],"groups":[]"#
    ))
    .unwrap();
    assert_eq!(a.tier, "primary");
    assert_eq!(a.groups.len(), 3, "the second `groups` is ignored");
    assert_eq!(a.groups[0].key, vec![Json::Str("a".into())]);
    assert!(a.groups[0].values.is_empty(), "a mistyped first `values` is empty");
    assert!(a.groups[1].key.is_empty());
    let v = &a.groups[1].values[0];
    assert_eq!((v.estimate, v.hi, v.exact), (1.0, 4.0, true));
    assert!(v.lo.is_nan(), "a mistyped first `lo` is the default");
    let not_an_object = &a.groups[1].values[1];
    assert_eq!((not_an_object.estimate, not_an_object.exact), (0.0, false));
    assert!(not_an_object.lo.is_nan() && not_an_object.hi.is_nan());
    assert!(a.groups[2].key.is_empty() && a.groups[2].values.is_empty());

    // A first `groups` that is not an array is the member that counts.
    let err = decode(r#""groups":7,"groups":[]"#).unwrap_err();
    assert!(err.contains("needs groups"), "{err}");
}

/// A synthetic answer of `groups` groups: ~125 bytes a group on the wire.
fn synthetic(groups: usize) -> String {
    let answer = WireAnswer {
        trace_id: "t-scale".into(),
        tier: "primary".into(),
        partial: false,
        deadline_limited: false,
        cache_hit: false,
        rows_scanned: 34_256,
        effective_budget: None,
        elapsed_ms: 1.25,
        group_names: vec!["store.city".into(), "product.brand".into()],
        agg_aliases: vec!["rev".into()],
        groups: (0..groups)
            .map(|i| WireGroup {
                key: vec![
                    format!("city_{:05}", i % 977).into(),
                    format!("brand \"{}\"", i % 31).into(),
                ],
                values: vec![WireValue {
                    estimate: i as f64 * 1.37 + 0.11,
                    lo: i as f64 * 1.31,
                    hi: i as f64 * 1.43 + 0.5,
                    exact: i % 3 == 0,
                }],
            })
            .collect(),
    };
    Response::Answer(answer).to_json()
}

#[test]
fn decode_time_grows_linearly_with_answer_size() {
    // ~50 KB against ~1 MB: 20x the bytes. A linear decoder takes ~20x
    // as long; the decoder this one replaced re-validated the rest of the
    // input at every string character and took ~400x. 60x sits far from
    // both, so host noise cannot flip the verdict either way.
    let small = synthetic(400);
    let large = synthetic(8_000);
    assert!(
        (40_000..70_000).contains(&small.len()),
        "{} bytes",
        small.len()
    );
    assert!(
        (800_000..1_400_000).contains(&large.len()),
        "{} bytes",
        large.len()
    );
    let time = |payload: &str| {
        let started = Instant::now();
        let decoded = Response::from_json(payload).expect("decodes");
        let took = started.elapsed();
        std::hint::black_box(decoded);
        took
    };
    // Best of several runs each: interference only ever adds time, so the
    // fastest run of each size is the one that measures the decoder. The
    // sizes alternate, round by round, so a burst of load on a shared host
    // lands on both; rounds continue (up to a bound) until each size has
    // had a quiet run, which the quadratic decoder's ~400x never reaches.
    let (mut small_took, mut large_took) = (time(&small), time(&large));
    for round in 1..40 {
        let ratio = large_took.as_secs_f64() / small_took.as_secs_f64();
        if round >= 5 && ratio < 60.0 {
            break;
        }
        for _ in 0..5 {
            small_took = small_took.min(time(&small));
        }
        large_took = large_took.min(time(&large));
    }
    let ratio = large_took.as_secs_f64() / small_took.as_secs_f64();
    assert!(
        ratio < 60.0,
        "decoding {} bytes took {large_took:?}, {} bytes {small_took:?}: {ratio:.0}x for 20x the bytes",
        large.len(),
        small.len()
    );
}
