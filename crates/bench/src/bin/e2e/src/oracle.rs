//! The oracle pass: every wire answer against an in-process answer for
//! the same plan, bit for bit, and the paper's accuracy metrics.
//!
//! The in-process side ([`expected`]) is taken from the very system that
//! will serve, before it moves into the server: one set-up per run, and no
//! second copy of the system in `peak_rss_mb`. The wire side ([`collect`])
//! is fetched after the timed passes.

use crate::load::query_request;
use crate::setup::CONFIDENCE;
use crate::templates::Template;
use aqp::obs::json::Value as Json;
use aqp::prelude::*;
use aqp::serving::{Client, Response, RetryPolicy, WireAnswer};
use aqp::workload::harness::approx_map;
use aqp::workload::metrics::metric_report;

/// Fetch each template's answer once more over the wire, untimed. With the
/// cache on, each is asked twice back to back so that the second answer is
/// a cache hit: both must equal the fresh in-process answer.
pub fn collect(addr: &str, templates: &[Template], cache_on: bool) -> Vec<Vec<Option<WireAnswer>>> {
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    templates
        .iter()
        .map(|t| {
            let request = query_request(&t.sql, None);
            (0..if cache_on { 2 } else { 1 })
                .map(|_| match client.request(&request) {
                    Ok(Response::Answer(answer)) => Some(answer),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// What the oracle pass found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    /// First few mismatch descriptions, for the report.
    pub examples: Vec<String>,
    /// Cache-hit answers among those checked.
    pub cache_hits_checked: u64,
    /// Mean RelErr over templates (paper Def. 4.2).
    pub rel_err: f64,
    /// Mean PctGroups over templates (paper Def. 4.1), percent.
    pub groups_missed_pct: f64,
    /// Share of (group, aggregate) intervals containing the exact value.
    pub ci_coverage: f64,
}

/// A wire float against the local one. Non-finite values travel as JSON
/// `null`, which the client decodes to `placeholder`.
fn same(wire: f64, local: f64, placeholder: f64) -> bool {
    let expect = if local.is_finite() { local } else { placeholder };
    wire.to_bits() == expect.to_bits() || (wire.is_nan() && expect.is_nan())
}

fn same_key(wire: &[Json], local: &[Value]) -> bool {
    wire.len() == local.len()
        && wire.iter().zip(local).all(|(w, l)| match (w, l) {
            (Json::Null, Value::Null) => true,
            (Json::Num(n), Value::Int64(i)) => *n == *i as f64,
            (Json::Num(n), Value::Float64(f)) => n.to_bits() == f.to_bits(),
            (Json::Str(s), Value::Utf8(u)) => s == u,
            (Json::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        })
}

/// Why `wire` differs from the in-process `local` answer, if it does.
fn differs(wire: &WireAnswer, local: &ApproxAnswer) -> Option<String> {
    let mut local = local.clone();
    local.sort_by_key(); // the wire order is key-sorted
    if wire.tier != local.tier.to_string() {
        return Some(format!("tier {} vs {}", wire.tier, local.tier));
    }
    if wire.partial != local.partial || wire.deadline_limited || wire.rows_scanned != local.rows_scanned as u64 {
        return Some("partial/deadline_limited/rows_scanned".into());
    }
    if wire.group_names != local.group_names || wire.agg_aliases != local.agg_aliases {
        return Some("column names".into());
    }
    if wire.groups.len() != local.groups.len() {
        return Some(format!("{} groups vs {}", wire.groups.len(), local.groups.len()));
    }
    for (w, l) in wire.groups.iter().zip(&local.groups) {
        if !same_key(&w.key, &l.key) {
            return Some(format!("group key {:?} vs {:?}", w.key, l.key));
        }
        if w.values.len() != l.values.len() {
            return Some("aggregate count".into());
        }
        for (wv, lv) in w.values.iter().zip(&l.values) {
            let equal = same(wv.estimate, lv.value(), 0.0)
                && same(wv.lo, lv.ci.lo, f64::NAN)
                && same(wv.hi, lv.ci.hi, f64::NAN)
                && wv.exact == lv.is_exact();
            if !equal {
                return Some(format!("value in group {:?}: {wv:?} vs {lv:?}", l.key));
            }
        }
    }
    None
}

/// Why an exact-tier answer differs from `exact_answer`, if it does.
fn differs_from_exact(local: &ApproxAnswer, template: &Template) -> Option<String> {
    if local.groups.len() != template.exact.num_groups() {
        return Some(format!("{} groups vs exact {}", local.groups.len(), template.exact.num_groups()));
    }
    for g in &local.groups {
        for (i, v) in g.values.iter().enumerate() {
            match template.exact.per_agg[i].get(&g.key) {
                Some(x) if x.to_bits() == v.value().to_bits() => {}
                other => return Some(format!("exact-tier value {:?} vs exact_answer {other:?}", v.value())),
            }
        }
    }
    None
}

/// The in-process answer to every template: what the wire must deliver.
pub fn expected(system: &ResilientSystem, templates: &[Template]) -> Vec<ApproxAnswer> {
    templates
        .iter()
        .map(|t| system.answer_bounded(&t.query, CONFIDENCE, &QueryBound::none()).expect("in-process answer").answer)
        .collect()
}

/// Compare every collected wire answer with the `expected` answer for the
/// same plan and compute the accuracy metrics from the latter.
pub fn check(expected: &[ApproxAnswer], templates: &[Template], wire: &[Vec<Option<WireAnswer>>]) -> Verdict {
    let mut verdict = Verdict::default();
    let note = |verdict: &mut Verdict, sql: &str, why: String| {
        verdict.mismatches += 1;
        if verdict.examples.len() < 3 {
            verdict.examples.push(format!("{why}\n    {sql}"));
        }
    };
    let (mut intervals, mut covered) = (0u64, 0u64);
    for ((template, local), answers) in templates.iter().zip(expected).zip(wire) {
        for answer in answers {
            verdict.checked += 1;
            match answer {
                None => note(&mut verdict, &template.sql, "no answer over the wire".into()),
                Some(w) => {
                    verdict.cache_hits_checked += u64::from(w.cache_hit);
                    if let Some(why) = differs(w, local) {
                        note(&mut verdict, &template.sql, why);
                    }
                }
            }
        }
        if local.tier == ServingTier::Exact {
            if let Some(why) = differs_from_exact(local, template) {
                note(&mut verdict, &template.sql, why);
            }
        }

        let report = metric_report(&template.exact.per_agg[0], &approx_map(local, 0));
        verdict.rel_err += report.rel_err;
        verdict.groups_missed_pct += report.pct_groups;
        for g in &local.groups {
            for (i, v) in g.values.iter().enumerate() {
                if let Some(&x) = template.exact.per_agg[i].get(&g.key) {
                    intervals += 1;
                    covered += u64::from(v.ci.lo <= x && x <= v.ci.hi);
                }
            }
        }
    }
    let n = templates.len().max(1) as f64;
    verdict.rel_err /= n;
    verdict.groups_missed_pct /= n;
    verdict.ci_coverage = if intervals == 0 { 1.0 } else { covered as f64 / intervals as f64 };
    verdict
}
