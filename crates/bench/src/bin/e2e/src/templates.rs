//! SQL emitter and template selection.
//!
//! `Query`'s `Display` omits `FROM` and does not quote strings, so the
//! benchmark owns the emitter. Every emitted statement is parsed back and
//! must canonicalise to the key of the `Query` it came from. Templates are
//! kept by properties of the query and the data alone, never by what the
//! system under test answers: a change to the sampler or to the wire
//! encoding must not change the traffic it is measured with. The property
//! is the *exact* group count, which makes answer width a controlled input
//! of each workload (`wide-groupby`, whose answers are sampled and wide,
//! adds the group count on a thinned view: see [`WIDE_GROUPS`]).

use crate::setup::{THREADS, VIEW_NAME};
use aqp::datagen::sales::{SALES_EXCLUDED_GROUPING, SALES_MEASURE_COLUMNS};
use aqp::prelude::*;
use aqp::sql::plan_key_text;
use aqp::workload::harness::{exact_answer_threaded, ExactAnswer};
use std::collections::HashSet;
use std::fmt::Write as _;

/// The four workloads. Each exists to make one kind of cost dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SampledNarrow,
    ExactScan,
    WideGroupby,
    CacheChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SampledNarrow, Workload::ExactScan, Workload::WideGroupby, Workload::CacheChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SampledNarrow => "sampled-narrow",
            Workload::ExactScan => "exact-scan",
            Workload::WideGroupby => "wide-groupby",
            Workload::CacheChurn => "cache-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn cache_on(self) -> bool {
        self == Workload::CacheChurn
    }

    /// Closed-loop connections: one caller, except `cache-churn`, whose
    /// point is reads beside writes on the cache (two = `nproc`).
    pub fn connections(self) -> usize {
        if self == Workload::CacheChurn {
            2
        } else {
            1
        }
    }
}

/// Request class inside a workload, for per-class shares and medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Served from the sample family.
    Sampled,
    /// Exact rung, no block can be skipped.
    FullScan,
    /// Exact rung, a `sales.timekey` range covering 1–5 % of the rows.
    PrunedScan,
}

/// One kept template: the statement sent over the wire, the plan the
/// server will derive from it, and its exact answer (computed once here,
/// reused by the oracle pass).
pub struct Template {
    pub sql: String,
    pub query: Query,
    pub class: Class,
    pub exact: ExactAnswer,
    /// Zone-map blocks (skipped, total) of the exact scan.
    pub blocks: (u64, u64),
}

/// One entry of a connection's fixed request list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Query(usize),
    Invalidate,
}

pub struct Plan {
    pub templates: Vec<Template>,
    /// One fixed list per connection; a round is one walk over it.
    pub lists: Vec<Vec<Step>>,
    /// Candidates evaluated to fill the quotas (kept + rejected).
    pub candidates: usize,
}

// ---------------------------------------------------------------- SQL

fn literal(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Int64(i) => write!(out, "{i}").expect("write to String"),
        // `{:?}` keeps the decimal point, so the lexer reads a float back.
        Value::Float64(f) => write!(out, "{f:?}").expect("write to String"),
        Value::Utf8(s) => {
            out.push('\'');
            out.push_str(&s.replace('\'', "''"));
            out.push('\'');
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
    }
}

fn expr(out: &mut String, e: &Expr) {
    let joined = |out: &mut String, es: &[Expr], sep: &str, empty: &str| {
        if es.is_empty() {
            // The grammar has no bare TRUE/FALSE predicate; templates never need one.
            panic!("cannot emit empty {empty}");
        }
        for (i, e) in es.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push('(');
            expr(out, e);
            out.push(')');
        }
    };
    match e {
        Expr::Cmp { column, op, literal: lit } => {
            write!(out, "{column} {op} ").expect("write to String");
            literal(out, lit);
        }
        Expr::InSet { column, values } => {
            write!(out, "{column} IN (").expect("write to String");
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                literal(out, v);
            }
            out.push(')');
        }
        Expr::And(es) => joined(out, es, " AND ", "AND"),
        Expr::Or(es) => joined(out, es, " OR ", "OR"),
        Expr::Not(inner) => {
            out.push_str("NOT (");
            expr(out, inner);
            out.push(')');
        }
    }
}

/// Render `query` as a statement of the supported SQL fragment.
pub fn to_sql(table: &str, query: &Query) -> String {
    let mut out = String::from("SELECT ");
    for g in &query.group_by {
        out.push_str(g);
        out.push_str(", ");
    }
    for (i, a) in query.aggregates.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match &a.column {
            Some(c) => write!(out, "{}({c}) AS {}", a.func, a.alias),
            None => write!(out, "{}(*) AS {}", a.func, a.alias),
        }
        .expect("write to String");
    }
    write!(out, " FROM {table}").expect("write to String");
    if let Some(p) = &query.predicate {
        out.push_str(" WHERE ");
        expr(&mut out, p);
    }
    if !query.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        out.push_str(&query.group_by.join(", "));
    }
    out
}

/// Emit `query`, parse it back, and insist on the same canonical key.
/// Returns the statement and the plan the *server* will see.
fn emit_checked(query: &Query) -> (String, Query, String) {
    let sql = to_sql(VIEW_NAME, query);
    let parsed = parse_query(&sql).unwrap_or_else(|e| panic!("emitted SQL does not parse: {e}\n{sql}"));
    let want = plan_key_text(VIEW_NAME, query);
    let got = parsed.plan_key_text();
    assert_eq!(got, want, "emitted SQL canonicalises to a different plan key\n{sql}");
    (sql, parsed.query, got)
}

// ---------------------------------------------------------- selection

/// SplitMix64: derives independent generator seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exact answer plus the zone-map block counters of the scan behind it.
fn exact_with_blocks(view: &Table, query: &Query) -> (ExactAnswer, (u64, u64)) {
    let opened = aqp::obs::trace::begin("e2e-template");
    let exact = exact_answer_threaded(&DataSource::Wide(view), query, THREADS).expect("exact answer");
    let trace = if opened { aqp::obs::trace::finish() } else { None };
    let blocks = trace.map_or((0, 0), |t| {
        t.operators.iter().fold((0, 0), |(s, n), op| {
            (s + op.blocks_skipped, n + op.blocks_skipped + op.blocks_taken + op.blocks_scanned)
        })
    });
    (exact, blocks)
}

/// The generator cells candidates are drawn from in turn: every pairing
/// of a grouping-column count with COUNT, SUM and AVG (paper §5.2.3).
fn cells(group_cols: &[usize]) -> Vec<(usize, WorkloadAggregate)> {
    let aggs = [WorkloadAggregate::Count, WorkloadAggregate::Sum, WorkloadAggregate::Avg];
    group_cols.iter().flat_map(|&g| aggs.iter().map(move |&a| (g, a))).collect()
}

/// `total` split over `n` slots, the remainder going to the first ones.
fn quotas(total: usize, n: usize) -> Vec<usize> {
    (0..n).map(|i| total / n + usize::from(i < total % n)).collect()
}

struct Selector<'a> {
    view: &'a Table,
    profile: DatasetProfile,
    seed: u64,
    seen: HashSet<String>,
    templates: Vec<Template>,
    candidates: usize,
}

impl Selector<'_> {
    /// Draw generated queries (one IN-list predicate) from `cells` in turn,
    /// let `shape` turn each into a template, and keep it when `slot_of`
    /// (given the template and its cell index) names a slot with quota
    /// left. The slots are what makes the mix the same for every seed.
    /// Aborts the run when the generator cannot fill every quota.
    fn fill(
        &mut self,
        salt: u64,
        cells: &[(usize, WorkloadAggregate)],
        class: Class,
        mut quota: Vec<usize>,
        shape: &dyn Fn(Query, u64) -> Option<Query>,
        slot_of: &dyn Fn(&Template, usize) -> Option<usize>,
    ) {
        const BATCH: usize = 4;
        for batch in 0..1024u64 {
            for (cell, &(grouping_columns, aggregate)) in cells.iter().enumerate() {
                let cfg = QueryGenConfig {
                    grouping_columns,
                    num_predicates: 1,
                    aggregate,
                    seed: mix(self.seed, (salt << 32) + batch * 16 + cell as u64),
                    ..QueryGenConfig::default()
                };
                for (i, generated) in generate_queries(&self.profile, &cfg, BATCH).into_iter().enumerate() {
                    self.candidates += 1;
                    let Some(query) = shape(generated, mix(cfg.seed, i as u64)) else {
                        continue;
                    };
                    let (sql, parsed, key) = emit_checked(&query);
                    if !self.seen.insert(key) {
                        continue;
                    }
                    let (exact, blocks) = exact_with_blocks(self.view, &parsed);
                    let template = Template { sql, query: parsed, class, exact, blocks };
                    match slot_of(&template, cell) {
                        Some(slot) if quota[slot] > 0 => quota[slot] -= 1,
                        _ => continue,
                    }
                    self.templates.push(template);
                    if quota.iter().all(|&q| q == 0) {
                        return;
                    }
                }
            }
        }
        panic!("template selection: quotas left unfilled per slot: {quota:?}");
    }
}

/// Replace the IN-list by `sales.timekey BETWEEN lo AND hi` covering
/// 1–5 % of the rows. `key_rows[k]` is the number of rows with timekey `k`.
fn timekey_range(query: Query, key_rows: &[usize], total: usize, rnd: u64) -> Option<Query> {
    let target = 0.01 + 0.04 * ((rnd >> 11) as f64 / (1u64 << 53) as f64);
    let lo = 1 + (mix(rnd, 1) as usize) % (key_rows.len() - 1);
    let mut rows = 0;
    for (hi, in_key) in key_rows.iter().enumerate().skip(lo) {
        rows += in_key;
        let share = rows as f64 / total as f64;
        if share > 0.05 {
            return None;
        }
        if share >= target {
            let range = Expr::And(vec![
                Expr::cmp("sales.timekey", CmpOp::Ge, lo as i64),
                Expr::cmp("sales.timekey", CmpOp::Le, hi as i64),
            ]);
            return Some(Query { predicate: Some(range), ..query });
        }
    }
    None
}

/// Add a MIN or MAX over a measure: sampling cannot bound extrema, so the
/// ladder's `minmax` fallback serves the query from the exact rung.
fn with_extremum(mut query: Query, rnd: u64) -> Query {
    let measure = SALES_MEASURE_COLUMNS[(rnd % SALES_MEASURE_COLUMNS.len() as u64) as usize];
    query.aggregates.push(if (rnd >> 8) & 1 == 0 { AggExpr::min(measure, "lo") } else { AggExpr::max(measure, "hi") });
    query
}

/// Select the workload's templates from `view` and lay out its request lists.
pub fn select(workload: Workload, view: &Table, seed: u64) -> Plan {
    let profile = DatasetProfile::new(view, SALES_MEASURE_COLUMNS, SALES_EXCLUDED_GROUPING, 5000);
    let mut sel = Selector { view, profile, seed, seen: HashSet::new(), templates: Vec::new(), candidates: 0 };
    let plain = |q: Query, _: u64| Some(q);
    let groups_in = |t: &Template, lo: usize, hi: usize| (lo..=hi).contains(&t.exact.num_groups());
    // Narrow answers: the quota is per generator cell.
    let narrow = |t: &Template, cell: usize| groups_in(t, 2, 100).then_some(cell);

    match workload {
        Workload::SampledNarrow => {
            sel.fill(0, &cells(&[1, 2]), Class::Sampled, quotas(256, 6), &plain, &narrow);
        }
        Workload::CacheChurn => {
            sel.fill(0, &cells(&[1, 2]), Class::Sampled, quotas(512, 6), &plain, &narrow);
        }
        Workload::WideGroupby => {
            // Answer width is this workload's controlled input, and for a
            // sampled answer the exact group count does not control it: of
            // 500-700 exact groups a sample finds 120 to 600. What does is
            // how many groups a uniform sample of the rows would find, so
            // a candidate is judged by its group count on every 8th row of
            // the view, a sample the benchmark draws itself, and scanned
            // exactly only when that count lands in the window.
            let every_nth: Vec<usize> = (0..view.num_rows()).step_by(WIDE_THIN).collect();
            let thin = view.gather(VIEW_NAME, &every_nth);
            let thin_groups = |q: &Query| {
                exact_answer_threaded(&DataSource::Wide(&thin), q, THREADS)
                    .expect("exact answer on the thinned view")
                    .num_groups()
            };
            let in_window = |q: Query, _: u64| WIDE_GROUPS.contains(&thin_groups(&q)).then_some(q);
            let slot = |t: &Template, _: usize| {
                let missed = t.exact.num_groups() as f64 / thin_groups(&t.query) as f64;
                let class = WIDE_MISSED.iter().position(|&(below, _)| missed < below)?;
                groups_in(t, 300, 3000).then_some(class)
            };
            let quota = WIDE_MISSED.map(|(_, templates)| templates).to_vec();
            sel.fill(0, &cells(&[3, 4]), Class::Sampled, quota, &in_window, &slot);
        }
        Workload::ExactScan => {
            // 96 full scans: an IN-list the zone maps cannot use.
            let full = |q: Query, rnd: u64| Some(with_extremum(q, rnd));
            let unpruned = |t: &Template, cell: usize| (groups_in(t, 1, 100) && t.blocks.0 == 0).then_some(cell);
            sel.fill(0, &cells(&[1, 2]), Class::FullScan, quotas(96, 6), &full, &unpruned);
            // 32 range scans over the clustering key.
            let keys = view
                .column_by_name("sales.timekey")
                .expect("sales.timekey exists")
                .as_int64()
                .expect("sales.timekey is Int64");
            let max_key = *keys.last().expect("non-empty view") as usize;
            let mut key_rows = vec![0usize; max_key + 1];
            for &k in keys {
                key_rows[k as usize] += 1;
            }
            let total = keys.len();
            let ranged = |q: Query, rnd: u64| timekey_range(with_extremum(q, rnd), &key_rows, total, mix(rnd, 2));
            let pruned = |t: &Template, cell: usize| (groups_in(t, 1, 100) && t.blocks.0 > 0).then_some(cell);
            sel.fill(1, &cells(&[1, 2]), Class::PrunedScan, quotas(32, 6), &ranged, &pruned);
        }
    }

    let n = sel.templates.len();
    let lists = match workload {
        Workload::CacheChurn => churn_lists(&by_popularity(&sel.templates), seed),
        Workload::ExactScan => vec![interleave(&sel.templates)],
        _ => vec![(0..n).map(Step::Query).collect()],
    };
    Plan { templates: sel.templates, lists, candidates: sel.candidates }
}

/// Spread the pruned class evenly through the round (every 4th request),
/// so any prefix of a round has the same class mix.
fn interleave(templates: &[Template]) -> Vec<Step> {
    let (pruned, full): (Vec<usize>, Vec<usize>) =
        (0..templates.len()).partition(|&i| templates[i].class == Class::PrunedScan);
    assert_eq!(full.len(), 3 * pruned.len(), "three full scans to one pruned scan");
    full.chunks(3).zip(pruned).flat_map(|(f, p)| f.iter().copied().chain([p])).map(Step::Query).collect()
}

/// `wide-groupby` judges a candidate on every this-many-th row of the view.
/// Of the rates tried (1 in 25 to 1 in 4), the group count at 1 in 8 came
/// closest to the number of groups the r = 0.04 sample family serves
/// (which also draws on its small-group tables): slope 1.0, 16 % scatter.
pub const WIDE_THIN: usize = 8;
/// Group counts on the thinned view that `wide-groupby` keeps (nine in ten
/// served answers then have 265-535 groups and 34-74 KB). The window is
/// narrow on purpose: decoding an answer costs time quadratic in its size,
/// so over the 300-3000 exact groups ISSUE 14 named latencies spread
/// 100-fold, p50 hung on whichever two templates sat at that rank, and it
/// moved by a quarter from seed to seed.
pub const WIDE_GROUPS: std::ops::Range<usize> = 300..500;
/// Templates by how many groups the thinned view misses: exact group count
/// ÷ group count on the thinned view below 1.5, below 2.5, and beyond, in
/// the proportions candidates come in. The share of its groups a sample
/// finds is what a template's accuracy hangs on (0.3 to 0.9 in this
/// window), so a fixed mix keeps `groups_found_ratio` and `rel_err_score`
/// from moving with the draw of templates. 64 templates; a round of them
/// takes about a second.
pub const WIDE_MISSED: [(f64, usize); 3] = [(1.5, 32), (2.5, 20), (f64::INFINITY, 12)];

/// Length of the `cache-churn` request stream (both connections together).
pub const CHURN_STREAM: usize = 4000;
/// A wire `invalidate` replaces every this-many-th request of the stream.
pub const CHURN_INVALIDATE_EVERY: usize = 500;
/// Zipf exponent of template popularity, tuned once so that a capacity of
/// 128 over 512 templates, with the invalidations above, hits 0.65–0.80.
pub const CHURN_ZIPF: f64 = 1.2;

/// Template index by popularity rank. A Zipf(1.2) stream sends a fifth of
/// its requests to rank 0 and half to the first six ranks, so hit latency
/// is the decode time of a handful of answers, which is proportional to
/// their width. Ranks therefore walk the templates, sorted by exact group
/// count, in steps of 197 of 512 from the median: the popular head has the
/// same width quantiles (50 %, 88 %, 27 %, 65 %, 4 %, ...) for every seed.
fn by_popularity(templates: &[Template]) -> Vec<usize> {
    const STRIDE: usize = 197;
    let n = templates.len();
    assert!(n.is_power_of_two(), "an odd stride visits every slot only of a power of two");
    let mut by_width: Vec<usize> = (0..n).collect();
    by_width.sort_by_key(|&i| (templates[i].exact.num_groups(), &templates[i].sql));
    (0..n).map(|rank| by_width[(n / 2 + rank * STRIDE) % n]).collect()
}

fn churn_lists(by_rank: &[usize], seed: u64) -> Vec<Vec<Step>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let zipf = aqp::sampling::TruncatedZipf::new(by_rank.len(), CHURN_ZIPF);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xc4c4e));
    let mut lists = vec![Vec::new(), Vec::new()];
    for i in 0..CHURN_STREAM {
        let step = if i % CHURN_INVALIDATE_EVERY == CHURN_INVALIDATE_EVERY - 1 {
            Step::Invalidate
        } else {
            Step::Query(by_rank[zipf.sample(&mut rng)])
        };
        lists[i % 2].push(step);
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `emit_checked` panics unless the statement parses back to the same key.
    #[test]
    fn emitted_sql_round_trips_to_the_same_plan_key() {
        let predicates = [
            Expr::And(vec![Expr::in_set("store.city", vec!["O'Hare".into(), "CITY#001".into()])]),
            Expr::in_set("sales.coupon", vec![Value::Bool(true)]),
            Expr::in_set("time.year", vec![2001i64.into(), 2000i64.into()]),
            Expr::And(vec![Expr::cmp("sales.timekey", CmpOp::Ge, 10i64), Expr::cmp("sales.timekey", CmpOp::Le, 20i64)]),
            Expr::Or(vec![
                Expr::cmp("sales.revenue", CmpOp::Gt, 2.0),
                Expr::Not(Box::new(Expr::eq("channel.group", "Direct"))),
            ]),
        ];
        for predicate in predicates {
            let query = Query::builder()
                .aggregate(AggExpr::count("cnt"))
                .aggregate(AggExpr::max("sales.revenue", "hi"))
                .group_by_all(["channel.name", "time.year"])
                .filter(predicate)
                .build()
                .unwrap();
            let (sql, parsed, _) = emit_checked(&query);
            assert!(sql.contains(" FROM sales_view WHERE "), "{sql}");
            assert_eq!(parsed.group_by, query.group_by);
            assert_eq!(parsed.aggregates, query.aggregates);
        }
    }

    #[test]
    fn quotas_sum_to_the_total() {
        assert_eq!(quotas(128, 6), vec![22, 22, 21, 21, 21, 21]);
        assert_eq!(quotas(64, 7).iter().sum::<usize>(), 64);
    }

    #[test]
    fn churn_stream_is_seeded_and_invalidates_on_schedule() {
        let ranks: Vec<usize> = (0..512).collect();
        let a = churn_lists(&ranks, 7);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), CHURN_STREAM);
        assert_eq!(a, churn_lists(&ranks, 7));
        assert_ne!(a, churn_lists(&ranks, 8));
        let invalidates = a.iter().flatten().filter(|s| **s == Step::Invalidate).count();
        assert_eq!(invalidates, CHURN_STREAM / CHURN_INVALIDATE_EVERY);
    }
}
