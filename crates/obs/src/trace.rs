//! Per-query execution traces.
//!
//! A [`QueryTrace`] records everything the runtime decided for one query:
//! the plan chosen, which sample tables were consulted, rows scanned vs.
//! base rows, the serving tier, and wall time per stage. Traces are built
//! on the control thread via a thread-local collector: [`begin`] opens
//! one, [`span`](fn@crate::span) timers dropped while it is open append
//! stage timings, and [`finish`] closes it. Morsel workers never touch
//! the collector, so scoped-thread execution is unaffected.
//!
//! The JSON schema (documented in DESIGN.md §10) has one version, 3.
//! [`QueryTrace::to_json`] writes it through [`crate::json::Value`], and
//! [`QueryTrace::from_json`] is both its decoder and its validator; the
//! round trip is lossless, including `f64` bit patterns.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::profile::OpProfile;

/// The `schema_version` every trace line carries, and the only one
/// [`QueryTrace::from_json`] accepts.
pub const TRACE_SCHEMA_VERSION: u64 = 3;

/// Wall time spent in one named stage, possibly accumulated over several
/// spans (e.g. one `query.scan` per sample table in a UNION ALL plan).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageTime {
    /// Stage name, dotted by subsystem (`query.scan`, `sgs.frequency`).
    pub stage: String,
    /// Accumulated wall time in milliseconds.
    pub ms: f64,
}

/// One per-query execution trace record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// The query text (canonical `Display` form).
    pub query: String,
    /// Plan summary chosen by the runtime (e.g. `union-all(3)`,
    /// `overall-only`, `exact-scan`).
    pub plan: String,
    /// Serving tier label: `primary`, `degraded`, `overall`, or `exact`.
    pub serving_tier: String,
    /// Whether the answer was marked partial.
    pub partial: bool,
    /// Names of the sample tables (or base view) consulted.
    pub sample_tables: Vec<String>,
    /// Rows actually scanned to answer.
    pub rows_scanned: u64,
    /// Rows in the base relation the query is over.
    pub base_rows: u64,
    /// Number of result groups.
    pub groups: u64,
    /// Per-stage wall time, in the order stages first completed.
    pub stages: Vec<StageTime>,
    /// End-to-end wall time in milliseconds.
    pub total_ms: f64,
    /// Per-operator execution profiles, in plan (stratum) order.
    pub operators: Vec<OpProfile>,
    /// Whether the answer was served from the semantic answer cache.
    pub cache_hit: bool,
}

impl QueryTrace {
    /// Encode as a single JSON line.
    pub fn to_json(&self) -> String {
        let stages = self
            .stages
            .iter()
            .map(|s| Value::object([("stage", s.stage.as_str().into()), ("ms", s.ms.into())]));
        Value::object([
            ("query", self.query.as_str().into()),
            ("plan", self.plan.as_str().into()),
            ("serving_tier", self.serving_tier.as_str().into()),
            ("partial", self.partial.into()),
            (
                "sample_tables",
                Value::Arr(
                    self.sample_tables
                        .iter()
                        .map(|t| t.as_str().into())
                        .collect(),
                ),
            ),
            ("rows_scanned", self.rows_scanned.into()),
            ("base_rows", self.base_rows.into()),
            ("groups", self.groups.into()),
            ("stages", Value::Arr(stages.collect())),
            ("total_ms", self.total_ms.into()),
            ("cache_hit", self.cache_hit.into()),
            ("schema_version", TRACE_SCHEMA_VERSION.into()),
            (
                "operators",
                Value::Arr(self.operators.iter().map(operator_value).collect()),
            ),
        ])
        .to_json()
    }

    /// Decode one trace line. Strict: the line must carry
    /// `schema_version` 3 and every field [`Self::to_json`] writes, each
    /// of its type; the error names the first field that does not.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        if !matches!(v, Value::Obj(_)) {
            return Err("trace record must be a JSON object".into());
        }
        let version = v.u64_field("schema_version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} is not {TRACE_SCHEMA_VERSION}"
            ));
        }
        let serving_tier = v.str_field("serving_tier")?;
        if !TIER_LABELS.contains(&serving_tier) {
            return Err(format!(
                "serving_tier {serving_tier:?} not in {TIER_LABELS:?}"
            ));
        }
        Ok(QueryTrace {
            query: v.str_field("query")?.to_string(),
            plan: v.str_field("plan")?.to_string(),
            serving_tier: serving_tier.to_string(),
            partial: v.bool_field("partial")?,
            sample_tables: v.items("sample_tables", |t| {
                t.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "must be a string".to_string())
            })?,
            rows_scanned: v.u64_field("rows_scanned")?,
            base_rows: v.u64_field("base_rows")?,
            groups: v.u64_field("groups")?,
            stages: v.items("stages", |s| {
                Ok(StageTime {
                    stage: s.str_field("stage")?.to_string(),
                    ms: s.f64_field("ms")?,
                })
            })?,
            total_ms: v.f64_field("total_ms")?,
            operators: v.items("operators", operator_from_value)?,
            cache_hit: v.bool_field("cache_hit")?,
        })
    }
}

fn operator_value(op: &OpProfile) -> Value {
    Value::object([
        ("op", op.op.as_str().into()),
        ("table", op.table.as_str().into()),
        ("stratum", op.stratum.as_str().into()),
        ("weight", op.weight.into()),
        ("rows_in", op.rows_in.into()),
        ("rows_out", op.rows_out.into()),
        ("selectivity", op.selectivity().into()),
        ("morsels", op.morsels.into()),
        (
            "morsels_per_worker",
            Value::Arr(op.morsels_per_worker.iter().map(|&m| m.into()).collect()),
        ),
        ("morsel_p50_ns", op.morsel_p50_ns.into()),
        ("morsel_p95_ns", op.morsel_p95_ns.into()),
        ("morsel_p99_ns", op.morsel_p99_ns.into()),
        ("mem_peak_bytes", op.mem_peak_bytes.into()),
        ("mem_current_bytes", op.mem_current_bytes.into()),
        ("kernel", op.kernel.as_str().into()),
        ("blocks_skipped", op.blocks_skipped.into()),
        ("blocks_taken", op.blocks_taken.into()),
        ("blocks_scanned", op.blocks_scanned.into()),
        ("rows_pruned", op.rows_pruned.into()),
    ])
}

/// One `operators[]` entry. `selectivity` is required but derived, so
/// only its type is checked.
fn operator_from_value(o: &Value) -> Result<OpProfile, String> {
    o.f64_field("selectivity")?;
    Ok(OpProfile {
        op: o.str_field("op")?.to_string(),
        table: o.str_field("table")?.to_string(),
        stratum: o.str_field("stratum")?.to_string(),
        weight: o.f64_field("weight")?,
        rows_in: o.u64_field("rows_in")?,
        rows_out: o.u64_field("rows_out")?,
        morsels: o.u64_field("morsels")?,
        morsels_per_worker: o.items("morsels_per_worker", |m| {
            m.as_u64()
                .ok_or_else(|| "must be a non-negative integer".to_string())
        })?,
        morsel_p50_ns: o.u64_field("morsel_p50_ns")?,
        morsel_p95_ns: o.u64_field("morsel_p95_ns")?,
        morsel_p99_ns: o.u64_field("morsel_p99_ns")?,
        mem_peak_bytes: o.u64_field("mem_peak_bytes")?,
        mem_current_bytes: o.u64_field("mem_current_bytes")?,
        kernel: o.str_field("kernel")?.to_string(),
        blocks_skipped: o.u64_field("blocks_skipped")?,
        blocks_taken: o.u64_field("blocks_taken")?,
        blocks_scanned: o.u64_field("blocks_scanned")?,
        rows_pruned: o.u64_field("rows_pruned")?,
    })
}

/// The serving-tier labels the schema accepts (`aqp_core::ServingTier`'s
/// labels, plus the trait-level `unknown` default).
pub const TIER_LABELS: &[&str] = &["primary", "degraded", "overall", "exact", "unknown"];

struct TraceBuilder {
    query: String,
    started: Instant,
    /// (stage, accumulated duration), insertion-ordered.
    stages: Vec<(String, Duration)>,
    /// Per-operator profiles, in plan (stratum) order.
    operators: Vec<OpProfile>,
}

thread_local! {
    static ACTIVE: RefCell<Option<TraceBuilder>> = const { RefCell::new(None) };
}

/// Open a trace collector on this thread. Span timers dropped before the
/// matching [`finish`] accumulate into it. Nested `begin`s are ignored
/// (the outermost trace wins), so wrappers can trace helpers that also
/// run standalone. Returns whether a collector was actually opened; a
/// caller that got `false` must NOT call [`finish`] — the open trace
/// belongs to an outer caller.
pub fn begin(query: &str) -> bool {
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(TraceBuilder {
                query: query.to_string(),
                started: Instant::now(),
                stages: Vec::new(),
                operators: Vec::new(),
            });
            true
        } else {
            false
        }
    })
}

/// Whether a trace collector is open on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

/// Called by [`crate::Span`] on drop; accumulates into the open trace.
pub(crate) fn record_stage(stage: &str, elapsed: Duration) {
    ACTIVE.with(|slot| {
        if let Some(builder) = slot.borrow_mut().as_mut() {
            if let Some((_, total)) = builder.stages.iter_mut().find(|(s, _)| s == stage) {
                *total += elapsed;
            } else {
                builder.stages.push((stage.to_string(), elapsed));
            }
        }
    });
}

/// Called by [`crate::profile::record_scan`]; appends a per-operator
/// profile to the open trace.
pub(crate) fn record_operator(op: OpProfile) {
    ACTIVE.with(|slot| {
        if let Some(builder) = slot.borrow_mut().as_mut() {
            builder.operators.push(op);
        }
    });
}

/// Drop any operator profiles collected so far on the open trace. Used
/// when a plan attempt fails and the runtime falls back to another tier:
/// the abandoned attempt's scans must not pollute the final trace (whose
/// operator row totals reconcile with `rows_scanned`).
pub fn discard_operators() {
    ACTIVE.with(|slot| {
        if let Some(builder) = slot.borrow_mut().as_mut() {
            builder.operators.clear();
        }
    });
}

/// Close the trace opened by [`begin`] and return it with stage timings
/// and total wall time filled in. The caller supplies the runtime
/// decision fields (tier, plan, row counts). Returns `None` if no trace
/// was open.
pub fn finish() -> Option<QueryTrace> {
    ACTIVE.with(|slot| {
        slot.borrow_mut().take().map(|builder| QueryTrace {
            query: builder.query,
            total_ms: builder.started.elapsed().as_secs_f64() * 1e3,
            stages: builder
                .stages
                .into_iter()
                .map(|(stage, d)| StageTime {
                    stage,
                    ms: d.as_secs_f64() * 1e3,
                })
                .collect(),
            operators: builder.operators,
            ..QueryTrace::default()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            query: "SELECT count(*) FROM t WHERE a = 'x\"quote' GROUP BY b".into(),
            plan: "union-all(3)".into(),
            serving_tier: "primary".into(),
            partial: false,
            sample_tables: vec!["sg_a".into(), "sg_b".into(), "overall".into()],
            rows_scanned: 12_345,
            base_rows: 1_000_000,
            groups: 17,
            stages: vec![
                StageTime { stage: "query.scan".into(), ms: 1.2345678901234 },
                StageTime { stage: "query.merge".into(), ms: 0.001 },
                StageTime { stage: "query.finalize".into(), ms: 0.25 },
            ],
            total_ms: 1.5,
            operators: vec![
                OpProfile {
                    op: "scan:sg_a".into(),
                    table: "sg_a".into(),
                    stratum: "small-group".into(),
                    weight: 1.0,
                    rows_in: 120,
                    rows_out: 120,
                    morsels: 1,
                    morsels_per_worker: vec![1],
                    morsel_p50_ns: 1500,
                    morsel_p95_ns: 1500,
                    morsel_p99_ns: 1500,
                    mem_peak_bytes: 4096,
                    mem_current_bytes: 2048,
                    kernel: "vectorized-dense".into(),
                    blocks_skipped: 0,
                    blocks_taken: 0,
                    blocks_scanned: 1,
                    rows_pruned: 0,
                },
                OpProfile {
                    op: "scan:overall".into(),
                    table: "overall".into(),
                    stratum: "overall".into(),
                    weight: 20.0,
                    rows_in: 12_225,
                    rows_out: 9_800,
                    morsels: 3,
                    morsels_per_worker: vec![2, 1],
                    morsel_p50_ns: 90_000,
                    morsel_p95_ns: 140_000,
                    morsel_p99_ns: 140_000,
                    mem_peak_bytes: 65_536,
                    mem_current_bytes: 8_192,
                    kernel: "vectorized-hash".into(),
                    blocks_skipped: 2,
                    blocks_taken: 1,
                    blocks_scanned: 0,
                    rows_pruned: 8_192,
                },
            ],
            cache_hit: false,
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let trace = sample_trace();
        let line = trace.to_json();
        assert!(!line.contains('\n'));
        let back = QueryTrace::from_json(&line).unwrap();
        assert_eq!(back, trace);
        // f64 fields survive bit-exactly
        assert_eq!(back.stages[0].ms.to_bits(), trace.stages[0].ms.to_bits());
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let good = sample_trace().to_json();
        assert!(QueryTrace::from_json(&good).is_ok());
        assert!(QueryTrace::from_json("not json").is_err());
        assert!(QueryTrace::from_json("[1,2]")
            .unwrap_err()
            .contains("object"));
        // A single-field edit of a good line, and the field the error names.
        for (from, to, field) in [
            (
                "\"schema_version\":3",
                "\"schema_version\":2",
                "schema_version",
            ),
            ("\"primary\"", "\"tier9\"", "serving_tier"),
            (
                "\"rows_scanned\":12345",
                "\"rows_scanned\":-1",
                "rows_scanned",
            ),
            ("\"rows_in\":120", "\"rows_in\":1.5", "rows_in"),
            ("\"ms\":0.25", "\"ms\":-0.25", "ms"),
            ("[\"sg_a\"", "[7", "sample_tables"),
            (
                "\"morsels_per_worker\":[2,1]",
                "\"morsels_per_worker\":[2,-1]",
                "morsels_per_worker",
            ),
        ] {
            assert!(good.contains(from), "{from}");
            let err = QueryTrace::from_json(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(field), "{to}: {err}");
        }
    }

    /// Each member of `members` removed, set to `null`, and set to a value
    /// of another type: `(member, edited members)`.
    fn member_edits(members: &[(String, Value)]) -> Vec<(String, Vec<(String, Value)>)> {
        let mut edits = Vec::new();
        for (i, (key, value)) in members.iter().enumerate() {
            let other = match value {
                Value::Str(_) => Value::Num(1.0),
                _ => Value::Str("1".into()),
            };
            let mut removed = members.to_vec();
            removed.remove(i);
            edits.push((key.clone(), removed));
            for replacement in [Value::Null, other] {
                let mut edited = members.to_vec();
                edited[i].1 = replacement;
                edits.push((key.clone(), edited));
            }
        }
        edits
    }

    #[test]
    fn strict_decoder_rejects_each_missing_or_mistyped_field() {
        let Value::Obj(good) = json::parse(&sample_trace().to_json()).unwrap() else {
            unreachable!("a trace is an object")
        };
        let rejects = |doc: Vec<(String, Value)>, field: &str| {
            let line = Value::Obj(doc).to_json();
            let err = QueryTrace::from_json(&line).expect_err(&line);
            assert!(err.contains(field), "{field}: {err}");
        };
        let mut tried = 0;
        for (field, doc) in member_edits(&good) {
            rejects(doc, &field);
            tried += 1;
        }
        // Operator and stage fields, edited inside the second operator
        // and the first stage of an otherwise good line.
        for (array, index) in [("operators", 1), ("stages", 0)] {
            let at = good.iter().position(|(k, _)| k == array).unwrap();
            let Value::Arr(entries) = &good[at].1 else {
                unreachable!("{array} is an array")
            };
            let Value::Obj(entry) = &entries[index] else {
                unreachable!("entries are objects")
            };
            for (field, edited) in member_edits(entry) {
                let mut doc = good.clone();
                let mut entries = entries.clone();
                entries[index] = Value::Obj(edited);
                doc[at].1 = Value::Arr(entries);
                rejects(doc, &field);
                tried += 1;
            }
        }
        // 13 top-level members, 19 operator members, 2 stage members.
        assert_eq!(tried, 3 * (13 + 19 + 2));
    }

    #[test]
    fn cache_hit_round_trips_and_validates() {
        let mut trace = sample_trace();
        trace.cache_hit = true;
        let line = trace.to_json();
        assert!(line.contains("\"cache_hit\":true"));
        assert_eq!(QueryTrace::from_json(&line).unwrap(), trace);
        let bad = line.replace("\"cache_hit\":true", "\"cache_hit\":\"yes\"");
        assert!(QueryTrace::from_json(&bad)
            .unwrap_err()
            .contains("cache_hit"));
        let absent = line.replace("\"cache_hit\":true,", "");
        assert!(QueryTrace::from_json(&absent)
            .unwrap_err()
            .contains("cache_hit"));
    }

    #[test]
    fn discard_operators_clears_abandoned_plan_attempt() {
        assert!(begin("q"));
        record_operator(OpProfile { op: "scan:doomed".into(), ..OpProfile::default() });
        discard_operators();
        record_operator(OpProfile { op: "scan:kept".into(), ..OpProfile::default() });
        let trace = finish().unwrap();
        assert_eq!(trace.operators.len(), 1);
        assert_eq!(trace.operators[0].op, "scan:kept");
    }

    #[test]
    fn collector_accumulates_repeated_stages() {
        assert!(begin("q1"));
        assert!(is_active());
        // Nested begin must not reset the open trace.
        assert!(!begin("q2-ignored"));
        record_stage("query.scan", Duration::from_millis(2));
        record_stage("query.scan", Duration::from_millis(3));
        record_stage("query.merge", Duration::from_millis(1));
        let trace = finish().expect("trace open");
        assert!(!is_active());
        assert_eq!(trace.query, "q1");
        assert_eq!(trace.stages.len(), 2);
        assert_eq!(trace.stages[0].stage, "query.scan");
        assert!((trace.stages[0].ms - 5.0).abs() < 1e-6);
        assert!(trace.total_ms >= 0.0);
        assert!(finish().is_none());
    }
}
