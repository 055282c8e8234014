//! Per-query execution traces.
//!
//! A [`QueryTrace`] records everything the runtime decided for one query:
//! the plan chosen, which sample tables were consulted, rows scanned vs.
//! base rows, the serving tier, and wall time per stage. Traces are built
//! on the control thread via a thread-local collector: [`begin`] opens
//! one, [`span`](crate::span) timers dropped while it is open append
//! stage timings, and [`finish`] closes it. Morsel workers never touch
//! the collector, so scoped-thread execution is unaffected.
//!
//! The JSON schema (documented in DESIGN.md §10) is stable and validated
//! by [`validate_json`]; `to_json` → [`QueryTrace::from_json`] is
//! lossless, including `f64` bit patterns.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::profile::OpProfile;

/// Version emitted in the `schema_version` field of new trace lines.
/// v1 lines (no version field, no `operators`) still parse and validate;
/// v2 adds the per-operator profile array; v3 adds the per-operator
/// zone-map pruning counters (`blocks_skipped`/`blocks_taken`/
/// `blocks_scanned`/`rows_pruned`).
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
    /// Per-operator execution profiles (schema v2; empty for v1 traces).
    pub operators: Vec<OpProfile>,
    /// Whether the answer was served from the semantic answer cache
    /// (additive field; absent on older lines, defaulting to false).
    pub cache_hit: bool,
}

impl QueryTrace {
    /// Encode as a single JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"query\":");
        json::write_escaped(&mut out, &self.query);
        out.push_str(",\"plan\":");
        json::write_escaped(&mut out, &self.plan);
        out.push_str(",\"serving_tier\":");
        json::write_escaped(&mut out, &self.serving_tier);
        out.push_str(",\"partial\":");
        out.push_str(if self.partial { "true" } else { "false" });
        out.push_str(",\"sample_tables\":[");
        for (i, t) in self.sample_tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, t);
        }
        out.push_str("],\"rows_scanned\":");
        out.push_str(&self.rows_scanned.to_string());
        out.push_str(",\"base_rows\":");
        out.push_str(&self.base_rows.to_string());
        out.push_str(",\"groups\":");
        out.push_str(&self.groups.to_string());
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":");
            json::write_escaped(&mut out, &s.stage);
            out.push_str(",\"ms\":");
            json::write_f64(&mut out, s.ms);
            out.push('}');
        }
        out.push_str("],\"total_ms\":");
        json::write_f64(&mut out, self.total_ms);
        out.push_str(",\"cache_hit\":");
        out.push_str(if self.cache_hit { "true" } else { "false" });
        out.push_str(",\"schema_version\":");
        out.push_str(&TRACE_SCHEMA_VERSION.to_string());
        out.push_str(",\"operators\":[");
        for (i, op) in self.operators.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"op\":");
            json::write_escaped(&mut out, &op.op);
            out.push_str(",\"table\":");
            json::write_escaped(&mut out, &op.table);
            out.push_str(",\"stratum\":");
            json::write_escaped(&mut out, &op.stratum);
            out.push_str(",\"weight\":");
            json::write_f64(&mut out, op.weight);
            out.push_str(",\"rows_in\":");
            out.push_str(&op.rows_in.to_string());
            out.push_str(",\"rows_out\":");
            out.push_str(&op.rows_out.to_string());
            out.push_str(",\"selectivity\":");
            json::write_f64(&mut out, op.selectivity());
            out.push_str(",\"morsels\":");
            out.push_str(&op.morsels.to_string());
            out.push_str(",\"morsels_per_worker\":[");
            for (j, m) in op.morsels_per_worker.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&m.to_string());
            }
            out.push_str("],\"morsel_p50_ns\":");
            out.push_str(&op.morsel_p50_ns.to_string());
            out.push_str(",\"morsel_p95_ns\":");
            out.push_str(&op.morsel_p95_ns.to_string());
            out.push_str(",\"morsel_p99_ns\":");
            out.push_str(&op.morsel_p99_ns.to_string());
            out.push_str(",\"mem_peak_bytes\":");
            out.push_str(&op.mem_peak_bytes.to_string());
            out.push_str(",\"mem_current_bytes\":");
            out.push_str(&op.mem_current_bytes.to_string());
            out.push_str(",\"kernel\":");
            json::write_escaped(&mut out, &op.kernel);
            out.push_str(",\"blocks_skipped\":");
            out.push_str(&op.blocks_skipped.to_string());
            out.push_str(",\"blocks_taken\":");
            out.push_str(&op.blocks_taken.to_string());
            out.push_str(",\"blocks_scanned\":");
            out.push_str(&op.blocks_scanned.to_string());
            out.push_str(",\"rows_pruned\":");
            out.push_str(&op.rows_pruned.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a trace record back from its JSON line, validating the
    /// schema along the way.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let value = json::parse(line)?;
        validate_value(&value)?;
        let str_field = |k: &str| value.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let num_field = |k: &str| value.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let mut trace = QueryTrace {
            query: str_field("query"),
            plan: str_field("plan"),
            serving_tier: str_field("serving_tier"),
            partial: value.get("partial").and_then(Value::as_bool).unwrap_or(false),
            sample_tables: value
                .get("sample_tables")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            rows_scanned: num_field("rows_scanned") as u64,
            base_rows: num_field("base_rows") as u64,
            groups: num_field("groups") as u64,
            stages: Vec::new(),
            total_ms: num_field("total_ms"),
            operators: Vec::new(),
            cache_hit: value.get("cache_hit").and_then(Value::as_bool).unwrap_or(false),
        };
        if let Some(stages) = value.get("stages").and_then(Value::as_arr) {
            for s in stages {
                trace.stages.push(StageTime {
                    stage: s.get("stage").and_then(Value::as_str).unwrap_or("").to_string(),
                    ms: s.get("ms").and_then(Value::as_f64).unwrap_or(0.0),
                });
            }
        }
        if let Some(ops) = value.get("operators").and_then(Value::as_arr) {
            for o in ops {
                let s = |k: &str| o.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                let n = |k: &str| o.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                trace.operators.push(OpProfile {
                    op: s("op"),
                    table: s("table"),
                    stratum: s("stratum"),
                    weight: n("weight"),
                    rows_in: n("rows_in") as u64,
                    rows_out: n("rows_out") as u64,
                    morsels: n("morsels") as u64,
                    morsels_per_worker: o
                        .get("morsels_per_worker")
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|v| v.as_f64().map(|m| m as u64))
                        .collect(),
                    morsel_p50_ns: n("morsel_p50_ns") as u64,
                    morsel_p95_ns: n("morsel_p95_ns") as u64,
                    morsel_p99_ns: n("morsel_p99_ns") as u64,
                    mem_peak_bytes: n("mem_peak_bytes") as u64,
                    mem_current_bytes: n("mem_current_bytes") as u64,
                    kernel: s("kernel"),
                    blocks_skipped: n("blocks_skipped") as u64,
                    blocks_taken: n("blocks_taken") as u64,
                    blocks_scanned: n("blocks_scanned") as u64,
                    rows_pruned: n("rows_pruned") as u64,
                });
            }
        }
        Ok(trace)
    }
}

/// The serving-tier labels the schema accepts (matches
/// `aqp_core::ServingTier`'s `Display` output, plus the trait-level
/// `unknown` default).
pub const TIER_LABELS: &[&str] = &["primary", "degraded", "overall", "exact", "unknown"];

/// Validate one JSON line against the documented `QueryTrace` schema.
/// Returns a description of the first violation.
pub fn validate_json(line: &str) -> Result<(), String> {
    let value = json::parse(line)?;
    validate_value(&value)
}

fn validate_value(value: &Value) -> Result<(), String> {
    let obj = match value {
        Value::Obj(_) => value,
        _ => return Err("trace record must be a JSON object".into()),
    };
    for key in ["query", "plan", "serving_tier"] {
        match obj.get(key) {
            Some(Value::Str(_)) => {}
            Some(_) => return Err(format!("field {key:?} must be a string")),
            None => return Err(format!("missing field {key:?}")),
        }
    }
    let tier = obj.get("serving_tier").and_then(Value::as_str).unwrap_or("");
    if !TIER_LABELS.contains(&tier) {
        return Err(format!("serving_tier {tier:?} not in {TIER_LABELS:?}"));
    }
    match obj.get("partial") {
        Some(Value::Bool(_)) => {}
        Some(_) => return Err("field \"partial\" must be a bool".into()),
        None => return Err("missing field \"partial\"".into()),
    }
    match obj.get("sample_tables") {
        Some(Value::Arr(items)) => {
            if items.iter().any(|v| v.as_str().is_none()) {
                return Err("sample_tables entries must be strings".into());
            }
        }
        Some(_) => return Err("field \"sample_tables\" must be an array".into()),
        None => return Err("missing field \"sample_tables\"".into()),
    }
    for key in ["rows_scanned", "base_rows", "groups"] {
        match obj.get(key).and_then(Value::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => {}
            Some(_) => return Err(format!("field {key:?} must be a non-negative integer")),
            None => return Err(format!("missing numeric field {key:?}")),
        }
    }
    match obj.get("total_ms").and_then(Value::as_f64) {
        Some(n) if n >= 0.0 => {}
        _ => return Err("field \"total_ms\" must be a non-negative number".into()),
    }
    match obj.get("stages") {
        Some(Value::Arr(items)) => {
            for s in items {
                match (s.get("stage").and_then(Value::as_str), s.get("ms").and_then(Value::as_f64))
                {
                    (Some(_), Some(ms)) if ms >= 0.0 => {}
                    _ => {
                        return Err(
                            "stages entries must be {\"stage\": str, \"ms\": number>=0}".into()
                        )
                    }
                }
            }
        }
        Some(_) => return Err("field \"stages\" must be an array".into()),
        None => return Err("missing field \"stages\"".into()),
    }
    // v2 fields are optional — a v1 line (no version, no operators) still
    // validates — but when present they must be well-formed.
    match obj.get("cache_hit") {
        None | Some(Value::Bool(_)) => {}
        Some(_) => return Err("field \"cache_hit\" must be a bool".into()),
    }
    match obj.get("schema_version").and_then(Value::as_f64) {
        None => {}
        Some(v) if v == 1.0 || v == 2.0 || v == 3.0 => {}
        Some(v) => return Err(format!("unsupported schema_version {v}")),
    }
    match obj.get("operators") {
        None => {}
        Some(Value::Arr(items)) => {
            for o in items {
                validate_operator(o)?;
            }
        }
        Some(_) => return Err("field \"operators\" must be an array".into()),
    }
    Ok(())
}

/// Validate one `operators[]` entry of a v2 trace line.
fn validate_operator(o: &Value) -> Result<(), String> {
    if !matches!(o, Value::Obj(_)) {
        return Err("operators entries must be objects".into());
    }
    for key in ["op", "table", "stratum"] {
        match o.get(key) {
            Some(Value::Str(_)) => {}
            _ => return Err(format!("operator field {key:?} must be a string")),
        }
    }
    for key in [
        "rows_in",
        "rows_out",
        "morsels",
        "morsel_p50_ns",
        "morsel_p95_ns",
        "morsel_p99_ns",
        "mem_peak_bytes",
        "mem_current_bytes",
    ] {
        match o.get(key).and_then(Value::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => {}
            _ => return Err(format!("operator field {key:?} must be a non-negative integer")),
        }
    }
    for key in ["weight", "selectivity"] {
        match o.get(key).and_then(Value::as_f64) {
            Some(n) if n >= 0.0 => {}
            _ => return Err(format!("operator field {key:?} must be a non-negative number")),
        }
    }
    // Additive since the vectorised-kernel work: absent on older v2 lines.
    match o.get("kernel") {
        None | Some(Value::Str(_)) => {}
        Some(_) => return Err("operator field \"kernel\" must be a string".into()),
    }
    // v3 pruning counters: absent on v1/v2 lines, non-negative integers
    // when present.
    for key in ["blocks_skipped", "blocks_taken", "blocks_scanned", "rows_pruned"] {
        match o.get(key) {
            None => {}
            Some(v) => match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => {}
                _ => {
                    return Err(format!(
                        "operator field {key:?} must be a non-negative integer"
                    ))
                }
            },
        }
    }
    match o.get("morsels_per_worker") {
        Some(Value::Arr(items)) => {
            for m in items {
                match m.as_f64() {
                    Some(n) if n >= 0.0 && n.fract() == 0.0 => {}
                    _ => {
                        return Err(
                            "morsels_per_worker entries must be non-negative integers".into()
                        )
                    }
                }
            }
        }
        _ => return Err("operator field \"morsels_per_worker\" must be an array".into()),
    }
    Ok(())
}

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
        assert!(validate_json(&good).is_ok());
        assert!(validate_json("not json").is_err());
        assert!(validate_json("[1,2]").is_err());
        let missing = good.replacen("\"plan\"", "\"nalp\"", 1);
        assert!(validate_json(&missing).unwrap_err().contains("plan"));
        let bad_tier = good.replace("\"primary\"", "\"tier9\"");
        assert!(validate_json(&bad_tier).unwrap_err().contains("serving_tier"));
        let bad_rows = good.replace("\"rows_scanned\":12345", "\"rows_scanned\":-1");
        assert!(validate_json(&bad_rows).is_err());
    }

    #[test]
    fn cache_hit_round_trips_and_validates() {
        let mut trace = sample_trace();
        trace.cache_hit = true;
        let line = trace.to_json();
        assert!(line.contains("\"cache_hit\":true"));
        assert_eq!(QueryTrace::from_json(&line).unwrap(), trace);
        let bad = line.replace("\"cache_hit\":true", "\"cache_hit\":\"yes\"");
        assert!(validate_json(&bad).unwrap_err().contains("cache_hit"));
        // Older lines without the field parse as not-a-hit.
        let absent = line.replace("\"cache_hit\":true,", "");
        assert!(validate_json(&absent).is_ok());
        assert!(!QueryTrace::from_json(&absent).unwrap().cache_hit);
    }

    #[test]
    fn v1_lines_without_operators_still_validate() {
        // A pre-versioning trace line: no schema_version, no operators.
        let v1 = "{\"query\":\"q\",\"plan\":\"union-all(2)\",\"serving_tier\":\"primary\",\
                  \"partial\":false,\"sample_tables\":[\"sg_a\"],\"rows_scanned\":10,\
                  \"base_rows\":100,\"groups\":3,\"stages\":[{\"stage\":\"query.scan\",\
                  \"ms\":0.5}],\"total_ms\":0.7}";
        assert!(validate_json(v1).is_ok());
        let trace = QueryTrace::from_json(v1).unwrap();
        assert!(trace.operators.is_empty());
        // Re-serialized it becomes the current version and still validates.
        assert!(validate_json(&trace.to_json()).is_ok());
    }

    #[test]
    fn v2_operator_fields_are_validated() {
        let good = sample_trace().to_json();
        assert!(good.contains("\"schema_version\":3"));
        let bad = good.replace("\"rows_in\":120", "\"rows_in\":-5");
        assert!(validate_json(&bad).unwrap_err().contains("rows_in"));
        let bad = good.replace("\"stratum\":\"small-group\"", "\"stratum\":7");
        assert!(validate_json(&bad).unwrap_err().contains("stratum"));
        let bad = good.replace("\"morsels_per_worker\":[1]", "\"morsels_per_worker\":[-1]");
        assert!(validate_json(&bad).is_err());
        let bad = good.replace("\"kernel\":\"vectorized-hash\"", "\"kernel\":3");
        assert!(validate_json(&bad).unwrap_err().contains("kernel"));
        // Operators without the kernel field (older v2 lines) still pass.
        let old = good.replace(",\"kernel\":\"vectorized-hash\"", "").replace(",\"kernel\":\"vectorized-dense\"", "");
        assert!(validate_json(&old).is_ok());
        let bad = good.replace("\"schema_version\":3", "\"schema_version\":9");
        assert!(validate_json(&bad).unwrap_err().contains("schema_version"));
        let bad = good.replace("\"operators\":[", "\"operators\":[{\"op\":\"x\"},");
        assert!(validate_json(&bad).is_err(), "operator missing fields rejected");
    }

    #[test]
    fn v3_prune_fields_round_trip_and_validate() {
        let trace = sample_trace();
        let line = trace.to_json();
        assert!(line.contains("\"blocks_skipped\":2"));
        assert!(line.contains("\"rows_pruned\":8192"));
        let back = QueryTrace::from_json(&line).unwrap();
        assert_eq!(back.operators[1].blocks_skipped, 2);
        assert_eq!(back.operators[1].blocks_taken, 1);
        assert_eq!(back.operators[1].rows_pruned, 8_192);
        // Negative or fractional prune counters are rejected.
        let bad = line.replace("\"blocks_skipped\":2", "\"blocks_skipped\":-2");
        assert!(validate_json(&bad).unwrap_err().contains("blocks_skipped"));
        let bad = line.replace("\"rows_pruned\":8192", "\"rows_pruned\":1.5");
        assert!(validate_json(&bad).unwrap_err().contains("rows_pruned"));
        // v2 lines without the counters still validate and parse as zero.
        let v2 = line
            .replace(",\"blocks_skipped\":2,\"blocks_taken\":1,\"blocks_scanned\":0,\"rows_pruned\":8192", "")
            .replace(",\"blocks_skipped\":0,\"blocks_taken\":0,\"blocks_scanned\":1,\"rows_pruned\":0", "")
            .replace("\"schema_version\":3", "\"schema_version\":2");
        assert!(validate_json(&v2).is_ok());
        let old = QueryTrace::from_json(&v2).unwrap();
        assert_eq!(old.operators[1].blocks_skipped, 0);
        assert_eq!(old.operators[1].rows_pruned, 0);
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
