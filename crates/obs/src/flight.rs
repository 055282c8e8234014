//! The request record and the flight recorder.
//!
//! Every request — served or answered in-process — leaves one
//! [`RequestRecord`] behind. It holds the request (trace id, admission
//! class, terminal outcome, cache hit and a contiguous stage timeline in
//! microseconds) and the decision the runtime made for it (plan, serving
//! tier, sample tables, rows scanned vs. base rows, per-operator profiles
//! and the accumulated span time per name). A served request's timeline
//! is read → parse → cache → admission → execute → serialize → write; an
//! in-process answer's is its single `execute` stage.
//!
//! A server keeps the newest N records in a [`FlightRecorder`] ring under
//! a single brief mutex (one push per request), so when something goes
//! wrong — a shed, a timeout, an error — the last N requests are already
//! captured and can be dumped as JSONL for offline triage.
//!
//! The [`Timeline`] helper guarantees the timeline invariants by
//! construction: stages are measured checkpoint-to-checkpoint from one
//! monotonic clock, so they are monotone, gap-free, and their sum equals
//! the wall time from the first checkpoint to the last.
//!
//! The JSON form has one version, [`SCHEMA_VERSION`].
//! [`RequestRecord::to_json`] writes it through [`crate::json::Value`],
//! and [`RequestRecord::from_json`] is both its decoder and its
//! validator; the round trip is lossless, including `f64` bit patterns.

use std::collections::VecDeque;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};
use crate::profile::OpProfile;

/// Default ring capacity (records). Small enough that a dump is a few
/// hundred KB, large enough to hold the interesting recent past.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// The `schema_version` every record line carries, and the only one
/// [`RequestRecord::from_json`] accepts.
pub const SCHEMA_VERSION: u64 = 4;

/// The serving-tier labels an answer's record may carry
/// (`aqp_core::ServingTier`'s labels).
pub const TIER_LABELS: &[&str] = &["primary", "degraded", "overall", "exact"];

/// Named wall time in microseconds: one stage of a request timeline, or
/// the accumulated time of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name (`read`, `parse`, `cache`, `admission`, `execute`,
    /// `serialize`, `write`) or span name (`query.scan`, `sgs.frequency`).
    pub name: String,
    /// Wall time, microseconds.
    pub micros: u64,
}

/// Builds a contiguous stage timeline from checkpoints: each
/// [`Timeline::mark`] closes the stage that began at the previous
/// checkpoint. Because every stage is measured against the same clock
/// with no dead time between checkpoints, the stage sum is exactly the
/// wall time from start to the last mark.
#[derive(Debug)]
pub struct Timeline {
    last: Instant,
    stages: Vec<Stage>,
}

impl Timeline {
    /// Start a timeline now.
    pub fn start() -> Timeline {
        Timeline::start_at(Instant::now())
    }

    /// Start a timeline at an earlier checkpoint (e.g. when the first
    /// byte of a frame arrived, so the `read` stage covers the whole
    /// frame reassembly).
    pub fn start_at(at: Instant) -> Timeline {
        Timeline { last: at, stages: Vec::with_capacity(8) }
    }

    /// Close the current stage under `name`; the next stage begins now.
    pub fn mark(&mut self, name: &str) {
        let now = Instant::now();
        let micros = now.duration_since(self.last).as_micros() as u64;
        self.last = now;
        self.stages.push(Stage { name: name.to_string(), micros });
    }

    /// Stages recorded so far.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Sum of all recorded stages, microseconds (== wall time from the
    /// starting checkpoint to the last mark).
    pub fn total_micros(&self) -> u64 {
        self.stages.iter().map(|s| s.micros).sum()
    }

    /// Consume the timeline into its stage list.
    pub fn into_stages(self) -> Vec<Stage> {
        self.stages
    }
}

/// One request's record: what was asked, how it ended, where its time
/// went, and what the runtime decided to answer it with.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestRecord {
    /// Request trace id (client-supplied or server-generated; empty
    /// in-process).
    pub trace_id: String,
    /// Admission class label (`interactive` / `batch`; empty in-process).
    pub class: String,
    /// Terminal outcome (`answer`, `shed`, `timeout`, `error`,
    /// `draining`).
    pub outcome: String,
    /// Whether the answer came from the semantic cache (which executes
    /// nothing, so its record has no plan, sample tables, operators or
    /// spans).
    pub cache_hit: bool,
    /// Sum of `stages`, microseconds.
    pub total_micros: u64,
    /// The contiguous stage timeline.
    pub stages: Vec<Stage>,
    /// The query text: the request's SQL when served, the canonical
    /// `Display` form in-process.
    pub query: String,
    /// Plan summary chosen by the runtime (`union-all(3)`,
    /// `overall-only`, `exact-scan`).
    pub plan: String,
    /// Serving tier: one of [`TIER_LABELS`] on an answer, empty
    /// otherwise.
    pub serving_tier: String,
    /// Whether the answer was marked partial.
    pub partial: bool,
    /// Names of the sample tables (or base view) consulted.
    pub sample_tables: Vec<String>,
    /// Rows the answer scanned (0 for non-answers).
    pub rows_scanned: u64,
    /// Rows in the base relation the query is over.
    pub base_rows: u64,
    /// Number of result groups.
    pub groups: u64,
    /// Per-operator execution profiles, in plan (stratum) order.
    pub operators: Vec<OpProfile>,
    /// Span time accumulated per span name, in the order names first
    /// completed.
    pub spans: Vec<Stage>,
}

fn stages_value(stages: &[Stage]) -> Value {
    Value::Arr(
        stages
            .iter()
            .map(|s| Value::object([("stage", s.name.as_str().into()), ("micros", s.micros.into())]))
            .collect(),
    )
}

fn stage_from_value(s: &Value) -> Result<Stage, String> {
    Ok(Stage { name: s.str_field("stage")?.to_string(), micros: s.u64_field("micros")? })
}

impl RequestRecord {
    /// Encode as one JSON line.
    pub fn to_json(&self) -> String {
        Value::object([
            ("schema_version", SCHEMA_VERSION.into()),
            ("trace_id", self.trace_id.as_str().into()),
            ("class", self.class.as_str().into()),
            ("outcome", self.outcome.as_str().into()),
            ("cache_hit", self.cache_hit.into()),
            ("total_micros", self.total_micros.into()),
            ("stages", stages_value(&self.stages)),
            ("query", self.query.as_str().into()),
            ("plan", self.plan.as_str().into()),
            ("serving_tier", self.serving_tier.as_str().into()),
            ("partial", self.partial.into()),
            (
                "sample_tables",
                Value::Arr(self.sample_tables.iter().map(|t| t.as_str().into()).collect()),
            ),
            ("rows_scanned", self.rows_scanned.into()),
            ("base_rows", self.base_rows.into()),
            ("groups", self.groups.into()),
            ("operators", Value::Arr(self.operators.iter().map(operator_value).collect())),
            ("spans", stages_value(&self.spans)),
        ])
        .to_json()
    }

    /// Decode one JSON line (losslessly inverse to [`Self::to_json`]).
    /// Strict: the line must carry `schema_version` 4 and every member
    /// `to_json` writes, each of its type, with `total_micros` the sum of
    /// `stages` and a `serving_tier` from [`TIER_LABELS`] on an answer and
    /// empty otherwise; the error names the first member that does not.
    pub fn from_json(line: &str) -> Result<RequestRecord, String> {
        let v = json::parse(line)?;
        if !matches!(v, Value::Obj(_)) {
            return Err("request record must be a JSON object".into());
        }
        let version = v.u64_field("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!("schema_version {version} is not {SCHEMA_VERSION}"));
        }
        let outcome = v.str_field("outcome")?;
        let serving_tier = v.str_field("serving_tier")?;
        let tier_ok = if outcome == "answer" {
            TIER_LABELS.contains(&serving_tier)
        } else {
            serving_tier.is_empty()
        };
        if !tier_ok {
            return Err(format!(
                "serving_tier {serving_tier:?} does not fit outcome {outcome:?}: an answer \
                 carries one of {TIER_LABELS:?}, anything else \"\""
            ));
        }
        let stages = v.items("stages", stage_from_value)?;
        let total_micros = v.u64_field("total_micros")?;
        match stages.iter().try_fold(0u64, |sum, s| sum.checked_add(s.micros)) {
            Some(sum) if sum == total_micros => {}
            Some(sum) => return Err(format!("total_micros {total_micros} is not the stage sum {sum}")),
            None => return Err("total_micros: the stage sum overflows".into()),
        }
        Ok(RequestRecord {
            trace_id: v.str_field("trace_id")?.to_string(),
            class: v.str_field("class")?.to_string(),
            outcome: outcome.to_string(),
            cache_hit: v.bool_field("cache_hit")?,
            total_micros,
            stages,
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
            operators: v.items("operators", operator_from_value)?,
            spans: v.items("spans", stage_from_value)?,
        })
    }
}

fn operator_value(op: &OpProfile) -> Value {
    Value::object([
        ("op", op.op.as_str().into()),
        ("table", op.table.as_str().into()),
        ("stratum", (&*op.stratum).into()),
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
        ("kernel", (&*op.kernel).into()),
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
        stratum: o.str_field("stratum")?.to_owned().into(),
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
        kernel: o.str_field("kernel")?.to_owned().into(),
        blocks_skipped: o.u64_field("blocks_skipped")?,
        blocks_taken: o.u64_field("blocks_taken")?,
        blocks_scanned: o.u64_field("blocks_scanned")?,
        rows_pruned: o.u64_field("rows_pruned")?,
    })
}

/// The ring of the last N request records a server keeps.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    capacity: usize,
    buf: VecDeque<RequestRecord>,
}

impl FlightRecorder {
    /// A recorder keeping the newest `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(Ring {
                capacity: capacity.max(1),
                buf: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            }),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("flight ring poisoned").capacity
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight ring poisoned").buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push one record, evicting the oldest past capacity. No-op while
    /// collection is disabled ([`crate::set_enabled`]). The evicted
    /// record is freed after the ring's mutex is released.
    pub fn record(&self, record: RequestRecord) {
        if !crate::enabled() {
            return;
        }
        let evicted = {
            let mut ring = self.inner.lock().expect("flight ring poisoned");
            let evicted = if ring.buf.len() == ring.capacity { ring.buf.pop_front() } else { None };
            ring.buf.push_back(record);
            evicted
        };
        drop(evicted);
    }

    /// Copy of the retained records, oldest first.
    pub fn recent(&self) -> Vec<RequestRecord> {
        self.inner
            .lock()
            .expect("flight ring poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Drop every retained record.
    pub fn clear(&self) {
        self.inner.lock().expect("flight ring poisoned").buf.clear();
    }

    /// Render the retained records as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let ring = self.inner.lock().expect("flight ring poisoned");
        let mut out = String::new();
        for rec in &ring.buf {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Write the retained records to `path` as JSONL (whole-file
    /// overwrite: the file always holds the latest ring contents).
    /// Returns how many records were written.
    pub fn dump_to(&self, path: &std::path::Path) -> io::Result<usize> {
        let text = self.to_jsonl();
        let records = text.lines().count();
        std::fs::write(path, text)?;
        Ok(records)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> RequestRecord {
        RequestRecord {
            trace_id: format!("t-{i}"),
            class: "interactive".into(),
            outcome: "answer".into(),
            serving_tier: "primary".into(),
            cache_hit: i.is_multiple_of(2),
            rows_scanned: i * 10,
            total_micros: i,
            stages: vec![
                Stage { name: "read".into(), micros: i / 2 },
                Stage { name: "execute".into(), micros: i - i / 2 },
            ],
            ..RequestRecord::default()
        }
    }

    /// A served answer with every member set: a quoted query, two
    /// operators and repeated spans.
    fn full() -> RequestRecord {
        RequestRecord {
            trace_id: "tid-7".into(),
            class: "batch".into(),
            outcome: "answer".into(),
            cache_hit: false,
            total_micros: 1_530,
            stages: vec![
                Stage { name: "read".into(), micros: 10 },
                Stage { name: "execute".into(), micros: 1_500 },
                Stage { name: "write".into(), micros: 20 },
            ],
            query: "SELECT count(*) FROM t WHERE a = 'x\"quote' GROUP BY b".into(),
            plan: "union-all(3)".into(),
            serving_tier: "primary".into(),
            partial: false,
            sample_tables: vec!["sg_a".into(), "sg_b".into(), "overall".into()],
            rows_scanned: 12_345,
            base_rows: 1_000_000,
            groups: 17,
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
                    weight: 20.000000000000004,
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
            spans: vec![
                Stage { name: "query.scan".into(), micros: 1_234 },
                Stage { name: "query.merge".into(), micros: 1 },
                Stage { name: "plan.finalize".into(), micros: 250 },
            ],
        }
    }

    #[test]
    fn record_json_round_trips() {
        for r in [rec(42), full(), RequestRecord::default()] {
            let line = r.to_json();
            assert!(!line.contains('\n'));
            assert_eq!(RequestRecord::from_json(&line).unwrap(), r);
        }
        let back = RequestRecord::from_json(&full().to_json()).unwrap();
        assert_eq!(back.operators[1].weight.to_bits(), full().operators[1].weight.to_bits());
        assert!(RequestRecord::from_json("{\"schema_version\":4}")
            .unwrap_err()
            .contains("outcome"));
        assert!(RequestRecord::from_json("not json").is_err());
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let good = full().to_json();
        assert!(RequestRecord::from_json("[1,2]").unwrap_err().contains("object"));
        // A single-member edit of a good line, and the member the error
        // names.
        for (from, to, field) in [
            ("\"schema_version\":4", "\"schema_version\":3", "schema_version"),
            ("\"schema_version\":4,", "", "schema_version"),
            ("\"primary\"", "\"tier9\"", "serving_tier"),
            ("\"serving_tier\":\"primary\"", "\"serving_tier\":\"\"", "serving_tier"),
            ("\"outcome\":\"answer\"", "\"outcome\":\"timeout\"", "serving_tier"),
            ("\"total_micros\":1530", "\"total_micros\":1531", "total_micros"),
            ("\"rows_scanned\":12345", "\"rows_scanned\":-1", "rows_scanned"),
            ("\"rows_in\":120", "\"rows_in\":1.5", "rows_in"),
            ("\"micros\":250", "\"micros\":-250", "micros"),
            ("[\"sg_a\"", "[7", "sample_tables"),
            ("\"cache_hit\":false", "\"cache_hit\":0", "cache_hit"),
            (
                "\"morsels_per_worker\":[2,1]",
                "\"morsels_per_worker\":[2,-1]",
                "morsels_per_worker",
            ),
        ] {
            assert!(good.contains(from), "{from}");
            let err = RequestRecord::from_json(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(field), "{to}: {err}");
        }
        // A non-answer carries no tier, and a v3 trace line is refused by
        // its version before anything else.
        let shed = RequestRecord { outcome: "shed".into(), ..RequestRecord::default() };
        assert!(RequestRecord::from_json(&shed.to_json()).is_ok());
        let v3 = "{\"query\":\"\",\"plan\":\"\",\"serving_tier\":\"\",\"partial\":false,\
                  \"sample_tables\":[],\"rows_scanned\":0,\"base_rows\":0,\"groups\":0,\
                  \"stages\":[],\"total_ms\":0,\"cache_hit\":false,\"schema_version\":3,\
                  \"operators\":[]}";
        assert!(RequestRecord::from_json(v3).unwrap_err().contains("schema_version"));
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
        let Value::Obj(good) = json::parse(&full().to_json()).unwrap() else {
            unreachable!("a record is an object")
        };
        let rejects = |doc: Vec<(String, Value)>, field: &str| {
            let line = Value::Obj(doc).to_json();
            let err = RequestRecord::from_json(&line).expect_err(&line);
            assert!(err.contains(field), "{field}: {err}");
        };
        let mut tried = 0;
        for (field, doc) in member_edits(&good) {
            rejects(doc, &field);
            tried += 1;
        }
        // Operator, stage and span members, edited inside the second
        // operator, the first stage and the last span of an otherwise
        // good line.
        for (array, index) in [("operators", 1), ("stages", 0), ("spans", 2)] {
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
        // 17 top-level members, 19 operator members, 2 stage members and
        // 2 span members.
        assert_eq!(tried, 3 * (17 + 19 + 2 + 2));
    }

    #[test]
    fn ring_keeps_newest_n() {
        let fr = FlightRecorder::new(8);
        for i in 0..20 {
            fr.record(rec(i));
        }
        let recent = fr.recent();
        assert_eq!(recent.len(), 8);
        assert_eq!(recent[0].trace_id, "t-12");
        assert_eq!(recent[7].trace_id, "t-19");
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 8);
        fr.clear();
        assert!(fr.is_empty());
    }

    #[test]
    fn timeline_is_contiguous_and_sums() {
        let mut tl = Timeline::start();
        tl.mark("read");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tl.mark("execute");
        tl.mark("write");
        let total: u64 = tl.stages().iter().map(|s| s.micros).sum();
        assert_eq!(total, tl.total_micros());
        assert!(tl.total_micros() >= 2_000, "slept 2ms inside a stage");
        let names: Vec<&str> = tl.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["read", "execute", "write"]);
    }

    #[test]
    fn dump_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("aqp_flight_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let fr = FlightRecorder::new(4);
        for i in 0..6 {
            fr.record(rec(i));
        }
        let n = fr.dump_to(&path).unwrap();
        assert_eq!(n, 4);
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            RequestRecord::from_json(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
