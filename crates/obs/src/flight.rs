//! Flight recorder: a fixed-size ring of per-request records.
//!
//! Every served request leaves one [`RequestRecord`] behind — its trace
//! id, admission class, terminal outcome, and a contiguous stage
//! timeline (read → parse → cache → admission → execute → serialize →
//! write, in microseconds). The ring keeps the newest N records under a
//! single brief mutex (one push per request, no allocation beyond the
//! record itself), so the recorder is always on: when something goes
//! wrong — a shed, a timeout, an SLO breach — the last N requests are
//! already captured and can be dumped as JSONL for offline triage.
//!
//! The [`Timeline`] helper guarantees the timeline invariants by
//! construction: stages are measured checkpoint-to-checkpoint from one
//! monotonic clock, so they are monotone, gap-free, and their sum equals
//! the wall time from the first checkpoint to the last.

use std::collections::VecDeque;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};

/// Default ring capacity (records). Small enough that a dump is a few
/// hundred KB, large enough to hold the interesting recent past.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One stage of a request timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name (`read`, `parse`, `cache`, `admission`, `execute`,
    /// `serialize`, `write`).
    pub name: String,
    /// Wall time spent in the stage, microseconds.
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

/// One request's flight record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request trace id (client-supplied or server-generated).
    pub trace_id: String,
    /// Admission class label (`interactive` / `batch`).
    pub class: String,
    /// Terminal outcome (`answer`, `shed`, `timeout`, `error`,
    /// `draining`).
    pub outcome: String,
    /// Serving tier for answered requests, empty otherwise.
    pub tier: String,
    /// Whether the answer came from the semantic cache.
    pub cache_hit: bool,
    /// Rows the answer scanned (0 for non-answers).
    pub rows_scanned: u64,
    /// Sum of the stage timeline, microseconds.
    pub total_micros: u64,
    /// The contiguous stage timeline.
    pub stages: Vec<Stage>,
}

impl RequestRecord {
    /// Encode as one JSON line.
    pub fn to_json(&self) -> String {
        let stages = self.stages.iter().map(|s| {
            Value::object([
                ("stage", s.name.as_str().into()),
                ("micros", s.micros.into()),
            ])
        });
        Value::object([
            ("trace_id", self.trace_id.as_str().into()),
            ("class", self.class.as_str().into()),
            ("outcome", self.outcome.as_str().into()),
            ("tier", self.tier.as_str().into()),
            ("cache_hit", self.cache_hit.into()),
            ("rows_scanned", self.rows_scanned.into()),
            ("total_micros", self.total_micros.into()),
            ("stages", Value::Arr(stages.collect())),
        ])
        .to_json()
    }

    /// Decode one JSON line (losslessly inverse to [`Self::to_json`]).
    /// Every field is required; the error names the first one missing or
    /// of the wrong type.
    pub fn from_json(line: &str) -> Result<RequestRecord, String> {
        let v = json::parse(line)?;
        Ok(RequestRecord {
            trace_id: v.str_field("trace_id")?.to_string(),
            class: v.str_field("class")?.to_string(),
            outcome: v.str_field("outcome")?.to_string(),
            tier: v.str_field("tier")?.to_string(),
            cache_hit: v.bool_field("cache_hit")?,
            rows_scanned: v.u64_field("rows_scanned")?,
            total_micros: v.u64_field("total_micros")?,
            stages: v.items("stages", |s| {
                Ok(Stage {
                    name: s.str_field("stage")?.to_string(),
                    micros: s.u64_field("micros")?,
                })
            })?,
        })
    }
}

/// The always-on ring of the last N request records.
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
    /// collection is disabled ([`crate::set_enabled`]).
    pub fn record(&self, record: RequestRecord) {
        if !crate::enabled() {
            return;
        }
        let mut ring = self.inner.lock().expect("flight ring poisoned");
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(record);
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
            tier: "primary".into(),
            cache_hit: i.is_multiple_of(2),
            rows_scanned: i * 10,
            total_micros: i,
            stages: vec![
                Stage { name: "read".into(), micros: i / 2 },
                Stage { name: "execute".into(), micros: i - i / 2 },
            ],
        }
    }

    #[test]
    fn record_json_round_trips() {
        let r = rec(42);
        let back = RequestRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert!(RequestRecord::from_json("{}")
            .unwrap_err()
            .contains("trace_id"));
        assert!(RequestRecord::from_json("not json").is_err());
        let line = r.to_json();
        for (from, to, field) in [
            (",\"tier\":\"primary\"", "", "tier"),
            ("\"cache_hit\":true", "\"cache_hit\":1", "cache_hit"),
            ("\"micros\":21", "\"micros\":-21", "micros"),
        ] {
            assert!(line.contains(from), "{from}");
            let err = RequestRecord::from_json(&line.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(field), "{to}: {err}");
        }
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
