//! Byte-exact pins for the observability records' JSON.
//!
//! `QueryTrace`, `RequestRecord` and `CalibrationReport` are encoded
//! through `aqp_obs::json::Value`. The expected strings below were
//! recorded from the hand-written `push_str` encoders that preceded it,
//! so a reader of any earlier trace, flight dump or calibration file
//! reads these bytes unchanged: member order, escapes, integer and
//! shortest round-trip float formatting, empty arrays.

use aqp::obs::flight::{RequestRecord, Stage};
use aqp::obs::{OpProfile, QueryTrace, StageTime};
use aqp::workload::{CalibrationReport, CoverageBucket};

fn traces() -> Vec<QueryTrace> {
    vec![
        QueryTrace {
            query: "SELECT a, COUNT(*) FROM t WHERE b = 'x\"q\\s\n\t\u{1}≈' GROUP BY a".into(),
            plan: "union-all(3)".into(),
            serving_tier: "degraded".into(),
            partial: true,
            sample_tables: vec!["sg_a".into(), "overall".into()],
            rows_scanned: 12_345,
            base_rows: 9_007_199_254_740_992,
            groups: 0,
            stages: vec![
                StageTime {
                    stage: "query.scan".into(),
                    ms: 1.2345678901234,
                },
                StageTime {
                    stage: "query.merge".into(),
                    ms: 0.001,
                },
                StageTime {
                    stage: "tiny".into(),
                    ms: 1e-9,
                },
                StageTime {
                    stage: "whole".into(),
                    ms: 12345.0,
                },
            ],
            total_ms: 1.5e3,
            operators: vec![
                OpProfile {
                    op: "scan:sg_a".into(),
                    table: "sg_a".into(),
                    stratum: "small-group".into(),
                    weight: 0.0,
                    rows_in: 0,
                    rows_out: 0,
                    morsels: 0,
                    morsels_per_worker: vec![],
                    kernel: String::new(),
                    ..OpProfile::default()
                },
                OpProfile {
                    op: "scan:overall".into(),
                    table: "overall".into(),
                    stratum: "overall".into(),
                    weight: 20.5,
                    rows_in: 3,
                    rows_out: 1,
                    morsels: 3,
                    morsels_per_worker: vec![2, 1],
                    morsel_p50_ns: 90_000,
                    morsel_p95_ns: 140_000,
                    morsel_p99_ns: 1_000_000_007,
                    mem_peak_bytes: 65_536,
                    mem_current_bytes: 8_192,
                    kernel: "vectorized-hash".into(),
                    blocks_skipped: 2,
                    blocks_taken: 1,
                    blocks_scanned: 4,
                    rows_pruned: 8_192,
                },
            ],
            cache_hit: true,
        },
        QueryTrace::default(),
    ]
}

fn records() -> Vec<RequestRecord> {
    vec![
        RequestRecord {
            trace_id: "t-\"42\"\\".into(),
            class: "interactive".into(),
            outcome: "timeout".into(),
            tier: String::new(),
            cache_hit: false,
            rows_scanned: 0,
            total_micros: 1_234_567,
            stages: vec![
                Stage {
                    name: "read".into(),
                    micros: 3,
                },
                Stage {
                    name: "execute".into(),
                    micros: 1_234_564,
                },
            ],
        },
        RequestRecord {
            trace_id: "srv-7".into(),
            class: "batch".into(),
            outcome: "answer".into(),
            tier: "primary".into(),
            cache_hit: true,
            rows_scanned: 500_000,
            total_micros: 0,
            stages: vec![],
        },
    ]
}

fn bucket(label: &str, cells: u64, covered: u64) -> CoverageBucket {
    CoverageBucket {
        label: label.into(),
        cells,
        covered,
    }
}

fn calibrations() -> Vec<CalibrationReport> {
    vec![
        CalibrationReport {
            nominal: 0.95,
            queries: 15,
            exact_cells: 4,
            unbounded_cells: 1,
            per_function: vec![bucket("COUNT", 20, 19), bucket("SUM", 30, 12)],
            per_decile: vec![
                bucket("d1 rows 1-5", 5, 2),
                bucket("d2 \"rows\" 6-10", 0, 0),
            ],
            per_rows: vec![bucket("n 1", 12, 3), bucket("n 21+", 38, 28)],
            overall: bucket("overall", 50, 31),
        },
        CalibrationReport {
            nominal: 0.9,
            queries: 0,
            exact_cells: 0,
            unbounded_cells: 0,
            per_function: vec![],
            per_decile: vec![],
            per_rows: vec![],
            overall: bucket("overall", 0, 0),
        },
    ]
}

const TRACES: [&str; 2] = [
    "{\"query\":\"SELECT a, COUNT(*) FROM t WHERE b = 'x\\\"q\\\\s\\n\\t\\u0001≈' GROUP BY a\",\"plan\":\"union-all(3)\",\"serving_tier\":\"degraded\",\"partial\":true,\"sample_tables\":[\"sg_a\",\"overall\"],\"rows_scanned\":12345,\"base_rows\":9007199254740992,\"groups\":0,\"stages\":[{\"stage\":\"query.scan\",\"ms\":1.2345678901234},{\"stage\":\"query.merge\",\"ms\":0.001},{\"stage\":\"tiny\",\"ms\":0.000000001},{\"stage\":\"whole\",\"ms\":12345}],\"total_ms\":1500,\"cache_hit\":true,\"schema_version\":3,\"operators\":[{\"op\":\"scan:sg_a\",\"table\":\"sg_a\",\"stratum\":\"small-group\",\"weight\":0,\"rows_in\":0,\"rows_out\":0,\"selectivity\":1,\"morsels\":0,\"morsels_per_worker\":[],\"morsel_p50_ns\":0,\"morsel_p95_ns\":0,\"morsel_p99_ns\":0,\"mem_peak_bytes\":0,\"mem_current_bytes\":0,\"kernel\":\"\",\"blocks_skipped\":0,\"blocks_taken\":0,\"blocks_scanned\":0,\"rows_pruned\":0},{\"op\":\"scan:overall\",\"table\":\"overall\",\"stratum\":\"overall\",\"weight\":20.5,\"rows_in\":3,\"rows_out\":1,\"selectivity\":0.3333333333333333,\"morsels\":3,\"morsels_per_worker\":[2,1],\"morsel_p50_ns\":90000,\"morsel_p95_ns\":140000,\"morsel_p99_ns\":1000000007,\"mem_peak_bytes\":65536,\"mem_current_bytes\":8192,\"kernel\":\"vectorized-hash\",\"blocks_skipped\":2,\"blocks_taken\":1,\"blocks_scanned\":4,\"rows_pruned\":8192}]}",
    "{\"query\":\"\",\"plan\":\"\",\"serving_tier\":\"\",\"partial\":false,\"sample_tables\":[],\"rows_scanned\":0,\"base_rows\":0,\"groups\":0,\"stages\":[],\"total_ms\":0,\"cache_hit\":false,\"schema_version\":3,\"operators\":[]}",
];

const RECORDS: [&str; 2] = [
    "{\"trace_id\":\"t-\\\"42\\\"\\\\\",\"class\":\"interactive\",\"outcome\":\"timeout\",\"tier\":\"\",\"cache_hit\":false,\"rows_scanned\":0,\"total_micros\":1234567,\"stages\":[{\"stage\":\"read\",\"micros\":3},{\"stage\":\"execute\",\"micros\":1234564}]}",
    "{\"trace_id\":\"srv-7\",\"class\":\"batch\",\"outcome\":\"answer\",\"tier\":\"primary\",\"cache_hit\":true,\"rows_scanned\":500000,\"total_micros\":0,\"stages\":[]}",
];

const CALIBRATIONS: [&str; 2] = [
    "{\"nominal\":0.95,\"queries\":15,\"cells\":50,\"exact_cells\":4,\"unbounded_cells\":1,\"overall\":{\"label\":\"overall\",\"cells\":50,\"covered\":31,\"observed\":0.62,\"ci_lo\":0.4812427804271055,\"ci_hi\":0.7416337957552479,\"flagged\":true},\"per_function\":[{\"label\":\"COUNT\",\"cells\":20,\"covered\":19,\"observed\":0.95,\"ci_lo\":0.7458854858383909,\"ci_hi\":1,\"flagged\":false},{\"label\":\"SUM\",\"cells\":30,\"covered\":12,\"observed\":0.4,\"ci_lo\":0.2455614310774872,\"ci_hi\":0.5771412475897575,\"flagged\":true}],\"per_decile\":[{\"label\":\"d1 rows 1-5\",\"cells\":5,\"covered\":2,\"observed\":0.4,\"ci_lo\":0.11598664943233872,\"ci_hi\":0.7709098436035329,\"flagged\":true},{\"label\":\"d2 \\\"rows\\\" 6-10\",\"cells\":0,\"covered\":0,\"observed\":0,\"ci_lo\":0,\"ci_hi\":1,\"flagged\":false}],\"per_rows\":[{\"label\":\"n 1\",\"cells\":12,\"covered\":3,\"observed\":0.25,\"ci_lo\":0.08274891324343844,\"ci_hi\":0.538498090232275,\"flagged\":true},{\"label\":\"n 21+\",\"cells\":38,\"covered\":28,\"observed\":0.7368421052631579,\"ci_lo\":0.5783325374679076,\"ci_hi\":0.851862788045763,\"flagged\":true}]}",
    "{\"nominal\":0.9,\"queries\":0,\"cells\":0,\"exact_cells\":0,\"unbounded_cells\":0,\"overall\":{\"label\":\"overall\",\"cells\":0,\"covered\":0,\"observed\":0,\"ci_lo\":0,\"ci_hi\":1,\"flagged\":false},\"per_function\":[],\"per_decile\":[],\"per_rows\":[]}",
];

#[test]
fn query_trace_json_is_byte_exact() {
    for (trace, want) in traces().iter().zip(TRACES) {
        assert_eq!(trace.to_json(), want);
    }
    assert_eq!(QueryTrace::from_json(TRACES[0]).unwrap(), traces()[0]);
}

#[test]
fn request_record_json_is_byte_exact() {
    for (record, want) in records().iter().zip(RECORDS) {
        assert_eq!(record.to_json(), want);
        assert_eq!(&RequestRecord::from_json(want).unwrap(), record);
    }
}

#[test]
fn calibration_report_json_is_byte_exact() {
    for (report, want) in calibrations().iter().zip(CALIBRATIONS) {
        assert_eq!(report.to_json(), want);
    }
}
