//! Byte-exact pins for the observability records' JSON.
//!
//! `RequestRecord` and `CalibrationReport` are encoded through
//! `aqp_obs::json::Value`. The pins fix member order, escapes, integer
//! and shortest round-trip float formatting and empty arrays, so a reader
//! of any flight dump, trace file or calibration file reads these bytes
//! unchanged.

use aqp::obs::flight::{RequestRecord, Stage};
use aqp::obs::OpProfile;
use aqp::workload::{CalibrationReport, CoverageBucket, WidthBucket};

fn stage(name: &str, micros: u64) -> Stage {
    Stage { name: name.into(), micros }
}

/// One record of each kind: a served answer, a cache hit, a shed and an
/// in-process trace.
fn records() -> Vec<RequestRecord> {
    vec![
        RequestRecord {
            trace_id: "t-\"42\"\\".into(),
            class: "interactive".into(),
            outcome: "answer".into(),
            cache_hit: false,
            total_micros: 1_234_567,
            stages: vec![
                stage("read", 3),
                stage("parse", 11),
                stage("cache", 1),
                stage("admission", 0),
                stage("execute", 1_234_500),
                stage("serialize", 40),
                stage("write", 12),
            ],
            query: "SELECT a, COUNT(*) FROM t WHERE b = 'x\"q\\s\n\t\u{1}≈' GROUP BY a".into(),
            plan: "union-all(2)".into(),
            serving_tier: "degraded".into(),
            partial: true,
            sample_tables: vec!["sg_a".into(), "overall".into()],
            rows_scanned: 3,
            base_rows: 9_007_199_254_740_992,
            groups: 0,
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
                    kernel: String::new().into(),
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
            spans: vec![stage("query.scan", 1_234), stage("plan.finalize", 0)],
        },
        RequestRecord {
            trace_id: "srv-7".into(),
            class: "batch".into(),
            outcome: "answer".into(),
            cache_hit: true,
            total_micros: 9,
            stages: vec![
                stage("read", 1),
                stage("parse", 4),
                stage("cache", 2),
                stage("serialize", 1),
                stage("write", 1),
            ],
            query: "SELECT COUNT(*) FROM t".into(),
            serving_tier: "primary".into(),
            rows_scanned: 500_000,
            groups: 1,
            ..RequestRecord::default()
        },
        RequestRecord {
            trace_id: "aqp-0000002a-3".into(),
            class: "interactive".into(),
            outcome: "shed".into(),
            total_micros: 7,
            stages: vec![stage("read", 0), stage("parse", 5), stage("cache", 1), stage("admission", 1)],
            query: "SELECT COUNT(*) FROM t".into(),
            ..RequestRecord::default()
        },
        RequestRecord {
            outcome: "answer".into(),
            total_micros: 1_500,
            stages: vec![stage("execute", 1_500)],
            query: "SELECT COUNT(*) FROM t".into(),
            plan: "exact-scan".into(),
            serving_tier: "exact".into(),
            sample_tables: vec!["view".into()],
            rows_scanned: 10,
            base_rows: 10,
            groups: 1,
            spans: vec![stage("query.scan", 1_000), stage("query.merge", 0)],
            ..RequestRecord::default()
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
            per_rows_design: vec![
                WidthBucket { coverage: bucket("n 1 scaled", 12, 3), median_rel_half_width: 1.625 },
                WidthBucket { coverage: bucket("n 21+ prefix", 0, 0), median_rel_half_width: f64::NAN },
            ],
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
            per_rows_design: vec![],
            overall: bucket("overall", 0, 0),
        },
    ]
}

const RECORDS: [&str; 4] = [
    "{\"schema_version\":4,\"trace_id\":\"t-\\\"42\\\"\\\\\",\"class\":\"interactive\",\"outcome\":\"answer\",\"cache_hit\":false,\"total_micros\":1234567,\"stages\":[{\"stage\":\"read\",\"micros\":3},{\"stage\":\"parse\",\"micros\":11},{\"stage\":\"cache\",\"micros\":1},{\"stage\":\"admission\",\"micros\":0},{\"stage\":\"execute\",\"micros\":1234500},{\"stage\":\"serialize\",\"micros\":40},{\"stage\":\"write\",\"micros\":12}],\"query\":\"SELECT a, COUNT(*) FROM t WHERE b = 'x\\\"q\\\\s\\n\\t\\u0001≈' GROUP BY a\",\"plan\":\"union-all(2)\",\"serving_tier\":\"degraded\",\"partial\":true,\"sample_tables\":[\"sg_a\",\"overall\"],\"rows_scanned\":3,\"base_rows\":9007199254740992,\"groups\":0,\"operators\":[{\"op\":\"scan:sg_a\",\"table\":\"sg_a\",\"stratum\":\"small-group\",\"weight\":0,\"rows_in\":0,\"rows_out\":0,\"selectivity\":1,\"morsels\":0,\"morsels_per_worker\":[],\"morsel_p50_ns\":0,\"morsel_p95_ns\":0,\"morsel_p99_ns\":0,\"mem_peak_bytes\":0,\"mem_current_bytes\":0,\"kernel\":\"\",\"blocks_skipped\":0,\"blocks_taken\":0,\"blocks_scanned\":0,\"rows_pruned\":0},{\"op\":\"scan:overall\",\"table\":\"overall\",\"stratum\":\"overall\",\"weight\":20.5,\"rows_in\":3,\"rows_out\":1,\"selectivity\":0.3333333333333333,\"morsels\":3,\"morsels_per_worker\":[2,1],\"morsel_p50_ns\":90000,\"morsel_p95_ns\":140000,\"morsel_p99_ns\":1000000007,\"mem_peak_bytes\":65536,\"mem_current_bytes\":8192,\"kernel\":\"vectorized-hash\",\"blocks_skipped\":2,\"blocks_taken\":1,\"blocks_scanned\":4,\"rows_pruned\":8192}],\"spans\":[{\"stage\":\"query.scan\",\"micros\":1234},{\"stage\":\"plan.finalize\",\"micros\":0}]}",
    "{\"schema_version\":4,\"trace_id\":\"srv-7\",\"class\":\"batch\",\"outcome\":\"answer\",\"cache_hit\":true,\"total_micros\":9,\"stages\":[{\"stage\":\"read\",\"micros\":1},{\"stage\":\"parse\",\"micros\":4},{\"stage\":\"cache\",\"micros\":2},{\"stage\":\"serialize\",\"micros\":1},{\"stage\":\"write\",\"micros\":1}],\"query\":\"SELECT COUNT(*) FROM t\",\"plan\":\"\",\"serving_tier\":\"primary\",\"partial\":false,\"sample_tables\":[],\"rows_scanned\":500000,\"base_rows\":0,\"groups\":1,\"operators\":[],\"spans\":[]}",
    "{\"schema_version\":4,\"trace_id\":\"aqp-0000002a-3\",\"class\":\"interactive\",\"outcome\":\"shed\",\"cache_hit\":false,\"total_micros\":7,\"stages\":[{\"stage\":\"read\",\"micros\":0},{\"stage\":\"parse\",\"micros\":5},{\"stage\":\"cache\",\"micros\":1},{\"stage\":\"admission\",\"micros\":1}],\"query\":\"SELECT COUNT(*) FROM t\",\"plan\":\"\",\"serving_tier\":\"\",\"partial\":false,\"sample_tables\":[],\"rows_scanned\":0,\"base_rows\":0,\"groups\":0,\"operators\":[],\"spans\":[]}",
    "{\"schema_version\":4,\"trace_id\":\"\",\"class\":\"\",\"outcome\":\"answer\",\"cache_hit\":false,\"total_micros\":1500,\"stages\":[{\"stage\":\"execute\",\"micros\":1500}],\"query\":\"SELECT COUNT(*) FROM t\",\"plan\":\"exact-scan\",\"serving_tier\":\"exact\",\"partial\":false,\"sample_tables\":[\"view\"],\"rows_scanned\":10,\"base_rows\":10,\"groups\":1,\"operators\":[],\"spans\":[{\"stage\":\"query.scan\",\"micros\":1000},{\"stage\":\"query.merge\",\"micros\":0}]}",
];

const CALIBRATIONS: [&str; 2] = [
    "{\"nominal\":0.95,\"queries\":15,\"cells\":50,\"exact_cells\":4,\"unbounded_cells\":1,\"overall\":{\"label\":\"overall\",\"cells\":50,\"covered\":31,\"observed\":0.62,\"ci_lo\":0.4812427804271055,\"ci_hi\":0.7416337957552479,\"flagged\":true},\"per_function\":[{\"label\":\"COUNT\",\"cells\":20,\"covered\":19,\"observed\":0.95,\"ci_lo\":0.7458854858383909,\"ci_hi\":1,\"flagged\":false},{\"label\":\"SUM\",\"cells\":30,\"covered\":12,\"observed\":0.4,\"ci_lo\":0.2455614310774872,\"ci_hi\":0.5771412475897575,\"flagged\":true}],\"per_decile\":[{\"label\":\"d1 rows 1-5\",\"cells\":5,\"covered\":2,\"observed\":0.4,\"ci_lo\":0.11598664943233872,\"ci_hi\":0.7709098436035329,\"flagged\":true},{\"label\":\"d2 \\\"rows\\\" 6-10\",\"cells\":0,\"covered\":0,\"observed\":0,\"ci_lo\":0,\"ci_hi\":1,\"flagged\":false}],\"per_rows\":[{\"label\":\"n 1\",\"cells\":12,\"covered\":3,\"observed\":0.25,\"ci_lo\":0.08274891324343844,\"ci_hi\":0.538498090232275,\"flagged\":true},{\"label\":\"n 21+\",\"cells\":38,\"covered\":28,\"observed\":0.7368421052631579,\"ci_lo\":0.5783325374679076,\"ci_hi\":0.851862788045763,\"flagged\":true}],\"per_rows_design\":[{\"label\":\"n 1 scaled\",\"cells\":12,\"covered\":3,\"observed\":0.25,\"ci_lo\":0.08274891324343844,\"ci_hi\":0.538498090232275,\"flagged\":true,\"median_rel_half_width\":1.625},{\"label\":\"n 21+ prefix\",\"cells\":0,\"covered\":0,\"observed\":0,\"ci_lo\":0,\"ci_hi\":1,\"flagged\":false,\"median_rel_half_width\":null}]}",
    "{\"nominal\":0.9,\"queries\":0,\"cells\":0,\"exact_cells\":0,\"unbounded_cells\":0,\"overall\":{\"label\":\"overall\",\"cells\":0,\"covered\":0,\"observed\":0,\"ci_lo\":0,\"ci_hi\":1,\"flagged\":false},\"per_function\":[],\"per_decile\":[],\"per_rows\":[],\"per_rows_design\":[]}",
];

#[test]
fn request_record_json_is_byte_exact() {
    assert_eq!(records().len(), RECORDS.len());
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
