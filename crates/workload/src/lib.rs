//! # aqp-workload
//!
//! Everything the paper's Section 5 experiments need around the AQP
//! systems themselves:
//!
//! * [`metrics`] — the accuracy metrics of Section 4.3:
//!   `PctGroups` (Definition 4.1), `RelErr` (Definition 4.2) and
//!   `SqRelErr` (Definition 4.3), computed between an exact answer and an
//!   approximate one;
//! * [`generator`] — the random select–project–join–group-by workload of
//!   Section 5.2.3 (1–4 grouping columns, 1–2 IN-list predicates with
//!   value-subset fractions in `[0.05, 0.3]`, COUNT or SUM aggregates,
//!   near-unique columns excluded from grouping);
//! * [`harness`] — exact-answer computation, per-query evaluation of any
//!   [`aqp_core::AqpSystem`], timing, and aggregation of metric averages —
//!   including the per-group-selectivity bucketing of Figure 5;
//! * [`report`] — the per-run observability report: the accuracy summary
//!   of a traced run as one JSON document (its per-query
//!   [`aqp_obs::RequestRecord`]s and metrics snapshot go to their own
//!   files);
//! * [`calibrate`] — the CI-coverage calibration audit: observed versus
//!   nominal confidence-interval coverage per aggregate function and per
//!   group-size decile, with Agresti–Coull under-coverage flagging.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod calibrate;
pub mod generator;
pub mod harness;
pub mod metrics;
pub mod report;

pub use calibrate::{
    rows_bucket, run_calibration, CalibrationConfig, CalibrationReport, CoverageAudit,
    CoverageBucket, CoverageCell, WidthBucket, ROWS_BUCKETS,
};
pub use generator::{generate_queries, DatasetProfile, QueryGenConfig, WorkloadAggregate};
pub use harness::{
    evaluate_queries, evaluate_queries_traced, exact_answer, exact_answer_threaded, EvalSummary,
    ExactAnswer, QueryEval,
};
pub use metrics::{pct_groups, rel_err, sq_rel_err};
pub use report::obs_report_json;
