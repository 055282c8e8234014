//! # aqp-core — dynamic sample selection for approximate query processing
//!
//! A from-scratch implementation of *Dynamic Sample Selection for
//! Approximate Query Processing* (Babcock, Chaudhuri & Das, SIGMOD 2003).
//!
//! ## The architecture (paper Section 3)
//!
//! During a **pre-processing phase**, the system builds a family of
//! differently-biased samples over the database — more total sample space
//! than any single query will touch. During the **runtime phase**, each
//! incoming aggregation query is *rewritten* to run against a dynamically
//! selected, query-specific subset of those samples, so accuracy improves
//! with disk budget while per-query latency stays flat.
//!
//! ## Small group sampling (paper Section 4)
//!
//! [`SmallGroupSampler`] is the paper's concrete instantiation for group-by
//! aggregation queries:
//!
//! * **Pre-processing** ([`SmallGroupConfig`]): two scans of the (joined)
//!   database. Scan 1 counts value frequencies per column with a
//!   distinct-value cut-off τ, then computes per column `C` the common-value
//!   set `L(C)`. Scan 2 writes, per surviving column, a *small group table*
//!   holding 100 % of the rows with uncommon values (≤ `N·t` rows), plus a
//!   uniform reservoir *overall sample* of `N·r` rows; every sample row is
//!   tagged with a bitmask recording which small group tables contain it.
//! * **Runtime**: a query grouping on columns `c₁ < c₂ < …` (by sample
//!   index) runs against `sg(c₁)` unfiltered, against `sg(cⱼ)` with rows
//!   already in earlier tables masked out, and against the overall sample
//!   with all query columns masked out and aggregates scaled by `1/r` —
//!   the UNION ALL plan of Section 4.2.2, with per-group merging,
//!   exactness marking and confidence intervals.
//!
//! ## Baselines
//!
//! The systems the paper compares against are implemented behind the same
//! [`AqpSystem`] trait: [`UniformAqp`] (plain uniform row sampling),
//! [`BasicCongress`] (congressional sampling \[2\]), and [`OutlierIndex`]
//! (outlier indexing \[9\]); plus the paper's "small group sampling
//! enhanced with outlier indexing" combination
//! ([`OverallKind::OutlierIndexed`]).
//!
//! ## Variations (paper Section 4.2.3)
//!
//! * [`MultiLevelSampler`] — a multi-level group-size hierarchy
//!   (100 % / mid-rate / base-rate strata);
//! * column-pair small group tables ([`SmallGroupConfig::column_pairs`]);
//! * workload-based column trimming
//!   ([`SmallGroupConfig::restrict_columns`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod answer;
pub mod catalog;
mod colscan;
pub mod congress;
pub mod contract;
pub mod error;
pub mod multilevel;
pub mod outlier;
mod parts;
pub mod persist;
pub mod resilience;
pub mod smallgroup;
pub mod system;
pub mod uniform;

pub use answer::{ApproxAnswer, ApproxGroup, ApproxValue, ServingTier};
pub use catalog::{SampleCatalog, SampleColumnMeta};
pub use colscan::{column_frequency, KeyCode};
pub use congress::{BasicCongress, Congress};
pub use contract::AnswerContract;
pub use error::{AqpError, AqpResult};
pub use multilevel::{MultiLevelConfig, MultiLevelSampler};
pub use outlier::{select_outliers, OutlierIndex};
pub use resilience::{BoundedAnswer, OpenReport, QueryBound, ResilientSystem, TierCounts};
pub use smallgroup::{OverallKind, SmallGroupConfig, SmallGroupSampler};
pub use system::AqpSystem;
pub use uniform::UniformAqp;
