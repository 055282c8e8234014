//! # aqp — dynamic sample selection for approximate query processing
//!
//! A from-scratch Rust implementation of *Dynamic Sample Selection for
//! Approximate Query Processing* (Babcock, Chaudhuri & Das, SIGMOD 2003),
//! including the full substrate it runs on: an in-memory columnar engine,
//! a star-schema relational executor, sampling primitives, skewed data
//! generators, the paper's baselines, its analytical model, and its
//! experiment harness.
//!
//! This facade crate re-exports every sub-crate under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`storage`] | `aqp-storage` | columnar tables, schemas, bitmask columns |
//! | [`query`] | `aqp-query` | expressions, star joins, weighted group-by executor |
//! | [`sampling`] | `aqp-sampling` | reservoir/Bernoulli/WOR samplers, `L(C)`, estimators |
//! | [`core`] | `aqp-core` | **small group sampling** + uniform/congress/outlier baselines |
//! | [`datagen`] | `aqp-datagen` | skewed TPC-H and SALES-like star-schema generators |
//! | [`workload`] | `aqp-workload` | random query workloads, RelErr/PctGroups metrics, harness |
//! | [`analytical`] | `aqp-analytical` | Section 4.4 closed-form error model (Figure 3) |
//! | [`sql`] | `aqp-sql` | SQL front-end parsing the supported query class |
//! | [`serving`] | `aqp-serving` | TCP query server: admission control, deadlines, load shedding |
//! | [`obs`] | `aqp-obs` | zero-dependency metrics, spans, events, query traces |
//!
//! ## Quickstart
//!
//! ```
//! use aqp::prelude::*;
//!
//! // A 100-row table: 90 Stereos, 10 TVs (the paper's Example 3.1).
//! let schema = SchemaBuilder::new()
//!     .field("product", DataType::Utf8)
//!     .build()
//!     .unwrap();
//! let mut table = Table::empty("sales", schema);
//! for _ in 0..90 {
//!     table.push_row(&["Stereo".into()]).unwrap();
//! }
//! for _ in 0..10 {
//!     table.push_row(&["TV".into()]).unwrap();
//! }
//!
//! // Pre-processing phase: build the sample family.
//! let sampler = SmallGroupSampler::build(
//!     &table,
//!     SmallGroupConfig {
//!         base_rate: 0.1,
//!         small_group_fraction: 0.1,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//!
//! // Runtime phase: approximate answers with confidence intervals.
//! let query = Query::builder().count().group_by("product").build().unwrap();
//! let answer = sampler.answer(&query, 0.95).unwrap();
//!
//! // The small TV group is answered exactly.
//! let tv = answer.group(&[Value::Utf8("TV".into())]).unwrap();
//! assert!(tv.values[0].is_exact());
//! assert_eq!(tv.values[0].value(), 10.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use aqp_analytical as analytical;
pub use aqp_core as core;
pub use aqp_datagen as datagen;
pub use aqp_obs as obs;
pub use aqp_query as query;
pub use aqp_sampling as sampling;
pub use aqp_serving as serving;
pub use aqp_sql as sql;
pub use aqp_storage as storage;
pub use aqp_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use aqp_core::{
        AnswerContract, ApproxAnswer, ApproxGroup, ApproxValue, AqpError, AqpResult, AqpSystem,
        BasicCongress, BoundedAnswer, Congress, MultiLevelConfig, MultiLevelSampler,
        OpenReport, OutlierIndex, OverallKind, QueryBound, ResilientSystem,
        SampleCatalog, ServingTier, SmallGroupConfig, SmallGroupSampler, TierCounts,
        UniformAqp,
    };
    pub use aqp_datagen::{gen_sales, gen_tpch, SalesConfig, TpchConfig};
    pub use aqp_query::{
        execute, AggExpr, AggFunc, CmpOp, DataSource, Dimension, ExecOptions, Expr, PruneMode,
        Query, StarSchema, Weighting,
    };
    pub use aqp_sampling::{ConfidenceInterval, Design, Estimate};
    pub use aqp_sql::{parse_query, ParsedQuery};
    pub use aqp_storage::{DataType, Schema, SchemaBuilder, Table, Value};
    pub use aqp_obs::RequestRecord;
    pub use aqp_workload::{
        evaluate_queries, evaluate_queries_traced, exact_answer, generate_queries,
        obs_report_json, DatasetProfile, QueryGenConfig, WorkloadAggregate,
    };
}
