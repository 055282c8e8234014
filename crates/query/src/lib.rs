//! # aqp-query
//!
//! The relational executor substrate for the dynamic-sample-selection AQP
//! system. It executes the paper's query class — select–project–(foreign-key
//! join)–group-by–aggregate over a single fact table or a star schema
//! (Section 4: "queries against a single fact table without any joins or ...
//! over a 'star schema' where a fact table is joined to a number of
//! dimension tables using foreign-key joins") — and nothing more general,
//! because sampling-based AQP is provably hopeless for arbitrary joins
//! (\[3, 12\]).
//!
//! Pieces:
//!
//! * [`Expr`] / [`CmpOp`] — predicate expressions with typed fast paths
//!   (IN-lists over dictionary codes, range scans over numeric slices);
//! * [`Query`] — aggregation queries with group-bys ([`AggFunc`]:
//!   COUNT/SUM/AVG/MIN/MAX);
//! * [`StarSchema`] — a fact table plus dimensions with precomputed
//!   fact-row → dimension-row join maps, and join-synopsis
//!   denormalisation (after \[3\]);
//! * [`execute`] — the hash group-by executor. It accepts per-row
//!   [`Weighting`]s (inverse sampling rates) and an optional bitmask
//!   exclusion filter, which is exactly the shape of the rewritten sample
//!   queries of paper Section 4.2.2 (`WHERE bitmask & M = 0`, aggregates
//!   scaled by the inverse sampling rate). Each scan morsel runs the
//!   vectorised kernels (selection vectors, typed columnar filters, dense
//!   group ids), held bit for bit to a row-at-a-time reference by the
//!   differential tests;
//! * [`QueryOutput`] / [`AggState`] — per-group raw tallies (weighted and
//!   unweighted sums, sums of squares) from which the AQP layer forms
//!   estimates and confidence intervals.
//!
//! Groups travel from morsel to answer as one flat, code-keyed table
//! (keys in first-touch order plus one state array), folded in morsel
//! order within a scan and in plan order across the scans of a UNION ALL
//! ([`PlanGroups`]), so whole query outputs — group order included — are
//! reproducible across runs, thread counts, and prune modes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cancel;
pub mod error;
pub mod exec;
pub mod expr;
mod groups;
pub mod hash;
mod kernel;
pub mod join;
pub mod output;
pub mod parallel;
pub mod plan;
#[allow(unsafe_code)]
mod pool;
mod prune;
mod selection;
pub mod source;

pub use cancel::{CancelCause, CancelToken};
pub use error::{QueryError, QueryResult};
pub use exec::{
    execute, run_scans, ExecOptions, PreparedScan, PruneMode, ScanPartials, Weighting,
};
pub use expr::{CmpOp, Expr};
pub use groups::{PlanGroups, ScanGroups};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use join::{Dimension, StarSchema};
pub use output::{AggState, GroupResult, QueryOutput};
pub use parallel::{run_morsels, run_round, MorselSchedule, Round};
pub use plan::{AggExpr, AggFunc, Query};
pub use source::DataSource;
