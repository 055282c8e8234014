//! # aqp-sampling
//!
//! Sampling primitives and statistical machinery for the
//! dynamic-sample-selection AQP system:
//!
//! * [`ReservoirSampler`] — Vitter's reservoir sampling (algorithm R),
//!   used by the second preprocessing pass to build the *overall sample*
//!   (paper Section 4.2.1, citing \[28\]);
//! * [`BernoulliSampler`] and [`sample_without_replacement`] — the other two
//!   sampling modes used by baselines and by the analytical model;
//! * [`StratifiedAllocation`] — per-stratum sample-size allocation rules
//!   (proportional / "house", equal / "senate", and the basic-congress
//!   max-combination of the two, after \[2\]);
//! * [`ColumnFrequency`] — the per-column hashtable of value counts with
//!   the τ distinct-value cut-off from the first preprocessing pass, and
//!   the L(C) common-value computation;
//! * [`zipf`] — truncated Zipfian distributions (the data model of the
//!   paper's analysis and of the skewed TPC-H generator);
//! * [`Estimate`] — scaled estimators carrying variance, their [`Design`]
//!   and sampled row count, with normal-theory intervals, and the
//!   Agresti–Coull interval for proportions (paper Section 4.2.2, citing
//!   \[5, 7\]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bernoulli;
pub mod estimate;
pub mod frequency;
pub mod reservoir;
pub mod stratified;
pub mod wor;
pub mod zipf;

pub use bernoulli::BernoulliSampler;
pub use estimate::{agresti_coull, normal_quantile, ConfidenceInterval, Design, Estimate};
pub use frequency::{ColumnFrequency, CommonValues};
pub use reservoir::ReservoirSampler;
pub use stratified::{water_fill, StratifiedAllocation};
pub use wor::sample_without_replacement;
pub use zipf::TruncatedZipf;
