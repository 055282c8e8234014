//! Approximate query answers.
//!
//! The runtime phase merges per-sample-table tallies into one answer per
//! group, carrying a point estimate, a confidence interval, and an
//! exactness flag ("Answers for groups that result from querying small
//! group tables are marked as being exact" — paper Section 4.2.2).

use aqp_query::{AggFunc, AggState};
use aqp_sampling::{ConfidenceInterval, Estimate};
use aqp_storage::Value;
use std::fmt;

/// One estimated aggregate value within a group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxValue {
    /// The point estimate (with variance and exactness).
    pub estimate: Estimate,
    /// A two-sided confidence interval for the true value.
    pub ci: ConfidenceInterval,
}

impl ApproxValue {
    /// Convenience accessor for the point estimate's value.
    pub fn value(&self) -> f64 {
        self.estimate.value
    }

    /// Whether this value is exact.
    pub fn is_exact(&self) -> bool {
        self.estimate.exact
    }
}

/// One group of the approximate answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxGroup {
    /// Group key values, aligned with [`ApproxAnswer::group_names`].
    pub key: Vec<Value>,
    /// One estimated value per aggregate, aligned with
    /// [`ApproxAnswer::agg_aliases`].
    pub values: Vec<ApproxValue>,
}

/// Which rung of the degradation ladder produced an answer.
///
/// A healthy system answers every query at [`ServingTier::Primary`]. When
/// sample tables are missing or corrupt, or a query falls outside what the
/// samplers support, the resilient runtime steps down the ladder rather
/// than failing the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServingTier {
    /// The full small-group sampler answered with all its sample tables.
    #[default]
    Primary,
    /// The small-group sampler answered, but one or more of its sample
    /// tables were unavailable; the overall sample covered their rows.
    DegradedPrimary,
    /// Only the uniform overall sample was used (no small-group tables).
    Overall,
    /// The base table was scanned directly (exact, possibly budget-capped).
    Exact,
}

impl ServingTier {
    /// The tier's label: its `Display` form, the `tier` label of
    /// `aqp_serving_tier_total`, and the wire's `tier` field.
    pub fn as_str(self) -> &'static str {
        match self {
            ServingTier::Primary => "primary",
            ServingTier::DegradedPrimary => "degraded",
            ServingTier::Overall => "overall",
            ServingTier::Exact => "exact",
        }
    }
}

impl fmt::Display for ServingTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A complete approximate answer to an aggregation query.
#[derive(Debug, Clone, Default)]
pub struct ApproxAnswer {
    /// Names of the grouping columns.
    pub group_names: Vec<String>,
    /// Aliases of the aggregate expressions.
    pub agg_aliases: Vec<String>,
    /// The estimated groups in key order: ascending `key` under `Value`'s
    /// `Ord`. A computed answer is built in this order, decided on key
    /// codes as its plan is finalized; it is the same on every call and
    /// at every thread count.
    pub groups: Vec<ApproxGroup>,
    /// Total sample rows scanned to produce this answer (the runtime cost
    /// the paper's fairness rule equalises across AQP systems).
    pub rows_scanned: usize,
    /// Which rung of the degradation ladder served this answer.
    pub tier: ServingTier,
    /// True when a row budget truncated the scan, so the answer covers
    /// only part of the data it should have seen.
    pub partial: bool,
}

impl ApproxAnswer {
    /// Number of groups in the answer.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Find a group by key.
    pub fn group(&self, key: &[Value]) -> Option<&ApproxGroup> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// Put the groups in key order. Computed answers already are; this is
    /// for answers built or edited by hand.
    pub fn sort_by_key(&mut self) {
        self.groups.sort_by(|a, b| a.key.cmp(&b.key));
    }
}

impl fmt::Display for ApproxAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for name in &self.group_names {
            write!(f, "{name}\t")?;
        }
        for alias in &self.agg_aliases {
            write!(f, "{alias}\t")?;
        }
        writeln!(f)?;
        for g in &self.groups {
            for k in &g.key {
                write!(f, "{k}\t")?;
            }
            for v in &g.values {
                if v.is_exact() {
                    write!(f, "{:.2} (exact)\t", v.value())?;
                } else {
                    write!(f, "{:.2} [{:.2}, {:.2}]\t", v.value(), v.ci.lo, v.ci.hi)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Turn one merged [`AggState`] into an [`Estimate`] for a given aggregate
/// function, using the Horvitz–Thompson accumulators.
///
/// Returns `None` for MIN/MAX, which sampling cannot bound.
pub fn state_to_estimate(func: AggFunc, state: &AggState, exact: bool) -> Option<Estimate> {
    let est = match func {
        AggFunc::Count => Estimate {
            value: state.sum_w,
            variance: state.var_acc_w.max(0.0),
            exact,
        },
        AggFunc::Sum => Estimate {
            value: state.sum_wx,
            variance: state.var_acc.max(0.0),
            exact,
        },
        AggFunc::Avg => {
            let sum = Estimate {
                value: state.sum_wx,
                variance: state.var_acc.max(0.0),
                exact,
            };
            let count = Estimate {
                value: state.sum_w,
                variance: state.var_acc_w.max(0.0),
                exact,
            };
            sum.ratio_with_cov(count, state.cov_acc)?
        }
        AggFunc::Min | AggFunc::Max => return None,
    };
    Some(est)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(sum_w: f64, sum_wx: f64, var_acc: f64, var_acc_w: f64) -> AggState {
        AggState {
            rows: 1,
            sum_w,
            sum_wx,
            sum_x: 0.0,
            sum_x_sq: 0.0,
            var_acc,
            var_acc_w,
            cov_acc: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    #[test]
    fn count_estimate() {
        let e = state_to_estimate(AggFunc::Count, &state(100.0, 100.0, 0.0, 90.0), false)
            .unwrap();
        assert_eq!(e.value, 100.0);
        assert_eq!(e.variance, 90.0);
        assert!(!e.exact);
    }

    #[test]
    fn sum_estimate() {
        let e = state_to_estimate(AggFunc::Sum, &state(10.0, 55.0, 20.0, 9.0), false).unwrap();
        assert_eq!(e.value, 55.0);
        assert_eq!(e.variance, 20.0);
    }

    #[test]
    fn avg_is_ratio() {
        let e = state_to_estimate(AggFunc::Avg, &state(4.0, 100.0, 0.0, 0.0), true).unwrap();
        assert_eq!(e.value, 25.0);
        assert!(e.exact);
        // Zero count → no AVG.
        assert!(state_to_estimate(AggFunc::Avg, &state(0.0, 0.0, 0.0, 0.0), true).is_none());
    }

    #[test]
    fn min_max_unsupported() {
        assert!(state_to_estimate(AggFunc::Min, &state(1.0, 1.0, 0.0, 0.0), true).is_none());
        assert!(state_to_estimate(AggFunc::Max, &state(1.0, 1.0, 0.0, 0.0), true).is_none());
    }

    #[test]
    fn answer_lookup_and_display() {
        let ans = ApproxAnswer {
            group_names: vec!["g".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![ApproxGroup {
                key: vec![Value::Utf8("x".into())],
                values: vec![ApproxValue {
                    estimate: Estimate::exact(5.0),
                    ci: ConfidenceInterval { lo: 5.0, hi: 5.0, confidence: 0.95 },
                }],
            }],
            rows_scanned: 10,
            tier: ServingTier::Primary,
            partial: false,
        };
        assert_eq!(ans.num_groups(), 1);
        assert_eq!(ans.tier.to_string(), "primary");
        assert_eq!(ServingTier::DegradedPrimary.to_string(), "degraded");
        assert_eq!(ServingTier::Exact.to_string(), "exact");
        let g = ans.group(&[Value::Utf8("x".into())]).unwrap();
        assert!(g.values[0].is_exact());
        assert_eq!(g.values[0].value(), 5.0);
        let rendered = ans.to_string();
        assert!(rendered.contains("exact"));
    }
}
