//! Approximate query answers.
//!
//! The runtime phase merges per-sample-table tallies into one answer per
//! group, carrying a point estimate, a confidence interval, and the
//! estimate's design, exact or sampled ("Answers for groups that result
//! from querying small group tables are marked as being exact" — paper
//! Section 4.2.2).

use aqp_query::{AggFunc, AggState};
use aqp_sampling::{ConfidenceInterval, Design, Estimate};
use aqp_storage::Value;
use std::fmt;

/// One estimated aggregate value within a group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxValue {
    /// The point estimate (with variance, design and sampled rows).
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
        self.estimate.is_exact()
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

    /// Stamp this answer on a request record: outcome `answer`, its tier,
    /// partial flag, rows scanned and group count. The members a cached
    /// answer carries; the plan behind it is
    /// [`crate::ResilientSystem::describe`]'s.
    pub fn record_into(&self, record: &mut aqp_obs::RequestRecord) {
        record.outcome = "answer".to_string();
        record.serving_tier = self.tier.as_str().to_string();
        record.partial = self.partial;
        record.rows_scanned = self.rows_scanned as u64;
        record.groups = self.groups.len() as u64;
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

/// Turn one merged [`AggState`] into an [`Estimate`] of `design` for a
/// given aggregate function, using the Horvitz–Thompson accumulators; the
/// estimate's `rows` is the state's `sampled_rows`.
///
/// Returns `None` for MIN/MAX, which sampling cannot bound.
pub fn state_to_estimate(func: AggFunc, state: &AggState, design: Design) -> Option<Estimate> {
    let estimate = |value, variance| Estimate::new(value, variance, design, state.sampled_rows);
    let count = estimate(state.sum_w, state.var_acc_w);
    let sum = estimate(state.sum_wx, state.var_acc);
    match func {
        AggFunc::Count => Some(count),
        AggFunc::Sum => Some(sum),
        AggFunc::Avg => sum.ratio_with_cov(count, state.cov_acc),
        AggFunc::Min | AggFunc::Max => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(sum_w: f64, sum_wx: f64, var_acc: f64, var_acc_w: f64) -> AggState {
        AggState {
            rows: 1,
            sampled_rows: 1,
            sum_w,
            sum_wx,
            var_acc,
            var_acc_w,
            cov_acc: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    #[test]
    fn count_estimate() {
        let e = state_to_estimate(AggFunc::Count, &state(100.0, 100.0, 0.0, 90.0), Design::Scaled)
            .unwrap();
        assert_eq!(e.value, 100.0);
        assert_eq!(e.variance, 90.0);
        assert_eq!((e.design, e.rows), (Design::Scaled, 1));
    }

    #[test]
    fn sum_estimate() {
        let e = state_to_estimate(AggFunc::Sum, &state(10.0, 55.0, 20.0, 9.0), Design::Prefix)
            .unwrap();
        assert_eq!(e.value, 55.0);
        assert_eq!(e.variance, 20.0);
        assert_eq!(e.design, Design::Prefix);
    }

    #[test]
    fn avg_is_ratio() {
        let e = state_to_estimate(AggFunc::Avg, &state(4.0, 100.0, 0.0, 0.0), Design::Exact)
            .unwrap();
        assert_eq!(e.value, 25.0);
        assert!(e.is_exact());
        // Zero count → no AVG.
        let empty = state(0.0, 0.0, 0.0, 0.0);
        assert!(state_to_estimate(AggFunc::Avg, &empty, Design::Exact).is_none());
    }

    #[test]
    fn min_max_unsupported() {
        for func in [AggFunc::Min, AggFunc::Max] {
            assert!(state_to_estimate(func, &state(1.0, 1.0, 0.0, 0.0), Design::Exact).is_none());
        }
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

    /// Statistical CI coverage check on the product path: Bernoulli(p)
    /// draws of `n` rows, each kept row tallied at weight `1/p`, should
    /// give COUNT intervals that cover the true count at roughly the
    /// nominal rate.
    #[test]
    fn ci_coverage_near_nominal() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let (n, p, trials) = (20_000u64, 0.05f64, 400usize);
        let mut covered = 0usize;
        for _ in 0..trials {
            let mut tally = AggState::new();
            for _ in (0..n).filter(|_| rng.random::<f64>() < p) {
                tally.update(1.0, 1.0 / p);
            }
            let est = state_to_estimate(AggFunc::Count, &tally, Design::Scaled).unwrap();
            assert_eq!(est.rows, tally.rows);
            if est.confidence_interval(0.95).contains(n as f64) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!((0.90..=0.99).contains(&rate), "coverage {rate}");
    }
}
