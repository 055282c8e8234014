//! Error/confidence contracts over approximate answers.
//!
//! A client's accuracy contract — in the spirit of BlinkDB's bounded-error
//! queries — is a confidence level plus an optional relative-error bound.
//! [`AnswerContract::satisfied_by`] is the single admission rule the
//! semantic answer cache uses to decide whether an already-computed
//! answer may be re-served: reuse is sound only at **equal-or-tighter**
//! bounds, so the rule is deliberately conservative — a `false` costs one
//! re-execution, a wrong `true` silently hands a client an interval wider
//! than it asked for.

use crate::answer::ApproxAnswer;

/// Slack for confidence comparisons: 0.95 stored through an `f64`
/// round-trip must still satisfy a 0.95 contract.
const CONF_EPS: f64 = 1e-9;

/// What a client demands of an answer's intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerContract {
    /// Required coverage probability of every confidence interval.
    pub confidence: f64,
    /// Optional bound on each interval's half-width relative to the
    /// point estimate (`half_width <= bound * |estimate|`). `None`
    /// accepts any width at the required confidence.
    pub max_rel_error: Option<f64>,
}

impl AnswerContract {
    /// A confidence-only contract (any interval width accepted).
    pub fn at_confidence(confidence: f64) -> AnswerContract {
        AnswerContract { confidence, max_rel_error: None }
    }

    /// Whether `answer`, whose intervals were computed at
    /// `answer_confidence`, satisfies this contract.
    ///
    /// * Partial answers never do: a truncated scan is an artifact of the
    ///   request that shaped it, not a reusable statement about the data.
    /// * All-exact answers satisfy any contract — their intervals are
    ///   points at every confidence level.
    /// * Otherwise the answer must have been computed at equal-or-higher
    ///   confidence (its intervals then cover the truth with at least the
    ///   demanded probability, merely wider than strictly needed), and
    ///   under a relative-error bound every non-exact interval's
    ///   half-width must fit it. A zero point estimate fits only a
    ///   collapsed interval: conservative, never unsound.
    pub fn satisfied_by(&self, answer: &ApproxAnswer, answer_confidence: f64) -> bool {
        if answer.partial {
            return false;
        }
        let all_exact = answer
            .groups
            .iter()
            .all(|g| g.values.iter().all(|v| v.is_exact()));
        if all_exact {
            return true;
        }
        if answer_confidence + CONF_EPS < self.confidence {
            return false;
        }
        match self.max_rel_error {
            None => true,
            Some(bound) => answer.groups.iter().all(|g| {
                g.values.iter().all(|v| {
                    if v.is_exact() {
                        return true;
                    }
                    let half = (v.ci.hi - v.ci.lo) / 2.0;
                    half.is_finite() && half <= bound * v.value().abs()
                })
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{ApproxGroup, ApproxValue, ServingTier};
    use aqp_sampling::{ConfidenceInterval, Design, Estimate};
    use aqp_storage::Value;

    fn answer(value: f64, half: f64, exact: bool, partial: bool) -> ApproxAnswer {
        ApproxAnswer {
            group_names: vec!["g".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![ApproxGroup {
                key: vec![Value::Utf8("x".into())],
                values: vec![ApproxValue {
                    estimate: Estimate::new(
                        value,
                        1.0,
                        if exact { Design::Exact } else { Design::Scaled },
                        0,
                    ),
                    ci: ConfidenceInterval { lo: value - half, hi: value + half, confidence: 0.95 },
                }],
            }],
            rows_scanned: 10,
            tier: ServingTier::Primary,
            partial,
        }
    }

    #[test]
    fn exact_satisfies_everything() {
        let a = answer(100.0, 0.0, true, false);
        let tight = AnswerContract { confidence: 0.9999, max_rel_error: Some(1e-9) };
        assert!(tight.satisfied_by(&a, 0.5));
    }

    #[test]
    fn partial_satisfies_nothing() {
        let a = answer(100.0, 0.0, true, true);
        assert!(!AnswerContract::at_confidence(0.5).satisfied_by(&a, 0.99));
    }

    #[test]
    fn confidence_must_be_equal_or_tighter() {
        let a = answer(100.0, 5.0, false, false);
        assert!(AnswerContract::at_confidence(0.95).satisfied_by(&a, 0.95));
        assert!(AnswerContract::at_confidence(0.90).satisfied_by(&a, 0.95));
        assert!(!AnswerContract::at_confidence(0.99).satisfied_by(&a, 0.95));
    }

    #[test]
    fn rel_error_bound_checks_half_width() {
        let a = answer(100.0, 5.0, false, false); // 5% half-width
        let loose = AnswerContract { confidence: 0.95, max_rel_error: Some(0.10) };
        let tight = AnswerContract { confidence: 0.95, max_rel_error: Some(0.01) };
        assert!(loose.satisfied_by(&a, 0.95));
        assert!(!tight.satisfied_by(&a, 0.95));
        // Zero estimate with a real interval never fits a relative bound.
        let zero = answer(0.0, 5.0, false, false);
        assert!(!loose.satisfied_by(&zero, 0.95));
    }
}
