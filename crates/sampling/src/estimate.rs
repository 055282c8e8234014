//! Estimators and confidence intervals.
//!
//! Approximate answers produced by the AQP runtime carry an estimate, its
//! variance, the [`Design`] that produced it, and the number of sampled
//! rows behind it. Small group sampling restricts the source of
//! inaccuracy to a single stratum (the overall sample — paper Section
//! 4.2.2), so variances from the sampled stratum add directly and groups
//! served entirely by small group tables are flagged exact.
//!
//! Intervals use standard statistical methods as the paper prescribes:
//! every sampled answer gets a normal (CLT) interval
//! ([`Estimate::confidence_interval`]). The Agresti–Coull interval
//! \[5, 7\] ([`agresti_coull`]) is for proportions; the coverage
//! calibrator uses it to decide whether a bucket of cells under-covers,
//! and no answer's interval comes from it.

use serde::{Deserialize, Serialize};

/// How the rows behind an estimate were drawn — the choice
/// [`Estimate::confidence_interval`] makes its interval by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Design {
    /// Every row came from a weight-1 stratum (a small group table, a
    /// 100 %-rate level, a whole table): the value is the answer.
    Exact,
    /// Rows of a sample scaled by constant or per-row Horvitz–Thompson
    /// weights (the overall sample, a uniform, outlier-remainder, congress
    /// or multi-level sample).
    Scaled,
    /// The first `k` rows of a budget-capped scan of `N` rows, each scaled
    /// by `N/k`.
    Prefix,
}

/// An estimated aggregate value with variance bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// The (already inverse-scaled) point estimate.
    pub value: f64,
    /// Variance of the point estimate. Zero for exact answers.
    pub variance: f64,
    /// The design the estimate's rows were drawn by.
    pub design: Design,
    /// Contributing rows whose weight is not 1 — the sampled stratum's n,
    /// the rows that carry the variance. 0 when every weight is 1.
    pub rows: u64,
}

impl Estimate {
    /// An estimate of `design` over `rows` sampled rows. A negative
    /// `variance` (rounding in the accumulators) reads as zero.
    pub fn new(value: f64, variance: f64, design: Design, rows: u64) -> Self {
        Estimate {
            value,
            variance: variance.max(0.0),
            design,
            rows,
        }
    }

    /// An exact value (zero variance).
    pub fn exact(value: f64) -> Self {
        Estimate::new(value, 0.0, Design::Exact, 0)
    }

    /// A [`Design::Scaled`] estimate with explicit variance and no row
    /// count.
    pub fn with_variance(value: f64, variance: f64) -> Self {
        Estimate::new(value, variance, Design::Scaled, 0)
    }

    /// Whether the answer is exact (came entirely from weight-1 strata).
    pub fn is_exact(&self) -> bool {
        self.design == Design::Exact
    }

    /// Ratio estimate `self / other` (AVG = SUM/COUNT) with the full
    /// first-order delta-method variance, given
    /// `cov = Cov(numerator, denominator)`:
    ///
    /// `Var(X/Y) ≈ (1/Y²)·Var(X) − 2·(X/Y³)·Cov(X,Y) + (X²/Y⁴)·Var(Y)`
    ///
    /// The result is clamped at zero: with estimated moments the expression
    /// can go slightly negative. It is exact when both sides are; otherwise
    /// it takes the design of a sampled side (the numerator's first) and
    /// the larger row count.
    pub fn ratio_with_cov(self, other: Estimate, cov: f64) -> Option<Estimate> {
        if other.value == 0.0 {
            return None;
        }
        let r = self.value / other.value;
        let design = if self.is_exact() { other.design } else { self.design };
        let variance = if design == Design::Exact {
            0.0
        } else {
            let y2 = other.value * other.value;
            self.variance / y2 - 2.0 * self.value * cov / (y2 * other.value)
                + (self.value * self.value) * other.variance / (y2 * y2)
        };
        Some(Estimate::new(r, variance, design, self.rows.max(other.rows)))
    }

    /// Standard error.
    pub fn std_error(&self) -> f64 {
        self.variance.sqrt()
    }

    /// The two-sided interval at the given confidence level (e.g. `0.95`),
    /// by design: zero width for [`Design::Exact`], the normal-theory
    /// interval `value ± z·se` for the sampled designs.
    pub fn confidence_interval(&self, confidence: f64) -> ConfidenceInterval {
        let (lo, hi) = match self.design {
            Design::Exact => (self.value, self.value),
            Design::Scaled | Design::Prefix => {
                let half = normal_quantile(0.5 + confidence / 2.0) * self.std_error();
                (self.value - half, self.value + half)
            }
        };
        ConfidenceInterval { lo, hi, confidence }
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal confidence level (e.g. 0.95).
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Whether `x` lies within the interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Agresti–Coull interval for a binomial proportion: observe `successes`
/// out of `trials`, return an interval for the true proportion.
///
/// "Approximate is better than 'exact'" \[5\]: add `z²/2` pseudo-successes
/// and `z²` pseudo-trials, then use the Wald interval on the adjusted
/// proportion. Clamped to `[0, 1]`.
pub fn agresti_coull(successes: u64, trials: u64, confidence: f64) -> ConfidenceInterval {
    let z = normal_quantile(0.5 + confidence / 2.0);
    let n_adj = trials as f64 + z * z;
    let p_adj = (successes as f64 + z * z / 2.0) / n_adj;
    let half = z * (p_adj * (1.0 - p_adj) / n_adj).sqrt();
    ConfidenceInterval {
        lo: (p_adj - half).max(0.0),
        hi: (p_adj + half).min(1.0),
        confidence,
    }
}

/// Inverse CDF of the standard normal distribution (Acklam's rational
/// approximation; absolute error below 1.15e-9 over the open unit
/// interval).
///
/// # Panics
/// If `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument must be in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        // Standard z-scores.
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.95) - 1.644854).abs() < 1e-4);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        // Tails.
        assert!((normal_quantile(0.001) + 3.090232).abs() < 1e-4);
        assert!((normal_quantile(0.999) - 3.090232).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn quantile_rejects_bounds() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn exact_estimates() {
        let e = Estimate::exact(42.0);
        assert!(e.is_exact());
        assert_eq!(e.std_error(), 0.0);
        let ci = e.confidence_interval(0.95);
        assert_eq!(ci.lo, 42.0);
        assert_eq!(ci.hi, 42.0);
        assert!(ci.contains(42.0));
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn ratio_for_avg() {
        let sum = Estimate::exact(100.0);
        let count = Estimate::exact(4.0);
        let avg = sum.ratio_with_cov(count, 0.0).unwrap();
        assert_eq!(avg.value, 25.0);
        assert!(avg.is_exact());
        assert!(Estimate::exact(1.0).ratio_with_cov(Estimate::exact(0.0), 0.0).is_none());

        let sum = Estimate::with_variance(100.0, 16.0);
        let count = Estimate::with_variance(4.0, 0.25);
        let avg = sum.ratio_with_cov(count, 0.0).unwrap();
        assert_eq!(avg.value, 25.0);
        assert!(avg.variance > 0.0 && !avg.is_exact());
    }

    #[test]
    fn new_keeps_design_and_rows_and_clamps_negative_variance() {
        let e = Estimate::new(5.0, -1e-12, Design::Scaled, 3);
        assert_eq!(e.variance, 0.0);
        assert_eq!(e.design, Design::Scaled);
        assert_eq!(e.rows, 3);
        assert!(!e.is_exact());
        let e = Estimate::new(5.0, 2.0, Design::Prefix, 7);
        assert_eq!((e.value, e.variance, e.design, e.rows), (5.0, 2.0, Design::Prefix, 7));
        assert_eq!(Estimate::exact(1.0).rows, 0);
        assert_eq!(Estimate::with_variance(1.0, 1.0).design, Design::Scaled);
    }

    #[test]
    fn ratio_takes_sampled_design_and_larger_rows() {
        // An exact numerator over a sampled denominator takes the
        // denominator's design, and the delta-method variance is kept.
        let sum = Estimate::new(100.0, 0.0, Design::Exact, 0);
        let count = Estimate::new(4.0, 0.25, Design::Prefix, 9);
        let avg = sum.ratio_with_cov(count, 0.0).unwrap();
        assert_eq!(avg.design, Design::Prefix);
        assert_eq!(avg.rows, 9);
        assert!((avg.variance - 10_000.0 * 0.25 / 256.0).abs() < 1e-12);
        // Two sampled sides: the numerator's design wins, rows are the max.
        let sum = Estimate::new(100.0, 16.0, Design::Scaled, 12);
        let avg = sum.ratio_with_cov(count, 0.0).unwrap();
        assert_eq!(avg.design, Design::Scaled);
        assert_eq!(avg.rows, 12);
        // Both exact: zero variance whatever the covariance argument says.
        let avg = Estimate::exact(9.0).ratio_with_cov(Estimate::exact(3.0), 5.0).unwrap();
        assert!(avg.is_exact());
        assert_eq!((avg.value, avg.variance, avg.rows), (3.0, 0.0, 0));
    }

    #[test]
    fn interval_arm_follows_design() {
        // The sampled designs share the normal-theory interval.
        let scaled = Estimate::new(50.0, 4.0, Design::Scaled, 10);
        let prefix = Estimate::new(50.0, 4.0, Design::Prefix, 10);
        let (s, p) = (scaled.confidence_interval(0.95), prefix.confidence_interval(0.95));
        assert_eq!((s.lo, s.hi), (p.lo, p.hi));
        assert!((s.hi - (50.0 + 1.959964 * 2.0)).abs() < 1e-4);
        // An exact design ignores any variance it carries.
        let exact = Estimate::new(50.0, 4.0, Design::Exact, 0).confidence_interval(0.95);
        assert_eq!((exact.lo, exact.hi), (50.0, 50.0));
    }

    #[test]
    fn ratio_covariance_tightens_variance() {
        let sum = Estimate::with_variance(100.0, 16.0);
        let count = Estimate::with_variance(4.0, 0.25);
        let independent = sum.ratio_with_cov(count, 0.0).unwrap();
        // Positive covariance (the AVG = SUM/COUNT case) shrinks the
        // delta-method variance relative to the independence approximation.
        let correlated = sum.ratio_with_cov(count, 1.5).unwrap();
        assert_eq!(correlated.value, independent.value);
        assert!(correlated.variance < independent.variance);
        // Full delta method: 16/16 − 2·100·1.5/64 + 100²·0.25/256
        let expected = 16.0 / 16.0 - 2.0 * 100.0 * 1.5 / 64.0 + 10_000.0 * 0.25 / 256.0;
        assert!((correlated.variance - expected).abs() < 1e-12);
        // Implausibly large covariance estimates clamp at zero rather than
        // producing a negative variance.
        let clamped = sum.ratio_with_cov(count, 10.0).unwrap();
        assert_eq!(clamped.variance, 0.0);
    }

    #[test]
    fn ci_width_scales_with_confidence() {
        let e = Estimate::with_variance(100.0, 100.0);
        let c90 = e.confidence_interval(0.90);
        let c99 = e.confidence_interval(0.99);
        assert!(c99.width() > c90.width());
        assert!(c90.contains(100.0));
        // 95% CI: 100 ± 1.96·10
        let c95 = e.confidence_interval(0.95);
        assert!((c95.lo - (100.0 - 19.59964)).abs() < 1e-2);
    }

    #[test]
    fn agresti_coull_basics() {
        let ci = agresti_coull(50, 100, 0.95);
        assert!(ci.contains(0.5));
        assert!(ci.lo > 0.35 && ci.hi < 0.65);
        // Extreme proportions stay within [0,1].
        let ci = agresti_coull(0, 10, 0.95);
        assert!(ci.lo >= 0.0);
        let ci = agresti_coull(10, 10, 0.95);
        assert!(ci.hi <= 1.0);
        // More trials → narrower interval.
        let wide = agresti_coull(5, 10, 0.95);
        let narrow = agresti_coull(500, 1000, 0.95);
        assert!(narrow.width() < wide.width());
    }
}
