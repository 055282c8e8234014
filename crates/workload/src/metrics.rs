//! Accuracy metrics (paper Section 4.3).
//!
//! Both metrics compare the exact answer (a key → value map over `n`
//! groups) with an approximate answer covering `m ≤ n` of those groups.
//! Sampling-based estimators never invent groups, so approximate keys
//! outside the exact answer would indicate a bug; the functions here count
//! them via [`MetricReport::spurious_groups`] so tests can assert zero.

use aqp_storage::Value;
use std::collections::HashMap;

/// Detailed metric output for one (exact, approximate) answer pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricReport {
    /// Groups in the exact answer (`n`).
    pub exact_groups: usize,
    /// Exact groups present in the approximate answer (`m`).
    pub matched_groups: usize,
    /// Approximate groups absent from the exact answer (should be 0).
    pub spurious_groups: usize,
    /// Definition 4.1: `(n − m)/n × 100`.
    pub pct_groups: f64,
    /// Definition 4.2: mean relative error, missing groups counted as 1.
    pub rel_err: f64,
    /// Definition 4.3: mean squared relative error, missing groups as 1.
    pub sq_rel_err: f64,
}

/// Compute all metrics between an exact and an approximate per-group map.
///
/// Relative error for a group with exact value `x` and estimate `x'` is
/// `|x − x'| / x`; when `x = 0` (possible for SUM over signed measures)
/// the group contributes 0 if `x' = 0` and 1 otherwise. The per-group
/// errors are summed in ascending order, not in `HashMap` order (which
/// each process's `RandomState` picks), so the same maps give the same
/// bits in every run.
pub fn metric_report(
    exact: &HashMap<Vec<Value>, f64>,
    approx: &HashMap<Vec<Value>, f64>,
) -> MetricReport {
    let n = exact.len();
    if n == 0 {
        let spurious = approx.len();
        return MetricReport {
            exact_groups: 0,
            matched_groups: 0,
            spurious_groups: spurious,
            pct_groups: 0.0,
            rel_err: 0.0,
            sq_rel_err: 0.0,
        };
    }
    let mut matched = 0usize;
    let mut rels: Vec<f64> = exact
        .iter()
        .map(|(key, &x)| match approx.get(key) {
            Some(&x_hat) => {
                matched += 1;
                if x.abs() > f64::EPSILON {
                    (x - x_hat).abs() / x.abs()
                } else if x_hat.abs() > f64::EPSILON {
                    1.0
                } else {
                    0.0
                }
            }
            // "taking the relative error for each of the n − m groups
            // omitted from the approximate answer A to be 100%".
            None => 1.0,
        })
        .collect();
    rels.sort_by(f64::total_cmp);
    let err_sum: f64 = rels.iter().sum();
    let sq_sum: f64 = rels.iter().map(|rel| rel * rel).sum();
    let spurious = approx.keys().filter(|k| !exact.contains_key(*k)).count();
    MetricReport {
        exact_groups: n,
        matched_groups: matched,
        spurious_groups: spurious,
        pct_groups: (n - matched) as f64 / n as f64 * 100.0,
        rel_err: err_sum / n as f64,
        sq_rel_err: sq_sum / n as f64,
    }
}

/// Definition 4.1 — percentage of exact-answer groups missing from the
/// approximate answer.
pub fn pct_groups(exact: &HashMap<Vec<Value>, f64>, approx: &HashMap<Vec<Value>, f64>) -> f64 {
    metric_report(exact, approx).pct_groups
}

/// Definition 4.2 — average relative error, with missed groups at 100 %.
pub fn rel_err(exact: &HashMap<Vec<Value>, f64>, approx: &HashMap<Vec<Value>, f64>) -> f64 {
    metric_report(exact, approx).rel_err
}

/// Definition 4.3 — average squared relative error.
pub fn sq_rel_err(exact: &HashMap<Vec<Value>, f64>, approx: &HashMap<Vec<Value>, f64>) -> f64 {
    metric_report(exact, approx).sq_rel_err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(i64, f64)]) -> HashMap<Vec<Value>, f64> {
        entries
            .iter()
            .map(|&(k, v)| (vec![Value::Int64(k)], v))
            .collect()
    }

    #[test]
    fn sums_do_not_depend_on_map_order() {
        // 1 000 groups whose errors span fifteen orders of magnitude, so
        // adding them in another order moves the last bits of the sums.
        let entries: Vec<(i64, f64, f64)> = (0..1_000i64)
            .map(|k| {
                let x = 1.0 + (k * 7_919 % 1_009) as f64;
                let rel = 10f64.powi(-((k * 31 % 16) as i32)) * (1.0 + k as f64 / 997.0);
                (k, x, x * (1.0 + rel))
            })
            .collect();
        let build = |order: &[usize]| {
            let exact: HashMap<Vec<Value>, f64> =
                order.iter().map(|&i| (vec![Value::Int64(entries[i].0)], entries[i].1)).collect();
            // Every 10th group missing: the 1.0 terms interleave too.
            let approx: HashMap<Vec<Value>, f64> = order
                .iter()
                .filter(|&&i| i % 10 != 3)
                .map(|&i| (vec![Value::Int64(entries[i].0)], entries[i].2))
                .collect();
            metric_report(&exact, &approx)
        };
        let forward: Vec<usize> = (0..entries.len()).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        let strided: Vec<usize> = (0..entries.len()).map(|i| i * 337 % entries.len()).collect();
        let first = build(&forward);
        assert_eq!(first.matched_groups, 900);
        for order in [&forward, &reverse, &strided] {
            for _ in 0..3 {
                let again = build(order);
                assert_eq!(again.rel_err.to_bits(), first.rel_err.to_bits());
                assert_eq!(again.sq_rel_err.to_bits(), first.sq_rel_err.to_bits());
            }
        }
    }

    #[test]
    fn perfect_answer() {
        let exact = map(&[(1, 10.0), (2, 20.0)]);
        let r = metric_report(&exact, &exact.clone());
        assert_eq!(r.pct_groups, 0.0);
        assert_eq!(r.rel_err, 0.0);
        assert_eq!(r.sq_rel_err, 0.0);
        assert_eq!(r.matched_groups, 2);
        assert_eq!(r.spurious_groups, 0);
    }

    #[test]
    fn missing_groups_count_as_full_error() {
        let exact = map(&[(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)]);
        let approx = map(&[(1, 10.0)]);
        let r = metric_report(&exact, &approx);
        assert_eq!(r.pct_groups, 75.0);
        assert!((r.rel_err - 0.75).abs() < 1e-12);
        assert!((r.sq_rel_err - 0.75).abs() < 1e-12);
    }

    #[test]
    fn relative_error_definition() {
        // Group 1: |10−15|/10 = 0.5; group 2 exact.
        let exact = map(&[(1, 10.0), (2, 20.0)]);
        let approx = map(&[(1, 15.0), (2, 20.0)]);
        let r = metric_report(&exact, &approx);
        assert!((r.rel_err - 0.25).abs() < 1e-12);
        assert!((r.sq_rel_err - 0.125).abs() < 1e-12);
        assert_eq!(r.pct_groups, 0.0);
    }

    #[test]
    fn zero_exact_values() {
        let exact = map(&[(1, 0.0), (2, 0.0)]);
        let approx = map(&[(1, 0.0), (2, 5.0)]);
        let r = metric_report(&exact, &approx);
        assert!((r.rel_err - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spurious_groups_detected() {
        let exact = map(&[(1, 10.0)]);
        let approx = map(&[(1, 10.0), (9, 1.0)]);
        let r = metric_report(&exact, &approx);
        assert_eq!(r.spurious_groups, 1);
        assert_eq!(r.pct_groups, 0.0);
    }

    #[test]
    fn empty_exact_answer() {
        let exact: HashMap<Vec<Value>, f64> = HashMap::new();
        let approx = map(&[(1, 1.0)]);
        let r = metric_report(&exact, &approx);
        assert_eq!(r.rel_err, 0.0);
        assert_eq!(r.spurious_groups, 1);
    }

    #[test]
    fn convenience_wrappers() {
        let exact = map(&[(1, 10.0), (2, 20.0)]);
        let approx = map(&[(1, 12.0)]);
        assert!((pct_groups(&exact, &approx) - 50.0).abs() < 1e-12);
        assert!((rel_err(&exact, &approx) - (0.2 + 1.0) / 2.0).abs() < 1e-12);
        assert!((sq_rel_err(&exact, &approx) - (0.04 + 1.0) / 2.0).abs() < 1e-12);
    }
}
