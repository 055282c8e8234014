//! Outlier indexing \[9\] — the skewed-aggregate baseline.
//!
//! For SUM aggregates over a heavy-tailed measure column, a uniform sample
//! misses the few enormous values that dominate the sum. Outlier indexing
//! stores the variance-dominating *outliers* of the aggregate column
//! exactly (the "outlier index") and samples only the well-behaved
//! remainder. The outlier set of size `k` is chosen optimally: sort the
//! values; the non-outliers form a contiguous window of `n−k` sorted
//! values, so choosing the window of minimum variance (a single
//! prefix-sum sweep) minimises the estimator variance \[9\].
//!
//! The paper compares plain outlier indexing against "small group sampling
//! enhanced with outlier indexing" (Section 5.3.3), which this crate
//! builds via [`crate::OverallKind::OutlierIndexed`].

use crate::answer::ApproxAnswer;
use crate::error::{AqpError, AqpResult};
use crate::parts::{answer_from_parts, Part, PartWeight};
use crate::system::AqpSystem;
use aqp_query::{DataSource, Query};
use aqp_sampling::ReservoirSampler;
use aqp_storage::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Select the indices of the `k` values whose removal minimises the
/// variance of the remaining values.
///
/// Returns at most `k` indices (exactly `min(k, n)`), unsorted value-wise
/// but ascending index-wise within each side of the retained window.
pub fn select_outliers(values: &[f64], k: usize) -> Vec<usize> {
    let n = values.len();
    if k == 0 {
        return Vec::new();
    }
    if k >= n {
        return (0..n).collect();
    }
    // Sort indices by value; the optimal non-outlier set is a contiguous
    // window of length m = n - k in this order (removing extreme values
    // from either end is the only way to shrink variance).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();

    let m = n - k;
    // Prefix sums for O(1) window variance: Var ∝ Σx² − (Σx)²/m.
    let mut prefix = vec![0.0f64; n + 1];
    let mut prefix_sq = vec![0.0f64; n + 1];
    for (i, &x) in sorted.iter().enumerate() {
        prefix[i + 1] = prefix[i] + x;
        prefix_sq[i + 1] = prefix_sq[i] + x * x;
    }
    let mut best_start = 0usize;
    let mut best_score = f64::INFINITY;
    for start in 0..=(n - m) {
        let s = prefix[start + m] - prefix[start];
        let sq = prefix_sq[start + m] - prefix_sq[start];
        let score = sq - s * s / m as f64;
        if score < best_score {
            best_score = score;
            best_start = start;
        }
    }
    // Outliers: everything outside the best window.
    let mut out: Vec<usize> = order[..best_start]
        .iter()
        .chain(order[best_start + m..].iter())
        .copied()
        .collect();
    out.sort_unstable();
    out
}

/// An outlier-indexing AQP system for one measure column.
#[derive(Debug, Clone)]
pub struct OutlierIndex {
    column: String,
    pub(crate) outliers: Table,
    pub(crate) sample: Table,
    sample_weight: f64,
    view_rows: usize,
}

impl OutlierIndex {
    /// Build an outlier index for `column`: `k_outliers` rows stored
    /// exactly plus a uniform sample of the remaining rows at
    /// `sample_rate`.
    pub fn build(
        view: &Table,
        column: &str,
        k_outliers: usize,
        sample_rate: f64,
        seed: u64,
    ) -> AqpResult<Self> {
        if !(sample_rate > 0.0 && sample_rate <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "sample_rate must be in (0,1], got {sample_rate}"
            )));
        }
        let src = DataSource::Wide(view);
        let col = src.resolve(column)?;
        if !col.data_type().is_numeric() {
            return Err(AqpError::InvalidConfig(format!(
                "outlier column {column:?} is not numeric"
            )));
        }
        let n = view.num_rows();
        // NULL measures cannot be outliers of SUM(column); coercing them to
        // 0.0 would let them fill the exact-storage budget as a fake low
        // tail.
        let candidates: Vec<usize> = (0..n).filter(|&r| col.numeric(r).is_some()).collect();
        let values: Vec<f64> = candidates
            .iter()
            .map(|&r| col.numeric(r).expect("filtered non-null"))
            .collect();
        let outlier_idx: Vec<usize> = select_outliers(&values, k_outliers.min(candidates.len()))
            .into_iter()
            .map(|i| candidates[i])
            .collect();
        let outlier_set: std::collections::HashSet<usize> =
            outlier_idx.iter().copied().collect();

        let rest: Vec<usize> = (0..n).filter(|r| !outlier_set.contains(r)).collect();
        // At least one remainder row whenever the remainder is non-empty:
        // rounding k_rest to zero would silently drop the entire
        // non-outlier mass (with weight 1.0 the answer would even look
        // exact).
        let k_rest = ((rest.len() as f64 * sample_rate).round() as usize)
            .clamp(usize::from(!rest.is_empty()), rest.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reservoir = ReservoirSampler::new(k_rest);
        for &row in &rest {
            reservoir.observe(row, &mut rng);
        }
        let mut sampled = reservoir.into_items();
        sampled.sort_unstable();
        let realized = if rest.is_empty() {
            1.0
        } else {
            (sampled.len() as f64 / rest.len() as f64).min(1.0)
        };

        Ok(OutlierIndex {
            column: column.to_owned(),
            outliers: view.gather("outlier_index", &outlier_idx),
            sample: view.gather("outlier_rest_sample", &sampled),
            sample_weight: if realized > 0.0 { 1.0 / realized } else { 1.0 },
            view_rows: n,
        })
    }

    /// The indexed measure column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Rows stored exactly in the outlier index.
    pub fn outlier_rows(&self) -> usize {
        self.outliers.num_rows()
    }

    /// Rows in the uniform sample of the remainder.
    pub fn sample_rows(&self) -> usize {
        self.sample.num_rows()
    }

    /// Rows in the source view.
    pub fn view_rows(&self) -> usize {
        self.view_rows
    }
}

impl AqpSystem for OutlierIndex {
    fn name(&self) -> &str {
        "OutlierIndex"
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let exact = self.sample_weight <= 1.0 + 1e-12;
        let parts = [
            Part {
                table: &self.outliers,
                mask: None,
                weighting: PartWeight::Constant(1.0),
                stratum: "outlier",
            },
            // The remainder is a fixed-size WOR sample but is scored with
            // the Bernoulli HT variance (no finite-population correction),
            // consistently with every other stratum in this crate and with
            // the paper's Bernoulli analysis — a conservative (wider-CI)
            // choice documented in DESIGN.md.
            Part {
                table: &self.sample,
                mask: None,
                weighting: PartWeight::Constant(self.sample_weight),
                stratum: "overall",
            },
        ];
        answer_from_parts(query, &parts, confidence, 1, &|_| exact)
    }

    fn sample_bytes(&self) -> usize {
        self.outliers.byte_size() + self.sample.byte_size()
    }

    fn runtime_rows(&self, _query: &Query) -> usize {
        self.outliers.num_rows() + self.sample.num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, SchemaBuilder, Value};

    #[test]
    fn select_outliers_extremes() {
        // Two huge values dominate the variance.
        let values = vec![1.0, 2.0, 1000.0, 3.0, -500.0, 2.5];
        let out = select_outliers(&values, 2);
        assert_eq!(out, vec![2, 4]);
        // k = 0 and k >= n edge cases.
        assert!(select_outliers(&values, 0).is_empty());
        assert_eq!(select_outliers(&values, 6).len(), 6);
        assert_eq!(select_outliers(&values, 99).len(), 6);
    }

    #[test]
    fn select_outliers_matches_brute_force() {
        // Exhaustively verify optimality on small inputs.
        let values = vec![5.0, -3.0, 8.0, 0.5, 12.0, -7.0, 2.0];
        let n = values.len();
        for k in 1..n {
            let fast = select_outliers(&values, k);
            let fast_var = variance_without(&values, &fast);
            // Brute force over all C(n, k) removal sets.
            let best = combinations(n, k)
                .into_iter()
                .map(|set| variance_without(&values, &set))
                .fold(f64::INFINITY, f64::min);
            assert!(
                fast_var <= best + 1e-9,
                "k={k}: fast {fast_var} vs brute {best}"
            );
        }
    }

    fn variance_without(values: &[f64], removed: &[usize]) -> f64 {
        let removed: std::collections::HashSet<usize> = removed.iter().copied().collect();
        let kept: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, &v)| v)
            .collect();
        let m = kept.len() as f64;
        let sum: f64 = kept.iter().sum();
        let sq: f64 = kept.iter().map(|x| x * x).sum();
        sq - sum * sum / m
    }

    fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut current = Vec::new();
        fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == k {
                out.push(cur.clone());
                return;
            }
            for i in start..n {
                cur.push(i);
                rec(i + 1, n, k, cur, out);
                cur.pop();
            }
        }
        rec(0, n, k, &mut current, &mut out);
        out
    }

    fn skewed_view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..995 {
            t.push_row(&[(if i % 2 == 0 { "a" } else { "b" }).into(), 1.0f64.into()])
                .unwrap();
        }
        for _ in 0..5 {
            t.push_row(&["a".into(), 100_000.0f64.into()]).unwrap();
        }
        t
    }

    #[test]
    fn outlier_index_captures_spikes() {
        let v = skewed_view();
        let oi = OutlierIndex::build(&v, "x", 10, 0.05, 3).unwrap();
        assert_eq!(oi.outlier_rows(), 10);
        assert_eq!(oi.column(), "x");
        let q = Query::builder().sum("x").group_by("g").build().unwrap();
        let ans = oi.answer(&q, 0.95).unwrap();
        let a = ans.group(&[Value::Utf8("a".into())]).unwrap();
        let true_sum = 498.0 + 500_000.0;
        let rel_err = (a.values[0].value() - true_sum).abs() / true_sum;
        assert!(rel_err < 0.2, "outlier-indexed SUM within 20%: {rel_err}");
    }

    #[test]
    fn plain_uniform_would_usually_miss_spikes() {
        // Not a comparison test of systems (that's the bench harness), just
        // a sanity check that the data is adversarial for plain sampling:
        // 5 spike rows at 0.5% sampling are absent from most samples.
        let v = skewed_view();
        let u = crate::uniform::UniformAqp::build(&v, 0.005, 11).unwrap();
        let q = Query::builder().sum("x").build().unwrap();
        let est = u.answer(&q, 0.95).unwrap().groups[0].values[0].value();
        let true_sum = 995.0 + 500_000.0;
        // With seed 11 the sample misses every spike; the estimate
        // collapses to ≈ N·1.
        assert!(est < true_sum * 0.1, "uniform estimate {est} vs {true_sum}");
    }

    #[test]
    fn invalid_configs() {
        let v = skewed_view();
        assert!(OutlierIndex::build(&v, "x", 10, 0.0, 1).is_err());
        assert!(OutlierIndex::build(&v, "g", 10, 0.1, 1).is_err());
        assert!(OutlierIndex::build(&v, "zzz", 10, 0.1, 1).is_err());
    }

    #[test]
    fn accounting() {
        let v = skewed_view();
        let oi = OutlierIndex::build(&v, "x", 10, 0.1, 3).unwrap();
        let q = Query::builder().count().build().unwrap();
        assert_eq!(oi.runtime_rows(&q), oi.outlier_rows() + oi.sample_rows());
        assert_eq!(oi.view_rows(), 1000);
        assert!(oi.sample_bytes() > 0);
        assert_eq!(oi.name(), "OutlierIndex");
        // COUNT is still estimated sensibly (outliers + scaled rest).
        let ans = oi.answer(&q, 0.95).unwrap();
        assert!((ans.groups[0].values[0].value() - 1000.0).abs() < 150.0);
    }
}
