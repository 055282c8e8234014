//! Per-group aggregation output.
//!
//! The executor reports *raw tallies* per group and aggregate — row
//! counts, weighted sums and the Horvitz–Thompson variance accumulators —
//! rather than finished scalar answers. The AQP layer in
//! `aqp-core` merges tallies from several sample tables (small group tables
//! plus the overall sample) and only then forms point estimates and
//! confidence intervals, which is what lets small group sampling confine
//! the source of inaccuracy to a single stratum (paper Section 4.2.2).

use aqp_storage::Value;

/// Raw per-group tallies for one aggregate expression.
///
/// For a COUNT aggregate the "input" is the constant 1; for SUM/AVG/MIN/MAX
/// it is the (non-null) aggregate column value. Each contributing row `i`
/// with input `xᵢ` and weight `wᵢ` (inverse of the sampling rate of the
/// stratum the row came from) updates:
///
/// * `rows`     — number of contributing rows,
/// * `sampled_rows` — number of contributing rows with `wᵢ ≠ 1`: the rows
///   that carry variance (every `wᵢ·(wᵢ−1)` term below is zero at
///   `wᵢ = 1`), so the sampled stratum's n; zero when every weight is 1,
/// * `sum_w`    — `Σ wᵢ` (the weighted COUNT estimate),
/// * `sum_wx`   — `Σ wᵢ·xᵢ` (the weighted SUM estimate),
/// * `var_acc`  — `Σ wᵢ·(wᵢ−1)·xᵢ²`, the Horvitz–Thompson variance
///   estimate for independent (Bernoulli/Poisson) sampling; exactly zero
///   when every weight is 1 (exact evaluation),
/// * `var_acc_w` — `Σ wᵢ·(wᵢ−1)`, the same variance accumulator for the
///   weighted COUNT (used by AVG ratio estimates),
/// * `cov_acc`  — `Σ wᵢ·(wᵢ−1)·xᵢ`, the Horvitz–Thompson covariance of the
///   weighted SUM and COUNT under independent sampling. AVG ratio variances
///   need it: SUM and COUNT over the same sample are strongly positively
///   correlated, and dropping the covariance term inflates the interval
///   enough that a 95 % AVG interval covers essentially always (caught by
///   the CI-coverage calibration audit),
/// * `min`/`max` — extrema of the inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggState {
    /// Number of contributing (non-null-input) rows.
    pub rows: u64,
    /// Number of contributing rows whose weight is not 1.
    pub sampled_rows: u64,
    /// Σ wᵢ.
    pub sum_w: f64,
    /// Σ wᵢ·xᵢ.
    pub sum_wx: f64,
    /// Σ wᵢ·(wᵢ−1)·xᵢ².
    pub var_acc: f64,
    /// Σ wᵢ·(wᵢ−1).
    pub var_acc_w: f64,
    /// Σ wᵢ·(wᵢ−1)·xᵢ.
    pub cov_acc: f64,
    /// Minimum input, `+∞` when no rows contributed.
    pub min: f64,
    /// Maximum input, `−∞` when no rows contributed.
    pub max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        AggState {
            rows: 0,
            sampled_rows: 0,
            sum_w: 0.0,
            sum_wx: 0.0,
            var_acc: 0.0,
            var_acc_w: 0.0,
            cov_acc: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl AggState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one row with input `x` and weight `w`.
    #[inline]
    pub fn update(&mut self, x: f64, w: f64) {
        self.rows += 1;
        self.sampled_rows += u64::from(w != 1.0);
        self.sum_w += w;
        self.sum_wx += w * x;
        self.var_acc += w * (w - 1.0) * x * x;
        self.var_acc_w += w * (w - 1.0);
        self.cov_acc += w * (w - 1.0) * x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another state (e.g. from a parallel partition or another
    /// sample table) into this one.
    pub fn merge(&mut self, other: &AggState) {
        self.rows += other.rows;
        self.sampled_rows += other.sampled_rows;
        self.sum_w += other.sum_w;
        self.sum_wx += other.sum_wx;
        self.var_acc += other.var_acc;
        self.var_acc_w += other.var_acc_w;
        self.cov_acc += other.cov_acc;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One output group: its key values (in group-by order) plus one
/// [`AggState`] per aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Group key values, aligned with [`QueryOutput::group_names`].
    pub key: Vec<Value>,
    /// One tally per aggregate, aligned with [`QueryOutput::agg_aliases`].
    pub aggs: Vec<AggState>,
}

/// The full result of executing a query against one data source.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Names of the grouping columns.
    pub group_names: Vec<String>,
    /// Aliases of the aggregate expressions.
    pub agg_aliases: Vec<String>,
    /// The groups, in first-touch order: ascending first matching row,
    /// the same at every thread count and in both kernel modes.
    pub groups: Vec<GroupResult>,
    /// Number of rows the scan actually visited (before predicates).
    pub rows_scanned: usize,
    /// True when [`crate::ExecOptions::row_limit`] cut the scan short, so
    /// the tallies cover only a prefix of the source.
    pub truncated: bool,
}

impl QueryOutput {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Find a group by key.
    pub fn group(&self, key: &[Value]) -> Option<&GroupResult> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// Sort groups by key (for deterministic display and comparison).
    pub fn sort_by_key(&mut self) {
        self.groups.sort_by(|a, b| a.key.cmp(&b.key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_exact_weights() {
        let mut s = AggState::new();
        s.update(2.0, 1.0);
        s.update(5.0, 1.0);
        assert_eq!(s.rows, 2);
        assert_eq!(s.sum_w, 2.0);
        assert_eq!(s.sum_wx, 7.0);
        assert_eq!(s.sampled_rows, 0, "weight 1 is exact");
        assert_eq!(s.var_acc, 0.0, "weight 1 is exact");
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn update_weighted() {
        let mut s = AggState::new();
        s.update(3.0, 10.0); // w(w-1)x² = 10·9·9 = 810
        assert_eq!(s.sampled_rows, 1);
        assert_eq!(s.sum_w, 10.0);
        assert_eq!(s.sum_wx, 30.0);
        assert_eq!(s.var_acc, 810.0);
        assert_eq!(s.var_acc_w, 90.0);
        assert_eq!(s.cov_acc, 270.0); // w(w-1)x = 10·9·3
    }

    #[test]
    fn merge_is_sum() {
        let mut a = AggState::new();
        a.update(1.0, 2.0);
        let mut b = AggState::new();
        b.update(4.0, 3.0);
        let mut merged = a;
        merged.merge(&b);
        let mut direct = AggState::new();
        direct.update(1.0, 2.0);
        direct.update(4.0, 3.0);
        assert_eq!(merged, direct);
    }

    #[test]
    fn empty_state_extrema() {
        let s = AggState::new();
        assert!(s.min.is_infinite() && s.min > 0.0);
        assert!(s.max.is_infinite() && s.max < 0.0);
    }

    #[test]
    fn output_lookup() {
        let out = QueryOutput {
            group_names: vec!["g".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![
                GroupResult { key: vec![Value::Int64(1)], aggs: vec![AggState::new()] },
                GroupResult { key: vec![Value::Int64(2)], aggs: vec![AggState::new()] },
            ],
            ..QueryOutput::default()
        };
        assert_eq!(out.num_groups(), 2);
        assert!(out.group(&[Value::Int64(2)]).is_some());
        assert!(out.group(&[Value::Int64(3)]).is_none());
    }

    #[test]
    fn sort_by_key_orders_groups() {
        let mut out = QueryOutput {
            group_names: vec!["g".into()],
            agg_aliases: vec![],
            groups: vec![
                GroupResult { key: vec![Value::Int64(5)], aggs: vec![] },
                GroupResult { key: vec![Value::Int64(1)], aggs: vec![] },
            ],
            ..QueryOutput::default()
        };
        out.sort_by_key();
        assert_eq!(out.groups[0].key, vec![Value::Int64(1)]);
    }
}
