//! Basic congress — congressional sampling \[2\], the stratified baseline.
//!
//! Congressional sampling builds a single stratified sample meant to serve
//! *all* group-by queries at once. The tractable *basic congress* variant
//! (the one the paper could actually run on SALES — full Congress is
//! exponential in the number of columns) stratifies the table by the joint
//! value of every candidate grouping column and allocates each stratum the
//! maximum of its proportional ("house") and equal ("senate") shares,
//! rescaled to the sample budget. Sampled rows carry per-row weights equal
//! to the inverse of their stratum's realised sampling rate.
//!
//! With many candidate columns the joint stratification shatters into a
//! huge number of tiny strata and the allocation degenerates towards
//! proportional — which is why the paper finds basic congress ≈ uniform
//! sampling (Figure 8).
//!
//! The full **Congress** strategy ([`Congress`]) is also implemented: it
//! considers *every* non-empty subset of the candidate grouping columns,
//! gives each stratum the maximum of its ideal shares across all those
//! grouping sets, and normalises. Its cost is exponential in the number of
//! columns — the paper notes it "did not scale for our experimental
//! databases" (2²⁴⁵ combinations on SALES) — so construction is guarded
//! by a column-count limit and it is practical only for narrow candidate
//! sets.

use crate::answer::ApproxAnswer;
use crate::error::{AqpError, AqpResult};
use crate::parts::{answer_from_parts, Part, PartWeight};
use crate::system::AqpSystem;
use aqp_query::{DataSource, Query};
use aqp_sampling::{sample_without_replacement, water_fill, StratifiedAllocation};
use aqp_storage::Table;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// A basic-congress stratified sampling AQP system.
#[derive(Debug, Clone)]
pub struct BasicCongress {
    pub(crate) sample: Table,
    weights: Vec<f64>,
    view_rows: usize,
    num_strata: usize,
}

/// A stratum's joint key: one `(code, is_null)` pair per grouping column.
type StratumKey = Vec<(u64, bool)>;

/// Stratify rows of `view` by the joint key over `columns`, returning the
/// per-stratum row lists (deterministically ordered) plus each stratum's
/// joint key.
fn stratify(
    view: &Table,
    columns: &[String],
) -> AqpResult<(Vec<Vec<usize>>, Vec<StratumKey>)> {
    let n = view.num_rows();
    let src = DataSource::Wide(view);
    let accessors = columns
        .iter()
        .map(|c| src.resolve(c))
        .collect::<Result<Vec<_>, _>>()?;
    let mut strata: HashMap<StratumKey, Vec<usize>> = HashMap::new();
    for row in 0..n {
        let key: StratumKey = accessors.iter().map(|a| a.key_code(row)).collect();
        strata.entry(key).or_default().push(row);
    }
    let mut pairs: Vec<(StratumKey, Vec<usize>)> = strata.into_iter().collect();
    pairs.sort_by_key(|(_, rows)| rows[0]);
    let keys = pairs.iter().map(|(k, _)| k.clone()).collect();
    let rows = pairs.into_iter().map(|(_, r)| r).collect();
    Ok((rows, keys))
}

/// Sample each stratum with randomized rounding of its fractional
/// allocation and Horvitz–Thompson weights `sizeᵢ/allocᵢ`; returns the
/// sampled table plus aligned per-row weights.
fn sample_strata(
    view: &Table,
    stratum_rows: &[Vec<usize>],
    alloc: &[f64],
    seed: u64,
    name: &str,
) -> (Table, Vec<f64>) {
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for (rows, &a) in stratum_rows.iter().zip(alloc) {
        if a <= 0.0 {
            continue;
        }
        let mut take = a.floor() as usize;
        if rng.random::<f64>() < a - a.floor() {
            take += 1;
        }
        let take = take.min(rows.len());
        if take == 0 {
            continue;
        }
        let weight = rows.len() as f64 / a.min(rows.len() as f64);
        for pos in sample_without_replacement(rows.len(), take, &mut rng) {
            indices.push(rows[pos]);
            weights.push(weight);
        }
    }
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_by_key(|&i| indices[i]);
    let sorted_indices: Vec<usize> = order.iter().map(|&i| indices[i]).collect();
    let sorted_weights: Vec<f64> = order.iter().map(|&i| weights[i]).collect();
    (view.gather(name, &sorted_indices), sorted_weights)
}

impl BasicCongress {
    /// Build a basic-congress sample of ≈`budget_rows` rows, stratifying by
    /// the joint key of `grouping_columns`.
    pub fn build(
        view: &Table,
        grouping_columns: &[String],
        budget_rows: usize,
        seed: u64,
    ) -> AqpResult<Self> {
        if grouping_columns.is_empty() {
            return Err(AqpError::InvalidConfig(
                "basic congress needs at least one candidate grouping column".into(),
            ));
        }
        let n = view.num_rows();
        let (stratum_rows, _keys) = stratify(view, grouping_columns)?;
        let sizes: Vec<u64> = stratum_rows.iter().map(|r| r.len() as u64).collect();

        // max(house, senate) allocation, water-filled to the budget.
        let alloc =
            StratifiedAllocation::BasicCongress.allocate(&sizes, budget_rows as u64);

        // Randomized rounding + HT weights (see `sample_strata`):
        // deterministic rounding would silently zero out the strata that
        // round down, biasing totals low by exactly the unsampled mass.
        let (sample, weights) = sample_strata(view, &stratum_rows, &alloc, seed, "congress_sample");

        Ok(BasicCongress {
            sample,
            weights,
            view_rows: n,
            num_strata: sizes.len(),
        })
    }

    /// Number of strata the joint grouping produced.
    pub fn num_strata(&self) -> usize {
        self.num_strata
    }

    /// Rows in the sample.
    pub fn sample_rows(&self) -> usize {
        self.sample.num_rows()
    }

    /// Sum of the per-row weights — an unbiased estimate of the view size
    /// (exactly the view size when every stratum's allocation is integral
    /// and fully taken).
    pub fn weight_total(&self) -> f64 {
        self.weights.iter().sum()
    }
}

impl AqpSystem for BasicCongress {
    fn name(&self) -> &str {
        "BasicCongress"
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let exact = self.sample.num_rows() == self.view_rows;
        let parts = [Part {
            table: &self.sample,
            mask: None,
            weighting: PartWeight::PerRow(&self.weights),
            stratum: "stratified",
        }];
        answer_from_parts(query, &parts, confidence, 1, &|_| exact)
    }

    fn sample_bytes(&self) -> usize {
        self.sample.byte_size() + self.weights.len() * 8
    }

    fn runtime_rows(&self, _query: &Query) -> usize {
        self.sample.num_rows()
    }
}

/// The full Congress strategy of \[2\]: per finest stratum, the maximum
/// ideal share across *every* non-empty subset of the candidate grouping
/// columns, normalised to the budget.
///
/// Cost is `O(2^m · strata)` for `m` candidate columns; construction is
/// rejected above [`Congress::MAX_COLUMNS`] — the paper's observation that
/// full congress "did not scale for our experimental databases" (SALES
/// had 245 candidate columns ⇒ 2²⁴⁵ combinations).
#[derive(Debug, Clone)]
pub struct Congress {
    pub(crate) sample: Table,
    weights: Vec<f64>,
    view_rows: usize,
    num_strata: usize,
}

impl Congress {
    /// Construction refuses more candidate columns than this.
    pub const MAX_COLUMNS: usize = 16;

    /// Build a full-congress sample of ≈`budget_rows` rows.
    pub fn build(
        view: &Table,
        grouping_columns: &[String],
        budget_rows: usize,
        seed: u64,
    ) -> AqpResult<Self> {
        let m = grouping_columns.len();
        if m == 0 {
            return Err(AqpError::InvalidConfig(
                "congress needs at least one candidate grouping column".into(),
            ));
        }
        if m > Self::MAX_COLUMNS {
            return Err(AqpError::InvalidConfig(format!(
                "full congress is exponential in columns: {m} > {} (use BasicCongress)",
                Self::MAX_COLUMNS
            )));
        }
        let n = view.num_rows();
        let (stratum_rows, keys) = stratify(view, grouping_columns)?;
        let sizes: Vec<u64> = stratum_rows.iter().map(|r| r.len() as u64).collect();
        let budget = (budget_rows as u64).min(n as u64) as f64;

        // For every non-empty grouping subset g (a bitmask over columns):
        // group the finest strata by their key projected onto g; the ideal
        // share of stratum h under g is (budget / m_g) · (|h| / |G_g(h)|)
        // — equal allocation across g's groups, proportional within.
        // Congress keeps the max share over all g.
        let mut raw = vec![0.0f64; sizes.len()];
        for subset in 1u32..(1 << m) {
            let mut group_sizes: HashMap<StratumKey, u64> = HashMap::new();
            let projected: Vec<StratumKey> = keys
                .iter()
                .map(|key| {
                    (0..m)
                        .filter(|c| subset & (1 << c) != 0)
                        .map(|c| key[c])
                        .collect()
                })
                .collect();
            for (p, &size) in projected.iter().zip(&sizes) {
                *group_sizes.entry(p.clone()).or_insert(0) += size;
            }
            let m_g = group_sizes.len() as f64;
            for (h, p) in projected.iter().enumerate() {
                let group = group_sizes[p] as f64;
                let share = (budget / m_g) * (sizes[h] as f64 / group);
                if share > raw[h] {
                    raw[h] = share;
                }
            }
        }
        // Normalise to the budget with cap-and-redistribute (water fill):
        // plain `.min(size)` truncation would silently undershoot the
        // budget whenever a tiny stratum's max-share exceeds its size.
        let alloc = water_fill(&raw, &sizes, budget);

        let (sample, weights) = sample_strata(view, &stratum_rows, &alloc, seed, "full_congress_sample");
        Ok(Congress {
            sample,
            weights,
            view_rows: n,
            num_strata: sizes.len(),
        })
    }

    /// Number of finest strata.
    pub fn num_strata(&self) -> usize {
        self.num_strata
    }

    /// Rows in the sample.
    pub fn sample_rows(&self) -> usize {
        self.sample.num_rows()
    }
}

impl AqpSystem for Congress {
    fn name(&self) -> &str {
        "Congress"
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let exact = self.sample.num_rows() == self.view_rows;
        let parts = [Part {
            table: &self.sample,
            mask: None,
            weighting: PartWeight::PerRow(&self.weights),
            stratum: "stratified",
        }];
        answer_from_parts(query, &parts, confidence, 1, &|_| exact)
    }

    fn sample_bytes(&self) -> usize {
        self.sample.byte_size() + self.weights.len() * 8
    }

    fn runtime_rows(&self, _query: &Query) -> usize {
        self.sample.num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, SchemaBuilder, Value};

    /// 900 rows of (a, x), 90 of (b, x), 10 of (b, y): skewed strata.
    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g1", DataType::Utf8)
            .field("g2", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for _ in 0..900 {
            t.push_row(&["a".into(), "x".into()]).unwrap();
        }
        for _ in 0..90 {
            t.push_row(&["b".into(), "x".into()]).unwrap();
        }
        for _ in 0..10 {
            t.push_row(&["b".into(), "y".into()]).unwrap();
        }
        t
    }

    #[test]
    fn strata_and_budget() {
        let v = view();
        let cols = vec!["g1".to_owned(), "g2".to_owned()];
        let bc = BasicCongress::build(&v, &cols, 100, 5).unwrap();
        assert_eq!(bc.num_strata(), 3);
        assert!((90..=105).contains(&bc.sample_rows()), "got {}", bc.sample_rows());
        // Horvitz–Thompson consistency: the weighted total is unbiased for
        // the view size; with near-integral allocations it is within one
        // stratum weight of it.
        assert!((bc.weight_total() - 1000.0).abs() < 50.0, "{}", bc.weight_total());
    }

    #[test]
    fn small_strata_get_boosted() {
        let v = view();
        let cols = vec!["g1".to_owned(), "g2".to_owned()];
        let bc = BasicCongress::build(&v, &cols, 60, 5).unwrap();
        // Senate share would be 20 per stratum; the (b,y) stratum has only
        // 10 rows, so it is fully sampled — the query answers exactly.
        let q = Query::builder()
            .count()
            .group_by("g1")
            .group_by("g2")
            .build()
            .unwrap();
        let ans = bc.answer(&q, 0.95).unwrap();
        let rare = ans
            .group(&[Value::Utf8("b".into()), Value::Utf8("y".into())])
            .expect("rare stratum present");
        assert!((rare.values[0].value() - 10.0).abs() < 1e-9);
        // Big stratum estimated with scaling: within ~2 stratum weights of
        // the truth (randomized rounding leaves ±1 sampled row of noise).
        let big = ans
            .group(&[Value::Utf8("a".into()), Value::Utf8("x".into())])
            .unwrap();
        assert!(
            (big.values[0].value() - 900.0).abs() < 60.0,
            "HT estimate {} for the 900-row stratum",
            big.values[0].value()
        );
    }

    #[test]
    fn estimates_are_consistent_ungrouped() {
        let v = view();
        let cols = vec!["g1".to_owned()];
        let bc = BasicCongress::build(&v, &cols, 50, 9).unwrap();
        let q = Query::builder().count().build().unwrap();
        let ans = bc.answer(&q, 0.95).unwrap();
        assert!((ans.groups[0].values[0].value() - 1000.0).abs() < 80.0);
    }

    #[test]
    fn full_congress_favors_rare_subset_groups() {
        // g2 = y only in 10 rows. Under full congress, the subset {g2}
        // demands an equal share for the tiny y-group, so it is sampled
        // far above its proportional share.
        let v = view();
        let cols = vec!["g1".to_owned(), "g2".to_owned()];
        let full = Congress::build(&v, &cols, 100, 9).unwrap();
        assert_eq!(full.num_strata(), 3);
        let q = Query::builder().count().group_by("g2").build().unwrap();
        let ans = full.answer(&q, 0.95).unwrap();
        let y = ans.group(&[Value::Utf8("y".into())]).expect("y group present");
        assert!((y.values[0].value() - 10.0).abs() < 8.0, "y ~ 10, got {}", y.values[0].value());
        assert_eq!(full.name(), "Congress");
        assert!(full.sample_bytes() > 0);
        assert_eq!(full.runtime_rows(&q), full.sample_rows());
    }

    #[test]
    fn full_congress_guards_exponential_blowup() {
        let v = view();
        let too_many: Vec<String> = (0..17).map(|i| format!("c{i}")).collect();
        let err = Congress::build(&v, &too_many, 10, 1).unwrap_err();
        assert!(matches!(err, AqpError::InvalidConfig(_)));
        assert!(Congress::build(&v, &[], 10, 1).is_err());
    }

    #[test]
    fn full_congress_unbiased_total() {
        let v = view();
        let cols = vec!["g1".to_owned(), "g2".to_owned()];
        let q = Query::builder().count().build().unwrap();
        let mut mean = 0.0;
        let trials = 40;
        for seed in 0..trials {
            let c = Congress::build(&v, &cols, 80, seed).unwrap();
            mean += c.answer(&q, 0.95).unwrap().groups[0].values[0].value();
        }
        mean /= trials as f64;
        assert!((mean - 1000.0).abs() < 80.0, "mean {mean}");
    }

    /// Unbiasedness in the degenerate many-singleton-strata regime (the
    /// regime the paper's SALES experiment lands in): every row its own
    /// stratum, budget far below the stratum count.
    #[test]
    fn singleton_strata_remain_unbiased() {
        let schema = SchemaBuilder::new()
            .field("id", DataType::Int64)
            .build()
            .unwrap();
        let mut v = Table::empty("v", schema);
        for i in 0..500i64 {
            v.push_row(&[i.into()]).unwrap();
        }
        let cols = vec!["id".to_owned()];
        let q = Query::builder().count().build().unwrap();
        let mut mean = 0.0;
        let trials = 40;
        for seed in 0..trials {
            let bc = BasicCongress::build(&v, &cols, 50, seed).unwrap();
            mean += bc.answer(&q, 0.95).unwrap().groups[0].values[0].value();
        }
        mean /= trials as f64;
        assert!(
            (mean - 500.0).abs() < 40.0,
            "mean estimate {mean} should be ~500"
        );
    }

    #[test]
    fn empty_columns_rejected() {
        let v = view();
        assert!(BasicCongress::build(&v, &[], 10, 1).is_err());
        assert!(BasicCongress::build(&v, &["zzz".to_owned()], 10, 1).is_err());
    }

    #[test]
    fn full_budget_is_exact() {
        let v = view();
        let cols = vec!["g1".to_owned()];
        let bc = BasicCongress::build(&v, &cols, 1000, 1).unwrap();
        assert_eq!(bc.sample_rows(), 1000);
        let q = Query::builder().count().group_by("g2").build().unwrap();
        let ans = bc.answer(&q, 0.95).unwrap();
        let y = ans.group(&[Value::Utf8("y".into())]).unwrap();
        assert!(y.values[0].is_exact());
        assert_eq!(y.values[0].value(), 10.0);
    }
}
