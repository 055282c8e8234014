//! Uniform random sampling AQP — the classic baseline.
//!
//! One fixed-size uniform sample of the (joined) view; every query runs
//! against it with aggregates scaled by the inverse sampling rate. This is
//! the "Uniform" series of every comparison figure in the paper. Under the
//! fairness rule of Section 5.2.3, a uniform baseline compared against
//! small group sampling at base rate `r` with allocation ratio γ on an
//! `i`-grouping-column query is built at rate `r·(1 + γ·i)` so both systems
//! touch the same number of sample rows; [`UniformAqp::matched_rate`]
//! computes that.

use crate::answer::ApproxAnswer;
use crate::error::{AqpError, AqpResult};
use crate::parts::{answer_from_parts, Part, PartWeight};
use crate::system::AqpSystem;
use aqp_query::Query;
use aqp_sampling::sample_without_replacement;
use aqp_storage::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A uniform-sampling AQP system.
#[derive(Debug, Clone)]
pub struct UniformAqp {
    pub(crate) sample: Table,
    weight: f64,
    rate: f64,
    view_rows: usize,
}

impl UniformAqp {
    /// Draw a uniform sample of `rate · N` rows from the view.
    pub fn build(view: &Table, rate: f64, seed: u64) -> AqpResult<Self> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "sampling rate must be in (0,1], got {rate}"
            )));
        }
        let n = view.num_rows();
        let k = ((n as f64 * rate).round() as usize).clamp(1.min(n), n);
        let mut rng = StdRng::seed_from_u64(seed);
        let indices = sample_without_replacement(n, k, &mut rng);
        let sample = view.gather("uniform_sample", &indices);
        let realized = if n == 0 { 1.0 } else { k as f64 / n as f64 };
        Ok(UniformAqp {
            sample,
            weight: 1.0 / realized,
            rate: realized,
            view_rows: n,
        })
    }

    /// The realised sampling rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Rows in the sample.
    pub fn sample_rows(&self) -> usize {
        self.sample.num_rows()
    }

    /// Rows in the source view.
    pub fn view_rows(&self) -> usize {
        self.view_rows
    }

    /// The space-matched uniform rate for comparing against small group
    /// sampling at base rate `r`, allocation ratio γ, on a query with `i`
    /// applicable grouping columns (paper Section 5.3.1: "a query with i
    /// grouping columns ... is also executed on a uniform random sample of
    /// size (1 + 0.5 i)%").
    pub fn matched_rate(base_rate: f64, allocation_ratio: f64, grouping_columns: usize) -> f64 {
        (base_rate * (1.0 + allocation_ratio * grouping_columns as f64)).min(1.0)
    }
}

impl AqpSystem for UniformAqp {
    fn name(&self) -> &str {
        "Uniform"
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let exact_everything = self.rate >= 1.0;
        let parts = [Part {
            table: &self.sample,
            mask: None,
            weighting: PartWeight::Constant(self.weight),
            stratum: "overall",
        }];
        answer_from_parts(query, &parts, confidence, 1, &|_| exact_everything)
    }

    fn sample_bytes(&self) -> usize {
        self.sample.byte_size()
    }

    fn runtime_rows(&self, _query: &Query) -> usize {
        self.sample.num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, SchemaBuilder, Value};

    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..1000 {
            let g = if i % 10 == 0 { "rare" } else { "common" };
            t.push_row(&[g.into(), (i as f64).into()]).unwrap();
        }
        t
    }

    #[test]
    fn estimates_scale_correctly() {
        let v = view();
        let u = UniformAqp::build(&v, 0.1, 3).unwrap();
        assert_eq!(u.sample_rows(), 100);
        assert!((u.rate() - 0.1).abs() < 1e-9);

        let q = Query::builder().count().build().unwrap();
        let ans = u.answer(&q, 0.95).unwrap();
        assert_eq!(ans.num_groups(), 1);
        // With rate exactly 0.1 and WOR, COUNT(*) is estimated exactly.
        assert!((ans.groups[0].values[0].value() - 1000.0).abs() < 1e-6);
        assert!(!ans.groups[0].values[0].is_exact());
        assert!(ans.groups[0].values[0].ci.contains(1000.0));
    }

    #[test]
    fn grouped_estimate_ballpark() {
        let v = view();
        let u = UniformAqp::build(&v, 0.2, 7).unwrap();
        let q = Query::builder().count().group_by("g").build().unwrap();
        let ans = u.answer(&q, 0.95).unwrap();
        let common = ans.group(&[Value::Utf8("common".into())]).unwrap();
        assert!((common.values[0].value() - 900.0).abs() < 200.0);
    }

    #[test]
    fn full_rate_is_exact() {
        let v = view();
        let u = UniformAqp::build(&v, 1.0, 1).unwrap();
        let q = Query::builder().count().group_by("g").build().unwrap();
        let ans = u.answer(&q, 0.95).unwrap();
        let rare = ans.group(&[Value::Utf8("rare".into())]).unwrap();
        assert_eq!(rare.values[0].value(), 100.0);
        assert!(rare.values[0].is_exact());
    }

    #[test]
    fn invalid_rates_rejected() {
        let v = view();
        assert!(UniformAqp::build(&v, 0.0, 1).is_err());
        assert!(UniformAqp::build(&v, 1.1, 1).is_err());
    }

    #[test]
    fn matched_rate_rule() {
        assert!((UniformAqp::matched_rate(0.01, 0.5, 2) - 0.02).abs() < 1e-12);
        assert!((UniformAqp::matched_rate(0.01, 0.5, 0) - 0.01).abs() < 1e-12);
        assert_eq!(UniformAqp::matched_rate(0.9, 0.5, 4), 1.0, "clamped");
    }

    #[test]
    fn min_max_rejected() {
        let v = view();
        let u = UniformAqp::build(&v, 0.1, 1).unwrap();
        let q = Query::builder()
            .aggregate(aqp_query::AggExpr::max("x", "m"))
            .build()
            .unwrap();
        assert!(matches!(u.answer(&q, 0.95), Err(AqpError::Unsupported(_))));
    }

    #[test]
    fn accounting() {
        let v = view();
        let u = UniformAqp::build(&v, 0.05, 1).unwrap();
        let q = Query::builder().count().build().unwrap();
        assert_eq!(u.runtime_rows(&q), 50);
        assert_eq!(u.view_rows(), 1000);
        assert!(u.sample_bytes() > 0);
        assert_eq!(u.name(), "Uniform");
    }
}
