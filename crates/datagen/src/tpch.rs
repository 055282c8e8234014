//! Skewed TPC-H-style star schema generator.
//!
//! Reproduces the *shape* of the paper's TPCHxGyz databases (Section 5.2.1):
//! a LINEITEM fact table star-joined to PART, SUPPLIER, CUSTOMER and ORDERS
//! dimensions, with every non-key attribute — and the foreign keys
//! themselves — drawn from truncated Zipf(z) distributions, standing in for
//! the skewed `dbgen` variant of \[13\].
//!
//! Deviations from real TPC-H, both documented in DESIGN.md:
//! * micro-scale row counts (scale factor 1 ⇒ 60 000 fact rows instead of
//!   6 M) so the whole experiment suite runs in minutes — the paper's
//!   accuracy metrics are scale-free;
//! * `custkey` is carried directly on the fact table (a star) instead of
//!   reaching customers through orders (a snowflake), matching the paper's
//!   star-schema setting.
//!
//! The ORDERS dimension deliberately carries a `clerk` column with more
//! distinct values than the preprocessing threshold τ, so the τ cut-off
//! path is exercised on this database too.

use crate::values::{pareto, CategoricalPool, IntPool};
use aqp_query::{Dimension, QueryResult, StarSchema};
use aqp_storage::{DataType, SchemaBuilder, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the skewed TPC-H generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Micro scale factor: 1.0 ⇒ 60 000 fact rows.
    pub scale_factor: f64,
    /// Zipf skew parameter `z` applied to every skewed attribute
    /// (the paper sweeps z ∈ {1.0, 1.5, 2.0, 2.5}).
    pub zipf_z: f64,
    /// RNG seed; generation is fully deterministic.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 1.0,
            zipf_z: 2.0,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// Conventional name, mirroring the paper: `TPCH{sf}G{z}z`.
    pub fn name(&self) -> String {
        format!("TPCH{}G{}z", self.scale_factor, self.zipf_z)
    }

    fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale_factor).round() as usize).max(1)
    }
}

/// Generate the skewed TPC-H star schema.
pub fn gen_tpch(cfg: &TpchConfig) -> QueryResult<StarSchema> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let z = cfg.zipf_z;

    let n_part = cfg.rows(2_000);
    let n_supp = cfg.rows(200);
    let n_cust = cfg.rows(3_000);
    let n_ord = cfg.rows(15_000);
    let n_line = cfg.rows(60_000);

    // ---- PART ----
    let part_schema = SchemaBuilder::new()
        .field("part.partkey", DataType::Int64)
        .field("part.brand", DataType::Utf8)
        .field("part.type", DataType::Utf8)
        .field("part.container", DataType::Utf8)
        .field("part.mfgr", DataType::Utf8)
        .field("part.size", DataType::Int64)
        .field("part.retailprice", DataType::Float64)
        .build()?;
    let brand = CategoricalPool::new("BRAND", 25, z);
    let ptype = CategoricalPool::new("TYPE", 50, z);
    let container = CategoricalPool::new("CONT", 40, z);
    let mfgr = CategoricalPool::new("MFGR", 5, z);
    let psize = IntPool::new(50, z);
    let mut part = Table::empty("part", part_schema);
    for pk in 1..=n_part as i64 {
        part.push_row(&[
            pk.into(),
            brand.sample(&mut rng).into(),
            ptype.sample(&mut rng).into(),
            container.sample(&mut rng).into(),
            mfgr.sample(&mut rng).into(),
            psize.sample(&mut rng).into(),
            pareto(&mut rng, 900.0, 2.0, 20.0).into(),
        ])?;
    }

    // ---- SUPPLIER ----
    let supp_schema = SchemaBuilder::new()
        .field("supplier.suppkey", DataType::Int64)
        .field("supplier.nation", DataType::Utf8)
        .field("supplier.region", DataType::Utf8)
        .field("supplier.acctbal", DataType::Float64)
        .build()?;
    let s_nation = CategoricalPool::new("NATION", 25, z);
    let s_region = CategoricalPool::new("REGION", 5, z);
    let mut supplier = Table::empty("supplier", supp_schema);
    for pk in 1..=n_supp as i64 {
        supplier.push_row(&[
            pk.into(),
            s_nation.sample(&mut rng).into(),
            s_region.sample(&mut rng).into(),
            pareto(&mut rng, 100.0, 1.2, 100.0).into(),
        ])?;
    }

    // ---- CUSTOMER ----
    let cust_schema = SchemaBuilder::new()
        .field("customer.custkey", DataType::Int64)
        .field("customer.nation", DataType::Utf8)
        .field("customer.segment", DataType::Utf8)
        .field("customer.acctbal", DataType::Float64)
        .build()?;
    let c_nation = CategoricalPool::new("NATION", 25, z);
    let c_segment = CategoricalPool::new("SEGMENT", 5, z);
    let mut customer = Table::empty("customer", cust_schema);
    for pk in 1..=n_cust as i64 {
        customer.push_row(&[
            pk.into(),
            c_nation.sample(&mut rng).into(),
            c_segment.sample(&mut rng).into(),
            pareto(&mut rng, 100.0, 1.2, 100.0).into(),
        ])?;
    }

    // ---- ORDERS ----
    let ord_schema = SchemaBuilder::new()
        .field("orders.orderkey", DataType::Int64)
        .field("orders.priority", DataType::Utf8)
        .field("orders.status", DataType::Utf8)
        .field("orders.year", DataType::Int64)
        .field("orders.month", DataType::Int64)
        // One distinct clerk per order: guaranteed to blow past τ so the
        // distinct-value cut-off path gets exercised.
        .field("orders.clerk", DataType::Utf8)
        .build()?;
    let priority = CategoricalPool::new("PRIO", 5, z);
    let status = CategoricalPool::new("STATUS", 3, z);
    let year = IntPool::new(7, z);
    let month = IntPool::new(12, z);
    let mut orders = Table::empty("orders", ord_schema);
    for pk in 1..=n_ord as i64 {
        orders.push_row(&[
            pk.into(),
            priority.sample(&mut rng).into(),
            status.sample(&mut rng).into(),
            (1995 + year.sample(&mut rng)).into(),
            month.sample(&mut rng).into(),
            format!("CLERK#{pk:07}").into(),
        ])?;
    }

    // ---- LINEITEM (fact) ----
    let line_schema = SchemaBuilder::new()
        .field("lineitem.orderkey", DataType::Int64)
        .field("lineitem.partkey", DataType::Int64)
        .field("lineitem.suppkey", DataType::Int64)
        .field("lineitem.custkey", DataType::Int64)
        .field("lineitem.quantity", DataType::Int64)
        .field("lineitem.extendedprice", DataType::Float64)
        .field("lineitem.discount", DataType::Float64)
        .field("lineitem.tax", DataType::Float64)
        .field("lineitem.returnflag", DataType::Utf8)
        .field("lineitem.linestatus", DataType::Utf8)
        .field("lineitem.shipmode", DataType::Utf8)
        .field("lineitem.shipyear", DataType::Int64)
        .field("lineitem.shipmonth", DataType::Int64)
        .build()?;
    // Skewed foreign keys: hot parts/suppliers/customers/orders.
    let fk_ord = IntPool::new(n_ord, z);
    let fk_part = IntPool::new(n_part, z);
    let fk_supp = IntPool::new(n_supp, z);
    let fk_cust = IntPool::new(n_cust, z);
    let quantity = IntPool::new(50, z);
    let discount_rank = IntPool::new(11, z);
    let tax_rank = IntPool::new(9, z);
    let returnflag = CategoricalPool::new("RF", 3, z);
    let linestatus = CategoricalPool::new("LS", 2, z);
    let shipmode = CategoricalPool::new("SHIP", 7, z);
    let shipyear = IntPool::new(7, z);
    let shipmonth = IntPool::new(12, z);

    let mut lineitem = Table::empty("lineitem", line_schema);
    for _ in 0..n_line {
        let qty = quantity.sample(&mut rng);
        let price = qty as f64 * pareto(&mut rng, 90.0, 1.5, 100.0);
        lineitem.push_row(&[
            fk_ord.sample(&mut rng).into(),
            fk_part.sample(&mut rng).into(),
            fk_supp.sample(&mut rng).into(),
            fk_cust.sample(&mut rng).into(),
            qty.into(),
            price.into(),
            (discount_rank.sample_rank(&mut rng) as f64 / 100.0).into(),
            (tax_rank.sample_rank(&mut rng) as f64 / 100.0).into(),
            returnflag.sample(&mut rng).into(),
            linestatus.sample(&mut rng).into(),
            shipmode.sample(&mut rng).into(),
            (1995 + shipyear.sample(&mut rng)).into(),
            shipmonth.sample(&mut rng).into(),
        ])?;
    }

    StarSchema::new(
        lineitem,
        vec![
            Dimension::new(orders, "orders.orderkey", "lineitem.orderkey"),
            Dimension::new(part, "part.partkey", "lineitem.partkey"),
            Dimension::new(supplier, "supplier.suppkey", "lineitem.suppkey"),
            Dimension::new(customer, "customer.custkey", "lineitem.custkey"),
        ],
    )
}

/// Measure columns suitable for SUM aggregation in generated queries.
pub const TPCH_MEASURE_COLUMNS: &[&str] = &[
    "lineitem.quantity",
    "lineitem.extendedprice",
    "lineitem.discount",
    "part.retailprice",
];

/// Columns that should be excluded from grouping (keys and near-unique
/// columns, per the paper's workload rules).
pub const TPCH_EXCLUDED_GROUPING: &[&str] = &[
    "lineitem.orderkey",
    "lineitem.partkey",
    "lineitem.suppkey",
    "lineitem.custkey",
    "lineitem.extendedprice",
    "lineitem.discount",
    "lineitem.tax",
    "orders.clerk",
    "part.retailprice",
    "supplier.acctbal",
    "customer.acctbal",
];

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_query::{execute, DataSource, ExecOptions, Query};

    fn tiny() -> StarSchema {
        gen_tpch(&TpchConfig {
            scale_factor: 0.05,
            zipf_z: 1.5,
            seed: 7,
        })
        .unwrap()
    }

    #[test]
    fn shapes_scale_with_factor() {
        let s = tiny();
        assert_eq!(s.fact().num_rows(), 3_000);
        assert_eq!(s.num_dimensions(), 4);
        assert_eq!(s.dimension(0).num_rows(), 750); // orders
        assert_eq!(s.dimension(1).num_rows(), 100); // part
        assert_eq!(s.dimension(2).num_rows(), 10); // supplier
        assert_eq!(s.dimension(3).num_rows(), 150); // customer
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny();
        let b = tiny();
        let pk_a = a.fact().column_by_name("lineitem.partkey").unwrap();
        let pk_b = b.fact().column_by_name("lineitem.partkey").unwrap();
        assert_eq!(pk_a.as_int64().unwrap(), pk_b.as_int64().unwrap());
        // Different seed differs.
        let c = gen_tpch(&TpchConfig {
            scale_factor: 0.05,
            zipf_z: 1.5,
            seed: 8,
        })
        .unwrap();
        let pk_c = c.fact().column_by_name("lineitem.partkey").unwrap();
        assert_ne!(pk_a.as_int64().unwrap(), pk_c.as_int64().unwrap());
    }

    #[test]
    fn queries_run_against_star_and_wide() {
        let s = tiny();
        let q = Query::builder()
            .count()
            .sum("lineitem.extendedprice")
            .group_by("part.brand")
            .build()
            .unwrap();
        let out = execute(&DataSource::Star(&s), &q, &ExecOptions::default()).unwrap();
        assert!(out.num_groups() > 0);
        let total: u64 = out.groups.iter().map(|g| g.aggs[0].rows).sum();
        assert_eq!(total, 3_000);

        let wide = s.denormalize("wide").unwrap();
        let out2 = execute(&DataSource::Wide(&wide), &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.num_groups(), out2.num_groups());
    }

    #[test]
    fn skew_is_visible() {
        // At z = 2 the top brand should dominate; at z = 0 it should not.
        let skewed = gen_tpch(&TpchConfig {
            scale_factor: 0.05,
            zipf_z: 2.0,
            seed: 7,
        })
        .unwrap();
        let flat = gen_tpch(&TpchConfig {
            scale_factor: 0.05,
            zipf_z: 0.0,
            seed: 7,
        })
        .unwrap();
        let top_share = |s: &StarSchema| {
            let q = Query::builder().count().group_by("lineitem.shipmode").build().unwrap();
            let out = execute(&DataSource::Star(s), &q, &ExecOptions::default()).unwrap();
            let max = out.groups.iter().map(|g| g.aggs[0].rows).max().unwrap();
            max as f64 / s.fact().num_rows() as f64
        };
        assert!(top_share(&skewed) > 0.6, "skewed share {}", top_share(&skewed));
        assert!(top_share(&flat) < 0.3, "flat share {}", top_share(&flat));
    }

    #[test]
    fn name_convention() {
        let cfg = TpchConfig {
            scale_factor: 1.0,
            zipf_z: 2.0,
            seed: 0,
        };
        assert_eq!(cfg.name(), "TPCH1G2z");
    }

    #[test]
    fn measure_columns_exist_and_are_numeric() {
        let s = tiny();
        let wide = s.denormalize("w").unwrap();
        for m in TPCH_MEASURE_COLUMNS {
            let f = wide.schema().field(m).unwrap();
            assert!(f.data_type.is_numeric(), "{m}");
        }
        for c in TPCH_EXCLUDED_GROUPING {
            assert!(wide.schema().contains(c), "{c}");
        }
    }
}
