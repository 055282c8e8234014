//! SALES-like star schema generator.
//!
//! The paper's real-world SALES database (Section 5.2.1) was "a portion of
//! a large corporate sales database ... a star schema with a fact table
//! containing about 800,000 rows and 6 dimension tables ... 245 columns"
//! and, the paper observes, "relatively less skewed than the TPCH1G2.0z
//! database". We cannot ship the proprietary data, so this generator
//! reproduces the structural properties the experiments depend on:
//!
//! * a star with six dimension tables and a wide fact table — many
//!   candidate grouping columns with varied cardinalities, including a
//!   good number of long-tailed ones (vendors, cities, campaigns …) whose
//!   rare values create the small groups the paper's SALES workload is
//!   full of;
//! * moderate skew (default z = 1.5, below the TPC-H z = 2.0 runs but
//!   enough that rare attribute values exist — the regime where the paper
//!   reports small group sampling "consistently better" on SALES);
//! * near-unique columns (customer phone, order ids) so the τ
//!   distinct-value cut-off and the "no small groups" column-drop paths
//!   both trigger;
//! * heavy-tailed revenue/cost measures for the SUM-query and
//!   outlier-indexing experiments (Section 5.3.3).

use crate::values::{pareto, CategoricalPool, IntPool};
use aqp_query::{Dimension, QueryResult, StarSchema};
use aqp_storage::{DataType, SchemaBuilder, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for the SALES-like generator.
#[derive(Debug, Clone, Copy)]
pub struct SalesConfig {
    /// Fact-table rows.
    pub fact_rows: usize,
    /// Zipf skew for categorical attributes (moderate by default).
    pub zipf_z: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            fact_rows: 100_000,
            zipf_z: 1.5,
            seed: 7,
        }
    }
}

/// Generate the SALES-like star schema.
pub fn gen_sales(cfg: &SalesConfig) -> QueryResult<StarSchema> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let z = cfg.zipf_z;
    let n = cfg.fact_rows;

    let n_product = (n / 100).clamp(50, 2_000);
    let n_store = (n / 400).clamp(20, 500);
    let n_customer = (n / 20).clamp(100, 20_000);
    let n_time = 1_096; // three years of days
    let n_promo = 100;
    let n_channel = 5;

    // ---- PRODUCT ----
    let schema = SchemaBuilder::new()
        .field("product.productkey", DataType::Int64)
        .field("product.category", DataType::Utf8)
        .field("product.subcategory", DataType::Utf8)
        .field("product.brand", DataType::Utf8)
        .field("product.vendor", DataType::Utf8)
        .field("product.line", DataType::Utf8)
        .field("product.color", DataType::Utf8)
        .field("product.size", DataType::Utf8)
        .field("product.unitprice", DataType::Float64)
        .build()?;
    let category = CategoricalPool::new("CAT", 20, z);
    let subcategory = CategoricalPool::new("SUBCAT", 100, z);
    let brand = CategoricalPool::new("BRAND", 120, z);
    let vendor = CategoricalPool::new("VENDOR", 150, z);
    let line = CategoricalPool::new("LINE", 40, z);
    let color = CategoricalPool::new("COLOR", 12, z);
    let size = CategoricalPool::new("SIZE", 8, z);
    let mut product = Table::empty("product", schema);
    for pk in 1..=n_product as i64 {
        product.push_row(&[
            pk.into(),
            category.sample(&mut rng).into(),
            subcategory.sample(&mut rng).into(),
            brand.sample(&mut rng).into(),
            vendor.sample(&mut rng).into(),
            line.sample(&mut rng).into(),
            color.sample(&mut rng).into(),
            size.sample(&mut rng).into(),
            pareto(&mut rng, 10.0, 1.8, 200.0).into(),
        ])?;
    }

    // ---- STORE ----
    let schema = SchemaBuilder::new()
        .field("store.storekey", DataType::Int64)
        .field("store.region", DataType::Utf8)
        .field("store.country", DataType::Utf8)
        .field("store.city", DataType::Utf8)
        .field("store.district", DataType::Utf8)
        .field("store.storetype", DataType::Utf8)
        .build()?;
    let region = CategoricalPool::new("REGION", 8, z);
    let country = CategoricalPool::new("COUNTRY", 30, z);
    let city = CategoricalPool::new("CITY", 200, z);
    let district = CategoricalPool::new("DISTRICT", 80, z);
    let storetype = CategoricalPool::new("STYPE", 4, z);
    let mut store = Table::empty("store", schema);
    for pk in 1..=n_store as i64 {
        store.push_row(&[
            pk.into(),
            region.sample(&mut rng).into(),
            country.sample(&mut rng).into(),
            city.sample(&mut rng).into(),
            district.sample(&mut rng).into(),
            storetype.sample(&mut rng).into(),
        ])?;
    }

    // ---- CUSTOMER (includes a near-unique phone column) ----
    let schema = SchemaBuilder::new()
        .field("customer.customerkey", DataType::Int64)
        .field("customer.segment", DataType::Utf8)
        .field("customer.ageband", DataType::Utf8)
        .field("customer.gender", DataType::Utf8)
        .field("customer.loyalty", DataType::Utf8)
        .field("customer.occupation", DataType::Utf8)
        .field("customer.city", DataType::Utf8)
        .field("customer.phone", DataType::Utf8)
        .build()?;
    let segment = CategoricalPool::new("SEGMENT", 6, z);
    let ageband = CategoricalPool::new("AGE", 7, z);
    let gender = CategoricalPool::new("GENDER", 3, z);
    let loyalty = CategoricalPool::new("LOYALTY", 4, z);
    let occupation = CategoricalPool::new("OCC", 40, z);
    let ccity = CategoricalPool::new("CCITY", 150, z);
    let mut customer = Table::empty("customer", schema);
    for pk in 1..=n_customer as i64 {
        customer.push_row(&[
            pk.into(),
            segment.sample(&mut rng).into(),
            ageband.sample(&mut rng).into(),
            gender.sample(&mut rng).into(),
            loyalty.sample(&mut rng).into(),
            occupation.sample(&mut rng).into(),
            ccity.sample(&mut rng).into(),
            format!("+1-555-{pk:08}").into(),
        ])?;
    }

    // ---- TIME ----
    let schema = SchemaBuilder::new()
        .field("time.timekey", DataType::Int64)
        .field("time.year", DataType::Int64)
        .field("time.quarter", DataType::Int64)
        .field("time.month", DataType::Int64)
        .field("time.weekday", DataType::Utf8)
        .build()?;
    let weekdays = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
    let mut time = Table::empty("time", schema);
    for pk in 1..=n_time as i64 {
        let day0 = pk - 1;
        time.push_row(&[
            pk.into(),
            (2000 + day0 / 366).into(),
            ((day0 % 366) / 92 + 1).into(),
            (((day0 % 366) / 31 + 1).min(12)).into(),
            weekdays[(day0 % 7) as usize].into(),
        ])?;
    }

    // ---- PROMOTION ----
    let schema = SchemaBuilder::new()
        .field("promotion.promokey", DataType::Int64)
        .field("promotion.promotype", DataType::Utf8)
        .field("promotion.media", DataType::Utf8)
        .field("promotion.campaign", DataType::Utf8)
        .build()?;
    let promotype = CategoricalPool::new("PROMO", 10, z);
    let media = CategoricalPool::new("MEDIA", 6, z);
    let campaign = CategoricalPool::new("CAMPAIGN", 60, z);
    let mut promotion = Table::empty("promotion", schema);
    for pk in 1..=n_promo as i64 {
        promotion.push_row(&[
            pk.into(),
            promotype.sample(&mut rng).into(),
            media.sample(&mut rng).into(),
            campaign.sample(&mut rng).into(),
        ])?;
    }

    // ---- CHANNEL ----
    let schema = SchemaBuilder::new()
        .field("channel.channelkey", DataType::Int64)
        .field("channel.name", DataType::Utf8)
        .field("channel.group", DataType::Utf8)
        .build()?;
    let channel_names = ["Web", "Retail", "Catalog", "Phone", "Partner"];
    let channel_groups = ["Direct", "Direct", "Indirect", "Direct", "Indirect"];
    let mut channel = Table::empty("channel", schema);
    for pk in 1..=n_channel as i64 {
        channel.push_row(&[
            pk.into(),
            channel_names[(pk - 1) as usize].into(),
            channel_groups[(pk - 1) as usize].into(),
        ])?;
    }

    // ---- SALES fact ----
    let schema = SchemaBuilder::new()
        .field("sales.productkey", DataType::Int64)
        .field("sales.storekey", DataType::Int64)
        .field("sales.customerkey", DataType::Int64)
        .field("sales.timekey", DataType::Int64)
        .field("sales.promokey", DataType::Int64)
        .field("sales.channelkey", DataType::Int64)
        .field("sales.units", DataType::Int64)
        .field("sales.revenue", DataType::Float64)
        .field("sales.cost", DataType::Float64)
        .field("sales.paymethod", DataType::Utf8)
        .field("sales.coupon", DataType::Bool)
        // Near-unique degenerate dimension: one order id per few rows.
        .field("sales.orderid", DataType::Utf8)
        .build()?;
    // Foreign keys are only mildly skewed: dimension attributes are already
    // Zipfian, and compounding both would overshoot the "moderately skewed"
    // profile the paper reports for SALES.
    let fk_z = z * 0.5;
    let fk_product = IntPool::new(n_product, fk_z);
    let fk_store = IntPool::new(n_store, fk_z);
    let fk_customer = IntPool::new(n_customer, fk_z);
    let fk_time = IntPool::new(n_time, fk_z);
    let fk_promo = IntPool::new(n_promo, fk_z);
    let fk_channel = IntPool::new(n_channel, fk_z);
    let units = IntPool::new(20, z);
    let paymethod = CategoricalPool::new("PAY", 5, z);
    let mut sales = Table::empty("sales", schema);
    for row in 0..n {
        let u = units.sample(&mut rng);
        let rev = u as f64 * pareto(&mut rng, 8.0, 1.3, 500.0);
        let cost = rev * rng.random_range(0.4..0.9);
        sales.push_row(&[
            fk_product.sample(&mut rng).into(),
            fk_store.sample(&mut rng).into(),
            fk_customer.sample(&mut rng).into(),
            fk_time.sample(&mut rng).into(),
            fk_promo.sample(&mut rng).into(),
            fk_channel.sample(&mut rng).into(),
            u.into(),
            rev.into(),
            cost.into(),
            paymethod.sample(&mut rng).into(),
            (rng.random::<f64>() < 0.15).into(),
            format!("ORD{:09}", row / 3).into(),
        ])?;
    }

    StarSchema::new(
        sales,
        vec![
            Dimension::new(product, "product.productkey", "sales.productkey"),
            Dimension::new(store, "store.storekey", "sales.storekey"),
            Dimension::new(customer, "customer.customerkey", "sales.customerkey"),
            Dimension::new(time, "time.timekey", "sales.timekey"),
            Dimension::new(promotion, "promotion.promokey", "sales.promokey"),
            Dimension::new(channel, "channel.channelkey", "sales.channelkey"),
        ],
    )
}

/// Measure columns suitable for SUM aggregation in generated queries.
pub const SALES_MEASURE_COLUMNS: &[&str] =
    &["sales.units", "sales.revenue", "sales.cost"];

/// Columns excluded from grouping (keys, measures and near-unique columns).
pub const SALES_EXCLUDED_GROUPING: &[&str] = &[
    "sales.productkey",
    "sales.storekey",
    "sales.customerkey",
    "sales.timekey",
    "sales.promokey",
    "sales.channelkey",
    "sales.revenue",
    "sales.cost",
    "sales.orderid",
    "product.unitprice",
    "customer.phone",
];

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_query::{execute, DataSource, ExecOptions, Query};

    fn tiny() -> StarSchema {
        gen_sales(&SalesConfig {
            fact_rows: 5_000,
            zipf_z: 1.2,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn structure() {
        let s = tiny();
        assert_eq!(s.fact().num_rows(), 5_000);
        assert_eq!(s.num_dimensions(), 6);
        let wide = s.denormalize("w").unwrap();
        assert!(wide.schema().len() >= 35, "wide view has many columns");
    }

    #[test]
    fn determinism() {
        let a = tiny();
        let b = tiny();
        let ra = a.fact().column_by_name("sales.revenue").unwrap();
        let rb = b.fact().column_by_name("sales.revenue").unwrap();
        assert_eq!(ra.as_float64().unwrap(), rb.as_float64().unwrap());
    }

    #[test]
    fn near_unique_columns_present() {
        let s = tiny();
        // customer.phone: one distinct value per customer row.
        let cust = s.dimension(2);
        let phone = cust.column_by_name("customer.phone").unwrap();
        let (codes, dict) = phone.as_utf8().unwrap();
        assert_eq!(dict.len(), codes.len(), "phone is unique per row");
    }

    #[test]
    fn group_by_queries_work() {
        let s = tiny();
        let q = Query::builder()
            .count()
            .sum("sales.revenue")
            .group_by("store.region")
            .group_by("channel.name")
            .build()
            .unwrap();
        let out = execute(&DataSource::Star(&s), &q, &ExecOptions::default()).unwrap();
        let total: u64 = out.groups.iter().map(|g| g.aggs[0].rows).sum();
        assert_eq!(total, 5_000);
        assert!(out.num_groups() <= 8 * 5);
    }

    #[test]
    fn moderate_skew() {
        let s = tiny();
        let q = Query::builder().count().group_by("store.region").build().unwrap();
        let out = execute(&DataSource::Star(&s), &q, &ExecOptions::default()).unwrap();
        let max = out.groups.iter().map(|g| g.aggs[0].rows).max().unwrap();
        let share = max as f64 / 5_000.0;
        assert!(share > 0.2 && share < 0.85, "moderate skew, got {share}");
    }

    #[test]
    fn metadata_lists_are_valid() {
        let s = tiny();
        let wide = s.denormalize("w").unwrap();
        for m in SALES_MEASURE_COLUMNS {
            assert!(wide.schema().field(m).unwrap().data_type.is_numeric());
        }
        for c in SALES_EXCLUDED_GROUPING {
            assert!(wide.schema().contains(c), "{c}");
        }
    }
}
