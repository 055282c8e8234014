//! Fault-matrix integration tests: inject storage faults and verify the
//! degradation ladder keeps answering every workload query, tagged with
//! the serving tier, with zero panics.
//!
//! Each fault class is injected by its own test through `fault::install`
//! (missing, bit flip, truncation, transient read error, torn write),
//! scoped to that test's directory; one more test holds the healthy
//! round trip to the primary tier.

use aqp::prelude::*;
use aqp::storage::fault::{self, Fault, FaultPlan};
use std::path::PathBuf;

fn sales_view(rows: usize) -> Table {
    let star = gen_sales(&SalesConfig {
        fact_rows: rows,
        ..Default::default()
    })
    .expect("sales generation");
    star.denormalize("sales_view").expect("denormalize")
}

/// A temp dir whose name carries `token` so fault plans can scope to it.
fn scoped_dir(token: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aqp_resil_{token}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn build_and_save(view: &Table, path: &PathBuf) -> SmallGroupSampler {
    let sampler = SmallGroupSampler::build(view, SmallGroupConfig::with_rates(0.05, 0.5))
        .expect("preprocessing");
    sampler.save(path).expect("save family");
    sampler
}

fn workload(view: &Table) -> Vec<Query> {
    let profile = DatasetProfile::new(
        view,
        aqp::datagen::sales::SALES_MEASURE_COLUMNS,
        aqp::datagen::sales::SALES_EXCLUDED_GROUPING,
        5000,
    );
    generate_queries(
        &profile,
        &QueryGenConfig {
            grouping_columns: 1,
            num_predicates: 1,
            seed: 11,
            ..Default::default()
        },
        6,
    )
}

/// Answer every query, tally tiers, and require zero failures: the core
/// acceptance loop shared by all fault classes.
fn answer_all(system: &ResilientSystem, queries: &[Query]) -> TierCounts {
    let mut counts = TierCounts::default();
    for q in queries {
        // Zero groups is a legitimate approximate answer (a selective
        // predicate can miss the whole sample); an Err or panic is not.
        let ans = system
            .answer(q, 0.95)
            .unwrap_or_else(|e| panic!("query {q} must be served by some tier: {e}"));
        counts.record(&ans);
    }
    assert_eq!(counts.total(), queries.len());
    counts
}

/// Byte offset of the `nth` embedded AQPT table block in a saved family
/// file (0-based), located by scanning for the table magic.
fn nth_table_offset(bytes: &[u8], nth: usize) -> usize {
    let mut seen = 0;
    for i in 10..bytes.len().saturating_sub(4) {
        if &bytes[i..i + 4] == b"AQPT" {
            if seen == nth {
                return i;
            }
            seen += 1;
        }
    }
    panic!("family file has fewer than {} embedded tables", nth + 1);
}

#[test]
fn missing_family_serves_from_exact_tier() {
    let view = sales_view(4000);
    let dir = scoped_dir("missing");
    let path = dir.join("family.aqps");
    build_and_save(&view, &path);
    let queries = workload(&view);

    let counts = {
        let _g = fault::install(FaultPlan::new(Fault::Missing).for_paths("aqp_resil_missing"));
        let (system, report) = ResilientSystem::open(&path);
        assert!(!report.primary_intact);
        assert!(report.primary_error.is_some());
        assert!(system.primary().is_none());
        answer_all(&system.with_view(view.clone()), &queries)
    };
    assert_eq!(counts.exact, queries.len(), "{counts}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bitflipped_table_block_salvages_to_degraded_primary() {
    let view = sales_view(4000);
    let dir = scoped_dir("bitflip");
    let path = dir.join("family.aqps");
    build_and_save(&view, &path);
    let queries = workload(&view);

    // Aim the flip inside the first embedded small-group table so exactly
    // one unit is lost and the rest of the family salvages.
    let bytes = std::fs::read(&path).expect("read family");
    let offset = nth_table_offset(&bytes, 0) + 20;

    let dir2 = dir.clone();
    let (counts, disabled) = {
        let _g =
            fault::install(FaultPlan::new(Fault::BitFlip(offset)).for_paths("aqp_resil_bitflip"));
        let (system, report) = ResilientSystem::open(&path);
        assert!(!report.primary_intact);
        assert!(
            !report.disabled_units.is_empty(),
            "flip at {offset} must disable a unit: {:?}",
            report.primary_error
        );
        let system = system.with_view(view.clone());

        // A query grouping on the lost column is served degraded: the
        // overall sample covers its rows instead of the dead table.
        let lost = report.disabled_units[0].clone();
        let q = Query::builder().count().group_by(&lost).build().expect("query");
        let ans = system.answer(&q, 0.95).expect("degraded answer");
        assert_eq!(ans.tier, ServingTier::DegradedPrimary, "grouping on {lost}");

        (answer_all(&system, &queries), report.disabled_units)
    };
    assert_eq!(counts.total(), queries.len());
    assert!(
        counts.primary + counts.degraded == queries.len(),
        "salvaged family still serves the sampler tiers: {counts} (lost {disabled:?})"
    );
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn truncated_file_degrades_to_exact_tier() {
    let view = sales_view(4000);
    let dir = scoped_dir("trunc");
    let path = dir.join("family.aqps");
    build_and_save(&view, &path);
    let queries = workload(&view);

    let counts = {
        let _g = fault::install(FaultPlan::new(Fault::TruncateAt(64)).for_paths("aqp_resil_trunc"));
        let (system, report) = ResilientSystem::open(&path);
        assert!(!report.primary_intact);
        assert!(system.primary().is_none(), "64 bytes cannot salvage");
        answer_all(&system.with_view(view.clone()), &queries)
    };
    assert_eq!(counts.exact, queries.len(), "{counts}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_read_error_recovers_at_full_strength() {
    let view = sales_view(4000);
    let dir = scoped_dir("readerr");
    let path = dir.join("family.aqps");
    build_and_save(&view, &path);
    let queries = workload(&view);

    let counts = {
        let _g = fault::install(
            FaultPlan::new(Fault::ReadErr { nth: 0 }).for_paths("aqp_resil_readerr"),
        );
        // The first read fails; the salvage retry succeeds and finds every
        // checksum intact, so the family serves at full strength.
        let (system, report) = ResilientSystem::open(&path);
        assert!(!report.primary_intact, "first read did fail");
        assert!(report.disabled_units.is_empty());
        assert!(system.primary().is_some(), "salvage retry recovered the family");
        answer_all(&system.with_view(view.clone()), &queries)
    };
    assert_eq!(counts.primary, queries.len(), "{counts}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_write_preserves_previous_generation() {
    let view = sales_view(4000);
    let dir = scoped_dir("tornwrite");
    let path = dir.join("family.aqps");
    let sampler = build_and_save(&view, &path);
    let before = std::fs::read(&path).expect("generation 1");

    {
        let _g = fault::install(
            FaultPlan::new(Fault::WriteErr { nth: 0 }).for_paths("aqp_resil_tornwrite"),
        );
        let err = sampler.save(&path).expect_err("injected torn write");
        assert!(matches!(err, AqpError::Io(_)), "{err}");
    }
    // Atomic temp-then-rename: the destination still holds generation 1.
    assert_eq!(std::fs::read(&path).expect("still readable"), before);
    let (system, report) = ResilientSystem::open(&path);
    assert!(report.primary_intact);
    let q = Query::builder().count().group_by("store.region").build().expect("query");
    assert_eq!(system.answer(&q, 0.95).expect("answer").tier, ServingTier::Primary);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn row_budget_walks_down_the_ladder() {
    let view = sales_view(4000);
    let dir = scoped_dir("budget");
    let path = dir.join("family.aqps");
    let sampler = build_and_save(&view, &path);
    let queries = workload(&view);
    let overall_rows = sampler.catalog().overall_rows;

    // Budget = overall sample size: group-by queries step down from the
    // primary plan (overall + sg tables) to the overall-only rung.
    let (system, report) = ResilientSystem::open(&path);
    assert!(report.primary_intact);
    let system = system.with_view(view.clone()).with_row_budget(overall_rows);
    let counts = answer_all(&system, &queries);
    assert!(counts.overall > 0, "{counts}");

    // Budget below even the overall sample, with a view attached: the
    // budget-capped exact scan serves and flags the answers partial.
    let system = ResilientSystem::exact_only(view.clone()).with_row_budget(overall_rows / 2);
    let counts = answer_all(&system, &queries);
    assert_eq!(counts.exact, queries.len(), "{counts}");
    assert_eq!(counts.partial, queries.len(), "{counts}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn min_max_only_served_by_exact_tier() {
    let view = sales_view(4000);
    let sampler = SmallGroupSampler::build(&view, SmallGroupConfig::with_rates(0.05, 0.5))
        .expect("preprocessing");
    let q = Query::builder()
        .aggregate(AggExpr::min("sales.revenue", "mn"))
        .aggregate(AggExpr::max("sales.revenue", "mx"))
        .build()
        .expect("query");

    let system = ResilientSystem::from_sampler(sampler.clone()).with_view(view.clone());
    let ans = system.answer(&q, 0.95).expect("min/max answer");
    assert_eq!(ans.tier, ServingTier::Exact);
    assert!(ans.groups[0].values[0].is_exact());

    let system = ResilientSystem::from_sampler(sampler);
    assert!(
        matches!(system.answer(&q, 0.95), Err(AqpError::Unsupported(_))),
        "no view: MIN/MAX has no serving tier"
    );
}

/// With no fault, a family saved and reopened serves every workload
/// query from the primary tier.
#[test]
fn healthy_save_and_open_serves_every_query_primary() {
    let view = sales_view(4000);
    let dir = scoped_dir("healthy");
    let path = dir.join("family.aqps");
    build_and_save(&view, &path);
    let queries = workload(&view);

    let (system, report) = ResilientSystem::open(&path);
    assert!(report.primary_intact, "healthy run: {report:?}");
    let counts = answer_all(&system.with_view(view.clone()), &queries);
    assert_eq!(counts.primary, queries.len(), "{counts}");
    std::fs::remove_dir_all(&dir).ok();
}
