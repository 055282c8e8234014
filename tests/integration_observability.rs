//! End-to-end request-scoped observability: trace ids round-tripping on
//! the wire, the flight recorder's contiguous stage timelines (live via
//! the `dump` verb and on-anomaly via the dump file), and the shadow
//! accuracy auditor's realized-coverage-vs-promised-CI audit over a
//! mixed workload — including the proof that shadow re-execution never
//! consumes an admission slot.

use aqp::obs::RequestRecord;
use aqp::prelude::*;
use aqp::serving::{
    CacheConfig, Client, ContractClass, Request, Response, RetryPolicy, Server, ServerConfig,
    ServingFault, ShadowConfig,
};
use aqp::workload::CoverageBucket;
use std::time::{Duration, Instant};

fn sales_view(rows: usize) -> Table {
    let star = gen_sales(&SalesConfig { fact_rows: rows, zipf_z: 1.5, seed: 42 }).unwrap();
    star.denormalize("view").unwrap()
}

fn start_server(
    system: ResilientSystem,
    config: ServerConfig,
) -> (
    String,
    aqp::serving::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<aqp::serving::ServerReport>>,
) {
    let server = Server::bind(system, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

const SQL: &str = "SELECT store.region, COUNT(*) AS cnt, SUM(sales.revenue) AS rev \
                   FROM v GROUP BY store.region";

fn query_with_trace(trace_id: Option<&str>) -> Request {
    Request::Query {
        sql: SQL.into(),
        class: ContractClass::Interactive,
        deadline_ms: None,
        row_budget: None,
        confidence: None,
        max_rel_error: None,
        trace_id: trace_id.map(str::to_string),
    }
}

/// The full stage order a served query walks; any record's timeline must
/// be a subsequence of it.
const STAGE_ORDER: [&str; 7] =
    ["read", "parse", "cache", "admission", "execute", "serialize", "write"];

fn assert_timeline_well_formed(record: &RequestRecord) {
    let mut cursor = 0usize;
    for stage in &record.stages {
        let pos = STAGE_ORDER[cursor..]
            .iter()
            .position(|s| *s == stage.name)
            .unwrap_or_else(|| {
                panic!(
                    "stage {:?} out of order in {:?}",
                    stage.name,
                    record.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
                )
            });
        cursor += pos + 1;
    }
    let sum: u64 = record.stages.iter().map(|s| s.micros).sum();
    assert_eq!(
        sum, record.total_micros,
        "stage sum must equal the recorded wall total (gap-free timeline)"
    );
}

#[test]
fn trace_id_round_trips_and_dump_has_contiguous_timelines() {
    let (addr, handle, join) = start_server(
        ResilientSystem::exact_only(sales_view(5_000)).with_threads(2),
        ServerConfig::default(),
    );
    let mut client = Client::new(addr, RetryPolicy::no_retry());

    // Client-supplied trace id comes back verbatim on the answer frame.
    let t0 = Instant::now();
    let wall = match client.request(&query_with_trace(Some("cli-test-1"))).unwrap() {
        Response::Answer(a) => {
            assert_eq!(a.trace_id, "cli-test-1");
            t0.elapsed()
        }
        other => panic!("expected answer, got {other:?}"),
    };

    // Absent a client id the server mints one.
    match client.request(&query_with_trace(None)).unwrap() {
        Response::Answer(a) => {
            assert!(a.trace_id.starts_with("aqp-"), "generated id: {:?}", a.trace_id);
        }
        other => panic!("expected answer, got {other:?}"),
    }

    // The dump verb returns the flight ring; our trace is in it with a
    // monotone, gap-free stage timeline whose sum is the observed wall
    // time of the request (bounded by what the client measured).
    let dump = match client.request(&Request::Dump).unwrap() {
        Response::Dump(text) => text,
        other => panic!("expected dump, got {other:?}"),
    };
    let records: Vec<RequestRecord> = dump
        .lines()
        .map(|line| RequestRecord::from_json(line).unwrap())
        .collect();
    assert!(records.len() >= 2, "both queries recorded, got {}", records.len());
    for record in &records {
        assert_timeline_well_formed(record);
    }
    let ours = records
        .iter()
        .find(|r| r.trace_id == "cli-test-1")
        .expect("client-supplied trace id present in the flight dump");
    assert_eq!(ours.outcome, "answer");
    assert_eq!(ours.class, "interactive");
    assert!(!ours.cache_hit);
    assert!(ours.rows_scanned > 0);
    assert!(ours.total_micros > 0, "a real request takes measurable time");
    assert!(
        ours.total_micros <= wall.as_micros() as u64,
        "server-side wall {}us cannot exceed client-observed {}us",
        ours.total_micros,
        wall.as_micros()
    );
    // All seven stages are present for a cache-miss answered query.
    let names: Vec<&str> = ours.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, STAGE_ORDER, "full stage walk for an executed answer");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn anomaly_dump_file_contains_the_timed_out_trace() {
    let dir = std::env::temp_dir().join(format!("aqp_obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join("flight.jsonl");

    // exec-stall@0 blocks this server's first execution until its
    // deadline token trips: a deterministic timeout, which is an anomaly,
    // which must dump the flight ring to the configured path.
    let (addr, handle, join) = start_server(
        ResilientSystem::exact_only(sales_view(5_000)).with_threads(2),
        ServerConfig {
            flight_dump: Some(dump_path.clone()),
            faults: vec![ServingFault::ExecStall { nth: 0 }],
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    match client
        .request(&Request::Query {
            sql: SQL.into(),
            class: ContractClass::Interactive,
            deadline_ms: Some(150),
            row_budget: None,
            confidence: None,
            max_rel_error: None,
            trace_id: Some("tid-stall-1".into()),
        })
        .unwrap()
    {
        Response::Timeout { trace_id, .. } => {
            assert_eq!(trace_id, "tid-stall-1", "timeout carries the trace id");
        }
        other => panic!("expected timeout, got {other:?}"),
    }

    // The dump is written right after the terminal response; poll
    // briefly for the file to contain the triggering trace.
    let deadline = Instant::now() + Duration::from_secs(5);
    let record = loop {
        let found = std::fs::read_to_string(&dump_path)
            .ok()
            .and_then(|text| {
                text.lines()
                    .map(|l| RequestRecord::from_json(l).unwrap())
                    .find(|r| r.trace_id == "tid-stall-1")
            });
        if let Some(record) = found {
            break record;
        }
        assert!(Instant::now() < deadline, "anomaly dump never appeared at {dump_path:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(record.outcome, "timeout");
    assert_timeline_well_formed(&record);
    // The stall held the request for its deadline: the timeline shows
    // where the time went (execute dominates).
    assert!(record.total_micros >= 100_000, "stalled ~150ms, saw {}us", record.total_micros);

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shadow_audit_holds_promised_coverage_without_admission_slots() {
    // Sampler-backed system: answers come from the sampled tier (so the
    // shadow auditor has CIs to check) with the base view attached for
    // the exact oracle rung. Mild skew and a substantial base rate keep
    // the CLT honest for SUM cells: the audit here checks that realized
    // coverage matches the nominal level where the estimator's own
    // assumptions hold — every cell rides on one sample draw, so a
    // heavy-tailed draw would correlate all the misses at once.
    let star = gen_sales(&SalesConfig { fact_rows: 20_000, zipf_z: 1.0, seed: 42 }).unwrap();
    let view = star.denormalize("view").unwrap();
    let sampler = SmallGroupSampler::build(
        &view,
        SmallGroupConfig { seed: 7, ..SmallGroupConfig::with_rates(0.2, 0.5) },
    )
    .unwrap();
    let system = ResilientSystem::from_sampler(sampler).with_view(view).with_threads(2);

    let before = aqp::obs::global().snapshot();
    let (addr, handle, join) = start_server(
        system,
        ServerConfig {
            // Cache off so all ~216 queries really execute on the
            // sampled tier and are eligible for auditing.
            cache: CacheConfig::disabled(),
            shadow: ShadowConfig { rate: 1.0, queue_cap: 2048, ..ShadowConfig::default() },
            ..ServerConfig::default()
        },
    );

    // ≥200-query mixed workload: 3 grouping columns x 3 aggregate sets
    // x 24 predicate thresholds, sent on the batch class so the
    // admission ledger below is isolated from other tests in this
    // binary (which use the interactive class).
    let groups = ["store.region", "product.category", "customer.segment"];
    let aggs =
        ["COUNT(*) AS c", "SUM(sales.revenue) AS r", "COUNT(*) AS c, SUM(sales.units) AS u"];
    let mut client = Client::new(addr, RetryPolicy::with_seed(0x5ad0));
    let mut answered = 0u64;
    let mut sampled_tier = 0u64;
    for g in &groups {
        for a in &aggs {
            for t in 0..24 {
                let sql = format!(
                    "SELECT {g}, {a} FROM v WHERE sales.revenue > {} GROUP BY {g}",
                    t * 15
                );
                match client
                    .request(&Request::Query {
                        sql,
                        class: ContractClass::Batch,
                        deadline_ms: None,
                        row_budget: None,
                        confidence: Some(0.95),
                        max_rel_error: None,
                        trace_id: None,
                    })
                    .unwrap()
                {
                    Response::Answer(answer) => {
                        answered += 1;
                        if answer.tier != "exact" {
                            sampled_tier += 1;
                        }
                    }
                    other => panic!("expected answer, got {other:?}"),
                }
            }
        }
    }
    assert_eq!(answered, 216, "every workload query answered");
    assert!(sampled_tier >= 200, "workload must exercise the sampled tier");

    // Graceful shutdown joins the shadow worker after it drains the
    // queue, so the aqp_shadow_* totals below are complete.
    handle.shutdown();
    join.join().unwrap().unwrap();

    let after = aqp::obs::global().snapshot();
    let delta = |name: &str| {
        after.counter_total(name).saturating_sub(before.counter_total(name))
    };
    assert_eq!(delta("aqp_shadow_dropped_total"), 0, "queue never overflowed");
    assert_eq!(delta("aqp_shadow_error_total"), 0, "exact oracle never failed");
    assert_eq!(
        delta("aqp_shadow_queries_total"),
        sampled_tier,
        "every sampled-tier answer was audited exactly once"
    );

    // Realized coverage vs the promised 95% CIs, judged by the same
    // Agresti–Coull under-coverage rule as `workload --calibrate`.
    let cells = delta("aqp_shadow_cells_total");
    let covered = delta("aqp_shadow_within_ci_total");
    assert!(cells >= 200, "need a real cell population, got {cells}");
    assert_eq!(cells, covered + delta("aqp_shadow_miss_total"), "cells partition");
    let bucket = CoverageBucket { label: "shadow".into(), cells, covered };
    assert!(
        !bucket.flagged(0.95),
        "shadow audit demonstrates under-coverage: {covered}/{cells} = {:.3}",
        bucket.observed()
    );

    // Admission-slot proof: the ledger admitted exactly one slot per
    // served batch query — the ~216 shadow re-executions took none.
    let batch = &[("class", "batch")];
    let admitted = after
        .counter_value("aqp_server_admitted_total", batch)
        .unwrap_or(0)
        .saturating_sub(before.counter_value("aqp_server_admitted_total", batch).unwrap_or(0));
    assert_eq!(
        admitted, answered,
        "shadow re-execution must never consume an admission slot"
    );
}
