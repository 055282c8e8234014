//! End-to-end request-scoped observability: trace ids round-tripping on
//! the wire, the flight recorder's contiguous stage timelines (live via
//! the `dump` verb and on-anomaly via the dump file), and the shadow
//! accuracy auditor's realized-coverage-vs-promised-CI audit over a
//! mixed workload — including the proof that shadow re-execution never
//! consumes an admission slot.

use aqp::obs::json::Value;
use aqp::obs::{Registry, RequestRecord};
use aqp::prelude::*;
use aqp::serving::{
    AdmissionConfig, CacheConfig, ClassLimits, Client, ClientError, ContractClass, Request,
    Response, RetryPolicy, Server, ServerConfig, ServingFault, ShadowConfig,
};
use aqp::workload::CoverageBucket;
use std::sync::Arc;
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
    Arc<Registry>,
) {
    let server = Server::bind(system, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let registry = server.registry();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join, registry)
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
    let (addr, handle, join, _) = start_server(
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
    // which must dump the flight ring to the configured path. With one
    // interactive slot and no queue, a query sent while the stall holds
    // the slot is shed. The cache is off, so that query does not wait on
    // the stalled one as its single-flight leader.
    let (addr, handle, join, registry) = start_server(
        ResilientSystem::exact_only(sales_view(5_000)).with_threads(2),
        ServerConfig {
            admission: AdmissionConfig {
                interactive: ClassLimits { max_inflight: 1, max_queue: 0 },
                ..AdmissionConfig::default()
            },
            cache: CacheConfig::disabled(),
            flight_dump: Some(dump_path.clone()),
            faults: vec![ServingFault::ExecStall { nth: 0 }],
            ..ServerConfig::default()
        },
    );
    let stalled = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            Client::new(addr, RetryPolicy::no_retry()).request(&Request::Query {
                sql: SQL.into(),
                class: ContractClass::Interactive,
                deadline_ms: Some(1_000),
                row_budget: None,
                confidence: None,
                max_rel_error: None,
                trace_id: Some("tid-stall-1".into()),
            })
        })
    };
    // The stall fires after admission: once it is counted, it holds the slot.
    let deadline = Instant::now() + Duration::from_secs(5);
    while registry.snapshot().counter_value("aqp_fault_injected_total", &[("kind", "exec-stall")]) != Some(1) {
        assert!(Instant::now() < deadline, "the stall never fired");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    match client.request(&query_with_trace(Some("tid-shed-1"))) {
        Err(ClientError::Shed { .. }) => {}
        other => panic!("expected a shed, got {other:?}"),
    }
    match stalled.join().unwrap().unwrap() {
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
    assert!(record.total_micros >= 100_000, "stalled ~1s, saw {}us", record.total_micros);

    // With the slot free again the same query is answered.
    match client.request(&query_with_trace(Some("tid-ok-1"))).unwrap() {
        Response::Answer(answer) => assert_eq!(answer.trace_id, "tid-ok-1"),
        other => panic!("expected an answer, got {other:?}"),
    }
    // The stats payload reads those three outcomes off the registry: one
    // each for the interactive class, none for batch, and one answer's
    // latency in the interactive histogram.
    let stats = match client.request(&Request::Stats).unwrap() {
        Response::Stats(text) => aqp::obs::json::parse(&text).unwrap(),
        other => panic!("expected stats, got {other:?}"),
    };
    let classes = stats.get("classes").and_then(Value::as_arr).expect("classes");
    let labels: Vec<_> = classes.iter().map(|c| c.get("class").and_then(Value::as_str)).collect();
    assert_eq!(labels, [Some("interactive"), Some("batch")]);
    let outcomes = |class: &Value| {
        ["answer", "shed", "timeout", "error"].map(|o| class.get(o).and_then(Value::as_u64))
    };
    assert_eq!(outcomes(&classes[0]), [Some(1), Some(1), Some(1), Some(0)]);
    assert_eq!(outcomes(&classes[1]), [Some(0); 4]);
    let answers_timed = |class: &Value| -> u64 {
        let pairs = class.get("latency").and_then(Value::as_arr).expect("latency");
        pairs.iter().map(|p| p.as_arr().and_then(|p| p[1].as_u64()).expect("[index, count]")).sum()
    };
    assert_eq!(answers_timed(&classes[0]), 1);
    assert_eq!(answers_timed(&classes[1]), 0);
    assert_eq!(stats.get("cache_hits").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("flight_records").and_then(Value::as_u64), Some(3));

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

    let (addr, handle, join, registry) = start_server(
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
    // x 24 predicate thresholds, sent on the batch class.
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

    let after = registry.snapshot();
    let total = |name: &str| after.counter_total(name);
    assert_eq!(total("aqp_shadow_dropped_total"), 0, "queue never overflowed");
    assert_eq!(total("aqp_shadow_error_total"), 0, "exact oracle never failed");
    assert_eq!(
        total("aqp_shadow_queries_total"),
        sampled_tier,
        "every sampled-tier answer was audited exactly once"
    );

    // Realized coverage vs the promised 95% CIs, judged by the same
    // Agresti–Coull under-coverage rule as `workload --calibrate`.
    let cells = total("aqp_shadow_cells_total");
    let covered = total("aqp_shadow_within_ci_total");
    assert!(cells >= 200, "need a real cell population, got {cells}");
    assert_eq!(cells, covered + total("aqp_shadow_miss_total"), "cells partition");
    let bucket = CoverageBucket { label: "shadow".into(), cells, covered };
    assert!(
        !bucket.flagged(0.95),
        "shadow audit demonstrates under-coverage: {covered}/{cells} = {:.3}",
        bucket.observed()
    );

    // Admission-slot proof: the ledger admitted exactly one slot per
    // served query — the ~216 shadow re-executions took none.
    assert_eq!(
        total("aqp_server_admitted_total"),
        answered,
        "shadow re-execution must never consume an admission slot"
    );
    assert_eq!(
        after.counter_value("aqp_server_admitted_total", &[("class", "batch")]),
        Some(answered)
    );
}

/// A `metrics` pull exports the server's registry merged with the
/// process's: every family typed once, its samples right under its
/// `# TYPE` line, a server series beside a process series.
#[test]
fn metrics_pull_merges_server_and_process_registries() {
    let (addr, handle, join, _) = start_server(
        ResilientSystem::exact_only(sales_view(2_000)).with_threads(2),
        ServerConfig::default(),
    );
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    assert!(matches!(client.request(&Request::query(SQL)).unwrap(), Response::Answer(_)));
    let text = match client.request(&Request::Metrics).unwrap() {
        Response::Metrics(text) => text,
        other => panic!("expected metrics, got {other:?}"),
    };
    handle.shutdown();
    join.join().unwrap().unwrap();

    let mut families: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(typed) = line.strip_prefix("# TYPE ") {
            let family = typed.split(' ').next().unwrap();
            assert!(!families.contains(&family), "{family} typed twice:\n{text}");
            families.push(family);
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap();
        let last = *families.last().expect("a sample before any # TYPE line");
        let base = name.strip_suffix("_sum").or(name.strip_suffix("_count")).unwrap_or(name);
        assert!(name == last || base == last, "{name} sampled under {last}'s # TYPE line");
    }
    // This server's answer, counted in its registry, and the scan behind
    // it, counted in the process's.
    let served = r#"aqp_server_requests_total{class="interactive",outcome="answer"} 1"#;
    assert!(text.lines().any(|l| l == served), "{text}");
    assert!(families.contains(&"aqp_server_latency_seconds"), "{text}");
    assert!(families.contains(&"aqp_rows_scanned_total"), "{text}");
}

/// A served request's flight record carries the same decision the
/// in-process trace does, a cache hit's carries none, a timeout's no
/// tier, and the next answer on the connection only its own operators.
#[test]
fn served_record_matches_the_in_process_trace() {
    let build = || {
        let star = gen_sales(&SalesConfig { fact_rows: 20_000, zipf_z: 1.5, seed: 42 }).unwrap();
        let view = star.denormalize("view").unwrap();
        let sampler = SmallGroupSampler::build(
            &view,
            SmallGroupConfig { seed: 7, ..SmallGroupConfig::with_rates(0.05, 0.5) },
        )
        .unwrap();
        ResilientSystem::from_sampler(sampler).with_view(view).with_threads(2)
    };
    // The second execution stalls until its deadline: the first answer
    // executes, the repeat is a cache hit, which executes nothing.
    let (addr, handle, join, _) = start_server(
        build(),
        ServerConfig { faults: vec![ServingFault::ExecStall { nth: 1 }], ..ServerConfig::default() },
    );
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    let query = |sql: &str, trace_id: &str, deadline_ms: Option<u64>| Request::Query {
        sql: sql.into(),
        class: ContractClass::Interactive,
        deadline_ms,
        row_budget: None,
        confidence: None,
        max_rel_error: None,
        trace_id: Some(trace_id.into()),
    };
    const STALLED: &str = "SELECT product.category, COUNT(*) AS c FROM v GROUP BY product.category";
    const AFTER: &str = "SELECT customer.segment, SUM(sales.units) AS u FROM v \
                         WHERE sales.revenue > 10 GROUP BY customer.segment";
    for (sql, tid) in [(SQL, "tid-first"), (SQL, "tid-hit")] {
        assert!(matches!(client.request(&query(sql, tid, None)).unwrap(), Response::Answer(_)));
    }
    match client.request(&query(STALLED, "tid-timeout", Some(200))).unwrap() {
        Response::Timeout { .. } => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert!(matches!(client.request(&query(AFTER, "tid-after", None)).unwrap(), Response::Answer(_)));
    let dump = match client.request(&Request::Dump).unwrap() {
        Response::Dump(text) => text,
        other => panic!("expected dump, got {other:?}"),
    };
    handle.shutdown();
    join.join().unwrap().unwrap();

    let records: Vec<RequestRecord> =
        dump.lines().map(|line| RequestRecord::from_json(line).unwrap()).collect();
    let record = |tid: &str| {
        records.iter().find(|r| r.trace_id == tid).unwrap_or_else(|| panic!("{tid} not in the dump"))
    };
    let rows_in = |r: &RequestRecord| r.operators.iter().map(|o| o.rows_in).sum::<u64>();

    // The served answer's decision is the in-process one's.
    let first = record("tid-first");
    let parsed = parse_query(SQL).unwrap();
    let (_, local) = build().answer_traced(&parsed.query, 0.95).unwrap();
    assert_eq!(first.query, SQL, "the request's own SQL text");
    assert!(first.plan.starts_with("union-all("), "{}", first.plan);
    assert_eq!(
        (&first.plan, &first.serving_tier, first.partial, &first.sample_tables),
        (&local.plan, &local.serving_tier, local.partial, &local.sample_tables)
    );
    assert_eq!(
        (first.rows_scanned, first.base_rows, first.groups),
        (local.rows_scanned, local.base_rows, local.groups)
    );
    assert!(!first.operators.is_empty() && !first.spans.is_empty());
    assert_eq!(rows_in(first), first.rows_scanned, "operators reconcile with rows_scanned");

    // The hit took its answer's members and executed nothing.
    let hit = record("tid-hit");
    assert!(hit.cache_hit);
    assert_eq!((hit.outcome.as_str(), &hit.serving_tier), ("answer", &first.serving_tier));
    assert_eq!((hit.rows_scanned, hit.groups), (first.rows_scanned, first.groups));
    assert!(hit.operators.is_empty() && hit.spans.is_empty() && hit.plan.is_empty());
    assert!(hit.sample_tables.is_empty());

    let timeout = record("tid-timeout");
    assert_eq!((timeout.outcome.as_str(), timeout.serving_tier.as_str()), ("timeout", ""));

    // A collector left open by the timeout would own the next answer's
    // operators (or hand it the timeout's).
    let after = record("tid-after");
    assert_eq!(after.outcome, "answer");
    assert!(!after.operators.is_empty());
    assert_eq!(rows_in(after), after.rows_scanned, "only its own operators");
    for r in [first, hit, timeout, after] {
        assert_timeline_well_formed(r);
    }
}
