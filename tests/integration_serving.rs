//! Integration tests for the concurrent query server: deadline-driven
//! degradation on the wire, forced timeouts via fault injection, graceful
//! drain under load, and a 2x-overload soak.
//!
//! The acceptance contract (mirrors the serving design doc): nothing
//! panics, every request receives exactly one terminal response
//! (answer / shed / timeout), and a deadline-bounded query comes back as
//! a degraded-tier answer rather than a missed deadline. Injected faults
//! and metrics belong to the server they are configured on (each server
//! records into its own registry), so the tests here run side by side
//! and reconcile exact counts. The ladder's tier fallbacks are counted
//! process-wide, so their wire-to-metric test has a binary of its own
//! (`tests/deadline_fallback.rs`).

use aqp::obs::Registry;
use aqp::prelude::*;
use aqp::serving::{
    AdmissionConfig, CacheConfig, ClassLimits, Client, ClientError, ContractClass, Request,
    Response, RetryPolicy, Server, ServerConfig, ServerReport, ServingFault,
};
use std::sync::Arc;
use std::time::Duration;

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
    std::thread::JoinHandle<std::io::Result<ServerReport>>,
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

fn query_with_deadline(deadline_ms: u64) -> Request {
    Request::Query {
        sql: SQL.into(),
        class: ContractClass::Interactive,
        deadline_ms: Some(deadline_ms),
        row_budget: None,
        confidence: None,
        max_rel_error: None,
        trace_id: None,
    }
}

#[test]
fn deadline_bounded_query_degrades_instead_of_missing() {
    // Pin throughput to 1 row/ms: a 150ms deadline converts to a ~120-row
    // budget against a 20k-row view, so the exact tier truncates — the
    // client gets a deadline-shaped answer, not a timeout.
    let config = ServerConfig {
        fixed_rows_per_ms: Some(1.0),
        ..ServerConfig::default()
    };
    let (addr, handle, join, _) = start_server(
        ResilientSystem::exact_only(sales_view(20_000)).with_threads(2),
        config,
    );
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    match client.request(&query_with_deadline(150)).unwrap() {
        Response::Answer(a) => {
            assert_eq!(a.tier, "exact");
            assert!(a.deadline_limited, "the deadline shaped this answer: {a:?}");
            assert!(a.partial, "scan was truncated to fit the deadline");
            assert!(
                a.rows_scanned < 20_000,
                "budget-capped scan, saw {} rows",
                a.rows_scanned
            );
        }
        other => panic!("expected a degraded answer, got {other:?}"),
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A server whose first execution stalls until its deadline trips.
fn stalled_once() -> ServerConfig {
    ServerConfig { faults: vec![ServingFault::ExecStall { nth: 0 }], ..ServerConfig::default() }
}

#[test]
fn exec_stall_fault_forces_deterministic_timeout() {
    // exec-stall@0 blocks the first execution until its deadline token
    // trips — the CI recipe for a machine-speed-independent timeout.
    let (addr, handle, join, registry) = start_server(
        ResilientSystem::exact_only(sales_view(5_000)).with_threads(2),
        stalled_once(),
    );
    let mut client = Client::new(addr, RetryPolicy::no_retry());
    match client.request(&query_with_deadline(150)).unwrap() {
        Response::Timeout { .. } => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // The stall fires once; the next query is healthy.
    match client.request(&Request::query(SQL)).unwrap() {
        Response::Answer(a) => assert_eq!(a.tier, "exact"),
        other => panic!("expected answer after the stall, got {other:?}"),
    }
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.timeouts, 1);
    assert_eq!(report.answered, 1);
    let fired = registry
        .snapshot()
        .counter_value("aqp_fault_injected_total", &[("kind", "exec-stall")]);
    assert_eq!(fired, Some(1), "this server's one injected stall, and no other server's");
}

#[test]
fn a_stall_planned_for_one_server_leaves_another_server_alone() {
    // Two servers at once in one process; only the second plans a stall
    // of its first execution. The healthy server's first query runs first
    // and is answered, then the stalled server's first query times out:
    // each server counts its own executions.
    let (healthy_addr, healthy, healthy_join, _) = start_server(
        ResilientSystem::exact_only(sales_view(5_000)).with_threads(2),
        ServerConfig::default(),
    );
    let (stalled_addr, stalled, stalled_join, _) = start_server(
        ResilientSystem::exact_only(sales_view(5_000)).with_threads(2),
        stalled_once(),
    );
    let mut healthy_client = Client::new(healthy_addr, RetryPolicy::no_retry());
    let mut stalled_client = Client::new(stalled_addr, RetryPolicy::no_retry());
    // A deadline so that a stall taken here would show as a timeout
    // rather than as a late answer.
    match healthy_client.request(&query_with_deadline(2_000)).unwrap() {
        Response::Answer(a) => assert_eq!(a.tier, "exact"),
        other => panic!("the healthy server's first query: expected an answer, got {other:?}"),
    }
    match stalled_client.request(&query_with_deadline(150)).unwrap() {
        Response::Timeout { .. } => {}
        other => panic!("the stalled server's first query: expected a timeout, got {other:?}"),
    }
    healthy.shutdown();
    stalled.shutdown();
    let healthy = healthy_join.join().unwrap().unwrap();
    let stalled = stalled_join.join().unwrap().unwrap();
    assert_eq!((healthy.answered, healthy.timeouts), (1, 0));
    assert_eq!((stalled.answered, stalled.timeouts), (0, 1));
}

#[test]
fn graceful_drain_finishes_inflight_and_rejects_new() {
    let (addr, handle, join, _) = start_server(
        ResilientSystem::exact_only(sales_view(20_000)).with_threads(2),
        ServerConfig::default(),
    );
    // One client keeps a connection open across the drain boundary.
    let mut open_client = Client::new(addr.clone(), RetryPolicy::no_retry());
    match open_client.request(&Request::query(SQL)).unwrap() {
        Response::Answer(_) => {}
        other => panic!("{other:?}"),
    }
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(200));
    // After the drain begins the same connection gets a draining frame
    // (or a clean close if the worker already exited) — never a hang.
    match open_client.request(&Request::query(SQL)) {
        Ok(Response::Draining) | Err(ClientError::Io(_)) => {}
        other => panic!("expected draining/closed, got {other:?}"),
    }
    let report = join.join().unwrap().unwrap();
    assert!(report.answered >= 1);
}

/// Satellite: 16 clients hammer an overlapping set of distinct queries.
/// Single-flight means each distinct canonical key executes exactly once
/// (everything else is served from cache), every request still gets one
/// terminal response, and the server's hit/miss/bypass tallies reconcile
/// with the request total.
#[test]
fn cache_soak_sixteen_clients_execute_each_distinct_key_once() {
    // Distinct plans: same shape, different predicate literal. Clients
    // also format them differently (whitespace/alias noise) — the
    // canonical key must see through that.
    let thresholds = [100.0f64, 200.0, 300.0, 400.0, 500.0, 600.0];
    let queries: Vec<String> = thresholds
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            [
                format!(
                    "SELECT store.region, COUNT(*) AS cnt{i} FROM v \
                     WHERE sales.revenue > {t} GROUP BY store.region"
                ),
                // Same plan, noisy surface syntax: alias renamed, spacing
                // mangled, float formatted differently.
                format!(
                    "select   store.region ,  count(*) as other_name \
                     from v where sales.revenue > {t}.000 group by store.region"
                ),
            ]
        })
        .collect();
    let distinct_keys = thresholds.len();

    let config = ServerConfig {
        admission: AdmissionConfig {
            interactive: ClassLimits { max_inflight: 16, max_queue: 64 },
            batch: ClassLimits { max_inflight: 2, max_queue: 2 },
        },
        ..ServerConfig::default()
    };
    let (addr, handle, join, _) = start_server(
        ResilientSystem::exact_only(sales_view(20_000)).with_threads(2),
        config,
    );

    let clients = 16usize;
    let outcomes: Vec<&'static str> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let queries = &queries;
                s.spawn(move || {
                    let mut client = Client::new(addr, RetryPolicy::no_retry());
                    let mut seen = Vec::with_capacity(queries.len());
                    // Rotate the schedule per client so different keys
                    // are in flight simultaneously.
                    for k in 0..queries.len() {
                        let sql = &queries[(k + c) % queries.len()];
                        let outcome = match client.request(&Request::query(sql.clone())) {
                            Ok(Response::Answer(a)) => {
                                if a.cache_hit {
                                    "hit"
                                } else {
                                    "miss"
                                }
                            }
                            Ok(other) => panic!("client {c}: unexpected response {other:?}"),
                            Err(e) => panic!("client {c}: transport failure {e}"),
                        };
                        seen.push(outcome);
                    }
                    seen
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client panicked")).collect()
    });
    handle.shutdown();
    let report = join.join().expect("server panicked").unwrap();

    let total = clients * queries.len();
    assert_eq!(outcomes.len(), total, "every request got exactly one terminal response");
    let wire_hits = outcomes.iter().filter(|o| **o == "hit").count();
    let wire_misses = outcomes.iter().filter(|o| **o == "miss").count();
    assert_eq!(wire_hits + wire_misses, total);

    // Exactly one execution per distinct canonical key: every miss is an
    // execution, and only the first request for each key may miss.
    assert_eq!(
        report.cache_misses as usize, distinct_keys,
        "single-flight: one execution per distinct key"
    );
    assert_eq!(report.cache_hits as usize, total - distinct_keys);
    assert_eq!(report.cache_bypass, 0);
    assert_eq!(report.cache_misses as usize, wire_misses, "wire flags agree with tallies");
    assert_eq!(
        report,
        ServerReport {
            requests: total as u64,
            answered: total as u64,
            connections: clients as u64,
            cache_hits: wire_hits as u64,
            cache_misses: wire_misses as u64,
            ..ServerReport::default()
        },
        "hit + miss covers every answered query, and nothing else happened"
    );
}

/// 2x overload: the server sheds deterministically, nothing panics, every
/// request receives exactly one terminal response (answer / shed /
/// timeout), and the server's report and registry reconcile exactly with
/// what the clients saw.
#[test]
fn soak_overload_every_request_gets_exactly_one_terminal_response() {
    let cap = ClassLimits { max_inflight: 2, max_queue: 2 };
    let clients = 2 * (cap.max_inflight + cap.max_queue); // 2x admission capacity
    let per_client = 5usize;
    let config = ServerConfig {
        admission: AdmissionConfig { interactive: cap, batch: cap },
        // Cache off: the soak measures admission control, and with the
        // cache on a single leader would execute while every identical
        // request coalesced behind it instead of being shed.
        cache: CacheConfig::disabled(),
        // Overload must not depend on the machine's speed: the first two
        // executions of this server stall (2 s, then run normally),
        // holding both executor slots while the workers — connected
        // beforehand with a ping each, then released together — send
        // their opening burst. Of its other six requests two find a
        // queue place and four are shed.
        faults: vec![ServingFault::ExecStall { nth: 0 }, ServingFault::ExecStall { nth: 1 }],
        ..ServerConfig::default()
    };
    let (addr, handle, join, registry) = start_server(
        ResilientSystem::exact_only(sales_view(20_000)).with_threads(2),
        config,
    );

    let start = std::sync::Barrier::new(clients);
    // Each worker sends its requests with no client-side retry, so every
    // wire-level outcome is counted exactly once.
    let outcomes: Vec<&'static str> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let start = &start;
                s.spawn(move || {
                    let mut client = Client::new(addr, RetryPolicy::no_retry());
                    assert!(matches!(client.request(&Request::Ping), Ok(Response::Pong)));
                    start.wait();
                    (0..per_client)
                        .map(|_| match client.request(&Request::query(SQL)) {
                            Ok(Response::Answer(_)) => "answered",
                            Ok(Response::Timeout { .. }) => "timeout",
                            Ok(Response::Error { .. }) => "error",
                            Ok(other) => panic!("unexpected response for client {c}: {other:?}"),
                            Err(ClientError::Shed { .. }) => "shed",
                            Err(e) => panic!("transport failure for client {c}: {e}"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread panicked")).collect()
    });
    handle.shutdown();
    let report = join.join().expect("server thread panicked").unwrap();

    // Exactly one terminal response per request, and under 2x overload
    // with no-retry clients at least one request must have been shed.
    let total_requests = clients * per_client;
    assert_eq!(outcomes.len(), total_requests);
    let count = |k: &str| outcomes.iter().filter(|o| **o == k).count() as u64;
    let (answered, shed, timeout) = (count("answered"), count("shed"), count("timeout"));
    assert_eq!(answered + shed + timeout, total_requests as u64, "no parse or execution errors");
    assert!(shed >= 4, "2x overload with a bounded queue must shed: {shed}");
    assert!(answered > 0, "admitted requests still get answers under overload");

    // The report is the clients' view, field for field (each worker also
    // pinged once, and every query bypassed the disabled cache).
    assert_eq!(
        report,
        ServerReport {
            requests: (total_requests + clients) as u64,
            answered,
            shed,
            timeouts: timeout,
            connections: clients as u64,
            cache_bypass: total_requests as u64,
            ..ServerReport::default()
        }
    );
    let snap = registry.snapshot();
    let interactive = |outcome: &str| {
        snap.counter_value("aqp_server_requests_total", &[("class", "interactive"), ("outcome", outcome)])
    };
    assert_eq!(interactive("shed"), Some(shed));
    assert_eq!(interactive("ping"), Some(clients as u64));
    assert_eq!(
        snap.counter_value("aqp_server_admitted_total", &[("class", "interactive")]),
        Some(answered + timeout),
        "every non-shed request passed admission exactly once"
    );
    assert_eq!(snap.counter_value("aqp_fault_injected_total", &[("kind", "exec-stall")]), Some(2));
}

/// Differential oracle: over a 240-query seeded workload (interleaved
/// shapes and confidence levels, including a mid-run table rebuild with
/// explicit invalidation), the cache-on path must return answers with
/// exactly the group keys and point estimates the cache-off path
/// computes, and every served answer must satisfy the request's
/// contract. A stale post-rebuild reuse, an alias/key mix-up, or a
/// contract-violating hit all surface as hard mismatches.
#[test]
fn differential_oracle_cache_on_matches_cache_off_across_rebuild() {
    use aqp::serving::{CacheDecision, SemanticCache};

    let build = |seed: u64| -> ResilientSystem {
        let star = gen_sales(&SalesConfig { fact_rows: 8_000, zipf_z: 1.5, seed }).unwrap();
        let view = star.denormalize("view").unwrap();
        let sampler =
            SmallGroupSampler::build(&view, SmallGroupConfig::with_rates(0.05, 0.5)).unwrap();
        ResilientSystem::from_sampler(sampler).with_view(view).with_threads(2)
    };
    let system_a = build(42);
    let system_b = build(777); // the "rebuilt" table: different data
    let cache = SemanticCache::new(CacheConfig::default());

    // ~30 shapes: group column x aggregate x predicate threshold.
    let groups = ["store.region", "product.category", "customer.segment"];
    let aggs = ["COUNT(*) AS c", "SUM(sales.revenue) AS r", "COUNT(*) AS c, SUM(sales.units) AS u"];
    let preds = ["", "WHERE sales.revenue > 100 ", "WHERE sales.units >= 2 "];
    let mut shapes = Vec::new();
    for g in &groups {
        for a in &aggs {
            for p in &preds {
                shapes.push(format!("SELECT {g}, {a} FROM v {p}GROUP BY {g}"));
            }
        }
    }
    let confidences = [0.90, 0.95, 0.99];

    let mut rng: u64 = 0x07ac1e ^ 0xD1FF;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut hits = 0usize;
    let mut system = &system_a;
    for i in 0..240 {
        // Mid-run rebuild: swap the data out from under the cache and
        // invalidate. Any stale reuse after this point returns seed-42
        // estimates against the seed-777 oracle and fails the compare.
        if i == 120 {
            system = &system_b;
            cache.invalidate();
        }
        let sql = &shapes[(next() as usize) % shapes.len()];
        let confidence = confidences[(next() as usize) % confidences.len()];
        let contract = AnswerContract::at_confidence(confidence);
        let parsed = parse_query(sql).unwrap();

        // Oracle: always execute fresh.
        let oracle = system
            .answer_bounded(&parsed.query, confidence, &QueryBound::none())
            .unwrap()
            .answer;

        // Cache path: the server's logic in miniature.
        let (served, served_conf) =
            match cache.decide(&parsed.table, &parsed.query, &contract, None) {
                CacheDecision::Hit(a, conf, _) => {
                    hits += 1;
                    (ApproxAnswer::clone(&a), conf)
                }
                CacheDecision::Execute(guard) => {
                    let bounded = system
                        .answer_bounded(&parsed.query, confidence, &QueryBound::none())
                        .unwrap();
                    guard.complete(&bounded.answer, confidence, !bounded.deadline_limited);
                    (bounded.answer, confidence)
                }
                CacheDecision::Bypass => panic!("cache is enabled"),
            };

        // Same groups, bitwise-identical point estimates, same aliases.
        assert_eq!(served.group_names, oracle.group_names, "query {i}: {sql}");
        assert_eq!(served.agg_aliases, oracle.agg_aliases, "query {i}: {sql}");
        let mut served_sorted = served.clone();
        served_sorted.sort_by_key();
        let mut oracle_sorted = oracle.clone();
        oracle_sorted.sort_by_key();
        assert_eq!(served_sorted.groups.len(), oracle_sorted.groups.len(), "query {i}: {sql}");
        for (gs, go) in served_sorted.groups.iter().zip(&oracle_sorted.groups) {
            assert_eq!(gs.key, go.key, "query {i}: {sql}");
            for (vs, vo) in gs.values.iter().zip(&go.values) {
                assert_eq!(
                    vs.value().to_bits(),
                    vo.value().to_bits(),
                    "query {i}: estimate drifted through the cache: {sql}"
                );
            }
        }
        // Every served answer honours the contract it was served under.
        assert!(
            contract.satisfied_by(&served, served_conf),
            "query {i}: served answer violates its contract: {sql}"
        );
    }
    assert!(hits > 60, "workload repeats shapes, so the cache must get real use ({hits} hits)");
}
