//! The deadline step-down, from the wire to the process's metrics.
//!
//! Tier fallbacks are tallied in the process-wide registry
//! (`aqp_tier_fallback_total{reason}`), not in a server's own. This binary
//! holds one test and one request, so nothing else in the process can step
//! down on a deadline, and the count it reads is exactly that request's.

use aqp::prelude::*;
use aqp::serving::{Client, ContractClass, Request, Response, RetryPolicy, Server, ServerConfig};

fn deadline_fallbacks() -> u64 {
    aqp::obs::global()
        .snapshot()
        .counter_value("aqp_tier_fallback_total", &[("reason", "deadline")])
        .unwrap_or(0)
}

#[test]
fn deadline_tier_fallback_reason_reaches_metrics() {
    // A deadline that forces the ladder below the viable tier is tallied
    // as aqp_tier_fallback_total{reason="deadline"} — distinct from
    // budget- and degradation-driven fallbacks. Exercised end-to-end
    // through the server so the wire and the metric agree. The system
    // needs a real sample ladder here: step-downs are tallied when a
    // rung is *skipped*, and an exact-only system has no rungs to skip.
    let before = deadline_fallbacks();
    let star = gen_sales(&SalesConfig { fact_rows: 20_000, zipf_z: 1.5, seed: 42 }).unwrap();
    let view = star.denormalize("view").unwrap();
    let sampler = SmallGroupSampler::build(&view, SmallGroupConfig::with_rates(0.05, 0.5))
        .expect("preprocessing");
    // Throughput pinned to 1 row/ms: the 150 ms deadline converts to a
    // budget of about 120 rows, which no sampled rung fits.
    let server = Server::bind(
        ResilientSystem::from_sampler(sampler).with_view(view).with_threads(2),
        ServerConfig { fixed_rows_per_ms: Some(1.0), ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let request = Request::Query {
        sql: "SELECT store.region, COUNT(*) AS cnt, SUM(sales.revenue) AS rev \
              FROM v GROUP BY store.region"
            .into(),
        class: ContractClass::Interactive,
        deadline_ms: Some(150),
        row_budget: None,
        confidence: None,
        max_rel_error: None,
        trace_id: None,
    };
    match Client::new(addr, RetryPolicy::no_retry()).request(&request).unwrap() {
        Response::Answer(a) => assert!(a.deadline_limited),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert_eq!((before, deadline_fallbacks()), (0, 1), "one request, one deadline step-down");
}
