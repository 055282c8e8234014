//! Overload soak for the concurrent query server.
//!
//! The acceptance contract (mirrors the serving design doc): at 2x the
//! admission cap the server sheds deterministically, nothing panics,
//! every request receives exactly one terminal response (answer / shed /
//! timeout), and the observability counters reconcile with the request
//! total.
//!
//! This file holds one test and must keep holding one: it reads deltas
//! of `aqp_server_*` counters from the process-global registry, which is
//! only sound when no other server runs in the process. (An injectable
//! per-server `Registry` is ROADMAP item 6(c).) The stalls it plans are
//! the first two executions of this server, whatever else runs.

use aqp::prelude::*;
use aqp::serving::{
    AdmissionConfig, CacheConfig, ClassLimits, Client, ClientError, ContractClass, Request,
    Response, RetryPolicy, Server, ServerConfig, ServingFault,
};

const SQL: &str = "SELECT store.region, COUNT(*) AS cnt, SUM(sales.revenue) AS rev \
                   FROM v GROUP BY store.region";

#[test]
fn soak_overload_every_request_gets_exactly_one_terminal_response() {
    let cap = ClassLimits {
        max_inflight: 2,
        max_queue: 2,
    };
    let clients = 2 * (cap.max_inflight + cap.max_queue); // 2x admission capacity
    let per_client = 5usize;
    let config = ServerConfig {
        admission: AdmissionConfig {
            interactive: cap,
            batch: cap,
        },
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
    let before = aqp::obs::global().snapshot();
    let star = gen_sales(&SalesConfig {
        fact_rows: 20_000,
        zipf_z: 1.5,
        seed: 42,
    })
    .unwrap();
    let system = ResilientSystem::exact_only(star.denormalize("view").unwrap()).with_threads(2);
    let server = Server::bind(system, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

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
                    let mut seen = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let outcome = match client.request(&Request::Query {
                            sql: SQL.into(),
                            class: ContractClass::Interactive,
                            deadline_ms: None,
                            row_budget: None,
                            confidence: None,
                            max_rel_error: None,
                            trace_id: None,
                        }) {
                            Ok(Response::Answer(_)) => "answered",
                            Ok(Response::Timeout { .. }) => "timeout",
                            Ok(Response::Error { .. }) => "error",
                            Ok(other) => panic!("unexpected response for client {c}: {other:?}"),
                            Err(ClientError::Shed { .. }) => "shed",
                            Err(e) => panic!("transport failure for client {c}: {e}"),
                        };
                        seen.push(outcome);
                    }
                    seen
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    handle.shutdown();
    let report = join.join().expect("server thread panicked").unwrap();

    // Exactly one terminal response per request, and under 2x overload
    // with no-retry clients at least one request must have been shed.
    let total_requests = clients * per_client;
    assert_eq!(outcomes.len(), total_requests);
    let count = |k: &str| outcomes.iter().filter(|o| **o == k).count();
    let (answered, shed, timeout, error) = (
        count("answered"),
        count("shed"),
        count("timeout"),
        count("error"),
    );
    assert_eq!(answered + shed + timeout + error, total_requests);
    assert!(
        shed >= 4,
        "2x overload with a bounded queue must shed: {shed}"
    );
    assert!(
        answered > 0,
        "admitted requests still get answers under overload"
    );
    assert_eq!(error, 0, "no parse or execution errors in the soak");

    // The server's own report and the obs counters both reconcile.
    // (The server also answered each worker's ping.)
    assert_eq!(report.requests as usize, total_requests + clients);
    assert_eq!(report.answered as usize, answered);
    assert_eq!(report.shed as usize, shed);
    assert_eq!(report.timeouts as usize, timeout);
    let after = aqp::obs::global().snapshot();
    let delta = |name: &str| {
        after
            .counter_total(name)
            .saturating_sub(before.counter_total(name)) as usize
    };
    assert_eq!(delta("aqp_server_requests_total"), total_requests + clients);
    assert_eq!(delta("aqp_server_shed_total"), shed);
    assert_eq!(
        delta("aqp_server_admitted_total"),
        answered + timeout,
        "every non-shed request passed admission exactly once"
    );
}
