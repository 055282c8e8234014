//! The closed-loop load generator: whole rounds of each connection's
//! fixed request list, grouped into passes.
//!
//! Closed loop because the callers being modelled (a dashboard, a REPL)
//! each wait for a reply before asking again. A pass repeats whole rounds
//! until its minimum duration has elapsed, so every pass has the identical
//! request mix however fast the code gets.

use crate::templates::{Class, Plan, Step};
use crate::trace::Spans;
use aqp::serving::{Client, ClientError, ContractClass, Request, Response, RetryPolicy};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Counters over every request of the timed passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Shed, timeout, error frame, draining, or a transport failure.
    pub failed: u64,
    pub answers: u64,
    pub primary: u64,
    pub exact: u64,
    pub cache_hits: u64,
}

impl Tally {
    fn add(&mut self, result: &Result<Response, ClientError>) {
        self.attempted += 1;
        match result {
            Ok(Response::Answer(answer)) => {
                self.answers += 1;
                self.primary += u64::from(answer.tier == "primary");
                self.exact += u64::from(answer.tier == "exact");
                self.cache_hits += u64::from(answer.cache_hit);
            }
            Ok(Response::Invalidated { .. }) => {}
            _ => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answers += other.answers;
        self.primary += other.primary;
        self.exact += other.exact;
        self.cache_hits += other.cache_hits;
    }
}

/// One pass: every request's latency with its class, and the wall time.
pub struct Pass {
    /// (milliseconds, class) per completed request, all connections pooled.
    pub latencies: Vec<(f64, Option<Class>)>,
    pub wall_s: f64,
    pub tally: Tally,
}

impl Pass {
    /// Percentile of the pooled latencies, optionally of one class.
    pub fn percentile(&self, q: f64, class: Option<Class>) -> f64 {
        let mut ms: Vec<f64> =
            self.latencies.iter().filter(|(_, c)| class.is_none() || *c == class).map(|(ms, _)| *ms).collect();
        ms.sort_by(f64::total_cmp);
        crate::report::quantile(&ms, q)
    }

    pub fn qps(&self) -> f64 {
        self.latencies.len() as f64 / self.wall_s
    }
}

/// One closed-loop caller: where it connects and its fixed request list.
pub struct Caller {
    addr: String,
    requests: Vec<(Request, Option<Class>)>,
}

/// Wire trace id of template `index`'s request (set only on traced runs,
/// where the client-side span must name the same id the server records).
pub fn trace_id(index: usize) -> String {
    format!("e2e-{index}")
}

/// `Request::query` with an optional trace id: interactive, no deadline,
/// no row cap, the server's default confidence.
pub fn query_request(sql: &str, trace: Option<usize>) -> Request {
    Request::Query {
        sql: sql.to_string(),
        class: ContractClass::Interactive,
        deadline_ms: None,
        row_budget: None,
        confidence: None,
        max_rel_error: None,
        trace_id: trace.map(trace_id),
    }
}

pub fn callers(addr: &str, plan: &Plan, traced: bool) -> Vec<Caller> {
    plan.lists
        .iter()
        .map(|list| Caller {
            addr: addr.to_string(),
            requests: list
                .iter()
                .map(|step| match *step {
                    Step::Query(i) => {
                        let t = &plan.templates[i];
                        (query_request(&t.sql, traced.then_some(i)), Some(t.class))
                    }
                    Step::Invalidate => (Request::Invalidate, None),
                })
                .collect(),
        })
        .collect()
}

/// What one caller brings back from a pass: latencies, counters, start, end.
type CallerPass = (Vec<(f64, Option<Class>)>, Tally, Instant, Instant);

/// Run one pass over all callers at once: each repeats whole rounds of its
/// list until `min` has elapsed. With `spans`, every request is wrapped in
/// a client-side `wire.request` span.
pub fn pass(callers: &[Caller], min: Duration, spans: Option<&Spans>) -> Pass {
    let barrier = Barrier::new(callers.len());
    let results: Vec<CallerPass> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter()
            .map(|caller| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(4096);
                    let mut tally = Tally::default();
                    // A fresh connection, hence a fresh server thread, per
                    // pass: where the scheduler places the threads is then
                    // sampled once per pass instead of once per run.
                    let mut client = Client::new(caller.addr.clone(), RetryPolicy::no_retry());
                    let connected = matches!(client.request(&Request::Ping), Ok(Response::Pong));
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        for (request, class) in &caller.requests {
                            let sent = Instant::now();
                            let result = client.request(request);
                            let done = Instant::now();
                            latencies.push(((done - sent).as_secs_f64() * 1e3, *class));
                            if let Some(spans) = spans {
                                let id = match request {
                                    Request::Query { trace_id: Some(id), .. } => id.as_str(),
                                    _ => "",
                                };
                                spans.record("wire.request", id, 0, sent, done);
                            }
                            tally.add(&result);
                        }
                        if start.elapsed() >= min {
                            break;
                        }
                    }
                    if !connected {
                        tally.failed += 1;
                    }
                    (latencies, tally, start, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let start = results.iter().map(|r| r.2).min().expect("at least one caller");
    let end = results.iter().map(|r| r.3).max().expect("at least one caller");
    let mut out = Pass { latencies: Vec::new(), wall_s: (end - start).as_secs_f64(), tally: Tally::default() };
    for (latencies, tally, _, _) in results {
        out.latencies.extend(latencies);
        out.tally.merge(&tally);
    }
    out
}

/// One untimed walk over every caller's list.
pub fn warm_up(callers: &[Caller]) -> Pass {
    pass(callers, Duration::ZERO, None)
}
