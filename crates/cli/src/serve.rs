//! `serve`, `client`, and `top` subcommands.
//!
//! `serve` turns the CLI into a long-running concurrent query server on
//! the wire protocol from [`aqp::serving`]; `client` is the matching
//! cooperative client (bounded retry with backoff on shed); `top` is a
//! live terminal view over the server's `stats` verb: per class, what the
//! server counted since it started and, as differences of `top`'s own
//! polls, over the last 10s / 1m / 5m.

use crate::args::Args;
use crate::commands::{at_path, boxed, open_family, opt_usize, threads_arg, CliError};
use aqp::obs::json::{self, Value};
use aqp::obs::metrics::{quantile, NUM_BUCKETS};
use aqp::serving::{
    AdmissionConfig, CacheConfig, Client, ClassLimits, ClientError, ContractClass, Request,
    Response, RetryPolicy, Server, ServerConfig, ServingFault, ShadowConfig, WireAnswer,
};
use aqp::storage::read_table_file;
use std::collections::VecDeque;
use std::io::Write;
use std::time::{Duration, Instant};

/// `serve` — run the concurrent query server until SIGTERM/SIGINT (or a
/// `shutdown` request) drains it.
pub fn serve_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args.required("family")?;
    let view_path = args.optional("view");
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let threads = threads_arg(args)?;
    let confidence = args.get_or("confidence", 0.95f64)?;
    let row_budget = opt_usize(args, "row-budget")?;
    let default_deadline = opt_usize(args, "default-deadline-ms")?;
    let fixed_rate = args.optional("fixed-rate").map(|v| {
        v.parse::<f64>()
            .map_err(|_| CliError(format!("invalid value {v:?} for --fixed-rate")))
    });
    let drain_ms = args.get_or("drain-timeout-ms", 10_000u64)?;
    let metrics_out = args.optional("metrics-out");
    // Semantic answer cache: --cache-capacity 0 disables it;
    // --cache-ttl-ms 0 means no TTL.
    let cache_capacity = args.get_or("cache-capacity", 256usize)?;
    let cache_ttl_ms = args.get_or("cache-ttl-ms", 0u64)?;
    // Observability: flight-recorder ring size and anomaly-dump path,
    // shadow-audit sampling.
    let flight_cap =
        args.get_or("flight-recorder-cap", aqp::obs::flight::DEFAULT_FLIGHT_CAPACITY)?;
    let flight_dump = args.optional("flight-dump");
    let shadow_rate = args.get_or("shadow-rate", 0.0f64)?;
    let shadow_seed = args.get_or("shadow-seed", 0x5eed_5eed_u64)?;
    // Injected serving faults, e.g. `exec-stall@0,slow-read@2`.
    let faults: Vec<ServingFault> = args
        .optional("faults")
        .map_or(Ok(Vec::new()), |specs| specs.split(',').map(str::parse).collect())
        .map_err(CliError)?;
    let admission = AdmissionConfig {
        interactive: ClassLimits {
            max_inflight: args.get_or("interactive-inflight", 4usize)?.max(1),
            max_queue: args.get_or("interactive-queue", 8usize)?,
        },
        batch: ClassLimits {
            max_inflight: args.get_or("batch-inflight", 2usize)?.max(1),
            max_queue: args.get_or("batch-queue", 2usize)?,
        },
    };
    args.finish()?;

    let mut system = open_family(&family, out)?.with_threads(threads);
    if let Some(p) = view_path {
        let view = read_table_file(&p).map_err(at_path(&p))?;
        system = system.with_view(view);
    }
    if let Some(budget) = row_budget {
        system = system.with_row_budget(budget);
    }

    let config = ServerConfig {
        addr,
        admission,
        default_deadline: default_deadline.map(|ms| Duration::from_millis(ms as u64)),
        default_confidence: confidence,
        fixed_rows_per_ms: fixed_rate.transpose()?,
        drain_timeout: Duration::from_millis(drain_ms),
        cache: CacheConfig {
            capacity: cache_capacity,
            ttl: (cache_ttl_ms > 0).then(|| Duration::from_millis(cache_ttl_ms)),
            enabled: cache_capacity > 0,
        },
        metrics_out: metrics_out.map(Into::into),
        install_signal_handlers: true,
        flight_recorder_cap: flight_cap,
        flight_dump: flight_dump.map(Into::into),
        shadow: ShadowConfig {
            rate: shadow_rate.clamp(0.0, 1.0),
            seed: shadow_seed,
            ..ShadowConfig::default()
        },
        faults,
    };
    let shadow_on = config.shadow.rate > 0.0;
    let server = Server::bind(system, config).map_err(boxed)?;
    writeln!(
        out,
        "serving on {} (interactive {}x{}, batch {}x{}, flight ring {flight_cap}{}); SIGTERM or a shutdown request drains",
        server.local_addr().map_err(boxed)?,
        admission.interactive.max_inflight,
        admission.interactive.max_queue,
        admission.batch.max_inflight,
        admission.batch.max_queue,
        if shadow_on {
            format!(", shadow audit {:.0}%", shadow_rate.clamp(0.0, 1.0) * 100.0)
        } else {
            String::new()
        },
    )?;
    out.flush()?;
    let report = server.run().map_err(boxed)?;
    writeln!(
        out,
        "drained: {} requests ({} answered, {} shed, {} timeouts, {} draining rejects, {} errors) over {} connections; cache {} hits / {} misses / {} bypass",
        report.requests,
        report.answered,
        report.shed,
        report.timeouts,
        report.drained_rejects,
        report.errors,
        report.connections,
        report.cache_hits,
        report.cache_misses,
        report.cache_bypass,
    )?;
    Ok(())
}

/// `client` — send one request (`ping`, `metrics`, `stats`, `dump`,
/// `shutdown`, `invalidate`, or SQL) to a running server and print the
/// response.
pub fn client_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let class = ContractClass::parse(&args.optional("class").unwrap_or_default());
    let deadline_ms = opt_usize(args, "deadline-ms")?.map(|n| n as u64);
    let row_budget = opt_usize(args, "row-budget")?;
    let trace_id = args.optional("trace-id");
    let stats = args.flag("stats");
    let confidence = args
        .optional("confidence")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError(format!("invalid value {v:?} for --confidence")))
        })
        .transpose()?;
    let max_rel_error = args
        .optional("max-rel-error")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError(format!("invalid value {v:?} for --max-rel-error")))
        })
        .transpose()?;
    let attempts = args.get_or("attempts", 4u32)?.max(1);
    let seed = args.get_or("seed", 0x5eed_u64)?;
    let body = args.positionals()[1..].join(" ");
    args.finish()?;
    if body.is_empty() {
        return Err(CliError(
            "client needs a request: ping | metrics | stats | dump | shutdown | invalidate | SQL"
                .into(),
        ));
    }

    let request = match body.as_str() {
        "ping" => Request::Ping,
        "metrics" => Request::Metrics,
        "stats" => Request::Stats,
        "dump" => Request::Dump,
        "shutdown" => Request::Shutdown,
        "invalidate" => Request::Invalidate,
        sql => Request::Query {
            sql: sql.to_owned(),
            class,
            deadline_ms,
            row_budget,
            confidence,
            max_rel_error,
            trace_id,
        },
    };
    let policy = RetryPolicy { max_attempts: attempts, ..RetryPolicy::with_seed(seed) };
    let mut client = Client::new(addr, policy);
    let t0 = Instant::now();
    let outcome = match client.request(&request) {
        Ok(Response::Answer(answer)) => print_wire_answer(&answer, out),
        Ok(Response::Pong) => writeln!(out, "pong ({:?})", t0.elapsed()).map_err(boxed),
        Ok(Response::Metrics(text)) => write!(out, "{text}").map_err(boxed),
        Ok(Response::Stats(text)) => writeln!(out, "{text}").map_err(boxed),
        Ok(Response::Dump(text)) => write!(out, "{text}").map_err(boxed),
        Ok(Response::ShuttingDown) => writeln!(out, "server is shutting down").map_err(boxed),
        Ok(Response::Invalidated { epoch }) => {
            writeln!(out, "cache invalidated (epoch {epoch})").map_err(boxed)
        }
        Ok(Response::Draining) => {
            Err(CliError("server is draining; request not accepted".into()))
        }
        Ok(Response::Timeout { message, trace_id }) => Err(CliError(trace_note(
            format!("timeout: {message}"),
            &trace_id,
        ))),
        Ok(Response::Error { message, trace_id }) => Err(CliError(trace_note(
            format!("server: {message}"),
            &trace_id,
        ))),
        Ok(Response::Shed { retry_after_ms, .. }) => Err(CliError(format!(
            "shed (unretried); server suggests retrying in {retry_after_ms} ms"
        ))),
        Err(e @ ClientError::Shed { .. }) => Err(CliError(e.to_string())),
        Err(e) => Err(CliError(e.to_string())),
    };
    if stats {
        writeln!(out, "client: {}", client.stats().summary())?;
    }
    outcome
}

/// Append a `(trace <id>)` suffix when the server attached a trace id.
fn trace_note(message: String, trace_id: &str) -> String {
    if trace_id.is_empty() {
        message
    } else {
        format!("{message} (trace {trace_id})")
    }
}

/// Render a wire answer like the local `query` command renders a local
/// one: header row, group rows, then a tier/cost footer.
fn print_wire_answer(answer: &WireAnswer, out: &mut dyn Write) -> Result<(), CliError> {
    for name in &answer.group_names {
        write!(out, "{name}\t")?;
    }
    for alias in &answer.agg_aliases {
        write!(out, "{alias}\t")?;
    }
    writeln!(out)?;
    for group in &answer.groups {
        for key in &group.key {
            match key {
                aqp::obs::json::Value::Str(s) => write!(out, "{s}\t")?,
                other => write!(out, "{}\t", other.to_json())?,
            }
        }
        for v in &group.values {
            if v.exact {
                write!(out, "{:.2} (exact)\t", v.estimate)?;
            } else {
                write!(out, "{:.2} [{:.2}, {:.2}]\t", v.estimate, v.lo, v.hi)?;
            }
        }
        writeln!(out)?;
    }
    let mut notes = vec![format!("tier {}", answer.tier)];
    if answer.cache_hit {
        notes.push("cache-hit".into());
    }
    if answer.partial {
        notes.push("partial".into());
    }
    if answer.deadline_limited {
        notes.push("deadline-limited".into());
    }
    if let Some(b) = answer.effective_budget {
        notes.push(format!("budget {b}"));
    }
    if !answer.trace_id.is_empty() {
        notes.push(format!("trace {}", answer.trace_id));
    }
    writeln!(
        out,
        "-- {} | {} rows scanned | server {:.1} ms",
        notes.join(", "),
        answer.rows_scanned,
        answer.elapsed_ms
    )?;
    Ok(())
}

/// `top` — poll a running server's `stats` verb and render, per class,
/// its counts since start and over the windows its polls span, as a live
/// table. `--iterations 0` polls until interrupted.
pub fn top_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let interval_ms = args.get_or("interval-ms", 1000u64)?;
    let iterations = args.get_or("iterations", 0usize)?;
    args.finish()?;

    let mut client = Client::new(addr.clone(), RetryPolicy::no_retry());
    let mut polls = VecDeque::new();
    let mut polled = 0usize;
    loop {
        match client.request(&Request::Stats) {
            Ok(Response::Stats(text)) => polls.push_back(Poll::decode(&text, Instant::now())?),
            Ok(Response::Draining) | Ok(Response::ShuttingDown) => {
                writeln!(out, "server is draining")?;
                return Ok(());
            }
            Ok(other) => {
                return Err(CliError(format!("unexpected response to stats: {other:?}")))
            }
            Err(e) => return Err(CliError(format!("stats poll failed: {e}"))),
        }
        prune(&mut polls);
        render_top(&polls, &addr, out)?;
        out.flush()?;
        polled += 1;
        if iterations > 0 && polled >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
    }
}

/// The windows `top` shows beside `start`, narrowest first.
const WINDOWS: [(&str, Duration); 3] = [
    ("10s", Duration::from_secs(10)),
    ("1m", Duration::from_secs(60)),
    ("5m", Duration::from_secs(300)),
];

/// One `stats` poll: when `top` took it and what the server had counted
/// by then, since it started.
#[derive(Debug, Clone)]
struct Poll {
    at: Instant,
    classes: Vec<ClassCounts>,
    connections: u64,
    cache_hits: u64,
    flight_records: u64,
}

/// One class's query outcomes and answer latencies: since the server
/// started in a [`Poll`], over a window after [`ClassCounts::since`].
#[derive(Debug, Clone, PartialEq)]
struct ClassCounts {
    class: String,
    answer: u64,
    shed: u64,
    timeout: u64,
    error: u64,
    /// Answers per latency bucket, in nanoseconds and in the layout
    /// [`quantile`] reads (`NUM_BUCKETS` long).
    latency: Vec<u64>,
}

impl Poll {
    /// Decode a `stats` payload strictly: a member that is missing or
    /// mistyped is an error that names it, never a zero.
    fn decode(text: &str, at: Instant) -> Result<Poll, CliError> {
        let poll = json::parse(text).and_then(|v| {
            Ok(Poll {
                at,
                classes: v.items("classes", ClassCounts::decode)?,
                connections: v.u64_field("connections")?,
                cache_hits: v.u64_field("cache_hits")?,
                flight_records: v.u64_field("flight_records")?,
            })
        });
        poll.map_err(|e| CliError(format!("malformed stats payload: {e}")))
    }
}

impl ClassCounts {
    fn decode(v: &Value) -> Result<ClassCounts, String> {
        let mut latency = vec![0; NUM_BUCKETS];
        let pairs = v.items("latency", |pair| {
            pair.as_arr()
                .and_then(|p| match p {
                    [i, n] => Some((i.as_u64()?, n.as_u64()?)),
                    _ => None,
                })
                .filter(|&(i, _)| i < NUM_BUCKETS as u64)
                .ok_or_else(|| format!("must be an [index, count] pair, index below {NUM_BUCKETS}"))
        })?;
        // Each bucket once, in index order (as the server writes them), so
        // no count can overflow.
        if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("latency: bucket indexes must increase".into());
        }
        for (i, n) in pairs {
            latency[i as usize] = n;
        }
        Ok(ClassCounts {
            class: v.str_field("class")?.to_owned(),
            answer: v.u64_field("answer")?,
            shed: v.u64_field("shed")?,
            timeout: v.u64_field("timeout")?,
            error: v.u64_field("error")?,
            latency,
        })
    }

    fn requests(&self) -> u64 {
        self.answer + self.shed + self.timeout + self.error
    }

    /// What was counted after `earlier`, an older count of the same class.
    fn since(&self, earlier: &ClassCounts) -> ClassCounts {
        ClassCounts {
            class: self.class.clone(),
            answer: self.answer.saturating_sub(earlier.answer),
            shed: self.shed.saturating_sub(earlier.shed),
            timeout: self.timeout.saturating_sub(earlier.timeout),
            error: self.error.saturating_sub(earlier.error),
            latency: self.latency.iter().zip(&earlier.latency).map(|(a, b)| a.saturating_sub(*b)).collect(),
        }
    }
}

/// Drop the polls no window needs: every poll older than the newest one
/// that is at least the widest window older than the newest poll.
fn prune(polls: &mut VecDeque<Poll>) {
    let Some(newest) = polls.back().map(|p| p.at) else { return };
    let widest = WINDOWS[WINDOWS.len() - 1].1;
    while polls.len() > 1 && newest.duration_since(polls[1].at) >= widest {
        polls.pop_front();
    }
}

/// The rows `top` prints, class by class: `start`, what the newest poll
/// counted since the server started, then each of [`WINDOWS`] that the
/// polls span, as the newest poll minus the newest poll at least that old.
fn top_rows(polls: &VecDeque<Poll>) -> Vec<(&'static str, ClassCounts)> {
    let Some(newest) = polls.back() else { return Vec::new() };
    let bases: Vec<(&str, &Poll)> = WINDOWS
        .iter()
        .filter_map(|&(name, width)| {
            let base = polls.iter().rev().find(|p| newest.at.duration_since(p.at) >= width)?;
            Some((name, base))
        })
        .collect();
    let mut rows = Vec::new();
    for class in &newest.classes {
        rows.push(("start", class.clone()));
        for &(name, base) in &bases {
            if let Some(earlier) = base.classes.iter().find(|c| c.class == class.class) {
                rows.push((name, class.since(earlier)));
            }
        }
    }
    rows
}

/// `part` as a percentage of `whole` (0 when `whole` is).
fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Render the polls as the `top` table: server-wide totals since start in
/// the header (the cache's counters carry no class, so hit% is there),
/// then [`top_rows`].
fn render_top(polls: &VecDeque<Poll>, addr: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let Some(newest) = polls.back() else { return Ok(()) };
    let total = |count: fn(&ClassCounts) -> u64| newest.classes.iter().map(count).sum::<u64>();
    let requests = total(ClassCounts::requests);
    writeln!(
        out,
        "aqp top — {addr} | requests {requests} answered {} shed {} timeouts {} errors {} hit% {:.1} connections {} | flight {} records",
        total(|c| c.answer),
        total(|c| c.shed),
        total(|c| c.timeout),
        total(|c| c.error),
        percent(newest.cache_hits, requests),
        newest.connections,
        newest.flight_records,
    )?;
    writeln!(
        out,
        "{:<12} {:<5} {:>8} {:>7} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "class", "win", "reqs", "avail%", "shed%", "tmo%", "p50ms", "p95ms", "p99ms"
    )?;
    for (window, c) in top_rows(polls) {
        let requests = c.requests();
        // An empty window has lost nothing.
        let availability = if requests == 0 { 100.0 } else { percent(c.answer, requests) };
        let ms = |q| quantile(&c.latency, q) as f64 / 1e6;
        writeln!(
            out,
            "{:<12} {:<5} {:>8} {:>7.1} {:>6.1} {:>6.1} {:>9.2} {:>9.2} {:>9.2}",
            c.class,
            window,
            requests,
            availability,
            percent(c.shed, requests),
            percent(c.timeout, requests),
            ms(0.50),
            ms(0.95),
            ms(0.99),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp::obs::Histogram;

    /// A poll taken `secs` after `t0`: `answers` holds every answer's
    /// latency so far, `shed` the sheds so far.
    fn poll(t0: Instant, secs: u64, answers: &Histogram, shed: u64) -> Poll {
        let counts = |class: &str, latency: Vec<u64>| ClassCounts {
            class: class.to_owned(),
            answer: latency.iter().sum(),
            shed,
            timeout: 0,
            error: 0,
            latency,
        };
        Poll {
            at: t0 + Duration::from_secs(secs),
            classes: vec![counts("interactive", answers.buckets().to_vec()), counts("batch", vec![0; NUM_BUCKETS])],
            connections: 1,
            cache_hits: 0,
            flight_records: 0,
        }
    }

    fn windows(polls: &VecDeque<Poll>) -> Vec<&'static str> {
        top_rows(polls).into_iter().filter(|(_, c)| c.class == "interactive").map(|(w, _)| w).collect()
    }

    #[test]
    fn windows_show_once_polls_span_them_and_take_the_newest_old_enough_poll() {
        let t0 = Instant::now();
        let answers = Histogram::new();
        let mut polls = VecDeque::new();
        answers.observe(1_000_000);
        polls.push_back(poll(t0, 0, &answers, 0));
        answers.observe(2_000_000);
        polls.push_back(poll(t0, 1, &answers, 1));
        polls.push_back(poll(t0, 9, &answers, 1));
        assert_eq!(windows(&polls), ["start"], "9 s of polls span no window");

        // Between the poll at 1 s (the newest at least 10 s before 12 s)
        // and the one at 12 s: these answers, and one more shed.
        let window = Histogram::new();
        for ms in [3u64, 7, 40, 41, 250] {
            answers.observe(ms * 1_000_000);
            window.observe(ms * 1_000_000);
        }
        polls.push_back(poll(t0, 12, &answers, 2));
        assert_eq!(windows(&polls), ["start", "10s"]);
        let rows = top_rows(&polls);
        let (_, start) = &rows[0];
        assert_eq!((start.requests(), start.answer, start.shed), (9, 7, 2));
        let (_, ten) = &rows[1];
        assert_eq!((ten.requests(), ten.answer, ten.shed), (6, 5, 1));
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(quantile(&ten.latency, q), window.quantile(q), "q={q}");
        }
        assert_eq!(rows[2].0, "start", "batch follows with its own rows");
        assert_eq!(rows[3].1.requests(), 1, "batch's 10s window: the shed after 1 s");

        polls.push_back(poll(t0, 61, &answers, 2));
        assert_eq!(windows(&polls), ["start", "10s", "1m"]);
        assert_eq!(top_rows(&polls)[2].1.requests(), 6, "1m: 5 answers and a shed after the poll at 1 s");
        polls.push_back(poll(t0, 300, &answers, 3));
        assert_eq!(windows(&polls), ["start", "10s", "1m", "5m"]);
        assert_eq!(top_rows(&polls)[3].1.requests(), 9, "5m: 6 answers and 3 sheds after the poll at 0 s");

        // Only the newest poll at least 5 minutes old outlives a prune.
        polls.push_back(poll(t0, 305, &answers, 3));
        prune(&mut polls);
        let kept: Vec<u64> = polls.iter().map(|p| (p.at - t0).as_secs()).collect();
        assert_eq!(kept, [1, 9, 12, 61, 300, 305]);
        polls.push_back(poll(t0, 700, &answers, 3));
        prune(&mut polls);
        assert_eq!(polls.len(), 2, "305 is the newest poll 5 minutes before 700");
        assert_eq!(windows(&polls), ["start", "10s", "1m", "5m"]);
    }

    #[test]
    fn the_header_sums_both_classes_and_carries_the_hit_rate() {
        let t0 = Instant::now();
        let answers = Histogram::new();
        for ms in [1u64, 2, 3] {
            answers.observe(ms * 1_000_000);
        }
        let mut polled = poll(t0, 0, &answers, 1);
        polled.cache_hits = 3;
        polled.connections = 7;
        let mut out = Vec::new();
        render_top(&[polled].into(), "host:1", &mut out).unwrap();
        let table = String::from_utf8(out).unwrap();
        let header = table.lines().next().unwrap();
        // Interactive answered 3 and shed 1, batch shed 1: the hits are 3
        // of those 5 requests.
        assert_eq!(
            header,
            "aqp top — host:1 | requests 5 answered 3 shed 2 timeouts 0 errors 0 hit% 60.0 connections 7 | flight 0 records"
        );
        let p50 = quantile(&answers.buckets(), 0.5) as f64 / 1e6;
        assert!(table.lines().nth(2).unwrap().contains(&format!("{p50:.2}")), "{table}");
    }

    #[test]
    fn top_names_a_missing_or_mistyped_member() {
        let class = |shed: &str| {
            format!(r#"{{"class":"interactive","answer":1,{shed}"timeout":1,"error":0,"latency":[[120,1]]}}"#)
        };
        let payload = |shed: &str| {
            format!(r#"{{"classes":[{}],"connections":4,"cache_hits":0,"flight_records":3}}"#, class(shed))
        };
        let polls: VecDeque<Poll> = [Poll::decode(&payload(r#""shed":1,"#), Instant::now()).unwrap()].into();
        let mut out = Vec::new();
        render_top(&polls, "test", &mut out).unwrap();
        let table = String::from_utf8(out).unwrap();
        let row: Vec<&str> = table.lines().nth(2).unwrap().split_whitespace().collect();
        assert_eq!(row[..6], ["interactive", "start", "3", "33.3", "33.3", "33.3"], "{table}");

        let err = Poll::decode(&payload(""), Instant::now()).unwrap_err();
        assert!(err.0.contains(r#"classes[0]: missing field "shed""#), "{err}");
        let err = Poll::decode(&payload(r#""shed":"1","#), Instant::now()).unwrap_err();
        assert!(err.0.contains(r#"field "shed" must be"#), "{err}");
        let bad_bucket = payload(r#""shed":1,"#).replace("[[120,1]]", "[[256,1]]");
        let err = Poll::decode(&bad_bucket, Instant::now()).unwrap_err();
        assert!(err.0.contains("latency[0]"), "{err}");
        let repeated = payload(r#""shed":1,"#).replace("[[120,1]]", "[[120,1],[120,1]]");
        let err = Poll::decode(&repeated, Instant::now()).unwrap_err();
        assert!(err.0.contains("bucket indexes must increase"), "{err}");
        let err = Poll::decode(r#"{"classes":[]}"#, Instant::now()).unwrap_err();
        assert!(err.0.contains(r#""connections""#), "{err}");
    }
}
