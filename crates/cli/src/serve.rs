//! `serve`, `client`, and `top` subcommands.
//!
//! `serve` turns the CLI into a long-running concurrent query server on
//! the wire protocol from [`aqp::serving`]; `client` is the matching
//! cooperative client (bounded retry with backoff on shed); `top` is a
//! live terminal view over the server's `stats` verb (per-class SLO
//! windows).

use crate::args::Args;
use crate::commands::{at_path, boxed, open_family, opt_usize, threads_arg, CliError};
use aqp::obs::json::Value;
use aqp::obs::SloConfig;
use aqp::serving::{
    AdmissionConfig, CacheConfig, Client, ClassLimits, ClientError, ContractClass, Request,
    Response, RetryPolicy, Server, ServerConfig, ShadowConfig, WireAnswer,
};
use aqp::storage::read_table_file;
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
    // Semantic answer cache: --cache-capacity 0 (or AQP_CACHE=off in the
    // environment) disables it; --cache-ttl-ms 0 means no TTL.
    let cache_capacity = args.get_or("cache-capacity", 256usize)?;
    let cache_ttl_ms = args.get_or("cache-ttl-ms", 0u64)?;
    // Observability: flight-recorder ring size and anomaly-dump path,
    // shadow-audit sampling, SLO watchdog thresholds.
    let flight_cap =
        args.get_or("flight-recorder-cap", aqp::obs::flight::DEFAULT_FLIGHT_CAPACITY)?;
    let flight_dump = args.optional("flight-dump");
    let shadow_rate = args.get_or("shadow-rate", 0.0f64)?;
    let shadow_seed = args.get_or("shadow-seed", 0x5eed_5eed_u64)?;
    let slo_availability = args.get_or("slo-availability", 0.99f64)?;
    let slo_p99_ms = opt_usize(args, "slo-p99-ms")?;
    let slo_min_requests = args.get_or("slo-min-requests", 10u64)?;
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
        slo: SloConfig {
            availability_target: slo_availability,
            p99_limit: slo_p99_ms.map(|ms| Duration::from_millis(ms as u64)),
            min_requests: slo_min_requests,
        },
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

/// `top` — poll a running server's `stats` verb and render the SLO
/// windows as a live table. `--iterations 0` polls until interrupted.
pub fn top_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let interval_ms = args.get_or("interval-ms", 1000u64)?;
    let iterations = args.get_or("iterations", 0usize)?;
    args.finish()?;

    let mut client = Client::new(addr.clone(), RetryPolicy::no_retry());
    let mut polls = 0usize;
    loop {
        match client.request(&Request::Stats) {
            Ok(Response::Stats(text)) => render_top(&text, &addr, out)?,
            Ok(Response::Draining) | Ok(Response::ShuttingDown) => {
                writeln!(out, "server is draining")?;
                return Ok(());
            }
            Ok(other) => {
                return Err(CliError(format!("unexpected response to stats: {other:?}")))
            }
            Err(e) => return Err(CliError(format!("stats poll failed: {e}"))),
        }
        out.flush()?;
        polls += 1;
        if iterations > 0 && polls >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
    }
}

/// Render one `stats` payload as the `top` table.
fn render_top(text: &str, addr: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let v = aqp::obs::json::parse(text)
        .map_err(|e| CliError(format!("malformed stats payload: {e}")))?;
    let tallies = v.get("tallies");
    let field = |k: &str| {
        tallies
            .and_then(|t| t.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    writeln!(
        out,
        "aqp top — {addr} | requests {} answered {} shed {} timeouts {} errors {} cache-hits {} connections {} | flight {} records",
        field("requests"),
        field("answered"),
        field("shed"),
        field("timeouts"),
        field("errors"),
        field("cache_hits"),
        field("connections"),
        v.get("flight_records").and_then(Value::as_u64).unwrap_or(0),
    )?;
    writeln!(
        out,
        "{:<12} {:<4} {:>8} {:>7} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "class", "win", "reqs", "avail%", "shed%", "tmo%", "hit%", "p50ms", "p95ms", "p99ms"
    )?;
    let pct = |w: &Value, k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0) * 100.0;
    for class in v.get("classes").and_then(Value::as_arr).unwrap_or(&[]) {
        let label = class.get("class").and_then(Value::as_str).unwrap_or("?");
        let breach = class.get("in_breach").and_then(Value::as_bool).unwrap_or(false);
        for w in class.get("windows").and_then(Value::as_arr).unwrap_or(&[]) {
            writeln!(
                out,
                "{:<12} {:<4} {:>8} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>9.2} {:>9.2} {:>9.2}{}",
                label,
                w.get("window").and_then(Value::as_str).unwrap_or("?"),
                w.get("requests").and_then(Value::as_u64).unwrap_or(0),
                pct(w, "availability"),
                pct(w, "shed_rate"),
                pct(w, "timeout_rate"),
                pct(w, "cache_hit_rate"),
                w.get("p50_ms").and_then(Value::as_f64).unwrap_or(0.0),
                w.get("p95_ms").and_then(Value::as_f64).unwrap_or(0.0),
                w.get("p99_ms").and_then(Value::as_f64).unwrap_or(0.0),
                if breach { "  << BREACH" } else { "" },
            )?;
        }
    }
    Ok(())
}
