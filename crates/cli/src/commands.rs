//! CLI subcommands.

use crate::args::Args;
use aqp::prelude::*;
use aqp::storage::{read_csv_file, read_table_file, write_csv_file, write_table_file};
use std::fmt;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Top-level CLI error.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<crate::args::ArgError> for CliError {
    fn from(e: crate::args::ArgError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<aqp::storage::StorageError> for CliError {
    fn from(e: aqp::storage::StorageError) -> Self {
        CliError(e.to_string())
    }
}

impl From<AqpError> for CliError {
    fn from(e: AqpError) -> Self {
        CliError(e.to_string())
    }
}

pub(crate) fn boxed<E: std::fmt::Display>(e: E) -> CliError {
    CliError(e.to_string())
}

/// Add the offending path to a load/save error so the user knows which
/// file to look at.
pub(crate) fn at_path<E: std::fmt::Display>(path: &str) -> impl Fn(E) -> CliError + '_ {
    move |e| CliError(format!("{path}: {e}"))
}

pub(crate) fn opt_usize(args: &Args, name: &str) -> Result<Option<usize>, CliError> {
    match args.optional(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| CliError(format!("invalid value {v:?} for --{name}"))),
    }
}

/// `--threads N`, defaulting to the machine's available parallelism.
/// Zero is clamped to one so a bad value can never disable execution.
pub(crate) fn threads_arg(args: &Args) -> Result<usize, CliError> {
    Ok(opt_usize(args, "threads")?
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .max(1))
}

/// Usage text.
pub const USAGE: &str = "\
aqp-cli — dynamic sample selection for approximate query processing

USAGE:
  aqp-cli generate tpch  [--scale F] [--skew F] [--seed N] --out FILE
  aqp-cli generate sales [--rows N] [--skew F] [--seed N] --out FILE
  aqp-cli import --csv FILE [--name NAME] --out FILE
  aqp-cli export --view FILE --out FILE.csv
  aqp-cli preprocess --view FILE [--rate F] [--gamma F] [--tau N] [--seed N]
                     [--outlier-column COL] --out FILE
  aqp-cli catalog --family FILE
  aqp-cli query --family FILE [--view FILE] [--exact] [--confidence F]
                [--row-budget N] [--threads N] [--trace] [--stats] SQL
  aqp-cli explain --family FILE [--view FILE] [--analyze] [--confidence F]
                  [--row-budget N] [--threads N] SQL
  aqp-cli repl --family FILE [--view FILE] [--row-budget N] [--threads N]
               [--trace] [--stats]
  aqp-cli workload --family FILE --view FILE [--queries N] [--grouping N]
                   [--seed N] [--confidence F] [--row-budget N] [--threads N]
                   [--trace] [--stats] [--calibrate] [--obs-out PREFIX]
  aqp-cli serve --family FILE [--view FILE] [--addr HOST:PORT] [--threads N]
                [--confidence F] [--row-budget N] [--default-deadline-ms N]
                [--fixed-rate F] [--drain-timeout-ms N] [--metrics-out FILE]
                [--interactive-inflight N] [--interactive-queue N]
                [--batch-inflight N] [--batch-queue N]
                [--cache-capacity N] [--cache-ttl-ms N]
                [--flight-recorder-cap N] [--flight-dump FILE]
                [--shadow-rate F] [--shadow-seed N] [--faults SPEC[,SPEC]]
  aqp-cli client [--addr HOST:PORT] [--class interactive|batch]
                 [--deadline-ms N] [--row-budget N] [--confidence F]
                 [--max-rel-error F] [--attempts N] [--seed N]
                 [--trace-id ID] [--stats]
                 (SQL | ping | metrics | stats | dump | shutdown | invalidate)
  aqp-cli top [--addr HOST:PORT] [--interval-ms N] [--iterations N]
  aqp-cli dashboard PREFIX
  aqp-cli validate-trace FILE

Views are stored as .aqpt binary tables; sample families as .aqps files.
In SQL the FROM clause names are ignored — queries always run against the
loaded family/view.

query/repl/workload serve through the degradation ladder: a missing or
corrupt sample family is salvaged or bypassed (warning printed) and each
answer is tagged with the tier that served it; --row-budget caps the rows
any single query may scan. --threads sets the morsel-driven execution
parallelism (default: available hardware parallelism); answers are
bit-identical at any thread count.

--trace prints one JSON request record per query (plan, sample tables
consulted, serving tier, rows scanned, operator profiles, span time per
name in microseconds) — the record a server keeps per request; for
workload it also writes PREFIX_traces.jsonl (the traces),
PREFIX_metrics.prom (the metrics snapshot) and PREFIX_report.json (the
accuracy summary and tier counts only; default PREFIX: OBS). --stats
prints a Prometheus text-format metrics snapshot after the command.
validate-trace decodes every line of a .jsonl file of request records
(a traced workload's, or a server's flight dump) strictly:
schema_version 4 with every field present and typed.

Zone-map pruning: scans consult per-block min/max/null/dictionary
summaries persisted in .aqpt files (recomputed lazily when absent) to
skip blocks no row can match and to drop per-row predicate evaluation on
blocks every row matches; answers are bit-identical either way by
contract. explain --analyze and traces report blocks
skipped/taken/scanned and rows pruned per operator, and
aqp_prune_blocks_total{outcome=...} counts block outcomes whenever a
prune plan is active.

serve runs a concurrent TCP query server (4-byte length-prefixed JSON
frames) over the same degradation ladder: per-class admission control
with bounded queues sheds overload with retry hints, per-query deadlines
step answers down to cheaper tiers instead of missing (the wire carries
tier/partial/deadline_limited), and SIGTERM or a shutdown request drains
in-flight work before exit. client sends one request with bounded
retry + exponential backoff + jitter on shed and transport errors.
--faults injects serving faults into this server: accept-drop@N,
write-stall@N, slow-read@N, exec-stall@N (the (N+1)-th accept, write,
read or execution; comma-separated). Any other spec is an error.

The server keeps a semantic answer cache keyed on canonicalized plans:
a repeated query (any whitespace/alias/predicate-order formatting) is
re-served from cache when the cached answer meets the request's
confidence (and --max-rel-error) contract at equal-or-tighter bounds;
concurrent identical misses execute once (single-flight). Answers served
from cache carry cache_hit on the wire. --cache-capacity bounds entries
(0 disables; LRU evicts beyond it), --cache-ttl-ms ages them out, and
the invalidate request drops everything after a table rebuild.

Every query carries a trace id on the wire (client-supplied via
--trace-id or server-generated) and gets it back on the answer, shed,
timeout, or error response; the server stamps it into events and into
an always-on flight recorder — a ring of the last N request records
(--flight-recorder-cap), each with a contiguous stage timeline
(read/parse/cache/admission/execute/serialize/write, microseconds) and,
for an executed query, the same plan, sample tables and operator
profiles --trace prints.
The ring is dumped as JSONL to --flight-dump on every anomaly (shed,
timeout, error) and at exit, or fetched live with the dump verb. The
stats verb returns what the server counted since it started: per class,
its answer/shed/timeout/error counts and answer-latency histogram (parse
to answer). top polls it every --interval-ms and prints, per class, a
start row and one row for each of the last 10s/1m/5m that its own polls
span (each the newest poll minus the newest poll at least that old):
requests, availability, shed and timeout rates, latency p50/p95/p99;
its header carries the server-wide cache hit rate.
--shadow-rate F samples that fraction of sampled-tier answers for a
background exact re-execution (never holding an admission slot) and
records realized error vs the promised CI as aqp_shadow_* metrics.
client --stats prints a retry/shed summary line.

explain prints the sampler's static rewrite plan for a query; with
--analyze it also executes the query and reports a per-operator profile
(rows in/out, selectivity, morsels per worker, per-morsel latency
quantiles, logical memory) with per-stratum attribution that reconciles
with the trace's rows_scanned. workload --calibrate runs the CI-coverage
calibration audit (observed vs nominal interval coverage per aggregate
function, per group-size decile and per sampled-row count n of the
estimate: 1, 2, 3-5, 6-20, 21+; with Agresti-Coull under-coverage
flagging) and writes PREFIX_calibration.json. dashboard combines
PREFIX_report.json (summary and tiers), PREFIX_traces.jsonl (explain
profiles and span times, each line decoded strictly) and
PREFIX_calibration.json, whichever exist, into a single self-contained
PREFIX_dashboard.html.";

/// Dispatch one CLI invocation. `out` receives user-facing output.
pub fn run(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let command = args
        .positionals()
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    match command {
        "generate" => generate(&args, out),
        "import" => import(&args, out),
        "export" => export(&args, out),
        "preprocess" => preprocess(&args, out),
        "catalog" => catalog(&args, out),
        "query" => query_command(&args, out),
        "explain" => explain_command(&args, out),
        "workload" => workload_command(&args, out),
        "serve" => crate::serve::serve_command(&args, out),
        "client" => crate::serve::client_command(&args, out),
        "top" => crate::serve::top_command(&args, out),
        "dashboard" => dashboard_command(&args, out),
        "validate-trace" => validate_trace_command(&args, out),
        "repl" => repl(&args, out, &mut std::io::stdin().lock()),
        "help" | "--help" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let kind = args
        .positionals()
        .get(1)
        .ok_or_else(|| CliError("generate needs a dataset kind: tpch | sales".into()))?
        .clone();
    let out_path = args.required("out")?;
    let seed = args.get_or("seed", 42u64)?;
    let t0 = Instant::now();
    let star = match kind.as_str() {
        "tpch" => {
            let scale = args.get_or("scale", 0.5f64)?;
            let skew = args.get_or("skew", 2.0f64)?;
            args.finish()?;
            gen_tpch(&TpchConfig {
                scale_factor: scale,
                zipf_z: skew,
                seed,
            })
            .map_err(boxed)?
        }
        "sales" => {
            let rows = args.get_or("rows", 50_000usize)?;
            let skew = args.get_or("skew", 1.5f64)?;
            args.finish()?;
            gen_sales(&SalesConfig {
                fact_rows: rows,
                zipf_z: skew,
                seed,
            })
            .map_err(boxed)?
        }
        other => return Err(CliError(format!("unknown dataset kind {other:?}"))),
    };
    let view = star.denormalize("view").map_err(boxed)?;
    write_table_file(&view, &out_path)?;
    writeln!(
        out,
        "generated {kind}: {} rows x {} columns -> {out_path} ({:.1} MB) in {:?}",
        view.num_rows(),
        view.schema().len(),
        view.byte_size() as f64 / 1e6,
        t0.elapsed()
    )?;
    Ok(())
}

fn import(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let csv_path = args.required("csv")?;
    let out_path = args.required("out")?;
    let name = args.optional("name").unwrap_or_else(|| "view".to_owned());
    args.finish()?;
    let table = read_csv_file(name, &csv_path)?;
    write_table_file(&table, &out_path)?;
    writeln!(
        out,
        "imported {}: {} rows x {} columns -> {out_path}",
        csv_path,
        table.num_rows(),
        table.schema().len()
    )?;
    Ok(())
}

fn export(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let view_path = args.required("view")?;
    let out_path = args.required("out")?;
    args.finish()?;
    let table = read_table_file(&view_path)?;
    write_csv_file(&table, &out_path)?;
    writeln!(
        out,
        "exported {} rows x {} columns -> {out_path}",
        table.num_rows(),
        table.schema().len()
    )?;
    Ok(())
}

fn preprocess(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let view_path = args.required("view")?;
    let out_path = args.required("out")?;
    let rate = args.get_or("rate", 0.01f64)?;
    let gamma = args.get_or("gamma", 0.5f64)?;
    let tau = args.get_or("tau", 5000usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let outlier_column = args.optional("outlier-column");
    args.finish()?;

    let view = read_table_file(&view_path)?;
    let mut config = SmallGroupConfig {
        tau,
        seed,
        ..SmallGroupConfig::with_rates(rate, gamma)
    };
    if let Some(column) = outlier_column {
        config.overall = OverallKind::OutlierIndexed { column };
    }
    let t0 = Instant::now();
    let sampler = SmallGroupSampler::build(&view, config).map_err(boxed)?;
    sampler.save(&out_path).map_err(at_path(&out_path))?;
    writeln!(
        out,
        "preprocessed {} rows in {:?}: {} small group tables, overall sample {} rows -> {out_path}",
        view.num_rows(),
        t0.elapsed(),
        sampler.catalog().num_tables(),
        sampler.catalog().overall_rows,
    )?;
    Ok(())
}

fn catalog(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args.required("family")?;
    args.finish()?;
    let sampler = SmallGroupSampler::load(&family).map_err(at_path(&family))?;
    writeln!(out, "{}", sampler.catalog())?;
    Ok(())
}

/// Open a sample family through the degradation ladder, printing warnings
/// for anything short of a fully intact load.
pub(crate) fn open_family(family: &str, out: &mut dyn Write) -> Result<ResilientSystem, CliError> {
    let (system, report) = ResilientSystem::open(family);
    if !report.primary_intact {
        // Structured events ride alongside the (unchanged) printed
        // warnings; the default stderr/stdout bytes stay identical.
        if let Some(err) = &report.primary_error {
            aqp::obs::event::warn(
                "cli::open",
                "sample family load error",
                &[("family", family), ("error", &err.to_string())],
            );
            writeln!(out, "-- warning: {family}: {err}")?;
        }
        if !report.disabled_units.is_empty() {
            aqp::obs::event::warn(
                "cli::open",
                "serving degraded",
                &[("family", family), ("disabled_units", &report.disabled_units.join(","))],
            );
            writeln!(
                out,
                "-- warning: serving degraded; disabled small group tables: {}",
                report.disabled_units.join(", ")
            )?;
        } else if system.primary().is_some() {
            aqp::obs::event::warn(
                "cli::open",
                "file framing damaged but sample tables salvaged",
                &[("family", family)],
            );
            writeln!(out, "-- warning: file framing damaged but all sample tables salvaged")?;
        } else {
            aqp::obs::event::warn(
                "cli::open",
                "sample family unusable; exact tier only",
                &[("family", family)],
            );
            writeln!(
                out,
                "-- warning: sample family unusable; only the exact tier can serve (needs --view)"
            )?;
        }
    }
    Ok(system)
}

fn query_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args.required("family")?;
    let view_path = args.optional("view");
    let want_exact = args.flag("exact");
    let trace = args.flag("trace");
    let stats = args.flag("stats");
    let confidence = args.get_or("confidence", 0.95f64)?;
    let row_budget = opt_usize(args, "row-budget")?;
    let threads = threads_arg(args)?;
    // Join all trailing positionals so unquoted SQL still forms the full
    // statement instead of silently truncating to its first word.
    let sql = args.positionals()[1..].join(" ");
    if sql.is_empty() {
        return Err(CliError("query needs a SQL string".into()));
    }
    args.finish()?;

    if want_exact && view_path.is_none() {
        return Err(CliError("--exact needs --view to compute the exact answer".into()));
    }
    let mut system = open_family(&family, out)?.with_threads(threads);
    let view = view_path
        .map(|p| read_table_file(&p).map_err(at_path(&p)))
        .transpose()?;
    if let Some(v) = &view {
        system = system.with_view(v.clone());
    }
    if let Some(budget) = row_budget {
        system = system.with_row_budget(budget);
    }
    answer_one(&system, view.as_ref(), &sql, want_exact, confidence, trace, out)?;
    if stats {
        write_metrics_snapshot(out)?;
    }
    Ok(())
}

/// Print the global metrics registry as Prometheus text exposition.
pub(crate) fn write_metrics_snapshot(out: &mut dyn Write) -> Result<(), CliError> {
    write!(out, "{}", aqp::obs::to_prometheus(&aqp::obs::global().snapshot()))?;
    Ok(())
}

/// Parse, answer and print one SQL query. With `trace` the query's
/// [`RequestRecord`] is printed as one JSON line after the summary.
fn answer_one(
    system: &ResilientSystem,
    view: Option<&Table>,
    sql: &str,
    want_exact: bool,
    confidence: f64,
    trace: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let parsed = parse_query(sql).map_err(boxed)?;
    let t0 = Instant::now();
    let (answer, query_trace) = if trace {
        let (a, t) = system.answer_traced(&parsed.query, confidence).map_err(boxed)?;
        (a, Some(t))
    } else {
        (system.answer(&parsed.query, confidence).map_err(boxed)?, None)
    };
    let approx_time = t0.elapsed();

    let exact = if want_exact {
        let view = view.ok_or_else(|| CliError("exact comparison needs a view".into()))?;
        Some(exact_answer(&DataSource::Wide(view), &parsed.query).map_err(boxed)?)
    } else {
        None
    };

    // Header.
    for name in &answer.group_names {
        write!(out, "{name}\t")?;
    }
    for alias in &answer.agg_aliases {
        write!(out, "{alias}\t")?;
    }
    if exact.is_some() {
        for alias in &answer.agg_aliases {
            write!(out, "exact {alias}\t")?;
        }
    }
    writeln!(out)?;

    for group in &answer.groups {
        for key in &group.key {
            write!(out, "{key}\t")?;
        }
        for value in &group.values {
            if value.is_exact() {
                write!(out, "{:.2}*\t", value.value())?;
            } else {
                write!(out, "{:.2} [{:.2},{:.2}]\t", value.value(), value.ci.lo, value.ci.hi)?;
            }
        }
        if let Some(ex) = &exact {
            // One truth value per aggregate, aligned with the estimates.
            for per_agg in &ex.per_agg {
                match per_agg.get(&group.key) {
                    Some(truth) => write!(out, "{truth:.2}\t")?,
                    None => write!(out, "-\t")?,
                }
            }
        }
        writeln!(out)?;
    }
    write!(
        out,
        "-- {} groups, {} rows scanned, tier {}{}, {approx_time:?}",
        answer.num_groups(),
        answer.rows_scanned,
        answer.tier,
        if answer.partial { " (partial: row budget hit)" } else { "" },
    )?;
    if let Some(ex) = &exact {
        let missed = ex.per_agg[0].keys().filter(|k| answer.group(k).is_none()).count();
        write!(out, "; exact has {} groups ({missed} missed)", ex.num_groups())?;
    }
    writeln!(out)?;
    match answer.tier {
        ServingTier::Primary | ServingTier::DegradedPrimary => {
            writeln!(out, "-- * = exact from small group tables")?
        }
        ServingTier::Overall | ServingTier::Exact => writeln!(out, "-- * = exact")?,
    }
    if let Some(t) = query_trace {
        writeln!(out, "{}", t.to_json())?;
    }
    Ok(())
}

/// `explain` — print the sampler's static rewrite plan for one query;
/// with `--analyze`, also execute it and append the per-operator profile
/// tree collected on the control thread.
fn explain_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args.required("family")?;
    let view_path = args.optional("view");
    let analyze = args.flag("analyze");
    let confidence = args.get_or("confidence", 0.95f64)?;
    let row_budget = opt_usize(args, "row-budget")?;
    let threads = threads_arg(args)?;
    let sql = args.positionals()[1..].join(" ");
    if sql.is_empty() {
        return Err(CliError("explain needs a SQL string".into()));
    }
    args.finish()?;

    let mut system = open_family(&family, out)?.with_threads(threads);
    if let Some(p) = view_path {
        let v = read_table_file(&p).map_err(at_path(&p))?;
        system = system.with_view(v);
    }
    if let Some(budget) = row_budget {
        system = system.with_row_budget(budget);
    }
    let parsed = parse_query(&sql).map_err(boxed)?;
    match system.primary() {
        Some(sampler) => writeln!(out, "{}", sampler.explain(&parsed.query))?,
        None => writeln!(
            out,
            "no sample family loaded; the exact tier would scan the base view"
        )?,
    }
    if analyze {
        let (_, trace) = system.answer_traced(&parsed.query, confidence).map_err(boxed)?;
        write!(out, "{}", render_operator_tree(&trace))?;
    }
    Ok(())
}

/// Render the per-operator profiles of a trace as a text tree, ending
/// with the `rows_in` vs `rows_scanned` reconciliation line.
fn render_operator_tree(trace: &RequestRecord) -> String {
    let mut s = format!(
        "analyze: tier {}, plan {}, {} operator(s), {} µs\n",
        trace.serving_tier,
        trace.plan,
        trace.operators.len(),
        trace.total_micros
    );
    let last = trace.operators.len().saturating_sub(1);
    for (i, op) in trace.operators.iter().enumerate() {
        let (branch, pad) = if i == last { ("`-", "  ") } else { ("|-", "| ") };
        let kernel = if op.kernel.is_empty() {
            String::new()
        } else {
            format!(", kernel {}", op.kernel)
        };
        s.push_str(&format!(
            "{branch} {} [stratum {}, weight {}{kernel}]\n",
            op.op, op.stratum, op.weight
        ));
        s.push_str(&format!(
            "{pad}   rows {} -> {} (selectivity {:.4}), {} morsel(s) across {} worker(s)\n",
            op.rows_in,
            op.rows_out,
            op.selectivity(),
            op.morsels,
            op.morsels_per_worker.len().max(1),
        ));
        s.push_str(&format!(
            "{pad}   morsel p50/p95/p99 {} / {} / {}, mem peak {}, resident {}\n",
            fmt_ns(op.morsel_p50_ns),
            fmt_ns(op.morsel_p95_ns),
            fmt_ns(op.morsel_p99_ns),
            fmt_bytes(op.mem_peak_bytes),
            fmt_bytes(op.mem_current_bytes),
        ));
        let blocks = op.blocks_skipped + op.blocks_taken + op.blocks_scanned;
        if blocks > 0 {
            s.push_str(&format!(
                "{pad}   pruning: {} block(s) skipped / {} taken / {} scanned of {}, {} row(s) pruned\n",
                op.blocks_skipped, op.blocks_taken, op.blocks_scanned, blocks, op.rows_pruned,
            ));
        }
    }
    let rows_in_total: u64 = trace.operators.iter().map(|o| o.rows_in).sum();
    s.push_str(&format!(
        "operator rows_in total {} vs trace rows_scanned {} -> {}\n",
        rows_in_total,
        trace.rows_scanned,
        if rows_in_total == trace.rows_scanned {
            "reconciles"
        } else {
            "MISMATCH"
        }
    ));
    s
}

/// Nanoseconds as a short human latency.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Bytes as a short human size.
fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b < 1024.0 {
        format!("{b:.0} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    }
}

/// Run a generated query workload through the degradation ladder and
/// report accuracy plus per-tier serving counts.
fn workload_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let family = args.required("family")?;
    let view_path = args.required("view")?;
    let count = args.get_or("queries", 20usize)?;
    let grouping = args.get_or("grouping", 1usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let confidence = args.get_or("confidence", 0.95f64)?;
    let row_budget = opt_usize(args, "row-budget")?;
    let threads = threads_arg(args)?;
    let trace = args.flag("trace");
    let stats = args.flag("stats");
    let calibrate = args.flag("calibrate");
    let obs_prefix = args.optional("obs-out").unwrap_or_else(|| "OBS".to_owned());
    args.finish()?;

    let view = read_table_file(&view_path).map_err(at_path(&view_path))?;
    let mut system = open_family(&family, out)?
        .with_threads(threads)
        .with_view(view.clone());
    if let Some(budget) = row_budget {
        system = system.with_row_budget(budget);
    }

    let profile = DatasetProfile::new(&view, &[], &[], 100);
    let eligible = profile.column_names().len();
    if eligible < grouping {
        return Err(CliError(format!(
            "view has {eligible} group-by-eligible columns but --grouping is {grouping}"
        )));
    }
    let queries = generate_queries(
        &profile,
        &QueryGenConfig {
            grouping_columns: grouping,
            seed,
            ..QueryGenConfig::default()
        },
        count,
    );
    let t0 = Instant::now();
    let (summary, traces) =
        evaluate_queries_traced(&system, &DataSource::Wide(&view), &queries, confidence, trace)
            .map_err(boxed)?;
    writeln!(
        out,
        "{} queries in {:?}: RelErr {:.4}, PctGroups {:.1}%, mean approx {:.2} ms",
        summary.queries,
        t0.elapsed(),
        summary.rel_err,
        summary.pct_groups,
        summary.approx_ms,
    )?;
    writeln!(out, "tiers: {}", summary.tiers)?;
    if summary.tiers.degraded_total() > 0 {
        writeln!(
            out,
            "-- {} of {} answers served below the primary tier",
            summary.tiers.degraded_total(),
            summary.tiers.total(),
        )?;
    }
    if trace {
        let snapshot = aqp::obs::global().snapshot();
        let traces_path = format!("{obs_prefix}_traces.jsonl");
        let mut jsonl = String::new();
        for t in &traces {
            jsonl.push_str(&t.to_json());
            jsonl.push('\n');
        }
        std::fs::write(&traces_path, jsonl).map_err(at_path(&traces_path))?;
        let metrics_path = format!("{obs_prefix}_metrics.prom");
        std::fs::write(&metrics_path, aqp::obs::to_prometheus(&snapshot))
            .map_err(at_path(&metrics_path))?;
        let report_path = format!("{obs_prefix}_report.json");
        std::fs::write(&report_path, obs_report_json(&summary)).map_err(at_path(&report_path))?;
        writeln!(
            out,
            "observability: {} traces -> {traces_path}, metrics -> {metrics_path}, report -> {report_path}",
            traces.len(),
        )?;
    }
    if calibrate {
        // The audit wants SUM/AVG batches too: every Float64 column is a
        // measure (the accuracy workload above keeps them out of group-bys
        // for the same reason).
        let measures: Vec<String> = view
            .schema()
            .fields()
            .iter()
            .filter(|f| f.data_type == DataType::Float64)
            .map(|f| f.name.clone())
            .collect();
        let measure_refs: Vec<&str> = measures.iter().map(String::as_str).collect();
        let cal_profile = DatasetProfile::new(&view, &measure_refs, &[], 100);
        let report = aqp::workload::run_calibration(
            &system,
            &DataSource::Wide(&view),
            &cal_profile,
            &aqp::workload::CalibrationConfig {
                nominal: confidence,
                queries_per_function: count,
                grouping_columns: grouping,
                seed,
                threads,
            },
        )
        .map_err(boxed)?;
        write!(out, "{report}")?;
        let cal_path = format!("{obs_prefix}_calibration.json");
        std::fs::write(&cal_path, report.to_json()).map_err(at_path(&cal_path))?;
        writeln!(
            out,
            "calibration: {} auditable cells over {} queries -> {cal_path}",
            report.overall.cells, report.queries,
        )?;
    }
    if stats {
        write_metrics_snapshot(out)?;
    }
    Ok(())
}

/// `dashboard PREFIX` — combine the artifacts written under PREFIX
/// (report, traces, calibration; whichever exist) into one
/// dependency-free HTML file at `PREFIX_dashboard.html`.
fn dashboard_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let prefix = args
        .positionals()
        .get(1)
        .ok_or_else(|| {
            CliError("dashboard needs a PREFIX argument (as passed to --obs-out)".into())
        })?
        .clone();
    args.finish()?;

    let report_path = format!("{prefix}_report.json");
    let report = match std::fs::read_to_string(&report_path) {
        Ok(text) => Some(aqp::obs::json::parse(&text).map_err(at_path(&report_path))?),
        Err(_) => None,
    };
    let calibration_path = format!("{prefix}_calibration.json");
    let calibration = match std::fs::read_to_string(&calibration_path) {
        Ok(text) => Some(aqp::obs::json::parse(&text).map_err(at_path(&calibration_path))?),
        Err(_) => None,
    };
    let traces_path = format!("{prefix}_traces.jsonl");
    let mut traces = Vec::new();
    let mut have_traces = false;
    if let Ok(text) = std::fs::read_to_string(&traces_path) {
        have_traces = true;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            traces.push(
                RequestRecord::from_json(line)
                    .map_err(|e| CliError(format!("{traces_path}:{}: {e}", lineno + 1)))?,
            );
        }
    }
    if report.is_none() && calibration.is_none() && !have_traces {
        return Err(CliError(format!(
            "no artifacts found for prefix {prefix:?}: expected at least one of \
             {report_path}, {traces_path}, {calibration_path}"
        )));
    }
    let html = aqp::obs::dashboard::render(&aqp::obs::dashboard::DashboardData {
        title: &prefix,
        report: report.as_ref(),
        calibration: calibration.as_ref(),
        traces: &traces,
    });
    let html_path = format!("{prefix}_dashboard.html");
    std::fs::write(&html_path, &html).map_err(at_path(&html_path))?;
    writeln!(
        out,
        "dashboard: report {}, calibration {}, {} trace(s) -> {html_path}",
        if report.is_some() { "yes" } else { "no" },
        if calibration.is_some() { "yes" } else { "no" },
        traces.len(),
    )?;
    Ok(())
}

/// Validate a `.jsonl` file of request records (a traced workload's or a
/// flight dump): every non-empty line must decode as a schema-version-4
/// [`RequestRecord`].
fn validate_trace_command(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args
        .positionals()
        .get(1)
        .ok_or_else(|| CliError("validate-trace needs a FILE argument".into()))?
        .clone();
    args.finish()?;
    let text = std::fs::read_to_string(&path).map_err(at_path(&path))?;
    let mut checked = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        RequestRecord::from_json(line).map_err(|e| CliError(format!("{path}:{}: {e}", lineno + 1)))?;
        checked += 1;
    }
    if checked == 0 {
        return Err(CliError(format!("{path}: no trace records found")));
    }
    writeln!(out, "{path}: {checked} trace records valid")?;
    Ok(())
}

/// Interactive loop reading one SQL statement per line.
pub fn repl(args: &Args, out: &mut dyn Write, input: &mut dyn BufRead) -> Result<(), CliError> {
    let family = args.required("family")?;
    let view_path = args.optional("view");
    let trace = args.flag("trace");
    let stats = args.flag("stats");
    let row_budget = opt_usize(args, "row-budget")?;
    let threads = threads_arg(args)?;
    args.finish()?;
    let mut system = open_family(&family, out)?.with_threads(threads);
    let view = view_path
        .map(|p| read_table_file(&p).map_err(at_path(&p)))
        .transpose()?;
    if let Some(v) = &view {
        system = system.with_view(v.clone());
    }
    if let Some(budget) = row_budget {
        system = system.with_row_budget(budget);
    }

    match system.primary() {
        Some(sampler) => writeln!(
            out,
            "aqp repl — {} sample tables over {} rows; commands: \\catalog, \\explain SQL, \\quit",
            sampler.catalog().num_tables(),
            sampler.view_rows(),
        )?,
        None => writeln!(
            out,
            "aqp repl — exact tier only, {} view rows; commands: \\catalog, \\explain SQL, \\quit",
            view.as_ref().map_or(0, Table::num_rows),
        )?,
    }
    let mut line = String::new();
    loop {
        write!(out, "aqp> ")?;
        out.flush()?;
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        match trimmed {
            "" => continue,
            "\\quit" | "\\q" | "exit" => break,
            "\\catalog" => match system.primary() {
                Some(sampler) => writeln!(out, "{}", sampler.catalog())?,
                None => writeln!(out, "no sample family loaded; serving from the exact tier")?,
            },
            cmd if cmd.strip_prefix("\\explain").is_some_and(|r| r.is_empty() || r.starts_with(char::is_whitespace)) => {
                let sql = cmd.trim_start_matches("\\explain").trim();
                let Some(sampler) = system.primary() else {
                    writeln!(out, "no sample family loaded; \\explain unavailable")?;
                    continue;
                };
                if sql.is_empty() {
                    writeln!(out, "usage: \\explain SELECT ...")?;
                } else {
                    match parse_query(sql) {
                        Ok(parsed) => writeln!(out, "{}", sampler.explain(&parsed.query))?,
                        Err(e) => writeln!(out, "error: {e}")?,
                    }
                }
            }
            sql => {
                let want_exact = view.is_some();
                if let Err(e) =
                    answer_one(&system, view.as_ref(), sql, want_exact, 0.95, trace, out)
                {
                    writeln!(out, "error: {e}")?;
                }
                if stats {
                    write_metrics_snapshot(out)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    /// Serialises tests that assert on global-registry output, so one
    /// test's metrics cannot leak into another test's snapshot.
    static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn metrics_lock() -> std::sync::MutexGuard<'static, ()> {
        METRICS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn run_cli(parts: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(parts.iter().map(|s| (*s).to_owned()))?;
        let mut out = Vec::new();
        run(args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aqp_cli_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_workflow() {
        let dir = temp_dir();
        let view = dir.join("v.aqpt");
        let family = dir.join("f.aqps");

        let msg = run_cli(&[
            "generate", "tpch", "--scale", "0.02", "--skew", "2.0", "--out",
            view.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("generated tpch"), "{msg}");

        let msg = run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.1", "--gamma",
            "0.5", "--out", family.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("small group tables"), "{msg}");

        let msg = run_cli(&["catalog", "--family", family.to_str().unwrap()]).unwrap();
        assert!(msg.contains("overall sample"), "{msg}");

        let msg = run_cli(&[
            "query",
            "--family",
            family.to_str().unwrap(),
            "--view",
            view.to_str().unwrap(),
            "--exact",
            "SELECT lineitem.shipmode, COUNT(*) FROM v GROUP BY lineitem.shipmode",
        ])
        .unwrap();
        assert!(msg.contains("groups"), "{msg}");
        assert!(msg.contains("exact"), "{msg}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sales_generation_and_sum_query() {
        let dir = temp_dir();
        let view = dir.join("s.aqpt");
        let family = dir.join("s.aqps");
        run_cli(&[
            "generate", "sales", "--rows", "2000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "query",
            "--family",
            family.to_str().unwrap(),
            "SELECT store.region, SUM(sales.revenue) FROM s GROUP BY store.region",
        ])
        .unwrap();
        assert!(msg.contains("sum_sales_revenue"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_import_export_workflow() {
        let dir = temp_dir();
        let csv = dir.join("data.csv");
        let view = dir.join("v.aqpt");
        let family = dir.join("f.aqps");
        let back = dir.join("back.csv");

        // Write a small CSV by hand: 190 common rows, 10 rare rows.
        let mut text = String::from("product,price\n");
        for i in 0..190 {
            text.push_str(&format!("stereo,{}.5\n", i % 7));
        }
        for i in 0..10 {
            text.push_str(&format!("tv,{}\n", 100 + i));
        }
        std::fs::write(&csv, text).unwrap();

        let msg = run_cli(&[
            "import", "--csv", csv.to_str().unwrap(), "--name", "shop", "--out",
            view.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("200 rows"), "{msg}");

        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.1", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "query",
            "--family",
            family.to_str().unwrap(),
            "SELECT product, COUNT(*) FROM shop GROUP BY product",
        ])
        .unwrap();
        assert!(msg.contains("tv"), "{msg}");
        assert!(msg.contains("10.00*"), "rare group exact: {msg}");

        let msg = run_cli(&[
            "export", "--view", view.to_str().unwrap(), "--out", back.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("exported 200 rows"), "{msg}");
        assert!(std::fs::read_to_string(&back).unwrap().starts_with("product,price"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_reports_tier_counts() {
        let dir = temp_dir();
        let view = dir.join("w.aqpt");
        let family = dir.join("w.aqps");
        run_cli(&[
            "generate", "sales", "--rows", "2000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "workload", "--family", family.to_str().unwrap(), "--view",
            view.to_str().unwrap(), "--queries", "4",
        ])
        .unwrap();
        assert!(msg.contains("4 queries"), "{msg}");
        assert!(msg.contains("tiers: primary"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_family_degrades_to_exact_with_view() {
        let dir = temp_dir();
        let view = dir.join("d.aqpt");
        run_cli(&[
            "generate", "sales", "--rows", "1000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "query",
            "--family",
            dir.join("never_written.aqps").to_str().unwrap(),
            "--view",
            view.to_str().unwrap(),
            "SELECT store.region, COUNT(*) FROM s GROUP BY store.region",
        ])
        .unwrap();
        assert!(msg.contains("warning"), "{msg}");
        assert!(msg.contains("tier exact"), "{msg}");

        // Same degradation with a corrupt (not just missing) family file.
        let family = dir.join("c.aqps");
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let mut bytes = std::fs::read(&family).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&family, &bytes).unwrap();
        let msg = run_cli(&[
            "query",
            "--family",
            family.to_str().unwrap(),
            "--view",
            view.to_str().unwrap(),
            "SELECT store.region, COUNT(*) FROM s GROUP BY store.region",
        ])
        .unwrap();
        assert!(msg.contains("warning"), "{msg}");
        assert!(msg.contains("tier "), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_budget_flags_partial_answers() {
        let dir = temp_dir();
        let view = dir.join("b.aqpt");
        run_cli(&[
            "generate", "sales", "--rows", "1000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        // No family + tiny budget: the exact scan is truncated and flagged.
        let msg = run_cli(&[
            "query",
            "--family",
            dir.join("absent.aqps").to_str().unwrap(),
            "--view",
            view.to_str().unwrap(),
            "--row-budget",
            "100",
            "SELECT COUNT(*) FROM s",
        ])
        .unwrap();
        assert!(msg.contains("tier exact"), "{msg}");
        assert!(msg.contains("partial"), "{msg}");
        assert!(run_cli(&["query", "--family", "/tmp/x.aqps", "--row-budget", "abc", "SQL"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_accepts_threads_flag() {
        let dir = temp_dir();
        let view = dir.join("t.aqpt");
        let family = dir.join("t.aqps");
        run_cli(&[
            "generate", "sales", "--rows", "1500", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let sql = "SELECT store.region, COUNT(*), SUM(sales.revenue) FROM s GROUP BY store.region";
        // Drop the wall-clock suffix from the summary line before comparing.
        let strip_timing = |text: String| -> String {
            text.lines()
                .map(|l| match l.find(", tier ") {
                    Some(i) => &l[..i],
                    None => l,
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let serial = run_cli(&["query", "--family", family.to_str().unwrap(), "--threads", "1", sql])
            .unwrap();
        let parallel =
            run_cli(&["query", "--family", family.to_str().unwrap(), "--threads", "4", sql])
                .unwrap();
        // Thread count must not change any printed estimate or interval.
        assert_eq!(strip_timing(serial), strip_timing(parallel));
        assert!(run_cli(&["query", "--family", family.to_str().unwrap(), "--threads", "no", sql])
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_trace_and_stats_flags() {
        let _guard = metrics_lock();
        let dir = temp_dir();
        let view = dir.join("q.aqpt");
        let family = dir.join("q.aqps");
        run_cli(&[
            "generate", "sales", "--rows", "1500", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "query", "--family", family.to_str().unwrap(), "--trace", "--stats",
            "SELECT store.region, COUNT(*) FROM s GROUP BY store.region",
        ])
        .unwrap();
        // The trace rides after the summary as one JSON line.
        let trace_line = msg
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("trace JSON line present");
        let trace = RequestRecord::from_json(trace_line).unwrap();
        assert_eq!(trace.serving_tier, "primary", "{msg}");
        assert_eq!(trace.outcome, "answer", "{msg}");
        assert!(trace.rows_scanned > 0, "{msg}");
        assert!(!trace.sample_tables.is_empty(), "{msg}");
        assert!(trace.spans.iter().any(|s| s.name == "query.scan"), "{msg}");
        let names: Vec<&str> = trace.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["execute"], "an in-process timeline is its execute stage");
        // --stats appends a Prometheus snapshot.
        assert!(msg.contains("# TYPE aqp_serving_tier_total counter"), "{msg}");
        assert!(msg.contains("aqp_stage_seconds{"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_trace_writes_artifacts() {
        let _guard = metrics_lock();
        let dir = temp_dir();
        let view = dir.join("wt.aqpt");
        let family = dir.join("wt.aqps");
        let prefix = dir.join("WT").to_str().unwrap().to_owned();
        run_cli(&[
            "generate", "sales", "--rows", "2000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "workload", "--family", family.to_str().unwrap(), "--view",
            view.to_str().unwrap(), "--queries", "4", "--trace", "--obs-out", &prefix,
        ])
        .unwrap();
        assert!(msg.contains("observability: 4 traces"), "{msg}");

        // Traces: 4 lines, each decoding strictly, tiers consistent with
        // the run summary (healthy family -> all primary).
        let traces_path = format!("{prefix}_traces.jsonl");
        let jsonl = std::fs::read_to_string(&traces_path).unwrap();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let t = RequestRecord::from_json(line).unwrap();
            assert_eq!(t.serving_tier, "primary");
            assert!(t.rows_scanned > 0);
        }
        let valid = run_cli(&["validate-trace", &traces_path]).unwrap();
        assert!(valid.contains("4 trace records valid"), "{valid}");

        // Metrics snapshot: Prometheus text with stage quantiles and the
        // tier counter the traces must agree with.
        let prom = std::fs::read_to_string(format!("{prefix}_metrics.prom")).unwrap();
        assert!(prom.contains("# TYPE aqp_stage_seconds summary"), "{prom}");
        assert!(prom.contains("quantile=\"0.99\""), "{prom}");
        assert!(prom.contains("aqp_serving_tier_total{tier=\"primary\"}"), "{prom}");
        assert!(prom.contains("aqp_rows_scanned_total"), "{prom}");

        // Report: the run summary only; traces and metrics have their
        // own files.
        let report = std::fs::read_to_string(format!("{prefix}_report.json")).unwrap();
        let v = aqp::obs::json::parse(&report).unwrap();
        assert_eq!(
            v.get("summary").unwrap().get("queries").unwrap().as_f64(),
            Some(4.0)
        );
        assert!(
            v.get("traces").is_none() && v.get("metrics").is_none(),
            "{report}"
        );
        let tiers = v.get("summary").unwrap().get("tiers").unwrap();
        assert_eq!(tiers.get("primary").unwrap().as_f64(), Some(4.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_trace_rejects_bad_files() {
        let dir = temp_dir();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"query\": \"q\"}\n").unwrap();
        assert!(run_cli(&["validate-trace", bad.to_str().unwrap()]).is_err());
        // Only schema version 4 passes: a v3 line and an unversioned
        // line (a flight record before v4) are rejected by name.
        let v4 = RequestRecord {
            outcome: "answer".into(),
            serving_tier: "primary".into(),
            ..RequestRecord::default()
        }
        .to_json();
        let good = dir.join("good.jsonl");
        std::fs::write(&good, format!("{v4}\n")).unwrap();
        assert!(run_cli(&["validate-trace", good.to_str().unwrap()]).is_ok());
        for old in [
            v4.replace("\"schema_version\":4", "\"schema_version\":3"),
            v4.replace("\"schema_version\":4,", ""),
        ] {
            assert_ne!(old, v4);
            std::fs::write(&bad, format!("{old}\n")).unwrap();
            let err = run_cli(&["validate-trace", bad.to_str().unwrap()]).unwrap_err();
            assert!(err.0.contains("schema_version"), "{err}");
        }
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "\n").unwrap();
        assert!(run_cli(&["validate-trace", empty.to_str().unwrap()]).is_err());
        assert!(run_cli(&["validate-trace"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_static_plan_matches_golden() {
        let dir = temp_dir();
        let view = dir.join("g.aqpt");
        let family = dir.join("g.aqps");
        run_cli(&[
            "generate", "tpch", "--scale", "0.02", "--skew", "2.0", "--seed", "42", "--out",
            view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.1", "--gamma",
            "0.5", "--seed", "42", "--out", family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "explain",
            "--family",
            family.to_str().unwrap(),
            "SELECT lineitem.shipmode, COUNT(*) FROM v GROUP BY lineitem.shipmode",
        ])
        .unwrap();
        let golden = include_str!("../testdata/explain_golden.txt");
        assert_eq!(
            msg, golden,
            "static explain plan drifted from the checked-in golden"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_analyze_reports_operators_and_reconciles() {
        let dir = temp_dir();
        let view = dir.join("a.aqpt");
        let family = dir.join("a.aqps");
        run_cli(&[
            "generate", "sales", "--rows", "2000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "explain",
            "--family",
            family.to_str().unwrap(),
            "--analyze",
            "--threads",
            "2",
            "SELECT store.region, COUNT(*) FROM s GROUP BY store.region",
        ])
        .unwrap();
        // Static plan first, then the executed per-operator profile.
        assert!(msg.contains("plan for:"), "{msg}");
        assert!(msg.contains("analyze: tier primary"), "{msg}");
        assert!(msg.contains("stratum"), "{msg}");
        assert!(msg.contains("selectivity"), "{msg}");
        assert!(msg.contains("mem peak"), "{msg}");
        assert!(msg.contains("morsel p50/p95/p99"), "{msg}");
        // Every operator reports which scan implementation ran; the
        // default mode is vectorised (dense or hash depending on the
        // group-by columns).
        assert!(msg.contains(", kernel vectorized-"), "{msg}");
        // Per-stratum row totals must reconcile exactly with rows_scanned.
        assert!(msg.contains("-> reconciles"), "{msg}");
        assert!(!msg.contains("MISMATCH"), "{msg}");
        // An unfiltered scan has no prune plan, so no pruning line.
        assert!(!msg.contains("pruning:"), "{msg}");
        // A prunable dictionary predicate activates block accounting.
        let pruned = run_cli(&[
            "explain",
            "--family",
            family.to_str().unwrap(),
            "--analyze",
            "SELECT COUNT(*) FROM s WHERE store.region IN ('REGION#000')",
        ])
        .unwrap();
        assert!(pruned.contains("pruning:"), "{pruned}");
        assert!(pruned.contains("block(s) skipped"), "{pruned}");
        // Without --analyze no profile tree is printed.
        let plain = run_cli(&[
            "explain",
            "--family",
            family.to_str().unwrap(),
            "SELECT store.region, COUNT(*) FROM s GROUP BY store.region",
        ])
        .unwrap();
        assert!(!plain.contains("analyze:"), "{plain}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_calibrate_and_dashboard() {
        let _guard = metrics_lock();
        let dir = temp_dir();
        let view = dir.join("c.aqpt");
        let family = dir.join("c.aqps");
        let prefix = dir.join("CAL").to_str().unwrap().to_owned();
        run_cli(&[
            "generate", "sales", "--rows", "2000", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.05", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let msg = run_cli(&[
            "workload", "--family", family.to_str().unwrap(), "--view",
            view.to_str().unwrap(), "--queries", "6", "--trace", "--calibrate",
            "--obs-out", &prefix,
        ])
        .unwrap();
        assert!(msg.contains("CI coverage calibration"), "{msg}");
        assert!(msg.contains("by aggregate function"), "{msg}");
        assert!(msg.contains("by sampled rows n:"), "{msg}");
        assert!(msg.contains("calibration:"), "{msg}");

        // The JSON artifact has the documented shape, with COUNT plus the
        // measure-driven SUM/AVG batches (sales has Float64 measures).
        let cal = std::fs::read_to_string(format!("{prefix}_calibration.json")).unwrap();
        let v = aqp::obs::json::parse(&cal).unwrap();
        assert_eq!(v.get("nominal").and_then(|n| n.as_f64()), Some(0.95));
        let funcs = v.get("per_function").and_then(|f| f.as_arr()).unwrap();
        let labels: Vec<&str> = funcs
            .iter()
            .filter_map(|f| f.get("label").and_then(|l| l.as_str()))
            .collect();
        assert!(labels.contains(&"COUNT"), "{labels:?}");
        assert!(labels.contains(&"SUM"), "{labels:?}");
        assert!(labels.contains(&"AVG"), "{labels:?}");
        for f in funcs {
            for key in ["cells", "covered", "observed", "ci_lo", "ci_hi"] {
                assert!(f.get(key).and_then(|x| x.as_f64()).is_some(), "{key}");
            }
            assert!(f.get("flagged").and_then(|x| x.as_bool()).is_some());
        }

        // The dashboard combines all three artifacts into one HTML file
        // with stable section anchors.
        let msg = run_cli(&["dashboard", &prefix]).unwrap();
        assert!(msg.contains("report yes, calibration yes"), "{msg}");
        let html = std::fs::read_to_string(format!("{prefix}_dashboard.html")).unwrap();
        for anchor in [
            "id=\"explain\"",
            "id=\"calibration\"",
            "id=\"tiers\"",
            "id=\"stages\"",
            "<svg",
            "<h3>Per sampled rows n</h3>",
        ] {
            assert!(html.contains(anchor), "missing {anchor} in dashboard");
        }
        // A prefix with no artifacts is an error.
        assert!(run_cli(&["dashboard", dir.join("NOPE").to_str().unwrap()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_paths() {
        assert!(run_cli(&["frobnicate"]).is_err());
        // No `bench`: BENCHMARK.json's e2e package is the benchmark.
        let err = run_cli(&["bench"]).unwrap_err();
        assert!(err.0.starts_with("unknown command \"bench\""), "{err}");
        assert!(run_cli(&["generate"]).is_err());
        assert!(run_cli(&["generate", "tpch"]).is_err(), "missing --out");
        assert!(run_cli(&["generate", "mars", "--out", "/tmp/x"]).is_err());
        assert!(run_cli(&["query", "--family", "/nonexistent.aqps", "SELECT"]).is_err());
        // --exact without --view.
        assert!(run_cli(&["query", "--family", "/nonexistent.aqps", "--exact", "SQL"]).is_err());
        // Typo guard.
        assert!(run_cli(&["catalog", "--famly", "/tmp/x"]).is_err());
        // explain needs SQL; dashboard needs a prefix.
        assert!(run_cli(&["explain", "--family", "/nonexistent.aqps"]).is_err());
        assert!(run_cli(&["dashboard"]).is_err());
        // Help always works.
        assert!(run_cli(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn serve_rejects_a_bad_fault_spec_by_name() {
        // A misspelled kind is an error, not a plan that injects nothing:
        // a script forcing a timeout with it would fail later, elsewhere.
        for (faults, named) in [
            ("exec-stal@0", "exec-stal@0"),
            ("exec-stall@x", "exec-stall@x"),
            ("exec-stall", "exec-stall"),
            ("exec-stall@0,slow-red@1", "slow-red@1"),
        ] {
            let err = run_cli(&["serve", "--family", "/nonexistent.aqps", "--faults", faults])
                .unwrap_err();
            let named = format!("bad fault spec {named:?}");
            assert!(err.0.contains(&named), "--faults {faults}: {err}");
        }
    }

    /// Forwards each complete line written to it down a channel.
    struct Lines(std::sync::mpsc::Sender<String>, Vec<u8>);

    impl Write for Lines {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.1.extend_from_slice(buf);
            while let Some(end) = self.1.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.1.drain(..=end).collect();
                let _ = self.0.send(String::from_utf8_lossy(&line[..end]).into_owned());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_faults_reach_the_server_they_are_given_to() {
        let dir = temp_dir();
        let view = dir.join("served.aqpt");
        let family = dir.join("served.aqps");
        run_cli(&["generate", "sales", "--rows", "2000", "--out", view.to_str().unwrap()]).unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.1", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let family_arg = family.to_str().unwrap().to_owned();
        let serve = std::thread::spawn(move || {
            let family = family_arg.as_str();
            let args = [
                "serve", "--family", family, "--addr", "127.0.0.1:0", "--faults", "exec-stall@0",
                "--interactive-inflight", "1", "--interactive-queue", "0", "--cache-capacity", "0",
            ];
            let args = Args::parse(args.map(str::to_owned)).unwrap();
            crate::serve::serve_command(&args, &mut Lines(tx, Vec::new()))
        });
        let addr = loop {
            let line = rx.recv_timeout(std::time::Duration::from_secs(30)).expect("serve prints its address");
            if let Some(rest) = line.strip_prefix("serving on ") {
                break rest.split_whitespace().next().unwrap().to_owned();
            }
        };
        let client = |request: &[&str]| {
            run_cli(&[&["client", "--addr", addr.as_str(), "--attempts", "1"], request].concat())
        };
        let sql = "SELECT store.region, COUNT(*) AS cnt FROM v GROUP BY store.region";
        // exec-stall@0 holds the first execution, and with it the only
        // interactive slot, until its deadline trips; a query sent
        // meanwhile is shed.
        let stalled = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_cli(&["client", "--addr", &addr, "--attempts", "1", "--deadline-ms", "1000", sql])
            })
        };
        let fired = r#"aqp_fault_injected_total{kind="exec-stall"} 1"#;
        let waited = std::time::Instant::now();
        while !client(&["metrics"]).unwrap().lines().any(|line| line == fired) {
            assert!(waited.elapsed().as_secs() < 10, "the stall never fired");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let err = client(&[sql]).unwrap_err();
        assert!(err.0.starts_with("shed"), "{err}");
        let err = stalled.join().unwrap().unwrap_err();
        assert!(err.0.starts_with("timeout"), "{err}");
        assert!(client(&[sql]).unwrap().contains("cnt"), "the second execution runs");
        // top reads those three outcomes back from the server's registry.
        let top = run_cli(&["top", "--addr", addr.as_str(), "--iterations", "1"]).unwrap();
        let row = |class: &str| -> Vec<String> {
            let line = top.lines().find(|l| l.starts_with(class)).unwrap_or_else(|| panic!("{top}"));
            line.split_whitespace().take(6).map(str::to_owned).collect()
        };
        assert_eq!(row("interactive"), ["interactive", "start", "3", "33.3", "33.3", "33.3"], "{top}");
        assert_eq!(row("batch"), ["batch", "start", "0", "100.0", "0.0", "0.0"], "{top}");
        assert!(top.contains("requests 3 answered 1 shed 1 timeouts 1 errors 0 hit% 0.0"), "{top}");
        client(&["shutdown"]).unwrap();
        serve.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repl_session() {
        let dir = temp_dir();
        let view = dir.join("v.aqpt");
        let family = dir.join("f.aqps");
        run_cli(&[
            "generate", "tpch", "--scale", "0.02", "--out", view.to_str().unwrap(),
        ])
        .unwrap();
        run_cli(&[
            "preprocess", "--view", view.to_str().unwrap(), "--rate", "0.1", "--out",
            family.to_str().unwrap(),
        ])
        .unwrap();

        let args = Args::parse(
            ["repl", "--family", family.to_str().unwrap()]
                .iter()
                .map(|s| (*s).to_owned()),
        )
        .unwrap();
        let script = "\\catalog\nSELECT COUNT(*) FROM v\n\\explain SELECT COUNT(*) FROM v GROUP BY lineitem.shipmode\nbad sql here\n\\quit\n";
        let mut input = std::io::BufReader::new(script.as_bytes());
        let mut out = Vec::new();
        repl(&args, &mut out, &mut input).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("sample tables over"), "{text}");
        assert!(text.contains("cnt"), "{text}");
        assert!(text.contains("error:"), "{text}");
        assert!(text.contains("plan for:"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
