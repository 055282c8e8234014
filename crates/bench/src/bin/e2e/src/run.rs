//! The two kinds of run: end-to-end (`--trace 0`) and per-layer (`--trace 1`).

use crate::load::{self, Pass};
use crate::report::{self, median, quartiles, Metrics};
use crate::setup::{self, secs, SetupTimes};
use crate::templates::{self, Class, Plan, Workload};
use crate::{oracle, trace, Args};
use aqp::obs::json::Value as Json;
use aqp::prelude::*;
use aqp::serving::{Client, Request, Response, RetryPolicy};
use std::time::{Duration, Instant};

/// Timed passes per run, each at least `--seconds / PASSES` long. The
/// gated timing metrics are the *best* pass's value (lowest latency,
/// highest throughput): interference from other tenants of the host only
/// ever slows a pass down, it comes in phases of seconds to minutes, and
/// over same-seed repeats the best pass moved less than the median pass.
const PASSES: usize = 12;
/// A workload whose passes overshoot that length stops early once
/// `--seconds` are used up, but never below this many passes.
const MIN_PASSES: usize = 5;
/// Turns of (plain, traced, metrics-off) passes in a `--trace 1` run.
const TRACE_TURNS: usize = 3;

/// Everything a run records about its inputs, printed before the metrics.
fn print_header(args: &Args, plan: &Plan) {
    let mut facts = report::host_facts();
    let share = |class: Class| {
        let all: usize = plan.lists.iter().map(Vec::len).sum();
        let of_class = plan
            .lists
            .iter()
            .flatten()
            .filter(|s| matches!(s, templates::Step::Query(i) if plan.templates[*i].class == class))
            .count();
        of_class as f64 / all as f64
    };
    facts.extend([
        ("workload".to_string(), Json::from(args.workload.name())),
        ("seed".to_string(), args.seed.into()),
        ("seconds".to_string(), args.seconds.into()),
        ("trace".to_string(), args.trace.into()),
        ("dataset".to_string(), "sales".into()),
        ("fact_rows".to_string(), setup::FACT_ROWS.into()),
        ("zipf_z".to_string(), setup::ZIPF_Z.into()),
        ("base_rate".to_string(), setup::BASE_RATE.into()),
        ("gamma".to_string(), setup::GAMMA.into()),
        ("executor_threads".to_string(), setup::THREADS.into()),
        ("connections".to_string(), args.workload.connections().into()),
        ("passes".to_string(), PASSES.into()),
        ("templates".to_string(), plan.templates.len().into()),
        ("template_candidates".to_string(), plan.candidates.into()),
        ("requests_per_round".to_string(), plan.lists.iter().map(Vec::len).sum::<usize>().into()),
        ("share_sampled".to_string(), share(Class::Sampled).into()),
        ("share_scan_full".to_string(), share(Class::FullScan).into()),
        ("share_scan_pruned".to_string(), share(Class::PrunedScan).into()),
    ]);
    println!("{}", Json::Obj(vec![("run".into(), Json::Obj(facts))]).to_json());
}

/// One statistic of every pass, in pass order.
fn per_pass(passes: &[Pass], stat: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(stat).collect()
}

fn p50(pass: &Pass) -> f64 {
    pass.percentile(0.50, None)
}

fn p90(pass: &Pass) -> f64 {
    pass.percentile(0.90, None)
}

fn p99(pass: &Pass) -> f64 {
    pass.percentile(0.99, None)
}

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Interquartile range of the per-pass p50 over its median.
fn pass_iqr_ratio(passes: &[Pass]) -> f64 {
    let p50s = per_pass(passes, p50);
    let (q1, q3) = quartiles(&p50s);
    (q3 - q1) / median(&p50s)
}

/// The per-pass values behind the metrics, for judging a run by eye.
fn print_passes(label: &str, passes: &[Pass]) {
    let listed =
        |stat: fn(&Pass) -> f64| per_pass(passes, stat).iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ");
    println!("{label} passes, p50_ms: {}", listed(p50));
    println!("{label} passes, p90_ms: {}", listed(p90));
    println!("{label} passes, qps:    {}", listed(Pass::qps));
}

/// Up to `PASSES` passes of at least `seconds / PASSES` each. A workload
/// whose rounds are so long that the passes would overrun `seconds` stops
/// there, though not before `MIN_PASSES`.
fn run_passes(callers: &[load::Caller], seconds: f64) -> Vec<Pass> {
    let min = Duration::from_secs_f64(seconds / PASSES as f64);
    let started = Instant::now();
    let mut passes = Vec::with_capacity(PASSES);
    while passes.len() < PASSES && (passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds) {
        passes.push(load::pass(callers, min, None));
    }
    passes
}

/// Acceptance facts a run must show for its numbers to mean what the
/// workload says they mean.
fn workload_holds(workload: Workload, tally: &load::Tally) -> Vec<String> {
    let share = |n: u64| n as f64 / tally.answers.max(1) as f64;
    let mut broken = Vec::new();
    match workload {
        Workload::ExactScan if tally.exact != tally.answers => {
            broken.push(format!("exact-scan: {} of {} answers from tier exact", tally.exact, tally.answers));
        }
        Workload::SampledNarrow | Workload::WideGroupby if share(tally.primary) < 0.99 => {
            broken.push(format!("{}: only {:.3} of answers from tier primary", workload.name(), share(tally.primary)));
        }
        Workload::CacheChurn if !(0.65..=0.80).contains(&share(tally.cache_hits)) => {
            broken.push(format!("cache-churn: hit ratio {:.3} outside 0.65–0.80", share(tally.cache_hits)));
        }
        _ => {}
    }
    broken
}

fn total_tally(passes: &[Pass]) -> load::Tally {
    let mut tally = load::Tally::default();
    for p in passes {
        tally.merge(&p.tally);
    }
    tally
}

/// The end-to-end run (`--trace 0`): tracing off, every answer checked.
pub fn timed(args: &Args) -> bool {
    let workload = args.workload;
    let mut times = SetupTimes::default();
    let view = setup::build_view(args.seed, &mut times);
    let sampler = setup::build_sampler(&view, args.seed, &mut times);
    let (plan, template_gen_s) = secs(|| templates::select(workload, &view, args.seed));
    print_header(args, &plan);
    let system = setup::assemble(sampler, view, &mut times);
    // The oracle's side of every answer, from the system that will serve.
    let (expected, oracle_s) = secs(|| oracle::expected(&system, &plan.templates));
    let server = setup::start_server(system, workload.cache_on());
    let callers = load::callers(&server.addr, &plan, false);

    let (_, warmup_s) = secs(|| load::warm_up(&callers));
    let passes = run_passes(&callers, args.seconds);
    let wire = oracle::collect(&server.addr, &plan.templates, workload.cache_on());
    let bind_s = server.bind_s;
    server.stop();
    let verdict = oracle::check(&expected, &plan.templates, &wire);

    print_passes("timed", &passes);
    let tally = total_tally(&passes);
    let mut m = Metrics::new();
    m.put("p50_ms", lowest(&per_pass(&passes, p50)), "ms");
    m.put("p90_ms", lowest(&per_pass(&passes, p90)), "ms");
    m.put("qps", highest(&per_pass(&passes, Pass::qps)), "1/s");
    m.put("setup_s", times.total() + bind_s, "s");
    m.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
    m.put("rel_err_score", 1.0 / (1.0 + verdict.rel_err), "ratio");
    m.put("groups_found_ratio", 1.0 - verdict.groups_missed_pct / 100.0, "ratio");
    m.put("ci_coverage", verdict.ci_coverage, "ratio");

    let mut broken = workload_holds(workload, &tally);
    if workload.cache_on() && verdict.cache_hits_checked == 0 {
        broken.push("oracle pass saw no cache-hit answer".into());
    }
    let attempted = tally.attempted + verdict.checked;
    let failed = tally.failed + verdict.mismatches;

    println!("end-to-end metrics (best of {} passes of >= {:.2} s):", passes.len(), args.seconds / PASSES as f64);
    m.print_table();
    println!("also measured:");
    let mut extra = Metrics::new();
    extra.put("client.p50_median_pass_ms", median(&per_pass(&passes, p50)), "ms");
    extra.put("client.p99_ms", median(&per_pass(&passes, p99)), "ms");
    extra.put("client.pass_iqr_ratio", pass_iqr_ratio(&passes), "ratio");
    extra.put("failed_ratio", failed as f64 / attempted as f64, "ratio");
    extra.put("rel_err", verdict.rel_err, "ratio");
    extra.put("groups_missed_pct", verdict.groups_missed_pct, "%");
    extra.put("serving.cache.hit_ratio", tally.cache_hits as f64 / tally.answers.max(1) as f64, "ratio");
    extra.put("core.tier_primary_ratio", tally.primary as f64 / tally.answers.max(1) as f64, "ratio");
    extra.put("bench.template_gen_s", template_gen_s, "s");
    extra.put("bench.oracle_s", oracle_s, "s");
    extra.put("bench.warmup_s", warmup_s, "s");
    extra.put("serving.bind_s", bind_s, "s");
    extra.print_table();
    for why in verdict.examples.iter().chain(&broken) {
        println!("FAILED: {why}");
    }
    report::print_result(failed == 0 && broken.is_empty(), attempted, failed, &m);
    failed == 0 && broken.is_empty()
}

/// The per-layer run (`--trace 1`): spans around every wire request, an
/// in-process replay of each request layer by layer, and the waterfall.
pub fn traced(args: &Args) -> bool {
    let workload = args.workload;
    let mut times = SetupTimes::default();
    let view = setup::build_view(args.seed, &mut times);
    let sampler = setup::build_sampler(&view, args.seed, &mut times);
    let (plan, template_gen_s) = secs(|| templates::select(workload, &view, args.seed));
    print_header(args, &plan);
    // The replay scans the view and the samples itself, beside the server.
    let replay_view = view.clone();
    let view_bytes = view.byte_size();
    let system = setup::assemble(sampler, view, &mut times);
    let replay_system = system.clone();
    let sampler = replay_system.primary().expect("system has a sample family");

    // Persistence, measured here only: it is set-up work `serve` can do
    // instead of building, so a change that moves cost there must show.
    let scratch = std::env::current_exe().expect("current_exe").parent().expect("exe has a directory").to_path_buf();
    let family_path = scratch.join(format!("e2e_{}.aqps", std::process::id()));
    let view_path = scratch.join(format!("e2e_{}.aqpt", std::process::id()));
    let (_, save_s) = secs(|| sampler.save(&family_path).expect("save sample family"));
    let (_, load_s) = secs(|| SmallGroupSampler::load(&family_path).expect("load sample family"));
    aqp::storage::write_table_file(&replay_view, &view_path).expect("write view");
    let (_, io_load_s) = secs(|| aqp::storage::read_table_file(&view_path).expect("read view"));
    let _ = std::fs::remove_file(&family_path);
    let _ = std::fs::remove_file(&view_path);

    let server = setup::start_server(system, workload.cache_on());
    let spans = trace::Spans::new();
    let plain = load::callers(&server.addr, &plan, false);
    let traced = load::callers(&server.addr, &plan, true);
    load::warm_up(&plain);

    // Three turns of a plain, a traced and a metrics-off pass, each as long
    // as a timed pass. The kinds take turns so that a drift in the machine's
    // speed lands on all three alike and the two overhead ratios compare
    // like with like.
    let pass_len = Duration::from_secs_f64(args.seconds / PASSES as f64);
    let (mut untraced, mut with_spans, mut metrics_off) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_TURNS {
        untraced.push(load::pass(&plain, pass_len, None));
        with_spans.push(load::pass(&traced, pass_len, Some(&spans)));
        aqp::obs::set_enabled(false);
        metrics_off.push(load::pass(&plain, pass_len, None));
        aqp::obs::set_enabled(true);
    }
    // The flight recorder is idle while metrics are off, so the dump holds
    // requests of the plain and the traced passes only.
    let dump = match Client::new(server.addr.clone(), RetryPolicy::no_retry()).request(&Request::Dump) {
        Ok(Response::Dump(text)) => text,
        other => panic!("dump verb failed: {other:?}"),
    };

    let layers =
        trace::replay(&replay_system, &replay_view, &plan, &spans, Duration::from_secs_f64(args.seconds * 0.2));
    let bind_s = server.bind_s;
    server.stop();

    print_passes("untraced", &untraced);
    print_passes("traced", &with_spans);
    print_passes("metrics-off", &metrics_off);
    // Medians over the passes here, not the best pass: the waterfall sets the
    // wire p50 beside layer medians, and the overhead ratios compare kinds
    // of pass that took turns.
    let median_qps = |passes: &[Pass]| median(&per_pass(passes, Pass::qps));
    let tally = total_tally(&untraced);
    let wire_p50_us = median(&per_pass(&untraced, p50)) * 1e3;
    let stages = trace::server_stage_medians(&dump, workload.cache_on());
    let fall = trace::waterfall(&layers, &stages, wire_p50_us, workload.cache_on());
    if !fall.flagged.is_empty() {
        println!("stages disagreeing with their outside measurement: {}", fall.flagged.join(", "));
    }

    let class_p50 =
        |class: Class| median(&untraced.iter().map(|p| p.percentile(0.50, Some(class))).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let catalog = sampler.catalog();
    let mut m = Metrics::new();
    for layer in [
        "serving.protocol.request_encode",
        "serving.protocol.request_decode",
        "sql.parse",
        "sql.canon",
        "serving.cache.decide_hit",
        "serving.cache.decide_miss",
        "serving.cache.invalidate",
        "serving.admission.admit",
        "core.answer",
        "core.plan_tables",
        "query.execute",
        "query.execute_1t",
        "serving.protocol.from_answer",
        "serving.protocol.response_encode",
        "serving.protocol.frame",
        "serving.protocol.response_decode",
    ] {
        m.put(&format!("{layer}_us"), layers.us(layer), "us");
    }
    m.put("serving.cache.hit_ratio", ratio(tally.cache_hits as f64, tally.answers as f64), "ratio");
    m.put("core.tables_consulted", layers.count("core.tables_consulted"), "count");
    m.put("core.rows_scanned", layers.count("core.rows_scanned"), "count");
    m.put("core.rows_touched_ratio", layers.count("core.rows_scanned") / setup::FACT_ROWS as f64, "ratio");
    m.put("core.tier_primary_ratio", ratio(tally.primary as f64, tally.answers as f64), "ratio");
    m.put("core.speedup_vs_exact", layers.count("core.speedup_vs_exact"), "ratio");
    m.put("query.parallel_speedup", ratio(layers.us("query.execute_1t"), layers.us("query.execute")), "ratio");
    m.put("query.rows_per_s", layers.count("query.rows_per_s"), "1/s");
    m.put("query.prune.blocks_skipped_ratio", layers.count("query.prune.blocks_skipped_ratio"), "ratio");
    m.put("query.prune.gain", ratio(layers.us("query.execute_noprune"), layers.count("query.prune.on_us")), "ratio");
    m.put("query.scan_full.p50_ms", class_p50(Class::FullScan), "ms");
    m.put("query.scan_pruned.p50_ms", class_p50(Class::PrunedScan), "ms");
    m.put("serving.protocol.response_bytes", layers.count("serving.protocol.response_bytes"), "bytes");
    m.put("serving.protocol.groups_per_answer", layers.count("serving.protocol.groups_per_answer"), "count");
    m.put(
        "serving.protocol.decode_ns_per_byte",
        ratio(layers.us("serving.protocol.response_decode") * 1e3, layers.count("serving.protocol.response_bytes")),
        "ns/byte",
    );
    m.put("serving.wire_p50_us", wire_p50_us, "us");
    m.put("serving.layers_sum_us", fall.layers_us, "us");
    m.put("serving.wire_residual_us", fall.residual_us, "us");
    for stage in ["read", "parse", "cache", "admission", "execute", "serialize", "write"] {
        m.put(&format!("serving.server.stage.{stage}_us"), stages.get(stage).copied().unwrap_or(0.0), "us");
    }
    m.put("datagen.gen_s", times.gen_s, "s");
    m.put("query.join.denormalize_s", times.denormalize_s, "s");
    m.put("storage.cluster_s", times.cluster_s, "s");
    m.put("storage.zonemap_s", times.zonemap_s, "s");
    m.put("core.sgs_build_s", times.sgs_build_s, "s");
    m.put("serving.bind_s", bind_s, "s");
    m.put("core.sample_rows", catalog.total_sample_rows() as f64, "count");
    m.put("core.sample_tables", catalog.num_tables() as f64, "count");
    m.put("core.sample_bytes_ratio", sampler.sample_bytes() as f64 / view_bytes as f64, "ratio");
    m.put("core.persist.save_s", save_s, "s");
    m.put("core.persist.load_s", load_s, "s");
    m.put("storage.io.load_s", io_load_s, "s");
    m.put("obs.metrics_overhead_ratio", ratio(median_qps(&metrics_off), median_qps(&untraced)) - 1.0, "ratio");
    m.put("bench.trace_overhead_ratio", 1.0 - ratio(median_qps(&with_spans), median_qps(&untraced)), "ratio");
    m.put("bench.template_gen_s", template_gen_s, "s");
    m.put("bench.replay_sweeps", layers.sweeps as f64, "count");
    m.put("client.p99_ms", median(&per_pass(&untraced, p99)), "ms");
    m.put("client.pass_iqr_ratio", pass_iqr_ratio(&untraced), "ratio");

    let trace_path = scratch.join("e2e_trace.jsonl");
    match spans.write_jsonl(&trace_path) {
        Ok(n) => println!("{n} spans written to {}", trace_path.display()),
        Err(e) => println!("could not write {}: {e}", trace_path.display()),
    }
    println!("per-layer metrics:");
    m.print_table();
    let broken = workload_holds(workload, &tally);
    for why in &broken {
        println!("FAILED: {why}");
    }
    let ok = tally.failed == 0 && broken.is_empty();
    report::print_result(ok, tally.attempted, tally.failed, &m);
    ok
}
