//! Outside-in tracing: client-side spans around wire requests, an
//! in-process replay of the same requests with one child span per layer's
//! public function, and the latency waterfall that reconciles the two
//! with the server's own stage timeline.
//!
//! Every span here is recorded from the benchmark's files; nothing inside
//! the program under test is instrumented.

use crate::load::{query_request, trace_id};
use crate::report::median;
use crate::setup::{CACHE_CAPACITY, CONFIDENCE, THREADS};
use crate::templates::{Class, Plan};
use aqp::obs::flight::RequestRecord;
use aqp::obs::json::Value as Json;
use aqp::prelude::*;
use aqp::query::CancelToken;
use aqp::serving::protocol::{read_frame, write_frame};
use aqp::serving::{
    AdmissionConfig, AdmissionController, AdmitOutcome, CacheConfig, CacheDecision, ContractClass, Request, Response,
    SemanticCache, WireAnswer,
};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. `parent` is 0 for a root.
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    /// The wire trace id shared by all spans of one request.
    request: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out once at exit.
pub struct Spans {
    origin: Instant,
    log: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), log: Mutex::new(Vec::new()) }
    }

    /// Record a finished span; ids count up from 1 in recording order.
    pub fn record(&self, name: &'static str, request: &str, parent: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let mut log = self.log.lock().expect("span log poisoned");
        let id = log.len() as u32 + 1;
        log.push(Span { id, parent, name, request: request.to_string(), start_ns: ns(start), end_ns: ns(end) });
    }

    /// The `wire.request` spans of each request id, oldest first.
    fn wire_spans(&self) -> HashMap<String, Vec<u32>> {
        let log = self.log.lock().expect("span log poisoned");
        let mut by_request: HashMap<String, Vec<u32>> = HashMap::new();
        for s in log.iter().filter(|s| s.name == "wire.request" && !s.request.is_empty()) {
            by_request.entry(s.request.clone()).or_default().push(s.id);
        }
        by_request
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let log = self.log.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in log.iter() {
            let line = Json::Obj(vec![
                ("id".into(), (s.id as u64).into()),
                ("parent".into(), (s.parent as u64).into()),
                ("name".into(), s.name.into()),
                ("request".into(), s.request.as_str().into()),
                ("start_ns".into(), s.start_ns.into()),
                ("end_ns".into(), s.end_ns.into()),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()?;
        Ok(log.len())
    }
}

/// Samples per layer (microseconds) and per counter, from the replay.
#[derive(Default)]
pub struct Layers {
    micros: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Complete sweeps over the templates.
    pub sweeps: usize,
}

impl Layers {
    /// Median of a timed layer, microseconds (0 when never sampled).
    pub fn us(&self, name: &str) -> f64 {
        self.micros.get(name).map_or(0.0, |v| median(v))
    }

    /// Median of a counter (0 when never sampled).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |v| median(v))
    }
}

struct Recorder<'a> {
    spans: &'a Spans,
    layers: Layers,
    request: String,
    parent: u32,
}

impl Recorder<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.spans.record(name, &self.request, self.parent, start, end);
        self.layers.micros.entry(name).or_default().push((end - start).as_secs_f64() * 1e6);
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.layers.counts.entry(name).or_default().push(value);
    }
}

/// Up to this many sweeps over the templates; fewer when the time budget
/// runs out first (always at least one).
const REPLAY_SWEEPS: usize = 5;
/// The exact-rung diagnostics (three extra full scans each) run on about
/// this many templates per sweep.
const HEAVY_TEMPLATES: usize = 32;

/// Replay every template's request in-process, layer by layer, each
/// layer's public function under a child span of that request's wire span.
pub fn replay(system: &ResilientSystem, view: &Table, plan: &Plan, spans: &Spans, budget: Duration) -> Layers {
    let wire_spans = spans.wire_spans();
    let mut rec = Recorder { spans, layers: Layers::default(), request: String::new(), parent: 0 };
    // The server's cache when it is off: `decide` returns `Bypass`.
    let bypass = SemanticCache::new(CacheConfig::disabled());
    // The cache as `cache-churn` configures it, probed on every workload.
    let cache = SemanticCache::new(CacheConfig { capacity: CACHE_CAPACITY, ttl: None, enabled: true });
    let admission = AdmissionController::new(AdmissionConfig::default());
    let contract = AnswerContract::at_confidence(CONFIDENCE);
    let primary = system.primary().expect("system has a sample family");
    let has_pruned_class = plan.templates.iter().any(|t| t.class == Class::PrunedScan);
    let stride = (plan.templates.len() / HEAVY_TEMPLATES).max(1);
    let exec =
        |threads: usize, pruning: PruneMode| ExecOptions { parallelism: threads, pruning, ..ExecOptions::default() };
    let mut frame = Vec::new();
    let started = Instant::now();

    for sweep in 0..REPLAY_SWEEPS {
        if sweep > 0 && started.elapsed() >= budget {
            break;
        }
        for (i, template) in plan.templates.iter().enumerate() {
            rec.request = trace_id(i);
            // Sweep k hangs off the k-th latest wire request of this template,
            // so no wire span is the parent of two replays.
            rec.parent = wire_spans
                .get(&rec.request)
                .and_then(|ids| ids.len().checked_sub(1 + sweep).map(|at| ids[at]))
                .unwrap_or(0);
            let request = query_request(&template.sql, Some(i));

            let payload = rec.time("serving.protocol.request_encode", || request.to_json());
            let decoded =
                rec.time("serving.protocol.request_decode", || Request::from_json(&payload).expect("request decodes"));
            let Request::Query { sql, .. } = decoded else { unreachable!("query request") };
            let parsed = rec.time("sql.parse", || parse_query(&sql).expect("template parses"));
            rec.time("sql.canon", || cache.key(&parsed.table, &parsed.query));
            rec.time("serving.cache.decide_bypass", || {
                matches!(bypass.decide(&parsed.table, &parsed.query, &contract, None), CacheDecision::Bypass)
            });
            rec.time("serving.admission.admit", || match admission.admit(ContractClass::Interactive, None) {
                AdmitOutcome::Admitted(permit) => drop(permit),
                _ => unreachable!("an idle controller admits"),
            });
            let bounded = rec.time("core.answer", || {
                let bound = QueryBound { cancel: Some(CancelToken::new()), ..QueryBound::none() };
                system.answer_bounded(&parsed.query, CONFIDENCE, &bound).expect("in-process answer")
            });
            let answer = &bounded.answer;
            rec.time("serving.cache.decide_miss", || {
                match cache.decide(&parsed.table, &parsed.query, &contract, None) {
                    CacheDecision::Execute(flight) => flight.complete(answer, CONFIDENCE, true),
                    _ => unreachable!("first lookup after an invalidate misses"),
                }
            });
            rec.time("serving.cache.decide_hit", || {
                matches!(cache.decide(&parsed.table, &parsed.query, &contract, None), CacheDecision::Hit(..))
            });
            let wire = rec.time("serving.protocol.from_answer", || {
                WireAnswer::from_answer(answer, false, None, 0.0, false, trace_id(i))
            });
            let groups = wire.groups.len();
            let response = Response::Answer(wire);
            let json = rec.time("serving.protocol.response_encode", || response.to_json());
            let json = rec.time("serving.protocol.frame", || {
                frame.clear();
                write_frame(&mut frame, &payload).expect("frame to memory");
                read_frame(&mut frame.as_slice()).expect("frame from memory");
                frame.clear();
                write_frame(&mut frame, &json).expect("frame to memory");
                read_frame(&mut frame.as_slice()).expect("frame from memory").expect("one frame")
            });
            rec.time("serving.protocol.response_decode", || Response::from_json(&json).expect("response decodes"));
            rec.count("serving.protocol.response_bytes", json.len() as f64);
            rec.count("serving.protocol.groups_per_answer", groups as f64);
            rec.count("core.rows_scanned", answer.rows_scanned as f64);

            let tables = rec.time("core.plan_tables", || primary.plan_tables(&parsed.query));
            rec.count("core.tables_consulted", tables.len() as f64);

            if i % stride == 0 && sweep < 3 {
                let source = DataSource::Wide(view);
                let run = |opts: ExecOptions<'_>| execute(&source, &parsed.query, &opts).expect("exact execute");
                let out = rec.time("query.execute", || run(exec(THREADS, PruneMode::Auto)));
                rec.time("query.execute_1t", || run(exec(1, PruneMode::Auto)));
                let samples = &rec.layers.micros;
                let exact_us = *samples["query.execute"].last().expect("just sampled");
                let answer_us = *samples["core.answer"].last().expect("just sampled");
                rec.count("core.speedup_vs_exact", exact_us / answer_us);
                rec.count("query.rows_per_s", out.rows_scanned as f64 / (exact_us / 1e6));
                if template.class == Class::PrunedScan || !has_pruned_class {
                    rec.time("query.execute_noprune", || run(exec(THREADS, PruneMode::Off)));
                    rec.count("query.prune.on_us", exact_us);
                    rec.count(
                        "query.prune.blocks_skipped_ratio",
                        template.blocks.0 as f64 / template.blocks.1.max(1) as f64,
                    );
                }
            }
        }
        rec.time("serving.cache.invalidate", || cache.invalidate());
        rec.layers.sweeps += 1;
    }
    rec.layers
}

/// Median microseconds per server stage over the flight-recorder dump,
/// restricted to answered requests on the path being reconciled.
pub fn server_stage_medians(dump: &str, cache_hit_path: bool) -> BTreeMap<String, f64> {
    let mut by_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for record in dump.lines().filter_map(|l| RequestRecord::from_json(l).ok()) {
        if record.outcome != "answer" || record.cache_hit != cache_hit_path {
            continue;
        }
        for stage in record.stages {
            by_stage.entry(stage.name).or_default().push(stage.micros as f64);
        }
    }
    by_stage.into_iter().map(|(name, v)| (name, median(&v))).collect()
}

/// The server stages in timeline order, each with the outside layers that
/// cover the same code. With the cache on, the median request is a hit,
/// so the hit path (no admission, no execution) is what gets reconciled.
fn stage_layers(cache_hit_path: bool) -> Vec<(&'static str, Vec<&'static str>)> {
    let mut stages = vec![
        ("read", vec![]),
        ("parse", vec!["serving.protocol.request_decode", "sql.parse"]),
        ("cache", vec![if cache_hit_path { "serving.cache.decide_hit" } else { "serving.cache.decide_bypass" }]),
    ];
    if !cache_hit_path {
        stages.push(("admission", vec!["serving.admission.admit"]));
        stages.push(("execute", vec!["core.answer"]));
    }
    stages.push(("serialize", vec!["serving.protocol.from_answer", "serving.protocol.response_encode"]));
    stages.push(("write", vec!["serving.protocol.frame"]));
    stages
}

/// The reconciled waterfall of one workload.
pub struct Waterfall {
    /// Σ of the outside layer medians on the reconciled path, µs.
    pub layers_us: f64,
    /// Wire p50 − Σ layers: TCP, thread wake-ups, flight/SLO/metrics commit.
    /// Negative when the replay ran slower than the wire path it mirrors.
    pub residual_us: f64,
    /// Server stages whose own median disagrees with the outside one by > 20 %.
    pub flagged: Vec<String>,
}

/// Print Σ layer medians + residual against wire p50, beside the server's
/// own stage medians, and flag disagreements. Report only; not a gate.
pub fn waterfall(layers: &Layers, server: &BTreeMap<String, f64>, wire_p50_us: f64, cache_hit_path: bool) -> Waterfall {
    println!("waterfall ({} path), medians in µs:", if cache_hit_path { "cache-hit" } else { "execute" });
    println!("  {:<10} {:>12} {:>12}  outside layers", "stage", "outside", "server");
    // Client-side layers have no server stage to sit beside.
    let client = ["serving.protocol.request_encode", "serving.protocol.response_decode"];
    let mut total: f64 = client.iter().map(|l| layers.us(l)).sum();
    println!("  {:<10} {:>12.1} {:>12}  {}", "client", total, "-", client.join(" + "));
    let mut flagged = Vec::new();
    for (stage, names) in stage_layers(cache_hit_path) {
        let outside = names.iter().fold(0.0, |sum, l| sum + layers.us(l));
        let inside = server.get(stage).copied().unwrap_or(0.0);
        total += outside;
        // Stage times are whole microseconds; below 5 µs a 20 % gap is rounding.
        let disagree = (outside - inside).abs() > 0.2 * outside.max(inside) && outside.max(inside) >= 5.0;
        if disagree {
            flagged.push(stage.to_string());
        }
        let mark = if disagree { "  <-- disagrees by > 20 %" } else { "" };
        println!("  {:<10} {:>12.1} {:>12.1}  {}{mark}", stage, outside, inside, names.join(" + "));
    }
    let residual = wire_p50_us - total;
    println!("  {:<10} {:>12.1}", "Σ layers", total);
    println!("  {:<10} {:>12.1}  ({:.1} % of wire p50)", "residual", residual, 100.0 * residual / wire_p50_us);
    if residual < 0.0 {
        // Nothing on the wire path takes negative time: the layers, replayed
        // one by one in-process, came out slower than the whole request did.
        println!("  replay and wire disagree: the residual is negative and says nothing about TCP or wake-ups");
    }
    println!("  {:<10} {:>12.1}", "wire p50", wire_p50_us);
    Waterfall { layers_us: total, residual_us: residual, flagged }
}
