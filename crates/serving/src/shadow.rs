//! Shadow accuracy auditor: the empirical check that the paper's
//! per-query CI promises hold under live traffic.
//!
//! A configurable fraction of sampled-tier answers is copied onto a
//! bounded queue; one background thread re-executes each query on the
//! exact rung ([`aqp_core::ResilientSystem::answer_exact_oracle`], which
//! bypasses the ladder, admission control, and every per-request bound)
//! and compares the realized error of every aggregate cell against the
//! CI the answer promised, recording into the registry of the server
//! that started it:
//!
//! * `aqp_shadow_queries_total` / `aqp_shadow_cells_total` — audited
//!   volume.
//! * `aqp_shadow_within_ci_total` / `aqp_shadow_miss_total` — cells
//!   whose exact value fell inside / outside the promised interval;
//!   `within / cells` is the realized coverage to compare against the
//!   nominal confidence level.
//! * `aqp_shadow_rel_error` / `aqp_shadow_ci_ratio` — histograms of the
//!   realized relative error and of `|error| / half_width` (values are
//!   recorded ×1e9, so the exporter's "seconds" read as unit ratios).
//! * `aqp_shadow_dropped_total` — answers sampled for audit but dropped
//!   because the queue was full. Serving is never blocked: submission is
//!   a bounded push, and overflow drops the audit, not the answer.
//!
//! Cells the calibration oracle would skip — exact values, infinite or
//! non-finite CI widths — are skipped here under the same rule, so
//! shadow coverage is directly comparable to `workload --calibrate`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use aqp_core::{ApproxAnswer, ResilientSystem, ServingTier};
use aqp_obs::Registry;
use aqp_query::Query;

/// Shadow auditing knobs.
#[derive(Debug, Clone)]
pub struct ShadowConfig {
    /// Fraction of eligible (sampled-tier, freshly executed) answers to
    /// audit, in [0, 1].
    pub rate: f64,
    /// Bounded queue capacity; submissions beyond it are dropped and
    /// counted, never blocked on.
    pub queue_cap: usize,
    /// Seed for the deterministic sampling coin.
    pub seed: u64,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig { rate: 0.0, queue_cap: 64, seed: 0x5eed_5eed }
    }
}

struct Job {
    query: Query,
    answer: ApproxAnswer,
    confidence: f64,
    trace_id: String,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    registry: Arc<Registry>,
}

/// Background auditor; owns the worker thread. Dropping without
/// [`ShadowAuditor::shutdown`] detaches the worker (tests and the server
/// both shut down explicitly so the queue is drained first).
pub struct ShadowAuditor {
    config: ShadowConfig,
    shared: Arc<Shared>,
    rng: Mutex<u64>,
    worker: Option<thread::JoinHandle<()>>,
}

impl ShadowAuditor {
    /// Spawn the audit worker over a shared handle to the system: the
    /// worker reads the very view and sample tables serving reads (no
    /// second copy) without holding any serving lock. `aqp_shadow_*`
    /// series go to `registry`.
    pub fn start(
        config: ShadowConfig,
        system: Arc<ResilientSystem>,
        registry: Arc<Registry>,
    ) -> ShadowAuditor {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            registry,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("aqp-shadow".into())
            .spawn(move || worker_loop(&worker_shared, &system))
            .expect("spawn shadow worker");
        let seed = if config.seed == 0 { 0x5eed_5eed } else { config.seed };
        ShadowAuditor {
            config,
            shared,
            rng: Mutex::new(seed),
            worker: Some(worker),
        }
    }

    /// Deterministic coin in [0, 1).
    fn coin(&self) -> f64 {
        let mut state = self.rng.lock().expect("shadow rng poisoned");
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Offer one freshly executed answer for auditing. Non-blocking:
    /// either enqueues a clone or drops (ineligible tier, coin miss, or
    /// full queue — the latter counted `aqp_shadow_dropped_total`).
    pub fn maybe_submit(
        &self,
        query: &Query,
        answer: &ApproxAnswer,
        confidence: f64,
        trace_id: &str,
    ) {
        if answer.tier == ServingTier::Exact || self.config.rate <= 0.0 {
            return;
        }
        if self.config.rate < 1.0 && self.coin() >= self.config.rate {
            return;
        }
        let mut queue = self.shared.queue.lock().expect("shadow queue poisoned");
        if queue.len() >= self.config.queue_cap {
            drop(queue);
            self.shared.registry.counter("aqp_shadow_dropped_total", &[]).inc();
            return;
        }
        queue.push_back(Job {
            query: query.clone(),
            answer: answer.clone(),
            confidence,
            trace_id: trace_id.to_string(),
        });
        self.shared.registry.gauge("aqp_shadow_queue_depth", &[]).set(queue.len() as i64);
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Stop the worker after it drains every queued job, then join it.
    /// Called at server drain so `aqp_shadow_*` metrics are complete
    /// before the final metrics snapshot is written.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, system: &ResilientSystem) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("shadow queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.registry.gauge("aqp_shadow_queue_depth", &[]).set(queue.len() as i64);
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("shadow queue poisoned");
            }
        };
        // Stop only fires on an empty queue: every accepted job is
        // audited before the thread exits.
        let Some(job) = job else { return };
        audit(system, &job, &shared.registry);
    }
}

/// Re-execute one answer exactly and score every eligible cell.
fn audit(system: &ResilientSystem, job: &Job, registry: &Registry) {
    let count = |name: &str| registry.counter(name, &[]).inc();
    let exact = match system.answer_exact_oracle(&job.query, job.confidence) {
        Ok(answer) => answer,
        Err(e) => {
            count("aqp_shadow_error_total");
            aqp_obs::event::record(
                aqp_obs::Level::Warn,
                "shadow",
                "shadow oracle failed",
                &[("trace_id", &job.trace_id), ("error", &e.to_string())],
            );
            return;
        }
    };
    count("aqp_shadow_queries_total");

    for group in &job.answer.groups {
        // A linear find keeps this robust to groups the truncated/sampled
        // answer missed or invented.
        let Some(exact_group) = exact.groups.iter().find(|g| g.key == group.key) else {
            continue;
        };
        for (value, exact_value) in group.values.iter().zip(exact_group.values.iter()) {
            // Same skip rule as the workload calibration oracle: exact
            // cells and unbounded intervals carry no testable promise.
            if value.is_exact() || !value.ci.width().is_finite() {
                continue;
            }
            let truth_v = exact_value.value();
            if !truth_v.is_finite() {
                continue;
            }
            count("aqp_shadow_cells_total");
            count(if value.ci.contains(truth_v) {
                "aqp_shadow_within_ci_total"
            } else {
                "aqp_shadow_miss_total"
            });
            let err = (value.value() - truth_v).abs();
            if truth_v != 0.0 {
                observe_ratio(registry, "aqp_shadow_rel_error", err / truth_v.abs());
            }
            let half_width = value.ci.width() / 2.0;
            if half_width > 0.0 {
                observe_ratio(registry, "aqp_shadow_ci_ratio", err / half_width);
            }
        }
    }
}

/// Record a unit ratio into a latency histogram: scaled ×1e9 so the
/// exporter's nanoseconds→seconds digestion yields the ratio back.
fn observe_ratio(registry: &Registry, name: &str, ratio: f64) {
    let scaled = (ratio * 1e9).min(u64::MAX as f64 / 2.0);
    registry.histogram(name, &[]).observe(scaled as u64);
}
