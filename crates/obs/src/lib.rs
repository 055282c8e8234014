//! Zero-dependency observability runtime for the dynamic-sample-selection
//! AQP system.
//!
//! The workspace is registry-less (no crates.io access), so this crate
//! reimplements the small slice of `tracing`/`prometheus` the runtime
//! actually needs, on top of `std` alone:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars.
//! * [`Histogram`] — log-linear latency histogram (16 linear buckets then
//!   4 sub-buckets per power of two, ≤12.5% relative error) with
//!   p50/p95/p99 extraction.
//! * [`span`] — scoped stage timers that record into the global registry
//!   and the thread-local active [`QueryTrace`]. Spans are created and
//!   dropped on the control thread only, so they are safe under the
//!   scoped-thread morsel executor (workers touch nothing but atomics).
//! * [`event`] — structured events (level + key/value fields) in a capped
//!   ring buffer, replacing ad-hoc `eprintln!` warnings.
//! * [`Registry`] — named-metric registry with consistent [`Snapshot`]s,
//!   exported as Prometheus text-exposition format.
//! * [`flight`] — an always-on flight recorder: a fixed-size ring of
//!   per-request records (trace id, outcome, contiguous stage timeline)
//!   dumped as JSONL on anomaly or on demand.
//! * [`slo`] — sliding-window SLO watchdog: per-class availability and
//!   latency percentiles over 10s/1m/5m rings with edge-triggered
//!   burn-rate breach detection, exported as `aqp_slo_*` gauges.
//! * [`QueryTrace`] — one record per query: plan chosen, sample tables
//!   consulted, rows scanned vs. base rows, serving tier, per-stage wall
//!   time. Serializes to one JSON line and parses back losslessly.
//!
//! Every record is written through [`json::Value`] and read back by one
//! strict decoder per record type. Collection is switched at runtime via
//! [`set_enabled`] (default on); it may never perturb query answers, and
//! the statistical regression asserts bit-identical results either way.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use event::{Event, Level};
pub use flight::{FlightRecorder, RequestRecord, Stage, Timeline};
pub use export::to_prometheus;
pub use metrics::{Counter, Gauge, Histogram};
pub use profile::{OpProfile, ScanContext, ScanStats};
pub use registry::{
    counter, gauge, global, histogram, HistogramValue, MetricValue, Registry, Snapshot,
};
pub use slo::{Breach, SloConfig, SloOutcome, SloWindows, WindowStats};
pub use span::{span, Span};
pub use trace::{QueryTrace, StageTime};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric collection is currently active (see [`set_enabled`]).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric collection on or off at runtime. Disabling never changes
/// query answers — only whether telemetry is recorded.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
