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
//! * [`span()`] — scoped stage timers that record into the global registry
//!   and the thread-local [`trace`] collector. Spans are created and
//!   dropped on the control thread only, so they are safe under the
//!   multi-threaded morsel executor (workers touch nothing but atomics).
//! * [`event`] — structured events (level + key/value fields) in a capped
//!   ring buffer, replacing ad-hoc `eprintln!` warnings.
//! * [`Registry`] — named-metric registry with consistent [`Snapshot`]s,
//!   exported as Prometheus text-exposition format. [`global`] holds what
//!   belongs to the process (executor, ladder, storage, memory, events);
//!   a server records its requests into a registry of its own, and its
//!   export merges the two ([`Snapshot::merge`]). The series are
//!   cumulative: a reader that wants a window (`aqp top`) takes the
//!   difference of two snapshots.
//! * [`RequestRecord`] — one record per request, served or in-process:
//!   trace id, outcome, contiguous stage timeline, and the decision —
//!   plan chosen, sample tables consulted, rows scanned vs. base rows,
//!   serving tier, operator profiles, span time per name. One JSON line
//!   (`schema_version` 4) that parses back losslessly. [`trace`] collects
//!   it in-process; a server keeps the last N in a [`flight`] ring,
//!   dumped as JSONL on anomaly or on demand.
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
pub use span::{span, Span};

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
