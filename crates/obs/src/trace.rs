//! The per-query trace collector.
//!
//! A trace is built on the control thread via a thread-local collector:
//! [`begin`] opens one, [`span`](fn@crate::span) timers dropped while it
//! is open accumulate their time under their names, executor scans append
//! their [`OpProfile`]s, and [`finish`] closes it into a
//! [`RequestRecord`] whose timeline is one `execute` stage covering
//! `begin` to `finish`. The caller fills in the runtime's decision (tier,
//! plan, sample tables, row counts). Morsel workers never touch the
//! collector, so multi-threaded execution is unaffected.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::flight::{RequestRecord, Stage};
use crate::profile::OpProfile;

struct Collector {
    query: String,
    started: Instant,
    /// (span name, accumulated duration), in the order names first
    /// completed.
    spans: Vec<(&'static str, Duration)>,
    /// Per-operator profiles, in plan (stratum) order.
    operators: Vec<OpProfile>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Open a trace collector on this thread. Span timers dropped before the
/// matching [`finish`] accumulate into it. Nested `begin`s are ignored
/// (the outermost trace wins), so wrappers can trace helpers that also
/// run standalone. Returns whether a collector was actually opened; a
/// caller that got `false` must NOT call [`finish`] — the open trace
/// belongs to an outer caller.
pub fn begin(query: &str) -> bool {
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(Collector {
                query: query.to_string(),
                started: Instant::now(),
                spans: Vec::new(),
                operators: Vec::new(),
            });
            true
        } else {
            false
        }
    })
}

/// Whether a trace collector is open on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

/// Called by [`crate::Span`] on drop; accumulates into the open trace.
pub(crate) fn record_span(name: &'static str, elapsed: Duration) {
    ACTIVE.with(|slot| {
        if let Some(collector) = slot.borrow_mut().as_mut() {
            if let Some((_, total)) = collector.spans.iter_mut().find(|(s, _)| *s == name) {
                *total += elapsed;
            } else {
                collector.spans.push((name, elapsed));
            }
        }
    });
}

/// Called by [`crate::profile::record_scan`]; appends a per-operator
/// profile to the open trace.
pub(crate) fn record_operator(op: OpProfile) {
    ACTIVE.with(|slot| {
        if let Some(collector) = slot.borrow_mut().as_mut() {
            collector.operators.push(op);
        }
    });
}

/// Drop any operator profiles collected so far on the open trace. Used
/// when a plan attempt fails and the runtime falls back to another tier:
/// the abandoned attempt's scans must not pollute the final trace (whose
/// operator row totals reconcile with `rows_scanned`).
pub fn discard_operators() {
    ACTIVE.with(|slot| {
        if let Some(collector) = slot.borrow_mut().as_mut() {
            collector.operators.clear();
        }
    });
}

/// Close the trace opened by [`begin`] into a record: the query text,
/// one `execute` stage from `begin` to now, the operators and the span
/// totals in whole microseconds. Every decision member is left empty for
/// the caller. Returns `None` if no trace was open.
pub fn finish() -> Option<RequestRecord> {
    let collector = ACTIVE.with(|slot| slot.borrow_mut().take())?;
    let micros = collector.started.elapsed().as_micros() as u64;
    Some(RequestRecord {
        query: collector.query,
        total_micros: micros,
        stages: vec![Stage { name: "execute".to_string(), micros }],
        operators: collector.operators,
        spans: collector
            .spans
            .into_iter()
            .map(|(name, d)| Stage { name: name.to_string(), micros: d.as_micros() as u64 })
            .collect(),
        ..RequestRecord::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discard_operators_clears_abandoned_plan_attempt() {
        assert!(begin("q"));
        record_operator(OpProfile { op: "scan:doomed".into(), ..OpProfile::default() });
        discard_operators();
        record_operator(OpProfile { op: "scan:kept".into(), ..OpProfile::default() });
        let trace = finish().unwrap();
        assert_eq!(trace.operators.len(), 1);
        assert_eq!(trace.operators[0].op, "scan:kept");
    }

    #[test]
    fn collector_accumulates_repeated_stages() {
        assert!(begin("q1"));
        assert!(is_active());
        // Nested begin must not reset the open trace.
        assert!(!begin("q2-ignored"));
        record_span("query.scan", Duration::from_millis(2));
        record_span("query.scan", Duration::from_millis(3));
        record_span("query.merge", Duration::from_millis(1));
        let trace = finish().expect("trace open");
        assert!(!is_active());
        assert_eq!(trace.query, "q1");
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0], Stage { name: "query.scan".into(), micros: 5_000 });
        assert_eq!(trace.spans[1], Stage { name: "query.merge".into(), micros: 1_000 });
        // The timeline is one execute stage, and the total is its sum.
        assert_eq!(trace.stages.len(), 1);
        assert_eq!(trace.stages[0].name, "execute");
        assert_eq!(trace.total_micros, trace.stages[0].micros);
        assert!(finish().is_none());
    }
}
