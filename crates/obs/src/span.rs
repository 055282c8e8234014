//! Scoped stage timers.
//!
//! `span("query.scan")` returns a guard; when it drops, the elapsed wall
//! time is recorded into the global `aqp_stage_seconds{stage=...}`
//! histogram and, if a [`crate::trace`] collector is open on this
//! thread, accumulated under its name into the open trace's `spans`.
//!
//! Safety under the morsel executor: spans live on the control thread
//! that calls `run_round`, bracketing the whole scheduling round.
//! Worker closures never create spans or touch the thread-local trace —
//! they only bump atomic counters — so instrumentation adds no
//! synchronization to the parallel scan and cannot perturb the
//! deterministic morsel-order merge.

use std::time::Instant;

/// Histogram family every span records into.
pub const STAGE_METRIC: &str = "aqp_stage_seconds";

/// A running stage timer; records on drop. Hold it with
/// `let _span = span("...");` — binding to `_` drops immediately.
#[must_use = "binding to _ drops the span immediately; use a named binding"]
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    started: Instant,
}

/// Start timing a stage. Stage names are dotted by subsystem:
/// `query.scan`, `query.merge`, `sgs.frequency`, …
pub fn span(stage: &'static str) -> Span {
    Span {
        stage,
        started: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        crate::trace::record_span(self.stage, elapsed);
        if crate::enabled() {
            crate::registry::histogram(STAGE_METRIC, &[("stage", self.stage)])
                .observe_duration(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_to_histogram_and_trace() {
        crate::trace::begin("spantest");
        {
            let _guard = span("test.stage");
            std::hint::black_box(1 + 1);
        }
        let trace = crate::trace::finish().unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "test.stage");
        let snap = crate::registry::global().snapshot();
        let h = snap
            .histogram(STAGE_METRIC, &[("stage", "test.stage")])
            .expect("histogram registered");
        assert!(h.count >= 1);
    }
}
