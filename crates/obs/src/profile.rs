//! Per-operator execution profiles (`EXPLAIN ANALYZE`).
//!
//! The executor runs every query as a UNION ALL of stratum scans; each
//! scan reports an [`OpProfile`] describing where rows, time, and bytes
//! went: rows in/out (so selectivity), morsels claimed per worker,
//! per-morsel latency digests, and the logical memory the scan's hash
//! maps held (see [`crate::mem`]).
//!
//! Collection is control-thread-only, like spans and traces: workers
//! return plain per-morsel data and the control thread does all the
//! bookkeeping *after* the deterministic morsel-order merge, so profiling
//! can never perturb answers. The plan layer labels each scan with a
//! [`ScanContext`] (which stratum, which table, what weight) before
//! invoking the executor; the executor then calls [`record_scan`], which
//! feeds the `aqp_op_morsel_seconds{op=…}` histogram and, when a trace is
//! open, appends the profile to it.

use std::borrow::Cow;
use std::cell::RefCell;

/// Execution profile of one plan operator (a scan over one stratum).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpProfile {
    /// Operator label, e.g. `scan:sg_lineitem.shipmode`.
    pub op: String,
    /// Name of the table scanned.
    pub table: String,
    /// Stratum kind: `small-group`, `overall`, `base`, or empty when the
    /// scan is not part of a rewritten sample plan. Borrowed from the plan
    /// layer's static label when recorded, owned when decoded.
    pub stratum: Cow<'static, str>,
    /// Constant row weight applied to this stratum (0 when weights are
    /// per-row).
    pub weight: f64,
    /// Rows offered to the scan (stratum cardinality, after row limits).
    pub rows_in: u64,
    /// Rows surviving the bitmask and predicate filters.
    pub rows_out: u64,
    /// Number of morsels the scan decomposed into.
    pub morsels: u64,
    /// Morsels claimed by each worker slot (length = workers used; the
    /// split is schedule-dependent and informational only).
    pub morsels_per_worker: Vec<u64>,
    /// Median per-morsel latency in nanoseconds.
    pub morsel_p50_ns: u64,
    /// 95th-percentile per-morsel latency in nanoseconds.
    pub morsel_p95_ns: u64,
    /// 99th-percentile per-morsel latency in nanoseconds.
    pub morsel_p99_ns: u64,
    /// Peak logical bytes held while the scan ran (partial tables plus the
    /// merged group table).
    pub mem_peak_bytes: u64,
    /// Logical bytes still held at operator completion (merged table).
    pub mem_current_bytes: u64,
    /// Group-id path the executor's kernels took: `vectorized-hash` or
    /// `vectorized-dense` (borrowed like `stratum`).
    pub kernel: Cow<'static, str>,
    /// Zone-map blocks skipped wholesale (no row could match; the block's
    /// column data was never touched). Zero when pruning was inactive.
    pub blocks_skipped: u64,
    /// Zone-map blocks taken wholesale (every row proven to match; the
    /// per-row predicate was not evaluated).
    pub blocks_taken: u64,
    /// Zone-map blocks scanned normally under an active prune plan.
    pub blocks_scanned: u64,
    /// Rows in skipped blocks — work the scan avoided entirely.
    pub rows_pruned: u64,
}

impl OpProfile {
    /// Filter selectivity: rows out over rows in (1 for empty input).
    pub fn selectivity(&self) -> f64 {
        if self.rows_in == 0 {
            1.0
        } else {
            self.rows_out as f64 / self.rows_in as f64
        }
    }
}

/// Plan-position labels for the next executor scan on this thread. Set by
/// the plan layer (which knows the stratum) around each scan it finishes.
/// Borrowed: the labels turn into owned strings only when a reader —
/// the metrics registry or an open trace — exists (see [`scan_context`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanContext<'a> {
    /// Table being scanned; the operator label is `scan:<table>`.
    pub table: &'a str,
    /// Stratum kind (`small-group`, `overall`, `base`, or empty).
    pub stratum: &'static str,
    /// Constant row weight (0 when weights are per-row).
    pub weight: f64,
}

/// An installed [`ScanContext`].
#[derive(Debug, Default)]
struct Installed {
    table: String,
    stratum: &'static str,
    weight: f64,
}

thread_local! {
    static CONTEXT: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Guard restoring the previous scan context when dropped.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<Installed>,
}

/// Install a [`ScanContext`] for the duration of the returned guard.
/// Control-thread-only, like the trace collector; nesting restores the
/// outer context on drop. With metrics off and no trace open nothing
/// would read the labels, so nothing is copied.
pub fn scan_context(ctx: ScanContext<'_>) -> ContextGuard {
    let installed = (crate::enabled() || crate::trace::is_active()).then(|| Installed {
        table: ctx.table.to_owned(),
        stratum: ctx.stratum,
        weight: ctx.weight,
    });
    let prev = CONTEXT.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), installed));
    ContextGuard { prev }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CONTEXT.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Raw statistics the executor reports for one completed scan.
#[derive(Debug, Clone, Default)]
pub struct ScanStats {
    /// Rows offered to the scan.
    pub rows_in: u64,
    /// Rows surviving all filters.
    pub rows_out: u64,
    /// Morsels claimed per worker slot.
    pub claims: Vec<u64>,
    /// Per-morsel wall time in nanoseconds, in morsel order.
    pub morsel_ns: Vec<u64>,
    /// Peak logical bytes the scan held.
    pub mem_peak_bytes: u64,
    /// Logical bytes held at completion.
    pub mem_current_bytes: u64,
    /// Group-id path label (`vectorized-hash`, `vectorized-dense`).
    pub kernel: &'static str,
    /// Zone-map blocks skipped wholesale (pruning; 0 when inactive).
    pub blocks_skipped: u64,
    /// Zone-map blocks taken wholesale (predicate suppressed).
    pub blocks_taken: u64,
    /// Zone-map blocks scanned normally under an active prune plan.
    pub blocks_scanned: u64,
    /// Rows in skipped blocks.
    pub rows_pruned: u64,
}

/// Nearest-rank quantile over an ascending-sorted slice.
fn rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// Record one executor scan. Called on the control thread after the
/// deterministic morsel merge. Feeds the per-morsel latencies into the
/// `aqp_op_morsel_seconds{op=…}` histogram (when metrics are enabled) and
/// appends an [`OpProfile`] to the open trace (when one is active).
pub fn record_scan(stats: ScanStats) {
    let tracing = crate::trace::is_active();
    if !crate::enabled() && !tracing {
        return;
    }
    CONTEXT.with(|slot| {
        let (slot, unlabelled) = (slot.borrow(), Installed::default());
        let ctx = slot.as_ref().unwrap_or(&unlabelled);
        let op = match ctx.table.as_str() {
            "" => "scan".to_owned(),
            table => format!("scan:{table}"),
        };
        if crate::enabled() {
            let hist = crate::histogram("aqp_op_morsel_seconds", &[("op", &op)]);
            for &ns in &stats.morsel_ns {
                hist.observe(ns);
            }
        }
        if !tracing {
            return;
        }
        let mut sorted = stats.morsel_ns.clone();
        sorted.sort_unstable();
        crate::trace::record_operator(OpProfile {
            op,
            table: ctx.table.clone(),
            stratum: ctx.stratum.into(),
            weight: ctx.weight,
            rows_in: stats.rows_in,
            rows_out: stats.rows_out,
            morsels: stats.morsel_ns.len() as u64,
            morsels_per_worker: stats.claims,
            morsel_p50_ns: rank(&sorted, 0.50),
            morsel_p95_ns: rank(&sorted, 0.95),
            morsel_p99_ns: rank(&sorted, 0.99),
            mem_peak_bytes: stats.mem_peak_bytes,
            mem_current_bytes: stats.mem_current_bytes,
            kernel: stats.kernel.into(),
            blocks_skipped: stats.blocks_skipped,
            blocks_taken: stats.blocks_taken,
            blocks_scanned: stats.blocks_scanned,
            rows_pruned: stats.rows_pruned,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_and_quantiles() {
        let p = OpProfile {
            rows_in: 200,
            rows_out: 50,
            ..OpProfile::default()
        };
        assert!((p.selectivity() - 0.25).abs() < 1e-12);
        assert_eq!(OpProfile::default().selectivity(), 1.0);
        assert_eq!(rank(&[], 0.5), 0);
        assert_eq!(rank(&[10], 0.99), 10);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank(&v, 0.50), 50);
        assert_eq!(rank(&v, 0.95), 95);
        assert_eq!(rank(&v, 0.99), 99);
    }

    #[test]
    fn context_nesting_restores_outer() {
        // An open trace is a reader, so the labels are installed even
        // while metric collection is off.
        assert!(crate::trace::begin("nesting"));
        let outer = scan_context(ScanContext {
            table: "outer",
            ..ScanContext::default()
        });
        {
            let _inner = scan_context(ScanContext {
                table: "inner",
                ..ScanContext::default()
            });
            CONTEXT.with(|c| {
                assert_eq!(c.borrow().as_ref().unwrap().table, "inner");
            });
        }
        CONTEXT.with(|c| {
            assert_eq!(c.borrow().as_ref().unwrap().table, "outer");
        });
        drop(outer);
        CONTEXT.with(|c| assert!(c.borrow().is_none()));
        crate::trace::finish();
    }

    #[test]
    fn record_scan_appends_to_open_trace() {
        assert!(crate::trace::begin("profiled"));
        let _ctx = scan_context(ScanContext {
            table: "sg_t.a",
            stratum: "small-group",
            weight: 1.0,
        });
        record_scan(ScanStats {
            rows_in: 100,
            rows_out: 40,
            claims: vec![3, 2],
            morsel_ns: vec![500, 100, 300, 200, 400],
            mem_peak_bytes: 4096,
            mem_current_bytes: 1024,
            kernel: "vectorized-dense",
            blocks_skipped: 7,
            blocks_taken: 2,
            blocks_scanned: 1,
            rows_pruned: 28_672,
        });
        let trace = crate::trace::finish().expect("trace open");
        assert_eq!(trace.operators.len(), 1);
        let op = &trace.operators[0];
        assert_eq!(op.op, "scan:sg_t.a");
        assert_eq!(op.stratum, "small-group");
        assert_eq!(op.rows_in, 100);
        assert_eq!(op.rows_out, 40);
        assert_eq!(op.morsels, 5);
        assert_eq!(op.morsels_per_worker, vec![3, 2]);
        assert_eq!(op.morsel_p50_ns, 300);
        assert_eq!(op.morsel_p99_ns, 500);
        assert_eq!(op.mem_peak_bytes, 4096);
        assert_eq!(op.kernel, "vectorized-dense");
        assert_eq!(op.blocks_skipped, 7);
        assert_eq!(op.blocks_taken, 2);
        assert_eq!(op.blocks_scanned, 1);
        assert_eq!(op.rows_pruned, 28_672);
    }

    #[test]
    fn record_scan_without_trace_is_noop() {
        assert!(!crate::trace::is_active());
        record_scan(ScanStats::default());
        assert!(crate::trace::finish().is_none());
    }
}
