//! Deterministic fault injection for the serving path.
//!
//! The storage layer injects disk faults (`aqp_storage::fault`); this
//! module injects the *network and scheduling* faults a server meets in
//! production: connections dropped at accept time, responses stalling
//! mid-write, clients that trickle their request bytes, and executions
//! that hang until the deadline reaps them. A server's plan is its own
//! ([`crate::ServerConfig::faults`], `aqp-cli serve --faults`), counted
//! by that server's hooks alone, so two servers in one process never see
//! each other's faults:
//!
//! | spec | effect |
//! |---|---|
//! | `accept-drop@N` | the (N+1)-th accepted connection is dropped before any read |
//! | `write-stall@N` | the (N+1)-th response write stalls ~250ms first |
//! | `slow-read@N` | the (N+1)-th request read stalls ~250ms (a slow client) |
//! | `exec-stall@N` | the (N+1)-th query execution blocks until its cancel token trips (or a 2s cap) |
//!
//! Any other kind, or an `@N` that is not a count, is a parse error.
//! `exec-stall` is the CI recipe for a *forced, deterministic timeout*:
//! a stalled execution with a deadline-carrying token returns as a
//! timeout exactly when the deadline trips, regardless of machine speed.
//! Faults that fire are tallied in `aqp_fault_injected_total{kind=...}`
//! — the same metric the storage faults use — plus a warn event.

use aqp_query::CancelToken;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long `write-stall` and `slow-read` pause.
pub const STALL: Duration = Duration::from_millis(250);

/// Upper bound on an `exec-stall` whose token never trips.
pub const EXEC_STALL_CAP: Duration = Duration::from_secs(2);

/// One class of injected serving fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingFault {
    /// Drop the (nth+1)-th accepted connection before reading anything.
    AcceptDrop {
        /// 0-based index of the dropped connection.
        nth: usize,
    },
    /// Stall ~[`STALL`] before the (nth+1)-th response write.
    WriteStall {
        /// 0-based index of the stalled write.
        nth: usize,
    },
    /// Stall ~[`STALL`] during the (nth+1)-th request read.
    SlowRead {
        /// 0-based index of the stalled read.
        nth: usize,
    },
    /// Block the (nth+1)-th query execution until its token cancels
    /// (capped at [`EXEC_STALL_CAP`]).
    ExecStall {
        /// 0-based index of the stalled execution.
        nth: usize,
    },
}

impl ServingFault {
    /// The spec keyword for this fault.
    pub fn kind(&self) -> &'static str {
        match self {
            ServingFault::AcceptDrop { .. } => "accept-drop",
            ServingFault::WriteStall { .. } => "write-stall",
            ServingFault::SlowRead { .. } => "slow-read",
            ServingFault::ExecStall { .. } => "exec-stall",
        }
    }

    fn nth(&self) -> usize {
        match *self {
            ServingFault::AcceptDrop { nth }
            | ServingFault::WriteStall { nth }
            | ServingFault::SlowRead { nth }
            | ServingFault::ExecStall { nth } => nth,
        }
    }
}

impl FromStr for ServingFault {
    type Err = String;

    /// Parse one `kind@N` spec; the error names the spec.
    fn from_str(spec: &str) -> Result<ServingFault, String> {
        let bad = || {
            format!(
                "bad fault spec {spec:?}: expected accept-drop@N, write-stall@N, \
                 slow-read@N or exec-stall@N"
            )
        };
        let (kind, arg) = spec.split_once('@').ok_or_else(bad)?;
        let nth = arg.parse::<usize>().map_err(|_| bad())?;
        match kind {
            "accept-drop" => Ok(ServingFault::AcceptDrop { nth }),
            "write-stall" => Ok(ServingFault::WriteStall { nth }),
            "slow-read" => Ok(ServingFault::SlowRead { nth }),
            "exec-stall" => Ok(ServingFault::ExecStall { nth }),
            _ => Err(bad()),
        }
    }
}

/// One server's fault plan and the occurrence counters of its four hook
/// points. With an empty plan every hook returns at once.
#[derive(Debug, Default)]
pub(crate) struct Faults {
    plan: Vec<ServingFault>,
    accepts: AtomicUsize,
    reads: AtomicUsize,
    writes: AtomicUsize,
    execs: AtomicUsize,
}

impl Faults {
    pub(crate) fn new(plan: Vec<ServingFault>) -> Faults {
        Faults { plan, ..Faults::default() }
    }

    /// Count one occurrence of the hook `seen` counts; `true` when the
    /// plan holds a `kind` fault for exactly that occurrence.
    fn fires(&self, kind: &'static str, seen: &AtomicUsize) -> bool {
        if self.plan.is_empty() {
            return false;
        }
        let n = seen.fetch_add(1, Ordering::Relaxed);
        let hit = self.plan.iter().any(|f| f.kind() == kind && f.nth() == n);
        if hit {
            aqp_obs::counter("aqp_fault_injected_total", &[("kind", kind)]).inc();
            aqp_obs::event::warn(
                "serving::fault",
                "injected serving fault fired",
                &[("kind", kind)],
            );
        }
        hit
    }

    /// Accept-time hook: `true` means drop this connection now.
    pub(crate) fn accept_drop(&self) -> bool {
        self.fires("accept-drop", &self.accepts)
    }

    /// Request-read hook: stalls [`STALL`] when the fault fires.
    pub(crate) fn slow_read(&self) {
        if self.fires("slow-read", &self.reads) {
            std::thread::sleep(STALL);
        }
    }

    /// Response-write hook: stalls [`STALL`] when the fault fires.
    pub(crate) fn write_stall(&self) {
        if self.fires("write-stall", &self.writes) {
            std::thread::sleep(STALL);
        }
    }

    /// Execution hook: blocks until `token` trips (or [`EXEC_STALL_CAP`])
    /// when the fault fires. Placed before the ladder walk, it simulates a
    /// scan that will not finish in time.
    pub(crate) fn exec_stall(&self, token: &CancelToken) {
        if !self.fires("exec-stall", &self.execs) {
            return;
        }
        let cap = Instant::now() + EXEC_STALL_CAP;
        while Instant::now() < cap && !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_accepts_serving_kinds_and_rejects_everything_else() {
        assert_eq!("accept-drop@0".parse(), Ok(ServingFault::AcceptDrop { nth: 0 }));
        assert_eq!("write-stall@2".parse(), Ok(ServingFault::WriteStall { nth: 2 }));
        assert_eq!("slow-read@1".parse(), Ok(ServingFault::SlowRead { nth: 1 }));
        assert_eq!("exec-stall@3".parse(), Ok(ServingFault::ExecStall { nth: 3 }));
        for bad in [
            "exec-stal@0",         // misspelled kind
            "exec-stall@x",        // not a count
            "exec-stall@-1",       // not a count
            "exec-stall@",         // no count
            "exec-stall",          // no @N
            "exec-stall@0:scope",  // no path scope on serving faults
            "bitflip@700",         // a storage kind
            "missing",             // a storage kind
            "",
        ] {
            let err = bad.parse::<ServingFault>().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: the error names the spec: {err}");
        }
    }

    #[test]
    fn nth_occurrence_fires_once() {
        let faults = Faults::new(vec![ServingFault::AcceptDrop { nth: 1 }]);
        assert!(!faults.accept_drop(), "occurrence 0 passes");
        assert!(faults.accept_drop(), "occurrence 1 drops");
        assert!(!faults.accept_drop(), "occurrence 2 passes");
    }

    #[test]
    fn exec_stall_releases_on_cancel() {
        let faults = Faults::new(vec![ServingFault::ExecStall { nth: 0 }]);
        let token = CancelToken::new();
        token.cancel();
        let t0 = Instant::now();
        faults.exec_stall(&token);
        assert!(t0.elapsed() < Duration::from_millis(500), "released by tripped token");
        // Subsequent executions unaffected.
        let t0 = Instant::now();
        faults.exec_stall(&token);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn each_plan_counts_its_own_hooks() {
        let stalled = Faults::new(vec![ServingFault::SlowRead { nth: 0 }]);
        let healthy = Faults::default();
        let t0 = Instant::now();
        healthy.slow_read();
        assert!(t0.elapsed() < Duration::from_millis(50), "an empty plan never fires");
        let t0 = Instant::now();
        stalled.slow_read();
        assert!(t0.elapsed() >= STALL, "the other plan's first read is still its own");
    }
}
