//! Structured event log: level + target + message + key/value fields.
//!
//! Replaces the runtime's ad-hoc `eprintln!` warnings. Events are stored
//! in a capped ring buffer (most recent 1024) and tallied per level in
//! the global registry as `aqp_events_total{level=...}`. Recording an
//! event never prints anything — callers that previously wrote to
//! stderr/stdout keep doing so themselves, so default output stays
//! byte-compatible while the structured record rides alongside.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Maximum retained events; older ones are dropped.
pub const RING_CAPACITY: usize = 1024;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Development-time detail.
    Debug,
    /// Normal operational milestones.
    Info,
    /// Degraded but recovering behaviour (quarantine, tier fallback).
    Warn,
    /// Operation failed.
    Error,
}

impl Level {
    /// Lowercase label used for the `aqp_events_total` metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Subsystem that emitted it (e.g. `core::persist`).
    pub target: String,
    /// Human-readable message (same text legacy output printed).
    pub message: String,
    /// Machine-readable key/value context.
    pub fields: Vec<(String, String)>,
}

fn ring() -> &'static Mutex<VecDeque<Event>> {
    static RING: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());
    &RING
}

/// Record a structured event. The ring buffer is kept even when the
/// runtime [`crate::set_enabled`] toggle is off (degraded-mode warnings
/// are never lost); only the `aqp_events_total` tally honours the toggle.
pub fn record(level: Level, target: &str, message: &str, fields: &[(&str, &str)]) {
    crate::registry::counter("aqp_events_total", &[("level", level.as_str())]).inc();
    let event = Event {
        level,
        target: target.to_string(),
        message: message.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    };
    let mut buf = ring().lock().expect("obs event ring poisoned");
    if buf.len() == RING_CAPACITY {
        buf.pop_front();
    }
    buf.push_back(event);
}

/// Convenience: record at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, &str)]) {
    record(Level::Warn, target, message, fields);
}

/// Convenience: record at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, &str)]) {
    record(Level::Error, target, message, fields);
}

/// Convenience: record at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, &str)]) {
    record(Level::Info, target, message, fields);
}

/// Copy of the retained events, oldest first.
pub fn recent() -> Vec<Event> {
    ring().lock().expect("obs event ring poisoned").iter().cloned().collect()
}

/// Drop all retained events (tests).
pub fn clear() {
    ring().lock().expect("obs event ring poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_recorded_and_capped() {
        clear();
        warn(
            "core::persist",
            "-- warning: quarantined corrupt family",
            &[("path", "/tmp/x.aqps"), ("reason", "checksum")],
        );
        let events = recent();
        let e = events.last().unwrap();
        assert_eq!(e.level, Level::Warn);
        assert_eq!(e.fields[0], ("path".to_string(), "/tmp/x.aqps".to_string()));

        for i in 0..(RING_CAPACITY + 10) {
            info("t", &format!("m{i}"), &[]);
        }
        assert_eq!(recent().len(), RING_CAPACITY);
        clear();
        assert!(recent().is_empty());
    }
}
