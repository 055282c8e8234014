//! Sliding-window SLO watchdog.
//!
//! Serving outcomes are bucketed into a ring of one-second slots, per
//! admission class. From the ring the watchdog derives 10s / 1m / 5m
//! window statistics — availability, shed/timeout/cache-hit rates, and
//! p50/p95/p99 latency (reusing the registry histograms' log-linear
//! bucket layout, ≤12.5% relative error) — and exports them as
//! `aqp_slo_*` gauges. Breach detection is burn-rate style and
//! edge-triggered: a class enters breach only when *both* the 10s and 1m
//! windows violate the target (fast burn confirmed by sustained burn),
//! and the transition into breach is reported exactly once so the server
//! can emit one event and one flight-recorder dump per episode.

use std::time::{Duration, Instant};

use crate::metrics::{bucket_index, bucket_mid, NUM_BUCKETS};
use crate::registry::Registry;

/// Ring length in seconds: long enough for the 5m window plus one slot
/// of slack for the in-progress second.
const RING_SECONDS: usize = 301;

/// The windows derived from the ring, in seconds.
pub const WINDOWS: [(&str, u64); 3] = [("10s", 10), ("1m", 60), ("5m", 300)];

/// Outcome of one request, as the watchdog classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOutcome {
    /// Answered (latency attached by the caller).
    Answered {
        /// Whether the answer came from the semantic cache.
        cache_hit: bool,
    },
    /// Load-shed at admission.
    Shed,
    /// Deadline exceeded.
    Timeout,
    /// Failed with a server-side error.
    Error,
}

/// Watchdog thresholds.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Availability target in [0, 1]: answered / (answered + shed +
    /// timeout + error) must stay at or above this.
    pub availability_target: f64,
    /// Optional p99 latency ceiling; `None` disables the latency rule.
    pub p99_limit: Option<Duration>,
    /// Minimum requests a window needs before it can vote for a breach
    /// (guards against one early failure tripping an empty window).
    pub min_requests: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            availability_target: 0.99,
            p99_limit: None,
            min_requests: 10,
        }
    }
}

/// Aggregate statistics over one sliding window for one class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowStats {
    /// Total requests in the window.
    pub requests: u64,
    /// Answered requests.
    pub answered: u64,
    /// Load-shed requests.
    pub shed: u64,
    /// Timed-out requests.
    pub timeout: u64,
    /// Errored requests.
    pub errors: u64,
    /// Cache hits among the answered requests.
    pub cache_hits: u64,
    /// answered / requests (1.0 for an empty window).
    pub availability: f64,
    /// p50 latency, microseconds (answered requests only).
    pub p50_micros: u64,
    /// p95 latency, microseconds.
    pub p95_micros: u64,
    /// p99 latency, microseconds.
    pub p99_micros: u64,
}

impl WindowStats {
    fn rate(&self, part: u64) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            part as f64 / self.requests as f64
        }
    }

    /// shed / requests.
    pub fn shed_rate(&self) -> f64 {
        self.rate(self.shed)
    }

    /// timeout / requests.
    pub fn timeout_rate(&self) -> f64 {
        self.rate(self.timeout)
    }

    /// cache hits / requests.
    pub fn cache_hit_rate(&self) -> f64 {
        self.rate(self.cache_hits)
    }
}

/// A newly detected breach episode for one class.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Class label the breach applies to.
    pub class: String,
    /// Which rule tripped: `availability` or `p99`.
    pub rule: &'static str,
    /// Fast-window (10s) availability at detection time.
    pub fast_availability: f64,
    /// Slow-window (1m) availability at detection time.
    pub slow_availability: f64,
}

/// One second of per-class tallies plus a latency histogram.
#[derive(Debug, Clone)]
struct Slot {
    /// Seconds-since-start stamp identifying which second the slot
    /// currently holds; stale slots are lazily reset on touch.
    epoch: u64,
    answered: u64,
    shed: u64,
    timeout: u64,
    errors: u64,
    cache_hits: u64,
    latency: [u32; NUM_BUCKETS],
}

impl Slot {
    fn reset(&mut self, epoch: u64) {
        *self = Slot::empty(epoch);
    }

    fn empty(epoch: u64) -> Slot {
        Slot {
            epoch,
            answered: 0,
            shed: 0,
            timeout: 0,
            errors: 0,
            cache_hits: 0,
            latency: [0u32; NUM_BUCKETS],
        }
    }
}

struct ClassRing {
    label: String,
    slots: Vec<Slot>,
    in_breach: bool,
}

/// Per-class sliding windows over one-second slots.
///
/// Not internally synchronized: the server keeps it behind the same
/// mutex as the flight recorder commit (one short lock per request).
pub struct SloWindows {
    start: Instant,
    config: SloConfig,
    classes: Vec<ClassRing>,
}

impl SloWindows {
    /// New watchdog; `classes` are the admission class labels.
    pub fn new(config: SloConfig, classes: &[&str]) -> SloWindows {
        SloWindows {
            start: Instant::now(),
            config,
            classes: classes
                .iter()
                .map(|label| ClassRing {
                    label: (*label).to_string(),
                    slots: vec![Slot::empty(u64::MAX); RING_SECONDS],
                    in_breach: false,
                })
                .collect(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    fn now_epoch(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    fn class_mut(&mut self, class: &str) -> Option<&mut ClassRing> {
        self.classes.iter_mut().find(|c| c.label == class)
    }

    /// Record one request outcome for `class`. `latency` is consulted
    /// only for [`SloOutcome::Answered`]. Returns `Some(Breach)` exactly
    /// when this observation transitions the class into breach.
    pub fn record(
        &mut self,
        class: &str,
        outcome: SloOutcome,
        latency: Duration,
    ) -> Option<Breach> {
        if !crate::enabled() {
            return None;
        }
        let epoch = self.now_epoch();
        let config = self.config.clone();
        let ring = self.class_mut(class)?;
        let idx = (epoch % RING_SECONDS as u64) as usize;
        let slot = &mut ring.slots[idx];
        if slot.epoch != epoch {
            slot.reset(epoch);
        }
        match outcome {
            SloOutcome::Answered { cache_hit } => {
                slot.answered += 1;
                if cache_hit {
                    slot.cache_hits += 1;
                }
                let b = bucket_index(latency.as_micros() as u64);
                slot.latency[b] = slot.latency[b].saturating_add(1);
            }
            SloOutcome::Shed => slot.shed += 1,
            SloOutcome::Timeout => slot.timeout += 1,
            SloOutcome::Error => slot.errors += 1,
        }
        Self::check_breach(ring, epoch, &config)
    }

    fn window_of(ring: &ClassRing, epoch: u64, seconds: u64) -> WindowStats {
        let mut stats = WindowStats {
            availability: 1.0,
            ..WindowStats::default()
        };
        let mut latency = [0u64; NUM_BUCKETS];
        let oldest = epoch.saturating_sub(seconds.saturating_sub(1));
        for e in oldest..=epoch {
            let slot = &ring.slots[(e % RING_SECONDS as u64) as usize];
            if slot.epoch != e {
                continue; // never written or recycled for a newer second
            }
            stats.answered += slot.answered;
            stats.shed += slot.shed;
            stats.timeout += slot.timeout;
            stats.errors += slot.errors;
            stats.cache_hits += slot.cache_hits;
            for (acc, n) in latency.iter_mut().zip(slot.latency.iter()) {
                *acc += *n as u64;
            }
        }
        stats.requests = stats.answered + stats.shed + stats.timeout + stats.errors;
        if stats.requests > 0 {
            stats.availability = stats.answered as f64 / stats.requests as f64;
        }
        stats.p50_micros = Self::percentile(&latency, 0.50);
        stats.p95_micros = Self::percentile(&latency, 0.95);
        stats.p99_micros = Self::percentile(&latency, 0.99);
        stats
    }

    fn percentile(latency: &[u64; NUM_BUCKETS], q: f64) -> u64 {
        let count: u64 = latency.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, n) in latency.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_mid(i);
            }
        }
        bucket_mid(NUM_BUCKETS - 1)
    }

    /// Window statistics for `class` over the trailing `seconds`.
    pub fn window(&self, class: &str, seconds: u64) -> WindowStats {
        let epoch = self.now_epoch();
        self.classes
            .iter()
            .find(|c| c.label == class)
            .map(|ring| Self::window_of(ring, epoch, seconds))
            .unwrap_or_default()
    }

    /// Whether `class` is currently in breach.
    pub fn in_breach(&self, class: &str) -> bool {
        self.classes
            .iter()
            .find(|c| c.label == class)
            .map(|c| c.in_breach)
            .unwrap_or(false)
    }

    fn check_breach(ring: &mut ClassRing, epoch: u64, config: &SloConfig) -> Option<Breach> {
        let fast = Self::window_of(ring, epoch, 10);
        let slow = Self::window_of(ring, epoch, 60);
        let enough = fast.requests >= config.min_requests && slow.requests >= config.min_requests;
        let avail_bad = enough
            && fast.availability < config.availability_target
            && slow.availability < config.availability_target;
        let p99_bad = match config.p99_limit {
            Some(limit) => {
                let limit = limit.as_micros() as u64;
                enough && fast.p99_micros > limit && slow.p99_micros > limit
            }
            None => false,
        };
        let breached = avail_bad || p99_bad;
        let was = ring.in_breach;
        ring.in_breach = breached;
        if breached && !was {
            Some(Breach {
                class: ring.label.clone(),
                rule: if avail_bad { "availability" } else { "p99" },
                fast_availability: fast.availability,
                slow_availability: slow.availability,
            })
        } else {
            None
        }
    }

    /// Export every class × window as `aqp_slo_*` gauges into `registry`
    /// (the serving registry of the server that owns the watchdog). Rates
    /// are exported in permille (integer gauges), latencies in
    /// microseconds.
    pub fn export_to_registry(&self, registry: &Registry) {
        if !crate::enabled() {
            return;
        }
        for ring in &self.classes {
            for (name, seconds) in WINDOWS {
                let w = self.window(&ring.label, seconds);
                let labels: &[(&str, &str)] = &[("class", &ring.label), ("window", name)];
                let set = |name: &str, value: i64| registry.gauge(name, labels).set(value);
                let permille = |x: f64| (x * 1000.0).round() as i64;
                set("aqp_slo_requests", w.requests as i64);
                set("aqp_slo_availability_permille", permille(w.availability));
                set("aqp_slo_shed_rate_permille", permille(w.shed_rate()));
                set("aqp_slo_timeout_rate_permille", permille(w.timeout_rate()));
                set("aqp_slo_cache_hit_rate_permille", permille(w.cache_hit_rate()));
                set("aqp_slo_p50_micros", w.p50_micros as i64);
                set("aqp_slo_p95_micros", w.p95_micros as i64);
                set("aqp_slo_p99_micros", w.p99_micros as i64);
            }
            registry.gauge("aqp_slo_in_breach", &[("class", &ring.label)]).set(ring.in_breach as i64);
        }
    }
}

impl std::fmt::Debug for SloWindows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloWindows")
            .field("config", &self.config)
            .field("classes", &self.classes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watchdog(min_requests: u64) -> SloWindows {
        SloWindows::new(
            SloConfig {
                availability_target: 0.9,
                p99_limit: None,
                min_requests,
            },
            &["interactive", "batch"],
        )
    }

    #[test]
    fn windows_accumulate_and_rate() {
        let mut slo = watchdog(1000);
        for _ in 0..8 {
            slo.record(
                "interactive",
                SloOutcome::Answered { cache_hit: true },
                Duration::from_micros(500),
            );
        }
        slo.record("interactive", SloOutcome::Shed, Duration::ZERO);
        slo.record("interactive", SloOutcome::Timeout, Duration::ZERO);
        let w = slo.window("interactive", 10);
        assert_eq!(w.requests, 10);
        assert_eq!(w.answered, 8);
        assert!((w.availability - 0.8).abs() < 1e-12);
        assert!((w.shed_rate() - 0.1).abs() < 1e-12);
        assert!((w.cache_hit_rate() - 0.8).abs() < 1e-12);
        // 500us with <=12.5% bucket error
        assert!(w.p50_micros >= 437 && w.p50_micros <= 563, "{}", w.p50_micros);
        // other class untouched
        assert_eq!(slo.window("batch", 300).requests, 0);
        assert!((slo.window("batch", 300).availability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breach_is_edge_triggered() {
        let mut slo = watchdog(5);
        // Healthy traffic first: no breach.
        for _ in 0..20 {
            let b = slo.record(
                "batch",
                SloOutcome::Answered { cache_hit: false },
                Duration::from_micros(100),
            );
            assert!(b.is_none());
        }
        // Hammer with sheds until availability drops below 0.9 in both
        // windows: exactly one breach edge.
        let mut breaches = 0;
        for _ in 0..200 {
            if let Some(b) = slo.record("batch", SloOutcome::Shed, Duration::ZERO) {
                breaches += 1;
                assert_eq!(b.class, "batch");
                assert_eq!(b.rule, "availability");
                assert!(b.fast_availability < 0.9);
            }
        }
        assert_eq!(breaches, 1);
        assert!(slo.in_breach("batch"));
        assert!(!slo.in_breach("interactive"));
    }

    #[test]
    fn small_windows_never_vote() {
        let mut slo = watchdog(50);
        for _ in 0..20 {
            assert!(slo.record("interactive", SloOutcome::Error, Duration::ZERO).is_none());
        }
        assert!(!slo.in_breach("interactive"));
    }

    #[test]
    fn p99_rule_trips_on_slow_answers() {
        let mut slo = SloWindows::new(
            SloConfig {
                availability_target: 0.0,
                p99_limit: Some(Duration::from_millis(1)),
                min_requests: 5,
            },
            &["interactive"],
        );
        let mut breaches = 0;
        for _ in 0..50 {
            if let Some(b) = slo.record(
                "interactive",
                SloOutcome::Answered { cache_hit: false },
                Duration::from_millis(10),
            ) {
                assert_eq!(b.rule, "p99");
                breaches += 1;
            }
        }
        assert_eq!(breaches, 1);
    }

    #[test]
    fn export_writes_gauges() {
        let mut slo = watchdog(1);
        slo.record(
            "interactive",
            SloOutcome::Answered { cache_hit: false },
            Duration::from_micros(250),
        );
        let registry = Registry::new();
        slo.export_to_registry(&registry);
        let snap = registry.snapshot();
        let labels: &[(&str, &str)] = &[("class", "interactive"), ("window", "10s")];
        assert_eq!(snap.gauge_value("aqp_slo_requests", labels), Some(1));
        assert_eq!(snap.gauge_value("aqp_slo_requests", &[("class", "batch"), ("window", "5m")]), Some(0));
        assert_eq!(snap.gauge_value("aqp_slo_in_breach", &[("class", "interactive")]), Some(0));
        assert_eq!(
            snap.gauge_value("aqp_slo_availability_permille", labels),
            Some(1000)
        );
    }
}
