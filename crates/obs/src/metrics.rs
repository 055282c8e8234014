//! Atomic metric primitives: counters, gauges, and log-linear histograms.
//!
//! All types are cheap to clone behind `Arc` and safe to hammer from the
//! morsel thread pool — every mutation is a single atomic RMW, no locks.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Monotonically increasing counter (u64, wraps only after 2^64 events).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Add `n`.
    pub fn inc_by(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (used by [`crate::Registry::reset`]).
    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous signed value (e.g. number of disabled sample-table units).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of exact low-value buckets (values 0..16 each get their own).
const LINEAR_BUCKETS: usize = 16;
/// log2 of the first log-linear octave (16 = 2^4).
const FIRST_EXP: usize = 4;
/// Sub-buckets per octave (2 mantissa bits → ≤12.5% relative error).
const SUB_BUCKETS: usize = 4;
/// Total bucket count: 16 linear + 4 per octave for exponents 4..=63.
pub(crate) const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - FIRST_EXP) * SUB_BUCKETS;

/// Log-linear histogram over `u64` magnitudes (recorded in nanoseconds
/// for latencies). Fixed 256-bucket layout: values below 16 are exact,
/// larger values land in one of four sub-buckets per power of two, so
/// quantile estimates carry at most ~12.5% relative error — plenty for
/// p50/p95/p99 latency reporting without dynamic allocation or locks.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Total of all observed values (ns). Wraps after ~584 years of
    /// recorded latency; acceptable.
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; NUM_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a raw value.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= FIRST_EXP
    let sub = ((v >> (exp - 2)) & 0b11) as usize;
    LINEAR_BUCKETS + (exp - FIRST_EXP) * SUB_BUCKETS + sub
}

/// Midpoint of the value range covered by bucket `i` — the value a
/// quantile query reports for observations that landed there.
pub(crate) fn bucket_mid(i: usize) -> u64 {
    if i < LINEAR_BUCKETS {
        return i as u64;
    }
    let exp = FIRST_EXP + (i - LINEAR_BUCKETS) / SUB_BUCKETS;
    let sub = ((i - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
    let width = 1u64 << (exp - 2); // octave span / 4
    let lower = (1u64 << exp) + sub * width;
    lower + width / 2
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a raw magnitude.
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (raw units, ns for latencies).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`0.0..=1.0`) in raw units. Returns 0 when
    /// empty. Error is bounded by the bucket width (≤12.5% relative).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_mid(i);
            }
        }
        bucket_mid(NUM_BUCKETS - 1)
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.inc_by(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            for probe in [v, v + v / 3, v + v / 2, v.saturating_sub(1)] {
                let i = bucket_index(probe);
                assert!(i < NUM_BUCKETS, "index {i} out of range for {probe}");
            }
            let i = bucket_index(v);
            assert!(i >= last, "bucket index must not decrease at {v}");
            last = i;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
    }

    #[test]
    fn bucket_mid_within_12_5_percent() {
        for v in [16u64, 100, 1_000, 123_456, 1 << 30, u64::MAX / 2] {
            let mid = bucket_mid(bucket_index(v));
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(rel <= 0.125 + 1e-9, "value {v} mid {mid} rel err {rel}");
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        // 100 observations: 1..=100 microseconds in ns.
        for us in 1..=100u64 {
            h.observe(us * 1_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 <= 0.125, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 <= 0.125, "p99={p99}");
        assert!(h.quantile(0.0) >= 1_000 - 125);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }
}
