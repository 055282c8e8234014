//! Named-metric registry with consistent snapshots.
//!
//! Call sites fetch handles by `(name, labels)`; the lookup takes a brief
//! mutex (query-granularity cost), after which all mutation is lock-free
//! on the returned `Arc`. Hot loops should hoist the handle out.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

type MetricId = (String, Vec<(String, String)>);

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics. Most code uses the process-wide
/// [`global`] instance; tests may build private ones for determinism.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<MetricId, Metric>>,
}

fn canon_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle for `(name, labels)`, registering it on first use.
    ///
    /// # Panics
    /// If the same id was previously registered as a different kind —
    /// a programmer error surfaced loudly rather than silently misfiled.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = (name.to_string(), canon_labels(labels));
        let mut map = self.inner.lock().expect("obs registry poisoned");
        match map
            .entry(id)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gauge handle for `(name, labels)`, registering it on first use.
    ///
    /// # Panics
    /// If the same id was previously registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = (name.to_string(), canon_labels(labels));
        let mut map = self.inner.lock().expect("obs registry poisoned");
        match map
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Histogram handle for `(name, labels)`, registering it on first use.
    ///
    /// # Panics
    /// If the same id was previously registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = (name.to_string(), canon_labels(labels));
        let mut map = self.inner.lock().expect("obs registry poisoned");
        match map
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Consistent point-in-time view of every registered metric, sorted
    /// by `(name, labels)` so exports are deterministic.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().expect("obs registry poisoned");
        let mut snap = Snapshot::default();
        for ((name, labels), metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap.histograms.push(HistogramValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    count: h.count(),
                    sum_seconds: h.sum() as f64 / 1e9,
                    p50_seconds: h.quantile(0.50) as f64 / 1e9,
                    p95_seconds: h.quantile(0.95) as f64 / 1e9,
                    p99_seconds: h.quantile(0.99) as f64 / 1e9,
                }),
            }
        }
        snap
    }

    /// Zero every metric while keeping registrations (handles held by
    /// call sites stay valid). Used between bench measurement windows.
    pub fn reset(&self) {
        let map = self.inner.lock().expect("obs registry poisoned");
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// One scalar metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue<T> {
    /// Metric name (Prometheus-safe: `[a-z0-9_]`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: T,
}

/// One histogram in a [`Snapshot`], pre-digested to count/sum/quantiles
/// (latency histograms record nanoseconds; seconds here for export).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramValue {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations, in seconds.
    pub sum_seconds: f64,
    /// Median latency, seconds.
    pub p50_seconds: f64,
    /// 95th-percentile latency, seconds.
    pub p95_seconds: f64,
    /// 99th-percentile latency, seconds.
    pub p99_seconds: f64,
}

/// Point-in-time view of a [`Registry`], sorted and export-ready.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<MetricValue<u64>>,
    /// All gauges.
    pub gauges: Vec<MetricValue<i64>>,
    /// All histograms.
    pub histograms: Vec<HistogramValue>,
}

impl Snapshot {
    /// Sum of a counter across all its label sets (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of a counter with an exact label set, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let want = canon_labels(labels);
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == want)
            .map(|c| c.value)
    }

    /// Value of a gauge with an exact label set, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let want = canon_labels(labels);
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels == want)
            .map(|g| g.value)
    }

    /// Histogram with an exact label set, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramValue> {
        let want = canon_labels(labels);
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels == want)
    }
}

/// The process-wide registry all instrumented crates record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Counter handle from the [`global`] registry.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter(name, labels)
}

/// Gauge handle from the [`global`] registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    global().gauge(name, labels)
}

/// Histogram handle from the [`global`] registry.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram(name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_id_returns_same_metric() {
        let r = Registry::new();
        let a = r.counter("hits_total", &[("kind", "x")]);
        let b = r.counter("hits_total", &[("kind", "x")]);
        a.inc();
        b.inc_by(2);
        assert_eq!(a.get(), 3);
        // label order canonicalized
        let c = r.counter("multi", &[("b", "2"), ("a", "1")]);
        let d = r.counter("multi", &[("a", "1"), ("b", "2")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m", &[]);
        let _ = r.gauge("m", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_zeroes() {
        let r = Registry::new();
        r.counter("z_total", &[]).inc_by(9);
        r.counter("a_total", &[]).inc();
        r.gauge("g", &[]).set(-4);
        r.histogram("lat_seconds", &[("stage", "scan")])
            .observe(1_000_000);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "a_total");
        assert_eq!(snap.counters[1].name, "z_total");
        assert_eq!(snap.counter_total("z_total"), 9);
        assert_eq!(snap.counter_value("a_total", &[]), Some(1));
        let h = snap.histogram("lat_seconds", &[("stage", "scan")]).unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum_seconds > 0.0);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("z_total"), 0);
        assert_eq!(
            snap.histogram("lat_seconds", &[("stage", "scan")])
                .unwrap()
                .count,
            0
        );
    }
}
