//! The lock-free metrics registry and its counter and gauge primitives.
//!
//! Hot-path operations ([`Counter::inc`], [`Gauge::set_max`],
//! [`QuantileSketch::record`]) are relaxed atomic read-modify-writes on
//! handles resolved once at registration time; the registry's mutex guards
//! only registration and snapshotting, never a recording call.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::export::is_valid_metric_name;
use crate::family::Family;
use crate::sketch::QuantileSketch;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is below it — a high-water mark.
    pub fn set_max(&self, value: i64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// What a registered metric is, for exposition formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonic counter.
    Counter,
    /// A bidirectional gauge.
    Gauge,
    /// A log2-bucketed quantile sketch.
    Sketch,
    /// A labeled family of counters.
    CounterFamily,
    /// A labeled family of gauges.
    GaugeFamily,
    /// A labeled family of quantile sketches.
    SketchFamily,
}

/// The typed handle behind a registry entry. Crate-visible so the
/// time-series recorder can keep a compact pre-resolved sweep plan (one
/// small struct per watched metric) instead of re-matching full
/// [`MetricEntry`] values every sweep.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Sketch(Arc<QuantileSketch>),
    CounterFamily(Arc<Family<Counter>>),
    GaugeFamily(Arc<Family<Gauge>>),
    SketchFamily(Arc<Family<QuantileSketch>>),
}

/// One registered metric, read back during a snapshot.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// The metric name (Prometheus-style, `dice_<layer>_<what>[_total]`).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The sample unit (`"ns"`, `"windows"`, ... — empty for counters).
    pub unit: &'static str,
    metric: Metric,
}

impl MetricEntry {
    /// The typed handle, for building pre-resolved sweep plans.
    pub(crate) fn metric(&self) -> &Metric {
        &self.metric
    }

    /// The metric's kind.
    pub fn kind(&self) -> MetricKind {
        match self.metric {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Sketch(_) => MetricKind::Sketch,
            Metric::CounterFamily(_) => MetricKind::CounterFamily,
            Metric::GaugeFamily(_) => MetricKind::GaugeFamily,
            Metric::SketchFamily(_) => MetricKind::SketchFamily,
        }
    }

    /// The counter behind this entry, if it is one.
    pub fn as_counter(&self) -> Option<&Counter> {
        match &self.metric {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// The gauge behind this entry, if it is one.
    pub fn as_gauge(&self) -> Option<&Gauge> {
        match &self.metric {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// The quantile sketch behind this entry, if it is one.
    pub fn as_sketch(&self) -> Option<&QuantileSketch> {
        match &self.metric {
            Metric::Sketch(s) => Some(s),
            _ => None,
        }
    }

    /// The counter family behind this entry, if it is one.
    pub fn as_counter_family(&self) -> Option<&Family<Counter>> {
        match &self.metric {
            Metric::CounterFamily(f) => Some(f),
            _ => None,
        }
    }

    /// The gauge family behind this entry, if it is one.
    pub fn as_gauge_family(&self) -> Option<&Family<Gauge>> {
        match &self.metric {
            Metric::GaugeFamily(f) => Some(f),
            _ => None,
        }
    }

    /// The sketch family behind this entry, if it is one.
    pub fn as_sketch_family(&self) -> Option<&Family<QuantileSketch>> {
        match &self.metric {
            Metric::SketchFamily(f) => Some(f),
            _ => None,
        }
    }
}

/// A registry of named metrics.
///
/// Registration returns an [`Arc`] handle the caller stores once (the
/// "static handle" discipline); recording through the handle never touches
/// the registry again.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<MetricEntry>>,
    /// Mirror of `entries.len()`, bumped after each insert, so the
    /// time-series recorder's per-sweep staleness probe ([`Registry::len`])
    /// is a relaxed load instead of a mutex acquisition.
    count: AtomicUsize,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.entries.lock().len())
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn insert(&self, name: &'static str, help: &'static str, unit: &'static str, metric: Metric) {
        assert!(
            is_valid_metric_name(name),
            "invalid metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        let mut entries = self.entries.lock();
        assert!(
            entries.iter().all(|e| e.name != name),
            "duplicate metric name {name:?}"
        );
        entries.push(MetricEntry {
            name,
            help,
            unit,
            metric,
        });
        self.count.store(entries.len(), Ordering::Release);
    }

    /// Registers a counter and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let counter = Arc::new(Counter::default());
        self.insert(name, help, "", Metric::Counter(Arc::clone(&counter)));
        counter
    }

    /// Registers a gauge and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::default());
        self.insert(name, help, "", Metric::Gauge(Arc::clone(&gauge)));
        gauge
    }

    /// Registers a quantile sketch and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn sketch(
        &self,
        name: &'static str,
        help: &'static str,
        unit: &'static str,
    ) -> Arc<QuantileSketch> {
        let sketch = Arc::new(QuantileSketch::new());
        self.insert(name, help, unit, Metric::Sketch(Arc::clone(&sketch)));
        sketch
    }

    /// Registers a labeled counter family and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered or any label name is invalid.
    pub fn counter_family(
        &self,
        name: &'static str,
        help: &'static str,
        label_names: &'static [&'static str],
    ) -> Arc<Family<Counter>> {
        let family = Arc::new(Family::new(label_names));
        self.insert(name, help, "", Metric::CounterFamily(Arc::clone(&family)));
        family
    }

    /// Registers a labeled gauge family and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered or any label name is invalid.
    pub fn gauge_family(
        &self,
        name: &'static str,
        help: &'static str,
        label_names: &'static [&'static str],
    ) -> Arc<Family<Gauge>> {
        let family = Arc::new(Family::new(label_names));
        self.insert(name, help, "", Metric::GaugeFamily(Arc::clone(&family)));
        family
    }

    /// Registers a labeled quantile-sketch family and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered or any label name is invalid.
    pub fn sketch_family(
        &self,
        name: &'static str,
        help: &'static str,
        unit: &'static str,
        label_names: &'static [&'static str],
    ) -> Arc<Family<QuantileSketch>> {
        let family = Arc::new(Family::new(label_names));
        self.insert(name, help, unit, Metric::SketchFamily(Arc::clone(&family)));
        family
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn entries(&self) -> Vec<MetricEntry> {
        let mut entries = self.entries.lock().clone();
        entries.sort_by_key(|e| e.name);
        entries
    }

    /// Number of registered metrics — a lock-free atomic load, cheap enough
    /// to probe from a per-window sweep.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let registry = Registry::new();
        let c = registry.counter("c_total", "a counter");
        let g = registry.gauge("g", "a gauge");
        c.inc();
        c.add(4);
        g.set(7);
        g.add(-2);
        g.set_max(3); // below current 5: no effect
        g.set_max(11);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 11);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn snapshot_entries_sort_by_name() {
        let registry = Registry::new();
        let _ = registry.counter("z_total", "");
        let _ = registry.counter("a_total", "");
        let names: Vec<_> = registry.entries().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
    }

    #[test]
    fn sketches_and_families_register_with_kinds() {
        let registry = Registry::new();
        let sketch = registry.sketch("s_ns", "a sketch", "ns");
        let counters = registry.counter_family("f_total", "a family", &["home"]);
        let gauges = registry.gauge_family("d", "depths", &["shard"]);
        let sketches = registry.sketch_family("lat_ns", "latencies", "ns", &["shard"]);
        sketch.record(7);
        counters.with_label_values(&["h0"]).inc();
        gauges.with_label_values(&["0"]).set(3);
        sketches.with_label_values(&["s0"]).record(11);
        let entries = registry.entries();
        let kind = |name: &str| entries.iter().find(|e| e.name == name).unwrap().kind();
        assert_eq!(kind("s_ns"), MetricKind::Sketch);
        assert_eq!(kind("f_total"), MetricKind::CounterFamily);
        assert_eq!(kind("d"), MetricKind::GaugeFamily);
        assert_eq!(kind("lat_ns"), MetricKind::SketchFamily);
        let entry = entries.iter().find(|e| e.name == "s_ns").unwrap();
        assert_eq!(entry.as_sketch().unwrap().count(), 1);
        assert!(entry.as_counter().is_none());
        let entry = entries.iter().find(|e| e.name == "lat_ns").unwrap();
        let family = entry.as_sketch_family().unwrap();
        assert_eq!(family.with_label_values(&["s0"]).count(), 1);
        assert!(entry.as_gauge_family().is_none());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_names_are_rejected() {
        let registry = Registry::new();
        let _ = registry.counter("bad name", "");
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_are_rejected() {
        let registry = Registry::new();
        let _ = registry.counter("dup_total", "");
        let _ = registry.gauge("dup_total", "");
    }
}
