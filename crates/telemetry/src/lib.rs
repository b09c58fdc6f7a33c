//! Runtime telemetry for the DICE reproduction.
//!
//! One [`Telemetry`] handle threads through the engine, gateway, and eval
//! stack. It is either *recording* — backed by a [`Recorder`] holding the
//! lock-free metric catalog and an event ring — or a *no-op sink*, in which
//! case every instrumentation site reduces to a single `Option` check with
//! no clock reads, no atomics, and no allocation (the zero-cost disabled
//! path, guarded by `tests/telemetry.rs`).
//!
//! ```
//! use dice_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::recording();
//! if let Some(recorder) = telemetry.recorder() {
//!     recorder.metrics.engine.windows_total.inc();
//!     recorder.events.push("fault_report", "window 17: devices {3}");
//! }
//! let snapshot = telemetry.snapshot().expect("recording");
//! assert_eq!(snapshot.counter("dice_engine_windows_total"), Some(1));
//! println!("{}", snapshot.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod export;
mod family;
mod health;
mod json;
mod registry;
mod ring;
mod sketch;
mod timeseries;
mod trace;

pub use catalog::{
    catalog_metric_names, shard_label, DiceMetrics, EngineMetrics, EvalMetrics, FleetMetrics,
    GatewayMetrics, HealthMetrics, TimeseriesMetrics, TraceMetrics, TrainMetrics, MAX_SHARD_LABELS,
};
pub use export::{
    escape_label_value, is_valid_label_name, is_valid_metric_name, snapshot_gauge_json,
    validate_snapshot_json, SketchFamilyChild, Snapshot, SNAPSHOT_KIND, SNAPSHOT_SCHEMA,
};
pub use family::Family;
pub use health::{
    evaluate as evaluate_health, standard_rules, HealthReport, HealthRule, HealthStatus, RuleCheck,
    RuleOutcome,
};
pub use json::{escape as json_escape, parse as json_parse, ParseError, Value};
pub use registry::{Counter, Gauge, MetricEntry, MetricKind, Registry};
pub use ring::{EventRing, TelemetryEvent};
pub use sketch::{LocalSketch, QuantileSketch, SKETCH_RELATIVE_ERROR};
pub use timeseries::{SeriesSample, TimeSeriesRecorder};
pub use trace::SlotRing;

use std::sync::{Arc, OnceLock};

/// Clamps a `u128` nanosecond duration into `u64` (584 years of headroom).
pub fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// How many recent events a recorder retains.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// The live backing store of a recording [`Telemetry`] handle.
#[derive(Debug)]
pub struct Recorder {
    registry: Registry,
    /// The full DICE metric catalog, with pre-registered handles.
    pub metrics: DiceMetrics,
    /// Recent structured events (fault reports, findings, decode errors).
    pub events: EventRing,
}

impl Recorder {
    fn new(event_capacity: usize) -> Self {
        let registry = Registry::new();
        let metrics = DiceMetrics::register(&registry);
        Recorder {
            registry,
            metrics,
            events: EventRing::new(event_capacity),
        }
    }

    /// The underlying registry (for export or ad-hoc extra metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Captures a point-in-time [`Snapshot`] of all metrics and events.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::collect(&self.registry, &self.events)
    }
}

/// A cheaply clonable telemetry handle: either a no-op sink or a shared
/// [`Recorder`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(recorder) => write!(f, "Telemetry(recording, {:?})", recorder.registry),
            None => write!(f, "Telemetry(noop)"),
        }
    }
}

impl Telemetry {
    /// The no-op sink: every instrumentation site short-circuits.
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh recording handle with the default event capacity.
    pub fn recording() -> Self {
        Telemetry::recording_with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A fresh recording handle retaining up to `event_capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `event_capacity` is zero.
    pub fn recording_with_capacity(event_capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Recorder::new(event_capacity))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder, or `None` for the no-op sink. Instrumentation sites
    /// gate on this so the disabled path does no work at all.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_deref()
    }

    /// A point-in-time snapshot, or `None` for the no-op sink.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|r| r.snapshot())
    }

    /// The process-global handle. Defaults to the no-op sink until
    /// [`Telemetry::install_global`] runs.
    pub fn global() -> Telemetry {
        GLOBAL.get_or_init(Telemetry::noop).clone()
    }

    /// Installs `telemetry` as the process-global handle.
    ///
    /// Returns `false` (leaving the existing handle in place) if a global
    /// was already installed or [`Telemetry::global`] was already read.
    pub fn install_global(telemetry: Telemetry) -> bool {
        GLOBAL.set(telemetry).is_ok()
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_free_of_state() {
        let telemetry = Telemetry::noop();
        assert!(!telemetry.is_enabled());
        assert!(telemetry.recorder().is_none());
        assert!(telemetry.snapshot().is_none());
    }

    #[test]
    fn recording_handle_shares_state_across_clones() {
        let telemetry = Telemetry::recording();
        let clone = telemetry.clone();
        telemetry
            .recorder()
            .unwrap()
            .metrics
            .engine
            .windows_total
            .add(2);
        clone.recorder().unwrap().metrics.engine.windows_total.inc();
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(snapshot.counter("dice_engine_windows_total"), Some(3));
    }

    #[test]
    fn catalog_latencies_are_sketches() {
        let telemetry = Telemetry::recording();
        let recorder = telemetry.recorder().unwrap();
        recorder.metrics.engine.identification_ns.record(1_000);
        recorder.metrics.engine.identification_windows.record(3);
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(
            snapshot.sketch("dice_engine_identification_ns"),
            Some((1, 1_000))
        );
        // Values below 16 are exact, so window counts keep full precision.
        assert_eq!(
            snapshot.sketch_percentiles("dice_engine_identification_windows"),
            Some((3, 3, 3))
        );
    }

    #[test]
    fn saturating_ns_clamps() {
        assert_eq!(saturating_ns(42), 42);
        assert_eq!(saturating_ns(u128::from(u64::MAX) + 1), u64::MAX);
    }

    #[test]
    fn global_defaults_to_noop() {
        // Never install in tests: first read pins the default.
        assert!(!Telemetry::global().is_enabled());
        assert!(!Telemetry::install_global(Telemetry::recording()));
    }
}
