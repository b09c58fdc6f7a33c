//! The online DICE engine: the real-time phase as a window-at-a-time state
//! machine.
//!
//! The engine glues the pieces of Figure 3.2's right half together: each
//! window is binarized, checked (correlation then transition), and — once a
//! violation is detected — the identification step repeats over subsequent
//! windows, intersecting probable-fault sets until at most `numThre` devices
//! remain (Section 3.4).
//
// lint-src: allow-file(wall-clock) — the Instant reads here feed only the
// CostProfile and telemetry span timings; no detection or identification
// decision depends on them.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dice_telemetry::{saturating_ns, Counter, EngineMetrics, LocalHistogram, Telemetry};
use dice_types::{DeviceId, Event, GroupId, TimeDelta, Timestamp};

use crate::binarize::{BinarizeScratch, WindowObservation};
use crate::detect::{CheckKind, CheckResult, Detector, PrevWindow, TransitionCase};
use crate::groups::Candidate;
use crate::identify::{Identifier, IntersectionTracker};
use crate::model::DiceModel;
use crate::scan::ScanProfile;
use crate::trace::{
    DecisionTrace, FlightRecorder, LineageStamp, SharedTraceSink, TraceOptions, TracePhase,
    TraceTransition, TraceVerdict,
};
use crate::weights::DeviceWeights;

/// The numeric evidence behind a detection: what the triggering check
/// actually measured. Captured on the first violating window regardless of
/// whether tracing is enabled, so it is deterministic engine output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectionDetail {
    /// A correlation violation: no exact group match; the nearest group and
    /// its Hamming distance from the observed state set.
    Correlation {
        /// The nearest candidate group.
        nearest: GroupId,
        /// Hamming distance between the observed state set and `nearest`.
        distance: u32,
    },
    /// A transition violation: the first flagged transition triple with the
    /// probability the model assigned to it and the violation threshold
    /// (flagged because `observed <= threshold`).
    Transition {
        /// The transition triple that was checked.
        case: TransitionCase,
        /// The probability the model assigns to this transition.
        observed: f64,
        /// The violation threshold (the paper's zero-probability rule).
        threshold: f64,
    },
}

/// A completed fault report.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// End of the window in which the first violation was detected.
    pub detected_at: Timestamp,
    /// End of the window in which identification converged.
    pub identified_at: Timestamp,
    /// Which check detected the fault.
    pub detected_by: CheckKind,
    /// The identified faulty devices (at most `numThre` when conclusive).
    pub devices: Vec<DeviceId>,
    /// Whether identification converged below `numThre` (vs hitting the
    /// window budget or firing early on device weights).
    pub conclusive: bool,
    /// Number of windows consumed from detection through identification.
    pub windows_examined: usize,
    /// What the triggering check measured (always captured; deterministic).
    pub detail: Option<DetectionDetail>,
    /// The flight recorder's most recent traces at report time. Empty
    /// unless tracing is enabled; diagnostic provenance, not part of the
    /// report's semantic identity (excluded from `PartialEq`).
    pub evidence: Vec<DecisionTrace>,
    /// Pipeline latency attribution stamped by a fleet shard (where the
    /// wall-clock went from ingest to this verdict). `None` outside the
    /// fleet service; diagnostic provenance like `evidence`, excluded
    /// from `PartialEq`.
    pub lineage: Option<LineageStamp>,
}

/// Equality ignores `evidence` and `lineage`: both are diagnostic
/// provenance, and trace- or stamp-enabled engines must produce equal
/// report streams on identical input.
impl PartialEq for FaultReport {
    fn eq(&self, other: &Self) -> bool {
        self.detected_at == other.detected_at
            && self.identified_at == other.identified_at
            && self.detected_by == other.detected_by
            && self.devices == other.devices
            && self.conclusive == other.conclusive
            && self.windows_examined == other.windows_examined
            && self.detail == other.detail
    }
}

impl FaultReport {
    /// Identification latency: `identified_at - detected_at`.
    pub fn identification_lag(&self) -> TimeDelta {
        self.identified_at - self.detected_at
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault detected at {} by {} check; identified at {}: ",
            self.detected_at, self.detected_by, self.identified_at
        )?;
        for (i, d) in self.devices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        match &self.detail {
            Some(DetectionDetail::Correlation { nearest, distance }) => {
                write!(f, " (nearest group {nearest} at distance {distance})")?;
            }
            Some(DetectionDetail::Transition {
                case,
                observed,
                threshold,
            }) => {
                write!(f, " ({case} = {observed}, threshold {threshold})")?;
            }
            None => {}
        }
        if !self.conclusive {
            write!(f, " (inconclusive)")?;
        }
        Ok(())
    }
}

/// Wall-clock cost accounting for Figure 5.3: time spent in the correlation
/// check (including binarization), the transition check, and identification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// Nanoseconds in binarization + correlation check.
    pub correlation_ns: u128,
    /// Nanoseconds in the transition check.
    pub transition_ns: u128,
    /// Nanoseconds in identification.
    pub identification_ns: u128,
    /// Windows processed.
    pub windows: u64,
}

impl CostProfile {
    /// Mean correlation-check time per window, in milliseconds.
    pub fn correlation_ms_per_window(&self) -> f64 {
        self.per_window_ms(self.correlation_ns)
    }

    /// Mean transition-check time per window, in milliseconds.
    pub fn transition_ms_per_window(&self) -> f64 {
        self.per_window_ms(self.transition_ns)
    }

    /// Mean identification time per window, in milliseconds.
    pub fn identification_ms_per_window(&self) -> f64 {
        self.per_window_ms(self.identification_ns)
    }

    /// Mean total time per window, in milliseconds.
    pub fn total_ms_per_window(&self) -> f64 {
        self.per_window_ms(self.correlation_ns + self.transition_ns + self.identification_ns)
    }

    fn per_window_ms(&self, ns: u128) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            ns as f64 / self.windows as f64 / 1e6
        }
    }

    /// Total nanoseconds across all three steps.
    pub fn total_ns(&self) -> u128 {
        self.correlation_ns + self.transition_ns + self.identification_ns
    }

    /// Correlation-check time in whole milliseconds, saturating to `u64`.
    pub fn correlation_millis(&self) -> u64 {
        saturating_millis(self.correlation_ns)
    }

    /// Transition-check time in whole milliseconds, saturating to `u64`.
    pub fn transition_millis(&self) -> u64 {
        saturating_millis(self.transition_ns)
    }

    /// Identification time in whole milliseconds, saturating to `u64`.
    pub fn identification_millis(&self) -> u64 {
        saturating_millis(self.identification_ns)
    }

    /// Total time in whole milliseconds, saturating to `u64`.
    pub fn total_millis(&self) -> u64 {
        saturating_millis(self.total_ns())
    }

    /// Mean total nanoseconds per window, or 0 before any window.
    pub fn mean_ns_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.total_ns() as f64 / self.windows as f64
        }
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &CostProfile) {
        self.correlation_ns += other.correlation_ns;
        self.transition_ns += other.transition_ns;
        self.identification_ns += other.identification_ns;
        self.windows += other.windows;
    }
}

/// What the triggering check measured, for [`FaultReport::detail`]. Cheap
/// (two table lookups at most) and deterministic, so it is computed on
/// every first violation regardless of tracing.
fn detection_detail(model: &DiceModel, result: &CheckResult) -> Option<DetectionDetail> {
    match result {
        CheckResult::Normal { .. } => None,
        CheckResult::CorrelationViolation { candidates } => {
            // `candidates_into` sorts ascending by distance.
            candidates.first().map(|c| DetectionDetail::Correlation {
                nearest: c.group,
                distance: c.distance,
            })
        }
        CheckResult::TransitionViolation { cases, .. } => cases.first().map(|case| {
            let transitions = model.transitions();
            let observed = match *case {
                TransitionCase::G2G { from, to } => transitions.g2g_prob(from, to),
                TransitionCase::G2A { from, actuator } => transitions.g2a_prob(from, actuator),
                TransitionCase::A2G { actuator, to } => transitions.a2g_prob(actuator, to),
            };
            DetectionDetail::Transition {
                case: *case,
                observed,
                threshold: 0.0,
            }
        }),
    }
}

/// Converts a `u128` nanosecond total into whole milliseconds, saturating
/// to `u64` (585 million years of headroom — effectively "never wrong, and
/// never a silent truncation").
fn saturating_millis(ns: u128) -> u64 {
    u64::try_from(ns / 1_000_000).unwrap_or(u64::MAX)
}

/// Optional engine behaviors beyond the paper's defaults.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Device weights for early alarming (Section VI).
    pub weights: DeviceWeights,
    /// If set, a device in the current probable set whose combined weight
    /// reaches this threshold is alarmed immediately.
    pub early_fire_threshold: Option<f64>,
    /// Telemetry sink for per-window counters, latency histograms, and
    /// fault-report events. Defaults to [`Telemetry::global`] (a no-op sink
    /// unless `Telemetry::install_global` ran), so engines constructed
    /// anywhere in the stack report to the process-wide recorder when one
    /// is installed. Never affects detection or identification output.
    pub telemetry: Telemetry,
    /// Decision tracing (flight recorder + optional streaming sink).
    /// Defaults to [`TraceOptions::global`] (disabled unless
    /// `TraceOptions::install_global` ran), mirroring `telemetry`. Never
    /// affects detection or identification output.
    pub trace: TraceOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            weights: DeviceWeights::default(),
            early_fire_threshold: None,
            telemetry: Telemetry::global(),
            trace: TraceOptions::global(),
        }
    }
}

/// Candidate-scan results computed outside the engine for one window, the
/// input to [`DiceEngine::process_window_prescanned`].
///
/// The contract mirrors what the engine's own scan produces: `candidates`
/// must hold every group within the model's candidate distance of the
/// window's state set sorted by `(distance, group)`, or — when none is
/// within the threshold — the nearest group(s). A fleet shard computes this
/// for many homes' ready windows in one batched sweep.
#[derive(Debug, Clone, Copy)]
pub struct WindowPrescan<'a> {
    /// The resolved candidate list for this window's state set.
    pub candidates: &'a [Candidate],
    /// Scan work to attribute to this window in telemetry. Batched callers
    /// typically attribute the whole batch's profile to one window of the
    /// batch and [`ScanProfile::default`] to the rest, keeping process
    /// totals accurate.
    pub profile: ScanProfile,
}

#[derive(Debug, Clone)]
enum Phase {
    Monitoring,
    Identifying {
        detected_at: Timestamp,
        detected_by: CheckKind,
        detail: Option<DetectionDetail>,
        tracker: IntersectionTracker,
        windows_since_detection: usize,
        violations_seen: usize,
    },
}

/// The online detection & identification engine.
///
/// Generic over any handle to a [`DiceModel`] (`&DiceModel`,
/// `Arc<DiceModel>`, `Box<DiceModel>`, ...).
///
/// # Example
///
/// ```
/// use dice_core::{ContextExtractor, DiceConfig, DiceEngine};
/// use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};
///
/// # fn main() -> Result<(), dice_core::DiceError> {
/// let mut reg = DeviceRegistry::new();
/// let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
/// let mut training = EventLog::new();
/// for minute in 0..60 {
///     training.push_sensor(SensorReading::new(
///         motion,
///         Timestamp::from_mins(minute),
///         (minute % 2 == 0).into(),
///     ));
/// }
/// let model = ContextExtractor::new(DiceConfig::default()).extract(&reg, &mut training)?;
/// let mut engine = DiceEngine::new(&model);
/// // feed real-time windows with engine.process_window(...)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiceEngine<M: Borrow<DiceModel>> {
    model: M,
    options: EngineOptions,
    phase: Phase,
    prev: Option<PrevWindow>,
    cost: CostProfile,
    /// An unconfirmed detection whose confirmation horizon expired: the
    /// suspected devices and when/how they were first implicated. A later
    /// violation implicating one of the same devices confirms it — slow
    /// faults (a stuck sensor noticed only at context changes) violate
    /// hours apart but always point at the same device, while unrelated
    /// context blips implicate unrelated devices.
    stale: Option<StaleSuspects>,
    /// Reusable window-observation buffer; with `bin_scratch` and
    /// `cand_scratch` it makes the steady-state window path allocation-free.
    obs_scratch: WindowObservation,
    bin_scratch: BinarizeScratch,
    cand_scratch: Vec<Candidate>,
    /// Local batching buffers for the every-window metrics; `None` when
    /// telemetry is disabled.
    tel_batch: Option<TelBatch>,
    /// Flight recorder + sink; `None` when tracing is disabled, making the
    /// disabled path a single branch per window.
    tracer: Option<Tracer>,
}

/// Engine-local telemetry buffers for the metrics touched on every window
/// (the three latency histograms plus the windows / main-group-hit
/// counters): the hot path does plain integer bumps, published every
/// [`TelBatch::FLUSH_EVERY`] windows, at stream boundaries, and on drop.
/// Rare-path metrics (violations, scan stats, reports) stay immediate.
#[derive(Debug)]
struct TelBatch {
    corr_ns: LocalHistogram,
    trans_ns: LocalHistogram,
    ident_ns: LocalHistogram,
    /// Per-check latency quantile sketch, buffered like the histograms —
    /// four direct sketch records per window measured as ~5% of replay
    /// time on hosts with slow atomic read-modify-writes.
    check_ns: dice_telemetry::LocalSketch,
    /// Whole-window detection latency quantile sketch, buffered.
    detection_ns: dice_telemetry::LocalSketch,
    windows_total: Arc<dice_telemetry::Counter>,
    main_group_hits_total: Arc<dice_telemetry::Counter>,
    windows_n: u64,
    main_hits_n: u64,
    since_flush: u32,
}

impl TelBatch {
    const FLUSH_EVERY: u32 = 1024;

    fn new(metrics: &EngineMetrics) -> Self {
        TelBatch {
            corr_ns: LocalHistogram::new(Arc::clone(&metrics.correlation_check_ns)),
            trans_ns: LocalHistogram::new(Arc::clone(&metrics.transition_check_ns)),
            ident_ns: LocalHistogram::new(Arc::clone(&metrics.identification_ns)),
            check_ns: dice_telemetry::LocalSketch::new(Arc::clone(&metrics.check_ns)),
            detection_ns: dice_telemetry::LocalSketch::new(Arc::clone(&metrics.detection_ns)),
            windows_total: Arc::clone(&metrics.windows_total),
            main_group_hits_total: Arc::clone(&metrics.main_group_hits_total),
            windows_n: 0,
            main_hits_n: 0,
            since_flush: 0,
        }
    }

    fn flush(&mut self) {
        self.corr_ns.flush();
        self.trans_ns.flush();
        self.ident_ns.flush();
        self.check_ns.flush();
        self.detection_ns.flush();
        if self.windows_n > 0 {
            self.windows_total.add(self.windows_n);
            self.windows_n = 0;
        }
        if self.main_hits_n > 0 {
            self.main_group_hits_total.add(self.main_hits_n);
            self.main_hits_n = 0;
        }
        self.since_flush = 0;
    }
}

impl Clone for TelBatch {
    /// A clone starts with empty buffers against the same shared metrics:
    /// buffered samples belong to the engine that measured them.
    fn clone(&self) -> Self {
        TelBatch {
            corr_ns: LocalHistogram::new(Arc::clone(self.corr_ns.shared())),
            trans_ns: LocalHistogram::new(Arc::clone(self.trans_ns.shared())),
            ident_ns: LocalHistogram::new(Arc::clone(self.ident_ns.shared())),
            check_ns: dice_telemetry::LocalSketch::new(Arc::clone(self.check_ns.shared())),
            detection_ns: dice_telemetry::LocalSketch::new(Arc::clone(self.detection_ns.shared())),
            windows_total: Arc::clone(&self.windows_total),
            main_group_hits_total: Arc::clone(&self.main_group_hits_total),
            windows_n: 0,
            main_hits_n: 0,
            since_flush: 0,
        }
    }
}

impl Drop for TelBatch {
    fn drop(&mut self) {
        self.flush();
    }
}

#[derive(Debug, Clone)]
struct StaleSuspects {
    detected_at: Timestamp,
    detected_by: CheckKind,
    detail: Option<DetectionDetail>,
    devices: std::collections::BTreeSet<DeviceId>,
}

/// Per-engine tracing state: the flight recorder plus the knobs and sinks
/// from [`TraceOptions`]. `None` on the engine when tracing is disabled, so
/// the steady-state cost of "off" is one `Option` discriminant check.
struct Tracer {
    recorder: FlightRecorder,
    top_k: usize,
    snapshot_last: usize,
    sink: Option<SharedTraceSink>,
    records_total: Option<Arc<Counter>>,
    ring_dropped_total: Option<Arc<Counter>>,
}

impl Tracer {
    fn new(options: &TraceOptions, telemetry: &Telemetry) -> Self {
        let trace_metrics = telemetry.recorder().map(|r| &r.metrics.trace);
        Tracer {
            recorder: FlightRecorder::new(options.capacity),
            top_k: options.top_k,
            snapshot_last: options.snapshot_last,
            sink: options.sink.clone(),
            records_total: trace_metrics.map(|m| Arc::clone(&m.records_total)),
            ring_dropped_total: trace_metrics.map(|m| Arc::clone(&m.ring_dropped_total)),
        }
    }

    /// Records one window's decision into a (recycled) ring slot; on the
    /// rare report path, additionally snapshots the newest traces into the
    /// report as evidence. Allocation-free at steady state: the slot's
    /// buffers are reused and every probability below is a table lookup.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        model: &DiceModel,
        prev: Option<&PrevWindow>,
        obs: &WindowObservation,
        result: &CheckResult,
        start: Timestamp,
        end: Timestamp,
        phase_before: TracePhase,
        phase_after: TracePhase,
        report: Option<&mut FaultReport>,
    ) {
        let transitions = model.transitions();
        let min_support = model.config().min_row_support().max(1);
        let top_k = self.top_k;
        let dropped_before = self.recorder.dropped();
        let (reported, conclusive) = report
            .as_ref()
            .map_or((false, false), |r| (true, r.conclusive));
        self.recorder.record_with(|seq, slot| {
            slot.reset();
            slot.window = seq;
            slot.start = start;
            slot.end = end;
            slot.bits = obs.state.len();
            slot.ones = obs.state.count_ones();
            slot.state_words.extend_from_slice(obs.state.as_words());
            match result {
                CheckResult::Normal { group } => {
                    slot.main_group = Some(*group);
                    slot.verdict = TraceVerdict::Normal;
                    // Context: the G2G row the transition check consulted.
                    if let Some(prev) = prev.filter(|p| p.exact) {
                        slot.transitions.push(TraceTransition {
                            case: TransitionCase::G2G {
                                from: prev.group,
                                to: *group,
                            },
                            observed: transitions.g2g_prob(prev.group, *group),
                            threshold: 0.0,
                            support: transitions.g2g_row_support(prev.group),
                            min_support,
                        });
                    }
                }
                CheckResult::CorrelationViolation { candidates } => {
                    slot.verdict = TraceVerdict::Correlation;
                    for c in candidates.iter().take(top_k) {
                        slot.candidates.push((c.group, c.distance));
                    }
                    // `candidates_into` sorts ascending by distance, so the
                    // first candidate is the nearest group.
                    if let Some(c) = candidates.first() {
                        slot.nearest = Some((c.group, c.distance));
                        slot.nearest_state
                            .extend_from_slice(model.groups().state(c.group).as_words());
                    }
                }
                CheckResult::TransitionViolation { group, cases } => {
                    slot.main_group = Some(*group);
                    slot.verdict = TraceVerdict::Transition;
                    for case in cases {
                        let (observed, support) = match *case {
                            TransitionCase::G2G { from, to } => (
                                transitions.g2g_prob(from, to),
                                transitions.g2g_row_support(from),
                            ),
                            TransitionCase::G2A { from, actuator } => (
                                transitions.g2a_prob(from, actuator),
                                transitions.g2g_row_support(from),
                            ),
                            TransitionCase::A2G { actuator, to } => (
                                transitions.a2g_prob(actuator, to),
                                transitions.a2g_row_total(actuator),
                            ),
                        };
                        slot.transitions.push(TraceTransition {
                            case: *case,
                            observed,
                            threshold: 0.0,
                            support,
                            min_support,
                        });
                    }
                }
            }
            slot.phase_before = phase_before;
            slot.phase_after = phase_after;
            slot.reported = reported;
            slot.conclusive = conclusive;
        });
        if let Some(counter) = &self.records_total {
            counter.inc();
        }
        if self.recorder.dropped() > dropped_before {
            if let Some(counter) = &self.ring_dropped_total {
                counter.inc();
            }
        }
        if let Some(sink) = &self.sink {
            if let (Some(trace), Ok(mut guard)) = (self.recorder.latest(), sink.lock()) {
                guard.record(model.layout(), trace);
            }
        }
        if let Some(report) = report {
            report.evidence = self.recorder.last_n(self.snapshot_last);
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("recorder", &self.recorder)
            .field("top_k", &self.top_k)
            .field("snapshot_last", &self.snapshot_last)
            .field("sink", &self.sink.as_ref().map(|_| "..."))
            .finish_non_exhaustive()
    }
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            recorder: self.recorder.clone(),
            top_k: self.top_k,
            snapshot_last: self.snapshot_last,
            sink: self.sink.clone(),
            records_total: self.records_total.clone(),
            ring_dropped_total: self.ring_dropped_total.clone(),
        }
    }
}

impl<M: Borrow<DiceModel>> DiceEngine<M> {
    /// Creates an engine with default options.
    pub fn new(model: M) -> Self {
        Self::with_options(model, EngineOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(model: M, options: EngineOptions) -> Self {
        if let Some(recorder) = options.telemetry.recorder() {
            // Publish the model's layout fingerprint so telemetry snapshots
            // are checkable against the model/trace artifacts they were
            // recorded with (dice-lint's cross-artifact mode).
            recorder
                .metrics
                .engine
                .model_layout_fingerprint
                .set(crate::fingerprint::gauge_value(
                    model.borrow().layout().fingerprint(),
                ));
            // And which SIMD kernel the scan index dispatched to, so a
            // snapshot records the hardware path its scan counters came from.
            recorder
                .metrics
                .engine
                .scan_backend
                .set(model.borrow().scan().backend().gauge_value());
        }
        let tel_batch = options
            .telemetry
            .recorder()
            .map(|r| TelBatch::new(&r.metrics.engine));
        let tracer = options
            .trace
            .enabled
            .then(|| Tracer::new(&options.trace, &options.telemetry));
        DiceEngine {
            model,
            options,
            phase: Phase::Monitoring,
            prev: None,
            cost: CostProfile::default(),
            stale: None,
            obs_scratch: WindowObservation::default(),
            bin_scratch: BinarizeScratch::default(),
            cand_scratch: Vec::new(),
            tel_batch,
            tracer,
        }
    }

    /// The model in use.
    pub fn model(&self) -> &DiceModel {
        self.model.borrow()
    }

    /// The SIMD backend the model's candidate-scan index dispatches to.
    pub fn scan_backend(&self) -> crate::ScanBackend {
        self.model.borrow().scan().backend()
    }

    /// Accumulated wall-clock cost profile.
    pub fn cost_profile(&self) -> CostProfile {
        self.cost
    }

    /// Resets phase, previous-window context, and cost accounting.
    pub fn reset(&mut self) {
        self.phase = Phase::Monitoring;
        self.prev = None;
        self.cost = CostProfile::default();
        self.stale = None;
    }

    /// Whether the engine is currently narrowing down a detected fault.
    pub fn is_identifying(&self) -> bool {
        matches!(self.phase, Phase::Identifying { .. })
    }

    /// Flushes a pending identification, e.g. at the end of a replayed
    /// segment: if a violation was detected but the probable-device
    /// intersection has not narrowed below `numThre` yet, the current
    /// intersection is reported as inconclusive.
    pub fn flush(&mut self) -> Option<FaultReport> {
        if let Some(batch) = self.tel_batch.as_mut() {
            batch.flush();
        }
        let confirm = self.model.borrow().config().confirmation_violations();
        let phase = std::mem::replace(&mut self.phase, Phase::Monitoring);
        match phase {
            Phase::Monitoring => None,
            Phase::Identifying {
                detected_at,
                detected_by,
                detail,
                tracker,
                windows_since_detection,
                violations_seen,
            } => {
                if violations_seen < confirm {
                    return None; // unconfirmed blip
                }
                let devices = tracker.current().cloned().unwrap_or_default();
                let mut report = FaultReport {
                    detected_at,
                    identified_at: detected_at,
                    detected_by,
                    devices: devices.into_iter().collect(),
                    conclusive: false,
                    windows_examined: windows_since_detection,
                    detail,
                    evidence: Vec::new(),
                    lineage: None,
                };
                if let Some(tracer) = self.tracer.as_ref() {
                    report.evidence = tracer.recorder.last_n(tracer.snapshot_last);
                }
                Some(report)
            }
        }
    }

    /// Processes one window of raw events; returns a report when
    /// identification completes in this window.
    pub fn process_window(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
    ) -> Option<FaultReport> {
        self.process_window_impl(start, end, events, None)
    }

    /// [`DiceEngine::process_window`] with the candidate scan already
    /// resolved: the caller ran this window's state set through a batched
    /// scan (see [`RoutedScanIndex::candidates_batch_into`]
    /// (crate::RoutedScanIndex::candidates_batch_into)) and hands the result
    /// in, so the engine skips its own per-window scan. Everything else —
    /// binarization, the checks, identification — is bit-identical to the
    /// unbatched path.
    ///
    /// The prescan is consulted only when the window fails the correlation
    /// check; for an exact-match window it is ignored, so a caller may
    /// prescan conservatively.
    pub fn process_window_prescanned(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
        prescan: WindowPrescan<'_>,
    ) -> Option<FaultReport> {
        self.process_window_impl(start, end, events, Some(prescan))
    }

    fn process_window_impl(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
        prescan: Option<WindowPrescan<'_>>,
    ) -> Option<FaultReport> {
        let model = self.model.borrow();

        // Binarization + correlation check, both into engine-owned scratch:
        // a steady-state window touches no allocator.
        let t0 = Instant::now();
        let mut obs = std::mem::take(&mut self.obs_scratch);
        model
            .binarizer()
            .binarize_into(start, end, events, &mut self.bin_scratch, &mut obs);
        let detector = Detector::new(model);
        let mut scan_profile = ScanProfile::default();
        // The transition check runs once, for the verdict, and is timed in
        // place; `trans_ns` stays zero when it did not run.
        let mut trans_ns: u128 = 0;
        let mut transition_checked = false;
        let result = match detector.correlation_check(&obs) {
            None => {
                let mut candidates = std::mem::take(&mut self.cand_scratch);
                if let Some(pre) = prescan {
                    candidates.clear();
                    candidates.extend_from_slice(pre.candidates);
                    scan_profile = pre.profile;
                } else {
                    scan_profile = model.scan().candidates_into(
                        &obs.state,
                        model.candidate_distance(),
                        &mut candidates,
                    );
                    if candidates.is_empty() {
                        // Nothing within the threshold: substitute the
                        // nearest group(s) once, here. Identification and
                        // the previous-window summary both consume this
                        // list, where each used to rescan the whole table
                        // on its own.
                        let fallback = model.scan().nearest_into(&obs.state, &mut candidates);
                        scan_profile.absorb(fallback);
                    }
                }
                CheckResult::CorrelationViolation { candidates }
            }
            Some(group) => {
                let cases = match self.prev.as_ref() {
                    Some(prev) => {
                        let t_trans = Instant::now();
                        let cases = detector.transition_check(prev, group, &obs);
                        trans_ns = t_trans.elapsed().as_nanos();
                        transition_checked = true;
                        cases
                    }
                    None => Vec::new(),
                };
                if cases.is_empty() {
                    CheckResult::Normal { group }
                } else {
                    CheckResult::TransitionViolation { group, cases }
                }
            }
        };
        // Cost attribution: binarization, the correlation check and any
        // candidate scan count as correlation; a window that reached the
        // transition check has that part split out.
        let corr_ns = t0.elapsed().as_nanos().saturating_sub(trans_ns);
        self.cost.correlation_ns += corr_ns;
        self.cost.transition_ns += trans_ns;
        self.cost.windows += 1;

        // Identification.
        let phase_before = self.trace_phase();
        let t2 = Instant::now();
        let mut report = self.advance_phase(&obs, &result, end);
        let ident_ns = t2.elapsed().as_nanos();
        self.cost.identification_ns += ident_ns;

        // Decision tracing. Disabled (the default) costs this one branch;
        // enabled refills a recycled ring slot — before `update_prev` so the
        // trace can name the G2G row the transition check consulted.
        if self.tracer.is_some() {
            let phase_after = self.trace_phase();
            let DiceEngine {
                model,
                tracer,
                prev,
                ..
            } = self;
            if let Some(tracer) = tracer.as_mut() {
                tracer.record(
                    (*model).borrow(),
                    prev.as_ref(),
                    &obs,
                    &result,
                    start,
                    end,
                    phase_before,
                    phase_after,
                    report.as_mut(),
                );
            }
        }

        // Update previous-window context for the next round.
        self.update_prev(&obs, &result);

        // Telemetry: pure observation of already-computed values — the
        // nanosecond figures are the same ones `CostProfile` accumulates
        // (one clock, two consumers), and nothing here feeds back into
        // detection or identification.
        if let Some(recorder) = self.options.telemetry.recorder() {
            let m = &recorder.metrics.engine;
            if let Some(batch) = self.tel_batch.as_mut() {
                batch.windows_n += 1;
                batch.corr_ns.record(saturating_ns(corr_ns));
                batch.check_ns.record(saturating_ns(corr_ns));
                if transition_checked {
                    batch.trans_ns.record(saturating_ns(trans_ns));
                    batch.check_ns.record(saturating_ns(trans_ns));
                }
                batch.ident_ns.record(saturating_ns(ident_ns));
                batch.check_ns.record(saturating_ns(ident_ns));
                batch
                    .detection_ns
                    .record(saturating_ns(corr_ns + trans_ns + ident_ns));
                match &result {
                    CheckResult::Normal { .. } => batch.main_hits_n += 1,
                    CheckResult::CorrelationViolation { candidates } => {
                        m.correlation_violations_total.inc();
                        m.scan_rows_total.add(u64::from(scan_profile.rows));
                        m.scan_rows_pruned_total.add(u64::from(scan_profile.pruned));
                        m.scan_blocks_total.add(u64::from(scan_profile.blocks));
                        m.scan_early_stops_total
                            .add(u64::from(scan_profile.early_stops));
                        m.scan_candidates_total.add(candidates.len() as u64);
                    }
                    CheckResult::TransitionViolation { cases, .. } => {
                        batch.main_hits_n += 1;
                        m.transition_violations_total.inc();
                        for case in cases {
                            match case {
                                TransitionCase::G2G { .. } => m.transition_cases_g2g_total.inc(),
                                TransitionCase::G2A { .. } => m.transition_cases_g2a_total.inc(),
                                TransitionCase::A2G { .. } => m.transition_cases_a2g_total.inc(),
                            }
                        }
                    }
                }
                batch.since_flush += 1;
                if batch.since_flush >= TelBatch::FLUSH_EVERY {
                    batch.flush();
                }
            }
            if let Some(report) = &report {
                m.reports_total.inc();
                if report.conclusive {
                    m.reports_conclusive_total.inc();
                }
                m.identification_windows
                    .record(report.windows_examined as u64);
                recorder.events.push("fault_report", report.to_string());
            }
        }

        // Reclaim the scratch buffers (capacity survives for the next
        // window).
        self.obs_scratch = obs;
        if let CheckResult::CorrelationViolation { candidates } = result {
            self.cand_scratch = candidates;
        }

        report
    }

    /// The identification phase as a trace discriminant.
    fn trace_phase(&self) -> TracePhase {
        match self.phase {
            Phase::Monitoring => TracePhase::Monitoring,
            Phase::Identifying { .. } => TracePhase::Identifying,
        }
    }

    /// Runs the phase state machine for one checked window.
    fn advance_phase(
        &mut self,
        obs: &WindowObservation,
        result: &CheckResult,
        window_end: Timestamp,
    ) -> Option<FaultReport> {
        let model = self.model.borrow();
        let identifier = Identifier::new(model);
        let num_thre = model.config().num_thre();
        let budget = model.config().max_identification_windows();
        let confirm = model.config().confirmation_violations();
        let horizon = model.config().confirmation_horizon_windows();

        let phase = std::mem::replace(&mut self.phase, Phase::Monitoring);
        match phase {
            Phase::Monitoring => {
                let kind = result.violated_check()?;
                let detail = detection_detail(model, result);
                let probable = identifier.probable_devices(self.prev.as_ref(), obs, result);

                // A fresh violation implicating a stale suspect confirms it.
                if let Some(stale) = &self.stale {
                    let overlap: std::collections::BTreeSet<DeviceId> = stale
                        .devices
                        .intersection(&probable.devices)
                        .copied()
                        .collect();
                    if !overlap.is_empty() {
                        // Report evidence credits the original detection.
                        let (detected_at, detected_by, detail) =
                            (stale.detected_at, stale.detected_by, stale.detail);
                        self.stale = None;
                        let mut tracker = IntersectionTracker::new();
                        tracker.feed(&overlap);
                        if tracker.converged(num_thre) {
                            let devices = tracker.current().cloned().unwrap_or_default();
                            return Some(FaultReport {
                                detected_at,
                                identified_at: window_end,
                                detected_by,
                                devices: devices.into_iter().collect(),
                                conclusive: true,
                                windows_examined: 2,
                                detail,
                                evidence: Vec::new(),
                                lineage: None,
                            });
                        }
                        self.phase = Phase::Identifying {
                            detected_at,
                            detected_by,
                            detail,
                            tracker,
                            windows_since_detection: 2,
                            violations_seen: confirm.max(2),
                        };
                        return None;
                    }
                }

                let mut tracker = IntersectionTracker::new();
                tracker.feed(&probable.devices);
                if confirm <= 1 && tracker.converged(num_thre) {
                    // "When there is only one probable group, DICE ends the
                    // identification step" — immediate identification.
                    let devices = tracker.current().cloned().unwrap_or_default();
                    return Some(FaultReport {
                        detected_at: window_end,
                        identified_at: window_end,
                        detected_by: kind,
                        devices: devices.into_iter().collect(),
                        conclusive: true,
                        windows_examined: 1,
                        detail,
                        evidence: Vec::new(),
                        lineage: None,
                    });
                }
                self.phase = Phase::Identifying {
                    detected_at: window_end,
                    detected_by: kind,
                    detail,
                    tracker,
                    windows_since_detection: 1,
                    violations_seen: 1,
                };
                None
            }
            Phase::Identifying {
                detected_at,
                detected_by,
                detail,
                mut tracker,
                mut windows_since_detection,
                mut violations_seen,
            } => {
                windows_since_detection += 1;
                if result.is_violation() {
                    violations_seen += 1;
                    let probable = identifier.probable_devices(self.prev.as_ref(), obs, result);
                    tracker.feed(&probable.devices);
                }

                // An unconfirmed violation that stays quiet for the whole
                // confirmation horizon is stashed: if it was a context blip
                // nothing more happens, but a slow fault will implicate the
                // same devices again later.
                if violations_seen < confirm {
                    if windows_since_detection >= horizon {
                        if let Some(devices) = tracker.current() {
                            self.stale = Some(StaleSuspects {
                                detected_at,
                                detected_by,
                                detail,
                                devices: devices.clone(),
                            });
                        }
                        return None; // back to Monitoring
                    }
                    self.phase = Phase::Identifying {
                        detected_at,
                        detected_by,
                        detail,
                        tracker,
                        windows_since_detection,
                        violations_seen,
                    };
                    return None;
                }

                // Early fire on weighted devices (Section VI).
                if let (Some(threshold), Some(current)) =
                    (self.options.early_fire_threshold, tracker.current())
                {
                    let heavy = self
                        .options
                        .weights
                        .over_threshold(current.iter(), threshold);
                    if !heavy.is_empty() {
                        return Some(FaultReport {
                            detected_at,
                            identified_at: window_end,
                            detected_by,
                            devices: heavy,
                            conclusive: false,
                            windows_examined: windows_since_detection,
                            detail,
                            evidence: Vec::new(),
                            lineage: None,
                        });
                    }
                }

                if tracker.converged(num_thre) {
                    let devices = tracker.current().cloned().unwrap_or_default();
                    return Some(FaultReport {
                        detected_at,
                        identified_at: window_end,
                        detected_by,
                        devices: devices.into_iter().collect(),
                        conclusive: true,
                        windows_examined: windows_since_detection,
                        detail,
                        evidence: Vec::new(),
                        lineage: None,
                    });
                }

                if windows_since_detection >= budget {
                    let devices = tracker.current().cloned().unwrap_or_default();
                    return Some(FaultReport {
                        detected_at,
                        identified_at: window_end,
                        detected_by,
                        devices: devices.into_iter().collect(),
                        conclusive: false,
                        windows_examined: windows_since_detection,
                        detail,
                        evidence: Vec::new(),
                        lineage: None,
                    });
                }

                self.phase = Phase::Identifying {
                    detected_at,
                    detected_by,
                    detail,
                    tracker,
                    windows_since_detection,
                    violations_seen,
                };
                None
            }
        }
    }

    /// Updates the previous-window summary in place: the main group when
    /// matched, else the best candidate as an inexact stand-in. The engine
    /// guarantees a correlation violation's candidate list already contains
    /// the nearest group(s) when the threshold admitted none, so no rescan
    /// happens here.
    fn update_prev(&mut self, obs: &WindowObservation, result: &CheckResult) {
        let (group, exact) = match result {
            CheckResult::Normal { group } | CheckResult::TransitionViolation { group, .. } => {
                (*group, true)
            }
            CheckResult::CorrelationViolation { candidates } => (
                candidates.first().map_or(GroupId::new(0), |c| c.group),
                false,
            ),
        };
        match &mut self.prev {
            Some(prev) => {
                prev.group = group;
                prev.exact = exact;
                prev.activated_actuators.clear();
                prev.activated_actuators
                    .extend_from_slice(&obs.activated_actuators);
            }
            None => {
                self.prev = Some(PrevWindow {
                    group,
                    exact,
                    activated_actuators: obs.activated_actuators.clone(),
                });
            }
        }
    }

    /// Convenience: processes every `config.window()`-sized window of a log,
    /// collecting all reports. Windows are aligned to the log's first event.
    pub fn process_log(&mut self, log: &mut dice_types::EventLog) -> Vec<FaultReport> {
        let duration = self.model.borrow().config().window();
        // Collect windows eagerly to avoid borrowing `log` across `self`.
        let windows: Vec<(Timestamp, Timestamp, Vec<Event>)> = log
            .windows(duration)
            .map(|w| (w.start, w.end, w.events.to_vec()))
            .collect();
        self.process_collected(windows)
    }

    /// Processes every window tiling exactly `[from, to)`, including silent
    /// windows with no events — a quiet home is itself a context, so gaps
    /// must be checked too.
    pub fn process_range(
        &mut self,
        log: &mut dice_types::EventLog,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<FaultReport> {
        let duration = self.model.borrow().config().window();
        let windows: Vec<(Timestamp, Timestamp, Vec<Event>)> = log
            .windows_between(from, to, duration)
            .map(|w| (w.start, w.end, w.events.to_vec()))
            .collect();
        self.process_collected(windows)
    }

    fn process_collected(
        &mut self,
        windows: Vec<(Timestamp, Timestamp, Vec<Event>)>,
    ) -> Vec<FaultReport> {
        let mut reports = Vec::new();
        for (start, end, events) in windows {
            if let Some(report) = self.process_window(start, end, &events) {
                reports.push(report);
            }
        }
        // Publish batched samples at the stream boundary so a snapshot
        // taken right after a replay sees every window.
        if let Some(batch) = self.tel_batch.as_mut() {
            batch.flush();
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiceConfig;
    use crate::extract::ContextExtractor;
    use dice_types::{DeviceRegistry, EventLog, Room, SensorId, SensorKind, SensorReading};

    /// Build a home with three motion sensors where s0+s1 always fire
    /// together every other minute and s2 fires in the off minutes.
    fn training_registry() -> (DeviceRegistry, Vec<SensorId>) {
        let mut reg = DeviceRegistry::new();
        let s0 = reg.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
        let s1 = reg.add_sensor(SensorKind::Motion, "s1", Room::Kitchen);
        let s2 = reg.add_sensor(SensorKind::Motion, "s2", Room::Bedroom);
        (reg, vec![s0, s1, s2])
    }

    fn training_log(sensors: &[SensorId], minutes: i64) -> EventLog {
        let mut log = EventLog::new();
        for minute in 0..minutes {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(sensors[0], at, true.into()));
                log.push_sensor(SensorReading::new(sensors[1], at, true.into()));
            } else {
                log.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        log
    }

    fn trained_model() -> (DiceModel, Vec<SensorId>) {
        let (reg, sensors) = training_registry();
        let mut log = training_log(&sensors, 120);
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        (model, sensors)
    }

    /// Real-time log where s1 fail-stops: s0 fires alone on even minutes.
    fn faulty_log(sensors: &[SensorId], minutes: i64) -> EventLog {
        let mut log = EventLog::new();
        for minute in 0..minutes {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            } else {
                log.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        log
    }

    #[test]
    fn faultless_replay_raises_no_reports() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        let mut log = training_log(&sensors, 60);
        let reports = engine.process_log(&mut log);
        assert!(reports.is_empty(), "unexpected reports: {reports:?}");
        assert_eq!(engine.cost_profile().windows, 60);
    }

    #[test]
    fn fail_stop_is_detected_and_identified() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        let mut log = faulty_log(&sensors, 30);
        let reports = engine.process_log(&mut log);
        assert!(!reports.is_empty());
        let report = &reports[0];
        assert_eq!(report.detected_by, CheckKind::Correlation);
        assert!(report.conclusive);
        assert_eq!(report.devices, vec![DeviceId::Sensor(sensors[1])]);
        assert!(report.identified_at >= report.detected_at);
    }

    #[test]
    fn detection_happens_within_first_faulty_windows() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        let mut log = faulty_log(&sensors, 30);
        let reports = engine.process_log(&mut log);
        // s0-alone appears in the very first window; the correlation check
        // should fire there (detected_at = first window end = 1 min).
        assert_eq!(reports[0].detected_at, Timestamp::from_mins(1));
    }

    #[test]
    fn engine_reset_clears_state() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        let mut log = faulty_log(&sensors, 4);
        let _ = engine.process_log(&mut log);
        engine.reset();
        assert!(!engine.is_identifying());
        assert_eq!(engine.cost_profile().windows, 0);
    }

    #[test]
    fn engine_works_with_owned_model_handles() {
        let (model, sensors) = trained_model();
        let arc = std::sync::Arc::new(model);
        let mut engine = DiceEngine::new(std::sync::Arc::clone(&arc));
        let mut log = training_log(&sensors, 10);
        assert!(engine.process_log(&mut log).is_empty());
    }

    #[test]
    fn early_fire_on_heavy_device() {
        let (model, sensors) = trained_model();
        let mut weights = DeviceWeights::new();
        weights.set_criticality(DeviceId::Sensor(sensors[1]), 100.0);
        let options = EngineOptions {
            weights,
            early_fire_threshold: Some(50.0),
            ..EngineOptions::default()
        };
        let mut engine = DiceEngine::with_options(&model, options);
        let mut log = faulty_log(&sensors, 30);
        let reports = engine.process_log(&mut log);
        assert!(!reports.is_empty());
        // The heavy device must appear in the first report.
        assert!(reports[0].devices.contains(&DeviceId::Sensor(sensors[1])));
    }

    #[test]
    fn window_budget_produces_inconclusive_report() {
        let (reg, sensors) = training_registry();
        let mut log = training_log(&sensors, 120);
        let config = DiceConfig::builder().max_identification_windows(3).build();
        let model = ContextExtractor::new(config)
            .extract(&reg, &mut log)
            .unwrap();
        let mut engine = DiceEngine::new(&model);
        // A bizarre state (all three sensors at once) repeats; candidates
        // stay ambiguous, so the budget should force a report.
        let mut weird = EventLog::new();
        for minute in 0..10 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            for &s in &sensors {
                weird.push_sensor(SensorReading::new(s, at, true.into()));
            }
        }
        let reports = engine.process_log(&mut weird);
        assert!(!reports.is_empty());
        assert!(reports.iter().any(|r| !r.conclusive) || reports[0].conclusive);
    }

    #[test]
    fn cost_profile_accumulates_and_averages() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        let mut log = training_log(&sensors, 20);
        let _ = engine.process_log(&mut log);
        let cost = engine.cost_profile();
        assert_eq!(cost.windows, 20);
        assert!(cost.correlation_ns > 0);
        assert!(cost.total_ms_per_window() >= cost.correlation_ms_per_window());
        let mut merged = CostProfile::default();
        merged.merge(&cost);
        merged.merge(&cost);
        assert_eq!(merged.windows, 40);
    }

    #[test]
    fn flush_emits_pending_confirmed_identification() {
        let (reg, sensors) = training_registry();
        let mut log = training_log(&sensors, 120);
        // Large numThre never converges -> identification stays pending.
        let config = DiceConfig::builder()
            .num_thre(1)
            .candidate_distance(1)
            .max_identification_windows(10_000)
            .build();
        let model = ContextExtractor::new(config)
            .extract(&reg, &mut log)
            .unwrap();
        let mut engine = DiceEngine::new(&model);
        // Two violating windows (all sensors on) confirm a detection, then
        // quiet known windows keep identification pending.
        let mut live = EventLog::new();
        for minute in 0..2 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            for &s in &sensors {
                live.push_sensor(SensorReading::new(s, at, true.into()));
            }
        }
        let reports = engine.process_range(&mut live, Timestamp::ZERO, Timestamp::from_mins(2));
        if reports.is_empty() {
            let flushed = engine.flush().expect("pending identification must flush");
            assert!(!flushed.conclusive);
            assert!(!flushed.devices.is_empty());
        }
        // Flushing twice yields nothing.
        assert!(engine.flush().is_none());
    }

    #[test]
    fn unconfirmed_blip_is_not_flushed() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        // One anomalous window, then normal data for under the horizon.
        let mut live = EventLog::new();
        let at = Timestamp::from_secs(5);
        for &s in &sensors {
            live.push_sensor(SensorReading::new(s, at, true.into()));
        }
        for minute in 1..5 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                live.push_sensor(SensorReading::new(sensors[0], at, true.into()));
                live.push_sensor(SensorReading::new(sensors[1], at, true.into()));
            } else {
                live.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        let reports = engine.process_range(&mut live, Timestamp::ZERO, Timestamp::from_mins(5));
        assert!(
            reports.is_empty(),
            "single blip must not report: {reports:?}"
        );
        assert!(engine.flush().is_none(), "unconfirmed blip must not flush");
    }

    #[test]
    fn stale_suspect_is_revived_by_a_later_violation() {
        let (reg, sensors) = training_registry();
        let mut log = training_log(&sensors, 240);
        // Short horizon so the first violation expires quickly.
        let config = DiceConfig::builder()
            .confirmation_horizon_windows(3)
            .build();
        let model = ContextExtractor::new(config)
            .extract(&reg, &mut log)
            .unwrap();
        let mut engine = DiceEngine::new(&model);

        let anomalous = |live: &mut EventLog, minute: i64| {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            // s0 fires alone on an even minute: fail-stop-of-s1 signature.
            live.push_sensor(SensorReading::new(sensors[0], at, true.into()));
        };
        let normal = |live: &mut EventLog, minute: i64| {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                live.push_sensor(SensorReading::new(sensors[0], at, true.into()));
                live.push_sensor(SensorReading::new(sensors[1], at, true.into()));
            } else {
                live.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        };

        let mut live = EventLog::new();
        anomalous(&mut live, 0); // first violation
        for minute in 1..8 {
            normal(&mut live, minute); // horizon (3 windows) expires
        }
        anomalous(&mut live, 8); // same suspect violates again
        for minute in 9..12 {
            normal(&mut live, minute);
        }
        let mut reports =
            engine.process_range(&mut live, Timestamp::ZERO, Timestamp::from_mins(12));
        reports.extend(engine.flush());
        assert!(!reports.is_empty(), "stale suspect must confirm on revival");
        let report = &reports[0];
        assert_eq!(report.devices, vec![DeviceId::Sensor(sensors[1])]);
        // Detection credits the original violation.
        assert_eq!(report.detected_at, Timestamp::from_mins(1));
    }

    #[test]
    fn engine_recovers_after_reporting_and_detects_again() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        // First fault, then healthy data, then a second fault.
        let mut live = faulty_log(&sensors, 10);
        let first = engine.process_range(&mut live, Timestamp::ZERO, Timestamp::from_mins(10));
        assert!(!first.is_empty());
        let mut healthy = training_log(&sensors, 10);
        // Shift healthy data to minutes 10..20.
        let mut shifted = EventLog::new();
        for e in healthy.events() {
            if let Some(r) = e.as_sensor() {
                shifted.push_sensor(SensorReading::new(
                    r.sensor,
                    r.at + TimeDelta::from_mins(10),
                    r.value,
                ));
            }
        }
        let quiet = engine.process_range(
            &mut shifted,
            Timestamp::from_mins(10),
            Timestamp::from_mins(20),
        );
        assert!(
            quiet.is_empty(),
            "healthy data after a report stays quiet: {quiet:?}"
        );
    }

    #[test]
    fn report_display_mentions_devices() {
        let report = FaultReport {
            detected_at: Timestamp::from_mins(1),
            identified_at: Timestamp::from_mins(3),
            detected_by: CheckKind::Correlation,
            devices: vec![DeviceId::Sensor(SensorId::new(1))],
            conclusive: true,
            windows_examined: 3,
            detail: None,
            evidence: Vec::new(),
            lineage: None,
        };
        let text = report.to_string();
        assert!(text.contains("S1"));
        assert!(text.contains("correlation"));
        assert_eq!(report.identification_lag(), TimeDelta::from_mins(2));
    }

    #[test]
    fn report_display_includes_numeric_evidence() {
        let base = FaultReport {
            detected_at: Timestamp::from_mins(1),
            identified_at: Timestamp::from_mins(3),
            detected_by: CheckKind::Correlation,
            devices: vec![DeviceId::Sensor(SensorId::new(1))],
            conclusive: false,
            windows_examined: 3,
            detail: Some(DetectionDetail::Correlation {
                nearest: GroupId::new(4),
                distance: 2,
            }),
            evidence: Vec::new(),
            lineage: None,
        };
        let text = base.to_string();
        assert!(
            text.contains("nearest group G4 at distance 2"),
            "correlation detail missing: {text}"
        );
        assert!(text.contains("(inconclusive)"), "{text}");

        let transition = FaultReport {
            detected_by: CheckKind::Transition,
            detail: Some(DetectionDetail::Transition {
                case: TransitionCase::G2G {
                    from: GroupId::new(1),
                    to: GroupId::new(4),
                },
                observed: 0.0,
                threshold: 0.0,
            }),
            conclusive: true,
            ..base
        };
        let text = transition.to_string();
        assert!(
            text.contains("P(G4 | G1) = 0, threshold 0"),
            "transition detail missing: {text}"
        );
    }

    #[test]
    fn reports_carry_detail_and_equality_ignores_evidence() {
        let (model, sensors) = trained_model();
        let mut engine = DiceEngine::new(&model);
        let reports = engine.process_log(&mut faulty_log(&sensors, 30));
        assert!(!reports.is_empty());
        let report = &reports[0];
        assert!(
            matches!(
                report.detail,
                Some(DetectionDetail::Correlation { distance, .. }) if distance > 0
            ),
            "correlation-detected report must carry nearest-group detail: {report:?}"
        );
        // Evidence is provenance, not identity.
        let mut with_evidence = report.clone();
        with_evidence.evidence.push(DecisionTrace::default());
        assert_eq!(&with_evidence, report);
    }

    #[test]
    fn tracing_records_windows_and_snapshots_evidence() {
        let (model, sensors) = trained_model();
        let options = EngineOptions {
            trace: TraceOptions::recording(),
            ..EngineOptions::default()
        };
        let mut engine = DiceEngine::with_options(&model, options);
        let reports = engine.process_log(&mut faulty_log(&sensors, 30));
        assert!(!reports.is_empty());
        let report = &reports[0];
        assert!(
            !report.evidence.is_empty(),
            "traced engine must attach evidence"
        );
        // The newest evidence trace is the reporting window itself.
        let last = report.evidence.last().unwrap();
        assert!(last.reported);
        assert_eq!(last.conclusive, report.conclusive);
        assert!(report.evidence.iter().any(|t| t.nearest.is_some()));

        // Disabled tracing produces the same report stream.
        let mut plain = DiceEngine::new(&model);
        let plain_reports = plain.process_log(&mut faulty_log(&sensors, 30));
        assert_eq!(reports, plain_reports);
        assert!(plain_reports.iter().all(|r| r.evidence.is_empty()));
    }

    #[test]
    fn telemetry_observes_outcomes_without_changing_reports() {
        let (model, sensors) = trained_model();
        let telemetry = Telemetry::recording();
        let mut engine = DiceEngine::with_options(
            &model,
            EngineOptions {
                telemetry: telemetry.clone(),
                ..EngineOptions::default()
            },
        );
        let reports = engine.process_log(&mut faulty_log(&sensors, 30));

        let mut baseline = DiceEngine::with_options(
            &model,
            EngineOptions {
                telemetry: Telemetry::noop(),
                ..EngineOptions::default()
            },
        );
        let baseline_reports = baseline.process_log(&mut faulty_log(&sensors, 30));
        assert_eq!(reports, baseline_reports, "telemetry must not alter output");

        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(
            snapshot.counter("dice_engine_windows_total"),
            Some(engine.cost_profile().windows)
        );
        assert!(
            snapshot
                .counter("dice_engine_correlation_violations_total")
                .unwrap()
                > 0
        );
        assert_eq!(
            snapshot.counter("dice_engine_reports_total"),
            Some(reports.len() as u64)
        );
        // Scan stats: every correlation violation scanned rows (this small
        // model routes row-major, so block counters stay zero), and the
        // snapshot names the dispatched backend.
        assert!(snapshot.counter("dice_engine_scan_rows_total").unwrap() > 0);
        assert_eq!(snapshot.counter("dice_engine_scan_blocks_total"), Some(0));
        assert!(snapshot
            .counter("dice_engine_scan_early_stops_total")
            .is_some());
        assert_eq!(
            snapshot.gauge("dice_engine_scan_backend"),
            Some(engine.scan_backend().gauge_value())
        );
        // The latency histograms see the same windows CostProfile does.
        let (corr_count, corr_sum) = snapshot
            .histogram("dice_engine_correlation_check_ns")
            .unwrap();
        assert_eq!(corr_count, engine.cost_profile().windows);
        assert_eq!(u128::from(corr_sum), engine.cost_profile().correlation_ns);
        // Each report surfaced as a ring event.
        let recorder = telemetry.recorder().unwrap();
        let events = recorder.events.snapshot();
        assert_eq!(events.len(), reports.len());
        assert!(events.iter().all(|e| e.kind == "fault_report"));
    }

    #[test]
    fn cost_profile_saturating_helpers() {
        let cost = CostProfile {
            correlation_ns: 2_500_000,
            transition_ns: 1_000_000,
            identification_ns: u128::from(u64::MAX) * 1_000_000 + 999_999,
            windows: 2,
        };
        assert_eq!(cost.correlation_millis(), 2);
        assert_eq!(cost.transition_millis(), 1);
        assert_eq!(cost.identification_millis(), u64::MAX);
        assert_eq!(cost.total_millis(), u64::MAX);
        let sane = CostProfile {
            correlation_ns: 3_000,
            transition_ns: 1_000,
            identification_ns: 2_000,
            windows: 2,
        };
        assert_eq!(sane.total_ns(), 6_000);
        assert!((sane.mean_ns_per_window() - 3_000.0).abs() < f64::EPSILON);
        assert_eq!(CostProfile::default().mean_ns_per_window(), 0.0);
    }
}
