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

use dice_telemetry::{saturating_ns, Counter, EngineMetrics, LocalSketch, SlotRing, Telemetry};
use dice_types::{DeviceId, Event, GroupId, TimeDelta, Timestamp};

use crate::binarize::{BinarizeScratch, WindowObservation};
use crate::detect::{CheckKind, CheckResult, Detector, PrevWindow, TransitionCase};
use crate::groups::Candidate;
use crate::identify::{Identifier, IntersectionTracker};
use crate::model::DiceModel;
use crate::scan::ScanProfile;
use crate::trace::{
    DecisionTrace, LineageStamp, SharedTraceSink, TraceOptions, TracePhase, TraceTransition,
    TraceVerdict, DEFAULT_TRACE_CAPACITY, DEFAULT_TRACE_SNAPSHOT_LAST, DEFAULT_TRACE_TOP_K,
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
/// check (including binarization and the candidate scan), the transition
/// check, and identification.
///
/// [`DiceEngine::process_window`] times every window into it, whatever the
/// telemetry sink. [`DiceEngine::process_observation`] reads the clock only
/// when telemetry is recording, and then feeds this profile and the
/// check-latency sketches from the same reads; its correlation figure
/// covers the candidate scan but not the binarization and exact lookup its
/// caller ran. With a no-op sink it adds nothing here, not even to
/// `windows`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// Nanoseconds in binarization + correlation check (the candidate scan
    /// included).
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

/// Optional engine behaviors beyond the paper's defaults.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Device weights for early alarming (Section VI).
    pub weights: DeviceWeights,
    /// If set, a device in the current probable set whose combined weight
    /// reaches this threshold is alarmed immediately.
    pub early_fire_threshold: Option<f64>,
    /// Telemetry sink for per-window counters, latency sketches, and
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

/// The identification phase of one home's state machine. The
/// `Identifying` payload is boxed, so a monitoring home — nearly every home
/// nearly all the time — pays one pointer for it.
#[derive(Debug, Clone)]
enum Phase {
    Monitoring,
    Identifying(Box<Identifying>),
}

impl Phase {
    /// The phase as a trace discriminant.
    fn traced(&self) -> TracePhase {
        match self {
            Phase::Monitoring => TracePhase::Monitoring,
            Phase::Identifying(_) => TracePhase::Identifying,
        }
    }
}

/// A detected, not yet reported fault being narrowed down (Section 3.4).
#[derive(Debug, Clone)]
struct Identifying {
    detected_at: Timestamp,
    detected_by: CheckKind,
    detail: Option<DetectionDetail>,
    tracker: IntersectionTracker,
    windows_since_detection: usize,
    violations_seen: usize,
}

/// What one home's engine remembers between windows: the identification
/// phase, the previous window's summary, stale suspects, and the decision
/// tracer. Everything else an engine needs — options, scratch buffers, the
/// [`CostProfile`] and telemetry buffers — lives in [`EngineMachinery`],
/// which one thread shares across every session it judges.
///
/// Sessions come from [`EngineMachinery::session`]. A session is only
/// ever judged against the model it was created for.
#[derive(Debug, Clone)]
pub struct EngineSession {
    phase: Phase,
    prev: Option<PrevWindow>,
    /// An unconfirmed detection whose confirmation horizon expired: the
    /// suspected devices and when/how they were first implicated. A later
    /// violation implicating one of the same devices confirms it — slow
    /// faults (a stuck sensor noticed only at context changes) violate
    /// hours apart but always point at the same device, while unrelated
    /// context blips implicate unrelated devices.
    stale: Option<Box<StaleSuspects>>,
    /// Flight recorder + sink; `None` when tracing is disabled, making the
    /// disabled path a single branch per window. The ring is this home's
    /// alarm evidence, so it is never shared between sessions.
    tracer: Option<Box<Tracer>>,
}

/// What a thread needs once to judge windows for any number of
/// [`EngineSession`]s: the engine options, the reusable observation,
/// binarize and candidate buffers, the [`CostProfile`], and the
/// telemetry batch. A [`DiceEngine`] owns one machinery and one session; a
/// fleet shard owns one machinery and one session per home.
#[derive(Debug, Clone)]
pub struct EngineMachinery {
    options: EngineOptions,
    cost: CostProfile,
    /// Reusable window-observation buffer; with `bin_scratch` and
    /// `cand_scratch` it makes the steady-state window path allocation-free.
    obs_scratch: WindowObservation,
    bin_scratch: BinarizeScratch,
    cand_scratch: Vec<Candidate>,
    /// Local batching buffers for the every-window metrics; `None` when
    /// telemetry is disabled.
    tel_batch: Option<TelBatch>,
}

/// The online detection & identification engine: one [`EngineMachinery`]
/// judging one [`EngineSession`] against one model.
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
    machinery: EngineMachinery,
    session: EngineSession,
}

/// Machinery-local telemetry buffers for the metrics touched on every window
/// (the three check-latency sketches, whole-window detection time, and the
/// windows / main-group-hit counters): the hot path does plain integer
/// bumps, published every [`TelBatch::FLUSH_EVERY`] windows, at stream
/// boundaries, and on drop. Rare-path metrics (violations, scan stats,
/// reports) stay immediate.
#[derive(Debug)]
struct TelBatch {
    corr_ns: LocalSketch,
    trans_ns: LocalSketch,
    ident_ns: LocalSketch,
    detection_ns: LocalSketch,
    windows_total: Arc<Counter>,
    main_group_hits_total: Arc<Counter>,
    windows_n: u64,
    main_hits_n: u64,
    since_flush: u32,
}

impl TelBatch {
    const FLUSH_EVERY: u32 = 1024;

    fn new(metrics: &EngineMetrics) -> Self {
        TelBatch {
            corr_ns: LocalSketch::new(Arc::clone(&metrics.correlation_check_ns)),
            trans_ns: LocalSketch::new(Arc::clone(&metrics.transition_check_ns)),
            ident_ns: LocalSketch::new(Arc::clone(&metrics.identification_ns)),
            detection_ns: LocalSketch::new(Arc::clone(&metrics.detection_ns)),
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
    /// buffered samples belong to the machinery that measured them.
    fn clone(&self) -> Self {
        TelBatch {
            corr_ns: LocalSketch::new(Arc::clone(self.corr_ns.shared())),
            trans_ns: LocalSketch::new(Arc::clone(self.trans_ns.shared())),
            ident_ns: LocalSketch::new(Arc::clone(self.ident_ns.shared())),
            detection_ns: LocalSketch::new(Arc::clone(self.detection_ns.shared())),
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

/// A window's stage clock: one `Instant` read per stage boundary when
/// started, none at all when off.
struct Laps(Option<Instant>);

impl Laps {
    fn started() -> Self {
        Laps(Some(Instant::now()))
    }

    fn off() -> Self {
        Laps(None)
    }

    fn timed(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the previous boundary (0 when off).
    fn lap(&mut self) -> u128 {
        match &mut self.0 {
            Some(last) => {
                let now = Instant::now();
                let ns = now.duration_since(*last).as_nanos();
                *last = now;
                ns
            }
            None => 0,
        }
    }
}

#[derive(Debug, Clone)]
struct StaleSuspects {
    detected_at: Timestamp,
    detected_by: CheckKind,
    detail: Option<DetectionDetail>,
    devices: std::collections::BTreeSet<DeviceId>,
}

/// Per-session tracing state: the flight recorder plus the sink from
/// [`TraceOptions`]. `None` on the session when tracing is disabled, so the
/// steady-state cost of "off" is one `Option` discriminant check.
#[derive(Clone)]
struct Tracer {
    recorder: SlotRing<DecisionTrace>,
    sink: Option<SharedTraceSink>,
    records_total: Option<Arc<Counter>>,
    ring_dropped_total: Option<Arc<Counter>>,
}

impl Tracer {
    fn new(options: &TraceOptions, telemetry: &Telemetry) -> Self {
        let trace_metrics = telemetry.recorder().map(|r| &r.metrics.trace);
        Tracer {
            recorder: SlotRing::new(DEFAULT_TRACE_CAPACITY),
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
        let dropped_before = self.recorder.dropped();
        let (reported, conclusive) = report
            .as_ref()
            .map_or((false, false), |r| (true, r.conclusive));
        self.recorder.push_with(|seq, slot| {
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
                    for c in candidates.iter().take(DEFAULT_TRACE_TOP_K) {
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
            report.evidence = self.recorder.last_n(DEFAULT_TRACE_SNAPSHOT_LAST);
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("recorder", &self.recorder)
            .field("sink", &self.sink.as_ref().map(|_| "..."))
            .finish_non_exhaustive()
    }
}

impl<M: Borrow<DiceModel>> DiceEngine<M> {
    /// Creates an engine with default options.
    pub fn new(model: M) -> Self {
        Self::with_options(model, EngineOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(model: M, options: EngineOptions) -> Self {
        let machinery = EngineMachinery::new(options);
        let session = machinery.session(model.borrow());
        DiceEngine {
            model,
            machinery,
            session,
        }
    }

    /// The model in use.
    pub fn model(&self) -> &DiceModel {
        self.model.borrow()
    }

    /// Accumulated wall-clock cost profile.
    pub fn cost_profile(&self) -> CostProfile {
        self.machinery.cost
    }

    /// Resets phase, previous-window context, and cost accounting.
    pub fn reset(&mut self) {
        self.session.phase = Phase::Monitoring;
        self.session.prev = None;
        self.session.stale = None;
        self.machinery.cost = CostProfile::default();
    }

    /// Whether the engine is currently narrowing down a detected fault.
    pub fn is_identifying(&self) -> bool {
        matches!(self.session.phase, Phase::Identifying(_))
    }

    /// Flushes a pending identification, e.g. at the end of a replayed
    /// segment: if a violation was detected but the probable-device
    /// intersection has not narrowed below `numThre` yet, the current
    /// intersection is reported as inconclusive.
    pub fn flush(&mut self) -> Option<FaultReport> {
        self.machinery.flush(self.model.borrow(), &mut self.session)
    }

    /// Processes one window of raw events; returns a report when
    /// identification completes in this window.
    ///
    /// Binarizes into the engine's scratch, runs the correlation check, and
    /// judges the observation through the same body as
    /// [`DiceEngine::process_observation`]. Every window is timed into the
    /// [`CostProfile`].
    pub fn process_window(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
    ) -> Option<FaultReport> {
        self.machinery
            .process_window(self.model.borrow(), &mut self.session, start, end, events)
    }

    /// Judges one window the caller already binarized and
    /// correlation-checked: `main` must be [`Detector::correlation_check`]'s
    /// verdict for `obs`. A fleet shard checks a sweep's ready windows
    /// first, then judges them. The candidate scan, the transition check,
    /// identification and the report are bit-identical to
    /// [`DiceEngine::process_window`] on the same events.
    ///
    /// The clock is read only when telemetry is recording; see
    /// [`CostProfile`].
    pub fn process_observation(
        &mut self,
        obs: &WindowObservation,
        main: Option<GroupId>,
    ) -> Option<FaultReport> {
        self.machinery
            .process_observation(self.model.borrow(), &mut self.session, obs, main)
    }

    /// Convenience: processes every `config.window()`-sized window of a log,
    /// collecting all reports. Windows are aligned to the log's first event.
    pub fn process_log(&mut self, log: &mut dice_types::EventLog) -> Vec<FaultReport> {
        let duration = self.model.borrow().config().window();
        self.process_windows(log.windows(duration))
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
        self.process_windows(log.windows_between(from, to, duration))
    }

    fn process_windows(&mut self, windows: dice_types::WindowIter<'_>) -> Vec<FaultReport> {
        let mut reports = Vec::new();
        for w in windows {
            if let Some(report) = self.process_window(w.start, w.end, w.events) {
                reports.push(report);
            }
        }
        // Publish batched samples at the stream boundary so a snapshot
        // taken right after a replay sees every window.
        self.machinery.flush_telemetry();
        reports
    }
}

impl EngineSession {
    /// Runs the phase state machine for one checked window.
    fn advance_phase(
        &mut self,
        model: &DiceModel,
        options: &EngineOptions,
        obs: &WindowObservation,
        result: &CheckResult,
        window_end: Timestamp,
    ) -> Option<FaultReport> {
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
                        self.phase = Phase::Identifying(Box::new(Identifying {
                            detected_at,
                            detected_by,
                            detail,
                            tracker,
                            windows_since_detection: 2,
                            violations_seen: confirm.max(2),
                        }));
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
                self.phase = Phase::Identifying(Box::new(Identifying {
                    detected_at: window_end,
                    detected_by: kind,
                    detail,
                    tracker,
                    windows_since_detection: 1,
                    violations_seen: 1,
                }));
                None
            }
            Phase::Identifying(mut id) => {
                id.windows_since_detection += 1;
                if result.is_violation() {
                    id.violations_seen += 1;
                    let probable = identifier.probable_devices(self.prev.as_ref(), obs, result);
                    id.tracker.feed(&probable.devices);
                }

                // An unconfirmed violation that stays quiet for the whole
                // confirmation horizon is stashed: if it was a context blip
                // nothing more happens, but a slow fault will implicate the
                // same devices again later.
                if id.violations_seen < confirm {
                    if id.windows_since_detection >= horizon {
                        if let Some(devices) = id.tracker.current() {
                            self.stale = Some(Box::new(StaleSuspects {
                                detected_at: id.detected_at,
                                detected_by: id.detected_by,
                                detail: id.detail,
                                devices: devices.clone(),
                            }));
                        }
                        return None; // back to Monitoring
                    }
                    self.phase = Phase::Identifying(id);
                    return None;
                }

                // Early fire on weighted devices (Section VI).
                if let (Some(threshold), Some(current)) =
                    (options.early_fire_threshold, id.tracker.current())
                {
                    let heavy = options.weights.over_threshold(current.iter(), threshold);
                    if !heavy.is_empty() {
                        return Some(FaultReport {
                            detected_at: id.detected_at,
                            identified_at: window_end,
                            detected_by: id.detected_by,
                            devices: heavy,
                            conclusive: false,
                            windows_examined: id.windows_since_detection,
                            detail: id.detail,
                            evidence: Vec::new(),
                            lineage: None,
                        });
                    }
                }

                let converged = id.tracker.converged(num_thre);
                if converged || id.windows_since_detection >= budget {
                    let devices = id.tracker.current().cloned().unwrap_or_default();
                    return Some(FaultReport {
                        detected_at: id.detected_at,
                        identified_at: window_end,
                        detected_by: id.detected_by,
                        devices: devices.into_iter().collect(),
                        conclusive: converged,
                        windows_examined: id.windows_since_detection,
                        detail: id.detail,
                        evidence: Vec::new(),
                        lineage: None,
                    });
                }

                self.phase = Phase::Identifying(id);
                None
            }
        }
    }
}

impl EngineMachinery {
    /// Machinery with these options. Telemetry buffers are allocated only
    /// when `options.telemetry` is recording.
    pub fn new(options: EngineOptions) -> Self {
        let tel_batch = options
            .telemetry
            .recorder()
            .map(|r| TelBatch::new(&r.metrics.engine));
        EngineMachinery {
            options,
            cost: CostProfile::default(),
            obs_scratch: WindowObservation::default(),
            bin_scratch: BinarizeScratch::default(),
            cand_scratch: Vec::new(),
            tel_batch,
        }
    }

    /// A fresh session judged against `model`: monitoring, with no
    /// previous window, and with its own flight recorder when the options
    /// enable tracing. A recording telemetry sink is told the model's
    /// layout fingerprint.
    pub fn session(&self, model: &DiceModel) -> EngineSession {
        let options = &self.options;
        if let Some(recorder) = options.telemetry.recorder() {
            // Publish the model's layout fingerprint so telemetry snapshots
            // are checkable against the model/trace artifacts they were
            // recorded with (dice-lint's cross-artifact mode).
            recorder
                .metrics
                .engine
                .model_layout_fingerprint
                .set(crate::fingerprint::gauge_value(
                    model.layout().fingerprint(),
                ));
        }
        EngineSession {
            phase: Phase::Monitoring,
            prev: None,
            stale: None,
            tracer: options
                .trace
                .enabled
                .then(|| Box::new(Tracer::new(&options.trace, &options.telemetry))),
        }
    }

    /// [`DiceEngine::process_observation`] for `session`, which must have
    /// been created for `model`.
    pub fn process_observation(
        &mut self,
        model: &DiceModel,
        session: &mut EngineSession,
        obs: &WindowObservation,
        main: Option<GroupId>,
    ) -> Option<FaultReport> {
        debug_assert_eq!(
            main,
            Detector::new(model).correlation_check(obs),
            "the caller's correlation verdict must match the model's"
        );
        let laps = if self.options.telemetry.recorder().is_some() {
            Laps::started()
        } else {
            Laps::off()
        };
        self.judge(model, session, obs, main, laps)
    }

    /// [`DiceEngine::flush`] for `session`, which must have been created
    /// for `model`. Also publishes the buffered telemetry.
    pub fn flush(&mut self, model: &DiceModel, session: &mut EngineSession) -> Option<FaultReport> {
        self.flush_telemetry();
        let confirm = model.config().confirmation_violations();
        let Phase::Identifying(id) = std::mem::replace(&mut session.phase, Phase::Monitoring)
        else {
            return None;
        };
        if id.violations_seen < confirm {
            return None; // unconfirmed blip
        }
        let Identifying {
            detected_at,
            detected_by,
            detail,
            tracker,
            windows_since_detection,
            ..
        } = *id;
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
        if let Some(tracer) = session.tracer.as_ref() {
            report.evidence = tracer.recorder.last_n(DEFAULT_TRACE_SNAPSHOT_LAST);
        }
        Some(report)
    }

    /// Publishes the batched every-window metrics.
    fn flush_telemetry(&mut self) {
        if let Some(batch) = self.tel_batch.as_mut() {
            batch.flush();
        }
    }

    /// Binarizes into the machinery's scratch, runs the correlation check
    /// and judges the observation; every window is timed.
    fn process_window(
        &mut self,
        model: &DiceModel,
        session: &mut EngineSession,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
    ) -> Option<FaultReport> {
        // Binarization counts toward the correlation check's cost.
        let laps = Laps::started();
        let mut obs = std::mem::take(&mut self.obs_scratch);
        model
            .binarizer()
            .binarize_into(start, end, events, &mut self.bin_scratch, &mut obs);
        let main = Detector::new(model).correlation_check(&obs);
        let report = self.judge(model, session, &obs, main, laps);
        // Reclaim the scratch buffer (capacity survives for the next window).
        self.obs_scratch = obs;
        report
    }

    /// The one judging path behind both entry points: the candidate scan,
    /// the transition check, identification, tracing and telemetry for a
    /// correlation-checked observation.
    fn judge(
        &mut self,
        model: &DiceModel,
        session: &mut EngineSession,
        obs: &WindowObservation,
        main: Option<GroupId>,
        mut laps: Laps,
    ) -> Option<FaultReport> {
        let detector = Detector::new(model);
        let mut scan_profile = ScanProfile::default();
        // The transition check runs once, for the verdict, and is timed in
        // place; `trans_ns` stays zero when it did not run.
        let corr_ns;
        let mut trans_ns: u128 = 0;
        let mut transition_checked = false;
        let result = match main {
            None => {
                // Identification and the previous-window summary both
                // consume this list, nearest-group fallback included.
                let mut candidates = std::mem::take(&mut self.cand_scratch);
                scan_profile = detector.violation_candidates_into(obs, &mut candidates);
                // The candidate scan counts as correlation.
                corr_ns = laps.lap();
                CheckResult::CorrelationViolation { candidates }
            }
            Some(group) => {
                corr_ns = laps.lap();
                let cases = match session.prev.as_ref() {
                    Some(prev) => {
                        let cases = detector.transition_check(prev, group, obs);
                        trans_ns = laps.lap();
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

        // Identification.
        let phase_before = session.phase.traced();
        let mut report = session.advance_phase(model, &self.options, obs, &result, obs.end);
        let ident_ns = laps.lap();
        if laps.timed() {
            self.cost.correlation_ns += corr_ns;
            self.cost.transition_ns += trans_ns;
            self.cost.identification_ns += ident_ns;
            self.cost.windows += 1;
        }

        // Decision tracing. Disabled (the default) costs this one branch;
        // enabled refills a recycled ring slot — before the previous-window
        // update so the trace can name the G2G row the transition check
        // consulted.
        if let Some(tracer) = session.tracer.as_mut() {
            tracer.record(
                model,
                session.prev.as_ref(),
                obs,
                &result,
                obs.start,
                obs.end,
                phase_before,
                session.phase.traced(),
                report.as_mut(),
            );
        }

        // Update previous-window context for the next round.
        PrevWindow::advance(&mut session.prev, obs, &result);

        // Telemetry: pure observation of already-computed values — the
        // nanosecond figures are the same ones `CostProfile` accumulates
        // (one clock, two consumers; both entry points time every window
        // while telemetry is recording), and nothing here feeds back into
        // detection or identification.
        if let Some(recorder) = self.options.telemetry.recorder() {
            let m = &recorder.metrics.engine;
            if let Some(batch) = self.tel_batch.as_mut() {
                batch.windows_n += 1;
                batch.corr_ns.record(saturating_ns(corr_ns));
                if transition_checked {
                    batch.trans_ns.record(saturating_ns(trans_ns));
                }
                batch.ident_ns.record(saturating_ns(ident_ns));
                batch
                    .detection_ns
                    .record(saturating_ns(corr_ns + trans_ns + ident_ns));
                match &result {
                    CheckResult::Normal { .. } => batch.main_hits_n += 1,
                    CheckResult::CorrelationViolation { candidates } => {
                        m.correlation_violations_total.inc();
                        m.scan_rows_total.add(u64::from(scan_profile.rows));
                        m.scan_rows_pruned_total.add(u64::from(scan_profile.pruned));
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

        // Reclaim the candidate buffer (capacity survives for the next
        // window).
        if let CheckResult::CorrelationViolation { candidates } = result {
            self.cand_scratch = candidates;
        }

        report
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
        // Scan stats: every correlation violation scanned rows.
        assert!(snapshot.counter("dice_engine_scan_rows_total").unwrap() > 0);
        // The check-latency sketches see the same windows and nanoseconds
        // CostProfile does.
        let cost = engine.cost_profile();
        let (corr_count, corr_sum) = snapshot.sketch("dice_engine_correlation_check_ns").unwrap();
        assert_eq!(corr_count, cost.windows);
        assert_eq!(u128::from(corr_sum), cost.correlation_ns);
        let (trans_count, trans_sum) = snapshot.sketch("dice_engine_transition_check_ns").unwrap();
        assert!(trans_count > 0 && trans_count <= cost.windows);
        assert_eq!(u128::from(trans_sum), cost.transition_ns);
        let (ident_count, ident_sum) = snapshot.sketch("dice_engine_identification_ns").unwrap();
        assert_eq!(ident_count, cost.windows);
        assert_eq!(u128::from(ident_sum), cost.identification_ns);
        // Each report surfaced as a ring event.
        let recorder = telemetry.recorder().unwrap();
        let events = recorder.events.snapshot();
        assert_eq!(events.len(), reports.len());
        assert!(events.iter().all(|e| e.kind == "fault_report"));
    }

    /// One live minute for the three-sensor fixture: `0..=5` the trained
    /// pattern for the minute's parity, `6` s0 alone (s1 fail-stopped), `7`
    /// the other parity's pattern (an unseen G2G step), `8` every sensor at
    /// once, `9` silence.
    fn push_minute(log: &mut EventLog, sensors: &[SensorId], minute: i64, choice: u8) {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        let even = minute % 2 == 0;
        let fire: &[usize] = match choice {
            0..=5 if even => &[0, 1],
            0..=5 => &[2],
            6 => &[0],
            7 if even => &[2],
            7 => &[0, 1],
            8 => &[0, 1, 2],
            _ => &[],
        };
        for &i in fire {
            log.push_sensor(SensorReading::new(sensors[i], at, true.into()));
        }
    }

    proptest::proptest! {
        /// `process_observation` fed a caller-computed observation and
        /// verdict judges every window exactly as `process_window` does. The fixed prefix guarantees a transition
        /// and a correlation violation in every case; the random tail
        /// mixes in more faults.
        #[test]
        fn process_observation_matches_process_window(
            tail in proptest::collection::vec(0u8..10, 0..150),
        ) {
            let (model, sensors) = trained_model();
            let prefix = [0u8, 0, 0, 0, 7, 0, 0, 0, 6, 6, 6, 0, 0];
            let choices: Vec<u8> = prefix.iter().chain(&tail).copied().collect();
            let mut live = EventLog::new();
            for (minute, &choice) in choices.iter().enumerate() {
                push_minute(&mut live, &sensors, minute as i64, choice);
            }
            let minutes = choices.len() as i64;
            let to = Timestamp::from_mins(minutes);
            let windows: Vec<(Timestamp, Timestamp, Vec<Event>)> = live
                .windows_between(Timestamp::ZERO, to, model.config().window())
                .map(|w| (w.start, w.end, w.events.to_vec()))
                .collect();

            let telemetry = Telemetry::recording();
            let mut by_window = DiceEngine::with_options(
                &model,
                EngineOptions { telemetry: telemetry.clone(), ..EngineOptions::default() },
            );
            let mut by_observation = DiceEngine::with_options(
                &model,
                EngineOptions { telemetry: Telemetry::noop(), ..EngineOptions::default() },
            );
            let mut scratch = BinarizeScratch::default();
            let mut obs = WindowObservation::default();
            for (start, end, events) in &windows {
                let expected = by_window.process_window(*start, *end, events);

                model.binarizer().binarize_into(*start, *end, events, &mut scratch, &mut obs);
                let main = Detector::new(&model).correlation_check(&obs);
                let got = by_observation.process_observation(&obs, main);
                proptest::prop_assert_eq!(&got, &expected, "window ending {}", end);
                proptest::prop_assert_eq!(
                    by_observation.is_identifying(),
                    by_window.is_identifying(),
                    "window ending {}", end
                );
            }
            proptest::prop_assert_eq!(by_observation.flush(), by_window.flush());

            let snapshot = telemetry.snapshot().unwrap();
            proptest::prop_assert!(
                snapshot.counter("dice_engine_transition_violations_total").unwrap() > 0
            );
            proptest::prop_assert!(
                snapshot.counter("dice_engine_correlation_violations_total").unwrap() > 0
            );
            // With a no-op sink the observation path reads no clock.
            proptest::prop_assert_eq!(by_observation.cost_profile(), CostProfile::default());
            proptest::prop_assert_eq!(by_window.cost_profile().windows, windows.len() as u64);
        }
    }

    /// A fleet keeps one session per home, so the session stays small: the
    /// identification payload, stale suspects and tracer sit behind
    /// pointers.
    #[test]
    fn a_session_fits_in_64_bytes() {
        let size = std::mem::size_of::<EngineSession>();
        assert!(size <= 64, "EngineSession is {size} B");
    }
}
