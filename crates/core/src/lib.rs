//! # DICE: Detection & Identification with Context Extraction
//!
//! A faithful implementation of DICE, the faulty-IoT-device detection and
//! identification system for smart homes (Choi, DSN 2018). DICE runs on the
//! home gateway in two phases:
//!
//! * **Precomputation phase** ([`ContextExtractor`] / [`ModelBuilder`]):
//!   fault-free sensor data is windowed into *sensor state sets* (one bit per
//!   binary sensor, three bits — skewness / trend / level — per numeric
//!   sensor). Every unique state set becomes a *group*, and three Markov
//!   transition matrices are learned: group→group, group→actuator, and
//!   actuator→group.
//! * **Real-time phase** ([`DiceEngine`]): each incoming window is checked
//!   for a *correlation violation* (no exact group match) and a *transition
//!   violation* (zero-probability transition). Violations trigger the
//!   identification step, which diffs the problematic state set against the
//!   probable groups and intersects per-window probable-fault sets until at
//!   most `numThre` devices remain.
//!
//! # Quickstart
//!
//! ```
//! use dice_core::{ContextExtractor, DiceConfig, DiceEngine};
//! use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};
//!
//! # fn main() -> Result<(), dice_core::DiceError> {
//! // 1. Describe the deployment.
//! let mut registry = DeviceRegistry::new();
//! let motion = registry.add_sensor(SensorKind::Motion, "kitchen motion", Room::Kitchen);
//!
//! // 2. Precompute context from fault-free data.
//! let mut training = EventLog::new();
//! for minute in 0..240 {
//!     training.push_sensor(SensorReading::new(
//!         motion,
//!         Timestamp::from_mins(minute),
//!         (minute % 2 == 0).into(),
//!     ));
//! }
//! let model = ContextExtractor::new(DiceConfig::default()).extract(&registry, &mut training)?;
//!
//! // 3. Run the real-time phase.
//! let mut engine = DiceEngine::new(&model);
//! let mut live = EventLog::new();
//! for minute in 0..30 {
//!     live.push_sensor(SensorReading::new(
//!         motion,
//!         Timestamp::from_mins(minute),
//!         (minute % 2 == 0).into(),
//!     ));
//! }
//! let reports = engine.process_log(&mut live);
//! assert!(reports.is_empty(), "fault-free replay stays quiet");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attest;
mod binarize;
mod bitset;
mod config;
mod detect;
mod diag;
mod engine;
mod error;
mod extract;
pub mod fingerprint;
mod groups;
mod identify;
pub mod invariants;
mod layout;
mod model;
mod model_io;
mod partition;
mod scan;
#[cfg(test)]
#[path = "scan_sliced_tests.rs"]
mod scan_sliced;
mod stats;
pub mod trace;
mod train_par;
mod transition;
mod weights;

pub use attest::{Attestation, Attestor};
pub use binarize::{
    BinarizeScratch, Binarizer, ThresholdTrainer, Thresholds, WindowFold, WindowObservation,
};
pub use bitset::BitSet;
pub use config::{DiceConfig, DiceConfigBuilder};
pub use detect::{CheckKind, CheckResult, Detector, PrevWindow, TransitionCase};
pub use diag::{has_errors, Diagnostic, DiagnosticCode, Severity};
pub use engine::{
    CostProfile, DetectionDetail, DiceEngine, EngineMachinery, EngineOptions, EngineSession,
    FaultReport,
};
pub use error::DiceError;
pub use extract::{ContextExtractor, ModelBuilder};
pub use groups::{Candidate, GroupTable};
pub use identify::{Identifier, IntersectionTracker, ProbableSet};
pub use layout::{BitLayout, BitRole, BitSpan, NUMERIC_SPAN_WIDTH};
pub use model::DiceModel;
pub use model_io::{
    read_model, read_model_unverified, write_model, ModelIoError, MODEL_FORMAT_VERSION, MODEL_MAGIC,
};
pub use partition::{Partition, PartitionedEngine, PartitionedModel};
pub use scan::{ScanBackend, ScanIndex, ScanProfile};
pub use stats::{ExactSum, MeanAccumulator, WindowStats};
pub use trace::{
    parse_trace_jsonl, render_explain, write_header_line, write_trace_jsonl, write_trace_line,
    DecisionTrace, JsonlTraceWriter, LineageStamp, SharedTraceSink, TraceHeader, TraceLog,
    TraceOptions, TracePhase, TraceSink, TraceTransition, TraceVerdict, DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_SNAPSHOT_LAST, DEFAULT_TRACE_TOP_K, TRACE_KIND, TRACE_SCHEMA,
};
pub use train_par::{merge_partials, ChunkPass, ParallelTrainer, PartialModel};
pub use transition::{TransitionCounts, TransitionModel};
pub use weights::DeviceWeights;
