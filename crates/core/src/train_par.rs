//! Parallel map-reduce precomputation: chunked extraction with a
//! deterministic model merge.
//!
//! [`ParallelTrainer`] runs the same two-pass precomputation as
//! [`ContextExtractor`](crate::ContextExtractor), but splits the training
//! log into time-contiguous chunks and extracts them on worker threads:
//!
//! * **Pass one** accumulates per-chunk [`ThresholdTrainer`]s and folds them
//!   with [`ThresholdTrainer::merge`]. The per-sensor means are exact
//!   integer accumulators, so the merged `valueThre` thresholds are
//!   bit-for-bit the serial ones regardless of chunking.
//! * **Pass two** runs one [`ChunkExtractor`] per chunk of consecutive
//!   windows, producing a [`PartialModel`] with chunk-local group ids.
//!   [`merge_partials`] then replays the chunks in time order: group states
//!   are assigned global ids in first-seen-in-time order (exactly the serial
//!   assignment), transition counts are remapped through the local→global
//!   id map, and the one transition that crosses each chunk boundary — last
//!   window of chunk *k* to first window of chunk *k+1* — is stitched in
//!   explicitly.
//!
//! The result is **bit-identical** to the serial extractor: same group ids,
//! same counts, same serialized bytes (`tests/properties.rs` proves this
//! property over random logs and chunkings).
//
// lint-src: allow-file(wall-clock) — the Instant reads time chunk/merge
// phases for telemetry only; the trained model is clock-independent.

use std::time::Instant;

use dice_telemetry::{saturating_ns, Telemetry};
use dice_types::{ActuatorId, DeviceRegistry, Event, EventLog, GroupId, TimeDelta, Timestamp};
use rayon::prelude::*;

use crate::binarize::{BinarizeScratch, Binarizer, ThresholdTrainer, WindowObservation};
use crate::config::DiceConfig;
use crate::error::DiceError;
use crate::groups::GroupTable;
use crate::layout::BitLayout;
use crate::model::DiceModel;
use crate::transition::TransitionModel;

/// The window tiling a training run extracts: `count` windows of `duration`
/// starting at `origin`, optionally clipped to end no later than `clip`.
#[derive(Debug, Clone, Copy)]
struct WindowPlan {
    origin: Timestamp,
    duration: TimeDelta,
    count: u64,
    clip: Option<Timestamp>,
}

impl WindowPlan {
    /// Start and (exclusive) end of window `index`.
    fn bounds(&self, index: u64) -> (Timestamp, Timestamp) {
        let start =
            Timestamp::from_secs(self.origin.as_secs() + index as i64 * self.duration.as_secs());
        let mut end = start + self.duration;
        if let Some(clip) = self.clip {
            if clip < end {
                end = clip;
            }
        }
        (start, end)
    }
}

/// The extraction of one chunk of consecutive windows, with chunk-local
/// group ids. Produced by [`ChunkExtractor::finish`], consumed by
/// [`merge_partials`].
#[derive(Debug, Clone)]
pub struct PartialModel {
    groups: GroupTable,
    transitions: TransitionModel,
    first: Option<(GroupId, Vec<ActuatorId>)>,
    last: Option<(GroupId, Vec<ActuatorId>)>,
    windows: u64,
}

impl PartialModel {
    /// The chunk-local group table (ids dense in first-seen-in-chunk order).
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// The chunk-local transition matrices (group ids are chunk-local).
    pub fn transitions(&self) -> &TransitionModel {
        &self.transitions
    }

    /// Number of windows this chunk observed.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

/// Extracts one time-contiguous chunk of windows into a [`PartialModel`].
///
/// Feed the chunk's windows in time order via
/// [`ChunkExtractor::observe_window`] — the observation logic mirrors
/// [`ModelBuilder::observe_binarized`](crate::ModelBuilder) exactly, except
/// that group ids are chunk-local and the boundary windows are remembered so
/// [`merge_partials`] can stitch the cross-chunk transitions.
#[derive(Debug, Clone)]
pub struct ChunkExtractor<'a> {
    binarizer: &'a Binarizer,
    scratch: BinarizeScratch,
    obs: WindowObservation,
    partial: PartialModel,
}

impl<'a> ChunkExtractor<'a> {
    /// Creates an extractor binarizing against `binarizer`.
    pub fn new(binarizer: &'a Binarizer) -> Self {
        let num_bits = binarizer.layout().num_bits();
        ChunkExtractor {
            binarizer,
            scratch: BinarizeScratch::default(),
            obs: WindowObservation::default(),
            partial: PartialModel {
                groups: GroupTable::new(num_bits),
                transitions: TransitionModel::new(),
                first: None,
                last: None,
                windows: 0,
            },
        }
    }

    /// Observes one window of raw events (must be fed in time order).
    pub fn observe_window(&mut self, start: Timestamp, end: Timestamp, events: &[Event]) {
        let ChunkExtractor {
            binarizer,
            scratch,
            obs,
            partial,
        } = self;
        binarizer.binarize_into(start, end, events, scratch, obs);
        let group = partial.groups.observe(&obs.state);
        if let Some((prev_group, prev_actuators)) = &partial.last {
            partial.transitions.record_g2g(*prev_group, group);
            for &a in &obs.activated_actuators {
                partial.transitions.record_g2a(*prev_group, a);
            }
            for &a in prev_actuators {
                partial.transitions.record_a2g(a, group);
            }
        }
        if partial.first.is_none() {
            partial.first = Some((group, obs.activated_actuators.clone()));
        }
        partial.last = Some((group, obs.activated_actuators.clone()));
        partial.windows += 1;
    }

    /// Finalizes the chunk.
    pub fn finish(self) -> PartialModel {
        self.partial
    }
}

/// Merges per-chunk [`PartialModel`]s (in time order) into one
/// [`DiceModel`], bit-identical to a serial extraction over the same
/// windows.
///
/// Group states are inserted into the global table chunk by chunk, in each
/// chunk's local-id order; because local ids are first-occurrence order
/// *within* the chunk, this reproduces the serial first-occurrence-in-time
/// assignment. Transition counts are remapped through the local→global map,
/// and the transition across each chunk boundary (last window of one chunk
/// to first window of the next) is stitched in the same way
/// [`ModelBuilder`](crate::ModelBuilder) records consecutive windows.
/// Chunks that observed no window are skipped, carrying the previous
/// chunk's boundary across.
///
/// # Errors
///
/// Returns [`DiceError::EmptyTrainingData`] if no chunk observed a window.
pub fn merge_partials(
    config: DiceConfig,
    binarizer: Binarizer,
    num_actuators: usize,
    partials: &[PartialModel],
) -> Result<DiceModel, DiceError> {
    merge_partials_inner(
        config,
        binarizer,
        num_actuators,
        partials,
        &Telemetry::global(),
    )
}

fn merge_partials_inner(
    config: DiceConfig,
    binarizer: Binarizer,
    num_actuators: usize,
    partials: &[PartialModel],
    telemetry: &Telemetry,
) -> Result<DiceModel, DiceError> {
    let merge_started = Instant::now();
    let mut groups = GroupTable::new(binarizer.layout().num_bits());
    let mut transitions = TransitionModel::new();
    let mut windows = 0u64;
    let mut prev: Option<(GroupId, &[ActuatorId])> = None;
    for partial in partials {
        if partial.windows == 0 {
            continue;
        }
        let map = groups.merge(&partial.groups);
        transitions.merge_mapped(&partial.transitions, &map);
        let (first_group, first_actuators) = partial
            .first
            .as_ref()
            .expect("a chunk with windows has a first window");
        let mapped_first = map[first_group.index()];
        if let Some((prev_group, prev_actuators)) = prev {
            transitions.record_g2g(prev_group, mapped_first);
            for &a in first_actuators {
                transitions.record_g2a(prev_group, a);
            }
            for &a in prev_actuators {
                transitions.record_a2g(a, mapped_first);
            }
        }
        let (last_group, last_actuators) = partial
            .last
            .as_ref()
            .expect("a chunk with windows has a last window");
        prev = Some((map[last_group.index()], last_actuators));
        windows += partial.windows;
    }
    if windows == 0 {
        return Err(DiceError::EmptyTrainingData);
    }
    #[cfg(debug_assertions)]
    {
        let parts: Vec<&GroupTable> = partials.iter().map(PartialModel::groups).collect();
        let findings = crate::invariants::check_group_merge(&groups, &parts);
        debug_assert!(
            findings.is_empty(),
            "merge broke conservation: {findings:?}"
        );
    }
    if let Some(recorder) = telemetry.recorder() {
        recorder
            .metrics
            .train
            .merge_ns
            .record(saturating_ns(merge_started.elapsed().as_nanos()));
    }
    Ok(DiceModel::from_parts(
        config,
        binarizer,
        groups,
        transitions,
        num_actuators,
        windows,
    ))
}

/// Splits `n` items into `chunks` contiguous `(lo, hi)` ranges in order;
/// the first `n % chunks` ranges take the remainder. Ranges may be empty
/// when `n < chunks`.
fn split_ranges(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    let base = n / chunks;
    let extra = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut lo = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        ranges.push((lo, lo + len));
        lo += len;
    }
    ranges
}

/// Deterministic parallel context extraction.
///
/// A drop-in for [`ContextExtractor`](crate::ContextExtractor) that chunks
/// both precomputation passes across worker threads and merges the partial
/// results into a model that is bit-identical to the serial one.
///
/// # Example
///
/// ```
/// use dice_core::{ContextExtractor, DiceConfig, ParallelTrainer};
/// use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};
///
/// # fn main() -> Result<(), dice_core::DiceError> {
/// let mut reg = DeviceRegistry::new();
/// let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
/// let mut log = EventLog::new();
/// for minute in 0..60 {
///     log.push_sensor(SensorReading::new(
///         motion,
///         Timestamp::from_mins(minute),
///         (minute % 2 == 0).into(),
///     ));
/// }
/// let config = DiceConfig::default();
/// let parallel = ParallelTrainer::new(config.clone())
///     .with_chunks(4)
///     .extract(&reg, &mut log.clone())?;
/// let serial = ContextExtractor::new(config).extract(&reg, &mut log)?;
/// assert_eq!(parallel, serial);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParallelTrainer {
    config: DiceConfig,
    chunks: Option<usize>,
    telemetry: Telemetry,
}

impl ParallelTrainer {
    /// Creates a trainer with the given configuration. The chunk count
    /// defaults to the worker-thread count, and telemetry to
    /// [`Telemetry::global`].
    pub fn new(config: DiceConfig) -> Self {
        ParallelTrainer {
            config,
            chunks: None,
            telemetry: Telemetry::global(),
        }
    }

    /// Overrides the number of chunks the log is split into. Any positive
    /// count yields the same model; more chunks than windows leaves the
    /// excess chunks empty.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "chunk count must be positive");
        self.chunks = Some(chunks);
        self
    }

    /// Routes training telemetry to `telemetry` instead of the global sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn chunk_count(&self) -> usize {
        self.chunks
            .unwrap_or_else(rayon::current_num_threads)
            .max(1)
    }

    /// Runs the full precomputation over `log`, tiling windows exactly like
    /// [`ContextExtractor::extract`](crate::ContextExtractor::extract):
    /// windows of `config.window()` from the first event's aligned-down
    /// timestamp through the last event.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::NoSensors`] for an empty registry and
    /// [`DiceError::EmptyTrainingData`] for an empty log.
    pub fn extract(
        &self,
        registry: &DeviceRegistry,
        log: &mut EventLog,
    ) -> Result<DiceModel, DiceError> {
        if registry.num_sensors() == 0 {
            return Err(DiceError::NoSensors);
        }
        let (Some(first), Some(last)) = (log.start(), log.end()) else {
            return Err(DiceError::EmptyTrainingData);
        };
        let duration = self.config.window();
        let origin = first.align_down(duration);
        let count = (last - origin).as_secs().div_euclid(duration.as_secs()) as u64 + 1;
        let plan = WindowPlan {
            origin,
            duration,
            count,
            clip: None,
        };
        self.run(registry, log.events(), plan)
    }

    /// Runs the full precomputation over the windows tiling `[from, to)`,
    /// exactly like feeding `log.windows_between(from, to, window)` to a
    /// [`ModelBuilder`](crate::ModelBuilder). Unlike
    /// [`ParallelTrainer::extract`], an empty log is allowed: every window
    /// is observed as the all-quiet state (the partitioned trainer relies
    /// on this so silent partitions still learn their silent context).
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::NoSensors`] for an empty registry.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn extract_between(
        &self,
        registry: &DeviceRegistry,
        log: &mut EventLog,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<DiceModel, DiceError> {
        if registry.num_sensors() == 0 {
            return Err(DiceError::NoSensors);
        }
        assert!(from < to, "window range must be non-empty");
        let duration = self.config.window();
        let span = (to - from).as_secs();
        let count = span.div_euclid(duration.as_secs()) as u64
            + u64::from(span.rem_euclid(duration.as_secs()) != 0);
        let plan = WindowPlan {
            origin: from,
            duration,
            count,
            clip: Some(to),
        };
        self.run(registry, log.events(), plan)
    }

    fn run(
        &self,
        registry: &DeviceRegistry,
        events: &[Event],
        plan: WindowPlan,
    ) -> Result<DiceModel, DiceError> {
        let wall_started = Instant::now();
        let chunks = self.chunk_count();

        // Pass 1: per-chunk threshold accumulation, merged exactly.
        let trained: Vec<(ThresholdTrainer, u64)> = split_ranges(events.len(), chunks)
            .into_par_iter()
            .map(|(lo, hi)| {
                let chunk_started = Instant::now();
                let mut trainer = ThresholdTrainer::new(registry);
                for event in &events[lo..hi] {
                    trainer.observe(event);
                }
                (trainer, saturating_ns(chunk_started.elapsed().as_nanos()))
            })
            .collect();
        let mut busy_ns = 0u64;
        let mut trainer = ThresholdTrainer::new(registry);
        for (partial, ns) in &trained {
            trainer.merge(partial);
            busy_ns += ns;
        }
        let binarizer = Binarizer::new(BitLayout::for_registry(registry), trainer.finish());

        // Pass 2: per-chunk window extraction with chunk-local group ids.
        let extracted: Vec<(PartialModel, u64)> = split_ranges(plan.count as usize, chunks)
            .into_par_iter()
            .map(|(lo, hi)| {
                let chunk_started = Instant::now();
                let mut extractor = ChunkExtractor::new(&binarizer);
                if lo < hi {
                    let (chunk_start, _) = plan.bounds(lo as u64);
                    let mut cursor = events.partition_point(|e| e.at() < chunk_start);
                    for index in lo..hi {
                        let (start, end) = plan.bounds(index as u64);
                        let begin = cursor;
                        while cursor < events.len() && events[cursor].at() < end {
                            cursor += 1;
                        }
                        extractor.observe_window(start, end, &events[begin..cursor]);
                    }
                }
                (
                    extractor.finish(),
                    saturating_ns(chunk_started.elapsed().as_nanos()),
                )
            })
            .collect();
        let mut partials = Vec::with_capacity(extracted.len());
        for (partial, ns) in extracted {
            busy_ns += ns;
            partials.push(partial);
        }

        let model = merge_partials_inner(
            self.config.clone(),
            binarizer,
            registry.num_actuators(),
            &partials,
            &self.telemetry,
        )?;
        if let Some(recorder) = self.telemetry.recorder() {
            let train = &recorder.metrics.train;
            train.windows_total.add(model.training_windows());
            train.chunks_total.add(chunks as u64);
            train.worker_busy_ns.add(busy_ns);
            train
                .wall_ns
                .add(saturating_ns(wall_started.elapsed().as_nanos()));
            train.workers.set_max(rayon::current_num_threads() as i64);
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{ContextExtractor, ModelBuilder};
    use dice_types::{ActuatorEvent, ActuatorKind, Room, SensorKind, SensorReading};

    fn mixed_home() -> (
        DeviceRegistry,
        dice_types::SensorId,
        dice_types::SensorId,
        dice_types::ActuatorId,
    ) {
        let mut reg = DeviceRegistry::new();
        let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let temp = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let bulb = reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        (reg, motion, temp, bulb)
    }

    fn mixed_log(
        motion: dice_types::SensorId,
        temp: dice_types::SensorId,
        bulb: dice_types::ActuatorId,
        minutes: i64,
    ) -> EventLog {
        let mut log = EventLog::new();
        for minute in 0..minutes {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(7);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(motion, at, true.into()));
            }
            if minute % 3 != 0 {
                let v = 18.0 + (minute % 7) as f64 + 0.1 * (minute % 13) as f64;
                log.push_sensor(SensorReading::new(temp, at, v.into()));
                log.push_sensor(SensorReading::new(
                    temp,
                    at + TimeDelta::from_secs(20),
                    (v + 0.3).into(),
                ));
            }
            if minute % 5 == 0 {
                log.push_actuator(ActuatorEvent::new(bulb, at, true));
            }
        }
        log
    }

    #[test]
    fn parallel_extract_matches_serial_for_any_chunking() {
        let (reg, motion, temp, bulb) = mixed_home();
        let log = mixed_log(motion, temp, bulb, 40);
        let serial = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log.clone())
            .unwrap();
        for chunks in [1, 2, 3, 4, 7, 40, 60] {
            let parallel = ParallelTrainer::new(DiceConfig::default())
                .with_chunks(chunks)
                .extract(&reg, &mut log.clone())
                .unwrap();
            assert_eq!(parallel, serial, "chunks={chunks}");
        }
    }

    #[test]
    fn extract_between_matches_the_serial_builder() {
        let (reg, motion, temp, bulb) = mixed_home();
        let config = DiceConfig::default();
        let mut log = mixed_log(motion, temp, bulb, 30);
        let from = Timestamp::ZERO;
        let to = Timestamp::from_mins(30) + TimeDelta::from_secs(30); // forces a clipped last window
        let mut trainer = ThresholdTrainer::new(&reg);
        for event in log.events() {
            trainer.observe(event);
        }
        let mut builder = ModelBuilder::new(config.clone(), &reg, trainer.finish()).unwrap();
        for window in log.windows_between(from, to, config.window()) {
            builder.observe_window(window.start, window.end, window.events);
        }
        let serial = builder.finish().unwrap();
        for chunks in [1, 3, 8] {
            let parallel = ParallelTrainer::new(config.clone())
                .with_chunks(chunks)
                .extract_between(&reg, &mut log, from, to)
                .unwrap();
            assert_eq!(parallel, serial, "chunks={chunks}");
        }
    }

    #[test]
    fn extract_between_trains_silent_context_from_an_empty_log() {
        let (reg, ..) = mixed_home();
        let mut log = EventLog::new();
        let model = ParallelTrainer::new(DiceConfig::default())
            .with_chunks(2)
            .extract_between(&reg, &mut log, Timestamp::ZERO, Timestamp::from_mins(5))
            .unwrap();
        assert_eq!(model.training_windows(), 5);
        assert_eq!(model.groups().len(), 1, "only the all-quiet state");
    }

    #[test]
    fn extract_rejects_empty_inputs_like_the_serial_extractor() {
        let (reg, ..) = mixed_home();
        let trainer = ParallelTrainer::new(DiceConfig::default());
        assert_eq!(
            trainer.extract(&reg, &mut EventLog::new()).unwrap_err(),
            DiceError::EmptyTrainingData
        );
        let empty_reg = DeviceRegistry::new();
        assert_eq!(
            trainer
                .extract(&empty_reg, &mut EventLog::new())
                .unwrap_err(),
            DiceError::NoSensors
        );
    }

    #[test]
    fn merge_partials_rejects_all_empty_chunks() {
        let (reg, ..) = mixed_home();
        let binarizer = Binarizer::new(
            BitLayout::for_registry(&reg),
            ThresholdTrainer::new(&reg).finish(),
        );
        let partials = vec![
            ChunkExtractor::new(&binarizer).finish(),
            ChunkExtractor::new(&binarizer).finish(),
        ];
        let err = merge_partials(DiceConfig::default(), binarizer, 1, &partials);
        assert_eq!(err.unwrap_err(), DiceError::EmptyTrainingData);
    }

    #[test]
    fn split_ranges_tiles_exactly_and_allows_empty_chunks() {
        assert_eq!(split_ranges(5, 2), vec![(0, 3), (3, 5)]);
        assert_eq!(split_ranges(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(split_ranges(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
        let ranges = split_ranges(103, 7);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 103);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "ranges must tile contiguously");
        }
    }

    #[test]
    fn training_telemetry_counts_windows_chunks_and_merge() {
        let (reg, motion, temp, bulb) = mixed_home();
        let mut log = mixed_log(motion, temp, bulb, 20);
        let telemetry = Telemetry::recording();
        let model = ParallelTrainer::new(DiceConfig::default())
            .with_chunks(4)
            .with_telemetry(telemetry.clone())
            .extract(&reg, &mut log)
            .unwrap();
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(
            snapshot.counter("dice_train_windows_total"),
            Some(model.training_windows())
        );
        assert_eq!(snapshot.counter("dice_train_chunks_total"), Some(4));
        let (merges, _) = snapshot.sketch("dice_train_merge_ns").unwrap();
        assert_eq!(merges, 1);
        let recorder = telemetry.recorder().unwrap();
        assert!(recorder.metrics.train.workers.get() >= 1);
        let utilization = recorder.metrics.train.worker_utilization();
        assert!((0.0..=1.0).contains(&utilization), "got {utilization}");
    }
}
