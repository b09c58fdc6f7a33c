//! Parallel map-reduce precomputation in one pass over the training log.
//!
//! [`ParallelTrainer`] learns the same model as the two-pass
//! [`ContextExtractor`](crate::ContextExtractor), but reads each training
//! event once. The log is split into time-contiguous chunks of windows,
//! which run on worker threads:
//!
//! * **Read.** A [`ChunkPass`] reads each window's events once. It feeds
//!   the chunk's [`ThresholdTrainer`] and the binarization kernel, which
//!   sets every threshold-free bit (binary Eq. 3.1, skewness Eq. 3.2,
//!   trend Eq. 3.3). The level bit (Eq. 3.4) needs the final `valueThre`,
//!   so the pass keeps each numeric sensor's window mean instead — the
//!   same `f64` the binarizer would compare.
//! * **Merge thresholds.** The per-chunk trainers fold with
//!   [`ThresholdTrainer::merge`]. Their means are exact integer
//!   accumulators, so the `valueThre` thresholds are bit-for-bit the
//!   serial ones regardless of chunking.
//! * **Resolve.** Each chunk sets its windows' level bits against the
//!   merged thresholds, with the binarizer's own comparison, and assigns
//!   chunk-local groups and transitions into a [`PartialModel`].
//! * **Merge partials.** [`merge_partials`] replays the chunks in time
//!   order: group states get global ids in first-seen-in-time order
//!   (exactly the serial assignment), transition counts are remapped
//!   through the local→global id map, and the one transition that crosses
//!   each chunk boundary — last window of chunk *k* to first window of
//!   chunk *k+1* — is stitched in explicitly.
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

use crate::binarize::{
    close_window, fold_event, level_cutoff, BinarizeScratch, Binarizer, ThresholdTrainer,
    Thresholds,
};
use crate::bitset::BitSet;
use crate::config::DiceConfig;
use crate::error::DiceError;
use crate::groups::GroupTable;
use crate::layout::BitLayout;
use crate::model::DiceModel;
use crate::transition::TransitionModel;

/// The extraction of one chunk of consecutive windows, with chunk-local
/// group ids. Built by the trainer's resolve step, consumed by
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
    fn new(num_bits: usize) -> Self {
        PartialModel {
            groups: GroupTable::new(num_bits),
            transitions: TransitionModel::new(),
            first: None,
            last: None,
            windows: 0,
        }
    }

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

/// One chunk of the one-pass precomputation, handed to the `fill` callback
/// of [`ParallelTrainer::train_chunked`].
///
/// Feed it the chunk's events with [`ChunkPass::observe_tiling`]. Each
/// window is read once: its events train the thresholds, its
/// threshold-free bits and actuator activations are stored, and its
/// numeric sensors' means are kept until the merged thresholds can resolve
/// the level bits. The deferred means cost 8 bytes per numeric sensor per
/// window.
#[derive(Debug)]
pub struct ChunkPass<'a> {
    layout: &'a BitLayout,
    duration: TimeDelta,
    trainer: ThresholdTrainer,
    scratch: BinarizeScratch,
    state: BitSet,
    window_actuators: Vec<ActuatorId>,
    /// Threshold-free state words, one state set's worth per window.
    words: Vec<u64>,
    /// Window means in numeric-slot order, one block per window; NaN
    /// where the sensor had no sample (a NaN never exceeds a cutoff, just
    /// as an empty sensor never sets its level bit).
    means: Vec<f64>,
    /// Activated actuators of all windows, concatenated.
    actuators: Vec<ActuatorId>,
    /// End of each window's run in `actuators`.
    actuator_ends: Vec<usize>,
}

impl<'a> ChunkPass<'a> {
    fn new(registry: &DeviceRegistry, layout: &'a BitLayout, duration: TimeDelta) -> Self {
        ChunkPass {
            layout,
            duration,
            trainer: ThresholdTrainer::new(registry),
            scratch: BinarizeScratch::default(),
            state: BitSet::new(layout.num_bits()),
            window_actuators: Vec::new(),
            words: Vec::new(),
            means: Vec::new(),
            actuators: Vec::new(),
            actuator_ends: Vec::new(),
        }
    }

    /// Observes the windows tiling `[from, to)` — windows of the trainer's
    /// duration from `from`, the last one clipped to end at `to` — over
    /// `events`, which must be sorted by time. Events before `from` or at
    /// or after `to` lie in no window and count toward the thresholds
    /// only. Tilings must be fed in time order, and consecutive calls and
    /// chunks must join without gaps, so that the chunks concatenate into
    /// the serial tiling.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn observe_tiling(&mut self, events: &[Event], from: Timestamp, to: Timestamp) {
        assert!(from <= to, "tiling range must not be reversed");
        let windows = window_count(from, to, self.duration);
        self.words.reserve(windows * self.state.as_words().len());
        self.means
            .reserve(windows * self.layout.num_numeric_sensors());
        self.actuator_ends.reserve(windows);
        let lo = events.partition_point(|e| e.at() < from);
        let hi = lo + events[lo..].partition_point(|e| e.at() < to);
        for event in events[..lo].iter().chain(&events[hi..]) {
            self.trainer.observe(event);
        }
        let mut cursor = lo;
        let mut start = from;
        while start < to {
            let end = (start + self.duration).min(to);
            let begin = cursor;
            while cursor < hi && events[cursor].at() < end {
                cursor += 1;
            }
            self.observe_window(&events[begin..cursor]);
            start = end;
        }
    }

    /// Reads one window's events once: thresholds, threshold-free bits,
    /// actuator activations and deferred means.
    fn observe_window(&mut self, events: &[Event]) {
        let ChunkPass {
            layout,
            trainer,
            scratch,
            state,
            window_actuators,
            words,
            means,
            actuators,
            actuator_ends,
            ..
        } = self;
        let base = means.len();
        means.resize(base + layout.num_numeric_sensors(), f64::NAN);
        state.clear();
        window_actuators.clear();
        let numeric = scratch.numeric_for(layout);
        let state_words = state.words_mut();
        for event in events {
            fold_event(
                layout,
                event,
                state_words,
                numeric,
                window_actuators,
                |idx, value| trainer.observe_numeric(idx, value),
            );
        }
        close_window(
            layout,
            numeric,
            state_words,
            window_actuators,
            |slot, _, mean| {
                means[base + slot] = mean;
                false
            },
        );
        words.extend_from_slice(state_words);
        actuators.extend_from_slice(window_actuators);
        actuator_ends.push(actuators.len());
    }

    /// Sets each window's level bits against the merged thresholds, then
    /// assigns chunk-local groups and transitions exactly as
    /// [`ModelBuilder::observe_binarized`](crate::ModelBuilder) records
    /// consecutive windows.
    fn resolve(&self, thresholds: &Thresholds) -> PartialModel {
        // (level bit, cutoff) per numeric slot; a sensor without a
        // threshold gets a NaN cutoff, which no mean exceeds.
        let cutoffs: Vec<(usize, f64)> = self
            .layout
            .numeric_sensors()
            .iter()
            .map(|&sensor| {
                let cutoff = thresholds.value_thre(sensor).map_or(f64::NAN, level_cutoff);
                (self.layout.span(sensor).start + 2, cutoff)
            })
            .collect();
        let mut partial = PartialModel::new(self.layout.num_bits());
        let mut state = BitSet::new(self.layout.num_bits());
        let words_per_window = state.as_words().len();
        let num_numeric = cutoffs.len();
        let mut prev: Option<(GroupId, &[ActuatorId])> = None;
        let mut actuators_from = 0;
        for (window, &actuators_to) in self.actuator_ends.iter().enumerate() {
            state.copy_from_words(&self.words[window * words_per_window..][..words_per_window]);
            let means = &self.means[window * num_numeric..][..num_numeric];
            for (&mean, &(bit, cutoff)) in means.iter().zip(&cutoffs) {
                if mean > cutoff {
                    state.set(bit, true);
                }
            }
            let activated = &self.actuators[actuators_from..actuators_to];
            actuators_from = actuators_to;

            let group = partial.groups.observe(&state);
            if let Some((prev_group, prev_actuators)) = prev {
                partial.transitions.record_g2g(prev_group, group);
                for &a in activated {
                    partial.transitions.record_g2a(prev_group, a);
                }
                for &a in prev_actuators {
                    partial.transitions.record_a2g(a, group);
                }
            }
            if partial.first.is_none() {
                partial.first = Some((group, activated.to_vec()));
            }
            prev = Some((group, activated));
            partial.windows += 1;
        }
        partial.last = prev.map(|(group, activated)| (group, activated.to_vec()));
        partial
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

/// Number of windows of `duration` tiling `[from, to)`, counting a clipped
/// last window.
fn window_count(from: Timestamp, to: Timestamp, duration: TimeDelta) -> usize {
    let span = (to - from).as_secs();
    let step = duration.as_secs();
    (span.div_euclid(step) + i64::from(span.rem_euclid(step) != 0)) as usize
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
/// A drop-in for [`ContextExtractor`](crate::ContextExtractor) that reads
/// the log once, in chunks across worker threads, and merges the partial
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
        let from = first.align_down(duration);
        let count = (last - from).as_secs().div_euclid(duration.as_secs()) + 1;
        let to = Timestamp::from_secs(from.as_secs() + count * duration.as_secs());
        self.run(registry, log.events(), from, to)
    }

    /// Runs the full precomputation over the windows tiling `[from, to)`,
    /// exactly like feeding `log.windows_between(from, to, window)` to a
    /// [`ModelBuilder`](crate::ModelBuilder) whose thresholds were trained
    /// on the whole log. Unlike [`ParallelTrainer::extract`], an empty log
    /// is allowed: every window is observed as the all-quiet state (the
    /// partitioned trainer relies on this so silent partitions still learn
    /// their silent context).
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
        self.run(registry, log.events(), from, to)
    }

    /// Splits the windows tiling `[from, to)` into the configured number
    /// of chunks and trains on them. The first and last chunk also carry
    /// the events outside `[from, to)`, which train the thresholds only.
    fn run(
        &self,
        registry: &DeviceRegistry,
        events: &[Event],
        from: Timestamp,
        to: Timestamp,
    ) -> Result<DiceModel, DiceError> {
        let duration = self.config.window().as_secs();
        let chunks = self
            .chunks
            .unwrap_or_else(rayon::current_num_threads)
            .max(1);
        let ranges = split_ranges(window_count(from, to, self.config.window()), chunks);
        let bound =
            |window: usize| Timestamp::from_secs(from.as_secs() + window as i64 * duration).min(to);
        self.train_chunked(registry, ranges.len(), |k, pass| {
            let (lo, hi) = ranges[k];
            let (start, end) = (bound(lo), bound(hi));
            let first = if k == 0 {
                0
            } else {
                events.partition_point(|e| e.at() < start)
            };
            let last = if k + 1 == ranges.len() {
                events.len()
            } else {
                events.partition_point(|e| e.at() < end)
            };
            pass.observe_tiling(&events[first..last], start, end);
        })
    }

    /// Trains on `chunks` consecutive pieces of the precomputation period
    /// in one pass over their events.
    ///
    /// `fill(k, pass)` runs on the worker pool and feeds chunk `k`'s
    /// events through [`ChunkPass::observe_tiling`]. The chunks' tilings,
    /// in index order, must concatenate into the serial window tiling.
    /// `fill` may produce its events on demand — the evaluation runner
    /// simulates each six-hour chunk inside it — so the whole log need
    /// never exist at once. The model is bit-identical to a serial
    /// [`ModelBuilder`](crate::ModelBuilder) run over the concatenated
    /// tiling with thresholds trained on every event fed.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::NoSensors`] for an empty registry and
    /// [`DiceError::EmptyTrainingData`] if no chunk observed a window.
    pub fn train_chunked<F>(
        &self,
        registry: &DeviceRegistry,
        chunks: usize,
        fill: F,
    ) -> Result<DiceModel, DiceError>
    where
        F: Fn(usize, &mut ChunkPass<'_>) + Sync,
    {
        if registry.num_sensors() == 0 {
            return Err(DiceError::NoSensors);
        }
        let wall_started = Instant::now();
        let layout = BitLayout::for_registry(registry);
        let duration = self.config.window();

        // Read: every chunk's events once, on the worker pool.
        let passes: Vec<(ChunkPass<'_>, u64)> = (0..chunks)
            .into_par_iter()
            .map(|k| {
                let chunk_started = Instant::now();
                let mut pass = ChunkPass::new(registry, &layout, duration);
                fill(k, &mut pass);
                (pass, saturating_ns(chunk_started.elapsed().as_nanos()))
            })
            .collect();

        // Merge thresholds, exactly.
        let mut busy_ns = 0u64;
        let mut trainer = ThresholdTrainer::new(registry);
        for (pass, ns) in &passes {
            trainer.merge(&pass.trainer);
            busy_ns += ns;
        }
        let thresholds = trainer.finish();

        // Resolve level bits, then chunk-local groups and transitions.
        let resolved: Vec<(PartialModel, u64)> = passes
            .into_par_iter()
            .map(|(pass, _)| {
                let chunk_started = Instant::now();
                let partial = pass.resolve(&thresholds);
                drop(pass);
                (partial, saturating_ns(chunk_started.elapsed().as_nanos()))
            })
            .collect();
        let mut partials = Vec::with_capacity(resolved.len());
        for (partial, ns) in resolved {
            busy_ns += ns;
            partials.push(partial);
        }

        let model = merge_partials_inner(
            self.config.clone(),
            Binarizer::new(layout, thresholds),
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
    fn deferred_level_bits_match_the_serial_binarizer_on_awkward_samples() {
        // Non-finite samples, numeric readings on a binary sensor, unknown
        // sensor ids, a numeric sensor that never reports, and a resting
        // sensor whose one raised window lies above its training mean but
        // inside the level epsilon.
        let mut reg = DeviceRegistry::new();
        let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let temp = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let light = reg.add_sensor(SensorKind::Light, "l", Room::Kitchen);
        let _silent = reg.add_sensor(SensorKind::Humidity, "h", Room::Kitchen);
        let resting = reg.add_sensor(SensorKind::Humidity, "r", Room::Kitchen);
        let bulb = reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        let mut log = EventLog::new();
        for minute in 0..30i64 {
            let at = Timestamp::from_mins(minute);
            let temp_value = match minute {
                7 => f64::NAN,
                11 => f64::INFINITY,
                _ => 20.0,
            };
            log.push_sensor(SensorReading::new(temp, at, temp_value.into()));
            let rest_value = if minute == 3 { 20.00001 } else { 20.0 };
            log.push_sensor(SensorReading::new(resting, at, rest_value.into()));
            log.push_sensor(SensorReading::new(
                light,
                at + TimeDelta::from_secs(5),
                (100.0 + (minute % 4) as f64).into(),
            ));
            if minute % 5 == 0 {
                log.push_sensor(SensorReading::new(motion, at, 3.5.into()));
                log.push_sensor(SensorReading::new(
                    dice_types::SensorId::new(9),
                    at,
                    1.0.into(),
                ));
                log.push_actuator(ActuatorEvent::new(bulb, at, minute % 10 == 0));
            }
        }
        // The temperature threshold is NaN, which `PartialEq` never matches, so
        // compare the serialized models.
        let bytes = |model: &DiceModel| {
            let mut out = Vec::new();
            crate::model_io::write_model(model, &mut out).unwrap();
            out
        };
        let serial = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log.clone())
            .unwrap();
        for chunks in [1, 3, 30] {
            let parallel = ParallelTrainer::new(DiceConfig::default())
                .with_chunks(chunks)
                .extract(&reg, &mut log.clone())
                .unwrap();
            assert_eq!(bytes(&parallel), bytes(&serial), "chunks={chunks}");
        }
    }

    #[test]
    fn extract_between_matches_the_serial_builder() {
        let (reg, motion, temp, bulb) = mixed_home();
        let config = DiceConfig::default();
        // Events before `from` and after `to` train the thresholds only.
        let mut log = mixed_log(motion, temp, bulb, 40);
        let from = Timestamp::from_mins(5);
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
        for chunks in [1, 3, 8, 40] {
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
        let num_bits = binarizer.layout().num_bits();
        let partials = vec![PartialModel::new(num_bits), PartialModel::new(num_bits)];
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
