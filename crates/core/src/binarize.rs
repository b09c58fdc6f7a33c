//! Conversion of raw window events into sensor state sets.
//!
//! This implements the construction of Figure 3.3a: every window of duration
//! `d` becomes one bit vector. Binary sensors contribute a single OR-ed
//! activation bit (Eq. 3.1). Numeric sensors contribute three bits computed
//! from the window's samples: skewness > 0 (Eq. 3.2), increasing trend
//! (Eq. 3.3), and mean above the sensor's `valueThre` (Eq. 3.4). `valueThre`
//! is the sensor's mean over the precomputation data, learned by
//! [`ThresholdTrainer`].

use serde::{Deserialize, Serialize};

use dice_types::{ActuatorId, DeviceRegistry, Event, SensorClass, SensorValue, Timestamp};

use crate::bitset::BitSet;
use crate::layout::BitLayout;
use crate::stats::{MeanAccumulator, WindowStats};

/// Per-sensor `valueThre` thresholds (Eq. 3.4), learned from fault-free data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    value_thre: Vec<Option<f64>>,
}

impl Thresholds {
    /// Rebuilds thresholds from per-sensor values, e.g. when loading a
    /// persisted model.
    pub fn from_values(value_thre: Vec<Option<f64>>) -> Self {
        Thresholds { value_thre }
    }

    /// The per-sensor threshold values in sensor-id order.
    pub fn values(&self) -> &[Option<f64>] {
        &self.value_thre
    }

    /// The threshold for `sensor`, if it is a numeric sensor that produced
    /// at least one training sample.
    pub fn value_thre(&self, sensor: dice_types::SensorId) -> Option<f64> {
        self.value_thre.get(sensor.index()).copied().flatten()
    }

    /// Stable fingerprint of the trained threshold table: sensor count,
    /// per-sensor presence, and exact `valueThre` bit patterns.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.push_u64(self.value_thre.len() as u64);
        for &value in &self.value_thre {
            fp.push_opt_f64(value);
        }
        fp.finish()
    }

    /// Number of sensors covered.
    pub fn len(&self) -> usize {
        self.value_thre.len()
    }

    /// Whether no sensors are covered.
    pub fn is_empty(&self) -> bool {
        self.value_thre.is_empty()
    }
}

/// Streaming trainer for [`Thresholds`].
///
/// Feed it every sensor reading of the precomputation period, then call
/// [`ThresholdTrainer::finish`]. Internally each sensor's mean is an exact
/// [`MeanAccumulator`], so trainers over disjoint chunks of the period can
/// be [`ThresholdTrainer::merge`]d into bit-for-bit the same thresholds as
/// one serial pass — the pass-one half of the parallel trainer
/// (see [`crate::ParallelTrainer`]).
#[derive(Debug, Clone)]
pub struct ThresholdTrainer {
    means: Vec<MeanAccumulator>,
    numeric: Vec<bool>,
}

impl ThresholdTrainer {
    /// Creates a trainer sized for `registry`.
    pub fn new(registry: &DeviceRegistry) -> Self {
        ThresholdTrainer {
            means: vec![MeanAccumulator::new(); registry.num_sensors()],
            numeric: registry
                .sensors()
                .map(|s| s.class() == SensorClass::Numeric)
                .collect(),
        }
    }

    /// Observes one event. Non-numeric readings and actuator events are
    /// ignored.
    pub fn observe(&mut self, event: &Event) {
        if let Event::Sensor(r) = event {
            if let SensorValue::Numeric(v) = r.value {
                if let Some(m) = self.means.get_mut(r.sensor.index()) {
                    m.push(v);
                }
            }
        }
    }

    /// Folds another trainer's samples into this one. Exact: merging
    /// per-chunk trainers in any order reproduces the serial pass bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the trainers were built for different registries.
    pub fn merge(&mut self, other: &ThresholdTrainer) {
        assert_eq!(
            self.means.len(),
            other.means.len(),
            "merged trainers must cover the same sensors"
        );
        for (a, b) in self.means.iter_mut().zip(&other.means) {
            a.merge(b);
        }
    }

    /// Finalizes the thresholds.
    pub fn finish(self) -> Thresholds {
        let value_thre = self
            .means
            .into_iter()
            .zip(self.numeric)
            .map(|(m, is_numeric)| if is_numeric { m.mean() } else { None })
            .collect();
        Thresholds { value_thre }
    }
}

/// The binarized content of one window: the sensor state set plus the
/// actuators that switched on during the window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Window start time.
    pub start: Timestamp,
    /// Window end time (exclusive).
    pub end: Timestamp,
    /// The sensor state set.
    pub state: BitSet,
    /// Actuators with an `on` event inside the window, deduplicated,
    /// ascending by id.
    pub activated_actuators: Vec<ActuatorId>,
}

impl Default for WindowObservation {
    fn default() -> Self {
        WindowObservation {
            start: Timestamp::ZERO,
            end: Timestamp::ZERO,
            state: BitSet::new(0),
            activated_actuators: Vec::new(),
        }
    }
}

/// Reusable scratch for allocation-free binarization; see
/// [`Binarizer::binarize_into`].
#[derive(Debug, Clone, Default)]
pub struct BinarizeScratch {
    numeric: Vec<Option<WindowStats>>,
}

/// Relative margin of the Eq. 3.4 level comparison (see
/// [`Binarizer::binarize`]).
const LEVEL_EPSILON: f64 = 1e-6;

/// Converts raw window events into [`WindowObservation`]s.
///
/// # Example
///
/// ```
/// use dice_core::{Binarizer, BitLayout, ThresholdTrainer};
/// use dice_types::{
///     DeviceRegistry, Event, Room, SensorKind, SensorReading, Timestamp,
/// };
///
/// let mut reg = DeviceRegistry::new();
/// let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
/// let trainer = ThresholdTrainer::new(&reg);
/// let binarizer = Binarizer::new(BitLayout::for_registry(&reg), trainer.finish());
///
/// let events = [Event::from(SensorReading::new(
///     motion,
///     Timestamp::from_secs(5),
///     true.into(),
/// ))];
/// let obs = binarizer.binarize(Timestamp::ZERO, Timestamp::from_mins(1), &events);
/// assert!(obs.state.get(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Binarizer {
    layout: BitLayout,
    thresholds: Thresholds,
}

impl Binarizer {
    /// Creates a binarizer from a layout and trained thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds cover a different number of sensors than the
    /// layout.
    pub fn new(layout: BitLayout, thresholds: Thresholds) -> Self {
        assert_eq!(
            layout.num_sensors(),
            thresholds.len(),
            "thresholds must cover exactly the layout's sensors"
        );
        Binarizer { layout, thresholds }
    }

    /// The bit layout in use.
    pub fn layout(&self) -> &BitLayout {
        &self.layout
    }

    /// The trained thresholds.
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// Binarizes the events of one window into a state set.
    ///
    /// Missing data naturally maps to zero bits: a silent binary sensor
    /// contributes 0, and a numeric sensor with no samples in the window
    /// contributes three 0 bits (this is what lets the correlation check see
    /// fail-stop faults).
    pub fn binarize(
        &self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
    ) -> WindowObservation {
        let mut scratch = BinarizeScratch::default();
        let mut out = WindowObservation::default();
        self.binarize_into(start, end, events, &mut scratch, &mut out);
        out
    }

    /// Like [`Binarizer::binarize`], but reuses caller-owned buffers: after
    /// the first call with the same `scratch`/`out`, a window binarizes with
    /// zero allocations (the engine's steady-state hot path).
    pub fn binarize_into(
        &self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
        scratch: &mut BinarizeScratch,
        out: &mut WindowObservation,
    ) {
        out.start = start;
        out.end = end;
        out.state.clear_to(self.layout.num_bits());
        out.activated_actuators.clear();

        let state = &mut out.state;
        let actuators = &mut out.activated_actuators;
        let numeric = &mut scratch.numeric;
        if numeric.len() == self.layout.num_sensors() {
            numeric.fill(None);
        } else {
            numeric.clear();
            numeric.resize(self.layout.num_sensors(), None);
        }

        for event in events {
            match event {
                Event::Sensor(r) => {
                    let idx = r.sensor.index();
                    if idx >= self.layout.num_sensors() {
                        continue; // unknown sensor: not part of the context
                    }
                    match r.value {
                        SensorValue::Binary(active) => {
                            if active {
                                // Bit-wise OR over the window (Eq. 3.1).
                                state.set(self.layout.span(r.sensor).start, true);
                            }
                        }
                        SensorValue::Numeric(v) => {
                            numeric[idx].get_or_insert_with(WindowStats::new).push(v);
                        }
                    }
                }
                Event::Actuator(a) => {
                    if a.active {
                        actuators.push(a.actuator);
                    }
                }
            }
        }

        for (idx, stats) in numeric.iter().enumerate() {
            let Some(stats) = stats else { continue };
            let sensor = dice_types::SensorId::new(idx as u32);
            let span = self.layout.span(sensor);
            if span.width != 3 {
                continue; // numeric reading from a binary-declared sensor: ignore
            }
            // Eq. 3.2: skewness exceeds zero.
            if stats.skewness().is_some_and(|s| s > 0.0) {
                state.set(span.start, true);
            }
            // Eq. 3.3: increasing trend over the window.
            if stats.trend().is_some_and(|t| t > 0.0) {
                state.set(span.start + 1, true);
            }
            // Eq. 3.4: mean exceeds valueThre. A relative epsilon keeps the
            // comparison off the knife edge for sensors that rest exactly at
            // their training mean (their empirical mean differs from the
            // resting value only by accumulated measurement noise).
            if let (Some(mean), Some(thre)) = (stats.mean(), self.thresholds.value_thre(sensor)) {
                if mean > thre + thre.abs().max(1.0) * LEVEL_EPSILON {
                    state.set(span.start + 2, true);
                }
            }
        }

        actuators.sort_unstable();
        actuators.dedup();
        debug_assert_eq!(
            state.len(),
            self.layout.num_bits(),
            "binarized state set must span exactly the layout's bits"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::{ActuatorEvent, ActuatorKind, Room, SensorId, SensorKind, SensorReading};

    fn setup() -> (DeviceRegistry, SensorId, SensorId, ActuatorId) {
        let mut reg = DeviceRegistry::new();
        let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let temp = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let bulb = reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        (reg, motion, temp, bulb)
    }

    fn trained_binarizer(reg: &DeviceRegistry, temp: SensorId, thre_samples: &[f64]) -> Binarizer {
        let mut trainer = ThresholdTrainer::new(reg);
        for (i, &v) in thre_samples.iter().enumerate() {
            trainer.observe(&Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(i as i64),
                v.into(),
            )));
        }
        Binarizer::new(BitLayout::for_registry(reg), trainer.finish())
    }

    fn win(events: &[Event], binarizer: &Binarizer) -> WindowObservation {
        binarizer.binarize(Timestamp::ZERO, Timestamp::from_mins(1), events)
    }

    #[test]
    fn binary_sensor_ors_over_window() {
        let (reg, motion, temp, _) = setup();
        let b = trained_binarizer(&reg, temp, &[20.0]);
        let events = [
            Event::from(SensorReading::new(
                motion,
                Timestamp::from_secs(1),
                false.into(),
            )),
            Event::from(SensorReading::new(
                motion,
                Timestamp::from_secs(2),
                true.into(),
            )),
            Event::from(SensorReading::new(
                motion,
                Timestamp::from_secs(3),
                false.into(),
            )),
        ];
        assert!(win(&events, &b).state.get(0));
        // Only `false` readings: bit stays clear.
        let quiet = [Event::from(SensorReading::new(
            motion,
            Timestamp::from_secs(1),
            false.into(),
        ))];
        assert!(!win(&quiet, &b).state.get(0));
    }

    #[test]
    fn numeric_level_bit_uses_trained_threshold() {
        let (reg, _, temp, _) = setup();
        // valueThre = mean(18, 22) = 20.
        let b = trained_binarizer(&reg, temp, &[18.0, 22.0]);
        let hot = [
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(0),
                25.0.into(),
            )),
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(30),
                25.0.into(),
            )),
        ];
        assert!(win(&hot, &b).state.get(3), "level bit set when mean > thre");
        let cold = [
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(0),
                15.0.into(),
            )),
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(30),
                15.0.into(),
            )),
        ];
        assert!(!win(&cold, &b).state.get(3));
    }

    #[test]
    fn numeric_trend_bit_compares_first_and_last() {
        let (reg, _, temp, _) = setup();
        let b = trained_binarizer(&reg, temp, &[20.0]);
        let rising = [
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(0),
                10.0.into(),
            )),
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(30),
                12.0.into(),
            )),
        ];
        assert!(win(&rising, &b).state.get(2));
        let falling = [
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(0),
                12.0.into(),
            )),
            Event::from(SensorReading::new(
                temp,
                Timestamp::from_secs(30),
                10.0.into(),
            )),
        ];
        assert!(!win(&falling, &b).state.get(2));
    }

    #[test]
    fn numeric_skew_bit_detects_positive_skew() {
        let (reg, _, temp, _) = setup();
        let b = trained_binarizer(&reg, temp, &[100.0]);
        let skewed: Vec<Event> = [10.0, 10.0, 10.0, 10.0, 50.0, 10.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                Event::from(SensorReading::new(
                    temp,
                    Timestamp::from_secs(i as i64),
                    v.into(),
                ))
            })
            .collect();
        assert!(win(&skewed, &b).state.get(1));
    }

    #[test]
    fn missing_numeric_data_yields_zero_bits() {
        let (reg, motion, temp, _) = setup();
        let b = trained_binarizer(&reg, temp, &[20.0]);
        let only_motion = [Event::from(SensorReading::new(
            motion,
            Timestamp::from_secs(1),
            true.into(),
        ))];
        let obs = win(&only_motion, &b);
        assert!(!obs.state.get(1) && !obs.state.get(2) && !obs.state.get(3));
    }

    #[test]
    fn actuator_on_events_are_collected_and_deduped() {
        let (reg, _, temp, bulb) = setup();
        let b = trained_binarizer(&reg, temp, &[20.0]);
        let events = [
            Event::from(ActuatorEvent::new(bulb, Timestamp::from_secs(1), true)),
            Event::from(ActuatorEvent::new(bulb, Timestamp::from_secs(2), false)),
            Event::from(ActuatorEvent::new(bulb, Timestamp::from_secs(3), true)),
        ];
        let obs = win(&events, &b);
        assert_eq!(obs.activated_actuators, vec![bulb]);
        // Off-only events do not count as activation.
        let off = [Event::from(ActuatorEvent::new(
            bulb,
            Timestamp::from_secs(1),
            false,
        ))];
        assert!(win(&off, &b).activated_actuators.is_empty());
    }

    #[test]
    fn unknown_sensor_ids_are_ignored() {
        let (reg, _, temp, _) = setup();
        let b = trained_binarizer(&reg, temp, &[20.0]);
        let events = [Event::from(SensorReading::new(
            SensorId::new(99),
            Timestamp::from_secs(1),
            true.into(),
        ))];
        let obs = win(&events, &b);
        assert_eq!(obs.state.count_ones(), 0);
    }

    #[test]
    fn threshold_trainer_skips_binary_and_actuator_events() {
        let (reg, motion, temp, bulb) = setup();
        let mut trainer = ThresholdTrainer::new(&reg);
        trainer.observe(&Event::from(SensorReading::new(
            motion,
            Timestamp::ZERO,
            true.into(),
        )));
        trainer.observe(&Event::from(ActuatorEvent::new(
            bulb,
            Timestamp::ZERO,
            true,
        )));
        trainer.observe(&Event::from(SensorReading::new(
            temp,
            Timestamp::ZERO,
            21.0.into(),
        )));
        let thresholds = trainer.finish();
        assert_eq!(thresholds.value_thre(motion), None);
        assert_eq!(thresholds.value_thre(temp), Some(21.0));
    }

    #[test]
    fn binarize_into_matches_binarize_and_reuses_buffers() {
        let (reg, motion, temp, bulb) = setup();
        let b = trained_binarizer(&reg, temp, &[18.0, 22.0]);
        let windows: Vec<Vec<Event>> = vec![
            vec![
                SensorReading::new(motion, Timestamp::from_secs(1), true.into()).into(),
                SensorReading::new(temp, Timestamp::from_secs(2), 25.0.into()).into(),
            ],
            vec![ActuatorEvent::new(bulb, Timestamp::from_secs(3), true).into()],
            vec![],
        ];
        let mut scratch = BinarizeScratch::default();
        let mut out = WindowObservation::default();
        for events in &windows {
            let expected = b.binarize(Timestamp::ZERO, Timestamp::from_mins(1), events);
            b.binarize_into(
                Timestamp::ZERO,
                Timestamp::from_mins(1),
                events,
                &mut scratch,
                &mut out,
            );
            assert_eq!(out, expected);
        }
    }

    #[test]
    #[should_panic(expected = "thresholds must cover")]
    fn binarizer_rejects_mismatched_thresholds() {
        let (reg, ..) = setup();
        let layout = BitLayout::for_registry(&reg);
        let other = DeviceRegistry::new();
        let empty = ThresholdTrainer::new(&other).finish();
        let _ = Binarizer::new(layout, empty);
    }
}
