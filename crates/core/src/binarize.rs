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

use dice_types::{
    ActuatorId, DeviceRegistry, Event, SensorClass, SensorId, SensorValue, Timestamp,
};

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
    pub fn value_thre(&self, sensor: SensorId) -> Option<f64> {
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
/// one serial pass, which the one-pass parallel trainer relies on (see
/// [`crate::ParallelTrainer`]).
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
                self.observe_numeric(r.sensor.index(), v);
            }
        }
    }

    /// Observes one numeric reading of the sensor at `index`; unknown
    /// sensors are ignored.
    #[inline]
    pub(crate) fn observe_numeric(&mut self, index: usize, value: f64) {
        if let Some(m) = self.means.get_mut(index) {
            m.push(value);
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
///
/// Holds one [`WindowStats`] per numeric slot of the layout last
/// binarized. Between calls every entry is empty: the close step resets
/// each entry it reads.
#[derive(Debug, Clone, Default)]
pub struct BinarizeScratch {
    numeric: Vec<WindowStats>,
}

impl BinarizeScratch {
    /// The per-slot statistics, sized for `layout`.
    pub(crate) fn numeric_for(&mut self, layout: &BitLayout) -> &mut [WindowStats] {
        self.numeric
            .resize(layout.num_numeric_sensors(), WindowStats::default());
        &mut self.numeric
    }
}

/// One window's binarization, folded event by event as the events arrive:
/// the threshold-free state words, one [`WindowStats`] per numeric sensor
/// and the actuators switched on so far. A fleet home keeps one in place of
/// its open window's events. Its size is fixed by the layout (the state
/// words plus 48 B per numeric sensor) apart from the actuator list, which
/// keeps its capacity across windows.
///
/// Fold each event with [`WindowFold::push`] in arrival order and close
/// the window with [`WindowFold::close_into`], which leaves the fold empty
/// for the next window. The result equals [`Binarizer::binarize_into`]
/// over the same events.
#[derive(Debug, Clone)]
pub struct WindowFold {
    words: Box<[u64]>,
    numeric: Box<[WindowStats]>,
    actuators: Vec<ActuatorId>,
}

impl WindowFold {
    /// An empty fold sized for `binarizer`'s layout.
    pub fn new(binarizer: &Binarizer) -> Self {
        let layout = binarizer.layout();
        WindowFold {
            words: vec![0; layout.num_bits().div_ceil(u64::BITS as usize)].into_boxed_slice(),
            numeric: vec![WindowStats::default(); layout.num_numeric_sensors()].into_boxed_slice(),
            actuators: Vec::new(),
        }
    }

    /// Folds one event into the open window. `binarizer` must be the one
    /// the fold was built for.
    #[inline]
    pub fn push(&mut self, binarizer: &Binarizer, event: &Event) {
        fold_event(
            binarizer.layout(),
            event,
            &mut self.words,
            &mut self.numeric,
            &mut self.actuators,
            |_, _| {},
        );
    }

    /// Closes the open window as `[start, end)` into `out` and resets the
    /// fold for the next window. `binarizer` must be the one the fold was
    /// built for.
    pub fn close_into(
        &mut self,
        binarizer: &Binarizer,
        start: Timestamp,
        end: Timestamp,
        out: &mut WindowObservation,
    ) {
        debug_assert_eq!(
            self.numeric.len(),
            binarizer.layout().num_numeric_sensors(),
            "a fold closes against the layout it was built for"
        );
        out.start = start;
        out.end = end;
        out.state.clear_to(binarizer.layout().num_bits());
        let words = out.state.words_mut();
        words.copy_from_slice(&self.words);
        self.words.fill(0);
        out.activated_actuators.clear();
        out.activated_actuators.append(&mut self.actuators);
        binarizer.close(&mut self.numeric, words, &mut out.activated_actuators);
    }
}

/// Relative margin of the Eq. 3.4 level comparison (see [`level_cutoff`]).
const LEVEL_EPSILON: f64 = 1e-6;

/// The value a window mean must exceed to set the Eq. 3.4 level bit of a
/// sensor whose `valueThre` is `thre`. A relative epsilon keeps the
/// comparison off the knife edge for sensors that rest exactly at their
/// training mean (their empirical mean differs from the resting value only
/// by accumulated measurement noise).
#[inline]
pub(crate) fn level_cutoff(thre: f64) -> f64 {
    thre + thre.abs().max(1.0) * LEVEL_EPSILON
}

/// The per-event half of the binarization kernel shared by
/// [`Binarizer::binarize_into`], [`WindowFold`] and the one-pass trainer
/// ([`crate::ParallelTrainer`]).
///
/// An active binary reading sets its sensor's first bit in `words`
/// (Eq. 3.1), an actuator `on` is appended to `actuators`, and a numeric
/// reading of a known sensor is handed to `sample` and, if the sensor is
/// numeric, pushed into its slot of `numeric` in arrival order. Readings
/// of unknown sensors are ignored.
#[inline]
pub(crate) fn fold_event(
    layout: &BitLayout,
    event: &Event,
    words: &mut [u64],
    numeric: &mut [WindowStats],
    actuators: &mut Vec<ActuatorId>,
    sample: impl FnOnce(usize, f64),
) {
    match event {
        Event::Sensor(r) => {
            let idx = r.sensor.index();
            if idx >= layout.num_sensors() {
                return; // unknown sensor: not part of the context
            }
            match r.value {
                SensorValue::Binary(active) => {
                    if active {
                        // Bit-wise OR over the window (Eq. 3.1).
                        set_bit(words, layout.span(r.sensor).start);
                    }
                }
                SensorValue::Numeric(v) => {
                    // A numeric reading from a binary-declared sensor has
                    // no slot and sets no bit.
                    if let Some(stats) = numeric.get_mut(layout.slot_index(idx)) {
                        stats.push(v);
                    }
                    sample(idx, v);
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

/// The close half of the binarization kernel: each numeric slot with
/// samples gets its skewness (Eq. 3.2) and trend (Eq. 3.3) bits, and its
/// window mean is handed to `level` with the slot and sensor, which says
/// whether to set the level bit (Eq. 3.4). Every slot is left empty for
/// the next window. The actuators are sorted and deduplicated.
#[inline]
pub(crate) fn close_window(
    layout: &BitLayout,
    numeric: &mut [WindowStats],
    words: &mut [u64],
    actuators: &mut Vec<ActuatorId>,
    mut level: impl FnMut(usize, SensorId, f64) -> bool,
) {
    for (slot, (stats, &sensor)) in numeric.iter_mut().zip(layout.numeric_sensors()).enumerate() {
        if stats.is_empty() {
            continue;
        }
        let stats = std::mem::take(stats);
        let start = layout.span(sensor).start;
        // Eq. 3.2: skewness exceeds zero.
        if stats.skewness_positive() {
            set_bit(words, start);
        }
        // Eq. 3.3: increasing trend over the window.
        if stats.trend().is_some_and(|t| t > 0.0) {
            set_bit(words, start + 1);
        }
        // Eq. 3.4: mean exceeds valueThre.
        if stats.mean().is_some_and(|mean| level(slot, sensor, mean)) {
            set_bit(words, start + 2);
        }
    }
    actuators.sort_unstable();
    actuators.dedup();
}

/// Sets bit `bit` of a state set's backing words.
#[inline]
fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / u64::BITS as usize] |= 1 << (bit % u64::BITS as usize);
}

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
        let numeric = scratch.numeric_for(&self.layout);
        let words = out.state.words_mut();
        for event in events {
            fold_event(
                &self.layout,
                event,
                words,
                numeric,
                &mut out.activated_actuators,
                |_, _| {},
            );
        }
        self.close(numeric, words, &mut out.activated_actuators);
    }

    /// The close step against the trained thresholds.
    #[inline]
    fn close(
        &self,
        numeric: &mut [WindowStats],
        words: &mut [u64],
        actuators: &mut Vec<ActuatorId>,
    ) {
        close_window(
            &self.layout,
            numeric,
            words,
            actuators,
            |_, sensor, mean| {
                self.thresholds
                    .value_thre(sensor)
                    .is_some_and(|thre| mean > level_cutoff(thre))
            },
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

    /// The binarizer as it was before [`WindowStats`] went flat: one
    /// `Option<Stats>` per sensor, `first`/`last` as options, the level
    /// comparison inline. Kept here as the reference the flat kernel must
    /// match bit for bit.
    mod option_reference {
        use super::*;

        #[derive(Default)]
        struct Stats {
            n: u64,
            mean: f64,
            m2: f64,
            m3: f64,
            first: Option<f64>,
            last: Option<f64>,
        }

        impl Stats {
            fn push(&mut self, value: f64) {
                let n0 = self.n as f64;
                self.n += 1;
                let n = self.n as f64;
                let delta = value - self.mean;
                let delta_n = delta / n;
                let term1 = delta * delta_n * n0;
                self.mean += delta_n;
                self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
                self.m2 += term1;
                if self.first.is_none() {
                    self.first = Some(value);
                }
                self.last = Some(value);
            }

            fn skewness(&self) -> Option<f64> {
                if self.n < 2 {
                    return None;
                }
                let n = self.n as f64;
                let variance = self.m2 / n;
                if variance <= f64::EPSILON * self.mean.abs().max(1.0) {
                    return None;
                }
                Some((self.m3 / n) / variance.powf(1.5))
            }

            fn trend(&self) -> Option<f64> {
                match (self.first, self.last) {
                    (Some(f), Some(l)) => Some(l - f),
                    _ => None,
                }
            }
        }

        pub(super) fn binarize(b: &Binarizer, events: &[Event]) -> (BitSet, Vec<ActuatorId>) {
            let layout = b.layout();
            let mut state = BitSet::new(layout.num_bits());
            let mut actuators = Vec::new();
            let mut numeric: Vec<Option<Stats>> = Vec::new();
            numeric.resize_with(layout.num_sensors(), || None);
            for event in events {
                match event {
                    Event::Sensor(r) => {
                        let idx = r.sensor.index();
                        if idx >= layout.num_sensors() {
                            continue;
                        }
                        match r.value {
                            SensorValue::Binary(active) => {
                                if active {
                                    state.set(layout.span(r.sensor).start, true);
                                }
                            }
                            SensorValue::Numeric(v) => {
                                numeric[idx].get_or_insert_with(Stats::default).push(v);
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
                let sensor = SensorId::new(idx as u32);
                let span = layout.span(sensor);
                if span.width != 3 {
                    continue;
                }
                if stats.skewness().is_some_and(|s| s > 0.0) {
                    state.set(span.start, true);
                }
                if stats.trend().is_some_and(|t| t > 0.0) {
                    state.set(span.start + 1, true);
                }
                let mean = (stats.n > 0).then_some(stats.mean);
                if let (Some(mean), Some(thre)) = (mean, b.thresholds().value_thre(sensor)) {
                    if mean > thre + thre.abs().max(1.0) * LEVEL_EPSILON {
                        state.set(span.start + 2, true);
                    }
                }
            }
            actuators.sort_unstable();
            actuators.dedup();
            (state, actuators)
        }
    }

    /// Sensors 0-2 numeric, 3-4 binary; ids 5 and 6 are unknown.
    fn kernel_home() -> (DeviceRegistry, Vec<SensorId>, Vec<ActuatorId>) {
        let mut reg = DeviceRegistry::new();
        let sensors = vec![
            reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen),
            reg.add_sensor(SensorKind::Light, "l", Room::Kitchen),
            reg.add_sensor(SensorKind::Humidity, "h", Room::Kitchen),
            reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen),
            reg.add_sensor(SensorKind::Contact, "c", Room::Kitchen),
        ];
        let actuators = vec![
            reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen),
            reg.add_actuator(ActuatorKind::SmartBulb, "lamp", Room::Kitchen),
        ];
        (reg, sensors, actuators)
    }

    /// One random event: `kind` picks numeric (0-5), binary (6-7) or
    /// actuator (8-9); `pick` picks a special value (±inf, NaN, a shared
    /// constant) or `value`.
    fn kernel_event(
        (kind, sensor, pick, value): (u8, u32, u8, f64),
        constant: Option<f64>,
        actuators: &[ActuatorId],
        second: i64,
    ) -> Event {
        let at = Timestamp::from_secs(second);
        match kind {
            0..=5 => {
                let v = constant.unwrap_or(match pick {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    2 => f64::NAN,
                    3 => 7.5,
                    _ => value,
                });
                SensorReading::new(SensorId::new(sensor), at, v.into()).into()
            }
            6 | 7 => SensorReading::new(SensorId::new(sensor), at, (pick % 2 == 0).into()).into(),
            _ => ActuatorEvent::new(actuators[sensor as usize % 2], at, pick % 2 == 0).into(),
        }
    }

    proptest::proptest! {
        /// The flat-stats kernel binarizes every window exactly as the
        /// `Option<WindowStats>` binarizer did, over single-sample and
        /// constant windows, non-finite samples, numeric readings on
        /// binary sensors, unknown sensor ids and actuator on/off events,
        /// with one scratch reused across the windows of a case.
        #[test]
        fn flat_kernel_matches_the_option_stats_binarizer(
            training in proptest::collection::vec((0u32..4, -40.0f64..40.0, 0u8..12), 0..12),
            windows in proptest::collection::vec(
                (
                    0u8..4,
                    -30.0f64..30.0,
                    proptest::collection::vec((0u8..10, 0u32..7, 0u8..10, -50.0f64..50.0), 0..30),
                ),
                1..6,
            ),
        ) {
            let (reg, _, actuators) = kernel_home();
            let mut trainer = ThresholdTrainer::new(&reg);
            for &(sensor, value, pick) in &training {
                let v = if pick == 0 { f64::INFINITY } else { value };
                let at = Timestamp::ZERO;
                trainer.observe(&SensorReading::new(SensorId::new(sensor), at, v.into()).into());
            }
            let b = Binarizer::new(BitLayout::for_registry(&reg), trainer.finish());
            let mut scratch = BinarizeScratch::default();
            let mut out = WindowObservation::default();
            for (mode, constant, raw) in &windows {
                // Mode 0: every numeric sample is one constant. Mode 1:
                // only the first event. Otherwise the events as drawn.
                let constant = (*mode == 0).then_some(*constant);
                let raw = if *mode == 1 { &raw[..raw.len().min(1)] } else { &raw[..] };
                let events: Vec<Event> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| kernel_event(e, constant, &actuators, i as i64))
                    .collect();
                let end = Timestamp::from_mins(1);
                b.binarize_into(Timestamp::ZERO, end, &events, &mut scratch, &mut out);
                let (state, activated) = option_reference::binarize(&b, &events);
                proptest::prop_assert_eq!(&out.state, &state);
                proptest::prop_assert_eq!(&out.activated_actuators, &activated);
            }
        }
    }

    proptest::proptest! {
        /// Folding a window one event at a time into one reused
        /// [`WindowFold`] and closing it gives exactly what
        /// `binarize_into` gives over the same slice, and both equal the
        /// `Option<WindowStats>` binarizer. The windows mix single-sample
        /// and constant windows, non-finite samples, numeric readings on
        /// binary sensors, binary readings on numeric sensors, unknown
        /// sensor and actuator ids, and repeated actuator ons and offs.
        #[test]
        fn folding_event_by_event_equals_the_batch_kernel(
            training in proptest::collection::vec((0u32..4, -40.0f64..40.0, 0u8..12), 0..12),
            windows in proptest::collection::vec(
                (
                    0u8..4,
                    -30.0f64..30.0,
                    proptest::collection::vec((0u8..12, 0u32..7, 0u8..10, -50.0f64..50.0), 0..30),
                ),
                1..8,
            ),
        ) {
            let (reg, _, actuators) = kernel_home();
            let mut trainer = ThresholdTrainer::new(&reg);
            for &(sensor, value, pick) in &training {
                let v = if pick == 0 { f64::NAN } else { value };
                let at = Timestamp::ZERO;
                trainer.observe(&SensorReading::new(SensorId::new(sensor), at, v.into()).into());
            }
            let b = Binarizer::new(BitLayout::for_registry(&reg), trainer.finish());
            let mut fold = WindowFold::new(&b);
            let mut scratch = BinarizeScratch::default();
            let (mut folded, mut batch) = (WindowObservation::default(), WindowObservation::default());
            for (i, (mode, constant, raw)) in windows.iter().enumerate() {
                // Mode 0: every numeric sample is one constant. Mode 1:
                // only the first event. Otherwise the events as drawn.
                let constant = (*mode == 0).then_some(*constant);
                let raw = if *mode == 1 { &raw[..raw.len().min(1)] } else { &raw[..] };
                let events: Vec<Event> = raw
                    .iter()
                    .enumerate()
                    .map(|(second, &e)| {
                        let (kind, id, pick, _) = e;
                        if kind >= 10 {
                            // Actuator ids 0 and 1 are registered, 2-6 are not.
                            let at = Timestamp::from_secs(second as i64);
                            ActuatorEvent::new(ActuatorId::new(id), at, pick % 2 == 0).into()
                        } else {
                            kernel_event(e, constant, &actuators, second as i64)
                        }
                    })
                    .collect();
                let (start, end) = (Timestamp::from_mins(i as i64), Timestamp::from_mins(i as i64 + 1));
                for event in &events {
                    fold.push(&b, event);
                }
                fold.close_into(&b, start, end, &mut folded);
                b.binarize_into(start, end, &events, &mut scratch, &mut batch);
                proptest::prop_assert_eq!(&folded, &batch);
                let (state, activated) = option_reference::binarize(&b, &events);
                proptest::prop_assert_eq!(&folded.state, &state);
                proptest::prop_assert_eq!(&folded.activated_actuators, &activated);
            }
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
