//! Context extraction: the precomputation phase.
//!
//! [`ContextExtractor`] runs the full two-pass precomputation over an
//! [`EventLog`]: pass one trains the numeric `valueThre` thresholds, pass two
//! windows the log, builds the group table (correlation extraction,
//! Section 3.2.1) and the G2G/G2A/A2G matrices (transition extraction,
//! Section 3.2.2).
//!
//! [`ModelBuilder`] is the streaming half: callers that generate windows on
//! the fly (large simulated datasets) feed windows directly instead of
//! materializing one huge log.

use dice_types::{DeviceRegistry, Event, EventLog, GroupId, Timestamp};

use crate::binarize::{Binarizer, ThresholdTrainer, WindowObservation};
use crate::config::DiceConfig;
use crate::error::DiceError;
use crate::groups::GroupTable;
use crate::layout::BitLayout;
use crate::model::DiceModel;
use crate::scan::ScanIndex;
use crate::transition::TransitionModel;

/// Streaming builder for a [`DiceModel`].
///
/// Feed every precomputation window in time order via
/// [`ModelBuilder::observe_window`], then call [`ModelBuilder::finish`].
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    config: DiceConfig,
    binarizer: Binarizer,
    groups: GroupTable,
    transitions: TransitionModel,
    num_actuators: usize,
    prev: Option<(GroupId, Vec<dice_types::ActuatorId>)>,
    windows: u64,
    /// For a resumed build: the source model's scan index and window count,
    /// so `finish` can skip the index rebuild when nothing was observed.
    resumed: Option<(ScanIndex, u64)>,
}

impl ModelBuilder {
    /// Creates a builder from a config, a registry, and trained thresholds.
    pub fn new(
        config: DiceConfig,
        registry: &DeviceRegistry,
        thresholds: crate::binarize::Thresholds,
    ) -> Result<Self, DiceError> {
        if registry.num_sensors() == 0 {
            return Err(DiceError::NoSensors);
        }
        let layout = BitLayout::for_registry(registry);
        let num_bits = layout.num_bits();
        Ok(ModelBuilder {
            config,
            binarizer: Binarizer::new(layout, thresholds),
            groups: GroupTable::new(num_bits),
            transitions: TransitionModel::new(),
            num_actuators: registry.num_actuators(),
            prev: None,
            windows: 0,
            resumed: None,
        })
    }

    /// The binarizer (usable to pre-binarize windows identically).
    pub fn binarizer(&self) -> &Binarizer {
        &self.binarizer
    }

    /// Observes one window of raw events (must be fed in time order).
    pub fn observe_window(&mut self, start: Timestamp, end: Timestamp, events: &[Event]) {
        let obs = self.binarizer.binarize(start, end, events);
        self.observe_binarized(&obs);
    }

    /// Observes one pre-binarized window.
    pub fn observe_binarized(&mut self, obs: &WindowObservation) {
        let group = self.groups.observe(&obs.state);
        if let Some((prev_group, prev_actuators)) = &self.prev {
            // G2G: consecutive window groups.
            self.transitions.record_g2g(*prev_group, group);
            // G2A: previous group followed by this window's activations.
            for &a in &obs.activated_actuators {
                self.transitions.record_g2a(*prev_group, a);
            }
            // A2G: previous window's activations followed by this group.
            for &a in prev_actuators {
                self.transitions.record_a2g(a, group);
            }
        }
        self.prev = Some((group, obs.activated_actuators.clone()));
        self.windows += 1;
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::EmptyTrainingData`] if no window was observed.
    pub fn finish(self) -> Result<DiceModel, DiceError> {
        if self.windows == 0 {
            return Err(DiceError::EmptyTrainingData);
        }
        // A resumed build that observed no new windows left the group table
        // untouched, so the source model's scan index is still exact — reuse
        // it instead of rebuilding.
        if let Some((scan, baseline)) = self.resumed {
            if baseline == self.windows {
                return Ok(DiceModel::from_parts_with_scan(
                    self.config,
                    self.binarizer,
                    self.groups,
                    self.transitions,
                    self.num_actuators,
                    self.windows,
                    scan,
                ));
            }
        }
        Ok(DiceModel::from_parts(
            self.config,
            self.binarizer,
            self.groups,
            self.transitions,
            self.num_actuators,
            self.windows,
        ))
    }
}

impl ModelBuilder {
    /// Resumes training from an existing model: the returned builder starts
    /// with the model's groups, transitions, and thresholds, so additional
    /// fault-free data extends the context instead of replacing it.
    ///
    /// The paper's parameter study shows precision rising with the
    /// precomputation period; resumption lets a deployed gateway keep
    /// absorbing vetted data after the initial 300 hours (the numeric
    /// `valueThre` thresholds stay frozen — changing them would reinterpret
    /// the existing groups' level bits).
    pub fn resume(model: DiceModel) -> Self {
        let num_actuators = model.num_actuators();
        let windows = model.training_windows();
        let (config, binarizer, groups, transitions, scan) = model.into_parts();
        ModelBuilder {
            config,
            binarizer,
            groups,
            transitions,
            num_actuators,
            prev: None,
            windows,
            resumed: Some((scan, windows)),
        }
    }
}

/// Convenience two-pass extractor over a materialized [`EventLog`].
///
/// # Example
///
/// ```
/// use dice_core::{ContextExtractor, DiceConfig};
/// use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};
///
/// # fn main() -> Result<(), dice_core::DiceError> {
/// let mut reg = DeviceRegistry::new();
/// let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
/// let mut log = EventLog::new();
/// for minute in 0..10 {
///     log.push_sensor(SensorReading::new(
///         motion,
///         Timestamp::from_mins(minute),
///         (minute % 2 == 0).into(),
///     ));
/// }
/// let model = ContextExtractor::new(DiceConfig::default()).extract(&reg, &mut log)?;
/// assert_eq!(model.groups().len(), 2); // motion-on and motion-off states
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextExtractor {
    config: DiceConfig,
}

impl ContextExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: DiceConfig) -> Self {
        ContextExtractor { config }
    }

    /// Runs the full precomputation phase over `log`.
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
        if log.is_empty() {
            return Err(DiceError::EmptyTrainingData);
        }

        // Pass 1: numeric thresholds (valueThre = training mean, Eq. 3.4).
        let mut trainer = ThresholdTrainer::new(registry);
        for event in log.events() {
            trainer.observe(event);
        }

        // Pass 2: groups and transitions.
        let mut builder = ModelBuilder::new(self.config.clone(), registry, trainer.finish())?;
        for window in log.windows(self.config.window()) {
            builder.observe_window(window.start, window.end, window.events);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::{ActuatorEvent, ActuatorKind, Room, SensorKind, SensorReading};

    fn reg_with_motion_and_bulb() -> (DeviceRegistry, dice_types::SensorId, dice_types::ActuatorId)
    {
        let mut reg = DeviceRegistry::new();
        let m = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let b = reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        (reg, m, b)
    }

    #[test]
    fn extract_builds_groups_and_transitions() {
        let (reg, m, b) = reg_with_motion_and_bulb();
        let mut log = EventLog::new();
        // Minute 0: motion on. Minute 1: quiet + bulb on. Minute 2: motion.
        log.push_sensor(SensorReading::new(m, Timestamp::from_secs(10), true.into()));
        log.push_actuator(ActuatorEvent::new(b, Timestamp::from_secs(70), true));
        log.push_sensor(SensorReading::new(
            m,
            Timestamp::from_secs(130),
            true.into(),
        ));
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        assert_eq!(model.groups().len(), 2); // {motion} and {quiet}
        assert_eq!(model.training_windows(), 3);
        // G2G: motion -> quiet and quiet -> motion.
        let g_motion = GroupId::new(0);
        let g_quiet = GroupId::new(1);
        assert!(model.transitions().g2g_observed(g_motion, g_quiet));
        assert!(model.transitions().g2g_observed(g_quiet, g_motion));
        // G2A: motion group preceded the bulb activation.
        assert!(model.transitions().g2a_observed(g_motion, b));
        // A2G: bulb activation preceded the motion group.
        assert!(model.transitions().a2g_observed(b, g_motion));
    }

    #[test]
    fn extract_rejects_empty_log() {
        let (reg, ..) = reg_with_motion_and_bulb();
        let mut log = EventLog::new();
        let err = ContextExtractor::new(DiceConfig::default()).extract(&reg, &mut log);
        assert_eq!(err.unwrap_err(), DiceError::EmptyTrainingData);
    }

    #[test]
    fn extract_rejects_empty_registry() {
        let reg = DeviceRegistry::new();
        let mut log = EventLog::new();
        log.push_actuator(ActuatorEvent::new(
            dice_types::ActuatorId::new(0),
            Timestamp::ZERO,
            true,
        ));
        let err = ContextExtractor::new(DiceConfig::default()).extract(&reg, &mut log);
        assert_eq!(err.unwrap_err(), DiceError::NoSensors);
    }

    #[test]
    fn builder_finish_requires_windows() {
        let (reg, ..) = reg_with_motion_and_bulb();
        let builder = ModelBuilder::new(
            DiceConfig::default(),
            &reg,
            ThresholdTrainer::new(&reg).finish(),
        )
        .unwrap();
        assert_eq!(builder.finish().unwrap_err(), DiceError::EmptyTrainingData);
    }

    #[test]
    fn first_window_records_no_transition() {
        let (reg, m, _) = reg_with_motion_and_bulb();
        let mut builder = ModelBuilder::new(
            DiceConfig::default(),
            &reg,
            ThresholdTrainer::new(&reg).finish(),
        )
        .unwrap();
        let events = [Event::from(SensorReading::new(
            m,
            Timestamp::ZERO,
            true.into(),
        ))];
        builder.observe_window(Timestamp::ZERO, Timestamp::from_mins(1), &events);
        let model = builder.finish().unwrap();
        assert_eq!(model.transitions().g2g().total(), 0);
        assert_eq!(model.groups().len(), 1);
    }

    #[test]
    fn resumed_training_extends_an_existing_model() {
        let (reg, m, _) = reg_with_motion_and_bulb();
        let mut log = EventLog::new();
        for minute in 0..20 {
            log.push_sensor(SensorReading::new(
                m,
                Timestamp::from_mins(minute),
                (minute % 2 == 0).into(),
            ));
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        let before_windows = model.training_windows();
        let before_groups = model.groups().len();

        // Resume with new data that includes a never-seen state (both-quiet
        // followed by the motion firing three minutes in a row).
        let mut builder = ModelBuilder::resume(model);
        for minute in 0..6 {
            let start = Timestamp::from_mins(100 + minute);
            let end = start + dice_types::TimeDelta::from_mins(1);
            let events = [Event::from(SensorReading::new(m, start, true.into()))];
            builder.observe_window(start, end, &events);
        }
        let extended = builder.finish().unwrap();
        assert_eq!(extended.training_windows(), before_windows + 6);
        assert_eq!(extended.groups().len(), before_groups);
        // The motion-on self-transition, unseen before (strict alternation),
        // is now legal.
        let g_on = extended
            .groups()
            .lookup(&crate::bitset::BitSet::from_indices(1, [0]))
            .unwrap();
        assert!(extended.transitions().g2g_observed(g_on, g_on));
    }

    #[test]
    fn resume_then_finish_without_windows_keeps_the_model_intact() {
        let (reg, m, _) = reg_with_motion_and_bulb();
        let mut log = EventLog::new();
        for minute in 0..10 {
            log.push_sensor(SensorReading::new(
                m,
                Timestamp::from_mins(minute),
                (minute % 2 == 0).into(),
            ));
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        let expected = model.clone();
        // No new window: finish must reuse the resumed scan index (not
        // rebuild) and reproduce the model exactly, scan included.
        let roundtripped = ModelBuilder::resume(model).finish().unwrap();
        assert_eq!(roundtripped, expected);
        assert_eq!(roundtripped.scan().len(), expected.groups().len());
    }

    #[test]
    fn self_transitions_are_recorded() {
        let (reg, m, _) = reg_with_motion_and_bulb();
        let mut builder = ModelBuilder::new(
            DiceConfig::default(),
            &reg,
            ThresholdTrainer::new(&reg).finish(),
        )
        .unwrap();
        for minute in 0..3 {
            let events = [Event::from(SensorReading::new(
                m,
                Timestamp::from_mins(minute),
                true.into(),
            ))];
            builder.observe_window(
                Timestamp::from_mins(minute),
                Timestamp::from_mins(minute + 1),
                &events,
            );
        }
        let model = builder.finish().unwrap();
        assert_eq!(
            model
                .transitions()
                .g2g_prob(GroupId::new(0), GroupId::new(0)),
            1.0
        );
    }
}
