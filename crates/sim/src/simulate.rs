//! The smart-home simulator: deterministic, random-access event generation.
//!
//! Given a [`ScenarioSpec`], the simulator materializes per-resident activity
//! schedules once, then derives every sensor reading and actuator event of
//! any minute as a pure function of the schedules and a counter-based noise
//! source. Any time slice of the dataset can therefore be regenerated in
//! isolation, which is what lets the evaluation harness cut hundreds of
//! six-hour segments out of thousand-hour datasets without storing them.

use dice_types::{
    ActuatorEvent, ActuatorId, DeviceRegistry, EventLog, SensorClass, SensorId, SensorReading,
    TimeDelta, Timestamp,
};

use crate::activity::{active_at, ScheduledActivity};
use crate::noise::DetNoise;
use crate::scenario::ScenarioSpec;

/// Noise-stream tags to keep the per-purpose draws decorrelated.
mod streams {
    pub const BINARY_FIRE: u64 = 1;
    pub const BINARY_BACKGROUND: u64 = 2;
    pub const BINARY_OFFSET: u64 = 3;
    pub const NUMERIC_SAMPLE: u64 = 4;
}

/// A deterministic smart-home simulator for one scenario.
///
/// # Example
///
/// ```
/// use dice_sim::{Simulator, testbed};
///
/// let spec = testbed::dice_testbed("D_houseA", 7, dice_types::TimeDelta::from_hours(2), 16, 1);
/// let sim = Simulator::new(spec).unwrap();
/// let mut log = sim.log_between(
///     dice_types::Timestamp::ZERO,
///     dice_types::Timestamp::from_hours(1),
/// );
/// assert!(!log.events().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: ScenarioSpec,
    schedules: Vec<Vec<ScheduledActivity>>,
    noise: DetNoise,
}

impl Simulator {
    /// Builds the simulator, generating all resident schedules.
    ///
    /// # Errors
    ///
    /// Returns the validation error message if the spec is inconsistent.
    pub fn new(spec: ScenarioSpec) -> Result<Self, String> {
        spec.validate()?;
        if spec.activities.is_empty() {
            return Err("scenario has no activities".into());
        }
        // Resident 0 leads; co-residents share the leader's slots with
        // `companion_prob` (couples mostly act together).
        let leader = spec
            .scheduler
            .generate(&spec.activities, spec.duration, 0, spec.seed);
        let mut schedules = vec![leader];
        for resident in 1..spec.residents {
            let companion = spec.scheduler.generate_companion(
                &spec.activities,
                &schedules[0],
                resident,
                spec.seed,
                spec.companion_prob,
            );
            schedules.push(companion);
        }
        let noise = DetNoise::new(spec.seed);
        Ok(Simulator {
            spec,
            schedules,
            noise,
        })
    }

    /// The scenario being simulated.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The deployment registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.spec.registry
    }

    /// Total dataset duration.
    pub fn duration(&self) -> TimeDelta {
        self.spec.duration
    }

    /// The activity instances active at `at` (at most one per resident).
    pub fn active_instances(&self, at: Timestamp) -> impl Iterator<Item = &ScheduledActivity> {
        self.schedules.iter().filter_map(move |s| active_at(s, at))
    }

    /// Whether a covering activity drives `sensor` to fire during the given
    /// minute, before noise.
    fn activity_covers_binary(&self, sensor: SensorId, at: Timestamp) -> bool {
        self.active_instances(at).any(|inst| {
            self.spec.activities[inst.activity]
                .binary_sensors
                .contains(&sensor)
        })
    }

    /// Whether `sensor` fires during minute `minute` (activity-driven with
    /// high probability, or a rare spurious background fire).
    pub fn binary_fires(&self, sensor: SensorId, minute: i64) -> bool {
        let at = Timestamp::from_mins(minute);
        let key = sensor.index() as u64;
        if self.activity_covers_binary(sensor, at) {
            self.noise.bernoulli(
                streams::BINARY_FIRE ^ (key << 8),
                minute as u64,
                self.spec.binary_fire_prob,
            )
        } else {
            self.noise.bernoulli(
                streams::BINARY_BACKGROUND ^ (key << 8),
                minute as u64,
                self.spec.binary_background_prob,
            )
        }
    }

    /// The pre-actuator value of a numeric sensor at `at`: ambient model
    /// plus the deltas of active activities.
    pub fn numeric_pre_actuator(&self, sensor: SensorId, at: Timestamp) -> f64 {
        let model = self.spec.numeric_model(sensor);
        let mut value = model.ambient(at);
        for inst in self.active_instances(at) {
            for effect in &self.spec.activities[inst.activity].numeric_effects {
                if effect.sensor == sensor {
                    value += effect.delta;
                }
            }
        }
        let minute = at.as_mins();
        for effect in &self.spec.periodic_effects {
            if effect.sensor == sensor && effect.active_at_minute(minute) {
                value += effect.delta;
            }
        }
        value
    }

    /// Whether `actuator` is on during minute `minute` (memoryless rule
    /// evaluation on pre-actuator sensor state; negative minutes are off).
    pub fn actuator_on(&self, actuator: ActuatorId, minute: i64) -> bool {
        if minute < 0 {
            return false;
        }
        let at = Timestamp::from_mins(minute);
        self.spec
            .rules
            .iter()
            .filter(|r| r.actuator == actuator)
            .any(|r| {
                r.condition.holds(
                    |s| self.activity_covers_binary(s, at),
                    |s| self.numeric_pre_actuator(s, at),
                )
            })
    }

    /// The true (reported, pre-fault) value of a numeric sensor at `at`,
    /// including actuator side effects, quantization, and rare noise.
    pub fn numeric_value(&self, sensor: SensorId, at: Timestamp) -> f64 {
        let mut value = self.numeric_pre_actuator(sensor, at);
        let minute = at.as_mins();
        for effect in &self.spec.actuator_effects {
            if effect.sensor == sensor && self.actuator_on(effect.actuator, minute) {
                value += effect.delta;
            }
        }
        let model = self.spec.numeric_model(sensor);
        let stream = streams::NUMERIC_SAMPLE ^ ((sensor.index() as u64) << 8);
        model.report(value, &self.noise, stream, at.as_secs() as u64)
    }

    /// Generates all events of one minute, in time order.
    pub fn minute_events(&self, minute: i64) -> Vec<dice_types::Event> {
        let mut events: Vec<dice_types::Event> = Vec::new();
        let minute_start = Timestamp::from_mins(minute);

        for spec in self.spec.registry.sensors() {
            match spec.class() {
                SensorClass::Binary => {
                    if self.binary_fires(spec.id(), minute) {
                        // Deterministic offset within the minute.
                        let offset = (self.noise.bits(
                            streams::BINARY_OFFSET ^ ((spec.id().index() as u64) << 8),
                            minute as u64,
                        ) % 60) as i64;
                        events.push(
                            SensorReading::new(
                                spec.id(),
                                minute_start + TimeDelta::from_secs(offset),
                                true.into(),
                            )
                            .into(),
                        );
                    }
                }
                SensorClass::Numeric => {
                    let period = self.spec.numeric_sample_secs;
                    let mut offset = 0;
                    while offset < 60 {
                        let at = minute_start + TimeDelta::from_secs(offset);
                        events.push(
                            SensorReading::new(
                                spec.id(),
                                at,
                                self.numeric_value(spec.id(), at).into(),
                            )
                            .into(),
                        );
                        offset += period;
                    }
                }
            }
        }

        for actuator in self.spec.registry.actuator_ids() {
            let now = self.actuator_on(actuator, minute);
            let before = self.actuator_on(actuator, minute - 1);
            if now != before {
                events.push(
                    ActuatorEvent::new(actuator, minute_start + TimeDelta::from_secs(2), now)
                        .into(),
                );
            }
        }

        events.sort_by_key(dice_types::Event::at);
        events
    }

    /// Materializes the event log for `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not minute-aligned or the range is empty.
    pub fn log_between(&self, from: Timestamp, to: Timestamp) -> EventLog {
        assert!(
            from.as_secs() % 60 == 0,
            "range must start on a minute boundary"
        );
        assert!(to > from, "range must be non-empty");
        let mut log = EventLog::new();
        let mut minute = from.as_mins();
        let end_minute = (to.as_secs() + 59) / 60;
        while minute < end_minute {
            for event in self.minute_events(minute) {
                if event.at() < to {
                    log.push(event);
                }
            }
            minute += 1;
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Activity, NumericEffect};
    use crate::automation::{ActuatorEffect, AutomationRule, Condition};
    use dice_types::{ActuatorKind, Room, SensorKind};

    fn spec() -> ScenarioSpec {
        let mut reg = DeviceRegistry::new();
        let motion = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let temp = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let light = reg.add_sensor(SensorKind::Light, "l", Room::Kitchen);
        let bulb = reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        let mut spec = ScenarioSpec::new("unit", 99, reg);
        spec.duration = TimeDelta::from_hours(24);
        spec.activities = vec![
            Activity {
                name: "cook".into(),
                room: Room::Kitchen,
                binary_sensors: vec![motion],
                numeric_effects: vec![NumericEffect {
                    sensor: temp,
                    delta: 6.0,
                }],
                mean_duration_mins: 30,
                preferred_hours: (0, 0),
                weight: 1.0,
            },
            Activity {
                name: "rest".into(),
                room: Room::LivingRoom,
                binary_sensors: vec![],
                numeric_effects: vec![],
                mean_duration_mins: 30,
                preferred_hours: (0, 0),
                weight: 1.0,
            },
        ];
        spec.rules.push(AutomationRule {
            actuator: bulb,
            condition: Condition::BinaryActive(motion),
        });
        spec.actuator_effects.push(ActuatorEffect {
            actuator: bulb,
            sensor: light,
            delta: 120.0,
        });
        spec
    }

    #[test]
    fn simulator_is_deterministic() {
        let a = Simulator::new(spec()).unwrap();
        let b = Simulator::new(spec()).unwrap();
        for minute in 0..120 {
            assert_eq!(a.minute_events(minute), b.minute_events(minute));
        }
    }

    #[test]
    fn random_access_matches_sequential_generation() {
        let sim = Simulator::new(spec()).unwrap();
        let mut full = sim.log_between(Timestamp::ZERO, Timestamp::from_hours(2));
        let mut slice = sim.log_between(Timestamp::from_mins(60), Timestamp::from_mins(90));
        let expected = full.slice(Timestamp::from_mins(60), Timestamp::from_mins(90));
        assert_eq!(slice.events(), expected.events_unsorted());
    }

    #[test]
    fn numeric_sensors_sample_periodically() {
        let sim = Simulator::new(spec()).unwrap();
        let events = sim.minute_events(10);
        let temp_samples = events
            .iter()
            .filter(|e| e.as_sensor().is_some_and(|r| r.sensor == SensorId::new(1)))
            .count();
        assert_eq!(temp_samples, 3); // 20-second period -> 3 samples/minute
    }

    #[test]
    fn resting_numeric_values_are_quantized_constants() {
        let sim = Simulator::new(spec()).unwrap();
        // Find a minute with no activity for resident 0.
        let mut quiet_minute = None;
        for minute in 0..600 {
            if sim
                .active_instances(Timestamp::from_mins(minute))
                .next()
                .is_none()
            {
                quiet_minute = Some(minute);
                break;
            }
        }
        let minute = quiet_minute.expect("some idle minute in 10 hours");
        let model = sim.spec().numeric_model(SensorId::new(1));
        let at = Timestamp::from_mins(minute);
        let v = sim.numeric_value(SensorId::new(1), at);
        assert!(
            (v / model.quantum).fract().abs() < 1e-9,
            "value {v} not on quantum grid"
        );
    }

    #[test]
    fn activity_raises_numeric_value() {
        let sim = Simulator::new(spec()).unwrap();
        // Find a minute where "cook" is active.
        let mut cooking = None;
        for minute in 0..1440 {
            let at = Timestamp::from_mins(minute);
            if sim
                .active_instances(at)
                .any(|i| sim.spec().activities[i.activity].name == "cook")
            {
                cooking = Some(at);
                break;
            }
        }
        let at = cooking.expect("cooking happens within a day");
        let with = sim.numeric_pre_actuator(SensorId::new(1), at);
        let ambient = sim.spec().numeric_model(SensorId::new(1)).ambient(at);
        assert!((with - ambient - 6.0).abs() < 1e-9);
    }

    #[test]
    fn actuator_follows_rule_and_emits_transitions() {
        let sim = Simulator::new(spec()).unwrap();
        let bulb = ActuatorId::new(0);
        let mut on_events = 0;
        let mut off_events = 0;
        for minute in 0..1440 {
            for e in sim.minute_events(minute) {
                if let Some(a) = e.as_actuator() {
                    assert_eq!(a.actuator, bulb);
                    if a.active {
                        on_events += 1;
                    } else {
                        off_events += 1;
                    }
                }
            }
        }
        assert!(on_events > 0, "bulb never turned on in a day");
        assert!((on_events as i64 - off_events as i64).abs() <= 1);
    }

    #[test]
    fn actuator_effect_raises_light_sensor() {
        let sim = Simulator::new(spec()).unwrap();
        // When the bulb is on, the light sensor reads higher than ambient.
        let light = SensorId::new(2);
        let mut bulb_minute = None;
        for minute in 0..1440 {
            if sim.actuator_on(ActuatorId::new(0), minute) {
                bulb_minute = Some(minute);
                break;
            }
        }
        let minute = bulb_minute.expect("bulb turns on within a day");
        let at = Timestamp::from_mins(minute);
        let reported = sim.numeric_value(light, at);
        let ambient = sim.spec().numeric_model(light).ambient(at);
        assert!(
            reported > ambient + 60.0,
            "reported {reported} vs ambient {ambient}"
        );
    }

    #[test]
    fn log_between_respects_bounds() {
        let sim = Simulator::new(spec()).unwrap();
        let mut log = sim.log_between(Timestamp::from_mins(5), Timestamp::from_mins(7));
        let events = log.events();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| { e.at() >= Timestamp::from_mins(5) && e.at() < Timestamp::from_mins(7) }));
    }

    #[test]
    #[should_panic(expected = "minute boundary")]
    fn log_between_rejects_unaligned_start() {
        let sim = Simulator::new(spec()).unwrap();
        let _ = sim.log_between(Timestamp::from_secs(30), Timestamp::from_mins(2));
    }

    #[test]
    fn simulator_rejects_empty_activity_list() {
        let mut s = spec();
        s.activities.clear();
        assert!(Simulator::new(s).is_err());
    }
}
