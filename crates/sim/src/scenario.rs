//! Scenario specifications: everything that defines one simulated smart home.

use serde::{Deserialize, Serialize};

use dice_types::{DeviceRegistry, SensorClass, SensorId, TimeDelta};

use crate::activity::{Activity, Scheduler};
use crate::automation::{ActuatorEffect, AutomationRule};
use crate::sensors::NumericModel;

/// A fixed-schedule numeric effect, e.g. an HVAC heating cycle: the sensor
/// is shifted by `delta` during the first `duty_mins` of every
/// `period_mins`-minute period (offset by `phase_mins`).
///
/// Periodic plant cycles exercise numeric sensors even when no resident is
/// around, which is what lets DICE notice a frozen or silent sensor quickly.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PeriodicEffect {
    /// The affected numeric sensor.
    pub sensor: SensorId,
    /// Value shift while the cycle is on.
    pub delta: f64,
    /// Cycle period in minutes.
    pub period_mins: i64,
    /// On-duty prefix of each period, in minutes.
    pub duty_mins: i64,
    /// Phase offset in minutes.
    pub phase_mins: i64,
    /// Hours of day `[start, end)` during which the cycle runs; a wrapped
    /// range like `(22, 7)` is allowed and `(0, 0)` means around the clock.
    pub active_hours: (u8, u8),
}

impl PeriodicEffect {
    /// Whether the cycle is on at `minute`.
    pub fn active_at_minute(&self, minute: i64) -> bool {
        let hour = (minute / 60).rem_euclid(24) as u8;
        let (start, end) = self.active_hours;
        let in_hours = if start == end {
            true
        } else if start < end {
            (start..end).contains(&hour)
        } else {
            hour >= start || hour < end
        };
        in_hours && (minute - self.phase_mins).rem_euclid(self.period_mins) < self.duty_mins
    }
}

/// The full specification of one simulated smart home and its data
/// collection run: deployment, resident behavior, automation, physics, and
/// noise knobs.
///
/// This is a passive configuration record; construct it with
/// [`ScenarioSpec::new`] and adjust the public fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (e.g. `"houseA"`).
    pub name: String,
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// The deployed devices.
    pub registry: DeviceRegistry,
    /// The activity repertoire of the residents.
    pub activities: Vec<Activity>,
    /// Actuator automation rules.
    pub rules: Vec<AutomationRule>,
    /// Actuator side effects on numeric sensors.
    pub actuator_effects: Vec<ActuatorEffect>,
    /// Fixed-schedule plant cycles (HVAC and similar).
    pub periodic_effects: Vec<PeriodicEffect>,
    /// Per-sensor ambient models (`None` for binary sensors).
    pub numeric_models: Vec<Option<NumericModel>>,
    /// Number of residents.
    pub residents: usize,
    /// Total dataset duration.
    pub duration: TimeDelta,
    /// Numeric sampling period in seconds (default 20).
    pub numeric_sample_secs: i64,
    /// Per-minute probability that a binary sensor fires while a covering
    /// activity runs.
    pub binary_fire_prob: f64,
    /// Per-minute probability of a spurious binary fire with no activity.
    pub binary_background_prob: f64,
    /// Scheduler knobs.
    pub scheduler: Scheduler,
    /// Probability that a co-resident shares the leader's activity slot
    /// (multi-resident homes only).
    pub companion_prob: f64,
}

impl ScenarioSpec {
    /// Creates a spec with default physics for every numeric sensor and
    /// paper-typical knobs (20-second numeric sampling, 95% per-minute
    /// activity fire probability, very rare spurious fires).
    pub fn new(name: impl Into<String>, seed: u64, registry: DeviceRegistry) -> Self {
        let numeric_models = registry
            .sensors()
            .map(|s| match s.class() {
                SensorClass::Numeric => Some(NumericModel::default_for(s.kind())),
                SensorClass::Binary => None,
            })
            .collect();
        ScenarioSpec {
            name: name.into(),
            seed,
            registry,
            activities: Vec::new(),
            rules: Vec::new(),
            actuator_effects: Vec::new(),
            periodic_effects: Vec::new(),
            numeric_models,
            residents: 1,
            duration: TimeDelta::from_hours(600),
            numeric_sample_secs: 20,
            binary_fire_prob: 1.0,
            binary_background_prob: 4e-6,
            scheduler: Scheduler::default(),
            companion_prob: 0.85,
        }
    }

    /// The ambient model of a numeric sensor.
    ///
    /// # Panics
    ///
    /// Panics if the sensor is binary or unknown.
    pub fn numeric_model(&self, sensor: SensorId) -> &NumericModel {
        self.numeric_models[sensor.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("{sensor} is not a numeric sensor"))
    }

    /// Validates internal consistency (ids in range, sane probabilities).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.registry.num_sensors() == 0 {
            return Err("scenario has no sensors".into());
        }
        if self.residents == 0 {
            return Err("scenario has no residents".into());
        }
        if self.duration.as_secs() <= 0 {
            return Err("scenario duration must be positive".into());
        }
        if !(1..=60).contains(&self.numeric_sample_secs) {
            return Err("numeric sample period must be 1..=60 seconds".into());
        }
        if !(0.0..=1.0).contains(&self.binary_fire_prob)
            || !(0.0..=1.0).contains(&self.binary_background_prob)
            || !(0.0..=1.0).contains(&self.companion_prob)
        {
            return Err("probabilities must be within [0, 1]".into());
        }
        let num_sensors = self.registry.num_sensors() as u32;
        let num_actuators = self.registry.num_actuators() as u32;
        for activity in &self.activities {
            for s in &activity.binary_sensors {
                if s.index() as u32 >= num_sensors {
                    return Err(format!(
                        "activity {:?} references unknown {s}",
                        activity.name
                    ));
                }
            }
            for e in &activity.numeric_effects {
                if e.sensor.index() as u32 >= num_sensors {
                    return Err(format!(
                        "activity {:?} references unknown {}",
                        activity.name, e.sensor
                    ));
                }
            }
        }
        for rule in &self.rules {
            if rule.actuator.index() as u32 >= num_actuators {
                return Err(format!("rule references unknown {}", rule.actuator));
            }
            if rule.condition.sensor().index() as u32 >= num_sensors {
                return Err(format!(
                    "rule references unknown {}",
                    rule.condition.sensor()
                ));
            }
        }
        for effect in &self.actuator_effects {
            if effect.actuator.index() as u32 >= num_actuators {
                return Err(format!(
                    "actuator effect references unknown {}",
                    effect.actuator
                ));
            }
            if effect.sensor.index() as u32 >= num_sensors {
                return Err(format!(
                    "actuator effect references unknown {}",
                    effect.sensor
                ));
            }
        }
        for effect in &self.periodic_effects {
            if effect.sensor.index() as u32 >= num_sensors {
                return Err(format!(
                    "periodic effect references unknown {}",
                    effect.sensor
                ));
            }
            if effect.period_mins <= 0 || !(0..=effect.period_mins).contains(&effect.duty_mins) {
                return Err("periodic effect duty must fit in a positive period".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automation::Condition;
    use dice_types::{ActuatorId, ActuatorKind, Room, SensorKind};

    fn base_spec() -> ScenarioSpec {
        let mut reg = DeviceRegistry::new();
        reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        reg.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        ScenarioSpec::new("test", 1, reg)
    }

    #[test]
    fn new_fills_numeric_models_per_class() {
        let spec = base_spec();
        assert!(spec.numeric_models[0].is_none()); // motion
        assert!(spec.numeric_models[1].is_some()); // temperature
        let _ = spec.numeric_model(SensorId::new(1));
    }

    #[test]
    #[should_panic(expected = "not a numeric sensor")]
    fn numeric_model_rejects_binary_sensor() {
        let spec = base_spec();
        let _ = spec.numeric_model(SensorId::new(0));
    }

    #[test]
    fn validate_accepts_consistent_spec() {
        let mut spec = base_spec();
        spec.rules.push(AutomationRule {
            actuator: ActuatorId::new(0),
            condition: Condition::BinaryActive(SensorId::new(0)),
        });
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unknown_rule_sensor() {
        let mut spec = base_spec();
        spec.rules.push(AutomationRule {
            actuator: ActuatorId::new(0),
            condition: Condition::BinaryActive(SensorId::new(99)),
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_activity_sensor() {
        let mut spec = base_spec();
        spec.activities.push(Activity {
            name: "bad".into(),
            room: Room::Kitchen,
            binary_sensors: vec![SensorId::new(17)],
            numeric_effects: vec![],
            mean_duration_mins: 5,
            preferred_hours: (0, 0),
            weight: 1.0,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut spec = base_spec();
        spec.residents = 0;
        assert!(spec.validate().is_err());
        let mut spec = base_spec();
        spec.numeric_sample_secs = 0;
        assert!(spec.validate().is_err());
        let mut spec = base_spec();
        spec.binary_fire_prob = 1.5;
        assert!(spec.validate().is_err());
    }
}
