//! Room-partitioned DICE (Section VI, multi-user cases).
//!
//! "A user may group the sensors that are spatially closely located and
//! connect each group to DICE individually to restrain the growing number of
//! combinations." This module implements that: the deployment is split into
//! device partitions (by room, or any custom grouping), each partition runs
//! its own context extraction and real-time engine over only its devices,
//! and reports are mapped back to the global device ids.
//
// lint-src: allow-file(hash-container) — the local-id remapping tables are
// point lookups only; nothing iterates them, so hash order never surfaces.

use std::collections::HashMap;

use dice_types::{
    ActuatorId, DeviceId, DeviceRegistry, Event, EventLog, Room, SensorId, Timestamp,
};

use crate::config::DiceConfig;
use crate::engine::{DiceEngine, FaultReport};
use crate::error::DiceError;
use crate::model::DiceModel;
use crate::train_par::ParallelTrainer;

/// One partition of the deployment: a named sub-registry plus the id maps
/// between the global deployment and the partition-local dense ids.
#[derive(Debug, Clone)]
pub struct Partition {
    name: String,
    registry: DeviceRegistry,
    sensor_to_local: HashMap<SensorId, SensorId>,
    actuator_to_local: HashMap<ActuatorId, ActuatorId>,
    sensor_to_global: Vec<SensorId>,
    actuator_to_global: Vec<ActuatorId>,
}

impl Partition {
    /// Builds a partition from global device ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is not registered in `registry` or appears twice.
    pub fn new(
        name: impl Into<String>,
        registry: &DeviceRegistry,
        sensors: &[SensorId],
        actuators: &[ActuatorId],
    ) -> Self {
        let mut local = DeviceRegistry::new();
        let mut sensor_to_local = HashMap::new();
        let mut sensor_to_global = Vec::new();
        for &sensor in sensors {
            let spec = registry.sensor(sensor);
            let local_id = local.add_sensor(spec.kind(), spec.name(), spec.room());
            assert!(
                sensor_to_local.insert(sensor, local_id).is_none(),
                "duplicate sensor {sensor} in partition"
            );
            sensor_to_global.push(sensor);
        }
        let mut actuator_to_local = HashMap::new();
        let mut actuator_to_global = Vec::new();
        for &actuator in actuators {
            let spec = registry.actuator(actuator);
            let local_id = local.add_actuator(spec.kind(), spec.name(), spec.room());
            assert!(
                actuator_to_local.insert(actuator, local_id).is_none(),
                "duplicate actuator {actuator} in partition"
            );
            actuator_to_global.push(actuator);
        }
        Partition {
            name: name.into(),
            registry: local,
            sensor_to_local,
            actuator_to_local,
            sensor_to_global,
            actuator_to_global,
        }
    }

    /// The partition's name (e.g. its room).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The partition-local registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Projects a global event into the partition, remapping ids; `None` if
    /// the event's device is not part of this partition.
    pub fn project(&self, event: &Event) -> Option<Event> {
        match event {
            Event::Sensor(r) => self
                .sensor_to_local
                .get(&r.sensor)
                .map(|&local| Event::Sensor(dice_types::SensorReading::new(local, r.at, r.value))),
            Event::Actuator(a) => self.actuator_to_local.get(&a.actuator).map(|&local| {
                Event::Actuator(dice_types::ActuatorEvent::new(local, a.at, a.active))
            }),
        }
    }

    /// Maps a partition-local device id back to the global deployment.
    ///
    /// # Panics
    ///
    /// Panics if the local id was not issued by this partition.
    pub fn unproject(&self, device: DeviceId) -> DeviceId {
        match device {
            DeviceId::Sensor(s) => DeviceId::Sensor(self.sensor_to_global[s.index()]),
            DeviceId::Actuator(a) => DeviceId::Actuator(self.actuator_to_global[a.index()]),
        }
    }

    /// Partitions a deployment by room: every room with at least one sensor
    /// becomes one partition holding its sensors and actuators.
    pub fn by_room(registry: &DeviceRegistry) -> Vec<Partition> {
        Room::all()
            .iter()
            .filter_map(|&room| {
                let sensors: Vec<SensorId> = registry
                    .sensors()
                    .filter(|s| s.room() == room)
                    .map(dice_types::SensorSpec::id)
                    .collect();
                if sensors.is_empty() {
                    return None;
                }
                let actuators: Vec<ActuatorId> = registry
                    .actuators()
                    .filter(|a| a.room() == room)
                    .map(dice_types::ActuatorSpec::id)
                    .collect();
                Some(Partition::new(
                    room.to_string(),
                    registry,
                    &sensors,
                    &actuators,
                ))
            })
            .collect()
    }
}

/// Per-partition trained models, ready to drive a [`PartitionedEngine`].
#[derive(Debug, Clone)]
pub struct PartitionedModel {
    parts: Vec<(Partition, DiceModel)>,
}

impl PartitionedModel {
    /// Trains one DICE model per partition over the same training log.
    ///
    /// Each partition runs the chunked [`ParallelTrainer`], whose merged
    /// model is bit-identical to the serial two-pass extraction; windows
    /// tile the *global* training range so quiet partitions still learn
    /// their silent context.
    ///
    /// # Errors
    ///
    /// Returns the first extraction error (e.g. an empty training range).
    pub fn train(
        config: &DiceConfig,
        partitions: Vec<Partition>,
        training: &mut EventLog,
    ) -> Result<Self, DiceError> {
        let (from, to) = match (training.start(), training.end()) {
            (Some(s), Some(e)) => (s.align_down(config.window()), e),
            _ => return Err(DiceError::EmptyTrainingData),
        };
        let trainer = ParallelTrainer::new(config.clone());
        let mut parts = Vec::with_capacity(partitions.len());
        for partition in partitions {
            // Project the training log into the partition.
            let mut local = EventLog::new();
            for event in training.events() {
                if let Some(projected) = partition.project(event) {
                    local.push(projected);
                }
            }
            let model = trainer.extract_between(
                partition.registry(),
                &mut local,
                from,
                to + config.window(),
            )?;
            parts.push((partition, model));
        }
        Ok(PartitionedModel { parts })
    }

    /// The partitions and their models.
    pub fn parts(&self) -> &[(Partition, DiceModel)] {
        &self.parts
    }

    /// Total groups across all partitions — the quantity the paper's
    /// discussion expects to shrink versus whole-home DICE in multi-user
    /// homes.
    pub fn total_groups(&self) -> usize {
        self.parts.iter().map(|(_, m)| m.groups().len()).sum()
    }
}

/// One DICE engine per partition, with reports mapped back to global ids.
#[derive(Debug)]
pub struct PartitionedEngine<'m> {
    engines: Vec<(&'m Partition, DiceEngine<&'m DiceModel>)>,
    /// Projected-events buffer, reused across partitions and windows so the
    /// steady-state window path allocates nothing.
    projected: Vec<Event>,
}

impl<'m> PartitionedEngine<'m> {
    /// Creates engines over a trained partitioned model.
    pub fn new(model: &'m PartitionedModel) -> Self {
        PartitionedEngine {
            engines: model
                .parts
                .iter()
                .map(|(partition, model)| (partition, DiceEngine::new(model)))
                .collect(),
            projected: Vec::new(),
        }
    }

    /// Creates engines with explicit options (cloned per partition). Each
    /// partition gets its own flight recorder, but a shared trace sink in
    /// the options is shared by every partition engine.
    pub fn with_options(model: &'m PartitionedModel, options: &crate::EngineOptions) -> Self {
        PartitionedEngine {
            engines: model
                .parts
                .iter()
                .map(|(partition, model)| {
                    (partition, DiceEngine::with_options(model, options.clone()))
                })
                .collect(),
            projected: Vec::new(),
        }
    }

    /// Processes one window across all partitions; returns every report
    /// (device ids global) raised in this window.
    pub fn process_window(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        events: &[Event],
    ) -> Vec<FaultReport> {
        let mut reports = Vec::new();
        let PartitionedEngine { engines, projected } = self;
        for (partition, engine) in engines {
            projected.clear();
            projected.extend(events.iter().filter_map(|e| partition.project(e)));
            if let Some(mut report) = engine.process_window(start, end, projected) {
                report.devices = report
                    .devices
                    .iter()
                    .map(|&d| partition.unproject(d))
                    .collect();
                reports.push(report);
            }
        }
        reports
    }

    /// Flushes all partitions' pending identifications.
    pub fn flush(&mut self) -> Vec<FaultReport> {
        let mut reports = Vec::new();
        for (partition, engine) in &mut self.engines {
            if let Some(mut report) = engine.flush() {
                report.devices = report
                    .devices
                    .iter()
                    .map(|&d| partition.unproject(d))
                    .collect();
                reports.push(report);
            }
        }
        reports
    }

    /// Processes every window tiling `[from, to)` of a log.
    pub fn process_range(
        &mut self,
        log: &mut EventLog,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<FaultReport> {
        let window = self.engines.first().map_or_else(
            || dice_types::TimeDelta::from_mins(1),
            |(_, e)| e.model().config().window(),
        );
        let mut reports = Vec::new();
        for w in log.windows_between(from, to, window) {
            reports.extend(self.process_window(w.start, w.end, w.events));
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::{SensorKind, SensorReading, TimeDelta};

    fn two_room_home() -> (DeviceRegistry, Vec<SensorId>) {
        let mut reg = DeviceRegistry::new();
        let k0 = reg.add_sensor(SensorKind::Motion, "k0", Room::Kitchen);
        let k1 = reg.add_sensor(SensorKind::Motion, "k1", Room::Kitchen);
        let b0 = reg.add_sensor(SensorKind::Motion, "b0", Room::Bedroom);
        (reg, vec![k0, k1, b0])
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

    #[test]
    fn by_room_covers_all_sensors_once() {
        let (reg, _) = two_room_home();
        let partitions = Partition::by_room(&reg);
        assert_eq!(partitions.len(), 2);
        let total: usize = partitions.iter().map(|p| p.registry().num_sensors()).sum();
        assert_eq!(total, reg.num_sensors());
        assert_eq!(partitions[0].name(), "kitchen");
        assert_eq!(partitions[1].name(), "bedroom");
    }

    #[test]
    fn projection_remaps_ids_and_unprojection_inverts() {
        let (reg, sensors) = two_room_home();
        let partitions = Partition::by_room(&reg);
        let bedroom = &partitions[1];
        let event = Event::Sensor(SensorReading::new(
            sensors[2],
            Timestamp::from_secs(5),
            true.into(),
        ));
        let local = bedroom
            .project(&event)
            .expect("b0 is in the bedroom partition");
        let local_id = local.as_sensor().unwrap().sensor;
        assert_eq!(local_id, SensorId::new(0), "local ids are dense");
        assert_eq!(
            bedroom.unproject(DeviceId::Sensor(local_id)),
            DeviceId::Sensor(sensors[2])
        );
        // Kitchen events do not project into the bedroom.
        let kitchen_event = Event::Sensor(SensorReading::new(
            sensors[0],
            Timestamp::from_secs(5),
            true.into(),
        ));
        assert!(bedroom.project(&kitchen_event).is_none());
    }

    #[test]
    fn partitioned_training_and_detection_work() {
        let (reg, sensors) = two_room_home();
        let config = DiceConfig::builder().min_row_support(1).build();
        let mut training = training_log(&sensors, 240);
        let model =
            PartitionedModel::train(&config, Partition::by_room(&reg), &mut training).unwrap();
        assert_eq!(model.parts().len(), 2);
        assert!(model.total_groups() >= 4); // {k0,k1}/{} and {b0}/{} at least

        // Healthy replay is quiet.
        let mut engine = PartitionedEngine::new(&model);
        let mut live = training_log(&sensors, 40);
        let mut reports =
            engine.process_range(&mut live, Timestamp::ZERO, Timestamp::from_mins(40));
        reports.extend(engine.flush());
        assert!(reports.is_empty(), "unexpected: {reports:?}");

        // Fail-stop k1: only the kitchen partition fires, and the report
        // names the *global* sensor id.
        let mut faulty = EventLog::new();
        for minute in 0..40 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                faulty.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            } else {
                faulty.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        let mut engine = PartitionedEngine::new(&model);
        let mut reports =
            engine.process_range(&mut faulty, Timestamp::ZERO, Timestamp::from_mins(40));
        reports.extend(engine.flush());
        assert!(!reports.is_empty());
        assert!(reports[0].devices.contains(&DeviceId::Sensor(sensors[1])));
    }

    #[test]
    fn with_options_wires_tracing_through_partitions() {
        let (reg, sensors) = two_room_home();
        let config = DiceConfig::builder().min_row_support(1).build();
        let mut training = training_log(&sensors, 240);
        let model =
            PartitionedModel::train(&config, Partition::by_room(&reg), &mut training).unwrap();
        let options = crate::EngineOptions {
            trace: crate::TraceOptions::recording(),
            ..crate::EngineOptions::default()
        };
        let mut engine = PartitionedEngine::with_options(&model, &options);
        // Fail-stop k1: k0 fires alone on even minutes.
        let mut faulty = EventLog::new();
        for minute in 0..40 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                faulty.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            } else {
                faulty.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        let mut reports =
            engine.process_range(&mut faulty, Timestamp::ZERO, Timestamp::from_mins(40));
        reports.extend(engine.flush());
        assert!(!reports.is_empty());
        assert!(reports[0].devices.contains(&DeviceId::Sensor(sensors[1])));
        assert!(
            !reports[0].evidence.is_empty(),
            "partition engines built with tracing options attach evidence"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate sensor")]
    fn duplicate_sensor_in_partition_panics() {
        let (reg, sensors) = two_room_home();
        let _ = Partition::new("bad", &reg, &[sensors[0], sensors[0]], &[]);
    }
}
