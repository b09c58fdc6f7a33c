//! The paper's own smart-home testbed (Section 4.1.2, Figure 4.1).
//!
//! The POSTECH deployment: 6 binary + 31 numeric sensors of nine types
//! across five rooms, 8 actuators with automation rules, and an activity
//! repertoire imitating the third-party datasets' daily routines. The
//! `D_*` datasets are instances of this testbed with different activity
//! counts, resident counts, and durations (Table 4.1).

use dice_types::{ActuatorId, ActuatorKind, DeviceRegistry, Room, SensorId, SensorKind, TimeDelta};

use crate::activity::{Activity, NumericEffect};
use crate::automation::{ActuatorEffect, AutomationRule, Condition};
use crate::scenario::{PeriodicEffect, ScenarioSpec};

/// Index positions of the five rooms used by the per-room sensor arrays.
const ROOMS: [Room; 5] = [
    Room::Kitchen,
    Room::Bathroom,
    Room::Bedroom,
    Room::LivingRoom,
    Room::Hallway,
];

/// Handles to every device of the testbed, in deployment order.
#[derive(Debug, Clone)]
pub struct TestbedDevices {
    /// Motion sensors: kitchen, bathroom, bedroom, living room.
    pub motion: [SensorId; 4],
    /// Flame sensor in the kitchen.
    pub flame: SensorId,
    /// Door contact in the hallway.
    pub door: SensorId,
    /// Light sensors per room (kitchen, bathroom, bedroom, living, hallway).
    pub light: [SensorId; 5],
    /// Temperature sensors per room.
    pub temperature: [SensorId; 5],
    /// Humidity sensors per room (same chip as temperature).
    pub humidity: [SensorId; 5],
    /// Sound sensors per room.
    pub sound: [SensorId; 5],
    /// Ultrasonic rangers: hallway, living room, bedroom.
    pub ultrasonic: [SensorId; 3],
    /// Gas sensor in the kitchen.
    pub gas: SensorId,
    /// Weight sensors: bed, couch, bathroom scale.
    pub weight: [SensorId; 3],
    /// Location beacons: kitchen, bathroom, bedroom, living room.
    pub beacon: [SensorId; 4],
    /// Smart bulbs: bedroom, living room, hallway.
    pub bulbs: [ActuatorId; 3],
    /// Smart speaker in the living room.
    pub speaker: ActuatorId,
    /// Smart switches: fan (living room), humidifier (bedroom).
    pub switches: [ActuatorId; 2],
    /// Smart blinds: bedroom, living room.
    pub blinds: [ActuatorId; 2],
}

/// Builds the testbed registry: 37 sensors (6 binary, 31 numeric) and
/// 8 actuators, matching Table 4.1's `D_*` rows.
pub fn build_registry() -> (DeviceRegistry, TestbedDevices) {
    let mut reg = DeviceRegistry::new();

    let motion = [
        reg.add_sensor(SensorKind::Motion, "kitchen motion", Room::Kitchen),
        reg.add_sensor(SensorKind::Motion, "bathroom motion", Room::Bathroom),
        reg.add_sensor(SensorKind::Motion, "bedroom motion", Room::Bedroom),
        reg.add_sensor(SensorKind::Motion, "living motion", Room::LivingRoom),
    ];
    let flame = reg.add_sensor(SensorKind::Flame, "kitchen flame", Room::Kitchen);
    let door = reg.add_sensor(SensorKind::Contact, "entrance door", Room::Hallway);

    let mut light = Vec::new();
    let mut temperature = Vec::new();
    let mut humidity = Vec::new();
    let mut sound = Vec::new();
    for room in ROOMS {
        light.push(reg.add_sensor(SensorKind::Light, format!("{room} light"), room));
        temperature.push(reg.add_sensor(SensorKind::Temperature, format!("{room} temp"), room));
        humidity.push(reg.add_sensor(SensorKind::Humidity, format!("{room} humidity"), room));
        sound.push(reg.add_sensor(SensorKind::Sound, format!("{room} sound"), room));
    }
    let ultrasonic = [
        reg.add_sensor(SensorKind::Ultrasonic, "hallway ultrasonic", Room::Hallway),
        reg.add_sensor(
            SensorKind::Ultrasonic,
            "living ultrasonic",
            Room::LivingRoom,
        ),
        reg.add_sensor(SensorKind::Ultrasonic, "bedroom ultrasonic", Room::Bedroom),
    ];
    let gas = reg.add_sensor(SensorKind::Gas, "kitchen gas", Room::Kitchen);
    let weight = [
        reg.add_sensor(SensorKind::Weight, "bed weight", Room::Bedroom),
        reg.add_sensor(SensorKind::Weight, "couch weight", Room::LivingRoom),
        reg.add_sensor(SensorKind::Weight, "bathroom scale", Room::Bathroom),
    ];
    let beacon = [
        reg.add_sensor(SensorKind::Location, "kitchen beacon", Room::Kitchen),
        reg.add_sensor(SensorKind::Location, "bathroom beacon", Room::Bathroom),
        reg.add_sensor(SensorKind::Location, "bedroom beacon", Room::Bedroom),
        reg.add_sensor(SensorKind::Location, "living beacon", Room::LivingRoom),
    ];

    let bulbs = [
        reg.add_actuator(ActuatorKind::SmartBulb, "bedroom hue", Room::Bedroom),
        reg.add_actuator(ActuatorKind::SmartBulb, "living hue", Room::LivingRoom),
        reg.add_actuator(ActuatorKind::SmartBulb, "hallway hue", Room::Hallway),
    ];
    let speaker = reg.add_actuator(ActuatorKind::SmartSpeaker, "echo", Room::LivingRoom);
    let switches = [
        reg.add_actuator(ActuatorKind::SmartSwitch, "fan switch", Room::LivingRoom),
        reg.add_actuator(
            ActuatorKind::SmartSwitch,
            "humidifier switch",
            Room::Bedroom,
        ),
    ];
    let blinds = [
        reg.add_actuator(ActuatorKind::SmartBlind, "bedroom blind", Room::Bedroom),
        reg.add_actuator(ActuatorKind::SmartBlind, "living blind", Room::LivingRoom),
    ];

    let devices = TestbedDevices {
        motion,
        flame,
        door,
        light: light.try_into().expect("five light sensors"),
        temperature: temperature.try_into().expect("five temperature sensors"),
        humidity: humidity.try_into().expect("five humidity sensors"),
        sound: sound.try_into().expect("five sound sensors"),
        ultrasonic,
        gas,
        weight,
        beacon,
        bulbs,
        speaker,
        switches,
        blinds,
    };
    (reg, devices)
}

/// Room-array indexes for readability.
const KITCHEN: usize = 0;
const BATHROOM: usize = 1;
const BEDROOM: usize = 2;
const LIVING: usize = 3;

/// The full 26-activity repertoire, ordered so that taking a prefix yields a
/// balanced routine (every dataset keeps sleep, cooking, and hygiene).
pub fn activity_catalog(d: &TestbedDevices) -> Vec<Activity> {
    let eff = |sensor: SensorId, delta: f64| NumericEffect { sensor, delta };
    vec![
        Activity {
            name: "sleep".into(),
            room: Room::Bedroom,
            binary_sensors: vec![],
            numeric_effects: vec![
                eff(d.weight[0], 70.0),
                eff(d.beacon[BEDROOM], 25.0),
                eff(d.ultrasonic[2], -60.0),
                eff(d.humidity[BEDROOM], -5.0),
            ],
            mean_duration_mins: 110,
            preferred_hours: (22, 7),
            weight: 8.0,
        },
        Activity {
            name: "cook dinner".into(),
            room: Room::Kitchen,
            binary_sensors: vec![d.motion[KITCHEN], d.flame],
            numeric_effects: vec![
                eff(d.temperature[KITCHEN], 6.0),
                eff(d.gas, 25.0),
                eff(d.sound[KITCHEN], 10.0),
                eff(d.beacon[KITCHEN], 25.0),
                eff(d.humidity[KITCHEN], 8.0),
            ],
            mean_duration_mins: 35,
            preferred_hours: (17, 20),
            weight: 4.0,
        },
        Activity {
            name: "eat".into(),
            room: Room::Kitchen,
            binary_sensors: vec![d.motion[KITCHEN]],
            numeric_effects: vec![eff(d.sound[KITCHEN], 6.0), eff(d.beacon[KITCHEN], 25.0)],
            mean_duration_mins: 25,
            preferred_hours: (18, 21),
            weight: 3.0,
        },
        Activity {
            name: "shower".into(),
            room: Room::Bathroom,
            binary_sensors: vec![d.motion[BATHROOM]],
            numeric_effects: vec![
                eff(d.humidity[BATHROOM], 18.0),
                eff(d.sound[BATHROOM], 12.0),
                eff(d.temperature[BATHROOM], 2.0),
                eff(d.beacon[BATHROOM], 25.0),
            ],
            mean_duration_mins: 15,
            preferred_hours: (6, 9),
            weight: 4.0,
        },
        Activity {
            name: "toilet".into(),
            room: Room::Bathroom,
            binary_sensors: vec![d.motion[BATHROOM]],
            numeric_effects: vec![eff(d.beacon[BATHROOM], 25.0), eff(d.sound[BATHROOM], 5.0)],
            mean_duration_mins: 6,
            preferred_hours: (0, 0),
            weight: 2.0,
        },
        Activity {
            name: "watch tv".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![
                eff(d.sound[LIVING], 12.0),
                eff(d.weight[1], 65.0),
                eff(d.beacon[LIVING], 25.0),
            ],
            mean_duration_mins: 60,
            preferred_hours: (19, 23),
            weight: 5.0,
        },
        Activity {
            name: "leave home".into(),
            room: Room::Hallway,
            binary_sensors: vec![d.door],
            numeric_effects: vec![eff(d.ultrasonic[0], -60.0)],
            mean_duration_mins: 3,
            preferred_hours: (8, 10),
            weight: 3.0,
        },
        Activity {
            name: "return home".into(),
            room: Room::Hallway,
            binary_sensors: vec![d.door],
            numeric_effects: vec![eff(d.ultrasonic[0], -60.0)],
            mean_duration_mins: 3,
            preferred_hours: (17, 19),
            weight: 3.0,
        },
        Activity {
            name: "work at desk".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![eff(d.sound[LIVING], 4.0), eff(d.beacon[LIVING], 25.0)],
            mean_duration_mins: 80,
            preferred_hours: (9, 17),
            weight: 5.0,
        },
        Activity {
            name: "brush teeth".into(),
            room: Room::Bathroom,
            binary_sensors: vec![d.motion[BATHROOM]],
            numeric_effects: vec![
                eff(d.humidity[BATHROOM], 5.0),
                eff(d.beacon[BATHROOM], 25.0),
            ],
            mean_duration_mins: 5,
            preferred_hours: (6, 9),
            weight: 2.0,
        },
        Activity {
            name: "read".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![
                eff(d.weight[1], 65.0),
                eff(d.light[LIVING], 60.0),
                eff(d.beacon[LIVING], 25.0),
            ],
            mean_duration_mins: 45,
            preferred_hours: (20, 23),
            weight: 2.0,
        },
        Activity {
            name: "clean".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING], d.motion[KITCHEN]],
            numeric_effects: vec![
                eff(d.sound[LIVING], 8.0),
                eff(d.sound[KITCHEN], 8.0),
                eff(d.ultrasonic[1], -40.0),
            ],
            mean_duration_mins: 30,
            preferred_hours: (10, 13),
            weight: 2.0,
        },
        Activity {
            name: "laundry".into(),
            room: Room::Bathroom,
            binary_sensors: vec![d.motion[BATHROOM]],
            numeric_effects: vec![
                eff(d.sound[BATHROOM], 14.0),
                eff(d.humidity[BATHROOM], 8.0),
                eff(d.beacon[BATHROOM], 25.0),
            ],
            mean_duration_mins: 20,
            preferred_hours: (10, 14),
            weight: 1.5,
        },
        Activity {
            name: "snack".into(),
            room: Room::Kitchen,
            binary_sensors: vec![d.motion[KITCHEN]],
            numeric_effects: vec![eff(d.beacon[KITCHEN], 25.0), eff(d.sound[KITCHEN], 4.0)],
            mean_duration_mins: 10,
            preferred_hours: (0, 0),
            weight: 1.0,
        },
        Activity {
            name: "exercise".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![
                eff(d.sound[LIVING], 10.0),
                eff(d.temperature[LIVING], 1.5),
                eff(d.humidity[LIVING], 5.0),
                eff(d.beacon[LIVING], 25.0),
            ],
            mean_duration_mins: 30,
            preferred_hours: (7, 9),
            weight: 1.5,
        },
        Activity {
            name: "nap".into(),
            room: Room::Bedroom,
            binary_sensors: vec![],
            numeric_effects: vec![
                eff(d.weight[0], 70.0),
                eff(d.beacon[BEDROOM], 25.0),
                eff(d.ultrasonic[2], -60.0),
            ],
            mean_duration_mins: 40,
            preferred_hours: (13, 15),
            weight: 1.0,
        },
        Activity {
            name: "groom".into(),
            room: Room::Bathroom,
            binary_sensors: vec![d.motion[BATHROOM]],
            numeric_effects: vec![
                eff(d.beacon[BATHROOM], 25.0),
                eff(d.sound[BATHROOM], 3.0),
                eff(d.weight[2], 60.0),
            ],
            mean_duration_mins: 10,
            preferred_hours: (7, 9),
            weight: 1.0,
        },
        Activity {
            name: "listen to music".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![
                eff(d.sound[LIVING], 14.0),
                eff(d.weight[1], 65.0),
                eff(d.beacon[LIVING], 25.0),
            ],
            mean_duration_mins: 40,
            preferred_hours: (15, 19),
            weight: 1.0,
        },
        Activity {
            name: "cook breakfast".into(),
            room: Room::Kitchen,
            binary_sensors: vec![d.motion[KITCHEN], d.flame],
            numeric_effects: vec![
                eff(d.temperature[KITCHEN], 4.0),
                eff(d.gas, 15.0),
                eff(d.sound[KITCHEN], 8.0),
                eff(d.beacon[KITCHEN], 25.0),
            ],
            mean_duration_mins: 20,
            preferred_hours: (6, 9),
            weight: 3.0,
        },
        Activity {
            name: "wash dishes".into(),
            room: Room::Kitchen,
            binary_sensors: vec![d.motion[KITCHEN]],
            numeric_effects: vec![
                eff(d.sound[KITCHEN], 9.0),
                eff(d.humidity[KITCHEN], 6.0),
                eff(d.beacon[KITCHEN], 25.0),
            ],
            mean_duration_mins: 15,
            preferred_hours: (19, 22),
            weight: 2.0,
        },
        Activity {
            name: "take medicine".into(),
            room: Room::Kitchen,
            binary_sensors: vec![d.motion[KITCHEN]],
            numeric_effects: vec![eff(d.beacon[KITCHEN], 25.0)],
            mean_duration_mins: 4,
            preferred_hours: (7, 9),
            weight: 1.0,
        },
        Activity {
            name: "bathe".into(),
            room: Room::Bathroom,
            binary_sensors: vec![d.motion[BATHROOM]],
            numeric_effects: vec![
                eff(d.humidity[BATHROOM], 20.0),
                eff(d.temperature[BATHROOM], 3.0),
                eff(d.beacon[BATHROOM], 25.0),
                eff(d.weight[2], 60.0),
            ],
            mean_duration_mins: 30,
            preferred_hours: (20, 22),
            weight: 1.0,
        },
        Activity {
            name: "dress".into(),
            room: Room::Bedroom,
            binary_sensors: vec![d.motion[2]],
            numeric_effects: vec![eff(d.beacon[BEDROOM], 25.0), eff(d.ultrasonic[2], -40.0)],
            mean_duration_mins: 8,
            preferred_hours: (7, 9),
            weight: 1.5,
        },
        Activity {
            name: "meditate".into(),
            room: Room::Bedroom,
            binary_sensors: vec![],
            numeric_effects: vec![eff(d.beacon[BEDROOM], 25.0), eff(d.weight[0], 70.0)],
            mean_duration_mins: 20,
            preferred_hours: (6, 8),
            weight: 0.8,
        },
        Activity {
            name: "phone call".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![eff(d.sound[LIVING], 7.0), eff(d.beacon[LIVING], 25.0)],
            mean_duration_mins: 12,
            preferred_hours: (10, 20),
            weight: 1.0,
        },
        Activity {
            name: "water plants".into(),
            room: Room::LivingRoom,
            binary_sensors: vec![d.motion[LIVING]],
            numeric_effects: vec![eff(d.humidity[LIVING], 4.0), eff(d.beacon[LIVING], 25.0)],
            mean_duration_mins: 8,
            preferred_hours: (9, 11),
            weight: 0.8,
        },
    ]
}

/// The testbed's automation rules (Section 4.1.2): Hue bulbs follow motion,
/// the hallway bulb follows the door contact, WeMo switches follow
/// temperature/humidity, blinds follow light level, the speaker follows the
/// living-room sound level.
pub fn automation_rules(d: &TestbedDevices) -> Vec<AutomationRule> {
    vec![
        AutomationRule {
            actuator: d.bulbs[0],
            condition: Condition::BinaryActive(d.motion[BEDROOM]),
        },
        AutomationRule {
            actuator: d.bulbs[1],
            condition: Condition::BinaryActive(d.motion[LIVING]),
        },
        AutomationRule {
            actuator: d.bulbs[2],
            condition: Condition::BinaryActive(d.door),
        },
        AutomationRule {
            actuator: d.speaker,
            condition: Condition::NumericAbove(d.sound[LIVING], 42.0),
        },
        AutomationRule {
            actuator: d.switches[0],
            condition: Condition::NumericAbove(d.temperature[LIVING], 21.9),
        },
        AutomationRule {
            actuator: d.switches[1],
            condition: Condition::NumericBelow(d.humidity[BEDROOM], 42.0),
        },
        AutomationRule {
            actuator: d.blinds[0],
            condition: Condition::NumericBelow(d.light[BEDROOM], 120.0),
        },
        AutomationRule {
            actuator: d.blinds[1],
            condition: Condition::NumericBelow(d.light[LIVING], 120.0),
        },
    ]
}

/// Actuator side effects on nearby numeric sensors.
pub fn actuator_effects(d: &TestbedDevices) -> Vec<ActuatorEffect> {
    vec![
        ActuatorEffect {
            actuator: d.bulbs[0],
            sensor: d.light[BEDROOM],
            delta: 150.0,
        },
        ActuatorEffect {
            actuator: d.bulbs[1],
            sensor: d.light[LIVING],
            delta: 150.0,
        },
        ActuatorEffect {
            actuator: d.bulbs[2],
            sensor: d.light[4],
            delta: 150.0,
        },
        ActuatorEffect {
            actuator: d.speaker,
            sensor: d.sound[LIVING],
            delta: 6.0,
        },
        ActuatorEffect {
            actuator: d.switches[0],
            sensor: d.temperature[LIVING],
            delta: -1.5,
        },
        ActuatorEffect {
            actuator: d.switches[1],
            sensor: d.humidity[BEDROOM],
            delta: 6.0,
        },
    ]
}

/// Builds a `D_*` dataset scenario: the testbed deployment running the first
/// `num_activities` activities of the catalog with `residents` residents for
/// `duration` (Table 4.1's bottom five rows).
///
/// # Panics
///
/// Panics if `num_activities` is zero or exceeds the catalog size.
pub fn dice_testbed(
    name: &str,
    seed: u64,
    duration: TimeDelta,
    num_activities: usize,
    residents: usize,
) -> ScenarioSpec {
    let (registry, devices) = build_registry();
    let catalog = activity_catalog(&devices);
    assert!(
        (1..=catalog.len()).contains(&num_activities),
        "num_activities must be in 1..={}",
        catalog.len()
    );
    let mut spec = ScenarioSpec::new(name, seed, registry);
    spec.activities = catalog.into_iter().take(num_activities).collect();
    spec.rules = automation_rules(&devices);
    spec.actuator_effects = actuator_effects(&devices);
    spec.periodic_effects = hvac_cycles(&devices);
    spec.duration = duration;
    spec.residents = residents;
    spec
}

/// The home's nocturnal HVAC cycle: ten heating minutes at the top of every
/// hour between 23:00 and 06:00, shifting every temperature sensor up and
/// every humidity sensor down. Night cycles exercise those sensors while the
/// home context is the stable sleep group, so a frozen or silenced sensor is
/// noticed within a day without inflating the daytime transition space.
pub fn hvac_cycles(d: &TestbedDevices) -> Vec<PeriodicEffect> {
    let mut cycles = Vec::new();
    for &sensor in &d.temperature {
        cycles.push(PeriodicEffect {
            sensor,
            delta: 1.5,
            period_mins: 60,
            duty_mins: 10,
            phase_mins: 0,
            active_hours: (23, 6),
        });
    }
    for &sensor in &d.humidity {
        cycles.push(PeriodicEffect {
            sensor,
            delta: -3.0,
            period_mins: 60,
            duty_mins: 10,
            phase_mins: 0,
            active_hours: (23, 6),
        });
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::Simulator;
    use dice_types::Timestamp;

    #[test]
    fn registry_matches_table_4_1() {
        let (reg, _) = build_registry();
        assert_eq!(reg.num_sensors(), 37);
        assert_eq!(reg.num_binary_sensors(), 6);
        assert_eq!(reg.num_numeric_sensors(), 31);
        assert_eq!(reg.num_actuators(), 8);
    }

    #[test]
    fn catalog_has_eighteen_valid_activities() {
        let (reg, devices) = build_registry();
        let catalog = activity_catalog(&devices);
        assert_eq!(catalog.len(), 26);
        for activity in &catalog {
            for s in &activity.binary_sensors {
                assert!(s.index() < reg.num_sensors());
            }
            assert!(activity.mean_duration_mins > 0);
            assert!(activity.weight > 0.0);
        }
    }

    #[test]
    fn scenario_validates_for_all_dataset_sizes() {
        for (name, acts, residents) in [
            ("D_houseA", 16, 1),
            ("D_houseB", 14, 1),
            ("D_houseC", 18, 1),
            ("D_twor", 9, 2),
            ("D_hh102", 18, 1),
        ] {
            let spec = dice_testbed(name, 3, TimeDelta::from_hours(10), acts, residents);
            assert_eq!(spec.validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn testbed_simulation_produces_mixed_events() {
        let spec = dice_testbed("D_test", 11, TimeDelta::from_hours(24), 18, 1);
        let sim = Simulator::new(spec).unwrap();
        let mut log = sim.log_between(Timestamp::ZERO, Timestamp::from_hours(24));
        let events = log.events();
        let sensors = events.iter().filter(|e| e.as_sensor().is_some()).count();
        let actuators = events.iter().filter(|e| e.as_actuator().is_some()).count();
        assert!(
            sensors > 10_000,
            "expected dense numeric sampling, got {sensors}"
        );
        assert!(actuators > 4, "actuators should cycle, got {actuators}");
    }

    #[test]
    #[should_panic(expected = "num_activities")]
    fn testbed_rejects_zero_activities() {
        let _ = dice_testbed("bad", 0, TimeDelta::from_hours(1), 0, 1);
    }
}
