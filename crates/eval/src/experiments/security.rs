//! Section VI, "Expand to security": detecting sensor-spoofing attacks.
//!
//! The paper tests two attacks against the testbed: raising the living-room
//! temperature so the fan runs (wasting energy), and raising the bedroom
//! light reading at night so the blind pulls up while the resident sleeps
//! (privacy exposure). Both manipulate a numeric sensor's reported values,
//! which DICE sees as context violations.

use dice_datasets::DatasetId;
use dice_sim::testbed;
use dice_types::{DeviceId, Event, EventLog, SensorId, SensorReading, SensorValue, Timestamp};

use crate::runner::{run_faulty_segment, train_dataset, RunnerConfig};

/// Adds `delta` to every reading of `sensor` at or after `onset` — a value
/// spoofing attack on the sensor's reports.
pub fn spoof_sensor(log: EventLog, sensor: SensorId, onset: Timestamp, delta: f64) -> EventLog {
    let mut out = EventLog::new();
    for event in log.into_events() {
        match &event {
            Event::Sensor(r) if r.sensor == sensor && r.at >= onset => {
                if let SensorValue::Numeric(v) = r.value {
                    out.push_sensor(SensorReading::new(r.sensor, r.at, (v + delta).into()));
                } else {
                    out.push(event);
                }
            }
            _ => out.push(event),
        }
    }
    out
}

/// One attack scenario's outcome.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Attack description.
    pub name: String,
    /// Whether DICE raised any report after the attack began.
    pub detected: bool,
    /// Whether the attacked sensor was among the identified devices.
    pub identified: bool,
    /// Detection latency in minutes, if detected.
    pub latency_mins: Option<f64>,
}

/// Runs both of the paper's attack cases and returns their outcomes.
pub fn run_attacks(seed: u64) -> Vec<AttackOutcome> {
    let cfg = RunnerConfig {
        trials: 0,
        seed,
        ..RunnerConfig::default()
    };
    let td = train_dataset(DatasetId::DHouseA, &cfg);
    let (_, devices) = testbed::build_registry();

    // Case 1: spoof the living-room temperature up so the fan switch runs.
    // Case 2: spoof the bedroom light up at night so the blind opens.
    let living_temp = devices.temperature[3];
    let bedroom_light = devices.light[2];

    let segments = td.plan.segments();
    // Pick a segment covering night hours for the light attack: segments
    // tile from 300 h, so one starting at a multiple-of-24 boundary covers
    // midnight.
    let night_segment = segments
        .iter()
        .copied()
        .find(|s| s.start.as_secs() % 86_400 == 0)
        .unwrap_or(segments[0]);
    let day_segment = segments
        .iter()
        .copied()
        .find(|s| s.start.hour_of_day() == 12)
        .unwrap_or(segments[1]);

    let mut outcomes = Vec::new();
    for (name, segment, sensor, delta) in [
        ("temperature-spoof (fan)", day_segment, living_temp, 6.0),
        (
            "light-spoof-at-night (blind)",
            night_segment,
            bedroom_light,
            400.0,
        ),
    ] {
        let onset = segment.start + dice_types::TimeDelta::from_mins(60);
        let clean = td.sim.log_between(segment.start, segment.end);
        let mut attacked = spoof_sensor(clean, sensor, onset, delta);
        let report = run_faulty_segment(&td, &mut attacked, segment, onset).report;
        outcomes.push(AttackOutcome {
            name: name.into(),
            detected: report.is_some(),
            identified: report
                .as_ref()
                .is_some_and(|r| r.devices.contains(&DeviceId::Sensor(sensor))),
            latency_mins: report.map(|r| (r.detected_at - onset).as_mins_f64()),
        });
    }
    outcomes
}

/// Formats the security experiment.
pub fn security(seed: u64) -> String {
    let mut out = String::from("Section VI: Expand to Security (sensor spoofing attacks)\n");
    for outcome in run_attacks(seed) {
        out.push_str(&format!(
            "  {:<30} detected: {}  attacked sensor identified: {}  latency: {}\n",
            outcome.name,
            if outcome.detected { "yes" } else { "NO" },
            if outcome.identified { "yes" } else { "NO" },
            outcome
                .latency_mins
                .map_or("-".to_string(), |m| format!("{m:.0} min")),
        ));
    }
    out.push_str("paper: both attack cases were successfully detected\n");
    out
}
