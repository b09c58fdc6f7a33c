//! The synthetic fleet fixture behind `fleet-monitor` and bench-json's
//! `fleet_tracing_overhead` row.
//!
//! Homes are drawn from a handful of floor plans, each trained once and
//! shared through the [`ModelCache`], and stream a seeded per-home event
//! schedule through the sharded service's wire-frame ingestion path. A
//! fixed residue class of homes drops a correlated sensor, so every run
//! exercises the correlation check's candidate scan and alarm totals are
//! deterministic — invariant under the shard count (see `tests/fleet.rs`).

use std::sync::Arc;

use dice_core::{ContextExtractor, DiceConfig, DiceModel};
use dice_fleet::{Fleet, FleetConfig, FleetSender, ModelCache};
use dice_types::{
    DeviceRegistry, Event, EventLog, Room, SensorId, SensorKind, SensorReading, TimeDelta,
    Timestamp,
};

/// Distinct floor plans across the fleet; home `h` uses plan
/// `h % FLOOR_PLANS`, so model memory stays constant as homes scale.
pub(crate) const FLOOR_PLANS: usize = 4;

/// Homes with `h % 16 == FAULTY_RESIDUE` fail-stop their second sensor,
/// so a fixed 1/16 of the fleet raises deterministic alarms.
pub(crate) const FAULTY_RESIDUE: u32 = 3;

/// Training horizon per floor plan, in minutes.
const TRAINING_MINUTES: i64 = 240;

/// Floor plan `extra`'s registry: `3 + extra` motion sensors, the first
/// two correlated in the kitchen (mirroring the gateway test fixture).
fn plan_devices(extra: usize) -> (DeviceRegistry, Vec<SensorId>) {
    let mut registry = DeviceRegistry::new();
    let sensors = (0..3 + extra)
        .map(|i| {
            let room = if i < 2 { Room::Kitchen } else { Room::Bedroom };
            registry.add_sensor(SensorKind::Motion, format!("s{i}"), room)
        })
        .collect();
    (registry, sensors)
}

/// Trains floor plan `extra` on a deterministic alternating log: sensors
/// 0 and 1 fire together on even minutes (one correlation group), the
/// remaining sensors take turns on odd minutes.
fn train_plan(extra: usize) -> DiceModel {
    let (registry, sensors) = plan_devices(extra);
    let mut log = EventLog::new();
    for minute in 0..TRAINING_MINUTES {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            log.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            log.push_sensor(SensorReading::new(sensors[1], at, true.into()));
        } else {
            let idx = 2 + (minute as usize / 2) % (sensors.len() - 2);
            log.push_sensor(SensorReading::new(sensors[idx], at, true.into()));
        }
    }
    ContextExtractor::new(DiceConfig::default())
        .extract(&registry, &mut log)
        .expect("plan training log is non-empty")
}

/// A fleet under `config` serving homes `0..homes`, home `h` on plan
/// `h % FLOOR_PLANS`. Each plan is trained once through `cache`, so
/// repeated fleets over one cache share the same models.
pub(crate) fn plan_fleet(config: FleetConfig, cache: &ModelCache, homes: usize) -> Fleet {
    let models: Vec<Arc<DiceModel>> = (0..FLOOR_PLANS)
        .map(|k| cache.get_or_train(&format!("plan{k}"), || train_plan(k)))
        .collect();
    let mut fleet = Fleet::new(config);
    for h in 0..homes {
        fleet.register_home(h as u32, Arc::clone(&models[h % FLOOR_PLANS]));
    }
    fleet
}

/// The fixture's event feed for homes `0..homes` over `minutes` simulated
/// minutes, for [`Fleet::run`] or [`Fleet::run_preloaded`] over
/// `[0, minutes)`: every home fires sensors 0 and 1 together on even
/// minutes (the faulty residue class drops sensor 1) and rotates through
/// the remaining sensors on odd minutes.
pub(crate) fn feed(homes: usize, minutes: i64) -> impl FnOnce(&mut FleetSender<'_>) {
    let plan_sensors: Vec<Vec<SensorId>> = (0..FLOOR_PLANS).map(|k| plan_devices(k).1).collect();
    let homes = homes as u32;
    move |sender| {
        for minute in 0..minutes {
            for h in 0..homes {
                let sensors = &plan_sensors[h as usize % FLOOR_PLANS];
                // Each home's phase offset seeds its schedule within the
                // window without moving events across window boundaries.
                let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5 + i64::from(h % 7));
                if minute % 2 == 0 {
                    let reading = SensorReading::new(sensors[0], at, true.into());
                    sender.send(h, &Event::Sensor(reading));
                    if h % 16 != FAULTY_RESIDUE {
                        let partner = SensorReading::new(sensors[1], at, true.into());
                        sender.send(h, &Event::Sensor(partner));
                    }
                } else {
                    let idx = 2 + (minute as usize / 2) % (sensors.len() - 2);
                    let reading = SensorReading::new(sensors[idx], at, true.into());
                    sender.send(h, &Event::Sensor(reading));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_is_deterministic_and_alarms_on_faulty_homes() {
        let (homes, minutes) = (32, 20);
        let telemetry = dice_telemetry::Telemetry::recording();
        let config = FleetConfig {
            shards: 2,
            telemetry: telemetry.clone(),
            ..FleetConfig::default()
        };
        let fleet = plan_fleet(config, &ModelCache::new(), homes);
        let run = fleet.run(
            Timestamp::from_mins(0),
            Timestamp::from_mins(minutes),
            feed(homes, minutes),
        );
        let faulty_homes = (0..homes as u32)
            .filter(|h| h % 16 == FAULTY_RESIDUE)
            .count();
        let alarming_homes = run.alarms.iter().filter(|a| !a.reports.is_empty()).count();
        assert_eq!(run.stats.homes, 32);
        assert_eq!(run.stats.shards, 2);
        assert_eq!(run.stats.windows, 32 * 20);
        assert_eq!(run.stats.models_resident, FLOOR_PLANS);
        assert_eq!(faulty_homes, 2);
        assert_eq!(alarming_homes, faulty_homes);
        let snapshot = telemetry.snapshot().expect("recording sink");
        assert!(
            snapshot
                .counter("dice_engine_correlation_violations_total")
                .is_some_and(|n| n > 0),
            "faulty homes must violate the correlation check"
        );
        assert_eq!(
            run.stats.frames, run.stats.events,
            "all sent frames land in range"
        );
    }
}
