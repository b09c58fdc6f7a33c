//! Decision-trace evidence stays per home in the fleet. Each fleet home's
//! engine session owns its flight recorder, so the evidence on a fleet
//! alarm is exactly what a standalone engine with the same trace options
//! attaches when it replays that home's stream alone — even though the
//! shard judges every home with one engine machinery and the homes'
//! frames arrive interleaved one by one.
//!
//! The fleet takes its trace options from `TraceOptions::global()`, which
//! can be installed only once per process and only before it is first
//! read, so this binary holds this one test and installs them first.

use std::sync::Arc;

use dice_core::{ContextExtractor, DiceConfig, DiceEngine, DiceModel, EngineOptions, TraceOptions};
use dice_fleet::{Fleet, FleetConfig, TraceClock};
use dice_gateway::AlarmLedger;
use dice_types::{DeviceRegistry, Event, EventLog, Room, SensorId, SensorKind, SensorReading};
use dice_types::{TimeDelta, Timestamp};

const COOLDOWN: TimeDelta = TimeDelta::from_mins(30);

/// Floor plan `extra`: `3 + extra` motion sensors.
fn plan_sensors(extra: usize) -> (DeviceRegistry, Vec<SensorId>) {
    let mut registry = DeviceRegistry::new();
    let sensors = (0..3 + extra)
        .map(|i| {
            let room = if i < 2 { Room::Kitchen } else { Room::Bedroom };
            registry.add_sensor(SensorKind::Motion, format!("s{i}"), room)
        })
        .collect();
    (registry, sensors)
}

/// The events of one home over `minutes`: the first two sensors together
/// on even minutes and one of the others on odd minutes, with sensor 1
/// fail-stopped from minute `fail_from` on.
fn schedule(sensors: &[SensorId], minutes: i64, fail_from: i64) -> Vec<Event> {
    let mut events = Vec::new();
    for minute in 0..minutes {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        let fire = if minute % 2 == 1 {
            vec![sensors[2 + (minute as usize / 2) % (sensors.len() - 2)]]
        } else if minute >= fail_from {
            vec![sensors[0]]
        } else {
            vec![sensors[0], sensors[1]]
        };
        events.extend(
            fire.into_iter()
                .map(|s| Event::Sensor(SensorReading::new(s, at, true.into()))),
        );
    }
    events
}

/// Trains plan `extra` on its fault-free schedule.
fn train_plan(extra: usize) -> Arc<DiceModel> {
    let (registry, sensors) = plan_sensors(extra);
    let mut log = EventLog::new();
    for event in schedule(&sensors, 240, i64::MAX) {
        if let Event::Sensor(reading) = event {
            log.push_sensor(reading);
        }
    }
    let model = ContextExtractor::new(DiceConfig::default())
        .extract(&registry, &mut log)
        .expect("training log is non-empty");
    Arc::new(model)
}

#[test]
fn fleet_alarm_evidence_matches_a_standalone_engine_per_home() {
    assert!(
        TraceOptions::install_global(TraceOptions::recording()),
        "the trace options must be installed before anything reads them"
    );
    const MINUTES: i64 = 240;
    let plans = [train_plan(0), train_plan(1)];
    let sensors = [plan_sensors(0).1, plan_sensors(1).1];
    // Six homes on two plans: four fail at staggered minutes, two stay
    // healthy.
    let fail_from = [20, 45, 70, 95, i64::MAX, i64::MAX];
    let streams: Vec<Vec<Event>> = fail_from
        .iter()
        .enumerate()
        .map(|(h, &from)| schedule(&sensors[h % 2], MINUTES, from))
        .collect();

    let mut fleet = Fleet::new(FleetConfig {
        shards: 2,
        frames_per_batch: 8,
        batch_windows: 4,
        alarm_cooldown: COOLDOWN,
        clock: TraceClock::manual().0,
        ..FleetConfig::default()
    });
    for h in 0..streams.len() {
        fleet.register_home(h as u32, Arc::clone(&plans[h % 2]));
    }
    let to = Timestamp::from_mins(MINUTES);
    let run = fleet.run_preloaded(Timestamp::ZERO, to, |sender| {
        // One frame of each home in turn.
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (h, stream) in streams.iter().enumerate() {
                if let Some(event) = stream.get(i) {
                    sender.send(h as u32, event);
                }
            }
        }
    });

    let mut homes_with_alarms = 0;
    for alarms in &run.alarms {
        let h = alarms.home as usize;
        let model = &plans[h % 2];
        let mut engine = DiceEngine::with_options(
            Arc::clone(model),
            EngineOptions {
                trace: TraceOptions::global(),
                ..EngineOptions::default()
            },
        );
        let mut log: EventLog = streams[h].iter().copied().collect();
        let mut reports = engine.process_range(&mut log, Timestamp::ZERO, to);
        reports.extend(engine.flush());
        let mut ledger = AlarmLedger::new(COOLDOWN);
        reports.retain(|report| ledger.admit(report));

        // `FaultReport`'s equality ignores the evidence, so compare both.
        assert_eq!(alarms.reports, reports, "home {h}");
        for (k, (fleet, alone)) in alarms.reports.iter().zip(&reports).enumerate() {
            assert!(
                !alone.evidence.is_empty(),
                "home {h} alarm {k} has no evidence"
            );
            assert_eq!(fleet.evidence, alone.evidence, "home {h} alarm {k}");
        }
        if !reports.is_empty() {
            homes_with_alarms += 1;
        }
    }
    assert_eq!(run.alarms.len(), streams.len());
    assert!(
        homes_with_alarms >= 4,
        "only {homes_with_alarms} homes raised alarms"
    );
}
