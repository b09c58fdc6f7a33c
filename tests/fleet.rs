//! Fleet-layer guarantees: the wire-frame codec is byte-stable and
//! panic-free on untrusted input, alarm output is invariant under the
//! shard count, a single-home fleet matches the single-home gateway, and
//! fleet model memory scales with distinct floor plans, not homes.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dice_core::{ContextExtractor, DiceConfig, DiceEngine, DiceModel, FaultReport};
use dice_fleet::{
    decode_frame_slice, decode_frames, encode_frame, Fleet, FleetConfig, FleetRun, ModelCache,
    TraceClock,
};
use dice_gateway::{encode_event, GatewayStats, HomeGateway};
use dice_telemetry::{evaluate_health, standard_rules, HealthStatus, Telemetry};
use dice_types::{
    ActuatorEvent, ActuatorId, DeviceId, DeviceRegistry, Event, EventLog, Room, SensorId,
    SensorKind, SensorReading, TimeDelta, Timestamp,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The stalled-shard test compares wall-clock queue waits across shard
/// threads, which CPU contention from other tests in this binary can
/// swamp. It takes this lock exclusively; every other test here holds it
/// shared.
static CPU: RwLock<()> = RwLock::new(());

fn cpu_alone() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(PoisonError::into_inner)
}

fn cpu_shared() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(PoisonError::into_inner)
}

/// Floor plan `extra`: `3 + extra` motion sensors, the first two trained
/// to fire together (one correlation group) — the gateway test fixture,
/// widened per plan.
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

/// Trains floor plan `extra` on the deterministic alternating log.
fn train_plan(extra: usize) -> DiceModel {
    let (registry, sensors) = plan_devices(extra);
    let mut log = EventLog::new();
    for minute in 0..240 {
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
        .expect("training log is non-empty")
}

/// The live schedule for one home over `minutes`: the training pattern,
/// with sensor 1 fail-stopped when `drop_s1` is set.
fn live_events(sensors: &[SensorId], minutes: i64, drop_s1: bool) -> Vec<Event> {
    let mut events = Vec::new();
    for minute in 0..minutes {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            events.push(Event::Sensor(SensorReading::new(
                sensors[0],
                at,
                true.into(),
            )));
            if !drop_s1 {
                events.push(Event::Sensor(SensorReading::new(
                    sensors[1],
                    at,
                    true.into(),
                )));
            }
        } else {
            let idx = 2 + (minute as usize / 2) % (sensors.len() - 2);
            events.push(Event::Sensor(SensorReading::new(
                sensors[idx],
                at,
                true.into(),
            )));
        }
    }
    events
}

/// Streams the same 24-home, 30-minute fleet through `shards` shards.
/// Homes alternate between two floor plans; every home with id ≡ 1
/// (mod 5) fail-stops its second sensor.
fn run_fleet(shards: usize, plans: &[Arc<DiceModel>; 2]) -> FleetRun {
    run_fleet_with(
        FleetConfig {
            shards,
            queue_capacity: 8,
            frames_per_batch: 16,
            batch_windows: 16,
            ..FleetConfig::default()
        },
        plans,
    )
}

/// The 24-home fixture stream under an arbitrary `config`.
fn run_fleet_with(config: FleetConfig, plans: &[Arc<DiceModel>; 2]) -> FleetRun {
    const HOMES: u32 = 24;
    const MINUTES: i64 = 30;
    let sensors = [plan_devices(0).1, plan_devices(1).1];
    let mut fleet = Fleet::new(config);
    for h in 0..HOMES {
        fleet.register_home(h, Arc::clone(&plans[h as usize % 2]));
    }
    fleet.run(
        Timestamp::from_mins(0),
        Timestamp::from_mins(MINUTES),
        |sender| {
            for minute in 0..MINUTES {
                for h in 0..HOMES {
                    let plan = &sensors[h as usize % 2];
                    let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
                    if minute % 2 == 0 {
                        let lead = SensorReading::new(plan[0], at, true.into());
                        sender.send(h, &Event::Sensor(lead));
                        if h % 5 != 1 {
                            let partner = SensorReading::new(plan[1], at, true.into());
                            sender.send(h, &Event::Sensor(partner));
                        }
                    } else {
                        let idx = 2 + (minute as usize / 2) % (plan.len() - 2);
                        let reading = SensorReading::new(plan[idx], at, true.into());
                        sender.send(h, &Event::Sensor(reading));
                    }
                }
            }
        },
    )
}

#[test]
fn alarms_are_invariant_under_shard_count() {
    let _cpu = cpu_shared();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let one = run_fleet(1, &plans);
    let two = run_fleet(2, &plans);
    let eight = run_fleet(8, &plans);

    // The merged per-home alarm reports are bit-identical however the
    // homes were sharded.
    assert_eq!(one.alarms, two.alarms);
    assert_eq!(one.alarms, eight.alarms);

    // And they are the right alarms: exactly the seeded faulty homes.
    for home in &one.alarms {
        assert_eq!(
            !home.reports.is_empty(),
            home.home % 5 == 1,
            "home {} alarm state",
            home.home
        );
    }

    // Aggregate counters that don't depend on batching agree too.
    for other in [&two, &eight] {
        assert_eq!(one.stats.frames, other.stats.frames);
        assert_eq!(one.stats.events, other.stats.events);
        assert_eq!(one.stats.windows, other.stats.windows);
        assert_eq!(one.stats.alarms, other.stats.alarms);
        assert_eq!(one.stats.suppressed, other.stats.suppressed);
        assert_eq!(one.stats.decode_errors, 0);
    }
    assert_eq!(one.stats.windows, 24 * 30);
    assert_eq!(eight.stats.shards, 8);
}

#[test]
fn lineage_ids_are_monotone_per_shard_with_frozen_stage_deltas() {
    let _cpu = cpu_shared();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    for shards in [1usize, 2, 8] {
        // A frozen manual clock: every stage delta must come out exactly
        // zero (deltas are computed on one monotone clock, never from
        // mixed time sources), while lineage blocks stay monotone.
        let (clock, _ticks) = TraceClock::manual();
        let run = run_fleet_with(
            FleetConfig {
                shards,
                queue_capacity: 8,
                frames_per_batch: 16,
                batch_windows: 16,
                clock,
                ..FleetConfig::default()
            },
            &plans,
        );
        assert_eq!(run.lineage.len(), shards);
        assert!(run.lineage.iter().any(|records| !records.is_empty()));
        for (shard, records) in run.lineage.iter().enumerate() {
            // Consecutive sweeps of one batch share its lineage block;
            // whenever the block advances it must clear the previous one.
            for pair in records.windows(2) {
                assert!(
                    pair[1].lineage == pair[0].lineage
                        || pair[0].lineage + u64::from(pair[0].frames) <= pair[1].lineage,
                    "shard {shard}: lineage blocks must be monotone and disjoint"
                );
            }
            for record in records {
                assert!(record.frames > 0);
                assert_eq!(record.shard as usize, shard);
                let stages = [
                    record.enqueue_wait_ns,
                    record.queue_wait_ns,
                    record.dequeue_ns,
                    record.scan_ns,
                    record.verdict_ns,
                    record.publish_ns,
                ];
                assert_eq!(stages, [0; 6], "frozen clock must yield zero deltas");
            }
        }
        // Delivered alarms carry the lineage stamp of their sweep, and
        // the stamp names the shard that served the home.
        let stamped: Vec<_> = run
            .alarms
            .iter()
            .flat_map(|h| {
                h.reports
                    .iter()
                    .filter_map(|r| r.lineage.map(|s| (h.home, s)))
            })
            .collect();
        assert!(
            !stamped.is_empty(),
            "fleet alarms must carry lineage stamps"
        );
        for (home, stamp) in stamped {
            assert_eq!(
                stamp.shard as usize,
                dice_fleet::shard_for_home(home, shards),
                "stamp must name the serving shard"
            );
        }
    }
}

#[test]
fn preloaded_runs_are_reproducible_and_match_threaded_alarms() {
    let _cpu = cpu_shared();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let config = |clock: TraceClock| FleetConfig {
        shards: 4,
        frames_per_batch: 16,
        batch_windows: 16,
        clock,
        ..FleetConfig::default()
    };
    const HOMES: u32 = 24;
    const MINUTES: i64 = 30;
    let sensors = [plan_devices(0).1, plan_devices(1).1];
    let preload = |clock: TraceClock| {
        let mut fleet = Fleet::new(config(clock));
        for h in 0..HOMES {
            fleet.register_home(h, Arc::clone(&plans[h as usize % 2]));
        }
        fleet.run_preloaded(
            Timestamp::from_mins(0),
            Timestamp::from_mins(MINUTES),
            |sender| {
                for minute in 0..MINUTES {
                    for h in 0..HOMES {
                        let plan = &sensors[h as usize % 2];
                        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
                        if minute % 2 == 0 {
                            let lead = SensorReading::new(plan[0], at, true.into());
                            sender.send(h, &Event::Sensor(lead));
                            if h % 5 != 1 {
                                let partner = SensorReading::new(plan[1], at, true.into());
                                sender.send(h, &Event::Sensor(partner));
                            }
                        } else {
                            let idx = 2 + (minute as usize / 2) % (plan.len() - 2);
                            let reading = SensorReading::new(plan[idx], at, true.into());
                            sender.send(h, &Event::Sensor(reading));
                        }
                    }
                }
            },
        )
    };
    let a = preload(TraceClock::manual().0);
    let b = preload(TraceClock::manual().0);
    // With a frozen manual clock the whole run — stats, alarms, lineage
    // records — is deterministic, which is what byte-stable fleet-monitor
    // frames build on.
    assert_eq!(a, b);
    let threaded = run_fleet_with(config(TraceClock::manual().0), &plans);
    assert_eq!(a.alarms, threaded.alarms);
    assert_eq!(a.stats.windows, threaded.stats.windows);
}

#[test]
fn stalled_shard_grows_queue_waits_and_trips_the_straggler_rule() {
    let _cpu = cpu_alone();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let telemetry = Telemetry::recording();
    // Shard 0 sleeps 3ms per batch behind a 2-deep queue: its queue-wait
    // sketch must grow and the producer must block (counted in
    // occurrences and nanoseconds), while the other shards stay prompt —
    // exactly the straggler shape the health rule grades.
    let run = run_fleet_with(
        FleetConfig {
            shards: 4,
            queue_capacity: 2,
            frames_per_batch: 4,
            batch_windows: 16,
            telemetry: telemetry.clone(),
            stall: Some((0, 3)),
            ..FleetConfig::default()
        },
        &plans,
    );
    assert!(run.stats.backpressure_waits > 0, "sender must have blocked");
    assert!(
        run.stats.backpressure_wait_ns > 0,
        "blocked time must be measured, not just counted"
    );

    let snapshot = telemetry.snapshot().unwrap();
    let children = snapshot
        .sketch_family("dice_fleet_stage_queue_wait_ns")
        .unwrap();
    let stalled = children
        .iter()
        .find(|c| c.values == ["s0"])
        .expect("stalled shard records queue waits");
    assert!(stalled.count > 0);
    let best_other = children
        .iter()
        .filter(|c| c.values != ["s0"])
        .map(|c| c.p99)
        .max()
        .expect("other shards record too");
    assert!(
        stalled.p99 > best_other.saturating_mul(4),
        "stalled shard p99 {} must dwarf the others' {best_other}",
        stalled.p99
    );

    // The injected slow shard drives the straggler rule to warn/crit.
    let report = evaluate_health(&standard_rules(), &snapshot, false);
    let row = report
        .rows
        .iter()
        .find(|r| r.id == "fleet_stage_straggler")
        .expect("straggler rule is a standard rule");
    assert!(
        matches!(row.status, Some(HealthStatus::Warn | HealthStatus::Crit)),
        "straggler rule must fire, got {:?} ({})",
        row.status,
        row.observed
    );

    // Per-shard back-pressure families point at the stalled shard.
    let waits = snapshot
        .family_series("dice_fleet_shard_backpressure_waits_total")
        .unwrap();
    let wait_ns = snapshot
        .family_series("dice_fleet_shard_backpressure_wait_ns_total")
        .unwrap();
    assert!(waits.iter().any(|(v, n)| v == &["s0"] && *n > 0));
    assert!(wait_ns.iter().any(|(v, n)| v == &["s0"] && *n > 0));
}

#[test]
fn single_home_fleet_matches_the_gateway() {
    let _cpu = cpu_shared();
    let model = Arc::new(train_plan(0));
    let sensors = plan_devices(0).1;
    let events = live_events(&sensors, 120, true);
    let from = Timestamp::from_mins(0);
    let to = Timestamp::from_mins(120);

    // The single-home gateway, fed the same stream over one aggregator
    // channel.
    let (tx, rx) = crossbeam::channel::unbounded();
    for event in &events {
        tx.send(encode_event(event)).unwrap();
    }
    drop(tx);
    let (alarm_tx, alarm_rx) = crossbeam::channel::unbounded();
    let gateway = HomeGateway::new(Arc::clone(&model));
    let stats = gateway.run(vec![rx], &alarm_tx, from, to);
    drop(alarm_tx);
    let gateway_reports: Vec<_> = alarm_rx.iter().map(|a| a.report).collect();
    assert!(
        !gateway_reports.is_empty(),
        "the fail-stopped sensor must alarm"
    );

    // A one-home fleet over the wire-frame path.
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    fleet.register_home(0, model);
    let run = fleet.run(from, to, |sender| {
        for event in &events {
            sender.send(0, event);
        }
    });

    assert_eq!(run.alarms.len(), 1);
    assert_eq!(run.alarms[0].home, 0);
    assert_eq!(run.alarms[0].reports, gateway_reports);
    assert_eq!(run.stats.windows, stats.windows);
}

#[test]
fn fleet_memory_scales_with_distinct_models() {
    let _cpu = cpu_shared();
    let cache = ModelCache::new();
    let mut fleet = Fleet::new(FleetConfig::default());
    for h in 0..100u32 {
        let plan = h as usize % 3;
        let model = cache.get_or_train(&format!("plan{plan}"), || train_plan(plan));
        fleet.register_home(h, model);
    }
    assert_eq!(fleet.homes(), 100);
    assert_eq!(cache.len(), 3);
    assert_eq!(
        fleet.models_resident(),
        3,
        "100 homes must share 3 model allocations"
    );
}

/// An arbitrary event covering all three frame tags. Numeric values stay
/// finite so decoded equality is well-defined.
fn event_strategy() -> impl Strategy<Value = Event> {
    (
        0u8..3,
        any::<u32>(),
        -1_000_000_000i64..1_000_000_000i64,
        any::<bool>(),
        -1.0e12f64..1.0e12,
    )
        .prop_map(|(tag, id, secs, b, v)| {
            let at = Timestamp::from_secs(secs);
            match tag {
                0 => Event::Sensor(SensorReading::new(SensorId::new(id), at, b.into())),
                1 => Event::Sensor(SensorReading::new(SensorId::new(id), at, v.into())),
                _ => Event::Actuator(ActuatorEvent::new(ActuatorId::new(id), at, b)),
            }
        })
}

proptest! {
    /// Encode → decode → re-encode is the identity on frames: the decoded
    /// frame equals the input and the re-encoded bytes are byte-identical
    /// (the wire format has one canonical encoding).
    #[test]
    fn frames_round_trip_byte_stably(home in any::<u32>(), event in event_strategy()) {
        let _cpu = cpu_shared();
        let encoded = encode_frame(home, &event);
        let (frame, used) = decode_frame_slice(&encoded).expect("own encoding must decode");
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(frame.home, home);
        prop_assert_eq!(&frame.event, &event);
        let again = encode_frame(frame.home, &frame.event);
        prop_assert_eq!(again.as_slice(), encoded.as_slice());
    }

    /// Decoding never panics on arbitrary bytes — truncated, corrupt, or
    /// oversized input returns an error (or a shorter valid frame), and
    /// the batch iterator terminates.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        data in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _cpu = cpu_shared();
        let _ = decode_frame_slice(&data);
        let frames: Vec<_> = decode_frames(&data).collect();
        // The iterator stops at the first error, so it is finite and any
        // error is last.
        for result in &frames[..frames.len().saturating_sub(1)] {
            prop_assert!(result.is_ok());
        }
    }

    /// Flipping any single byte of a valid frame either still decodes (the
    /// flipped byte was payload, id, or timestamp) or returns an error —
    /// never a panic, and never a frame that re-encodes differently from a
    /// canonical encoding of itself.
    #[test]
    fn corrupted_frames_fail_closed(
        home in any::<u32>(),
        event in event_strategy(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let _cpu = cpu_shared();
        let mut bytes = encode_frame(home, &event).as_slice().to_vec();
        let at = flip_at % bytes.len();
        bytes[at] ^= flip_bits;
        if let Ok((frame, used)) = decode_frame_slice(&bytes) {
            // Whatever decoded must re-encode to exactly the bytes it was
            // decoded from (bit-exact even for odd float payloads).
            let canonical = encode_frame(frame.home, &frame.event);
            prop_assert_eq!(canonical.as_slice(), &bytes[..used]);
        }
    }
}

// Differential test: the reference engine, the single-home gateway and the
// fleet on the same messy streams.

/// One home's generated stream, in arrival order.
struct MessyHome {
    id: u32,
    plan: usize,
    events: Vec<Event>,
}

/// A seeded multi-home stream over `[from, to)`.
struct MessyFleet {
    from: Timestamp,
    to: Timestamp,
    homes: Vec<MessyHome>,
}

/// Generates one multi-home stream. Every stream has an unaligned `from`
/// and `to` (so the first window is aligned down and the last is
/// clipped), gaps and therefore empty windows, duplicate events, unknown
/// sensor and actuator ids, numeric readings on binary sensors, events
/// just outside the range, some fail-stopped homes, and one home whose
/// first event arrives more than two hours into the stream. With
/// `ordered` unset, some events are delivered late: behind events with
/// later timestamps, often across window boundaries.
fn messy_fleet(rng: &mut StdRng, ordered: bool) -> MessyFleet {
    const MINUTES: i64 = 150;
    let from = Timestamp::from_secs(rng.gen_range(1..60));
    let tail_secs = rng.gen_range(1..60);
    let to = Timestamp::from_mins(MINUTES) + TimeDelta::from_secs(tail_secs);
    let n_homes = rng.gen_range(2..=4usize);
    let late_home = rng.gen_range(0..n_homes);
    let mut homes = Vec::new();
    for h in 0..n_homes {
        let plan = h % 2;
        let sensors = plan_devices(plan).1;
        let first_minute = if h == late_home {
            rng.gen_range(125..140)
        } else {
            0
        };
        // Some homes fail-stop two minutes before the end, so their fault
        // is identified in the clipped last window.
        let fail_stop_at = match rng.gen_range(0..10) {
            0..=2 => None,
            3..=4 => Some(MINUTES - 2),
            _ => Some(rng.gen_range(first_minute..MINUTES)),
        };
        let mut events = vec![Event::Sensor(SensorReading::new(
            sensors[0],
            from - TimeDelta::from_secs(1),
            true.into(),
        ))];
        let mut minute = first_minute;
        while minute <= MINUTES {
            if rng.gen_bool(0.04) {
                minute += rng.gen_range(1..20i64); // a gap of empty windows
                continue;
            }
            let secs = if minute == MINUTES { tail_secs } else { 60 };
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(rng.gen_range(0..secs));
            let mut fire = |sensor: SensorId| {
                let event = Event::Sensor(SensorReading::new(sensor, at, true.into()));
                events.push(event);
                if rng.gen_bool(0.1) {
                    events.push(event); // duplicate delivery
                }
            };
            if minute % 2 == 0 {
                fire(sensors[0]);
                if fail_stop_at.is_none_or(|stop| minute < stop) {
                    fire(sensors[1]);
                }
            } else {
                fire(sensors[2 + (minute as usize / 2) % (sensors.len() - 2)]);
            }
            match rng.gen_range(0..40) {
                0 => events.push(Event::Sensor(SensorReading::new(
                    SensorId::new(40),
                    at,
                    true.into(),
                ))),
                1 => events.push(Event::Actuator(ActuatorEvent::new(
                    ActuatorId::new(9),
                    at,
                    true,
                ))),
                2 => events.push(Event::Sensor(SensorReading::new(
                    sensors[2],
                    at,
                    21.5.into(),
                ))),
                _ => {}
            }
            minute += 1;
        }
        events.push(Event::Sensor(SensorReading::new(
            sensors[0],
            to,
            true.into(),
        )));
        if !ordered {
            // Deliver some events late: move each picked event up to
            // eight places later in the stream.
            for i in (0..events.len()).rev() {
                if rng.gen_bool(0.08) {
                    let event = events.remove(i);
                    let to_index = (i + rng.gen_range(1..=8usize)).min(events.len());
                    events.insert(to_index, event);
                }
            }
        }
        homes.push(MessyHome {
            id: 37 * h as u32 + 5,
            plan,
            events,
        });
    }
    MessyFleet { from, to, homes }
}

/// The alarm cooldown restated independently of the serving code: a
/// report is delivered when it names no device, or names a device whose
/// most recent delivered alarm is more than `cooldown` old.
fn apply_cooldown(reports: Vec<FaultReport>, cooldown: TimeDelta) -> Vec<FaultReport> {
    let mut delivered: Vec<FaultReport> = Vec::new();
    for report in reports {
        let now = report.identified_at;
        let last_alarm = |device: &DeviceId| {
            delivered
                .iter()
                .rev()
                .find(|r| r.devices.contains(device))
                .map(|r| r.identified_at)
        };
        let fresh = report.devices.is_empty()
            || report
                .devices
                .iter()
                .any(|d| last_alarm(d).is_none_or(|at| now - at > cooldown));
        if fresh {
            delivered.push(report);
        }
    }
    delivered
}

/// The reference: one offline engine over the home's in-range events,
/// sorted into an `EventLog` and windowed by `process_range` from `from`
/// aligned down to the window grid, then flushed, then the cooldown.
/// Returns the delivered reports and the window count.
fn reference_home(
    model: &DiceModel,
    events: &[Event],
    from: Timestamp,
    to: Timestamp,
) -> (Vec<FaultReport>, u64) {
    let window = model.config().window();
    let start = from.align_down(window);
    let mut log: EventLog = events
        .iter()
        .copied()
        .filter(|e| e.at() >= from && e.at() < to)
        .collect();
    let windows = log.windows_between(start, to, window).count() as u64;
    let mut engine = DiceEngine::new(model);
    let mut reports = engine.process_range(&mut log, start, to);
    reports.extend(engine.flush());
    (apply_cooldown(reports, TimeDelta::from_mins(60)), windows)
}

/// Serves one home through `HomeGateway::run` with its stream split over
/// `channels`, returning the delivered reports and the gateway's stats.
fn gateway_home(
    model: &Arc<DiceModel>,
    channels: Vec<Vec<Event>>,
    from: Timestamp,
    to: Timestamp,
) -> (Vec<FaultReport>, GatewayStats) {
    let receivers = channels
        .into_iter()
        .map(|events| {
            let (tx, rx) = crossbeam::channel::unbounded();
            for event in &events {
                tx.send(encode_event(event)).unwrap();
            }
            rx
        })
        .collect();
    let (alarm_tx, alarm_rx) = crossbeam::channel::unbounded();
    let stats = HomeGateway::new(Arc::clone(model)).run(receivers, &alarm_tx, from, to);
    drop(alarm_tx);
    (alarm_rx.iter().map(|a| a.report).collect(), stats)
}

/// Splits a stream over `k` channels so that the gateway's time-ordered
/// merge hands it back in arrival order: the stream is cut only where
/// every earlier event is strictly older than every later one, and each
/// block goes to a random channel. A late event therefore always shares a
/// channel with the events it arrived behind.
fn split_channels(rng: &mut StdRng, events: &[Event], k: usize) -> Vec<Vec<Event>> {
    let mut suffix_min = vec![Timestamp::from_secs(i64::MAX); events.len() + 1];
    for i in (0..events.len()).rev() {
        suffix_min[i] = suffix_min[i + 1].min(events[i].at());
    }
    let mut channels = vec![Vec::new(); k];
    let mut channel = 0;
    let mut prefix_max = Timestamp::from_secs(i64::MIN);
    for (i, event) in events.iter().enumerate() {
        if i > 0 && prefix_max < suffix_min[i] && rng.gen_bool(0.3) {
            channel = rng.gen_range(0..k);
        }
        channels[channel].push(*event);
        prefix_max = prefix_max.max(event.at());
    }
    channels
}

/// Feeds the fleet every home's stream, interleaving homes in random
/// chunks (each home's own order is kept) and mixing in frames for a home
/// that is not registered.
fn feed_messy(rng: &mut StdRng, fleet: &MessyFleet) -> Vec<(u32, Event)> {
    let mut cursors = vec![0; fleet.homes.len()];
    let mut frames = Vec::new();
    loop {
        let live: Vec<usize> = (0..fleet.homes.len())
            .filter(|&h| cursors[h] < fleet.homes[h].events.len())
            .collect();
        if live.is_empty() {
            return frames;
        }
        let h = live[rng.gen_range(0..live.len())];
        let home = &fleet.homes[h];
        let end = (cursors[h] + rng.gen_range(1..=8usize)).min(home.events.len());
        for event in &home.events[cursors[h]..end] {
            frames.push((home.id, *event));
        }
        cursors[h] = end;
        if rng.gen_bool(0.05) {
            frames.push((999, home.events[end - 1]));
        }
    }
}

/// The same seeded streams through three paths: (a) the offline reference
/// engine, (b) `HomeGateway::run` over one channel and over several, and
/// (c) `Fleet::run` and `Fleet::run_preloaded` under seeded shard counts,
/// queue capacities and batch sizes. The gateway and the fleet must
/// deliver equal alarms and window counts on every stream. They must also
/// equal the reference on time-ordered streams; the reference sorts its
/// input, so it is not compared on the streams with late events, where
/// both serving paths keep a late event in the window that is open when
/// it arrives.
#[test]
fn reference_gateway_and_fleet_agree_on_messy_streams() {
    let _cpu = cpu_shared();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let (mut delivered, mut suppressed, mut late_events) = (0u64, 0u64, 0usize);
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ordered = seed % 3 != 2;
        let fleet = messy_fleet(&mut rng, ordered);
        let (from, to) = (fleet.from, fleet.to);

        let mut gateway_reports = Vec::new();
        let mut gateway_windows = 0;
        let mut gateway_events = 0;
        for home in &fleet.homes {
            let model = &plans[home.plan];
            let (one, one_stats) = gateway_home(model, vec![home.events.clone()], from, to);
            let k = rng.gen_range(2..=4);
            let channels = split_channels(&mut rng, &home.events, k);
            let (many, many_stats) = gateway_home(model, channels, from, to);
            assert_eq!(one, many, "seed {seed} home {}: channel split", home.id);
            assert_eq!(one_stats.windows, many_stats.windows);
            assert_eq!(one_stats.events, many_stats.events);
            if ordered {
                let (reference, windows) = reference_home(model, &home.events, from, to);
                assert_eq!(one, reference, "seed {seed} home {}: reference", home.id);
                assert_eq!(one_stats.windows, windows, "seed {seed} home {}", home.id);
            } else {
                late_events += home.events[..]
                    .windows(2)
                    .filter(|pair| pair[1].at() < pair[0].at())
                    .count();
            }
            gateway_windows += one_stats.windows;
            gateway_events += one_stats.events;
            gateway_reports.push((home.id, one));
        }
        gateway_reports.sort_by_key(|(id, _)| *id);

        let frames = feed_messy(&mut rng, &fleet);
        for preloaded in [false, true] {
            let config = FleetConfig {
                shards: rng.gen_range(1..=4),
                queue_capacity: rng.gen_range(1..=16),
                frames_per_batch: rng.gen_range(1..=32),
                batch_windows: rng.gen_range(1..=64),
                clock: TraceClock::manual().0,
                ..FleetConfig::default()
            };
            let label = format!("seed {seed} preloaded {preloaded} {config:?}");
            let mut service = Fleet::new(config);
            for home in &fleet.homes {
                service.register_home(home.id, Arc::clone(&plans[home.plan]));
            }
            let feed = |sender: &mut dice_fleet::FleetSender<'_>| {
                for (home, event) in &frames {
                    sender.send(*home, event);
                }
            };
            let run = if preloaded {
                service.run_preloaded(from, to, feed)
            } else {
                service.run(from, to, feed)
            };
            let fleet_reports: Vec<_> = run
                .alarms
                .iter()
                .map(|h| (h.home, h.reports.clone()))
                .collect();
            assert_eq!(fleet_reports, gateway_reports, "{label}");
            assert_eq!(run.stats.windows, gateway_windows, "{label}");
            assert_eq!(run.stats.events, gateway_events, "{label}");
            assert_eq!(run.stats.frames, frames.len() as u64, "{label}");
            delivered += run.stats.alarms;
            suppressed += run.stats.suppressed;
        }
    }
    // The generated streams exercise both sides of the cooldown and
    // really do deliver events late.
    assert!(
        delivered > 0 && suppressed > 0,
        "{delivered} / {suppressed}"
    );
    assert!(late_events > 0);
}
