//! Fleet-layer guarantees: the wire-frame codec is byte-stable and
//! panic-free on untrusted input, alarm output is invariant under the
//! shard count, a single-home fleet matches the single-home gateway, the
//! shards' and the gateway's batched telemetry counters match their runs'
//! stats, malformed frames get the same typed error on both serving
//! paths, and fleet model memory scales with distinct floor plans, not
//! homes.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dice_core::{
    ContextExtractor, DetectionDetail, DiceConfig, DiceEngine, DiceModel, FaultReport,
    TransitionCase,
};
use dice_fleet::{
    decode_frame_slice, decode_frames, encode_frame, shard_for_home, Fleet, FleetConfig,
    FleetFrameError, FleetRun, ModelCache, TraceClock,
};
use dice_gateway::{
    decode_event, encode_event, partition_by_device, EventFrame, FrameError, GatewayStats,
    HomeGateway,
};
use dice_telemetry::{evaluate_health, standard_rules, HealthStatus, Snapshot, Telemetry};
use dice_types::{
    ActuatorEvent, ActuatorId, ActuatorKind, DeviceId, DeviceRegistry, Event, EventLog, Room,
    SensorId, SensorKind, SensorReading, TimeDelta, Timestamp,
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

/// Serves `frames` on three shards, in the order given.
fn run_frames(frames: &[(u32, Event)], homes: &[u32], plans: &[Arc<DiceModel>; 2]) -> FleetRun {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 3,
        queue_capacity: 4,
        frames_per_batch: 5,
        batch_windows: 7,
        clock: TraceClock::manual().0,
        ..FleetConfig::default()
    });
    for &home in homes {
        fleet.register_home(home, Arc::clone(&plans[home as usize % 2]));
    }
    fleet.run(Timestamp::ZERO, Timestamp::from_mins(30), |sender| {
        for (home, event) in frames {
            sender.send(*home, event);
        }
    })
}

/// The sender routes, and each shard looks up, a home once per run of its
/// frames. A stream that switches home on every frame, opens with a frame
/// for the unregistered home 0 (which must not match before the first
/// lookup), and puts an unregistered home between two frames of one
/// registered home must serve exactly as the same frames fed one home at
/// a time.
#[test]
fn home_runs_of_one_frame_serve_like_whole_home_streams() {
    let _cpu = cpu_shared();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    // Two registered homes per shard, so each shard also switches home on
    // every frame while both of its homes have frames left.
    let mut homes = Vec::new();
    for shard in 0..3 {
        homes.extend((1..).filter(|&h| shard_for_home(h, 3) == shard).take(2));
    }
    let streams: Vec<Vec<Event>> = homes
        .iter()
        .map(|&home| {
            let sensors = &plan_devices(home as usize % 2).1;
            live_events(sensors, 30, home % 3 == 0)
        })
        .collect();
    let stray = streams[0][0];
    let mut interleaved: Vec<(u32, Event)> = vec![(0, stray)];
    for i in 0..streams.iter().map(Vec::len).max().unwrap() {
        for (&home, events) in homes.iter().zip(&streams) {
            if let Some(&event) = events.get(i) {
                interleaved.push((home, event));
            }
        }
    }
    // Home 999 is unregistered: homes[0] → 999 → homes[0].
    let at = interleaved
        .iter()
        .position(|&(home, _)| home == homes[0])
        .unwrap();
    interleaved.insert(at + 1, (999, stray));
    interleaved.insert(at + 2, (homes[0], stray));
    for pair in interleaved.windows(2) {
        assert_ne!(pair[0].0, pair[1].0, "the stream switches home every frame");
    }

    // The reference feeds the unregistered homes' frames last, behind
    // registered ones.
    let mut one_home_at_a_time = interleaved.clone();
    one_home_at_a_time.sort_by_key(|&(home, _)| (!homes.contains(&home), home));
    let switching = run_frames(&interleaved, &homes, &plans);
    let whole = run_frames(&one_home_at_a_time, &homes, &plans);
    assert_eq!(switching.alarms, whole.alarms);
    assert_eq!(switching.stats.frames, whole.stats.frames);
    assert_eq!(switching.stats.events, whole.stats.events);
    assert_eq!(switching.stats.windows, whole.stats.windows);
    assert_eq!(switching.stats.frames, interleaved.len() as u64);
    // Only the registered homes' frames are served, and the faulty homes
    // alarm.
    assert_eq!(
        switching.stats.events,
        streams.iter().map(|s| s.len() as u64).sum::<u64>() + 1
    );
    assert_eq!(switching.stats.windows, 6 * 30);
    assert!(switching.stats.alarms > 0);
}

#[test]
fn batched_shard_counters_match_the_fleet_stats() {
    let _cpu = cpu_shared();
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let telemetry = Telemetry::recording();
    let run = run_fleet_with(
        FleetConfig {
            shards: 3,
            queue_capacity: 8,
            frames_per_batch: 16,
            batch_windows: 16,
            telemetry: telemetry.clone(),
            ..FleetConfig::default()
        },
        &plans,
    );
    // Shards count frames, events and windows locally and publish them
    // per batch and per sweep; after the run nothing may be left behind.
    let snapshot = telemetry.snapshot().unwrap();
    let stats = run.stats;
    let counter = |name| snapshot.counter(name).unwrap();
    assert_eq!(counter("dice_fleet_frames_total"), stats.frames);
    assert_eq!(
        counter("dice_fleet_decode_errors_total"),
        stats.decode_errors
    );
    assert_eq!(counter("dice_fleet_events_total"), stats.events);
    assert_eq!(counter("dice_fleet_windows_total"), stats.windows);
    assert_eq!(counter("dice_fleet_alarms_total"), stats.alarms);
    assert_eq!(
        counter("dice_fleet_alarms_suppressed_total"),
        stats.suppressed
    );
    let per_shard = snapshot
        .family_series("dice_fleet_shard_windows_total")
        .unwrap();
    assert_eq!(per_shard.len(), 3);
    let per_shard_sum: i128 = per_shard.iter().map(|(_, n)| n).sum();
    assert_eq!(per_shard_sum, i128::from(stats.windows));
    // Each shard judges its homes with one engine machinery, whose one
    // telemetry batch must publish every window exactly once.
    assert_eq!(counter("dice_engine_windows_total"), stats.windows);
    let (detections, _) = snapshot.sketch("dice_engine_detection_ns").unwrap();
    assert_eq!(detections, stats.windows);
    assert_eq!(stats.windows, 24 * 30);
    assert!(stats.frames > 0 && stats.events > 0 && stats.alarms > 0);
}

#[test]
fn batched_gateway_counters_match_the_gateway_stats() {
    let _cpu = cpu_shared();
    let model = Arc::new(train_plan(0));
    let sensors = plan_devices(0).1;
    let events = live_events(&sensors, 60, true);
    // Three aggregator channels, queued in full before the run, each led
    // by one undecodable frame. The range starts two minutes in, so some
    // decoded events fall outside it.
    let mut sent = 0u64;
    let mut depths = Vec::new();
    let receivers = partition_by_device(&events, 3)
        .into_iter()
        .map(|part| {
            let (tx, rx) = crossbeam::channel::unbounded();
            tx.send(EventFrame::from_slice(&[0xFF])).unwrap();
            for event in &part {
                tx.send(encode_event(event)).unwrap();
            }
            sent += 1 + part.len() as u64;
            depths.push(1 + part.len() as i128);
            rx
        })
        .collect();
    let telemetry = Telemetry::recording();
    let (alarm_tx, _alarm_rx) = crossbeam::channel::unbounded();
    let gateway = HomeGateway::with_telemetry(model, TimeDelta::from_mins(60), telemetry.clone());
    let stats = gateway.run(
        receivers,
        &alarm_tx,
        Timestamp::from_mins(2),
        Timestamp::from_mins(60),
    );
    // The merge counts frames, events and decode errors locally and
    // publishes them per window and at the end; nothing may be left behind.
    let snapshot = telemetry.snapshot().unwrap();
    let counter = |name| snapshot.counter(name).unwrap();
    assert_eq!(counter("dice_gateway_frames_total"), sent);
    assert_eq!(counter("dice_gateway_events_total"), stats.events);
    assert_eq!(
        counter("dice_gateway_decode_errors_total"),
        stats.decode_errors
    );
    assert_eq!(counter("dice_gateway_windows_total"), stats.windows);
    assert_eq!(counter("dice_gateway_alarms_total"), stats.alarms);
    assert_eq!(
        snapshot.family_value("dice_gateway_home_windows_total", &["home0"]),
        Some(i128::from(stats.windows))
    );
    // Depth is sampled before the first receive, when every frame is queued.
    let total_depth: i128 = depths.iter().sum();
    assert_eq!(
        snapshot.gauge("dice_gateway_channel_depth").map(i128::from),
        Some(total_depth)
    );
    for (shard, depth) in depths.iter().enumerate() {
        assert_eq!(
            snapshot.family_value("dice_gateway_shard_depth", &[&format!("s{shard}")]),
            Some(*depth)
        );
    }
    assert_eq!(stats.decode_errors, 3);
    assert_eq!(stats.windows, 58);
    assert!(stats.events + stats.decode_errors < sent);
    assert!(stats.alarms > 0);
}

/// One fleet frame around `event`'s bytes, well-formed or not: the
/// declared body length, the version byte and the home id.
fn envelope(declared: u16, version: u8, home: u32, event: &[u8]) -> Vec<u8> {
    let mut frame = declared.to_be_bytes().to_vec();
    frame.push(version);
    frame.extend_from_slice(&home.to_be_bytes());
    frame.extend_from_slice(event);
    frame
}

/// Seeded malformed frames in a live stream, through `HomeGateway::run`
/// and `Fleet::run`. A corrupt event frame is rejected on both paths with
/// the same `FrameError` (wrapped in `FleetFrameError::Event` on the
/// fleet), a corrupt fleet envelope with its `FleetFrameError`, and each
/// path's decode-error count equals the frames injected into it. The
/// well-formed events still give both paths the same alarms, also when the
/// fleet packs many frames per batch: each raw frame travels alone, so a
/// corrupt one drops no good frame behind it.
#[test]
fn malformed_frames_get_the_same_typed_error_on_both_paths() {
    let _cpu = cpu_shared();
    const HOME: u32 = 7;
    let model = Arc::new(train_plan(0));
    let sensors = plan_devices(0).1;
    let good = encode_event(&Event::Sensor(SensorReading::new(
        sensors[2],
        Timestamp::from_mins(3),
        true.into(),
    )));
    let good = good.as_slice();
    let mut unknown_tag = good.to_vec();
    unknown_tag[0] = 0x7F;
    let mut bad_bool = good.to_vec();
    bad_bool[13] = 2;
    let event_level = [
        (good[..13].to_vec(), FrameError::Truncated),
        (unknown_tag, FrameError::UnknownTag(0x7F)),
        (bad_bool, FrameError::BadBool(2)),
    ];
    let body = 5 + good.len() as u16;
    let mut long = envelope(body + 1, 1, HOME, good);
    long.push(0);
    let envelope_level = [
        (
            envelope(body, 9, HOME, good),
            FleetFrameError::BadVersion(9),
        ),
        (
            envelope(1000, 1, HOME, good),
            FleetFrameError::Oversized { declared: 1000 },
        ),
        (
            long,
            FleetFrameError::LengthMismatch {
                declared: usize::from(body) + 1,
                actual: usize::from(body),
            },
        ),
    ];
    // Every corruption on the fleet wire, with the error it must raise.
    let fleet_frames: Vec<(Vec<u8>, FleetFrameError)> = event_level
        .iter()
        .map(|(bytes, error)| {
            let frame = envelope(5 + bytes.len() as u16, 1, HOME, bytes);
            (frame, FleetFrameError::Event(error.clone()))
        })
        .chain(envelope_level)
        .collect();
    for (bytes, error) in &event_level {
        assert_eq!(
            decode_event(EventFrame::from_slice(bytes)),
            Err(error.clone())
        );
    }
    for (frame, error) in &fleet_frames {
        assert_eq!(decode_frame_slice(frame).map(|_| ()), Err(error.clone()));
    }

    let (from, to) = (Timestamp::ZERO, Timestamp::from_mins(60));
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // The arrivals: a decodable event, or corruption `k` of
        // `fleet_frames` (the first `event_level.len()` also reach the
        // gateway, as bare event frames).
        let mut stream: Vec<Result<Event, usize>> = live_events(&sensors, 60, true)
            .into_iter()
            .map(Ok)
            .collect();
        for k in 0..fleet_frames.len() {
            let at = rng.gen_range(0..=stream.len());
            stream.insert(at, Err(k));
        }

        let gateway_telemetry = Telemetry::recording();
        let (tx, rx) = crossbeam::channel::unbounded();
        for arrival in &stream {
            match arrival {
                Ok(event) => tx.send(encode_event(event)).unwrap(),
                Err(k) if *k < event_level.len() => {
                    tx.send(EventFrame::from_slice(&event_level[*k].0)).unwrap();
                }
                Err(_) => {}
            }
        }
        drop(tx);
        let (alarm_tx, alarm_rx) = crossbeam::channel::unbounded();
        let gateway = HomeGateway::with_telemetry(
            Arc::clone(&model),
            TimeDelta::from_mins(60),
            gateway_telemetry.clone(),
        );
        let gateway_stats = gateway.run(vec![rx], &alarm_tx, from, to);
        drop(alarm_tx);
        let gateway_reports: Vec<FaultReport> = alarm_rx.iter().map(|a| a.report).collect();

        assert_eq!(gateway_stats.decode_errors, event_level.len() as u64);
        assert_eq!(
            gateway_telemetry
                .snapshot()
                .unwrap()
                .counter("dice_gateway_decode_errors_total"),
            Some(gateway_stats.decode_errors)
        );
        assert!(!gateway_reports.is_empty());
        let injected: Vec<usize> = stream.iter().filter_map(|a| a.err()).collect();
        let gateway_expected: Vec<String> = injected
            .iter()
            .filter(|&&k| k < event_level.len())
            .map(|&k| format!("slot 0: {}", event_level[k].1))
            .collect();
        assert_eq!(
            event_messages(&gateway_telemetry, "decode_error"),
            gateway_expected,
            "seed {seed}"
        );
        let fleet_expected: Vec<String> = injected
            .iter()
            .map(|&k| fleet_frames[k].1.to_string())
            .collect();

        for frames_per_batch in [1, 16] {
            let fleet_telemetry = Telemetry::recording();
            let mut fleet = Fleet::new(FleetConfig {
                shards: 1,
                frames_per_batch,
                telemetry: fleet_telemetry.clone(),
                ..FleetConfig::default()
            });
            fleet.register_home(HOME, Arc::clone(&model));
            let run = fleet.run(from, to, |sender| {
                for arrival in &stream {
                    match arrival {
                        Ok(event) => sender.send(HOME, event),
                        Err(k) => sender.send_frame(&fleet_frames[*k].0),
                    }
                }
            });
            let case = format!("seed {seed}, {frames_per_batch} frames per batch");
            assert_eq!(
                event_messages(&fleet_telemetry, "fleet_decode_error"),
                fleet_expected,
                "{case}"
            );
            assert_eq!(run.stats.decode_errors, fleet_frames.len() as u64);
            assert_eq!(
                fleet_telemetry
                    .snapshot()
                    .unwrap()
                    .counter("dice_fleet_decode_errors_total"),
                Some(run.stats.decode_errors)
            );
            assert_eq!(run.stats.frames, stream.len() as u64);
            assert_eq!(run.stats.events, gateway_stats.events, "{case}");
            assert_eq!(run.stats.windows, gateway_stats.windows, "{case}");
            assert_eq!(run.alarms.len(), 1);
            assert_eq!(run.alarms[0].reports, gateway_reports, "{case}");
        }
    }
}

/// The messages of the telemetry events of `kind`, in order.
fn event_messages(telemetry: &Telemetry, kind: &str) -> Vec<String> {
    let snapshot = telemetry.snapshot().unwrap();
    snapshot
        .events()
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.message.clone())
        .collect()
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
        let mut blocks: Vec<Vec<(u64, u32)>> = vec![Vec::new(); shards];
        for &(home, stamp) in &stamped {
            assert_eq!(
                stamp.shard as usize,
                dice_fleet::shard_for_home(home, shards),
                "stamp must name the serving shard"
            );
            assert!(stamp.frames > 0);
            let stages = [
                stamp.enqueue_wait_ns,
                stamp.queue_wait_ns,
                stamp.dequeue_ns,
                stamp.scan_ns,
                stamp.verdict_ns,
                stamp.publish_ns,
            ];
            assert_eq!(stages, [0; 6], "frozen clock must yield zero deltas");
            blocks[stamp.shard as usize].push((stamp.lineage, stamp.frames));
        }
        // A home's alarms arrive in sweep order: consecutive stamps share
        // a batch's lineage block or move to a later, disjoint one.
        for h in &run.alarms {
            let stamps: Vec<_> = h.reports.iter().filter_map(|r| r.lineage).collect();
            for pair in stamps.windows(2) {
                assert!(
                    pair[1].lineage == pair[0].lineage
                        || pair[0].lineage + u64::from(pair[0].frames) <= pair[1].lineage,
                    "home {}: lineage blocks must be monotone and disjoint",
                    h.home
                );
            }
        }
        // Across a shard's homes, distinct batches own disjoint blocks.
        for (shard, mut shard_blocks) in blocks.into_iter().enumerate() {
            shard_blocks.sort_unstable();
            shard_blocks.dedup();
            for pair in shard_blocks.windows(2) {
                assert!(
                    pair[0].0 + u64::from(pair[0].1) <= pair[1].0,
                    "shard {shard}: lineage blocks must be disjoint"
                );
            }
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
    let telemetry = Telemetry::recording();
    // Shard 0 sleeps 3ms per batch behind a 2-deep queue: its queue-wait
    // sketch must grow and the producer must block (counted in
    // occurrences and nanoseconds), while the other shards stay prompt —
    // exactly the straggler shape the health rule grades.
    let run = run_with_stalled_shard(2, &telemetry);
    assert!(run.stats.backpressure_waits > 0, "sender must have blocked");
    assert!(
        run.stats.backpressure_wait_ns > 0,
        "blocked time must be measured, not just counted"
    );

    let snapshot = telemetry.snapshot().unwrap();
    assert_straggler_trips(&snapshot);

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

/// The same stall behind the default queue depth, where a healthy shard
/// that finds a few batches queued waits for half its queue or the
/// channel's coalescing deadline. This run is too short to fill that
/// queue, so the sender never blocks.
#[test]
fn stalled_shard_trips_the_straggler_rule_at_the_default_queue_capacity() {
    let _cpu = cpu_alone();
    let telemetry = Telemetry::recording();
    run_with_stalled_shard(FleetConfig::default().queue_capacity, &telemetry);
    assert_straggler_trips(&telemetry.snapshot().unwrap());
}

/// Runs the test fleet with shard 0 sleeping 3ms per batch.
fn run_with_stalled_shard(queue_capacity: usize, telemetry: &Telemetry) -> FleetRun {
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    run_fleet_with(
        FleetConfig {
            shards: 4,
            queue_capacity,
            frames_per_batch: 4,
            batch_windows: 16,
            telemetry: telemetry.clone(),
            stall: Some((0, 3)),
            ..FleetConfig::default()
        },
        &plans,
    )
}

/// The stalled shard's queue-wait p99 dwarfs every other shard's, and the
/// straggler rule grades it warn or crit.
fn assert_straggler_trips(snapshot: &Snapshot) {
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
    let report = evaluate_health(&standard_rules(), snapshot, false);
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
    for (homes, plans) in [(100u32, 3), (1000, 4)] {
        let cache = ModelCache::new();
        let mut fleet = Fleet::new(FleetConfig::default());
        for h in 0..homes {
            let plan = h as usize % plans;
            let model = cache.get_or_train(&format!("plan{plan}"), || train_plan(plan));
            fleet.register_home(h, model);
        }
        assert_eq!(fleet.homes(), homes as usize);
        assert_eq!(cache.len(), plans);
        assert_eq!(
            fleet.models_resident(),
            plans,
            "{homes} homes must share {plans} model allocations"
        );
    }
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

/// Floor plan 2 of the messy streams: three motion sensors, a
/// temperature and a light sensor, and one smart bulb.
fn numeric_plan_devices() -> (DeviceRegistry, Vec<SensorId>, ActuatorId) {
    let mut registry = DeviceRegistry::new();
    let sensors = vec![
        registry.add_sensor(SensorKind::Motion, "m0", Room::Kitchen),
        registry.add_sensor(SensorKind::Motion, "m1", Room::Kitchen),
        registry.add_sensor(SensorKind::Motion, "m2", Room::Bedroom),
        registry.add_sensor(SensorKind::Temperature, "t", Room::Kitchen),
        registry.add_sensor(SensorKind::Light, "l", Room::Kitchen),
    ];
    let bulb = registry.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
    (registry, sensors, bulb)
}

/// Minute `minute` of floor plan 2's schedule, in time order. Even
/// minutes fire motion 0 and 1, switch the bulb on, warm the kitchen
/// (skewed up, rising) and light it; odd minutes fire motion 2, switch
/// the bulb off and cool the kitchen (above its mean, falling) in the
/// dark. The temperature sensor is silent when `temperature` is unset.
fn numeric_minute(
    sensors: &[SensorId],
    bulb: ActuatorId,
    minute: i64,
    temperature: bool,
) -> Vec<Event> {
    let base = Timestamp::from_mins(minute);
    let at = |secs: i64| base + TimeDelta::from_secs(secs);
    let even = minute % 2 == 0;
    let (temps, light) = if even {
        ([20.0, 21.0, 23.0], 300.0)
    } else {
        ([23.0, 22.0, 20.0], 100.0)
    };
    let mut events = Vec::new();
    for (k, temp) in (0i64..).zip(temps) {
        if temperature {
            events.push(Event::Sensor(SensorReading::new(
                sensors[3],
                at(20 * k),
                temp.into(),
            )));
        }
        events.push(Event::Sensor(SensorReading::new(
            sensors[4],
            at(20 * k + 10),
            light.into(),
        )));
    }
    let motion = if even { &sensors[..2] } else { &sensors[2..3] };
    for &sensor in motion {
        events.push(Event::Sensor(SensorReading::new(
            sensor,
            at(5),
            true.into(),
        )));
    }
    events.push(Event::Actuator(ActuatorEvent::new(bulb, at(8), even)));
    events.sort_by_key(Event::at);
    events
}

/// Trains floor plan 2 on 240 minutes of its schedule.
fn train_numeric_plan() -> DiceModel {
    let (registry, sensors, bulb) = numeric_plan_devices();
    let mut log: EventLog = (0..240)
        .flat_map(|minute| numeric_minute(&sensors, bulb, minute, true))
        .collect();
    ContextExtractor::new(DiceConfig::default())
        .extract(&registry, &mut log)
        .expect("training log is non-empty")
}

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
/// later timestamps, often across window boundaries. The last home runs
/// floor plan 2, whose numeric sensors and bulb reach the skewness, trend
/// and level bits and the actuator transitions; its temperature sensor
/// may fail-stop, its bulb sometimes switches on out of turn, and its
/// noise adds binary readings on the numeric sensors and NaN samples.
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
            deliver_late(rng, &mut events);
        }
        homes.push(MessyHome {
            id: 37 * h as u32 + 5,
            plan,
            events,
        });
    }

    let (_, sensors, bulb) = numeric_plan_devices();
    let temperature_stop_at = match rng.gen_range(0..3) {
        0 => None,
        _ => Some(rng.gen_range(0..MINUTES)),
    };
    let mut events = vec![Event::Sensor(SensorReading::new(
        sensors[0],
        from - TimeDelta::from_secs(1),
        true.into(),
    ))];
    let mut minute = 0;
    while minute <= MINUTES {
        if rng.gen_bool(0.04) {
            minute += rng.gen_range(1..20i64); // a gap of empty windows
            continue;
        }
        let temperature = temperature_stop_at.is_none_or(|stop| minute < stop);
        for event in numeric_minute(&sensors, bulb, minute, temperature) {
            if event.at() < to {
                events.push(event);
                if rng.gen_bool(0.1) {
                    events.push(event); // duplicate delivery
                }
            }
        }
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(55);
        match rng.gen_range(0..60) {
            0 => events.push(Event::Sensor(SensorReading::new(
                SensorId::new(40),
                at,
                21.5.into(),
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
            3 => events.push(Event::Sensor(SensorReading::new(
                sensors[3],
                at,
                true.into(),
            ))),
            4 => events.push(Event::Sensor(SensorReading::new(
                sensors[4],
                at,
                f64::NAN.into(),
            ))),
            5..=7 => events.push(Event::Actuator(ActuatorEvent::new(bulb, at, true))),
            _ => {}
        }
        minute += 1;
    }
    events.retain(|event| event.at() < to);
    events.push(Event::Sensor(SensorReading::new(
        sensors[0],
        to,
        true.into(),
    )));
    if !ordered {
        deliver_late(rng, &mut events);
    }
    homes.push(MessyHome {
        id: 37 * homes.len() as u32 + 5,
        plan: 2,
        events,
    });
    MessyFleet { from, to, homes }
}

/// Delivers some events late: moves each picked event up to eight places
/// later in the stream.
fn deliver_late(rng: &mut StdRng, events: &mut Vec<Event>) {
    for i in (0..events.len()).rev() {
        if rng.gen_bool(0.08) {
            let event = events.remove(i);
            let to_index = (i + rng.gen_range(1..=8usize)).min(events.len());
            events.insert(to_index, event);
        }
    }
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
    let plans = [
        Arc::new(train_plan(0)),
        Arc::new(train_plan(1)),
        Arc::new(train_numeric_plan()),
    ];
    let (mut delivered, mut suppressed, mut late_events) = (0u64, 0u64, 0usize);
    let mut numeric_cases = NumericCases::default();
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
            if home.plan == 2 {
                numeric_cases.count(&one);
            }
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
    // Floor plan 2's alarms come from its numeric bits and its bulb.
    assert!(
        numeric_cases.temperature > 0 && numeric_cases.g2a > 0 && numeric_cases.a2g > 0,
        "{numeric_cases:?}"
    );
}

/// What floor plan 2's alarms exercised: alarms naming the temperature
/// sensor, and alarms detected by a G2A or an A2G transition.
#[derive(Debug, Default)]
struct NumericCases {
    temperature: usize,
    g2a: usize,
    a2g: usize,
}

impl NumericCases {
    fn count(&mut self, reports: &[FaultReport]) {
        let temperature = DeviceId::from(numeric_plan_devices().1[3]);
        for report in reports {
            self.temperature += usize::from(report.devices.contains(&temperature));
            match report.detail {
                Some(DetectionDetail::Transition {
                    case: TransitionCase::G2A { .. },
                    ..
                }) => self.g2a += 1,
                Some(DetectionDetail::Transition {
                    case: TransitionCase::A2G { .. },
                    ..
                }) => self.a2g += 1,
                _ => {}
            }
        }
    }
}
