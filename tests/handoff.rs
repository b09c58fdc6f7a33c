//! The serving hand-offs allocate nothing in steady state. Encoding an
//! event frame, moving it through a bounded channel, and decoding it on
//! the gateway thread never touch the heap once the channel's buffers are
//! warm; a warm fleet shard decodes, windows, binarizes and judges frames
//! without allocating either, and the fleet sender reuses the batch
//! buffers its shards hand back, so its allocations do not grow with the
//! batch count. A shard's per-home state stays within a fixed byte
//! budget when built, and within that budget plus the open-window fold
//! its layout implies once warm. Property checks pin the inline frame to
//! the packed wire layout and keep its decoder panic-free.
#![allow(unsafe_code)] // the counting global allocator below

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::BytesMut;
use crossbeam::channel::bounded;
use dice_core::{ContextExtractor, DiceConfig, DiceModel, WindowStats};
use dice_fleet::{encode_frame_into, Fleet, FleetConfig, ShardEngine, TraceClock};
use dice_gateway::{decode_event, encode_event, encode_event_into, EventFrame};
use dice_telemetry::Telemetry;
use dice_types::{
    ActuatorEvent, ActuatorId, ActuatorKind, DeviceRegistry, Event, EventLog, Room, SensorId,
    SensorKind, SensorReading, TimeDelta, Timestamp,
};
use proptest::prelude::*;

/// Counts heap allocations and net heap bytes per thread, and only on
/// threads that opted in, so tests running in parallel in this binary do
/// not pollute each other's counts.
struct CountingAllocator;

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

fn note_bytes(delta: i64) {
    let _ = NET_BYTES.try_with(|n| n.set(n.get() + delta));
}

fn note_allocation(bytes: i64) {
    if counted() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        note_bytes(bytes);
    }
}

/// Runs `f` with this thread's allocations counted.
fn counting<R>(f: impl FnOnce() -> R) -> R {
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    out
}

/// Runs `f`, returning its result and the heap allocations it made on
/// this thread.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = counting(f);
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f`, returning its result and the heap bytes it left allocated on
/// this thread.
fn count_heap_growth<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = NET_BYTES.with(Cell::get);
    let out = counting(f);
    (out, NET_BYTES.with(Cell::get) - before)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            note_bytes(-(layout.size() as i64));
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Event `i` of a stream cycling through all three frame kinds.
fn event(i: usize) -> Event {
    let at = Timestamp::from_secs(i as i64);
    let id = (i % 97) as u32;
    match i % 3 {
        0 => Event::Sensor(SensorReading::new(
            SensorId::new(id),
            at,
            i.is_multiple_of(2).into(),
        )),
        1 => Event::Sensor(SensorReading::new(
            SensorId::new(id),
            at,
            (i as f64 * 0.25).into(),
        )),
        _ => Event::Actuator(ActuatorEvent::new(
            ActuatorId::new(id),
            at,
            !i.is_multiple_of(2),
        )),
    }
}

#[test]
fn warm_gateway_handoff_allocates_nothing() {
    const CAPACITY: usize = 64;
    const EVENTS: usize = 20_000;
    let (tx, rx) = bounded(CAPACITY);
    // Warm-up: fill the queue to capacity and drain it twice, so both of
    // the channel's buffers (the shared queue and the receiver's local one
    // swap on every drain) have grown to hold a full queue.
    for _ in 0..2 {
        for i in 0..CAPACITY {
            tx.send(encode_event(&event(i))).unwrap();
        }
        for i in 0..CAPACITY {
            assert_eq!(decode_event(rx.recv().unwrap()), Ok(event(i)));
        }
    }

    let allocations = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            count_allocations(|| {
                for i in 0..EVENTS {
                    tx.send(encode_event(&event(i))).unwrap();
                }
            })
            .1
        });
        let ((), consumed) = count_allocations(|| {
            for i in 0..EVENTS {
                let frame = rx.recv().expect("the producer sends every event");
                assert_eq!(decode_event(frame), Ok(event(i)));
            }
        });
        consumed + producer.join().expect("producer thread panicked")
    });
    assert!(rx.recv().is_err(), "the producer hung up");
    assert_eq!(
        allocations, 0,
        "a warm hand-off must not allocate ({allocations} allocations over {EVENTS} events)"
    );
}

/// The events of `minute` in floor plan `sensors`: the first two sensors
/// together on even minutes, one of the others on odd minutes. Training on
/// this schedule and serving it back makes every window hit a main group.
fn plan_minute(sensors: &[SensorId], minute: i64) -> Vec<Event> {
    let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
    let fire = if minute % 2 == 0 {
        vec![sensors[0], sensors[1]]
    } else {
        vec![sensors[2 + (minute as usize / 2) % (sensors.len() - 2)]]
    };
    fire.into_iter()
        .map(|s| Event::Sensor(SensorReading::new(s, at, true.into())))
        .collect()
}

/// A floor plan of `width` motion sensors and the model trained on 240
/// minutes of its schedule.
fn plan(width: usize) -> (Arc<DiceModel>, Vec<SensorId>) {
    let mut registry = DeviceRegistry::new();
    let sensors: Vec<SensorId> = (0..width)
        .map(|i| registry.add_sensor(SensorKind::Motion, format!("s{i}"), Room::Kitchen))
        .collect();
    let mut log = EventLog::new();
    for minute in 0..240 {
        for event in plan_minute(&sensors, minute) {
            if let Event::Sensor(reading) = event {
                log.push_sensor(reading);
            }
        }
    }
    let model = ContextExtractor::new(DiceConfig::default())
        .extract(&registry, &mut log)
        .expect("training log is non-empty");
    (Arc::new(model), sensors)
}

/// The events of `minute` in the numeric floor plan: motion 0, a warming
/// temperature and the bulb switched on on even minutes; motion 1, a
/// cooling temperature and the bulb switched off on odd minutes.
fn numeric_minute(sensors: &[SensorId], bulb: ActuatorId, minute: i64) -> Vec<Event> {
    let at = |secs: i64| Timestamp::from_mins(minute) + TimeDelta::from_secs(secs);
    let even = minute % 2 == 0;
    let temps = if even {
        [20.0, 21.0, 23.0]
    } else {
        [23.0, 22.0, 20.0]
    };
    let mut events: Vec<Event> = (0i64..)
        .zip(temps)
        .map(|(k, temp)| Event::Sensor(SensorReading::new(sensors[2], at(20 * k), temp.into())))
        .collect();
    let motion = sensors[usize::from(!even)];
    events.push(Event::Sensor(SensorReading::new(
        motion,
        at(5),
        true.into(),
    )));
    events.push(Event::Actuator(ActuatorEvent::new(bulb, at(8), even)));
    events.sort_by_key(Event::at);
    events
}

/// A floor plan's model and the schedule it was trained on.
struct Plan {
    model: Arc<DiceModel>,
    sensors: Vec<SensorId>,
    /// The bulb of the numeric plan; `None` for a motion-only plan.
    bulb: Option<ActuatorId>,
}

impl Plan {
    /// A motion-only plan of `width` sensors (see [`plan`]).
    fn binary(width: usize) -> Self {
        let (model, sensors) = plan(width);
        Plan {
            model,
            sensors,
            bulb: None,
        }
    }

    /// Two motion sensors, a temperature sensor and a smart bulb, trained
    /// on 240 minutes of [`numeric_minute`].
    fn numeric() -> Self {
        let mut registry = DeviceRegistry::new();
        let sensors = vec![
            registry.add_sensor(SensorKind::Motion, "m0", Room::Kitchen),
            registry.add_sensor(SensorKind::Motion, "m1", Room::Bedroom),
            registry.add_sensor(SensorKind::Temperature, "t", Room::Kitchen),
        ];
        let bulb = registry.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
        let mut log: EventLog = (0..240)
            .flat_map(|minute| numeric_minute(&sensors, bulb, minute))
            .collect();
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&registry, &mut log)
            .expect("training log is non-empty");
        Plan {
            model: Arc::new(model),
            sensors,
            bulb: Some(bulb),
        }
    }

    fn minute(&self, minute: i64) -> Vec<Event> {
        match self.bulb {
            None => plan_minute(&self.sensors, minute),
            Some(bulb) => numeric_minute(&self.sensors, bulb, minute),
        }
    }

    /// The heap one home's open-window fold takes under this plan's
    /// layout: the state words, a `WindowStats` per numeric sensor, and
    /// an actuator list at its smallest growth (four ids) or one id per
    /// registered actuator.
    fn fold_bytes(&self) -> i64 {
        let layout = self.model.layout();
        let words = layout.num_bits().div_ceil(64) * size_of::<u64>();
        let numeric = layout.num_numeric_sensors() * size_of::<WindowStats>();
        let actuators = if self.model.num_actuators() == 0 {
            0
        } else {
            self.model.num_actuators().max(4) * size_of::<ActuatorId>()
        };
        (words + numeric + actuators) as i64
    }
}

/// One frame batch per minute of `minutes`, home `h` of `homes` serving
/// `plans[h % plans.len()]`'s schedule.
fn minute_batches(plans: &[Plan], homes: u32, minutes: usize) -> Vec<BytesMut> {
    (0..minutes as i64)
        .map(|minute| {
            let mut batch = BytesMut::new();
            for home in 0..homes {
                for event in plans[home as usize % plans.len()].minute(minute) {
                    encode_frame_into(home, &event, &mut batch);
                }
            }
            batch
        })
        .collect()
}

/// A shard serving `homes` homes over `[0, minutes)`, home `h` on
/// `plans[h % plans.len()]`, judging `batch_windows` windows per sweep,
/// on the default serving path: no telemetry recorder and no tracing. (A
/// recording engine's sketch buffers still grow when a wall-clock latency
/// lands in a bucket they have not seen yet.)
fn plan_shard(plans: &[Plan], homes: u32, minutes: usize, batch_windows: usize) -> ShardEngine {
    let homes = (0..homes)
        .map(|home| (home, Arc::clone(&plans[home as usize % plans.len()].model)))
        .collect();
    ShardEngine::new(
        0,
        homes,
        batch_windows,
        TimeDelta::from_mins(30),
        Timestamp::ZERO,
        Timestamp::from_mins(minutes as i64),
        Telemetry::noop(),
        false,
        TraceClock::manual().0,
    )
}

#[test]
fn warm_shard_allocates_nothing_per_window() {
    const HOMES: u32 = 8;
    const WARM_MINUTES: usize = 240;
    const MINUTES: usize = 480;
    // Two motion plans of different bit widths (3 bits, and 2 words of 73
    // bits) share the shard's observation pool; the numeric plan adds
    // per-sensor statistics and actuator lists.
    for plans in [
        vec![Plan::binary(3), Plan::binary(73)],
        vec![Plan::numeric()],
    ] {
        let batches = minute_batches(&plans, HOMES, MINUTES);
        let mut shard = plan_shard(&plans, HOMES, MINUTES, 4);
        for batch in &batches[..WARM_MINUTES] {
            shard.ingest_batch(batch);
        }
        let warm_windows = shard.stats().windows;
        let ((), allocations) = count_allocations(|| {
            for batch in &batches[WARM_MINUTES..] {
                shard.ingest_batch(batch);
            }
        });
        let windows = shard.stats().windows - warm_windows;
        assert_eq!(windows, u64::from(HOMES) * (MINUTES - WARM_MINUTES) as u64);
        assert_eq!(
            allocations, 0,
            "a warm shard must not allocate ({allocations} allocations over {windows} windows)"
        );
        let (alarms, stats) = shard.finish();
        assert_eq!(stats.windows, u64::from(HOMES) * MINUTES as u64);
        assert!(alarms.iter().all(|(_, reports)| reports.is_empty()));
    }
}

/// Once warm, a home holds no events: a shard's heap per home stays within
/// the build budget plus the open-window fold its layout implies, on a
/// motion plan and on a plan with numeric sensors and an actuator. A
/// per-home buffer of the open window's events would outgrow it.
#[test]
fn warm_shard_heap_per_home_stays_within_the_fold_size() {
    const HOMES: u32 = 1_000;
    const BUILD_BUDGET: i64 = 256;
    const MINUTES: usize = 60;
    for plan in [Plan::binary(3), Plan::numeric()] {
        let fold = plan.fold_bytes();
        let plans = [plan];
        let batches = minute_batches(&plans, HOMES, MINUTES);
        let (shard, bytes) = count_heap_growth(|| {
            let mut shard =
                plan_shard(&plans, HOMES, MINUTES, FleetConfig::default().batch_windows);
            for batch in &batches {
                shard.ingest_batch(batch);
            }
            shard
        });
        assert!(shard.stats().windows >= u64::from(HOMES) * (MINUTES as u64 / 2));
        let per_home = bytes / i64::from(HOMES);
        let bound = BUILD_BUDGET + fold;
        assert!(
            per_home <= bound,
            "a warm shard of {HOMES} homes holds {bytes} B, {per_home} B per home \
             (bound {bound} B: {BUILD_BUDGET} B built and a {fold} B fold)"
        );
        drop(shard);
    }
}

/// Building a shard allocates a fixed budget per home: its window and
/// alarm state and an engine session, with the engine machinery shared by
/// the whole shard.
#[test]
fn shard_state_costs_at_most_256_bytes_per_home() {
    const HOMES: u32 = 1_000;
    const BUDGET: i64 = 256;
    let plans = [plan(3), plan(73)];
    let (shard, bytes) = count_heap_growth(|| {
        let homes = (0..HOMES)
            .map(|home| (home, Arc::clone(&plans[home as usize % 2].0)))
            .collect();
        ShardEngine::new(
            0,
            homes,
            FleetConfig::default().batch_windows,
            TimeDelta::from_mins(30),
            Timestamp::ZERO,
            Timestamp::from_mins(60),
            Telemetry::noop(),
            false,
            TraceClock::manual().0,
        )
    });
    let per_home = bytes / i64::from(HOMES);
    assert!(
        per_home <= BUDGET,
        "a shard of {HOMES} homes holds {bytes} B, {per_home} B per home (budget {BUDGET} B)"
    );
    drop(shard);
}

#[test]
fn warm_sender_allocates_per_run_not_per_batch() {
    const HOMES: u32 = 8;
    const SHARDS: usize = 2;
    const CAPACITY: usize = 4;
    const FRAMES_PER_BATCH: usize = 2;
    const WARM_MINUTES: usize = 120;
    const MINUTES: usize = 1_080;
    let (model, sensors) = plan(3);
    let mut fleet = Fleet::new(FleetConfig {
        shards: SHARDS,
        queue_capacity: CAPACITY,
        frames_per_batch: FRAMES_PER_BATCH,
        telemetry: Telemetry::noop(),
        clock: TraceClock::manual().0,
        ..FleetConfig::default()
    });
    for home in 0..HOMES {
        fleet.register_home(home, Arc::clone(&model));
    }
    let schedule: Vec<Vec<Event>> = (0..MINUTES)
        .map(|minute| plan_minute(&sensors, minute as i64))
        .collect();
    let feed_minutes = |sender: &mut dice_fleet::FleetSender<'_>, minutes: &[Vec<Event>]| {
        let mut frames = 0;
        for events in minutes {
            for home in 0..HOMES {
                for event in events {
                    sender.send(home, event);
                    frames += 1;
                }
            }
        }
        frames
    };
    // `Fleet::run` calls the feed on this thread, so the count covers the
    // whole sender side: encoding, flushing, queueing and buffer reuse.
    let mut counted = (0, 0);
    let run = fleet.run(
        Timestamp::ZERO,
        Timestamp::from_mins(MINUTES as i64),
        |sender| {
            let (warm, rest) = schedule.split_at(WARM_MINUTES);
            feed_minutes(sender, warm);
            counted = count_allocations(|| feed_minutes(sender, rest));
        },
    );
    let (frames, allocations) = counted;
    let batches = frames / FRAMES_PER_BATCH - SHARDS;
    assert!(batches >= 5_000, "only {batches} batches were counted");
    assert_eq!(run.stats.windows, u64::from(HOMES) * MINUTES as u64);
    // Per shard: at most one buffer for each slot of the spare pool
    // (twice the queue capacity plus one) and the staging buffer, and two
    // growths of the queue's two swapped `VecDeque`s to the capacity.
    let bound = SHARDS as u64 * (2 * CAPACITY as u64 + 2 + 2);
    assert!(
        allocations <= bound,
        "the sender allocated {allocations} times over {batches} batches (bound {bound})"
    );
}

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
    /// The inline frame carries exactly the packed encoder's bytes, and
    /// those bytes decode back to the event.
    #[test]
    fn inline_frames_match_the_packed_layout(event in event_strategy()) {
        let frame = encode_event(&event);
        let mut packed = BytesMut::new();
        encode_event_into(&event, &mut packed);
        prop_assert_eq!(frame.as_slice(), &packed[..]);
        prop_assert_eq!(decode_event(EventFrame::from_slice(&packed)), Ok(event));
    }

    /// Any raw frame up to the maximum length decodes to an event or an
    /// error, never a panic. The first byte is biased toward the valid
    /// tags so the payload checks are reached, not just the tag check.
    #[test]
    fn raw_frames_never_panic_the_decoder(
        tag in 0u8..6,
        data in prop::collection::vec(any::<u8>(), 0..=EventFrame::MAX_LEN),
    ) {
        let mut data = data;
        if let (Some(first), 1..=3) = (data.first_mut(), tag) {
            *first = tag;
        }
        let _ = decode_event(EventFrame::from_slice(&data));
    }
}
