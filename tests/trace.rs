//! Decision-trace end-to-end: disabled-mode overhead, enabled-mode
//! steady-state allocation behavior, report-stream bit-identity, and the
//! JSONL → `explain` pipeline naming an injected faulty device.
//!
//! Everything runs inside a single `#[test]` so the counting allocator
//! measures only the section it brackets and the timing sections never
//! compete with a sibling test for cores.
#![allow(unsafe_code)] // the counting global allocator below

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dice_core::{
    parse_trace_jsonl, render_explain, ContextExtractor, DiceConfig, DiceEngine, DiceModel,
    EngineOptions, FaultReport, JsonlTraceWriter, TraceOptions, TraceVerdict,
    DEFAULT_TRACE_CAPACITY,
};
use dice_eval::{train_scenario, RunnerConfig, TrainedDataset};
use dice_sim::testbed;
use dice_telemetry::Telemetry;
use dice_types::{
    DeviceId, DeviceRegistry, Event, EventLog, Room, SensorId, SensorKind, SensorReading,
    TimeDelta, Timestamp,
};

/// Counts heap allocations so the steady-state guard can prove a traced
/// window recycles its ring slot instead of allocating.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn quick_cfg() -> RunnerConfig {
    RunnerConfig {
        seed: 29,
        trials: 4,
        precompute: TimeDelta::from_hours(72),
        segment_len: TimeDelta::from_hours(6),
        dice: DiceConfig::default(),
    }
}

/// Replays trial 0's segment through a fresh engine with the given trace
/// options, returning the reports and the wall-clock nanoseconds.
fn replay(td: &TrainedDataset, trace: TraceOptions) -> (Vec<FaultReport>, u128) {
    let segment = td.plan.segment_for_trial(0);
    let mut log = td.sim.log_between(segment.start, segment.end);
    let mut engine = DiceEngine::with_options(
        &td.model,
        EngineOptions {
            telemetry: Telemetry::noop(),
            trace,
            ..EngineOptions::default()
        },
    );
    let start = Instant::now();
    let mut reports = engine.process_range(&mut log, segment.start, segment.end);
    reports.extend(engine.flush());
    (reports, start.elapsed().as_nanos())
}

/// The three-sensor home used across the engine tests: s0+s1 fire together
/// on even minutes, s2 on odd minutes.
fn three_sensor_model() -> (DiceModel, Vec<SensorId>) {
    let mut reg = DeviceRegistry::new();
    let s0 = reg.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
    let s1 = reg.add_sensor(SensorKind::Motion, "s1", Room::Kitchen);
    let s2 = reg.add_sensor(SensorKind::Motion, "s2", Room::Bedroom);
    let mut training = EventLog::new();
    for minute in 0..240 {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            training.push_sensor(SensorReading::new(s0, at, true.into()));
            training.push_sensor(SensorReading::new(s1, at, true.into()));
        } else {
            training.push_sensor(SensorReading::new(s2, at, true.into()));
        }
    }
    let model = ContextExtractor::new(DiceConfig::default())
        .extract(&reg, &mut training)
        .unwrap();
    (model, vec![s0, s1, s2])
}

/// Healthy per-window event slices for the three-sensor home.
fn healthy_windows(
    model: &DiceModel,
    sensors: &[SensorId],
    minutes: i64,
) -> Vec<(Timestamp, Timestamp, Vec<Event>)> {
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
    log.windows(model.config().window())
        .map(|w| (w.start, w.end, w.events.to_vec()))
        .collect()
}

#[test]
fn tracing_is_free_when_off_and_allocation_free_when_on() {
    // 1. Overhead guards. The disabled path in `process_window` is a two-arm
    //    phase read plus one `Option::is_some` branch per window —
    //    sub-nanosecond work against the microseconds each window's
    //    correlation scan costs, i.e. well under 1% and too small to time
    //    directly. What is measurable is the *enabled* mode (ring fill, no
    //    sink), a strict superset of the disabled work: interleaved min-of-N
    //    replays of a testbed segment must keep it within 12% in release
    //    builds (~140 ns of slot recycling against ~2 µs windows), with
    //    more slack for debug codegen.
    let cfg = quick_cfg();
    let spec = testbed::dice_testbed("trace", 29, TimeDelta::from_hours(96), 12, 1);
    let td = train_scenario(spec, &cfg);
    let reps = if cfg!(debug_assertions) { 8 } else { 24 };
    let mut off_best = u128::MAX;
    let mut on_best = u128::MAX;
    for _ in 0..reps {
        let (off_reports, off_ns) = replay(&td, TraceOptions::default());
        let (on_reports, on_ns) = replay(&td, TraceOptions::recording());
        assert_eq!(
            off_reports, on_reports,
            "tracing must not change the fault-report stream"
        );
        off_best = off_best.min(off_ns);
        on_best = on_best.min(on_ns);
    }
    assert!(off_best > 0, "replay too short to time");
    #[allow(clippy::cast_precision_loss)]
    let overhead_pct = (on_best as f64 - off_best as f64) / off_best as f64 * 100.0;
    let budget_pct = if cfg!(debug_assertions) { 35.0 } else { 12.0 };
    assert!(
        overhead_pct < budget_pct,
        "tracing overhead {overhead_pct:.2}% exceeds {budget_pct}% \
         (off {off_best} ns vs on {on_best} ns)"
    );

    // 2. Zero steady-state allocations per traced window. Warm a recording
    //    engine far enough past the flight-recorder capacity that every ring
    //    slot's vectors have reached their working size, then require the
    //    next pass of healthy windows to touch the allocator zero times.
    let (model, sensors) = three_sensor_model();
    let windows = healthy_windows(&model, &sensors, 300);
    let warm = 3 * DEFAULT_TRACE_CAPACITY;
    assert!(windows.len() > warm + 64, "need windows beyond warm-up");
    let mut engine = DiceEngine::with_options(
        &model,
        EngineOptions {
            telemetry: Telemetry::noop(),
            trace: TraceOptions::recording(),
            ..EngineOptions::default()
        },
    );
    for (start, end, events) in &windows[..warm] {
        assert!(engine.process_window(*start, *end, events).is_none());
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (start, end, events) in &windows[warm..] {
        assert!(engine.process_window(*start, *end, events).is_none());
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations,
        0,
        "a warm traced window must recycle its ring slot, not allocate \
         ({allocations} allocations over {} windows)",
        windows.len() - warm
    );

    // 3. End to end: trace an s1 fail-stop through a JSONL sink, then parse
    //    the file back and render the explanation — it must name the device
    //    the engine flagged.
    let path =
        std::env::temp_dir().join(format!("dice_trace_test_e2e-{}.jsonl", std::process::id()));
    let reports = {
        let file = std::fs::File::create(&path).unwrap();
        let mut engine = DiceEngine::with_options(
            &model,
            EngineOptions {
                telemetry: Telemetry::noop(),
                trace: TraceOptions::recording()
                    .with_sink(JsonlTraceWriter::new(file).into_shared()),
                ..EngineOptions::default()
            },
        );
        let mut live = EventLog::new();
        for minute in 0..30 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                live.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            } else {
                live.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        engine.process_log(&mut live)
    };
    assert!(!reports.is_empty(), "the fail-stop must be reported");
    assert!(
        reports[0].devices.contains(&DeviceId::Sensor(sensors[1])),
        "s1 must be implicated: {reports:?}"
    );
    assert!(
        !reports[0].evidence.is_empty(),
        "reports from a tracing engine must carry evidence"
    );

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let log = parse_trace_jsonl(&text).unwrap();
    assert_eq!(log.traces.len(), 30, "one trace per processed window");
    assert!(log
        .traces
        .iter()
        .any(|t| t.reported && t.verdict != TraceVerdict::Normal));
    let rendered = render_explain(&log, None).unwrap();
    assert!(
        rendered.contains(&sensors[1].to_string()),
        "explain must name the fail-stopped sensor:\n{rendered}"
    );
}
