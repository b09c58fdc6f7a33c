//! Telemetry end-to-end: enabled-vs-noop determinism, exporter round trips,
//! and the recording-overhead guard.
//!
//! Everything runs inside a single `#[test]` so the process-global telemetry
//! handle is installed exactly once, before any code path in this binary
//! reads it.

use std::time::Instant;

use dice_core::{DiceConfig, DiceEngine, EngineOptions, FaultReport};
use dice_eval::{evaluate_sensor_faults, train_scenario, RunnerConfig, TrainedDataset};
use dice_sim::testbed;
use dice_telemetry::{
    validate_snapshot_json, EventRing, QuantileSketch, SlotRing, Telemetry, SKETCH_RELATIVE_ERROR,
};
use dice_types::TimeDelta;
use proptest::prelude::*;

fn quick_cfg() -> RunnerConfig {
    RunnerConfig {
        seed: 23,
        trials: 4,
        precompute: TimeDelta::from_hours(72),
        segment_len: TimeDelta::from_hours(6),
        dice: DiceConfig::default(),
    }
}

/// Replays trial 0's segment through a fresh engine wired to `telemetry`,
/// returning the reports and the wall-clock nanoseconds of the replay.
fn replay(td: &TrainedDataset, telemetry: Telemetry) -> (Vec<FaultReport>, u128) {
    let segment = td.plan.segment_for_trial(0);
    let mut log = td.sim.log_between(segment.start, segment.end);
    let mut engine = DiceEngine::with_options(
        &td.model,
        EngineOptions {
            telemetry,
            ..EngineOptions::default()
        },
    );
    let start = Instant::now();
    let mut reports = engine.process_range(&mut log, segment.start, segment.end);
    reports.extend(engine.flush());
    (reports, start.elapsed().as_nanos())
}

#[test]
fn telemetry_is_deterministic_exportable_and_cheap() {
    let recording = Telemetry::recording();
    assert!(
        Telemetry::install_global(recording.clone()),
        "this test binary must be the first reader of the global handle"
    );

    let cfg = quick_cfg();
    let spec = testbed::dice_testbed("telemetry", 23, TimeDelta::from_hours(96), 12, 1);
    let td = train_scenario(spec, &cfg);

    // 1. Determinism and overhead: interleaved replays, min-of-N per mode.
    //    The engine reads one clock per check either way (the CostProfile
    //    bridge), so recording adds only atomic updates; the guard bounds
    //    that at 5% in release builds (debug codegen gets more slack).
    let reps = if cfg!(debug_assertions) { 8 } else { 24 };
    let mut noop_best = u128::MAX;
    let mut recording_best = u128::MAX;
    let mut reference: Option<Vec<FaultReport>> = None;
    for _ in 0..reps {
        let (noop_reports, noop_ns) = replay(&td, Telemetry::noop());
        let (rec_reports, rec_ns) = replay(&td, Telemetry::recording());
        assert_eq!(
            noop_reports, rec_reports,
            "recording telemetry must not change fault reports"
        );
        if let Some(reference) = &reference {
            assert_eq!(reference, &rec_reports, "replay must be reproducible");
        } else {
            reference = Some(rec_reports);
        }
        noop_best = noop_best.min(noop_ns);
        recording_best = recording_best.min(rec_ns);
    }
    assert!(noop_best > 0, "replay too short to time");
    #[allow(clippy::cast_precision_loss)]
    let overhead_pct = (recording_best as f64 - noop_best as f64) / noop_best as f64 * 100.0;
    let budget_pct = if cfg!(debug_assertions) { 30.0 } else { 5.0 };
    assert!(
        overhead_pct < budget_pct,
        "telemetry overhead {overhead_pct:.2}% exceeds {budget_pct}% \
         (noop {noop_best} ns vs recording {recording_best} ns)"
    );

    // 2. The eval runner reports to the installed global recorder.
    let eval = evaluate_sensor_faults(&td, &cfg);
    assert_eq!(
        eval.detection.true_positives + eval.detection.false_negatives,
        cfg.trials
    );
    let snapshot = Telemetry::global()
        .snapshot()
        .expect("global handle is recording");
    assert!(snapshot.counter("dice_eval_trials_total").unwrap() >= cfg.trials);
    assert!(snapshot.counter("dice_eval_datasets_total").unwrap() >= 1);
    assert!(snapshot.counter("dice_engine_windows_total").unwrap() > 0);
    let (trial_count, trial_sum) = snapshot.sketch("dice_eval_trial_ns").unwrap();
    assert!(trial_count >= cfg.trials && trial_sum > 0);

    // 3. Exporters: the JSON snapshot satisfies its own schema and the
    //    Prometheus rendition exposes the same registry.
    let json = snapshot.to_json();
    validate_snapshot_json(&json).expect("snapshot must satisfy its schema");
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("# TYPE dice_engine_windows_total counter"));
    assert!(prom.contains("# TYPE dice_gateway_channel_depth gauge"));
    assert!(prom.contains("# TYPE dice_eval_trial_ns summary"));
    assert!(prom.contains("dice_engine_correlation_check_ns_count"));
    // Every distribution is a sketch: no fixed-bucket type or section left.
    assert!(!prom
        .lines()
        .any(|l| l.starts_with("# TYPE ") && l.ends_with(" histogram")));
    assert!(!json.contains("\"histograms\""));
    // The engine replays above fed the detection-latency sketch; its
    // summary rows appear in the same exposition.
    assert!(prom.contains("# TYPE dice_engine_detection_ns summary"));
    assert!(prom.contains("dice_engine_detection_ns{quantile=\"0.99\"}"));
}

/// Concurrent writers on one `EventRing`: every push is either retained or
/// counted as dropped — none vanish — and retained sequence numbers are the
/// newest ones, strictly increasing.
#[test]
fn event_ring_survives_concurrent_writers() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 500;
    const CAPACITY: usize = 64;
    let ring = EventRing::new(CAPACITY);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ring = &ring;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    ring.push("stress", format!("writer {w} event {i}"));
                }
            });
        }
    });
    let pushed = WRITERS as u64 * PER_WRITER;
    assert_eq!(ring.total(), pushed);
    let events = ring.snapshot();
    assert_eq!(events.len(), CAPACITY);
    assert_eq!(ring.dropped(), pushed - CAPACITY as u64);
    // Retained events are exactly the newest CAPACITY sequence numbers.
    for (offset, event) in events.iter().enumerate() {
        assert_eq!(event.seq, pushed - CAPACITY as u64 + offset as u64);
        assert_eq!(event.kind, "stress");
        assert!(event.message.starts_with("writer "));
    }
}

/// Concurrent recorders on one sketch: counts and sums merge losslessly
/// (each record is two atomic adds, no samples lost).
#[test]
fn sketch_survives_concurrent_recorders() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 10_000;
    let sketch = QuantileSketch::new();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    sketch.record(w * PER_WRITER + i);
                }
            });
        }
    });
    let n = WRITERS * PER_WRITER;
    assert_eq!(sketch.count(), n);
    assert_eq!(sketch.sum(), n * (n - 1) / 2);
}

proptest! {
    /// `QuantileSketch` estimates vs exact sorted quantiles: never below
    /// the true sample, never more than `SKETCH_RELATIVE_ERROR` above it
    /// (+1 for the integer bucket edge).
    #[test]
    fn sketch_quantiles_match_exact_within_bound(
        raw in proptest::collection::vec(0u64..=10_000_000_000, 1..400),
        quantiles in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let sketch = QuantileSketch::new();
        for &v in &raw {
            sketch.record(v);
        }
        let mut values = raw;
        values.sort_unstable();
        for &q in &quantiles {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let estimate = sketch.quantile(q).expect("non-empty sketch");
            prop_assert!(estimate >= exact, "q={}: {} < exact {}", q, estimate, exact);
            #[allow(clippy::cast_precision_loss)]
            let bound = exact as f64 * (1.0 + SKETCH_RELATIVE_ERROR) + 1.0;
            prop_assert!(
                estimate as f64 <= bound,
                "q={}: {} above bound {} (exact {})", q, estimate, bound, exact
            );
        }
    }

    /// `SlotRing` wraparound: retention, drop counts, and order hold for
    /// any capacity/volume combination.
    #[test]
    fn slot_ring_wraparound_is_exact(
        capacity in 1usize..32,
        pushes in 0u64..200,
    ) {
        let mut ring: SlotRing<u64> = SlotRing::new(capacity);
        for i in 0..pushes {
            let seq = ring.push_with(|seq, slot| *slot = seq);
            prop_assert_eq!(seq, i);
        }
        prop_assert_eq!(ring.total(), pushes);
        prop_assert_eq!(ring.len() as u64, pushes.min(capacity as u64));
        prop_assert_eq!(ring.dropped(), pushes.saturating_sub(capacity as u64));
        let retained: Vec<u64> = ring.iter().copied().collect();
        let expected: Vec<u64> =
            (pushes.saturating_sub(capacity as u64)..pushes).collect();
        prop_assert_eq!(retained, expected);
        prop_assert_eq!(ring.latest().copied(), pushes.checked_sub(1));
    }
}
