//! Micro-benchmarks of the DICE hot paths: window binarization, the
//! candidate-group search (the cost driver Figure 5.3 identifies), the
//! transition check, and identification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dice_bench::{bench_simulator, bench_trained};
use dice_core::{
    BitSet, ContextExtractor, Detector, DiceConfig, GroupTable, Identifier, ParallelTrainer,
    PrevWindow, SlicedScanIndex,
};
use dice_types::{
    ActuatorEvent, ActuatorKind, DeviceRegistry, EventLog, GroupId, Room, SensorId, SensorKind,
    SensorReading, TimeDelta, Timestamp,
};

fn bench_binarize(c: &mut Criterion) {
    let td = bench_trained();
    let sim = bench_simulator();
    let segment = td.plan.segments()[0];
    let mut log = sim.log_between(segment.start, segment.start + TimeDelta::from_mins(1));
    let events: Vec<_> = log.events().to_vec();
    c.bench_function("binarize_one_window_37_sensors", |b| {
        b.iter(|| {
            td.model.binarizer().binarize(
                segment.start,
                segment.start + TimeDelta::from_mins(1),
                std::hint::black_box(&events),
            )
        });
    });
}

fn bench_candidate_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_search");
    // Synthetic group tables of growing size over 120-bit states.
    for &groups in &[50usize, 500, 5000] {
        let mut table = GroupTable::new(120);
        for i in 0..groups {
            // Encode `i` in the low bits so every state is distinct, plus a
            // varying activity pattern in the high bits.
            let id_bits = (0..13).filter(move |j| (i >> j) & 1 == 1);
            let pattern = (13..120).filter(move |b| (b * 31 + i * 7) % 17 < 2);
            let state = BitSet::from_indices(120, id_bits.chain(pattern));
            table.observe(&state);
        }
        assert_eq!(table.len(), groups, "bench states must be distinct");
        let query = BitSet::from_indices(120, (0..120).filter(|b| b % 9 == 0));
        group.bench_with_input(BenchmarkId::from_parameter(groups), &groups, |b, _| {
            b.iter(|| table.candidates(std::hint::black_box(&query), 3));
        });
    }
    group.finish();
}

/// A distinct synthetic state whose popcount sweeps the activity range
/// (same construction as the `bench-json` baseline): `i`'s binary form in
/// the low 20 bits keeps states distinct, and a contiguous run of high bits
/// spreads popcounts the way real idle-to-busy group tables do.
fn hh102_scale_state(num_bits: usize, i: usize, run_len: usize, phase: usize) -> BitSet {
    let id_bits = (0..20).filter(move |j| (i >> j) & 1 == 1);
    let span = num_bits - 20;
    let start = (i * 7 + phase) % span;
    let run = (0..run_len.min(span)).map(move |k| 20 + (start + k) % span);
    BitSet::from_indices(num_bits, id_bits.chain(run))
}

fn hh102_scale_table(num_bits: usize, groups: usize) -> GroupTable {
    let mut table = GroupTable::new(num_bits);
    for i in 0..groups {
        table.observe(&hh102_scale_state(num_bits, i, 3 * (i % 40), 0));
    }
    assert_eq!(table.len(), groups, "bench states must be distinct");
    table
}

fn bench_scan_index(c: &mut Criterion) {
    // hh102 scale: 33 binary + 79 numeric sensors = 270 state bits; the
    // naive whole-table scan vs the model's SlicedScanIndex (row-major at
    // 10^2 groups, bit-sliced at 10^3..10^4).
    const NUM_BITS: usize = 33 + 3 * 79;
    let mut group = c.benchmark_group("scan_index_hh102");
    for &groups in &[100usize, 1000, 10_000] {
        let table = hh102_scale_table(NUM_BITS, groups);
        let index = SlicedScanIndex::build(&table);
        let query = hh102_scale_state(NUM_BITS, 5, 60, 11);
        group.bench_with_input(BenchmarkId::new("naive", groups), &groups, |b, _| {
            b.iter(|| table.candidates(std::hint::black_box(&query), 3));
        });
        group.bench_with_input(BenchmarkId::new("indexed", groups), &groups, |b, _| {
            let mut scratch = Vec::new();
            b.iter(|| {
                index.candidates_into(std::hint::black_box(&query), 3, &mut scratch);
                scratch.len()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("indexed_nearest", groups),
            &groups,
            |b, _| {
                let mut scratch = Vec::new();
                b.iter(|| {
                    index.nearest_into(std::hint::black_box(&query), &mut scratch);
                    scratch.len()
                });
            },
        );
        // A 16-query batch amortizing the plane sweep (per-iteration time
        // covers all 16 queries).
        let batch_queries: Vec<BitSet> = (0..16)
            .map(|k| hh102_scale_state(NUM_BITS, 5 + k, 60, 11 + k))
            .collect();
        let query_refs: Vec<&BitSet> = batch_queries.iter().collect();
        group.bench_with_input(
            BenchmarkId::new("indexed_batch16", groups),
            &groups,
            |b, _| {
                let mut scratch = Vec::new();
                b.iter(|| {
                    index.candidates_batch_into(std::hint::black_box(&query_refs), 3, &mut scratch);
                    scratch.len()
                });
            },
        );
    }
    group.finish();
}

/// Serial vs 4-way-chunked training over an hh102-scale log (33 binary +
/// 79 numeric sensors = 270 state bits, 12 h at one-minute windows). The
/// parallel path is bit-identical to serial, so on one core this measures
/// pure map-reduce orchestration overhead and on multi-core machines the
/// actual chunked speedup.
fn bench_trainer_hh102(c: &mut Criterion) {
    let mut registry = DeviceRegistry::new();
    for i in 0..33 {
        registry.add_sensor(SensorKind::Motion, format!("m{i:02}"), Room::Kitchen);
    }
    for i in 0..79 {
        registry.add_sensor(SensorKind::Temperature, format!("t{i:02}"), Room::Kitchen);
    }
    let bulb = registry.add_actuator(ActuatorKind::SmartBulb, "bulb", Room::Kitchen);
    let mut log = EventLog::new();
    for minute in 0..(12 * 60) {
        let at = Timestamp::from_mins(minute);
        for k in 0..4 {
            let sensor = u32::try_from((minute * 13 + k * 7) % 33).unwrap();
            log.push_sensor(SensorReading::new(
                SensorId::new(sensor),
                at + TimeDelta::from_secs(k * 11),
                true.into(),
            ));
        }
        for k in 0..6 {
            let sensor = 33 + u32::try_from((minute * 5 + k * 17) % 79).unwrap();
            let value = 18.0 + ((minute + k) % 13) as f64 * 0.5;
            log.push_sensor(SensorReading::new(
                SensorId::new(sensor),
                at + TimeDelta::from_secs(20 + k * 5),
                value.into(),
            ));
        }
        if minute % 7 == 0 {
            log.push_actuator(ActuatorEvent::new(
                bulb,
                at + TimeDelta::from_secs(45),
                minute % 14 == 0,
            ));
        }
    }
    let _ = log.events(); // normalize once so clones in the loop are pre-sorted
    let mut group = c.benchmark_group("trainer_hh102");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            ContextExtractor::new(DiceConfig::default())
                .extract(&registry, &mut std::hint::black_box(log.clone()))
                .unwrap()
                .groups()
                .len()
        });
    });
    group.bench_function("parallel_4_chunks", |b| {
        b.iter(|| {
            ParallelTrainer::new(DiceConfig::default())
                .with_chunks(4)
                .extract(&registry, &mut std::hint::black_box(log.clone()))
                .unwrap()
                .groups()
                .len()
        });
    });
    group.finish();
}

fn bench_checks(c: &mut Criterion) {
    let td = bench_trained();
    let sim = bench_simulator();
    let segment = td.plan.segments()[0];
    let mut log = sim.log_between(segment.start, segment.start + TimeDelta::from_mins(2));
    let windows: Vec<_> = log
        .windows_between(
            segment.start,
            segment.start + TimeDelta::from_mins(2),
            TimeDelta::from_mins(1),
        )
        .map(|w| (w.start, w.end, w.events.to_vec()))
        .collect();
    let detector = Detector::new(&td.model);
    let obs0 = td
        .model
        .binarizer()
        .binarize(windows[0].0, windows[0].1, &windows[0].2);
    let obs1 = td
        .model
        .binarizer()
        .binarize(windows[1].0, windows[1].1, &windows[1].2);
    let group0 = td
        .model
        .groups()
        .lookup(&obs0.state)
        .unwrap_or(GroupId::new(0));
    let prev = PrevWindow {
        group: group0,
        exact: true,
        activated_actuators: obs0.activated_actuators.clone(),
    };

    c.bench_function("correlation_check_exact_lookup", |b| {
        b.iter(|| detector.correlation_check(std::hint::black_box(&obs1)));
    });
    let group1 = td
        .model
        .groups()
        .lookup(&obs1.state)
        .unwrap_or(GroupId::new(0));
    c.bench_function("transition_check_three_cases", |b| {
        b.iter(|| detector.transition_check(std::hint::black_box(&prev), group1, &obs1));
    });

    // Identification on a correlation violation: corrupt one bit.
    let mut corrupted = obs1.clone();
    let flip = corrupted.state.len() - 1;
    corrupted.state.set(flip, !corrupted.state.get(flip));
    let result = detector.check(Some(&prev), &corrupted);
    let identifier = Identifier::new(&td.model);
    c.bench_function("identification_probable_devices", |b| {
        b.iter(|| {
            identifier.probable_devices(Some(&prev), &corrupted, std::hint::black_box(&result))
        });
    });
}

fn bench_end_to_end_window(c: &mut Criterion) {
    let td = bench_trained();
    let sim = bench_simulator();
    let segment = td.plan.segments()[0];
    let mut log = sim.log_between(segment.start, segment.end);
    let windows: Vec<_> = log
        .windows_between(segment.start, segment.end, TimeDelta::from_mins(1))
        .map(|w| (w.start, w.end, w.events.to_vec()))
        .collect();
    c.bench_function("engine_process_six_hour_segment", |b| {
        b.iter(|| {
            let mut engine = dice_core::DiceEngine::new(&td.model);
            for (start, end, events) in &windows {
                let _ = engine.process_window(*start, *end, std::hint::black_box(events));
            }
            engine.cost_profile().windows
        });
    });
    let _ = Timestamp::ZERO; // keep the import used in all configurations
}

criterion_group!(
    benches,
    bench_binarize,
    bench_candidate_search,
    bench_scan_index,
    bench_trainer_hh102,
    bench_checks,
    bench_end_to_end_window
);
criterion_main!(benches);
