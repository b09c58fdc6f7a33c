//! Cross-crate property-based tests (proptest) for the core invariants.

use dice_core::{
    parse_trace_jsonl, read_model, write_model, write_trace_jsonl, BitSet, ContextExtractor,
    DecisionTrace, DiceConfig, DiceEngine, DiceModel, EngineOptions, FaultReport, GroupTable,
    ParallelTrainer, ScanIndex, ScanProfile, TraceHeader, TraceLog, TraceOptions, TracePhase,
    TraceTransition, TraceVerdict, TransitionCase, TransitionCounts,
};
use dice_telemetry::Telemetry;
use dice_types::{
    ActuatorEvent, ActuatorId, ActuatorKind, DeviceRegistry, EventLog, GroupId, Room, SensorId,
    SensorKind, SensorReading, TimeDelta, Timestamp,
};
use proptest::prelude::*;

/// Trains a 4-motion-sensor model on `fires` and replays `live` through an
/// engine with the given trace options, returning in-stream reports plus
/// the flushed tail.
fn replay_with_trace(
    train: &[(u32, i64)],
    live: &[(u32, i64)],
    trace: TraceOptions,
) -> Result<(DiceModel, Vec<FaultReport>), dice_core::DiceError> {
    let mut registry = DeviceRegistry::new();
    for i in 0..4 {
        registry.add_sensor(SensorKind::Motion, format!("s{i}"), Room::Kitchen);
    }
    let build = |fires: &[(u32, i64)]| {
        let mut log = EventLog::new();
        for &(sensor, minute) in fires {
            log.push_sensor(SensorReading::new(
                SensorId::new(sensor),
                Timestamp::from_mins(minute) + TimeDelta::from_secs(7),
                true.into(),
            ));
        }
        log
    };
    let model =
        ContextExtractor::new(DiceConfig::default()).extract(&registry, &mut build(train))?;
    let mut engine = DiceEngine::with_options(
        &model,
        EngineOptions {
            telemetry: Telemetry::noop(),
            trace,
            ..EngineOptions::default()
        },
    );
    let mut reports = engine.process_log(&mut build(live));
    reports.extend(engine.flush());
    drop(engine);
    Ok((model, reports))
}

/// A hand-built trace exercising serializer paths engine evidence may not
/// hit: every transition case, empty and populated options, and a
/// probability with a long decimal expansion.
fn synthetic_trace(index: u64, observed: f64, bits: usize) -> DecisionTrace {
    let words = bits.div_ceil(64);
    let word = |salt: u64| {
        let raw = (index + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(u32::try_from(salt % 63).unwrap());
        // Keep the top word consistent with `bits` so `state()` stays valid.
        if bits.is_multiple_of(64) {
            raw
        } else {
            raw & ((1u64 << (bits % 64)) - 1)
        }
    };
    let case = match index % 3 {
        0 => TransitionCase::G2G {
            from: GroupId::new(1),
            to: GroupId::new(2),
        },
        1 => TransitionCase::G2A {
            from: GroupId::new(3),
            actuator: ActuatorId::new(0),
        },
        _ => TransitionCase::A2G {
            actuator: ActuatorId::new(1),
            to: GroupId::new(4),
        },
    };
    let nearest = index.is_multiple_of(2).then(|| (GroupId::new(1), 2));
    DecisionTrace {
        window: index,
        start: Timestamp::from_mins(i64::try_from(index).unwrap()),
        end: Timestamp::from_mins(i64::try_from(index).unwrap() + 1),
        bits,
        ones: u32::try_from(index % 7).unwrap(),
        state_words: (0..words as u64).map(word).collect(),
        main_group: (index % 2 == 1).then(|| GroupId::new(7)),
        candidates: vec![(GroupId::new(1), 2), (GroupId::new(5), 3)],
        nearest,
        nearest_state: if nearest.is_some() {
            (0..words as u64).map(|w| word(w + 17)).collect()
        } else {
            Vec::new()
        },
        transitions: vec![TraceTransition {
            case,
            observed,
            threshold: 0.0,
            support: index,
            min_support: 3,
        }],
        phase_before: TracePhase::Monitoring,
        phase_after: if index.is_multiple_of(2) {
            TracePhase::Identifying
        } else {
            TracePhase::Monitoring
        },
        verdict: match index % 3 {
            0 => TraceVerdict::Normal,
            1 => TraceVerdict::Correlation,
            _ => TraceVerdict::Transition,
        },
        reported: index.is_multiple_of(4),
        conclusive: index.is_multiple_of(8),
    }
}

fn bitset_strategy(len: usize) -> impl Strategy<Value = BitSet> {
    prop::collection::vec(any::<bool>(), len).prop_map(move |bits| {
        BitSet::from_indices(
            len,
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
        )
    })
}

/// Checks every [`ScanIndex`] entry point against the naive scan of
/// `table`: candidates, nearest ties, batch results, and profiles that sum
/// over a batch. `stored` is a state of the table, so its candidate scan
/// has a hit.
fn assert_scans_match_naive(
    table: &GroupTable,
    query: &BitSet,
    near: &BitSet,
    stored: &BitSet,
    max_distance: u32,
) {
    let naive_candidates = table.candidates(query, max_distance);
    let naive_nearest = table.nearest(query);
    let batch_queries = [query, near, stored];
    let index = ScanIndex::build(table);
    assert_eq!(index.len(), table.len());

    let mut candidates = Vec::new();
    let _ = index.candidates_into(query, max_distance, &mut candidates);
    assert_eq!(&candidates, &naive_candidates);
    let mut nearest = Vec::new();
    let _ = index.nearest_into(query, &mut nearest);
    assert_eq!(&nearest, &naive_nearest);
    let mut scratch = Vec::new();
    let _ = index.candidates_into(stored, max_distance, &mut scratch);

    // Scratch reuse: a dirty buffer from a previous query must not leak
    // into the next result.
    let _ = index.candidates_into(query, max_distance, &mut scratch);
    assert_eq!(&scratch, &naive_candidates);

    let mut candidate_batch = Vec::new();
    let batch_profile =
        index.candidates_batch_into(&batch_queries, max_distance, &mut candidate_batch);
    let mut summed = ScanProfile::default();
    for (q, slots) in batch_queries.iter().zip(&candidate_batch) {
        assert_eq!(slots, &table.candidates(q, max_distance));
        summed.absorb(index.candidates_into(q, max_distance, &mut scratch));
    }
    assert_eq!(batch_profile, summed, "batch profile is the sum of singles");
}

proptest! {
    /// Hamming distance is a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn hamming_distance_is_a_metric(
        a in bitset_strategy(40),
        b in bitset_strategy(40),
        c in bitset_strategy(40),
    ) {
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert_eq!(a.hamming_distance(&b) == 0, a == b);
        prop_assert!(
            a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c)
        );
    }

    /// The bounded-distance variant agrees with the exact distance.
    #[test]
    fn hamming_distance_within_agrees(
        a in bitset_strategy(70),
        b in bitset_strategy(70),
        limit in 0u32..70,
    ) {
        let exact = a.hamming_distance(&b);
        match a.hamming_distance_within(&b, limit) {
            Some(d) => prop_assert_eq!(d, exact),
            None => prop_assert!(exact > limit),
        }
    }

    /// diff_indices returns exactly the differing bits.
    #[test]
    fn diff_indices_matches_distance(
        a in bitset_strategy(40),
        b in bitset_strategy(40),
    ) {
        let diff: Vec<usize> = a.diff_indices(&b).collect();
        prop_assert_eq!(diff.len() as u32, a.hamming_distance(&b));
        for i in diff {
            prop_assert_ne!(a.get(i), b.get(i));
        }
    }

    /// Group observation is idempotent on ids and total counts add up.
    #[test]
    fn group_table_counts_are_consistent(
        states in prop::collection::vec(bitset_strategy(12), 1..60),
    ) {
        let mut table = GroupTable::new(12);
        for state in &states {
            table.observe(state);
        }
        prop_assert_eq!(table.total_observations(), states.len() as u64);
        // Every observed state has an exact-match group.
        for state in &states {
            let id = table.lookup(state).expect("observed state must be a group");
            prop_assert_eq!(table.state(id), state);
        }
        // Candidate search at max distance finds every group.
        let all = table.candidates(&states[0], 12);
        prop_assert_eq!(all.len(), table.len());
    }

    /// The scan index agrees exactly with the naive group-table scan for any
    /// table, query, and threshold — including the ordering of candidates
    /// and nearest-tie sets. Each case checks two table sizes: a small one
    /// (`states`) and one of at least 160 groups (`states` plus `extra`).
    /// Width 130 exercises multi-word rows.
    #[test]
    fn scan_index_matches_naive_table(
        states in prop::collection::vec(bitset_strategy(130), 1..50),
        extra in prop::collection::vec(
            bitset_strategy(130),
            160..320,
        ),
        query in bitset_strategy(130),
        flips in prop::collection::vec(0usize..130, 1..6),
        max_distance in 0u32..20,
    ) {
        // A near-miss of a stored state, so the thresholds find real hits.
        let mut near = states[0].clone();
        for &bit in &flips {
            near.set(bit, !near.get(bit));
        }
        let mut table = GroupTable::new(130);
        for state in &states {
            table.observe(state);
        }
        assert_scans_match_naive(&table, &query, &near, &states[0], max_distance);
        for state in &extra {
            table.observe(state);
        }
        assert_scans_match_naive(&table, &query, &near, &states[0], max_distance);
    }

    /// Transition probabilities per row sum to one (over observed columns).
    #[test]
    fn transition_rows_are_distributions(
        pairs in prop::collection::vec((0u32..8, 0u32..8), 1..100),
    ) {
        let mut t = TransitionCounts::new();
        for &(from, to) in &pairs {
            t.record(from, to);
        }
        for from in 0..8 {
            if t.row_total(from) == 0 { continue; }
            let sum: f64 = t.successors(from).iter().map(|&to| t.prob(from, to)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {} sums to {}", from, sum);
        }
    }

    /// Loading arbitrarily corrupted model bytes returns an error instead of
    /// panicking, and a clean round trip is exact.
    #[test]
    fn model_io_survives_corruption(
        flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..8),
        truncate_at in 0usize..4096,
    ) {
        let mut registry = DeviceRegistry::new();
        let m = registry.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let t = registry.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let mut log = EventLog::new();
        for minute in 0..30 {
            let at = Timestamp::from_mins(minute);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(m, at, true.into()));
            }
            log.push_sensor(SensorReading::new(t, at, (20.0 + (minute % 3) as f64).into()));
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&registry, &mut log)
            .unwrap();
        let mut bytes = Vec::new();
        write_model(&model, &mut bytes).unwrap();
        prop_assert_eq!(&read_model(bytes.as_slice()).unwrap(), &model);

        // Corrupt: flip bytes and truncate; decoding must return Err or a
        // (coincidentally still valid) model — never panic.
        let mut corrupted = bytes.clone();
        for &(pos, value) in &flips {
            let len = corrupted.len();
            corrupted[pos % len] ^= value;
        }
        corrupted.truncate((truncate_at % corrupted.len()).max(1));
        let _ = read_model(corrupted.as_slice());
    }

    /// Chunked parallel training is bit-identical to the serial extractor —
    /// same model *and* same serialized bytes — for any log (binary-only,
    /// numeric-heavy, with or without actuators, down to a single window)
    /// and any chunk count (1, 2, 7, exactly the window count, and more
    /// chunks than windows, which leaves some chunks empty).
    #[test]
    fn parallel_training_is_byte_identical_to_serial(
        binary_fires in prop::collection::vec((0u32..3, 0i64..90), 1..60),
        numeric_reads in prop::collection::vec((0u32..2, 0i64..90, -50i32..150), 0..60),
        actuations in prop::collection::vec((0u32..2, 0i64..90, any::<bool>()), 0..20),
        collapse in any::<bool>(),
    ) {
        let mut registry = DeviceRegistry::new();
        for i in 0..3 {
            registry.add_sensor(SensorKind::Motion, format!("m{i}"), Room::Kitchen);
        }
        for i in 0..2 {
            registry.add_sensor(SensorKind::Temperature, format!("t{i}"), Room::Kitchen);
        }
        let bulbs = [
            registry.add_actuator(ActuatorKind::SmartBulb, "a0", Room::Kitchen),
            registry.add_actuator(ActuatorKind::SmartBulb, "a1", Room::Kitchen),
        ];
        // `collapse` squeezes every event into minute zero, so the log
        // covers exactly one window.
        let at = |minute: i64, offset: i64| {
            Timestamp::from_mins(if collapse { 0 } else { minute })
                + TimeDelta::from_secs(offset % 60)
        };
        let mut log = EventLog::new();
        for &(sensor, minute) in &binary_fires {
            log.push_sensor(SensorReading::new(
                SensorId::new(sensor),
                at(minute, i64::from(sensor) * 13),
                true.into(),
            ));
        }
        for &(sensor, minute, value) in &numeric_reads {
            log.push_sensor(SensorReading::new(
                SensorId::new(3 + sensor),
                at(minute, i64::from(value.unsigned_abs())),
                (f64::from(value) * 0.25).into(),
            ));
        }
        for &(actuator, minute, active) in &actuations {
            log.push_actuator(ActuatorEvent::new(
                bulbs[actuator as usize],
                at(minute, i64::from(actuator) * 29),
                active,
            ));
        }

        let serial = ContextExtractor::new(DiceConfig::default())
            .extract(&registry, &mut log.clone())
            .unwrap();
        let mut serial_bytes = Vec::new();
        write_model(&serial, &mut serial_bytes).unwrap();

        let num_windows = serial.training_windows() as usize;
        for chunks in [1, 2, 7, num_windows, num_windows + 5] {
            let parallel = ParallelTrainer::new(DiceConfig::default())
                .with_chunks(chunks.max(1))
                .extract(&registry, &mut log.clone())
                .unwrap();
            prop_assert_eq!(&parallel, &serial, "model mismatch at {} chunks", chunks);
            let mut parallel_bytes = Vec::new();
            write_model(&parallel, &mut parallel_bytes).unwrap();
            prop_assert_eq!(
                &parallel_bytes,
                &serial_bytes,
                "serialized bytes differ at {} chunks",
                chunks
            );
        }
    }

    /// Tracing is an observer: for any training data and any live stream, an
    /// engine with the flight recorder on emits a bit-identical fault-report
    /// stream to one with tracing off — evidence rides along on the traced
    /// side but never changes a decision.
    #[test]
    fn tracing_never_changes_fault_reports(
        train in prop::collection::vec((0u32..4, 0i64..240), 10..120),
        live in prop::collection::vec((0u32..4, 0i64..60), 5..60),
    ) {
        let (_, plain) = replay_with_trace(&train, &live, TraceOptions::default()).unwrap();
        let (_, traced) = replay_with_trace(&train, &live, TraceOptions::recording()).unwrap();
        prop_assert_eq!(&plain, &traced, "tracing changed the report stream");
        for report in &plain {
            prop_assert!(report.evidence.is_empty(), "untraced engines carry no evidence");
        }
        for report in &traced {
            prop_assert!(!report.evidence.is_empty(), "traced reports must carry evidence");
        }
        // `FaultReport` equality excludes evidence by design; everything
        // else must agree down to the Debug rendering.
        let mut stripped = traced.clone();
        for report in &mut stripped {
            report.evidence.clear();
        }
        prop_assert_eq!(format!("{plain:?}"), format!("{stripped:?}"));
    }

    /// The JSONL trace format round-trips byte-stably: serialize → parse →
    /// serialize is the identity on bytes, and parse recovers the exact
    /// structures — for engine-produced evidence and for hand-built traces
    /// covering every transition case.
    #[test]
    fn trace_jsonl_round_trip_is_byte_stable(
        train in prop::collection::vec((0u32..4, 0i64..240), 10..120),
        live in prop::collection::vec((0u32..4, 0i64..60), 5..60),
        probs in prop::collection::vec(0u32..=1000, 1..5),
    ) {
        let (model, reports) =
            replay_with_trace(&train, &live, TraceOptions::recording()).unwrap();
        let header = TraceHeader::from_layout(model.layout());
        let mut traces: Vec<DecisionTrace> = reports
            .iter()
            .flat_map(|r| r.evidence.iter().cloned())
            .collect();
        let bits = header.num_bits;
        for (i, &p) in probs.iter().enumerate() {
            traces.push(synthetic_trace(i as u64, f64::from(p) / 999.0, bits));
        }
        let log = TraceLog { header, traces };
        let text = write_trace_jsonl(&log);
        let parsed = parse_trace_jsonl(&text);
        prop_assert!(parsed.is_ok(), "parse failed: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &log, "parse must recover the exact structures");
        prop_assert_eq!(
            write_trace_jsonl(&parsed),
            text,
            "re-serialization must be byte-identical"
        );
    }

    /// A model trained on any binary event log never raises a correlation
    /// violation when replaying its own training data.
    #[test]
    fn replaying_training_data_matches_main_groups(
        fires in prop::collection::vec(
            (0u32..4, 0i64..240),
            10..120,
        ),
    ) {
        let mut registry = DeviceRegistry::new();
        for i in 0..4 {
            registry.add_sensor(SensorKind::Motion, format!("s{i}"), Room::Kitchen);
        }
        let mut log = EventLog::new();
        for &(sensor, minute) in &fires {
            log.push_sensor(SensorReading::new(
                SensorId::new(sensor),
                Timestamp::from_mins(minute) + TimeDelta::from_secs(7),
                true.into(),
            ));
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&registry, &mut log)
            .unwrap();
        // Every training window's state set must be a known group.
        for window in log.windows(TimeDelta::from_mins(1)) {
            let obs = model.binarizer().binarize(window.start, window.end, window.events);
            prop_assert!(
                model.groups().lookup(&obs.state).is_some(),
                "training window produced an unknown state"
            );
        }
    }
}
