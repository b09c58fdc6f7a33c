//! The `bench-json` command: a tracked benchmark baseline.
//!
//! Measures the candidate-scan hot path — the naive [`GroupTable`] scan
//! against the model's [`SlicedScanIndex`] (single-query and batched, with
//! the dispatched SIMD backend recorded) —
//! at hh102 width (33 binary + 79 numeric sensors = 270 state bits) across
//! group-table sizes, plus end-to-end engine throughput on the testbed, and
//! writes the results as JSON. CI runs this from the repo root to refresh
//! `BENCH_core.json`.
//
// lint-src: allow-file(wall-clock) — a benchmark exists to read the clock;
// timings are reported, never fed back into model state.

use std::fmt::Write as _;
use std::time::Instant;

use dice_core::{
    BitSet, DiceConfig, DiceEngine, EngineOptions, GroupTable, ParallelTrainer, ScanBackend,
    SlicedScanIndex, SCAN_CROSSOVER_GROUPS,
};
use dice_sim::testbed;
use dice_telemetry::{Telemetry, TimeSeriesRecorder};
use dice_types::{
    ActuatorEvent, ActuatorId, ActuatorKind, DeviceRegistry, EventLog, Room, SensorId, SensorKind,
    SensorReading, TimeDelta, Timestamp,
};

use super::fleet_bench::{run_fleet_bench, run_fleet_bench_traced, FleetBenchResult, FLOOR_PLANS};
use crate::runner::{train_scenario, RunnerConfig, TrainedDataset};

/// hh102's state width: 33 binary sensors + 3 bits per numeric sensor.
const HH102_BITS: usize = 33 + 3 * 79;

/// The candidate threshold used throughout the paper experiments.
const MAX_DISTANCE: u32 = 3;

/// One row of the candidate-scan comparison.
#[derive(Debug, Clone, Copy)]
struct ScanRow {
    groups: usize,
    naive_ns: f64,
    index_ns: f64,
    batch_ns: f64,
    backend: &'static str,
}

impl ScanRow {
    fn ratio(naive: f64, fast: f64) -> f64 {
        if fast > 0.0 {
            naive / fast
        } else {
            0.0
        }
    }

    fn speedup_index(&self) -> f64 {
        Self::ratio(self.naive_ns, self.index_ns)
    }

    fn speedup_batch(&self) -> f64 {
        Self::ratio(self.naive_ns, self.batch_ns)
    }
}

/// A distinct synthetic state whose popcount sweeps the activity range.
///
/// Real group tables mix near-idle states (few bits set) with busy-household
/// states (many bits set); the popcount spread is what the scan index's
/// prefilter exploits, so the synthetic workload reproduces it: `i`'s binary
/// form in the low 20 bits keeps states distinct, and a contiguous run of
/// `3 * (i mod 40)` high bits spreads popcounts over roughly `[0, 120]`.
fn synthetic_state(num_bits: usize, i: usize, run_len: usize, phase: usize) -> BitSet {
    let id_bits = (0..20).filter(move |j| (i >> j) & 1 == 1);
    let span = num_bits - 20;
    let start = (i * 7 + phase) % span;
    let run = (0..run_len.min(span)).map(move |k| 20 + (start + k) % span);
    BitSet::from_indices(num_bits, id_bits.chain(run))
}

/// Builds a table of `groups` distinct states over `num_bits` bits.
fn synthetic_table(num_bits: usize, groups: usize) -> GroupTable {
    let mut table = GroupTable::new(num_bits);
    for i in 0..groups {
        table.observe(&synthetic_state(num_bits, i, 3 * (i % 40), 0));
    }
    assert_eq!(table.len(), groups, "bench states must be distinct");
    table
}

/// Query states resembling live windows: mid-activity near-misses.
fn synthetic_queries(num_bits: usize, count: usize) -> Vec<BitSet> {
    (0..count)
        .map(|q| synthetic_state(num_bits, q, 57 + q % 7, 11))
        .collect()
}

/// Times `f` (one full query sweep) and returns nanoseconds per call,
/// doubling the repetition count until the measurement window is long
/// enough to trust.
fn time_ns(mut f: impl FnMut() -> usize) -> f64 {
    let mut sink = 0usize;
    for _ in 0..2 {
        sink = sink.wrapping_add(f());
    }
    let mut reps = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            sink = sink.wrapping_add(f());
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 25 || reps >= 1 << 20 {
            std::hint::black_box(sink);
            return elapsed.as_nanos() as f64 / f64::from(reps);
        }
        reps = reps.saturating_mul(2);
    }
}

/// Benchmarks the naive scan against the model's scan index (single and
/// batched) for each table size.
fn candidate_scan_rows(num_bits: usize, sizes: &[usize]) -> Vec<ScanRow> {
    let queries = synthetic_queries(num_bits, 32);
    let query_refs: Vec<&BitSet> = queries.iter().collect();
    let backend = ScanBackend::detect().name();
    sizes
        .iter()
        .map(|&groups| {
            let table = synthetic_table(num_bits, groups);
            let index = SlicedScanIndex::build(&table);
            let mut scratch = Vec::new();
            let mut batch_scratch: Vec<Vec<_>> = Vec::new();
            let naive_sweep = time_ns(|| {
                queries
                    .iter()
                    .map(|q| {
                        table
                            .candidates(std::hint::black_box(q), MAX_DISTANCE)
                            .len()
                    })
                    .sum()
            });
            let index_sweep = time_ns(|| {
                queries
                    .iter()
                    .map(|q| {
                        index.candidates_into(std::hint::black_box(q), MAX_DISTANCE, &mut scratch);
                        scratch.len()
                    })
                    .sum()
            });
            let batch_sweep = time_ns(|| {
                index.candidates_batch_into(
                    std::hint::black_box(&query_refs),
                    MAX_DISTANCE,
                    &mut batch_scratch,
                );
                batch_scratch.iter().map(Vec::len).sum()
            });
            ScanRow {
                groups,
                naive_ns: naive_sweep / queries.len() as f64,
                index_ns: index_sweep / queries.len() as f64,
                batch_ns: batch_sweep / queries.len() as f64,
                backend,
            }
        })
        .collect()
}

/// End-to-end throughput: windows per second replaying testbed segments.
#[derive(Debug, Clone, Copy)]
struct Throughput {
    windows: u64,
    elapsed_ms: f64,
}

impl Throughput {
    fn windows_per_sec(&self) -> f64 {
        if self.elapsed_ms > 0.0 {
            self.windows as f64 * 1000.0 / self.elapsed_ms
        } else {
            0.0
        }
    }
}

/// Telemetry recording cost relative to the no-op sink on the same replay.
#[derive(Debug, Clone, Copy)]
struct TelemetryOverhead {
    noop_ns_per_window: f64,
    recording_ns_per_window: f64,
}

impl TelemetryOverhead {
    fn overhead_pct(&self) -> f64 {
        if self.noop_ns_per_window > 0.0 {
            (self.recording_ns_per_window - self.noop_ns_per_window) / self.noop_ns_per_window
                * 100.0
        } else {
            0.0
        }
    }
}

/// Time-series sampling cost: a recording sink plus a [`TimeSeriesRecorder`]
/// swept once per closed window (the monitor dashboard's cadence), relative
/// to the no-op sink on the same replay.
#[derive(Debug, Clone, Copy)]
struct TimeseriesOverhead {
    noop_ns_per_window: f64,
    sampled_ns_per_window: f64,
}

impl TimeseriesOverhead {
    fn overhead_pct(&self) -> f64 {
        if self.noop_ns_per_window > 0.0 {
            (self.sampled_ns_per_window - self.noop_ns_per_window) / self.noop_ns_per_window * 100.0
        } else {
            0.0
        }
    }
}

/// Fleet causal-tracing cost: the same fleet run with per-stage lineage
/// tracing on vs off. The §5l budget bounds this at 5%.
#[derive(Debug, Clone, Copy)]
struct FleetTracingOverhead {
    homes: usize,
    shards: usize,
    minutes: i64,
    untraced_ms: f64,
    traced_ms: f64,
}

impl FleetTracingOverhead {
    fn overhead_pct(&self) -> f64 {
        if self.untraced_ms > 0.0 {
            (self.traced_ms - self.untraced_ms) / self.untraced_ms * 100.0
        } else {
            0.0
        }
    }
}

/// Replays every planned segment through an engine wired to `telemetry`.
fn replay_segments(td: &TrainedDataset, window: TimeDelta, telemetry: &Telemetry) -> Throughput {
    let mut windows = 0u64;
    let mut elapsed_ms = 0.0f64;
    for segment in td.plan.segments() {
        let mut log = td.sim.log_between(segment.start, segment.end);
        let batched: Vec<_> = log
            .windows_between(segment.start, segment.end, window)
            .map(|w| (w.start, w.end, w.events.to_vec()))
            .collect();
        let mut engine = DiceEngine::with_options(
            &td.model,
            EngineOptions {
                telemetry: telemetry.clone(),
                ..EngineOptions::default()
            },
        );
        let start = Instant::now();
        for (ws, we, events) in &batched {
            let _ = engine.process_window(*ws, *we, std::hint::black_box(events));
        }
        elapsed_ms += start.elapsed().as_secs_f64() * 1000.0;
        windows += batched.len() as u64;
    }
    Throughput {
        windows,
        elapsed_ms,
    }
}

/// Windows per time-series sweep in the sampled replay — the monitor
/// dashboard's cadence (`SAMPLE_WINDOWS` in the `monitor` experiment), so
/// the bench measures the configuration the dashboard actually runs.
const BENCH_SAMPLE_WINDOWS: u64 = 30;

/// Like [`replay_segments`] but with a [`TimeSeriesRecorder`] sweeping the
/// registry on sim time in the monitor dashboard's exact configuration: one
/// sweep per [`BENCH_SAMPLE_WINDOWS`] closed windows, narrowed to the
/// dashboard's watchlist — the heaviest telemetry setup the monitor runs.
fn replay_segments_sampled(
    td: &TrainedDataset,
    window: TimeDelta,
    telemetry: &Telemetry,
) -> Throughput {
    let recorder = telemetry.recorder().expect("recording handle");
    let window_ns = u64::try_from(window.as_secs()).unwrap_or(1) * 1_000_000_000;
    let mut series = TimeSeriesRecorder::new(window_ns * BENCH_SAMPLE_WINDOWS, 256)
        .watch(super::monitor::DASHBOARD_SERIES);
    let mut windows = 0u64;
    let mut elapsed_ms = 0.0f64;
    for segment in td.plan.segments() {
        let mut log = td.sim.log_between(segment.start, segment.end);
        let batched: Vec<_> = log
            .windows_between(segment.start, segment.end, window)
            .map(|w| (w.start, w.end, w.events.to_vec()))
            .collect();
        let mut engine = DiceEngine::with_options(
            &td.model,
            EngineOptions {
                telemetry: telemetry.clone(),
                ..EngineOptions::default()
            },
        );
        let start = Instant::now();
        for (ws, we, events) in &batched {
            let _ = engine.process_window(*ws, *we, std::hint::black_box(events));
            let now_ns = u64::try_from(we.as_secs()).unwrap_or(0) * 1_000_000_000;
            series.maybe_sample(recorder, now_ns);
        }
        elapsed_ms += start.elapsed().as_secs_f64() * 1000.0;
        windows += batched.len() as u64;
    }
    std::hint::black_box(series.len());
    Throughput {
        windows,
        elapsed_ms,
    }
}

/// The median of a sample set (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics if `values` is empty.
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        f64::midpoint(values[mid - 1], values[mid])
    }
}

/// End-to-end throughput with the no-op sink, plus the recording overhead
/// measured on the same testbed replay.
///
/// Each rep runs all three modes back to back, and the overhead estimates
/// come from the *median of per-rep paired differences*: machine-speed
/// drift (frequency scaling, a noisy neighbor) moves both sides of a pair
/// together and cancels, where independent min-of-N for each mode lets the
/// two minima land in different drift epochs and report the drift itself as
/// overhead.
fn engine_throughput() -> (Throughput, TelemetryOverhead, TimeseriesOverhead) {
    let cfg = RunnerConfig {
        seed: 7,
        trials: 4,
        precompute: TimeDelta::from_hours(48),
        segment_len: TimeDelta::from_hours(6),
        ..RunnerConfig::default()
    };
    let spec = testbed::dice_testbed("bench", 7, TimeDelta::from_hours(80), 12, 1);
    let td = train_scenario(spec, &cfg);
    let window = cfg.dice.window();

    let mut windows = 0u64;
    let mut noop_ms = f64::INFINITY;
    let mut recording_deltas = Vec::new();
    let mut sampled_deltas = Vec::new();
    // One unmeasured warmup triad (page faults, branch predictors), then
    // enough measured reps for the paired median to settle — each rep is a
    // few milliseconds, so 25 of them are cheap.
    for rep in 0..26 {
        let noop = replay_segments(&td, window, &Telemetry::noop());
        let recording = replay_segments(&td, window, &Telemetry::recording());
        let sampled = replay_segments_sampled(&td, window, &Telemetry::recording());
        if rep == 0 {
            continue;
        }
        windows = noop.windows;
        noop_ms = noop_ms.min(noop.elapsed_ms);
        recording_deltas.push(recording.elapsed_ms - noop.elapsed_ms);
        sampled_deltas.push(sampled.elapsed_ms - noop.elapsed_ms);
    }
    let recording_ms = noop_ms + median(&mut recording_deltas).max(0.0);
    let sampled_ms = noop_ms + median(&mut sampled_deltas).max(0.0);
    let per_window = |ms: f64| {
        if windows > 0 {
            ms * 1e6 / windows as f64
        } else {
            0.0
        }
    };
    (
        Throughput {
            windows,
            elapsed_ms: noop_ms,
        },
        TelemetryOverhead {
            noop_ns_per_window: per_window(noop_ms),
            recording_ns_per_window: per_window(recording_ms),
        },
        TimeseriesOverhead {
            noop_ns_per_window: per_window(noop_ms),
            sampled_ns_per_window: per_window(sampled_ms),
        },
    )
}

/// Measures the fleet causal-tracing cost with the same paired-difference
/// discipline as [`engine_throughput`]: each rep runs the untraced and
/// traced fleet back to back (one warmup rep discarded), the untraced
/// baseline is the min across reps, and the traced estimate is that
/// baseline plus the median of per-rep paired differences — drift moves
/// both sides of a pair together and cancels.
fn fleet_tracing_overhead() -> FleetTracingOverhead {
    const HOMES: usize = 256;
    const SHARDS: usize = 4;
    const MINUTES: i64 = 30;
    let cache = dice_fleet::ModelCache::new();
    let mut untraced_ms = f64::INFINITY;
    let mut deltas = Vec::new();
    for rep in 0..26 {
        let untraced = run_fleet_bench_traced(&cache, HOMES, SHARDS, MINUTES, false);
        let traced = run_fleet_bench_traced(&cache, HOMES, SHARDS, MINUTES, true);
        if rep == 0 {
            continue;
        }
        untraced_ms = untraced_ms.min(untraced.elapsed_ms);
        deltas.push(traced.elapsed_ms - untraced.elapsed_ms);
    }
    FleetTracingOverhead {
        homes: HOMES,
        shards: SHARDS,
        minutes: MINUTES,
        untraced_ms,
        traced_ms: untraced_ms + median(&mut deltas).max(0.0),
    }
}

/// Parallel-training throughput: serial vs chunked extraction of an
/// hh102-scale synthetic log.
#[derive(Debug, Clone, Copy)]
struct TrainingBench {
    windows: u64,
    events: usize,
    serial_ms: f64,
    parallel_ms: f64,
    workers: usize,
    available_parallelism: usize,
}

impl TrainingBench {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            0.0
        }
    }
}

/// An hh102-scale deployment: 33 binary + 79 numeric sensors (270 state
/// bits) and a few actuators.
fn hh102_home() -> (
    DeviceRegistry,
    Vec<SensorId>,
    Vec<SensorId>,
    Vec<ActuatorId>,
) {
    let mut reg = DeviceRegistry::new();
    let binary: Vec<SensorId> = (0..33)
        .map(|i| reg.add_sensor(SensorKind::Motion, format!("m{i}"), Room::Kitchen))
        .collect();
    let numeric: Vec<SensorId> = (0..79)
        .map(|i| reg.add_sensor(SensorKind::Temperature, format!("t{i}"), Room::Kitchen))
        .collect();
    let actuators: Vec<ActuatorId> = (0..4)
        .map(|i| reg.add_actuator(ActuatorKind::SmartBulb, format!("a{i}"), Room::Kitchen))
        .collect();
    (reg, binary, numeric, actuators)
}

/// A deterministic synthetic training log at hh102 width: every minute a
/// handful of binary sensors fire and several numeric sensors report twice,
/// so windows mix all three numeric bit kinds with binary activity.
fn hh102_training_log(
    binary: &[SensorId],
    numeric: &[SensorId],
    actuators: &[ActuatorId],
    hours: i64,
) -> EventLog {
    let mut log = EventLog::new();
    for minute in 0..hours * 60 {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(11);
        let m = minute as usize;
        for k in 0..5 {
            let s = binary[(m * 7 + k * 13) % binary.len()];
            log.push_sensor(SensorReading::new(
                s,
                at + TimeDelta::from_secs(k as i64),
                true.into(),
            ));
        }
        for k in 0..8 {
            let s = numeric[(m * 5 + k * 11) % numeric.len()];
            let v = 18.0 + ((minute + k as i64) % 17) as f64 * 0.5;
            log.push_sensor(SensorReading::new(s, at, v.into()));
            log.push_sensor(SensorReading::new(
                s,
                at + TimeDelta::from_secs(30),
                (v + (minute % 3) as f64 - 1.0).into(),
            ));
        }
        if minute % 7 == 0 {
            let a = actuators[(m / 7) % actuators.len()];
            log.push_actuator(ActuatorEvent::new(a, at, true));
        }
    }
    log
}

/// Measures serial vs `TRAIN_WORKERS`-chunk training on the hh102-scale
/// log (min-of-N, interleaved), asserting the two models are identical.
///
/// The worker-pool width is pinned via `RAYON_NUM_THREADS` for each
/// measurement; on machines with fewer cores than `TRAIN_WORKERS` the
/// recorded `available_parallelism` explains a flat speedup.
fn training_bench(hours: i64) -> TrainingBench {
    const TRAIN_WORKERS: usize = 4;
    let (reg, binary, numeric, actuators) = hh102_home();
    let mut log = hh102_training_log(&binary, &numeric, &actuators, hours);
    log.normalize();
    let events = log.len();
    let config = DiceConfig::default();
    let serial_trainer = ParallelTrainer::new(config.clone()).with_chunks(1);
    let parallel_trainer = ParallelTrainer::new(config).with_chunks(TRAIN_WORKERS);

    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    let mut serial_ms = f64::INFINITY;
    let mut parallel_ms = f64::INFINITY;
    let mut windows = 0;
    for _ in 0..3 {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let start = Instant::now();
        let serial = serial_trainer
            .extract(&reg, &mut log.clone())
            .expect("log is non-empty");
        serial_ms = serial_ms.min(start.elapsed().as_secs_f64() * 1000.0);

        std::env::set_var("RAYON_NUM_THREADS", TRAIN_WORKERS.to_string());
        let start = Instant::now();
        let parallel = parallel_trainer
            .extract(&reg, &mut log.clone())
            .expect("log is non-empty");
        parallel_ms = parallel_ms.min(start.elapsed().as_secs_f64() * 1000.0);

        assert_eq!(serial, parallel, "parallel training must be bit-identical");
        windows = serial.training_windows();
    }
    match previous {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    TrainingBench {
        windows,
        events,
        serial_ms,
        parallel_ms,
        workers: TRAIN_WORKERS,
        available_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Static-analysis wall time: the full `verify_model` pass — container
/// invariants plus the transition-graph dataflow analysis — on an
/// hh102-scale trained model, so analyzer regressions show up in the same
/// baseline as the hot paths it guards.
#[derive(Debug, Clone, Copy)]
struct AnalysisBench {
    groups: usize,
    g2g_entries: usize,
    verify_ms: f64,
    findings: usize,
}

/// Trains an hh102-scale model and times `verify_model` on it (min-of-N).
fn analysis_bench(hours: i64) -> AnalysisBench {
    let (reg, binary, numeric, actuators) = hh102_home();
    let mut log = hh102_training_log(&binary, &numeric, &actuators, hours);
    log.normalize();
    let model = ParallelTrainer::new(DiceConfig::default())
        .extract(&reg, &mut log)
        .expect("log is non-empty");
    let mut findings = 0usize;
    let mut verify_ms = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let report = dice_verify::verify_model(std::hint::black_box(&model));
        verify_ms = verify_ms.min(start.elapsed().as_secs_f64() * 1000.0);
        findings = report.len();
    }
    AnalysisBench {
        groups: model.groups().len(),
        g2g_entries: model.transitions().g2g().num_entries(),
        verify_ms,
        findings,
    }
}

/// Renders the benchmark results as a stable, hand-rolled JSON document
/// (the serde shim does not serialize, so the emitter formats directly).
#[allow(clippy::too_many_arguments)]
fn render_json(
    rows: &[ScanRow],
    throughput: &Throughput,
    training: &TrainingBench,
    analysis: &AnalysisBench,
    overhead: &TelemetryOverhead,
    timeseries: &TimeseriesOverhead,
    tracing: &FleetTracingOverhead,
    fleet: &[FleetBenchResult],
) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"schema\": 1,\n");
    let _ = writeln!(
        json,
        "  \"candidate_scan\": {{\n    \"num_bits\": {HH102_BITS},\n    \"max_distance\": {MAX_DISTANCE},\n    \"crossover_groups\": {SCAN_CROSSOVER_GROUPS},\n    \"rows\": ["
    );
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"groups\": {}, \"naive_ns_per_scan\": {:.0}, \"index_ns_per_scan\": {:.0}, \"speedup_index\": {:.2}, \"batch_ns_per_query\": {:.0}, \"speedup_batch\": {:.2}, \"backend\": \"{}\"}}{comma}",
            row.groups,
            row.naive_ns,
            row.index_ns,
            row.speedup_index(),
            row.batch_ns,
            row.speedup_batch(),
            row.backend
        );
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"end_to_end\": {{\"dataset\": \"testbed\", \"windows\": {}, \"elapsed_ms\": {:.1}, \"windows_per_sec\": {:.0}}},",
        throughput.windows,
        throughput.elapsed_ms,
        throughput.windows_per_sec()
    );
    let _ = writeln!(
        json,
        "  \"training\": {{\"dataset\": \"hh102-synthetic\", \"num_bits\": {HH102_BITS}, \"windows\": {}, \"events\": {}, \"serial_ms\": {:.1}, \"parallel_ms\": {:.1}, \"workers\": {}, \"available_parallelism\": {}, \"speedup\": {:.2}}},",
        training.windows,
        training.events,
        training.serial_ms,
        training.parallel_ms,
        training.workers,
        training.available_parallelism,
        training.speedup()
    );
    let _ = writeln!(
        json,
        "  \"analysis\": {{\"dataset\": \"hh102-synthetic\", \"groups\": {}, \"g2g_entries\": {}, \"verify_ms\": {:.2}, \"findings\": {}}},",
        analysis.groups, analysis.g2g_entries, analysis.verify_ms, analysis.findings
    );
    let _ = writeln!(
        json,
        "  \"telemetry_overhead\": {{\"noop_ns_per_window\": {:.0}, \"recording_ns_per_window\": {:.0}, \"overhead_pct\": {:.2}}},",
        overhead.noop_ns_per_window,
        overhead.recording_ns_per_window,
        overhead.overhead_pct()
    );
    let _ = writeln!(
        json,
        "  \"timeseries_overhead\": {{\"noop_ns_per_window\": {:.0}, \"sampled_ns_per_window\": {:.0}, \"overhead_pct\": {:.2}}},",
        timeseries.noop_ns_per_window,
        timeseries.sampled_ns_per_window,
        timeseries.overhead_pct()
    );
    let _ = writeln!(
        json,
        "  \"fleet_tracing_overhead\": {{\"homes\": {}, \"shards\": {}, \"minutes\": {}, \"untraced_ms\": {:.1}, \"traced_ms\": {:.1}, \"overhead_pct\": {:.2}}},",
        tracing.homes,
        tracing.shards,
        tracing.minutes,
        tracing.untraced_ms,
        tracing.traced_ms,
        tracing.overhead_pct()
    );
    let _ = writeln!(
        json,
        "  \"fleet\": {{\n    \"floor_plans\": {FLOOR_PLANS},\n    \"rows\": ["
    );
    for (i, r) in fleet.iter().enumerate() {
        let comma = if i + 1 < fleet.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"homes\": {}, \"shards\": {}, \"minutes\": {}, \"windows\": {}, \"elapsed_ms\": {:.1}, \"windows_per_sec\": {:.0}, \"homes_per_sec\": {:.0}, \"alarms\": {}, \"models_resident\": {}}}{comma}",
            r.homes,
            r.shards,
            r.minutes,
            r.windows,
            r.elapsed_ms,
            r.windows_per_sec(),
            r.homes_per_sec(),
            r.alarms,
            r.models_resident
        );
    }
    json.push_str("    ]\n  }\n");
    json.push_str("}\n");
    json
}

/// Runs the benchmark baseline and writes it to `path` (default
/// `BENCH_core.json` in the working directory — the repo root in CI).
///
/// # Errors
///
/// Returns an error when the output file cannot be written.
pub fn bench_json(path: Option<&str>) -> Result<String, String> {
    let path = path.unwrap_or("BENCH_core.json");
    let rows = candidate_scan_rows(HH102_BITS, &[100, 1000, 10_000, 100_000]);
    let (throughput, overhead, timeseries) = engine_throughput();
    let training = training_bench(48);
    let analysis = analysis_bench(48);
    let tracing = fleet_tracing_overhead();
    let fleet = [run_fleet_bench(1000, 0, 60), run_fleet_bench(10_000, 0, 60)];
    let json = render_json(
        &rows,
        &throughput,
        &training,
        &analysis,
        &overhead,
        &timeseries,
        &tracing,
        &fleet,
    );
    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(out, "Benchmark baseline written to {path}");
    let _ = writeln!(
        out,
        "candidate scan ({HH102_BITS} bits, distance <= {MAX_DISTANCE}):"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "  {:>6} groups: naive {:>9.0} ns/scan, index[{}] {:>7.0} ns/scan ({:.2}x), batch {:>7.0} ns/query ({:.2}x)",
            row.groups,
            row.naive_ns,
            row.backend,
            row.index_ns,
            row.speedup_index(),
            row.batch_ns,
            row.speedup_batch()
        );
    }
    let _ = writeln!(
        out,
        "scan crossover: row-major below {SCAN_CROSSOVER_GROUPS} groups, bit-sliced at or above"
    );
    let _ = writeln!(
        out,
        "end-to-end: {} windows in {:.1} ms ({:.0} windows/s)",
        throughput.windows,
        throughput.elapsed_ms,
        throughput.windows_per_sec()
    );
    let _ = writeln!(
        out,
        "training (hh102 scale, {} windows, {} events): serial {:.1} ms, {} workers {:.1} ms ({:.2}x, {} cores available)",
        training.windows,
        training.events,
        training.serial_ms,
        training.workers,
        training.parallel_ms,
        training.speedup(),
        training.available_parallelism
    );
    let _ = writeln!(
        out,
        "analysis: verify_model over {} groups / {} g2g entries in {:.2} ms ({} finding(s))",
        analysis.groups, analysis.g2g_entries, analysis.verify_ms, analysis.findings
    );
    let _ = writeln!(
        out,
        "telemetry: noop {:.0} ns/window, recording {:.0} ns/window ({:+.2}% overhead)",
        overhead.noop_ns_per_window,
        overhead.recording_ns_per_window,
        overhead.overhead_pct()
    );
    let _ = writeln!(
        out,
        "timeseries: sampled {:.0} ns/window ({:+.2}% over noop, one registry sweep per {BENCH_SAMPLE_WINDOWS} windows)",
        timeseries.sampled_ns_per_window,
        timeseries.overhead_pct()
    );
    let _ = writeln!(
        out,
        "fleet tracing: {} homes / {} shards untraced {:.1} ms, traced {:.1} ms ({:+.2}% overhead, budget <= 5%)",
        tracing.homes,
        tracing.shards,
        tracing.untraced_ms,
        tracing.traced_ms,
        tracing.overhead_pct()
    );
    for r in &fleet {
        let _ = writeln!(
            out,
            "fleet: {} homes / {} shards: {} windows in {:.1} ms ({:.0} windows/sec, {:.0} homes/sec, {} models resident)",
            r.homes,
            r.shards,
            r.windows,
            r.elapsed_ms,
            r.windows_per_sec(),
            r.homes_per_sec(),
            r.models_resident
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_and_indexed_scans_agree_on_synthetic_tables() {
        let table = synthetic_table(HH102_BITS, 200);
        let index = SlicedScanIndex::build(&table);
        let queries = synthetic_queries(HH102_BITS, 8);
        for query in &queries {
            assert_eq!(
                table.candidates(query, MAX_DISTANCE),
                index.candidates(query, MAX_DISTANCE)
            );
        }
        let refs: Vec<&BitSet> = queries.iter().collect();
        let mut batch = Vec::new();
        let _ = index.candidates_batch_into(&refs, MAX_DISTANCE, &mut batch);
        for (query, got) in queries.iter().zip(&batch) {
            assert_eq!(got, &table.candidates(query, MAX_DISTANCE));
        }
    }

    #[test]
    fn json_renders_all_sections() {
        let rows = vec![ScanRow {
            groups: 100,
            naive_ns: 1000.0,
            index_ns: 50.0,
            batch_ns: 40.0,
            backend: "avx2",
        }];
        let throughput = Throughput {
            windows: 360,
            elapsed_ms: 12.0,
        };
        let overhead = TelemetryOverhead {
            noop_ns_per_window: 1800.0,
            recording_ns_per_window: 1836.0,
        };
        let training = TrainingBench {
            windows: 2880,
            events: 60_000,
            serial_ms: 90.0,
            parallel_ms: 30.0,
            workers: 4,
            available_parallelism: 8,
        };
        let analysis = AnalysisBench {
            groups: 2000,
            g2g_entries: 5000,
            verify_ms: 1.25,
            findings: 2,
        };
        let timeseries = TimeseriesOverhead {
            noop_ns_per_window: 1800.0,
            sampled_ns_per_window: 1857.0,
        };
        let tracing = FleetTracingOverhead {
            homes: 256,
            shards: 4,
            minutes: 30,
            untraced_ms: 200.0,
            traced_ms: 204.0,
        };
        let fleet = [FleetBenchResult {
            homes: 1000,
            shards: 8,
            minutes: 60,
            frames: 90_000,
            events: 90_000,
            windows: 60_000,
            batched_scans: 120,
            alarms: 63,
            suppressed: 10,
            alarming_homes: 63,
            faulty_homes: 63,
            models_resident: 4,
            backpressure_waits: 0,
            backpressure_wait_ns: 0,
            elapsed_ms: 500.0,
        }];
        let json = render_json(
            &rows,
            &throughput,
            &training,
            &analysis,
            &overhead,
            &timeseries,
            &tracing,
            &fleet,
        );
        assert!(json.contains("\"candidate_scan\""));
        assert!(json.contains("\"index_ns_per_scan\": 50"));
        assert!(json.contains("\"speedup_index\": 20.00"));
        assert!(json.contains("\"batch_ns_per_query\": 40"));
        assert!(json.contains("\"speedup_batch\": 25.00"));
        assert!(json.contains("\"backend\": \"avx2\""));
        assert!(json.contains("\"windows_per_sec\": 30000"));
        assert!(json.contains("\"training\""));
        assert!(json.contains("\"speedup\": 3.00"));
        assert!(json.contains("\"available_parallelism\": 8"));
        assert!(json.contains("\"analysis\""));
        assert!(json.contains("\"verify_ms\": 1.25"));
        assert!(json.contains("\"telemetry_overhead\""));
        assert!(json.contains("\"overhead_pct\": 2.00"));
        assert!(json.contains("\"timeseries_overhead\""));
        assert!(json.contains("\"sampled_ns_per_window\": 1857"));
        assert!(json.contains("\"overhead_pct\": 3.17"));
        assert!(json.contains("\"crossover_groups\""));
        assert!(json.contains("\"fleet_tracing_overhead\""));
        assert!(json.contains("\"untraced_ms\": 200.0"));
        assert!(json.contains("\"traced_ms\": 204.0"));
        assert!(json.contains("\"overhead_pct\": 2.00"));
        assert!(json.contains("\"fleet\""));
        assert!(json.contains("\"homes\": 1000"));
        assert!(json.contains("\"windows_per_sec\": 120000"));
        assert!(json.contains("\"homes_per_sec\": 2000"));
        assert!(json.contains("\"models_resident\": 4"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn hh102_training_log_is_hh102_wide_and_sorted() {
        let (reg, binary, numeric, actuators) = hh102_home();
        assert_eq!(reg.num_sensors(), 33 + 79);
        let mut log = hh102_training_log(&binary, &numeric, &actuators, 1);
        assert!(!log.is_empty());
        let events = log.events();
        assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
    }
}
