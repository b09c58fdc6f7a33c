//! The `bench-json` command: a tracked benchmark baseline.
//!
//! Measures the candidate-scan hot path — the naive [`GroupTable`] scan
//! against the model's [`SlicedScanIndex`] (single-query and batched, with
//! the dispatched SIMD backend recorded) —
//! at hh102 width (33 binary + 79 numeric sensors = 270 state bits) across
//! group-table sizes, plus parallel training, static analysis, and the
//! telemetry, time-series and fleet-tracing overheads (all three on one
//! paired-difference method), and writes the results as JSON. CI runs this
//! from the repo root to refresh `BENCH_core.json`. End-to-end and
//! per-layer serving costs are perfbench's job, not this baseline's.
//
// lint-src: allow-file(wall-clock) — a benchmark exists to read the clock;
// timings are reported, never fed back into model state.

use std::fmt::Write as _;
use std::time::Instant;

use dice_core::{
    BitSet, DiceConfig, DiceEngine, DiceModel, EngineOptions, GroupTable, ParallelTrainer,
    ScanBackend, SlicedScanIndex, SCAN_CROSSOVER_GROUPS,
};
use dice_fleet::{FleetConfig, ModelCache};
use dice_sim::testbed;
use dice_telemetry::{Telemetry, TimeSeriesRecorder};
use dice_types::{
    ActuatorEvent, ActuatorId, ActuatorKind, DeviceRegistry, Event, EventLog, Room, SensorId,
    SensorKind, SensorReading, TimeDelta, Timestamp,
};

use super::fleet_plans::{feed, plan_fleet};
use crate::runner::{train_scenario, RunnerConfig};

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

/// A variant's cost next to the base it was paired with, both in one unit
/// (ns per window, or ms per fleet run).
#[derive(Debug, Clone, Copy)]
struct Overhead {
    base: f64,
    variant: f64,
}

impl Overhead {
    fn overhead_pct(&self) -> f64 {
        if self.base > 0.0 {
            (self.variant - self.base) / self.base * 100.0
        } else {
            0.0
        }
    }
}

/// Measured reps of [`paired_overhead`], after one discarded warm-up rep.
/// Each rep is a few milliseconds, so 25 of them are cheap.
const PAIRED_REPS: usize = 25;

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

/// Measures each variant's cost against `base`; every closure runs one
/// workload and returns its cost.
///
/// Each rep runs the base and then every variant in order, back to back;
/// one warm-up rep (page faults, branch predictors) is discarded before
/// [`PAIRED_REPS`] measured ones. The base is the minimum over reps, and
/// each variant is the base plus the *median of its per-rep paired
/// differences*, clamped at 0: machine-speed drift (frequency scaling, a
/// noisy neighbor) moves both sides of a pair together and cancels, where
/// an independent min-of-N per side lets the two minima land in different
/// drift epochs and report the drift itself as overhead.
fn paired_overhead<const N: usize>(
    mut base: impl FnMut() -> f64,
    mut variants: [&mut dyn FnMut() -> f64; N],
) -> [Overhead; N] {
    let mut base_min = f64::INFINITY;
    let mut deltas: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(PAIRED_REPS));
    for rep in 0..=PAIRED_REPS {
        let base_cost = base();
        for (variant, deltas) in variants.iter_mut().zip(&mut deltas) {
            let cost = variant();
            if rep > 0 {
                deltas.push(cost - base_cost);
            }
        }
        if rep > 0 {
            base_min = base_min.min(base_cost);
        }
    }
    deltas.map(|mut deltas| Overhead {
        base: base_min,
        variant: base_min + median(&mut deltas).max(0.0),
    })
}

/// One closed window of a replayed segment: start, end, and its events.
type Window = (Timestamp, Timestamp, Vec<Event>);

/// Replays every segment through a fresh engine on `model` wired to
/// `telemetry`, calling `after_window` with each window's end, and
/// returns the engine wall time in milliseconds.
fn replay(
    model: &DiceModel,
    segments: &[Vec<Window>],
    telemetry: &Telemetry,
    mut after_window: impl FnMut(Timestamp),
) -> f64 {
    let mut elapsed_ms = 0.0f64;
    for windows in segments {
        let mut engine = DiceEngine::with_options(
            model,
            EngineOptions {
                telemetry: telemetry.clone(),
                ..EngineOptions::default()
            },
        );
        let start = Instant::now();
        for (ws, we, events) in windows {
            let _ = engine.process_window(*ws, *we, std::hint::black_box(events));
            after_window(*we);
        }
        elapsed_ms += start.elapsed().as_secs_f64() * 1000.0;
    }
    elapsed_ms
}

/// Windows per time-series sweep in the sampled replay — the monitor
/// dashboard's cadence (`SAMPLE_WINDOWS` in the `dashboard` experiment), so
/// the bench measures the configuration the dashboard actually runs.
const BENCH_SAMPLE_WINDOWS: u64 = 30;

/// [`replay`] with a recording sink and a [`TimeSeriesRecorder`] sweeping
/// the registry on sim time in the monitor dashboard's exact
/// configuration: one sweep per [`BENCH_SAMPLE_WINDOWS`] closed windows,
/// narrowed to the dashboard's watchlist — the heaviest telemetry setup
/// the monitor runs.
fn replay_sampled(model: &DiceModel, segments: &[Vec<Window>], window: TimeDelta) -> f64 {
    let telemetry = Telemetry::recording();
    let recorder = telemetry.recorder().expect("recording handle");
    let window_ns = u64::try_from(window.as_secs()).unwrap_or(1) * 1_000_000_000;
    let mut series = TimeSeriesRecorder::new(window_ns * BENCH_SAMPLE_WINDOWS, 256)
        .watch(super::dashboard::DASHBOARD_SERIES);
    let elapsed_ms = replay(model, segments, &telemetry, |we| {
        let now_ns = u64::try_from(we.as_secs()).unwrap_or(0) * 1_000_000_000;
        series.maybe_sample(recorder, now_ns);
    });
    std::hint::black_box(series.len());
    elapsed_ms
}

/// Telemetry recording and time-series sampling cost per window, each
/// against the no-op sink on the same testbed replay.
fn engine_overheads() -> [Overhead; 2] {
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
    let segments: Vec<Vec<Window>> = td
        .plan
        .segments()
        .iter()
        .map(|segment| {
            td.sim
                .log_between(segment.start, segment.end)
                .windows_between(segment.start, segment.end, window)
                .map(|w| (w.start, w.end, w.events.to_vec()))
                .collect()
        })
        .collect();
    let windows: usize = segments.iter().map(Vec::len).sum();
    let overheads = paired_overhead(
        || replay(&td.model, &segments, &Telemetry::noop(), |_| {}),
        [
            &mut || replay(&td.model, &segments, &Telemetry::recording(), |_| {}),
            &mut || replay_sampled(&td.model, &segments, window),
        ],
    );
    let ns_per_window = 1e6 / windows.max(1) as f64;
    overheads.map(|o| Overhead {
        base: o.base * ns_per_window,
        variant: o.variant * ns_per_window,
    })
}

/// The `fleet_tracing_overhead` fleet: homes, shards, simulated minutes.
const TRACING_FLEET: (usize, usize, i64) = (256, 4, 30);

/// Wall time in milliseconds of one [`TRACING_FLEET`] run of the fleet
/// fixture, with per-stage lineage tracing on or off.
fn fleet_run_ms(cache: &ModelCache, tracing: bool) -> f64 {
    let (homes, shards, minutes) = TRACING_FLEET;
    let config = FleetConfig {
        shards,
        tracing,
        ..FleetConfig::default()
    };
    let fleet = plan_fleet(config, cache, homes);
    let feed = feed(homes, minutes);
    let start = Instant::now();
    let _run = fleet.run(Timestamp::from_mins(0), Timestamp::from_mins(minutes), feed);
    start.elapsed().as_secs_f64() * 1000.0
}

/// Fleet causal-tracing cost: the same fleet run untraced (base) and
/// traced, in ms per run. The §5l budget bounds it at 5%.
fn fleet_tracing_overhead() -> Overhead {
    let cache = ModelCache::new();
    let [traced] = paired_overhead(
        || fleet_run_ms(&cache, false),
        [&mut || fleet_run_ms(&cache, true)],
    );
    traced
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
fn render_json(
    rows: &[ScanRow],
    training: &TrainingBench,
    analysis: &AnalysisBench,
    telemetry: &Overhead,
    timeseries: &Overhead,
    tracing: &Overhead,
) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"schema\": 2,\n");
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
        telemetry.base,
        telemetry.variant,
        telemetry.overhead_pct()
    );
    let _ = writeln!(
        json,
        "  \"timeseries_overhead\": {{\"noop_ns_per_window\": {:.0}, \"sampled_ns_per_window\": {:.0}, \"overhead_pct\": {:.2}}},",
        timeseries.base,
        timeseries.variant,
        timeseries.overhead_pct()
    );
    let (homes, shards, minutes) = TRACING_FLEET;
    let _ = writeln!(
        json,
        "  \"fleet_tracing_overhead\": {{\"homes\": {homes}, \"shards\": {shards}, \"minutes\": {minutes}, \"untraced_ms\": {:.1}, \"traced_ms\": {:.1}, \"overhead_pct\": {:.2}}}",
        tracing.base,
        tracing.variant,
        tracing.overhead_pct()
    );
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
    let [telemetry, timeseries] = engine_overheads();
    let training = training_bench(48);
    let analysis = analysis_bench(48);
    let tracing = fleet_tracing_overhead();
    let json = render_json(
        &rows,
        &training,
        &analysis,
        &telemetry,
        &timeseries,
        &tracing,
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
        telemetry.base,
        telemetry.variant,
        telemetry.overhead_pct()
    );
    let _ = writeln!(
        out,
        "timeseries: sampled {:.0} ns/window ({:+.2}% over noop, one registry sweep per {BENCH_SAMPLE_WINDOWS} windows)",
        timeseries.variant,
        timeseries.overhead_pct()
    );
    let (homes, shards, _) = TRACING_FLEET;
    let _ = writeln!(
        out,
        "fleet tracing: {homes} homes / {shards} shards untraced {:.1} ms, traced {:.1} ms ({:+.2}% overhead, budget <= 5%)",
        tracing.base,
        tracing.variant,
        tracing.overhead_pct()
    );
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
        let telemetry = Overhead {
            base: 1800.0,
            variant: 1836.0,
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
        let timeseries = Overhead {
            base: 1800.0,
            variant: 1857.0,
        };
        let tracing = Overhead {
            base: 200.0,
            variant: 204.0,
        };
        let json = render_json(
            &rows,
            &training,
            &analysis,
            &telemetry,
            &timeseries,
            &tracing,
        );
        let doc = dice_telemetry::json_parse(&json).expect("bench-json output must parse");
        let sections: Vec<&str> = doc
            .as_obj()
            .expect("top level is an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            sections,
            [
                "analysis",
                "candidate_scan",
                "fleet_tracing_overhead",
                "schema",
                "telemetry_overhead",
                "timeseries_overhead",
                "training"
            ]
        );
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"index_ns_per_scan\": 50"));
        assert!(json.contains("\"speedup_index\": 20.00"));
        assert!(json.contains("\"batch_ns_per_query\": 40"));
        assert!(json.contains("\"speedup_batch\": 25.00"));
        assert!(json.contains("\"backend\": \"avx2\""));
        assert!(json.contains("\"speedup\": 3.00"));
        assert!(json.contains("\"available_parallelism\": 8"));
        assert!(json.contains("\"verify_ms\": 1.25"));
        assert!(json.contains("\"recording_ns_per_window\": 1836"));
        assert!(json.contains("\"overhead_pct\": 2.00"));
        assert!(json.contains("\"sampled_ns_per_window\": 1857"));
        assert!(json.contains("\"overhead_pct\": 3.17"));
        assert!(json.contains("\"crossover_groups\""));
        assert!(json.contains("\"homes\": 256, \"shards\": 4, \"minutes\": 30"));
        assert!(json.contains("\"untraced_ms\": 200.0"));
        assert!(json.contains("\"traced_ms\": 204.0"));
        assert!(json.ends_with("}\n"));
    }

    /// Paired differences cancel drift common to both sides of a rep: the
    /// base is its minimum, each variant the base plus its median delta,
    /// and a variant cheaper than the base clamps to zero overhead.
    #[test]
    fn paired_overhead_is_base_min_plus_median_paired_delta() {
        // The base drifts up by 1 per rep; the variants ride the drift.
        let rep = std::cell::Cell::new(0.0);
        let mut variant_calls = 0;
        let [slower, cheaper] = paired_overhead(
            || {
                rep.set(rep.get() + 1.0);
                100.0 + rep.get()
            },
            [
                &mut || {
                    variant_calls += 1;
                    110.0 + rep.get()
                },
                &mut || 90.0 + rep.get(),
            ],
        );
        assert_eq!(
            variant_calls,
            PAIRED_REPS + 1,
            "one warm-up rep, then the measured ones"
        );
        assert_eq!(slower.base, 102.0, "the warm-up rep is discarded");
        assert_eq!(slower.variant, 112.0);
        assert_eq!(cheaper.base, 102.0);
        assert_eq!(cheaper.variant, 102.0, "negative deltas clamp at zero");
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
