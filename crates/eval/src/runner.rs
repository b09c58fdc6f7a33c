//! The experiment runner: trains DICE on a dataset's precomputation period
//! and replays faulty / faultless segments through the real-time engine,
//! reproducing the paper's evaluation protocol (Section V).
//
// lint-src: allow-file(wall-clock) — the Instant reads report wall time in
// experiment summaries; metrics and verdicts come from replayed data only.

use std::collections::BTreeMap;

use dice_core::{
    CheckKind, CostProfile, DiceConfig, DiceEngine, DiceModel, FaultReport, ParallelTrainer,
    TraceOptions,
};
use dice_datasets::{DatasetId, SegmentPlan, TimeRange};
use dice_faults::{ActuatorFaultType, FaultInjector, FaultPlanner, FaultType, SensorFault};
use dice_sim::{ScenarioSpec, Simulator};
use dice_telemetry::{saturating_ns, Telemetry};
use dice_types::{DeviceId, EventLog, TimeDelta, Timestamp};
use rayon::prelude::*;

use crate::metrics::{DetectionCounts, IdentificationCounts, LatencyStats};

/// Runs `body` as one evaluation trial, recording its wall-clock duration
/// into the process-global telemetry (trial count, per-trial sketch, and
/// worker busy time). A no-op wrapper when no recorder is installed.
fn timed_trial<T>(body: impl FnOnce() -> T) -> T {
    let telemetry = Telemetry::global();
    let Some(recorder) = telemetry.recorder() else {
        return body();
    };
    let start = std::time::Instant::now();
    let result = body();
    let ns = saturating_ns(start.elapsed().as_nanos());
    let metrics = &recorder.metrics.eval;
    metrics.trials_total.inc();
    metrics.trial_ns.record(ns);
    metrics.worker_busy_ns.add(ns);
    result
}

/// Runs `body` as one parallel evaluation section, recording its wall-clock
/// span and the worker-pool width; `busy / (wall * workers)` is the
/// parallel-worker utilization the snapshot exposes.
fn timed_parallel_section<T>(body: impl FnOnce() -> T) -> T {
    let telemetry = Telemetry::global();
    let Some(recorder) = telemetry.recorder() else {
        return body();
    };
    let start = std::time::Instant::now();
    let result = body();
    let metrics = &recorder.metrics.eval;
    metrics
        .wall_ns
        .add(saturating_ns(start.elapsed().as_nanos()));
    metrics.workers.set_max(rayon::current_num_threads() as i64);
    result
}

/// Configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Master seed for dataset synthesis and fault planning.
    pub seed: u64,
    /// Number of faulty (and faultless) trials per dataset (paper: 100).
    pub trials: u64,
    /// Precomputation period (paper: 300 h).
    pub precompute: TimeDelta,
    /// Real-time segment length (paper: 6 h).
    pub segment_len: TimeDelta,
    /// DICE configuration.
    pub dice: DiceConfig,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            seed: 42,
            trials: 100,
            precompute: TimeDelta::from_hours(300),
            segment_len: TimeDelta::from_hours(6),
            dice: DiceConfig::default(),
        }
    }
}

/// A dataset with its trained DICE model, ready for real-time trials.
#[derive(Debug)]
pub struct TrainedDataset {
    /// Dataset name.
    pub name: String,
    /// The simulator producing the dataset.
    pub sim: Simulator,
    /// The trained model.
    pub model: DiceModel,
    /// The train/segment split.
    pub plan: SegmentPlan,
}

/// Trains DICE on a catalog dataset.
///
/// # Panics
///
/// Panics if the scenario is invalid or shorter than the training period
/// plus one segment.
pub fn train_dataset(id: DatasetId, cfg: &RunnerConfig) -> TrainedDataset {
    train_scenario(id.scenario(cfg.seed), cfg)
}

/// Trains DICE on an arbitrary scenario.
///
/// Training streams the precomputation period in six-hour chunks so even the
/// thousand-hour datasets never materialize fully.
///
/// # Panics
///
/// Panics if the scenario is invalid or too short for the configured split.
pub fn train_scenario(spec: ScenarioSpec, cfg: &RunnerConfig) -> TrainedDataset {
    let name = spec.name.clone();
    let plan = SegmentPlan::new(spec.duration, cfg.precompute, cfg.segment_len);
    let sim = Simulator::new(spec).expect("valid scenario");
    let model = train_model(&sim, &plan, cfg);
    if let Some(recorder) = Telemetry::global().recorder() {
        recorder.metrics.eval.datasets_total.inc();
    }
    TrainedDataset {
        name,
        sim,
        model,
        plan,
    }
}

/// Runs the precomputation phase over the training range in one pass:
/// each six-hour chunk is simulated once on the worker pool and read by
/// [`ParallelTrainer::train_chunked`], which merges the chunks into a
/// model bit-identical to one serial two-pass run over the whole range.
fn train_model(sim: &Simulator, plan: &SegmentPlan, cfg: &RunnerConfig) -> DiceModel {
    let training = plan.training();
    let window = cfg.dice.window();
    // Chunk boundaries must fall on window boundaries so the per-chunk
    // window tilings concatenate into exactly the serial tiling.
    let chunk = TimeDelta::from_hours(6);
    let chunk = if chunk.as_secs() % window.as_secs() == 0 {
        chunk
    } else {
        training.len()
    };
    let ranges = chunk_ranges(training, chunk);
    ParallelTrainer::new(cfg.dice.clone())
        .train_chunked(sim.registry(), ranges.len(), |k, pass| {
            let range = ranges[k];
            let mut log = sim.log_between(range.start, range.end);
            pass.observe_tiling(log.events(), range.start, range.end);
        })
        .expect("training range is non-empty")
}

fn chunk_ranges(range: TimeRange, chunk: TimeDelta) -> Vec<TimeRange> {
    let mut ranges = Vec::new();
    let mut start = range.start;
    while start < range.end {
        let end = (start + chunk).min(range.end);
        ranges.push(TimeRange { start, end });
        start = end;
    }
    ranges
}

/// How a faulty trial was detected, per fault type (Figure 5.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckAttribution {
    /// Trials whose fault was first caught by the correlation check.
    pub by_correlation: u64,
    /// Trials whose fault was first caught by the transition check.
    pub by_transition: u64,
    /// Trials whose fault was missed.
    pub missed: u64,
}

impl CheckAttribution {
    /// Total trials with this fault type.
    pub fn total(&self) -> u64 {
        self.by_correlation + self.by_transition + self.missed
    }

    /// Fraction of detected trials caught by the correlation check.
    pub fn correlation_share(&self) -> f64 {
        let detected = self.by_correlation + self.by_transition;
        if detected == 0 {
            0.0
        } else {
            self.by_correlation as f64 / detected as f64
        }
    }
}

/// The aggregate result of evaluating one dataset.
#[derive(Debug, Clone)]
pub struct DatasetEvaluation {
    /// Dataset name.
    pub name: String,
    /// Segment-level detection confusion counts.
    pub detection: DetectionCounts,
    /// Device-level identification counts.
    pub identification: IdentificationCounts,
    /// Detection latency (minutes since fault onset).
    pub detect_latency: LatencyStats,
    /// Identification latency (minutes since fault onset).
    pub identify_latency: LatencyStats,
    /// Detection latency split by the check that fired (Table 5.1).
    pub detect_latency_by_check: BTreeMap<&'static str, LatencyStats>,
    /// Check attribution per fault type (Figure 5.4).
    pub by_fault_type: BTreeMap<FaultType, CheckAttribution>,
    /// Wall-clock cost profile accumulated over all processed windows
    /// (Figure 5.3).
    pub cost: CostProfile,
    /// Correlation degree of the trained model (Table 5.2).
    pub correlation_degree: f64,
    /// Number of groups in the trained model.
    pub num_groups: usize,
    /// Number of sensors in the deployment.
    pub num_sensors: usize,
}

/// Trial `trial` of the sensor-fault protocol (Section V): the trial's
/// segment, its faultless log, one planned fault and the fault-injected
/// duplicate. The fault derives from the master seed and the trial index
/// alone (see [`FaultPlanner`]), so every experiment that builds trial `t`
/// judges the same fault. Building a trial replays nothing.
#[derive(Debug, Clone)]
pub struct SensorTrial {
    /// The segment the trial replays.
    pub segment: TimeRange,
    /// The segment's faultless log.
    pub clean: EventLog,
    /// The planned fault.
    pub fault: SensorFault,
    /// `clean` with `fault` injected.
    pub faulty: EventLog,
}

impl SensorTrial {
    /// Builds trial `trial` on `td` under master seed `seed`.
    pub fn new(td: &TrainedDataset, seed: u64, trial: u64) -> SensorTrial {
        let registry = td.sim.registry();
        let segment = td.plan.segment_for_trial(trial);
        let clean = td.sim.log_between(segment.start, segment.end);
        let fault = FaultPlanner::new(seed ^ 0xFA17).sensor_fault(
            trial,
            registry,
            segment.start,
            segment.len(),
        );
        let faulty =
            FaultInjector::new(seed ^ 0x1213).inject_sensor(clean.clone(), registry, &fault);
        SensorTrial {
            segment,
            clean,
            fault,
            faulty,
        }
    }
}

/// Replays every window of `segment` in `log` through a caller-built
/// engine, then flushes a pending identification; returns every report in
/// order. The log is borrowed, so a caller can go on to inspect it.
pub fn replay_segment(
    engine: &mut DiceEngine<&DiceModel>,
    log: &mut EventLog,
    segment: TimeRange,
) -> Vec<FaultReport> {
    let mut reports = engine.process_range(log, segment.start, segment.end);
    reports.extend(engine.flush());
    reports
}

/// Whether a trace sink is installed. Every engine built from the global
/// trace options then writes to that one sink, so evaluations run their
/// trials and datasets in order to keep its lines in that order.
pub(crate) fn tracing_to_sink() -> bool {
    TraceOptions::global().sink.is_some()
}

/// The one trial driver: maps `run` over trials `0..trials`, timing each as
/// a trial, and returns the results in trial order. With `parallel` and no
/// trace sink, the trials run on the worker pool as one timed parallel
/// section. Each trial's randomness derives from the master seed and its
/// index, so both schedules return the same results.
fn drive_trials<T: Send>(trials: u64, parallel: bool, run: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let trial = |t| timed_trial(|| run(t));
    if parallel && !tracing_to_sink() {
        timed_parallel_section(|| (0..trials).into_par_iter().map(trial).collect())
    } else {
        (0..trials).map(trial).collect()
    }
}

/// Scores one trial's report against the devices that were actually
/// faulty: identified ∩ faulty are correct, identified \ faulty spurious
/// and faulty \ identified missed. No report misses every faulty device.
fn score_identification(
    counts: &mut IdentificationCounts,
    report: Option<&FaultReport>,
    faulty: &[DeviceId],
) {
    let identified = report.map_or(&[][..], |r| r.devices.as_slice());
    let correct = identified.iter().filter(|d| faulty.contains(d)).count() as u64;
    counts.record(
        correct,
        identified.len() as u64 - correct,
        faulty.len() as u64 - correct,
    );
}

/// Evaluates sensor faults on a trained dataset: for every trial, one
/// faultless segment replay (precision) and one fault-injected duplicate
/// (recall, identification, latency), exactly as in Section V.
///
/// Trials run in parallel unless a trace sink is installed. Results are
/// folded into the evaluation in trial order, so the output is
/// bit-identical to [`evaluate_sensor_faults_serial`].
pub fn evaluate_sensor_faults(td: &TrainedDataset, cfg: &RunnerConfig) -> DatasetEvaluation {
    sensor_evaluation(td, cfg, true)
}

/// Serial reference implementation of [`evaluate_sensor_faults`]; the
/// equivalence test compares the two.
pub fn evaluate_sensor_faults_serial(td: &TrainedDataset, cfg: &RunnerConfig) -> DatasetEvaluation {
    sensor_evaluation(td, cfg, false)
}

fn sensor_evaluation(td: &TrainedDataset, cfg: &RunnerConfig, parallel: bool) -> DatasetEvaluation {
    let trials = drive_trials(cfg.trials, parallel, |trial| {
        let mut trial = SensorTrial::new(td, cfg.seed, trial);
        // Faultless twin: any report is a false positive.
        let mut engine = DiceEngine::new(&td.model);
        let false_alarm = !replay_segment(&mut engine, &mut trial.clean, trial.segment).is_empty();
        let clean_cost = engine.cost_profile();
        let outcome = run_faulty_segment(td, &mut trial.faulty, trial.segment, trial.fault.onset);
        (false_alarm, clean_cost, trial.fault, outcome)
    });
    let mut evaluation = DatasetEvaluation {
        name: td.name.clone(),
        detection: DetectionCounts::default(),
        identification: IdentificationCounts::default(),
        detect_latency: LatencyStats::new(),
        identify_latency: LatencyStats::new(),
        detect_latency_by_check: BTreeMap::new(),
        by_fault_type: BTreeMap::new(),
        cost: CostProfile::default(),
        correlation_degree: td.model.correlation_degree(),
        num_groups: td.model.groups().len(),
        num_sensors: td.sim.registry().num_sensors(),
    };
    for (false_alarm, clean_cost, fault, outcome) in trials {
        evaluation.detection.record_faultless(false_alarm);
        evaluation.cost.merge(&clean_cost);
        evaluation.cost.merge(&outcome.cost);
        evaluation.detection.record_faulty(outcome.report.is_some());
        score_identification(
            &mut evaluation.identification,
            outcome.report.as_ref(),
            &[DeviceId::Sensor(fault.sensor)],
        );
        let attribution = evaluation.by_fault_type.entry(fault.fault).or_default();
        let Some(report) = outcome.report else {
            attribution.missed += 1;
            continue;
        };
        let detect_mins = (report.detected_at - fault.onset).as_mins_f64();
        let identify_mins = (report.identified_at - fault.onset).as_mins_f64();
        evaluation.detect_latency.push(detect_mins);
        evaluation.identify_latency.push(identify_mins);
        let check_name = match report.detected_by {
            CheckKind::Correlation => {
                attribution.by_correlation += 1;
                "correlation"
            }
            CheckKind::Transition => {
                attribution.by_transition += 1;
                "transition"
            }
        };
        evaluation
            .detect_latency_by_check
            .entry(check_name)
            .or_default()
            .push(detect_mins);
    }
    evaluation
}

/// The result of replaying one faulty segment.
#[derive(Debug, Clone)]
pub struct SegmentOutcome {
    /// The first report raised at or after the fault onset, if any.
    pub report: Option<FaultReport>,
    /// The engine's cost profile for the segment.
    pub cost: CostProfile,
}

/// Replays one (already fault-injected) segment through a fresh engine and
/// returns the first post-onset report. The log is borrowed, so a caller
/// can go on to inspect the same faulty events.
pub fn run_faulty_segment(
    td: &TrainedDataset,
    log: &mut EventLog,
    segment: TimeRange,
    onset: Timestamp,
) -> SegmentOutcome {
    let mut engine = DiceEngine::new(&td.model);
    let report = replay_segment(&mut engine, log, segment)
        .into_iter()
        .find(|r| r.detected_at >= onset);
    SegmentOutcome {
        report,
        cost: engine.cost_profile(),
    }
}

/// Detection and identification counts of an experiment judged on faulty
/// segments only: the multi-fault (Section VI) and actuator-fault (Section
/// 5.1.3) experiments.
#[derive(Debug, Clone, Default)]
pub struct MultiFaultEvaluation {
    /// Device-level identification counts across all trials.
    pub identification: IdentificationCounts,
    /// Segment-level detection counts.
    pub detection: DetectionCounts,
}

/// Folds faulty trials, each its first post-onset report and its faulty
/// devices, in trial order.
fn score_faulty_trials(trials: Vec<(Option<FaultReport>, Vec<DeviceId>)>) -> MultiFaultEvaluation {
    let mut out = MultiFaultEvaluation::default();
    for (report, faulty) in trials {
        out.detection.record_faulty(report.is_some());
        score_identification(&mut out.identification, report.as_ref(), &faulty);
    }
    out
}

/// Evaluates simultaneous multi-fault trials: 1–3 faulty sensors per
/// segment, `numThre = 3` (configure via `cfg.dice`).
///
/// Trials run in parallel with the same determinism contract as
/// [`evaluate_sensor_faults`].
pub fn evaluate_multi_faults(td: &TrainedDataset, cfg: &RunnerConfig) -> MultiFaultEvaluation {
    multi_fault_evaluation(td, cfg, true)
}

/// Serial reference implementation of [`evaluate_multi_faults`].
pub fn evaluate_multi_faults_serial(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
) -> MultiFaultEvaluation {
    multi_fault_evaluation(td, cfg, false)
}

fn multi_fault_evaluation(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
    parallel: bool,
) -> MultiFaultEvaluation {
    let planner = FaultPlanner::new(cfg.seed ^ 0x3FA1);
    let injector = FaultInjector::new(cfg.seed ^ 0x77);
    score_faulty_trials(drive_trials(cfg.trials, parallel, |trial| {
        let registry = td.sim.registry();
        let segment = td.plan.segment_for_trial(trial);
        let clean = td.sim.log_between(segment.start, segment.end);
        let count = (trial % 3 + 1) as usize;
        let faults = planner.sensor_faults(trial, registry, segment.start, segment.len(), count);
        let mut faulty = injector.inject_sensors(clean, registry, &faults);
        let first_onset = faults
            .iter()
            .map(|f| f.onset)
            .min()
            .expect("at least one fault");
        let report = run_faulty_segment(td, &mut faulty, segment, first_onset).report;
        let devices = faults.iter().map(|f| DeviceId::Sensor(f.sensor)).collect();
        (report, devices)
    }))
}

/// Evaluates actuator faults (ghost activations) on a testbed dataset.
///
/// Ghost faults are the observable actuator fault class for DICE's G2A/A2G
/// checks: a silenced actuator emits no events for the transition check to
/// test, so the headline actuator experiment injects ghosts (see
/// EXPERIMENTS.md).
///
/// Trials run in parallel with the same determinism contract as
/// [`evaluate_sensor_faults`].
pub fn evaluate_actuator_faults(td: &TrainedDataset, cfg: &RunnerConfig) -> MultiFaultEvaluation {
    actuator_evaluation(td, cfg, true)
}

/// Serial reference implementation of [`evaluate_actuator_faults`].
pub fn evaluate_actuator_faults_serial(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
) -> MultiFaultEvaluation {
    actuator_evaluation(td, cfg, false)
}

fn actuator_evaluation(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
    parallel: bool,
) -> MultiFaultEvaluation {
    assert!(
        td.sim.registry().num_actuators() > 0,
        "dataset has no actuators"
    );
    let planner = FaultPlanner::new(cfg.seed ^ 0xAC7);
    let injector = FaultInjector::new(cfg.seed ^ 0xAC8);
    score_faulty_trials(drive_trials(cfg.trials, parallel, |trial| {
        let segment = td.plan.segment_for_trial(trial);
        let clean = td.sim.log_between(segment.start, segment.end);
        let mut fault =
            planner.actuator_fault(trial, td.sim.registry(), segment.start, segment.len());
        fault.fault = ActuatorFaultType::Ghost;
        let mut faulty = injector.inject_actuator(clean, &fault);
        let report = run_faulty_segment(td, &mut faulty, segment, fault.onset).report;
        (report, vec![DeviceId::Actuator(fault.actuator)])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::{ModelBuilder, ThresholdTrainer};
    use dice_sim::testbed;

    fn quick_cfg() -> RunnerConfig {
        RunnerConfig {
            seed: 7,
            trials: 4,
            precompute: TimeDelta::from_hours(48),
            segment_len: TimeDelta::from_hours(6),
            dice: DiceConfig::default(),
        }
    }

    fn quick_testbed() -> TrainedDataset {
        let spec = testbed::dice_testbed("quick", 7, TimeDelta::from_hours(80), 12, 1);
        train_scenario(spec, &quick_cfg())
    }

    #[test]
    fn training_produces_nonempty_model() {
        let td = quick_testbed();
        assert!(td.model.groups().len() > 1);
        assert!(td.model.training_windows() >= 48 * 60);
        assert_eq!(td.plan.segments().len(), 5); // (80 - 48) / 6
    }

    #[test]
    fn chunked_training_equals_monolithic_training() {
        let cfg = quick_cfg();
        let spec = testbed::dice_testbed("quick", 7, TimeDelta::from_hours(80), 12, 1);
        let td = train_scenario(spec.clone(), &cfg);
        // Monolithic: one ModelBuilder pass over the whole training range.
        let sim = Simulator::new(spec).unwrap();
        let mut trainer = ThresholdTrainer::new(sim.registry());
        let mut log = sim.log_between(Timestamp::ZERO, Timestamp::from_hours(48));
        for event in log.events() {
            trainer.observe(event);
        }
        let mut builder =
            ModelBuilder::new(cfg.dice.clone(), sim.registry(), trainer.finish()).unwrap();
        for w in log.windows_between(
            Timestamp::ZERO,
            Timestamp::from_hours(48),
            cfg.dice.window(),
        ) {
            builder.observe_window(w.start, w.end, w.events);
        }
        let model = builder.finish().unwrap();
        assert_eq!(td.model, model, "parallel training must be bit-identical");
    }

    #[test]
    fn sensor_fault_evaluation_runs() {
        let td = quick_testbed();
        let eval = evaluate_sensor_faults(&td, &quick_cfg());
        let total = eval.detection.true_positives + eval.detection.false_negatives;
        assert_eq!(total, 4);
        assert_eq!(
            eval.detection.false_positives + eval.detection.true_negatives,
            4
        );
        assert!(eval.cost.windows > 0);
        assert!(eval.correlation_degree > 0.0);
    }

    #[test]
    fn multi_fault_evaluation_counts_actual_devices() {
        let td = quick_testbed();
        let mut cfg = quick_cfg();
        cfg.dice = DiceConfig::builder().max_faults(3).num_thre(3).build();
        let eval = evaluate_multi_faults(&td, &cfg);
        let judged = eval.identification.correct + eval.identification.missed;
        assert!(judged >= 4, "each trial contributes its faulty devices");
    }

    #[test]
    fn actuator_evaluation_runs_on_testbed() {
        let td = quick_testbed();
        let eval = evaluate_actuator_faults(&td, &quick_cfg());
        let total = eval.detection.true_positives + eval.detection.false_negatives;
        assert_eq!(total, 4);
    }
}
