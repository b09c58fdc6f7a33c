//! The experiment runner: trains DICE on a dataset's precomputation period
//! and replays faulty / faultless segments through the real-time engine,
//! reproducing the paper's evaluation protocol (Section V).
//
// lint-src: allow-file(wall-clock) — the Instant reads report wall time in
// experiment summaries; metrics and verdicts come from replayed data only.

use std::collections::BTreeMap;

use dice_core::{
    CheckKind, CostProfile, DiceConfig, DiceEngine, DiceModel, FaultReport, ParallelTrainer,
};
use dice_datasets::{DatasetId, SegmentPlan, TimeRange};
use dice_faults::{
    ActuatorFault, ActuatorFaultType, FaultInjector, FaultPlanner, FaultType, SensorFault,
};
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

/// Evaluates sensor faults on a trained dataset: for every trial, one
/// faultless segment replay (precision) and one fault-injected duplicate
/// (recall, identification, latency), exactly as in Section V.
///
/// Trials run in parallel. Every trial's randomness derives from the master
/// seed and the trial index alone (see [`FaultPlanner`]), and per-trial
/// results are folded into the evaluation in trial order, so the output is
/// bit-identical to [`evaluate_sensor_faults_serial`].
pub fn evaluate_sensor_faults(td: &TrainedDataset, cfg: &RunnerConfig) -> DatasetEvaluation {
    let planner = FaultPlanner::new(cfg.seed ^ 0xFA17);
    let injector = FaultInjector::new(cfg.seed ^ 0x1213);
    let trials: Vec<SensorTrial> = timed_parallel_section(|| {
        (0..cfg.trials)
            .into_par_iter()
            .map(|trial| timed_trial(|| run_sensor_trial(td, &planner, &injector, trial)))
            .collect()
    });
    fold_sensor_trials(td, trials)
}

/// Serial reference implementation of [`evaluate_sensor_faults`].
///
/// Shares the per-trial body and the fold with the parallel variant; the
/// equivalence test compares the two.
pub fn evaluate_sensor_faults_serial(td: &TrainedDataset, cfg: &RunnerConfig) -> DatasetEvaluation {
    let planner = FaultPlanner::new(cfg.seed ^ 0xFA17);
    let injector = FaultInjector::new(cfg.seed ^ 0x1213);
    let trials: Vec<SensorTrial> = (0..cfg.trials)
        .map(|trial| timed_trial(|| run_sensor_trial(td, &planner, &injector, trial)))
        .collect();
    fold_sensor_trials(td, trials)
}

/// Everything one sensor-fault trial contributes to the evaluation.
#[derive(Debug, Clone)]
struct SensorTrial {
    false_alarm: bool,
    clean_cost: CostProfile,
    fault: SensorFault,
    outcome: SegmentOutcome,
}

fn run_sensor_trial(
    td: &TrainedDataset,
    planner: &FaultPlanner,
    injector: &FaultInjector,
    trial: u64,
) -> SensorTrial {
    let registry = td.sim.registry();
    let segment = td.plan.segment_for_trial(trial);
    let clean = td.sim.log_between(segment.start, segment.end);

    // Faultless twin: any report is a false positive.
    let mut engine = DiceEngine::new(&td.model);
    let false_alarm = !engine
        .process_range(&mut clean.clone(), segment.start, segment.end)
        .is_empty()
        || engine.flush().is_some();
    let clean_cost = engine.cost_profile();

    // Faulty duplicate.
    let fault = planner.sensor_fault(trial, registry, segment.start, segment.len());
    let mut faulty = injector.inject_sensor(clean, registry, &fault);
    let outcome = run_faulty_segment(td, &mut faulty, segment, fault.onset);
    SensorTrial {
        false_alarm,
        clean_cost,
        fault,
        outcome,
    }
}

fn fold_sensor_trials(td: &TrainedDataset, trials: Vec<SensorTrial>) -> DatasetEvaluation {
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
    for trial in trials {
        evaluation.detection.record_faultless(trial.false_alarm);
        evaluation.cost.merge(&trial.clean_cost);
        record_sensor_outcome(&mut evaluation, &trial.fault, &trial.outcome);
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

/// Replays one (already fault-injected) segment and returns the first
/// post-onset report. The log is borrowed, so a caller can go on to
/// inspect the same faulty events.
pub fn run_faulty_segment(
    td: &TrainedDataset,
    log: &mut EventLog,
    segment: TimeRange,
    onset: Timestamp,
) -> SegmentOutcome {
    let mut engine = DiceEngine::new(&td.model);
    let mut reports = engine.process_range(log, segment.start, segment.end);
    reports.extend(engine.flush());
    let report = reports.into_iter().find(|r| r.detected_at >= onset);
    SegmentOutcome {
        report,
        cost: engine.cost_profile(),
    }
}

fn record_sensor_outcome(
    evaluation: &mut DatasetEvaluation,
    fault: &SensorFault,
    outcome: &SegmentOutcome,
) {
    evaluation.cost.merge(&outcome.cost);
    evaluation.detection.record_faulty(outcome.report.is_some());
    let attribution = evaluation.by_fault_type.entry(fault.fault).or_default();
    match &outcome.report {
        None => {
            attribution.missed += 1;
            evaluation.identification.record(0, 0, 1);
        }
        Some(report) => {
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
            let target = DeviceId::Sensor(fault.sensor);
            let correct = u64::from(report.devices.contains(&target));
            let spurious = report.devices.len() as u64 - correct;
            evaluation
                .identification
                .record(correct, spurious, 1 - correct);
        }
    }
}

/// Result of the multi-fault experiment (Section VI).
#[derive(Debug, Clone, Default)]
pub struct MultiFaultEvaluation {
    /// Device-level identification counts across all trials.
    pub identification: IdentificationCounts,
    /// Segment-level detection counts.
    pub detection: DetectionCounts,
}

/// Evaluates simultaneous multi-fault trials: 1–3 faulty sensors per
/// segment, `numThre = 3` (configure via `cfg.dice`).
///
/// Trials run in parallel with the same determinism contract as
/// [`evaluate_sensor_faults`].
pub fn evaluate_multi_faults(td: &TrainedDataset, cfg: &RunnerConfig) -> MultiFaultEvaluation {
    let planner = FaultPlanner::new(cfg.seed ^ 0x3FA1);
    let injector = FaultInjector::new(cfg.seed ^ 0x77);
    let trials: Vec<MultiTrial> = timed_parallel_section(|| {
        (0..cfg.trials)
            .into_par_iter()
            .map(|trial| timed_trial(|| run_multi_trial(td, &planner, &injector, trial)))
            .collect()
    });
    fold_multi_trials(trials)
}

/// Serial reference implementation of [`evaluate_multi_faults`].
pub fn evaluate_multi_faults_serial(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
) -> MultiFaultEvaluation {
    let planner = FaultPlanner::new(cfg.seed ^ 0x3FA1);
    let injector = FaultInjector::new(cfg.seed ^ 0x77);
    let trials: Vec<MultiTrial> = (0..cfg.trials)
        .map(|trial| timed_trial(|| run_multi_trial(td, &planner, &injector, trial)))
        .collect();
    fold_multi_trials(trials)
}

/// Everything one multi-fault trial contributes to the evaluation.
#[derive(Debug, Clone)]
struct MultiTrial {
    faults: Vec<SensorFault>,
    outcome: SegmentOutcome,
}

fn run_multi_trial(
    td: &TrainedDataset,
    planner: &FaultPlanner,
    injector: &FaultInjector,
    trial: u64,
) -> MultiTrial {
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
    let outcome = run_faulty_segment(td, &mut faulty, segment, first_onset);
    MultiTrial { faults, outcome }
}

fn fold_multi_trials(trials: Vec<MultiTrial>) -> MultiFaultEvaluation {
    let mut out = MultiFaultEvaluation::default();
    for trial in trials {
        out.detection.record_faulty(trial.outcome.report.is_some());
        match trial.outcome.report {
            None => out.identification.record(0, 0, trial.faults.len() as u64),
            Some(report) => {
                let actual: Vec<DeviceId> = trial
                    .faults
                    .iter()
                    .map(|f| DeviceId::Sensor(f.sensor))
                    .collect();
                let correct = report.devices.iter().filter(|d| actual.contains(d)).count() as u64;
                let spurious = report.devices.len() as u64 - correct;
                let missed = actual.len() as u64 - correct;
                out.identification.record(correct, spurious, missed);
            }
        }
    }
    out
}

/// Result of the actuator-fault experiment (Section 5.1.3).
#[derive(Debug, Clone, Default)]
pub struct ActuatorEvaluation {
    /// Device-level identification counts.
    pub identification: IdentificationCounts,
    /// Segment-level detection counts.
    pub detection: DetectionCounts,
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
pub fn evaluate_actuator_faults(td: &TrainedDataset, cfg: &RunnerConfig) -> ActuatorEvaluation {
    assert!(
        td.sim.registry().num_actuators() > 0,
        "dataset has no actuators"
    );
    let planner = FaultPlanner::new(cfg.seed ^ 0xAC7);
    let injector = FaultInjector::new(cfg.seed ^ 0xAC8);
    let trials: Vec<ActuatorTrial> = timed_parallel_section(|| {
        (0..cfg.trials)
            .into_par_iter()
            .map(|trial| timed_trial(|| run_actuator_trial(td, &planner, &injector, trial)))
            .collect()
    });
    fold_actuator_trials(trials)
}

/// Serial reference implementation of [`evaluate_actuator_faults`].
pub fn evaluate_actuator_faults_serial(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
) -> ActuatorEvaluation {
    assert!(
        td.sim.registry().num_actuators() > 0,
        "dataset has no actuators"
    );
    let planner = FaultPlanner::new(cfg.seed ^ 0xAC7);
    let injector = FaultInjector::new(cfg.seed ^ 0xAC8);
    let trials: Vec<ActuatorTrial> = (0..cfg.trials)
        .map(|trial| timed_trial(|| run_actuator_trial(td, &planner, &injector, trial)))
        .collect();
    fold_actuator_trials(trials)
}

/// Everything one actuator-fault trial contributes to the evaluation.
#[derive(Debug, Clone)]
struct ActuatorTrial {
    fault: ActuatorFault,
    outcome: SegmentOutcome,
}

fn run_actuator_trial(
    td: &TrainedDataset,
    planner: &FaultPlanner,
    injector: &FaultInjector,
    trial: u64,
) -> ActuatorTrial {
    let registry = td.sim.registry();
    let segment = td.plan.segment_for_trial(trial);
    let clean = td.sim.log_between(segment.start, segment.end);
    let mut fault = planner.actuator_fault(trial, registry, segment.start, segment.len());
    fault.fault = ActuatorFaultType::Ghost;
    let mut faulty = injector.inject_actuator(clean, &fault);
    let outcome = run_faulty_segment(td, &mut faulty, segment, fault.onset);
    ActuatorTrial { fault, outcome }
}

fn fold_actuator_trials(trials: Vec<ActuatorTrial>) -> ActuatorEvaluation {
    let mut out = ActuatorEvaluation::default();
    for trial in trials {
        out.detection.record_faulty(trial.outcome.report.is_some());
        record_actuator_outcome(&mut out, &trial.fault, &trial.outcome);
    }
    out
}

fn record_actuator_outcome(
    out: &mut ActuatorEvaluation,
    fault: &ActuatorFault,
    outcome: &SegmentOutcome,
) {
    match &outcome.report {
        None => out.identification.record(0, 0, 1),
        Some(report) => {
            let target = DeviceId::Actuator(fault.actuator);
            let correct = u64::from(report.devices.contains(&target));
            let spurious = report.devices.len() as u64 - correct;
            out.identification.record(correct, spurious, 1 - correct);
        }
    }
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
