//! Missed-fault diagnostics: which injected faults go undetected.

use dice_core::{Detector, PrevWindow};
use dice_datasets::DatasetId;
use dice_types::EventLog;

use crate::runner::{run_faulty_segment, train_dataset, RunnerConfig, SensorTrial};

/// Counts violating windows in a log range (detector-only, no engine):
/// each window runs through [`Detector::check`] with the previous window
/// advanced as the engine advances it.
fn count_violations(
    td: &crate::runner::TrainedDataset,
    log: &mut EventLog,
    range: dice_datasets::TimeRange,
) -> usize {
    let detector = Detector::new(&td.model);
    let mut prev: Option<PrevWindow> = None;
    let mut violations = 0;
    for w in log.windows_between(range.start, range.end, td.model.config().window()) {
        let obs = td.model.binarizer().binarize(w.start, w.end, w.events);
        let result = detector.check(prev.as_ref(), &obs);
        if result.is_violation() {
            violations += 1;
        }
        PrevWindow::advance(&mut prev, &obs, &result);
    }
    violations
}

/// Replays faulty segments and describes every miss.
///
/// # Errors
///
/// Returns an error for unknown dataset names.
pub fn misses(dataset: &str, trials: u64) -> Result<String, String> {
    let id = DatasetId::parse(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let cfg = RunnerConfig::default();
    let td = train_dataset(id, &cfg);
    let mut out = String::new();
    let mut missed = 0u64;
    for trial in 0..trials {
        let SensorTrial {
            segment,
            fault,
            mut faulty,
            ..
        } = SensorTrial::new(&td, cfg.seed, trial);
        let outcome = run_faulty_segment(&td, &mut faulty, segment, fault.onset);
        if outcome.report.is_none() {
            missed += 1;
            let spec = td.sim.registry().sensor(fault.sensor);
            let violations = count_violations(&td, &mut faulty, segment);
            out.push_str(&format!(
                "trial {trial}: MISSED {} on {} ({} in {}), onset {} (hour {}), {} violating windows\n",
                fault.fault,
                fault.sensor,
                spec.kind(),
                spec.room(),
                fault.onset,
                fault.onset.hour_of_day(),
                violations,
            ));
        }
    }
    out.push_str(&format!("{missed}/{trials} faults missed\n"));
    Ok(out)
}
