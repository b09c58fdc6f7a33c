//! Faultless-segment diagnostics: what violates, when, and why.

use dice_core::{CheckResult, Detector, DiceModel, PrevWindow, WindowObservation};
use dice_datasets::DatasetId;
use dice_types::DeviceRegistry;

use crate::runner::{train_dataset, RunnerConfig};

/// Replays faultless segments and describes every violating window.
///
/// Each window runs through [`Detector::check`] with the previous window
/// advanced as the engine advances it.
///
/// # Errors
///
/// Returns an error for unknown dataset names.
pub fn diagnose(dataset: &str, segments: u64) -> Result<String, String> {
    let id = DatasetId::parse(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let cfg = RunnerConfig::default();
    let td = train_dataset(id, &cfg);
    let detector = Detector::new(&td.model);
    let window = td.model.config().window();
    let mut out = String::new();
    let mut violating_segments = 0u64;

    for trial in 0..segments {
        let segment = td.plan.segment_for_trial(trial);
        let mut log = td.sim.log_between(segment.start, segment.end);
        let mut prev: Option<PrevWindow> = None;
        let mut violations = 0;
        for w in log.windows_between(segment.start, segment.end, window) {
            let obs = td.model.binarizer().binarize(w.start, w.end, w.events);
            let result = detector.check(prev.as_ref(), &obs);
            if result.is_violation() {
                violations += 1;
                if violations <= 4 {
                    let line = describe(&td.model, td.sim.registry(), &obs, &result);
                    out.push_str(&format!("seg{trial} {}: {line}\n", w.start));
                }
            }
            PrevWindow::advance(&mut prev, &obs, &result);
        }
        if violations > 0 {
            violating_segments += 1;
            out.push_str(&format!("seg{trial}: {violations} violating windows\n"));
        }
    }
    out.push_str(&format!(
        "{violating_segments}/{segments} faultless segments had violations\n"
    ));
    Ok(out)
}

/// One violation's description. A correlation violation names its nearest
/// in-threshold group's distance and the bits that differ from it; when
/// only the nearest-group fallback answered (its first candidate lies
/// beyond the candidate distance), it reads `dist None` with an empty diff.
fn describe(
    model: &DiceModel,
    registry: &DeviceRegistry,
    obs: &WindowObservation,
    result: &CheckResult,
) -> String {
    match result {
        CheckResult::Normal { .. } => String::new(),
        CheckResult::TransitionViolation { cases, .. } => format!("TRANS {cases:?}"),
        CheckResult::CorrelationViolation { candidates } => {
            let nearest = candidates
                .first()
                .filter(|c| c.distance <= model.candidate_distance());
            let diff: Vec<String> = nearest
                .map(|c| {
                    obs.state
                        .diff_indices(model.groups().state(c.group))
                        .map(|b| {
                            let s = model.layout().sensor_of_bit(b);
                            format!(
                                "bit{b}={s}:{:?}:{:?}",
                                registry.sensor(s).kind(),
                                model.layout().role_of_bit(b)
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            format!(
                "CORR dist{:?} diff {}",
                nearest.map(|c| c.distance),
                diff.join(",")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::{ContextExtractor, DiceConfig};
    use dice_types::{EventLog, Room, SensorKind, SensorReading, TimeDelta, Timestamp};

    /// Two motion sensors that alternate minute by minute, and the
    /// observation of both at once, which matches no group.
    fn alternating(config: DiceConfig) -> (DiceModel, DeviceRegistry, WindowObservation) {
        let mut reg = DeviceRegistry::new();
        let m0 = reg.add_sensor(SensorKind::Motion, "m0", Room::Kitchen);
        let m1 = reg.add_sensor(SensorKind::Motion, "m1", Room::Bedroom);
        let mut log = EventLog::new();
        for minute in 0..120 {
            let sensor = if minute % 2 == 0 { m0 } else { m1 };
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            log.push_sensor(SensorReading::new(sensor, at, true.into()));
        }
        let model = ContextExtractor::new(config)
            .extract(&reg, &mut log)
            .unwrap();
        let at = Timestamp::from_secs(5);
        let both = [
            SensorReading::new(m0, at, true.into()).into(),
            SensorReading::new(m1, at, true.into()).into(),
        ];
        let obs = model
            .binarizer()
            .binarize(Timestamp::ZERO, Timestamp::from_mins(1), &both);
        (model, reg, obs)
    }

    #[test]
    fn fallback_only_correlation_violation_reads_dist_none() {
        let (model, reg, obs) = alternating(DiceConfig::builder().candidate_distance(0).build());
        let result = Detector::new(&model).check(None, &obs);
        assert!(matches!(
            &result,
            CheckResult::CorrelationViolation { candidates } if !candidates.is_empty()
        ));
        assert_eq!(describe(&model, &reg, &obs, &result), "CORR distNone diff ");
    }
}
