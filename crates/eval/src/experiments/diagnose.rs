//! Faultless-segment diagnostics: what violates, when, and why.

use dice_core::{Detector, DiceEngine, PrevWindow, WindowObservation};
use dice_datasets::DatasetId;
use dice_types::Timestamp;

use crate::runner::{batched_window_scans, train_dataset, RunnerConfig};

/// Replays faultless segments and describes every violating window.
///
/// Each segment is binarized up front so the candidate scans and
/// nearest-group fallbacks run through the scan index's batch entry
/// points; only the prev-chained transition check stays sequential.
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
        let mut starts: Vec<Timestamp> = Vec::new();
        let observations: Vec<WindowObservation> = log
            .windows_between(segment.start, segment.end, window)
            .map(|w| {
                starts.push(w.start);
                td.model.binarizer().binarize(w.start, w.end, w.events)
            })
            .collect();
        let exact: Vec<_> = observations
            .iter()
            .map(|obs| detector.correlation_check(obs))
            .collect();
        let scans = batched_window_scans(&td.model, &observations, &exact);

        let mut prev: Option<PrevWindow> = None;
        let mut violations = 0;
        for (i, obs) in observations.iter().enumerate() {
            let (group, exact_hit) = match exact[i] {
                Some(group) => {
                    let cases = prev
                        .as_ref()
                        .map_or_else(Vec::new, |p| detector.transition_check(p, group, obs));
                    if !cases.is_empty() {
                        violations += 1;
                        if violations <= 4 {
                            out.push_str(&format!("seg{trial} {}: TRANS {cases:?}\n", starts[i]));
                        }
                    }
                    (group, true)
                }
                None => {
                    violations += 1;
                    let nearest = scans[i].and_then(|s| s.first_candidate);
                    if violations <= 4 {
                        let diff: Vec<String> = nearest
                            .map(|c| {
                                obs.state
                                    .diff_indices(td.model.groups().state(c.group))
                                    .map(|b| {
                                        let s = td.model.layout().sensor_of_bit(b);
                                        format!(
                                            "bit{b}={s}:{:?}:{:?}",
                                            td.sim.registry().sensor(s).kind(),
                                            td.model.layout().role_of_bit(b)
                                        )
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        out.push_str(&format!(
                            "seg{trial} {}: CORR dist{:?} diff {}\n",
                            starts[i],
                            nearest.map(|c| c.distance),
                            diff.join(",")
                        ));
                    }
                    (
                        scans[i]
                            .and_then(|s| s.standin)
                            .unwrap_or(dice_types::GroupId::new(0)),
                        false,
                    )
                }
            };
            prev = Some(PrevWindow {
                group,
                exact: exact_hit,
                activated_actuators: obs.activated_actuators.clone(),
            });
        }
        if violations > 0 {
            violating_segments += 1;
            out.push_str(&format!("seg{trial}: {violations} violating windows\n"));
        }
    }
    out.push_str(&format!(
        "{violating_segments}/{segments} faultless segments had violations\n"
    ));
    let mut engine = DiceEngine::new(&td.model);
    let _ = &mut engine;
    Ok(out)
}
