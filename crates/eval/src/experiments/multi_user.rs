//! Section VI, "Multi-user cases": whole-home DICE vs room-partitioned DICE
//! as the resident count grows.
//!
//! The paper predicts that multi-resident homes blow up the unique
//! sensor-state-set count (combinations of simultaneous activities) and
//! proposes partitioning spatially-close sensors into independent DICE
//! instances. This experiment measures both: the group-count growth with
//! residents, and the accuracy/group-count trade-off of partitioning.

use dice_core::{DiceEngine, FaultReport, Partition, PartitionedEngine, PartitionedModel};
use dice_datasets::TimeRange;
use dice_sim::testbed;
use dice_types::{DeviceId, EventLog, TimeDelta};

use crate::metrics::DetectionCounts;
use crate::report::{pct, render_table};
use crate::runner::{replay_segment, train_scenario, RunnerConfig, SensorTrial, TrainedDataset};

/// Accuracy of one approach on one resident count.
#[derive(Debug, Clone, Default)]
struct ApproachResult {
    groups: usize,
    detection: DetectionCounts,
    identified: u64,
}

/// Judges one approach on the seeded sensor-fault trials: `replay` runs a
/// segment's log through a fresh engine of the approach and returns every
/// report.
fn evaluate_approach(
    td: &TrainedDataset,
    cfg: &RunnerConfig,
    groups: usize,
    replay: impl Fn(&mut EventLog, TimeRange) -> Vec<FaultReport>,
) -> ApproachResult {
    let mut result = ApproachResult {
        groups,
        ..ApproachResult::default()
    };
    for trial in 0..cfg.trials {
        let mut trial = SensorTrial::new(td, cfg.seed, trial);
        let flagged = !replay(&mut trial.clean, trial.segment).is_empty();
        result.detection.record_faultless(flagged);
        let report = replay(&mut trial.faulty, trial.segment)
            .into_iter()
            .find(|r| r.detected_at >= trial.fault.onset);
        result.detection.record_faulty(report.is_some());
        if report.is_some_and(|r| r.devices.contains(&DeviceId::Sensor(trial.fault.sensor))) {
            result.identified += 1;
        }
    }
    result
}

/// Runs the multi-user comparison for 1–3 residents.
pub fn multi_user(trials: u64, seed: u64) -> String {
    let mut rows = Vec::new();
    for residents in 1..=3usize {
        let cfg = RunnerConfig {
            trials,
            seed,
            ..RunnerConfig::default()
        };
        let spec = testbed::dice_testbed(
            &format!("D_multi{residents}"),
            seed,
            TimeDelta::from_hours(600),
            16,
            residents,
        );
        let td = train_scenario(spec, &cfg);

        // Whole-home DICE.
        let whole = evaluate_approach(&td, &cfg, td.model.groups().len(), |log, segment| {
            replay_segment(&mut DiceEngine::new(&td.model), log, segment)
        });

        // Room-partitioned DICE, trained on the same 300 h.
        let mut training = EventLog::new();
        let mut start = td.plan.training().start;
        while start < td.plan.training().end {
            let end = (start + TimeDelta::from_hours(6)).min(td.plan.training().end);
            training.merge(td.sim.log_between(start, end));
            start = end;
        }
        let partitions = Partition::by_room(td.sim.registry());
        let model = PartitionedModel::train(td.model.config(), partitions, &mut training)
            .expect("partitioned training succeeds");
        let part = evaluate_approach(&td, &cfg, model.total_groups(), |log, segment| {
            let mut engine = PartitionedEngine::new(&model);
            let mut reports = engine.process_range(log, segment.start, segment.end);
            reports.extend(engine.flush());
            reports
        });

        for (approach, r) in [("whole-home", &whole), ("per-room", &part)] {
            rows.push(vec![
                format!("{residents} resident(s)"),
                approach.to_string(),
                r.groups.to_string(),
                pct(r.detection.precision()),
                pct(r.detection.recall()),
                pct(if trials == 0 {
                    1.0
                } else {
                    r.identified as f64 / trials as f64
                }),
            ]);
        }
    }
    let mut out = String::from(
        "Section VI: Multi-user Cases (whole-home vs room-partitioned DICE, testbed)\n",
    );
    out.push_str(&render_table(
        &[
            "residents",
            "approach",
            "groups",
            "det. P",
            "det. R",
            "id. hit",
        ],
        &rows,
    ));
    out.push_str(
        "paper: unique state sets grow with residents; partitioning spatially close\n\
         sensors into separate DICE instances restrains the combinations\n",
    );
    out
}
