//! Extended experiments: actuator faults (Section 5.1.3), multi-fault
//! identification, and parameter sensitivity (Section VI).

use dice_core::DiceConfig;
use dice_datasets::DatasetId;
use dice_types::TimeDelta;

use crate::report::{pct, render_table};
use crate::runner::{
    evaluate_actuator_faults, evaluate_multi_faults, evaluate_sensor_faults, train_dataset,
    MultiFaultEvaluation, RunnerConfig, TrainedDataset,
};

/// Section 5.1.3: actuator faults on the testbed datasets.
///
/// The paper reports 92.5% precision / 94.9% recall for identifying
/// problematic actuators from the `D_*` data.
pub fn actuator_faults(trials: u64, seed: u64) -> String {
    testbed_identification_table(
        "Section 5.1.3: Actuator Faults (ghost activations on D_* datasets)\n",
        &RunnerConfig {
            trials,
            seed,
            ..RunnerConfig::default()
        },
        evaluate_actuator_faults,
        "paper: 92.5% precision / 94.9% recall on average\n",
    )
}

/// Section VI: multi-fault case — one to three simultaneous sensor faults,
/// `numThre = 3`. The paper reports 79.5% precision / 63.3% recall.
pub fn multi_fault(trials: u64, seed: u64) -> String {
    testbed_identification_table(
        "Section VI: Multi-fault Case (1-3 simultaneous faults, numThre = 3)\n",
        &RunnerConfig {
            trials,
            seed,
            dice: DiceConfig::builder().max_faults(3).num_thre(3).build(),
            ..RunnerConfig::default()
        },
        evaluate_multi_faults,
        "paper: 79.5% precision / 63.3% recall\n",
    )
}

/// Runs `evaluate` on every testbed dataset and tabulates detection recall
/// and identification precision and recall, with the overall
/// identification figures and the paper's.
fn testbed_identification_table(
    title: &str,
    cfg: &RunnerConfig,
    evaluate: fn(&TrainedDataset, &RunnerConfig) -> MultiFaultEvaluation,
    paper: &str,
) -> String {
    let mut rows = Vec::new();
    let mut total = crate::metrics::IdentificationCounts::default();
    for id in DatasetId::testbed() {
        let td = train_dataset(id, cfg);
        let eval = evaluate(&td, cfg);
        total.merge(&eval.identification);
        rows.push(vec![
            id.name().to_string(),
            pct(eval.detection.recall()),
            pct(eval.identification.precision()),
            pct(eval.identification.recall()),
        ]);
    }
    let mut out = String::from(title);
    out.push_str(&render_table(
        &["dataset", "det. recall", "id. precision", "id. recall"],
        &rows,
    ));
    out.push_str(&format!(
        "overall identification: {} precision / {} recall\n",
        pct(total.precision()),
        pct(total.recall())
    ));
    out.push_str(paper);
    out
}

/// Section VI: impact of different parameters.
///
/// * halving the precomputation period (300 h -> 150 h) should cost
///   identification precision (paper: −10%);
/// * halving the segment length (6 h -> 3 h) should cost recall (paper: −6%);
/// * the one-minute window duration should be near-optimal.
pub fn param_sensitivity(trials: u64, seed: u64) -> String {
    let dataset = DatasetId::DHouseA;
    let mut out = String::from("Section VI: Impact of Different Parameters (on D_houseA)\n\n");

    // Precomputation period.
    let mut rows = Vec::new();
    for hours in [150, 300] {
        let cfg = RunnerConfig {
            trials,
            seed,
            precompute: TimeDelta::from_hours(hours),
            ..RunnerConfig::default()
        };
        let td = train_dataset(dataset, &cfg);
        let eval = evaluate_sensor_faults(&td, &cfg);
        rows.push(vec![
            format!("{hours} h"),
            pct(eval.detection.precision()),
            pct(eval.detection.recall()),
            pct(eval.identification.precision()),
            pct(eval.identification.recall()),
        ]);
    }
    out.push_str("precomputation period (paper: 150 h costs ~10% identification precision):\n");
    out.push_str(&render_table(
        &["training", "det. P", "det. R", "id. P", "id. R"],
        &rows,
    ));

    // Segment length.
    let mut rows = Vec::new();
    for hours in [3, 6] {
        let cfg = RunnerConfig {
            trials,
            seed,
            segment_len: TimeDelta::from_hours(hours),
            ..RunnerConfig::default()
        };
        let td = train_dataset(dataset, &cfg);
        let eval = evaluate_sensor_faults(&td, &cfg);
        rows.push(vec![
            format!("{hours} h"),
            pct(eval.detection.precision()),
            pct(eval.detection.recall()),
            pct(eval.identification.recall()),
        ]);
    }
    out.push_str("\nsegment length (paper: 3 h costs ~6% identification recall):\n");
    out.push_str(&render_table(
        &["segment", "det. P", "det. R", "id. R"],
        &rows,
    ));

    // Window duration.
    let mut rows = Vec::new();
    for secs in [30i64, 60, 120, 300] {
        let dice = DiceConfig::builder()
            .window(TimeDelta::from_secs(secs))
            .build();
        let cfg = RunnerConfig {
            trials,
            seed,
            dice,
            ..RunnerConfig::default()
        };
        let td = train_dataset(dataset, &cfg);
        let eval = evaluate_sensor_faults(&td, &cfg);
        rows.push(vec![
            format!("{secs} s"),
            pct(eval.detection.precision()),
            pct(eval.detection.recall()),
            eval.num_groups.to_string(),
        ]);
    }
    out.push_str("\nwindow duration (paper: one minute was empirically optimal):\n");
    out.push_str(&render_table(
        &["window", "det. P", "det. R", "groups"],
        &rows,
    ));
    out
}
