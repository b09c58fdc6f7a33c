//! The shared full-evaluation pass: train and evaluate every dataset once;
//! individual tables and figures format slices of the result.

use dice_datasets::DatasetId;
use rayon::prelude::*;

use crate::runner::{
    evaluate_sensor_faults, tracing_to_sink, train_dataset, DatasetEvaluation, RunnerConfig,
};

/// The result of evaluating a set of datasets under one configuration.
#[derive(Debug, Clone)]
pub struct FullEvaluation {
    /// Per-dataset results, in catalog order.
    pub evals: Vec<DatasetEvaluation>,
}

impl FullEvaluation {
    /// The evaluation for a dataset by name, if present.
    pub fn by_name(&self, name: &str) -> Option<&DatasetEvaluation> {
        self.evals.iter().find(|e| e.name == name)
    }

    /// Average detection precision across datasets.
    pub fn avg_detection_precision(&self) -> f64 {
        avg(self.evals.iter().map(|e| e.detection.precision()))
    }

    /// Average detection recall across datasets.
    pub fn avg_detection_recall(&self) -> f64 {
        avg(self.evals.iter().map(|e| e.detection.recall()))
    }

    /// Average identification precision across datasets.
    pub fn avg_identification_precision(&self) -> f64 {
        avg(self.evals.iter().map(|e| e.identification.precision()))
    }

    /// Average identification recall across datasets.
    pub fn avg_identification_recall(&self) -> f64 {
        avg(self.evals.iter().map(|e| e.identification.recall()))
    }
}

fn avg(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        // Collected in fixed dataset order. lint-src: allow(float-accumulation)
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

/// Runs sensor-fault evaluation over `datasets` with `trials` per dataset.
///
/// Datasets are trained and evaluated in parallel, or in catalog order when
/// a trace sink is installed; results are collected in catalog order and
/// each dataset's randomness depends only on the master seed, so the output
/// is bit-identical to a serial run.
pub fn run_full(datasets: &[DatasetId], trials: u64, seed: u64) -> FullEvaluation {
    let cfg = RunnerConfig {
        trials,
        seed,
        ..RunnerConfig::default()
    };
    let evaluate = |&id: &DatasetId| evaluate_sensor_faults(&train_dataset(id, &cfg), &cfg);
    let evals = if tracing_to_sink() {
        datasets.iter().map(evaluate).collect()
    } else {
        datasets.par_iter().map(evaluate).collect()
    };
    FullEvaluation { evals }
}

/// Runs the full ten-dataset evaluation (the paper's protocol).
pub fn run_all_datasets(trials: u64, seed: u64) -> FullEvaluation {
    run_full(&DatasetId::all(), trials, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_empty_evaluation_are_zero() {
        let empty = FullEvaluation { evals: vec![] };
        assert_eq!(empty.avg_detection_precision(), 0.0);
        assert!(empty.by_name("houseA").is_none());
    }
}
