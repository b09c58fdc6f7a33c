//! Evaluation harness for the DICE reproduction.
//!
//! Implements the paper's evaluation protocol (Section V) — 300-hour
//! precomputation, six-hour segments, duplicated fault-injected segments,
//! 100 faultless + 100 faulty trials per dataset — plus regenerators for
//! every table and figure of the evaluation and discussion sections. See
//! [`experiments`] for the per-table/figure entry points and the
//! `dice-repro` binary for the command-line interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod metrics;
pub mod report;
pub mod runner;

pub use metrics::{DetectionCounts, IdentificationCounts, LatencyStats};
pub use runner::{
    evaluate_actuator_faults, evaluate_actuator_faults_serial, evaluate_multi_faults,
    evaluate_multi_faults_serial, evaluate_sensor_faults, evaluate_sensor_faults_serial,
    replay_segment, run_faulty_segment, train_dataset, train_scenario, CheckAttribution,
    DatasetEvaluation, MultiFaultEvaluation, RunnerConfig, SegmentOutcome, SensorTrial,
    TrainedDataset,
};
