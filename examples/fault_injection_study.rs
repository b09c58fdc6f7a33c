//! Fault-injection study: how each fault class manifests and how fast DICE
//! reacts, per fault type, on the testbed dataset.
//!
//! ```sh
//! cargo run --release --example fault_injection_study
//! ```

use dice_datasets::DatasetId;
use dice_eval::{run_faulty_segment, train_dataset, RunnerConfig};
use dice_faults::{FaultInjector, FaultType, SensorFault};
use dice_types::TimeDelta;

fn main() {
    let cfg = RunnerConfig {
        trials: 0,
        ..RunnerConfig::default()
    };
    println!("training on {}...", DatasetId::DHouseA.name());
    let td = train_dataset(DatasetId::DHouseA, &cfg);
    let injector = FaultInjector::new(99);

    println!(
        "{:<10} {:>9} {:>12} {:>12}  identified devices",
        "fault", "detected", "detect(min)", "ident(min)"
    );
    for &fault_type in FaultType::all() {
        let mut detected = 0;
        let mut detect_mins = Vec::new();
        let mut identify_mins = Vec::new();
        let mut devices_summary = String::new();
        const TRIALS: u64 = 20;
        for trial in 0..TRIALS {
            let segment = td.plan.segment_for_trial(trial);
            // Rotate target sensors deterministically across trials.
            let sensor = dice_types::SensorId::new(
                (trial as u32 * 7) % td.sim.registry().num_sensors() as u32,
            );
            let fault = SensorFault {
                sensor,
                fault: fault_type,
                onset: segment.start + TimeDelta::from_mins(60),
            };
            let clean = td.sim.log_between(segment.start, segment.end);
            let mut faulty = injector.inject_sensor(clean, td.sim.registry(), &fault);
            let outcome = run_faulty_segment(&td, &mut faulty, segment, fault.onset);
            if let Some(report) = outcome.report {
                detected += 1;
                detect_mins.push((report.detected_at - fault.onset).as_mins_f64());
                identify_mins.push((report.identified_at - fault.onset).as_mins_f64());
                if devices_summary.is_empty() {
                    devices_summary = report
                        .devices
                        .iter()
                        .map(std::string::ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                }
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        println!(
            "{:<10} {:>6}/{} {:>12.1} {:>12.1}  e.g. {}",
            fault_type.to_string(),
            detected,
            TRIALS,
            mean(&detect_mins),
            mean(&identify_mins),
            devices_summary
        );
    }
}
