//! Section VI, "Weight of devices": criticality-weighted early alarms.
//!
//! Safety-critical devices (gas, flame) should be alarmed early even before
//! the probable-device intersection narrows below `numThre`. The paper warns
//! this trades earlier identification for more false positives; this
//! experiment measures both sides on the testbed.

use dice_core::{DeviceWeights, DiceEngine, EngineOptions};
use dice_datasets::DatasetId;
use dice_faults::{FaultInjector, FaultType, SensorFault};
use dice_types::{DeviceId, EventLog, SensorKind, TimeDelta};

use crate::metrics::LatencyStats;
use crate::report::{pct, render_table};
use crate::runner::{replay_segment, train_dataset, RunnerConfig};

/// Runs the weighted-identification experiment.
///
/// Identification is run in its ambiguous configuration (diffing against
/// every candidate group, not just the nearest): weighted early-firing only
/// matters when the probable-device intersection takes multiple windows to
/// narrow, which the nearest-only default mostly avoids.
pub fn weights(trials: u64, seed: u64) -> String {
    let dice = dice_core::DiceConfig::builder()
        .nearest_only_identification(false)
        .build();
    let cfg = RunnerConfig {
        trials,
        seed,
        dice,
        ..RunnerConfig::default()
    };
    let td = train_dataset(DatasetId::DHouseA, &cfg);
    let registry = td.sim.registry();

    // Safety-critical sensors: gas and flame.
    let critical: Vec<_> = registry
        .sensors()
        .filter(|s| matches!(s.kind(), SensorKind::Gas | SensorKind::Flame))
        .map(dice_types::SensorSpec::id)
        .collect();
    let mut device_weights = DeviceWeights::new();
    for &sensor in &critical {
        device_weights.set_criticality(DeviceId::Sensor(sensor), 10.0);
    }

    let injector = FaultInjector::new(seed ^ 0x33);
    let mut rows = Vec::new();
    for (label, options) in [
        ("unweighted", EngineOptions::default()),
        (
            "gas/flame x10, early fire",
            EngineOptions {
                weights: device_weights.clone(),
                early_fire_threshold: Some(5.0),
                ..EngineOptions::default()
            },
        ),
    ] {
        let mut identify_latency = LatencyStats::new();
        let mut identified = 0u64;
        let mut false_alarms = 0u64;
        for trial in 0..trials {
            let segment = td.plan.segment_for_trial(trial);
            let clean = td.sim.log_between(segment.start, segment.end);

            let replay = |log: &mut EventLog| {
                let mut engine = DiceEngine::with_options(&td.model, options.clone());
                replay_segment(&mut engine, log, segment)
            };

            // Faultless twin under the same options (the FP side of the
            // trade-off the paper warns about).
            if !replay(&mut clean.clone()).is_empty() {
                false_alarms += 1;
            }

            // A fault on a critical sensor, rotating through the set.
            let sensor = critical[(trial as usize) % critical.len()];
            let fault = SensorFault {
                sensor,
                fault: if trial % 2 == 0 {
                    FaultType::Noise
                } else {
                    FaultType::Spike
                },
                onset: segment.start + TimeDelta::from_mins(45),
            };
            let mut faulty = injector.inject_sensor(clean, registry, &fault);
            let reports = replay(&mut faulty);
            if let Some(report) = reports.into_iter().find(|r| r.detected_at >= fault.onset) {
                if report.devices.contains(&DeviceId::Sensor(sensor)) {
                    identified += 1;
                    identify_latency.push((report.identified_at - fault.onset).as_mins_f64());
                }
            }
        }
        rows.push(vec![
            label.to_string(),
            pct(if trials == 0 {
                1.0
            } else {
                identified as f64 / trials as f64
            }),
            identify_latency
                .mean()
                .map_or("-".into(), |m| format!("{m:.1}")),
            pct(if trials == 0 {
                0.0
            } else {
                false_alarms as f64 / trials as f64
            }),
        ]);
    }

    let mut out = String::from(
        "Section VI: Weight of Devices (criticality-weighted early alarms, gas/flame faults)\n",
    );
    out.push_str(&render_table(
        &[
            "configuration",
            "id. hit",
            "identify mean (min)",
            "faultless FP rate",
        ],
        &rows,
    ));
    out.push_str(
        "paper: higher weights enable earlier identification of critical devices at\n\
         the price of a higher false-positive rate\n",
    );
    out
}
