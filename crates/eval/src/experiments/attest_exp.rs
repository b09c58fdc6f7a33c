//! Attestation experiment: verifying identified devices by masked replay.
//!
//! Section 3.4 mentions "an additional attestation step for a verification
//! purpose". [`dice_core::Attestor`] implements it: for each suspect, the
//! anomalous windows are re-checked with the suspect's bits masked; a true
//! culprit explains (almost) all of them. This experiment measures how much
//! attestation-based re-ranking improves identification precision when the
//! identification step is run in its ambiguous (all-candidates)
//! configuration.

use dice_core::{Attestor, DiceConfig};
use dice_datasets::DatasetId;
use dice_faults::{FaultInjector, FaultPlanner};
use dice_types::{DeviceId, WindowIter};

use crate::report::{pct, render_table};
use crate::runner::{run_faulty_segment, train_dataset, RunnerConfig};

/// Runs the attestation comparison.
pub fn attest(trials: u64, seed: u64) -> String {
    let dice = DiceConfig::builder()
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
    let planner = FaultPlanner::new(seed ^ 0xA77E);
    let injector = FaultInjector::new(seed ^ 0xA77F);
    let attestor = Attestor::new(&td.model);

    let mut detected = 0u64;
    let mut raw_exact = 0u64; // report devices == {faulty}
    let mut attested_top1 = 0u64; // attestation's top-ranked == faulty
    let mut suspects_total = 0u64;

    for trial in 0..cfg.trials {
        let segment = td.plan.segment_for_trial(trial);
        let fault = planner.sensor_fault(trial, registry, segment.start, segment.len());
        let clean = td.sim.log_between(segment.start, segment.end);
        let mut faulty = injector.inject_sensor(clean, registry, &fault);

        let outcome = run_faulty_segment(&td, &mut faulty, segment, fault.onset);
        let Some(report) = outcome.report else {
            continue;
        };
        detected += 1;
        suspects_total += report.devices.len() as u64;
        let target = DeviceId::Sensor(fault.sensor);
        if report.devices == vec![target] {
            raw_exact += 1;
        }

        // Attest every suspect against the anomalous tail of the segment.
        let window = td.model.config().window();
        let history: Vec<_> = {
            let mut events = faulty.slice(report.detected_at - window, segment.end);
            let iter: WindowIter<'_> =
                events.windows_between(report.detected_at - window, segment.end, window);
            iter.map(|w| td.model.binarizer().binarize(w.start, w.end, w.events))
                .collect()
        };
        let ranked = attestor.rank_suspects(&report.devices, &history);
        if ranked.first().map(|a| a.device) == Some(target) {
            attested_top1 += 1;
        }
    }

    let rows = vec![
        vec![
            "raw report == faulty device".to_string(),
            pct(if detected == 0 {
                0.0
            } else {
                raw_exact as f64 / detected as f64
            }),
        ],
        vec![
            "attestation top-1 == faulty device".to_string(),
            pct(if detected == 0 {
                0.0
            } else {
                attested_top1 as f64 / detected as f64
            }),
        ],
        vec![
            "mean suspects per report".to_string(),
            format!(
                "{:.2}",
                if detected == 0 {
                    0.0
                } else {
                    suspects_total as f64 / detected as f64
                }
            ),
        ],
    ];
    let mut out = String::from(
        "Section 3.4: Attestation Step (ambiguous identification, masked-replay verification)\n",
    );
    out.push_str(&render_table(&["metric", "value"], &rows));
    out.push_str(&format!("({detected}/{} faults detected)\n", cfg.trials));
    out.push_str(
        "the paper mentions attestation as an optional verification of the identified\n\
         device; masking the true culprit's bits should explain the anomalous windows\n",
    );
    out
}
