//! End-to-end integration: dataset synthesis -> training -> fault injection
//! -> detection -> identification, across every crate boundary.

use dice_core::{DiceConfig, DiceEngine};
use dice_eval::{evaluate_sensor_faults, run_faulty_segment, train_scenario, RunnerConfig};
use dice_faults::{FaultInjector, FaultType, SensorFault};
use dice_sim::testbed;
use dice_types::{DeviceId, TimeDelta};

fn quick_cfg() -> RunnerConfig {
    RunnerConfig {
        seed: 11,
        trials: 6,
        precompute: TimeDelta::from_hours(96),
        segment_len: TimeDelta::from_hours(6),
        dice: DiceConfig::default(),
    }
}

fn quick_testbed() -> dice_eval::TrainedDataset {
    let spec = testbed::dice_testbed("e2e", 11, TimeDelta::from_hours(168), 14, 1);
    train_scenario(spec, &quick_cfg())
}

#[test]
fn faultless_replay_is_mostly_quiet() {
    // 96 hours of training is far below the paper's 300; a small number of
    // unseen-context blips is expected, but most segments must stay quiet.
    let td = quick_testbed();
    let mut noisy_segments = 0;
    for trial in 0..4 {
        let segment = td.plan.segment_for_trial(trial);
        let mut log = td.sim.log_between(segment.start, segment.end);
        let mut engine = DiceEngine::new(&td.model);
        let mut reports = engine.process_range(&mut log, segment.start, segment.end);
        reports.extend(engine.flush());
        if !reports.is_empty() {
            noisy_segments += 1;
        }
    }
    assert!(
        noisy_segments <= 1,
        "{noisy_segments}/4 faultless segments raised alarms"
    );
}

#[test]
fn noise_fault_is_detected_and_attributed() {
    let td = quick_testbed();
    let segment = td.plan.segment_for_trial(1);
    // Noise on a beacon: beacons are exercised around the clock.
    let beacon = td
        .sim
        .registry()
        .sensors()
        .find(|s| s.kind() == dice_types::SensorKind::Location)
        .expect("testbed has beacons")
        .id();
    let fault = SensorFault {
        sensor: beacon,
        fault: FaultType::Noise,
        onset: segment.start + TimeDelta::from_mins(45),
    };
    let clean = td.sim.log_between(segment.start, segment.end);
    let mut faulty = FaultInjector::new(3).inject_sensor(clean, td.sim.registry(), &fault);
    let outcome = run_faulty_segment(&td, &mut faulty, segment, fault.onset);
    let report = outcome.report.expect("noise fault must be detected");
    assert!(report.devices.contains(&DeviceId::Sensor(beacon)));
    assert!(report.identified_at >= report.detected_at);
    assert!((report.detected_at - fault.onset).as_mins() <= 120);
}

#[test]
fn evaluation_pipeline_produces_consistent_counts() {
    let td = quick_testbed();
    let cfg = quick_cfg();
    let eval = evaluate_sensor_faults(&td, &cfg);
    assert_eq!(
        eval.detection.true_positives + eval.detection.false_negatives,
        cfg.trials
    );
    assert_eq!(
        eval.detection.false_positives + eval.detection.true_negatives,
        cfg.trials
    );
    // Every missed fault contributes exactly one missed device; every
    // detection contributes exactly one judged device.
    assert_eq!(
        eval.identification.correct + eval.identification.missed,
        cfg.trials
    );
    // Latency samples exist exactly for detected faults.
    assert_eq!(
        eval.detect_latency.len() as u64,
        eval.detection.true_positives
    );
    // Attribution totals match the faulty-trial count.
    let attributed: u64 = eval
        .by_fault_type
        .values()
        .map(dice_eval::CheckAttribution::total)
        .sum();
    assert_eq!(attributed, cfg.trials);
}

#[test]
fn model_clone_and_reindex_preserve_behavior() {
    let td = quick_testbed();
    let mut clone = td.model.clone();
    assert_eq!(clone, td.model);
    // Rebuilding the derived indexes must not change results.
    clone.rebuild_index();
    let segment = td.plan.segment_for_trial(0);
    let mut log = td.sim.log_between(segment.start, segment.end);
    let mut a = DiceEngine::new(&td.model);
    let mut b = DiceEngine::new(&clone);
    assert_eq!(
        a.process_range(&mut log.clone(), segment.start, segment.end),
        b.process_range(&mut log, segment.start, segment.end),
    );
}

/// The paper's Table 5.1 at 5 trials, committed byte for byte as the
/// `dice-repro table-5-1 5` stdout it is (hence the trailing newline). Its
/// numbers come from trained catalog models judged by the real engine, so
/// a change to training, binarization, the candidate scan or the checks
/// shows here even where every serving path still agrees with the others.
#[test]
fn table_5_1_at_5_trials_matches_the_golden() {
    let table = dice_eval::experiments::run_command("table-5-1", &["5"]).expect("table-5-1 runs");
    assert_eq!(format!("{table}\n"), include_str!("golden/table_5_1_5.txt"));
}

/// Runs one `dice-repro` command and compares its stdout (hence the
/// trailing newline) with a committed golden file byte for byte.
fn assert_command_matches_golden(command: &str, args: &[&str], golden: &str) {
    let out = dice_eval::experiments::run_command(command, args)
        .unwrap_or_else(|e| panic!("{command} {args:?} fails: {e}"));
    assert_eq!(format!("{out}\n"), golden, "{command} {args:?}");
}

/// Faultless-segment diagnostics on houseC: correlation violations, each
/// with its nearest in-threshold group's distance and the differing bits.
#[test]
fn diagnose_house_c_20_matches_the_golden() {
    assert_command_matches_golden(
        "diagnose",
        &["houseC", "20"],
        include_str!("golden/diagnose_houseC_20.txt"),
    );
}

/// Faultless-segment diagnostics on the testbed: G2G transition
/// violations, which depend on the previous-window chain.
#[test]
fn diagnose_d_house_a_5_matches_the_golden() {
    assert_command_matches_golden(
        "diagnose",
        &["D_houseA", "5"],
        include_str!("golden/diagnose_D_houseA_5.txt"),
    );
}

/// Missed-fault diagnostics: a sound sensor's fail-stop that the engine
/// misses although the detector alone sees 8 violating windows.
#[test]
fn misses_d_house_a_2_matches_the_golden() {
    assert_command_matches_golden(
        "misses",
        &["D_houseA", "2"],
        include_str!("golden/misses_D_houseA_2.txt"),
    );
}

/// The testbed's diagnostics over 20 segments and trials: G2G, G2A and A2G
/// transition violations, and a missed spike behind 29 violating windows.
#[test]
#[ignore = "20 segments and 20 trials; run in release with --ignored"]
fn diagnose_and_misses_d_house_a_20_match_the_goldens() {
    assert_command_matches_golden(
        "diagnose",
        &["D_houseA", "20"],
        include_str!("golden/diagnose_D_houseA_20.txt"),
    );
    assert_command_matches_golden(
        "misses",
        &["D_houseA", "20"],
        include_str!("golden/misses_D_houseA_20.txt"),
    );
}

/// Attestation on the testbed in its ambiguous identification setup: raw
/// report precision against the masked-replay top-1 ranking.
#[test]
fn attest_5_matches_the_golden() {
    assert_command_matches_golden("attest", &["5"], include_str!("golden/attest_5.txt"));
}

/// Attestation over 40 trials, where the masked replay re-ranks some
/// ambiguous reports and a few faults go undetected.
#[test]
#[ignore = "40 trials; run in release with --ignored"]
fn attest_40_matches_the_golden() {
    assert_command_matches_golden("attest", &["40"], include_str!("golden/attest_40.txt"));
}

/// Criticality-weighted early alarms on gas/flame faults: identification
/// hit rate, mean identification delay and the faultless false-alarm rate,
/// unweighted and weighted.
#[test]
fn weights_5_matches_the_golden() {
    assert_command_matches_golden("weights", &["5"], include_str!("golden/weights_5.txt"));
}

/// The two spoofing attacks on the testbed, each replayed through the
/// engine from its onset.
#[test]
fn security_matches_the_golden() {
    assert_command_matches_golden("security", &[], include_str!("golden/security.txt"));
}

/// Whole-home against room-partitioned DICE for one to three residents,
/// each approach judged on the same seeded sensor-fault trials.
#[test]
#[ignore = "six models on 600 h testbeds; run in release with --ignored"]
fn multi_user_3_matches_the_golden() {
    assert_command_matches_golden(
        "multi-user",
        &["3"],
        include_str!("golden/multi_user_3.txt"),
    );
}

/// Ghost actuator activations and one to three simultaneous sensor faults
/// on the six testbed datasets, scored against the set of faulty devices.
#[test]
#[ignore = "trains the six testbed datasets twice; run in release with --ignored"]
fn actuator_and_multi_fault_3_match_the_goldens() {
    assert_command_matches_golden(
        "actuator-faults",
        &["3"],
        include_str!("golden/actuator_faults_3.txt"),
    );
    assert_command_matches_golden(
        "multi-fault",
        &["3"],
        include_str!("golden/multi_fault_3.txt"),
    );
}
