//! Dataset and model materialization commands: export a synthesized dataset
//! to CSV, train and persist a model, write a coherent deployment artifact
//! set, and verify a persisted model. (The CSV replay loop itself lives in
//! the sibling `monitor` module.)

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use dice_core::{
    read_model, write_model, DiceEngine, EngineOptions, JsonlTraceWriter, TraceOptions,
};
use dice_datasets::{write_csv, DatasetId};
use dice_sim::Simulator;
use dice_telemetry::Telemetry;
use dice_types::{TimeDelta, Timestamp};

use crate::runner::{train_dataset, RunnerConfig};

/// Synthesizes `hours` of a catalog dataset and writes it as CSV to `path`.
///
/// # Errors
///
/// Returns an error for unknown dataset names or I/O failures.
pub fn export_csv(dataset: &str, hours: i64, path: &str, seed: u64) -> Result<String, String> {
    let id = DatasetId::parse(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    if hours <= 0 || hours > id.hours() {
        return Err(format!("hours must be in 1..={}", id.hours()));
    }
    let sim = Simulator::new(id.scenario(seed))?;
    let mut log = sim.log_between(Timestamp::ZERO, Timestamp::from_hours(hours));
    let events = log.len();
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    write_csv(&mut log, BufWriter::new(file)).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {events} events ({hours} h of {id}) to {path}"
    ))
}

/// Trains a model on a catalog dataset's precomputation period and persists
/// it in the compact binary format.
///
/// # Errors
///
/// Returns an error for unknown dataset names or I/O failures.
pub fn save_model(dataset: &str, path: &str, seed: u64) -> Result<String, String> {
    let id = DatasetId::parse(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let cfg = RunnerConfig {
        trials: 0,
        seed,
        ..RunnerConfig::default()
    };
    let td = train_dataset(id, &cfg);
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    write_model(&td.model, BufWriter::new(file)).map_err(|e| e.to_string())?;
    Ok(format!(
        "trained {id} ({} groups, correlation degree {:.1}) and saved the model to {path}",
        td.model.groups().len(),
        td.model.correlation_degree()
    ))
}

/// Hours of training data behind an `artifacts` set. Far less than the
/// paper's 300 h precompute: the set exists to exercise `dice-lint`'s
/// cross-artifact checks, not to reproduce accuracy numbers.
const ARTIFACT_TRAIN_HOURS: i64 = 48;

/// Trains on a catalog dataset and writes the full coherent artifact set a
/// deployment would carry — `model.dice`, `gateway.conf`, `trace.jsonl`
/// from replaying one monitoring segment, and `telemetry.json` recorded
/// over the same replay. `dice-lint` over the four files plus
/// `dataset:<name>` must report zero findings; any drift after editing one
/// of them is a seeded `DV19x`.
///
/// # Errors
///
/// Returns an error for unknown dataset names or I/O failures.
pub fn artifact_set(dataset: &str, dir: &str, seed: u64) -> Result<String, String> {
    let id = DatasetId::parse(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let cfg = RunnerConfig {
        trials: 0,
        seed,
        precompute: TimeDelta::from_hours(ARTIFACT_TRAIN_HOURS),
        ..RunnerConfig::default()
    };
    let td = train_dataset(id, &cfg);
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let model_path = dir.join("model.dice");
    let file = File::create(&model_path)
        .map_err(|e| format!("cannot create {}: {e}", model_path.display()))?;
    write_model(&td.model, BufWriter::new(file)).map_err(|e| e.to_string())?;

    let config_path = dir.join("gateway.conf");
    std::fs::write(
        &config_path,
        dice_verify::artifacts::write_config_text(td.model.config()),
    )
    .map_err(|e| format!("cannot create {}: {e}", config_path.display()))?;

    // Replay the first monitoring segment through an engine wired to a
    // private telemetry recorder and a JSONL trace sink, so the trace header
    // and the layout-fingerprint gauge both come from the live pipeline
    // rather than being written by hand.
    let telemetry = Telemetry::recording();
    let trace_path = dir.join("trace.jsonl");
    let file = File::create(&trace_path)
        .map_err(|e| format!("cannot create {}: {e}", trace_path.display()))?;
    let sink = JsonlTraceWriter::with_telemetry(BufWriter::new(file), &telemetry).into_shared();
    let mut engine = DiceEngine::with_options(
        &td.model,
        EngineOptions {
            telemetry: telemetry.clone(),
            trace: TraceOptions::recording().with_sink(sink),
            ..EngineOptions::default()
        },
    );
    let segment = td.plan.segments()[0];
    let window = td.model.config().window();
    let mut log = td.sim.log_between(segment.start, segment.end);
    let mut windows = 0u64;
    let mut alarms = 0u64;
    for w in log.windows_between(segment.start, segment.end, window) {
        if engine.process_window(w.start, w.end, w.events).is_some() {
            alarms += 1;
        }
        windows += 1;
    }
    drop(engine); // flush batched telemetry before the snapshot

    let snapshot_path = dir.join("telemetry.json");
    let snapshot = telemetry
        .snapshot()
        .ok_or("telemetry recorder was not installed")?;
    std::fs::write(&snapshot_path, snapshot.to_json())
        .map_err(|e| format!("cannot create {}: {e}", snapshot_path.display()))?;

    Ok(format!(
        "trained {id} on {ARTIFACT_TRAIN_HOURS} h ({} groups) and replayed {windows} windows ({alarms} alarm(s));\n\
         wrote model.dice, gateway.conf, trace.jsonl, telemetry.json to {}",
        td.model.groups().len(),
        dir.display()
    ))
}

/// Loads a persisted model and prints its summary.
///
/// # Errors
///
/// Returns an error for unreadable or corrupt model files.
pub fn inspect_model(path: &str) -> Result<String, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let model = read_model(BufReader::new(file)).map_err(|e| e.to_string())?;
    Ok(format!(
        "model: {} sensors ({} bits), {} actuators, {} groups, correlation degree {:.1},\n\
         trained on {} windows; g2g/g2a/a2g entries: {}/{}/{}",
        model.layout().num_sensors(),
        model.layout().num_bits(),
        model.num_actuators(),
        model.groups().len(),
        model.correlation_degree(),
        model.training_windows(),
        model.transitions().g2g().num_entries(),
        model.transitions().g2a().num_entries(),
        model.transitions().a2g().num_entries(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_rejects_bad_arguments() {
        assert!(export_csv("nope", 1, "/tmp/x.csv", 1).is_err());
        assert!(export_csv("houseA", 0, "/tmp/x.csv", 1).is_err());
        assert!(export_csv("houseA", 10_000, "/tmp/x.csv", 1).is_err());
    }

    #[test]
    fn inspect_rejects_missing_and_foreign_files() {
        assert!(inspect_model("/nonexistent/model.dice").is_err());
        let dir = std::env::temp_dir().join("dice-test-inspect");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-model.bin");
        std::fs::write(&path, b"garbage").unwrap();
        let err = inspect_model(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("DICE"), "{err}");
    }

    #[test]
    fn csv_export_and_model_save_round_trip() {
        let dir = std::env::temp_dir().join("dice-test-export");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("houseA.csv");
        let summary = export_csv("houseA", 2, csv.to_str().unwrap(), 1).unwrap();
        assert!(summary.contains("houseA"));
        assert!(csv.metadata().unwrap().len() > 100);
    }
}
