//! Snapshot validation for exported runtime telemetry (`telemetry-check`).
//!
//! CI's telemetry-smoke job runs `dice-repro --telemetry out.json ...` and
//! then `dice-repro telemetry-check out.json`: the check fails unless the
//! file is a schema-versioned snapshot containing every metric in the
//! catalog, with well-formed sketch and family rows.

use dice_telemetry::{json_parse, validate_snapshot_json, Value};

/// Validates an exported telemetry snapshot and summarizes its headline
/// numbers.
///
/// # Errors
///
/// Returns a description of the first schema problem, or an I/O error.
pub fn telemetry_check(path: &str) -> Result<String, String> {
    let document =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    validate_snapshot_json(&document)?;
    let value = json_parse(&document).map_err(|e| e.to_string())?;
    let counter = |name: &str| -> u64 {
        value
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_num)
            .unwrap_or(0.0) as u64
    };
    let events = value
        .get("events")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    Ok(format!(
        "{path}: valid dice-telemetry snapshot (schema {schema})\n\
         engine windows {windows}, correlation violations {corr}, reports {reports}\n\
         gateway frames {frames}, eval trials {trials}, retained events {events}",
        schema = dice_telemetry::SNAPSHOT_SCHEMA,
        windows = counter("dice_engine_windows_total"),
        corr = counter("dice_engine_correlation_violations_total"),
        reports = counter("dice_engine_reports_total"),
        frames = counter("dice_gateway_frames_total"),
        trials = counter("dice_eval_trials_total"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_telemetry::Telemetry;

    #[test]
    fn check_accepts_a_real_snapshot_and_rejects_garbage() {
        let telemetry = Telemetry::recording();
        telemetry
            .recorder()
            .unwrap()
            .metrics
            .engine
            .windows_total
            .add(9);
        let dir = std::env::temp_dir();
        let good = dir.join("dice_telemetry_check_good.json");
        std::fs::write(&good, telemetry.snapshot().unwrap().to_json()).unwrap();
        let summary = telemetry_check(good.to_str().unwrap()).unwrap();
        assert!(summary.contains("valid dice-telemetry snapshot"));
        assert!(summary.contains("engine windows 9"));
        let _ = std::fs::remove_file(&good);

        let bad = dir.join("dice_telemetry_check_bad.json");
        std::fs::write(&bad, "{\"schema\": 1}").unwrap();
        assert!(telemetry_check(bad.to_str().unwrap()).is_err());
        let _ = std::fs::remove_file(&bad);
        assert!(telemetry_check("/nonexistent/snapshot.json").is_err());
    }
}
