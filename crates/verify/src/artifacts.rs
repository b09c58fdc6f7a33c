//! Cross-artifact compatibility analysis (the `DV19x` family).
//!
//! A DICE deployment scatters derived state across several files: the
//! trained model binary, the gateway's config file, `dice-trace` JSONL
//! decision logs, and telemetry snapshots. Each was produced against one
//! concrete [`BitLayout`] / [`DiceConfig`] /
//! threshold set, and nothing at runtime stops an operator from replaying
//! a trace against a retrained model or pointing the gateway at a config
//! that differs from the one the model was trained under. The resulting
//! failures are silent: bit indexes land on the wrong sensor, candidate
//! distances change meaning, zero-probability checks fire on the wrong
//! rows.
//!
//! This module gives every artifact a *fingerprint profile* — up to three
//! stable 64-bit FNV-1a fingerprints (layout, config, thresholds; see
//! [`dice_core::fingerprint`]) — and compares every pair:
//!
//! | code  | meaning |
//! |-------|---------|
//! | DV190 | two artifacts disagree about the bit layout |
//! | DV191 | two artifacts disagree about the configuration |
//! | DV192 | two artifacts disagree about the numeric thresholds |
//! | DV193 | an artifact could not be read or recognized |
//! | DV194 | a telemetry snapshot carries no layout fingerprint |
//!
//! Not every artifact carries every facet: a trace header fixes only the
//! layout, a standalone config file only the configuration, a telemetry
//! snapshot only the (gauge-masked) layout fingerprint. Pairs are compared
//! on the facets both sides actually carry; layout fingerprints are
//! normalized through [`fingerprint::gauge_value`] so a 63-bit gauge
//! readback compares cleanly against the full 64-bit values.
//!
//! Artifacts are named by path, or by the pseudo-spec `dataset:<name>`
//! which resolves a Table 4.1 catalog entry to the layout its scenario
//! registry implies — letting `dice-lint` answer "was this model trained
//! for hh102's sensor complement?" without any dataset files on disk.

use std::fmt;
use std::fs;
use std::path::Path;

use dice_core::{
    fingerprint, parse_trace_jsonl, read_model_unverified, BitLayout, Diagnostic, DiagnosticCode,
    DiceConfig, MODEL_MAGIC, TRACE_KIND,
};
use dice_datasets::DatasetId;
use dice_telemetry::{json_parse, snapshot_gauge_json, Value, SNAPSHOT_KIND};
use dice_types::TimeDelta;

/// First line of the standalone config text format.
pub const CONFIG_MAGIC: &str = "dice-config v1";

/// Prefix of a dataset pseudo-artifact spec.
pub const DATASET_SPEC_PREFIX: &str = "dataset:";

/// Seed used when resolving `dataset:<name>` pseudo-artifacts.
///
/// The bit layout depends only on the scenario's device complement, which
/// the catalog fixes per dataset independent of the seed, so any constant
/// works; this one is pinned so the resolution is reproducible anyway.
pub const DATASET_FINGERPRINT_SEED: u64 = 1;

/// The gauge a telemetry snapshot publishes the active model's layout
/// fingerprint under (see `dice_engine_model_layout_fingerprint` in the
/// telemetry catalog).
pub const LAYOUT_FINGERPRINT_GAUGE: &str = "dice_engine_model_layout_fingerprint";

/// What kind of artifact a spec resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A serialized [`DiceModel`](dice_core::DiceModel) binary.
    Model,
    /// A standalone config file in the [`CONFIG_MAGIC`] text format.
    Config,
    /// A `dice-trace` JSONL decision log (only its header matters here).
    Trace,
    /// A telemetry snapshot JSON document.
    Telemetry,
    /// A `dataset:<name>` catalog pseudo-artifact.
    Dataset,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactKind::Model => "model",
            ArtifactKind::Config => "config",
            ArtifactKind::Trace => "trace",
            ArtifactKind::Telemetry => "telemetry",
            ArtifactKind::Dataset => "dataset",
        })
    }
}

/// The fingerprint profile of one artifact.
///
/// `None` facets are ones this artifact kind does not carry (a trace pins
/// no thresholds) or could not provide (a telemetry snapshot from a run
/// where no engine was ever constructed).
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Display name: the path as given, or `dataset:<name>`.
    pub name: String,
    /// What the artifact turned out to be.
    pub kind: ArtifactKind,
    /// Fingerprint of the bit layout, if the artifact pins one.
    pub layout_fingerprint: Option<u64>,
    /// Fingerprint of the configuration, if the artifact pins one.
    pub config_fingerprint: Option<u64>,
    /// Fingerprint of the numeric thresholds, if the artifact pins them.
    pub threshold_fingerprint: Option<u64>,
}

impl ArtifactInfo {
    fn new(name: &str, kind: ArtifactKind) -> Self {
        ArtifactInfo {
            name: name.to_string(),
            kind,
            layout_fingerprint: None,
            config_fingerprint: None,
            threshold_fingerprint: None,
        }
    }
}

/// Renders a [`DiceConfig`] in the standalone text format
/// ([`parse_config_text`] reads it back).
pub fn write_config_text(config: &DiceConfig) -> String {
    let mut out = String::new();
    out.push_str(CONFIG_MAGIC);
    out.push('\n');
    out.push_str(&format!("window_secs = {}\n", config.window().as_secs()));
    out.push_str(&format!("max_faults = {}\n", config.max_faults()));
    out.push_str(&format!("num_thre = {}\n", config.num_thre()));
    match config.candidate_distance_override() {
        Some(d) => out.push_str(&format!("candidate_distance = {d}\n")),
        None => out.push_str("candidate_distance = auto\n"),
    }
    out.push_str(&format!(
        "max_identification_windows = {}\n",
        config.max_identification_windows()
    ));
    out.push_str(&format!(
        "nearest_only_identification = {}\n",
        config.nearest_only_identification()
    ));
    out.push_str(&format!("min_row_support = {}\n", config.min_row_support()));
    out.push_str(&format!(
        "confirmation_violations = {}\n",
        config.confirmation_violations()
    ));
    out.push_str(&format!(
        "confirmation_horizon_windows = {}\n",
        config.confirmation_horizon_windows()
    ));
    out
}

/// Parses the standalone config text format written by
/// [`write_config_text`].
///
/// The first non-blank line must be [`CONFIG_MAGIC`]; the rest are
/// `key = value` pairs (`#`-prefixed comment lines and blank lines are
/// skipped). Unknown keys, repeated keys, and values the
/// [`DiceConfig`] builder would reject (zero window, zero `max_faults`,
/// ...) are errors.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_config_text(text: &str) -> Result<DiceConfig, String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or("empty config file")?;
    if header != CONFIG_MAGIC {
        return Err(format!("first line {header:?} is not \"{CONFIG_MAGIC}\""));
    }
    let mut builder = DiceConfig::builder();
    let mut seen: Vec<&str> = Vec::new();
    for line in lines {
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line:?} is not key = value"))?;
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(format!("key {key:?} given twice"));
        }
        seen.push(key);
        builder = match key {
            "window_secs" => {
                let secs: i64 = parse_num(key, value)?;
                if secs <= 0 {
                    return Err("window_secs must be positive".into());
                }
                builder.window(TimeDelta::from_secs(secs))
            }
            "max_faults" => {
                let n: usize = parse_num(key, value)?;
                if n == 0 {
                    return Err("max_faults must be at least 1".into());
                }
                builder.max_faults(n)
            }
            "num_thre" => {
                let n: usize = parse_num(key, value)?;
                if n == 0 {
                    return Err("num_thre must be at least 1".into());
                }
                builder.num_thre(n)
            }
            "candidate_distance" => {
                if value == "auto" {
                    builder // auto is the default: no override
                } else {
                    builder.candidate_distance(parse_num(key, value)?)
                }
            }
            "max_identification_windows" => {
                let n: usize = parse_num(key, value)?;
                if n == 0 {
                    return Err("max_identification_windows must be positive".into());
                }
                builder.max_identification_windows(n)
            }
            "nearest_only_identification" => match value {
                "true" => builder.nearest_only_identification(true),
                "false" => builder.nearest_only_identification(false),
                other => {
                    return Err(format!(
                        "nearest_only_identification value {other:?} is not true/false"
                    ))
                }
            },
            "min_row_support" => builder.min_row_support(parse_num(key, value)?),
            "confirmation_violations" => {
                let n: usize = parse_num(key, value)?;
                if n == 0 {
                    return Err("confirmation_violations must be at least 1".into());
                }
                builder.confirmation_violations(n)
            }
            "confirmation_horizon_windows" => {
                builder.confirmation_horizon_windows(parse_num(key, value)?)
            }
            other => return Err(format!("unknown config key {other:?}")),
        };
    }
    Ok(builder.build())
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{key} value {value:?} is not a valid number"))
}

/// Resolves one artifact spec (a path, or `dataset:<name>`) to its
/// fingerprint profile.
///
/// Never fails hard: anything unreadable or unrecognizable comes back as
/// `(None, [DV193])`, and a readable telemetry snapshot without a layout
/// fingerprint as `(Some(info), [DV194])`, so the caller always gets one
/// uniform report shape.
pub fn read_artifact(spec: &str) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    if let Some(name) = spec.strip_prefix(DATASET_SPEC_PREFIX) {
        return read_dataset_artifact(spec, name);
    }
    match fs::read(Path::new(spec)) {
        Ok(bytes) => read_artifact_bytes(spec, &bytes),
        Err(e) => (
            None,
            vec![unreadable(spec, &format!("cannot read file: {e}"))],
        ),
    }
}

/// Like [`read_artifact`] but over in-memory bytes, for callers that
/// already hold the content. The artifact kind is sniffed from the bytes:
/// model magic, config header, trace header line, or snapshot JSON.
pub fn read_artifact_bytes(name: &str, bytes: &[u8]) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    if bytes.starts_with(MODEL_MAGIC) {
        return read_model_artifact(name, bytes);
    }
    let Ok(text) = std::str::from_utf8(bytes) else {
        return (
            None,
            vec![unreadable(
                name,
                "neither a DICE model binary nor a text artifact",
            )],
        );
    };
    let first = text.lines().map(str::trim).find(|l| !l.is_empty());
    match first {
        Some(line) if line == CONFIG_MAGIC => read_config_artifact(name, text),
        Some(line) if line_is_kind(line, TRACE_KIND) => read_trace_artifact(name, line),
        _ if document_is_kind(text, SNAPSHOT_KIND) => read_telemetry_artifact(name, text),
        _ => (
            None,
            vec![unreadable(
                name,
                "unrecognized artifact: expected a model binary, \
                 a \"dice-config v1\" file, a dice-trace JSONL log, \
                 or a telemetry snapshot",
            )],
        ),
    }
}

/// Compares every pair of artifacts on every facet both sides carry.
///
/// Findings are deterministic: pairs are visited in input order, facets
/// in layout / config / threshold order. An empty or single-element input
/// trivially yields no findings.
pub fn check_artifacts(artifacts: &[ArtifactInfo]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, a) in artifacts.iter().enumerate() {
        for b in &artifacts[i + 1..] {
            check_pair(a, b, &mut out);
        }
    }
    out
}

fn check_pair(a: &ArtifactInfo, b: &ArtifactInfo, out: &mut Vec<Diagnostic>) {
    // Layout fingerprints are compared gauge-masked: a telemetry snapshot
    // can only ever report the 53-bit gauge projection (JSON numbers are
    // IEEE doubles), and masking both sides keeps every pair comparable
    // under one rule.
    if let (Some(fa), Some(fb)) = (a.layout_fingerprint, b.layout_fingerprint) {
        if fingerprint::gauge_value(fa) != fingerprint::gauge_value(fb) {
            out.push(Diagnostic::new(
                DiagnosticCode::ArtifactLayoutMismatch,
                format!(
                    "{} ({}) and {} ({}) disagree about the bit layout \
                     (fingerprints {:016x} vs {:016x}): they were produced \
                     against different sensor complements",
                    a.name, a.kind, b.name, b.kind, fa, fb
                ),
            ));
        }
    }
    if let (Some(fa), Some(fb)) = (a.config_fingerprint, b.config_fingerprint) {
        if fa != fb {
            out.push(Diagnostic::new(
                DiagnosticCode::ArtifactConfigMismatch,
                format!(
                    "{} ({}) and {} ({}) disagree about the configuration \
                     (fingerprints {:016x} vs {:016x}): window, thresholds, \
                     or identification limits drifted",
                    a.name, a.kind, b.name, b.kind, fa, fb
                ),
            ));
        }
    }
    if let (Some(fa), Some(fb)) = (a.threshold_fingerprint, b.threshold_fingerprint) {
        if fa != fb {
            out.push(Diagnostic::new(
                DiagnosticCode::ArtifactThresholdMismatch,
                format!(
                    "{} ({}) and {} ({}) disagree about the trained numeric \
                     thresholds (fingerprints {:016x} vs {:016x}): one was \
                     retrained without the other",
                    a.name, a.kind, b.name, b.kind, fa, fb
                ),
            ));
        }
    }
}

fn unreadable(name: &str, why: &str) -> Diagnostic {
    Diagnostic::new(
        DiagnosticCode::ArtifactUnreadable,
        format!("artifact {name}: {why}"),
    )
}

fn read_model_artifact(name: &str, bytes: &[u8]) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    match read_model_unverified(bytes) {
        Ok(model) => {
            let mut info = ArtifactInfo::new(name, ArtifactKind::Model);
            info.layout_fingerprint = Some(model.layout().fingerprint());
            info.config_fingerprint = Some(model.config().fingerprint());
            info.threshold_fingerprint = Some(model.binarizer().thresholds().fingerprint());
            (Some(info), Vec::new())
        }
        Err(e) => (
            None,
            vec![unreadable(name, &format!("model container: {e}"))],
        ),
    }
}

fn read_config_artifact(name: &str, text: &str) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    match parse_config_text(text) {
        Ok(config) => {
            let mut info = ArtifactInfo::new(name, ArtifactKind::Config);
            info.config_fingerprint = Some(config.fingerprint());
            (Some(info), Vec::new())
        }
        Err(e) => (None, vec![unreadable(name, &format!("config file: {e}"))]),
    }
}

fn read_trace_artifact(name: &str, header_line: &str) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    // Only the header matters for compatibility; parsing just that line
    // keeps this O(1) in the trace length.
    match parse_trace_jsonl(header_line) {
        Ok(log) => {
            let mut info = ArtifactInfo::new(name, ArtifactKind::Trace);
            info.layout_fingerprint = Some(log.header.layout_fingerprint());
            (Some(info), Vec::new())
        }
        Err(e) => (None, vec![unreadable(name, &format!("trace header: {e}"))]),
    }
}

fn read_telemetry_artifact(name: &str, text: &str) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    match snapshot_gauge_json(text, LAYOUT_FINGERPRINT_GAUGE) {
        Ok(Some(gauge)) if gauge != 0 => {
            let mut info = ArtifactInfo::new(name, ArtifactKind::Telemetry);
            #[allow(clippy::cast_sign_loss)]
            {
                info.layout_fingerprint = Some(gauge as u64);
            }
            (Some(info), Vec::new())
        }
        Ok(_) => {
            // Gauge absent or still zero: the snapshot predates the gauge
            // or no engine ever ran, so the snapshot pins nothing.
            let info = ArtifactInfo::new(name, ArtifactKind::Telemetry);
            (
                Some(info),
                vec![Diagnostic::new(
                    DiagnosticCode::ArtifactFingerprintUnavailable,
                    format!(
                        "artifact {name}: telemetry snapshot carries no \
                         {LAYOUT_FINGERPRINT_GAUGE} value (no engine ran \
                         while recording), so layout compatibility cannot \
                         be checked against it"
                    ),
                )],
            )
        }
        Err(e) => (
            None,
            vec![unreadable(name, &format!("telemetry snapshot: {e}"))],
        ),
    }
}

fn read_dataset_artifact(spec: &str, dataset: &str) -> (Option<ArtifactInfo>, Vec<Diagnostic>) {
    match DatasetId::parse(dataset) {
        Some(id) => {
            let scenario = id.scenario(DATASET_FINGERPRINT_SEED);
            let layout = BitLayout::for_registry(&scenario.registry);
            let mut info = ArtifactInfo::new(spec, ArtifactKind::Dataset);
            info.layout_fingerprint = Some(layout.fingerprint());
            (Some(info), Vec::new())
        }
        None => (
            None,
            vec![unreadable(
                spec,
                &format!("unknown dataset {dataset:?}; expected a Table 4.1 name like hh102"),
            )],
        ),
    }
}

fn line_is_kind(line: &str, kind: &str) -> bool {
    match json_parse(line) {
        Ok(value) => kind_field(&value) == Some(kind),
        Err(_) => false,
    }
}

fn document_is_kind(text: &str, kind: &str) -> bool {
    match json_parse(text) {
        Ok(value) => kind_field(&value) == Some(kind),
        Err(_) => false,
    }
}

fn kind_field(value: &Value) -> Option<&str> {
    value.as_obj()?.get("kind")?.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::{write_model, ContextExtractor};
    use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};

    fn trained_model() -> dice_core::DiceModel {
        let mut reg = DeviceRegistry::new();
        let m = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let t = reg.add_sensor(SensorKind::Temperature, "t", Room::Kitchen);
        let mut log = EventLog::new();
        for minute in 0..120 {
            log.push_sensor(SensorReading::new(
                m,
                Timestamp::from_mins(minute),
                (minute % 2 == 0).into(),
            ));
            log.push_sensor(SensorReading::new(
                t,
                Timestamp::from_mins(minute),
                dice_types::SensorValue::Numeric((18 + (minute % 3)) as f64),
            ));
        }
        ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .expect("training succeeds")
    }

    #[test]
    fn config_text_round_trips() {
        let config = DiceConfig::builder()
            .window(TimeDelta::from_mins(2))
            .max_faults(2)
            .num_thre(3)
            .candidate_distance(4)
            .min_row_support(7)
            .build();
        let text = write_config_text(&config);
        let back = parse_config_text(&text).expect("round trip");
        assert_eq!(back, config);
        assert_eq!(back.fingerprint(), config.fingerprint());
    }

    #[test]
    fn config_text_rejects_damage() {
        assert!(parse_config_text("").is_err());
        assert!(parse_config_text("not a config").is_err());
        assert!(parse_config_text("dice-config v1\nwat = 1").is_err());
        assert!(parse_config_text("dice-config v1\nmax_faults = 0").is_err());
        assert!(parse_config_text("dice-config v1\nmax_faults = banana").is_err());
        assert!(parse_config_text("dice-config v1\nnum_thre = 1\nnum_thre = 2").is_err());
    }

    #[test]
    fn model_artifact_carries_all_three_facets() {
        let model = trained_model();
        let mut bytes = Vec::new();
        write_model(&model, &mut bytes).expect("serialize");
        let (info, findings) = read_artifact_bytes("m.bin", &bytes);
        let info = info.expect("model readable");
        assert!(findings.is_empty());
        assert_eq!(info.kind, ArtifactKind::Model);
        assert_eq!(info.layout_fingerprint, Some(model.layout().fingerprint()));
        assert_eq!(info.config_fingerprint, Some(model.config().fingerprint()));
        assert!(info.threshold_fingerprint.is_some());
    }

    #[test]
    fn matching_artifacts_are_clean_and_mismatches_flagged() {
        let model = trained_model();
        let mut bytes = Vec::new();
        write_model(&model, &mut bytes).expect("serialize");
        let (model_info, _) = read_artifact_bytes("m.bin", &bytes);
        let config_text = write_config_text(model.config());
        let (config_info, _) = read_artifact_bytes("c.txt", config_text.as_bytes());
        let mut header_line = String::new();
        dice_core::write_header_line(
            &mut header_line,
            &dice_core::TraceHeader::from_layout(model.layout()),
        );
        let (trace_info, _) = read_artifact_bytes("t.jsonl", header_line.as_bytes());
        let clean = [
            model_info.expect("model"),
            config_info.expect("config"),
            trace_info.expect("trace"),
        ];
        assert!(check_artifacts(&clean).is_empty());

        // Drift the config: exactly one DV191, no layout/threshold noise.
        let drifted = write_config_text(&DiceConfig::builder().max_faults(3).build());
        let (bad_config, _) = read_artifact_bytes("c2.txt", drifted.as_bytes());
        let mixed = [clean[0].clone(), bad_config.expect("config")];
        let findings = check_artifacts(&mixed);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code(), DiagnosticCode::ArtifactConfigMismatch);
    }

    #[test]
    fn garbage_bytes_are_dv193() {
        let (info, findings) = read_artifact_bytes("junk", &[0xff, 0xfe, 0x00, 0x01]);
        assert!(info.is_none());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code(), DiagnosticCode::ArtifactUnreadable);
    }

    #[test]
    fn unknown_dataset_is_dv193_and_known_dataset_fingerprints() {
        let (info, findings) = read_artifact("dataset:atlantis");
        assert!(info.is_none());
        assert_eq!(findings[0].code(), DiagnosticCode::ArtifactUnreadable);

        let (info, findings) = read_artifact("dataset:houseA");
        let info = info.expect("catalog entry resolves");
        assert!(findings.is_empty());
        assert_eq!(info.kind, ArtifactKind::Dataset);
        assert!(info.layout_fingerprint.is_some());
        assert!(info.config_fingerprint.is_none());
    }

    #[test]
    fn snapshot_without_gauge_is_dv194() {
        let telemetry = dice_telemetry::Telemetry::recording();
        let snapshot = telemetry.snapshot().expect("recording");
        let (info, findings) = read_artifact_bytes("snap.json", snapshot.to_json().as_bytes());
        let info = info.expect("snapshot readable");
        assert_eq!(info.kind, ArtifactKind::Telemetry);
        assert!(info.layout_fingerprint.is_none());
        assert_eq!(
            findings[0].code(),
            DiagnosticCode::ArtifactFingerprintUnavailable
        );
    }

    #[test]
    fn snapshot_with_gauge_matches_model_layout() {
        let model = trained_model();
        let telemetry = dice_telemetry::Telemetry::recording();
        telemetry
            .recorder()
            .expect("recording")
            .metrics
            .engine
            .model_layout_fingerprint
            .set(fingerprint::gauge_value(model.layout().fingerprint()));
        let snapshot = telemetry.snapshot().expect("recording");
        let (snap_info, findings) = read_artifact_bytes("snap.json", snapshot.to_json().as_bytes());
        assert!(findings.is_empty());
        let mut bytes = Vec::new();
        write_model(&model, &mut bytes).expect("serialize");
        let (model_info, _) = read_artifact_bytes("m.bin", &bytes);
        let pair = [model_info.expect("model"), snap_info.expect("snapshot")];
        assert!(check_artifacts(&pair).is_empty());
    }
}
