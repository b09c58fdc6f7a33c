//! Exporters: a schema-versioned JSON snapshot and a Prometheus-style text
//! exposition, plus the snapshot validator used by CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::DiceMetrics;
use crate::json::{self, Value};
use crate::registry::{MetricKind, Registry};
use crate::ring::{EventRing, TelemetryEvent};

/// The JSON snapshot schema version. Bump when keys change shape.
/// Schema 2 added the `sketches` and `families` sections; schema 3 added
/// `sketch_families`; schema 4 dropped the fixed-bucket section, every
/// distribution now being a sketch; schema 5 dropped the bit-sliced scan's
/// block counters and backend gauge; schema 6 dropped the fleet's batched
/// scan counter.
pub const SNAPSHOT_SCHEMA: u32 = 6;

/// Whether `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// The `kind` discriminator every snapshot carries.
pub const SNAPSHOT_KIND: &str = "dice-telemetry-snapshot";

/// A point-in-time copy of a registry and event ring, decoupled from the
/// live atomics so both exporters render identical numbers.
#[derive(Debug, Clone)]
pub struct Snapshot {
    counters: Vec<CounterRow>,
    gauges: Vec<GaugeRow>,
    sketches: Vec<SketchRow>,
    families: Vec<FamilyRow>,
    sketch_families: Vec<SketchFamilyRow>,
    events: Vec<TelemetryEvent>,
    dropped_events: u64,
}

#[derive(Debug, Clone)]
struct CounterRow {
    name: &'static str,
    help: &'static str,
    value: u64,
}

#[derive(Debug, Clone)]
struct GaugeRow {
    name: &'static str,
    help: &'static str,
    value: i64,
}

#[derive(Debug, Clone)]
struct SketchRow {
    name: &'static str,
    help: &'static str,
    unit: &'static str,
    count: u64,
    sum: u64,
    /// (p50, p95, p99) estimates; zeros when the sketch is empty.
    p50: u64,
    p95: u64,
    p99: u64,
}

#[derive(Debug, Clone)]
struct FamilyRow {
    name: &'static str,
    help: &'static str,
    /// `"counter"` or `"gauge"` — the child kind.
    kind: &'static str,
    labels: Vec<&'static str>,
    /// One row per child: label values in label order, then the value
    /// (`i128` holds both counter `u64` and gauge `i64` exactly).
    series: Vec<(Vec<String>, i128)>,
}

#[derive(Debug, Clone)]
struct SketchFamilyRow {
    name: &'static str,
    help: &'static str,
    unit: &'static str,
    labels: Vec<&'static str>,
    series: Vec<SketchFamilyChild>,
}

/// One child of a labeled quantile-sketch family in a snapshot: its label
/// values and distribution summary.
#[derive(Debug, Clone)]
pub struct SketchFamilyChild {
    /// Label values in label order.
    pub values: Vec<String>,
    /// Samples recorded into this child.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// p50 estimate; 0 when the child is empty.
    pub p50: u64,
    /// p95 estimate; 0 when the child is empty.
    pub p95: u64,
    /// p99 estimate; 0 when the child is empty.
    pub p99: u64,
}

impl Snapshot {
    /// Captures every metric in `registry` and the retained `events`.
    pub fn collect(registry: &Registry, events: &EventRing) -> Self {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut sketches = Vec::new();
        let mut families = Vec::new();
        let mut sketch_families = Vec::new();
        for entry in registry.entries() {
            match entry.kind() {
                MetricKind::Counter => {
                    let counter = entry.as_counter().expect("kind checked");
                    counters.push(CounterRow {
                        name: entry.name,
                        help: entry.help,
                        value: counter.get(),
                    });
                }
                MetricKind::Gauge => {
                    let gauge = entry.as_gauge().expect("kind checked");
                    gauges.push(GaugeRow {
                        name: entry.name,
                        help: entry.help,
                        value: gauge.get(),
                    });
                }
                MetricKind::Sketch => {
                    let sketch = entry.as_sketch().expect("kind checked");
                    let (p50, p95, p99) = sketch.percentiles().unwrap_or((0, 0, 0));
                    sketches.push(SketchRow {
                        name: entry.name,
                        help: entry.help,
                        unit: entry.unit,
                        count: sketch.count(),
                        sum: sketch.sum(),
                        p50,
                        p95,
                        p99,
                    });
                }
                MetricKind::CounterFamily => {
                    let family = entry.as_counter_family().expect("kind checked");
                    families.push(FamilyRow {
                        name: entry.name,
                        help: entry.help,
                        kind: "counter",
                        labels: family.label_names().to_vec(),
                        series: family
                            .children()
                            .into_iter()
                            .map(|(values, child)| (values, i128::from(child.get())))
                            .collect(),
                    });
                }
                MetricKind::GaugeFamily => {
                    let family = entry.as_gauge_family().expect("kind checked");
                    families.push(FamilyRow {
                        name: entry.name,
                        help: entry.help,
                        kind: "gauge",
                        labels: family.label_names().to_vec(),
                        series: family
                            .children()
                            .into_iter()
                            .map(|(values, child)| (values, i128::from(child.get())))
                            .collect(),
                    });
                }
                MetricKind::SketchFamily => {
                    let family = entry.as_sketch_family().expect("kind checked");
                    sketch_families.push(SketchFamilyRow {
                        name: entry.name,
                        help: entry.help,
                        unit: entry.unit,
                        labels: family.label_names().to_vec(),
                        series: family
                            .children()
                            .into_iter()
                            .map(|(values, child)| {
                                let (p50, p95, p99) = child.percentiles().unwrap_or((0, 0, 0));
                                SketchFamilyChild {
                                    values,
                                    count: child.count(),
                                    sum: child.sum(),
                                    p50,
                                    p95,
                                    p99,
                                }
                            })
                            .collect(),
                    });
                }
            }
        }
        Snapshot {
            counters,
            gauges,
            sketches,
            families,
            sketch_families,
            events: events.snapshot(),
            dropped_events: events.dropped(),
        }
    }

    /// The value of a counter by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of a gauge by name, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The (count, sum) of a quantile sketch by name, if present.
    pub fn sketch(&self, name: &str) -> Option<(u64, u64)> {
        self.sketches
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.count, s.sum))
    }

    /// The (p50, p95, p99) estimates of a quantile sketch by name; `None`
    /// when the sketch is absent or empty.
    pub fn sketch_percentiles(&self, name: &str) -> Option<(u64, u64, u64)> {
        self.sketches
            .iter()
            .find(|s| s.name == name && s.count > 0)
            .map(|s| (s.p50, s.p95, s.p99))
    }

    /// The value of one family child by name and label values, if present.
    pub fn family_value(&self, name: &str, label_values: &[&str]) -> Option<i128> {
        self.families.iter().find(|f| f.name == name).and_then(|f| {
            f.series
                .iter()
                .find(|(values, _)| {
                    values
                        .iter()
                        .map(String::as_str)
                        .eq(label_values.iter().copied())
                })
                .map(|&(_, value)| value)
        })
    }

    /// Every child of one family by name — label values and value per
    /// child, in sorted label order. `None` when the family is absent.
    pub fn family_series(&self, name: &str) -> Option<&[(Vec<String>, i128)]> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.series.as_slice())
    }

    /// Every child of one quantile-sketch family by name, in sorted label
    /// order. `None` when the family is absent.
    pub fn sketch_family(&self, name: &str) -> Option<&[SketchFamilyChild]> {
        self.sketch_families
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.series.as_slice())
    }

    /// Retained events captured with the snapshot.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Events dropped by ring wraparound before the snapshot.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Renders the schema-versioned JSON snapshot document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {SNAPSHOT_SCHEMA},");
        let _ = writeln!(out, "  \"kind\": \"{SNAPSHOT_KIND}\",");
        out.push_str("  \"counters\": {\n");
        for (i, row) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {}{comma}", row.name, row.value);
        }
        out.push_str("  },\n");
        out.push_str("  \"gauges\": {\n");
        for (i, row) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {}{comma}", row.name, row.value);
        }
        out.push_str("  },\n");
        out.push_str("  \"sketches\": {\n");
        for (i, row) in self.sketches.iter().enumerate() {
            let comma = if i + 1 < self.sketches.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"unit\": \"{}\", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{comma}",
                row.name,
                json::escape(row.unit),
                row.count,
                row.sum,
                row.p50,
                row.p95,
                row.p99
            );
        }
        out.push_str("  },\n");
        out.push_str("  \"families\": {\n");
        for (i, row) in self.families.iter().enumerate() {
            let _ = writeln!(out, "    \"{}\": {{", row.name);
            let _ = writeln!(out, "      \"kind\": \"{}\",", row.kind);
            out.push_str("      \"labels\": [");
            for (j, label) in row.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", json::escape(label));
            }
            out.push_str("],\n");
            out.push_str("      \"series\": [");
            for (j, (values, value)) in row.series.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"values\": [");
                for (k, v) in values.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\"", json::escape(v));
                }
                let _ = write!(out, "], \"value\": {value}}}");
            }
            out.push_str("]\n");
            let comma = if i + 1 < self.families.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  },\n");
        out.push_str("  \"sketch_families\": {\n");
        for (i, row) in self.sketch_families.iter().enumerate() {
            let _ = writeln!(out, "    \"{}\": {{", row.name);
            let _ = writeln!(out, "      \"unit\": \"{}\",", json::escape(row.unit));
            out.push_str("      \"labels\": [");
            for (j, label) in row.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", json::escape(label));
            }
            out.push_str("],\n");
            out.push_str("      \"series\": [");
            for (j, child) in row.series.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"values\": [");
                for (k, v) in child.values.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\"", json::escape(v));
                }
                let _ = write!(
                    out,
                    "], \"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    child.count, child.sum, child.p50, child.p95, child.p99
                );
            }
            out.push_str("]\n");
            let comma = if i + 1 < self.sketch_families.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  },\n");
        let _ = writeln!(out, "  \"dropped_events\": {},", self.dropped_events);
        out.push_str("  \"events\": [\n");
        for (i, event) in self.events.iter().enumerate() {
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"seq\": {}, \"kind\": \"{}\", \"message\": \"{}\"}}{comma}",
                event.seq,
                json::escape(event.kind),
                json::escape(&event.message)
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Sketches render as summaries: `{quantile="0.5"|"0.95"|"0.99"}`
    /// estimates (omitted while empty) plus the `_sum` / `_count` pair.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for row in &self.counters {
            let _ = writeln!(out, "# HELP {} {}", row.name, row.help);
            let _ = writeln!(out, "# TYPE {} counter", row.name);
            let _ = writeln!(out, "{} {}", row.name, row.value);
        }
        for row in &self.gauges {
            let _ = writeln!(out, "# HELP {} {}", row.name, row.help);
            let _ = writeln!(out, "# TYPE {} gauge", row.name);
            let _ = writeln!(out, "{} {}", row.name, row.value);
        }
        for row in &self.sketches {
            let _ = writeln!(out, "# HELP {} {}", row.name, row.help);
            let _ = writeln!(out, "# TYPE {} summary", row.name);
            if row.count > 0 {
                for (q, v) in [("0.5", row.p50), ("0.95", row.p95), ("0.99", row.p99)] {
                    let _ = writeln!(out, "{}{{quantile=\"{q}\"}} {v}", row.name);
                }
            }
            let _ = writeln!(out, "{}_sum {}", row.name, row.sum);
            let _ = writeln!(out, "{}_count {}", row.name, row.count);
        }
        for row in &self.families {
            let _ = writeln!(out, "# HELP {} {}", row.name, row.help);
            let _ = writeln!(out, "# TYPE {} {}", row.name, row.kind);
            for (values, value) in &row.series {
                let _ = write!(out, "{}{{", row.name);
                for (i, (label, v)) in row.labels.iter().zip(values).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{label}=\"{}\"", escape_label_value(v));
                }
                let _ = writeln!(out, "}} {value}");
            }
        }
        for row in &self.sketch_families {
            let _ = writeln!(out, "# HELP {} {}", row.name, row.help);
            let _ = writeln!(out, "# TYPE {} summary", row.name);
            for child in &row.series {
                let mut label_pairs = String::new();
                for (i, (label, v)) in row.labels.iter().zip(&child.values).enumerate() {
                    if i > 0 {
                        label_pairs.push(',');
                    }
                    let _ = write!(label_pairs, "{label}=\"{}\"", escape_label_value(v));
                }
                if child.count > 0 {
                    for (q, v) in [("0.5", child.p50), ("0.95", child.p95), ("0.99", child.p99)] {
                        let _ = writeln!(out, "{}{{{label_pairs},quantile=\"{q}\"}} {v}", row.name);
                    }
                }
                let _ = writeln!(out, "{}_sum{{{label_pairs}}} {}", row.name, child.sum);
                let _ = writeln!(out, "{}_count{{{label_pairs}}} {}", row.name, child.count);
            }
        }
        out
    }
}

/// Validates a JSON snapshot document against the documented schema:
/// schema version, kind discriminator, the metric sections, and presence of
/// every metric in the [`DiceMetrics`] catalog with well-formed sketch and
/// family rows.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn validate_snapshot_json(document: &str) -> Result<(), String> {
    let value = json::parse(document).map_err(|e| e.to_string())?;
    let root = value.as_obj().ok_or("snapshot root must be an object")?;

    let schema = root
        .get("schema")
        .and_then(Value::as_num)
        .ok_or("missing numeric \"schema\"")?;
    if schema as u32 != SNAPSHOT_SCHEMA {
        return Err(format!(
            "schema version {schema} != expected {SNAPSHOT_SCHEMA}"
        ));
    }
    if root.get("kind").and_then(Value::as_str) != Some(SNAPSHOT_KIND) {
        return Err(format!(
            "missing or wrong \"kind\" (want {SNAPSHOT_KIND:?})"
        ));
    }

    let counters = section(root, "counters")?;
    let gauges = section(root, "gauges")?;
    let sketches = section(root, "sketches")?;
    let families = section(root, "families")?;
    let sketch_families = section(root, "sketch_families")?;
    root.get("events")
        .and_then(Value::as_arr)
        .ok_or("missing \"events\" array")?;
    root.get("dropped_events")
        .and_then(Value::as_num)
        .ok_or("missing numeric \"dropped_events\"")?;

    // Every catalog metric must be present under its kind's section.
    let reference = Registry::new();
    let _ = DiceMetrics::register(&reference);
    for entry in reference.entries() {
        let (map, label) = match entry.kind() {
            MetricKind::Counter => (counters, "counters"),
            MetricKind::Gauge => (gauges, "gauges"),
            MetricKind::Sketch => (sketches, "sketches"),
            MetricKind::CounterFamily | MetricKind::GaugeFamily => (families, "families"),
            MetricKind::SketchFamily => (sketch_families, "sketch_families"),
        };
        if !map.contains_key(entry.name) {
            return Err(format!(
                "catalog metric {:?} missing from {label}",
                entry.name
            ));
        }
    }

    for (name, sketch) in sketches {
        for key in ["count", "sum", "p50", "p95", "p99"] {
            sketch
                .get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("sketch {name:?} missing numeric {key:?}"))?;
        }
    }
    for (name, family) in families {
        let labels = family
            .get("labels")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("family {name:?} missing labels"))?;
        match family.get("kind").and_then(Value::as_str) {
            Some("counter" | "gauge") => {}
            _ => return Err(format!("family {name:?} kind must be counter or gauge")),
        }
        let series = family
            .get("series")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("family {name:?} missing series"))?;
        for child in series {
            let values = child
                .get("values")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("family {name:?} child missing values"))?;
            if values.len() != labels.len() {
                return Err(format!(
                    "family {name:?} child has {} label value(s), want {}",
                    values.len(),
                    labels.len()
                ));
            }
            child
                .get("value")
                .and_then(Value::as_num)
                .ok_or_else(|| format!("family {name:?} child missing value"))?;
        }
    }
    for (name, family) in sketch_families {
        let labels = family
            .get("labels")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("sketch family {name:?} missing labels"))?;
        let series = family
            .get("series")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("sketch family {name:?} missing series"))?;
        for child in series {
            let values = child
                .get("values")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("sketch family {name:?} child missing values"))?;
            if values.len() != labels.len() {
                return Err(format!(
                    "sketch family {name:?} child has {} label value(s), want {}",
                    values.len(),
                    labels.len()
                ));
            }
            for key in ["count", "sum", "p50", "p95", "p99"] {
                child.get(key).and_then(Value::as_num).ok_or_else(|| {
                    format!("sketch family {name:?} child missing numeric {key:?}")
                })?;
            }
        }
    }

    Ok(())
}

/// Reads one gauge value back out of an exported JSON snapshot document.
///
/// Returns `Ok(None)` when the document is a valid snapshot but the gauge
/// is absent (e.g. a snapshot exported by an older build). Used by
/// `dice-lint` to recover the model layout fingerprint from a snapshot.
///
/// # Errors
///
/// Returns a description of the problem when the document is not a
/// snapshot at all.
pub fn snapshot_gauge_json(document: &str, name: &str) -> Result<Option<i64>, String> {
    let value = json::parse(document).map_err(|e| e.to_string())?;
    let root = value.as_obj().ok_or("snapshot root must be an object")?;
    if root.get("kind").and_then(Value::as_str) != Some(SNAPSHOT_KIND) {
        return Err(format!(
            "missing or wrong \"kind\" (want {SNAPSHOT_KIND:?})"
        ));
    }
    let gauges = section(root, "gauges")?;
    Ok(gauges.get(name).and_then(Value::as_num).map(|v| v as i64))
}

fn section<'a>(
    root: &'a BTreeMap<String, Value>,
    name: &str,
) -> Result<&'a BTreeMap<String, Value>, String> {
    root.get(name)
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("missing {name:?} object"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Registry, EventRing) {
        let registry = Registry::new();
        let metrics = DiceMetrics::register(&registry);
        metrics.engine.windows_total.add(42);
        metrics.engine.correlation_violations_total.add(3);
        metrics.gateway.channel_depth.set_max(9);
        metrics.engine.correlation_check_ns.record(5_000);
        metrics.engine.correlation_check_ns.record(9_000_000_000);
        for v in [10_000u64, 20_000, 800_000] {
            metrics.engine.detection_ns.record(v);
        }
        metrics
            .gateway
            .home_windows_total
            .with_label_values(&["h0"])
            .add(7);
        metrics
            .gateway
            .shard_depth
            .with_label_values(&["0"])
            .set_max(5);
        for v in [2_000u64, 3_000, 40_000] {
            metrics
                .fleet
                .stage_scan_ns
                .with_label_values(&["s0"])
                .record(v);
        }
        let events = EventRing::new(8);
        events.push("fault_report", "devices {3} window 17 \"quoted\"");
        (registry, events)
    }

    #[test]
    fn json_snapshot_validates_and_round_trips() {
        let (registry, events) = sample();
        let snapshot = Snapshot::collect(&registry, &events);
        let doc = snapshot.to_json();
        validate_snapshot_json(&doc).unwrap();

        let parsed = json::parse(&doc).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("dice_engine_windows_total")
                .unwrap()
                .as_num(),
            Some(42.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("dice_gateway_channel_depth")
                .unwrap()
                .as_num(),
            Some(9.0)
        );
        let corr = parsed
            .get("sketches")
            .unwrap()
            .get("dice_engine_correlation_check_ns")
            .unwrap();
        assert_eq!(corr.get("count").unwrap().as_num(), Some(2.0));
        assert_eq!(corr.get("sum").unwrap().as_num(), Some(9_000_005_000.0));
        // The 9 s outlier is the p99, within the sketch's error bound.
        let p99 = corr.get("p99").unwrap().as_num().unwrap();
        assert!((9e9..=9e9 * (1.0 + crate::SKETCH_RELATIVE_ERROR)).contains(&p99));
        let event = &parsed.get("events").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            event.get("message").unwrap().as_str(),
            Some("devices {3} window 17 \"quoted\"")
        );
        let sketch = parsed
            .get("sketches")
            .unwrap()
            .get("dice_engine_detection_ns")
            .unwrap();
        assert_eq!(sketch.get("count").unwrap().as_num(), Some(3.0));
        assert!(sketch.get("p99").unwrap().as_num().unwrap() >= 800_000.0);
        let family = parsed
            .get("families")
            .unwrap()
            .get("dice_gateway_home_windows_total")
            .unwrap();
        assert_eq!(family.get("kind").unwrap().as_str(), Some("counter"));
        let child = &family.get("series").unwrap().as_arr().unwrap()[0];
        assert_eq!(child.get("value").unwrap().as_num(), Some(7.0));
        let stage = parsed
            .get("sketch_families")
            .unwrap()
            .get("dice_fleet_stage_scan_ns")
            .unwrap();
        let child = &stage.get("series").unwrap().as_arr().unwrap()[0];
        assert_eq!(child.get("count").unwrap().as_num(), Some(3.0));
        assert!(child.get("p99").unwrap().as_num().unwrap() >= 40_000.0);
    }

    #[test]
    fn prometheus_exposition_matches_snapshot() {
        let (registry, events) = sample();
        let snapshot = Snapshot::collect(&registry, &events);
        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE dice_engine_windows_total counter"));
        assert!(text.contains("dice_engine_windows_total 42"));
        assert!(text.contains("# TYPE dice_gateway_channel_depth gauge"));
        assert!(text.contains("dice_gateway_channel_depth 9"));
        assert!(text.contains("# TYPE dice_engine_correlation_check_ns summary"));
        assert!(text.contains("dice_engine_correlation_check_ns_count 2"));
        assert!(text.contains("dice_engine_correlation_check_ns_sum 9000005000"));
        assert!(text.contains("# TYPE dice_engine_detection_ns summary"));
        assert!(text.contains("dice_engine_detection_ns{quantile=\"0.5\"}"));
        assert!(text.contains("dice_engine_detection_ns_count 3"));
        assert!(text.contains("# TYPE dice_gateway_home_windows_total counter"));
        assert!(text.contains("dice_gateway_home_windows_total{home=\"h0\"} 7"));
        assert!(text.contains("dice_gateway_shard_depth{shard=\"0\"} 5"));
        assert!(text.contains("# TYPE dice_fleet_stage_scan_ns summary"));
        assert!(text.contains("dice_fleet_stage_scan_ns{shard=\"s0\",quantile=\"0.5\"}"));
        assert!(text.contains("dice_fleet_stage_scan_ns_count{shard=\"s0\"} 3"));
        // Empty sketches still expose their _sum/_count pair.
        assert!(text.contains("dice_gateway_window_ns_count 0"));
    }

    #[test]
    fn label_values_escape_per_text_format_spec() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("with \"quotes\""), "with \\\"quotes\\\"");
        assert_eq!(escape_label_value("back\\slash"), "back\\\\slash");
        assert_eq!(escape_label_value("line\nfeed"), "line\\nfeed");
        assert_eq!(
            escape_label_value("\\\"\n"),
            "\\\\\\\"\\n",
            "all three escapes compose"
        );

        let registry = Registry::new();
        let family = registry.counter_family("esc_total", "escape test", &["home"]);
        family.with_label_values(&["a\"b\\c\nd"]).inc();
        let snapshot = Snapshot::collect(&registry, &EventRing::new(4));
        let text = snapshot.to_prometheus();
        assert!(
            text.contains("esc_total{home=\"a\\\"b\\\\c\\nd\"} 1"),
            "escaped exposition missing:\n{text}"
        );
        assert!(!text.contains("a\"b"), "raw quote leaked into exposition");
    }

    #[test]
    fn metric_and_label_name_validation() {
        assert!(is_valid_metric_name("dice_engine_windows_total"));
        assert!(is_valid_metric_name("_private:ns"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9leading"));
        assert!(!is_valid_metric_name("has space"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(is_valid_label_name("home"));
        assert!(is_valid_label_name("_shard0"));
        assert!(!is_valid_label_name("with:colon"));
        assert!(!is_valid_label_name(""));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_snapshot_json("not json").is_err());
        assert!(validate_snapshot_json("{}").is_err());
        let wrong_schema = format!(
            "{{\"schema\": 999, \"kind\": \"{SNAPSHOT_KIND}\", \"counters\": {{}}, \
             \"gauges\": {{}}, \"events\": [], \"dropped_events\": 0}}"
        );
        let err = validate_snapshot_json(&wrong_schema).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        let missing_metric = format!(
            "{{\"schema\": {SNAPSHOT_SCHEMA}, \"kind\": \"{SNAPSHOT_KIND}\", \"counters\": {{}}, \
             \"gauges\": {{}}, \"sketches\": {{}}, \"families\": {{}}, \
             \"sketch_families\": {{}}, \"events\": [], \"dropped_events\": 0}}"
        );
        let err = validate_snapshot_json(&missing_metric).unwrap_err();
        assert!(err.contains("missing from"), "{err}");
        let no_sketches = format!(
            "{{\"schema\": {SNAPSHOT_SCHEMA}, \"kind\": \"{SNAPSHOT_KIND}\", \"counters\": {{}}, \
             \"gauges\": {{}}, \"events\": [], \"dropped_events\": 0}}"
        );
        let err = validate_snapshot_json(&no_sketches).unwrap_err();
        assert!(err.contains("sketches"), "{err}");
    }

    #[test]
    fn validator_rejects_schema_3_documents() {
        // A well-formed schema-3 export: every current section plus the
        // retired fixed-bucket one. Only the version tells them apart.
        let (registry, events) = sample();
        let current = Snapshot::collect(&registry, &events).to_json();
        validate_snapshot_json(&current).unwrap();
        let schema_3 = current
            .replacen(
                &format!("\"schema\": {SNAPSHOT_SCHEMA}"),
                "\"schema\": 3",
                1,
            )
            .replacen(
                "\"sketches\": {",
                "\"histograms\": {},\n  \"sketches\": {",
                1,
            );
        let err = validate_snapshot_json(&schema_3).unwrap_err();
        assert!(err.contains("schema version 3"), "{err}");
    }

    #[test]
    fn validator_rejects_schema_4_documents() {
        // A well-formed schema-4 export: every current metric plus the
        // retired scan-block counters and backend gauge. Only the version
        // tells them apart.
        let (registry, events) = sample();
        let current = Snapshot::collect(&registry, &events).to_json();
        validate_snapshot_json(&current).unwrap();
        let schema_4 = current
            .replacen(
                &format!("\"schema\": {SNAPSHOT_SCHEMA}"),
                "\"schema\": 4",
                1,
            )
            .replacen(
                "\"counters\": {\n",
                "\"counters\": {\n    \"dice_engine_scan_blocks_total\": 0,\n    \
                 \"dice_engine_scan_early_stops_total\": 0,\n",
                1,
            )
            .replacen(
                "\"gauges\": {\n",
                "\"gauges\": {\n    \"dice_engine_scan_backend\": 2,\n",
                1,
            );
        let err = validate_snapshot_json(&schema_4).unwrap_err();
        assert!(err.contains("schema version 4"), "{err}");
    }

    #[test]
    fn snapshot_accessors_find_metrics() {
        let (registry, events) = sample();
        let snapshot = Snapshot::collect(&registry, &events);
        assert_eq!(snapshot.counter("dice_engine_windows_total"), Some(42));
        assert_eq!(snapshot.gauge("dice_gateway_channel_depth"), Some(9));
        let (count, sum) = snapshot.sketch("dice_engine_correlation_check_ns").unwrap();
        assert_eq!(count, 2);
        assert_eq!(sum, 9_000_005_000);
        assert_eq!(snapshot.counter("nope"), None);
    }
}
