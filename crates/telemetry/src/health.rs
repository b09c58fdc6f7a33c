//! Declarative health rules over telemetry snapshots.
//!
//! A [`HealthRule`] names one failure mode an operator cares about and a
//! [`RuleCheck`] threshold expressing it over a [`Snapshot`]. Evaluating a
//! rule set yields a [`HealthReport`] — one row per rule with an
//! Ok/Warn/Crit verdict and the observed value — rendered as a greppable
//! text table and hand-rolled JSON, and mirrored into the
//! `dice_health_status` gauge so exported snapshots carry the verdict.
//!
//! Rules carry a `deterministic` flag: rules over wall-clock latencies or
//! load-dependent high-water marks cannot produce byte-stable output under
//! replay, so `monitor --once` evaluates with `deterministic_only` set and
//! those rows render `status: n/a` instead of a verdict.

use crate::export::Snapshot;
use crate::json::escape as json_escape;
use crate::registry::Gauge;

/// A rule verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Within thresholds.
    Ok,
    /// Past the warning threshold.
    Warn,
    /// Past the critical threshold.
    Crit,
}

impl HealthStatus {
    /// The lower-case label used in text and JSON renders.
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Warn => "warn",
            HealthStatus::Crit => "crit",
        }
    }

    /// The gauge encoding (0 ok, 1 warn, 2 crit).
    pub fn code(self) -> i64 {
        match self {
            HealthStatus::Ok => 0,
            HealthStatus::Warn => 1,
            HealthStatus::Crit => 2,
        }
    }
}

/// The threshold check backing one rule.
#[derive(Debug, Clone)]
pub enum RuleCheck {
    /// Event-ring eviction rate `dropped / (dropped + retained)` rising
    /// past the thresholds.
    EventRingDropRate {
        /// Warn at or above this rate.
        warn: f64,
        /// Crit at or above this rate.
        crit: f64,
    },
    /// A gauge rising past the thresholds.
    GaugeAbove {
        /// The gauge name.
        name: &'static str,
        /// Warn at or above this value.
        warn: i64,
        /// Crit at or above this value.
        crit: i64,
    },
    /// A sketch's p99 estimate rising past the thresholds.
    SketchP99Above {
        /// The sketch name.
        name: &'static str,
        /// Warn at or above this p99.
        warn: u64,
        /// Crit at or above this p99.
        crit: u64,
    },
    /// The straggler detector over a quantile-sketch family: any child
    /// whose p99 strays past `ratio_*` times the **median** p99 of its
    /// siblings (a slow shard shows up against the fleet, not against an
    /// absolute bound that would mis-grade every deployment differently).
    SketchFamilyStragglerP99 {
        /// The sketch-family name.
        name: &'static str,
        /// Warn at or above this multiple of the median p99.
        ratio_warn: f64,
        /// Crit at or above this multiple of the median p99.
        ratio_crit: f64,
        /// Children with fewer samples than this are not judged.
        min_count: u64,
    },
    /// The straggler detector over a gauge family: any child rising past
    /// `ratio_*` times the median of its siblings, once the median itself
    /// clears an absolute floor (idle fleets with near-zero medians are
    /// never judged).
    GaugeFamilyStragglerAbove {
        /// The gauge-family name.
        name: &'static str,
        /// Warn at or above this multiple of the median.
        ratio_warn: f64,
        /// Crit at or above this multiple of the median.
        ratio_crit: f64,
        /// Below this median the rule reports Ok instead of judging noise.
        min_median: f64,
    },
}

/// One named health rule.
#[derive(Debug, Clone)]
pub struct HealthRule {
    /// Stable snake_case identifier (the text table's row key).
    pub id: &'static str,
    /// One-line operator-facing description.
    pub help: &'static str,
    /// Whether the rule's verdict is reproducible under deterministic
    /// replay (no wall-clock, no load-dependent inputs).
    pub deterministic: bool,
    /// The threshold check.
    pub check: RuleCheck,
}

/// One evaluated row of a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct RuleOutcome {
    /// The rule's identifier.
    pub id: &'static str,
    /// The rule's description.
    pub help: &'static str,
    /// The verdict, or `None` when skipped as non-deterministic.
    pub status: Option<HealthStatus>,
    /// Deterministic human-readable observed value.
    pub observed: String,
}

/// The result of evaluating a rule set against one snapshot.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// One row per rule, in rule order.
    pub rows: Vec<RuleOutcome>,
    /// The worst applicable verdict (Ok when every row was skipped).
    pub overall: HealthStatus,
}

/// The standard DICE rule set, thresholds tuned to stay green on a healthy
/// replayed segment.
pub fn standard_rules() -> Vec<HealthRule> {
    vec![
        HealthRule {
            id: "event_ring_drop_rate",
            help: "telemetry events evicted before export",
            deterministic: true,
            check: RuleCheck::EventRingDropRate {
                warn: 0.01,
                crit: 0.25,
            },
        },
        HealthRule {
            id: "channel_depth_high_water",
            help: "aggregator channels close to capacity at a window close",
            deterministic: false,
            check: RuleCheck::GaugeAbove {
                name: "dice_gateway_channel_depth",
                warn: 192,
                crit: 249,
            },
        },
        HealthRule {
            id: "detection_p99",
            help: "whole-window detection latency tail",
            deterministic: false,
            check: RuleCheck::SketchP99Above {
                name: "dice_engine_detection_ns",
                warn: 10_000_000,
                crit: 100_000_000,
            },
        },
        HealthRule {
            id: "telemetry_overhead",
            help: "time-series sweep cost per sample",
            deterministic: false,
            check: RuleCheck::GaugeAbove {
                name: "dice_timeseries_last_sample_ns",
                warn: 5_000_000,
                crit: 50_000_000,
            },
        },
        HealthRule {
            id: "fleet_stage_straggler",
            help: "one shard's queue-wait p99 far above the fleet median",
            deterministic: false,
            check: RuleCheck::SketchFamilyStragglerP99 {
                name: "dice_fleet_stage_queue_wait_ns",
                ratio_warn: 4.0,
                ratio_crit: 16.0,
                min_count: 8,
            },
        },
        HealthRule {
            id: "fleet_shard_depth_straggler",
            help: "one shard's queue depth far above the fleet median",
            deterministic: false,
            check: RuleCheck::GaugeFamilyStragglerAbove {
                name: "dice_fleet_shard_depth",
                ratio_warn: 4.0,
                ratio_crit: 8.0,
                min_median: 2.0,
            },
        },
    ]
}

fn grade_above_f64(value: f64, warn: f64, crit: f64) -> HealthStatus {
    if value >= crit {
        HealthStatus::Crit
    } else if value >= warn {
        HealthStatus::Warn
    } else {
        HealthStatus::Ok
    }
}

/// The median of `values` (mean of the middle pair for even sizes).
/// Returns 0 for an empty slice.
fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        f64::midpoint(values[mid - 1], values[mid])
    }
}

fn check_rule(check: &RuleCheck, snapshot: &Snapshot) -> (HealthStatus, String) {
    match check {
        RuleCheck::EventRingDropRate { warn, crit } => {
            let dropped = snapshot.dropped_events();
            let retained = snapshot.events().len() as u64;
            let total = dropped + retained;
            if total == 0 {
                return (HealthStatus::Ok, "no events".to_string());
            }
            #[allow(clippy::cast_precision_loss)]
            let rate = dropped as f64 / total as f64;
            (
                grade_above_f64(rate, *warn, *crit),
                format!("{rate:.4} ({dropped} dropped of {total})"),
            )
        }
        RuleCheck::GaugeAbove { name, warn, crit } => {
            let value = snapshot.gauge(name).unwrap_or(0);
            #[allow(clippy::cast_precision_loss)]
            (
                grade_above_f64(value as f64, *warn as f64, *crit as f64),
                format!("{value}"),
            )
        }
        RuleCheck::SketchP99Above { name, warn, crit } => match snapshot.sketch_percentiles(name) {
            None => (HealthStatus::Ok, "no samples".to_string()),
            Some((_, _, p99)) =>
            {
                #[allow(clippy::cast_precision_loss)]
                (
                    grade_above_f64(p99 as f64, *warn as f64, *crit as f64),
                    format!("p99 {p99}"),
                )
            }
        },
        RuleCheck::SketchFamilyStragglerP99 {
            name,
            ratio_warn,
            ratio_crit,
            min_count,
        } => {
            #[allow(clippy::cast_precision_loss)]
            let judged: Vec<(String, f64)> = snapshot
                .sketch_family(name)
                .unwrap_or(&[])
                .iter()
                .filter(|c| c.count >= *min_count)
                .map(|c| (c.values.join(","), c.p99 as f64))
                .collect();
            if judged.len() < 2 {
                return (
                    HealthStatus::Ok,
                    format!("insufficient data ({} shard(s))", judged.len()),
                );
            }
            let mut p99s: Vec<f64> = judged.iter().map(|(_, p99)| *p99).collect();
            let median = median_f64(&mut p99s);
            if median <= 0.0 {
                return (HealthStatus::Ok, "median p99 0".to_string());
            }
            let (worst, worst_p99) = judged
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("judged is non-empty");
            let ratio = worst_p99 / median;
            (
                grade_above_f64(ratio, *ratio_warn, *ratio_crit),
                format!("{worst} p99 {worst_p99:.0} at {ratio:.1}x median {median:.0}"),
            )
        }
        RuleCheck::GaugeFamilyStragglerAbove {
            name,
            ratio_warn,
            ratio_crit,
            min_median,
        } => {
            #[allow(clippy::cast_precision_loss)]
            let judged: Vec<(String, f64)> = snapshot
                .family_series(name)
                .unwrap_or(&[])
                .iter()
                .map(|(values, value)| (values.join(","), *value as f64))
                .collect();
            if judged.len() < 2 {
                return (
                    HealthStatus::Ok,
                    format!("insufficient data ({} shard(s))", judged.len()),
                );
            }
            let mut values: Vec<f64> = judged.iter().map(|(_, v)| *v).collect();
            let median = median_f64(&mut values);
            if median < *min_median {
                return (
                    HealthStatus::Ok,
                    format!("median {median:.1} below floor {min_median:.1}"),
                );
            }
            let (worst, worst_value) = judged
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("judged is non-empty");
            let ratio = worst_value / median;
            (
                grade_above_f64(ratio, *ratio_warn, *ratio_crit),
                format!("{worst} depth {worst_value:.0} at {ratio:.1}x median {median:.1}"),
            )
        }
    }
}

/// Evaluates `rules` against `snapshot`. With `deterministic_only`,
/// non-deterministic rules are skipped (`status: n/a`) and excluded from
/// the overall verdict.
pub fn evaluate(
    rules: &[HealthRule],
    snapshot: &Snapshot,
    deterministic_only: bool,
) -> HealthReport {
    let mut rows = Vec::with_capacity(rules.len());
    let mut overall = HealthStatus::Ok;
    for rule in rules {
        if deterministic_only && !rule.deterministic {
            rows.push(RuleOutcome {
                id: rule.id,
                help: rule.help,
                status: None,
                observed: "skipped (non-deterministic)".to_string(),
            });
            continue;
        }
        let (status, observed) = check_rule(&rule.check, snapshot);
        overall = overall.max(status);
        rows.push(RuleOutcome {
            id: rule.id,
            help: rule.help,
            status: Some(status),
            observed,
        });
    }
    HealthReport { rows, overall }
}

impl HealthReport {
    /// Renders the greppable text table: one `status: <verdict>` row per
    /// rule plus an `overall:` line.
    pub fn render_text(&self) -> String {
        let id_width = self.rows.iter().map(|r| r.id.len()).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str("health rules\n");
        for row in &self.rows {
            let status = row.status.map_or("n/a", HealthStatus::label);
            out.push_str(&format!(
                "  {:<id_width$}  status: {:<4}  {}\n",
                row.id, status, row.observed
            ));
        }
        out.push_str(&format!("overall: {}\n", self.overall.label()));
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"overall\": \"");
        out.push_str(self.overall.label());
        out.push_str("\",\n  \"rules\": [");
        for (index, row) in self.rows.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"id\": \"");
            out.push_str(&json_escape(row.id));
            out.push_str("\", \"status\": \"");
            out.push_str(row.status.map_or("n/a", HealthStatus::label));
            out.push_str("\", \"observed\": \"");
            out.push_str(&json_escape(&row.observed));
            out.push_str("\", \"help\": \"");
            out.push_str(&json_escape(row.help));
            out.push_str("\"}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Mirrors the overall verdict into `gauge` (the
    /// `dice_health_status` catalog entry).
    pub fn publish(&self, gauge: &Gauge) {
        gauge.set(self.overall.code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn healthy_snapshot_is_ok_everywhere() {
        let telemetry = Telemetry::recording();
        let snapshot = telemetry.snapshot().unwrap();
        let report = evaluate(&standard_rules(), &snapshot, false);
        assert_eq!(report.overall, HealthStatus::Ok);
        assert!(report
            .rows
            .iter()
            .all(|r| r.status == Some(HealthStatus::Ok)));
        let text = report.render_text();
        assert!(text.contains("status: ok"));
        assert!(text.contains("overall: ok"));
        assert!(!text.contains("status: n/a"));
    }

    #[test]
    fn thresholds_grade_warn_and_crit() {
        let telemetry = Telemetry::recording();
        let recorder = telemetry.recorder().unwrap();
        recorder.metrics.gateway.channel_depth.set(200);
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), false);
        assert_eq!(report.overall, HealthStatus::Warn);
        recorder.metrics.gateway.channel_depth.set(250);
        recorder.metrics.engine.detection_ns.record(200_000_000);
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), false);
        assert_eq!(report.overall, HealthStatus::Crit);
        let crit_rows: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.status == Some(HealthStatus::Crit))
            .map(|r| r.id)
            .collect();
        assert_eq!(crit_rows, vec!["channel_depth_high_water", "detection_p99"]);
        report.publish(&recorder.metrics.health.status);
        assert_eq!(recorder.metrics.health.status.get(), 2);
    }

    #[test]
    fn deterministic_only_skips_wall_clock_rules() {
        let telemetry = Telemetry::recording();
        let recorder = telemetry.recorder().unwrap();
        // A Crit on a non-deterministic rule must not leak into the
        // deterministic verdict.
        recorder.metrics.gateway.channel_depth.set(250);
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), true);
        assert_eq!(report.overall, HealthStatus::Ok);
        let text = report.render_text();
        assert!(text.contains("status: n/a"));
        assert!(text.contains("overall: ok"));
        let skipped: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.status.is_none())
            .map(|r| r.id)
            .collect();
        assert_eq!(
            skipped,
            vec![
                "channel_depth_high_water",
                "detection_p99",
                "telemetry_overhead",
                "fleet_stage_straggler",
                "fleet_shard_depth_straggler"
            ]
        );
    }

    #[test]
    fn stragglers_grade_against_the_fleet_median() {
        let telemetry = Telemetry::recording();
        let recorder = telemetry.recorder().unwrap();
        let queue_wait = &recorder.metrics.fleet.stage_queue_wait_ns;
        // Three healthy shards and one straggler, with enough samples for
        // every child to clear min_count.
        for _ in 0..20 {
            for shard in ["s0", "s1", "s2"] {
                queue_wait.with_label_values(&[shard]).record(1_000);
            }
            queue_wait.with_label_values(&["s3"]).record(1_000_000);
        }
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), false);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "fleet_stage_straggler")
            .unwrap();
        assert_eq!(row.status, Some(HealthStatus::Crit), "{}", row.observed);
        assert!(row.observed.contains("s3"), "{}", row.observed);

        // Depth straggler: median must clear the floor before judging.
        let depth = &recorder.metrics.fleet.shard_depth;
        for shard in ["s0", "s1", "s2"] {
            depth.with_label_values(&[shard]).set(1);
        }
        depth.with_label_values(&["s3"]).set(60);
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), false);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "fleet_shard_depth_straggler")
            .unwrap();
        assert_eq!(row.status, Some(HealthStatus::Ok), "{}", row.observed);
        assert!(row.observed.contains("below floor"), "{}", row.observed);
        for shard in ["s0", "s1", "s2"] {
            depth.with_label_values(&[shard]).set(4);
        }
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), false);
        let row = report
            .rows
            .iter()
            .find(|r| r.id == "fleet_shard_depth_straggler")
            .unwrap();
        assert_eq!(row.status, Some(HealthStatus::Crit), "{}", row.observed);
    }

    #[test]
    fn json_render_is_well_formed() {
        let telemetry = Telemetry::recording();
        let report = evaluate(&standard_rules(), &telemetry.snapshot().unwrap(), true);
        let json = report.to_json();
        let value = crate::json_parse(&json).expect("health JSON parses");
        let rules = value
            .get("rules")
            .and_then(crate::Value::as_arr)
            .expect("rules array");
        assert_eq!(rules.len(), standard_rules().len());
        assert_eq!(
            value.get("overall").and_then(crate::Value::as_str),
            Some("ok")
        );
    }
}
