//! The `fleet-monitor` command: a terminal frame of fleet-wide causal
//! tracing — per-shard latency attribution columns, back-pressure and
//! queue-depth counters, lineage-stamped alarms, and the health-rule
//! table (§5l).
//!
//! Two modes share one code path, mirroring the single-home `monitor`:
//!
//! - **live** (default): the threaded fleet service under the wall
//!   [`TraceClock`], so the stage quantiles are real latencies.
//! - **`--once`**: the feed is preloaded and the shards drain sequentially
//!   under a frozen manual clock, so every counter, sketch, depth gauge,
//!   and lineage record is deterministic and the rendered frame is
//!   byte-stable across runs (asserted by a tier-1 test). Health rules
//!   over wall-clock or load-dependent inputs report `status: n/a`.

use std::collections::HashMap;
use std::fmt::Write as _;

use dice_fleet::{FleetConfig, FleetRun, ModelCache, TraceClock};
use dice_telemetry::{
    evaluate_health, shard_label, standard_rules, HealthStatus, SketchFamilyChild, Snapshot,
    Telemetry,
};
use dice_types::Timestamp;

use super::fleet_plans::{feed, plan_fleet};
use super::monitor::sparkline;

/// Parsed `fleet-monitor` arguments.
struct FleetMonitorArgs {
    homes: usize,
    shards: usize,
    minutes: i64,
    once: bool,
    health: bool,
}

fn parse_args(args: &[&str]) -> Result<FleetMonitorArgs, String> {
    let mut once = false;
    let mut health = false;
    let mut positional = Vec::new();
    for &arg in args {
        match arg {
            "--once" => once = true,
            "--health" => health = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown fleet-monitor flag {flag:?}"));
            }
            _ => positional.push(arg),
        }
    }
    let parse = |i: usize, what: &str, default: i64| -> Result<i64, String> {
        positional.get(i).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {what} {v:?}"))
        })
    };
    let homes = parse(0, "home count", 96)?;
    let shards = parse(1, "shard count", 4)?;
    let minutes = parse(2, "minute count", 30)?;
    if homes <= 0 || shards <= 0 || minutes <= 0 {
        return Err("fleet-monitor needs positive homes, shards, and minutes".into());
    }
    Ok(FleetMonitorArgs {
        homes: usize::try_from(homes).map_err(|_| "home count overflows")?,
        shards: usize::try_from(shards).map_err(|_| "shard count overflows")?,
        minutes,
        once,
        health,
    })
}

/// Runs the synthetic fleet fixture (shared floor plans, a fixed faulty
/// residue class) and returns the finished run.
fn run_fleet(args: &FleetMonitorArgs, telemetry: &Telemetry) -> FleetRun {
    let clock = if args.once {
        TraceClock::manual().0
    } else {
        TraceClock::wall()
    };
    let config = FleetConfig {
        shards: args.shards,
        queue_capacity: 32,
        frames_per_batch: 16,
        batch_windows: 32,
        telemetry: telemetry.clone(),
        clock,
        ..FleetConfig::default()
    };
    let fleet = plan_fleet(config, &ModelCache::new(), args.homes);
    let from = Timestamp::from_mins(0);
    let to = Timestamp::from_mins(args.minutes);
    let feed = feed(args.homes, args.minutes);
    if args.once {
        fleet.run_preloaded(from, to, feed)
    } else {
        fleet.run(from, to, feed)
    }
}

/// A labeled counter/gauge family flattened to `label -> value`.
fn family_map<'a>(snapshot: &'a Snapshot, name: &str) -> HashMap<&'a str, i128> {
    snapshot
        .family_series(name)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(labels, value)| labels.first().map(|l| (l.as_str(), *value)))
        .collect()
}

/// A labeled sketch family flattened to `label -> child`.
fn sketch_map<'a>(snapshot: &'a Snapshot, name: &str) -> HashMap<&'a str, &'a SketchFamilyChild> {
    snapshot
        .sketch_family(name)
        .unwrap_or(&[])
        .iter()
        .filter_map(|child| child.values.first().map(|l| (l.as_str(), child)))
        .collect()
}

/// One shard's `p50/p99` cell in microseconds, `-` when nothing recorded.
fn quantile_cell(child: Option<&&SketchFamilyChild>) -> String {
    match child {
        Some(c) if c.count > 0 => format!("{}/{}", c.p50 / 1_000, c.p99 / 1_000),
        _ => "-".to_string(),
    }
}

/// Renders the per-shard attribution table from the snapshot's labeled
/// families: queue depth high-water, back-pressure, and the stage
/// latency quantiles recorded under each `shard="sN"` label.
fn render_shards(out: &mut String, snapshot: &Snapshot, shards: usize) {
    let windows = family_map(snapshot, "dice_fleet_shard_windows_total");
    let depth = family_map(snapshot, "dice_fleet_shard_depth");
    let waits = family_map(snapshot, "dice_fleet_shard_backpressure_waits_total");
    let wait_ns = family_map(snapshot, "dice_fleet_shard_backpressure_wait_ns_total");
    let queue_wait = sketch_map(snapshot, "dice_fleet_stage_queue_wait_ns");
    let scan = sketch_map(snapshot, "dice_fleet_stage_scan_ns");
    let verdict = sketch_map(snapshot, "dice_fleet_stage_verdict_ns");

    let loads: Vec<f64> = (0..shards)
        .map(|s| {
            #[allow(clippy::cast_precision_loss)]
            let load = windows.get(shard_label(s).as_str()).copied().unwrap_or(0) as f64;
            load
        })
        .collect();
    let _ = writeln!(
        out,
        "  shard load     {}  windows per shard",
        sparkline(&loads)
    );
    let _ = writeln!(
        out,
        "  {:<6} {:>8} {:>6} {:>9} {:>9}  {:>14} {:>13} {:>13}",
        "shard",
        "windows",
        "depth",
        "bp-waits",
        "bp-ms",
        "queue p50/p99",
        "scan p50/p99",
        "verd p50/p99"
    );
    for s in 0..shards {
        let label = shard_label(s);
        let l = label.as_str();
        let get = |m: &HashMap<&str, i128>| m.get(l).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:<6} {:>8} {:>6} {:>9} {:>9.1}  {:>14} {:>13} {:>13}",
            label,
            get(&windows),
            get(&depth),
            get(&waits),
            get(&wait_ns) as f64 / 1e6,
            quantile_cell(queue_wait.get(l)),
            quantile_cell(scan.get(l)),
            quantile_cell(verdict.get(l)),
        );
    }
    let _ = writeln!(
        out,
        "  (stage quantiles in us from per-shard latency sketches; depth is each queue's high-water mark)"
    );
}

/// Streams the synthetic fleet fixture through the sharded service and
/// renders one fleet-wide tracing frame: totals, the per-shard
/// attribution table, lineage-stamped alarms, and (with `--health`) the
/// health-rule table. With `--once` the frame is byte-stable.
///
/// # Errors
///
/// Returns an error for bad flags or non-positive sizes.
pub fn fleet_monitor(args: &[&str]) -> Result<String, String> {
    let args = parse_args(args)?;
    let telemetry = Telemetry::recording();
    let run = run_fleet(&args, &telemetry);
    let snapshot = telemetry.snapshot().expect("recording handle");
    let recorder = telemetry.recorder().expect("recording handle");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "dice fleet-monitor: {} homes over {} shards, {} simulated minutes{}",
        run.stats.homes,
        run.stats.shards,
        args.minutes,
        if args.once {
            " (one deterministic frame)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "  ingest: {} frames, {} events, {} backpressure waits ({:.1} ms blocked)",
        run.stats.frames,
        run.stats.events,
        run.stats.backpressure_waits,
        run.stats.backpressure_wait_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  detect: {} windows closed, {} batched scans, {} alarms delivered, {} suppressed",
        run.stats.windows, run.stats.batched_scans, run.stats.alarms, run.stats.suppressed
    );
    render_shards(&mut out, &snapshot, run.stats.shards);

    // Alarms with their causal stamps: which shard served the home, and
    // where the triggering batch's wall-clock went, stage by stage.
    for home in &run.alarms {
        for report in &home.reports {
            match report.lineage {
                Some(stamp) => {
                    let _ = writeln!(out, "ALARM home {} [{stamp}]: {}", home.home, report);
                }
                None => {
                    let _ = writeln!(out, "ALARM home {} [untraced]: {}", home.home, report);
                }
            }
        }
    }

    if args.health {
        let report = evaluate_health(&standard_rules(), &snapshot, args.once);
        report.publish(&recorder.metrics.health.status);
        out.push_str(&report.render_text());
        if report.overall == HealthStatus::Crit {
            out.push_str("CRITICAL: at least one health rule fired at crit\n");
        }
    }
    let _ = writeln!(
        out,
        "processed {} windows / {} events across {} shards; {} alarm(s)",
        run.stats.windows, run.stats.events, run.stats.shards, run.stats.alarms
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_validate() {
        let args = parse_args(&["--once", "--health"]).unwrap();
        assert!(args.once && args.health);
        assert_eq!((args.homes, args.shards, args.minutes), (96, 4, 30));
        let args = parse_args(&["32", "2", "10"]).unwrap();
        assert_eq!((args.homes, args.shards, args.minutes), (32, 2, 10));
        assert!(parse_args(&["--bogus"]).is_err());
        assert!(parse_args(&["0"]).is_err());
        assert!(parse_args(&["8", "-1"]).is_err());
    }

    #[test]
    fn once_frames_are_byte_stable_and_show_per_shard_columns() {
        let a = fleet_monitor(&["--once", "--health", "32", "2", "20"]).unwrap();
        let b = fleet_monitor(&["--once", "--health", "32", "2", "20"]).unwrap();
        assert_eq!(a, b, "--once frames must be byte-stable");
        assert!(a.contains("one deterministic frame"));
        assert!(a.contains("\n  s0 "), "per-shard rows must render");
        assert!(a.contains("\n  s1 "));
        assert!(a.contains("queue p50/p99"));
        assert!(
            a.contains("ALARM home 3 ["),
            "faulty residue home must alarm"
        );
        assert!(a.contains("lineage "), "alarms must carry lineage stamps");
        assert!(a.contains("health"), "--health must render the rule table");
        assert!(!a.contains("CRITICAL"), "healthy fixture must not go crit");
    }

    /// The committed frame pins every counter, alarm and lineage record of
    /// the fixture, not just its stability from one run to the next.
    #[test]
    fn once_frame_matches_the_golden() {
        let frame = fleet_monitor(&["--once", "--health", "32", "2", "20"]).unwrap();
        assert_eq!(
            frame,
            include_str!("../../../../tests/golden/fleet_monitor_once_health_32_2_20.txt")
        );
    }
}
