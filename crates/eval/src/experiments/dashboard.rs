//! The operator dashboards: `monitor` streams a CSV through one home
//! gateway with time-series sparklines, and `fleet-monitor` renders one
//! frame of fleet-wide causal tracing — per-shard latency attribution,
//! back-pressure and queue depth, and lineage-stamped alarms (§5j, §5l).
//!
//! Both commands share one flag parser (`--once`, `--health`, and
//! `monitor`'s `--interval N`), one sparkline, and one health-rule block.
//! Each runs in two modes through one code path:
//!
//! - **live** (default): `monitor`'s aggregator threads feed bounded
//!   channels like a real deployment, and with `--interval N` the
//!   dashboard re-renders to stderr every `N` windows; `fleet-monitor`
//!   runs the threaded fleet service under the wall [`TraceClock`], so the
//!   stage quantiles are real latencies.
//! - **`--once`**: the feed is preloaded (the gateway merge runs inline on
//!   one thread; the fleet's shards drain sequentially under a frozen
//!   manual clock), so every counter, sketch, depth gauge and lineage
//!   record is deterministic and the frame is byte-stable across runs
//!   (pinned by tier-1 goldens). Health rules over wall-clock or
//!   load-dependent inputs report `status: n/a` instead of a verdict.
//!
//! `monitor`'s time-series sampling is driven by *sim time*: the gateway's
//! window hook feeds each closed window's end timestamp to a
//! [`TimeSeriesRecorder`], one sample per [`SAMPLE_WINDOWS`] windows.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, Write as _};

use dice_core::read_model;
use dice_datasets::read_csv;
use dice_fleet::{FleetConfig, FleetRun, ModelCache, TraceClock};
use dice_gateway::{partition_by_device, spawn_aggregator, HomeGateway};
use dice_telemetry::{
    evaluate_health, shard_label, standard_rules, HealthStatus, Recorder, SketchFamilyChild,
    Snapshot, Telemetry, TimeSeriesRecorder,
};
use dice_types::{Event, TimeDelta, Timestamp};

use super::fleet_plans::{feed, plan_fleet};

/// Windows per time-series sample: with the default one-minute window, one
/// sample every thirty minutes of sim time, so the 48-wide sparkline spans
/// a full day of a day-scale CASAS replay (and a sweep rides along only one
/// window in thirty).
const SAMPLE_WINDOWS: i64 = 30;

/// Retained time-series samples (the sparkline truncates to the most
/// recent [`SPARK_WIDTH`]).
const SERIES_CAPACITY: usize = 256;

/// Widest sparkline the dashboard renders.
const SPARK_WIDTH: usize = 48;

/// Aggregator fan-in the `monitor` replay partitions devices across.
const AGGREGATORS: usize = 4;

/// The series `monitor` plots — also the recorder's sweep watchlist, so
/// each sample touches six metric handles instead of the whole registry
/// (order: the five counters rendered as rows, then the depth gauge).
pub(crate) const DASHBOARD_SERIES: &[&str] = &[
    "dice_gateway_events_total",
    "dice_gateway_windows_total",
    "dice_gateway_alarms_total",
    "dice_engine_reports_total",
    "dice_gateway_channel_depth",
];

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Parsed dashboard arguments: the flags both commands accept, plus their
/// positionals.
#[derive(Default)]
struct Args<'a> {
    once: bool,
    health: bool,
    /// `--interval N`; only `monitor` accepts it.
    interval: Option<u64>,
    positional: Vec<&'a str>,
}

/// Splits `args` into flags and positionals; `command` names the caller in
/// the unknown-flag error.
fn parse_args<'a>(command: &str, args: &[&'a str]) -> Result<Args<'a>, String> {
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(&arg) = rest.next() {
        match arg {
            "--once" => parsed.once = true,
            "--health" => parsed.health = true,
            "--interval" => {
                let value = rest.next().ok_or("--interval needs a window count")?;
                let n = value
                    .parse()
                    .map_err(|_| format!("bad interval {value:?}"))?;
                parsed.interval = Some(n);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown {command} flag {flag:?}"));
            }
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

/// Largest value in the series, floored at zero (an order-insensitive max,
/// not a float accumulation).
fn series_max(values: &[f64]) -> f64 {
    let mut max = 0.0f64;
    for &v in values {
        if v > max {
            max = v;
        }
    }
    max
}

/// Renders `values` as a unicode sparkline scaled to the series maximum.
fn sparkline(values: &[f64]) -> String {
    let tail = &values[values.len().saturating_sub(SPARK_WIDTH)..];
    let max = series_max(tail);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let level = ((v / max) * 7.0).round() as usize;
                BARS[level.min(7)]
            }
        })
        .collect()
}

/// Grades the standard health rules against `snapshot`, publishes the
/// verdicts into the recorder's health gauges, and appends the rule table
/// (plus a `CRITICAL` line when any rule fired at crit).
fn render_health(out: &mut String, snapshot: &Snapshot, recorder: &Recorder, once: bool) {
    let report = evaluate_health(&standard_rules(), snapshot, once);
    report.publish(&recorder.metrics.health.status);
    out.push_str(&report.render_text());
    if report.overall == HealthStatus::Crit {
        out.push_str("CRITICAL: at least one health rule fired at crit\n");
    }
}

/// Widens an integer series (counter deltas, gauges, per-shard counts) for
/// the sparkline.
#[allow(clippy::cast_precision_loss)]
fn to_f64<T: Copy + Into<i128>>(values: &[T]) -> Vec<f64> {
    values.iter().map(|&v| v.into() as f64).collect()
}

/// Renders the sparkline block from the recorder's time series.
fn render_series(series: &TimeSeriesRecorder, interval_mins: i64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "series (one sample per {interval_mins} sim-minutes, {} retained, {} evicted)\n",
        series.len(),
        series.dropped()
    ));
    let labels = ["events", "windows", "alarms", "reports", "channel depth"];
    for (label, name) in labels.iter().zip(DASHBOARD_SERIES) {
        let values = if *label == "channel depth" {
            to_f64(&series.gauge_series(name))
        } else {
            to_f64(&series.counter_deltas(name))
        };
        let last = values.last().copied().unwrap_or(0.0);
        let max = series_max(&values);
        let spark = sparkline(&values);
        out.push_str(&format!(
            "  {label:<14} {spark}  last {last:.1}  max {max:.1}\n"
        ));
    }
    out
}

fn sim_ns(at: Timestamp) -> u64 {
    u64::try_from(at.as_secs()).unwrap_or(0) * 1_000_000_000
}

/// Streams a CSV event log through the home gateway under a persisted
/// model, rendering alarms, time-series sparklines, and (with `--health`)
/// the health-rule table. See the module docs for `--once` semantics.
///
/// # Errors
///
/// Returns an error for unreadable files, corrupt data, or bad flags.
pub fn monitor(args: &[&str]) -> Result<String, String> {
    let args = parse_args("monitor", args)?;
    let [model_path, csv_path] = args.positional[..] else {
        return Err("monitor needs a model path and a csv path".into());
    };
    let file = File::open(model_path).map_err(|e| format!("cannot open {model_path}: {e}"))?;
    let mut model = read_model(BufReader::new(file)).map_err(|e| e.to_string())?;
    model.rebuild_index();
    let file = File::open(csv_path).map_err(|e| format!("cannot open {csv_path}: {e}"))?;
    let mut log = read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    let window = model.config().window();
    let (from, to) = match (log.start(), log.end()) {
        (Some(s), Some(e)) => (s.align_down(window), e + window),
        _ => return Err("the CSV contains no events".into()),
    };
    let events: Vec<Event> = log.into_events().collect();
    let parts = partition_by_device(&events, AGGREGATORS);

    let telemetry = Telemetry::recording();
    let recorder = telemetry.recorder().expect("recording handle");
    let mut series = TimeSeriesRecorder::new(
        u64::try_from(window.as_secs()).unwrap_or(60)
            * 1_000_000_000
            * SAMPLE_WINDOWS.unsigned_abs(),
        SERIES_CAPACITY,
    )
    .watch(DASHBOARD_SERIES);
    series.sample_at(recorder, sim_ns(from)); // baseline at segment start

    let mut receivers = Vec::new();
    let mut handles = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        if args.once {
            // Deterministic mode: preload every frame and drop the sender,
            // so the merge runs inline with no thread timing in play.
            let (tx, rx) = crossbeam::channel::unbounded();
            for event in &part {
                let _ = tx.send(dice_gateway::encode_event(event));
            }
            receivers.push(rx);
        } else {
            let (tx, rx) = crossbeam::channel::bounded(256);
            handles.push(spawn_aggregator(format!("{i}"), part, tx));
            receivers.push(rx);
        }
    }
    let (alarm_tx, alarm_rx) = crossbeam::channel::unbounded();
    let gateway = HomeGateway::with_telemetry(&model, TimeDelta::from_mins(60), telemetry.clone());

    // Live mode re-renders to stderr every `--interval` windows.
    let rerender = args.interval.filter(|_| !args.once).unwrap_or(0);
    let mut windows_seen = 0u64;
    let stats = gateway.run_with_observer(receivers, &alarm_tx, from, to, |end| {
        series.maybe_sample(recorder, sim_ns(end));
        windows_seen += 1;
        if rerender > 0 && windows_seen.is_multiple_of(rerender) {
            live_frame(recorder, &series, window.as_mins() * SAMPLE_WINDOWS);
        }
    });
    for handle in handles {
        handle.join().map_err(|_| "aggregator thread panicked")?;
    }
    drop(alarm_tx);
    // Final sample so the tail of the replay is on the dashboard even when
    // it ends mid-interval.
    series.sample_at(recorder, sim_ns(to));

    let mut out = String::new();
    out.push_str(&format!(
        "dice monitor: {} .. {} ({} windows of {} s)\n",
        from,
        to,
        stats.windows,
        window.as_secs()
    ));
    for alarm in alarm_rx.iter() {
        out.push_str(&format!("ALARM: {}\n", alarm.report));
    }
    out.push_str(&render_series(&series, window.as_mins() * SAMPLE_WINDOWS));
    if args.health {
        let snapshot = telemetry.snapshot().expect("recording handle");
        render_health(&mut out, &snapshot, recorder, args.once);
    }
    out.push_str(&format!(
        "processed {} windows / {} events through {AGGREGATORS} aggregators; {} alarm(s)\n",
        stats.windows, stats.events, stats.alarms
    ));
    Ok(out)
}

/// One live re-render to stderr: current totals plus the sparkline block.
fn live_frame(recorder: &Recorder, series: &TimeSeriesRecorder, interval_mins: i64) {
    let g = &recorder.metrics.gateway;
    let mut frame = format!(
        "-- monitor: {} windows / {} events / {} alarm(s)\n",
        g.windows_total.get(),
        g.events_total.get(),
        g.alarms_total.get()
    );
    frame.push_str(&render_series(series, interval_mins));
    let _ = std::io::stderr().write_all(frame.as_bytes());
}

/// The `fleet-monitor` fixture size, from the optional `[homes] [shards]
/// [minutes]` positionals.
struct FleetSize {
    homes: usize,
    shards: usize,
    minutes: i64,
}

impl FleetSize {
    /// Reads the positionals, defaulting to 96 homes over 4 shards for 30
    /// minutes; every size must be positive.
    fn parse(positional: &[&str]) -> Result<Self, String> {
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
        Ok(FleetSize {
            homes: usize::try_from(homes).map_err(|_| "home count overflows")?,
            shards: usize::try_from(shards).map_err(|_| "shard count overflows")?,
            minutes,
        })
    }
}

/// Runs the synthetic fleet fixture (shared floor plans, a fixed faulty
/// residue class) and returns the finished run.
fn run_fleet(size: &FleetSize, once: bool, telemetry: &Telemetry) -> FleetRun {
    let clock = if once {
        TraceClock::manual().0
    } else {
        TraceClock::wall()
    };
    let config = FleetConfig {
        shards: size.shards,
        queue_capacity: 32,
        frames_per_batch: 16,
        batch_windows: 32,
        telemetry: telemetry.clone(),
        clock,
        ..FleetConfig::default()
    };
    let fleet = plan_fleet(config, &ModelCache::new(), size.homes);
    let from = Timestamp::from_mins(0);
    let to = Timestamp::from_mins(size.minutes);
    let feed = feed(size.homes, size.minutes);
    if once {
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

    let loads: Vec<i128> = (0..shards)
        .map(|s| windows.get(shard_label(s).as_str()).copied().unwrap_or(0))
        .collect();
    let _ = writeln!(
        out,
        "  shard load     {}  windows per shard",
        sparkline(&to_f64(&loads))
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
    let args = parse_args("fleet-monitor", args)?;
    if args.interval.is_some() {
        return Err("unknown fleet-monitor flag \"--interval\"".into());
    }
    let size = FleetSize::parse(&args.positional)?;
    let telemetry = Telemetry::recording();
    let run = run_fleet(&size, args.once, &telemetry);
    let snapshot = telemetry.snapshot().expect("recording handle");

    let mut out = String::new();
    let mode = if args.once {
        " (one deterministic frame)"
    } else {
        ""
    };
    let _ = writeln!(
        out,
        "dice fleet-monitor: {} homes over {} shards, {} simulated minutes{mode}",
        run.stats.homes, run.stats.shards, size.minutes,
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
            let stamp = report
                .lineage
                .map_or_else(|| "untraced".to_string(), |stamp| stamp.to_string());
            let _ = writeln!(out, "ALARM home {} [{stamp}]: {}", home.home, report);
        }
    }

    if args.health {
        let recorder = telemetry.recorder().expect("recording handle");
        render_health(&mut out, &snapshot, recorder, args.once);
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
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let line = sparkline(&[0.0, 3.5, 7.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
        assert!(line.starts_with('▁'));
    }

    #[test]
    fn sparkline_truncates_to_width() {
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(sparkline(&values).chars().count(), SPARK_WIDTH);
    }

    #[test]
    fn flags_parse_in_any_order() {
        let args = parse_args("monitor", &["--health", "m.dice", "--once", "log.csv"]).unwrap();
        assert!(args.once && args.health);
        assert_eq!(args.positional[0], "m.dice");
        assert_eq!(args.positional[1], "log.csv");
        assert_eq!(args.interval, None);
        let args = parse_args("monitor", &["--interval", "30", "m", "c"]).unwrap();
        assert_eq!(args.interval, Some(30));
        assert_eq!(
            monitor(&["m.dice"]).err().as_deref(),
            Some("monitor needs a model path and a csv path")
        );
        assert!(parse_args("monitor", &["--interval"]).is_err());
        assert_eq!(
            monitor(&["--bogus", "m", "c"]).err().as_deref(),
            Some("unknown monitor flag \"--bogus\"")
        );
    }

    #[test]
    fn flags_parse_and_validate() {
        let args = parse_args("fleet-monitor", &["--once", "--health"]).unwrap();
        assert!(args.once && args.health);
        let size = FleetSize::parse(&args.positional).unwrap();
        assert_eq!((size.homes, size.shards, size.minutes), (96, 4, 30));
        let size = FleetSize::parse(&["32", "2", "10"]).unwrap();
        assert_eq!((size.homes, size.shards, size.minutes), (32, 2, 10));
        assert_eq!(
            fleet_monitor(&["--bogus"]).err().as_deref(),
            Some("unknown fleet-monitor flag \"--bogus\"")
        );
        assert!(FleetSize::parse(&["0"]).is_err());
        assert!(FleetSize::parse(&["8", "-1"]).is_err());
        assert_eq!(
            fleet_monitor(&["--interval", "5"]).err().as_deref(),
            Some("unknown fleet-monitor flag \"--interval\"")
        );
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
