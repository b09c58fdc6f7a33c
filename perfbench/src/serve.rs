//! The two serving paths, driven through their public entry points, and
//! the reference they are checked against.
//!
//! A fleet round registers every home and streams the whole input through
//! `Fleet::run` via `FleetSender::send` (one feeder thread, one shard). A
//! gateway round serves each home in turn through `HomeGateway::run`, fed
//! by one producer thread over a bounded channel of `encode_event` frames.
//! Both are closed loops: the feeder sends as fast as the path accepts.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded};

use dice_core::{DiceEngine, DiceModel, EngineOptions, FaultReport};
use dice_fleet::{Fleet, FleetConfig, FleetStats};
use dice_gateway::{encode_event, HomeGateway};
use dice_telemetry::Telemetry;
use dice_types::{DeviceId, EventLog, TimeDelta, Timestamp};

use crate::sys::process_cpu_ns;
use crate::workload::{Home, Inputs};

/// Per-device alarm cooldown, the same on both paths and the reference.
pub const COOLDOWN: TimeDelta = TimeDelta::from_mins(60);

/// Bounded depth of the gateway's aggregator channel.
const GATEWAY_CHANNEL: usize = 1024;

/// What one serving round measured and delivered.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time from the first send until the path returned.
    pub wall_ns: u64,
    /// Process CPU time over the same span.
    pub cpu_ns: u64,
    /// Windows closed.
    pub windows: u64,
    /// Frames the benchmark sent.
    pub frames: u64,
    /// Frames sent but not decoded and accepted.
    pub frames_lost: u64,
    /// Delivered alarms per served home, in `homes` order.
    pub alarms: Vec<Vec<FaultReport>>,
    /// Fleet counters (fleet rounds only).
    pub fleet: FleetStats,
    /// Time the feed closure ran (fleet rounds only).
    pub feed_ns: u64,
}

impl Round {
    /// Windows closed per wall-clock second.
    pub fn windows_per_s(&self) -> f64 {
        self.windows as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Process CPU microseconds per window.
    pub fn cpu_us_per_window(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.windows as f64
    }
}

/// Streams `homes` through one `Fleet::run` on a single shard.
pub fn fleet_round(
    inputs: &Inputs,
    homes: &[Home],
    models: &[Arc<DiceModel>],
    telemetry: Telemetry,
    tracing: bool,
) -> Round {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        alarm_cooldown: COOLDOWN,
        telemetry,
        tracing,
        ..FleetConfig::default()
    });
    for home in homes {
        fleet.register_home(home.id, Arc::clone(&models[home.plan]));
    }
    let (from, to) = inputs.range();
    let mut started: Option<(Instant, u64)> = None;
    let mut feed_ns = 0;
    let mut sent = 0u64;
    let run = fleet.run(from, to, |sender| {
        let t0 = Instant::now();
        started = Some((t0, process_cpu_ns()));
        for m in 0..inputs.minutes {
            for home in homes {
                inputs.for_minute(home, m, |event| {
                    sender.send(home.id, event);
                    sent += 1;
                });
            }
        }
        feed_ns = t0.elapsed().as_nanos() as u64;
    });
    let (t0, cpu0) = started.expect("the feed ran");
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;
    assert_eq!(run.stats.frames, sent, "the sender counts every send");
    Round {
        wall_ns,
        cpu_ns,
        windows: run.stats.windows,
        frames: sent,
        frames_lost: sent - run.stats.events.min(sent),
        alarms: run.alarms.into_iter().map(|a| a.reports).collect(),
        fleet: run.stats,
        feed_ns,
    }
}

/// Serves each of `homes` in turn through its own `HomeGateway::run`, fed
/// by a producer thread over a bounded channel of `encode_event` frames.
pub fn gateway_round(
    inputs: &Inputs,
    homes: &[Home],
    models: &[Arc<DiceModel>],
    telemetry: &Telemetry,
) -> Round {
    let (from, to) = inputs.range();
    let mut round = Round::default();
    for home in homes {
        let gateway = HomeGateway::with_telemetry(
            Arc::clone(&models[home.plan]),
            COOLDOWN,
            telemetry.clone(),
        );
        let (tx, rx) = bounded(GATEWAY_CHANNEL);
        let (alarm_tx, alarm_rx) = unbounded();
        let t0 = Instant::now();
        let cpu0 = process_cpu_ns();
        let (sent, stats) = std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                let mut sent = 0u64;
                for m in 0..inputs.minutes {
                    inputs.for_minute(home, m, |event| {
                        tx.send(encode_event(event))
                            .expect("the gateway outlives its feed");
                        sent += 1;
                    });
                }
                sent
            });
            let stats = gateway.run(vec![rx], &alarm_tx, from, to);
            (producer.join().expect("producer thread panicked"), stats)
        });
        round.wall_ns += t0.elapsed().as_nanos() as u64;
        round.cpu_ns += process_cpu_ns() - cpu0;
        drop(alarm_tx);
        round.windows += stats.windows;
        round.frames += sent;
        round.frames_lost += sent - stats.events.min(sent);
        round
            .alarms
            .push(alarm_rx.iter().map(|a| a.report).collect());
    }
    round
}

/// [`gateway_round`] with each home's frames queued before the gateway
/// starts, timing `HomeGateway::run` alone on the calling thread.
pub fn gateway_prefilled(inputs: &Inputs, homes: &[Home], models: &[Arc<DiceModel>]) -> Round {
    let (from, to) = inputs.range();
    let mut round = Round::default();
    for home in homes {
        let gateway = HomeGateway::with_telemetry(
            Arc::clone(&models[home.plan]),
            COOLDOWN,
            Telemetry::noop(),
        );
        let (tx, rx) = unbounded();
        for m in 0..inputs.minutes {
            inputs.for_minute(home, m, |event| {
                tx.send(encode_event(event)).expect("receiver is alive");
                round.frames += 1;
            });
        }
        drop(tx);
        let (alarm_tx, _alarm_rx) = unbounded();
        let t0 = Instant::now();
        let stats = gateway.run(vec![rx], &alarm_tx, from, to);
        round.wall_ns += t0.elapsed().as_nanos() as u64;
        round.windows += stats.windows;
    }
    round
}

/// Drops repeat reports the way both serving paths do: a report is
/// delivered when it names a device not alarmed within the cooldown, or
/// names none.
fn apply_cooldown(reports: Vec<FaultReport>) -> Vec<FaultReport> {
    let mut last: std::collections::BTreeMap<DeviceId, Timestamp> = Default::default();
    let mut out = Vec::new();
    for report in reports {
        let now = report.identified_at;
        let fresh = report
            .devices
            .iter()
            .any(|d| last.get(d).is_none_or(|&at| now - at > COOLDOWN));
        if fresh || report.devices.is_empty() {
            for &d in &report.devices {
                last.insert(d, now);
            }
            out.push(report);
        }
    }
    out
}

/// Reference alarms for each of `homes`: a fresh `DiceEngine` replays the
/// home's stream with `process_range` and `flush`, then the cooldown rule
/// applies. Homes with the same model and stream share one replay.
pub fn reference(
    inputs: &Inputs,
    homes: &[Home],
    models: &[Arc<DiceModel>],
) -> Vec<Vec<FaultReport>> {
    let (from, to) = inputs.range();
    let mut done: std::collections::BTreeMap<(usize, usize, usize), usize> = Default::default();
    let mut out: Vec<Vec<FaultReport>> = Vec::with_capacity(homes.len());
    for home in homes {
        let key = (home.plan, home.source, home.offset);
        if let Some(&i) = done.get(&key) {
            out.push(out[i].clone());
            continue;
        }
        let mut log: EventLog = inputs.stream(home).into_iter().collect();
        let mut engine = DiceEngine::with_options(
            Arc::clone(&models[home.plan]),
            EngineOptions {
                telemetry: Telemetry::noop(),
                ..EngineOptions::default()
            },
        );
        let mut reports = engine.process_range(&mut log, from, to);
        reports.extend(engine.flush());
        done.insert(key, out.len());
        out.push(apply_cooldown(reports));
    }
    out
}

/// The correctness check, tallied over every served round: delivered
/// alarms against the reference, and frame accounting.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Home streams checked.
    pub attempted: u64,
    /// Home streams whose alarms differ, plus rounds that lost frames.
    pub failed: u64,
    /// Home streams whose delivered alarms differ from the reference.
    pub mismatch: u64,
    /// Frames sent but not decoded and accepted.
    pub lost: u64,
    /// Frames sent.
    pub frames: u64,
}

impl Oracle {
    /// Checks one round's alarms against `expected` (one entry per home
    /// served, in order) and tallies its frames.
    pub fn check(&mut self, expected: &[Vec<FaultReport>], round: &Round) {
        let bad = if expected.len() == round.alarms.len() {
            expected
                .iter()
                .zip(&round.alarms)
                .filter(|(e, d)| e != d)
                .count() as u64
        } else {
            expected.len().max(round.alarms.len()) as u64
        };
        self.attempted += round.alarms.len() as u64;
        self.failed += bad + u64::from(round.frames_lost > 0);
        self.mismatch += bad;
        self.lost += round.frames_lost;
        self.frames += round.frames;
    }

    /// Lost frames over frames sent.
    pub fn frame_error_rate(&self) -> f64 {
        self.lost as f64 / self.frames.max(1) as f64
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.mismatch == 0 && self.lost == 0
    }
}
