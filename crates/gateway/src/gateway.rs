//! The home gateway: merges aggregator streams and drives the DICE engine
//! online.
//!
//! The gateway performs a k-way time-ordered merge over the aggregator
//! channels, closes windows as the merged stream passes their boundaries
//! (the shared [`WindowClock`] rules), and feeds each window to the
//! real-time engine. Fault reports that pass the [`AlarmLedger`] cooldown
//! are pushed to an alarm channel the moment identification completes —
//! this is the deployment shape of Figure 3.1, with threads and channels
//! standing in for the CoAP fabric.
//
// lint-src: allow-file(wall-clock) — window close-to-verdict timing feeds
// the dice_gateway_window_ns observability sketch only; nothing downstream
// branches on it.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use dice_core::{
    BitLayout, DiceEngine, DiceModel, EngineOptions, FaultReport, JsonlTraceWriter, TraceSink,
};
use dice_telemetry::{saturating_ns, Gauge, Recorder, Telemetry};
use dice_types::{DeviceId, Event, Timestamp};

use crate::message::{decode_event, EventFrame, FrameError};
use crate::stream::{AlarmLedger, WindowClock};

/// The `home` label the gateway's per-home metric families record under.
const HOME_LABEL: &str = "home0";

/// An alarm pushed by the gateway when a fault is identified.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// The completed fault report.
    pub report: FaultReport,
}

impl Alarm {
    /// The identified faulty devices.
    pub fn devices(&self) -> BTreeSet<DeviceId> {
        self.report.devices.iter().copied().collect()
    }
}

/// Summary of one gateway run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatewayStats {
    /// Windows processed.
    pub windows: u64,
    /// Events merged from all aggregators.
    pub events: u64,
    /// Frames that failed to decode and were dropped.
    pub decode_errors: u64,
    /// Alarms raised.
    pub alarms: u64,
}

/// The home gateway.
///
/// Holds the engine behind a mutex so other threads (a UI, a health
/// endpoint) can query [`HomeGateway::is_identifying`] while a run is in
/// progress.
pub struct HomeGateway<M: Borrow<DiceModel>> {
    engine: Mutex<DiceEngine<M>>,
    alarm_cooldown: dice_types::TimeDelta,
    telemetry: Telemetry,
    /// When set, every alarm's trace evidence is appended here as JSONL
    /// (one layout header for the whole stream, then the evidence traces of
    /// each alarm in order). Requires tracing to be enabled in the engine
    /// options, or alarms carry no evidence and nothing is written.
    alarm_trace: Option<Mutex<JsonlTraceWriter<Box<dyn std::io::Write + Send>>>>,
}

impl<M: Borrow<DiceModel> + std::fmt::Debug> std::fmt::Debug for HomeGateway<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeGateway")
            .field("engine", &self.engine)
            .field("alarm_cooldown", &self.alarm_cooldown)
            .field("telemetry", &self.telemetry)
            .field("alarm_trace", &self.alarm_trace.is_some())
            .finish()
    }
}

impl<M: Borrow<DiceModel>> HomeGateway<M> {
    /// Creates a gateway around a trained model handle with the default
    /// one-hour alarm cooldown (see [`AlarmLedger`]).
    pub fn new(model: M) -> Self {
        Self::with_telemetry(
            model,
            dice_types::TimeDelta::from_mins(60),
            Telemetry::global(),
        )
    }

    /// Creates a gateway with an explicit alarm cooldown (see
    /// [`AlarmLedger`]) reporting to an explicit telemetry sink; the inner
    /// engine shares the same sink, so one recorder sees both layers.
    pub fn with_telemetry(
        model: M,
        alarm_cooldown: dice_types::TimeDelta,
        telemetry: Telemetry,
    ) -> Self {
        Self::with_engine_options(
            model,
            alarm_cooldown,
            EngineOptions {
                telemetry,
                ..EngineOptions::default()
            },
        )
    }

    /// Creates a gateway with explicit engine options (weights, telemetry,
    /// tracing). The gateway's own metrics use the same telemetry sink as
    /// the engine.
    pub fn with_engine_options(
        model: M,
        alarm_cooldown: dice_types::TimeDelta,
        options: EngineOptions,
    ) -> Self {
        let telemetry = options.telemetry.clone();
        HomeGateway {
            engine: Mutex::new(DiceEngine::with_options(model, options)),
            alarm_cooldown,
            telemetry,
            alarm_trace: None,
        }
    }

    /// Persists every alarm's trace evidence to `out` as JSONL (see
    /// [`dice_core::parse_trace_jsonl`] for the format). Pair with engine
    /// options that enable tracing, or there is no evidence to persist.
    #[must_use]
    pub fn with_alarm_trace_writer(mut self, out: Box<dyn std::io::Write + Send>) -> Self {
        let writer = JsonlTraceWriter::with_telemetry(out, &self.telemetry);
        self.alarm_trace = Some(Mutex::new(writer));
        self
    }

    /// Whether the engine is currently narrowing down a detected fault.
    pub fn is_identifying(&self) -> bool {
        self.engine.lock().is_identifying()
    }

    /// Runs the gateway loop over `[from, to)`: merges the aggregator
    /// streams, closes windows, drives the engine, and pushes alarms.
    ///
    /// Returns when every aggregator has disconnected and all windows up to
    /// `to` are processed (including a final engine flush). Undecodable
    /// frames are counted and dropped — a broken aggregator must not take
    /// the home down.
    pub fn run(
        &self,
        inputs: Vec<Receiver<EventFrame>>,
        alarms: &Sender<Alarm>,
        from: Timestamp,
        to: Timestamp,
    ) -> GatewayStats {
        self.run_with_observer(inputs, alarms, from, to, |_| {})
    }

    /// [`HomeGateway::run`] with a window hook: `on_window` fires after
    /// every window close with the window's end timestamp, giving callers a
    /// sim-time clock edge (the `monitor` dashboard drives its
    /// time-series sampling from it).
    pub fn run_with_observer(
        &self,
        inputs: Vec<Receiver<EventFrame>>,
        alarms: &Sender<Alarm>,
        from: Timestamp,
        to: Timestamp,
        mut on_window: impl FnMut(Timestamp),
    ) -> GatewayStats {
        let mut stats = GatewayStats::default();
        let recorder = self.telemetry.recorder();
        // Resolve dimensional children once: the hot loop records through
        // plain Arc handles, never the family mutex.
        let home_windows = recorder.map(|rec| {
            rec.metrics
                .gateway
                .home_windows_total
                .with_label_values(&[HOME_LABEL])
        });
        let home_alarms = recorder.map(|rec| {
            rec.metrics
                .gateway
                .home_alarms_total
                .with_label_values(&[HOME_LABEL])
        });
        let mut engine = self.engine.lock();
        let mut clock = WindowClock::new(engine.model().config().window(), from, to);
        let mut window_events: Vec<Event> = Vec::new();
        let mut ledger = AlarmLedger::new(self.alarm_cooldown);
        let mut deliver = |report: FaultReport, layout: &BitLayout, stats: &mut GatewayStats| {
            if ledger.admit(&report) {
                stats.alarms += 1;
                if let Some(rec) = recorder {
                    rec.metrics.gateway.alarms_total.inc();
                }
                if let Some(home) = &home_alarms {
                    home.inc();
                }
                if let Some(writer) = &self.alarm_trace {
                    let mut writer = writer.lock();
                    for trace in &report.evidence {
                        writer.record(layout, trace);
                    }
                }
                let _ = alarms.send(Alarm { report });
            } else if let Some(rec) = recorder {
                rec.metrics.gateway.alarms_suppressed_total.inc();
            }
        };
        // Runs one closed window through the engine, records it with the
        // merge's counts and depth, and empties the reused event buffer for
        // the next window.
        let mut published = [0u64; 3];
        let mut close = |(start, end): (Timestamp, Timestamp),
                         events: &mut Vec<Event>,
                         stats: &mut GatewayStats,
                         merge: &Merge| {
            let opened = recorder.map(|_| Instant::now());
            if let Some(report) = engine.process_window(start, end, events) {
                deliver(report, engine.model().layout(), stats);
            }
            stats.windows += 1;
            if let Some(rec) = recorder {
                rec.metrics.gateway.windows_total.inc();
                if let Some(opened) = opened {
                    rec.metrics
                        .gateway
                        .window_ns
                        .record(saturating_ns(opened.elapsed().as_nanos()));
                }
                let now = [merge.frames, stats.events, merge.decode_errors];
                publish_counts(rec, &mut published, now);
                merge.sample_depth();
            }
            if let Some(home) = &home_windows {
                home.inc();
            }
            events.clear();
            on_window(end);
        };

        let mut merge = Merge::start(inputs, recorder);
        while let Some(event) = merge.next() {
            if !clock.admits(event.at()) {
                continue; // outside the monitored range
            }
            stats.events += 1;
            while let Some(bounds) = clock.close_passed(event.at()) {
                close(bounds, &mut window_events, &mut stats, &merge);
            }
            window_events.push(event);
        }
        while let Some(bounds) = clock.close_remaining() {
            close(bounds, &mut window_events, &mut stats, &merge);
        }
        if let Some(report) = engine.flush() {
            deliver(report, engine.model().layout(), &mut stats);
        }
        stats.decode_errors = merge.decode_errors;
        if let Some(rec) = recorder {
            let now = [merge.frames, stats.events, merge.decode_errors];
            publish_counts(rec, &mut published, now);
        }

        stats
    }
}

/// The k-way time-ordered merge over the aggregator streams: one pending
/// event per live stream, taken in `(timestamp, slot)` order. The merge
/// serves runs: while the slot last taken from keeps receiving events that
/// sort before every other slot's pending head, they go straight to the
/// caller, and only the event that ends a run is held in `pending` for a
/// scan of every slot. Frames and decode errors are counted here and published by
/// the run at each window close, not one shared atomic per frame.
struct Merge<'r> {
    streams: Vec<Option<Receiver<EventFrame>>>,
    pending: Vec<Option<Event>>,
    /// The slot the last event came from: the only one with no pending
    /// event whose stream may still deliver.
    taken: Option<usize>,
    /// The earliest `(timestamp, slot)` pending outside `taken`, which the
    /// run from `taken` must stay before (`None`: nothing to compare).
    rival: Option<(Timestamp, usize)>,
    recorder: Option<&'r Recorder>,
    /// Per-stream depth gauges, resolved once (empty when not recording).
    shard_depths: Vec<Arc<Gauge>>,
    frames: u64,
    decode_errors: u64,
}

// `next` and `receive` run once per event and are `#[inline]`: the generic
// `run_with_observer` is instantiated in the caller's crate, where they
// would otherwise stay out-of-line calls.
impl<'r> Merge<'r> {
    /// Samples fan-in pressure before anything is received, then fills
    /// every slot.
    fn start(inputs: Vec<Receiver<EventFrame>>, recorder: Option<&'r Recorder>) -> Self {
        let shard_depths = recorder
            .map(|rec| {
                (0..inputs.len())
                    .map(|shard| {
                        rec.metrics
                            .gateway
                            .shard_depth
                            .with_label_values(&[&dice_telemetry::shard_label(shard)])
                    })
                    .collect()
            })
            .unwrap_or_default();
        if let Some(rec) = recorder {
            rec.metrics
                .gateway
                .streams_connected
                .set(inputs.len() as i64);
        }
        let mut merge = Merge {
            pending: vec![None; inputs.len()],
            streams: inputs.into_iter().map(Some).collect(),
            taken: None,
            rival: None,
            recorder,
            shard_depths,
            frames: 0,
            decode_errors: 0,
        };
        merge.sample_depth();
        for slot in 0..merge.streams.len() {
            merge.pending[slot] = merge.receive(slot);
        }
        merge
    }

    /// Takes the earliest event, ties to the lowest slot. The slot the
    /// previous event came from receives its next event first (every
    /// other slot still holds its own): when that sorts before the rival,
    /// it is the earliest and is served at once; otherwise it is held
    /// and every pending head is scanned for the earliest and the new
    /// rival. `None` once every stream has hung up and drained.
    #[inline]
    fn next(&mut self) -> Option<Event> {
        if let Some(slot) = self.taken {
            match self.receive(slot) {
                Some(event) if self.rival.is_none_or(|rival| (event.at(), slot) < rival) => {
                    return Some(event);
                }
                event => self.pending[slot] = event,
            }
        }
        let mut first: Option<(Timestamp, usize)> = None;
        let mut second = None;
        for (slot, event) in self.pending.iter().enumerate() {
            let Some(event) = event else { continue };
            let key = (event.at(), slot);
            if first.is_none_or(|first| key < first) {
                second = first;
                first = Some(key);
            } else if second.is_none_or(|second| key < second) {
                second = Some(key);
            }
        }
        let (_, slot) = first?;
        self.taken = Some(slot);
        self.rival = second;
        self.pending[slot].take()
    }

    /// Receives from `slot` until a frame decodes or its stream hangs up
    /// (`None`). Undecodable frames are counted and dropped.
    #[inline]
    fn receive(&mut self, slot: usize) -> Option<Event> {
        loop {
            let rx = self.streams[slot].as_ref()?;
            let Ok(frame) = rx.recv() else {
                self.streams[slot] = None; // aggregator hung up
                if let Some(rec) = self.recorder {
                    rec.metrics.gateway.streams_connected.add(-1);
                }
                return None;
            };
            self.frames += 1;
            match decode_event(frame) {
                Ok(event) => return Some(event),
                Err(
                    error @ (FrameError::Truncated
                    | FrameError::UnknownTag(_)
                    | FrameError::BadBool(_)),
                ) => {
                    self.decode_errors += 1;
                    if let Some(rec) = self.recorder {
                        rec.events
                            .push("decode_error", format!("slot {slot}: {error}"));
                    }
                }
            }
        }
    }

    /// Raises the depth high-water marks to the frames queued now, when
    /// recording.
    fn sample_depth(&self) {
        let Some(rec) = self.recorder else {
            return;
        };
        let mut depth = 0usize;
        for (rx, gauge) in self.streams.iter().zip(&self.shard_depths) {
            let Some(rx) = rx else { continue };
            let len = rx.len();
            depth += len;
            gauge.set_max(len as i64);
        }
        rec.metrics.gateway.channel_depth.set_max(depth as i64);
    }
}

/// Adds the frames, events and decode errors counted since the last
/// publish (`published`, updated to `now`) to their gateway counters.
fn publish_counts(rec: &Recorder, published: &mut [u64; 3], now: [u64; 3]) {
    let gateway = &rec.metrics.gateway;
    gateway.frames_total.add(now[0] - published[0]);
    gateway.events_total.add(now[1] - published[1]);
    gateway.decode_errors_total.add(now[2] - published[2]);
    *published = now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{partition_by_device, spawn_aggregator};
    use crossbeam::channel::unbounded;
    use dice_core::{ContextExtractor, DiceConfig};
    use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, TimeDelta};

    fn training_home() -> (DeviceRegistry, Vec<dice_types::SensorId>, DiceModel) {
        let mut reg = DeviceRegistry::new();
        let s0 = reg.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
        let s1 = reg.add_sensor(SensorKind::Motion, "s1", Room::Kitchen);
        let s2 = reg.add_sensor(SensorKind::Motion, "s2", Room::Bedroom);
        let mut log = EventLog::new();
        for minute in 0..240 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(s0, at, true.into()));
                log.push_sensor(SensorReading::new(s1, at, true.into()));
            } else {
                log.push_sensor(SensorReading::new(s2, at, true.into()));
            }
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        (reg, vec![s0, s1, s2], model)
    }

    fn live_events(sensors: &[dice_types::SensorId], minutes: i64, drop_s1: bool) -> Vec<Event> {
        let mut log = EventLog::new();
        for minute in 0..minutes {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(sensors[0], at, true.into()));
                if !drop_s1 {
                    log.push_sensor(SensorReading::new(sensors[1], at, true.into()));
                }
            } else {
                log.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        log.into_events().collect()
    }

    fn run_gateway(
        model: &DiceModel,
        events: Vec<Event>,
        minutes: i64,
    ) -> (GatewayStats, Vec<Alarm>) {
        let parts = partition_by_device(&events, 3);
        let mut receivers = Vec::new();
        let mut handles = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            handles.push(spawn_aggregator(format!("a{i}"), part, tx));
            receivers.push(rx);
        }
        let (alarm_tx, alarm_rx) = unbounded();
        let gateway = HomeGateway::new(model);
        let stats = gateway.run(
            receivers,
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(minutes),
        );
        for handle in handles {
            handle.join().unwrap();
        }
        drop(alarm_tx);
        let alarms: Vec<Alarm> = alarm_rx.iter().collect();
        (stats, alarms)
    }

    #[test]
    fn healthy_stream_raises_no_alarms() {
        let (_, sensors, model) = training_home();
        let (stats, alarms) = run_gateway(&model, live_events(&sensors, 60, false), 60);
        assert_eq!(stats.windows, 60);
        assert_eq!(stats.events, 90);
        assert!(alarms.is_empty(), "unexpected alarms: {alarms:?}");
    }

    #[test]
    fn fail_stop_raises_an_alarm_with_the_faulty_sensor() {
        let (_, sensors, model) = training_home();
        let (stats, alarms) = run_gateway(&model, live_events(&sensors, 60, true), 60);
        assert!(stats.alarms >= 1);
        assert!(!alarms.is_empty());
        assert!(alarms[0].devices().contains(&DeviceId::Sensor(sensors[1])));
    }

    #[test]
    fn streaming_matches_offline_replay() {
        let (_, sensors, model) = training_home();
        let events = live_events(&sensors, 60, true);
        // Offline.
        let mut log: EventLog = events.iter().copied().collect();
        let mut engine = DiceEngine::new(&model);
        let mut offline = engine.process_range(&mut log, Timestamp::ZERO, Timestamp::from_mins(60));
        offline.extend(engine.flush());
        // Streaming (the gateway deduplicates repeat alarms, so compare the
        // first report, which carries the detection).
        let (_, alarms) = run_gateway(&model, events, 60);
        let streamed: Vec<FaultReport> = alarms.into_iter().map(|a| a.report).collect();
        assert!(!streamed.is_empty());
        assert_eq!(streamed[0], offline[0]);
    }

    #[test]
    fn telemetry_sees_gateway_and_engine_layers_in_one_recorder() {
        let (_, sensors, model) = training_home();
        let telemetry = Telemetry::recording();
        let events = live_events(&sensors, 60, true);
        let parts = partition_by_device(&events, 3);
        let mut receivers = Vec::new();
        let mut handles = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            handles.push(spawn_aggregator(format!("a{i}"), part, tx));
            receivers.push(rx);
        }
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway =
            HomeGateway::with_telemetry(&model, TimeDelta::from_mins(60), telemetry.clone());
        let stats = gateway.run(
            receivers,
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(60),
        );
        for handle in handles {
            handle.join().unwrap();
        }
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(
            snapshot.counter("dice_gateway_windows_total"),
            Some(stats.windows)
        );
        assert_eq!(
            snapshot.counter("dice_gateway_events_total"),
            Some(stats.events)
        );
        // Every frame carried one event; out-of-range events are received
        // but not accepted, so frames >= accepted events.
        assert!(snapshot.counter("dice_gateway_frames_total").unwrap() >= stats.events);
        assert_eq!(
            snapshot.counter("dice_gateway_alarms_total"),
            Some(stats.alarms)
        );
        // The engine shares the recorder: its windows match the gateway's.
        assert_eq!(
            snapshot.counter("dice_engine_windows_total"),
            Some(stats.windows)
        );
        // All aggregators hung up by the end of the run.
        assert_eq!(snapshot.gauge("dice_gateway_streams_connected"), Some(0));
        // Dimensional mirrors: the default home label carries the same
        // counts, and every window fed the latency sketch.
        assert_eq!(
            snapshot.family_value("dice_gateway_home_windows_total", &["home0"]),
            Some(i128::from(stats.windows))
        );
        assert_eq!(
            snapshot.family_value("dice_gateway_home_alarms_total", &["home0"]),
            Some(i128::from(stats.alarms))
        );
        let (count, _) = snapshot.sketch("dice_gateway_window_ns").unwrap();
        assert_eq!(count, stats.windows);
        assert!(snapshot
            .family_value("dice_gateway_shard_depth", &["s0"])
            .is_some());
    }

    #[test]
    fn observer_fires_once_per_window_in_order() {
        let (_, sensors, model) = training_home();
        let events = live_events(&sensors, 10, false);
        let (tx, rx) = unbounded();
        for event in &events {
            tx.send(crate::message::encode_event(event)).unwrap();
        }
        drop(tx);
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway = HomeGateway::new(&model);
        let mut closed = Vec::new();
        let stats = gateway.run_with_observer(
            vec![rx],
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(10),
            |end| closed.push(end),
        );
        assert_eq!(closed.len() as u64, stats.windows);
        assert!(
            closed.windows(2).all(|w| w[0] < w[1]),
            "out of order: {closed:?}"
        );
        assert_eq!(*closed.last().unwrap(), Timestamp::from_mins(10));
    }

    #[test]
    fn alarm_trace_snapshots_persist_as_parseable_jsonl() {
        let (_, sensors, model) = training_home();
        // A Write handle over a shared buffer, so the test can read back
        // what the gateway persisted.
        struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buffer = std::sync::Arc::new(Mutex::new(Vec::new()));
        let options = EngineOptions {
            trace: dice_core::TraceOptions::recording(),
            ..EngineOptions::default()
        };
        let gateway = HomeGateway::with_engine_options(&model, TimeDelta::from_mins(60), options)
            .with_alarm_trace_writer(Box::new(SharedBuf(std::sync::Arc::clone(&buffer))));

        let events = live_events(&sensors, 60, true);
        let parts = partition_by_device(&events, 3);
        let mut receivers = Vec::new();
        let mut handles = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            handles.push(spawn_aggregator(format!("a{i}"), part, tx));
            receivers.push(rx);
        }
        let (alarm_tx, alarm_rx) = unbounded();
        let stats = gateway.run(
            receivers,
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(60),
        );
        for handle in handles {
            handle.join().unwrap();
        }
        drop(alarm_tx);
        let alarms: Vec<Alarm> = alarm_rx.iter().collect();
        assert!(stats.alarms >= 1);
        assert!(!alarms[0].report.evidence.is_empty());

        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        // Byte for byte: one layout header, then every delivered alarm's
        // evidence in delivery order.
        let mut expected = String::new();
        dice_core::trace::write_header_line(
            &mut expected,
            &dice_core::TraceHeader::from_layout(model.layout()),
        );
        for alarm in &alarms {
            for trace in &alarm.report.evidence {
                dice_core::trace::write_trace_line(&mut expected, trace);
            }
        }
        assert_eq!(text, expected);
        let log = dice_core::parse_trace_jsonl(&text).expect("snapshot parses");
        assert!(!log.traces.is_empty());
        assert!(log.traces.iter().any(|t| t.reported));
        // The evidence explains the alarm: the failed sensor is named.
        let rendered = dice_core::render_explain(&log, None).unwrap();
        assert!(
            rendered.contains(&format!("{}", DeviceId::Sensor(sensors[1]))),
            "explain must name the faulty sensor:\n{rendered}"
        );
    }

    #[test]
    fn failing_alarm_trace_writer_is_silenced_not_fatal() {
        let (_, sensors, model) = training_home();
        // Every write fails, as on a full disk.
        struct FullDisk;
        impl std::io::Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let run = |writer: Option<Box<dyn std::io::Write + Send>>| {
            let telemetry = Telemetry::recording();
            let options = EngineOptions {
                trace: dice_core::TraceOptions::recording(),
                telemetry: telemetry.clone(),
                ..EngineOptions::default()
            };
            let mut gateway =
                HomeGateway::with_engine_options(&model, TimeDelta::from_mins(60), options);
            if let Some(writer) = writer {
                gateway = gateway.with_alarm_trace_writer(writer);
            }
            let (tx, rx) = unbounded();
            for event in &live_events(&sensors, 60, true) {
                tx.send(crate::message::encode_event(event)).unwrap();
            }
            drop(tx);
            let (alarm_tx, alarm_rx) = unbounded();
            gateway.run(
                vec![rx],
                &alarm_tx,
                Timestamp::ZERO,
                Timestamp::from_mins(60),
            );
            drop(alarm_tx);
            let alarms: Vec<Alarm> = alarm_rx.iter().collect();
            (alarms, telemetry.snapshot().unwrap())
        };
        let (baseline, _) = run(None);
        let (alarms, snapshot) = run(Some(Box::new(FullDisk)));
        assert!(!alarms.is_empty());
        assert!(!alarms[0].report.evidence.is_empty());
        assert_eq!(alarms, baseline);
        assert_eq!(snapshot.counter("dice_trace_snapshot_bytes_total"), Some(0));
    }

    /// The reference merge: refill every empty slot, then take the
    /// earliest pending event, ties to the lowest slot.
    fn rescan_order(streams: &[Vec<EventFrame>]) -> Vec<Event> {
        let mut queues: Vec<std::collections::VecDeque<EventFrame>> = streams
            .iter()
            .map(|frames| frames.iter().copied().collect())
            .collect();
        let mut pending: Vec<Option<Event>> = vec![None; streams.len()];
        let mut merged = Vec::new();
        loop {
            for (slot, queue) in queues.iter_mut().enumerate() {
                while pending[slot].is_none() {
                    let Some(frame) = queue.pop_front() else {
                        break;
                    };
                    pending[slot] = decode_event(frame).ok();
                }
            }
            let next = pending
                .iter()
                .enumerate()
                .filter_map(|(slot, e)| e.map(|e| (slot, e)))
                .min_by_key(|(_, e)| e.at());
            let Some((slot, _)) = next else {
                return merged;
            };
            merged.extend(pending[slot].take());
        }
    }

    /// Seeded streams with out-of-order steps, timestamp ties within and
    /// across streams, undecodable frames and empty streams: the merge
    /// yields exactly the reference order.
    #[test]
    fn merge_matches_the_rescan_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        for case in 0..300 {
            let mut id = 0;
            let mut garbage = 0;
            let streams: Vec<Vec<EventFrame>> = (0..rng.gen_range(1..=4))
                .map(|_| {
                    let mut secs = rng.gen_range(0..10i64);
                    (0..rng.gen_range(0..40))
                        .map(|_| {
                            if rng.gen_bool(0.05) {
                                garbage += 1;
                                return EventFrame::from_slice(&[0xFF]);
                            }
                            id += 1;
                            secs = (secs + rng.gen_range(-3..=4i64)).max(0);
                            crate::message::encode_event(&Event::Sensor(SensorReading::new(
                                dice_types::SensorId::new(id),
                                Timestamp::from_secs(secs),
                                true.into(),
                            )))
                        })
                        .collect()
                })
                .collect();
            let receivers = streams
                .iter()
                .map(|frames| {
                    let (tx, rx) = unbounded();
                    for frame in frames {
                        tx.send(*frame).unwrap();
                    }
                    rx
                })
                .collect();
            let mut merge = Merge::start(receivers, None);
            let mut merged = Vec::new();
            while let Some(event) = merge.next() {
                merged.push(event);
            }
            assert_eq!(merged, rescan_order(&streams), "case {case}");
            assert_eq!(merged.len(), id as usize);
            assert_eq!(merge.decode_errors, garbage);
        }
    }

    /// Seeded streams for the merge oracle: one to four streams, each of
    /// a length drawn from `frames`, starting below 10 s and moving by
    /// `step` (floored at zero) per decodable event, with one frame in
    /// twenty undecodable. Returns the streams and the decodable and
    /// undecodable frame counts.
    fn seeded_streams(
        rng: &mut rand::rngs::StdRng,
        frames: std::ops::Range<usize>,
        step: impl Fn(&mut rand::rngs::StdRng) -> i64,
    ) -> (Vec<Vec<EventFrame>>, usize, u64) {
        use rand::Rng;
        let mut id = 0;
        let mut garbage = 0;
        let streams = (0..rng.gen_range(1..=4))
            .map(|_| {
                let mut secs = rng.gen_range(0..10i64);
                (0..rng.gen_range(frames.clone()))
                    .map(|_| {
                        if rng.gen_bool(0.05) {
                            garbage += 1;
                            return EventFrame::from_slice(&[0xFF]);
                        }
                        id += 1;
                        secs = (secs + step(rng)).max(0);
                        crate::message::encode_event(&Event::Sensor(SensorReading::new(
                            dice_types::SensorId::new(id),
                            Timestamp::from_secs(secs),
                            true.into(),
                        )))
                    })
                    .collect()
            })
            .collect();
        (streams, id as usize, garbage)
    }

    /// The rescan oracle over live channels: one producer thread per
    /// stream sends over a bounded channel of capacity 1, 2 or 64, so the
    /// merge's receives block on empty queues and drain partial ones. The
    /// first 300 cases are `merge_matches_the_rescan_order`'s streams; the
    /// rest hold long same-timestamp runs that tie other streams' heads,
    /// with undecodable frames in mid-run.
    #[test]
    fn merge_over_live_bounded_channels_matches_the_rescan_order() {
        use crossbeam::channel::bounded;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        let mut runs = StdRng::seed_from_u64(19);
        for case in 0..400 {
            let (streams, events, garbage) = if case < 300 {
                seeded_streams(&mut rng, 0..40, |rng| rng.gen_range(-3..=4))
            } else {
                seeded_streams(&mut runs, 0..160, |rng| {
                    if rng.gen_bool(0.05) {
                        rng.gen_range(1..=2)
                    } else {
                        0
                    }
                })
            };
            let expected = rescan_order(&streams);
            for capacity in [1, 2, 64] {
                let (merged, decode_errors) = std::thread::scope(|scope| {
                    let receivers = streams
                        .iter()
                        .map(|frames| {
                            let (tx, rx) = bounded(capacity);
                            scope.spawn(move || {
                                for frame in frames {
                                    tx.send(*frame).unwrap();
                                }
                            });
                            rx
                        })
                        .collect();
                    let mut merge = Merge::start(receivers, None);
                    let merged: Vec<Event> = std::iter::from_fn(|| merge.next()).collect();
                    (merged, merge.decode_errors)
                });
                assert_eq!(merged, expected, "case {case}, capacity {capacity}");
                assert_eq!(merged.len(), events);
                assert_eq!(decode_errors, garbage, "case {case}, capacity {capacity}");
            }
        }
    }

    #[test]
    fn undecodable_frames_are_counted_not_fatal() {
        let (_, sensors, model) = training_home();
        let (tx, rx) = unbounded();
        tx.send(EventFrame::from_slice(&[0xFF])).unwrap(); // garbage
        for event in live_events(&sensors, 4, false) {
            tx.send(crate::message::encode_event(&event)).unwrap();
        }
        drop(tx);
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway = HomeGateway::new(&model);
        let stats = gateway.run(
            vec![rx],
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(4),
        );
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.events, 6);
    }
}
