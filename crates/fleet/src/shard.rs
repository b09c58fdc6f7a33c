//! The per-shard engine pool: every home owns its windowing state and
//! engine session, the shard owns the engine machinery, and ready windows
//! are judged in sweeps.
//!
//! A shard receives packed frame batches for its subset of homes. Each
//! admitted event is folded into its home's open window (a
//! [`WindowFold`]: state words, per-numeric-sensor statistics and the
//! actuators switched on), and each home's [`WindowClock`] closes windows
//! as that home's stream passes their boundaries. Closing a window writes
//! its observation into the shard's observation pool and empties the
//! fold for the next window, so a home holds no events and a warm shard
//! allocates nothing per window.
//! When the ready list reaches the configured batch size (or the stream
//! ends) the shard correlation-checks every ready observation, then hands
//! each observation and verdict to the shard's [`EngineMachinery`] with
//! its home's [`EngineSession`] — the same judging body as
//! [`dice_core::DiceEngine::process_observation`], candidate scan
//! included, bit-identical to the unbatched path. Identification state, the decision
//! tracer, alarm cooldowns ([`AlarmLedger`]), and reports stay strictly per
//! home, so shard composition never leaks state across homes and alarm
//! output is invariant under the shard count. The frame, event and window
//! counters are published once per ingested batch and once per sweep, not
//! per frame or window.

use std::sync::Arc;

use dice_core::{
    Detector, DiceModel, EngineMachinery, EngineOptions, EngineSession, FaultReport, LineageStamp,
    WindowFold, WindowObservation,
};
use dice_gateway::{AlarmLedger, WindowClock};
use dice_telemetry::{shard_label, Telemetry};
use dice_types::{GroupId, TimeDelta, Timestamp};

use crate::frame::{decode_frames, FleetFrame, HomeId};
use crate::service::ShardBatch;
use crate::trace::{StageSketches, TraceClock};

/// What a finished shard hands back: each home's alarm reports (ascending
/// by registration slot) and the shard's counters.
pub type ShardFinish = (Vec<(HomeId, Vec<FaultReport>)>, ShardStats);

/// Counters one shard accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Wire frames decoded.
    pub frames: u64,
    /// Frame batches dropped (from the first bad frame onward).
    pub decode_errors: u64,
    /// Events accepted into the monitored range.
    pub events: u64,
    /// Windows closed and processed.
    pub windows: u64,
    /// Alarms delivered.
    pub alarms: u64,
    /// Alarms suppressed by the per-home cooldown.
    pub suppressed: u64,
}

/// One home's serving state: its model, engine session, the window clock
/// and open window's fold, and the alarm ledger.
#[derive(Debug)]
struct HomeState {
    home: HomeId,
    model: Arc<DiceModel>,
    session: EngineSession,
    clock: WindowClock,
    /// The open window, folded event by event; emptied at each close.
    fold: WindowFold,
    ledger: AlarmLedger,
    reports: Vec<FaultReport>,
}

/// A closed window waiting for the next detection sweep. Its
/// observation sits at the same index of the shard's observation pool.
#[derive(Debug)]
struct ReadyWindow {
    slot: usize,
}

/// One shard's engine pool; see the module docs for the sweep.
#[derive(Debug)]
pub struct ShardEngine {
    homes: Vec<HomeState>,
    /// Each home's slot in `homes`, sorted by home id; the last
    /// registration of a repeated id wins.
    slots: Vec<(HomeId, u32)>,
    /// The last registered home ingested and its slot: consecutive frames
    /// of one home look the home up once.
    last: Option<(HomeId, usize)>,
    ready: Vec<ReadyWindow>,
    /// Observation pool: `obs[i]` is ready window `i`, closed from its
    /// home's fold when the home's clock closed it. Slots are reused
    /// across sweeps.
    obs: Vec<WindowObservation>,
    /// The engine machinery every home's session is judged with: options,
    /// scratch, cost profile and telemetry batch, once per shard.
    machinery: EngineMachinery,
    batch_windows: usize,
    telemetry: Telemetry,
    stats: ShardStats,
    /// The counts last added to the frame, event and window counters.
    published: ShardStats,
    /// Resolved per-shard child of `dice_fleet_shard_windows_total`, so
    /// publishing never touches the family mutex.
    shard_windows: Option<Arc<dice_telemetry::Counter>>,
    /// Sweep scratch, reused across sweeps: each ready window's
    /// correlation verdict.
    mains: Vec<Option<GroupId>>,
    // §5l causal tracing state.
    shard: u32,
    tracing: bool,
    clock: TraceClock,
    /// Per-shard stage-sketch children, resolved once; `None` when
    /// telemetry is disabled or tracing is off.
    stages: Option<StageSketches>,
    /// The in-flight batch's partial stamp (lineage block, queue wait).
    pending: LineageStamp,
    /// Clock tick when the in-flight batch's ingest started.
    batch_start_ns: u64,
    /// Sweep time already spent inside the in-flight batch's ingest, so
    /// the dequeue stage excludes detection work.
    sweep_ns_in_batch: u64,
    /// Scratch: slots whose homes received reports in the current sweep.
    stamp_slots: Vec<usize>,
}

impl ShardEngine {
    /// Creates shard `shard` serving `homes` over `[from, to)`. Homes
    /// sharing a model hand in clones of the same `Arc`. With `tracing`
    /// on, stage latencies are recorded against `clock` and delivered
    /// alarms carry lineage stamps (§5l).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shard: usize,
        homes: Vec<(HomeId, Arc<DiceModel>)>,
        batch_windows: usize,
        alarm_cooldown: TimeDelta,
        from: Timestamp,
        to: Timestamp,
        telemetry: Telemetry,
        tracing: bool,
        clock: TraceClock,
    ) -> Self {
        let machinery = EngineMachinery::new(EngineOptions {
            telemetry: telemetry.clone(),
            ..EngineOptions::default()
        });
        let mut states = Vec::with_capacity(homes.len());
        let mut slots = Vec::with_capacity(homes.len());
        for (home, model) in homes {
            let clock = WindowClock::new(model.config().window(), from, to);
            let session = machinery.session(&model);
            let fold = WindowFold::new(model.binarizer());
            slots.push((home, states.len() as u32));
            states.push(HomeState {
                home,
                model,
                session,
                clock,
                fold,
                ledger: AlarmLedger::new(alarm_cooldown),
                reports: Vec::new(),
            });
        }
        slots.sort_unstable();
        slots.dedup_by(|later, earlier| {
            let repeated = later.0 == earlier.0;
            if repeated {
                earlier.1 = later.1;
            }
            repeated
        });
        let shard_windows = telemetry.recorder().map(|rec| {
            rec.metrics
                .fleet
                .shard_windows_total
                .with_label_values(&[&shard_label(shard)])
        });
        let stages = if tracing {
            StageSketches::resolve(&telemetry, shard)
        } else {
            None
        };
        ShardEngine {
            homes: states,
            slots,
            last: None,
            ready: Vec::new(),
            obs: Vec::new(),
            machinery,
            batch_windows: batch_windows.max(1),
            telemetry,
            stats: ShardStats::default(),
            published: ShardStats::default(),
            shard_windows,
            mains: Vec::new(),
            shard: u32::try_from(shard).unwrap_or(u32::MAX),
            tracing,
            clock,
            stages,
            pending: LineageStamp::default(),
            batch_start_ns: 0,
            sweep_ns_in_batch: 0,
            stamp_slots: Vec::new(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Decodes and ingests one packed batch of frames. A frame that fails
    /// to decode drops the remainder of its batch (the length framing is
    /// lost) and counts one decode error; the shard keeps serving.
    pub fn ingest_batch(&mut self, batch: &[u8]) {
        for result in decode_frames(batch) {
            match result {
                Ok(frame) => {
                    self.stats.frames += 1;
                    self.ingest(frame);
                }
                Err(error) => {
                    self.stats.decode_errors += 1;
                    if let Some(rec) = self.telemetry.recorder() {
                        rec.metrics.fleet.decode_errors_total.inc();
                        rec.events.push("fleet_decode_error", error.to_string());
                    }
                }
            }
        }
        self.publish_counts();
    }

    /// Adds the frames, events and windows counted since the last call to
    /// their telemetry counters: once per ingested batch and once per
    /// sweep instead of one shared atomic update per frame or window.
    fn publish_counts(&mut self) {
        let Some(rec) = self.telemetry.recorder() else {
            return;
        };
        let fleet = &rec.metrics.fleet;
        fleet
            .frames_total
            .add(self.stats.frames - self.published.frames);
        fleet
            .events_total
            .add(self.stats.events - self.published.events);
        let windows = self.stats.windows - self.published.windows;
        fleet.windows_total.add(windows);
        if let Some(counter) = &self.shard_windows {
            counter.add(windows);
        }
        self.published = self.stats;
    }

    /// Ingests one lineage-stamped batch off the shard queue, attributing
    /// its wall-clock to the `queue_wait` (enqueue tick to now) and
    /// `dequeue` (decode + window ingestion, excluding any sweeps that
    /// fire mid-batch) stages.
    pub(crate) fn ingest_wire_batch(&mut self, batch: &ShardBatch) {
        if !self.tracing {
            self.ingest_batch(&batch.bytes);
            return;
        }
        let t0 = self.clock.now_ns();
        let queue_wait_ns = t0.saturating_sub(batch.enqueue_ns);
        if let Some(stages) = &self.stages {
            stages.queue_wait.record(queue_wait_ns);
        }
        self.pending = LineageStamp {
            lineage: batch.lineage,
            shard: self.shard,
            frames: batch.frames,
            enqueue_wait_ns: batch.enqueue_wait_ns,
            queue_wait_ns,
            ..LineageStamp::default()
        };
        self.batch_start_ns = t0;
        self.sweep_ns_in_batch = 0;
        self.ingest_batch(&batch.bytes);
        let dequeue_ns = self
            .clock
            .now_ns()
            .saturating_sub(self.batch_start_ns)
            .saturating_sub(self.sweep_ns_in_batch);
        self.pending.dequeue_ns = dequeue_ns;
        if let Some(stages) = &self.stages {
            stages.dequeue.record(dequeue_ns);
        }
    }

    /// Ingests one decoded frame: routes it to its home (looked up once
    /// per run of that home's frames), closes windows the home's stream
    /// has passed, folds the event into the open window, and sweeps a
    /// batch when enough windows are ready.
    /// Frames for unregistered homes or outside `[from, to)` are dropped.
    // `#[inline]`, as is `FrameIter::next`: both run once per frame, and
    // inlined into `ingest_batch`'s loop the decoded frame stays in
    // registers instead of crossing two calls through the stack.
    #[inline]
    pub fn ingest(&mut self, frame: FleetFrame) {
        let slot = match self.last {
            Some((home, slot)) if home == frame.home => slot,
            _ => {
                let Ok(i) = self
                    .slots
                    .binary_search_by_key(&frame.home, |&(home, _)| home)
                else {
                    return;
                };
                let slot = self.slots[i].1 as usize;
                self.last = Some((frame.home, slot));
                slot
            }
        };
        let at = frame.event.at();
        if !self.homes[slot].clock.admits(at) {
            return;
        }
        self.stats.events += 1;
        while let Some((start, end)) = self.homes[slot].clock.close_passed(at) {
            self.close_window(slot, start, end);
        }
        let home = &mut self.homes[slot];
        home.fold.push(home.model.binarizer(), &frame.event);
        if self.ready.len() >= self.batch_windows {
            self.sweep();
        }
    }

    /// Closes `[start, end)` of home `slot`: closes its fold into the next
    /// observation-pool slot, which empties the fold for the next window,
    /// and parks the window in the ready list.
    fn close_window(&mut self, slot: usize, start: Timestamp, end: Timestamp) {
        let i = self.ready.len();
        if self.obs.len() == i {
            self.obs.push(WindowObservation::default());
        }
        let home = &mut self.homes[slot];
        home.fold
            .close_into(home.model.binarizer(), start, end, &mut self.obs[i]);
        self.ready.push(ReadyWindow { slot });
    }

    /// Runs one detection sweep over the ready windows: correlation-check
    /// each observation, then drive each home's engine in arrival order.
    fn sweep(&mut self) {
        let n = self.ready.len();
        if n == 0 {
            return;
        }
        let sweep_start_ns = if self.tracing { self.clock.now_ns() } else { 0 };

        self.mains.clear();
        for (i, rw) in self.ready.iter().enumerate() {
            let model = &self.homes[rw.slot].model;
            self.mains
                .push(Detector::new(model).correlation_check(&self.obs[i]));
        }

        // The scan stage covers the correlation checks above; a violating
        // window's candidate scan runs inside its verdict below.
        let scan_end_ns = if self.tracing { self.clock.now_ns() } else { 0 };
        let scan_ns = scan_end_ns.saturating_sub(sweep_start_ns);
        if let Some(stages) = &self.stages {
            stages.scan.record(scan_ns);
        }

        // Judge the sessions in arrival order (per-home window order is a
        // suffix of arrival order, which is what the sessions require).
        let mut publish_ns = 0u64;
        for (i, rw) in self.ready.iter().enumerate() {
            let home = &mut self.homes[rw.slot];
            let report = self.machinery.process_observation(
                &home.model,
                &mut home.session,
                &self.obs[i],
                self.mains[i],
            );
            if let Some(report) = report {
                let publish_start_ns = if self.tracing { self.clock.now_ns() } else { 0 };
                let delivered = Self::deliver(home, report, &mut self.stats, &self.telemetry);
                if self.tracing {
                    let d = self.clock.now_ns().saturating_sub(publish_start_ns);
                    publish_ns += d;
                    if let Some(stages) = &self.stages {
                        stages.publish.record(d);
                    }
                    if delivered {
                        self.stamp_slots.push(rw.slot);
                    }
                }
            }
        }
        self.ready.clear();
        self.stats.windows += n as u64;
        self.publish_counts();

        if self.tracing {
            let verdict_end_ns = self.clock.now_ns();
            let verdict_ns = verdict_end_ns
                .saturating_sub(scan_end_ns)
                .saturating_sub(publish_ns);
            if let Some(stages) = &self.stages {
                stages.verdict.record(verdict_ns);
            }
            // The completed stage picture for this sweep, against the
            // batch whose ingest triggered it. `dequeue_ns` is the batch's
            // ingest time up to this sweep (the batch may still be
            // mid-decode).
            let stamp = LineageStamp {
                dequeue_ns: sweep_start_ns
                    .saturating_sub(self.batch_start_ns)
                    .saturating_sub(self.sweep_ns_in_batch),
                scan_ns,
                verdict_ns,
                publish_ns,
                ..self.pending
            };
            // Stamp the reports this sweep delivered (every unstamped
            // report of a touched home is from this sweep; earlier sweeps
            // stamped theirs).
            while let Some(slot) = self.stamp_slots.pop() {
                let home = &mut self.homes[slot];
                for report in home.reports.iter_mut().rev() {
                    if report.lineage.is_some() {
                        break;
                    }
                    report.lineage = Some(stamp);
                    if let Some(rec) = self.telemetry.recorder() {
                        rec.events
                            .push("fleet_alarm_lineage", format!("home {} {stamp}", home.home));
                    }
                }
            }
            self.sweep_ns_in_batch += verdict_end_ns.saturating_sub(sweep_start_ns);
        }
    }

    /// Delivers one report through the home's [`AlarmLedger`]. Returns
    /// whether the report was delivered (vs suppressed).
    fn deliver(
        home: &mut HomeState,
        report: FaultReport,
        stats: &mut ShardStats,
        telemetry: &Telemetry,
    ) -> bool {
        if home.ledger.admit(&report) {
            stats.alarms += 1;
            if let Some(rec) = telemetry.recorder() {
                rec.metrics.fleet.alarms_total.inc();
            }
            home.reports.push(report);
            true
        } else {
            stats.suppressed += 1;
            if let Some(rec) = telemetry.recorder() {
                rec.metrics.fleet.alarms_suppressed_total.inc();
            }
            false
        }
    }

    /// Closes every home's remaining windows up to `to`, sweeps the final
    /// batch, flushes the sessions, and returns each home's alarm reports
    /// (ascending by registration slot) and the shard's counters.
    pub fn finish(mut self) -> ShardFinish {
        for slot in 0..self.homes.len() {
            while let Some((start, end)) = self.homes[slot].clock.close_remaining() {
                self.close_window(slot, start, end);
                if self.ready.len() >= self.batch_windows {
                    self.sweep();
                }
            }
        }
        self.sweep();
        for slot in 0..self.homes.len() {
            let home = &mut self.homes[slot];
            if let Some(report) = self.machinery.flush(&home.model, &mut home.session) {
                Self::deliver(home, report, &mut self.stats, &self.telemetry);
            }
        }
        self.publish_counts();
        let out = self
            .homes
            .into_iter()
            .map(|h| (h.home, h.reports))
            .collect();
        (out, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use dice_core::{ContextExtractor, DiceConfig};
    use dice_types::{
        ActuatorEvent, ActuatorId, ActuatorKind, DeviceRegistry, Event, EventLog, Room, SensorId,
        SensorKind, SensorReading,
    };
    use proptest::TestRng;

    use crate::frame::encode_frame_into;

    /// The events of `minute` on a floor plan: motion sensors 0 and 1
    /// together on even minutes and sensor 2 on odd ones; with a bulb,
    /// sensor 2 is a temperature sampled three times a minute, warming
    /// while the bulb is on (even minutes) and cooling while it is off.
    fn plan_minute(sensors: &[SensorId], bulb: Option<ActuatorId>, minute: i64) -> Vec<Event> {
        let at = |secs: i64| Timestamp::from_mins(minute) + TimeDelta::from_secs(secs);
        let even = minute % 2 == 0;
        let Some(bulb) = bulb else {
            let fire = if even { &sensors[..2] } else { &sensors[2..] };
            return fire
                .iter()
                .map(|&sensor| Event::Sensor(SensorReading::new(sensor, at(5), true.into())))
                .collect();
        };
        let temps = if even {
            [20.0, 21.0, 23.0]
        } else {
            [23.0, 22.0, 20.0]
        };
        let mut events: Vec<Event> = (0i64..)
            .zip(temps)
            .map(|(k, temp)| Event::Sensor(SensorReading::new(sensors[2], at(20 * k), temp.into())))
            .collect();
        let motion = sensors[usize::from(!even)];
        events.push(Event::Sensor(SensorReading::new(
            motion,
            at(5),
            true.into(),
        )));
        events.push(Event::Actuator(ActuatorEvent::new(bulb, at(8), even)));
        events.sort_by_key(Event::at);
        events
    }

    /// A floor plan: its devices and the model trained on 240 minutes of
    /// [`plan_minute`].
    struct Plan {
        model: Arc<DiceModel>,
        sensors: Vec<SensorId>,
        bulb: Option<ActuatorId>,
    }

    impl Plan {
        /// Three motion sensors, or two and a temperature sensor next to
        /// a bulb.
        fn train(numeric: bool) -> Plan {
            let mut registry = DeviceRegistry::new();
            let mut sensors: Vec<SensorId> = (0..2)
                .map(|i| registry.add_sensor(SensorKind::Motion, format!("m{i}"), Room::Kitchen))
                .collect();
            let (third, bulb) = if numeric {
                let bulb = registry.add_actuator(ActuatorKind::SmartBulb, "hue", Room::Kitchen);
                (SensorKind::Temperature, Some(bulb))
            } else {
                (SensorKind::Motion, None)
            };
            sensors.push(registry.add_sensor(third, "s2", Room::Kitchen));
            let mut log: EventLog = (0..240)
                .flat_map(|minute| plan_minute(&sensors, bulb, minute))
                .collect();
            let model = ContextExtractor::new(DiceConfig::default())
                .extract(&registry, &mut log)
                .expect("training log is non-empty");
            Plan {
                model: Arc::new(model),
                sensors,
                bulb,
            }
        }

        fn minute(&self, minute: i64) -> Vec<Event> {
            plan_minute(&self.sensors, self.bulb, minute)
        }
    }

    /// A shard over `[from, to)` judging three windows per sweep.
    fn shard(homes: Vec<(HomeId, Arc<DiceModel>)>, from: Timestamp, to: Timestamp) -> ShardEngine {
        ShardEngine::new(
            0,
            homes,
            3,
            TimeDelta::from_mins(30),
            from,
            to,
            Telemetry::noop(),
            false,
            TraceClock::manual().0,
        )
    }

    /// Each home's reports, rendered for comparison, in registration order.
    fn rendered(alarms: &[(HomeId, Vec<FaultReport>)]) -> Vec<String> {
        alarms
            .iter()
            .map(|(_, reports)| format!("{reports:?}"))
            .collect()
    }

    /// Messy packed batches reach the same state through `ingest_batch` as
    /// through `decode_frames` and `ingest` frame by frame, and the same
    /// alarms as a shard fed only the frames it should admit. Homes
    /// interleave in runs of one to eight frames that split across batches
    /// and cross window boundaries; some frames name unregistered homes or
    /// fall outside `[from, to)`; a corrupt frame in mid-batch loses the
    /// rest of its batch; one home id is registered twice, its last
    /// registration serving it; and each home's sensors fail or fire at
    /// random from minute 15 on, so alarms are raised and suppressed.
    #[test]
    fn batch_and_frame_by_frame_ingest_agree_on_messy_batches() {
        let motion = Plan::train(false);
        let numeric = Plan::train(true);
        let (from, to) = (Timestamp::from_mins(5), Timestamp::from_secs(50 * 60 + 30));
        // Home 7 is registered twice, on the motion plan and then on the
        // numeric plan, which serves it. In the clean reference its first
        // registration is an id no frame names.
        let served: [(HomeId, &Plan); 4] =
            [(3, &motion), (7, &numeric), (11, &numeric), (20, &motion)];
        let registered = |first_id: HomeId| {
            [
                (3, &motion),
                (first_id, &motion),
                (11, &numeric),
                (20, &motion),
                (7, &numeric),
            ]
            .into_iter()
            .map(|(home, plan)| (home, Arc::clone(&plan.model)))
            .collect::<Vec<_>>()
        };
        let (mut alarms_seen, mut runs_crossing_windows, mut runs_split) = (0, 0, 0);
        for seed in 0..6 {
            let mut rng = TestRng::deterministic(&format!("shard ingest seed {seed}"));
            // Each home's stream over minutes 0..56, faulted from minute 15:
            // a dropped event or a stray firing of a known or unknown sensor.
            let mut streams: Vec<(HomeId, Vec<Event>)> = Vec::new();
            let unregistered = [(5, &motion), (HomeId::MAX, &numeric)];
            for &(home, plan) in served.iter().chain(&unregistered) {
                let mut events = Vec::new();
                for minute in 0..56 {
                    for event in plan.minute(minute) {
                        if minute < 15 || rng.next_index(4) != 0 {
                            events.push(event);
                        }
                    }
                    if minute >= 15 && rng.next_index(3) == 0 {
                        let sensor = match rng.next_index(4) {
                            3 => SensorId::new(50),
                            i => plan.sensors[i.min(2)],
                        };
                        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(40);
                        events.push(Event::Sensor(SensorReading::new(sensor, at, true.into())));
                    }
                }
                events.reverse(); // popped from the back in time order
                streams.push((home, events));
            }
            // Interleave runs of one home's frames.
            let mut frames: Vec<(HomeId, Event)> = Vec::new();
            while streams.iter().any(|(_, events)| !events.is_empty()) {
                let pick = rng.next_index(streams.len());
                let (home, events) = &mut streams[pick];
                let run = &events[events.len().saturating_sub(1 + rng.next_index(8))..];
                if let (Some(last), Some(first)) = (run.first(), run.last()) {
                    runs_crossing_windows +=
                        usize::from(first.at().as_mins() < last.at().as_mins());
                }
                for _ in 0..run.len() {
                    frames.extend(events.pop().map(|event| (*home, event)));
                }
            }
            // Pack them into batches of 1 to 40 frames; one batch in five
            // carries a corrupt frame that loses the rest of it.
            let (mut batches, mut clean) = (Vec::new(), Vec::new());
            let (mut kept, mut lost_batches, mut admitted) = (0, 0, 0);
            let mut rest = &frames[..];
            while !rest.is_empty() {
                let (batch_frames, tail) = rest.split_at((1 + rng.next_index(40)).min(rest.len()));
                rest = tail;
                if let (Some(last), Some(next)) = (batch_frames.last(), tail.first()) {
                    runs_split += usize::from(last.0 == next.0);
                }
                let corrupt_at =
                    (rng.next_index(5) == 0).then(|| rng.next_index(batch_frames.len()));
                let (mut batch, mut reference) = (BytesMut::new(), BytesMut::new());
                for (i, (home, event)) in batch_frames.iter().enumerate() {
                    if corrupt_at == Some(i) {
                        let mut bad = BytesMut::new();
                        encode_frame_into(*home, event, &mut bad);
                        // An unknown version, an oversized body, or an
                        // unknown event tag.
                        match rng.next_index(3) {
                            0 => bad[2] = 9,
                            1 => bad[1] = 200,
                            _ => bad[7] = 0x7F,
                        }
                        batch.put_slice(&bad);
                        lost_batches += 1;
                    }
                    encode_frame_into(*home, event, &mut batch);
                    if corrupt_at.is_some_and(|at| i >= at) {
                        continue;
                    }
                    kept += 1;
                    let at = event.at();
                    if served.iter().any(|&(h, _)| h == *home) && at >= from && at < to {
                        admitted += 1;
                        encode_frame_into(*home, event, &mut reference);
                    }
                }
                batches.push(batch);
                clean.push(reference);
            }

            let mut by_batch = shard(registered(7), from, to);
            let mut by_frame = shard(registered(7), from, to);
            let mut reference = shard(registered(1000), from, to);
            let (mut frames_decoded, mut decode_errors) = (0, 0);
            for (batch, clean) in batches.iter().zip(&clean) {
                by_batch.ingest_batch(batch);
                for frame in decode_frames(batch) {
                    match frame {
                        Ok(frame) => {
                            frames_decoded += 1;
                            by_frame.ingest(frame);
                        }
                        Err(_) => decode_errors += 1,
                    }
                }
                reference.ingest_batch(clean);
            }
            let (batch_alarms, batch_stats) = by_batch.finish();
            let (frame_alarms, frame_stats) = by_frame.finish();
            let (reference_alarms, reference_stats) = reference.finish();

            assert_eq!(
                (frames_decoded, decode_errors),
                (kept, lost_batches),
                "seed {seed}"
            );
            assert_eq!(
                batch_stats,
                ShardStats {
                    frames: frames_decoded,
                    decode_errors,
                    ..frame_stats
                },
                "seed {seed}"
            );
            assert_eq!(
                rendered(&batch_alarms),
                rendered(&frame_alarms),
                "seed {seed}"
            );
            let ids = |alarms: &[(HomeId, Vec<FaultReport>)]| -> Vec<HomeId> {
                alarms.iter().map(|(home, _)| *home).collect()
            };
            assert_eq!(ids(&batch_alarms), [3, 7, 11, 20, 7]);
            assert_eq!(ids(&frame_alarms), [3, 7, 11, 20, 7]);

            assert_eq!(batch_stats.events, admitted, "seed {seed}");
            assert_eq!(
                batch_stats,
                ShardStats {
                    frames: kept,
                    decode_errors: lost_batches,
                    ..reference_stats
                },
                "seed {seed}"
            );
            assert_eq!(
                rendered(&batch_alarms),
                rendered(&reference_alarms),
                "seed {seed}"
            );
            alarms_seen += batch_stats.alarms;
        }
        assert!(alarms_seen > 0, "the faults raise alarms");
        assert!(runs_crossing_windows > 0 && runs_split > 0);
    }
}
