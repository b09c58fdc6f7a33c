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
//! allocates nothing per window. The shard folds a run of one home's
//! consecutive events in one loop, once the run ends, rather than one
//! event between two frame decodes: the statistics updates of a numeric
//! sensor's samples overlap only in a tight loop.
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
use dice_types::{Event, GroupId, TimeDelta, Timestamp};

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
    /// The events of the run being ingested, all of home `run_slot` and
    /// of its open window; folded when the run ends, at the latest at the
    /// end of the batch.
    run: Vec<Event>,
    run_slot: usize,
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
            run: Vec::new(),
            run_slot: 0,
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
        self.fold_run();
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
    /// has passed, adds the event to the run folded into the open window,
    /// and sweeps a batch when enough windows are ready.
    /// Frames for unregistered homes or outside `[from, to)` are dropped.
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
        let mut closed = self.homes[slot].clock.close_passed(at);
        if slot != self.run_slot || closed.is_some() {
            // The run ends: its events belong to the window about to close
            // or to another home.
            self.fold_run();
            self.run_slot = slot;
        }
        while let Some((start, end)) = closed {
            self.close_window(slot, start, end);
            closed = self.homes[slot].clock.close_passed(at);
        }
        self.run.push(frame.event);
        if self.ready.len() >= self.batch_windows {
            self.sweep();
        }
    }

    /// Folds the pending run into its home's open window, in arrival
    /// order.
    fn fold_run(&mut self) {
        if self.run.is_empty() {
            return;
        }
        let home = &mut self.homes[self.run_slot];
        let binarizer = home.model.binarizer();
        for event in &self.run {
            home.fold.push(binarizer, event);
        }
        self.run.clear();
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
        self.fold_run();
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
