//! The per-shard engine pool: every home owns its windowing state and
//! engine, ready windows are detected in cross-home batches.
//!
//! A shard receives packed frame batches for its subset of homes and
//! closes each home's windows through its [`WindowClock`] as that home's
//! stream passes their boundaries. Closing a window binarizes it, once,
//! into the shard's observation pool and clears the home's event buffer
//! for the next window, so a warm shard allocates nothing per window.
//! When the ready list reaches the configured batch size (or the stream
//! ends) the shard correlation-checks every ready observation, resolves
//! every violating window's candidate scan in one batched sweep per
//! distinct model — the natural batches `candidates_batch_into` was built
//! for — and then hands each observation, verdict and candidate list to
//! its home's engine through [`DiceEngine::process_observation`], which is
//! bit-identical to the unbatched path. Identification state, alarm
//! cooldowns ([`AlarmLedger`]), and reports stay strictly per home, so
//! shard composition never leaks state across homes and alarm output is
//! invariant under the shard count. The frame, event and window counters
//! are published once per ingested batch and once per sweep, not per
//! frame or window.

use std::collections::BTreeMap;
use std::sync::Arc;

use dice_core::{
    BinarizeScratch, BitSet, Candidate, Detector, DiceEngine, DiceModel, EngineOptions,
    FaultReport, LineageStamp, ScanProfile, WindowObservation, WindowPrescan,
};
use dice_gateway::{AlarmLedger, WindowClock};
use dice_telemetry::{shard_label, SlotRing, Telemetry};
use dice_types::{Event, GroupId, TimeDelta, Timestamp};

use crate::frame::{decode_frames, FleetFrame, HomeId};
use crate::service::ShardBatch;
use crate::trace::{StageSketches, TraceClock};

/// Stage-annotated lineage records a shard retains (flight-recorder
/// discipline: bounded ring, slots reused in place).
pub const LINEAGE_RING_CAPACITY: usize = 128;

/// What a finished shard hands back: each home's alarm reports (ascending
/// by registration slot), the shard's counters, and the retained lineage
/// records (oldest first).
pub type ShardFinish = (
    Vec<(HomeId, Vec<FaultReport>)>,
    ShardStats,
    Vec<LineageStamp>,
);

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
    /// Cross-home batched candidate scans issued.
    pub batched_scans: u64,
    /// Alarms delivered.
    pub alarms: u64,
    /// Alarms suppressed by the per-home cooldown.
    pub suppressed: u64,
}

/// One home's serving state: its engine, the window clock and open
/// window's events, and the alarm ledger.
#[derive(Debug)]
struct HomeState {
    home: HomeId,
    /// A second handle to the engine's model, kept beside the window state
    /// that ingest has just written: closing and sweeping a window read
    /// the model, and on shards with many homes reading the engine's copy
    /// instead costs a cache miss per window.
    model: Arc<DiceModel>,
    engine: DiceEngine<Arc<DiceModel>>,
    clock: WindowClock,
    /// The open window's events; cleared (capacity kept) at each close.
    events: Vec<Event>,
    ledger: AlarmLedger,
    reports: Vec<FaultReport>,
}

/// A closed window waiting for the next batched detection sweep. Its
/// observation sits at the same index of the shard's observation pool.
#[derive(Debug)]
struct ReadyWindow {
    slot: usize,
}

/// One shard's engine pool; see the module docs for the batching scheme.
#[derive(Debug)]
pub struct ShardEngine {
    homes: Vec<HomeState>,
    slots: BTreeMap<HomeId, usize>,
    ready: Vec<ReadyWindow>,
    /// Observation pool: `obs[i]` is ready window `i`, binarized when its
    /// home's clock closed it. Slots are reused across sweeps.
    obs: Vec<WindowObservation>,
    bin_scratch: BinarizeScratch,
    batch_windows: usize,
    telemetry: Telemetry,
    stats: ShardStats,
    /// The counts last added to the frame, event and window counters.
    published: ShardStats,
    /// Resolved per-shard child of `dice_fleet_shard_windows_total`, so
    /// publishing never touches the family mutex.
    shard_windows: Option<Arc<dice_telemetry::Counter>>,
    // Sweep scratch, reused across sweeps.
    /// Each ready window's correlation verdict.
    mains: Vec<Option<GroupId>>,
    /// Violating ready windows grouped by model, in first-seen order over
    /// the shard's life; emptied, not dropped, at each sweep.
    model_groups: Vec<(Arc<DiceModel>, Vec<usize>)>,
    /// Each violating ready window's resolved candidates.
    resolved: Vec<Vec<Candidate>>,
    /// Scan work attributed to each ready window.
    profiles: Vec<ScanProfile>,
    /// Batched scan outputs, swapped into `resolved`.
    cand_batch: Vec<Vec<Candidate>>,
    near_batch: Vec<Vec<Candidate>>,
    // §5l causal tracing state.
    shard: u32,
    tracing: bool,
    clock: TraceClock,
    /// Per-shard stage-sketch children, resolved once; `None` when
    /// telemetry is disabled or tracing is off.
    stages: Option<StageSketches>,
    /// Stage-annotated lineage records, oldest-first bounded ring.
    ring: SlotRing<LineageStamp>,
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
    /// on, stage latencies are recorded against `clock` and lineage
    /// records retained (§5l).
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
        let mut states = Vec::with_capacity(homes.len());
        let mut slots = BTreeMap::new();
        for (home, model) in homes {
            let clock = WindowClock::new(model.config().window(), from, to);
            let engine = DiceEngine::with_options(
                Arc::clone(&model),
                EngineOptions {
                    telemetry: telemetry.clone(),
                    ..EngineOptions::default()
                },
            );
            slots.insert(home, states.len());
            states.push(HomeState {
                home,
                model,
                engine,
                clock,
                events: Vec::new(),
                ledger: AlarmLedger::new(alarm_cooldown),
                reports: Vec::new(),
            });
        }
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
            ready: Vec::new(),
            obs: Vec::new(),
            bin_scratch: BinarizeScratch::default(),
            batch_windows: batch_windows.max(1),
            telemetry,
            stats: ShardStats::default(),
            published: ShardStats::default(),
            shard_windows,
            mains: Vec::new(),
            model_groups: Vec::new(),
            resolved: Vec::new(),
            profiles: Vec::new(),
            cand_batch: Vec::new(),
            near_batch: Vec::new(),
            shard: u32::try_from(shard).unwrap_or(u32::MAX),
            tracing,
            clock,
            stages,
            ring: SlotRing::new(LINEAGE_RING_CAPACITY),
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

    /// Ingests one decoded frame: routes it to its home, closes windows
    /// the home's stream has passed, and sweeps a batch when enough
    /// windows are ready. Frames for unregistered homes or outside
    /// `[from, to)` are dropped.
    pub fn ingest(&mut self, frame: FleetFrame) {
        let Some(&slot) = self.slots.get(&frame.home) else {
            return;
        };
        let at = frame.event.at();
        if !self.homes[slot].clock.admits(at) {
            return;
        }
        self.stats.events += 1;
        while let Some((start, end)) = self.homes[slot].clock.close_passed(at) {
            self.close_window(slot, start, end);
        }
        self.homes[slot].events.push(frame.event);
        if self.ready.len() >= self.batch_windows {
            self.sweep();
        }
    }

    /// Closes `[start, end)` of home `slot`: binarizes its events into the
    /// next observation-pool slot, clears the event buffer for the next
    /// window, and parks the window in the ready list.
    fn close_window(&mut self, slot: usize, start: Timestamp, end: Timestamp) {
        let i = self.ready.len();
        if self.obs.len() == i {
            self.obs.push(WindowObservation::default());
        }
        let home = &mut self.homes[slot];
        home.model.binarizer().binarize_into(
            start,
            end,
            &home.events,
            &mut self.bin_scratch,
            &mut self.obs[i],
        );
        home.events.clear();
        self.ready.push(ReadyWindow { slot });
    }

    /// Runs one batched detection sweep over the ready windows:
    /// correlation-check each observation, resolve every violating
    /// window's candidate scan through one batched scan per distinct
    /// model, then drive each home's engine in arrival order.
    fn sweep(&mut self) {
        let n = self.ready.len();
        if n == 0 {
            return;
        }
        let sweep_start_ns = if self.tracing { self.clock.now_ns() } else { 0 };

        // Correlation-check every ready window, and group the violating
        // ones by model identity (a linear scan over the handful of
        // distinct models per shard, in first-seen order so the sweep
        // stays deterministic).
        self.mains.clear();
        for (_, idxs) in &mut self.model_groups {
            idxs.clear();
        }
        for (i, rw) in self.ready.iter().enumerate() {
            let model = &self.homes[rw.slot].model;
            let main = Detector::new(model).correlation_check(&self.obs[i]);
            self.mains.push(main);
            if main.is_some() {
                continue;
            }
            match self
                .model_groups
                .iter_mut()
                .find(|(m, _)| Arc::ptr_eq(m, model))
            {
                Some((_, idxs)) => idxs.push(i),
                None => self.model_groups.push((Arc::clone(model), vec![i])),
            }
        }

        // One batched candidate scan per model, with the nearest-group
        // fallback batched over the slots that came back empty — exactly
        // what the engine's own per-window scan would have produced.
        if self.resolved.len() < n {
            self.resolved.resize_with(n, Vec::new);
        }
        self.profiles.clear();
        self.profiles.resize(n, ScanProfile::default());
        for (model, idxs) in &self.model_groups {
            if idxs.is_empty() {
                continue;
            }
            let queries: Vec<&BitSet> = idxs.iter().map(|&i| &self.obs[i].state).collect();
            let mut profile = model.scan().candidates_batch_into(
                &queries,
                model.candidate_distance(),
                &mut self.cand_batch,
            );
            let empty: Vec<usize> = (0..idxs.len())
                .filter(|&j| self.cand_batch[j].is_empty())
                .collect();
            if !empty.is_empty() {
                let fallback: Vec<&BitSet> = empty.iter().map(|&j| queries[j]).collect();
                profile.absorb(
                    model
                        .scan()
                        .nearest_batch_into(&fallback, &mut self.near_batch),
                );
                for (k, &j) in empty.iter().enumerate() {
                    std::mem::swap(&mut self.cand_batch[j], &mut self.near_batch[k]);
                }
            }
            // Swapping keeps every candidate buffer's capacity in play.
            for (j, &i) in idxs.iter().enumerate() {
                std::mem::swap(&mut self.resolved[i], &mut self.cand_batch[j]);
            }
            // Attribute the whole batch's scan work to its first window;
            // process-level totals stay accurate.
            self.profiles[idxs[0]] = profile;
            self.stats.batched_scans += 1;
            if let Some(rec) = self.telemetry.recorder() {
                rec.metrics.fleet.batched_scans_total.inc();
            }
        }

        // The scan stage covers everything from sweep entry through the
        // batched candidate resolution above.
        let scan_end_ns = if self.tracing { self.clock.now_ns() } else { 0 };
        let scan_ns = scan_end_ns.saturating_sub(sweep_start_ns);
        if let Some(stages) = &self.stages {
            stages.scan.record(scan_ns);
        }

        // Drive the engines in arrival order (per-home window order is a
        // suffix of arrival order, which is what the engines require).
        let mut publish_ns = 0u64;
        for (i, rw) in self.ready.iter().enumerate() {
            let home = &mut self.homes[rw.slot];
            let report = home.engine.process_observation(
                &self.obs[i],
                WindowPrescan {
                    main: self.mains[i],
                    candidates: &self.resolved[i],
                    profile: self.profiles[i],
                },
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
            self.ring.push_with(|_, slot| *slot = stamp);
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
    /// batch, flushes the engines, and returns each home's alarm reports
    /// (ascending by registration slot), the shard's counters, and the
    /// retained lineage records (oldest first).
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
            if let Some(report) = home.engine.flush() {
                Self::deliver(home, report, &mut self.stats, &self.telemetry);
            }
        }
        self.publish_counts();
        let records = self.ring.iter().copied().collect();
        let out = self
            .homes
            .into_iter()
            .map(|h| (h.home, h.reports))
            .collect();
        (out, self.stats, records)
    }
}
