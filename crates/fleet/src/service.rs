//! The fleet service: shard threads behind bounded queues, fed through
//! the binary wire frame.
//!
//! [`Fleet::run`] spawns one thread per shard, hands the caller a
//! [`FleetSender`] that encodes events into per-shard frame batches, and
//! routes every batch through a bounded channel — the ingestion boundary
//! is bytes on a queue, exactly what a socket transport would deliver.
//! Back-pressure is accounted, never dropped: a send that finds its shard
//! queue full blocks (and counts the wait, in occurrences *and*
//! nanoseconds) rather than shedding frames. Alarm output is invariant
//! under the shard count because a home's whole stream flows through
//! exactly one shard in order, and every shard's state is strictly per
//! home.
//!
//! Every flushed batch carries a causal lineage block — a contiguous
//! range of monotone ids stamped at this boundary — plus its enqueue tick,
//! so the shard side can attribute wall-clock to pipeline stages (§5l).
//!
//! Batch buffers circulate: once a shard has ingested a batch it hands the
//! buffer back to the sender through a bounded spare queue, and the sender
//! refills a spare instead of allocating, so a warm hand-off neither
//! allocates nor copies per batch.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use dice_core::{DiceModel, FaultReport};
use dice_telemetry::{shard_label, Gauge, Telemetry};
use dice_types::{Event, TimeDelta, Timestamp};

use crate::frame::{encode_frame_into, frame_home, HomeId, MAX_ENCODED_FRAME};
use crate::router::{default_shards, shard_for_home};
use crate::shard::{ShardEngine, ShardFinish};
use crate::trace::{SenderShardTrace, TraceClock};

/// How long a producer naps between retries on a full shard queue. The
/// queue is drained by a live thread, so this bounds wait-measurement
/// granularity, not correctness.
const BACKPRESSURE_RETRY: Duration = Duration::from_micros(50);

/// Tunables for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard (thread) count; 0 means [`default_shards`] — one per core.
    pub shards: usize,
    /// Bounded depth of each shard's batch queue; a send beyond it blocks
    /// and counts a back-pressure wait. It also bounds each shard's pool of
    /// spare batch buffers on their way back to the sender, at twice the
    /// capacity plus one: every buffer that can be away from the sender.
    pub queue_capacity: usize,
    /// Frames packed per batch buffer before it is flushed to the shard.
    pub frames_per_batch: usize,
    /// Ready windows a shard collects before a detection sweep.
    pub batch_windows: usize,
    /// Per-home alarm cooldown (see [`dice_gateway::AlarmLedger`]).
    pub alarm_cooldown: TimeDelta,
    /// Telemetry sink shared by the shards and their engine machinery.
    pub telemetry: Telemetry,
    /// Whether to stamp lineage and record per-stage latency sketches
    /// (§5l). Alarm output is bit-identical either way; the
    /// `fleet_tracing_overhead` bench row bounds the cost.
    pub tracing: bool,
    /// The tick source behind stage measurements. Defaults to wall time;
    /// tests and byte-stable monitor runs install a manual clock.
    pub clock: TraceClock,
    /// Fault-injection hook: stall this shard for this many milliseconds
    /// before each ingested batch, so saturation and straggler paths can
    /// be driven through the real pipeline in tests.
    pub stall: Option<(usize, u64)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 0,
            queue_capacity: 64,
            frames_per_batch: 32,
            batch_windows: 64,
            alarm_cooldown: TimeDelta::from_mins(60),
            telemetry: Telemetry::global(),
            tracing: true,
            clock: TraceClock::default(),
            stall: None,
        }
    }
}

/// One home's alarms from a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeAlarms {
    /// The home the reports belong to.
    pub home: HomeId,
    /// The home's fault reports, in emission order.
    pub reports: Vec<FaultReport>,
}

/// Aggregate counters from one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Homes served.
    pub homes: usize,
    /// Shards run.
    pub shards: usize,
    /// Distinct `DiceModel` allocations resident across all homes.
    pub models_resident: usize,
    /// Wire frames sent through the shard queues.
    pub frames: u64,
    /// Frame batches dropped as undecodable.
    pub decode_errors: u64,
    /// Events accepted into the monitored range.
    pub events: u64,
    /// Windows closed across all homes.
    pub windows: u64,
    /// Alarms delivered.
    pub alarms: u64,
    /// Alarms suppressed by per-home cooldowns.
    pub suppressed: u64,
    /// Sends that found their shard queue at capacity and blocked.
    pub backpressure_waits: u64,
    /// Nanoseconds producers spent blocked on full shard queues — the
    /// wait *time* behind `backpressure_waits`.
    pub backpressure_wait_ns: u64,
}

/// The result of one fleet run: aggregate counters plus every home's
/// alarms, ascending by home id (shard-count-invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Aggregate counters.
    pub stats: FleetStats,
    /// Per-home alarm reports, ascending by home id.
    pub alarms: Vec<HomeAlarms>,
}

/// One frame batch on a shard queue, carrying its causal lineage block
/// and enqueue tick alongside the encoded bytes. The wire format itself
/// is untouched: lineage never crosses the (simulated) socket.
#[derive(Debug)]
pub(crate) struct ShardBatch {
    /// The packed wire frames, in the sender's staging buffer itself; the
    /// shard returns the buffer once it has ingested them.
    pub bytes: BytesMut,
    /// Lineage id of the batch's first frame; the batch covers
    /// `lineage .. lineage + frames`.
    pub lineage: u64,
    /// Frames in the batch.
    pub frames: u32,
    /// Clock tick when the batch entered the queue.
    pub enqueue_ns: u64,
    /// Nanoseconds the producer spent blocked getting it in.
    pub enqueue_wait_ns: u64,
}

/// The ingestion handle [`Fleet::run`] passes to its feed closure:
/// encodes events as wire frames, packs them into per-shard batches, and
/// pushes batches through the bounded shard queues, stamping each batch
/// with a contiguous lineage-id block at this boundary.
#[derive(Debug)]
pub struct FleetSender<'a> {
    txs: &'a [Sender<ShardBatch>],
    /// Each shard's returned batch buffers, reused before allocating;
    /// empty when no buffer can come back before the feed ends.
    spares: Vec<Receiver<BytesMut>>,
    staging: Vec<BytesMut>,
    counts: Vec<usize>,
    frames_per_batch: usize,
    telemetry: &'a Telemetry,
    clock: TraceClock,
    tracing: bool,
    trace: Vec<Option<SenderShardTrace>>,
    /// The last home sent and its shard: consecutive frames of one home
    /// are routed once.
    route: Option<(HomeId, usize)>,
    next_lineage: u64,
    frames: u64,
    backpressure_waits: u64,
    backpressure_wait_ns: u64,
}

impl FleetSender<'_> {
    /// Encodes and routes one event for `home` (routed once per run of
    /// that home's events). The frame lands on its home's shard queue once
    /// the shard's staging batch fills.
    pub fn send(&mut self, home: HomeId, event: &Event) {
        let shard = match self.route {
            Some((last, shard)) if last == home => shard,
            _ => {
                let shard = shard_for_home(home, self.txs.len());
                self.route = Some((home, shard));
                shard
            }
        };
        encode_frame_into(home, event, &mut self.staging[shard]);
        self.staged(shard);
    }

    /// Routes one already-encoded fleet frame, as it arrived off a wire
    /// and well-formed or not, without decoding it: to the shard of the
    /// home its header names (shard 0 when it is too short to name one),
    /// in a batch of its own. The shard decodes it like any frame
    /// [`FleetSender::send`] encodes, so a malformed frame costs one decode
    /// error there and no other frame.
    pub fn send_frame(&mut self, frame: &[u8]) {
        let shard = shard_for_home(frame_home(frame).unwrap_or(0), self.txs.len());
        self.flush_shard(shard);
        self.staging[shard].put_slice(frame);
        self.staged(shard);
        self.flush_shard(shard);
    }

    /// Counts one frame staged for `shard` and flushes the batch once full.
    fn staged(&mut self, shard: usize) {
        self.frames += 1;
        self.counts[shard] += 1;
        if self.counts[shard] >= self.frames_per_batch {
            self.flush_shard(shard);
        }
    }

    /// Flushes every shard's partial batch.
    pub fn flush(&mut self) {
        for shard in 0..self.txs.len() {
            self.flush_shard(shard);
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.counts[shard] == 0 {
            return;
        }
        let next = match self.spares.get(shard).map(Receiver::try_recv) {
            Some(Some(mut spare)) => {
                spare.clear();
                spare
            }
            // Room for as many frames as this batch, each the longest
            // `send` encodes, so a buffer seldom has to grow (and keep a
            // doubled capacity) while it circulates.
            Some(None) => BytesMut::with_capacity(self.counts[shard] * MAX_ENCODED_FRAME),
            // No spare can come back (a preloaded run): the buffer stays
            // queued until the feed ends, so it gets room for this
            // batch's bytes, not the worst case.
            None => BytesMut::with_capacity(self.staging[shard].len()),
        };
        let bytes = std::mem::replace(&mut self.staging[shard], next);
        let frames = u32::try_from(self.counts[shard]).unwrap_or(u32::MAX);
        self.counts[shard] = 0;
        // The batch's frames take the contiguous id block
        // `next_lineage .. next_lineage + frames`, in encode order —
        // globally unique and strictly increasing per shard.
        let lineage = self.next_lineage;
        self.next_lineage += u64::from(frames);

        // The clock is read up front only when tracing records the enqueue
        // tick; otherwise only back-pressure reads it, to time the wait.
        let first_attempt_ns = self.tracing.then(|| self.clock.now_ns());
        let mut item = ShardBatch {
            bytes,
            lineage,
            frames,
            enqueue_ns: first_attempt_ns.unwrap_or(0),
            enqueue_wait_ns: 0,
        };
        let mut blocked_since: Option<u64> = None;
        loop {
            match self.txs[shard].try_send(item) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => {
                    // Back-pressure: retry until the shard drains (never
                    // shed), re-stamping the ticks so the successful
                    // attempt carries the true enqueue time and wait.
                    item = back;
                    let since = *blocked_since.get_or_insert_with(|| {
                        self.backpressure_waits += 1;
                        if let Some(rec) = self.telemetry.recorder() {
                            rec.metrics.fleet.backpressure_waits_total.inc();
                        }
                        first_attempt_ns.unwrap_or_else(|| self.clock.now_ns())
                    });
                    std::thread::sleep(BACKPRESSURE_RETRY);
                    let now = self.clock.now_ns();
                    item.enqueue_ns = now;
                    item.enqueue_wait_ns = now.saturating_sub(since);
                }
                // The shard only hangs up early if it panicked, in which
                // case the join in `run` surfaces it.
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
        let waited_ns = if let Some(since) = blocked_since {
            let waited = self.clock.now_ns().saturating_sub(since);
            self.backpressure_wait_ns += waited;
            if let Some(trace) = &self.trace[shard] {
                trace.waits.inc();
                trace.wait_ns.add(waited);
            }
            waited
        } else {
            0
        };
        if self.tracing {
            if let Some(trace) = &self.trace[shard] {
                trace.enqueue_wait.record(waited_ns);
            }
        }
    }
}

/// A sharded multi-home serving instance; register homes, then
/// [`Fleet::run`] a stream through it.
#[derive(Debug, Default)]
pub struct Fleet {
    config: FleetConfig,
    homes: Vec<(HomeId, Arc<DiceModel>)>,
    ids: BTreeSet<HomeId>,
}

impl Fleet {
    /// Creates an empty fleet with `config`.
    pub fn new(config: FleetConfig) -> Self {
        Fleet {
            config,
            homes: Vec::new(),
            ids: BTreeSet::new(),
        }
    }

    /// Registers a home served by `model`. Homes sharing a floor plan
    /// pass clones of the same `Arc` (see
    /// [`ModelCache`](crate::ModelCache)), which is what keeps fleet
    /// memory proportional to distinct models.
    ///
    /// # Panics
    ///
    /// Panics if `home` is already registered.
    pub fn register_home(&mut self, home: HomeId, model: Arc<DiceModel>) {
        assert!(self.ids.insert(home), "home {home} registered twice");
        self.homes.push((home, model));
    }

    /// Number of registered homes.
    pub fn homes(&self) -> usize {
        self.homes.len()
    }

    /// Number of distinct `DiceModel` allocations across registered homes
    /// — the fleet's model memory footprint, independent of home count.
    pub fn models_resident(&self) -> usize {
        self.homes
            .iter()
            .map(|(_, m)| Arc::as_ptr(m))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Runs the fleet over `[from, to)`: spawns the shard threads, calls
    /// `feed` with the ingestion handle, and — once `feed` returns and
    /// the queues drain — closes every home's remaining windows, flushes
    /// the engine sessions, and returns the merged result.
    pub fn run(
        self,
        from: Timestamp,
        to: Timestamp,
        feed: impl FnOnce(&mut FleetSender<'_>),
    ) -> FleetRun {
        self.run_inner(from, to, feed, false)
    }

    /// Like [`Fleet::run`], but buffers the entire feed into unbounded
    /// queues first and then drains the shards sequentially on the
    /// calling thread. With a frozen manual [`TraceClock`] the whole run
    /// — alarms, stats, depth gauges, stage sketches — is deterministic,
    /// which is what `fleet-monitor --once` needs for byte-stable frames.
    pub fn run_preloaded(
        self,
        from: Timestamp,
        to: Timestamp,
        feed: impl FnOnce(&mut FleetSender<'_>),
    ) -> FleetRun {
        self.run_inner(from, to, feed, true)
    }

    fn run_inner(
        mut self,
        from: Timestamp,
        to: Timestamp,
        feed: impl FnOnce(&mut FleetSender<'_>),
        preloaded: bool,
    ) -> FleetRun {
        let shards = if self.config.shards == 0 {
            default_shards()
        } else {
            self.config.shards
        };
        let models_resident = self.models_resident();
        let homes = self.homes.len();
        let telemetry = &self.config.telemetry;
        if let Some(rec) = telemetry.recorder() {
            rec.metrics.fleet.homes.set(homes as i64);
            rec.metrics.fleet.shards.set(shards as i64);
            rec.metrics
                .fleet
                .models_resident
                .set(models_resident as i64);
        }

        // The registration list moves into the shards, so the fleet holds
        // no second copy of it while they serve.
        let mut shard_homes: Vec<Vec<(HomeId, Arc<DiceModel>)>> = vec![Vec::new(); shards];
        for (home, model) in std::mem::take(&mut self.homes) {
            shard_homes[shard_for_home(home, shards)].push((home, model));
        }
        self.ids = BTreeSet::new();

        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        let mut spare_txs = Vec::with_capacity(shards);
        let mut spare_rxs = Vec::with_capacity(shards);
        let queue_capacity = self.config.queue_capacity.max(1);
        for _ in 0..shards {
            let (tx, rx) = if preloaded {
                unbounded::<ShardBatch>()
            } else {
                bounded::<ShardBatch>(queue_capacity)
            };
            txs.push(tx);
            rxs.push(rx);
            // Room for every buffer that can be away from the sender at
            // once: a full queue, a full drain on the shard (the receiver
            // takes its queue whole), and the batch the sender is blocked
            // on. No returned buffer is then dropped while the sender
            // lives, so however the threads interleave, a run creates at
            // most this many buffers per shard plus the staging buffer.
            let (spare_tx, spare_rx) = bounded::<BytesMut>(2 * queue_capacity + 1);
            spare_txs.push(spare_tx);
            spare_rxs.push(spare_rx);
        }

        // One shard's whole life: build its engine, drain its queue
        // (returning each batch buffer to the sender), and close out its
        // homes.
        let serve_shard = |shard: usize,
                           (rx, spares): (Receiver<ShardBatch>, Sender<BytesMut>),
                           homes: Vec<(HomeId, Arc<DiceModel>)>| {
            let mut engine = ShardEngine::new(
                shard,
                homes,
                self.config.batch_windows,
                self.config.alarm_cooldown,
                from,
                to,
                telemetry.clone(),
                self.config.tracing,
                self.config.clock.clone(),
            );
            drain_shard(
                &mut engine,
                &rx,
                &spares,
                telemetry,
                shard,
                self.config.stall,
            );
            engine.finish()
        };

        let mut run = FleetRun {
            stats: FleetStats {
                homes,
                shards,
                models_resident,
                ..FleetStats::default()
            },
            alarms: Vec::with_capacity(homes),
        };
        let shard_inputs = rxs.into_iter().zip(spare_txs).zip(shard_homes).enumerate();
        if preloaded {
            // The shards drain only once the whole feed is queued, so the
            // sender gets no spare queues to wait on.
            drop(spare_rxs);
            feed_shards(&self.config, txs, Vec::new(), feed, &mut run.stats);
            for (shard, (queues, homes)) in shard_inputs {
                absorb_shard(&mut run, serve_shard(shard, queues, homes));
            }
        } else {
            std::thread::scope(|scope| {
                let serve_shard = &serve_shard;
                let handles: Vec<_> = shard_inputs
                    .map(|(shard, (queues, homes))| {
                        scope.spawn(move || serve_shard(shard, queues, homes))
                    })
                    .collect();
                feed_shards(&self.config, txs, spare_rxs, feed, &mut run.stats);
                for handle in handles {
                    absorb_shard(&mut run, handle.join().expect("shard thread panicked"));
                }
            });
        }
        run.alarms.sort_by_key(|a| a.home);
        run
    }
}

/// Runs `feed` through an ingestion handle over `txs` (reusing the batch
/// buffers that come back on `spares`), flushes the partial batches,
/// copies the sender's counters into `stats`, and hangs up the queues so
/// the shards can finish draining.
fn feed_shards(
    config: &FleetConfig,
    txs: Vec<Sender<ShardBatch>>,
    spares: Vec<Receiver<BytesMut>>,
    feed: impl FnOnce(&mut FleetSender<'_>),
    stats: &mut FleetStats,
) {
    let telemetry = &config.telemetry;
    let shards = txs.len();
    let mut sender = FleetSender {
        txs: &txs,
        spares,
        staging: (0..shards).map(|_| BytesMut::new()).collect(),
        counts: vec![0; shards],
        frames_per_batch: config.frames_per_batch.max(1),
        telemetry,
        clock: config.clock.clone(),
        tracing: config.tracing,
        trace: (0..shards)
            .map(|shard| SenderShardTrace::resolve(telemetry, shard))
            .collect(),
        route: None,
        next_lineage: 0,
        frames: 0,
        backpressure_waits: 0,
        backpressure_wait_ns: 0,
    };
    feed(&mut sender);
    sender.flush();
    stats.frames = sender.frames;
    stats.backpressure_waits = sender.backpressure_waits;
    stats.backpressure_wait_ns = sender.backpressure_wait_ns;
}

/// One shard's receive loop: track queue depth, honor the fault-injection
/// stall, and ingest until every sender is gone and the queue is drained.
/// Each ingested batch's buffer goes back to the sender on `spares`, or is
/// dropped once the sender has gone.
fn drain_shard(
    engine: &mut ShardEngine,
    rx: &Receiver<ShardBatch>,
    spares: &Sender<BytesMut>,
    telemetry: &Telemetry,
    shard: usize,
    stall: Option<(usize, u64)>,
) {
    let depth: Option<Arc<Gauge>> = telemetry.recorder().map(|rec| {
        rec.metrics
            .fleet
            .shard_depth
            .with_label_values(&[&shard_label(shard)])
    });
    let stall_ms = match stall {
        Some((s, ms)) if s == shard => Some(ms),
        _ => None,
    };
    while let Ok(batch) = rx.recv() {
        if let Some(depth) = &depth {
            depth.set_max(
                i64::try_from(rx.len())
                    .unwrap_or(i64::MAX)
                    .saturating_add(1),
            );
        }
        if let Some(ms) = stall_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        engine.ingest_wire_batch(&batch);
        let _ = spares.try_send(batch.bytes);
    }
}

/// Folds one finished shard into the run: its counters into the totals,
/// its homes' alarms onto the list.
fn absorb_shard(run: &mut FleetRun, (homes, shard): ShardFinish) {
    let stats = &mut run.stats;
    stats.decode_errors += shard.decode_errors;
    stats.events += shard.events;
    stats.windows += shard.windows;
    stats.alarms += shard.alarms;
    stats.suppressed += shard.suppressed;
    run.alarms.extend(
        homes
            .into_iter()
            .map(|(home, reports)| HomeAlarms { home, reports }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_types::{SensorId, SensorReading};

    /// Feeds `frames` equal-length frames through one shard queue with
    /// `spares` and returns the queued batches.
    fn queued_batches(frames: i64, spares: Vec<Receiver<BytesMut>>) -> Vec<ShardBatch> {
        let (tx, rx) = unbounded::<ShardBatch>();
        let config = FleetConfig {
            shards: 1,
            frames_per_batch: 4,
            clock: TraceClock::manual().0,
            ..FleetConfig::default()
        };
        let mut stats = FleetStats::default();
        feed_shards(
            &config,
            vec![tx],
            spares,
            |sender| {
                for second in 0..frames {
                    let at = Timestamp::from_secs(second);
                    let reading = SensorReading::new(SensorId::new(1), at, true.into());
                    sender.send(7, &Event::Sensor(reading));
                }
            },
            &mut stats,
        );
        assert_eq!(stats.frames, frames as u64);
        std::iter::from_fn(|| rx.try_recv()).collect()
    }

    #[test]
    fn batch_buffers_without_spares_hold_just_their_frames() {
        // No buffer can come back (a preloaded run): after the first,
        // which grows from empty, each batch is sized like the one before,
        // so equal frames fill it exactly.
        let batches = queued_batches(40, Vec::new());
        assert_eq!(batches.len(), 10);
        for batch in &batches[1..] {
            assert_eq!(batch.bytes.capacity(), batch.bytes.len());
        }
    }

    #[test]
    fn flushes_take_a_waiting_spare_before_allocating() {
        let (spare_tx, spare_rx) = bounded::<BytesMut>(1);
        let spare = BytesMut::with_capacity(4 * MAX_ENCODED_FRAME);
        let storage = spare.as_ptr();
        assert!(spare_tx.try_send(spare).is_ok());
        let batches = queued_batches(8, vec![spare_rx]);
        // The first flush swaps the spare in as the staging buffer, so the
        // second batch is written into it, in place.
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].bytes.as_ptr(), storage);
        assert_eq!(batches[1].bytes.capacity(), 4 * MAX_ENCODED_FRAME);
    }
}
