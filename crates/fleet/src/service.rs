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

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use dice_core::{DiceModel, FaultReport, LineageStamp};
use dice_telemetry::{shard_label, Gauge, Telemetry};
use dice_types::{Event, TimeDelta, Timestamp};

use crate::frame::{encode_frame_into, frame_home, HomeId, MAX_FRAME_BODY};
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
    /// and counts a back-pressure wait.
    pub queue_capacity: usize,
    /// Frames packed per batch buffer before it is flushed to the shard.
    pub frames_per_batch: usize,
    /// Ready windows a shard collects before a batched detection sweep.
    pub batch_windows: usize,
    /// Per-home alarm cooldown (see [`dice_gateway::AlarmLedger`]).
    pub alarm_cooldown: TimeDelta,
    /// Telemetry sink shared by the shards and their engines.
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
    /// Cross-home batched candidate scans issued.
    pub batched_scans: u64,
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
    /// Each shard's retained lineage records (oldest first, bounded ring)
    /// when tracing was on; empty rings otherwise. Indexed by shard.
    pub lineage: Vec<Vec<LineageStamp>>,
}

/// One frame batch on a shard queue, carrying its causal lineage block
/// and enqueue tick alongside the encoded bytes. The wire format itself
/// is untouched: lineage never crosses the (simulated) socket.
#[derive(Debug)]
pub(crate) struct ShardBatch {
    /// The packed wire frames.
    pub bytes: Bytes,
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
    staging: Vec<BytesMut>,
    counts: Vec<usize>,
    frames_per_batch: usize,
    telemetry: &'a Telemetry,
    clock: TraceClock,
    tracing: bool,
    trace: Vec<Option<SenderShardTrace>>,
    next_lineage: u64,
    frames: u64,
    backpressure_waits: u64,
    backpressure_wait_ns: u64,
}

impl FleetSender<'_> {
    /// Encodes and routes one event for `home`. The frame lands on its
    /// home's shard queue once the shard's staging batch fills.
    pub fn send(&mut self, home: HomeId, event: &Event) {
        let shard = shard_for_home(home, self.txs.len());
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
        let capacity = self.staging[shard].len().max(MAX_FRAME_BODY);
        let batch = std::mem::replace(&mut self.staging[shard], BytesMut::with_capacity(capacity));
        let frames = u32::try_from(self.counts[shard]).unwrap_or(u32::MAX);
        self.counts[shard] = 0;
        // The batch's frames take the contiguous id block
        // `next_lineage .. next_lineage + frames`, in encode order —
        // globally unique and strictly increasing per shard.
        let lineage = self.next_lineage;
        self.next_lineage += u64::from(frames);

        let first_attempt_ns = self.clock.now_ns();
        let mut item = ShardBatch {
            bytes: batch.freeze(),
            lineage,
            frames,
            enqueue_ns: first_attempt_ns,
            enqueue_wait_ns: 0,
        };
        let mut blocked = false;
        loop {
            match self.txs[shard].try_send(item) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => {
                    // Back-pressure: retry until the shard drains (never
                    // shed), re-stamping the ticks so the successful
                    // attempt carries the true enqueue time and wait.
                    item = back;
                    if !blocked {
                        blocked = true;
                        self.backpressure_waits += 1;
                        if let Some(rec) = self.telemetry.recorder() {
                            rec.metrics.fleet.backpressure_waits_total.inc();
                        }
                    }
                    std::thread::sleep(BACKPRESSURE_RETRY);
                    let now = self.clock.now_ns();
                    item.enqueue_ns = now;
                    item.enqueue_wait_ns = now.saturating_sub(first_attempt_ns);
                }
                // The shard only hangs up early if it panicked, in which
                // case the join in `run` surfaces it.
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
        let waited_ns = if blocked {
            let waited = self.clock.now_ns().saturating_sub(first_attempt_ns);
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
    /// the engines, and returns the merged result.
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
        self,
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
        let telemetry = &self.config.telemetry;
        if let Some(rec) = telemetry.recorder() {
            rec.metrics.fleet.homes.set(self.homes.len() as i64);
            rec.metrics.fleet.shards.set(shards as i64);
            rec.metrics
                .fleet
                .models_resident
                .set(models_resident as i64);
        }

        let mut shard_homes: Vec<Vec<(HomeId, Arc<DiceModel>)>> = vec![Vec::new(); shards];
        for (home, model) in &self.homes {
            shard_homes[shard_for_home(*home, shards)].push((*home, Arc::clone(model)));
        }

        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = if preloaded {
                unbounded::<ShardBatch>()
            } else {
                bounded::<ShardBatch>(self.config.queue_capacity.max(1))
            };
            txs.push(tx);
            rxs.push(rx);
        }

        // One shard's whole life: build its engine, drain its queue, and
        // close out its homes.
        let serve_shard =
            |shard: usize, rx: Receiver<ShardBatch>, homes: Vec<(HomeId, Arc<DiceModel>)>| {
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
                drain_shard(&mut engine, &rx, telemetry, shard, self.config.stall);
                engine.finish()
            };

        let mut run = FleetRun {
            stats: FleetStats {
                homes: self.homes.len(),
                shards,
                models_resident,
                ..FleetStats::default()
            },
            alarms: Vec::with_capacity(self.homes.len()),
            lineage: Vec::with_capacity(shards),
        };
        let shard_inputs = rxs.into_iter().zip(shard_homes).enumerate();
        if preloaded {
            feed_shards(&self.config, txs, feed, &mut run.stats);
            for (shard, (rx, homes)) in shard_inputs {
                absorb_shard(&mut run, serve_shard(shard, rx, homes));
            }
        } else {
            std::thread::scope(|scope| {
                let serve_shard = &serve_shard;
                let handles: Vec<_> = shard_inputs
                    .map(|(shard, (rx, homes))| scope.spawn(move || serve_shard(shard, rx, homes)))
                    .collect();
                feed_shards(&self.config, txs, feed, &mut run.stats);
                for handle in handles {
                    absorb_shard(&mut run, handle.join().expect("shard thread panicked"));
                }
            });
        }
        run.alarms.sort_by_key(|a| a.home);
        run
    }
}

/// Runs `feed` through an ingestion handle over `txs`, flushes the
/// partial batches, copies the sender's counters into `stats`, and hangs
/// up the queues so the shards can finish draining.
fn feed_shards(
    config: &FleetConfig,
    txs: Vec<Sender<ShardBatch>>,
    feed: impl FnOnce(&mut FleetSender<'_>),
    stats: &mut FleetStats,
) {
    let telemetry = &config.telemetry;
    let shards = txs.len();
    let mut sender = FleetSender {
        txs: &txs,
        staging: (0..shards).map(|_| BytesMut::new()).collect(),
        counts: vec![0; shards],
        frames_per_batch: config.frames_per_batch.max(1),
        telemetry,
        clock: config.clock.clone(),
        tracing: config.tracing,
        trace: (0..shards)
            .map(|shard| SenderShardTrace::resolve(telemetry, shard))
            .collect(),
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
fn drain_shard(
    engine: &mut ShardEngine,
    rx: &Receiver<ShardBatch>,
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
    }
}

/// Folds one finished shard into the run: its counters into the totals,
/// its homes' alarms and its lineage records onto the lists.
fn absorb_shard(run: &mut FleetRun, (homes, shard, records): ShardFinish) {
    let stats = &mut run.stats;
    stats.decode_errors += shard.decode_errors;
    stats.events += shard.events;
    stats.windows += shard.windows;
    stats.batched_scans += shard.batched_scans;
    stats.alarms += shard.alarms;
    stats.suppressed += shard.suppressed;
    run.lineage.push(records);
    run.alarms.extend(
        homes
            .into_iter()
            .map(|(home, reports)| HomeAlarms { home, reports }),
    );
}
