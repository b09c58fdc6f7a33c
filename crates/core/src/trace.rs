//! Per-window decision tracing: the flight recorder behind every alarm.
//!
//! The engine's aggregate counters (dice-telemetry) say *how often* checks
//! fire; a [`DecisionTrace`] says *why this window*: the packed state set,
//! the main-group lookup outcome, the candidate groups scanned with their
//! Hamming distances, the transition row actually consulted with its
//! observed probability, the identification phase transition, and the final
//! verdict. Traces land in a bounded flight recorder, a
//! [`SlotRing`](dice_telemetry::SlotRing) (overwrite oldest, drop
//! counting), are snapshotted into every
//! [`FaultReport`](crate::FaultReport) as structured evidence, and can be
//! streamed to a [`TraceSink`] — typically a [`JsonlTraceWriter`] — as a
//! schema-versioned JSONL file that [`parse_trace_jsonl`] reads back
//! loss-free, so traces are diffable across runs.
//!
//! Tracing is **off by default**; the engine's disabled path is a single
//! `Option` check per window, and the enabled path reuses ring slots and
//! scratch buffers so steady-state monitoring still allocates nothing.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use dice_telemetry::{Counter, Telemetry};
use dice_types::{ActuatorId, GroupId, SensorId, Timestamp};

use crate::bitset::BitSet;
use crate::detect::TransitionCase;
use crate::layout::{BitLayout, BitRole, NUMERIC_SPAN_WIDTH};

/// Schema version of the JSONL trace format.
pub const TRACE_SCHEMA: u32 = 1;

/// The `kind` discriminator in a trace header line.
pub const TRACE_KIND: &str = "dice-trace";

/// Flight-recorder capacity of a tracing engine session, in traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// Candidate groups retained per trace.
pub const DEFAULT_TRACE_TOP_K: usize = 8;

/// Recent traces copied into each fault report as evidence.
pub const DEFAULT_TRACE_SNAPSHOT_LAST: usize = 8;

/// Pipeline latency attribution for one alarm served by a fleet shard:
/// where the wall-clock went between the producer encoding the frame and
/// the shard delivering the verdict.
///
/// Stamped onto [`FaultReport`](crate::FaultReport)s by `dice-fleet`'s
/// shard engines (`lineage` is the monotone ingest id of the frame batch
/// whose sweep produced the verdict) and, like trace evidence, excluded
/// from report equality: a stamped and an unstamped run must produce
/// equal report streams on identical input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineageStamp {
    /// Monotone lineage id of the first frame in the contributing batch.
    pub lineage: u64,
    /// The shard that served this home.
    pub shard: u32,
    /// Frames in the contributing batch.
    pub frames: u32,
    /// Producer time blocked pushing the batch onto the shard queue.
    pub enqueue_wait_ns: u64,
    /// Time the batch sat in the shard queue before dequeue.
    pub queue_wait_ns: u64,
    /// Frame decode + window ingestion time for the batch (up to the
    /// sweep that produced this verdict).
    pub dequeue_ns: u64,
    /// Batched candidate-scan time of the delivering sweep.
    pub scan_ns: u64,
    /// Engine drive time of the delivering sweep (excluding delivery).
    pub verdict_ns: u64,
    /// Alarm delivery time of the delivering sweep.
    pub publish_ns: u64,
}

impl std::fmt::Display for LineageStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lineage {} shard {}: enqueue-wait {}us, queue-wait {}us, \
             dequeue {}us, scan {}us, verdict {}us, publish {}us",
            self.lineage,
            self.shard,
            self.enqueue_wait_ns / 1_000,
            self.queue_wait_ns / 1_000,
            self.dequeue_ns / 1_000,
            self.scan_ns / 1_000,
            self.verdict_ns / 1_000,
            self.publish_ns / 1_000,
        )
    }
}

/// Identification state-machine phase, as seen by a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TracePhase {
    /// Waiting for a first (or confirming) violation.
    #[default]
    Monitoring,
    /// Narrowing the probable-device set window by window.
    Identifying,
}

impl TracePhase {
    fn as_str(self) -> &'static str {
        match self {
            TracePhase::Monitoring => "monitoring",
            TracePhase::Identifying => "identifying",
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "monitoring" => Ok(TracePhase::Monitoring),
            "identifying" => Ok(TracePhase::Identifying),
            other => Err(format!("unknown trace phase {other:?}")),
        }
    }
}

/// Outcome of the per-window checks, as seen by a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceVerdict {
    /// State set matched a main group and all transitions were plausible.
    #[default]
    Normal,
    /// The correlation check found no exact group match.
    Correlation,
    /// The transition check found a zero-probability transition.
    Transition,
}

impl TraceVerdict {
    fn as_str(self) -> &'static str {
        match self {
            TraceVerdict::Normal => "normal",
            TraceVerdict::Correlation => "correlation",
            TraceVerdict::Transition => "transition",
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "normal" => Ok(TraceVerdict::Normal),
            "correlation" => Ok(TraceVerdict::Correlation),
            "transition" => Ok(TraceVerdict::Transition),
            other => Err(format!("unknown trace verdict {other:?}")),
        }
    }
}

/// One transition row consulted during the transition check: the triple,
/// the observed probability, the threshold it was compared against (the
/// paper's zero-probability rule renders as `threshold = 0`, meaning the
/// probability must exceed it), and the row support that gated the claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceTransition {
    /// Which transition triple was checked.
    pub case: TransitionCase,
    /// The probability the model assigns to this transition.
    pub observed: f64,
    /// The violation threshold: flagged when `observed <= threshold`.
    pub threshold: f64,
    /// Observations supporting the row the probability came from.
    pub support: u64,
    /// Minimum row support required before a zero probability is trusted.
    pub min_support: u64,
}

/// One window's complete decision record.
///
/// All collection fields are refilled with `clear()` + `extend` so a
/// recycled ring slot reuses its buffers: a warm
/// [`SlotRing`](dice_telemetry::SlotRing) flight recorder admits traces
/// without allocating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionTrace {
    /// Window index within this engine's stream (the ring sequence number).
    pub window: u64,
    /// Window start time.
    pub start: Timestamp,
    /// Window end time.
    pub end: Timestamp,
    /// Width of the state set in bits.
    pub bits: usize,
    /// Number of set bits in the state set.
    pub ones: u32,
    /// The packed state-set bits, as `u64` words (little-endian bit order,
    /// matching [`BitSet::as_words`]).
    pub state_words: Vec<u64>,
    /// The exactly-matching main group, when the correlation check hit.
    pub main_group: Option<GroupId>,
    /// Top-K candidate groups from the scan, as `(group, distance)`.
    pub candidates: Vec<(GroupId, u32)>,
    /// The nearest candidate group, as `(group, distance)`.
    pub nearest: Option<(GroupId, u32)>,
    /// Packed state-set bits of the nearest group (empty when `nearest`
    /// is `None`), for self-contained bit diffs.
    pub nearest_state: Vec<u64>,
    /// Transition rows consulted: the flagged zero-probability cases on a
    /// violation, or the observed G2G row on a normal window.
    pub transitions: Vec<TraceTransition>,
    /// Identification phase before this window was processed.
    pub phase_before: TracePhase,
    /// Identification phase after this window was processed.
    pub phase_after: TracePhase,
    /// The per-window check outcome.
    pub verdict: TraceVerdict,
    /// Whether a fault report was emitted at this window.
    pub reported: bool,
    /// Whether that report converged below `numThre` (false when not
    /// reported).
    pub conclusive: bool,
}

impl DecisionTrace {
    /// Resets every field while keeping collection buffers allocated, so a
    /// recycled ring slot can be refilled without heap traffic.
    pub fn reset(&mut self) {
        self.window = 0;
        self.start = Timestamp::ZERO;
        self.end = Timestamp::ZERO;
        self.bits = 0;
        self.ones = 0;
        self.state_words.clear();
        self.main_group = None;
        self.candidates.clear();
        self.nearest = None;
        self.nearest_state.clear();
        self.transitions.clear();
        self.phase_before = TracePhase::Monitoring;
        self.phase_after = TracePhase::Monitoring;
        self.verdict = TraceVerdict::Normal;
        self.reported = false;
        self.conclusive = false;
    }

    /// The state set reconstructed from the packed words, or `None` when
    /// the word count is inconsistent with `bits` (malformed input).
    pub fn state(&self) -> Option<BitSet> {
        rebuild_bitset(self.bits, &self.state_words)
    }

    /// The nearest group's state set, when recorded and well-formed.
    pub fn nearest_state(&self) -> Option<BitSet> {
        self.nearest?;
        rebuild_bitset(self.bits, &self.nearest_state)
    }
}

fn rebuild_bitset(bits: usize, words: &[u64]) -> Option<BitSet> {
    if words.len() != bits.div_ceil(64) {
        return None;
    }
    if !bits.is_multiple_of(64) {
        if let Some(&last) = words.last() {
            if last >> (bits % 64) != 0 {
                return None;
            }
        }
    }
    Some(BitSet::from_words(bits, words.to_vec()))
}

/// A consumer of finished traces, called once per traced window.
///
/// Implementations must not assume exclusive ownership of the trace — it is
/// a borrowed ring slot that will be recycled.
pub trait TraceSink: Send {
    /// Consumes one finished trace. `layout` is the engine's bit layout,
    /// for sinks that need span names (e.g. the JSONL header).
    fn record(&mut self, layout: &BitLayout, trace: &DecisionTrace);
}

/// A sink shared across engines (and gateway threads).
pub type SharedTraceSink = Arc<Mutex<dyn TraceSink>>;

/// Decision-tracing configuration, carried by
/// [`EngineOptions`](crate::EngineOptions).
///
/// Disabled by default; [`TraceOptions::global`] mirrors
/// [`Telemetry::global`] so a process-wide installation (e.g. `dice-repro
/// --trace`) reaches every engine constructed through default options.
#[derive(Clone, Default)]
pub struct TraceOptions {
    /// Whether tracing is on. When false the engine pays one `Option`
    /// check per window and nothing else.
    pub enabled: bool,
    /// Optional streaming sink, called once per traced window.
    pub sink: Option<SharedTraceSink>,
}

impl std::fmt::Debug for TraceOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceOptions")
            .field("enabled", &self.enabled)
            .field("sink", &self.sink.as_ref().map(|_| "..."))
            .finish()
    }
}

impl TraceOptions {
    /// Enabled tracing with no sink.
    pub fn recording() -> Self {
        TraceOptions {
            enabled: true,
            ..TraceOptions::default()
        }
    }

    /// Attaches a streaming sink (implies nothing about `enabled`).
    #[must_use]
    pub fn with_sink(mut self, sink: SharedTraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The process-global trace options. Defaults to disabled until
    /// [`TraceOptions::install_global`] runs.
    pub fn global() -> TraceOptions {
        GLOBAL_TRACE.get_or_init(TraceOptions::default).clone()
    }

    /// Installs `options` as the process-global trace options.
    ///
    /// Returns `false` (leaving the existing options in place) if a global
    /// was already installed or [`TraceOptions::global`] was already read.
    pub fn install_global(options: TraceOptions) -> bool {
        GLOBAL_TRACE.set(options).is_ok()
    }
}

static GLOBAL_TRACE: OnceLock<TraceOptions> = OnceLock::new();

/// A [`TraceSink`] that appends schema-versioned JSONL: one header line
/// (bit layout spans) followed by one line per trace.
///
/// Lines are written and flushed individually so a crash (or a process that
/// never runs destructors, like a global sink) loses at most the line in
/// flight. I/O errors latch [`JsonlTraceWriter::failed`] and silence the
/// writer instead of panicking inside the engine hot path.
pub struct JsonlTraceWriter<W: Write + Send> {
    out: W,
    header_written: bool,
    failed: bool,
    line: String,
    bytes: Option<Arc<Counter>>,
}

impl<W: Write + Send> JsonlTraceWriter<W> {
    /// Creates a writer appending to `out`.
    pub fn new(out: W) -> Self {
        JsonlTraceWriter {
            out,
            header_written: false,
            failed: false,
            line: String::new(),
            bytes: None,
        }
    }

    /// Like [`JsonlTraceWriter::new`], additionally counting written bytes
    /// into `telemetry`'s `dice_trace_snapshot_bytes_total`.
    pub fn with_telemetry(out: W, telemetry: &Telemetry) -> Self {
        let bytes = telemetry
            .recorder()
            .map(|r| r.metrics.trace.snapshot_bytes_total.clone());
        JsonlTraceWriter {
            bytes,
            ..JsonlTraceWriter::new(out)
        }
    }

    /// Whether a write failed; once set, the writer stays silent.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Wraps this writer into a [`SharedTraceSink`].
    pub fn into_shared(self) -> SharedTraceSink
    where
        W: 'static,
    {
        Arc::new(Mutex::new(self))
    }
}

impl<W: Write + Send> TraceSink for JsonlTraceWriter<W> {
    fn record(&mut self, layout: &BitLayout, trace: &DecisionTrace) {
        if self.failed {
            return;
        }
        self.line.clear();
        if !self.header_written {
            write_header_line(&mut self.line, &TraceHeader::from_layout(layout));
            self.header_written = true;
        }
        write_trace_line(&mut self.line, trace);
        let result = self
            .out
            .write_all(self.line.as_bytes())
            .and_then(|()| self.out.flush());
        match result {
            Ok(()) => {
                if let Some(counter) = &self.bytes {
                    counter.add(self.line.len() as u64);
                }
            }
            Err(_) => self.failed = true,
        }
    }
}

/// The layout description from a trace file's header line: enough to map
/// bit indices back to sensors without the trained model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Width of the state set in bits.
    pub num_bits: usize,
    /// Per-sensor spans as `(sensor, first_bit, width)`.
    pub spans: Vec<(SensorId, usize, usize)>,
}

impl TraceHeader {
    /// Captures the header from a live [`BitLayout`].
    pub fn from_layout(layout: &BitLayout) -> Self {
        TraceHeader {
            num_bits: layout.num_bits(),
            spans: layout
                .spans()
                .map(|(sensor, span)| (sensor, span.start, span.width))
                .collect(),
        }
    }

    /// Stable fingerprint of the layout this trace was recorded against,
    /// computed so that it equals [`BitLayout::fingerprint`] for the layout
    /// the header was captured from — the cross-artifact compatibility key
    /// `dice-lint` compares between a model and its trace evidence.
    pub fn layout_fingerprint(&self) -> u64 {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|&(sensor, ..)| sensor);
        let mut fp = crate::fingerprint::Fingerprint::new();
        fp.push_u64(self.num_bits as u64);
        fp.push_u64(spans.len() as u64);
        for &(_, start, width) in &spans {
            fp.push_u64(start as u64);
            fp.push_u64(width as u64);
        }
        fp.finish()
    }

    /// Maps a bit index to its owning sensor and the bit's role, mirroring
    /// [`BitLayout::sensor_of_bit`] / [`BitLayout::role_of_bit`].
    pub fn describe_bit(&self, bit: usize) -> Option<(SensorId, BitRole)> {
        for &(sensor, start, width) in &self.spans {
            if bit >= start && bit < start + width {
                let role = if width == 1 {
                    BitRole::Activation
                } else {
                    debug_assert_eq!(width, NUMERIC_SPAN_WIDTH);
                    match bit - start {
                        0 => BitRole::Skewness,
                        1 => BitRole::Trend,
                        _ => BitRole::Level,
                    }
                };
                return Some((sensor, role));
            }
        }
        None
    }
}

/// A parsed trace file: the header plus every trace line, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// The layout header.
    pub header: TraceHeader,
    /// The traces, in file order.
    pub traces: Vec<DecisionTrace>,
}

fn role_name(role: BitRole) -> &'static str {
    match role {
        BitRole::Activation => "activation",
        BitRole::Skewness => "skewness",
        BitRole::Trend => "trend",
        BitRole::Level => "level",
    }
}

/// Serializes the header as a single JSONL line (with trailing newline)
/// appended to `out`. Key order is fixed so serialization is byte-stable.
pub fn write_header_line(out: &mut String, header: &TraceHeader) {
    let _ = write!(
        out,
        "{{\"kind\":\"{TRACE_KIND}\",\"schema\":{TRACE_SCHEMA},\"num_bits\":{},\"spans\":[",
        header.num_bits
    );
    for (i, &(sensor, start, width)) in header.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{start},{width}]", sensor.index());
    }
    out.push_str("]}\n");
}

fn write_words(out: &mut String, words: &[u64]) {
    out.push('[');
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{word:016x}\"");
    }
    out.push(']');
}

fn write_transition(out: &mut String, t: &TraceTransition) {
    let (case, from, to) = match t.case {
        TransitionCase::G2G { from, to } => ("g2g", from.index(), to.index()),
        TransitionCase::G2A { from, actuator } => ("g2a", from.index(), actuator.index()),
        TransitionCase::A2G { actuator, to } => ("a2g", actuator.index(), to.index()),
    };
    let _ = write!(
        out,
        "{{\"case\":\"{case}\",\"from\":{from},\"to\":{to},\"observed\":{},\"threshold\":{},\
         \"support\":{},\"min_support\":{}}}",
        t.observed, t.threshold, t.support, t.min_support
    );
}

/// Serializes one trace as a single JSONL line (with trailing newline)
/// appended to `out`. Key order is fixed so serialization is byte-stable.
pub fn write_trace_line(out: &mut String, t: &DecisionTrace) {
    let _ = write!(
        out,
        "{{\"window\":{},\"start\":{},\"end\":{},\"bits\":{},\"ones\":{},\"state\":",
        t.window,
        t.start.as_secs(),
        t.end.as_secs(),
        t.bits,
        t.ones
    );
    write_words(out, &t.state_words);
    match t.main_group {
        Some(g) => {
            let _ = write!(out, ",\"main_group\":{}", g.index());
        }
        None => out.push_str(",\"main_group\":null"),
    }
    out.push_str(",\"candidates\":[");
    for (i, &(group, distance)) in t.candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{distance}]", group.index());
    }
    out.push(']');
    match t.nearest {
        Some((group, distance)) => {
            let _ = write!(out, ",\"nearest\":[{},{distance}]", group.index());
        }
        None => out.push_str(",\"nearest\":null"),
    }
    out.push_str(",\"nearest_state\":");
    write_words(out, &t.nearest_state);
    out.push_str(",\"transitions\":[");
    for (i, transition) in t.transitions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_transition(out, transition);
    }
    let _ = write!(
        out,
        "],\"phase_before\":\"{}\",\"phase_after\":\"{}\",\"verdict\":\"{}\",\
         \"reported\":{},\"conclusive\":{}}}",
        t.phase_before.as_str(),
        t.phase_after.as_str(),
        t.verdict.as_str(),
        t.reported,
        t.conclusive
    );
    out.push('\n');
}

/// Serializes a whole [`TraceLog`] as JSONL (header first). The output of
/// `write_trace_jsonl(&parse_trace_jsonl(text)?)` is byte-identical to a
/// `text` that this module produced.
pub fn write_trace_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    write_header_line(&mut out, &log.header);
    for trace in &log.traces {
        write_trace_line(&mut out, trace);
    }
    out
}

use dice_telemetry::Value;

fn field<'v>(obj: &'v Value, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn num_field(obj: &Value, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_num()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn u64_field(obj: &Value, key: &str) -> Result<u64, String> {
    let n = num_field(obj, key)?;
    if n < 0.0 {
        return Err(format!("field {key:?} is negative"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(n as u64)
}

fn usize_field(obj: &Value, key: &str) -> Result<usize, String> {
    #[allow(clippy::cast_possible_truncation)]
    Ok(u64_field(obj, key)? as usize)
}

fn str_field<'v>(obj: &'v Value, key: &str) -> Result<&'v str, String> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn bool_field(obj: &Value, key: &str) -> Result<bool, String> {
    match field(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("field {key:?} is not a boolean")),
    }
}

fn words_field(obj: &Value, key: &str) -> Result<Vec<u64>, String> {
    let items = field(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))?;
    items
        .iter()
        .map(|item| {
            let hex = item
                .as_str()
                .ok_or_else(|| format!("field {key:?} holds a non-string word"))?;
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad state word {hex:?}: {e}"))
        })
        .collect()
}

fn group_id_from(n: f64) -> GroupId {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    GroupId::new(n as u32)
}

fn pair_field(value: &Value, what: &str) -> Result<(GroupId, u32), String> {
    let pair = value
        .as_arr()
        .ok_or_else(|| format!("{what} is not a [group, distance] pair"))?;
    if pair.len() != 2 {
        return Err(format!("{what} is not a 2-element pair"));
    }
    let group = pair[0]
        .as_num()
        .ok_or_else(|| format!("{what} group is not a number"))?;
    let distance = pair[1]
        .as_num()
        .ok_or_else(|| format!("{what} distance is not a number"))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok((group_id_from(group), distance as u32))
}

fn parse_transition(value: &Value) -> Result<TraceTransition, String> {
    let kind = str_field(value, "case")?;
    let from = u64_field(value, "from")?;
    let to = u64_field(value, "to")?;
    #[allow(clippy::cast_possible_truncation)]
    let (from32, to32) = (from as u32, to as u32);
    let case = match kind {
        "g2g" => TransitionCase::G2G {
            from: GroupId::new(from32),
            to: GroupId::new(to32),
        },
        "g2a" => TransitionCase::G2A {
            from: GroupId::new(from32),
            actuator: ActuatorId::new(to32),
        },
        "a2g" => TransitionCase::A2G {
            actuator: ActuatorId::new(from32),
            to: GroupId::new(to32),
        },
        other => return Err(format!("unknown transition case {other:?}")),
    };
    Ok(TraceTransition {
        case,
        observed: num_field(value, "observed")?,
        threshold: num_field(value, "threshold")?,
        support: u64_field(value, "support")?,
        min_support: u64_field(value, "min_support")?,
    })
}

fn parse_trace_value(value: &Value) -> Result<DecisionTrace, String> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let (start, end, ones) = (
        Timestamp::from_secs(num_field(value, "start")? as i64),
        Timestamp::from_secs(num_field(value, "end")? as i64),
        num_field(value, "ones")? as u32,
    );
    let main_group = match field(value, "main_group")? {
        Value::Null => None,
        other => Some(group_id_from(other.as_num().ok_or_else(|| {
            "field \"main_group\" is not a number or null".to_string()
        })?)),
    };
    let candidates = field(value, "candidates")?
        .as_arr()
        .ok_or_else(|| "field \"candidates\" is not an array".to_string())?
        .iter()
        .map(|item| pair_field(item, "candidate"))
        .collect::<Result<Vec<_>, _>>()?;
    let nearest = match field(value, "nearest")? {
        Value::Null => None,
        other => Some(pair_field(other, "nearest")?),
    };
    let transitions = field(value, "transitions")?
        .as_arr()
        .ok_or_else(|| "field \"transitions\" is not an array".to_string())?
        .iter()
        .map(parse_transition)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DecisionTrace {
        window: u64_field(value, "window")?,
        start,
        end,
        bits: usize_field(value, "bits")?,
        ones,
        state_words: words_field(value, "state")?,
        main_group,
        candidates,
        nearest,
        nearest_state: words_field(value, "nearest_state")?,
        transitions,
        phase_before: TracePhase::parse(str_field(value, "phase_before")?)?,
        phase_after: TracePhase::parse(str_field(value, "phase_after")?)?,
        verdict: TraceVerdict::parse(str_field(value, "verdict")?)?,
        reported: bool_field(value, "reported")?,
        conclusive: bool_field(value, "conclusive")?,
    })
}

/// Parses a JSONL trace file produced by [`JsonlTraceWriter`] (or
/// [`write_trace_jsonl`]). Blank lines are skipped; the first non-blank
/// line must be a `dice-trace` schema-1 header.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_trace_jsonl(input: &str) -> Result<TraceLog, String> {
    let mut header: Option<TraceHeader> = None;
    let mut traces = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value =
            dice_telemetry::json_parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if header.is_none() {
            let kind =
                str_field(&value, "kind").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if kind != TRACE_KIND {
                return Err(format!(
                    "line {}: kind {kind:?} is not \"{TRACE_KIND}\"",
                    lineno + 1
                ));
            }
            let schema =
                u64_field(&value, "schema").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if schema != u64::from(TRACE_SCHEMA) {
                return Err(format!(
                    "line {}: unsupported trace schema {schema}",
                    lineno + 1
                ));
            }
            let num_bits =
                usize_field(&value, "num_bits").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let mut spans = Vec::new();
            for item in field(&value, "spans")
                .map_err(|e| format!("line {}: {e}", lineno + 1))?
                .as_arr()
                .ok_or_else(|| format!("line {}: field \"spans\" is not an array", lineno + 1))?
            {
                let triple = item
                    .as_arr()
                    .filter(|a| a.len() == 3)
                    .ok_or_else(|| format!("line {}: span is not a 3-element array", lineno + 1))?;
                let nums: Vec<f64> = triple.iter().filter_map(Value::as_num).collect();
                if nums.len() != 3 {
                    return Err(format!("line {}: span holds non-numbers", lineno + 1));
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                spans.push((
                    SensorId::new(nums[0] as u32),
                    nums[1] as usize,
                    nums[2] as usize,
                ));
            }
            header = Some(TraceHeader { num_bits, spans });
        } else {
            traces
                .push(parse_trace_value(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
    }
    let header = header.ok_or_else(|| "empty trace file: no header line".to_string())?;
    Ok(TraceLog { header, traces })
}

fn transition_arrow(case: TransitionCase) -> String {
    match case {
        TransitionCase::G2G { from, to } => format!("P({to} | {from}) [g2g]"),
        TransitionCase::G2A { from, actuator } => format!("P({actuator} | {from}) [g2a]"),
        TransitionCase::A2G { actuator, to } => format!("P({to} | {actuator}) [a2g]"),
    }
}

fn select_trace(log: &TraceLog, window: Option<u64>) -> Result<&DecisionTrace, String> {
    if log.traces.is_empty() {
        return Err("trace file holds no traces".to_string());
    }
    if let Some(w) = window {
        return log
            .traces
            .iter()
            .find(|t| t.window == w)
            .ok_or_else(|| format!("no trace for window {w}"));
    }
    Ok(log
        .traces
        .iter()
        .find(|t| t.reported)
        .or_else(|| {
            log.traces
                .iter()
                .find(|t| t.verdict != TraceVerdict::Normal)
        })
        .unwrap_or(&log.traces[0]))
}

/// Renders a human-readable why-was-this-flagged narrative for one trace.
///
/// Picks the trace for `window` when given, otherwise the first reported
/// trace, otherwise the first violation, otherwise the first trace. The
/// narrative names deviating state-set bits per sensor (via the header's
/// span map), lists scanned candidates, and spells out the transition rows
/// with observed probability vs threshold.
///
/// # Errors
///
/// Returns an error when the log holds no traces or `window` is absent.
pub fn render_explain(log: &TraceLog, window: Option<u64>) -> Result<String, String> {
    let t = select_trace(log, window)?;
    let mut out = String::new();
    let _ = writeln!(out, "window {} ({} - {})", t.window, t.start, t.end);
    let verdict = match t.verdict {
        TraceVerdict::Normal => "normal: no violation".to_string(),
        TraceVerdict::Correlation => "correlation violation".to_string(),
        TraceVerdict::Transition => "transition violation".to_string(),
    };
    let status = if t.reported && t.conclusive {
        " (fault reported, conclusive)"
    } else if t.reported {
        " (fault reported, inconclusive)"
    } else {
        ""
    };
    let _ = writeln!(out, "verdict: {verdict}{status}");
    let _ = writeln!(out, "state set: {} of {} bits set", t.ones, t.bits);
    match t.main_group {
        Some(g) => {
            let _ = writeln!(out, "main group: {g} (exact state-set match)");
        }
        None => {
            let _ = writeln!(
                out,
                "main group: none - no group matches this state set exactly"
            );
        }
    }
    if let Some((group, distance)) = t.nearest {
        let _ = writeln!(out, "nearest group: {group} at Hamming distance {distance}");
        if !t.candidates.is_empty() {
            let _ = write!(out, "candidates scanned:");
            for (i, &(g, d)) in t.candidates.iter().enumerate() {
                let _ = write!(out, "{} {g} d={d}", if i > 0 { "," } else { "" });
            }
            out.push('\n');
        }
    }
    let mut implicated: Vec<String> = Vec::new();
    if let (Some((group, _)), Some(nearest_state), Some(state)) =
        (t.nearest, t.nearest_state(), t.state())
    {
        let _ = writeln!(out, "deviating bits vs {group}:");
        for bit in state.diff_indices(&nearest_state) {
            let observed = u8::from(state.get(bit));
            let expects = u8::from(nearest_state.get(bit));
            match log.header.describe_bit(bit) {
                Some((sensor, role)) => {
                    let _ = writeln!(
                        out,
                        "  bit {bit}: {sensor} ({}) observed {observed}, {group} expects {expects}",
                        role_name(role)
                    );
                    let name = sensor.to_string();
                    if !implicated.contains(&name) {
                        implicated.push(name);
                    }
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  bit {bit}: (unmapped) observed {observed}, {group} expects {expects}"
                    );
                }
            }
        }
    }
    if !t.transitions.is_empty() {
        let _ = writeln!(out, "transition context:");
        for row in &t.transitions {
            let flagged = row.observed <= row.threshold;
            let _ = writeln!(
                out,
                "  {} = {} (threshold > {}, row support {} >= min {}){}",
                transition_arrow(row.case),
                row.observed,
                row.threshold,
                row.support,
                row.min_support,
                if flagged { " <- flagged" } else { "" }
            );
            let actuator = match row.case {
                TransitionCase::G2A { actuator, .. } | TransitionCase::A2G { actuator, .. } => {
                    Some(actuator)
                }
                TransitionCase::G2G { .. } => None,
            };
            if flagged {
                if let Some(actuator) = actuator {
                    let name = actuator.to_string();
                    if !implicated.contains(&name) {
                        implicated.push(name);
                    }
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "phase: {} -> {}",
        t.phase_before.as_str(),
        t.phase_after.as_str()
    );
    if !implicated.is_empty() {
        let _ = writeln!(out, "implicated devices: {}", implicated.join(", "));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> TraceHeader {
        TraceHeader {
            num_bits: 6,
            // S0 and S1 are binary; S2 is numeric (3 bits); bit 5 is S3.
            spans: vec![
                (SensorId::new(0), 0, 1),
                (SensorId::new(1), 1, 1),
                (SensorId::new(2), 2, 3),
                (SensorId::new(3), 5, 1),
            ],
        }
    }

    fn sample_trace() -> DecisionTrace {
        DecisionTrace {
            window: 133,
            start: Timestamp::from_mins(133),
            end: Timestamp::from_mins(134),
            bits: 6,
            ones: 2,
            state_words: vec![0b100001],
            main_group: None,
            candidates: vec![(GroupId::new(4), 1), (GroupId::new(2), 3)],
            nearest: Some((GroupId::new(4), 1)),
            nearest_state: vec![0b000001],
            transitions: vec![TraceTransition {
                case: TransitionCase::G2G {
                    from: GroupId::new(1),
                    to: GroupId::new(4),
                },
                observed: 0.25,
                threshold: 0.0,
                support: 16,
                min_support: 5,
            }],
            phase_before: TracePhase::Monitoring,
            phase_after: TracePhase::Identifying,
            verdict: TraceVerdict::Correlation,
            reported: true,
            conclusive: true,
        }
    }

    #[test]
    fn jsonl_round_trip_is_byte_stable() {
        let log = TraceLog {
            header: sample_header(),
            traces: vec![
                sample_trace(),
                DecisionTrace {
                    window: 134,
                    bits: 6,
                    state_words: vec![0b000001],
                    main_group: Some(GroupId::new(0)),
                    ..DecisionTrace::default()
                },
            ],
        };
        let text = write_trace_jsonl(&log);
        let parsed = parse_trace_jsonl(&text).expect("round trip parses");
        assert_eq!(parsed, log);
        assert_eq!(write_trace_jsonl(&parsed), text);
    }

    #[test]
    fn writer_emits_header_once_and_counts_bytes() {
        let layout = BitLayout::from_widths(&[1, 1, 3, 1]);
        let telemetry = Telemetry::recording();
        let mut buffer = Vec::new();
        {
            let mut writer = JsonlTraceWriter::with_telemetry(&mut buffer, &telemetry);
            writer.record(&layout, &sample_trace());
            writer.record(&layout, &sample_trace());
            assert!(!writer.failed());
        }
        let text = String::from_utf8(buffer).unwrap();
        assert_eq!(text.lines().count(), 3, "one header + two traces");
        let log = parse_trace_jsonl(&text).unwrap();
        assert_eq!(log.header, sample_header());
        assert_eq!(log.traces.len(), 2);
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(
            snapshot.counter("dice_trace_snapshot_bytes_total"),
            Some(text.len() as u64)
        );
    }

    #[test]
    fn explain_names_the_deviating_sensor() {
        let log = TraceLog {
            header: sample_header(),
            traces: vec![sample_trace()],
        };
        let rendered = render_explain(&log, None).unwrap();
        assert!(rendered.contains("window 133"), "{rendered}");
        assert!(rendered.contains("correlation violation"), "{rendered}");
        assert!(
            rendered.contains("nearest group: G4 at Hamming distance 1"),
            "{rendered}"
        );
        // Bit 5 deviates; the header maps it to sensor S3.
        assert!(rendered.contains("S3 (activation)"), "{rendered}");
        assert!(rendered.contains("implicated devices: S3"), "{rendered}");
        assert!(rendered.contains("P(G4 | G1) [g2g] = 0.25"), "{rendered}");
        assert!(
            rendered.contains("phase: monitoring -> identifying"),
            "{rendered}"
        );
    }

    #[test]
    fn explain_selects_reported_then_violation_then_first() {
        let normal = DecisionTrace {
            window: 1,
            bits: 6,
            ..DecisionTrace::default()
        };
        let mut violation = sample_trace();
        violation.window = 2;
        violation.reported = false;
        let mut reported = sample_trace();
        reported.window = 3;
        let log = TraceLog {
            header: sample_header(),
            traces: vec![normal.clone(), violation.clone(), reported],
        };
        assert!(render_explain(&log, None).unwrap().contains("window 3"));
        let log2 = TraceLog {
            header: sample_header(),
            traces: vec![normal.clone(), violation],
        };
        assert!(render_explain(&log2, None).unwrap().contains("window 2"));
        let log3 = TraceLog {
            header: sample_header(),
            traces: vec![normal],
        };
        assert!(render_explain(&log3, None).unwrap().contains("window 1"));
        assert!(render_explain(&log3, Some(9)).is_err());
        assert!(render_explain(&log3, Some(1)).is_ok());
    }

    #[test]
    fn trace_options_default_disabled_and_global_mirrors() {
        let options = TraceOptions::default();
        assert!(!options.enabled);
        assert!(options.sink.is_none());
        // Never install in tests: first read pins the default.
        assert!(!TraceOptions::global().enabled);
        assert!(!TraceOptions::install_global(TraceOptions::recording()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_trace_jsonl("").is_err());
        assert!(parse_trace_jsonl("{\"kind\":\"other\",\"schema\":1}").is_err());
        assert!(parse_trace_jsonl(
            "{\"kind\":\"dice-trace\",\"schema\":99,\"num_bits\":4,\"spans\":[]}"
        )
        .is_err());
        let header = "{\"kind\":\"dice-trace\",\"schema\":1,\"num_bits\":4,\"spans\":[[0,0,1]]}";
        assert!(parse_trace_jsonl(&format!("{header}\n{{\"window\":1}}")).is_err());
        assert!(parse_trace_jsonl(&format!("{header}\nnot json")).is_err());
        assert!(parse_trace_jsonl(header).unwrap().traces.is_empty());
    }
}
