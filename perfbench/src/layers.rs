//! The traced run: the per-layer table.
//!
//! Two sources fill it. The serving paths run with `Telemetry::recording()`
//! (and fleet tracing on), and their stage sketches, gauges and counters
//! are read back. Then the benchmark times its own calls into the public
//! functions of each layer on the same input: the frame and message
//! codecs, `ShardEngine`, `Binarizer::binarize_into`,
//! `Detector::correlation_check`, the candidate scan and
//! `DiceEngine::process_window`. Every workload reports every layer: a
//! fleet workload also serves a sample of its homes through the gateway,
//! and the gateway workload also serves its slices as a one-shard fleet.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;

use dice_core::{
    BinarizeScratch, BitSet, Candidate, CostProfile, Detector, DiceEngine, EngineOptions,
    ScanProfile, WindowObservation,
};
use dice_fleet::{decode_frames, encode_frame_into, FleetConfig, ShardEngine, TraceClock};
use dice_gateway::{decode_event_slice, encode_event};
use dice_telemetry::{Snapshot, Telemetry};
use dice_types::{Event, Timestamp};

use crate::serve::{self, Oracle, Round, COOLDOWN};
use crate::workload::{self, Home, Inputs, Kind, Plan, Scale};
use crate::{median, setup, sys, Metric, MIN_ROUNDS};

/// Windows the per-call timings replay (fewer when the input is smaller).
const SAMPLE_WINDOWS: usize = 8192;

/// Homes of a fleet workload the gateway view serves.
const GATEWAY_SAMPLE_HOMES: usize = 32;

/// Repeats of each per-call timing; the median is reported.
const MICRO_REPS: usize = 5;

/// What the traced run produced.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Whether every delivered alarm matched the reference, frames intact.
    pub correct: bool,
    /// Home streams checked against the reference.
    pub attempted: u64,
    /// Home streams that failed the check.
    pub failed: u64,
    /// The scan backend the models dispatched to.
    pub scan_backend: String,
    /// A one-line description of the input.
    pub facts: String,
}

/// Traced fleet rounds, summed, with their telemetry.
struct FleetView {
    rounds: Vec<Round>,
    snapshot: Snapshot,
}

impl FleetView {
    fn sum(&self, f: impl Fn(&Round) -> u64) -> u64 {
        self.rounds.iter().map(f).sum()
    }

    /// (p50 µs, p99 µs, sum ns, count) of shard 0's child of a stage family.
    fn stage(&self, family: &str) -> (f64, f64, u64, u64) {
        self.snapshot
            .sketch_family(family)
            .and_then(|children| children.iter().find(|c| c.values == ["s0"]))
            .map_or((0.0, 0.0, 0, 0), |c| {
                (c.p50 as f64 / 1e3, c.p99 as f64 / 1e3, c.sum, c.count)
            })
    }
}

fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median over `MICRO_REPS` of `f`'s elapsed nanoseconds.
fn timed(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ns(t.elapsed())
        })
        .collect();
    median(&mut samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One sampled window: its home's model and events.
struct Window {
    plan: usize,
    start: Timestamp,
    end: Timestamp,
    events: Vec<Event>,
}

/// The leading homes of `inputs` covering up to `SAMPLE_WINDOWS` windows,
/// and their windows in home-major order.
fn sample(inputs: &Inputs) -> (Vec<Home>, Vec<Window>) {
    let per_home = inputs.minutes;
    let n = SAMPLE_WINDOWS
        .div_ceil(per_home)
        .clamp(1, inputs.homes.len());
    let homes = inputs.homes[..n].to_vec();
    let mut windows = Vec::with_capacity(n * per_home);
    for home in &homes {
        for m in 0..per_home {
            let mut events = Vec::new();
            inputs.for_minute(home, m, |e| events.push(*e));
            windows.push(Window {
                plan: home.plan,
                start: Timestamp::from_mins(m as i64),
                end: Timestamp::from_mins(m as i64 + 1),
                events,
            });
        }
    }
    (homes, windows)
}

/// Runs the traced measurement of `kind`.
pub fn traced(kind: Kind, scale: Scale, seed: u64, seconds: f64) -> Traced {
    let mut out: Vec<Metric> = Vec::new();

    // Set-up layers: training, verified boot, and verification alone.
    let plans = workload::plans(kind);
    let logs: Vec<_> = plans.iter().map(Plan::training_log).collect();
    let (mut train, mut load, mut verify) = (Vec::new(), Vec::new(), Vec::new());
    let mut models = Vec::new();
    for _ in 0..3 {
        let pass = setup(&plans, &logs);
        train.push(pass.train_ns as f64 / 1e9);
        load.push(pass.load_ns as f64 / 1e6);
        let t = Instant::now();
        for model in &pass.models {
            black_box(dice_verify::verify_model(model));
        }
        verify.push(ns(t.elapsed()) / 1e6);
        models = pass.models;
    }
    drop(logs);
    let inputs = workload::inputs(kind, scale, seed, &plans);
    drop(plans);
    let expected = serve::reference(&inputs, &inputs.homes, &models);
    let mut oracle = Oracle::default();

    // Input generation alone: the feed loop with the send taken out.
    let t = Instant::now();
    let mut generated = 0u64;
    for m in 0..inputs.minutes {
        for home in &inputs.homes {
            inputs.for_minute(home, m, |e| {
                black_box(e);
                generated += 1;
            });
        }
    }
    let gen_ns_per_event = ratio(ns(t.elapsed()), generated as f64);

    // The workload's own path: a warm-up round, then untraced and traced
    // rounds alternating for `seconds`.
    let recording = Telemetry::recording();
    let serve_primary = |traced: bool| {
        let telemetry = if traced {
            recording.clone()
        } else {
            Telemetry::noop()
        };
        if kind.serves_fleet() {
            serve::fleet_round(&inputs, &inputs.homes, &models, telemetry, traced)
        } else {
            serve::gateway_round(&inputs, &inputs.homes, &models, &telemetry)
        }
    };
    oracle.check(&expected, &serve_primary(false));
    let (mut plain_wps, mut traced_wps) = (Vec::new(), Vec::new());
    let mut traced_rounds = Vec::new();
    let t0 = Instant::now();
    while plain_wps.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        let plain = serve_primary(false);
        oracle.check(&expected, &plain);
        plain_wps.push(plain.windows_per_s());
        let traced = serve_primary(true);
        oracle.check(&expected, &traced);
        traced_wps.push(traced.windows_per_s());
        traced_rounds.push(traced);
    }
    let rounds = plain_wps.len();
    let plain_median = median(&mut plain_wps);
    let overhead_pct = (plain_median - median(&mut traced_wps)) / plain_median * 100.0;
    let primary_snapshot = recording.snapshot().expect("recording telemetry");
    let primary_wall: u64 = traced_rounds.iter().map(|r| r.wall_ns).sum();
    let primary_frames: u64 = traced_rounds.iter().map(|r| r.frames).sum();

    // The other path's view of the same input, traced.
    let (sample_homes, windows) = sample(&inputs);
    let gateway_homes: Vec<Home> = if kind.serves_fleet() {
        inputs.homes[..GATEWAY_SAMPLE_HOMES.min(inputs.homes.len())].to_vec()
    } else {
        inputs.homes.clone()
    };
    let fleet_view = if kind.serves_fleet() {
        FleetView {
            rounds: traced_rounds,
            snapshot: primary_snapshot.clone(),
        }
    } else {
        let telemetry = Telemetry::recording();
        let round = serve::fleet_round(&inputs, &inputs.homes, &models, telemetry.clone(), true);
        oracle.check(&expected, &round);
        FleetView {
            rounds: vec![round],
            snapshot: telemetry.snapshot().expect("recording telemetry"),
        }
    };
    let gateway_snapshot = if kind.serves_fleet() {
        let telemetry = Telemetry::recording();
        let round = serve::gateway_round(&inputs, &gateway_homes, &models, &telemetry);
        oracle.check(&expected[..gateway_homes.len()], &round);
        telemetry.snapshot().expect("recording telemetry")
    } else {
        primary_snapshot
    };

    // Channel hand-off: threaded serving minus the gateway alone on a
    // pre-filled channel, per event, both untraced.
    let mut threaded = Vec::new();
    let mut prefilled = Vec::new();
    for _ in 0..MIN_ROUNDS {
        let round = serve::gateway_round(&inputs, &gateway_homes, &models, &Telemetry::noop());
        threaded.push(ratio(round.wall_ns as f64, round.frames as f64));
        let round = serve::gateway_prefilled(&inputs, &gateway_homes, &models);
        prefilled.push(ratio(round.wall_ns as f64, round.frames as f64));
    }
    let handoff_ns = median(&mut threaded) - median(&mut prefilled);

    // Fleet service and shard layers, from the fleet view.
    let fv = &fleet_view;
    let fleet_wall = fv.sum(|r| r.wall_ns) as f64;
    let fleet_frames = fv.sum(|r| r.frames) as f64;
    let blocked = fv.sum(|r| r.fleet.backpressure_wait_ns) as f64;
    let feed = fv.sum(|r| r.feed_ns) as f64;
    let send_ns = ratio(
        feed - blocked - gen_ns_per_event * fleet_frames,
        fleet_frames,
    );
    let (qw50, qw99, _, _) = fv.stage("dice_fleet_stage_queue_wait_ns");
    let (dq50, dq99, dq_sum, _) = fv.stage("dice_fleet_stage_dequeue_ns");
    let (sc50, sc99, sc_sum, sweeps) = fv.stage("dice_fleet_stage_scan_ns");
    let (vd50, vd99, vd_sum, _) = fv.stage("dice_fleet_stage_verdict_ns");
    let (pb50, pb99, pb_sum, _) = fv.stage("dice_fleet_stage_publish_ns");
    let alarms = fv.sum(|r| r.fleet.alarms) as f64;
    let suppressed = fv.sum(|r| r.fleet.suppressed) as f64;

    // Per-call timings on the sampled windows.
    let codec_events: Vec<(u32, Event)> = sample_homes
        .iter()
        .flat_map(|h| inputs.stream(h).into_iter().map(move |e| (h.id, e)))
        .collect();
    let n_events = codec_events.len() as f64;
    let mut frame_buf = BytesMut::new();
    let encode_frame = timed(|| {
        frame_buf = BytesMut::new();
        for (home, event) in &codec_events {
            encode_frame_into(*home, event, &mut frame_buf);
        }
    });
    let frame_bytes = frame_buf.freeze();
    let decode_frame = timed(|| {
        let decoded = decode_frames(frame_bytes.as_slice())
            .filter(Result::is_ok)
            .count();
        assert_eq!(decoded, codec_events.len(), "every frame decodes");
    });
    let mut messages = Vec::with_capacity(codec_events.len());
    let mut encode_samples: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            messages.clear();
            let t = Instant::now();
            messages.extend(codec_events.iter().map(|(_, e)| encode_event(e)));
            ns(t.elapsed())
        })
        .collect();
    let encode_message = median(&mut encode_samples);
    let decode_message = timed(|| {
        for frame in &messages {
            black_box(decode_event_slice(frame.as_slice()).expect("message decodes"));
        }
    });

    // ShardEngine: building every home (and its heap), then ingesting the
    // sampled homes' frames packed as the sender packs them.
    let (from, to) = inputs.range();
    // Batch and sweep sizes as the fleet service uses them by default.
    let defaults = FleetConfig::default();
    let new_shard = |homes: &[Home]| {
        ShardEngine::new(
            0,
            homes
                .iter()
                .map(|h| (h.id, Arc::clone(&models[h.plan])))
                .collect(),
            defaults.batch_windows,
            COOLDOWN,
            from,
            to,
            Telemetry::noop(),
            false,
            TraceClock::wall(),
        )
    };
    let t = Instant::now();
    let (state_bytes, _, shard) = sys::heap_growth(|| new_shard(&inputs.homes));
    let build_ms = ns(t.elapsed()) / 1e6;
    drop(shard);
    let mut batches = Vec::new();
    let mut batch = BytesMut::new();
    let mut in_batch = 0;
    for m in 0..inputs.minutes {
        for home in &sample_homes {
            inputs.for_minute(home, m, |e| {
                encode_frame_into(home.id, e, &mut batch);
                in_batch += 1;
                if in_batch == defaults.frames_per_batch {
                    batches.push(std::mem::take(&mut batch).freeze());
                    in_batch = 0;
                }
            });
        }
    }
    batches.push(batch.freeze());
    let mut ingest_samples: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let mut shard = new_shard(&sample_homes);
            let t = Instant::now();
            for b in &batches {
                shard.ingest_batch(b.as_slice());
            }
            let elapsed = ns(t.elapsed());
            assert_eq!(
                shard.stats().frames as f64,
                n_events,
                "every frame ingested"
            );
            elapsed
        })
        .collect();
    let ingest = median(&mut ingest_samples);

    // Core layers on the sampled windows.
    let mut scratch = BinarizeScratch::default();
    let mut obs: Vec<WindowObservation> = Vec::new();
    obs.resize_with(windows.len(), WindowObservation::default);
    let binarize = timed(|| {
        for (w, o) in windows.iter().zip(obs.iter_mut()) {
            models[w.plan]
                .binarizer()
                .binarize_into(w.start, w.end, &w.events, &mut scratch, o);
        }
    });
    let mut hits = 0;
    let detect = timed(|| {
        hits = windows
            .iter()
            .zip(&obs)
            .filter(|(w, o)| {
                Detector::new(&models[w.plan])
                    .correlation_check(o)
                    .is_some()
            })
            .count();
    });
    let misses: Vec<usize> = (0..windows.len())
        .filter(|&i| {
            Detector::new(&models[windows[i].plan])
                .correlation_check(&obs[i])
                .is_none()
        })
        .collect();
    let queries = misses.len() as f64;
    let mut profile = ScanProfile::default();
    let mut fallbacks = 0;
    let mut cands: Vec<Candidate> = Vec::new();
    let scan_single = timed(|| {
        profile = ScanProfile::default();
        fallbacks = 0;
        for &i in &misses {
            let model = &models[windows[i].plan];
            profile.absorb(model.scan().candidates_into(
                &obs[i].state,
                model.candidate_distance(),
                &mut cands,
            ));
            if cands.is_empty() {
                fallbacks += 1;
            }
        }
    });
    let mut batch_out = Vec::new();
    let scan_batch = timed(|| {
        for (p, model) in models.iter().enumerate() {
            let qs: Vec<&BitSet> = misses
                .iter()
                .filter(|&&i| windows[i].plan == p)
                .map(|&i| &obs[i].state)
                .collect();
            if !qs.is_empty() {
                black_box(model.scan().candidates_batch_into(
                    &qs,
                    model.candidate_distance(),
                    &mut batch_out,
                ));
            }
        }
    });
    let groups = ratio(
        misses
            .iter()
            .map(|&i| models[windows[i].plan].groups().len() as f64)
            .sum(),
        queries,
    );

    // DiceEngine::process_window per window, home by home.
    let mut window_ns: Vec<u64> = Vec::with_capacity(windows.len());
    let mut cost = CostProfile::default();
    for chunk in windows.chunks(inputs.minutes) {
        let mut engine = DiceEngine::with_options(
            Arc::clone(&models[chunk[0].plan]),
            EngineOptions {
                telemetry: Telemetry::noop(),
                ..EngineOptions::default()
            },
        );
        for w in chunk {
            let t = Instant::now();
            black_box(engine.process_window(w.start, w.end, &w.events));
            window_ns.push(t.elapsed().as_nanos() as u64);
        }
        cost.merge(&engine.cost_profile());
    }
    window_ns.sort_unstable();
    let pct = |q: f64| window_ns[((window_ns.len() - 1) as f64 * q).round() as usize] as f64;
    let n_windows = windows.len() as f64;
    let engine_mean = window_ns.iter().sum::<u64>() as f64 / n_windows;
    let overhead = engine_mean - (binarize + detect + scan_single) / n_windows;

    // Trace attribution over the primary path's traced rounds: the share of
    // wall time no layer covers, on whichever thread is busier.
    let unattributed_pct = if kind.serves_fleet() {
        let shard_busy = (dq_sum + sc_sum + vd_sum + pb_sum) as f64;
        let feeder_busy = feed - blocked;
        ratio(fleet_wall - shard_busy.max(feeder_busy), fleet_wall).max(0.0) * 100.0
    } else {
        let (_, window_sum) = gateway_snapshot
            .sketch("dice_gateway_window_ns")
            .unwrap_or((0, 0));
        let frames = primary_frames as f64;
        let gateway_busy = window_sum as f64 + frames * ratio(decode_message, n_events);
        let producer_busy = frames * (gen_ns_per_event + ratio(encode_message, n_events));
        let wall = primary_wall as f64;
        ratio(wall - gateway_busy.max(producer_busy), wall).max(0.0) * 100.0
    };
    let (gw50, _, gw99) = gateway_snapshot
        .sketch_percentiles("dice_gateway_window_ns")
        .unwrap_or((0, 0, 0));

    out.extend([
        (
            "fleet.frame.encode_ns_per_frame",
            encode_frame / n_events,
            "ns",
        ),
        (
            "fleet.frame.decode_ns_per_frame",
            decode_frame / n_events,
            "ns",
        ),
        ("fleet.service.send_ns_per_frame", send_ns, "ns"),
        (
            "fleet.service.blocked_share",
            ratio(blocked, fleet_wall),
            "ratio",
        ),
        ("fleet.service.queue_wait_p50_us", qw50, "us"),
        ("fleet.service.queue_wait_p99_us", qw99, "us"),
        ("fleet.shard.ingest_ns_per_frame", ingest / n_events, "ns"),
        ("fleet.shard.build_ms", build_ms, "ms"),
        (
            "fleet.shard.windows_per_sweep",
            ratio(fv.sum(|r| r.windows) as f64, sweeps as f64),
            "count",
        ),
        (
            "fleet.shard.suppressed_share",
            ratio(suppressed, alarms + suppressed),
            "ratio",
        ),
        ("fleet.shard.dequeue_p50_us", dq50, "us"),
        ("fleet.shard.dequeue_p99_us", dq99, "us"),
        ("fleet.shard.scan_p50_us", sc50, "us"),
        ("fleet.shard.scan_p99_us", sc99, "us"),
        ("fleet.shard.verdict_p50_us", vd50, "us"),
        ("fleet.shard.verdict_p99_us", vd99, "us"),
        ("fleet.shard.publish_p50_us", pb50, "us"),
        ("fleet.shard.publish_p99_us", pb99, "us"),
        (
            "fleet.shard.state_bytes_per_home",
            state_bytes as f64 / inputs.homes.len() as f64,
            "bytes",
        ),
        (
            "gateway.message.encode_ns_per_event",
            encode_message / n_events,
            "ns",
        ),
        (
            "gateway.message.decode_ns_per_event",
            decode_message / n_events,
            "ns",
        ),
        ("gateway.handoff_ns_per_event", handoff_ns, "ns"),
        ("gateway.window_p50_us", gw50 as f64 / 1e3, "us"),
        ("gateway.window_p99_us", gw99 as f64 / 1e3, "us"),
        (
            "gateway.channel_depth_hwm",
            gateway_snapshot
                .gauge("dice_gateway_channel_depth")
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "core.binarize.ns_per_event",
            ratio(binarize, n_events),
            "ns",
        ),
        ("core.detect.ns_per_window", detect / n_windows, "ns"),
        (
            "core.detect.main_group_hit_rate",
            hits as f64 / n_windows,
            "ratio",
        ),
        ("core.scan.ns_per_query", ratio(scan_single, queries), "ns"),
        (
            "core.scan.batch_ns_per_query",
            ratio(scan_batch, queries),
            "ns",
        ),
        (
            "core.scan.rows_per_query",
            ratio(f64::from(profile.rows), queries),
            "count",
        ),
        (
            "core.scan.prune_rate",
            ratio(f64::from(profile.pruned), f64::from(profile.rows)),
            "ratio",
        ),
        (
            "core.scan.fallback_share",
            ratio(fallbacks as f64, queries),
            "ratio",
        ),
        ("core.scan.groups", groups, "count"),
        (
            "core.engine.correlation_ns_per_window",
            cost.correlation_ns as f64 / n_windows,
            "ns",
        ),
        (
            "core.engine.transition_ns_per_window",
            cost.transition_ns as f64 / n_windows,
            "ns",
        ),
        (
            "core.engine.identification_ns_per_window",
            cost.identification_ns as f64 / n_windows,
            "ns",
        ),
        ("core.engine.window_p50_ns", pct(0.50), "ns"),
        ("core.engine.window_p99_ns", pct(0.99), "ns"),
        ("core.engine.overhead_ns_per_window", overhead, "ns"),
        ("core.train_par.train_s", median(&mut train), "s"),
        ("verify.verify_ms", median(&mut verify), "ms"),
        ("gateway.boot.load_ms", median(&mut load), "ms"),
        ("bench.gen_ns_per_event", gen_ns_per_event, "ns"),
        ("serve.windows_per_s", plain_median, "1/s"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.unattributed_pct", unattributed_pct, "%"),
        ("oracle.alarm_mismatch", oracle.mismatch as f64, "count"),
        (
            "oracle.frame_error_rate",
            oracle.frame_error_rate(),
            "ratio",
        ),
    ]);

    Traced {
        metrics: out,
        correct: oracle.passed(),
        attempted: oracle.attempted,
        failed: oracle.failed,
        scan_backend: models[0].scan().backend().name().to_string(),
        facts: crate::facts(kind, seed, &inputs, rounds),
    }
}
