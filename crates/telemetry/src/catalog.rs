//! The DICE metric catalog: every metric the engine, gateway, and eval
//! stack record, registered once with static handles.
//!
//! Names follow the Prometheus convention `dice_<layer>_<what>[_total]`.
//! The DESIGN.md section 5e table is generated from the help strings here;
//! [`crate::validate_snapshot_json`] requires every catalog name to be
//! present in an exported snapshot.

use std::sync::Arc;

use crate::family::Family;
use crate::registry::{Counter, Gauge, Registry};
use crate::sketch::QuantileSketch;

/// Cardinality cap for per-shard metric labels. Shards below the cap get
/// their own `shard="s<n>"` child; anything beyond shares one overflow
/// child (`shard="s64+"`), so a misconfigured shard count can never blow
/// up the label space of the per-shard families.
pub const MAX_SHARD_LABELS: usize = 64;

/// The metric label value for shard `shard`: `"s0"`, `"s1"`, ... up to
/// [`MAX_SHARD_LABELS`], then the shared overflow value `"s64+"`.
pub fn shard_label(shard: usize) -> String {
    if shard < MAX_SHARD_LABELS {
        format!("s{shard}")
    } else {
        format!("s{MAX_SHARD_LABELS}+")
    }
}

/// Engine-layer metrics (`dice-core`): per-window check outcomes, scan
/// prefilter effectiveness, and the Figure 5.3 latency split.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Windows processed by any engine in this process.
    pub windows_total: Arc<Counter>,
    /// Windows whose state set matched a main group exactly.
    pub main_group_hits_total: Arc<Counter>,
    /// Windows flagged by the correlation check.
    pub correlation_violations_total: Arc<Counter>,
    /// Windows flagged by the transition check.
    pub transition_violations_total: Arc<Counter>,
    /// Zero-probability G2G cases found.
    pub transition_cases_g2g_total: Arc<Counter>,
    /// Zero-probability G2A cases found.
    pub transition_cases_g2a_total: Arc<Counter>,
    /// Zero-probability A2G cases found.
    pub transition_cases_a2g_total: Arc<Counter>,
    /// Group rows visited by candidate scans.
    pub scan_rows_total: Arc<Counter>,
    /// Group rows skipped by the popcount prefilter before any XOR work.
    pub scan_rows_pruned_total: Arc<Counter>,
    /// Candidate groups admitted by candidate scans.
    pub scan_candidates_total: Arc<Counter>,
    /// Fault reports emitted.
    pub reports_total: Arc<Counter>,
    /// Fault reports that converged below `numThre`.
    pub reports_conclusive_total: Arc<Counter>,
    /// Wall-clock time of binarization + the correlation check, per window.
    pub correlation_check_ns: Arc<QuantileSketch>,
    /// Wall-clock time of the transition check, per checked window.
    pub transition_check_ns: Arc<QuantileSketch>,
    /// Wall-clock time of the identification step, per window.
    pub identification_ns: Arc<QuantileSketch>,
    /// Windows from detection to an emitted report.
    pub identification_windows: Arc<QuantileSketch>,
    /// Layout fingerprint of the most recently constructed engine's model,
    /// folded to the non-negative `i64` range. Snapshots carry it so
    /// `dice-lint` can check a telemetry export against the model and trace
    /// files it was recorded with.
    pub model_layout_fingerprint: Arc<Gauge>,
    /// Quantile sketch over whole-window detection time (all checks).
    pub detection_ns: Arc<QuantileSketch>,
}

impl EngineMetrics {
    fn register(r: &Registry) -> Self {
        EngineMetrics {
            windows_total: r.counter("dice_engine_windows_total", "Windows processed"),
            main_group_hits_total: r.counter(
                "dice_engine_main_group_hits_total",
                "Windows with an exact main-group match",
            ),
            correlation_violations_total: r.counter(
                "dice_engine_correlation_violations_total",
                "Windows flagged by the correlation check",
            ),
            transition_violations_total: r.counter(
                "dice_engine_transition_violations_total",
                "Windows flagged by the transition check",
            ),
            transition_cases_g2g_total: r.counter(
                "dice_engine_transition_cases_g2g_total",
                "Zero-probability group-to-group cases",
            ),
            transition_cases_g2a_total: r.counter(
                "dice_engine_transition_cases_g2a_total",
                "Zero-probability group-to-actuator cases",
            ),
            transition_cases_a2g_total: r.counter(
                "dice_engine_transition_cases_a2g_total",
                "Zero-probability actuator-to-group cases",
            ),
            scan_rows_total: r.counter(
                "dice_engine_scan_rows_total",
                "Group rows visited by candidate scans",
            ),
            scan_rows_pruned_total: r.counter(
                "dice_engine_scan_rows_pruned_total",
                "Group rows pruned by the popcount prefilter",
            ),
            scan_candidates_total: r.counter(
                "dice_engine_scan_candidates_total",
                "Candidate groups admitted by candidate scans",
            ),
            reports_total: r.counter("dice_engine_reports_total", "Fault reports emitted"),
            reports_conclusive_total: r.counter(
                "dice_engine_reports_conclusive_total",
                "Fault reports that converged below numThre",
            ),
            correlation_check_ns: r.sketch(
                "dice_engine_correlation_check_ns",
                "Binarization + correlation check time per window",
                "ns",
            ),
            transition_check_ns: r.sketch(
                "dice_engine_transition_check_ns",
                "Transition check time per checked window",
                "ns",
            ),
            identification_ns: r.sketch(
                "dice_engine_identification_ns",
                "Identification time per window",
                "ns",
            ),
            identification_windows: r.sketch(
                "dice_engine_identification_windows",
                "Windows from detection to report",
                "windows",
            ),
            model_layout_fingerprint: r.gauge(
                "dice_engine_model_layout_fingerprint",
                "Layout fingerprint of the active model (0 before any engine ran)",
            ),
            detection_ns: r.sketch(
                "dice_engine_detection_ns",
                "Whole-window detection latency quantiles",
                "ns",
            ),
        }
    }

    /// Fraction of scanned rows skipped by the popcount prefilter, in
    /// `[0, 1]`; 0 when nothing was scanned.
    pub fn scan_prefilter_hit_rate(&self) -> f64 {
        let rows = self.scan_rows_total.get();
        if rows == 0 {
            0.0
        } else {
            self.scan_rows_pruned_total.get() as f64 / rows as f64
        }
    }
}

/// Gateway-layer metrics (`dice-gateway`): frame decode outcomes, merge
/// fan-in pressure, alarms, and boot verification findings.
#[derive(Debug, Clone)]
pub struct GatewayMetrics {
    /// Frames received from aggregators.
    pub frames_total: Arc<Counter>,
    /// Frames that failed to decode and were dropped.
    pub decode_errors_total: Arc<Counter>,
    /// Events accepted into the monitored range.
    pub events_total: Arc<Counter>,
    /// Windows closed and fed to the engine.
    pub windows_total: Arc<Counter>,
    /// Alarms delivered to the alarm channel.
    pub alarms_total: Arc<Counter>,
    /// Alarms suppressed by the per-device cooldown.
    pub alarms_suppressed_total: Arc<Counter>,
    /// Deepest queue of frames across aggregator channels, sampled when a
    /// run starts and at each window close.
    pub channel_depth: Arc<Gauge>,
    /// Currently connected aggregator streams.
    pub streams_connected: Arc<Gauge>,
    /// Static-verification findings reported at gateway boot.
    pub boot_findings_total: Arc<Counter>,
    /// Quantile sketch over gateway window close-to-verdict latency.
    pub window_ns: Arc<QuantileSketch>,
    /// Windows closed, labeled by home.
    pub home_windows_total: Arc<Family<Counter>>,
    /// Alarms delivered, labeled by home.
    pub home_alarms_total: Arc<Family<Counter>>,
    /// Deepest queue of frames per aggregator channel, sampled when a run
    /// starts and at each window close, labeled by aggregator shard.
    pub shard_depth: Arc<Family<Gauge>>,
}

impl GatewayMetrics {
    fn register(r: &Registry) -> Self {
        GatewayMetrics {
            frames_total: r.counter(
                "dice_gateway_frames_total",
                "Frames received from aggregators",
            ),
            decode_errors_total: r.counter(
                "dice_gateway_decode_errors_total",
                "Frames dropped as undecodable",
            ),
            events_total: r.counter(
                "dice_gateway_events_total",
                "Events accepted into the monitored range",
            ),
            windows_total: r.counter(
                "dice_gateway_windows_total",
                "Windows closed by the gateway loop",
            ),
            alarms_total: r.counter("dice_gateway_alarms_total", "Alarms delivered"),
            alarms_suppressed_total: r.counter(
                "dice_gateway_alarms_suppressed_total",
                "Alarms suppressed by the cooldown",
            ),
            channel_depth: r.gauge(
                "dice_gateway_channel_depth",
                "Deepest queue of frames across aggregator channels at a window close",
            ),
            streams_connected: r.gauge(
                "dice_gateway_streams_connected",
                "Currently connected aggregator streams",
            ),
            boot_findings_total: r.counter(
                "dice_gateway_boot_findings_total",
                "Verification findings at gateway boot",
            ),
            window_ns: r.sketch(
                "dice_gateway_window_ns",
                "Gateway window close-to-verdict latency quantiles",
                "ns",
            ),
            home_windows_total: r.counter_family(
                "dice_gateway_home_windows_total",
                "Windows closed per home",
                &["home"],
            ),
            home_alarms_total: r.counter_family(
                "dice_gateway_home_alarms_total",
                "Alarms delivered per home",
                &["home"],
            ),
            shard_depth: r.gauge_family(
                "dice_gateway_shard_depth",
                "Deepest queue of frames per aggregator shard at a window close",
                &["shard"],
            ),
        }
    }
}

/// Fleet-layer metrics (`dice-fleet`): multi-home ingestion volume,
/// per-shard load, back-pressure, and model-cache residency.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Wire frames ingested across all shards.
    pub frames_total: Arc<Counter>,
    /// Wire frames (and the remainder of their batch) dropped as
    /// undecodable.
    pub decode_errors_total: Arc<Counter>,
    /// Events accepted into the monitored range.
    pub events_total: Arc<Counter>,
    /// Windows closed across all homes.
    pub windows_total: Arc<Counter>,
    /// Alarms delivered across all homes.
    pub alarms_total: Arc<Counter>,
    /// Alarms suppressed by the per-home cooldown.
    pub alarms_suppressed_total: Arc<Counter>,
    /// Sends that found their shard queue at capacity and blocked.
    pub backpressure_waits_total: Arc<Counter>,
    /// Homes registered with the fleet service.
    pub homes: Arc<Gauge>,
    /// Shards the fleet service is running.
    pub shards: Arc<Gauge>,
    /// Distinct `DiceModel` instances resident across all homes.
    pub models_resident: Arc<Gauge>,
    /// Windows closed, labeled by shard.
    pub shard_windows_total: Arc<Family<Counter>>,
    /// High-water mark of queued frame batches, labeled by shard.
    pub shard_depth: Arc<Family<Gauge>>,
    /// Sends that found the shard queue at capacity, labeled by shard.
    pub shard_backpressure_waits: Arc<Family<Counter>>,
    /// Nanoseconds senders spent blocked on a full shard queue, labeled by
    /// shard.
    pub shard_backpressure_wait_ns: Arc<Family<Counter>>,
    /// Sender-side enqueue latency (the blocking send itself), labeled by
    /// destination shard.
    pub stage_enqueue_wait_ns: Arc<Family<QuantileSketch>>,
    /// Time a frame batch sat in its shard queue before being dequeued.
    pub stage_queue_wait_ns: Arc<Family<QuantileSketch>>,
    /// Dequeue-to-scan time per batch: frame decode and window assembly,
    /// including the binarization of each window as it closes.
    pub stage_dequeue_ns: Arc<Family<QuantileSketch>>,
    /// Correlation-check time per detection sweep (every ready
    /// observation's exact group lookup).
    pub stage_scan_ns: Arc<Family<QuantileSketch>>,
    /// Engine verdict time per detection sweep (every ready observation
    /// driven to a decision, violating windows' candidate scans included).
    pub stage_verdict_ns: Arc<Family<QuantileSketch>>,
    /// Alarm publish time per detection sweep (cooldown bookkeeping and
    /// report delivery).
    pub stage_publish_ns: Arc<Family<QuantileSketch>>,
}

impl FleetMetrics {
    fn register(r: &Registry) -> Self {
        FleetMetrics {
            frames_total: r.counter("dice_fleet_frames_total", "Wire frames ingested by shards"),
            decode_errors_total: r.counter(
                "dice_fleet_decode_errors_total",
                "Frame batches dropped as undecodable",
            ),
            events_total: r.counter(
                "dice_fleet_events_total",
                "Events accepted into the monitored range",
            ),
            windows_total: r.counter(
                "dice_fleet_windows_total",
                "Windows closed across all homes",
            ),
            alarms_total: r.counter("dice_fleet_alarms_total", "Alarms delivered across homes"),
            alarms_suppressed_total: r.counter(
                "dice_fleet_alarms_suppressed_total",
                "Alarms suppressed by the per-home cooldown",
            ),
            backpressure_waits_total: r.counter(
                "dice_fleet_backpressure_waits_total",
                "Sends that found their shard queue at capacity",
            ),
            homes: r.gauge(
                "dice_fleet_homes",
                "Homes registered with the fleet service",
            ),
            shards: r.gauge("dice_fleet_shards", "Shards the fleet service is running"),
            models_resident: r.gauge(
                "dice_fleet_models_resident",
                "Distinct DiceModel instances resident across homes",
            ),
            shard_windows_total: r.counter_family(
                "dice_fleet_shard_windows_total",
                "Windows closed per shard",
                &["shard"],
            ),
            shard_depth: r.gauge_family(
                "dice_fleet_shard_depth",
                "High-water mark of queued frame batches per shard",
                &["shard"],
            ),
            shard_backpressure_waits: r.counter_family(
                "dice_fleet_shard_backpressure_waits_total",
                "Sends that found the shard queue at capacity, per shard",
                &["shard"],
            ),
            shard_backpressure_wait_ns: r.counter_family(
                "dice_fleet_shard_backpressure_wait_ns_total",
                "Nanoseconds senders spent blocked on a full shard queue",
                &["shard"],
            ),
            stage_enqueue_wait_ns: r.sketch_family(
                "dice_fleet_stage_enqueue_wait_ns",
                "Sender-side blocking enqueue latency per shard",
                "ns",
                &["shard"],
            ),
            stage_queue_wait_ns: r.sketch_family(
                "dice_fleet_stage_queue_wait_ns",
                "Time a frame batch sat in its shard queue",
                "ns",
                &["shard"],
            ),
            stage_dequeue_ns: r.sketch_family(
                "dice_fleet_stage_dequeue_ns",
                "Dequeue-to-scan time per batch (decode + window assembly)",
                "ns",
                &["shard"],
            ),
            stage_scan_ns: r.sketch_family(
                "dice_fleet_stage_scan_ns",
                "Correlation-check time per detection sweep",
                "ns",
                &["shard"],
            ),
            stage_verdict_ns: r.sketch_family(
                "dice_fleet_stage_verdict_ns",
                "Engine verdict time per detection sweep",
                "ns",
                &["shard"],
            ),
            stage_publish_ns: r.sketch_family(
                "dice_fleet_stage_publish_ns",
                "Alarm publish time per detection sweep",
                "ns",
                &["shard"],
            ),
        }
    }
}

/// Eval-layer metrics (`dice-eval`): per-trial durations and parallel
/// worker utilization.
#[derive(Debug, Clone)]
pub struct EvalMetrics {
    /// Trials executed (faulty + faultless replays count as one trial).
    pub trials_total: Arc<Counter>,
    /// Datasets trained.
    pub datasets_total: Arc<Counter>,
    /// Wall-clock duration of one trial.
    pub trial_ns: Arc<QuantileSketch>,
    /// Sum of per-trial durations (worker busy time).
    pub worker_busy_ns: Arc<Counter>,
    /// Wall-clock time inside parallel evaluation sections.
    pub wall_ns: Arc<Counter>,
    /// Parallel worker threads in the evaluation pool.
    pub workers: Arc<Gauge>,
}

impl EvalMetrics {
    fn register(r: &Registry) -> Self {
        EvalMetrics {
            trials_total: r.counter("dice_eval_trials_total", "Evaluation trials executed"),
            datasets_total: r.counter("dice_eval_datasets_total", "Datasets trained"),
            trial_ns: r.sketch(
                "dice_eval_trial_ns",
                "Wall-clock duration of one trial",
                "ns",
            ),
            worker_busy_ns: r.counter(
                "dice_eval_worker_busy_ns",
                "Sum of per-trial durations across workers",
            ),
            wall_ns: r.counter(
                "dice_eval_wall_ns",
                "Wall-clock time inside parallel evaluation sections",
            ),
            workers: r.gauge("dice_eval_workers", "Parallel evaluation worker threads"),
        }
    }

    /// Parallel worker utilization in `[0, 1]`: busy time divided by wall
    /// time times workers. 0 before any parallel section ran.
    pub fn worker_utilization(&self) -> f64 {
        let workers = self.workers.get().max(1) as f64;
        let wall = self.wall_ns.get() as f64 * workers;
        if wall <= 0.0 {
            0.0
        } else {
            (self.worker_busy_ns.get() as f64 / wall).min(1.0)
        }
    }
}

/// Training-layer metrics (`dice-core`'s parallel trainer): chunked
/// precomputation throughput, merge cost, and worker utilization.
#[derive(Debug, Clone)]
pub struct TrainMetrics {
    /// Training windows consumed across all chunks.
    pub windows_total: Arc<Counter>,
    /// Chunks extracted by parallel training runs.
    pub chunks_total: Arc<Counter>,
    /// Wall-clock time of one deterministic partial-model merge.
    pub merge_ns: Arc<QuantileSketch>,
    /// Sum of per-chunk extraction durations (worker busy time).
    pub worker_busy_ns: Arc<Counter>,
    /// Wall-clock time inside parallel training sections.
    pub wall_ns: Arc<Counter>,
    /// Parallel worker threads available to the trainer.
    pub workers: Arc<Gauge>,
}

impl TrainMetrics {
    fn register(r: &Registry) -> Self {
        TrainMetrics {
            windows_total: r.counter(
                "dice_train_windows_total",
                "Training windows consumed by the parallel trainer",
            ),
            chunks_total: r.counter(
                "dice_train_chunks_total",
                "Chunks extracted by parallel training runs",
            ),
            merge_ns: r.sketch(
                "dice_train_merge_ns",
                "Deterministic partial-model merge time",
                "ns",
            ),
            worker_busy_ns: r.counter(
                "dice_train_worker_busy_ns",
                "Sum of per-chunk extraction durations across workers",
            ),
            wall_ns: r.counter(
                "dice_train_wall_ns",
                "Wall-clock time inside parallel training sections",
            ),
            workers: r.gauge("dice_train_workers", "Parallel training worker threads"),
        }
    }

    /// Parallel worker utilization in `[0, 1]`: busy time divided by wall
    /// time times workers. 0 before any training section ran.
    pub fn worker_utilization(&self) -> f64 {
        let workers = self.workers.get().max(1) as f64;
        let wall = self.wall_ns.get() as f64 * workers;
        if wall <= 0.0 {
            0.0
        } else {
            (self.worker_busy_ns.get() as f64 / wall).min(1.0)
        }
    }
}

/// Trace-layer metrics (`dice-core`'s decision tracing): flight-recorder
/// volume, evidence export, and explain rendering cost.
#[derive(Debug, Clone)]
pub struct TraceMetrics {
    /// Decision traces recorded into flight recorders.
    pub records_total: Arc<Counter>,
    /// Traces evicted from flight recorders by wraparound.
    pub ring_dropped_total: Arc<Counter>,
    /// Bytes of JSONL trace evidence written by sinks.
    pub snapshot_bytes_total: Arc<Counter>,
    /// Wall-clock time to render one `explain` narrative.
    pub explain_render_ns: Arc<QuantileSketch>,
}

impl TraceMetrics {
    fn register(r: &Registry) -> Self {
        TraceMetrics {
            records_total: r.counter(
                "dice_trace_records_total",
                "Decision traces recorded into flight recorders",
            ),
            ring_dropped_total: r.counter(
                "dice_trace_ring_dropped_total",
                "Decision traces evicted by flight-recorder wraparound",
            ),
            snapshot_bytes_total: r.counter(
                "dice_trace_snapshot_bytes_total",
                "Bytes of JSONL trace evidence written",
            ),
            explain_render_ns: r.sketch(
                "dice_trace_explain_render_ns",
                "Time to render one explain narrative",
                "ns",
            ),
        }
    }
}

/// Health-layer metrics (`dice-telemetry`'s rule engine): the overall
/// verdict of the most recent [`HealthReport`](crate::HealthReport)
/// evaluation, mirrored into the registry so exports carry it.
#[derive(Debug, Clone)]
pub struct HealthMetrics {
    /// Overall health verdict (0 ok, 1 warn, 2 crit; 0 before any
    /// evaluation ran).
    pub status: Arc<Gauge>,
}

impl HealthMetrics {
    fn register(r: &Registry) -> Self {
        HealthMetrics {
            status: r.gauge(
                "dice_health_status",
                "Overall health verdict (0 ok, 1 warn, 2 crit)",
            ),
        }
    }
}

/// Time-series-layer metrics (`dice-telemetry`'s recorder): sampling
/// volume and the recorder's own overhead per sweep.
#[derive(Debug, Clone)]
pub struct TimeseriesMetrics {
    /// Registry sweeps taken by the time-series recorder.
    pub samples_total: Arc<Counter>,
    /// Wall-clock cost of the most recent registry sweep.
    pub last_sample_ns: Arc<Gauge>,
}

impl TimeseriesMetrics {
    fn register(r: &Registry) -> Self {
        TimeseriesMetrics {
            samples_total: r.counter(
                "dice_timeseries_samples_total",
                "Registry sweeps taken by the time-series recorder",
            ),
            last_sample_ns: r.gauge(
                "dice_timeseries_last_sample_ns",
                "Wall-clock cost of the most recent registry sweep",
            ),
        }
    }
}

/// The full DICE metric catalog, one instance per recording [`Registry`].
#[derive(Debug, Clone)]
pub struct DiceMetrics {
    /// Engine-layer metrics.
    pub engine: EngineMetrics,
    /// Gateway-layer metrics.
    pub gateway: GatewayMetrics,
    /// Fleet-layer metrics.
    pub fleet: FleetMetrics,
    /// Eval-layer metrics.
    pub eval: EvalMetrics,
    /// Training-layer metrics.
    pub train: TrainMetrics,
    /// Trace-layer metrics.
    pub trace: TraceMetrics,
    /// Health-layer metrics.
    pub health: HealthMetrics,
    /// Time-series-layer metrics.
    pub timeseries: TimeseriesMetrics,
}

/// Every metric name the full catalog registers, sorted.
///
/// Backs the `dice-lint catalog` coverage check (`DV200`): the list is
/// produced by actually registering [`DiceMetrics`] into a scratch
/// registry, so it can never drift from the runtime catalog.
pub fn catalog_metric_names() -> Vec<&'static str> {
    let registry = Registry::new();
    let _metrics = DiceMetrics::register(&registry);
    registry.entries().iter().map(|e| e.name).collect()
}

impl DiceMetrics {
    /// Registers the whole catalog into `registry`.
    pub fn register(registry: &Registry) -> Self {
        DiceMetrics {
            engine: EngineMetrics::register(registry),
            gateway: GatewayMetrics::register(registry),
            fleet: FleetMetrics::register(registry),
            eval: EvalMetrics::register(registry),
            train: TrainMetrics::register(registry),
            trace: TraceMetrics::register(registry),
            health: HealthMetrics::register(registry),
            timeseries: TimeseriesMetrics::register(registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_all_layers() {
        let registry = Registry::new();
        let metrics = DiceMetrics::register(&registry);
        assert!(registry.len() >= 25);
        metrics.engine.windows_total.inc();
        metrics.gateway.frames_total.inc();
        metrics.eval.trials_total.inc();
        let names: Vec<_> = registry.entries().iter().map(|e| e.name).collect();
        assert!(names.contains(&"dice_engine_windows_total"));
        assert!(names.contains(&"dice_gateway_channel_depth"));
        assert!(names.contains(&"dice_eval_trial_ns"));
        assert!(names.contains(&"dice_train_merge_ns"));
        assert!(names.contains(&"dice_trace_records_total"));
        assert!(names.contains(&"dice_trace_explain_render_ns"));
        assert!(names.contains(&"dice_engine_detection_ns"));
        assert!(names.contains(&"dice_gateway_window_ns"));
        assert!(names.contains(&"dice_gateway_home_windows_total"));
        assert!(names.contains(&"dice_gateway_shard_depth"));
        assert!(names.contains(&"dice_fleet_frames_total"));
        assert!(names.contains(&"dice_fleet_models_resident"));
        assert!(names.contains(&"dice_fleet_shard_windows_total"));
        assert!(names.contains(&"dice_fleet_stage_queue_wait_ns"));
        assert!(names.contains(&"dice_fleet_stage_scan_ns"));
        assert!(names.contains(&"dice_fleet_shard_backpressure_wait_ns_total"));
        assert!(names.contains(&"dice_health_status"));
        assert!(names.contains(&"dice_timeseries_samples_total"));
        metrics.engine.detection_ns.record(1_000);
        metrics
            .gateway
            .home_windows_total
            .with_label_values(&["h0"])
            .inc();
        assert_eq!(metrics.engine.detection_ns.count(), 1);
        assert_eq!(metrics.gateway.home_windows_total.len(), 1);
    }

    #[test]
    fn shard_labels_cap_their_cardinality() {
        assert_eq!(shard_label(0), "s0");
        assert_eq!(shard_label(7), "s7");
        assert_eq!(shard_label(63), "s63");
        assert_eq!(shard_label(64), "s64+");
        assert_eq!(shard_label(10_000), "s64+");
    }

    #[test]
    fn train_utilization_mirrors_eval() {
        let registry = Registry::new();
        let metrics = DiceMetrics::register(&registry);
        assert_eq!(metrics.train.worker_utilization(), 0.0);
        metrics.train.workers.set(4);
        metrics.train.wall_ns.add(1_000);
        metrics.train.worker_busy_ns.add(3_000);
        assert!((metrics.train.worker_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn prefilter_hit_rate_and_utilization_handle_zero() {
        let registry = Registry::new();
        let metrics = DiceMetrics::register(&registry);
        assert_eq!(metrics.engine.scan_prefilter_hit_rate(), 0.0);
        assert_eq!(metrics.eval.worker_utilization(), 0.0);
        metrics.engine.scan_rows_total.add(100);
        metrics.engine.scan_rows_pruned_total.add(80);
        assert!((metrics.engine.scan_prefilter_hit_rate() - 0.8).abs() < 1e-12);
        metrics.eval.workers.set(2);
        metrics.eval.wall_ns.add(1_000);
        metrics.eval.worker_busy_ns.add(1_500);
        assert!((metrics.eval.worker_utilization() - 0.75).abs() < 1e-12);
    }
}
