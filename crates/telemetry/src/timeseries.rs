//! Interval time series sampled from the metric registry.
//!
//! A [`TimeSeriesRecorder`] sweeps a [`Recorder`]'s registry at a fixed
//! interval on an **injected clock** — callers pass `now_ns` explicitly, so
//! replay-driven sampling (sim time) is deterministic and tests never sleep.
//! Each sweep stores one [`SeriesSample`] of *interval deltas* into a
//! bounded [`SlotRing`]: counters become per-interval increments (rates),
//! gauges keep their last value, and sketches contribute their interval
//! `(count, sum)` deltas. Labeled families are folded into one
//! series per family (children summed for counters, max for gauges).
//!
//! The first call to [`TimeSeriesRecorder::sample_at`] only establishes the
//! baseline — no sample is pushed — so the first retained sample already
//! holds a clean delta instead of the cumulative total since process start.
//!
//! **Sweep cost discipline.** A sweep rides along a hot replay loop from a
//! cold cache, so its cost is dominated by cache misses, and the recorder
//! is built to touch as few lines as possible: the registry is resolved
//! once into a compact *sweep plan* (one 48-byte `SweepEntry` per watched
//! metric, holding the typed handle and the previous cumulative value
//! side by side), re-resolved only when the registry grows; sample rows are
//! sorted `(name, value)` vectors filled into reusable scratch buffers and
//! *swapped* into the ring slot so evicted samples hand their capacity
//! back; families are folded under their lock without cloning label keys.
//! Callers that only plot a handful of series (the monitor dashboard)
//! should narrow the sweep further with [`TimeSeriesRecorder::watch`] — a
//! full sweep pays roughly one cache miss per registered metric. Each
//! sweep's own wall-clock cost lands in the `dice_timeseries_last_sample_ns`
//! gauge (the health rules watch it), and `dice_timeseries_samples_total`
//! counts sweeps.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::registry::Metric;
use crate::trace::SlotRing;
use crate::Recorder;

/// One interval sample: deltas and last-values over `interval_ns`.
///
/// Rows are sorted by metric name (families folded to one row under the
/// family name); use the accessors to look a metric up.
#[derive(Debug, Clone, Default)]
pub struct SeriesSample {
    /// The injected clock reading this sample was taken at.
    pub at_ns: u64,
    /// Elapsed injected-clock time since the previous sweep.
    pub interval_ns: u64,
    counter_deltas: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    distributions: Vec<(&'static str, (u64, u64))>,
}

impl SeriesSample {
    /// The counter increment over this interval, if `name` is a counter
    /// (or counter family) the sweep saw.
    pub fn counter_delta(&self, name: &str) -> Option<u64> {
        lookup(&self.counter_deltas, name)
    }

    /// The gauge value at sample time, if `name` is a gauge (or gauge
    /// family) the sweep saw.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        lookup(&self.gauges, name)
    }

    /// The `(count, sum)` delta over this interval, if `name` is a
    /// sketch (or sketch family) the sweep saw.
    pub fn distribution(&self, name: &str) -> Option<(u64, u64)> {
        lookup(&self.distributions, name)
    }
}

/// Binary search over one sample's sorted rows.
fn lookup<V: Copy>(rows: &[(&'static str, V)], name: &str) -> Option<V> {
    rows.binary_search_by_key(&name, |&(n, _)| n)
        .ok()
        .map(|i| rows[i].1)
}

/// One pre-resolved sweep target: the typed handle and the previous
/// cumulative value side by side, so a sweep walks one dense vector
/// instead of chasing a parallel array and re-matching entry kinds.
#[derive(Debug)]
struct SweepEntry {
    name: &'static str,
    /// Previous cumulative `(a, b)` — counters use `a`, distributions use
    /// `(count, sum)`, gauges neither.
    prev: (u64, u64),
    metric: Metric,
}

/// Samples a registry at a fixed injected-clock interval into a bounded
/// ring of interval deltas.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    interval_ns: u64,
    ring: SlotRing<SeriesSample>,
    /// Only sweep metrics whose name is in this list (`None` = everything).
    watchlist: Option<&'static [&'static str]>,
    /// The sorted (watchlist-filtered) sweep plan, re-resolved only when
    /// the registry grows.
    plan: Vec<SweepEntry>,
    /// Registry size at the last plan refresh — the staleness check, kept
    /// separately because a watchlist makes `plan.len()` smaller.
    registry_len: usize,
    scratch: SeriesSample,
    last_at_ns: Option<u64>,
}

impl TimeSeriesRecorder {
    /// A recorder sweeping every `interval_ns` of injected time, retaining
    /// the most recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns` is zero or `capacity` is zero.
    pub fn new(interval_ns: u64, capacity: usize) -> Self {
        assert!(interval_ns > 0, "sample interval must be positive");
        TimeSeriesRecorder {
            interval_ns,
            ring: SlotRing::new(capacity),
            watchlist: None,
            plan: Vec::new(),
            registry_len: usize::MAX,
            scratch: SeriesSample::default(),
            last_at_ns: None,
        }
    }

    /// Restricts sweeps to the named metrics. Every metric handle lives in
    /// its own allocation, so a full-registry sweep from a cold cache pays
    /// roughly one cache miss per metric; a dashboard that plots six series
    /// has no reason to touch the other forty. Unknown names are ignored.
    #[must_use]
    pub fn watch(mut self, names: &'static [&'static str]) -> Self {
        self.watchlist = Some(names);
        self.registry_len = usize::MAX; // force a refresh on the next sweep
        self
    }

    /// Sweeps `recorder` if at least one interval elapsed since the last
    /// sweep (the very first call only sets the baseline). Returns whether
    /// a sweep happened.
    pub fn maybe_sample(&mut self, recorder: &Recorder, now_ns: u64) -> bool {
        match self.last_at_ns {
            None => {
                self.sample_at(recorder, now_ns);
                true
            }
            Some(last) if now_ns.saturating_sub(last) >= self.interval_ns => {
                self.sample_at(recorder, now_ns);
                true
            }
            Some(_) => false,
        }
    }

    /// Re-resolves the sweep plan from the registry, carrying previous
    /// cumulative values over by name so deltas stay exact across
    /// registrations.
    fn refresh_plan(&mut self, recorder: &Recorder) {
        let carried: BTreeMap<&'static str, (u64, u64)> =
            self.plan.iter().map(|e| (e.name, e.prev)).collect();
        let mut entries = recorder.registry().entries();
        self.registry_len = entries.len();
        if let Some(names) = self.watchlist {
            entries.retain(|e| names.contains(&e.name));
        }
        self.plan = entries
            .iter()
            .map(|e| SweepEntry {
                name: e.name,
                prev: carried.get(e.name).copied().unwrap_or((0, 0)),
                metric: e.metric().clone(),
            })
            .collect();
    }

    /// Sweeps `recorder` unconditionally at injected time `now_ns`.
    pub fn sample_at(&mut self, recorder: &Recorder, now_ns: u64) {
        let sweep_start = Instant::now();
        if self.registry_len != recorder.registry().len() {
            self.refresh_plan(recorder);
        }
        let baseline_only = self.last_at_ns.is_none();
        let interval_ns = self
            .last_at_ns
            .map_or(0, |last| now_ns.saturating_sub(last));
        self.last_at_ns = Some(now_ns);

        let scratch = &mut self.scratch;
        scratch.at_ns = now_ns;
        scratch.interval_ns = interval_ns;
        scratch.counter_deltas.clear();
        scratch.gauges.clear();
        scratch.distributions.clear();
        for entry in &mut self.plan {
            match &entry.metric {
                Metric::Counter(counter) => {
                    let current = counter.get();
                    let delta = current.saturating_sub(entry.prev.0);
                    entry.prev.0 = current;
                    scratch.counter_deltas.push((entry.name, delta));
                }
                Metric::Gauge(gauge) => {
                    scratch.gauges.push((entry.name, gauge.get()));
                }
                Metric::CounterFamily(family) => {
                    let current = family.fold_values(0u64, |acc, c| acc + c.get());
                    let delta = current.saturating_sub(entry.prev.0);
                    entry.prev.0 = current;
                    scratch.counter_deltas.push((entry.name, delta));
                }
                Metric::GaugeFamily(family) => {
                    let max = family.fold_values(0i64, |acc, g| acc.max(g.get()));
                    scratch.gauges.push((entry.name, max));
                }
                Metric::Sketch(sketch) => {
                    let (count, sum) = (sketch.count(), sketch.sum());
                    let delta = (
                        count.saturating_sub(entry.prev.0),
                        sum.saturating_sub(entry.prev.1),
                    );
                    entry.prev = (count, sum);
                    scratch.distributions.push((entry.name, delta));
                }
                Metric::SketchFamily(family) => {
                    let (count, sum) = family
                        .fold_values((0u64, 0u64), |acc, s| (acc.0 + s.count(), acc.1 + s.sum()));
                    let delta = (
                        count.saturating_sub(entry.prev.0),
                        sum.saturating_sub(entry.prev.1),
                    );
                    entry.prev = (count, sum);
                    scratch.distributions.push((entry.name, delta));
                }
            }
        }
        if !baseline_only {
            // Swap, don't clone: the evicted slot's vectors come back as
            // the next sweep's scratch with their capacity intact.
            self.ring.push_with(|_, slot| {
                std::mem::swap(slot, scratch);
            });
        }
        let sweep_ns = crate::saturating_ns(sweep_start.elapsed().as_nanos());
        recorder.metrics.timeseries.samples_total.inc();
        recorder
            .metrics
            .timeseries
            .last_sample_ns
            .set(i64::try_from(sweep_ns).unwrap_or(i64::MAX));
    }

    /// Per-second rates of counter `name`, oldest sample first. Samples
    /// with a zero interval report a zero rate.
    pub fn counter_rate(&self, name: &str) -> Vec<f64> {
        self.ring
            .iter()
            .map(|sample| {
                let delta = sample.counter_delta(name).unwrap_or(0);
                if sample.interval_ns == 0 {
                    0.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        delta as f64 * 1e9 / sample.interval_ns as f64
                    }
                }
            })
            .collect()
    }

    /// Per-interval increments of counter `name`, oldest sample first.
    pub fn counter_deltas(&self, name: &str) -> Vec<u64> {
        self.ring
            .iter()
            .map(|s| s.counter_delta(name).unwrap_or(0))
            .collect()
    }

    /// Gauge values of `name` at each sample, oldest first.
    pub fn gauge_series(&self, name: &str) -> Vec<i64> {
        self.ring
            .iter()
            .map(|s| s.gauge(name).unwrap_or(0))
            .collect()
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SeriesSample> + '_ {
        self.ring.iter()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no sample was retained yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples evicted by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The configured sampling interval.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn recording() -> Telemetry {
        Telemetry::recording()
    }

    #[test]
    fn first_call_is_baseline_only() {
        let telemetry = recording();
        let recorder = telemetry.recorder().unwrap();
        recorder.metrics.engine.windows_total.add(100);
        let mut series = TimeSeriesRecorder::new(1_000, 8);
        assert!(series.maybe_sample(recorder, 0));
        assert!(series.is_empty(), "baseline sweep must not push a sample");
        recorder.metrics.engine.windows_total.add(5);
        assert!(series.maybe_sample(recorder, 1_000));
        assert_eq!(series.counter_deltas("dice_engine_windows_total"), vec![5]);
        assert_eq!(
            recorder.snapshot().counter("dice_timeseries_samples_total"),
            Some(2)
        );
    }

    #[test]
    fn respects_interval_and_computes_rates() {
        let telemetry = recording();
        let recorder = telemetry.recorder().unwrap();
        let mut series = TimeSeriesRecorder::new(1_000_000_000, 8);
        series.sample_at(recorder, 0);
        recorder.metrics.engine.windows_total.add(10);
        assert!(!series.maybe_sample(recorder, 500_000_000), "too early");
        assert!(series.maybe_sample(recorder, 2_000_000_000));
        let rates = series.counter_rate("dice_engine_windows_total");
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 5.0).abs() < 1e-9, "10 windows over 2s = 5/s");
    }

    #[test]
    fn gauges_families_and_distributions_fold() {
        let telemetry = recording();
        let recorder = telemetry.recorder().unwrap();
        let mut series = TimeSeriesRecorder::new(1, 8);
        series.sample_at(recorder, 0);
        recorder.metrics.gateway.channel_depth.set(7);
        recorder
            .metrics
            .gateway
            .home_windows_total
            .with_label_values(&["h0"])
            .add(3);
        recorder
            .metrics
            .gateway
            .home_windows_total
            .with_label_values(&["h1"])
            .add(4);
        recorder
            .metrics
            .gateway
            .shard_depth
            .with_label_values(&["0"])
            .set_max(2);
        recorder
            .metrics
            .gateway
            .shard_depth
            .with_label_values(&["1"])
            .set_max(9);
        recorder.metrics.engine.detection_ns.record(50);
        recorder.metrics.engine.correlation_check_ns.record(100);
        series.sample_at(recorder, 10);
        assert_eq!(
            series.counter_deltas("dice_gateway_home_windows_total"),
            vec![7]
        );
        assert_eq!(series.gauge_series("dice_gateway_shard_depth"), vec![9]);
        assert_eq!(series.gauge_series("dice_gateway_channel_depth"), vec![7]);
        let sample = series.samples().next().unwrap();
        assert_eq!(
            sample.distribution("dice_engine_detection_ns"),
            Some((1, 50))
        );
        assert_eq!(
            sample.distribution("dice_engine_correlation_check_ns"),
            Some((1, 100))
        );
        assert_eq!(sample.distribution("dice_engine_windows_total"), None);
    }

    #[test]
    fn watchlist_narrows_the_sweep() {
        let telemetry = recording();
        let recorder = telemetry.recorder().unwrap();
        let mut series = TimeSeriesRecorder::new(1, 8)
            .watch(&["dice_engine_windows_total", "dice_gateway_channel_depth"]);
        series.sample_at(recorder, 0);
        recorder.metrics.engine.windows_total.add(4);
        recorder.metrics.engine.reports_total.add(9);
        recorder.metrics.gateway.channel_depth.set(3);
        series.sample_at(recorder, 1);
        assert_eq!(series.counter_deltas("dice_engine_windows_total"), vec![4]);
        assert_eq!(series.gauge_series("dice_gateway_channel_depth"), vec![3]);
        let sample = series.samples().next().unwrap();
        assert_eq!(
            sample.counter_delta("dice_engine_reports_total"),
            None,
            "unwatched metrics must not be swept"
        );
    }

    #[test]
    fn late_registration_refreshes_the_entry_cache() {
        let telemetry = recording();
        let recorder = telemetry.recorder().unwrap();
        let mut series = TimeSeriesRecorder::new(1, 8);
        recorder.metrics.engine.windows_total.add(2);
        series.sample_at(recorder, 0);
        // A metric registered after the baseline sweep: the next sweep must
        // pick it up, and carried-over counters keep exact deltas.
        let late = recorder.registry().counter("dice_test_late_total", "late");
        late.add(9);
        recorder.metrics.engine.windows_total.add(3);
        series.sample_at(recorder, 1);
        assert_eq!(series.counter_deltas("dice_test_late_total"), vec![9]);
        assert_eq!(series.counter_deltas("dice_engine_windows_total"), vec![3]);
    }

    #[test]
    fn ring_bounds_and_drop_counting() {
        let telemetry = recording();
        let recorder = telemetry.recorder().unwrap();
        let mut series = TimeSeriesRecorder::new(1, 3);
        for t in 0..6u64 {
            series.sample_at(recorder, t);
        }
        assert_eq!(series.len(), 3);
        assert_eq!(series.dropped(), 2, "5 pushed (1 baseline), 3 retained");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_is_rejected() {
        let _ = TimeSeriesRecorder::new(0, 4);
    }
}
