//! A log2-bucketed quantile sketch: the one distribution type.
//!
//! [`QuantileSketch`] keeps an HDR-style layout — every octave above 16 is
//! split into 16 linear sub-buckets — so p50/p95/p99 estimates carry a
//! documented relative-error bound of [`SKETCH_RELATIVE_ERROR`] (6.25%)
//! over the full `u64` range, with values below 16 represented exactly.
//! Recording is two relaxed atomic adds; reads that only need the total
//! count pay a full bucket scan instead, keeping the writer side minimal
//! (readers are snapshots and sweeps, not hot loops). Loops that record
//! every window should buffer through a [`LocalSketch`] — even relaxed
//! atomic read-modify-writes cost tens of nanoseconds on some hosts, and
//! check latencies cluster into a handful of buckets, so a batched flush
//! collapses thousands of samples into a few adds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: each octave splits into `2^LOG_SUB_BITS` linear
/// sub-buckets.
const LOG_SUB_BITS: u32 = 4;

/// Sub-buckets per octave (16).
const SUB: u64 = 1 << LOG_SUB_BITS;

/// Total buckets: 16 exact unit buckets for `0..16`, then 16 sub-buckets for
/// each of the 60 octaves `[16, 32), [32, 64), ... [2^63, 2^64)`.
const NUM_BUCKETS: usize = 16 * 61;

/// The documented worst-case relative error of a quantile estimate.
///
/// A bucket `[lower, lower + width)` in octave `o >= 1` has
/// `width = 2^(o-1)` and `lower = (16 + sub) * 2^(o-1)`, so the estimate
/// (the bucket's inclusive upper bound) exceeds the true sample by at most
/// `(width - 1) / lower < 1 / 16`. Values below 16 are exact.
pub const SKETCH_RELATIVE_ERROR: f64 = 1.0 / 16.0;

/// A lock-free quantile sketch over `u64` samples.
#[derive(Debug)]
pub struct QuantileSketch {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index `value` falls into.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let h = 63 - value.leading_zeros(); // >= LOG_SUB_BITS
    let octave_base = ((h - LOG_SUB_BITS + 1) << LOG_SUB_BITS) as usize;
    octave_base + ((value >> (h - LOG_SUB_BITS)) as usize & (SUB as usize - 1))
}

/// The inclusive upper bound of bucket `index` — the value a quantile
/// estimate reports.
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let octave = (index >> LOG_SUB_BITS) as u32; // 1..=60
    let sub = (index as u64) & (SUB - 1);
    let width = 1u64 << (octave - 1);
    // Group `width - 1` first: for the top bucket the lower bound plus
    // `width` is exactly 2^64 and would overflow before the subtraction.
    ((SUB + sub) << (octave - 1)) + (width - 1)
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Records one sample: two relaxed atomic adds.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`), or `None` when
    /// the sketch is empty.
    ///
    /// The estimate is the inclusive upper bound of the bucket holding the
    /// rank-`ceil(q * count)` sample, so it is never below the true sample
    /// value and overshoots by at most [`SKETCH_RELATIVE_ERROR`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut running = 0u64;
        for (index, &count) in counts.iter().enumerate() {
            running += count;
            if running >= rank {
                return Some(bucket_upper(index));
            }
        }
        None // unreachable: running reaches total >= rank
    }

    /// The (p50, p95, p99) estimates, or `None` when empty.
    pub fn percentiles(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }

    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }
}

/// An unsynchronized accumulation buffer over a shared [`QuantileSketch`].
///
/// [`LocalSketch::record`] is a bucket lookup plus two plain integer adds;
/// [`LocalSketch::flush`] publishes one atomic add per *touched* bucket
/// (latency samples cluster, so a thousand-window batch typically touches a
/// few dozen of the 976 buckets) plus one for the sum. Buffered samples are
/// invisible to snapshots until flushed; dropping the buffer flushes it.
///
/// Pending counts are `u32` — half the memory of the shared buckets — and
/// a bucket that reaches `u32::MAX` triggers a flush on the spot.
#[derive(Debug)]
pub struct LocalSketch {
    shared: Arc<QuantileSketch>,
    counts: Box<[u32]>,
    /// Indices of buckets with a pending count, so a flush never scans the
    /// full bucket array.
    touched: Vec<u16>,
    sum: u64,
}

impl LocalSketch {
    /// An empty buffer over `shared`.
    pub fn new(shared: Arc<QuantileSketch>) -> Self {
        LocalSketch {
            shared,
            counts: vec![0u32; NUM_BUCKETS].into_boxed_slice(),
            touched: Vec::new(),
            sum: 0,
        }
    }

    /// Buffers one sample without touching shared state (unless its
    /// bucket's pending count saturates, which flushes).
    #[inline]
    pub fn record(&mut self, value: u64) {
        let index = bucket_index(value);
        let count = &mut self.counts[index];
        if *count == 0 {
            #[allow(clippy::cast_possible_truncation)]
            self.touched.push(index as u16);
        }
        *count += 1;
        self.sum = self.sum.saturating_add(value);
        if *count == u32::MAX {
            self.flush();
        }
    }

    /// Publishes every buffered sample to the shared sketch.
    pub fn flush(&mut self) {
        for &index in &self.touched {
            let index = usize::from(index);
            self.shared.buckets[index].fetch_add(u64::from(self.counts[index]), Ordering::Relaxed);
            self.counts[index] = 0;
        }
        self.touched.clear();
        if self.sum > 0 {
            self.shared.sum.fetch_add(self.sum, Ordering::Relaxed);
            self.sum = 0;
        }
    }

    /// The shared sketch this buffer publishes into.
    pub fn shared(&self) -> &Arc<QuantileSketch> {
        &self.shared
    }
}

impl Drop for LocalSketch {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exact region.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // Monotone across the exact/log boundary and octave boundaries.
        let probes = [
            14,
            15,
            16,
            17,
            31,
            32,
            33,
            63,
            64,
            65,
            1023,
            1024,
            1 << 40,
            u64::MAX,
        ];
        for w in probes.windows(2) {
            assert!(bucket_index(w[0]) <= bucket_index(w[1]), "probe {w:?}");
        }
        // Every probe sits inside its bucket's range.
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "value {v} above bucket upper");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "value {v} below bucket lower");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_are_exact_below_sixteen() {
        let sketch = QuantileSketch::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            sketch.record(v);
        }
        assert_eq!(sketch.quantile(0.5), Some(5));
        assert_eq!(sketch.quantile(1.0), Some(10));
        assert_eq!(sketch.quantile(0.0), Some(1));
        assert_eq!(sketch.count(), 10);
        assert_eq!(sketch.sum(), 55);
        assert!((sketch.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_error_stays_within_documented_bound() {
        let sketch = QuantileSketch::new();
        let mut values: Vec<u64> = (0..2000u64)
            .map(|i| (i * i * 37 + 13) % 900_000_000)
            .collect();
        for &v in &values {
            sketch.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let estimate = sketch.quantile(q).unwrap();
            assert!(
                estimate >= exact,
                "q={q}: estimate {estimate} < exact {exact}"
            );
            assert!(
                estimate as f64 <= exact as f64 * (1.0 + SKETCH_RELATIVE_ERROR) + 1.0,
                "q={q}: estimate {estimate} beyond bound over exact {exact}"
            );
        }
    }

    #[test]
    fn local_sketch_buffers_and_flushes() {
        let shared = Arc::new(QuantileSketch::new());
        let mut local = LocalSketch::new(Arc::clone(&shared));
        local.record(5);
        local.record(5);
        local.record(1_000_000);
        assert_eq!(shared.count(), 0, "buffered samples stay invisible");
        local.flush();
        assert_eq!(shared.count(), 3);
        assert_eq!(shared.sum(), 1_000_010);
        assert_eq!(shared.quantile(0.5), Some(5));
        // A second flush with nothing buffered publishes nothing.
        local.flush();
        assert_eq!(shared.count(), 3);
        // Drop flushes the remainder.
        local.record(7);
        drop(local);
        assert_eq!(shared.count(), 4);
        assert_eq!(shared.sum(), 1_000_017);
    }

    #[test]
    fn saturated_local_count_flushes() {
        let shared = Arc::new(QuantileSketch::new());
        let mut local = LocalSketch::new(Arc::clone(&shared));
        local.record(9);
        // Stand in for u32::MAX - 2 more records of the same value.
        local.counts[9] = u32::MAX - 1;
        local.sum = 9 * u64::from(u32::MAX - 1);
        assert_eq!(shared.count(), 0, "below saturation nothing publishes");
        local.record(9);
        assert_eq!(shared.count(), u64::from(u32::MAX), "saturation flushed");
        assert_eq!(shared.sum(), 9 * u64::from(u32::MAX));
        assert!(local.counts.iter().all(|&c| c == 0));
        assert!(local.touched.is_empty());
        // The buffer keeps working after the forced flush.
        local.record(9);
        local.flush();
        assert_eq!(shared.count(), u64::from(u32::MAX) + 1);
    }

    #[test]
    fn buffered_samples_match_direct_records_bucket_for_bucket() {
        let direct = QuantileSketch::new();
        let shared = Arc::new(QuantileSketch::new());
        let mut local = LocalSketch::new(Arc::clone(&shared));
        let values = (0..5000u64).map(|i| (i * i * 7919 + i) % 3_000_000);
        for (i, v) in values.chain([0, 15, 16, u64::MAX]).enumerate() {
            direct.record(v);
            local.record(v);
            if i % 777 == 0 {
                local.flush();
            }
        }
        local.flush();
        let load = |s: &QuantileSketch| -> Vec<u64> {
            s.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect()
        };
        assert_eq!(load(&shared), load(&direct));
        assert_eq!(shared.count(), 5004);
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sketch = QuantileSketch::new();
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.percentiles(), None);
        assert_eq!(sketch.mean(), 0.0);
    }
}
