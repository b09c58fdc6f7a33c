//! One-pass sample statistics for window binarization.
//!
//! Eq. 3.2 needs the skewness of a window's numeric samples, Eq. 3.3 the
//! first/last values, and Eq. 3.4 the mean. [`WindowStats`] accumulates all
//! of them in a single pass over the window's readings.

/// Accumulator for the per-window statistics of one numeric sensor.
///
/// Flat: emptiness is `n == 0`, so `first`/`last` are plain values that
/// mean nothing until the first sample, and a slice of these resets with
/// one store of [`WindowStats::default`] per touched sensor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    first: f64,
    last: f64,
}

impl WindowStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample (in arrival order).
    #[inline]
    pub fn push(&mut self, value: f64) {
        if self.n == 0 {
            self.first = value;
        }
        // Welford-style central-moment update (third order).
        let n0 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = value - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n0;
        self.mean += delta_n;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.last = value;
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no samples were seen.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sample mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// The population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// The population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// The sample skewness `E[((S - mu) / sigma)^3]` (Eq. 3.2).
    ///
    /// Returns `None` when it is undefined: fewer than two samples, or zero
    /// variance (a constant window has no shape to be skewed).
    pub fn skewness(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let variance = self.m2 / n;
        if self.is_flat(variance) {
            return None;
        }
        Some((self.m3 / n) / variance.powf(1.5))
    }

    /// Whether `variance` is too small for the window to have a shape.
    fn is_flat(&self, variance: f64) -> bool {
        variance <= f64::EPSILON * self.mean.abs().max(1.0)
    }

    /// Whether the skewness is defined and positive: the Eq. 3.2 bit.
    ///
    /// Equal to `skewness().is_some_and(|s| s > 0.0)`, but decides most
    /// windows without the `powf`. The skewness divides `m3 / n` by
    /// `variance^1.5`, which is positive once the variance passes the
    /// constant-window test, so it cannot exceed zero unless `m3 / n`
    /// does. And for a variance of at most `1e200` the divisor is finite
    /// and at most `1e300`, so a third moment of at least `1e-15` leaves a
    /// quotient of at least `1e-315`, still above zero. Other windows take
    /// the exact division.
    pub(crate) fn skewness_positive(&self) -> bool {
        if self.n < 2 {
            return false;
        }
        let n = self.n as f64;
        let third = self.m3 / n;
        let variance = self.m2 / n;
        if third.is_nan() || third <= 0.0 || self.is_flat(variance) {
            return false;
        }
        if third >= 1e-15 && variance <= 1e200 {
            return true;
        }
        self.skewness().is_some_and(|s| s > 0.0)
    }

    /// The first sample of the window (`S_t` in Eq. 3.3).
    pub fn first(&self) -> Option<f64> {
        (self.n > 0).then_some(self.first)
    }

    /// The last sample of the window (`S_{t+d}` in Eq. 3.3).
    pub fn last(&self) -> Option<f64> {
        (self.n > 0).then_some(self.last)
    }

    /// The trend `S_{t+d} - S_t` (Eq. 3.3), or `None` if empty.
    pub fn trend(&self) -> Option<f64> {
        (self.n > 0).then_some(self.last - self.first)
    }
}

impl Extend<f64> for WindowStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for WindowStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut stats = WindowStats::new();
        stats.extend(iter);
        stats
    }
}

/// Number of `i128` bins in an [`ExactSum`]. Finite `f64` exponents after
/// the subnormal offset span `[0, 2045]`; 32 exponent values share a bin.
const EXACT_SUM_BINS: usize = 64;

/// An exact, associative accumulator for `f64` sums.
///
/// The serial threshold trainer and the chunked parallel trainer must learn
/// *bit-identical* `valueThre` values, but floating-point addition is not
/// associative: summing per-chunk partial sums in merge order would drift
/// from the serial left-to-right sum by a few ulps. `ExactSum` sidesteps
/// this by accumulating the exact real-number sum: each finite sample is
/// decomposed into its integer mantissa and exponent (`v = m * 2^e`) and
/// added into one of 64 `i128` bins by exponent range, so addition and
/// [`ExactSum::merge`] are integer operations — exact, associative, and
/// commutative. [`ExactSum::value`] rounds the exact total to the nearest
/// `f64` once, at the end.
///
/// Capacity: each sample contributes less than `2^85` to a bin, so the bins
/// cannot overflow before roughly `2^42` samples — far beyond any training
/// log.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSum {
    bins: [i128; EXACT_SUM_BINS],
    non_finite: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            bins: [0; EXACT_SUM_BINS],
            non_finite: false,
        }
    }
}

impl ExactSum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample. Non-finite samples poison the sum: [`ExactSum::value`]
    /// returns NaN once any was seen (deterministically, regardless of order).
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite = true;
            return;
        }
        let bits = value.to_bits();
        let biased = ((bits >> 52) & 0x7FF) as i32;
        let frac = (bits & ((1u64 << 52) - 1)) as i64;
        // v = m * 2^e exactly; subnormals have e = -1074, normals an implicit
        // leading mantissa bit.
        let (mut m, e) = if biased == 0 {
            (frac, -1074)
        } else {
            (frac | (1i64 << 52), biased - 1075)
        };
        if bits >> 63 == 1 {
            m = -m;
        }
        let offset = (e + 1074) as usize;
        self.bins[offset / 32] += i128::from(m) << (offset % 32);
    }

    /// Adds another accumulator's total into this one. Exact, so the result
    /// is independent of merge order and grouping.
    pub fn merge(&mut self, other: &ExactSum) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.non_finite |= other.non_finite;
    }

    /// The sum, rounded once to the nearest `f64`. A pure function of the
    /// accumulated bins: any partition of the same samples into chunks and
    /// merges yields the same bits.
    pub fn value(&self) -> f64 {
        if self.non_finite {
            return f64::NAN;
        }
        match Self::normalize(&self.bins) {
            Some(digits) => Self::digits_to_f64(&digits),
            None => {
                let mut negated = self.bins;
                for b in &mut negated {
                    *b = -*b;
                }
                let digits = Self::normalize(&negated).expect("negated sum is non-negative");
                -Self::digits_to_f64(&digits)
            }
        }
    }

    /// Carry-normalizes the bins into unsigned base-`2^32` digits of the
    /// magnitude `sum * 2^1074`, or `None` if the sum is negative.
    fn normalize(bins: &[i128; EXACT_SUM_BINS]) -> Option<[u32; EXACT_SUM_BINS + 4]> {
        let mut digits = [0u32; EXACT_SUM_BINS + 4];
        let mut carry: i128 = 0;
        for (i, &bin) in bins.iter().enumerate() {
            let t = bin + carry;
            let d = t.rem_euclid(1 << 32);
            digits[i] = d as u32;
            carry = (t - d) >> 32;
        }
        let mut i = EXACT_SUM_BINS;
        while carry > 0 {
            digits[i] = (carry & 0xFFFF_FFFF) as u32;
            carry >>= 32;
            i += 1;
        }
        (carry == 0).then_some(digits)
    }

    /// Rounds the non-negative integer `digits * 2^-1074` to the nearest
    /// `f64` (ties to even, with a sticky bit for the discarded tail).
    fn digits_to_f64(digits: &[u32; EXACT_SUM_BINS + 4]) -> f64 {
        let Some(hi) = digits.iter().rposition(|&d| d != 0) else {
            return 0.0;
        };
        let msb = 32 * hi + (31 - digits[hi].leading_zeros() as usize);
        let bit = |b: usize| (digits[b / 32] >> (b % 32)) & 1 != 0;
        // Take the top (up to) 128 bits; everything below collapses into a
        // sticky bit so the single u128 -> f64 conversion rounds correctly.
        let lo = msb.saturating_sub(127);
        let mut window: u128 = 0;
        for b in (lo..=msb).rev() {
            window = (window << 1) | u128::from(bit(b));
        }
        let mut sticky = digits[..lo / 32].iter().any(|&d| d != 0);
        if !sticky && !lo.is_multiple_of(32) {
            sticky = digits[lo / 32] & ((1u32 << (lo % 32)) - 1) != 0;
        }
        if sticky {
            window |= 1;
        }
        Self::mul_pow2(window as f64, lo as i32 - 1074)
    }

    /// `x * 2^e` via exact power-of-two multiplies (stepwise near the
    /// exponent range edges; overflow saturates to infinity).
    fn mul_pow2(mut x: f64, mut e: i32) -> f64 {
        while e > 1023 {
            x *= 2f64.powi(1023);
            e -= 1023;
        }
        while e < -1022 {
            x *= 2f64.powi(-1022);
            e += 1022;
        }
        x * 2f64.powi(e)
    }
}

/// An exactly mergeable mean accumulator: sample count plus an [`ExactSum`].
///
/// Replaces the incremental-update running mean on the threshold-training
/// path so that per-chunk partial trainers merge to the same bits as one
/// serial pass (see [`ExactSum`] for why).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeanAccumulator {
    n: u64,
    sum: ExactSum,
}

impl MeanAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.n += 1;
        self.sum.push(value);
    }

    /// Folds another accumulator's samples into this one.
    pub fn merge(&mut self, other: &MeanAccumulator) {
        self.n += other.n;
        self.sum.merge(&other.sum);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean (exact sum, two roundings), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum.value() / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(values: &[f64]) -> WindowStats {
        values.iter().copied().collect()
    }

    #[test]
    fn empty_stats_are_undefined() {
        let s = WindowStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.skewness(), None);
        assert_eq!(s.trend(), None);
    }

    #[test]
    fn mean_and_variance_match_direct_formulas() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = stats(&values);
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((s.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((s.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign_detects_asymmetry() {
        // Right-skewed: one large outlier.
        let right = stats(&[1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(right.skewness().unwrap() > 0.0);
        // Left-skewed: one small outlier.
        let left = stats(&[10.0, 10.0, 10.0, 10.0, 1.0]);
        assert!(left.skewness().unwrap() < 0.0);
        // Symmetric data has (near) zero skewness.
        let sym = stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(sym.skewness().unwrap().abs() < 1e-9);
    }

    #[test]
    fn skewness_undefined_for_constant_or_single() {
        assert_eq!(stats(&[5.0]).skewness(), None);
        assert_eq!(stats(&[5.0, 5.0, 5.0]).skewness(), None);
    }

    #[test]
    fn skewness_positive_agrees_with_skewness() {
        let cases: [&[f64]; 13] = [
            &[],
            &[5.0],
            &[5.0, 5.0, 5.0],
            &[1.0, 1.0, 1.0, 1.0, 10.0],
            &[10.0, 10.0, 10.0, 10.0, 1.0],
            &[1.0, 2.0, 3.0],
            &[1.0, f64::NAN, 3.0],
            &[1.0, f64::INFINITY, 2.0],
            &[1e300, -1e300, 1e300, 7.0],
            // Variance past 1e200: the divisor overflows to infinity.
            &[0.0, 0.0, 0.0, 1e110],
            // A tiny positive third moment over a large variance.
            &[0.0, 0.0, 1e-5, 1e-5 + 1e-21],
            &[1e-3, 2e-3, 2e-3, 3e-3 + 1e-9],
            &[-1e150, 1e150, 1e150],
        ];
        for values in cases {
            let s = stats(values);
            assert_eq!(
                s.skewness_positive(),
                s.skewness().is_some_and(|k| k > 0.0),
                "{values:?}"
            );
        }
    }

    #[test]
    fn trend_is_last_minus_first() {
        let s = stats(&[3.0, 7.0, 5.0]);
        assert_eq!(s.first(), Some(3.0));
        assert_eq!(s.last(), Some(5.0));
        assert_eq!(s.trend(), Some(2.0));
        let single = stats(&[4.0]);
        assert_eq!(single.trend(), Some(0.0));
    }

    #[test]
    fn skewness_matches_naive_computation() {
        let values = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 9.0];
        let s = stats(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let m3 = values.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n;
        let expected = m3 / var.powf(1.5);
        assert!((s.skewness().unwrap() - expected).abs() < 1e-9);
    }

    fn exact(values: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn exact_sum_matches_simple_sums() {
        assert_eq!(exact(&[]).value(), 0.0);
        assert_eq!(exact(&[1.5]).value(), 1.5);
        assert_eq!(exact(&[1.0, 2.0, 3.0, 4.0]).value(), 10.0);
        assert_eq!(exact(&[-2.5, 2.5]).value(), 0.0);
        assert_eq!(exact(&[1e300, -1e300, 7.0]).value(), 7.0);
        assert_eq!(exact(&[-1.0, -2.0]).value(), -3.0);
    }

    #[test]
    fn exact_sum_is_exact_where_float_addition_is_not() {
        // Serially, (1e16 + 1) - 1e16 == 0.0 in f64; the exact sum keeps
        // the unit.
        assert_eq!(exact(&[1e16, 1.0, -1e16]).value(), 1.0);
        // Cancellation across magnitudes.
        assert_eq!(exact(&[1e100, 0.5, -1e100]).value(), 0.5);
    }

    #[test]
    fn exact_sum_handles_subnormals_and_extremes() {
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(exact(&[tiny]).value(), tiny);
        assert_eq!(exact(&[tiny, tiny]).value(), 2.0 * tiny);
        assert_eq!(exact(&[f64::MAX]).value(), f64::MAX);
        assert_eq!(exact(&[f64::MIN]).value(), f64::MIN);
        // An exactly representable overflow saturates to infinity.
        assert_eq!(exact(&[f64::MAX, f64::MAX]).value(), f64::INFINITY);
    }

    #[test]
    fn exact_sum_poisons_on_non_finite() {
        assert!(exact(&[1.0, f64::NAN]).value().is_nan());
        assert!(exact(&[f64::INFINITY, 1.0]).value().is_nan());
    }

    #[test]
    fn exact_sum_merge_is_order_and_grouping_invariant() {
        let values = [
            0.1,
            -7.25,
            1e16,
            3.0e-9,
            42.0,
            -0.30000000000000004,
            1e-300,
            2.5e8,
            -1e16,
            0.7,
        ];
        let reference = exact(&values).value();
        // Every contiguous 3-way split, merged in both orders.
        for i in 0..values.len() {
            for j in i..values.len() {
                let (a, b, c) = (
                    exact(&values[..i]),
                    exact(&values[i..j]),
                    exact(&values[j..]),
                );
                let mut left = a.clone();
                left.merge(&b);
                left.merge(&c);
                let mut right = c;
                right.merge(&b);
                right.merge(&a);
                assert_eq!(left.value().to_bits(), reference.to_bits());
                assert_eq!(right.value().to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn mean_accumulator_merges_exactly() {
        let values = [18.0, 22.0, 21.0, 0.125, -3.5];
        let mut serial = MeanAccumulator::new();
        for &v in &values {
            serial.push(v);
        }
        let mut chunked = MeanAccumulator::new();
        for part in values.chunks(2) {
            let mut m = MeanAccumulator::new();
            for &v in part {
                m.push(v);
            }
            chunked.merge(&m);
        }
        assert_eq!(serial.count(), chunked.count());
        assert_eq!(
            serial.mean().unwrap().to_bits(),
            chunked.mean().unwrap().to_bits()
        );
        assert_eq!(MeanAccumulator::new().mean(), None);
    }
}
