//! A compact fixed-width bit set used to represent sensor state sets.
//!
//! Sensor state sets (Section 3.2.1) are bit vectors with one bit per binary
//! sensor and three bits per numeric sensor. The hot operation is Hamming
//! distance against every known group (the correlation check, Figure 3.5), so
//! the representation packs bits into `u64` words and distances are computed
//! with `popcount` over XOR-ed words.

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// A fixed-length bit set.
///
/// # Example
///
/// ```
/// use dice_core::BitSet;
///
/// let mut a = BitSet::new(10);
/// let mut b = BitSet::new(10);
/// a.set(3, true);
/// b.set(3, true);
/// b.set(7, true);
/// assert_eq!(a.hamming_distance(&b), 1);
/// assert_eq!(b.count_ones(), 2);
/// ```
#[derive(Debug, Clone, Eq, Serialize, Deserialize)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an all-zero bit set of `len` bits.
    pub fn new(len: usize) -> Self {
        let words = vec![0u64; len.div_ceil(WORD_BITS)];
        BitSet { len, words }
    }

    /// Creates a bit set from an iterator of set-bit indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut set = BitSet::new(len);
        for i in indices {
            set.set(i, true);
        }
        set
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has zero bits of capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1
    }

    /// Writes bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clears all bits and resizes the set to `len` bits, reusing the word
    /// buffer: a width change allocates only when it outgrows the buffer's
    /// capacity.
    pub fn clear_to(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of differing bits between two equal-length sets.
    ///
    /// This is the group distance of the correlation check: for
    /// `G1 = {1,1,0,0,0}` and `G2 = {0,0,0,1,1}` the distance is 4.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    #[inline]
    pub fn hamming_distance(&self, other: &BitSet) -> u32 {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Like [`BitSet::hamming_distance`] but stops counting once the distance
    /// exceeds `limit`, returning `None`.
    ///
    /// The candidate-group search only cares about groups within the fault
    /// threshold, so most comparisons can bail out early.
    #[inline]
    pub fn hamming_distance_within(&self, other: &BitSet, limit: u32) -> Option<u32> {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        let mut total = 0u32;
        for (a, b) in self.words.iter().zip(&other.words) {
            total += (a ^ b).count_ones();
            if total > limit {
                return None;
            }
        }
        Some(total)
    }

    /// Iterates over the indices where the two sets differ.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn diff_indices<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "diff requires equal lengths");
        let len = self.len;
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(move |(wi, (a, b))| {
                let mut x = a ^ b;
                std::iter::from_fn(move || {
                    if x == 0 {
                        None
                    } else {
                        let bit = x.trailing_zeros() as usize;
                        x &= x - 1;
                        Some(wi * WORD_BITS + bit)
                    }
                })
            })
            .filter(move |&i| i < len)
    }

    /// Iterates over the indices of set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut x = w;
                std::iter::from_fn(move || {
                    if x == 0 {
                        None
                    } else {
                        let bit = x.trailing_zeros() as usize;
                        x &= x - 1;
                        Some(wi * WORD_BITS + bit)
                    }
                })
            })
            .filter(move |&i| i < len)
    }

    /// The backing words, least-significant bit first.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutably. Callers must set no bit at or beyond
    /// [`BitSet::len`].
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Overwrites the backing words in place, keeping the length.
    ///
    /// # Panics
    ///
    /// Panics if the word count differs from this set's.
    #[inline]
    pub(crate) fn copy_from_words(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
        debug_assert!(
            self.len.is_multiple_of(WORD_BITS)
                || self
                    .words
                    .last()
                    .is_none_or(|&w| w >> (self.len % WORD_BITS) == 0),
            "bits set beyond length"
        );
    }

    /// Reconstructs a bit set from its backing words.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match `len`, or if bits beyond
    /// `len` are set.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(WORD_BITS), "word count mismatch");
        if !len.is_multiple_of(WORD_BITS) {
            if let Some(&last) = words.last() {
                assert_eq!(last >> (len % WORD_BITS), 0, "bits set beyond length");
            }
        }
        BitSet { len, words }
    }

    /// Whether any bit in `[start, start + width)` is set.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the set's length.
    pub fn any_in_span(&self, start: usize, width: usize) -> bool {
        assert!(start + width <= self.len, "span out of range");
        (start..start + width).any(|i| self.get(i))
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words.hash(state);
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let s = BitSet::new(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
        assert!(!s.get(0));
        assert!(!s.get(129));
    }

    #[test]
    fn set_get_round_trip_across_word_boundary() {
        let mut s = BitSet::new(130);
        for &i in &[0, 63, 64, 65, 127, 128, 129] {
            s.set(i, true);
            assert!(s.get(i), "bit {i}");
        }
        assert_eq!(s.count_ones(), 7);
        s.set(64, false);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 6);
    }

    #[test]
    fn clear_to_resizes_in_place() {
        let mut s = BitSet::from_indices(200, [0, 130, 199]);
        let buffer = s.words.as_ptr();
        for len in [5, 200, 64, 0, 130] {
            s.clear_to(len);
            assert_eq!(s, BitSet::new(len), "width {len}");
            assert_eq!(s.words.as_ptr(), buffer, "width {len} reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = BitSet::new(8);
        let _ = s.get(8);
    }

    #[test]
    fn hamming_distance_matches_paper_example() {
        // G1 = {1,1,0,0,0}, G2 = {0,0,0,1,1} -> distance 4
        let g1 = BitSet::from_indices(5, [0, 1]);
        let g2 = BitSet::from_indices(5, [3, 4]);
        assert_eq!(g1.hamming_distance(&g2), 4);
        assert_eq!(g2.hamming_distance(&g1), 4);
        assert_eq!(g1.hamming_distance(&g1), 0);
    }

    #[test]
    fn hamming_distance_within_limit() {
        let g1 = BitSet::from_indices(5, [0, 1]);
        let g2 = BitSet::from_indices(5, [3, 4]);
        assert_eq!(g1.hamming_distance_within(&g2, 4), Some(4));
        assert_eq!(g1.hamming_distance_within(&g2, 3), None);
        assert_eq!(g1.hamming_distance_within(&g1, 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_distance_rejects_length_mismatch() {
        let _ = BitSet::new(4).hamming_distance(&BitSet::new(5));
    }

    #[test]
    fn diff_indices_lists_differing_bits() {
        let a = BitSet::from_indices(70, [1, 64, 69]);
        let b = BitSet::from_indices(70, [1, 65]);
        let diff: Vec<usize> = a.diff_indices(&b).collect();
        assert_eq!(diff, vec![64, 65, 69]);
    }

    #[test]
    fn ones_lists_set_bits_in_order() {
        let s = BitSet::from_indices(70, [5, 63, 64]);
        let ones: Vec<usize> = s.ones().collect();
        assert_eq!(ones, vec![5, 63, 64]);
    }

    #[test]
    fn any_in_span_checks_window() {
        let s = BitSet::from_indices(10, [4]);
        assert!(s.any_in_span(3, 3));
        assert!(!s.any_in_span(5, 3));
        assert!(s.any_in_span(4, 1));
    }

    #[test]
    fn clear_resets_all() {
        let mut s = BitSet::from_indices(10, [1, 9]);
        s.clear();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn equality_and_hash_agree() {
        use std::collections::HashSet;
        let a = BitSet::from_indices(10, [2, 3]);
        let b = BitSet::from_indices(10, [2, 3]);
        let c = BitSet::from_indices(10, [2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn display_renders_bit_string() {
        let s = BitSet::from_indices(5, [0, 3]);
        assert_eq!(s.to_string(), "10010");
    }

    #[test]
    fn from_indices_empty_iter() {
        let s = BitSet::from_indices(5, []);
        assert_eq!(s.count_ones(), 0);
    }
}
